//! The hook through which a runtime monitor watches a live service.
//!
//! The serving layer deliberately knows nothing about *how* releases are
//! validated — the statistics live in the `pufferfish-monitor` crate, which
//! depends on this one. All the service offers is a seam: an attached
//! [`ReleaseObserver`] sees every successful release (with the database it
//! was computed over, so event drift can be scored) and contributes one
//! [`MonitorStats`] block to [`ServiceStats`](crate::ServiceStats).

use pufferfish_core::NoisyRelease;

use crate::MonitorStats;

/// A passive watcher of a [`ReleaseService`](crate::ReleaseService)'s
/// releases.
///
/// Workers call [`ReleaseObserver::observe_release`] on the release path,
/// after a release succeeds and *before* its response is delivered (the
/// ticket fulfilled or the sink called): a submitter that has its response
/// also finds its release already observed. Implementations must therefore
/// be cheap and non-blocking — the `monitor` bench holds the observed warm
/// path to within 5% of the unobserved one. Observers run inside the trust boundary
/// (they see `true_values`; that is what lets them test the noise).
pub trait ReleaseObserver: Send + Sync {
    /// Called by a worker after each successful release.
    fn observe_release(&self, database: &[usize], release: &NoisyRelease);

    /// A snapshot of the observer's counters, folded into
    /// [`ServiceStats::monitor`](crate::ServiceStats::monitor).
    fn monitor_stats(&self) -> MonitorStats;
}
