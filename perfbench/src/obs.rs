//! The observability a served workload runs with: the telemetry registry
//! with stage histograms and a slow-request flight recorder, an attached
//! ε-ledger, and a drift/noise monitor as the release observer.

use std::sync::Arc;

use pufferfish_markov::{estimate_class, ClassEstimationOptions, FittedClass};
use pufferfish_monitor::{ClassBounds, MonitorConfig, ServiceMonitor};
use pufferfish_service::{ReleaseObserver, ReleaseService, ServiceTelemetry};
use pufferfish_telemetry::{EpsilonLedger, FlightRecorder, Registry, Stage};

/// Handles onto everything attached by [`attach`].
pub struct Observability {
    pub telemetry: Arc<ServiceTelemetry>,
    pub ledger: Arc<EpsilonLedger>,
}

/// Requests slower than this are kept by the flight recorder.
const SLOW_NS: u64 = 1_000_000;

/// Attaches telemetry with a flight recorder, an ε-ledger and a monitor to
/// `service`, before its first request.
pub fn attach(service: &ReleaseService, bounds: &ClassBounds) -> Observability {
    let registry = Arc::new(Registry::new());
    let recorder = Arc::new(FlightRecorder::new(64, SLOW_NS));
    let telemetry = Arc::new(ServiceTelemetry::with_recorder(registry, recorder));
    let ledger = Arc::new(EpsilonLedger::new());
    let attached = service.budget().attach_ledger(Arc::clone(&ledger));
    assert!(attached, "a fresh service has no ledger yet");
    service.enable_telemetry(Arc::clone(&telemetry));
    service.set_observer(monitor(bounds) as Arc<dyn ReleaseObserver>);
    Observability { telemetry, ledger }
}

pub fn monitor(bounds: &ClassBounds) -> Arc<ServiceMonitor> {
    ServiceMonitor::new(bounds.clone(), MonitorConfig::default(), 16 * 1024)
}

/// Class bounds fitted to the workload's own event sequences.
pub fn bounds_from(sequences: &[Vec<usize>], states: usize) -> ClassBounds {
    let fit: FittedClass = estimate_class(sequences, states, ClassEstimationOptions::default())
        .expect("workload sequences fit a class");
    ClassBounds::from_fitted(&fit)
}

/// Sum of the p50s (ns) of the service's own in-process stages: admission,
/// queue wait, engine and mechanism.
pub fn stage_p50_sum_ns(telemetry: &ServiceTelemetry) -> f64 {
    [
        Stage::Admission,
        Stage::QueueWait,
        Stage::Engine,
        Stage::Mechanism,
    ]
    .into_iter()
    .map(|stage| telemetry.stages().handle(stage).snapshot().percentile(50.0) as f64)
    .sum()
}
