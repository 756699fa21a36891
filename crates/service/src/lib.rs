//! # pufferfish-service
//!
//! A concurrent serving layer for the Pufferfish privacy mechanisms of Song,
//! Wang & Chaudhuri (SIGMOD 2017). The paper's mechanisms are expensive to
//! *calibrate* and nearly free to *release*; this crate turns that asymmetry
//! into a request/response service that can saturate every core:
//!
//! * [`ReleaseService`] — the front-end: a bounded admission queue feeding a
//!   [`pufferfish_parallel::WorkerPool`], every worker driving one shared,
//!   sharded [`pufferfish_core::ReleaseEngine`] (calibrations are cached and
//!   stampede-coalesced there). Submitters get a [`Ticket`] and wait for
//!   their [`pufferfish_core::NoisyRelease`], or hand the service a sink it
//!   calls once with the response
//!   ([`ReleaseService::try_submit_into`]); a full queue is explicit
//!   back-pressure, not unbounded growth.
//! * [`BudgetAccountant`] — per-user ε-budget accounting under the paper's
//!   Theorem 4.4 composition (via
//!   [`pufferfish_core::CompositionAccountant`]): spends are admitted
//!   atomically, so concurrent requests can never jointly overdraw a user's
//!   budget, and queue refusals roll their spend back.
//! * [`ServiceStats`] — one observability snapshot (cache counters, queue
//!   occupancy, budget spend) shared by the service, the `pufferfish-query`
//!   front-end and the examples.
//! * [`ContinualRelease`] — a streaming pipeline answering sliding-window
//!   histogram queries over event streams, with the mechanism family (Markov
//!   Quilt vs the GK16 baseline) selectable per stream and the stream budget
//!   enforced release by release.
//! * [`ProgressiveRelease`] — anytime answers over one window: a validated
//!   [`RefinementSchedule`] of coarse-to-fine estimates, each charged
//!   through the accountant and certified with an error bound, with the
//!   final refinement bitwise-identical to the equivalent one-shot release.
//! * [`queue::BoundedQueue`] — the underlying closable MPMC queue, exported
//!   for callers building their own pipelines.
//! * [`ServiceTelemetry`] + [`audit_ledger`] — the serving layer's slice of
//!   the workspace telemetry: per-stage latency histograms and admission
//!   counters ([`ReleaseService::enable_telemetry`]), audit-tagged budget
//!   events into an append-only ε ledger
//!   ([`BudgetAccountant::attach_ledger`]), and an offline audit proving
//!   the ledger replays to the live accountant's spend **bitwise**.
//!
//! Everything is deterministic given request seeds: identical request
//! streams produce identical noisy answers regardless of worker count or
//! scheduling, which is what makes the concurrency testable.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
//! use pufferfish_core::queries::StateFrequencyQuery;
//! use pufferfish_core::{MqmApproxOptions, Parallelism};
//! use pufferfish_markov::IntervalClassBuilder;
//! use pufferfish_service::{ReleaseRequest, ReleaseService, ServiceConfig};
//!
//! // One sharded engine, shared by every worker.
//! let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
//! let engine = ReleaseEngine::shared(MqmApproxCalibrator::new(
//!     class,
//!     60,
//!     MqmApproxOptions::default(),
//! ));
//!
//! let service = ReleaseService::start(
//!     engine,
//!     ServiceConfig {
//!         workers: Parallelism::Threads(2),
//!         queue_capacity: 32,
//!         per_user_epsilon: 1.0,
//!     },
//! )
//! .unwrap();
//!
//! let release = service
//!     .release(ReleaseRequest {
//!         user: "alice".to_string(),
//!         query: Arc::new(StateFrequencyQuery::new(1, 60)),
//!         database: vec![0; 60],
//!         epsilon: 0.5,
//!         seed: 1,
//!     })
//!     .unwrap();
//! assert_eq!(release.values.len(), 1);
//! assert!((service.budget().spent("alice") - 0.5).abs() < 1e-12);
//! service.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod audit;
mod budget;
mod error;
mod observer;
mod progressive;
pub mod queue;
mod service;
mod stats;
mod stream;
mod telemetry;

pub use audit::{audit_ledger, AuditError, AuditReport};
pub use budget::{BudgetAccountant, SpendTag};
pub use error::ServiceError;
pub use observer::ReleaseObserver;
pub use progressive::{ProgressiveRelease, ProgressiveUpdate, RefinementSchedule, RefinementStep};
pub use service::{ReleaseRequest, ReleaseService, ServiceConfig, Ticket};
pub use stats::{MonitorStats, ServiceStats, SnapshotInfo, StageLatencies};
pub use stream::{ContinualRelease, StreamBackend, StreamConfig, WindowRelease};
pub use telemetry::ServiceTelemetry;

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServiceError>;
