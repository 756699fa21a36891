//! The request/response serving front-end over a shared [`ReleaseEngine`].
//!
//! Architecture: submitters pass admission control (per-user ε-budget, then
//! the bounded queue) and say where the response goes: a [`Ticket`] they
//! wait on, or a sink the service calls
//! ([`ReleaseService::try_submit_into`]). A [`WorkerPool`] drains the queue,
//! drives the sharded engine (one `Arc<ReleaseEngine>` shared by all
//! workers — calibrations are cached and stampede-coalesced there), and
//! completes every admitted job exactly once. Back-pressure is explicit: a
//! full queue refuses [`ReleaseService::try_submit`] rather than growing
//! without bound.
//!
//! Budget semantics: the ε spend is committed atomically at *admission*, so
//! concurrent submissions can never jointly overdraw a user's budget. If the
//! queue then refuses the request, the spend is rolled back; if the release
//! itself later fails in the mechanism layer, the spend is *kept* — the
//! conservative choice, since a failed release may still have consumed
//! information (and admission, not outcome, is what the accountant can
//! reason about atomically).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pufferfish_core::queries::LipschitzQuery;
use pufferfish_core::snapshot::unix_now;
use pufferfish_core::{
    CalibrationSnapshot, NoisyRelease, PrivacyBudget, PufferfishError, ReleaseEngine,
};
use pufferfish_parallel::{Parallelism, WorkerPool};
use pufferfish_telemetry::{query_signature, LedgerEventKind, RequestTrace, Stage};

use crate::budget::SpendTag;
use crate::queue::{BoundedQueue, PushError};
use crate::telemetry::ServiceTelemetry;
use crate::{BudgetAccountant, ReleaseObserver, ServiceError, ServiceStats};

/// One release request, self-contained and thread-portable.
///
/// The `seed` makes the request's noise deterministic (each worker derives
/// its RNG from it), so identical request streams produce identical
/// responses regardless of worker scheduling — the property the service
/// tests rely on.
#[derive(Clone)]
pub struct ReleaseRequest {
    /// Budget owner this release is charged to.
    pub user: String,
    /// The query to release.
    pub query: Arc<dyn LipschitzQuery>,
    /// The database (state sequence) to evaluate on.
    pub database: Vec<usize>,
    /// Per-release privacy parameter ε.
    pub epsilon: f64,
    /// Seed for the release's Laplace noise.
    pub seed: u64,
}

impl std::fmt::Debug for ReleaseRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseRequest")
            .field("user", &self.user)
            .field("query", &self.query.name())
            .field("database_len", &self.database.len())
            .field("epsilon", &self.epsilon)
            .field("seed", &self.seed)
            .finish()
    }
}

/// Single-use response slot shared between a ticket and the worker that
/// fulfils it.
struct ResponseSlot {
    result: Mutex<Option<Result<NoisyRelease, ServiceError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fulfil(&self, result: Result<NoisyRelease, ServiceError>) {
        // Tolerate a poisoned slot: a job's drop guard fulfils it during
        // unwinding, and a second panic would abort the process.
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.ready.notify_all();
    }
}

/// A claim on the eventual response to a submitted request.
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// `true` once the response is available ([`Ticket::wait`] will not
    /// block).
    pub fn is_ready(&self) -> bool {
        self.slot
            .result
            .lock()
            .expect("response slot poisoned")
            .is_some()
    }

    /// Blocks until the worker fulfils the request and returns the release.
    ///
    /// # Errors
    /// Mechanism-layer failures ([`ServiceError::Mechanism`]) and
    /// [`ServiceError::ServiceClosed`] when the service shut down before a
    /// worker reached the request.
    pub fn wait(self) -> Result<NoisyRelease, ServiceError> {
        let mut result = self.slot.result.lock().expect("response slot poisoned");
        loop {
            if let Some(response) = result.take() {
                return response;
            }
            result = self
                .slot
                .ready
                .wait(result)
                .expect("response slot poisoned");
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

/// Where an admitted job's response goes.
enum Completion {
    /// The slot behind a [`Ticket`] (in-process callers).
    Ticket(Arc<ResponseSlot>),
    /// A caller-supplied sink, called on the worker thread (the network
    /// front-end's hand-off to a connection writer).
    Sink(Box<dyn FnOnce(Result<NoisyRelease, ServiceError>) + Send>),
}

impl Completion {
    fn complete(self, result: Result<NoisyRelease, ServiceError>) {
        match self {
            Completion::Ticket(slot) => slot.fulfil(result),
            Completion::Sink(sink) => sink(result),
        }
    }
}

/// A queued unit of work: the request, where its response goes, and the
/// tracing context it carries through the worker pool.
struct Job {
    request: ReleaseRequest,
    /// Taken when the job completes. Still present at drop means no worker
    /// answered the job; a refused job has it removed before the drop.
    completion: Option<Completion>,
    /// When the job entered admission. Together with `admitted_at` the
    /// worker derives the admission and queue-wait stages from these two
    /// timestamps (the endpoints live on different threads, so an RAII
    /// span cannot time either stage) — which keeps the warm admission
    /// path free of any telemetry lookup at all.
    submitted_at: Instant,
    /// When admission accepted the job (the queue-wait clock start).
    admitted_at: Instant,
    /// The caller's request trace, when one rides along (the network
    /// front-end threads one through so decode/encode on the connection
    /// threads and the worker stages land in one breakdown).
    trace: Option<Arc<RequestTrace>>,
}

impl Drop for Job {
    /// Completes the job with [`ServiceError::ServiceClosed`] if no worker
    /// did: a job dropped before its worker produced a response (worker
    /// panic mid-release, queue teardown) must never leave its submitter
    /// waiting forever.
    fn drop(&mut self) {
        if let Some(completion) = self.completion.take() {
            completion.complete(Err(ServiceError::ServiceClosed));
        }
    }
}

/// Everything a worker serves a job with, replaced as one immutable value
/// by [`ReleaseService::swap_engine`], [`ReleaseService::set_observer`] and
/// [`ReleaseService::enable_telemetry`].
#[derive(Clone)]
struct ServingState {
    engine: Arc<ReleaseEngine>,
    observer: Option<Arc<dyn ReleaseObserver>>,
    telemetry: Option<Arc<ServiceTelemetry>>,
}

/// The slot holding the current [`ServingState`], plus an epoch bumped on
/// every replacement. Workers keep their own `Arc` of the state and re-read
/// the slot only when the epoch moves, so a job costs one atomic load, not a
/// lock and two contended reference-count updates.
struct ServingSlot {
    state: RwLock<Arc<ServingState>>,
    epoch: AtomicU64,
}

impl ServingSlot {
    fn load(&self) -> Arc<ServingState> {
        Arc::clone(&self.state.read().expect("serving state poisoned"))
    }

    /// Installs the state `update` builds from the current one and returns
    /// the state it replaced. Updates are serialised by the write lock, so
    /// none can lose another's change.
    fn update(&self, update: impl FnOnce(&ServingState) -> ServingState) -> Arc<ServingState> {
        let mut state = self.state.write().expect("serving state poisoned");
        let next = Arc::new(update(&state));
        let previous = std::mem::replace(&mut *state, next);
        // Bumped under the write lock: a worker that sees the new epoch and
        // then reads the slot finds this state or a later one.
        self.epoch.fetch_add(1, Ordering::Release);
        previous
    }
}

/// Tuning knobs for [`ReleaseService::start`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Worker-pool size ([`Parallelism::Auto`] = one worker per core).
    pub workers: Parallelism,
    /// Admission-queue capacity (back-pressure threshold, clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Total ε budget granted to each user across all their releases.
    pub per_user_epsilon: f64,
}

impl Default for ServiceConfig {
    /// All cores, a 256-deep queue, and a per-user budget of ε = 1.
    fn default() -> Self {
        ServiceConfig {
            workers: Parallelism::Auto,
            queue_capacity: 256,
            per_user_epsilon: 1.0,
        }
    }
}

/// A concurrent Pufferfish release service.
///
/// # Trust boundary
///
/// Responses are full [`NoisyRelease`] values — including `true_values`,
/// per the workspace-wide experiment-harness convention — and noise seeds
/// are supplied by the requester so traffic is replayable. Both are right
/// for benchmarking and testing, but they sit *inside* the trust boundary:
/// a deployment exposing this service to untrusted clients must strip
/// `true_values` from responses and draw seeds from a server-side CSPRNG,
/// otherwise the ε accounting guards nothing.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
/// use pufferfish_core::queries::StateFrequencyQuery;
/// use pufferfish_core::{MqmApproxOptions, Parallelism};
/// use pufferfish_markov::IntervalClassBuilder;
/// use pufferfish_service::{ReleaseRequest, ReleaseService, ServiceConfig, ServiceError};
///
/// let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
/// let engine = ReleaseEngine::shared(MqmApproxCalibrator::new(
///     class,
///     60,
///     MqmApproxOptions::default(),
/// ));
/// let service = ReleaseService::start(
///     engine,
///     ServiceConfig {
///         workers: Parallelism::Threads(2),
///         queue_capacity: 8,
///         per_user_epsilon: 1.0,
///     },
/// )
/// .unwrap();
///
/// let request = |seed: u64| ReleaseRequest {
///     user: "alice".to_string(),
///     query: Arc::new(StateFrequencyQuery::new(1, 60)),
///     database: vec![0; 60],
///     epsilon: 0.5,
///     seed,
/// };
/// // Two releases of ε = 0.5 fit alice's budget of 1.0.
/// let first = service.submit(request(1)).unwrap();
/// let second = service.submit(request(2)).unwrap();
/// assert_eq!(first.wait().unwrap().values.len(), 1);
/// assert_eq!(second.wait().unwrap().values.len(), 1);
/// // The third is refused at admission: budget exhausted.
/// assert!(matches!(
///     service.submit(request(3)),
///     Err(ServiceError::BudgetExhausted { .. })
/// ));
/// service.shutdown();
/// ```
pub struct ReleaseService {
    /// The engine, observer and telemetry that requests are served with,
    /// replaced together. A worker serves each job from one state, so a
    /// request is always answered by exactly one engine's calibration,
    /// never a torn mix of pre- and post-swap entries.
    serving: Arc<ServingSlot>,
    budget: Arc<BudgetAccountant>,
    queue: Arc<BoundedQueue<Job>>,
    pool: Option<WorkerPool>,
    served: Arc<AtomicU64>,
    /// Provenance of the warm-start snapshot, when the service was built
    /// with [`ReleaseService::warm_start`].
    warm_start: Option<WarmStartProvenance>,
}

/// What [`ReleaseService::warm_start`] remembers about the snapshot it
/// loaded (the age in [`crate::SnapshotInfo`] is derived from the creation
/// time at every stats call).
#[derive(Debug, Clone, Copy)]
struct WarmStartProvenance {
    created_unix_secs: u64,
    entries: usize,
    bytes: u64,
}

impl ReleaseService {
    /// Starts the worker pool and returns the running service.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] for a non-positive per-user budget.
    pub fn start(engine: Arc<ReleaseEngine>, config: ServiceConfig) -> Result<Self, ServiceError> {
        let budget = Arc::new(BudgetAccountant::new(config.per_user_epsilon)?);
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(config.queue_capacity));
        let served = Arc::new(AtomicU64::new(0));
        let serving = Arc::new(ServingSlot {
            state: RwLock::new(Arc::new(ServingState {
                engine,
                observer: None,
                telemetry: None,
            })),
            epoch: AtomicU64::new(0),
        });

        let pool = {
            let serving = Arc::clone(&serving);
            let queue = Arc::clone(&queue);
            let served = Arc::clone(&served);
            WorkerPool::spawn(config.workers, "pufferfish-release", move |_worker| {
                // The epoch is read before the state, so a replacement that
                // lands in between is picked up by the next job.
                let mut epoch = serving.epoch.load(Ordering::Acquire);
                let mut state = serving.load();
                while let Some(job) = queue.pop() {
                    let current = serving.epoch.load(Ordering::Acquire);
                    if current != epoch {
                        epoch = current;
                        state = serving.load();
                    }
                    Self::work(&state, &queue, &served, job);
                }
            })
        };

        Ok(ReleaseService {
            serving,
            budget,
            queue,
            pool: Some(pool),
            served,
            warm_start: None,
        })
    }

    /// Starts the service *warm*: loads the calibration snapshot at `path`
    /// into `engine` before spawning the workers, so the first requests are
    /// cache hits instead of multi-second cold calibrations.
    ///
    /// The import performs **zero** calibrations — the engine's miss counter
    /// is untouched, which is how the warm-start tests and the
    /// `calibration_store` bench certify that no calibration ran. Snapshot
    /// provenance (age, entry count, file size) is reported through
    /// [`ServiceStats::snapshot`](crate::ServiceStats::snapshot).
    ///
    /// A missing, corrupt, version-mismatched or wrong-class snapshot is a
    /// **typed error**, not a silent cold start: callers that prefer
    /// best-effort warming can match on
    /// `ServiceError::Mechanism(PufferfishError::Snapshot(_))` and fall back
    /// to [`ReleaseService::start`] themselves.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] as for [`ReleaseService::start`];
    /// [`ServiceError::Mechanism`] wrapping
    /// [`pufferfish_core::SnapshotError`] for every snapshot failure.
    pub fn warm_start(
        engine: Arc<ReleaseEngine>,
        config: ServiceConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, ServiceError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            PufferfishError::Snapshot(pufferfish_core::SnapshotError::Io(format!(
                "reading {}: {e}",
                path.display()
            )))
        })?;
        let snapshot = CalibrationSnapshot::from_bytes(&bytes)?;
        let entries = engine.import_snapshot(&snapshot)?;
        let mut service = Self::start(engine, config)?;
        service.warm_start = Some(WarmStartProvenance {
            created_unix_secs: snapshot.created_unix_secs,
            entries,
            bytes: bytes.len() as u64,
        });
        Ok(service)
    }

    /// Exports the engine's current calibration cache to `path`, returning
    /// the bytes written — the producer side of
    /// [`ReleaseService::warm_start`]. Shard locks are held only to clone
    /// entries; encoding and file I/O run lock-free, so a live service can
    /// checkpoint itself without stalling releases.
    ///
    /// # Errors
    /// [`ServiceError::Mechanism`] wrapping
    /// [`pufferfish_core::SnapshotError::Io`] on filesystem failures.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<u64, ServiceError> {
        Ok(self.engine().export_snapshot().write_to_file(path)?)
    }

    /// One worker's handling of one job: serve it from `state`, report a
    /// successful release to the observer, then complete the job.
    fn work(state: &ServingState, queue: &BoundedQueue<Job>, served: &AtomicU64, mut job: Job) {
        let watch = state.telemetry.as_deref();
        // In-process submissions carry no trace of their own; when a flight
        // recorder is attached, the worker builds one so the recorder still
        // sees a stage breakdown. With no recorder the per-request trace
        // would be dropped unread, so it is never built.
        let own_trace = match (watch, &job.trace) {
            (Some(watch), None) if watch.recorder().is_some() => {
                Some(RequestTrace::new(job.request.seed))
            }
            _ => None,
        };
        let trace = job.trace.as_deref().or(own_trace.as_ref());
        let response = match watch {
            Some(watch) => {
                // One clock read serves as both the queue-wait end and the
                // engine-stage start ("dequeued"): clock reads are the bulk
                // of the per-request telemetry cost. The admission stage and
                // counter are recorded here, from the job's timestamps,
                // rather than on the submitter thread.
                let dequeued = Instant::now();
                Self::record_stage(
                    watch,
                    trace,
                    Stage::Admission,
                    job.admitted_at.duration_since(job.submitted_at),
                );
                watch.admitted().inc();
                Self::record_stage(
                    watch,
                    trace,
                    Stage::QueueWait,
                    dequeued.duration_since(job.admitted_at),
                );
                // The atomic mirror, not `len()`: re-locking the queue here
                // would contend with every submitter.
                watch.queue_depth().set(queue.approx_len() as u64);
                Self::serve_traced(&state.engine, &job.request, watch, trace, dequeued)
            }
            None => Self::serve(&state.engine, &job.request),
        };
        if let (Ok(release), Some(observer)) = (&response, &state.observer) {
            observer.observe_release(&job.request.database, release);
        }
        // Count before completing: a submitter woken by its response must
        // observe its own request in `served()`.
        served.fetch_add(1, Ordering::Relaxed);
        if let Some(completion) = job.completion.take() {
            completion.complete(response);
        }
        // A worker-built trace ends here; a caller-supplied one is finished
        // (and offered to a recorder) by its owner.
        if let (Some(recorder), Some(trace)) =
            (watch.and_then(ServiceTelemetry::recorder), &own_trace)
        {
            recorder.observe(trace);
        }
    }

    /// Records one finished stage into the registry histogram and, when the
    /// request carries one, its per-request trace.
    fn record_stage(
        watch: &ServiceTelemetry,
        trace: Option<&RequestTrace>,
        stage: Stage,
        span: Duration,
    ) {
        let nanos = u64::try_from(span.as_nanos()).unwrap_or(u64::MAX);
        watch.stages().record(stage, nanos);
        if let Some(trace) = trace {
            trace.record(stage, nanos);
        }
    }

    fn serve(
        engine: &ReleaseEngine,
        request: &ReleaseRequest,
    ) -> Result<NoisyRelease, ServiceError> {
        let budget = PrivacyBudget::new(request.epsilon)?;
        let mut rng = StdRng::seed_from_u64(request.seed);
        Ok(engine.release(&*request.query, &request.database, budget, &mut rng)?)
    }

    /// [`ReleaseService::serve`] with the engine and mechanism stages timed
    /// separately. Stage boundaries share single clock reads (dequeue →
    /// engine-in-hand → release-in-hand), since clock reads dominate the
    /// per-request telemetry cost: the engine stage is the cache probe
    /// (plus calibration on a miss), the mechanism stage is RNG setup,
    /// query evaluation and noise sampling. Stages are recorded on success;
    /// a failed release records nothing past its failure point. Same noise
    /// as the untraced path — the RNG sees the same draws.
    fn serve_traced(
        engine: &ReleaseEngine,
        request: &ReleaseRequest,
        telemetry: &ServiceTelemetry,
        trace: Option<&RequestTrace>,
        dequeued: Instant,
    ) -> Result<NoisyRelease, ServiceError> {
        let budget = PrivacyBudget::new(request.epsilon)?;
        let mechanism = engine.mechanism(&*request.query, budget)?;
        let engine_done = Instant::now();
        Self::record_stage(
            telemetry,
            trace,
            Stage::Engine,
            engine_done.duration_since(dequeued),
        );
        let mut rng = StdRng::seed_from_u64(request.seed);
        let release = mechanism.release(&*request.query, &request.database, &mut rng)?;
        Self::record_stage(telemetry, trace, Stage::Mechanism, engine_done.elapsed());
        // The split path samples outside `ReleaseEngine::release`, so the
        // per-release telemetry is recorded here.
        engine.note_release(release.scale);
        Ok(release)
    }

    /// Non-blocking submission: admission control (budget, then queue) and
    /// immediate return of a [`Ticket`].
    ///
    /// # Errors
    /// [`ServiceError::BudgetExhausted`] (budget untouched),
    /// [`ServiceError::QueueFull`] / [`ServiceError::ServiceClosed`] (budget
    /// spend rolled back).
    pub fn try_submit(&self, request: ReleaseRequest) -> Result<Ticket, ServiceError> {
        self.admit_ticket(request, false)
    }

    /// [`ReleaseService::try_submit`] that completes into `sink` instead of
    /// a ticket. Once the request is admitted, `sink` is called exactly
    /// once, on a worker thread, with the response — or with
    /// [`ServiceError::ServiceClosed`] if the service dropped the request
    /// unserved. A refused request never calls `sink`: the refusal is this
    /// call's error, as for `try_submit`.
    ///
    /// `trace`, when given, collects the admission, queue-wait, engine and
    /// mechanism stages; the caller finishes it and offers it to a flight
    /// recorder. The network front-end submits every RELEASE frame this
    /// way, with a sink that hands the response to the connection's writer.
    ///
    /// # Errors
    /// As for [`ReleaseService::try_submit`].
    pub fn try_submit_into(
        &self,
        request: ReleaseRequest,
        trace: Option<Arc<RequestTrace>>,
        sink: impl FnOnce(Result<NoisyRelease, ServiceError>) + Send + 'static,
    ) -> Result<(), ServiceError> {
        self.admit(request, trace, Completion::Sink(Box::new(sink)), false)
    }

    /// Blocking submission: waits for queue space instead of failing with
    /// [`ServiceError::QueueFull`].
    ///
    /// # Errors
    /// [`ServiceError::BudgetExhausted`] and [`ServiceError::ServiceClosed`].
    pub fn submit(&self, request: ReleaseRequest) -> Result<Ticket, ServiceError> {
        self.admit_ticket(request, true)
    }

    fn admit_ticket(
        &self,
        request: ReleaseRequest,
        blocking: bool,
    ) -> Result<Ticket, ServiceError> {
        let slot = Arc::new(ResponseSlot::new());
        let completion = Completion::Ticket(Arc::clone(&slot));
        self.admit(request, None, completion, blocking)?;
        Ok(Ticket { slot })
    }

    /// Shared admission path: spend the budget, enqueue (waiting for space
    /// when `blocking`), and roll the spend back when the queue refuses. A
    /// refused job is dropped without completing: its submitter hears the
    /// refusal from this call. Every budget event carries its audit tag —
    /// query signature, engine family, request seed — into an attached ε
    /// ledger.
    fn admit(
        &self,
        request: ReleaseRequest,
        trace: Option<Arc<RequestTrace>>,
        completion: Completion,
        blocking: bool,
    ) -> Result<(), ServiceError> {
        // Every job is timestamped on arrival and on acceptance whether or
        // not telemetry is attached — the worker (which already holds its
        // own copy of the serving state) turns the two timestamps into the
        // admission and queue-wait stages and counts the admission, so the
        // warm path here records nothing. Time spent *inside* the enqueue
        // call is part of the queue-wait stage.
        let submitted_at = Instant::now();
        let state = self.serving.load();
        let tag = SpendTag {
            query_sig: query_signature(request.query.name()),
            family: state.engine.kind(),
            seq: request.seed,
        };
        if let Err(refused) = self
            .budget
            .try_spend_tagged(&request.user, request.epsilon, tag)
        {
            if let Some(watch) = &state.telemetry {
                Self::record_stage(
                    watch,
                    trace.as_deref(),
                    Stage::Admission,
                    submitted_at.elapsed(),
                );
                watch.refused().inc();
            }
            return Err(refused);
        }
        let job = Job {
            request,
            completion: Some(completion),
            submitted_at,
            admitted_at: Instant::now(),
            trace,
        };
        let enqueued = if blocking {
            self.queue.push(job).map_err(PushError::Closed)
        } else {
            self.queue.try_push(job)
        };
        let (error, mut job) = match enqueued {
            Ok(()) => return Ok(()),
            Err(PushError::Full(job)) => (
                ServiceError::QueueFull {
                    capacity: self.queue.capacity(),
                },
                job,
            ),
            Err(PushError::Closed(job)) => (ServiceError::ServiceClosed, job),
        };
        job.completion = None;
        self.budget
            .refund_tagged(&job.request.user, job.request.epsilon, tag);
        if let Some(watch) = &state.telemetry {
            watch.refused().inc();
        }
        Err(error)
    }

    /// Convenience: submit (blocking) and wait for the response.
    ///
    /// # Errors
    /// Admission and mechanism errors, as for [`ReleaseService::submit`] and
    /// [`Ticket::wait`].
    pub fn release(&self, request: ReleaseRequest) -> Result<NoisyRelease, ServiceError> {
        self.submit(request)?.wait()
    }

    /// The engine currently behind the service (cache stats live here).
    ///
    /// The returned `Arc` keeps that engine alive across a concurrent
    /// [`ReleaseService::swap_engine`] — like the workers, callers see one
    /// consistent engine, not a moving target.
    pub fn engine(&self) -> Arc<ReleaseEngine> {
        Arc::clone(&self.serving.load().engine)
    }

    /// Atomically replaces the engine serving future requests, returning the
    /// previous one.
    ///
    /// In-flight requests finish on whichever engine they started with (a
    /// worker serves each job from one serving state), so a swap is never
    /// observable as a torn calibration — only as a clean before/after.
    /// Requests submitted after the swap returns are served by the new
    /// engine. This is the commit point of the monitor crate's canary
    /// recalibration: the new engine is built and calibrated *off-path*,
    /// then installed here in one pointer swap.
    pub fn swap_engine(&self, engine: Arc<ReleaseEngine>) -> Arc<ReleaseEngine> {
        // An attached ε ledger records the swap: an auditor replaying the
        // ledger can see exactly which releases were served before and after
        // a recalibration.
        if let Some(ledger) = self.budget.ledger() {
            ledger.record(LedgerEventKind::Recalibration, "", 0, engine.kind(), 0.0, 0);
        }
        let previous = self.serving.update(|state| {
            // The incoming engine inherits the service's instrumentation.
            if let Some(watch) = &state.telemetry {
                engine.enable_telemetry(watch.registry());
            }
            ServingState {
                engine,
                ..state.clone()
            }
        });
        Arc::clone(&previous.engine)
    }

    /// Attaches live instrumentation: the engine's cache counters register
    /// against the telemetry's registry, the admission path starts counting
    /// and timing, and workers record queue-wait / engine / mechanism stage
    /// latencies (plus flight-recorder traces when the telemetry carries a
    /// recorder). Replaces any previous telemetry; events recorded before
    /// enabling are not back-filled.
    pub fn enable_telemetry(&self, telemetry: Arc<ServiceTelemetry>) {
        self.serving.update(|state| {
            state.engine.enable_telemetry(telemetry.registry());
            ServingState {
                telemetry: Some(telemetry),
                ..state.clone()
            }
        });
    }

    /// Attaches the observer that future releases are reported to (replacing
    /// any previous one). Observation is on the worker release path; see
    /// [`ReleaseObserver`] for the cost contract.
    pub fn set_observer(&self, observer: Arc<dyn ReleaseObserver>) {
        self.serving.update(|state| ServingState {
            observer: Some(observer),
            ..state.clone()
        });
    }

    /// One observability snapshot of the whole service: engine cache
    /// counters, queue occupancy, fulfilment count and budget spend (see
    /// [`ServiceStats`] for the cross-field consistency contract).
    pub fn stats(&self) -> ServiceStats {
        let state = self.serving.load();
        ServiceStats {
            cache: state.engine.stats(),
            cached_calibrations: state.engine.len(),
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            queue_refusals: self.queue.refusals(),
            queue_high_water: self.queue.high_water(),
            served: self.served(),
            users: self.budget.users(),
            spent_epsilon: self.budget.total_spent(),
            // The release front-end never probes a scale index.
            indexed_probe_misses: 0,
            snapshot: self.warm_start.map(|warm| crate::SnapshotInfo {
                age_secs: unix_now().saturating_sub(warm.created_unix_secs),
                entries: warm.entries,
                bytes: warm.bytes,
            }),
            monitor: state
                .observer
                .as_ref()
                .map(|observer| observer.monitor_stats()),
        }
    }

    /// The per-user budget ledger.
    pub fn budget(&self) -> &BudgetAccountant {
        &self.budget
    }

    /// Requests fulfilled so far (successfully or not).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Requests currently queued and not yet picked up by a worker.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Graceful shutdown: refuses new submissions, lets the workers drain
    /// every queued request, and joins the pool.
    pub fn shutdown(mut self) {
        self.queue.close();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

impl Drop for ReleaseService {
    /// Same handshake as [`ReleaseService::shutdown`], for services that are
    /// simply dropped.
    fn drop(&mut self) {
        self.queue.close();
        self.pool.take();
    }
}

impl std::fmt::Debug for ReleaseService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseService")
            .field("engine", &self.engine())
            .field("pending", &self.pending())
            .field("served", &self.served())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_core::engine::MqmApproxCalibrator;
    use pufferfish_core::queries::StateFrequencyQuery;
    use pufferfish_core::MqmApproxOptions;
    use pufferfish_markov::IntervalClassBuilder;

    fn test_engine() -> Arc<ReleaseEngine> {
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        ReleaseEngine::shared(MqmApproxCalibrator::new(
            class,
            60,
            MqmApproxOptions::default(),
        ))
    }

    fn request(user: &str, epsilon: f64, seed: u64) -> ReleaseRequest {
        ReleaseRequest {
            user: user.to_string(),
            query: Arc::new(StateFrequencyQuery::new(1, 60)),
            database: (0..60).map(|t| t % 2).collect(),
            epsilon,
            seed,
        }
    }

    /// How a test submission is completed: through a [`Ticket`], or through
    /// a sink that forwards its result into a channel.
    #[derive(Clone, Copy, Debug)]
    enum Via {
        Ticket,
        Sink,
    }

    /// An admitted test submission, waiting for its response.
    enum Claim {
        Ticket(Ticket),
        Sink(std::sync::mpsc::Receiver<Result<NoisyRelease, ServiceError>>),
    }

    impl Claim {
        /// The response. A sink must have been called exactly once: its one
        /// result arrives, then the channel disconnects with nothing more.
        fn wait(self) -> Result<NoisyRelease, ServiceError> {
            match self {
                Claim::Ticket(ticket) => ticket.wait(),
                Claim::Sink(results) => {
                    let result = results.recv().expect("an admitted job calls its sink");
                    assert!(results.recv().is_err(), "the sink was called twice");
                    result
                }
            }
        }
    }

    /// `try_submit` through `via`. A refused sink submission must drop its
    /// sink without calling it: the refusal is the call's error alone.
    fn try_submit_via(
        service: &ReleaseService,
        via: Via,
        request: ReleaseRequest,
    ) -> Result<Claim, ServiceError> {
        match via {
            Via::Ticket => service.try_submit(request).map(Claim::Ticket),
            Via::Sink => {
                let (sink, results) = std::sync::mpsc::channel();
                let submitted = service.try_submit_into(request, None, move |result| {
                    sink.send(result).unwrap();
                });
                match submitted {
                    Ok(()) => Ok(Claim::Sink(results)),
                    Err(refusal) => {
                        assert!(results.recv().is_err(), "a refused job called its sink");
                        Err(refusal)
                    }
                }
            }
        }
    }

    #[test]
    fn serves_requests_and_tracks_budget() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(2),
                queue_capacity: 16,
                per_user_epsilon: 1.0,
            },
        )
        .unwrap();

        let release = service.release(request("alice", 0.4, 7)).unwrap();
        assert_eq!(release.values.len(), 1);
        assert!((service.budget().spent("alice") - 0.4).abs() < 1e-12);

        // Same seed, same key: the response is bit-for-bit reproducible and
        // served from the calibration cache.
        let again = service.release(request("alice", 0.4, 7)).unwrap();
        assert_eq!(release.values, again.values);
        let stats = service.engine().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(service.served(), 2);
        service.shutdown();
    }

    #[test]
    fn budget_exhaustion_is_refused_at_admission() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 4,
                per_user_epsilon: 1.0,
            },
        )
        .unwrap();
        service.release(request("bob", 0.6, 1)).unwrap();
        let refused = service.submit(request("bob", 0.6, 2));
        assert!(matches!(refused, Err(ServiceError::BudgetExhausted { .. })));
        // The refused request consumed nothing beyond the first release.
        assert!((service.budget().spent("bob") - 0.6).abs() < 1e-12);
        service.shutdown();
    }

    #[test]
    fn queue_full_rolls_the_spend_back() {
        // A service whose single worker is blocked behind slow jobs will
        // refuse try_submit once the queue is at capacity — and the refused
        // request must not consume budget.
        for via in [Via::Ticket, Via::Sink] {
            let service = ReleaseService::start(
                test_engine(),
                ServiceConfig {
                    workers: Parallelism::Threads(1),
                    queue_capacity: 1,
                    per_user_epsilon: 100.0,
                },
            )
            .unwrap();
            let mut claims = Vec::new();
            let mut refusals = 0;
            // Submit aggressively; with a capacity-1 queue some must be refused.
            for seed in 0..200 {
                match try_submit_via(&service, via, request("carol", 0.1, seed)) {
                    Ok(claim) => claims.push(claim),
                    Err(ServiceError::QueueFull { capacity }) => {
                        assert_eq!(capacity, 1);
                        refusals += 1;
                    }
                    Err(other) => panic!("unexpected error via {via:?}: {other}"),
                }
            }
            let admitted = claims.len();
            for claim in claims {
                claim.wait().unwrap();
            }
            assert_eq!(admitted + refusals, 200);
            // Budget reflects only admitted requests.
            assert!((service.budget().spent("carol") - 0.1 * admitted as f64).abs() < 1e-9);
            assert_eq!(service.served(), admitted as u64);
            service.shutdown();
        }
    }

    #[test]
    fn stats_surface_queue_refusals_and_high_water() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 1,
                per_user_epsilon: 100.0,
            },
        )
        .unwrap();
        let mut tickets = Vec::new();
        let mut refused = 0u64;
        for seed in 0..100 {
            match service.try_submit(request("hw", 0.1, seed)) {
                Ok(ticket) => tickets.push(ticket),
                Err(ServiceError::QueueFull { .. }) => refused += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.queue_refusals, refused);
        assert!(refused > 0, "capacity-1 queue must refuse some submissions");
        assert_eq!(stats.queue_high_water, 1);
        let rendered = stats.to_string();
        assert!(rendered.contains(&format!("refused {refused}")));
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        for via in [Via::Ticket, Via::Sink] {
            let service = ReleaseService::start(
                test_engine(),
                ServiceConfig {
                    workers: Parallelism::Threads(2),
                    queue_capacity: 32,
                    per_user_epsilon: 100.0,
                },
            )
            .unwrap();
            let claims: Vec<Claim> = (0..20)
                .map(|seed| try_submit_via(&service, via, request("dave", 0.1, seed)).unwrap())
                .collect();
            service.shutdown();
            for claim in claims {
                assert!(claim.wait().is_ok());
            }
        }
    }

    struct PanickingQuery;

    impl LipschitzQuery for PanickingQuery {
        fn lipschitz_constant(&self) -> f64 {
            1.0 / 60.0
        }
        fn output_dimension(&self) -> usize {
            1
        }
        fn expected_length(&self) -> usize {
            60
        }
        fn evaluate(&self, _database: &[usize]) -> pufferfish_core::Result<Vec<f64>> {
            panic!("query bug")
        }
        fn name(&self) -> &str {
            "panicking"
        }
    }

    #[test]
    fn worker_panic_does_not_hang_the_ticket() {
        for via in [Via::Ticket, Via::Sink] {
            let service = ReleaseService::start(
                test_engine(),
                ServiceConfig {
                    workers: Parallelism::Threads(2),
                    queue_capacity: 8,
                    per_user_epsilon: 10.0,
                },
            )
            .unwrap();
            let claim = try_submit_via(
                &service,
                via,
                ReleaseRequest {
                    user: "p".to_string(),
                    query: Arc::new(PanickingQuery),
                    database: vec![0; 60],
                    epsilon: 0.5,
                    seed: 1,
                },
            )
            .unwrap();
            // The worker panics mid-release; the job's drop guard must
            // complete it with ServiceClosed instead of leaving the waiter
            // blocked forever.
            assert!(matches!(claim.wait(), Err(ServiceError::ServiceClosed)));
            // The surviving worker keeps serving.
            let release = service.release(request("p", 0.5, 2)).unwrap();
            assert_eq!(release.values.len(), 1);
            // Drop (not shutdown): swallows the dead worker's panic.
            drop(service);
        }
    }

    #[test]
    fn warm_start_restores_the_cache_without_calibrating() {
        let dir = std::env::temp_dir().join(format!(
            "pufferfish-warm-start-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.pfsnap");

        // Cold service: pay the calibration, answer one request, checkpoint.
        let cold = ReleaseService::start(test_engine(), ServiceConfig::default()).unwrap();
        let reference = cold.release(request("alice", 0.4, 11)).unwrap();
        assert_eq!(cold.engine().stats().misses, 1);
        assert!(cold.stats().snapshot.is_none());
        let bytes = cold.save_snapshot(&path).unwrap();
        assert!(bytes > 0);
        cold.shutdown();

        // Warm service: zero calibrations, bitwise-identical response.
        let warm =
            ReleaseService::warm_start(test_engine(), ServiceConfig::default(), &path).unwrap();
        let replay = warm.release(request("alice", 0.4, 11)).unwrap();
        assert_eq!(replay.values, reference.values);
        assert_eq!(replay.scale.to_bits(), reference.scale.to_bits());
        let stats = warm.stats();
        assert_eq!(stats.cache.misses, 0, "warm start must not calibrate");
        let info = stats.snapshot.expect("warm start must report provenance");
        assert_eq!(info.entries, 1);
        assert_eq!(info.bytes, bytes);
        warm.shutdown();

        // A missing file is a typed error, never a silent cold start.
        let missing = ReleaseService::warm_start(
            test_engine(),
            ServiceConfig::default(),
            dir.join("nope.pfsnap"),
        );
        assert!(matches!(
            missing,
            Err(ServiceError::Mechanism(PufferfishError::Snapshot(
                pufferfish_core::SnapshotError::Io(_)
            )))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_traces_stages_and_ledger_audits_bitwise() {
        use crate::audit_ledger;
        use pufferfish_telemetry::{EpsilonLedger, FlightRecorder, Registry};

        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(2),
                queue_capacity: 16,
                per_user_epsilon: 1.0,
            },
        )
        .unwrap();
        let registry = Arc::new(Registry::new());
        // Threshold 0: every request is "slow", so the recorder sees all.
        let recorder = Arc::new(FlightRecorder::new(8, 0));
        let telemetry = Arc::new(ServiceTelemetry::with_recorder(
            Arc::clone(&registry),
            Arc::clone(&recorder),
        ));
        service.enable_telemetry(Arc::clone(&telemetry));
        let ledger = Arc::new(EpsilonLedger::new());
        service.budget().attach_ledger(Arc::clone(&ledger));

        // Two served releases, one budget refusal.
        service.release(request("alice", 0.4, 1)).unwrap();
        service.release(request("alice", 0.4, 2)).unwrap();
        assert!(matches!(
            service.submit(request("alice", 0.4, 3)),
            Err(ServiceError::BudgetExhausted { .. })
        ));

        // Deterministic noise is unchanged by instrumentation: a fresh
        // uninstrumented service answers the same request identically.
        let plain = ReleaseService::start(test_engine(), ServiceConfig::default()).unwrap();
        let reference = plain.release(request("ref", 0.4, 1)).unwrap();
        let traced = service.release(request("bob", 0.4, 1)).unwrap();
        assert_eq!(traced.values, reference.values);
        plain.shutdown();

        // Stage histograms: the worker recorded queue-wait, engine and
        // mechanism for each of the three served releases.
        let text = registry.render_text();
        assert!(text.contains("stage_queue_wait_ns histogram count=3"));
        assert!(text.contains("stage_engine_ns histogram count=3"));
        assert!(text.contains("stage_mechanism_ns histogram count=3"));
        assert!(text.contains("service_admitted_total counter 3"));
        assert!(text.contains("service_refused_total counter 1"));
        // The engine registered its counters against the same registry.
        assert!(text.contains("engine_mqm_approx_cache_hits_total counter 2"));
        assert!(text.contains("engine_mqm_approx_releases_total counter 3"));

        // The flight recorder captured every in-process trace, with the
        // worker stages filled in.
        assert_eq!(recorder.observed(), 3);
        let reports = recorder.reports();
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert!(report.total_ns > 0);
        }

        // The ledger audits bitwise against the live accountant: 3 charges,
        // 1 refusal.
        let report = audit_ledger(&ledger.to_bytes(), service.budget()).unwrap();
        assert_eq!(report.events, 4);
        assert_eq!(
            report.total.to_bits(),
            service.budget().total_spent().to_bits()
        );
        // The charges carry their audit tags.
        let events = EpsilonLedger::replay(&ledger.to_bytes()).unwrap();
        assert_eq!(events[0].family, "mqm-approx");
        assert_eq!(
            events[0].query_sig,
            query_signature(request("alice", 0.4, 1).query.name())
        );
        assert_eq!(events[0].seq, 1);

        // An engine swap is recorded as a recalibration event and the new
        // engine inherits the instrumentation.
        service.swap_engine(test_engine());
        let events = EpsilonLedger::replay(&ledger.to_bytes()).unwrap();
        let last = events.last().unwrap();
        assert_eq!(last.kind, LedgerEventKind::Recalibration);
        assert_eq!(last.family, "mqm-approx");
        service.release(request("carol", 0.4, 9)).unwrap();
        let text = registry.render_text();
        // 2 misses now: one per engine (the swap emptied the cache).
        assert!(text.contains("engine_mqm_approx_cache_misses_total counter 2"));
        // The audit still passes across the swap.
        audit_ledger(&ledger.to_bytes(), service.budget()).unwrap();
        service.shutdown();
    }

    #[test]
    fn mechanism_errors_reach_the_ticket() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 4,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap();
        // Wrong database length: admission passes, the release itself fails.
        let mut bad = request("erin", 0.5, 3);
        bad.database = vec![0; 10];
        let result = service.release(bad);
        assert!(matches!(result, Err(ServiceError::Mechanism(_))));
        // The conservative budget rule: the failed release stays spent.
        assert!((service.budget().spent("erin") - 0.5).abs() < 1e-12);
        service.shutdown();
    }
}
