//! `audited-hot-users`: in-process callers that wait for their answers.
//!
//! One submitter keeps a fixed pipeline of releases in flight through
//! `ReleaseService::submit` / `Ticket::wait` (a closed loop). A few tens of
//! users each build up thousands of charges per epoch; every epoch brings a
//! fresh set of users, so history depth stays the same over a run of any
//! length. The service runs mqm-exact on a chain of 150 with telemetry, a
//! flight recorder, an ε-ledger and a monitor attached.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use pufferfish_core::engine::MqmExactCalibrator;
use pufferfish_core::{MqmExactOptions, Parallelism, ReleaseEngine};
use pufferfish_markov::{
    estimate_class, sample_trajectory, ClassEstimationOptions, FittedClass, MarkovChain,
};
use pufferfish_monitor::ClassBounds;
use pufferfish_service::{audit_ledger, ReleaseService, ServiceConfig, Ticket};
use pufferfish_telemetry::query_signature;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{count_service_error, Deadline, ReleaseChecks, ReleaseStream, Users};
use crate::ladder::{self, ReleaseLadder};
use crate::layers::{self, Charge};
use crate::obs::{self, Observability};
use crate::report::{Outcomes, Report};
use crate::stats::{median, window_figure, windows_json, LogHistogram, Window, Windows};
use crate::sys;
use crate::trace::Tracer;

pub const NAME: &str = "audited-hot-users";

const CHAIN_LENGTH: usize = 150;
/// A power of two, so a user's composed spend (a running sum) equals
/// charges × ε exactly.
const EPSILON: f64 = 0.5;
const USERS: u64 = 32;
/// Charges per epoch: 32 users × 3 125 charges each.
const PER_EPOCH: u64 = USERS * 3_125;

/// Releases kept in flight by the submitter: deep enough that the worker
/// always finds work queued and never parks between releases.
const DEPTH: usize = 256;
const DATABASES: usize = 64;
const SETUPS: usize = 9;

fn fitted() -> FittedClass {
    let truth = MarkovChain::new(vec![0.5, 0.5], vec![vec![0.85, 0.15], vec![0.3, 0.7]])
        .expect("valid chain");
    let log: Vec<usize> = pufferfish_datasets::EventStream::new(truth, 7)
        .take(20_000)
        .collect();
    estimate_class(&[log], 2, ClassEstimationOptions::default()).expect("class fits")
}

fn engine(fit: &FittedClass) -> Arc<ReleaseEngine> {
    ReleaseEngine::shared(MqmExactCalibrator::new(
        fit.to_class().expect("fitted class"),
        CHAIN_LENGTH,
        MqmExactOptions {
            max_quilt_width: Some(24),
            search_middle_only: false,
            parallelism: Parallelism::Serial,
        },
    ))
}

/// One worker: with one submitter, a worker of its own keeps each on its
/// own core of a small host, where a wider pool makes the hand-off between
/// threads, and so the run, bistable.
const WORKERS: usize = 1;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: Parallelism::Threads(WORKERS),
        queue_capacity: 1024,
        per_user_epsilon: 1e12,
    }
}

/// One epoch's service: a fresh service on the shared warm engine, with its
/// own observability, so its ε-ledger holds one epoch and stays bounded.
struct Served {
    service: ReleaseService,
    observability: Observability,
    /// Charges admitted per numeric user id.
    charges: HashMap<u64, u64>,
}

struct Fixture {
    engine: Arc<ReleaseEngine>,
    served: Served,
    /// The epoch `served` belongs to.
    epoch: u64,
    stream: ReleaseStream,
    bounds: ClassBounds,
    expected_scale: f64,
}

fn serve(engine: &Arc<ReleaseEngine>, bounds: &ClassBounds) -> Served {
    let service = ReleaseService::start(Arc::clone(engine), config()).expect("service starts");
    let observability = obs::attach(&service, bounds);
    Served {
        service,
        observability,
        charges: HashMap::new(),
    }
}

/// The full set-up: class, inputs, the cold calibration, the service and
/// its observability.
fn setup(seed: u64) -> Fixture {
    let fit = fitted();
    let engine = engine(&fit);
    let mut rng = StdRng::seed_from_u64(seed);
    let databases = (0..DATABASES)
        .map(|_| sample_trajectory(fit.chain(), CHAIN_LENGTH, &mut rng).expect("sampling"))
        .collect();
    let stream = ReleaseStream::new(
        seed,
        Users::Hot {
            users: USERS,
            per_epoch: PER_EPOCH,
        },
        CHAIN_LENGTH,
        EPSILON,
        databases,
    );
    let mechanism = engine
        .mechanism(&*stream.query, stream.budget())
        .expect("calibration succeeds");
    let expected_scale = mechanism.noise_scale_for(&*stream.query);
    let bounds = ClassBounds::from_fitted(&fit);
    let served = serve(&engine, &bounds);
    Fixture {
        engine,
        served,
        epoch: 0,
        stream,
        bounds,
        expected_scale,
    }
}

/// The accounting checks over every epoch's service: each hot user's spend
/// is its charge count × ε, and the ledger replays to the live spend
/// bitwise.
#[derive(Default)]
struct Audit {
    services: u64,
    users: u64,
    wrong_spend: u64,
    events: u64,
    failures: Vec<String>,
    drifted: u64,
    histories: Vec<f64>,
}

impl Audit {
    fn check(&mut self, stream: &ReleaseStream, served: &Served) {
        self.services += 1;
        let budget = served.service.budget();
        for (&user, &count) in &served.charges {
            self.users += 1;
            self.histories.push(count as f64);
            let spent = budget.spent(&stream.user_name(user));
            if spent.to_bits() != (count as f64 * EPSILON).to_bits() {
                self.wrong_spend += 1;
            }
        }
        match audit_ledger(&served.observability.ledger.to_bytes(), budget) {
            Ok(audit) => {
                self.events += audit.events;
                let live = budget.per_user_spent();
                let same = audit.per_user.len() == live.len()
                    && audit
                        .per_user
                        .iter()
                        .zip(&live)
                        .all(|((u1, a), (u2, b))| u1 == u2 && a.to_bits() == b.to_bits());
                if !same {
                    self.failures
                        .push("replayed per-user spend differs".to_string());
                }
            }
            Err(error) => self.failures.push(error.to_string()),
        }
        if served.service.stats().monitor.is_none_or(|m| m.drifted) {
            self.drifted += 1;
        }
    }

    fn report(&self, report: &mut Report) {
        report.check(
            "spend_equals_charges_times_epsilon",
            self.wrong_spend == 0 && self.users > 0,
            format!(
                "{} of {} users' spend differs from charges x epsilon",
                self.wrong_spend, self.users
            ),
        );
        report.check(
            "ledger_replay_equals_live_spend",
            self.failures.is_empty() && self.events > 0,
            format!(
                "{} ledger events of {} services replayed; failures: {:?}",
                self.events, self.services, self.failures
            ),
        );
        report.check(
            "monitor_in_class",
            self.drifted == 0,
            format!(
                "{} of {} services' drift detectors tripped on in-class traffic",
                self.drifted, self.services
            ),
        );
        report.context(
            "history_per_user",
            format!(
                "{{\"users\": {}, \"max\": {}, \"median\": {}}}",
                self.histories.len(),
                self.histories.iter().copied().fold(0.0, f64::max),
                median(&self.histories)
            ),
        );
    }
}

/// Retires the current epoch's service after auditing it, and starts the
/// next epoch's.
fn rotate(fx: &mut Fixture, audit: &mut Audit) {
    let next = serve(&fx.engine, &fx.bounds);
    let retired = std::mem::replace(&mut fx.served, next);
    audit.check(&fx.stream, &retired);
    retired.service.shutdown();
}

#[derive(Default)]
struct LoopResult {
    outcomes: Outcomes,
    /// Submit-to-answer latency (ns), in completion order.
    latencies: LogHistogram,
    windows: Vec<Window>,
    seconds: f64,
    checks: ReleaseChecks,
}

type InFlight = (u64, Instant, Ticket, crate::trace::SpanId);

fn finish(
    entry: InFlight,
    expected_scale: f64,
    tracer: &mut Tracer,
    windows: &mut Windows,
    result: &mut LoopResult,
) {
    let (index, submitted, ticket, span) = entry;
    let answer = tracer.time("service.wait", index, span, || ticket.wait());
    tracer.close(span);
    match answer {
        Ok(release) => {
            let now = Instant::now();
            let latency = now.duration_since(submitted).as_nanos() as f64;
            result.latencies.record(latency);
            windows.record(now, latency, 1.0);
            result.outcomes.ok += 1;
            result
                .checks
                .observe(index, &release.values, release.scale, expected_scale);
        }
        Err(error) => count_service_error(&mut result.outcomes, &error),
    }
}

/// Runs the closed loop from request `start` for `seconds`; returns the
/// next unused request index with the result. At each epoch boundary the
/// pipeline drains and the epoch's service is audited and replaced; that
/// pause is left out of the windows. Each epoch is one window, so every
/// window holds the same spread of history depths; figures are the better
/// decile of the windows (see `stats::better_decile`).
fn closed_loop(
    fx: &mut Fixture,
    start: u64,
    seconds: f64,
    tracer: &mut Tracer,
    audit: &mut Audit,
) -> (u64, LoopResult) {
    let mut result = LoopResult::default();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(DEPTH);
    let deadline = Deadline::after(seconds);
    let began = Instant::now();
    let mut windows = Windows::cut_by_caller();
    let expected_scale = fx.expected_scale;
    let mut next = start;
    while !deadline.passed() {
        let epoch = next / PER_EPOCH;
        if epoch != fx.epoch {
            while let Some(entry) = in_flight.pop_front() {
                finish(entry, expected_scale, tracer, &mut windows, &mut result);
            }
            windows.cut();
            rotate(fx, audit);
            fx.epoch = epoch;
            windows.resume();
        }
        let request = fx.stream.request(next);
        let user = fx.stream.user_id(next);
        let span = tracer.open("request", next, None);
        let submitted = Instant::now();
        let service = &fx.served.service;
        let ticket = tracer.time("service.submit", next, span, || service.submit(request));
        result.outcomes.attempted += 1;
        match ticket {
            Ok(ticket) => {
                *fx.served.charges.entry(user).or_default() += 1;
                in_flight.push_back((next, submitted, ticket, span));
            }
            Err(error) => {
                tracer.close(span);
                count_service_error(&mut result.outcomes, &error);
            }
        }
        next += 1;
        if in_flight.len() >= DEPTH {
            let entry = in_flight.pop_front().expect("pipeline is full");
            finish(entry, expected_scale, tracer, &mut windows, &mut result);
        }
    }
    while let Some(entry) = in_flight.pop_front() {
        finish(entry, expected_scale, tracer, &mut windows, &mut result);
    }
    result.windows = windows.finish();
    result.seconds = began.elapsed().as_secs_f64();
    (next, result)
}

fn context(report: &mut Report, seed: u64) {
    report.context("seed", seed);
    report.context("available_parallelism", sys::parallelism());
    report.context("service_workers", WORKERS);
    report.context("generator_threads", 1);
    report.context("connections", 0);
    report.context("loop", "\"closed\"");
    report.context("pipeline_depth", DEPTH);
    report.context("mechanism", "\"mqm-exact\"");
    report.context("chain_length", CHAIN_LENGTH);
    report.context("epsilon", EPSILON);
    report.context("users_per_epoch", USERS);
    report.context("charges_per_epoch", PER_EPOCH);
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(NAME, false);
    context(&mut report, seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture: Option<Fixture> = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let fx = setup(seed);
        setups.push(started.elapsed().as_secs_f64());
        if let Some(old) = fixture.replace(fx) {
            old.served.service.shutdown();
        }
    }
    let mut fx = fixture.expect("at least one set-up");
    let mut tracer = Tracer::new(false);
    let mut audit = Audit::default();

    let (next, warm) = closed_loop(&mut fx, 0, seconds * 0.05, &mut tracer, &mut audit);
    report.phase("warmup", warm.outcomes, false);
    let (_, measured) = closed_loop(&mut fx, next, seconds * 0.95, &mut tracer, &mut audit);
    report.phase("measured", measured.outcomes, true);

    let windows = &measured.windows;
    let p50 = window_figure(windows, |w| w.p50, true) / 1e3;
    let p90 = window_figure(windows, |w| w.p90, true) / 1e3;
    let p99 = window_figure(windows, |w| w.p99, true) / 1e3;
    let rps = window_figure(windows, |w| w.rate, false);
    report.metric("setup_s", median(&setups));
    report.metric("op_p50_us", p50);
    report.metric("op_p90_us", p90);
    report.metric("ops_per_s", rps);
    report.detail(
        "cpu_us_per_op",
        window_figure(windows, |w| w.cpu_per_op, true) * 1e6,
        "us",
    );
    report.metric("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN));
    report.detail("windows", windows.len() as f64, "count");
    report
        .sections
        .push(("windows".to_string(), windows_json(windows)));
    report.detail(
        "measured_rps",
        measured.outcomes.ok as f64 / measured.seconds,
        "1/s",
    );
    report.detail("release_p50_us", p50, "us");
    report.detail("release_p90_us", p90, "us");
    report.detail("release_p99_us", p99, "us");
    report.detail("release_rps", rps, "1/s");
    let summary = measured.latencies.summary();
    report.detail("release_samples", summary.n as f64, "count");
    report.detail("release_p50_all_us", summary.p50 / 1e3, "us");
    report.detail(
        &format!("release_p{:.4}_us", summary.top_pct),
        summary.top / 1e3,
        "us",
    );
    report.detail(
        "failed_ratio",
        measured.outcomes.failed() as f64 / measured.outcomes.attempted.max(1) as f64,
        "ratio",
    );

    let mut checks = warm.checks;
    checks.merge(measured.checks);
    checks.report(&mut report, "service", &fx.stream, &fx.engine);
    audit.check(&fx.stream, &fx.served);
    audit.report(&mut report);
    fx.served.service.shutdown();
    report
}

/// The traced run: per-layer metrics and the ladder.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(NAME, true);
    context(&mut report, seed);
    let started = Instant::now();
    let mut fx = setup(seed);
    report.detail("traced_setup_s", started.elapsed().as_secs_f64(), "s");

    // The workload loop, alternating untraced and traced slices.
    let slices = 4;
    let slice_seconds = seconds * 0.3 / (2 * slices) as f64;
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let mut audit = Audit::default();
    let (mut next, warm) = closed_loop(&mut fx, 0, seconds * 0.05, &mut untraced, &mut audit);
    report.phase("warmup", warm.outcomes, false);
    let mut rates = (Vec::new(), Vec::new());
    let mut checks = warm.checks;
    let mut outcomes = Outcomes::default();
    let cache_before = fx.engine.stats();
    for _ in 0..slices {
        for on in [false, true] {
            let tracer = if on { &mut traced } else { &mut untraced };
            let (after, result) = closed_loop(&mut fx, next, slice_seconds, tracer, &mut audit);
            next = after;
            let rate = result.outcomes.ok as f64 / result.seconds;
            if on { &mut rates.1 } else { &mut rates.0 }.push(rate);
            outcomes.add(&result.outcomes);
            checks.merge(result.checks);
        }
    }
    let cache = fx.engine.stats();
    report.phase("traced_loop", outcomes, true);
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    report.metric("core.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.metric(
        "bench.trace_overhead_ratio",
        median(&rates.0) / median(&rates.1),
    );
    report.metric(
        "service.queue_high_water",
        fx.served.service.stats().queue_high_water as f64,
    );
    checks.report(&mut report, "service", &fx.stream, &fx.engine);
    audit.check(&fx.stream, &fx.served);
    audit.report(&mut report);

    // The ladder, sized from a short pilot to take about a third of the run.
    let ladder = ReleaseLadder {
        stream: &fx.stream,
        engine: Arc::clone(&fx.engine),
        config: config(),
        bounds: &fx.bounds,
    };
    let requests = pilot_size(&ladder, seconds * 0.35);
    let mut ladder_tracer = Tracer::new(true);
    ladder::run(&ladder, requests, &mut ladder_tracer, &mut report);
    report.context("ladder_requests", requests);
    let busy = report
        .details
        .iter()
        .find(|(name, _, _)| name == "net.ladder_busy_frames")
        .map_or(0.0, |d| d.1);
    report.metric("net.busy_frames", busy);

    // Standalone replays of the workload's own traffic.
    let mut standalone = Tracer::new(true);
    let family = fx.engine.kind();
    let signature = query_signature(fx.stream.query.name());
    let charges: Vec<Charge> = (0..PER_EPOCH)
        .map(|i| Charge {
            user: fx.stream.user(i),
            epsilon: EPSILON,
            query_sig: signature,
            family,
            seq: fx.stream.noise_seed(i),
        })
        .collect();
    layers::budget_and_ledger(&charges, 1e12, &mut standalone, &mut report);
    let releases: Vec<(&[usize], pufferfish_core::NoisyRelease)> = (0..4_000)
        .map(|i| {
            let release = fx.stream.direct(&fx.engine, i).expect("warm release");
            (fx.stream.database(i), release)
        })
        .collect();
    layers::monitor_replay(&fx.bounds, &releases, &mut standalone, &mut report);
    let fit = fitted();
    layers::calibrate(3, 1, &mut standalone, &mut report, || {
        let cold = engine(&fit);
        cold.mechanism(&*fx.stream.query, fx.stream.budget())
            .expect("calibration succeeds");
    });

    for name in [
        "query.plan_us",
        "query.execute_us",
        "query.cold_plan_ms",
        "parallel.exec_serial_us",
        "parallel.exec_2t_us",
        "parallel.speedup",
        "bench.gen_lag_p99_us",
    ] {
        report.not_applicable(name);
    }
    traced.absorb(ladder_tracer);
    traced.absorb(standalone);
    crate::write_spans(&report, seed, &traced);
    fx.served.service.shutdown();
    report
}

/// The ladder size that takes about `seconds`, from a 200-request pilot.
pub fn pilot_size(ladder: &ReleaseLadder<'_>, seconds: f64) -> u64 {
    const PILOT: u64 = 200;
    let started = Instant::now();
    let mut scratch = Report::new("pilot", true);
    ladder::run(ladder, PILOT, &mut Tracer::new(false), &mut scratch);
    let per_request = started.elapsed().as_secs_f64() / PILOT as f64;
    ((seconds / per_request) as u64).clamp(PILOT, 40_000)
}
