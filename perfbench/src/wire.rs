//! `wire-open`: independent users over a loopback socket, open loop.
//!
//! RELEASE frames (mqm-approx, chain of 60, ε 0.1), each for a distinct
//! user of a 10M-id space, go out on a fixed schedule at a few offered
//! rates, whatever the server's progress. Latency is timed from each
//! request's due time, so a stall also counts against the requests it
//! delays. One connection per rate step, one sender and one receiver
//! thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pufferfish_core::engine::MqmApproxCalibrator;
use pufferfish_core::{MqmApproxOptions, Parallelism, ReleaseEngine};
use pufferfish_datasets::StreamWorkload;
use pufferfish_markov::{IntervalClassBuilder, MarkovChain};
use pufferfish_net::{
    decode, encode, Envelope, Frame, FrameError, NetServer, NetServerConfig, DEFAULT_MAX_FRAME_LEN,
};
use pufferfish_service::{ReleaseService, ServiceConfig};
use pufferfish_telemetry::query_signature;

use crate::common::{count_frame, ReleaseChecks, ReleaseStream, Users, TENANT};
use crate::ladder::{self, ReleaseLadder};
use crate::layers::{self, Charge};
use crate::obs;
use crate::report::{Outcomes, Report};
use crate::stats::{better_decile, median, percentile, summarize};
use crate::sys;
use crate::trace::Tracer;

pub const NAME: &str = "wire-open";

const CHAIN_LENGTH: usize = 60;
const EPSILON: f64 = 0.1;
const USER_SPACE: u64 = 10_000_000;
const DATABASES: u64 = 256;
/// Offered rates (requests per second), lowest first.
pub const RATES: [f64; 4] = [10_000.0, 30_000.0, 45_000.0, 60_000.0];
/// The rate the latency metrics are reported at.
const REFERENCE: usize = 1;
/// The p99 latency limit a rate must meet to count as sustained.
const P99_LIMIT_US: f64 = 2_000.0;
/// How long the receiver waits for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(3);
const SETUPS: usize = 9;
/// Length of one step. The measured phase runs in rounds; each round runs
/// one step at the reference rate and one at another rate, in turn, each
/// step on a fresh connection, so every rate's steps are spread over the
/// whole run. A rate's figures are the better decile of its steps (see
/// `stats::better_decile`).
const STEP_SECONDS: f64 = 0.5;

fn engine() -> Arc<ReleaseEngine> {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .expect("valid class");
    ReleaseEngine::shared(MqmApproxCalibrator::new(
        class,
        CHAIN_LENGTH,
        MqmApproxOptions::default(),
    ))
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: Parallelism::Threads(sys::parallelism()),
        queue_capacity: 1 << 16,
        per_user_epsilon: 1.0,
    }
}

struct Fixture {
    engine: Arc<ReleaseEngine>,
    service: Arc<ReleaseService>,
    server: NetServer,
    stream: ReleaseStream,
    expected_scale: f64,
}

fn setup(seed: u64) -> Fixture {
    let engine = engine();
    let chain = MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]])
        .expect("valid chain");
    let databases = StreamWorkload::new(chain, seed)
        .generate(DATABASES, CHAIN_LENGTH)
        .expect("sampling");
    let stream = ReleaseStream::new(
        seed,
        Users::Distinct { space: USER_SPACE },
        CHAIN_LENGTH,
        EPSILON,
        databases,
    );
    let mechanism = engine
        .mechanism(&*stream.query, stream.budget())
        .expect("calibration succeeds");
    let expected_scale = mechanism.noise_scale_for(&*stream.query);
    let service =
        Arc::new(ReleaseService::start(Arc::clone(&engine), config()).expect("service starts"));
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            max_pipeline: 1 << 16,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    // One connection made and closed, so the set-up includes the handshake.
    drop(connect(server.local_addr()).expect("handshake"));
    Fixture {
        engine,
        service,
        server,
        stream,
        expected_scale,
    }
}

fn shutdown(fx: Fixture) {
    fx.server.shutdown();
    if let Ok(service) = Arc::try_unwrap(fx.service) {
        service.shutdown();
    }
}

/// Opens a connection and completes the HELLO handshake.
fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let hello = Envelope {
        seq: u64::MAX,
        frame: Frame::Hello {
            tenant: TENANT.to_string(),
        },
    };
    stream.write_all(&encode(&hello, DEFAULT_MAX_FRAME_LEN).map_err(to_io)?)?;
    let mut pending = Vec::new();
    match next_frame(&mut stream, &mut pending)? {
        Some(Envelope {
            frame: Frame::HelloOk { .. },
            ..
        }) => Ok(stream),
        other => Err(std::io::Error::other(format!(
            "handshake refused: {other:?}"
        ))),
    }
}

fn to_io(error: FrameError) -> std::io::Error {
    std::io::Error::other(error.to_string())
}

/// Reads until one whole frame is buffered and decodes it; `Ok(None)` when
/// the read timed out first. Partial frames stay in `pending`.
fn next_frame(stream: &mut TcpStream, pending: &mut Vec<u8>) -> std::io::Result<Option<Envelope>> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match decode(pending, DEFAULT_MAX_FRAME_LEN) {
            Ok((envelope, used)) => {
                pending.drain(..used);
                return Ok(Some(envelope));
            }
            Err(FrameError::Truncated { .. }) => {}
            Err(error) => return Err(to_io(error)),
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        }
    }
}

/// One rate step's result.
#[derive(Default)]
struct Step {
    outcomes: Outcomes,
    /// Latency from due time (ns), in arrival order.
    latencies: Vec<f64>,
    /// How late the generator sent each request (ns).
    lags: Vec<f64>,
    /// Releases answered per second, first due time to last answer.
    delivered_per_s: f64,
    /// Last answer after the last due time (µs).
    drain_us: f64,
    checks: ReleaseChecks,
}

impl Step {
    fn percentile_us(&self, p: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p) / 1e3
    }
}

/// One offered rate and the steps run at it.
struct Rate {
    rate: f64,
    steps: Vec<Step>,
    /// Process CPU time per answered request of each step (µs).
    cpu_us_per_op: Vec<f64>,
}

impl Rate {
    fn new(rate: f64) -> Rate {
        Rate {
            rate,
            steps: Vec::new(),
            cpu_us_per_op: Vec::new(),
        }
    }

    fn run_step(&mut self, fx: &Fixture, base: &mut u64, seconds: f64, tracer: &mut Tracer) {
        let cpu_before = sys::cpu_seconds().unwrap_or(0.0);
        let s = step(fx, *base, self.rate, seconds, false, tracer);
        let cpu = sys::cpu_seconds().unwrap_or(0.0) - cpu_before;
        self.cpu_us_per_op
            .push(cpu * 1e6 / s.outcomes.ok.max(1) as f64);
        *base += s.outcomes.attempted;
        self.steps.push(s);
    }

    fn figure(&self, f: impl Fn(&Step) -> f64, lower_is_better: bool) -> f64 {
        better_decile(
            &self.steps.iter().map(f).collect::<Vec<f64>>(),
            lower_is_better,
        )
    }

    fn p50_us(&self) -> f64 {
        self.figure(|s| s.percentile_us(50.0), true)
    }

    fn p90_us(&self) -> f64 {
        self.figure(|s| s.percentile_us(90.0), true)
    }

    fn p99_us(&self) -> f64 {
        self.figure(|s| s.percentile_us(99.0), true)
    }

    fn delivered_per_s(&self) -> f64 {
        self.figure(|s| s.delivered_per_s, false)
    }

    fn cpu_us_per_op(&self) -> f64 {
        better_decile(&self.cpu_us_per_op, true)
    }

    fn outcomes(&self) -> Outcomes {
        let mut total = Outcomes::default();
        for s in &self.steps {
            total.add(&s.outcomes);
        }
        total
    }

    /// Meets the p99 limit with every request answered and no backlog left
    /// at the end of its steps.
    fn sustained(&self) -> bool {
        let outcomes = self.outcomes();
        outcomes.failed() == 0
            && outcomes.ok > 0
            && self.p99_us() <= P99_LIMIT_US
            && self.figure(|s| s.drain_us, true) <= P99_LIMIT_US
    }
}

/// Offers `rate` requests per second for `seconds` over a fresh
/// connection, starting at request index `base`.
fn step(
    fx: &Fixture,
    base: u64,
    rate: f64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
) -> Step {
    let total = ((rate * seconds) as u64).max(1);
    let period_ns = 1e9 / rate;
    let mut result = Step::default();
    let stream = match connect(fx.server.local_addr()) {
        Ok(stream) => stream,
        Err(_) => {
            result.outcomes.attempted = total;
            result.outcomes.error = total;
            return result;
        }
    };
    let mut reader = stream.try_clone().expect("clone socket");
    reader
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |seq: u64| start + Duration::from_nanos(((seq - base) as f64 * period_ns) as u64);

    let (send_tracer, recv_tracer, lags, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut writer = stream;
            let mut tracer = Tracer::new(traced);
            let mut lags = Vec::with_capacity(total as usize);
            let mut buffer = Vec::with_capacity(64 * 1024);
            let mut next = 0u64;
            while next < total {
                let now = Instant::now();
                let due_next = due(base + next);
                if due_next > now {
                    std::thread::sleep(due_next - now);
                    continue;
                }
                buffer.clear();
                while next < total && due(base + next) <= now {
                    let seq = base + next;
                    let envelope = Envelope {
                        seq,
                        frame: fx.stream.frame(seq),
                    };
                    let bytes = tracer.time("net.encode_request", seq, None, || {
                        encode(&envelope, DEFAULT_MAX_FRAME_LEN).expect("request frame encodes")
                    });
                    buffer.extend_from_slice(&bytes);
                    lags.push((now - due(seq)).as_nanos() as f64);
                    next += 1;
                }
                if writer.write_all(&buffer).is_err() {
                    break;
                }
                sent.store(next, Ordering::Release);
            }
            sent.store(next, Ordering::Release);
            done.store(true, Ordering::Release);
            (tracer, lags)
        });
        let receiver = scope.spawn(|| {
            let mut tracer = Tracer::new(traced);
            let mut pending = Vec::with_capacity(64 * 1024);
            let mut outcomes = Outcomes::default();
            let mut latencies = Vec::with_capacity(total as usize);
            let mut checks = ReleaseChecks::default();
            let mut last = Instant::now();
            let mut drain_deadline: Option<Instant> = None;
            loop {
                let finished = done.load(Ordering::Acquire);
                let expected = sent.load(Ordering::Acquire);
                if finished && outcomes.ok + outcomes.failed() >= expected {
                    break;
                }
                if finished {
                    let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() >= deadline {
                        outcomes.timeout += expected - (outcomes.ok + outcomes.failed());
                        break;
                    }
                }
                let span = tracer.open("net.decode_response", 0, None);
                let frame = next_frame(&mut reader, &mut pending);
                tracer.close(span);
                match frame {
                    Ok(Some(envelope)) => {
                        let now = Instant::now();
                        last = now;
                        if envelope.seq < base || envelope.seq >= base + total {
                            outcomes.error += 1;
                            continue;
                        }
                        if count_frame(&mut outcomes, &envelope.frame) {
                            latencies.push((now - due(envelope.seq)).as_nanos() as f64);
                            if let Frame::ReleaseOk { scale, values } = &envelope.frame {
                                checks.observe(envelope.seq, values, *scale, fx.expected_scale);
                            }
                        }
                    }
                    Ok(None) => {}
                    Err(_) => {
                        let expected = sent.load(Ordering::Acquire);
                        outcomes.error += expected.saturating_sub(outcomes.ok + outcomes.failed());
                        break;
                    }
                }
            }
            (tracer, outcomes, latencies, checks, last)
        });
        let (send_tracer, lags) = sender.join().expect("sender thread");
        let received = receiver.join().expect("receiver thread");
        (
            send_tracer,
            received.0,
            lags,
            (received.1, received.2, received.3, received.4),
        )
    });
    let (outcomes, latencies, checks, last) = received;
    result.outcomes = outcomes;
    result.outcomes.attempted = sent.load(Ordering::Acquire);
    result.latencies = latencies;
    result.lags = lags;
    result.checks = checks;
    let last_due = due(base + total - 1);
    result.drain_us = last.saturating_duration_since(last_due).as_secs_f64() * 1e6;
    let span = last.saturating_duration_since(start).as_secs_f64();
    result.delivered_per_s = result.outcomes.ok as f64 / span.max(1e-9);
    tracer.absorb(send_tracer);
    tracer.absorb(recv_tracer);
    result
}

fn context(report: &mut Report, seed: u64) {
    report.context("seed", seed);
    report.context("available_parallelism", sys::parallelism());
    report.context("service_workers", sys::parallelism());
    report.context("generator_threads", 2);
    report.context("connections", 1);
    report.context("loop", "\"open\"");
    let rates: Vec<String> = RATES.iter().map(|r| format!("{r}")).collect();
    report.context("offered_rates", format!("[{}]", rates.join(", ")));
    report.context("reference_rate", RATES[REFERENCE]);
    report.context("p99_limit_us", P99_LIMIT_US);
    report.context("mechanism", "\"mqm-approx\"");
    report.context("chain_length", CHAIN_LENGTH);
    report.context("epsilon", EPSILON);
    report.context("user_space", USER_SPACE);
    report.context("history_per_user", "{\"max\": 1}");
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
            shutdown(old);
        }
    }
    let fx = fixture.expect("at least one set-up");
    let mut tracer = Tracer::new(false);

    let warm = step(&fx, 0, RATES[REFERENCE], seconds * 0.05, false, &mut tracer);
    report.phase("warmup", warm.outcomes, false);
    let mut checks = warm.checks;
    let mut base = warm.outcomes.attempted;
    let others: Vec<usize> = (0..RATES.len()).filter(|&r| r != REFERENCE).collect();
    // At least one round per rate, however short the run.
    let rounds = ((seconds * 0.95 / (2.0 * STEP_SECONDS)) as usize).max(others.len());
    let step_seconds = seconds * 0.95 / (2 * rounds) as f64;
    report.context("rounds", rounds);
    let mut rates: Vec<Rate> = RATES.into_iter().map(Rate::new).collect();
    for round in 0..rounds {
        for r in [REFERENCE, others[round % others.len()]] {
            rates[r].run_step(&fx, &mut base, step_seconds, &mut tracer);
        }
    }
    for r in &rates {
        report.phase(&format!("rate_{}", r.rate), r.outcomes(), true);
    }

    let mut rows = Vec::new();
    let mut sustained = 0.0f64;
    for r in &rates {
        let mut all: Vec<f64> = r.steps.iter().flat_map(|s| s.latencies.clone()).collect();
        let summary = summarize(&mut all);
        let mut lags: Vec<f64> = r.steps.iter().flat_map(|s| s.lags.clone()).collect();
        lags.sort_by(f64::total_cmp);
        rows.push(format!(
            "{{\"offered_per_s\": {}, \"delivered_per_s\": {}, \"p50_us\": {}, \"p90_us\": {}, \
             \"p99_us\": {}, \"top_pct\": {}, \"top_us\": {}, \"samples\": {}, \"drain_us\": {}, \
             \"gen_lag_p99_us\": {}, \"cpu_us_per_op\": {}, \"failed\": {}, \"sustained\": {}}}",
            r.rate,
            r.delivered_per_s(),
            r.p50_us(),
            r.p90_us(),
            r.p99_us(),
            summary.top_pct,
            summary.top / 1e3,
            summary.n,
            r.figure(|s| s.drain_us, true),
            percentile(&lags, 99.0) / 1e3,
            r.cpu_us_per_op(),
            r.outcomes().failed(),
            r.sustained()
        ));
        if r.sustained() {
            sustained = sustained.max(r.rate);
        }
    }
    report
        .sections
        .push(("rates".to_string(), format!("[{}]", rows.join(", "))));
    let reference = &rates[REFERENCE];
    let top = rates.last().expect("at least one rate");
    let p50 = reference.p50_us();
    let p90 = reference.p90_us();
    let p99 = reference.p99_us();
    let delivered = top.delivered_per_s();
    report.metric("setup_s", median(&setups));
    report.metric("op_p50_us", p50);
    report.metric("op_p90_us", p90);
    report.metric("ops_per_s", delivered);
    report.metric("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN));
    report.detail("cpu_us_per_op", reference.cpu_us_per_op(), "us");
    report.detail("release_p50_us", p50, "us");
    report.detail("release_p90_us", p90, "us");
    report.detail("release_p99_us", p99, "us");
    report.detail("sustained_rps", sustained, "1/s");
    report.detail("top_rate_delivered_per_s", delivered, "1/s");
    let mut lags: Vec<f64> = rates
        .iter()
        .flat_map(|r| r.steps.iter().flat_map(|s| s.lags.iter().copied()))
        .collect();
    lags.sort_by(f64::total_cmp);
    report.detail("gen_lag_p99_us", percentile(&lags, 99.0) / 1e3, "us");
    let totals = report.totals();
    report.detail(
        "failed_ratio",
        totals.failed() as f64 / totals.attempted.max(1) as f64,
        "ratio",
    );
    for s in rates.into_iter().flat_map(|r| r.steps) {
        checks.merge(s.checks);
    }
    checks.report(&mut report, "wire", &fx.stream, &fx.engine);
    let distinct = fx.service.budget().users() as f64 / base.max(1) as f64;
    report.check(
        "distinct_users",
        distinct >= 0.999,
        format!("{:.4} of requests charged a user of their own", distinct),
    );
    shutdown(fx);
    report
}

/// The traced run: per-layer metrics and the ladder.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(NAME, true);
    context(&mut report, seed);
    let started = Instant::now();
    let fx = setup(seed);
    report.detail("traced_setup_s", started.elapsed().as_secs_f64(), "s");

    // The reference rate, alternating untraced and traced steps.
    let slices = 3;
    let slice_seconds = seconds * 0.3 / (2 * slices) as f64;
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let warm = step(
        &fx,
        0,
        RATES[REFERENCE],
        seconds * 0.05,
        false,
        &mut untraced,
    );
    report.phase("warmup", warm.outcomes, false);
    let mut base = warm.outcomes.attempted;
    let mut p50s = (Vec::new(), Vec::new());
    let mut lags = Vec::new();
    let mut outcomes = Outcomes::default();
    let mut checks = ReleaseChecks::default();
    let cache_before = fx.engine.stats();
    for _ in 0..slices {
        for on in [false, true] {
            let tracer = if on { &mut traced } else { &mut untraced };
            let s = step(&fx, base, RATES[REFERENCE], slice_seconds, on, tracer);
            base += s.outcomes.attempted;
            let p50 = s.percentile_us(50.0);
            if on { &mut p50s.1 } else { &mut p50s.0 }.push(p50);
            if !on {
                lags.extend(s.lags.iter().copied());
            }
            outcomes.add(&s.outcomes);
            checks.merge(s.checks);
        }
    }
    let cache = fx.engine.stats();
    report.phase("traced_loop", outcomes, true);
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    report.metric("core.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.metric(
        "bench.trace_overhead_ratio",
        median(&p50s.1) / median(&p50s.0),
    );
    lags.sort_by(f64::total_cmp);
    report.metric("bench.gen_lag_p99_us", percentile(&lags, 99.0) / 1e3);
    report.metric("net.busy_frames", outcomes.busy as f64);
    report.metric(
        "service.queue_high_water",
        fx.service.stats().queue_high_water as f64,
    );
    checks.report(&mut report, "wire", &fx.stream, &fx.engine);

    let bounds = obs::bounds_from(&fx.stream.databases, 2);
    let ladder = ReleaseLadder {
        stream: &fx.stream,
        engine: Arc::clone(&fx.engine),
        config: config(),
        bounds: &bounds,
    };
    let requests = crate::hot::pilot_size(&ladder, seconds * 0.35);
    let mut ladder_tracer = Tracer::new(true);
    ladder::run(&ladder, requests, &mut ladder_tracer, &mut report);
    report.context("ladder_requests", requests);

    let mut standalone = Tracer::new(true);
    let family = fx.engine.kind();
    let signature = query_signature(fx.stream.query.name());
    let charges: Vec<Charge> = (0..100_000)
        .map(|i| Charge {
            user: fx.stream.user(i),
            epsilon: EPSILON,
            query_sig: signature,
            family,
            seq: fx.stream.noise_seed(i),
        })
        .collect();
    layers::budget_and_ledger(&charges, 1.0, &mut standalone, &mut report);
    let releases: Vec<(&[usize], pufferfish_core::NoisyRelease)> = (0..4_000)
        .map(|i| {
            let release = fx.stream.direct(&fx.engine, i).expect("warm release");
            (fx.stream.database(i), release)
        })
        .collect();
    layers::monitor_replay(&bounds, &releases, &mut standalone, &mut report);
    layers::calibrate(3, 1, &mut standalone, &mut report, || {
        let cold = engine();
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
    ] {
        report.not_applicable(name);
    }
    traced.absorb(ladder_tracer);
    traced.absorb(standalone);
    crate::write_spans(&report, seed, &traced);
    shutdown(fx);
    report
}
