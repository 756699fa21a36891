//! `query-sliding`: one analyst thread in a closed loop through
//! `QueryService::query`.
//!
//! The table is a skewed group-by table: one giant cell plus many
//! window-sized cells. Statements rotate over HISTOGRAM, COUNT and RANGE
//! shapes with sliding windows of three strides and `MECHANISM auto`; the
//! executor runs on 2 threads. Set-up plans every statement cold, which
//! pays one calibration per mechanism family and query shape. The analyst's
//! budget identity rotates every few queries, so admission never scans a
//! long history.

use std::time::Instant;

use pufferfish_core::{NoisyRelease, PrivacyBudget};
use pufferfish_markov::{sample_trajectory, IntervalClassBuilder, MarkovChain};
use pufferfish_parallel::Parallelism;
use pufferfish_query::{
    cell_seed, execute_plan_with, ExecOptions, MechanismCatalog, QueryError, QueryPlan,
    QueryResult, QueryService, QueryServiceConfig, Table,
};
use pufferfish_service::BudgetAccountant;
use pufferfish_telemetry::query_signature;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{draw, Deadline};
use crate::ladder::{self, span_p50};
use crate::layers::{self, Charge};
use crate::obs;
use crate::report::{Outcomes, Report};
use crate::stats::{median, window_figure, windows_json, LogHistogram, Summary, Window, Windows};
use crate::sys;
use crate::trace::Tracer;

pub const NAME: &str = "query-sliding";

const STATES: usize = 2;
const WINDOW: usize = 100;
const GIANT_CELL: usize = 2_000;
const TINY_CELLS: usize = 32;
const EPSILON: f64 = 0.5;
const SHAPES: [&str; 3] = ["HISTOGRAM", "COUNT STATE 1", "RANGE 0 1"];
const STEPS: [usize; 3] = [10, 20, 25];
/// Queries charged to one budget identity before the analyst's next one.
const QUERIES_PER_USER: u64 = 100;
const THREADS: usize = 2;
const SETUPS: usize = 5;
/// Length of the time windows a phase is cut into; figures are the better
/// decile of the windows (see `stats::better_decile`).
const WINDOW_SECONDS: f64 = 0.25;
/// Every this many queries, the result is re-executed serially and on two
/// threads for the bitwise comparison.
const SAMPLE_EVERY: u64 = 50;
/// At most this many sampled results are kept per phase.
const MAX_SAMPLES: usize = 200;

fn statements() -> Vec<String> {
    // Shapes interleaved, so consecutive queries differ in shape.
    let mut out = Vec::new();
    for step in STEPS {
        for shape in SHAPES {
            out.push(format!(
                "{shape} WINDOW {WINDOW} STEP {step} GROUP BY key EPSILON {EPSILON} MECHANISM auto"
            ));
        }
    }
    out
}

fn catalog() -> MechanismCatalog {
    MechanismCatalog::new(
        IntervalClassBuilder::symmetric(0.42)
            .grid_points(3)
            .build()
            .expect("valid class"),
    )
}

fn table(seed: u64) -> Table {
    let truth = MarkovChain::new(vec![0.5, 0.5], vec![vec![0.62, 0.38], vec![0.41, 0.59]])
        .expect("valid chain");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups = vec![(
        "giant".to_string(),
        sample_trajectory(&truth, GIANT_CELL, &mut rng).expect("sampling"),
    )];
    for g in 0..TINY_CELLS {
        groups.push((
            format!("tiny-{g:02}"),
            sample_trajectory(&truth, WINDOW, &mut rng).expect("sampling"),
        ));
    }
    Table::grouped("skewed", STATES, groups).expect("valid table")
}

fn service() -> QueryService {
    QueryService::start(
        catalog(),
        QueryServiceConfig {
            per_user_epsilon: 1e12,
            parallelism: Parallelism::Threads(THREADS),
        },
    )
    .expect("query service starts")
}

struct Fixture {
    service: QueryService,
    table: Table,
    statements: Vec<String>,
    /// One cold-planned plan per statement.
    plans: Vec<QueryPlan>,
    seed: u64,
}

impl Fixture {
    fn statement(&self, i: u64) -> usize {
        (i % self.statements.len() as u64) as usize
    }

    fn user(i: u64) -> String {
        format!("analyst-{}", i / QUERIES_PER_USER)
    }

    fn noise_seed(&self, i: u64) -> u64 {
        draw(self.seed, 4, i)
    }
}

fn setup(seed: u64) -> Fixture {
    let service = service();
    let table = table(seed);
    let statements = statements();
    let plans = statements
        .iter()
        .map(|text| service.plan(text, &table).expect("statement plans"))
        .collect();
    Fixture {
        service,
        table,
        statements,
        plans,
        seed,
    }
}

/// Output dimension of each release of `shape`.
fn dimension(statement: &str) -> usize {
    if statement.starts_with("HISTOGRAM") {
        STATES
    } else {
        1
    }
}

#[derive(Default)]
struct LoopResult {
    outcomes: Outcomes,
    latencies: LogHistogram,
    windows: Vec<Window>,
    seconds: f64,
    wrong_length: u64,
    wrong_scale: u64,
    checked: u64,
    samples: Vec<(u64, QueryResult)>,
}

fn closed_loop(fx: &Fixture, start: u64, seconds: f64, tracer: &mut Tracer) -> (u64, LoopResult) {
    let mut result = LoopResult::default();
    let deadline = Deadline::after(seconds);
    let began = Instant::now();
    let mut windows = Windows::timed(WINDOW_SECONDS);
    let mut next = start;
    while !deadline.passed() {
        let s = fx.statement(next);
        let user = Fixture::user(next);
        let started = Instant::now();
        let answer = tracer.time("query.query", next, None, || {
            fx.service
                .query(&user, &fx.statements[s], &fx.table, fx.noise_seed(next))
        });
        result.outcomes.attempted += 1;
        match answer {
            Ok(answer) => {
                let now = Instant::now();
                let latency = now.duration_since(started).as_nanos() as f64;
                result.latencies.record(latency);
                windows.record(now, latency, answer.releases() as f64);
                result.outcomes.ok += 1;
                result.checked += 1;
                let expected = fx.plans[s].noise_scale();
                let dimension = dimension(&fx.statements[s]);
                let releases = answer.cells().iter().flat_map(|c| c.releases());
                if answer.noise_scale().to_bits() != expected.to_bits()
                    || releases
                        .clone()
                        .any(|r| r.scale.to_bits() != expected.to_bits())
                {
                    result.wrong_scale += 1;
                }
                if releases.clone().any(|r| r.values.len() != dimension)
                    || answer.releases() != fx.plans[s].releases()
                {
                    result.wrong_length += 1;
                }
                if next.is_multiple_of(SAMPLE_EVERY) && result.samples.len() < MAX_SAMPLES {
                    result.samples.push((next, answer));
                }
            }
            Err(QueryError::Budget(_)) => result.outcomes.budget += 1,
            Err(_) => result.outcomes.error += 1,
        }
        next += 1;
    }
    result.windows = windows.finish();
    result.seconds = began.elapsed().as_secs_f64();
    (next, result)
}

fn same_bits(a: &QueryResult, b: &QueryResult) -> bool {
    a.cells().len() == b.cells().len()
        && a.cells().iter().zip(b.cells()).all(|(x, y)| {
            x.releases().len() == y.releases().len()
                && x.releases().iter().zip(y.releases()).all(|(r, s)| {
                    r.values.len() == s.values.len()
                        && r.values
                            .iter()
                            .zip(&s.values)
                            .all(|(u, v)| u.to_bits() == v.to_bits())
                })
        })
}

fn threads(parallelism: Parallelism) -> ExecOptions {
    ExecOptions {
        parallelism,
        morsel_windows: None,
    }
}

/// Re-executes each sampled query serially and on two threads; all three
/// answers must agree bitwise.
fn check_samples(fx: &Fixture, result: &LoopResult, report: &mut Report) {
    let mut mismatched = 0;
    for (i, answer) in &result.samples {
        let plan = &fx.plans[fx.statement(*i)];
        let serial = execute_plan_with(plan, fx.noise_seed(*i), &threads(Parallelism::Serial));
        let parallel = execute_plan_with(
            plan,
            fx.noise_seed(*i),
            &threads(Parallelism::Threads(THREADS)),
        );
        match (serial, parallel) {
            (Ok(serial), Ok(parallel))
                if same_bits(&serial, &parallel) && same_bits(&serial, answer) => {}
            _ => mismatched += 1,
        }
    }
    report.check(
        "query.serial_equals_threads",
        mismatched == 0 && !result.samples.is_empty(),
        format!(
            "{mismatched} of {} sampled queries differ between Serial, Threads(2) and the \
             service",
            result.samples.len()
        ),
    );
    report.check(
        "query.dimension",
        result.wrong_length == 0 && result.checked > 0,
        format!(
            "{} of {} queries with a release of the wrong dimension or count",
            result.wrong_length, result.checked
        ),
    );
    report.check(
        "query.calibrated_scale",
        result.wrong_scale == 0 && result.checked > 0,
        format!(
            "{} of {} queries off the planned scale",
            result.wrong_scale, result.checked
        ),
    );
}

fn context(report: &mut Report, seed: u64) {
    report.context("seed", seed);
    report.context("available_parallelism", sys::parallelism());
    report.context("executor_threads", THREADS);
    report.context("generator_threads", 1);
    report.context("connections", 0);
    report.context("loop", "\"closed\"");
    report.context("statements", statements().len());
    report.context("window", WINDOW);
    report.context(
        "table",
        format!("{{\"giant_cell\": {GIANT_CELL}, \"tiny_cells\": {TINY_CELLS}}}"),
    );
    report.context("epsilon", EPSILON);
    report.context(
        "history_per_user",
        format!("{{\"max\": {QUERIES_PER_USER}}}"),
    );
}

fn timed_setups(seed: u64, report: &mut Report) -> Fixture {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        fixture = Some(setup(seed));
        setups.push(started.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&setups));
    fixture.expect("at least one set-up")
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(NAME, false);
    context(&mut report, seed);
    let fx = timed_setups(seed, &mut report);
    let mut tracer = Tracer::new(false);
    let (next, warm) = closed_loop(&fx, 0, seconds * 0.05, &mut tracer);
    report.phase("warmup", warm.outcomes, false);
    let (_, measured) = closed_loop(&fx, next, seconds * 0.95, &mut tracer);
    report.phase("measured", measured.outcomes, true);

    let windows = &measured.windows;
    let p50 = window_figure(windows, |w| w.p50, true) / 1e3;
    let p90 = window_figure(windows, |w| w.p90, true) / 1e3;
    let p99 = window_figure(windows, |w| w.p99, true) / 1e3;
    let windows_per_s = window_figure(windows, |w| w.rate, false);
    report.metric("op_p50_us", p50);
    report.metric("op_p90_us", p90);
    report.metric("ops_per_s", windows_per_s);
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
    report.detail("query_p50_us", p50, "us");
    report.detail("query_p90_us", p90, "us");
    report.detail("query_p99_us", p99, "us");
    report.detail("query_windows_per_s", windows_per_s, "1/s");
    report.detail(
        "queries_per_s",
        measured.outcomes.ok as f64 / measured.seconds,
        "1/s",
    );
    let summary = measured.latencies.summary();
    report.detail("query_samples", summary.n as f64, "count");
    report.detail("query_p50_all_us", summary.p50 / 1e3, "us");
    report.detail(
        &format!("query_p{:.4}_us", summary.top_pct),
        summary.top / 1e3,
        "us",
    );
    report.detail(
        "failed_ratio",
        measured.outcomes.failed() as f64 / measured.outcomes.attempted.max(1) as f64,
        "ratio",
    );
    check_samples(&fx, &measured, &mut report);
    report
}

/// Releases query `i` straight through the engine, cell by cell, with the
/// executor's per-cell seeds: the query ladder's engine rung.
fn engine_direct(
    fx: &Fixture,
    i: u64,
    tracer: &mut Tracer,
    parent: crate::trace::SpanId,
) -> Option<Vec<Vec<NoisyRelease>>> {
    let plan = &fx.plans[fx.statement(i)];
    let engine = fx
        .service
        .catalog()
        .engine_for(plan.chosen(), WINDOW)
        .ok()?;
    let query = plan.statement().aggregate.to_query(STATES, WINDOW).ok()?;
    let budget = PrivacyBudget::new(EPSILON).ok()?;
    let batch = plan.batch();
    let mut cells = Vec::with_capacity(plan.cell_count());
    for cell in 0..plan.cell_count() {
        let slices: Vec<&[usize]> = batch
            .cell_window_range(cell)
            .map(|w| batch.window(w))
            .collect();
        let mut rng = StdRng::seed_from_u64(cell_seed(fx.noise_seed(i), cell));
        let releases = tracer.time("core.release_batch", i, parent, || {
            engine.release_batch_refs(&*query, &slices, budget, &mut rng)
        });
        cells.push(releases.ok()?);
    }
    Some(cells)
}

fn matches_direct(direct: &[Vec<NoisyRelease>], answer: &QueryResult) -> bool {
    direct.len() == answer.cells().len()
        && direct.iter().zip(answer.cells()).all(|(d, c)| {
            d.len() == c.releases().len()
                && d.iter().zip(c.releases()).all(|(x, y)| {
                    x.values.len() == y.values.len()
                        && x.values
                            .iter()
                            .zip(&y.values)
                            .all(|(u, v)| u.to_bits() == v.to_bits())
                })
        })
}

/// The query ladder: engine-direct, plus budget admission, then the query
/// service. The query workload has no queue and no socket, so the codec
/// and wire rungs do not apply.
fn query_ladder(
    fx: &Fixture,
    service: &QueryService,
    queries: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let accountant = BudgetAccountant::new(1e12).expect("positive budget");
    let mut outcomes = Outcomes::default();
    let mut mismatched = 0u64;
    for chunk in 0..4 {
        let range = chunk * queries / 4..(chunk + 1) * queries / 4;
        let mut direct = Vec::with_capacity((range.end - range.start) as usize);
        for i in range.clone() {
            let rung = tracer.open("rung.engine", i, None);
            direct.push(engine_direct(fx, i, tracer, rung));
            tracer.close(rung);
        }
        for i in range.clone() {
            let plan = &fx.plans[fx.statement(i)];
            let user = Fixture::user(i);
            let rung = tracer.open("rung.budget", i, None);
            tracer
                .time("service.budget.try_spend", i, rung, || {
                    accountant.try_spend(&user, plan.total_epsilon())
                })
                .ok();
            engine_direct(fx, i, tracer, rung);
            tracer.close(rung);
        }
        for (k, i) in range.enumerate() {
            let s = fx.statement(i);
            let user = Fixture::user(i);
            let rung = tracer.open("rung.service", i, None);
            let answer = tracer.time("query.query", i, rung, || {
                service.query(&user, &fx.statements[s], &fx.table, fx.noise_seed(i))
            });
            tracer.close(rung);
            outcomes.attempted += 1;
            match (answer, &direct[k]) {
                (Ok(answer), Some(cells)) => {
                    outcomes.ok += 1;
                    if !matches_direct(cells, &answer) {
                        mismatched += 1;
                    }
                }
                (Err(QueryError::Budget(_)), _) => outcomes.budget += 1,
                _ => outcomes.error += 1,
            }
        }
    }
    report.phase("ladder", outcomes, false);
    report.check(
        "ladder.bitwise_across_rungs",
        mismatched == 0 && outcomes.ok > 0,
        format!("{mismatched} service answers differ from the engine rung"),
    );
    let rungs: Vec<(&str, Option<Summary>)> = vec![
        ("engine", ladder::span_summary(tracer, "rung.engine")),
        ("budget", ladder::span_summary(tracer, "rung.budget")),
        ("service", ladder::span_summary(tracer, "rung.service")),
        ("codec", None),
        ("wire", None),
    ];
    ladder::report_rungs(report, &rungs);
}

/// The traced run: per-layer metrics and the ladder.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(NAME, true);
    context(&mut report, seed);
    let started = Instant::now();
    let fx = setup(seed);
    report.detail("traced_setup_s", started.elapsed().as_secs_f64(), "s");

    let slices = 4;
    let slice_seconds = seconds * 0.3 / (2 * slices) as f64;
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let (mut next, warm) = closed_loop(&fx, 0, seconds * 0.05, &mut untraced);
    report.phase("warmup", warm.outcomes, false);
    let mut rates = (Vec::new(), Vec::new());
    let mut outcomes = Outcomes::default();
    let (cache_before, _) = fx.service.catalog().cache_stats();
    let mut samples = LoopResult::default();
    for _ in 0..slices {
        for on in [false, true] {
            let tracer = if on { &mut traced } else { &mut untraced };
            let (after, result) = closed_loop(&fx, next, slice_seconds, tracer);
            next = after;
            let rate = result.outcomes.ok as f64 / result.seconds;
            if on { &mut rates.1 } else { &mut rates.0 }.push(rate);
            outcomes.add(&result.outcomes);
            samples.checked += result.checked;
            samples.wrong_length += result.wrong_length;
            samples.wrong_scale += result.wrong_scale;
            let room = MAX_SAMPLES.saturating_sub(samples.samples.len());
            samples
                .samples
                .extend(result.samples.into_iter().take(room));
        }
    }
    let (cache, _) = fx.service.catalog().cache_stats();
    report.phase("traced_loop", outcomes, true);
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    report.metric("core.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.metric(
        "bench.trace_overhead_ratio",
        median(&rates.0) / median(&rates.1),
    );
    check_samples(&fx, &samples, &mut report);

    // The ladder over the workload's own queries, on a service of its own
    // with every statement planned, sized from a pilot.
    let ladder_service = service();
    for text in &fx.statements {
        ladder_service
            .plan(text, &fx.table)
            .expect("statement plans");
    }
    let pilot_started = Instant::now();
    let mut pilot = Report::new("pilot", true);
    query_ladder(
        &fx,
        &ladder_service,
        40,
        &mut Tracer::new(false),
        &mut pilot,
    );
    let per_query = pilot_started.elapsed().as_secs_f64() / 40.0;
    let queries = ((seconds * 0.3 / per_query) as u64).clamp(40, 10_000);
    let mut ladder_tracer = Tracer::new(true);
    query_ladder(
        &fx,
        &ladder_service,
        queries,
        &mut ladder_tracer,
        &mut report,
    );
    report.context("ladder_queries", queries);

    // Layer calls on the workload's statements.
    let mut layer_tracer = Tracer::new(true);
    let rounds = ((seconds * 0.1 / per_query / 3.0) as u64).clamp(9, 20_000);
    for i in 0..rounds {
        let s = fx.statement(i);
        let text = &fx.statements[s];
        let plan = layer_tracer
            .time("query.plan", i, None, || fx.service.plan(text, &fx.table))
            .expect("statement plans");
        layer_tracer
            .time("query.execute", i, None, || {
                fx.service
                    .execute(&Fixture::user(i), &plan, fx.noise_seed(i))
            })
            .expect("plan executes");
        layer_tracer
            .time("parallel.exec_serial", i, None, || {
                execute_plan_with(&plan, fx.noise_seed(i), &threads(Parallelism::Serial))
            })
            .expect("plan executes");
        layer_tracer
            .time("parallel.exec_2t", i, None, || {
                execute_plan_with(
                    &plan,
                    fx.noise_seed(i),
                    &threads(Parallelism::Threads(THREADS)),
                )
            })
            .expect("plan executes");
    }
    let p50 = |tracer: &Tracer, name: &str| span_p50(tracer, name).unwrap_or(f64::NAN);
    report.metric("query.plan_us", p50(&layer_tracer, "query.plan") / 1e3);
    report.metric(
        "query.execute_us",
        p50(&layer_tracer, "query.execute") / 1e3,
    );
    let serial = p50(&layer_tracer, "parallel.exec_serial");
    let two = p50(&layer_tracer, "parallel.exec_2t");
    report.metric("parallel.exec_serial_us", serial / 1e3);
    report.metric("parallel.exec_2t_us", two / 1e3);
    report.metric("parallel.speedup", serial / two);

    // Warm engine releases, one window at a time.
    let plan = &fx.plans[0];
    let engine = fx
        .service
        .catalog()
        .engine_for(plan.chosen(), WINDOW)
        .expect("planned engine");
    let query = plan
        .statement()
        .aggregate
        .to_query(STATES, WINDOW)
        .expect("planned query");
    let budget = PrivacyBudget::new(EPSILON).expect("positive epsilon");
    let batch = plan.batch();
    let mut releases = Vec::with_capacity(batch.total_windows() * 8);
    for round in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(fx.noise_seed(round));
        for w in 0..batch.total_windows() {
            let release = layer_tracer
                .time("core.release", w as u64, None, || {
                    engine.release(&*query, batch.window(w), budget, &mut rng)
                })
                .expect("warm release");
            releases.push((batch.window(w), release));
        }
    }
    report.metric("core.release_ns", p50(&layer_tracer, "core.release"));

    // Standalone replays of the workload's own charges and releases.
    let mut standalone = Tracer::new(true);
    let charges: Vec<Charge> = (0..20_000u64)
        .map(|i| {
            let plan = &fx.plans[fx.statement(i)];
            Charge {
                user: Fixture::user(i),
                epsilon: plan.total_epsilon(),
                query_sig: query_signature(&fx.statements[fx.statement(i)]),
                family: plan.chosen().keyword(),
                seq: fx.noise_seed(i),
            }
        })
        .collect();
    layers::budget_and_ledger(&charges, 1e12, &mut standalone, &mut report);
    let sequences: Vec<Vec<usize>> = fx
        .table
        .groups()
        .iter()
        .map(|g| g.sequence().to_vec())
        .collect();
    let bounds = obs::bounds_from(&sequences, STATES);
    layers::monitor_replay(&bounds, &releases, &mut standalone, &mut report);

    // Cold planning and cold calibration on fresh catalogs.
    let mut cold_plan_ms = Vec::new();
    for _ in 0..3 {
        let fresh = service();
        let started = Instant::now();
        for shape in 0..SHAPES.len() {
            let text = &fx.statements[shape];
            standalone
                .time("query.cold_plan", shape as u64, None, || {
                    fresh.plan(text, &fx.table)
                })
                .expect("statement plans");
        }
        cold_plan_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("query.cold_plan_ms", median(&cold_plan_ms));
    let queries: Vec<_> = SHAPES
        .iter()
        .map(|shape| {
            let statement = pufferfish_query::parse_statement(&format!(
                "{shape} WINDOW {WINDOW} EPSILON {EPSILON}"
            ))
            .expect("statement parses");
            statement
                .aggregate
                .to_query(STATES, WINDOW)
                .expect("query builds")
        })
        .collect();
    let fresh = catalog();
    let keys = fresh
        .kinds()
        .iter()
        .filter_map(|&kind| fresh.engine_for(kind, WINDOW).ok())
        .map(|engine| {
            let before = engine.stats().misses;
            for query in &queries {
                let _ = engine.mechanism(&**query, budget);
            }
            (engine.stats().misses - before) as usize
        })
        .sum::<usize>();
    layers::calibrate(3, keys, &mut standalone, &mut report, || {
        let fresh = catalog();
        for kind in fresh.kinds() {
            if let Ok(engine) = fresh.engine_for(kind, WINDOW) {
                for query in &queries {
                    let _ = engine.mechanism(&**query, budget);
                }
            }
        }
    });

    for name in [
        "service.submit_ns",
        "service.wait_ns",
        "service.queue_high_water",
        "net.encode_ns",
        "net.decode_ns",
        "net.wire_minus_service_us",
        "net.busy_frames",
        "net.bytes_per_release",
        "telemetry.overhead_ratio",
        "telemetry.unattributed_us",
        "bench.gen_lag_p99_us",
    ] {
        report.not_applicable(name);
    }
    traced.absorb(ladder_tracer);
    traced.absorb(layer_tracer);
    traced.absorb(standalone);
    crate::write_spans(&report, seed, &traced);
    report
}
