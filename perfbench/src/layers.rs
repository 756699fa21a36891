//! Standalone replays of a workload's own traffic against single layers:
//! the budget accountant, the ε-ledger, the release monitor, and cold
//! calibration. Each call into the layer is one span.

use pufferfish_core::NoisyRelease;
use pufferfish_monitor::ClassBounds;
use pufferfish_service::{BudgetAccountant, ReleaseObserver};
use pufferfish_telemetry::{EpsilonLedger, LedgerEventKind};

use crate::obs;
use crate::report::{Outcomes, Report};
use crate::stats::{median, summarize};
use crate::trace::Tracer;

/// One budget event of the workload: who is charged, how much, and the
/// audit tag the ledger records.
pub struct Charge {
    pub user: String,
    pub epsilon: f64,
    pub query_sig: u64,
    pub family: &'static str,
    pub seq: u64,
}

/// Replays `charges` against a fresh accountant and a fresh ledger.
pub fn budget_and_ledger(
    charges: &[Charge],
    target_epsilon: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let accountant = BudgetAccountant::new(target_epsilon).expect("positive budget");
    let mut outcomes = Outcomes::default();
    let mut spends = Tracer::new(true);
    for (i, charge) in charges.iter().enumerate() {
        outcomes.attempted += 1;
        let spent = spends.time("service.budget.try_spend", i as u64, None, || {
            accountant.try_spend(&charge.user, charge.epsilon)
        });
        match spent {
            Ok(_) => outcomes.ok += 1,
            Err(error) => crate::common::count_service_error(&mut outcomes, &error),
        }
    }
    report.phase("budget_replay", outcomes, false);
    let summary = summarize(&mut spends.durations("service.budget.try_spend"));
    tracer.absorb(spends);
    report.metric("service.budget.try_spend_p50_ns", summary.p50);
    report.metric("service.budget.try_spend_p99_ns", summary.p99);
    report.detail(
        "service.budget.replayed_charges",
        charges.len() as f64,
        "count",
    );
    let history_max = charges
        .iter()
        .map(|c| accountant.releases(&c.user))
        .max()
        .unwrap_or(0);
    report.metric("service.budget.history_max", history_max as f64);
    report.detail(
        "service.budget.replay_users",
        accountant.users() as f64,
        "count",
    );

    let ledger = EpsilonLedger::new();
    let mut records = Tracer::new(true);
    for (i, charge) in charges.iter().enumerate() {
        records.time("telemetry.ledger_record", i as u64, None, || {
            ledger.record(
                LedgerEventKind::Charge,
                &charge.user,
                charge.query_sig,
                charge.family,
                charge.epsilon,
                charge.seq,
            )
        });
    }
    report.metric(
        "telemetry.ledger_record_ns",
        summarize(&mut records.durations("telemetry.ledger_record")).p50,
    );
    tracer.absorb(records);
}

/// Replays `(database, release)` pairs through a fresh monitor.
pub fn monitor_replay(
    bounds: &ClassBounds,
    releases: &[(&[usize], NoisyRelease)],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let monitor = obs::monitor(bounds);
    let mut observed = Tracer::new(true);
    for (i, (database, release)) in releases.iter().enumerate() {
        observed.time("monitor.observe_release", i as u64, None, || {
            monitor.observe_release(database, release)
        });
    }
    report.metric(
        "monitor.observe_ns",
        summarize(&mut observed.durations("monitor.observe_release")).p50,
    );
    tracer.absorb(observed);
}

/// Times `calibrate` (one cold calibration per call, over `keys` keys)
/// `repetitions` times and reports the median time per key.
pub fn calibrate(
    repetitions: usize,
    keys: usize,
    tracer: &mut Tracer,
    report: &mut Report,
    mut calibrate: impl FnMut(),
) {
    let mut per_key_ms = Vec::with_capacity(repetitions);
    for repetition in 0..repetitions {
        let span = tracer.open("core.calibrate", repetition as u64, None);
        let started = std::time::Instant::now();
        calibrate();
        per_key_ms.push(started.elapsed().as_secs_f64() * 1e3 / keys.max(1) as f64);
        tracer.close(span);
    }
    report.metric("core.calibrate_ms", median(&per_key_ms));
    report.detail("core.calibrated_keys", keys as f64, "count");
}
