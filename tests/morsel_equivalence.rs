//! Property tests for the morsel executor: execution over (cell ×
//! window-chunk) morsels is **bitwise-identical** to `Parallelism::Serial`
//! and to direct `Mechanism::release_batch_refs` calls, across morsel sizes ×
//! thread counts × mechanisms × skewed group shapes (one giant cell next to
//! many tiny ones — the shape whose windows spread across the most morsels
//! and whose RNG-offset skipping is exercised hardest).
//!
//! Set `PUFFERFISH_TEST_THREADS=<n>` to pin every execution to
//! `Parallelism::Threads(n)` regardless of the generated thread count — the
//! CI matrix runs this suite at 2 and 8 threads explicitly.

use std::sync::Arc;

use proptest::prelude::*;
use pufferfish_baselines::{Gk16, GroupDp};
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget,
};
use pufferfish_markov::{IntervalClassBuilder, MarkovChainClass};
use pufferfish_parallel::Parallelism;
use pufferfish_query::{
    cell_seed, execute_plan, execute_plan_with, parse_statement, plan_statement, ExecOptions,
    MechanismCatalog, MechanismKind, Table,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A weakly correlated binary class every registered family calibrates on.
fn weak_class() -> MarkovChainClass {
    IntervalClassBuilder::symmetric(0.45)
        .grid_points(2)
        .build()
        .unwrap()
}

/// The thread policy under test: the generated count, unless the CI matrix
/// pinned one via `PUFFERFISH_TEST_THREADS`.
fn test_threads(generated: usize) -> usize {
    std::env::var("PUFFERFISH_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(generated)
}

/// Calibrates `kind` directly on the concrete types — no engine, no cache.
fn direct_mechanism(
    kind: MechanismKind,
    class: &MarkovChainClass,
    length: usize,
    budget: PrivacyBudget,
) -> Arc<dyn Mechanism> {
    match kind {
        MechanismKind::Mqm => Arc::new(
            MqmExact::calibrate(class, length, budget, MqmExactOptions::default()).unwrap(),
        ),
        MechanismKind::MqmApprox => Arc::new(
            MqmApprox::calibrate(class, length, budget, MqmApproxOptions::default()).unwrap(),
        ),
        MechanismKind::Gk16 => Arc::new(Gk16::calibrate(class, length, budget).unwrap()),
        MechanismKind::GroupDp => Arc::new(GroupDp::calibrate(length, budget).unwrap()),
        MechanismKind::Wasserstein => {
            unreachable!("no framework is registered in these tests")
        }
    }
}

/// The window sweep a `WINDOW w STEP s` clause performs, spelled out
/// independently of the planner and the batch.
fn direct_windows(sequence: &[usize], width: usize, step: usize) -> Vec<&[usize]> {
    let mut windows = Vec::new();
    let mut start = 0;
    while start + width <= sequence.len() {
        windows.push(&sequence[start..start + width]);
        start += step;
    }
    windows
}

/// One giant cell (`giant_windows` sweep windows) followed by `tiny` cells
/// of exactly one window each — deterministic but phase-shifted contents.
fn skewed_groups(
    width: usize,
    step: usize,
    giant_windows: usize,
    tiny: usize,
) -> Vec<(String, Vec<usize>)> {
    let giant_len = width + (giant_windows - 1) * step;
    let mut groups = vec![(
        "giant".to_string(),
        (0..giant_len).map(|t| (t * 7 + 3) % 13 % 2).collect(),
    )];
    for g in 0..tiny {
        groups.push((
            format!("tiny-{g:02}"),
            (0..width).map(|t| (t * 5 + g) % 11 % 2).collect(),
        ));
    }
    groups
}

const MECHANISMS: [&str; 4] = ["mqm", "mqm_approx", "gk16", "group_dp"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole contract: for any morsel size, thread count, mechanism
    /// and skew shape, morsel execution equals the serial reference and the
    /// direct per-cell `release_batch_refs` — bit for bit.
    #[test]
    fn morsel_execution_is_bitwise_identical_to_serial_and_direct(
        width in 8usize..14,
        step in 2usize..6,
        giant_windows in 4usize..12,
        tiny in 2usize..7,
        mechanism_index in 0usize..4,
        morsel_windows in 1usize..10,
        threads in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let class = weak_class();
        let catalog = MechanismCatalog::new(class.clone());
        let groups = skewed_groups(width, step, giant_windows, tiny);
        let table = Table::grouped("skewed", 2, groups.clone()).unwrap();
        let text = format!(
            "HISTOGRAM WINDOW {width} STEP {step} GROUP BY key EPSILON 0.4 MECHANISM {}",
            MECHANISMS[mechanism_index],
        );
        let statement = parse_statement(&text).unwrap();
        let plan = plan_statement(&catalog, &statement, &table).unwrap();

        // The giant cell really is split across morsels.
        prop_assert_eq!(plan.batch().window_count(0), giant_windows);
        prop_assert_eq!(plan.cell_count(), tiny + 1);

        let serial = execute_plan(&plan, seed, Parallelism::Serial).unwrap();
        let morsel = execute_plan_with(
            &plan,
            seed,
            &ExecOptions {
                parallelism: Parallelism::Threads(test_threads(threads)),
                morsel_windows: Some(morsel_windows),
            },
        )
        .unwrap();

        // Serial vs. stolen morsel schedule: bit-identical.
        prop_assert_eq!(serial.cells().len(), morsel.cells().len());
        for (a, b) in serial.cells().iter().zip(morsel.cells()) {
            prop_assert_eq!(a.key(), b.key());
            prop_assert_eq!(a.releases().len(), b.releases().len());
            for (x, y) in a.releases().iter().zip(b.releases()) {
                prop_assert_eq!(x.scale.to_bits(), y.scale.to_bits());
                for (u, v) in x.values.iter().zip(&y.values) {
                    prop_assert_eq!(u.to_bits(), v.to_bits());
                }
                for (u, v) in x.true_values.iter().zip(&y.true_values) {
                    prop_assert_eq!(u.to_bits(), v.to_bits());
                }
            }
        }

        // Planned vs. direct mechanism calls with the published cell-seed
        // derivation: bit-identical per cell.
        let budget = PrivacyBudget::new(0.4).unwrap();
        let mechanism = direct_mechanism(plan.chosen(), &class, width, budget);
        let query = statement.aggregate.to_query(2, width).unwrap();
        for (index, (key, data)) in groups.iter().enumerate() {
            let windows = direct_windows(data, width, step);
            let mut rng = StdRng::seed_from_u64(cell_seed(seed, index));
            let direct = mechanism.release_batch_refs(&*query, &windows, &mut rng).unwrap();
            let cell = &morsel.cells()[index];
            prop_assert_eq!(cell.key(), key.as_str());
            prop_assert_eq!(cell.releases().len(), direct.len());
            for (a, b) in cell.releases().iter().zip(&direct) {
                for (x, y) in a.values.iter().zip(&b.values) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}

/// The auto-derived morsel size must also hold the contract (no pinned
/// size), including on thread counts far beyond the host's cores.
#[test]
fn auto_morsel_size_matches_serial_on_every_thread_count() {
    let class = weak_class();
    let catalog = MechanismCatalog::new(class);
    let table = Table::grouped("skewed", 2, skewed_groups(10, 3, 20, 5)).unwrap();
    let statement =
        parse_statement("HISTOGRAM WINDOW 10 STEP 3 GROUP BY key EPSILON 0.4 MECHANISM mqm_approx")
            .unwrap();
    let plan = plan_statement(&catalog, &statement, &table).unwrap();
    let serial = execute_plan(&plan, 99, Parallelism::Serial).unwrap();
    for threads in [2, 3, 8, 64] {
        let auto = execute_plan_with(
            &plan,
            99,
            &ExecOptions {
                parallelism: Parallelism::Threads(test_threads(threads)),
                morsel_windows: None,
            },
        )
        .unwrap();
        assert_eq!(
            serial, auto,
            "auto morsel size diverged at {threads} threads"
        );
    }
}
