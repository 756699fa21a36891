//! Property tests: a parsed-then-planned query executes **bitwise-
//! identically** to the equivalent direct `Mechanism::release_batch_refs` call
//! under the same seed, across every mechanism choice (fixed and auto).
//!
//! This is the query layer's core correctness contract: the planner and the
//! fused/parallel executor may only change *how fast* an answer is computed,
//! never a single bit of the answer itself.

use std::sync::Arc;

use proptest::prelude::*;
use pufferfish_baselines::{Gk16, GroupDp};
use pufferfish_core::{
    Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions, PrivacyBudget,
};
use pufferfish_markov::{IntervalClassBuilder, MarkovChainClass};
use pufferfish_parallel::Parallelism;
use pufferfish_query::{
    cell_seed, execute_plan, parse_statement, plan_statement, MechanismCatalog, MechanismKind,
    Table,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The execution policy under test: `default`, unless the CI matrix pinned
/// an explicit thread count via `PUFFERFISH_TEST_THREADS`.
fn test_parallelism(default: Parallelism) -> Parallelism {
    std::env::var("PUFFERFISH_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Parallelism::Threads)
        .unwrap_or(default)
}

/// A weakly correlated binary class: every registered mechanism family
/// (including GK16, whose influence norm must stay below 1) calibrates.
fn weak_class() -> MarkovChainClass {
    IntervalClassBuilder::symmetric(0.45)
        .grid_points(2)
        .build()
        .unwrap()
}

/// Deterministic 60-record binary sequence.
fn sequence(len: usize) -> Vec<usize> {
    (0..len).map(|t| (t * 7 + 3) % 13 % 2).collect()
}

/// Calibrates `kind` directly on the concrete types — no engine, no cache —
/// exactly as a pre-query-layer call site would.
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
/// independently of the planner.
fn direct_windows(sequence: &[usize], width: usize, step: usize) -> Vec<&[usize]> {
    let mut windows = Vec::new();
    let mut start = 0;
    while start + width <= sequence.len() {
        windows.push(&sequence[start..start + width]);
        start += step;
    }
    windows
}

const EPSILONS: [f64; 3] = [0.3, 0.7, 1.1];
const AGGREGATES: [&str; 4] = ["COUNT STATE 1", "HISTOGRAM", "RANGE 0 0", "MEAN"];
const MECHANISMS: [&str; 5] = ["auto", "mqm", "mqm_approx", "gk16", "group_dp"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-group queries: planned execution consumes exactly the noise
    /// stream of `mechanism.release_batch_refs(query, windows, seed_from(seed))`.
    #[test]
    fn planned_execution_is_bitwise_identical_to_direct_calls(
        width in 10usize..24,
        step in 3usize..12,
        eps_index in 0usize..3,
        aggregate_index in 0usize..4,
        mechanism_index in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let class = weak_class();
        let catalog = MechanismCatalog::new(class.clone());
        let data = sequence(60);
        let table = Table::single("s", 2, data.clone()).unwrap();
        let epsilon = EPSILONS[eps_index];
        let text = format!(
            "{} WINDOW {width} STEP {step} EPSILON {epsilon} MECHANISM {}",
            AGGREGATES[aggregate_index], MECHANISMS[mechanism_index],
        );
        let statement = parse_statement(&text).unwrap();
        let plan = plan_statement(&catalog, &statement, &table).unwrap();
        let result = execute_plan(&plan, seed, test_parallelism(Parallelism::Auto)).unwrap();

        // The direct call a caller would have written by hand.
        let budget = PrivacyBudget::new(epsilon).unwrap();
        let mechanism = direct_mechanism(plan.chosen(), &class, width, budget);
        let windows = direct_windows(&data, width, step);
        let mut rng = StdRng::seed_from_u64(seed);
        let direct = mechanism
            .release_batch_refs(&*plan_query(&plan), &windows, &mut rng)
            .unwrap();

        prop_assert_eq!(result.cells().len(), 1);
        let planned = result.cells()[0].releases();
        prop_assert_eq!(planned.len(), direct.len());
        for (a, b) in planned.iter().zip(&direct) {
            prop_assert_eq!(a.scale.to_bits(), b.scale.to_bits());
            prop_assert_eq!(a.true_values.len(), b.true_values.len());
            for (x, y) in a.values.iter().zip(&b.values) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.true_values.iter().zip(&b.true_values) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Group-by queries: each cell matches a direct call seeded with the
    /// published `cell_seed` derivation, on every parallelism policy.
    #[test]
    fn grouped_execution_matches_per_cell_direct_calls(
        width in 8usize..16,
        eps_index in 0usize..3,
        mechanism_index in 1usize..5, // fixed mechanisms only
        seed in 0u64..1_000_000,
        threads in 1usize..5,
    ) {
        let class = weak_class();
        let catalog = MechanismCatalog::new(class.clone());
        let groups: Vec<(String, Vec<usize>)> = (0..4)
            .map(|g| (format!("user-{g}"), (0..40).map(|t| (t + g) % 2).collect()))
            .collect();
        let table = Table::grouped("users", 2, groups.clone()).unwrap();
        let epsilon = EPSILONS[eps_index];
        let text = format!(
            "HISTOGRAM WINDOW {width} GROUP BY user EPSILON {epsilon} MECHANISM {}",
            MECHANISMS[mechanism_index],
        );
        let statement = parse_statement(&text).unwrap();
        let plan = plan_statement(&catalog, &statement, &table).unwrap();
        let result =
            execute_plan(&plan, seed, test_parallelism(Parallelism::Threads(threads))).unwrap();

        let budget = PrivacyBudget::new(epsilon).unwrap();
        let mechanism = direct_mechanism(plan.chosen(), &class, width, budget);
        prop_assert_eq!(result.cells().len(), groups.len());
        for (index, (key, data)) in groups.iter().enumerate() {
            let windows = direct_windows(data, width, width);
            let mut rng = StdRng::seed_from_u64(cell_seed(seed, index));
            let direct = mechanism
                .release_batch_refs(&*plan_query(&plan), &windows, &mut rng)
                .unwrap();
            let cell = &result.cells()[index];
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

/// Rebuilds the plan's concrete query from its statement — the test must not
/// reach into plan internals, and the aggregate → query mapping is public.
fn plan_query(plan: &pufferfish_query::QueryPlan) -> Arc<dyn pufferfish_core::LipschitzQuery> {
    let window = plan.statement().window.expect("tests always use WINDOW");
    plan.statement()
        .aggregate
        .to_query(2, window.width)
        .unwrap()
}
