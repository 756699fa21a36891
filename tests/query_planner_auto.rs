//! Acceptance tests for cost-based mechanism planning: `MECHANISM auto`
//! must select the minimum-noise-scale *eligible* mechanism — verified
//! against exhaustive direct per-mechanism calibration — on two workloads
//! (a synthetic binary chain class and the activity dataset), and the
//! planned execution must be bitwise-identical to the direct call.

use std::sync::Arc;

use pufferfish_baselines::{Gk16, GroupDp};
use pufferfish_core::{
    LipschitzQuery, Mechanism, MqmApprox, MqmApproxOptions, MqmExact, MqmExactOptions,
    PrivacyBudget,
};
use pufferfish_datasets::{ActivityCohort, ActivityDataset, ActivitySimulationConfig};
use pufferfish_markov::{sample_trajectory, IntervalClassBuilder, MarkovChain, MarkovChainClass};
use pufferfish_parallel::Parallelism;
use pufferfish_query::{
    execute_plan, parse_statement, plan_statement, MechanismCatalog, MechanismKind, QueryPlan,
    Table,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exhaustively calibrates every registered family directly (no engine, no
/// cache) and returns `(kind, noise scale)` for the ones that succeed.
/// `exact_options` must match what the catalog under test uses, so the
/// comparison is calibration-for-calibration.
fn exhaustive_scales(
    class: &MarkovChainClass,
    length: usize,
    epsilon: f64,
    query: &dyn LipschitzQuery,
    exact_options: MqmExactOptions,
) -> Vec<(MechanismKind, f64)> {
    let budget = PrivacyBudget::new(epsilon).unwrap();
    let mut scales = Vec::new();
    if let Ok(m) = MqmExact::calibrate(class, length, budget, exact_options) {
        scales.push((MechanismKind::Mqm, m.noise_scale_for(query)));
    }
    if let Ok(m) = MqmApprox::calibrate(class, length, budget, MqmApproxOptions::default()) {
        scales.push((MechanismKind::MqmApprox, m.noise_scale_for(query)));
    }
    if let Ok(m) = Gk16::calibrate(class, length, budget) {
        scales.push((MechanismKind::Gk16, Mechanism::noise_scale_for(&m, query)));
    }
    if let Ok(m) = GroupDp::calibrate(length, budget) {
        scales.push((
            MechanismKind::GroupDp,
            Mechanism::noise_scale_for(&m, query),
        ));
    }
    scales.retain(|(_, scale)| scale.is_finite());
    scales
}

/// Asserts the plan picked the exhaustive argmin, bit for bit.
fn assert_plan_is_argmin(plan: &QueryPlan, exhaustive: &[(MechanismKind, f64)]) {
    assert!(
        exhaustive.len() >= 2,
        "the workload must leave at least two eligible mechanisms for \
         'selects the minimum' to mean anything: {exhaustive:?}"
    );
    let (best_kind, best_scale) = exhaustive
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert_eq!(
        plan.chosen(),
        best_kind,
        "auto must select the minimum-scale mechanism; exhaustive: {exhaustive:?}, \
         probes: {:?}",
        plan.probes()
    );
    assert_eq!(
        plan.noise_scale().to_bits(),
        best_scale.to_bits(),
        "the planned scale must equal the direct calibration's scale"
    );
    // The probe evidence must agree with the exhaustive sweep, kind by kind.
    for (kind, scale) in exhaustive {
        let probe = plan
            .probes()
            .iter()
            .find(|probe| probe.kind == *kind)
            .unwrap_or_else(|| panic!("missing probe for {kind}"));
        assert_eq!(
            probe.outcome.clone().unwrap().to_bits(),
            scale.to_bits(),
            "probe for {kind} disagrees with direct calibration"
        );
    }
}

/// Executes the plan and the equivalent direct batched release with the same
/// seed; the noisy values must match bit for bit.
fn assert_bitwise_identical_to_direct(
    plan: &QueryPlan,
    class: &MarkovChainClass,
    length: usize,
    epsilon: f64,
    query: &dyn LipschitzQuery,
    windows: &[&[usize]],
    seed: u64,
) {
    let budget = PrivacyBudget::new(epsilon).unwrap();
    let mechanism: Arc<dyn Mechanism> = match plan.chosen() {
        MechanismKind::Mqm => Arc::new(
            MqmExact::calibrate(class, length, budget, MqmExactOptions::default()).unwrap(),
        ),
        MechanismKind::MqmApprox => Arc::new(
            MqmApprox::calibrate(class, length, budget, MqmApproxOptions::default()).unwrap(),
        ),
        MechanismKind::Gk16 => Arc::new(Gk16::calibrate(class, length, budget).unwrap()),
        MechanismKind::GroupDp => Arc::new(GroupDp::calibrate(length, budget).unwrap()),
        MechanismKind::Wasserstein => unreachable!("no framework registered"),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let direct = mechanism
        .release_batch_refs(query, windows, &mut rng)
        .unwrap();
    let result = execute_plan(plan, seed, Parallelism::Auto).unwrap();
    assert_eq!(result.cells().len(), 1);
    let planned = result.cells()[0].releases();
    assert_eq!(planned.len(), direct.len());
    for (a, b) in planned.iter().zip(&direct) {
        assert_eq!(a.scale.to_bits(), b.scale.to_bits());
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn auto_selects_minimum_scale_on_the_synthetic_chain_workload() {
    // The Section 5.2 shape: a binary interval class, a full-sequence
    // histogram release.
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(3)
        .build()
        .unwrap();
    let truth = MarkovChain::new(vec![0.5, 0.5], vec![vec![0.6, 0.4], vec![0.4, 0.6]]).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let length = 100;
    let data = sample_trajectory(&truth, length, &mut rng).unwrap();
    let table = Table::single("chain", 2, data.clone()).unwrap();

    let catalog = MechanismCatalog::new(class.clone());
    let statement = parse_statement("HISTOGRAM EPSILON 1.0 MECHANISM auto").unwrap();
    let plan = plan_statement(&catalog, &statement, &table).unwrap();

    let query = statement.aggregate.to_query(2, length).unwrap();
    let exhaustive = exhaustive_scales(&class, length, 1.0, &*query, MqmExactOptions::default());
    assert_plan_is_argmin(&plan, &exhaustive);
    assert_bitwise_identical_to_direct(&plan, &class, length, 1.0, &*query, &[&data], 977);
}

#[test]
fn auto_selects_minimum_scale_on_the_activity_workload() {
    // The Section 5.3.1 shape: a four-state activity chain, a sliding-window
    // histogram sweep over one participant's record. At a 12-second sampling
    // interval activities are sticky, so the window must be long (as in the
    // paper, where records run to thousands of epochs) before the quilt
    // families beat the trivial-quilt/GroupDP floor; the exact-MQM search is
    // width-bounded to keep the sweep tractable, with the *same* bound used
    // for the catalog and the exhaustive reference.
    let cohort = ActivityCohort::Cyclists;
    let class = MarkovChainClass::singleton(cohort.ground_truth_chain().unwrap());
    let mut rng = StdRng::seed_from_u64(9);
    let dataset = ActivityDataset::simulate(
        cohort,
        ActivitySimulationConfig {
            observations_per_participant: 1_000,
            gap_probability: 0.0,
            participants: Some(1),
        },
        &mut rng,
    )
    .unwrap();
    let record = dataset.participants[0].concatenated();
    assert_eq!(record.len(), 1_000);
    let table = Table::single("cyclist-0", 4, record.clone()).unwrap();

    let exact_options = MqmExactOptions {
        max_quilt_width: Some(32),
        search_middle_only: true, // valid: the cohort chain starts stationary
        parallelism: Parallelism::Auto,
    };
    let catalog = MechanismCatalog::with_options(
        class.clone(),
        pufferfish_query::CatalogOptions {
            mqm_exact: exact_options,
            ..pufferfish_query::CatalogOptions::default()
        },
    );
    let statement =
        parse_statement("HISTOGRAM WINDOW 500 STEP 250 EPSILON 1.0 MECHANISM auto").unwrap();
    let plan = plan_statement(&catalog, &statement, &table).unwrap();
    assert_eq!(plan.releases(), 3);

    let window = 500;
    let query = statement.aggregate.to_query(4, window).unwrap();
    let exhaustive = exhaustive_scales(&class, window, 1.0, &*query, exact_options);
    assert_plan_is_argmin(&plan, &exhaustive);

    // The activity chains are sticky: GK16's influence norm is >= 1, so the
    // planner must have routed *around* it (the fall-back path of the cost
    // model), and the winner must beat the always-eligible GroupDP floor.
    assert!(
        !exhaustive
            .iter()
            .any(|(kind, _)| *kind == MechanismKind::Gk16),
        "expected GK16 to be ineligible on sticky activity chains"
    );
    let gk16_probe = plan
        .probes()
        .iter()
        .find(|probe| probe.kind == MechanismKind::Gk16)
        .unwrap();
    assert!(gk16_probe.outcome.is_err());
    let group_dp = exhaustive
        .iter()
        .find(|(kind, _)| *kind == MechanismKind::GroupDp)
        .unwrap()
        .1;
    assert!(
        plan.noise_scale() < group_dp,
        "auto should beat the GroupDP floor: {} vs {group_dp}",
        plan.noise_scale()
    );

    // Auto must have found a *strict* win, not a tie with the floor.
    assert_eq!(plan.chosen(), MechanismKind::MqmApprox);

    let windows: Vec<&[usize]> = (0..3).map(|i| &record[i * 250..i * 250 + window]).collect();
    assert_bitwise_identical_to_direct(&plan, &class, window, 1.0, &*query, &windows, 1234);
}

#[test]
fn repeated_planning_is_amortised_by_the_catalog_cache() {
    // The ISSUE's amortisation requirement: probing goes through the cached
    // engines, so planning the same statement twice performs zero new
    // calibrations the second time.
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    let catalog = MechanismCatalog::new(class);
    let table = Table::single("t", 2, (0..50).map(|t| t % 2).collect()).unwrap();
    let statement = parse_statement("HISTOGRAM EPSILON 0.8 MECHANISM auto").unwrap();

    plan_statement(&catalog, &statement, &table).unwrap();
    let (first, _) = catalog.cache_stats();
    assert!(first.misses >= 3, "auto probes every registered family");

    plan_statement(&catalog, &statement, &table).unwrap();
    let (second, _) = catalog.cache_stats();
    assert_eq!(
        second.misses, first.misses,
        "replanning must not recalibrate"
    );
    assert!(second.hits > first.hits);
}
