//! Sequential composition of the Markov Quilt Mechanism (Theorem 4.4).
//!
//! Pufferfish privacy does not compose in general, but Theorem 4.4 shows that
//! repeated applications of the Markov Quilt Mechanism over the same
//! database, using the *same* quilt sets, degrade gracefully: publishing
//! `(M_1(D), …, M_K(D))` with per-release budgets `ε_k` guarantees
//! `K · max_k ε_k`-Pufferfish privacy (and `Σ_k ε_k` when the ε are equal,
//! which is the common case).
//!
//! # State and cost
//!
//! [`CompositionAccountant`] keeps what the theorem needs up to date as
//! releases are recorded: the release count `K`, the running sum (added in
//! record order, so it has the bits summing the whole history would give),
//! the running maximum, and whether every ε is numerically equal to the
//! first. Recording a release, every accessor and the admission preview
//! [`CompositionAccountant::guaranteed_epsilon_with`] are therefore O(1)
//! whatever the history length.
//!
//! The history itself is kept only as runs of bitwise-equal ε in record
//! order, which is all a refund needs. A history of one repeated ε — the
//! common serving case — is one run described by the count and the maximum,
//! with no heap allocation. A refund ([`CompositionAccountant::unrecord`])
//! takes one ε off its run and replays the runs to rebuild the aggregates:
//! O(K) additions and no allocation, so the composed ε stays bit-for-bit what
//! re-summing the remaining history gives.

/// An accountant tracking a sequence of Markov Quilt Mechanism releases on
/// the same database with a shared quilt-set configuration.
///
/// It holds four words: `K`, the running `Σ ε` and `max ε`, and a pointer
/// that stays empty while every recorded ε has the same bits. Only a history
/// of two or more distinct ε owns a heap allocation (its runs and the
/// all-equal flag). Recording and every query, the admission preview
/// included, are O(1); a refund is O(K) arithmetic with no allocation (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct CompositionAccountant {
    /// `K`, the number of recorded releases.
    releases: usize,
    /// `Σ_k ε_k`, added in record order starting from `-0.0` — the bits
    /// `iter().sum()` over the history gives (so `-0.0` when empty).
    sum: f64,
    /// `max_k ε_k`, or `0.0` when empty.
    max: f64,
    /// `None` while the history is one run: `releases` copies of `max`.
    mixed: Option<Box<MixedHistory>>,
}

/// A history of two or more bitwise-distinct ε.
#[derive(Debug, Clone)]
struct MixedHistory {
    /// Runs of bitwise-equal ε in record order; at least two, and adjacent
    /// runs differ.
    runs: Vec<Run>,
    /// Every ε is within `1e-12 · max(first, 1)` of the first one. (A
    /// one-run history is all-equal by construction.)
    all_equal: bool,
}

/// `count` consecutive releases of bitwise-equal `epsilon`.
#[derive(Debug, Clone, Copy)]
struct Run {
    epsilon: f64,
    count: usize,
}

/// The equality test of Theorem 4.4's homogeneous case: `epsilon` is
/// numerically equal to the history's first ε.
fn within_tolerance(epsilon: f64, first: f64) -> bool {
    (epsilon - first).abs() < 1e-12 * first.max(1.0)
}

impl Default for CompositionAccountant {
    fn default() -> Self {
        CompositionAccountant {
            releases: 0,
            sum: -0.0,
            max: 0.0,
            mixed: None,
        }
    }
}

impl CompositionAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        CompositionAccountant::default()
    }

    /// Records one release made with the given per-release epsilon.
    ///
    /// Non-positive or non-finite values are ignored (they correspond to
    /// releases that never happened).
    pub fn record(&mut self, epsilon: f64) {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return;
        }
        if let Some(history) = self.mixed.as_deref_mut() {
            history.all_equal &= within_tolerance(epsilon, history.runs[0].epsilon);
            match history.runs.last_mut() {
                Some(last) if last.epsilon.to_bits() == epsilon.to_bits() => last.count += 1,
                _ => history.runs.push(Run { epsilon, count: 1 }),
            }
        } else if self.releases > 0 && self.max.to_bits() != epsilon.to_bits() {
            // The first distinct ε: spill the one run into a run list.
            self.mixed = Some(Box::new(MixedHistory {
                runs: vec![
                    Run {
                        epsilon: self.max,
                        count: self.releases,
                    },
                    Run { epsilon, count: 1 },
                ],
                all_equal: within_tolerance(epsilon, self.max),
            }));
        }
        self.releases += 1;
        self.sum += epsilon;
        self.max = self.max.max(epsilon);
    }

    /// Removes one previously recorded release with exactly (bitwise) the
    /// given epsilon, returning whether one was found.
    ///
    /// This is the rollback primitive for serving layers that commit a spend
    /// at admission time and must undo it when the request is subsequently
    /// refused (e.g. by a full queue) before any release happened. It is
    /// sound precisely because the Theorem 4.4 guarantee depends only on the
    /// *multiset* of per-release budgets, never on their order.
    ///
    /// The most recent matching release is the one removed, and the sum is
    /// rebuilt by replaying the remaining history in record order: O(K)
    /// additions, no allocation.
    pub fn unrecord(&mut self, epsilon: f64) -> bool {
        let bits = epsilon.to_bits();
        match self.mixed.as_deref_mut() {
            None => {
                if self.releases == 0 || self.max.to_bits() != bits {
                    return false;
                }
                self.releases -= 1;
                if self.releases == 0 {
                    self.max = 0.0;
                }
            }
            Some(history) => {
                let runs = &mut history.runs;
                let Some(at) = runs.iter().rposition(|run| run.epsilon.to_bits() == bits) else {
                    return false;
                };
                runs[at].count -= 1;
                if runs[at].count == 0 {
                    runs.remove(at);
                    // The runs either side may now hold the same ε: merge.
                    if at > 0
                        && at < runs.len()
                        && runs[at - 1].epsilon.to_bits() == runs[at].epsilon.to_bits()
                    {
                        runs[at - 1].count += runs.remove(at).count;
                    }
                }
                self.releases -= 1;
                if runs.len() == 1 {
                    self.max = runs[0].epsilon;
                    self.mixed = None;
                }
            }
        }
        self.replay();
        true
    }

    /// Rebuilds `sum`, `max` and the all-equal flag from the runs, in
    /// record order.
    fn replay(&mut self) {
        let lone;
        let runs: &[Run] = match &self.mixed {
            Some(history) => &history.runs,
            None => {
                lone = [Run {
                    epsilon: self.max,
                    count: self.releases,
                }];
                &lone
            }
        };
        let first = runs[0].epsilon;
        let (mut sum, mut max, mut all_equal) = (-0.0, 0.0f64, true);
        for run in runs {
            max = max.max(run.epsilon);
            all_equal &= within_tolerance(run.epsilon, first);
            for _ in 0..run.count {
                sum += run.epsilon;
            }
        }
        self.sum = sum;
        self.max = max;
        if let Some(history) = self.mixed.as_deref_mut() {
            history.all_equal = all_equal;
        }
    }

    /// Every recorded ε is numerically equal to the first one.
    fn all_equal(&self) -> bool {
        self.mixed.as_ref().is_none_or(|history| history.all_equal)
    }

    /// Number of recorded releases `K`.
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// The guarantee of Theorem 4.4 when all releases use the same epsilon:
    /// `Σ_k ε_k`. This is the bound to quote when the per-release budgets are
    /// identical.
    pub fn total_epsilon(&self) -> f64 {
        self.sum
    }

    /// The guarantee for heterogeneous budgets:
    /// `K · max_k ε_k` (the remark following Theorem 4.4).
    pub fn worst_case_epsilon(&self) -> f64 {
        self.max * self.releases as f64
    }

    /// The tightest guarantee supported by the theorem for the recorded
    /// sequence: the sum when all budgets are (numerically) equal, otherwise
    /// `K · max_k ε_k`.
    pub fn guaranteed_epsilon(&self) -> f64 {
        if self.releases == 0 {
            0.0
        } else if self.all_equal() {
            self.total_epsilon()
        } else {
            self.worst_case_epsilon()
        }
    }

    /// The guarantee the sequence *would* carry with one more release of
    /// `epsilon` appended — identical to cloning the accountant, recording,
    /// and asking [`CompositionAccountant::guaranteed_epsilon`], but in O(1)
    /// and without any allocation. This is the admission-control primitive:
    /// budget ledgers call it under a lock on every request.
    ///
    /// Values [`CompositionAccountant::record`] would ignore (non-positive,
    /// non-finite) leave the guarantee unchanged.
    pub fn guaranteed_epsilon_with(&self, epsilon: f64) -> f64 {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return self.guaranteed_epsilon();
        }
        let first = match &self.mixed {
            Some(history) => history.runs[0].epsilon,
            None if self.releases > 0 => self.max,
            None => epsilon,
        };
        if self.all_equal() && within_tolerance(epsilon, first) {
            self.total_epsilon() + epsilon
        } else {
            self.max.max(epsilon) * (self.releases + 1) as f64
        }
    }

    /// Remaining budget before a global target is exceeded (`None` once the
    /// target is exhausted).
    pub fn remaining(&self, target_epsilon: f64) -> Option<f64> {
        let spent = self.guaranteed_epsilon();
        if spent >= target_epsilon {
            None
        } else {
            Some(target_epsilon - spent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn homogeneous_composition_sums_epsilons() {
        let mut accountant = CompositionAccountant::new();
        for _ in 0..5 {
            accountant.record(0.2);
        }
        assert_eq!(accountant.releases(), 5);
        assert!(close(accountant.total_epsilon(), 1.0));
        assert!(close(accountant.worst_case_epsilon(), 1.0));
        assert!(close(accountant.guaranteed_epsilon(), 1.0));
    }

    #[test]
    fn heterogeneous_composition_uses_k_times_max() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.1);
        accountant.record(0.5);
        accountant.record(0.2);
        assert!(close(accountant.total_epsilon(), 0.8));
        assert!(close(accountant.worst_case_epsilon(), 1.5));
        assert!(close(accountant.guaranteed_epsilon(), 1.5));
    }

    #[test]
    fn invalid_records_are_ignored() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.0);
        accountant.record(-1.0);
        accountant.record(f64::NAN);
        accountant.record(f64::INFINITY);
        assert_eq!(accountant.releases(), 0);
        assert!(close(accountant.guaranteed_epsilon(), 0.0));
    }

    #[test]
    fn remaining_budget() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.4);
        accountant.record(0.4);
        assert!(close(accountant.remaining(1.0).unwrap(), 0.2));
        accountant.record(0.4);
        assert!(accountant.remaining(1.0).is_none());
        assert!(accountant.remaining(1.2).is_none());
        assert!(accountant.remaining(2.0).is_some());
    }

    #[test]
    fn guaranteed_epsilon_with_matches_record() {
        // The allocation-free preview must agree with clone + record on
        // homogeneous, heterogeneous, empty and max-changing sequences.
        let histories: [&[f64]; 4] = [&[], &[0.2, 0.2], &[0.1, 0.5], &[0.5, 0.1]];
        for history in histories {
            for extra in [0.05, 0.1, 0.2, 0.5, 0.9] {
                let mut accountant = CompositionAccountant::new();
                for &e in history {
                    accountant.record(e);
                }
                let preview = accountant.guaranteed_epsilon_with(extra);
                accountant.record(extra);
                assert!(
                    close(preview, accountant.guaranteed_epsilon()),
                    "history {history:?} + {extra}: preview {preview} vs {}",
                    accountant.guaranteed_epsilon()
                );
            }
        }
        // Ignored values leave the guarantee unchanged, matching record().
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.3);
        assert!(close(accountant.guaranteed_epsilon_with(-1.0), 0.3));
        assert!(close(accountant.guaranteed_epsilon_with(f64::NAN), 0.3));
    }

    #[test]
    fn unrecord_rolls_back_a_spend() {
        let mut accountant = CompositionAccountant::new();
        accountant.record(0.2);
        accountant.record(0.5);
        assert!(accountant.unrecord(0.5));
        assert_eq!(accountant.releases(), 1);
        assert!(close(accountant.guaranteed_epsilon(), 0.2));
        // Only exact (bitwise) matches are removable; misses change nothing.
        assert!(!accountant.unrecord(0.3));
        assert!(!accountant.unrecord(0.5));
        assert_eq!(accountant.releases(), 1);
        // Duplicates are removed one at a time, most recent first.
        accountant.record(0.2);
        assert!(accountant.unrecord(0.2));
        assert!(accountant.unrecord(0.2));
        assert_eq!(accountant.releases(), 0);
    }

    /// The accountant as it was before it kept running aggregates: the full
    /// history in a `Vec`, rescanned on every query. The reference the
    /// O(1) state must match bit for bit.
    #[derive(Default)]
    struct Model {
        epsilons: Vec<f64>,
    }

    impl Model {
        fn record(&mut self, epsilon: f64) {
            if epsilon.is_finite() && epsilon > 0.0 {
                self.epsilons.push(epsilon);
            }
        }

        fn unrecord(&mut self, epsilon: f64) -> bool {
            match self
                .epsilons
                .iter()
                .rposition(|&e| e.to_bits() == epsilon.to_bits())
            {
                Some(position) => {
                    self.epsilons.remove(position);
                    true
                }
                None => false,
            }
        }

        fn total_epsilon(&self) -> f64 {
            self.epsilons.iter().sum()
        }

        fn worst_case_epsilon(&self) -> f64 {
            let max = self.epsilons.iter().fold(0.0f64, |acc, &e| acc.max(e));
            max * self.epsilons.len() as f64
        }

        fn guaranteed_epsilon(&self) -> f64 {
            if self.epsilons.is_empty() {
                return 0.0;
            }
            let first = self.epsilons[0];
            let all_equal = self
                .epsilons
                .iter()
                .all(|&e| (e - first).abs() < 1e-12 * first.max(1.0));
            if all_equal {
                self.total_epsilon()
            } else {
                self.worst_case_epsilon()
            }
        }

        fn guaranteed_epsilon_with(&self, epsilon: f64) -> f64 {
            if !epsilon.is_finite() || epsilon <= 0.0 {
                return self.guaranteed_epsilon();
            }
            let first = self.epsilons.first().copied().unwrap_or(epsilon);
            let tolerance = 1e-12 * first.max(1.0);
            let all_equal = (epsilon - first).abs() < tolerance
                && self.epsilons.iter().all(|&e| (e - first).abs() < tolerance);
            if all_equal {
                self.total_epsilon() + epsilon
            } else {
                let max = self.epsilons.iter().fold(epsilon, |acc, &e| acc.max(e));
                max * (self.epsilons.len() + 1) as f64
            }
        }
    }

    fn assert_agrees(
        accountant: &CompositionAccountant,
        model: &Model,
        probes: &[f64],
        step: &str,
    ) {
        let bits = |x: f64| x.to_bits();
        assert_eq!(accountant.releases(), model.epsilons.len(), "{step}");
        assert_eq!(
            bits(accountant.total_epsilon()),
            bits(model.total_epsilon()),
            "{step}: total"
        );
        assert_eq!(
            bits(accountant.worst_case_epsilon()),
            bits(model.worst_case_epsilon()),
            "{step}: worst case"
        );
        assert_eq!(
            bits(accountant.guaranteed_epsilon()),
            bits(model.guaranteed_epsilon()),
            "{step}: guaranteed"
        );
        for &probe in probes {
            assert_eq!(
                bits(accountant.guaranteed_epsilon_with(probe)),
                bits(model.guaranteed_epsilon_with(probe)),
                "{step}: with {probe:e}"
            );
        }
    }

    #[test]
    fn running_state_matches_the_vec_model_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Near-equal values sit just inside (1e-13) and just outside
        // (2e-12, relative to max(first, 1)) the homogeneity tolerance.
        let base = 0.1;
        let palette = [
            base,
            base + 1e-13,
            base - 1e-13,
            base + 2e-12,
            base - 2e-12,
            0.5,
            0.2,
            1.5,
            1.5 + 1e-12,
            3.0,
            1e-3,
            -1.0,
            0.0,
            f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..400 {
            // Each trial draws from a few palette entries, so runs form and
            // refunds hit both present and absent values.
            let width = rng.gen_range(1..=5usize);
            let offset = rng.gen_range(0..palette.len());
            let pick =
                |rng: &mut StdRng| palette[(offset + rng.gen_range(0..width)) % palette.len()];
            let mut accountant = CompositionAccountant::new();
            let mut model = Model::default();
            for step in 0..rng.gen_range(1..80usize) {
                let epsilon = pick(&mut rng);
                let label = format!("trial {trial} step {step}");
                if rng.gen_bool(0.35) {
                    // Mostly refund a recorded value (not necessarily the
                    // last one), sometimes one that is absent.
                    let refund = if !model.epsilons.is_empty() && rng.gen_bool(0.7) {
                        model.epsilons[rng.gen_range(0..model.epsilons.len())]
                    } else {
                        epsilon
                    };
                    assert_eq!(
                        accountant.unrecord(refund),
                        model.unrecord(refund),
                        "{label}"
                    );
                } else {
                    accountant.record(epsilon);
                    model.record(epsilon);
                }
                assert_agrees(&accountant, &model, &palette, &label);
                // Cloning carries the whole state.
                assert_agrees(&accountant.clone(), &model, &[epsilon], &label);
            }
            // Drain by refunds: the emptied accountant matches a fresh
            // model (`total_epsilon` is `-0.0`, as an empty `sum` is).
            while let Some(&last) = model.epsilons.first() {
                assert!(accountant.unrecord(last) && model.unrecord(last));
                assert_agrees(
                    &accountant,
                    &model,
                    &palette,
                    &format!("trial {trial} drain"),
                );
            }
        }
        let empty = CompositionAccountant::new();
        assert_eq!(
            empty.total_epsilon().to_bits(),
            Model::default().total_epsilon().to_bits()
        );
    }

    #[test]
    fn one_run_stays_inline_in_four_words() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<CompositionAccountant>(),
            2 * size_of::<usize>() + 2 * size_of::<f64>()
        );
        let mut accountant = CompositionAccountant::new();
        for _ in 0..3 {
            accountant.record(0.1);
        }
        assert!(accountant.mixed.is_none(), "one ε: no run list");
        accountant.record(0.2);
        accountant.record(0.1);
        assert_eq!(accountant.mixed.as_ref().unwrap().runs.len(), 3);
        // Refunding the middle run merges its neighbours back into one run.
        assert!(accountant.unrecord(0.2));
        assert!(accountant.mixed.is_none(), "back to one run");
        assert_eq!(accountant.releases(), 4);
    }

    #[test]
    fn empty_accountant() {
        let accountant = CompositionAccountant::new();
        assert_eq!(accountant.releases(), 0);
        assert!(close(accountant.guaranteed_epsilon(), 0.0));
        assert!(close(accountant.remaining(1.0).unwrap(), 1.0));
    }
}
