//! Shared mechanism plumbing: the unified [`Mechanism`] trait, privacy
//! budgets and noisy releases.

use rand::RngCore;

use crate::queries::LipschitzQuery;
use crate::{Laplace, PufferfishError, Result};

/// A validated privacy parameter `epsilon > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    epsilon: f64,
}

impl PrivacyBudget {
    /// Creates a budget with the given epsilon.
    ///
    /// # Errors
    /// [`PufferfishError::InvalidEpsilon`] unless `epsilon` is positive and
    /// finite.
    pub fn new(epsilon: f64) -> Result<Self> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(PufferfishError::InvalidEpsilon(epsilon));
        }
        Ok(PrivacyBudget { epsilon })
    }

    /// The epsilon value.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

/// The unified, object-safe interface every calibrated Pufferfish mechanism
/// (and every baseline) exposes.
///
/// A `Mechanism` is the *output* of calibration: it knows its privacy
/// parameter, how much Laplace noise any [`LipschitzQuery`] needs, and how to
/// release query answers over state-sequence databases. Calibration itself
/// stays on the concrete types (each family consumes different inputs — a
/// [`DiscretePufferfishFramework`](crate::DiscretePufferfishFramework), a
/// [`MarkovChainClass`](pufferfish_markov::MarkovChainClass), a network
/// class); the [`engine`](crate::engine) module erases that difference behind
/// [`Calibrator`](crate::engine::Calibrator) objects and caches the results.
///
/// Implementors: [`WassersteinMechanism`](crate::WassersteinMechanism),
/// [`MarkovQuiltMechanism`](crate::MarkovQuiltMechanism),
/// [`MqmExact`](crate::MqmExact), [`MqmApprox`](crate::MqmApprox) and the
/// three baselines in `pufferfish-baselines` (`EntryDp`, `GroupDp`, `Gk16`).
///
/// The trait is object-safe: releases draw randomness through
/// `&mut dyn RngCore`, so `Box<dyn Mechanism>` works as a uniform handle in
/// engines, benches and tests. (The concrete types additionally keep their
/// historical generic `release<R: Rng>` inherent methods, which forward the
/// same logic.)
pub trait Mechanism: Send + Sync {
    /// A short stable name ("wasserstein", "mqm-exact", …) used in reports
    /// and cache diagnostics.
    fn name(&self) -> &'static str;

    /// The privacy parameter ε the mechanism was calibrated for.
    fn epsilon(&self) -> f64;

    /// The Laplace scale applied to each coordinate of `query`.
    fn noise_scale_for(&self, query: &dyn LipschitzQuery) -> f64;

    /// Checks a database against the calibration (length, state range, …).
    ///
    /// # Errors
    /// [`PufferfishError::InvalidDatabase`] on mismatch.
    fn validate(&self, query: &dyn LipschitzQuery, database: &[usize]) -> Result<()>;

    /// Evaluates `query` on `database` and adds calibrated Laplace noise.
    ///
    /// A zero noise scale (possible only when the calibrated distance/query
    /// sensitivity is zero) releases the exact value.
    ///
    /// # Errors
    /// Validation and query-evaluation errors are propagated.
    fn release(
        &self,
        query: &dyn LipschitzQuery,
        database: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<NoisyRelease> {
        self.validate(query, database)?;
        let true_values = query.evaluate(database)?;
        let scale = self.noise_scale_for(query);
        let values = if scale > 0.0 {
            let laplace = Laplace::new(scale)?;
            let mut noise = vec![0.0; true_values.len()];
            laplace.sample_into(&mut noise, rng);
            true_values.iter().zip(&noise).map(|(v, n)| v + n).collect()
        } else {
            true_values.clone()
        };
        Ok(NoisyRelease {
            values,
            true_values,
            scale,
        })
    }

    /// Releases the same query over a batch of *borrowed* databases — the
    /// hot path the morsel executor calls with windows sliced straight out of
    /// a columnar batch, no per-window materialization.
    ///
    /// The noise scale and the Laplace distribution are hoisted out of the
    /// loop and a single noise buffer is refilled per window via
    /// [`Laplace::sample_into`]. Each window consumes exactly `dimension`
    /// draws in window order, so the noise stream — and therefore every
    /// released bit — matches a sequence of scalar [`Mechanism::release`]
    /// calls on the same rng.
    ///
    /// # Errors
    /// Fails on the first database that fails validation or evaluation.
    fn release_batch_refs(
        &self,
        query: &dyn LipschitzQuery,
        databases: &[&[usize]],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<NoisyRelease>> {
        let scale = self.noise_scale_for(query);
        let laplace = if scale > 0.0 {
            Some(Laplace::new(scale)?)
        } else {
            None
        };
        let mut noise: Vec<f64> = Vec::new();
        databases
            .iter()
            .map(|&database| {
                self.validate(query, database)?;
                let true_values = query.evaluate(database)?;
                let values = match &laplace {
                    Some(laplace) => {
                        noise.resize(true_values.len(), 0.0);
                        laplace.sample_into(&mut noise, rng);
                        true_values.iter().zip(&noise).map(|(v, n)| v + n).collect()
                    }
                    None => true_values.clone(),
                };
                Ok(NoisyRelease {
                    values,
                    true_values,
                    scale,
                })
            })
            .collect()
    }

    /// The mechanism's serializable, release-relevant state — what a
    /// [`CalibrationSnapshot`](crate::CalibrationSnapshot) persists.
    ///
    /// `None` (the default) opts the mechanism out of snapshotting:
    /// [`ReleaseEngine::export_snapshot`](crate::ReleaseEngine::export_snapshot)
    /// skips such cache entries. Implementors must return a state whose
    /// [`restore`](crate::snapshot::MechanismState::restore) produces
    /// bitwise-identical releases — the round-trip suite in
    /// `tests/snapshot_roundtrip.rs` enforces this for every built-in
    /// family.
    fn snapshot_state(&self) -> Option<crate::snapshot::MechanismState> {
        None
    }
}

/// The output of a privacy mechanism: the noisy values together with the
/// exact values and the Laplace scale that was used (useful for utility
/// accounting in experiments; a deployment would publish only `values`).
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyRelease {
    /// The privatised query answers.
    pub values: Vec<f64>,
    /// The exact (non-private) query answers, retained for error measurement.
    pub true_values: Vec<f64>,
    /// Laplace scale applied to each coordinate.
    pub scale: f64,
}

impl NoisyRelease {
    /// L1 error between the noisy and exact values.
    pub fn l1_error(&self) -> f64 {
        l1_error(&self.values, &self.true_values)
    }

    /// L-infinity error between the noisy and exact values.
    pub fn linf_error(&self) -> f64 {
        self.values
            .iter()
            .zip(&self.true_values)
            .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
    }
}

/// L1 distance between two equal-length value vectors.
///
/// # Panics
/// Panics when the slices have different lengths — a programming error in the
/// harness, not a data error.
pub fn l1_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l1_error requires equal-length slices");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Validates that a database has the length `query` expects — the shared
/// [`Mechanism::validate`] implementation for mechanisms that do not pin a
/// state-space size at calibration time (the Wasserstein Mechanism and the
/// baselines; the Markov Quilt families additionally check the state range).
///
/// # Errors
/// [`PufferfishError::InvalidDatabase`] on length mismatch.
pub fn validate_query_length(query: &dyn LipschitzQuery, database: &[usize]) -> Result<()> {
    if database.len() != query.expected_length() {
        return Err(PufferfishError::InvalidDatabase(format!(
            "database has length {}, query expects {}",
            database.len(),
            query.expected_length()
        )));
    }
    Ok(())
}

/// Validates that a database consists of states `< num_states` and has the
/// expected length.
pub(crate) fn validate_database(
    database: &[usize],
    expected_len: usize,
    num_states: usize,
) -> Result<()> {
    if database.len() != expected_len {
        return Err(PufferfishError::InvalidDatabase(format!(
            "database has length {}, mechanism was calibrated for {expected_len}",
            database.len()
        )));
    }
    if let Some(&bad) = database.iter().find(|&&s| s >= num_states) {
        return Err(PufferfishError::InvalidDatabase(format!(
            "state {bad} out of range for {num_states} states"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_validation() {
        assert!(PrivacyBudget::new(1.0).is_ok());
        assert_eq!(PrivacyBudget::new(0.2).unwrap().epsilon(), 0.2);
        assert!(matches!(
            PrivacyBudget::new(0.0),
            Err(PufferfishError::InvalidEpsilon(_))
        ));
        assert!(PrivacyBudget::new(-1.0).is_err());
        assert!(PrivacyBudget::new(f64::INFINITY).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());
    }

    #[test]
    fn release_error_metrics() {
        let release = NoisyRelease {
            values: vec![1.0, 2.0, 3.5],
            true_values: vec![1.0, 1.0, 3.0],
            scale: 0.5,
        };
        assert!((release.l1_error() - 1.5).abs() < 1e-12);
        assert!((release.linf_error() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_error_helper() {
        assert_eq!(l1_error(&[0.0, 1.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn l1_error_panics_on_length_mismatch() {
        l1_error(&[0.0], &[1.0, 2.0]);
    }

    #[test]
    fn database_validation() {
        assert!(validate_database(&[0, 1, 2], 3, 3).is_ok());
        assert!(matches!(
            validate_database(&[0, 1], 3, 3),
            Err(PufferfishError::InvalidDatabase(_))
        ));
        assert!(matches!(
            validate_database(&[0, 5, 2], 3, 3),
            Err(PufferfishError::InvalidDatabase(_))
        ));
    }
}
