//! The Laplace distribution, the noise primitive of every mechanism in the
//! paper.

use rand::Rng;

use crate::{PufferfishError, Result};

/// A zero-mean Laplace distribution `Lap(scale)` with density
/// `h(x) = exp(-|x|/scale) / (2 scale)` (Section 2.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with the given scale parameter.
    ///
    /// # Errors
    /// [`PufferfishError::CannotCalibrate`] when the scale is negative, zero
    /// or non-finite — mechanisms never legitimately produce such scales.
    pub fn new(scale: f64) -> Result<Self> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(PufferfishError::CannotCalibrate(format!(
                "Laplace scale must be positive and finite, got {scale}"
            )));
        }
        Ok(Laplace { scale })
    }

    /// The scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The standard deviation (`b * sqrt(2)`).
    pub fn std_dev(&self) -> f64 {
        self.scale * std::f64::consts::SQRT_2
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-x.abs() / self.scale).exp() / (2.0 * self.scale)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.scale).exp()
        } else {
            1.0 - 0.5 * (-x / self.scale).exp()
        }
    }

    /// Draws one sample via inverse-CDF sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u uniform in (-0.5, 0.5]; the sign of u picks the tail.
        let u: f64 = rng.gen::<f64>() - 0.5;
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Fills `out` with independent samples via a two-pass, branch-free
    /// batched inverse-CDF transform.
    ///
    /// Pass one pre-draws `out.len()` uniforms into the slice (one
    /// `gen::<f64>()` each — exactly the stream [`Laplace::sample`]
    /// consumes); pass two transforms them in place. The result is
    /// **bitwise-identical** to calling [`Laplace::sample`] `out.len()`
    /// times on the same rng, which is what lets the query executor compute
    /// per-morsel rng offsets as `windows × dimension` draws up front.
    pub fn sample_into<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        for slot in out.iter_mut() {
            *slot = rng.gen::<f64>();
        }
        for slot in out.iter_mut() {
            // u uniform in (-0.5, 0.5]; the sign of u picks the tail.
            let u = *slot - 0.5;
            *slot = -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln();
        }
    }
}

/// Certified simultaneous error bound for a `dims`-coordinate release with
/// independent `Lap(scale)` noise per coordinate.
///
/// Each coordinate exceeds `t` in absolute value with probability
/// `exp(-t/scale)` (the two-sided Laplace tail), so by the union bound all
/// `dims` coordinates stay within `scale · ln(dims / (1 − confidence))`
/// simultaneously with probability at least `confidence`. This is the bound
/// a progressive release attaches to every refinement step: it certifies
/// the *noise* error (true prefix value vs released value), which is the
/// only error the mechanism controls.
///
/// # Errors
/// [`PufferfishError::CannotCalibrate`] when `scale` is not positive and
/// finite, `dims` is zero, or `confidence` is outside `(0, 1)`.
pub fn laplace_error_bound(scale: f64, dims: usize, confidence: f64) -> Result<f64> {
    if !scale.is_finite() || scale <= 0.0 {
        return Err(PufferfishError::CannotCalibrate(format!(
            "certified error bound needs a positive finite scale, got {scale}"
        )));
    }
    if dims == 0 {
        return Err(PufferfishError::CannotCalibrate(
            "certified error bound needs at least one coordinate".to_string(),
        ));
    }
    if !confidence.is_finite() || confidence <= 0.0 || confidence >= 1.0 {
        return Err(PufferfishError::CannotCalibrate(format!(
            "certified error bound confidence must lie in (0, 1), got {confidence}"
        )));
    }
    Ok(scale * (dims as f64 / (1.0 - confidence)).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_scale() {
        assert!(Laplace::new(1.0).is_ok());
        assert!(Laplace::new(0.0).is_err());
        assert!(Laplace::new(-2.0).is_err());
        assert!(Laplace::new(f64::NAN).is_err());
        assert!(Laplace::new(f64::INFINITY).is_err());
    }

    #[test]
    fn density_and_cdf_basic_identities() {
        let lap = Laplace::new(2.0).unwrap();
        assert_eq!(lap.scale(), 2.0);
        assert!((lap.std_dev() - 2.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
        // Density is symmetric and maximal at zero.
        assert!((lap.pdf(1.0) - lap.pdf(-1.0)).abs() < 1e-12);
        assert!(lap.pdf(0.0) > lap.pdf(0.5));
        assert!((lap.pdf(0.0) - 0.25).abs() < 1e-12);
        // CDF: median at zero, symmetric tails.
        assert!((lap.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((lap.cdf(10.0) + lap.cdf(-10.0) - 1.0).abs() < 1e-9);
        assert!(lap.cdf(-1.0) < lap.cdf(1.0));
    }

    #[test]
    fn samples_match_theoretical_moments() {
        let lap = Laplace::new(3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(123);
        let n = 200_000;
        let mut samples = vec![0.0; n];
        lap.sample_into(&mut samples, &mut rng);
        assert_eq!(samples.len(), n);
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        // Mean 0, variance 2 b^2 = 18.
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 18.0).abs() < 0.5, "variance {var}");
        // Median close to zero: about half the samples are negative.
        let negative = samples.iter().filter(|&&x| x < 0.0).count() as f64 / n as f64;
        assert!((negative - 0.5).abs() < 0.01);
    }

    #[test]
    fn empirical_cdf_matches_analytic_cdf() {
        let lap = Laplace::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut samples = vec![0.0; n];
        lap.sample_into(&mut samples, &mut rng);
        for threshold in [-2.0, -0.5, 0.0, 0.5, 2.0] {
            let empirical = samples.iter().filter(|&&x| x <= threshold).count() as f64 / n as f64;
            assert!(
                (empirical - lap.cdf(threshold)).abs() < 0.01,
                "threshold {threshold}: empirical {empirical}, analytic {}",
                lap.cdf(threshold)
            );
        }
    }

    #[test]
    fn sample_into_is_bitwise_identical_to_repeated_sample() {
        // The batched executor relies on this exactly: a window of n draws
        // via `sample_into` consumes the same rng stream and produces the
        // same bits as n scalar `sample` calls.
        let lap = Laplace::new(0.7).unwrap();
        for n in [0, 1, 2, 7, 64, 257] {
            let mut scalar_rng = StdRng::seed_from_u64(99);
            let scalar: Vec<f64> = (0..n).map(|_| lap.sample(&mut scalar_rng)).collect();
            let mut batched_rng = StdRng::seed_from_u64(99);
            let mut batched = vec![0.0; n];
            lap.sample_into(&mut batched, &mut batched_rng);
            for (a, b) in scalar.iter().zip(&batched) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Both rngs ended at the same stream position.
            assert_eq!(
                lap.sample(&mut scalar_rng).to_bits(),
                lap.sample(&mut batched_rng).to_bits()
            );
        }
    }

    #[test]
    fn error_bound_is_the_union_tail_and_validates_inputs() {
        // One coordinate at 95%: b · ln(20).
        let one = laplace_error_bound(2.0, 1, 0.95).unwrap();
        assert!((one - 2.0 * 20.0f64.ln()).abs() < 1e-12);
        // More coordinates or more confidence only widen the bound.
        assert!(laplace_error_bound(2.0, 4, 0.95).unwrap() > one);
        assert!(laplace_error_bound(2.0, 1, 0.99).unwrap() > one);
        // The bound actually covers the tail: P(|X| > bound) = (1-conf)/d.
        let lap = Laplace::new(2.0).unwrap();
        let miss = 1.0 - (lap.cdf(one) - lap.cdf(-one));
        assert!((miss - 0.05).abs() < 1e-12, "tail mass {miss}");
        // Invalid inputs are typed errors, never NaN bounds.
        assert!(laplace_error_bound(0.0, 1, 0.9).is_err());
        assert!(laplace_error_bound(f64::NAN, 1, 0.9).is_err());
        assert!(laplace_error_bound(1.0, 0, 0.9).is_err());
        assert!(laplace_error_bound(1.0, 1, 0.0).is_err());
        assert!(laplace_error_bound(1.0, 1, 1.0).is_err());
    }

    #[test]
    fn ratio_of_densities_bounded_by_shift_over_scale() {
        // The property the privacy proofs rely on:
        // pdf(x) / pdf(x + delta) <= exp(|delta| / scale).
        let lap = Laplace::new(2.0).unwrap();
        for x in [-3.0, -1.0, 0.0, 0.7, 2.5] {
            for delta in [-1.5, -0.3, 0.4, 1.0] {
                let ratio = lap.pdf(x) / lap.pdf(x + delta);
                assert!(ratio <= (delta.abs() / 2.0).exp() + 1e-12);
            }
        }
    }
}
