//! Convergence diagnostics for MCMC chains.
//!
//! The paper motivates thinning (§4.1: "consecutive samples in MH are highly
//! dependent") and parallel chains (§5.4: cross-chain samples are more
//! independent, hence super-linear error reduction). These diagnostics
//! quantify both effects and back the ablation experiments:
//!
//! * [`autocorrelation`] — within-chain sample dependence at a given lag;
//! * [`effective_sample_size`] — how many independent samples a correlated
//!   chain is worth (the reason thinning with k = 10 000 is sensible);
//! * [`gelman_rubin`] — the potential scale reduction factor R̂ across
//!   parallel chains (≈ 1 at convergence);
//! * [`split_r_hat_runs`] / [`gelman_rubin_runs`] /
//!   [`effective_sample_size_runs`] — split-R̂, cross-chain R̂ and ESS for
//!   0/1 traces given as their runs of ones, computed from run boundaries
//!   in integer arithmetic without materialising a trace. These are what
//!   production runs: per toggled answer tuple, in a serving epoch and at
//!   every multi-chain checkpoint. The dense functions above are the
//!   reference estimators they are tested against.

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance (unbiased, n−1 denominator).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Lag-`k` autocorrelation of a chain trace. Returns 0 for degenerate
/// (constant or too-short) traces.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m).powi(2)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let num: f64 = xs.windows(lag + 1).map(|w| (w[0] - m) * (w[lag] - m)).sum();
    num / denom
}

/// Effective sample size via the initial-positive-sequence estimator:
/// `ESS = n / (1 + 2 Σ ρₖ)`, truncating the sum at the first non-positive
/// even-pair, capped to `n`.
///
/// Degenerate inputs stay finite by construction: traces shorter than four
/// samples report their own length, and constant series (autocorrelation
/// defined as 0, see [`autocorrelation`]) report `n` — never NaN.
pub fn effective_sample_size(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 4 {
        return n as f64;
    }
    let mut rho_sum = 0.0;
    let mut k = 1;
    while k + 1 < n {
        let pair = autocorrelation(xs, k) + autocorrelation(xs, k + 1);
        if pair <= 0.0 {
            break;
        }
        rho_sum += pair;
        k += 2;
    }
    (n as f64 / (1.0 + 2.0 * rho_sum)).min(n as f64)
}

/// R̂ reported when every chain is frozen (zero within-chain variance) but
/// the chains disagree — e.g. a tuple permanently in one chain's answer and
/// never in another's. The statistic's limit is +∞; a *finite* documented
/// sentinel keeps downstream arithmetic, thresholds, and JSON reports
/// NaN/inf-free while still failing every sane convergence gate
/// (thresholds live near 1).
pub const R_HAT_DIVERGED: f64 = 1.0e12;

/// Gelman–Rubin potential scale reduction factor R̂ over ≥ 2 chains of equal
/// length. Values close to 1 indicate the chains have mixed. Accepts any
/// slice-like traces (`Vec<f64>` or `&[f64]`).
///
/// Degenerate inputs return finite, documented values instead of NaN:
///
/// * traces shorter than 2 samples → `1.0` (no within-chain information
///   yet; convergence gates must additionally impose a minimum sample
///   count, as the parallel engine's `min_samples` does);
/// * all chains constant and identical → `1.0` (already agreeing);
/// * all chains constant but disagreeing → [`R_HAT_DIVERGED`].
///
/// # Panics
/// Panics with fewer than two chains or mismatched trace lengths (caller
/// bugs, not data degeneracies).
pub fn gelman_rubin<S: AsRef<[f64]>>(chains: &[S]) -> f64 {
    assert!(chains.len() >= 2, "R̂ needs at least two chains");
    let n = chains[0].as_ref().len();
    assert!(
        chains.iter().all(|c| c.as_ref().len() == n),
        "unequal chain lengths"
    );
    if n < 2 {
        return 1.0; // no within-chain variance is defined yet
    }

    let chain_means: Vec<f64> = chains.iter().map(|c| mean(c.as_ref())).collect();
    // Within-chain variance.
    let w = chains.iter().map(|c| variance(c.as_ref())).sum::<f64>() / chains.len() as f64;
    r_hat_from_moments(n as f64, chain_means.iter().copied(), w)
}

/// R̂ of chains of `n` samples each from their means and the mean
/// within-chain variance `w` — the part of [`gelman_rubin`] that does not
/// look at the traces.
fn r_hat_from_moments(
    n: f64,
    chain_means: impl ExactSizeIterator<Item = f64> + Clone,
    w: f64,
) -> f64 {
    let m = chain_means.len() as f64;
    let grand = chain_means.clone().sum::<f64>() / m;
    // Between-chain variance.
    let b = n / (m - 1.0) * chain_means.map(|cm| (cm - grand).powi(2)).sum::<f64>();
    if w == 0.0 {
        // All chains constant: identical means → converged; different
        // means → frozen disagreement (the statistic's limit is +∞).
        return if b == 0.0 { 1.0 } else { R_HAT_DIVERGED };
    }
    let var_plus = (n - 1.0) / n * w + b / n;
    (var_plus / w).sqrt()
}

/// Split-chain R̂ of a *single* trace: the first and second halves are
/// compared as if they were independent chains (Gelman et al.'s split-R̂),
/// detecting trends and slow drift that a one-chain run would otherwise
/// hide. This is how a 1-chain parallel-engine run still gets a
/// convergence gate. Traces shorter than 4 samples return the neutral `1.0`
/// (documented, finite; see [`gelman_rubin`] for the degenerate-input
/// contract).
pub fn split_r_hat(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return 1.0;
    }
    let half = xs.len() / 2;
    // With odd lengths the middle sample is dropped, keeping halves equal.
    gelman_rubin(&[&xs[..half], &xs[xs.len() - half..]])
}

/// Ones of a 0/1 trace inside the index range `lo..hi`, the trace given as
/// its runs of ones.
fn ones_within(ones: &[(usize, usize)], lo: usize, hi: usize) -> usize {
    ones.iter()
        .map(|&(a, b)| b.min(hi).saturating_sub(a.max(lo)))
        .sum()
}

/// [`split_r_hat`] of the 0/1 trace of length `len` whose ones are exactly
/// the half-open index runs `ones` (sorted, pairwise disjoint, inside
/// `0..len`), without materialising the trace: each half's mean and
/// variance follow from how many ones it holds. Same degenerate-input
/// contract as the dense function, sentinels bit for bit; other values
/// agree to rounding (the half-window variance is formed from an integer
/// here and from a sum of squares there).
pub fn split_r_hat_runs(len: usize, ones: &[(usize, usize)]) -> f64 {
    if len < 4 {
        return 1.0;
    }
    let half = len / 2;
    let counts = [
        ones_within(ones, 0, half),
        ones_within(ones, len - half, len),
    ];
    r_hat_of_counts(half, counts.into_iter())
}

/// [`gelman_rubin`] of 0/1 chains of `len` samples each, every chain given
/// as its runs of ones (as for [`split_r_hat_runs`]), without materialising
/// the traces: each chain's mean and variance follow from how many ones it
/// holds. Same degenerate-input contract as the dense function, sentinels
/// bit for bit; other values agree to rounding.
///
/// # Panics
/// Panics with fewer than two chains.
pub fn gelman_rubin_runs<S: AsRef<[(usize, usize)]>>(len: usize, chains: &[S]) -> f64 {
    assert!(chains.len() >= 2, "R̂ needs at least two chains");
    if len < 2 {
        return 1.0;
    }
    r_hat_of_counts(
        len,
        chains.iter().map(|ones| ones_within(ones.as_ref(), 0, len)),
    )
}

/// R̂ of 0/1 chains of `n ≥ 2` samples each, holding `counts` ones.
fn r_hat_of_counts(n: usize, counts: impl ExactSizeIterator<Item = usize> + Clone) -> f64 {
    let (nf, m) = (n as f64, counts.len() as f64);
    // Σ(x − mean)² of a 0/1 chain holding c ones among n samples is
    // c(n − c)/n — zero exactly when the chain is constant — and its mean
    // is c/n.
    let w = counts
        .clone()
        .map(|c| (c * (n - c)) as f64 / (nf * (nf - 1.0)))
        .sum::<f64>()
        / m;
    r_hat_from_moments(nf, counts.map(|c| c as f64 / nf), w)
}

/// `len² ×` the lag-`lag` autocovariance sum Σᵢ (xᵢ − m)(xᵢ₊ₗₐ₉ − m) of a
/// 0/1 trace with `c` ones, as an exact integer: with S the number of index
/// pairs `(i, i + lag)` that are both one and A / B the ones among the first
/// / last `len − lag` samples, the sum is `S − m(A + B) + (len − lag)m²`
/// with `m = c / len`. S is a sum of interval overlaps over pairs of runs.
fn lagged_covariance_scaled(len: usize, ones: &[(usize, usize)], c: usize, lag: usize) -> i128 {
    let mut both = 0usize;
    for (i, &(a, b)) in ones.iter().enumerate() {
        // Partners of this run's samples lie in `a + lag..b + lag`; runs are
        // sorted, so the first one starting past that range ends the scan.
        for &(a2, b2) in &ones[i..] {
            if a2 >= b + lag {
                break;
            }
            both += b2.min(b + lag).saturating_sub(a2.max(a + lag));
        }
    }
    let (n, c) = (len as i128, c as i128);
    let edges = (ones_within(ones, 0, len - lag) + ones_within(ones, lag, len)) as i128;
    n * n * both as i128 - n * c * edges + (len - lag) as i128 * c * c
}

/// [`effective_sample_size`] of the 0/1 trace of length `len` whose ones are
/// exactly the runs `ones` (as for [`split_r_hat_runs`]), without
/// materialising the trace. Every autocorrelation is a ratio of integers
/// obtained from run boundaries in O(runs²), so the truncation point of the
/// initial-positive-sequence sum is decided exactly; short and constant
/// traces report `len`, as the dense function does.
///
/// The one place the two can differ by more than rounding is a truncation
/// tie: a lag pair whose autocorrelations cancel exactly is `0` here and
/// ends the sum, while the dense f64 sum yields ±1e-17 and, when that lands
/// positive, runs on to a later truncation point (about one random trace in
/// 30 000). This function then equals the dense estimator with that noise
/// cut off (`pair <= 1e-12`), not the dense value as computed.
pub fn effective_sample_size_runs(len: usize, ones: &[(usize, usize)]) -> f64 {
    let n = len as f64;
    let c = ones_within(ones, 0, len);
    if len < 4 || c == 0 || c == len {
        return n;
    }
    // ρₖ = covₖ·len² / (len² · Σ(x − m)²) and Σ(x − m)² = c(len − c)/len.
    let scale = n * c as f64 * (len - c) as f64;
    // As in `autocorrelation`: the last lag has a single term and counts 0.
    let rho_scaled = |lag: usize| {
        if len <= lag + 1 {
            0
        } else {
            lagged_covariance_scaled(len, ones, c, lag)
        }
    };
    let mut rho_sum = 0.0;
    let mut k = 1;
    while k + 1 < len {
        let pair = rho_scaled(k) + rho_scaled(k + 1);
        if pair <= 0 {
            break;
        }
        rho_sum += pair as f64 / scale;
        k += 2;
    }
    (n / (1.0 + 2.0 * rho_sum)).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(variance(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn iid_samples_have_low_autocorrelation() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>()).collect();
        assert!(autocorrelation(&xs, 1).abs() < 0.05);
        let ess = effective_sample_size(&xs);
        assert!(ess > 3000.0, "iid ESS ≈ n, got {ess}");
    }

    #[test]
    fn sticky_chain_has_high_autocorrelation_and_low_ess() {
        // AR(1) with coefficient 0.95.
        let mut rng = StdRng::seed_from_u64(2);
        let mut xs = vec![0.0f64];
        for _ in 0..5000 {
            let prev = *xs.last().unwrap();
            xs.push(0.95 * prev + rng.gen::<f64>() - 0.5);
        }
        assert!(autocorrelation(&xs, 1) > 0.8);
        let ess = effective_sample_size(&xs);
        assert!(ess < 500.0, "sticky chain ESS should collapse, got {ess}");
    }

    #[test]
    fn thinning_raises_ess_per_sample() {
        // The §4.1 rationale: keeping every k-th sample de-correlates.
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs = vec![0.0f64];
        for _ in 0..20_000 {
            let prev = *xs.last().unwrap();
            xs.push(0.9 * prev + rng.gen::<f64>() - 0.5);
        }
        let thinned: Vec<f64> = xs.iter().step_by(20).copied().collect();
        let rho_raw = autocorrelation(&xs, 1);
        let rho_thin = autocorrelation(&thinned, 1);
        assert!(rho_thin < rho_raw * 0.5);
    }

    #[test]
    fn gelman_rubin_near_one_for_mixed_chains() {
        let mut rng = StdRng::seed_from_u64(4);
        let chains: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..2000).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let r = gelman_rubin(&chains);
        assert!((r - 1.0).abs() < 0.05, "R̂ = {r}");
    }

    #[test]
    fn gelman_rubin_large_for_disagreeing_chains() {
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<f64> = (0..1000).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..1000).map(|_| 10.0 + rng.gen::<f64>()).collect();
        let r = gelman_rubin(&[a, b]);
        assert!(r > 5.0, "unmixed chains must show R̂ ≫ 1, got {r}");
    }

    #[test]
    fn gelman_rubin_constant_chains() {
        let r = gelman_rubin(&[vec![1.0; 10], vec![1.0; 10]]);
        assert_eq!(r, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn gelman_rubin_one_chain_panics() {
        gelman_rubin(&[vec![1.0, 2.0]]);
    }

    #[test]
    fn degenerate_autocorrelation_is_zero() {
        assert_eq!(autocorrelation(&[1.0, 1.0, 1.0], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0], 3), 0.0);
        assert_eq!(effective_sample_size(&[1.0, 2.0]), 2.0);
    }

    #[test]
    fn identical_chains_give_r_hat_one() {
        // Literally the same trace in every chain: zero between-chain
        // variance, so R̂ = √((n−1)/n) ≈ 1 from below.
        let mut rng = StdRng::seed_from_u64(21);
        let a: Vec<f64> = (0..500).map(|_| rng.gen::<f64>()).collect();
        let r = gelman_rubin(&[a.clone(), a.clone(), a]);
        assert!((r - 1.0).abs() < 0.01, "identical chains: R̂ = {r}");
        assert!(r.is_finite());
    }

    #[test]
    fn mean_shifted_chains_exceed_gate() {
        // A constant mean offset of 0.5 against uniform(0,1) noise is far
        // outside any convergence gate near 1.1.
        let mut rng = StdRng::seed_from_u64(22);
        let a: Vec<f64> = (0..800).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..800).map(|_| 0.5 + rng.gen::<f64>()).collect();
        let r = gelman_rubin(&[a, b]);
        assert!(r > 1.1, "mean-shifted chains: R̂ = {r}");
    }

    #[test]
    fn short_traces_return_documented_neutral_value() {
        // len < 2: no within-chain variance exists yet → finite neutral 1.0.
        assert_eq!(gelman_rubin(&[vec![1.0], vec![2.0]]), 1.0);
        assert_eq!(gelman_rubin(&[Vec::<f64>::new(), Vec::new()]), 1.0);
        assert_eq!(split_r_hat(&[]), 1.0);
        assert_eq!(split_r_hat(&[0.0, 1.0, 0.0]), 1.0);
    }

    #[test]
    fn frozen_disagreement_is_finite_and_fails_gates() {
        // Chains each constant at different values: limit is +∞; we report
        // the finite documented sentinel.
        let r = gelman_rubin(&[vec![0.0; 16], vec![1.0; 16]]);
        assert_eq!(r, R_HAT_DIVERGED);
        assert!(r.is_finite() && !r.is_nan());
        assert!(r > 1.1, "must fail any sane gate");
    }

    #[test]
    fn constant_series_ess_is_finite() {
        let ess = effective_sample_size(&[3.0; 64]);
        assert_eq!(ess, 64.0);
        assert!(!ess.is_nan());
        assert_eq!(effective_sample_size(&[]), 0.0);
    }

    #[test]
    fn gelman_rubin_accepts_borrowed_slices() {
        let a = [0.0, 1.0, 0.5, 0.25];
        let b = [0.2, 0.9, 0.4, 0.35];
        let owned = gelman_rubin(&[a.to_vec(), b.to_vec()]);
        let borrowed = gelman_rubin(&[&a[..], &b[..]]);
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn split_r_hat_detects_drift_but_not_stationarity() {
        let mut rng = StdRng::seed_from_u64(23);
        let stationary: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>()).collect();
        assert!((split_r_hat(&stationary) - 1.0).abs() < 0.05);
        // A strong upward trend: the two halves disagree badly.
        let drifting: Vec<f64> = (0..2000)
            .map(|i| i as f64 / 200.0 + rng.gen::<f64>())
            .collect();
        assert!(split_r_hat(&drifting) > 1.5);
        // Odd lengths drop the middle sample, halves stay comparable.
        assert!(split_r_hat(&stationary[..1999]).is_finite());
    }

    /// [`effective_sample_size`] with the truncation test at `pair <= 1e-12`
    /// instead of `pair <= 0`: the dense estimator with the f64 sum's
    /// rounding noise cut off at a truncation tie.
    fn effective_sample_size_noise_cut(xs: &[f64]) -> f64 {
        let n = xs.len();
        if n < 4 {
            return n as f64;
        }
        let mut rho_sum = 0.0;
        let mut k = 1;
        while k + 1 < n {
            let pair = autocorrelation(xs, k) + autocorrelation(xs, k + 1);
            if pair <= 1e-12 {
                break;
            }
            rho_sum += pair;
            k += 2;
        }
        (n as f64 / (1.0 + 2.0 * rho_sum)).min(n as f64)
    }

    /// The runs of ones of a dense 0/1 trace.
    fn runs_of(xs: &[f64]) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut open = None;
        for (i, &x) in xs.iter().enumerate() {
            match (x != 0.0, open) {
                (true, None) => open = Some(i),
                (false, Some(a)) => {
                    runs.push((a, i));
                    open = None;
                }
                _ => {}
            }
        }
        runs.extend(open.map(|a| (a, xs.len())));
        runs
    }

    /// Run-length R̂ / ESS against the dense functions: to a relative 1e-9,
    /// and bit for bit wherever the dense value is a documented sentinel
    /// (short trace, constant halves, constant trace).
    ///
    /// One knife edge is the dense sum's, not the run-length form's: a lag
    /// pair whose autocorrelations cancel *exactly* comes out of the f64 sum
    /// as ±1e-17, and when it lands positive the dense loop runs on past the
    /// truncation point the integers stop at (about one random trace in
    /// 30 000). There the run-length value must equal the dense estimator
    /// with the rounding noise cut off.
    fn assert_runs_match_dense(xs: &[f64]) {
        let ones = runs_of(xs);
        let n = xs.len();
        let constant = |xs: &[f64]| xs.iter().all(|&x| x == xs[0]);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        let half = n / 2;

        let (got, want) = (split_r_hat_runs(n, &ones), split_r_hat(xs));
        if n < 4 || (constant(&xs[..half]) && constant(&xs[n - half..])) {
            assert_eq!(got.to_bits(), want.to_bits(), "R̂ sentinel on {xs:?}");
        } else {
            assert!(close(got, want), "R̂: {got} vs dense {want} on {xs:?}");
        }

        let (got, want) = (
            effective_sample_size_runs(n, &ones),
            effective_sample_size(xs),
        );
        if n < 4 || constant(xs) {
            assert_eq!(got.to_bits(), want.to_bits(), "ESS sentinel on {xs:?}");
        } else {
            assert!(
                close(got, want) || close(got, effective_sample_size_noise_cut(xs)),
                "ESS: {got} vs dense {want} on {xs:?}"
            );
        }
    }

    #[test]
    fn run_length_diagnostics_match_dense_on_the_named_shapes() {
        let bit = |b: bool| if b { 1.0 } else { 0.0 };
        for n in (0..=40).chain([63, 64, 65, 255, 256, 257, 299, 300]) {
            // Constant, both ways; alternating, both phases.
            assert_runs_match_dense(&vec![0.0; n]);
            assert_runs_match_dense(&vec![1.0; n]);
            for phase in 0..2 {
                let xs: Vec<f64> = (0..n).map(|i| bit(i % 2 == phase)).collect();
                assert_runs_match_dense(&xs);
            }
            // A single toggle at every position, both directions — on, next
            // to and (odd n) inside the gap between the two halves included;
            // a frozen-disagreement window (toggle exactly between the
            // halves) must report R_HAT_DIVERGED exactly.
            for at in 0..=n {
                for first in [false, true] {
                    let xs: Vec<f64> = (0..n).map(|i| bit((i < at) == first)).collect();
                    assert_runs_match_dense(&xs);
                }
            }
            // One short visit (two toggles) sliding across the window.
            for at in 0..n.saturating_sub(3) {
                let xs: Vec<f64> = (0..n).map(|i| bit(i >= at && i < at + 3)).collect();
                assert_runs_match_dense(&xs);
            }
        }
        assert_eq!(split_r_hat_runs(16, &[(8, 16)]), R_HAT_DIVERGED);
        assert_eq!(split_r_hat_runs(17, &[(0, 8)]), R_HAT_DIVERGED);
        assert_eq!(split_r_hat_runs(3, &[(0, 1)]), 1.0);
        assert_eq!(effective_sample_size_runs(3, &[(0, 1)]), 3.0);
    }

    #[test]
    fn run_length_diagnostics_match_dense_on_random_binary_traces() {
        let mut rng = StdRng::seed_from_u64(0x0B17);
        for case in 0..4000 {
            let n = rng.gen_range(4..=300usize);
            // Sticky to nearly alternating: the chance of a toggle per step.
            let toggle = [0.01, 0.05, 0.2, 0.5, 0.9][case % 5];
            let mut x = rng.gen::<bool>();
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    x ^= rng.gen::<f64>() < toggle;
                    if x {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            assert_runs_match_dense(&xs);
        }
    }

    /// A random 0/1 trace of length `n` that toggles with chance `toggle`
    /// per step.
    fn binary_trace(rng: &mut StdRng, n: usize, toggle: f64) -> Vec<f64> {
        let mut x = rng.gen::<bool>();
        (0..n)
            .map(|_| {
                x ^= rng.gen::<f64>() < toggle;
                f64::from(u8::from(x))
            })
            .collect()
    }

    #[test]
    fn cross_chain_run_length_r_hat_matches_dense_on_random_binary_traces() {
        let mut rng = StdRng::seed_from_u64(0x6E1A);
        for case in 0..3000 {
            let n = rng.gen_range(2..=300usize);
            let chains: Vec<Vec<f64>> = (0..rng.gen_range(2..=8usize))
                .map(|c| {
                    binary_trace(
                        &mut rng,
                        n,
                        [0.0, 0.01, 0.05, 0.2, 0.5, 0.9][(case + c) % 6],
                    )
                })
                .collect();
            let ones: Vec<Vec<(usize, usize)>> = chains.iter().map(|xs| runs_of(xs)).collect();
            let (got, want) = (gelman_rubin_runs(n, &ones), gelman_rubin(&chains));
            if chains.iter().all(|xs| xs.iter().all(|&x| x == xs[0])) {
                // Every chain constant: 1.0 or R_HAT_DIVERGED, bit for bit.
                assert_eq!(got.to_bits(), want.to_bits(), "sentinel on {chains:?}");
            } else {
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs(),
                    "R̂: {got} vs dense {want} on {chains:?}"
                );
            }
        }
    }

    #[test]
    fn cross_chain_run_length_r_hat_keeps_the_degenerate_contract() {
        // len < 2: no within-chain variance yet.
        assert_eq!(gelman_rubin_runs(0, &[vec![], vec![]]), 1.0);
        assert_eq!(gelman_rubin_runs(1, &[vec![(0, 1)], vec![]]), 1.0);
        // Constant chains that agree, present or absent throughout.
        assert_eq!(gelman_rubin_runs(16, &[[(0, 16)]; 3]), 1.0);
        assert_eq!(gelman_rubin_runs::<Vec<_>>(16, &[vec![], vec![]]), 1.0);
        // Constant chains that disagree.
        assert_eq!(
            gelman_rubin_runs(16, &[vec![(0, 16)], vec![]]),
            R_HAT_DIVERGED
        );
        assert_eq!(
            gelman_rubin_runs(16, &[vec![], vec![(0, 16)], vec![(0, 16)]]),
            R_HAT_DIVERGED
        );
        // Borrowed run lists are accepted, as the dense form accepts slices.
        let (a, b) = ([(0, 3), (5, 8)], [(2, 8)]);
        assert_eq!(
            gelman_rubin_runs(8, &[&a[..], &b[..]]),
            gelman_rubin_runs(8, &[a.to_vec(), b.to_vec()])
        );
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn cross_chain_run_length_r_hat_of_one_chain_panics() {
        gelman_rubin_runs(4, &[vec![(0, 2)]]);
    }
}
