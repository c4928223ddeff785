//! Empirical validation of the paper's analysis (§6).
//!
//! **Theorem 2**: with `α = exp(−(1 − e^{−ℓ/2k})) ≈ e^{−ℓ/2k}`, one round
//! of Algorithm 2 satisfies
//!
//! ```text
//! E[φ_X(C ∪ C′)] ≤ 8·φ* + ((1 + α)/2)·φ_X(C)
//! ```
//!
//! **Corollary 3**: after `i` rounds,
//! `E[φ⁽ⁱ⁾] ≤ ((1+α)/2)ⁱ·ψ + (16/(1−α))·φ*`.
//!
//! We cannot observe expectations, but we can average the one-round
//! contraction over many seeds and check the bound empirically, using the
//! generator's ground-truth centers to upper-estimate `φ*` (the true
//! optimum is below the truth-center cost, which only makes the checked
//! bound *tighter*... so we check against the Theorem's RHS computed with
//! the truth-center estimate, which is a legitimate upper bound on 8φ*'s
//! contribution only if φ* ≤ φ_truth — which holds by optimality).

use scalable_kmeans::core::cost::{potential, CostTracker};
use scalable_kmeans::prelude::*;

/// Runs Steps 1–6 of Algorithm 2 manually, recording φ after each round.
fn phi_trajectory(points: &PointMatrix, l: f64, rounds: usize, seed: u64) -> Vec<f64> {
    let exec = Executor::new(Parallelism::Sequential);
    let mut rng = Rng::derive(seed, &[90]);
    let first = rng.range_usize(points.len());
    let mut centers = points.select(&[first]);
    let mut tracker = CostTracker::new(points, &centers, &exec).unwrap();
    let mut traj = vec![tracker.potential()];
    for _ in 0..rounds {
        let phi = tracker.potential();
        if phi <= 0.0 {
            traj.push(0.0);
            continue;
        }
        let mut new_rows: Vec<usize> = Vec::new();
        for (i, &d2) in tracker.d2().iter().enumerate() {
            if rng.bernoulli(l * d2 / phi) {
                new_rows.push(i);
            }
        }
        let from = centers.len();
        for &i in &new_rows {
            centers.push(points.row(i)).unwrap();
        }
        tracker.update(points, &centers, from, &exec).unwrap();
        traj.push(tracker.potential());
    }
    traj
}

#[test]
fn theorem_2_one_round_contraction_holds_on_average() {
    // GaussMixture with known structure; φ* estimated from truth centers.
    let k = 20;
    let synth = GaussMixture::new(k)
        .points(3_000)
        .center_variance(16.0)
        .generate(5)
        .unwrap();
    let points = synth.dataset.points();
    let exec = Executor::new(Parallelism::Sequential);
    let phi_star_upper = potential(points, &synth.true_centers, &exec);

    let l = 2.0 * k as f64;
    let alpha = (-(1.0 - (-l / (2.0 * k as f64)).exp())).exp();
    let seeds = 40u64;
    // Average the realized one-round ratio over many seeds, per round.
    let rounds = 4;
    let mut avg_after = vec![0.0f64; rounds];
    let mut avg_before = vec![0.0f64; rounds];
    for s in 0..seeds {
        let traj = phi_trajectory(points, l, rounds, s);
        for r in 0..rounds {
            avg_before[r] += traj[r] / seeds as f64;
            avg_after[r] += traj[r + 1] / seeds as f64;
        }
    }
    for r in 0..rounds {
        let bound = 8.0 * phi_star_upper + 0.5 * (1.0 + alpha) * avg_before[r];
        assert!(
            avg_after[r] <= bound,
            "round {r}: E[φ'] ≈ {:.3e} exceeds Theorem 2 bound {:.3e} \
             (E[φ] ≈ {:.3e}, 8φ*≤{:.3e})",
            avg_after[r],
            bound,
            avg_before[r],
            8.0 * phi_star_upper
        );
    }
}

#[test]
fn corollary_3_geometric_decay_to_constant_factor() {
    // After O(log ψ) rounds the trajectory should flatten near O(φ*):
    // check that 8 rounds with ℓ = 2k bring φ within a constant factor
    // (≤ 16/(1−α) + slack) of the truth-center cost, from ψ that starts
    // orders of magnitude higher.
    let k = 20;
    let synth = GaussMixture::new(k)
        .points(3_000)
        .center_variance(100.0)
        .generate(6)
        .unwrap();
    let points = synth.dataset.points();
    let exec = Executor::new(Parallelism::Sequential);
    let phi_star_upper = potential(points, &synth.true_centers, &exec);

    let l = 2.0 * k as f64;
    let alpha: f64 = (-(1.0 - (-l / (2.0 * k as f64)).exp())).exp();
    let constant = 16.0 / (1.0 - alpha);

    let mut finals = Vec::new();
    let mut initials = Vec::new();
    for s in 0..15 {
        let traj = phi_trajectory(points, l, 8, s);
        initials.push(traj[0]);
        finals.push(*traj.last().unwrap());
    }
    let mean_initial: f64 = initials.iter().sum::<f64>() / initials.len() as f64;
    let mean_final: f64 = finals.iter().sum::<f64>() / finals.len() as f64;
    // The contraction term (1+α)/2)^8 · ψ is negligible after 8 rounds,
    // so the corollary predicts E[φ] ≲ 16/(1−α) · φ*.
    assert!(
        mean_final <= constant * phi_star_upper,
        "after 8 rounds φ ≈ {mean_final:.3e} exceeds (16/(1−α))·φ* = {:.3e}",
        constant * phi_star_upper
    );
    // And the decay is real: orders of magnitude below ψ.
    assert!(
        mean_final < mean_initial / 50.0,
        "no geometric decay: ψ ≈ {mean_initial:.3e} → {mean_final:.3e}"
    );
}

#[test]
fn expected_samples_per_round_is_l() {
    // Algorithm 2 samples each point with p = ℓ·d²/φ, so the expected
    // round size is ≤ ℓ (exactly ℓ when no p clamps at 1).
    let k = 10;
    let synth = GaussMixture::new(k)
        .points(5_000)
        .center_variance(25.0)
        .generate(7)
        .unwrap();
    let points = synth.dataset.points();
    let l = 3.0 * k as f64;
    let mut first_round_sizes = Vec::new();
    for s in 0..30 {
        let traj_len_before = phi_trajectory(points, l, 1, s).len();
        assert_eq!(traj_len_before, 2);
        // Re-derive the count by re-running the sampling (same derivation).
        let exec = Executor::new(Parallelism::Sequential);
        let mut rng = Rng::derive(s, &[90]);
        let first = rng.range_usize(points.len());
        let centers = points.select(&[first]);
        let tracker = CostTracker::new(points, &centers, &exec).unwrap();
        let phi = tracker.potential();
        let count = tracker
            .d2()
            .iter()
            .filter(|&&d2| rng.bernoulli(l * d2 / phi))
            .count();
        first_round_sizes.push(count as f64);
    }
    let mean = first_round_sizes.iter().sum::<f64>() / first_round_sizes.len() as f64;
    // 5σ window around ℓ = 30 (per-round variance ≤ ℓ).
    let sigma = (l / first_round_sizes.len() as f64).sqrt();
    assert!(
        (mean - l).abs() < 5.0 * sigma + 1.0,
        "mean round size {mean} far from ℓ = {l}"
    );
}
