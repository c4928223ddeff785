//! Weighted and uniform sampling primitives, and what draws through
//! each.
//!
//! * [`weighted_pick`] draws *one* index with probability proportional to
//!   its weight, by linear scan. Every k-means++ draw goes through it
//!   (Algorithm 1 picks each center with probability `d²(x, C) / φ_X(C)`,
//!   over weights that change every round): `kmeanspp`, the weighted
//!   k-means++ of Step 8, and the streaming k-means#.
//! * [`AliasSampler`] (Vose's alias method, O(1) draws) serves static
//!   distributions drawn many times: the AFK-MC² proposal and the class
//!   mix of the `KddLike` generator. [`CumulativeSampler`] (O(log n)
//!   draws) is the prefix-sum baseline `benches/sampling.rs` measures it
//!   against.
//! * [`weighted_distinct`] draws `m` *distinct* indices with probability
//!   proportional to weight (Efraimidis–Spirakis): k-means||'s top-up when
//!   `r·ℓ` under-samples, and the `Random` seeding of weighted points.
//!   The exact-ℓ variant of §5.3 computes the same keys per shard in
//!   `kmeans_core::init::parallel`, not through this function.
//! * [`uniform_distinct`] draws `m` distinct uniform indices (Floyd's
//!   algorithm): the `Random` baseline, Step 8's uniform-recluster
//!   ablation, dataset subsampling and the sampled silhouette.
//!
//! k-means|| Step 4's Bernoulli draws use no primitive here: each shard
//! draws from its own tag-31 stream
//! (`kmeans_core::init::parallel::sample_bernoulli_prescreen`), so the
//! sample is the same on every backend.

use crate::rng::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Draws one index from a categorical distribution by linear scan.
///
/// `total` must equal `weights.iter().sum()` (the caller usually maintains it
/// incrementally). Returns `None` when the total mass is not positive.
///
/// This is the cheapest option when only a single draw is needed from a
/// distribution that will immediately change (the k-means++ inner loop).
pub fn weighted_pick(weights: &[f64], total: f64, rng: &mut Rng) -> Option<usize> {
    if weights.is_empty() || total.is_nan() || total <= 0.0 {
        return None;
    }
    let target = rng.next_f64() * total;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if target < acc {
            return Some(i);
        }
    }
    // Floating-point slack: the scan can exhaust the slice when `total`
    // slightly exceeds the true sum. Fall back to the last positive weight.
    weights.iter().rposition(|&w| w > 0.0)
}

/// Categorical sampler over a fixed weight vector: O(n) build, O(log n) draw.
///
/// Stores the prefix-sum array and binary-searches it on each draw. Weights
/// must be non-negative and finite; entries with zero weight are never
/// returned.
///
/// ```
/// use kmeans_util::{sampling::CumulativeSampler, Rng};
/// let s = CumulativeSampler::new(&[0.0, 1.0, 3.0]).unwrap();
/// let mut rng = Rng::new(1);
/// let i = s.sample(&mut rng);
/// assert!(i == 1 || i == 2);
/// ```
#[derive(Clone, Debug)]
pub struct CumulativeSampler {
    prefix: Vec<f64>,
    total: f64,
}

impl CumulativeSampler {
    /// Builds the sampler. Returns `None` if the total weight is not
    /// strictly positive or any weight is negative/non-finite.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let mut prefix = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return None;
            }
            acc += w;
            prefix.push(acc);
        }
        if acc > 0.0 {
            Some(CumulativeSampler { prefix, total: acc })
        } else {
            None
        }
    }

    /// Total probability mass (sum of weights).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// Whether the sampler has no categories.
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// Draws one index, in O(log n).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let target = rng.next_f64() * self.total;
        // partition_point returns the first index whose prefix exceeds the
        // target, i.e. the category containing it.
        let idx = self.prefix.partition_point(|&p| p <= target);
        if idx < self.prefix.len() {
            self.ensure_positive(idx)
        } else {
            self.ensure_positive(self.prefix.len() - 1)
        }
    }

    /// Zero-weight categories have zero-length prefix segments and can only
    /// be hit through floating-point edge cases; walk back to the nearest
    /// positive-weight category.
    fn ensure_positive(&self, mut idx: usize) -> usize {
        while idx > 0 {
            let w = self.prefix[idx] - self.prefix[idx - 1];
            if w > 0.0 {
                return idx;
            }
            idx -= 1;
        }
        idx
    }
}

/// Categorical sampler with O(n) build and O(1) draws (Vose's alias method).
///
/// Preferable to [`CumulativeSampler`] when many draws are made from the same
/// distribution (e.g. generating synthetic datasets with fixed mixture
/// weights).
#[derive(Clone, Debug)]
pub struct AliasSampler {
    /// Probability of staying in the column (scaled to [0,1]).
    prob: Vec<f64>,
    /// Alias column to jump to otherwise.
    alias: Vec<u32>,
}

impl AliasSampler {
    /// Builds the alias table. Returns `None` if the total weight is not
    /// strictly positive, any weight is negative/non-finite, or there are
    /// more than `u32::MAX` categories.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let n = weights.len();
        if n == 0 || n > u32::MAX as usize {
            return None;
        }
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return None;
            }
            total += w;
        }
        if total <= 0.0 {
            return None;
        }
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        // Pair each under-full column with an over-full donor. The donor
        // stays on the `large` stack until its residual mass drops below 1,
        // so no element is ever popped without being finalized.
        while let Some(&l) = large.last() {
            let Some(s) = small.pop() else { break };
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] += scaled[s as usize] - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Whatever remains is numerically 1.0.
        for i in large.into_iter().chain(small) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        Some(AliasSampler { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the sampler has no categories.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index, in O(1).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let col = rng.range_usize(self.prob.len());
        if rng.next_f64() < self.prob[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

/// Key/index pair for the Efraimidis–Spirakis heap; ordered by key so the
/// binary heap pops the *smallest* key (we keep the m largest).
#[derive(PartialEq)]
struct EsEntry {
    key: f64,
    idx: usize,
}

impl Eq for EsEntry {}

impl PartialOrd for EsEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EsEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the min at the top.
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Draws `m` *distinct* indices without replacement, with probability
/// proportional to `weights` (Efraimidis–Spirakis, 2006).
///
/// Each positive-weight index gets the key `u^(1/w)` with `u ~ U(0,1]`; the
/// `m` largest keys form an exact weighted sample without replacement. Runs
/// in O(n log m). If fewer than `m` indices have positive weight, all of
/// them are returned.
///
/// The result is sorted by index for deterministic downstream iteration.
pub fn weighted_distinct(weights: &[f64], m: usize, rng: &mut Rng) -> Vec<usize> {
    if m == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<EsEntry> = BinaryHeap::with_capacity(m + 1);
    for (idx, &w) in weights.iter().enumerate() {
        if w.is_nan() || w <= 0.0 {
            continue;
        }
        // key = u^(1/w)  ⇔  ln(key) = ln(u)/w ; compare in log space for
        // numerical range (weights span ~1e10 in the KDD workload).
        let key = rng.next_f64_open().ln() / w;
        if heap.len() < m {
            heap.push(EsEntry { key, idx });
        } else if let Some(top) = heap.peek() {
            if key > top.key {
                heap.pop();
                heap.push(EsEntry { key, idx });
            }
        }
    }
    let mut out: Vec<usize> = heap.into_iter().map(|e| e.idx).collect();
    out.sort_unstable();
    out
}

/// Draws `m` distinct uniform indices from `[0, n)` (Floyd's algorithm).
///
/// O(m) expected time and memory, independent of `n`. The result is sorted.
///
/// # Panics
///
/// Panics if `m > n`.
pub fn uniform_distinct(n: usize, m: usize, rng: &mut Rng) -> Vec<usize> {
    assert!(m <= n, "uniform_distinct: m={m} > n={n}");
    let mut chosen = std::collections::HashSet::with_capacity(m);
    let mut out = Vec::with_capacity(m);
    for j in (n - m)..n {
        let t = rng.range_usize(j + 1);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_freqs(n_cats: usize, draws: usize, mut draw: impl FnMut() -> usize) -> Vec<f64> {
        let mut counts = vec![0usize; n_cats];
        for _ in 0..draws {
            counts[draw()] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let weights = [1.0, 0.0, 3.0];
        let mut rng = Rng::new(1);
        let freqs = empirical_freqs(3, 40_000, || {
            weighted_pick(&weights, 4.0, &mut rng).unwrap()
        });
        assert!((freqs[0] - 0.25).abs() < 0.01, "{freqs:?}");
        assert_eq!(freqs[1], 0.0);
        assert!((freqs[2] - 0.75).abs() < 0.01, "{freqs:?}");
    }

    #[test]
    fn weighted_pick_zero_total_is_none() {
        let mut rng = Rng::new(2);
        assert_eq!(weighted_pick(&[0.0, 0.0], 0.0, &mut rng), None);
        assert_eq!(weighted_pick(&[], 0.0, &mut rng), None);
    }

    #[test]
    fn cumulative_sampler_matches_weights() {
        let s = CumulativeSampler::new(&[2.0, 0.0, 1.0, 1.0]).unwrap();
        assert_eq!(s.len(), 4);
        assert!((s.total() - 4.0).abs() < 1e-12);
        let mut rng = Rng::new(3);
        let freqs = empirical_freqs(4, 40_000, || s.sample(&mut rng));
        assert!((freqs[0] - 0.5).abs() < 0.01, "{freqs:?}");
        assert_eq!(freqs[1], 0.0, "zero-weight category sampled");
        assert!((freqs[2] - 0.25).abs() < 0.01, "{freqs:?}");
    }

    #[test]
    fn cumulative_sampler_rejects_bad_weights() {
        assert!(CumulativeSampler::new(&[]).is_none());
        assert!(CumulativeSampler::new(&[0.0, 0.0]).is_none());
        assert!(CumulativeSampler::new(&[1.0, -1.0]).is_none());
        assert!(CumulativeSampler::new(&[f64::NAN]).is_none());
        assert!(CumulativeSampler::new(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn alias_sampler_matches_weights() {
        let s = AliasSampler::new(&[1.0, 2.0, 3.0, 0.0, 4.0]).unwrap();
        let mut rng = Rng::new(4);
        let freqs = empirical_freqs(5, 100_000, || s.sample(&mut rng));
        for (i, expected) in [0.1, 0.2, 0.3, 0.0, 0.4].into_iter().enumerate() {
            assert!(
                (freqs[i] - expected).abs() < 0.01,
                "category {i}: {freqs:?}"
            );
        }
    }

    #[test]
    fn alias_sampler_single_category() {
        let s = AliasSampler::new(&[5.0]).unwrap();
        let mut rng = Rng::new(5);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }

    #[test]
    fn alias_rejects_bad_weights() {
        assert!(AliasSampler::new(&[]).is_none());
        assert!(AliasSampler::new(&[0.0]).is_none());
        assert!(AliasSampler::new(&[-2.0, 1.0]).is_none());
    }

    #[test]
    fn weighted_distinct_is_distinct_and_weighted() {
        let mut weights = vec![1.0; 100];
        weights[7] = 1_000.0; // should almost always be selected
        let mut rng = Rng::new(8);
        let mut hits_7 = 0;
        for _ in 0..200 {
            let sel = weighted_distinct(&weights, 10, &mut rng);
            assert_eq!(sel.len(), 10);
            assert!(sel.windows(2).all(|w| w[0] < w[1]), "not distinct/sorted");
            if sel.contains(&7) {
                hits_7 += 1;
            }
        }
        assert!(hits_7 > 195, "heavy item selected only {hits_7}/200 times");
    }

    #[test]
    fn weighted_distinct_fewer_positive_than_m() {
        let weights = [0.0, 2.0, 0.0, 3.0];
        let mut rng = Rng::new(9);
        let sel = weighted_distinct(&weights, 10, &mut rng);
        assert_eq!(sel, vec![1, 3]);
    }

    #[test]
    fn weighted_distinct_zero_m() {
        let mut rng = Rng::new(10);
        assert!(weighted_distinct(&[1.0, 2.0], 0, &mut rng).is_empty());
    }

    #[test]
    fn weighted_distinct_first_draw_marginals() {
        // With m=1, selection probability must be ∝ weight.
        let weights = [1.0, 3.0];
        let mut rng = Rng::new(11);
        let mut count1 = 0;
        let trials = 40_000;
        for _ in 0..trials {
            if weighted_distinct(&weights, 1, &mut rng) == vec![1] {
                count1 += 1;
            }
        }
        let frac = count1 as f64 / trials as f64;
        assert!((frac - 0.75).abs() < 0.01, "{frac}");
    }

    #[test]
    fn uniform_distinct_properties() {
        let mut rng = Rng::new(12);
        for _ in 0..100 {
            let sel = uniform_distinct(50, 10, &mut rng);
            assert_eq!(sel.len(), 10);
            assert!(sel.windows(2).all(|w| w[0] < w[1]));
            assert!(sel.iter().all(|&i| i < 50));
        }
        // m == n returns everything.
        assert_eq!(uniform_distinct(5, 5, &mut rng), vec![0, 1, 2, 3, 4]);
        assert!(uniform_distinct(5, 0, &mut rng).is_empty());
    }

    #[test]
    fn uniform_distinct_is_uniform() {
        let mut rng = Rng::new(13);
        let mut counts = [0usize; 10];
        let trials = 30_000;
        for _ in 0..trials {
            for i in uniform_distinct(10, 3, &mut rng) {
                counts[i] += 1;
            }
        }
        for &c in &counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.3).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "m=6 > n=5")]
    fn uniform_distinct_m_too_big_panics() {
        uniform_distinct(5, 6, &mut Rng::new(0));
    }
}
