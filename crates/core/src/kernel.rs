//! The batch-assignment kernel: nearest-center assignment for a block of
//! points against a prepared candidate set, with norm-bound pruning —
//! **bit-identical** to the scalar per-point path
//! ([`crate::distance::nearest`] / the tracker update loops) for any
//! thread count, block grouping, and execution mode.
//!
//! Every phase of Scalable K-Means++ bottlenecks on the same primitive:
//! for each point, the squared distance to each of `k` candidate centers,
//! keeping the argmin. The scalar formulation (`nearest()` once per
//! point) must touch at least a prefix of every candidate row. This
//! module restructures the same arithmetic around a *sorted* copy of the
//! candidates so that almost all of them are disposed of in `O(1)`
//! without touching their coordinates at all:
//!
//! ```text
//!  centers (k × d) ── sort by the max-variance coordinate, gather ──►
//!
//!  compact candidate features (L1-resident)    full rows (sort order)
//!  ┌────────────────────────────────────────┐  ┌───────────────┐
//!  │ key c[j*] │ c[j₂] │ ‖c‖ │ orig. index  │  │ row, row, …   │
//!  └────────────────────────────────────────┘  └───────────────┘
//!
//!  per point x:  seed = (cold) binary-search x[j*], proxy-pick nearby
//!                     | (warm) the previous pass's center →
//!                one canonical evaluation pins `best` → (warm) done if
//!                the certificate holds → walk outward
//!                (alternating sides in chunks of 8):
//!
//!     ◄── stop side once (x[j*]−c[j*])² > best (monotone) ──►
//!  ┌─ pruned wholesale ─┬── live annulus ──┬─ pruned wholesale ─┐
//!                         │ per candidate: key gap → second
//!                         │ coordinate gap → norm bound →
//!                         ▼ canonical distance (near-winners only)
//! ```
//!
//! * **Sort-key pruning** — candidates are sorted along their
//!   largest-variance coordinate `j*` (chosen deterministically per
//!   candidate set). The exact bound `(x[j*]−c[j*])² ≤ ‖x−c‖²` is
//!   *monotone* along each direction of the outward walk, so the first
//!   candidate it disqualifies disqualifies the whole remainder of that
//!   side in `O(1)`. Coordinate gaps are exact reads — they need no
//!   floating-point margin.
//! * **Norm-bound pruning** — `‖c‖` is precomputed once per candidate
//!   set and `‖x‖` once per point; inside the surviving annulus the
//!   reverse-triangle bound `(‖x‖−‖c‖)² ≤ ‖x−c‖²` (applied with the
//!   conservative margin below) and a second coordinate gap `(x[j₂]−c[j₂])²`
//!   dispose of most remaining candidates without loading their rows.
//! * **Seeded best** — each point evaluates one candidate first, so
//!   `best` is tight before the walk starts and the bounds bite from the
//!   first candidate onward. A *cold* sweep ([`AssignKernel::assign`])
//!   binary-searches the point's key into the sorted order and picks a
//!   nearby candidate by a cheap proxy. A *warm* sweep
//!   ([`AssignKernel::assign_warm`], every Lloyd pass after the first)
//!   seeds at the point's *hint* — the center it held in the previous
//!   pass, located through the inverse sort order with no search at all
//!   — and then tries the *half-separation certificate*: with `D_a` the
//!   seed's canonical distance and `S_a` the smallest canonical squared
//!   distance from center `a` to any other center (one `O(m²·d)` table
//!   per prepared kernel, built on the first warm call), `4·D_a < S_a`
//!   proves `a` the unique nearest center, so the point is done after one
//!   evaluation (counted as 1 evaluation and `m−1` pruned pairs) and never
//!   even computes its norm. Otherwise the walk runs from the seed. Hints
//!   are untrusted: one `≥ k` takes the cold seed search.
//! * **Register-blocked compute** — the per-point norm runs on four
//!   independent accumulation lanes (the layout LLVM turns into packed
//!   SIMD), the `O(1)` filters stream the compact feature arrays, and
//!   only candidates no filter could reject (≈ the actual winners) are
//!   computed in the canonical accumulation order — *only these values
//!   ever update the result state*.
//!
//! # The bit-parity argument
//!
//! The scalar scan (index order, strict `<` updates) returns exactly
//! *the minimum canonical distance and the lowest center index attaining
//! it* — where "canonical" means the accumulation order of
//! [`sq_dist_bounded`]'s non-abandoned path (the shared
//! `sq_chunk8`/`sq_tail` helpers in [`crate::distance`]). The kernel
//! computes the same pair under a *different candidate order*, which is
//! sound because:
//!
//! 1. **Only canonical values change state.** Every update to
//!    `(best, label)` uses a full canonical-order distance — the same
//!    bits the scalar path produces for that pair. The bounds are used
//!    exclusively to *skip* candidates.
//! 2. **Selection is order-free.** The running state keeps the minimum
//!    canonical value seen and breaks exact ties toward the lower center
//!    index (`d < best`, or `d == best` with a smaller index than the
//!    current *improving* candidate; a tie with the carried-in value of
//!    an incremental update never replaces it, matching the scalar
//!    suffix scan's strict `<`). Any evaluation order yields the scalar
//!    result.
//! 3. **Skips are strict.** A candidate is skipped only on proof that
//!    its canonical distance is *strictly greater* than the current best
//!    (every filter — the coordinate gaps, the norm bound, the canonical
//!    abandon, which uses `best.next_up()` as its bound, and the warm
//!    sweep's half-separation certificate, which skips *all* other
//!    candidates at once — guarantees the strict inequality). A skipped
//!    candidate can therefore never be the minimizer, nor a lower-index
//!    holder of an exact tie.
//!
//! The per-point decision sequence is a pure function of the point, the
//! sorted candidate set, the carried best and the point's hint — how
//! points are grouped into shards, chunked-source blocks, or batches
//! cannot change any outcome, which also makes [`KernelStats`]
//! deterministic across thread counts and block sizes (and, since every
//! backend passes the labels of its previous pass as hints, across
//! backends).
//!
//! # Why the ε-slack cannot change results
//!
//! In real arithmetic every filter is an exact lower bound on the
//! squared distance. In floating point each can overshoot the canonical
//! value: the computed norms carry a relative error of about
//! `(d/2+2)·ε` each, which their difference turns into an error bounded
//! by the same multiple of `‖x‖+‖c‖`; squaring a gap adds a few `ε`; and
//! the canonical value itself may undershoot the true distance by a
//! relative `≈ (d+2)·ε`. The kernel therefore compares every filter
//! against the pre-inflated threshold
//!
//! ```text
//! binv = best · (1 + 4ε) / (1 − (2d+16)·ε)
//! key/coordinate filters: skip ⇔ (x[j]−c[j])²                    > binv
//! norm filter:            skip ⇔ (|nx−nc| − (2d+16)·ε·(nx+nc))²  > binv
//! ```
//!
//! The `(2d+16)·ε` coefficient dominates every error term above with a
//! comfortable margin, so each left-hand side is a *certified lower
//! bound* on the canonical distance: a skip can only discard a candidate
//! whose canonical distance strictly exceeds `best`. Non-finite inputs
//! disable the filters naturally — a NaN or ∞ makes the strict `>`
//! comparisons false (a point whose sort-key coordinate is non-finite
//! skips the pruned sweep entirely and scans every candidate, and
//! NaN-key candidates are scanned unconditionally after the walk), and
//! such candidates fall through to the canonical path, which handles
//! them exactly like the scalar loop. The slack is a few parts in 10¹³ —
//! it costs essentially no pruning power.
//!
//! **The certificate.** With the same `g = (2d+16)·ε`, the warm sweep
//! finishes a point at its seed `a` only when
//!
//! ```text
//! 4·D_a·(1+g) < S_a·(1−g)        (precomputed per candidate as
//!                                  D_a < S_a·(1−g)/(4·(1+g)))
//! ```
//!
//! Write `T` for true squared distances. Every canonical value is within
//! a relative `δ ≤ (d+2)·ε` of its `T` in either direction (the bound
//! above), so `g > 1.5·δ`. To first order in `ε`, the test gives
//! `T_ab > 4·T_a·(1+2g−2δ)` for every other center `b` (as
//! `S_a ≤ S_ab`); the triangle inequality `√T_b ≥ √T_ab − √T_a` then
//! gives `T_b > T_a·(1+4g−4δ)`, and `D_b ≥ T_b·(1−δ) > D_a·(1+4g−6δ) >
//! D_a`: every other center's canonical distance is *strictly* larger, so
//! `(a, D_a)` is exactly what the scalar scan returns. The few roundings
//! in the precomputed limit cost another few `ε`, far inside the margin.
//! Separations below `2⁻⁹⁷⁰` never certify, which keeps underflowed
//! squares irrelevant; NaN, ±∞ and zero separations never certify (a
//! NaN separation is sticky across the table), nor does a NaN or ∞
//! `D_a` (it fails the strict `<`). Duplicate centers have `S_a = 0`.

use crate::distance::sq_dist_bounded;
use kmeans_data::PointMatrix;
use std::ops::Range;
use std::sync::OnceLock;

/// Minimum candidate count for the pruned sweep to pay for the `O(d)`
/// point-norm precomputation and the seed search; below it the kernel
/// scans every candidate canonically (still bit-identical).
const PRUNE_MIN_CANDIDATES: usize = 8;

/// Smallest center separation `S_a` the half-separation certificate
/// accepts: `2⁻⁹⁷⁰`, far above the subnormal range, so the absolute
/// error of squares that underflow (at most `d·2⁻¹⁰⁷⁵`) stays below
/// `d·2⁻¹⁰²` relative to every distance the certificate reasons about —
/// negligible next to the guard (module docs).
const CERT_FLOOR: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// Work accounting for one kernel call. Both counters are exact and —
/// because every skip decision is a pure function of per-point state —
/// deterministic across thread counts, shard layouts, and chunked block
/// sizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Point–center pairs whose coordinates were actually visited by
    /// the canonical (possibly bound-abandoned) computation.
    pub distance_computations: u64,
    /// Point–center pairs skipped in `O(1)` by the norm or
    /// coordinate-gap lower bounds (wholesale side stops included) or,
    /// in a warm sweep, by the half-separation certificate.
    pub pruned_by_norm_bound: u64,
}

impl KernelStats {
    /// Adds another call's counters into this one.
    pub fn absorb(&mut self, other: KernelStats) {
        self.distance_computations += other.distance_computations;
        self.pruned_by_norm_bound += other.pruned_by_norm_bound;
    }
}

/// A candidate set prepared for batch assignment: a norm-sorted copy of
/// the centers (or of the suffix `from..` for incremental updates), the
/// compact per-candidate feature table, and the slack constants.
///
/// Construction costs `O(k·d + k log k)`; every subsequent
/// [`AssignKernel::assign`] / [`AssignKernel::update`] call reuses it.
/// The kernel is `Sync`, so one instance is shared across the executor's
/// worker threads.
///
/// ```
/// use kmeans_core::distance::nearest;
/// use kmeans_core::kernel::AssignKernel;
/// use kmeans_data::PointMatrix;
///
/// let points = PointMatrix::from_flat((0..40).map(f64::from).collect(), 2).unwrap();
/// let centers = PointMatrix::from_flat(vec![0.0, 1.0, 30.0, 31.0], 2).unwrap();
/// let kernel = AssignKernel::new(&centers);
/// let mut labels = vec![0u32; points.len()];
/// let mut d2 = vec![0.0f64; points.len()];
/// kernel.assign(&points, 0..points.len(), &mut labels, &mut d2);
/// for (i, row) in points.rows().enumerate() {
///     let (c, dist) = nearest(row, &centers);
///     assert_eq!(labels[i], c as u32);                  // same winner…
///     assert_eq!(d2[i].to_bits(), dist.to_bits());      // …same bits.
/// }
/// ```
#[derive(Debug)]
pub struct AssignKernel {
    /// First candidate index (0 for full assignment, `from` for updates).
    from: usize,
    /// Total size of the center set the candidates came from.
    k: usize,
    /// Dimensionality.
    dim: usize,
    /// The *sort dimension*: the coordinate with the largest variance
    /// over the candidates (ties → lowest index). Sorting along the most
    /// spread-out coordinate keeps the surviving annulus of the sweep as
    /// narrow as the data allows; coordinate gaps need no error margin,
    /// unlike the norm.
    key_dim: usize,
    /// Original center index of each sorted candidate, ascending by
    /// `c[key_dim]` (ties by index; `f64::total_cmp`, NaN keys last).
    order: Vec<u32>,
    /// `c[key_dim]` of each candidate, sorted — the primary, monotone
    /// prune feature of the sweep.
    keys: Vec<f64>,
    /// Candidate norms in sorted order — the secondary prune feature.
    norms: Vec<f64>,
    /// A second coordinate (`sec_dim`) per sorted candidate — the
    /// tertiary prune feature (0.0 when `dim == 1`).
    sec: Vec<f64>,
    /// The second-largest-variance coordinate backing `sec`.
    sec_dim: usize,
    /// Number of leading sorted positions with non-NaN keys — the region
    /// the monotone side-stop may skip wholesale.
    finite_keys: usize,
    /// Candidate rows gathered in sorted order — the sweep touches this
    /// copy only for candidates that survive the `O(1)` filters.
    rows: PointMatrix,
    /// `(2d+16)·ε` — the conservative slack coefficient (module docs).
    guard: f64,
    /// `(1+4ε)/(1−guard)` rounded conservatively up — turns the
    /// per-candidate threshold into one multiply.
    inv_slack: f64,
    /// The warm-sweep tables, built by the first
    /// [`AssignKernel::assign_warm`] call that carries hints (`O(m²·d)`);
    /// cold callers never pay for them.
    warm: OnceLock<WarmTable>,
}

/// What a warm seed needs per candidate (module docs, "Seeded best").
#[derive(Debug)]
struct WarmTable {
    /// Sorted position of each center index — the inverse of `order`.
    pos: Vec<u32>,
    /// Per sorted position: the certificate limit `S_a·(1−g)/(4·(1+g))`,
    /// where `S_a` is the smallest canonical squared distance from that
    /// candidate to any other. `0.0` (which no distance undercuts) when
    /// `S_a` is NaN, infinite, zero or below [`CERT_FLOOR`].
    cert: Vec<f64>,
}

impl AssignKernel {
    /// Prepares a full-assignment kernel over `centers`.
    pub fn new(centers: &PointMatrix) -> Self {
        Self::suffix(centers, 0)
    }

    /// Prepares an incremental-update kernel over the candidate suffix
    /// `centers[from..]` (the shape of every tracker update: earlier
    /// centers are already incorporated in the carried `d²`). `from ≥ k`
    /// yields an empty kernel whose update is a no-op.
    pub fn suffix(centers: &PointMatrix, from: usize) -> Self {
        let k = centers.len();
        let dim = centers.dim();
        let from = from.min(k);
        let m = k - from;
        // Per-coordinate spread of the candidates (sum of squared
        // deviations; scaling is irrelevant for the argmax). Non-finite
        // coordinates poison a dimension's score to −∞ so a clean sort
        // key is preferred when one exists.
        let (key_dim, sec_dim) = {
            let mut mean = vec![0.0f64; dim];
            for c in from..k {
                for (s, &v) in mean.iter_mut().zip(centers.row(c)) {
                    *s += v;
                }
            }
            let inv = 1.0 / m.max(1) as f64;
            for s in &mut mean {
                *s *= inv;
            }
            let mut var = vec![0.0f64; dim];
            for c in from..k {
                for ((s, &mu), &v) in var.iter_mut().zip(&mean).zip(centers.row(c)) {
                    let d = v - mu;
                    *s += d * d;
                }
            }
            for s in &mut var {
                if !s.is_finite() {
                    *s = f64::NEG_INFINITY;
                }
            }
            let best = |exclude: usize| {
                let mut arg = usize::from(exclude == 0 && dim > 1);
                for (j, &v) in var.iter().enumerate() {
                    if j != exclude && v > var[arg] {
                        arg = j;
                    }
                }
                arg
            };
            let key = best(usize::MAX);
            (key, if dim > 1 { best(key) } else { 0 })
        };
        let mut order: Vec<u32> = (from..k).map(|c| c as u32).collect();
        order.sort_by(|&a, &b| {
            centers.row(a as usize)[key_dim]
                .total_cmp(&centers.row(b as usize)[key_dim])
                .then(a.cmp(&b))
        });
        let mut rows = PointMatrix::with_capacity(dim, order.len());
        let mut keys = Vec::with_capacity(order.len());
        let mut norms = Vec::with_capacity(order.len());
        let mut sec = Vec::with_capacity(order.len());
        for &c in &order {
            let row = centers.row(c as usize);
            rows.push(row)
                .expect("candidate rows share the center dimensionality");
            keys.push(row[key_dim]);
            norms.push(norm(row));
            sec.push(if dim > 1 { row[sec_dim] } else { 0.0 });
        }
        let finite_keys = keys.iter().take_while(|v| !v.is_nan()).count();
        let guard = (2.0 * dim as f64 + 16.0) * f64::EPSILON;
        AssignKernel {
            from,
            k,
            dim,
            key_dim,
            order,
            keys,
            norms,
            sec,
            sec_dim,
            finite_keys,
            rows,
            guard,
            inv_slack: (1.0 / (1.0 - guard)) * (1.0 + 4.0 * f64::EPSILON),
            warm: OnceLock::new(),
        }
    }

    /// The warm-sweep tables of a full kernel (`from == 0`), built once on
    /// first use: the inverse sort order and, per candidate, the
    /// certificate limit derived from its separation `S_a` (module docs).
    /// `O(m²·d)` — canonical distances are symmetric bit for bit
    /// (`fl(a−b) = −fl(b−a)`), so each pair is evaluated once. A NaN
    /// separation is sticky, so a candidate set with NaN rows never
    /// certifies its neighbors.
    fn warm_table(&self) -> &WarmTable {
        self.warm.get_or_init(|| {
            let m = self.order.len();
            let mut pos = vec![0u32; m];
            for (p, &c) in self.order.iter().enumerate() {
                pos[c as usize] = p as u32;
            }
            let mut sep = vec![f64::INFINITY; m];
            for p in 0..m {
                for q in p + 1..m {
                    let s = sq_dist_bounded(self.rows.row(p), self.rows.row(q), f64::INFINITY);
                    for slot in [p, q] {
                        if s < sep[slot] || s.is_nan() {
                            sep[slot] = s;
                        }
                    }
                }
            }
            let scale = (1.0 - self.guard) / (4.0 * (1.0 + self.guard));
            let cert = sep
                .into_iter()
                .map(|s| {
                    if (CERT_FLOOR..f64::INFINITY).contains(&s) {
                        s * scale
                    } else {
                        0.0
                    }
                })
                .collect();
            WarmTable { pos, cert }
        })
    }

    /// Full assignment of `points[rows]`: for each row, writes the index
    /// of its nearest center into `labels` and the squared distance into
    /// `d2` — bit-identical to calling
    /// [`nearest`](crate::distance::nearest) per row (including the
    /// `(0, ∞)` convention when no finite distance exists and low-index
    /// tie-breaking).
    ///
    /// # Panics
    ///
    /// Panics if the kernel was built with a nonzero `from`, the center
    /// set is empty, dimensionalities differ, or the output slices don't
    /// have `rows.len()` elements.
    pub fn assign(
        &self,
        points: &PointMatrix,
        rows: Range<usize>,
        labels: &mut [u32],
        d2: &mut [f64],
    ) -> KernelStats {
        self.assign_warm(points, rows, None, labels, d2)
    }

    /// [`AssignKernel::assign`] with a *warm seed* per row: `hints[i]` is
    /// the center row `i` was assigned to by a previous pass. The sweep
    /// evaluates that center first — no key search, no proxy window — and
    /// finishes the row outright when the half-separation certificate
    /// proves it the unique nearest center (module docs); otherwise the
    /// usual outward walk runs from it. Results are bit-identical to
    /// [`AssignKernel::assign`] for *any* hints: a hint `≥ k` (e.g.
    /// `u32::MAX`) simply takes the cold seed search, and `None` is
    /// exactly `assign`, counters included. The work counters are a pure
    /// function of each row and its hint.
    ///
    /// # Panics
    ///
    /// As [`AssignKernel::assign`]; also if `hints` is given with a length
    /// other than `rows.len()`.
    pub fn assign_warm(
        &self,
        points: &PointMatrix,
        rows: Range<usize>,
        hints: Option<&[u32]>,
        labels: &mut [u32],
        d2: &mut [f64],
    ) -> KernelStats {
        assert_eq!(self.from, 0, "AssignKernel::assign on a suffix kernel");
        assert!(self.k > 0, "AssignKernel::assign: no centers");
        if let Some(h) = hints {
            assert_eq!(h.len(), rows.len(), "AssignKernel: hints length");
        }
        for (l, d) in labels.iter_mut().zip(d2.iter_mut()) {
            *l = 0;
            *d = f64::INFINITY;
        }
        self.sweep(points, rows, hints, labels, d2)
    }

    /// Incremental update against the suffix candidates: each row's
    /// carried `(labels[i], d2[i])` entry is replaced only if some new
    /// center is strictly closer — the exact semantics (and bits) of the
    /// scalar tracker-update loop (suffix scan pruned by the carried
    /// best, strict improvement, lowest new index on ties among equally
    /// improving candidates).
    ///
    /// # Panics
    ///
    /// Same shape contract as [`AssignKernel::assign`].
    pub fn update(
        &self,
        points: &PointMatrix,
        rows: Range<usize>,
        labels: &mut [u32],
        d2: &mut [f64],
    ) -> KernelStats {
        self.sweep(points, rows, None, labels, d2)
    }

    /// The shared batch sweep; `hints` (full kernels only) pick each
    /// row's warm seed.
    fn sweep(
        &self,
        points: &PointMatrix,
        rows: Range<usize>,
        hints: Option<&[u32]>,
        labels: &mut [u32],
        d2: &mut [f64],
    ) -> KernelStats {
        assert_eq!(points.dim(), self.dim, "AssignKernel: dim mismatch");
        assert_eq!(labels.len(), rows.len(), "AssignKernel: labels length");
        assert_eq!(d2.len(), rows.len(), "AssignKernel: d2 length");
        let mut stats = KernelStats::default();
        let m = self.order.len();
        if m == 0 {
            return stats;
        }
        let prune = m >= PRUNE_MIN_CANDIDATES;
        let warm = hints.filter(|_| prune).map(|h| (h, self.warm_table()));
        for (slot, i) in rows.enumerate() {
            let row = points.row(i);
            let mut state = State {
                best: d2[slot],
                new_label: u32::MAX,
            };
            if prune && row[self.key_dim].is_finite() {
                let seed = warm.and_then(|(h, w)| {
                    let pos = *w.pos.get(h[slot] as usize)? as usize;
                    Some((pos, w.cert[pos]))
                });
                self.scan_pruned(row, seed, &mut state, &mut stats);
            } else {
                // Tiny candidate sets and non-finite points: plain sorted
                // scan, every candidate canonically checked (the exact
                // arithmetic of the scalar loop, in sorted order).
                for pos in 0..m {
                    stats.distance_computations += 1;
                    self.evaluate(row, pos, &mut state);
                }
            }
            d2[slot] = state.best;
            if state.new_label != u32::MAX {
                labels[slot] = state.new_label;
            }
        }
        stats
    }

    /// The annulus sweep for one point (finite sort key, pruning
    /// enabled): seed at the warm hint `(sorted position, certificate
    /// limit)` when given — finishing outright if the certificate holds —
    /// or else near the key-nearest candidate, then walk each side
    /// outward until the monotone key-gap bound certifies the rest of
    /// that side out wholesale.
    fn scan_pruned(
        &self,
        row: &[f64],
        warm: Option<(usize, f64)>,
        state: &mut State,
        stats: &mut KernelStats,
    ) {
        let m = self.order.len();
        let fin = self.finite_keys;
        let xk = row[self.key_dim];
        let xs = if self.dim > 1 { row[self.sec_dim] } else { 0.0 };
        let (seed, xn) = match warm {
            Some((pos, cert)) => {
                stats.distance_computations += 1;
                self.evaluate(row, pos, state);
                // Half-separation certificate: 4·D_a < S_a (with the
                // slack folded into `cert`) proves every other candidate
                // strictly farther. NaN/∞ distances fail the strict `<`.
                if state.best < cert {
                    stats.pruned_by_norm_bound += m as u64 - 1;
                    return;
                }
                (pos, norm(row))
            }
            None => {
                let xn = norm(row);
                let seed = self.proxy_seed(xk, xs, xn);
                stats.distance_computations += 1;
                self.evaluate(row, seed, state);
                (seed, xn)
            }
        };
        let guard = self.guard;
        let gx = guard * xn; // NaN-safe: a NaN margin just never prunes
        let mut binv = self.threshold(state.best);

        // Outward walks over the finite-key region, alternating sides in
        // chunks of 8 (predictable inner loops; the alternation bounds
        // the damage of a mis-seeded `best` to roughly twice the live
        // annulus, where a single-side walk could stream a whole flank
        // before the true cluster tightened the bound). Each side ends
        // at its monotone stop, pruning the remainder wholesale.
        const CHUNK: usize = 8;
        let mut left = seed.min(fin); // unvisited candidates below the seed
        let mut right = if seed < fin { seed + 1 } else { fin };
        loop {
            let mut steps = CHUNK.min(left);
            while steps > 0 {
                let pos = left - 1;
                let gk = xk - self.keys[pos];
                if gk * gk > binv {
                    // The single-candidate gap bound always certifies
                    // `pos` out, but the *wholesale* extension is only
                    // monotone once the walk is at or below the point's
                    // key (`gk ≥ 0`). Between a displaced seed and the
                    // key-nearest position the gaps still shrink leftward,
                    // so there only this candidate may be skipped.
                    if gk >= 0.0 {
                        stats.pruned_by_norm_bound += left as u64;
                        left = 0;
                        break;
                    }
                    stats.pruned_by_norm_bound += 1;
                    left = pos;
                    steps -= 1;
                    continue;
                }
                left = pos;
                steps -= 1;
                binv = self.filter_or_evaluate(row, pos, xn, gx, xs, binv, state, stats);
            }
            let mut steps = CHUNK.min(fin - right);
            while steps > 0 {
                let gk = self.keys[right] - xk;
                if gk * gk > binv {
                    // Mirror of the left walk: wholesale stop only once
                    // the walk is at or above the point's key.
                    if gk >= 0.0 {
                        stats.pruned_by_norm_bound += (fin - right) as u64;
                        right = fin;
                        break;
                    }
                    stats.pruned_by_norm_bound += 1;
                    right += 1;
                    steps -= 1;
                    continue;
                }
                let pos = right;
                right += 1;
                steps -= 1;
                binv = self.filter_or_evaluate(row, pos, xn, gx, xs, binv, state, stats);
            }
            if left == 0 && right >= fin {
                break;
            }
        }
        // NaN-key candidates (non-finite center coordinates in the sort
        // dimension) are never covered by the side stops: scan them
        // unconditionally. The seed can land here when every key is NaN
        // — skip its re-evaluation.
        for pos in fin..m {
            if pos == seed {
                continue;
            }
            stats.distance_computations += 1;
            self.evaluate(row, pos, state);
        }
    }

    /// One annulus candidate: the secondary `O(1)` filters (norm bound
    /// with margin, second coordinate gap), then the canonical
    /// evaluation. Returns the up-to-date threshold.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn filter_or_evaluate(
        &self,
        row: &[f64],
        pos: usize,
        xn: f64,
        gx: f64,
        xs: f64,
        binv: f64,
        state: &mut State,
        stats: &mut KernelStats,
    ) -> f64 {
        // Cheapest first: the margin-free second-coordinate gap, then
        // the norm bound with its conservative margin.
        let gs = xs - self.sec[pos];
        if gs * gs > binv {
            stats.pruned_by_norm_bound += 1;
            return binv;
        }
        let nc = self.norms[pos];
        let base = (xn - nc).abs() - (gx + self.guard * nc);
        if base > 0.0 && base * base > binv {
            stats.pruned_by_norm_bound += 1;
            return binv;
        }
        stats.distance_computations += 1;
        let before = state.best;
        self.evaluate(row, pos, state);
        if state.best < before {
            self.threshold(state.best)
        } else {
            binv
        }
    }

    /// Cold seed selection: among a small neighborhood of the key-nearest
    /// position, the candidate with the smallest two-feature proxy — one
    /// cheap pass that usually lands on the true cluster, so the first
    /// canonical evaluation already pins `best` tight. (Any deterministic
    /// choice is correct; this only affects how fast the bounds start to
    /// bite.)
    fn proxy_seed(&self, xk: f64, xs: f64, xn: f64) -> usize {
        let pos0 = self.nearest_key_pos(xk);
        if pos0 >= self.finite_keys {
            return pos0;
        }
        // Window radius grows with the candidate density so the true
        // cluster is almost always inside it.
        let w = (3 + self.order.len() / 16).min(64);
        let lo = pos0.saturating_sub(w);
        let hi = (pos0 + w + 1).min(self.finite_keys);
        let mut best_pos = lo;
        let mut best_proxy = f64::INFINITY;
        for p in lo..hi {
            let gk = xk - self.keys[p];
            let gs = xs - self.sec[p];
            let gn = xn - self.norms[p];
            let proxy = gk * gk + gs * gs + gn * gn;
            if proxy < best_proxy {
                best_proxy = proxy;
                best_pos = p;
            }
        }
        best_pos
    }

    /// The pre-inflated threshold `binv` (module docs): any exact lower
    /// bound exceeding it certifies `canonical > best` *strictly*.
    #[inline(always)]
    fn threshold(&self, best: f64) -> f64 {
        best * self.inv_slack
    }

    /// Position of the candidate whose sort key is closest to `xkey`
    /// (deterministic; any choice is correct — this only decides where
    /// the seed evaluation lands).
    fn nearest_key_pos(&self, xkey: f64) -> usize {
        let m = self.keys.len();
        let p = self
            .keys
            .partition_point(|v| v.total_cmp(&xkey) == std::cmp::Ordering::Less);
        if p == 0 {
            return 0;
        }
        if p >= m {
            return m - 1;
        }
        // Prefer the left neighbor on a smaller-or-equal gap; NaN gaps
        // compare false and fall through to `p`.
        if (xkey - self.keys[p - 1]).abs() <= (self.keys[p] - xkey).abs() {
            p - 1
        } else {
            p
        }
    }

    /// Evaluates sorted candidate `pos` canonically and applies the
    /// order-free selection rule (module docs):
    /// * strict improvement takes `(value, index)`;
    /// * an exact tie is taken only from an already-*improving* state
    ///   and only by a lower center index (a tie with the carried-in
    ///   best of an update never replaces it — scalar strict `<`).
    ///
    /// The canonical abandon bound is `best.next_up()`: an abandoned
    /// value then proves `canonical > best`, so neither an improvement
    /// nor an exact tie can be missed.
    #[inline]
    fn evaluate(&self, row: &[f64], pos: usize, state: &mut State) {
        let c = self.order[pos];
        let dj = sq_dist_bounded(row, self.rows.row(pos), state.best.next_up());
        if dj < state.best {
            state.best = dj;
            state.new_label = c;
        } else if state.new_label != u32::MAX && dj == state.best && c < state.new_label {
            state.new_label = c;
        }
    }
}

/// Per-point running state: the minimum canonical distance seen
/// (initialized from the carried `d²`) and the original index of the
/// best *improving* candidate (`u32::MAX` while no candidate has
/// strictly improved on the carried value).
struct State {
    best: f64,
    new_label: u32,
}

/// Euclidean norm of one row, on four independent accumulation lanes
/// (order-free: only used inside the conservatively-slacked prune
/// bounds, never in a reported value).
#[inline]
fn norm(row: &[f64]) -> f64 {
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut chunks = row.chunks_exact(4);
    for c in &mut chunks {
        s0 += c[0] * c[0];
        s1 += c[1] * c[1];
        s2 += c[2] * c[2];
        s3 += c[3] * c[3];
    }
    for &x in chunks.remainder() {
        s0 += x * x;
    }
    ((s0 + s1) + (s2 + s3)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::nearest;
    use kmeans_util::Rng;

    fn random_matrix(n: usize, d: usize, rng: &mut Rng, scale: f64) -> PointMatrix {
        let mut m = PointMatrix::new(d);
        for _ in 0..n {
            let row: Vec<f64> = (0..d).map(|_| rng.normal() * scale).collect();
            m.push(&row).unwrap();
        }
        m
    }

    fn scalar_assign(points: &PointMatrix, centers: &PointMatrix) -> (Vec<u32>, Vec<f64>) {
        points
            .rows()
            .map(|row| {
                let (c, d2) = nearest(row, centers);
                (c as u32, d2)
            })
            .unzip()
    }

    fn assert_kernel_matches(points: &PointMatrix, centers: &PointMatrix, what: &str) {
        let (ref_labels, ref_d2) = scalar_assign(points, centers);
        let kernel = AssignKernel::new(centers);
        let n = points.len();
        let mut labels = vec![99u32; n];
        let mut d2 = vec![-1.0f64; n];
        kernel.assign(points, 0..n, &mut labels, &mut d2);
        assert_eq!(labels, ref_labels, "{what}");
        let bits: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
        let ref_bits: Vec<u64> = ref_d2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, ref_bits, "{what}");
    }

    #[test]
    fn assign_matches_nearest_bitwise_across_shapes() {
        let mut rng = Rng::new(11);
        for &(n, d, k) in &[
            (1usize, 1usize, 1usize),
            (7, 3, 5),
            (40, 9, 13),
            (65, 16, 20),
            (33, 2, 64),
        ] {
            let points = random_matrix(n, d, &mut rng, 3.0);
            let centers = random_matrix(k, d, &mut rng, 3.0);
            assert_kernel_matches(&points, &centers, &format!("n={n} d={d} k={k}"));
        }
    }

    #[test]
    fn update_matches_scalar_suffix_scan() {
        let mut rng = Rng::new(5);
        let points = random_matrix(50, 6, &mut rng, 2.0);
        let mut centers = random_matrix(4, 6, &mut rng, 2.0);
        let kernel0 = AssignKernel::new(&centers);
        let mut labels = vec![0u32; 50];
        let mut d2 = vec![0.0f64; 50];
        kernel0.assign(&points, 0..50, &mut labels, &mut d2);
        // Grow the center set (with deliberate duplicates of existing
        // centers to exercise carried-best ties) and update incrementally.
        let from = centers.len();
        let dup: Vec<f64> = centers.row(1).to_vec();
        centers.push(&dup).unwrap();
        for _ in 0..11 {
            let row: Vec<f64> = (0..6).map(|_| rng.normal() * 2.0).collect();
            centers.push(&row).unwrap();
        }
        // Scalar reference: the tracker-update loop.
        let (mut ref_labels, mut ref_d2) = (labels.clone(), d2.clone());
        for (i, row) in points.rows().enumerate() {
            let mut best = ref_d2[i];
            let mut best_id = u32::MAX;
            for c in from..centers.len() {
                let dist = crate::distance::sq_dist_bounded(row, centers.row(c), best);
                if dist < best {
                    best = dist;
                    best_id = c as u32;
                }
            }
            if best_id != u32::MAX {
                ref_d2[i] = best;
                ref_labels[i] = best_id;
            }
        }
        let kernel = AssignKernel::suffix(&centers, from);
        let (mut got_labels, mut got_d2) = (labels.clone(), d2.clone());
        kernel.update(&points, 0..50, &mut got_labels, &mut got_d2);
        assert_eq!(got_labels, ref_labels);
        let bits: Vec<u64> = got_d2.iter().map(|v| v.to_bits()).collect();
        let ref_bits: Vec<u64> = ref_d2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, ref_bits);
    }

    #[test]
    fn duplicate_centers_tie_break_to_lowest_index() {
        let centers =
            PointMatrix::from_flat(vec![5.0, 5.0, 1.0, 1.0, 5.0, 5.0, 1.0, 1.0], 2).unwrap();
        // (3,3) is exactly equidistant from every center: index 0 wins.
        let points = PointMatrix::from_flat(vec![5.0, 5.0, 1.0, 1.0, 3.0, 3.0], 2).unwrap();
        assert_kernel_matches(&points, &centers, "small tie grid");
        let kernel = AssignKernel::new(&centers);
        let mut labels = vec![9u32; 3];
        let mut d2 = vec![0.0f64; 3];
        kernel.assign(&points, 0..3, &mut labels, &mut d2);
        assert_eq!(labels, vec![0, 1, 0]);
        assert_eq!(d2[0], 0.0);
    }

    #[test]
    fn duplicate_centers_tie_break_with_pruning_enabled() {
        // Same tie structure but ≥ PRUNE_MIN_CANDIDATES candidates, so
        // the annulus sweep and every filter are active: an exact-tie
        // candidate with a lower index must never be pruned away.
        let mut centers = PointMatrix::new(2);
        for _ in 0..3 {
            centers.push(&[5.0, 5.0]).unwrap();
            centers.push(&[1.0, 1.0]).unwrap();
        }
        centers.push(&[40.0, -3.0]).unwrap();
        centers.push(&[-17.0, 22.0]).unwrap();
        let points = PointMatrix::from_flat(vec![5.0, 5.0, 1.0, 1.0, 3.0, 3.0], 2).unwrap();
        let (ref_labels, _) = scalar_assign(&points, &centers);
        assert_eq!(ref_labels, vec![0, 1, 0], "scalar sanity");
        assert_kernel_matches(&points, &centers, "pruned tie grid");
    }

    #[test]
    fn pruning_fires_and_stays_exact_on_separated_data() {
        let mut rng = Rng::new(3);
        // Well-separated blobs with many centers: the norm bound must
        // actually skip work here, and results must still match bitwise.
        let mut points = PointMatrix::new(16);
        let mut centers = PointMatrix::new(16);
        for b in 0..16 {
            let base = b as f64 * 50.0;
            let c: Vec<f64> = (0..16).map(|_| base + rng.normal()).collect();
            centers.push(&c).unwrap();
            for _ in 0..20 {
                let p: Vec<f64> = (0..16).map(|_| base + rng.normal()).collect();
                points.push(&p).unwrap();
            }
        }
        assert_kernel_matches(&points, &centers, "separated blobs");
        let kernel = AssignKernel::new(&centers);
        let mut labels = vec![0u32; points.len()];
        let mut d2 = vec![0.0f64; points.len()];
        let stats = kernel.assign(&points, 0..points.len(), &mut labels, &mut d2);
        assert!(
            stats.pruned_by_norm_bound > 0,
            "norm bound pruned nothing on separated blobs: {stats:?}"
        );
        assert_eq!(
            stats.distance_computations + stats.pruned_by_norm_bound,
            (points.len() * centers.len()) as u64,
            "every pair is either computed or pruned"
        );
    }

    #[test]
    fn non_finite_inputs_match_scalar_and_disable_pruning() {
        // Below and above the pruning gate, with NaN/∞ in both points
        // and centers.
        let mut centers = PointMatrix::new(2);
        centers.push(&[f64::NAN, 0.0]).unwrap();
        centers.push(&[1.0, 1.0]).unwrap();
        centers.push(&[f64::INFINITY, 2.0]).unwrap();
        centers.push(&[3.0, 3.0]).unwrap();
        let points = PointMatrix::from_flat(
            vec![
                1.0,
                1.0,
                f64::NAN,
                5.0,
                f64::INFINITY,
                f64::INFINITY,
                3.0,
                3.0,
            ],
            2,
        )
        .unwrap();
        assert_kernel_matches(&points, &centers, "non-finite small");
        for i in 0..8 {
            centers.push(&[i as f64 * 7.0, -(i as f64)]).unwrap();
        }
        centers.push(&[f64::NEG_INFINITY, 0.0]).unwrap();
        assert_kernel_matches(&points, &centers, "non-finite pruned");
    }

    #[test]
    fn update_past_the_end_is_a_noop() {
        let centers = PointMatrix::from_flat(vec![0.0, 10.0], 1).unwrap();
        let points = PointMatrix::from_flat(vec![1.0, 9.0], 1).unwrap();
        let kernel = AssignKernel::new(&centers);
        let mut labels = vec![0u32; 2];
        let mut d2 = vec![0.0f64; 2];
        kernel.assign(&points, 0..2, &mut labels, &mut d2);
        let snapshot = (labels.clone(), d2.clone());
        let empty = AssignKernel::suffix(&centers, 2);
        let stats = empty.update(&points, 0..2, &mut labels, &mut d2);
        assert_eq!((labels, d2), snapshot);
        assert_eq!(stats, KernelStats::default());
    }

    #[test]
    fn stats_are_independent_of_row_grouping() {
        let mut rng = Rng::new(9);
        let points = random_matrix(200, 12, &mut rng, 10.0);
        let centers = random_matrix(32, 12, &mut rng, 10.0);
        let kernel = AssignKernel::new(&centers);
        let mut labels = vec![0u32; 200];
        let mut d2 = vec![0.0f64; 200];
        let whole = kernel.assign(&points, 0..200, &mut labels, &mut d2);
        // Same rows, processed in uneven pieces: identical counters.
        let mut pieced = KernelStats::default();
        for (start, end) in [(0usize, 13usize), (13, 130), (130, 200)] {
            pieced.absorb(kernel.assign(
                &points,
                start..end,
                &mut labels[start..end],
                &mut d2[start..end],
            ));
        }
        assert_eq!(whole, pieced);
    }

    #[test]
    #[should_panic(expected = "no centers")]
    fn empty_centers_panic() {
        let centers = PointMatrix::new(1);
        let points = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        AssignKernel::new(&centers).assign(&points, 0..1, &mut [0], &mut [0.0]);
    }
}
