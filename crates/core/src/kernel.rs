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
//!  per point x:  seed s = (update) the tracked center, D_s carried
//!                       | (warm) the previous pass's center
//!                       | (cold) binary-search x[j*], proxy-pick nearby
//!                (warm/cold: one canonical evaluation gives D_s) →
//!                D_s below the overflow limit of s's 16-entry list, or
//!                of its 64-entry extension while D_s reaches the limits
//!                of fewer than ¾ of the candidates: evaluate the listed
//!                candidates whose limit D_s reaches, done →
//!                otherwise walk outward
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
//! * **Seeded best** — each point starts from one candidate, so `best`
//!   is tight before anything else runs. A *cold* sweep
//!   ([`AssignKernel::assign`]) binary-searches the point's key into the
//!   sorted order and picks a nearby candidate by a cheap proxy. A *warm*
//!   sweep ([`AssignKernel::assign_warm`]) seeds at the point's *hint*,
//!   located through the inverse sort order with no search at all: in
//!   every Lloyd pass after the first, the center the point held in the
//!   previous pass; in the two passes at the seed centers that follow
//!   k-means|| (the seed-cost potential and the first Lloyd pass), the
//!   center nearest the point's tracked candidate. Hints are untrusted:
//!   one `≥ k` takes the cold seed search.
//!   An *update* ([`AssignKernel::update`], every k-means|| and k-means++
//!   round) seeds at the earlier center the tracker already holds for the
//!   point, whose distance is the carried `d²` — no evaluation at all.
//! * **The separation-list step** — every sweep runs it after the seed,
//!   and it finishes most points. Each kernel keeps, per candidate, a
//!   list of its `L = 16` nearest other candidates by canonical squared
//!   separation `S`, stored as *certificate limits* `S·(1−g)/(4·(1+g))`
//!   in ascending order, plus an *overflow limit* no larger than the
//!   limit of any candidate the list leaves out (the last entry's limit
//!   when it leaves none out). A suffix kernel also keeps such a list
//!   from every earlier center `a < from` into its candidates. With
//!   `D_s` the seed's complete canonical distance, a point whose `D_s` is
//!   below the seed's overflow limit evaluates only the listed candidates
//!   whose limit is `≤ D_s` and is done: every other candidate `c` has
//!   `D_s < limit(S_sc)`, which proves it strictly farther than `D_s`
//!   (below). Otherwise (past an own list's extension, below) the
//!   outward walk runs from the seed, exactly as without lists. The
//!   seeds that qualify are the update's tracked center (its row is
//!   never even read when nothing on the list needs evaluating), the
//!   warm hint, and the cold proxy seed once its evaluation has strictly
//!   improved on the carried best (an abandoned
//!   evaluation is not a complete distance). The old *half-separation
//!   certificate* — `4·D_a < S_a` with `S_a` the smallest separation of
//!   `a`, finishing the point after one evaluation — is the zero-length
//!   prefix of `a`'s list: its first entry's limit. A candidate's own
//!   list continues into a 64-entry extension for the rows its 16
//!   entries cannot finish ("Rows between clusters" below).
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
//!    abandon, which uses `best.next_up()` as its bound, and the
//!    separation-list certificate, which skips every candidate whose
//!    limit the seed's distance stays below — guarantees the strict
//!    inequality). A skipped candidate can therefore never be the
//!    minimizer, nor a lower-index holder of an exact tie — which is also
//!    why the list's own evaluation order needs no care.
//!
//! # Rows between clusters
//!
//! A row near the boundary of its center's cluster can have a distance
//! `D_s` at or above its seed's overflow limit: no 16-entry list
//! certifies it. Every own list (a candidate's list over the other
//! candidates) therefore has an extension to `64` entries, the same kind
//! of list with its own overflow limit, built by the kernel's list walk
//! for that one owner under a `OnceLock` the first time a row's `D_s`
//! reaches the 16-entry overflow limit. The carried lower bound then
//! reads the extension instead of the eager list, so a row between
//! clusters gets a lower bound that reaches past the 16 nearest centers,
//! tight enough to settle it in later bounded Lloyd passes.
//!
//! The list step runs the extension too, so such a row finishes on a
//! list, unless the entries whose limit `D_s` reaches make up ¾ of the
//! other candidates or more: the step evaluates them one pair at a time
//! behind the key and second-coordinate gaps alone, and the walk, whose
//! norm filter drops more of them, finishes such a *crowded* row for
//! less. Which list a row runs depends on `D_s` and the list's limits
//! alone, never on whether another row built the extension first, so the
//! counters stay a function of each row.
//!
//! The extensions are lazy because eager 64-entry lists make a kernel
//! build 2–3× as long (at k = 100, d = 42: 330–346 µs against
//! 116–153 µs), and most kernels never need them (on `KddLike` data at
//! k = 100, 2 over 79 full-center kernels). Cross lists (from earlier
//! centers into an update's suffix) have no extension: a tracked row
//! their 16 entries cannot finish is usually far from the tracked center,
//! where the cold seed's own list is far cheaper than evaluating the many
//! extension entries its distance reaches.
//!
//! # Carried bounds
//!
//! A bounded Lloyd pass ([`crate::chunked`]) settles most rows without
//! calling the kernel at all, on two bounds per row that the kernel
//! provides: the upper bound `√D·(1+g)` to the row's nearest center `w`
//! at canonical `d²` `D`, and a lower bound to every other center read
//! from `w`'s own separation list (`other_bound`) — the eager list, or
//! its extension once `D` reaches the eager overflow limit: the listed
//! centers whose limit `D` reaches are evaluated canonically, and every
//! other center `c` is at least `√S_wc − √D` away by the triangle
//! inequality, with `√(4·limit)` standing for `√S` (the limit's
//! `(1−g)/(1+g)` factor makes it smaller). The bounds bound *true*
//! distances: each term carries the `g = (2d+16)·ε` slack below against
//! the canonical value's relative error, plus an absolute `1e-150` for
//! squares that underflow.
//! A pass that settles a row on them (its upper bound, moved by its
//! center's drift, below its lower bound, moved by the largest other
//! drift — both again with the slack) has proven the row's canonical
//! distance to its center strictly below every other center's, so the
//! sweep would have returned the same label. The same holds for the
//! settle limit, the zero-length prefix of the center's own list, which
//! `settle_tracked` applies to update rows. The lower bound depends on
//! the row and the centers alone, never on the seed the sweep started
//! from, so a row's bounds — like its label — are the same on every
//! backend and after a recovered worker's cold replay.
//!
//! The per-point decision sequence is a pure function of the point, the
//! sorted candidate set, the carried state and the point's hint — how
//! points are grouped into shards, chunked-source blocks, or batches
//! cannot change any outcome, which also makes [`KernelStats`]
//! deterministic across thread counts and block sizes (and, since every
//! backend passes the labels of its previous pass as hints and its
//! tracker's nearest ids as carried labels, across backends). Whether a
//! seed has a usable list depends on the candidates alone, never on the
//! rows of a call.
//!
//! # The carried-state contract of an update
//!
//! [`AssignKernel::update`] trusts one thing about its input: a carried
//! label `a < from` *tracks* its row, meaning the carried `d²` is the
//! canonical squared distance from the row to center `a`. Every cost
//! tracker keeps this by construction (its `d²` and nearest ids only
//! ever come from this kernel). Labels `≥ from` — including `u32::MAX`
//! and every label of a kernel with `from = 0` — and non-finite carried
//! values make no promise and take the seed search and walk. Debug
//! builds check the contract on every tracked row.
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
//! **The separation certificate.** With the same `g = (2d+16)·ε`, a
//! point with seed `s` skips candidate `c` only when
//!
//! ```text
//! 4·D_s·(1+g) < S_sc·(1−g)       (precomputed per list entry as
//!                                 D_s < limit(S_sc) = S_sc·(1−g)/(4·(1+g)))
//! ```
//!
//! Write `T` for true squared distances. Every canonical value is within
//! a relative `δ ≤ (d+2)·ε` of its `T` in either direction (the bound
//! above), so `g > 1.5·δ`. To first order in `ε`, the test gives
//! `T_sc > 4·T_s·(1+2g−2δ)`; the triangle inequality
//! `√T_c ≥ √T_sc − √T_s` then gives `T_c > T_s·(1+4g−4δ)`, and
//! `D_c ≥ T_c·(1−δ) > D_s·(1+4g−6δ) > D_s`: `c`'s canonical distance is
//! *strictly* larger than `D_s`, hence than the best, which is `≤ D_s`.
//! The few roundings in the precomputed limit cost another few `ε`, far
//! inside the margin. The proof needs `D_s` to be the complete canonical
//! distance from the point to `s` — an evaluation that improved on the
//! best, or, in an update, the carried value the contract above vouches
//! for.
//!
//! The list step applies the test to each listed pair, and to every
//! unlisted pair at once through the overflow limit: a list holds its
//! owner's `L` nearest candidates, every candidate left out has
//! `S ≥ S_{L+1}` (the nearest left-out separation), and the limit is
//! monotone in `S`, so `limit(S_{L+1})` bounds every left-out limit from
//! below. The `L + 1` nearest are found by the kernel's own walk run over
//! the candidates with the `(L+1)`-th nearest separation as its `best`:
//! the key gaps, the second coordinate and the norm bound are certified
//! lower bounds, so each candidate they drop is farther still, and the
//! build evaluates close to `L + 1` separations per owner instead of all
//! `m`. A listed candidate the certificate cannot rule out still meets
//! the key and second-coordinate gap filters before it is evaluated.
//!
//! Separations below `2⁻⁹⁷⁰` get limit `0.0`, which keeps underflowed
//! squares irrelevant; so do NaN, ±∞ and zero separations — such entries
//! are always evaluated and never certify. Duplicate centers have
//! `S = 0`. Lists are only built over candidate sets whose coordinates
//! are all finite and below `1e120` in magnitude (an earlier center
//! outside that range gets overflow limit `0.0` and no usable list), so
//! every separation is finite and the walk sees every candidate. A NaN or
//! ∞ `D_s` fails the strict `<` against the overflow limit and takes the
//! walk.

use crate::distance::sq_dist_bounded;
use kmeans_data::PointMatrix;
use std::ops::Range;
use std::sync::OnceLock;

/// Minimum candidate count for the pruned sweep to pay for the `O(d)`
/// point-norm precomputation and the seed search; below it the kernel
/// scans every candidate canonically (still bit-identical).
const PRUNE_MIN_CANDIDATES: usize = 8;

/// Entries per separation list: each seed keeps its `LIST_LEN` nearest
/// candidates (fewer when the kernel has fewer), and the overflow limit
/// stands for all the others.
const LIST_LEN: usize = 16;

/// Entries per separation list's extension, built for one owner by the
/// first row whose distance reaches the owner's `LIST_LEN`-entry
/// overflow limit (module docs, "Rows between clusters").
const LONG_LEN: usize = 64;

/// Smallest center separation `S` a certificate limit accepts: `2⁻⁹⁷⁰`,
/// far above the subnormal range, so the absolute error of squares that
/// underflow (at most `d·2⁻¹⁰⁷⁵`) stays below `d·2⁻¹⁰²` relative to
/// every distance the certificate reasons about — negligible next to the
/// guard (module docs).
const CERT_FLOOR: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// Largest coordinate magnitude a row may have to take part in the
/// separation lists: `1e120`, so no squared separation can overflow
/// (`d·4e240` stays finite for any realistic `d`). Lists are built only
/// over candidate sets whose every coordinate is within it, which also
/// keeps NaN and ±∞ out of them.
const LIST_MAX_COORD: f64 = 1e120;

/// Absolute slack, in distance units (not squared), that every carried
/// bound of a bounded Lloyd pass adds to an upper bound and takes from a
/// lower one: `1e-150`, far above the `√(d·2⁻¹⁰⁷⁵)` by which squares that
/// underflow can move a canonical distance from the true one, so the
/// relative `(2d+16)·ε` slack only has to cover normal rounding. A lower
/// bound that cannot clear it is `0.0`, which settles nothing.
pub(crate) const BOUND_FLOOR: f64 = 1e-150;

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
    /// coordinate-gap lower bounds (wholesale side stops included) or
    /// by a seed's separation list.
    pub pruned_by_norm_bound: u64,
}

impl KernelStats {
    /// Adds another call's counters into this one.
    pub fn absorb(&mut self, other: KernelStats) {
        self.distance_computations += other.distance_computations;
        self.pruned_by_norm_bound += other.pruned_by_norm_bound;
    }
}

/// A candidate set prepared for batch assignment: a key-sorted copy of
/// the centers (or of the suffix `from..` for incremental updates), the
/// compact per-candidate feature table, the separation lists, and the
/// slack constants.
///
/// Construction costs `O(k·d + m log m)` for the sorted copy (`m = k −
/// from` candidates) plus one pruned nearest-neighbor walk per list
/// owner: each of the `m` candidates (when `m ≥ 8`) and, for a suffix
/// kernel, each of the `from` earlier centers. A walk evaluates at least
/// `min(17, m)` canonical separations and at most `m`, so the list build
/// is `O((from + m)·m·d)` in the worst case and close to
/// `O((from + m)·17·d)` when the candidates spread along their sort key;
/// [`AssignKernel::without_lists`] skips it for sweeps too short to repay
/// it. Every subsequent [`AssignKernel::assign`] /
/// [`AssignKernel::update`] call reuses the prepared kernel. The kernel
/// is `Sync`, so one instance is shared across the executor's worker
/// threads.
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
    /// Sorted position of each candidate `from + i` at index `i` — the
    /// inverse of `order`, which places a warm hint.
    pos: Vec<u32>,
    /// Separation lists of the candidates themselves, one per sorted
    /// position (none when `m < PRUNE_MIN_CANDIDATES`).
    own: SepLists,
    /// Separation lists from each earlier center `a < from` into the
    /// candidates, one per `a` (none for a full kernel).
    cross: SepLists,
    /// The earlier centers, kept in debug builds only to check the
    /// carried-state contract of [`AssignKernel::update`].
    #[cfg(debug_assertions)]
    earlier: PointMatrix,
}

/// One separation-list entry: a candidate (by sorted position) and its
/// certificate limit `S·(1−g)/(4·(1+g))` for the list's owner (module
/// docs, "The separation-list step").
#[derive(Clone, Copy, Debug)]
struct Near {
    limit: f64,
    pos: u32,
}

/// Separation lists for a set of owners, `stride` entries each, ascending
/// by limit, plus each owner's overflow limit: a certified lower bound on
/// the limit of every candidate its list leaves out (the last entry's
/// limit when the list leaves none out, so the step still certifies at
/// least one candidate; `0.0` when the owner has no usable list). Empty
/// when the kernel keeps no lists of this kind. The own lists also keep
/// one longer list per owner, its extension, built on first need.
#[derive(Debug, Default)]
struct SepLists {
    stride: usize,
    /// Candidates each owner's list ranges over.
    others: usize,
    near: Vec<Near>,
    over: Vec<f64>,
    /// Own lists only: each owner's `LONG_LEN`-entry list (fewer when
    /// there are fewer others) and its overflow limit, built by the first
    /// row that needs it ([`AssignKernel::reach`]).
    long: Vec<OnceLock<(Box<[Near]>, f64)>>,
}

impl SepLists {
    /// Owner `s`'s entries and overflow limit, if the kernel keeps lists.
    #[inline(always)]
    fn get(&self, s: usize) -> Option<(&[Near], f64)> {
        let over = *self.over.get(s)?;
        Some((&self.near[s * self.stride..(s + 1) * self.stride], over))
    }
}

impl AssignKernel {
    /// Prepares a full-assignment kernel over `centers`.
    pub fn new(centers: &PointMatrix) -> Self {
        Self::suffix(centers, 0)
    }

    /// [`AssignKernel::new`] without separation lists, for one sweep over
    /// about as many rows as there are centers — a mini-batch step — where
    /// building them (a nearest-neighbor walk per center) costs more than
    /// they save. Same results; every sweep walks from its seed, as it
    /// would from a seed whose list does not apply.
    pub fn without_lists(centers: &PointMatrix) -> Self {
        Self::prepare(centers, 0, false)
    }

    /// Prepares an incremental-update kernel over the candidate suffix
    /// `centers[from..]` (the shape of every tracker update: earlier
    /// centers are already incorporated in the carried `d²`). `from ≥ k`
    /// yields an empty kernel whose update is a no-op.
    pub fn suffix(centers: &PointMatrix, from: usize) -> Self {
        Self::prepare(centers, from, true)
    }

    fn prepare(centers: &PointMatrix, from: usize, lists: bool) -> Self {
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
        let mut pos = vec![0u32; order.len()];
        for (p, &c) in order.iter().enumerate() {
            pos[c as usize - from] = p as u32;
        }
        let guard = (2.0 * dim as f64 + 16.0) * f64::EPSILON;
        let mut kernel = AssignKernel {
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
            pos,
            own: SepLists::default(),
            cross: SepLists::default(),
            #[cfg(debug_assertions)]
            earlier: PointMatrix::from_flat(centers.as_slice()[..from * dim].to_vec(), dim)
                .expect("a prefix of a center matrix is a center matrix"),
        };
        // Lists exist only over tame candidates (every separation finite,
        // and the sorted-key walk sees every candidate), and depend on
        // nothing but the candidates — so whether a point may use one is
        // never a property of the rows of a call.
        if lists && m > 0 && (0..m).all(|p| tame(kernel.rows.row(p))) {
            if m >= PRUNE_MIN_CANDIDATES {
                let own = (0..m).map(|p| (kernel.rows.row(p), p));
                kernel.own = kernel.sep_lists(own, m - 1);
                kernel.own.long = std::iter::repeat_with(OnceLock::new).take(m).collect();
            }
            if from > 0 {
                let cross = (0..from).map(|a| (centers.row(a), usize::MAX));
                kernel.cross = kernel.sep_lists(cross, m);
            }
        }
        kernel
    }

    /// One separation list per `(owner row, own sorted position)`, over
    /// `others` candidates each (every candidate but the owner's own
    /// position).
    fn sep_lists<'c>(
        &self,
        owners: impl ExactSizeIterator<Item = (&'c [f64], usize)>,
        others: usize,
    ) -> SepLists {
        let stride = LIST_LEN.min(others);
        let mut near = Vec::with_capacity(owners.len() * stride);
        let mut over = Vec::with_capacity(owners.len());
        let mut top = Vec::with_capacity(stride + 2);
        for (row, skip) in owners {
            over.push(self.one_list(row, skip, stride, others, &mut top, &mut near));
        }
        SepLists {
            stride,
            others,
            near,
            over,
            long: Vec::new(),
        }
    }

    /// Appends the `stride` entries of the separation list of `row` (at
    /// sorted position `skip`, or none) over `others` candidates to
    /// `near`, and returns its overflow limit. An owner that is not
    /// [`tame`] gets overflow limit `0.0`, so it never uses its list.
    fn one_list(
        &self,
        row: &[f64],
        skip: usize,
        stride: usize,
        others: usize,
        top: &mut Vec<(f64, u32)>,
        near: &mut Vec<Near>,
    ) -> f64 {
        if !tame(row) {
            let filler = Near { limit: 0.0, pos: 0 };
            near.extend(std::iter::repeat_n(filler, stride));
            return 0.0;
        }
        // One more than the list holds when some candidates stay out: the
        // nearest of those sets the overflow limit.
        let want = stride + usize::from(others > stride);
        self.nearest_separations(row, skip, want, top);
        near.extend(top[..stride].iter().map(|&(s, pos)| Near {
            limit: self.cert_limit(s),
            pos,
        }));
        // A list that holds every candidate is only worth running while it
        // certifies at least one of them.
        let bound = top.get(stride).unwrap_or(&top[stride - 1]);
        self.cert_limit(bound.0)
    }

    /// The own list a row at complete canonical distance `dist` from the
    /// candidate at sorted position `s` runs: the eager list while `dist`
    /// stays below its overflow limit or the list holds every candidate,
    /// otherwise its extension, which the first row to get here builds.
    /// Whether a row gets the extension depends on the row and the
    /// candidates alone, never on whether another row built it first.
    /// `None` when the kernel keeps no own lists.
    #[inline]
    fn reach(&self, s: usize, dist: f64) -> Option<(&[Near], f64)> {
        let lists = &self.own;
        let (near, over) = lists.get(s)?;
        if !(dist >= over && dist.is_finite()) || lists.stride == lists.others {
            return Some((near, over));
        }
        let (near, over) = lists.long[s].get_or_init(|| {
            let stride = LONG_LEN.min(lists.others);
            let mut near = Vec::with_capacity(stride);
            let row = self.rows.row(s);
            let over = self.one_list(row, s, stride, lists.others, &mut Vec::new(), &mut near);
            (near.into_boxed_slice(), over)
        });
        Some((near, *over))
    }

    /// How many own separation lists have been extended so far (module
    /// docs, "Rows between clusters"): a function of the rows this kernel
    /// has swept and their seeds, whatever their grouping, thread count or
    /// order.
    pub fn extended_lists(&self) -> usize {
        self.own.long.iter().filter(|l| l.get().is_some()).count()
    }

    /// The `want` candidates nearest to `row` by canonical separation
    /// (skipping sorted position `skip`), into `top` ascending. The
    /// kernel's own pruned walk: start at the row's key position and step
    /// outward on both sides, stopping a side once its key gap certifies
    /// everything beyond it farther than the current `want`-th nearest,
    /// and dropping candidates on the second-coordinate and norm bounds
    /// (module docs: all are certified lower bounds). Every candidate left
    /// out is therefore at least as far as the last one kept. Requires
    /// tame rows throughout, and at least `want` candidates besides
    /// `skip`.
    fn nearest_separations(
        &self,
        row: &[f64],
        skip: usize,
        want: usize,
        top: &mut Vec<(f64, u32)>,
    ) {
        top.clear();
        let m = self.order.len();
        let xk = row[self.key_dim];
        let xs = if self.dim > 1 { row[self.sec_dim] } else { 0.0 };
        let xn = norm(row);
        let gx = self.guard * xn;
        let mut thr = f64::INFINITY;
        let mut binv = f64::INFINITY;
        let mut offer = |pos: usize, thr: &mut f64, binv: &mut f64| {
            if self.secondary_prune(pos, xs, xn, gx, *binv) {
                return;
            }
            let s = sq_dist_bounded(row, self.rows.row(pos), *thr);
            if s < *thr {
                let at = top.partition_point(|&(t, _)| t <= s);
                top.insert(at, (s, pos as u32));
                top.truncate(want);
                if top.len() == want {
                    *thr = top[want - 1].0;
                    *binv = self.threshold(*thr);
                }
            }
        };
        // Keys below `split` are strictly smaller than the row's, the rest
        // at least as large: the gaps grow monotonically on both sides.
        let split = self.keys.partition_point(|&v| v < xk);
        let (mut left, mut right) = (split, split);
        while left > 0 || right < m {
            if left > 0 {
                let gk = xk - self.keys[left - 1];
                if gk * gk > binv {
                    left = 0;
                } else {
                    left -= 1;
                    if left != skip {
                        offer(left, &mut thr, &mut binv);
                    }
                }
            }
            if right < m {
                let gk = self.keys[right] - xk;
                if gk * gk > binv {
                    right = m;
                } else {
                    if right != skip {
                        offer(right, &mut thr, &mut binv);
                    }
                    right += 1;
                }
            }
        }
    }

    /// The certificate limit of separation `s`: `s·(1−g)/(4·(1+g))`,
    /// monotone in `s`, and `0.0` — which no distance undercuts — for
    /// NaN, infinite, zero and sub-[`CERT_FLOOR`] separations.
    fn cert_limit(&self, s: f64) -> f64 {
        if (CERT_FLOOR..f64::INFINITY).contains(&s) {
            s * ((1.0 - self.guard) / (4.0 * (1.0 + self.guard)))
        } else {
            0.0
        }
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
    /// then runs its separation-list step, which finishes the row after
    /// evaluating only the listed centers the certificate cannot rule out
    /// (module docs); otherwise the usual outward walk runs from it.
    /// Results are bit-identical to [`AssignKernel::assign`] for *any*
    /// hints: a hint `≥ k` (e.g. `u32::MAX`) simply takes the cold seed
    /// search, and `None` is exactly `assign`, counters included. The work
    /// counters are a pure function of each row and its hint.
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
        self.sweep(points, rows, hints, false, labels, d2)
    }

    /// Incremental update against the suffix candidates: each row's
    /// carried `(labels[i], d2[i])` entry is replaced only if some new
    /// center is strictly closer — the exact semantics (and bits) of the
    /// scalar tracker-update loop (suffix scan pruned by the carried
    /// best, strict improvement, lowest new index on ties among equally
    /// improving candidates).
    ///
    /// # Carried-state contract
    ///
    /// A carried label `a < from` *tracks* its row: `d2[i]` must then be
    /// the canonical squared distance from row `i` to center `a` (the
    /// value [`nearest`](crate::distance::nearest) reports), which every
    /// cost tracker keeps by construction. A tracked row with a finite
    /// `d2[i]` starts from `a`'s separation list into the suffix and is
    /// often finished without its coordinates being read. Labels
    /// `≥ from` (e.g. `u32::MAX`) and non-finite `d2[i]` carry no such
    /// promise and take the seed search. Debug builds assert the contract.
    ///
    /// # Panics
    ///
    /// Same shape contract as [`AssignKernel::assign`]; in debug builds,
    /// also if a tracked row's `d2[i]` is not its canonical distance.
    pub fn update(
        &self,
        points: &PointMatrix,
        rows: Range<usize>,
        labels: &mut [u32],
        d2: &mut [f64],
    ) -> KernelStats {
        self.sweep(points, rows, None, true, labels, d2)
    }

    /// The shared batch sweep; `hints` (full kernels only) pick each
    /// row's warm seed, and `tracked` (updates) lets a carried label seed
    /// its row.
    fn sweep(
        &self,
        points: &PointMatrix,
        rows: Range<usize>,
        hints: Option<&[u32]>,
        tracked: bool,
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
        #[cfg(debug_assertions)]
        if tracked {
            for (slot, i) in rows.clone().enumerate() {
                self.check_carried(points.row(i), labels[slot], d2[slot]);
            }
        }
        let pending = tracked.then(|| self.settle_tracked(labels, d2, &mut stats));
        let mut visit = |slot: usize| {
            let row = points.row(rows.start + slot);
            let mut state = State {
                best: d2[slot],
                new_label: u32::MAX,
            };
            if !(tracked && self.tracked_step(row, labels[slot], &mut state, &mut stats)) {
                let hint = hints.and_then(|h| Some(*self.pos.get(h[slot] as usize)? as usize));
                self.search(row, hint, &mut state, &mut stats);
            }
            d2[slot] = state.best;
            if state.new_label != u32::MAX {
                labels[slot] = state.new_label;
            }
        };
        match pending {
            Some(slots) => slots.into_iter().for_each(|slot| visit(slot as usize)),
            None => (0..rows.len()).for_each(visit),
        }
        stats
    }

    /// One row's search from `state`: the pruned sweep from the seed at
    /// sorted position `hint` (or the cold seed search), or — for tiny
    /// candidate sets and non-finite points — a plain sorted scan, every
    /// candidate canonically checked (the exact arithmetic of the scalar
    /// loop, in sorted order).
    #[inline]
    fn search(&self, row: &[f64], hint: Option<usize>, state: &mut State, stats: &mut KernelStats) {
        let m = self.order.len();
        if m >= PRUNE_MIN_CANDIDATES && row[self.key_dim].is_finite() {
            self.scan_pruned(row, hint, state, stats);
        } else {
            for pos in 0..m {
                stats.distance_computations += 1;
                self.evaluate(row, pos, state);
            }
        }
    }

    /// [`AssignKernel::assign_warm`] for one row seeded at center `hint`:
    /// its label and canonical `d²`, the same bits the batch sweep writes.
    pub(crate) fn nearest_warm(
        &self,
        row: &[f64],
        hint: u32,
        stats: &mut KernelStats,
    ) -> (u32, f64) {
        debug_assert_eq!(self.from, 0, "nearest_warm on a suffix kernel");
        let mut state = State {
            best: f64::INFINITY,
            new_label: u32::MAX,
        };
        let hint = self.pos.get(hint as usize).map(|&p| p as usize);
        self.search(row, hint, &mut state, stats);
        let label = if state.new_label == u32::MAX {
            0
        } else {
            state.new_label
        };
        (label, state.best)
    }

    /// The kernel's slack coefficient `g = (2d+16)·ε` (module docs).
    pub(crate) fn guard(&self) -> f64 {
        self.guard
    }

    /// The settle limit of center `c`: the zero-length prefix of its own
    /// separation list, `min(first limit, overflow limit)` — a row whose
    /// canonical `d²` to `c` stays below it has `c` as its unique nearest
    /// center (module docs, "The separation certificate"). `0.0`, which no
    /// distance undercuts, when the kernel keeps no usable list for `c`.
    pub(crate) fn settle_limit(&self, c: usize) -> f64 {
        let Some(&p) = self.pos.get(c) else {
            return 0.0;
        };
        match self.own.get(p as usize) {
            Some((near, over)) => near.first().map_or(0.0, |e| e.limit.min(over)),
            None => 0.0,
        }
    }

    /// A lower bound on the *true* distance (not squared) from `row` to
    /// every center but `label`, its nearest, at canonical squared
    /// distance `dist` — read from `label`'s own separation list alone, so
    /// it depends on the row and the centers, never on how the search
    /// that found `label` was seeded. The listed candidates the
    /// certificate cannot rule out (limit `≤ dist`) are evaluated
    /// canonically; every other candidate `c` is at least
    /// `√S_{label,c} − √T_label` away (triangle inequality), and the first
    /// limit above `dist` (or the overflow limit) bounds `S` for all of
    /// them. Every term carries the kernel's `(2d+16)·ε` slack and the
    /// absolute [`BOUND_FLOOR`], so the bound stays below the true distance
    /// however the canonical values round. `∞` for a single center; `0.0`
    /// when the kernel keeps no usable list for `label` or `dist` is not
    /// finite. The list is the eager list, or its extension once `dist`
    /// reaches the eager overflow limit, whether or not the list step
    /// runs it.
    pub(crate) fn other_bound(
        &self,
        row: &[f64],
        label: u32,
        dist: f64,
        stats: &mut KernelStats,
    ) -> f64 {
        if self.order.len() == 1 {
            return f64::INFINITY;
        }
        let Some(&p) = self.pos.get(label as usize) else {
            return 0.0;
        };
        let Some((near, over)) = self.reach(p as usize, dist) else {
            return 0.0;
        };
        if !dist.is_finite() || over <= 0.0 {
            return 0.0;
        }
        let g = self.guard;
        let root = dist.sqrt() * (1.0 + g) + BOUND_FLOOR;
        // The listed candidates the certificate cannot rule out: a prefix,
        // since limits ascend. The first limit past it bounds the rest —
        // `√(4·limit) ≤ √S` by the limit's `(1−g)/(1+g)` factor — unless
        // the list holds every other candidate and the prefix is all of it.
        let cut = near.partition_point(|e| e.limit <= dist);
        let rest = match near.get(cut) {
            Some(e) => Some(e.limit.min(over)),
            None => (near.len() + 1 < self.order.len()).then_some(over),
        };
        let mut bound = rest.map_or(f64::INFINITY, |limit| {
            ((4.0 * limit).sqrt() - root) * (1.0 - g)
        });
        for e in &near[..cut] {
            if bound <= 0.0 {
                break; // nothing can raise it back above 0
            }
            // A candidate whose `d²` reaches `stop` cannot lower the bound,
            // so its evaluation may stop there: a partial sum is at most
            // the canonical value, and still bounds it from below.
            let stop = (bound + BOUND_FLOOR) / (1.0 - g);
            stats.distance_computations += 1;
            let dc = sq_dist_bounded(row, self.rows.row(e.pos as usize), stop * stop);
            bound = bound.min(dc.sqrt() * (1.0 - g) - BOUND_FLOOR);
        }
        bound.max(0.0)
    }

    /// Settles, in one scan, the update rows that the zero-length prefix
    /// of their tracked center's list finishes — carried `0 ≤ d²` below
    /// both the list's first limit and its overflow limit: nothing to
    /// evaluate, and the row is never read — and returns the
    /// slots of the rest for the per-row path. Whether a row qualifies is
    /// as unpredictable as the data, so the scan stays branch-free: a
    /// mispredicted branch per row costs about what the skipped
    /// evaluation does (k-means++ on `GaussMixture`, d = 15, n = 200k,
    /// single-threaded on a 2-vCPU x86-64 VM: a per-row branch made the
    /// whole seeding ~12% slower than no lists at all).
    fn settle_tracked(&self, labels: &[u32], d2: &[f64], stats: &mut KernelStats) -> Vec<u32> {
        let SepLists {
            stride, near, over, ..
        } = &self.cross;
        if near.is_empty() {
            return (0..labels.len() as u32).collect();
        }
        let mut pending = vec![0u32; labels.len()];
        let mut kept = 0;
        for (slot, (&label, &dist)) in labels.iter().zip(d2).enumerate() {
            let a = label as usize;
            let settle_below = if a < self.from {
                near[a * stride].limit.min(over[a])
            } else {
                0.0
            };
            pending[kept] = slot as u32;
            kept += usize::from(!(0.0..settle_below).contains(&dist));
        }
        pending.truncate(kept);
        stats.pruned_by_norm_bound += ((labels.len() - kept) * self.order.len()) as u64;
        pending
    }

    /// Debug builds: asserts the carried-state contract of
    /// [`AssignKernel::update`] for one row — a carried label `a < from`
    /// with a finite carried `d²` must carry the canonical distance.
    #[cfg(debug_assertions)]
    fn check_carried(&self, row: &[f64], label: u32, dist: f64) {
        let a = label as usize;
        if a < self.from && dist.is_finite() {
            assert_eq!(
                dist.to_bits(),
                sq_dist_bounded(row, self.earlier.row(a), f64::INFINITY).to_bits(),
                "AssignKernel::update: carried d² {dist} is not the canonical distance \
                 to carried label {a}"
            );
        }
    }

    /// The separation-list step of an update row whose carried label
    /// tracks it (`a < from`, finite carried `d²` — the carried-state
    /// contract): evaluates the listed suffix candidates whose limit the
    /// carried distance reaches, then finishes the row. Returns `false`,
    /// having evaluated nothing, when the row is untracked or its distance
    /// reaches the overflow limit.
    #[inline]
    fn tracked_step(
        &self,
        row: &[f64],
        label: u32,
        state: &mut State,
        stats: &mut KernelStats,
    ) -> bool {
        let a = label as usize;
        let dist = state.best;
        if a >= self.from || !dist.is_finite() {
            return false;
        }
        match self.cross.get(a) {
            Some((near, over)) if dist < over => {
                self.list_step(row, near, dist, self.order.len(), state, stats);
                true
            }
            _ => false,
        }
    }

    /// The separation-list step proper: `dist` is the complete canonical
    /// distance to the list's owner and no larger than the current best.
    /// The certificate proves every candidate whose limit `dist` stays
    /// below strictly farther than `dist`; each listed candidate it cannot
    /// rule out still meets the margin-free key and second-coordinate gap
    /// filters before it is evaluated. Everything not evaluated out of the
    /// `rest` candidates counts as pruned.
    #[inline(always)]
    fn list_step(
        &self,
        row: &[f64],
        near: &[Near],
        dist: f64,
        rest: usize,
        state: &mut State,
        stats: &mut KernelStats,
    ) {
        let mut evaluated = 0;
        let mut binv = self.threshold(state.best);
        for e in near {
            if e.limit > dist {
                break;
            }
            let pos = e.pos as usize;
            let gk = row[self.key_dim] - self.keys[pos];
            let gs = if self.dim > 1 {
                row[self.sec_dim] - self.sec[pos]
            } else {
                0.0
            };
            if gk * gk > binv || gs * gs > binv {
                continue;
            }
            evaluated += 1;
            let before = state.best;
            self.evaluate(row, pos, state);
            if state.best < before {
                binv = self.threshold(state.best);
            }
        }
        stats.distance_computations += evaluated as u64;
        stats.pruned_by_norm_bound += (rest - evaluated) as u64;
    }

    /// The separation-list step of a seed at sorted position `seed` that
    /// was just evaluated: when that evaluation strictly improved the
    /// best (so `state.best` is its complete canonical distance) and the
    /// distance is below the overflow limit of the seed's list or of its
    /// extension, runs the list step over the other `m − 1` candidates
    /// and returns `true`. An extension runs only while the entries its
    /// limits leave to evaluate stay below ¾ of those candidates: past
    /// that share the walk's norm filter drops more of them (module docs,
    /// "Rows between clusters").
    #[inline]
    fn own_step(
        &self,
        row: &[f64],
        seed: usize,
        state: &mut State,
        stats: &mut KernelStats,
    ) -> bool {
        if state.new_label == u32::MAX {
            return false;
        }
        let dist = state.best;
        let others = self.order.len() - 1;
        match self.reach(seed, dist) {
            Some((near, over))
                if dist < over
                    && (near.len() <= LIST_LEN
                        || 4 * near.partition_point(|e| e.limit <= dist) < 3 * others) =>
            {
                self.list_step(row, near, dist, others, state, stats);
                true
            }
            _ => false,
        }
    }

    /// The annulus sweep for one point (finite sort key, pruning
    /// enabled): seed at the warm hint's sorted position when given, or
    /// else near the key-nearest candidate; run the seed's
    /// separation-list step, which finishes most points; otherwise walk
    /// each side outward until the monotone key-gap bound certifies the
    /// rest of that side out wholesale.
    fn scan_pruned(
        &self,
        row: &[f64],
        hint: Option<usize>,
        state: &mut State,
        stats: &mut KernelStats,
    ) {
        let m = self.order.len();
        let fin = self.finite_keys;
        let xk = row[self.key_dim];
        let xs = if self.dim > 1 { row[self.sec_dim] } else { 0.0 };
        let (seed, xn) = match hint {
            Some(pos) => {
                stats.distance_computations += 1;
                self.evaluate(row, pos, state);
                if self.own_step(row, pos, state, stats) {
                    return;
                }
                (pos, norm(row))
            }
            None => {
                let xn = norm(row);
                let seed = self.proxy_seed(xk, xs, xn);
                stats.distance_computations += 1;
                self.evaluate(row, seed, state);
                if self.own_step(row, seed, state, stats) {
                    return;
                }
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
        if self.secondary_prune(pos, xs, xn, gx, binv) {
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

    /// The secondary `O(1)` filters of the walk for sorted candidate
    /// `pos`, cheapest first: the margin-free second-coordinate gap, then
    /// the norm bound with its conservative margin. `true` certifies the
    /// candidate's canonical distance strictly above the best behind
    /// `binv` (module docs).
    #[inline(always)]
    fn secondary_prune(&self, pos: usize, xs: f64, xn: f64, gx: f64, binv: f64) -> bool {
        let gs = xs - self.sec[pos];
        if gs * gs > binv {
            return true;
        }
        let nc = self.norms[pos];
        let base = (xn - nc).abs() - (gx + self.guard * nc);
        base > 0.0 && base * base > binv
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

/// Whether a row may take part in the separation lists: every coordinate
/// within [`LIST_MAX_COORD`] in magnitude (so finite, too).
fn tame(row: &[f64]) -> bool {
    row.iter().all(|v| v.abs() <= LIST_MAX_COORD)
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
