//! Flat (CSR) Ising representation and incrementally-maintained local
//! fields — the shared substrate of every Monte-Carlo sweep kernel.
//!
//! [`crate::Ising`] stores its adjacency as `Vec<Vec<(usize, f64)>>`, which
//! is convenient to build but pointer-chases on every neighbor visit.
//! [`CsrIsing`] flattens the mirrored adjacency into three contiguous arrays
//! (`row_ptr` / `col_idx` / `weight`), and [`LocalFieldState`] keeps the
//! effective local field `h_eff[k] = h_k + Σ_j J_kj s_j` cached per spin so
//! a single-flip proposal costs **O(1)** instead of O(degree):
//!
//! * proposal:  `ΔE = −2 s_k h_eff[k]` — two multiplies, no memory walk;
//! * accepted flip: update the caches of `k`'s neighbors — O(degree), but
//!   only on *accepted* moves.
//!
//! A full Metropolis sweep therefore costs `O(n + accepted·deg)` rather than
//! `O(n·deg)`, which is the difference between toy 12-spin tests and the
//! large-MIMO instances the roadmap targets. The tracked energy makes
//! per-read energy reporting free as well.

use crate::ising::Ising;
use std::sync::OnceLock;

/// A compressed-sparse-row view of an Ising problem.
///
/// Rows mirror both endpoints of every edge (like `Ising`'s adjacency), so
/// `row(k)` enumerates every neighbor of `k` exactly once.
///
/// On top of the plain `row_ptr`/`col_idx`/`weight` triple the builder
/// detects **contiguous column runs** (maximal stretches where
/// `col_idx[t+1] == col_idx[t] + 1`). Dense rows — e.g. every row of a
/// dense-QUBO-derived Ising, which is `[0..k) ∪ (k..n)` — collapse to two
/// runs, turning the per-flip neighbor update from a gather-scatter through
/// `col_idx` into contiguous slice AXPYs the compiler auto-vectorizes.
/// Because a run replays exactly the same element-wise operations in exactly
/// the same order as the gather loop, the run path is **bit-identical** to
/// it and safe for the `Exact` kernel contract.
#[derive(Debug, Clone, Default)]
pub struct CsrIsing {
    h: Vec<f64>,
    /// Neighbors of `i` live at `row_ptr[i]..row_ptr[i+1]`.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    weight: Vec<f64>,
    /// Runs of row `i` live at `run_ptr[i]..run_ptr[i+1]`.
    run_ptr: Vec<u32>,
    /// First column of each run.
    run_col: Vec<u32>,
    /// Entry offset (into `col_idx`/`weight`) where each run starts, with a
    /// trailing `nnz` sentinel; run `r` covers entries
    /// `run_ofs[r]..run_ofs[r+1]`.
    run_ofs: Vec<u32>,
    /// Lazily-built f32 weight mirror (SVMC Fast-kernel field updates).
    weight_f32: OnceLock<Vec<f32>>,
}

impl CsrIsing {
    /// Flattens an adjacency-list Ising model. O(n + edges).
    pub fn from_ising(ising: &Ising) -> Self {
        let n = ising.num_vars();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut weight = Vec::new();
        let mut run_ptr = Vec::with_capacity(n + 1);
        let mut run_col = Vec::new();
        let mut run_ofs = Vec::new();
        row_ptr.push(0u32);
        run_ptr.push(0u32);
        for i in 0..n {
            let mut prev_col = u32::MAX - 1; // never adjacent to a real column
            for &(j, w) in ising.neighbors(i) {
                let col = j as u32;
                if col != prev_col.wrapping_add(1) {
                    run_col.push(col);
                    run_ofs.push(col_idx.len() as u32);
                }
                prev_col = col;
                col_idx.push(col);
                weight.push(w);
            }
            row_ptr.push(col_idx.len() as u32);
            run_ptr.push(run_col.len() as u32);
        }
        run_ofs.push(col_idx.len() as u32);
        CsrIsing {
            h: ising.h_slice().to_vec(),
            row_ptr,
            col_idx,
            weight,
            run_ptr,
            run_col,
            run_ofs,
            weight_f32: OnceLock::new(),
        }
    }

    /// Number of spins.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.h.len()
    }

    /// Linear field `h_k`.
    #[inline]
    pub fn h(&self, k: usize) -> f64 {
        self.h[k]
    }

    /// All linear fields.
    #[inline]
    pub fn h_slice(&self) -> &[f64] {
        &self.h
    }

    /// Number of stored (mirrored) neighbor entries — `2 × edges`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Degree of spin `k`.
    #[inline]
    pub fn degree(&self, k: usize) -> usize {
        (self.row_ptr[k + 1] - self.row_ptr[k]) as usize
    }

    /// Neighbor columns and weights of spin `k` as parallel slices.
    #[inline]
    pub fn row(&self, k: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[k] as usize;
        let hi = self.row_ptr[k + 1] as usize;
        (&self.col_idx[lo..hi], &self.weight[lo..hi])
    }

    /// Local field `h_k + Σ_j J_kj s_j` recomputed from scratch. O(degree).
    #[inline]
    pub fn local_field(&self, spins: &[i8], k: usize) -> f64 {
        debug_assert_eq!(spins.len(), self.num_vars());
        let (cols, ws) = self.row(k);
        let mut f = self.h[k];
        for (&j, &w) in cols.iter().zip(ws) {
            f += w * spins[j as usize] as f64;
        }
        f
    }

    /// Energy change from flipping spin `k` (from-scratch; prefer
    /// [`LocalFieldState::flip_delta`] in sweep loops).
    #[inline]
    pub fn flip_delta(&self, spins: &[i8], k: usize) -> f64 {
        -2.0 * spins[k] as f64 * self.local_field(spins, k)
    }

    /// Ising energy of a ±1 assignment, counting each edge once.
    pub fn energy(&self, spins: &[i8]) -> f64 {
        assert_eq!(spins.len(), self.num_vars(), "CsrIsing::energy: length");
        let mut e = 0.0;
        for k in 0..self.num_vars() {
            let sk = spins[k] as f64;
            e += self.h[k] * sk;
            let (cols, ws) = self.row(k);
            for (&j, &w) in cols.iter().zip(ws) {
                // Each edge is mirrored; count it from its lower endpoint.
                if (j as usize) > k {
                    e += w * sk * spins[j as usize] as f64;
                }
            }
        }
        e
    }

    /// Fills `out[k] = h_k + Σ_j J_kj s_j` for every spin. O(n + edges).
    ///
    /// `spins` may be any slice of ±1 values of length `num_vars()` — engines
    /// use this to (re)build per-replica caches.
    pub fn fill_local_fields(&self, spins: &[i8], out: &mut [f64]) {
        assert_eq!(spins.len(), self.num_vars());
        assert_eq!(out.len(), self.num_vars());
        for k in 0..self.num_vars() {
            let (cols, ws) = self.row(k);
            let mut f = self.h[k];
            for (&j, &w) in cols.iter().zip(ws) {
                f += w * spins[j as usize] as f64;
            }
            out[k] = f;
        }
    }

    /// Number of contiguous-column runs across all rows. `nnz / num_runs`
    /// is the average run length — the vectorization win of [`Self::axpy_row`]
    /// over the gather loop it replaces.
    #[inline]
    pub fn num_runs(&self) -> usize {
        self.run_col.len()
    }

    /// `field[j] += w_kj * ds` for every neighbor `j` of `k`, walking the
    /// row's contiguous-column runs so each run is a slice AXPY the compiler
    /// vectorizes.
    ///
    /// Performs exactly the same element-wise multiply-adds in exactly the
    /// same order as the `col_idx` gather loop (runs tile the row in entry
    /// order, and no accumulation is reassociated), so results are
    /// **bit-identical** — this is the `Exact`-kernel flip update.
    #[inline]
    pub fn axpy_row(&self, field: &mut [f64], k: usize, ds: f64) {
        let lo = self.row_ptr[k] as usize;
        let hi = self.row_ptr[k + 1] as usize;
        let r_lo = self.run_ptr[k] as usize;
        let r_hi = self.run_ptr[k + 1] as usize;
        // Runs pay per-run loop overhead: on rows that barely compress
        // (scattered sparse columns → singleton runs) the plain gather is
        // faster. Either path performs the identical multiply-adds in the
        // identical order, so the choice cannot change a single bit.
        if hi - lo < 2 * (r_hi - r_lo) {
            for (&j, &w) in self.col_idx[lo..hi].iter().zip(&self.weight[lo..hi]) {
                field[j as usize] += w * ds;
            }
            return;
        }
        for r in r_lo..r_hi {
            let e_lo = self.run_ofs[r] as usize;
            let e_hi = self.run_ofs[r + 1] as usize;
            let c = self.run_col[r] as usize;
            let dst = &mut field[c..c + (e_hi - e_lo)];
            for (f, &w) in dst.iter_mut().zip(&self.weight[e_lo..e_hi]) {
                *f += w * ds;
            }
        }
    }

    /// f32 mirror of the coupling weights, built on first use (the SVMC
    /// Fast kernel).
    #[inline]
    pub fn weights_f32(&self) -> &[f32] {
        self.weight_f32
            .get_or_init(|| self.weight.iter().map(|&w| w as f32).collect())
    }

    /// Neighbor columns and f32 weights of spin `k` as parallel slices
    /// (Fast-kernel cache rebuilds).
    #[inline]
    pub fn row_f32(&self, k: usize) -> (&[u32], &[f32]) {
        let ws = self.weights_f32();
        let lo = self.row_ptr[k] as usize;
        let hi = self.row_ptr[k + 1] as usize;
        (&self.col_idx[lo..hi], &ws[lo..hi])
    }

    /// f32 variant of [`Self::axpy_row`] for the Fast engine kernels'
    /// single-precision field caches. Not bit-exact against the f64 path (and
    /// doesn't claim to be) — Fast mode promises statistical equivalence only.
    #[inline]
    pub fn axpy_row_f32(&self, field: &mut [f32], k: usize, ds: f32) {
        let ws = self.weights_f32();
        let lo = self.row_ptr[k] as usize;
        let hi = self.row_ptr[k + 1] as usize;
        let r_lo = self.run_ptr[k] as usize;
        let r_hi = self.run_ptr[k + 1] as usize;
        // Same runs-vs-gather dispatch as `axpy_row`; see the comment there.
        if hi - lo < 2 * (r_hi - r_lo) {
            for (&j, &w) in self.col_idx[lo..hi].iter().zip(&ws[lo..hi]) {
                field[j as usize] += w * ds;
            }
            return;
        }
        for r in r_lo..r_hi {
            let e_lo = self.run_ofs[r] as usize;
            let e_hi = self.run_ofs[r + 1] as usize;
            let c = self.run_col[r] as usize;
            let dst = &mut field[c..c + (e_hi - e_lo)];
            let src = &ws[e_lo..e_hi];
            // Manual 8-lane unroll: fixed-size chunks let the compiler keep
            // two 4-wide vector adds in flight per iteration with no bounds
            // checks, which matters because this is the accept-path inner
            // loop of the Fast SVMC kernel.
            let mut dc = dst.chunks_exact_mut(8);
            let mut sc = src.chunks_exact(8);
            for (d, w) in (&mut dc).zip(&mut sc) {
                d[0] += w[0] * ds;
                d[1] += w[1] * ds;
                d[2] += w[2] * ds;
                d[3] += w[3] * ds;
                d[4] += w[4] * ds;
                d[5] += w[5] * ds;
                d[6] += w[6] * ds;
                d[7] += w[7] * ds;
            }
            for (f, &w) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
                *f += w * ds;
            }
        }
    }
}

/// Spins plus incrementally-maintained local fields and tracked energy.
///
/// The invariant after every operation: for all `k`,
/// `h_eff[k] == csr.local_field(spins, k)` (up to float accumulation) and
/// `energy == csr.energy(spins)`.
#[derive(Debug, Clone)]
pub struct LocalFieldState {
    spins: Vec<i8>,
    h_eff: Vec<f64>,
    energy: f64,
}

impl LocalFieldState {
    /// Builds the caches for an initial assignment. O(n + edges).
    ///
    /// # Panics
    /// Panics when `spins.len() != csr.num_vars()`.
    pub fn new(csr: &CsrIsing, spins: Vec<i8>) -> Self {
        assert_eq!(spins.len(), csr.num_vars(), "LocalFieldState: length");
        debug_assert!(spins.iter().all(|&s| s == 1 || s == -1));
        let mut h_eff = vec![0.0; spins.len()];
        csr.fill_local_fields(&spins, &mut h_eff);
        let energy = csr.energy(&spins);
        LocalFieldState {
            spins,
            h_eff,
            energy,
        }
    }

    /// Current spins.
    #[inline]
    pub fn spins(&self) -> &[i8] {
        &self.spins
    }

    /// Consumes the state, returning the spins.
    #[inline]
    pub fn into_spins(self) -> Vec<i8> {
        self.spins
    }

    /// Tracked Ising energy of the current spins.
    #[inline]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Cached local field of spin `k`.
    #[inline]
    pub fn h_eff(&self, k: usize) -> f64 {
        self.h_eff[k]
    }

    /// Energy change from flipping spin `k`. **O(1)**.
    #[inline]
    pub fn flip_delta(&self, k: usize) -> f64 {
        -2.0 * self.spins[k] as f64 * self.h_eff[k]
    }

    /// Flips spin `k`, updating neighbors' cached fields and the tracked
    /// energy. O(degree of `k`).
    ///
    /// The neighbor update walks contiguous-column runs
    /// ([`CsrIsing::axpy_row`]) — bit-identical to the historical `col_idx`
    /// gather, but vectorizable on dense rows.
    #[inline]
    pub fn flip(&mut self, csr: &CsrIsing, k: usize) {
        let delta = self.flip_delta(k);
        self.flip_with_delta(csr, k, delta);
    }

    /// [`Self::flip`] with a precomputed `flip_delta(k)` — lets sweep loops
    /// reuse the proposal's ΔE instead of recomputing it. Passing anything
    /// other than the current `flip_delta(k)` corrupts the tracked energy.
    #[inline]
    pub fn flip_with_delta(&mut self, csr: &CsrIsing, k: usize, delta: f64) {
        debug_assert_eq!(delta.to_bits(), self.flip_delta(k).to_bits());
        self.energy += delta;
        let s_new = -self.spins[k];
        self.spins[k] = s_new;
        let delta_s = 2.0 * s_new as f64; // s_new − s_old
        csr.axpy_row(&mut self.h_eff, k, delta_s);
    }

    /// Rebuilds the caches from scratch (float-drift reset; also used by the
    /// consistency property tests).
    pub fn refresh(&mut self, csr: &CsrIsing) {
        csr.fill_local_fields(&self.spins, &mut self.h_eff);
        self.energy = csr.energy(&self.spins);
    }

    /// Largest absolute deviation between the cached fields and a
    /// from-scratch recompute (diagnostic; drives the property tests).
    pub fn max_field_error(&self, csr: &CsrIsing) -> f64 {
        (0..self.spins.len())
            .map(|k| (self.h_eff[k] - csr.local_field(&self.spins, k)).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::random_qubo;
    use hqw_math::Rng64;

    fn random_state(n: usize, rng: &mut Rng64) -> Vec<i8> {
        (0..n)
            .map(|_| if rng.next_bool() { 1 } else { -1 })
            .collect()
    }

    #[test]
    fn csr_matches_adjacency_model() {
        let mut rng = Rng64::new(101);
        let q = random_qubo(14, &mut rng);
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        assert_eq!(csr.num_vars(), ising.num_vars());
        let spins = random_state(14, &mut rng);
        assert!((csr.energy(&spins) - ising.energy(&spins)).abs() < 1e-9);
        for k in 0..14 {
            assert_eq!(csr.degree(k), ising.degree(k));
            assert!((csr.local_field(&spins, k) - ising.local_field(&spins, k)).abs() < 1e-12);
            assert!((csr.flip_delta(&spins, k) - ising.flip_delta(&spins, k)).abs() < 1e-12);
        }
    }

    #[test]
    fn incremental_fields_track_flips() {
        let mut rng = Rng64::new(103);
        let q = random_qubo(12, &mut rng);
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        let mut state = LocalFieldState::new(&csr, random_state(12, &mut rng));
        for _ in 0..500 {
            let k = rng.next_index(12);
            let expected = csr.flip_delta(state.spins(), k);
            assert!((state.flip_delta(k) - expected).abs() < 1e-9);
            state.flip(&csr, k);
        }
        assert!(state.max_field_error(&csr) < 1e-9);
        assert!((state.energy() - csr.energy(state.spins())).abs() < 1e-9);
    }

    #[test]
    fn refresh_resets_drift() {
        let mut rng = Rng64::new(107);
        let q = random_qubo(10, &mut rng);
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        let mut state = LocalFieldState::new(&csr, random_state(10, &mut rng));
        for _ in 0..100 {
            let k = rng.next_index(10);
            state.flip(&csr, k);
        }
        state.refresh(&csr);
        assert_eq!(state.max_field_error(&csr), 0.0);
    }

    #[test]
    fn empty_problem_is_fine() {
        let csr = CsrIsing::from_ising(&Ising::new(0));
        assert_eq!(csr.num_vars(), 0);
        assert_eq!(csr.energy(&[]), 0.0);
        assert_eq!(csr.num_runs(), 0);
        let state = LocalFieldState::new(&csr, Vec::new());
        assert_eq!(state.energy(), 0.0);
    }

    #[test]
    fn dense_rows_compress_to_two_runs() {
        let mut rng = Rng64::new(109);
        let q = crate::generator::sparse_random_qubo(32, 1.0, &mut rng);
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        // A dense row's neighbors are [0..k) ∪ (k..n): ≤ 2 runs per row.
        assert!(
            csr.num_runs() <= 2 * csr.num_vars(),
            "dense rows should run-compress ({} runs, {} nnz)",
            csr.num_runs(),
            csr.nnz()
        );
        assert!(csr.num_runs() < csr.nnz() / 4, "runs should beat gather");
    }

    #[test]
    fn axpy_row_matches_gather_bitwise() {
        let mut rng = Rng64::new(113);
        for density in [0.15, 0.6, 1.0] {
            let q = crate::generator::sparse_random_qubo(20, density, &mut rng);
            let (ising, _) = q.to_ising();
            let csr = CsrIsing::from_ising(&ising);
            let mut via_runs = vec![0.25f64; 20];
            let mut via_gather = via_runs.clone();
            for k in 0..20 {
                let ds = if k % 2 == 0 { 2.0 } else { -2.0 };
                csr.axpy_row(&mut via_runs, k, ds);
                let (cols, ws) = csr.row(k);
                for (&j, &w) in cols.iter().zip(ws) {
                    via_gather[j as usize] += w * ds;
                }
            }
            let runs_bits: Vec<u64> = via_runs.iter().map(|f| f.to_bits()).collect();
            let gather_bits: Vec<u64> = via_gather.iter().map(|f| f.to_bits()).collect();
            assert_eq!(runs_bits, gather_bits, "density {density}");
        }
    }
}
