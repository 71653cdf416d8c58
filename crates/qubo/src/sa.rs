//! Classical simulated annealing (SA) sampler.
//!
//! SA is the classical counterpart of the quantum annealers in `hqw-anneal`:
//! single-spin Metropolis dynamics on the Ising form with a geometric
//! inverse-temperature ramp. It serves as (a) the classical reference point
//! for the hybrid comparisons, and (b) the workhorse for certifying ground
//! energies on instances too large to enumerate.
//!
//! The sweep kernel runs on the flat [`CsrIsing`] representation with
//! incrementally-maintained local fields ([`LocalFieldState`]): a proposal
//! costs O(1) and only *accepted* flips pay an O(degree) cache update, so a
//! sweep is `O(n + accepted·deg)` instead of `O(n·deg)`. Reads are
//! independent and fan out across threads with per-read seeds derived from
//! the caller's RNG, so results are bit-identical for any thread count.

use crate::csr::{CsrIsing, LocalFieldState};
use crate::model::Qubo;
use crate::solution::{spins_to_bits, SampleSet};
use hqw_math::parallel::parallel_map_indexed;
use hqw_math::Rng64;

/// Which sweep kernel a sampler runs.
///
/// * [`SweepKernel::Exact`] (the default) — the historical serial kernel:
///   f64 local fields, index-ordered proposals, one RNG draw per uphill
///   proposal. Its outputs are **bit-identical** across releases, thread
///   counts and storage-layout changes (regression-pinned by golden tests).
///   SA runs only this kernel.
/// * [`SweepKernel::Fast`] — the vectorized SVMC engine kernel in
///   `hqw-anneal` (f32 fields, draw-skipping rejects). It promises
///   **statistical equivalence only** (same energy distribution, not the
///   same bits). [`SaParams::validate`] and the PIMC engine reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepKernel {
    /// Bit-identical deterministic kernel (default).
    #[default]
    Exact,
    /// Vectorized statistical-equivalence kernel (SVMC only).
    Fast,
}

impl SweepKernel {
    /// Canonical lower-case name (`"exact"` / `"fast"`), as used by the
    /// experiment-spec JSON codec.
    pub fn name(&self) -> &'static str {
        match self {
            SweepKernel::Exact => "exact",
            SweepKernel::Fast => "fast",
        }
    }

    /// Parses a canonical name.
    ///
    /// # Errors
    /// Returns the offending string on anything but `"exact"` / `"fast"`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "exact" => Ok(SweepKernel::Exact),
            "fast" => Ok(SweepKernel::Fast),
            other => Err(format!("unknown sweep kernel {other:?}")),
        }
    }
}

/// Simulated-annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaParams {
    /// Initial inverse temperature `β₀` (hot).
    pub beta_initial: f64,
    /// Final inverse temperature `β₁` (cold).
    pub beta_final: f64,
    /// Number of full sweeps over all spins.
    pub sweeps: usize,
    /// Number of independent reads.
    pub num_reads: usize,
    /// Worker threads for parallel reads (1 = serial, 0 = all available
    /// cores). Results are bit-identical for any value.
    pub threads: usize,
    /// Sweep kernel. SA has only [`SweepKernel::Exact`];
    /// [`SaParams::validate`] rejects anything else.
    pub kernel: SweepKernel,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams {
            beta_initial: 0.1,
            beta_final: 10.0,
            sweeps: 128,
            num_reads: 32,
            threads: 1,
            kernel: SweepKernel::Exact,
        }
    }
}

impl SaParams {
    /// Validates parameter ranges.
    ///
    /// # Errors
    /// Returns a message for the first violated constraint: non-positive or
    /// non-finite betas, `beta_final < beta_initial`, zero sweeps, zero
    /// reads, or a kernel other than [`SweepKernel::Exact`].
    pub fn validate(&self) -> Result<(), String> {
        if !(self.beta_initial > 0.0 && self.beta_initial.is_finite()) {
            return Err("SaParams: beta_initial must be > 0".to_string());
        }
        if !(self.beta_final >= self.beta_initial && self.beta_final.is_finite()) {
            return Err("SaParams: beta_final must be ≥ beta_initial".to_string());
        }
        if self.sweeps == 0 {
            return Err("SaParams: sweeps must be > 0".to_string());
        }
        if self.num_reads == 0 {
            return Err("SaParams: num_reads must be > 0".to_string());
        }
        if self.kernel != SweepKernel::Exact {
            return Err("SaParams: SA has only the exact kernel".to_string());
        }
        Ok(())
    }

    /// Shim for callers that still want the original panicking behaviour.
    /// Deprecated in spirit: new code should propagate [`SaParams::validate`]
    /// errors instead (the kernel entry points keep this for their
    /// assert-style contracts).
    ///
    /// # Panics
    /// Panics with the [`SaParams::validate`] message on any invalid field.
    pub fn validate_or_panic(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// Running-best energy trajectory of one SA read, sampled at sweep
/// boundaries.
///
/// Index `k` of the trajectory is the lowest Ising energy seen after `k`
/// full sweeps; index 0 is the start state's energy. This is the
/// *sweeps-to-solution* instrument for warm-start studies: the streaming
/// engine compares how many sweeps a warm-started read needs to match a
/// cold-started read's final quality.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTrace {
    /// `best[k]` = lowest tracked energy after `k` sweeps (`best[0]` = the
    /// start state's energy). Non-increasing by construction.
    pub best_by_sweep: Vec<f64>,
}

impl SweepTrace {
    /// Lowest energy seen over the whole read.
    ///
    /// # Panics
    /// Panics on an empty trajectory (never produced by the SA kernels).
    pub fn best_energy(&self) -> f64 {
        *self
            .best_by_sweep
            .last()
            .expect("SweepTrace: empty trajectory")
    }

    /// Number of sweeps needed to first reach `target` energy (within a
    /// relative tolerance), or `None` when the read never got there.
    /// 0 means the start state already met the target.
    pub fn sweeps_to_reach(&self, target: f64) -> Option<usize> {
        let tol = 1e-9 * (1.0 + target.abs());
        self.best_by_sweep.iter().position(|&e| e <= target + tol)
    }

    /// Sweeps needed to first attain this read's own final best energy.
    pub fn sweeps_to_best(&self) -> usize {
        self.sweeps_to_reach(self.best_energy())
            .expect("SweepTrace: best energy unreachable")
    }
}

/// One SA read on a CSR Ising model starting from `start` spins.
///
/// Returns the final [`LocalFieldState`], whose tracked
/// [`LocalFieldState::energy`] is the Ising energy of the returned spins —
/// callers report energies without an O(n²) recompute.
///
/// # Panics
/// Panics on invalid parameters or a start-length mismatch.
pub fn sa_read_csr(
    csr: &CsrIsing,
    params: &SaParams,
    start: &[i8],
    rng: &mut Rng64,
) -> LocalFieldState {
    sa_read_impl(csr, params, start, rng, None)
}

/// One SA read that also records its running-best energy per sweep.
///
/// The Metropolis dynamics (and RNG consumption) are identical to
/// [`sa_read_csr`]; the trace is a pure observation, so the returned state
/// is bit-identical to the untraced kernel on the same inputs.
///
/// # Panics
/// Panics on invalid parameters or a start-length mismatch.
pub fn sa_read_csr_traced(
    csr: &CsrIsing,
    params: &SaParams,
    start: &[i8],
    rng: &mut Rng64,
) -> (LocalFieldState, SweepTrace) {
    let mut best_by_sweep = Vec::with_capacity(params.sweeps + 1);
    let state = sa_read_impl(csr, params, start, rng, Some(&mut best_by_sweep));
    (state, SweepTrace { best_by_sweep })
}

fn sa_read_impl(
    csr: &CsrIsing,
    params: &SaParams,
    start: &[i8],
    rng: &mut Rng64,
    mut trace: Option<&mut Vec<f64>>,
) -> LocalFieldState {
    params.validate_or_panic();
    let n = csr.num_vars();
    assert_eq!(start.len(), n, "sa_read_csr: start length mismatch");
    let mut state = LocalFieldState::new(csr, start.to_vec());
    let mut best = state.energy();
    if let Some(t) = trace.as_deref_mut() {
        t.push(best);
    }
    if n == 0 {
        return state;
    }
    // Geometric β ladder: β_t = β₀ · r^t with r chosen to land on β₁.
    let ratio = if params.sweeps > 1 {
        (params.beta_final / params.beta_initial).powf(1.0 / (params.sweeps - 1) as f64)
    } else {
        1.0
    };
    let mut beta = params.beta_initial;
    for _ in 0..params.sweeps {
        for k in 0..n {
            let delta = state.flip_delta(k);
            if delta <= 0.0 || rng.next_f64() < (-beta * delta).exp() {
                // Reusing the proposal's ΔE (instead of recomputing it
                // inside `flip`) adds nothing and removes nothing from the
                // float stream: bit-identical.
                state.flip_with_delta(csr, k, delta);
            }
        }
        beta *= ratio;
        if let Some(t) = trace.as_deref_mut() {
            best = best.min(state.energy());
            t.push(best);
        }
    }
    state
}

/// [`sa_read_csr_traced`] unpacked to `(spins, tracked final energy,
/// trace)`: bit-identical state, energy and RNG stream.
pub fn sa_read_traced(
    csr: &CsrIsing,
    params: &SaParams,
    start: &[i8],
    rng: &mut Rng64,
) -> (Vec<i8>, f64, SweepTrace) {
    let (state, trace) = sa_read_csr_traced(csr, params, start, rng);
    let energy = state.energy();
    (state.into_spins(), energy, trace)
}

/// Single read used by the sampling fan-outs: returns `(spins, tracked
/// Ising energy)`.
#[inline]
fn run_read(csr: &CsrIsing, params: &SaParams, start: &[i8], rng: &mut Rng64) -> (Vec<i8>, f64) {
    let state = sa_read_csr(csr, params, start, rng);
    let energy = state.energy();
    (state.into_spins(), energy)
}

/// Samples a QUBO with SA: `num_reads` independent reads from uniform random
/// starts, aggregated into a [`SampleSet`] with QUBO energies.
///
/// The QUBO is converted to Ising (and flattened to CSR) **once**; per-read
/// energies come from the incrementally tracked Ising energy plus the
/// conversion offset, never a full `qubo.energy` evaluation. Reads run in
/// parallel per [`SaParams::threads`] with per-read RNG streams drawn from
/// `rng` up front, so the result is bit-identical for any thread count.
pub fn sample_qubo(qubo: &Qubo, params: &SaParams, rng: &mut Rng64) -> SampleSet {
    sample_qubo_with_start(qubo, params, None, rng)
}

/// [`sample_qubo`] with an optional **warm start**: when `warm_start` is
/// given, every read begins from that bit assignment instead of a uniform
/// random state (reads still diverge through their independent Metropolis
/// streams), and the seed itself joins the sample set as one extra
/// zero-cost candidate — the hot phase of the schedule can randomize the
/// seed away, so including it guarantees the best sample is never worse
/// than the state the caller already had (the same "refinement can only
/// help" selection the hybrid solver applies). `total_reads` is therefore
/// `num_reads + 1` under a warm start. With `None` this is exactly
/// `sample_qubo` — same RNG consumption, bit-identical output.
///
/// Warm starts are how streaming workloads exploit temporal channel
/// coherence: frame `t − 1`'s decision is a low-ΔE_IS initial state for
/// frame `t`, so warm reads reach cold-start quality in fewer sweeps.
///
/// # Panics
/// Panics on invalid parameters or a warm-start length mismatch.
pub fn sample_qubo_with_start(
    qubo: &Qubo,
    params: &SaParams,
    warm_start: Option<&[u8]>,
    rng: &mut Rng64,
) -> SampleSet {
    params.validate_or_panic();
    let (ising, offset) = qubo.to_ising();
    let csr = CsrIsing::from_ising(&ising);
    let n = qubo.num_vars();
    let warm_spins = warm_start.map(|bits| {
        assert_eq!(bits.len(), n, "sample_qubo_with_start: start length");
        crate::solution::bits_to_spins(bits)
    });

    // Per-read seeds drawn from the caller's stream: the fan-out is
    // deterministic and thread-count invariant.
    let read_seeds: Vec<u64> = (0..params.num_reads).map(|_| rng.next_u64()).collect();

    let reads = parallel_map_indexed(&read_seeds, params.threads, |_, &read_seed| {
        let mut read_rng = Rng64::new(read_seed);
        let start: Vec<i8> = match &warm_spins {
            Some(spins) => spins.clone(),
            None => (0..n)
                .map(|_| if read_rng.next_bool() { 1 } else { -1 })
                .collect(),
        };
        let (spins, ising_energy) = run_read(&csr, params, &start, &mut read_rng);
        let energy = ising_energy + offset;
        debug_assert!(
            (energy - qubo.energy(&spins_to_bits(&spins))).abs() < 1e-6 * (1.0 + energy.abs()),
            "tracked energy drifted from the exact QUBO energy"
        );
        (spins_to_bits(&spins), energy)
    });

    // The seed is a known state at zero cost: report it alongside the reads
    // so warm-started sampling is structurally never-worse-than-seed.
    let seed_sample = warm_start.map(|bits| (bits.to_vec(), qubo.energy(bits)));
    SampleSet::from_reads(seed_sample.into_iter().chain(reads))
}

/// Samples a **batch** of QUBOs in one call, with **one independent seed per
/// problem** — the backend-side primitive the compute-fabric scheduler
/// coalesces same-shape detection problems into.
///
/// All `problems × num_reads` reads fan out through a **single** parallel
/// dispatch, so a pool with more workers than any one problem has reads
/// still saturates (cross-problem parallelism). Problem `k`'s reads derive
/// from `seeds[k]` alone, so its sample set is bit-identical to
/// `sample_qubo(qubos[k], params, &mut Rng64::new(seeds[k]))` regardless of
/// which other problems share the call: a scheduler that re-buckets jobs
/// into batches dynamically can never see results depend on batch
/// composition (regression-tested below).
///
/// # Panics
/// Panics on invalid parameters or a `qubos`/`seeds` length mismatch.
pub fn sample_qubo_batch_seeded(
    qubos: &[&Qubo],
    params: &SaParams,
    seeds: &[u64],
) -> Vec<SampleSet> {
    params.validate_or_panic();
    assert_eq!(
        qubos.len(),
        seeds.len(),
        "sample_qubo_batch_seeded: one seed per problem"
    );
    let read_seeds: Vec<(usize, u64)> = seeds
        .iter()
        .enumerate()
        .flat_map(|(k, &seed)| {
            let mut problem_rng = Rng64::new(seed);
            (0..params.num_reads)
                .map(|_| (k, problem_rng.next_u64()))
                .collect::<Vec<_>>()
        })
        .collect();
    let prepared: Vec<(CsrIsing, f64, usize)> = qubos
        .iter()
        .map(|qubo| {
            let (ising, offset) = qubo.to_ising();
            (CsrIsing::from_ising(&ising), offset, qubo.num_vars())
        })
        .collect();

    let reads = parallel_map_indexed(&read_seeds, params.threads, |_, &(k, read_seed)| {
        let (csr, offset, n) = &prepared[k];
        let mut read_rng = Rng64::new(read_seed);
        let start: Vec<i8> = (0..*n)
            .map(|_| if read_rng.next_bool() { 1 } else { -1 })
            .collect();
        let (spins, ising_energy) = run_read(csr, params, &start, &mut read_rng);
        (spins_to_bits(&spins), ising_energy + offset)
    });

    let mut per_problem: Vec<Vec<(Vec<u8>, f64)>> = vec![Vec::new(); qubos.len()];
    for (&(k, _), read) in read_seeds.iter().zip(reads) {
        per_problem[k].push(read);
    }
    per_problem.into_iter().map(SampleSet::from_reads).collect()
}

/// Best-effort ground-state search: SA with an aggressive schedule and many
/// reads, refined by steepest descent. Returns `(bits, energy)`.
///
/// Used to certify ground energies where enumeration is infeasible; for the
/// paper's noiseless MIMO instances the analytic ground state is available
/// and this function is a cross-check.
pub fn intensive_search(qubo: &Qubo, num_reads: usize, rng: &mut Rng64) -> (Vec<u8>, f64) {
    let params = SaParams {
        beta_initial: 0.05,
        beta_final: 20.0,
        sweeps: 256,
        num_reads,
        threads: 1,
        kernel: SweepKernel::Exact,
    };
    let set = sample_qubo(qubo, &params, rng);
    let best = set.best().expect("intensive_search: no samples");
    let (bits, energy, _) = crate::local::steepest_descent(qubo, &best.bits);
    (bits, energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_minimum;
    use crate::generator::{planted_qubo, random_qubo};

    /// A named field mutation for the validate() rejection-path tests.
    type Mutation<T> = (&'static str, Box<dyn Fn(&mut T)>);

    #[test]
    fn validate_rejects_each_bad_field_with_a_message() {
        let cases: [Mutation<SaParams>; 5] = [
            (
                "beta_initial must be > 0",
                Box::new(|p| p.beta_initial = 0.0),
            ),
            (
                "beta_final must be ≥ beta_initial",
                Box::new(|p| p.beta_final = 0.01),
            ),
            ("sweeps must be > 0", Box::new(|p| p.sweeps = 0)),
            ("num_reads must be > 0", Box::new(|p| p.num_reads = 0)),
            (
                "SA has only the exact kernel",
                Box::new(|p| p.kernel = SweepKernel::Fast),
            ),
        ];
        for (needle, mutate) in cases {
            let mut params = SaParams::default();
            mutate(&mut params);
            let err = params.validate().expect_err(needle);
            assert!(err.contains(needle), "{err} missing {needle}");
        }
        assert_eq!(SaParams::default().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "sweeps must be > 0")]
    fn validate_or_panic_shim_keeps_the_original_behaviour() {
        SaParams {
            sweeps: 0,
            ..SaParams::default()
        }
        .validate_or_panic();
    }

    #[test]
    fn sa_finds_optimum_on_small_problems() {
        let mut rng = Rng64::new(31);
        for _ in 0..5 {
            let q = random_qubo(12, &mut rng);
            let (_, e_best) = exhaustive_minimum(&q);
            let set = sample_qubo(&q, &SaParams::default(), &mut rng);
            assert!(
                (set.best_energy() - e_best).abs() < 1e-9,
                "SA missed the optimum: {} vs {e_best}",
                set.best_energy()
            );
        }
    }

    #[test]
    fn sa_finds_planted_optimum_at_larger_size() {
        let mut rng = Rng64::new(33);
        let (q, planted) = planted_qubo(40, 120, &mut rng);
        let e_planted = q.energy(&planted);
        let (_, e_found) = intensive_search(&q, 16, &mut rng);
        assert!(
            e_found <= e_planted + 1e-9,
            "SA should reach the planted optimum: found {e_found}, planted {e_planted}"
        );
    }

    #[test]
    fn sample_set_counts_match_reads() {
        let mut rng = Rng64::new(35);
        let q = random_qubo(8, &mut rng);
        let params = SaParams {
            num_reads: 17,
            ..SaParams::default()
        };
        let set = sample_qubo(&q, &params, &mut rng);
        assert_eq!(set.total_reads(), 17);
    }

    #[test]
    fn deterministic_given_seed() {
        let q = random_qubo(10, &mut Rng64::new(1));
        let a = sample_qubo(&q, &SaParams::default(), &mut Rng64::new(2));
        let b = sample_qubo(&q, &SaParams::default(), &mut Rng64::new(2));
        assert_eq!(a.best().unwrap().bits, b.best().unwrap().bits);
        assert_eq!(a.total_reads(), b.total_reads());
    }

    #[test]
    fn parallel_reads_are_bit_identical_to_serial() {
        // The determinism regression: the same seed must yield the same
        // SampleSet (states, energies, occurrence counts) for any thread
        // count, including thread counts that don't divide num_reads.
        let q = random_qubo(16, &mut Rng64::new(71));
        let collect = |threads: usize| {
            let params = SaParams {
                num_reads: 13,
                sweeps: 48,
                threads,
                ..SaParams::default()
            };
            sample_qubo(&q, &params, &mut Rng64::new(9))
        };
        let serial = collect(1);
        for threads in [2, 3, 8] {
            let parallel = collect(threads);
            assert_eq!(serial.total_reads(), parallel.total_reads());
            assert_eq!(serial.num_distinct(), parallel.num_distinct());
            for (a, b) in serial.iter().zip(parallel.iter()) {
                assert_eq!(a.bits, b.bits, "threads={threads}");
                assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "threads={threads}");
                assert_eq!(a.occurrences, b.occurrences, "threads={threads}");
            }
        }
    }

    #[test]
    fn tracked_energies_match_full_recompute() {
        let mut rng = Rng64::new(73);
        for n in [6usize, 12, 20] {
            let q = random_qubo(n, &mut rng);
            let set = sample_qubo(&q, &SaParams::default(), &mut rng);
            for s in set.iter() {
                assert!(
                    (q.energy(&s.bits) - s.energy).abs() < 1e-9 * (1.0 + s.energy.abs()),
                    "reported energy drifted from exact at n={n}"
                );
            }
        }
    }

    #[test]
    fn batched_sampling_is_thread_count_invariant() {
        let mut rng = Rng64::new(99);
        let problems: Vec<Qubo> = (0..4).map(|_| random_qubo(8, &mut rng)).collect();
        let refs: Vec<&Qubo> = problems.iter().collect();
        let seeds = [3u64, 5, 7, 9];
        let mut params = SaParams {
            sweeps: 16,
            num_reads: 3,
            threads: 1,
            ..SaParams::default()
        };
        let serial = sample_qubo_batch_seeded(&refs, &params, &seeds);
        for threads in [2, 0] {
            params.threads = threads;
            let parallel = sample_qubo_batch_seeded(&refs, &params, &seeds);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.best_energy(), b.best_energy(), "threads={threads}");
                let av: Vec<_> = a.iter().map(|s| (s.bits.clone(), s.occurrences)).collect();
                let bv: Vec<_> = b.iter().map(|s| (s.bits.clone(), s.occurrences)).collect();
                assert_eq!(av, bv, "threads={threads}");
            }
        }
    }

    #[test]
    fn batched_sampling_accepts_an_empty_batch() {
        assert!(sample_qubo_batch_seeded(&[], &SaParams::default(), &[]).is_empty());
    }

    #[test]
    fn seeded_batch_is_independent_of_batch_composition() {
        let mut rng = Rng64::new(101);
        let problems: Vec<Qubo> = (0..3).map(|_| random_qubo(9, &mut rng)).collect();
        let refs: Vec<&Qubo> = problems.iter().collect();
        let seeds = [11u64, 22, 33];
        let params = SaParams {
            sweeps: 20,
            num_reads: 4,
            threads: 1,
            ..SaParams::default()
        };

        let samples = |set: &SampleSet| -> Vec<(Vec<u8>, u64)> {
            set.iter()
                .map(|s| (s.bits.clone(), s.occurrences))
                .collect()
        };

        let together = sample_qubo_batch_seeded(&refs, &params, &seeds);
        // Each problem alone, and in reversed company: identical results.
        for (k, (q, &seed)) in problems.iter().zip(&seeds).enumerate() {
            let alone = sample_qubo_batch_seeded(&[q], &params, &[seed]);
            assert_eq!(samples(&together[k]), samples(&alone[0]), "problem {k}");
            let direct = sample_qubo(q, &params, &mut Rng64::new(seed));
            assert_eq!(samples(&together[k]), samples(&direct), "problem {k}");
        }
        let rev_refs: Vec<&Qubo> = problems.iter().rev().collect();
        let rev_seeds: Vec<u64> = seeds.iter().rev().copied().collect();
        let reversed = sample_qubo_batch_seeded(&rev_refs, &params, &rev_seeds);
        for k in 0..3 {
            assert_eq!(samples(&together[k]), samples(&reversed[2 - k]));
        }
    }

    #[test]
    #[should_panic(expected = "one seed per problem")]
    fn seeded_batch_rejects_seed_length_mismatch() {
        let mut rng = Rng64::new(103);
        let q = random_qubo(4, &mut rng);
        sample_qubo_batch_seeded(&[&q], &SaParams::default(), &[1, 2]);
    }

    #[test]
    fn traced_read_matches_untraced_bit_for_bit() {
        let q = random_qubo(14, &mut Rng64::new(81));
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        let params = SaParams::default();
        let start = vec![1i8; 14];
        let plain = sa_read_csr(&csr, &params, &start, &mut Rng64::new(5));
        let (traced, trace) = sa_read_csr_traced(&csr, &params, &start, &mut Rng64::new(5));
        assert_eq!(plain.spins(), traced.spins());
        assert_eq!(plain.energy().to_bits(), traced.energy().to_bits());
        assert_eq!(trace.best_by_sweep.len(), params.sweeps + 1);
        // Running best is non-increasing and ends at/below the final energy.
        for w in trace.best_by_sweep.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(trace.best_energy() <= traced.energy() + 1e-12);
    }

    #[test]
    fn trace_sweep_counters_are_consistent() {
        let q = random_qubo(12, &mut Rng64::new(83));
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        let start = vec![-1i8; 12];
        let (_, trace) = sa_read_csr_traced(&csr, &SaParams::default(), &start, &mut Rng64::new(7));
        let k = trace.sweeps_to_best();
        assert!(k <= SaParams::default().sweeps);
        assert_eq!(trace.sweeps_to_reach(trace.best_energy()), Some(k));
        // The start state always "reaches" its own energy in zero sweeps.
        assert_eq!(trace.sweeps_to_reach(trace.best_by_sweep[0]), Some(0));
        // An unreachable target reports None.
        assert_eq!(trace.sweeps_to_reach(trace.best_energy() - 1e6), None);
    }

    #[test]
    fn warm_start_none_is_exactly_sample_qubo() {
        let q = random_qubo(10, &mut Rng64::new(85));
        let params = SaParams {
            num_reads: 9,
            ..SaParams::default()
        };
        let a = sample_qubo(&q, &params, &mut Rng64::new(3));
        let b = sample_qubo_with_start(&q, &params, None, &mut Rng64::new(3));
        assert_eq!(a.total_reads(), b.total_reads());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.bits, y.bits);
            assert_eq!(x.energy.to_bits(), y.energy.to_bits());
        }
    }

    #[test]
    fn warm_started_reads_never_lose_to_their_seed() {
        // Structural guarantee: the seed joins the sample set as a
        // zero-cost candidate, so even a pathologically hot schedule (one
        // sweep at near-zero β, which randomizes the seed away) cannot
        // return anything worse than the seed itself.
        let mut rng = Rng64::new(87);
        let (q, planted) = planted_qubo(24, 60, &mut rng);
        let params = SaParams {
            beta_initial: 1e-3,
            beta_final: 1e-3,
            sweeps: 1,
            num_reads: 4,
            ..SaParams::default()
        };
        let set = sample_qubo_with_start(&q, &params, Some(&planted), &mut rng);
        assert_eq!(set.total_reads(), 5, "seed counts as one extra sample");
        assert!(
            set.best_energy() <= q.energy(&planted) + 1e-9,
            "warm-started SA regressed below its seed quality"
        );
    }

    #[test]
    #[should_panic(expected = "start length")]
    fn warm_start_length_mismatch_panics() {
        let q = random_qubo(6, &mut Rng64::new(89));
        sample_qubo_with_start(&q, &SaParams::default(), Some(&[0, 1]), &mut Rng64::new(1));
    }

    #[test]
    #[should_panic(expected = "beta_final")]
    fn invalid_params_panic() {
        let params = SaParams {
            beta_initial: 5.0,
            beta_final: 1.0,
            ..SaParams::default()
        };
        params.validate_or_panic();
    }

    #[test]
    fn sa_read_traced_exact_matches_untraced_kernel() {
        let q = random_qubo(14, &mut Rng64::new(51));
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        let params = SaParams::default();
        let start = vec![-1i8; 14];
        let state = sa_read_csr(&csr, &params, &start, &mut Rng64::new(5));
        let (spins, energy, _) = sa_read_traced(&csr, &params, &start, &mut Rng64::new(5));
        assert_eq!(state.spins(), &spins[..]);
        assert_eq!(state.energy().to_bits(), energy.to_bits());
    }

    #[test]
    fn kernel_names_round_trip() {
        for kernel in [SweepKernel::Exact, SweepKernel::Fast] {
            assert_eq!(SweepKernel::parse(kernel.name()), Ok(kernel));
        }
        assert!(SweepKernel::parse("turbo").is_err());
        assert_eq!(SweepKernel::default(), SweepKernel::Exact);
    }

    #[test]
    fn single_sweep_is_accepted() {
        let mut rng = Rng64::new(37);
        let q = random_qubo(6, &mut rng);
        let params = SaParams {
            sweeps: 1,
            num_reads: 4,
            ..SaParams::default()
        };
        let set = sample_qubo(&q, &params, &mut rng);
        assert_eq!(set.total_reads(), 4);
    }
}
