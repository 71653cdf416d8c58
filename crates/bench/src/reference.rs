//! The reverse-anneal PIMC read as it was before the draw-first rework,
//! kept verbatim as a test oracle and a kernel-bench reference.
//!
//! `hqw-anneal`'s `Exact` PIMC kernel promises bit-identical readouts and
//! the same RNG stream across implementation changes. This module freezes
//! the kernel that promise was first made for: every proposal computes its
//! action change Δ (and, uphill, an `exp`) before its acceptance draw,
//! cluster moves keep a membership mask and a member list, and the sampler
//! clones the programmed `Ising` and rebuilds its CSR for every read. The
//! property tests in `tests/reference_pimc.rs` check the live engine and
//! sampler against it, and the kernel bench times it as the
//! `anneal_read/ra_pimc16_reference` arm. Nothing else should call it.

use hqw_anneal::dwave::DWaveProfile;
use hqw_anneal::engine::AnnealParams;
use hqw_anneal::pimc::PimcEngine;
use hqw_anneal::sampler::{EngineKind, QuantumSampler};
use hqw_anneal::schedule::AnnealSchedule;
use hqw_math::parallel::parallel_map_indexed;
use hqw_math::Rng64;
use hqw_qubo::solution::{bits_to_spins, spins_to_bits};
use hqw_qubo::{CsrIsing, Ising, Qubo, SampleSet};

/// One `Exact` PIMC read exactly as the engine ran it before the rework:
/// validate the parameters, build the CSR, resolve the initial state, run
/// the kernel. `params.kernel` is ignored (this is the Exact kernel).
///
/// # Panics
/// As `AnnealEngine::run`: invalid parameters, a reverse schedule without an
/// initial state, or an initial state of the wrong length.
pub fn pimc_exact_read(
    engine: &PimcEngine,
    problem: &Ising,
    profile: &DWaveProfile,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    initial: Option<&[i8]>,
    rng: &mut Rng64,
) -> Vec<i8> {
    params.validate();
    let csr = CsrIsing::from_ising(problem);
    let n = csr.num_vars();
    if n == 0 {
        return Vec::new();
    }
    let init = if schedule.requires_initial_state() {
        let init = initial
            .expect("reverse annealing schedule requires a programmed initial state (paper §4.1)");
        assert_eq!(init.len(), n, "initial state length mismatch");
        debug_assert!(init.iter().all(|&s| s == 1 || s == -1));
        Some(init.to_vec())
    } else {
        None
    };
    run_exact(engine, &csr, profile, schedule, params, init, rng)
}

/// The sampler's `sample_qubo` over [`pimc_exact_read`], with the per-read
/// engine, `Ising` clone and CSR build the sampler used to pay: auto-scale,
/// derive per-read seeds from `seed`, and per read either clone the
/// programmed problem or perturb it with the sampler's ICE model.
///
/// # Panics
/// Panics when the sampler is not configured with the PIMC engine, and as
/// [`pimc_exact_read`].
pub fn pimc_sample_qubo(
    sampler: &QuantumSampler,
    qubo: &Qubo,
    schedule: &AnnealSchedule,
    initial_bits: Option<&[u8]>,
    seed: u64,
) -> SampleSet {
    let config = &sampler.config;
    let EngineKind::Pimc { trotter_slices } = config.engine else {
        panic!("pimc_sample_qubo: the sampler must run the PIMC engine");
    };
    config.validate_or_panic();
    let (ising, _offset) = qubo.to_ising();
    let initial = initial_bits.map(bits_to_spins);
    let mut programmed = ising.clone();
    if config.auto_scale {
        programmed.normalize();
    }
    let mut master = Rng64::new(seed);
    let read_seeds: Vec<u64> = (0..config.num_reads).map(|_| master.next_u64()).collect();
    let states = parallel_map_indexed(&read_seeds, config.threads, |_, &read_seed| {
        let mut rng = Rng64::new(read_seed);
        let engine = PimcEngine::new(trotter_slices);
        let problem = if config.ice.is_none() {
            programmed.clone()
        } else {
            config.ice.perturb(&programmed, &mut rng)
        };
        pimc_exact_read(
            &engine,
            &problem,
            &sampler.profile,
            schedule,
            &config.params,
            initial.as_deref(),
            &mut rng,
        )
    });
    SampleSet::from_reads(states.into_iter().map(|spins| {
        let bits = spins_to_bits(&spins);
        let energy = qubo.energy(&bits);
        (bits, energy)
    }))
}

/// The kernel body, unchanged.
fn run_exact(
    engine: &PimcEngine,
    csr: &CsrIsing,
    profile: &DWaveProfile,
    schedule: &AnnealSchedule,
    params: &AnnealParams,
    init: Option<Vec<i8>>,
    rng: &mut Rng64,
) -> Vec<i8> {
    let n = csr.num_vars();
    let p = engine.trotter_slices;
    let beta = params.beta(profile);

    // Slice-major replica storage: spins[k*n + i].
    let mut spins: Vec<i8> = match &init {
        Some(state) => (0..p).flat_map(|_| state.iter().copied()).collect(),
        // Forward start (s = 0): the transverse field dominates and the
        // computational-basis marginal is uniform — random replicas.
        None => (0..p * n)
            .map(|_| if rng.next_bool() { 1 } else { -1 })
            .collect(),
    };

    // Incrementally-maintained classical local fields per (slice, site):
    // h_eff[k*n + i] = h_i + Σ_j J_ij s_{j,k}. Proposals read them in
    // O(1); only accepted flips pay an O(degree) neighbor update.
    let mut h_eff: Vec<f64> = vec![0.0; p * n];
    for k in 0..p {
        csr.fill_local_fields(&spins[k * n..(k + 1) * n], &mut h_eff[k * n..(k + 1) * n]);
    }
    // Flips spin (slice base, site i) and folds its sign change into the
    // cached fields of its in-slice neighbors (contiguous-run AXPY —
    // bit-identical to the historical gather).
    let flip_and_update = |spins: &mut [i8], h_eff: &mut [f64], base: usize, i: usize| {
        let s_new = -spins[base + i];
        spins[base + i] = s_new;
        let ds = 2.0 * s_new as f64;
        csr.axpy_row(&mut h_eff[base..base + n], i, ds);
    };

    let total_sweeps = params.total_sweeps(schedule);
    let duration = schedule.duration_us();
    let p_f = p as f64;
    // Cluster-move scratch, hoisted out of the sweep loop (the per-site
    // allocation was the profile's top hit; reusing the buffers changes
    // no RNG draw and no float op).
    let mut in_cluster = vec![false; p];
    let mut members: Vec<usize> = Vec::with_capacity(p);

    for sweep in 0..total_sweeps {
        let t = (sweep as f64 + 0.5) * duration / total_sweeps as f64;
        let s = schedule.s_at(t);
        let j_perp = engine.j_perp(profile, beta, s);
        let k_cl = beta * profile.b_ghz(s) / (2.0 * p_f);
        let gate = params.gate(profile.a_ghz(s));
        if gate <= 0.0 {
            continue; // fully frozen: no dynamics at this point
        }

        // Single (site, slice) Metropolis updates (lazy chain: the
        // freeze-out gate scales every acceptance).
        for k in 0..p {
            let up = if k + 1 == p { 0 } else { k + 1 };
            let down = if k == 0 { p - 1 } else { k - 1 };
            let base = k * n;
            for i in 0..n {
                let sik = spins[base + i] as f64;
                let field = h_eff[base + i];
                let time_neighbors = (spins[up * n + i] + spins[down * n + i]) as f64;
                // Δ action for flipping s_{i,k}: the slice energy changes
                // by −2·s·field and each time link by +2·J⊥·s·neighbor.
                let delta = -2.0 * sik * k_cl * field + 2.0 * sik * j_perp * time_neighbors;
                let accept = if delta <= 0.0 {
                    gate
                } else {
                    gate * (-delta).exp()
                };
                if rng.next_f64() < accept {
                    flip_and_update(&mut spins, &mut h_eff, base, i);
                }
            }
        }

        // Imaginary-time cluster moves: per site, grow a Wolff segment
        // along the Trotter ring with bond probability 1 − e^{−2·J⊥}
        // over aligned time-neighbors, then flip it, accepting on the
        // classical (field) part alone. Stochastic bond growth makes the
        // proposal symmetric; at large J⊥ the segment usually wraps the
        // whole ring and the move degenerates into a classical
        // Metropolis flip at the full device β — thermal activation.
        if engine.cluster_moves {
            let p_bond = 1.0 - (-2.0 * j_perp).exp();
            for i in 0..n {
                let start = rng.next_index(p);
                let s0 = spins[start * n + i];
                // Membership mask doubles as the visited set.
                in_cluster[start] = true;
                members.push(start);
                // Grow forward (k+1 direction) then backward.
                let mut k = start;
                loop {
                    let next = if k + 1 == p { 0 } else { k + 1 };
                    if in_cluster[next] || spins[next * n + i] != s0 || rng.next_f64() >= p_bond {
                        break;
                    }
                    in_cluster[next] = true;
                    members.push(next);
                    k = next;
                }
                k = start;
                loop {
                    let prev = if k == 0 { p - 1 } else { k - 1 };
                    if in_cluster[prev] || spins[prev * n + i] != s0 || rng.next_f64() >= p_bond {
                        break;
                    }
                    in_cluster[prev] = true;
                    members.push(prev);
                    k = prev;
                }
                // Classical action change of flipping the whole segment.
                // The cached fields of site i never contain s_i itself
                // (no self-coupling), so the per-slice deltas are
                // independent and can all be read before flipping.
                let mut delta = 0.0;
                for &kk in &members {
                    delta += -2.0 * s0 as f64 * k_cl * h_eff[kk * n + i];
                }
                let accept = if delta <= 0.0 {
                    gate
                } else {
                    gate * (-delta).exp()
                };
                if rng.next_f64() < accept {
                    for &kk in &members {
                        flip_and_update(&mut spins, &mut h_eff, kk * n, i);
                    }
                }
                for &kk in &members {
                    in_cluster[kk] = false;
                }
                members.clear();
            }
        }

        // Optional global moves: flip site i in every slice (time links
        // unchanged). See the field docs for why this is off by default.
        if engine.global_moves {
            for i in 0..n {
                let mut delta = 0.0;
                for k in 0..p {
                    let base = k * n;
                    let sik = spins[base + i] as f64;
                    delta += -2.0 * sik * k_cl * h_eff[base + i];
                }
                let accept = if delta <= 0.0 {
                    gate
                } else {
                    gate * (-delta).exp()
                };
                if rng.next_f64() < accept {
                    for k in 0..p {
                        flip_and_update(&mut spins, &mut h_eff, k * n, i);
                    }
                }
            }
        }
    }

    // Majority-vote readout across slices.
    (0..n)
        .map(|i| {
            let sum: i32 = (0..p).map(|k| spins[k * n + i] as i32).sum();
            if sum >= 0 {
                1
            } else {
                -1
            }
        })
        .collect()
}
