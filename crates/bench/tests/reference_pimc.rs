//! The live PIMC engine and sampler against the frozen pre-rework read in
//! [`hqw_bench::reference`].
//!
//! The `Exact` kernel may only change how it computes, never what: the
//! same readout, from the same RNG draws. Each case therefore checks the
//! readout *and* the next `next_u64()` of the read's generator afterwards,
//! which differs as soon as the two kernels drew a different number of
//! values.

use hqw_anneal::engine::{AnnealEngine, AnnealParams, FreezeOut};
use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
use hqw_anneal::{AnnealSchedule, DWaveProfile, IceModel, PimcEngine};
use hqw_bench::reference::{pimc_exact_read, pimc_sample_qubo};
use hqw_math::Rng64;
use hqw_qubo::generator::{random_qubo, sparse_random_qubo};
use hqw_qubo::Qubo;
use proptest::prelude::*;

/// Trotter slice counts: the minimum, odd counts, the paper's 16, and both
/// sides of 64.
const SLICES: [usize; 7] = [2, 3, 8, 16, 17, 64, 65];

fn problem(n: usize, g: &mut Rng64) -> Qubo {
    if g.next_bool() {
        random_qubo(n, g)
    } else {
        let density = g.next_range(0.05, 1.0);
        sparse_random_qubo(n, density, g)
    }
}

/// A forward, reverse or forward-reverse schedule with random `s_p`.
fn schedule(g: &mut Rng64) -> AnnealSchedule {
    let s_p = g.next_range(0.05, 0.95);
    let t_p = if g.next_bool() {
        0.0
    } else {
        g.next_range(0.0, 1.5)
    };
    match g.next_index(3) {
        0 => AnnealSchedule::forward(g.next_range(0.1, 2.0)).unwrap(),
        1 => AnnealSchedule::reverse(s_p, t_p).unwrap(),
        _ => {
            let s_p = s_p.min(0.9);
            let c_p = g.next_range(s_p + 0.01, 0.99);
            AnnealSchedule::forward_reverse(c_p, s_p, t_p, s_p + g.next_range(0.1, 1.0)).unwrap()
        }
    }
}

/// Sweep density, freeze-out (`None` opens the gate to 1 everywhere) and an
/// optional β override from hot to deep-frozen.
fn params(g: &mut Rng64) -> AnnealParams {
    AnnealParams {
        sweeps_per_us: 1 + g.next_index(24),
        beta_override: g.next_bool().then(|| g.next_range(0.01, 60.0)),
        freeze_out: match g.next_index(3) {
            0 => None,
            1 => Some(FreezeOut::default()),
            _ => Some(FreezeOut {
                a_ref_ghz: g.next_range(0.1, 20.0),
                exponent: g.next_range(0.5, 4.0),
            }),
        },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pimc_read_matches_the_frozen_reference(seed in any::<u64>()) {
        let mut g = Rng64::new(seed);
        let n = 1 + g.next_index(40);
        let mut ising = problem(n, &mut g).to_ising().0;
        if g.next_bool() {
            ising.normalize();
        }
        let engine = PimcEngine {
            trotter_slices: SLICES[g.next_index(SLICES.len())],
            cluster_moves: g.next_bool(),
            global_moves: g.next_bool(),
        };
        let profile = if g.next_bool() {
            DWaveProfile::calibrated()
        } else {
            DWaveProfile::default()
        };
        let schedule = schedule(&mut g);
        let params = params(&mut g);
        let init: Vec<i8> = (0..n).map(|_| if g.next_bool() { 1 } else { -1 }).collect();
        let read_seed = g.next_u64();

        let mut live_rng = Rng64::new(read_seed);
        let mut ref_rng = Rng64::new(read_seed);
        let live = engine.run(&ising, &profile, &schedule, &params, Some(&init), &mut live_rng);
        let oracle =
            pimc_exact_read(&engine, &ising, &profile, &schedule, &params, Some(&init), &mut ref_rng);
        prop_assert_eq!(live, oracle);
        prop_assert_eq!(
            live_rng.next_u64(),
            ref_rng.next_u64(),
            "the live kernel drew a different number of values"
        );
    }

    #[test]
    fn pimc_sampler_matches_the_frozen_reference(seed in any::<u64>()) {
        let mut g = Rng64::new(seed);
        let n = 1 + g.next_index(24);
        let q = problem(n, &mut g);
        let schedule = schedule(&mut g);
        let init: Vec<u8> = (0..n).map(|_| g.next_bool() as u8).collect();
        let sampler = QuantumSampler::new(
            DWaveProfile::calibrated(),
            SamplerConfig {
                num_reads: 1 + g.next_index(8),
                engine: EngineKind::Pimc {
                    trotter_slices: SLICES[g.next_index(4)],
                },
                params: params(&mut g),
                ice: if g.next_bool() {
                    IceModel::none()
                } else {
                    IceModel::new(g.next_range(0.0, 0.1), g.next_range(0.0, 0.1))
                },
                auto_scale: g.next_bool(),
                threads: 1 + g.next_index(2),
            },
        );
        let submit_seed = g.next_u64();
        let live = sampler.sample_qubo(&q, &schedule, Some(&init), submit_seed).samples;
        let oracle = pimc_sample_qubo(&sampler, &q, &schedule, Some(&init), submit_seed);
        let flat = |set: &hqw_qubo::SampleSet| -> Vec<(Vec<u8>, u64, u64)> {
            set.iter()
                .map(|s| (s.bits.clone(), s.energy.to_bits(), s.occurrences))
                .collect()
        };
        prop_assert_eq!(flat(&live), flat(&oracle));
    }
}
