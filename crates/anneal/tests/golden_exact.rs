//! Golden-output regression for the `Exact` PIMC / SVMC engine kernels.
//!
//! Captured from the pre-optimization engines. The `Exact` kernel mode
//! (the default) promises byte-identical readouts across implementation
//! changes: buffer hoisting, vectorized field updates and storage changes
//! must not alter a single RNG draw or float operation. The `Fast` mode is
//! exempt (statistical equivalence only).

use hqw_anneal::{
    AnnealEngine, AnnealParams, AnnealSchedule, DWaveProfile, PimcEngine, SvmcEngine,
};
use hqw_math::Rng64;
use hqw_qubo::generator::random_qubo;
use hqw_qubo::Ising;

fn problem() -> Ising {
    let q = random_qubo(16, &mut Rng64::new(55));
    q.to_ising().0
}

fn init16() -> Vec<i8> {
    (0..16).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect()
}

#[test]
fn pimc_forward_golden() {
    let out = PimcEngine::new(8).run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::forward(1.0).unwrap(),
        &AnnealParams::default(),
        None,
        &mut Rng64::new(101),
    );
    assert_eq!(
        out,
        vec![1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1],
        "Exact PIMC forward anneal drifted from the pre-change golden"
    );
}

#[test]
fn pimc_reverse_golden() {
    let out = PimcEngine::new(8).run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::reverse(0.69, 1.0).unwrap(),
        &AnnealParams::default(),
        Some(&init16()),
        &mut Rng64::new(103),
    );
    assert_eq!(
        out,
        vec![-1, -1, -1, 1, -1, 1, -1, -1, 1, -1, -1, -1, 1, 1, -1, -1],
        "Exact PIMC reverse anneal drifted from the pre-change golden"
    );
}

#[test]
fn pimc_reverse_with_global_moves_golden() {
    let engine = PimcEngine {
        trotter_slices: 8,
        global_moves: true,
        cluster_moves: true,
    };
    let out = engine.run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::reverse(0.69, 1.0).unwrap(),
        &AnnealParams::default(),
        Some(&init16()),
        &mut Rng64::new(107),
    );
    assert_eq!(
        out,
        vec![1, -1, -1, -1, -1, -1, 1, -1, -1, 1, 1, 1, -1, 1, 1, 1],
        "Exact PIMC global-move path drifted from the pre-change golden"
    );
}

#[test]
fn pimc_reverse_without_cluster_moves_golden() {
    let engine = PimcEngine {
        trotter_slices: 8,
        global_moves: false,
        cluster_moves: false,
    };
    let out = engine.run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::reverse(0.69, 1.0).unwrap(),
        &AnnealParams::default(),
        Some(&init16()),
        &mut Rng64::new(109),
    );
    assert_eq!(
        out,
        vec![-1, -1, -1, -1, -1, -1, 1, -1, -1, 1, 1, -1, 1, 1, -1, -1],
        "Exact PIMC single-site path drifted from the pre-change golden"
    );
}

#[test]
fn svmc_forward_golden() {
    let out = SvmcEngine.run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::forward(1.0).unwrap(),
        &AnnealParams::default(),
        None,
        &mut Rng64::new(113),
    );
    assert_eq!(
        out,
        vec![1, -1, -1, -1, -1, -1, 1, 1, 1, -1, 1, 1, -1, 1, 1, 1],
        "Exact SVMC forward anneal drifted from the pre-change golden"
    );
}

#[test]
fn svmc_reverse_golden() {
    let out = SvmcEngine.run(
        &problem(),
        &DWaveProfile::calibrated(),
        &AnnealSchedule::reverse(0.69, 1.0).unwrap(),
        &AnnealParams::default(),
        Some(&init16()),
        &mut Rng64::new(127),
    );
    assert_eq!(
        out,
        vec![1, -1, -1, 1, -1, -1, 1, -1, -1, 1, -1, -1, -1, -1, -1, 1],
        "Exact SVMC reverse anneal drifted from the pre-change golden"
    );
}

#[test]
fn sampler_end_to_end_golden() {
    use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
    let q = random_qubo(16, &mut Rng64::new(55));
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 6,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            threads: 1,
            ..Default::default()
        },
    );
    let res = sampler.sample_qubo(&q, &AnnealSchedule::forward(1.0).unwrap(), None, 31);
    let samples: Vec<(Vec<u8>, u64, u64)> = res
        .samples
        .iter()
        .map(|s| (s.bits.clone(), s.energy.to_bits(), s.occurrences))
        .collect();
    assert_eq!(
        samples,
        vec![(
            vec![1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1],
            0xc02102addc9df5d0,
            6,
        )],
        "Exact sampler pipeline drifted from the pre-change golden"
    );
}

#[test]
fn sampler_ice_reverse_golden() {
    // ICE on: every read perturbs the programmed coefficients from its own
    // RNG stream before annealing, so this pins the per-read draw order
    // (perturbation first, then the engine) that the ICE-off goldens miss.
    use hqw_anneal::sampler::{EngineKind, QuantumSampler, SamplerConfig};
    use hqw_anneal::IceModel;
    let q = random_qubo(16, &mut Rng64::new(55));
    let sampler = QuantumSampler::new(
        DWaveProfile::calibrated(),
        SamplerConfig {
            num_reads: 6,
            engine: EngineKind::Pimc { trotter_slices: 8 },
            ice: IceModel::new(0.05, 0.05),
            threads: 1,
            ..Default::default()
        },
    );
    let init: Vec<u8> = init16().iter().map(|&s| (s > 0) as u8).collect();
    let res = sampler.sample_qubo(
        &q,
        &AnnealSchedule::reverse(0.69, 1.0).unwrap(),
        Some(&init),
        37,
    );
    let samples: Vec<(Vec<u8>, u64, u64)> = res
        .samples
        .iter()
        .map(|s| (s.bits.clone(), s.energy.to_bits(), s.occurrences))
        .collect();
    assert_eq!(
        samples,
        vec![
            (
                vec![0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1],
                0xc01ac95b6c3a98c2,
                1,
            ),
            (
                vec![0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1],
                0xc016d5f036268c9c,
                1,
            ),
            (
                vec![1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1],
                0xc011fa144e4f4e1a,
                1,
            ),
            (
                vec![0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1],
                0xc00bebc31d4b5c43,
                1,
            ),
            (
                vec![1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1],
                0xc00940b8e5cd6d75,
                1,
            ),
            (
                vec![1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0],
                0xbff8a98d5527a327,
                1,
            ),
        ],
        "Exact sampler pipeline with ICE noise drifted from the pre-change golden"
    );
}
