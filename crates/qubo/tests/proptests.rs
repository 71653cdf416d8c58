//! Property-based tests for the QUBO/Ising substrate.

use hqw_math::Rng64;
use hqw_qubo::exact::exhaustive_minimum;
use hqw_qubo::generator::{random_qubo, sparse_random_qubo};
use hqw_qubo::preprocess::preprocess;
use hqw_qubo::sa::{sample_qubo, SaParams, SweepKernel};
use hqw_qubo::solution::{bits_to_spins, spins_to_bits};
use hqw_qubo::{greedy_search, CsrIsing, LocalFieldState, Qubo, SampleSet};
use proptest::prelude::*;

fn random_bits(n: usize, rng: &mut Rng64) -> Vec<u8> {
    (0..n).map(|_| rng.next_bool() as u8).collect()
}

fn random_spins(n: usize, rng: &mut Rng64) -> Vec<i8> {
    (0..n)
        .map(|_| if rng.next_bool() { 1 } else { -1 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn qubo_ising_energies_agree(seed in any::<u64>(), n in 1usize..24) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (ising, offset) = q.to_ising();
        for _ in 0..8 {
            let bits = random_bits(n, &mut rng);
            let spins = bits_to_spins(&bits);
            let eq = q.energy(&bits);
            let ei = ising.energy(&spins) + offset;
            prop_assert!((eq - ei).abs() < 1e-9, "QUBO {eq} vs Ising {ei}");
        }
    }

    #[test]
    fn ising_qubo_round_trip(seed in any::<u64>(), n in 1usize..16) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (ising, offset) = q.to_ising();
        let (q2, constant) = Qubo::from_ising_with_constant(&ising, offset);
        prop_assert!(constant.abs() < 1e-9);
        for _ in 0..4 {
            let bits = random_bits(n, &mut rng);
            prop_assert!((q.energy(&bits) - q2.energy(&bits)).abs() < 1e-9);
        }
    }

    #[test]
    fn flip_delta_matches_recompute(seed in any::<u64>(), n in 1usize..20) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let bits = random_bits(n, &mut rng);
        for k in 0..n {
            let mut flipped = bits.clone();
            flipped[k] ^= 1;
            let expected = q.energy(&flipped) - q.energy(&bits);
            prop_assert!((q.flip_delta(&bits, k) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn ising_flip_delta_matches_recompute(seed in any::<u64>(), n in 1usize..20) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (ising, _) = q.to_ising();
        let spins: Vec<i8> = (0..n).map(|_| if rng.next_bool() { 1 } else { -1 }).collect();
        for k in 0..n {
            let mut flipped = spins.clone();
            flipped[k] = -flipped[k];
            let expected = ising.energy(&flipped) - ising.energy(&spins);
            prop_assert!((ising.flip_delta(&spins, k) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn preprocessing_preserves_optimum(seed in any::<u64>(), n in 2usize..12,
                                       density in 0.1f64..1.0) {
        let mut rng = Rng64::new(seed);
        let q = sparse_random_qubo(n, density, &mut rng);
        let p = preprocess(&q);
        let (_, e_original) = exhaustive_minimum(&q);
        let e_reduced = if p.reduced.num_vars() == 0 {
            p.offset
        } else {
            let (rb, re) = exhaustive_minimum(&p.reduced);
            let full = p.reconstruct(&rb);
            prop_assert!((q.energy(&full) - (re + p.offset)).abs() < 1e-9);
            re + p.offset
        };
        prop_assert!((e_original - e_reduced).abs() < 1e-9,
            "optimum moved: {e_original} vs {e_reduced}");
    }

    #[test]
    fn greedy_energy_is_self_consistent(seed in any::<u64>(), n in 1usize..32) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let (bits, e) = greedy_search(&q, Default::default());
        prop_assert_eq!(bits.len(), n);
        prop_assert!((q.energy(&bits) - e).abs() < 1e-9);
    }

    #[test]
    fn bits_spins_round_trip(bits in prop::collection::vec(0u8..2, 0..64)) {
        let spins = bits_to_spins(&bits);
        prop_assert!(spins.iter().all(|&s| s == 1 || s == -1));
        prop_assert_eq!(spins_to_bits(&spins), bits);
    }

    #[test]
    fn sample_set_totals_reconcile(seed in any::<u64>(), n in 1usize..8, reads in 1usize..40) {
        let mut rng = Rng64::new(seed);
        let q = random_qubo(n, &mut rng);
        let set = SampleSet::from_reads((0..reads).map(|_| {
            let bits = random_bits(n, &mut rng);
            let e = q.energy(&bits);
            (bits, e)
        }));
        prop_assert_eq!(set.total_reads(), reads as u64);
        let occ_sum: u64 = set.iter().map(|s| s.occurrences).sum();
        prop_assert_eq!(occ_sum, reads as u64);
        // Sorted ascending by energy.
        let energies: Vec<f64> = set.iter().map(|s| s.energy).collect();
        prop_assert!(energies.windows(2).all(|w| w[0] <= w[1]));
        // p★ over the whole range is 1.
        prop_assert!((set.ground_probability(set.best_energy(), 1e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cached_local_fields_survive_long_flip_sequences(
        seed in any::<u64>(), n in 2usize..24, density in 0.1f64..1.0
    ) {
        // The incremental h_eff cache must agree with a from-scratch
        // local_field recompute after arbitrarily long accepted-flip
        // sequences — the invariant every sweep kernel rests on.
        let mut rng = Rng64::new(seed);
        let q = sparse_random_qubo(n, density, &mut rng);
        let (ising, _) = q.to_ising();
        let csr = CsrIsing::from_ising(&ising);
        let mut state = LocalFieldState::new(&csr, random_spins(n, &mut rng));
        for step in 0..400 {
            let k = rng.next_index(n);
            // The O(1) delta must match both the CSR and the adjacency-list
            // from-scratch evaluations before the flip is applied.
            let exact = csr.flip_delta(state.spins(), k);
            prop_assert!((state.flip_delta(k) - exact).abs() < 1e-9,
                "delta drifted at step {step}");
            prop_assert!((exact - ising.flip_delta(state.spins(), k)).abs() < 1e-9);
            state.flip(&csr, k);
        }
        prop_assert!(state.max_field_error(&csr) < 1e-9,
            "h_eff drifted: {}", state.max_field_error(&csr));
        prop_assert!((state.energy() - ising.energy(state.spins())).abs()
            < 1e-9 * (1.0 + state.energy().abs()),
            "tracked energy drifted: {} vs {}", state.energy(), ising.energy(state.spins()));
    }

    #[test]
    fn sa_parallel_reads_match_serial_bit_for_bit(
        seed in any::<u64>(), n in 2usize..16, reads in 1usize..12
    ) {
        // Determinism regression: SplitMix-derived per-read streams make the
        // fan-out thread-count invariant, including non-dividing counts.
        let q = random_qubo(n, &mut Rng64::new(seed));
        let run = |threads| {
            let params = SaParams {
                num_reads: reads,
                sweeps: 24,
                threads,
                kernel: SweepKernel::Exact,
                ..SaParams::default()
            };
            sample_qubo(&q, &params, &mut Rng64::new(seed ^ 0xA5A5))
        };
        let serial = run(1);
        for threads in [3usize, 0] {
            let parallel = run(threads);
            prop_assert_eq!(serial.total_reads(), parallel.total_reads());
            prop_assert_eq!(serial.num_distinct(), parallel.num_distinct());
            for (a, b) in serial.iter().zip(parallel.iter()) {
                prop_assert_eq!(&a.bits, &b.bits);
                prop_assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                prop_assert_eq!(a.occurrences, b.occurrences);
            }
        }
    }

    #[test]
    fn sa_reported_energies_are_exact(seed in any::<u64>(), n in 1usize..14) {
        // The tracked (incremental) Ising energy plus offset must equal the
        // full QUBO energy of every reported sample.
        let q = random_qubo(n, &mut Rng64::new(seed));
        let params = SaParams { num_reads: 6, sweeps: 32, ..SaParams::default() };
        let set = sample_qubo(&q, &params, &mut Rng64::new(seed ^ 0x5A5A));
        for s in set.iter() {
            prop_assert!((q.energy(&s.bits) - s.energy).abs() < 1e-9 * (1.0 + s.energy.abs()));
        }
    }
}
