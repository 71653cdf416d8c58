//! Host-speed calibration.
//!
//! Shared virtual hosts run through speed phases: back-to-back runs of the
//! same single-threaded detector can differ by a third in wall time while
//! thread CPU time drifts the same way, so neither longer runs nor CPU-time
//! clocks remove the drift. The benchmark therefore times a fixed reference
//! loop of its own right before and after every timed step and reports every
//! timing at a nominal host speed:
//!
//! ```text
//!   calibrated = wall × ref_nominal / ref_measured
//! ```
//!
//! The loop calls no repository code, so no change to the program under
//! test can move it. It mimics the shape of the hot kernels it stands in
//! for — a xorshift stream, a Metropolis-style `exp` test and an L1-resident
//! field array — so that it slows down in the same host phases they do.

use std::hint::black_box;
use std::time::Instant;

/// Spins of the reference loop's Ising model: the paper-scale problem
/// size, whose dense couplings (8 KiB) sit in L1 like the kernels' do.
const REF_SPINS: usize = 32;

/// Metropolis sweeps per reference-loop repetition (about 0.25 ms on a
/// 2020s x86-64 core).
const REF_SWEEPS: usize = 600;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One repetition of the reference loop: fixed-temperature Metropolis
/// sweeps over a fixed dense 32-spin Ising model with incrementally
/// maintained local fields. The returned value depends on every accepted
/// flip and is passed through `black_box` by the caller, so the loop
/// cannot be elided.
fn reference_loop(sweeps: usize) -> f64 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let unit = |x: &mut u64| (xorshift(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut j = vec![0.0f64; REF_SPINS * REF_SPINS];
    for a in 0..REF_SPINS {
        for b in (a + 1)..REF_SPINS {
            let w = unit(&mut x) - 0.5;
            j[a * REF_SPINS + b] = w;
            j[b * REF_SPINS + a] = w;
        }
    }
    let mut spins = [1.0f64; REF_SPINS];
    let mut field: Vec<f64> = (0..REF_SPINS)
        .map(|a| j[a * REF_SPINS..(a + 1) * REF_SPINS].iter().sum())
        .collect();
    let beta = 1.5;
    let mut energy = 0.0;
    for _ in 0..sweeps {
        for k in 0..REF_SPINS {
            let delta = 2.0 * spins[k] * field[k];
            if delta <= 0.0 || unit(&mut x) < (-beta * delta).exp() {
                let s_new = -spins[k];
                spins[k] = s_new;
                energy += delta;
                let row = &j[k * REF_SPINS..(k + 1) * REF_SPINS];
                for (f, w) in field.iter_mut().zip(row) {
                    *f += 2.0 * s_new * w;
                }
            }
        }
    }
    energy
}

/// Share of timed wall time the loop spends on interleaved reference
/// repetitions.
const REF_SHARE: f64 = 0.2;

/// Times one reference repetition of `sweeps` sweeps (µs).
fn time_loop_us(sweeps: usize) -> f64 {
    let t0 = Instant::now();
    black_box(reference_loop(black_box(sweeps)));
    t0.elapsed().as_secs_f64() * 1e6
}

/// Times one reference repetition (µs).
fn ref_rep_us() -> f64 {
    time_loop_us(REF_SWEEPS)
}

/// Panics unless doubling the reference loop's sweeps makes it clearly
/// slower: a loop the optimizer had elided or hoisted would not scale. The
/// median over interleaved pairs keeps a noisy host from failing the test.
fn self_test() {
    let ratios: Vec<f64> = (0..5)
        .map(|_| time_loop_us(2 * REF_SWEEPS) / time_loop_us(REF_SWEEPS))
        .collect();
    let ratio = crate::stats::median(&ratios);
    assert!(
        ratio > 1.3,
        "reference loop time does not scale with its work (x{ratio:.2})"
    );
}

/// The calibration state of one run: the nominal reference time and every
/// reference repetition timed so far.
#[derive(Debug)]
pub struct Calibrator {
    nominal_us: f64,
    all_us: Vec<f64>,
}

impl Calibrator {
    /// A calibrator for the given nominal repetition time (µs), after the
    /// reference loop's self-test.
    pub fn new(nominal_us: f64) -> Self {
        self_test();
        Calibrator {
            nominal_us,
            all_us: Vec::new(),
        }
    }

    /// Runs reference repetitions worth about [`REF_SHARE`] of a timed step
    /// that took `step_s`, at least one, and returns their mean time (µs).
    /// Host speed changes within milliseconds, so the reference is sampled
    /// right next to every step it calibrates.
    pub fn interleave(&mut self, step_s: f64) -> f64 {
        let last_us = self.all_us.last().copied().unwrap_or(self.nominal_us);
        let reps = ((REF_SHARE * step_s * 1e6 / last_us).round() as usize).max(1);
        let start = self.all_us.len();
        for _ in 0..reps {
            self.all_us.push(ref_rep_us());
        }
        self.all_us[start..].iter().sum::<f64>() / reps as f64
    }

    /// The factor that converts a wall time measured between reference
    /// samples of mean `before_us` and `after_us` to nominal host speed.
    pub fn factor(&self, before_us: f64, after_us: f64) -> f64 {
        self.nominal_us / (0.5 * (before_us + after_us))
    }

    /// Mean repetition time of the run (µs).
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.all_us.iter().sum(), self.all_us.len() as f64)
    }
}
