//! # hqw-qubo — QUBO/Ising substrate
//!
//! The paper's entire computational pipeline operates on Quadratic
//! Unconstrained Binary Optimization (QUBO) problems (its Eq. 1):
//!
//! ```text
//!   E({q₁,…,q_N}) = Σ_{i≤j} Q_ij q_i q_j ,   q_i ∈ {0, 1}
//! ```
//!
//! and on the trivially-equivalent Ising form (±1 spins) that annealing
//! hardware natively programs. This crate provides:
//!
//! * [`Qubo`] — dense upper-triangular QUBO with energy evaluation and
//!   incremental single-flip deltas ([`model`]).
//! * [`Ising`] — sparse `h`/`J` Ising model with exact, offset-tracked
//!   conversions to/from QUBO ([`ising`]).
//! * [`CsrIsing`] / [`LocalFieldState`] — the flat (CSR) sweep substrate
//!   with incrementally-maintained local fields: O(1) flip proposals,
//!   O(degree) only on accepted flips ([`csr`]).
//! * [`SampleSet`] — aggregated solver output with occurrence counting
//!   ([`solution`]).
//! * [`preprocess`] — the Lewis–Glover variable-fixing scheme evaluated in
//!   the paper's §3.1 / Figure 3.
//! * [`constraints`] — the soft-information pair-constraint injection of
//!   §3.1 / Figure 4.
//! * Classical solvers: the paper's Greedy Search ([`greedy`], §4.1),
//!   steepest-descent local search ([`local`]), tabu search ([`tabu`]),
//!   simulated annealing ([`sa`]), parallel tempering ([`pt`]) and exact
//!   solvers ([`exact`]) used for ground-truth verification.
//! * [`generator`] — random problem generators for tests and benches.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Numeric kernels below index several arrays by one loop variable (often with
// an `i != j` guard); iterator rewrites obscure that symmetry.
#![allow(clippy::needless_range_loop)]

pub mod constraints;
pub mod csr;
pub mod exact;
pub mod generator;
pub mod greedy;
pub mod ising;
pub mod local;
pub mod model;
pub mod preprocess;
pub mod pt;
pub mod sa;
pub mod solution;
pub mod tabu;

pub use csr::{CsrIsing, LocalFieldState};
pub use greedy::{greedy_search, GreedyOrder, GreedyVariant};
pub use ising::Ising;
pub use model::Qubo;
pub use pt::{parallel_tempering, PtParams};
pub use sa::SweepKernel;
pub use solution::{bits_to_spins, spins_to_bits, Sample, SampleSet};
pub use tabu::{tabu_from_random, tabu_search, TabuParams};
