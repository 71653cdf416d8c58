//! # hqw-bench — benchmark harness
//!
//! Three kinds of targets:
//!
//! * **The `hqw` runner** (`src/bin/hqw.rs`): the unified entry point —
//!   `hqw list` prints the experiment [`registry`], `hqw run <name>` runs a
//!   registered preset at `--quick`/`--full`/standard scale, and
//!   `hqw run spec.json` runs a declarative
//!   [`hqw_core::spec::ExperimentSpec`] document.
//! * **Figure-regeneration binaries** (`src/bin/`): one per figure/claim in
//!   the paper's evaluation, each a thin shim over the registry (so
//!   `fig-ber --quick` and `hqw run ber --quick` emit byte-identical
//!   output). Run e.g. `cargo run -p hqw-bench --release --bin fig8 -- --quick`.
//! * **Kernel benches** (`benches/`): std-only micro/meso benchmarks of the
//!   hot kernels (sweep kernels before/after the incremental-field rework,
//!   parallel reads, annealer engines) with a JSON trajectory emitter — see
//!   the crate README for the output format.
//!
//! Shared CLI conventions live in [`cli`]; experiment wiring lives in
//! [`runs`] (grid experiments) and [`legacy`] (canned figures); the
//! distributed shard/checkpoint/merge runners live in [`distributed`].
//! [`mod@reference`] freezes the pre-rework PIMC read as a test oracle and
//! kernel-bench reference.

#![warn(missing_docs)]

pub mod cli;
pub mod distributed;
pub mod legacy;
pub mod reference;
pub mod registry;
pub mod runs;
