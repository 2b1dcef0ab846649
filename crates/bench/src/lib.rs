//! Benchmark harness for the GeNIMA reproduction.
//!
//! The `repro` binary regenerates every table and figure of the
//! paper's evaluation; the Criterion benches in `benches/` measure the
//! substrate itself (event queue, diff engine, network, NI lock
//! round-trips). The other binaries in `src/bin/` each write one
//! [`report::Report`] and gate it with their table in [`gates`]. This
//! library also exposes the ablation studies shared between `repro`
//! and the benches.

pub mod ablations;
pub mod gates;
pub mod report;
