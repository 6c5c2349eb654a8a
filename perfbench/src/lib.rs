//! End-to-end and per-layer benchmark of the quantum-waltz workspace at
//! the paper's sizes.
//!
//! A job is "logical circuit in, fidelity estimate (or fetch) out"; on
//! the serve workload it is one request. Untraced runs report the
//! end-to-end metrics of `BENCHMARK.json`; traced runs record spans
//! around every call into a layer's public functions and report the
//! per-layer metrics. `WORKLOADS.md` explains each workload, metric and
//! known defect.

pub mod config;
pub mod json;
pub mod layers;
pub mod mix;
pub mod run;
pub mod serve_load;
pub mod stats;
pub mod trace;
pub mod workers;
pub mod workloads;
