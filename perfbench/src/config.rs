//! The resolved runtime configuration recorded with every run.

use quantum_waltz::core::{CompileArtifact, Compiler};
use quantum_waltz::sim::{SimdLevel, TrajectoryPool, Workspace};

use crate::json::Json;
use crate::run::Load;
use crate::workloads::sim_shape;

/// Environment variables that override the library's runtime choices.
pub const OVERRIDES: [&str; 4] = [
    "WALTZ_SIMD",
    "WALTZ_SPARSE",
    "WALTZ_TRAJ_THREADS",
    "WALTZ_PAR_MIN_AMPS",
];

/// The overrides set in this process, as `(name, value)`.
pub fn overrides_in_effect() -> Vec<(String, String)> {
    OVERRIDES
        .iter()
        .filter_map(|&k| std::env::var(k).ok().map(|v| (k.to_string(), v)))
        .collect()
}

fn compiler_json(name: &str, compiler: &Compiler) -> Json {
    let fuse = compiler.fuse_options();
    let mut o = Json::obj();
    o.set("name", name)
        .set("fingerprint", format!("{:016x}", compiler.fingerprint()))
        .set("fuse_sweep_overhead", fuse.sweep_overhead)
        .set("fuse_sweep_fixed", fuse.sweep_fixed)
        .set("fuse_max_block_span", fuse.max_block_span);
    o
}

/// The compilers a load built, by name.
fn compilers(load: &Load) -> Vec<(&str, &Compiler)> {
    match load {
        Load::Estimate(l) => l.compilers.iter().map(|(n, c)| (n.as_str(), c)).collect(),
        Load::Qram(l) => vec![("mixed-radix", &l.compiler)],
        Load::Serve(l) => vec![("serve/mixed-radix", l.server.supervisor().compiler())],
    }
}

/// `(compiler, fingerprint)` of every compiler the load built. The
/// fingerprint folds the calibrated fuse constants, so two processes
/// that calibrated alike report the same fingerprints.
pub fn fingerprints(load: &Load) -> Vec<(String, String)> {
    compilers(load)
        .into_iter()
        .map(|(n, c)| (n.to_string(), format!("{:016x}", c.fingerprint())))
        .collect()
}

/// The configuration of this process and the load's compilers.
pub fn runtime_config(load: &Load, threads: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env = Json::obj();
    for (k, v) in overrides_in_effect() {
        env.set(&k, v);
    }
    let compilers: Vec<Json> = compilers(load)
        .into_iter()
        .map(|(n, c)| compiler_json(n, c))
        .collect();
    let mut o = Json::obj();
    o.set("nproc", nproc)
        .set("load_threads", threads)
        .set("simd_level", SimdLevel::detect().name())
        .set("pool_width", TrajectoryPool::global().threads())
        .set("par_min_amps", Workspace::new().par_min_amps())
        .set("sparse_enabled", quantum_waltz::sim::sparse_enabled())
        .set("env_overrides", env)
        .set("compilers", Json::Arr(compilers));
    o
}

/// Exact per-artifact counts: hw ops, sim ops, segments, reshapes, peak
/// state bytes.
pub fn artifact_json(key: &str, artifact: &CompileArtifact, jobs: usize) -> Json {
    let (sim_ops, segments, reshapes) = sim_shape(artifact);
    let mut o = Json::obj();
    o.set("key", key)
        .set("jobs", jobs)
        .set("hw_ops", artifact.stats.hw_ops)
        .set("sim_ops", sim_ops)
        .set("segments", segments)
        .set("reshapes", reshapes)
        .set("state_bytes_peak", artifact.sim_state_bytes_peak());
    o
}

/// Every distinct artifact of the in-process workloads with its job
/// count; the resident set on serve.
pub fn artifacts_json(load: &Load) -> Json {
    Json::Arr(
        load.artifacts()
            .iter()
            .map(|(k, a, jobs)| artifact_json(k, a, *jobs))
            .collect(),
    )
}
