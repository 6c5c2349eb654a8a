//! Public-API snapshot: the exported symbol lists of `waltz_core` and
//! `waltz_sim`, and the free functions of the simulator's `trajectory`
//! and `ideal` modules, are pinned here so future surface drift is
//! deliberate — adding, removing or renaming one must update this test
//! (and the crate docs) in the same change.

/// Symbols re-exported at the crate root (`pub use`) plus public modules
/// (`pub mod`), alphabetically. Update deliberately.
const EXPECTED: &[&str] = &[
    "ArtifactCache",
    "CacheStats",
    "CoherenceSpan",
    "CompileArtifact",
    "CompileError",
    "CompileOptions",
    "CompileStats",
    "CompiledCircuit",
    "Compiler",
    "Degradation",
    "EpsBreakdown",
    "FqCswapMode",
    "Fusion",
    "HwProgram",
    "JobReport",
    "JobStatus",
    "Layout",
    "MrCcxMode",
    "Pass",
    "PassReport",
    "QubitCcxMode",
    "RegisterWindow",
    "Simulation",
    "Strategy",
    "Supervisor",
    "SupervisorPolicy",
    "Target",
    "TopologySpec",
    "mod eps",
    // The `fault-inject`-gated fault module: the parser reads `pub mod`
    // lines without their `#[cfg]` attribute, so it appears in every
    // configuration even though it only compiles with the feature on.
    "mod fault",
    "mod verify",
];

/// `waltz_sim`'s crate-root exports, in the same form as [`EXPECTED`].
const EXPECTED_SIM: &[&str] = &[
    "AdaptiveState",
    "DEFAULT_SPARSE_DENSITY_THRESHOLD",
    "FuseCache",
    "FuseOptions",
    "GateKernel",
    "NoiseEvent",
    "RESHAPE_LEAK_TOL",
    "Register",
    "Schedule",
    "SegmentedCircuit",
    "Session",
    "SimdLevel",
    "SparsePolicy",
    "SparseState",
    "State",
    "TimedCircuit",
    "TimedOp",
    "TrajectoryPool",
    "Workspace",
    // `fault-inject`-gated, like `waltz_core`'s.
    "mod fault",
    "mod ideal",
    "mod kernel",
    "mod pool",
    "mod simd",
    "mod sparse",
    "mod trajectory",
    "sparse_enabled",
];

/// Module-level `pub fn`s of `waltz_sim::trajectory`, alphabetically.
/// Estimates go through its `Estimator`; the three `*_segmented_adaptive*`
/// names stay for the benchmark harness.
const EXPECTED_TRAJECTORY_FNS: &[&str] = &[
    "average_fidelity_segmented_adaptive_with",
    "average_fidelity_segmented_adaptive_with_on",
    "run_trajectory",
    "run_trajectory_segmented_adaptive_into",
];

/// Module-level `pub fn`s of `waltz_sim::ideal`, alphabetically.
const EXPECTED_IDEAL_FNS: &[&str] = &[
    "run",
    "run_into",
    "run_segmented_adaptive_into",
    "run_segmented_into",
];

/// Extracts the crate-root export surface from `lib.rs` source text:
/// every `pub use` leaf identifier and every `pub mod` name.
fn exported_symbols(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stmt = String::new();
    let mut in_use = false;
    for line in src.lines() {
        let t = line.trim();
        if !in_use {
            if t.starts_with("//") || t.starts_with("#!") || t.starts_with("#[") {
                continue;
            }
            if let Some(rest) = t.strip_prefix("pub mod ") {
                out.push(format!("mod {}", rest.trim_end_matches(';').trim()));
                continue;
            }
            if t.starts_with("pub use ") {
                in_use = true;
                stmt.clear();
            }
        }
        if in_use {
            stmt.push(' ');
            stmt.push_str(t);
            if t.ends_with(';') {
                in_use = false;
                let body = stmt
                    .trim()
                    .trim_start_matches("pub use")
                    .trim_end_matches(';')
                    .trim();
                match (body.find('{'), body.rfind('}')) {
                    (Some(open), Some(close)) => {
                        for item in body[open + 1..close].split(',') {
                            let leaf = item.trim().rsplit("::").next().unwrap_or("").trim();
                            if !leaf.is_empty() {
                                out.push(leaf.to_string());
                            }
                        }
                    }
                    _ => {
                        let leaf = body.rsplit("::").next().unwrap_or("").trim();
                        if !leaf.is_empty() {
                            out.push(leaf.to_string());
                        }
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// Names of the module-level (unindented) `pub fn`s in a source file,
/// sorted.
fn module_fns(src: &str) -> Vec<String> {
    let mut out: Vec<String> = src
        .lines()
        .filter_map(|line| line.strip_prefix("pub fn "))
        .map(|rest| rest.split(['(', '<']).next().unwrap_or("").to_string())
        .collect();
    out.sort();
    out
}

fn pinned(expected: &[&str]) -> Vec<String> {
    expected.iter().map(|s| s.to_string()).collect()
}

#[test]
fn waltz_sim_export_surface_is_pinned() {
    let src = include_str!("../../sim/src/lib.rs");
    assert_eq!(
        exported_symbols(src),
        pinned(EXPECTED_SIM),
        "waltz_sim's export surface drifted; if deliberate, update \
         crates/core/tests/api_snapshot.rs and the sim crate docs"
    );
}

#[test]
fn simulator_free_functions_are_pinned() {
    assert_eq!(
        module_fns(include_str!("../../sim/src/trajectory.rs")),
        pinned(EXPECTED_TRAJECTORY_FNS),
        "waltz_sim::trajectory grew or lost a free function; estimates \
         belong on its Estimator"
    );
    assert_eq!(
        module_fns(include_str!("../../sim/src/ideal.rs")),
        pinned(EXPECTED_IDEAL_FNS),
        "waltz_sim::ideal grew or lost a free function"
    );
}

#[test]
fn waltz_core_export_surface_is_pinned() {
    let src = include_str!("../src/lib.rs");
    let actual = exported_symbols(src);
    let expected: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual, expected,
        "waltz_core's export surface drifted; if deliberate, update \
         crates/core/tests/api_snapshot.rs and the migration table in the crate docs"
    );
}

#[test]
fn snapshot_symbols_actually_exist() {
    // A compile-time cross-check that the pinned names refer to real
    // exports (renames that keep the list length would otherwise slip).
    use waltz_core::{
        ArtifactCache, CacheStats, CoherenceSpan, CompileArtifact, CompileError, CompileOptions,
        CompileStats, CompiledCircuit, Compiler, Degradation, EpsBreakdown, FqCswapMode, Fusion,
        HwProgram, JobReport, JobStatus, Layout, MrCcxMode, Pass, PassReport, QubitCcxMode,
        RegisterWindow, Simulation, Strategy, Supervisor, SupervisorPolicy, Target, TopologySpec,
    };
    fn assert_type<T: ?Sized>() {}
    assert_type::<ArtifactCache>();
    assert_type::<CacheStats>();
    assert_type::<CoherenceSpan>();
    assert_type::<CompileArtifact>();
    assert_type::<CompileError>();
    assert_type::<CompileOptions>();
    assert_type::<CompileStats>();
    assert_type::<CompiledCircuit>();
    assert_type::<Compiler>();
    assert_type::<EpsBreakdown>();
    assert_type::<FqCswapMode>();
    assert_type::<Fusion>();
    assert_type::<HwProgram>();
    assert_type::<Layout>();
    assert_type::<MrCcxMode>();
    assert_type::<Pass>();
    assert_type::<PassReport>();
    assert_type::<QubitCcxMode>();
    assert_type::<RegisterWindow>();
    assert_type::<Simulation<'static>>();
    assert_type::<Strategy>();
    assert_type::<Target>();
    assert_type::<TopologySpec>();
    assert_type::<Degradation>();
    assert_type::<JobReport>();
    assert_type::<JobStatus>();
    assert_type::<Supervisor>();
    assert_type::<SupervisorPolicy>();
    let _ = waltz_core::eps::uniform_spans;
    let _ = waltz_core::verify::check;
    #[cfg(feature = "fault-inject")]
    {
        let _ = waltz_core::fault::arm;
        let _ = waltz_core::fault::disarm;
    }
}
