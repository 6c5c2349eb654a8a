//! Cached-vs-fresh parity for the content-addressed compile cache: a
//! cache-loaded artifact must replay the stored pass reports (no pass
//! re-runs), simulate bit-identically (1e-12) to the fresh compile it
//! was stored from — including when the store was written by a
//! different process — and a warm [`Supervisor`] batch must return
//! element-wise identical job results. Every compiler here is a default
//! one: compile decisions and fingerprints must not depend on the
//! process that makes them.

use rand::rngs::StdRng;
use rand::SeedableRng;

use waltz_circuit::Circuit;
use waltz_circuits::generalized_toffoli;
use waltz_core::{
    ArtifactCache, CompileArtifact, Compiler, JobStatus, Pass, Strategy, Supervisor, Target,
};
use waltz_sim::ideal;

const TOL: f64 = 1e-12;

/// Environment variables handing the disk-store location, the expected
/// fidelity (as exact bits) and the parent's compiler fingerprint to the
/// child process.
const DIR_ENV: &str = "WALTZ_DISK_CACHE_DIR";
const MEAN_ENV: &str = "WALTZ_EXPECTED_MEAN_BITS";
const FINGERPRINT_ENV: &str = "WALTZ_EXPECTED_FINGERPRINT";
/// Set for the compile-shape child; its report lines carry this prefix.
const SHAPE_ENV: &str = "WALTZ_COMPILE_SHAPE_CHILD";
const SHAPE_PREFIX: &str = "compile-shape ";

fn cnu_6q() -> Circuit {
    let mut c = Circuit::new(6);
    c.ccx(0, 1, 3).ccx(2, 3, 4).ccx(2, 4, 5);
    c
}

/// A default compiler: nothing about it is measured at run time, so its
/// fingerprint (and therefore its cache keys) must be identical in every
/// process.
fn default_compiler(strategy: Strategy) -> Compiler {
    Compiler::new(Target::paper(strategy))
}

/// Noiseless 1e-12 parity: same seeded product input through both
/// artifacts' schedules, amplitude by amplitude.
fn assert_noiseless_parity(a: &CompileArtifact, b: &CompileArtifact, seed: u64) {
    let mut rng_a = StdRng::seed_from_u64(seed);
    let mut rng_b = StdRng::seed_from_u64(seed);
    let init_a = a.random_product_initial_state(&mut rng_a);
    let init_b = b.random_product_initial_state(&mut rng_b);
    let out_a = ideal::run(a.sim_circuit(), &init_a);
    let out_b = ideal::run(b.sim_circuit(), &init_b);
    let (amps_a, amps_b) = (out_a.amplitudes(), out_b.amplitudes());
    assert_eq!(amps_a.len(), amps_b.len(), "register shape diverged");
    for (i, (&x, &y)) in amps_a.iter().zip(amps_b).enumerate() {
        assert!(
            x.approx_eq(y, TOL),
            "amplitude {i} diverged: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn repeat_compile_replays_from_the_cache() {
    let cache = ArtifactCache::new();
    let compiler = default_compiler(Strategy::mixed_radix_ccz()).with_artifact_cache(cache.clone());
    let circuit = cnu_6q();
    let cold = compiler.compile(&circuit).unwrap();
    assert!(!cold.is_cached());
    assert_eq!((cache.hits(), cache.misses()), (0, 1));
    let warm = compiler.compile(&circuit).unwrap();
    assert!(warm.is_cached());
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    // All seven pass reports are replayed from the store, not re-run:
    // the wall clocks are the stored floats, bit for bit.
    assert_eq!(warm.reports().len(), Pass::ALL.len());
    for (cold_r, warm_r) in cold.reports().iter().zip(warm.reports()) {
        assert_eq!(cold_r.pass, warm_r.pass);
        assert_eq!(cold_r.wall_ms.to_bits(), warm_r.wall_ms.to_bits());
        assert_eq!(cold_r.ops_out, warm_r.ops_out);
    }
    assert_eq!(warm.stats, cold.stats);
    // A different circuit is its own key, not a false hit.
    let mut other = cnu_6q();
    other.h(0);
    assert!(!compiler.compile(&other).unwrap().is_cached());
}

#[test]
fn cached_artifact_simulates_bit_identically() {
    let circuit = cnu_6q();
    for strategy in [
        Strategy::qubit_only(),
        Strategy::mixed_radix_ccz(),
        Strategy::full_ququart(),
    ] {
        let compiler = default_compiler(strategy).with_artifact_cache(ArtifactCache::new());
        let cold = compiler.compile(&circuit).unwrap();
        let warm = compiler.compile(&circuit).unwrap();
        assert!(warm.is_cached(), "{}", strategy.name());
        assert_noiseless_parity(&cold, &warm, 0xCAFE);
        // Same-seed trajectory runs see identical schedules too.
        let est_cold = cold.simulate().with_seed(7).average_fidelity(6);
        let est_warm = warm.simulate().with_seed(7).average_fidelity(6);
        assert!(
            (est_cold.mean - est_warm.mean).abs() <= TOL,
            "{}: {} vs {}",
            strategy.name(),
            est_cold.mean,
            est_warm.mean
        );
    }
}

#[test]
fn warm_supervisor_batch_matches_the_cold_one() {
    let compiler =
        default_compiler(Strategy::mixed_radix_ccz()).with_artifact_cache(ArtifactCache::new());
    let supervisor = Supervisor::new(compiler);
    let circuits: Vec<Circuit> = (3..=5)
        .map(|n| {
            let mut c = Circuit::new(n);
            c.h(0).ccx(0, 1, 2);
            if n > 3 {
                c.ccx(1, 2, 3);
            }
            c
        })
        .collect();
    let cold = supervisor.compile_batch(&circuits);
    let warm = supervisor.compile_batch(&circuits);
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.index, w.index);
        assert_eq!(c.status, JobStatus::Ok);
        assert_eq!(c.status, w.status);
        assert_eq!(c.degradation, w.degradation);
        assert!(!c.cached, "cold batch job {} claimed a cache hit", c.index);
        assert!(w.cached, "warm batch job {} missed the cache", w.index);
        let (ca, wa) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
        assert_eq!(ca.stats, wa.stats);
        assert_noiseless_parity(ca, wa, 0xBEEF ^ c.index as u64);
    }
}

#[test]
fn artifact_survives_into_a_fresh_process() {
    let dir = std::env::temp_dir().join(format!("waltz-disk-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Capacity 0: every hit must come from the on-disk store.
    let cache = ArtifactCache::with_capacity(0).with_disk_dir(&dir);
    let compiler = default_compiler(Strategy::full_ququart()).with_artifact_cache(cache);
    let cold = compiler.compile(&cnu_6q()).unwrap();
    assert!(!cold.is_cached());
    let expected = cold.simulate().with_seed(17).average_fidelity(4).mean;
    // Re-run this test binary in a fresh process: it must build the same
    // fingerprint, load the artifact from the directory and reproduce
    // the simulation exactly.
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "disk_store_child", "--ignored", "--nocapture"])
        .env(DIR_ENV, &dir)
        .env(MEAN_ENV, format!("{:016x}", expected.to_bits()))
        .env(FINGERPRINT_ENV, format!("{:016x}", compiler.fingerprint()))
        .status()
        .expect("spawning the child test process");
    assert!(status.success(), "child process failed (see output above)");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Child half of [`artifact_survives_into_a_fresh_process`]: runs in a
/// separate process with only the disk store shared.
#[test]
#[ignore = "helper: spawned by artifact_survives_into_a_fresh_process"]
fn disk_store_child() {
    let Some(dir) = std::env::var_os(DIR_ENV) else {
        return; // ran directly (e.g. --include-ignored), nothing to check
    };
    let cache = ArtifactCache::with_capacity(0).with_disk_dir(std::path::PathBuf::from(dir));
    let compiler = default_compiler(Strategy::full_ququart()).with_artifact_cache(cache);
    assert_eq!(
        format!("{:016x}", compiler.fingerprint()),
        std::env::var(FINGERPRINT_ENV).unwrap(),
        "a default compiler's fingerprint must be stable across processes"
    );
    let warm = compiler.compile(&cnu_6q()).unwrap();
    assert!(
        warm.is_cached(),
        "the artifact must load from the disk tier"
    );
    // Bit-identical to the spawning process's simulation...
    let bits = u64::from_str_radix(&std::env::var(MEAN_ENV).unwrap(), 16).unwrap();
    let got = warm.simulate().with_seed(17).average_fidelity(4).mean;
    assert!(
        (got - f64::from_bits(bits)).abs() <= TOL,
        "cross-process fidelity diverged: {got} vs {}",
        f64::from_bits(bits)
    );
    // ...and to a compile done fresh in this process.
    let fresh = default_compiler(Strategy::full_ququart())
        .compile(&cnu_6q())
        .unwrap();
    assert_noiseless_parity(&fresh, &warm, 0xF00D);
}

/// One line per (circuit, strategy) with everything a default compile
/// decides that cache keys and simulation cost depend on: fingerprint,
/// hardware ops, simulation ops, segments and peak state bytes.
fn compile_shapes() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, circuit) in [
        ("cnu-6q", generalized_toffoli(3)),
        ("cnu-10q", generalized_toffoli(5)),
    ] {
        for strategy in [
            Strategy::qubit_only(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
        ] {
            let compiler = default_compiler(strategy);
            let artifact = compiler.compile(&circuit).unwrap();
            let (sim_ops, segments) = match artifact.sim_segments() {
                Some(seg) => (seg.len(), seg.n_segments()),
                None => (artifact.sim_circuit().len(), 1),
            };
            lines.push(format!(
                "{name} {}: fingerprint {:016x} hw_ops {} sim_ops {sim_ops} segments {segments} \
                 peak_bytes {}",
                strategy.name(),
                compiler.fingerprint(),
                artifact.stats.hw_ops,
                artifact.sim_state_bytes_peak()
            ));
        }
    }
    lines
}

#[test]
fn default_compiles_agree_across_fresh_processes() {
    let child = || {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "compile_shape_child", "--ignored", "--nocapture"])
            .env(SHAPE_ENV, "1")
            .output()
            .expect("spawning the child test process");
        assert!(
            out.status.success(),
            "child process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .filter_map(|line| line.strip_prefix(SHAPE_PREFIX))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let first = child();
    let second = child();
    assert_eq!(first.len(), 6, "child reported {first:?}");
    assert_eq!(
        first, second,
        "two fresh processes compiled differently with default compilers"
    );
    assert_eq!(
        first,
        compile_shapes(),
        "this process disagrees with its children"
    );
}

/// Child half of [`default_compiles_agree_across_fresh_processes`]:
/// prints this process's compile shapes.
#[test]
#[ignore = "helper: spawned by default_compiles_agree_across_fresh_processes"]
fn compile_shape_child() {
    if std::env::var_os(SHAPE_ENV).is_none() {
        return; // ran directly (e.g. --include-ignored), nothing to report
    }
    for line in compile_shapes() {
        println!("{SHAPE_PREFIX}{line}");
    }
}
