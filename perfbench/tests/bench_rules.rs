//! The benchmark's own rules: seeded inputs, the percentile rule, span
//! self-time arithmetic, exact counts across processes, the traced
//! run's continuation of the mix, and agreement with `BENCHMARK.json`.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

use perfbench::layers::per_layer_names;
use perfbench::mix::{
    resident_circuits, serve_kind, serve_request, CircuitSpec, QramInput, Request, SERVE_BLOCK,
};
use perfbench::run::{
    fig7_violation, min_jobs_per_process, setup, traced_halves, Load, LoopResult, WORKLOADS,
};
use perfbench::stats::{min_samples_for, percentile_supported};
use perfbench::trace::{self_times, Span, Tracer};
use perfbench::workers::WorkerReport;
use quantum_waltz::codec::content_hash;

/// The request kinds and circuit content hashes of the first `n` serve
/// requests under `seed`.
fn serve_mix(seed: u64, n: u64) -> Vec<(String, Vec<u64>)> {
    let resident = resident_circuits();
    (0..n)
        .map(|i| match serve_request(seed, i, &resident) {
            Request::Fresh(specs) => (
                "fresh".to_string(),
                specs.iter().map(|s| content_hash(&s.build())).collect(),
            ),
            Request::Resubmit(picks) => (
                "resubmit".to_string(),
                picks
                    .iter()
                    .map(|&r| content_hash(&resident[r].1))
                    .collect(),
            ),
            Request::Simulate { resident: r, seed } => (
                "simulate".to_string(),
                vec![content_hash(&resident[r].1), seed],
            ),
        })
        .collect()
}

#[test]
fn same_seed_same_inputs_other_seed_other_mix() {
    assert_eq!(serve_mix(7, 60), serve_mix(7, 60));
    assert_ne!(serve_mix(7, 60), serve_mix(8, 60));
    assert_eq!(QramInput::draw(5, 7, 3), QramInput::draw(5, 7, 3));
    let inputs = |seed| {
        (0..16)
            .map(|i| QramInput::draw(3, seed, i))
            .collect::<Vec<_>>()
    };
    assert_ne!(inputs(7), inputs(8));
}

#[test]
fn serve_mix_has_equal_thirds_within_bounds() {
    let resident = resident_circuits();
    let mix = serve_mix(3, 200 * SERVE_BLOCK as u64);
    for (b, block) in mix.chunks(SERVE_BLOCK).enumerate() {
        for kind in ["fresh", "resubmit", "simulate"] {
            let n = block.iter().filter(|(k, _)| k == kind).count();
            assert_eq!(n, SERVE_BLOCK / 3, "block {b} has {n} {kind} requests");
        }
    }
    for (i, (kind, _)) in mix.iter().enumerate() {
        assert_eq!(serve_kind(3, i as u64), kind, "kind of request {i}");
    }
    for i in 0..200 {
        match serve_request(3, i, &resident) {
            Request::Fresh(specs) => {
                assert!((1..=4).contains(&specs.len()));
                for s in specs {
                    let n = s.build().n_qubits();
                    assert!((6..=21).contains(&n), "{s:?} has {n} qubits");
                    if let CircuitSpec::Select { .. } = s {
                        assert!(n <= 12);
                    }
                }
            }
            Request::Resubmit(picks) => assert!((1..=4).contains(&picks.len())),
            Request::Simulate { resident: r, .. } => assert!(resident[r].1.n_qubits() <= 10),
        }
    }
}

#[test]
fn qram_expected_output_sets_the_bus_only() {
    let input = QramInput {
        address: 5,
        memory: 1 << 5,
    };
    let (i, o) = (input.logical_input(3), input.logical_output(3));
    assert_eq!(i.len(), 3 + 8 + 1);
    assert!(!i[11] && o[11]);
    assert_eq!(i[..11], o[..11]);
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    assert!(!percentile_supported(99, 0.9, 10));
    assert!(percentile_supported(100, 0.9, 10));
    assert_eq!(min_samples_for(0.9, 10), 100);
    assert_eq!(min_samples_for(0.5, 10), 20);
    // Runs hold whole plan cycles: two qram jobs, three cnu-6q jobs, six
    // ladder jobs or serve requests.
    assert_eq!(min_jobs_per_process(1, 1), 100);
    assert_eq!(min_jobs_per_process(2, 1), 100);
    assert_eq!(min_jobs_per_process(3, 1), 102);
    assert_eq!(min_jobs_per_process(6, 1), 102);
    // Three processes share a run: each takes a third, in whole cycles,
    // and together they still leave ten samples beyond p90.
    assert_eq!(min_jobs_per_process(2, 3), 34);
    assert_eq!(min_jobs_per_process(3, 3), 36);
    assert_eq!(min_jobs_per_process(6, 3), 36);
    for cycle in [2, 3, 6] {
        assert!(percentile_supported(
            3 * min_jobs_per_process(cycle, 3),
            0.9,
            10
        ));
    }
}

#[test]
fn fig7_needs_strictly_rising_means() {
    let tally = |f: [f64; 3]| {
        ["qubit-only", "mixed-radix", "full-ququart"]
            .iter()
            .zip(f)
            .map(|(n, mean)| (n.to_string(), 4.0 * mean, 4))
            .collect::<Vec<_>>()
    };
    assert_eq!(fig7_violation(&tally([0.60, 0.74, 0.79])), None);
    assert!(fig7_violation(&tally([0.60, 0.80, 0.79])).is_some());
    assert_eq!(fig7_violation(&[]), None);
}

#[test]
fn worker_reports_round_trip() {
    let mut r = WorkerReport {
        setup_s: 1.25,
        calibrate_ms: 23.000000000000004,
        looped: LoopResult {
            jobs: vec![
                ("cnu-6q/qubit-only".into(), 190.5),
                ("fresh".into(), 0.1 + 0.2),
            ],
            wall_s: 4.0,
            trajectories: 1000,
            sim_s: 3.5,
            next: 6,
            failed: vec![3, 5],
        },
        notes: vec!["job 3\tfailed\nhere".into()],
        rss_mib: 5.4,
        fig7: vec![("mixed-radix".into(), 2.25, 3)],
        fingerprints: vec![("mixed-radix".into(), "00ff".into())],
        config: r#"{"nproc":2}"#.into(),
        artifacts: "[]".into(),
        ..WorkerReport::default()
    };
    r.counts.insert("core.hw_ops".into(), 86.33333333333333);
    let back = WorkerReport::parse(&r.render());
    r.notes = vec!["job 3 failed here".into()];
    assert_eq!(back, r);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: format!("s{id}"),
        job: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(1, None, 0, 100),
        // Overlapping children cover [10, 50) once, not twice.
        span(2, Some(1), 10, 40),
        span(3, Some(1), 30, 50),
        // A child reaching past its parent is clipped to [90, 100).
        span(4, Some(1), 90, 120),
        // A grandchild is not subtracted from the root.
        span(5, Some(2), 15, 25),
        span(6, None, 200, 260),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 20, 30, 10, 60]);
}

#[test]
fn tracer_keeps_spans_only_when_enabled() {
    for enabled in [false, true] {
        let t = Tracer::new(enabled);
        let root = t.begin(None, 3);
        let root_id = root.id();
        let child = t.begin(Some(root_id), 3);
        t.end(child, "child");
        t.end(root, "root");
        let spans = t.spans();
        if enabled {
            assert_eq!(spans.len(), 2);
            let (root, child) = (&spans[0], &spans[1]);
            assert_eq!((root.name.as_str(), root.parent), ("root", None));
            assert_eq!(
                (child.name.as_str(), child.parent),
                ("child", Some(root_id))
            );
            assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        } else {
            assert!(spans.is_empty());
        }
    }
}

/// Set-up and exact counts of `workload` under seed 5 in a fresh
/// process of the benchmark binary (a worker with no timed phase).
fn counts_in_a_new_process(workload: &str) -> WorkerReport {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--worker", "0/1", "--workload", workload, "--seed", "5"])
        .args(["--seconds", "0"])
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    WorkerReport::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Exact counts of two same-seed processes of one build. Counts fixed
/// before the fuse pass (`core.hw_ops`) and the qram fetch's peak nnz
/// must repeat on every workload, and on `cnu6q-noisy` and
/// `qram-sparse` every count must. On `ladder-windowed` and
/// `serve-loopback` the per-process fuse calibration can change fusion
/// and window decisions, and with them `core.sim_ops`,
/// `core.segments` and `core.state_bytes_peak` (a known defect; see
/// WORKLOADS.md): there the test requires only that processes whose
/// counts differ also calibrated differently, and prints the
/// difference.
#[test]
fn exact_counts_repeat_across_processes() {
    for workload in WORKLOADS {
        let (a, b) = (
            counts_in_a_new_process(workload),
            counts_in_a_new_process(workload),
        );
        assert!(
            a.looped.failed.is_empty() && b.looped.failed.is_empty(),
            "{workload}: {:?}",
            a.notes
        );
        for key in [
            "core.hw_ops",
            "core.sim_ops",
            "core.segments",
            "core.state_bytes_peak",
        ] {
            assert!(a.counts[key] > 0.0, "{workload}: {key}");
        }
        assert_eq!(
            a.counts["core.hw_ops"], b.counts["core.hw_ops"],
            "{workload}"
        );
        if workload == "qram-sparse" {
            assert!(a.counts["sim.sparse.nnz_peak"] >= 1.0);
        }
        assert_eq!(
            a.counts.get("sim.sparse.nnz_peak"),
            b.counts.get("sim.sparse.nnz_peak"),
            "{workload}"
        );
        if matches!(workload, "cnu6q-noisy" | "qram-sparse") {
            assert_eq!(a.counts, b.counts, "{workload}");
        } else if a.counts != b.counts {
            assert_ne!(
                a.fingerprints, b.fingerprints,
                "{workload}: counts differ between processes that calibrated alike"
            );
            eprintln!(
                "known defect, {workload}: counts differ between two calibrations: {:?} vs {:?}",
                a.counts, b.counts
            );
        }
    }
}

/// The traced half of a traced run continues the serve mix where the
/// untraced half stopped: it compiles no circuit the untraced half
/// compiled, so its "fresh" requests all miss the server's cache.
#[test]
fn traced_serve_half_sends_no_circuit_the_untraced_half_compiled() {
    let (load, _) = setup("serve-loopback", 11, Instant::now());
    let (plain, traced) = traced_halves(&load, load.threads(), 0.0, &Tracer::new(true));
    let cycle = SERVE_BLOCK as u64;
    assert_eq!((plain.next, traced.next), (cycle, 2 * cycle));
    assert_eq!(
        (plain.attempted(), traced.attempted()),
        (SERVE_BLOCK, SERVE_BLOCK)
    );
    let Load::Serve(l) = &load else {
        unreachable!("serve-loopback sets up a server")
    };
    let fresh = l.fresh.lock().expect("fresh log").clone();
    let hashes = |range: std::ops::Range<u64>| {
        fresh
            .iter()
            .filter(|r| range.contains(&r.job))
            .map(|r| content_hash(&r.circuit))
            .collect::<BTreeSet<_>>()
    };
    let (untraced, traced_fresh) = (hashes(0..plain.next), hashes(plain.next..traced.next));
    assert!(!untraced.is_empty() && !traced_fresh.is_empty());
    assert!(untraced.is_disjoint(&traced_fresh));
    let timings = l.timings.lock().expect("timings").clone();
    assert_eq!(timings.unexpected_hits, 0, "a fresh request hit the cache");
    assert_eq!(
        timings.unexpected_misses, 0,
        "a resubmission missed the cache"
    );
    load.close();
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for w in WORKLOADS {
        assert!(
            compact.contains(&format!("\"name\":\"{w}\"")),
            "workload {w}"
        );
    }
    for (name, unit) in per_layer_names() {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":");
        assert!(compact.contains(&entry), "per-layer metric {name} ({unit})");
    }
}

/// Fresh serve circuits are distinct, so every fresh request is a cache
/// miss.
#[test]
fn fresh_circuits_never_repeat() {
    for seed in [1, 2, 3] {
        let mut seen = std::collections::BTreeMap::new();
        for i in 0..3000u64 {
            if let Request::Fresh(specs) = serve_request(seed, i, &resident_circuits()) {
                for s in specs {
                    if let Some(prev) = seen.insert(content_hash(&s.build()), s.clone()) {
                        panic!("seed {seed} request {i}: {s:?} repeats {prev:?}");
                    }
                }
            }
        }
    }
}
