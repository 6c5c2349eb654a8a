//! Per-layer metrics of a traced run.
//!
//! Every number is timed from outside, around public calls: spans from
//! the traced closed loop (compile, passes, estimate, fetch, requests)
//! and probes that call one layer's public functions on the workload's
//! own compiled artifacts (per-op kernel applies, damping steps, Pauli
//! draws, reshapes, ideal runs, initial-state fills, overlaps). The
//! serial per-trajectory time not explained by the sum of those layers
//! is reported as `sim.residual_share`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use quantum_waltz::codec::{decode_versioned, encode_versioned};
use quantum_waltz::core::CompileArtifact;
use quantum_waltz::math::{Matrix, C64};
use quantum_waltz::noise::{pauli, NoiseModel};
use quantum_waltz::serve::StatsSnapshot;
use quantum_waltz::sim::{
    ideal, trajectory, GateKernel, Register, SegmentedCircuit, SparsePolicy, SparseState, State,
    TimedCircuit, TrajectoryPool, Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::Json;
use crate::mix::{job_seed, QramInput};
use crate::run::{Load, LoopResult};
use crate::serve_load::ServeLoad;
use crate::stats::{median, relative_line_fit, time_ns};
use crate::trace::{Span, Tracer};
use crate::workloads::{
    adaptive_setup, fetch_adaptive, segmented, sim_shape, QramLoad, QRAM_TRAJECTORIES,
};

/// Kernel classes, in `GateKernel` order, as metric-name stems.
pub const CLASSES: [&str; 6] = [
    "identity",
    "diagonal",
    "permutation",
    "single_qudit",
    "two_qudit",
    "general_dense",
];

/// The compiler passes, in pipeline order.
pub const PASSES: [&str; 7] = [
    "decompose",
    "map",
    "route",
    "analyze",
    "schedule",
    "fuse",
    "lower",
];

/// A fixed per-op kernel cost above this is reported loudly.
pub const FIXED_NS_WARN: f64 = 1000.0;

/// Every per-layer metric `(name, unit)`, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("core.compile_ms".into(), "ms")];
    v.extend(PASSES.iter().map(|p| (format!("core.pass.{p}_ms"), "ms")));
    for (n, u) in [
        ("core.calibrate_ms", "ms"),
        ("core.hw_ops", "count"),
        ("core.sim_ops", "count"),
        ("core.segments", "count"),
        ("core.state_bytes_peak", "bytes"),
        ("core.cache.hit_ratio", "ratio"),
        ("core.supervisor.job_ms", "ms"),
        ("codec.encode_us", "us"),
        ("codec.decode_us", "us"),
        ("codec.artifact_bytes", "bytes"),
        ("sim.estimate_ms", "ms"),
        ("sim.traj_us", "us"),
        ("sim.pool.efficiency", "ratio"),
        ("sim.ideal_us", "us"),
        ("sim.init_us", "us"),
        ("sim.overlap_us", "us"),
        ("sim.kernel.fixed_ns", "ns"),
        ("sim.kernel.ns_per_amp", "ns"),
        ("sim.kernel.share", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    for c in CLASSES {
        v.push((format!("sim.kernel.{c}_ns"), "ns"));
        v.push((format!("sim.kernel.{c}_ops"), "count"));
    }
    for (n, u) in [
        ("sim.noise.idle_damping_share", "ratio"),
        ("sim.noise.busy_damping_share", "ratio"),
        ("sim.noise.pauli_share", "ratio"),
        ("sim.noise.damping_ns", "ns"),
        ("sim.noise.pauli_ns", "ns"),
        ("sim.reshape_ns", "ns"),
        ("sim.reshapes", "count"),
        ("sim.residual_share", "ratio"),
        ("sim.sparse.traj_us", "us"),
        ("sim.sparse.fetch_us", "us"),
        ("sim.sparse.nnz_peak", "count"),
        ("sim.sparse.dense_share", "ratio"),
        ("serve.ping_ms", "ms"),
        ("serve.overhead_ms", "ms"),
        ("serve.connect_ms", "ms"),
        ("serve.bytes_per_req", "bytes"),
        ("trace.overhead_share", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Per-layer results of a traced run.
pub struct LayerReport {
    /// `(name, value, unit)` for every per-layer metric, in
    /// [`per_layer_names`] order. A layer the workload does not run
    /// reads 0 and is listed under `n/a` in [`LayerReport::detail`].
    pub metrics: Vec<(String, f64, String)>,
    /// Detail for the run record: per-class kernel fits, per-artifact
    /// layer times and shares, the `n/a` list.
    pub detail: Json,
    /// Loud warnings (never failures).
    pub warnings: Vec<String>,
}

/// Measured values by metric name, plus run-record detail.
#[derive(Default)]
struct Found {
    values: BTreeMap<String, f64>,
    detail: Vec<(String, Json)>,
    warnings: Vec<String>,
}

impl Found {
    fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

/// The workload's distinct compiled artifacts by key.
fn artifacts_of(load: &Load) -> Vec<(String, CompileArtifact)> {
    load.artifacts()
        .into_iter()
        .map(|(k, a, _)| (k, a))
        .collect()
}

/// The run's exact counts, which involve no timing: the `core.*` counts
/// and, on `qram-sparse`, `sim.sparse.nnz_peak` of fixed fetch inputs.
/// They are a function of the seed and the compilers' calibrated fuse
/// constants, which can differ from process to process.
pub fn exact_counts(load: &Load, seed: u64) -> BTreeMap<String, f64> {
    let mut f = Found::default();
    let artifacts = artifacts_of(load);
    core_counts(&mut f, &artifacts);
    if let Load::Qram(l) = load {
        if let Some((_, artifact)) = artifacts.iter().find(|(k, _)| k.starts_with("qram-38q")) {
            let (peak, _) = fetch_probe(l, artifact, seed);
            f.put("sim.sparse.nnz_peak", peak as f64);
        }
    }
    f.values
}

/// Measures every layer the workload runs. `serve_baseline` is the
/// server's counters before the two halves of the traced run.
pub fn measure(
    load: &Load,
    tracer: &Tracer,
    plain: &LoopResult,
    traced: &LoopResult,
    calibrate_ms: f64,
    seed: u64,
    serve_baseline: Option<&StatsSnapshot>,
) -> LayerReport {
    let spans = tracer.spans();
    let mut f = Found {
        values: exact_counts(load, seed),
        ..Found::default()
    };
    f.put("core.calibrate_ms", calibrate_ms);
    if let (Some(a), Some(b)) = (
        median(&plain.latencies_ms()),
        median(&traced.latencies_ms()),
    ) {
        f.put("trace.overhead_share", (b - a) / a);
    }
    kernel_probe(&mut f);
    let artifacts = artifacts_of(load);
    match load {
        Load::Estimate(l) => {
            span_layers(&mut f, &spans, "sim.estimate", l.trajectories);
            dense_layers(&mut f, &artifacts, seed);
        }
        Load::Qram(l) => {
            span_layers(&mut f, &spans, "sim.sparse.estimate", QRAM_TRAJECTORIES);
            if let Some(v) = f.values.get("sim.traj_us").copied() {
                f.put("sim.sparse.traj_us", v);
            }
            if let Some(m) = median(&durations_us(&spans, "sim.sparse.fetch")) {
                f.put("sim.sparse.fetch_us", m);
            }
            sparse_layers(&mut f, l, &artifacts, seed);
        }
        Load::Serve(l) => {
            codec_layers(&mut f, &artifacts);
            let requests = plain.attempted() + traced.attempted();
            let baseline = serve_baseline.expect("serve runs pass the server's counters");
            serve_layers(&mut f, l, baseline, requests);
        }
    }
    if let Some(&fixed) = f.values.get("sim.kernel.fixed_ns") {
        if fixed > FIXED_NS_WARN {
            f.warnings.push(format!(
                "fixed per-op kernel cost is {:.1} us (above {:.1} us): every op pays it whatever its size",
                fixed / 1e3,
                FIXED_NS_WARN / 1e3
            ));
        }
    }
    let mut na = Vec::new();
    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = match f.values.get(&name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    na.push(name.clone());
                    0.0
                }
            };
            (name, value, unit.to_string())
        })
        .collect();
    let mut detail = Json::obj();
    detail.set("n/a", na);
    for (k, v) in f.detail {
        detail.set(&k, v);
    }
    detail.set("warnings", f.warnings.clone());
    LayerReport {
        metrics,
        detail,
        warnings: f.warnings,
    }
}

/// Durations of spans named `name`, in microseconds.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Compile, pass and estimate layers read off the traced loop's spans.
fn span_layers(f: &mut Found, spans: &[Span], estimate: &str, trajectories: usize) {
    if let Some(m) = median(&durations_us(spans, "core.compile")) {
        f.put("core.compile_ms", m / 1e3);
    }
    for p in PASSES {
        if let Some(m) = median(&durations_us(spans, &format!("core.pass.{p}"))) {
            f.put(&format!("core.pass.{p}_ms"), m / 1e3);
        }
    }
    let est = durations_us(spans, estimate);
    if let Some(m) = median(&est) {
        f.put("sim.estimate_ms", m / 1e3);
        f.put("sim.traj_us", m / trajectories as f64);
    }
}

/// Exact counts from the workload's distinct artifacts: mean hw ops,
/// sim ops and segments per artifact, and the largest peak state.
fn core_counts(f: &mut Found, artifacts: &[(String, CompileArtifact)]) {
    if artifacts.is_empty() {
        return;
    }
    let n = artifacts.len() as f64;
    let shapes: Vec<(usize, usize, usize)> = artifacts.iter().map(|(_, a)| sim_shape(a)).collect();
    f.put(
        "core.hw_ops",
        artifacts
            .iter()
            .map(|(_, a)| a.stats.hw_ops as f64)
            .sum::<f64>()
            / n,
    );
    f.put(
        "core.sim_ops",
        shapes.iter().map(|s| s.0 as f64).sum::<f64>() / n,
    );
    f.put(
        "core.segments",
        shapes.iter().map(|s| s.1 as f64).sum::<f64>() / n,
    );
    f.put(
        "core.state_bytes_peak",
        artifacts
            .iter()
            .map(|(_, a)| a.sim_state_bytes_peak() as f64)
            .fold(0.0, f64::max),
    );
}

fn class_index(kernel: &GateKernel) -> usize {
    match kernel {
        GateKernel::Identity => 0,
        GateKernel::Diagonal { .. } => 1,
        GateKernel::Permutation { .. } => 2,
        GateKernel::SingleQudit => 3,
        GateKernel::TwoQudit => 4,
        GateKernel::GeneralDense => 5,
    }
}

/// Unit-norm uniform superposition on `register`.
fn uniform_state(register: &Register) -> State {
    let n = register.total_dim();
    State::from_amplitudes(register, vec![C64::real(1.0 / (n as f64).sqrt()); n])
}

/// Dense unitary DFT of dimension `d` (classifies as dense for d >= 2).
fn dft(d: usize) -> Matrix {
    let mut m = Matrix::zeros(d, d);
    let norm = 1.0 / (d as f64).sqrt();
    for r in 0..d {
        for c in 0..d {
            let angle = 2.0 * std::f64::consts::PI * (r * c) as f64 / d as f64;
            m[(r, c)] = C64::new(0.0, angle).exp() * C64::real(norm);
        }
    }
    m
}

/// ROADMAP 1(a): `State::apply_kernel` per kernel class at 64, 256, 4096
/// and 65536 amplitudes (3, 4, 6, 8 ququarts), split into a fixed
/// per-op cost (intercept) and a per-amplitude slope. The headline is
/// the median over the five classes that sweep the state.
fn kernel_probe(f: &mut Found) {
    let diag: Vec<C64> = (0..16)
        .map(|k| C64::new(0.0, 0.3 * k as f64).exp())
        .collect();
    let mut perm = Matrix::zeros(16, 16);
    for j in 0..16 {
        perm[((j + 5) % 16, j)] = C64::new(0.0, 0.1 * j as f64).exp();
    }
    let cases: [(usize, Matrix, Vec<usize>); 6] = [
        (0, Matrix::identity(16), vec![0, 1]),
        (1, Matrix::from_diag(&diag), vec![0, 1]),
        (2, perm, vec![0, 1]),
        (3, dft(4), vec![0]),
        (4, dft(16), vec![0, 1]),
        (5, dft(64), vec![0, 1, 2]),
    ];
    let mut ws = Workspace::serial();
    let mut fits = Json::obj();
    let (mut fixed, mut slope) = (Vec::new(), Vec::new());
    for (class, u, operands) in &cases {
        let kernel = GateKernel::classify(u, operands.len());
        assert_eq!(
            class_index(&kernel),
            *class,
            "probe matrix classifies as {}",
            kernel.name()
        );
        let mut points = Vec::new();
        for qudits in [3usize, 4, 6, 8] {
            let reg = Register::ququarts(qudits);
            let amps = reg.total_dim();
            let mut state = uniform_state(&reg);
            let iters = (16384 / amps).clamp(1, 128);
            let ns = time_ns(7, iters, || {
                state.apply_kernel(&kernel, u, operands, &mut ws)
            });
            points.push((amps as f64, ns));
        }
        let (a, b) = relative_line_fit(&points).expect("four distinct sizes");
        let mut row = Json::obj();
        row.set("fixed_ns", a).set("ns_per_amp", b).set(
            "ns_at_amps",
            Json::Arr(
                points
                    .iter()
                    .map(|&(x, y)| Json::Arr(vec![x.into(), y.into()]))
                    .collect(),
            ),
        );
        fits.set(CLASSES[*class], row);
        if *class != 0 {
            fixed.push(a);
            slope.push(b);
        }
    }
    f.put("sim.kernel.fixed_ns", median(&fixed).expect("five classes"));
    f.put(
        "sim.kernel.ns_per_amp",
        median(&slope).expect("five classes"),
    );
    f.detail.push(("kernel_probe".into(), fits));
}

/// The segments a simulation of `artifact` runs (one when unsplit).
fn schedule(artifact: &CompileArtifact) -> Vec<&TimedCircuit> {
    match artifact.sim_segments() {
        Some(seg) => seg.segments.iter().collect(),
        None => vec![artifact.sim_circuit()],
    }
}

/// Damping-step calls and expected Pauli draws of one trajectory,
/// counted from the schedule exactly as the trajectory runner issues
/// them: `(idle steps, busy steps, expected error draws)`.
fn noise_calls(segments: &[&TimedCircuit], total_ns: f64) -> (usize, usize, f64) {
    let n = segments[0].register.n_qudits();
    let mut free_at = vec![0.0f64; n];
    let (mut idle, mut busy, mut draws) = (0usize, 0usize, 0.0f64);
    for seg in segments {
        for op in &seg.ops {
            match &op.noise_events {
                None => {
                    for &q in &op.operands {
                        if op.start_ns - free_at[q] > 0.0 {
                            idle += 1;
                        }
                        free_at[q] = op.end_ns();
                    }
                    if op.duration_ns > 0.0 {
                        busy += op.operands.len();
                    }
                    draws += 1.0 - op.fidelity.min(1.0);
                }
                Some(events) => {
                    for ev in events {
                        for &q in &ev.operands {
                            if ev.start_ns - free_at[q] > 0.0 {
                                idle += 1;
                            }
                            free_at[q] = ev.end_ns();
                        }
                        if ev.duration_ns > 0.0 {
                            busy += ev.operands.len();
                        }
                        draws += 1.0 - ev.fidelity.min(1.0);
                    }
                }
            }
        }
    }
    idle += free_at.iter().filter(|&&t| total_ns - t > 0.0).count();
    (idle, busy, draws)
}

/// Trajectories that fill about `budget_s` at `per_traj_s` each.
fn probe_trajectories(per_traj_s: f64, budget_s: f64) -> usize {
    ((budget_s / per_traj_s.max(1e-9)) as usize).clamp(10, 400)
}

/// Differential noise layers of one estimator: seconds per trajectory
/// with the paper's noise on a serial pool (`full`) and on the
/// process-wide pool (`wide`), and the shares of `full` that busy
/// damping, idle damping and Pauli errors take, found by switching them
/// off one after another.
struct NoiseShares {
    trajectories: usize,
    full: f64,
    wide: f64,
    busy: f64,
    idle: f64,
    pauli: f64,
}

/// Runs [`NoiseShares`] on `estimate(noise, pool, trajectories)`, which
/// returns seconds per trajectory, with a trajectory count that fills
/// about `budget_s` per estimate.
fn noise_shares(
    budget_s: f64,
    estimate: impl Fn(&NoiseModel, &Arc<TrajectoryPool>, usize) -> f64,
) -> NoiseShares {
    let serial = Arc::new(TrajectoryPool::serial());
    let global = TrajectoryPool::global();
    let paper = NoiseModel::paper();
    let n = probe_trajectories(estimate(&paper, &serial, 10), budget_s);
    let full = estimate(&paper, &serial, n);
    let wide = estimate(&paper, &global, n);
    let mut no_busy = paper.clone();
    no_busy.busy_time_damping = false;
    let t_no_busy = estimate(&no_busy, &serial, n);
    let mut no_damp = no_busy.clone();
    no_damp.damping = false;
    let t_no_damp = estimate(&no_damp, &serial, n);
    let t_none = estimate(&NoiseModel::noiseless(), &serial, n);
    NoiseShares {
        trajectories: n,
        full,
        wide,
        busy: (full - t_no_busy) / full,
        idle: (t_no_busy - t_no_damp) / full,
        pauli: (t_no_damp - t_none) / full,
    }
}

/// Kernel, noise, reshape, ideal, init and overlap layers of the dense
/// trajectory engine on each distinct artifact, the pool efficiency, the
/// differential noise shares, and the residual the per-layer model
/// leaves unexplained.
fn dense_layers(f: &mut Found, artifacts: &[(String, CompileArtifact)], seed: u64) {
    let paper = NoiseModel::paper();
    let global = TrajectoryPool::global();
    let mut rng = StdRng::seed_from_u64(job_seed(seed, 9, 0));
    let mut ws = Workspace::serial();
    let mut class_ns: [Vec<f64>; 6] = Default::default();
    let mut class_ops = [0usize; 6];
    let (mut damp_ns, mut pauli_ns, mut reshape_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ideal_us, mut init_us, mut overlap_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut model_s, mut kernel_s, mut serial_s) = (0.0, 0.0, 0.0);
    let (mut pool_serial_s, mut pool_wide_s) = (0.0, 0.0);
    let (mut idle_share, mut busy_share, mut pauli_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut reshapes = 0usize;
    let mut rows = Json::obj();
    for (key, artifact) in artifacts {
        let segs = schedule(artifact);
        // Kernel: every scheduled op, applied on a state of its segment's
        // register.
        let mut kernel_ns = 0.0;
        let mut op_pauli = Vec::new();
        for seg in &segs {
            let mut state = uniform_state(&seg.register);
            let iters = (16384 / seg.register.total_dim()).clamp(1, 32);
            for op in &seg.ops {
                let ns = time_ns(5, iters, || state.apply_op(op, &mut ws));
                let c = class_index(&op.kernel);
                class_ns[c].push(ns);
                class_ops[c] += 1;
                kernel_ns += ns;
                op_pauli.push(time_ns(5, iters, || {
                    let err = pauli::sample_error(&op.error_dims, &mut rng);
                    for (p, &q) in err.iter().zip(op.operands.iter()) {
                        state.apply_pauli(*p, q);
                    }
                }));
            }
        }
        let pauli_each = median(&op_pauli).unwrap_or(0.0);
        // Damping: one step per qudit of each segment register for the
        // mean pulse duration.
        let mean_dur = {
            let d: Vec<f64> = segs
                .iter()
                .flat_map(|s| s.ops.iter().map(|o| o.duration_ns))
                .collect();
            d.iter().sum::<f64>() / d.len().max(1) as f64
        };
        let mut damp = Vec::new();
        for seg in &segs {
            let mut state = uniform_state(&seg.register);
            let iters = (16384 / seg.register.total_dim()).clamp(1, 32);
            for q in 0..seg.register.n_qudits() {
                damp.push(time_ns(3, iters, || {
                    state.damping_step_with(&paper.coherence, q, mean_dur, &mut rng, &mut ws)
                }));
            }
        }
        let damp_each = median(&damp).unwrap_or(0.0);
        // Reshape at each segment boundary.
        let mut reshape = Vec::new();
        for pair in segs.windows(2) {
            let from = uniform_state(&pair[0].register);
            let mut to = State::zero(&pair[1].register);
            reshape.push(time_ns(3, 4, || {
                std::hint::black_box(from.reshape_into_lossy(&mut to));
            }));
        }
        let reshape_total: f64 = reshape.iter().sum();
        // Ideal run, initial-state fill and fidelity overlap.
        let first = &segs[0].register;
        let last = &segs[segs.len() - 1].register;
        let mut initial = State::zero(first);
        let init = time_ns(5, 8, || {
            artifact.write_random_product_initial_state(&mut rng, &mut initial)
        });
        let ideal_ns = match artifact.sim_segments() {
            Some(seg) => {
                let (mut out, mut scratch) = seg.rolling_buffers();
                time_ns(3, 2, || {
                    ideal::run_segmented_into(seg, &initial, &mut out, &mut scratch, &mut ws)
                })
            }
            None => {
                let mut out = State::zero(first);
                time_ns(3, 2, || {
                    ideal::run_into(artifact.sim_circuit(), &initial, &mut out, &mut ws)
                })
            }
        };
        let (a, b) = (uniform_state(last), uniform_state(last));
        let overlap = time_ns(5, 8, || {
            std::hint::black_box(a.fidelity(&b));
        });
        // Serial per-trajectory time, the pool, and the noise layers by
        // switching them off one after another.
        let shares = noise_shares(0.15, |noise, pool, n| {
            let t0 = Instant::now();
            std::hint::black_box(
                artifact
                    .simulate()
                    .with_noise(noise.clone())
                    .with_seed(job_seed(seed, 10, 0))
                    .with_pool(Arc::clone(pool))
                    .average_fidelity(n),
            );
            t0.elapsed().as_secs_f64() / n as f64
        });
        let (full, n) = (shares.full, shares.trajectories);
        busy_share.push(shares.busy);
        idle_share.push(shares.idle);
        pauli_share.push(shares.pauli);
        pool_serial_s += full;
        pool_wide_s += shares.wide;

        let total_ns = artifact
            .sim_segments()
            .map_or(artifact.sim_circuit().total_duration_ns, |s| {
                s.total_duration_ns
            });
        let (idle, busy, draws) = noise_calls(&segs, total_ns);
        let model_ns = kernel_ns
            + (idle + busy) as f64 * damp_each
            + draws * pauli_each
            + reshape_total
            + ideal_ns
            + init
            + overlap;
        model_s += model_ns / 1e9;
        // The ideal run is nothing but kernel applies, so it counts
        // towards the kernel layer's share.
        kernel_s += (kernel_ns + ideal_ns) / 1e9;
        serial_s += full;
        reshapes += segs.len() - 1;
        damp_ns.push(damp_each);
        pauli_ns.push(pauli_each);
        reshape_ns.extend(&reshape);
        ideal_us.push(ideal_ns / 1e3);
        init_us.push(init / 1e3);
        overlap_us.push(overlap / 1e3);

        let per_traj_ns = full * 1e9;
        let mut row = Json::obj();
        let layer = |ns: f64| {
            let mut o = Json::obj();
            o.set("ns", ns).set("share", ns / per_traj_ns);
            o
        };
        row.set("serial_traj_ns", per_traj_ns)
            .set("probe_trajectories", n)
            .set("kernel", layer(kernel_ns))
            .set("damping", layer((idle + busy) as f64 * damp_each))
            .set("damping_steps", idle + busy)
            .set("pauli", layer(draws * pauli_each))
            .set("pauli_draws_expected", draws)
            .set("reshape", layer(reshape_total))
            .set("ideal", layer(ideal_ns))
            .set("init", layer(init))
            .set("overlap", layer(overlap))
            .set("residual", layer(per_traj_ns - model_ns));
        rows.set(key, row);
    }
    let n = artifacts.len().max(1) as f64;
    for (c, name) in CLASSES.iter().enumerate() {
        if class_ops[c] > 0 {
            f.put(
                &format!("sim.kernel.{name}_ns"),
                class_ns[c].iter().sum::<f64>() / class_ops[c] as f64,
            );
        }
        f.put(&format!("sim.kernel.{name}_ops"), class_ops[c] as f64 / n);
    }
    f.put("sim.kernel.share", kernel_s / serial_s);
    f.put(
        "sim.noise.idle_damping_share",
        median(&idle_share).unwrap_or(f64::NAN),
    );
    f.put(
        "sim.noise.busy_damping_share",
        median(&busy_share).unwrap_or(f64::NAN),
    );
    f.put(
        "sim.noise.pauli_share",
        median(&pauli_share).unwrap_or(f64::NAN),
    );
    f.put("sim.noise.damping_ns", median(&damp_ns).unwrap_or(f64::NAN));
    f.put("sim.noise.pauli_ns", median(&pauli_ns).unwrap_or(f64::NAN));
    f.put("sim.reshape_ns", median(&reshape_ns).unwrap_or(f64::NAN));
    f.put("sim.reshapes", reshapes as f64 / n);
    f.put("sim.ideal_us", median(&ideal_us).unwrap_or(f64::NAN));
    f.put("sim.init_us", median(&init_us).unwrap_or(f64::NAN));
    f.put("sim.overlap_us", median(&overlap_us).unwrap_or(f64::NAN));
    f.put("sim.residual_share", 1.0 - model_s / serial_s);
    f.put(
        "sim.pool.efficiency",
        pool_serial_s / pool_wide_s / global.threads() as f64,
    );
    f.detail
        .push(("per_artifact_serial_trajectory".into(), rows));
}

/// Classical input `k` of the layer probes (a stream disjoint from the
/// timed jobs'), as a basis index on the first segment's register.
fn probe_input(
    load: &QramLoad,
    artifact: &CompileArtifact,
    seg: &SegmentedCircuit,
    m: usize,
    seed: u64,
    k: u64,
) -> usize {
    let input = QramInput::draw(m, seed, (1 << 40) + k);
    load.encode_input(artifact, seg.first_register(), &input.logical_input(m))
}

/// Eight noiseless qram(5) fetches on fixed inputs: the peak nnz and how
/// many ended dense.
fn fetch_probe(load: &QramLoad, artifact: &CompileArtifact, seed: u64) -> (usize, usize) {
    let seg = segmented(artifact);
    let (mut peak, mut dense) = (0, 0);
    for k in 0..8 {
        let (out, p) = fetch_adaptive(&seg, probe_input(load, artifact, &seg, 5, seed, k));
        peak = peak.max(p);
        dense += usize::from(out.is_dense());
    }
    (peak, dense)
}

/// The density-adaptive layers of `qram-sparse`: noise shares and pool
/// efficiency of the adaptive estimator on qram(3), and how often a
/// fetch or a noisy trajectory ends dense.
fn sparse_layers(
    f: &mut Found,
    load: &QramLoad,
    artifacts: &[(String, CompileArtifact)],
    seed: u64,
) {
    let policy = SparsePolicy::default();
    let global = TrajectoryPool::global();
    let (mut dense_end, mut runs) = (0usize, 0usize);
    for (key, artifact) in artifacts {
        if key.starts_with("qram-38q") {
            let (_, dense) = fetch_probe(load, artifact, seed);
            dense_end += dense;
            runs += 8;
            continue;
        }
        let seg = segmented(artifact);
        let seg = &*seg;
        let start = probe_input(load, artifact, seg, 3, seed, 0);
        let shares = noise_shares(0.2, |noise, pool, n| {
            let t0 = Instant::now();
            std::hint::black_box(trajectory::average_fidelity_segmented_adaptive_with_on(
                pool,
                seg,
                noise,
                n,
                job_seed(seed, 11, 0),
                &policy,
                |_: &Register, _: &mut StdRng, out: &mut SparseState| out.fill_basis(start),
            ));
            t0.elapsed().as_secs_f64() / n as f64
        });
        f.put("sim.noise.busy_damping_share", shares.busy);
        f.put("sim.noise.idle_damping_share", shares.idle);
        f.put("sim.noise.pauli_share", shares.pauli);
        f.put(
            "sim.pool.efficiency",
            shares.full / shares.wide / global.threads() as f64,
        );
        f.put("sim.reshapes", seg.reshape_count() as f64);
        // Final representation of individual noisy trajectories.
        let (mut ws, initial, mut out, mut scratch) = adaptive_setup(seg, start);
        let paper = NoiseModel::paper();
        let mut rng = StdRng::seed_from_u64(job_seed(seed, 12, 0));
        for _ in 0..32 {
            trajectory::run_trajectory_segmented_adaptive_into(
                seg,
                &initial,
                &paper,
                &mut rng,
                &mut out,
                &mut scratch,
                &mut ws,
            );
            dense_end += usize::from(out.is_dense());
            runs += 1;
        }
    }
    if runs > 0 {
        f.put("sim.sparse.dense_share", dense_end as f64 / runs as f64);
    }
}

/// Encode/decode time and size of each artifact.
fn codec_layers(f: &mut Found, artifacts: &[(String, CompileArtifact)]) {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (_, artifact) in artifacts {
        let encoded = encode_versioned(artifact);
        bytes.push(encoded.len() as f64);
        enc.push(
            time_ns(5, 4, || {
                std::hint::black_box(encode_versioned(artifact));
            }) / 1e3,
        );
        dec.push(
            time_ns(5, 4, || {
                std::hint::black_box(
                    decode_versioned::<CompileArtifact>(&encoded).expect("round trip"),
                );
            }) / 1e3,
        );
    }
    let n = artifacts.len().max(1) as f64;
    f.put("codec.encode_us", enc.iter().sum::<f64>() / n);
    f.put("codec.decode_us", dec.iter().sum::<f64>() / n);
    f.put("codec.artifact_bytes", bytes.iter().sum::<f64>() / n);
}

/// Service layers: ping and connect round trips, per-request overhead,
/// bytes per request, the shared cache, and the server's own pass
/// timings. Counters are taken as the change since `baseline`, so they
/// cover the two halves of the traced run (`requests` requests) and the
/// pings, not the set-up.
fn serve_layers(f: &mut Found, load: &ServeLoad, baseline: &StatsSnapshot, requests: usize) {
    const PINGS: u64 = 20;
    let mut client = load.clients[0].lock().expect("client poisoned");
    let mut ping = Vec::new();
    for k in 0..PINGS {
        let t0 = Instant::now();
        let echo = client.ping(k).expect("ping");
        assert_eq!(echo, k, "ping echoes its token");
        ping.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    drop(client);
    f.put("serve.ping_ms", median(&ping).expect("pings"));
    let addr = load.server.local_addr().to_string();
    let mut connect = load.connect_ms.clone();
    for _ in 0..5 {
        let t0 = Instant::now();
        drop(quantum_waltz::serve::ServeClient::connect(&addr).expect("connect"));
        connect.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    f.put("serve.connect_ms", median(&connect).expect("connects"));
    let timings = load.timings.lock().expect("timing log poisoned").clone();
    if let Some(m) = median(&timings.overhead_ms) {
        f.put("serve.overhead_ms", m);
    }
    if let Some(m) = median(&timings.supervisor_job_ms) {
        f.put("core.supervisor.job_ms", m);
    }
    let stats = load.server.stats();
    // The connects never send a frame.
    let served = requests + PINGS as usize;
    let bytes =
        stats.bytes_sent + stats.bytes_received - baseline.bytes_sent - baseline.bytes_received;
    f.put("serve.bytes_per_req", bytes as f64 / served as f64);
    if let (Some(cache), Some(before)) = (&stats.cache, &baseline.cache) {
        let (hits, misses) = (cache.hits - before.hits, cache.misses - before.misses);
        f.put(
            "core.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let compiled = misses.max(1) as f64;
        let mut total = 0.0;
        for (pass, ms) in &stats.pass_wall_ms {
            let name = pass.to_lowercase();
            let earlier = baseline
                .pass_wall_ms
                .iter()
                .find(|(p, _)| p == pass)
                .map_or(0.0, |(_, ms)| *ms);
            if PASSES.contains(&name.as_str()) {
                f.put(&format!("core.pass.{name}_ms"), (ms - earlier) / compiled);
                total += ms - earlier;
            }
        }
        f.put("core.compile_ms", total / compiled);
    }
    let mut d = Json::obj();
    d.set("unexpected_cache_misses", timings.unexpected_misses)
        .set("unexpected_cache_hits", timings.unexpected_hits)
        .set("requests", served)
        .set("stats", stats.render());
    f.detail.push(("serve".into(), d));
}
