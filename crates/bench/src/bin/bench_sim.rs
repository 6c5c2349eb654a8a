//! Emits the `BENCH_sim.json` perf baseline: gate-apply ns/op by kernel
//! class at 4^8 amplitudes (SIMD vs. scalar sweep bodies, specialized
//! vs. the generic dense path),
//! windowed vs. whole-register vs. unfused vs. kernel-demoted vs.
//! register-padded trajectory throughput on the cnu-6q benchmark plus a
//! trajectories/sec-vs-threads scaling curve, dense vs. density-adaptive
//! sparse throughput on basis inputs with the sparse support trajectory
//! (peak nnz, densities, final representation), per-strategy state bytes
//! with per-segment occupancy and reshape counts, compile times, and
//! per-pass pipeline wall times (schema `bench_sim/v9`). Each
//! `trajectory_cnu6q` rate is the median of [`RATE_ROUNDS`] interleaved
//! rounds of [`RATE_TRAJECTORIES`] trajectories.
//!
//! Usage: `cargo run --release -p waltz-bench --bin bench_sim [--out PATH]
//! [--budget-ms N]`.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use waltz_bench::perf::{time_ns, JsonObject};
use waltz_bench::runner;
use waltz_circuits::generalized_toffoli;
use waltz_core::{CompileOptions, Compiler, Strategy};
use waltz_gates::GateLibrary;
use waltz_math::{Matrix, C64};
use waltz_noise::NoiseModel;
use waltz_sim::trajectory::Estimator;
use waltz_sim::{
    GateKernel, Register, Session, SimdLevel, SparsePolicy, SparseState, State, TrajectoryPool,
    Workspace,
};

/// Interleaved rounds behind each `trajectory_cnu6q` rate column.
const RATE_ROUNDS: usize = 5;

/// Trajectories per round of a `trajectory_cnu6q` rate.
const RATE_TRAJECTORIES: usize = 2000;

/// The median of `values` (sorted in place; the upper middle one for an
/// even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// One gate-apply comparison: the specialized kernel at the detected
/// SIMD tier against the same kernel pinned to the scalar sweep body and
/// against the generic dense reference.
fn apply_case(
    name: &str,
    u: &Matrix,
    operands: &[usize],
    state: &mut State,
    budget: Duration,
) -> JsonObject {
    let kernel = GateKernel::classify(u, operands.len());
    assert_eq!(kernel.name(), name, "unexpected kernel class for {name}");
    let mut scalar = Workspace::new();
    scalar.set_simd_level(SimdLevel::Scalar);
    let scalar_t = time_ns(budget, || {
        state.apply_kernel(&kernel, u, operands, &mut scalar)
    });
    let mut ws = Workspace::new();
    let kernel_t = time_ns(budget, || state.apply_kernel(&kernel, u, operands, &mut ws));
    let generic_t = time_ns(budget, || state.apply_unitary(u, operands));
    let mut o = JsonObject::new();
    o.num("kernel_ns", kernel_t.ns_per_op)
        .num("kernel_scalar_ns", scalar_t.ns_per_op)
        .num("generic_ns", generic_t.ns_per_op)
        .num("speedup", generic_t.ns_per_op / kernel_t.ns_per_op)
        .num("speedup_simd", scalar_t.ns_per_op / kernel_t.ns_per_op);
    println!(
        "apply/{name:<14} simd {:>10.0} ns  scalar {:>10.0} ns ({:.2}x)  \
         generic {:>11.0} ns  ({:.1}x)",
        kernel_t.ns_per_op,
        scalar_t.ns_per_op,
        scalar_t.ns_per_op / kernel_t.ns_per_op,
        generic_t.ns_per_op,
        generic_t.ns_per_op / kernel_t.ns_per_op
    );
    o
}

fn main() {
    let mut out_path = "BENCH_sim.json".to_string();
    let mut budget_ms = 300u64;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            "--budget-ms" => {
                budget_ms = args[i + 1].parse().expect("bad --budget-ms");
                i += 2;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    let budget = Duration::from_millis(budget_ms);

    // --- Gate application at 4^8 = 65536 amplitudes. ---------------------
    let reg = Register::ququarts(8);
    let mut rng = StdRng::seed_from_u64(1);
    let mut state = State::random_qubit_product(&reg, &mut rng);
    let mut apply = JsonObject::new();

    // Diagonal: the full-ququart CZ (16x16 diagonal), operands (3, 4).
    let cz = waltz_gates::full_quart::cz(waltz_gates::Slot::S0, waltz_gates::Slot::S1);
    apply.obj(
        "diagonal",
        &apply_case("diagonal", &cz, &[3, 4], &mut state, budget),
    );

    // Permutation: a two-ququart phased permutation (16 states).
    let perm: Vec<usize> = (0..16).map(|j| (j + 5) % 16).collect();
    let perm_u = Matrix::permutation(&perm);
    apply.obj(
        "permutation",
        &apply_case("permutation", &perm_u, &[3, 4], &mut state, budget),
    );

    // Single-qudit dense: Haar 4x4.
    let u4 = waltz_math::linalg::haar_unitary(4, &mut rng);
    apply.obj(
        "single-qudit",
        &apply_case("single-qudit", &u4, &[3], &mut state, budget),
    );

    // Two-qudit dense: Haar 16x16 (the L1-tiled gather arm).
    let u16 = waltz_math::linalg::haar_unitary(16, &mut rng);
    apply.obj(
        "two-qudit",
        &apply_case("two-qudit", &u16, &[3, 4], &mut state, budget),
    );

    // General dense block: Haar 64x64 over three ququarts — the dense
    // FMA arm at its largest stack-resident block size.
    let u64m = waltz_math::linalg::haar_unitary(64, &mut rng);
    apply.obj(
        "general-dense",
        &apply_case("general-dense", &u64m, &[2, 4, 6], &mut state, budget),
    );

    // --- Compile + trajectory throughput on cnu-6q. ----------------------
    let lib = GateLibrary::paper();
    let noise = NoiseModel::paper();
    let circuit = generalized_toffoli(3); // 6 logical qubits
    let mut compile_obj = JsonObject::new();
    let mut pipeline_obj = JsonObject::new();
    let mut traj_obj = JsonObject::new();
    for strategy in [
        Strategy::qubit_only(),
        Strategy::mixed_radix_ccz(),
        Strategy::full_ququart(),
    ] {
        let compiler = runner::compiler_for(&strategy, &lib);
        let compile_t = time_ns(budget, || {
            std::hint::black_box(compiler.compile(&circuit).unwrap());
        });
        compile_obj.num(&strategy.name(), compile_t.ns_per_op / 1e6);
        // Fused simulation schedule (the default) vs. the PR 1 unfused
        // pulse-by-pulse engine vs. every kernel demoted to GeneralDense.
        let compiled = compiler.compile(&circuit).unwrap();
        // Per-pass wall times of one representative compile: every
        // pipeline stage records a PassReport into the artifact.
        let mut passes = JsonObject::new();
        for report in compiled.reports() {
            passes.num(report.pass.name(), report.wall_ms);
        }
        passes.num("total", compiled.total_wall_ms());
        pipeline_obj.obj(&strategy.name(), &passes);
        // The PR 4 whole-program-demoted engine: one register sized to
        // each device's lifetime-maximum occupancy, no reshapes.
        let whole = Compiler::with_options(
            compiler.target().clone(),
            CompileOptions::default().with_windowed_registers(false),
        )
        .compile(&circuit)
        .unwrap();
        let unfused = Compiler::with_options(
            compiler.target().clone(),
            CompileOptions::unfused().with_windowed_registers(false),
        )
        .compile(&circuit)
        .unwrap();
        // The register-padded engine (every device at its full physical
        // dimension) — the pre-occupancy baseline; identical to the
        // default for qubit-only and full-ququart, 16x more amplitudes
        // for mixed-radix cnu-6q.
        let padded = Compiler::with_options(
            compiler.target().clone(),
            CompileOptions::default().with_padded_registers(),
        )
        .compile(&circuit)
        .unwrap();
        let mut dense = unfused.compiled().clone();
        for op in dense.sim.segments.iter_mut().flat_map(|s| &mut s.ops) {
            op.kernel = GateKernel::GeneralDense;
        }
        // Interleave the variants over RATE_ROUNDS rounds of
        // RATE_TRAJECTORIES each and report each one's median rate, so
        // slow drift on a shared host moves every variant alike and one
        // lucky or unlucky run cannot carry a column. `compiled` (the
        // default) runs the windowed segmented schedule when the
        // analysis split the program.
        let mut rates: [Vec<f64>; 5] = Default::default();
        let (mut est, mut est_unfused) = (None, None);
        for _ in 0..RATE_ROUNDS {
            let (e, r) = runner::simulate_timed(&compiled, &noise, RATE_TRAJECTORIES, 7);
            rates[0].push(r);
            est = Some(e);
            let (_, r) = runner::simulate_timed(&whole, &noise, RATE_TRAJECTORIES, 7);
            rates[1].push(r);
            let (e, r) = runner::simulate_timed(&unfused, &noise, RATE_TRAJECTORIES, 7);
            rates[2].push(r);
            est_unfused = Some(e);
            let (_, r) = runner::simulate_timed(&dense, &noise, RATE_TRAJECTORIES, 7);
            rates[3].push(r);
            let (_, r) = runner::simulate_timed(&padded, &noise, RATE_TRAJECTORIES, 7);
            rates[4].push(r);
        }
        let [rate, whole_rate, unfused_rate, dense_rate, padded_rate] =
            rates.map(|mut r| median(&mut r));
        let (est, est_unfused) = (est.expect("measured"), est_unfused.expect("measured"));
        // Honesty guard on the headline windowed-vs-whole column. When
        // the analysis produced no segmented schedule the "windowed" run
        // executes the identical whole-register code path, so (as in
        // `apply_case`) the column reports the whole-register rate
        // instead of presenting timer noise as a speedup or regression.
        let schedule = compiled.sim_schedule();
        let windowed_split = schedule.is_split();
        let rate = if windowed_split { rate } else { whole_rate };
        let register = &whole.timed.register;
        let mut occupancy = JsonObject::new();
        for dim in [2u8, 4u8] {
            occupancy.int(
                &format!("dim{dim}"),
                register.dims().iter().filter(|&&d| d == dim).count() as u64,
            );
        }
        let segments = schedule.segments().len();
        let reshapes = segments - 1;
        let peak_bytes = schedule.peak_state_bytes();
        let mean_bytes = schedule.mean_state_bytes();
        let segment_dims = schedule
            .segments()
            .iter()
            .map(|s| {
                s.register
                    .dims()
                    .iter()
                    .map(u8::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join("|");
        // --- Dense vs density-adaptive sparse, on basis inputs. ----------
        // Random product inputs are dense from the first op, so the
        // adaptive engine is exercised where it matters: classical
        // basis-state inputs (the Toffoli/qram regime the sparse
        // representation exists for), same schedule, same noise, same
        // seed on both sides.
        let policy = SparsePolicy::default();
        let basis_dense = |_reg: &Register, _rng: &mut StdRng, out: &mut State| {
            out.fill_product_with(|_, lvl| if lvl == 0 { C64::ONE } else { C64::ZERO });
        };
        let basis_sparse = |_reg: &Register, _rng: &mut StdRng, out: &mut SparseState| {
            out.fill_basis(0);
        };
        let (mut dense_basis_rates, mut adaptive_basis_rates) = (Vec::new(), Vec::new());
        let rate_of = |t0: std::time::Instant| {
            RATE_TRAJECTORIES as f64 / t0.elapsed().as_secs_f64().max(1e-9)
        };
        for _ in 0..RATE_ROUNDS {
            let t0 = std::time::Instant::now();
            Estimator::new(schedule, &noise)
                .with_input(basis_dense)
                .estimate(RATE_TRAJECTORIES, 7);
            dense_basis_rates.push(rate_of(t0));
            let t0 = std::time::Instant::now();
            Estimator::adaptive(schedule, &noise, &policy, basis_sparse)
                .estimate(RATE_TRAJECTORIES, 7);
            adaptive_basis_rates.push(rate_of(t0));
        }
        let dense_basis_rate = median(&mut dense_basis_rates);
        let adaptive_basis_rate = median(&mut adaptive_basis_rates);
        // One noiseless adaptive run traces the support: peak nnz, the
        // density it implies against the dense amplitude count, and
        // which representation the state ended in.
        let mut sparse_session = Session::adaptive(schedule, &policy);
        let out =
            sparse_session.run_ideal(schedule, &SparseState::basis(schedule.first_register(), 0));
        let (nnz_peak, sparse_peak_bytes, density_final) =
            (out.peak_nnz(), out.peak_state_bytes(), out.density());
        let repr_final = if out.is_dense() { "dense" } else { "sparse" };
        let dense_peak_amps = (peak_bytes / 16).max(1);
        let mut t = JsonObject::new();
        t.num("trajectories_per_sec", rate)
            .num("trajectories_per_sec_whole", whole_rate)
            .num("trajectories_per_sec_unfused", unfused_rate)
            .num("trajectories_per_sec_dense", dense_rate)
            .num("trajectories_per_sec_padded", padded_rate)
            .num("speedup_windowed_vs_whole", rate / whole_rate)
            .int("windowed_split", u64::from(windowed_split))
            .num("speedup_fused_vs_unfused", whole_rate / unfused_rate)
            .num("speedup_unfused_vs_dense", unfused_rate / dense_rate)
            .num("speedup_demoted_vs_padded", whole_rate / padded_rate)
            .num("trajectories_per_sec_dense_basis", dense_basis_rate)
            .num("trajectories_per_sec_adaptive_basis", adaptive_basis_rate)
            .num(
                "speedup_adaptive_vs_dense_basis",
                adaptive_basis_rate / dense_basis_rate,
            )
            .int("sparse_nnz_peak_basis", nnz_peak as u64)
            .int("sparse_state_bytes_peak_basis", sparse_peak_bytes as u64)
            .num(
                "sparse_density_peak_basis",
                nnz_peak as f64 / dense_peak_amps as f64,
            )
            .num("sparse_density_final_basis", density_final)
            .str("sparse_repr_final_basis", repr_final)
            .int(
                "sparse_state_bytes_pred",
                compiled.sparse_state_bytes_pred().unwrap_or(0) as u64,
            )
            .int("state_bytes", register.state_bytes() as u64)
            .int(
                "state_bytes_padded",
                padded.timed.register.state_bytes() as u64,
            )
            .int("state_bytes_peak_windowed", peak_bytes as u64)
            .num("state_bytes_mean_windowed", mean_bytes)
            .int("segments", segments as u64)
            .int("reshapes", reshapes as u64)
            .str("segment_dims", &segment_dims)
            .obj("occupancy", &occupancy)
            .int("hw_ops", compiled.timed.len() as u64)
            .int("fused_ops", compiled.sim.len() as u64)
            .int("trajectories", RATE_TRAJECTORIES as u64)
            .int("rate_rounds", RATE_ROUNDS as u64)
            .num("mean_fidelity", est.mean)
            .num("mean_fidelity_unfused", est_unfused.mean)
            .num("std_error", est.std_error);
        traj_obj.obj(&strategy.name(), &t);
        println!(
            "trajectory/cnu-6q/{:<22} windowed {:>8.0} traj/s ({} segs, {} reshapes, peak {} \
             amps)  whole {:>8.0} ({:.2}x)  unfused {:>8.0}  dense {:>8.0}  padded {:>8.0} \
             ({:.2}x, {} -> {} amps)  mean F = {:.4}",
            strategy.name(),
            rate,
            segments,
            reshapes,
            peak_bytes / 16,
            whole_rate,
            rate / whole_rate,
            unfused_rate,
            dense_rate,
            padded_rate,
            whole_rate / padded_rate,
            padded.timed.register.total_dim(),
            register.total_dim(),
            est.mean
        );
        println!(
            "trajectory/cnu-6q/{:<22} basis: dense {:>8.0} traj/s  adaptive {:>8.0} traj/s \
             ({:.2}x)  nnz peak {} / {} amps  final repr {}",
            strategy.name(),
            dense_basis_rate,
            adaptive_basis_rate,
            adaptive_basis_rate / dense_basis_rate,
            nnz_peak,
            dense_peak_amps,
            repr_final
        );
    }

    // --- Trajectory scaling curve on cnu-6q. -----------------------------
    // Best-of-three trajectories/sec at each pool width (1, 2, 4, ...,
    // host cores) on the mixed-radix compile; the estimate itself is
    // bit-identical at every width, so only the rate is recorded.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scaling_compiled = runner::compiler_for(&Strategy::mixed_radix_ccz(), &lib)
        .compile(&circuit)
        .unwrap();
    let mut widths: Vec<usize> = Vec::new();
    let mut w = 1;
    while w < host_cores {
        widths.push(w);
        w *= 2;
    }
    widths.push(host_cores);
    let mut scaling = JsonObject::new();
    let mut base_rate = 0.0f64;
    for &threads in &widths {
        let pool = TrajectoryPool::new(threads);
        let mut best = 0.0f64;
        for _ in 0..3 {
            let (_, r) = runner::simulate_timed_on(&pool, &scaling_compiled, &noise, 400, 7);
            best = best.max(r);
        }
        if threads == 1 {
            base_rate = best;
        }
        let efficiency = best / (threads as f64 * base_rate);
        let mut point = JsonObject::new();
        point
            .int("threads", threads as u64)
            .num("trajectories_per_sec", best)
            .num("parallel_efficiency", efficiency);
        scaling.obj(&format!("threads_{threads}"), &point);
        println!(
            "scaling/cnu-6q/mixed-radix  {threads:>3} threads  {best:>8.0} traj/s  \
             efficiency {efficiency:.2}"
        );
    }

    // --- Report. ---------------------------------------------------------
    let threads = host_cores;
    let mut report = JsonObject::new();
    report
        .str("schema", "bench_sim/v9")
        .str(
            "bench",
            "SIMD-vectorized kernel-specialized state-vector engine + gate fusion + \
             occupancy-demoted registers + windowed (time-sliced) registers + pooled \
             trajectory engine + density-adaptive sparse amplitude-map state",
        )
        .int("threads", threads as u64)
        .int("host_cores", host_cores as u64)
        .str("simd_level", SimdLevel::detect().name())
        .int("amplitudes", reg.total_dim() as u64)
        .obj("gate_apply_4pow8", &apply)
        .obj("compile_ms_cnu6q", &compile_obj)
        .obj("pipeline_ms_cnu6q", &pipeline_obj)
        .obj("trajectory_cnu6q", &traj_obj)
        .obj("trajectory_scaling_cnu6q", &scaling);
    let rendered = report.render_pretty();
    std::fs::write(&out_path, &rendered).expect("write BENCH_sim.json");
    println!("wrote {out_path}");
}
