//! Compile-then-simulate sweeps shared by every harness binary.

use waltz_circuit::Circuit;
use waltz_core::{
    CompileError, CompiledCircuit, Compiler, Strategy, Supervisor, SupervisorPolicy, Target,
};
use waltz_gates::GateLibrary;
use waltz_noise::{CoherenceModel, NoiseModel};
use waltz_sim::trajectory::FidelityEstimate;
use waltz_sim::Register;

/// Harness options, parsed from the command line.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Monte-Carlo trajectories per data point (the paper uses 1000+).
    pub trajectories: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Run at paper scale (all sizes, 1000 trajectories).
    pub full: bool,
    /// Override for the size sweep.
    pub sizes: Option<Vec<usize>>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            trajectories: 120,
            seed: 20230617,
            full: false,
            sizes: None,
        }
    }
}

impl HarnessConfig {
    /// Parses `--trajectories N`, `--seed N`, `--sizes a,b,c`, `--full`
    /// from `std::env::args`.
    pub fn from_args() -> Self {
        let mut cfg = HarnessConfig::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--trajectories" => {
                    cfg.trajectories = args[i + 1].parse().expect("bad --trajectories");
                    i += 2;
                }
                "--seed" => {
                    cfg.seed = args[i + 1].parse().expect("bad --seed");
                    i += 2;
                }
                "--sizes" => {
                    cfg.sizes = Some(
                        args[i + 1]
                            .split(',')
                            .map(|s| s.parse().expect("bad --sizes"))
                            .collect(),
                    );
                    i += 2;
                }
                "--full" => {
                    cfg.full = true;
                    cfg.trajectories = cfg.trajectories.max(1000);
                    i += 1;
                }
                other => panic!("unknown flag {other}"),
            }
        }
        cfg
    }

    /// Effective trajectory count.
    pub fn effective_trajectories(&self) -> usize {
        if self.full {
            self.trajectories.max(1000)
        } else {
            self.trajectories
        }
    }
}

/// The strategy set of the Fig. 7 comparison.
pub fn fig7_strategies() -> Vec<Strategy> {
    vec![
        Strategy::qubit_only(),
        Strategy::qubit_only_itoffoli(),
        Strategy::mixed_radix_raw(),
        Strategy::mixed_radix_retarget(),
        Strategy::mixed_radix_ccz(),
        Strategy::full_ququart(),
    ]
}

/// One simulated data point.
#[derive(Debug, Clone)]
pub struct DataPoint {
    /// Strategy evaluated.
    pub strategy: Strategy,
    /// Trajectory-method fidelity estimate.
    pub fidelity: FidelityEstimate,
    /// Analytic gate EPS (product of pulse fidelities).
    pub eps_gate: f64,
    /// Coherence EPS.
    pub eps_coherence: f64,
    /// Scheduled circuit duration (ns).
    pub duration_ns: f64,
    /// Hardware pulse count.
    pub pulses: usize,
}

/// A reusable [`Compiler`] for the paper's machine with an explicit
/// library: what every harness binary builds per strategy.
pub fn compiler_for(strategy: &Strategy, lib: &GateLibrary) -> Compiler {
    Compiler::new(Target::paper(*strategy).with_library(lib.clone()))
}

/// Compiles `circuit` under `strategy` and estimates its fidelity with the
/// trajectory method on random product inputs (§6.4).
///
/// # Errors
///
/// Propagates compiler errors.
///
/// # Panics
///
/// Panics if no degradation rung fits the [`MAX_STATE_BYTES`] budget;
/// size sweeps should use [`try_evaluate`] and skip such points.
pub fn evaluate(
    circuit: &Circuit,
    strategy: &Strategy,
    lib: &GateLibrary,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> Result<DataPoint, CompileError> {
    Ok(
        try_evaluate(circuit, strategy, lib, noise, trajectories, seed)?
            .expect("compiled register exceeds the simulation byte budget"),
    )
}

/// [`evaluate`] run through a budgeted [`Supervisor`] instead of a
/// boolean skip: the job compiles under a [`MAX_STATE_BYTES`] state-byte
/// budget, an over-budget register walks the supervisor's degradation
/// ladder (forced windowing, then the whole-program demoted register,
/// then sparse admission) before the point is given up on, and a
/// structured [`CompileError::OverBudget`] rejection — no rung fits —
/// returns `Ok(None)`. Sparse-admitted artifacts
/// ([`waltz_core::Degradation::Sparse`]) also return `Ok(None)`: they
/// fit the budget only under the density-adaptive engine on basis
/// inputs, not this sweep's dense random-input trajectories. The
/// per-circuit follow-up to the optimistic [`simulable`] pre-filter.
///
/// # Errors
///
/// Propagates compiler errors (panics in a pass surface as
/// [`CompileError::Internal`] rather than aborting the sweep).
pub fn try_evaluate(
    circuit: &Circuit,
    strategy: &Strategy,
    lib: &GateLibrary,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> Result<Option<DataPoint>, CompileError> {
    let supervisor = Supervisor::with_policy(
        compiler_for(strategy, lib),
        SupervisorPolicy::default().with_state_budget_bytes(MAX_STATE_BYTES),
    );
    let job = supervisor.compile_one(circuit);
    // A sparse-admitted artifact fits the budget only under the
    // density-adaptive engine on basis inputs; this sweep runs dense
    // random-product-input trajectories, so simulating it here would
    // blow the very budget it was admitted under. Skip the point like a
    // budget rejection.
    if job.degradation == waltz_core::Degradation::Sparse {
        return Ok(None);
    }
    let compiled = match job.result {
        Ok(artifact) => artifact,
        Err(CompileError::OverBudget { .. }) => return Ok(None),
        Err(e) => return Err(e),
    };
    let fidelity = simulate(&compiled, noise, trajectories, seed);
    let eps = compiled.compiled().eps(&noise.coherence);
    Ok(Some(DataPoint {
        strategy: *strategy,
        fidelity,
        eps_gate: eps.gate,
        eps_coherence: eps.coherence,
        duration_ns: compiled.stats.total_duration_ns,
        pulses: compiled.stats.hw_ops,
    }))
}

/// Trajectory-method fidelity of an already-compiled circuit:
/// [`CompiledCircuit::estimator`] over its simulation schedule, the
/// estimate `Simulation::average_fidelity` runs.
pub fn simulate(
    compiled: &CompiledCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> FidelityEstimate {
    compiled.estimator(noise).estimate(trajectories, seed)
}

/// [`simulate`] with wall-clock accounting: returns the estimate plus the
/// achieved trajectories per second, for the `BENCH_sim.json` perf
/// baseline.
pub fn simulate_timed(
    compiled: &CompiledCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> (FidelityEstimate, f64) {
    simulate_timed_on(
        &waltz_sim::TrajectoryPool::global(),
        compiled,
        noise,
        trajectories,
        seed,
    )
}

/// [`simulate_timed`] on a caller-chosen [`waltz_sim::TrajectoryPool`] —
/// the thread-scaling axis of the perf baseline. The estimate is
/// bit-identical for any pool width; only the rate moves.
pub fn simulate_timed_on(
    pool: &waltz_sim::TrajectoryPool,
    compiled: &CompiledCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> (FidelityEstimate, f64) {
    let t0 = std::time::Instant::now();
    let est = compiled
        .estimator(noise)
        .on(pool)
        .estimate(trajectories, seed);
    let secs = t0.elapsed().as_secs_f64();
    let rate = if secs > 0.0 {
        trajectories as f64 / secs
    } else {
        f64::INFINITY
    };
    (est, rate)
}

/// EPS-only evaluation (no simulation) — used where the paper itself falls
/// back to the analytic model (Fig. 8, large mixed-radix sizes).
///
/// # Errors
///
/// Propagates compiler errors.
pub fn evaluate_eps_only(
    circuit: &Circuit,
    strategy: &Strategy,
    lib: &GateLibrary,
    model: &CoherenceModel,
) -> Result<(f64, f64, f64), CompileError> {
    let compiled = compiler_for(strategy, lib).compile(circuit)?;
    let eps = compiled.compiled().eps(model);
    Ok((eps.gate, eps.coherence, eps.total()))
}

/// Default state-vector byte budget of the harness (256 MiB ≈ a
/// 24-qubit register at 16 bytes per amplitude) — the starting value of
/// the supervisor's per-job budget in [`try_evaluate`]
/// ([`SupervisorPolicy::with_state_budget_bytes`]); callers building
/// their own [`Supervisor`] can pick any ceiling, or shrink it live
/// mid-batch.
pub const MAX_STATE_BYTES: usize = 1 << 28;

/// Whether a compiled register's state vector fits the byte budget.
pub fn register_simulable(register: &Register) -> bool {
    register.state_bytes() <= MAX_STATE_BYTES
}

/// Whether a compiled artifact's simulation fits the byte budget, as
/// compiled — no degradation attempted. With windowed registers the
/// budget gates on the **max over segments** of the segmented schedule
/// ([`CompiledCircuit::sim_state_bytes_peak`]), not the whole-program
/// register: a program whose lifetime-maximum register would bust the
/// budget still simulates when every individual window fits. The sweep
/// entry point ([`try_evaluate`]) goes further: an artifact failing this
/// check is recompiled down the supervisor's degradation ladder before
/// the point is skipped.
pub fn artifact_simulable(compiled: &CompiledCircuit) -> bool {
    compiled.sim_state_bytes_peak() <= MAX_STATE_BYTES
}

/// Optimistic pre-filter on the byte budget, before compiling: whether
/// the strategy's *best-case* register for `n_qubits` fits.
///
/// The paper hit a hard 12-qubit mixed-radix wall because it modeled
/// every device with four levels (§6.4/§7); the compiler's occupancy
/// pass now demotes devices that never leave the qubit subspace, so the
/// best-case mixed-radix register is one ENC host/partner pair at four
/// levels and qubits everywhere else. A `true` here still requires the
/// per-circuit [`register_simulable`] check after compiling (see
/// [`try_evaluate`]) — a routing-heavy circuit may promote more pairs.
pub fn simulable(strategy: &Strategy, n_qubits: usize) -> bool {
    let bits = match strategy {
        Strategy::QubitOnly { .. } => n_qubits,
        Strategy::MixedRadix { .. } => n_qubits + 2,
        Strategy::FullQuquart { .. } => 2 * n_qubits.div_ceil(2),
    };
    // 16-byte amplitudes: state bytes = 2^(bits + 4).
    bits + 4 <= MAX_STATE_BYTES.trailing_zeros() as usize
}

/// Prints an aligned table row.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:<w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;
    use waltz_circuits::generalized_toffoli;

    #[test]
    fn headline_ordering_on_small_cnu() {
        // The paper's core claim (Fig. 7): mixed-radix and full-ququart
        // beat qubit-only on Toffoli-heavy circuits.
        let circuit = generalized_toffoli(3); // 6 qubits
        let lib = GateLibrary::paper();
        let noise = NoiseModel::paper();
        let qo = evaluate(&circuit, &Strategy::qubit_only(), &lib, &noise, 60, 1).unwrap();
        let mr = evaluate(&circuit, &Strategy::mixed_radix_ccz(), &lib, &noise, 60, 1).unwrap();
        let fq = evaluate(&circuit, &Strategy::full_ququart(), &lib, &noise, 60, 1).unwrap();
        assert!(
            mr.fidelity.mean > qo.fidelity.mean,
            "mixed-radix {} should beat qubit-only {}",
            mr.fidelity.mean,
            qo.fidelity.mean
        );
        assert!(
            fq.fidelity.mean > qo.fidelity.mean,
            "full-ququart {} should beat qubit-only {}",
            fq.fidelity.mean,
            qo.fidelity.mean
        );
        // EPS agrees with the ordering.
        assert!(fq.eps_gate * fq.eps_coherence > qo.eps_gate * qo.eps_coherence);
    }

    #[test]
    fn simulable_is_a_byte_budget_not_a_qubit_wall() {
        // The paper's hard 12-qubit mixed-radix wall is gone: with
        // occupancy-demoted registers, 13 (and beyond) fits the budget
        // whenever the heterogeneous register does.
        assert!(simulable(&Strategy::mixed_radix_ccz(), 12));
        assert!(simulable(&Strategy::mixed_radix_ccz(), 13));
        assert!(simulable(&Strategy::mixed_radix_ccz(), 22));
        assert!(!simulable(&Strategy::mixed_radix_ccz(), 23));
        assert!(simulable(&Strategy::full_ququart(), 21));
        assert!(simulable(&Strategy::qubit_only(), 24));
        assert!(!simulable(&Strategy::qubit_only(), 25));
    }

    #[test]
    fn register_budget_checks_actual_bytes() {
        // 24 qubits: exactly 2^24 * 16 = 2^28 bytes — at the budget.
        assert!(register_simulable(&Register::qubits(24)));
        assert!(!register_simulable(&Register::qubits(25)));
        // A 13-qubit mixed-radix register with two promoted devices fits
        // comfortably where the all-4 padded register (4^13) would not.
        let mut dims = vec![2u8; 13];
        dims[0] = 4;
        dims[1] = 4;
        assert!(register_simulable(&Register::new(dims)));
        assert!(!register_simulable(&Register::ququarts(13)));
    }
}
