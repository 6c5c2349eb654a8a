//! Scale a QRAM fetch past the dense-state wall with the sparse
//! amplitude-map representation.
//!
//! A QRAM circuit is pure routing: every logical gate (X, CX, CSWAP)
//! permutes the computational basis, so a classical basis input keeps a
//! tiny support — the Hadamard sandwiches inside the compiled CSWAP
//! decompositions open a few amplitudes and immediately close them
//! again. The dense engine still pays 16 bytes for every one of the
//! 2^n amplitudes per sweep; the sparse amplitude map pays 24 bytes per
//! *nonzero*. This example races the two engines at 12 qubits, runs the
//! noisy adaptive estimator at 21 qubits (where a dense trajectory
//! takes ~a minute), and then traces a 38-qubit fetch whose dense state
//! would need 4 TiB.
//!
//! Run: `cargo run --release --example qram_scale`

use quantum_waltz::prelude::*;
use rand::rngs::StdRng;
use waltz_circuits::qram;
use waltz_sim::trajectory::FidelityEstimate;
use waltz_sim::{Register, Session, SparsePolicy, SparseState};

/// Noiseless adaptive run from |0...0>: (peak nnz, peak sparse bytes,
/// final nnz, wall time).
fn trace_support(compiled: &CompiledCircuit) -> (usize, usize, usize, std::time::Duration) {
    let schedule = compiled.sim_schedule();
    let t0 = std::time::Instant::now();
    let mut session = Session::adaptive(schedule, &SparsePolicy::default());
    let initial = SparseState::basis(schedule.first_register(), 0);
    let out = session.run_ideal(schedule, &initial);
    (
        out.peak_nnz(),
        out.peak_state_bytes(),
        out.nnz(),
        t0.elapsed(),
    )
}

/// Noisy adaptive trajectory sweep from |0...0>: (estimate, traj/sec).
fn adaptive_sweep(
    compiled: &CompiledCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> (FidelityEstimate, f64) {
    let policy = SparsePolicy::default();
    let basis = |_reg: &Register, _rng: &mut StdRng, out: &mut SparseState| {
        out.fill_basis(0);
    };
    let t0 = std::time::Instant::now();
    let est = Estimator::adaptive(compiled.sim_schedule(), noise, &policy, basis)
        .estimate(trajectories, seed);
    (
        est,
        trajectories as f64 / t0.elapsed().as_secs_f64().max(1e-9),
    )
}

fn main() {
    if !waltz_sim::sparse_enabled() {
        println!("WALTZ_SPARSE=0: the sparse representation is disabled; this");
        println!("example exists to show it off. Unset WALTZ_SPARSE and rerun.");
        return;
    }
    let noise = NoiseModel::paper();
    let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));

    // --- 12 qubits: both engines are fast — race them head to head. ---
    let circuit = qram(3);
    let compiled = compiler.compile(&circuit).expect("compiles");
    println!(
        "qram(3): {} qubits, dense peak {} KiB",
        circuit.n_qubits(),
        compiled.sim_state_bytes_peak() >> 10,
    );
    let trajectories = 60;
    let basis_dense = |_reg: &Register, _rng: &mut StdRng, out: &mut waltz_sim::State| {
        out.fill_product_with(|_, lvl| {
            if lvl == 0 {
                waltz_math::C64::ONE
            } else {
                waltz_math::C64::ZERO
            }
        });
    };
    let t0 = std::time::Instant::now();
    let dense_est = Estimator::new(compiled.sim_schedule(), &noise)
        .with_input(basis_dense)
        .estimate(trajectories, 7);
    let dense_rate = trajectories as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let (adaptive_est, adaptive_rate) = adaptive_sweep(&compiled, &noise, trajectories, 7);
    println!(
        "  dense:    {dense_rate:>8.0} traj/s  fidelity {:.3} ± {:.3}",
        dense_est.mean, dense_est.std_error
    );
    println!(
        "  adaptive: {adaptive_rate:>8.0} traj/s  fidelity {:.3} ± {:.3}  ({:.1}x)",
        adaptive_est.mean,
        adaptive_est.std_error,
        adaptive_rate / dense_rate
    );

    // --- 21 qubits: a dense trajectory takes ~a minute; adaptive ~1 s. -
    let circuit = qram(4);
    let compiled = compiler.compile(&circuit).expect("compiles");
    let dense_amps = compiled.sim_state_bytes_peak() / 16;
    println!(
        "\nqram(4): {} qubits, dense peak {} MiB",
        circuit.n_qubits(),
        compiled.sim_state_bytes_peak() >> 20,
    );
    let (nnz_peak, sparse_bytes, nnz_final, dt) = trace_support(&compiled);
    println!(
        "  noiseless fetch: peak nnz {nnz_peak} of {dense_amps} amplitudes \
         ({sparse_bytes} B sparse), back to {nnz_final} basis state(s) in {dt:.2?}"
    );
    let (est, rate) = adaptive_sweep(&compiled, &noise, 12, 7);
    println!(
        "  noisy adaptive:  {rate:>8.1} traj/s  fidelity {:.3} ± {:.3}",
        est.mean, est.std_error
    );

    // --- 38 qubits: dense is out of the question — 4 TiB of state. ----
    let circuit = qram(5);
    let compiled = compiler.compile(&circuit).expect("compiles");
    let reg_amps = compiled.sim_schedule().first_register().total_dim() as u128;
    println!(
        "\nqram(5): {} qubits, {reg_amps} dense amplitudes \
         ({:.1} TiB — not allocatable here)",
        circuit.n_qubits(),
        reg_amps as f64 * 16.0 / (1u64 << 40) as f64,
    );
    println!(
        "  analyze predicts: sparse {} B vs dense {} B (plan stays honest:\n\
         \x20   the bound can't see Hadamard sandwiches collapse)",
        compiled.sparse_state_bytes_pred().unwrap_or(0),
        compiled.sim_state_bytes_peak(),
    );
    let (nnz_peak, sparse_bytes, nnz_final, dt) = trace_support(&compiled);
    println!(
        "  measured fetch:   peak nnz {nnz_peak} ({sparse_bytes} B sparse), \
         back to {nnz_final} basis state(s) in {dt:.2?}"
    );
    println!("\nSame compiled schedule, same apply_op interface — the amplitude map");
    println!("walks a 2^38-dimensional space touching a handful of entries.");
}
