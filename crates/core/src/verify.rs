//! End-to-end correctness checking: a compiled circuit must implement the
//! same operator as its logical source.
//!
//! The check embeds a random logical state through the compiler's initial
//! placement, ideal-simulates the scheduled hardware circuit, and compares
//! against the logical reference state embedded through the *final*
//! placement (routing permutes qubits). Exponential in qubit count — used
//! by tests on circuits of up to ~12 qubits — and it checks the hardware
//! schedule ([`CompiledCircuit::timed`]).
//!
//! Every compiled estimate is an end-to-end check too:
//! [`CompiledCircuit::estimator`] scores each trajectory against the
//! source circuit run on the trajectory's own logical input, so a noise-off
//! estimate is 1 only if the *simulation* schedule
//! ([`CompiledCircuit::sim`]: fused, and windowed when the analysis split
//! the program) implements the circuit, at every size the simulator can
//! run. Between them the two checks cover both programs an artifact
//! carries.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use waltz_circuit::{unitary, Circuit};
use waltz_math::C64;
use waltz_sim::ideal;

use crate::CompiledCircuit;

/// Result of a randomized equivalence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyReport {
    /// Minimum state fidelity observed across trials.
    pub min_fidelity: f64,
    /// Number of random-state trials.
    pub trials: usize,
}

impl VerifyReport {
    /// Whether every trial reached fidelity `1 - tol`.
    pub fn passed(&self, tol: f64) -> bool {
        self.min_fidelity >= 1.0 - tol
    }
}

/// Checks `compiled` against `logical` on `trials` random product states
/// plus one fully random (entangled) state.
///
/// # Panics
///
/// Panics if the circuit widths disagree.
pub fn check(
    logical: &Circuit,
    compiled: &CompiledCircuit,
    trials: usize,
    seed: u64,
) -> VerifyReport {
    let n = logical.n_qubits();
    assert_eq!(compiled.initial_sites.len(), n, "width mismatch");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut min_fidelity = f64::INFINITY;
    for trial in 0..trials.max(1) {
        let logical_in = if trial == 0 {
            waltz_math::linalg::haar_state(1 << n, &mut rng)
        } else {
            random_product_state(n, &mut rng)
        };
        let mut logical_out = logical_in.clone();
        unitary::apply_circuit(&mut logical_out, logical);

        let physical_in = compiled.embed_logical_state(&logical_in, &compiled.initial_sites);
        let physical_out = ideal::run(&compiled.timed, &physical_in);
        let expected = compiled.embed_logical_state(&logical_out, &compiled.final_sites);
        let f = physical_out.fidelity(&expected);
        min_fidelity = min_fidelity.min(f);
    }
    VerifyReport {
        min_fidelity,
        trials: trials.max(1),
    }
}

/// A random product state over `n` qubits.
fn random_product_state<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<C64> {
    let mut amps = vec![C64::ONE];
    for _ in 0..n {
        let q = waltz_math::linalg::haar_state(2, rng);
        let mut next = Vec::with_capacity(amps.len() * 2);
        for a in &amps {
            next.push(*a * q[0]);
            next.push(*a * q[1]);
        }
        amps = next;
    }
    amps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, Strategy, Target};

    fn verify_strategy(circuit: &Circuit, strategy: Strategy) {
        let compiled = Compiler::new(Target::paper(strategy))
            .compile(circuit)
            .expect("compiles");
        assert!(compiled.timed.validate().is_ok(), "{}", strategy.name());
        let report = check(circuit, &compiled, 3, 1234);
        assert!(
            report.passed(1e-9),
            "{} min fidelity {}",
            strategy.name(),
            report.min_fidelity
        );
    }

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::qubit_only(),
            Strategy::qubit_only_itoffoli(),
            Strategy::mixed_radix_raw(),
            Strategy::mixed_radix_retarget(),
            Strategy::mixed_radix_ccz(),
            Strategy::MixedRadix {
                ccx: crate::MrCcxMode::CczTransform,
                native_cswap: true,
            },
            Strategy::full_ququart(),
            Strategy::FullQuquart {
                use_ccz: false,
                cswap: crate::FqCswapMode::Native,
            },
            Strategy::FullQuquart {
                use_ccz: true,
                cswap: crate::FqCswapMode::NativeOriented,
            },
        ]
    }

    #[test]
    fn single_toffoli_compiles_correctly_under_all_strategies() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        for s in all_strategies() {
            verify_strategy(&c, s);
        }
    }

    #[test]
    fn toffoli_with_scrambled_operands() {
        let mut c = Circuit::new(4);
        c.ccx(3, 1, 0).ccx(0, 2, 3);
        for s in all_strategies() {
            verify_strategy(&c, s);
        }
    }

    #[test]
    fn ccz_and_cswap_compile_correctly() {
        let mut c = Circuit::new(4);
        c.ccz(0, 1, 2).cswap(3, 0, 2);
        for s in all_strategies() {
            verify_strategy(&c, s);
        }
    }

    #[test]
    fn mixed_gate_soup_compiles_correctly() {
        let mut c = Circuit::new(5);
        c.h(0)
            .cx(0, 4)
            .ccx(0, 1, 2)
            .t(3)
            .cz(2, 3)
            .cswap(4, 1, 3)
            .ccz(2, 3, 4)
            .swap(0, 3)
            .cx(3, 1);
        for s in all_strategies() {
            verify_strategy(&c, s);
        }
    }

    #[test]
    fn two_qubit_only_circuit_compiles_everywhere() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1).cx(1, 0);
        for s in all_strategies() {
            verify_strategy(&c, s);
        }
    }
}
