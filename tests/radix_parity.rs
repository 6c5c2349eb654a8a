//! Heterogeneous-radix parity: the occupancy-demoted mixed-radix
//! register (`dim 2` for devices that never leave the qubit subspace,
//! `dim 4` only where ENC windows occur) must simulate identically to the
//! all-4-padded register — bit-identical noiselessly, statistically
//! equivalent under the trajectory noise model — and the demotion step
//! must never damage unitarity. Run as its own CI step in release; the
//! 4000-trajectory statistical test is ignored in debug builds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use waltz_bench::runner;
use waltz_circuit::Circuit;
use waltz_circuits::generalized_toffoli;
use waltz_core::{CompileArtifact, CompileOptions, Compiler, Strategy, Target};
use waltz_math::C64;
use waltz_sim::trajectory::Estimator;
use waltz_sim::{ideal, Register, State};

const TOL: f64 = 1e-12;

/// Compiles with the occupancy-demoted and padded registers, both on one
/// whole-program register (windowing off), so each simulation schedule
/// is one fused segment on `timed`'s register.
fn compile_both(circuit: &Circuit, strategy: Strategy) -> (CompileArtifact, CompileArtifact) {
    let demoted = Compiler::with_options(
        Target::paper(strategy),
        CompileOptions::default().with_windowed_registers(false),
    )
    .compile(circuit)
    .expect("demoted compile");
    let padded = Compiler::with_options(
        Target::paper(strategy),
        CompileOptions::default().with_padded_registers(),
    )
    .compile(circuit)
    .expect("padded compile");
    (demoted, padded)
}

/// Asserts that the padded final state equals the demoted one on the
/// occupied subspace (index-mapped, amplitude by amplitude) and carries
/// no amplitude outside it.
fn assert_states_match(padded_reg: &Register, demoted_reg: &Register, pad: &State, dem: &State) {
    let n = padded_reg.n_qudits();
    assert_eq!(n, demoted_reg.n_qudits());
    let mut digits = vec![0usize; n];
    for idx in 0..padded_reg.total_dim() {
        padded_reg.digits_into(idx, &mut digits);
        let inside = digits
            .iter()
            .enumerate()
            .all(|(q, &dig)| dig < demoted_reg.dim(q));
        let got = pad.amplitudes()[idx];
        if inside {
            let want = dem.amplitudes()[demoted_reg.index_of(&digits)];
            assert!(
                got.approx_eq(want, TOL),
                "amplitude mismatch at padded index {idx}: {got:?} vs {want:?}"
            );
        } else {
            assert!(
                got.approx_eq(C64::ZERO, TOL),
                "padded state leaked outside the occupied subspace at {idx}"
            );
        }
    }
}

/// Noiseless demoted-vs-padded parity on one circuit/strategy pair, from
/// several random logical product inputs.
fn check_noiseless_parity(circuit: &Circuit, strategy: Strategy, seed: u64) {
    let (demoted, padded) = compile_both(circuit, strategy);
    assert_eq!(
        demoted.initial_sites, padded.initial_sites,
        "placement must not depend on register dimensions"
    );
    for trial in 0..3u64 {
        // Same seed → same logical Haar factors at the same sites.
        let mut rng_d = StdRng::seed_from_u64(seed ^ trial);
        let mut rng_p = StdRng::seed_from_u64(seed ^ trial);
        let init_d = demoted.random_product_initial_state(&mut rng_d);
        let init_p = padded.random_product_initial_state(&mut rng_p);
        let out_d = ideal::run(demoted.sim_schedule(), &init_d);
        let out_p = ideal::run(padded.sim_schedule(), &init_p);
        assert_states_match(
            &padded.timed.register,
            &demoted.timed.register,
            &out_p,
            &out_d,
        );
    }
}

#[test]
fn cnu6q_demotes_to_a_heterogeneous_register() {
    let circuit = generalized_toffoli(3); // 6 logical qubits
    let (demoted, padded) = compile_both(&circuit, Strategy::mixed_radix_ccz());
    let dims = demoted.timed.register.dims();
    assert!(
        dims.contains(&2),
        "at least one device must demote to a qubit, got {dims:?}"
    );
    assert!(dims.contains(&4), "ENC hosts stay ququarts, got {dims:?}");
    assert!(padded.timed.register.dims().iter().all(|&d| d == 4));
    let demoted_bytes = demoted.timed.register.state_bytes();
    let padded_bytes = padded.timed.register.state_bytes();
    assert!(
        demoted_bytes * 4 <= padded_bytes,
        "expected at least 4x state shrink, got {demoted_bytes} vs {padded_bytes}"
    );
    // Hardware-side artifacts are identical: same pulses, same EPS.
    assert_eq!(demoted.stats.hw_ops, padded.stats.hw_ops);
    assert!((demoted.timed.gate_eps() - padded.timed.gate_eps()).abs() < TOL);
}

#[test]
fn cnu6q_noiseless_parity_at_1e12() {
    let circuit = generalized_toffoli(3);
    for strategy in [
        Strategy::mixed_radix_ccz(),
        Strategy::mixed_radix_raw(),
        Strategy::mixed_radix_retarget(),
    ] {
        check_noiseless_parity(&circuit, strategy, 0xD1CE);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "4000-trajectory statistical pin; run in release (CI radix_parity step)"
)]
fn cnu6q_noisy_parity_within_one_standard_error() {
    let circuit = generalized_toffoli(3);
    let noise = waltz_noise::NoiseModel::paper();
    let (demoted, padded) = compile_both(&circuit, Strategy::mixed_radix_ccz());
    let trajectories = 4000;
    let est_d = Estimator::new(demoted.sim_schedule(), &noise)
        .with_input(|_, rng, out| demoted.write_random_product_initial_state(rng, out))
        .estimate(trajectories, 11);
    let est_p = Estimator::new(padded.sim_schedule(), &noise)
        .with_input(|_, rng, out| padded.write_random_product_initial_state(rng, out))
        .estimate(trajectories, 12);
    let spread = est_d.std_error + est_p.std_error;
    assert!(
        (est_d.mean - est_p.mean).abs() <= spread,
        "demoted {} ± {} vs padded {} ± {} exceeds one combined standard error",
        est_d.mean,
        est_d.std_error,
        est_p.mean,
        est_p.std_error
    );
}

#[test]
fn thirteen_qubit_mixed_radix_fits_the_byte_budget() {
    // The exact ceiling ROADMAP named: the paper's hard 12-qubit
    // mixed-radix wall. The optimistic pre-filter opens 13 qubits...
    assert!(runner::simulable(&Strategy::mixed_radix_ccz(), 13));
    // ...and an actual 13-qubit Toffoli ladder compiles to a
    // heterogeneous register that fits the budget where the padded 4^13
    // register would not.
    let mut circuit = Circuit::new(13);
    for q in 2..13 {
        circuit.ccx(q - 2, q - 1, q);
    }
    let demoted = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
        .compile(&circuit)
        .expect("13-qubit mixed-radix compile");
    let register = &demoted.timed.register;
    assert!(
        runner::register_simulable(register),
        "heterogeneous register ({} bytes) must fit the budget",
        register.state_bytes()
    );
    assert!(!runner::register_simulable(&Register::ququarts(13)));
    assert!(demoted.timed.validate().is_ok());
}

/// A random logical circuit over `n` qubits mixing 1-, 2- and 3-qubit
/// gates, driven by a proptest-provided seed.
fn random_logical_circuit(n: usize, ops: usize, seed: u64) -> Circuit {
    fn pick(rng: &mut StdRng, n: usize, exclude: &[usize]) -> usize {
        loop {
            let q = rng.gen_range(0..n);
            if !exclude.contains(&q) {
                return q;
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..ops {
        let kind = rng.gen_range(0..6);
        let a = pick(&mut rng, n, &[]);
        match kind {
            0 => {
                c.h(a);
            }
            1 => {
                c.one(waltz_gates::Q1Gate::T, a);
            }
            2 => {
                let b = pick(&mut rng, n, &[a]);
                c.cx(a, b);
            }
            3 => {
                let b = pick(&mut rng, n, &[a]);
                c.cz(a, b);
            }
            4 => {
                let b = pick(&mut rng, n, &[a]);
                let t = pick(&mut rng, n, &[a, b]);
                c.ccx(a, b, t);
            }
            _ => {
                let b = pick(&mut rng, n, &[a]);
                let t = pick(&mut rng, n, &[a, b]);
                c.ccz(a, b, t);
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Occupancy-demoted schedules keep every embedded (and possibly
    // subspace-restricted) unitary exactly unitary, and the demoted
    // register never exceeds the padded one.
    #[test]
    fn occupancy_demoted_unitaries_stay_unitary(
        seed in 0u64..10_000,
        n in 4usize..=7,
        ops in 3usize..=10,
    ) {
        let circuit = random_logical_circuit(n, ops, seed);
        for strategy in [Strategy::mixed_radix_ccz(), Strategy::mixed_radix_raw()] {
            let (demoted, padded) = compile_both(&circuit, strategy);
            prop_assert!(demoted.timed.validate().is_ok());
            prop_assert!(
                demoted.timed.register.total_dim() <= padded.timed.register.total_dim()
            );
            for &d in demoted.timed.register.dims() {
                prop_assert!(d == 2 || d == 4, "unexpected device dimension {d}");
            }
            for op in &demoted.timed.ops {
                prop_assert!(op.unitary.is_unitary(1e-9), "non-unitary {}", op.label);
                for (&e, &q) in op.error_dims.iter().zip(&op.operands) {
                    prop_assert!(e as usize <= demoted.timed.register.dim(q));
                }
            }
        }
    }

    // Noiseless demoted-vs-padded parity on random circuits.
    #[test]
    fn random_circuits_demote_with_noiseless_parity(
        seed in 0u64..10_000,
        n in 4usize..=6,
        ops in 3usize..=8,
    ) {
        let circuit = random_logical_circuit(n, ops, seed);
        check_noiseless_parity(&circuit, Strategy::mixed_radix_ccz(), seed);
    }
}
