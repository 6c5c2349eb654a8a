//! End-to-end integration tests: every benchmark family × every strategy
//! compiles to a valid schedule that implements the logical circuit.

use quantum_waltz::prelude::*;
use waltz_circuits::{cuccaro_adder, generalized_toffoli, qram, select, synthetic};
use waltz_core::verify;

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::qubit_only(),
        Strategy::qubit_only_itoffoli(),
        Strategy::mixed_radix_raw(),
        Strategy::mixed_radix_retarget(),
        Strategy::mixed_radix_ccz(),
        Strategy::MixedRadix {
            ccx: MrCcxMode::CczTransform,
            native_cswap: true,
        },
        Strategy::full_ququart(),
        Strategy::FullQuquart {
            use_ccz: false,
            cswap: FqCswapMode::Native,
        },
        Strategy::FullQuquart {
            use_ccz: true,
            cswap: FqCswapMode::NativeOriented,
        },
    ]
}

fn check_all(circuit: &Circuit, label: &str) {
    for strategy in all_strategies() {
        let compiled = Compiler::new(Target::paper(strategy))
            .compile(circuit)
            .unwrap_or_else(|e| panic!("{label} / {}: {e}", strategy.name()));
        compiled
            .timed
            .validate()
            .unwrap_or_else(|e| panic!("{label} / {}: invalid schedule: {e}", strategy.name()));
        let eps = compiled.eps();
        assert!(
            eps.gate > 0.0 && eps.gate <= 1.0 && eps.coherence > 0.0 && eps.coherence <= 1.0,
            "{label} / {}: EPS out of range",
            strategy.name()
        );
        let report = verify::check(circuit, &compiled, 2, 0xFEED);
        assert!(
            report.passed(1e-9),
            "{label} / {}: compiled circuit diverges (min fidelity {})",
            strategy.name(),
            report.min_fidelity
        );
    }
}

#[test]
fn generalized_toffoli_compiles_everywhere() {
    check_all(&generalized_toffoli(2), "CNU-2");
    check_all(&generalized_toffoli(3), "CNU-3");
}

#[test]
fn cuccaro_adder_compiles_everywhere() {
    check_all(&cuccaro_adder(1), "adder-1");
    check_all(&cuccaro_adder(2), "adder-2");
}

#[test]
fn qram_compiles_everywhere() {
    check_all(&qram(1), "qram-1");
    check_all(&qram(2), "qram-2");
}

#[test]
fn select_compiles_everywhere() {
    check_all(&select(2, 2, 2, 42), "select-2x2");
}

#[test]
fn synthetic_circuits_compile_everywhere() {
    check_all(&synthetic(5, 12, 0.5, 9), "synthetic-5");
    check_all(&synthetic(4, 10, 0.0, 3), "synthetic-ccx-only");
    check_all(&synthetic(4, 10, 1.0, 4), "synthetic-cx-only");
}

#[test]
fn noiseless_trajectory_matches_ideal_for_compiled_circuit() {
    let circuit = generalized_toffoli(2);
    let compiled = Compiler::new(Target::paper(Strategy::full_ququart()))
        .compile(&circuit)
        .unwrap();
    let est = compiled
        .simulate()
        .with_noise(NoiseModel::noiseless())
        .with_seed(1)
        .average_fidelity(10);
    assert!((est.mean - 1.0).abs() < 1e-9);
}

#[test]
fn compile_stats_are_consistent() {
    let circuit = cuccaro_adder(2);
    for strategy in all_strategies() {
        let compiled = Compiler::new(Target::paper(strategy))
            .compile(&circuit)
            .unwrap();
        assert_eq!(compiled.stats.hw_ops, compiled.timed.len());
        assert!(compiled.stats.total_duration_ns > 0.0);
        if matches!(strategy, Strategy::MixedRadix { .. }) {
            assert!(compiled.stats.enc_windows > 0, "{}", strategy.name());
        } else {
            assert_eq!(compiled.stats.enc_windows, 0, "{}", strategy.name());
        }
        // Every pipeline run records every pass in order.
        let passes: Vec<Pass> = compiled.reports().iter().map(|r| r.pass).collect();
        assert_eq!(passes, Pass::ALL.to_vec(), "{}", strategy.name());
    }
}

#[test]
fn pass_reports_describe_the_schedule_that_runs() {
    let mut cases = Vec::new();
    for (name, circuit) in [
        ("cnu-6q", generalized_toffoli(3)),
        ("cnu-10q", generalized_toffoli(5)),
    ] {
        for strategy in [
            Strategy::qubit_only(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
        ] {
            cases.push((name, circuit.clone(), strategy));
        }
    }
    cases.push(("qram(3)", qram(3), Strategy::mixed_radix_ccz()));
    for (name, circuit, strategy) in cases {
        let what = format!("{name} {}", strategy.name());
        let compiled = Compiler::new(Target::paper(strategy))
            .compile(&circuit)
            .unwrap();
        let segments = compiled.sim_schedule().segments();
        let ops: usize = segments.iter().map(|s| s.len()).sum();
        let mut starts: Vec<u64> = segments
            .iter()
            .flat_map(|s| s.ops.iter().map(|op| op.start_ns.to_bits()))
            .collect();
        starts.sort_unstable();
        starts.dedup();
        let fuse = compiled.report(Pass::Fuse);
        assert_eq!(fuse.ops_in, compiled.timed.len(), "{what}: fuse ops_in");
        assert_eq!(fuse.ops_out, ops, "{what}: fuse ops_out");
        assert_eq!(fuse.depth_out, starts.len(), "{what}: fuse depth_out");
        let lower = compiled.report(Pass::Lower);
        assert_eq!(lower.ops_in, ops, "{what}: lower ops_in");
        assert_eq!(lower.ops_out, ops, "{what}: lower ops_out");
    }
}

#[test]
fn empty_circuit_is_rejected() {
    let c = Circuit::new(0);
    assert!(Compiler::new(Target::paper(Strategy::qubit_only()))
        .compile(&c)
        .is_err());
}
