//! Integration coverage of the builder API: batch compilation parity,
//! error isolation inside a batch, the one-chain quickstart, and the
//! fused-span cap end to end.

use quantum_waltz::prelude::*;
use waltz_circuits::{cuccaro_adder, generalized_toffoli, qram};
use waltz_sim::TimedCircuit;

fn workload() -> Vec<Circuit> {
    vec![
        generalized_toffoli(2),
        generalized_toffoli(3),
        cuccaro_adder(1),
        cuccaro_adder(2),
        qram(1),
        qram(2),
        {
            let mut c = Circuit::new(2);
            c.h(0).cx(0, 1);
            c
        },
    ]
}

fn assert_timed_eq(a: &TimedCircuit, b: &TimedCircuit, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: op count");
    assert_eq!(a.total_duration_ns, b.total_duration_ns, "{what}: duration");
    for (i, (x, y)) in a.ops.iter().zip(&b.ops).enumerate() {
        assert_eq!(x.label, y.label, "{what}: op {i} label");
        assert_eq!(x.unitary, y.unitary, "{what}: op {i} unitary");
        assert_eq!(x.operands, y.operands, "{what}: op {i} operands");
        assert_eq!(x.start_ns, y.start_ns, "{what}: op {i} start");
        assert_eq!(x.fidelity, y.fidelity, "{what}: op {i} fidelity");
    }
}

#[test]
fn batch_equals_sequential_for_every_regime() {
    let circuits = workload();
    for strategy in [
        Strategy::qubit_only(),
        Strategy::mixed_radix_ccz(),
        Strategy::full_ququart(),
    ] {
        let compiler = Compiler::new(Target::paper(strategy));
        let sequential: Vec<CompileArtifact> = circuits
            .iter()
            .map(|c| compiler.compile(c).unwrap())
            .collect();
        let batch = compiler.compile_batch(&circuits);
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            let b = b
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: batch circuit {i} failed: {e}", strategy.name()));
            let what = format!("{} circuit {i}", strategy.name());
            assert_timed_eq(&b.timed, &s.timed, &what);
            assert_eq!(b.sim.n_segments(), s.sim.n_segments(), "{what}: segments");
            for (k, (x, y)) in b.sim.segments.iter().zip(&s.sim.segments).enumerate() {
                assert_timed_eq(x, y, &format!("{what} (sim segment {k})"));
            }
            assert_eq!(b.stats, s.stats, "{what}: stats");
            assert_eq!(b.initial_sites, s.initial_sites, "{what}: initial sites");
            assert_eq!(b.final_sites, s.final_sites, "{what}: final sites");
            assert_eq!(b.eps().total(), s.eps().total(), "{what}: EPS");
        }
    }
}

#[test]
fn one_bad_circuit_does_not_poison_the_batch() {
    let mut circuits = workload();
    // Slot 2 becomes an empty circuit: its compile must fail while every
    // other element still compiles exactly as before.
    circuits[2] = Circuit::new(0);
    let compiler = Compiler::new(Target::paper(Strategy::full_ququart()));
    let batch = compiler.compile_batch(&circuits);
    assert_eq!(batch.len(), circuits.len());
    for (i, result) in batch.iter().enumerate() {
        if i == 2 {
            assert_eq!(
                result.as_ref().unwrap_err(),
                &waltz_core::CompileError::EmptyCircuit
            );
        } else {
            let artifact = result.as_ref().unwrap_or_else(|e| {
                panic!("circuit {i} should compile despite the bad neighbour: {e}")
            });
            let reference = compiler.compile(&circuits[i]).unwrap();
            assert_timed_eq(&artifact.timed, &reference.timed, &format!("circuit {i}"));
        }
    }
}

#[test]
fn quickstart_chain_compiles_and_simulates() {
    // The ~8 lines of plumbing the old API needed, in one chain.
    let c = generalized_toffoli(2);
    let estimate = Compiler::new(Target::paper(Strategy::full_ququart()))
        .compile(&c)
        .unwrap()
        .simulate()
        .average_fidelity(40);
    assert!(estimate.mean > 0.5 && estimate.mean <= 1.0 + 1e-12);
    assert_eq!(estimate.trajectories, 40);
}

#[test]
fn span_cap_bounds_blocks_through_the_whole_pipeline() {
    let circuit = cuccaro_adder(2);
    for cap in [1usize, 2, 4] {
        let compiler = Compiler::with_options(
            Target::paper(Strategy::full_ququart()),
            CompileOptions::default().with_max_fused_span(cap),
        );
        let artifact = compiler.compile(&circuit).unwrap();
        for op in artifact.sim.segments.iter().flat_map(|s| &s.ops) {
            let span = op.noise_events.as_ref().map_or(1, Vec::len);
            assert!(span <= cap, "cap {cap}: block spans {span} pulses");
        }
        // Capped fusion still simulates identically (noiseless).
        let est = artifact
            .simulate()
            .with_noise(NoiseModel::noiseless())
            .average_fidelity(5);
        assert!((est.mean - 1.0).abs() < 1e-9, "cap {cap}");
    }
}

#[test]
fn reports_expose_pass_structure_and_batch_keeps_them() {
    let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
    let circuits = vec![generalized_toffoli(2), cuccaro_adder(1)];
    for artifact in compiler.compile_batch(&circuits) {
        let artifact = artifact.unwrap();
        assert_eq!(artifact.reports().len(), Pass::ALL.len());
        let schedule = artifact.report(Pass::Schedule);
        assert_eq!(schedule.ops_out, artifact.stats.hw_ops);
        assert!(artifact.total_wall_ms() > 0.0);
    }
}

#[test]
fn supervised_batch_matches_plain_batch_on_healthy_work() {
    let circuits = workload();
    let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
    let supervisor = waltz_core::Supervisor::new(compiler.clone());
    let reports = supervisor.compile_batch(&circuits);
    let plain = compiler.compile_batch(&circuits);
    assert_eq!(reports.len(), plain.len());
    for ((i, report), result) in reports.iter().enumerate().zip(&plain) {
        assert_eq!(report.index, i);
        assert_eq!(report.status, waltz_core::JobStatus::Ok);
        assert_eq!(report.degradation, waltz_core::Degradation::None);
        assert!(!report.retried);
        assert_timed_eq(
            &report.result.as_ref().unwrap().timed,
            &result.as_ref().unwrap().timed,
            &format!("supervised circuit {i}"),
        );
    }
}

#[test]
fn generous_deadline_compiles_identically() {
    let c = generalized_toffoli(3);
    let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
    let with_deadline = compiler
        .compile_with_deadline(&c, std::time::Duration::from_secs(3600))
        .unwrap();
    let plain = compiler.compile(&c).unwrap();
    assert_timed_eq(&with_deadline.timed, &plain.timed, "deadline compile");
}

#[test]
fn fault_injection_is_compiled_out_of_the_default_build() {
    // The zero-cost guarantee: a default (no-feature) build carries none
    // of the fault-injection hooks, checked at compile time. Under
    // `--features fault-inject` the check is compiled out and
    // tests/fault_injection.rs covers the armed behaviour instead; CI's
    // `cargo tree -e features` step pins the dependency graph.
    #[cfg(not(feature = "fault-inject"))]
    const {
        assert!(
            !cfg!(feature = "fault-inject"),
            "default build must not enable fault injection"
        );
    }
}
