//! Criterion micro-benchmarks of the trajectory simulator: gate
//! application, damping steps and whole-circuit trajectories.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use waltz_circuits::generalized_toffoli;
use waltz_core::{Compiler, Strategy, Target};
use waltz_math::Matrix;
use waltz_noise::{CoherenceModel, NoiseModel};
use waltz_sim::{trajectory, GateKernel, Register, State, Workspace};

fn bench_gate_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("state");
    group.sample_size(30);
    // Two-ququart gate on an 8-ququart register (4^8 = 65536 amplitudes).
    let reg = Register::ququarts(8);
    let mut rng = StdRng::seed_from_u64(1);
    let state = State::random_qubit_product(&reg, &mut rng);
    let gate = waltz_gates::full_quart::cz(waltz_gates::Slot::S0, waltz_gates::Slot::S1);
    group.bench_function("apply-2ququart-gate/4^8", |b| {
        b.iter(|| {
            let mut s = state.clone();
            s.apply_unitary(&gate, &[3, 4]);
            s
        })
    });
    let model = CoherenceModel::paper();
    group.bench_function("damping-step/4^8", |b| {
        b.iter(|| {
            let mut s = state.clone();
            s.damping_step(&model, 3, 500.0, &mut rng);
            s
        })
    });
    group.finish();
}

/// Kernel-specialized apply vs. the generic dense path, per kernel class,
/// at 4^8 amplitudes. Gates are unitary, so each iteration applies in
/// place with no per-iteration state clone.
fn bench_kernel_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.sample_size(30);
    let reg = Register::ququarts(8);
    let mut rng = StdRng::seed_from_u64(2);
    let mut state = State::random_qubit_product(&reg, &mut rng);
    let diag = waltz_gates::full_quart::cz(waltz_gates::Slot::S0, waltz_gates::Slot::S1);
    let perm = Matrix::permutation(&(0..16).map(|j| (j + 5) % 16).collect::<Vec<_>>());
    let dense1 = waltz_math::linalg::haar_unitary(4, &mut rng);
    let dense2 = waltz_math::linalg::haar_unitary(16, &mut rng);
    let cases: Vec<(&str, Matrix, Vec<usize>)> = vec![
        ("diagonal", diag, vec![3, 4]),
        ("permutation", perm, vec![3, 4]),
        ("single-qudit", dense1, vec![3]),
        ("two-qudit", dense2, vec![3, 4]),
    ];
    for (name, u, operands) in &cases {
        let kernel = GateKernel::classify(u, operands.len());
        assert_eq!(&kernel.name(), name);
        let mut ws = Workspace::new();
        group.bench_function(format!("{name}/kernel/4^8"), |b| {
            b.iter(|| state.apply_kernel(&kernel, u, operands, &mut ws))
        });
        group.bench_function(format!("{name}/generic/4^8"), |b| {
            b.iter(|| state.apply_unitary(u, operands))
        });
    }
    group.finish();
}

fn bench_trajectories(c: &mut Criterion) {
    let noise = NoiseModel::paper();
    let circuit = generalized_toffoli(3); // 6 qubits
    let mut group = c.benchmark_group("trajectory");
    group.sample_size(10);
    for strategy in [Strategy::qubit_only(), Strategy::full_ququart()] {
        let compiled = Compiler::new(Target::paper(strategy))
            .compile(&circuit)
            .unwrap();
        // Unfused hardware schedule vs. the fused simulation schedule.
        for (tag, timed) in [("", &compiled.timed), ("/fused", compiled.sim_circuit())] {
            group.bench_function(format!("cnu-6q/{}{tag}", strategy.name()), |b| {
                b.iter(|| {
                    trajectory::average_fidelity_with(timed, &noise, 8, 3, |_, rng, out| {
                        compiled.write_random_product_initial_state(rng, out)
                    })
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gate_application,
    bench_kernel_classes,
    bench_trajectories
);
criterion_main!(benches);
