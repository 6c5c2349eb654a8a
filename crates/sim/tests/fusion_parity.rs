//! Fusion parity: the fused program ([`TimedCircuit::fuse`]) must agree
//! with the unfused engine to 1e-12 on random mixed-radix circuits, never
//! grow the schedule, and preserve the kernel classification of
//! structured runs. The generators below build adversarial schedules —
//! random operand sets, interleaved conflicts, diagonal/permutation/dense
//! mixes — precisely because the fusion pass reorders commuting blocks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use waltz_math::{linalg, Matrix, C64};
use waltz_sim::trajectory::{self, Estimator};
use waltz_sim::{ideal, GateKernel, Register, State, TimedCircuit, TimedOp};

const TOL: f64 = 1e-12;

/// A random register of 2..=5 qudits with dimensions drawn from {2, 4}.
fn random_register(rng: &mut StdRng) -> Register {
    let n = rng.gen_range(2..=5usize);
    Register::new((0..n).map(|_| if rng.gen() { 4 } else { 2 }).collect())
}

/// A random unitary of dimension `n` of a random structure class:
/// diagonal, phased permutation or Haar-dense.
fn random_unitary(n: usize, rng: &mut StdRng) -> Matrix {
    match rng.gen_range(0..3) {
        0 => Matrix::from_diag(
            &(0..n)
                .map(|_| C64::cis(rng.gen::<f64>() * std::f64::consts::TAU))
                .collect::<Vec<_>>(),
        ),
        1 => {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let mut m = Matrix::zeros(n, n);
            for (j, &p) in perm.iter().enumerate() {
                m[(p, j)] = C64::cis(rng.gen::<f64>() * std::f64::consts::TAU);
            }
            m
        }
        _ => linalg::haar_unitary(n, rng),
    }
}

/// A random schedule of `n_ops` one- and two-qudit ops over `reg`, with
/// ASAP start times so the schedule validates.
fn random_circuit(reg: &Register, n_ops: usize, rng: &mut StdRng) -> TimedCircuit {
    let mut tc = TimedCircuit::new(reg.clone());
    let mut busy = vec![0.0f64; reg.n_qudits()];
    for i in 0..n_ops {
        let k = if reg.n_qudits() >= 2 && rng.gen() {
            2
        } else {
            1
        };
        let mut operands: Vec<usize> = Vec::new();
        while operands.len() < k {
            let q = rng.gen_range(0..reg.n_qudits());
            if !operands.contains(&q) {
                operands.push(q);
            }
        }
        let dim: usize = operands.iter().map(|&q| reg.dim(q)).product();
        let u = random_unitary(dim, rng);
        let start = operands.iter().map(|&q| busy[q]).fold(0.0f64, f64::max);
        let duration = rng.gen_range(30.0..300.0);
        for &q in &operands {
            busy[q] = start + duration;
        }
        let error_dims: Vec<u8> = operands.iter().map(|&q| reg.dim(q) as u8).collect();
        tc.ops.push(TimedOp::new(
            format!("op{i}"),
            u,
            operands,
            error_dims,
            start,
            duration,
            0.995,
        ));
    }
    tc.total_duration_ns = busy.iter().fold(0.0f64, |a, &b| a.max(b));
    tc
}

/// Asserts amplitude-level agreement of the fused and unfused programs on
/// a Haar-random initial state.
fn assert_ideal_parity(tc: &TimedCircuit, fused: &TimedCircuit, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let amps = linalg::haar_state(tc.register.total_dim(), &mut rng);
    let initial = State::from_amplitudes(&tc.register, amps);
    let a = ideal::run(tc, &initial);
    let b = ideal::run(fused, &initial);
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert!(
            x.approx_eq(*y, TOL),
            "fused program deviates at amplitude {i}: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_matches_unfused_on_random_mixed_radix_circuits(
        seed in 0u64..10_000,
        n_ops in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = random_register(&mut rng);
        let tc = random_circuit(&reg, n_ops, &mut rng);
        prop_assert!(tc.validate().is_ok());
        let fused = tc.fuse();
        prop_assert!(fused.validate().is_ok(), "{:?}", fused.validate());
        assert_ideal_parity(&tc, &fused, seed.wrapping_add(1));
    }

    #[test]
    fn fusion_never_increases_op_count_and_preserves_eps(
        seed in 0u64..10_000,
        n_ops in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = random_register(&mut rng);
        let tc = random_circuit(&reg, n_ops, &mut rng);
        let fused = tc.fuse();
        prop_assert!(fused.len() <= tc.len());
        prop_assert!((fused.gate_eps() - tc.gate_eps()).abs() < 1e-9);
        prop_assert!((fused.total_duration_ns - tc.total_duration_ns).abs() < 1e-9);
        // Re-fusing can only shrink further (flushing may have made
        // commuting singles adjacent), and existing fused blocks are
        // never re-absorbed — their noise events must survive verbatim.
        let refused = fused.fuse();
        prop_assert!(refused.len() <= fused.len());
        let events = |tc: &TimedCircuit| -> usize {
            tc.ops
                .iter()
                .filter_map(|op| op.noise_events.as_ref().map(Vec::len))
                .sum()
        };
        prop_assert!(events(&refused) >= events(&fused));
        assert_ideal_parity(&tc, &refused, seed.wrapping_add(3));
    }

    #[test]
    fn pure_diagonal_runs_keep_the_diagonal_kernel(
        seed in 0u64..10_000,
        n_ops in 1usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = random_register(&mut rng);
        let mut tc = TimedCircuit::new(reg.clone());
        let mut t = 0.0;
        for i in 0..n_ops {
            let k = if reg.n_qudits() >= 2 && rng.gen() { 2 } else { 1 };
            let mut operands: Vec<usize> = Vec::new();
            while operands.len() < k {
                let q = rng.gen_range(0..reg.n_qudits());
                if !operands.contains(&q) {
                    operands.push(q);
                }
            }
            let dim: usize = operands.iter().map(|&q| reg.dim(q)).product();
            let phases: Vec<C64> = (0..dim)
                .map(|_| C64::cis(rng.gen::<f64>() * std::f64::consts::TAU))
                .collect();
            let error_dims: Vec<u8> = operands.iter().map(|&q| reg.dim(q) as u8).collect();
            tc.ops.push(TimedOp::new(
                format!("d{i}"),
                Matrix::from_diag(&phases),
                operands,
                error_dims,
                t,
                50.0,
                1.0,
            ));
            t += 50.0;
        }
        tc.total_duration_ns = t;
        let fused = tc.fuse();
        prop_assert!(fused.len() <= tc.len());
        for op in &fused.ops {
            prop_assert!(
                matches!(op.kernel, GateKernel::Diagonal { .. } | GateKernel::Identity),
                "diagonal run produced a {} kernel",
                op.kernel.name()
            );
        }
        assert_ideal_parity(&tc, &fused, seed.wrapping_add(2));
    }

    #[test]
    fn noiseless_trajectories_agree_through_fusion(
        seed in 0u64..5_000,
        n_ops in 1usize..16,
    ) {
        // The trajectory runner's fused-op path (noise-event replay) must
        // collapse to the ideal result when every channel is off.
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = random_register(&mut rng);
        let tc = random_circuit(&reg, n_ops, &mut rng);
        let fused = tc.fuse();
        let noise = waltz_noise::NoiseModel::noiseless();
        let initial = State::random_qubit_product(&reg, &mut rng);
        let a = ideal::run(&tc, &initial);
        let b = trajectory::run_trajectory(&fused, &initial, &noise, &mut rng);
        prop_assert!((a.fidelity(&b) - 1.0).abs() < TOL);
    }
}

/// Three-or-more-qudit ops must flush and pass through unfused.
#[test]
fn oversized_ops_split_fusion_runs() {
    let reg = Register::qubits(3);
    let mut rng = StdRng::seed_from_u64(77);
    let mut tc = TimedCircuit::new(reg.clone());
    let mk = |label: &str, u: Matrix, ops: Vec<usize>, start: f64| {
        let dims = vec![2u8; ops.len()];
        TimedOp::new(label, u, ops, dims, start, 100.0, 1.0)
    };
    tc.ops.push(mk(
        "u01",
        linalg::haar_unitary(4, &mut rng),
        vec![0, 1],
        0.0,
    ));
    tc.ops.push(mk(
        "ccx",
        waltz_gates::standard::ccx(),
        vec![0, 1, 2],
        100.0,
    ));
    tc.ops.push(mk(
        "u01b",
        linalg::haar_unitary(4, &mut rng),
        vec![0, 1],
        200.0,
    ));
    tc.total_duration_ns = 300.0;
    let fused = tc.fuse();
    assert_eq!(fused.len(), 3, "the 3-qudit op must fence the runs");
    assert_eq!(fused.ops[1].label, "ccx");
    assert_ideal_parity(&tc, &fused, 78);
}

/// The noisy estimate of a fused schedule stays statistically consistent
/// with the unfused one (same per-pulse error channels, same idle time).
#[test]
fn fused_noisy_estimates_track_unfused() {
    let mut rng = StdRng::seed_from_u64(5);
    let reg = Register::new(vec![4, 2, 4]);
    let tc = random_circuit(&reg, 10, &mut rng);
    let fused = tc.fuse();
    let noise = waltz_noise::NoiseModel::paper();
    let a = Estimator::new(&tc, &noise).estimate(600, 40);
    let b = Estimator::new(&fused, &noise).estimate(600, 41);
    let spread = 4.0 * (a.std_error + b.std_error) + 2e-3;
    assert!(
        (a.mean - b.mean).abs() < spread,
        "unfused {} vs fused {} (allowed {})",
        a.mean,
        b.mean,
        spread
    );
}
