//! SIMD parity and trajectory-engine determinism.
//!
//! Every vectorized sweep arm (diagonal, permutation, dense
//! single-/two-qudit, general dense, and the diagonal single-qudit
//! scale fast paths) must agree with the always-compiled scalar fallback
//! to 1e-12 — the tolerance absorbs the one-ulp differences FMA's single
//! rounding introduces. The generators draw mixed-radix registers with
//! odd dimensions, non-power-of-two amplitude counts and operand sets
//! that put the paired innermost qudit at every stride, so the pairing
//! detection, the remainder handling and the unaligned 256-bit loads are
//! all on trial, not just the friendly all-ququart case.
//!
//! On hosts without AVX2+FMA both workspaces run the scalar body and the
//! parity tests pass trivially; the determinism tests below are
//! host-independent.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use waltz_math::{linalg, Matrix, C64};
use waltz_noise::NoiseModel;
use waltz_sim::trajectory::Estimator;
use waltz_sim::{
    GateKernel, Register, SegmentedCircuit, SimdLevel, State, TimedCircuit, TimedOp,
    TrajectoryPool, Workspace,
};

const TOL: f64 = 1e-12;

/// A Haar-random state on a register.
fn random_state(reg: &Register, seed: u64) -> State {
    let mut rng = StdRng::seed_from_u64(seed);
    let amps = linalg::haar_state(reg.total_dim(), &mut rng);
    State::from_amplitudes(reg, amps)
}

/// A random unitary of dimension `n` of the requested structure class.
fn random_unitary(n: usize, class: usize, rng: &mut StdRng) -> Matrix {
    match class {
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

/// Applies `u` twice from the same random state — once on a workspace
/// pinned to the host's detected SIMD tier, once pinned to scalar — and
/// asserts 1e-12 amplitude agreement.
fn assert_simd_parity(reg: &Register, u: &Matrix, operands: &[usize], seed: u64) {
    let kernel = GateKernel::classify(u, operands.len());
    let mut scalar_ws = Workspace::serial();
    scalar_ws.set_simd_level(SimdLevel::Scalar);
    let mut vector_ws = Workspace::serial();
    vector_ws.set_simd_level(SimdLevel::detect());

    let mut scalar = random_state(reg, seed);
    scalar.apply_kernel(&kernel, u, operands, &mut scalar_ws);
    let mut vector = random_state(reg, seed);
    vector.apply_kernel(&kernel, u, operands, &mut vector_ws);
    for (i, (a, b)) in vector
        .amplitudes()
        .iter()
        .zip(scalar.amplitudes())
        .enumerate()
    {
        assert!(
            a.approx_eq(*b, TOL),
            "{} arm deviates from scalar at amplitude {i} (dims {:?}, operands {:?}): {a} vs {b}",
            kernel.name(),
            reg.dims(),
            operands,
        );
    }
}

/// A register of `n` qudits with dimensions drawn from {2, 3, 4, 5}:
/// odd dimensions break the innermost-pairing precondition at some
/// positions and make most total amplitude counts non-powers of two.
fn random_mixed_register(rng: &mut StdRng) -> Register {
    let n = rng.gen_range(2..=5usize);
    let choices = [2u8, 3, 4, 5];
    Register::new(
        (0..n)
            .map(|_| choices[rng.gen_range(0..choices.len())])
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every kernel class on random mixed-radix shapes: the classified
    // kernel run at the detected SIMD tier matches the scalar body.
    #[test]
    fn vector_arms_match_scalar_on_random_registers(
        seed in 0u64..100_000,
        class in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = random_mixed_register(&mut rng);
        let max_k = reg.n_qudits().min(3);
        let k = rng.gen_range(1..=max_k);
        let mut operands: Vec<usize> = Vec::new();
        while operands.len() < k {
            let q = rng.gen_range(0..reg.n_qudits());
            if !operands.contains(&q) {
                operands.push(q);
            }
        }
        let dim: usize = operands.iter().map(|&q| reg.dim(q)).product();
        let u = random_unitary(dim, class, &mut rng);
        assert_simd_parity(&reg, &u, &operands, seed.wrapping_add(1));
    }
}

#[test]
fn diagonal_single_qudit_scale_paths_match_scalar() {
    // The diagonal single-qudit fast path takes the periodic-pattern
    // vector arm when the operand has stride 1 and the run-scaling arm
    // otherwise; sweep the operand over every position (= every stride)
    // of registers whose innermost dimension is even, odd, and larger
    // than the 16-lane pattern cap.
    for (dims, seed) in [
        (vec![2u8, 4, 2, 4, 2], 100u64),
        (vec![4, 3, 5, 2], 110),
        (vec![3, 4, 4, 3], 120),
        (vec![5, 5, 2, 2, 3], 130),
    ] {
        let reg = Register::new(dims);
        for q in 0..reg.n_qudits() {
            let mut rng = StdRng::seed_from_u64(seed + q as u64);
            let u = random_unitary(reg.dim(q), 0, &mut rng);
            assert_simd_parity(&reg, &u, &[q], seed + 10 + q as u64);
        }
    }
}

#[test]
fn dense_arms_match_scalar_at_unrolled_dimensions() {
    // The hand-unrolled gather-once arms: single-qudit d=2 and d=4, the
    // tiled two-qudit arm (4^7 amplitudes — hundreds of full 8-pair
    // tiles plus a remainder), and the general dense 3-operand arm.
    let reg = Register::ququarts(7);
    let mut rng = StdRng::seed_from_u64(200);
    for q in [0usize, 3, 6] {
        let u = linalg::haar_unitary(4, &mut rng);
        assert_simd_parity(&reg, &u, &[q], 210 + q as u64);
    }
    for (a, b) in [(0usize, 6usize), (2, 3), (6, 1)] {
        let u = linalg::haar_unitary(16, &mut rng);
        assert_simd_parity(&reg, &u, &[a, b], 220 + a as u64);
    }
    let u = linalg::haar_unitary(64, &mut rng);
    assert_simd_parity(&reg, &u, &[1, 4, 5], 230);

    // d=2 single-qudit on a qubit register, every operand position.
    let reg = Register::qubits(10);
    for q in [0usize, 5, 9] {
        let u = linalg::haar_unitary(2, &mut rng);
        assert_simd_parity(&reg, &u, &[q], 240 + q as u64);
    }
}

#[test]
fn odd_innermost_dimension_still_agrees() {
    // An odd innermost dimension defeats the pair detection, so the
    // dispatcher must fall through to the scalar body — parity here
    // guards the *dispatch* logic, not the lanes.
    let reg = Register::new(vec![4, 2, 3]);
    let mut rng = StdRng::seed_from_u64(300);
    for class in 0..3 {
        let u = random_unitary(8, class, &mut rng);
        assert_simd_parity(&reg, &u, &[0, 1], 310 + class as u64);
    }
}

#[test]
fn set_simd_level_clamps_to_the_host() {
    let mut ws = Workspace::serial();
    ws.set_simd_level(SimdLevel::Scalar);
    assert_eq!(ws.simd_level(), SimdLevel::Scalar);
    ws.set_simd_level(SimdLevel::Avx2Fma);
    // Granted only where the host can actually run it.
    assert_eq!(ws.simd_level(), SimdLevel::detect());
}

// ---------------------------------------------------------------------
// Trajectory-engine determinism
// ---------------------------------------------------------------------

/// A small mixed-kernel schedule for the determinism tests.
fn determinism_circuit() -> TimedCircuit {
    let reg = Register::new(vec![4, 2, 4, 2]);
    let mut tc = TimedCircuit::new(reg.clone());
    let mut rng = StdRng::seed_from_u64(400);
    let mut t = 0.0;
    for i in 0..6 {
        let k = 1 + (i % 2);
        let mut operands: Vec<usize> = Vec::new();
        while operands.len() < k {
            let q = rng.gen_range(0..reg.n_qudits());
            if !operands.contains(&q) {
                operands.push(q);
            }
        }
        let dim: usize = operands.iter().map(|&q| reg.dim(q)).product();
        let u = random_unitary(dim, i % 3, &mut rng);
        let error_dims: Vec<u8> = operands.iter().map(|&q| reg.dim(q) as u8).collect();
        tc.ops.push(TimedOp::new(
            format!("op{i}"),
            u,
            operands,
            error_dims,
            t,
            50.0,
            0.995,
        ));
        t += 50.0;
    }
    tc.total_duration_ns = t;
    tc
}

/// Fixed seed, varying pool width: the per-trajectory sample vector must
/// be bit-identical, because every trajectory's RNG seed derives from
/// `(seed, global index)` alone and each sample lands in its own slot.
#[test]
fn trajectory_samples_are_bit_identical_across_thread_counts() {
    let tc = determinism_circuit();
    let noise = NoiseModel::paper();
    let (trajectories, seed) = (33usize, 0xD5EEDu64); // not a multiple of any width below
    let serial = TrajectoryPool::serial();
    let reference = Estimator::new(&tc, &noise)
        .on(&serial)
        .samples(trajectories, seed);
    assert_eq!(reference.len(), trajectories);
    for threads in [2usize, 4, 7] {
        let pool = TrajectoryPool::new(threads);
        let samples = Estimator::new(&tc, &noise)
            .on(&pool)
            .samples(trajectories, seed);
        assert!(
            reference
                .iter()
                .zip(&samples)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "samples drifted at {threads} threads"
        );
        // And therefore the estimate is bit-identical too.
        let serial_est = Estimator::new(&tc, &noise)
            .on(&serial)
            .estimate(trajectories, seed);
        let pooled_est = Estimator::new(&tc, &noise)
            .on(&pool)
            .estimate(trajectories, seed);
        assert_eq!(serial_est.mean.to_bits(), pooled_est.mean.to_bits());
        assert_eq!(
            serial_est.std_error.to_bits(),
            pooled_est.std_error.to_bits()
        );
    }
}

/// The segmented (windowed-register) estimator under the same contract.
#[test]
fn segmented_estimates_are_bit_identical_across_thread_counts() {
    let seg = SegmentedCircuit::single(determinism_circuit());
    let noise = NoiseModel::paper();
    let serial = Estimator::new(&seg, &noise)
        .on(&TrajectoryPool::serial())
        .estimate(21, 777);
    let pooled = Estimator::new(&seg, &noise)
        .on(&TrajectoryPool::new(3))
        .estimate(21, 777);
    assert_eq!(serial.mean.to_bits(), pooled.mean.to_bits());
    assert_eq!(serial.std_error.to_bits(), pooled.std_error.to_bits());
}
