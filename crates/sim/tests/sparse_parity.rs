//! Sparse amplitude-map parity and the density-adaptive engine's
//! determinism contract.
//!
//! Every sparse kernel arm (diagonal in-place phase, permutation index
//! remap, single-/two-qudit and general-dense gather-scatter) must agree
//! with the dense scalar sweep body to 1e-12 on proptest-randomized
//! mixed-radix registers; with truncation epsilon 0 the sparse arms
//! mirror the scalar accumulation forms exactly, so the real contract —
//! pinned bitwise below — is that a trajectory run through the
//! [`AdaptiveState`] produces the *same bits* as the dense engine no
//! matter where (or whether) the representation switches, and the
//! estimate is bit-identical at every pool width.
//!
//! The acceptance test at the bottom simulates a 26-qubit Toffoli
//! ladder — a 1 GiB dense state — inside a 256 MiB budget, which is the
//! whole point of the representation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use waltz_math::{linalg, Matrix, C64};
use waltz_noise::NoiseModel;
use waltz_sim::trajectory::Estimator;
use waltz_sim::{
    sparse_enabled, AdaptiveState, GateKernel, Register, SegmentedCircuit, Session, SimdLevel,
    SparsePolicy, SparseState, State, TimedCircuit, TimedOp, TrajectoryPool, Workspace,
};

const TOL: f64 = 1e-12;

/// A Haar-random state on a register.
fn random_state(reg: &Register, seed: u64) -> State {
    let mut rng = StdRng::seed_from_u64(seed);
    let amps = linalg::haar_state(reg.total_dim(), &mut rng);
    State::from_amplitudes(reg, amps)
}

/// A random unitary of dimension `n` of the requested structure class
/// (0 = diagonal, 1 = phased permutation, 2 = Haar dense).
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

/// Applies `u` from the same random state through the dense scalar sweep
/// and through the sparse amplitude map (epsilon 0), and asserts 1e-12
/// agreement on every amplitude plus norm conservation.
fn assert_sparse_parity(reg: &Register, u: &Matrix, operands: &[usize], seed: u64) {
    let kernel = GateKernel::classify(u, operands.len());
    let mut ws = Workspace::serial();
    ws.set_simd_level(SimdLevel::Scalar);

    let initial = random_state(reg, seed);
    let mut dense = initial.clone();
    dense.apply_kernel(&kernel, u, operands, &mut ws);

    let mut sparse = SparseState::from_dense(&initial, 0.0);
    sparse.apply_kernel(&kernel, u, operands, &mut ws);

    for (i, &b) in dense.amplitudes().iter().enumerate() {
        let a = sparse.amplitude(i);
        assert!(
            a.approx_eq(b, TOL),
            "sparse {} arm deviates from dense at amplitude {i} \
             (dims {:?}, operands {:?}): {a} vs {b}",
            kernel.name(),
            reg.dims(),
            operands,
        );
    }
    // Epsilon 0 truncates only exact zeros: unitarity survives.
    assert!(
        (sparse.norm() - 1.0).abs() < 1e-9,
        "sparse {} arm lost norm: {}",
        kernel.name(),
        sparse.norm()
    );
}

/// A register of `n` qudits with dimensions drawn from {2, 3, 4, 5}.
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

    // Every kernel class on random mixed-radix shapes: the sparse arm
    // matches the dense scalar body on every amplitude.
    #[test]
    fn sparse_arms_match_dense_on_random_registers(
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
        assert_sparse_parity(&reg, &u, &operands, seed.wrapping_add(1));
    }
}

#[test]
fn every_specialized_arm_agrees_at_directed_shapes() {
    let mut rng = StdRng::seed_from_u64(77);
    // Single-operand diagonal fast path at every stride.
    let reg = Register::new(vec![4, 3, 2, 5]);
    for q in 0..reg.n_qudits() {
        let u = random_unitary(reg.dim(q), 0, &mut rng);
        assert_sparse_parity(&reg, &u, &[q], 500 + q as u64);
    }
    // Multi-operand diagonal (the unconditional-multiply arm).
    let u = random_unitary(12, 0, &mut rng);
    assert_sparse_parity(&reg, &u, &[0, 1], 510);
    // Permutation remap + re-sort across non-adjacent operands.
    let u = random_unitary(20, 1, &mut rng);
    assert_sparse_parity(&reg, &u, &[0, 3], 520);
    // Unrolled dense 2x2 and 4x4 single-qudit arms, plus the general
    // odd-dimension loop.
    for (q, seed) in [(2usize, 530u64), (0, 531), (1, 532), (3, 533)] {
        let u = linalg::haar_unitary(reg.dim(q), &mut rng);
        assert_sparse_parity(&reg, &u, &[q], seed);
    }
    // Two-qudit dense (16x16, stack block).
    let reg4 = Register::ququarts(5);
    let u = linalg::haar_unitary(16, &mut rng);
    assert_sparse_parity(&reg4, &u, &[1, 3], 540);
    // Two-qudit dense with structural zeros: a controlled-Haar block
    // drives the zero-skip accumulation branch.
    let mut cu = Matrix::zeros(16, 16);
    for j in 0..8 {
        cu[(j, j)] = C64::ONE;
    }
    let haar8 = linalg::haar_unitary(8, &mut rng);
    for r in 0..8 {
        for c in 0..8 {
            cu[(8 + r, 8 + c)] = haar8[(r, c)];
        }
    }
    assert_sparse_parity(&reg4, &u, &[0, 4], 550);
    assert_sparse_parity(&reg4, &cu, &[2, 3], 551);
    // General dense: 64-state stack block and an 80-state heap block.
    let u = linalg::haar_unitary(64, &mut rng);
    assert_sparse_parity(&reg4, &u, &[0, 2, 4], 560);
    let reg_heap = Register::new(vec![4, 4, 5, 2]);
    let u = linalg::haar_unitary(80, &mut rng);
    assert_sparse_parity(&reg_heap, &u, &[0, 1, 2], 561);
}

#[test]
fn truncation_epsilon_drops_small_amplitudes_and_zero_keeps_all() {
    let reg = Register::qubits(3);
    // Rotate |0> slightly: amplitudes of very different magnitudes.
    let theta: f64 = 1e-4;
    let ry = Matrix::from_rows(&[
        vec![C64::new(theta.cos(), 0.0), C64::new(-theta.sin(), 0.0)],
        vec![C64::new(theta.sin(), 0.0), C64::new(theta.cos(), 0.0)],
    ]);
    let kernel = GateKernel::classify(&ry, 1);
    let mut ws = Workspace::serial();

    let mut exact = SparseState::basis(&reg, 0);
    for q in 0..3 {
        exact.apply_kernel(&kernel, &ry, &[q], &mut ws);
    }
    // Epsilon 0: every nonzero product amplitude survives (2^3 of them).
    assert_eq!(exact.nnz(), 8);

    let mut truncated = SparseState::basis(&reg, 0);
    truncated.set_epsilon(1e-3);
    for q in 0..3 {
        truncated.apply_kernel(&kernel, &ry, &[q], &mut ws);
    }
    // Amplitudes with two or three sin(theta) factors (~1e-8, ~1e-12)
    // fall below epsilon; the |0> amplitude and the three single-flip
    // ones survive.
    assert!(truncated.nnz() < 8, "epsilon did not truncate");
    assert!(truncated.amplitude(0).norm_sqr() > 0.99);
}

// ---------------------------------------------------------------------
// Bit-identity across representation switches
// ---------------------------------------------------------------------

/// A mixed-kernel schedule whose basis-input support grows gradually, so
/// mid-range density thresholds genuinely switch representation mid-run.
fn switching_circuit() -> TimedCircuit {
    let reg = Register::new(vec![2, 4, 2, 3, 2]);
    let mut tc = TimedCircuit::new(reg.clone());
    let mut rng = StdRng::seed_from_u64(900);
    let mut t = 0.0;
    for i in 0..10 {
        let class = [1usize, 0, 2, 1, 2][i % 5];
        let k = 1 + (i % 2);
        let mut operands: Vec<usize> = Vec::new();
        while operands.len() < k {
            let q = rng.gen_range(0..reg.n_qudits());
            if !operands.contains(&q) {
                operands.push(q);
            }
        }
        let dim: usize = operands.iter().map(|&q| reg.dim(q)).product();
        let u = random_unitary(dim, class, &mut rng);
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

/// Asserts the adaptive result carries exactly the dense result's bits:
/// every stored sparse entry equals the dense amplitude bitwise, and
/// every index the sparse map dropped is exactly zero in the dense state.
fn assert_bits_match_dense(adaptive: &AdaptiveState, dense: &State) {
    match adaptive.as_dense() {
        Some(d) => {
            for (i, (a, b)) in d.amplitudes().iter().zip(dense.amplitudes()).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "densified amplitude {i} drifted: {a} vs {b}"
                );
            }
        }
        None => {
            let sparse = adaptive.as_sparse().expect("not dense, so sparse");
            let mut entries = sparse.entries().iter().peekable();
            for (i, b) in dense.amplitudes().iter().enumerate() {
                match entries.peek() {
                    Some(&&(idx, a)) if idx == i as u64 => {
                        entries.next();
                        assert!(
                            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                            "sparse amplitude {i} drifted: {a} vs {b}"
                        );
                    }
                    _ => assert!(
                        b.norm_sqr() == 0.0,
                        "sparse map dropped a nonzero dense amplitude at {i}: {b}"
                    ),
                }
            }
        }
    }
}

/// One noisy trajectory, dense vs adaptive at several density
/// thresholds: identical RNG stream (the engines share `run_ops`), so
/// with truncation epsilon 0 the surviving amplitudes must be
/// bit-identical whether the run stayed sparse, densified at op 1, or
/// switched somewhere in the middle.
#[test]
fn noisy_trajectory_is_bit_identical_across_switch_points() {
    let tc = switching_circuit();
    let noise = NoiseModel::paper();
    let reg = tc.register.clone();

    let mut dense = Session::new(&tc);
    dense.workspace_mut().set_simd_level(SimdLevel::Scalar);
    let initial_dense = State::zero(&reg);
    let mut rng = StdRng::seed_from_u64(0xABCD);
    let dense_out = dense.run_trajectory(&tc, &initial_dense, &noise, &mut rng);

    let initial_sparse = SparseState::zero(&reg);
    for threshold in [0.0, 0.1, 0.3, 0.5, 2.0] {
        let mut adaptive = Session::adaptive(
            &tc,
            &SparsePolicy {
                density_threshold: threshold,
                epsilon: 0.0,
            },
        );
        adaptive.workspace_mut().set_simd_level(SimdLevel::Scalar);
        let mut rng = StdRng::seed_from_u64(0xABCD);
        let out = adaptive.run_trajectory(&tc, &initial_sparse, &noise, &mut rng);
        assert_bits_match_dense(out, dense_out);
        if !sparse_enabled() {
            assert!(out.is_dense(), "WALTZ_SPARSE=0 must force dense");
        } else if threshold >= 2.0 {
            assert!(!out.is_dense(), "threshold 2.0 must never densify");
        } else if threshold <= 0.0 {
            assert!(out.is_dense(), "threshold 0 must densify immediately");
        }
    }
}

/// The segmented runner under the same contract, with a genuine reshape
/// boundary (a dimension-4 device clipped to 2 in the second segment) —
/// the boundary where a dense adaptive state may drop back to sparse.
#[test]
fn segmented_trajectory_is_bit_identical_across_switch_points() {
    let mut rng = StdRng::seed_from_u64(42);
    let reg_a = Register::new(vec![2, 4, 2]);
    let reg_b = Register::new(vec![2, 2, 2]);
    let mut seg_a = TimedCircuit::new(reg_a.clone());
    let mut t = 0.0;
    // Device 1 (the dimension-4 one) is never acted on, so it stays at
    // level 0 and the clip to dimension 2 at the boundary is lossless.
    for (ops, dims) in [
        (vec![0usize], vec![2u8]),
        (vec![2], vec![2]),
        (vec![0, 2], vec![2, 2]),
    ] {
        let dim: usize = dims.iter().map(|&d| d as usize).product();
        let u = linalg::haar_unitary(dim, &mut rng);
        seg_a
            .ops
            .push(TimedOp::new("a", u, ops, dims, t, 40.0, 0.997));
        t += 40.0;
    }
    seg_a.total_duration_ns = t;
    let mut seg_b = TimedCircuit::new(reg_b.clone());
    for (ops, dims) in [(vec![1usize, 2], vec![2u8, 2]), (vec![0], vec![2])] {
        let dim: usize = dims.iter().map(|&d| d as usize).product();
        let u = linalg::haar_unitary(dim, &mut rng);
        seg_b
            .ops
            .push(TimedOp::new("b", u, ops, dims, t, 40.0, 0.997));
        t += 40.0;
    }
    seg_b.total_duration_ns = t;
    let circuit = SegmentedCircuit::new(vec![seg_a, seg_b], t);

    let mut dense = Session::new(&circuit);
    dense.workspace_mut().set_simd_level(SimdLevel::Scalar);
    let initial_dense = State::zero(&reg_a);
    let mut rng = StdRng::seed_from_u64(31337);
    let dense_out = dense.run_trajectory(&circuit, &initial_dense, &noise_no_leak(), &mut rng);

    let initial_sparse = SparseState::zero(&reg_a);
    for threshold in [0.0, 0.25, 2.0] {
        let mut adaptive = Session::adaptive(
            &circuit,
            &SparsePolicy {
                density_threshold: threshold,
                epsilon: 0.0,
            },
        );
        adaptive.workspace_mut().set_simd_level(SimdLevel::Scalar);
        let mut rng = StdRng::seed_from_u64(31337);
        let out = adaptive.run_trajectory(&circuit, &initial_sparse, &noise_no_leak(), &mut rng);
        assert_bits_match_dense(out, dense_out);
    }
}

/// Noise with error draws disabled but damping on, so the fixture's
/// "device 1 never leaves level 0" guarantee — what makes the boundary
/// clip lossless — holds exactly on every trajectory.
fn noise_no_leak() -> NoiseModel {
    let mut noise = NoiseModel::paper();
    noise.depolarizing = false;
    noise
}

// ---------------------------------------------------------------------
// Estimator-level determinism
// ---------------------------------------------------------------------

/// Threshold 0 reproduces the dense estimator bit-for-bit (both run the
/// dense engine with the same RNG stream and SIMD level); threshold 2
/// runs sparse throughout and lands within 1e-12.
#[test]
fn adaptive_estimator_matches_dense_estimator() {
    let tc = switching_circuit();
    let noise = NoiseModel::paper();
    let (trajectories, seed) = (24usize, 0x5EEDu64);
    let pool = TrajectoryPool::serial();
    let dense = Estimator::new(&tc, &noise)
        .with_input(|_reg, _rng, out: &mut State| {
            out.fill_product_with(|_, lvl| if lvl == 0 { C64::ONE } else { C64::ZERO });
        })
        .on(&pool)
        .estimate(trajectories, seed);
    let basis = |_reg: &Register, _rng: &mut StdRng, out: &mut SparseState| out.fill_basis(0);
    let densify_now = SparsePolicy {
        density_threshold: 0.0,
        epsilon: 0.0,
    };
    let adaptive = Estimator::adaptive(&tc, &noise, &densify_now, basis)
        .on(&pool)
        .estimate(trajectories, seed);
    assert_eq!(dense.mean.to_bits(), adaptive.mean.to_bits());
    assert_eq!(dense.std_error.to_bits(), adaptive.std_error.to_bits());

    let never_densify = SparsePolicy {
        density_threshold: 2.0,
        epsilon: 0.0,
    };
    let sparse = Estimator::adaptive(&tc, &noise, &never_densify, basis)
        .on(&pool)
        .estimate(trajectories, seed);
    assert!(
        (sparse.mean - dense.mean).abs() < TOL,
        "sparse-path estimate drifted: {} vs {}",
        sparse.mean,
        dense.mean
    );
}

/// Pool-width invariance: the adaptive estimate is bit-identical at 1,
/// 2 and 4 workers (per-trajectory seeding, one slot per sample).
#[test]
fn adaptive_estimates_are_bit_identical_across_thread_counts() {
    let tc = switching_circuit();
    let noise = NoiseModel::paper();
    let policy = SparsePolicy::default();
    let basis = |_reg: &Register, _rng: &mut StdRng, out: &mut SparseState| out.fill_basis(0);
    let reference = Estimator::adaptive(&tc, &noise, &policy, basis)
        .on(&TrajectoryPool::serial())
        .estimate(21, 777);
    for threads in [2usize, 4] {
        let pooled = Estimator::adaptive(&tc, &noise, &policy, basis)
            .on(&TrajectoryPool::new(threads))
            .estimate(21, 777);
        assert_eq!(reference.mean.to_bits(), pooled.mean.to_bits());
        assert_eq!(reference.std_error.to_bits(), pooled.std_error.to_bits());
    }
}

// ---------------------------------------------------------------------
// The 20+ qubit budget acceptance
// ---------------------------------------------------------------------

/// A CCX permutation on three qubits (embedded 8x8).
fn ccx_unitary() -> Matrix {
    let perm: Vec<usize> = (0..8).map(|j| if j >= 6 { 6 + 7 - j } else { j }).collect();
    Matrix::permutation(&perm)
}

/// A Toffoli ladder on `n` qubits: X on the first two, then
/// `ccx(i, i+1, i+2)` up the ladder — from `|0..0>` the all-ones state
/// walks to the top, and every kernel stays a permutation, so the
/// basis-input support never exceeds one entry.
fn toffoli_ladder(n: usize) -> TimedCircuit {
    let reg = Register::qubits(n);
    let mut tc = TimedCircuit::new(reg.clone());
    let x = Matrix::permutation(&[1, 0]);
    let mut t = 0.0;
    for q in [0usize, 1] {
        tc.ops.push(TimedOp::new(
            "x",
            x.clone(),
            vec![q],
            vec![2],
            t,
            35.0,
            0.9995,
        ));
        t += 35.0;
    }
    let ccx = ccx_unitary();
    for i in 0..n - 2 {
        tc.ops.push(TimedOp::new(
            "ccx",
            ccx.clone(),
            vec![i, i + 1, i + 2],
            vec![2, 2, 2],
            t,
            250.0,
            0.995,
        ));
        t += 250.0;
    }
    tc.total_duration_ns = t;
    tc
}

/// 26 qubits: the dense state would be 2^26 x 16 B = 1 GiB, four times
/// the 256 MiB budget that used to make such programs OverBudget. The
/// sparse engine carries one amplitude end to end, noiselessly and under
/// the paper noise model, with 1e-12-exact output.
#[test]
fn twenty_six_qubit_ladder_fits_a_256_mib_budget() {
    if !sparse_enabled() {
        // WALTZ_SPARSE=0 forces dense everywhere; materializing the
        // 1 GiB state would defeat the budget this test pins.
        return;
    }
    const BUDGET: usize = 256 << 20;
    let n = 26;
    let tc = toffoli_ladder(n);
    let reg = tc.register.clone();
    assert!(
        reg.state_bytes() > BUDGET,
        "acceptance needs a register the dense engine cannot afford"
    );

    let mut session = Session::adaptive(&tc, &SparsePolicy::default());

    // Noiseless: the ladder walks |0..0> to |1..1> exactly.
    let initial = SparseState::zero(&reg);
    let out = session.run_ideal(&tc, &initial);
    assert!(!out.is_dense(), "permutation ladder must stay sparse");
    assert_eq!(out.nnz(), 1);
    assert_eq!(out.peak_nnz(), 1);
    assert!(out.peak_state_bytes() <= BUDGET);
    let all_ones = reg.total_dim() - 1;
    assert!(
        (out.probability_of(all_ones) - 1.0).abs() < TOL,
        "ladder output is not |1..1>: p = {}",
        out.probability_of(all_ones)
    );

    // One noisy trajectory under the paper model: Pauli draws and
    // damping collapses are support-preserving, so the run stays inside
    // the budget too.
    let noise = NoiseModel::paper();
    let mut rng = StdRng::seed_from_u64(2023);
    let noisy = session.run_trajectory(&tc, &initial, &noise, &mut rng);
    assert!(!noisy.is_dense());
    assert!(noisy.peak_state_bytes() <= BUDGET);
    assert!((noisy.norm() - 1.0).abs() < 1e-9);
}
