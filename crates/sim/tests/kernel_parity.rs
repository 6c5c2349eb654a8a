//! Dense-reference parity: every specialized kernel path must agree with
//! the generic dense `State::apply_unitary` loop to 1e-12 on random
//! mixed-radix states. `apply_unitary` is an independent implementation
//! (it never consults a `GateKernel`), so these tests catch bugs in the
//! classification, the offset arithmetic and the cycle walks alike, up
//! to a 4^8-amplitude register.

use rand::rngs::StdRng;
use rand::SeedableRng;

use waltz_math::{Matrix, C64};
use waltz_sim::{GateKernel, Register, State, Workspace};

const TOL: f64 = 1e-12;

/// A Haar-random state on a register.
fn random_state(reg: &Register, seed: u64) -> State {
    let mut rng = StdRng::seed_from_u64(seed);
    let amps = waltz_math::linalg::haar_state(reg.total_dim(), &mut rng);
    State::from_amplitudes(reg, amps)
}

/// A random diagonal unitary of dimension `n`.
fn random_diagonal(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    let phases: Vec<C64> = (0..n)
        .map(|_| C64::cis(rng.gen::<f64>() * std::f64::consts::TAU))
        .collect();
    Matrix::from_diag(&phases)
}

/// A random phased permutation of dimension `n`.
fn random_phased_permutation(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    // Fisher-Yates.
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

/// Applies `u` through its classified kernel and through the generic
/// dense path, asserting the expected class and 1e-12 agreement.
fn assert_parity(reg: &Register, u: &Matrix, operands: &[usize], seed: u64, expect: &str) {
    let kernel = GateKernel::classify(u, operands.len());
    assert_eq!(kernel.name(), expect, "classification of {u:?}");
    let reference = {
        let mut s = random_state(reg, seed);
        s.apply_unitary(u, operands);
        s
    };
    let mut specialized = random_state(reg, seed);
    let mut ws = Workspace::serial();
    specialized.apply_kernel(&kernel, u, operands, &mut ws);
    for (i, (a, b)) in specialized
        .amplitudes()
        .iter()
        .zip(reference.amplitudes())
        .enumerate()
    {
        assert!(
            a.approx_eq(*b, TOL),
            "{expect} kernel deviates at amplitude {i}: {a} vs {b}"
        );
    }
}

fn mixed_register() -> Register {
    Register::new(vec![2, 4, 2, 4, 3])
}

#[test]
fn identity_kernel_matches_dense() {
    let reg = mixed_register();
    assert_parity(&reg, &Matrix::identity(8), &[1, 2], 1, "identity");
}

#[test]
fn diagonal_kernel_matches_dense_single_operand() {
    let reg = mixed_register();
    for (q, seed) in [(0usize, 2u64), (1, 3), (4, 4)] {
        assert_parity(
            &reg,
            &random_diagonal(reg.dim(q), seed),
            &[q],
            seed,
            "diagonal",
        );
    }
}

#[test]
fn diagonal_kernel_matches_dense_multi_operand() {
    let reg = mixed_register();
    assert_parity(&reg, &random_diagonal(8, 5), &[1, 0], 5, "diagonal");
    assert_parity(&reg, &random_diagonal(24, 6), &[3, 4, 2], 6, "diagonal");
    // The paper's CCZ on (ququart, qubit).
    assert_parity(
        &Register::new(vec![4, 2]),
        &waltz_gates::mixed::ccz(),
        &[0, 1],
        7,
        "diagonal",
    );
}

#[test]
fn permutation_kernel_matches_dense() {
    let reg = mixed_register();
    assert_parity(
        &reg,
        &random_phased_permutation(4, 8),
        &[1],
        8,
        "permutation",
    );
    assert_parity(
        &reg,
        &random_phased_permutation(8, 9),
        &[2, 3],
        9,
        "permutation",
    );
    assert_parity(
        &reg,
        &random_phased_permutation(32, 10),
        &[1, 0, 3],
        10,
        "permutation",
    );
    // Textbook gates: X, CX, CCX.
    assert_parity(
        &Register::qubits(3),
        &waltz_gates::standard::x(),
        &[1],
        11,
        "permutation",
    );
    assert_parity(
        &Register::qubits(3),
        &waltz_gates::standard::cx(),
        &[2, 0],
        12,
        "permutation",
    );
    assert_parity(
        &Register::qubits(4),
        &waltz_gates::standard::ccx(),
        &[0, 2, 3],
        13,
        "permutation",
    );
}

#[test]
fn single_qudit_kernel_matches_dense() {
    let reg = mixed_register();
    let mut rng = StdRng::seed_from_u64(14);
    // d = 2 (unrolled), d = 4 (unrolled), d = 3 (generic gather).
    for q in [0usize, 1, 4] {
        let u = waltz_math::linalg::haar_unitary(reg.dim(q), &mut rng);
        assert_parity(&reg, &u, &[q], 15 + q as u64, "single-qudit");
    }
}

#[test]
fn two_qudit_kernel_matches_dense() {
    let reg = mixed_register();
    let mut rng = StdRng::seed_from_u64(20);
    for (a, b, seed) in [(0usize, 2usize, 21u64), (1, 3, 22), (3, 0, 23), (4, 1, 24)] {
        let dim = reg.dim(a) * reg.dim(b);
        let u = waltz_math::linalg::haar_unitary(dim, &mut rng);
        assert_parity(&reg, &u, &[a, b], seed, "two-qudit");
    }
}

#[test]
fn general_dense_kernel_matches_dense() {
    let reg = mixed_register();
    let mut rng = StdRng::seed_from_u64(30);
    let u = waltz_math::linalg::haar_unitary(16, &mut rng); // (2, 4, 2)
    assert_parity(&reg, &u, &[0, 1, 2], 31, "general-dense");
    let u = waltz_math::linalg::haar_unitary(32, &mut rng); // (4, 4, 2)
    assert_parity(&reg, &u, &[1, 3, 2], 32, "general-dense");
}

#[test]
fn kernels_match_dense_on_4pow8_register() {
    // 4^8 = 65536 amplitudes: the largest register on which every
    // kernel class is checked against the dense reference.
    let reg = Register::ququarts(8);
    let mut rng = StdRng::seed_from_u64(40);
    let gates: Vec<(Matrix, Vec<usize>, &str)> = vec![
        (random_diagonal(4, 41), vec![3], "diagonal"),
        (random_diagonal(16, 42), vec![2, 5], "diagonal"),
        (random_phased_permutation(16, 43), vec![1, 6], "permutation"),
        (
            waltz_math::linalg::haar_unitary(4, &mut rng),
            vec![4],
            "single-qudit",
        ),
        (
            waltz_math::linalg::haar_unitary(16, &mut rng),
            vec![0, 7],
            "two-qudit",
        ),
    ];
    let mut ws = Workspace::new();
    for (u, operands, expect) in gates {
        let kernel = GateKernel::classify(&u, operands.len());
        assert_eq!(kernel.name(), expect);
        let mut reference = random_state(&reg, 44);
        reference.apply_unitary(&u, &operands);
        let mut specialized = random_state(&reg, 44);
        specialized.apply_kernel(&kernel, &u, &operands, &mut ws);
        for (a, b) in specialized.amplitudes().iter().zip(reference.amplitudes()) {
            assert!(a.approx_eq(*b, TOL), "{expect} kernel deviates at 4^8");
        }
    }
}

#[test]
fn pauli_in_place_matches_dense_matrix_on_mixed_register() {
    // The in-place cycle walk of apply_pauli against the embedded dense
    // matrix, for every generalized Pauli of d = 2, 3, 4 on a mixed
    // register (including sub-dimension errors on a larger device).
    let reg = Register::new(vec![4, 2, 3]);
    let mut seed = 50;
    for q in 0..3 {
        let dev = reg.dim(q);
        for d in 2..=dev {
            for a in 0..d as u8 {
                for b in 0..d as u8 {
                    let op = waltz_noise::PauliOp { a, b, d: d as u8 };
                    let mut dense = Matrix::identity(dev);
                    let small = op.matrix();
                    for r in 0..d {
                        for c in 0..d {
                            dense[(r, c)] = small[(r, c)];
                        }
                    }
                    seed += 1;
                    let mut expected = random_state(&reg, seed);
                    expected.apply_unitary(&dense, &[q]);
                    let mut got = random_state(&reg, seed);
                    got.apply_pauli(op, q);
                    for (x, y) in got.amplitudes().iter().zip(expected.amplitudes()) {
                        assert!(x.approx_eq(*y, TOL), "pauli {op:?} on qudit {q}");
                    }
                }
            }
        }
    }
}

#[test]
fn pauli_permutation_kernel_matches_apply_pauli() {
    // PauliOp::as_phased_permutation feeds the simulator's permutation
    // kernel; both routes must produce the same state.
    let reg = Register::new(vec![4, 2]);
    let op = waltz_noise::PauliOp { a: 3, b: 2, d: 4 };
    let (perm, phases) = op.as_phased_permutation(4);
    let mut m = Matrix::zeros(4, 4);
    for (j, (&p, &ph)) in perm.iter().zip(phases.iter()).enumerate() {
        m[(p, j)] = ph;
    }
    let kernel = GateKernel::classify(&m, 1);
    assert_eq!(kernel.name(), "permutation");
    let mut via_kernel = random_state(&reg, 60);
    let mut ws = Workspace::serial();
    via_kernel.apply_kernel(&kernel, &m, &[0], &mut ws);
    let mut via_pauli = random_state(&reg, 60);
    via_pauli.apply_pauli(op, 0);
    for (x, y) in via_kernel.amplitudes().iter().zip(via_pauli.amplitudes()) {
        assert!(x.approx_eq(*y, TOL));
    }
}

#[test]
fn compiled_circuit_kernels_reproduce_dense_ideal_run() {
    // End-to-end: a compiled paper circuit executed through apply_op
    // (kernels) must match gate-by-gate dense application.
    use waltz_circuits_stub::build;
    let tc = build();
    let mut rng = StdRng::seed_from_u64(70);
    let initial = State::random_qubit_product(&tc.register, &mut rng);
    let via_kernels = waltz_sim::ideal::run(&tc, &initial);
    let mut dense = initial.clone();
    for op in &tc.ops {
        dense.apply_unitary(&op.unitary, &op.operands);
    }
    assert!((via_kernels.fidelity(&dense) - 1.0).abs() < TOL);
}

/// A small hand-built schedule mixing kernel classes (avoids a dev-dep on
/// the compiler crate, which would be a dependency cycle).
mod waltz_circuits_stub {
    use waltz_math::Matrix;
    use waltz_sim::{Register, TimedCircuit, TimedOp};

    pub fn build() -> TimedCircuit {
        let reg = Register::new(vec![4, 2, 4]);
        let mut tc = TimedCircuit::new(reg);
        let ops: Vec<(Matrix, Vec<usize>)> = vec![
            (waltz_gates::standard::h(), vec![1]),
            (waltz_gates::mixed::ccz(), vec![0, 1]),
            (
                waltz_gates::mixed::ccx(waltz_gates::hw::MrCcxConfig::ControlsEncoded),
                vec![2, 1],
            ),
            (
                waltz_gates::embed(&waltz_gates::standard::x(), &[2], &[4]),
                vec![0],
            ),
            (Matrix::identity(8), vec![1, 2]),
        ];
        let mut t = 0.0;
        for (u, operands) in ops {
            let dims = vec![2; operands.len()];
            tc.ops
                .push(TimedOp::new("g", u, operands, dims, t, 50.0, 1.0));
            t += 50.0;
        }
        tc.total_duration_ns = t;
        tc
    }
}
