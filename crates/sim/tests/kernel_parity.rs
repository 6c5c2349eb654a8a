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

/// Per-configuration references that pin the run-major sweeps to the
/// bit. The suites above compare at 1e-12, which cannot see a reordered
/// accumulation; these replay each arm's arithmetic one configuration at
/// a time, in the order the arm must keep:
///
/// - the scalar bodies' two-rounding complex products;
/// - the AVX2 arms' lane arithmetic, mirrored with `f64::mul_add`: a
///   broadcast complex product is `vfmaddsub(a, re, swap(a) * im)`, and a
///   dense row accumulates `fma(a, re)` and `fma(swap(a), im)` from zero
///   over its nonzero columns in order, then combines with `addsub`.
mod bitwise {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use waltz_math::{Matrix, C64};
    use waltz_noise::PauliOp;
    use waltz_sim::{GateKernel, Register, SimdLevel, State, Workspace};

    /// The AVX2 arms' product of an amplitude and a broadcast coefficient.
    fn fma_cmul(a: C64, p: C64) -> C64 {
        C64::new(
            a.re.mul_add(p.re, -(a.im * p.im)),
            a.im.mul_add(p.re, a.re * p.im),
        )
    }

    /// The AVX2 arms' dense row: split accumulators from zero over the
    /// nonzero columns, combined by `addsub`.
    fn fma_row(row: &[C64], x: &[C64]) -> C64 {
        let (mut s, mut t) = (C64::ZERO, C64::ZERO);
        for (&c, &a) in row.iter().zip(x) {
            if c == C64::ZERO {
                continue;
            }
            s = C64::new(a.re.mul_add(c.re, s.re), a.im.mul_add(c.re, s.im));
            t = C64::new(a.im.mul_add(c.im, t.re), a.re.mul_add(c.im, t.im));
        }
        C64::new(s.re - t.re, s.im + t.im)
    }

    /// The scalar bodies' dense row: from zero over the nonzero columns.
    fn scalar_row(row: &[C64], x: &[C64]) -> C64 {
        let mut acc = C64::ZERO;
        for (&c, &a) in row.iter().zip(x) {
            if c != C64::ZERO {
                acc += c * a;
            }
        }
        acc
    }

    /// Digit of qudit `q` in basis index `idx`.
    fn digit(reg: &Register, idx: usize, q: usize) -> usize {
        (idx / reg.stride(q)) % reg.dim(q)
    }

    /// Offset of every operand configuration, last operand fastest.
    fn offsets(reg: &Register, operands: &[usize]) -> Vec<usize> {
        let mut offs = vec![0usize];
        for &q in operands {
            offs = offs
                .iter()
                .flat_map(|&o| (0..reg.dim(q)).map(move |d| o + d * reg.stride(q)))
                .collect();
        }
        offs
    }

    /// Base index of every configuration of the non-operand qudits.
    fn bases(reg: &Register, operands: &[usize]) -> Vec<usize> {
        (0..reg.total_dim())
            .filter(|&i| operands.iter().all(|&q| digit(reg, i, q) == 0))
            .collect()
    }

    /// Whether the sweep of `operands` takes a vector arm at `level`.
    fn vector_arm(reg: &Register, operands: &[usize], level: SimdLevel) -> bool {
        let inner = reg.n_qudits() - 1;
        level != SimdLevel::Scalar && !operands.contains(&inner) && reg.dim(inner).is_multiple_of(2)
    }

    /// The expected state after applying `u` through its classified
    /// kernel at `level`, one configuration at a time.
    fn reference(
        amps: &[C64],
        reg: &Register,
        u: &Matrix,
        operands: &[usize],
        level: SimdLevel,
    ) -> Vec<C64> {
        let mut out = amps.to_vec();
        let kernel = GateKernel::classify(u, operands.len());
        let offs = offsets(reg, operands);
        let block = offs.len();
        let vector = vector_arm(reg, operands, level);
        if let (GateKernel::Diagonal { phases }, [q]) = (&kernel, operands) {
            return diagonal_single(amps, reg, phases, *q, level);
        }
        for base in bases(reg, operands) {
            let x: Vec<C64> = offs.iter().map(|&o| amps[base + o]).collect();
            match &kernel {
                GateKernel::Identity => {}
                GateKernel::Diagonal { phases } => {
                    for (sub, &o) in offs.iter().enumerate() {
                        out[base + o] = if vector {
                            fma_cmul(x[sub], phases[sub])
                        } else {
                            x[sub] * phases[sub]
                        };
                    }
                }
                GateKernel::Permutation {
                    cycles,
                    phases,
                    perm,
                } => {
                    // Fixed points with a unit phase are not walked.
                    for cycle in cycles {
                        for &j in cycle {
                            out[base + offs[perm[j]]] = if vector {
                                fma_cmul(x[j], phases[j])
                            } else {
                                phases[j] * x[j]
                            };
                        }
                    }
                }
                _ => {
                    let m = u.as_slice();
                    for (row, &o) in m.chunks_exact(block).zip(&offs) {
                        out[base + o] = match (vector && block <= 64, &kernel, block) {
                            (true, ..) => fma_row(row, &x),
                            (false, GateKernel::SingleQudit, 2) => row[0] * x[0] + row[1] * x[1],
                            (false, GateKernel::SingleQudit, 4) => {
                                row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3]
                            }
                            _ => scalar_row(row, &x),
                        };
                    }
                }
            }
        }
        out
    }

    /// The single-qudit diagonal fast path: the scalar form and the
    /// strided vector form skip unit phases, the contiguous vector form
    /// multiplies whole periods of the phase pattern and finishes the
    /// tail scalar.
    fn diagonal_single(
        amps: &[C64],
        reg: &Register,
        phases: &[C64],
        q: usize,
        level: SimdLevel,
    ) -> Vec<C64> {
        let (stride, d) = (reg.stride(q), reg.dim(q));
        let pat = if d.is_multiple_of(2) { d } else { 2 * d };
        let level_of = |i: usize| (i / stride) % d;
        let mut out = amps.to_vec();
        if level == SimdLevel::Scalar || (stride == 1 && pat > 16) {
            for (i, a) in out.iter_mut().enumerate() {
                if phases[level_of(i)] != C64::ONE {
                    *a *= phases[level_of(i)];
                }
            }
        } else if stride == 1 {
            let whole = amps.len() / pat * pat;
            for (i, a) in out.iter_mut().enumerate() {
                let p = phases[i % d];
                *a = if i < whole { fma_cmul(*a, p) } else { *a * p };
            }
        } else {
            for (i, a) in out.iter_mut().enumerate() {
                let p = phases[level_of(i)];
                if p == C64::ONE {
                    continue;
                }
                // Lanes pair positions (0, 1), (2, 3), ... of each level
                // run; an odd run's last amplitude is finished scalar.
                let pos = i % stride;
                *a = if stride % 2 == 1 && pos == stride - 1 {
                    *a * p
                } else {
                    fma_cmul(*a, p)
                };
            }
        }
        out
    }

    /// `apply_pauli`'s per-amplitude cycle walk with a division per
    /// element, as the pass was first written.
    fn pauli_reference(amps: &[C64], reg: &Register, op: PauliOp, q: usize) -> Vec<C64> {
        let mut out = amps.to_vec();
        if op.is_identity() {
            return out;
        }
        let (d, a) = (op.d as usize, op.a as usize);
        let stride = reg.stride(q);
        let phases: Vec<C64> = (0..d).map(|j| op.act_on_basis(j).1).collect();
        for block in out.chunks_exact_mut(stride * reg.dim(q)) {
            for inner in 0..stride {
                if a == 0 {
                    for (j, &phase) in phases.iter().enumerate() {
                        block[inner + j * stride] = phase * block[inner + j * stride];
                    }
                    continue;
                }
                let g = (1..=d).rev().find(|g| a % g == 0 && d % g == 0).unwrap();
                let len = d / g;
                for start in 0..g {
                    let pos = |k: usize| inner + ((start + k * a) % d) * stride;
                    let last_col = (start + (len - 1) * a) % d;
                    let tmp = block[pos(len - 1)];
                    for k in (1..len).rev() {
                        let from_col = (start + (k - 1) * a) % d;
                        block[pos(k)] = phases[from_col] * block[pos(k - 1)];
                    }
                    block[pos(0)] = phases[last_col] * tmp;
                }
            }
        }
        out
    }

    fn random_c64(rng: &mut StdRng) -> C64 {
        C64::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0)
    }

    fn random_amps(n: usize, rng: &mut StdRng) -> Vec<C64> {
        (0..n).map(|_| random_c64(rng)).collect()
    }

    /// A random register of dims 2–4 on `n` qudits.
    fn random_register(n: usize, rng: &mut StdRng) -> Register {
        Register::new((0..n).map(|_| rng.gen_range(2..=4u8)).collect())
    }

    /// `k` distinct random operands; with `inner` set, the innermost or
    /// next-to-innermost qudit is among them.
    fn random_operands(reg: &Register, k: usize, inner: bool, rng: &mut StdRng) -> Vec<usize> {
        let n = reg.n_qudits();
        let mut ops: Vec<usize> = Vec::new();
        if inner {
            ops.push(n - 1 - rng.gen_range(0..2usize.min(n)));
        }
        while ops.len() < k {
            let q = rng.gen_range(0..n);
            if !ops.contains(&q) {
                ops.push(q);
            }
        }
        // Random operand order (the first operand is the most significant
        // digit of the matrix).
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.gen_range(0..=i));
        }
        ops
    }

    /// A random dense matrix (every entry nonzero) or, with `sparse`, one
    /// with a random structural-zero pattern that keeps it dense-classed.
    fn random_block(b: usize, sparse: bool, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::zeros(b, b);
        for r in 0..b {
            for c in 0..b {
                if !sparse || rng.gen::<f64>() < 0.4 || (r < 2 && c < 2) {
                    m[(r, c)] = random_c64(rng);
                }
            }
        }
        m
    }

    /// A random phased permutation; a third of its fixed points keep a
    /// non-unit phase.
    fn random_permutation(b: usize, rng: &mut StdRng) -> Matrix {
        let mut perm: Vec<usize> = (0..b).collect();
        for i in (1..b).rev() {
            if rng.gen::<f64>() < 0.6 {
                perm.swap(i, rng.gen_range(0..=i));
            }
        }
        let mut m = Matrix::zeros(b, b);
        for (j, &p) in perm.iter().enumerate() {
            m[(p, j)] = if rng.gen::<f64>() < 0.3 {
                C64::ONE
            } else {
                C64::cis(rng.gen::<f64>() * std::f64::consts::TAU)
            };
        }
        m
    }

    fn random_diagonal(b: usize, rng: &mut StdRng) -> Matrix {
        let phases: Vec<C64> = (0..b)
            .map(|_| {
                if rng.gen::<f64>() < 0.3 {
                    C64::ONE
                } else {
                    C64::cis(rng.gen::<f64>() * std::f64::consts::TAU)
                }
            })
            .collect();
        Matrix::from_diag(&phases)
    }

    /// Both SIMD levels this host can run: the detected one and scalar.
    fn workspaces() -> Vec<Workspace> {
        let mut scalar = Workspace::new();
        scalar.set_simd_level(SimdLevel::Scalar);
        vec![Workspace::new(), scalar]
    }

    fn assert_bits(got: &[C64], want: &[C64], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{what}: amplitude {i} is {g:?}, want {w:?}"
            );
        }
    }

    fn check(reg: &Register, u: &Matrix, operands: &[usize], ws: &mut Workspace, rng: &mut StdRng) {
        let mut state = State::from_amplitudes(reg, random_amps(reg.total_dim(), rng));
        let want = reference(state.amplitudes(), reg, u, operands, ws.simd_level());
        let kernel = GateKernel::classify(u, operands.len());
        state.apply_kernel(&kernel, u, operands, ws);
        let what = format!(
            "{} on {:?} of {:?} at {}",
            kernel.name(),
            operands,
            reg.dims(),
            ws.simd_level().name()
        );
        assert_bits(state.amplitudes(), &want, &what);
    }

    #[test]
    fn sweeps_match_per_configuration_references_to_the_bit() {
        let mut rng = StdRng::seed_from_u64(2303);
        for mut ws in workspaces() {
            for case in 0..240 {
                let n = rng.gen_range(2..=5usize);
                let mut reg = random_register(n, &mut rng);
                if case % 8 == 0 {
                    // A 3-level innermost qudit: no pairing, scalar body.
                    let mut dims = reg.dims().to_vec();
                    *dims.last_mut().unwrap() = 3;
                    reg = Register::new(dims);
                }
                let k = rng.gen_range(1..=3usize.min(n));
                let ops = random_operands(&reg, k, case % 3 == 0, &mut rng);
                let b: usize = ops.iter().map(|&q| reg.dim(q)).product();
                let u = match case % 4 {
                    0 => random_diagonal(b, &mut rng),
                    1 => random_permutation(b, &mut rng),
                    2 => random_block(b, false, &mut rng),
                    _ => random_block(b, true, &mut rng),
                };
                check(&reg, &u, &ops, &mut ws, &mut rng);
            }
        }
    }

    #[test]
    fn dense_blocks_from_2_to_64_match_to_the_bit() {
        // Every block size the specialized bodies cover, fully dense and
        // structurally sparse (including the embedded-qubit patterns
        // full-ququart compiles), with operands away from and at the
        // innermost positions.
        let mut rng = StdRng::seed_from_u64(4);
        let h = waltz_gates::standard::h();
        let embedded = [h.kron(&Matrix::identity(2)), Matrix::identity(2).kron(&h)];
        for mut ws in workspaces() {
            for dims in [
                vec![2u8; 7],
                vec![4; 4],
                vec![2, 4, 2, 4, 2],
                vec![4, 4, 4, 2],
            ] {
                let reg = Register::new(dims);
                let n = reg.n_qudits();
                let mut sets: Vec<Vec<usize>> = (0..n).map(|q| vec![q]).collect();
                sets.extend([
                    vec![0, 1],
                    vec![n - 2, 0],
                    vec![1, n - 1],
                    vec![0, 1, 2],
                    vec![3, 0, n - 1],
                ]);
                sets.push((0..n - 1).collect());
                for ops in sets {
                    let b: usize = ops.iter().map(|&q| reg.dim(q)).product();
                    let distinct = ops
                        .iter()
                        .all(|q| ops.iter().filter(|&p| p == q).count() == 1);
                    if b > 64 || !distinct {
                        continue;
                    }
                    for sparse in [false, true] {
                        let u = random_block(b, sparse, &mut rng);
                        check(&reg, &u, &ops, &mut ws, &mut rng);
                    }
                    if b == 4 {
                        for u in &embedded {
                            check(&reg, u, &ops, &mut ws, &mut rng);
                        }
                    }
                }
            }
        }
    }

    /// A phased permutation that is one cycle through all `b` states.
    fn one_cycle(b: usize, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::zeros(b, b);
        for j in 0..b {
            m[((j + 1) % b, j)] = C64::cis(rng.gen::<f64>() * std::f64::consts::TAU);
        }
        m
    }

    #[test]
    fn long_cycles_match_across_chunk_boundaries() {
        // Cycles of three or more elements walk a run in chunks of
        // configurations; runs of 72 and 144 configurations end in a
        // partial chunk, and a run of 2 is one lane.
        let mut rng = StdRng::seed_from_u64(7);
        for mut ws in workspaces() {
            for dims in [vec![4u8, 3, 3, 4, 2], vec![3, 4, 3, 4, 2, 2], vec![4, 3, 2]] {
                let reg = Register::new(dims);
                for ops in [vec![0], vec![1, 0], vec![0, 2]] {
                    let b: usize = ops.iter().map(|&q| reg.dim(q)).product();
                    let u = one_cycle(b, &mut rng);
                    check(&reg, &u, &ops, &mut ws, &mut rng);
                }
            }
        }
    }

    #[test]
    fn single_qudit_diagonal_fast_path_matches_to_the_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        for mut ws in workspaces() {
            for dims in [
                vec![2u8, 3, 4],
                vec![4, 2, 3],
                vec![3, 3, 2],
                vec![2, 2, 2, 2, 2],
            ] {
                let reg = Register::new(dims);
                for q in 0..reg.n_qudits() {
                    let u = random_diagonal(reg.dim(q), &mut rng);
                    check(&reg, &u, &[q], &mut ws, &mut rng);
                }
            }
        }
    }

    #[test]
    fn apply_pauli_matches_its_division_walk_to_the_bit() {
        let mut rng = StdRng::seed_from_u64(6);
        for dims in [vec![4u8, 2, 3], vec![2, 4, 4], vec![3, 2, 2, 4]] {
            let reg = Register::new(dims);
            for q in 0..reg.n_qudits() {
                for d in 2..=reg.dim(q) as u8 {
                    for a in 0..d {
                        for b in 0..d {
                            let op = PauliOp { a, b, d };
                            let amps = random_amps(reg.total_dim(), &mut rng);
                            let mut state = State::from_amplitudes(&reg, amps);
                            let want = pauli_reference(state.amplitudes(), &reg, op, q);
                            state.apply_pauli(op, q);
                            assert_bits(state.amplitudes(), &want, &format!("{op:?} on qudit {q}"));
                        }
                    }
                }
            }
        }
    }
}
