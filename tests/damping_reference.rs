//! The single-read damping step against its four-pass form.
//!
//! The reference below is the four-pass form of the step: a population
//! pass, the jump roll, a collapse or a no-jump scale of every excited
//! level, then a norm pass and a normalizing pass. The production step
//! reads the state once, scales only the excited levels and leaves
//! normalization to a factor; the public `State::damping_step` applies
//! that factor at once, the trajectory runners once per trajectory. Per
//! step, on random mixed-radix registers, both must take the same branch
//! and jump level, leave the RNG at the same position and agree on every
//! amplitude to 1e-12; whole noisy trajectories of compiled cnu-6q under
//! every strategy must agree the same way. The dense and sparse engines
//! must agree to the bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use waltz_circuits::generalized_toffoli;
use waltz_core::{CompileArtifact, CompileOptions, Compiler, Strategy, Target};
use waltz_math::{linalg, vector, Matrix, C64};
use waltz_noise::{pauli, CoherenceModel, NoiseModel};
use waltz_sim::{
    AdaptiveState, Register, SegmentedCircuit, Session, SimdLevel, SparsePolicy, SparseState,
    State, TimedCircuit, TimedOp, Workspace,
};

const TOL: f64 = 1e-12;

/// What one damping step did.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Branch {
    /// `dt <= 0` or every `λ_m == 0`: returned before drawing.
    Skipped,
    NoJump,
    /// Level `m` decayed to ground.
    Jump(usize),
}

/// The four-pass damping step, on raw amplitudes so that it takes
/// sub-unit and all-zero states as they are.
fn reference_step(
    amps: &mut [C64],
    reg: &Register,
    model: &CoherenceModel,
    qudit: usize,
    dt_ns: f64,
    rng: &mut StdRng,
) -> Branch {
    if dt_ns <= 0.0 {
        return Branch::Skipped;
    }
    let dim = reg.dim(qudit);
    let lambdas: Vec<f64> = (1..dim).map(|m| model.lambda(m, dt_ns)).collect();
    if lambdas.iter().all(|&l| l == 0.0) {
        return Branch::Skipped;
    }
    let stride = reg.stride(qudit);
    let span = stride * dim;
    let mut level_p = vec![0.0f64; dim];
    for block in amps.chunks_exact(span) {
        for (lvl, p) in level_p.iter_mut().enumerate() {
            *p += block[lvl * stride..(lvl + 1) * stride]
                .iter()
                .map(|a| a.norm_sqr())
                .sum::<f64>();
        }
    }
    let jump_p: Vec<f64> = (1..dim).map(|m| lambdas[m - 1] * level_p[m]).collect();
    let total_jump: f64 = jump_p.iter().sum();
    let roll: f64 = rng.gen();
    let branch = if roll < total_jump {
        let mut acc = 0.0;
        let mut level = 1;
        for (m, &p) in jump_p.iter().enumerate() {
            acc += p;
            if roll < acc {
                level = m + 1;
                break;
            }
        }
        for block in amps.chunks_exact_mut(span) {
            for inner in 0..stride {
                let survivor = block[inner + level * stride];
                for lvl in 0..dim {
                    block[inner + lvl * stride] = C64::ZERO;
                }
                block[inner] = survivor;
            }
        }
        Branch::Jump(level)
    } else {
        for block in amps.chunks_exact_mut(span) {
            for (m, &lambda) in lambdas.iter().enumerate() {
                let scale = (1.0 - lambda).sqrt();
                for a in &mut block[(m + 1) * stride..(m + 2) * stride] {
                    *a *= scale;
                }
            }
        }
        Branch::NoJump
    };
    vector::normalize(amps);
    branch
}

/// The drawn branch whose outcome `after` is, found by matching it
/// against every candidate outcome of `before` (the Kraus operator
/// applied, then normalized); `None` unless exactly one candidate
/// matches.
fn branch_of(
    before: &[C64],
    after: &[C64],
    reg: &Register,
    model: &CoherenceModel,
    qudit: usize,
    dt_ns: f64,
) -> Option<Branch> {
    let (dim, stride) = (reg.dim(qudit), reg.stride(qudit));
    let level = |idx: usize| reg.digit(idx, qudit);
    let no_jump: Vec<C64> = before
        .iter()
        .enumerate()
        .map(|(idx, &a)| a * (1.0 - model.lambda(level(idx), dt_ns)).sqrt())
        .collect();
    let mut candidates = vec![(Branch::NoJump, no_jump)];
    for m in 1..dim {
        let jumped: Vec<C64> = (0..before.len())
            .map(|idx| match level(idx) {
                0 => before[idx + m * stride],
                _ => C64::ZERO,
            })
            .collect();
        candidates.push((Branch::Jump(m), jumped));
    }
    let matching: Vec<Branch> = candidates
        .into_iter()
        .filter_map(|(branch, mut amps)| {
            vector::normalize(&mut amps);
            let close = amps.iter().zip(after).all(|(a, b)| a.approx_eq(*b, TOL));
            close.then_some(branch)
        })
        .collect();
    match matching[..] {
        [only] => Some(only),
        _ => None,
    }
}

/// Runs the production step and the reference from `input` on two
/// same-seed RNGs and checks the RNG position and every amplitude;
/// returns the reference branch and the production output.
fn step_both(input: &State, qudit: usize, dt_ns: f64, seed: u64) -> (Branch, State) {
    let model = CoherenceModel::paper();
    let reg = input.register().clone();
    let mut rng_new = StdRng::seed_from_u64(seed);
    let mut rng_ref = StdRng::seed_from_u64(seed);
    let mut got = input.clone();
    got.damping_step(&model, qudit, dt_ns, &mut rng_new);
    let mut want = input.amplitudes().to_vec();
    let branch = reference_step(&mut want, &reg, &model, qudit, dt_ns, &mut rng_ref);
    prop_assert_eq!(
        rng_new.gen::<u64>(),
        rng_ref.gen::<u64>(),
        "RNG position differs after {:?}",
        branch
    );
    for (idx, (a, b)) in got.amplitudes().iter().zip(&want).enumerate() {
        prop_assert!(
            a.approx_eq(*b, TOL),
            "amplitude {} differs after {:?} (dims {:?}, qudit {}, dt {}): {} vs {}",
            idx,
            branch,
            reg.dims(),
            qudit,
            dt_ns,
            a,
            b
        );
    }
    (branch, got)
}

/// A register of 1-4 qudits with dimensions drawn from 2-5.
fn random_register(rng: &mut StdRng) -> Register {
    let n = rng.gen_range(1..=4usize);
    Register::new((0..n).map(|_| rng.gen_range(2..=5u8)).collect())
}

/// A Haar-random state on `reg`; with `sub_unit`, the lossy reshape of a
/// Haar state on a register two levels taller at one qudit, so its norm
/// is below one as after a clipping segment boundary.
fn random_input(reg: &Register, sub_unit: bool, rng: &mut StdRng) -> State {
    if !sub_unit {
        return State::from_amplitudes(reg, linalg::haar_state(reg.total_dim(), rng));
    }
    let mut dims = reg.dims().to_vec();
    let tall = rng.gen_range(0..dims.len());
    dims[tall] += 2;
    let big = Register::new(dims);
    let src = State::from_amplitudes(&big, linalg::haar_state(big.total_dim(), rng));
    let mut out = State::zero(reg);
    let leaked = src.reshape_into_lossy(&mut out);
    assert!(leaked > 0.0 && out.norm() < 1.0);
    out
}

/// Idle and busy times of the paper's schedules, a long idle and one so
/// long that `λ_m == 1`, plus the zero-time early return.
const DTS: [f64; 6] = [0.0, 35.0, 251.0, 20_000.0, 1e6, 1e12];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Same branch and jump level, same RNG position, amplitudes within
    // 1e-12, on unit and sub-unit inputs.
    #[test]
    fn single_read_step_matches_four_pass_reference(
        seed in 0u64..1_000_000,
        dt in 0usize..6,
        sub_unit in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = random_register(&mut rng);
        let qudit = rng.gen_range(0..reg.n_qudits());
        let input = random_input(&reg, sub_unit == 1, &mut rng);
        let (branch, got) = step_both(&input, qudit, DTS[dt], seed);
        if branch == Branch::Skipped {
            prop_assert_eq!(&got, &input);
        } else {
            let found = branch_of(
                input.amplitudes(),
                got.amplitudes(),
                &reg,
                &CoherenceModel::paper(),
                qudit,
                DTS[dt],
            );
            prop_assert_eq!(found, Some(branch), "dims {:?}, qudit {}", reg.dims(), qudit);
        }
    }
}

/// Asserts the two engines hold the same bits on every nonzero amplitude.
/// An absent sparse entry reads +0.0 where the dense state may hold
/// -0.0, so zeros compare by value.
fn assert_same_bits(dense: &State, sparse: &SparseState, context: &str) {
    for (idx, a) in dense.amplitudes().iter().enumerate() {
        let b = sparse.amplitude(idx);
        let same_bits = a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits();
        assert!(
            same_bits || (*a == C64::ZERO && b == C64::ZERO),
            "{context}, amplitude {idx}: dense {:e}{:+e}i vs sparse {:e}{:+e}i",
            a.re,
            a.im,
            b.re,
            b.im
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The dense engine sums populations along three loop shapes (short
    // periods, lane quads, one amplitude at a time, by stride and
    // dimension); the sparse engine adds entry by entry. Both must give
    // the same bits on every nonzero amplitude at every qudit, with and
    // without absent (zero) amplitudes.
    #[test]
    fn dense_and_sparse_steps_agree_to_the_bit(
        seed in 0u64..1_000_000,
        dt in 1usize..6,
        input in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=5usize);
        let reg = Register::new((0..n).map(|_| rng.gen_range(2..=5u8)).collect());
        let start = match input {
            0 => random_input(&reg, false, &mut rng),
            1 => random_input(&reg, true, &mut rng),
            _ => State::random_qubit_product(&reg, &mut rng),
        };
        let model = CoherenceModel::paper();
        let mut ws = Workspace::new();
        for qudit in 0..n {
            let mut dense = start.clone();
            let mut sparse = SparseState::from_dense(&start, 0.0);
            let mut rng_dense = StdRng::seed_from_u64(seed ^ qudit as u64);
            let mut rng_sparse = StdRng::seed_from_u64(seed ^ qudit as u64);
            dense.damping_step_with(&model, qudit, DTS[dt], &mut rng_dense, &mut ws);
            sparse.damping_step_with(&model, qudit, DTS[dt], &mut rng_sparse, &mut ws);
            prop_assert_eq!(rng_dense.gen::<u64>(), rng_sparse.gen::<u64>());
            assert_same_bits(&dense, &sparse, &format!("dims {:?}, qudit {qudit}", reg.dims()));
        }
    }
}

#[test]
fn lambda_one_collapses_from_the_level_it_rolled() {
    // At dt = 1e12 ns every λ_m is exactly 1: the no-jump scale zeroes
    // the excited levels, so a step that scaled before rolling would
    // collapse from an erased level. Both branches must still match.
    let model = CoherenceModel::paper();
    assert!((1..5).all(|m| model.lambda(m, 1e12) == 1.0));
    let mut seen = Vec::new();
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = Register::new(vec![3, 5, 2]);
        let qudit = (seed % 3) as usize;
        let input = random_input(&reg, seed % 2 == 1, &mut rng);
        let (branch, got) = step_both(&input, qudit, 1e12, seed);
        assert!(
            (got.norm() - 1.0).abs() < 1e-12,
            "{branch:?} left norm {}",
            got.norm()
        );
        seen.push(branch);
    }
    assert!(seen.contains(&Branch::NoJump));
    assert!(seen.iter().any(|b| matches!(b, Branch::Jump(m) if *m >= 2)));
}

#[test]
fn tall_qudits_match_the_reference() {
    // Twelve and nine levels: more than the step keeps its per-level
    // tables for on the stack.
    let reg = Register::new(vec![12, 3, 9]);
    let mut ws = Workspace::new();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_input(&reg, seed % 2 == 1, &mut rng);
        let qudit = (seed % 3) as usize;
        let dt = DTS[1 + (seed as usize / 3) % 5];
        let (branch, got) = step_both(&input, qudit, dt, seed);
        let mut sparse = SparseState::from_dense(&input, 0.0);
        sparse.damping_step_with(
            &CoherenceModel::paper(),
            qudit,
            dt,
            &mut StdRng::seed_from_u64(seed),
            &mut ws,
        );
        assert_same_bits(&got, &sparse, &format!("{branch:?}, qudit {qudit}"));
    }
}

#[test]
fn zero_states_match_the_reference() {
    // The ground state can only take the no-jump branch; the all-zero
    // vector (everything clipped by a lossy reshape) stays zero with no
    // NaN from a zero-norm normalization.
    let reg = Register::new(vec![4, 3]);
    for (qudit, &dt) in [0usize, 1].iter().cycle().zip(&DTS) {
        let (branch, got) = step_both(&State::zero(&reg), *qudit, dt, 5);
        assert!(matches!(branch, Branch::NoJump | Branch::Skipped));
        assert_eq!(got, State::zero(&reg));
    }
    let mut top = vec![C64::ZERO; 8];
    top[7] = C64::ONE;
    let src = State::from_amplitudes(&Register::new(vec![4, 2]), top);
    let mut empty = State::zero(&Register::new(vec![2, 2]));
    assert_eq!(src.reshape_into_lossy(&mut empty), 1.0);
    for dt in DTS {
        let (_, got) = step_both(&empty, 0, dt, 9);
        assert!(got.amplitudes().iter().all(|a| *a == C64::ZERO));
    }
}

/// One damping step of the reference runner on a `State`.
fn reference_damp(
    state: &mut State,
    model: &CoherenceModel,
    qudit: usize,
    dt_ns: f64,
    rng: &mut StdRng,
    jumps: &mut usize,
) {
    let mut amps = state.amplitudes().to_vec();
    match reference_step(&mut amps, state.register(), model, qudit, dt_ns, rng) {
        Branch::Skipped => return,
        Branch::Jump(_) => *jumps += 1,
        Branch::NoJump => {}
    }
    // A ququart Pauli just before a window closes can move the whole
    // population onto clipped levels; the all-zero state the reshape
    // leaves stays zero (and `from_amplitudes` refuses it).
    if vector::norm(&amps) > 0.0 {
        *state = State::from_amplitudes(state.register(), amps);
    }
}

/// The per-op noise loop of the trajectory runner, with the four-pass
/// step normalizing after every damping event.
fn reference_ops(
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    rng: &mut StdRng,
    state: &mut State,
    free_at: &mut [f64],
    ws: &mut Workspace,
    jumps: &mut usize,
) {
    let model = &noise.coherence;
    let busy = noise.damping && noise.busy_time_damping;
    for op in &circuit.ops {
        match &op.noise_events {
            None => {
                if noise.damping {
                    for &q in &op.operands {
                        let idle = op.start_ns - free_at[q];
                        if idle > 0.0 {
                            reference_damp(state, model, q, idle, rng, jumps);
                        }
                    }
                }
                state.apply_op(op, ws);
                if busy {
                    for &q in &op.operands {
                        reference_damp(state, model, q, op.duration_ns, rng, jumps);
                    }
                }
                if noise.depolarizing && op.fidelity < 1.0 && rng.gen::<f64>() > op.fidelity {
                    let err = pauli::sample_error(&op.error_dims, rng);
                    for (p, &q) in err.iter().zip(&op.operands) {
                        state.apply_pauli(*p, q);
                    }
                }
                for &q in &op.operands {
                    free_at[q] = op.end_ns();
                }
            }
            Some(events) => {
                for ev in events {
                    for &q in &ev.operands {
                        let idle = ev.start_ns - free_at[q];
                        if noise.damping && idle > 0.0 {
                            reference_damp(state, model, q, idle, rng, jumps);
                        }
                        free_at[q] = ev.end_ns();
                    }
                }
                state.apply_op(op, ws);
                for ev in events {
                    if busy {
                        for &q in &ev.operands {
                            reference_damp(state, model, q, ev.duration_ns, rng, jumps);
                        }
                    }
                    if noise.depolarizing && ev.fidelity < 1.0 && rng.gen::<f64>() > ev.fidelity {
                        let err = pauli::sample_error(&ev.error_dims, rng);
                        for (p, &q) in err.iter().zip(&ev.operands) {
                            state.apply_pauli(*p, q);
                        }
                    }
                }
            }
        }
    }
}

/// The trailing idle damping of the reference runner.
fn reference_trailing(
    total_ns: f64,
    noise: &NoiseModel,
    rng: &mut StdRng,
    state: &mut State,
    free_at: &[f64],
    jumps: &mut usize,
) {
    if noise.damping {
        for (q, &t) in free_at.iter().enumerate() {
            let idle = total_ns - t;
            if idle > 0.0 {
                reference_damp(state, &noise.coherence, q, idle, rng, jumps);
            }
        }
    }
}

/// Asserts two final states agree amplitude by amplitude and the RNGs
/// that produced them are at the same position.
fn assert_same_trajectory(got: &State, want: &State, rng_new: &mut StdRng, rng_ref: &mut StdRng) {
    assert_eq!(got.register(), want.register());
    for (idx, (a, b)) in got.amplitudes().iter().zip(want.amplitudes()).enumerate() {
        assert!(a.approx_eq(*b, TOL), "amplitude {idx}: {a} vs {b}");
    }
    assert_eq!(rng_new.gen::<u64>(), rng_ref.gen::<u64>(), "RNG position");
}

/// The three strategies' whole-program cnu-6q compiles (windowing off):
/// each simulation schedule is one fused segment on `timed`'s register.
fn cnu6q_artifacts() -> Vec<CompileArtifact> {
    [
        Strategy::qubit_only(),
        Strategy::mixed_radix_ccz(),
        Strategy::full_ququart(),
    ]
    .into_iter()
    .map(|strategy| {
        Compiler::with_options(
            Target::paper(strategy),
            CompileOptions::default().with_windowed_registers(false),
        )
        .compile(&generalized_toffoli(3))
        .expect("compile cnu-6q")
    })
    .collect()
}

/// The one segment of a whole-program compile's simulation schedule.
fn whole_program(artifact: &CompileArtifact) -> &TimedCircuit {
    match artifact.sim.segments.as_slice() {
        [single] => single,
        _ => panic!("a whole-program compile has one segment"),
    }
}

#[test]
fn cnu6q_trajectories_match_the_reference_runner() {
    let noise = NoiseModel::paper();
    let mut jumps = 0usize;
    for artifact in cnu6q_artifacts() {
        let tc = whole_program(&artifact);
        let n = tc.register.n_qudits();
        let mut ws = Workspace::new();
        let mut session = Session::new(tc);
        for t in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(1000 + t);
            let mut initial = State::zero(&tc.register);
            artifact.write_random_product_initial_state(&mut rng, &mut initial);
            let mut rng_new = StdRng::seed_from_u64(t);
            let mut rng_ref = StdRng::seed_from_u64(t);
            let out = session.run_trajectory(tc, &initial, &noise, &mut rng_new);
            let mut want = initial.clone();
            let mut free_at = vec![0.0; n];
            reference_ops(
                tc,
                &noise,
                &mut rng_ref,
                &mut want,
                &mut free_at,
                &mut ws,
                &mut jumps,
            );
            reference_trailing(
                tc.total_duration_ns,
                &noise,
                &mut rng_ref,
                &mut want,
                &free_at,
                &mut jumps,
            );
            assert_same_trajectory(out, &want, &mut rng_new, &mut rng_ref);
        }
    }
    assert!(jumps > 0, "no trajectory took a jump branch");
}

#[test]
fn windowed_cnu6q_trajectories_match_the_reference_runner() {
    // The deferred factor rides across lossy reshapes: the reference
    // reshapes its normalized state, the production runner its unscaled
    // amplitudes.
    let noise = NoiseModel::paper();
    let artifact = windowed_cnu6q();
    let seg: &SegmentedCircuit = &artifact.sim;
    let n = seg.first_register().n_qudits();
    let mut ws = Workspace::new();
    let mut session = Session::new(seg);
    let mut jumps = 0usize;
    for t in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(2000 + t);
        let mut initial = State::zero(seg.first_register());
        artifact.write_random_product_initial_state(&mut rng, &mut initial);
        let mut rng_new = StdRng::seed_from_u64(t);
        let mut rng_ref = StdRng::seed_from_u64(t);
        let out = session.run_trajectory(seg, &initial, &noise, &mut rng_new);
        let mut want = initial.clone();
        let mut free_at = vec![0.0; n];
        for (k, segment) in seg.segments.iter().enumerate() {
            if k > 0 {
                let mut next = State::zero(&segment.register);
                want.reshape_into_lossy(&mut next);
                want = next;
            }
            reference_ops(
                segment,
                &noise,
                &mut rng_ref,
                &mut want,
                &mut free_at,
                &mut ws,
                &mut jumps,
            );
        }
        reference_trailing(
            seg.total_duration_ns,
            &noise,
            &mut rng_ref,
            &mut want,
            &free_at,
            &mut jumps,
        );
        assert_same_trajectory(out, &want, &mut rng_new, &mut rng_ref);
    }
    assert!(jumps > 0, "no trajectory took a jump branch");
}

// ---------------------------------------------------------------------
// The runners' lazy paths: most damping steps never read the state; a
// step reads only when its roll falls below the step's `λ_max`, applies
// the pending no-jump factors first, and weighs its jump probabilities
// by a reference norm that a leaking reshape leaves sub-unit.
// ---------------------------------------------------------------------

/// The paper's noise with T1 = 2 µs: 13–40% of a cnu-6q trajectory's
/// steps roll below their `λ_max` and take the read path (0.2–0.8% at
/// the paper's T1), and a trajectory jumps 3–5 times on average.
fn short_t1_noise() -> NoiseModel {
    let mut noise = NoiseModel::paper();
    noise.coherence = CoherenceModel::with_t1_ns(2_000.0);
    noise
}

#[test]
fn short_t1_cnu6q_trajectories_match_the_reference_runner() {
    let noise = short_t1_noise();
    let (mut runs, mut jumped) = (0usize, 0usize);
    for artifact in cnu6q_artifacts() {
        let tc = whole_program(&artifact);
        let n = tc.register.n_qudits();
        let mut ws = Workspace::new();
        let mut session = Session::new(tc);
        for t in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(3000 + t);
            let mut initial = State::zero(&tc.register);
            artifact.write_random_product_initial_state(&mut rng, &mut initial);
            let mut rng_new = StdRng::seed_from_u64(t);
            let mut rng_ref = StdRng::seed_from_u64(t);
            let out = session.run_trajectory(tc, &initial, &noise, &mut rng_new);
            let mut want = initial.clone();
            let mut free_at = vec![0.0; n];
            let mut jumps = 0usize;
            reference_ops(
                tc,
                &noise,
                &mut rng_ref,
                &mut want,
                &mut free_at,
                &mut ws,
                &mut jumps,
            );
            reference_trailing(
                tc.total_duration_ns,
                &noise,
                &mut rng_ref,
                &mut want,
                &free_at,
                &mut jumps,
            );
            assert_same_trajectory(out, &want, &mut rng_new, &mut rng_ref);
            runs += 1;
            jumped += usize::from(jumps > 0);
        }
    }
    assert!(
        2 * jumped > runs,
        "only {jumped} of {runs} trajectories jumped"
    );
}

/// The windowed mixed-radix cnu-6q compile.
fn windowed_cnu6q() -> CompileArtifact {
    let artifact = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
        .compile(&generalized_toffoli(3))
        .expect("compile cnu-6q");
    assert!(artifact.sim.n_segments() > 1, "mixed-radix cnu-6q windows");
    artifact
}

#[test]
fn windowed_runner_matches_the_reference_across_leaking_reshapes() {
    // A Pauli can leave population on levels the next window clips. The
    // reference reshapes its normalized state and lets the next step
    // weigh jump probabilities by the sub-unit norm; the runner reshapes
    // unnormalized amplitudes with pending factors applied and must
    // weigh them alike, through the norm it records at the reshape.
    let artifact = windowed_cnu6q();
    let seg = &artifact.sim;
    let n = seg.first_register().n_qudits();
    let mut ws = Workspace::new();
    let mut session = Session::new(seg);
    let mut leaks = 0usize;
    for noise in [short_t1_noise(), NoiseModel::paper()] {
        for t in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(4000 + t);
            let mut initial = State::zero(seg.first_register());
            artifact.write_random_product_initial_state(&mut rng, &mut initial);
            let mut rng_new = StdRng::seed_from_u64(t);
            let mut rng_ref = StdRng::seed_from_u64(t);
            let out = session.run_trajectory(seg, &initial, &noise, &mut rng_new);
            let mut want = initial.clone();
            let mut free_at = vec![0.0; n];
            let mut jumps = 0usize;
            for (k, segment) in seg.segments.iter().enumerate() {
                if k > 0 {
                    let mut next = State::zero(&segment.register);
                    if want.reshape_into_lossy(&mut next) > 0.0 {
                        leaks += 1;
                    }
                    want = next;
                }
                reference_ops(
                    segment,
                    &noise,
                    &mut rng_ref,
                    &mut want,
                    &mut free_at,
                    &mut ws,
                    &mut jumps,
                );
            }
            reference_trailing(
                seg.total_duration_ns,
                &noise,
                &mut rng_ref,
                &mut want,
                &free_at,
                &mut jumps,
            );
            assert_same_trajectory(out, &want, &mut rng_new, &mut rng_ref);
        }
    }
    assert!(leaks > 0, "no reshape clipped any population");
}

#[test]
fn leaked_population_weighs_the_next_read_by_the_surviving_norm() {
    // A 4-level device splits |0> over levels 1 and 2, and the next
    // window keeps two levels, so the reshape clips half the population.
    // The read after it must weigh level 1's jump by the surviving norm²
    // (about 1/2) rather than renormalize it away: at T1 = 2 µs, a 1 µs
    // idle makes the two weightings take different branches on about a
    // fifth of the rolls.
    let (o, l) = (C64::ZERO, C64::ONE);
    let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
    let split = Matrix::from_rows(&[
        vec![o, o, l, o],
        vec![h, h, o, o],
        vec![h, C64::real(-h.re), o, o],
        vec![o, o, o, l],
    ]);
    let mut first = TimedCircuit::new(Register::new(vec![4]));
    first.ops.push(TimedOp::new(
        "split",
        split,
        vec![0],
        vec![4],
        0.0,
        35.0,
        1.0,
    ));
    first.total_duration_ns = 35.0;
    let mut second = TimedCircuit::new(Register::new(vec![2]));
    let x = Matrix::permutation(&[1, 0]);
    second
        .ops
        .push(TimedOp::new("x", x, vec![0], vec![2], 1035.0, 35.0, 1.0));
    second.total_duration_ns = 1070.0;
    let seg = SegmentedCircuit::new(vec![first, second], 1570.0);
    let noise = short_t1_noise();
    let mut ws = Workspace::new();
    let mut session = Session::new(&seg);
    let initial = State::zero(seg.first_register());
    let mut leaks = 0usize;
    for t in 0..200u64 {
        let mut rng_new = StdRng::seed_from_u64(t);
        let mut rng_ref = StdRng::seed_from_u64(t);
        let out = session.run_trajectory(&seg, &initial, &noise, &mut rng_new);
        let mut want = initial.clone();
        let mut free_at = vec![0.0];
        let mut jumps = 0usize;
        for (k, segment) in seg.segments.iter().enumerate() {
            if k > 0 {
                let mut next = State::zero(&segment.register);
                if want.reshape_into_lossy(&mut next) > 0.0 {
                    leaks += 1;
                }
                want = next;
            }
            reference_ops(
                segment,
                &noise,
                &mut rng_ref,
                &mut want,
                &mut free_at,
                &mut ws,
                &mut jumps,
            );
        }
        reference_trailing(
            seg.total_duration_ns,
            &noise,
            &mut rng_ref,
            &mut want,
            &free_at,
            &mut jumps,
        );
        assert_same_trajectory(out, &want, &mut rng_new, &mut rng_ref);
    }
    assert!(
        leaks > 100,
        "only {leaks} of 200 reshapes clipped population"
    );
}

/// Asserts an adaptive final state holds the dense one's bits on every
/// nonzero amplitude, in whichever representation it ended.
fn assert_adaptive_bits(dense: &State, adaptive: &AdaptiveState, context: &str) {
    match (adaptive.as_dense(), adaptive.as_sparse()) {
        (Some(d), _) => {
            for (idx, (a, b)) in dense.amplitudes().iter().zip(d.amplitudes()).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "{context}, amplitude {idx}: {a} vs {b}"
                );
            }
        }
        (None, Some(sparse)) => assert_same_bits(dense, sparse, context),
        (None, None) => unreachable!("an adaptive state is dense or sparse"),
    }
}

/// A scalar-pinned workspace at a sparse density threshold: the sparse
/// arms mirror the scalar dense sweeps, so the bit comparison pins both
/// engines to the scalar bodies.
fn scalar_ws(threshold: f64) -> Workspace {
    let mut ws = Workspace::new();
    ws.set_simd_level(SimdLevel::Scalar);
    ws.set_sparse_density_threshold(threshold);
    ws
}

#[test]
fn short_t1_adaptive_runners_equal_the_dense_runners_to_the_bit() {
    let noise = short_t1_noise();
    for artifact in cnu6q_artifacts() {
        let tc = whole_program(&artifact);
        let mut dense = Session::new(tc);
        *dense.workspace_mut() = scalar_ws(0.0);
        let mut adaptive = Session::adaptive(tc, &SparsePolicy::default());
        for threshold in [0.25, 2.0] {
            *adaptive.workspace_mut() = scalar_ws(threshold);
            for t in 0..30u64 {
                let mut rng = StdRng::seed_from_u64(5000 + t);
                let mut initial = State::zero(&tc.register);
                artifact.write_random_product_initial_state(&mut rng, &mut initial);
                let sparse = SparseState::from_dense(&initial, 0.0);
                let mut rng_dense = StdRng::seed_from_u64(t);
                let mut rng_adaptive = StdRng::seed_from_u64(t);
                let dense = dense.run_trajectory(tc, &initial, &noise, &mut rng_dense);
                let adaptive = adaptive.run_trajectory(tc, &sparse, &noise, &mut rng_adaptive);
                let context = format!("{}, threshold {threshold}, t {t}", artifact.strategy.name());
                assert_adaptive_bits(dense, adaptive, &context);
                assert_eq!(
                    rng_dense.gen::<u64>(),
                    rng_adaptive.gen::<u64>(),
                    "{context}"
                );
            }
        }
    }

    let artifact = windowed_cnu6q();
    let seg = &artifact.sim;
    let mut dense = Session::new(seg);
    *dense.workspace_mut() = scalar_ws(0.0);
    let first = seg.first_register();
    let mut adaptive = Session::adaptive(seg, &SparsePolicy::default());
    for threshold in [0.25, 2.0] {
        *adaptive.workspace_mut() = scalar_ws(threshold);
        for t in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(6000 + t);
            let mut initial = State::zero(first);
            artifact.write_random_product_initial_state(&mut rng, &mut initial);
            let sparse = SparseState::from_dense(&initial, 0.0);
            let mut rng_dense = StdRng::seed_from_u64(t);
            let mut rng_adaptive = StdRng::seed_from_u64(t);
            let dense = dense.run_trajectory(seg, &initial, &noise, &mut rng_dense);
            let adaptive = adaptive.run_trajectory(seg, &sparse, &noise, &mut rng_adaptive);
            let context = format!("windowed, threshold {threshold}, t {t}");
            assert_adaptive_bits(dense, adaptive, &context);
            assert_eq!(
                rng_dense.gen::<u64>(),
                rng_adaptive.gen::<u64>(),
                "{context}"
            );
        }
    }
}

/// `Σ λ_m P_m` of the reference step's populations, and `λ_max`.
fn reference_jump_bound(
    amps: &[C64],
    reg: &Register,
    model: &CoherenceModel,
    qudit: usize,
    dt_ns: f64,
) -> (f64, f64) {
    let (dim, stride) = (reg.dim(qudit), reg.stride(qudit));
    let mut level_p = vec![0.0f64; dim];
    for block in amps.chunks_exact(stride * dim) {
        for (lvl, p) in level_p.iter_mut().enumerate() {
            *p += block[lvl * stride..(lvl + 1) * stride]
                .iter()
                .map(|a| a.norm_sqr())
                .sum::<f64>();
        }
    }
    let lambdas: Vec<f64> = (1..dim).map(|m| model.lambda(m, dt_ns)).collect();
    let total: f64 = lambdas.iter().zip(&level_p[1..]).map(|(l, p)| l * p).sum();
    (total, lambdas.iter().fold(0.0f64, |a, &b| a.max(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The runners skip the population read when the roll is at or above
    // `λ_max · (1 + 1e-9)`: sound only if no step's total jump
    // probability can exceed that bound, at any norm up to one.
    #[test]
    fn total_jump_probability_never_exceeds_the_skip_bound(
        seed in 0u64..1_000_000,
        log_dt in -3.0f64..12.0,
        sub_unit in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=3usize);
        let reg = Register::new((0..n).map(|_| rng.gen_range(2..=12u8)).collect());
        let input = random_input(&reg, sub_unit == 1, &mut rng);
        let dt = 10f64.powf(log_dt);
        for model in [CoherenceModel::paper(), CoherenceModel::with_t1_ns(2_000.0)] {
            for qudit in 0..n {
                let (total, lambda_max) =
                    reference_jump_bound(input.amplitudes(), &reg, &model, qudit, dt);
                prop_assert!(
                    total <= lambda_max * (1.0 + 1e-9),
                    "dims {:?}, qudit {}, dt {}: jump {} above bound {}",
                    reg.dims(), qudit, dt, total, lambda_max
                );
            }
        }
    }
}
