//! Windowed-register parity: the time-sliced occupancy analysis (one
//! register per ENC/DEC window, state reshaped in flight at the
//! boundaries) must simulate identically to the PR 4 whole-program
//! demotion — bit-identical noiselessly, statistically equivalent under
//! the trajectory noise model — and every reshape transition must
//! conserve norm without clipping a nonzero amplitude. Run as its own CI
//! step in release; the 4000-trajectory statistical test is ignored in
//! debug builds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use waltz_bench::runner;
use waltz_circuit::Circuit;
use waltz_circuits::{generalized_toffoli, qram};
use waltz_core::{CompileArtifact, CompileOptions, Compiler, Strategy, Target};
use waltz_math::C64;
use waltz_sim::trajectory::Estimator;
use waltz_sim::{ideal, Register, State, Workspace};

const TOL: f64 = 1e-12;

/// Compiles with windowed registers under the pure byte-seconds cost
/// model (`window_sweep_fixed = 0`, the PR 5 pricing this suite pins —
/// the default fixed term additionally merges marginal boundaries, see
/// `calibrated_sweep_cost_merges_marginal_splits`) and with the PR 4
/// whole-program demoted registers.
fn compile_both(circuit: &Circuit, strategy: Strategy) -> (CompileArtifact, CompileArtifact) {
    let windowed = Compiler::with_options(
        Target::paper(strategy),
        CompileOptions::default().with_window_sweep_fixed(0),
    )
    .compile(circuit)
    .expect("windowed compile");
    let whole = Compiler::with_options(
        Target::paper(strategy),
        CompileOptions::default().with_windowed_registers(false),
    )
    .compile(circuit)
    .expect("whole-program compile");
    (windowed, whole)
}

/// Asserts the whole-program final state equals the windowed one on the
/// last segment's register (index-mapped, amplitude by amplitude) and
/// carries no amplitude outside it. The windowed register is elementwise
/// bounded by the whole-program one, so iterating the larger register
/// covers both directions.
fn assert_final_states_match(whole: &CompileArtifact, out_whole: &State, out_win: &State) {
    let whole_reg = &whole.timed.register;
    let win_reg = out_win.register();
    let n = whole_reg.n_qudits();
    assert_eq!(n, win_reg.n_qudits());
    let mut digits = vec![0usize; n];
    for idx in 0..whole_reg.total_dim() {
        whole_reg.digits_into(idx, &mut digits);
        let inside = digits
            .iter()
            .enumerate()
            .all(|(q, &dig)| dig < win_reg.dim(q));
        let got = out_whole.amplitudes()[idx];
        if inside {
            let want = out_win.amplitudes()[win_reg.index_of(&digits)];
            assert!(
                got.approx_eq(want, TOL),
                "amplitude mismatch at whole-register index {idx}: {got:?} vs {want:?}"
            );
        } else {
            assert!(
                got.approx_eq(C64::ZERO, TOL),
                "whole-program state populated a level the windowed analysis clipped at {idx}"
            );
        }
    }
}

/// Noiseless windowed-vs-whole parity on one circuit/strategy pair, from
/// several random logical product inputs. Passes trivially (by running
/// both sides on the whole register) when the cost model decided a
/// single window is optimal.
fn check_noiseless_parity(circuit: &Circuit, strategy: Strategy, seed: u64) {
    let (windowed, whole) = compile_both(circuit, strategy);
    assert_eq!(
        windowed.initial_sites, whole.initial_sites,
        "placement must not depend on register windowing"
    );
    for trial in 0..3u64 {
        // Same seed → same logical Haar factors at the same sites; the
        // factory consumes the RNG identically on both registers.
        let mut rng_win = StdRng::seed_from_u64(seed ^ trial);
        let mut rng_whole = StdRng::seed_from_u64(seed ^ trial);
        let out_whole = {
            let mut init = State::zero(&whole.timed.register);
            whole.write_random_product_initial_state(&mut rng_whole, &mut init);
            ideal::run(whole.sim_schedule(), &init)
        };
        let out_win = {
            let schedule = windowed.sim_schedule();
            let mut init = State::zero(schedule.first_register());
            windowed.write_random_product_initial_state(&mut rng_win, &mut init);
            ideal::run(schedule, &init)
        };
        assert_final_states_match(&whole, &out_whole, &out_win);
    }
}

#[test]
fn cnu6q_windowed_vs_whole_noiseless_parity_at_1e12() {
    let circuit = generalized_toffoli(3); // 6 logical qubits
    for strategy in [
        Strategy::mixed_radix_ccz(),
        Strategy::mixed_radix_raw(),
        Strategy::mixed_radix_retarget(),
    ] {
        check_noiseless_parity(&circuit, strategy, 0xA11CE);
    }
}

#[test]
fn cnu6q_actually_windows_and_shrinks_the_peak() {
    let circuit = generalized_toffoli(3);
    let (windowed, whole) = compile_both(&circuit, Strategy::mixed_radix_ccz());
    let segments = &windowed.sim;
    assert!(
        segments.n_segments() > 1,
        "three disjoint ENC windows must be worth splitting"
    );
    assert_eq!(segments.reshape_count(), segments.n_segments() - 1);
    assert!(
        segments.peak_state_bytes() < whole.timed.register.state_bytes(),
        "windowed peak ({}) must undercut the whole-program register ({})",
        segments.peak_state_bytes(),
        whole.timed.register.state_bytes()
    );
    assert!(segments.validate().is_ok(), "{:?}", segments.validate());
    // The hardware schedule is untouched: same pulses, same EPS, same
    // wall clock.
    assert_eq!(windowed.stats.hw_ops, whole.stats.hw_ops);
    assert!((segments.gate_eps() - whole.timed.gate_eps()).abs() < TOL);
    assert_eq!(segments.total_duration_ns, whole.timed.total_duration_ns);
}

/// The acceptance workload: circuits with ≥ 2 disjoint ENC windows see a
/// peak-state win beyond PR 4, with the byte budget gating on the
/// max-over-segments size.
#[test]
fn disjoint_windows_beat_whole_program_demotion() {
    // A 2-CCZ ladder: two three-qubit gates on disjoint qubit triples.
    let mut ladder = Circuit::new(6);
    ladder.ccz(0, 1, 2).ccz(3, 4, 5);
    // And the CSWAP-heavy QRAM fetch (2 address bits, 7 qubits).
    for circuit in [ladder, qram(2)] {
        let (windowed, whole) = compile_both(&circuit, Strategy::mixed_radix_ccz());
        let segments = &windowed.sim;
        assert!(segments.n_segments() > 1, "disjoint ENC windows must split");
        assert!(
            segments.peak_state_bytes() < whole.timed.register.state_bytes(),
            "windowed peak {} !< whole-program {}",
            segments.peak_state_bytes(),
            whole.timed.register.state_bytes()
        );
        assert!(segments.mean_state_bytes() < whole.timed.register.state_bytes() as f64);
        assert!(runner::artifact_simulable(&windowed));
    }
}

/// The window cost model folds a fixed per-sweep term into boundary
/// pricing: a large term merges every marginal split back into the
/// whole-program register, zero restores pure byte pricing, and the
/// *default* (fusion's checked-in per-sweep constant, once measured by
/// a sweep-timing calibration — hence the name) must sit monotonically
/// between the two — never splitting more than pure byte pricing does.
#[test]
fn calibrated_sweep_cost_merges_marginal_splits() {
    let compile_fixed = |circuit: &Circuit, fixed: Option<usize>| {
        let mut options = CompileOptions::default();
        if let Some(fixed) = fixed {
            options = options.with_window_sweep_fixed(fixed);
        }
        Compiler::with_options(Target::paper(Strategy::mixed_radix_ccz()), options)
            .compile(circuit)
            .expect("compile")
    };
    let seg_count = |artifact: &CompileArtifact| artifact.sim.n_segments();

    let mut ladder = Circuit::new(6);
    ladder.ccz(0, 1, 2).ccz(3, 4, 5);
    for circuit in [ladder, generalized_toffoli(3)] {
        let free = compile_fixed(&circuit, Some(0));
        assert!(
            seg_count(&free) > 1,
            "pure byte pricing must split the disjoint ENC windows"
        );
        let taxed = compile_fixed(&circuit, Some(1 << 30));
        assert_eq!(
            seg_count(&taxed),
            1,
            "a prohibitive fixed term must merge every boundary"
        );
        let default = compile_fixed(&circuit, None);
        assert!(
            seg_count(&default) <= seg_count(&free),
            "the default term must only ever merge boundaries, not add them"
        );
        // Whatever the default term decides, the peak never exceeds the
        // whole-program register.
        assert!(default.sim_state_bytes_peak() <= default.timed.register.state_bytes());
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "4000-trajectory statistical pin; run in release (CI window_parity step)"
)]
fn cnu6q_windowed_noisy_parity_within_one_standard_error() {
    let circuit = generalized_toffoli(3);
    let noise = waltz_noise::NoiseModel::paper();
    let (windowed, whole) = compile_both(&circuit, Strategy::mixed_radix_ccz());
    let segments = &windowed.sim;
    assert!(segments.n_segments() > 1, "cnu-6q windows");
    let trajectories = 4000;
    let est_win = Estimator::new(segments, &noise)
        .with_input(|_, rng, out| windowed.write_random_product_initial_state(rng, out))
        .estimate(trajectories, 21);
    let est_whole = Estimator::new(whole.sim_schedule(), &noise)
        .with_input(|_, rng, out| whole.write_random_product_initial_state(rng, out))
        .estimate(trajectories, 22);
    let spread = est_win.std_error + est_whole.std_error;
    assert!(
        (est_win.mean - est_whole.mean).abs() <= spread,
        "windowed {} ± {} vs whole {} ± {} exceeds one combined standard error",
        est_win.mean,
        est_win.std_error,
        est_whole.mean,
        est_whole.std_error
    );
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

/// The digit-wise form of `State::reshape_into_lossy`, the reference for
/// its run copies: every amplitude decomposed into digits and re-indexed
/// on its own, clipped probability summed in ascending source order.
/// Returns the reshaped amplitudes and the clipped probability.
fn reshape_digitwise(src: &State, dst: &Register) -> (Vec<C64>, f64) {
    let reg = src.register();
    let mut out = vec![C64::ZERO; dst.total_dim()];
    let mut leaked = 0.0f64;
    for (idx, &amp) in src.amplitudes().iter().enumerate() {
        let digits = reg.digits_of(idx);
        if digits.iter().enumerate().all(|(q, &d)| d < dst.dim(q)) {
            out[dst.index_of(&digits)] = amp;
        } else {
            leaked += amp.norm_sqr();
        }
    }
    (out, leaked)
}

/// A register pair for a reshape: the same qudit count, dimensions 2-5
/// on each side. `mode` 0 only grows qudits, 1 only shrinks them, 2
/// draws each side independently (grow, shrink and keep mixed).
fn reshape_pair(seed: u64, n: usize, mode: usize) -> (Register, Register) {
    let mut rng = StdRng::seed_from_u64(seed);
    let src: Vec<u8> = (0..n).map(|_| rng.gen_range(2..=5u8)).collect();
    let dst: Vec<u8> = src
        .iter()
        .map(|&d| match mode {
            0 => rng.gen_range(d..=5),
            1 => rng.gen_range(2..=d),
            _ => rng.gen_range(2..=5),
        })
        .collect();
    (Register::new(src), Register::new(dst))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Noiseless windowed-vs-whole parity on random circuits.
    #[test]
    fn random_circuits_window_with_noiseless_parity(
        seed in 0u64..10_000,
        n in 4usize..=6,
        ops in 3usize..=8,
    ) {
        let circuit = random_logical_circuit(n, ops, seed);
        check_noiseless_parity(&circuit, Strategy::mixed_radix_ccz(), seed);
    }

    // Every reshape transition of a noiseless segmented run conserves
    // norm and never clips a nonzero amplitude (the strict
    // `State::reshape_into` panics on any clip above the leak tolerance,
    // so executing it IS the no-clip check).
    #[test]
    fn reshape_transitions_conserve_norm(
        seed in 0u64..10_000,
        n in 4usize..=6,
        ops in 4usize..=10,
    ) {
        let circuit = random_logical_circuit(n, ops, seed);
        let windowed = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
            .compile(&circuit)
            .expect("compile");
        let segments = &windowed.sim;
        if segments.n_segments() > 1 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = State::zero(segments.first_register());
            windowed.write_random_product_initial_state(&mut rng, &mut state);
            let mut ws = Workspace::serial();
            for (k, segment) in segments.segments.iter().enumerate() {
                if k > 0 {
                    let norm_before = state.norm();
                    let mut next = State::zero(&segment.register);
                    state.reshape_into(&mut next); // panics on any nonzero clip
                    state = next;
                    prop_assert!(
                        (state.norm() - norm_before).abs() < TOL,
                        "reshape into segment {k} changed the norm: {} -> {}",
                        norm_before,
                        state.norm()
                    );
                }
                for op in &segment.ops {
                    state.apply_op(op, &mut ws);
                }
            }
            prop_assert!((state.norm() - 1.0).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The run-copy reshape reproduces the digit-wise loop to the bit:
    // every output amplitude and the clipped probability.
    #[test]
    fn run_copy_reshape_matches_digitwise_reference(
        seed in 0u64..100_000,
        n in 1usize..=5,
        mode in 0usize..3,
    ) {
        let (src_reg, dst_reg) = reshape_pair(seed, n, mode);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let src = State::from_amplitudes(
            &src_reg,
            waltz_math::linalg::haar_state(src_reg.total_dim(), &mut rng),
        );
        let (want, want_leaked) = reshape_digitwise(&src, &dst_reg);
        // A stale buffer on the destination register: the reshape must
        // overwrite every amplitude.
        let mut out = State::from_amplitudes(
            &dst_reg,
            waltz_math::linalg::haar_state(dst_reg.total_dim(), &mut rng),
        );
        let leaked = src.reshape_into_lossy(&mut out);
        prop_assert_eq!(leaked.to_bits(), want_leaked.to_bits());
        for (idx, (got, want)) in out.amplitudes().iter().zip(&want).enumerate() {
            prop_assert!(
                got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                "amplitude {} differs ({:?} -> {:?}): {} vs {}",
                idx,
                src_reg.dims(),
                dst_reg.dims(),
                got,
                want
            );
        }
    }
}
