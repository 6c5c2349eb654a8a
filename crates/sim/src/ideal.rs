//! Noiseless execution of a [`Schedule`].
//!
//! Fused programs ([`TimedCircuit::fuse`]) run through the same entry
//! points: a fused block is an ordinary op with a pre-multiplied unitary
//! and a re-classified kernel, so the noiseless engine needs no special
//! handling — it simply performs one sweep per block instead of one per
//! pulse, which is where the fusion pass earns its keep. Every runner
//! here, [`crate::Session::run_ideal`] and the estimator's reference runs
//! share one loop.

use crate::kernel::{Coeffs, Workspace};
use crate::sparse::{AdaptiveState, SparseState};
use crate::trajectory::Representation;
use crate::{Schedule, SegmentedCircuit, State, TimedCircuit, RESHAPE_LEAK_TOL};

/// Runs `schedule` on `initial` (on its first register) with no noise,
/// returning the final state (on its last register).
///
/// # Panics
///
/// Panics if the initial state's register differs from the schedule's
/// first.
pub fn run<'a>(schedule: impl Into<Schedule<'a>>, initial: &State) -> State {
    let schedule = schedule.into();
    let mut out = schedule.buffer();
    let mut scratch = schedule.scratch();
    run_schedule(
        schedule,
        initial,
        &mut out,
        scratch.as_mut(),
        &mut Workspace::new(),
    );
    out
}

/// [`run`] of one circuit into a caller-owned output state (re-targeted
/// onto the circuit's register), borrowing gate scratch from `ws`. Kept
/// for the benchmark harness.
///
/// # Panics
///
/// Panics if the initial state's register differs from the circuit's.
pub fn run_into(circuit: &TimedCircuit, initial: &State, out: &mut State, ws: &mut Workspace) {
    run_schedule(circuit.into(), initial, out, None, ws);
}

/// [`run`] of a windowed schedule into two caller-owned rolling buffers
/// ([`SegmentedCircuit::rolling_buffers`]); the final state is left in
/// `out`. Kept for the benchmark harness.
///
/// # Panics
///
/// Panics if the initial state's register differs from the first
/// segment's.
pub fn run_segmented_into(
    circuit: &SegmentedCircuit,
    initial: &State,
    out: &mut State,
    scratch: &mut State,
    ws: &mut Workspace,
) {
    run_schedule(circuit.into(), initial, out, Some(scratch), ws);
}

/// [`run_segmented_into`] on density-adaptive rolling buffers; the
/// workspace's sparse knobs govern the representation switch. Kept for
/// the benchmark harness.
///
/// # Panics
///
/// Panics if the initial state's register differs from the first
/// segment's, or a reshape clips a nonzero amplitude.
pub fn run_segmented_adaptive_into(
    circuit: &SegmentedCircuit,
    initial: &SparseState,
    out: &mut AdaptiveState,
    scratch: &mut AdaptiveState,
    ws: &mut Workspace,
) {
    run_schedule(circuit.into(), initial, out, Some(scratch), ws);
}

/// The one noiseless loop: loads `initial` into `out` (re-targeted onto
/// the first register) and applies every op, rolling the state through
/// `scratch` at each segment boundary — re-target `scratch` onto the next
/// register, reshape into it, swap — so a run holds two buffers
/// regardless of the segment count. A reshape here must clip nothing
/// above [`RESHAPE_LEAK_TOL`]: the noiseless occupancy analysis proved
/// the clipped levels empty.
///
/// # Panics
///
/// Panics if the initial state's register differs from the first
/// segment's, a split schedule gets no scratch, or a reshape clips a
/// nonzero amplitude.
pub(crate) fn run_schedule<S: Representation>(
    schedule: Schedule,
    initial: &S::Input,
    out: &mut S,
    mut scratch: Option<&mut S>,
    ws: &mut Workspace,
) {
    out.load(initial, schedule.first_register(), ws);
    for (k, segment) in schedule.segments().iter().enumerate() {
        if k > 0 {
            let scratch = scratch
                .as_deref_mut()
                .expect("segmented runs roll two buffers");
            scratch.remap(&segment.register);
            let leaked = out.reshape_lossy(scratch, ws);
            assert!(
                leaked <= RESHAPE_LEAK_TOL * RESHAPE_LEAK_TOL,
                "reshape clipped a nonzero amplitude (probability {leaked:.3e}): \
                 the occupancy analysis must prove clipped levels unpopulated"
            );
            std::mem::swap(out, scratch);
        }
        for op in &segment.ops {
            out.apply_coeffs(Coeffs::of(&op.kernel, &op.unitary), &op.operands, ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Register, TimedOp};
    use waltz_gates::standard;

    #[test]
    fn ideal_run_produces_expected_state() {
        let reg = Register::qubits(2);
        let mut tc = TimedCircuit::new(reg.clone());
        tc.ops.push(TimedOp::new(
            "h",
            standard::h(),
            vec![0],
            vec![2],
            0.0,
            35.0,
            1.0,
        ));
        tc.ops.push(TimedOp::new(
            "cx",
            standard::cx(),
            vec![0, 1],
            vec![2, 2],
            35.0,
            251.0,
            1.0,
        ));
        tc.total_duration_ns = 286.0;
        let out = run(&tc, &State::zero(&reg));
        assert!((out.probability_of(0) - 0.5).abs() < 1e-12);
        assert!((out.probability_of(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fused_program_runs_with_fewer_sweeps_and_equal_output() {
        // A longer alternating schedule on (4, 2): fuse, check the op
        // count dropped, and pin the ideal outputs against each other.
        let reg = Register::new(vec![4, 2]);
        let mut tc = TimedCircuit::new(reg.clone());
        let ccz = waltz_gates::mixed::ccz();
        let mut t = 0.0;
        for i in 0..6 {
            let (label, u, ops, dims) = if i % 2 == 0 {
                ("ccz", ccz.clone(), vec![0, 1], vec![4u8, 2])
            } else {
                ("h", standard::h(), vec![1], vec![2u8])
            };
            tc.ops
                .push(TimedOp::new(label, u, ops, dims, t, 100.0, 1.0));
            t += 100.0;
        }
        tc.total_duration_ns = t;
        let fused = tc.fuse();
        assert!(fused.len() < tc.len());
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let initial = State::random_qubit_product(&reg, &mut rng);
        let a = run(&tc, &initial);
        let b = run(&fused, &initial);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_into_reuses_buffers_and_matches_run() {
        let reg = Register::new(vec![4, 2]);
        let mut tc = TimedCircuit::new(reg.clone());
        tc.ops.push(TimedOp::new(
            "ccz",
            waltz_gates::mixed::ccz(),
            vec![0, 1],
            vec![4, 2],
            0.0,
            100.0,
            1.0,
        ));
        tc.total_duration_ns = 100.0;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let initial = State::random_qubit_product(&reg, &mut rng);
        let fresh = run(&tc, &initial);
        let mut out = State::zero(&reg);
        let mut ws = Workspace::new();
        run_into(&tc, &initial, &mut out, &mut ws);
        // Run twice into the same buffer: stale contents must not leak.
        run_into(&tc, &initial, &mut out, &mut ws);
        assert!((fresh.fidelity(&out) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_into_retargets_an_output_on_another_register() {
        let reg = Register::new(vec![4, 2]);
        let mut tc = TimedCircuit::new(reg.clone());
        tc.ops.push(TimedOp::new(
            "ccz",
            waltz_gates::mixed::ccz(),
            vec![0, 1],
            vec![4, 2],
            0.0,
            100.0,
            1.0,
        ));
        tc.total_duration_ns = 100.0;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let initial = State::random_qubit_product(&reg, &mut rng);
        let mut out = State::zero(&Register::qubits(3));
        run_into(&tc, &initial, &mut out, &mut Workspace::new());
        assert_eq!(out.register(), &reg);
        assert!((run(&tc, &initial).fidelity(&out) - 1.0).abs() < 1e-12);
    }
}
