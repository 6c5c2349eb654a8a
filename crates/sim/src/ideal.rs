//! Noiseless execution of a [`TimedCircuit`].
//!
//! Fused programs ([`TimedCircuit::fuse`]) run through the same entry
//! points: a fused block is an ordinary op with a pre-multiplied unitary
//! and a re-classified kernel, so the noiseless engine needs no special
//! handling — it simply performs one sweep per block instead of one per
//! pulse, which is where the fusion pass earns its keep.

use crate::kernel::Workspace;
use crate::sparse::{AdaptiveState, SparseState};
use crate::{SegmentedCircuit, State, TimedCircuit, RESHAPE_LEAK_TOL};

/// Runs the circuit on `initial` with no noise, returning the final state.
///
/// # Panics
///
/// Panics if the initial state's register differs from the circuit's.
pub fn run(circuit: &TimedCircuit, initial: &State) -> State {
    let mut out = initial.clone();
    let mut ws = Workspace::new();
    run_into(circuit, initial, &mut out, &mut ws);
    out
}

/// [`run`] writing into a caller-owned output state and borrowing gate
/// scratch from `ws`, so repeated ideal runs (one per trajectory batch)
/// allocate nothing.
///
/// # Panics
///
/// Panics if either state's register differs from the circuit's.
pub fn run_into(circuit: &TimedCircuit, initial: &State, out: &mut State, ws: &mut Workspace) {
    assert_eq!(
        initial.register(),
        &circuit.register,
        "state register does not match circuit register"
    );
    out.copy_from(initial);
    for op in &circuit.ops {
        out.apply_op(op, ws);
    }
}

/// Runs a windowed-register schedule ([`SegmentedCircuit`]) noiselessly,
/// reshaping the state between segments, and returns the final state (on
/// the last segment's register). Convenience wrapper that allocates the
/// two rolling buffers; steady-state loops should use
/// [`run_segmented_into`] (or a [`crate::SegmentedSession`]) with reused
/// buffers.
///
/// # Panics
///
/// Panics if the initial state's register differs from the first
/// segment's.
pub fn run_segmented(circuit: &SegmentedCircuit, initial: &State) -> State {
    let (mut out, mut scratch) = circuit.rolling_buffers();
    let mut ws = Workspace::new();
    run_segmented_into(circuit, initial, &mut out, &mut scratch, &mut ws);
    out
}

/// [`run_segmented`] rolling **two** caller-owned state buffers across
/// the segments: at each boundary `scratch` is re-targeted onto the next
/// segment's register ([`State::remap`] — capacity is reused once both
/// buffers have reached the peak segment size), the state reshaped into
/// it, and the buffers swapped, so the live allocation is two peak-sized
/// buffers regardless of the segment count. The final state is left in
/// `out` (on the last segment's register).
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
    assert_eq!(
        initial.register(),
        circuit.first_register(),
        "state register does not match the first segment"
    );
    out.remap(circuit.first_register());
    out.copy_from(initial);
    for (k, segment) in circuit.segments.iter().enumerate() {
        if k > 0 {
            scratch.remap(&segment.register);
            out.reshape_into(scratch);
            std::mem::swap(out, scratch);
        }
        for op in &segment.ops {
            out.apply_op(op, ws);
        }
    }
}

/// [`run_into`] on a density-adaptive state: starts from a sparse
/// initial state, applies every op through the representation-switching
/// [`AdaptiveState::apply_op`], and leaves the final state (in whichever
/// representation it ended up) in `out`. The workspace's
/// [`Workspace::sparse_density_threshold`] / `sparse_epsilon` knobs
/// govern the switching.
///
/// # Panics
///
/// Panics if the initial state's register differs from the circuit's.
pub fn run_adaptive_into(
    circuit: &TimedCircuit,
    initial: &SparseState,
    out: &mut AdaptiveState,
    ws: &mut Workspace,
) {
    assert_eq!(
        initial.register(),
        &circuit.register,
        "state register does not match circuit register"
    );
    out.reset_from_sparse(initial, ws);
    for op in &circuit.ops {
        out.apply_op(op, ws);
    }
}

/// [`run_segmented_into`] on density-adaptive rolling buffers: between
/// segments the state is reshaped through
/// [`AdaptiveState::reshape_into_lossy`] — which is also where a dense
/// state may drop back to sparse — and, as in the strict dense reshape,
/// a clipped amplitude above [`RESHAPE_LEAK_TOL`] panics (noiseless
/// occupancy analysis must prove clipped levels unpopulated).
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
    assert_eq!(
        initial.register(),
        circuit.first_register(),
        "state register does not match the first segment"
    );
    out.reset_from_sparse(initial, ws);
    for (k, segment) in circuit.segments.iter().enumerate() {
        if k > 0 {
            scratch.remap(&segment.register);
            let leaked = out.reshape_into_lossy(scratch, ws);
            assert!(
                leaked <= RESHAPE_LEAK_TOL * RESHAPE_LEAK_TOL,
                "reshape clipped a nonzero amplitude (probability {leaked:.3e}): \
                 the occupancy analysis must prove clipped levels unpopulated"
            );
            std::mem::swap(out, scratch);
        }
        for op in &segment.ops {
            out.apply_op(op, ws);
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
}
