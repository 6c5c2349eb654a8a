//! A reusable simulation session: one [`Workspace`] plus an output state
//! buffer, owned together so repeated runs of the same circuit perform no
//! per-run heap allocation.
//!
//! Before this handle existed, callers threaded a `Workspace` and a
//! caller-owned output [`State`] through [`trajectory::run_trajectory_into`]
//! and [`ideal::run_into`] by hand; [`Session`] owns both and keeps the
//! borrow plumbing out of user code. The batched estimator
//! ([`trajectory::average_fidelity_with`]) still manages its own per-worker
//! buffers — a `Session` is the *serial* counterpart for shot-by-shot
//! workflows (sampling, decoding, custom statistics).

use rand::Rng;

use waltz_noise::NoiseModel;

use crate::kernel::Workspace;
use crate::{ideal, trajectory, SegmentedCircuit, State, TimedCircuit};

/// An owned simulation workspace: scratch and output buffers reused across
/// runs.
///
/// # Example
///
/// ```
/// use waltz_sim::{Register, Session, State, TimedCircuit};
///
/// let reg = Register::qubits(2);
/// let circuit = TimedCircuit::new(reg.clone());
/// let mut session = Session::new(&reg);
/// let input = State::zero(&reg);
/// let out = session.run_ideal(&circuit, &input);
/// assert!((out.norm() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct Session {
    ws: Workspace,
    out: State,
}

impl Session {
    /// A session over `register`.
    pub fn new(register: &crate::Register) -> Self {
        Session {
            ws: Workspace::new(),
            out: State::zero(register),
        }
    }

    /// The reusable kernel workspace (e.g. to pin its SIMD level via
    /// [`Workspace::set_simd_level`]).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Runs `circuit` noiselessly from `initial` into the session's output
    /// buffer and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the states' registers differ from the circuit's.
    pub fn run_ideal(&mut self, circuit: &TimedCircuit, initial: &State) -> &State {
        ideal::run_into(circuit, initial, &mut self.out, &mut self.ws);
        &self.out
    }

    /// Runs one noisy trajectory from `initial` into the session's output
    /// buffer and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the states' registers differ from the circuit's.
    pub fn run_trajectory<R: Rng + ?Sized>(
        &mut self,
        circuit: &TimedCircuit,
        initial: &State,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> &State {
        trajectory::run_trajectory_into(circuit, initial, noise, rng, &mut self.out, &mut self.ws);
        &self.out
    }

    /// The output of the most recent run.
    pub fn last(&self) -> &State {
        &self.out
    }
}

/// The windowed-register counterpart of [`Session`]: owns a
/// [`Workspace`] plus the **two rolling state buffers** a segmented run
/// needs ([`SegmentedCircuit::rolling_buffers`] — both peak-segment
/// sized), so repeated segmented runs (ideal or trajectory) perform no
/// per-run heap allocation regardless of the segment count.
#[derive(Debug)]
pub struct SegmentedSession {
    ws: Workspace,
    out: State,
    scratch: State,
}

impl SegmentedSession {
    /// A session sized to `circuit`'s peak segment.
    pub fn new(circuit: &SegmentedCircuit) -> Self {
        let (out, scratch) = circuit.rolling_buffers();
        SegmentedSession {
            ws: Workspace::new(),
            out,
            scratch,
        }
    }

    /// The reusable kernel workspace.
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Runs `circuit` noiselessly from `initial` (on the first segment's
    /// register) through every segment and returns the final state (on
    /// the last segment's register).
    ///
    /// # Panics
    ///
    /// Panics if the initial state's register differs from the first
    /// segment's.
    pub fn run_ideal(&mut self, circuit: &SegmentedCircuit, initial: &State) -> &State {
        ideal::run_segmented_into(
            circuit,
            initial,
            &mut self.out,
            &mut self.scratch,
            &mut self.ws,
        );
        &self.out
    }

    /// Runs one noisy trajectory from `initial` through every segment and
    /// returns the final state (on the last segment's register).
    ///
    /// # Panics
    ///
    /// Panics if the initial state's register differs from the first
    /// segment's.
    pub fn run_trajectory<R: Rng + ?Sized>(
        &mut self,
        circuit: &SegmentedCircuit,
        initial: &State,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> &State {
        trajectory::run_trajectory_segmented_into(
            circuit,
            initial,
            noise,
            rng,
            &mut self.out,
            &mut self.scratch,
            &mut self.ws,
        );
        &self.out
    }

    /// The final (last-segment) state of the most recent run.
    pub fn last(&self) -> &State {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Register, TimedOp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waltz_gates::standard;

    fn small_circuit() -> TimedCircuit {
        let reg = Register::qubits(2);
        let mut tc = TimedCircuit::new(reg);
        tc.ops.push(TimedOp::new(
            "h",
            standard::h(),
            vec![0],
            vec![2],
            0.0,
            35.0,
            0.99,
        ));
        tc.ops.push(TimedOp::new(
            "cx",
            standard::cx(),
            vec![0, 1],
            vec![2, 2],
            35.0,
            251.0,
            0.99,
        ));
        tc.total_duration_ns = 286.0;
        tc
    }

    #[test]
    fn session_matches_free_functions() {
        let tc = small_circuit();
        let mut rng = StdRng::seed_from_u64(5);
        let initial = State::random_qubit_product(&tc.register, &mut rng);
        let mut session = Session::new(&tc.register);
        let a = session.run_ideal(&tc, &initial).clone();
        let b = ideal::run(&tc, &initial);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);

        let noise = NoiseModel::paper();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let a = session
            .run_trajectory(&tc, &initial, &noise, &mut rng_a)
            .clone();
        let b = trajectory::run_trajectory(&tc, &initial, &noise, &mut rng_b);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        assert!((session.last().fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn session_reuses_buffers_across_runs() {
        let tc = small_circuit();
        let mut session = Session::new(&tc.register);
        let initial = State::zero(&tc.register);
        // The second run must fully overwrite the first.
        session.run_trajectory(
            &tc,
            &initial,
            &NoiseModel::paper(),
            &mut StdRng::seed_from_u64(1),
        );
        let fresh = session.run_ideal(&tc, &initial).clone();
        let reference = ideal::run(&tc, &initial);
        assert!((fresh.fidelity(&reference) - 1.0).abs() < 1e-12);
    }
}
