//! A reusable simulation session: one [`Workspace`] plus the state
//! buffers a run needs, owned together so repeated runs perform no
//! per-run heap allocation.
//!
//! A [`Session`] runs any [`Schedule`] serially — noiselessly
//! ([`Session::run_ideal`]) or as one noisy trajectory
//! ([`Session::run_trajectory`]) — for shot-by-shot workflows (sampling,
//! decoding, custom statistics). A split schedule rolls the state through
//! a second buffer at its reshapes; the session makes that buffer on the
//! first split run. Batch estimates go through
//! [`crate::trajectory::Estimator`], whose pool workers hold their own
//! buffers.

use rand::Rng;

use waltz_noise::NoiseModel;

use crate::kernel::Workspace;
use crate::trajectory::{self, Representation};
use crate::{ideal, AdaptiveState, Schedule, SparsePolicy, State};

/// An owned simulation workspace: scratch and output buffers reused across
/// runs, on dense states (`Session`, from [`Session::new`]) or
/// density-adaptive ones (`Session<AdaptiveState>`, from
/// [`Session::adaptive`]).
///
/// # Example
///
/// ```
/// use waltz_sim::{Register, Session, State, TimedCircuit};
///
/// let reg = Register::qubits(2);
/// let circuit = TimedCircuit::new(reg.clone());
/// let mut session = Session::new(&circuit);
/// let input = State::zero(&reg);
/// let out = session.run_ideal(&circuit, &input);
/// assert!((out.norm() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct Session<S = State> {
    ws: Workspace,
    out: S,
    scratch: Option<S>,
}

impl Session {
    /// A dense session with buffers sized to `schedule`'s peak segment.
    pub fn new<'a>(schedule: impl Into<Schedule<'a>>) -> Self {
        Session::with_workspace(schedule.into(), Workspace::new())
    }
}

impl Session<AdaptiveState> {
    /// A density-adaptive session whose workspace switches
    /// representation under `policy`.
    pub fn adaptive<'a>(schedule: impl Into<Schedule<'a>>, policy: &SparsePolicy) -> Self {
        Session::with_workspace(schedule.into(), policy.workspace())
    }
}

impl<S: Representation> Session<S> {
    fn with_workspace(schedule: Schedule, ws: Workspace) -> Self {
        Session {
            ws,
            out: schedule.buffer(),
            scratch: schedule.scratch(),
        }
    }

    /// The reusable kernel workspace (e.g. to pin its SIMD level via
    /// [`Workspace::set_simd_level`]).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Runs `schedule` noiselessly from `initial` (on its first register)
    /// into the session's output buffer and returns it (on the last
    /// register).
    ///
    /// # Panics
    ///
    /// Panics if the initial state's register differs from the
    /// schedule's first.
    pub fn run_ideal<'a>(&mut self, schedule: impl Into<Schedule<'a>>, initial: &S::Input) -> &S {
        let schedule = schedule.into();
        let scratch = scratch_for(&mut self.scratch, schedule);
        ideal::run_schedule(schedule, initial, &mut self.out, scratch, &mut self.ws);
        &self.out
    }

    /// Runs one noisy trajectory of `schedule` from `initial` into the
    /// session's output buffer and returns it, as
    /// [`trajectory::run_trajectory`] does.
    ///
    /// # Panics
    ///
    /// Panics if the initial state's register differs from the
    /// schedule's first.
    pub fn run_trajectory<'a, R: Rng + ?Sized>(
        &mut self,
        schedule: impl Into<Schedule<'a>>,
        initial: &S::Input,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> &S {
        let schedule = schedule.into();
        let scratch = scratch_for(&mut self.scratch, schedule);
        trajectory::run_own(
            schedule,
            initial,
            noise,
            rng,
            &mut self.out,
            scratch,
            &mut self.ws,
        );
        &self.out
    }

    /// The output of the most recent run.
    pub fn last(&self) -> &S {
        &self.out
    }
}

/// The scratch buffer a run of `schedule` rolls through, made on the
/// first split run; `None` for one segment.
fn scratch_for<'s, S: Representation>(
    scratch: &'s mut Option<S>,
    schedule: Schedule,
) -> Option<&'s mut S> {
    if schedule.is_split() {
        Some(scratch.get_or_insert_with(|| schedule.buffer()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Register, TimedCircuit, TimedOp};
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
        let mut session = Session::new(&tc);
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
        let mut session = Session::new(&tc);
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
