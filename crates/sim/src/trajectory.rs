//! The paper's modified trajectory method (§6.4–§6.5).
//!
//! Standard trajectory simulation inserts idle error gates at every time
//! step; the paper instead damps each operand **once per gate, for the
//! exact time it has been idle**, which better captures which level the
//! qudit decoheres from. After each gate a generalized-Pauli error is
//! drawn with probability `1 - F_gate` over the gate's calibrated error
//! dimensions (mixed-radix gates draw from `P_2 (x) P_4`, §6.5).
//!
//! # Cost of a damping step
//!
//! Which qudit each damping step damps, and for how long, depends only
//! on the schedule; its `λ_m`, `√(1−λ_m)` and `λ_max` depend on that and
//! the noise model. An estimate compiles them once into step tables, in
//! the order the runner calls them, and its pool workers share them.
//! Single-trajectory entry points build them per call into the
//! workspace. The builder and the runner walk the schedule through the
//! same code, and the runner checks each call's qudit against its entry.
//!
//! A step then draws its uniform first. The normalized jump probability
//! is `Σ λ_m P_m ≤ λ_max`, so a roll at or above `λ_max · (1 + 1e-9)`
//! cannot jump: the step multiplies the qudit's pending per-level
//! factors by `√(1−λ_m)` and touches no amplitude. At the paper's T1
//! that is 98.6–99.8% of the steps of cnu-6q to cnu-12q trajectories.
//! Only a smaller roll applies every pending factor, reads the
//! populations once and takes the branch a normalizing step would: a
//! collapse on a jump, the no-jump factors pended again otherwise.
//!
//! A qudit's pending factors are applied in one pass when an op or a
//! Pauli touches it, before a reshape or a population read, and at the
//! trajectory end: 0.22–0.24 passes per drawn step for qubit-only
//! schedules, 0.62–0.75 for mixed-radix and full-ququart. Gates on
//! other qudits commute with them. The stored amplitudes are never
//! normalized inside a trajectory: a read weighs jump probabilities by
//! the stored norm, and the end divides by it once. A lossy reshape
//! keeps the rule that the next drawn step weighs them by the sub-unit
//! norm that survived: the reshape records the norm² before the clip as
//! the reference. The RNG stream, the early returns (`dt <= 0`, every
//! `λ_m == 0`) and every branch are those of a step that reads and
//! normalizes each time, and the dense and sparse engines do identical
//! arithmetic.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use waltz_noise::{pauli, NoiseModel, PauliOp};

use crate::damping::{DampingTarget, StepTables};
use crate::kernel::Workspace;
use crate::pool::TrajectoryPool;
use crate::sparse::{AdaptiveState, SparsePolicy, SparseState};
use crate::{ideal, Register, SegmentedCircuit, State, TimedCircuit, TimedOp};

/// Panic message of a runner whose initial state is on another register
/// than the schedule's first segment.
const REGISTER_MISMATCH: &str = "state register does not match circuit register";

/// The state-representation interface the shared per-op noise loop runs
/// against. Dense [`State`] and the density-adaptive
/// [`AdaptiveState`] both implement it, so the noise accounting — idle
/// and busy damping windows, depolarizing draws, the order of every RNG
/// consumption, the pending damping factors — is *the same code* for
/// both representations, which is what makes adaptive estimates
/// bit-compatible with dense ones for a fixed seed.
pub(crate) trait NoisyTarget: DampingTarget {
    /// The initial-state type a trajectory in this representation starts
    /// from.
    type Input;
    /// Overwrites this buffer with `input`, re-targeted onto `register`.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s register differs from `register`.
    fn load(&mut self, input: &Self::Input, register: &Register, ws: &mut Workspace);
    fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace);
    fn apply_pauli(&mut self, op: PauliOp, qudit: usize);
    /// Re-targets the buffer onto `register` (contents unspecified).
    fn remap(&mut self, register: &Register);
    /// Reshapes onto `out`'s register, returning the clipped probability.
    fn reshape_lossy(&self, out: &mut Self, ws: &mut Workspace) -> f64;
    #[cfg(feature = "fault-inject")]
    fn fault_tick(&mut self);
}

impl NoisyTarget for State {
    type Input = State;
    fn load(&mut self, input: &State, register: &Register, _ws: &mut Workspace) {
        assert_eq!(input.register(), register, "{REGISTER_MISMATCH}");
        State::remap(self, register);
        self.copy_from(input);
    }
    fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace) {
        State::apply_op(self, op, ws);
    }
    fn apply_pauli(&mut self, op: PauliOp, qudit: usize) {
        State::apply_pauli(self, op, qudit);
    }
    fn remap(&mut self, register: &Register) {
        State::remap(self, register);
    }
    fn reshape_lossy(&self, out: &mut Self, _ws: &mut Workspace) -> f64 {
        self.reshape_into_lossy(out)
    }
    #[cfg(feature = "fault-inject")]
    fn fault_tick(&mut self) {
        crate::fault::tick_op(self);
    }
}

impl NoisyTarget for AdaptiveState {
    type Input = SparseState;
    fn load(&mut self, input: &SparseState, register: &Register, ws: &mut Workspace) {
        assert_eq!(input.register(), register, "{REGISTER_MISMATCH}");
        self.reset_from_sparse(input, ws);
    }
    fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace) {
        AdaptiveState::apply_op(self, op, ws);
    }
    fn apply_pauli(&mut self, op: PauliOp, qudit: usize) {
        AdaptiveState::apply_pauli(self, op, qudit);
    }
    fn remap(&mut self, register: &Register) {
        AdaptiveState::remap(self, register);
    }
    fn reshape_lossy(&self, out: &mut Self, ws: &mut Workspace) -> f64 {
        self.reshape_into_lossy(out, ws)
    }
    #[cfg(feature = "fault-inject")]
    fn fault_tick(&mut self) {
        crate::fault::tick_op_with(|| self.poison_first_amplitude());
    }
}

/// The noise calls of one trajectory, in the order the runner makes
/// them. The step-table builder and the runner both go through
/// [`walk_segment`] and [`walk_trailing`].
trait NoiseCalls {
    /// Damps `qudit` for `dt_ns`.
    fn damp(&mut self, qudit: usize, dt_ns: f64);
    /// Applies `op`'s unitary.
    fn apply(&mut self, op: &TimedOp);
    /// Draws a Pauli error on `operands` with probability `1 - fidelity`
    /// (called only when noise is on and `fidelity < 1`).
    fn depolarize(&mut self, fidelity: f64, error_dims: &[u8], operands: &[usize]);
}

/// The per-op noise walk of one segment: damps exact idle time, applies
/// each op, replays fused-block noise events and draws depolarizing
/// errors, continuing from (and updating) the per-device busy times
/// `free_at`, which the caller owns across segments.
fn walk_segment(
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    free_at: &mut [f64],
    calls: &mut impl NoiseCalls,
) {
    let busy = noise.damping && noise.busy_time_damping;
    for op in &circuit.ops {
        match &op.noise_events {
            None => {
                // Exact-idle-time damping on each operand (§6.4).
                if noise.damping {
                    for &q in &op.operands {
                        let idle = op.start_ns - free_at[q];
                        if idle > 0.0 {
                            calls.damp(q, idle);
                        }
                    }
                }
                calls.apply(op);
                // Busy-time damping: decoherence during the pulse itself.
                if busy {
                    for &q in &op.operands {
                        calls.damp(q, op.duration_ns);
                    }
                }
                // Depolarizing draw with probability 1 - F (§6.5).
                if noise.depolarizing && op.fidelity < 1.0 {
                    calls.depolarize(op.fidelity, &op.error_dims, &op.operands);
                }
                for &q in &op.operands {
                    free_at[q] = op.end_ns();
                }
            }
            Some(events) => {
                // A fused block: the unitary is applied once, but idle
                // damping, busy damping and depolarizing draws replay per
                // constituent pulse so each device still accumulates its
                // exact idle/busy time and each pulse keeps its calibrated
                // error channel. Only the interleaving of noise with the
                // block's interior unitaries is approximated.
                for ev in events {
                    for &q in &ev.operands {
                        let idle = ev.start_ns - free_at[q];
                        if noise.damping && idle > 0.0 {
                            calls.damp(q, idle);
                        }
                        free_at[q] = ev.end_ns();
                    }
                }
                calls.apply(op);
                for ev in events {
                    if busy {
                        for &q in &ev.operands {
                            calls.damp(q, ev.duration_ns);
                        }
                    }
                    if noise.depolarizing && ev.fidelity < 1.0 {
                        calls.depolarize(ev.fidelity, &ev.error_dims, &ev.operands);
                    }
                }
            }
        }
    }
}

/// Damps each device's trailing idle time up to the program's
/// wall-clock end `total_ns`.
fn walk_trailing(total_ns: f64, noise: &NoiseModel, free_at: &[f64], calls: &mut impl NoiseCalls) {
    if noise.damping {
        for (q, &t) in free_at.iter().enumerate() {
            let idle = total_ns - t;
            if idle > 0.0 {
                calls.damp(q, idle);
            }
        }
    }
}

/// Records each damping call into step tables.
struct TableBuilder<'a> {
    steps: &'a mut StepTables,
    noise: &'a NoiseModel,
    register: &'a Register,
}

impl NoiseCalls for TableBuilder<'_> {
    fn damp(&mut self, qudit: usize, dt_ns: f64) {
        let dim = self.register.dim(qudit);
        self.steps.push(&self.noise.coherence, qudit, dim, dt_ns);
    }
    fn apply(&mut self, _op: &TimedOp) {}
    fn depolarize(&mut self, _fidelity: f64, _error_dims: &[u8], _operands: &[usize]) {}
}

/// The segments a trajectory runs through (one for an unsplit schedule)
/// and its wall-clock end.
#[derive(Clone, Copy)]
struct Schedule<'a> {
    segments: &'a [TimedCircuit],
    total_ns: f64,
}

impl<'a> Schedule<'a> {
    fn whole(circuit: &'a TimedCircuit) -> Self {
        Schedule {
            segments: std::slice::from_ref(circuit),
            total_ns: circuit.total_duration_ns,
        }
    }

    fn segmented(circuit: &'a SegmentedCircuit) -> Self {
        Schedule {
            segments: &circuit.segments,
            total_ns: circuit.total_duration_ns,
        }
    }
}

impl StepTables {
    /// The step tables of a trajectory through `schedule`.
    fn of(schedule: Schedule, noise: &NoiseModel) -> Self {
        let mut steps = StepTables::default();
        steps.build(schedule, noise, &mut Vec::new());
        steps
    }

    /// [`StepTables::of`] into this storage; `free_at` is scratch.
    fn build(&mut self, schedule: Schedule, noise: &NoiseModel, free_at: &mut Vec<f64>) {
        self.clear();
        free_at.clear();
        free_at.resize(schedule.segments[0].register.n_qudits(), 0.0);
        let mut builder = TableBuilder {
            steps: self,
            noise,
            register: &schedule.segments[0].register,
        };
        for segment in schedule.segments {
            builder.register = &segment.register;
            walk_segment(segment, noise, free_at, &mut builder);
        }
        walk_trailing(schedule.total_ns, noise, free_at, &mut builder);
    }
}

/// Runs the noise calls of one trajectory against a state.
struct Runner<'a, S, R: ?Sized> {
    state: &'a mut S,
    rng: &'a mut R,
    ws: &'a mut Workspace,
    steps: &'a StepTables,
    /// Index of the next damping call in `steps`.
    next: usize,
}

impl<S: NoisyTarget, R: Rng + ?Sized> NoiseCalls for Runner<'_, S, R> {
    fn damp(&mut self, qudit: usize, _dt_ns: f64) {
        let k = self.next;
        self.steps
            .run(k, qudit, self.state, &mut self.ws.pending, self.rng);
        self.next += 1;
    }

    fn apply(&mut self, op: &TimedOp) {
        for &q in &op.operands {
            self.ws.pending.flush(q, self.state);
        }
        self.state.apply_op(op, self.ws);
        #[cfg(feature = "fault-inject")]
        self.state.fault_tick();
    }

    fn depolarize(&mut self, fidelity: f64, error_dims: &[u8], operands: &[usize]) {
        if self.rng.gen::<f64>() > fidelity {
            let err = pauli::sample_error(error_dims, self.rng);
            for (p, &q) in err.iter().zip(operands) {
                if !p.is_identity() {
                    self.ws.pending.flush(q, self.state);
                    self.state.apply_pauli(*p, q);
                }
            }
        }
    }
}

impl<S: NoisyTarget, R: Rng + ?Sized> Runner<'_, S, R> {
    /// Moves the state onto the next segment's `register` through
    /// `scratch`, with every pending factor applied first.
    fn reshape(&mut self, register: &Register, scratch: &mut S) {
        self.ws.pending.flush_all(self.state);
        // Lossy: an error draw may have populated levels the noiseless
        // occupancy analysis proved empty. The reshape drops them and
        // leaves a sub-unit norm (see `State::reshape_into_lossy`).
        scratch.remap(register);
        let leaked = self.state.reshape_lossy(scratch, self.ws);
        self.ws.pending.reshaped(leaked, self.state);
        std::mem::swap(self.state, scratch);
        self.ws.pending.layout(register.dims());
    }
}

/// The one trajectory runner: runs `schedule` from `initial` into `out`
/// (with a reshape at each segment boundary, through `scratch`),
/// damping through `steps`, which must be
/// [`StepTables::of`]`(schedule, noise)`.
#[allow(clippy::too_many_arguments)]
fn run_noisy<S: NoisyTarget, R: Rng + ?Sized>(
    schedule: Schedule,
    steps: &StepTables,
    initial: &S::Input,
    noise: &NoiseModel,
    rng: &mut R,
    out: &mut S,
    mut scratch: Option<&mut S>,
    ws: &mut Workspace,
) {
    let first = &schedule.segments[0].register;
    out.load(initial, first, ws);
    ws.begin_trajectory(first);
    let mut free_at = std::mem::take(&mut ws.free_at);
    let mut runner = Runner {
        state: out,
        rng,
        ws,
        steps,
        next: 0,
    };
    for (k, segment) in schedule.segments.iter().enumerate() {
        if k > 0 {
            let scratch = scratch
                .as_deref_mut()
                .expect("segmented runs roll two buffers");
            runner.reshape(&segment.register, scratch);
        }
        walk_segment(segment, noise, &mut free_at, &mut runner);
    }
    walk_trailing(schedule.total_ns, noise, &free_at, &mut runner);
    assert_eq!(
        runner.next,
        steps.len(),
        "damping calls differ from the step tables"
    );
    runner.ws.pending.finish(runner.state);
    runner.ws.free_at = free_at;
}

/// [`run_noisy`] with step tables built into `ws`'s own storage — how
/// the single-trajectory entry points get theirs.
fn run_own<S: NoisyTarget, R: Rng + ?Sized>(
    schedule: Schedule,
    initial: &S::Input,
    noise: &NoiseModel,
    rng: &mut R,
    out: &mut S,
    scratch: Option<&mut S>,
    ws: &mut Workspace,
) {
    let mut steps = std::mem::take(&mut ws.steps);
    steps.build(schedule, noise, &mut ws.free_at);
    run_noisy(schedule, &steps, initial, noise, rng, out, scratch, ws);
    ws.steps = steps;
}

/// Runs one noisy trajectory, returning the final (normalized) state.
///
/// # Panics
///
/// Panics if the initial state's register differs from the circuit's.
pub fn run_trajectory<R: Rng + ?Sized>(
    circuit: &TimedCircuit,
    initial: &State,
    noise: &NoiseModel,
    rng: &mut R,
) -> State {
    let mut out = initial.clone();
    let mut ws = Workspace::new();
    run_trajectory_into(circuit, initial, noise, rng, &mut out, &mut ws);
    out
}

/// [`run_trajectory`] writing into a caller-owned output state. All gate
/// application goes through the ops' precomputed
/// [`crate::GateKernel`]s with
/// scratch borrowed from `ws`, so steady-state trajectory batches perform
/// no per-gate heap allocation.
///
/// # Panics
///
/// Panics if the initial state's register differs from the circuit's.
pub fn run_trajectory_into<R: Rng + ?Sized>(
    circuit: &TimedCircuit,
    initial: &State,
    noise: &NoiseModel,
    rng: &mut R,
    out: &mut State,
    ws: &mut Workspace,
) {
    run_own(Schedule::whole(circuit), initial, noise, rng, out, None, ws);
}

/// Runs one noisy trajectory of a windowed-register schedule, returning
/// the final state (on the last segment's register). Convenience wrapper
/// that allocates the two rolling state buffers; steady-state loops
/// should use [`run_trajectory_segmented_into`] (or a
/// [`crate::SegmentedSession`]) with reused buffers.
///
/// # Panics
///
/// Panics if the initial state's register differs from the first
/// segment's.
pub fn run_trajectory_segmented<R: Rng + ?Sized>(
    circuit: &SegmentedCircuit,
    initial: &State,
    noise: &NoiseModel,
    rng: &mut R,
) -> State {
    let (mut out, mut scratch) = circuit.rolling_buffers();
    let mut ws = Workspace::new();
    run_trajectory_segmented_into(
        circuit,
        initial,
        noise,
        rng,
        &mut out,
        &mut scratch,
        &mut ws,
    );
    out
}

/// [`run_trajectory_segmented`] rolling **two** caller-owned state
/// buffers across the segments (see
/// [`crate::SegmentedCircuit::rolling_buffers`]): at each boundary
/// `scratch` is re-targeted onto the next segment's register, the state
/// reshaped into it, and the buffers swapped — live allocation is two
/// peak-sized buffers regardless of the segment count, and once both
/// have reached the peak size the loop allocates nothing. The final
/// state is left in `out` (on the last segment's register). Segments run
/// in order sharing one per-device busy timeline, so idle-time damping
/// windows are identical to the whole-program engine.
///
/// # Panics
///
/// Panics if the initial state's register differs from the first
/// segment's.
#[allow(clippy::too_many_arguments)]
pub fn run_trajectory_segmented_into<R: Rng + ?Sized>(
    circuit: &SegmentedCircuit,
    initial: &State,
    noise: &NoiseModel,
    rng: &mut R,
    out: &mut State,
    scratch: &mut State,
    ws: &mut Workspace,
) {
    let schedule = Schedule::segmented(circuit);
    run_own(schedule, initial, noise, rng, out, Some(scratch), ws);
}

/// Result of a Monte-Carlo fidelity estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityEstimate {
    /// Mean state fidelity over trajectories.
    pub mean: f64,
    /// Standard error of the mean (std-dev / sqrt(n), the paper's error
    /// bars).
    pub std_error: f64,
    /// Number of trajectories.
    pub trajectories: usize,
}

/// Estimates average fidelity over random initial states: for each
/// trajectory a fresh random qubit-product state is drawn (§6.4, "random
/// quantum states as classical inputs are not always affected by quantum
/// errors"), the ideal and noisy final states are computed, and their
/// overlap recorded. Runs on the process-wide [`TrajectoryPool`].
pub fn average_fidelity(
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> FidelityEstimate {
    average_fidelity_on(
        &TrajectoryPool::global(),
        circuit,
        noise,
        trajectories,
        seed,
    )
}

/// [`average_fidelity`] on a caller-chosen [`TrajectoryPool`].
pub fn average_fidelity_on(
    pool: &TrajectoryPool,
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> FidelityEstimate {
    average_fidelity_with_on(pool, circuit, noise, trajectories, seed, |_, rng, out| {
        out.fill_random_qubit_product(rng)
    })
}

/// [`average_fidelity`] with a custom initial-state factory.
///
/// The factory **writes into a caller-owned buffer** (`write_initial(reg,
/// rng, out)` overwrites `out` in place): each pool worker owns one
/// [`Workspace`] and a fixed set of state buffers reused across all of
/// the trajectories it steals, so the steady-state loop performs no
/// per-trajectory heap allocation at all — not even for the initial
/// state. The ideal output is memoized per worker: when the factory is
/// deterministic (ignores its RNG, e.g. a fixed input state), the
/// noiseless circuit runs once per worker instead of once per trajectory.
pub fn average_fidelity_with(
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> FidelityEstimate {
    average_fidelity_with_on(
        &TrajectoryPool::global(),
        circuit,
        noise,
        trajectories,
        seed,
        write_initial,
    )
}

/// [`average_fidelity_with`] on a caller-chosen [`TrajectoryPool`].
pub fn average_fidelity_with_on(
    pool: &TrajectoryPool,
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> FidelityEstimate {
    estimate_from(&fidelity_samples_with_on(
        pool,
        circuit,
        noise,
        trajectories,
        seed,
        write_initial,
    ))
}

/// The raw per-trajectory fidelity samples behind [`average_fidelity`]:
/// `samples[g]` is the fidelity of the trajectory with global index `g`,
/// whose RNG seed depends only on `(seed, g)` — so the vector is
/// bit-identical for any pool width, and downstream consumers (the serve
/// layer's replay check, incremental tallies) can reference individual
/// trajectories stably.
pub fn fidelity_samples_on(
    pool: &TrajectoryPool,
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> Vec<f64> {
    fidelity_samples_with_on(pool, circuit, noise, trajectories, seed, |_, rng, out| {
        out.fill_random_qubit_product(rng)
    })
}

/// [`fidelity_samples_on`] with a custom initial-state factory (the
/// sample-vector form of [`average_fidelity_with_on`]).
pub fn fidelity_samples_with_on(
    pool: &TrajectoryPool,
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> Vec<f64> {
    let schedule = Schedule::whole(circuit);
    let steps = StepTables::of(schedule, noise);
    struct Worker {
        ws: Workspace,
        initial: State,
        noisy_out: State,
        ideal_out: State,
        cached_initial: State,
        ideal_cached: bool,
    }
    sample_over_trajectories(
        pool,
        trajectories,
        seed,
        || Worker {
            ws: Workspace::new(),
            initial: State::zero(&circuit.register),
            noisy_out: State::zero(&circuit.register),
            ideal_out: State::zero(&circuit.register),
            cached_initial: State::zero(&circuit.register),
            ideal_cached: false,
        },
        |w, rng| {
            write_initial(&circuit.register, rng, &mut w.initial);
            if !(w.ideal_cached && w.cached_initial == w.initial) {
                ideal::run_into(circuit, &w.initial, &mut w.ideal_out, &mut w.ws);
                w.cached_initial.copy_from(&w.initial);
                w.ideal_cached = true;
            }
            run_noisy(
                schedule,
                &steps,
                &w.initial,
                noise,
                rng,
                &mut w.noisy_out,
                None,
                &mut w.ws,
            );
            w.ideal_out.fidelity(&w.noisy_out)
        },
    )
}

/// Per-index fidelity slots written concurrently by pool workers. Sound
/// because [`TrajectoryPool::run_units`] hands out each global index
/// exactly once, so distinct workers never touch the same slot.
struct SharedSlots(*mut f64);
unsafe impl Sync for SharedSlots {}
unsafe impl Send for SharedSlots {}

impl SharedSlots {
    /// # Safety
    ///
    /// `idx` must be in bounds and claimed by exactly one worker.
    unsafe fn write(&self, idx: usize, value: f64) {
        unsafe { *self.0.add(idx) = value }
    }
}

/// The one Monte-Carlo driver behind every fidelity estimator: workers
/// steal global trajectory indices from `pool`, each carrying one buffer
/// state from `make_worker` across all the indices it claims, and
/// `run_one`'s fidelity lands in the per-index slot. Centralizing the
/// stealing and the per-index seeding here is what guarantees (a) the
/// whole-program and segmented estimators consume **identical** seed
/// streams and (b) the sample vector does not depend on the pool width.
fn sample_over_trajectories<W>(
    pool: &TrajectoryPool,
    trajectories: usize,
    seed: u64,
    make_worker: impl Fn() -> W + Sync,
    run_one: impl Fn(&mut W, &mut StdRng) -> f64 + Sync,
) -> Vec<f64> {
    assert!(trajectories > 0, "need at least one trajectory");
    let mut fidelities = vec![0.0f64; trajectories];
    let slots = SharedSlots(fidelities.as_mut_ptr());
    pool.run_units(
        trajectories,
        |_| make_worker(),
        |worker, g| {
            #[cfg(feature = "fault-inject")]
            crate::fault::begin_trajectory(g);
            let mut rng = StdRng::seed_from_u64(trajectory_seed(seed, g));
            let f = run_one(worker, &mut rng);
            // SAFETY: `g` is in `0..trajectories` and claimed once.
            unsafe { slots.write(g, f) };
        },
    );
    fidelities
}

/// Mean and Bessel-corrected standard error of a fidelity sample.
fn estimate_from(fidelities: &[f64]) -> FidelityEstimate {
    let trajectories = fidelities.len();
    let n = trajectories as f64;
    let mean = fidelities.iter().sum::<f64>() / n;
    // Unbiased (Bessel) sample variance; a single trajectory carries no
    // spread information, so its standard error is reported as zero.
    let var = if trajectories < 2 {
        0.0
    } else {
        fidelities.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / (n - 1.0)
    };
    FidelityEstimate {
        mean,
        std_error: (var / n).sqrt(),
        trajectories,
    }
}

/// Deterministic RNG seed of the trajectory with global index `g` — a
/// function of `(seed, g)` only, never of which worker ran it or how the
/// indices were distributed, which is what makes every estimate
/// thread-count-invariant.
fn trajectory_seed(seed: u64, g: usize) -> u64 {
    seed.wrapping_add(g as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Health guards for the supervised estimators
/// ([`average_fidelity_supervised_with`] and friends): when a trajectory
/// trips a guard it is **quarantined** — its sample is dropped, the
/// quarantine counted in [`RunHealth`], and the run keeps going.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Quarantine a trajectory whose final noisy-state norm exceeds
    /// `1 + max_norm_growth`. Growth-only on purpose: lossy reshapes at
    /// segment boundaries legitimately *shrink* the norm, but nothing in
    /// a trajectory may grow it.
    pub max_norm_growth: f64,
    /// Quarantine a fidelity sample outside
    /// `[-fidelity_tolerance, 1 + fidelity_tolerance]` (or non-finite).
    pub fidelity_tolerance: f64,
    /// Stop early once the running standard error of the mean drops to
    /// this threshold (after [`min_trajectories`](Self::min_trajectories)
    /// healthy samples). `None` disables early stop.
    pub target_std_error: Option<f64>,
    /// Minimum healthy samples before early stop may trigger.
    pub min_trajectories: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            max_norm_growth: 1e-6,
            fidelity_tolerance: 1e-6,
            target_std_error: None,
            min_trajectories: 16,
        }
    }
}

/// What actually happened during a supervised estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHealth {
    /// Trajectories requested by the caller.
    pub requested: usize,
    /// Healthy trajectories that contributed to the estimate.
    pub completed: usize,
    /// Trajectories quarantined by a health guard (NaN/Inf fidelity,
    /// out-of-range fidelity, or norm growth).
    pub quarantined: usize,
    /// Whether the run stopped early on
    /// [`HealthPolicy::target_std_error`].
    pub early_stopped: bool,
}

/// The supervised counterpart of [`sample_over_trajectories`]: same pool,
/// same work-stealing and per-index seed stream, plus per-trajectory
/// health guards, an optional early stop on the running standard error,
/// and (under `fault-inject`) per-trajectory arming of the amplitude
/// poison. Because indices are stolen one at a time, an early stop or a
/// straggling trajectory never strands a static chunk: every worker stays
/// busy until the stop flag flips. `run_one` returns
/// `(fidelity, final_noisy_norm)`.
fn estimate_supervised<W>(
    pool: &TrajectoryPool,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
    make_worker: impl Fn() -> W + Sync,
    run_one: impl Fn(&mut W, &mut StdRng) -> (f64, f64) + Sync,
) -> (FidelityEstimate, RunHealth) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    assert!(trajectories > 0, "need at least one trajectory");
    // NaN marks a slot that never produced a healthy sample (skipped by
    // early stop, or quarantined); the final estimate is taken over the
    // finite slots only.
    let mut fidelities = vec![f64::NAN; trajectories];
    let slots = SharedSlots(fidelities.as_mut_ptr());
    let stop = AtomicBool::new(false);
    let quarantined = AtomicUsize::new(0);
    // Running (count, sum, sum of squares) over healthy samples, for the
    // early-stop standard-error check.
    let tally = Mutex::new((0usize, 0.0f64, 0.0f64));
    pool.run_units(
        trajectories,
        |_| make_worker(),
        |worker, g| {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            #[cfg(feature = "fault-inject")]
            crate::fault::begin_trajectory(g);
            let mut rng = StdRng::seed_from_u64(trajectory_seed(seed, g));
            let (f, norm) = run_one(worker, &mut rng);
            let healthy = f.is_finite()
                && norm.is_finite()
                && f >= -policy.fidelity_tolerance
                && f <= 1.0 + policy.fidelity_tolerance
                && norm <= 1.0 + policy.max_norm_growth;
            if !healthy {
                quarantined.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // SAFETY: `g` is in `0..trajectories` and claimed once.
            unsafe { slots.write(g, f) };
            if let Some(target) = policy.target_std_error {
                let mut t = tally.lock().unwrap_or_else(PoisonError::into_inner);
                t.0 += 1;
                t.1 += f;
                t.2 += f * f;
                if t.0 >= policy.min_trajectories.max(2) {
                    let n = t.0 as f64;
                    let var = ((t.2 - t.1 * t.1 / n) / (n - 1.0)).max(0.0);
                    if (var / n).sqrt() <= target {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        },
    );
    let kept: Vec<f64> = fidelities
        .iter()
        .copied()
        .filter(|f| f.is_finite())
        .collect();
    let health = RunHealth {
        requested: trajectories,
        completed: kept.len(),
        quarantined: quarantined.load(std::sync::atomic::Ordering::Relaxed),
        early_stopped: stop.load(std::sync::atomic::Ordering::Relaxed),
    };
    let estimate = if kept.is_empty() {
        FidelityEstimate {
            mean: f64::NAN,
            std_error: f64::NAN,
            trajectories: 0,
        }
    } else {
        estimate_from(&kept)
    };
    (estimate, health)
}

/// [`average_fidelity`] with health supervision: per-trajectory NaN/Inf
/// and norm-growth guards (quarantine, count, keep going) and an optional
/// early stop when the running standard error reaches
/// [`HealthPolicy::target_std_error`]. Returns the estimate over healthy
/// trajectories plus a [`RunHealth`] report.
pub fn average_fidelity_supervised(
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
) -> (FidelityEstimate, RunHealth) {
    average_fidelity_supervised_with(circuit, noise, trajectories, seed, policy, |_, rng, out| {
        out.fill_random_qubit_product(rng)
    })
}

/// [`average_fidelity_supervised`] on a caller-chosen [`TrajectoryPool`].
pub fn average_fidelity_supervised_on(
    pool: &TrajectoryPool,
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
) -> (FidelityEstimate, RunHealth) {
    average_fidelity_supervised_with_on(
        pool,
        circuit,
        noise,
        trajectories,
        seed,
        policy,
        |_, rng, out| out.fill_random_qubit_product(rng),
    )
}

/// [`average_fidelity_supervised`] with a custom initial-state factory;
/// same buffer-reuse and seed-stream discipline as
/// [`average_fidelity_with`], so a fully healthy supervised run (no
/// quarantine, no early stop) reproduces its estimate exactly.
pub fn average_fidelity_supervised_with(
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> (FidelityEstimate, RunHealth) {
    average_fidelity_supervised_with_on(
        &TrajectoryPool::global(),
        circuit,
        noise,
        trajectories,
        seed,
        policy,
        write_initial,
    )
}

/// [`average_fidelity_supervised_with`] on a caller-chosen
/// [`TrajectoryPool`].
pub fn average_fidelity_supervised_with_on(
    pool: &TrajectoryPool,
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> (FidelityEstimate, RunHealth) {
    let schedule = Schedule::whole(circuit);
    let steps = StepTables::of(schedule, noise);
    struct Worker {
        ws: Workspace,
        initial: State,
        noisy_out: State,
        ideal_out: State,
        cached_initial: State,
        ideal_cached: bool,
    }
    estimate_supervised(
        pool,
        trajectories,
        seed,
        policy,
        || Worker {
            ws: Workspace::new(),
            initial: State::zero(&circuit.register),
            noisy_out: State::zero(&circuit.register),
            ideal_out: State::zero(&circuit.register),
            cached_initial: State::zero(&circuit.register),
            ideal_cached: false,
        },
        |w, rng| {
            write_initial(&circuit.register, rng, &mut w.initial);
            if !(w.ideal_cached && w.cached_initial == w.initial) {
                ideal::run_into(circuit, &w.initial, &mut w.ideal_out, &mut w.ws);
                w.cached_initial.copy_from(&w.initial);
                w.ideal_cached = true;
            }
            run_noisy(
                schedule,
                &steps,
                &w.initial,
                noise,
                rng,
                &mut w.noisy_out,
                None,
                &mut w.ws,
            );
            (w.ideal_out.fidelity(&w.noisy_out), w.noisy_out.norm())
        },
    )
}

/// [`average_fidelity_segmented`] with health supervision — the segmented
/// counterpart of [`average_fidelity_supervised`].
pub fn average_fidelity_segmented_supervised(
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
) -> (FidelityEstimate, RunHealth) {
    average_fidelity_segmented_supervised_with(
        circuit,
        noise,
        trajectories,
        seed,
        policy,
        |_, rng, out| out.fill_random_qubit_product(rng),
    )
}

/// [`average_fidelity_segmented_supervised`] on a caller-chosen
/// [`TrajectoryPool`].
pub fn average_fidelity_segmented_supervised_on(
    pool: &TrajectoryPool,
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
) -> (FidelityEstimate, RunHealth) {
    average_fidelity_segmented_supervised_with_on(
        pool,
        circuit,
        noise,
        trajectories,
        seed,
        policy,
        |_, rng, out| out.fill_random_qubit_product(rng),
    )
}

/// [`average_fidelity_segmented_supervised`] with a custom initial-state
/// factory; same buffers and seed stream as
/// [`average_fidelity_segmented_with`].
pub fn average_fidelity_segmented_supervised_with(
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> (FidelityEstimate, RunHealth) {
    average_fidelity_segmented_supervised_with_on(
        &TrajectoryPool::global(),
        circuit,
        noise,
        trajectories,
        seed,
        policy,
        write_initial,
    )
}

/// [`average_fidelity_segmented_supervised_with`] on a caller-chosen
/// [`TrajectoryPool`].
pub fn average_fidelity_segmented_supervised_with_on(
    pool: &TrajectoryPool,
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &HealthPolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> (FidelityEstimate, RunHealth) {
    let schedule = Schedule::segmented(circuit);
    let steps = StepTables::of(schedule, noise);
    struct Worker {
        ws: Workspace,
        initial: State,
        noisy_out: State,
        noisy_scratch: State,
        ideal_out: State,
        ideal_scratch: State,
        cached_initial: State,
        ideal_cached: bool,
    }
    estimate_supervised(
        pool,
        trajectories,
        seed,
        policy,
        || {
            let (noisy_out, noisy_scratch) = circuit.rolling_buffers();
            let (ideal_out, ideal_scratch) = circuit.rolling_buffers();
            Worker {
                ws: Workspace::new(),
                initial: State::zero(circuit.first_register()),
                noisy_out,
                noisy_scratch,
                ideal_out,
                ideal_scratch,
                cached_initial: State::zero(circuit.first_register()),
                ideal_cached: false,
            }
        },
        |w, rng| {
            write_initial(circuit.first_register(), rng, &mut w.initial);
            if !(w.ideal_cached && w.cached_initial == w.initial) {
                ideal::run_segmented_into(
                    circuit,
                    &w.initial,
                    &mut w.ideal_out,
                    &mut w.ideal_scratch,
                    &mut w.ws,
                );
                w.cached_initial.copy_from(&w.initial);
                w.ideal_cached = true;
            }
            run_noisy(
                schedule,
                &steps,
                &w.initial,
                noise,
                rng,
                &mut w.noisy_out,
                Some(&mut w.noisy_scratch),
                &mut w.ws,
            );
            (w.ideal_out.fidelity(&w.noisy_out), w.noisy_out.norm())
        },
    )
}

/// [`average_fidelity`] over a windowed-register schedule
/// ([`SegmentedCircuit`]): random qubit-product inputs on the *first*
/// segment's register, ideal and noisy runs through the same segmented
/// engine, fidelity taken on the last segment's register.
pub fn average_fidelity_segmented(
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> FidelityEstimate {
    average_fidelity_segmented_with(circuit, noise, trajectories, seed, |_, rng, out| {
        out.fill_random_qubit_product(rng)
    })
}

/// [`average_fidelity_segmented`] on a caller-chosen [`TrajectoryPool`].
pub fn average_fidelity_segmented_on(
    pool: &TrajectoryPool,
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> FidelityEstimate {
    average_fidelity_segmented_with_on(pool, circuit, noise, trajectories, seed, |_, rng, out| {
        out.fill_random_qubit_product(rng)
    })
}

/// [`average_fidelity_segmented`] with a custom initial-state factory
/// (`write_initial(first_register, rng, out)` overwrites `out` in place).
///
/// The segmented counterpart of [`average_fidelity_with`], with the same
/// steady-state discipline: each worker owns one [`Workspace`], two
/// rolling peak-sized state buffers for the noisy run, two for the
/// memoized ideal run, and an initial-state buffer — all reused across
/// its trajectories, so the loop performs no per-trajectory heap
/// allocation. Seeds follow the exact scheme of
/// [`average_fidelity_with`].
pub fn average_fidelity_segmented_with(
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> FidelityEstimate {
    average_fidelity_segmented_with_on(
        &TrajectoryPool::global(),
        circuit,
        noise,
        trajectories,
        seed,
        write_initial,
    )
}

/// [`average_fidelity_segmented_with`] on a caller-chosen
/// [`TrajectoryPool`].
pub fn average_fidelity_segmented_with_on(
    pool: &TrajectoryPool,
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> FidelityEstimate {
    estimate_from(&fidelity_samples_segmented_with_on(
        pool,
        circuit,
        noise,
        trajectories,
        seed,
        write_initial,
    ))
}

/// The segmented counterpart of [`fidelity_samples_with_on`]: raw
/// per-global-index fidelity samples over a windowed-register schedule,
/// bit-identical for any pool width.
pub fn fidelity_samples_segmented_with_on(
    pool: &TrajectoryPool,
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut State) + Sync,
) -> Vec<f64> {
    let schedule = Schedule::segmented(circuit);
    let steps = StepTables::of(schedule, noise);
    struct Worker {
        ws: Workspace,
        initial: State,
        noisy_out: State,
        noisy_scratch: State,
        ideal_out: State,
        ideal_scratch: State,
        cached_initial: State,
        ideal_cached: bool,
    }
    sample_over_trajectories(
        pool,
        trajectories,
        seed,
        || {
            let (noisy_out, noisy_scratch) = circuit.rolling_buffers();
            let (ideal_out, ideal_scratch) = circuit.rolling_buffers();
            Worker {
                ws: Workspace::new(),
                initial: State::zero(circuit.first_register()),
                noisy_out,
                noisy_scratch,
                ideal_out,
                ideal_scratch,
                cached_initial: State::zero(circuit.first_register()),
                ideal_cached: false,
            }
        },
        |w, rng| {
            write_initial(circuit.first_register(), rng, &mut w.initial);
            if !(w.ideal_cached && w.cached_initial == w.initial) {
                ideal::run_segmented_into(
                    circuit,
                    &w.initial,
                    &mut w.ideal_out,
                    &mut w.ideal_scratch,
                    &mut w.ws,
                );
                w.cached_initial.copy_from(&w.initial);
                w.ideal_cached = true;
            }
            run_noisy(
                schedule,
                &steps,
                &w.initial,
                noise,
                rng,
                &mut w.noisy_out,
                Some(&mut w.noisy_scratch),
                &mut w.ws,
            );
            w.ideal_out.fidelity(&w.noisy_out)
        },
    )
}

/// [`run_trajectory_into`] on a density-adaptive state: starts from a
/// sparse initial state, runs the **same** per-op noise loop (identical
/// RNG stream to the dense runner), and leaves the final state — in
/// whichever representation the density threshold chose — in `out`. The
/// workspace's [`Workspace::sparse_density_threshold`] /
/// `sparse_epsilon` knobs govern the switching.
///
/// # Panics
///
/// Panics if the initial state's register differs from the circuit's.
pub fn run_trajectory_adaptive_into<R: Rng + ?Sized>(
    circuit: &TimedCircuit,
    initial: &SparseState,
    noise: &NoiseModel,
    rng: &mut R,
    out: &mut AdaptiveState,
    ws: &mut Workspace,
) {
    run_own(Schedule::whole(circuit), initial, noise, rng, out, None, ws);
}

/// [`run_trajectory_segmented_into`] on density-adaptive rolling
/// buffers: segment boundaries reshape through
/// [`AdaptiveState::reshape_into_lossy`], which is also where a dense
/// state may drop back to sparse.
///
/// # Panics
///
/// Panics if the initial state's register differs from the first
/// segment's.
#[allow(clippy::too_many_arguments)]
pub fn run_trajectory_segmented_adaptive_into<R: Rng + ?Sized>(
    circuit: &SegmentedCircuit,
    initial: &SparseState,
    noise: &NoiseModel,
    rng: &mut R,
    out: &mut AdaptiveState,
    scratch: &mut AdaptiveState,
    ws: &mut Workspace,
) {
    let schedule = Schedule::segmented(circuit);
    run_own(schedule, initial, noise, rng, out, Some(scratch), ws);
}

/// Applies a [`SparsePolicy`] to a fresh worker workspace.
fn sparse_worker_ws(policy: &SparsePolicy) -> Workspace {
    let mut ws = Workspace::new();
    ws.set_sparse_density_threshold(policy.density_threshold);
    ws.set_sparse_epsilon(policy.epsilon);
    ws
}

/// [`average_fidelity_with`] through the density-adaptive engine:
/// initial states are written into per-worker [`SparseState`] buffers
/// (classical basis inputs stay at a handful of entries), every
/// trajectory runs sparse until `policy.density_threshold` trips, and
/// the estimate consumes the *same* seed stream as the dense
/// estimators — with `policy.density_threshold` 0 it reproduces
/// [`average_fidelity_with`] exactly.
pub fn average_fidelity_adaptive_with(
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &SparsePolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut SparseState) + Sync,
) -> FidelityEstimate {
    average_fidelity_adaptive_with_on(
        &TrajectoryPool::global(),
        circuit,
        noise,
        trajectories,
        seed,
        policy,
        write_initial,
    )
}

/// [`average_fidelity_adaptive_with`] on a caller-chosen
/// [`TrajectoryPool`].
pub fn average_fidelity_adaptive_with_on(
    pool: &TrajectoryPool,
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &SparsePolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut SparseState) + Sync,
) -> FidelityEstimate {
    estimate_from(&fidelity_samples_adaptive_with_on(
        pool,
        circuit,
        noise,
        trajectories,
        seed,
        policy,
        write_initial,
    ))
}

/// The raw per-trajectory samples behind
/// [`average_fidelity_adaptive_with`] — same per-global-index seeding as
/// [`fidelity_samples_with_on`], so the vector is bit-identical for any
/// pool width.
pub fn fidelity_samples_adaptive_with_on(
    pool: &TrajectoryPool,
    circuit: &TimedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &SparsePolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut SparseState) + Sync,
) -> Vec<f64> {
    let schedule = Schedule::whole(circuit);
    let steps = StepTables::of(schedule, noise);
    struct Worker {
        ws: Workspace,
        initial: SparseState,
        noisy_out: AdaptiveState,
        ideal_out: AdaptiveState,
        cached_initial: SparseState,
        ideal_cached: bool,
    }
    sample_over_trajectories(
        pool,
        trajectories,
        seed,
        || Worker {
            ws: sparse_worker_ws(policy),
            initial: SparseState::zero(&circuit.register),
            noisy_out: AdaptiveState::zero(&circuit.register),
            ideal_out: AdaptiveState::zero(&circuit.register),
            cached_initial: SparseState::zero(&circuit.register),
            ideal_cached: false,
        },
        |w, rng| {
            write_initial(&circuit.register, rng, &mut w.initial);
            if !(w.ideal_cached && w.cached_initial == w.initial) {
                ideal::run_adaptive_into(circuit, &w.initial, &mut w.ideal_out, &mut w.ws);
                w.cached_initial.copy_from(&w.initial);
                w.ideal_cached = true;
            }
            run_noisy(
                schedule,
                &steps,
                &w.initial,
                noise,
                rng,
                &mut w.noisy_out,
                None,
                &mut w.ws,
            );
            w.ideal_out.fidelity(&w.noisy_out)
        },
    )
}

/// The segmented counterpart of [`average_fidelity_adaptive_with`]:
/// windowed-register schedules through the density-adaptive engine,
/// with the same seed stream as the dense segmented estimators.
pub fn average_fidelity_segmented_adaptive_with(
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &SparsePolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut SparseState) + Sync,
) -> FidelityEstimate {
    average_fidelity_segmented_adaptive_with_on(
        &TrajectoryPool::global(),
        circuit,
        noise,
        trajectories,
        seed,
        policy,
        write_initial,
    )
}

/// [`average_fidelity_segmented_adaptive_with`] on a caller-chosen
/// [`TrajectoryPool`].
pub fn average_fidelity_segmented_adaptive_with_on(
    pool: &TrajectoryPool,
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &SparsePolicy,
    write_initial: impl Fn(&crate::Register, &mut StdRng, &mut SparseState) + Sync,
) -> FidelityEstimate {
    let schedule = Schedule::segmented(circuit);
    let steps = StepTables::of(schedule, noise);
    struct Worker {
        ws: Workspace,
        initial: SparseState,
        noisy_out: AdaptiveState,
        noisy_scratch: AdaptiveState,
        ideal_out: AdaptiveState,
        ideal_scratch: AdaptiveState,
        cached_initial: SparseState,
        ideal_cached: bool,
    }
    let samples = sample_over_trajectories(
        pool,
        trajectories,
        seed,
        || Worker {
            ws: sparse_worker_ws(policy),
            initial: SparseState::zero(circuit.first_register()),
            noisy_out: AdaptiveState::zero(circuit.first_register()),
            noisy_scratch: AdaptiveState::zero(circuit.first_register()),
            ideal_out: AdaptiveState::zero(circuit.first_register()),
            ideal_scratch: AdaptiveState::zero(circuit.first_register()),
            cached_initial: SparseState::zero(circuit.first_register()),
            ideal_cached: false,
        },
        |w, rng| {
            write_initial(circuit.first_register(), rng, &mut w.initial);
            if !(w.ideal_cached && w.cached_initial == w.initial) {
                ideal::run_segmented_adaptive_into(
                    circuit,
                    &w.initial,
                    &mut w.ideal_out,
                    &mut w.ideal_scratch,
                    &mut w.ws,
                );
                w.cached_initial.copy_from(&w.initial);
                w.ideal_cached = true;
            }
            run_noisy(
                schedule,
                &steps,
                &w.initial,
                noise,
                rng,
                &mut w.noisy_out,
                Some(&mut w.noisy_scratch),
                &mut w.ws,
            );
            w.ideal_out.fidelity(&w.noisy_out)
        },
    );
    estimate_from(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Register, TimedOp};
    use waltz_gates::standard;
    use waltz_math::Matrix;

    fn one_gate_circuit(fidelity: f64, duration: f64) -> TimedCircuit {
        let reg = Register::qubits(2);
        let mut tc = TimedCircuit::new(reg);
        tc.ops.push(TimedOp::new(
            "cx",
            standard::cx(),
            vec![0, 1],
            vec![2, 2],
            0.0,
            duration,
            fidelity,
        ));
        tc.total_duration_ns = duration;
        tc
    }

    #[test]
    fn noiseless_trajectory_equals_ideal() {
        let tc = one_gate_circuit(0.5, 251.0);
        let noise = NoiseModel::noiseless();
        let mut rng = StdRng::seed_from_u64(1);
        let init = State::random_qubit_product(&tc.register, &mut rng);
        let a = ideal::run(&tc, &init);
        let b = run_trajectory(&tc, &init, &noise, &mut rng);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    /// A small schedule with a fuseable run: h(0); cx(0,1); h(1).
    fn fuseable_circuit(fidelity: f64) -> TimedCircuit {
        let reg = Register::qubits(2);
        let mut tc = TimedCircuit::new(reg);
        let mk = |label: &str, u: Matrix, ops: Vec<usize>, start: f64, dur: f64| {
            let dims = vec![2u8; ops.len()];
            TimedOp::new(label, u, ops, dims, start, dur, fidelity)
        };
        tc.ops.push(mk("h", standard::h(), vec![0], 0.0, 35.0));
        tc.ops
            .push(mk("cx", standard::cx(), vec![0, 1], 35.0, 251.0));
        tc.ops.push(mk("h", standard::h(), vec![1], 286.0, 35.0));
        tc.total_duration_ns = 321.0;
        tc
    }

    #[test]
    fn fused_noiseless_trajectory_equals_ideal() {
        let tc = fuseable_circuit(0.9);
        let fused = tc.fuse();
        assert_eq!(fused.len(), 1);
        let noise = NoiseModel::noiseless();
        let mut rng = StdRng::seed_from_u64(21);
        let init = State::random_qubit_product(&tc.register, &mut rng);
        let a = ideal::run(&tc, &init);
        let b = run_trajectory(&fused, &init, &noise, &mut rng);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_noise_replays_per_constituent_pulse() {
        // With noise on, the fused estimate must match the unfused one
        // statistically: same per-pulse depolarizing probabilities and the
        // same per-device idle/busy damping time.
        let tc = fuseable_circuit(0.97);
        let fused = tc.fuse();
        let noise = NoiseModel::paper();
        let a = average_fidelity(&tc, &noise, 800, 11);
        let b = average_fidelity(&fused, &noise, 800, 12);
        let spread = 4.0 * (a.std_error + b.std_error) + 1e-3;
        assert!(
            (a.mean - b.mean).abs() < spread,
            "unfused {} vs fused {} (allowed {})",
            a.mean,
            b.mean,
            spread
        );
    }

    #[test]
    fn fused_trailing_idle_still_damps() {
        // The block's constituents update free_at per event, so the
        // trailing-idle damping window stays exact after fusion.
        let mut tc = fuseable_circuit(1.0);
        tc.total_duration_ns = 10_000_000.0; // 10 ms >> T1
        let fused = tc.fuse();
        let est = average_fidelity(&fused, &NoiseModel::paper(), 60, 3);
        assert!(est.mean < 0.8, "mean {} should collapse", est.mean);
    }

    #[test]
    fn perfect_gates_and_zero_time_give_unit_fidelity() {
        let tc = one_gate_circuit(1.0, 0.0);
        let est = average_fidelity(&tc, &NoiseModel::paper(), 20, 42);
        assert!((est.mean - 1.0).abs() < 1e-9, "mean {}", est.mean);
    }

    #[test]
    fn depolarizing_rate_shows_in_average_fidelity() {
        // One gate with fidelity 0.9 and no decoherence: mean fidelity
        // should be near 0.9 (error states are mostly orthogonal).
        let tc = one_gate_circuit(0.9, 0.0);
        let mut noise = NoiseModel::paper();
        noise.damping = false;
        noise.busy_time_damping = false;
        let est = average_fidelity(&tc, &noise, 600, 7);
        assert!(
            est.mean > 0.85 && est.mean < 0.97,
            "mean {} should be near the gate fidelity",
            est.mean
        );
        assert!(est.std_error < 0.02);
    }

    #[test]
    fn long_idle_time_damps_fidelity() {
        // A gate followed by an enormous idle window: coherence error
        // dominates and fidelity collapses.
        let reg = Register::qubits(1);
        let mut tc = TimedCircuit::new(reg);
        tc.ops.push(TimedOp::new(
            "x",
            standard::x(),
            vec![0],
            vec![2],
            0.0,
            35.0,
            1.0,
        ));
        tc.total_duration_ns = 10_000_000.0; // 10 ms >> T1
        let est = average_fidelity(&tc, &NoiseModel::paper(), 60, 3);
        assert!(est.mean < 0.75, "mean {} should collapse", est.mean);
    }

    #[test]
    fn busy_time_damping_penalizes_long_pulses() {
        // Same gate, 100x duration: fidelity must drop when busy-time
        // damping is on.
        let short = one_gate_circuit(1.0, 100.0);
        let long = one_gate_circuit(1.0, 100_000.0);
        let noise = NoiseModel::paper();
        let fs = average_fidelity(&short, &noise, 200, 5).mean;
        let fl = average_fidelity(&long, &noise, 200, 5).mean;
        assert!(fl < fs, "long pulse {fl} should underperform short {fs}");
    }

    #[test]
    fn error_dims_restrict_errors_to_logical_levels() {
        // A qubit-calibrated gate on 4-level devices must never populate
        // levels 2/3 even when errors fire.
        let reg = Register::ququarts(1);
        let mut tc = TimedCircuit::new(reg.clone());
        tc.ops.push(TimedOp::new(
            "x",
            waltz_gates::embed(&standard::x(), &[2], &[4]),
            vec![0],
            vec![2],
            0.0,
            35.0,
            0.0, // always draw an error
        ));
        tc.total_duration_ns = 35.0;
        let mut noise = NoiseModel::paper();
        noise.damping = false;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let out = run_trajectory(&tc, &State::zero(&reg), &noise, &mut rng);
            assert!(out.probability_of(2) < 1e-12);
            assert!(out.probability_of(3) < 1e-12);
        }
    }

    /// A (4, 2)-window-then-(2, 2)-tail segmented schedule next to the
    /// equivalent whole-program (4, 2) schedule, for parity checks. The
    /// window applies the mixed-radix CCZ; the tail applies qubit gates
    /// that embed identically on both registers.
    fn segmented_and_whole() -> (crate::SegmentedCircuit, TimedCircuit) {
        let ccz = waltz_gates::mixed::ccz();
        let mk = |label: &str, u: Matrix, ops: Vec<usize>, dims: Vec<u8>, start: f64, dur: f64| {
            TimedOp::new(label, u, ops, dims, start, dur, 0.99)
        };
        // Whole-program register (4, 2).
        let mut whole = TimedCircuit::new(Register::new(vec![4, 2]));
        whole
            .ops
            .push(mk("ccz", ccz.clone(), vec![0, 1], vec![4, 2], 0.0, 100.0));
        whole.ops.push(mk(
            "cx",
            waltz_gates::embed(&standard::cx(), &[2, 2], &[4, 2]),
            vec![0, 1],
            vec![2, 2],
            100.0,
            251.0,
        ));
        whole
            .ops
            .push(mk("h", standard::h(), vec![1], vec![2], 351.0, 35.0));
        whole.total_duration_ns = 500.0;
        // Segmented: the tail runs on a demoted (2, 2) register.
        let mut first = TimedCircuit::new(Register::new(vec![4, 2]));
        first
            .ops
            .push(mk("ccz", ccz, vec![0, 1], vec![4, 2], 0.0, 100.0));
        first.total_duration_ns = 500.0;
        let mut second = TimedCircuit::new(Register::qubits(2));
        second.ops.push(mk(
            "cx",
            standard::cx(),
            vec![0, 1],
            vec![2, 2],
            100.0,
            251.0,
        ));
        second
            .ops
            .push(mk("h", standard::h(), vec![1], vec![2], 351.0, 35.0));
        second.total_duration_ns = 500.0;
        (
            crate::SegmentedCircuit::new(vec![first, second], 500.0),
            whole,
        )
    }

    /// Maps a (2, 2) state up into the qubit subspace of a (4, 2) one.
    fn expand_to_whole(small: &State, whole_reg: &Register) -> State {
        let mut out = State::zero(whole_reg);
        small.reshape_into(&mut out);
        out
    }

    #[test]
    fn segmented_noiseless_trajectory_matches_whole_program() {
        let (seg, whole) = segmented_and_whole();
        assert!(seg.validate().is_ok());
        let mut rng = StdRng::seed_from_u64(31);
        let initial = State::random_qubit_product(seg.first_register(), &mut rng);
        let noise = NoiseModel::noiseless();
        let out_seg = run_trajectory_segmented(&seg, &initial, &noise, &mut rng);
        let out_whole = crate::ideal::run(&whole, &initial);
        let expanded = expand_to_whole(&out_seg, &whole.register);
        assert!((expanded.fidelity(&out_whole) - 1.0).abs() < 1e-12);
        // And the dedicated segmented ideal runner agrees.
        let ideal_seg = crate::ideal::run_segmented(&seg, &initial);
        assert!((ideal_seg.fidelity(&out_seg) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segmented_noisy_estimate_matches_whole_program_statistically() {
        let (seg, whole) = segmented_and_whole();
        let noise = NoiseModel::paper();
        let est_seg = average_fidelity_segmented(&seg, &noise, 800, 5);
        let est_whole = average_fidelity(&whole, &noise, 800, 6);
        let spread = 4.0 * (est_seg.std_error + est_whole.std_error) + 1e-3;
        assert!(
            (est_seg.mean - est_whole.mean).abs() < spread,
            "segmented {} vs whole {} (allowed {})",
            est_seg.mean,
            est_whole.mean,
            spread
        );
    }

    #[test]
    fn segmented_session_reuses_buffers_and_matches_free_functions() {
        let (seg, _) = segmented_and_whole();
        let mut session = crate::SegmentedSession::new(&seg);
        let mut rng = StdRng::seed_from_u64(41);
        let initial = State::random_qubit_product(seg.first_register(), &mut rng);
        let noise = NoiseModel::paper();
        let mut rng_a = StdRng::seed_from_u64(43);
        let mut rng_b = StdRng::seed_from_u64(43);
        let a = session
            .run_trajectory(&seg, &initial, &noise, &mut rng_a)
            .clone();
        let b = run_trajectory_segmented(&seg, &initial, &noise, &mut rng_b);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        // The second (ideal) run fully overwrites the first.
        let fresh = session.run_ideal(&seg, &initial).clone();
        let reference = crate::ideal::run_segmented(&seg, &initial);
        assert!((fresh.fidelity(&reference) - 1.0).abs() < 1e-12);
        assert!((session.last().fidelity(&reference) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segmented_trailing_idle_still_damps() {
        let (mut seg, _) = segmented_and_whole();
        seg.total_duration_ns = 10_000_000.0; // 10 ms >> T1
        let est = average_fidelity_segmented(&seg, &NoiseModel::paper(), 60, 3);
        assert!(est.mean < 0.8, "mean {} should collapse", est.mean);
    }

    #[test]
    fn estimates_are_deterministic_for_fixed_seed() {
        let tc = one_gate_circuit(0.95, 300.0);
        let a = average_fidelity(&tc, &NoiseModel::paper(), 40, 99);
        let b = average_fidelity(&tc, &NoiseModel::paper(), 40, 99);
        assert_eq!(a.mean, b.mean);
    }

    #[test]
    fn validate_passes_for_embedded_unitaries() {
        let reg = Register::new(vec![4, 4]);
        let mut tc = TimedCircuit::new(reg);
        tc.ops.push(TimedOp::new(
            "cx-embedded",
            waltz_gates::embed(&standard::cx(), &[2, 2], &[4, 4]),
            vec![0, 1],
            vec![2, 2],
            0.0,
            251.0,
            0.99,
        ));
        tc.total_duration_ns = 251.0;
        assert!(tc.validate().is_ok());
        let _ = Matrix::identity(2);
    }
}
