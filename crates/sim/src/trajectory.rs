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

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use waltz_noise::{pauli, NoiseModel, PauliOp};

use crate::damping::{DampingTarget, StepTables};
use crate::kernel::Workspace;
use crate::pool::TrajectoryPool;
use crate::sparse::{AdaptiveState, SparsePolicy, SparseState};
use crate::{ideal, Register, Schedule, SegmentedCircuit, State, TimedCircuit, TimedOp};

/// Panic message of a runner whose initial state is on another register
/// than the schedule's first segment.
const REGISTER_MISMATCH: &str = "state register does not match circuit register";

/// A state representation the runners, [`crate::Session`] and
/// [`Estimator`] run on: the dense [`State`] or the density-adaptive
/// [`AdaptiveState`]. Both run the *same* per-op noise loop — idle and
/// busy damping windows, depolarizing draws, the order of every RNG
/// consumption, the pending damping factors — which is what makes
/// adaptive estimates bit-compatible with dense ones for a fixed seed.
///
/// The trait is sealed; its methods are the engine's and hidden.
pub trait Representation: DampingTarget + Sized {
    /// The initial-state type a trajectory in this representation starts
    /// from: [`State`] for the dense engine, [`SparseState`] for the
    /// adaptive one.
    type Input: PartialEq;
    #[doc(hidden)]
    fn zero(register: &Register) -> Self;
    #[doc(hidden)]
    fn zero_input(register: &Register) -> Self::Input;
    #[doc(hidden)]
    fn copy_input(to: &mut Self::Input, from: &Self::Input);
    /// Overwrites this buffer with `input`, re-targeted onto `register`.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s register differs from `register`.
    #[doc(hidden)]
    fn load(&mut self, input: &Self::Input, register: &Register, ws: &mut Workspace);
    #[doc(hidden)]
    fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace);
    #[doc(hidden)]
    fn apply_pauli(&mut self, op: PauliOp, qudit: usize);
    /// Re-targets the buffer onto `register` (contents unspecified).
    #[doc(hidden)]
    fn remap(&mut self, register: &Register);
    /// Reshapes onto `out`'s register, returning the clipped probability.
    #[doc(hidden)]
    fn reshape_lossy(&self, out: &mut Self, ws: &mut Workspace) -> f64;
    #[doc(hidden)]
    fn norm(&self) -> f64;
    #[doc(hidden)]
    fn fidelity(&self, other: &Self) -> f64;
    #[cfg(feature = "fault-inject")]
    #[doc(hidden)]
    fn fault_tick(&mut self);
}

impl Representation for State {
    type Input = State;
    fn zero(register: &Register) -> Self {
        State::zero(register)
    }
    fn zero_input(register: &Register) -> State {
        State::zero(register)
    }
    fn copy_input(to: &mut State, from: &State) {
        to.copy_from(from);
    }
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
    fn norm(&self) -> f64 {
        State::norm(self)
    }
    fn fidelity(&self, other: &Self) -> f64 {
        State::fidelity(self, other)
    }
    #[cfg(feature = "fault-inject")]
    fn fault_tick(&mut self) {
        crate::fault::tick_op(self);
    }
}

impl Representation for AdaptiveState {
    type Input = SparseState;
    fn zero(register: &Register) -> Self {
        AdaptiveState::zero(register)
    }
    fn zero_input(register: &Register) -> SparseState {
        SparseState::zero(register)
    }
    fn copy_input(to: &mut SparseState, from: &SparseState) {
        to.copy_from(from);
    }
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
    fn norm(&self) -> f64 {
        AdaptiveState::norm(self)
    }
    fn fidelity(&self, other: &Self) -> f64 {
        AdaptiveState::fidelity(self, other)
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
        free_at.resize(schedule.first_register().n_qudits(), 0.0);
        let mut builder = TableBuilder {
            steps: self,
            noise,
            register: schedule.first_register(),
        };
        for segment in schedule.segments() {
            builder.register = &segment.register;
            walk_segment(segment, noise, free_at, &mut builder);
        }
        walk_trailing(schedule.total_duration_ns(), noise, free_at, &mut builder);
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

impl<S: Representation, R: Rng + ?Sized> NoiseCalls for Runner<'_, S, R> {
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

impl<S: Representation, R: Rng + ?Sized> Runner<'_, S, R> {
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
fn run_noisy<S: Representation, R: Rng + ?Sized>(
    schedule: Schedule,
    steps: &StepTables,
    initial: &S::Input,
    noise: &NoiseModel,
    rng: &mut R,
    out: &mut S,
    mut scratch: Option<&mut S>,
    ws: &mut Workspace,
) {
    let first = schedule.first_register();
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
    for (k, segment) in schedule.segments().iter().enumerate() {
        if k > 0 {
            let scratch = scratch
                .as_deref_mut()
                .expect("segmented runs roll two buffers");
            runner.reshape(&segment.register, scratch);
        }
        walk_segment(segment, noise, &mut free_at, &mut runner);
    }
    walk_trailing(schedule.total_duration_ns(), noise, &free_at, &mut runner);
    assert_eq!(
        runner.next,
        steps.len(),
        "damping calls differ from the step tables"
    );
    runner.ws.pending.finish(runner.state);
    runner.ws.free_at = free_at;
}

/// [`run_noisy`] with step tables built into `ws`'s own storage — how
/// the single-trajectory runners get theirs.
pub(crate) fn run_own<S: Representation, R: Rng + ?Sized>(
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

/// Runs one noisy trajectory of `schedule` from `initial` (on its first
/// register) and returns the final state (on its last register). Segments
/// run in order sharing one per-device busy timeline, so idle-time
/// damping windows are those of the unsplit program. Allocates its
/// buffers; a loop should hold a [`crate::Session`] instead.
///
/// # Panics
///
/// Panics if the initial state's register differs from the schedule's
/// first.
pub fn run_trajectory<'a, R: Rng + ?Sized>(
    schedule: impl Into<Schedule<'a>>,
    initial: &State,
    noise: &NoiseModel,
    rng: &mut R,
) -> State {
    let schedule = schedule.into();
    let mut out = schedule.buffer();
    let mut scratch = schedule.scratch();
    let mut ws = Workspace::new();
    run_own(
        schedule,
        initial,
        noise,
        rng,
        &mut out,
        scratch.as_mut(),
        &mut ws,
    );
    out
}

/// A density-adaptive trajectory of `circuit` into caller-owned rolling
/// buffers, as [`crate::Session::run_trajectory`] runs it; the
/// workspace's sparse knobs govern the representation switch. Kept for
/// the benchmark harness.
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
    run_own(circuit.into(), initial, noise, rng, out, Some(scratch), ws);
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

impl FidelityEstimate {
    /// Mean and Bessel-corrected standard error of a fidelity sample,
    /// the one summary every estimate reports. A single sample carries no
    /// spread information, so its standard error is zero; an empty one
    /// has NaN for both.
    pub fn from_samples(fidelities: &[f64]) -> Self {
        let trajectories = fidelities.len();
        let n = trajectories as f64;
        let mean = fidelities.iter().sum::<f64>() / n;
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
}

/// Health guards of [`Estimator::supervised`]: when a trajectory trips a
/// guard it is **quarantined** — its sample is dropped, the quarantine
/// counted in [`RunHealth`], and the run keeps going.
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

/// Per-index fidelity slots written concurrently by pool workers. Sound
/// because [`TrajectoryPool::run_units`] hands out each global index
/// exactly once, so distinct workers never touch the same slot.
struct SharedSlots(*mut f64);
// SAFETY: the one field points into a sample vector that outlives the
// pool run, and every write goes to a slot only its claiming worker
// touches (see `write`), so sharing or sending the pointer races nothing.
unsafe impl Sync for SharedSlots {}
// SAFETY: as for `Sync`.
unsafe impl Send for SharedSlots {}

impl SharedSlots {
    /// # Safety
    ///
    /// `idx` must be in bounds and claimed by exactly one worker.
    unsafe fn write(&self, idx: usize, value: f64) {
        unsafe { *self.0.add(idx) = value }
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

/// The input writer of [`Estimator::new`]: a random qubit-product state
/// (§6.4, "random quantum states as classical inputs are not always
/// affected by quantum errors").
type RandomProduct = fn(&Register, &mut StdRng, &mut State);

/// A Monte-Carlo fidelity estimate over one [`Schedule`] (§6.4): every
/// trajectory writes an input state on the schedule's first register,
/// runs the schedule noiselessly for the reference and once through the
/// noise loop, and records the overlap of the two final states.
///
/// [`Estimator::new`] runs dense states from random qubit-product inputs,
/// [`Estimator::with_input`] replaces the input writer
/// (`write_initial(first_register, rng, out)` overwrites `out` in place),
/// and [`Estimator::adaptive`] runs the density-adaptive engine under a
/// [`SparsePolicy`]. Work runs on the process-wide [`TrajectoryPool`]
/// unless [`Estimator::on`] names another.
///
/// Trajectory `g` draws its input and its noise from an RNG seeded by
/// `(seed, g)` alone, so the samples are bit-identical for any pool
/// width, and the adaptive engine returns the dense engine's samples for
/// the same schedule, inputs and seed.
///
/// Each pool worker owns one [`Workspace`] and a fixed set of state
/// buffers reused across every trajectory it claims: the input, the
/// reference and noisy outputs, the input the reference was last run
/// from, and — for a split schedule only — one scratch buffer per output
/// to roll through the reshapes. The steady-state loop therefore
/// allocates nothing per trajectory, and when the writer repeats an input
/// (a fixed basis state, say) the reference runs once per worker.
///
/// # Panics
///
/// [`Estimator::samples`], [`Estimator::estimate`] and
/// [`Estimator::supervised`] panic when asked for zero trajectories.
///
/// # Example
///
/// ```
/// use waltz_noise::NoiseModel;
/// use waltz_sim::trajectory::Estimator;
/// use waltz_sim::{Register, TimedCircuit};
///
/// // An empty two-qubit schedule: no gate, no time, nothing to damp.
/// let circuit = TimedCircuit::new(Register::qubits(2));
/// let noise = NoiseModel::paper();
/// let estimate = Estimator::new(&circuit, &noise).estimate(8, 1);
/// assert!((estimate.mean - 1.0).abs() < 1e-12);
/// ```
pub struct Estimator<'a, S, W> {
    schedule: Schedule<'a>,
    noise: &'a NoiseModel,
    write_initial: W,
    policy: SparsePolicy,
    pool: Option<&'a TrajectoryPool>,
    representation: PhantomData<fn() -> S>,
}

impl<'a> Estimator<'a, State, RandomProduct> {
    /// A dense estimate of `schedule` under `noise` from random
    /// qubit-product inputs.
    pub fn new(schedule: impl Into<Schedule<'a>>, noise: &'a NoiseModel) -> Self {
        Estimator {
            schedule: schedule.into(),
            noise,
            write_initial: |_, rng, out| out.fill_random_qubit_product(rng),
            policy: SparsePolicy::default(),
            pool: None,
            representation: PhantomData,
        }
    }
}

impl<'a, W> Estimator<'a, AdaptiveState, W>
where
    W: Fn(&Register, &mut StdRng, &mut SparseState) + Sync,
{
    /// An estimate through the density-adaptive engine: inputs are
    /// written into sparse buffers (a classical basis input stays at a
    /// handful of entries), and every trajectory runs sparse until
    /// `policy.density_threshold` trips. With a threshold of 0 it
    /// returns the dense estimate's samples exactly.
    pub fn adaptive(
        schedule: impl Into<Schedule<'a>>,
        noise: &'a NoiseModel,
        policy: &SparsePolicy,
        write_initial: W,
    ) -> Self {
        Estimator {
            schedule: schedule.into(),
            noise,
            write_initial,
            policy: *policy,
            pool: None,
            representation: PhantomData,
        }
    }
}

impl<'a, S: Representation, W> Estimator<'a, S, W> {
    /// Replaces the input writer.
    pub fn with_input<V>(self, write_initial: V) -> Estimator<'a, S, V>
    where
        V: Fn(&Register, &mut StdRng, &mut S::Input) + Sync,
    {
        Estimator {
            schedule: self.schedule,
            noise: self.noise,
            write_initial,
            policy: self.policy,
            pool: self.pool,
            representation: PhantomData,
        }
    }

    /// Runs on `pool` instead of the process-wide pool.
    pub fn on(mut self, pool: &'a TrajectoryPool) -> Self {
        self.pool = Some(pool);
        self
    }
}

impl<S, W> Estimator<'_, S, W>
where
    S: Representation,
    W: Fn(&Register, &mut StdRng, &mut S::Input) + Sync,
{
    /// The raw per-trajectory fidelities: `samples[g]` belongs to the
    /// trajectory with global index `g`.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is zero.
    pub fn samples(&self, trajectories: usize, seed: u64) -> Vec<f64> {
        let mut samples = vec![0.0f64; trajectories];
        let slots = SharedSlots(samples.as_mut_ptr());
        self.drive(trajectories, seed, &AtomicBool::new(false), |g, f, _| {
            // SAFETY: `g` is in `0..trajectories` and claimed once.
            unsafe { slots.write(g, f) }
        });
        samples
    }

    /// The mean fidelity of [`Estimator::samples`] and its standard
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is zero.
    pub fn estimate(&self, trajectories: usize, seed: u64) -> FidelityEstimate {
        FidelityEstimate::from_samples(&self.samples(trajectories, seed))
    }

    /// [`Estimator::estimate`] under health supervision: a trajectory
    /// whose fidelity is non-finite or out of range, or whose final norm
    /// grew, is quarantined instead of poisoning the mean, and the run
    /// stops early once the running standard error reaches
    /// [`HealthPolicy::target_std_error`]. Indices are claimed one at a
    /// time, so an early stop strands no static chunk. A fully healthy
    /// run without an early stop returns [`Estimator::estimate`] exactly.
    /// The estimate of a run that kept no sample is NaN.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is zero.
    pub fn supervised(
        &self,
        trajectories: usize,
        seed: u64,
        health: &HealthPolicy,
    ) -> (FidelityEstimate, RunHealth) {
        // NaN marks a slot that never produced a healthy sample (skipped
        // by early stop, or quarantined).
        let mut samples = vec![f64::NAN; trajectories];
        let slots = SharedSlots(samples.as_mut_ptr());
        let stop = AtomicBool::new(false);
        let quarantined = AtomicUsize::new(0);
        // Running (count, sum, sum of squares) over healthy samples, for
        // the early-stop standard-error check.
        let tally = Mutex::new((0usize, 0.0f64, 0.0f64));
        self.drive(trajectories, seed, &stop, |g, f, worker| {
            let norm = worker.noisy.norm();
            let healthy = f.is_finite()
                && norm.is_finite()
                && f >= -health.fidelity_tolerance
                && f <= 1.0 + health.fidelity_tolerance
                && norm <= 1.0 + health.max_norm_growth;
            if !healthy {
                quarantined.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // SAFETY: `g` is in `0..trajectories` and claimed once.
            unsafe { slots.write(g, f) };
            if let Some(target) = health.target_std_error {
                let mut t = tally.lock().unwrap_or_else(PoisonError::into_inner);
                t.0 += 1;
                t.1 += f;
                t.2 += f * f;
                if t.0 >= health.min_trajectories.max(2) {
                    let n = t.0 as f64;
                    let var = ((t.2 - t.1 * t.1 / n) / (n - 1.0)).max(0.0);
                    if (var / n).sqrt() <= target {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        samples.retain(|f| f.is_finite());
        let run = RunHealth {
            requested: trajectories,
            completed: samples.len(),
            quarantined: quarantined.into_inner(),
            early_stopped: stop.into_inner(),
        };
        (FidelityEstimate::from_samples(&samples), run)
    }

    /// The one pool loop: workers claim global trajectory indices one
    /// at a time, each carrying one [`Worker`] across the indices it
    /// claims, and hand every trajectory's fidelity and worker to
    /// `record`. Indices claimed after `stop` is set are skipped.
    fn drive(
        &self,
        trajectories: usize,
        seed: u64,
        stop: &AtomicBool,
        record: impl Fn(usize, f64, &Worker<S>) + Sync,
    ) {
        assert!(trajectories > 0, "need at least one trajectory");
        let schedule = self.schedule;
        let steps = StepTables::of(schedule, self.noise);
        let global;
        let pool = match self.pool {
            Some(pool) => pool,
            None => {
                global = TrajectoryPool::global();
                &global
            }
        };
        pool.run_units(
            trajectories,
            |_| Worker::new(schedule, &self.policy),
            |w: &mut Worker<S>, g| {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                #[cfg(feature = "fault-inject")]
                crate::fault::begin_trajectory(g);
                let mut rng = StdRng::seed_from_u64(trajectory_seed(seed, g));
                (self.write_initial)(schedule.first_register(), &mut rng, &mut w.initial);
                if !(w.ideal_cached && w.cached_initial == w.initial) {
                    ideal::run_schedule(
                        schedule,
                        &w.initial,
                        &mut w.ideal,
                        w.ideal_scratch.as_mut(),
                        &mut w.ws,
                    );
                    S::copy_input(&mut w.cached_initial, &w.initial);
                    w.ideal_cached = true;
                }
                run_noisy(
                    schedule,
                    &steps,
                    &w.initial,
                    self.noise,
                    &mut rng,
                    &mut w.noisy,
                    w.noisy_scratch.as_mut(),
                    &mut w.ws,
                );
                record(g, w.ideal.fidelity(&w.noisy), w);
            },
        );
    }
}

/// The buffers one pool worker reuses across its trajectories.
struct Worker<S: Representation> {
    ws: Workspace,
    initial: S::Input,
    /// The input `ideal` was last run from (valid once `ideal_cached`).
    cached_initial: S::Input,
    ideal_cached: bool,
    ideal: S,
    ideal_scratch: Option<S>,
    noisy: S,
    noisy_scratch: Option<S>,
}

impl<S: Representation> Worker<S> {
    fn new(schedule: Schedule, policy: &SparsePolicy) -> Self {
        Worker {
            ws: policy.workspace(),
            initial: S::zero_input(schedule.first_register()),
            cached_initial: S::zero_input(schedule.first_register()),
            ideal_cached: false,
            ideal: schedule.buffer(),
            ideal_scratch: schedule.scratch(),
            noisy: schedule.buffer(),
            noisy_scratch: schedule.scratch(),
        }
    }
}

/// [`Estimator::adaptive`]`(circuit, noise, policy, write_initial)`
/// estimated; kept for the benchmark harness.
pub fn average_fidelity_segmented_adaptive_with(
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &SparsePolicy,
    write_initial: impl Fn(&Register, &mut StdRng, &mut SparseState) + Sync,
) -> FidelityEstimate {
    Estimator::adaptive(circuit, noise, policy, write_initial).estimate(trajectories, seed)
}

/// [`average_fidelity_segmented_adaptive_with`] on `pool`; kept for the
/// benchmark harness.
pub fn average_fidelity_segmented_adaptive_with_on(
    pool: &TrajectoryPool,
    circuit: &SegmentedCircuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    policy: &SparsePolicy,
    write_initial: impl Fn(&Register, &mut StdRng, &mut SparseState) + Sync,
) -> FidelityEstimate {
    Estimator::adaptive(circuit, noise, policy, write_initial)
        .on(pool)
        .estimate(trajectories, seed)
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
        let a = Estimator::new(&tc, &noise).estimate(800, 11);
        let b = Estimator::new(&fused, &noise).estimate(800, 12);
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
        let est = Estimator::new(&fused, &NoiseModel::paper()).estimate(60, 3);
        assert!(est.mean < 0.8, "mean {} should collapse", est.mean);
    }

    #[test]
    fn perfect_gates_and_zero_time_give_unit_fidelity() {
        let tc = one_gate_circuit(1.0, 0.0);
        let est = Estimator::new(&tc, &NoiseModel::paper()).estimate(20, 42);
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
        let est = Estimator::new(&tc, &noise).estimate(600, 7);
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
        let est = Estimator::new(&tc, &NoiseModel::paper()).estimate(60, 3);
        assert!(est.mean < 0.75, "mean {} should collapse", est.mean);
    }

    #[test]
    fn busy_time_damping_penalizes_long_pulses() {
        // Same gate, 100x duration: fidelity must drop when busy-time
        // damping is on.
        let short = one_gate_circuit(1.0, 100.0);
        let long = one_gate_circuit(1.0, 100_000.0);
        let noise = NoiseModel::paper();
        let fs = Estimator::new(&short, &noise).estimate(200, 5).mean;
        let fl = Estimator::new(&long, &noise).estimate(200, 5).mean;
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
        let out_seg = run_trajectory(&seg, &initial, &noise, &mut rng);
        let out_whole = crate::ideal::run(&whole, &initial);
        let expanded = expand_to_whole(&out_seg, &whole.register);
        assert!((expanded.fidelity(&out_whole) - 1.0).abs() < 1e-12);
        // And the dedicated segmented ideal runner agrees.
        let ideal_seg = crate::ideal::run(&seg, &initial);
        assert!((ideal_seg.fidelity(&out_seg) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segmented_noisy_estimate_matches_whole_program_statistically() {
        let (seg, whole) = segmented_and_whole();
        let noise = NoiseModel::paper();
        let est_seg = Estimator::new(&seg, &noise).estimate(800, 5);
        let est_whole = Estimator::new(&whole, &noise).estimate(800, 6);
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
        let mut session = crate::Session::new(&seg);
        let mut rng = StdRng::seed_from_u64(41);
        let initial = State::random_qubit_product(seg.first_register(), &mut rng);
        let noise = NoiseModel::paper();
        let mut rng_a = StdRng::seed_from_u64(43);
        let mut rng_b = StdRng::seed_from_u64(43);
        let a = session
            .run_trajectory(&seg, &initial, &noise, &mut rng_a)
            .clone();
        let b = run_trajectory(&seg, &initial, &noise, &mut rng_b);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        // The second (ideal) run fully overwrites the first.
        let fresh = session.run_ideal(&seg, &initial).clone();
        let reference = crate::ideal::run(&seg, &initial);
        assert!((fresh.fidelity(&reference) - 1.0).abs() < 1e-12);
        assert!((session.last().fidelity(&reference) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segmented_trailing_idle_still_damps() {
        let (mut seg, _) = segmented_and_whole();
        seg.total_duration_ns = 10_000_000.0; // 10 ms >> T1
        let est = Estimator::new(&seg, &NoiseModel::paper()).estimate(60, 3);
        assert!(est.mean < 0.8, "mean {} should collapse", est.mean);
    }

    #[test]
    fn estimates_are_deterministic_for_fixed_seed() {
        let tc = one_gate_circuit(0.95, 300.0);
        let a = Estimator::new(&tc, &NoiseModel::paper()).estimate(40, 99);
        let b = Estimator::new(&tc, &NoiseModel::paper()).estimate(40, 99);
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
