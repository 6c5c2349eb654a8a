//! Amplitude-damping steps (the §6.5 channel, unraveled): the engine
//! primitives a step runs on, the one decision every engine takes, the
//! per-estimate step tables and the no-jump factors a running trajectory
//! has not applied yet, which the next op on a qudit takes into its own
//! coefficients. See the [`crate::trajectory`] module docs for what a
//! step costs.

use rand::Rng;
use waltz_noise::CoherenceModel;

/// Independent partial sums per level population: amplitude `i` adds
/// its `|a|²` into lane `i % POP_LANES` of its level, each lane in
/// ascending index order, and a level's lanes combine as
/// `(l0 + l1) + (l2 + l3)`. The order depends only on amplitude
/// indices, so the sparse engine, adding its stored amplitudes into the
/// same lanes (absent ones would add exact zeros), gets the same bits.
pub(crate) const POP_LANES: usize = 4;

/// Relative slack on the no-jump bound. A step's normalized jump
/// probability is `Σ λ_m P_m ≤ λ_max`; the slack covers the rounding of
/// the populations and of a sub-unit reference norm.
const JUMP_BOUND_SLACK: f64 = 1e-9;

/// Qudit dimensions whose per-step tables live on the stack. A register
/// admits up to 255 levels, so taller qudits spill to the heap.
const STACK_LEVELS: usize = 8;

/// The engine primitives of a damping step. The dense, sparse and
/// adaptive states implement them with the same arithmetic amplitude by
/// amplitude, so every engine takes the same branch from the same bits.
/// Public in a private module: it seals
/// [`crate::trajectory::Representation`].
pub trait DampingTarget {
    /// Levels of `qudit`.
    fn dim(&self, qudit: usize) -> usize;
    /// Adds each stored amplitude's `|a|²` into lane `i % POP_LANES` of
    /// its level on `qudit`, in ascending index order.
    fn add_level_populations(&self, qudit: usize, lanes: &mut [[f64; POP_LANES]]);
    /// Multiplies each amplitude by `factors[level]` of its level on
    /// `qudit`; `factors[0]` is 1, so the ground level keeps its bits.
    fn scale_levels(&mut self, qudit: usize, factors: &[f64]);
    /// The jump `K_m`: level `level` of `qudit` moves to ground and every
    /// other level is zeroed.
    fn collapse(&mut self, qudit: usize, level: usize);
    /// `‖ψ‖²` of the stored amplitudes, summed in [`POP_LANES`]
    /// index-keyed lanes.
    fn norm_sqr(&self) -> f64;
    /// Multiplies every amplitude by `factor` (a no-op for `1.0`).
    fn scale_amplitudes(&mut self, factor: f64);
}

/// A level population from its lanes.
pub(crate) fn lane_sum([a, b, c, d]: [f64; POP_LANES]) -> f64 {
    (a + b) + (c + d)
}

/// One value of `T` per level of a damping step, on the stack up to
/// [`STACK_LEVELS`] levels.
struct LevelTable<T> {
    stack: [T; STACK_LEVELS],
    heap: Vec<T>,
    dim: usize,
}

impl<T: Copy + Default> LevelTable<T> {
    fn zeros(dim: usize) -> Self {
        LevelTable {
            stack: [T::default(); STACK_LEVELS],
            heap: if dim > STACK_LEVELS {
                vec![T::default(); dim]
            } else {
                Vec::new()
            },
            dim,
        }
    }
}

impl<T> std::ops::Deref for LevelTable<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        if self.dim > STACK_LEVELS {
            &self.heap
        } else {
            &self.stack[..self.dim]
        }
    }
}

impl<T> std::ops::DerefMut for LevelTable<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.dim > STACK_LEVELS {
            &mut self.heap
        } else {
            &mut self.stack[..self.dim]
        }
    }
}

/// Fills `lambda[m] = λ_m` and `keep[m] = √(1−λ_m)` for a qudit of
/// `lambda.len()` levels damped for `dt_ns`. Returns `false` when the
/// step returns before drawing: `dt_ns <= 0` or every `λ_m == 0`.
fn fill_levels(model: &CoherenceModel, dt_ns: f64, lambda: &mut [f64], keep: &mut [f64]) -> bool {
    if dt_ns <= 0.0 {
        return false;
    }
    lambda[0] = 0.0;
    for (m, l) in lambda.iter_mut().enumerate().skip(1) {
        *l = model.lambda(m, dt_ns);
    }
    if lambda[1..].iter().all(|&l| l == 0.0) {
        return false;
    }
    for (k, &l) in keep.iter_mut().zip(lambda.iter()) {
        *k = (1.0 - l).sqrt();
    }
    true
}

/// The branch of a drawn step: `Some(m)` when level `m` decays to
/// ground, which it does with probability `λ_m · scale2 · P_m` (`P_m`
/// from the stored populations, `scale2` the inverse reference norm²),
/// `None` for no-jump. Also returns the norm² of the stored state the
/// branch leaves.
fn decide(
    lambda: &[f64],
    lanes: &[[f64; POP_LANES]],
    scale2: f64,
    roll: f64,
) -> (Option<usize>, f64) {
    let pop = |m: usize| lane_sum(lanes[m]);
    let jump = |m: usize| lambda[m] * (scale2 * pop(m));
    let total_jump: f64 = (1..lanes.len()).map(jump).sum();
    if roll < total_jump {
        let mut acc = 0.0;
        let mut level = 1;
        for m in 1..lanes.len() {
            acc += jump(m);
            if roll < acc {
                level = m;
                break;
            }
        }
        (Some(level), pop(level))
    } else {
        let kept = (0..lanes.len()).map(|m| (1.0 - lambda[m]) * pop(m));
        (None, kept.sum())
    }
}

/// One damping step that reads the populations and leaves a normalized
/// state: the public `damping_step(_with)` of every engine. Jump
/// probabilities are weighed by the stored populations as they are, so
/// a sub-unit input (after a lossy reshape) weighs them by its norm.
pub(crate) fn normalized_step<S: DampingTarget + ?Sized, R: Rng + ?Sized>(
    state: &mut S,
    model: &CoherenceModel,
    qudit: usize,
    dt_ns: f64,
    rng: &mut R,
) {
    let dim = state.dim(qudit);
    let (mut lambda, mut keep) = (LevelTable::zeros(dim), LevelTable::zeros(dim));
    if !fill_levels(model, dt_ns, &mut lambda, &mut keep) {
        return;
    }
    let roll: f64 = rng.gen();
    let mut lanes = LevelTable::zeros(dim);
    state.add_level_populations(qudit, &mut lanes);
    let (branch, norm2) = decide(&lambda, &lanes, 1.0, roll);
    match branch {
        Some(level) => state.collapse(qudit, level),
        None => state.scale_levels(qudit, &keep),
    }
    if norm2 > 0.0 {
        state.scale_amplitudes(1.0 / norm2.sqrt());
    }
}

/// One damping call of a trajectory.
#[derive(Debug, Clone, Copy)]
struct Step {
    qudit: usize,
    /// Levels of the damped qudit; 0 when the call returns before
    /// drawing.
    dim: usize,
    /// Offset of the step's `λ_m` and `√(1−λ_m)` in the level tables.
    at: usize,
    /// `λ_max · (1 + JUMP_BOUND_SLACK)`: no roll at or above it jumps.
    threshold: f64,
}

/// The damping calls of one schedule under one noise model, in the
/// order the runner makes them, each with its qudit, `λ_m`, `√(1−λ_m)`
/// and no-jump bound, or marked as returning before it draws. They
/// depend only on the schedule and the model, so an estimate builds
/// them once and its pool workers share them read-only.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepTables {
    steps: Vec<Step>,
    lambda: Vec<f64>,
    keep: Vec<f64>,
}

impl StepTables {
    /// Empties the tables, keeping their storage.
    pub(crate) fn clear(&mut self) {
        self.steps.clear();
        self.lambda.clear();
        self.keep.clear();
    }

    /// Appends the call that damps `qudit`, of `dim` levels, for `dt_ns`.
    pub(crate) fn push(&mut self, model: &CoherenceModel, qudit: usize, dim: usize, dt_ns: f64) {
        let at = self.lambda.len();
        self.lambda.resize(at + dim, 0.0);
        self.keep.resize(at + dim, 0.0);
        let step = if fill_levels(model, dt_ns, &mut self.lambda[at..], &mut self.keep[at..]) {
            let lambda_max = self.lambda[at..].iter().fold(0.0f64, |a, &b| a.max(b));
            Step {
                qudit,
                dim,
                at,
                threshold: lambda_max * (1.0 + JUMP_BOUND_SLACK),
            }
        } else {
            self.lambda.truncate(at);
            self.keep.truncate(at);
            Step {
                qudit,
                dim: 0,
                at,
                threshold: 0.0,
            }
        };
        self.steps.push(step);
    }

    /// Number of damping calls.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// Runs damping call `k`, on `qudit`, against `state`. The step
    /// draws its uniform first. A roll at or above the step's no-jump
    /// bound cannot jump, so it multiplies `√(1−λ_m)` into the qudit's
    /// pending factors and touches nothing else. A smaller roll applies
    /// every pending factor, reads the populations and decides as a
    /// step that normalizes would.
    ///
    /// # Panics
    ///
    /// Panics if call `k` of the tables damps another qudit: the runner
    /// and the tables walked the schedule differently.
    pub(crate) fn run<S: DampingTarget + ?Sized, R: Rng + ?Sized>(
        &self,
        k: usize,
        qudit: usize,
        state: &mut S,
        pending: &mut Pending,
        rng: &mut R,
    ) {
        let step = self.steps[k];
        assert_eq!(
            step.qudit, qudit,
            "damping call {k} differs from its step table"
        );
        if step.dim == 0 {
            return;
        }
        let levels = step.at..step.at + step.dim;
        let (lambda, keep) = (&self.lambda[levels.clone()], &self.keep[levels]);
        let roll: f64 = rng.gen();
        if roll < step.threshold {
            pending.flush_all(state);
            let mut lanes = LevelTable::zeros(step.dim);
            state.add_level_populations(qudit, &mut lanes);
            let scale2 = pending.jump_weight(|| lanes.iter().map(|&l| lane_sum(l)).sum());
            if let (Some(level), _) = decide(lambda, &lanes, scale2, roll) {
                state.collapse(qudit, level);
                pending.reference = None;
                return;
            }
        }
        pending.fold(qudit, keep);
    }
}

/// The no-jump factors a running trajectory has drawn but not applied,
/// per qudit and level, and the norm² its next read weighs jump
/// probabilities by. The true state is the stored amplitudes times the
/// pending factors, divided by the reference norm.
///
/// An op takes its operands' factors into its own coefficients
/// ([`Pending::take_block`]), a reshape that clips nothing carries them
/// onto the next register ([`Pending::carry`]), and a Pauli, a read, a
/// clipping reshape, the trajectory end and a dense block too large to
/// fold apply them in a pass per qudit ([`Pending::flush`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending {
    /// Qudit `q`'s factors are `factors[offsets[q]..offsets[q + 1]]`.
    factors: Vec<f64>,
    offsets: Vec<usize>,
    /// Bit `q` is set when qudit `q` has a factor other than 1.
    dirty: u64,
    /// Amplitudes of the register the factors are laid out for.
    amplitudes: usize,
    /// The factors before a carry, kept for their storage.
    carried: Vec<f64>,
    /// `None` when the state is normalized as of its last drawn step,
    /// so the reference is the stored norm² (with factors applied).
    /// `Some(r)` before the first drawn step (`r = 1`: the input is
    /// taken as it is), and after a lossy reshape removed population
    /// (`r` = the stored norm² before it), until the next drawn step.
    reference: Option<f64>,
}

impl Pending {
    /// Starts a trajectory on a register of `dims`: no pending factor,
    /// the input taken as it is.
    pub(crate) fn begin(&mut self, dims: &[u8]) {
        self.layout(dims);
        self.reference = Some(1.0);
    }

    /// Lays the factors out for a register of `dims`, all 1.
    fn layout(&mut self, dims: &[u8]) {
        assert!(dims.len() <= 64, "register too large for pending damping");
        self.offsets.clear();
        self.offsets.push(0);
        let mut end = 0;
        for &d in dims {
            end += d as usize;
            self.offsets.push(end);
        }
        self.factors.clear();
        self.factors.resize(end, 1.0);
        self.dirty = 0;
        self.amplitudes = amplitudes(dims);
    }

    /// Lays the factors out for a register of `dims` after a reshape of
    /// the stored amplitudes that clipped nothing: each qudit keeps the
    /// factors of the levels both registers have, and its new levels
    /// start at 1. The levels it drops held only zeros.
    pub(crate) fn carry(&mut self, dims: &[u8]) {
        if self.dirty == 0 {
            return self.layout(dims);
        }
        assert_eq!(
            dims.len() + 1,
            self.offsets.len(),
            "a reshape keeps the qudit count"
        );
        std::mem::swap(&mut self.factors, &mut self.carried);
        self.factors.clear();
        self.dirty = 0;
        let mut old_start = 0;
        for (q, &d) in dims.iter().enumerate() {
            let old = &self.carried[old_start..self.offsets[q + 1]];
            old_start = self.offsets[q + 1];
            let kept = &old[..old.len().min(d as usize)];
            if kept.iter().any(|&f| f != 1.0) {
                self.dirty |= 1 << q;
            }
            self.factors.extend_from_slice(kept);
            self.factors
                .resize(self.factors.len() + d as usize - kept.len(), 1.0);
            self.offsets[q + 1] = self.factors.len();
        }
        self.amplitudes = amplitudes(dims);
    }

    /// The amplitude count of the register the factors are laid out for.
    pub(crate) fn amplitudes(&self) -> usize {
        self.amplitudes
    }

    /// Whether any qudit has a pending factor.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty != 0
    }

    /// Whether any of `operands` has a pending factor.
    pub(crate) fn touches(&self, operands: &[usize]) -> bool {
        operands.iter().any(|&q| self.dirty & (1 << q) != 0)
    }

    /// Takes the pending factors of `operands` as the diagonal over
    /// their block into `diag` — entry `sub` the product of each
    /// operand's factor at its digit of `sub`, the last operand least
    /// significant, as [`crate::kernel::compute_offsets`] orders the
    /// block — and resets them to 1. The caller applies `diag` with the
    /// op that the operands belong to.
    pub(crate) fn take_block(&mut self, operands: &[usize], diag: &mut Vec<f64>) {
        diag.clear();
        diag.push(1.0);
        for &q in operands {
            let factors = &mut self.factors[self.offsets[q]..self.offsets[q + 1]];
            let (len, dim) = (diag.len(), factors.len());
            diag.resize(len * dim, 0.0);
            // From the top down, so each entry is read before its slots
            // are written.
            for i in (0..len).rev() {
                let above = diag[i];
                for (slot, &f) in diag[i * dim..(i + 1) * dim].iter_mut().zip(&*factors) {
                    *slot = above * f;
                }
            }
            factors.fill(1.0);
            self.dirty &= !(1 << q);
        }
    }

    /// Multiplies qudit `qudit`'s pending factors by a no-jump step's
    /// `keep`; the state is normalized as of this step.
    fn fold(&mut self, qudit: usize, keep: &[f64]) {
        let factors = &mut self.factors[self.offsets[qudit]..self.offsets[qudit + 1]];
        for (f, &k) in factors.iter_mut().zip(keep).skip(1) {
            *f *= k;
        }
        self.dirty |= 1 << qudit;
        self.reference = None;
    }

    /// Applies qudit `qudit`'s pending factors to `state`, if any.
    pub(crate) fn flush<S: DampingTarget + ?Sized>(&mut self, qudit: usize, state: &mut S) {
        if self.dirty & (1 << qudit) == 0 {
            return;
        }
        let factors = &mut self.factors[self.offsets[qudit]..self.offsets[qudit + 1]];
        state.scale_levels(qudit, factors);
        factors.fill(1.0);
        self.dirty &= !(1 << qudit);
    }

    /// Applies every pending factor, qudit by qudit in ascending order.
    pub(crate) fn flush_all<S: DampingTarget + ?Sized>(&mut self, state: &mut S) {
        while self.dirty != 0 {
            self.flush(self.dirty.trailing_zeros() as usize, state);
        }
    }

    /// The inverse reference norm² a drawn step weighs its jump
    /// probabilities by; `stored` gives the stored norm² when the
    /// reference is the current state. A zero reference weighs by 1.
    fn jump_weight(&self, stored: impl FnOnce() -> f64) -> f64 {
        let r = self.reference.unwrap_or_else(stored);
        if r > 0.0 {
            1.0 / r
        } else {
            1.0
        }
    }

    /// Lays the factors out for a register of `dims`, all 1, after a
    /// reshape that clipped population from `source`, whose factors were
    /// all applied first. When `source` was normalized as of its last
    /// drawn step, the reference becomes its norm² before the clip, so
    /// the next drawn step weighs its jump probabilities by the sub-unit
    /// norm that survived.
    pub(crate) fn clipped<S: DampingTarget + ?Sized>(&mut self, source: &S, dims: &[u8]) {
        if self.reference.is_none() {
            self.reference = Some(source.norm_sqr());
        }
        self.layout(dims);
    }

    /// Ends a trajectory: applies every pending factor and divides by
    /// the reference norm — read from the state when it is normalized as
    /// of its last drawn step; no pass at all when no step drew and
    /// nothing leaked.
    pub(crate) fn finish<S: DampingTarget + ?Sized>(&mut self, state: &mut S) {
        self.flush_all(state);
        let r = self.reference.unwrap_or_else(|| state.norm_sqr());
        if r > 0.0 {
            state.scale_amplitudes(1.0 / r.sqrt());
        }
    }
}

/// `Π dims`, saturating: the amplitude count of a register of `dims`.
fn amplitudes(dims: &[u8]) -> usize {
    dims.iter()
        .fold(1usize, |n, &d| n.saturating_mul(d as usize))
}
