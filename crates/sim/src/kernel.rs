//! Kernel-specialized gate application.
//!
//! Every unitary a compiled circuit applies is classified **once** (at
//! compile/schedule time, via [`GateKernel::classify`]) into the cheapest
//! apply strategy the simulator knows:
//!
//! * [`GateKernel::Identity`] — no-op (embedding often produces exact
//!   identities).
//! * [`GateKernel::Diagonal`] — CZ/CCZ and all phase gates: a pure phase
//!   sweep over the amplitudes, no scratch block, no matvec.
//! * [`GateKernel::Permutation`] — X/CX/CCX, routing swaps and the
//!   generalized Paulis: an in-place index remap along precomputed
//!   permutation cycles.
//! * [`GateKernel::SingleQudit`] / [`GateKernel::TwoQudit`] — small dense
//!   blocks applied through loops unrolled to their size.
//! * [`GateKernel::GeneralDense`] — the fallback dense block matvec.
//!
//! All paths share one run-major sweep over the configurations of the
//! non-operand qudits, run on the caller's thread: the
//! [`crate::TrajectoryPool`] is the simulator's parallelism, one
//! trajectory per worker.
//!
//! # The sweep
//!
//! The non-operand qudits split into chains: the runs of consecutive
//! non-operand qudits between operands. The lowest chain is the *run*,
//! a flat loop whose configurations lie a fixed step apart (one
//! contiguous span when the innermost qudit is not an operand). The
//! chains above it are the digits of an odometer that steps once per
//! run, its lowest digit counted apart so that a step without a carry
//! touches no array. The layout (`Sweep`) is built once per apply.
//!
//! Each body hoists what the op fixes out of its loops. Diagonals and
//! permutations go offset by offset and cycle by cycle over the whole
//! sweep, with the offsets and phases held throughout. Dense blocks
//! read their coefficients from the matrix in place. Structurally
//! sparse blocks run over a list of their nonzeros built once per apply,
//! so no test on a coefficient runs inside a sweep. The vector arms
//! ([`crate::simd`]) are inlined per block size (dense 2, 4 and 8, tiles
//! for 16 and up; sparse 4, 8 and 16), so their gather and row loops
//! unroll. Every
//! amplitude gets the same arithmetic in the same order as a
//! configuration-at-a-time sweep; `tests/kernel_parity.rs` pins each
//! arm to such a reference to the bit.
//!
//! The trajectory runner may hand an apply the op's coefficients with
//! the operands' pending damping factors folded in (`U·D`, see the
//! [`crate::trajectory`] module docs); they stay in the op's kernel
//! class and run through the same arms.
//!
//! Scratch that cannot live on the stack is borrowed from a reusable
//! [`Workspace`] so steady-state trajectory simulation performs no heap
//! allocation per gate.

use waltz_math::structure::{self, MatrixStructure};
use waltz_math::{Matrix, C64};

use crate::damping::{Pending, StepTables};
use crate::simd::{self, SimdLevel};
use crate::Register;

/// Entries with modulus at or below this are treated as structural zeros
/// during classification. Dropping them perturbs an output amplitude by
/// at most `block * 1e-14 <= 6.4e-13`, inside the 1e-12 parity budget.
pub const CLASSIFY_TOL: f64 = 1e-14;

/// Largest dense block applied through stack buffers (the vector arms,
/// the sparse gather-scatter); bigger blocks — beyond any gate this
/// workspace compiles, as three ququart operands give a block of 64 —
/// run the scalar body over workspace scratch.
pub(crate) const MAX_STACK_BLOCK: usize = 64;

/// Largest two-qudit dense block (two ququarts) classified as
/// [`GateKernel::TwoQudit`].
const MAX_TWO_QUDIT_BLOCK: usize = 16;

/// The specialized apply strategy chosen for one gate matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum GateKernel {
    /// The matrix is the identity: applying it is a no-op.
    Identity,
    /// Diagonal matrix: amplitude `sub` is scaled by `phases[sub]`.
    Diagonal {
        /// Per-basis-state scale factor (the diagonal).
        phases: Vec<C64>,
    },
    /// Phased permutation: basis state `j` maps to `perm[j]` with weight
    /// `phases[j]`. `cycles` is the cycle decomposition of `perm`
    /// (fixed points with unit phase omitted), precomputed so the apply
    /// walks each cycle in place with one temporary.
    Permutation {
        /// Destination basis state per source state.
        perm: Vec<usize>,
        /// Weight per source state.
        phases: Vec<C64>,
        /// Cycle decomposition of `perm`.
        cycles: Vec<Vec<usize>>,
    },
    /// Dense matrix on one qudit: unrolled loops for d = 2 and 4.
    SingleQudit,
    /// Dense matrix on two qudits with a block of at most 16.
    TwoQudit,
    /// No exploitable structure (or more than two operands): dense block
    /// matvec.
    GeneralDense,
}

impl GateKernel {
    /// Classifies a gate matrix for `n_operands` operand qudits.
    pub fn classify(u: &Matrix, n_operands: usize) -> GateKernel {
        match structure::classify(u, CLASSIFY_TOL) {
            MatrixStructure::Identity => GateKernel::Identity,
            MatrixStructure::Diagonal { phases } => GateKernel::Diagonal { phases },
            MatrixStructure::PhasedPermutation { perm, phases } => {
                let cycles = cycles_of(&perm, &phases);
                GateKernel::Permutation {
                    perm,
                    phases,
                    cycles,
                }
            }
            MatrixStructure::Dense => match n_operands {
                1 if u.rows() <= MAX_STACK_BLOCK => GateKernel::SingleQudit,
                2 if u.rows() <= MAX_TWO_QUDIT_BLOCK => GateKernel::TwoQudit,
                _ => GateKernel::GeneralDense,
            },
        }
    }

    /// Short class name, used in perf reports.
    pub fn name(&self) -> &'static str {
        match self {
            GateKernel::Identity => "identity",
            GateKernel::Diagonal { .. } => "diagonal",
            GateKernel::Permutation { .. } => "permutation",
            GateKernel::SingleQudit => "single-qudit",
            GateKernel::TwoQudit => "two-qudit",
            GateKernel::GeneralDense => "general-dense",
        }
    }
}

/// Cycle decomposition of a permutation. Fixed points are kept only when
/// their phase is not exactly 1 (they still need a scale).
fn cycles_of(perm: &[usize], phases: &[C64]) -> Vec<Vec<usize>> {
    let n = perm.len();
    let mut seen = vec![false; n];
    let mut cycles = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut cycle = vec![start];
        seen[start] = true;
        let mut j = perm[start];
        while j != start {
            seen[j] = true;
            cycle.push(j);
            j = perm[j];
        }
        if cycle.len() > 1 || phases[start] != C64::ONE {
            cycles.push(cycle);
        }
    }
    cycles
}

pub(crate) use coeffs::Coeffs;

/// `pub` inside a private module: the sealed
/// [`crate::trajectory::Representation`] takes [`Coeffs`] in a hidden
/// method, and the type stays unnameable outside the crate.
mod coeffs {
    use waltz_math::{Matrix, C64};

    use super::GateKernel;

    /// The coefficients one apply runs on, borrowed: an op's own
    /// ([`Coeffs::of`]) or the same kernel class with a diagonal folded in
    /// ([`super::Fold::coeffs`]). Every engine picks its arm from the class
    /// alone.
    #[derive(Clone, Copy)]
    pub enum Coeffs<'a> {
        /// The identity on a block of `block` states.
        Identity { block: usize },
        /// Amplitude `sub` of every operand block is scaled by `phases[sub]`.
        Diagonal { phases: &'a [C64] },
        /// `new[perm[j]] = phases[j] · old[j]`. The dense engine walks
        /// `cycles` and scales the `fixed` points the cycle list omits by
        /// their `fixed_phases`.
        Permutation {
            perm: &'a [usize],
            phases: &'a [C64],
            cycles: &'a [Vec<usize>],
            fixed: &'a [usize],
            fixed_phases: &'a [C64],
        },
        /// A row-major `block × block` matrix, `single` for a single-qudit
        /// kernel.
        Dense {
            m: &'a [C64],
            block: usize,
            single: bool,
        },
    }

    impl<'a> Coeffs<'a> {
        /// The coefficients of `kernel`, classified from `u`.
        pub fn of(kernel: &'a GateKernel, u: &'a Matrix) -> Self {
            let dense = |single| Coeffs::Dense {
                m: u.as_slice(),
                block: u.rows(),
                single,
            };
            match kernel {
                GateKernel::Identity => Coeffs::Identity { block: u.rows() },
                GateKernel::Diagonal { phases } => Coeffs::Diagonal { phases },
                GateKernel::Permutation {
                    perm,
                    phases,
                    cycles,
                } => Coeffs::Permutation {
                    perm,
                    phases,
                    cycles,
                    fixed: &[],
                    fixed_phases: &[],
                },
                GateKernel::SingleQudit => dense(true),
                GateKernel::TwoQudit | GateKernel::GeneralDense => dense(false),
            }
        }

        /// The number of states in the operand block.
        pub fn block(&self) -> usize {
            match *self {
                Coeffs::Identity { block } | Coeffs::Dense { block, .. } => block,
                Coeffs::Diagonal { phases } => phases.len(),
                Coeffs::Permutation { perm, .. } => perm.len(),
            }
        }
    }
}

/// An op's coefficients times a real diagonal `D` on the right, `U·D`,
/// in the op's own kernel class: the identity becomes `D`, a diagonal
/// `phases∘D`, a permutation `phases∘D` plus the unit-phase fixed points
/// `D` scales, a dense block its columns scaled by `D`. The buffers
/// keep their size across ops.
#[derive(Debug, Clone, Default)]
pub(crate) struct Fold {
    /// `D` over the operand block, in [`compute_offsets`] order.
    pub(crate) diag: Vec<f64>,
    coeffs: Vec<C64>,
    fixed: Vec<usize>,
    fixed_phases: Vec<C64>,
}

impl Fold {
    /// The coefficients of `kernel` (classified from `u`) with
    /// [`Fold::diag`] folded in.
    ///
    /// # Panics
    ///
    /// Panics if the diagonal does not span `u`'s block.
    pub(crate) fn coeffs<'a>(&'a mut self, kernel: &'a GateKernel, u: &'a Matrix) -> Coeffs<'a> {
        let d = &self.diag;
        assert_eq!(d.len(), u.rows(), "folded diagonal does not match the op");
        let scaled = |p: &'a [C64]| p.iter().zip(d).map(|(&p, &x)| p * x);
        self.coeffs.clear();
        match kernel {
            GateKernel::Identity => {
                self.coeffs.extend(d.iter().map(|&x| C64::real(x)));
                Coeffs::Diagonal {
                    phases: &self.coeffs,
                }
            }
            GateKernel::Diagonal { phases } => {
                self.coeffs.extend(scaled(phases));
                Coeffs::Diagonal {
                    phases: &self.coeffs,
                }
            }
            GateKernel::Permutation {
                perm,
                phases,
                cycles,
            } => {
                self.coeffs.extend(scaled(phases));
                self.fixed.clear();
                self.fixed.extend(
                    (0..d.len()).filter(|&j| perm[j] == j && phases[j] == C64::ONE && d[j] != 1.0),
                );
                self.fixed_phases.clear();
                self.fixed_phases
                    .extend(self.fixed.iter().map(|&j| self.coeffs[j]));
                Coeffs::Permutation {
                    perm,
                    phases: &self.coeffs,
                    cycles,
                    fixed: &self.fixed,
                    fixed_phases: &self.fixed_phases,
                }
            }
            GateKernel::SingleQudit | GateKernel::TwoQudit | GateKernel::GeneralDense => {
                for row in u.as_slice().chunks_exact(d.len()) {
                    self.coeffs.extend(scaled(row));
                }
                Coeffs::Dense {
                    m: &self.coeffs,
                    block: d.len(),
                    single: matches!(kernel, GateKernel::SingleQudit),
                }
            }
        }
    }
}

/// Reusable scratch for the specialized apply paths and the trajectory
/// runner. Holding one per worker thread makes the per-gate hot path
/// allocation-free in steady state: every buffer is cleared and refilled
/// in place, never reallocated once it has reached its working size.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Amplitude offset of each operand-block configuration.
    pub(crate) offsets: Vec<usize>,
    /// Amplitude offsets of the fixed points a permutation with folded
    /// damping scales.
    pub(crate) fixed_offsets: Vec<usize>,
    /// Structural nonzeros of the current dense block (see
    /// [`Nonzeros`]).
    pub(crate) nz_entries: Vec<(usize, C64)>,
    pub(crate) nz_ends: Vec<usize>,
    /// Gathered block of the scalar dense body.
    pub(crate) scratch: Vec<C64>,
    /// Per-qudit busy-until times (trajectory runner).
    pub(crate) free_at: Vec<f64>,
    /// No-jump damping factors the running trajectory has not applied
    /// yet (trajectory runner).
    pub(crate) pending: Pending,
    /// Step tables of the single-trajectory entry points, rebuilt per
    /// call; estimates build theirs once and share them.
    pub(crate) steps: StepTables,
    /// An op's coefficients with pending damping folded in (trajectory
    /// runner).
    pub(crate) fold: Fold,
    /// The SIMD tier the sweep bodies run at.
    pub(crate) simd: SimdLevel,
    /// nnz/amps ratio above which an adaptive state switches sparse →
    /// dense (see [`crate::sparse::AdaptiveState`]).
    pub(crate) sparse_density_threshold: f64,
    /// Truncation epsilon for sparse entry rebuilds (`0.0` = lossless).
    pub(crate) sparse_epsilon: f64,
    /// Sparse gather-scatter scratch: (coset base, operand sub, amp).
    pub(crate) sparse_gather: Vec<(u64, u32, C64)>,
    /// Sparse rebuilt-entry scratch.
    pub(crate) sparse_out: Vec<(u64, C64)>,
}

impl Workspace {
    /// A workspace at the detected SIMD tier with the default sparse
    /// knobs. Its sweeps run on the caller's thread.
    pub fn new() -> Self {
        Workspace {
            offsets: Vec::new(),
            fixed_offsets: Vec::new(),
            nz_entries: Vec::new(),
            nz_ends: Vec::new(),
            scratch: Vec::new(),
            free_at: Vec::new(),
            pending: Pending::default(),
            steps: StepTables::default(),
            fold: Fold::default(),
            simd: SimdLevel::detect(),
            sparse_density_threshold: crate::sparse::DEFAULT_SPARSE_DENSITY_THRESHOLD,
            sparse_epsilon: 0.0,
            sparse_gather: Vec::new(),
            sparse_out: Vec::new(),
        }
    }

    /// Starts a trajectory on `register`: every device free at time 0
    /// and no pending damping factor.
    pub(crate) fn begin_trajectory(&mut self, register: &Register) {
        self.free_at.clear();
        self.free_at.resize(register.n_qudits(), 0.0);
        self.pending.begin(register.dims());
    }

    /// The same workspace as [`Workspace::new`] (sweeps never split
    /// across threads); kept for callers that name the serial intent.
    pub fn serial() -> Self {
        Workspace::new()
    }

    /// The amplitude count at which a sweep would split across threads:
    /// always `usize::MAX` — sweeps never split. Kept so runtime reports
    /// can keep printing the resolved value.
    pub fn par_min_amps(&self) -> usize {
        usize::MAX
    }

    /// The SIMD tier this workspace's sweep bodies run at
    /// ([`SimdLevel::detect`] at construction).
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Pins this workspace's sweep bodies to `level` — the knob the
    /// parity tests use to compare the vector arms against the scalar
    /// fallback in one process. Requests above what the host supports
    /// are clamped down to [`SimdLevel::detect`].
    pub fn set_simd_level(&mut self, level: SimdLevel) {
        self.simd = if level.accelerated() && !SimdLevel::detect().accelerated() {
            SimdLevel::Scalar
        } else {
            level
        };
    }

    /// The nnz/amps density above which an adaptive state through this
    /// workspace switches sparse → dense
    /// ([`crate::sparse::DEFAULT_SPARSE_DENSITY_THRESHOLD`] by default).
    pub fn sparse_density_threshold(&self) -> f64 {
        self.sparse_density_threshold
    }

    /// Overrides the sparse → dense density threshold (clamped to be
    /// non-negative; `0.0` densifies on first apply, anything above
    /// `1.0` never densifies).
    pub fn set_sparse_density_threshold(&mut self, threshold: f64) {
        self.sparse_density_threshold = threshold.max(0.0);
    }

    /// The truncation epsilon the sparse rebuild arms apply through
    /// this workspace (`0.0` by default — exact zeros only, lossless).
    pub fn sparse_epsilon(&self) -> f64 {
        self.sparse_epsilon
    }

    /// Overrides the sparse truncation epsilon (clamped to be
    /// non-negative).
    pub fn set_sparse_epsilon(&mut self, epsilon: f64) {
        self.sparse_epsilon = epsilon.max(0.0);
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

/// Fills `offsets` with the amplitude offset of every operand-block
/// configuration (last operand least significant) and returns the block
/// size. The offsets are counted up digit by digit, with no division.
pub(crate) fn compute_offsets(
    reg: &Register,
    operands: &[usize],
    offsets: &mut Vec<usize>,
) -> usize {
    let block: usize = operands.iter().map(|&q| reg.dim(q)).product();
    assert!(operands.len() <= MAX_QUDITS, "too many operands");
    offsets.clear();
    let mut digits = [0usize; MAX_QUDITS];
    let mut off = 0usize;
    for _ in 0..block {
        offsets.push(off);
        for (pos, &q) in operands.iter().enumerate().rev() {
            digits[pos] += 1;
            off += reg.stride(q);
            if digits[pos] < reg.dim(q) {
                break;
            }
            off -= digits[pos] * reg.stride(q);
            digits[pos] = 0;
        }
    }
    block
}

/// Largest register (in qudits) the sweep's stack-allocated mixed-radix
/// counters support; a 64-qubit register is already far past state-vector
/// reach.
pub(crate) const MAX_QUDITS: usize = 64;

/// Most chains of non-operand qudits a sweep can have: one more than
/// its operands. Sixteen operands of dimension >= 2 already need a
/// 2^16-dimensional matrix (64 GiB dense), far past any gate the
/// simulator can hold.
const MAX_CHAINS: usize = 16;

/// The run-major layout of one sweep over the configurations of the
/// non-operand qudits.
///
/// The non-operand qudits split into *chains*: maximal runs of
/// consecutive non-operand qudits between operands. A chain is one
/// digit of `dim = ∏ dims` at the stride of its least significant
/// qudit. The lowest chain is the *run*: its `run` configurations lie
/// `step` amplitudes apart — one contiguous span when the innermost
/// qudit is not an operand. Only the chains above it form an odometer,
/// and [`Sweep::bases`] steps it once per run, so every sweep body is
/// a flat loop over a run inside a short outer walk.
#[derive(Debug)]
pub(crate) struct Sweep {
    /// Outer digits (the chains above the run), most significant first.
    dims: [usize; MAX_CHAINS],
    strides: [usize; MAX_CHAINS],
    digits: usize,
    /// Runs in the sweep: the product of the outer digits.
    runs: usize,
    /// Configurations per run.
    pub(crate) run: usize,
    /// Amplitudes between consecutive configurations of a run.
    pub(crate) step: usize,
    /// Whether the vector arms take the sweep: the innermost qudit is
    /// not an operand and has even dimension, so every run is a
    /// contiguous span of an even number of amplitudes.
    pub(crate) pairs: bool,
}

impl Sweep {
    /// The layout of a sweep of `reg` around `operands`.
    pub(crate) fn new(reg: &Register, operands: &[usize]) -> Sweep {
        let n = reg.n_qudits();
        assert!(n <= MAX_QUDITS, "register too large for sweep");
        let operand_mask = operands.iter().fold(0u64, |m, &q| m | 1 << q);
        let mut dims = [0usize; MAX_CHAINS];
        let mut strides = [0usize; MAX_CHAINS];
        let mut chains = 0usize;
        let mut open = false;
        for q in 0..n {
            if operand_mask & (1 << q) != 0 {
                open = false;
                continue;
            }
            if !open {
                assert!(chains < MAX_CHAINS, "too many operands for sweep");
                dims[chains] = 1;
                chains += 1;
                open = true;
            }
            dims[chains - 1] *= reg.dim(q);
            strides[chains - 1] = reg.stride(q);
        }
        let (run, step) = match chains {
            0 => (1, 1),
            _ => {
                chains -= 1;
                (dims[chains], strides[chains])
            }
        };
        Sweep {
            dims,
            strides,
            digits: chains,
            runs: dims[..chains].iter().product(),
            run,
            step,
            pairs: open && reg.dim(n - 1).is_multiple_of(2),
        }
    }

    /// The amplitude offset of the first configuration of every run.
    pub(crate) fn bases(&self) -> Bases<'_> {
        let (low_dim, low_stride) = match self.digits {
            0 => (1, 0),
            d => (self.dims[d - 1], self.strides[d - 1]),
        };
        Bases {
            sweep: self,
            low: 0,
            low_dim,
            low_stride,
            counter: [0; MAX_CHAINS],
            base: 0,
            left: self.runs,
        }
    }
}

/// The odometer behind [`Sweep::bases`]: amortized O(1) per run, no
/// division. The lowest outer digit is counted apart from the others,
/// so a step that does not carry touches no array.
pub(crate) struct Bases<'a> {
    sweep: &'a Sweep,
    low: usize,
    low_dim: usize,
    low_stride: usize,
    counter: [usize; MAX_CHAINS],
    base: usize,
    left: usize,
}

impl Iterator for Bases<'_> {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let base = self.base;
        self.low += 1;
        self.base += self.low_stride;
        if self.low == self.low_dim {
            self.low = 0;
            self.base -= self.low_dim * self.low_stride;
            let s = self.sweep;
            for pos in (0..s.digits.saturating_sub(1)).rev() {
                self.counter[pos] += 1;
                self.base += s.strides[pos];
                if self.counter[pos] < s.dims[pos] {
                    break;
                }
                self.counter[pos] = 0;
                self.base -= s.dims[pos] * s.strides[pos];
            }
        }
        Some(base)
    }
}

/// Raw amplitude pointer the sweep bodies read and write through. Every
/// `base + offset` a sweep forms is the index of one basis state of the
/// register — non-operand digits from `base`, operand digits from
/// `offset` — so the unchecked accesses stay in bounds.
#[derive(Clone, Copy)]
pub(crate) struct SharedAmps(*mut C64);

impl SharedAmps {
    /// Pointer to amplitude `idx`.
    ///
    /// # Safety
    ///
    /// `idx` must be in bounds of the amplitude vector the pointer was
    /// taken from, and that vector must outlive the access.
    pub(crate) unsafe fn at(self, idx: usize) -> *mut C64 {
        unsafe { self.0.add(idx) }
    }
}

/// The structural nonzeros of a dense block, row by row: row `r`'s
/// `(column, coefficient)` pairs are `entries[ends[r - 1]..ends[r]]`,
/// in ascending column order.
#[derive(Clone, Copy)]
pub(crate) struct Nonzeros<'a> {
    pub(crate) entries: &'a [(usize, C64)],
    pub(crate) ends: &'a [usize],
}

/// Lists the nonzeros of the row-major `block × block` matrix `m` into
/// the workspace buffers, or returns `None` when it has no zero (a fully
/// dense block).
fn nonzeros<'a>(
    m: &[C64],
    block: usize,
    entries: &'a mut Vec<(usize, C64)>,
    ends: &'a mut Vec<usize>,
) -> Option<Nonzeros<'a>> {
    if !m.contains(&C64::ZERO) {
        return None;
    }
    entries.clear();
    ends.clear();
    for row in m.chunks_exact(block) {
        entries.extend(
            row.iter()
                .enumerate()
                .filter(|(_, &c)| c != C64::ZERO)
                .map(|(col, &c)| (col, c)),
        );
        ends.push(entries.len());
    }
    Some(Nonzeros { entries, ends })
}

/// Applies `kernel` (classified from `u`) to the operand qudits of a raw
/// amplitude vector. `u` must be the matrix the kernel was classified
/// from; the dense kernels read their coefficients from it.
///
/// # Panics
///
/// Panics if the matrix dimension does not match the operand dimensions
/// or an operand repeats.
pub(crate) fn apply(
    amps: &mut [C64],
    reg: &Register,
    kernel: &GateKernel,
    u: &Matrix,
    operands: &[usize],
    ws: &mut Workspace,
) {
    apply_coeffs(amps, reg, Coeffs::of(kernel, u), operands, ws);
}

/// Asserts that `operands` are distinct and span a block of `block`
/// states. The sweeps' unchecked writes stay in bounds only then.
pub(crate) fn check_operands(reg: &Register, block: usize, operands: &[usize]) {
    for (i, a) in operands.iter().enumerate() {
        for b in operands.iter().skip(i + 1) {
            assert_ne!(a, b, "operands must be distinct");
        }
    }
    let dims_product: usize = operands.iter().map(|&q| reg.dim(q)).product();
    assert_eq!(block, dims_product, "unitary does not match operand dims");
}

/// Applies `coeffs` to the operand qudits through the arm of their
/// kernel class.
///
/// # Panics
///
/// Panics if the block does not match the operand dimensions or an
/// operand repeats.
pub(crate) fn apply_coeffs(
    amps: &mut [C64],
    reg: &Register,
    coeffs: Coeffs<'_>,
    operands: &[usize],
    ws: &mut Workspace,
) {
    check_operands(reg, coeffs.block(), operands);
    if let Coeffs::Identity { .. } = coeffs {
        return;
    }

    // Fast path: diagonal on a single qudit is a contiguous slice scale.
    if let (Coeffs::Diagonal { phases }, [q]) = (coeffs, operands) {
        return apply_diagonal_single(amps, reg, phases, *q, ws.simd);
    }

    let block = compute_offsets(reg, operands, &mut ws.offsets);
    let sweep = Sweep::new(reg, operands);
    let shared = SharedAmps(amps.as_mut_ptr());
    let offsets: &[usize] = &ws.offsets;
    let ctx = simd::SweepCtx {
        sweep: &sweep,
        offsets,
        shared,
        level: ws.simd,
    };

    match coeffs {
        Coeffs::Identity { .. } => {}
        Coeffs::Diagonal { phases } => diagonal_sweep(&ctx, phases),
        Coeffs::Permutation {
            cycles,
            phases,
            fixed,
            fixed_phases,
            ..
        } => {
            if !simd::perm_sweep(&ctx, cycles, phases) {
                for cycle in cycles {
                    // SAFETY: every base + offset is in bounds (see SharedAmps).
                    unsafe { walk_cycle(shared, &sweep, offsets, cycle, phases) };
                }
            }
            if !fixed.is_empty() {
                // The fixed points the cycle list omits, in one sweep:
                // each amplitude gets the one product a cycle of one
                // would give it.
                ws.fixed_offsets.clear();
                ws.fixed_offsets.extend(fixed.iter().map(|&j| offsets[j]));
                let ctx = simd::SweepCtx {
                    offsets: &ws.fixed_offsets,
                    ..ctx
                };
                diagonal_sweep(&ctx, fixed_phases);
            }
        }
        Coeffs::Dense { m, single, .. } => {
            let nz = nonzeros(m, block, &mut ws.nz_entries, &mut ws.nz_ends);
            if simd::dense_sweep(&ctx, m, nz) {
                return;
            }
            match (single, block) {
                (true, 2) => single_qubit_sweep(&sweep, shared, offsets, m),
                (true, 4) => single_ququart_sweep(&sweep, shared, offsets, m),
                _ => dense_block_sweep(&sweep, shared, offsets, m, nz, &mut ws.scratch),
            }
        }
    }
}

/// Multiplies the configurations at `ctx.offsets[i]` of the sweep by
/// `phases[i]`, through the vector arm when it takes the sweep.
fn diagonal_sweep(ctx: &simd::SweepCtx<'_>, phases: &[C64]) {
    if simd::diag_sweep(ctx, phases) {
        return;
    }
    // Configuration by configuration: on an op whose innermost qudit is
    // an operand, a pass per offset would stride over every cache line
    // of the state once per offset.
    let sweep = ctx.sweep;
    for base in sweep.bases() {
        for k in 0..sweep.run {
            let b = base + k * sweep.step;
            for (&off, &phase) in ctx.offsets.iter().zip(phases) {
                // SAFETY: every base + offset is in bounds (see SharedAmps).
                unsafe { *ctx.shared.at(b + off) *= phase };
            }
        }
    }
}

/// Scalar 2×2 block: `m00 * a0 + m01 * a1` per output, the coefficients
/// and offsets held in locals for the whole sweep.
fn single_qubit_sweep(sweep: &Sweep, shared: SharedAmps, offsets: &[usize], m: &[C64]) {
    let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);
    let (o0, o1) = (offsets[0], offsets[1]);
    for base in sweep.bases() {
        for k in 0..sweep.run {
            let b = base + k * sweep.step;
            // SAFETY: every base + offset is in bounds (see SharedAmps).
            unsafe {
                let p0 = shared.at(b + o0);
                let p1 = shared.at(b + o1);
                let (a0, a1) = (*p0, *p1);
                *p0 = m00 * a0 + m01 * a1;
                *p1 = m10 * a0 + m11 * a1;
            }
        }
    }
}

/// Scalar 4×4 block: each output the left-to-right sum of its four
/// products.
fn single_ququart_sweep(sweep: &Sweep, shared: SharedAmps, offsets: &[usize], m: &[C64]) {
    let mut c = [C64::ZERO; 16];
    c.copy_from_slice(m);
    let o: [usize; 4] = offsets.try_into().expect("4 offsets");
    for base in sweep.bases() {
        for k in 0..sweep.run {
            let b = base + k * sweep.step;
            // SAFETY: every base + offset is in bounds (see SharedAmps).
            unsafe {
                let p = o.map(|off| shared.at(b + off));
                let a = p.map(|p| *p);
                for (row, &pr) in p.iter().enumerate() {
                    let r = &c[4 * row..4 * row + 4];
                    *pr = r[0] * a[0] + r[1] * a[1] + r[2] * a[2] + r[3] * a[3];
                }
            }
        }
    }
}

/// Dense block matvec: each configuration's block is gathered once into
/// `scratch`, every row accumulated from zero in column order, and the
/// results scattered back.
///
/// Fully dense blocks (Haar unitaries, fused products) run a branchless
/// multiply-accumulate chain over every column. Blocks with structural
/// zeros — embedded qubit gates on ququart pairs are mostly zeros — run
/// over their [`Nonzeros`] list instead, which skips exactly the zero
/// coefficients without a test inside the sweep. The branchless form is
/// what fixed the `gate_apply_4pow8.two-qudit` regression: an
/// always-taken zero test cost more than it saved (0.78x in
/// `BENCH_sim.json` v4).
fn dense_block_sweep(
    sweep: &Sweep,
    shared: SharedAmps,
    offsets: &[usize],
    m: &[C64],
    nz: Option<Nonzeros<'_>>,
    scratch: &mut Vec<C64>,
) {
    let block = offsets.len();
    scratch.clear();
    scratch.resize(block, C64::ZERO);
    for base in sweep.bases() {
        for k in 0..sweep.run {
            let b = base + k * sweep.step;
            // SAFETY: every base + offset is in bounds (see SharedAmps).
            unsafe {
                for (s, &off) in scratch.iter_mut().zip(offsets) {
                    *s = *shared.at(b + off);
                }
                match nz {
                    None => {
                        for (row, &off) in m.chunks_exact(block).zip(offsets) {
                            let mut acc = C64::ZERO;
                            for (&coeff, &amp) in row.iter().zip(scratch.iter()) {
                                acc += coeff * amp;
                            }
                            *shared.at(b + off) = acc;
                        }
                    }
                    Some(nz) => {
                        let mut start = 0;
                        for (&end, &off) in nz.ends.iter().zip(offsets) {
                            let mut acc = C64::ZERO;
                            for &(col, coeff) in &nz.entries[start..end] {
                                acc += coeff * scratch[col];
                            }
                            start = end;
                            *shared.at(b + off) = acc;
                        }
                    }
                }
            }
        }
    }
}

/// Multiplies the configurations at offset `off` of every run by
/// `phase`.
///
/// # Safety
///
/// `base + off + k * sweep.step` must be in bounds for every sweep base
/// and `k < sweep.run`.
#[inline(always)]
unsafe fn scale_runs(amps: SharedAmps, sweep: &Sweep, off: usize, phase: C64) {
    for base in sweep.bases() {
        for k in 0..sweep.run {
            unsafe { *amps.at(base + off + k * sweep.step) *= phase };
        }
    }
}

/// Walks one permutation cycle in place over the whole sweep:
/// `new[perm[j]] = phases[j] * old[j]` for the cycle's members, with the
/// cycle's offsets and phases held throughout.
///
/// # Safety
///
/// `base + offsets[c] + k * sweep.step` must be in bounds for every
/// sweep base, cycle member and `k < sweep.run`.
unsafe fn walk_cycle(
    amps: SharedAmps,
    sweep: &Sweep,
    offsets: &[usize],
    cycle: &[usize],
    phases: &[C64],
) {
    let (run, step) = (sweep.run, sweep.step);
    unsafe {
        match *cycle {
            [only] => scale_runs(amps, sweep, offsets[only], phases[only]),
            [a, b] => {
                let (oa, ob) = (offsets[a], offsets[b]);
                let (pa, pb) = (phases[a], phases[b]);
                for base in sweep.bases() {
                    for k in 0..run {
                        let b = base + k * step;
                        let (pa_at, pb_at) = (amps.at(b + oa), amps.at(b + ob));
                        let tmp = *pb_at;
                        *pb_at = pa * *pa_at;
                        *pa_at = pb * tmp;
                    }
                }
            }
            _ => {
                let last = cycle[cycle.len() - 1];
                for base in sweep.bases() {
                    for k in 0..run {
                        let b = base + k * step;
                        let tmp = *amps.at(b + offsets[last]);
                        for j in (1..cycle.len()).rev() {
                            let from = cycle[j - 1];
                            *amps.at(b + offsets[cycle[j]]) =
                                phases[from] * *amps.at(b + offsets[from]);
                        }
                        *amps.at(b + offsets[cycle[0]]) = phases[last] * tmp;
                    }
                }
            }
        }
    }
}

/// Diagonal gate on one qudit: scale contiguous level slices in place.
fn apply_diagonal_single(
    amps: &mut [C64],
    reg: &Register,
    phases: &[C64],
    q: usize,
    level: SimdLevel,
) {
    let stride = reg.stride(q);
    if simd::scale_diag_chunk(level, amps, phases, stride) {
        return;
    }
    for block in amps.chunks_exact_mut(stride * reg.dim(q)) {
        for (lvl, &phase) in phases.iter().enumerate() {
            if phase == C64::ONE {
                continue;
            }
            for a in &mut block[lvl * stride..(lvl + 1) * stride] {
                *a *= phase;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_names_every_class() {
        use waltz_math::C64;
        let id = Matrix::identity(4);
        assert_eq!(GateKernel::classify(&id, 1).name(), "identity");
        let cz = Matrix::from_diag(&[C64::ONE, C64::ONE, C64::ONE, -C64::ONE]);
        assert_eq!(GateKernel::classify(&cz, 2).name(), "diagonal");
        let x = Matrix::permutation(&[1, 0]);
        assert_eq!(GateKernel::classify(&x, 1).name(), "permutation");
        let h = Matrix::from_rows(&[
            vec![
                C64::real(std::f64::consts::FRAC_1_SQRT_2),
                C64::real(std::f64::consts::FRAC_1_SQRT_2),
            ],
            vec![
                C64::real(std::f64::consts::FRAC_1_SQRT_2),
                C64::real(-std::f64::consts::FRAC_1_SQRT_2),
            ],
        ]);
        assert_eq!(GateKernel::classify(&h, 1).name(), "single-qudit");
        let hh = h.kron(&h);
        assert_eq!(GateKernel::classify(&hh, 2).name(), "two-qudit");
        let hhh = hh.kron(&h);
        assert_eq!(GateKernel::classify(&hhh, 3).name(), "general-dense");
    }

    #[test]
    fn cycle_decomposition_skips_trivial_fixed_points() {
        // perm = [1, 0, 2] with unit phases: one 2-cycle, fixed point 2
        // dropped.
        let phases = vec![C64::ONE; 3];
        let cycles = cycles_of(&[1, 0, 2], &phases);
        assert_eq!(cycles, vec![vec![0, 1]]);
        // A phased fixed point is kept.
        let cycles = cycles_of(&[1, 0, 2], &[C64::ONE, C64::ONE, C64::I]);
        assert_eq!(cycles, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn sweep_merges_non_operand_chains_around_the_run() {
        let reg = Register::new(vec![2, 4, 2, 3, 4]);
        // Operands 1 and 3: chains {0}, {2} and the run {4}.
        let sweep = Sweep::new(&reg, &[3, 1]);
        assert_eq!((sweep.run, sweep.step, sweep.pairs), (4, 1, true));
        assert_eq!(sweep.bases().collect::<Vec<_>>(), vec![0, 12, 96, 108]);
        // Operand 4 is innermost: the run is the chain {2, 3}, strided.
        let sweep = Sweep::new(&reg, &[4, 0]);
        assert_eq!((sweep.run, sweep.step, sweep.pairs), (24, 4, false));
        assert_eq!(sweep.bases().collect::<Vec<_>>(), vec![0]);
        // An odd innermost dimension cannot pair.
        let reg = Register::new(vec![2, 3]);
        let sweep = Sweep::new(&reg, &[0]);
        assert_eq!((sweep.run, sweep.pairs), (3, false));
        // Every qudit an operand: one configuration.
        let sweep = Sweep::new(&reg, &[1, 0]);
        assert_eq!((sweep.run, sweep.bases().count()), (1, 1));
    }

    #[test]
    fn offsets_enumerate_operand_configurations() {
        let reg = Register::new(vec![2, 4, 2]);
        let mut offsets = Vec::new();
        // Operands (2, 1): block = 2 * 4, offset = d2 * 4? No: operand
        // order (2, 1) means qudit 2 is the most significant digit.
        let block = compute_offsets(&reg, &[2, 1], &mut offsets);
        assert_eq!(block, 8);
        // sub = (digit2, digit1): offset = digit2 * stride(2) + digit1 * stride(1).
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[1], reg.stride(1));
        assert_eq!(offsets[4], reg.stride(2));
    }
}
