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
//!   blocks applied through unrolled stride-aware loops on stack buffers.
//! * [`GateKernel::GeneralDense`] — the fallback dense block matvec.
//!
//! All paths share one sweep over the configurations of the non-operand
//! qudits, run on the caller's thread: the [`crate::TrajectoryPool`] is
//! the simulator's parallelism, one trajectory per worker. Scratch that
//! cannot live on the stack is borrowed from a reusable [`Workspace`] so
//! steady-state trajectory simulation performs no heap allocation per
//! gate.

use waltz_math::structure::{self, MatrixStructure};
use waltz_math::{Matrix, C64};

use crate::damping::{Pending, StepTables};
use crate::simd::{self, SimdLevel};
use crate::Register;

/// Entries with modulus at or below this are treated as structural zeros
/// during classification. Dropping them perturbs an output amplitude by
/// at most `block * 1e-14 <= 6.4e-13`, inside the 1e-12 parity budget.
pub const CLASSIFY_TOL: f64 = 1e-14;

/// Largest dense block applied through stack buffers; bigger blocks fall
/// back to a heap-allocating path (beyond any gate this workspace
/// compiles — three ququart operands give a block of 64).
pub(crate) const MAX_STACK_BLOCK: usize = 64;

/// Largest two-qudit dense block (two ququarts) — the dedicated
/// gather-once/apply-many path below uses scratch of exactly this size.
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
    /// Dense matrix on one qudit: unrolled stride loops for d = 2 and 4.
    SingleQudit,
    /// Dense matrix on two qudits with a block of at most 16: gathered
    /// into a stack buffer per configuration.
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

/// Reusable scratch for the specialized apply paths and the trajectory
/// runner. Holding one per worker thread makes the per-gate hot path
/// allocation-free in steady state: every buffer is cleared and refilled
/// in place, never reallocated once it has reached its working size.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Amplitude offset of each operand-block configuration.
    pub(crate) offsets: Vec<usize>,
    /// Non-operand qudit indices of the current sweep.
    pub(crate) others: Vec<usize>,
    /// Per-qudit busy-until times (trajectory runner).
    pub(crate) free_at: Vec<f64>,
    /// No-jump damping factors the running trajectory has not applied
    /// yet (trajectory runner).
    pub(crate) pending: Pending,
    /// Step tables of the single-trajectory entry points, rebuilt per
    /// call; estimates build theirs once and share them.
    pub(crate) steps: StepTables,
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
            others: Vec::new(),
            free_at: Vec::new(),
            pending: Pending::default(),
            steps: StepTables::default(),
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
/// size.
pub(crate) fn compute_offsets(
    reg: &Register,
    operands: &[usize],
    offsets: &mut Vec<usize>,
) -> usize {
    let block: usize = operands.iter().map(|&q| reg.dim(q)).product();
    offsets.clear();
    offsets.resize(block, 0);
    for (sub, off) in offsets.iter_mut().enumerate() {
        let mut rem = sub;
        let mut acc = 0usize;
        for &q in operands.iter().rev() {
            let d = reg.dim(q);
            acc += (rem % d) * reg.stride(q);
            rem /= d;
        }
        *off = acc;
    }
    block
}

/// Largest register (in qudits) the sweep's stack-allocated mixed-radix
/// counters support; a 64-qubit register is already far past state-vector
/// reach.
pub(crate) const MAX_QUDITS: usize = 64;

/// Calls `f(base)` for every position of a mixed-radix counter over
/// `dims` (last digit fastest) with per-digit strides, walking the bases
/// incrementally (amortized O(1) per step, no divisions in the loop).
/// Shared by the scalar sweep bodies and the vector arms in
/// [`crate::simd`], whose paired layouts substitute their own
/// dims/strides; `#[inline(always)]` so it specializes into the
/// `#[target_feature]` callers.
#[inline(always)]
pub(crate) fn walk_bases(dims: &[usize], strides: &[usize], mut f: impl FnMut(usize)) {
    assert!(dims.len() <= MAX_QUDITS, "register too large for sweep");
    let mut counter = [0usize; MAX_QUDITS];
    let mut base = 0usize;
    for _ in 0..dims.iter().product::<usize>() {
        f(base);
        let mut pos = dims.len();
        loop {
            if pos == 0 {
                break;
            }
            pos -= 1;
            counter[pos] += 1;
            base += strides[pos];
            if counter[pos] < dims[pos] {
                break;
            }
            counter[pos] = 0;
            base -= dims[pos] * strides[pos];
        }
    }
}

/// Calls `f(base)` with the base amplitude offset of every configuration
/// of the non-operand qudits `others`, via [`walk_bases`].
fn sweep(reg: &Register, others: &[usize], f: impl FnMut(usize)) {
    assert!(others.len() <= MAX_QUDITS, "register too large for sweep");
    let mut dims = [0usize; MAX_QUDITS];
    let mut strides = [0usize; MAX_QUDITS];
    for (slot, &q) in others.iter().enumerate() {
        dims[slot] = reg.dim(q);
        strides[slot] = reg.stride(q);
    }
    let n = others.len();
    walk_bases(&dims[..n], &strides[..n], f);
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
    for (i, a) in operands.iter().enumerate() {
        for b in operands.iter().skip(i + 1) {
            assert_ne!(a, b, "operands must be distinct");
        }
    }
    let dims_product: usize = operands.iter().map(|&q| reg.dim(q)).product();
    assert_eq!(
        u.rows(),
        dims_product,
        "unitary does not match operand dims"
    );

    if matches!(kernel, GateKernel::Identity) {
        return;
    }

    // Fast path: diagonal on a single qudit is a contiguous slice scale.
    if let (GateKernel::Diagonal { phases }, [q]) = (kernel, operands) {
        return apply_diagonal_single(amps, reg, phases, *q, ws.simd);
    }

    ws.others.clear();
    ws.others
        .extend((0..reg.n_qudits()).filter(|q| !operands.contains(q)));
    let block = compute_offsets(reg, operands, &mut ws.offsets);
    let shared = SharedAmps(amps.as_mut_ptr());
    let offsets: &[usize] = &ws.offsets;
    let others: &[usize] = &ws.others;
    let ctx = simd::SweepCtx {
        reg,
        others,
        offsets,
        shared,
        level: ws.simd,
    };

    match kernel {
        GateKernel::Identity => {}
        GateKernel::Diagonal { phases } => {
            if simd::diag_sweep(&ctx, phases) {
                return;
            }
            // SAFETY: every base + offset is in bounds (see SharedAmps).
            sweep(reg, others, |base| unsafe {
                for (sub, &off) in offsets.iter().enumerate() {
                    let p = shared.at(base + off);
                    *p *= phases[sub];
                }
            });
        }
        GateKernel::Permutation { cycles, phases, .. } => {
            if simd::perm_sweep(&ctx, cycles, phases) {
                return;
            }
            // SAFETY: every base + offset is in bounds (see SharedAmps).
            sweep(reg, others, |base| unsafe {
                for cycle in cycles {
                    walk_cycle(shared, base, offsets, cycle, phases);
                }
            });
        }
        GateKernel::SingleQudit if u.rows() == 2 => {
            if simd::dense_sweep(&ctx, u.as_slice(), false) {
                return;
            }
            let m = u.as_slice();
            let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);
            // SAFETY: every base + offset is in bounds (see SharedAmps).
            sweep(reg, others, |base| unsafe {
                let p0 = shared.at(base + offsets[0]);
                let p1 = shared.at(base + offsets[1]);
                let (a0, a1) = (*p0, *p1);
                *p0 = m00 * a0 + m01 * a1;
                *p1 = m10 * a0 + m11 * a1;
            });
        }
        GateKernel::SingleQudit if u.rows() == 4 => {
            if simd::dense_sweep(&ctx, u.as_slice(), false) {
                return;
            }
            let mut m = [C64::ZERO; 16];
            m.copy_from_slice(u.as_slice());
            // SAFETY: every base + offset is in bounds (see SharedAmps).
            sweep(reg, others, |base| unsafe {
                let p0 = shared.at(base + offsets[0]);
                let p1 = shared.at(base + offsets[1]);
                let p2 = shared.at(base + offsets[2]);
                let p3 = shared.at(base + offsets[3]);
                let (a0, a1, a2, a3) = (*p0, *p1, *p2, *p3);
                *p0 = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
                *p1 = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
                *p2 = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
                *p3 = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
            });
        }
        GateKernel::TwoQudit if block <= MAX_TWO_QUDIT_BLOCK => {
            // Gather-once/apply-many two-qudit path: the vector arm
            // cache-blocks pair-units into an L1-resident tile; the
            // scalar form is one shared dense sweep body with the stack
            // scratch sized to the 16-wide blocks the fusion layer
            // produces instead of the 64-wide general buffer.
            if simd::dense_sweep(&ctx, u.as_slice(), true) {
                return;
            }
            dense_block_sweep::<MAX_TWO_QUDIT_BLOCK>(reg, others, shared, offsets, u);
        }
        GateKernel::SingleQudit | GateKernel::TwoQudit | GateKernel::GeneralDense
            if block <= MAX_STACK_BLOCK =>
        {
            if simd::dense_sweep(&ctx, u.as_slice(), false) {
                return;
            }
            dense_block_sweep::<MAX_STACK_BLOCK>(reg, others, shared, offsets, u);
        }
        _ => {
            // Oversized dense block: heap-scratch fallback.
            let mut state = vec![C64::ZERO; block];
            sweep(reg, others, |base| {
                for (sub, &off) in offsets.iter().enumerate() {
                    state[sub] = amps[base + off];
                }
                for (row, &off) in offsets.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (col, &amp) in state.iter().enumerate() {
                        let coeff = u[(row, col)];
                        if coeff != C64::ZERO {
                            acc += coeff * amp;
                        }
                    }
                    amps[base + off] = acc;
                }
            });
        }
    }
}

/// Dense block matvec through a `CAP`-sized stack buffer: each amplitude
/// group is gathered exactly once per sweep, the (often fused) dense
/// block applied from the buffer, and the results scattered back.
///
/// Two inner loops, chosen by one scan of the matrix per apply (256
/// comparisons, amortized over thousands of configurations): matrices
/// with structural zeros — embedded qubit gates on ququart pairs are
/// mostly zeros — keep the per-coefficient skip, while *fully dense*
/// blocks (Haar unitaries, fused products) run a branchless
/// multiply-accumulate chain. The branchless form is what fixed the
/// `gate_apply_4pow8.two-qudit` regression: the always-taken zero test
/// cost more than it saved and blocked FMA fusion, leaving the
/// specialized path slower than the generic dense reference (0.78x in
/// `BENCH_sim.json` v4); dropping it makes the two-qudit arm beat the
/// reference again on both plain and `target-cpu=native` builds.
fn dense_block_sweep<const CAP: usize>(
    reg: &Register,
    others: &[usize],
    shared: SharedAmps,
    offsets: &[usize],
    u: &Matrix,
) {
    let block = offsets.len();
    debug_assert!(block <= CAP, "block exceeds scratch capacity");
    let m = u.as_slice();
    let mut scratch = [C64::ZERO; CAP];
    if m.iter().all(|&c| c != C64::ZERO) {
        // Fully dense: branchless multiply-accumulate.
        // SAFETY: every base + offset is in bounds (see SharedAmps).
        sweep(reg, others, |base| unsafe {
            for (s, &off) in scratch.iter_mut().zip(offsets) {
                *s = *shared.at(base + off);
            }
            for (row_coeffs, &off) in m.chunks_exact(block).zip(offsets) {
                let mut acc = C64::ZERO;
                for (&coeff, &amp) in row_coeffs.iter().zip(&scratch[..block]) {
                    acc += coeff * amp;
                }
                *shared.at(base + off) = acc;
            }
        });
        return;
    }
    // Sparse rows: skip structural zeros.
    // SAFETY: every base + offset is in bounds (see SharedAmps).
    sweep(reg, others, |base| unsafe {
        for (s, &off) in scratch.iter_mut().zip(offsets) {
            *s = *shared.at(base + off);
        }
        for (row_coeffs, &off) in m.chunks_exact(block).zip(offsets) {
            let mut acc = C64::ZERO;
            for (&coeff, &amp) in row_coeffs.iter().zip(&scratch[..block]) {
                if coeff != C64::ZERO {
                    acc += coeff * amp;
                }
            }
            *shared.at(base + off) = acc;
        }
    });
}

/// Walks one permutation cycle in place:
/// `new[perm[j]] = phases[j] * old[j]` for the cycle's members.
///
/// # Safety
///
/// `base + offsets[c]` must be in bounds for every cycle member.
unsafe fn walk_cycle(
    amps: SharedAmps,
    base: usize,
    offsets: &[usize],
    cycle: &[usize],
    phases: &[C64],
) {
    unsafe {
        if let [only] = cycle {
            let p = amps.at(base + offsets[*only]);
            *p *= phases[*only];
            return;
        }
        let last = cycle[cycle.len() - 1];
        let tmp = *amps.at(base + offsets[last]);
        for k in (1..cycle.len()).rev() {
            let from = cycle[k - 1];
            *amps.at(base + offsets[cycle[k]]) = phases[from] * *amps.at(base + offsets[from]);
        }
        *amps.at(base + offsets[cycle[0]]) = phases[last] * tmp;
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
