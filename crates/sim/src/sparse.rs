//! Sparse amplitude-map states and density-adaptive representation
//! switching.
//!
//! The dense [`State`] stores every amplitude of the register — `16 ·
//! Π dims` bytes whether or not the program ever populates them. The
//! paper's compiled circuits are dominated by classical-reversible
//! structure (Toffoli ladders, qram routing): on classical basis inputs
//! the state holds a handful of nonzero amplitudes inside an
//! exponentially large register, and every diagonal or permutation
//! kernel preserves that count exactly. [`SparseState`] stores only the
//! nonzero amplitudes as a sorted `(index, amplitude)` map, and
//! [`AdaptiveState`] runs a trajectory sparse until the population
//! density crosses a threshold, then switches to the dense engine (and
//! back, at reshape/segment boundaries where the state is re-scanned
//! anyway).
//!
//! # Parity discipline
//!
//! Every sparse kernel arm mirrors the *scalar* dense sweep body in
//! [`crate::kernel`] operation for operation: absent entries are exact
//! `+0.0` zeros, and adding an exact zero into a floating-point
//! accumulation never changes a nonzero result. With truncation epsilon
//! `0` the sparse arms therefore reproduce the scalar dense path
//! bit-for-bit on every nonzero amplitude — the `sparse_parity` test
//! suite pins this per kernel class and across representation-switch
//! points.

use std::sync::OnceLock;

use rand::Rng;
use waltz_math::{Matrix, C64};
use waltz_noise::{CoherenceModel, PauliOp};

use crate::damping::{self, DampingTarget, POP_LANES};
use crate::kernel::{self, GateKernel, Workspace};
use crate::{Register, State, TimedOp};

/// Default nnz/amps ratio above which an [`AdaptiveState`] abandons the
/// sparse map for the dense engine.
///
/// One sparse entry costs 24 bytes (`u64` index + complex amplitude)
/// against 16 bytes per dense amplitude, so the map stops winning on
/// *memory* at density 2/3; the sweep arms stop winning earlier because
/// every sparse apply rebuilds and re-sorts the entry list while the
/// dense sweeps stream contiguous memory with SIMD. One
/// quarter — comfortably below the memory break-even, several re-sorts
/// of headroom above the regime where sparse clearly wins (density
/// `1e-3` and below) — is the shipped default; tune per workspace with
/// [`Workspace::set_sparse_density_threshold`].
pub const DEFAULT_SPARSE_DENSITY_THRESHOLD: f64 = 0.25;

/// Whether sparse representations are enabled for this process.
///
/// Resolution order mirrors [`crate::SimdLevel::detect`]: the
/// `WALTZ_SPARSE` environment variable (`0`, `off` or `dense`,
/// case-insensitively, forces the dense path everywhere — every
/// [`AdaptiveState`] starts dense and never sparsifies), else enabled.
/// Probed once per process.
pub fn sparse_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("WALTZ_SPARSE") {
        Ok(v) => {
            let v = v.to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "dense")
        }
        Err(_) => true,
    })
}

/// The sparse-representation policy one adaptive run executes under:
/// plumbing for the [`Workspace`] knobs, carried by an adaptive
/// [`crate::trajectory::Estimator`] to each pool worker's workspace and
/// by [`crate::Session::adaptive`] to its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsePolicy {
    /// nnz/amps ratio above which sparse switches to dense
    /// ([`DEFAULT_SPARSE_DENSITY_THRESHOLD`]).
    pub density_threshold: f64,
    /// Entries with `|amp| <= epsilon` are dropped by the rebuild arms.
    /// `0.0` (the default) drops exact zeros only and is lossless.
    pub epsilon: f64,
}

impl Default for SparsePolicy {
    fn default() -> Self {
        SparsePolicy {
            density_threshold: DEFAULT_SPARSE_DENSITY_THRESHOLD,
            epsilon: 0.0,
        }
    }
}

impl SparsePolicy {
    /// A fresh workspace running under this policy.
    pub(crate) fn workspace(&self) -> Workspace {
        let mut ws = Workspace::new();
        ws.set_sparse_density_threshold(self.density_threshold);
        ws.set_sparse_epsilon(self.epsilon);
        ws
    }
}

/// A state vector stored as a sorted map from basis index to nonzero
/// amplitude.
///
/// Entries are `(index, amplitude)` pairs sorted by index with no
/// duplicates; amplitudes with `|amp| <= epsilon` are truncated by the
/// kernel arms that rebuild the list (dense blocks, permutations,
/// Paulis) — epsilon `0` keeps everything except exact zeros. All gate
/// application goes through the same [`GateKernel`] classification as
/// the dense engine, with per-class arms:
///
/// * *diagonal* — in-place phase over the stored entries;
/// * *permutation* — index remap + re-sort;
/// * *single-/two-qudit/general dense* — gather each populated
///   operand-stride coset into a stack block (absent entries are exact
///   zeros), run the same matvec form as the scalar dense sweep, scatter
///   the surviving rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseState {
    register: Register,
    entries: Vec<(u64, C64)>,
    epsilon: f64,
}

impl SparseState {
    /// The all-zeros basis state `|0...0>`.
    pub fn zero(register: &Register) -> SparseState {
        SparseState::basis(register, 0)
    }

    /// The computational basis state `|idx>`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the register.
    pub fn basis(register: &Register, idx: usize) -> SparseState {
        assert!(idx < register.total_dim(), "basis index out of range");
        SparseState {
            register: register.clone(),
            entries: vec![(idx as u64, C64::ONE)],
            epsilon: 0.0,
        }
    }

    /// Rewrites this state to the basis state `|idx>` in place.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the register.
    pub fn fill_basis(&mut self, idx: usize) {
        assert!(idx < self.register.total_dim(), "basis index out of range");
        self.entries.clear();
        self.entries.push((idx as u64, C64::ONE));
    }

    /// Builds a sparse map from a dense state, keeping amplitudes with
    /// `|amp| > epsilon`.
    pub fn from_dense(state: &State, epsilon: f64) -> SparseState {
        let mut out = SparseState {
            register: state.register().clone(),
            entries: Vec::new(),
            epsilon,
        };
        out.fill_from_dense(state);
        out
    }

    /// [`SparseState::from_dense`] into this state's buffers (register
    /// is re-targeted to match).
    pub fn fill_from_dense(&mut self, state: &State) {
        self.register.clone_from(state.register());
        let eps2 = self.epsilon * self.epsilon;
        self.entries.clear();
        for (idx, &amp) in state.amplitudes().iter().enumerate() {
            if amp.norm_sqr() > eps2 {
                self.entries.push((idx as u64, amp));
            }
        }
    }

    /// Scatters this map into a dense state buffer (which must already
    /// be on the same register).
    ///
    /// # Panics
    ///
    /// Panics if the registers differ.
    pub fn write_dense_into(&self, out: &mut State) {
        assert_eq!(
            &self.register,
            out.register(),
            "register mismatch in sparse-to-dense conversion"
        );
        out.amps.fill(C64::ZERO);
        for &(idx, amp) in &self.entries {
            out.amps[idx as usize] = amp;
        }
    }

    /// Overwrites this state with `other` without reallocating beyond
    /// the entry buffer's growth.
    pub fn copy_from(&mut self, other: &SparseState) {
        self.register.clone_from(&other.register);
        self.entries.clone_from(&other.entries);
        self.epsilon = other.epsilon;
    }

    /// The register this state is defined over.
    pub fn register(&self) -> &Register {
        &self.register
    }

    /// Re-targets this state onto `register` as its `|0...0>` basis
    /// state, reusing the entry buffer.
    pub fn remap(&mut self, register: &Register) {
        self.register.clone_from(register);
        self.entries.clear();
        self.entries.push((0, C64::ONE));
    }

    /// Number of stored (nonzero) amplitudes.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored entries, sorted by basis index.
    pub fn entries(&self) -> &[(u64, C64)] {
        &self.entries
    }

    /// Bytes held by the stored entries (24 per entry).
    pub fn state_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<(u64, C64)>()
    }

    /// Current nnz/amps population density.
    pub fn density(&self) -> f64 {
        self.entries.len() as f64 / self.register.total_dim() as f64
    }

    /// The truncation epsilon the rebuild arms apply.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Sets the truncation epsilon (clamped to be non-negative).
    pub fn set_epsilon(&mut self, epsilon: f64) {
        self.epsilon = epsilon.max(0.0);
    }

    /// Amplitude of basis state `idx` (zero when absent).
    pub fn amplitude(&self, idx: usize) -> C64 {
        match self
            .entries
            .binary_search_by_key(&(idx as u64), |&(i, _)| i)
        {
            Ok(pos) => self.entries[pos].1,
            Err(_) => C64::ZERO,
        }
    }

    /// Probability of a computational basis state.
    pub fn probability_of(&self, idx: usize) -> f64 {
        self.amplitude(idx).norm_sqr()
    }

    /// The state's 2-norm. Zeros the dense engine would sum are exact
    /// `+0.0` no-ops, so the sum visits the same nonzero terms in the
    /// same (ascending index) order as [`State::norm`].
    pub fn norm(&self) -> f64 {
        self.entries
            .iter()
            .map(|(_, a)| a.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Scales to unit norm (no-op on an all-zero state), returning the
    /// previous norm — the same `1/n` multiply as
    /// `waltz_math::vector::normalize`.
    pub fn normalize(&mut self) -> f64 {
        let n = self.norm();
        if n > 0.0 {
            let inv = 1.0 / n;
            for (_, a) in &mut self.entries {
                *a *= inv;
            }
        }
        n
    }

    /// `|<self|other>|²` between two sparse states via a merge join over
    /// the sorted entries; terms the dense inner product would add for
    /// indices absent on either side are exact zero products.
    ///
    /// # Panics
    ///
    /// Panics if the registers differ.
    pub fn fidelity(&self, other: &SparseState) -> f64 {
        assert_eq!(self.register, other.register, "register mismatch");
        let (mut i, mut j) = (0, 0);
        let mut acc = C64::ZERO;
        while i < self.entries.len() && j < other.entries.len() {
            let (ia, a) = self.entries[i];
            let (ib, b) = other.entries[j];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a.conj() * b;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc.norm_sqr()
    }

    /// `|<self|other>|²` against a dense state.
    ///
    /// # Panics
    ///
    /// Panics if the registers differ.
    pub fn fidelity_dense(&self, other: &State) -> f64 {
        assert_eq!(&self.register, other.register(), "register mismatch");
        let amps = other.amplitudes();
        let mut acc = C64::ZERO;
        for &(idx, a) in &self.entries {
            acc += a.conj() * amps[idx as usize];
        }
        acc.norm_sqr()
    }

    /// Applies a scheduled op through its precomputed kernel — the
    /// sparse counterpart of [`State::apply_op`].
    pub fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace) {
        self.apply_kernel(&op.kernel, &op.unitary, &op.operands, ws);
    }

    /// Applies a unitary through an explicitly classified kernel — the
    /// sparse counterpart of [`State::apply_kernel`]. The kernel must
    /// have been produced by [`GateKernel::classify`] on `u`.
    pub fn apply_kernel(
        &mut self,
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
        let reg = &self.register;
        let dims_product: usize = operands.iter().map(|&q| reg.dim(q)).product();
        assert_eq!(
            u.rows(),
            dims_product,
            "unitary does not match operand dims"
        );

        if matches!(kernel, GateKernel::Identity) {
            return;
        }

        // Single-operand diagonal: phase per stored entry, skipping unit
        // phases exactly as the dense contiguous-slice fast path does.
        if let (GateKernel::Diagonal { phases }, [q]) = (kernel, operands) {
            let stride = reg.stride(*q);
            let dim = reg.dim(*q);
            for (idx, amp) in &mut self.entries {
                let phase = phases[(*idx as usize / stride) % dim];
                if phase == C64::ONE {
                    continue;
                }
                *amp *= phase;
            }
            return;
        }

        let block = kernel::compute_offsets(reg, operands, &mut ws.offsets);
        match kernel {
            GateKernel::Identity => {}
            GateKernel::Diagonal { phases } => {
                // Multi-operand diagonal: the dense sweep multiplies
                // unconditionally, so the sparse arm does too.
                for (idx, amp) in &mut self.entries {
                    let sub = operand_sub(reg, operands, *idx);
                    *amp *= phases[sub];
                }
            }
            GateKernel::Permutation { perm, phases, .. } => {
                let offsets: &[usize] = &ws.offsets;
                for (idx, amp) in &mut self.entries {
                    let sub = operand_sub(reg, operands, *idx);
                    let dst = perm[sub];
                    if dst == sub && phases[sub] == C64::ONE {
                        // Unit-phase fixed point: the dense cycle
                        // decomposition omits it entirely.
                        continue;
                    }
                    // Mirrors `walk_cycle`: destination `perm[j]` takes
                    // `phases[j] * old[j]`.
                    *amp = phases[sub] * *amp;
                    *idx = *idx - offsets[sub] as u64 + offsets[dst] as u64;
                }
                // A bijection on unique indices stays unique; only the
                // order needs restoring.
                self.entries.sort_unstable_by_key(|&(i, _)| i);
            }
            GateKernel::SingleQudit | GateKernel::TwoQudit | GateKernel::GeneralDense => {
                self.apply_dense_block(kernel, u, operands, block, ws);
            }
        }
    }

    /// The gather-scatter arm shared by the dense kernel classes: stored
    /// entries are grouped by operand-stride coset, each populated coset
    /// gathered into a zeroed block (absent members are exact zeros —
    /// precisely what the dense sweep reads), the block run through the
    /// *same matvec form* the scalar dense sweep uses for this kernel
    /// class, and surviving rows scattered back.
    fn apply_dense_block(
        &mut self,
        kernel: &GateKernel,
        u: &Matrix,
        operands: &[usize],
        block: usize,
        ws: &mut Workspace,
    ) {
        let reg = &self.register;
        let offsets: &[usize] = &ws.offsets;
        let gather = &mut ws.sparse_gather;
        let rebuilt = &mut ws.sparse_out;

        gather.clear();
        for &(idx, amp) in &self.entries {
            let sub = operand_sub(reg, operands, idx);
            gather.push((idx - offsets[sub] as u64, sub as u32, amp));
        }
        // Indices are unique, so (base, sub) pairs are unique and the
        // grouping is deterministic.
        gather.sort_unstable_by_key(|&(base, sub, _)| (base, sub));

        rebuilt.clear();
        let eps2 = self.epsilon * self.epsilon;
        let m = u.as_slice();
        // Same once-per-apply scan as `dense_block_sweep`: fully dense
        // blocks run the branchless accumulation chain, blocks with
        // structural zeros keep the per-coefficient skip.
        let fully_dense = m.iter().all(|&c| c != C64::ZERO);
        let single = matches!(kernel, GateKernel::SingleQudit);
        let mut scratch = [C64::ZERO; kernel::MAX_STACK_BLOCK];
        let mut heap_scratch = Vec::new();
        if block > kernel::MAX_STACK_BLOCK {
            heap_scratch.resize(block, C64::ZERO);
        }

        let keep = |buf: &mut Vec<(u64, C64)>, base: u64, row: usize, acc: C64| {
            if acc.norm_sqr() > eps2 {
                buf.push((base + offsets[row] as u64, acc));
            }
        };

        let mut i = 0;
        while i < gather.len() {
            let base = gather[i].0;
            let mut j = i;
            if block <= kernel::MAX_STACK_BLOCK {
                scratch[..block].fill(C64::ZERO);
                while j < gather.len() && gather[j].0 == base {
                    scratch[gather[j].1 as usize] = gather[j].2;
                    j += 1;
                }
                if single && block == 2 {
                    // The dense engine's unrolled 2x2 form.
                    let (a0, a1) = (scratch[0], scratch[1]);
                    keep(rebuilt, base, 0, m[0] * a0 + m[1] * a1);
                    keep(rebuilt, base, 1, m[2] * a0 + m[3] * a1);
                } else if single && block == 4 {
                    // The dense engine's unrolled 4x4 form.
                    let (a0, a1, a2, a3) = (scratch[0], scratch[1], scratch[2], scratch[3]);
                    for row in 0..4 {
                        let r = &m[row * 4..row * 4 + 4];
                        keep(
                            rebuilt,
                            base,
                            row,
                            r[0] * a0 + r[1] * a1 + r[2] * a2 + r[3] * a3,
                        );
                    }
                } else if fully_dense {
                    for (row, row_coeffs) in m.chunks_exact(block).enumerate() {
                        let mut acc = C64::ZERO;
                        for (&coeff, &amp) in row_coeffs.iter().zip(&scratch[..block]) {
                            acc += coeff * amp;
                        }
                        keep(rebuilt, base, row, acc);
                    }
                } else {
                    for (row, row_coeffs) in m.chunks_exact(block).enumerate() {
                        let mut acc = C64::ZERO;
                        for (&coeff, &amp) in row_coeffs.iter().zip(&scratch[..block]) {
                            if coeff != C64::ZERO {
                                acc += coeff * amp;
                            }
                        }
                        keep(rebuilt, base, row, acc);
                    }
                }
            } else {
                // Oversized block: mirrors the dense serial heap
                // fallback, which always skips structural zeros.
                heap_scratch.fill(C64::ZERO);
                while j < gather.len() && gather[j].0 == base {
                    heap_scratch[gather[j].1 as usize] = gather[j].2;
                    j += 1;
                }
                for row in 0..block {
                    let mut acc = C64::ZERO;
                    for (col, &amp) in heap_scratch.iter().enumerate() {
                        let coeff = u[(row, col)];
                        if coeff != C64::ZERO {
                            acc += coeff * amp;
                        }
                    }
                    keep(rebuilt, base, row, acc);
                }
            }
            i = j;
        }
        // Bases are processed in ascending order but row offsets can
        // interleave between cosets; one final sort restores the map
        // invariant. Distinct cosets produce distinct indices, so there
        // are no duplicates to merge.
        rebuilt.sort_unstable_by_key(|&(i, _)| i);
        std::mem::swap(&mut self.entries, rebuilt);
    }

    /// Applies a generalized Pauli to one qudit — the sparse counterpart
    /// of [`State::apply_pauli`]. Levels at or above the Pauli's own
    /// dimension are untouched.
    pub fn apply_pauli(&mut self, op: PauliOp, qudit: usize) {
        if op.is_identity() {
            return;
        }
        let dev_dim = self.register.dim(qudit);
        let d = op.d as usize;
        assert!(d <= dev_dim, "Pauli dimension exceeds device dimension");
        assert!(d <= 16, "Pauli dimension above 16 is unsupported");
        let stride = self.register.stride(qudit);
        let mut phases = [C64::ZERO; 16];
        for (j, p) in phases.iter_mut().take(d).enumerate() {
            *p = op.act_on_basis(j).1;
        }
        let a = op.a as usize;
        if a == 0 {
            // Pure clock operator: the dense walk scales every level
            // below `d` unconditionally (`phase * amp` order).
            for (idx, amp) in &mut self.entries {
                let lvl = (*idx as usize / stride) % dev_dim;
                if lvl < d {
                    *amp = phases[lvl] * *amp;
                }
            }
        } else {
            // Shift-by-a permutation: the dense cycle walk sends column
            // j to (j + a) % d with weight phases[j].
            for (idx, amp) in &mut self.entries {
                let lvl = (*idx as usize / stride) % dev_dim;
                if lvl < d {
                    let dst = (lvl + a) % d;
                    *amp = phases[lvl] * *amp;
                    *idx = *idx - (lvl * stride) as u64 + (dst * stride) as u64;
                }
            }
            self.entries.sort_unstable_by_key(|&(i, _)| i);
        }
    }

    /// One stochastic amplitude-damping step, normalized — the sparse
    /// counterpart of [`State::damping_step_with`], consuming the
    /// identical RNG stream and taking the same branch from the same
    /// bits. The workspace is not used; the parameter stays for existing
    /// callers.
    pub fn damping_step_with<R: Rng + ?Sized>(
        &mut self,
        model: &CoherenceModel,
        qudit: usize,
        dt_ns: f64,
        rng: &mut R,
        _ws: &mut Workspace,
    ) {
        damping::normalized_step(self, model, qudit, dt_ns, rng);
    }

    /// Drops entries at or below the truncation epsilon. With epsilon
    /// `0` only exact zeros are dropped, which never changes any dense
    /// sum the entries feed into. Like every rebuild arm it compares the
    /// stored amplitudes, which inside a trajectory are unnormalized (see
    /// [`crate::trajectory`]).
    fn truncate(&mut self) {
        let eps2 = self.epsilon * self.epsilon;
        self.entries.retain(|(_, a)| a.norm_sqr() > eps2);
    }

    /// Reshape onto `out`'s register, clipping whatever population sits
    /// outside it and returning the clipped probability — the sparse
    /// counterpart of [`State::reshape_into_lossy`] (same amplitude-label
    /// mapping, here digit by digit per stored entry; clip sum
    /// accumulated in the same ascending-source-index order; no
    /// renormalization).
    ///
    /// # Panics
    ///
    /// Panics if the qudit counts differ.
    pub fn reshape_into_lossy(&self, out: &mut SparseState) -> f64 {
        let src = &self.register;
        let dst = &out.register;
        assert_eq!(
            src.n_qudits(),
            dst.n_qudits(),
            "reshape must preserve the qudit count"
        );
        out.epsilon = self.epsilon;
        if src == dst {
            out.entries.clone_from(&self.entries);
            return 0.0;
        }
        let n = src.n_qudits();
        assert!(
            n <= kernel::MAX_QUDITS,
            "register too large for stack digits"
        );
        let mut digits = [0usize; kernel::MAX_QUDITS];
        let mut leaked = 0.0f64;
        out.entries.clear();
        for &(idx, amp) in &self.entries {
            src.digits_into(idx as usize, &mut digits[..n]);
            if digits[..n].iter().enumerate().all(|(q, &d)| d < dst.dim(q)) {
                out.entries.push((dst.index_of(&digits[..n]) as u64, amp));
            } else {
                leaked += amp.norm_sqr();
            }
        }
        // The digit-preserving map is injective but not monotone across
        // dimension changes.
        out.entries.sort_unstable_by_key(|&(i, _)| i);
        leaked
    }
}

/// The dense primitives entry by entry: absent amplitudes would add
/// exact zeros to a population lane and stay zero under a scale.
impl DampingTarget for SparseState {
    fn dim(&self, qudit: usize) -> usize {
        self.register.dim(qudit)
    }

    fn add_level_populations(&self, qudit: usize, lanes: &mut [[f64; POP_LANES]]) {
        let (stride, dim) = (self.register.stride(qudit), self.register.dim(qudit));
        for &(idx, amp) in &self.entries {
            let idx = idx as usize;
            lanes[(idx / stride) % dim][idx % POP_LANES] += amp.norm_sqr();
        }
    }

    /// Scales the excited entries, then drops those at or below the
    /// truncation epsilon.
    fn scale_levels(&mut self, qudit: usize, factors: &[f64]) {
        let (stride, dim) = (self.register.stride(qudit), factors.len());
        for (idx, amp) in &mut self.entries {
            let level = (*idx as usize / stride) % dim;
            if level >= 1 {
                *amp *= factors[level];
            }
        }
        self.truncate();
    }

    /// Entries on `level` move to ground (subtracting the same
    /// `level * stride` keeps them sorted); every other entry is dropped.
    fn collapse(&mut self, qudit: usize, level: usize) {
        let (stride, dim) = (self.register.stride(qudit), self.register.dim(qudit));
        let shift = (level * stride) as u64;
        self.entries.retain_mut(|(idx, _)| {
            if (*idx as usize / stride) % dim == level {
                *idx -= shift;
                true
            } else {
                false
            }
        });
    }

    fn norm_sqr(&self) -> f64 {
        let mut lanes = [0.0f64; POP_LANES];
        for &(idx, amp) in &self.entries {
            lanes[idx as usize % POP_LANES] += amp.norm_sqr();
        }
        damping::lane_sum(lanes)
    }

    fn scale_amplitudes(&mut self, factor: f64) {
        if factor != 1.0 {
            for (_, a) in &mut self.entries {
                *a *= factor;
            }
        }
    }
}

/// Linear operand-block configuration of `idx` (first operand most
/// significant) — the inverse of the decomposition
/// [`kernel::compute_offsets`] uses to build the offset table.
#[inline]
fn operand_sub(reg: &Register, operands: &[usize], idx: u64) -> usize {
    let idx = idx as usize;
    let mut sub = 0usize;
    for &q in operands {
        sub = sub * reg.dim(q) + reg.digit(idx, q);
    }
    sub
}

/// A state that runs sparse while the population is sparse and switches
/// to the dense engine when it is not.
///
/// * **sparse → dense** after any apply whose resulting density
///   `nnz/amps` exceeds the workspace's
///   [`Workspace::sparse_density_threshold`]; the dense buffer is
///   allocated lazily on first switch and reused afterwards.
/// * **dense → sparse** at reshape/segment boundaries, where the state
///   is re-scanned amplitude by amplitude anyway: if the surviving
///   population fits under the threshold on the next segment's register,
///   the reshaped state is built sparse.
///
/// With `WALTZ_SPARSE=0` (see [`sparse_enabled`]) every adaptive state
/// starts dense and never sparsifies, forcing the dense path everywhere.
#[derive(Debug, Clone)]
pub struct AdaptiveState {
    sparse: SparseState,
    dense: Option<State>,
    is_dense: bool,
    peak_nnz: usize,
    peak_bytes: usize,
}

impl AdaptiveState {
    /// The `|0...0>` state — sparse unless sparse representations are
    /// disabled for the process.
    pub fn zero(register: &Register) -> AdaptiveState {
        let mut out = AdaptiveState {
            sparse: SparseState::zero(register),
            dense: None,
            is_dense: false,
            peak_nnz: 1,
            peak_bytes: 0,
        };
        if !sparse_enabled() {
            out.densify();
        }
        out.peak_bytes = out.state_bytes();
        out
    }

    /// The register this state is defined over.
    pub fn register(&self) -> &Register {
        if self.is_dense {
            self.dense.as_ref().expect("dense buffer").register()
        } else {
            self.sparse.register()
        }
    }

    /// Whether the state currently lives in the dense representation.
    pub fn is_dense(&self) -> bool {
        self.is_dense
    }

    /// Stored amplitude count: nnz while sparse, the full register size
    /// while dense.
    pub fn nnz(&self) -> usize {
        if self.is_dense {
            self.register().total_dim()
        } else {
            self.sparse.nnz()
        }
    }

    /// Current population density (1.0 while dense).
    pub fn density(&self) -> f64 {
        if self.is_dense {
            1.0
        } else {
            self.sparse.density()
        }
    }

    /// Bytes held by the current representation.
    pub fn state_bytes(&self) -> usize {
        if self.is_dense {
            self.register().state_bytes()
        } else {
            self.sparse.state_bytes()
        }
    }

    /// Peak stored-amplitude count observed since the last reset.
    pub fn peak_nnz(&self) -> usize {
        self.peak_nnz
    }

    /// Peak representation size in bytes observed since the last reset.
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Read-only view of the sparse map (`None` while dense).
    pub fn as_sparse(&self) -> Option<&SparseState> {
        if self.is_dense {
            None
        } else {
            Some(&self.sparse)
        }
    }

    /// Read-only view of the dense buffer (`None` while sparse).
    pub fn as_dense(&self) -> Option<&State> {
        if self.is_dense {
            self.dense.as_ref()
        } else {
            None
        }
    }

    /// Resets to a sparse initial state (densifying immediately when
    /// sparse representations are disabled or the threshold demands it)
    /// and restarts the peak counters.
    pub fn reset_from_sparse(&mut self, initial: &SparseState, ws: &mut Workspace) {
        self.sparse.copy_from(initial);
        self.sparse.set_epsilon(ws.sparse_epsilon);
        self.is_dense = false;
        if !sparse_enabled() {
            self.densify();
        } else {
            self.maybe_densify(ws);
        }
        self.peak_nnz = self.nnz();
        self.peak_bytes = self.state_bytes();
    }

    /// Re-targets this state onto `register` (contents reset to
    /// `|0...0>`), reusing buffers — the adaptive counterpart of
    /// [`State::remap`] for rolling segment buffers.
    pub fn remap(&mut self, register: &Register) {
        self.sparse.remap(register);
        if let Some(dense) = &mut self.dense {
            dense.remap(register);
        }
        if self.is_dense {
            if let Some(dense) = &mut self.dense {
                self.sparse.write_dense_into(dense);
            }
        }
    }

    /// Converts to the dense representation (allocating the dense buffer
    /// on first use).
    pub fn densify(&mut self) {
        if self.is_dense {
            return;
        }
        let reg = self.sparse.register().clone();
        match &mut self.dense {
            Some(dense) => dense.remap(&reg),
            None => self.dense = Some(State::zero(&reg)),
        }
        self.sparse
            .write_dense_into(self.dense.as_mut().expect("dense buffer"));
        self.is_dense = true;
    }

    /// Converts to the sparse representation regardless of density
    /// (entries with `|amp| <= epsilon` are dropped).
    pub fn sparsify(&mut self, epsilon: f64) {
        if !self.is_dense {
            return;
        }
        self.sparse.set_epsilon(epsilon);
        self.sparse
            .fill_from_dense(self.dense.as_ref().expect("dense buffer"));
        self.is_dense = false;
    }

    fn maybe_densify(&mut self, ws: &Workspace) {
        if self.is_dense {
            return;
        }
        let total = self.sparse.register().total_dim() as f64;
        if self.sparse.nnz() as f64 > ws.sparse_density_threshold * total {
            self.densify();
        }
    }

    fn note_peak(&mut self) {
        self.peak_nnz = self.peak_nnz.max(self.nnz());
        self.peak_bytes = self.peak_bytes.max(self.state_bytes());
    }

    /// Applies a scheduled op through its precomputed kernel, switching
    /// to dense when the resulting density crosses the workspace's
    /// threshold.
    pub fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace) {
        if self.is_dense {
            self.dense.as_mut().expect("dense buffer").apply_op(op, ws);
        } else {
            self.sparse.set_epsilon(ws.sparse_epsilon);
            self.sparse.apply_op(op, ws);
            self.maybe_densify(ws);
        }
        self.note_peak();
    }

    /// Applies a generalized Pauli to one qudit.
    pub fn apply_pauli(&mut self, op: PauliOp, qudit: usize) {
        if self.is_dense {
            self.dense
                .as_mut()
                .expect("dense buffer")
                .apply_pauli(op, qudit);
        } else {
            self.sparse.apply_pauli(op, qudit);
        }
        self.note_peak();
    }

    /// One stochastic amplitude-damping step, normalized (same RNG
    /// stream and bits in either representation).
    pub fn damping_step_with<R: Rng + ?Sized>(
        &mut self,
        model: &CoherenceModel,
        qudit: usize,
        dt_ns: f64,
        rng: &mut R,
        _ws: &mut Workspace,
    ) {
        damping::normalized_step(self, model, qudit, dt_ns, rng);
    }

    /// The representation the state is in, for the damping primitives.
    fn engine(&self) -> &dyn DampingTarget {
        if self.is_dense {
            self.dense.as_ref().expect("dense buffer")
        } else {
            &self.sparse
        }
    }

    /// [`AdaptiveState::engine`], mutably.
    fn engine_mut(&mut self) -> &mut dyn DampingTarget {
        if self.is_dense {
            self.dense.as_mut().expect("dense buffer")
        } else {
            &mut self.sparse
        }
    }

    /// The state's 2-norm.
    pub fn norm(&self) -> f64 {
        if self.is_dense {
            self.dense.as_ref().expect("dense buffer").norm()
        } else {
            self.sparse.norm()
        }
    }

    /// Scales to unit norm, returning the previous norm.
    pub fn normalize(&mut self) -> f64 {
        if self.is_dense {
            self.dense.as_mut().expect("dense buffer").normalize()
        } else {
            self.sparse.normalize()
        }
    }

    /// Probability of a computational basis state.
    pub fn probability_of(&self, idx: usize) -> f64 {
        if self.is_dense {
            self.dense
                .as_ref()
                .expect("dense buffer")
                .probability_of(idx)
        } else {
            self.sparse.probability_of(idx)
        }
    }

    /// `|<self|other>|²` across any representation pairing.
    ///
    /// # Panics
    ///
    /// Panics if the registers differ.
    pub fn fidelity(&self, other: &AdaptiveState) -> f64 {
        match (self.as_dense(), other.as_dense()) {
            (Some(a), Some(b)) => a.fidelity(b),
            (Some(a), None) => other.sparse.fidelity_dense(a),
            (None, Some(b)) => self.sparse.fidelity_dense(b),
            (None, None) => self.sparse.fidelity(&other.sparse),
        }
    }

    /// Reshape onto `out`'s register (as set by [`AdaptiveState::remap`])
    /// clipping population outside it, and re-decide the representation
    /// on the destination register: a dense source whose surviving
    /// population fits under the density threshold is rebuilt sparse,
    /// a sparse destination over the threshold is densified.
    ///
    /// Returns the clipped probability (no renormalization), exactly as
    /// [`State::reshape_into_lossy`].
    pub fn reshape_into_lossy(&self, out: &mut AdaptiveState, ws: &mut Workspace) -> f64 {
        let leaked = if self.is_dense {
            let src = self.dense.as_ref().expect("dense buffer");
            // Dense reshape first (bit-identical to the dense engine),
            // then the boundary re-scan decides the representation.
            let dst_reg = out.sparse.register().clone();
            match &mut out.dense {
                Some(dense) => dense.remap(&dst_reg),
                None => out.dense = Some(State::zero(&dst_reg)),
            }
            let dense_out = out.dense.as_mut().expect("dense buffer");
            let leaked = src.reshape_into_lossy(dense_out);
            out.is_dense = true;
            out.sparsify_if_sparse_enough(ws);
            leaked
        } else {
            out.is_dense = false;
            let leaked = self.sparse.reshape_into_lossy(&mut out.sparse);
            out.maybe_densify(ws);
            leaked
        };
        // Peak counters follow the state across rolling-buffer swaps
        // (the destination's own history is a stale prior trajectory).
        out.peak_nnz = self.peak_nnz;
        out.peak_bytes = self.peak_bytes;
        out.note_peak();
        leaked
    }

    /// Dense → sparse at a boundary re-scan, if the population fits
    /// under the workspace threshold (and sparse is enabled).
    fn sparsify_if_sparse_enough(&mut self, ws: &Workspace) {
        if !self.is_dense || !sparse_enabled() {
            return;
        }
        let dense = self.dense.as_ref().expect("dense buffer");
        let eps = ws.sparse_epsilon;
        let eps2 = eps * eps;
        let nnz = dense
            .amplitudes()
            .iter()
            .filter(|a| a.norm_sqr() > eps2)
            .count();
        let total = dense.register().total_dim() as f64;
        if (nnz as f64) <= ws.sparse_density_threshold * total {
            self.sparsify(eps);
        }
    }

    #[cfg(feature = "fault-inject")]
    pub(crate) fn poison_first_amplitude(&mut self) {
        let nan = C64::new(f64::NAN, f64::NAN);
        if self.is_dense {
            self.dense
                .as_mut()
                .expect("dense buffer")
                .poison_first_amplitude();
        } else if let Some(first) = self.sparse.entries.first_mut() {
            first.1 = nan;
        } else {
            self.sparse.entries.push((0, nan));
        }
    }
}

/// Damping never adds entries, so the peak counters need no update.
impl DampingTarget for AdaptiveState {
    fn dim(&self, qudit: usize) -> usize {
        self.engine().dim(qudit)
    }
    fn add_level_populations(&self, qudit: usize, lanes: &mut [[f64; POP_LANES]]) {
        self.engine().add_level_populations(qudit, lanes);
    }
    fn scale_levels(&mut self, qudit: usize, factors: &[f64]) {
        self.engine_mut().scale_levels(qudit, factors);
    }
    fn collapse(&mut self, qudit: usize, level: usize) {
        self.engine_mut().collapse(qudit, level);
    }
    fn norm_sqr(&self) -> f64 {
        self.engine().norm_sqr()
    }
    fn scale_amplitudes(&mut self, factor: f64) {
        self.engine_mut().scale_amplitudes(factor);
    }
}
