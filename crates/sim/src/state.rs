//! State vectors over mixed-dimension registers.

use rand::Rng;

use waltz_math::{vector, Matrix, C64};
use waltz_noise::{CoherenceModel, PauliOp};

use crate::damping::{self, DampingTarget, POP_LANES};
use crate::kernel::{self, Coeffs, GateKernel, Workspace};
use crate::{Register, TimedOp};

/// Largest modulus an amplitude clipped by [`State::reshape_into`] may
/// carry. The occupancy analysis proves clipped levels are *exactly*
/// unpopulated; numerically the amplitudes it drops are accumulated
/// floating-point dust, so anything above this tolerance means the
/// analysis (not the arithmetic) was wrong and the reshape panics.
pub const RESHAPE_LEAK_TOL: f64 = 1e-9;

/// A pure state over a [`Register`].
///
/// # Example
///
/// ```
/// use waltz_sim::{Register, State};
/// use waltz_math::C64;
///
/// let reg = Register::qubits(2);
/// let mut s = State::zero(&reg);
/// // Build a Bell state by hand.
/// let h = waltz_gates::standard::h();
/// s.apply_unitary(&h, &[0]);
/// let cx = waltz_gates::standard::cx();
/// s.apply_unitary(&cx, &[0, 1]);
/// assert!((s.probability_of(0) - 0.5).abs() < 1e-12);
/// assert!((s.probability_of(3) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    pub(crate) register: Register,
    pub(crate) amps: Vec<C64>,
}

impl State {
    /// The all-zeros computational basis state.
    pub fn zero(register: &Register) -> Self {
        let mut amps = vec![C64::ZERO; register.total_dim()];
        amps[0] = C64::ONE;
        State {
            register: register.clone(),
            amps,
        }
    }

    /// A state from explicit amplitudes (normalized on construction).
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches the register or the norm is zero.
    pub fn from_amplitudes(register: &Register, mut amps: Vec<C64>) -> Self {
        assert_eq!(
            amps.len(),
            register.total_dim(),
            "amplitude length mismatch"
        );
        let n = vector::normalize(&mut amps);
        assert!(n > 0.0, "state must have nonzero norm");
        State {
            register: register.clone(),
            amps,
        }
    }

    /// The tensor product of per-qudit pure states.
    ///
    /// # Panics
    ///
    /// Panics if a factor's length differs from its qudit's dimension.
    pub fn from_product(register: &Register, factors: &[Vec<C64>]) -> Self {
        assert_eq!(factors.len(), register.n_qudits(), "factor count mismatch");
        for (q, f) in factors.iter().enumerate() {
            assert_eq!(f.len(), register.dim(q), "factor {q} dimension mismatch");
        }
        let mut amps = vec![C64::ZERO; register.total_dim()];
        for (idx, amp) in amps.iter_mut().enumerate() {
            let mut a = C64::ONE;
            for (q, f) in factors.iter().enumerate() {
                a *= f[register.digit(idx, q)];
            }
            *amp = a;
        }
        State::from_amplitudes(register, amps)
    }

    /// A product of Haar-random single-qubit states, one per qudit,
    /// embedded in each qudit's lowest two levels — the paper's random
    /// initial states (§6.4) for devices starting in the qubit regime.
    pub fn random_qubit_product<R: Rng + ?Sized>(register: &Register, rng: &mut R) -> Self {
        let mut s = State::zero(register);
        s.fill_random_qubit_product(rng);
        s
    }

    /// In-place [`State::random_qubit_product`]: overwrites this state
    /// with a fresh random qubit-product draw without touching the heap —
    /// the per-trajectory initial-state factory of the steady-state
    /// fidelity loop.
    pub fn fill_random_qubit_product<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        const MAX_QUDITS: usize = 64;
        let n = self.register.n_qudits();
        assert!(n <= MAX_QUDITS, "register too large for stack factors");
        // Draw the per-qudit single-qubit factors onto the stack first so
        // the RNG is consumed in qudit order.
        let mut factors = [[C64::ZERO; 2]; MAX_QUDITS];
        for f in factors.iter_mut().take(n) {
            *f = waltz_math::linalg::haar_qubit(rng);
        }
        self.fill_product_with(|q, level| match level {
            0 | 1 => factors[q][level],
            _ => C64::ZERO,
        });
    }

    /// Overwrites this state with the tensor product of per-qudit factors,
    /// `factor(q, level)` giving the amplitude of `level` on qudit `q`,
    /// then normalizes — the allocation-free counterpart of
    /// [`State::from_product`] for caller-owned buffers.
    ///
    /// # Panics
    ///
    /// Panics if the resulting state has zero norm.
    pub fn fill_product_with(&mut self, factor: impl Fn(usize, usize) -> C64) {
        // Build the product by tensor expansion from the last qudit: after
        // processing qudit q, the first `len` amplitudes hold the product
        // over qudits q..n-1. Levels are written from the top so the old
        // prefix is still intact when it is read.
        self.amps[0] = C64::ONE;
        let mut len = 1usize;
        for q in (0..self.register.n_qudits()).rev() {
            let d = self.register.dim(q);
            for level in (0..d).rev() {
                let weight = factor(q, level);
                let (lo, hi) = self.amps.split_at_mut(level * len);
                if level == 0 {
                    // Source and destination coincide: scale in place.
                    for a in &mut hi[..len] {
                        *a *= weight;
                    }
                } else if weight == C64::ZERO {
                    hi[..len].fill(C64::ZERO);
                } else {
                    for (dst, src) in hi[..len].iter_mut().zip(&lo[..len]) {
                        *dst = weight * *src;
                    }
                }
            }
            len *= d;
        }
        let norm = self.normalize();
        assert!(norm > 0.0, "product state must have nonzero norm");
    }

    /// The register this state lives on.
    pub fn register(&self) -> &Register {
        &self.register
    }

    /// Raw amplitudes (row-major, qudit 0 most significant).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Overwrites the first amplitude with NaN — the deterministic
    /// amplitude-poisoning hook of the fault-injection harness
    /// ([`crate::fault`]).
    #[cfg(feature = "fault-inject")]
    pub(crate) fn poison_first_amplitude(&mut self) {
        self.amps[0] = C64::new(f64::NAN, f64::NAN);
    }

    /// Probability of a computational basis state.
    pub fn probability_of(&self, idx: usize) -> f64 {
        self.amps[idx].norm_sqr()
    }

    /// Norm of the state (1 unless mid-trajectory).
    pub fn norm(&self) -> f64 {
        vector::norm(&self.amps)
    }

    /// Renormalizes in place; returns the previous norm.
    pub fn normalize(&mut self) -> f64 {
        vector::normalize(&mut self.amps)
    }

    /// Overlap fidelity `|<self|other>|^2`.
    ///
    /// # Panics
    ///
    /// Panics if the registers differ.
    pub fn fidelity(&self, other: &State) -> f64 {
        assert_eq!(self.register, other.register, "register mismatch");
        vector::state_fidelity(&self.amps, &other.amps)
    }

    /// Applies a unitary to the listed operand qudits (first operand is the
    /// most significant digit of the matrix's basis).
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension does not equal the product of the
    /// operand dimensions, or if an operand repeats.
    pub fn apply_unitary(&mut self, u: &Matrix, operands: &[usize]) {
        let k = operands.len();
        for (i, a) in operands.iter().enumerate() {
            for b in operands.iter().skip(i + 1) {
                assert_ne!(a, b, "operands must be distinct");
            }
        }
        let block: usize = operands.iter().map(|&q| self.register.dim(q)).product();
        assert_eq!(u.rows(), block, "unitary does not match operand dims");

        // Offset of each of the `block` operand configurations.
        let mut offsets = vec![0usize; block];
        for (sub, off) in offsets.iter_mut().enumerate() {
            let mut rem = sub;
            let mut acc = 0usize;
            for &q in operands.iter().rev() {
                let d = self.register.dim(q);
                acc += (rem % d) * self.register.stride(q);
                rem /= d;
            }
            *off = acc;
        }

        // Iterate over all configurations of the non-operand qudits.
        let others: Vec<usize> = (0..self.register.n_qudits())
            .filter(|q| !operands.contains(q))
            .collect();
        let mut scratch = vec![C64::ZERO; block];
        let mut counter = vec![0usize; others.len()];
        loop {
            let base: usize = others
                .iter()
                .zip(counter.iter())
                .map(|(&q, &digit)| digit * self.register.stride(q))
                .sum();
            for (sub, s) in scratch.iter_mut().enumerate() {
                *s = self.amps[base + offsets[sub]];
            }
            for row in 0..block {
                let mut acc = C64::ZERO;
                for (col, &amp) in scratch.iter().enumerate() {
                    let coeff = u[(row, col)];
                    if coeff != C64::ZERO {
                        acc += coeff * amp;
                    }
                }
                self.amps[base + offsets[row]] = acc;
            }
            // Advance the mixed-radix counter over `others`.
            let mut pos = others.len();
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                counter[pos] += 1;
                if counter[pos] < self.register.dim(others[pos]) {
                    break;
                }
                counter[pos] = 0;
            }
            let _ = k;
        }
    }

    /// Applies a scheduled op through its precomputed [`GateKernel`],
    /// borrowing scratch from `ws` — the trajectory hot path.
    pub fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace) {
        kernel::apply(
            &mut self.amps,
            &self.register,
            &op.kernel,
            &op.unitary,
            &op.operands,
            ws,
        );
    }

    /// Applies `coeffs` to the operand qudits: an op's own, or with the
    /// trajectory runner's pending damping folded in (see
    /// [`crate::trajectory`]).
    pub(crate) fn apply_coeffs(
        &mut self,
        coeffs: Coeffs<'_>,
        operands: &[usize],
        ws: &mut Workspace,
    ) {
        kernel::apply_coeffs(&mut self.amps, &self.register, coeffs, operands, ws);
    }

    /// Applies a unitary through an explicitly classified kernel. The
    /// kernel must have been produced by [`GateKernel::classify`] on `u`.
    pub fn apply_kernel(
        &mut self,
        kernel: &GateKernel,
        u: &Matrix,
        operands: &[usize],
        ws: &mut Workspace,
    ) {
        kernel::apply(&mut self.amps, &self.register, kernel, u, operands, ws);
    }

    /// Overwrites this state with `other` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the registers differ.
    pub fn copy_from(&mut self, other: &State) {
        assert_eq!(self.register, other.register, "register mismatch");
        self.amps.copy_from_slice(&other.amps);
    }

    /// Re-targets this buffer onto `register`, resizing the amplitude
    /// vector; the amplitudes are unspecified afterwards (the caller
    /// overwrites them). This is how the segmented runners roll **two**
    /// buffers across per-segment registers instead of holding one
    /// buffer per segment: once both buffers have reached the peak
    /// segment size, re-targeting reuses their capacity (the register
    /// metadata is `clone_from`'d in place), so the steady-state loop
    /// stays allocation-free.
    pub fn remap(&mut self, register: &Register) {
        if &self.register != register {
            self.register.clone_from(register);
        }
        self.amps.resize(self.register.total_dim(), C64::ZERO);
    }

    /// Rewrites this state onto `out`'s register, which must span the
    /// same qudits with possibly different per-qudit dimensions — the
    /// in-flight transition between two adjacent segments of a windowed
    /// register schedule ([`crate::SegmentedCircuit`]).
    ///
    /// Per amplitude the basis labels are preserved: a qudit whose
    /// dimension *grows* keeps its digits and the new levels start empty,
    /// one whose dimension *shrinks* is clipped — sound only because the
    /// compiler's occupancy analysis proved the clipped levels
    /// unpopulated, which this method enforces by asserting every clipped
    /// amplitude is below [`RESHAPE_LEAK_TOL`]. Allocation-free: `out`'s
    /// buffer is zeroed and refilled in place.
    ///
    /// # Panics
    ///
    /// Panics if the qudit counts differ or a clipped amplitude exceeds
    /// the leak tolerance (the occupancy analysis was wrong — a bug).
    /// Noisy trajectories, whose error draws *can* legitimately populate
    /// levels the noiseless analysis proved empty, must use
    /// [`State::reshape_into_lossy`] instead.
    pub fn reshape_into(&self, out: &mut State) {
        let leaked = self.reshape_into_lossy(out);
        assert!(
            leaked <= RESHAPE_LEAK_TOL * RESHAPE_LEAK_TOL,
            "reshape clipped a nonzero amplitude (probability {leaked:.3e}): \
             the occupancy analysis must prove clipped levels unpopulated"
        );
    }

    /// [`State::reshape_into`] for noisy trajectories: clips whatever
    /// population sits outside `out`'s register and returns the clipped
    /// probability (summed `|amp|²`), without renormalizing the state it
    /// writes.
    ///
    /// A depolarizing draw inside an `ENC` window can leave population on
    /// levels the *noiseless* occupancy analysis proved empty (e.g. a
    /// ququart Pauli right after the `DEC` pulse); the whole-program
    /// engine simply carries that population to the end, where it
    /// overlaps the ideal state — which never leaves the occupied
    /// subspace — with amplitude zero. The reshape drops that population
    /// and leaves a sub-unit norm, but a trajectory keeps it only until
    /// its next damping step, which weighs its jump probabilities by the
    /// sub-unit populations and then normalizes: the surviving
    /// amplitudes are rescaled as if the trajectory had been conditioned
    /// on not leaking. Only when no damping step follows the reshape
    /// does the sub-unit norm reach the fidelity overlap. Neither matches
    /// the whole-program engine exactly, where damping or a later
    /// window's gates can also move leaked population *back* into the
    /// kept subspace; the `window_parity` 4000-trajectory statistical pin
    /// bounds the difference below one standard error.
    ///
    /// Trailing qudits whose dimension is unchanged map contiguous runs
    /// of amplitudes onto contiguous runs of the same length. Above them,
    /// the lowest changed qudit keeps `min(d_src, d_dst)` levels, which
    /// are contiguous on both sides, so each step copies
    /// `min(d_src, d_dst) · run` amplitudes at once. An odometer steps the
    /// qudits above it, with consecutive unchanged qudits merged into one
    /// digit, over the union of both registers' digits. Only destination
    /// ranges that no copy writes are zeroed. Clipped probability is
    /// summed in ascending source order.
    ///
    /// # Panics
    ///
    /// Panics if the qudit counts differ.
    pub fn reshape_into_lossy(&self, out: &mut State) -> f64 {
        let src = &self.register;
        let State {
            register: dst,
            amps: out_amps,
        } = out;
        assert_eq!(
            src.n_qudits(),
            dst.n_qudits(),
            "reshape must preserve the qudit count"
        );
        if src == dst {
            out_amps.copy_from_slice(&self.amps);
            return 0.0;
        }
        // Qudit `low` is the lowest whose dimension changes; the qudits
        // below it form runs of `run` amplitudes on both sides.
        let mut low = src.n_qudits() - 1;
        while src.dim(low) == dst.dim(low) {
            low -= 1;
        }
        let run = src.stride(low);
        let (src_block, dst_block) = (src.dim(low) * run, dst.dim(low) * run);
        let keep = src_block.min(dst_block);
        // Odometer digits over the qudits above `low`, most significant
        // first: (source dim, destination dim, source stride,
        // destination stride), consecutive unchanged qudits merged.
        let mut digits = [(0usize, 0usize, 0usize, 0usize); kernel::MAX_QUDITS];
        let mut n = 0;
        for q in 0..low {
            let (ds, dd) = (src.dim(q), dst.dim(q));
            match digits[..n].last_mut() {
                Some(prev) if ds == dd && prev.0 == prev.1 => {
                    *prev = (prev.0 * ds, prev.1 * dd, src.stride(q), dst.stride(q));
                }
                _ => {
                    assert!(
                        n < kernel::MAX_QUDITS,
                        "register too large for stack digits"
                    );
                    digits[n] = (ds, dd, src.stride(q), dst.stride(q));
                    n += 1;
                }
            }
        }
        // The lowest digit runs as a flat loop inside the odometer over
        // the others.
        let (outer, (ds_low, dd_low, ss_low, sd_low)) = match n {
            0 => (&digits[..0], (1, 1, 0, 0)),
            _ => (&digits[..n - 1], digits[n - 1]),
        };
        let mut values = [0usize; kernel::MAX_QUDITS];
        // Outer digits at or past the source (destination) dimension: the
        // step has no source (destination) blocks.
        let (mut src_out, mut dst_out) = (0usize, 0usize);
        let (mut src_base, mut dst_base) = (0usize, 0usize);
        let mut leaked = 0.0f64;
        let steps: usize = outer.iter().map(|&(ds, dd, ..)| ds.max(dd)).product();
        for _ in 0..steps {
            let src_levels = if src_out == 0 { ds_low } else { 0 };
            let dst_levels = if dst_out == 0 { dd_low } else { 0 };
            for v in 0..src_levels.max(dst_levels) {
                let (s, d) = (src_base + v * ss_low, dst_base + v * sd_low);
                match (v < src_levels, v < dst_levels) {
                    (true, true) => {
                        copy_run(&mut out_amps[d..d + keep], &self.amps[s..s + keep]);
                        for amp in &self.amps[s + keep..s + src_block] {
                            leaked += amp.norm_sqr();
                        }
                        zero_run(&mut out_amps[d + keep..d + dst_block]);
                    }
                    (true, false) => {
                        for amp in &self.amps[s..s + src_block] {
                            leaked += amp.norm_sqr();
                        }
                    }
                    _ => zero_run(&mut out_amps[d..d + dst_block]),
                }
            }
            for (pos, &(ds, dd, ss, sd)) in outer.iter().enumerate().rev() {
                let v = values[pos] + 1;
                src_base += ss;
                dst_base += sd;
                src_out += usize::from(v == ds);
                dst_out += usize::from(v == dd);
                if v < ds.max(dd) {
                    values[pos] = v;
                    break;
                }
                // Wrapped: the digit had passed both dimensions.
                values[pos] = 0;
                src_out -= 1;
                dst_out -= 1;
                src_base -= v * ss;
                dst_base -= v * sd;
            }
        }
        leaked
    }

    /// Applies a generalized Pauli to one qudit, in place (no amplitude
    /// buffer is cloned: the permutation's cycles are walked with a single
    /// temporary). The Pauli's dimension may be smaller than the device
    /// dimension (e.g. a qubit error on a 4-level transmon): levels at or
    /// above `op.d` are untouched.
    ///
    /// The pass is run-major. The level sequence of each cycle of
    /// `j -> (j + a) % d` is computed once per call; each cycle then
    /// walks the `stride` contiguous amplitudes of its levels, so no
    /// division runs per amplitude. A clock-type Pauli (`a == 0`) scales
    /// each level's run by its phase. Every amplitude gets the plain
    /// product `phase * amp`.
    ///
    /// This is a stack-only specialization of the permutation-kernel
    /// cycle walk in [`crate::kernel`], kept allocation-free for the
    /// trajectory hot path; the kernel-parity test suite pins it against
    /// a kernel built from [`PauliOp::as_phased_permutation`].
    pub fn apply_pauli(&mut self, op: PauliOp, qudit: usize) {
        if op.is_identity() {
            return;
        }
        let dev_dim = self.register.dim(qudit);
        let d = op.d as usize;
        assert!(d <= dev_dim, "Pauli dimension exceeds device dimension");
        assert!(d <= 16, "Pauli dimension above 16 is unsupported");
        let stride = self.register.stride(qudit);
        let span = stride * dev_dim;
        // Permutation + phases on the logical levels, on the stack.
        let mut phases = [C64::ZERO; 16];
        for (j, p) in phases.iter_mut().take(d).enumerate() {
            *p = op.act_on_basis(j).1;
        }
        let a = op.a as usize;
        if a == 0 {
            // Pure clock operator: scale each level's run in place.
            for block in self.amps.chunks_exact_mut(span) {
                for (run, &phase) in block.chunks_exact_mut(stride).zip(&phases[..d]) {
                    for amp in run {
                        *amp = phase * *amp;
                    }
                }
            }
            return;
        }
        // Shift-by-a permutation: `gcd(a, d)` cycles of `len` levels
        // each, cycle `c` visiting levels `(c + k * a) % d` in order.
        let len = d / gcd(a, d);
        let mut levels = [0usize; 16];
        for (c, cycle) in levels[..d].chunks_exact_mut(len).enumerate() {
            for (k, level) in cycle.iter_mut().enumerate() {
                *level = (c + k * a) % d;
            }
        }
        for block in self.amps.chunks_exact_mut(span) {
            for cycle in levels[..d].chunks_exact(len) {
                let last = cycle[len - 1];
                if let [from, to] = *cycle {
                    // A swap of two level runs.
                    let (lo, hi) = (from.min(to), from.max(to));
                    let (head, tail) = block.split_at_mut(hi * stride);
                    let (lo_run, hi_run) =
                        (&mut head[lo * stride..][..stride], &mut tail[..stride]);
                    let (src, dst) = if from < to {
                        (lo_run, hi_run)
                    } else {
                        (hi_run, lo_run)
                    };
                    for (s, t) in src.iter_mut().zip(dst) {
                        let tmp = *t;
                        *t = phases[from] * *s;
                        *s = phases[to] * tmp;
                    }
                    continue;
                }
                for inner in 0..stride {
                    let tmp = block[last * stride + inner];
                    for k in (1..len).rev() {
                        let from = cycle[k - 1];
                        block[cycle[k] * stride + inner] =
                            phases[from] * block[from * stride + inner];
                    }
                    block[cycle[0] * stride + inner] = phases[last] * tmp;
                }
            }
        }
    }

    /// One stochastic amplitude-damping step on `qudit` for `dt_ns` of
    /// elapsed time (trajectory unraveling of the §6.5 channel): with
    /// probability `lambda_m P(level m)` the state collapses through the
    /// jump operator `K_m`; otherwise the no-jump Kraus `K_0` is applied.
    /// Either way the result is normalized.
    ///
    /// The step reads the state once (the level populations), writes the
    /// excited levels (no-jump) or every level (jump), and normalizes in
    /// one multiply pass. The trajectory runners take a cheaper path to
    /// the same draws and branches: most of their steps never read the
    /// state (see [`crate::trajectory`]).
    pub fn damping_step<R: Rng + ?Sized>(
        &mut self,
        model: &CoherenceModel,
        qudit: usize,
        dt_ns: f64,
        rng: &mut R,
    ) {
        damping::normalized_step(self, model, qudit, dt_ns, rng);
    }

    /// [`State::damping_step`]. The workspace is not used (the step's
    /// per-level tables live on the stack); the parameter stays for
    /// existing callers.
    pub fn damping_step_with<R: Rng + ?Sized>(
        &mut self,
        model: &CoherenceModel,
        qudit: usize,
        dt_ns: f64,
        rng: &mut R,
        _ws: &mut Workspace,
    ) {
        self.damping_step(model, qudit, dt_ns, rng);
    }

    /// Samples a computational basis outcome.
    pub fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let roll: f64 = rng.gen();
        let mut acc = 0.0;
        for (idx, amp) in self.amps.iter().enumerate() {
            acc += amp.norm_sqr();
            if roll < acc {
                return idx;
            }
        }
        self.amps.len() - 1
    }
}

impl DampingTarget for State {
    fn dim(&self, qudit: usize) -> usize {
        self.register.dim(qudit)
    }

    fn add_level_populations(&self, qudit: usize, lanes: &mut [[f64; POP_LANES]]) {
        let (stride, dim) = (self.register.stride(qudit), self.register.dim(qudit));
        add_level_populations(&self.amps, stride, dim, lanes);
    }

    fn scale_levels(&mut self, qudit: usize, factors: &[f64]) {
        scale_levels(&mut self.amps, self.register.stride(qudit), factors);
    }

    fn collapse(&mut self, qudit: usize, level: usize) {
        let stride = self.register.stride(qudit);
        for block in self
            .amps
            .chunks_exact_mut(stride * self.register.dim(qudit))
        {
            block.copy_within(level * stride..(level + 1) * stride, 0);
            block[stride..].fill(C64::ZERO);
        }
    }

    fn norm_sqr(&self) -> f64 {
        let mut lanes = [0.0f64; POP_LANES];
        let mut quads = self.amps.chunks_exact(POP_LANES);
        for quad in &mut quads {
            for (l, a) in lanes.iter_mut().zip(quad) {
                *l += a.norm_sqr();
            }
        }
        for (l, a) in lanes.iter_mut().zip(quads.remainder()) {
            *l += a.norm_sqr();
        }
        damping::lane_sum(lanes)
    }

    fn scale_amplitudes(&mut self, factor: f64) {
        if factor != 1.0 {
            for a in &mut self.amps {
                *a *= factor;
            }
        }
    }
}

/// The period, in amplitudes, after which both the level of the damped
/// qudit and the population lane (see [`POP_LANES`]) of an amplitude
/// repeat — `lcm(stride · dim, POP_LANES)` — when the stride divides
/// `POP_LANES` and the period is one the unrolled paths handle. Within
/// such a period every (level, lane) pair occurs at most once.
fn short_period(stride: usize, dim: usize) -> Option<usize> {
    // With a stride of 1, 2 or 4 that lcm is 4, 8 or 16 exactly when the
    // span is a power of two up to 16; no division on this per-step path.
    let span = stride * dim;
    (matches!(stride, 1 | 2 | 4) && span.is_power_of_two() && span <= 16)
        .then(|| span.max(POP_LANES))
}

/// The damped qudit's level at each amplitude index from 0 on.
fn levels(stride: usize, dim: usize) -> impl Iterator<Item = usize> {
    (0..dim)
        .flat_map(move |level| std::iter::repeat_n(level, stride))
        .cycle()
}

/// The damping step's read pass: adds each amplitude's `|a|²` into lane
/// `i % POP_LANES` of its level, each lane in ascending index order.
/// Three loops produce that one order: per-position sums over a short
/// period for small strides, lane quads along each level slice for
/// strides that are multiples of `POP_LANES`, one amplitude at a time
/// otherwise. The runners read on about 1% of their steps, but at 2^14
/// amplitudes the last loop alone runs ~5x slower than the first two,
/// which showed in windowed-ladder throughput.
fn add_level_populations(amps: &[C64], stride: usize, dim: usize, lanes: &mut [[f64; POP_LANES]]) {
    match short_period(stride, dim) {
        Some(4) => add_periodic_populations::<4>(amps, stride, dim, lanes),
        Some(8) => add_periodic_populations::<8>(amps, stride, dim, lanes),
        Some(16) => add_periodic_populations::<16>(amps, stride, dim, lanes),
        _ if stride.is_multiple_of(POP_LANES) => {
            // Every level slice starts on lane 0.
            for block in amps.chunks_exact(stride * dim) {
                for (lane, level) in lanes.iter_mut().zip(block.chunks_exact(stride)) {
                    let mut sums = *lane;
                    for quad in level.chunks_exact(POP_LANES) {
                        for (s, a) in sums.iter_mut().zip(quad) {
                            *s += a.norm_sqr();
                        }
                    }
                    *lane = sums;
                }
            }
        }
        _ => {
            for ((i, a), level) in amps.iter().enumerate().zip(levels(stride, dim)) {
                lanes[level][i % POP_LANES] += a.norm_sqr();
            }
        }
    }
}

/// [`add_level_populations`] over a period of `C` amplitudes
/// ([`short_period`]): one running sum per position of the period, each
/// of which is exactly one (level, lane) sum, in ascending order.
fn add_periodic_populations<const C: usize>(
    amps: &[C64],
    stride: usize,
    dim: usize,
    lanes: &mut [[f64; POP_LANES]],
) {
    let mut sums = [0.0f64; C];
    let periods = amps.chunks_exact(C);
    let tail = periods.remainder();
    for period in periods {
        for (s, a) in sums.iter_mut().zip(period) {
            *s += a.norm_sqr();
        }
    }
    for (s, a) in sums.iter_mut().zip(tail) {
        *s += a.norm_sqr();
    }
    for ((p, s), level) in sums.into_iter().enumerate().zip(levels(stride, dim)) {
        lanes[level][p % POP_LANES] += s;
    }
}

/// Multiplies each amplitude by `factors[level]`, `level` being its
/// digit on the qudit with this stride (`factors[0]` must be 1; the
/// ground level is skipped or multiplied by exactly 1).
fn scale_levels(amps: &mut [C64], stride: usize, factors: &[f64]) {
    let dim = factors.len();
    match short_period(stride, dim) {
        Some(4) => scale_periodic::<4>(amps, stride, factors),
        Some(8) => scale_periodic::<8>(amps, stride, factors),
        Some(16) => scale_periodic::<16>(amps, stride, factors),
        _ => {
            for block in amps.chunks_exact_mut(stride * dim) {
                for (level, &f) in block.chunks_exact_mut(stride).zip(factors).skip(1) {
                    for a in level {
                        *a *= f;
                    }
                }
            }
        }
    }
}

/// [`scale_levels`] through a per-position factor pattern of one period
/// of `C` amplitudes.
fn scale_periodic<const C: usize>(amps: &mut [C64], stride: usize, factors: &[f64]) {
    let mut pattern = [0.0f64; C];
    for (f, level) in pattern.iter_mut().zip(levels(stride, factors.len())) {
        *f = factors[level];
    }
    let mut periods = amps.chunks_exact_mut(C);
    for period in &mut periods {
        for (a, &f) in period.iter_mut().zip(&pattern) {
            *a *= f;
        }
    }
    for (a, &f) in periods.into_remainder().iter_mut().zip(&pattern) {
        *a *= f;
    }
}

/// `dst.copy_from_slice(src)`, with the short runs most reshapes copy
/// (up to 8 amplitudes) as inline moves rather than a library call.
#[inline(always)]
fn copy_run(dst: &mut [C64], src: &[C64]) {
    match src.len() {
        2 => dst[..2].copy_from_slice(&src[..2]),
        4 => dst[..4].copy_from_slice(&src[..4]),
        8 => dst[..8].copy_from_slice(&src[..8]),
        _ => dst.copy_from_slice(src),
    }
}

/// `run.fill(C64::ZERO)`, short runs inline as in [`copy_run`].
#[inline(always)]
fn zero_run(run: &mut [C64]) {
    match run.len() {
        0 => {}
        2 => run[..2].fill(C64::ZERO),
        4 => run[..4].fill(C64::ZERO),
        8 => run[..8].fill(C64::ZERO),
        _ => run.fill(C64::ZERO),
    }
}

/// Greatest common divisor (for Pauli shift cycle lengths).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waltz_gates::standard;
    use waltz_noise::CoherenceModel;

    #[test]
    fn zero_state_probabilities() {
        let s = State::zero(&Register::new(vec![4, 2]));
        assert!((s.probability_of(0) - 1.0).abs() < 1e-15);
        assert!((s.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn apply_unitary_matches_dense_reference_on_mixed_register() {
        // Apply the mixed-radix CCZ to (ququart, qubit) and compare with the
        // dense 8x8 matrix applied to the full vector.
        let reg = Register::new(vec![4, 2]);
        let mut rng = StdRng::seed_from_u64(3);
        let amps = waltz_math::linalg::haar_state(8, &mut rng);
        let mut s = State::from_amplitudes(&reg, amps.clone());
        let u = waltz_gates::mixed::ccz();
        s.apply_unitary(&u, &[0, 1]);
        let expected = u.apply(&amps);
        for (got, want) in s.amplitudes().iter().zip(&expected) {
            assert!(got.approx_eq(*want, 1e-12));
        }
    }

    #[test]
    fn apply_unitary_respects_operand_order() {
        // CX(control=1, target=0) on 2 qubits: |01> -> |11>.
        let reg = Register::qubits(2);
        let mut s = State::zero(&reg);
        s.apply_unitary(&standard::x(), &[1]); // |01>
        s.apply_unitary(&standard::cx(), &[1, 0]); // control qubit 1
        assert!((s.probability_of(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_unitary_on_non_adjacent_operands() {
        // 3 qudits (2,4,2); apply CX(q2, q0) leaving the middle alone.
        let reg = Register::new(vec![2, 4, 2]);
        let mut s = State::zero(&reg);
        s.apply_unitary(&standard::x(), &[2]);
        s.apply_unitary(&standard::cx(), &[2, 0]);
        // Expect |1, 0, 1> = 8 + 0 + 1 = 9.
        assert!((s.probability_of(9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_operand_unitary() {
        let reg = Register::qubits(3);
        let mut s = State::zero(&reg);
        s.apply_unitary(&standard::x(), &[0]);
        s.apply_unitary(&standard::x(), &[1]);
        s.apply_unitary(&standard::ccx(), &[0, 1, 2]);
        assert!((s.probability_of(7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_state_construction() {
        let reg = Register::new(vec![2, 2]);
        let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        let s = State::from_product(&reg, &[vec![h, h], vec![C64::ONE, C64::ZERO]]);
        assert!((s.probability_of(0) - 0.5).abs() < 1e-12);
        assert!((s.probability_of(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_product_states_are_normalized_and_qubit_confined() {
        let reg = Register::new(vec![4, 4]);
        let mut rng = StdRng::seed_from_u64(1);
        let s = State::random_qubit_product(&reg, &mut rng);
        assert!((s.norm() - 1.0).abs() < 1e-12);
        // No amplitude outside levels {0,1} of either ququart.
        for idx in 0..16 {
            let d0 = reg.digit(idx, 0);
            let d1 = reg.digit(idx, 1);
            if d0 > 1 || d1 > 1 {
                assert!(s.amplitudes()[idx].abs() < 1e-15);
            }
        }
    }

    #[test]
    fn fill_product_reuses_buffer_without_stale_leakage() {
        let reg = Register::new(vec![4, 2, 4]);
        let mut rng = StdRng::seed_from_u64(12);
        let mut s = State::from_amplitudes(&reg, waltz_math::linalg::haar_state(32, &mut rng));
        // Overwrite the garbage with a product state, twice.
        for _ in 0..2 {
            s.fill_random_qubit_product(&mut rng);
            assert!((s.norm() - 1.0).abs() < 1e-12);
            for idx in 0..reg.total_dim() {
                if (0..reg.n_qudits()).any(|q| reg.digit(idx, q) > 1) {
                    assert!(s.amplitudes()[idx].abs() < 1e-15, "leak at {idx}");
                }
            }
        }
        // And the generic fill agrees with from_product.
        let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        let f0 = vec![h, h, C64::ZERO, C64::ZERO];
        let f1 = vec![C64::ZERO, C64::ONE];
        let f2 = vec![C64::ZERO, C64::ZERO, h, h];
        let want = State::from_product(&reg, &[f0.clone(), f1.clone(), f2.clone()]);
        let factors = [f0, f1, f2];
        s.fill_product_with(|q, level| factors[q][level]);
        assert!((s.fidelity(&want) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_on_sub_dimension_leaves_high_levels() {
        let reg = Register::new(vec![4]);
        // Put amplitude on |2>.
        let mut amps = vec![C64::ZERO; 4];
        amps[2] = C64::ONE;
        let mut s = State::from_amplitudes(&reg, amps);
        s.apply_pauli(waltz_noise::PauliOp { a: 1, b: 0, d: 2 }, 0);
        assert!((s.probability_of(2) - 1.0).abs() < 1e-12);
        // And a qubit X on |0> flips to |1>.
        let mut s = State::zero(&reg);
        s.apply_pauli(waltz_noise::PauliOp { a: 1, b: 0, d: 2 }, 0);
        assert!((s.probability_of(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_matches_matrix_application() {
        let reg = Register::new(vec![4, 2]);
        let mut rng = StdRng::seed_from_u64(9);
        let amps = waltz_math::linalg::haar_state(8, &mut rng);
        let op = waltz_noise::PauliOp { a: 3, b: 2, d: 4 };
        let mut s = State::from_amplitudes(&reg, amps.clone());
        s.apply_pauli(op, 0);
        let dense = op.matrix().kron(&Matrix::identity(2));
        let expected = dense.apply(&amps);
        for (got, want) in s.amplitudes().iter().zip(&expected) {
            assert!(got.approx_eq(*want, 1e-12));
        }
    }

    #[test]
    fn damping_ground_state_is_invariant() {
        let reg = Register::new(vec![4]);
        let mut s = State::zero(&reg);
        let mut rng = StdRng::seed_from_u64(2);
        s.damping_step(&CoherenceModel::paper(), 0, 1e6, &mut rng);
        assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn damping_eventually_decays_excited_state() {
        // |3> damped for a very long time must end in |0>.
        let reg = Register::new(vec![4]);
        let mut amps = vec![C64::ZERO; 4];
        amps[3] = C64::ONE;
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = State::from_amplitudes(&reg, amps);
        s.damping_step(&CoherenceModel::paper(), 0, 1e12, &mut rng);
        assert!((s.probability_of(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn damping_statistics_match_lambda() {
        // Monte-Carlo estimate of survival of |1> over dt vs exp(-dt/T1).
        let model = CoherenceModel::with_t1_ns(1000.0);
        let dt = 700.0;
        let reg = Register::new(vec![2]);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4000;
        let mut survived = 0;
        for _ in 0..n {
            let mut amps = vec![C64::ZERO; 2];
            amps[1] = C64::ONE;
            let mut s = State::from_amplitudes(&reg, amps);
            s.damping_step(&model, 0, dt, &mut rng);
            if s.probability_of(1) > 0.5 {
                survived += 1;
            }
        }
        let expected = (-dt / 1000.0f64).exp();
        let got = survived as f64 / n as f64;
        assert!(
            (got - expected).abs() < 0.03,
            "survival {got} vs expected {expected}"
        );
    }

    #[test]
    fn sample_basis_respects_distribution() {
        let reg = Register::qubits(1);
        let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        let s = State::from_amplitudes(&reg, vec![h, h]);
        let mut rng = StdRng::seed_from_u64(8);
        let mut ones = 0;
        for _ in 0..2000 {
            ones += s.sample_basis(&mut rng);
        }
        assert!((ones as f64 / 2000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "operands must be distinct")]
    fn repeated_operand_rejected() {
        let reg = Register::qubits(2);
        let mut s = State::zero(&reg);
        s.apply_unitary(&standard::cx(), &[0, 0]);
    }

    #[test]
    fn reshape_expand_then_clip_round_trips() {
        // A (2, 2) state expanded to (4, 2) keeps its amplitudes at the
        // same digit labels, leaves the new levels empty, and clips back
        // bit-identically.
        let small = Register::new(vec![2, 2]);
        let big = Register::new(vec![4, 2]);
        let mut rng = StdRng::seed_from_u64(6);
        let s = State::from_amplitudes(&small, waltz_math::linalg::haar_state(4, &mut rng));
        let mut wide = State::zero(&big);
        s.reshape_into(&mut wide);
        assert!((wide.norm() - 1.0).abs() < 1e-12);
        for idx in 0..big.total_dim() {
            let digits = big.digits_of(idx);
            let want = if digits[0] < 2 {
                s.amplitudes()[small.index_of(&digits)]
            } else {
                C64::ZERO
            };
            assert_eq!(wide.amplitudes()[idx], want, "idx {idx}");
        }
        let mut back = State::zero(&small);
        wide.reshape_into(&mut back);
        assert_eq!(back.amplitudes(), s.amplitudes());
    }

    #[test]
    fn reshape_mixed_grow_and_shrink() {
        // (4, 2) -> (2, 4): qudit 0 clips (its upper levels are empty),
        // qudit 1 grows.
        let src_reg = Register::new(vec![4, 2]);
        let dst_reg = Register::new(vec![2, 4]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut src = State::zero(&src_reg);
        src.fill_random_qubit_product(&mut rng);
        let mut dst = State::zero(&dst_reg);
        src.reshape_into(&mut dst);
        assert!((dst.norm() - 1.0).abs() < 1e-12);
        for idx in 0..src_reg.total_dim() {
            let digits = src_reg.digits_of(idx);
            if digits[0] < 2 {
                assert_eq!(
                    dst.amplitudes()[dst_reg.index_of(&digits)],
                    src.amplitudes()[idx]
                );
            }
        }
    }

    #[test]
    fn reshape_same_register_is_a_copy() {
        let reg = Register::new(vec![4, 2]);
        let mut rng = StdRng::seed_from_u64(8);
        let s = State::from_amplitudes(&reg, waltz_math::linalg::haar_state(8, &mut rng));
        let mut out = State::zero(&reg);
        s.reshape_into(&mut out);
        assert_eq!(out.amplitudes(), s.amplitudes());
    }

    #[test]
    #[should_panic(expected = "clipped a nonzero amplitude")]
    fn reshape_refuses_to_clip_populated_levels() {
        let src = Register::new(vec![4]);
        let mut amps = vec![C64::ZERO; 4];
        amps[3] = C64::ONE;
        let s = State::from_amplitudes(&src, amps);
        let mut out = State::zero(&Register::new(vec![2]));
        s.reshape_into(&mut out);
    }

    #[test]
    #[should_panic(expected = "preserve the qudit count")]
    fn reshape_rejects_qudit_count_mismatch() {
        let s = State::zero(&Register::qubits(2));
        let mut out = State::zero(&Register::qubits(3));
        s.reshape_into(&mut out);
    }
}
