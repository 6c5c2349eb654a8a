//! Runtime-dispatched SIMD sweep bodies.
//!
//! The sweep kernels in [`crate::kernel`] are written twice: a portable
//! scalar form (always compiled, the parity reference) and an explicit
//! x86_64 AVX2+FMA form working on 256-bit lanes over the interleaved
//! `[re, im]` layout of [`C64`] (guaranteed by its `repr(C)`). One
//! [`SimdLevel`] — detected once per process with
//! `is_x86_feature_detected!` and forced to scalar by `WALTZ_SIMD=0` —
//! picks the form at run time; on non-x86_64 targets every dispatcher
//! here compiles to the scalar fallback.
//!
//! # Pairing
//!
//! A 256-bit lane holds **two** complex amplitudes, but a kernel's
//! operand offsets are rarely adjacent in memory. What *is* adjacent is
//! the innermost dimension of the sweep itself: when the lowest-stride
//! qudit is a non-operand with even dimension, consecutive sweep
//! configurations touch neighbouring amplitudes (`base` and `base + 1`)
//! for every operand offset. The vector arms therefore process sweep
//! configurations **in pairs** — one lane per offset covers two
//! configurations at once — which vectorizes every kernel class without
//! reshuffling amplitudes, the same trick high-performance state-vector
//! simulators use. When no pairing is possible (the innermost qudit is
//! an operand, or has odd dimension) the scalar body runs instead.
//!
//! Arithmetic note: the vector complex product uses FMA
//! (`vfmaddsub231pd`), so results can differ from the scalar two-rounding
//! form in the last ulp. `tests/simd_parity.rs` pins every arm to the
//! scalar path at 1e-12.

use waltz_math::C64;

use crate::kernel::SharedAmps;
use crate::Register;

#[cfg(target_arch = "x86_64")]
use crate::kernel::MAX_QUDITS;

/// The instruction-set tier the sweep bodies run at.
///
/// Detected once per process by [`SimdLevel::detect`]; stored per
/// [`crate::Workspace`] so tests can pin a workspace to the scalar path
/// with [`crate::Workspace::set_simd_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar sweep bodies (always compiled; forced by setting
    /// the `WALTZ_SIMD` environment variable to `0`).
    Scalar,
    /// 256-bit AVX2 + FMA lanes over the interleaved complex layout.
    Avx2Fma,
}

impl SimdLevel {
    /// The best level this host supports, computed once per process.
    ///
    /// Detection order: the `WALTZ_SIMD` environment variable is read
    /// first (`0` forces [`SimdLevel::Scalar`]); otherwise, on x86_64,
    /// `is_x86_feature_detected!` probes for AVX2 *and* FMA; any other
    /// architecture or older CPU falls back to scalar.
    pub fn detect() -> SimdLevel {
        static CACHED: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
        *CACHED.get_or_init(detect_uncached)
    }

    /// Stable lower-case name, used in perf reports and the serve stats
    /// surface (`"scalar"` / `"avx2+fma"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2+fma",
        }
    }

    /// Whether this level carries vector arms at all.
    pub(crate) fn accelerated(self) -> bool {
        !matches!(self, SimdLevel::Scalar)
    }
}

fn detect_uncached() -> SimdLevel {
    if let Ok(v) = std::env::var("WALTZ_SIMD") {
        let v = v.trim();
        if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") {
            return SimdLevel::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2Fma;
        }
    }
    SimdLevel::Scalar
}

/// Everything a vector dispatcher needs about the sweep being applied.
/// Built once per [`crate::kernel::apply`] call.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct SweepCtx<'a> {
    /// Register being swept.
    pub reg: &'a Register,
    /// Non-operand qudits, ascending.
    pub others: &'a [usize],
    /// Amplitude offset per operand-block configuration.
    pub offsets: &'a [usize],
    /// Amplitude pointer (see [`SharedAmps`]).
    pub shared: SharedAmps,
    /// The workspace's SIMD level.
    pub level: SimdLevel,
}

/// The paired view of a sweep: the innermost (stride-1, even-dimension)
/// non-operand qudit is folded in half so one "unit" covers two
/// consecutive configurations — exactly one 256-bit lane per operand
/// offset.
#[cfg(target_arch = "x86_64")]
struct PairedSweep {
    dims: [usize; MAX_QUDITS],
    strides: [usize; MAX_QUDITS],
    len: usize,
}

#[cfg(target_arch = "x86_64")]
impl PairedSweep {
    fn detect(reg: &Register, others: &[usize]) -> Option<PairedSweep> {
        let &innermost = others.last()?;
        if reg.stride(innermost) != 1 || !reg.dim(innermost).is_multiple_of(2) {
            return None;
        }
        debug_assert!(others.len() <= MAX_QUDITS);
        let mut dims = [0usize; MAX_QUDITS];
        let mut strides = [0usize; MAX_QUDITS];
        for (slot, &q) in others.iter().enumerate() {
            dims[slot] = reg.dim(q);
            strides[slot] = reg.stride(q);
        }
        let len = others.len();
        // Two configurations per unit: half the innermost count, double
        // its (unit) stride.
        dims[len - 1] /= 2;
        strides[len - 1] = 2;
        Some(PairedSweep { dims, strides, len })
    }

    fn dims(&self) -> &[usize] {
        &self.dims[..self.len]
    }

    fn strides(&self) -> &[usize] {
        &self.strides[..self.len]
    }
}

/// Vector arm of the multi-qudit diagonal sweep. Returns `true` when the
/// sweep was handled (level accelerated and pairing possible).
pub(crate) fn diag_sweep(ctx: &SweepCtx<'_>, phases: &[C64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if ctx.level.accelerated() {
            if let Some(ps) = PairedSweep::detect(ctx.reg, ctx.others) {
                unsafe {
                    x86::diag_pairs(ctx.shared, ps.dims(), ps.strides(), ctx.offsets, phases);
                }
                return true;
            }
        }
    }
    let _ = (ctx, phases);
    false
}

/// Vector arm of the permutation cycle walk. Returns `true` when handled.
pub(crate) fn perm_sweep(ctx: &SweepCtx<'_>, cycles: &[Vec<usize>], phases: &[C64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if ctx.level.accelerated() {
            if let Some(ps) = PairedSweep::detect(ctx.reg, ctx.others) {
                unsafe {
                    x86::perm_pairs(
                        ctx.shared,
                        ps.dims(),
                        ps.strides(),
                        ctx.offsets,
                        cycles,
                        phases,
                    );
                }
                return true;
            }
        }
    }
    let _ = (ctx, cycles, phases);
    false
}

/// Vector arm of the dense-block matvec (single-qudit, two-qudit and
/// general-dense kernels). `tiled` selects the cache-blocked two-qudit
/// gather: pair-units are buffered into an L1-resident tile so each
/// coefficient broadcast is amortized over the whole tile. Returns `true`
/// when handled.
pub(crate) fn dense_sweep(ctx: &SweepCtx<'_>, m: &[C64], tiled: bool) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let block = ctx.offsets.len();
        if ctx.level.accelerated()
            && block <= x86::MAX_BLOCK
            && (!tiled || block <= x86::MAX_TILE_BLOCK)
        {
            if let Some(ps) = PairedSweep::detect(ctx.reg, ctx.others) {
                // Embedded gates carry structural zeros worth skipping;
                // fully dense (Haar / fused) blocks run branch-free.
                let sparse = m.contains(&C64::ZERO);
                unsafe {
                    if tiled {
                        x86::two_qudit_pairs(
                            ctx.shared,
                            ps.dims(),
                            ps.strides(),
                            ctx.offsets,
                            m,
                            sparse,
                        );
                    } else {
                        x86::dense_pairs(
                            ctx.shared,
                            ps.dims(),
                            ps.strides(),
                            ctx.offsets,
                            m,
                            sparse,
                        );
                    }
                }
                return true;
            }
        }
    }
    let _ = (ctx, m, tiled);
    false
}

/// Vector arm of the single-qudit diagonal fast path, over the whole
/// amplitude vector (a whole number of `stride * phases.len()` spans).
/// Returns `true` when handled.
pub(crate) fn scale_diag_chunk(
    level: SimdLevel,
    chunk: &mut [C64],
    phases: &[C64],
    stride: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if level.accelerated() {
            if stride == 1 {
                // Contiguous periodic pattern: amps[i] *= phases[i % d].
                let d = phases.len();
                let pat = if d.is_multiple_of(2) { d } else { 2 * d };
                if pat <= x86::MAX_PATTERN {
                    unsafe { x86::scale_periodic(chunk.as_mut_ptr(), chunk.len(), phases) };
                    return true;
                }
            } else {
                unsafe { x86::scale_runs(chunk.as_mut_ptr(), chunk.len(), phases, stride) };
                return true;
            }
        }
    }
    let _ = (level, chunk, phases, stride);
    false
}

/// The AVX2+FMA bodies. Every function here is compiled with
/// `#[target_feature(enable = "avx2", enable = "fma")]` and must only be
/// called after [`SimdLevel::detect`] returned [`SimdLevel::Avx2Fma`].
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use waltz_math::C64;

    use crate::kernel::{walk_bases, SharedAmps};

    /// Largest dense block the vector matvec handles (mirrors the
    /// kernel's stack-buffer cap).
    pub(super) const MAX_BLOCK: usize = 64;
    /// Largest block the tiled two-qudit arm handles.
    pub(super) const MAX_TILE_BLOCK: usize = 16;
    /// Pair-units buffered per two-qudit tile. One tile's gather scratch
    /// is `2 * MAX_TILE_BLOCK * TILE` lanes = 8 KiB — comfortably
    /// L1-resident next to the amplitudes it mirrors.
    const TILE: usize = 8;
    /// Longest periodic diagonal pattern (in complexes) kept in lane
    /// registers by [`scale_periodic`].
    pub(super) const MAX_PATTERN: usize = 16;

    /// Loads two consecutive complexes starting at amplitude `idx`.
    ///
    /// # Safety
    ///
    /// `idx` and `idx + 1` must be in bounds and not under concurrent
    /// access; the caller must be in an AVX context.
    #[inline(always)]
    unsafe fn load2(amps: SharedAmps, idx: usize) -> __m256d {
        unsafe { _mm256_loadu_pd(amps.at(idx) as *const f64) }
    }

    /// Stores two consecutive complexes starting at amplitude `idx`.
    ///
    /// # Safety
    ///
    /// As [`load2`].
    #[inline(always)]
    unsafe fn store2(amps: SharedAmps, idx: usize, v: __m256d) {
        unsafe { _mm256_storeu_pd(amps.at(idx) as *mut f64, v) }
    }

    /// As [`load2`] on a raw slice pointer.
    #[inline(always)]
    unsafe fn load2p(p: *const C64) -> __m256d {
        unsafe { _mm256_loadu_pd(p as *const f64) }
    }

    /// As [`store2`] on a raw slice pointer.
    #[inline(always)]
    unsafe fn store2p(p: *mut C64, v: __m256d) {
        unsafe { _mm256_storeu_pd(p as *mut f64, v) }
    }

    /// Broadcasts a scalar to all four lanes.
    #[inline(always)]
    unsafe fn bcast(x: f64) -> __m256d {
        unsafe { _mm256_set1_pd(x) }
    }

    /// All-zero lanes.
    #[inline(always)]
    unsafe fn zero() -> __m256d {
        unsafe { _mm256_setzero_pd() }
    }

    /// Swaps the re/im halves of each complex: `[im0, re0, im1, re1]`.
    #[inline(always)]
    unsafe fn swap_halves(a: __m256d) -> __m256d {
        unsafe { _mm256_permute_pd(a, 0b0101) }
    }

    /// Fused `a * b + acc` per lane.
    #[inline(always)]
    unsafe fn fmadd(a: __m256d, b: __m256d, acc: __m256d) -> __m256d {
        unsafe { _mm256_fmadd_pd(a, b, acc) }
    }

    /// `s - t` in even (re) lanes, `s + t` in odd (im) lanes — the final
    /// combine of the split complex accumulators.
    #[inline(always)]
    unsafe fn addsub(s: __m256d, t: __m256d) -> __m256d {
        unsafe { _mm256_addsub_pd(s, t) }
    }

    /// Complex product of two interleaved complexes `a` against one
    /// broadcast coefficient `b` (`br` = `b.re` in all lanes, `bi` =
    /// `b.im`): even lanes `a.re*b.re - a.im*b.im`, odd lanes
    /// `a.im*b.re + a.re*b.im` — exactly what `vfmaddsub` computes from
    /// `a * br` and `swap(a) * bi`.
    #[inline(always)]
    unsafe fn cmul_bcast(a: __m256d, br: __m256d, bi: __m256d) -> __m256d {
        unsafe { _mm256_fmaddsub_pd(a, br, _mm256_mul_pd(swap_halves(a), bi)) }
    }

    /// Paired diagonal sweep: every operand offset of every pair-unit is
    /// one lane scaled by its broadcast phase.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `amps` must cover every
    /// `base + offset (+1)` the paired layout produces, with no
    /// concurrent access to those amplitudes.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn diag_pairs(
        amps: SharedAmps,
        dims: &[usize],
        strides: &[usize],
        offsets: &[usize],
        phases: &[C64],
    ) {
        walk_bases(dims, strides, |base| unsafe {
            for (&off, p) in offsets.iter().zip(phases) {
                let v = load2(amps, base + off);
                store2(amps, base + off, cmul_bcast(v, bcast(p.re), bcast(p.im)));
            }
        });
    }

    /// Paired permutation sweep: [`crate::kernel`]'s cycle walk with each
    /// element widened to a two-configuration lane.
    ///
    /// # Safety
    ///
    /// As [`diag_pairs`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn perm_pairs(
        amps: SharedAmps,
        dims: &[usize],
        strides: &[usize],
        offsets: &[usize],
        cycles: &[Vec<usize>],
        phases: &[C64],
    ) {
        walk_bases(dims, strides, |base| unsafe {
            for cycle in cycles {
                if let [only] = cycle.as_slice() {
                    let idx = base + offsets[*only];
                    let p = phases[*only];
                    store2(
                        amps,
                        idx,
                        cmul_bcast(load2(amps, idx), bcast(p.re), bcast(p.im)),
                    );
                    continue;
                }
                let last = cycle[cycle.len() - 1];
                let tmp = load2(amps, base + offsets[last]);
                for k in (1..cycle.len()).rev() {
                    let from = cycle[k - 1];
                    let p = phases[from];
                    let v = load2(amps, base + offsets[from]);
                    store2(
                        amps,
                        base + offsets[cycle[k]],
                        cmul_bcast(v, bcast(p.re), bcast(p.im)),
                    );
                }
                let p = phases[last];
                store2(
                    amps,
                    base + offsets[cycle[0]],
                    cmul_bcast(tmp, bcast(p.re), bcast(p.im)),
                );
            }
        });
    }

    /// Paired dense-block matvec: gather each pair-unit's block into lane
    /// scratch (both plain and re/im-swapped forms, so the inner loop is
    /// two FMAs per coefficient), run the row dot products through split
    /// real/imag accumulators, combine with one `addsub`, scatter back.
    ///
    /// # Safety
    ///
    /// As [`diag_pairs`]; additionally `m` must be a `block * block`
    /// row-major matrix for `block = offsets.len() <= MAX_BLOCK`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dense_pairs(
        amps: SharedAmps,
        dims: &[usize],
        strides: &[usize],
        offsets: &[usize],
        m: &[C64],
        sparse: bool,
    ) {
        let block = offsets.len();
        debug_assert!(block <= MAX_BLOCK);
        let mut sc = [unsafe { zero() }; MAX_BLOCK];
        let mut sw = [unsafe { zero() }; MAX_BLOCK];
        walk_bases(dims, strides, |base| unsafe {
            for (i, &off) in offsets.iter().enumerate() {
                let v = load2(amps, base + off);
                sc[i] = v;
                sw[i] = swap_halves(v);
            }
            for (row, &off) in offsets.iter().enumerate() {
                let coeffs = &m[row * block..(row + 1) * block];
                let mut s = zero();
                let mut t = zero();
                for (col, c) in coeffs.iter().enumerate() {
                    if sparse && *c == C64::ZERO {
                        continue;
                    }
                    s = fmadd(sc[col], bcast(c.re), s);
                    t = fmadd(sw[col], bcast(c.im), t);
                }
                store2(amps, base + off, addsub(s, t));
            }
        });
    }

    /// The cache-blocked two-qudit gather arm: pair-units are buffered
    /// [`TILE`] at a time, their 16-wide blocks gathered column-major
    /// into an L1-resident tile, and every coefficient broadcast is then
    /// amortized over the whole tile before the results scatter back.
    ///
    /// # Safety
    ///
    /// As [`dense_pairs`], with `block <= MAX_TILE_BLOCK`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn two_qudit_pairs(
        amps: SharedAmps,
        dims: &[usize],
        strides: &[usize],
        offsets: &[usize],
        m: &[C64],
        sparse: bool,
    ) {
        debug_assert!(offsets.len() <= MAX_TILE_BLOCK);
        let mut bases = [0usize; TILE];
        let mut n = 0usize;
        walk_bases(dims, strides, |base| unsafe {
            bases[n] = base;
            n += 1;
            if n == TILE {
                two_qudit_tile(amps, &bases, offsets, m, sparse);
                n = 0;
            }
        });
        if n > 0 {
            unsafe { two_qudit_tile(amps, &bases[..n], offsets, m, sparse) };
        }
    }

    /// One tile of [`two_qudit_pairs`]: gathers every listed pair-unit,
    /// applies the block matrix, scatters back. All gathers complete
    /// before the first store (distinct pair-units touch disjoint
    /// amplitudes, but the row outputs alias the gathered inputs).
    ///
    /// # Safety
    ///
    /// As [`two_qudit_pairs`], with `bases.len() <= TILE`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn two_qudit_tile(
        amps: SharedAmps,
        bases: &[usize],
        offsets: &[usize],
        m: &[C64],
        sparse: bool,
    ) {
        let block = offsets.len();
        unsafe {
            let mut sc = [[zero(); TILE]; MAX_TILE_BLOCK];
            let mut sw = [[zero(); TILE]; MAX_TILE_BLOCK];
            for (col, &off) in offsets.iter().enumerate() {
                for (j, &base) in bases.iter().enumerate() {
                    let v = load2(amps, base + off);
                    sc[col][j] = v;
                    sw[col][j] = swap_halves(v);
                }
            }
            for (row, &off) in offsets.iter().enumerate() {
                let coeffs = &m[row * block..(row + 1) * block];
                let mut s = [zero(); TILE];
                let mut t = [zero(); TILE];
                for (col, c) in coeffs.iter().enumerate() {
                    if sparse && *c == C64::ZERO {
                        continue;
                    }
                    let br = bcast(c.re);
                    let bi = bcast(c.im);
                    for j in 0..bases.len() {
                        s[j] = fmadd(sc[col][j], br, s[j]);
                        t[j] = fmadd(sw[col][j], bi, t[j]);
                    }
                }
                for (j, &base) in bases.iter().enumerate() {
                    store2(amps, base + off, addsub(s[j], t[j]));
                }
            }
        }
    }

    /// Single-qudit diagonal with `stride >= 2`: scales each contiguous
    /// level run by its broadcast phase (unit phases skipped, odd-stride
    /// tails finished scalar).
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `chunk..chunk+len` must be exclusively
    /// owned and a whole number of `stride * phases.len()` spans.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn scale_runs(chunk: *mut C64, len: usize, phases: &[C64], stride: usize) {
        let span = stride * phases.len();
        unsafe {
            let mut blk = 0;
            while blk < len {
                for (lvl, p) in phases.iter().enumerate() {
                    if *p == C64::ONE {
                        continue;
                    }
                    let br = bcast(p.re);
                    let bi = bcast(p.im);
                    let run = chunk.add(blk + lvl * stride);
                    let mut i = 0;
                    while i + 2 <= stride {
                        let ptr = run.add(i);
                        store2p(ptr, cmul_bcast(load2p(ptr), br, bi));
                        i += 2;
                    }
                    if i < stride {
                        *run.add(i) *= *p;
                    }
                }
                blk += span;
            }
        }
    }

    /// Single-qudit diagonal with `stride == 1`: the chunk is a
    /// contiguous repetition of the phase pattern, multiplied through
    /// with `lcm(d, 2) / 2` precomputed coefficient lanes per period
    /// (odd dimensions need two periods to realign with the lanes).
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `chunk..chunk+len` must be exclusively
    /// owned and start on a pattern boundary; the pattern
    /// (`lcm(phases.len(), 2)` complexes) must fit [`MAX_PATTERN`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn scale_periodic(chunk: *mut C64, len: usize, phases: &[C64]) {
        let d = phases.len();
        let pat = if d.is_multiple_of(2) { d } else { 2 * d };
        debug_assert!(pat <= MAX_PATTERN);
        unsafe {
            let mut br = [zero(); MAX_PATTERN / 2];
            let mut bi = [zero(); MAX_PATTERN / 2];
            let nv = pat / 2;
            for v in 0..nv {
                let p0 = phases[(2 * v) % d];
                let p1 = phases[(2 * v + 1) % d];
                br[v] = _mm256_setr_pd(p0.re, p0.re, p1.re, p1.re);
                bi[v] = _mm256_setr_pd(p0.im, p0.im, p1.im, p1.im);
            }
            let mut i = 0;
            while i + pat <= len {
                for v in 0..nv {
                    let ptr = chunk.add(i + 2 * v);
                    store2p(ptr, cmul_bcast(load2p(ptr), br[v], bi[v]));
                }
                i += pat;
            }
            while i < len {
                *chunk.add(i) *= phases[i % d];
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_cached_and_named() {
        let a = SimdLevel::detect();
        let b = SimdLevel::detect();
        assert_eq!(a, b);
        assert!(matches!(a.name(), "scalar" | "avx2+fma"));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn paired_layout_halves_the_innermost_free_qudit() {
        let reg = Register::ququarts(4);
        // Operands (0, 1): the innermost qudit 3 (stride 1, dim 4) pairs.
        let others = [2usize, 3];
        let ps = PairedSweep::detect(&reg, &others).expect("pairable");
        assert_eq!(ps.dims(), &[4, 2]);
        assert_eq!(ps.strides(), &[reg.stride(2), 2]);
        // 16 configurations walk as 8 pair-units.
        assert_eq!(ps.dims().iter().product::<usize>(), 8);
        // When the innermost qudit is an operand the sweep cannot pair.
        let others = [0usize, 1];
        assert!(PairedSweep::detect(&reg, &others).is_none());
        // Odd innermost dimensions cannot pair either.
        let reg = Register::new(vec![2, 3]);
        assert!(PairedSweep::detect(&reg, &[1usize]).is_none());
    }
}
