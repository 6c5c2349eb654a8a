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
//! qudit is a non-operand with even dimension, every run of the sweep
//! ([`crate::kernel`]'s run-major layout) is a contiguous span of an
//! even number of amplitudes, at the same place under every operand
//! offset. The vector arms therefore take each run two configurations
//! at a time — one lane per offset covers two configurations — which
//! vectorizes every kernel class without reshuffling amplitudes, the
//! same trick high-performance state-vector simulators use. The odometer
//! over the chains above the run steps once per run, not once per lane.
//! When no pairing is possible (the innermost qudit is an operand, or
//! has odd dimension) the scalar body runs instead: a vector arm there
//! would change the rounding of those ops.
//!
//! Inside a run, the diagonal and permutation arms hold each offset's
//! (each cycle's) phase broadcasts for the whole sweep; the dense arm
//! gathers one lane per column and accumulates each row's products in
//! column order, the fully dense bodies over every column and the
//! structurally sparse ones over the block's nonzero list. The bodies
//! are inlined per block size: dense 2, 4 and 8 one lane at a time,
//! dense 16 and up in tiles of four lanes that share each coefficient
//! broadcast, sparse 4, 8 and 16 (with a fixed count of nonzeros per
//! row where the pattern has one), and one body at a run-time size for
//! the rest. Cycles of three or more elements walk each run in chunks
//! of 64 configurations, one contiguous stream per element.
//!
//! Arithmetic note: the vector complex product uses FMA
//! (`vfmaddsub231pd`), so results can differ from the scalar two-rounding
//! form in the last ulp. `tests/simd_parity.rs` pins every arm to the
//! scalar path at 1e-12, and `tests/kernel_parity.rs` pins every arm to
//! an `f64::mul_add` mirror of its own lane arithmetic to the bit. A
//! row's `swap(a) · im` products accumulate unswapped and are swapped
//! once per row: the broadcast coefficient is the same in every lane,
//! so each lane sees exactly the same FMAs.

use waltz_math::C64;

use crate::kernel::{Nonzeros, SharedAmps, Sweep};

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
/// Built once per apply, and once more for the fixed points a
/// permutation with folded damping scales.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct SweepCtx<'a> {
    /// Run-major layout of the sweep.
    pub sweep: &'a Sweep,
    /// Amplitude offset per operand-block configuration.
    pub offsets: &'a [usize],
    /// Amplitude pointer (see [`SharedAmps`]).
    pub shared: SharedAmps,
    /// The workspace's SIMD level.
    pub level: SimdLevel,
}

impl SweepCtx<'_> {
    /// Whether a vector arm takes this sweep (see [`Sweep`]'s `pairs`).
    fn vector(&self) -> bool {
        self.level.accelerated() && self.sweep.pairs
    }
}

/// Vector arm of the multi-qudit diagonal sweep. Returns `true` when the
/// sweep was handled (level accelerated and pairing possible).
pub(crate) fn diag_sweep(ctx: &SweepCtx<'_>, phases: &[C64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if ctx.vector() {
            unsafe { x86::diag_runs(ctx.shared, ctx.sweep, ctx.offsets, phases) };
            return true;
        }
    }
    let _ = (ctx, phases);
    false
}

/// Vector arm of the permutation cycle walk. Returns `true` when handled.
pub(crate) fn perm_sweep(ctx: &SweepCtx<'_>, cycles: &[Vec<usize>], phases: &[C64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if ctx.vector() {
            unsafe { x86::perm_runs(ctx.shared, ctx.sweep, ctx.offsets, cycles, phases) };
            return true;
        }
    }
    let _ = (ctx, cycles, phases);
    false
}

/// Vector arm of the dense-block matvec (single-qudit, two-qudit and
/// general-dense kernels, blocks up to [`x86::MAX_BLOCK`]): `nz` lists
/// the block's structural nonzeros, `None` when it has none. Returns
/// `true` when handled.
pub(crate) fn dense_sweep(ctx: &SweepCtx<'_>, m: &[C64], nz: Option<Nonzeros<'_>>) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if ctx.vector() && ctx.offsets.len() <= x86::MAX_BLOCK {
            unsafe {
                match nz {
                    None => x86::dense_runs(ctx.shared, ctx.sweep, ctx.offsets, m),
                    Some(nz) => x86::sparse_runs(ctx.shared, ctx.sweep, ctx.offsets, nz),
                }
            }
            return true;
        }
    }
    let _ = (ctx, m, nz);
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
    use std::mem::MaybeUninit;

    use waltz_math::C64;

    use crate::kernel::{Nonzeros, SharedAmps, Sweep};

    /// Largest dense block the vector matvec handles (mirrors the
    /// kernel's stack-buffer cap).
    pub(super) const MAX_BLOCK: usize = 64;
    /// Lanes buffered per tile: a tile's `2 * TILE` accumulators, one
    /// gathered lane and two coefficient broadcasts fit the sixteen
    /// vector registers. Its gather scratch is at most
    /// `MAX_BLOCK * TILE` lanes = 8 KiB, L1-resident.
    const TILE: usize = 4;
    /// Configurations a cycle of three or more elements walks per
    /// element before moving on ([`walk_cycle_chunk`]).
    const CHUNK: usize = 64;
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

    /// Diagonal sweep: offset by offset, each run's span of `run`
    /// contiguous amplitudes is scaled by the offset's phase, broadcast
    /// once per offset.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `sweep.pairs` must hold and `amps`
    /// must cover every `base + offset + i` the sweep produces, with no
    /// concurrent access to those amplitudes.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn diag_runs(
        amps: SharedAmps,
        sweep: &Sweep,
        offsets: &[usize],
        phases: &[C64],
    ) {
        for (&off, p) in offsets.iter().zip(phases) {
            unsafe { scale_spans(amps, sweep, off, *p) };
        }
    }

    /// Scales the run at offset `off` of every sweep base by `p`.
    ///
    /// # Safety
    ///
    /// As [`diag_runs`].
    #[inline(always)]
    unsafe fn scale_spans(amps: SharedAmps, sweep: &Sweep, off: usize, p: C64) {
        unsafe {
            let (br, bi) = (bcast(p.re), bcast(p.im));
            for base in sweep.bases() {
                let start = base + off;
                for idx in (start..start + sweep.run).step_by(2) {
                    store2(amps, idx, cmul_bcast(load2(amps, idx), br, bi));
                }
            }
        }
    }

    /// Permutation sweep: [`crate::kernel`]'s cycle walk, one cycle at a
    /// time over the whole sweep with the cycle's offsets and phase
    /// broadcasts held throughout; two configurations per lane.
    ///
    /// # Safety
    ///
    /// As [`diag_runs`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn perm_runs(
        amps: SharedAmps,
        sweep: &Sweep,
        offsets: &[usize],
        cycles: &[Vec<usize>],
        phases: &[C64],
    ) {
        let run = sweep.run;
        for cycle in cycles {
            unsafe {
                match *cycle.as_slice() {
                    [only] => scale_spans(amps, sweep, offsets[only], phases[only]),
                    [a, b] => {
                        let (oa, ob) = (offsets[a], offsets[b]);
                        let (ar, ai) = (bcast(phases[a].re), bcast(phases[a].im));
                        let (br, bi) = (bcast(phases[b].re), bcast(phases[b].im));
                        for base in sweep.bases() {
                            for i in (base..base + run).step_by(2) {
                                let va = load2(amps, i + oa);
                                let vb = load2(amps, i + ob);
                                store2(amps, i + ob, cmul_bcast(va, ar, ai));
                                store2(amps, i + oa, cmul_bcast(vb, br, bi));
                            }
                        }
                    }
                    _ if run == 2 => {
                        for base in sweep.bases() {
                            walk_cycle_lane(amps, base, offsets, cycle, phases);
                        }
                    }
                    _ => {
                        for base in sweep.bases() {
                            for start in (base..base + run).step_by(CHUNK) {
                                let len = CHUNK.min(base + run - start);
                                walk_cycle_chunk(amps, start, len, offsets, cycle, phases);
                            }
                        }
                    }
                }
            }
        }
    }

    /// One cycle of three or more elements at one lane of two
    /// configurations: the walk of [`walk_cycle_chunk`] without its
    /// chunk loops, for runs of a single lane.
    ///
    /// # Safety
    ///
    /// As [`diag_runs`].
    #[inline(always)]
    unsafe fn walk_cycle_lane(
        amps: SharedAmps,
        base: usize,
        offsets: &[usize],
        cycle: &[usize],
        phases: &[C64],
    ) {
        unsafe {
            let last = cycle[cycle.len() - 1];
            let saved = load2(amps, base + offsets[last]);
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
                cmul_bcast(saved, bcast(p.re), bcast(p.im)),
            );
        }
    }

    /// One cycle of three or more elements over `len` (even, at most
    /// [`CHUNK`]) consecutive configurations from `start`: the last
    /// element's amplitudes are saved, then each element's span is
    /// written from its predecessor's, one contiguous stream at a time.
    ///
    /// # Safety
    ///
    /// As [`diag_runs`].
    #[inline(always)]
    unsafe fn walk_cycle_chunk(
        amps: SharedAmps,
        start: usize,
        len: usize,
        offsets: &[usize],
        cycle: &[usize],
        phases: &[C64],
    ) {
        unsafe {
            let mut saved = [MaybeUninit::<__m256d>::uninit(); CHUNK / 2];
            let last = cycle[cycle.len() - 1];
            let from_last = start + offsets[last];
            for (j, v) in saved[..len / 2].iter_mut().enumerate() {
                v.write(load2(amps, from_last + 2 * j));
            }
            for k in (1..cycle.len()).rev() {
                let from = cycle[k - 1];
                let (src, dst) = (start + offsets[from], start + offsets[cycle[k]]);
                let (br, bi) = (bcast(phases[from].re), bcast(phases[from].im));
                for j in (0..len).step_by(2) {
                    store2(amps, dst + j, cmul_bcast(load2(amps, src + j), br, bi));
                }
            }
            let dst = start + offsets[cycle[0]];
            let (br, bi) = (bcast(phases[last].re), bcast(phases[last].im));
            for (j, v) in saved[..len / 2].iter().enumerate() {
                store2(amps, dst + 2 * j, cmul_bcast(v.assume_init(), br, bi));
            }
        }
    }

    /// Fully dense block matvec: per lane of two configurations, gather
    /// the block (plain and re/im-swapped, so each coefficient costs two
    /// FMAs), run the row dot products through split real/imag
    /// accumulators, combine with one `addsub`, scatter back. Blocks of
    /// 2, 4 and 8 run bodies specialized to their size; 16 runs the tiled
    /// arm; other sizes the same body at a run-time size.
    ///
    /// # Safety
    ///
    /// As [`diag_runs`]; additionally `m` must be a `block * block`
    /// row-major matrix for `block = offsets.len() <= MAX_BLOCK`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dense_runs(amps: SharedAmps, sweep: &Sweep, offsets: &[usize], m: &[C64]) {
        unsafe {
            match offsets.len() {
                2 => dense_body(amps, sweep, offsets, m, 2),
                4 => dense_body(amps, sweep, offsets, m, 4),
                8 => dense_body(amps, sweep, offsets, m, 8),
                16 => dense_tiles(amps, sweep, offsets, m, 16),
                block if block > 16 => dense_tiles(amps, sweep, offsets, m, block),
                block => dense_body(amps, sweep, offsets, m, block),
            }
        }
    }

    /// The body of [`dense_runs`], inlined once per block size so the
    /// gather and row loops unroll for the specialized sizes.
    ///
    /// # Safety
    ///
    /// As [`dense_runs`], with `block == offsets.len()`.
    #[inline(always)]
    unsafe fn dense_body(
        amps: SharedAmps,
        sweep: &Sweep,
        offsets: &[usize],
        m: &[C64],
        block: usize,
    ) {
        debug_assert!(block <= MAX_BLOCK && offsets.len() == block);
        let offsets = &offsets[..block];
        let m = &m[..block * block];
        let mut sc = [MaybeUninit::<__m256d>::uninit(); MAX_BLOCK];
        for base in sweep.bases() {
            for i in (base..base + sweep.run).step_by(2) {
                unsafe {
                    for (col, &off) in offsets.iter().enumerate() {
                        sc[col].write(load2(amps, i + off));
                    }
                    for (row, &off) in m.chunks_exact(block).zip(offsets) {
                        let mut s = zero();
                        let mut u = zero();
                        for (col, c) in row.iter().enumerate() {
                            s = fmadd(sc[col].assume_init(), bcast(c.re), s);
                            u = fmadd(sc[col].assume_init(), bcast(c.im), u);
                        }
                        store2(amps, i + off, addsub(s, swap_halves(u)));
                    }
                }
            }
        }
    }

    /// Structurally sparse block matvec: [`dense_runs`]'s lane
    /// arithmetic over each row's [`Nonzeros`] only, in ascending column
    /// order — the zero coefficients are skipped without a test inside
    /// the sweep. Blocks of 4, 8 and 16 run bodies specialized to their
    /// size.
    ///
    /// # Safety
    ///
    /// As [`dense_runs`]; `nz` must list the nonzeros of a
    /// `block × block` matrix for `block = offsets.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sparse_runs(
        amps: SharedAmps,
        sweep: &Sweep,
        offsets: &[usize],
        nz: Nonzeros<'_>,
    ) {
        let block = offsets.len();
        let uniform = |k: usize| {
            nz.ends
                .iter()
                .enumerate()
                .all(|(row, &end)| end == k * (row + 1))
        };
        unsafe {
            match block {
                4 if uniform(2) => sparse_body(amps, sweep, offsets, nz, 4, 2),
                4 => sparse_body(amps, sweep, offsets, nz, 4, 0),
                8 if uniform(2) => sparse_body(amps, sweep, offsets, nz, 8, 2),
                8 => sparse_body(amps, sweep, offsets, nz, 8, 0),
                16 if uniform(4) => sparse_body(amps, sweep, offsets, nz, 16, 4),
                16 => sparse_body(amps, sweep, offsets, nz, 16, 0),
                _ => sparse_body(amps, sweep, offsets, nz, block, 0),
            }
        }
    }

    /// The body of [`sparse_runs`], inlined once per block size and, for
    /// `per_row > 0`, per uniform count of nonzeros in every row.
    ///
    /// # Safety
    ///
    /// As [`sparse_runs`], with `block == offsets.len()` and, when
    /// `per_row > 0`, exactly `per_row` nonzeros in every row.
    #[inline(always)]
    unsafe fn sparse_body(
        amps: SharedAmps,
        sweep: &Sweep,
        offsets: &[usize],
        nz: Nonzeros<'_>,
        block: usize,
        per_row: usize,
    ) {
        debug_assert!(block <= MAX_BLOCK && offsets.len() == block);
        let offsets = &offsets[..block];
        let ends = &nz.ends[..block];
        let mut sc = [MaybeUninit::<__m256d>::uninit(); MAX_BLOCK];
        for base in sweep.bases() {
            for i in (base..base + sweep.run).step_by(2) {
                unsafe {
                    for (col, &off) in offsets.iter().enumerate() {
                        sc[col].write(load2(amps, i + off));
                    }
                    let mut start = 0;
                    for (row, (&end, &off)) in ends.iter().zip(offsets).enumerate() {
                        let row_nz = match per_row {
                            0 => nz.entries.get_unchecked(start..end),
                            k => nz.entries.get_unchecked(row * k..row * k + k),
                        };
                        let mut s = zero();
                        let mut u = zero();
                        for &(col, c) in row_nz {
                            let v = sc.get_unchecked(col).assume_init();
                            s = fmadd(v, bcast(c.re), s);
                            u = fmadd(v, bcast(c.im), u);
                        }
                        start = end;
                        store2(amps, i + off, addsub(s, swap_halves(u)));
                    }
                }
            }
        }
    }

    /// The tiled arm for fully dense blocks of 16 and more: lanes are
    /// buffered [`TILE`] at a time, their blocks gathered into an
    /// L1-resident tile, and every coefficient broadcast is then
    /// amortized over the whole tile before the results scatter back.
    /// Lanes left over at the end of the sweep run as tiles of one.
    ///
    /// # Safety
    ///
    /// As [`dense_runs`], with `block == offsets.len()`.
    #[inline(always)]
    unsafe fn dense_tiles(
        amps: SharedAmps,
        sweep: &Sweep,
        offsets: &[usize],
        m: &[C64],
        block: usize,
    ) {
        let mut lanes = [0usize; TILE];
        let mut n = 0usize;
        for base in sweep.bases() {
            for i in (base..base + sweep.run).step_by(2) {
                lanes[n] = i;
                n += 1;
                if n == TILE {
                    unsafe { dense_tile(amps, &lanes, offsets, m, block) };
                    n = 0;
                }
            }
        }
        for &lane in &lanes[..n] {
            unsafe { dense_tile(amps, &[lane], offsets, m, block) };
        }
    }

    /// One tile of [`dense_tiles`]: gathers every listed lane, applies
    /// the block matrix, scatters back. All gathers complete before the
    /// first store (distinct lanes touch disjoint amplitudes, but the row
    /// outputs alias the gathered inputs).
    ///
    /// # Safety
    ///
    /// As [`dense_tiles`].
    #[inline(always)]
    unsafe fn dense_tile<const N: usize>(
        amps: SharedAmps,
        lanes: &[usize; N],
        offsets: &[usize],
        m: &[C64],
        block: usize,
    ) {
        unsafe {
            let mut sc = [[MaybeUninit::<__m256d>::uninit(); N]; MAX_BLOCK];
            for (col, &off) in offsets[..block].iter().enumerate() {
                for (j, &lane) in lanes.iter().enumerate() {
                    sc[col][j].write(load2(amps, lane + off));
                }
            }
            for (row, &off) in m[..block * block].chunks_exact(block).zip(offsets) {
                let mut s = [zero(); N];
                let mut u = [zero(); N];
                for (col, c) in row.iter().enumerate() {
                    let br = bcast(c.re);
                    let bi = bcast(c.im);
                    for j in 0..N {
                        s[j] = fmadd(sc[col][j].assume_init(), br, s[j]);
                        u[j] = fmadd(sc[col][j].assume_init(), bi, u[j]);
                    }
                }
                for (j, &lane) in lanes.iter().enumerate() {
                    store2(amps, lane + off, addsub(s[j], swap_halves(u[j])));
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
}
