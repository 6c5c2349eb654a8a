//! The scheduled hardware circuit: what the compiler hands the simulator,
//! and the gate-fusion pass that batches it for throughput
//! ([`TimedCircuit::fuse`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use waltz_math::{structure, Matrix};

use crate::kernel::GateKernel;
use crate::Register;

/// Maximum number of qudits a fused *dense* block may span.
const MAX_FUSED_QUDITS: usize = 2;

/// Maximum dimension a fused *dense* block may reach (two ququarts).
const MAX_FUSED_DIM: usize = 16;

/// Maximum dimension a fused *structured* block may reach (three
/// ququarts / six qubits). Products of diagonals and phased permutations
/// stay phased permutations at any support size — applying them costs one
/// multiply per amplitude regardless of dimension — so structured runs
/// may fuse across more than two qudits; the ceiling only bounds the
/// schedule-time matrix arithmetic.
const MAX_STRUCTURED_FUSED_DIM: usize = 64;

/// Tunable knobs of the gate-fusion cost model consumed by
/// [`TimedCircuit::fuse_with`]. The compiler always runs on the
/// checked-in [`FuseOptions::default`] cost constants — they are never
/// measured at run time, so compile decisions and cache fingerprints are
/// identical in every process — and can cap block granularity for
/// workloads that need tighter noise interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuseOptions {
    /// Estimated per-amplitude bookkeeping cost of one extra sweep over
    /// the state vector (index walk, load/store traffic), in units of one
    /// complex multiply. Fusing `k` pieces into one block saves `k - 1`
    /// sweeps; the cost model credits this against the extra multiplies a
    /// denser fused kernel spends per amplitude.
    pub sweep_overhead: usize,
    /// Estimated *fixed* cost of one sweep (dispatch, offset table,
    /// scratch setup, and the per-pulse bookkeeping around it), again in
    /// complex multiplies. Amortized over the state size when crediting a
    /// saved sweep: on small registers (a handful of ququarts) this
    /// dominates and fusion pays even when it densifies the block, while
    /// on large states the per-amplitude arithmetic decides.
    pub sweep_fixed: usize,
    /// Maximum number of constituent pulses a fused block may absorb.
    /// Fused blocks replay their interior noise around one unitary apply;
    /// capping the span bounds how much noise interleaving is deferred,
    /// at the cost of throughput. A cap of 1 disables fusion entirely
    /// (every block holds one pulse and is emitted verbatim); values of 0
    /// are treated as 1.
    pub max_block_span: usize,
}

impl Default for FuseOptions {
    /// The cost constants were measured once, offline, on a 2-core
    /// AVX2+FMA x86_64 host in release builds: time a two-ququart
    /// diagonal sweep at 4^3 and 4^6 amplitudes (best of 3) to split
    /// its cost into a fixed and a per-amplitude part, time a dense
    /// two-ququart apply at 4^6 to price one complex multiply, and
    /// express both parts in multiplies. Twelve processes gave a
    /// per-amplitude overhead of 2.2–3.7 multiplies (median 3) and a
    /// fixed cost of 192–272 multiplies (about 120–160 ns per sweep);
    /// 256 sits inside that range.
    fn default() -> Self {
        FuseOptions {
            sweep_overhead: 3,
            sweep_fixed: 256,
            max_block_span: usize::MAX,
        }
    }
}

/// Coarse kernel-class lattice the fusion cost model predicts products
/// in: products never leave the join of their factors' classes
/// (diagonal × permutation stays a phased permutation, anything × dense
/// is dense), so the class — and with it the apply cost — of a candidate
/// block is known *before* multiplying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FuseClass {
    /// Exact identity: applying costs nothing.
    Identity,
    /// Diagonal or phased permutation: one multiply per amplitude.
    Structured,
    /// Dense block: `block_dim` multiplies per amplitude.
    Dense,
}

impl FuseClass {
    /// The class of a classified kernel.
    fn of(kernel: &GateKernel) -> FuseClass {
        match kernel {
            GateKernel::Identity => FuseClass::Identity,
            GateKernel::Diagonal { .. } | GateKernel::Permutation { .. } => FuseClass::Structured,
            _ => FuseClass::Dense,
        }
    }

    /// Estimated complex multiplies per state-vector amplitude when a
    /// block of this class and dimension is applied.
    fn weight(self, block_dim: usize) -> usize {
        match self {
            FuseClass::Identity => 0,
            FuseClass::Structured => 1,
            FuseClass::Dense => block_dim,
        }
    }
}

/// Identity of one fused-block product: the block's operand dimensions
/// plus, per constituent, its operand positions within the block and the
/// exact unitary entries (as `f64` bit patterns, so the key is `Eq` +
/// `Hash`). Two blocks with the same key multiply to the same matrix
/// regardless of which physical devices they sit on or when they start.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BlockKey {
    dims: Vec<usize>,
    parts: Vec<BlockPart>,
}

/// One [`BlockKey`] constituent: operand positions within the block and
/// the unitary's entries as `(re, im)` bit patterns.
type BlockPart = (Vec<usize>, Vec<(u64, u64)>);

impl BlockKey {
    fn part_of(unitary: &Matrix, positions: Vec<usize>) -> BlockPart {
        let bits = unitary
            .as_slice()
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect();
        (positions, bits)
    }
}

/// A memoized fused-block product: the multiplied unitary and its
/// already-classified kernel.
#[derive(Debug, Clone)]
struct CachedBlock {
    unitary: Matrix,
    kernel: GateKernel,
}

/// Entries the cache holds by default; [`FuseCache::with_capacity`]
/// tunes it per deployment.
const FUSE_CACHE_CAP: usize = 4096;

/// Shared store behind [`FuseCache`]: the memo map (tagged with
/// last-use ticks for LRU eviction) plus lifetime hit/miss/eviction
/// counters.
#[derive(Debug)]
struct FuseCacheInner {
    map: Mutex<HashMap<BlockKey, (u64, CachedBlock)>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Memoizes fused-block products across [`TimedCircuit::fuse_with_cache`]
/// calls: repeated (operand-dims, constituent-run) shapes — ubiquitous in
/// batches of structurally similar circuits, and within one schedule
/// whenever a gate pattern repeats — skip the schedule-time matrix
/// multiplication and kernel re-classification entirely.
///
/// Cloning is cheap and *shares* the underlying store (`Arc`), which is
/// how a compiler hands one cache to every worker of a batch compile.
/// Correctness does not depend on the cache: keys identify the exact
/// unitary entries, so a hit returns bit-identical blocks.
///
/// The store holds at most [`FuseCache::capacity`] shapes (default 4096,
/// tunable via [`FuseCache::with_capacity`]); overflow evicts the
/// least-recently-used entry. Lifetime [`FuseCache::hits`] /
/// [`FuseCache::misses`] / [`FuseCache::evictions`] counters expose the
/// cache's effectiveness to compile-pass diagnostics.
#[derive(Debug, Clone)]
pub struct FuseCache {
    inner: Arc<FuseCacheInner>,
}

impl Default for FuseCache {
    fn default() -> Self {
        FuseCache::new()
    }
}

impl FuseCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        FuseCache::with_capacity(FUSE_CACHE_CAP)
    }

    /// An empty cache holding at most `capacity` block shapes. A capacity
    /// of 0 disables memoization (every lookup misses, nothing is stored).
    pub fn with_capacity(capacity: usize) -> Self {
        FuseCache {
            inner: Arc::new(FuseCacheInner {
                map: Mutex::new(HashMap::new()),
                capacity,
                tick: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// Maximum number of memoized block shapes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of memoized block shapes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime lookup hits across every handle sharing this store.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses across every handle sharing this store.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Lifetime LRU evictions across every handle sharing this store.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Poison-tolerant lock: entries are only ever inserted whole, so a
    /// panic on another thread (isolated by a batch supervisor) cannot
    /// leave a half-written entry — sibling jobs keep using the cache.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<BlockKey, (u64, CachedBlock)>> {
        self.inner
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, key: &BlockKey) -> Option<CachedBlock> {
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lock();
        match map.get_mut(key) {
            Some((last_use, block)) => {
                *last_use = tick;
                let block = block.clone();
                drop(map);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(block)
            }
            None => {
                drop(map);
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: BlockKey, value: CachedBlock) {
        if self.inner.capacity == 0 {
            return;
        }
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lock();
        if map.len() >= self.inner.capacity && !map.contains_key(&key) {
            // Evict the least-recently-used shape. O(len) scan: eviction
            // only happens past `capacity` distinct shapes, far off the
            // per-block hot path.
            if let Some(oldest) = map
                .iter()
                .min_by_key(|(_, (last_use, _))| *last_use)
                .map(|(k, _)| k.clone())
            {
                map.remove(&oldest);
                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, (tick, value));
    }
}

/// One constituent pulse's noise record, kept by a fused op so the
/// trajectory method still draws errors and damps idle time **per
/// hardware pulse** even though the unitaries were multiplied into one
/// block at schedule time (see [`TimedCircuit::fuse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseEvent {
    /// Operand device indices of the original pulse.
    pub operands: Vec<usize>,
    /// Logical dimensions the pulse's error channel is drawn on (§6.5).
    pub error_dims: Vec<u8>,
    /// Calibrated success probability of the original pulse.
    pub fidelity: f64,
    /// Start time of the original pulse in nanoseconds.
    pub start_ns: f64,
    /// Duration of the original pulse in nanoseconds.
    pub duration_ns: f64,
}

impl NoiseEvent {
    /// End time of the original pulse.
    pub fn end_ns(&self) -> f64 {
        self.start_ns + self.duration_ns
    }
}

/// One scheduled hardware pulse.
#[derive(Debug, Clone)]
pub struct TimedOp {
    /// Human-readable gate name (e.g. `"MrCcz"`), used in reports.
    pub label: String,
    /// Unitary already embedded to the operand devices' dimensions.
    pub unitary: Matrix,
    /// Operand device indices (order matches the unitary's digit order).
    pub operands: Vec<usize>,
    /// Logical dimensions the pulse was calibrated on (e.g. `[2, 2]` for a
    /// qubit CX executed on 4-level transmons) — the error channel is drawn
    /// on these dimensions (§6.5).
    pub error_dims: Vec<u8>,
    /// Start time in nanoseconds.
    pub start_ns: f64,
    /// Pulse duration in nanoseconds.
    pub duration_ns: f64,
    /// Calibrated success probability.
    pub fidelity: f64,
    /// The apply strategy classified from `unitary` at construction —
    /// diagonal and permutation gates skip the dense matvec entirely.
    /// Kept consistent with `unitary` by building ops through
    /// [`TimedOp::new`]; re-run [`TimedOp::reclassify`] after mutating the
    /// matrix in place.
    pub kernel: GateKernel,
    /// `Some` when this op is a fused block: one noise record per original
    /// hardware pulse, in schedule order. The trajectory runner then damps
    /// idle time, damps busy time and draws depolarizing errors per
    /// constituent while applying `unitary` only once. `None` for plain
    /// scheduled pulses (the op's own fields describe its noise).
    pub noise_events: Option<Vec<NoiseEvent>>,
}

impl TimedOp {
    /// Builds a scheduled op, classifying its unitary into a
    /// [`GateKernel`] once so every simulation of the circuit reuses the
    /// specialized apply path.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        unitary: Matrix,
        operands: Vec<usize>,
        error_dims: Vec<u8>,
        start_ns: f64,
        duration_ns: f64,
        fidelity: f64,
    ) -> Self {
        let kernel = GateKernel::classify(&unitary, operands.len());
        TimedOp {
            label: label.into(),
            unitary,
            operands,
            error_dims,
            start_ns,
            duration_ns,
            fidelity,
            kernel,
            noise_events: None,
        }
    }

    /// Re-classifies the kernel after an in-place change to `unitary`.
    pub fn reclassify(&mut self) {
        self.kernel = GateKernel::classify(&self.unitary, self.operands.len());
    }

    /// End time of the pulse.
    pub fn end_ns(&self) -> f64 {
        self.start_ns + self.duration_ns
    }
}

/// A fully scheduled hardware circuit over a device register.
///
/// Invariants (checked by [`TimedCircuit::validate`]): ops are listed in
/// dependency order, every op's unitary matches its operands' device
/// dimensions, and per-device start times never regress.
#[derive(Debug, Clone)]
pub struct TimedCircuit {
    /// The device register (dimension 2 or 4 per device).
    pub register: Register,
    /// Scheduled pulses in dependency order.
    pub ops: Vec<TimedOp>,
    /// Total wall-clock duration in nanoseconds.
    pub total_duration_ns: f64,
}

impl TimedCircuit {
    /// An empty schedule over `register`.
    pub fn new(register: Register) -> Self {
        TimedCircuit {
            register,
            ops: Vec::new(),
            total_duration_ns: 0.0,
        }
    }

    /// Total number of pulses.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Product of all gate fidelities — the paper's *gate EPS* (§6.3).
    pub fn gate_eps(&self) -> f64 {
        self.ops.iter().map(|op| op.fidelity).product()
    }

    /// Count of pulses grouped by operand count `(1, 2, 3)`.
    pub fn pulse_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for op in &self.ops {
            match op.operands.len() {
                1 => c.0 += 1,
                2 => c.1 += 1,
                _ => c.2 += 1,
            }
        }
        c
    }

    /// Checks structural invariants.
    ///
    /// Fused blocks (ops carrying [`TimedOp::noise_events`]) are checked
    /// per constituent event: each event's devices must be a subset of the
    /// block's operands and per-device start times must not regress across
    /// events, since the block envelope itself may start before a
    /// late-joining device frees.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut busy_until = vec![0.0f64; self.register.n_qudits()];
        self.validate_ops(&mut busy_until)
    }

    /// The op walk of [`TimedCircuit::validate`] against caller-owned
    /// per-device busy times, so a [`SegmentedCircuit`] can thread one
    /// timeline through every segment (a reshape boundary is a simulation
    /// artifact — it must never hide a scheduling overlap).
    fn validate_ops(&self, busy_until: &mut [f64]) -> Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            let dims: usize = op
                .operands
                .iter()
                .map(|&q| {
                    assert!(q < self.register.n_qudits());
                    self.register.dim(q)
                })
                .product();
            if op.unitary.rows() != dims {
                return Err(format!(
                    "op {i} ({}) unitary dim {} != operand space {dims}",
                    op.label,
                    op.unitary.rows()
                ));
            }
            if op.duration_ns < 0.0 || op.fidelity < 0.0 || op.fidelity > 1.0 {
                return Err(format!("op {i} ({}) has invalid calibration", op.label));
            }
            match &op.noise_events {
                None => {
                    for &q in &op.operands {
                        if op.start_ns + 1e-9 < busy_until[q] {
                            return Err(format!(
                                "op {i} ({}) starts at {} before device {q} frees at {}",
                                op.label, op.start_ns, busy_until[q]
                            ));
                        }
                        busy_until[q] = op.end_ns();
                    }
                }
                Some(events) => {
                    for (e, ev) in events.iter().enumerate() {
                        if ev.duration_ns < 0.0 || ev.fidelity < 0.0 || ev.fidelity > 1.0 {
                            return Err(format!(
                                "op {i} ({}) event {e} has invalid calibration",
                                op.label
                            ));
                        }
                        for &q in &ev.operands {
                            if !op.operands.contains(&q) {
                                return Err(format!(
                                    "op {i} ({}) event {e} touches non-operand device {q}",
                                    op.label
                                ));
                            }
                            if ev.start_ns + 1e-9 < busy_until[q] {
                                return Err(format!(
                                    "op {i} ({}) event {e} starts at {} before device {q} \
                                     frees at {}",
                                    op.label, ev.start_ns, busy_until[q]
                                ));
                            }
                            busy_until[q] = ev.end_ns();
                        }
                    }
                }
            }
            if op.end_ns() > self.total_duration_ns + 1e-6 {
                return Err(format!(
                    "op {i} ({}) ends after the recorded total duration",
                    op.label
                ));
            }
        }
        Ok(())
    }

    /// The gate-fusion pass (gather-once/apply-many): greedily fuses runs
    /// of adjacent ops into single blocks, multiplying the unitaries once
    /// at schedule time so the simulator sweeps the state vector once per
    /// block instead of once per pulse (SU(4) block compilation in the
    /// spirit of Zulehner & Wille). Dense blocks are capped at a ≤2-qudit
    /// operand set; purely structured runs (diagonals and phased
    /// permutations, closed under products) may span up to
    /// `MAX_STRUCTURED_FUSED_DIM` since their apply cost is independent
    /// of the block dimension.
    ///
    /// The pass keeps one *open block* per disjoint operand set and scans
    /// the schedule in order:
    ///
    /// * an op whose devices fall inside (or extend to at most
    ///   `MAX_FUSED_QUDITS` qudits / dimension `MAX_FUSED_DIM`) the
    ///   open blocks it touches is absorbed, merging those blocks —
    ///   **provided the fusion pays**: a `FuseClass` cost model
    ///   predicts the fused block's kernel class and refuses absorptions
    ///   that would promote cheap diagonal/permutation sweeps into dense
    ///   matvecs costing more than the sweeps they replace;
    /// * any other op flushes every block it conflicts with — ops on
    ///   disjoint supports commute, which is what makes absorbing across
    ///   them sound.
    ///
    /// Each fused block's unitary is re-classified through the
    /// [`GateKernel`] probes, so a run of diagonals fuses back to a
    /// diagonal kernel and a run of permutations to a permutation kernel.
    /// The constituents' calibration data is preserved as
    /// [`TimedOp::noise_events`], which the trajectory runner replays per
    /// hardware pulse; the fused op's own fidelity is the product of its
    /// constituents', so [`TimedCircuit::gate_eps`] is unchanged. Blocks
    /// that end up with a single constituent are emitted verbatim.
    ///
    /// The result simulates identically to `self` under [`crate::ideal`]
    /// (pinned at 1e-12 by the fusion parity suite) and statistically
    /// equivalently under [`crate::trajectory`]; it is a simulation
    /// artifact, not a hardware schedule — pulse counts reflect blocks,
    /// not pulses.
    #[must_use]
    pub fn fuse(&self) -> TimedCircuit {
        self.fuse_with(&FuseOptions::default())
    }

    /// [`TimedCircuit::fuse`] with explicit cost-model constants and an
    /// optional cap on fused-block span (see [`FuseOptions`]). Block
    /// products are memoized within the call; to share the memo across a
    /// batch of circuits use [`TimedCircuit::fuse_with_cache`].
    #[must_use]
    pub fn fuse_with(&self, opts: &FuseOptions) -> TimedCircuit {
        self.fuse_with_cache(opts, &FuseCache::new())
    }

    /// [`TimedCircuit::fuse_with`] memoizing fused-block products in a
    /// caller-owned [`FuseCache`], so repeated (kernel-class,
    /// operand-dims, op-run) shapes across a batch of circuits multiply
    /// once instead of once per circuit.
    #[must_use]
    pub fn fuse_with_cache(&self, opts: &FuseOptions, cache: &FuseCache) -> TimedCircuit {
        let max_span = opts.max_block_span.max(1);
        let mut open: Vec<PendingBlock> = Vec::new();
        let mut out: Vec<TimedOp> = Vec::new();
        // What one saved sweep is worth, per amplitude.
        let sweep_credit =
            opts.sweep_overhead + opts.sweep_fixed / self.register.total_dim().max(1);
        for (idx, op) in self.ops.iter().enumerate() {
            let block_dim: usize = op.operands.iter().map(|&q| self.register.dim(q)).product();
            let op_class = FuseClass::of(&op.kernel);
            // Structured ops may fuse at any support up to the structured
            // ceiling; dense ops only inside a ≤2-qudit block.
            let fuseable = op.noise_events.is_none()
                && if op_class <= FuseClass::Structured {
                    block_dim <= MAX_STRUCTURED_FUSED_DIM
                } else {
                    op.operands.len() <= MAX_FUSED_QUDITS && block_dim <= MAX_FUSED_DIM
                };
            // Open blocks sharing a device with this op, in schedule order.
            let sharing: Vec<usize> = (0..open.len())
                .filter(|&b| open[b].operands.iter().any(|q| op.operands.contains(q)))
                .collect();
            if fuseable {
                let mut union: Vec<usize> = Vec::new();
                for &b in &sharing {
                    union.extend(open[b].operands.iter().copied());
                }
                for &q in &op.operands {
                    if !union.contains(&q) {
                        union.push(q);
                    }
                }
                let union_dim: usize = union.iter().map(|&q| self.register.dim(q)).product();
                // Cost check: the fused block must not spend more per
                // amplitude than the separate sweeps it replaces, credited
                // with the per-sweep overhead it saves. This is what keeps
                // cheap diagonal/permutation kernels from being promoted
                // into expensive dense blocks for no gain.
                let joined_class = sharing
                    .iter()
                    .map(|&b| open[b].class)
                    .chain([op_class])
                    .max()
                    .expect("at least the op itself");
                let separate: usize = sharing
                    .iter()
                    .map(|&b| {
                        let dim: usize = open[b]
                            .operands
                            .iter()
                            .map(|&q| self.register.dim(q))
                            .product();
                        open[b].class.weight(dim)
                    })
                    .sum::<usize>()
                    + op_class.weight(block_dim)
                    + sweep_credit * sharing.len();
                let span: usize = sharing.iter().map(|&b| open[b].ops.len()).sum::<usize>() + 1;
                let fits = span <= max_span
                    && if joined_class <= FuseClass::Structured {
                        union_dim <= MAX_STRUCTURED_FUSED_DIM
                    } else {
                        union.len() <= MAX_FUSED_QUDITS && union_dim <= MAX_FUSED_DIM
                    };
                if fits && joined_class.weight(union_dim) <= separate {
                    // Merge the sharing blocks (they are pairwise disjoint,
                    // hence commuting) and absorb the op.
                    let mut merged = match sharing.first() {
                        Some(&first) => {
                            let mut merged = std::mem::replace(
                                &mut open[first],
                                PendingBlock {
                                    operands: Vec::new(),
                                    ops: Vec::new(),
                                    class: FuseClass::Identity,
                                },
                            );
                            for &b in sharing.iter().skip(1).rev() {
                                let other = open.remove(b);
                                merged.ops.extend(other.ops);
                                merged.operands.extend(other.operands);
                            }
                            merged.ops.sort_by_key(|(idx, _)| *idx);
                            merged
                        }
                        None => PendingBlock {
                            operands: Vec::new(),
                            ops: Vec::new(),
                            class: FuseClass::Identity,
                        },
                    };
                    for &q in &op.operands {
                        if !merged.operands.contains(&q) {
                            merged.operands.push(q);
                        }
                    }
                    merged.ops.push((idx, op.clone()));
                    merged.class = joined_class;
                    if let Some(&first) = sharing.first() {
                        open[first] = merged;
                    } else {
                        open.push(merged);
                    }
                    continue;
                }
            }
            // Conflict: flush every sharing block in schedule order, then
            // emit the op (unfuseable) or open a fresh block for it.
            // Removals run descending to keep indices valid.
            let mut flushed: Vec<PendingBlock> =
                sharing.iter().rev().map(|&b| open.remove(b)).collect();
            flushed.reverse();
            for block in flushed {
                out.push(self.emit_block(block, cache));
            }
            if fuseable {
                open.push(PendingBlock {
                    operands: op.operands.clone(),
                    ops: vec![(idx, op.clone())],
                    class: op_class,
                });
            } else {
                out.push(op.clone());
            }
        }
        while !open.is_empty() {
            let block = open.remove(0);
            out.push(self.emit_block(block, cache));
        }
        TimedCircuit {
            register: self.register.clone(),
            ops: out,
            total_duration_ns: self.total_duration_ns,
        }
    }

    /// Builds the emitted op for a pending block: the original op when the
    /// block holds a single constituent, otherwise the fused dense block
    /// with per-constituent [`NoiseEvent`]s. The product and its kernel
    /// classification are memoized in `cache` keyed on the exact
    /// constituent shapes, so a repeated run costs one lookup.
    fn emit_block(&self, block: PendingBlock, cache: &FuseCache) -> TimedOp {
        if block.ops.len() == 1 {
            return block.ops.into_iter().next().expect("non-empty block").1;
        }
        let operands = block.operands;
        let dims: Vec<usize> = operands.iter().map(|&q| self.register.dim(q)).collect();
        let positions_of = |op: &TimedOp| -> Vec<usize> {
            op.operands
                .iter()
                .map(|q| {
                    operands
                        .iter()
                        .position(|b| b == q)
                        .expect("operand inside block")
                })
                .collect()
        };
        let key = BlockKey {
            dims: dims.clone(),
            parts: block
                .ops
                .iter()
                .map(|(_, op)| BlockKey::part_of(&op.unitary, positions_of(op)))
                .collect(),
        };
        let CachedBlock { unitary, kernel } = cache.get(&key).unwrap_or_else(|| {
            let unitary = structure::fuse_unitaries(
                block
                    .ops
                    .iter()
                    .map(|(_, op)| (&op.unitary, positions_of(op))),
                &dims,
            );
            let kernel = GateKernel::classify(&unitary, operands.len());
            let computed = CachedBlock { unitary, kernel };
            cache.insert(key, computed.clone());
            computed
        });
        let start_ns = block
            .ops
            .iter()
            .map(|(_, op)| op.start_ns)
            .fold(f64::INFINITY, f64::min);
        let end_ns = block
            .ops
            .iter()
            .map(|(_, op)| op.end_ns())
            .fold(0.0f64, f64::max);
        let fidelity: f64 = block.ops.iter().map(|(_, op)| op.fidelity).product();
        let label = format!(
            "fused{}[{}..{}]",
            block.ops.len(),
            block.ops.first().expect("non-empty block").1.label,
            block.ops.last().expect("non-empty block").1.label
        );
        let error_dims: Vec<u8> = dims.iter().map(|&d| d as u8).collect();
        let events: Vec<NoiseEvent> = block
            .ops
            .iter()
            .map(|(_, op)| NoiseEvent {
                operands: op.operands.clone(),
                error_dims: op.error_dims.clone(),
                fidelity: op.fidelity,
                start_ns: op.start_ns,
                duration_ns: op.duration_ns,
            })
            .collect();
        // Built directly (not through `TimedOp::new`) so the memoized
        // kernel classification is reused instead of re-probed.
        TimedOp {
            label,
            unitary,
            operands,
            error_dims,
            start_ns,
            duration_ns: end_ns - start_ns,
            fidelity,
            kernel,
            noise_events: Some(events),
        }
    }
}

/// An open fusion block: the operand set accumulated so far and the
/// constituent ops with their original schedule indices.
struct PendingBlock {
    operands: Vec<usize>,
    ops: Vec<(usize, TimedOp)>,
    /// Join of the constituents' kernel classes — predicts the fused
    /// block's class (and hence apply cost) without multiplying.
    class: FuseClass,
}

/// A schedule cut into segments that each carry their **own**
/// [`Register`]: the windowed-register form of a [`TimedCircuit`].
///
/// The compiler's windowed occupancy analysis splits a program wherever a
/// device's occupied dimension changes (mixed-radix `ENC`/`DEC`
/// boundaries) and emits one segment per window, so a device sits at
/// dimension 4 only while its window is open instead of pinning the whole
/// program's register. Between adjacent segments the simulator performs
/// one in-flight [`crate::State::reshape_into`] — an expand/clip of the
/// state onto the next segment's register (amplitude labels preserved,
/// clipped levels asserted empty).
///
/// Segments share one global timeline: op start times are absolute, and
/// [`SegmentedCircuit::total_duration_ns`] covers the whole program, so
/// trajectory noise accounting (idle windows, trailing idle) is identical
/// to the single-register engine. A reshape is a simulation artifact with
/// zero duration — it appears nowhere in the timeline.
#[derive(Debug, Clone)]
pub struct SegmentedCircuit {
    /// Segments in program order, each a self-contained [`TimedCircuit`]
    /// over its own register. Consecutive registers span the same qudits
    /// with (possibly) different per-qudit dimensions.
    pub segments: Vec<TimedCircuit>,
    /// Wall-clock duration of the whole program in nanoseconds.
    pub total_duration_ns: f64,
}

impl SegmentedCircuit {
    /// A segmented circuit from explicit segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or two segments disagree on the
    /// qudit count.
    pub fn new(segments: Vec<TimedCircuit>, total_duration_ns: f64) -> Self {
        assert!(!segments.is_empty(), "need at least one segment");
        let n = segments[0].register.n_qudits();
        assert!(
            segments.iter().all(|s| s.register.n_qudits() == n),
            "segments must span the same qudits"
        );
        SegmentedCircuit {
            segments,
            total_duration_ns,
        }
    }

    /// Wraps a whole-program schedule as a single segment (no reshapes) —
    /// the degenerate form every single-register circuit embeds into.
    pub fn single(circuit: TimedCircuit) -> Self {
        let total = circuit.total_duration_ns;
        SegmentedCircuit::new(vec![circuit], total)
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of in-flight state reshapes a simulation performs (one per
    /// adjacent segment pair).
    pub fn reshape_count(&self) -> usize {
        self.segments.len() - 1
    }

    /// Total scheduled ops across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(TimedCircuit::len).sum()
    }

    /// Whether no segment holds any op.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(TimedCircuit::is_empty)
    }

    /// The register simulation starts on (first segment's).
    pub fn first_register(&self) -> &Register {
        Schedule::from(self).first_register()
    }

    /// The register simulation ends on (last segment's).
    pub fn last_register(&self) -> &Register {
        Schedule::from(self).last_register()
    }

    /// [`Schedule::peak_state_bytes`] of this schedule.
    pub fn peak_state_bytes(&self) -> usize {
        Schedule::from(self).peak_state_bytes()
    }

    /// Allocates the two rolling state buffers a segmented run needs
    /// (`(out, scratch)`), both pre-sized to the peak segment register —
    /// so the per-boundary [`crate::State::remap`] calls inside the run
    /// never reallocate — and re-targeted onto the first segment's
    /// register, ready for [`crate::ideal::run_segmented_into`].
    pub fn rolling_buffers(&self) -> (crate::State, crate::State) {
        let schedule = Schedule::from(self);
        (schedule.buffer(), schedule.buffer())
    }

    /// [`Schedule::mean_state_bytes`] of this schedule.
    pub fn mean_state_bytes(&self) -> f64 {
        Schedule::from(self).mean_state_bytes()
    }

    /// Product of all gate fidelities across segments (the gate EPS; the
    /// segmentation never adds or removes pulses).
    pub fn gate_eps(&self) -> f64 {
        self.segments.iter().map(TimedCircuit::gate_eps).product()
    }

    /// Checks structural invariants: every segment's invariants
    /// ([`TimedCircuit::validate`]) with one per-device timeline threaded
    /// across segments, so a reshape boundary cannot hide an overlap.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut busy_until = vec![0.0f64; self.first_register().n_qudits()];
        for (k, segment) in self.segments.iter().enumerate() {
            segment
                .validate_ops(&mut busy_until)
                .map_err(|e| format!("segment {k}: {e}"))?;
            if segment.total_duration_ns > self.total_duration_ns + 1e-6 {
                return Err(format!("segment {k} duration exceeds the segmented total"));
            }
        }
        Ok(())
    }

    /// Per-segment gate fusion: [`TimedCircuit::fuse_with_cache`]
    /// applied inside each segment independently. Fusion never crosses a
    /// reshape boundary — a block's unitary lives on one register, and
    /// the registers differ across the boundary by construction. The
    /// cache key carries the block's
    /// operand dimensions *in the segment's register* (the `dims` field
    /// of the internal block key), so the same gate run fused in a dim-4
    /// window and in a demoted dim-2 segment occupies two distinct
    /// entries and a hit is always bit-identical.
    #[must_use]
    pub fn fuse_with_cache(&self, opts: &FuseOptions, cache: &FuseCache) -> SegmentedCircuit {
        SegmentedCircuit {
            segments: self
                .segments
                .iter()
                .map(|s| s.fuse_with_cache(opts, cache))
                .collect(),
            total_duration_ns: self.total_duration_ns,
        }
    }
}

/// A borrowed view of what one simulation runs: the segments in program
/// order and the program's wall-clock end. A [`TimedCircuit`] is one
/// segment and a [`SegmentedCircuit`] its own segments; both convert
/// into a `Schedule` without copying, and every runner, the
/// [`crate::Session`] and the [`crate::trajectory::Estimator`] take one.
///
/// A run starts on the first segment's register, reshapes the state at
/// each boundary onto the next one's, and ends on the last segment's.
#[derive(Debug, Clone, Copy)]
pub struct Schedule<'a> {
    segments: &'a [TimedCircuit],
    total_duration_ns: f64,
}

impl<'a> From<&'a TimedCircuit> for Schedule<'a> {
    fn from(circuit: &'a TimedCircuit) -> Self {
        Schedule {
            segments: std::slice::from_ref(circuit),
            total_duration_ns: circuit.total_duration_ns,
        }
    }
}

impl<'a> From<&'a SegmentedCircuit> for Schedule<'a> {
    fn from(circuit: &'a SegmentedCircuit) -> Self {
        Schedule {
            segments: &circuit.segments,
            total_duration_ns: circuit.total_duration_ns,
        }
    }
}

impl<'a> Schedule<'a> {
    /// The segments in program order (at least one).
    pub fn segments(&self) -> &'a [TimedCircuit] {
        self.segments
    }

    /// Wall-clock duration of the whole program in nanoseconds.
    pub fn total_duration_ns(&self) -> f64 {
        self.total_duration_ns
    }

    /// Whether the program is cut into more than one segment, i.e. a run
    /// reshapes the state and needs a second buffer.
    pub fn is_split(&self) -> bool {
        self.segments.len() > 1
    }

    /// The register a run starts on (first segment's).
    pub fn first_register(&self) -> &'a Register {
        &self.segments[0].register
    }

    /// The register a run ends on (last segment's).
    pub fn last_register(&self) -> &'a Register {
        &self.segments[self.segments.len() - 1].register
    }

    /// The segment register with the most amplitudes.
    pub(crate) fn peak_register(&self) -> &'a Register {
        self.segments
            .iter()
            .map(|s| &s.register)
            .max_by_key(|r| r.total_dim())
            .expect("at least one segment")
    }

    /// Largest per-segment state size in bytes — the unit the simulation
    /// buffers are sized by (a segmented run holds **two** buffers of at
    /// most this size, regardless of the segment count) and the quantity
    /// byte budgets gate on.
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_register().state_bytes()
    }

    /// Op-weighted mean state size in bytes: each op sweeps its own
    /// segment's state, so this is the average bytes touched per sweep —
    /// the windowed analysis shrinks it even when the peak is pinned by
    /// one wide window. Falls back to the peak for op-less schedules.
    pub fn mean_state_bytes(&self) -> f64 {
        let ops: usize = self.segments.iter().map(TimedCircuit::len).sum();
        if ops == 0 {
            return self.peak_state_bytes() as f64;
        }
        let weighted: f64 = self
            .segments
            .iter()
            .map(|s| s.len() as f64 * s.register.state_bytes() as f64)
            .sum();
        weighted / ops as f64
    }

    /// A zeroed state buffer on the first register, pre-sized to the peak
    /// segment so re-targeting it at a boundary never reallocates.
    pub(crate) fn buffer<S: crate::trajectory::Representation>(&self) -> S {
        let mut buffer = S::zero(self.peak_register());
        buffer.remap(self.first_register());
        buffer
    }

    /// The second buffer a split schedule rolls through its boundaries;
    /// `None` for one segment.
    pub(crate) fn scratch<S: crate::trajectory::Representation>(&self) -> Option<S> {
        self.is_split().then(|| self.buffer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waltz_gates::standard;

    fn op(label: &str, u: Matrix, operands: Vec<usize>, start: f64, dur: f64) -> TimedOp {
        let error_dims = vec![2; operands.len()];
        TimedOp::new(label, u, operands, error_dims, start, dur, 0.99)
    }

    #[test]
    fn validate_accepts_well_formed_schedule() {
        let mut tc = TimedCircuit::new(Register::qubits(2));
        tc.ops.push(op("h", standard::h(), vec![0], 0.0, 35.0));
        tc.ops
            .push(op("cx", standard::cx(), vec![0, 1], 35.0, 251.0));
        tc.total_duration_ns = 286.0;
        assert!(tc.validate().is_ok());
        assert_eq!(tc.pulse_counts(), (1, 1, 0));
        assert!((tc.gate_eps() - 0.99f64.powi(2)).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_overlapping_ops() {
        let mut tc = TimedCircuit::new(Register::qubits(2));
        tc.ops
            .push(op("cx", standard::cx(), vec![0, 1], 0.0, 251.0));
        tc.ops.push(op("h", standard::h(), vec![0], 100.0, 35.0));
        tc.total_duration_ns = 251.0;
        assert!(tc.validate().unwrap_err().contains("before device"));
    }

    #[test]
    fn fuse_collapses_same_pair_run_and_preserves_ideal_output() {
        // h(0); cx(0,1); h(1); h(0) on two qubits: one fused block.
        let mut tc = TimedCircuit::new(Register::qubits(2));
        tc.ops.push(op("h", standard::h(), vec![0], 0.0, 35.0));
        tc.ops
            .push(op("cx", standard::cx(), vec![0, 1], 35.0, 251.0));
        tc.ops.push(op("h", standard::h(), vec![1], 286.0, 35.0));
        tc.ops.push(op("h", standard::h(), vec![0], 286.0, 35.0));
        tc.total_duration_ns = 321.0;
        let fused = tc.fuse();
        assert_eq!(fused.len(), 1, "run should fuse into one block");
        let block = &fused.ops[0];
        assert_eq!(block.noise_events.as_ref().unwrap().len(), 4);
        assert!((block.fidelity - 0.99f64.powi(4)).abs() < 1e-12);
        assert!((fused.gate_eps() - tc.gate_eps()).abs() < 1e-12);
        assert!(fused.validate().is_ok(), "{:?}", fused.validate());
        let initial = crate::State::zero(&tc.register);
        let a = crate::ideal::run(&tc, &initial);
        let b = crate::ideal::run(&fused, &initial);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fuse_merges_disjoint_blocks_bridged_by_two_qudit_gate() {
        // h(0); h(1); cx(0,1): the two single-qudit blocks merge when the
        // bridging CX arrives.
        let mut tc = TimedCircuit::new(Register::qubits(2));
        tc.ops.push(op("h", standard::h(), vec![0], 0.0, 35.0));
        tc.ops.push(op("h", standard::h(), vec![1], 0.0, 35.0));
        tc.ops
            .push(op("cx", standard::cx(), vec![0, 1], 35.0, 251.0));
        tc.total_duration_ns = 286.0;
        let fused = tc.fuse();
        assert_eq!(fused.len(), 1);
        let initial = crate::State::zero(&tc.register);
        let a = crate::ideal::run(&tc, &initial);
        let b = crate::ideal::run(&fused, &initial);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fuse_reclassifies_diagonal_runs_as_diagonal() {
        use waltz_math::C64;
        let s_gate = Matrix::from_diag(&[C64::ONE, C64::I]);
        let cz = Matrix::from_diag(&[C64::ONE, C64::ONE, C64::ONE, -C64::ONE]);
        let mut tc = TimedCircuit::new(Register::qubits(2));
        tc.ops.push(op("s", s_gate.clone(), vec![0], 0.0, 35.0));
        tc.ops.push(op("cz", cz, vec![0, 1], 35.0, 251.0));
        tc.ops.push(op("s", s_gate, vec![1], 286.0, 35.0));
        tc.total_duration_ns = 321.0;
        let fused = tc.fuse();
        assert_eq!(fused.len(), 1);
        assert_eq!(fused.ops[0].kernel.name(), "diagonal");
    }

    #[test]
    fn fuse_leaves_singleton_and_oversized_ops_verbatim() {
        // A lone three-qubit gate and an isolated single-qubit gate on a
        // third device pass through untouched (no noise events).
        let mut tc = TimedCircuit::new(Register::qubits(3));
        let ccx = standard::ccx();
        tc.ops.push(op("ccx", ccx, vec![0, 1, 2], 0.0, 912.0));
        tc.ops.push(op("h", standard::h(), vec![1], 912.0, 35.0));
        tc.total_duration_ns = 947.0;
        let fused = tc.fuse();
        assert_eq!(fused.len(), 2);
        assert!(fused.ops.iter().all(|o| o.noise_events.is_none()));
        assert_eq!(fused.ops[0].label, "ccx");
        assert_eq!(fused.ops[1].label, "h");
    }

    #[test]
    fn fuse_never_reorders_conflicting_ops() {
        // cx(0,1); cx(1,2); cx(0,1): the middle gate conflicts with the
        // open (0,1) block, so blocks flush in schedule order and the
        // ideal outputs agree.
        let mut tc = TimedCircuit::new(Register::qubits(3));
        tc.ops
            .push(op("cx01", standard::cx(), vec![0, 1], 0.0, 251.0));
        tc.ops
            .push(op("cx12", standard::cx(), vec![1, 2], 251.0, 251.0));
        tc.ops
            .push(op("cx01", standard::cx(), vec![0, 1], 502.0, 251.0));
        tc.total_duration_ns = 753.0;
        let fused = tc.fuse();
        assert!(fused.len() <= tc.len());
        let mut initial = crate::State::zero(&tc.register);
        initial.apply_unitary(&standard::h(), &[0]);
        initial.apply_unitary(&standard::h(), &[1]);
        initial.apply_unitary(&standard::h(), &[2]);
        let a = crate::ideal::run(&tc, &initial);
        let b = crate::ideal::run(&fused, &initial);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    /// h(0); cx(0,1); h(1); h(0): fuses to a single 4-constituent block
    /// under the default options.
    fn four_op_run() -> TimedCircuit {
        let mut tc = TimedCircuit::new(Register::qubits(2));
        tc.ops.push(op("h", standard::h(), vec![0], 0.0, 35.0));
        tc.ops
            .push(op("cx", standard::cx(), vec![0, 1], 35.0, 251.0));
        tc.ops.push(op("h", standard::h(), vec![1], 286.0, 35.0));
        tc.ops.push(op("h", standard::h(), vec![0], 286.0, 35.0));
        tc.total_duration_ns = 321.0;
        tc
    }

    #[test]
    fn span_cap_bounds_constituents_per_block() {
        let tc = four_op_run();
        for cap in [1usize, 2, 3, 4] {
            let fused = tc.fuse_with(&FuseOptions {
                max_block_span: cap,
                ..FuseOptions::default()
            });
            for b in &fused.ops {
                let span = b.noise_events.as_ref().map_or(1, Vec::len);
                assert!(span <= cap, "cap {cap}: block spans {span} pulses");
            }
            assert!((fused.gate_eps() - tc.gate_eps()).abs() < 1e-12);
            let initial = crate::State::zero(&tc.register);
            let a = crate::ideal::run(&tc, &initial);
            let b = crate::ideal::run(&fused, &initial);
            assert!((a.fidelity(&b) - 1.0).abs() < 1e-12, "cap {cap} parity");
        }
    }

    #[test]
    fn span_cap_of_one_disables_fusion() {
        let tc = four_op_run();
        for cap in [0usize, 1] {
            let fused = tc.fuse_with(&FuseOptions {
                max_block_span: cap,
                ..FuseOptions::default()
            });
            assert_eq!(fused.len(), tc.len());
            assert!(fused.ops.iter().all(|o| o.noise_events.is_none()));
        }
    }

    #[test]
    fn fuse_cache_hits_across_circuits_and_stays_bit_identical() {
        let tc = four_op_run();
        // Same schedule shape on a *different* device pair: positions and
        // dims match, so the cached product must be reused.
        let mut shifted = TimedCircuit::new(Register::qubits(3));
        shifted.ops.push(op("h", standard::h(), vec![1], 0.0, 35.0));
        shifted
            .ops
            .push(op("cx", standard::cx(), vec![1, 2], 35.0, 251.0));
        shifted
            .ops
            .push(op("h", standard::h(), vec![2], 286.0, 35.0));
        shifted
            .ops
            .push(op("h", standard::h(), vec![1], 286.0, 35.0));
        shifted.total_duration_ns = 321.0;

        let opts = FuseOptions::default();
        let cache = FuseCache::new();
        let a = tc.fuse_with_cache(&opts, &cache);
        let entries_after_first = cache.len();
        assert!(entries_after_first > 0, "block product must be memoized");
        let b = shifted.fuse_with_cache(&opts, &cache);
        assert_eq!(
            cache.len(),
            entries_after_first,
            "identical shape on other devices must hit, not repopulate"
        );
        // Cached results are bit-identical to the uncached pass.
        let fresh = shifted.fuse_with(&opts);
        assert_eq!(b.len(), fresh.len());
        for (x, y) in b.ops.iter().zip(&fresh.ops) {
            assert_eq!(x.unitary, y.unitary);
            assert_eq!(x.operands, y.operands);
            assert_eq!(x.kernel.name(), y.kernel.name());
        }
        // And the first circuit's fused output still validates/parities.
        let initial = crate::State::zero(&tc.register);
        let x = crate::ideal::run(&tc, &initial);
        let y = crate::ideal::run(&a, &initial);
        assert!((x.fidelity(&y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fuse_cache_clones_share_the_store() {
        let cache = FuseCache::new();
        let clone = cache.clone();
        let tc = four_op_run();
        let _ = tc.fuse_with_cache(&FuseOptions::default(), &cache);
        assert!(!cache.is_empty());
        assert_eq!(clone.len(), cache.len(), "clones share the Arc'd store");
        assert_eq!(clone.hits(), cache.hits(), "counters are shared too");
    }

    #[test]
    fn fuse_cache_counts_hits_and_misses() {
        let cache = FuseCache::new();
        assert_eq!(cache.capacity(), 4096);
        let tc = four_op_run();
        let _ = tc.fuse_with_cache(&FuseOptions::default(), &cache);
        let first_misses = cache.misses();
        assert!(first_misses > 0, "a cold cache must record misses");
        assert_eq!(cache.evictions(), 0);
        let hits_before = cache.hits();
        let _ = tc.fuse_with_cache(&FuseOptions::default(), &cache);
        assert!(cache.hits() > hits_before, "warm re-fuse must hit");
        assert_eq!(cache.misses(), first_misses, "warm re-fuse must not miss");
    }

    #[test]
    fn fuse_cache_capacity_one_evicts_lru() {
        // A tiny cache forced to evict: two distinct block shapes compete
        // for a single slot.
        let cache = FuseCache::with_capacity(1);
        assert_eq!(cache.capacity(), 1);
        let a = four_op_run();
        let mut b = four_op_run();
        // A different trailing gate changes the block shapes.
        b.ops.pop();
        b.ops.push(op("x", standard::x(), vec![0], 286.0, 35.0));
        let fused_a = a.fuse_with_cache(&FuseOptions::default(), &cache);
        let _ = b.fuse_with_cache(&FuseOptions::default(), &cache);
        assert!(cache.len() <= 1, "capacity bound must hold");
        assert!(cache.evictions() > 0, "overflow must evict, not drop");
        // Evictions never change results: re-fusing stays bit-identical.
        let fused_a_again = a.fuse_with_cache(&FuseOptions::default(), &cache);
        assert_eq!(fused_a.len(), fused_a_again.len());
        for (x, y) in fused_a.ops.iter().zip(&fused_a_again.ops) {
            assert_eq!(x.unitary, y.unitary);
        }
    }

    #[test]
    fn fuse_cache_zero_capacity_disables_memoization() {
        let cache = FuseCache::with_capacity(0);
        let tc = four_op_run();
        let fused = tc.fuse_with_cache(&FuseOptions::default(), &cache);
        assert!(cache.is_empty(), "nothing may be stored at capacity 0");
        assert_eq!(cache.hits(), 0);
        let fresh = tc.fuse_with(&FuseOptions::default());
        assert_eq!(fused.len(), fresh.len());
    }

    #[test]
    fn fuse_with_custom_constants_matches_default_when_equal() {
        let tc = four_op_run();
        let a = tc.fuse();
        let b = tc.fuse_with(&FuseOptions::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.unitary, y.unitary);
        }
    }

    /// A two-segment schedule: a (4, 2) window followed by a demoted
    /// (2, 2) tail, sharing one timeline.
    fn segmented_fixture() -> SegmentedCircuit {
        let mut first = TimedCircuit::new(Register::new(vec![4, 2]));
        first
            .ops
            .push(op("ccz", waltz_gates::mixed::ccz(), vec![0, 1], 0.0, 100.0));
        first.total_duration_ns = 451.0;
        let mut second = TimedCircuit::new(Register::qubits(2));
        second
            .ops
            .push(op("cx", standard::cx(), vec![0, 1], 100.0, 251.0));
        second
            .ops
            .push(op("h", standard::h(), vec![1], 351.0, 35.0));
        second.total_duration_ns = 451.0;
        SegmentedCircuit::new(vec![first, second], 451.0)
    }

    #[test]
    fn segmented_accessors_and_validate() {
        let seg = segmented_fixture();
        assert_eq!(seg.n_segments(), 2);
        assert_eq!(seg.reshape_count(), 1);
        assert_eq!(seg.len(), 3);
        assert!(!seg.is_empty());
        assert_eq!(seg.first_register().dims(), &[4, 2]);
        assert_eq!(seg.last_register().dims(), &[2, 2]);
        assert_eq!(seg.peak_state_bytes(), 8 * 16);
        // 1 op on 8 amps + 2 ops on 4 amps -> (128 + 2 * 64) / 3 bytes.
        assert!((seg.mean_state_bytes() - (128.0 + 2.0 * 64.0) / 3.0).abs() < 1e-9);
        assert!((seg.gate_eps() - 0.99f64.powi(3)).abs() < 1e-12);
        assert!(seg.validate().is_ok(), "{:?}", seg.validate());
    }

    #[test]
    fn segmented_validate_catches_cross_segment_overlap() {
        let mut seg = segmented_fixture();
        // Move the second segment's first op to overlap the window op.
        seg.segments[1].ops[0].start_ns = 50.0;
        let err = seg.validate().unwrap_err();
        assert!(err.contains("segment 1"), "{err}");
        assert!(err.contains("before device"), "{err}");
    }

    #[test]
    fn segmented_fuse_never_crosses_a_boundary() {
        let seg = segmented_fixture();
        let fused = seg.fuse_with_cache(&FuseOptions::default(), &FuseCache::new());
        assert_eq!(fused.n_segments(), 2);
        // The two ops of the second segment fuse; the window op cannot
        // join them (different segment, different register).
        assert_eq!(fused.segments[0].len(), 1);
        assert_eq!(fused.segments[1].len(), 1);
        assert!((fused.gate_eps() - seg.gate_eps()).abs() < 1e-12);
        assert!(fused.validate().is_ok(), "{:?}", fused.validate());
    }

    #[test]
    fn segmented_single_wraps_whole_schedule() {
        let tc = four_op_run();
        let seg = SegmentedCircuit::single(tc.clone());
        assert_eq!(seg.n_segments(), 1);
        assert_eq!(seg.reshape_count(), 0);
        assert_eq!(seg.len(), tc.len());
        assert_eq!(seg.total_duration_ns, tc.total_duration_ns);
    }

    #[test]
    #[should_panic(expected = "same qudits")]
    fn segmented_rejects_qudit_count_mismatch() {
        let a = TimedCircuit::new(Register::qubits(2));
        let b = TimedCircuit::new(Register::qubits(3));
        let _ = SegmentedCircuit::new(vec![a, b], 0.0);
    }

    #[test]
    fn validate_rejects_dimension_mismatch() {
        let mut tc = TimedCircuit::new(Register::new(vec![4, 2]));
        // 4x4 matrix on the 2-dim device 1.
        tc.ops
            .push(op("bad", Matrix::identity(4), vec![1], 0.0, 10.0));
        tc.total_duration_ns = 10.0;
        assert!(tc.validate().unwrap_err().contains("unitary dim"));
    }
}
