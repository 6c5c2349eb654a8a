//! The pass-structured compiler: one reusable [`Compiler`] built from a
//! [`Target`] + [`CompileOptions`] drives an explicit pipeline —
//! [`Pass::Decompose`] → [`Pass::Map`] → [`Pass::Route`] →
//! [`Pass::Analyze`] → [`Pass::Schedule`] → [`Pass::Fuse`] →
//! [`Pass::Lower`] — recording a [`PassReport`] (wall time, op/depth
//! deltas, diagnostics) per stage into the returned [`CompileArtifact`].

use std::time::Instant;

use waltz_arch::InteractionGraph;
use waltz_circuit::{Circuit, GateKind};
use waltz_gates::Q1Gate;
use waltz_sim::{FuseCache, FuseOptions, GateKernel, Schedule, SegmentedCircuit};

use crate::artifact::CompileArtifact;
use crate::cache::ArtifactCache;
use crate::compile::{build_spans, CompileError, CompileStats, CompiledCircuit};
use crate::lower::{self, LowerOutput};
use crate::mapping;
use crate::strategy::{CompileOptions, Fusion, Strategy};
use crate::target::Target;

/// One stage of the compilation pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Strategy-specific expansion of the logical circuit to the regime's
    /// native set (8-CX expansion, CCX→CCZ, CSWAP orientation, §5.1).
    Decompose,
    /// Initial placement of logical qubits onto the interaction graph
    /// using the §5.2 lookahead weights.
    Map,
    /// Routing and pulse-configuration selection: the decomposed circuit
    /// becomes an ordered hardware program (§5.1, §4.2).
    Route,
    /// Level-occupancy analysis of the routed program: bounds the highest
    /// level each device ever populates and (unless
    /// [`CompileOptions::padded_registers`] is set) demotes devices that
    /// never leave their qubit subspace to dimension 2, shrinking the
    /// simulated register; then (unless
    /// [`CompileOptions::with_windowed_registers`] opted out) time-slices
    /// the result into per-segment registers at the `ENC`/`DEC` window
    /// boundaries ([`crate::HwProgram::window_registers`]). The report
    /// records the per-device dimensions, the state bytes saved, and the
    /// windowed segmentation: `segments`, `reshapes`, per-segment
    /// `segment_dims`, and peak vs. mean state bytes
    /// (`state_bytes_peak`, `state_bytes_mean`).
    Analyze,
    /// ASAP scheduling with calibrated durations, embedding each unitary
    /// to device dimensions and classifying its [`waltz_sim::GateKernel`];
    /// when the analysis kept more than one window, also the windowed
    /// segments on the same timeline.
    Schedule,
    /// Gate fusion of the simulation schedule, once per segment
    /// ([`waltz_sim::SegmentedCircuit::fuse_with_cache`]); a no-op pass
    /// when the options disable fusion. Its report counts the ops and
    /// start times of the schedule simulations run.
    Fuse,
    /// Final lowering into the simulation-ready artifact: the coherence
    /// timeline (§6.3) and aggregate statistics.
    Lower,
}

impl Pass {
    /// Every pass, in execution order.
    pub const ALL: [Pass; 7] = [
        Pass::Decompose,
        Pass::Map,
        Pass::Route,
        Pass::Analyze,
        Pass::Schedule,
        Pass::Fuse,
        Pass::Lower,
    ];

    /// Stable display name (also the key used in `BENCH_sim.json`).
    pub fn name(self) -> &'static str {
        match self {
            Pass::Decompose => "decompose",
            Pass::Map => "map",
            Pass::Route => "route",
            Pass::Analyze => "analyze",
            Pass::Schedule => "schedule",
            Pass::Fuse => "fuse",
            Pass::Lower => "lower",
        }
    }
}

/// What one pipeline stage did: wall time, op/depth deltas and per-pass
/// diagnostics, recorded into the [`CompileArtifact`].
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Which pass ran.
    pub pass: Pass,
    /// Wall-clock time the pass took, in milliseconds.
    pub wall_ms: f64,
    /// Operation count entering the pass (logical gates for circuit-level
    /// passes, scheduled pulses/blocks for schedule-level passes).
    pub ops_in: usize,
    /// Operation count leaving the pass.
    pub ops_out: usize,
    /// Depth entering the pass (logical circuit depth, or distinct pulse
    /// start times once scheduled).
    pub depth_in: usize,
    /// Depth leaving the pass.
    pub depth_out: usize,
    /// Per-pass key/value diagnostics (routing swaps, ENC windows, …).
    pub diagnostics: Vec<(String, String)>,
}

impl PassReport {
    /// Signed op-count delta (`ops_out - ops_in`).
    pub fn ops_delta(&self) -> isize {
        self.ops_out as isize - self.ops_in as isize
    }

    /// Looks up a diagnostic by key.
    pub fn diagnostic(&self, key: &str) -> Option<&str> {
        self.diagnostics
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Bytes one state-vector amplitude occupies — the unit of the analyze
/// pass's state-size diagnostics, kept identical to
/// [`Register::state_bytes`] by construction.
const STATE_BYTES_PER_AMP: usize = std::mem::size_of::<waltz_math::C64>();

/// Bytes one sparse amplitude-map entry occupies (packed basis index
/// plus amplitude) — the unit of the analyze pass's sparse-size
/// prediction, kept identical to `SparseState::state_bytes` by
/// construction.
const SPARSE_BYTES_PER_ENTRY: usize = std::mem::size_of::<(u64, waltz_math::C64)>();

/// Predicted peak sparse support (nonzero amplitude count) of the
/// compiled simulation schedule, assuming a classical basis input
/// (support 1). Identity, diagonal and permutation kernels preserve the
/// support exactly; dense kernels multiply it by the gate's block
/// dimension; the (segment) register size caps it. Windowed schedules
/// walk each segment in order with the support carried across reshape
/// boundaries (a reshape never grows the support).
fn predict_sparse_peak_nnz(compiled: &crate::compile::CompiledCircuit) -> usize {
    let mut nnz: u128 = 1;
    let mut peak: u128 = 1;
    for segment in compiled.sim_schedule().segments() {
        let total = (segment.register.total_dim() as u128).max(1);
        nnz = nnz.min(total);
        peak = peak.max(nnz);
        for op in &segment.ops {
            match &op.kernel {
                GateKernel::Identity
                | GateKernel::Diagonal { .. }
                | GateKernel::Permutation { .. } => {}
                _ => nnz = (nnz * op.unitary.rows() as u128).min(total),
            }
            peak = peak.max(nnz);
        }
    }
    peak.min(usize::MAX as u128) as usize
}

/// Number of distinct op start times across a schedule's segments (one
/// shared timeline) — the scheduled analogue of circuit depth.
fn schedule_depth<'a>(schedule: impl Into<Schedule<'a>>) -> usize {
    let ops = schedule.into().segments().iter().flat_map(|s| &s.ops);
    let mut starts: Vec<u64> = ops.map(|op| op.start_ns.to_bits()).collect();
    starts.sort_unstable();
    starts.dedup();
    starts.len()
}

/// A reusable compiler for one [`Target`]: drives the pass pipeline and
/// records per-pass reports.
///
/// The gate-fusion and window cost models run on the checked-in
/// [`FuseOptions::default`] constants, so every compile decision — and
/// [`Compiler::fingerprint`] — is a pure function of the target and the
/// [`CompileOptions`], identical in every process on every host.
///
/// # Example
///
/// ```
/// use waltz_core::{Compiler, Strategy, Target};
/// use waltz_circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0).ccx(0, 1, 2);
/// let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
/// let artifact = compiler.compile(&c).unwrap();
/// assert!(artifact.timed.validate().is_ok());
/// let fidelity = artifact.simulate().average_fidelity(10);
/// assert!(fidelity.mean > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    target: Target,
    options: CompileOptions,
    fuse: FuseOptions,
    /// Memoized fused-block products, shared by every compilation through
    /// this compiler (and its clones — the store is behind an `Arc`):
    /// batches of structurally similar circuits multiply each repeated
    /// block shape once instead of once per circuit.
    fuse_cache: FuseCache,
    /// Content-addressed artifact cache
    /// ([`Compiler::with_artifact_cache`]): repeat compilations of the
    /// same circuit against the same target replay the stored artifact
    /// instead of running the pipeline. `None` (the default) compiles
    /// every call.
    artifact_cache: Option<ArtifactCache>,
}

impl Compiler {
    /// A compiler for `target` with default [`CompileOptions`] (gate
    /// fusion on, unbounded block span).
    pub fn new(target: Target) -> Self {
        Compiler::with_options(target, CompileOptions::default())
    }

    /// A compiler with explicit options.
    pub fn with_options(target: Target, options: CompileOptions) -> Self {
        let fuse = resolve_fuse_options(&options);
        Compiler {
            target,
            options,
            fuse,
            fuse_cache: FuseCache::new(),
            artifact_cache: None,
        }
    }

    /// Attaches a content-addressed [`ArtifactCache`]: before running the
    /// pipeline, [`Compiler::compile`] (and everything built on it —
    /// [`Compiler::compile_batch`], [`crate::Supervisor`]) looks the
    /// circuit up under the key `(circuit content hash, compiler
    /// fingerprint)` and replays a stored artifact instead of compiling,
    /// marking it via [`CompileArtifact::is_cached`]. Fresh compilations
    /// are stored on the way out.
    pub fn with_artifact_cache(mut self, cache: ArtifactCache) -> Self {
        self.artifact_cache = Some(cache);
        self
    }

    /// The attached artifact cache, when one was configured.
    pub fn artifact_cache(&self) -> Option<&ArtifactCache> {
        self.artifact_cache.as_ref()
    }

    /// The compiler half of the [`ArtifactCache`] key: the target's
    /// [`Target::fingerprint`] folded with the compile options and the
    /// *resolved* cost-model constants. The constants are checked in, so
    /// the fingerprint is the same in every process — a disk cache hits
    /// after a restart — while a later change to them still changes every
    /// key, and a shared cache never replays an artifact compiled under
    /// different constants as if it matched.
    pub fn fingerprint(&self) -> u64 {
        use waltz_codec::Encode;
        let mut w = waltz_codec::ByteWriter::new();
        w.put_u64(self.target.fingerprint());
        self.options.encode(&mut w);
        self.fuse.encode(&mut w);
        w.put_usize(
            self.options
                .window_sweep_fixed
                .unwrap_or(self.fuse.sweep_fixed),
        );
        waltz_codec::fnv1a64(w.as_bytes())
    }

    /// The target this compiler was built from.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The options this compiler was built with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The resolved fusion cost-model constants: the checked-in
    /// [`FuseOptions::default`] with the options' block-span cap.
    pub fn fuse_options(&self) -> &FuseOptions {
        &self.fuse
    }

    /// Compiles one circuit through the full pass pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the circuit is empty or malformed
    /// (duplicate/missing/out-of-range operands, non-finite rotation
    /// angles) or the topology cannot host it (too small, disconnected).
    pub fn compile(&self, circuit: &Circuit) -> Result<CompileArtifact, CompileError> {
        self.compile_until(circuit, None, 0)
    }

    /// [`Compiler::compile`] under a wall-clock deadline: the budget is
    /// checked at every pass boundary, and a compilation that runs past
    /// it returns [`CompileError::DeadlineExceeded`] naming the first
    /// pass that did not start in time. A pass already running is never
    /// interrupted, so the overshoot is bounded by one pass.
    pub fn compile_with_deadline(
        &self,
        circuit: &Circuit,
        budget: std::time::Duration,
    ) -> Result<CompileArtifact, CompileError> {
        let budget_ms = budget.as_millis().min(u64::MAX as u128) as u64;
        self.compile_until(circuit, Some(Instant::now() + budget), budget_ms)
    }

    /// The one pipeline implementation behind [`Compiler::compile`],
    /// [`Compiler::compile_with_deadline`] and the supervised entry
    /// points: every pass boundary runs through
    /// [`crate::supervisor::begin_pass`], which enforces the deadline and
    /// marks the running pass in thread-local state so a supervisor's
    /// `catch_unwind` can attribute a panic to the pass that raised it.
    pub(crate) fn compile_until(
        &self,
        circuit: &Circuit,
        deadline: Option<Instant>,
        budget_ms: u64,
    ) -> Result<CompileArtifact, CompileError> {
        use crate::supervisor::begin_pass;

        let topology = self.target.topology_for(circuit.n_qubits());
        validate(circuit, &topology, self.target.strategy())?;
        // Content-addressed replay: a hit skips every pass below. The
        // key is computed only when a cache is attached (hashing the
        // circuit costs one canonical encoding).
        let cache_key = self
            .artifact_cache
            .as_ref()
            .map(|_| (waltz_codec::content_hash(circuit), self.fingerprint()));
        if let (Some(cache), Some(key)) = (&self.artifact_cache, cache_key) {
            if let Some(artifact) = cache.lookup(key) {
                return Ok(artifact);
            }
        }
        let strategy = *self.target.strategy();
        let lib = self.target.library();
        let mut reports: Vec<PassReport> = Vec::with_capacity(Pass::ALL.len());

        // -- Decompose ----------------------------------------------------
        begin_pass(Pass::Decompose, deadline, budget_ms)?;
        let t0 = Instant::now();
        let prepared = match &strategy {
            Strategy::QubitOnly { ccx } => lower::qubit_only::preprocess(circuit, *ccx),
            Strategy::MixedRadix { ccx, native_cswap } => {
                lower::mixed_radix::preprocess(circuit, *ccx, *native_cswap)
            }
            Strategy::FullQuquart { use_ccz, cswap } => {
                lower::full_ququart::preprocess(circuit, *use_ccz, *cswap)
            }
        };
        let (c1, c2, c3) = prepared.gate_counts();
        reports.push(PassReport {
            pass: Pass::Decompose,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            ops_in: circuit.len(),
            ops_out: prepared.len(),
            depth_in: circuit.depth(),
            depth_out: prepared.depth(),
            diagnostics: vec![
                ("gates_1q".into(), c1.to_string()),
                ("gates_2q".into(), c2.to_string()),
                ("gates_3q".into(), c3.to_string()),
            ],
        });

        // -- Map ----------------------------------------------------------
        begin_pass(Pass::Map, deadline, budget_ms)?;
        let t0 = Instant::now();
        let graph = match &strategy {
            Strategy::FullQuquart { .. } => InteractionGraph::encoded(topology),
            _ => InteractionGraph::qubit_only(topology),
        };
        let layout = mapping::place(&prepared, &graph);
        reports.push(PassReport {
            pass: Pass::Map,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            ops_in: prepared.len(),
            ops_out: prepared.len(),
            depth_in: prepared.depth(),
            depth_out: prepared.depth(),
            diagnostics: vec![
                ("devices".into(), graph.topology().n_devices().to_string()),
                ("center".into(), graph.topology().center().to_string()),
            ],
        });

        // -- Route --------------------------------------------------------
        begin_pass(Pass::Route, deadline, budget_ms)?;
        let t0 = Instant::now();
        let mut out: LowerOutput = match &strategy {
            Strategy::QubitOnly { ccx } => {
                lower::qubit_only::route(&prepared, layout, graph, lib, *ccx)
            }
            Strategy::MixedRadix { ccx, .. } => {
                lower::mixed_radix::route(&prepared, layout, graph, lib, *ccx)
            }
            Strategy::FullQuquart { cswap, .. } => {
                lower::full_ququart::route(&prepared, layout, graph, lib, *cswap)
            }
        };
        reports.push(PassReport {
            pass: Pass::Route,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            ops_in: prepared.len(),
            ops_out: out.prog.len(),
            depth_in: prepared.depth(),
            depth_out: out.prog.len(),
            diagnostics: vec![
                ("routing_swaps".into(), out.swaps.to_string()),
                ("enc_windows".into(), out.enc_windows.len().to_string()),
            ],
        });

        // -- Analyze ------------------------------------------------------
        // Level occupancy: bound the highest level each device ever
        // populates and shrink the register to exactly those dimensions.
        // The mixed-radix payoff: only ENC hosts (and partners the closure
        // check cannot demote) stay four-dimensional, so a register that
        // padded to 4^n amplitudes collapses to the occupied product.
        // The windowed refinement then time-slices that result: the
        // program is cut wherever a device's occupied dimension changes
        // (ENC/DEC boundaries) and each segment gets its own register, so
        // hosts shrink *outside* their windows too — gated by a cost
        // model that only keeps boundaries whose smaller registers save
        // more sweep-bytes than the reshape copy costs.
        begin_pass(Pass::Analyze, deadline, budget_ms)?;
        let t0 = Instant::now();
        // Saturating like `Register::state_bytes`: a 38-qubit register's
        // byte count must not wrap into something a budget would admit.
        let bytes_of = |dims: &[u8]| {
            dims.iter()
                .map(|&d| d as usize)
                .fold(STATE_BYTES_PER_AMP, usize::saturating_mul)
        };
        let padded_bytes = bytes_of(out.prog.dims());
        if !self.options.padded_registers {
            out.prog.demote_to_occupancy();
        }
        let windowing = self.options.windowed_registers && !self.options.padded_registers;
        // The window cost model prices each sweep's fixed overhead with
        // the fusion model's per-sweep constant, unless pinned.
        let window_fixed = self
            .options
            .window_sweep_fixed
            .unwrap_or(self.fuse.sweep_fixed);
        let windows = if windowing {
            out.prog.window_registers_with(window_fixed)
        } else {
            Vec::new()
        };
        // A single window is exactly the whole-program register: fall
        // back to the PR 4 engine and skip the segmented schedule.
        let windowed_active = windows.len() > 1;
        let dims = out.prog.dims();
        let state_bytes = bytes_of(dims);
        let (peak_bytes, mean_bytes) = if windowed_active {
            let peak = windows
                .iter()
                .map(crate::hwprog::RegisterWindow::state_bytes)
                .max()
                .unwrap_or(0);
            let ops: usize = windows.iter().map(|w| w.ops.len()).sum();
            let weighted: f64 = windows
                .iter()
                .map(|w| (w.ops.len() * w.state_bytes()) as f64)
                .sum();
            (peak, weighted / ops.max(1) as f64)
        } else {
            (state_bytes, state_bytes as f64)
        };
        let dim_counts = |target: u8| dims.iter().filter(|&&d| d == target).count();
        let prog_len = out.prog.len();
        reports.push(PassReport {
            pass: Pass::Analyze,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            ops_in: prog_len,
            ops_out: prog_len,
            depth_in: prog_len,
            depth_out: prog_len,
            diagnostics: vec![
                (
                    "dims".into(),
                    dims.iter().map(u8::to_string).collect::<Vec<_>>().join(","),
                ),
                ("dim2_devices".into(), dim_counts(2).to_string()),
                ("dim4_devices".into(), dim_counts(4).to_string()),
                ("state_bytes".into(), state_bytes.to_string()),
                ("state_bytes_padded".into(), padded_bytes.to_string()),
                (
                    "demoted".into(),
                    (!self.options.padded_registers).to_string(),
                ),
                ("windowed".into(), windowed_active.to_string()),
                (
                    "segments".into(),
                    if windowed_active { windows.len() } else { 1 }.to_string(),
                ),
                (
                    "reshapes".into(),
                    windows.len().saturating_sub(1).to_string(),
                ),
                (
                    "segment_dims".into(),
                    if windowed_active {
                        windows
                            .iter()
                            .map(|w| {
                                w.dims
                                    .iter()
                                    .map(u8::to_string)
                                    .collect::<Vec<_>>()
                                    .join(",")
                            })
                            .collect::<Vec<_>>()
                            .join("|")
                    } else {
                        dims.iter().map(u8::to_string).collect::<Vec<_>>().join(",")
                    },
                ),
                ("state_bytes_peak".into(), peak_bytes.to_string()),
                ("state_bytes_mean".into(), format!("{mean_bytes:.1}")),
                ("window_sweep_fixed".into(), window_fixed.to_string()),
            ],
        });

        // -- Schedule -----------------------------------------------------
        // The hardware schedule, plus the windowed segments when the
        // analysis kept more than one window; an unsplit program
        // simulates `timed` itself.
        begin_pass(Pass::Schedule, deadline, budget_ms)?;
        let t0 = Instant::now();
        let timed = out.prog.schedule(lib);
        let windowed = windowed_active.then(|| out.prog.schedule_windowed(lib, &windows));
        let timed_depth = schedule_depth(&timed);
        reports.push(PassReport {
            pass: Pass::Schedule,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            ops_in: out.prog.len(),
            ops_out: timed.len(),
            depth_in: out.prog.len(),
            depth_out: timed_depth,
            diagnostics: vec![(
                "duration_ns".into(),
                format!("{:.1}", timed.total_duration_ns),
            )],
        });

        // -- Fuse ---------------------------------------------------------
        // The simulation schedule fuses once, per segment (never across a
        // reshape boundary), sharing the compiler-wide block cache. Only
        // an unfused, unsplit compile copies `timed`.
        begin_pass(Pass::Fuse, deadline, budget_ms)?;
        let t0 = Instant::now();
        let sim = match (self.options.fusion, windowed) {
            (Fusion::Off, Some(windowed)) => windowed,
            (Fusion::Off, None) => SegmentedCircuit::single(timed.clone()),
            (Fusion::TwoQudit, Some(windowed)) => {
                windowed.fuse_with_cache(&self.fuse, &self.fuse_cache)
            }
            (Fusion::TwoQudit, None) => {
                SegmentedCircuit::single(timed.fuse_with_cache(&self.fuse, &self.fuse_cache))
            }
        };
        let sim_ops = sim.len();
        let sim_depth = schedule_depth(&sim);
        reports.push(PassReport {
            pass: Pass::Fuse,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            ops_in: timed.len(),
            ops_out: sim_ops,
            depth_in: timed_depth,
            depth_out: sim_depth,
            diagnostics: vec![
                (
                    "enabled".into(),
                    (self.options.fusion != Fusion::Off).to_string(),
                ),
                (
                    "sweep_overhead".into(),
                    self.fuse.sweep_overhead.to_string(),
                ),
                ("sweep_fixed".into(), self.fuse.sweep_fixed.to_string()),
                (
                    "max_block_span".into(),
                    if self.fuse.max_block_span == usize::MAX {
                        "unbounded".into()
                    } else {
                        self.fuse.max_block_span.to_string()
                    },
                ),
                ("fuse_cache_hits".into(), self.fuse_cache.hits().to_string()),
                (
                    "fuse_cache_misses".into(),
                    self.fuse_cache.misses().to_string(),
                ),
                (
                    "fuse_cache_evictions".into(),
                    self.fuse_cache.evictions().to_string(),
                ),
            ],
        });

        // -- Lower --------------------------------------------------------
        begin_pass(Pass::Lower, deadline, budget_ms)?;
        let t0 = Instant::now();
        let coherence_spans = build_spans(&strategy, &out, &timed);
        let stats = CompileStats {
            routing_swaps: out.swaps,
            enc_windows: out.enc_windows.len(),
            hw_ops: timed.len(),
            total_duration_ns: timed.total_duration_ns,
        };
        let compiled = CompiledCircuit {
            timed,
            sim,
            strategy,
            initial_sites: out.initial_sites,
            final_sites: out.final_sites,
            coherence_spans,
            stats,
            slots_per_device: out.graph.slots_per_device(),
            logical: circuit.clone(),
        };
        // Lower assembles spans and stats without touching the ops, so its
        // op/depth fields report the simulation schedule unchanged.
        let mut lower_diagnostics = vec![
            (
                "coherence_spans".into(),
                compiled.coherence_spans.len().to_string(),
            ),
            (
                "gate_eps".into(),
                format!("{:.6}", compiled.timed.gate_eps()),
            ),
        ];
        if let Some(cache) = &self.artifact_cache {
            lower_diagnostics.push(("artifact_cache_hits".into(), cache.hits().to_string()));
            lower_diagnostics.push(("artifact_cache_misses".into(), cache.misses().to_string()));
            lower_diagnostics.push((
                "artifact_cache_evictions".into(),
                cache.evictions().to_string(),
            ));
            lower_diagnostics.push((
                "artifact_cache_evictions_disk".into(),
                cache.evictions_disk().to_string(),
            ));
        }
        reports.push(PassReport {
            pass: Pass::Lower,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            ops_in: sim_ops,
            ops_out: sim_ops,
            depth_in: sim_depth,
            depth_out: sim_depth,
            diagnostics: lower_diagnostics,
        });

        // -- Sparse-representation prediction ------------------------------
        // Appended to the analyze report retroactively: the prediction
        // walks the *fused* simulation schedule (fusion reclassifies
        // blocks, which changes which ops preserve the support), so it
        // cannot run until the Fuse pass has.
        let sparse_peak_nnz = predict_sparse_peak_nnz(&compiled);
        let sparse_bytes_pred = sparse_peak_nnz.saturating_mul(SPARSE_BYTES_PER_ENTRY);
        let dense_bytes_peak = compiled.sim_state_bytes_peak();
        if let Some(analyze) = reports.iter_mut().find(|r| r.pass == Pass::Analyze) {
            analyze
                .diagnostics
                .push(("sparse_peak_nnz_pred".into(), sparse_peak_nnz.to_string()));
            analyze.diagnostics.push((
                "sparse_state_bytes_pred".into(),
                sparse_bytes_pred.to_string(),
            ));
            analyze.diagnostics.push((
                "repr_plan".into(),
                if sparse_bytes_pred < dense_bytes_peak {
                    "sparse"
                } else {
                    "dense"
                }
                .to_string(),
            ));
        }

        let artifact = CompileArtifact::new(compiled, reports, self.target.noise().clone());
        if let (Some(cache), Some(key)) = (&self.artifact_cache, cache_key) {
            cache.store(key, &artifact);
        }
        Ok(artifact)
    }

    /// Compiles a batch of circuits, fanning them across worker threads
    /// with an atomic-counter work-stealing loop: each worker repeatedly
    /// claims the next unclaimed circuit, so one big circuit next to many
    /// small ones never strands the other workers. Results are
    /// element-wise identical to sequential [`Compiler::compile`] calls —
    /// each circuit compiles independently, and one circuit's failure
    /// never poisons the rest of the batch. Since the loop moved into
    /// [`crate::Supervisor`] (which this method delegates to), that
    /// isolation extends to panics: a pass that panics costs its own job
    /// a [`CompileError::Internal`] while every sibling completes. Use a
    /// [`crate::Supervisor`] directly for per-job [`crate::JobReport`]s,
    /// deadlines, state-byte budgets and retry-with-degradation.
    pub fn compile_batch(
        &self,
        circuits: &[Circuit],
    ) -> Vec<Result<CompileArtifact, CompileError>> {
        // Retry-with-degradation is off here: this entry point promises
        // element-wise parity with sequential `compile` calls, so a
        // panicked job must surface as its error, not as an artifact
        // compiled under different options.
        crate::supervisor::Supervisor::with_policy(
            self.clone(),
            crate::supervisor::SupervisorPolicy::default().with_retry_degraded(false),
        )
        .compile_batch(circuits)
        .into_iter()
        .map(|job| job.result)
        .collect()
    }

    /// A compiler over the same target and fuse cache with different
    /// options — the supervisor's degradation rungs recompile through
    /// this, so retries reuse every memoized fused block.
    pub(crate) fn reoptioned(&self, options: CompileOptions) -> Compiler {
        Compiler {
            target: self.target.clone(),
            fuse: resolve_fuse_options(&options),
            options,
            fuse_cache: self.fuse_cache.clone(),
            // Degraded rungs keep the cache: their options change the
            // fingerprint, so rung artifacts are cached under their own
            // keys and a retried batch warms up too.
            artifact_cache: self.artifact_cache.clone(),
        }
    }
}

/// Entry validation: everything a caller can get wrong surfaces as a
/// [`CompileError`] here instead of a panic deep inside a pass.
fn validate(
    circuit: &Circuit,
    topology: &waltz_arch::Topology,
    strategy: &Strategy,
) -> Result<(), CompileError> {
    if circuit.n_qubits() == 0 {
        return Err(CompileError::EmptyCircuit);
    }
    for (gate_index, gate) in circuit.iter().enumerate() {
        let expected = gate.kind.arity();
        if gate.qubits.len() != expected {
            return Err(CompileError::WrongOperandCount {
                gate_index,
                expected,
                got: gate.qubits.len(),
            });
        }
        for (i, &q) in gate.qubits.iter().enumerate() {
            if q >= circuit.n_qubits() {
                return Err(CompileError::QubitOutOfRange {
                    gate_index,
                    qubit: q,
                    n_qubits: circuit.n_qubits(),
                });
            }
            if gate.qubits[i + 1..].contains(&q) {
                return Err(CompileError::DuplicateOperands {
                    gate_index,
                    qubit: q,
                });
            }
        }
        if let GateKind::One(Q1Gate::Rx(a) | Q1Gate::Ry(a) | Q1Gate::Rz(a)) = gate.kind {
            if !a.is_finite() {
                return Err(CompileError::NonFiniteAngle { gate_index });
            }
        }
    }
    if !topology.is_connected() {
        return Err(CompileError::DisconnectedTopology {
            devices: topology.n_devices(),
        });
    }
    let needed = strategy.device_count(circuit.n_qubits());
    if topology.n_devices() < needed {
        return Err(CompileError::TopologyTooSmall {
            needed,
            available: topology.n_devices(),
        });
    }
    Ok(())
}

/// The fusion knobs for a compiler: the checked-in cost constants with
/// the options' block-span cap.
fn resolve_fuse_options(options: &CompileOptions) -> FuseOptions {
    let defaults = FuseOptions::default();
    FuseOptions {
        max_block_span: options.max_fused_span.unwrap_or(defaults.max_block_span),
        ..defaults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waltz_arch::Topology;
    use waltz_circuit::Gate;

    fn small_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).ccx(0, 1, 2);
        c
    }

    #[test]
    fn pipeline_records_every_pass_in_order() {
        let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
        let artifact = compiler.compile(&small_circuit()).unwrap();
        let passes: Vec<Pass> = artifact.reports().iter().map(|r| r.pass).collect();
        assert_eq!(passes, Pass::ALL.to_vec());
        for r in artifact.reports() {
            assert!(r.wall_ms >= 0.0, "{:?}", r.pass);
        }
        // Decompose expands the CCX; route adds ENC/DEC; fuse shrinks.
        let decompose = artifact.report(Pass::Decompose);
        assert!(decompose.ops_out >= decompose.ops_in);
        let route = artifact.report(Pass::Route);
        assert_eq!(route.diagnostic("enc_windows").unwrap(), "1");
        let fuse = artifact.report(Pass::Fuse);
        assert!(fuse.ops_out <= fuse.ops_in);
        assert_eq!(fuse.diagnostic("enabled").unwrap(), "true");
    }

    /// A CNU-style 6-qubit Toffoli ladder (the cnu-6q compute half).
    fn toffoli_ladder_6q() -> Circuit {
        let mut c = Circuit::new(6);
        c.ccx(0, 1, 3).ccx(2, 3, 4).ccx(2, 4, 5);
        c
    }

    #[test]
    fn analyze_demotes_mixed_radix_registers() {
        let circuit = toffoli_ladder_6q();
        let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
        let artifact = compiler.compile(&circuit).unwrap();
        let dims = artifact.timed.register.dims();
        assert!(
            dims.contains(&2),
            "cnu-6q mixed-radix must demote at least one device, got {dims:?}"
        );
        assert!(
            dims.contains(&4),
            "ENC hosts stay four-dimensional, got {dims:?}"
        );
        let analyze = artifact.report(Pass::Analyze);
        assert_eq!(analyze.diagnostic("demoted").unwrap(), "true");
        let bytes: usize = analyze.diagnostic("state_bytes").unwrap().parse().unwrap();
        let padded: usize = analyze
            .diagnostic("state_bytes_padded")
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(bytes, artifact.timed.register.state_bytes());
        assert_eq!(padded, 16 * 4usize.pow(6));
        assert!(bytes < padded, "demotion must shrink the state");
        assert!(artifact.timed.validate().is_ok());
        // Every scheduled unitary stays unitary after subspace restriction.
        for op in &artifact.timed.ops {
            assert!(op.unitary.is_unitary(1e-9), "{}", op.label);
        }
    }

    #[test]
    fn padded_registers_option_keeps_full_dimensions() {
        let circuit = toffoli_ladder_6q();
        let compiler = Compiler::with_options(
            Target::paper(Strategy::mixed_radix_ccz()),
            CompileOptions::default().with_padded_registers(),
        );
        let artifact = compiler.compile(&circuit).unwrap();
        assert!(artifact.timed.register.dims().iter().all(|&d| d == 4));
        let analyze = artifact.report(Pass::Analyze);
        assert_eq!(analyze.diagnostic("demoted").unwrap(), "false");
        assert_eq!(
            analyze.diagnostic("state_bytes").unwrap(),
            analyze.diagnostic("state_bytes_padded").unwrap()
        );
    }

    #[test]
    fn qubit_only_and_full_ququart_registers_unchanged_by_analyze() {
        let compiler = Compiler::new(Target::paper(Strategy::qubit_only()));
        let artifact = compiler.compile(&small_circuit()).unwrap();
        assert!(artifact.timed.register.dims().iter().all(|&d| d == 2));
        // The H wrapping the CCZ transform promotes the half-filled
        // device back to full dimension, so this circuit stays all-4 even
        // with slot-layout-seeded entry occupancy.
        let compiler = Compiler::new(Target::paper(Strategy::full_ququart()));
        let artifact = compiler.compile(&small_circuit()).unwrap();
        assert!(artifact.timed.register.dims().iter().all(|&d| d == 4));
    }

    #[test]
    fn full_ququart_entry_occupancy_demotes_half_filled_device() {
        // Three qubits on two devices: the lone qubit's device enters the
        // analysis at its slot-layout occupancy instead of full dimension
        // (the ROADMAP follow-up), and a CCZ-only circuit — diagonal
        // pulses keep every subspace closed — lets it stay demoted.
        let mut c = Circuit::new(3);
        c.ccz(0, 1, 2);
        let artifact = Compiler::new(Target::paper(Strategy::full_ququart()))
            .compile(&c)
            .unwrap();
        let dims = artifact.timed.register.dims();
        assert!(
            dims.iter().any(|&d| d < 4),
            "half-filled device must demote below 4, got {dims:?}"
        );
        assert!(dims.contains(&4), "packed device stays at 4");
        assert!(artifact.timed.validate().is_ok());
        for op in &artifact.timed.ops {
            assert!(op.unitary.is_unitary(1e-9), "{}", op.label);
        }
        // And the demoted register still simulates the circuit exactly.
        let noiseless = artifact
            .simulate()
            .with_noise(waltz_noise::NoiseModel::noiseless())
            .average_fidelity(5);
        assert!((noiseless.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn analyze_reports_windowed_segments_on_disjoint_enc_windows() {
        // Pure byte pricing: the default fixed term may merge cnu-6q's
        // split.
        let circuit = toffoli_ladder_6q();
        let compiler = Compiler::with_options(
            Target::paper(Strategy::mixed_radix_ccz()),
            CompileOptions::default().with_window_sweep_fixed(0),
        );
        let artifact = compiler.compile(&circuit).unwrap();
        let analyze = artifact.report(Pass::Analyze);
        assert_eq!(analyze.diagnostic("windowed").unwrap(), "true");
        let segments: usize = analyze.diagnostic("segments").unwrap().parse().unwrap();
        let reshapes: usize = analyze.diagnostic("reshapes").unwrap().parse().unwrap();
        assert!(segments > 1, "cnu-6q has disjoint ENC windows");
        assert_eq!(reshapes, segments - 1);
        let peak: usize = analyze
            .diagnostic("state_bytes_peak")
            .unwrap()
            .parse()
            .unwrap();
        let whole: usize = analyze.diagnostic("state_bytes").unwrap().parse().unwrap();
        assert!(peak < whole, "windowed peak {peak} !< whole {whole}");
        let mean: f64 = analyze
            .diagnostic("state_bytes_mean")
            .unwrap()
            .parse()
            .unwrap();
        assert!(mean <= peak as f64);
        assert_eq!(
            analyze
                .diagnostic("segment_dims")
                .unwrap()
                .split('|')
                .count(),
            segments
        );
        // The artifact carries the matching segmented schedule.
        assert_eq!(artifact.sim.n_segments(), segments);
        assert_eq!(artifact.sim.peak_state_bytes(), peak);
    }

    #[test]
    fn windowed_registers_can_be_disabled() {
        let circuit = toffoli_ladder_6q();
        let compiler = Compiler::with_options(
            Target::paper(Strategy::mixed_radix_ccz()),
            CompileOptions::default().with_windowed_registers(false),
        );
        let artifact = compiler.compile(&circuit).unwrap();
        assert!(!artifact.sim_schedule().is_split());
        let analyze = artifact.report(Pass::Analyze);
        assert_eq!(analyze.diagnostic("windowed").unwrap(), "false");
        assert_eq!(analyze.diagnostic("segments").unwrap(), "1");
        // Padded registers imply no windowing too.
        let padded = Compiler::with_options(
            Target::paper(Strategy::mixed_radix_ccz()),
            CompileOptions::default().with_padded_registers(),
        )
        .compile(&circuit)
        .unwrap();
        assert!(!padded.sim_schedule().is_split());
    }

    #[test]
    fn fusion_off_is_reported_and_skips_fusing() {
        let compiler = Compiler::with_options(
            Target::paper(Strategy::full_ququart()),
            CompileOptions::unfused(),
        );
        let artifact = compiler.compile(&small_circuit()).unwrap();
        assert_eq!(artifact.sim.len(), artifact.timed.len());
        let fuse = artifact.report(Pass::Fuse);
        assert_eq!(fuse.ops_in, fuse.ops_out);
        assert_eq!(fuse.diagnostic("enabled").unwrap(), "false");
    }

    #[test]
    fn option_overrides_pin_the_fuse_constants() {
        // The span cap is the one fusion knob the options carry; the cost
        // constants are the checked-in defaults in every process.
        let options = CompileOptions::default().with_max_fused_span(3);
        let compiler = Compiler::with_options(Target::paper(Strategy::qubit_only()), options);
        assert_eq!(compiler.fuse_options().sweep_overhead, 3);
        assert_eq!(compiler.fuse_options().sweep_fixed, 256);
        assert_eq!(compiler.fuse_options().max_block_span, 3);
        let artifact = compiler.compile(&small_circuit()).unwrap();
        for op in artifact.sim.segments.iter().flat_map(|s| &s.ops) {
            let span = op.noise_events.as_ref().map_or(1, Vec::len);
            assert!(span <= 3, "block spans {span} pulses");
        }
        // Unfused compilers report the same constants, so a fingerprint
        // never depends on whether a pass had to resolve them.
        let unfused = Compiler::with_options(
            Target::paper(Strategy::qubit_only()),
            CompileOptions::unfused(),
        );
        assert_eq!(*unfused.fuse_options(), FuseOptions::default());
    }

    #[test]
    fn duplicate_operands_are_rejected() {
        // Gate::new validates, but the fields are public: a malformed gate
        // is still constructible, so the pipeline must reject it politely.
        let mut c = Circuit::new(3);
        c.push(Gate {
            kind: GateKind::Ccx,
            qubits: vec![0, 0, 1],
        });
        let err = Compiler::new(Target::paper(Strategy::qubit_only()))
            .compile(&c)
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::DuplicateOperands {
                gate_index: 0,
                qubit: 0
            }
        );
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn wrong_operand_count_is_rejected() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.push(Gate {
            kind: GateKind::Cx,
            qubits: vec![1],
        });
        let err = Compiler::new(Target::paper(Strategy::full_ququart()))
            .compile(&c)
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::WrongOperandCount {
                gate_index: 1,
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn non_finite_angles_are_rejected() {
        let mut c = Circuit::new(2);
        c.one(Q1Gate::Rz(f64::NAN), 0);
        let err = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
            .compile(&c)
            .unwrap_err();
        assert_eq!(err, CompileError::NonFiniteAngle { gate_index: 0 });
    }

    #[test]
    fn disconnected_topology_is_rejected() {
        // heavy_hex(3, 2) has no bridge between rows 1 and 2: row 2 is
        // unreachable.
        let topo = Topology::heavy_hex(3, 2);
        assert!(!topo.is_connected());
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let err = Compiler::new(Target::paper(Strategy::qubit_only()).with_topology(topo))
            .compile(&c)
            .unwrap_err();
        assert!(matches!(err, CompileError::DisconnectedTopology { .. }));
    }

    #[test]
    fn compiler_fuse_cache_is_shared_across_compiles() {
        let compiler = Compiler::new(Target::paper(Strategy::qubit_only()));
        let first = compiler.compile(&small_circuit()).unwrap();
        let populated = compiler.fuse_cache.len();
        assert!(populated > 0, "fusing must memoize block products");
        let second = compiler.compile(&small_circuit()).unwrap();
        assert_eq!(
            compiler.fuse_cache.len(),
            populated,
            "recompiling the same circuit must hit the cache"
        );
        // Cache hits are bit-identical.
        let (a, b) = (&first.sim.segments[0], &second.sim.segments[0]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.unitary, y.unitary);
        }
    }

    #[test]
    fn batch_work_stealing_matches_sequential_on_skewed_batches() {
        // One big circuit first, many tiny ones after — the shape static
        // chunking handled worst (the big circuit's worker chunk also
        // held a share of the small ones).
        let mut circuits = Vec::new();
        let mut big = Circuit::new(8);
        for q in 2..8 {
            big.ccx(q - 2, q - 1, q);
        }
        for q in 0..8 {
            big.h(q);
        }
        circuits.push(big);
        for i in 0..12 {
            let mut c = Circuit::new(2);
            c.h(i % 2).cx(0, 1);
            circuits.push(c);
        }
        let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
        let batch = compiler.compile_batch(&circuits);
        assert_eq!(batch.len(), circuits.len());
        for (got, circuit) in batch.iter().zip(&circuits) {
            let want = compiler.compile(circuit).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(got.timed.len(), want.timed.len());
            assert_eq!(got.timed.register.dims(), want.timed.register.dims());
            assert_eq!(got.sim.len(), want.sim.len());
        }
    }

    #[test]
    fn batch_compiles_across_threads() {
        let circuits: Vec<Circuit> = (2..6)
            .map(|n| {
                let mut c = Circuit::new(n);
                c.h(0);
                for q in 1..n {
                    c.cx(q - 1, q);
                }
                c
            })
            .collect();
        let compiler = Compiler::new(Target::paper(Strategy::qubit_only()));
        let batch = compiler.compile_batch(&circuits);
        assert_eq!(batch.len(), circuits.len());
        for (artifact, circuit) in batch.iter().zip(&circuits) {
            let artifact = artifact.as_ref().unwrap();
            assert_eq!(artifact.initial_sites.len(), circuit.n_qubits());
        }
        assert!(compiler.compile_batch(&[]).is_empty());
    }
}
