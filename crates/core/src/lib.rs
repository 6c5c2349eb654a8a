//! **The Quantum Waltz compiler** — the paper's primary contribution (§5).
//!
//! The public API is two owning types:
//!
//! * [`Target`] bundles the machine — a [`Strategy`], a calibrated
//!   [`waltz_gates::GateLibrary`], a [`waltz_arch::Topology`] (auto-sized
//!   to the paper's 2D mesh by default, §6.2) and the noise environment.
//! * [`Compiler`] is built once from a `Target` + [`CompileOptions`] and
//!   reused: [`Compiler::compile`] drives the explicit pass pipeline,
//!   [`Compiler::compile_batch`] fans a workload of circuits across
//!   threads.
//!
//! The pipeline (one [`PassReport`] recorded per stage):
//!
//! 1. [`Pass::Decompose`] — expand the logical circuit to the native set —
//!    `CX`, `CZ`, `SWAP`, single-qubit rotations, and the three-qubit
//!    `CCX`/`CCZ`/`CSWAP` — applying the strategy's transform (8-CX
//!    expansion, CCX→CCZ, CSWAP orientation, Hadamard retargeting).
//! 2. [`Pass::Map`] — place logical qubits onto the strategy's
//!    interaction graph using the §5.2 lookahead weights
//!    (`w(i,j) = Σ_t o(i,j,t)/t`): heaviest qubit at the centre device,
//!    greedy weighted placement after.
//! 3. [`Pass::Route`] — bring operands into an executable configuration
//!    with the cheapest swaps (internal swaps ≪ inter-device swaps), then
//!    emit the best calibrated pulse configuration — controls together
//!    for `CCX`, targets together for `CSWAP`, target-independent `CCZ`
//!    whenever allowed (§4.2, §5.1).
//! 4. [`Pass::Analyze`] — level-occupancy analysis of the routed
//!    program: a forward support analysis bounds the highest level each
//!    device ever populates and demotes devices that provably never
//!    leave their qubit subspace to dimension 2 (gates calibrated on a
//!    larger space are restricted to the occupied sub-block, verified
//!    closed and unitary). The paper pinned every mixed-radix device to
//!    four levels and hit a 12-qubit simulation wall; with demotion only
//!    ENC hosts stay four-dimensional, so a cnu-6q mixed-radix register
//!    shrinks 4096 → 256 amplitudes and larger sizes open up whenever
//!    the heterogeneous register fits the byte budget. The analysis is
//!    then **time-sliced** ([`HwProgram::window_registers`]): the
//!    program is cut wherever a device's occupied dimension changes
//!    (the ENC/DEC window boundaries), each segment gets its own
//!    register, and the state is reshaped in flight at each boundary —
//!    so a host is four-dimensional only *while its window is open*,
//!    compounding the demotion win on programs with disjoint windows. A
//!    cost model keeps a boundary only when the smaller registers save
//!    more sweep-bytes than the reshape copy costs. The [`PassReport`]
//!    records the per-device dims (`dims`, `dim2_devices`,
//!    `dim4_devices`), the state bytes with and without demotion
//!    (`state_bytes`, `state_bytes_padded`), and the windowed
//!    segmentation (`windowed`, `segments`, `reshapes`, `segment_dims`,
//!    `state_bytes_peak`, `state_bytes_mean`). Opt out per compile with
//!    [`CompileOptions::with_padded_registers`] /
//!    [`CompileOptions::with_windowed_registers`]; the `radix_parity`
//!    and `window_parity` suites pin both refinements at 1e-12
//!    noiselessly and within one standard error under the trajectory
//!    noise model.
//! 5. [`Pass::Schedule`] — ASAP, tracking per-device busy/idle windows,
//!    producing the hardware schedule ([`CompiledCircuit::timed`], a
//!    [`waltz_sim::TimedCircuit`] over the (possibly heterogeneous)
//!    register) — plus, when the analysis kept more than one window,
//!    the windowed segments on the same timeline with per-window
//!    registers ([`HwProgram::schedule_windowed`]; `timed` is its
//!    one-window case).
//! 6. [`Pass::Fuse`] — build the one simulation schedule
//!    ([`CompiledCircuit::sim`], a [`waltz_sim::SegmentedCircuit`]: the
//!    windowed segments, or `timed` as one segment) and fuse it once,
//!    per segment, with the gate-fusion pass (checked-in cost
//!    constants, optional block-span cap). Every estimate, serial run
//!    and remote simulate runs this schedule through
//!    [`CompiledCircuit::sim_schedule`]; the Fuse and Lower reports
//!    count its ops. Block products are memoized in a compiler-wide
//!    [`waltz_sim::FuseCache`], so batches of structurally similar
//!    circuits multiply each repeated block shape once.
//! 7. [`Pass::Lower`] — the coherence-span timeline the EPS model
//!    consumes (§6.3) and aggregate statistics, assembled into a
//!    [`CompileArtifact`].
//!
//! Three regimes are supported, matching the paper's comparison points:
//! qubit-only (8-CX or iToffoli baselines), intermediate mixed-radix
//! (temporary `ENC`/`DEC` around each three-qubit gate) and full-ququart
//! (two qubits per device at all times).
//!
//! # Supervised batches
//!
//! For workloads where one bad circuit must not cost the other
//! thousand, wrap the compiler in a [`Supervisor`]: every job runs under
//! `catch_unwind` (a panic in any pass becomes
//! [`CompileError::Internal`] for that job alone), an optional per-job
//! deadline turns runaways into [`CompileError::DeadlineExceeded`], and
//! a live state-byte budget walks over-large registers down a
//! degradation ladder — forced windowing, then the whole-program demoted
//! register — before rejecting with [`CompileError::OverBudget`]. Each
//! job yields a [`JobReport`] with a [`JobStatus`], the
//! [`Degradation`] rung that produced its artifact, and wall-clock time;
//! see `examples/supervised_batch.rs` for the batch-submission idiom.
//! The matching simulation-side guards (NaN/norm quarantine and
//! early-stop, [`waltz_sim::trajectory::HealthPolicy`]) are reachable
//! via [`Simulation::average_fidelity_supervised`], or
//! [`waltz_sim::trajectory::Estimator::supervised`] on
//! [`CompiledCircuit::estimator`]. The whole failure
//! surface is exercised deterministically by the `fault-inject` feature
//! (the `fault` module, compiled out entirely when disabled).
//!
//! # Example
//!
//! ```
//! use waltz_core::{Compiler, Strategy, Target};
//! use waltz_circuit::Circuit;
//!
//! let mut c = Circuit::new(3);
//! c.h(0).ccx(0, 1, 2);
//! let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
//! let out = compiler.compile(&c).unwrap();
//! assert!(out.timed.validate().is_ok());
//! assert!(out.timed.gate_eps() > 0.9);
//! // End-to-end: simulated fidelity in one chain.
//! let estimate = out.simulate().average_fidelity(20);
//! assert!(estimate.mean > 0.5);
//! ```
//!
//! # Persistence & caching
//!
//! Every artifact in the chain — [`waltz_circuit::Circuit`],
//! [`waltz_sim::TimedCircuit`], [`CompiledCircuit`], [`PassReport`], the
//! full [`CompileArtifact`] — implements the [`waltz_codec`] wire format:
//! a self-contained, versioned binary encoding
//! ([`waltz_codec::encode_versioned`] /
//! [`waltz_codec::decode_versioned`]) with a stable 64-bit content hash
//! ([`waltz_codec::content_hash`]) over the canonical bytes. Derived
//! state (gate kernels, register strides) is recomputed on decode, never
//! stored, and encode→decode→re-encode is byte-identical — pinned by the
//! `codec_roundtrip` suite.
//!
//! **Format versioning policy.** The format carries a magic and
//! [`waltz_codec::CODEC_VERSION`]; decoding rejects any other version
//! rather than guessing. Any change to an encoding — field order, a new
//! field, a widened type — must bump `CODEC_VERSION` and regenerate the
//! matching `tests/golden/codec_v<N>.bin` fixture (CI gates on the pair
//! moving together). There is no in-place migration: a store written by
//! an older version simply misses and recompiles.
//!
//! **Fingerprints.** [`Target::fingerprint`] hashes the strategy, gate
//! library, topology spec and noise model over their wire encodings;
//! [`Compiler::fingerprint`] folds in the compile options and the
//! *resolved* cost-model constants (fuse constants, window pricing).
//! Those constants are checked in ([`waltz_sim::FuseOptions::default`]),
//! never measured at run time, so a default compiler has the same
//! fingerprint in every process and a disk store written before a
//! restart hits after it; a later change to the constants still changes
//! every key. Stability rules: a fingerprint is a pure function of wire
//! bytes — stable across process restarts and rebuilds, changed exactly
//! when a compilation-relevant field (or `CODEC_VERSION` itself)
//! changes.
//!
//! **The artifact cache.** [`ArtifactCache`] stores versioned artifact
//! bytes keyed on `(circuit content hash, compiler fingerprint)` in an
//! in-memory LRU tier plus an optional one-file-per-key on-disk store
//! ([`ArtifactCache::with_disk_dir`]). Attach one via
//! [`Compiler::with_artifact_cache`] and repeat compilations replay the
//! stored artifact — skipping all seven passes, marked via
//! [`CompileArtifact::is_cached`] / [`JobReport::cached`] — while still
//! passing the supervisor's live byte-budget gate. Every hit decodes
//! from bytes, so a cache-loaded artifact simulates bit-identically to a
//! fresh compile (1e-12, pinned by `tests/artifact_cache.rs`) and the
//! same guarantee holds for a store written by another process — which
//! a default compiler in a fresh process finds under its own key.
//!
//! # Serving
//!
//! Everything above also runs across a network boundary: the
//! `waltz_serve` crate frames the wire format over TCP and fronts the
//! [`Supervisor`] remotely — batches submitted by a client are compiled
//! by the same worker pool, share one [`ArtifactCache`] across every
//! connection, and stream back [`JobReport`]s element-wise identical
//! to an in-process [`Compiler::compile_batch`]. Failed jobs surface
//! as typed error frames carrying the original [`CompileError`], so
//! remote callers keep the full supervised-failure vocabulary
//! (deadline, budget, panic isolation) without linking the compiler.

#![warn(missing_docs)]

mod artifact;
mod cache;
mod compile;
mod hwprog;
mod layout;
mod lower;
mod mapping;
mod pipeline;
mod strategy;
mod supervisor;
mod target;
mod wire;

pub mod eps;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod verify;

pub use artifact::{CompileArtifact, Simulation};
pub use cache::{ArtifactCache, CacheStats};
pub use compile::{CompileError, CompileStats, CompiledCircuit};
pub use eps::{CoherenceSpan, EpsBreakdown};
pub use hwprog::{HwProgram, RegisterWindow};
pub use layout::Layout;
pub use pipeline::{Compiler, Pass, PassReport};
pub use strategy::{CompileOptions, FqCswapMode, Fusion, MrCcxMode, QubitCcxMode, Strategy};
pub use supervisor::{Degradation, JobReport, JobStatus, Supervisor, SupervisorPolicy};
pub use target::{Target, TopologySpec};
