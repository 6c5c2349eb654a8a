//! Mixed-dimension qudit simulation for the Quantum Waltz reproduction.
//!
//! * [`Register`] / [`State`] — state vectors over registers whose qudits
//!   may have different dimensions (bare qubits are 2-level, ququarts
//!   4-level), with efficient k-qudit unitary application.
//! * [`TimedCircuit`] — the scheduled hardware circuit the compiler emits:
//!   each op carries its unitary (already embedded to device dimensions),
//!   operand devices, start time, duration, calibrated fidelity **and a
//!   precomputed [`GateKernel`]**.
//! * [`kernel`] — the kernel-specialized gate engine (see below).
//! * [`ideal`] — noiseless execution.
//! * [`trajectory`] — the paper's modified trajectory method (§6.4):
//!   before each gate, each operand is amplitude-damped for the *exact*
//!   time it has been idle; after each gate a generalized-Pauli error is
//!   drawn with probability `1 - F_gate` (§6.5). A damping step draws
//!   its uniform first and reads the state only when that roll could
//!   be a jump; otherwise it multiplies its no-jump factors into
//!   per-qudit factors, which the next op on the qudit folds into its
//!   own coefficients (no pass of their own), and the trajectory
//!   normalizes once at its end (see the [`trajectory`] module docs).
//! * [`trajectory::Estimator`] — the one Monte-Carlo fidelity estimate
//!   over a [`Schedule`], dense or density-adaptive, plain or
//!   health-supervised, on the [`TrajectoryPool`]. It scores each
//!   trajectory against a [`trajectory::LogicalReference`] (the source
//!   program on its own `2^n` amplitudes, read out through placement
//!   maps) when it has one, and against a noiseless replay of the
//!   schedule otherwise.
//!
//! # The kernel layer
//!
//! The paper's compiled circuits are dominated by structured gates:
//! CZ/CCZ and phase gates are diagonal, X/CX/CCX and routing swaps are
//! (phased) permutations of the computational basis. [`TimedOp::new`]
//! classifies each unitary **once** into a [`GateKernel`]
//! (`Identity` / `Diagonal` / `Permutation` / `SingleQudit` / `TwoQudit` /
//! `GeneralDense`), and [`State::apply_op`] dispatches to a specialized
//! apply path:
//!
//! * diagonal gates become a pure phase sweep (no scratch block, no
//!   matvec);
//! * permutations become in-place index remaps along precomputed cycles;
//! * small dense blocks run through unrolled stride-aware loops on stack
//!   buffers.
//!
//! Scratch that cannot live on the stack is borrowed from a reusable
//! [`Workspace`], so the trajectory hot loop performs no per-gate heap
//! allocation. [`State::apply_unitary`] remains the independent generic
//! dense reference path that every kernel is tested against (≤ 1e-12).
//!
//! # Gate fusion (gather-once/apply-many)
//!
//! [`TimedCircuit::fuse`] batches the schedule before simulation: runs of
//! adjacent ops supported on the same ≤2-qudit operand set are multiplied
//! into one dense block at schedule time and re-classified through the
//! [`GateKernel`] probes (a run of diagonals fuses back to a diagonal).
//! Each fused block keeps one [`NoiseEvent`] per original pulse, so the
//! trajectory method still draws each pulse's error and damps each
//! device's exact idle and busy time. Noiselessly a fused program is the
//! unfused one (pinned at 1e-12). Under noise it is an approximation: a
//! block damps idle time before its one unitary and busy time and Pauli
//! draws after it, a bias [`TimedCircuit::fuse`] quantifies (ROADMAP.md
//! item 2).
//!
//! # SIMD dispatch & the trajectory pool
//!
//! Every sweep body exists in two forms: a portable scalar loop (always
//! compiled, the parity reference) and an explicit AVX2+FMA form in
//! [`simd`] working on 256-bit lanes over the interleaved complex
//! layout. One [`SimdLevel`] picks between them at run time; detection
//! order is
//!
//! 1. the `WALTZ_SIMD` environment variable (`0`/`off`/`scalar` forces
//!    the scalar bodies),
//! 2. `is_x86_feature_detected!("avx2")` **and** `("fma")` on x86_64,
//! 3. scalar everywhere else.
//!
//! The level is probed once per process, stored per [`Workspace`], and
//! overridable per workspace with [`Workspace::set_simd_level`] (requests
//! for unavailable levels clamp to scalar). Both forms walk the same
//! run-major sweep (see the [`kernel`] module docs); the vector arms
//! take each run two consecutive configurations at a time along the
//! innermost stride-1 non-operand qudit — see the [`simd`] module docs —
//! and fall back to the scalar body whenever no pairing exists, so
//! results never depend on shape-specific support.
//!
//! A sweep always runs on the caller's thread. The parallelism is the
//! persistent [`TrajectoryPool`] (`WALTZ_TRAJ_THREADS` caps its
//! workers): the paper's estimates are ensembles of small independent
//! trajectories (64–256 amplitudes for cnu-6q), so one trajectory per
//! worker keeps every core busy where splitting one sweep across threads
//! would not pay. Workers steal trajectory indices one at a time, every
//! trajectory derives its RNG seed from its *global* index, and each
//! worker reuses one `Workspace` + state buffers across trajectories —
//! so for a fixed seed the estimate is bit-identical no matter the
//! thread count, including the pure serial path.
//!
//! # State representations (dense vs sparse)
//!
//! The engine has two state representations behind one interface:
//!
//! * **Dense** — [`State`], one amplitude per basis state (16 bytes
//!   each), SIMD sweeps. The reference representation.
//! * **Sparse** — [`SparseState`], a sorted `(index, amplitude)` map
//!   holding only nonzero amplitudes (24 bytes per entry), with
//!   kernel-specialized arms: diagonal gates phase the stored entries
//!   in place, permutations remap indices and re-sort, and dense blocks
//!   gather each populated operand-stride coset into a stack buffer and
//!   run the *same scalar matvec form* as the dense sweep — so with
//!   truncation epsilon `0` the sparse arms are bit-identical to the
//!   scalar dense path on every nonzero amplitude.
//!
//! [`AdaptiveState`] switches between them per trajectory: it starts
//! sparse and densifies when the population density `nnz/amps` crosses
//! [`Workspace::sparse_density_threshold`]
//! ([`sparse::DEFAULT_SPARSE_DENSITY_THRESHOLD`] by default), and at
//! reshape/segment boundaries — where every amplitude is re-scanned
//! anyway — a dense state whose surviving population fits back under
//! the threshold is rebuilt sparse. Knobs: `WALTZ_SPARSE=0` forces the
//! dense path everywhere (mirrors `WALTZ_SIMD=0`);
//! [`Workspace::set_sparse_density_threshold`] and
//! [`Workspace::set_sparse_epsilon`] tune the switch point and the
//! truncation epsilon (nonzero epsilon trades norm for entry count and
//! is *not* lossless). Every runner is generic over the
//! [`trajectory::Representation`]: a `Session<AdaptiveState>`
//! ([`Session::adaptive`]) and an adaptive [`trajectory::Estimator`]
//! ([`trajectory::Estimator::adaptive`]) run the dense engine's per-op
//! noise loop and consume identical RNG streams, so for a fixed seed an
//! estimate is invariant under the representation path and the pool
//! width. Classical basis inputs through
//! Toffoli-ladder/qram-style circuits stay at a handful of entries
//! inside registers far past dense reach — the sparse map is what lets
//! 20+ qubit mixed-radix programs run inside a 256 MiB budget.
//!
//! # Windowed registers (segmented schedules)
//!
//! A [`SegmentedCircuit`] is a schedule cut at the points where a
//! device's *occupied* dimension changes (mixed-radix `ENC`/`DEC`
//! boundaries): each segment carries its own [`Register`], so a host
//! device is four-dimensional only while its window is open instead of
//! pinning the whole program's state size. Between segments the
//! simulator performs one in-flight [`State::reshape_into`] — an
//! expand/clip that preserves amplitude labels and asserts (at
//! [`RESHAPE_LEAK_TOL`]) that clipped levels were provably unpopulated.
//! Trailing qudits whose dimension the boundary keeps map contiguous
//! runs of amplitudes onto contiguous runs, so a reshape is a sequence of
//! run copies rather than a per-amplitude index decomposition.
//! Every runner takes a [`Schedule`], the borrowed view both a
//! [`TimedCircuit`] (one segment) and a [`SegmentedCircuit`] convert
//! into without copying: [`ideal::run`], [`trajectory::run_trajectory`],
//! [`Session`] and [`trajectory::Estimator`]. A run threads one
//! per-device busy timeline through every segment, so noise accounting
//! is identical to the single-register engine, and rolls the state
//! through a second buffer only when the schedule is split; fusion runs
//! per segment ([`SegmentedCircuit::fuse_with`]) and never crosses
//! a reshape boundary.
//!
//! # Example
//!
//! ```
//! use waltz_sim::{Register, State};
//! use waltz_math::C64;
//!
//! // One ququart next to one qubit.
//! let reg = Register::new(vec![4, 2]);
//! let mut state = State::zero(&reg);
//! assert_eq!(state.amplitudes().len(), 8);
//! assert!(state.probability_of(0) > 0.99);
//! ```

#![warn(missing_docs)]

mod damping;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod register;
mod session;
mod state;
mod timed;
mod wire;

pub mod ideal;
pub mod kernel;
pub mod pool;
pub mod simd;
pub mod sparse;
pub mod trajectory;

pub use kernel::{GateKernel, Workspace};
pub use pool::TrajectoryPool;
pub use register::Register;
pub use session::Session;
pub use simd::SimdLevel;
pub use sparse::{
    sparse_enabled, AdaptiveState, SparsePolicy, SparseState, DEFAULT_SPARSE_DENSITY_THRESHOLD,
};
pub use state::{State, RESHAPE_LEAK_TOL};
pub use timed::{FuseOptions, NoiseEvent, Schedule, SegmentedCircuit, TimedCircuit, TimedOp};
