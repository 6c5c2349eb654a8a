//! # Quantum Waltz
//!
//! A full Rust reproduction of *Dancing the Quantum Waltz: Compiling
//! Three-Qubit Gates on Four Level Architectures* (ISCA 2023).
//!
//! Two qubits compress into one four-level transmon (*ququart*), turning a
//! three-qubit gate into a pulse across just two physical devices. This
//! workspace implements the complete stack the paper builds on:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`math`] | complex dense linear algebra (LU, QR, Padé `expm`) |
//! | [`gates`] | the calibrated qubit/mixed-radix/full-ququart gate library (Tables 1–2) |
//! | [`circuit`] | logical circuit IR and three-qubit decompositions (Fig. 6) |
//! | [`arch`] | device topologies and the qubits-on-ququarts interaction graph |
//! | [`noise`] | generalized-Pauli depolarizing + amplitude damping channels (§6.5) |
//! | [`sim`] | mixed-radix state vectors, the kernel-specialized gate engine (diagonal / permutation / small-dense apply paths chosen per gate at compile time) and the trajectory-method simulator (§6.4) |
//! | [`pulse`] | GRAPE optimal control against the Eq. 2 transmon Hamiltonian |
//! | [`rb`] | randomized benchmarking on the encoded ququart (Fig. 2) |
//! | [`circuits`] | CNU / Cuccaro / QRAM / Select / synthetic benchmarks (§6.1) |
//! | [`codec`] | the versioned wire format and content hashing behind persistent artifacts |
//! | [`core`] | **the Quantum Waltz compiler** (§5): mapping, routing, configuration selection, scheduling, EPS |
//! | [`serve`] | the networked compile-and-simulate service: framed TCP protocol, supervised server, streaming client |
//!
//! # Quickstart
//!
//! A [`core::Target`] bundles the machine (strategy, gate library,
//! topology, noise); a [`core::Compiler`] built from it drives the pass
//! pipeline and is reused across circuits. The returned
//! [`core::CompileArtifact`] carries per-pass reports and simulates
//! itself:
//!
//! ```
//! use quantum_waltz::prelude::*;
//!
//! // A Toffoli-heavy circuit.
//! let circuit = quantum_waltz::circuits::generalized_toffoli(3);
//!
//! // Compile it two ways and compare expected success probabilities.
//! let qubit_only = Compiler::new(Target::paper(Strategy::qubit_only()))
//!     .compile(&circuit)
//!     .unwrap();
//! let full_quart = Compiler::new(Target::paper(Strategy::full_ququart()))
//!     .compile(&circuit)
//!     .unwrap();
//! assert!(full_quart.eps().total() > qubit_only.eps().total());
//!
//! // Trajectory-method fidelity in one chain (§6.4).
//! let estimate = full_quart.simulate().average_fidelity(20);
//! assert!(estimate.mean > 0.5);
//! ```
//!
//! Batches fan across threads with [`core::Compiler::compile_batch`],
//! and compiled artifacts persist: every stage of the chain implements
//! the [`codec`] wire format, and a [`core::ArtifactCache`] attached via
//! [`core::Compiler::with_artifact_cache`] replays repeat compilations
//! from their stored encodings — see the `waltz_core` crate docs'
//! "Persistence & caching" section.
//!
//! # Serving
//!
//! The whole chain also runs across a network boundary: [`serve`]
//! frames the [`codec`] wire format over TCP and fronts the same
//! supervised batch engine remotely. A [`serve::Server`] binds a
//! listener over any compiler (sharing one [`core::ArtifactCache`]
//! across every connection), and a [`serve::ServeClient`] submits
//! batches, streams per-job reports, and simulates compiled artifacts
//! server-side — results are element-wise identical to calling
//! [`core::Compiler::compile_batch`] in process. See the `waltz_serve`
//! crate docs and `examples/serve_demo.rs`.

#![warn(missing_docs)]

pub use waltz_arch as arch;
pub use waltz_circuit as circuit;
pub use waltz_circuits as circuits;
pub use waltz_codec as codec;
pub use waltz_core as core;
pub use waltz_gates as gates;
pub use waltz_math as math;
pub use waltz_noise as noise;
pub use waltz_pulse as pulse;
pub use waltz_rb as rb;
pub use waltz_serve as serve;
pub use waltz_sim as sim;

/// The most common imports for working with the compiler end to end.
pub mod prelude {
    pub use waltz_circuit::Circuit;
    pub use waltz_core::{
        ArtifactCache, CompileArtifact, CompileOptions, CompiledCircuit, Compiler, FqCswapMode,
        MrCcxMode, Pass, PassReport, Simulation, Strategy, Target,
    };
    pub use waltz_gates::GateLibrary;
    pub use waltz_noise::{CoherenceModel, NoiseModel};
    pub use waltz_serve::{ServeClient, Server, ServerConfig};
    pub use waltz_sim::trajectory::Estimator;
}
