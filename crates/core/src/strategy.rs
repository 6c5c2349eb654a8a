//! Compilation strategies: the paper's comparison points (§5.1, §6.2),
//! plus the lowering options that are orthogonal to the strategy choice
//! ([`Fusion`], [`CompileOptions`]).

/// Whether the compiler batches the scheduled pulse stream for the
/// simulator with the gate-fusion pass
/// ([`waltz_sim::TimedCircuit::fuse`]).
///
/// Fusion multiplies runs of adjacent pulses supported on the same
/// ≤2-qudit operand set into single dense blocks at schedule time
/// (gather-once/apply-many, SU(4) block compilation in the spirit of
/// Zulehner & Wille), then re-classifies each block through the
/// [`waltz_sim::GateKernel`] probes so structured runs keep their cheap
/// apply paths. The fused schedule is the artifact's simulation
/// schedule ([`crate::CompiledCircuit::sim`], fused per segment) next to
/// the untouched hardware schedule: gate EPS, pulse statistics and the
/// coherence timeline are always computed from the real pulses, while
/// every simulation runs the fused program
/// ([`crate::CompiledCircuit::sim_schedule`]). Fused blocks replay their
/// constituents' error channels per pulse
/// ([`waltz_sim::NoiseEvent`]), so noiseless outputs are bit-compatible
/// (pinned at 1e-12 by the fusion parity suite) and noisy estimates are
/// statistically equivalent: per-pulse error probabilities and
/// per-device damping times are preserved exactly, while individual
/// trajectory draws differ because the engines consume the RNG in
/// different orders and a block's interior noise is replayed around one
/// unitary apply. (Measured on cnu-6q at 4000 trajectories, fused and
/// unfused means agree within one standard error for all three
/// strategies.)
///
/// Fusing is the default: it is a simulation-side optimization only.
/// Turn it off to benchmark the unfused engine or to force exact
/// pulse-by-pulse noise interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fusion {
    /// Simulate the schedule pulse by pulse.
    Off,
    /// Fuse adjacent ops into ≤2-qudit dense blocks (the default).
    #[default]
    TwoQudit,
}

/// Lowering options orthogonal to the [`Strategy`] choice, consumed by
/// [`crate::Compiler::with_options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Gate-fusion mode for the simulation schedule.
    pub fusion: Fusion,
    /// Cap on the number of constituent pulses a fused block may absorb
    /// ([`waltz_sim::FuseOptions::max_block_span`]), for workloads that
    /// need tighter noise interleaving than whole-run replay. `None`
    /// leaves the span unbounded; `Some(1)` disables fusion's merging
    /// while keeping the pass in the pipeline.
    pub max_fused_span: Option<usize>,
    /// Skip the occupancy demotion of the analyze pass and model every
    /// device at its full physical dimension (the pre-occupancy
    /// behaviour: mixed-radix registers allocate `4^n` amplitudes even
    /// when most devices never leave the qubit subspace). The default,
    /// `false`, shrinks the simulated register to the occupied
    /// dimensions — noiselessly bit-identical, exponentially smaller
    /// (pinned by the `radix_parity` suite).
    pub padded_registers: bool,
    /// Time-slice the occupancy analysis: cut the program at the points
    /// where a device's occupied dimension changes (`ENC`/`DEC` window
    /// boundaries) and simulate each segment on its own register,
    /// reshaping the state in flight at each boundary
    /// ([`waltz_sim::SegmentedCircuit`]). On by default — a cost model
    /// only keeps boundaries whose smaller registers save more
    /// sweep-bytes than the reshape copy costs, so programs without
    /// worthwhile windows fall back to the whole-program register
    /// automatically. Disable via
    /// [`CompileOptions::with_windowed_registers`] to pin the PR 4
    /// whole-program-demotion behaviour (parity pinned by the
    /// `window_parity` suite); [`CompileOptions::padded_registers`]
    /// implies no windowing.
    pub windowed_registers: bool,
    /// Override for the windowed-register cost model's fixed per-sweep
    /// term: splitting the program costs two extra sweeps per boundary
    /// (the reshape's read and write), each priced at this many
    /// amplitude-multiplies on top of its amplitude count. `None` (the
    /// default) reuses the fusion cost model's checked-in
    /// [`waltz_sim::FuseOptions::sweep_fixed`] — per-sweep overhead is
    /// the same quantity in both models — which stops short windows
    /// (e.g. cnu-6q's) from splitting when the reshape's fixed costs
    /// outweigh the byte savings. `Some(0)` restores the pure
    /// byte-seconds balance.
    pub window_sweep_fixed: Option<usize>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            fusion: Fusion::default(),
            max_fused_span: None,
            padded_registers: false,
            windowed_registers: true,
            window_sweep_fixed: None,
        }
    }
}

impl CompileOptions {
    /// Options with fusion disabled — the PR 1 pulse-by-pulse behaviour.
    pub fn unfused() -> Self {
        CompileOptions {
            fusion: Fusion::Off,
            ..CompileOptions::default()
        }
    }

    /// Caps fused-block span at `span` constituent pulses.
    pub fn with_max_fused_span(mut self, span: usize) -> Self {
        self.max_fused_span = Some(span);
        self
    }

    /// Keeps every device at its full physical dimension instead of
    /// demoting to the occupancy analysis result — for benchmarking the
    /// padded engine or pinning parity against it. Implies no windowed
    /// registers.
    pub fn with_padded_registers(mut self) -> Self {
        self.padded_registers = true;
        self
    }

    /// Enables (`true`, the default) or disables (`false`) the windowed
    /// register analysis. Disabled, the simulated register is the PR 4
    /// whole-program demotion: one register sized to each device's
    /// lifetime-maximum occupancy, no in-flight reshapes.
    pub fn with_windowed_registers(mut self, enabled: bool) -> Self {
        self.windowed_registers = enabled;
        self
    }

    /// Pins the windowed-register cost model's fixed per-sweep term
    /// instead of reusing the fusion constant (see
    /// [`CompileOptions::window_sweep_fixed`]); `0` restores the pure
    /// byte-seconds balance with no fixed reshape cost.
    pub fn with_window_sweep_fixed(mut self, fixed: usize) -> Self {
        self.window_sweep_fixed = Some(fixed);
        self
    }
}

/// How a qubit-only compilation executes Toffolis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QubitCcxMode {
    /// Decompose every three-qubit gate into the 8-CX nearest-neighbour
    /// expansion (the paper's primary baseline, §5.1.1).
    EightCx,
    /// Execute a native three-qubit iToffoli pulse (912 ns, 99 %) with the
    /// CS† correction of Fig. 6d, retargeting so the target sits between
    /// the controls (§6.2).
    IToffoli,
}

/// How a mixed-radix compilation prepares Toffolis (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MrCcxMode {
    /// Use whichever tabulated CCX configuration the routed layout offers.
    Raw,
    /// Hadamard-retarget so both controls encode together (Fig. 6b).
    Retarget,
    /// Transform CCX into the target-independent CCZ (Fig. 6c) — the
    /// paper's best mixed-radix strategy.
    CczTransform,
}

/// How full-ququart compilation handles CSWAP gates (§7.1, Fig. 9a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FqCswapMode {
    /// Expand CSWAP through CCX/CCZ like any other gate.
    Decompose,
    /// Keep native CSWAP pulses, using whatever configuration the layout
    /// offers ("basic").
    Native,
    /// Keep native CSWAP pulses and spend internal swaps to co-locate the
    /// two targets — the paper's best variant ("targets together").
    NativeOriented,
}

/// A complete compilation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Two-level devices only.
    QubitOnly {
        /// Toffoli handling.
        ccx: QubitCcxMode,
    },
    /// Bare devices with temporary ENC/DEC windows around three-qubit
    /// gates (§5.1.2).
    MixedRadix {
        /// Toffoli handling.
        ccx: MrCcxMode,
        /// Keep CSWAPs as native mixed-radix pulses instead of expanding
        /// them (the §7.1 case study).
        native_cswap: bool,
    },
    /// Two qubits per ququart at all times (§5.1.3).
    FullQuquart {
        /// Replace CCX with the fast target-independent CCZ.
        use_ccz: bool,
        /// CSWAP handling (Fig. 9a).
        cswap: FqCswapMode,
    },
}

impl Strategy {
    /// Qubit-only with the 8-CX Toffoli expansion.
    pub fn qubit_only() -> Self {
        Strategy::QubitOnly {
            ccx: QubitCcxMode::EightCx,
        }
    }

    /// Qubit-only with the native iToffoli pulse.
    pub fn qubit_only_itoffoli() -> Self {
        Strategy::QubitOnly {
            ccx: QubitCcxMode::IToffoli,
        }
    }

    /// Mixed-radix, raw CCX configurations.
    pub fn mixed_radix_raw() -> Self {
        Strategy::MixedRadix {
            ccx: MrCcxMode::Raw,
            native_cswap: false,
        }
    }

    /// Mixed-radix with Hadamard retargeting.
    pub fn mixed_radix_retarget() -> Self {
        Strategy::MixedRadix {
            ccx: MrCcxMode::Retarget,
            native_cswap: false,
        }
    }

    /// Mixed-radix with the CCZ transform — the paper's best mixed-radix
    /// compilation.
    pub fn mixed_radix_ccz() -> Self {
        Strategy::MixedRadix {
            ccx: MrCcxMode::CczTransform,
            native_cswap: false,
        }
    }

    /// Full-ququart with the CCZ transform — the paper's best strategy.
    pub fn full_ququart() -> Self {
        Strategy::FullQuquart {
            use_ccz: true,
            cswap: FqCswapMode::Decompose,
        }
    }

    /// Human-readable name used by the benchmark harness.
    pub fn name(&self) -> String {
        match self {
            Strategy::QubitOnly {
                ccx: QubitCcxMode::EightCx,
            } => "Qubit-Only (8CX)".into(),
            Strategy::QubitOnly {
                ccx: QubitCcxMode::IToffoli,
            } => "Qubit-Only iToffoli".into(),
            Strategy::MixedRadix { ccx, native_cswap } => {
                let base = match ccx {
                    MrCcxMode::Raw => "Mixed-Radix (raw CCX)",
                    MrCcxMode::Retarget => "Mixed-Radix (H-retarget)",
                    MrCcxMode::CczTransform => "Mixed-Radix (CCZ)",
                };
                if *native_cswap {
                    format!("{base} + native CSWAP")
                } else {
                    base.into()
                }
            }
            Strategy::FullQuquart { use_ccz, cswap } => {
                let base = if *use_ccz {
                    "Full-Ququart (CCZ)"
                } else {
                    "Full-Ququart (CCX)"
                };
                match cswap {
                    FqCswapMode::Decompose => base.into(),
                    FqCswapMode::Native => format!("{base} + native CSWAP"),
                    FqCswapMode::NativeOriented => format!("{base} + oriented CSWAP"),
                }
            }
        }
    }

    /// Whether devices are simulated as 4-level transmons (§6.4: mixed
    /// radix "must be modeled as if entirely on ququarts").
    pub fn uses_ququarts(&self) -> bool {
        !matches!(self, Strategy::QubitOnly { .. })
    }

    /// Number of physical devices needed for `n_qubits` logical qubits.
    pub fn device_count(&self, n_qubits: usize) -> usize {
        match self {
            Strategy::FullQuquart { .. } => n_qubits.div_ceil(2),
            _ => n_qubits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_counts() {
        assert_eq!(Strategy::qubit_only().device_count(7), 7);
        assert_eq!(Strategy::mixed_radix_ccz().device_count(7), 7);
        assert_eq!(Strategy::full_ququart().device_count(7), 4);
        assert_eq!(Strategy::full_ququart().device_count(8), 4);
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = [
            Strategy::qubit_only(),
            Strategy::qubit_only_itoffoli(),
            Strategy::mixed_radix_raw(),
            Strategy::mixed_radix_retarget(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn simulation_radix() {
        assert!(!Strategy::qubit_only().uses_ququarts());
        assert!(Strategy::mixed_radix_ccz().uses_ququarts());
        assert!(Strategy::full_ququart().uses_ququarts());
    }
}
