//! The compiled-circuit artifact and compilation errors.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use waltz_arch::Site;
use waltz_circuit::Circuit;
use waltz_math::C64;
use waltz_noise::CoherenceModel;
use waltz_sim::trajectory::{Estimator, LogicalReference};
use waltz_sim::{Register, Schedule, SegmentedCircuit, State, TimedCircuit, TimedOp};

use crate::eps::{self, CoherenceSpan, EpsBreakdown};
use crate::lower::LowerOutput;
use crate::strategy::Strategy;

/// Compilation failure, surfaced through the pipeline's entry validation
/// so malformed user input never panics deep inside a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The circuit has no qubits.
    EmptyCircuit,
    /// The device topology cannot host the circuit (too few devices, or a
    /// three-qubit gate on a degree-deficient graph).
    TopologyTooSmall {
        /// Devices needed.
        needed: usize,
        /// Devices available.
        available: usize,
    },
    /// A gate lists the same qubit twice (e.g. `ccx(0, 0, 1)`).
    DuplicateOperands {
        /// Index of the offending gate in the circuit.
        gate_index: usize,
        /// The repeated qubit.
        qubit: usize,
    },
    /// A gate's operand list does not match its kind's arity (possible
    /// when constructing [`waltz_circuit::Gate`] values directly).
    WrongOperandCount {
        /// Index of the offending gate in the circuit.
        gate_index: usize,
        /// Operands the gate kind requires.
        expected: usize,
        /// Operands the gate actually lists.
        got: usize,
    },
    /// A rotation gate carries a NaN or infinite angle, which would
    /// poison every downstream unitary.
    NonFiniteAngle {
        /// Index of the offending gate in the circuit.
        gate_index: usize,
    },
    /// The device topology is not connected, so routing cannot bring
    /// arbitrary operands together.
    DisconnectedTopology {
        /// Devices in the graph.
        devices: usize,
    },
    /// A gate names a qubit outside the circuit's declared range
    /// (possible when constructing [`waltz_circuit::Gate`] values
    /// directly).
    QubitOutOfRange {
        /// Index of the offending gate in the circuit.
        gate_index: usize,
        /// The out-of-range qubit.
        qubit: usize,
        /// Qubits the circuit declares.
        n_qubits: usize,
    },
    /// A pass panicked. Only produced by the supervised entry points
    /// ([`crate::Supervisor`]), whose `catch_unwind` isolation converts
    /// the panic into this error for the one affected job instead of
    /// tearing down the batch.
    Internal {
        /// The pass that panicked.
        pass: crate::Pass,
        /// The panic payload (message), when it was a string.
        payload: String,
    },
    /// Compilation ran past its wall-clock deadline
    /// ([`crate::Compiler::compile_with_deadline`],
    /// [`crate::SupervisorPolicy::deadline_ms`]). Checked at every pass
    /// boundary, so `pass` is the first pass that did not start in time.
    DeadlineExceeded {
        /// The pass that would have run next.
        pass: crate::Pass,
        /// The deadline the job was given, in milliseconds.
        budget_ms: u64,
    },
    /// The compiled register needs more state bytes than the supervisor's
    /// budget allows, even after walking the degradation ladder
    /// (windowed → whole-program-demoted → sparse admission) — the
    /// structured rejection that replaces silently skipping the job.
    OverBudget {
        /// Peak state bytes of the smallest artifact any degradation rung
        /// produced.
        needed: usize,
        /// The supervisor's budget, in bytes.
        limit: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyCircuit => write!(f, "circuit has no qubits"),
            CompileError::TopologyTooSmall { needed, available } => write!(
                f,
                "topology provides {available} devices but the strategy needs {needed}"
            ),
            CompileError::DuplicateOperands { gate_index, qubit } => {
                write!(f, "gate {gate_index} lists duplicate operand qubit {qubit}")
            }
            CompileError::WrongOperandCount {
                gate_index,
                expected,
                got,
            } => write!(
                f,
                "gate {gate_index} lists {got} operands but its kind takes {expected}"
            ),
            CompileError::NonFiniteAngle { gate_index } => {
                write!(f, "gate {gate_index} has a non-finite rotation angle")
            }
            CompileError::DisconnectedTopology { devices } => {
                write!(f, "topology with {devices} devices is not connected")
            }
            CompileError::QubitOutOfRange {
                gate_index,
                qubit,
                n_qubits,
            } => write!(
                f,
                "gate {gate_index} names qubit {qubit} but the circuit has {n_qubits} qubits"
            ),
            CompileError::Internal { pass, payload } => {
                write!(f, "internal error in the {} pass: {payload}", pass.name())
            }
            CompileError::DeadlineExceeded { pass, budget_ms } => write!(
                f,
                "compilation exceeded its {budget_ms} ms deadline before the {} pass",
                pass.name()
            ),
            CompileError::OverBudget { needed, limit } => write!(
                f,
                "register needs {needed} state bytes but the budget allows {limit}"
            ),
        }
    }
}

impl Error for CompileError {}

/// Aggregate compilation statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileStats {
    /// Routing swaps inserted (all flavours).
    pub routing_swaps: usize,
    /// ENC/DEC windows emitted (mixed radix only).
    pub enc_windows: usize,
    /// Total hardware pulses.
    pub hw_ops: usize,
    /// Scheduled wall-clock duration (ns).
    pub total_duration_ns: f64,
}

/// The compiler's output: a scheduled circuit plus everything needed to
/// simulate, estimate and verify it.
///
/// It carries two programs: the hardware schedule ([`Self::timed`]),
/// which every pulse statistic and EPS estimate reads, and the
/// simulation schedule ([`Self::sim`]), which every estimate, session
/// run and remote simulate executes.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    /// The scheduled hardware circuit.
    pub timed: TimedCircuit,
    /// The simulation schedule: the windowed segments when the Analyze
    /// pass keeps more than one register window
    /// ([`crate::CompileOptions::with_windowed_registers`], on by
    /// default) — the same pulses cut where a device's occupied dimension
    /// changes, each segment on its own register — else one
    /// whole-program segment. Fused per segment when the
    /// [`crate::Fusion`] option is on, so it equals `timed` only for an
    /// unfused, unsplit compile.
    pub sim: SegmentedCircuit,
    /// The strategy that produced it.
    pub strategy: Strategy,
    /// Logical-qubit sites at circuit start.
    pub initial_sites: Vec<Site>,
    /// Logical-qubit sites at circuit end (after routing permutations).
    pub final_sites: Vec<Site>,
    /// Per-device maximum-level timeline for the coherence EPS (§6.3).
    pub coherence_spans: Vec<CoherenceSpan>,
    /// Aggregate statistics.
    pub stats: CompileStats,
    pub(crate) slots_per_device: usize,
    /// The circuit as submitted to the compiler: the program every
    /// estimate of this artifact scores its trajectories against
    /// ([`CompiledCircuit::estimator`]).
    pub logical: Circuit,
}

impl CompiledCircuit {
    /// EPS estimate under a coherence model (§6.3).
    pub fn eps(&self, model: &CoherenceModel) -> EpsBreakdown {
        eps::eps(&self.timed, &self.coherence_spans, model)
    }

    /// The schedule every simulation of this circuit runs, borrowed from
    /// [`CompiledCircuit::sim`]. A run starts on
    /// [`Schedule::first_register`] and ends on
    /// [`Schedule::last_register`]; every runner panics on an input on
    /// any other register, and there is no fallback to another schedule.
    /// For an unsplit schedule the first register is `timed`'s.
    ///
    /// The fused schedule produces the same noiseless output as `timed`
    /// (1e-12 parity). Under noise it approximates `timed`: per-pulse
    /// error probabilities and per-device idle/busy damping times are
    /// preserved exactly, but a fused block damps idle time before its
    /// one unitary and busy time and Pauli draws after it, which moves
    /// estimates measurably (see [`crate::Fusion`]). Use
    /// [`crate::CompileOptions::unfused`] when exact pulse-by-pulse noise
    /// interleaving matters.
    pub fn sim_schedule(&self) -> Schedule<'_> {
        (&self.sim).into()
    }

    /// The one segment of an unsplit simulation schedule, or `timed` when
    /// it is split. A shim the benchmark package (`perfbench/`) still
    /// calls; everything else reads [`CompiledCircuit::sim_schedule`].
    pub fn sim_circuit(&self) -> &TimedCircuit {
        match self.sim.segments.as_slice() {
            [single] => single,
            _ => &self.timed,
        }
    }

    /// The simulation schedule when it is split, else `None`. A shim like
    /// [`CompiledCircuit::sim_circuit`].
    pub fn sim_segments(&self) -> Option<&SegmentedCircuit> {
        (self.sim.n_segments() > 1).then_some(&self.sim)
    }

    /// Peak state-vector bytes a simulation of this artifact sizes its
    /// buffers by ([`Schedule::peak_state_bytes`] of
    /// [`CompiledCircuit::sim_schedule`]; a split run rolls two buffers
    /// of at most this size) — the quantity simulation byte budgets gate
    /// on (`waltz_bench::runner`).
    pub fn sim_state_bytes_peak(&self) -> usize {
        self.sim_schedule().peak_state_bytes()
    }

    /// The trajectory estimator of this circuit under `noise`: its
    /// simulation schedule ([`CompiledCircuit::sim_schedule`]) from random
    /// logical product inputs embedded at the compiler's placement
    /// (§6.4), on the process-wide pool — the one estimate behind
    /// [`crate::Simulation`] and the bench runner.
    ///
    /// Each trajectory is scored against the source circuit
    /// ([`CompiledCircuit::logical`]) run on the `2^n` logical amplitudes
    /// of its input, read out of the noisy state at the final placement
    /// ([`LogicalReference`]), never against a replay of the schedule.
    /// With noise off every estimate is therefore also an end-to-end
    /// check that the schedule implements the circuit. The program and
    /// both placement maps are built once per call.
    pub fn estimator<'a>(
        &'a self,
        noise: &'a waltz_noise::NoiseModel,
    ) -> Estimator<'a, State, impl Fn(&Register, &mut StdRng, &mut State) + Sync + 'a> {
        let schedule = self.sim_schedule();
        let n = self.logical.n_qubits();
        let mut program = TimedCircuit::new(Register::qubits(n));
        for gate in self.logical.iter() {
            program.ops.push(TimedOp::new(
                "logical",
                gate.kind.unitary(),
                gate.qubits.clone(),
                vec![2; gate.arity()],
                0.0,
                0.0,
                1.0,
            ));
        }
        let reference = LogicalReference::new(
            program,
            self.site_map(&self.initial_sites, schedule.first_register()),
            self.site_map(&self.final_sites, schedule.last_register()),
        );
        Estimator::new(schedule, noise).with_logical_input(
            |_: &Register, rng: &mut StdRng, out: &mut State| {
                self.write_random_product_initial_state(rng, out)
            },
            reference,
        )
    }

    /// Encoded-basis weight of a logical qubit sitting at `site`: its bit
    /// contributes `weight * bit` to the device's level.
    pub(crate) fn site_weight(&self, site: Site) -> usize {
        if self.slots_per_device == 2 && site.slot == 0 {
            2
        } else {
            1
        }
    }

    /// Where each logical basis state sits on `register` with logical
    /// qubit `q` at `sites[q]`: entry `l` is the index of basis state `l`
    /// (qubit 0 = most significant bit).
    ///
    /// # Panics
    ///
    /// Panics if a site names a device `register` does not have.
    pub(crate) fn site_map(&self, sites: &[Site], register: &Register) -> Vec<usize> {
        let n = sites.len();
        assert!(n < usize::BITS as usize, "too many logical qubits");
        let mut map = Vec::with_capacity(1 << n);
        map.push(0);
        // From the least significant qubit up: appending each entry plus
        // qubit q's offset sets bit q of every index so far.
        for &site in sites.iter().rev() {
            let offset = self.site_weight(site) * register.stride(site.device);
            for i in 0..map.len() {
                map.push(map[i] + offset);
            }
        }
        map
    }

    /// A product of Haar-random single-qubit states over the *logical*
    /// qubits, embedded at the compiler's initial placement — the random
    /// inputs of the paper's §6.4 simulations — on `timed`'s register.
    ///
    /// `timed`'s register is not the input register of a split
    /// simulation schedule, which [`crate::Simulation::run_trajectory`]
    /// and [`crate::Simulation::run_ideal`] require: draw those inputs
    /// with [`crate::Simulation::random_initial_state`], and embed a
    /// chosen logical state with
    /// [`CompiledCircuit::embed_logical_state_on`].
    pub fn random_product_initial_state<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> State {
        let mut out = State::zero(&self.timed.register);
        self.write_random_product_initial_state(rng, &mut out);
        out
    }

    /// In-place [`CompiledCircuit::random_product_initial_state`]: draws a
    /// fresh random logical input directly into a caller-owned state
    /// buffer, touching no heap at all — the input writer of
    /// [`CompiledCircuit::estimator`].
    ///
    /// `out` may live on any register spanning the same devices as the
    /// compiled circuit — in particular the first register of the
    /// simulation schedule ([`CompiledCircuit::sim_schedule`]), whose
    /// dimensions the occupancy analysis guarantees cover every level the
    /// initial placement populates. The RNG is consumed identically
    /// regardless of the register, so the same seed draws the same
    /// logical input on the whole-program and windowed engines.
    ///
    /// # Panics
    ///
    /// Panics if `out` spans a different device count than the compiled
    /// circuit, or its register clips a level the initial placement
    /// populates (impossible for registers the compiler produced).
    pub fn write_random_product_initial_state<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut State,
    ) {
        const MAX_DEVICES: usize = 64;
        const MAX_LEVELS: usize = 4;
        // Snapshot the register geometry onto the stack so the immutable
        // borrow of `out` ends before the mutable fill: the factory runs
        // once per trajectory and must not touch the heap.
        let n = out.register().n_qudits();
        assert_eq!(
            n,
            self.timed.register.n_qudits(),
            "state register does not span the compiled circuit's devices"
        );
        assert!(n <= MAX_DEVICES, "register too large for stack factors");
        let mut reg_dims = [0usize; MAX_DEVICES];
        for (d, rd) in reg_dims.iter_mut().enumerate().take(n) {
            *rd = out.register().dim(d);
            assert!(*rd <= MAX_LEVELS, "device dimension above 4");
        }
        let mut factors = [[C64::ZERO; MAX_LEVELS]; MAX_DEVICES];
        for f in factors.iter_mut().take(n) {
            f[0] = C64::ONE;
        }
        for &site in &self.initial_sites {
            let qs = waltz_math::linalg::haar_qubit(rng);
            let weight = self.site_weight(site);
            let old = factors[site.device];
            let f = &mut factors[site.device];
            for (level, amp) in f.iter_mut().enumerate().take(MAX_LEVELS) {
                let bit = (level / weight) % 2;
                let rest = level - bit * weight;
                *amp = old[rest] * qs[bit];
            }
        }
        for (d, f) in factors.iter().enumerate().take(n) {
            for &amp in &f[reg_dims[d]..] {
                assert!(
                    amp == C64::ZERO,
                    "register clips level(s) the initial placement populates on device {d}"
                );
            }
        }
        out.fill_product_with(|q, level| factors[q][level]);
    }

    /// Decodes a basis index of `register` (measured from a final state)
    /// into the logical bitstring (qubit 0 = most significant bit),
    /// reading each qubit out of its *final* site — "the measured state
    /// would be decoded according to the compression strategy" (§5.2).
    /// Final sites address devices, not amplitudes, so any register
    /// spanning the same devices decodes: `timed`'s, or the last register
    /// of the simulation schedule ([`Schedule::last_register`]).
    ///
    /// # Panics
    ///
    /// Panics if `register` spans a different device count than the
    /// compiled circuit.
    pub fn decode_index_on(&self, register: &Register, device_index: usize) -> usize {
        assert_eq!(
            register.n_qudits(),
            self.timed.register.n_qudits(),
            "register does not span the compiled circuit's devices"
        );
        let n = self.final_sites.len();
        let mut out = 0usize;
        for (q, &site) in self.final_sites.iter().enumerate() {
            let digit = register.digit(device_index, site.device);
            let bit = (digit / self.site_weight(site)) % 2;
            out |= bit << (n - 1 - q);
        }
        out
    }

    /// Samples `shots` measurement outcomes from a final device state and
    /// returns decoded logical bitstring counts. Decodes against the
    /// *state's own* register, so a final state of the simulation
    /// schedule (on its last register, [`CompiledCircuit::sim_schedule`])
    /// and one on `timed`'s register both work.
    pub fn sample_decoded<R: rand::Rng + ?Sized>(
        &self,
        state: &State,
        shots: usize,
        rng: &mut R,
    ) -> std::collections::BTreeMap<usize, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..shots {
            let raw = state.sample_basis(rng);
            *counts
                .entry(self.decode_index_on(state.register(), raw))
                .or_insert(0) += 1;
        }
        counts
    }

    /// Embeds an `n`-qubit logical state into `timed`'s register using
    /// the given per-qubit sites (use [`CompiledCircuit::initial_sites`]
    /// to prepare inputs, [`CompiledCircuit::final_sites`] to decode
    /// outputs): [`CompiledCircuit::embed_logical_state_on`] at
    /// `timed`'s register.
    ///
    /// A state on `timed`'s register is not an input of a split
    /// simulation schedule: for [`crate::Simulation::run_trajectory`] and
    /// [`crate::Simulation::run_ideal`], embed on
    /// `sim_schedule().first_register()` with
    /// [`CompiledCircuit::embed_logical_state_on`], or draw a random
    /// input with [`crate::Simulation::random_initial_state`].
    ///
    /// # Panics
    ///
    /// Panics if `amps.len() != 2^n` with `n = sites.len()`.
    pub fn embed_logical_state(&self, amps: &[C64], sites: &[Site]) -> State {
        self.embed_logical_state_on(&self.timed.register, amps, sites)
    }

    /// Embeds an `n`-qubit logical state into `register` using the given
    /// per-qubit sites. `register` must span the compiled circuit's
    /// devices with room for every level the sites address: `timed`'s
    /// register, or the first register of the simulation schedule
    /// (`sim_schedule().first_register()`), the input register of
    /// [`crate::Simulation::run_trajectory`] and
    /// [`crate::Simulation::run_ideal`].
    ///
    /// # Panics
    ///
    /// Panics if `amps.len() != 2^n` with `n = sites.len()`, if
    /// `register` spans a different device count than the compiled
    /// circuit, or if it clips a level the sites address.
    pub fn embed_logical_state_on(
        &self,
        register: &Register,
        amps: &[C64],
        sites: &[Site],
    ) -> State {
        let n = sites.len();
        assert_eq!(amps.len(), 1usize << n, "logical amplitude count mismatch");
        assert_eq!(
            register.n_qudits(),
            self.timed.register.n_qudits(),
            "register does not span the compiled circuit's devices"
        );
        let mut top = vec![0usize; register.n_qudits()];
        for &site in sites {
            top[site.device] += self.site_weight(site);
        }
        for (device, &level) in top.iter().enumerate() {
            assert!(
                level < register.dim(device),
                "register clips level {level} the sites address on device {device}"
            );
        }
        let mut out = vec![C64::ZERO; register.total_dim()];
        for (&amp, idx) in amps.iter().zip(self.site_map(sites, register)) {
            out[idx] = amp;
        }
        State::from_amplitudes(register, out)
    }
}

/// Builds the per-device maximum-level timeline (§6.3): weight 1 in the
/// qubit regime, 3 while encoded.
pub(crate) fn build_spans(
    strategy: &Strategy,
    out: &LowerOutput,
    timed: &TimedCircuit,
) -> Vec<CoherenceSpan> {
    let n_devices = out.graph.topology().n_devices();
    let total = timed.total_duration_ns;
    match strategy {
        Strategy::QubitOnly { .. } => eps::uniform_spans(n_devices, &vec![1; n_devices], total),
        Strategy::FullQuquart { .. } => {
            // Devices holding two qubits live at level 3; half-filled
            // devices stay in the qubit regime (level <= slot weight).
            let mut level = vec![0usize; n_devices];
            for site in &out.initial_sites {
                level[site.device] += if site.slot == 0 { 2 } else { 1 };
            }
            for l in &mut level {
                *l = (*l).clamp(1, 3);
            }
            eps::uniform_spans(n_devices, &level, total)
        }
        Strategy::MixedRadix { .. } => {
            // Level 1 everywhere, lifted to level 3 on the host inside each
            // ENC..DEC window.
            let mut spans = Vec::new();
            let mut windows_per_device: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_devices];
            for w in &out.enc_windows {
                let start = timed.ops[w.enc_idx].start_ns;
                let end = timed.ops[w.dec_idx].end_ns();
                windows_per_device[w.host].push((start, end));
            }
            for (device, windows) in windows_per_device.iter_mut().enumerate() {
                windows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let mut cursor = 0.0f64;
                for &(start, end) in windows.iter() {
                    if start > cursor {
                        spans.push(CoherenceSpan {
                            device,
                            level: 1,
                            start_ns: cursor,
                            end_ns: start,
                        });
                    }
                    spans.push(CoherenceSpan {
                        device,
                        level: 3,
                        start_ns: start,
                        end_ns: end,
                    });
                    cursor = end;
                }
                if cursor < total {
                    spans.push(CoherenceSpan {
                        device,
                        level: 1,
                        start_ns: cursor,
                        end_ns: total,
                    });
                }
            }
            spans
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Target;
    use crate::{CompileArtifact, Compiler, Strategy};
    use waltz_arch::Topology;
    use waltz_circuit::Circuit;

    /// Builder-path compile with the paper library.
    fn build(c: &Circuit, strategy: &Strategy) -> CompileArtifact {
        Compiler::new(Target::paper(*strategy)).compile(c).unwrap()
    }

    #[test]
    fn decode_inverts_embed_for_basis_states() {
        let mut c = Circuit::new(4);
        c.ccx(0, 1, 2).cx(2, 3).cswap(3, 0, 1);
        for strategy in [
            Strategy::qubit_only(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
        ] {
            let compiled = build(&c, &strategy);
            for logical in 0..16usize {
                let mut amps = vec![C64::ZERO; 16];
                amps[logical] = C64::ONE;
                // Embed at the FINAL sites, then decode: must round-trip.
                let state = compiled.embed_logical_state(&amps, &compiled.final_sites);
                let raw = state
                    .amplitudes()
                    .iter()
                    .position(|a| a.abs() > 0.999)
                    .expect("basis state stays basis");
                assert_eq!(
                    compiled.decode_index_on(state.register(), raw),
                    logical,
                    "{} logical {logical}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn random_product_states_are_normalized_for_every_strategy() {
        use rand::SeedableRng;
        let mut c = Circuit::new(5);
        c.ccz(0, 1, 2).ccx(2, 3, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for strategy in [
            Strategy::qubit_only(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
        ] {
            let compiled = build(&c, &strategy);
            let s = compiled.random_product_initial_state(&mut rng);
            assert!((s.norm() - 1.0).abs() < 1e-10, "{}", strategy.name());
        }
    }

    #[test]
    fn fusion_option_controls_the_sim_schedule() {
        let mut c = Circuit::new(4);
        c.h(0).ccx(0, 1, 2).cx(2, 3).ccz(1, 2, 3);
        for strategy in [
            Strategy::qubit_only(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
        ] {
            // Whole-program compiles: one segment on `timed`'s register.
            let options = crate::CompileOptions::default().with_windowed_registers(false);
            let fused = Compiler::with_options(Target::paper(strategy), options)
                .compile(&c)
                .unwrap();
            let unfused = Compiler::with_options(
                Target::paper(strategy),
                crate::CompileOptions::unfused().with_windowed_registers(false),
            )
            .compile(&c)
            .unwrap();
            assert_eq!(unfused.sim.n_segments(), 1);
            assert_eq!(unfused.sim.len(), unfused.timed.len());
            let sim = &fused.sim;
            assert_eq!(sim.n_segments(), 1, "{}", strategy.name());
            assert!(
                sim.len() < fused.timed.len(),
                "{}: fusion should shrink {} ops",
                strategy.name(),
                fused.timed.len()
            );
            assert!(sim.validate().is_ok(), "{}", strategy.name());
            // Hardware-side artifacts are identical either way.
            assert_eq!(fused.stats.hw_ops, unfused.stats.hw_ops);
            assert!((fused.timed.gate_eps() - sim.gate_eps()).abs() < 1e-12);
            // And the fused program is noiselessly equivalent.
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let init = fused.random_product_initial_state(&mut rng);
            let a = waltz_sim::ideal::run(&fused.timed, &init);
            let b = waltz_sim::ideal::run(sim, &init);
            assert!(
                (a.fidelity(&b) - 1.0).abs() < 1e-12,
                "{} fused parity",
                strategy.name()
            );
        }
    }

    #[test]
    fn write_random_initial_state_matches_allocating_factory() {
        use rand::SeedableRng;
        let mut c = Circuit::new(4);
        c.ccx(0, 1, 2).cswap(1, 2, 3);
        for strategy in [
            Strategy::qubit_only(),
            Strategy::mixed_radix_ccz(),
            Strategy::full_ququart(),
        ] {
            let compiled = build(&c, &strategy);
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(31);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(31);
            let fresh = compiled.random_product_initial_state(&mut rng_a);
            let mut out = State::zero(&compiled.timed.register);
            // Fill twice from the same seed stream start: the second call
            // must fully overwrite the first.
            compiled.write_random_product_initial_state(&mut rng_b, &mut out);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(31);
            compiled.write_random_product_initial_state(&mut rng_b, &mut out);
            assert!(
                (fresh.fidelity(&out) - 1.0).abs() < 1e-12,
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn topology_too_small_is_reported() {
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let err =
            Compiler::new(Target::paper(Strategy::qubit_only()).with_topology(Topology::grid(2)))
                .compile(&c)
                .unwrap_err();
        assert!(matches!(
            err,
            CompileError::TopologyTooSmall {
                needed: 4,
                available: 2
            }
        ));
        assert!(err.to_string().contains("2 devices"));
    }

    #[test]
    fn mixed_radix_coherence_spans_partition_the_timeline() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).ccz(0, 1, 2);
        let compiled = build(&c, &Strategy::mixed_radix_ccz());
        // For each device, spans must tile [0, total] without overlap.
        let total = compiled.stats.total_duration_ns;
        for device in 0..compiled.timed.register.n_qudits() {
            let mut spans: Vec<_> = compiled
                .coherence_spans
                .iter()
                .filter(|s| s.device == device)
                .collect();
            spans.sort_by(|a, b| a.start_ns.partial_cmp(&b.start_ns).unwrap());
            let mut cursor = 0.0;
            for s in &spans {
                assert!(
                    (s.start_ns - cursor).abs() < 1e-6,
                    "gap/overlap at device {device}"
                );
                cursor = s.end_ns;
            }
            assert!(
                (cursor - total).abs() < 1e-6,
                "device {device} timeline incomplete"
            );
        }
    }
}
