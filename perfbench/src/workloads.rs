//! The in-process workloads: compile a logical circuit, then estimate
//! its fidelity (`cnu6q-noisy`, `ladder-windowed`) or fetch through the
//! density-adaptive engine (`qram-sparse`). Every job calls the public
//! API exactly as a user would: default unpinned `Compiler`s, the
//! process-wide trajectory pool.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use quantum_waltz::circuit::Circuit;
use quantum_waltz::circuits::{generalized_toffoli, qram};
use quantum_waltz::core::{verify, CompileArtifact, CompiledCircuit, Compiler, Strategy, Target};
use quantum_waltz::noise::NoiseModel;
use quantum_waltz::sim::{
    ideal, trajectory, AdaptiveState, Register, SegmentedCircuit, SparsePolicy, SparseState,
    Workspace,
};
use rand::rngs::StdRng;

use crate::mix::{job_seed, QramInput};
use crate::trace::Tracer;

/// What one job reports back to the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The job produced an output (output checks run after the timed
    /// phase and may still fail it).
    pub ok: bool,
    /// Job latency in seconds.
    pub latency_s: f64,
    /// Trajectories the job completed.
    pub trajectories: usize,
    /// Interval spent inside estimate (or streamed simulate) calls.
    pub sim: Option<(Instant, Instant)>,
}

/// The paper's three comparison strategies, in Fig. 7 order (worst to
/// best expected fidelity).
pub fn paper_strategies() -> Vec<(String, Strategy)> {
    vec![
        ("qubit-only".into(), Strategy::qubit_only()),
        ("mixed-radix".into(), Strategy::mixed_radix_ccz()),
        ("full-ququart".into(), Strategy::full_ququart()),
    ]
}

/// Records the pipeline's per-pass `wall_ms` as children of the compile
/// span, laid end to end from its start.
fn record_passes(
    tracer: &Tracer,
    artifact: &CompileArtifact,
    compile_span: u64,
    job: u64,
    start: Instant,
) {
    if artifact.is_cached() {
        return;
    }
    let mut offset = 0.0;
    for report in artifact.reports() {
        let name = format!("core.pass.{}", report.pass.name().to_lowercase());
        tracer.record_reported(&name, compile_span, job, start, offset, report.wall_ms);
        offset += report.wall_ms;
    }
}

/// Compiles `circuit` inside a `core.compile` span (with pass children).
fn traced_compile(
    tracer: &Tracer,
    compiler: &Compiler,
    circuit: &Circuit,
    parent: u64,
    job: u64,
) -> Option<CompileArtifact> {
    let span = tracer.begin(Some(parent), job);
    let (id, start) = (span.id(), span.start());
    let artifact = compiler.compile(circuit);
    tracer.end(span, "core.compile");
    let artifact = artifact.ok()?;
    record_passes(tracer, &artifact, id, job, start);
    Some(artifact)
}

/// A distinct compiled artifact seen during the run, with the jobs that
/// used it.
#[derive(Debug, Clone)]
pub struct Seen {
    /// Logical source.
    pub circuit: Circuit,
    /// The artifact the first job produced.
    pub artifact: CompileArtifact,
    /// Job indices that compiled this key.
    pub jobs: Vec<u64>,
}

/// Distinct artifacts by key (`"<circuit>/<strategy>"`).
#[derive(Debug, Default)]
pub struct Store {
    seen: Mutex<BTreeMap<String, Seen>>,
}

impl Store {
    /// Notes that job `index` compiled `key`, keeping the first artifact.
    pub fn note(&self, key: &str, index: u64, circuit: &Circuit, artifact: &CompileArtifact) {
        let mut seen = self.seen.lock().expect("artifact store poisoned");
        seen.entry(key.to_string())
            .or_insert_with(|| Seen {
                circuit: circuit.clone(),
                artifact: artifact.clone(),
                jobs: Vec::new(),
            })
            .jobs
            .push(index);
    }

    /// A snapshot of every distinct artifact.
    pub fn snapshot(&self) -> BTreeMap<String, Seen> {
        self.seen.lock().expect("artifact store poisoned").clone()
    }

    /// Every distinct artifact by key, with the number of jobs that
    /// compiled it.
    pub fn artifacts(&self) -> Vec<(String, CompileArtifact, usize)> {
        let seen = self.seen.lock().expect("artifact store poisoned");
        seen.iter()
            .map(|(k, s)| (k.clone(), s.artifact.clone(), s.jobs.len()))
            .collect()
    }
}

/// Trajectory-simulation schedule size of an artifact:
/// `(sim ops, segments, reshapes)`.
pub fn sim_shape(compiled: &CompiledCircuit) -> (usize, usize, usize) {
    match compiled.sim_segments() {
        Some(seg) => (seg.len(), seg.n_segments(), seg.reshape_count()),
        None => (compiled.sim_circuit().len(), 1, 0),
    }
}

/// Runs `verify::check` (against the independent `waltz_circuit::unitary`
/// reference) on every distinct artifact of at most 12 qubits; returns
/// the keys that failed.
pub fn verify_small(seen: &BTreeMap<String, Seen>, seed: u64) -> Vec<String> {
    seen.iter()
        .filter(|(_, s)| s.circuit.n_qubits() <= 12)
        .filter(|(_, s)| !verify::check(&s.circuit, &s.artifact, 2, seed).passed(1e-9))
        .map(|(k, _)| k.clone())
        .collect()
}

/// `cnu6q-noisy` and `ladder-windowed`: each job compiles one circuit
/// with a default compiler for its strategy, then runs a trajectory
/// estimate under `NoiseModel::paper()` on random product inputs through
/// the process-wide pool.
pub struct EstimateLoad {
    /// Logical circuits the jobs cycle through.
    pub circuits: Vec<(String, Circuit)>,
    /// One default compiler per strategy.
    pub compilers: Vec<(String, Compiler)>,
    /// `(circuit, strategy)` of each job in one cycle.
    plan: Vec<(usize, usize)>,
    /// Trajectories per estimate.
    pub trajectories: usize,
    /// Whether the run checks the paper's Fig. 7 ordering of mean
    /// fidelities (full-ququart > mixed-radix > qubit-only).
    pub fig7: bool,
    seed: u64,
    noise: NoiseModel,
    /// Distinct artifacts.
    pub store: Store,
    /// Per strategy: (sum of estimate means, estimates).
    fidelity: Mutex<Vec<(f64, usize)>>,
}

impl EstimateLoad {
    /// `cnu6q-noisy`: cnu-6q through the three strategies, 1000
    /// trajectories per estimate (the paper's Fig. 7 point).
    pub fn cnu6q(seed: u64) -> EstimateLoad {
        EstimateLoad {
            fig7: true,
            ..EstimateLoad::new(
                vec![("cnu-6q".into(), generalized_toffoli(3))],
                vec![(0, 0), (0, 1), (0, 2)],
                1000,
                seed,
            )
        }
    }

    /// `ladder-windowed`: cnu-10q and cnu-12q through the three
    /// strategies, 100 trajectories per estimate, every (circuit,
    /// strategy) pair once per cycle, as the paper weighs the strategies
    /// alike.
    pub fn ladder(seed: u64) -> EstimateLoad {
        EstimateLoad::new(
            vec![
                ("cnu-10q".into(), generalized_toffoli(5)),
                ("cnu-12q".into(), generalized_toffoli(6)),
            ],
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)],
            100,
            seed,
        )
    }

    fn new(
        circuits: Vec<(String, Circuit)>,
        plan: Vec<(usize, usize)>,
        trajectories: usize,
        seed: u64,
    ) -> EstimateLoad {
        let compilers: Vec<(String, Compiler)> = paper_strategies()
            .into_iter()
            .map(|(name, s)| (name, Compiler::new(Target::paper(s))))
            .collect();
        let n = compilers.len();
        EstimateLoad {
            circuits,
            compilers,
            plan,
            trajectories,
            fig7: false,
            seed,
            noise: NoiseModel::paper(),
            store: Store::default(),
            fidelity: Mutex::new(vec![(0.0, 0); n]),
        }
    }

    /// Jobs per full cycle of the (circuit, strategy) plan.
    pub fn cycle(&self) -> usize {
        self.plan.len()
    }

    /// `(circuit, strategy)` of job `index`.
    pub fn plan(&self, index: u64) -> (usize, usize) {
        self.plan[(index % self.plan.len() as u64) as usize]
    }

    /// `"<circuit>/<strategy>"` of job `index`.
    pub fn kind(&self, index: u64) -> String {
        let (c, s) = self.plan(index);
        format!("{}/{}", self.circuits[c].0, self.compilers[s].0)
    }

    /// Runs job `index`.
    pub fn job(&self, index: u64, tracer: &Tracer) -> Outcome {
        let (c, s) = self.plan(index);
        let circuit = &self.circuits[c].1;
        let compiler = &self.compilers[s].1;
        let job = tracer.begin(None, index);
        let Some(artifact) = traced_compile(tracer, compiler, circuit, job.id(), index) else {
            let latency_s = tracer.end(job, "job");
            return Outcome {
                ok: false,
                latency_s,
                trajectories: 0,
                sim: None,
            };
        };
        let est = tracer.begin(Some(job.id()), index);
        let t0 = est.start();
        let estimate = artifact
            .simulate()
            .with_noise(self.noise.clone())
            .with_seed(job_seed(self.seed, 0, index))
            .average_fidelity(self.trajectories);
        tracer.end(est, "sim.estimate");
        let t1 = Instant::now();
        let latency_s = tracer.end(job, "job");
        self.store
            .note(&self.kind(index), index, circuit, &artifact);
        let ok = estimate.mean.is_finite() && (0.0..=1.0 + 1e-9).contains(&estimate.mean);
        if ok {
            let mut f = self.fidelity.lock().expect("fidelity tally poisoned");
            f[s].0 += estimate.mean;
            f[s].1 += 1;
        }
        Outcome {
            ok,
            latency_s,
            trajectories: self.trajectories,
            sim: Some((t0, t1)),
        }
    }

    /// Per strategy, in strategy order: `(name, sum of estimate means,
    /// estimates)` over the run.
    pub fn fidelity_sums(&self) -> Vec<(String, f64, usize)> {
        let f = self.fidelity.lock().expect("fidelity tally poisoned");
        self.compilers
            .iter()
            .zip(f.iter())
            .map(|((name, _), &(sum, n))| (name.clone(), sum, n))
            .collect()
    }
}

/// Trajectories per noisy `qram-sparse` estimate.
pub const QRAM_TRAJECTORIES: usize = 200;

/// `qram-sparse`: even jobs compile qram(3) (12 qubits) and run a noisy
/// 200-trajectory adaptive estimate on a classical address input; odd
/// jobs compile qram(5) (38 qubits) and run a noiseless adaptive fetch.
/// The two parts get equal shares: nothing names another split.
pub struct QramLoad {
    /// The mixed-radix CCZ compiler (default, unpinned).
    pub compiler: Compiler,
    /// `(m, circuit)` for the noisy and the fetch jobs.
    pub circuits: [(usize, Circuit); 2],
    seed: u64,
    noise: NoiseModel,
    /// Encoded-level weight of a logical qubit per site slot, learned
    /// from the compiler's own embedding of a small qram.
    slot_weight: [usize; 2],
    /// Distinct artifacts.
    pub store: Store,
    /// Fetch jobs whose final state was not the expected basis state.
    pub wrong_fetches: Mutex<Vec<u64>>,
}

impl QramLoad {
    /// Jobs per plan cycle: one noisy estimate, one fetch.
    pub const CYCLE: usize = 2;

    /// The kind of job `index`: a noisy estimate or a fetch.
    pub fn kind(index: u64) -> &'static str {
        if index.is_multiple_of(Self::CYCLE as u64) {
            "qram-12q/estimate"
        } else {
            "qram-38q/fetch"
        }
    }

    /// Builds the workload (compiles qram(2) once to learn the site
    /// encoding).
    pub fn new(seed: u64) -> QramLoad {
        let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
        let probe = compiler.compile(&qram(2)).expect("qram(2) compiles");
        QramLoad {
            slot_weight: slot_weights(&probe),
            compiler,
            circuits: [(3, qram(3)), (5, qram(5))],
            seed,
            noise: NoiseModel::paper(),
            store: Store::default(),
            wrong_fetches: Mutex::new(Vec::new()),
        }
    }

    /// Device-register basis index of a logical bitstring placed at the
    /// compiled circuit's initial sites.
    pub fn encode_input(
        &self,
        compiled: &CompiledCircuit,
        register: &Register,
        bits: &[bool],
    ) -> usize {
        let mut digits = vec![0usize; register.n_qudits()];
        for (site, &bit) in compiled.initial_sites.iter().zip(bits) {
            digits[site.device] += usize::from(bit) * self.slot_weight[site.slot.min(1)];
        }
        register.index_of(&digits)
    }

    /// Runs job `index`.
    pub fn job(&self, index: u64, tracer: &Tracer) -> Outcome {
        let noisy = index.is_multiple_of(Self::CYCLE as u64);
        let (m, circuit) = &self.circuits[usize::from(!noisy)];
        let input = QramInput::draw(*m, self.seed, index);
        let job = tracer.begin(None, index);
        let Some(artifact) = traced_compile(tracer, &self.compiler, circuit, job.id(), index)
        else {
            let latency_s = tracer.end(job, "job");
            return Outcome {
                ok: false,
                latency_s,
                trajectories: 0,
                sim: None,
            };
        };
        let segments = segmented(&artifact);
        let segments = &*segments;
        let start_idx = self.encode_input(
            &artifact,
            segments.first_register(),
            &input.logical_input(*m),
        );
        if noisy {
            let est = tracer.begin(Some(job.id()), index);
            let t0 = est.start();
            let estimate = trajectory::average_fidelity_segmented_adaptive_with(
                segments,
                &self.noise,
                QRAM_TRAJECTORIES,
                job_seed(self.seed, 0, index),
                &SparsePolicy::default(),
                |_: &Register, _: &mut StdRng, out: &mut SparseState| out.fill_basis(start_idx),
            );
            tracer.end(est, "sim.sparse.estimate");
            let t1 = Instant::now();
            let latency_s = tracer.end(job, "job");
            self.store
                .note("qram-12q/mixed-radix", index, circuit, &artifact);
            let ok = estimate.mean.is_finite() && (0.0..=1.0 + 1e-9).contains(&estimate.mean);
            Outcome {
                ok,
                latency_s,
                trajectories: QRAM_TRAJECTORIES,
                sim: Some((t0, t1)),
            }
        } else {
            let fetch = tracer.begin(Some(job.id()), index);
            let (out, _) = fetch_adaptive(segments, start_idx);
            tracer.end(fetch, "sim.sparse.fetch");
            let latency_s = tracer.end(job, "job");
            self.store
                .note("qram-38q/mixed-radix", index, circuit, &artifact);
            let expected = input.logical_output(*m);
            let correct = dominant_index(&out)
                .map(|(idx, p)| {
                    p > 1.0 - 1e-9
                        && decode_bits(&artifact, segments.last_register(), idx, expected.len())
                            == expected
                })
                .unwrap_or(false);
            if !correct {
                self.wrong_fetches
                    .lock()
                    .expect("fetch log poisoned")
                    .push(index);
            }
            Outcome {
                ok: true,
                latency_s,
                trajectories: 0,
                sim: None,
            }
        }
    }
}

/// The windowed schedule of an artifact (a one-segment schedule when
/// the compiler did not split it).
pub fn segmented(artifact: &CompiledCircuit) -> Cow<'_, SegmentedCircuit> {
    match artifact.sim_segments() {
        Some(s) => Cow::Borrowed(s),
        None => Cow::Owned(SegmentedCircuit::single(artifact.sim_circuit().clone())),
    }
}

/// A serial workspace with the default sparse policy, and the basis
/// state `start` with output and scratch buffers on the first register
/// of `segments`: the set-up of one adaptive run.
pub fn adaptive_setup(
    segments: &SegmentedCircuit,
    start: usize,
) -> (Workspace, SparseState, AdaptiveState, AdaptiveState) {
    let policy = SparsePolicy::default();
    let mut ws = Workspace::serial();
    ws.set_sparse_density_threshold(policy.density_threshold);
    ws.set_sparse_epsilon(policy.epsilon);
    let register = segments.first_register();
    (
        ws,
        SparseState::basis(register, start),
        AdaptiveState::zero(register),
        AdaptiveState::zero(register),
    )
}

/// Noiseless adaptive run of a windowed schedule from basis state
/// `start`: the final state and its peak nnz.
pub fn fetch_adaptive(segments: &SegmentedCircuit, start: usize) -> (AdaptiveState, usize) {
    let (mut ws, initial, mut out, mut scratch) = adaptive_setup(segments, start);
    ideal::run_segmented_adaptive_into(segments, &initial, &mut out, &mut scratch, &mut ws);
    let peak = out.peak_nnz();
    (out, peak)
}

/// The most probable basis index of a state and its probability.
pub fn dominant_index(state: &AdaptiveState) -> Option<(usize, f64)> {
    if let Some(sparse) = state.as_sparse() {
        sparse
            .entries()
            .iter()
            .map(|&(i, a)| (i as usize, a.norm_sqr()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    } else {
        let dense = state.as_dense()?;
        dense
            .amplitudes()
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.norm_sqr()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Logical bits (qubit 0 first) of a device basis index on `register`.
pub fn decode_bits(
    compiled: &CompiledCircuit,
    register: &Register,
    idx: usize,
    n: usize,
) -> Vec<bool> {
    let word = compiled.decode_index_on(register, idx);
    (0..n).map(|q| (word >> (n - 1 - q)) & 1 == 1).collect()
}

/// Level weight per site slot, read off the compiler's own embedding of
/// single-bit logical basis states (`CompiledCircuit::embed_logical_state`).
fn slot_weights(compiled: &CompiledCircuit) -> [usize; 2] {
    let n = compiled.initial_sites.len();
    let mut weights = [1usize; 2];
    for (q, site) in compiled.initial_sites.iter().enumerate() {
        let mut amps = vec![quantum_waltz::math::C64::ZERO; 1 << n];
        amps[1 << (n - 1 - q)] = quantum_waltz::math::C64::ONE;
        let state = compiled.embed_logical_state(&amps, &compiled.initial_sites);
        let idx = (0..state.amplitudes().len())
            .find(|&i| state.probability_of(i) > 0.5)
            .expect("a basis state embeds to a basis state");
        weights[site.slot.min(1)] = state.register().digit(idx, site.device);
    }
    weights
}
