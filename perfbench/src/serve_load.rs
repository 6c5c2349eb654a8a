//! `serve-loopback`: two client connections, one load thread each,
//! against an in-process `waltz_serve::Server` (mixed-radix CCZ, default
//! config) on 127.0.0.1. A job is one request of the seeded mix in
//! [`crate::mix::serve_request`].

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use quantum_waltz::circuit::Circuit;
use quantum_waltz::codec::{content_hash, encode_versioned, fnv1a64};
use quantum_waltz::core::{verify, CompileArtifact, Compiler, JobReport, Strategy, Target};
use quantum_waltz::serve::{ArtifactSource, ServeClient, Server, ServerConfig};

use crate::mix::{serve_request, Request, SERVE_SIM_TRAJECTORIES};
use crate::trace::Tracer;
use crate::workloads::Outcome;

/// The serving target.
pub fn serve_compiler() -> Compiler {
    Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
}

/// A remote simulation to replay in process after the timed phase.
#[derive(Debug, Clone)]
pub struct SimRecord {
    /// Job index.
    pub job: u64,
    /// Index into the resident circuits.
    pub resident: usize,
    /// Trajectory seed.
    pub seed: u64,
    /// The streamed samples.
    pub samples: Vec<f64>,
}

/// Per-request timings the layer metrics read.
#[derive(Debug, Default, Clone)]
pub struct ServeTimings {
    /// Compile requests: round trip minus the slowest job's
    /// `JobReport.wall_ms`, in ms.
    pub overhead_ms: Vec<f64>,
    /// `JobReport.wall_ms` of every compile job.
    pub supervisor_job_ms: Vec<f64>,
    /// Resubmitted jobs that missed the cache.
    pub unexpected_misses: usize,
    /// Fresh jobs that hit the cache: the mix repeated a circuit.
    pub unexpected_hits: usize,
}

/// A fresh circuit the server compiled, kept as the hash of its
/// compiled-circuit bytes so the run does not hold every artifact.
#[derive(Debug, Clone)]
pub struct FreshRecord {
    /// Logical source.
    pub circuit: Circuit,
    /// `fnv1a64` of `encode_versioned(artifact.compiled())`.
    pub bytes_hash: u64,
    /// The request that compiled it.
    pub job: u64,
}

/// The loopback server, one client per load thread, and the logs the
/// output checks replay.
pub struct ServeLoad {
    /// The in-process server.
    pub server: Server,
    /// One connection per load thread.
    pub clients: Vec<Mutex<ServeClient>>,
    /// Circuits compiled into the cache during set-up.
    pub resident: Vec<(String, Circuit)>,
    resident_hash: Vec<u64>,
    fingerprint: u64,
    seed: u64,
    /// A compiler like the server's, for same-process compiles.
    local: Compiler,
    /// The resident set compiled by `local`, on first use.
    resident_local: OnceLock<Vec<(String, CompileArtifact)>>,
    /// Per-connection connect times, ms.
    pub connect_ms: Vec<f64>,
    /// Fresh circuits the server compiled.
    pub fresh: Mutex<Vec<FreshRecord>>,
    /// Resubmitted circuits: `(job, resident index, compiled bytes hash)`.
    pub hits: Mutex<Vec<(u64, usize, u64)>>,
    /// Remote simulations.
    pub sims: Mutex<Vec<SimRecord>>,
    /// Request timings.
    pub timings: Mutex<ServeTimings>,
}

impl ServeLoad {
    /// Binds the server, connects `threads` clients and compiles the
    /// resident set through the first one.
    pub fn new(seed: u64, threads: usize) -> ServeLoad {
        let server = Server::bind("127.0.0.1:0", serve_compiler(), ServerConfig::default())
            .expect("bind a loopback port");
        let addr = server.local_addr().to_string();
        let mut connect_ms = Vec::new();
        let clients = (0..threads)
            .map(|_| {
                let t0 = Instant::now();
                let client = ServeClient::connect(&addr).expect("connect to the loopback server");
                connect_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                Mutex::new(client)
            })
            .collect::<Vec<_>>();
        let resident = crate::mix::resident_circuits();
        let reports = clients[0]
            .lock()
            .expect("client poisoned")
            .compile_batch(resident.iter().map(|(_, c)| c.clone()).collect())
            .expect("resident set compiles");
        assert!(
            reports.iter().all(|r| r.result.is_ok()),
            "resident set compiles"
        );
        let fingerprint = server.supervisor().compiler().fingerprint();
        ServeLoad {
            resident_hash: resident.iter().map(|(_, c)| content_hash(c)).collect(),
            server,
            clients,
            resident,
            fingerprint,
            seed,
            local: serve_compiler(),
            resident_local: OnceLock::new(),
            connect_ms,
            fresh: Mutex::new(Vec::new()),
            hits: Mutex::new(Vec::new()),
            sims: Mutex::new(Vec::new()),
            timings: Mutex::new(ServeTimings::default()),
        }
    }

    /// The workload seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs request `index` on connection `thread`.
    pub fn job(&self, thread: usize, index: u64, tracer: &Tracer) -> Outcome {
        let request = serve_request(self.seed, index, &self.resident);
        let mut client = self.clients[thread].lock().expect("client poisoned");
        match request {
            Request::Fresh(specs) => {
                let circuits: Vec<Circuit> = specs.iter().map(|s| s.build()).collect();
                let span = tracer.begin(None, index);
                let reports = client.compile_batch(circuits.clone());
                let latency_s = tracer.end(span, "serve.compile_miss");
                let ok = self.note_compile(&reports, latency_s, false);
                if let Ok(reports) = &reports {
                    let records = circuits.iter().zip(reports).filter_map(|(c, r)| {
                        r.result.as_ref().ok().map(|a| FreshRecord {
                            circuit: c.clone(),
                            bytes_hash: compiled_hash(a),
                            job: index,
                        })
                    });
                    self.fresh
                        .lock()
                        .expect("fresh log poisoned")
                        .extend(records);
                }
                Outcome {
                    ok,
                    latency_s,
                    trajectories: 0,
                    sim: None,
                }
            }
            Request::Resubmit(picks) => {
                let circuits: Vec<Circuit> =
                    picks.iter().map(|&r| self.resident[r].1.clone()).collect();
                let span = tracer.begin(None, index);
                let reports = client.compile_batch(circuits);
                let latency_s = tracer.end(span, "serve.compile_hit");
                let ok = self.note_compile(&reports, latency_s, true);
                if let Ok(reports) = &reports {
                    let hashes = picks.iter().zip(reports).filter_map(|(&r, rep)| {
                        rep.result
                            .as_ref()
                            .ok()
                            .map(|a| (index, r, compiled_hash(a)))
                    });
                    self.hits.lock().expect("hit log poisoned").extend(hashes);
                }
                Outcome {
                    ok,
                    latency_s,
                    trajectories: 0,
                    sim: None,
                }
            }
            Request::Simulate { resident, seed } => {
                let source = ArtifactSource::Cached {
                    circuit_hash: self.resident_hash[resident],
                    fingerprint: self.fingerprint,
                };
                let span = tracer.begin(None, index);
                let t0 = span.start();
                let result = client.simulate(source, SERVE_SIM_TRAJECTORIES, seed, 0);
                let latency_s = tracer.end(span, "serve.simulate");
                let t1 = Instant::now();
                match result {
                    Ok(r) => {
                        let ok = r.fidelities.len() == SERVE_SIM_TRAJECTORIES;
                        self.sims.lock().expect("sim log poisoned").push(SimRecord {
                            job: index,
                            resident,
                            seed,
                            samples: r.fidelities,
                        });
                        Outcome {
                            ok,
                            latency_s,
                            trajectories: SERVE_SIM_TRAJECTORIES,
                            sim: Some((t0, t1)),
                        }
                    }
                    Err(_) => Outcome {
                        ok: false,
                        latency_s,
                        trajectories: 0,
                        sim: None,
                    },
                }
            }
        }
    }

    fn note_compile(
        &self,
        reports: &Result<Vec<JobReport>, quantum_waltz::serve::ClientError>,
        latency_s: f64,
        expect_cached: bool,
    ) -> bool {
        let Ok(reports) = reports else { return false };
        let mut t = self.timings.lock().expect("timing log poisoned");
        let slowest = reports.iter().map(|r| r.wall_ms).fold(0.0, f64::max);
        t.overhead_ms.push(latency_s * 1e3 - slowest);
        t.supervisor_job_ms
            .extend(reports.iter().map(|r| r.wall_ms));
        let cached = reports.iter().filter(|r| r.cached).count();
        if expect_cached {
            t.unexpected_misses += reports.len() - cached;
        } else {
            t.unexpected_hits += cached;
        }
        reports.iter().all(|r| r.result.is_ok())
    }

    /// Output checks: every fresh and every resubmitted artifact is
    /// byte-equal to a same-process compile and (at most 12 qubits) passes
    /// `verify::check` on one Haar-random input (hundreds of fresh
    /// circuits per run); every remote simulation is bit-equal to
    /// `Simulation::fidelity_samples` on the local artifact with the same
    /// seed. Returns the failing job indices and a description of each
    /// failure.
    pub fn check(&self) -> (Vec<u64>, Vec<String>) {
        let local = &self.local;
        let mut failed = Vec::new();
        let mut notes = Vec::new();
        if local.fingerprint() != self.fingerprint {
            notes.push("local and serving compiler fingerprints differ".to_string());
        }
        let fresh = self.fresh.lock().expect("fresh log poisoned").clone();
        for rec in &fresh {
            let mine = local.compile(&rec.circuit);
            match &mine {
                Ok(a) if compiled_hash(a) == rec.bytes_hash => {
                    let small = rec.circuit.n_qubits() <= 12;
                    if small && !verify::check(&rec.circuit, a, 1, self.seed).passed(1e-9) {
                        failed.push(rec.job);
                        notes.push(format!("job {} artifact failed verify::check", rec.job));
                    }
                }
                _ => {
                    failed.push(rec.job);
                    notes.push(format!(
                        "job {} artifact differs from a same-process compile",
                        rec.job
                    ));
                }
            }
        }
        let resident = self.resident_artifacts();
        let resident_hash: Vec<u64> = resident.iter().map(|(_, a)| compiled_hash(a)).collect();
        let hits = self.hits.lock().expect("hit log poisoned").clone();
        for (job, r, hash) in hits {
            if hash != resident_hash[r] {
                failed.push(job);
                notes.push(format!(
                    "job {job}: cached {} differs from a same-process compile",
                    self.resident[r].0
                ));
            }
        }
        let sims = self.sims.lock().expect("sim log poisoned").clone();
        for s in &sims {
            let expected = resident[s.resident]
                .1
                .simulate()
                .with_seed(s.seed)
                .fidelity_samples(SERVE_SIM_TRAJECTORIES);
            let equal = expected.len() == s.samples.len()
                && expected
                    .iter()
                    .zip(&s.samples)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !equal {
                failed.push(s.job);
                notes.push(format!(
                    "remote simulate of job {} differs from in-process samples",
                    s.job
                ));
            }
        }
        failed.sort_unstable();
        failed.dedup();
        (failed, notes)
    }

    /// The resident set compiled in this process by a compiler like the
    /// server's (compiled once, on first use).
    pub fn resident_artifacts(&self) -> &[(String, CompileArtifact)] {
        self.resident_local.get_or_init(|| {
            self.resident
                .iter()
                .map(|(n, c)| {
                    let a = self.local.compile(c).expect("resident circuits compile");
                    (n.clone(), a)
                })
                .collect()
        })
    }
}

/// Hash of an artifact's compiled-circuit bytes (pass wall times
/// excluded, so two compiles of one circuit by one process agree).
fn compiled_hash(artifact: &CompileArtifact) -> u64 {
    fnv1a64(&encode_versioned(artifact.compiled()))
}
