//! Set-up, the closed load loop, output checks and the end-to-end
//! metrics of one run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use quantum_waltz::core::{CompileArtifact, Compiler, Strategy, Target};
use quantum_waltz::sim::{TrajectoryPool, Workspace};

use crate::json::Json;
use crate::mix::serve_kind;
use crate::serve_load::ServeLoad;
use crate::stats::{median, min_samples_for, quantile};
use crate::trace::{union_ns, Tracer};
use crate::workloads::{verify_small, EstimateLoad, Outcome, QramLoad};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "cnu6q-noisy",
    "ladder-windowed",
    "qram-sparse",
    "serve-loopback",
];

/// Samples a run must leave beyond its p90: the percentile rule.
pub const MIN_BEYOND_P90: usize = 10;

/// Job indices at or above this offset are warm-up jobs (their seeds
/// never collide with timed jobs).
const WARMUP_BASE: u64 = 1 << 62;

/// A workload ready to take jobs. A process holds one, so variant sizes
/// do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Load {
    /// `cnu6q-noisy` / `ladder-windowed`.
    Estimate(EstimateLoad),
    /// `qram-sparse`.
    Qram(QramLoad),
    /// `serve-loopback`.
    Serve(ServeLoad),
}

impl Load {
    /// Runs job `index` on load thread `thread`.
    pub fn job(&self, thread: usize, index: u64, tracer: &Tracer) -> Outcome {
        match self {
            Load::Estimate(l) => l.job(index, tracer),
            Load::Qram(l) => l.job(index, tracer),
            Load::Serve(l) => l.job(thread, index, tracer),
        }
    }

    /// Jobs in one full cycle of the workload's plan (the warm-up runs
    /// one cycle, and the timed phase a whole number of them).
    pub fn cycle(&self) -> usize {
        match self {
            Load::Estimate(l) => l.cycle(),
            Load::Qram(_) => QramLoad::CYCLE,
            Load::Serve(_) => crate::mix::SERVE_BLOCK,
        }
    }

    /// The kind of job `index`, for per-kind latency percentiles.
    pub fn kind(&self, index: u64) -> String {
        match self {
            Load::Estimate(l) => l.kind(index),
            Load::Qram(_) => QramLoad::kind(index).to_string(),
            Load::Serve(l) => serve_kind(l.seed(), index).to_string(),
        }
    }

    /// The workload's distinct compiled artifacts with the number of
    /// jobs that compiled each: every (circuit, strategy) pair the
    /// in-process plans ran, the resident set on serve.
    pub fn artifacts(&self) -> Vec<(String, CompileArtifact, usize)> {
        match self {
            Load::Estimate(l) => l.store.artifacts(),
            Load::Qram(l) => l.store.artifacts(),
            Load::Serve(l) => l
                .resident_artifacts()
                .iter()
                .map(|(k, a)| (k.clone(), a.clone(), 0))
                .collect(),
        }
    }

    /// Per-strategy `(name, sum of estimate means, estimates)` on
    /// `cnu6q-noisy`, whose run checks the Fig. 7 ordering; empty
    /// elsewhere.
    pub fn fig7_tally(&self) -> Vec<(String, f64, usize)> {
        match self {
            Load::Estimate(l) if l.fig7 => l.fidelity_sums(),
            _ => Vec::new(),
        }
    }

    /// Ends the workload: on serve, closes the connections and shuts
    /// the server down.
    pub fn close(self) {
        if let Load::Serve(l) = self {
            drop(l.clients);
            l.server.shutdown();
        }
    }

    /// Closed-loop clients. In process, one: a user compiles and then
    /// waits for an estimate that already spreads over every core
    /// through the process-wide pool, whose lock would queue a second
    /// client behind the first. Serve: one per connection.
    pub fn threads(&self) -> usize {
        match self {
            Load::Serve(l) => l.clients.len(),
            _ => 1,
        }
    }
}

/// Serve connections: one per core, at most two.
pub fn serve_connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// What set-up measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Process start to the first timed job being ready, seconds.
    pub setup_s: f64,
    /// The first `Compiler::new` in the process (fuse calibration), ms.
    pub calibrate_ms: f64,
}

/// Builds `workload` and runs its warm-up, timing from `process_start`.
pub fn setup(workload: &str, seed: u64, process_start: Instant) -> (Load, SetupTimes) {
    let t0 = Instant::now();
    drop(Compiler::new(Target::paper(Strategy::qubit_only())));
    let calibrate_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(TrajectoryPool::global());
    drop(Workspace::new());
    let load = match workload {
        "cnu6q-noisy" => Load::Estimate(EstimateLoad::cnu6q(seed)),
        "ladder-windowed" => Load::Estimate(EstimateLoad::ladder(seed)),
        "qram-sparse" => Load::Qram(QramLoad::new(seed)),
        "serve-loopback" => Load::Serve(ServeLoad::new(seed, serve_connections())),
        other => panic!("unknown workload {other:?} (expected one of {WORKLOADS:?})"),
    };
    let quiet = Tracer::new(false);
    for k in 0..load.cycle() as u64 {
        let warm = load.job(0, WARMUP_BASE + k, &quiet);
        assert!(warm.ok, "warm-up job {k} of {workload} failed");
    }
    let setup_s = process_start.elapsed().as_secs_f64();
    (
        load,
        SetupTimes {
            setup_s,
            calibrate_ms,
        },
    )
}

/// Everything the closed loop measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopResult {
    /// `(kind, latency ms)` of every job, in completion order.
    pub jobs: Vec<(String, f64)>,
    /// Job indices that reported failure.
    pub failed: Vec<u64>,
    /// First job start to last job end, seconds.
    pub wall_s: f64,
    /// Trajectories completed.
    pub trajectories: usize,
    /// Union of the intervals spent inside estimate calls, seconds.
    pub sim_s: f64,
    /// The first job index the loop did not run.
    pub next: u64,
}

impl LoopResult {
    /// Jobs attempted.
    pub fn attempted(&self) -> usize {
        self.jobs.len()
    }

    /// Job latencies, ms, in completion order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(|(_, ms)| *ms).collect()
    }
}

/// Runs the closed loop: `threads` load threads each take the next job
/// index, from `first` on, as soon as their previous job returns. No
/// index is handed out once `seconds` have passed, at least `min_jobs`
/// have been handed out, and they make a whole number of plan cycles,
/// so every job kind of the plan runs equally often. `first` must be a
/// whole number of cycles.
pub fn closed_loop(
    load: &Load,
    threads: usize,
    first: u64,
    seconds: f64,
    min_jobs: usize,
    tracer: &Tracer,
) -> LoopResult {
    let cycle = load.cycle() as u64;
    assert!(first.is_multiple_of(cycle), "loops start on a cycle");
    // Jobs handed out so far, and whether the loop has closed.
    let claims = Mutex::new((0u64, false));
    let results: Mutex<Vec<(u64, Outcome)>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let claim = || {
        let mut c = claims.lock().expect("claim counter poisoned");
        let (handed, closed) = &mut *c;
        if !*closed
            && *handed >= min_jobs as u64
            && handed.is_multiple_of(cycle)
            && start.elapsed() >= budget
        {
            *closed = true;
        }
        if *closed {
            return None;
        }
        *handed += 1;
        Some(first + *handed - 1)
    };
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let (claim, results) = (&claim, &results);
            scope.spawn(move || {
                while let Some(index) = claim() {
                    let outcome = load.job(thread, index, tracer);
                    results
                        .lock()
                        .expect("result log poisoned")
                        .push((index, outcome));
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let results = results.into_inner().expect("result log poisoned");
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let intervals = results
        .iter()
        .filter_map(|(_, o)| o.sim)
        .map(|(a, b)| (ns(a), ns(b)))
        .collect();
    LoopResult {
        jobs: results
            .iter()
            .map(|(i, o)| (load.kind(*i), o.latency_s * 1e3))
            .collect(),
        failed: results
            .iter()
            .filter(|(_, o)| !o.ok)
            .map(|(i, _)| *i)
            .collect(),
        wall_s,
        trajectories: results.iter().map(|(_, o)| o.trajectories).sum(),
        sim_s: union_ns(intervals) as f64 / 1e9,
        next: first + claims.into_inner().expect("claim counter poisoned").0,
    }
}

/// The two halves of a traced run, each of about `seconds` and at least
/// one plan cycle: untraced from job 0, then traced from where the
/// untraced half stopped, so the traced half continues the workload's
/// mix rather than replaying it (a replayed serve request would hit the
/// server's cache).
pub fn traced_halves(
    load: &Load,
    threads: usize,
    seconds: f64,
    tracer: &Tracer,
) -> (LoopResult, LoopResult) {
    let cycle = load.cycle();
    let plain = closed_loop(load, threads, 0, seconds, cycle, &Tracer::new(false));
    let traced = closed_loop(load, threads, plain.next, seconds, cycle, tracer);
    (plain, traced)
}

/// Minimum jobs for each of `processes` processes that share a run:
/// enough for the p90 rule, split evenly, rounded up to whole cycles of
/// the plan.
pub fn min_jobs_per_process(cycle: usize, processes: usize) -> usize {
    min_samples_for(0.9, MIN_BEYOND_P90)
        .div_ceil(processes)
        .div_ceil(cycle)
        * cycle
}

/// Per-job output checks after the timed phase. Returns the failed job
/// indices (`reported` and those that fail a check) and notes on each
/// check failure. The run-aggregated Fig. 7 check is [`fig7_violation`].
pub fn check(load: &Load, reported: &[u64], seed: u64) -> (BTreeSet<u64>, Vec<String>) {
    let mut failed: BTreeSet<u64> = reported.iter().copied().collect();
    let mut notes = Vec::new();
    match load {
        Load::Estimate(l) => {
            let seen = l.store.snapshot();
            for key in verify_small(&seen, seed) {
                notes.push(format!("{key} failed verify::check"));
                failed.extend(seen[&key].jobs.iter().filter(|&&j| j < WARMUP_BASE));
            }
        }
        Load::Qram(l) => {
            let seen = l.store.snapshot();
            for key in verify_small(&seen, seed) {
                notes.push(format!("{key} failed verify::check"));
                failed.extend(seen[&key].jobs.iter().filter(|&&j| j < WARMUP_BASE));
            }
            let wrong = l.wrong_fetches.lock().expect("fetch log poisoned").clone();
            for j in wrong {
                notes.push(format!(
                    "fetch job {j} did not end on the expected basis state"
                ));
                failed.insert(j);
            }
        }
        Load::Serve(l) => {
            let (bad, n) = l.check();
            failed.extend(bad);
            notes.extend(n);
        }
    }
    failed.retain(|&j| j < WARMUP_BASE);
    (failed, notes)
}

/// The paper's Fig. 7 ordering over a run's per-strategy tally (in
/// strategy order, worst expected first): a note when the mean
/// fidelities do not strictly increase, `None` when they do or when the
/// run does not check it.
pub fn fig7_violation(tally: &[(String, f64, usize)]) -> Option<String> {
    let means: Vec<(&str, f64)> = tally
        .iter()
        .map(|(name, sum, n)| (name.as_str(), sum / (*n).max(1) as f64))
        .collect();
    let ordered = means.windows(2).all(|w| w[0].1 < w[1].1);
    (!ordered).then(|| format!("Fig. 7 ordering violated: {means:?}"))
}

/// Latency percentiles of each job kind: `{kind: {jobs, p50_ms, p90_ms,
/// mean_ms}}`.
pub fn by_kind(jobs: &[(String, f64)]) -> Json {
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (kind, ms) in jobs {
        kinds.entry(kind).or_default().push(*ms);
    }
    let mut out = Json::obj();
    for (kind, ms) in kinds {
        let mut row = Json::obj();
        row.set("jobs", ms.len())
            .set("p50_ms", median(&ms).unwrap_or(f64::NAN))
            .set("p90_ms", quantile(&ms, 0.9).unwrap_or(f64::NAN))
            .set("mean_ms", ms.iter().sum::<f64>() / ms.len() as f64);
        out.set(kind, row);
    }
    out
}

/// The end-to-end metrics of a run, as `(name, value, unit)`.
pub fn end_to_end(
    setup_s: f64,
    looped: &LoopResult,
    failed: usize,
    peak_rss_mib: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let n = looped.attempted();
    let lat = &looped.latencies_ms();
    vec![
        ("setup_s", setup_s, "s"),
        ("jobs_per_s", n as f64 / looped.wall_s, "1/s"),
        ("job_ms_p50", median(lat).unwrap_or(f64::NAN), "ms"),
        ("job_ms_p90", quantile(lat, 0.9).unwrap_or(f64::NAN), "ms"),
        (
            "traj_per_s",
            looped.trajectories as f64 / looped.sim_s.max(1e-12),
            "1/s",
        ),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
        (
            "ok_share",
            (n - failed.min(n)) as f64 / n.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
