//! Untraced runs spread their timed phase over several processes of
//! this binary, run one after another, and pool what they measured.
//! Every process runs the library's once-per-process fuse calibration
//! afresh, so the pooled figures average over several calibrations
//! instead of riding on one, `setup_s` is the median of several
//! set-ups, and the run record shows whether the processes calibrated
//! and compiled alike.
//!
//! A worker prints its report on standard output as tab-separated
//! lines, `<key>\t<fields>`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::config::{artifacts_json, fingerprints, runtime_config};
use crate::layers::exact_counts;
use crate::run::{check, closed_loop, min_jobs_per_process, peak_rss_mib, setup, LoopResult};
use crate::trace::Tracer;

/// Processes an untraced run spreads over.
pub const WORKERS: usize = 3;

/// What one worker process measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerReport {
    /// Process start to the first timed job being ready, seconds.
    pub setup_s: f64,
    /// The first `Compiler::new` of the process, ms.
    pub calibrate_ms: f64,
    /// The timed phase; `failed` holds the jobs that reported failure or
    /// failed a per-job output check.
    pub looped: LoopResult,
    /// A note on each check failure.
    pub notes: Vec<String>,
    /// `VmHWM` after the timed phase, MiB.
    pub rss_mib: f64,
    /// Per-strategy Fig. 7 tally (`cnu6q-noisy` only).
    pub fig7: Vec<(String, f64, usize)>,
    /// Exact counts of the process's compiled artifacts.
    pub counts: BTreeMap<String, f64>,
    /// `(compiler, fingerprint)` of every compiler the load built.
    pub fingerprints: Vec<(String, String)>,
    /// The resolved runtime configuration, rendered JSON.
    pub config: String,
    /// Every distinct artifact with its exact counts, rendered JSON.
    pub artifacts: String,
}

impl WorkerReport {
    /// The report as tab-separated lines.
    pub fn render(&self) -> String {
        let mut lines = vec![
            format!("setup_s\t{}", self.setup_s),
            format!("calibrate_ms\t{}", self.calibrate_ms),
            format!("wall_s\t{}", self.looped.wall_s),
            format!("sim_s\t{}", self.looped.sim_s),
            format!("trajectories\t{}", self.looped.trajectories),
            format!("next\t{}", self.looped.next),
            format!(
                "failed\t{}",
                self.looped
                    .failed
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!("rss_mib\t{}", self.rss_mib),
            format!("config\t{}", self.config),
            format!("artifacts\t{}", self.artifacts),
        ];
        lines.extend(
            self.looped
                .jobs
                .iter()
                .map(|(kind, ms)| format!("job\t{kind}\t{ms}")),
        );
        lines.extend(
            self.fig7
                .iter()
                .map(|(name, sum, n)| format!("fig7\t{name}\t{sum}\t{n}")),
        );
        lines.extend(self.counts.iter().map(|(k, v)| format!("count\t{k}\t{v}")));
        lines.extend(
            self.fingerprints
                .iter()
                .map(|(k, v)| format!("fingerprint\t{k}\t{v}")),
        );
        lines.extend(
            self.notes
                .iter()
                .map(|n| format!("note\t{}", n.replace(['\t', '\n'], " "))),
        );
        lines.join("\n")
    }

    /// Parses [`WorkerReport::render`] output.
    pub fn parse(text: &str) -> WorkerReport {
        fn num<T: std::str::FromStr>(field: &str) -> T {
            field
                .parse()
                .unwrap_or_else(|_| panic!("worker report: bad number {field:?}"))
        }
        let mut r = WorkerReport::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let (key, rest) = line.split_once('\t').unwrap_or((line, ""));
            let f: Vec<&str> = rest.split('\t').collect();
            match key {
                "setup_s" => r.setup_s = num(f[0]),
                "calibrate_ms" => r.calibrate_ms = num(f[0]),
                "wall_s" => r.looped.wall_s = num(f[0]),
                "sim_s" => r.looped.sim_s = num(f[0]),
                "trajectories" => r.looped.trajectories = num(f[0]),
                "next" => r.looped.next = num(f[0]),
                "failed" => r.looped.failed = f[0].split_whitespace().map(num).collect(),
                "rss_mib" => r.rss_mib = num(f[0]),
                "config" => r.config = rest.to_string(),
                "artifacts" => r.artifacts = rest.to_string(),
                "job" => r.looped.jobs.push((f[0].to_string(), num(f[1]))),
                "fig7" => r.fig7.push((f[0].to_string(), num(f[1]), num(f[2]))),
                "count" => {
                    r.counts.insert(f[0].to_string(), num(f[1]));
                }
                "fingerprint" => r.fingerprints.push((f[0].to_string(), f[1].to_string())),
                "note" => r.notes.push(rest.to_string()),
                other => panic!("worker report: unknown line {other:?}"),
            }
        }
        r
    }
}

/// Runs worker `index` of `workers` in this process: set-up, its share
/// of the timed phase (`seconds`, at least its share of the jobs the p90
/// rule asks for, from job index `index` × 2^32 cycles on), the per-job
/// output checks and the exact counts.
pub fn run_worker(
    workload: &str,
    seed: u64,
    seconds: f64,
    index: usize,
    workers: usize,
    process_start: Instant,
) -> WorkerReport {
    let (load, times) = setup(workload, seed, process_start);
    let cycle = load.cycle();
    let first = ((index * cycle) as u64) << 32;
    let min = if seconds > 0.0 {
        min_jobs_per_process(cycle, workers)
    } else {
        0
    };
    let threads = load.threads();
    let mut looped = closed_loop(&load, threads, first, seconds, min, &Tracer::new(false));
    let rss_mib = peak_rss_mib();
    let (failed, notes) = check(&load, &looped.failed, seed);
    looped.failed = failed.into_iter().collect();
    let report = WorkerReport {
        setup_s: times.setup_s,
        calibrate_ms: times.calibrate_ms,
        looped,
        notes,
        rss_mib,
        fig7: load.fig7_tally(),
        counts: exact_counts(&load, seed),
        fingerprints: fingerprints(&load),
        config: runtime_config(&load, threads).render(),
        artifacts: artifacts_json(&load).render(),
    };
    load.close();
    report
}

/// Starts worker `index` of `workers` as a process of `exe`, waits for
/// it, passes its standard error through, and parses its report.
pub fn spawn_worker(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    index: usize,
    workers: usize,
) -> WorkerReport {
    let out = Command::new(exe)
        .args([
            "--worker",
            &format!("{index}/{workers}"),
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .expect("start a worker process");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        out.status.success(),
        "worker {index} failed: {}",
        out.status
    );
    WorkerReport::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Whether every report saw the same exact counts.
pub fn counts_agree(reports: &[WorkerReport]) -> bool {
    reports.windows(2).all(|w| w[0].counts == w[1].counts)
}
