//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics, traced runs the per-layer metrics. Each run
//! also writes its configuration, artifacts, per-kind latencies and
//! (traced) spans to `.bench_out/<workload>-seed<n>-trace<t>.json`.
//!
//! An untraced run spreads its timed phase over [`WORKERS`] processes of
//! this binary, one after another (`--worker <i>/<n>` is that internal
//! mode: the process prints a worker report instead of a result). A
//! traced run stays in one process.

use std::time::Instant;

use perfbench::json::Json;
use perfbench::run::{self, by_kind, check, end_to_end, fig7_violation, setup, Load, LoopResult};
use perfbench::stats::median;
use perfbench::trace::{self, Tracer};
use perfbench::workers::{counts_agree, run_worker, spawn_worker, WorkerReport, WORKERS};
use perfbench::{config, layers};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `(index, workers)` in worker mode.
    worker: Option<(usize, usize)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        worker: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().expect("--seed takes an integer"),
            "--seconds" => args.seconds = value().parse().expect("--seconds takes a number"),
            "--trace" => args.trace = value() == "1",
            "--worker" => {
                let v = value();
                let (i, n) = v.split_once('/').expect("--worker takes <index>/<workers>");
                args.worker = Some((
                    i.parse().expect("worker index"),
                    n.parse().expect("worker count"),
                ));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    assert!(
        run::WORKLOADS.contains(&args.workload.as_str()),
        "--workload must be one of {:?}",
        run::WORKLOADS
    );
    assert!(args.seconds >= 0.0, "--seconds must not be negative");
    args
}

/// A run's metrics, job counts and output-check notes.
struct Outcome {
    metrics: Vec<(String, f64, String)>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

/// An untraced run: [`WORKERS`] worker processes, pooled.
fn untraced(args: &Args, out: &mut Json) -> Outcome {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let share = args.seconds / WORKERS as f64;
    let reports: Vec<WorkerReport> = (0..WORKERS)
        .map(|i| spawn_worker(&exe, &args.workload, args.seed, share, i, WORKERS))
        .collect();
    let mut pooled = LoopResult::default();
    let mut tally: Vec<(String, f64, usize)> = Vec::new();
    let mut notes = Vec::new();
    let mut failed = 0;
    for r in &reports {
        pooled.jobs.extend(r.looped.jobs.iter().cloned());
        pooled.wall_s += r.looped.wall_s;
        pooled.sim_s += r.looped.sim_s;
        pooled.trajectories += r.looped.trajectories;
        failed += r.looped.failed.len();
        notes.extend(r.notes.iter().cloned());
        for (i, (name, sum, n)) in r.fig7.iter().enumerate() {
            if tally.len() <= i {
                tally.push((name.clone(), 0.0, 0));
            }
            tally[i].1 += sum;
            tally[i].2 += n;
        }
    }
    let attempted = pooled.attempted();
    if let Some(note) = fig7_violation(&tally) {
        notes.push(note);
        failed = attempted;
    }
    let setups: Vec<f64> = reports.iter().map(|r| r.setup_s).collect();
    let rss = reports.iter().map(|r| r.rss_mib).fold(f64::NAN, f64::max);
    let processes: Vec<Json> = reports.iter().map(process_json).collect();
    out.set("processes", Json::Arr(processes))
        .set("counts_agree", counts_agree(&reports))
        .set("job_samples", attempted)
        .set("by_kind", by_kind(&pooled.jobs))
        .set("jobs", jobs_json(&pooled.jobs));
    let metrics = end_to_end(
        median(&setups).expect("set-up samples"),
        &pooled,
        failed,
        rss,
    )
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
    .collect();
    Outcome {
        metrics,
        attempted,
        failed,
        notes,
    }
}

/// Every job as `[kind, ms]`, so other shares of the job kinds can be
/// evaluated from the same run.
fn jobs_json(jobs: &[(String, f64)]) -> Json {
    Json::Arr(
        jobs.iter()
            .map(|(kind, ms)| Json::Arr(vec![kind.as_str().into(), (*ms).into()]))
            .collect(),
    )
}

/// One worker's part of the run record.
fn process_json(r: &WorkerReport) -> Json {
    let mut counts = Json::obj();
    for (k, v) in &r.counts {
        counts.set(k, *v);
    }
    let mut fp = Json::obj();
    for (k, v) in &r.fingerprints {
        fp.set(k, v.as_str());
    }
    let mut o = Json::obj();
    o.set("setup_s", r.setup_s)
        .set("calibrate_ms", r.calibrate_ms)
        .set("jobs", r.looped.attempted())
        .set("wall_s", r.looped.wall_s)
        .set("failed", r.looped.failed.len())
        .set("rss_mib", r.rss_mib)
        .set("fingerprints", fp)
        .set("counts", counts)
        .set("config", Json::Raw(r.config.clone()))
        .set("artifacts", Json::Raw(r.artifacts.clone()));
    o
}

/// A traced run, in this process: half the budget untraced, half traced
/// (the difference is the tracing overhead), then the layer probes.
fn traced(args: &Args, process_start: Instant, out: &mut Json) -> Outcome {
    let (load, times) = setup(&args.workload, args.seed, process_start);
    let threads = load.threads();
    let baseline = match &load {
        Load::Serve(l) => Some(l.server.stats()),
        _ => None,
    };
    let tracer = Tracer::new(true);
    let (plain, traced) = run::traced_halves(&load, threads, args.seconds / 2.0, &tracer);
    let reported: Vec<u64> = plain.failed.iter().chain(&traced.failed).copied().collect();
    let (failed, mut notes) = check(&load, &reported, args.seed);
    let attempted = plain.attempted() + traced.attempted();
    let mut failed = failed.len();
    if let Some(note) = fig7_violation(&load.fig7_tally()) {
        notes.push(note);
        failed = attempted;
    }
    let layer = layers::measure(
        &load,
        &tracer,
        &plain,
        &traced,
        times.calibrate_ms,
        args.seed,
        baseline.as_ref(),
    );
    for w in &layer.warnings {
        eprintln!("WARNING: {w}");
    }
    out.set("config", config::runtime_config(&load, threads))
        .set("artifacts", config::artifacts_json(&load))
        .set("by_kind", by_kind(&plain.jobs))
        .set("layers", layer.detail.clone())
        .set("spans", trace::to_json(&tracer.spans()));
    load.close();
    Outcome {
        metrics: layer.metrics,
        attempted,
        failed,
        notes,
    }
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args();
    if let Some((index, workers)) = args.worker {
        let report = run_worker(
            &args.workload,
            args.seed,
            args.seconds,
            index,
            workers,
            process_start,
        );
        println!("{}", report.render());
        return;
    }
    for (k, v) in config::overrides_in_effect() {
        eprintln!("warning: {k}={v} overrides the library's runtime choice; figures are not comparable to a default run");
    }
    let mut out = Json::obj();
    out.set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace);
    let run = if args.trace {
        traced(&args, process_start, &mut out)
    } else {
        untraced(&args, &mut out)
    };
    for n in &run.notes {
        eprintln!("check failed: {n}");
    }
    out.set("check_notes", run.notes.clone());

    let mut m = Json::obj();
    for (name, value, unit) in &run.metrics {
        let mut v = Json::obj();
        v.set("value", *value).set("unit", unit.as_str());
        m.set(name, v);
    }
    out.set("metrics", m.clone());
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out.render())) {
        Ok(()) => eprintln!("run record: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    let mut result = Json::obj();
    result
        .set("correct", run.failed == 0)
        .set("attempted", run.attempted)
        .set("failed", run.failed)
        .set("metrics", m);
    println!("{}", result.render());
}
