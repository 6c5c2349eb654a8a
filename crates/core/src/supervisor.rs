//! The supervised batch engine: panic isolation, per-job deadlines and a
//! state-byte admission budget with a degradation ladder — the layer that
//! lets one poisoned job in a thousand-job sweep fail alone instead of
//! tearing down the batch (ROADMAP item 2, compile-and-simulate as a
//! service).
//!
//! A [`Supervisor`] wraps a [`Compiler`] with a [`SupervisorPolicy`] and
//! runs jobs through [`Supervisor::compile_one`] /
//! [`Supervisor::compile_batch`], producing one [`JobReport`] per job:
//!
//! * **Panic isolation** — each job runs under `catch_unwind`; a panic
//!   anywhere in the pipeline becomes [`CompileError::Internal`]
//!   attributed to the pass that raised it (every pass boundary marks
//!   itself in thread-local state via [`begin_pass`]), and every sibling
//!   job completes normally. When
//!   [`SupervisorPolicy::retry_degraded`] is on, a panicked job is
//!   retried once through a conservative pipeline (fusion and windowing
//!   off) before the error is accepted.
//! * **Deadlines** — [`SupervisorPolicy::deadline_ms`] bounds each job's
//!   wall clock; the pipeline checks it at every pass boundary and a job
//!   that runs over reports [`CompileError::DeadlineExceeded`].
//! * **Budget backpressure** — [`SupervisorPolicy::state_budget_bytes`]
//!   is an admission limit on the artifact's peak simulation state size
//!   ([`crate::CompiledCircuit::sim_state_bytes_peak`]). An over-budget
//!   job walks the degradation ladder — forced windowed registers, then
//!   the whole-program demoted register, then sparse admission of the
//!   original artifact when the analyze pass predicts its
//!   density-adaptive state fits ([`Degradation::Sparse`]) — and only
//!   when no rung fits does it reject with [`CompileError::OverBudget`]
//!   carrying the smallest dense peak any rung achieved. The budget is a live knob
//!   ([`Supervisor::set_budget_bytes`]): shrinking it mid-batch applies
//!   to every job admitted after the change.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use waltz_circuit::Circuit;

use crate::artifact::CompileArtifact;
use crate::compile::CompileError;
use crate::pipeline::{Compiler, Pass};
use crate::strategy::CompileOptions;

thread_local! {
    /// The pass currently running on this thread, so a supervisor's
    /// `catch_unwind` can attribute a caught panic.
    static CURRENT_PASS: Cell<Option<Pass>> = const { Cell::new(None) };
}

/// Pass-boundary hook of the pipeline ([`Compiler::compile`] routes every
/// pass through this): enforces the deadline, marks the pass as running
/// for panic attribution, and (under `fault-inject`) gives the fault plan
/// its chance to panic.
pub(crate) fn begin_pass(
    pass: Pass,
    deadline: Option<Instant>,
    budget_ms: u64,
) -> Result<(), CompileError> {
    if let Some(d) = deadline {
        if Instant::now() > d {
            return Err(CompileError::DeadlineExceeded { pass, budget_ms });
        }
    }
    CURRENT_PASS.with(|c| c.set(Some(pass)));
    #[cfg(feature = "fault-inject")]
    crate::fault::maybe_panic(pass);
    Ok(())
}

/// Clears and returns the running-pass marker (after a job attempt).
fn take_pass() -> Option<Pass> {
    CURRENT_PASS.with(Cell::take)
}

/// Renders a caught panic payload for [`CompileError::Internal`].
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-job supervision policy (see the module docs for the semantics of
/// each knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Wall-clock budget per job, in milliseconds; `None` leaves jobs
    /// unbounded. Enforced at pass boundaries, so the overshoot is at
    /// most one pass.
    pub deadline_ms: Option<u64>,
    /// Admission limit on the artifact's peak simulation state bytes;
    /// `None` admits everything. The starting value of the supervisor's
    /// live budget ([`Supervisor::set_budget_bytes`]).
    pub state_budget_bytes: Option<usize>,
    /// Retry a *panicked* job once through a conservative pipeline
    /// (fusion and windowed registers off) before accepting the error.
    /// On by default.
    pub retry_degraded: bool,
    /// Worker threads for [`Supervisor::compile_batch`]; `None` uses the
    /// machine's available parallelism. `Some(1)` makes batch order (and
    /// therefore mid-batch budget shrinks) deterministic.
    pub threads: Option<usize>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            deadline_ms: None,
            state_budget_bytes: None,
            retry_degraded: true,
            threads: None,
        }
    }
}

impl SupervisorPolicy {
    /// Sets the per-job wall-clock budget in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the state-byte admission budget.
    pub fn with_state_budget_bytes(mut self, bytes: usize) -> Self {
        self.state_budget_bytes = Some(bytes);
        self
    }

    /// Enables or disables the retry-once-with-degradation of panicked
    /// jobs (on by default).
    pub fn with_retry_degraded(mut self, enabled: bool) -> Self {
        self.retry_degraded = enabled;
        self
    }

    /// Pins the batch worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// How a supervised job ended — the coarse outcome classification derived
/// from [`JobReport::result`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Compiled (possibly after degradation — see
    /// [`JobReport::degradation`]).
    Ok,
    /// A typed input/validation failure ([`CompileError`] other than the
    /// supervision variants).
    Err,
    /// A pass panicked ([`CompileError::Internal`]).
    Panicked,
    /// The job ran past its deadline
    /// ([`CompileError::DeadlineExceeded`]).
    TimedOut,
    /// No degradation rung fit the state-byte budget
    /// ([`CompileError::OverBudget`]).
    OverBudget,
}

impl JobStatus {
    /// The coarse outcome classification of a job result — the one
    /// mapping [`JobReport::status`] is derived from, exposed so remote
    /// fronts reconstructing reports from typed error frames classify
    /// identically.
    pub fn classify(result: &Result<CompileArtifact, CompileError>) -> JobStatus {
        match result {
            Ok(_) => JobStatus::Ok,
            Err(CompileError::Internal { .. }) => JobStatus::Panicked,
            Err(CompileError::DeadlineExceeded { .. }) => JobStatus::TimedOut,
            Err(CompileError::OverBudget { .. }) => JobStatus::OverBudget,
            Err(_) => JobStatus::Err,
        }
    }
}

/// Which rung of the ladder produced a job's artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// The supervisor's own compiler options, untouched.
    None,
    /// The conservative retry pipeline after a panic (fusion and
    /// windowing off).
    SafePipeline,
    /// Forced windowed registers (maximal splitting) to fit the budget.
    Windowed,
    /// The whole-program demoted register to fit the budget.
    WholeDemoted,
    /// No register shape fit densely, but the analyze pass's sparse
    /// state-size prediction
    /// ([`crate::CompileArtifact::sparse_state_bytes_pred`]) does: the
    /// *original* artifact is admitted on the promise that a
    /// density-adaptive simulation (basis inputs, sparse amplitude map)
    /// stays within the budget. Dense random-input sweeps must not be
    /// run against such an artifact.
    Sparse,
}

/// The per-job outcome of a supervised compilation.
#[derive(Debug)]
pub struct JobReport {
    /// The job's index in the submitted batch.
    pub index: usize,
    /// The artifact, or the typed error that stopped the job.
    pub result: Result<CompileArtifact, CompileError>,
    /// Coarse outcome classification of `result`.
    pub status: JobStatus,
    /// The ladder rung that produced the artifact ([`Degradation::None`]
    /// for errors and undegraded successes).
    pub degradation: Degradation,
    /// Whether the job ran more than one pipeline attempt (panic retry or
    /// budget ladder).
    pub retried: bool,
    /// Whether the artifact was replayed from the compiler's
    /// [`crate::ArtifactCache`] instead of compiled fresh
    /// ([`CompileArtifact::is_cached`]). Cached artifacts still pass the
    /// live state-byte budget gate like any other. Always `false` for
    /// errors.
    pub cached: bool,
    /// Wall-clock time the job took, across all attempts, in
    /// milliseconds.
    pub wall_ms: f64,
}

impl JobReport {
    fn new(index: usize, result: Result<CompileArtifact, CompileError>) -> Self {
        let status = JobStatus::classify(&result);
        let cached = matches!(&result, Ok(artifact) if artifact.is_cached());
        JobReport {
            index,
            result,
            status,
            degradation: Degradation::None,
            retried: false,
            cached,
            wall_ms: 0.0,
        }
    }
}

/// A [`Compiler`] wrapped with per-job supervision (see the module docs).
///
/// # Example
///
/// ```
/// use waltz_core::{Compiler, JobStatus, Strategy, Supervisor, SupervisorPolicy, Target};
/// use waltz_circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0).ccx(0, 1, 2);
/// let supervisor = Supervisor::with_policy(
///     Compiler::new(Target::paper(Strategy::mixed_radix_ccz())),
///     SupervisorPolicy::default().with_state_budget_bytes(1 << 20),
/// );
/// for job in supervisor.compile_batch(&[c]) {
///     assert_eq!(job.status, JobStatus::Ok);
///     assert!(job.result.unwrap().timed.validate().is_ok());
/// }
/// ```
#[derive(Debug)]
pub struct Supervisor {
    compiler: Compiler,
    policy: SupervisorPolicy,
    /// The live state-byte budget; `usize::MAX` means unlimited. Jobs
    /// snapshot it at admission, so shrinking it mid-batch
    /// ([`Supervisor::set_budget_bytes`]) applies to every later job.
    budget: AtomicUsize,
    /// Pool that simulation work driven from this supervisor's jobs runs
    /// on (the serve layer's estimate requests); compile jobs themselves
    /// use the batch worker threads.
    traj_pool: std::sync::Arc<waltz_sim::TrajectoryPool>,
}

impl Supervisor {
    /// A supervisor with the default policy (no deadline, no budget,
    /// panic retry on).
    pub fn new(compiler: Compiler) -> Self {
        Supervisor::with_policy(compiler, SupervisorPolicy::default())
    }

    /// A supervisor with an explicit policy.
    pub fn with_policy(compiler: Compiler, policy: SupervisorPolicy) -> Self {
        let budget = AtomicUsize::new(policy.state_budget_bytes.unwrap_or(usize::MAX));
        Supervisor {
            compiler,
            policy,
            budget,
            traj_pool: waltz_sim::TrajectoryPool::global(),
        }
    }

    /// Replaces the [`waltz_sim::TrajectoryPool`] that simulation work
    /// attached to this supervisor runs on (defaults to the process-wide
    /// pool).
    pub fn with_trajectory_pool(mut self, pool: std::sync::Arc<waltz_sim::TrajectoryPool>) -> Self {
        self.traj_pool = pool;
        self
    }

    /// The pool simulation work attached to this supervisor runs on.
    pub fn trajectory_pool(&self) -> &std::sync::Arc<waltz_sim::TrajectoryPool> {
        &self.traj_pool
    }

    /// The wrapped compiler.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// The supervision policy.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// The current state-byte budget (`None` = unlimited).
    pub fn budget_bytes(&self) -> Option<usize> {
        let b = self.budget.load(Ordering::Relaxed);
        (b != usize::MAX).then_some(b)
    }

    /// Replaces the state-byte budget, mid-batch if needed: jobs admitted
    /// after the store see the new limit (backpressure under memory
    /// pressure), jobs already past admission keep their snapshot.
    pub fn set_budget_bytes(&self, bytes: Option<usize>) {
        self.budget
            .store(bytes.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// Aggregated counters of the wrapped compiler's
    /// [`crate::ArtifactCache`] (`None` when no cache is attached) — the
    /// sanctioned way to read cache effectiveness, instead of digging
    /// `artifact_cache_*` counters out of per-job Lower-pass diagnostics.
    pub fn cache_stats(&self) -> Option<crate::CacheStats> {
        self.compiler.artifact_cache().map(|c| c.stats())
    }

    /// Runs one job under full supervision.
    pub fn compile_one(&self, circuit: &Circuit) -> JobReport {
        self.run_job(0, circuit)
    }

    /// Runs one job under full supervision, reported as batch index
    /// `index` — the entry point for external batch fronts (a network
    /// service managing its own queue) that want per-job supervision and
    /// fault attribution identical to [`Supervisor::compile_batch`]'s.
    pub fn compile_indexed(&self, index: usize, circuit: &Circuit) -> JobReport {
        self.run_job(index, circuit)
    }

    /// Runs a batch of jobs across worker threads with the atomic-counter
    /// work-stealing loop (each worker repeatedly claims the next
    /// unclaimed circuit), one [`JobReport`] per circuit in submission
    /// order. Supervision is per job: panics, deadline overruns and
    /// budget rejections cost only their own job.
    pub fn compile_batch(&self, circuits: &[Circuit]) -> Vec<JobReport> {
        if circuits.is_empty() {
            return Vec::new();
        }
        let threads = self
            .policy
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(circuits.len())
            .max(1);
        // Completed-job counter driving the fault plan's mid-batch budget
        // shrink; kept (cheaply) in the default build to avoid divergent
        // loop shapes between the two configurations.
        let completed = AtomicUsize::new(0);
        let finish = |report: JobReport| -> JobReport {
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            #[cfg(feature = "fault-inject")]
            if let Some(bytes) = crate::fault::budget_after(done) {
                self.set_budget_bytes(Some(bytes));
            }
            #[cfg(not(feature = "fault-inject"))]
            let _ = done;
            report
        };
        if threads == 1 {
            return circuits
                .iter()
                .enumerate()
                .map(|(i, c)| finish(self.run_job(i, c)))
                .collect();
        }
        let mut results: Vec<Option<JobReport>> = (0..circuits.len()).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (next, finish) = (&next, &finish);
                    scope.spawn(move || {
                        let mut done: Vec<JobReport> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= circuits.len() {
                                return done;
                            }
                            done.push(finish(self.run_job(i, &circuits[i])));
                        }
                    })
                })
                .collect();
            for handle in handles {
                // Worker closures never panic — every job attempt runs
                // under catch_unwind inside run_job — so join() failing
                // would be a supervisor bug, not a job fault.
                for report in handle.join().expect("supervisor worker panicked") {
                    let slot = report.index;
                    results[slot] = Some(report);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every batch slot filled"))
            .collect()
    }

    /// One pipeline attempt under `catch_unwind`: a panic becomes
    /// [`CompileError::Internal`] attributed to the pass marked by
    /// [`begin_pass`].
    fn attempt(
        &self,
        compiler: &Compiler,
        circuit: &Circuit,
        deadline: Option<Instant>,
        budget_ms: u64,
    ) -> Result<CompileArtifact, CompileError> {
        // AssertUnwindSafe: the closure only borrows the compiler and the
        // circuit; the one cross-attempt structure a panic could leave
        // mid-update is the artifact cache, whose lock is poison-tolerant
        // and whose entries are only ever inserted whole.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            compiler.compile_until(circuit, deadline, budget_ms)
        }));
        match outcome {
            Ok(result) => {
                take_pass();
                result
            }
            Err(payload) => Err(CompileError::Internal {
                pass: take_pass().unwrap_or(Pass::Decompose),
                payload: payload_string(payload),
            }),
        }
    }

    /// The full per-job supervision sequence: attempt, panic retry,
    /// budget admission and the degradation ladder.
    fn run_job(&self, index: usize, circuit: &Circuit) -> JobReport {
        let t0 = Instant::now();
        // One deadline for the whole job: retries and ladder rungs spend
        // the same budget, not a fresh one each.
        let deadline = self
            .policy
            .deadline_ms
            .map(|ms| t0 + Duration::from_millis(ms));
        let budget_ms = self.policy.deadline_ms.unwrap_or(0);
        #[cfg(feature = "fault-inject")]
        crate::fault::set_job(index);

        let mut result = self.attempt(&self.compiler, circuit, deadline, budget_ms);
        let mut degradation = Degradation::None;
        let mut retried = false;

        // Panic retry: once, through a conservative pipeline. The retry
        // keeps the *first* error when it fails too.
        if self.policy.retry_degraded && matches!(result, Err(CompileError::Internal { .. })) {
            let safe = self
                .compiler
                .reoptioned(CompileOptions::unfused().with_windowed_registers(false));
            retried = true;
            if let Ok(artifact) = self.attempt(&safe, circuit, deadline, budget_ms) {
                result = Ok(artifact);
                degradation = Degradation::SafePipeline;
            }
        }

        // Budget admission: a successful artifact over the limit walks
        // the degradation ladder before rejecting.
        let limit = self.budget.load(Ordering::Relaxed);
        if limit != usize::MAX {
            if let Ok(artifact) = &result {
                let mut needed = artifact.sim_state_bytes_peak();
                let sparse_pred = artifact.sparse_state_bytes_pred();
                if needed > limit {
                    let base = *self.compiler.options();
                    let ladder = [
                        // Maximal windowing: splitting costs nothing
                        // fixed, so every worthwhile boundary survives
                        // and the peak is as small as the analysis can
                        // make it.
                        (Degradation::Windowed, {
                            let mut o = base;
                            o.padded_registers = false;
                            o.windowed_registers = true;
                            o.window_sweep_fixed = Some(0);
                            o
                        }),
                        // The PR 4 fallback: one whole-program demoted
                        // register, no reshapes.
                        (Degradation::WholeDemoted, {
                            let mut o = base;
                            o.padded_registers = false;
                            o.windowed_registers = false;
                            o
                        }),
                    ];
                    let mut admitted = None;
                    for (rung, options) in ladder {
                        if options == base {
                            continue; // identical to the attempt already made
                        }
                        retried = true;
                        match self.attempt(
                            &self.compiler.reoptioned(options),
                            circuit,
                            deadline,
                            budget_ms,
                        ) {
                            Ok(candidate) => {
                                let peak = candidate.sim_state_bytes_peak();
                                needed = needed.min(peak);
                                if peak <= limit {
                                    admitted = Some((rung, candidate));
                                    break;
                                }
                            }
                            Err(_) => continue,
                        }
                    }
                    match admitted {
                        Some((rung, candidate)) => {
                            result = Ok(candidate);
                            degradation = rung;
                        }
                        // Last rung: no dense register shape fits, but
                        // the sparse state-size prediction does — admit
                        // the *original* artifact for density-adaptive
                        // simulation. `needed` keeps reporting the dense
                        // requirement so a rejection (prediction also
                        // over budget) stays honest about what a dense
                        // run would take. `WALTZ_SPARSE=0` closes this
                        // rung: forced-dense simulation of such an
                        // artifact would blow the very budget it was
                        // admitted under.
                        None if waltz_sim::sparse_enabled()
                            && sparse_pred.is_some_and(|bytes| bytes <= limit) =>
                        {
                            degradation = Degradation::Sparse;
                        }
                        None => result = Err(CompileError::OverBudget { needed, limit }),
                    }
                }
            }
        }

        let mut report = JobReport::new(index, result);
        report.degradation = if report.result.is_ok() {
            degradation
        } else {
            Degradation::None
        };
        report.retried = retried;
        report.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use crate::target::Target;

    fn ladder_circuit() -> Circuit {
        // cnu-6q's compute half: disjoint ENC windows, so the windowed
        // and whole-demoted registers genuinely differ.
        let mut c = Circuit::new(6);
        c.ccx(0, 1, 3).ccx(2, 3, 4).ccx(2, 4, 5);
        c
    }

    #[test]
    fn unsupervised_defaults_match_plain_compile() {
        let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
        let supervisor = Supervisor::new(compiler.clone());
        let circuit = ladder_circuit();
        let job = supervisor.compile_one(&circuit);
        assert_eq!(job.status, JobStatus::Ok);
        assert_eq!(job.degradation, Degradation::None);
        assert!(!job.retried);
        assert!(job.wall_ms >= 0.0);
        let plain = compiler.compile(&circuit).unwrap();
        let supervised = job.result.unwrap();
        assert_eq!(supervised.timed.len(), plain.timed.len());
        assert_eq!(
            supervised.timed.register.dims(),
            plain.timed.register.dims()
        );
    }

    #[test]
    fn typed_errors_report_as_err_not_panic() {
        let supervisor = Supervisor::new(Compiler::new(Target::paper(Strategy::qubit_only())));
        let job = supervisor.compile_one(&Circuit::new(0));
        assert_eq!(job.status, JobStatus::Err);
        assert_eq!(job.result.unwrap_err(), CompileError::EmptyCircuit);
    }

    #[test]
    fn deadline_zero_times_out_before_the_first_pass() {
        let supervisor = Supervisor::with_policy(
            Compiler::new(Target::paper(Strategy::mixed_radix_ccz())),
            SupervisorPolicy::default().with_deadline_ms(0),
        );
        // A zero deadline is already expired at the first boundary check.
        std::thread::sleep(Duration::from_millis(2));
        let job = supervisor.compile_one(&ladder_circuit());
        assert_eq!(job.status, JobStatus::TimedOut);
        assert_eq!(
            job.result.unwrap_err(),
            CompileError::DeadlineExceeded {
                pass: Pass::Decompose,
                budget_ms: 0
            }
        );
    }

    #[test]
    fn generous_budget_admits_without_degradation() {
        let supervisor = Supervisor::with_policy(
            Compiler::new(Target::paper(Strategy::mixed_radix_ccz())),
            SupervisorPolicy::default().with_state_budget_bytes(1 << 28),
        );
        let job = supervisor.compile_one(&ladder_circuit());
        assert_eq!(job.status, JobStatus::Ok);
        assert_eq!(job.degradation, Degradation::None);
    }

    #[test]
    fn impossible_budget_rejects_with_the_ladder_minimum() {
        let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
        let circuit = ladder_circuit();
        // The windowed rung's peak is the smallest any rung achieves.
        let windowed_peak = compiler
            .reoptioned(crate::CompileOptions::default().with_window_sweep_fixed(0))
            .compile(&circuit)
            .unwrap()
            .sim_state_bytes_peak();
        let supervisor = Supervisor::with_policy(
            compiler,
            SupervisorPolicy::default().with_state_budget_bytes(1),
        );
        let job = supervisor.compile_one(&circuit);
        assert_eq!(job.status, JobStatus::OverBudget);
        assert!(job.retried);
        assert_eq!(
            job.result.unwrap_err(),
            CompileError::OverBudget {
                needed: windowed_peak,
                limit: 1
            }
        );
    }

    #[test]
    fn tight_budget_degrades_to_windowed() {
        // A compiler pinned to whole-program registers: its own compile
        // busts the budget, and the ladder's windowed rung rescues it.
        let compiler = Compiler::with_options(
            Target::paper(Strategy::mixed_radix_ccz()),
            crate::CompileOptions::default().with_windowed_registers(false),
        );
        let circuit = ladder_circuit();
        let whole_peak = compiler.compile(&circuit).unwrap().sim_state_bytes_peak();
        let windowed_peak = compiler
            .reoptioned(crate::CompileOptions::default().with_window_sweep_fixed(0))
            .compile(&circuit)
            .unwrap()
            .sim_state_bytes_peak();
        assert!(
            windowed_peak < whole_peak,
            "ladder test needs a circuit whose windowed peak ({windowed_peak}) \
             beats the whole-program one ({whole_peak})"
        );
        let supervisor = Supervisor::with_policy(
            compiler,
            SupervisorPolicy::default().with_state_budget_bytes(windowed_peak),
        );
        let job = supervisor.compile_one(&circuit);
        assert_eq!(job.status, JobStatus::Ok);
        assert_eq!(job.degradation, Degradation::Windowed);
        assert!(job.retried);
        assert!(job.result.unwrap().sim_state_bytes_peak() <= windowed_peak);
    }

    #[test]
    fn sparse_rung_admits_the_original_artifact() {
        // A permutation-only circuit: X/CX pulses never grow the
        // basis-input support, so the analyze pass predicts a one-entry
        // sparse state no matter how large the dense register is.
        let mut circuit = Circuit::new(6);
        circuit.x(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cx(4, 5);
        let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
        let artifact = compiler.compile(&circuit).unwrap();
        let pred = artifact
            .sparse_state_bytes_pred()
            .expect("analyze records the sparse prediction");
        let dense_peak = artifact.sim_state_bytes_peak();
        assert!(
            pred < dense_peak,
            "sparse-rung test needs a circuit whose sparse prediction ({pred}) \
             beats the dense peak ({dense_peak})"
        );
        // A budget below every dense rung but above the prediction: only
        // the sparse rung can admit.
        let windowed_opts = crate::CompileOptions::default()
            .with_windowed_registers(true)
            .with_window_sweep_fixed(0);
        let whole_opts = crate::CompileOptions::default().with_windowed_registers(false);
        let rung_min = [windowed_opts, whole_opts]
            .into_iter()
            .map(|o| {
                compiler
                    .reoptioned(o)
                    .compile(&circuit)
                    .unwrap()
                    .sim_state_bytes_peak()
            })
            .min()
            .unwrap()
            .min(dense_peak);
        let budget = rung_min - 1;
        assert!(pred <= budget);
        let supervisor = Supervisor::with_policy(
            compiler,
            SupervisorPolicy::default().with_state_budget_bytes(budget),
        );
        let job = supervisor.compile_one(&circuit);
        if waltz_sim::sparse_enabled() {
            assert_eq!(job.status, JobStatus::Ok);
            assert_eq!(job.degradation, Degradation::Sparse);
            assert!(job.retried);
            // The rung admits the *original* artifact: its dense peak
            // still exceeds the budget — only the adaptive engine fits.
            let admitted = job.result.unwrap();
            assert!(admitted.sim_state_bytes_peak() > budget);
            assert_eq!(admitted.sparse_state_bytes_pred(), Some(pred));
        } else {
            // WALTZ_SPARSE=0 closes the rung: forced-dense simulation
            // cannot honor a sparse admission.
            assert_eq!(job.status, JobStatus::OverBudget);
        }
    }

    #[test]
    fn live_budget_knob_applies_to_later_jobs() {
        let supervisor = Supervisor::with_policy(
            Compiler::new(Target::paper(Strategy::mixed_radix_ccz())),
            SupervisorPolicy::default().with_threads(1),
        );
        assert_eq!(supervisor.budget_bytes(), None);
        let first = supervisor.compile_one(&ladder_circuit());
        assert_eq!(first.status, JobStatus::Ok);
        supervisor.set_budget_bytes(Some(1));
        assert_eq!(supervisor.budget_bytes(), Some(1));
        let second = supervisor.compile_one(&ladder_circuit());
        assert_eq!(second.status, JobStatus::OverBudget);
        supervisor.set_budget_bytes(None);
        let third = supervisor.compile_one(&ladder_circuit());
        assert_eq!(third.status, JobStatus::Ok);
    }

    #[test]
    fn batch_reports_keep_submission_order() {
        let mut circuits = Vec::new();
        for n in 2..6 {
            let mut c = Circuit::new(n);
            c.h(0);
            for q in 1..n {
                c.cx(q - 1, q);
            }
            circuits.push(c);
        }
        circuits.push(Circuit::new(0)); // one poisoned job
        let supervisor = Supervisor::new(Compiler::new(Target::paper(Strategy::qubit_only())));
        let reports = supervisor.compile_batch(&circuits);
        assert_eq!(reports.len(), circuits.len());
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.index, i);
        }
        assert!(reports[..4].iter().all(|r| r.status == JobStatus::Ok));
        assert_eq!(reports[4].status, JobStatus::Err);
        assert!(supervisor.compile_batch(&[]).is_empty());
    }
}
