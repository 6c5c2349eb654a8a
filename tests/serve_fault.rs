//! Fault-injected failures crossing the serve wire
//! (`cargo test --features fault-inject --test serve_fault`): an
//! injected pass panic inside the server's worker pool must surface as
//! a typed INTERNAL error frame to the client that owns the job — and
//! to nobody else — and a transient fault's retry metadata (retried
//! flag, safe-pipeline degradation rung) must travel the wire intact.
//!
//! The fault plan is process-global, so every test holds the shared
//! [`LOCK`] and disarms on exit — the same discipline as
//! `tests/fault_injection.rs`.
#![cfg(feature = "fault-inject")]

use std::sync::Mutex;

use quantum_waltz::circuit::Circuit;
use quantum_waltz::core::fault::{self, FaultPlan};
use quantum_waltz::core::{
    CompileError, Compiler, Degradation, JobStatus, Pass, Strategy, SupervisorPolicy, Target,
};
use quantum_waltz::serve::{ServeClient, Server, ServerConfig};
use waltz_gates::Q1Gate;

/// Serializes the tests that arm the process-wide fault plan.
static LOCK: Mutex<()> = Mutex::new(());

/// Holds the plan lock for one test and disarms on drop, so a failing
/// assertion cannot leak an armed plan into the next test.
struct Armed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl<'a> Armed<'a> {
    fn arm(plan: FaultPlan) -> Self {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fault::arm(plan);
        Armed(guard)
    }
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        fault::disarm();
    }
}

/// Distinct per index: identical circuits would warm-hit the server's
/// artifact cache and replay without running any pass — including the
/// faulted one.
fn toffoli_chain(i: usize) -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0)
        .one(Q1Gate::Rz(0.3 + 0.01 * i as f64), 1)
        .ccx(0, 1, 2);
    c
}

fn compiler() -> Compiler {
    Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
}

#[test]
fn injected_pass_panic_reaches_only_the_owning_client() {
    let _armed = Armed::arm(FaultPlan {
        panic_in_pass: Some((Pass::Fuse, 1)),
        ..FaultPlan::default()
    });
    // No degraded retry: the injected panic is terminal for its job.
    let server = Server::bind(
        "127.0.0.1:0",
        compiler(),
        ServerConfig::default().with_policy(SupervisorPolicy::default().with_retry_degraded(false)),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Client A owns the faulted job (batch index 1); client B's
    // concurrent batch has only index 0 and must never hear about it.
    let (a_reports, b_reports) = std::thread::scope(|scope| {
        let a = {
            let addr = addr.clone();
            scope.spawn(move || {
                ServeClient::connect(addr)
                    .unwrap()
                    .compile_batch(vec![toffoli_chain(0), toffoli_chain(1), toffoli_chain(2)])
                    .expect("batch completes around the panic")
            })
        };
        let b = scope.spawn(move || {
            ServeClient::connect(addr)
                .unwrap()
                .compile_batch(vec![toffoli_chain(10)])
                .expect("healthy batch")
        });
        (a.join().unwrap(), b.join().unwrap())
    });

    // The faulted job came back to A as a typed internal error,
    // attributed to the injected pass; its siblings completed.
    assert_eq!(a_reports[0].status, JobStatus::Ok);
    assert_eq!(a_reports[2].status, JobStatus::Ok);
    assert_eq!(a_reports[1].status, JobStatus::Panicked);
    match &a_reports[1].result {
        Err(CompileError::Internal { pass, payload }) => {
            assert_eq!(*pass, Pass::Fuse);
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }

    // B's job shares the faulted index space (index 0) but not the
    // fault, and saw nothing of A's failure.
    assert_eq!(b_reports.len(), 1);
    assert_eq!(b_reports[0].status, JobStatus::Ok);

    let stats = server.shutdown();
    assert_eq!(stats.jobs_panicked, 1);
    assert_eq!(stats.jobs_completed, 3);
}

#[test]
fn transient_fault_retry_metadata_travels_the_wire() {
    let _armed = Armed::arm(FaultPlan {
        panic_in_pass: Some((Pass::Fuse, 0)),
        transient: true,
        ..FaultPlan::default()
    });
    let server = Server::bind("127.0.0.1:0", compiler(), ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();

    let reports = client
        .compile_batch(vec![toffoli_chain(20)])
        .expect("batch");
    let report = &reports[0];
    // The supervisor retried through the safe pipeline and succeeded;
    // the client sees the same recovery story an in-process caller
    // would: retried, degraded, artifact present.
    assert_eq!(report.status, JobStatus::Ok);
    assert!(report.retried);
    assert_eq!(report.degradation, Degradation::SafePipeline);
    assert!(report.result.is_ok());

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_panicked, 0, "the retry recovered the job");
}
