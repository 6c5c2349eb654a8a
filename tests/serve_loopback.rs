//! Loopback acceptance for the compile-and-simulate service: batches
//! submitted over TCP by concurrent clients come back element-wise
//! identical to an in-process `Supervisor::compile_batch` (status,
//! degradation, compiled-circuit bytes — wall clock excluded, it is the
//! one field that cannot reproduce), warm resubmissions replay from the
//! server's shared artifact cache, backpressure and failed jobs arrive
//! as typed error frames scoped to the owning client, and remote
//! simulation streams the exact trajectory fidelities a local replay of
//! the same seed produces. Round trips never wait on a delayed ACK:
//! hundreds of pings and chunked simulate streams on one connection
//! finish in well under a second.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use quantum_waltz::circuit::Circuit;
use quantum_waltz::core::{
    CompileArtifact, CompileError, CompiledCircuit, Compiler, JobReport, JobStatus, Pass, Strategy,
    Supervisor, SupervisorPolicy, Target,
};
use quantum_waltz::serve::{
    ArtifactSource, BatchEvent, BatchOptions, ClientError, ErrorCode, ServeClient, Server,
    ServerConfig,
};
use waltz_codec::{content_hash, encode_to_vec};
use waltz_gates::Q1Gate;

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 16;

/// The compiler both sides of every parity check use: a default one,
/// whose checked-in cost constants make artifacts process- and
/// host-independent, so the server and the in-process reference produce
/// the same bytes.
fn compiler() -> Compiler {
    Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
}

/// Deterministic, pairwise-distinct circuits (the `Rz` angle encodes the
/// index) so cold-parity runs never collide in the server's shared
/// cache.
fn distinct_circuit(i: usize) -> Circuit {
    let n = 3 + (i % 4);
    let mut c = Circuit::new(n);
    c.h(i % n)
        .one(Q1Gate::Rz(0.1 + 0.01 * i as f64), (i + 1) % n)
        .ccx(0, 1, 2);
    if n > 3 {
        c.cx(2, 3);
    }
    if i.is_multiple_of(2) {
        c.ccz(0, 1, 2);
    } else {
        c.cswap(0, 1, 2);
    }
    c
}

/// The compiled payload both sides must agree on byte for byte. Pass
/// reports stay out: their wall-clock fields are measurements, not
/// artifacts.
fn compiled_bytes(report: &JobReport) -> Vec<u8> {
    let artifact = report.result.as_ref().expect("job produced an artifact");
    let compiled: &CompiledCircuit = artifact;
    encode_to_vec(compiled)
}

/// One shared parity server; individual tests that need special
/// policies (tiny queues, budgets, deadlines) bind their own.
static SERVER: OnceLock<Server> = OnceLock::new();

fn server() -> &'static Server {
    SERVER.get_or_init(|| {
        Server::bind("127.0.0.1:0", compiler(), ServerConfig::default()).expect("bind loopback")
    })
}

fn connect() -> ServeClient {
    ServeClient::connect(server().local_addr().to_string()).expect("connect")
}

#[test]
fn concurrent_clients_match_in_process_compile_batch() {
    // 64 distinct circuits fan out over 4 concurrent connections; each
    // chunk must come back element-wise identical to compiling it
    // directly on an in-process supervisor (fresh compiler, no cache).
    let chunks: Vec<Vec<Circuit>> = (0..CLIENTS)
        .map(|k| {
            (0..PER_CLIENT)
                .map(|j| distinct_circuit(k * PER_CLIENT + j))
                .collect()
        })
        .collect();

    let addr = server().local_addr().to_string();
    let remote: Vec<Vec<JobReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let addr = addr.clone();
                let chunk = chunk.clone();
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    client.compile_batch(chunk).expect("batch")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = Supervisor::new(compiler());
    for (k, (chunk, remote_reports)) in chunks.iter().zip(&remote).enumerate() {
        let local_reports = reference.compile_batch(chunk);
        assert_eq!(remote_reports.len(), local_reports.len());
        for (r, l) in remote_reports.iter().zip(&local_reports) {
            assert_eq!(r.index, l.index);
            assert_eq!(r.status, l.status, "client {k} job {}", r.index);
            assert_eq!(r.status, JobStatus::Ok);
            assert_eq!(r.degradation, l.degradation);
            assert!(!r.cached, "disjoint circuits cannot warm-hit");
            assert_eq!(
                compiled_bytes(r),
                compiled_bytes(l),
                "client {k} job {}: remote and in-process compiled bytes drifted",
                r.index
            );
        }
    }
}

#[test]
fn warm_resubmission_replays_from_the_shared_cache() {
    // A batch all its own (offset far past the parity set), submitted
    // cold by one connection and warm by a *different* connection: the
    // cache is server-wide, not per-client.
    let batch: Vec<Circuit> = (9000..9004).map(distinct_circuit).collect();

    let cold = connect().compile_batch(batch.clone()).expect("cold batch");
    assert!(cold.iter().all(|r| !r.cached && r.status == JobStatus::Ok));

    let warm = connect().compile_batch(batch).expect("warm batch");
    for (w, c) in warm.iter().zip(&cold) {
        assert!(w.cached, "job {} did not hit the shared cache", w.index);
        assert_eq!(w.status, JobStatus::Ok);
        let artifact = w.result.as_ref().unwrap();
        assert!(artifact.is_cached());
        // The replay still carries all stored pass reports — nothing
        // re-ran, everything was restored.
        assert_eq!(artifact.reports().len(), Pass::ALL.len());
        assert_eq!(compiled_bytes(w), compiled_bytes(c));
    }

    let stats = server().stats();
    assert!(stats.jobs_cached >= warm.len() as u64);
    let cache = stats.cache.expect("server cache attached");
    assert!(cache.hits >= warm.len() as u64);
}

#[test]
fn oversized_batch_is_rejected_with_queue_full() {
    // All-or-nothing admission: a batch larger than the queue can ever
    // hold is declined up front with a typed backpressure frame and
    // nothing enqueued; the connection stays usable.
    let server = Server::bind(
        "127.0.0.1:0",
        compiler(),
        ServerConfig::default().with_queue_capacity(4),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();

    let big: Vec<Circuit> = (0..5).map(distinct_circuit).collect();
    match client.submit_batch(big, BatchOptions::default()) {
        Err(ClientError::Server(frame)) => {
            assert_eq!(frame.code, ErrorCode::QUEUE_FULL);
            assert!(frame.job.is_none(), "backpressure is connection-scoped");
        }
        other => panic!("expected QUEUE_FULL, got {other:?}"),
    }

    // Same connection, admissible batch: serves normally.
    let small: Vec<Circuit> = (0..2).map(distinct_circuit).collect();
    let reports = client.compile_batch(small).expect("small batch");
    assert!(reports.iter().all(|r| r.status == JobStatus::Ok));

    let stats = server.shutdown();
    assert_eq!(stats.jobs_rejected, 5);
    assert_eq!(stats.jobs_completed, 2);
}

#[test]
fn failed_jobs_surface_as_typed_errors_to_the_owning_client_only() {
    let addr = server().local_addr().to_string();

    // Client A's batch mixes invalid circuits among healthy ones;
    // client B streams a healthy batch concurrently on its own
    // connection.
    let bad_batch = vec![
        Circuit::new(0), // EmptyCircuit
        distinct_circuit(7100),
        Circuit::new(0),
    ];
    let good_batch: Vec<Circuit> = (7200..7206).map(distinct_circuit).collect();

    let (bad_reports, good_reports) = std::thread::scope(|scope| {
        let a = {
            let addr = addr.clone();
            let batch = bad_batch.clone();
            scope.spawn(move || {
                ServeClient::connect(addr)
                    .unwrap()
                    .compile_batch(batch)
                    .expect("batch with failures still completes")
            })
        };
        let b = {
            let batch = good_batch.clone();
            scope.spawn(move || {
                ServeClient::connect(addr)
                    .unwrap()
                    .compile_batch(batch)
                    .expect("healthy batch")
            })
        };
        (a.join().unwrap(), b.join().unwrap())
    });

    // A sees its failures as reconstructed supervisor reports...
    assert_eq!(bad_reports.len(), 3);
    for index in [0, 2] {
        assert_eq!(bad_reports[index].status, JobStatus::Err);
        assert!(matches!(
            bad_reports[index].result,
            Err(CompileError::EmptyCircuit)
        ));
    }
    assert_eq!(bad_reports[1].status, JobStatus::Ok);

    // ...and B's stream never carried a frame about them: every report
    // is an Ok job inside B's own index space.
    assert_eq!(good_reports.len(), good_batch.len());
    for (i, report) in good_reports.iter().enumerate() {
        assert_eq!(report.index, i);
        assert_eq!(report.status, JobStatus::Ok);
    }
}

#[test]
fn over_budget_and_deadline_jobs_surface_with_their_codes() {
    // A 64-byte state budget rejects even a 3-qubit register: the
    // supervisor's structured OverBudget travels the wire intact.
    let server = Server::bind(
        "127.0.0.1:0",
        compiler(),
        ServerConfig::default()
            .with_policy(SupervisorPolicy::default().with_state_budget_bytes(64)),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
    let reports = client
        .compile_batch(vec![distinct_circuit(7300)])
        .expect("batch completes");
    assert_eq!(reports[0].status, JobStatus::OverBudget);
    match &reports[0].result {
        Err(CompileError::OverBudget { needed, limit }) => {
            assert_eq!(*limit, 64);
            assert!(*needed > 64);
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    assert!(reports[0].retried, "the budget ladder ran");
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.jobs_over_budget, 1);

    // A zero deadline trips at the first pass boundary: DeadlineExceeded
    // end to end.
    let server = Server::bind(
        "127.0.0.1:0",
        compiler(),
        ServerConfig::default().with_policy(SupervisorPolicy::default().with_deadline_ms(0)),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
    let reports = client
        .compile_batch(vec![distinct_circuit(7301)])
        .expect("batch completes");
    assert_eq!(reports[0].status, JobStatus::TimedOut);
    assert!(matches!(
        reports[0].result,
        Err(CompileError::DeadlineExceeded { .. })
    ));
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.jobs_timed_out, 1);
}

#[test]
fn remote_simulation_matches_a_local_replay_of_the_same_seed() {
    let circuit = distinct_circuit(7400);
    let mut client = connect();
    let reports = client
        .compile_batch(vec![circuit.clone()])
        .expect("compile");
    let artifact: &CompileArtifact = reports[0].result.as_ref().unwrap();

    // By cache reference: the client never ships artifact bytes. The
    // fingerprint is reproducible client-side because the compiler's
    // cost constants are pinned.
    let fingerprint = compiler().fingerprint();
    let seed = 7u64;
    let trajectories = 24;
    let remote = client
        .simulate(
            ArtifactSource::Cached {
                circuit_hash: content_hash(&circuit),
                fingerprint,
            },
            trajectories,
            seed,
            5, // deliberately not a divisor of 24: exercises the tail chunk
        )
        .expect("remote simulate");
    assert_eq!(remote.fidelities.len(), trajectories);

    // Local replay of the server's exact sampler, on the artifact the
    // wire delivered: bit-for-bit the same stream of fidelities. Seeds
    // derive from (request seed, trajectory index), so this holds for
    // any trajectory-pool width on either side.
    let local = artifact
        .simulate()
        .with_seed(seed)
        .fidelity_samples(trajectories);
    assert_eq!(
        remote.fidelities, local,
        "remote stream drifted from local replay"
    );
    let mean = local.iter().sum::<f64>() / trajectories as f64;
    assert_eq!(remote.mean, mean);

    // Shipping the artifact inline reaches the same code path and the
    // same numbers.
    let inline = client
        .simulate(
            ArtifactSource::Inline(Box::new(artifact.clone())),
            trajectories,
            seed,
            0, // 0 = server default chunking
        )
        .expect("inline simulate");
    assert_eq!(inline.fidelities, remote.fidelities);

    // A dangling cache reference is a typed miss, and the connection
    // survives it.
    match client.simulate(
        ArtifactSource::Cached {
            circuit_hash: 0xdead,
            fingerprint: 0xbeef,
        },
        4,
        0,
        0,
    ) {
        Err(ClientError::Server(frame)) => assert_eq!(frame.code, ErrorCode::NOT_FOUND),
        other => panic!("expected NOT_FOUND, got {other:?}"),
    }
    assert_eq!(client.ping(1).expect("still connected"), 1);
}

#[test]
fn round_trips_on_one_connection_never_wait_on_delayed_acks() {
    // With Nagle's algorithm on the server socket, a frame written while
    // the previous segment is unacknowledged waits for the client's
    // delayed ACK, at least 40 ms on Linux. A frame written as a header
    // and then a payload pays it once per response (200 pings: ~9 s); a
    // chunked simulate stream (16 one-trajectory chunks plus the summary
    // = 17 frames here) pays it about once per simulate even when each
    // frame is a single write (20 simulates: ~0.9 s, inside the overall
    // bound — the medians catch it). Without either stall all of this
    // takes tens of milliseconds.
    let circuit = distinct_circuit(7800);
    let mut client = connect();
    let reports = client
        .compile_batch(vec![circuit.clone()])
        .expect("compile");
    assert_eq!(reports[0].status, JobStatus::Ok);
    let (circuit_hash, fingerprint) = (content_hash(&circuit), compiler().fingerprint());

    let t0 = Instant::now();
    let mut pings = Vec::new();
    for token in 0..200u64 {
        let t = Instant::now();
        assert_eq!(client.ping(token).expect("ping"), token);
        pings.push(t.elapsed());
    }
    let mut simulates = Vec::new();
    for seed in 0..20u64 {
        let source = ArtifactSource::Cached {
            circuit_hash,
            fingerprint,
        };
        let t = Instant::now();
        let result = client.simulate(source, 16, seed, 1).expect("simulate");
        simulates.push(t.elapsed());
        assert_eq!(result.fidelities.len(), 16);
    }
    let wall = t0.elapsed();
    assert!(
        wall < Duration::from_secs(2),
        "200 pings + 20 chunked simulates took {wall:?}"
    );
    // Medians, so one descheduled round trip cannot fail the test; the
    // bound sits at half the delayed-ACK floor.
    let median = |times: &mut Vec<Duration>| {
        times.sort();
        times[times.len() / 2]
    };
    let stall = Duration::from_millis(20);
    let ping = median(&mut pings);
    assert!(
        ping < stall,
        "median ping {ping:?}: the reply waited on an ACK"
    );
    let simulate = median(&mut simulates);
    assert!(
        simulate < stall,
        "median 17-frame simulate {simulate:?}: a frame waited on an ACK"
    );
}

#[test]
fn cancel_drops_queued_jobs_and_the_tally_accounts_for_every_job() {
    // One worker so the queue stays deep; cancel right after admission.
    let server = Server::bind(
        "127.0.0.1:0",
        compiler(),
        ServerConfig::default().with_workers(1),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
    let n = 8;
    let batch: Vec<Circuit> = (7500..7500 + n).map(distinct_circuit).collect();
    let mut stream = client
        .submit_batch(batch, BatchOptions::default())
        .expect("admitted");
    stream.cancel().expect("cancel sent");

    let mut done = 0usize;
    let mut tally = None;
    while let Some(event) = stream.next_event().expect("stream") {
        match event {
            BatchEvent::Done(report) => {
                assert!(report.index < n);
                done += 1;
                let _ = report;
            }
            BatchEvent::Complete {
                ok,
                failed,
                cancelled,
            } => tally = Some((ok, failed, cancelled)),
            BatchEvent::Update { .. } => {}
        }
    }
    let (ok, failed, cancelled) = tally.expect("stream closed with a tally");
    assert_eq!(ok + failed + cancelled, n, "every job accounted for");
    assert_eq!(ok, done, "one Done frame per completed job");
    assert_eq!(failed, 0);

    // The connection survives a cancelled batch.
    let reports = client
        .compile_batch(vec![distinct_circuit(7600)])
        .expect("post-cancel batch");
    assert_eq!(reports[0].status, JobStatus::Ok);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.jobs_cancelled as usize, cancelled);
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let server = Server::bind(
        "127.0.0.1:0",
        compiler(),
        ServerConfig::default().with_workers(2),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
    let batch: Vec<Circuit> = (7700..7706).map(distinct_circuit).collect();
    let reports = client.compile_batch(batch).expect("batch");
    assert!(reports.iter().all(|r| r.status == JobStatus::Ok));
    drop(client);

    let stats = server.shutdown();
    assert_eq!(stats.jobs_accepted, 6);
    assert_eq!(stats.jobs_completed, 6);
    assert_eq!(stats.queue_depth, 0, "shutdown drained the queue");
    assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    // Fresh compiles aggregated wall time into the per-pass ledger.
    assert_eq!(stats.pass_wall_ms.len(), Pass::ALL.len());
}
