//! The serve protocol's wire contract: the current frame stream is pinned by
//! a golden-bytes fixture (regenerate with `WALTZ_REGEN_GOLDEN=1` — only
//! when `PROTOCOL_VERSION` revs, with a matching fixture filename), and
//! a live server answers malformed, truncated, oversized and
//! foreign-version frames with typed [`ErrorFrame`]s — never a panic,
//! never a silent hang — while staying healthy for the next connection.
//! Well-formed but hostile requests (a simulate naming an absurd
//! trajectory count) get a typed frame too, and the same connection
//! keeps serving.

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use quantum_waltz::arch::Site;
use quantum_waltz::circuit::Circuit;
use quantum_waltz::core::{
    CompileArtifact, CompileError, CompileOptions, CompiledCircuit, Compiler, Strategy, Target,
};
use quantum_waltz::math::Matrix;
use quantum_waltz::serve::protocol::{read_frame, read_message, write_frame};
use quantum_waltz::serve::{
    ArtifactSource, BatchOptions, ClientError, ErrorCode, ErrorFrame, FrameError, JobPhase,
    Request, Response, ServeClient, Server, ServerConfig, StatsSnapshot, FRAME_MAGIC,
    MAX_FRAME_BYTES, MAX_SIM_TRAJECTORIES, PROTOCOL_VERSION,
};
use quantum_waltz::sim::TimedOp;
use waltz_gates::Q1Gate;

/// One shared loopback server for every hostile-input test: the point is
/// exactly that no amount of garbage takes it down for the next case.
static SERVER: OnceLock<Server> = OnceLock::new();

fn server() -> &'static Server {
    SERVER.get_or_init(|| {
        let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
        Server::bind("127.0.0.1:0", compiler, ServerConfig::default()).expect("bind loopback")
    })
}

fn connect_raw() -> TcpStream {
    let stream = TcpStream::connect(server().local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// Builds one frame by hand so every header field can be forged.
fn raw_frame(magic: [u8; 4], version: u32, declared_len: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(12 + payload.len());
    bytes.extend_from_slice(&magic);
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&declared_len.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Writes hostile bytes, closes the write side, and returns the typed
/// error frame the server answers with.
fn send_expect_error(bytes: &[u8]) -> ErrorFrame {
    let mut stream = connect_raw();
    stream.write_all(bytes).expect("write garbage");
    stream.shutdown(Shutdown::Write).unwrap();
    match read_message::<_, Response>(&mut stream).expect("server answers before closing") {
        Response::Error(frame) => {
            assert!(frame.job.is_none(), "hostile frames are connection-scoped");
            frame
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// The server must keep serving after hostile input: a fresh connection
/// round-trips a ping.
fn assert_server_alive() {
    let mut client = ServeClient::connect(server().local_addr().to_string()).expect("reconnect");
    assert_eq!(client.ping(0xabad1dea).expect("ping"), 0xabad1dea);
}

// ---------------------------------------------------------------------
// Deterministic hostile inputs
// ---------------------------------------------------------------------

#[test]
fn foreign_version_answers_unsupported_version() {
    let payload = waltz_codec::encode_to_vec(&Request::Ping { token: 7 });
    let bytes = raw_frame(
        FRAME_MAGIC,
        PROTOCOL_VERSION + 1,
        payload.len() as u32,
        &payload,
    );
    let frame = send_expect_error(&bytes);
    assert_eq!(frame.code, ErrorCode::UNSUPPORTED_VERSION);
    assert_server_alive();
}

#[test]
fn oversized_declared_length_answers_frame_too_large() {
    // The length is validated before any allocation, so no payload needs
    // to follow the header.
    let bytes = raw_frame(FRAME_MAGIC, PROTOCOL_VERSION, u32::MAX, &[]);
    let frame = send_expect_error(&bytes);
    assert_eq!(frame.code, ErrorCode::FRAME_TOO_LARGE);
    assert_server_alive();
}

#[test]
fn truncated_header_answers_malformed_frame() {
    let frame = send_expect_error(&raw_frame(FRAME_MAGIC, PROTOCOL_VERSION, 64, &[])[..5]);
    assert_eq!(frame.code, ErrorCode::MALFORMED_FRAME);
    assert_server_alive();
}

#[test]
fn truncated_payload_answers_malformed_frame() {
    // Header promises 100 payload bytes; only 10 arrive before EOF.
    let bytes = raw_frame(FRAME_MAGIC, PROTOCOL_VERSION, 100, &[0u8; 10]);
    let frame = send_expect_error(&bytes);
    assert_eq!(frame.code, ErrorCode::MALFORMED_FRAME);
    assert_server_alive();
}

#[test]
fn undecodable_payload_answers_malformed_frame() {
    for payload in [
        vec![200u8],   // no such request tag
        vec![0u8],     // Ping missing its token
        vec![0u8; 15], // Ping with trailing bytes
        Vec::new(),    // empty payload
    ] {
        let bytes = raw_frame(
            FRAME_MAGIC,
            PROTOCOL_VERSION,
            payload.len() as u32,
            &payload,
        );
        let frame = send_expect_error(&bytes);
        assert_eq!(
            frame.code,
            ErrorCode::MALFORMED_FRAME,
            "payload {payload:?}"
        );
    }
    assert_server_alive();
}

#[test]
fn clean_close_gets_no_error_frame() {
    let mut stream = connect_raw();
    stream.shutdown(Shutdown::Write).unwrap();
    // The server hangs up without a frame: a clean close is not an error.
    assert!(matches!(
        read_message::<_, Response>(&mut stream),
        Err(FrameError::Closed) | Err(FrameError::Io(_))
    ));
    assert_server_alive();
}

#[test]
fn hostile_trajectory_counts_answer_over_budget_on_a_live_connection() {
    // Well-formed simulates of a real cached artifact whose sample vector
    // alone would need 8 MiB + 8 bytes, 8 TiB (1 << 40) or more than the
    // address space (usize::MAX). Each is declined with a typed frame
    // before anything is allocated for it — unchecked, 1 << 40 asks the
    // allocator for 8 TiB, and a failed allocation aborts the whole
    // server — and the same connection answers the next request.
    let mut client = ServeClient::connect(server().local_addr().to_string()).expect("connect");
    let mut c = Circuit::new(3);
    c.h(0).ccx(0, 1, 2);
    let reports = client.compile_batch(vec![c.clone()]).expect("compile");
    assert!(reports[0].result.is_ok());
    let cached = || ArtifactSource::Cached {
        circuit_hash: waltz_codec::content_hash(&c),
        fingerprint: server().supervisor().compiler().fingerprint(),
    };
    for trajectories in [MAX_SIM_TRAJECTORIES + 1, 1 << 40, usize::MAX] {
        match client.simulate(cached(), trajectories, 1, 0) {
            Err(ClientError::Server(frame)) => {
                assert_eq!(frame.code, ErrorCode::OVER_BUDGET, "{trajectories}");
                assert!(frame.job.is_none(), "the refusal is connection-scoped");
            }
            Err(other) => panic!("{trajectories} trajectories: expected OVER_BUDGET, got {other}"),
            Ok(run) => panic!(
                "{trajectories} trajectories: expected OVER_BUDGET, ran {}",
                run.fidelities.len()
            ),
        }
        assert_eq!(client.ping(7).expect("same connection"), 7);
    }
    // A count within the cap still runs on the same connection.
    let result = client.simulate(cached(), 8, 1, 0).expect("simulate");
    assert_eq!(result.fidelities.len(), 8);
}

#[test]
fn hostile_inline_artifact_answers_malformed_frame_on_a_live_connection() {
    // A full-ququart artifact whose 3-level device keeps its
    // slot-0 qubit (level 2) and is handed a second qubit in slot 1
    // (level 1): its input would need level 3. Unchecked, the simulate's
    // input writer panics ("register clips level(s) ..."); the codec's
    // placement checks reject the artifact while decoding the request,
    // and the connection keeps serving.
    let mut c = Circuit::new(5);
    c.h(0).ccx(0, 1, 2);
    let artifact = Compiler::new(Target::paper(Strategy::full_ququart()))
        .compile(&c)
        .expect("compile");
    let mut hostile = artifact.compiled().clone();
    let first = hostile.sim_schedule().first_register().clone();
    let q = (0..5)
        .find(|&q| {
            let site = hostile.initial_sites[q];
            site.slot == 0 && first.dim(site.device) == 3
        })
        .expect("a slot-0 qubit on a 3-level device");
    let device = hostile.initial_sites[q].device;
    let other = (0..5)
        .find(|&p| hostile.initial_sites[p].device != device)
        .expect("a qubit on another device");
    hostile.initial_sites[other] = Site::new(device, 1);
    assert_eq!(
        waltz_codec::encode_to_vec(artifact.compiled()).len(),
        waltz_codec::encode_to_vec(&hostile).len(),
        "sites encode at a fixed width"
    );
    let message = simulate_forged_inline(&artifact, &hostile, 41);
    assert!(message.contains("level"), "{message}");

    // Schedules the runners would panic on: each defect sits in one
    // pulse of an unfused qubit-only artifact's simulation schedule,
    // which decode validates. Unchecked, an operand past the register
    // panicked inside decode (the connection's reader died without an
    // answer); the others decoded and panicked mid-simulate — a repeated
    // operand at zero duration in the kernel's operand check, a
    // non-square unitary on its first apply, an error dimension above
    // its device on the first Pauli drawn (fidelity 0 draws one every
    // trajectory).
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2);
    let artifact = Compiler::with_options(
        Target::paper(Strategy::qubit_only()),
        CompileOptions::unfused(),
    )
    .compile(&c)
    .expect("compile");
    let n = artifact.sim.first_register().n_qudits();
    let pair = artifact.sim.segments[0]
        .ops
        .iter()
        .position(|op| op.operands.len() == 2 && op.noise_events.is_none())
        .expect("a two-qubit pulse");
    let forge = |edit: fn(&mut TimedOp, usize)| {
        let mut hostile = artifact.compiled().clone();
        edit(&mut hostile.sim.segments[0].ops[pair], n);
        hostile
    };
    let cases = [
        forge(|op, n| op.operands[0] = n),
        forge(|op, _| {
            op.operands[1] = op.operands[0];
            op.duration_ns = 0.0;
        }),
        forge(|op, _| op.unitary = Matrix::zeros(4, 3)),
        forge(|op, _| {
            op.error_dims = vec![2, 4];
            op.fidelity = 0.0;
        }),
    ];
    for (token, hostile) in (42..).zip(&cases) {
        let message = simulate_forged_inline(&artifact, hostile, token);
        assert!(message.contains("schedule invariants"), "{message}");
    }
    assert_server_alive();
}

/// Sends a Simulate request carrying `artifact` inline with its compiled
/// circuit's bytes replaced by `hostile`'s, expects a connection-scoped
/// `MALFORMED_FRAME`, then pings with `token` on the same connection and
/// returns the error frame's message.
fn simulate_forged_inline(
    artifact: &CompileArtifact,
    hostile: &CompiledCircuit,
    token: u64,
) -> String {
    let honest = waltz_codec::encode_to_vec(artifact.compiled());
    let forged = waltz_codec::encode_to_vec(hostile);
    let mut payload = waltz_codec::encode_to_vec(&Request::Simulate {
        source: ArtifactSource::Inline(Box::new(artifact.clone())),
        trajectories: 8,
        seed: 1,
        chunk: 0,
    });
    let at = payload
        .windows(honest.len())
        .position(|w| w == honest.as_slice())
        .expect("the request carries the artifact's bytes");
    payload.splice(at..at + honest.len(), forged);

    let mut stream = connect_raw();
    let frame = raw_frame(
        FRAME_MAGIC,
        PROTOCOL_VERSION,
        payload.len() as u32,
        &payload,
    );
    stream.write_all(&frame).expect("write");
    let message = match read_message::<_, Response>(&mut stream).expect("an answer") {
        Response::Error(frame) => {
            assert_eq!(frame.code, ErrorCode::MALFORMED_FRAME);
            assert!(frame.job.is_none(), "the refusal is connection-scoped");
            frame.message
        }
        other => panic!("expected an error frame, got {other:?}"),
    };
    write_frame(&mut stream, &Request::Ping { token }).expect("same connection");
    match read_message::<_, Response>(&mut stream).expect("pong") {
        Response::Pong { token: got } => assert_eq!(got, token),
        other => panic!("expected a pong, got {other:?}"),
    }
    message
}

// ---------------------------------------------------------------------
// Fuzzed hostile inputs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fuzzed_magic_never_panics_the_server(
        m in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
        junk in proptest::collection::vec(0u8..=255, 0..48),
    ) {
        let mut magic = [m.0, m.1, m.2, m.3];
        if magic == FRAME_MAGIC {
            magic[0] ^= 0xff;
        }
        let bytes = raw_frame(magic, PROTOCOL_VERSION, junk.len() as u32, &junk);
        let frame = send_expect_error(&bytes);
        prop_assert_eq!(frame.code, ErrorCode::MALFORMED_FRAME);
    }

    #[test]
    fn fuzzed_foreign_version_is_always_typed(version in PROTOCOL_VERSION + 1..u32::MAX) {
        let bytes = raw_frame(FRAME_MAGIC, version, 0, &[]);
        let frame = send_expect_error(&bytes);
        prop_assert_eq!(frame.code, ErrorCode::UNSUPPORTED_VERSION);
    }

    #[test]
    fn fuzzed_garbage_payload_is_always_typed(
        tag in 5u8..=255,
        junk in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // Tag >= 5 is outside the request vocabulary, so the payload is
        // guaranteed undecodable no matter what follows.
        let mut payload = vec![tag];
        payload.extend_from_slice(&junk);
        let bytes = raw_frame(FRAME_MAGIC, PROTOCOL_VERSION, payload.len() as u32, &payload);
        let frame = send_expect_error(&bytes);
        prop_assert_eq!(frame.code, ErrorCode::MALFORMED_FRAME);
    }

    #[test]
    fn read_frame_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        // The pure decoder half of the same contract: any byte soup is a
        // clean Ok or a typed FrameError, never a panic.
        let _ = read_frame(&mut &bytes[..]);
    }
}

#[test]
fn server_survives_the_whole_gauntlet() {
    // Runs after the other tests in this binary only by accident of
    // being rechecked here: one more full round trip through a healthy
    // client proves the shared server outlived every hostile case above.
    let mut client = ServeClient::connect(server().local_addr().to_string()).unwrap();
    let mut c = Circuit::new(3);
    c.h(0).ccx(0, 1, 2);
    let reports = client.compile_batch(vec![c]).unwrap();
    assert_eq!(reports.len(), 1);
    assert!(reports[0].result.is_ok());
}

// ---------------------------------------------------------------------
// Protocol constants and the golden frame stream
// ---------------------------------------------------------------------

#[test]
fn error_codes_are_pinned_protocol_constants() {
    // These numeric values are wire contract: changing any of them (or
    // the protocol version / magic) requires a PROTOCOL_VERSION bump and
    // a regenerated golden fixture.
    assert_eq!(PROTOCOL_VERSION, 2);
    assert_eq!(&FRAME_MAGIC, b"WSRV");
    assert_eq!(MAX_FRAME_BYTES, 64 << 20);
    assert_eq!(ErrorCode::MALFORMED_FRAME.0, 1);
    assert_eq!(ErrorCode::UNSUPPORTED_VERSION.0, 2);
    assert_eq!(ErrorCode::FRAME_TOO_LARGE.0, 3);
    assert_eq!(ErrorCode::UNEXPECTED_MESSAGE.0, 4);
    assert_eq!(ErrorCode::QUEUE_FULL.0, 5);
    assert_eq!(ErrorCode::SHUTTING_DOWN.0, 6);
    assert_eq!(ErrorCode::INVALID_CIRCUIT.0, 7);
    assert_eq!(ErrorCode::INTERNAL.0, 8);
    assert_eq!(ErrorCode::DEADLINE_EXCEEDED.0, 9);
    assert_eq!(ErrorCode::OVER_BUDGET.0, 10);
    assert_eq!(ErrorCode::NOT_FOUND.0, 11);
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("protocol_v{PROTOCOL_VERSION}.bin"))
}

/// The fixed circuit riding in the golden SubmitBatch frame: every gate
/// tag the circuit wire format defines, deterministic order.
fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(6);
    c.h(0)
        .one(Q1Gate::Rz(0.75), 1)
        .one(Q1Gate::Rx(-1.25), 2)
        .x(3)
        .cx(0, 1)
        .cz(1, 2)
        .swap(2, 3)
        .ccx(0, 1, 3)
        .ccz(2, 3, 4)
        .cswap(3, 4, 5)
        .csdg(4, 5);
    c
}

const GOLDEN_REQUESTS: usize = 5;
const GOLDEN_RESPONSES: usize = 8;

/// Every deterministic message the protocol defines, framed back to
/// back: five requests then eight responses. (JobDone is the one
/// deliberate omission — a compiled artifact embeds wall-clock pass
/// times, which are not reproducible bytes.)
fn golden_stream() -> Vec<u8> {
    let requests = [
        Request::Ping {
            token: 0x57414c545a,
        }, // "WALTZ"
        Request::SubmitBatch {
            circuits: vec![golden_circuit()],
            options: BatchOptions::default().with_updates(),
        },
        Request::Simulate {
            source: ArtifactSource::Cached {
                circuit_hash: 0x1122334455667788,
                fingerprint: 0x99aabbccddeeff00,
            },
            trajectories: 40,
            seed: 11,
            chunk: 16,
        },
        Request::Cancel,
        Request::Stats,
    ];
    let responses = [
        Response::Pong {
            token: 0x57414c545a,
        },
        Response::BatchAccepted { jobs: 1 },
        Response::JobUpdate {
            index: 0,
            phase: JobPhase::Running,
        },
        Response::BatchComplete {
            ok: 1,
            failed: 0,
            cancelled: 0,
        },
        Response::TrajectoryChunk {
            start: 0,
            fidelities: vec![0.5, 0.75, 1.0],
        },
        Response::Fidelity {
            mean: 0.75,
            std_error: 0.125,
            trajectories: 3,
        },
        Response::Stats(StatsSnapshot::default()),
        Response::Error(ErrorFrame {
            code: ErrorCode::OVER_BUDGET,
            job: Some(2),
            message: "register needs 4096 state bytes but the budget allows 1024".into(),
            error: Some(CompileError::OverBudget {
                needed: 4096,
                limit: 1024,
            }),
            retried: true,
            wall_ms: 1.5,
        }),
    ];
    let mut buf = Vec::new();
    for req in &requests {
        write_frame(&mut buf, req).unwrap();
    }
    for resp in &responses {
        write_frame(&mut buf, resp).unwrap();
    }
    buf
}

#[test]
fn golden_frame_stream_matches_the_protocol_version() {
    let path = golden_path();
    let bytes = golden_stream();
    if std::env::var_os("WALTZ_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("regenerated {} ({} bytes)", path.display(), bytes.len());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} for PROTOCOL_VERSION {PROTOCOL_VERSION}; \
             regenerate with WALTZ_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        bytes, golden,
        "the golden frame stream no longer matches the v{PROTOCOL_VERSION} fixture: \
         bump PROTOCOL_VERSION and regenerate"
    );

    // The pinned bytes still parse as the same message sequence.
    let mut reader = &golden[..];
    let requests: Vec<Request> = (0..GOLDEN_REQUESTS)
        .map(|_| read_message(&mut reader).expect("golden request decodes"))
        .collect();
    let responses: Vec<Response> = (0..GOLDEN_RESPONSES)
        .map(|_| read_message(&mut reader).expect("golden response decodes"))
        .collect();
    assert!(matches!(read_frame(&mut reader), Err(FrameError::Closed)));
    match &requests[1] {
        Request::SubmitBatch { circuits, options } => {
            assert_eq!(circuits.len(), 1);
            assert_eq!(
                waltz_codec::content_hash(&circuits[0]),
                waltz_codec::content_hash(&golden_circuit())
            );
            assert!(options.updates);
        }
        other => panic!("golden request 1 decoded as {other:?}"),
    }
    match &responses[7] {
        Response::Error(frame) => {
            assert_eq!(frame.code, ErrorCode::OVER_BUDGET);
            assert_eq!(frame.job, Some(2));
            assert_eq!(
                frame.error,
                Some(CompileError::OverBudget {
                    needed: 4096,
                    limit: 1024
                })
            );
            // A job-scoped frame round-trips back into a supervisor
            // report.
            let report = frame.to_job_report().expect("job-scoped");
            assert_eq!(report.index, 2);
            assert!(report.retried);
        }
        other => panic!("golden response 7 decoded as {other:?}"),
    }
}

#[test]
fn unknown_error_codes_decode_for_forward_compatibility() {
    // A newer server may introduce codes this client has never heard of;
    // they must survive the trip rather than fail the decode.
    let frame = ErrorFrame::connection(ErrorCode(999), "from the future");
    let mut buf = Vec::new();
    write_frame(&mut buf, &Response::Error(frame)).unwrap();
    match read_message::<_, Response>(&mut &buf[..]).unwrap() {
        Response::Error(back) => {
            assert_eq!(back.code, ErrorCode(999));
            assert_eq!(back.code.to_string(), "error-999");
        }
        other => panic!("expected Error, got {other:?}"),
    }
}
