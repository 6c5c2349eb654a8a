//! The serve wire protocol: a framed envelope over the [`waltz_codec`]
//! canonical encoding, carrying typed requests and responses between a
//! [`crate::ServeClient`] and a [`crate::Server`].
//!
//! # Framing
//!
//! Every message travels as one frame:
//!
//! ```text
//! +----------+-------------------+--------------------+---------+
//! | "WSRV"   | PROTOCOL_VERSION  | payload length     | payload |
//! | 4 bytes  | u32 little-endian | u32 little-endian  | bytes   |
//! +----------+-------------------+--------------------+---------+
//! ```
//!
//! The payload is the bare [`waltz_codec`] encoding of one [`Request`]
//! or [`Response`]. Readers reject foreign magic, other protocol
//! versions and frames over [`MAX_FRAME_BYTES`] *before* touching the
//! payload, so a hostile or confused peer costs a bounded read, never an
//! allocation it names.
//!
//! One frame is one write: [`write_frame`] encodes the header and the
//! payload into a single buffer and hands it to the socket in one
//! `write_all`, and both ends run with `TCP_NODELAY`. Each half is
//! needed. With Nagle's algorithm on, a segment written while an earlier
//! one is unacknowledged waits for the peer's ACK, and the peer delays
//! that ACK (about 40 ms on Linux): a payload written after its header,
//! or the back-to-back frames of a simulate stream, would wait that long
//! for no work.
//!
//! [`PROTOCOL_VERSION`] is independent of
//! [`waltz_codec::CODEC_VERSION`]: the codec versions *what the bytes
//! mean*, the protocol versions *which messages exist* — either may move
//! without the other, and each is gated by its own golden fixture.
//!
//! # Error surface
//!
//! Anything the server declines — malformed frames, full queues, failed
//! jobs — arrives as a typed [`ErrorFrame`] with a stable [`ErrorCode`],
//! never as a dropped connection with no explanation. A whole frame whose
//! payload does not decode (say, an inline artifact that fails the
//! codec's checks) leaves the stream at a frame boundary, so the
//! connection keeps serving after its error frame; a broken frame (bad
//! magic, foreign version, oversized or truncated) closes it. Job-scoped errors
//! carry the job index plus the original [`CompileError`], so a client
//! can rebuild the exact [`waltz_core::JobReport`] the supervisor
//! produced ([`ErrorFrame::to_job_report`]).

use std::io::{Read, Write};

use waltz_circuit::Circuit;
use waltz_codec::{ByteReader, ByteWriter, Decode, DecodeError, Encode};
use waltz_core::{CompileArtifact, CompileError, JobReport, JobStatus};

use crate::stats::StatsSnapshot;

/// Version of the serve protocol: the set of message shapes below. Bump
/// on **any** change to the request/response surface and regenerate the
/// matching `tests/golden/protocol_v<N>.bin` fixture — CI gates on the
/// pair moving together, exactly like [`waltz_codec::CODEC_VERSION`].
///
/// History: v2 added `simd_level` and `worker_threads` to
/// [`StatsSnapshot`].
pub const PROTOCOL_VERSION: u32 = 2;

/// Four magic bytes opening every frame (distinct from the codec's
/// `WLTZ` envelope magic, so a file of cached artifacts is never
/// mistaken for a protocol stream).
pub const FRAME_MAGIC: [u8; 4] = *b"WSRV";

/// Upper bound on one frame's payload, enforced before allocation on
/// both sides. Generous next to any real batch (artifacts are tens of
/// kilobytes) while keeping a corrupt length prefix harmless.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Bytes in a frame header: magic, version and payload length.
pub(crate) const FRAME_HEADER_BYTES: usize = 12;

/// Upper bound on [`Request::Simulate`] trajectories. The server answers
/// a request over it with a connection-scoped [`ErrorCode::OVER_BUDGET`]
/// frame before allocating anything, and the client bounds its sample
/// pre-allocation by it. At the cap the streamed samples take 8 MiB.
pub const MAX_SIM_TRAJECTORIES: usize = 1 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// I/O failed mid-frame (including EOF inside a frame).
    Io(std::io::Error),
    /// The frame did not start with [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The frame was written by a different [`PROTOCOL_VERSION`].
    VersionMismatch {
        /// Version found in the frame header.
        found: u32,
    },
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Declared payload length.
        len: u64,
    },
    /// The payload bytes did not decode as the expected message.
    Decode(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the stream"),
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::VersionMismatch { found } => {
                write!(
                    f,
                    "protocol version {found} != supported {PROTOCOL_VERSION}"
                )
            }
            FrameError::TooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_BYTES}")
            }
            FrameError::Decode(e) => write!(f, "frame payload did not decode: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

/// Writes one message as a frame in a single `write_all`, returning the
/// bytes put on the wire (header + payload) so callers can account
/// traffic. The message is encoded straight after a placeholder header
/// whose length field is patched afterwards, so the payload is never
/// copied.
pub fn write_frame<W: Write, T: Encode>(w: &mut W, msg: &T) -> std::io::Result<usize> {
    let mut frame = ByteWriter::new();
    frame.put_raw(&FRAME_MAGIC);
    frame.put_u32(PROTOCOL_VERSION);
    frame.put_u32(0);
    msg.encode(&mut frame);
    let mut frame = frame.into_bytes();
    let len = frame.len() - FRAME_HEADER_BYTES;
    debug_assert!(len <= MAX_FRAME_BYTES, "oversized outbound frame");
    frame[8..FRAME_HEADER_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads one frame's payload bytes, validating magic, version and length
/// before allocating. [`FrameError::Closed`] means the peer hung up
/// cleanly between frames; EOF *inside* a frame is an I/O error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // Distinguish a clean close (no bytes at all) from a truncated frame.
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside a frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let magic: [u8; 4] = header[..4].try_into().unwrap();
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(FrameError::VersionMismatch { found: version });
    }
    let len = u32::from_le_bytes(header[8..FRAME_HEADER_BYTES].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Reads and decodes one message (frame + payload decode in one step).
pub fn read_message<R: Read, T: Decode>(r: &mut R) -> Result<T, FrameError> {
    let payload = read_frame(r)?;
    Ok(waltz_codec::decode_from_slice(&payload)?)
}

/// Where a [`Request::Simulate`] finds its artifact.
#[derive(Debug, Clone)]
pub enum ArtifactSource {
    /// The artifact itself, shipped inline.
    Inline(Box<CompileArtifact>),
    /// A reference into the server's [`waltz_core::ArtifactCache`]: the
    /// circuit's content hash and the compiler fingerprint a previous
    /// compile reported. Misses answer [`ErrorCode::NOT_FOUND`].
    Cached {
        /// [`waltz_codec::content_hash`] of the source circuit.
        circuit_hash: u64,
        /// The serving compiler's fingerprint
        /// ([`waltz_core::Compiler::fingerprint`]).
        fingerprint: u64,
    },
}

impl Encode for ArtifactSource {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            ArtifactSource::Inline(artifact) => {
                w.put_u8(0);
                artifact.encode(w);
            }
            ArtifactSource::Cached {
                circuit_hash,
                fingerprint,
            } => {
                w.put_u8(1);
                w.put_u64(*circuit_hash);
                w.put_u64(*fingerprint);
            }
        }
    }
}

impl Decode for ArtifactSource {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(ArtifactSource::Inline(Box::new(CompileArtifact::decode(
                r,
            )?))),
            1 => Ok(ArtifactSource::Cached {
                circuit_hash: r.get_u64()?,
                fingerprint: r.get_u64()?,
            }),
            tag => Err(DecodeError::BadTag {
                ty: "ArtifactSource",
                tag,
            }),
        }
    }
}

/// Per-batch submission options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOptions {
    /// Stream a [`Response::JobUpdate`] when each job starts running (off
    /// by default — completion frames alone carry every result).
    pub updates: bool,
}

impl BatchOptions {
    /// Enables per-job start updates.
    pub fn with_updates(mut self) -> Self {
        self.updates = true;
        self
    }
}

impl Encode for BatchOptions {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(self.updates);
    }
}

impl Decode for BatchOptions {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(BatchOptions {
            updates: r.get_bool()?,
        })
    }
}

/// What a client can ask of the server.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe; the server echoes the token in a
    /// [`Response::Pong`].
    Ping {
        /// Opaque token echoed back verbatim.
        token: u64,
    },
    /// Compile a batch of circuits under the server's supervisor. The
    /// server answers [`Response::BatchAccepted`], then one
    /// [`Response::JobDone`] or job-scoped [`Response::Error`] per
    /// circuit (in completion order), then [`Response::BatchComplete`].
    SubmitBatch {
        /// The circuits, indexed by submission position.
        circuits: Vec<Circuit>,
        /// Streaming options.
        options: BatchOptions,
    },
    /// Run noisy trajectories over an artifact and stream the per-shot
    /// fidelities back in [`Response::TrajectoryChunk`]s, closed by a
    /// [`Response::Fidelity`] summary.
    Simulate {
        /// The artifact to simulate.
        source: ArtifactSource,
        /// Trajectories to run, at most [`MAX_SIM_TRAJECTORIES`].
        trajectories: usize,
        /// RNG seed (the run is deterministic given the seed).
        seed: u64,
        /// Fidelities per chunk frame (0 picks the server default).
        chunk: usize,
    },
    /// Cancel the batch currently streaming on this connection: queued
    /// jobs are dropped (counted in [`Response::BatchComplete`]), jobs
    /// already compiling finish and report normally.
    Cancel,
    /// Fetch the server's observability counters
    /// ([`Response::Stats`]).
    Stats,
}

impl Encode for Request {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Request::Ping { token } => {
                w.put_u8(0);
                w.put_u64(*token);
            }
            Request::SubmitBatch { circuits, options } => {
                w.put_u8(1);
                circuits.encode(w);
                options.encode(w);
            }
            Request::Simulate {
                source,
                trajectories,
                seed,
                chunk,
            } => {
                w.put_u8(2);
                source.encode(w);
                w.put_usize(*trajectories);
                w.put_u64(*seed);
                w.put_usize(*chunk);
            }
            Request::Cancel => w.put_u8(3),
            Request::Stats => w.put_u8(4),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Request::Ping {
                token: r.get_u64()?,
            }),
            1 => Ok(Request::SubmitBatch {
                circuits: Vec::decode(r)?,
                options: BatchOptions::decode(r)?,
            }),
            2 => Ok(Request::Simulate {
                source: ArtifactSource::decode(r)?,
                trajectories: r.get_usize()?,
                seed: r.get_u64()?,
                chunk: r.get_usize()?,
            }),
            3 => Ok(Request::Cancel),
            4 => Ok(Request::Stats),
            tag => Err(DecodeError::BadTag { ty: "Request", tag }),
        }
    }
}

/// Where a job stands, for [`Response::JobUpdate`] streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted to the server's queue.
    Queued,
    /// Claimed by a worker and compiling.
    Running,
}

impl Encode for JobPhase {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            JobPhase::Queued => 0,
            JobPhase::Running => 1,
        });
    }
}

impl Decode for JobPhase {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(JobPhase::Queued),
            1 => Ok(JobPhase::Running),
            tag => Err(DecodeError::BadTag {
                ty: "JobPhase",
                tag,
            }),
        }
    }
}

/// What the server sends back.
#[derive(Debug)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The request's token, echoed.
        token: u64,
    },
    /// The batch passed admission; per-job frames follow.
    BatchAccepted {
        /// Jobs admitted (the batch size).
        jobs: usize,
    },
    /// A job changed phase (only with [`BatchOptions::updates`]).
    JobUpdate {
        /// The job's index in the submitted batch.
        index: usize,
        /// The phase it entered.
        phase: JobPhase,
    },
    /// A job finished with an artifact: the full supervisor
    /// [`JobReport`], artifact included.
    JobDone {
        /// The report, `result` guaranteed `Ok`.
        report: JobReport,
    },
    /// Every job in the batch is accounted for.
    BatchComplete {
        /// Jobs that produced artifacts.
        ok: usize,
        /// Jobs that failed (each already reported in a job-scoped
        /// [`Response::Error`]).
        failed: usize,
        /// Jobs dropped from the queue by a [`Request::Cancel`].
        cancelled: usize,
    },
    /// A run of per-trajectory fidelities from a [`Request::Simulate`].
    TrajectoryChunk {
        /// Index of the first trajectory in this chunk.
        start: usize,
        /// One fidelity per trajectory, in order.
        fidelities: Vec<f64>,
    },
    /// The closing summary of a [`Request::Simulate`] stream.
    Fidelity {
        /// Mean fidelity over all trajectories.
        mean: f64,
        /// Standard error of the mean.
        std_error: f64,
        /// Trajectories run.
        trajectories: usize,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Anything declined or failed, connection- or job-scoped.
    Error(ErrorFrame),
}

impl Encode for Response {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Response::Pong { token } => {
                w.put_u8(0);
                w.put_u64(*token);
            }
            Response::BatchAccepted { jobs } => {
                w.put_u8(1);
                w.put_usize(*jobs);
            }
            Response::JobUpdate { index, phase } => {
                w.put_u8(2);
                w.put_usize(*index);
                phase.encode(w);
            }
            Response::JobDone { report } => {
                w.put_u8(3);
                report.encode(w);
            }
            Response::BatchComplete {
                ok,
                failed,
                cancelled,
            } => {
                w.put_u8(4);
                w.put_usize(*ok);
                w.put_usize(*failed);
                w.put_usize(*cancelled);
            }
            Response::TrajectoryChunk { start, fidelities } => {
                w.put_u8(5);
                w.put_usize(*start);
                fidelities.encode(w);
            }
            Response::Fidelity {
                mean,
                std_error,
                trajectories,
            } => {
                w.put_u8(6);
                w.put_f64(*mean);
                w.put_f64(*std_error);
                w.put_usize(*trajectories);
            }
            Response::Stats(snapshot) => {
                w.put_u8(7);
                snapshot.encode(w);
            }
            Response::Error(frame) => {
                w.put_u8(8);
                frame.encode(w);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Response::Pong {
                token: r.get_u64()?,
            }),
            1 => Ok(Response::BatchAccepted {
                jobs: r.get_usize()?,
            }),
            2 => Ok(Response::JobUpdate {
                index: r.get_usize()?,
                phase: JobPhase::decode(r)?,
            }),
            3 => Ok(Response::JobDone {
                report: JobReport::decode(r)?,
            }),
            4 => Ok(Response::BatchComplete {
                ok: r.get_usize()?,
                failed: r.get_usize()?,
                cancelled: r.get_usize()?,
            }),
            5 => Ok(Response::TrajectoryChunk {
                start: r.get_usize()?,
                fidelities: Vec::decode(r)?,
            }),
            6 => Ok(Response::Fidelity {
                mean: r.get_f64()?,
                std_error: r.get_f64()?,
                trajectories: r.get_usize()?,
            }),
            7 => Ok(Response::Stats(StatsSnapshot::decode(r)?)),
            8 => Ok(Response::Error(ErrorFrame::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                ty: "Response",
                tag,
            }),
        }
    }
}

/// A stable error code. The numeric values are part of the protocol
/// contract: they never change meaning, and unknown codes decode (so a
/// newer server can introduce codes an older client reports verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorCode(pub u32);

impl ErrorCode {
    /// The frame did not parse (bad magic, truncated, undecodable).
    pub const MALFORMED_FRAME: ErrorCode = ErrorCode(1);
    /// The frame carried a foreign [`PROTOCOL_VERSION`].
    pub const UNSUPPORTED_VERSION: ErrorCode = ErrorCode(2);
    /// The frame exceeded [`MAX_FRAME_BYTES`].
    pub const FRAME_TOO_LARGE: ErrorCode = ErrorCode(3);
    /// A request arrived that this connection state cannot accept.
    pub const UNEXPECTED_MESSAGE: ErrorCode = ErrorCode(4);
    /// The job queue had no room for the batch (backpressure — retry
    /// later; nothing was enqueued).
    pub const QUEUE_FULL: ErrorCode = ErrorCode(5);
    /// The server is draining for shutdown and admits nothing new.
    pub const SHUTTING_DOWN: ErrorCode = ErrorCode(6);
    /// A typed input/validation [`CompileError`] failed the job.
    pub const INVALID_CIRCUIT: ErrorCode = ErrorCode(7);
    /// A pass panicked ([`CompileError::Internal`]); the job failed
    /// alone.
    pub const INTERNAL: ErrorCode = ErrorCode(8);
    /// The job ran past its deadline
    /// ([`CompileError::DeadlineExceeded`]).
    pub const DEADLINE_EXCEEDED: ErrorCode = ErrorCode(9);
    /// No degradation rung fit the state-byte budget
    /// ([`CompileError::OverBudget`]), or a simulate asked for more than
    /// [`MAX_SIM_TRAJECTORIES`].
    pub const OVER_BUDGET: ErrorCode = ErrorCode(10);
    /// A [`ArtifactSource::Cached`] reference missed the server's cache.
    pub const NOT_FOUND: ErrorCode = ErrorCode(11);

    /// The code a failed job maps to — the wire-side mirror of
    /// [`JobStatus::classify`].
    pub fn from_compile_error(error: &CompileError) -> ErrorCode {
        match error {
            CompileError::Internal { .. } => ErrorCode::INTERNAL,
            CompileError::DeadlineExceeded { .. } => ErrorCode::DEADLINE_EXCEEDED,
            CompileError::OverBudget { .. } => ErrorCode::OVER_BUDGET,
            _ => ErrorCode::INVALID_CIRCUIT,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match *self {
            ErrorCode::MALFORMED_FRAME => "malformed-frame",
            ErrorCode::UNSUPPORTED_VERSION => "unsupported-version",
            ErrorCode::FRAME_TOO_LARGE => "frame-too-large",
            ErrorCode::UNEXPECTED_MESSAGE => "unexpected-message",
            ErrorCode::QUEUE_FULL => "queue-full",
            ErrorCode::SHUTTING_DOWN => "shutting-down",
            ErrorCode::INVALID_CIRCUIT => "invalid-circuit",
            ErrorCode::INTERNAL => "internal",
            ErrorCode::DEADLINE_EXCEEDED => "deadline-exceeded",
            ErrorCode::OVER_BUDGET => "over-budget",
            ErrorCode::NOT_FOUND => "not-found",
            ErrorCode(n) => return write!(f, "error-{n}"),
        };
        f.write_str(name)
    }
}

impl Encode for ErrorCode {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
}

impl Decode for ErrorCode {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(ErrorCode(r.get_u32()?))
    }
}

/// A typed error, connection-scoped (`job == None`) or job-scoped.
///
/// Job-scoped frames carry everything the supervisor's [`JobReport`]
/// recorded for the failure, so the client reconstructs a report
/// element-wise identical (modulo wall clock, which it preserves
/// verbatim) to what an in-process [`waltz_core::Supervisor`] would have
/// returned.
#[derive(Debug, Clone)]
pub struct ErrorFrame {
    /// The stable error code.
    pub code: ErrorCode,
    /// The failed job's batch index, when job-scoped.
    pub job: Option<usize>,
    /// Human-readable context.
    pub message: String,
    /// The typed compile error, for job-scoped failures.
    pub error: Option<CompileError>,
    /// Whether the supervisor ran more than one attempt.
    pub retried: bool,
    /// The job's wall-clock time on the server, in milliseconds.
    pub wall_ms: f64,
}

impl ErrorFrame {
    /// A connection-scoped frame (no job attribution).
    pub fn connection(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorFrame {
            code,
            job: None,
            message: message.into(),
            error: None,
            retried: false,
            wall_ms: 0.0,
        }
    }

    /// The job-scoped frame a failed [`JobReport`] travels as.
    ///
    /// # Panics
    ///
    /// Panics if the report's result is `Ok` — successful jobs travel as
    /// [`Response::JobDone`].
    pub fn from_failed_job(report: &JobReport) -> Self {
        let error = report
            .result
            .as_ref()
            .expect_err("only failed jobs become error frames");
        ErrorFrame {
            code: ErrorCode::from_compile_error(error),
            job: Some(report.index),
            message: error.to_string(),
            error: Some(error.clone()),
            retried: report.retried,
            wall_ms: report.wall_ms,
        }
    }

    /// Rebuilds the supervisor's [`JobReport`] for a job-scoped frame
    /// (`None` for connection-scoped frames or frames without the typed
    /// error).
    pub fn to_job_report(&self) -> Option<JobReport> {
        let (index, error) = (self.job?, self.error.clone()?);
        let result = Err(error);
        Some(JobReport {
            index,
            status: JobStatus::classify(&result),
            result,
            degradation: waltz_core::Degradation::None,
            retried: self.retried,
            cached: false,
            wall_ms: self.wall_ms,
        })
    }
}

impl Encode for ErrorFrame {
    fn encode(&self, w: &mut ByteWriter) {
        self.code.encode(w);
        self.job.encode(w);
        w.put_str(&self.message);
        self.error.encode(w);
        w.put_bool(self.retried);
        w.put_f64(self.wall_ms);
    }
}

impl Decode for ErrorFrame {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let frame = ErrorFrame {
            code: ErrorCode::decode(r)?,
            job: Option::decode(r)?,
            message: r.get_str()?,
            error: Option::decode(r)?,
            retried: r.get_bool()?,
            wall_ms: r.get_f64()?,
        };
        if !frame.wall_ms.is_finite() || frame.wall_ms < 0.0 {
            return Err(DecodeError::Invalid("error frame wall_ms"));
        }
        Ok(frame)
    }
}

/// The code a [`FrameError`] is reported back to the peer as (clean
/// closes and transport failures get no report — there is no one to
/// send it to).
pub(crate) fn frame_error_code(err: &FrameError) -> Option<(ErrorCode, String)> {
    match err {
        FrameError::Closed => None,
        FrameError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Some((
            ErrorCode::MALFORMED_FRAME,
            "truncated frame: eof inside a frame".to_string(),
        )),
        FrameError::Io(_) => None,
        FrameError::BadMagic(m) => {
            Some((ErrorCode::MALFORMED_FRAME, format!("bad frame magic {m:?}")))
        }
        FrameError::VersionMismatch { found } => Some((
            ErrorCode::UNSUPPORTED_VERSION,
            format!("protocol version {found} != supported {PROTOCOL_VERSION}"),
        )),
        FrameError::TooLarge { len } => Some((
            ErrorCode::FRAME_TOO_LARGE,
            format!("frame payload of {len} bytes exceeds {MAX_FRAME_BYTES}"),
        )),
        FrameError::Decode(e) => Some((
            ErrorCode::MALFORMED_FRAME,
            format!("frame payload did not decode: {e}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waltz_codec::{decode_from_slice, encode_to_vec};

    fn round_trip<T: Encode + Decode>(value: &T) -> T {
        decode_from_slice(&encode_to_vec(value)).expect("round trip")
    }

    #[test]
    fn requests_round_trip() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let requests = [
            Request::Ping { token: 7 },
            Request::SubmitBatch {
                circuits: vec![c],
                options: BatchOptions::default().with_updates(),
            },
            Request::Simulate {
                source: ArtifactSource::Cached {
                    circuit_hash: 0xdead,
                    fingerprint: 0xbeef,
                },
                trajectories: 32,
                seed: 11,
                chunk: 8,
            },
            Request::Cancel,
            Request::Stats,
        ];
        for request in &requests {
            let bytes = encode_to_vec(request);
            let back: Request = decode_from_slice(&bytes).unwrap();
            assert_eq!(encode_to_vec(&back), bytes, "{request:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Pong { token: 3 },
            Response::BatchAccepted { jobs: 64 },
            Response::JobUpdate {
                index: 5,
                phase: JobPhase::Running,
            },
            Response::BatchComplete {
                ok: 60,
                failed: 3,
                cancelled: 1,
            },
            Response::TrajectoryChunk {
                start: 16,
                fidelities: vec![0.99, 0.97, 1.0],
            },
            Response::Fidelity {
                mean: 0.98,
                std_error: 0.004,
                trajectories: 128,
            },
            Response::Error(ErrorFrame::connection(
                ErrorCode::QUEUE_FULL,
                "queue has 0 of 64 slots free",
            )),
        ];
        for response in &responses {
            let bytes = encode_to_vec(response);
            let back: Response = decode_from_slice(&bytes).unwrap();
            assert_eq!(encode_to_vec(&back), bytes, "{response:?}");
        }
    }

    #[test]
    fn job_scoped_error_frames_rebuild_the_report() {
        let report = JobReport {
            index: 9,
            result: Err(CompileError::DeadlineExceeded {
                pass: waltz_core::Pass::Route,
                budget_ms: 5,
            }),
            status: JobStatus::TimedOut,
            degradation: waltz_core::Degradation::None,
            retried: true,
            cached: false,
            wall_ms: 6.25,
        };
        let frame = round_trip(&ErrorFrame::from_failed_job(&report));
        assert_eq!(frame.code, ErrorCode::DEADLINE_EXCEEDED);
        let rebuilt = frame.to_job_report().expect("job-scoped");
        assert_eq!(rebuilt.index, report.index);
        assert_eq!(rebuilt.status, report.status);
        assert_eq!(
            rebuilt.result.as_ref().unwrap_err(),
            report.result.as_ref().unwrap_err()
        );
        assert_eq!(rebuilt.retried, report.retried);
        assert_eq!(rebuilt.wall_ms, report.wall_ms);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping { token: 42 }).unwrap();
        write_frame(&mut wire, &Request::Stats).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_message::<_, Request>(&mut cursor).unwrap(),
            Request::Ping { token: 42 }
        ));
        assert!(matches!(
            read_message::<_, Request>(&mut cursor).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            read_message::<_, Request>(&mut cursor).unwrap_err(),
            FrameError::Closed
        ));
    }

    /// A sink that keeps each `write` call's bytes separately.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_of_header_then_payload() {
        // Two writes per frame let Nagle hold the second one until the
        // peer's delayed ACK: one frame must reach the socket in one call.
        let messages = [
            Response::Pong { token: 5 },
            Response::TrajectoryChunk {
                start: 0,
                fidelities: vec![0.25; 300],
            },
            Response::Error(ErrorFrame::connection(ErrorCode::NOT_FOUND, "miss")),
        ];
        for msg in &messages {
            let mut log = WriteLog::default();
            let n = write_frame(&mut log, msg).unwrap();
            assert_eq!(log.0.len(), 1, "{msg:?} took {} writes", log.0.len());
            let payload = encode_to_vec(msg);
            let mut expected = FRAME_MAGIC.to_vec();
            expected.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&payload);
            assert_eq!(log.0[0], expected, "{msg:?}");
            assert_eq!(n, expected.len());
        }
    }

    #[test]
    fn frame_reader_rejects_foreign_streams() {
        let mut bad_magic = Vec::new();
        write_frame(&mut bad_magic, &Request::Stats).unwrap();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(bad_magic)).unwrap_err(),
            FrameError::BadMagic(_)
        ));

        let mut bad_version = Vec::new();
        write_frame(&mut bad_version, &Request::Stats).unwrap();
        bad_version[4] = bad_version[4].wrapping_add(1);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(bad_version)).unwrap_err(),
            FrameError::VersionMismatch { .. }
        ));

        let mut too_large = Vec::new();
        write_frame(&mut too_large, &Request::Stats).unwrap();
        too_large[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(too_large)).unwrap_err(),
            FrameError::TooLarge { .. }
        ));

        let mut truncated = Vec::new();
        write_frame(&mut truncated, &Request::Ping { token: 1 }).unwrap();
        truncated.truncate(truncated.len() - 3);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(truncated)).unwrap_err(),
            FrameError::Io(_)
        ));
    }
}
