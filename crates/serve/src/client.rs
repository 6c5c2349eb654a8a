//! The serve client: a synchronous, reconnecting front over the framed
//! protocol — submit batches, iterate streamed job reports, run remote
//! simulations, read server stats.

use std::net::TcpStream;
use std::time::Duration;

use waltz_circuit::Circuit;
use waltz_core::JobReport;

use crate::protocol::{
    read_message, write_frame, ArtifactSource, BatchOptions, ErrorFrame, FrameError, JobPhase,
    Request, Response, MAX_SIM_TRAJECTORIES,
};
use crate::stats::StatsSnapshot;

/// Connect/reconnect retry schedule: exponential backoff from
/// `base_delay_ms`, doubling per attempt, capped at `max_delay_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Connection attempts before giving up (at least 1).
    pub attempts: u32,
    /// Delay before the second attempt, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 1_000,
        }
    }
}

impl RetryPolicy {
    /// A single-attempt policy (fail fast).
    pub fn no_retry() -> Self {
        RetryPolicy {
            attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// The backoff before attempt `attempt` (1-based; attempt 0 is
    /// immediate).
    fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        Duration::from_millis(exp.min(self.max_delay_ms))
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read or write).
    Io(std::io::Error),
    /// A frame failed to parse.
    Frame(FrameError),
    /// The server answered with something the protocol does not allow
    /// here.
    Protocol(String),
    /// The server declined with a connection-scoped [`ErrorFrame`]
    /// (queue full, shutting down, malformed frame, cache miss, …).
    Server(ErrorFrame),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Server(frame) => {
                write!(f, "server declined ({}): {}", frame.code, frame.message)
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One event off a [`BatchStream`].
#[derive(Debug)]
pub enum BatchEvent {
    /// A job changed phase (only with [`BatchOptions::updates`]).
    Update {
        /// The job's batch index.
        index: usize,
        /// The phase it entered.
        phase: JobPhase,
    },
    /// A job finished: the supervisor's [`JobReport`], whether the
    /// result is an artifact or a typed error (failed jobs arrive as
    /// job-scoped error frames and are rebuilt into reports here).
    /// Boxed: a report carries a full artifact, far larger than the
    /// other variants.
    Done(Box<JobReport>),
    /// Every job accounted for; the stream is finished.
    Complete {
        /// Jobs that produced artifacts.
        ok: usize,
        /// Jobs that failed with a typed error.
        failed: usize,
        /// Jobs dropped by a cancel before a worker claimed them.
        cancelled: usize,
    },
}

/// The aggregate of a remote simulation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateResult {
    /// Every per-trajectory fidelity, in trajectory order.
    pub fidelities: Vec<f64>,
    /// Mean fidelity.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
}

/// A synchronous client over one connection to a [`crate::Server`].
///
/// Connection establishment retries under a [`RetryPolicy`];
/// [`ServeClient::reconnect`] re-dials the same address after a
/// transport failure.
#[derive(Debug)]
pub struct ServeClient {
    addr: String,
    stream: TcpStream,
    retry: RetryPolicy,
}

impl ServeClient {
    /// Connects with the default retry policy.
    pub fn connect(addr: impl Into<String>) -> Result<Self, ClientError> {
        ServeClient::connect_with_retry(addr, RetryPolicy::default())
    }

    /// Connects under an explicit retry policy.
    pub fn connect_with_retry(
        addr: impl Into<String>,
        retry: RetryPolicy,
    ) -> Result<Self, ClientError> {
        let addr = addr.into();
        let stream = ServeClient::dial(&addr, &retry)?;
        Ok(ServeClient {
            addr,
            stream,
            retry,
        })
    }

    /// Drops the current connection and dials the same address again
    /// under the retry policy.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = ServeClient::dial(&self.addr, &self.retry)?;
        Ok(())
    }

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn dial(addr: &str, retry: &RetryPolicy) -> Result<TcpStream, ClientError> {
        let attempts = retry.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            std::thread::sleep(retry.delay(attempt));
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::other("no connection attempts made")
        })))
    }

    fn request(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.stream, request)?;
        Ok(())
    }

    fn response(&mut self) -> Result<Response, ClientError> {
        Ok(read_message(&mut self.stream)?)
    }

    /// Liveness probe: sends `token`, returns the server's echo.
    pub fn ping(&mut self, token: u64) -> Result<u64, ClientError> {
        self.request(&Request::Ping { token })?;
        match self.response()? {
            Response::Pong { token } => Ok(token),
            Response::Error(frame) => Err(ClientError::Server(frame)),
            other => Err(ClientError::Protocol(format!(
                "expected Pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's observability counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.request(&Request::Stats)?;
        match self.response()? {
            Response::Stats(snapshot) => Ok(snapshot),
            Response::Error(frame) => Err(ClientError::Server(frame)),
            other => Err(ClientError::Protocol(format!(
                "expected Stats, got {other:?}"
            ))),
        }
    }

    /// Submits a batch and returns the event stream once the server
    /// admits it. A declined batch (queue full, shutting down) is
    /// [`ClientError::Server`]; nothing was enqueued and the connection
    /// stays usable.
    pub fn submit_batch(
        &mut self,
        circuits: Vec<Circuit>,
        options: BatchOptions,
    ) -> Result<BatchStream<'_>, ClientError> {
        self.request(&Request::SubmitBatch { circuits, options })?;
        match self.response()? {
            Response::BatchAccepted { jobs } => Ok(BatchStream {
                client: self,
                jobs,
                finished: false,
            }),
            Response::Error(frame) => Err(ClientError::Server(frame)),
            other => Err(ClientError::Protocol(format!(
                "expected BatchAccepted, got {other:?}"
            ))),
        }
    }

    /// Submits a batch and collects the per-job reports in submission
    /// order — the remote mirror of
    /// [`waltz_core::Supervisor::compile_batch`], failed jobs included
    /// as `Err` results.
    pub fn compile_batch(&mut self, circuits: Vec<Circuit>) -> Result<Vec<JobReport>, ClientError> {
        let n = circuits.len();
        let mut stream = self.submit_batch(circuits, BatchOptions::default())?;
        let mut slots: Vec<Option<JobReport>> = (0..n).map(|_| None).collect();
        while let Some(event) = stream.next_event()? {
            if let BatchEvent::Done(report) = event {
                let index = report.index;
                if index >= n {
                    return Err(ClientError::Protocol(format!(
                        "job index {index} outside batch of {n}"
                    )));
                }
                slots[index] = Some(*report);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.ok_or_else(|| {
                    ClientError::Protocol(format!("job {index} never reported (cancelled?)"))
                })
            })
            .collect()
    }

    /// Runs a remote simulation, collecting the streamed per-trajectory
    /// fidelities and the closing summary. A count over
    /// [`MAX_SIM_TRAJECTORIES`] comes back as a [`ClientError::Server`]
    /// frame with [`crate::ErrorCode::OVER_BUDGET`]; the connection stays
    /// usable.
    pub fn simulate(
        &mut self,
        source: ArtifactSource,
        trajectories: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<SimulateResult, ClientError> {
        self.request(&Request::Simulate {
            source,
            trajectories,
            seed,
            chunk,
        })?;
        // The server declines counts over the cap before streaming any
        // sample, so the cap is the most this call can ever collect.
        let mut fidelities: Vec<f64> = Vec::with_capacity(trajectories.min(MAX_SIM_TRAJECTORIES));
        loop {
            match self.response()? {
                Response::TrajectoryChunk {
                    start,
                    fidelities: chunk,
                } => {
                    if start != fidelities.len() {
                        return Err(ClientError::Protocol(format!(
                            "chunk starts at {start}, expected {}",
                            fidelities.len()
                        )));
                    }
                    fidelities.extend(chunk);
                }
                Response::Fidelity {
                    mean,
                    std_error,
                    trajectories: reported,
                } => {
                    if reported != fidelities.len() {
                        return Err(ClientError::Protocol(format!(
                            "summary covers {reported} trajectories, streamed {}",
                            fidelities.len()
                        )));
                    }
                    return Ok(SimulateResult {
                        fidelities,
                        mean,
                        std_error,
                    });
                }
                Response::Error(frame) => return Err(ClientError::Server(frame)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected simulation frames, got {other:?}"
                    )))
                }
            }
        }
    }
}

/// The streamed events of one submitted batch. Iterate with
/// [`BatchStream::next_event`] (or the [`Iterator`] impl); the stream
/// ends after [`BatchEvent::Complete`].
#[derive(Debug)]
pub struct BatchStream<'a> {
    client: &'a mut ServeClient,
    jobs: usize,
    finished: bool,
}

impl BatchStream<'_> {
    /// Jobs the server admitted.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Asks the server to drop this batch's still-queued jobs. Jobs
    /// already compiling finish and report normally; the stream still
    /// ends with [`BatchEvent::Complete`] accounting every job.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        write_frame(&mut self.client.stream, &Request::Cancel)?;
        Ok(())
    }

    /// The next event, or `None` once the batch completed.
    pub fn next_event(&mut self) -> Result<Option<BatchEvent>, ClientError> {
        if self.finished {
            return Ok(None);
        }
        match self.client.response()? {
            Response::JobUpdate { index, phase } => Ok(Some(BatchEvent::Update { index, phase })),
            Response::JobDone { report } => Ok(Some(BatchEvent::Done(Box::new(report)))),
            Response::Error(frame) => {
                if frame.job.is_some() {
                    match frame.to_job_report() {
                        Some(report) => Ok(Some(BatchEvent::Done(Box::new(report)))),
                        None => Err(ClientError::Protocol(
                            "job-scoped error frame without a typed error".to_string(),
                        )),
                    }
                } else {
                    self.finished = true;
                    Err(ClientError::Server(frame))
                }
            }
            Response::BatchComplete {
                ok,
                failed,
                cancelled,
            } => {
                self.finished = true;
                Ok(Some(BatchEvent::Complete {
                    ok,
                    failed,
                    cancelled,
                }))
            }
            other => Err(ClientError::Protocol(format!(
                "expected batch frames, got {other:?}"
            ))),
        }
    }
}

impl Iterator for BatchStream<'_> {
    type Item = Result<BatchEvent, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}
