//! The serve server: a threaded TCP front over a
//! [`waltz_core::Supervisor`] — bounded job queue, worker pool, shared
//! artifact cache, per-connection streaming and graceful drain.
//!
//! # Architecture
//!
//! ```text
//!            acceptor thread (nonblocking listener)
//!                 │ one handler thread per connection
//!                 ▼
//!   reader ── requests ──► handler ── frames ──► client
//!   thread        │            ▲
//!                 ▼            │ per-job events (mpsc)
//!           bounded job queue  │
//!                 │            │
//!                 ▼            │
//!           worker pool ───────┘  (Supervisor::compile_indexed)
//! ```
//!
//! Each connection gets a *reader* thread (decoding frames into a
//! channel, and intercepting [`Request::Cancel`] so it acts mid-stream)
//! and a *handler* thread (the only writer on the socket; requests that
//! arrive while a batch is streaming simply wait in the channel).
//! Accepted sockets run with `TCP_NODELAY` and the handler writes each
//! response frame in one call ([`crate::protocol::write_frame`]), so a
//! streamed response never waits on the client's delayed ACK.
//! Batches are admitted all-or-nothing against the bounded queue — a
//! full queue is a typed [`ErrorCode::QUEUE_FULL`] backpressure frame,
//! not a hang — and the worker pool runs every job through the shared
//! supervisor, so panic isolation, deadlines, the byte-budget ladder and
//! the artifact cache behave exactly as they do in-process. Failed jobs
//! return to *their* client as job-scoped [`ErrorFrame`]s; sibling jobs
//! and other connections never see them. A [`Request::Simulate`] over
//! [`MAX_SIM_TRAJECTORIES`] is declined with [`ErrorCode::OVER_BUDGET`]
//! before anything is allocated for it.
//!
//! # Load shedding
//!
//! An optional [`LoadWatermark`] ties the supervisor's live byte budget
//! ([`waltz_core::Supervisor::set_budget_bytes`]) to queue depth: past
//! the watermark, newly admitted jobs compile under the tighter budget
//! (walking the degradation ladder sooner), and the policy budget is
//! restored once the queue drains.

use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use waltz_circuit::Circuit;
use waltz_core::{
    ArtifactCache, CompileArtifact, Compiler, JobReport, Supervisor, SupervisorPolicy,
};
use waltz_sim::trajectory::FidelityEstimate;

use crate::protocol::{
    frame_error_code, read_frame, write_frame, ArtifactSource, BatchOptions, ErrorCode, ErrorFrame,
    FrameError, JobPhase, Request, Response, FRAME_HEADER_BYTES, MAX_SIM_TRAJECTORIES,
};
use crate::stats::{ServerStats, StatsSnapshot};

/// Default trajectories per [`Response::TrajectoryChunk`] when the
/// request leaves the chunk size 0.
const DEFAULT_SIM_CHUNK: usize = 32;

/// How often parked threads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(10);

/// Ties the supervisor's live state-byte budget to queue depth: when
/// more than `queue_depth` jobs are waiting, jobs admitted from then on
/// compile under `budget_bytes` (degrading early instead of piling
/// memory under load); the policy budget is restored once the queue
/// drains back to the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadWatermark {
    /// Queue depth beyond which the server is considered loaded.
    pub queue_depth: usize,
    /// The state-byte budget applied while loaded.
    pub budget_bytes: usize,
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads compiling jobs; 0 uses the machine's available
    /// parallelism.
    pub workers: usize,
    /// Job-queue capacity; batches that do not fit whole are rejected
    /// with [`ErrorCode::QUEUE_FULL`].
    pub queue_capacity: usize,
    /// Per-job supervision policy ([`SupervisorPolicy`]).
    pub policy: SupervisorPolicy,
    /// Optional queue-depth → byte-budget coupling.
    pub load_watermark: Option<LoadWatermark>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 256,
            policy: SupervisorPolicy::default(),
            load_watermark: None,
        }
    }
}

impl ServerConfig {
    /// Pins the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the job-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the supervision policy.
    pub fn with_policy(mut self, policy: SupervisorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a load watermark.
    pub fn with_load_watermark(mut self, watermark: LoadWatermark) -> Self {
        self.load_watermark = Some(watermark);
        self
    }
}

/// What a worker tells the owning connection about one job.
enum JobEvent {
    /// A worker claimed the job.
    Started(usize),
    /// The job finished (artifact or typed error inside the report).
    Done(Box<JobReport>),
    /// The job was dropped from the queue by a cancel.
    Cancelled,
}

/// One queued compilation.
struct Job {
    index: usize,
    circuit: Circuit,
    events: mpsc::Sender<JobEvent>,
    cancelled: Arc<AtomicBool>,
}

/// The bounded job queue: a mutex-guarded deque with a condvar for
/// parked workers.
#[derive(Default)]
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl JobQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        match self.jobs.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn len(&self) -> usize {
        self.lock().len()
    }

    /// Admits a whole batch or nothing; `Ok` carries the new depth,
    /// `Err` the free slots that made the batch unfittable.
    fn try_push_all(&self, batch: Vec<Job>, capacity: usize) -> Result<usize, usize> {
        let mut jobs = self.lock();
        let free = capacity.saturating_sub(jobs.len());
        if batch.len() > free {
            return Err(free);
        }
        jobs.extend(batch);
        let depth = jobs.len();
        drop(jobs);
        self.ready.notify_all();
        Ok(depth)
    }

    /// Blocks for the next job; `None` once the server is shutting down
    /// *and* the queue has drained (the graceful-drain contract).
    fn pop(&self, shutdown: &AtomicBool) -> Option<(Job, usize)> {
        let mut jobs = self.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                let depth = jobs.len();
                return Some((job, depth));
            }
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            jobs = match self.ready.wait_timeout(jobs, POLL) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    fn notify_all(&self) {
        self.ready.notify_all();
    }
}

/// State shared by the acceptor, every connection and every worker.
struct Shared {
    supervisor: Supervisor,
    queue: JobQueue,
    stats: ServerStats,
    shutdown: AtomicBool,
    config: ServerConfig,
    /// Clones of live connections' streams, so shutdown can unblock
    /// reader threads parked in `read`.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
}

impl Shared {
    /// Applies the load watermark for the given queue depth.
    fn apply_watermark(&self, depth: usize) {
        let Some(wm) = self.config.load_watermark else {
            return;
        };
        if depth > wm.queue_depth {
            let policy = self.config.policy.state_budget_bytes.unwrap_or(usize::MAX);
            self.supervisor
                .set_budget_bytes(Some(wm.budget_bytes.min(policy)));
        } else {
            self.supervisor
                .set_budget_bytes(self.config.policy.state_budget_bytes);
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot(
            self.supervisor.cache_stats(),
            waltz_sim::SimdLevel::detect().name(),
            self.supervisor.trajectory_pool().threads(),
        );
        // The depth gauge is last-writer-wins across acceptor and
        // workers; the live queue length is authoritative.
        snap.queue_depth = self.queue.len() as u64;
        snap
    }
}

/// A running serve instance. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] (drains queued jobs, then joins every thread);
/// dropping an un-shut-down server shuts it down the same way.
///
/// # Example
///
/// ```
/// use waltz_core::{Compiler, Strategy, Target};
/// use waltz_serve::{ServeClient, Server, ServerConfig};
/// use waltz_circuit::Circuit;
///
/// let compiler = Compiler::new(Target::paper(Strategy::qubit_only()));
/// let server = Server::bind("127.0.0.1:0", compiler, ServerConfig::default()).unwrap();
/// let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let reports = client.compile_batch(vec![c]).unwrap();
/// assert!(reports[0].result.is_ok());
/// let stats = server.shutdown();
/// assert_eq!(stats.jobs_completed, 1);
/// ```
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts the acceptor and worker pool. The
    /// compiler is wrapped in a [`Supervisor`] under the config's
    /// policy; if it carries no [`ArtifactCache`], a default shared one
    /// is attached, so repeat submissions — from any connection — replay
    /// instead of recompiling.
    pub fn bind(
        addr: impl ToSocketAddrs,
        compiler: Compiler,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let compiler = if compiler.artifact_cache().is_some() {
            compiler
        } else {
            compiler.with_artifact_cache(ArtifactCache::new())
        };
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let workers = match config.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let supervisor = Supervisor::with_policy(compiler, config.policy);
        let shared = Arc::new(Shared {
            supervisor,
            queue: JobQueue::default(),
            stats: ServerStats::new(),
            shutdown: AtomicBool::new(false),
            config,
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
        });
        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        Ok(Server {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (resolves a `:0` bind to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The serving supervisor (shared with every worker).
    pub fn supervisor(&self) -> &Supervisor {
        &self.shared.supervisor
    }

    /// A snapshot of the observability counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Graceful shutdown: stop admitting, drain every queued job (each
    /// still reports to its owning client), close connections, join all
    /// threads. Returns the final stats snapshot.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_inner();
        self.shared.snapshot()
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.notify_all();
        // Workers drain the queue before exiting, so in-flight batches
        // complete and their handlers return to the idle loop.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Unblock reader threads parked in read().
        let conns = match self.shared.conns.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        for (_, stream) in conns.iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(conns);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_inner();
        }
    }
}

/// The worker pool body: claim, compile under the supervisor, report to
/// the owning connection.
fn worker_loop(shared: &Shared) {
    while let Some((job, depth)) = shared.queue.pop(&shared.shutdown) {
        shared.stats.queue_depth(depth);
        shared.apply_watermark(depth);
        if job.cancelled.load(Ordering::Relaxed) {
            let _ = job.events.send(JobEvent::Cancelled);
            continue;
        }
        let _ = job.events.send(JobEvent::Started(job.index));
        let report = shared.supervisor.compile_indexed(job.index, &job.circuit);
        shared.stats.job_finished(&report);
        let _ = job.events.send(JobEvent::Done(Box::new(report)));
    }
}

/// The acceptor body: nonblocking accept loop, one handler thread per
/// connection, all joined before exit.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Without it, Nagle holds a frame written while the
                // previous one is unacknowledged until the client's
                // delayed ACK (about 40 ms on Linux).
                let _ = stream.set_nodelay(true);
                shared.stats.connection();
                let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    if let Ok(mut conns) = shared.conns.lock() {
                        conns.push((id, clone));
                    }
                }
                let shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &shared);
                    if let Ok(mut conns) = shared.conns.lock() {
                        conns.retain(|(conn_id, _)| *conn_id != id);
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// What the reader thread forwards to the handler.
enum Inbound {
    /// A request, tagged with the cancel generation at receipt, so a
    /// Cancel decoded *after* it reliably cancels it even when the
    /// handler has not started it yet.
    Request(Request, u64),
    /// The stream failed to frame-decode (reported, then closed).
    Bad(FrameError),
}

/// The reader half of a connection: frames off the socket into the
/// handler's channel. Cancels short-circuit into the shared generation
/// counter instead of queueing behind a streaming batch.
fn reader_loop(
    mut read_half: TcpStream,
    shared: &Shared,
    cancel_gen: &AtomicU64,
    tx: &mpsc::Sender<Inbound>,
) {
    loop {
        match read_frame(&mut read_half) {
            Ok(payload) => {
                shared.stats.received(payload.len() + FRAME_HEADER_BYTES);
                match waltz_codec::decode_from_slice::<Request>(&payload) {
                    Ok(Request::Cancel) => {
                        cancel_gen.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(request) => {
                        let gen = cancel_gen.load(Ordering::Relaxed);
                        if tx.send(Inbound::Request(request, gen)).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Inbound::Bad(FrameError::Decode(e)));
                        return;
                    }
                }
            }
            Err(e) => {
                let _ = tx.send(Inbound::Bad(e));
                return;
            }
        }
    }
}

/// One connection: reader thread feeding a request channel, handler
/// (this function) as the only socket writer.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let cancel_gen = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<Inbound>();
    let reader = {
        let read_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let shared = Arc::clone(shared);
        let cancel_gen = Arc::clone(&cancel_gen);
        std::thread::spawn(move || reader_loop(read_half, &shared, &cancel_gen, &tx))
    };

    let mut conn = Connection {
        stream: &mut stream,
        shared: shared.as_ref(),
        cancel_gen: &cancel_gen,
    };
    loop {
        match rx.recv_timeout(POLL * 5) {
            Ok(Inbound::Request(request, gen)) => {
                if !conn.handle(request, gen) {
                    break;
                }
            }
            Ok(Inbound::Bad(err)) => {
                if let Some((code, message)) = frame_error_code(&err) {
                    conn.send(&Response::Error(ErrorFrame::connection(code, message)));
                }
                break;
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Stop the reader: close both halves so its blocking read returns.
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
}

/// Per-connection handler state (the only socket writer).
struct Connection<'a> {
    stream: &'a mut TcpStream,
    shared: &'a Shared,
    cancel_gen: &'a AtomicU64,
}

impl Connection<'_> {
    /// Writes one response frame; `false` means the client is gone.
    fn send(&mut self, response: &Response) -> bool {
        match write_frame(self.stream, response) {
            Ok(n) => {
                self.shared.stats.sent(n);
                true
            }
            Err(_) => false,
        }
    }

    /// Dispatches one request; `false` closes the connection.
    fn handle(&mut self, request: Request, gen_at_receipt: u64) -> bool {
        match request {
            Request::Ping { token } => self.send(&Response::Pong { token }),
            Request::Stats => self.send(&Response::Stats(self.shared.snapshot())),
            // Cancels are intercepted by the reader thread; nothing to
            // act on for one reaching the handler.
            Request::Cancel => true,
            Request::SubmitBatch { circuits, options } => {
                self.run_batch(circuits, options, gen_at_receipt)
            }
            Request::Simulate {
                source,
                trajectories,
                seed,
                chunk,
            } => self.run_simulate(source, trajectories, seed, chunk),
        }
    }

    /// The batch flow: all-or-nothing admission, per-job event
    /// streaming, completion summary.
    fn run_batch(&mut self, circuits: Vec<Circuit>, options: BatchOptions, gen: u64) -> bool {
        let n = circuits.len();
        if self.shared.shutdown.load(Ordering::Relaxed) {
            self.shared.stats.jobs_rejected(n);
            return self.send(&Response::Error(ErrorFrame::connection(
                ErrorCode::SHUTTING_DOWN,
                "server is draining; resubmit elsewhere",
            )));
        }
        let (events_tx, events_rx) = mpsc::channel::<JobEvent>();
        let cancelled = Arc::new(AtomicBool::new(false));
        let batch: Vec<Job> = circuits
            .into_iter()
            .enumerate()
            .map(|(index, circuit)| Job {
                index,
                circuit,
                events: events_tx.clone(),
                cancelled: Arc::clone(&cancelled),
            })
            .collect();
        drop(events_tx);
        match self
            .shared
            .queue
            .try_push_all(batch, self.shared.config.queue_capacity)
        {
            Ok(depth) => {
                self.shared.stats.queue_depth(depth);
                self.shared.stats.batch_accepted(n);
                self.shared.apply_watermark(depth);
            }
            Err(free) => {
                self.shared.stats.jobs_rejected(n);
                return self.send(&Response::Error(ErrorFrame::connection(
                    ErrorCode::QUEUE_FULL,
                    format!(
                        "queue has {free} of {} slots free, batch needs {n}",
                        self.shared.config.queue_capacity
                    ),
                )));
            }
        }
        if !self.send(&Response::BatchAccepted { jobs: n }) {
            cancelled.store(true, Ordering::Relaxed);
            return false;
        }
        let (mut ok, mut failed, mut dropped) = (0usize, 0usize, 0usize);
        let mut done = 0usize;
        while done < n {
            if !cancelled.load(Ordering::Relaxed) && self.cancel_gen.load(Ordering::Relaxed) > gen {
                cancelled.store(true, Ordering::Relaxed);
            }
            match events_rx.recv_timeout(POLL * 2) {
                Ok(JobEvent::Started(index)) => {
                    if options.updates
                        && !self.send(&Response::JobUpdate {
                            index,
                            phase: JobPhase::Running,
                        })
                    {
                        cancelled.store(true, Ordering::Relaxed);
                        return false;
                    }
                }
                Ok(JobEvent::Done(report)) => {
                    done += 1;
                    let sent = if report.result.is_ok() {
                        ok += 1;
                        self.send(&Response::JobDone { report: *report })
                    } else {
                        failed += 1;
                        self.send(&Response::Error(ErrorFrame::from_failed_job(&report)))
                    };
                    if !sent {
                        cancelled.store(true, Ordering::Relaxed);
                        return false;
                    }
                }
                Ok(JobEvent::Cancelled) => {
                    done += 1;
                    dropped += 1;
                    self.shared.stats.job_cancelled();
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.send(&Response::BatchComplete {
            ok,
            failed,
            cancelled: dropped,
        })
    }

    /// The simulate flow: resolve the artifact, fan the trajectories
    /// across the supervisor's [`waltz_sim::TrajectoryPool`], stream
    /// fidelity chunks, close with the summary. The run is deterministic
    /// given the seed — every trajectory's RNG seed derives from the
    /// request seed and the trajectory's global index alone — so the
    /// stream is bit-identical for any worker-thread count, and a client
    /// can replay it locally with
    /// [`waltz_core::Simulation::fidelity_samples`] on the same artifact.
    fn run_simulate(
        &mut self,
        source: ArtifactSource,
        trajectories: usize,
        seed: u64,
        chunk: usize,
    ) -> bool {
        if trajectories > MAX_SIM_TRAJECTORIES {
            return self.send(&Response::Error(ErrorFrame::connection(
                ErrorCode::OVER_BUDGET,
                format!("{trajectories} trajectories exceed the cap of {MAX_SIM_TRAJECTORIES}"),
            )));
        }
        let artifact: CompileArtifact = match source {
            ArtifactSource::Inline(artifact) => *artifact,
            ArtifactSource::Cached {
                circuit_hash,
                fingerprint,
            } => {
                let cached = self
                    .shared
                    .supervisor
                    .compiler()
                    .artifact_cache()
                    .and_then(|cache| cache.get(circuit_hash, fingerprint));
                match cached {
                    Some(artifact) => artifact,
                    None => {
                        return self.send(&Response::Error(ErrorFrame::connection(
                            ErrorCode::NOT_FOUND,
                            format!(
                                "no cached artifact for {circuit_hash:016x}-{fingerprint:016x}"
                            ),
                        )))
                    }
                }
            }
        };
        let chunk = if chunk == 0 { DEFAULT_SIM_CHUNK } else { chunk };
        self.shared.stats.simulation(trajectories);
        let samples = if trajectories == 0 {
            Vec::new()
        } else {
            artifact
                .simulate()
                .with_seed(seed)
                .with_pool(Arc::clone(self.shared.supervisor.trajectory_pool()))
                .fidelity_samples(trajectories)
        };
        for (c, fidelities) in samples.chunks(chunk).enumerate() {
            if !self.send(&Response::TrajectoryChunk {
                start: c * chunk,
                fidelities: fidelities.to_vec(),
            }) {
                return false;
            }
        }
        // The local estimate's summary, so a client's replay matches it to
        // the bit; an empty run answers zeros rather than its NaN mean.
        let (mean, std_error) = if samples.is_empty() {
            (0.0, 0.0)
        } else {
            let estimate = FidelityEstimate::from_samples(&samples);
            (estimate.mean, estimate.std_error)
        };
        self.send(&Response::Fidelity {
            mean,
            std_error,
            trajectories,
        })
    }
}
