#![warn(missing_docs)]

//! # ifls-serve — the long-lived IFLS query daemon
//!
//! `ifls serve` turns the one-shot CLI pipeline into a resident process: a
//! hand-rolled HTTP/1.1 server over [`std::net`] (the build image has no
//! registry access, so there is no tokio/hyper — and none is needed for a
//! CPU-bound query service) in front of a persistent worker pool that
//! shares one [`VipTree`] loaded once from an `ifls-index/v1` snapshot.
//!
//! The design goals, in priority order:
//!
//! 1. **Bit-identical answers.** Every `/query` goes through
//!    [`ifls_core::api::solve`] and is rendered by the one `ifls-stats/v1`
//!    encoder — the same dispatch and encoder the CLI uses, so a daemon
//!    response is byte-for-byte the CLI's `--stats-json` line for the same
//!    workload on the same snapshot.
//! 2. **Bounded badness.** Admission control sheds load with a clean
//!    `503 + Retry-After` once the connection queue crosses its watermark
//!    ([`ServeOptions::queue_capacity`]); per-request [`Budget`] deadlines
//!    (request field, `Deadline-Ms` header, or server default) turn
//!    overruns into *degraded* answers with a sound optimality gap instead
//!    of timeouts; malformed input is a typed 4xx, never a panic or a hang.
//! 3. **Hot reload without a blip.** `POST /reload` (or `SIGHUP` on Unix)
//!    re-validates a snapshot from disk — magic, version, checksum *and*
//!    venue fingerprint — and swaps it in atomically behind a
//!    `Mutex<Arc<VipTree>>`. In-flight queries keep the [`Arc`] they
//!    cloned and drain on the old index; a refused snapshot leaves the old
//!    index serving and reports a typed reason.
//! 4. **"Why was that slow?" is answerable.** Every request is traced end
//!    to end — queue wait, per-phase self-times, cache and budget state —
//!    and a fixed-capacity flight recorder retains the K slowest plus
//!    every degraded/shed/panicked request for `GET /debug/requests`,
//!    `SIGUSR1` dumps and offline `ifls trace` analysis, while `/metrics`
//!    tracks per-(objective × algorithm) latency and an SLO error budget
//!    ([`ServeOptions::slo_ms`]).
//!
//! Protocol grammar, status codes and watermark semantics are documented
//! in DESIGN.md §12.
//!
//! [`Budget`]: ifls_core::Budget

mod handler;
mod http;
mod json;
mod pool;
mod supervisor;

pub use http::{read_request, write_response, HttpError, Request, Response};

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ifls_fault::{self as fault, FaultPoint};

use ifls_indoor::{Venue, VenueFingerprint};
use ifls_obs::{self as obs, Counter, ObsSink};
use ifls_viptree::{SnapshotError, VipTree, VipTreeConfig};

/// How to run the daemon.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads serving connections (`0` = `min(4, cores)`).
    pub workers: usize,
    /// Admission watermark: connections parked beyond the workers. One
    /// more arrival while the queue is full is shed with `503`.
    pub queue_capacity: usize,
    /// Largest accepted request body, in bytes (larger → `413`).
    pub max_body_bytes: usize,
    /// Default per-query deadline when the request names none.
    pub default_deadline_ms: Option<u64>,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u64,
    /// `ifls-index/v1` snapshot to serve from (also the `SIGHUP` /
    /// `/reload` default). `None` builds the index in-process.
    pub index: Option<PathBuf>,
    /// Fall back to an in-process build when the snapshot is refused.
    pub index_or_build: bool,
    /// Refuse the `index_or_build` fallback: a daemon that silently
    /// rebuilds at startup masks a stale or corrupt artifact, so strict
    /// mode turns the fallback into a typed startup error.
    pub strict: bool,
    /// Threads for an in-process index build (`0` = all cores).
    pub build_threads: usize,
    /// Per-connection socket read timeout (idle keep-alive connections
    /// are closed after this long).
    pub read_timeout: Duration,
    /// Hard wall-clock cap on reading one full request, headers and body
    /// together. `read_timeout` only bounds each read syscall, so a
    /// slow-loris client dripping one byte per almost-timeout could hold
    /// a worker forever; crossing this cap closes the connection.
    pub request_read_timeout: Duration,
    /// Install a `SIGHUP` → reload handler (Unix only; ignored elsewhere).
    pub sighup_reload: bool,
    /// SLO latency target for `/query` requests, in milliseconds. When
    /// set, every answered query ticks `slo_requests_good` or
    /// `slo_requests_bad` and `/metrics` exports the remaining error
    /// budget as a gauge. `None` disables SLO accounting.
    pub slo_ms: Option<u64>,
    /// Flight-recorder capacity: how many completed request traces are
    /// retained for `GET /debug/requests` (the K slowest plus every
    /// degraded/shed/panicked request). `0` disables the recorder and
    /// per-request trace capture entirely.
    pub recorder_capacity: usize,
    /// Where `SIGUSR1` dumps the recorder's traces (`ifls-trace/v1`
    /// JSONL, readable with `ifls trace`). `None` disables the signal
    /// dump; the `GET /debug/requests` endpoint is unaffected.
    pub trace_dump: Option<PathBuf>,
    /// How long a worker's heartbeat may stand still before the
    /// supervisor declares it wedged, retires it, and spawns a
    /// replacement. Also sets the idle wake interval (a quarter of this,
    /// clamped to 10–250 ms) so parked workers keep ticking.
    pub worker_wedge_ms: u64,
    /// Budget for a graceful drain (SIGTERM or `POST /shutdown`): how
    /// long the daemon waits for queued and in-flight requests to finish
    /// before tearing the pool down anyway.
    pub drain_deadline_ms: u64,
    /// Install a `SIGTERM` → graceful drain handler (Unix only; ignored
    /// elsewhere).
    pub sigterm_drain: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 64,
            max_body_bytes: 64 * 1024,
            default_deadline_ms: None,
            retry_after_secs: 1,
            index: None,
            index_or_build: false,
            strict: false,
            build_threads: 0,
            read_timeout: Duration::from_secs(5),
            request_read_timeout: Duration::from_secs(10),
            sighup_reload: true,
            slo_ms: None,
            recorder_capacity: 64,
            trace_dump: Some(PathBuf::from("ifls-trace-dump.jsonl")),
            worker_wedge_ms: 5_000,
            drain_deadline_ms: 5_000,
            sigterm_drain: true,
        }
    }
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the listen address.
    Bind(std::io::Error),
    /// The startup snapshot was refused (and no fallback was allowed).
    Snapshot {
        /// The snapshot path.
        path: PathBuf,
        /// Why it was refused.
        error: SnapshotError,
    },
    /// `--strict` refused the `--index-or-build` fallback: the snapshot
    /// was rejected and a silent in-process rebuild is exactly what
    /// strict mode exists to prevent.
    StrictFallbackRefused {
        /// The snapshot path.
        path: PathBuf,
        /// Why the snapshot was refused.
        error: SnapshotError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "cannot bind listen address: {e}"),
            ServeError::Snapshot { path, error } => {
                write!(f, "index `{}`: {error}", path.display())
            }
            ServeError::StrictFallbackRefused { path, error } => write!(
                f,
                "index `{}` refused ({error}); --strict forbids the in-process \
                 rebuild fallback, refusing to start",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Stable wire label for a [`SnapshotError`] variant (used in reload
/// refusal responses and logs).
pub fn snapshot_error_kind(e: &SnapshotError) -> &'static str {
    match e {
        SnapshotError::Io(_) => "io",
        SnapshotError::BadMagic => "bad_magic",
        SnapshotError::UnsupportedVersion(_) => "unsupported_version",
        SnapshotError::Truncated => "truncated",
        SnapshotError::ChecksumMismatch { .. } => "checksum_mismatch",
        SnapshotError::FingerprintMismatch { .. } => "fingerprint_mismatch",
        SnapshotError::Corrupt(_) => "corrupt",
    }
}

/// One installed index: the tree plus its provenance. Swapped as a unit
/// under [`Shared::tree`]; request handlers clone the [`Arc`] and release
/// the lock, so in-flight queries drain on whichever version they started
/// with while a reload installs the next one.
#[derive(Clone)]
pub struct TreeVersion {
    /// The shared index.
    pub tree: Arc<VipTree<'static>>,
    /// Monotonic install counter (1 = the startup index).
    pub version: u64,
    /// Fingerprint of the venue the index answers for.
    pub fingerprint: VenueFingerprint,
    /// `snapshot:<path>` or `built`.
    pub source: String,
}

/// State shared by the acceptor, the workers, and reloads.
pub(crate) struct Shared {
    pub(crate) venue: &'static Venue,
    pub(crate) tree: Mutex<TreeVersion>,
    pub(crate) queue: pool::ConnQueue,
    pub(crate) metrics: Mutex<ObsSink>,
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
    /// Graceful drain in progress: the acceptor refuses new work with a
    /// 503, responses close their connections, and the supervisor stops
    /// respawning. Set (once) by [`begin_drain`].
    pub(crate) draining: AtomicBool,
    /// Requests a worker currently holds (popped and not yet answered).
    /// The drain coordinator waits for this to reach zero.
    pub(crate) in_flight: AtomicUsize,
    /// Live shed-responder threads (see [`MAX_SHED_THREADS`]).
    pub(crate) shed_active: AtomicUsize,
    /// The slow-query flight recorder (`None` when
    /// [`ServeOptions::recorder_capacity`] is 0: no per-request traces
    /// are captured at all).
    pub(crate) recorder: Option<obs::FlightRecorder>,
    /// The worker pool's supervisor (owns every worker handle).
    pub(crate) supervisor: supervisor::Supervisor,
    /// The bound listen address (the drain coordinator self-connects to
    /// unblock the acceptor).
    pub(crate) addr: SocketAddr,
    /// Flipped once by the drain coordinator when the daemon has fully
    /// stopped; [`Server::wait`] blocks on it.
    pub(crate) stopped: Mutex<bool>,
    pub(crate) stopped_cv: Condvar,
    pub(crate) opts: ServeOptions,
}

/// Locks ignoring poisoning. Worker threads survive handler panics (see
/// [`worker_loop`]), so a panic that happened to unwind through one of
/// these critical sections must not wedge metrics or reloads for every
/// other thread — the guarded state is merge-only counters or a
/// whole-value swap, both valid after an unwind.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Shared {
    /// Drains this thread's observability records into the server sink.
    pub(crate) fn flush_local_obs(&self) {
        let local = obs::take_local();
        if !local.is_empty() {
            let mut sink = lock_unpoisoned(&self.metrics);
            if fault::should_fail(FaultPoint::LockPoison) {
                panic!("injected panic while holding the metrics lock");
            }
            sink.merge(&local);
        }
    }

    /// Re-validates and installs a snapshot; the old index keeps serving
    /// on any failure. Returns the new [`TreeVersion`] on success.
    pub(crate) fn reload(
        &self,
        path_override: Option<&Path>,
    ) -> Result<TreeVersion, ReloadRefused> {
        let path = match path_override.or(self.opts.index.as_deref()) {
            Some(p) => p.to_path_buf(),
            None => return Err(ReloadRefused::NoPath),
        };
        match VipTree::load_snapshot_with_info(self.venue, &path) {
            Ok((tree, info)) => {
                let mut tv = lock_unpoisoned(&self.tree);
                *tv = TreeVersion {
                    tree: Arc::new(tree),
                    version: tv.version + 1,
                    fingerprint: info.fingerprint,
                    source: format!("snapshot:{}", path.display()),
                };
                obs::counter_add(Counter::ReloadsApplied, 1);
                Ok(tv.clone())
            }
            Err(error) => {
                obs::counter_add(Counter::ReloadsRefused, 1);
                Err(ReloadRefused::Snapshot { path, error })
            }
        }
    }

    pub(crate) fn current_tree(&self) -> TreeVersion {
        let tv = lock_unpoisoned(&self.tree);
        if fault::should_fail(FaultPoint::LockPoison) {
            panic!("injected panic while holding the tree-version lock");
        }
        tv.clone()
    }

    /// Writes the recorder's retained traces to
    /// [`ServeOptions::trace_dump`] as `ifls-trace/v1` JSONL (the
    /// `SIGUSR1` action). `Ok(None)` when there is no recorder or no dump
    /// path configured.
    pub(crate) fn dump_traces(&self) -> std::io::Result<Option<(usize, PathBuf)>> {
        let (Some(rec), Some(path)) = (&self.recorder, &self.opts.trace_dump) else {
            return Ok(None);
        };
        let traces = rec.snapshot();
        let n = traces.len();
        write_atomic(
            path,
            obs::to_trace_jsonl(&traces, rec.capacity()).as_bytes(),
        )?;
        Ok(Some((n, path.clone())))
    }

    /// The drain coordinator's final flush: the flight-recorder dump plus
    /// a Prometheus snapshot of the merged metrics sink next to it
    /// (`<trace-dump>.metrics.prom`), both written atomically. A daemon
    /// without a recorder or dump path skips both — drain must never
    /// invent a file the operator did not configure.
    pub(crate) fn dump_final(&self) -> std::io::Result<Option<(usize, PathBuf)>> {
        let dumped = self.dump_traces()?;
        if let (Some(_), Some(path)) = (&dumped, &self.opts.trace_dump) {
            let sink = lock_unpoisoned(&self.metrics).clone();
            let mut prom_path = path.clone().into_os_string();
            prom_path.push(".metrics.prom");
            write_atomic(Path::new(&prom_path), obs::to_prometheus(&sink).as_bytes())?;
        }
        Ok(dumped)
    }
}

/// Write-then-rename: a crash mid-write leaves the previous dump intact,
/// and a reader never sees a torn file.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Why a reload left the old index serving.
pub(crate) enum ReloadRefused {
    /// The daemon was started without `--index` and the request named no
    /// replacement path.
    NoPath,
    /// The replacement snapshot failed validation.
    Snapshot { path: PathBuf, error: SnapshotError },
}

/// A running daemon. Dropping it does *not* stop the threads; call
/// [`Server::shutdown`] for an orderly stop (tests do; a real deployment
/// just lets the process exit).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Builds or loads the index, binds the listener, and starts the
    /// acceptor + worker threads. The `venue` is leaked to `'static`
    /// (one leak per server, for the life of the process — the index
    /// borrows it and must outlive every worker thread).
    pub fn start(venue: Venue, opts: ServeOptions) -> Result<Server, ServeError> {
        obs::set_enabled(true);
        let venue: &'static Venue = Box::leak(Box::new(venue));
        let initial = initial_tree(venue, &opts)?;
        let listener = TcpListener::bind(&opts.addr).map_err(ServeError::Bind)?;
        let addr = listener.local_addr().map_err(ServeError::Bind)?;
        let workers = if opts.workers == 0 {
            ifls_core::parallel::default_threads().min(4)
        } else {
            opts.workers
        };
        let recorder =
            (opts.recorder_capacity > 0).then(|| obs::FlightRecorder::new(opts.recorder_capacity));
        let shared = Arc::new(Shared {
            venue,
            tree: Mutex::new(initial),
            queue: pool::ConnQueue::new(opts.queue_capacity),
            metrics: Mutex::new(ObsSink::default()),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            shed_active: AtomicUsize::new(0),
            recorder,
            supervisor: supervisor::Supervisor::new(workers),
            addr,
            stopped: Mutex::new(false),
            stopped_cv: Condvar::new(),
            opts,
        });
        // Records from the initial load (snapshot I/O span, a possible
        // fallback counter) belong to the server sink.
        shared.flush_local_obs();
        shared.supervisor.spawn_initial(&shared);
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-acceptor".into())
                    .spawn(move || acceptor_loop(&shared, listener))
                    .expect("spawn acceptor"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-supervisor".into())
                    .spawn(move || supervisor_loop(&shared))
                    .expect("spawn supervisor"),
            );
        }
        let hup = shared.opts.sighup_reload;
        let usr1 = shared.recorder.is_some() && shared.opts.trace_dump.is_some();
        let term = shared.opts.sigterm_drain;
        if hup || usr1 || term {
            if let Some(handle) = signals::install(Arc::clone(&shared), hup, usr1, term) {
                threads.push(handle);
            }
        }
        Ok(Server {
            shared,
            addr,
            threads,
        })
    }

    /// The bound listen address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic reload (same path as `POST /reload`). Returns the new
    /// index version on success.
    pub fn reload(&self, path: Option<&Path>) -> Result<u64, String> {
        let r = self
            .shared
            .reload(path)
            .map(|tv| tv.version)
            .map_err(|e| match e {
                ReloadRefused::NoPath => "no snapshot path to reload from".to_string(),
                ReloadRefused::Snapshot { path, error } => {
                    format!("index `{}`: {error}", path.display())
                }
            });
        self.shared.flush_local_obs();
        r
    }

    /// A snapshot of the server's merged metrics sink.
    pub fn metrics_sink(&self) -> ObsSink {
        lock_unpoisoned(&self.shared.metrics).clone()
    }

    /// Immediate stop: close the queue (parked connections are dropped),
    /// stop accepting, join every thread. Tests use this for fast
    /// teardown; a deployment gets the graceful path via `SIGTERM`,
    /// `POST /shutdown`, or [`Server::begin_shutdown`] + [`Server::wait`].
    pub fn shutdown(self) {
        // Draining first keeps the supervisor from respawning workers
        // that would immediately see the closed queue.
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Unblock the acceptor's blocking `accept` with a no-op connect.
        let _ = TcpStream::connect(self.addr);
        self.shared.supervisor.join_workers();
        for t in self.threads {
            let _ = t.join();
        }
        let mut stopped = lock_unpoisoned(&self.shared.stopped);
        *stopped = true;
        self.shared.stopped_cv.notify_all();
    }

    /// Starts a graceful drain (idempotent): the same path `SIGTERM` and
    /// `POST /shutdown` take. Returns immediately; pair with
    /// [`Server::wait`] to block until the drain completes.
    pub fn begin_shutdown(&self) {
        begin_drain(&self.shared, "api");
    }

    /// Blocks until a drain (from `SIGTERM`, `POST /shutdown`, or
    /// [`Server::begin_shutdown`]) has fully stopped the daemon, then
    /// joins every thread. A daemon that is never asked to stop blocks
    /// here forever — this is the serve command's foreground wait.
    pub fn wait(self) {
        {
            let mut stopped = lock_unpoisoned(&self.shared.stopped);
            while !*stopped {
                stopped = self
                    .shared
                    .stopped_cv
                    .wait(stopped)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        self.shared.supervisor.join_workers();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Flips the daemon into drain mode (idempotent) and hands the rest to a
/// coordinator thread: refuse new work, finish queued + in-flight
/// requests under the [`ServeOptions::drain_deadline_ms`] budget, flush
/// the final dump, stop.
pub(crate) fn begin_drain(shared: &Arc<Shared>, reason: &str) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    eprintln!(
        "drain started ({reason}): refusing new work, finishing {} queued + {} in-flight \
         request(s) within {}ms",
        shared.queue.depth(),
        shared.in_flight.load(Ordering::SeqCst),
        shared.opts.drain_deadline_ms
    );
    let on_thread = Arc::clone(shared);
    std::thread::Builder::new()
        .name("serve-drain".into())
        .spawn(move || drain_coordinator(&on_thread))
        .expect("spawn drain coordinator");
}

fn drain_coordinator(shared: &Arc<Shared>) {
    let deadline = Instant::now() + Duration::from_millis(shared.opts.drain_deadline_ms);
    // Quiet means empty queue and zero in-flight requests, observed on
    // two consecutive polls: a connection is briefly neither (popped,
    // guard not yet registered), and the double read closes that window.
    let mut quiet_streak = 0;
    while Instant::now() < deadline {
        let quiet = shared.queue.depth() == 0 && shared.in_flight.load(Ordering::SeqCst) == 0;
        quiet_streak = if quiet { quiet_streak + 1 } else { 0 };
        if quiet_streak >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue.close();
    let _ = TcpStream::connect(shared.addr);
    // Workers exit at their next loop iteration; give any deadline
    // overrun a moment so the final dump still sees those requests.
    let grace = Instant::now() + Duration::from_millis(250);
    while shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.flush_local_obs();
    match shared.dump_final() {
        Ok(Some((n, path))) => eprintln!(
            "drain complete: {n} request trace(s) -> {} (+ metrics snapshot)",
            path.display()
        ),
        Ok(None) => eprintln!("drain complete"),
        Err(e) => eprintln!("drain complete; final dump failed: {e}"),
    }
    let mut stopped = lock_unpoisoned(&shared.stopped);
    *stopped = true;
    shared.stopped_cv.notify_all();
}

/// The supervisor thread: periodic [`supervisor::Supervisor::tick`]
/// passes while the daemon is live; a draining pool is expected to
/// shrink, so passes stop once a drain begins.
fn supervisor_loop(shared: &Arc<Shared>) {
    let wedge = Duration::from_millis(shared.opts.worker_wedge_ms.max(1));
    let interval = (wedge / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if !shared.draining.load(Ordering::SeqCst) {
            shared.supervisor.tick(shared, wedge);
        }
        std::thread::sleep(interval);
    }
}

/// Resolves the startup index per `--index` / `--index-or-build` /
/// `--strict` (same ladder as the CLI's `obtain_tree`, with the strict
/// refusal on top).
fn initial_tree(venue: &'static Venue, opts: &ServeOptions) -> Result<TreeVersion, ServeError> {
    if let Some(path) = &opts.index {
        match VipTree::load_snapshot_with_info(venue, path) {
            Ok((tree, info)) => {
                return Ok(TreeVersion {
                    tree: Arc::new(tree),
                    version: 1,
                    fingerprint: info.fingerprint,
                    source: format!("snapshot:{}", path.display()),
                })
            }
            Err(error) if opts.index_or_build => {
                obs::counter_add(Counter::SnapshotFallbacks, 1);
                if opts.strict {
                    return Err(ServeError::StrictFallbackRefused {
                        path: path.clone(),
                        error,
                    });
                }
                eprintln!(
                    "index `{}` refused ({error}); building in-process",
                    path.display()
                );
            }
            Err(error) => {
                return Err(ServeError::Snapshot {
                    path: path.clone(),
                    error,
                })
            }
        }
    }
    let tree = VipTree::build_with_threads(venue, VipTreeConfig::default(), opts.build_threads);
    Ok(TreeVersion {
        tree: Arc::new(tree),
        version: 1,
        fingerprint: VenueFingerprint::compute(venue),
        source: "built".into(),
    })
}

/// The acceptor: admit into the bounded queue or shed with a clean 503.
fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let conn = match conn {
            Ok(c) => c,
            Err(_) => continue,
        };
        if shared.draining.load(Ordering::SeqCst) {
            // A draining daemon refuses every new connection with the
            // same clean 503 as overload: the client's retry lands on a
            // healthy peer (or this process, restarted).
            shed(
                shared,
                conn,
                "draining: the daemon is shutting down; retry later",
            );
            continue;
        }
        if let Err(conn) = shared.queue.try_push(conn) {
            shed(
                shared,
                conn,
                "connection queue is at its watermark; retry later",
            );
        }
    }
    shared.flush_local_obs();
}

/// Upper bound on live shed-responder threads. Past the cap the 503 is
/// written inline from the acceptor with a short write timeout: admission
/// control exists to bound resource use under overload, so it must not
/// itself be able to mint one thread per shed connection without limit.
const MAX_SHED_THREADS: usize = 32;

/// How long one shed responder may spend reading the doomed request.
const SHED_READ_TIMEOUT: Duration = Duration::from_millis(500);

/// `Retry-After` seconds for a shed response, priced from the observed
/// queue drain rate: how long until the backlog ahead of a retry has
/// drained, clamped to 1–30 s. Falls back to the configured constant
/// when the queue has not drained recently enough to measure.
pub(crate) fn retry_after_secs(shared: &Shared) -> u64 {
    let rate = shared.queue.drain_rate_per_sec();
    let secs = if rate > 0.0 {
        ((shared.queue.depth() as f64 + 1.0) / rate).ceil() as u64
    } else {
        shared.opts.retry_after_secs
    };
    secs.clamp(1, 30)
}

/// Sheds one connection with a `503 + Retry-After`. Up to
/// [`MAX_SHED_THREADS`] at a time get a detached thread that first reads
/// (and discards) the request, so the client has finished sending before
/// the refusal lands — responding at accept time and closing immediately
/// can turn into a connection reset before the client ever reads the 503.
/// Beyond the cap the response is a best-effort inline write instead.
fn shed(shared: &Arc<Shared>, conn: TcpStream, detail: &str) {
    obs::counter_add(Counter::RequestsShed, 1);
    if let Some(rec) = &shared.recorder {
        // Shed requests never reach a handler, so they get a synthetic
        // trace — flagged, and therefore never evicted by fast requests.
        rec.offer(obs::RequestTrace {
            trace_id: obs::TraceContext::next().trace_id(),
            status: 503,
            shed: true,
            ..obs::RequestTrace::default()
        });
    }
    shared.flush_local_obs();
    let resp = handler::error_response(503, "overloaded", detail)
        .with_header("Retry-After", retry_after_secs(shared).to_string())
        .closing();
    if shared.shed_active.fetch_add(1, Ordering::SeqCst) >= MAX_SHED_THREADS {
        shared.shed_active.fetch_sub(1, Ordering::SeqCst);
        // Saturated: answer from the acceptor without reading the
        // request. The short write timeout keeps a dead-slow client from
        // stalling accepts; losing the read-first nicety is the price of
        // staying bounded.
        let mut conn = conn;
        let _ = conn.set_write_timeout(Some(Duration::from_millis(100)));
        let _ = http::write_response(&mut conn, &resp);
        return;
    }
    let max_body = shared.opts.max_body_bytes;
    let on_thread = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("serve-shed".into())
        .spawn(move || {
            let _ = conn.set_read_timeout(Some(SHED_READ_TIMEOUT));
            if let Ok(clone) = conn.try_clone() {
                let mut reader = BufReader::new(clone);
                let _ = http::read_request(&mut reader, max_body, SHED_READ_TIMEOUT);
                let mut conn = conn;
                let _ = http::write_response(&mut conn, &resp);
            }
            on_thread.shed_active.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        shared.shed_active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Guard for one in-flight request: registered while a worker answers
/// it, so the drain coordinator can wait for exactly the requests that
/// were admitted. Drop-based so a panic unwinding through a handler still
/// deregisters.
pub(crate) struct InFlight<'a>(&'a Shared);

impl<'a> InFlight<'a> {
    pub(crate) fn new(shared: &'a Shared) -> InFlight<'a> {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        InFlight(shared)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One worker: park on the queue, own a connection for its keep-alive
/// lifetime, answer request by request.
///
/// Connections are handled under `catch_unwind`: handlers validate their
/// way out of every known panic, but an escaped panic must cost exactly
/// one connection, never a worker — with a fixed pool, each lost worker
/// would shrink capacity until the daemon accepts but never answers.
fn worker_loop(shared: &Arc<Shared>, slot: &supervisor::WorkerSlot) {
    let wedge = Duration::from_millis(shared.opts.worker_wedge_ms.max(1));
    let idle_wake = (wedge / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
    loop {
        // One heartbeat tick per iteration — on popped work and on idle
        // wake alike, so parked-but-healthy never reads as wedged.
        slot.tick();
        if slot.is_retired() || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Chaos crossing with no work in hand: `Fail` kills this worker
        // cleanly (no request is lost; the supervisor respawns), `Delay`
        // stalls the heartbeat to exercise wedge detection.
        if fault::should_fail(FaultPoint::WorkerHeartbeat) {
            panic!("injected worker death at worker_heartbeat");
        }
        let (conn, queue_wait) = match shared.queue.pop_timeout(idle_wake) {
            pool::Popped::Conn(conn, queue_wait) => (conn, queue_wait),
            pool::Popped::Idle => continue,
            pool::Popped::Closed => break,
        };
        slot.tick();
        // Chaos crossing with work in hand: `Delay` here is the canonical
        // wedged-worker simulation (connections held, heartbeat stalled).
        if fault::should_fail(FaultPoint::QueueWedge) {
            panic!("injected worker death at queue_wedge");
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs::record_ns("serve_queue_wait_ns", queue_wait.as_nanos() as u64);
            handle_connection(shared, conn, queue_wait);
        }));
        if caught.is_err() {
            obs::counter_add(Counter::ServePanics, 1);
            if let Some(rec) = &shared.recorder {
                // The request that unwound never finalized its own trace;
                // record a synthetic flagged one so the panic is visible
                // in `/debug/requests`, not just as a counter.
                rec.offer(obs::RequestTrace {
                    trace_id: obs::TraceContext::next().trace_id(),
                    panicked: true,
                    ..obs::RequestTrace::default()
                });
            }
        }
        shared.flush_local_obs();
    }
    shared.flush_local_obs();
}

fn handle_connection(shared: &Arc<Shared>, conn: TcpStream, queue_wait: Duration) {
    let _ = conn.set_read_timeout(Some(shared.opts.read_timeout));
    let mut writer = match conn.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    };
    let mut reader = BufReader::new(conn);
    // Only the first request on a keep-alive connection spent time parked
    // in the queue; later ones are served as they arrive.
    let mut queue_wait_ns = queue_wait.as_nanos() as u64;
    loop {
        // Chaos crossing on the read path: `Fail` surfaces as a typed
        // 400 (never a torn response), `Delay` slows the read.
        if fault::should_fail(FaultPoint::IoRead) {
            let resp =
                handler::error_response(400, "bad_request", "injected io_read fault").closing();
            let _ = http::write_response(&mut writer, &resp);
            return;
        }
        let request = match http::read_request(
            &mut reader,
            shared.opts.max_body_bytes,
            shared.opts.request_read_timeout,
        ) {
            Ok(r) => r,
            Err(HttpError::Eof) | Err(HttpError::Io(_)) => return,
            Err(HttpError::BadRequest(detail)) => {
                let resp = handler::error_response(400, "bad_request", &detail).closing();
                let _ = http::write_response(&mut writer, &resp);
                return;
            }
            Err(HttpError::LengthRequired) => {
                let resp = handler::error_response(
                    411,
                    "length_required",
                    "body-carrying requests must send Content-Length",
                )
                .closing();
                let _ = http::write_response(&mut writer, &resp);
                return;
            }
            Err(HttpError::PayloadTooLarge { declared, limit }) => {
                let resp = handler::error_response(
                    413,
                    "payload_too_large",
                    &format!("request body of {declared} B exceeds the {limit} B limit"),
                )
                .closing();
                let _ = http::write_response(&mut writer, &resp);
                return;
            }
        };
        let started = Instant::now();
        // Register as in-flight only while a request is actually being
        // answered: an idle keep-alive connection parked in the read
        // above must not hold a drain open.
        let in_flight = InFlight::new(shared);
        let wants_close = request.wants_close();
        let trace_ctx = shared.recorder.as_ref().map(|_| obs::TraceContext::next());
        let (response, trace) = handler::route(shared, &request, trace_ctx);
        obs::counter_add(Counter::RequestsTotal, 1);
        let total_ns = started.elapsed().as_nanos() as u64;
        obs::record_ns("serve_request_latency_ns", total_ns);
        finish_request_obs(shared, response.status, trace, total_ns, queue_wait_ns);
        queue_wait_ns = 0;
        // While draining, every response closes its connection so a
        // keep-alive client cannot park new requests on a dying daemon.
        let draining = shared.draining.load(Ordering::SeqCst);
        let close = response.close || wants_close || draining;
        let response = if close { response.closing() } else { response };
        shared.flush_local_obs();
        let write = http::write_response(&mut writer, &response);
        drop(in_flight);
        if write.is_err() || close {
            return;
        }
    }
}

/// Transport-side completion bookkeeping for one answered request: the
/// per-(objective × algorithm) latency histogram, SLO accounting, and the
/// flight-recorder offer. `trace` is `None` exactly when the recorder is
/// disabled, so with `--recorder-capacity 0` this is one branch.
fn finish_request_obs(
    shared: &Arc<Shared>,
    status: u16,
    trace: Option<obs::RequestTrace>,
    total_ns: u64,
    queue_wait_ns: u64,
) {
    let Some(mut t) = trace else { return };
    t.status = status;
    // The handler stamped the solver's own elapsed time; overwrite with
    // the full request wall time (parse + solve + render) the client saw.
    t.total_ns = total_ns;
    t.queue_wait_ns = queue_wait_ns;
    if !t.objective.is_empty() {
        // Only requests that actually reached a solver dispatch carry an
        // objective; those are the ones the SLO and the per-combination
        // histograms track.
        if let Some(name) = combo_hist_name(&t.objective, &t.algorithm) {
            obs::record_ns(name, total_ns);
        }
        if let Some(slo_ms) = shared.opts.slo_ms {
            let within = total_ns <= slo_ms.saturating_mul(1_000_000);
            let good = status == 200 && within;
            let c = if good {
                Counter::SloGood
            } else {
                Counter::SloBad
            };
            obs::counter_add(c, 1);
            t.slo_violation = !good;
        }
    }
    if let Some(rec) = &shared.recorder {
        rec.offer(t);
    }
}

/// The per-(objective × algorithm) latency histogram name. Histogram keys
/// are `&'static str`, so the 3×3 grid is a fixed table; an unknown pair
/// (possible only if a new variant forgets this table) records nothing.
fn combo_hist_name(objective: &str, algorithm: &str) -> Option<&'static str> {
    Some(match (objective, algorithm) {
        ("minmax", "efficient") => "serve_latency_minmax_efficient_ns",
        ("minmax", "baseline") => "serve_latency_minmax_baseline_ns",
        ("minmax", "brute") => "serve_latency_minmax_brute_ns",
        ("mindist", "efficient") => "serve_latency_mindist_efficient_ns",
        ("mindist", "baseline") => "serve_latency_mindist_baseline_ns",
        ("mindist", "brute") => "serve_latency_mindist_brute_ns",
        ("maxsum", "efficient") => "serve_latency_maxsum_efficient_ns",
        ("maxsum", "baseline") => "serve_latency_maxsum_baseline_ns",
        ("maxsum", "brute") => "serve_latency_maxsum_brute_ns",
        _ => return None,
    })
}

/// `SIGHUP` → reload, `SIGUSR1` → trace dump, `SIGTERM` → graceful
/// drain, without a libc dependency: `std` already links libc, so the C
/// `signal` entry point can be declared directly. Handlers only flip an
/// [`AtomicBool`]; one poll thread applies the action outside
/// async-signal context.
#[cfg(unix)]
mod signals {
    use super::*;

    static HUP_PENDING: AtomicBool = AtomicBool::new(false);
    static USR1_PENDING: AtomicBool = AtomicBool::new(false);
    static TERM_PENDING: AtomicBool = AtomicBool::new(false);

    const SIGHUP: i32 = 1;
    const SIGTERM: i32 = 15;
    /// `SIGUSR1` is 10 on Linux, 30 on the BSD-numbered Unixes (macOS).
    #[cfg(target_os = "linux")]
    const SIGUSR1: i32 = 10;
    #[cfg(all(unix, not(target_os = "linux")))]
    const SIGUSR1: i32 = 30;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sighup(_: i32) {
        HUP_PENDING.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_sigusr1(_: i32) {
        USR1_PENDING.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_sigterm(_: i32) {
        TERM_PENDING.store(true, Ordering::SeqCst);
    }

    pub(crate) fn install(
        shared: Arc<Shared>,
        hup: bool,
        usr1: bool,
        term: bool,
    ) -> Option<std::thread::JoinHandle<()>> {
        unsafe {
            if hup {
                signal(SIGHUP, on_sighup as *const () as usize);
            }
            if usr1 {
                signal(SIGUSR1, on_sigusr1 as *const () as usize);
            }
            if term {
                signal(SIGTERM, on_sigterm as *const () as usize);
            }
        }
        std::thread::Builder::new()
            .name("serve-signals".into())
            .spawn(move || loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if hup && HUP_PENDING.swap(false, Ordering::SeqCst) {
                    match shared.reload(None) {
                        Ok(tv) => eprintln!(
                            "SIGHUP reload applied: {} (version {})",
                            tv.source, tv.version
                        ),
                        Err(ReloadRefused::NoPath) => {
                            eprintln!("SIGHUP reload skipped: no snapshot path")
                        }
                        Err(ReloadRefused::Snapshot { path, error }) => {
                            eprintln!("SIGHUP reload refused: index `{}`: {error}", path.display())
                        }
                    }
                    shared.flush_local_obs();
                }
                if usr1 && USR1_PENDING.swap(false, Ordering::SeqCst) {
                    match shared.dump_traces() {
                        Ok(Some((n, path))) => eprintln!(
                            "SIGUSR1 trace dump: {n} request trace(s) -> {}",
                            path.display()
                        ),
                        Ok(None) => {}
                        Err(e) => eprintln!("SIGUSR1 trace dump failed: {e}"),
                    }
                    shared.flush_local_obs();
                }
                if term && TERM_PENDING.swap(false, Ordering::SeqCst) {
                    crate::begin_drain(&shared, "SIGTERM");
                }
                std::thread::sleep(Duration::from_millis(200));
            })
            .ok()
    }
}

#[cfg(not(unix))]
mod signals {
    use super::*;

    pub(crate) fn install(
        _shared: Arc<Shared>,
        _hup: bool,
        _usr1: bool,
        _term: bool,
    ) -> Option<std::thread::JoinHandle<()>> {
        None
    }
}
