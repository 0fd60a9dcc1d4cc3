//! The admission daemon: one serving pipeline for every shard count
//! (DESIGN.md §12).
//!
//! ```text
//! accept ─► conns ─► workers ─┬─► BoundedQueue[0]   ─► shard 0 (the calling thread)
//!                    (parse,  ├─► BoundedQueue[1]   ─► shard 1
//!                     route)  └─► BoundedQueue[S-1] ─► shard S-1
//! ```
//!
//! Workers route a submit to its home shard `id mod S`, split a v3
//! batch frame into per-shard parts that gather into one reply, and
//! send every control and replication frame to shard 0, which leads the
//! node (slot clock, role, epoch, snapshots, shutdown). Each shard's
//! decide loop owns one scheduler behind its own lock, a dedupe ring and
//! a recovery log its supervisor replays after a panic. Shard 0 runs on
//! the thread that calls [`serve`] or [`crate::serve_sharded`], so a
//! `!Send` scheduler (one built around a [`DecisionTap`]) never leaves
//! it. At S = 1 this is the paper's single decision maker; S > 1
//! partitions the cloudlets ([`crate::shard`]).
//!
//! **Id rule** (every S): ids in a shard's residue class arrive
//! increasing, with gaps allowed (an overloaded frame's ids are simply
//! skipped). A lower id is answered from the dedupe ring while it is
//! still there (an idempotent resubmit) and refused otherwise.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufRead as _, BufReader, BufWriter, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use mec_obs::{
    DecisionEvent, JsonlSink, MetricsRegistry, MetricsSink, Outcome, PipelineStage, RejectReason,
    StageClock, TraceEvent, TraceSink,
};
use mec_sim::obs::EngineMetrics;
use mec_topology::{CloudletId, Reliability};
use mec_workload::{Horizon, Request, RequestId, VnfTypeId};
use vnfrel::{OnlineScheduler, SchedulerState};

use crate::epoch::{Epoch, FenceCheck};
use crate::error::ServeError;
use crate::flight::{SharedFlight, FLIGHT_CAPACITY};
use crate::metrics::ServeMetricIds;
use crate::pool::{BoundedQueue, PopTimeout};
use crate::protocol::{
    encode_batch_reply_into, encode_client, encode_server, is_batch_frame, parse_batch_into,
    parse_client, parse_server, ClientMsg, ControlAck, ControlAction, OverloadReject, ServeStats,
    ServerMsg, SubmitRequest, BATCH_ADMIT, BATCH_ERROR, BATCH_OVERLOAD, BATCH_REJECT,
    MAX_LINE_BYTES,
};
use crate::replica::{
    encode_repl, is_repl_line, parse_repl, run_repl_sender, PendingReply, ReplHandle, ReplItem,
    ReplMsg, ReplSenderConfig,
};
use crate::snapshot::Snapshot;
use crate::status::StatusShared;
use crate::tap::DecisionTap;

/// How long a promoting standby waits for the replication connection to
/// drain (EOF from a dead primary) before force-closing it — the
/// split-brain guard for promotions against a still-live primary.
const PROMOTE_DRAIN_GRACE: Duration = Duration::from_millis(500);

/// How long an idle decide loop waits before rechecking its flags.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Decisions between recovery-base compactions (bounds a heal's replay).
const RECOVERY_COMPACT: usize = 64;

/// Write timeout on client sockets: a reply write that cannot complete
/// in this long means the peer stopped draining (slow-loris), and the
/// connection is dropped so it cannot pin a worker or a decide loop.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How the daemon listens, shards, queues, ticks and persists.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (see [`ServeReport`]).
    pub addr: String,
    /// Number of shards `S` (decide loops). [`serve`] runs exactly one;
    /// [`crate::serve_sharded`] accepts `1..=cloudlet_count`. S > 1
    /// refuses replication, snapshots and the trace file.
    pub shards: usize,
    /// Per-shard queue bound; submits beyond it get typed overload
    /// rejections, batch parts overload codes.
    pub queue_capacity: usize,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Snapshot file; `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Load the snapshot (if the file exists) before serving.
    pub resume: bool,
    /// Advance the virtual slot clock every `tick` of wall time; `None`
    /// advances only on explicit `advance-slot` control messages.
    pub tick: Option<Duration>,
    /// Scenario fingerprint stored in snapshots, validated on resume.
    pub fingerprint: String,
    /// Tee every decision event to this JSONL trace file.
    pub trace_path: Option<PathBuf>,
    /// Install SIGINT/SIGTERM handlers that trigger drain-then-snapshot
    /// (process-global; leave off in tests).
    pub install_signal_handlers: bool,
    /// Run as a passive standby: refuse submits with `not-primary`,
    /// apply replication frames from a primary, and wait for promotion.
    pub standby: bool,
    /// Stream the decision log to a standby at this address (primary
    /// role). Mutually exclusive with `standby`.
    pub replicate_to: Option<String>,
    /// Never release a client reply before the standby has acknowledged
    /// its frame — no availability escape hatch. Only meaningful with
    /// `replicate_to`.
    pub repl_strict: bool,
    /// Auto-promote a standby that has seen a primary but heard nothing
    /// from it for this long; `None` promotes only on an explicit
    /// `promote` control message.
    pub auto_promote_after: Option<Duration>,
    /// How many recent decisions each shard remembers for idempotent
    /// resubmits (dedupe by request id after a client reconnects).
    pub dedupe_window: usize,
    /// Directory the per-shard flight recorders dump into (as
    /// `flight-<epoch>-<shard>.jsonl`) on fencing, divergence, a decide
    /// loop panic, or a `dump-flight` control frame; `None` disables
    /// flight recording entirely.
    pub flight_dir: Option<PathBuf>,
    /// Seam over the snapshot write-temp/fsync/rename sequence. The
    /// default [`crate::chaos::RealSnapshotIo`] never faults; chaos
    /// drills swap in a [`crate::chaos::ChaosSnapshotIo`].
    pub snapshot_io: Arc<dyn crate::chaos::SnapshotIo>,
}

impl ServeConfig {
    /// A one-shard config with conservative defaults on `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        ServeConfig {
            addr: addr.into(),
            shards: 1,
            queue_capacity: 256,
            workers: 4,
            snapshot_path: None,
            resume: false,
            tick: None,
            fingerprint: String::new(),
            trace_path: None,
            install_signal_handlers: false,
            standby: false,
            replicate_to: None,
            repl_strict: false,
            auto_promote_after: None,
            dedupe_window: 1024,
            flight_dir: None,
            snapshot_io: Arc::new(crate::chaos::RealSnapshotIo),
        }
    }
}

/// Whether a node currently accepts submits or follows a primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Decides submits and (optionally) streams its log to a standby.
    Primary,
    /// Applies the primary's log and refuses submits until promoted.
    Standby,
}

impl Role {
    /// Stable wire name, as carried in control acks.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Standby => "standby",
        }
    }
}

/// What a completed (cleanly shut down) daemon reports.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The address actually bound.
    pub local_addr: SocketAddr,
    /// Final counters, summed over shards.
    pub stats: ServeStats,
    /// Final virtual slot.
    pub slot: usize,
    /// Lowest id shard 0 accepts next (S = 1: one past the last decided).
    pub next_id: usize,
    /// Whether a final snapshot was written.
    pub snapshot_written: bool,
    /// Fencing epoch at exit.
    pub epoch: u64,
    /// Role at exit (a standby that was promoted reports `Primary`).
    pub role: Role,
    /// Requests decided per shard, dense by shard index.
    pub per_shard_decided: Vec<u64>,
    /// Off-site admissions completed by the cross-shard rescue.
    pub cross_shard_admits: u64,
    /// Decide loops restarted by their supervisor after a panic.
    pub shard_restarts: u64,
}

type Conn = Arc<Mutex<TcpStream>>;

// One write per line (two would trip Nagle + delayed-ACK). A failed write
// condemns the connection: queued replies fail at once instead of each
// burning the write timeout, and the worker's blocked read sees EOF.
fn write_line(conn: &Conn, mut line: String) -> io::Result<()> {
    line.push('\n');
    let mut s = lock(conn);
    let result = s.write_all(line.as_bytes());
    if result.is_err() {
        let _ = s.shutdown(Shutdown::Both);
    }
    result
}

// Locks tolerate poisoning: a decide loop that panicked mid-decide is
// healed from its recovery log whatever the panic left behind.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(unix)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::Release);
    }

    extern "C" {
        // Raw libc `signal(2)`; the handler only touches an atomic, which
        // is async-signal-safe.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub(super) fn requested() -> bool {
        REQUESTED.load(Ordering::Acquire)
    }
}

#[cfg(not(unix))]
mod signal {
    pub(super) fn install() {}
    pub(super) fn requested() -> bool {
        false
    }
}

/// Runs a one-shard daemon over a caller-built scheduler until a
/// `shutdown` control message or a termination signal, then drains the
/// queue, writes a final snapshot and returns.
///
/// The scheduler must have been constructed with `tap.clone()` as its
/// trace sink — the daemon reads the full decision event (reject reason,
/// placement sites, dual cost) back out of the tap after every
/// `decide()` call. `on_bound` (if given) receives the bound address
/// once the listener is up, which is how tests and the CLI learn the
/// port when binding to port 0.
///
/// # Errors
///
/// [`ServeError`] on bind failure, snapshot problems during
/// resume/persist, a scheduler without the daemon's tap, or a config
/// asking for more than one shard (use [`crate::serve_sharded`]).
pub fn serve(
    scheduler: &mut dyn OnlineScheduler,
    tap: &DecisionTap,
    registry: &MetricsRegistry,
    ids: &ServeMetricIds,
    config: &ServeConfig,
    on_bound: Option<mpsc::Sender<SocketAddr>>,
) -> Result<ServeReport, ServeError> {
    let horizon = scheduler.ledger().horizon();
    let core = Mutex::new(ShardCore::new(TapSched { scheduler, tap }, 0));
    run(&[core], horizon, registry, ids, config, on_bound)
}

// The one place the pipeline's config is validated.
fn check_config(config: &ServeConfig, shards: usize) -> Result<(), ServeError> {
    if config.shards != shards {
        return Err(ServeError::Config(format!(
            "serve() runs one caller-built scheduler; {} shards need serve_sharded()",
            config.shards
        )));
    }
    if config.standby && config.replicate_to.is_some() {
        return Err(ServeError::Config(
            "a standby cannot also replicate onward (chained replication is not supported)"
                .to_string(),
        ));
    }
    let one_shard_only = config.standby
        || config.replicate_to.is_some()
        || config.snapshot_path.is_some()
        || config.resume
        || config.trace_path.is_some();
    if shards > 1 && one_shard_only {
        return Err(ServeError::Config(format!(
            "replication, snapshots and the trace file need one shard (got {shards}): their \
             formats carry no shard id"
        )));
    }
    Ok(())
}

/// Runs the pipeline over one core per shard: shard 0's decide loop on
/// the calling thread, the others on scoped threads.
pub(crate) fn run<K: ShardScheduler>(
    cores: &[Mutex<ShardCore<K>>],
    horizon: Horizon,
    registry: &MetricsRegistry,
    ids: &ServeMetricIds,
    config: &ServeConfig,
    on_bound: Option<mpsc::Sender<SocketAddr>>,
) -> Result<ServeReport, ServeError> {
    let shards = cores.len();
    check_config(config, shards)?;
    let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Net {
        action: "bind",
        addr: config.addr.clone(),
        source,
    })?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let role = if config.standby {
        Role::Standby
    } else {
        Role::Primary
    };
    let hub = Hub {
        config,
        registry,
        ids,
        horizon,
        conns: BoundedQueue::new(config.workers.max(1) * 2),
        queues: (0..shards)
            .map(|_| BoundedQueue::new(config.queue_capacity))
            .collect(),
        lanes: (0..shards).map(|_| Lane::default()).collect(),
        slot: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        status: StatusShared::new(role, Epoch::INITIAL.0, shards, &config.fingerprint),
        flights: config.flight_dir.as_ref().map(|_| {
            (0..shards)
                .map(|_| SharedFlight::new(FLIGHT_CAPACITY))
                .collect()
        }),
    };
    let mut lead = Shard::new(0, &hub, cores);
    lead.tick = config.tick.map(|every| (Instant::now() + every, every));
    if let Some(path) = &config.trace_path {
        lead.trace = Some(JsonlSink::new(BufWriter::new(File::create(path)?)));
    }
    let repl_rx = config.replicate_to.as_ref().map(|_| {
        let (tx, rx) = mpsc::channel();
        let handle = Arc::new(ReplHandle::default());
        // `/status` renders the link state from the sender's atomics.
        hub.status.set_repl(Arc::clone(&handle));
        lead.repl_tx = Some(tx);
        lead.repl_handle = Some(handle);
        rx
    });
    if config.resume {
        let path = config
            .snapshot_path
            .as_deref()
            .ok_or_else(|| ServeError::Config("resume requires a snapshot path".to_string()))?;
        if path.exists() {
            let snap = Snapshot::load(path)?;
            lead.load_snapshot(&snap)?;
            lead.epoch = Epoch(snap.epoch);
            lead.seq = snap.seq;
        }
    }
    registry.set_gauge(ids.slot, hub.slot.load(Ordering::Relaxed) as f64);
    registry.set_gauge(ids.epoch, lead.epoch.0 as f64);
    let primary = if role == Role::Primary { 1.0 } else { 0.0 };
    registry.set_gauge(ids.is_primary, primary);
    registry.set_gauge(ids.snapshot_age, -1.0);
    hub.status.set_epoch(lead.epoch.0);
    if config.install_signal_handlers {
        signal::install();
    }
    if let Some(tx) = on_bound {
        let _ = tx.send(local_addr);
    }

    // The replication sender outlives the drain (drained decisions' replies
    // travel through it): it stops only once the lead loop has exited.
    let sender_stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| accept_loop(&listener, &hub));
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| worker_loop(&hub));
        }
        if let (Some(rx), Some(handle)) = (repl_rx, lead.repl_handle.clone()) {
            let sender_cfg = ReplSenderConfig {
                peer: config.replicate_to.clone().unwrap_or_default(),
                strict: config.repl_strict,
                availability_timeout: Duration::from_secs(1),
            };
            let stop = &sender_stop;
            scope.spawn(move || run_repl_sender(&sender_cfg, &handle, &rx, stop));
        }
        let rest = K::spawn_rest(scope, &hub, cores);
        let mut result = lead.lead();
        hub.begin_shutdown();
        sender_stop.store(true, Ordering::Release);
        for shard in rest {
            let joined = shard.join().expect("shard supervisors catch decide panics");
            result = result.and(joined);
        }
        result
    })?;

    let snapshot_written = lead.finish()?;
    let lanes = || hub.lanes.iter();
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    Ok(ServeReport {
        local_addr,
        stats: hub.stats(),
        slot: hub.slot.load(Ordering::Relaxed),
        next_id: lock(&cores[0]).next_id,
        snapshot_written,
        epoch: lead.epoch.0,
        role: lead.role,
        per_shard_decided: lanes().map(|l| load(&l.decided)).collect(),
        cross_shard_admits: lanes().map(|l| load(&l.cross_shard_admits)).sum(),
        shard_restarts: lanes().map(|l| load(&l.restarts)).sum(),
    })
}

// ---- Shared plumbing ----------------------------------------------------

// One shard's counters. Only the owning decide loop writes the decision
// counters and revenue (so the f64 sum runs in decision order); workers
// add overloads. Cache-line aligned so shards never false-share.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Lane {
    decided: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    overloaded: AtomicU64,
    revenue_bits: AtomicU64,
    cross_shard_admits: AtomicU64,
    restarts: AtomicU64,
}

/// Everything the workers and every decide loop share.
pub(crate) struct Hub<'a> {
    config: &'a ServeConfig,
    registry: &'a MetricsRegistry,
    ids: &'a ServeMetricIds,
    horizon: Horizon,
    conns: BoundedQueue<TcpStream>,
    queues: Vec<BoundedQueue<Item>>,
    lanes: Vec<Lane>,
    slot: AtomicUsize,
    stop: AtomicBool,
    status: StatusShared,
    // One ring per shard; the disabled path is the absence of the rings.
    flights: Option<Vec<SharedFlight>>,
}

impl Hub<'_> {
    fn shards(&self) -> usize {
        self.queues.len()
    }

    // One stage latency onto shard `s`'s histogram and flight ring (a registry
    // registered for fewer shards folds onto its last lane).
    #[inline]
    fn stage(&self, s: usize, stage: PipelineStage, ns: u64) {
        let lane = s.min(self.ids.stage.shard_count() - 1);
        self.ids.observe_stage_ns(self.registry, lane, stage, ns);
        if let Some(flights) = &self.flights {
            flights[s].record(TraceEvent::StageSample {
                shard: s,
                stage,
                nanos: ns,
            });
        }
    }

    // Mirrors shard `s`'s queue depth into its lane gauges.
    #[inline]
    fn lane_depth(&self, s: usize) {
        let lane = s.min(self.ids.lanes.shard_count() - 1);
        let queue = &self.queues[s];
        self.ids
            .lanes
            .set_depth(self.registry, lane, queue.len(), queue.capacity());
    }

    // Counts `n` requests shed by shard `s`'s full queue.
    fn shed(&self, s: usize, n: u64) {
        let lane = s.min(self.ids.lanes.shard_count() - 1);
        self.registry.add(self.ids.overloads, n);
        self.registry.inc(self.ids.lanes.shed[lane]);
        self.lanes[s].overloaded.fetch_add(n, Ordering::Relaxed);
    }

    fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for lane in &self.lanes {
            total.decided += lane.decided.load(Ordering::Relaxed);
            total.admitted += lane.admitted.load(Ordering::Relaxed);
            total.rejected += lane.rejected.load(Ordering::Relaxed);
            total.overloaded += lane.overloaded.load(Ordering::Relaxed);
            total.revenue += f64::from_bits(lane.revenue_bits.load(Ordering::Relaxed));
        }
        total
    }

    // Stops accepting work; every decide loop then drains what is already
    // queued. Idempotent.
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.conns.close();
        for queue in &self.queues {
            queue.close();
        }
    }

    fn dump_flight(&self, s: usize, epoch: u64) -> Option<PathBuf> {
        let dir = self.config.flight_dir.as_deref()?;
        self.flights.as_ref()?[s].dump(dir, epoch, s).ok()
    }

    fn reply_error(&self, conn: &Conn, text: String) -> io::Result<()> {
        self.registry.inc(self.ids.protocol_errors);
        write_line(conn, encode_server(&ServerMsg::Error(text)))
    }
}

enum Item {
    // (request, reply connection, enqueue instant)
    Submit(SubmitRequest, Conn, Instant),
    // This shard's slice of a v3 batch frame: (position, request) pairs.
    Batch(Arc<BatchGather>, Vec<(usize, SubmitRequest)>, Instant),
    // Shard 0 only from here on.
    Control(ControlAction, Option<Conn>),
    Repl(ReplMsg, Conn),
    // The replication connection closed. FIFO order puts this behind
    // every frame it delivered, which lets promotion drain first.
    ReplEof(Conn),
    // Injected by `chaos-panic`: the loop panics on dequeuing it, at a
    // message boundary, and its supervisor heals it.
    Panic,
}

// One v3 batch frame in flight across shards: each part fills its
// positions in `codes` (pre-filled with BATCH_OVERLOAD, so a part
// bounced off a full queue needs no bookkeeping); the part that drops
// `remaining` to zero writes the single reply.
struct BatchGather {
    conn: Conn,
    seq: u64,
    codes: Vec<AtomicU8>,
    remaining: AtomicUsize,
}

impl BatchGather {
    fn finish_part(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let codes: Vec<u8> = self
                .codes
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect();
            let mut buf = String::with_capacity(48 + 2 * codes.len());
            encode_batch_reply_into(&mut buf, self.seq, &codes);
            let _ = write_line(&self.conn, buf);
        }
    }
}

// ---- Accept, workers, routing --------------------------------------------

fn accept_loop(listener: &TcpListener, hub: &Hub<'_>) {
    while !hub.stop.load(Ordering::Acquire) {
        match listener.accept() {
            // push blocks while all workers are busy; Err means shutdown.
            Ok((stream, _)) => {
                if hub.conns.push(stream).is_err() {
                    return;
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(hub: &Hub<'_>) {
    while let Some(stream) = hub.conns.pop() {
        hub.registry.inc(hub.ids.connections);
        let _ = handle_conn(stream, hub);
        if hub.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Whether a socket error is a read/write timeout rather than a failure.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn handle_conn(stream: TcpStream, hub: &Hub<'_>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    // Set before the clone so both handles share it (slow-loris guard).
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let _ = stream.set_nodelay(true);
    let writer: Conn = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut reqs: Vec<SubmitRequest> = Vec::new();
    let mut first = true;
    let mut is_repl = false;
    let result = loop {
        if hub.stop.load(Ordering::Acquire) {
            break Ok(());
        }
        // On a read timeout any partial line stays in `line` and the next
        // read_line call appends the rest — slow peers never tear lines.
        match reader.read_line(&mut line) {
            Ok(0) => break Ok(()),
            Ok(_) if !line.ends_with('\n') => {
                // The peer closed mid-line: a torn frame gets a typed
                // error (best effort) and never reaches the parser.
                let text = format!(
                    "torn frame: connection closed mid-line after {} bytes",
                    line.len()
                );
                let _ = hub.reply_error(&writer, text);
                break Ok(());
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if line.len() <= MAX_LINE_BYTES {
                    continue;
                }
            }
            Err(e) => break Err(e),
        }
        if line.len() > MAX_LINE_BYTES {
            // The frame boundary is lost: drop the connection after the error.
            let text = format!(
                "oversized frame: {} bytes exceeds the {MAX_LINE_BYTES} byte line limit",
                line.len()
            );
            let _ = hub.reply_error(&writer, text);
            break Ok(());
        }
        if first && line.starts_with("GET ") {
            return serve_http(&line, reader, &writer, hub);
        }
        first = false;
        match route_line(line.trim(), &mut reqs, &writer, hub) {
            Ok(repl) => is_repl |= repl,
            // A reply write failed (a non-draining peer): free the worker.
            Err(_) => break Ok(()),
        }
        line.clear();
    };
    if is_repl {
        let _ = hub.queues[0].push(Item::ReplEof(writer));
    }
    result
}

// Routes one line; `Ok(true)` marks a replication frame (the connection
// then owes shard 0 a ReplEof), `Err` a failed reply write.
fn route_line(
    line: &str,
    reqs: &mut Vec<SubmitRequest>,
    writer: &Conn,
    hub: &Hub<'_>,
) -> io::Result<bool> {
    if line.is_empty() {
        return Ok(false);
    }
    let shards = hub.shards();
    let mut clock = StageClock::start();
    let wrote = if is_batch_frame(line) {
        match parse_batch_into(line, reqs) {
            Ok(seq) => {
                // Once-per-frame work goes to the first request's shard.
                let home = reqs.first().map_or(0, |r| r.id % shards);
                hub.stage(home, PipelineStage::IngressParse, clock.lap_ns());
                hub.registry.add(hub.ids.submitted, reqs.len() as u64);
                route_batch(seq, reqs, writer, hub);
                hub.stage(home, PipelineStage::Dispatch, clock.lap_ns());
                Ok(())
            }
            Err(e) => hub.reply_error(writer, e.to_string()),
        }
    } else if is_repl_line(line) {
        match parse_repl(line) {
            Ok(msg) => {
                push_blocking(hub, Item::Repl(msg, Arc::clone(writer)), writer);
                return Ok(true);
            }
            Err(e) => hub.reply_error(writer, e.to_string()),
        }
    } else {
        match parse_client(line) {
            Ok(ClientMsg::Submit(msg)) => {
                let (id, home) = (msg.id, msg.id % shards);
                hub.stage(home, PipelineStage::IngressParse, clock.lap_ns());
                hub.registry.inc(hub.ids.submitted);
                let item = Item::Submit(msg, Arc::clone(writer), Instant::now());
                let queue = &hub.queues[home];
                let wrote = if queue.try_push(item).is_err() {
                    hub.shed(home, 1);
                    let reply = ServerMsg::Overload(OverloadReject {
                        id,
                        queue_depth: queue.len(),
                        limit: queue.capacity(),
                    });
                    write_line(writer, encode_server(&reply))
                } else {
                    Ok(())
                };
                hub.stage(home, PipelineStage::Dispatch, clock.lap_ns());
                let depth = queue.len() as f64;
                hub.registry.set_gauge(hub.ids.queue_depth, depth);
                hub.lane_depth(home);
                wrote
            }
            Ok(ClientMsg::Control(action)) => {
                let conn = Some(Arc::clone(writer));
                push_blocking(hub, Item::Control(action, conn), writer);
                Ok(())
            }
            Err(e) => hub.reply_error(writer, e.to_string()),
        }
    };
    wrote.map(|()| false)
}

// Controls and replication frames must not be dropped by the congestion
// they may be meant to resolve: they block for room in shard 0's queue.
fn push_blocking(hub: &Hub<'_>, item: Item, writer: &Conn) {
    if hub.queues[0].push(item).is_err() {
        let reply = ServerMsg::Error("daemon is shutting down".to_string());
        let _ = write_line(writer, encode_server(&reply));
    }
}

// Splits a parsed batch into per-shard parts sharing one gather. A part
// that bounces off a full queue finishes at once as overload codes.
fn route_batch(seq: u64, reqs: &[SubmitRequest], writer: &Conn, hub: &Hub<'_>) {
    let shards = hub.shards();
    let mut parts: Vec<Vec<(usize, SubmitRequest)>> = vec![Vec::new(); shards];
    for (pos, msg) in reqs.iter().enumerate() {
        parts[msg.id % shards].push((pos, *msg));
    }
    let gather = Arc::new(BatchGather {
        conn: Arc::clone(writer),
        seq,
        codes: reqs.iter().map(|_| AtomicU8::new(BATCH_OVERLOAD)).collect(),
        remaining: AtomicUsize::new(parts.iter().filter(|p| !p.is_empty()).count()),
    });
    for (s, part) in parts.into_iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let n = part.len() as u64;
        let item = Item::Batch(Arc::clone(&gather), part, Instant::now());
        if hub.queues[s].try_push(item).is_err() {
            hub.shed(s, n);
            gather.finish_part();
        }
        hub.lane_depth(s);
    }
}

fn serve_http(
    request_line: &str,
    mut reader: BufReader<TcpStream>,
    writer: &Conn,
    hub: &Hub<'_>,
) -> io::Result<()> {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => break,
            Err(e) => return Err(e),
        }
    }
    let plain = "text/plain; version=0.0.4";
    let (status, content_type, body) = match path {
        "/metrics" => {
            // The snapshot age is derived when someone looks.
            let age = hub.status.snapshot_age_seconds().unwrap_or(-1.0);
            hub.registry.set_gauge(hub.ids.snapshot_age, age);
            ("200 OK", plain, hub.registry.to_prometheus())
        }
        "/status" => (
            "200 OK",
            "application/json",
            hub.status.render_json(hub.registry, hub.ids),
        ),
        _ => ("404 Not Found", plain, "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    lock(writer).write_all(response.as_bytes())
}

// ---- The per-shard core ---------------------------------------------------

/// What a shard's decide loop needs from the scheduler it owns. The
/// defaults fit a one-shard scheduler; [`crate::shard`] overrides the
/// hooks that only exist at S > 1.
pub(crate) trait ShardScheduler: Sized {
    fn scheduler(&self) -> &dyn OnlineScheduler;
    fn scheduler_mut(&mut self) -> &mut dyn OnlineScheduler;
    /// Takes the event the last `decide()` recorded.
    fn take_event(&mut self) -> Option<TraceEvent>;
    /// Whether a reliability-infeasible reject may be rescued with
    /// other shards' cloudlets.
    fn rescues(&self) -> bool {
        false
    }
    /// The cross-shard rescue (only when [`Self::rescues`]): the final
    /// decision for `request`.
    fn rescue(_cores: &[Mutex<ShardCore<Self>>], _request: &Request) -> DecisionEvent {
        unreachable!("only off-site shards rescue")
    }
    /// Re-applies a charge a foreign shard's rescue committed here.
    fn apply_external(&mut self, _site: &ExternalSite) {
        unreachable!("only off-site shards take external charges")
    }
    /// Starts the decide loops of shards `1..S` on scoped threads.
    fn spawn_rest<'scope, 'env>(
        _scope: &'scope Scope<'scope, 'env>,
        _hub: &'env Hub<'env>,
        _cores: &'env [Mutex<ShardCore<Self>>],
    ) -> Vec<ScopedJoinHandle<'scope, Result<(), ServeError>>> {
        Vec::new()
    }
}

// A caller-built scheduler and the tap it reports decisions through.
struct TapSched<'a> {
    scheduler: &'a mut dyn OnlineScheduler,
    tap: &'a DecisionTap,
}

impl ShardScheduler for TapSched<'_> {
    fn scheduler(&self) -> &dyn OnlineScheduler {
        &*self.scheduler
    }

    fn scheduler_mut(&mut self) -> &mut dyn OnlineScheduler {
        &mut *self.scheduler
    }

    fn take_event(&mut self) -> Option<TraceEvent> {
        self.tap.pop()
    }
}

/// A charge another shard's cross-shard rescue committed on this
/// shard's ledger (local cloudlet id, inclusive slot window).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExternalSite {
    pub(crate) local: CloudletId,
    pub(crate) first: usize,
    pub(crate) last: usize,
    pub(crate) compute: f64,
    pub(crate) ln_coef: f64,
    pub(crate) ln_target: f64,
    pub(crate) payment: f64,
}

enum Logged {
    // Replay re-decides it (same state + same input ⇒ same mutation).
    Local(SubmitRequest),
    // Replay re-applies the charge and its price update directly.
    External(ExternalSite),
}

/// One shard's scheduler plus its recovery log, behind the shard's
/// lock (the owning loop takes it uncontended; foreign threads only on
/// the cross-shard rescue path).
///
/// The recovery log is a periodically compacted base state plus every
/// operation applied since. After a panic the supervisor imports the
/// base and replays the suffix; the schedulers are deterministic, so the
/// restored state is bit-identical to a run that never panicked.
pub(crate) struct ShardCore<K> {
    pub(crate) sched: K,
    // The id rule: the lowest global id this shard accepts next.
    next_id: usize,
    base: SchedulerState,
    base_next_id: usize,
    suffix: Vec<Logged>,
}

impl<K: ShardScheduler> ShardCore<K> {
    /// A core whose shard first accepts id `first_id` (its shard index).
    pub(crate) fn new(sched: K, first_id: usize) -> Self {
        ShardCore {
            base: sched.scheduler().export_state(),
            sched,
            next_id: first_id,
            base_next_id: first_id,
            suffix: Vec::new(),
        }
    }

    fn decide(
        &mut self,
        msg: &SubmitRequest,
        request: &Request,
        shards: usize,
    ) -> Result<DecisionEvent, ServeError> {
        self.next_id = msg.id + shards;
        self.sched.scheduler_mut().decide(request);
        let Some(TraceEvent::Decision(event)) = self.sched.take_event() else {
            return Err(ServeError::Config(
                "scheduler was not constructed with the daemon's DecisionTap sink".to_string(),
            ));
        };
        self.log(Logged::Local(*msg));
        Ok(event)
    }

    /// Logs a foreign rescue's charge (called under this core's lock).
    pub(crate) fn log_external(&mut self, site: ExternalSite) {
        self.log(Logged::External(site));
    }

    fn log(&mut self, entry: Logged) {
        self.suffix.push(entry);
        if self.suffix.len() >= RECOVERY_COMPACT {
            self.rebase();
        }
    }

    fn rebase(&mut self) {
        self.base = self.sched.scheduler().export_state();
        self.base_next_id = self.next_id;
        self.suffix.clear();
    }

    // Returns how many logged operations were replayed.
    fn restore(&mut self, horizon: Horizon, shards: usize) -> usize {
        while self.sched.take_event().is_some() {}
        self.sched
            .scheduler_mut()
            .import_state(&self.base)
            .expect("the recovery base came from this scheduler");
        self.next_id = self.base_next_id;
        for entry in &self.suffix {
            match entry {
                Logged::Local(msg) => {
                    self.next_id = msg.id + shards;
                    let request = build_request(msg, horizon)
                        .expect("logged requests were validated before their first decide");
                    self.sched.scheduler_mut().decide(&request);
                    self.sched.take_event();
                }
                Logged::External(site) => self.sched.apply_external(site),
            }
        }
        self.suffix.len()
    }
}

fn build_request(msg: &SubmitRequest, horizon: Horizon) -> Result<Request, String> {
    let reliability =
        Reliability::new(msg.reliability).map_err(|e| format!("invalid reliability: {e}"))?;
    Request::new(
        RequestId(msg.id),
        VnfTypeId(msg.vnf),
        reliability,
        msg.arrival,
        msg.duration,
        msg.payment,
        horizon,
    )
    .map_err(|e| format!("invalid request: {e}"))
}

// ---- The decide loop -------------------------------------------------------

// What the id rule and the dedupe ring make of one request.
enum Verdict {
    Fresh(DecisionEvent),
    // Already decided: the remembered decision (idempotent resubmit).
    Seen(DecisionEvent),
    Refused(String),
}

fn batch_code(event: &DecisionEvent) -> u8 {
    if matches!(event.outcome, Outcome::Admit { .. }) {
        BATCH_ADMIT
    } else {
        BATCH_REJECT
    }
}

/// One shard's decide loop. Shard 0 also leads the node: it handles
/// controls and replication frames and owns the role, epoch,
/// replication log and trace file (the other shards keep the defaults).
pub(crate) struct Shard<'h, K> {
    s: usize,
    hub: &'h Hub<'h>,
    cores: &'h [Mutex<ShardCore<K>>],
    engine: EngineMetrics<'h>,
    decisions: MetricsSink<'h>,
    // Recent decisions, oldest first, for idempotent resubmits.
    recent: VecDeque<DecisionEvent>,
    trace: Option<JsonlSink<BufWriter<File>>>,
    epoch: Epoch,
    role: Role,
    // Replication log position: one entry per decision or slot advance.
    seq: u64,
    // Primary side: the channel to the sender thread and its flags.
    repl_tx: Option<mpsc::Sender<ReplItem>>,
    repl_handle: Option<Arc<ReplHandle>>,
    pending_shutdown: Option<Option<Conn>>,
    // A promotion in progress: Some(ack connection) until the link drains.
    promoting: Option<Option<Conn>>,
    promote_deadline: Option<Instant>,
    // Standby side: the connection currently carrying frames.
    repl_conn: Option<Conn>,
    last_heard: Option<Instant>,
    seen_hello: bool,
    // Send instants of unacked frames, oldest first (ack-wait and lag).
    sent_times: VecDeque<(u64, Instant)>,
    // The slot clock's next self-advance and its period (`--tick-ms`).
    tick: Option<(Instant, Duration)>,
}

impl<'h, K: ShardScheduler> Shard<'h, K> {
    pub(crate) fn new(s: usize, hub: &'h Hub<'h>, cores: &'h [Mutex<ShardCore<K>>]) -> Self {
        Shard {
            s,
            hub,
            cores,
            engine: EngineMetrics::new(hub.registry, hub.ids.engine.clone()),
            decisions: MetricsSink::new(hub.registry, hub.ids.decisions),
            recent: VecDeque::with_capacity(hub.config.dedupe_window),
            trace: None,
            epoch: Epoch::INITIAL,
            role: hub.status.role(),
            seq: 0,
            repl_tx: None,
            repl_handle: None,
            pending_shutdown: None,
            promoting: None,
            promote_deadline: None,
            repl_conn: None,
            last_heard: None,
            seen_hello: false,
            sent_times: VecDeque::new(),
            tick: None,
        }
    }

    /// Runs the decide loop until its queue is closed and drained. On a
    /// panic (a `chaos-panic` frame, or a genuine bug) it dumps the
    /// shard's flight ring, restores the scheduler from the recovery log
    /// and resumes draining the same queue, so requests queued behind
    /// the panic are decided in their original order.
    pub(crate) fn supervise(&mut self) -> Result<(), ServeError> {
        loop {
            match std::panic::catch_unwind(AssertUnwindSafe(|| self.serve_queue())) {
                Ok(result) => return result,
                Err(_) => self.heal(),
            }
        }
    }

    fn heal(&mut self) {
        self.hub.dump_flight(self.s, self.epoch.0);
        let replayed = lock(&self.cores[self.s]).restore(self.hub.horizon, self.hub.shards());
        let restarts = &self.hub.lanes[self.s].restarts;
        restarts.fetch_add(1, Ordering::Relaxed);
        if let Some(flights) = &self.hub.flights {
            let shard = self.s;
            flights[shard].record(TraceEvent::ShardRestart { shard, replayed });
        }
    }

    // Shard 0's run: an abnormal exit leaves the flight ring on disk.
    fn lead(&mut self) -> Result<(), ServeError> {
        let result = self.supervise();
        if let Err(e) = &result {
            if let (ServeError::Fenced { epoch, by }, Some(flights)) = (e, &self.hub.flights) {
                flights[0].record(TraceEvent::Fenced {
                    epoch: *by,
                    stale_epoch: *epoch,
                });
            }
            self.hub.dump_flight(0, self.epoch.0);
        }
        // Disconnect the sender's channel so it drains and exits.
        self.repl_tx = None;
        result
    }

    fn serve_queue(&mut self) -> Result<(), ServeError> {
        let queue = &self.hub.queues[self.s];
        let idle = self
            .tick
            .map_or(IDLE_POLL, |(_, every)| every.min(IDLE_POLL));
        loop {
            if self.s == 0 {
                if signal::requested() || self.pending_shutdown.is_some() {
                    self.hub.begin_shutdown();
                }
                self.repl_tick()?;
                if let Some((at, every)) = self.tick.filter(|(at, _)| Instant::now() >= *at) {
                    self.tick = Some((at + every, every));
                    self.handle_control(ControlAction::AdvanceSlot, None)?;
                }
            }
            match queue.pop_timeout(idle) {
                PopTimeout::Item(item) => self.handle(item)?,
                PopTimeout::TimedOut => {}
                PopTimeout::Closed => break,
            }
            self.hub.lane_depth(self.s);
        }
        if self.s == 0 {
            // Answer a snapshot request raised during the drain.
            self.repl_tick()?;
        }
        Ok(())
    }

    fn stage(&self, stage: PipelineStage, ns: u64) {
        self.hub.stage(self.s, stage, ns);
    }

    fn handle(&mut self, item: Item) -> Result<(), ServeError> {
        match item {
            Item::Submit(msg, conn, enqueued) => self.handle_submit(msg, &conn, enqueued),
            Item::Batch(gather, reqs, enqueued) => self.handle_batch(&gather, &reqs, enqueued),
            Item::Control(action, conn) => self.handle_control(action, conn),
            Item::Repl(msg, conn) => self.handle_repl(msg, &conn),
            Item::ReplEof(conn) => {
                if self
                    .repl_conn
                    .as_ref()
                    .is_some_and(|rc| Arc::ptr_eq(rc, &conn))
                {
                    self.repl_conn = None;
                    // Auto-promotion counts from a dead primary's EOF.
                    self.last_heard = Some(Instant::now());
                    if self.promoting.is_some() {
                        self.complete_promotion();
                    }
                }
                Ok(())
            }
            Item::Panic => panic!(
                "chaos-panic control frame killed shard {}'s decide loop",
                self.s
            ),
        }
    }

    // One request on its home shard: id rule, dedupe ring, local decide,
    // and — off-site at S > 1, when the own cloudlets miss the target — the
    // cross-shard rescue, locking one shard at a time after the home lock.
    fn decide(&mut self, msg: &SubmitRequest) -> Result<Verdict, ServeError> {
        let (s, shards, cores) = (self.s, self.hub.shards(), self.cores);
        let mut core = lock(&cores[s]);
        if msg.id < core.next_id {
            let expected = core.next_id;
            drop(core);
            if let Some(event) = self.recent.iter().find(|e| e.request == msg.id) {
                self.hub.registry.inc(self.hub.ids.dedupe_hits);
                return Ok(Verdict::Seen(event.clone()));
            }
            return Ok(Verdict::Refused(format!(
                "out-of-order id {} (shard {s} accepts increasing ids with residue {s} mod \
                 {shards}; lowest acceptable is {expected})",
                msg.id
            )));
        }
        let request = match build_request(msg, self.hub.horizon) {
            Ok(r) => r,
            Err(text) => return Ok(Verdict::Refused(text)),
        };
        let mut event = core.decide(msg, &request, shards)?;
        let rescue = shards > 1
            && core.sched.rescues()
            && matches!(
                event.outcome,
                Outcome::Reject {
                    reason: RejectReason::ReliabilityInfeasible,
                    ..
                }
            );
        drop(core);
        let lane = &self.hub.lanes[s];
        if rescue {
            let clock = StageClock::start();
            event = K::rescue(cores, &request);
            self.stage(PipelineStage::ReserveCommit, clock.elapsed_ns());
            if event.outcome.is_admit() {
                lane.cross_shard_admits.fetch_add(1, Ordering::Relaxed);
            }
        } else if let Outcome::Admit { sites, .. } = &mut event.outcome {
            // Local site l on shard s is global cloudlet l·S + s.
            for site in sites {
                site.cloudlet = site.cloudlet * shards + s;
            }
        }
        lane.decided.fetch_add(1, Ordering::Relaxed);
        if event.outcome.is_admit() {
            lane.admitted.fetch_add(1, Ordering::Relaxed);
            let revenue = f64::from_bits(lane.revenue_bits.load(Ordering::Relaxed));
            let revenue = revenue + request.payment();
            lane.revenue_bits
                .store(revenue.to_bits(), Ordering::Relaxed);
        } else {
            lane.rejected.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Verdict::Fresh(event))
    }

    fn remember(&mut self, event: DecisionEvent) {
        let window = self.hub.config.dedupe_window;
        if window == 0 {
            return;
        }
        if self.recent.len() >= window {
            self.recent.pop_front();
        }
        self.recent.push_back(event);
    }

    // Records a decision on the metrics sink, flight ring and trace file.
    fn record_event(&mut self, event: &DecisionEvent) {
        self.decisions.record(TraceEvent::Decision(event.clone()));
        if self.hub.flights.is_some() || self.trace.is_some() {
            self.record_trace(TraceEvent::Decision(event.clone()));
        }
    }

    // Trace-only events (promotion, fencing, catch-up) skip the metrics.
    fn record_trace(&mut self, event: TraceEvent) {
        if let Some(flights) = &self.hub.flights {
            flights[self.s].record(event.clone());
        }
        if let Some(trace) = &mut self.trace {
            trace.record(event);
        }
    }

    // Hands one log entry to the replication sender. A closed channel (fenced
    // or shutting down) drops a withheld reply: nothing unreplicated is acked.
    fn send_repl(&self, frame: &ReplMsg, is_snapshot: bool, reply: Option<PendingReply>) {
        if let Some(tx) = &self.repl_tx {
            let line = encode_repl(frame);
            let seq = self.seq;
            let _ = tx.send(ReplItem {
                line,
                seq,
                is_snapshot,
                reply,
            });
        }
    }

    fn handle_submit(
        &mut self,
        msg: SubmitRequest,
        conn: &Conn,
        enqueued: Instant,
    ) -> Result<(), ServeError> {
        self.stage(PipelineStage::QueueWait, nanos_since(enqueued));
        if self.role == Role::Standby {
            self.hub.registry.inc(self.hub.ids.not_primary);
            let reply = ServerMsg::NotPrimary {
                epoch: self.epoch.0,
                id: msg.id,
            };
            let _ = write_line(conn, encode_server(&reply));
            return Ok(());
        }
        let mut clock = StageClock::start();
        let event = match self.decide(&msg)? {
            Verdict::Fresh(event) => event,
            Verdict::Seen(event) => {
                let _ = write_line(conn, encode_server(&ServerMsg::Decision(event)));
                return Ok(());
            }
            Verdict::Refused(text) => {
                let _ = self.hub.reply_error(conn, text);
                return Ok(());
            }
        };
        let decide_ns = clock.lap_ns();
        self.engine.observe_decide(decide_ns as f64 * 1e-9);
        self.stage(PipelineStage::Decide, decide_ns);
        self.record_event(&event);
        let reply = encode_server(&ServerMsg::Decision(event.clone()));
        self.remember(event);
        if self.repl_tx.is_some() {
            // Semi-synchronous replication: the sender releases the reply once
            // the standby's ack covers it (strict) or the frame is written to the
            // standby socket (else; unreplicated after the availability timeout).
            self.seq += 1;
            let frame = ReplMsg::Frame {
                epoch: self.epoch.0,
                seq: self.seq,
                submit: encode_client(&ClientMsg::Submit(msg)),
                decision: reply.clone(),
            };
            let conn = Arc::clone(conn);
            let pending = PendingReply { conn, line: reply };
            self.send_repl(&frame, false, Some(pending));
            self.sent_times.push_back((self.seq, Instant::now()));
        } else {
            let _ = write_line(conn, reply);
            self.stage(PipelineStage::ReplyWrite, clock.lap_ns());
        }
        let latency = enqueued.elapsed().as_secs_f64();
        let histogram = self.hub.ids.admission_latency;
        self.hub.registry.observe(histogram, latency);
        Ok(())
    }

    // This shard's part of a v3 batch frame. One decide span per part, not
    // per request: per-request clock reads would tax the path they measure.
    fn handle_batch(
        &mut self,
        gather: &BatchGather,
        reqs: &[(usize, SubmitRequest)],
        enqueued: Instant,
    ) -> Result<(), ServeError> {
        self.stage(PipelineStage::QueueWait, nanos_since(enqueued));
        // Only at S = 1, where the part is the whole frame: the replication log
        // is framed per decision, so a replicating primary refuses batches.
        if self.role == Role::Standby || self.repl_tx.is_some() {
            let text = if self.role == Role::Standby {
                self.hub.registry.inc(self.hub.ids.not_primary);
                let epoch = self.epoch.0;
                format!("not-primary: standby at epoch {epoch} refuses batch frames")
            } else {
                "batch frames are not supported on a replicating primary; use single-request \
                 frames"
                    .to_string()
            };
            let _ = self.hub.reply_error(&gather.conn, text);
            return Ok(());
        }
        let mut clock = StageClock::start();
        for (pos, msg) in reqs {
            let code = match self.decide(msg)? {
                Verdict::Fresh(event) => {
                    let code = batch_code(&event);
                    self.remember(event);
                    code
                }
                Verdict::Seen(event) => batch_code(&event),
                Verdict::Refused(_) => {
                    self.hub.registry.inc(self.hub.ids.protocol_errors);
                    BATCH_ERROR
                }
            };
            gather.codes[*pos].store(code, Ordering::Release);
        }
        self.stage(PipelineStage::Decide, clock.lap_ns());
        // Only the last part writes: a real socket write on one shard only.
        gather.finish_part();
        self.stage(PipelineStage::ReplyWrite, clock.lap_ns());
        Ok(())
    }

    fn handle_control(
        &mut self,
        action: ControlAction,
        conn: Option<Conn>,
    ) -> Result<(), ServeError> {
        match action {
            ControlAction::AdvanceSlot => {
                if self.role == Role::Standby {
                    // The slot clock is replicated state (`repl-advance` frames).
                    let text = "standby: the slot clock advances via replication";
                    self.control_error(conn.as_ref(), text.to_string());
                    return Ok(());
                }
                let slot = self.hub.slot.fetch_add(1, Ordering::Relaxed) + 1;
                self.hub.registry.set_gauge(self.hub.ids.slot, slot as f64);
                if self.repl_tx.is_some() {
                    self.seq += 1;
                    let (epoch, seq) = (self.epoch.0, self.seq);
                    self.send_repl(&ReplMsg::Advance { epoch, seq, slot }, false, None);
                }
                self.ack(conn.as_ref(), action);
            }
            ControlAction::Promote => {
                if self.role == Role::Primary {
                    // Idempotent: the ack's epoch and role show nothing changed.
                    self.ack(conn.as_ref(), action);
                } else if self.promoting.is_some() {
                    let text = "promotion already in progress".to_string();
                    self.control_error(conn.as_ref(), text);
                } else {
                    self.begin_promotion(conn);
                }
            }
            ControlAction::Stats => self.ack(conn.as_ref(), action),
            ControlAction::Snapshot => match self.write_snapshot() {
                Ok(_) => self.ack(conn.as_ref(), action),
                Err(e) => self.control_error(conn.as_ref(), format!("snapshot failed: {e}")),
            },
            // Acked by `finish` after the drain and final snapshot (durable).
            ControlAction::Shutdown => self.pending_shutdown = Some(conn),
            ControlAction::DumpFlight => {
                // Acked even without a flight directory (harmless probe).
                for s in 0..self.hub.shards() {
                    self.hub.dump_flight(s, self.epoch.0);
                }
                self.ack(conn.as_ref(), action);
            }
            ControlAction::ChaosPanic(target) => {
                if target >= self.hub.shards() {
                    let text = format!(
                        "chaos-panic: shard {target} does not exist (shards: {})",
                        self.hub.shards()
                    );
                    self.control_error(conn.as_ref(), text);
                    return Ok(());
                }
                // Ack first: nothing downstream of the panic can. A foreign shard's
                // marker waits its turn; this shard is at a message boundary already.
                self.ack(conn.as_ref(), action);
                if target == self.s {
                    return self.handle(Item::Panic);
                }
                let _ = self.hub.queues[target].push(Item::Panic);
            }
        }
        Ok(())
    }

    fn control_error(&self, conn: Option<&Conn>, text: String) {
        if let Some(c) = conn {
            let _ = self.hub.reply_error(c, text);
        }
    }

    fn ack(&self, conn: Option<&Conn>, action: ControlAction) {
        if let Some(c) = conn {
            let msg = ServerMsg::Ack(ControlAck {
                action,
                slot: self.hub.slot.load(Ordering::Relaxed),
                stats: self.hub.stats(),
                epoch: self.epoch.0,
                role: self.role.as_str().to_string(),
                last_snapshot_unix_ms: self.hub.status.last_snapshot_unix_ms(),
            });
            let _ = write_line(c, encode_server(&msg));
        }
    }

    // ---- Snapshots (one shard) ------------------------------------------

    // This node's durable/replicable state (disk and follower catch-up).
    fn snapshot_value(&self) -> Snapshot {
        let core = lock(&self.cores[0]);
        Snapshot {
            algorithm: core.sched.scheduler().name().to_string(),
            config: self.hub.config.fingerprint.clone(),
            next_id: core.next_id,
            slot: self.hub.slot.load(Ordering::Relaxed),
            stats: self.hub.stats(),
            state: core.sched.scheduler().export_state(),
            epoch: self.epoch.0,
            seq: self.seq,
            recent: self
                .recent
                .iter()
                .map(|e| encode_server(&ServerMsg::Decision(e.clone())))
                .collect(),
        }
    }

    fn write_snapshot(&self) -> Result<bool, ServeError> {
        let Some(path) = &self.hub.config.snapshot_path else {
            return Ok(false);
        };
        self.snapshot_value()
            .save_with(path, &*self.hub.config.snapshot_io)?;
        self.hub.status.mark_snapshot();
        self.hub.registry.set_gauge(self.hub.ids.snapshot_age, 0.0);
        Ok(true)
    }

    // Validates and installs a snapshot (resume and replication catch-up).
    fn load_snapshot(&mut self, snap: &Snapshot) -> Result<(), ServeError> {
        let mut core = lock(&self.cores[0]);
        snap.validate(core.sched.scheduler().name(), &self.hub.config.fingerprint)?;
        core.sched.scheduler_mut().import_state(&snap.state)?;
        core.next_id = snap.next_id;
        core.rebase();
        drop(core);
        let (lane, stats) = (&self.hub.lanes[0], &snap.stats);
        lane.decided.store(stats.decided, Ordering::Relaxed);
        lane.admitted.store(stats.admitted, Ordering::Relaxed);
        lane.rejected.store(stats.rejected, Ordering::Relaxed);
        lane.overloaded.store(stats.overloaded, Ordering::Relaxed);
        let revenue = stats.revenue.to_bits();
        lane.revenue_bits.store(revenue, Ordering::Relaxed);
        self.hub.slot.store(snap.slot, Ordering::Relaxed);
        let slot = snap.slot as f64;
        self.hub.registry.set_gauge(self.hub.ids.slot, slot);
        self.recent = snap
            .recent
            .iter()
            .map(|line| match parse_server(line)? {
                ServerMsg::Decision(event) => Ok(event),
                other => Err(ServeError::Snapshot(format!(
                    "snapshot 'recent' entry is not a decision line: {other:?}"
                ))),
            })
            .collect::<Result<_, ServeError>>()?;
        Ok(())
    }

    /// Final snapshot, utilization gauges, trace flush and (if a client
    /// asked for the shutdown) the shutdown ack.
    fn finish(&mut self) -> Result<bool, ServeError> {
        let written = self.write_snapshot()?;
        let shards = self.cores.len();
        for (s, core) in self.cores.iter().enumerate() {
            let core = lock(core);
            let ledger = core.sched.scheduler().ledger();
            let slots = ledger.horizon().len();
            let grid = ledger.used_grid();
            for l in 0..ledger.cloudlet_count() {
                let capacity = ledger.capacity(CloudletId(l));
                let used: f64 = grid[l * slots..(l + 1) * slots].iter().sum();
                let mean = if capacity > 0.0 {
                    used / (capacity * slots as f64)
                } else {
                    0.0
                };
                self.engine.set_utilization(l * shards + s, mean);
            }
        }
        if let Some(trace) = self.trace.take() {
            trace.finish()?;
        }
        if let Some(conn) = self.pending_shutdown.take().flatten() {
            self.ack(Some(&conn), ControlAction::Shutdown);
        }
        Ok(written)
    }

    // ---- Replication, primary side ----------------------------------------

    // Fencing, snapshot requests, lag gauges and promotion deadlines.
    fn repl_tick(&mut self) -> Result<(), ServeError> {
        let (registry, ids) = (self.hub.registry, self.hub.ids);
        if let Some(handle) = self.repl_handle.clone() {
            handle.epoch.store(self.epoch.0, Ordering::Release);
            if handle.fenced.load(Ordering::Acquire) {
                // A newer-epoch standby exists: never ack again. The error skips
                // the final snapshot and maps to exit code 7.
                return Err(ServeError::Fenced {
                    epoch: self.epoch.0,
                    by: handle.fenced_by.load(Ordering::Acquire),
                });
            }
            if handle.need_snapshot.swap(false, Ordering::AcqRel) {
                let frame = ReplMsg::Snapshot {
                    epoch: self.epoch.0,
                    seq: self.seq,
                    data: self.snapshot_value().encode(),
                };
                self.send_repl(&frame, true, None);
                registry.inc(ids.repl_snapshots);
            }
            let gauge = |id, value: u64| registry.set_gauge(id, value as f64);
            let sent = handle.sent_seq.load(Ordering::Acquire);
            let acked = handle.acked_seq.load(Ordering::Acquire);
            gauge(ids.repl_sent_seq, sent);
            gauge(ids.repl_acked_seq, acked);
            gauge(ids.repl_lag, sent.saturating_sub(acked));
            gauge(
                ids.repl_reconnects,
                handle.reconnects.load(Ordering::Relaxed),
            );
            let unreplicated = handle.unreplicated_acks.load(Ordering::Relaxed);
            gauge(ids.unreplicated_acks, unreplicated);
            // Acked send instants become ack-wait observations; the oldest unacked
            // one is the lag. Observed here so one thread writes these series.
            while let Some(&(seq, at)) = self.sent_times.front() {
                if seq > acked {
                    break;
                }
                registry.observe(ids.repl_ack_wait, at.elapsed().as_secs_f64());
                let wait = nanos_since(at);
                self.hub.stage(0, PipelineStage::ReplAckWait, wait);
                self.sent_times.pop_front();
            }
            let lag_secs = self
                .sent_times
                .front()
                .map_or(0.0, |&(_, at)| at.elapsed().as_secs_f64());
            registry.set_gauge(ids.repl_lag_seconds, lag_secs);
        }
        if self.role == Role::Standby {
            if let (None, Some(after), Some(heard)) = (
                &self.promoting,
                self.hub.config.auto_promote_after,
                self.last_heard,
            ) {
                if self.seen_hello && heard.elapsed() >= after {
                    self.begin_promotion(None);
                }
            }
            if self.promote_deadline.is_some_and(|d| Instant::now() >= d) {
                // No EOF within the grace window: the primary is probably alive (split
                // brain). Force-close; the worker's ReplEof completes the promotion.
                self.promote_deadline = None;
                if let Some(rc) = &self.repl_conn {
                    let _ = lock(rc).shutdown(Shutdown::Both);
                }
            }
        }
        Ok(())
    }

    // ---- Replication, standby side ----------------------------------------

    fn handle_repl(&mut self, msg: ReplMsg, conn: &Conn) -> Result<(), ServeError> {
        let frame_epoch = match &msg {
            ReplMsg::Hello { epoch, .. }
            | ReplMsg::State { epoch, .. }
            | ReplMsg::Snapshot { epoch, .. }
            | ReplMsg::Frame { epoch, .. }
            | ReplMsg::Advance { epoch, .. }
            | ReplMsg::Heartbeat { epoch, .. }
            | ReplMsg::Ack { epoch, .. }
            | ReplMsg::Refused { epoch, .. }
            | ReplMsg::Fenced { epoch, .. } => *epoch,
        };
        let (registry, ids) = (self.hub.registry, self.hub.ids);
        if self.epoch.check(Epoch(frame_epoch)) == FenceCheck::Stale {
            // A deposed primary is still streaming: refuse, and tell it
            // so it exits (code 7) instead of acking admissions.
            registry.inc(ids.fenced_peers);
            let (epoch, stale_epoch) = (self.epoch.0, frame_epoch);
            self.record_trace(TraceEvent::Fenced { epoch, stale_epoch });
            let fenced = ReplMsg::Fenced { epoch, stale_epoch };
            let _ = write_line(conn, encode_repl(&fenced));
            return Ok(());
        }
        if self.role == Role::Primary {
            // Two primaries configured at each other: never apply.
            let text = "not a standby: replication frames refused".to_string();
            let _ = self.hub.reply_error(conn, text);
            return Ok(());
        }
        if frame_epoch > self.epoch.0 {
            self.epoch = self.epoch.merge(Epoch(frame_epoch));
            registry.set_gauge(ids.epoch, self.epoch.0 as f64);
            self.hub.status.set_epoch(self.epoch.0);
        }
        self.last_heard = Some(Instant::now());
        // Log entries arrive in order: a duplicate (e.g. covered by a catch-up
        // snapshot) is acked, a gap is refused back into the snapshot path.
        let in_order = |this: &Self, seq: u64| {
            if seq <= this.seq {
                this.repl_ack(conn);
                return false;
            }
            if seq != this.seq + 1 {
                registry.inc(ids.repl_refusals);
                let refused = ReplMsg::Refused {
                    epoch: this.epoch.0,
                    expected: this.seq + 1,
                    got: seq,
                };
                let _ = write_line(conn, encode_repl(&refused));
                return false;
            }
            true
        };
        match msg {
            ReplMsg::Hello { .. } => {
                self.repl_conn = Some(Arc::clone(conn));
                self.seen_hello = true;
                let (epoch, seq) = (self.epoch.0, self.seq);
                let _ = write_line(conn, encode_repl(&ReplMsg::State { epoch, seq }));
            }
            ReplMsg::Snapshot { epoch, seq, data } => {
                self.load_snapshot(&Snapshot::decode(&data)?)?;
                self.seq = seq;
                registry.inc(ids.repl_snapshots);
                self.record_trace(TraceEvent::ReplCatchup { epoch, seq });
                self.repl_ack(conn);
            }
            ReplMsg::Frame {
                seq,
                submit,
                decision,
                ..
            } => {
                if in_order(self, seq) {
                    self.apply_frame(&submit, &decision)?;
                    self.seq = seq;
                    registry.inc(ids.repl_applied);
                    self.repl_ack(conn);
                }
            }
            ReplMsg::Advance { seq, slot, .. } => {
                if in_order(self, seq) {
                    self.hub.slot.store(slot, Ordering::Relaxed);
                    registry.set_gauge(ids.slot, slot as f64);
                    self.seq = seq;
                    registry.inc(ids.repl_applied);
                    self.repl_ack(conn);
                }
            }
            ReplMsg::Heartbeat { .. } => self.repl_ack(conn),
            // Standby→primary messages have no business here.
            ReplMsg::State { .. }
            | ReplMsg::Ack { .. }
            | ReplMsg::Refused { .. }
            | ReplMsg::Fenced { .. } => registry.inc(ids.protocol_errors),
        }
        Ok(())
    }

    // Re-decides a replicated submit locally and insists the outcome is
    // byte-identical to the primary's. Any divergence is fatal: a
    // follower with different state must not be promoted.
    fn apply_frame(&mut self, submit: &str, decision: &str) -> Result<(), ServeError> {
        let divergence =
            |text: String| ServeError::Protocol(format!("replication divergence: {text}"));
        let ClientMsg::Submit(msg) = parse_client(submit)? else {
            return Err(ServeError::Protocol(
                "replication frame payload is not a submit line".to_string(),
            ));
        };
        let Verdict::Fresh(event) = self.decide(&msg)? else {
            return Err(divergence(format!(
                "the primary decided request {} that this follower refuses",
                msg.id
            )));
        };
        let local = encode_server(&ServerMsg::Decision(event.clone()));
        if local != decision {
            return Err(divergence(format!(
                "request {}: the follower's decision differs from the primary's\n  primary:  \
                 {decision}\n  follower: {local}",
                msg.id
            )));
        }
        self.record_event(&event);
        self.remember(event);
        Ok(())
    }

    fn repl_ack(&self, conn: &Conn) {
        let (epoch, seq) = (self.epoch.0, self.seq);
        let _ = write_line(conn, encode_repl(&ReplMsg::Ack { epoch, seq }));
    }

    // Starts a promotion: the role flips only after the replication
    // connection drains (its ReplEof arrives behind every frame it
    // delivered), so no already-received decision is lost.
    fn begin_promotion(&mut self, conn: Option<Conn>) {
        self.promoting = Some(conn);
        if self.repl_conn.is_some() {
            self.promote_deadline = Some(Instant::now() + PROMOTE_DRAIN_GRACE);
        } else {
            self.complete_promotion();
        }
    }

    fn complete_promotion(&mut self) {
        let conn = self.promoting.take().flatten();
        self.promote_deadline = None;
        self.epoch = self.epoch.next();
        self.role = Role::Primary;
        let (registry, ids) = (self.hub.registry, self.hub.ids);
        registry.set_gauge(ids.epoch, self.epoch.0 as f64);
        registry.set_gauge(ids.is_primary, 1.0);
        self.hub.status.set_epoch(self.epoch.0);
        self.hub.status.set_role(Role::Primary);
        let (epoch, seq) = (self.epoch.0, self.seq);
        self.record_trace(TraceEvent::Promotion { epoch, seq });
        self.ack(conn.as_ref(), ControlAction::Promote);
    }
}
