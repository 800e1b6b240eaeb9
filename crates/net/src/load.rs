//! The `exp_load` harness: many lightweight sans-I/O clients against a
//! real-socket cluster.
//!
//! Topology: each cell is one event-loop thread hosting all of its
//! [`Repository`] drivers, each behind its own TCP listener on loopback,
//! over readiness-polled nonblocking sockets (no per-repository or
//! per-connection threads). Clients are *not* threads either — a small
//! worker pool multiplexes tens to hundreds of thousands of [`Client`]
//! drivers, each a few hundred bytes of protocol state plus a
//! [`CollectIo`]. Every worker opens one connection per repository and
//! tags frames with the issuing client's process id, so a repository
//! routes replies by id over the connection they arrived on.
//!
//! [`LoadConfig::default`] is the deployment every caller runs: scoped
//! status shipping, status GC with sweep batch 64, and quorum-sized
//! (`Fanout::Narrow`) contact sets.
//!
//! Time: one logical tick = 1µs of wall clock, so client-recorded
//! begin→commit spans *are* latencies in microseconds. Protocol timeouts
//! are scaled accordingly ([`LoadConfig::op_timeout_ticks`]).
//!
//! Gates (see `wire.rs`): compaction and reconfiguration are off — their
//! payloads are not wire-encodable — and the workload is the Queue type.

use std::collections::{BinaryHeap, VecDeque};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quorumcc_adts::queue::{QueueInv, QueueRes};
use quorumcc_adts::Queue;
use quorumcc_model::Classified;
use quorumcc_quorum::ThresholdAssignment;
use quorumcc_replication::client::Record;
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::types::ObjId;
use quorumcc_replication::{
    Client, ClientConfig, CollectIo, Config, ConfigState, Durability, Fanout, LogicalHistogram,
    Msg, Output, Repository, Transaction,
};
use quorumcc_sim::{ProcId, SimTime};

use crate::fault::{FaultShim, NetFaultProfile};
use crate::tcp::{drain_frames, read_frame, write_frame};
use crate::wire;

type QMsg = Msg<QueueInv, QueueRes>;

/// Parameters for one load run (one concurrency-control mode).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrency-control mode under test.
    pub mode: Mode,
    /// Dependency relation for `mode` (must validate for Queue).
    pub relation: quorumcc_core::DependencyRelation,
    /// Independent cells, each its own `n_repos`-repository cluster with
    /// its own listeners and workers; clients are split evenly across
    /// cells and all cells run concurrently. Cells were originally a
    /// gossip-pressure valve (per-repository work was O(total actions)
    /// in statuses, DESIGN §3.14); with scoped shipping + status GC
    /// (DESIGN §3.16) they are the *hosting* unit — one event-loop
    /// thread per cell, the same parallelism shape as `exp_scale`'s
    /// per-cluster sims.
    pub clusters: usize,
    /// Repository (site) count per cell.
    pub n_repos: u32,
    /// Concurrent client drivers.
    pub clients: usize,
    /// Transactions per client.
    pub txns_per_client: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Distinct objects, assigned per-op pseudorandomly; more objects
    /// means fewer cross-client conflicts.
    pub objects: u16,
    /// Worker threads multiplexing the client drivers.
    pub workers: usize,
    /// Workload/jitter seed.
    pub seed: u64,
    /// Per-quorum-phase timeout in ticks (µs).
    pub op_timeout_ticks: SimTime,
    /// Contact only quorum-sized repository subsets (`Fanout::Narrow`)
    /// instead of broadcasting every phase — a third fewer frames on a
    /// 3-repository cell, at the price of a broadcast fallback after a
    /// timeout.
    pub narrow: bool,
    /// Fraction of operations that are `Deq` (the rest are `Enq`). `Deq`
    /// conflicts with everything on its object; `Enq`s commute, so a
    /// 0.0 mix measures pure throughput with no conflict aborts.
    pub deq_fraction: f64,
    /// Window over which each worker staggers its clients' starts. Zero
    /// is a thundering herd; a ramp keeps the repository side from
    /// building a queue it can never drain (every `Resolve` still plants
    /// statuses in the touched logs — DESIGN §3.16 bounds that work but
    /// does not make admission free).
    pub ramp: Duration,
    /// Wall-clock cap; clients still in flight at the deadline are
    /// abandoned (reported in [`LoadReport::unfinished`]).
    pub deadline: Duration,
    /// Scoped status shipping on repositories (see
    /// `TuningConfig::scoped_statuses`).
    pub scoped_statuses: bool,
    /// Status-GC sweep batch (see `TuningConfig::status_gc`); `None`
    /// keeps tombstones forever.
    pub status_gc: Option<u64>,
    /// Repository hosting; [`LoadBackend::EventLoop`] is the only host.
    pub backend: LoadBackend,
    /// Socket-level fault injection applied to every harness link (worker
    /// connections and accepted repository connections): seeded resets,
    /// stalls, split writes, and silent drops. The default profile
    /// injects nothing and leaves streams untouched.
    pub fault_profile: NetFaultProfile,
    /// Event-loop idle backoff floor, microseconds (the first sleep after
    /// a turn that made no progress; doubles per idle turn).
    pub poll_min_us: u64,
    /// Event-loop idle backoff ceiling, microseconds.
    pub poll_max_us: u64,
    /// Idle wakeup cap for the client worker threads, milliseconds. Frame
    /// arrival interrupts the sleep via `recv_timeout`, so this bounds
    /// only how stale the deadline check can get — and the *idle* wakeup
    /// rate: a large fleet runs hundreds of worker threads, and polling
    /// them at 1 kHz each would saturate a small box with context
    /// switches before any protocol work happens.
    pub idle_poll_ms: u64,
    /// Client ResolveAck retransmit period in ticks (µs) — the frontier
    /// repair path (`TuningConfig::resolve_retransmit`). `None` disables
    /// retransmission, the pre-supervision behavior.
    pub resolve_retransmit: Option<SimTime>,
    /// Scripted repository crash: the repo at this index in each cell
    /// goes dark at `at_ms`, loses its volatile state, and restarts
    /// `down_ms` later, catching back up through `SyncReq` state
    /// transfer.
    pub crash: Option<CrashSpec>,
}

/// One scripted kill/restart for [`LoadConfig::crash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Repository index (within each cell) to kill.
    pub repo: usize,
    /// Wall-clock offset of the crash, milliseconds from run start.
    pub at_ms: u64,
    /// How long the repository stays dark, milliseconds.
    pub down_ms: u64,
}

impl CrashSpec {
    /// Parses `repo:at_ms:down_ms` (e.g. `0:500:300`).
    pub fn parse(s: &str) -> Result<CrashSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [repo, at_ms, down_ms] = parts.as_slice() else {
            return Err(format!("bad crash spec '{s}': want repo:at_ms:down_ms"));
        };
        let field = |v: &str, name: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad crash spec '{s}': {name} is not a number"))
        };
        Ok(CrashSpec {
            repo: field(repo, "repo")? as usize,
            at_ms: field(at_ms, "at_ms")?,
            down_ms: field(down_ms, "down_ms")?,
        })
    }
}

/// Repository hosting for the load harness. There is one host, so
/// nothing branches on this; the type remains only because the
/// benchmark crate names it when it spells out a full [`LoadConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBackend {
    /// One OS thread per cell multiplexing all of its repositories over
    /// nonblocking sockets — the mio-style poll loop.
    EventLoop,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            mode: Mode::StaticTs,
            relation: quorumcc_core::DependencyRelation::default(),
            clusters: 1,
            n_repos: 3,
            clients: 1000,
            txns_per_client: 1,
            ops_per_txn: 2,
            objects: 1024,
            workers: 8,
            seed: 1,
            op_timeout_ticks: 500_000, // 500ms
            narrow: true,
            deq_fraction: 0.4,
            ramp: Duration::ZERO,
            deadline: Duration::from_secs(60),
            scoped_statuses: true,
            status_gc: Some(64),
            backend: LoadBackend::EventLoop,
            fault_profile: NetFaultProfile::none(),
            poll_min_us: 50,
            poll_max_us: 3200,
            idle_poll_ms: 25,
            resolve_retransmit: None,
            crash: None,
        }
    }
}

impl LoadConfig {
    /// The worker threads' idle wakeup cap as a duration.
    fn idle_poll(&self) -> Duration {
        Duration::from_millis(self.idle_poll_ms.max(1))
    }

    /// The event loop's idle sleep after `idle_turns` turns with no
    /// progress: exponential from the floor, capped at the ceiling.
    fn poll_backoff(&self, idle_turns: u32) -> Duration {
        let us = self
            .poll_min_us
            .max(1)
            .saturating_mul(1u64 << idle_turns.min(16))
            .min(self.poll_max_us.max(self.poll_min_us.max(1)));
        Duration::from_micros(us)
    }
}

/// Throughput/latency summary of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Mode name (`static-ts` / `hybrid` / `dynamic-2pl`).
    pub mode: &'static str,
    /// Client drivers launched.
    pub clients: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted (conflict or unavailability, after retries).
    pub aborted: usize,
    /// Individual operations inside committed transactions.
    pub ops_committed: usize,
    /// Clients that had not finished when the deadline hit.
    pub unfinished: usize,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Committed transactions per wall-clock second.
    pub txns_per_sec: f64,
    /// Committed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Median begin→commit latency, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Worker→repository reconnects performed by link supervision.
    pub reconnects: u64,
    /// Frames replayed from link rings after a reconnect.
    pub retransmit_frames: u64,
    /// Client-side ResolveAck retransmit rounds (frontier repair).
    pub resolve_ack_retransmits: u64,
    /// Retransmit timer fires that observed a stuck durable frontier.
    pub frontier_stalls: u64,
    /// Statuses garbage-collected repository-side (durable-GC progress).
    pub statuses_gcd: u64,
    /// Repository crash recoveries (scripted via [`LoadConfig::crash`]).
    pub recoveries: u64,
    /// Commit times (ticks = µs since run start) of every committed
    /// transaction, sorted — the raw series `exp_recovery` buckets into
    /// pre-crash vs post-rejoin goodput. Not serialized.
    pub commit_ticks: Vec<SimTime>,
}

impl LoadReport {
    /// Renders the report as a JSON object (hand-rolled, like the rest of
    /// the `BENCH_*.json` emitters).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\": \"{}\", \"clients\": {}, \"committed\": {}, \
             \"aborted\": {}, \
             \"ops_committed\": {}, \"unfinished\": {}, \"wall_ms\": {}, \
             \"txns_per_sec\": {:.1}, \"ops_per_sec\": {:.1}, \
             \"reconnects\": {}, \"retransmit_frames\": {}, \
             \"resolve_ack_retransmits\": {}, \"frontier_stalls\": {}, \"rejoins\": 0, \
             \"statuses_gcd\": {}, \"recoveries\": {}, \
             \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"mean\": {:.1}}}}}",
            self.mode,
            self.clients,
            self.committed,
            self.aborted,
            self.ops_committed,
            self.unfinished,
            self.wall.as_millis(),
            self.txns_per_sec,
            self.ops_per_sec,
            self.reconnects,
            self.retransmit_frames,
            self.resolve_ack_retransmits,
            self.frontier_stalls,
            self.statuses_gcd,
            self.recoveries,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.mean_us,
        )
    }
}

const TICK: Duration = Duration::from_micros(1);

/// How many recent frames a supervised worker link keeps for replay
/// after a reconnect. Replay is idempotent on the repository side
/// (duplicate `ReadLog`/`WriteLog`/`Resolve` deliveries are absorbed —
/// DESIGN §3.17), so the ring trades memory for recovery coverage; a
/// frame that falls off the ring is recovered by the client's own
/// phase-timeout retry instead.
const LINK_RING: usize = 64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Majority thresholds for the Queue alphabet — the same default
/// `RunBuilder` applies.
fn majority_thresholds(n: u32) -> ThresholdAssignment {
    let maj = n / 2 + 1;
    let mut ta = ThresholdAssignment::new(n);
    for op in Queue::op_classes() {
        ta.set_initial(op, maj);
    }
    for ev in Queue::event_classes() {
        ta.set_final(ev, maj);
    }
    ta
}

/// The scripted transactions for one client: seeded Enq/Deq ops over
/// pseudorandomly assigned objects.
fn client_txns(cfg: &LoadConfig, client_idx: usize) -> Vec<Transaction<QueueInv>> {
    let mut state = cfg.seed ^ splitmix64(client_idx as u64 + 1);
    let mut draw = || {
        state = splitmix64(state);
        state
    };
    (0..cfg.txns_per_client)
        .map(|_| Transaction {
            ops: (0..cfg.ops_per_txn)
                .map(|_| {
                    let obj = ObjId((draw() % u64::from(cfg.objects.max(1))) as u16);
                    let deq_cut = (cfg.deq_fraction.clamp(0.0, 1.0) * 1000.0) as u64;
                    let inv = if draw() % 1000 < deq_cut {
                        QueueInv::Deq
                    } else {
                        QueueInv::Enq((draw() % 100) as u32)
                    };
                    (obj, inv)
                })
                .collect(),
        })
        .collect()
}

fn client_config(cfg: &LoadConfig, repos: Vec<ProcId>) -> ClientConfig {
    ClientConfig {
        protocol: Protocol::new(cfg.mode, cfg.relation.clone()),
        thresholds: majority_thresholds(cfg.n_repos),
        repos,
        op_timeout: cfg.op_timeout_ticks,
        max_phase_retries: 2,
        think_time: 1000,
        commit_delay: 0,
        txn_retries: 2,
        propagate_views: true,
        fanout: if cfg.narrow {
            Fanout::Narrow
        } else {
            Fanout::Broadcast
        },
        delta_shipping: true,
        compact_logs: false,
        weaken_read_quorum: false,
        skip_final_ack: false,
        shards: 1,
        batch: 1,
        batch_window: 0,
        shard_thresholds: Vec::new(),
        status_gc: cfg.status_gc.is_some(),
        resolve_retransmit: cfg.resolve_retransmit,
    }
}

/// What one worker hands back when its clients are done (or abandoned).
struct WorkerResult {
    committed: usize,
    aborted: usize,
    ops_committed: usize,
    unfinished: usize,
    latency: LogicalHistogram,
    reconnects: u64,
    retransmit_frames: u64,
    resolve_retransmits: u64,
    frontier_stalls: u64,
    commit_ticks: Vec<SimTime>,
}

/// Repository-side counters a cell reports once its hosts stop.
#[derive(Debug, Clone, Copy, Default)]
struct RepoSideStats {
    statuses_gcd: u64,
    recoveries: u64,
}

/// A supervised worker→repository connection: on any write failure the
/// link is severed and redialed with capped exponential backoff plus
/// deterministic jitter, and the last [`LINK_RING`] frames are replayed
/// over the new socket. Replay is safe because every protocol message is
/// idempotent repository-side (DESIGN §3.17); in particular a replayed
/// `Resolve` re-earns the `ResolveAck` that unsticks the durable-GC
/// frontier after an ack was lost with the old connection.
struct PeerLink {
    port: u16,
    seed: u64,
    profile: NetFaultProfile,
    writer: Option<BufWriter<FaultShim<TcpStream>>>,
    ring: VecDeque<Vec<u8>>,
    /// Successful connects so far (first connect included).
    established: u64,
    /// Consecutive failed dial attempts since the last success.
    attempts: u32,
    next_attempt: Instant,
    reconnects: u64,
    retransmit_frames: u64,
    rng: u64,
    dirty: bool,
}

impl PeerLink {
    fn new(port: u16, seed: u64, profile: NetFaultProfile) -> Self {
        PeerLink {
            port,
            seed,
            profile,
            writer: None,
            ring: VecDeque::new(),
            established: 0,
            attempts: 0,
            next_attempt: Instant::now(),
            reconnects: 0,
            retransmit_frames: 0,
            rng: splitmix64(seed ^ 0xbacc_0ff5),
            dirty: false,
        }
    }

    /// Dial delay after `attempts` consecutive failures: 1ms doubling to
    /// a 256ms cap, plus up to 25% deterministic jitter so a fleet of
    /// workers does not redial a recovering repository in lockstep.
    fn backoff(&mut self) -> Duration {
        let base_us = (1000u64 << self.attempts.min(8)).min(256_000);
        self.rng = splitmix64(self.rng);
        Duration::from_micros(base_us + self.rng % (base_us / 4 + 1))
    }

    /// Tears the connection down (unblocking its reader thread) and
    /// schedules the first redial.
    fn sever(&mut self) {
        if let Some(w) = self.writer.take() {
            w.get_ref()
                .get_ref()
                .shutdown(std::net::Shutdown::Both)
                .ok();
        }
        self.attempts = 0;
        let delay = self.backoff();
        self.next_attempt = Instant::now() + delay;
    }

    /// Queues `frame` on the ring and writes it if the link is up; a
    /// write failure severs the link (the frame survives on the ring).
    fn send(&mut self, frame: Vec<u8>) {
        if self.ring.len() == LINK_RING {
            self.ring.pop_front();
        }
        if let Some(w) = &mut self.writer {
            if w.write_all(&frame).is_ok() {
                self.dirty = true;
            } else {
                self.sever();
            }
        }
        self.ring.push_back(frame);
    }

    /// Flushes buffered writes; a failure severs the link.
    fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        if let Some(w) = &mut self.writer {
            if w.flush().is_err() {
                self.sever();
            }
        }
    }
}

/// Runs one load configuration end to end and reports SLO percentiles.
///
/// # Panics
/// Panics on socket errors (bind/connect on loopback) and on codec
/// violations — both are harness bugs, not protocol outcomes.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    assert!(cfg.n_repos >= 1 && cfg.clients >= 1 && cfg.workers >= 1);
    let cells = cfg.clusters.max(1).min(cfg.clients);
    let epoch = Instant::now();
    let per = cfg.clients / cells;
    let extra = cfg.clients % cells;
    let results: Vec<(Vec<WorkerResult>, RepoSideStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cells)
            .map(|cell| {
                let mut sub = cfg.clone();
                sub.clients = per + usize::from(cell < extra);
                sub.seed = cfg.seed ^ splitmix64(cell as u64 + 0x5eed);
                scope.spawn(move || run_cluster(&sub))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cell panicked"))
            .collect()
    });
    let wall = epoch.elapsed();
    let mut latency = LogicalHistogram::default();
    let (mut committed, mut aborted, mut ops_committed, mut unfinished) = (0, 0, 0, 0);
    let (mut reconnects, mut retransmit_frames) = (0u64, 0u64);
    let (mut resolve_ack_retransmits, mut frontier_stalls) = (0u64, 0u64);
    let mut repo_side = RepoSideStats::default();
    let mut commit_ticks: Vec<SimTime> = Vec::new();
    for (workers, repo) in &results {
        repo_side.statuses_gcd += repo.statuses_gcd;
        repo_side.recoveries += repo.recoveries;
        for r in workers {
            committed += r.committed;
            aborted += r.aborted;
            ops_committed += r.ops_committed;
            unfinished += r.unfinished;
            latency.merge(&r.latency);
            reconnects += r.reconnects;
            retransmit_frames += r.retransmit_frames;
            resolve_ack_retransmits += r.resolve_retransmits;
            frontier_stalls += r.frontier_stalls;
            commit_ticks.extend_from_slice(&r.commit_ticks);
        }
    }
    commit_ticks.sort_unstable();
    let secs = wall.as_secs_f64().max(1e-9);
    LoadReport {
        mode: cfg.mode.name(),
        clients: cfg.clients,
        committed,
        aborted,
        ops_committed,
        unfinished,
        wall,
        txns_per_sec: committed as f64 / secs,
        ops_per_sec: ops_committed as f64 / secs,
        p50_us: latency.percentile(50.0).unwrap_or(0),
        p90_us: latency.percentile(90.0).unwrap_or(0),
        p99_us: latency.percentile(99.0).unwrap_or(0),
        mean_us: latency.mean().unwrap_or(0.0),
        reconnects,
        retransmit_frames,
        resolve_ack_retransmits,
        frontier_stalls,
        statuses_gcd: repo_side.statuses_gcd,
        recoveries: repo_side.recoveries,
        commit_ticks,
    }
}

/// One cell: an `n_repos` cluster plus its worker pool, run to quiescence
/// or the deadline.
fn run_cluster(cfg: &LoadConfig) -> (Vec<WorkerResult>, RepoSideStats) {
    let repos: Vec<ProcId> = (0..cfg.n_repos).collect();
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();

    // Bind every repository listener up front so workers can connect
    // immediately.
    let listeners: Vec<TcpListener> = repos
        .iter()
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let ports: Vec<u16> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect();

    let chunk = cfg.clients.div_ceil(cfg.workers);
    let (results, repo_side) = std::thread::scope(|scope| {
        // --- Repository side: one event-loop thread -------------------
        let repo_host = {
            let (stop, epoch, peers) = (&stop, &epoch, &repos);
            scope.spawn(move || cell_eventloop_main(cfg, listeners, peers, stop, epoch))
        };

        // --- Client workers -----------------------------------------
        let mut handles = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let first = w * chunk;
            if first >= cfg.clients {
                break;
            }
            let count = chunk.min(cfg.clients - first);
            let ports = ports.clone();
            let repos = repos.clone();
            let epoch = &epoch;
            let cfg = cfg.clone();
            handles
                .push(scope.spawn(move || worker_main(&cfg, first, count, &ports, &repos, epoch)));
        }
        let results: Vec<WorkerResult> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (results, repo_host.join().expect("repo host panicked"))
    });
    (results, repo_side)
}

fn now_us(epoch: &Instant) -> SimTime {
    epoch.elapsed().as_micros() as SimTime
}

/// One event-loop thread hosting *all* of a cell's repositories: the
/// whole cell's repository side is one OS thread, no per-repository
/// threads and no per-connection reader threads.
///
/// Everything is readiness-polled over nonblocking sockets: listeners
/// are drained of pending accepts each turn; each connection carries an
/// incremental read buffer (frames decoded as bytes arrive, via
/// [`drain_frames`]) and a write buffer drained opportunistically
/// (`WouldBlock` leaves the tail for the next turn, so a slow reader
/// never stalls the loop). Sends between co-hosted repositories
/// short-circuit in memory. A timer wheel (binary heap keyed by due
/// tick) honors `Output::SetTimer`, so repository timers — optional
/// anti-entropy gossip, off in this harness — would fire here too.
///
/// With nothing readable, writable, due, or pending the loop backs off
/// exponentially ([`LoadConfig::poll_min_us`] doubling to
/// [`LoadConfig::poll_max_us`]), since nothing interrupts a poll loop's
/// sleep the way `recv_timeout` interrupts a worker's.
///
/// A scripted [`LoadConfig::crash`] kills one co-hosted repository for a
/// wall-clock window: its connections are severed, its timers and
/// pending deliveries dropped, and — since the crashed repository is
/// built with volatile storage — the restart comes back amnesiac and
/// catches up through `SyncReq` state transfer over the cell's local
/// queue before serving quorums again.
fn cell_eventloop_main(
    cfg: &LoadConfig,
    listeners: Vec<TcpListener>,
    peers: &[ProcId],
    stop: &AtomicBool,
    epoch: &Instant,
) -> RepoSideStats {
    use std::io::{ErrorKind, Read as _};

    struct Conn {
        sock: FaultShim<TcpStream>,
        /// Which co-hosted repository this connection belongs to (the
        /// listener it was accepted on).
        repo_idx: usize,
        /// Bytes received but not yet framed.
        rbuf: Vec<u8>,
        /// Frames encoded but not yet accepted by the socket.
        wbuf: Vec<u8>,
        open: bool,
    }

    impl Conn {
        /// Marks the connection dead and shuts the socket down so the
        /// worker's reader sees EOF — a half-open connection would let
        /// the worker keep writing into a void with nothing to trip its
        /// link supervision.
        fn close(&mut self) {
            self.open = false;
            self.sock.get_ref().shutdown(std::net::Shutdown::Both).ok();
        }
    }

    let crash_repo = cfg.crash.map(|c| c.repo.min(peers.len() - 1));
    let mut repos: Vec<(Repository<Queue>, CollectIo<QMsg>)> = peers
        .iter()
        .map(|&r| {
            let protocol = Protocol::new(cfg.mode, cfg.relation.clone());
            let bootstrap = Config::new(0, peers.iter().copied(), majority_thresholds(cfg.n_repos));
            let mut repo: Repository<Queue> = Repository::new(protocol.mode, protocol.rel.clone())
                .with_config(ConfigState::Stable(bootstrap))
                .with_peers(peers.to_vec())
                .with_gossip(cfg.scoped_statuses, cfg.status_gc);
            if crash_repo == Some(r as usize) {
                // The scripted victim loses everything at the crash —
                // recovery must rebuild from peers, not from a WAL.
                repo = repo.with_durability(Durability::Volatile { wal: false });
            }
            (repo, CollectIo::new(r, u64::from(r) + 1))
        })
        .collect();
    for l in &listeners {
        l.set_nonblocking(true).expect("nonblocking listener");
    }

    let mut conns: Vec<Conn> = Vec::new();
    // (repository index, client id) -> connection the client's frames
    // arrive on; replies route back over the same connection.
    let mut route: std::collections::HashMap<(usize, ProcId), usize> =
        std::collections::HashMap::new();
    // Sends between co-hosted repositories, delivered without a socket.
    let mut local: std::collections::VecDeque<(usize, ProcId, QMsg)> =
        std::collections::VecDeque::new();
    let mut timers: BinaryHeap<std::cmp::Reverse<(SimTime, u64, usize, u64)>> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];

    // Route repository `r`'s buffered outputs: encoded frames into
    // connection write buffers, peer sends into the local queue, timers
    // into the wheel.
    macro_rules! drain {
        ($r:expr, $now:expr) => {{
            let (_, io) = &mut repos[$r];
            for out in io.take_outputs() {
                match out {
                    Output::Send { to, msg, .. } => {
                        if (to as usize) < peers.len() {
                            local.push_back((to as usize, peers[$r], msg));
                        } else if let Some(&ci) = route.get(&($r, to)) {
                            // A closed connection drops the reply, like
                            // a lossy link would.
                            if conns[ci].open {
                                let payload = wire::encode(&msg);
                                write_frame(&mut conns[ci].wbuf, peers[$r], to, &payload)
                                    .expect("vec write");
                            }
                        }
                    }
                    Output::SetTimer { delay, token } => {
                        timers.push(std::cmp::Reverse(($now + delay, timer_seq, $r, token)));
                        timer_seq += 1;
                    }
                }
            }
        }};
    }

    for r in 0..repos.len() {
        let now = now_us(epoch);
        let (repo, io) = &mut repos[r];
        io.set_now(now);
        repo.start(io);
        drain!(r, now);
    }

    let mut idle_turns = 0u32;
    let mut accepted = 0u64;
    // 0 = crash not yet due, 1 = dark, 2 = recovered (or no crash).
    let mut crash_phase = if cfg.crash.is_some() { 0u8 } else { 2u8 };
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let mut progress = false;

        // Scripted crash window: sever the victim's connections and drop
        // its pending work on entry; recover (amnesiac) at the end.
        if let (Some(spec), Some(victim)) = (cfg.crash, crash_repo) {
            let el_ms = epoch.elapsed().as_millis() as u64;
            if crash_phase == 0 && el_ms >= spec.at_ms {
                crash_phase = 1;
                for c in conns.iter_mut().filter(|c| c.repo_idx == victim) {
                    c.sock.get_ref().shutdown(std::net::Shutdown::Both).ok();
                    c.open = false;
                }
                timers = timers
                    .drain()
                    .filter(|&std::cmp::Reverse((_, _, r, _))| r != victim)
                    .collect();
                local.retain(|&(to, _, _)| to != victim);
                route.retain(|&(r, _), _| r != victim);
                let (_, io) = &mut repos[victim];
                io.take_outputs();
            }
            if crash_phase == 1 && el_ms >= spec.at_ms + spec.down_ms {
                crash_phase = 2;
                let now = now_us(epoch);
                let (repo, io) = &mut repos[victim];
                io.set_now(now);
                repo.on_recover(io);
                drain!(victim, now);
            }
        }
        let dark = (crash_phase == 1).then_some(crash_repo.unwrap_or(usize::MAX));

        // Accept every pending connection on every listener (a dark
        // repository accepts nothing; connects queue in its backlog).
        for (r, l) in listeners.iter().enumerate() {
            if dark == Some(r) {
                continue;
            }
            loop {
                match l.accept() {
                    Ok((sock, _addr)) => {
                        sock.set_nonblocking(true).expect("nonblocking conn");
                        sock.set_nodelay(true).ok();
                        accepted += 1;
                        let link_id = splitmix64(cfg.seed ^ ((r as u64) << 40) ^ accepted);
                        conns.push(Conn {
                            sock: FaultShim::new_nonblocking(sock, cfg.fault_profile, link_id),
                            repo_idx: r,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            open: true,
                        });
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Read readiness: pull whatever each socket has, frame it, feed
        // the owning repository driver.
        for ci in 0..conns.len() {
            if !conns[ci].open || dark == Some(conns[ci].repo_idx) {
                continue;
            }
            loop {
                match conns[ci].sock.read(&mut scratch) {
                    Ok(0) => {
                        conns[ci].close();
                        break;
                    }
                    Ok(n) => {
                        conns[ci].rbuf.extend_from_slice(&scratch[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conns[ci].close();
                        break;
                    }
                }
            }
            let frames = match drain_frames(&mut conns[ci].rbuf) {
                Ok(frames) => frames,
                Err(_) => {
                    conns[ci].close();
                    continue;
                }
            };
            let r = conns[ci].repo_idx;
            for (from, _to, payload) in frames {
                let Some(msg) = wire::decode::<QMsg>(&payload) else {
                    conns[ci].close();
                    break;
                };
                route.insert((r, from), ci);
                let now = now_us(epoch);
                let (repo, io) = &mut repos[r];
                io.set_now(now);
                repo.handle(io, from, msg);
                drain!(r, now);
            }
        }

        // In-memory deliveries between co-hosted repositories (may
        // enqueue more; drain to empty). A dark repository's deliveries
        // are dropped, like frames to a crashed host.
        while let Some((r, from, msg)) = local.pop_front() {
            if dark == Some(r) {
                continue;
            }
            let now = now_us(epoch);
            let (repo, io) = &mut repos[r];
            io.set_now(now);
            repo.handle(io, from, msg);
            drain!(r, now);
            progress = true;
        }

        // Timer wheel: fire everything due (dark repository's timers
        // were purged at crash entry; drop any stragglers).
        loop {
            let now = now_us(epoch);
            let Some(&std::cmp::Reverse((due, _, r, token))) = timers.peek() else {
                break;
            };
            if due > now {
                break;
            }
            timers.pop();
            if dark == Some(r) {
                continue;
            }
            let (repo, io) = &mut repos[r];
            io.set_now(now);
            repo.tick(io, token);
            drain!(r, now);
            progress = true;
        }

        // Write readiness: push each connection's buffer as far as the
        // socket will take it.
        for c in &mut conns {
            if !c.open || c.wbuf.is_empty() {
                continue;
            }
            let mut off = 0usize;
            while off < c.wbuf.len() {
                match c.sock.write(&c.wbuf[off..]) {
                    Ok(0) => {
                        c.close();
                        break;
                    }
                    Ok(n) => {
                        off += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.close();
                        break;
                    }
                }
            }
            c.wbuf.drain(..off);
        }

        if progress {
            idle_turns = 0;
        } else {
            idle_turns += 1;
            let backoff = cfg.poll_backoff(idle_turns);
            let wait = match timers.peek() {
                Some(&std::cmp::Reverse((due, ..))) => {
                    (TICK * due.saturating_sub(now_us(epoch)) as u32).min(backoff)
                }
                None => backoff,
            };
            std::thread::sleep(wait);
        }
    }

    let mut side = RepoSideStats::default();
    for (repo, _) in &repos {
        let counters = repo.counters();
        side.statuses_gcd += counters.statuses_gcd;
        side.recoveries += counters.recoveries;
    }
    side
}

/// One worker: hosts `count` client drivers (global ids starting at
/// `n_repos + first`), one TCP connection per repository, and a shared
/// timer heap keyed by `(due_tick, seq, local_client, token)`.
fn worker_main(
    cfg: &LoadConfig,
    first: usize,
    count: usize,
    ports: &[u16],
    repos: &[ProcId],
    epoch: &Instant,
) -> WorkerResult {
    let base_id = cfg.n_repos + first as ProcId;
    let (tx, rx) = mpsc::channel::<(ProcId, ProcId, Vec<u8>)>();
    let deadline = *epoch + cfg.deadline;
    let mut links: Vec<PeerLink> = ports
        .iter()
        .enumerate()
        .map(|(i, port)| {
            PeerLink::new(
                *port,
                splitmix64(cfg.seed ^ ((first as u64) << 32) ^ i as u64),
                cfg.fault_profile,
            )
        })
        .collect();
    // Per-link death signal from reader threads: a reader that hits
    // EOF/error records its connection generation here, and supervision
    // severs the matching link. This is what catches *server-side* link
    // deaths — the repository closes the socket, our writes would keep
    // succeeding into the OS buffer forever otherwise.
    let dead_gens: Vec<Arc<AtomicU64>> = ports.iter().map(|_| Arc::default()).collect();

    let result = std::thread::scope(|scope| {
        // Dial every link that is down and due for an attempt; replay the
        // ring over the fresh socket and spawn its reader thread. `tx`
        // stays alive for the whole run so late reconnects can clone it.
        macro_rules! supervise {
            () => {{
                for (link, dead) in links.iter_mut().zip(&dead_gens) {
                    // Reader died for the current generation (server
                    // closed, reset, or the read shim gave out): sever so
                    // the dial path below takes over.
                    if link.writer.is_some() && dead.load(Ordering::SeqCst) >= link.established {
                        link.sever();
                    }
                    if link.writer.is_some() || Instant::now() < link.next_attempt {
                        continue;
                    }
                    let Ok(conn) = TcpStream::connect(("127.0.0.1", link.port)) else {
                        link.attempts += 1;
                        let delay = link.backoff();
                        link.next_attempt = Instant::now() + delay;
                        continue;
                    };
                    conn.set_nodelay(true).ok();
                    link.established += 1;
                    if link.established > 1 {
                        link.reconnects += 1;
                    }
                    let link_id = splitmix64(link.seed ^ link.established);
                    let reader = FaultShim::new(
                        conn.try_clone().expect("clone conn"),
                        link.profile,
                        link_id ^ 1,
                    );
                    let tx = tx.clone();
                    let dead = Arc::clone(dead);
                    let generation = link.established;
                    scope.spawn(move || {
                        let mut reader = BufReader::new(reader);
                        while let Ok(frame) = read_frame(&mut reader) {
                            if tx.send(frame).is_err() {
                                break;
                            }
                        }
                        reader
                            .get_ref()
                            .get_ref()
                            .shutdown(std::net::Shutdown::Both)
                            .ok();
                        dead.fetch_max(generation, Ordering::SeqCst);
                    });
                    let mut w = BufWriter::new(FaultShim::new(conn, link.profile, link_id));
                    let mut ok = true;
                    for f in &link.ring {
                        if w.write_all(f).is_err() {
                            ok = false;
                            break;
                        }
                        link.retransmit_frames += 1;
                    }
                    if ok {
                        ok = w.flush().is_ok();
                    }
                    if ok {
                        link.writer = Some(w);
                        link.attempts = 0;
                    } else {
                        w.get_ref()
                            .get_ref()
                            .shutdown(std::net::Shutdown::Both)
                            .ok();
                        link.attempts += 1;
                        let delay = link.backoff();
                        link.next_attempt = Instant::now() + delay;
                    }
                }
            }};
        }
        supervise!();

        let mut clients: Vec<(Client<Queue>, CollectIo<QMsg>)> = (0..count)
            .map(|k| {
                let id = base_id + k as ProcId;
                let c = Client::new(
                    client_config(cfg, repos.to_vec()),
                    client_txns(cfg, first + k),
                );
                (c, CollectIo::new(id, cfg.seed ^ splitmix64(u64::from(id))))
            })
            .collect();
        let mut timers: BinaryHeap<std::cmp::Reverse<(SimTime, u64, usize, u64)>> =
            BinaryHeap::new();
        let mut timer_seq = 0u64;
        let mut done = vec![false; count];
        let mut n_done = 0usize;

        // Dispatch buffered outputs of client `k`: frames onto the
        // supervised links, timers into the heap.
        macro_rules! dispatch {
            ($k:expr, $now:expr) => {{
                let (_, io) = &mut clients[$k];
                for out in io.take_outputs() {
                    match out {
                        Output::Send { to, msg, .. } => {
                            let payload = wire::encode(&msg);
                            let mut frame = Vec::with_capacity(payload.len() + 16);
                            write_frame(&mut frame, base_id + $k as ProcId, to, &payload)
                                .expect("vec write");
                            links[to as usize].send(frame);
                        }
                        Output::SetTimer { delay, token } => {
                            timers.push(std::cmp::Reverse(($now + delay, timer_seq, $k, token)));
                            timer_seq += 1;
                        }
                    }
                }
            }};
        }

        // Client k starts `k/count` of the way through the ramp window
        // (all at once when the ramp is zero).
        let t0 = now_us(epoch);
        let ramp_us = cfg.ramp.as_micros() as u64;
        let mut next_start = 0usize;

        while n_done < count && Instant::now() < deadline {
            supervise!();
            let now = now_us(epoch);
            while next_start < count {
                let due = t0 + ramp_us * next_start as u64 / count as u64;
                if due > now {
                    break;
                }
                let k = next_start;
                next_start += 1;
                let (c, io) = &mut clients[k];
                io.set_now(now);
                c.start(&mut *io);
                dispatch!(k, now);
            }
            while let Some(&std::cmp::Reverse((due, _, k, token))) = timers.peek() {
                if due > now {
                    break;
                }
                timers.pop();
                if done[k] {
                    continue;
                }
                let (c, io) = &mut clients[k];
                io.set_now(now);
                c.tick(&mut *io, token);
                dispatch!(k, now);
            }
            // Push out start/timer-driven frames before blocking — nothing
            // may ever be received if these are left sitting in the buffer.
            for link in links.iter_mut() {
                link.flush();
            }
            // Sleep until the next local event — a timer firing or a ramped
            // client start — capped only by the stop/deadline poll. Frame
            // arrival interrupts the wait, so a long sleep costs nothing;
            // a short fixed cap would cost everything (hundreds of threads
            // polling at 1 kHz turn a one-core box into a context-switch
            // storm before any protocol work happens).
            let mut next_event = timers
                .peek()
                .map(|&std::cmp::Reverse((due, ..))| due)
                .unwrap_or(u64::MAX);
            if next_start < count {
                next_event = next_event.min(t0 + ramp_us * next_start as u64 / count as u64);
            }
            let mut wait = if next_event == u64::MAX {
                cfg.idle_poll()
            } else {
                (TICK * next_event.saturating_sub(now) as u32).min(cfg.idle_poll())
            };
            // A downed link bounds the sleep too, so redials happen on
            // their backoff schedule rather than the idle cadence.
            if let Some(due) = links
                .iter()
                .filter(|l| l.writer.is_none())
                .map(|l| l.next_attempt)
                .min()
            {
                let until = due
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_micros(100));
                wait = wait.min(until);
            }
            // Wait for the first frame, then drain whatever else is queued
            // before paying a flush.
            let mut frame = match rx.recv_timeout(wait) {
                Ok(f) => Some(f),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            while let Some((from, to, payload)) = frame {
                let k = (to - base_id) as usize;
                let msg = wire::decode::<QMsg>(&payload).expect("decode reply");
                let now = now_us(epoch);
                let (c, io) = &mut clients[k];
                io.set_now(now);
                c.handle(&mut *io, from, msg);
                dispatch!(k, now);
                if !done[k] && clients[k].0.is_done() {
                    done[k] = true;
                    n_done += 1;
                }
                frame = rx.try_recv().ok();
            }
            // Flush everything this turn produced — replies *and*
            // timer-driven sends (a client's first op leaves via a
            // start-jitter timer, when nothing has been received yet).
            for link in links.iter_mut() {
                link.flush();
            }
        }

        // Unblock this worker's reader threads (they block on reads from
        // connections the repositories hold open until global stop) so the
        // scope can join them.
        for link in links.iter_mut() {
            if let Some(w) = link.writer.take() {
                w.get_ref()
                    .get_ref()
                    .shutdown(std::net::Shutdown::Both)
                    .ok();
            }
        }

        // Harvest: stats, begin→commit latencies, and commit times from
        // client records; supervision counters from the links.
        let mut latency = LogicalHistogram::default();
        let (mut committed, mut aborted, mut ops_committed) = (0, 0, 0);
        let (mut resolve_retransmits, mut frontier_stalls) = (0u64, 0u64);
        let mut commit_ticks: Vec<SimTime> = Vec::new();
        for (c, _) in &clients {
            let stats = c.stats();
            committed += stats.committed;
            aborted += stats.aborted_conflict + stats.aborted_unavailable;
            ops_committed += stats.ops_completed;
            let metrics = c.metrics();
            resolve_retransmits += metrics.resolve_retransmits;
            frontier_stalls += metrics.frontier_stalls;
            let mut begins: std::collections::HashMap<u32, SimTime> =
                std::collections::HashMap::new();
            for rec in c.records() {
                match rec {
                    Record::Begin { t, action } => {
                        begins.insert(action.0, *t);
                    }
                    Record::Commit { t, action } => {
                        if let Some(b) = begins.get(&action.0) {
                            latency.record(t.saturating_sub(*b));
                        }
                        commit_ticks.push(*t);
                    }
                    _ => {}
                }
            }
        }
        WorkerResult {
            committed,
            aborted,
            ops_committed,
            unfinished: count - n_done,
            latency,
            reconnects: links.iter().map(|l| l.reconnects).sum(),
            retransmit_frames: links.iter().map(|l| l.retransmit_frames).sum(),
            resolve_retransmits,
            frontier_stalls,
            commit_ticks,
        }
    });
    result
}
