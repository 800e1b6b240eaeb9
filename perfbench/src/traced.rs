//! The traced run. The benchmark hosts the serving path itself, out of
//! the same public functions the event-loop host is built from, and
//! times each call from outside:
//!
//! * a cell thread polls three co-hosted [`Repository`] drivers over
//!   nonblocking loopback sockets with the host's idle backoff
//!   (`Repository::handle`, `wire::{decode,encode}`,
//!   `tcp::{drain_frames,write_frame}`, socket reads and writes);
//! * a worker thread runs every [`Client`] driver (`Client::{start,
//!   handle,tick}`), fed by one reader thread per repository link that
//!   blocks in `peek` (idle) and then reads and frames what arrived.
//!
//! Each thread keeps its spans in memory as per-layer call counts and
//! busy time, plus the time it spent idle, and hands them back when the
//! round ends. The round's client records are then audited: every
//! touched object's history is assembled and checked against the mode's
//! atomicity property.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use quorumcc_adts::queue::{QueueInv, QueueRes};
use quorumcc_adts::Queue;
use quorumcc_model::{ActionId, Classified};
use quorumcc_net::tcp::{drain_frames, write_frame};
use quorumcc_net::{wire, LoadConfig};
use quorumcc_quorum::ThresholdAssignment;
use quorumcc_replication::client::Record;
use quorumcc_replication::history;
use quorumcc_replication::protocol::Protocol;
use quorumcc_replication::types::ObjId;
use quorumcc_replication::{
    Client, ClientConfig, CollectIo, Config, ConfigState, Fanout, Mode, Msg, Output, Repository,
    Transaction,
};
use quorumcc_sim::{ProcId, SimTime};

use crate::deploy::{self, Relations, Shape, MODES};
use crate::stats::{median, percentile, Metric};
use crate::Outcome;

type QMsg = Msg<QueueInv, QueueRes>;
type QRecord = Record<QueueInv, QueueRes>;

/// Transaction retries per client, as the load harness configures them.
const TXN_RETRIES: u32 = 2;

/// The layers a span can belong to.
#[derive(Clone, Copy)]
enum Layer {
    RepoResolve,
    RepoReadLog,
    RepoWriteLog,
    RepoOther,
    Client,
    Encode,
    Decode,
    Frame,
    Sock,
    /// Reader thread to worker thread: the channel send and the wake-up
    /// it costs, and the worker's nonblocking receives.
    Handoff,
}

const LAYERS: usize = 10;

/// One thread's spans, summed per layer.
#[derive(Default)]
struct Spans {
    calls: [u64; LAYERS],
    ns: [u64; LAYERS],
    /// Time spent sleeping or blocked waiting for input.
    idle_ns: u64,
    /// The thread's lifetime.
    wall_ns: u64,
    /// Encoded payload bytes and messages.
    bytes: u64,
    msgs: u64,
    /// Per frame: nanoseconds from `write_frame` to the start of decode.
    frame_wait_ns: Vec<u64>,
}

impl Spans {
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.calls[layer as usize] += 1;
        self.ns[layer as usize] += t.elapsed().as_nanos() as u64;
        out
    }

    fn idle<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.idle_ns += t.elapsed().as_nanos() as u64;
        out
    }

    fn encode(&mut self, msg: &QMsg) -> Vec<u8> {
        let payload = self.time(Layer::Encode, || wire::encode(msg));
        self.bytes += payload.len() as u64;
        self.msgs += 1;
        payload
    }

    fn merge(&mut self, other: Spans) {
        for l in 0..LAYERS {
            self.calls[l] += other.calls[l];
            self.ns[l] += other.ns[l];
        }
        self.idle_ns += other.idle_ns;
        self.wall_ns += other.wall_ns;
        self.bytes += other.bytes;
        self.msgs += other.msgs;
        self.frame_wait_ns.extend(other.frame_wait_ns);
    }
}

/// Send stamps of frames in flight, one FIFO per link and direction:
/// TCP keeps each link's frames in order, so the receiver pops the
/// stamp of each frame it decodes.
struct Stamps {
    epoch: Instant,
    to_repo: Vec<Mutex<VecDeque<u64>>>,
    to_worker: Vec<Mutex<VecDeque<u64>>>,
}

impl Stamps {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(q: &Mutex<VecDeque<u64>>, t: u64) {
        q.lock().expect("stamp queue poisoned").push_back(t);
    }

    fn pop(q: &Mutex<VecDeque<u64>>) -> Option<u64> {
        q.lock().expect("stamp queue poisoned").pop_front()
    }
}

fn now_us(epoch: &Instant) -> SimTime {
    epoch.elapsed().as_micros() as SimTime
}

/// Majority thresholds for the Queue alphabet, as the load harness sets
/// them.
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

/// The client configuration the load harness gives every client.
fn client_config(cfg: &LoadConfig, repos: Vec<ProcId>) -> ClientConfig {
    ClientConfig {
        protocol: Protocol::new(cfg.mode, cfg.relation.clone()),
        thresholds: majority_thresholds(cfg.n_repos),
        repos,
        op_timeout: cfg.op_timeout_ticks,
        max_phase_retries: 2,
        think_time: 1000,
        commit_delay: 0,
        txn_retries: TXN_RETRIES,
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

/// Client `idx`'s transactions: the load harness's generator for a
/// one-cell run, so both runs serve the same inputs for a seed.
fn client_txns(cfg: &LoadConfig, idx: usize) -> Vec<Transaction<QueueInv>> {
    let cell_seed = cfg.seed ^ deploy::mix(0x5eed);
    let mut state = cell_seed ^ deploy::mix(idx as u64 + 1);
    let mut draw = || {
        state = deploy::mix(state);
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

/// The cell thread: every repository of the cell behind its own
/// nonblocking listener, polled in one loop until `stop`.
fn cell_main(
    cfg: &LoadConfig,
    listeners: Vec<TcpListener>,
    stop: &AtomicBool,
    epoch: &Instant,
    stamps: &Stamps,
) -> (Spans, Vec<Repository<Queue>>) {
    struct Conn {
        sock: TcpStream,
        repo: usize,
        rbuf: Vec<u8>,
        wbuf: Vec<u8>,
        open: bool,
    }

    let born = Instant::now();
    let mut spans = Spans::default();
    let peers: Vec<ProcId> = (0..cfg.n_repos).collect();
    let mut repos: Vec<(Repository<Queue>, CollectIo<QMsg>)> = peers
        .iter()
        .map(|&r| {
            let bootstrap = Config::new(0, peers.iter().copied(), majority_thresholds(cfg.n_repos));
            let repo = Repository::<Queue>::new(cfg.mode, cfg.relation.clone())
                .with_config(ConfigState::Stable(bootstrap))
                .with_peers(peers.clone())
                .with_gossip(cfg.scoped_statuses, cfg.status_gc);
            (repo, CollectIo::new(r, u64::from(r) + 1))
        })
        .collect();
    for l in &listeners {
        l.set_nonblocking(true).expect("nonblocking listener");
    }
    let mut conns: Vec<Conn> = Vec::new();
    let mut route: HashMap<(usize, ProcId), usize> = HashMap::new();
    let mut local: VecDeque<(usize, ProcId, QMsg)> = VecDeque::new();
    let mut timers: BinaryHeap<Reverse<(SimTime, u64, usize, u64)>> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];

    // Route repository `r`'s buffered outputs, as the host's `drain!`
    // does: frames into connection write buffers, peer sends into the
    // local queue, timers into the heap.
    macro_rules! drain {
        ($r:expr, $now:expr) => {{
            for out in repos[$r].1.take_outputs() {
                match out {
                    Output::Send { to, msg, .. } => {
                        if (to as usize) < peers.len() {
                            local.push_back((to as usize, peers[$r], msg));
                        } else if let Some(&ci) = route.get(&($r, to)) {
                            if conns[ci].open {
                                let payload = spans.encode(&msg);
                                let wbuf = &mut conns[ci].wbuf;
                                spans
                                    .time(Layer::Frame, || {
                                        write_frame(wbuf, peers[$r], to, &payload)
                                    })
                                    .expect("vec write");
                                Stamps::push(&stamps.to_worker[$r], stamps.now());
                            }
                        }
                    }
                    Output::SetTimer { delay, token } => {
                        timers.push(Reverse(($now + delay, timer_seq, $r, token)));
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
        spans.time(Layer::RepoOther, || repo.start(io));
        drain!(r, now);
    }

    let mut idle_turns = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        for (r, l) in listeners.iter().enumerate() {
            while let Ok((sock, _)) = spans.time(Layer::Sock, || l.accept()) {
                sock.set_nonblocking(true).expect("nonblocking conn");
                sock.set_nodelay(true).ok();
                conns.push(Conn {
                    sock,
                    repo: r,
                    rbuf: Vec::new(),
                    wbuf: Vec::new(),
                    open: true,
                });
                progress = true;
            }
        }

        for ci in 0..conns.len() {
            if !conns[ci].open {
                continue;
            }
            loop {
                let sock = &mut conns[ci].sock;
                match spans.time(Layer::Sock, || sock.read(&mut scratch)) {
                    Ok(0) => {
                        conns[ci].open = false;
                        break;
                    }
                    Ok(n) => {
                        conns[ci].rbuf.extend_from_slice(&scratch[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conns[ci].open = false;
                        break;
                    }
                }
            }
            if conns[ci].rbuf.is_empty() {
                continue;
            }
            let rbuf = &mut conns[ci].rbuf;
            let frames = spans
                .time(Layer::Frame, || drain_frames(rbuf))
                .expect("well-formed frames");
            let r = conns[ci].repo;
            for (from, _to, payload) in frames {
                if let Some(sent) = Stamps::pop(&stamps.to_repo[r]) {
                    spans.frame_wait_ns.push(stamps.now().saturating_sub(sent));
                }
                let msg = spans
                    .time(Layer::Decode, || wire::decode::<QMsg>(&payload))
                    .expect("decodable frame");
                route.insert((r, from), ci);
                let layer = match &msg {
                    Msg::Resolve { .. } => Layer::RepoResolve,
                    Msg::ReadLog { .. } => Layer::RepoReadLog,
                    Msg::WriteLog { .. } => Layer::RepoWriteLog,
                    _ => Layer::RepoOther,
                };
                let now = now_us(epoch);
                let (repo, io) = &mut repos[r];
                io.set_now(now);
                spans.time(layer, || repo.handle(io, from, msg));
                drain!(r, now);
            }
        }

        while let Some((r, from, msg)) = local.pop_front() {
            let now = now_us(epoch);
            let (repo, io) = &mut repos[r];
            io.set_now(now);
            spans.time(Layer::RepoOther, || repo.handle(io, from, msg));
            drain!(r, now);
            progress = true;
        }

        while let Some(&Reverse((due, _, r, token))) = timers.peek() {
            let now = now_us(epoch);
            if due > now {
                break;
            }
            timers.pop();
            let (repo, io) = &mut repos[r];
            io.set_now(now);
            spans.time(Layer::RepoOther, || repo.tick(io, token));
            drain!(r, now);
            progress = true;
        }

        for c in &mut conns {
            if !c.open || c.wbuf.is_empty() {
                continue;
            }
            let mut off = 0usize;
            while off < c.wbuf.len() {
                let (sock, buf) = (&mut c.sock, &c.wbuf[off..]);
                match spans.time(Layer::Sock, || sock.write(buf)) {
                    Ok(0) => {
                        c.open = false;
                        break;
                    }
                    Ok(n) => {
                        off += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.open = false;
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
            let backoff = cfg
                .poll_min_us
                .max(1)
                .saturating_mul(1u64 << idle_turns.min(16))
                .min(cfg.poll_max_us.max(cfg.poll_min_us.max(1)));
            let mut wait = Duration::from_micros(backoff);
            if let Some(&Reverse((due, ..))) = timers.peek() {
                wait = wait.min(Duration::from_micros(due.saturating_sub(now_us(epoch))));
            }
            spans.idle(|| std::thread::sleep(wait));
        }
    }
    spans.wall_ns = born.elapsed().as_nanos() as u64;
    (spans, repos.into_iter().map(|(r, _)| r).collect())
}

/// A frame forwarded by a reader thread, with the stamp of its send.
type Frame = (ProcId, ProcId, Vec<u8>, Option<u64>);

/// One worker→repository link's reader: blocks in `peek` until bytes
/// arrive (idle), then reads and frames them.
fn reader_main(
    mut sock: TcpStream,
    repo: usize,
    tx: mpsc::Sender<Frame>,
    stamps: &Stamps,
) -> Spans {
    let born = Instant::now();
    let mut spans = Spans::default();
    let mut rbuf = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut probe = [0u8; 1];
    'conn: loop {
        match spans.idle(|| sock.peek(&mut probe)) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let n = match spans.time(Layer::Sock, || sock.read(&mut scratch)) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        rbuf.extend_from_slice(&scratch[..n]);
        let frames = spans
            .time(Layer::Frame, || drain_frames(&mut rbuf))
            .expect("well-formed frames");
        for (from, to, payload) in frames {
            let sent = Stamps::pop(&stamps.to_worker[repo]);
            if spans
                .time(Layer::Handoff, || tx.send((from, to, payload, sent)))
                .is_err()
            {
                break 'conn;
            }
        }
    }
    spans.wall_ns = born.elapsed().as_nanos() as u64;
    spans
}

/// What the worker side hands back.
struct WorkerOut {
    spans: Spans,
    clients: Vec<Client<Queue>>,
    unfinished: usize,
    wall: Duration,
}

/// The worker thread: hosts every client, one blocking connection per
/// repository plus its reader thread, and a timer heap.
fn worker_main(cfg: &LoadConfig, ports: &[u16], epoch: &Instant, stamps: &Stamps) -> WorkerOut {
    let n_repos = cfg.n_repos as usize;
    let repos: Vec<ProcId> = (0..cfg.n_repos).collect();
    let base_id = cfg.n_repos;
    let count = cfg.clients;
    let deadline = *epoch + cfg.deadline;
    // The inputs are the benchmark's, not the system's: generate them
    // before the worker's clock starts.
    let mut inputs: Vec<_> = (0..count).map(|k| client_txns(cfg, k)).collect();
    let born = Instant::now();
    let mut spans = Spans::default();
    let socks: Vec<TcpStream> = ports
        .iter()
        .map(|&p| {
            let s = spans
                .time(Layer::Sock, || TcpStream::connect(("127.0.0.1", p)))
                .expect("connect loopback");
            s.set_nodelay(true).ok();
            s
        })
        .collect();
    let (tx, rx) = mpsc::channel::<Frame>();
    std::thread::scope(|scope| {
        let readers: Vec<_> = socks
            .iter()
            .enumerate()
            .map(|(r, s)| {
                let sock = s.try_clone().expect("clone conn");
                let tx = tx.clone();
                scope.spawn(move || reader_main(sock, r, tx, stamps))
            })
            .collect();
        drop(tx);
        let mut socks = socks;
        let mut wbufs: Vec<Vec<u8>> = vec![Vec::new(); n_repos];
        let mut clients: Vec<(Client<Queue>, CollectIo<QMsg>)> = (0..count)
            .map(|k| {
                let id = base_id + k as ProcId;
                let txns = std::mem::take(&mut inputs[k]);
                let c = spans.time(Layer::Client, || {
                    Client::new(client_config(cfg, repos.clone()), txns)
                });
                // The load harness seeds each client's retry jitter from
                // the cell seed, as `client_txns` seeds its inputs.
                let cell_seed = cfg.seed ^ deploy::mix(0x5eed);
                (
                    c,
                    CollectIo::new(id, cell_seed ^ deploy::mix(u64::from(id))),
                )
            })
            .collect();
        let mut timers: BinaryHeap<Reverse<(SimTime, u64, usize, u64)>> = BinaryHeap::new();
        let mut timer_seq = 0u64;
        let mut done = vec![false; count];
        let mut n_done = 0usize;

        let dispatch = |k: usize,
                        now: SimTime,
                        clients: &mut Vec<(Client<Queue>, CollectIo<QMsg>)>,
                        wbufs: &mut Vec<Vec<u8>>,
                        timers: &mut BinaryHeap<Reverse<(SimTime, u64, usize, u64)>>,
                        timer_seq: &mut u64,
                        spans: &mut Spans| {
            for out in clients[k].1.take_outputs() {
                match out {
                    Output::Send { to, msg, .. } => {
                        let payload = spans.encode(&msg);
                        let wbuf = &mut wbufs[to as usize];
                        spans
                            .time(Layer::Frame, || {
                                write_frame(wbuf, base_id + k as ProcId, to, &payload)
                            })
                            .expect("vec write");
                        Stamps::push(&stamps.to_repo[to as usize], stamps.now());
                    }
                    Output::SetTimer { delay, token } => {
                        timers.push(Reverse((now + delay, *timer_seq, k, token)));
                        *timer_seq += 1;
                    }
                }
            }
        };
        let flush = |socks: &mut Vec<TcpStream>, wbufs: &mut Vec<Vec<u8>>, spans: &mut Spans| {
            for (sock, wbuf) in socks.iter_mut().zip(wbufs.iter_mut()) {
                if !wbuf.is_empty() {
                    spans
                        .time(Layer::Sock, || sock.write_all(wbuf))
                        .expect("write to repository");
                    wbuf.clear();
                }
            }
        };

        let t0 = now_us(epoch);
        let ramp_us = cfg.ramp.as_micros() as u64;
        let mut next_start = 0usize;
        let idle_cap = Duration::from_millis(cfg.idle_poll_ms.max(1));
        while n_done < count && Instant::now() < deadline {
            let now = now_us(epoch);
            while next_start < count && t0 + ramp_us * next_start as u64 / count as u64 <= now {
                let k = next_start;
                next_start += 1;
                let (c, io) = &mut clients[k];
                io.set_now(now);
                spans.time(Layer::Client, || c.start(io));
                dispatch(
                    k,
                    now,
                    &mut clients,
                    &mut wbufs,
                    &mut timers,
                    &mut timer_seq,
                    &mut spans,
                );
            }
            while let Some(&Reverse((due, _, k, token))) = timers.peek() {
                if due > now {
                    break;
                }
                timers.pop();
                if done[k] {
                    continue;
                }
                let (c, io) = &mut clients[k];
                io.set_now(now);
                spans.time(Layer::Client, || c.tick(io, token));
                dispatch(
                    k,
                    now,
                    &mut clients,
                    &mut wbufs,
                    &mut timers,
                    &mut timer_seq,
                    &mut spans,
                );
            }
            flush(&mut socks, &mut wbufs, &mut spans);
            let mut next_event = timers.peek().map_or(u64::MAX, |&Reverse((due, ..))| due);
            if next_start < count {
                next_event = next_event.min(t0 + ramp_us * next_start as u64 / count as u64);
            }
            let wait = Duration::from_micros(next_event.saturating_sub(now)).min(idle_cap);
            let mut next = spans.idle(|| rx.recv_timeout(wait)).ok();
            while let Some((from, to, payload, sent)) = next {
                if let Some(sent) = sent {
                    spans.frame_wait_ns.push(stamps.now().saturating_sub(sent));
                }
                let k = (to - base_id) as usize;
                let msg = spans
                    .time(Layer::Decode, || wire::decode::<QMsg>(&payload))
                    .expect("decodable reply");
                let now = now_us(epoch);
                let (c, io) = &mut clients[k];
                io.set_now(now);
                spans.time(Layer::Client, || c.handle(io, from, msg));
                dispatch(
                    k,
                    now,
                    &mut clients,
                    &mut wbufs,
                    &mut timers,
                    &mut timer_seq,
                    &mut spans,
                );
                if !done[k] && clients[k].0.is_done() {
                    done[k] = true;
                    n_done += 1;
                }
                next = spans.time(Layer::Handoff, || rx.try_recv()).ok();
            }
            flush(&mut socks, &mut wbufs, &mut spans);
        }
        let wall = born.elapsed();
        for s in &socks {
            s.shutdown(Shutdown::Both).ok();
        }
        spans.wall_ns = wall.as_nanos() as u64;
        for h in readers {
            spans.merge(h.join().expect("reader thread panicked"));
        }
        WorkerOut {
            spans,
            clients: clients.into_iter().map(|(c, _)| c).collect(),
            unfinished: count - n_done,
            wall,
        }
    })
}

/// What one traced round yielded.
struct Round {
    mode: Mode,
    issued: usize,
    committed: usize,
    unfinished: usize,
    txn_per_s: f64,
    spans: Spans,
    statuses_gcd: u64,
    log_len_max: usize,
    begins: usize,
    /// First `Begin` to `Commit` of every committed transaction, ms.
    txn_ms: Vec<f64>,
    audited: usize,
    violations: Vec<ObjId>,
    audit_s: f64,
}

fn round(shape: &Shape, relations: &Relations, mode: Mode, seed: u64) -> Round {
    let cfg = deploy::load_config(shape, mode, relations.of(mode), seed);
    let listeners: Vec<TcpListener> = (0..cfg.n_repos)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let ports: Vec<u16> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound listener").port())
        .collect();
    let epoch = Instant::now();
    let stamps = Stamps {
        epoch,
        to_repo: (0..cfg.n_repos).map(|_| Mutex::default()).collect(),
        to_worker: (0..cfg.n_repos).map(|_| Mutex::default()).collect(),
    };
    let stop = AtomicBool::new(false);
    let (worker, (mut spans, repos)) = std::thread::scope(|scope| {
        let cell = scope.spawn(|| cell_main(&cfg, listeners, &stop, &epoch, &stamps));
        let worker = worker_main(&cfg, &ports, &epoch, &stamps);
        stop.store(true, Ordering::SeqCst);
        (worker, cell.join().expect("cell thread panicked"))
    });
    spans.merge(worker.spans);

    let committed: usize = worker.clients.iter().map(|c| c.stats().committed).sum();
    let statuses_gcd = repos.iter().map(|r| r.counters().statuses_gcd).sum();
    let log_len_max = repos
        .iter()
        .flat_map(|r| (0..shape.objects).map(move |o| r.log(ObjId(o)).len()))
        .max()
        .unwrap_or(0);

    let mut begins = 0usize;
    let mut txn_ms = Vec::new();
    for c in &worker.clients {
        let mut first: Option<SimTime> = None;
        let mut attempts = 0u32;
        for rec in c.records() {
            match rec {
                Record::Begin { t, .. } => {
                    begins += 1;
                    if first.is_none() {
                        first = Some(*t);
                        attempts = 0;
                    }
                    attempts += 1;
                }
                Record::Commit { t, .. } => {
                    if let Some(b) = first.take() {
                        txn_ms.push(t.saturating_sub(b) as f64 / 1e3);
                    }
                }
                // The last attempt's abort ends the transaction.
                Record::Abort { .. } if attempts > TXN_RETRIES => first = None,
                _ => {}
            }
        }
    }

    let audit_start = Instant::now();
    let ids: Vec<u32> = (0..worker.clients.len() as u32)
        .map(|k| cfg.n_repos + k)
        .collect();
    let records: Vec<&[QRecord]> = worker.clients.iter().map(|c| c.records()).collect();
    let (audited, violations) = audit(mode, &ids, &records);
    Round {
        mode,
        issued: shape.txns(),
        committed,
        unfinished: worker.unfinished,
        txn_per_s: committed as f64 / worker.wall.as_secs_f64(),
        spans,
        statuses_gcd,
        log_len_max,
        begins,
        txn_ms,
        audited,
        violations,
        audit_s: audit_start.elapsed().as_secs_f64(),
    }
}

/// Checks every touched object's assembled history against `mode`'s
/// atomicity property. Each object's history is assembled from only the
/// records of the actions that touched it, which keeps every client's
/// record order and so yields the history `assemble` builds from all of
/// them. Returns the objects checked and those that failed.
fn audit(mode: Mode, ids: &[u32], records: &[&[QRecord]]) -> (usize, Vec<ObjId>) {
    let action = |r: &QRecord| match r {
        Record::Begin { action, .. }
        | Record::Op { action, .. }
        | Record::Commit { action, .. }
        | Record::Abort { action, .. } => *action,
    };
    let mut by_obj: BTreeMap<ObjId, Vec<Vec<QRecord>>> = BTreeMap::new();
    for (ci, recs) in records.iter().enumerate() {
        let mut touched: HashMap<ActionId, HashSet<ObjId>> = HashMap::new();
        for r in recs.iter() {
            if let Record::Op { action, obj, .. } = r {
                touched.entry(*action).or_default().insert(*obj);
            }
        }
        for r in recs.iter() {
            for obj in touched.get(&action(r)).into_iter().flatten() {
                by_obj
                    .entry(*obj)
                    .or_insert_with(|| vec![Vec::new(); records.len()])[ci]
                    .push(r.clone());
            }
        }
    }
    let mut violations = Vec::new();
    for (obj, per_client) in &by_obj {
        let slices: Vec<(u32, &[QRecord])> = ids
            .iter()
            .zip(per_client)
            .map(|(&id, recs)| (id, recs.as_slice()))
            .collect();
        let h = history::assemble(&slices, *obj);
        if !history::satisfies::<Queue>(mode, &h, deploy::bounds()) {
            violations.push(*obj);
        }
    }
    (by_obj.len(), violations)
}

/// Runs traced cycles for `seconds`, then reports the per-layer split.
pub fn run(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let mut rounds: Vec<Round> = Vec::new();
    let mut relation_ms: Vec<f64> = Vec::new();
    crate::cycles(seed, seconds, 0.0, |relations, mode, round_seed| {
        relation_ms.push(relations.took.as_secs_f64() * 1e3);
        rounds.push(round(shape, relations, mode, round_seed));
    });

    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let mut committed_by_mode = [0usize; 3];
    for (i, mode) in MODES.into_iter().enumerate() {
        let of: Vec<&Round> = rounds.iter().filter(|r| r.mode == mode).collect();
        let sfx = deploy::suffix(mode);
        let issued: usize = of.iter().map(|r| r.issued).sum();
        let committed: usize = of.iter().map(|r| r.committed).sum();
        let unfinished: usize = of.iter().map(|r| r.unfinished).sum();
        let audited: usize = of.iter().map(|r| r.audited).sum();
        let bad: Vec<ObjId> = of.iter().flat_map(|r| r.violations.clone()).collect();
        let audit_s: f64 = of.iter().map(|r| r.audit_s).sum();
        committed_by_mode[i] = committed;
        out.report.push(format!(
            "  {sfx:<8} rounds {:>3}  issued {issued}  committed {committed}  unfinished \
             {unfinished}  traced txn/s {:.1}  audited {audited} object histories in {audit_s:.2} s, \
             {} violations",
            of.len(),
            median(&of.iter().map(|r| r.txn_per_s).collect::<Vec<_>>()),
            bad.len(),
        ));
        out.tally(shape, mode, issued, committed, unfinished);
        if !bad.is_empty() {
            out.fail(format!(
                "{sfx}: {} object histories are not {sfx}-atomic (first: object {})",
                bad.len(),
                bad[0].0
            ));
        }
    }
    out.check_ordering(shape, committed_by_mode[1], committed_by_mode[2]);

    let committed: usize = committed_by_mode.iter().sum();
    let per_txn = |v: f64| v / committed.max(1) as f64;
    let mut log_lens = Vec::new();
    let mut statuses_gcd = 0u64;
    let mut begins = 0usize;
    let mut txn_ms = Vec::new();
    for r in rounds {
        log_lens.push(r.log_len_max as f64);
        statuses_gcd += r.statuses_gcd;
        begins += r.begins;
        txn_ms.extend(r.txn_ms);
        spans.merge(r.spans);
    }
    let us = |l: Layer| spans.ns[l as usize] as f64 / 1e3;
    let per_call = |l: Layer| us(l) / spans.calls[l as usize].max(1) as f64;
    let calls = |l: Layer| spans.calls[l as usize] as usize;
    let repo_us = us(Layer::RepoResolve)
        + us(Layer::RepoReadLog)
        + us(Layer::RepoWriteLog)
        + us(Layer::RepoOther);
    let waits: Vec<f64> = spans
        .frame_wait_ns
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    let busy_ns: u64 = spans.ns.iter().sum();
    let non_idle_ns = spans.wall_ns.saturating_sub(spans.idle_ns);
    let share = |v: f64| 100.0 * v / (busy_ns as f64 / 1e3).max(1e-9);
    out.report.push(format!(
        "  busy split: repo {:.0}% (resolve {:.0}%), client {:.0}%, wire {:.0}%, tcp {:.0}%, \
         os {:.0}%, handoff {:.0}%",
        share(repo_us),
        share(us(Layer::RepoResolve)),
        share(us(Layer::Client)),
        share(us(Layer::Encode) + us(Layer::Decode)),
        share(us(Layer::Frame)),
        share(us(Layer::Sock)),
        share(us(Layer::Handoff)),
    ));
    let n = committed;
    let rows: [(&str, f64, &'static str, usize); 19] = [
        (
            "repo.resolve_us",
            per_call(Layer::RepoResolve),
            "us",
            calls(Layer::RepoResolve),
        ),
        (
            "repo.readlog_us",
            per_call(Layer::RepoReadLog),
            "us",
            calls(Layer::RepoReadLog),
        ),
        (
            "repo.writelog_us",
            per_call(Layer::RepoWriteLog),
            "us",
            calls(Layer::RepoWriteLog),
        ),
        ("repo.busy_us_per_txn", per_txn(repo_us), "us", n),
        (
            "repo.statuses_gcd_per_txn",
            per_txn(statuses_gcd as f64),
            "count",
            n,
        ),
        (
            "repo.log_len_max",
            median(&log_lens),
            "entries",
            log_lens.len(),
        ),
        (
            "client.busy_us_per_txn",
            per_txn(us(Layer::Client)),
            "us",
            n,
        ),
        (
            "client.attempts_per_commit",
            per_txn(begins as f64),
            "count",
            n,
        ),
        (
            "client.txn_p99_ms",
            percentile(&txn_ms, 99.0),
            "ms",
            txn_ms.len(),
        ),
        (
            "wire.decode_us_per_txn",
            per_txn(us(Layer::Decode)),
            "us",
            n,
        ),
        (
            "wire.encode_us_per_txn",
            per_txn(us(Layer::Encode)),
            "us",
            n,
        ),
        ("wire.bytes_per_txn", per_txn(spans.bytes as f64), "B", n),
        ("wire.msgs_per_txn", per_txn(spans.msgs as f64), "count", n),
        ("tcp.frame_us_per_txn", per_txn(us(Layer::Frame)), "us", n),
        ("os.sock_us_per_txn", per_txn(us(Layer::Sock)), "us", n),
        (
            "net.frame_wait_p99_us",
            percentile(&waits, 99.0),
            "us",
            waits.len(),
        ),
        (
            "host.handoff_us_per_txn",
            per_txn(us(Layer::Handoff)),
            "us",
            n,
        ),
        (
            "core.relation_ms",
            median(&relation_ms),
            "ms",
            relation_ms.len(),
        ),
        (
            "trace.covered_frac",
            busy_ns as f64 / non_idle_ns.max(1) as f64,
            "frac",
            1,
        ),
    ];
    out.metrics = rows
        .into_iter()
        .map(|(name, value, unit, samples)| Metric::new(name, value, unit, samples))
        .collect();
    out
}
