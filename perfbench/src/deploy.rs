//! The three workloads and the one deployment every run uses.

use std::time::{Duration, Instant};

use quorumcc_adts::Queue;
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_net::{LoadBackend, LoadConfig, NetFaultProfile};
use quorumcc_replication::Mode;

/// The modes every workload runs, in the paper's order.
pub const MODES: [Mode; 3] = [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl];

/// Metric-name suffix of a mode.
pub fn suffix(mode: Mode) -> &'static str {
    match mode {
        Mode::StaticTs => "static",
        Mode::Hybrid => "hybrid",
        Mode::Dynamic2pl => "dynamic",
    }
}

/// One round of a workload: a fresh cell driven to completion.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub clients: usize,
    pub txns_per_client: usize,
    pub ops_per_txn: usize,
    pub objects: u16,
    pub deq_fraction: f64,
    /// Clients start evenly over this window; zero starts them all at
    /// once (a closed loop of `clients` callers).
    pub ramp: Duration,
}

impl Shape {
    pub fn by_name(name: &str) -> Option<Shape> {
        let shape = match name {
            // Closed loop, Enq-only, one op per transaction over many
            // objects: every `Resolve` walks every object log, so
            // repository bookkeeping grows with the objects touched.
            "wide" => Shape {
                name: "wide",
                clients: 16,
                txns_per_client: 120,
                ops_per_txn: 1,
                objects: 4096,
                deq_fraction: 0.0,
                ramp: Duration::ZERO,
            },
            // Closed loop, 30% Deq over 32 hot objects: the abort/retry
            // path and log shipping of long uncompacted logs. Eight
            // clients, not more: clients think and back off for fixed
            // wall-clock times, so when the machine runs slower more of
            // them overlap and more transactions are refused. With 32
            // clients, halving the machine's speed cut dynamic-2pl's
            // committed fraction by 13%; with 8, by 3%.
            "contended" => Shape {
                name: "contended",
                clients: 8,
                txns_per_client: 300,
                ops_per_txn: 2,
                objects: 32,
                deq_fraction: 0.3,
                ramp: Duration::ZERO,
            },
            // Open loop: one transaction per client, clients arriving on
            // a fixed schedule well below capacity, so the host's idle
            // wake-ups and the transport set the latency.
            "paced" => Shape {
                name: "paced",
                clients: 600,
                txns_per_client: 1,
                ops_per_txn: 1,
                objects: 64,
                deq_fraction: 0.0,
                ramp: Duration::from_secs(3),
            },
            _ => return None,
        };
        Some(shape)
    }

    /// Whether clients arrive on a schedule rather than as a closed loop.
    pub fn open_loop(&self) -> bool {
        self.txns_per_client == 1 && !self.ramp.is_zero()
    }

    /// Scheduled arrivals per second (open loop only).
    pub fn offered_rate(&self) -> f64 {
        self.clients as f64 / self.ramp.as_secs_f64()
    }

    pub fn txns(&self) -> usize {
        self.clients * self.txns_per_client
    }
}

/// The bounds `qcc` derives relations under.
pub fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

/// Every mode's dependency relation for Queue, derived the way `qcc
/// load` derives them: static and hybrid use the minimal static
/// relation, dynamic-2pl the union of the static and dynamic ones.
pub struct Relations {
    static_rel: DependencyRelation,
    dynamic_rel: DependencyRelation,
    /// How long the derivation took.
    pub took: Duration,
}

impl Relations {
    pub fn derive() -> Relations {
        let t = Instant::now();
        let static_rel = minimal_static_relation::<Queue>(bounds()).relation;
        let dynamic_rel = static_rel.union(&minimal_dynamic_relation::<Queue>(bounds()).relation);
        Relations {
            static_rel,
            dynamic_rel,
            took: t.elapsed(),
        }
    }

    pub fn of(&self, mode: Mode) -> DependencyRelation {
        match mode {
            Mode::StaticTs | Mode::Hybrid => self.static_rel.clone(),
            Mode::Dynamic2pl => self.dynamic_rel.clone(),
        }
    }
}

/// The deployment, set here once for every run. `LoadConfig::default()`
/// still selects the thread-per-repository host with status GC off, so
/// nothing is left to it. The choices are the measured-best socket path
/// (EXPERIMENTS L2 and G1): the event-loop host, scoped status shipping,
/// status GC with batch 64, and narrow (quorum-sized) fan-out. One cell,
/// one worker thread and three repositories fit a two-core machine.
pub fn load_config(
    shape: &Shape,
    mode: Mode,
    relation: DependencyRelation,
    seed: u64,
) -> LoadConfig {
    LoadConfig {
        mode,
        relation,
        clusters: 1,
        n_repos: 3,
        clients: shape.clients,
        txns_per_client: shape.txns_per_client,
        ops_per_txn: shape.ops_per_txn,
        objects: shape.objects,
        workers: 1,
        seed,
        // `qcc load`'s default phase timeout (ticks are microseconds).
        op_timeout_ticks: 10_000_000,
        narrow: true,
        deq_fraction: shape.deq_fraction,
        ramp: shape.ramp,
        deadline: Duration::from_secs(60),
        scoped_statuses: true,
        status_gc: Some(64),
        backend: LoadBackend::EventLoop,
        fault_profile: NetFaultProfile::none(),
        poll_min_us: 50,
        poll_max_us: 3_200,
        idle_poll_ms: 25,
        resolve_retransmit: None,
        crash: None,
    }
}

/// splitmix64, for per-round seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
