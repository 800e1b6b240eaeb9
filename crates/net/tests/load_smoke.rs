//! Small-scale end-to-end exercise of the real-socket load harness: a
//! loopback TCP cluster, a few hundred multiplexed client drivers, all
//! three concurrency-control modes. The full-scale version is the
//! `exp_load` bench.

use std::time::Duration;

use quorumcc_adts::Queue;
use quorumcc_model::spec::ExploreBounds;
use quorumcc_net::{run_load, LoadConfig, NetFaultProfile};
use quorumcc_replication::protocol::{Mode, Protocol};

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        ..ExploreBounds::default()
    }
}

#[test]
fn socket_cluster_serves_hundreds_of_multiplexed_clients() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let report = run_load(&LoadConfig {
            mode,
            relation: Protocol::minimal::<Queue>(mode, bounds()).rel,
            n_repos: 3,
            clients: 300,
            txns_per_client: 2,
            ops_per_txn: 2,
            objects: 512,
            workers: 4,
            seed: 11,
            deadline: Duration::from_secs(30),
            ..LoadConfig::default()
        });
        eprintln!("{mode:?}: {report:?}");
        assert_eq!(report.unfinished, 0, "{mode:?}: {report:?}");
        // `aborted` counts attempts (retries re-abort), so the exact txn
        // total is bounded, not equal.
        assert!(report.committed <= 600, "{mode:?}: {report:?}");
        assert!(report.committed > 0, "{mode:?}: nothing committed");
        assert!(report.p50_us > 0, "{mode:?}: missing latency samples");
        // The default deployment runs status GC (batch 64): 600
        // resolutions per cell must move the durable frontier.
        assert!(report.statuses_gcd > 0, "{mode:?}: default path ran no GC");
    }
}

/// The supervised-reconnect path under deterministic socket faults: a
/// lossy shim (resets, stalls, split writes, silent drops) over the
/// event-loop backend, with frontier repair on. Enq-only on private-ish
/// objects is conflict-free, so *every* transaction must still commit —
/// the faults may only cost retries and reconnects, never outcomes —
/// and the durable-GC frontier must still advance end to end.
#[test]
fn lossy_sockets_with_repair_commit_everything() {
    let report = run_load(&LoadConfig {
        mode: Mode::Hybrid,
        relation: Protocol::minimal::<Queue>(Mode::Hybrid, bounds()).rel,
        n_repos: 3,
        clients: 48,
        txns_per_client: 20,
        ops_per_txn: 1,
        objects: 256,
        workers: 2,
        seed: 31,
        narrow: false,
        deq_fraction: 0.0,
        deadline: Duration::from_secs(60),
        status_gc: Some(4),
        fault_profile: NetFaultProfile::lossy(31),
        resolve_retransmit: Some(250_000),
        ..LoadConfig::default()
    });
    eprintln!("lossy repair: {report:?}");
    assert_eq!(report.unfinished, 0, "{report:?}");
    assert_eq!(report.committed, 48 * 20, "lossy run lost transactions");
    assert!(
        report.statuses_gcd > 0,
        "durable-GC frontier never advanced"
    );
}
