//! **Experiment L1** — the real-concurrency load harness: the same
//! sans-I/O protocol drivers that power the simulator, hosted over
//! loopback TCP, serving a hundred thousand concurrent lightweight
//! clients per mode.
//!
//! The client fleet is partitioned across independent cells (each a
//! 3-repository cluster with its own listeners and worker pool); all
//! cells run concurrently and latency percentiles are merged across the
//! whole fleet. Cells originally existed to outrun the quadratic
//! status-tombstone gossip (DESIGN §3.14); with scoped status shipping
//! and status GC (DESIGN §3.16) per-cell work is linear in the cell's
//! action count, and this harness runs with both on — the cell split
//! remains as the unit of *hosting*: each cell's entire repository side
//! is one event-loop thread multiplexing nonblocking sockets.
//!
//! Every mode runs with its minimal relation (`Protocol::minimal`:
//! ≥S for static and hybrid, ≥S ∪ ≥D for dynamic-2pl), as `qcc load`
//! does.
//!
//! Unlike every other `BENCH_*.json`, this file records wall-clock
//! throughput and latency SLOs of a real-socket deployment, so it is
//! **not** byte-stable across runs and is excluded from the
//! determinism gates. The workload is Enq-only (`Enq`s commute, so
//! every transaction can commit and the numbers measure the transport
//! and quorum machinery, not conflict-retry storms — those live in
//! `exp_chaos` where the DES can replay them deterministically).
//!
//! `--quick` runs a bounded smoke shape (hundreds of clients, seconds of
//! wall clock) for CI; the default shape is the full 100k-client fleet.

use quorumcc_adts::Queue;
use quorumcc_bench::{experiment_bounds, section};
use quorumcc_net::{run_load, LoadConfig, LoadReport};
use quorumcc_replication::protocol::{Mode, Protocol};
use std::fmt::Write as _;
use std::time::Duration;

const BASE_SEED: u64 = 7_171;

struct Shape {
    clients: usize,
    clusters: usize,
    objects: u16,
    ramp: Duration,
    op_timeout_ticks: u64,
    deadline: Duration,
}

fn shape(quick: bool) -> Shape {
    if quick {
        Shape {
            clients: 600,
            clusters: 4,
            objects: 32,
            ramp: Duration::from_secs(1),
            op_timeout_ticks: 10_000_000,
            deadline: Duration::from_secs(60),
        }
    } else {
        Shape {
            clients: 100_000,
            clusters: 160,
            objects: 32,
            ramp: Duration::from_secs(30),
            op_timeout_ticks: 30_000_000,
            deadline: Duration::from_secs(600),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let sh = shape(quick);

    section(&format!(
        "exp_load: {} clients x 1 txn across {} cells ({})",
        sh.clients,
        sh.clusters,
        if quick { "quick" } else { "full" }
    ));

    let mut reports: Vec<LoadReport> = Vec::new();
    for (i, mode) in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl]
        .into_iter()
        .enumerate()
    {
        let report = run_load(&LoadConfig {
            mode,
            relation: Protocol::minimal::<Queue>(mode, experiment_bounds()).rel,
            clusters: sh.clusters,
            n_repos: 3,
            clients: sh.clients,
            txns_per_client: 1,
            ops_per_txn: 1,
            objects: sh.objects,
            workers: 1,
            seed: BASE_SEED + i as u64,
            op_timeout_ticks: sh.op_timeout_ticks,
            deq_fraction: 0.0,
            ramp: sh.ramp,
            deadline: sh.deadline,
            ..LoadConfig::default()
        });
        println!(
            "  {:<12} committed {}/{} ({} unfinished)  {:>8.0} txn/s  p50 {:.1}ms  p99 {:.1}ms",
            report.mode,
            report.committed,
            sh.clients,
            report.unfinished,
            report.txns_per_sec,
            report.p50_us as f64 / 1000.0,
            report.p99_us as f64 / 1000.0,
        );
        // Gate: the harness must actually serve the fleet — every client
        // finishes inside the deadline and the overwhelming majority
        // commit (Enq-only leaves no conflicts; a stray unavailability
        // abort under overload is tolerated, mass aborts are not).
        assert_eq!(report.unfinished, 0, "{mode:?}: clients abandoned");
        assert!(
            report.committed * 10 >= sh.clients * 9,
            "{mode:?}: only {}/{} committed",
            report.committed,
            sh.clients
        );
        assert!(report.p50_us > 0 && report.p99_us >= report.p50_us);
        reports.push(report);
    }

    let mut json = String::from("{\n  \"experiment\": \"exp_load\",\n");
    let _ = writeln!(
        json,
        "  \"shape\": {{\"clients\": {}, \"clusters\": {}, \"repos_per_cell\": 3, \"objects_per_cell\": {}}},",
        sh.clients, sh.clusters, sh.objects
    );
    json.push_str("  \"modes\": [\n");
    for (j, r) in reports.iter().enumerate() {
        let comma = if j + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", r.to_json());
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_exp_load.json", &json)?;
    println!("\ntelemetry written to BENCH_exp_load.json");
    Ok(())
}
