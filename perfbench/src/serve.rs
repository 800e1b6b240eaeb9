//! The untraced run: rounds of `quorumcc_net::run_load` on the
//! event-loop host, from which every end-to-end metric is taken.

use quorumcc_net::run_load;
use quorumcc_replication::Mode;

use crate::deploy::{self, Relations, Shape, MODES};
use crate::stats::{heap_peak_mb, median, percentile, Metric};
use crate::Outcome;

/// Latency limit on the open-loop workload's commit p90: about three
/// times what the event-loop host shows at 200 arrivals/s, where the
/// idle-backoff sleep (up to 3.2 ms) dominates.
const PACED_P90_LIMIT_MS: f64 = 10.0;

/// What one `run_load` round yielded.
struct Round {
    mode: Mode,
    issued: usize,
    committed: usize,
    unfinished: usize,
    wall_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    /// The round's relation derivation.
    relation_s: f64,
    /// The cell's bring-up to its first commit.
    first_commit_s: f64,
    /// Open loop only: p99 of how late commits ran against the arrival
    /// schedule, when every transaction committed.
    lag_p99_ms: Option<f64>,
    /// Open loop only: throughput fell short of the offered rate.
    backlog: bool,
}

fn round(shape: &Shape, relations: &Relations, mode: Mode, seed: u64) -> Round {
    let cfg = deploy::load_config(shape, mode, relations.of(mode), seed);
    let report = run_load(&cfg);
    // Commit ticks count microseconds from the cell's start, so the first
    // one is the cell's bring-up plus its first transaction.
    let first_commit_s = report
        .commit_ticks
        .first()
        .map_or(f64::NAN, |&t| t as f64 / 1e6);
    let issued = shape.txns();
    let (lag_p99_ms, backlog) = if shape.open_loop() {
        // Client k is due k/clients of the way through the ramp, counted
        // from the worker's start; `run_load` does not report that
        // instant, so the schedule is anchored at the first commit and
        // each commit's lateness is measured against its slot. The k-th
        // commit belongs to slot k only when every transaction committed.
        let lag = (report.committed == issued).then(|| {
            let t_first = report.commit_ticks[0] as f64;
            let slot_us = shape.ramp.as_micros() as f64 / shape.clients as f64;
            let lags: Vec<f64> = report
                .commit_ticks
                .iter()
                .enumerate()
                .map(|(k, &t)| (t as f64 - t_first - slot_us * k as f64) / 1e3)
                .collect();
            percentile(&lags, 99.0)
        });
        let backlog = report.txns_per_sec < 0.9 * shape.offered_rate();
        (lag, backlog)
    } else {
        (None, false)
    };
    Round {
        mode,
        issued,
        committed: report.committed,
        unfinished: report.unfinished,
        wall_s: report.wall.as_secs_f64(),
        p50_ms: report.p50_us as f64 / 1e3,
        p90_ms: report.p90_us as f64 / 1e3,
        p99_ms: report.p99_us as f64 / 1e3,
        relation_s: relations.took.as_secs_f64(),
        first_commit_s,
        lag_p99_ms,
        backlog,
    }
}

/// Runs whole cycles (one round per mode, on the same inputs) until
/// `seconds` have passed, then summarizes and checks them. The live heap
/// is measured in one more hybrid round after the cycles, so the timed
/// rounds run without heap counting.
pub fn run(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let mut rounds: Vec<Round> = Vec::new();
    let reserve = 1.0 / MODES.len() as f64;
    let ran = crate::cycles(seed, seconds, reserve, |relations, mode, round_seed| {
        rounds.push(round(shape, relations, mode, round_seed));
    });
    let relations = Relations::derive();
    let cfg = deploy::load_config(
        shape,
        Mode::Hybrid,
        relations.of(Mode::Hybrid),
        crate::cycle_seed(seed, ran),
    );
    let (heap_report, heap_mb) = heap_peak_mb(|| run_load(&cfg));

    let mut out = Outcome::default();
    let mut report = Vec::new();
    // Set-up is deterministic CPU work, so the fastest of the rounds'
    // set-ups is the figure least disturbed by other load on the machine.
    let fastest = rounds
        .iter()
        .min_by(|a, b| {
            (a.relation_s + a.first_commit_s).total_cmp(&(b.relation_s + b.first_commit_s))
        })
        .expect("at least one round");
    out.metrics.push(Metric::new(
        "setup_s",
        fastest.relation_s + fastest.first_commit_s,
        "s",
        rounds.len(),
    ));
    report.push(format!(
        "  setup: relations {:.4} s + bring-up to first commit {:.4} s (fastest of {} rounds; \
         median relations {:.4} s)",
        fastest.relation_s,
        fastest.first_commit_s,
        rounds.len(),
        median(&rounds.iter().map(|r| r.relation_s).collect::<Vec<_>>()),
    ));
    let mut committed_by_mode = [0usize; 3];
    for (i, mode) in MODES.into_iter().enumerate() {
        let of: Vec<&Round> = rounds.iter().filter(|r| r.mode == mode).collect();
        let sfx = deploy::suffix(mode);
        let issued: usize = of.iter().map(|r| r.issued).sum();
        let committed: usize = of.iter().map(|r| r.committed).sum();
        let unfinished: usize = of.iter().map(|r| r.unfinished).sum();
        committed_by_mode[i] = committed;
        let col = |f: fn(&Round) -> f64| of.iter().map(|r| f(r)).collect::<Vec<f64>>();
        let wall: f64 = of.iter().map(|r| r.wall_s).sum();
        out.metrics.push(Metric::new(
            format!("committed_frac.{sfx}"),
            committed as f64 / issued.max(1) as f64,
            "frac",
            issued,
        ));
        // Timings are printed but left out of the result: on a shared
        // two-vCPU machine the `contended` ones moved 2.5x between runs
        // minutes apart, and the p99 on `paced` sits at the edge of the
        // host's idle-backoff sleep.
        out.shown.push(Metric::new(
            format!("txn_per_s.{sfx}"),
            committed as f64 / wall,
            "txn/s",
            committed,
        ));
        for (name, pick) in [
            ("commit_p50_ms", (|r| r.p50_ms) as fn(&Round) -> f64),
            ("commit_p90_ms", |r| r.p90_ms),
            ("commit_p99_ms", |r| r.p99_ms),
        ] {
            out.shown.push(Metric::new(
                format!("{name}.{sfx}"),
                median(&col(pick)),
                "ms",
                committed,
            ));
        }
        report.push(format!(
            "  {:<8} rounds {:>3}  issued {issued}  committed {committed}  unfinished {unfinished}  \
             failed_frac {:.4}",
            sfx,
            of.len(),
            (issued - committed) as f64 / issued.max(1) as f64,
        ));
        if shape.open_loop() {
            let lags: Vec<f64> = of.iter().filter_map(|r| r.lag_p99_ms).collect();
            let backlogged = of.iter().filter(|r| r.backlog).count();
            report.push(format!(
                "  {:<8} lag_p99_ms.{sfx} {:.3} ms (median of {} rounds)  offered {:.0} txn/s  \
                 backlogged rounds {backlogged}",
                "",
                median(&lags),
                lags.len(),
                shape.offered_rate(),
            ));
            // The schedule is far below capacity: a mode that commits
            // every transaction must keep up with it, within the latency
            // limit.
            if mode != Mode::Dynamic2pl && backlogged > 0 {
                out.fail(format!(
                    "{sfx}: {backlogged} rounds fell below 90% of the offered {:.0} txn/s",
                    shape.offered_rate()
                ));
            }
            let p90 = median(&col(|r| r.p90_ms));
            if p90 > PACED_P90_LIMIT_MS {
                out.fail(format!(
                    "{sfx}: commit p90 {p90:.3} ms is over the {PACED_P90_LIMIT_MS} ms limit"
                ));
            }
        }
        out.tally(shape, mode, issued, committed, unfinished);
    }
    out.check_ordering(shape, committed_by_mode[1], committed_by_mode[2]);
    out.tally(
        shape,
        Mode::Hybrid,
        shape.txns(),
        heap_report.committed,
        heap_report.unfinished,
    );
    out.metrics
        .push(Metric::new("heap_peak_mb", heap_mb, "MB", 1));
    out.report = report;
    out
}
