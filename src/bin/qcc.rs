//! `qcc` — the quorumcc command line.
//!
//! ```text
//! qcc relations <type>                 dependency relations + comparison
//! qcc certificates                     re-check the paper's theorems
//! qcc quorums <type> [opts]            optimal threshold assignment
//! qcc frontier <type> [opts]           Pareto frontier of quorum sizes
//! qcc simulate <type> [opts]           run a replicated cluster
//! qcc trace <type> [opts]              capture + filter a run trace
//! qcc reconfig <type> [opts]           replan quorums after a site loss
//! qcc chaos <type> [opts]              fuzz fault plans + safety oracle
//! qcc explore <type> [opts]            exhaust all interleavings (model check)
//! qcc types                            list available data types
//! ```
//!
//! Types: queue, prom, flagset, doublebuffer, register, counter, account,
//! gset, directory, appendlog.

use quorumcc::core::{battery, certificates};
use quorumcc::model::{Classified, Enumerable};
use quorumcc::prelude::*;
use quorumcc::quorum::{availability, pareto, planner, threshold, SiteSet};
use quorumcc::replication::chaos::{self, ChaosConfig, ChaosPlan};
use quorumcc::replication::explore::{self as rexplore, ExploreSetup, ExploreSpec, Knob};
use quorumcc::replication::workload::{generate, WorkloadSpec};
use quorumcc::sim::explore::ExploreConfig;
use rand::Rng;
use std::collections::HashMap;
use std::process::ExitCode;

const TYPES: &[&str] = &[
    "queue",
    "prom",
    "flagset",
    "doublebuffer",
    "register",
    "counter",
    "account",
    "gset",
    "directory",
    "appendlog",
];

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

/// Parsed `--key value` options.
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument: {a}"));
            };
            let Some(v) = it.next() else {
                return Err(format!("--{key} needs a value"));
            };
            map.insert(key.to_string(), v.clone());
        }
        Ok(Opts(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.0
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Rejects options the subcommand does not understand. A typo'd or
    /// stale flag (say `--batch` on `qcc quorums`) is an error, not a
    /// silent ignore — silently dropping a tuning knob would report
    /// numbers for a configuration the user never asked for.
    fn expect_keys(&self, allowed: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .0
            .keys()
            .map(String::as_str)
            .filter(|k| !allowed.contains(k))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let s = if unknown.len() == 1 { "" } else { "s" };
        Err(format!(
            "unknown option{s} for this command: --{}",
            unknown.join(" --")
        ))
    }
}

/// Runs `f` with the sequential type named by `name`.
macro_rules! with_type {
    ($name:expr, $f:ident, $($arg:expr),*) => {
        match $name {
            "queue" => $f::<quorumcc_adts::Queue>($($arg),*),
            "prom" => $f::<quorumcc_adts::Prom>($($arg),*),
            "flagset" => $f::<quorumcc_adts::FlagSet>($($arg),*),
            "doublebuffer" => $f::<quorumcc_adts::DoubleBuffer>($($arg),*),
            "register" => $f::<quorumcc_adts::Register>($($arg),*),
            "counter" => $f::<quorumcc_adts::Counter>($($arg),*),
            "account" => $f::<quorumcc_adts::Account>($($arg),*),
            "gset" => $f::<quorumcc_adts::GSet>($($arg),*),
            "directory" => $f::<quorumcc_adts::Directory>($($arg),*),
            "appendlog" => $f::<quorumcc_adts::AppendLog>($($arg),*),
            other => Err(format!("unknown type: {other} (try `qcc types`)")),
        }
    };
}

/// The minimal protocol a `static|hybrid|dynamic` mode name needs for
/// `S` — the one relation every subcommand derives (`--relation` and
/// `--mode` take the same names).
fn protocol_for<S: Enumerable + Classified>(mode: &str) -> Result<Protocol, String> {
    Ok(Protocol::minimal::<S>(Mode::parse(mode)?, bounds()))
}

fn cmd_relations<S: Enumerable + Classified>(_opts: &Opts) -> Result<(), String> {
    let report = battery::report::<S>(bounds());
    print!("{report}");
    Ok(())
}

fn cmd_quorums<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let n: u32 = opts.get("sites", 5u32)?;
    let which = opts.str("relation", "static");
    let rel = protocol_for::<S>(&which)?.rel;
    let ops = S::op_classes();
    let evs = S::event_classes();
    let priority_raw = opts.str("priority", "");
    let priority: Vec<&'static str> = ops
        .iter()
        .filter(|op| {
            priority_raw
                .split(',')
                .any(|p| p.trim().eq_ignore_ascii_case(op))
        })
        .copied()
        .collect();
    let ta = threshold::optimize(&rel, n, &ops, &evs, &priority).map_err(|e| e.to_string())?;
    println!("relation ({which}):");
    for line in rel.table().lines() {
        println!("  {line}");
    }
    println!("\noptimal thresholds over {n} sites:");
    print!("{ta}");
    println!("\neffective quorum sizes and availability (p = 0.9):");
    for op in &ops {
        let size = ta.op_size_worst(op, &evs);
        let avail =
            availability::op_availability_worst(&ta, op, &evs, 0.9).map_err(|e| e.to_string())?;
        println!("  {op:>12}: {size} of {n}   availability {avail:.6}");
    }
    Ok(())
}

fn cmd_frontier<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let n: u32 = opts.get("sites", 5u32)?;
    let which = opts.str("relation", "static");
    let rel = protocol_for::<S>(&which)?.rel;
    let ops = S::op_classes();
    let evs = S::event_classes();
    let f = pareto::frontier(&rel, n, &ops, &evs);
    println!(
        "Pareto frontier of {:?} quorum sizes over {n} sites ({which}):",
        ops
    );
    for p in f {
        println!("  {p:?}");
    }
    Ok(())
}

/// `qcc reconfig <type>`: the planner's view of a site loss. Plans the
/// availability-optimal threshold assignment before the fault (over all
/// sites) and after it (over the survivors), and reports the change —
/// the command-line face of `ReconfigPolicy::Reactive`.
fn cmd_reconfig<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let n: u32 = opts.get("sites", 5u32)?;
    if n == 0 || n > 16 {
        return Err(format!("--sites must be in 1..=16, got {n}"));
    }
    let which = opts.str("relation", "hybrid");
    let rel = protocol_for::<S>(&which)?.rel;
    let ops = S::op_classes();
    let evs = S::event_classes();

    // --lost 4 or --lost 2,4: sites removed from the membership.
    let lost_raw = opts.str("lost", "");
    let mut lost: Vec<u8> = Vec::new();
    for part in lost_raw.split(',').filter(|p| !p.trim().is_empty()) {
        let id: u8 = part
            .trim()
            .parse()
            .map_err(|_| format!("bad value for --lost: {part}"))?;
        if u32::from(id) >= n {
            return Err(format!("--lost names site {id}, but --sites is {n}"));
        }
        lost.push(id);
    }
    if lost.is_empty() {
        lost.push((n - 1) as u8);
    }

    // --up 0.9 (homogeneous) applied to every surviving site.
    let p: f64 = opts.get("up", 0.9f64)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--up must be a probability, got {p}"));
    }
    let up: Vec<f64> = (0..n)
        .map(|s| if lost.contains(&(s as u8)) { 0.0 } else { p })
        .collect();

    let priority_raw = opts.str("priority", "");
    let priority: Vec<&'static str> = ops
        .iter()
        .filter(|op| {
            priority_raw
                .split(',')
                .any(|pr| pr.trim().eq_ignore_ascii_case(op))
        })
        .copied()
        .collect();

    let before = planner::plan(
        &rel,
        SiteSet::all(n as usize),
        &vec![p; n as usize],
        &ops,
        &evs,
        &priority,
    )
    .map_err(|e| e.to_string())?;
    let after = planner::replan(
        &rel,
        SiteSet::all(n as usize),
        SiteSet::from_ids(lost.iter().copied()),
        &up,
        &ops,
        &evs,
        &priority,
    )
    .map_err(|e| e.to_string())?;

    println!("relation ({which}), {n} sites, p(up) = {p}");
    println!("\nbefore the fault:");
    for line in before.to_string().lines() {
        println!("  {line}");
    }
    println!(
        "\nafter losing {}:",
        SiteSet::from_ids(lost.iter().copied())
    );
    for line in after.to_string().lines() {
        println!("  {line}");
    }
    println!("\nreplanned quorum sizes (worst case over response classes):");
    for op in &ops {
        let b = before.thresholds.op_size_worst(op, &evs);
        let a = after.thresholds.op_size_worst(op, &evs);
        let ba = before.availability_of(op).unwrap_or(0.0);
        let aa = after.availability_of(op).unwrap_or(0.0);
        println!(
            "  {op:>12}: {b} of {n} -> {a} of {}   availability {ba:.6} -> {aa:.6}",
            after.members.len()
        );
    }
    Ok(())
}

/// Builds the `RunBuilder` shared by `simulate` and `trace` from the
/// common command-line options.
fn builder_from_opts<S: Enumerable + Classified>(opts: &Opts) -> Result<RunBuilder<S>, String> {
    let Protocol { mode, rel } = protocol_for::<S>(&opts.str("mode", "hybrid"))?;
    let spec = WorkloadSpec {
        clients: opts.get("clients", 3usize)?,
        txns_per_client: opts.get("txns", 4usize)?,
        ops_per_txn: opts.get("ops", 2usize)?,
        objects: opts.get("objects", 1u16)?,
        seed: opts.get("seed", 0u64)?,
    };
    let alphabet = S::invocations();
    let workload = generate(spec, |rng| {
        alphabet[rng.gen_range(0..alphabet.len())].clone()
    });
    // --compact-logs true folds resolved prefixes into checkpoints;
    // --delta false ships full logs in every LogReply (the ablation).
    let mut tuning = TuningConfig::default();
    if opts.get("compact-logs", false)? {
        tuning = tuning.compact_logs();
    }
    if !opts.get("delta", true)? {
        tuning = tuning.full_log_shipping();
    }
    // The throughput engine: --shards N partitions the object space into
    // independently-quorumed shards, --batch B coalesces up to B payloads
    // per destination into one envelope (and sets the pipeline depth),
    // --batch-window W holds under-filled envelopes up to W ticks.
    let shards: u16 = opts.get("shards", 1u16)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let batch: u32 = opts.get("batch", 1u32)?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    tuning = tuning
        .shards(shards)
        .batch(batch)
        .batch_window(opts.get("batch-window", 0)?);
    Ok(RunBuilder::<S>::new(opts.get("sites", 3u32)?)
        .protocol(
            ProtocolConfig::new(Protocol::new(mode, rel)).txn_retries(opts.get("retries", 3u32)?),
        )
        .tuning(tuning)
        .seed(spec.seed)
        .workload(workload))
}

fn cmd_simulate<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let report = builder_from_opts::<S>(opts)?
        .run()
        .map_err(|e| e.to_string())?;
    let t = report.stats();
    println!(
        "mode {}: committed {} / conflict aborts {} / unavailable {} / ops {}",
        report.protocol().mode,
        t.committed,
        t.aborted_conflict,
        t.aborted_unavailable,
        t.ops_completed
    );
    let s = report.sim_stats();
    println!(
        "messages sent {} delivered {} dropped {}",
        s.sent, s.delivered, s.dropped
    );
    let tel = report.telemetry();
    println!(
        "log entries shipped {} ({:.2}/op)",
        tel.log_entries_shipped,
        tel.entries_shipped_per_op()
    );
    match report.check_atomicity(bounds()) {
        Ok(()) => println!("atomicity check: OK"),
        Err(o) => return Err(format!("atomicity VIOLATION on {o}")),
    }
    Ok(())
}

fn cmd_trace<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let report = builder_from_opts::<S>(opts)?
        .trace(TraceConfig::unbounded())
        .run()
        .map_err(|e| e.to_string())?;
    let trace = report.trace().expect("tracing was enabled");

    // Filters: --obj N, --site N, --action kind, --from T, --until T.
    let f_obj: Option<u64> = match opts.0.get("obj") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --obj: {v}"))?),
    };
    let f_site: Option<u32> = match opts.0.get("site") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("bad value for --site: {v}"))?,
        ),
    };
    let f_action = opts.0.get("action").cloned();
    let f_from: SimTime = opts.get("from", 0)?;
    let f_until: SimTime = opts.get("until", SimTime::MAX)?;
    let limit: usize = opts.get("limit", usize::MAX)?;

    let selected: Vec<&TraceEvent> = trace
        .events()
        .iter()
        .filter(|e| e.t >= f_from && e.t <= f_until)
        .filter(|e| f_site.is_none_or(|s| e.site == s))
        .filter(|e| f_obj.is_none_or(|o| e.action.obj() == Some(o)))
        .filter(|e| {
            f_action
                .as_deref()
                .is_none_or(|kinds| kinds.split(',').any(|k| k.trim() == e.action.kind()))
        })
        .collect();

    if trace.overwritten() > 0 {
        println!(
            "# ring buffer overwrote {} earlier events",
            trace.overwritten()
        );
    }
    for e in selected.iter().take(limit) {
        println!("{e}");
    }
    if selected.len() > limit {
        println!("# ... {} more (raise --limit)", selected.len() - limit);
    }
    println!(
        "# {} of {} events matched",
        selected.len(),
        trace.events().len()
    );

    if let Some(path) = opts.0.get("save") {
        std::fs::write(path, trace.render()).map_err(|e| format!("--save {path}: {e}"))?;
        println!("# full trace saved to {path}");
    }

    // Derived per-op latency and round-trip summaries, from telemetry.
    let t = report.telemetry();
    println!("\nlatency summaries (logical ticks):");
    for (name, h) in [
        ("op latency", &t.op_latency),
        ("initial-quorum rtt", &t.initial_rt),
        ("final-quorum rtt", &t.final_rt),
    ] {
        println!("  {name:>18}: {h}");
    }
    println!(
        "counters: committed {} aborted(conflict) {} aborted(unavail) {} \
         phase-retries {} txn-reruns {} msgs/op {:.2}",
        t.committed,
        t.aborted_conflict,
        t.aborted_unavailable,
        t.phase_retries,
        t.txn_reruns,
        t.messages_per_op()
    );
    Ok(())
}

fn protocol_from_opts<S: Enumerable + Classified>(opts: &Opts) -> Result<Protocol, String> {
    protocol_for::<S>(&opts.str("mode", "hybrid"))
}

/// `qcc chaos <type>`: the deterministic fuzz driver. Samples `--runs`
/// fault plans (network profile × crash/partition schedule × durability ×
/// tuning) from `--seed`, runs each over the worker pool, audits every
/// run with the safety oracle, and prints a per-profile table. On a
/// violation it greedily shrinks the first failing plan to a locally
/// minimal reproducer and prints the exact replay command. `--replay
/// SPEC` re-runs one encoded plan instead.
fn cmd_chaos<S: Enumerable + Classified>(ty: &str, opts: &Opts) -> Result<(), String> {
    let protocol = protocol_from_opts::<S>(opts)?;
    let shards: u16 = opts.get("shards", 1u16)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let batch: u32 = opts.get("batch", 1u32)?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    let cfg = ChaosConfig {
        n_sites: opts.get("sites", 3u32)?,
        clients: opts.get("clients", 3usize)?,
        txns_per_client: opts.get("txns", 3usize)?,
        ops_per_txn: opts.get("ops", 2usize)?,
        objects: opts.get("objects", 1u16)?,
        shards,
        batch,
        // Deliberately undocumented: inject a planted bug so the
        // oracle's own detection path can be exercised.
        weaken_read_quorum: opts.get("unsound-weaken-read-quorum", false)?,
        skip_final_ack: opts.get("unsound-skip-final-ack", false)?,
        ..ChaosConfig::default()
    };

    // --replay SPEC: run exactly one encoded plan and show its verdict.
    if let Some(spec) = opts.0.get("replay") {
        let plan = ChaosPlan::parse(spec)?;
        let (report, safety) =
            chaos::run_plan::<S>(&protocol, &cfg, &plan).map_err(|e| e.to_string())?;
        let t = report.stats();
        println!("replaying {}", plan.encode());
        println!(
            "committed {} / conflict aborts {} / unavailable {} / recoveries {}",
            t.committed,
            t.aborted_conflict,
            t.aborted_unavailable,
            report.telemetry().recoveries
        );
        println!("{safety}");
        if safety.is_ok() {
            return Ok(());
        }
        return Err("replayed plan violates safety".to_string());
    }

    let seed: u64 = opts.get("seed", 0u64)?;
    let runs: u64 = opts.get("runs", 200u64)?;
    let threads: usize = opts.get("threads", 0usize)?;
    let outcomes = chaos::sweep::<S>(&protocol, &cfg, seed, runs, threads);

    println!(
        "chaos sweep: {} plans from seed {seed} ({} mode, {} sites)",
        outcomes.len(),
        protocol.mode,
        cfg.n_sites
    );
    println!(
        "{:>8} {:>5} {:>9} {:>7} {:>8} {:>7} {:>7} {:>7} {:>6} {:>9} {:>10}",
        "profile",
        "runs",
        "committed",
        "aborts",
        "abort%",
        "drops",
        "dups",
        "reord",
        "recov",
        "fallbacks",
        "violations"
    );
    for p in chaos::aggregate(&outcomes) {
        println!(
            "{:>8} {:>5} {:>9} {:>7} {:>8.4} {:>7} {:>7} {:>7} {:>6} {:>9} {:>10}",
            p.profile,
            p.runs,
            p.committed,
            p.aborted_conflict + p.aborted_unavailable,
            p.abort_rate(),
            p.msgs_dropped,
            p.msgs_duplicated,
            p.msgs_reordered,
            p.recoveries,
            p.full_log_fallbacks,
            p.violations
        );
    }

    let Some(failing) = outcomes.iter().find(|o| !o.violations.is_empty()) else {
        println!("safety oracle: OK on all {} runs", outcomes.len());
        return Ok(());
    };
    println!("\nsafety VIOLATION in plan {}", failing.plan.encode());
    for v in &failing.violations {
        println!("  - {v}");
    }
    println!("shrinking to a minimal reproducing plan ...");
    let minimal = chaos::shrink_failure::<S>(&protocol, &cfg, failing.plan.clone());
    println!("minimal plan: {}", minimal.encode());
    let mut unsound = String::new();
    if cfg.weaken_read_quorum {
        unsound.push_str(" --unsound-weaken-read-quorum true");
    }
    if cfg.skip_final_ack {
        unsound.push_str(" --unsound-skip-final-ack true");
    }
    println!(
        "replay with: qcc chaos {ty} --mode {} --sites {} --clients {} --txns {} --ops {}{unsound} --replay '{}'",
        opts.str("mode", "hybrid"),
        cfg.n_sites,
        cfg.clients,
        cfg.txns_per_client,
        cfg.ops_per_txn,
        minimal.encode()
    );
    Err(format!(
        "{} of {} plans violated safety",
        outcomes.iter().filter(|o| !o.violations.is_empty()).count(),
        outcomes.len()
    ))
}

/// `qcc explore <type>`: the exhaustive interleaving model checker.
/// Enumerates every enabled-event schedule (message deliveries, and —
/// with `--drops`/`--crashes` budgets — message drops and crash points)
/// of a small seeded shape, depth-first with iterative deepening and
/// sleep-set partial-order reduction, auditing every branch with the
/// safety oracle. A violation is reported as a minimal-depth witness
/// spec (same `key=value;` codec as the chaos plans) that `--replay
/// SPEC` re-executes step for step.
fn cmd_explore<S: Enumerable + Classified + Clone + std::fmt::Debug>(
    ty: &str,
    opts: &Opts,
) -> Result<(), String> {
    // --replay SPEC is self-contained: the spec carries the whole shape,
    // so any other shape option alongside it would be silently ignored —
    // reject the combination instead.
    if let Some(raw) = opts.0.get("replay") {
        if opts.0.len() > 1 {
            return Err("--replay takes no other options (the spec carries the shape)".to_string());
        }
        let spec = ExploreSpec::parse(raw)?;
        let protocol = protocol_for::<S>(&spec.mode)?;
        let r = rexplore::replay_setup::<S>(&protocol, &spec.setup, &spec.sched)
            .map_err(|e| e.to_string())?;
        println!("replaying {spec}");
        for step in &r.steps {
            println!("  {step}");
        }
        return match r.verdict {
            None => {
                println!("safety oracle: OK on the replayed schedule");
                Ok(())
            }
            Some(v) => {
                println!("safety VIOLATION: {v}");
                Err("replayed schedule violates safety".to_string())
            }
        };
    }

    let mode_s = opts.str("mode", "hybrid");
    let protocol = protocol_for::<S>(&mode_s)?;
    let knob = match (
        opts.get("unsound-weaken-read-quorum", false)?,
        opts.get("unsound-skip-final-ack", false)?,
    ) {
        (false, false) => Knob::None,
        (true, false) => Knob::WeakenReadQuorum,
        (false, true) => Knob::SkipFinalAck,
        (true, true) => return Err("at most one planted bug per exploration".to_string()),
    };
    let setup = ExploreSetup {
        sites: opts.get("sites", 2u32)?,
        clients: opts.get("clients", 1usize)?,
        txns_per_client: opts.get("txns", 1usize)?,
        ops_per_txn: opts.get("ops", 1usize)?,
        objects: opts.get("objects", 1u16)?,
        seed: opts.get("seed", 0u64)?,
        narrow: match opts.str("fan", "b").as_str() {
            "n" => true,
            "b" => false,
            other => return Err(format!("bad value for --fan: {other} (want n|b)")),
        },
        knob,
        ..ExploreSetup::default()
    };
    let depth: usize = opts.get("depth", 20usize)?;
    let budget: u64 = opts.get("budget", 1_000_000u64)?;
    let por = match opts.str("por", "on").as_str() {
        "on" => true,
        "off" => false,
        other => return Err(format!("bad value for --por: {other} (want on|off)")),
    };
    let cfg = ExploreConfig {
        max_depth: depth,
        max_states: budget,
        max_transitions: budget.saturating_mul(4),
        por,
        drop_budget: opts.get("drops", 0u32)?,
        crash_budget: opts.get("crashes", 0u32)?,
        ..ExploreConfig::default()
    };
    let out = rexplore::explore_setup::<S>(&protocol, &setup, cfg).map_err(|e| e.to_string())?;
    let st = out.stats;
    println!(
        "explored {} states / {} transitions / {} complete schedules (por {})",
        st.states,
        st.transitions,
        st.schedules,
        if por { "on" } else { "off" }
    );
    println!(
        "max depth {} over {} deepening iterations{}",
        st.max_depth_reached,
        st.iterations,
        if st.budget_exhausted {
            " (budget exhausted)"
        } else {
            ""
        }
    );
    match out.witness {
        None => {
            if st.complete {
                println!("safety oracle: OK on every schedule to depth {depth}");
            } else {
                println!("safety oracle: no violation found before the budget");
            }
            Ok(())
        }
        Some(w) => {
            println!(
                "\nsafety VIOLATION at depth {}: {}",
                w.schedule.len(),
                w.verdict
            );
            let spec = ExploreSpec {
                mode: mode_s,
                setup,
                depth,
                por,
                sched: w.schedule,
            };
            println!("witness: {spec}");
            println!("replay with: qcc explore {ty} --replay '{spec}'");
            Err("exploration found a violating schedule".to_string())
        }
    }
}

/// Drives the real-socket load harness: the same sans-I/O protocol
/// drivers as `simulate`, but hosted over loopback TCP with the client
/// fleet split across independent cells. Queue-only — the harness
/// generates `Enq`/`Deq` workloads (`--deq 0` is the conflict-free
/// Enq-only shape the `exp_load` bench uses).
fn cmd_load(opts: &Opts) -> Result<(), String> {
    let Protocol {
        mode,
        rel: relation,
    } = protocol_for::<quorumcc_adts::Queue>(&opts.str("mode", "hybrid"))?;
    let gc_batch = opts.get("gc", 64u64)?;
    let fault_profile = quorumcc::net::NetFaultProfile::parse(&opts.str("fault-profile", "none"))?;
    let crash = match opts.str("crash", "").as_str() {
        "" => None,
        spec => Some(quorumcc::net::CrashSpec::parse(spec)?),
    };
    let retransmit_ms = opts.get("retransmit-ms", 0u64)?;
    let cfg = quorumcc::net::LoadConfig {
        mode,
        relation,
        clusters: opts.get("cells", 1usize)?.max(1),
        n_repos: opts.get("sites", 3u32)?,
        clients: opts.get("clients", 300usize)?,
        txns_per_client: opts.get("txns", 1usize)?,
        ops_per_txn: opts.get("ops", 1usize)?,
        objects: opts.get("objects", 64u16)?,
        workers: opts.get("workers", 1usize)?,
        seed: opts.get("seed", 1u64)?,
        // Ticks are microseconds in the load harness.
        op_timeout_ticks: opts.get("timeout-ms", 10_000u64)?.saturating_mul(1_000),
        narrow: opts.get("narrow", true)?,
        deq_fraction: opts.get("deq", 0.0f64)?,
        ramp: std::time::Duration::from_millis(opts.get("ramp-ms", 1_000u64)?),
        deadline: std::time::Duration::from_secs(opts.get("deadline", 120u64)?),
        status_gc: (gc_batch > 0).then_some(gc_batch),
        fault_profile,
        poll_min_us: opts.get("poll-min-us", 50u64)?,
        poll_max_us: opts.get("poll-max-us", 3_200u64)?,
        idle_poll_ms: opts.get("idle-poll-ms", 25u64)?,
        // Ticks are microseconds, like --timeout-ms.
        resolve_retransmit: (retransmit_ms > 0).then(|| retransmit_ms.saturating_mul(1_000)),
        crash,
        ..quorumcc::net::LoadConfig::default()
    };
    let report = quorumcc::net::run_load(&cfg);
    println!(
        "{} clients x {} txns over {} cells ({} sites each, {} mode)",
        cfg.clients, cfg.txns_per_client, cfg.clusters, cfg.n_repos, report.mode
    );
    println!(
        "  committed {}  aborted(attempts) {}  unfinished {}",
        report.committed, report.aborted, report.unfinished
    );
    println!(
        "  {:.0} txn/s   p50 {:.1} ms   p99 {:.1} ms",
        report.txns_per_sec,
        report.p50_us as f64 / 1000.0,
        report.p99_us as f64 / 1000.0
    );
    if report.reconnects > 0 || report.resolve_ack_retransmits > 0 || report.recoveries > 0 {
        println!(
            "  reconnects {}  retransmit_frames {}  resolve_ack_retransmits {}  \
             frontier_stalls {}  recoveries {}",
            report.reconnects,
            report.retransmit_frames,
            report.resolve_ack_retransmits,
            report.frontier_stalls,
            report.recoveries
        );
    }
    println!("{}", report.to_json());
    if report.unfinished > 0 {
        return Err(format!(
            "{} clients did not finish inside --deadline",
            report.unfinished
        ));
    }
    Ok(())
}

/// The options each subcommand accepts — the allowlist behind
/// [`Opts::expect_keys`]. `simulate` and `trace` share the run-shaping
/// options from `builder_from_opts`; `trace` adds the event filters.
fn allowed_opts(cmd: &str) -> &'static [&'static str] {
    const RUN: &[&str] = &[
        "mode",
        "sites",
        "clients",
        "txns",
        "ops",
        "objects",
        "seed",
        "retries",
        "compact-logs",
        "delta",
        "shards",
        "batch",
        "batch-window",
    ];
    const TRACE: &[&str] = &[
        "mode",
        "sites",
        "clients",
        "txns",
        "ops",
        "objects",
        "seed",
        "retries",
        "compact-logs",
        "delta",
        "shards",
        "batch",
        "batch-window",
        "obj",
        "site",
        "action",
        "from",
        "until",
        "limit",
        "save",
    ];
    const CHAOS: &[&str] = &[
        "mode",
        "sites",
        "clients",
        "txns",
        "ops",
        "objects",
        "seed",
        "runs",
        "threads",
        "replay",
        "shards",
        "batch",
        "unsound-weaken-read-quorum",
        "unsound-skip-final-ack",
    ];
    const EXPLORE: &[&str] = &[
        "mode",
        "sites",
        "clients",
        "txns",
        "ops",
        "objects",
        "seed",
        "depth",
        "budget",
        "por",
        "fan",
        "drops",
        "crashes",
        "replay",
        "unsound-weaken-read-quorum",
        "unsound-skip-final-ack",
    ];
    const LOAD: &[&str] = &[
        "mode",
        "cells",
        "sites",
        "clients",
        "txns",
        "ops",
        "objects",
        "workers",
        "seed",
        "timeout-ms",
        "narrow",
        "deq",
        "ramp-ms",
        "deadline",
        "gc",
        "fault-profile",
        "crash",
        "retransmit-ms",
        "poll-min-us",
        "poll-max-us",
        "idle-poll-ms",
    ];
    match cmd {
        "relations" => &[],
        "load" => LOAD,
        "quorums" => &["sites", "relation", "priority"],
        "frontier" => &["sites", "relation"],
        "reconfig" => &["sites", "relation", "lost", "up", "priority"],
        "trace" => TRACE,
        "chaos" => CHAOS,
        "explore" => EXPLORE,
        _ => RUN,
    }
}

fn usage() -> String {
    "usage: qcc <relations|certificates|quorums|frontier|simulate|trace|reconfig|chaos|explore|load|types> [type] [--key value ...]\n\
     try: qcc relations queue | qcc quorums prom --sites 5 --relation static --priority Read\n\
     \x20    qcc simulate counter --mode hybrid --clients 4 | qcc frontier prom\n\
     \x20    qcc simulate queue --compact-logs true | qcc simulate queue --delta false\n\
     \x20    qcc simulate queue --shards 4 --batch 8 --objects 16 --clients 8\n\
     \x20    qcc trace queue --mode dynamic --action conflict,abort --site 3 --limit 20\n\
     \x20    qcc reconfig prom --sites 5 --lost 4 --relation hybrid --priority Read,Write\n\
     \x20    qcc chaos queue --seed 7 --runs 200 | qcc chaos queue --replay 's=7;...'\n\
     \x20    qcc explore queue --sites 2 --clients 2 --depth 14 | qcc explore queue --replay 'mode=...'\n\
     \x20    qcc load --mode static --clients 2000 --cells 8 | qcc load --mode dynamic --deq 0.3 --gc 8\n\
     trace filters: --obj N --site N --action k1,k2 --from T --until T --limit N --save FILE\n\
     load (real TCP sockets, queue workload): --cells N --sites N --clients N --txns N --ops N\n\
     \x20    --objects N --workers N --seed N --timeout-ms N --narrow BOOL --deq FRAC --ramp-ms N --deadline SECS\n\
     \x20    --gc BATCH (status GC sweep batch, default 64, 0 = off)\n\
     \x20    --fault-profile none|lossy|stormy[:seed] (socket fault injection) --crash REPO:AT_MS:DOWN_MS\n\
     \x20    --retransmit-ms N (ResolveAck frontier repair, 0 = off) --poll-min-us N --poll-max-us N --idle-poll-ms N"
        .to_string()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "types" => {
            for t in TYPES {
                println!("{t}");
            }
            Ok(())
        }
        "certificates" => {
            for c in certificates::all() {
                print!("{c}");
            }
            Ok(())
        }
        // The load harness is queue-only (its workload generator speaks
        // `QueueInv`), so it takes no type argument.
        "load" => {
            let opts = Opts::parse(&args[1..])?;
            opts.expect_keys(allowed_opts("load"))?;
            cmd_load(&opts)
        }
        "relations" | "quorums" | "frontier" | "simulate" | "trace" | "reconfig" | "chaos"
        | "explore" => {
            let Some(ty) = args.get(1) else {
                return Err(format!("{cmd} needs a type (try `qcc types`)"));
            };
            let opts = Opts::parse(&args[2..])?;
            opts.expect_keys(allowed_opts(cmd))?;
            match cmd.as_str() {
                "relations" => with_type!(ty.as_str(), cmd_relations, &opts),
                "quorums" => with_type!(ty.as_str(), cmd_quorums, &opts),
                "frontier" => with_type!(ty.as_str(), cmd_frontier, &opts),
                "trace" => with_type!(ty.as_str(), cmd_trace, &opts),
                "reconfig" => with_type!(ty.as_str(), cmd_reconfig, &opts),
                "chaos" => with_type!(ty.as_str(), cmd_chaos, ty, &opts),
                "explore" => with_type!(ty.as_str(), cmd_explore, ty, &opts),
                _ => with_type!(ty.as_str(), cmd_simulate, &opts),
            }
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
