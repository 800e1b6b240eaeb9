//! Serving-path benchmark for the quorum-consensus store.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wide|contended|paced> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs on the real event-loop socket host
//! through `quorumcc_net::run_load` and the end-to-end metrics are
//! reported. With `--trace 1` the benchmark hosts the same public layer
//! functions itself, records a span around each call, and reports the
//! per-layer split; it also audits every touched object's history. Both
//! runs cycle through static, hybrid and dynamic-2pl on identical
//! inputs. The last line of standard output is one JSON object.

mod deploy;
mod serve;
mod stats;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use quorumcc_replication::Mode;

use deploy::{Shape, MODES};
use stats::Metric;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed for reading but left out of the result line.
    pub shown: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub violations: Vec<String>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.violations.push(why);
    }

    /// Counts one mode's transactions and checks them: every client
    /// finished, and on an Enq-only workload static and hybrid committed
    /// every transaction (Enq commutes with Enq under the static
    /// relation; dynamic-2pl may refuse concurrent Enqs on one object).
    ///
    /// A transaction fails when it should have committed and did not, or
    /// when its client never finished. A transaction the concurrency
    /// control refused after its retries was decided correctly; refusals
    /// are what `committed_frac.<m>` measures, not failures.
    pub fn tally(
        &mut self,
        shape: &Shape,
        mode: Mode,
        issued: usize,
        committed: usize,
        unfinished: usize,
    ) {
        let sfx = deploy::suffix(mode);
        let must_commit_all = shape.deq_fraction == 0.0 && mode != Mode::Dynamic2pl;
        self.attempted += issued as u64;
        self.failed += if must_commit_all {
            issued - committed
        } else {
            (unfinished * shape.txns_per_client).min(issued - committed)
        } as u64;
        if unfinished > 0 {
            self.fail(format!("{sfx}: {unfinished} clients did not finish"));
        }
        if must_commit_all && committed != issued {
            self.fail(format!(
                "{sfx}: {committed} of {issued} Enq-only transactions committed"
            ));
        }
        if committed == 0 {
            self.fail(format!("{sfx}: nothing committed"));
        }
    }

    /// Fig 1-1: on a contended workload hybrid atomicity, which admits
    /// more concurrency, commits more than dynamic-2pl on the same inputs.
    pub fn check_ordering(&mut self, shape: &Shape, hybrid: usize, dynamic: usize) {
        if shape.deq_fraction > 0.0 && hybrid <= dynamic {
            self.fail(format!(
                "hybrid committed {hybrid} <= dynamic-2pl {dynamic} on the same inputs"
            ));
        }
    }
}

/// Runs whole cycles until the next one, plus `reserve` of a cycle left
/// for work after them, would end after `seconds`; returns how many ran. A
/// cycle calls `round(relations, mode, seed)` once per mode, all on the
/// cycle's seed (see [`cycle_seed`]). Each round sets up from scratch: its
/// relations are derived just before it, so a run has one set-up per round
/// and set-ups are spread over the whole run. The mode order rotates each
/// cycle so no mode always runs first.
pub fn cycles(
    seed: u64,
    seconds: f64,
    reserve: f64,
    mut round: impl FnMut(&deploy::Relations, Mode, u64),
) -> u64 {
    let start = Instant::now();
    let mut cycle = 0u64;
    loop {
        for i in 0..MODES.len() {
            let mode = MODES[(i + cycle as usize) % MODES.len()];
            round(&deploy::Relations::derive(), mode, cycle_seed(seed, cycle));
        }
        cycle += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + (1.0 + reserve) * elapsed / cycle as f64 > seconds {
            return cycle;
        }
    }
}

/// The inputs' seed for cycle `cycle` of a run seeded with `seed`.
pub fn cycle_seed(seed: u64, cycle: u64) -> u64 {
    deploy::mix(seed ^ deploy::mix(cycle))
}

struct Args {
    workload: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Shape::by_name(value)
                        .ok_or(format!("unknown workload {value} (wide|contended|paced)"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let shape = args.workload;
    let out = if args.trace {
        traced::run(&shape, args.seed, args.seconds)
    } else {
        serve::run(&shape, args.seed, args.seconds)
    };
    println!(
        "workload {} ({}, {} clients x {} txns x {} ops over {} objects, deq {}){}",
        shape.name,
        if shape.open_loop() {
            "open loop"
        } else {
            "closed loop"
        },
        shape.clients,
        shape.txns_per_client,
        shape.ops_per_txn,
        shape.objects,
        shape.deq_fraction,
        if args.trace {
            ", traced host"
        } else {
            ", event-loop host"
        },
    );
    for line in &out.report {
        println!("{line}");
    }
    for m in out.shown.iter().chain(&out.metrics) {
        println!(
            "  {:<28} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for v in &out.violations {
        println!("  CHECK FAILED: {v}");
    }
    let correct = out.violations.is_empty();
    println!(
        "{}",
        stats::result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
