//! Integration tests for the `qcc` command line.

use std::process::Command;

fn qcc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qcc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn types_lists_the_battery() {
    let (ok, stdout, _) = qcc(&["types"]);
    assert!(ok);
    for t in ["queue", "prom", "flagset", "doublebuffer", "register"] {
        assert!(stdout.contains(t), "{stdout}");
    }
}

#[test]
fn relations_prints_both_tables() {
    let (ok, stdout, _) = qcc(&["relations", "queue"]);
    assert!(ok);
    assert!(stdout.contains("Theorem 6"));
    assert!(stdout.contains("Theorem 10"));
    assert!(stdout.contains("incomparable"));
}

#[test]
fn certificates_all_verified() {
    let (ok, stdout, _) = qcc(&["certificates"]);
    assert!(ok);
    assert!(stdout.contains("VERIFIED"));
    assert!(!stdout.contains("FAILED"));
    assert!(stdout.contains("Theorem 4"));
    assert!(stdout.contains("Theorem 5"));
    assert!(stdout.contains("Theorem 12"));
}

#[test]
fn quorums_reports_the_prom_table() {
    let (ok, stdout, _) = qcc(&[
        "quorums",
        "prom",
        "--sites",
        "5",
        "--relation",
        "hybrid",
        "--priority",
        "Read,Write",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Read"), "{stdout}");
    assert!(stdout.contains("availability"));
}

#[test]
fn simulate_checks_atomicity() {
    let (ok, stdout, _) = qcc(&[
        "simulate",
        "register",
        "--mode",
        "hybrid",
        "--clients",
        "2",
        "--txns",
        "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("atomicity check: OK"), "{stdout}");
}

#[test]
fn trace_prints_filtered_events_and_latencies() {
    let (ok, stdout, _) = qcc(&[
        "trace",
        "queue",
        "--mode",
        "hybrid",
        "--clients",
        "2",
        "--txns",
        "2",
    ]);
    assert!(ok, "{stdout}");
    for kind in ["txn-begin", "phase-start", "send", "deliver", "commit"] {
        assert!(stdout.contains(kind), "missing {kind} in:\n{stdout}");
    }
    assert!(stdout.contains("events matched"), "{stdout}");
    assert!(stdout.contains("op latency"), "{stdout}");
    assert!(stdout.contains("msgs/op"), "{stdout}");
}

#[test]
fn trace_filters_narrow_the_selection() {
    let all = qcc(&["trace", "queue", "--clients", "2", "--txns", "2"]);
    let only_sends = qcc(&[
        "trace",
        "queue",
        "--clients",
        "2",
        "--txns",
        "2",
        "--action",
        "send",
        "--site",
        "3",
    ]);
    assert!(all.0 && only_sends.0);
    let count = |s: &str| s.lines().filter(|l| l.starts_with('[')).count();
    assert!(count(&only_sends.1) > 0);
    assert!(count(&only_sends.1) < count(&all.1));
    // Every selected line is a send from site 3.
    for l in only_sends.1.lines().filter(|l| l.starts_with('[')) {
        assert!(l.contains("site=3") && l.contains("send"), "{l}");
    }
}

#[test]
fn trace_saves_the_full_capture() {
    let dir = std::env::temp_dir().join("qcc_trace_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.txt");
    let path_s = path.to_str().unwrap();
    let (ok, stdout, _) = qcc(&[
        "trace",
        "counter",
        "--clients",
        "2",
        "--txns",
        "1",
        "--limit",
        "0",
        "--save",
        path_s,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("saved to"), "{stdout}");
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(saved.lines().count() > 10);
    assert!(saved.contains("txn-begin"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn frontier_lists_pareto_points() {
    let (ok, stdout, _) = qcc(&["frontier", "prom", "--sites", "3", "--relation", "hybrid"]);
    assert!(ok);
    assert!(stdout.contains("Pareto frontier"));
    assert!(
        stdout
            .lines()
            .filter(|l| l.trim_start().starts_with('['))
            .count()
            >= 2
    );
}

#[test]
fn reconfig_replans_over_the_survivors() {
    let (ok, stdout, _) = qcc(&[
        "reconfig",
        "prom",
        "--sites",
        "5",
        "--lost",
        "4",
        "--relation",
        "hybrid",
        "--priority",
        "Read,Write",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("before the fault"), "{stdout}");
    assert!(stdout.contains("after losing {s4}"), "{stdout}");
    assert!(stdout.contains("members = {s0,s1,s2,s3}"), "{stdout}");
    assert!(stdout.contains("replanned quorum sizes"), "{stdout}");
    // Every operation line reports both the before and after sizes.
    assert!(stdout.contains("of 5 ->"), "{stdout}");
    assert!(stdout.contains("of 4 "), "{stdout}");
}

#[test]
fn reconfig_rejects_a_lost_site_outside_the_membership() {
    let (ok, _, stderr) = qcc(&["reconfig", "prom", "--sites", "3", "--lost", "7"]);
    assert!(!ok);
    assert!(stderr.contains("names site 7"), "{stderr}");
}

#[test]
fn unknown_type_fails_cleanly() {
    let (ok, _, stderr) = qcc(&["relations", "btree"]);
    assert!(!ok);
    assert!(stderr.contains("unknown type"));
}

#[test]
fn missing_args_print_usage() {
    let (ok, _, stderr) = qcc(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

/// `load` rejects unknown flags like every other subcommand (per-flag
/// tables in `allowed_opts`), including typos of the gossip knobs and
/// the retired `--backend` / `--scoped` selectors (the event-loop host
/// with scoped status shipping is the only deployment).
#[test]
fn load_rejects_unknown_flags() {
    for (bogus, value) in [
        ("--bogus", "x"),
        ("--back-end", "x"),
        ("--gcd", "x"),
        ("--backend", "eventloop"),
        ("--scoped", "true"),
    ] {
        let (ok, _, stderr) = qcc(&["load", bogus, value, "--clients", "4"]);
        assert!(!ok, "{bogus} accepted");
        assert!(stderr.contains("unknown option"), "{bogus}: {stderr}");
    }
}

/// Every subcommand that takes a mode name parses it the same way.
#[test]
fn unknown_mode_fails_cleanly_everywhere() {
    for args in [
        &["simulate", "queue", "--mode", "2pl"][..],
        &["chaos", "queue", "--mode", "2pl"],
        &["quorums", "queue", "--relation", "2pl"],
        &["load", "--mode", "2pl"],
    ] {
        let (ok, _, stderr) = qcc(args);
        assert!(!ok, "{args:?} accepted");
        assert!(stderr.contains("unknown mode: 2pl"), "{args:?}: {stderr}");
    }
}
