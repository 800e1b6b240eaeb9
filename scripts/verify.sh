#!/usr/bin/env bash
# Full verification gate: formatting, lints, release build, tests.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo doc (deny warnings, first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p quorumcc -p quorumcc-model -p quorumcc-adts -p quorumcc-core \
  -p quorumcc-quorum -p quorumcc-sim -p quorumcc-replication \
  -p quorumcc-net -p quorumcc-bench

echo "==> sans-I/O backend equivalence suite (DES vs channel threads)"
cargo test -q --release -p quorumcc-replication --test backends > /dev/null

echo "==> qcc trace smoke run"
trace_out="$(cargo run -q --bin qcc -- trace queue --mode hybrid --clients 2 --txns 2 --action commit)"
echo "$trace_out" | grep -q "commit action=" || {
  echo "qcc trace produced no commit events:" >&2
  echo "$trace_out" >&2
  exit 1
}
echo "$trace_out" | grep -q "op latency" || {
  echo "qcc trace produced no latency summary" >&2
  exit 1
}

echo "==> qcc compact-logs smoke run (outcomes must match full shipping)"
compact_out="$(cargo run -q --bin qcc -- simulate queue --compact-logs true)"
full_out="$(cargo run -q --bin qcc -- simulate queue --delta false)"
echo "$compact_out" | grep -q "atomicity check: OK" || {
  echo "qcc simulate --compact-logs true failed the atomicity check:" >&2
  echo "$compact_out" >&2
  exit 1
}
compact_decisions="$(echo "$compact_out" | grep '^mode ')"
full_decisions="$(echo "$full_out" | grep '^mode ')"
if [ "$compact_decisions" != "$full_decisions" ]; then
  echo "compacted and full-shipping runs decided differently:" >&2
  echo "  compact: $compact_decisions" >&2
  echo "  full:    $full_decisions" >&2
  exit 1
fi

echo "==> qcc reconfig smoke run"
reconfig_out="$(cargo run -q --bin qcc -- reconfig prom --sites 5 --lost 4 --relation hybrid --priority Read,Write)"
echo "$reconfig_out" | grep -q "replanned quorum sizes" || {
  echo "qcc reconfig produced no replanned sizes:" >&2
  echo "$reconfig_out" >&2
  exit 1
}

echo "==> exp_reconfig smoke run (asserts hybrid replans beat static)"
cargo run -q --release -p quorumcc-bench --bin exp_reconfig > /dev/null
test -f BENCH_exp_reconfig.json || {
  echo "exp_reconfig wrote no BENCH_exp_reconfig.json" >&2
  exit 1
}

echo "==> chaos smoke: 200-plan sweep must pass the safety oracle"
chaos_out="$(cargo run -q --release --bin qcc -- chaos queue --seed 7 --runs 200)"
echo "$chaos_out" | grep -q "safety oracle: OK on all 200 runs" || {
  echo "qcc chaos found a safety violation (or produced no verdict):" >&2
  echo "$chaos_out" >&2
  exit 1
}

echo "==> chaos smoke: sweep output byte-identical at --threads 1/2/4/0"
for t in 1 2 4 0; do
  cargo run -q --release --bin qcc -- chaos queue --seed 7 --runs 200 --threads "$t" \
    > "/tmp/chaos_sweep_t$t.txt"
done
for t in 2 4 0; do
  cmp -s /tmp/chaos_sweep_t1.txt "/tmp/chaos_sweep_t$t.txt" || {
    echo "chaos sweep differs between --threads 1 and --threads $t" >&2
    diff /tmp/chaos_sweep_t1.txt "/tmp/chaos_sweep_t$t.txt" >&2 || true
    exit 1
  }
done

# Golden shrunk plan from the oracle's injected-bug self-test (see
# DESIGN.md §3.12): replaying it must flag a violation with the bug
# injected, stay clean without it, and render identically at every
# thread-independent invocation.
golden_plan='seed=13553989110192001924;net=1,10,0,0.05,0;dur=stable;compact=0;ae=0;fan=n'
echo "==> chaos smoke: golden shrunk-plan replay"
replay_unsound="$(cargo run -q --release --bin qcc -- chaos queue \
  --clients 2 --txns 2 --ops 1 --unsound-weaken-read-quorum true \
  --replay "$golden_plan" || true)"
echo "$replay_unsound" | grep -q "non-atomic history" || {
  echo "golden shrunk plan no longer reproduces under the injected bug:" >&2
  echo "$replay_unsound" >&2
  exit 1
}
replay_sound="$(cargo run -q --release --bin qcc -- chaos queue \
  --clients 2 --txns 2 --ops 1 --replay "$golden_plan")"
echo "$replay_sound" | grep -q "safety oracle: OK" || {
  echo "golden plan violates safety even without the injected bug:" >&2
  echo "$replay_sound" >&2
  exit 1
}

echo "==> chaos acceptance sweep: 600 plans, zero violations"
cargo test -q --release -p quorumcc-replication --test chaos \
  chaos_sweep_600_plans_is_violation_free -- --ignored > /dev/null

echo "==> exp_chaos: BENCH_exp_chaos.json byte-identical at --threads 1/2/4/0"
cargo run -q --release -p quorumcc-bench --bin exp_chaos -- --threads 1 > /dev/null
mv BENCH_exp_chaos.json /tmp/chaos_bench_t1.json
for t in 2 4 0; do
  cargo run -q --release -p quorumcc-bench --bin exp_chaos -- --threads "$t" > /dev/null
  cmp -s /tmp/chaos_bench_t1.json BENCH_exp_chaos.json || {
    echo "BENCH_exp_chaos.json differs between --threads 1 and --threads $t" >&2
    diff /tmp/chaos_bench_t1.json BENCH_exp_chaos.json >&2 || true
    exit 1
  }
done

echo "==> chaos smoke: 200-plan sweep with sharding + batching enabled"
chaos_tp="$(cargo run -q --release --bin qcc -- chaos queue --seed 11 --runs 200 --objects 8 --shards 4 --batch 4)"
echo "$chaos_tp" | grep -q "safety oracle: OK on all 200 runs" || {
  echo "chaos sweep with shards=4 batch=4 found a safety violation (or no verdict):" >&2
  echo "$chaos_tp" >&2
  exit 1
}

echo "==> batched-vs-unbatched decision gate (structural A/B, all three modes)"
cargo test -q --release -p quorumcc-replication --test batching \
  batched_and_unbatched_decide_identically_at_low_contention > /dev/null

echo "==> exp_scale: sweep gates + BENCH_exp_scale.json byte-identical at --threads 1/2/4/0"
cargo run -q --release -p quorumcc-bench --bin exp_scale -- --threads 1 > /dev/null
test -f BENCH_exp_scale.json || {
  echo "exp_scale wrote no BENCH_exp_scale.json" >&2
  exit 1
}
mv BENCH_exp_scale.json /tmp/scale_bench_t1.json
for t in 2 4 0; do
  cargo run -q --release -p quorumcc-bench --bin exp_scale -- --threads "$t" > /dev/null
  cmp -s /tmp/scale_bench_t1.json BENCH_exp_scale.json || {
    echo "BENCH_exp_scale.json differs between --threads 1 and --threads $t" >&2
    diff /tmp/scale_bench_t1.json BENCH_exp_scale.json >&2 || true
    exit 1
  }
done

echo "==> exp_load quick smoke: real-socket fleet, bounded shape"
# Wall-clock SLOs — BENCH_exp_load.json is the one bench artifact that
# is *not* byte-stable (DESIGN.md §3.14), so the gate is the binary's
# internal asserts (zero unfinished, >=90% commits) plus JSON presence.
cargo run -q --release -p quorumcc-bench --bin exp_load -- --quick > /dev/null
test -f BENCH_exp_load.json || {
  echo "exp_load wrote no BENCH_exp_load.json" >&2
  exit 1
}

echo "==> explore smoke: sound 2x1 shape is exhaustively clean"
explore_out="$(cargo run -q --release --bin qcc -- explore queue --sites 2 --clients 1 --depth 12)"
echo "$explore_out" | grep -q "safety oracle: OK on every schedule to depth 12" || {
  echo "qcc explore did not complete the sound 2x1 shape:" >&2
  echo "$explore_out" >&2
  exit 1
}

echo "==> explore smoke: both planted bugs found with minimal replayable witnesses"
# skip-final-ack: a lost write five events deep at two sites.
skipack_out="$(cargo run -q --release --bin qcc -- explore queue \
  --sites 2 --clients 2 --depth 40 --unsound-skip-final-ack true || true)"
echo "$skipack_out" | grep -q "safety VIOLATION at depth 5: lost write" || {
  echo "explore missed the skip-final-ack planted bug (or depth changed):" >&2
  echo "$skipack_out" >&2
  exit 1
}
# weaken-read-quorum: unobservable at 2 sites (1+2 > 2); minimal shape is
# 3 sites + narrow fan-out (DESIGN.md §3.15).
weaken_out="$(cargo run -q --release --bin qcc -- explore queue \
  --sites 3 --clients 2 --fan n --depth 40 --unsound-weaken-read-quorum true || true)"
echo "$weaken_out" | grep -q "safety VIOLATION at depth 18" || {
  echo "explore missed the weaken-read-quorum planted bug (or depth changed):" >&2
  echo "$weaken_out" >&2
  exit 1
}
# The printed witness spec replays to the same verdict.
witness_spec="$(echo "$skipack_out" | sed -n "s/^witness: //p")"
replay_out="$(cargo run -q --release --bin qcc -- explore queue --replay "$witness_spec" || true)"
echo "$replay_out" | grep -q "safety VIOLATION: lost write" || {
  echo "explore witness spec did not replay to the same violation:" >&2
  echo "$replay_out" >&2
  exit 1
}

echo "==> exp_explore quick: POR gate + BENCH_exp_explore.json byte-identical at --threads 1/2/4/0"
# Quick mode sweeps a smaller cell matrix than the committed artifact, so
# run from a scratch dir instead of clobbering the repo-root json.
explore_scratch="$(mktemp -d)"
(cd "$explore_scratch" && "$OLDPWD/target/release/exp_explore" --quick --threads 1 > /dev/null)
mv "$explore_scratch/BENCH_exp_explore.json" /tmp/explore_bench_t1.json
for t in 2 4 0; do
  (cd "$explore_scratch" && "$OLDPWD/target/release/exp_explore" --quick --threads "$t" > /dev/null)
  cmp -s /tmp/explore_bench_t1.json "$explore_scratch/BENCH_exp_explore.json" || {
    echo "BENCH_exp_explore.json differs between --threads 1 and --threads $t" >&2
    diff /tmp/explore_bench_t1.json "$explore_scratch/BENCH_exp_explore.json" >&2 || true
    exit 1
  }
done
rm -rf "$explore_scratch"

echo "==> qcc load smoke: tiny fleet through the CLI (default deployment runs status GC)"
# Several txns per client: a client advertises its durable frontier on
# its next ReadLog, so a one-txn fleet never licenses a sweep.
load_out="$(cargo run -q --release --bin qcc -- load --clients 40 --cells 2 --objects 16 \
  --ramp-ms 100 --txns 8)"
echo "$load_out" | grep -q '"unfinished": 0' || {
  echo "qcc load left clients unfinished:" >&2
  echo "$load_out" >&2
  exit 1
}
if echo "$load_out" | grep -q '"statuses_gcd": 0'; then
  echo "qcc load with default flags collected no statuses:" >&2
  echo "$load_out" >&2
  exit 1
fi

echo "==> qcc load smoke: event-loop host with a tight status-GC batch"
evl_out="$(cargo run -q --release --bin qcc -- load --clients 40 --cells 2 --objects 16 \
  --ramp-ms 100 --gc 8)"
echo "$evl_out" | grep -q '"unfinished": 0' || {
  echo "qcc load --gc 8 left clients unfinished:" >&2
  echo "$evl_out" >&2
  exit 1
}

echo "==> qcc load smoke: lossy fault shims + frontier repair + scripted crash"
lossy_out="$(cargo run -q --release --bin qcc -- load --clients 24 --cells 1 --objects 256 \
  --txns 40 --gc 4 --narrow false --deq 0.0 \
  --fault-profile lossy --retransmit-ms 250 --crash 2:200:200)"
echo "$lossy_out" | grep -q '"unfinished": 0' || {
  echo "qcc load under lossy shims + crash left clients unfinished:" >&2
  echo "$lossy_out" >&2
  exit 1
}
echo "$lossy_out" | grep -q '"recoveries": 1' || {
  echo "qcc load scripted crash never recovered:" >&2
  echo "$lossy_out" >&2
  exit 1
}

echo "==> recovery property suite (frontier idempotence + backend identity under retransmit)"
cargo test -q --release -p quorumcc-replication --test recovery > /dev/null

echo "==> gossip A/B decision-identity suite (scoped+GC vs full shipping, 3 ADTs x 3 modes + GC chaos sweep)"
cargo test -q --release -p quorumcc-replication --test gossip > /dev/null

echo "==> exp_gossip: flat-curve gates + BENCH_exp_gossip.json byte-identical at --threads 1/2/4/0"
cargo run -q --release -p quorumcc-bench --bin exp_gossip -- --quick > /dev/null
cargo run -q --release -p quorumcc-bench --bin exp_gossip -- --threads 1 > /dev/null
mv BENCH_exp_gossip.json /tmp/gossip_bench_t1.json
for t in 2 4 0; do
  cargo run -q --release -p quorumcc-bench --bin exp_gossip -- --threads "$t" > /dev/null
  cmp -s /tmp/gossip_bench_t1.json BENCH_exp_gossip.json || {
    echo "BENCH_exp_gossip.json differs between --threads 1 and --threads $t" >&2
    diff /tmp/gossip_bench_t1.json BENCH_exp_gossip.json >&2 || true
    exit 1
  }
done

echo "==> exp_recovery quick: recovery gates + BENCH_exp_recovery.json byte-identical at --threads 1/2/4/0"
# DES telemetry is deterministic; the channels/eventloop phases record
# only asserted booleans, so the whole artifact is byte-stable. Quick
# mode uses a smaller event-loop shape than the committed artifact, so
# run from a scratch dir instead of clobbering the repo-root json.
recovery_scratch="$(mktemp -d)"
(cd "$recovery_scratch" && "$OLDPWD/target/release/exp_recovery" --quick --threads 1 > /dev/null)
mv "$recovery_scratch/BENCH_exp_recovery.json" /tmp/recovery_bench_t1.json
for t in 2 4 0; do
  (cd "$recovery_scratch" && "$OLDPWD/target/release/exp_recovery" --quick --threads "$t" > /dev/null)
  cmp -s /tmp/recovery_bench_t1.json "$recovery_scratch/BENCH_exp_recovery.json" || {
    echo "BENCH_exp_recovery.json differs between --threads 1 and --threads $t" >&2
    diff /tmp/recovery_bench_t1.json "$recovery_scratch/BENCH_exp_recovery.json" >&2 || true
    exit 1
  }
done
rm -rf "$recovery_scratch"

echo "==> batching bench smoke run"
batch_bench_out="$(cargo bench -q -p quorumcc-bench --bench batching 2>&1)"
echo "$batch_bench_out" | grep -q "delta_serialize/1024/zero_copy" || {
  echo "batching bench produced no zero_copy timing:" >&2
  echo "$batch_bench_out" >&2
  exit 1
}

echo "==> log_shipping bench smoke run"
bench_out="$(cargo bench -q -p quorumcc-bench --bench log_shipping 2>&1)"
echo "$bench_out" | grep -q "log_shipping/1024/delta_reply" || {
  echo "log_shipping bench produced no delta_reply timing:" >&2
  echo "$bench_out" >&2
  exit 1
}

echo "verify.sh: all gates passed"
