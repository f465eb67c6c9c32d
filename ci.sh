#!/usr/bin/env bash
# The full CI gate: .github/workflows/ci.yml runs this script, and it
# runs the same way locally. The workspace is hermetic — every
# dependency is an in-tree path crate — so all steps run offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --locked"
# `--locked` refuses a Cargo.lock that no longer matches the manifests,
# so a dependency edit cannot leave the committed lockfile behind.
cargo build --workspace --release --offline --locked

echo "==> examples: every examples/ binary runs and exits 0"
# `cargo test` compiles the examples but never runs them; running each
# once (about a second in total) catches a broken engine call that only
# shows at run time.
cargo build -p nomc-experiments --examples --release --offline
for src in examples/*.rs; do
  example="$(basename "$src" .rs)"
  echo "    $example"
  "./target/release/examples/$example" > /dev/null
done

echo "==> cargo test"
cargo test --workspace -q --offline

echo "==> fault injection: golden trace, runner isolation, recovery acceptance"
cargo test -p nomc-integration-tests --test trace_golden_faults -q --offline
cargo test -p nomc-experiments --lib -q --offline runner::
cargo test -p nomc-experiments --lib -q --offline kill_reboot

echo "==> snapshot/restore: mid-run checkpoint byte identity"
# The DESIGN.md §14 contract: run-to-event-K, snapshot, restore,
# run-to-end is byte-identical to an uninterrupted run — serial,
# sharded, and with every fault type in flight — and corrupt snapshots
# are typed errors, never panics. Checkpoints do not stop the engine:
# the text a checkpointing observer receives at event K must be byte
# for byte the snapshot of the same run paused at K. That test is run
# by name, and the step fails unless it ran, so the path sweeps and
# `nomc serve` take cannot drop out of the step by a rename.
cargo test -p nomc-integration-tests --test snapshot_resume -q --offline
sink_run="$(cargo test -p nomc-integration-tests --test snapshot_resume -q --offline \
  checkpoint_sink_matches_paused_snapshots -- --exact)"
echo "$sink_run"
grep -q "test result: ok. 1 passed" <<<"$sink_run" \
  || { echo "checkpoint_sink_matches_paused_snapshots did not run"; exit 1; }
cargo test -p nomc-experiments --lib -q --offline checkpoint::

echo "==> sweep crash safety: kill-and-resume must be byte-identical"
# Thread-count matrix: sweep determinism must hold whether the test
# binary serializes the suites or races them — any shared mutable state
# between parameter points shows up as a flake under 2/8. The
# sweep_crash suite SIGKILLs real sweep processes both between members
# (journal replay) and mid-member (restart from the last engine
# checkpoint) and requires the resumed report byte-identical.
for threads in 1 2 8; do
  echo "    --test-threads $threads"
  cargo test -p nomc-experiments --lib -q --offline sweep:: -- --test-threads "$threads"
done
cargo test -p nomc-cli --test sweep_crash -q --offline

echo "==> worker pool: slot-ordered results at every thread count"
# The one worker pool runs sweep members, batch-runner scenarios and
# shard ranks; its unit tests run under the same 1/2/8 harness-thread
# matrix the sweep suites used to cover it with.
for threads in 1 2 8; do
  echo "    --test-threads $threads"
  cargo test -p nomc-sim --lib -q --offline pool:: -- --test-threads "$threads"
done

echo "==> results server: thread handoff at every harness thread count"
# Connection handler threads park and take over later connections, so
# the handoff queue is shared state between the accept loop and every
# handler; the serve suites run under the same 1/2/8 harness-thread
# matrix as the sweep and pool suites to shake out ordering bugs.
for threads in 1 2 8; do
  echo "    --test-threads $threads"
  cargo test -p nomc-serve -q --offline -- --test-threads "$threads"
done

echo "==> sharded-engine determinism: golden traces byte-identical at every shard count"
# The clean and faulted two-network fixtures pin the serial engine's
# event history; the sharded engine must reproduce them byte for byte on
# 1/2/4/8 worker threads (one interaction component, so this also pins
# the single-component delegation path). The four-network partitioned
# faulted fixture rides in trace_golden_faults and pins the
# componentized path — per-shard seeds, cross-shard fault routing — at
# the same shard counts.
for shards in 1 2 4 8; do
  echo "    --shards $shards"
  NOMC_SHARDS="$shards" cargo test -p nomc-integration-tests \
    --test trace_golden --test trace_golden_faults -q --offline
done
cargo test -p nomc-integration-tests --test shard_determinism -q --offline

echo "==> all_experiments --quick is byte-identical to the committed report"
# Every registry entry runs through the binary path, and its stdout must
# match tests/fixtures/all_experiments_quick.txt byte for byte: a change
# that moves any reported figure, row or label fails here until the
# fixture is regenerated and the change justified. The last report is
# the paper's claims table; the binary exits 1 if any claim fails, and
# pipefail makes that fail the step too. Recovery at every jammer duty
# is asserted by tests/tests/determinism.rs in the cargo test step above.
cargo run -p nomc-experiments --release --offline --quiet --bin all_experiments -- --quick \
  | diff -u tests/fixtures/all_experiments_quick.txt - \
  || { echo "all_experiments --quick drifted from tests/fixtures/all_experiments_quick.txt"; exit 1; }

echo "==> EXPERIMENTS.md is a fresh full-fidelity run (about a minute)"
# Everything from the "# Generated experiment results" heading to the end
# of EXPERIMENTS.md is the --markdown output of a full all_experiments
# run, the claims table included; a change that moves any full-fidelity
# figure fails here until the section is regenerated.
EXPERIMENTS_MD="$(mktemp)"
cargo run -p nomc-experiments --release --offline --quiet --bin all_experiments -- \
  --markdown "$EXPERIMENTS_MD" > /dev/null
sed -n '/^# Generated experiment results$/,$p' EXPERIMENTS.md \
  | diff -u - "$EXPERIMENTS_MD" \
  || { echo "EXPERIMENTS.md drifted from a full all_experiments run"; rm -f "$EXPERIMENTS_MD"; exit 1; }
rm -f "$EXPERIMENTS_MD"

echo "==> serve smoke (submit, wait, resubmits hit cache, SIGTERM drains, reboot answers alike)"
# Live end-to-end pass over the results server: a job submitted again,
# once and then four times at once, must come back byte-identical
# without re-simulating, and SIGTERM must drain to exit code 0. A
# server rebooted on the same state directory must then answer the done
# job's status and report with the same bytes, read back from disk. The
# SIGKILL chaos path rides in the serve_chaos test suite (cargo test
# above).
# One raw HTTP/1.1 GET through bash's /dev/tcp: prints the whole
# response (status line, headers, body).
serve_get() {
  exec 3<>"/dev/tcp/${1%:*}/${1##*:}"
  printf 'GET %s HTTP/1.1\r\nConnection: close\r\n\r\n' "$2" >&3
  cat <&3
  exec 3<&-
}
# Boots `nomc serve` on $SERVE_STATE and waits for its published address.
serve_boot() {
  rm -f "$SERVE_STATE/serve.addr"
  ./target/release/nomc serve --state-dir "$SERVE_STATE" --addr 127.0.0.1:0 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$SERVE_STATE/serve.addr" ] && break
    sleep 0.1
  done
  SERVE_ADDR="$(cat "$SERVE_STATE/serve.addr")"
}
SERVE_STATE="$(mktemp -d)"
SERVE_SCENARIO="$SERVE_STATE/scenario.json"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVE_STATE"' EXIT
./target/release/nomc generate line "$SERVE_SCENARIO"
serve_boot
./target/release/nomc submit "$SERVE_SCENARIO" --addr "$SERVE_ADDR" \
  --seeds 1,2 --wait --report "$SERVE_STATE/report_a.json"
./target/release/nomc submit "$SERVE_SCENARIO" --addr "$SERVE_ADDR" \
  --seeds 1,2 --wait --report "$SERVE_STATE/report_b.json" \
  | grep -q '"cached":true' || { echo "resubmit missed the cache"; exit 1; }
cmp "$SERVE_STATE/report_a.json" "$SERVE_STATE/report_b.json" \
  || { echo "cached report not byte-identical"; exit 1; }
# Concurrent resubmits of the cached job: `nomc submit` sends the
# canonical spec bytes, so these take the known-spec admission path on
# handler threads that park and are reused between connections.
SUBMIT_PIDS=()
for i in 1 2 3 4; do
  ./target/release/nomc submit "$SERVE_SCENARIO" --addr "$SERVE_ADDR" \
    --seeds 1,2 --wait --report "$SERVE_STATE/report_c$i.json" \
    > "$SERVE_STATE/submit_c$i.out" &
  SUBMIT_PIDS+=("$!")
done
for pid in "${SUBMIT_PIDS[@]}"; do
  wait "$pid" || { echo "concurrent resubmit failed"; exit 1; }
done
for i in 1 2 3 4; do
  grep -q '"cached":true' "$SERVE_STATE/submit_c$i.out" \
    || { echo "concurrent resubmit $i missed the cache"; exit 1; }
  cmp "$SERVE_STATE/report_a.json" "$SERVE_STATE/report_c$i.json" \
    || { echo "concurrent resubmit $i: report not byte-identical"; exit 1; }
done
SERVE_JOB="$(sed -n 's/.*"job":"\([0-9a-f]\{16\}\)".*/\1/p' "$SERVE_STATE/submit_c1.out")"
serve_get "$SERVE_ADDR" "/jobs/$SERVE_JOB" > "$SERVE_STATE/status_before.http"
serve_get "$SERVE_ADDR" "/jobs/$SERVE_JOB/report" > "$SERVE_STATE/report_before.http"
grep -q '"state":"done","report":{' "$SERVE_STATE/status_before.http" \
  || { echo "done status lost its report"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "SIGTERM drain exited nonzero"; exit 1; }
# Reboot on the same state: the done job stays on disk until asked for,
# and its answers are the pre-restart bytes (report asked first, so the
# report route reads it back; then the status route).
serve_boot
serve_get "$SERVE_ADDR" "/jobs/$SERVE_JOB/report" > "$SERVE_STATE/report_after.http"
serve_get "$SERVE_ADDR" "/jobs/$SERVE_JOB" > "$SERVE_STATE/status_after.http"
cmp "$SERVE_STATE/status_before.http" "$SERVE_STATE/status_after.http" \
  || { echo "rebooted server: status not byte-identical"; exit 1; }
cmp "$SERVE_STATE/report_before.http" "$SERVE_STATE/report_after.http" \
  || { echo "rebooted server: report not byte-identical"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "SIGTERM drain after reboot exited nonzero"; exit 1; }
trap - EXIT
rm -rf "$SERVE_STATE"

echo "==> end-to-end benchmark self-checks (perfbench)"
# The benchmark's own tests: a minimal serve_mixed run and the check
# that a served report is byte-identical to the in-process sweep. A
# server change that breaks byte identity fails here, not only in the
# benchmark pipeline.
# perfbench is its own workspace with its own committed Cargo.lock, and
# `--locked` does not catch a lock that building it prunes (an edge
# dropped from a crate it depends on): compare the lock before and after.
PERFBENCH_LOCK="$(mktemp)"
cp perfbench/Cargo.lock "$PERFBENCH_LOCK"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cmp "$PERFBENCH_LOCK" perfbench/Cargo.lock \
  || { echo "building perfbench rewrote perfbench/Cargo.lock"; rm -f "$PERFBENCH_LOCK"; exit 1; }
rm -f "$PERFBENCH_LOCK"

echo "==> bench smoke (single iteration, no report written)"
cargo bench -p nomc-bench --bench sim --offline -- --test
cargo bench -p nomc-bench --bench lint --offline -- --test
cargo bench -p nomc-bench --bench serve --offline -- --test
cargo bench -p nomc-bench --bench micro --offline -- --test
cargo bench -p nomc-bench --bench paper_figures --offline -- --test

echo "==> bench guard (every committed BENCH_*.json within its committed budget)"
# The committed BENCH_<group>.json files are the perf-trajectory record;
# bench_guard checks every bench in every group against the per-bench
# mean_ns budgets in crates/bench/bench_budgets.json, and fails on
# unbudgeted or silently-dropped benches too.
cargo run -p nomc-bench --release --offline --quiet --bin bench_guard

echo "==> cargo doc (no deps, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> nomc-lint: all nine rules, zero findings"
cargo run -p nomc-lint --release --offline --quiet -- .

echo "==> nomc-lint --format json vs committed allow inventory"
# The committed crates/lint/allows_golden.json is the honest record of
# every live escape hatch (target: none). A new allow directive — even
# one that suppresses a real finding — changes the JSON report and
# fails this diff until it is committed and justified in DESIGN.md §8.
cargo run -p nomc-lint --release --offline --quiet -- --format json . \
  | diff -u crates/lint/allows_golden.json - \
  || { echo "lint inventory drifted from crates/lint/allows_golden.json"; exit 1; }

echo "CI OK"
