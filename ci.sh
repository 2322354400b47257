#!/usr/bin/env bash
# Local CI gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --workspace =="
# --workspace matters: a bare `cargo build --release` skips workspace
# members the root package does not depend on, leaving stale binaries.
cargo build --release --workspace

echo "== binary provenance gate (embedded commit vs HEAD) =="
# Stale target/release binaries have survived rebuilds on some hosts;
# refuse to record any result with a binary built from another commit.
bin_version="$(./target/release/pels version)"
head_commit="$(git rev-parse HEAD)"
case "$bin_version" in
  *"commit $head_commit"*) echo "$bin_version" ;;
  *) echo "stale binary: '$bin_version' does not embed HEAD $head_commit" >&2
     exit 1 ;;
esac

echo "== cargo test (workspace) =="
# --workspace again: the root package's `cargo test` alone skips every
# member crate's unit tests (scalebench, CLI, netsim, ...).
tree_state() { git status --porcelain --untracked-files=all; git diff HEAD | cksum; }
tree_before="$(tree_state)"
cargo test -q --workspace

echo "== tests leave the tree as they found it =="
# Tests write only under the system temp dir: one that rewrites a tracked
# file (BENCH_*.json, results/) or leaves a new file behind fails here.
# On a clean checkout this is `git status --porcelain` staying empty.
[ "$(tree_state)" = "$tree_before" ] || {
  echo "cargo test changed the working tree:" >&2
  git status --porcelain >&2
  exit 1; }

echo "== checked-in results gate (bench binaries vs results/) =="
# The fig*, table1, chaos and ablation_* binaries are deterministic: rerun
# them into a scratch dir (~8 s) and require every file they write to be
# byte-identical to its checked-in copy under results/. A change that moves
# a result must regenerate the file in the same commit. ablation_rd_scaling
# is left out: it panics on its own R-D bound at the 9 kB row before writing
# anything (ROADMAP.md), so it has no output to compare.
results_dir="$(mktemp -d -t pels_results_XXXXXX)"
trap 'rm -rf "$results_dir"' EXIT
for bin in crates/bench/src/bin/*.rs; do
  name="$(basename "$bin" .rs)"
  case "$name" in run_all|ablation_rd_scaling) continue ;; esac
  PELS_RESULTS_DIR="$results_dir" timeout 120 "./target/release/$name" > /dev/null
done
[ -n "$(ls -A "$results_dir")" ] || { echo "bench binaries wrote no results" >&2; exit 1; }
stale=0
for f in "$results_dir"/*; do
  cmp -s "$f" "results/$(basename "$f")" || {
    echo "results/$(basename "$f") differs from what its binary writes" >&2; stale=1; }
done
[ "$stale" = 0 ] || exit 1
echo "$(ls "$results_dir" | wc -l) result files match results/"
rm -rf "$results_dir"

echo "== pels live smoke (loopback UDP, 2 s) =="
# Scratch results dir: the smoke must not clobber the checked-in 5 s
# results/live.csv artifact (results/ is tracked in git).
live_dir="$(mktemp -d -t pels_live_XXXXXX)"
trap 'rm -rf "$live_dir"' EXIT
PELS_RESULTS_DIR="$live_dir" timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  live --duration 2

echo "== pels live determinism gate (in-memory transport, batch defaults) =="
# The Transport batch methods default to scalar loops, so MemHub-backed
# runs must be byte-identical run to run — the gate that vectored I/O
# plumbing never changed the deterministic backend's behavior.
PELS_RESULTS_DIR="$live_dir" timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  live --duration 2 --mem --json > "$live_dir/live_mem_a.json"
PELS_RESULTS_DIR="$live_dir" timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  live --duration 2 --mem --json > "$live_dir/live_mem_b.json"
cmp "$live_dir/live_mem_a.json" "$live_dir/live_mem_b.json" || {
  echo "pels live --mem output is not byte-identical across runs" >&2; exit 1; }

echo "== pels chaos wire smoke (fault matrix, CI preset) =="
# Six fault cases against the live wire agents; the command exits nonzero
# if any recovery invariant (rate re-convergence, green floor, budget) fails.
timeout 300 cargo run --release -q -p pels-cli --bin pels -- chaos --wire --short

echo "== pels run telemetry smoke (JSON-lines stream) =="
tel_file="$(mktemp -t pels_telemetry_XXXXXX.jsonl)"
trap 'rm -rf "$live_dir"; rm -f "$tel_file"' EXIT
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  run --flows 2 --duration 5 --telemetry "$tel_file" > /dev/null
test -s "$tel_file" || { echo "telemetry stream is empty" >&2; exit 1; }
# `pels metrics` fails unless every line parses as a snapshot.
metrics_out="$(timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  metrics "$tel_file")"
printf '%s\n' "$metrics_out" | head -n 3

echo "== pels bench smoke (scaling harness, short preset, 2 workers) =="
bench_dir="$(mktemp -d -t pels_bench_XXXXXX)"
trap 'rm -rf "$live_dir"; rm -f "$tel_file"; rm -rf "$bench_dir"' EXIT
PELS_BENCH_DIR="$bench_dir" timeout 300 cargo run --release -q -p pels-cli --bin pels -- \
  bench --short --workers 2
# --check validates the rev-4 honesty gates: per-row effective_workers no
# larger than the host/request/shard count, and deterministic rows
# byte-identical to their serial digest.
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  bench --check "$bench_dir/BENCH_scale.json"

echo "== parallel determinism gate (serial vs sharded report digest) =="
# The report must be a pure function of (config, seed): byte-identical
# JSON whether one worker or many execute the shards (DESIGN.md §12).
serial_json="$bench_dir/run_w1.json"
parallel_json="$bench_dir/run_w2.json"
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  run --flows 8 --duration 10 --workers 1 --json > "$serial_json"
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  run --flows 8 --duration 10 --workers 2 --json > "$parallel_json"
cmp "$serial_json" "$parallel_json" || {
  echo "parallel report diverges from serial report" >&2; exit 1; }

echo "== default workers are never a slowdown (CPU vs --workers 1) =="
# The shard executor's cost model keeps light windows in the calling
# thread, so the default worker count (nproc) must not cost more CPU than
# one worker. Median user+sys seconds of 3 runs each; fail above 1.5x.
run_cpu_s() {
  local TIMEFORMAT='%U %S'
  { time ./target/release/pels run --flows 8 --duration 20 "$@" > /dev/null 2>&1; } 2>&1 \
    | awk '{ print $1 + $2 }'
}
median3() { printf '%s\n' "$@" | sort -g | sed -n 2p; }
cpu_default="$(median3 "$(run_cpu_s)" "$(run_cpu_s)" "$(run_cpu_s)")"
cpu_serial="$(median3 "$(run_cpu_s --workers 1)" "$(run_cpu_s --workers 1)" \
  "$(run_cpu_s --workers 1)")"
echo "median CPU: default ${cpu_default}s, --workers 1 ${cpu_serial}s"
awk -v d="$cpu_default" -v s="$cpu_serial" 'BEGIN { exit !(d <= 1.5 * s) }' || {
  echo "default workers cost more than 1.5x the CPU of --workers 1" >&2; exit 1; }

echo "== pels serve loopback smoke (256 flows, 2 s loadgen) =="
# A real serve+loadgen pair over loopback UDP: every flow registers,
# streams paced data, and says BYE. Gates: zero decode errors on the
# serve socket, zero leaked flow-table entries after teardown, and no
# more timer firings than data packets sent (flows blocked at the
# admission mark park on the router instead of re-arming a timer).
serve_json="$bench_dir/serve.json"
serve_log="$bench_dir/serve.log"
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  serve --listen 127.0.0.1:0 --duration 8 --json \
  > "$serve_json" 2> "$serve_log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's/^pels serve: listening on //p' "$serve_log" | head -n 1)"
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
[ -n "$serve_addr" ] || { echo "serve never announced its address" >&2; exit 1; }
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  loadgen --server "$serve_addr" --flows 256 --duration 2 --warmup 1 --json \
  > "$bench_dir/loadgen.json"
wait "$serve_pid"
python3 - "$serve_json" "$bench_dir/loadgen.json" <<'PY'
import json, sys
serve = json.load(open(sys.argv[1]))
lg = json.load(open(sys.argv[2]))
problems = []
if serve["decode_errors"] != 0:
    problems.append(f"serve saw {serve['decode_errors']} decode errors")
if serve["leaked_flows"] != 0:
    problems.append(f"serve leaked {serve['leaked_flows']} flow-table entries")
if serve["peak_flows"] < 256:
    problems.append(f"serve peaked at {serve['peak_flows']}/256 flows")
if lg["data_received"] == 0:
    problems.append("loadgen received no data")
timer_ratio = serve["timer_events"] / max(serve["data_sent"], 1)
print(f"serve timer events per data packet: {timer_ratio:.2f} "
      f"({serve['timer_events']} / {serve['data_sent']}); "
      f"polls {serve['polls']} (idle {serve['idle_polls']}), "
      f"admission parks {serve['admission_parks']}")
if serve["timer_events"] > serve["data_sent"]:
    problems.append(f"serve fired {serve['timer_events']} timer events for "
                    f"{serve['data_sent']} data packets")
if problems:
    sys.exit("serve smoke failed: " + "; ".join(problems))
print(f"serve smoke ok: peak {serve['peak_flows']} flows, "
      f"{lg['data_received']} datagrams delivered, "
      f"p99 pacing jitter {serve['pacing_jitter_p99_us']:.0f} us")
PY

echo "== pels bench --wire smoke (saturation harness, short preset) =="
PELS_BENCH_DIR="$bench_dir" timeout 300 cargo run --release -q -p pels-cli --bin pels -- \
  bench --wire --short
# --check re-derives the rows digest and the batched/loop headline ratio;
# hand-edited or truncated reports never validate.
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  bench --wire --check "$bench_dir/BENCH_wire.json"

echo "== topo generator property tests =="
cargo test -q -p pels-topo

echo "== topo scenario smoke (fat-tree + random graph, workers 2) =="
# Short multi-bottleneck runs on the sharded engine; results CSVs go to
# the scratch dir so the checked-in 30 s artifacts stay untouched.
PELS_RESULTS_DIR="$bench_dir" timeout 300 cargo run --release -q -p pels-cli --bin pels -- \
  run --topology fattree:k=4,flows=8,seed=1 --duration 5 --workers 2 --json \
  > "$bench_dir/topo_ft.json"
PELS_RESULTS_DIR="$bench_dir" timeout 300 cargo run --release -q -p pels-cli --bin pels -- \
  run --topology waxman:routers=16,flows=8,seed=1 --duration 5 --workers 2 --json \
  > "$bench_dir/topo_wx_w2.json"

echo "== topo determinism gate (generated graph, workers 1 vs 2) =="
# Same spec, different thread-pool size: the partition fixes the schedule,
# so the reports must be byte-identical (DESIGN.md §12/§14).
PELS_RESULTS_DIR="$bench_dir" timeout 300 cargo run --release -q -p pels-cli --bin pels -- \
  run --topology waxman:routers=16,flows=8,seed=1 --duration 5 --workers 1 --json \
  > "$bench_dir/topo_wx_w1.json"
cmp "$bench_dir/topo_wx_w1.json" "$bench_dir/topo_wx_w2.json" || {
  echo "topo report diverges across worker counts" >&2; exit 1; }

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
