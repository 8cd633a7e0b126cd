#!/bin/sh
# Tier-1 CI: formatting, release build, full test suite. Fully offline —
# the workspace has zero external dependencies (see Cargo.lock: workspace
# members only), so no registry access is ever needed.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo test -q --release -p pata-core --lib (fingerprint cross-check)"
# The forked-diamond fingerprint tests compare the incremental accumulators
# against the slow fold with `verify_fp` — run them in release too, where
# debug_assert-based checking is compiled out.
cargo test -q --release -p pata-core --lib

echo "== cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== telemetry overhead bench (smoke)"
cargo bench -p pata-bench --bench telemetry_overhead -- --smoke

echo "== exploration reuse + copy-on-write fork bench (smoke)"
# Enforces both stage-1 gates: caches cut live DFS steps by ≥30%, and
# copy-on-write forking delivers ≥2x the live-step throughput of the
# clone-based baseline — with report byte-identity asserted across caches
# on/off, cow on/off, and threads 1/2/4.
cargo bench -p pata-bench --bench exploration -- --smoke

echo "== persistence bench (smoke)"
cargo bench -p pata-bench --bench persistence -- --smoke

echo "== front-end bench (smoke)"
# Times lex, parse and lower over the linux model at scales 0.2, 1 and 4.
# Gates only on machine-independent values: token counts, IR instruction
# counts and printed-module hashes must match the pinned ones.
cargo bench -p pata-bench --bench frontend -- --smoke

echo "== stage-1 bench summary (results/BENCH_stage1.json)"
# The smoke benches above just rewrote their sections; print the headline
# per-stage numbers on one line each.
grep -E '"(exploration|frontend|persistence)":' results/BENCH_stage1.json \
    || { echo "BENCH_stage1.json missing expected sections"; exit 1; }

echo "== stage timing summary"
# One-line per-stage wall-clock breakdown from the --stats-json telemetry
# snapshot of an end-to-end run on a small generated corpus.
tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT
cargo run -q --release --bin pata -- corpus linux --scale 0.05 --seed 7 \
    --out "$tmp_dir/corp" >/dev/null
cargo run -q --release --bin pata -- analyze "$tmp_dir"/corp/*/*.c \
    --stats-json "$tmp_dir/stats.json" >/dev/null
# Each metric serializes on one line: {"name": "stage.X", ..., "total_ns": N, ...}.
stage_ns() {
    grep "\"name\": \"stage.$1\"" "$tmp_dir/stats.json" \
        | sed 's/.*"total_ns": \([0-9]*\).*/\1/' | head -n 1
}
echo "stage timing (ns): collect=$(stage_ns collect) explore=$(stage_ns explore) filter=$(stage_ns filter)"

echo "== counter exactness across thread counts"
# One heavy root: two symmetric diamonds calling a helper in both arms,
# then six parameter branches. A root is explored by one worker alone, so
# every --stats counter must match between --threads 1 and --threads 2;
# only the wall time and the scheduler's steal count may differ.
cat > "$tmp_dir/ci_heavy.c" <<'EOF_C'
struct dev { int *res; int mode; int flags; };
static int heavy_clamp(int v) {
    if (v > 8) { v = 8; }
    return v;
}
static int heavy_root(struct dev *d, int lim, int a0, int a1, int a2, int a3, int a4, int a5) {
    int acc = 0;
    int w = 0;
    int k = 0;
    if (d->mode > 0) { w = heavy_clamp(lim); } else { w = heavy_clamp(lim); }
    if (d->flags > 0) { k = heavy_clamp(4); } else { k = heavy_clamp(4); }
    if (a0 > 10) { acc = acc + 1; } else { acc = acc - 1; }
    if (a1 > 20) { acc = acc + 2; } else { acc = acc - 1; }
    if (a2 > 30) { acc = acc + 3; } else { acc = acc - 1; }
    if (a3 > 40) { acc = acc + 4; } else { acc = acc - 1; }
    if (a4 > 50) { acc = acc + 5; } else { acc = acc - 1; }
    if (a5 > 60) { acc = acc + 6; } else { acc = acc - 1; }
    if (d->res == NULL) { acc = 0; }
    return *d->res + acc + w + k;
}
static struct ops heavy_ops = { .run = heavy_root };
EOF_C
heavy_counters() {
    cargo run -q --release --bin pata -- analyze "$tmp_dir/ci_heavy.c" \
        --stats --threads "$1" 2>&1 >/dev/null \
        | sed -e 's/time: [^ ]*//' -e 's/work steals: [0-9]*//'
}
heavy_one=$(heavy_counters 1)
heavy_two=$(heavy_counters 2)
echo "$heavy_one" | grep -q 'callee memo hits: [1-9]' \
    || { echo "counter check: heavy root must hit the callee memo"; exit 1; }
[ "$heavy_one" = "$heavy_two" ] \
    || { echo "counter check: --stats counters differ across thread counts"; \
         echo "threads 1: $heavy_one"; echo "threads 2: $heavy_two"; exit 1; }
echo "counter exactness OK"

echo "== serve round-trip (smoke)"
# Start a daemon on a unix socket, analyze the generated corpus, touch one
# corpus function (a new file with one new root), re-analyze, and check
# that only the touched root was re-explored. Then add a local to the
# first corpus file and check that only that function changed. Then shut
# the daemon down cleanly through the client.
sock="$tmp_dir/pata.sock"
cargo run -q --release --bin pata -- serve --socket "$sock" \
    --store "$tmp_dir/serve-store.json" &
serve_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    [ -S "$sock" ] && break
    sleep 0.25
done
[ -S "$sock" ] || { echo "serve: socket never appeared"; exit 1; }
first=$(cargo run -q --release --bin pata -- client --socket "$sock" \
    "$tmp_dir"/corp/*/*.c)
echo "$first" | grep -q '"ok": true' \
    || { echo "serve: first analyze failed"; exit 1; }
echo "$first" | grep -q '"clean_roots": 0' \
    || { echo "serve: first analyze was not cold"; exit 1; }
printf 'int ci_edit_probe(int *p) { if (p == NULL) { } return *p; }\n' \
    > "$tmp_dir/ci_edit.c"
second=$(cargo run -q --release --bin pata -- client --socket "$sock" \
    "$tmp_dir"/corp/*/*.c "$tmp_dir/ci_edit.c")
echo "$second" | grep -q '"ok": true' \
    || { echo "serve: second analyze failed"; exit 1; }
echo "$second" | grep -q '"dirty_roots": 1,' \
    || { echo "serve: edit must dirty exactly one root"; exit 1; }
echo "$second" | grep -q '"changed_functions": 1,' \
    || { echo "serve: edit must change exactly one function"; exit 1; }
# Insert a local on an existing line of the first corpus file's first
# function. That renumbers every variable lowered after it, but function
# fingerprints are numbering-independent: exactly one function changes.
first_file=$(ls "$tmp_dir"/corp/*/*.c | head -n 1)
cp "$first_file" "$tmp_dir/first.orig"
sed -i '0,/^static [^=]*) {$/s//& int ci_renumber = 1;/' "$first_file"
! cmp -s "$first_file" "$tmp_dir/first.orig" \
    || { echo "serve: renumbering edit did not apply"; exit 1; }
third=$(cargo run -q --release --bin pata -- client --socket "$sock" \
    "$tmp_dir"/corp/*/*.c "$tmp_dir/ci_edit.c")
echo "$third" | grep -q '"ok": true' \
    || { echo "serve: third analyze failed"; exit 1; }
echo "$third" | grep -q '"changed_functions": 1,' \
    || { echo "serve: renumbering edit must change exactly one function"; exit 1; }
cargo run -q --release --bin pata -- client --socket "$sock" --op shutdown \
    >/dev/null
wait "$serve_pid" || { echo "serve: daemon exited non-zero"; exit 1; }
echo "serve round-trip OK (second request re-explored 1 root, third changed 1 function)"

echo "== fault-injection smoke matrix"
# Inject a panic, a validation panic, a deadline trip, and a store IO
# error at named sites. Every run must exit zero and report the fault in
# the degraded section; degraded reports must be byte-identical across
# thread counts for a fixed plan.
printf 'int ci_fault_probe(int *p) { if (p == NULL) { } return *p; }\n' \
    > "$tmp_dir/ci_fault.c"
fault_case() {
    plan=$1
    action=$2
    # stderr silenced: contained panics still run the default panic hook,
    # and the injected backtraces would drown the CI log.
    out=$(cargo run -q --release --bin pata -- analyze "$tmp_dir/ci_fault.c" \
        --json --fault-plan "$plan" 2>/dev/null) \
        || { echo "fault smoke: --fault-plan $plan exited non-zero"; exit 1; }
    echo "$out" | grep -q '"degraded"' \
        || { echo "fault smoke: $plan produced no degraded section"; exit 1; }
    echo "$out" | grep -q "\"action\": \"$action\"" \
        || { echo "fault smoke: $plan must record action=$action"; exit 1; }
}
fault_case 'explore@1,seed=1' quarantined
fault_case 'checker@1,seed=2' quarantined
fault_case 'validate@1,seed=3' quarantined
fault_case 'deadline@1,seed=4' demoted
fault_case 'live_bytes@1,seed=5' demoted
one=$(cargo run -q --release --bin pata -- analyze "$tmp_dir/ci_fault.c" \
    --json --threads 1 --fault-plan 'explore@1,seed=1' 2>/dev/null)
four=$(cargo run -q --release --bin pata -- analyze "$tmp_dir/ci_fault.c" \
    --json --threads 4 --fault-plan 'explore@1,seed=1' 2>/dev/null)
[ "$one" = "$four" ] \
    || { echo "fault smoke: degraded report differs across threads"; exit 1; }
# A store IO error degrades to a cold start: the run still succeeds, the
# store file is simply absent; a later run without the fault saves it.
cargo run -q --release --bin pata -- analyze "$tmp_dir/ci_fault.c" --json \
    --store "$tmp_dir/fault-store.json" --fault-plan 'store.save@1,seed=6' \
    >/dev/null 2>&1 \
    || { echo "fault smoke: store.save fault must not fail"; exit 1; }
[ ! -e "$tmp_dir/fault-store.json" ] \
    || { echo "fault smoke: failed save must leave no store file"; exit 1; }
cargo run -q --release --bin pata -- analyze "$tmp_dir/ci_fault.c" --json \
    --store "$tmp_dir/fault-store.json" >/dev/null
[ -e "$tmp_dir/fault-store.json" ] \
    || { echo "fault smoke: clean run must save the store"; exit 1; }
echo "fault-injection smoke matrix OK"

echo "== serve stress round-trip (concurrent clients, malformed + oversized frames)"
# Drive the daemon through the already-built binary: concurrent
# `cargo run`s would serialize on cargo's build lock and the clients
# would never actually overlap.
pata_bin="$PWD/target/release/pata"
sock2="$tmp_dir/pata-stress.sock"
"$pata_bin" serve --socket "$sock2" --max-request-bytes 65536 &
stress_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    [ -S "$sock2" ] && break
    sleep 0.25
done
[ -S "$sock2" ] || { echo "stress: socket never appeared"; exit 1; }
stress_client() {
    "$pata_bin" client --socket "$sock2" "$@"
}
pids=""
for i in 1 2 3 4; do
    stress_client "$tmp_dir/ci_fault.c" > "$tmp_dir/stress_$i.out" &
    pids="$pids $!"
done
for p in $pids; do
    wait "$p" || { echo "stress: concurrent client failed"; exit 1; }
done
for i in 1 2 3 4; do
    grep -q '"ok": true' "$tmp_dir/stress_$i.out" \
        || { echo "stress: client $i got an error response"; exit 1; }
done
# A malformed frame must produce an error response (non-zero client
# exit), not a dead daemon.
if stress_client --raw 'this is not json' > "$tmp_dir/stress_bad.out" 2>&1; then
    echo "stress: malformed frame must exit non-zero"; exit 1
fi
grep -q '"ok": false' "$tmp_dir/stress_bad.out" \
    || { echo "stress: malformed frame must get an error response"; exit 1; }
# An oversized frame is refused at the configured byte limit.
big_frame=$(head -c 70000 /dev/zero | tr '\0' 'x')
if stress_client --raw "$big_frame" > "$tmp_dir/stress_big.out" 2>&1; then
    echo "stress: oversized frame must exit non-zero"; exit 1
fi
grep -q 'byte limit' "$tmp_dir/stress_big.out" \
    || { echo "stress: oversized frame must name the byte limit"; exit 1; }
# The daemon is still answering after both bad frames.
stress_client --op ping > /dev/null \
    || { echo "stress: daemon dead after bad frames"; exit 1; }
stress_client --op shutdown > /dev/null \
    || { echo "stress: shutdown failed"; exit 1; }
wait "$stress_pid" || { echo "stress: daemon exited non-zero"; exit 1; }
echo "serve stress round-trip OK"

echo "CI OK"
