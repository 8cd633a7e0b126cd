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

echo "== KeyMap and StateTable model tests (release build)"
# The stage-1 key maps count their entries; a release build that
# miscompiles a count passes the debug tests above, so run the model
# tests optimized too.
cargo test -q --release -p pata-core --lib -- \
    typestate:: path::tests::workspace_key_maps_match_a_hash_map_model

echo "== cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== telemetry overhead bench (smoke)"
cargo bench -p pata-bench --bench telemetry_overhead -- --smoke

echo "== copy-on-write fork bench + explore scale sweep (smoke)"
# Enforces the stage-1 gates: copy-on-write forking delivers ≥2x the
# live-step throughput of the clone-based baseline — with report
# byte-identity asserted across cow on/off and threads 1/2/4 — and
# explore ns per executed instruction at scale 16 is within 1.5x of
# scale 1 (section scale_sweep; checked again below).
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
grep -E '"(exploration|frontend|persistence|scale_sweep)":' results/BENCH_stage1.json \
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
# Metric identity is a static name, so the snapshot's size is set by the
# code, not by the number of roots: no entry may carry a per-input label.
echo "telemetry snapshot: $(grep -c '"kind": ' "$tmp_dir/stats.json") metrics," \
    "$(wc -c < "$tmp_dir/stats.json") bytes"
! grep -q '"label"' "$tmp_dir/stats.json" \
    || { echo "telemetry snapshot: an entry carries a \"label\""; exit 1; }

echo "== explore scale sweep (linux model, scales 1/4/16)"
# Per-root state must cost what the root reaches, not the module size:
# explore ns per executed instruction (--threads 1) at scale 16 may be at
# most 1.5x that at scale 1. The exploration bench above recorded the
# ratio and exited non-zero above the gate; print what it recorded.
sweep_ratio=$(grep '"scale_sweep":' results/BENCH_stage1.json \
    | sed 's/.*"ratio_16_1": \([0-9.]*\).*/\1/')
echo "explore ns/inst, scale 16 over scale 1: ${sweep_ratio}x (gate ≤1.5x)"
# Allocator calls per executed instruction, recorded by the same bench in
# its exploration section; tests/explore_allocs.rs enforces the budgets.
explore_allocs=$(grep '"exploration":' results/BENCH_stage1.json \
    | sed 's/.*"explore_allocs_per_inst": {\([^}]*\)}.*/\1/')
echo "explore allocator calls/inst: ${explore_allocs} (budget: deep ≤0.02, linux 0.2 ≤0.1)"
# Raw DFS step cost on the deep-path module, recorded by the same bench.
# It depends on the machine, so it is printed, not gated.
deep_ns=$(grep '"exploration":' results/BENCH_stage1.json \
    | sed 's/.*"deep_ns_per_step": \([0-9.]*\).*/\1/')
echo "explore ns per live step, deep-path module: ${deep_ns} (not gated)"
# Lowering ns per IR instruction at scale 4 over scale 0.2, recorded by the
# front-end bench above. Flat lowering reads near 1.0; printed, not gated.
lower_ratio=$(grep '"frontend":' results/BENCH_stage1.json \
    | sed 's/.*"lower_ratio_4_02": \([0-9.a-z]*\).*/\1/')
echo "lower ns/inst, scale 4 over scale 0.2: ${lower_ratio}x (not gated)"
# The store layer, recorded by the persistence bench above: the median
# time AnalysisSession::open takes to read the store in its warm rounds,
# and the store's size. Printed, not gated.
store_load=$(grep '"persistence":' results/BENCH_stage1.json \
    | sed 's/.*"store_load_ms": \([0-9.]*\).*/\1/')
store_bytes=$(grep '"persistence":' results/BENCH_stage1.json \
    | sed 's/.*"store_bytes": \([0-9]*\).*/\1/')
echo "store load: ${store_load} ms for ${store_bytes} bytes (not gated)"
# A restart over an unchanged tree, recorded by the same bench: the median
# time to open the store and analyze the same sources, which the session
# serves from the store's records. Printed, not gated.
restart_ms=$(grep '"persistence":' results/BENCH_stage1.json \
    | sed 's/.*"restart_ms": \([0-9.]*\).*/\1/')
echo "restart over an unchanged tree: ${restart_ms} ms, open + analyze (not gated)"
# Reports stay byte-identical across thread counts at every scale.
for scale in 1 4 16; do
    sweep_dir="$tmp_dir/sweep$scale"
    cargo run -q --release --bin pata -- corpus linux --scale "$scale" --seed 7 \
        --out "$sweep_dir" >/dev/null
    cargo run -q --release --bin pata -- analyze "$sweep_dir"/*/*.c --json \
        --threads 1 > "$tmp_dir/sweep_t1.json"
    cargo run -q --release --bin pata -- analyze "$sweep_dir"/*/*.c --json \
        --threads 2 > "$tmp_dir/sweep_t2.json"
    cmp -s "$tmp_dir/sweep_t1.json" "$tmp_dir/sweep_t2.json" \
        || { echo "scale sweep: --json differs across threads at scale $scale"; exit 1; }
    rm -rf "$sweep_dir"
done
echo "scale sweep OK (reports byte-identical across threads 1/2 at scales 1/4/16)"

echo "== counter exactness across thread counts"
# One heavy root: two symmetric diamonds calling a helper in both arms,
# then six parameter branches. A root is explored by one worker alone, so
# every --stats counter must match between --threads 1 and --threads 2;
# only the wall time may differ.
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
        | sed -e 's/time: [^ ]*//'
}
heavy_one=$(heavy_counters 1)
heavy_two=$(heavy_counters 2)
# 2^11 paths: every path passes eleven two-way branches (two diamonds, the
# helper's clamp under each, six parameter branches, the NULL check).
echo "$heavy_one" | grep -q 'paths: 2048 ' \
    || { echo "counter check: heavy root must explore 2048 paths"; exit 1; }
[ "$heavy_one" = "$heavy_two" ] \
    || { echo "counter check: --stats counters differ across thread counts"; \
         echo "threads 1: $heavy_one"; echo "threads 2: $heavy_two"; exit 1; }
echo "counter exactness OK"

echo "== serve round-trip (smoke)"
# Start a daemon on a unix socket, analyze the generated corpus, touch one
# corpus function (a new file with one new root), re-analyze, and check
# that only the touched root was re-explored and only the new file parsed;
# the file list changed, so every function was lowered. Then add a local
# to the first corpus file and check that only that function changed,
# only that file was parsed again and only its functions were lowered
# again, and that the store was appended to, not renamed over. Then shut
# the daemon down cleanly through the client, restart it over the same
# store, and check that it reports the same findings without exploring.
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
# The daemon keeps the parsed form of every unchanged file: only the new
# file is parsed.
echo "$second" | grep -q '"parsed_files": 1}' \
    || { echo "serve: second request must parse exactly the new file"; exit 1; }
# A new file changes the file list, so the whole module is lowered.
all_fns=$(cargo run -q --release --bin pata -- ir "$tmp_dir"/corp/*/*.c "$tmp_dir/ci_edit.c" \
    | grep -c '^fn ')
echo "$second" | grep -q "\"lowered_functions\": $all_fns," \
    || { echo "serve: second request must lower all $all_fns functions"; exit 1; }
# Insert a local on an existing line of the first corpus file's first
# function. That renumbers every variable lowered after it, but function
# fingerprints are numbering-independent: exactly one function changes.
first_file=$(ls "$tmp_dir"/corp/*/*.c | head -n 1)
cp "$first_file" "$tmp_dir/first.orig"
sed -i '0,/^static [^=]*) {$/s//& int ci_renumber = 1;/' "$first_file"
! cmp -s "$first_file" "$tmp_dir/first.orig" \
    || { echo "serve: renumbering edit did not apply"; exit 1; }
serve_store="$tmp_dir/serve-store.json"
store_inode=$(stat -c %i "$serve_store")
store_bytes=$(stat -c %s "$serve_store")
third=$(cargo run -q --release --bin pata -- client --socket "$sock" \
    "$tmp_dir"/corp/*/*.c "$tmp_dir/ci_edit.c")
echo "$third" | grep -q '"ok": true' \
    || { echo "serve: third analyze failed"; exit 1; }
echo "$third" | grep -q '"changed_functions": 1,' \
    || { echo "serve: renumbering edit must change exactly one function"; exit 1; }
echo "$third" | grep -q '"parsed_files": 1}' \
    || { echo "serve: third request must parse exactly the edited file"; exit 1; }
# The file list is the second request's, so only the edited file is
# lowered again, in place.
first_fns=$(cargo run -q --release --bin pata -- ir "$first_file" | grep -c '^fn ')
echo "$third" | grep -q "\"lowered_functions\": $first_fns," \
    || { echo "serve: third request must lower exactly the $first_fns functions of the edited file"; exit 1; }
# An in-place edit changes root records and fingerprints only, so the save
# appends one delta line to the store file.
[ "$(stat -c %i "$serve_store")" = "$store_inode" ] \
    || { echo "serve: the in-place edit must append to the store, not rename over it"; exit 1; }
[ "$(stat -c %s "$serve_store")" -gt "$store_bytes" ] \
    || { echo "serve: the appended store must grow"; exit 1; }
# The third request relowered in place, so the daemon kept each reported
# finding's JSON with its group. Its report, and that of a fourth request
# with the same files, written from those kept findings, must be a cold
# `pata analyze --json` of the same files, byte for byte.
cold_json=$(cargo run -q --release --bin pata -- analyze --json \
    "$tmp_dir"/corp/*/*.c "$tmp_dir/ci_edit.c")
served_report() { printf '%s\n' "$1" | sed 's/^.*"report": //; s/, "serve": {.*//'; }
[ "$(served_report "$third")" = "$cold_json" ] \
    || { echo "serve: the in-place edit's report must equal a cold analyze --json"; exit 1; }
fourth=$(cargo run -q --release --bin pata -- client --socket "$sock" \
    "$tmp_dir"/corp/*/*.c "$tmp_dir/ci_edit.c")
echo "$fourth" | grep -q '"parsed_files": 0}' \
    || { echo "serve: a repeated request must parse no file"; exit 1; }
echo "$fourth" | grep -q '"dirty_roots": 0,' \
    || { echo "serve: a repeated request must explore no root"; exit 1; }
[ "$(served_report "$fourth")" = "$cold_json" ] \
    || { echo "serve: a repeated request's report must equal a cold analyze --json"; exit 1; }
cargo run -q --release --bin pata -- client --socket "$sock" --op shutdown \
    >/dev/null
wait "$serve_pid" || { echo "serve: daemon exited non-zero"; exit 1; }
# A restart loads the base and the log: the same findings, no root
# explored. Responses match up to their "serve" counters.
sock="$tmp_dir/pata-restart.sock"
cargo run -q --release --bin pata -- serve --socket "$sock" --store "$serve_store" &
serve_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    [ -S "$sock" ] && break
    sleep 0.25
done
[ -S "$sock" ] || { echo "serve: restarted socket never appeared"; exit 1; }
restarted=$(cargo run -q --release --bin pata -- client --socket "$sock" \
    "$tmp_dir"/corp/*/*.c "$tmp_dir/ci_edit.c")
echo "$restarted" | grep -q '"dirty_roots": 0,' \
    || { echo "serve: a restart over the appended store must explore no root"; exit 1; }
# The tree is the one the store was saved from: the restart serves it from
# the store's records, parsing and lowering nothing.
echo "$restarted" | grep -q '"parsed_files": 0}' \
    || { echo "serve: a restart over the appended store must parse no file"; exit 1; }
echo "$restarted" | grep -q '"lowered_functions": 0,' \
    || { echo "serve: a restart over the appended store must lower no function"; exit 1; }
[ "$(printf '%s\n' "$restarted" | sed 's/, "serve": {.*//')" \
    = "$(printf '%s\n' "$third" | sed 's/, "serve": {.*//')" ] \
    || { echo "serve: a restart over the appended store must report the same findings"; exit 1; }
cargo run -q --release --bin pata -- client --socket "$sock" --op shutdown \
    >/dev/null
wait "$serve_pid" || { echo "serve: restarted daemon exited non-zero"; exit 1; }
echo "serve round-trip OK (second request re-explored 1 root and lowered all $all_fns functions, third changed 1 function and lowered $first_fns, each parsed 1 file; the third appended to the store; the third and a repeated fourth served a cold analyze's report; a restart over the store parsed, lowered and explored nothing)"

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

echo "== store restart keeps --stats"
# A --store run and a second run that replays every root from its store
# must print the same --stats, apart from the wall time, the validation
# cache line (the restart starts with the stored verdicts) and the
# incremental line. Beside the fault corpus, the heavy root drops repeated
# candidates during exploration: only its stored record carries them.
# Both runs' --json reports must be byte-identical too: a restart reads
# each finding's lines from the module, not from the store.
restart_stats() {
    cargo run -q --release --bin pata -- analyze "$tmp_dir/ci_fault.c" \
        "$tmp_dir/ci_heavy.c" --json --stats --store "$tmp_dir/restart-store.json" \
        2>&1 >"$tmp_dir/restart-$1.json" \
        | sed -e 's/time: [^ ]*//' -e '/^validation cache hits/d' \
            -e '/^roots dirty\/clean/d'
}
restart_cold=$(restart_stats cold)
restart_warm=$(restart_stats warm)
[ "$restart_cold" = "$restart_warm" ] \
    || { echo "store restart: --stats differ after the restart"; \
         echo "cold: $restart_cold"; echo "restart: $restart_warm"; exit 1; }
grep -q '"site_line"' "$tmp_dir/restart-cold.json" \
    || { echo "store restart: the cold run must report a finding"; exit 1; }
cmp "$tmp_dir/restart-cold.json" "$tmp_dir/restart-warm.json" \
    || { echo "store restart: --json differs after the restart"; exit 1; }
# A third run after a one-line edit of the fault file compiles the edited
# tree over the store; its --json must be a cold run's of the same files.
printf 'int ci_fault_other(int *q) { if (q == NULL) { } return *q; }\n' \
    >> "$tmp_dir/ci_fault.c"
restart_stats edited >/dev/null
cargo run -q --release --bin pata -- analyze "$tmp_dir/ci_fault.c" \
    "$tmp_dir/ci_heavy.c" --json > "$tmp_dir/restart-edited-cold.json"
cmp "$tmp_dir/restart-edited.json" "$tmp_dir/restart-edited-cold.json" \
    || { echo "store restart: --json after an edit differs from a cold run"; exit 1; }
echo "store restart OK: same --stats and --json; an edit over the store gives a cold run's --json; store $(wc -c < "$tmp_dir/restart-store.json") bytes (not gated)"

echo "== deep-input smoke (long paths must not overflow the stack)"
# Stage 1 walks a path on an explicit work stack: a root with 3,000
# sequential branches and a chain of 20,000 gotos each get a report, and
# the daemon answers the deep frame and the ping after it.
{
    echo 'int g; int deep_root(int x) {'
    for i in $(seq 1 3000); do printf '  if (x > %d) g = %d;\n' "$i" "$i"; done
    echo '  return g; }'
} > "$tmp_dir/deep_ifs.c"
{
    echo 'int g; int goto_root(int x) {'
    for i in $(seq 1 20000); do printf '  goto L%d; L%d:\n' "$i" "$i"; done
    echo '  return x; }'
} > "$tmp_dir/deep_gotos.c"
for deep in deep_ifs deep_gotos; do
    cargo run -q --release --bin pata -- analyze "$tmp_dir/$deep.c" --json \
        > "$tmp_dir/$deep.json" \
        || { echo "deep smoke: $deep.c exited non-zero"; exit 1; }
    grep -q '^{"schema_version"' "$tmp_dir/$deep.json" \
        || { echo "deep smoke: $deep.c printed no report"; exit 1; }
done
{
    printf '{"id": 1, "op": "analyze", "files": [{"name": "deep.c", "text": "int g; int deep_root(int x) {'
    for i in $(seq 1 3000); do printf ' if (x > %d) g = %d;' "$i" "$i"; done
    printf ' return g; }"}]}\n{"op": "ping"}\n'
} > "$tmp_dir/deep_frames.ndjson"
deep_lines=$(cargo run -q --release --bin pata -- serve --stdio \
    < "$tmp_dir/deep_frames.ndjson" 2>/dev/null | grep -c '"ok": true') \
    || { echo "deep smoke: serve --stdio failed on the deep frame"; exit 1; }
[ "$deep_lines" = 2 ] \
    || { echo "deep smoke: serve --stdio gave $deep_lines ok responses, expected 2"; exit 1; }
echo "deep-input smoke OK"

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
