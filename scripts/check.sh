#!/usr/bin/env sh
# Full local gate: formatting, lints, and the whole test sweep.
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

# Runs a bench bin twice with `--smoke` and the given extra flags, and
# fails unless both runs' stdout and both `--json` files are
# byte-identical and the JSON holds a record of the named bench. The
# first run's JSON is left at $smoke_json for the caller's own checks
# (and removal).
#   run_twice_cmp <label> <bin> <bench record> [flag...]
run_twice_cmp() {
    label=$1
    bin=$2
    record=$3
    shift 3
    out_a="$(mktemp)"
    out_b="$(mktemp)"
    smoke_json="$(mktemp)"
    json_b="$(mktemp)"
    cargo run -q --release -p fluidmem-bench --bin "$bin" -- --smoke "$@" --json "$smoke_json" > "$out_a"
    cargo run -q --release -p fluidmem-bench --bin "$bin" -- --smoke "$@" --json "$json_b" > "$out_b"
    test -s "$smoke_json" || { echo "$label: empty JSON output" >&2; exit 1; }
    cmp "$out_a" "$out_b" || { echo "$label: stdout not deterministic" >&2; exit 1; }
    cmp "$smoke_json" "$json_b" || { echo "$label: JSON output not deterministic" >&2; exit 1; }
    grep -q "\"bench\":\"$record\"" "$smoke_json" || {
        echo "$label: $record records missing" >&2
        exit 1
    }
    rm -f "$out_a" "$out_b" "$json_b"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --all-targets (examples included)"
cargo build -q --workspace --all-targets

echo "==> cargo test"
cargo test -q --workspace

echo "==> fmbench smoke: all five workloads at 1/32 size (adapter surface + every self-check)"
# fmbench is a package of its own that names this repo's API in one
# adapter file; a PR that breaks that surface, or any workload's
# integrity/audit self-check, fails here rather than at benchmark time.
fmbench_set="$(mktemp)"
fmbench_log="$(mktemp)"
fmbench/run.sh --smoke --out "$fmbench_set" > "$fmbench_log" 2>&1 || {
    cat "$fmbench_log" >&2
    echo "fmbench smoke: a workload failed to build, run or self-check" >&2
    exit 1
}
rm -f "$fmbench_set" "$fmbench_log"

echo "==> telemetry smoke: fluidmem trace --scenario pmbench"
trace_file="$(mktemp)"
cargo run -q --bin fluidmem -- trace --scenario pmbench --out "$trace_file" > /dev/null
test -s "$trace_file" || { echo "telemetry smoke: empty trace" >&2; exit 1; }
grep -q '"kv.read.flight"' "$trace_file" || {
    echo "telemetry smoke: no kv.read.flight spans in trace" >&2
    exit 1
}
rm -f "$trace_file"

echo "==> multi-VM smoke: scaling --smoke (twice, byte-identical)"
run_twice_cmp "scaling smoke" scaling scaling_policy
rm -f "$smoke_json"

echo "==> big-fleet smoke: scaling --big --smoke (twice, byte-identical, floor intact, flat per-VM rate)"
run_twice_cmp "big-fleet smoke" scaling scaling_big --big
# The slo_guarded floor guarantee: throttling a donor VM below the
# progress floor is a gate failure at any fleet size.
if grep '"bench":"scaling_big"' "$smoke_json" | grep -qv '"floor_misses":0'; then
    echo "big-fleet smoke: a VM was throttled below the progress floor" >&2
    exit 1
fi
# Per-VM resources are constant across fleet sizes, so the slab data
# plane must keep the N-core-normalized per-VM rate roughly flat:
# N=64 falling below half the N=16 rate means something superlinear
# crept back into the fault path.
tpv16="$(grep '"bench":"scaling_big"' "$smoke_json" | grep '"n_vms":16,' \
    | sed 's/.*"throughput_per_vm_ops_s":\([0-9.eE+-]*\).*/\1/')"
tpv64="$(grep '"bench":"scaling_big"' "$smoke_json" | grep '"n_vms":64,' \
    | sed 's/.*"throughput_per_vm_ops_s":\([0-9.eE+-]*\).*/\1/')"
test -n "$tpv16" && test -n "$tpv64" || {
    echo "big-fleet smoke: throughput fields missing from JSON" >&2
    exit 1
}
awk -v small="$tpv16" -v big="$tpv64" 'BEGIN { exit (big >= 0.5 * small) ? 0 : 1 }' || {
    echo "big-fleet smoke: per-VM throughput at N=64 ($tpv64) fell below half of N=16 ($tpv16)" >&2
    exit 1
}
rm -f "$smoke_json"

echo "==> lint: unordered-container iteration in output-producing crates"
# Bench tables and telemetry exports are pinned byte-for-byte by the
# determinism gates above; HashMap/HashSet iteration order must never
# feed them. Sort first (or use a BTreeMap), or mark a genuinely
# order-insensitive use with '// lint: order-independent'.
lint_hits="$(grep -rn 'HashMap\|HashSet' crates/bench/src crates/telemetry/src \
    | grep -v 'lint: order-independent' || true)"
if [ -n "$lint_hits" ]; then
    echo "unordered container in an output-producing crate without a sort or marker:" >&2
    echo "$lint_hits" >&2
    exit 1
fi

echo "==> lint: default-hasher maps on the per-page paths"
# The per-page maps of mem, core, uffd, block, swap and the RAMCloud
# index hash simulator-generated integers; std's SipHash there cost a
# fifth of fleet-scale host time (DESIGN.md §17). Use fluidmem_sim::FastMap /
# FastSet, or mark a map that is genuinely off the per-page path with
# '// lint: cold-path'. Test modules (and monitor/tests.rs) are exempt.
hasher_hits=""
for f in $(find crates/mem/src crates/core/src crates/uffd/src crates/block/src crates/swap/src -name '*.rs' ! -name 'tests.rs') \
    crates/kv/src/ramcloud.rs; do
    hasher_hits="$hasher_hits$(awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /HashMap|HashSet/ && !/lint: cold-path/ && !/^[[:space:]]*\/\// { print f ":" FNR ": " $0 }
    ' "$f")"
done
if [ -n "$hasher_hits" ]; then
    echo "default-hasher HashMap/HashSet on a per-page path (use FastMap/FastSet or mark '// lint: cold-path'):" >&2
    echo "$hasher_hits" >&2
    exit 1
fi

echo "==> lint: depth is a bound, not a mode"
# There is one fault engine (DESIGN.md "Fault engine") and one host
# interleave: MonitorConfig::max_inflight only bounds how many demand
# faults may be parked, checked by submit_fault's capacity assert. Core,
# host or vm code that compares it to anything is growing a second path;
# so is a revived handle_refault. Mark a genuine bound check with
# '// lint: depth-bound'. Comments, test modules and monitor/tests.rs are
# exempt.
depth_hits=""
for f in $(find crates/core/src crates/host/src crates/vm/src -name '*.rs' ! -name 'tests.rs'); do
    depth_hits="$depth_hits$(awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// || /lint: depth-bound/ { next }
        (/max_inflight/ && /==|!=|<=|>=|[^-=]>|</) || /fn handle_refault/ { print f ":" FNR ": " $0 }
    ' "$f")"
done
if [ -n "$depth_hits" ]; then
    echo "core/host/vm code branches on max_inflight (or revives handle_refault); depth only bounds parked faults:" >&2
    echo "$depth_hits" >&2
    exit 1
fi

echo "==> lint: the wire is charged in one place"
# What a store operation costs on the wire — which halves it draws, in
# which order, against which clock — is decided in the leaf front
# (crates/kv/src/leaf.rs) and nowhere else: a store is an engine behind
# that front or a wrapper around another store. The one other sampler
# is the cluster copier, which charges its private cursor; mark such a
# line '// lint: own-timeline'.
wire_hits="$(grep -rn 'sample_top_half\|sample_flight\|sample_batch_flight\|sample_bottom_half' crates/kv/src \
    | grep -v '^crates/kv/src/transport\.rs:\|^crates/kv/src/leaf\.rs:\|lint: own-timeline' || true)"
if [ -n "$wire_hits" ]; then
    echo "transport sampled outside the leaf front (implement a StorageEngine, or mark '// lint: own-timeline'):" >&2
    echo "$wire_hits" >&2
    exit 1
fi

echo "==> lint: the monitor's threads are the one user of the clock's timelines"
# SimClock::on_timeline moves every handle of the shared clock onto
# another timeline while a closure runs. The monitor's threads — its
# response handler, one handler thread per faulting vCPU, and the
# background evictor — are the one component that works that way,
# through one wrapper in crates/core/src/monitor/pipeline.rs
# (DESIGN.md §12); a caller anywhere
# else is a private timeline the guest clock never accounts for. The sim
# crate's own tests may call it. Comments and the definition itself are
# exempt.
swap_hits=""
for f in $(grep -rl 'on_timeline' crates src tests examples --include='*.rs'); do
    case "$f" in
        crates/core/src/monitor/pipeline.rs) continue ;;
        crates/sim/src/*) in_sim=1 ;;
        *) in_sim=0 ;;
    esac
    swap_hits="$swap_hits$(awk -v f="$f" -v in_sim="$in_sim" '
        in_sim && /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// || /pub fn on_timeline/ { next }
        /on_timeline/ { print f ":" FNR ": " $0 }
    ' "$f")"
done
if [ -n "$swap_hits" ]; then
    echo "SimClock::on_timeline called outside the monitor's thread wrapper:" >&2
    echo "$swap_hits" >&2
    exit 1
fi

echo "==> lint: the clock has one writer"
# A world runs on one thread, so SimClock has one writer at a time and
# every write is a relaxed load plus store (the rule is on the type's
# rustdoc). A locked read-modify-write there costs every charged
# nanosecond of every simulated access; it was a tenth of graph500-vm's
# host profile (DESIGN.md §17). Comments and the test module are exempt.
clock_hits="$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /fetch_add|fetch_sub|fetch_update|compare_exchange|swap\(/ { print FILENAME ":" FNR ": " $0 }
' crates/sim/src/clock.rs)"
if [ -n "$clock_hits" ]; then
    echo "a read-modify-write on the single-writer clock (use a relaxed load and store):" >&2
    echo "$clock_hits" >&2
    exit 1
fi

echo "==> lint: no timeline is passed by hand"
# An Option<&mut SimInstant> parameter is a private cursor threaded
# through calls so that some of them charge it instead of the clock — a
# timeline the monitor's Timeline table does not know. Run the work with
# Monitor::run_on instead. Comments, test modules and tests.rs are exempt.
cursor_hits="$(find crates/core/src crates/uffd/src -name '*.rs' ! -name 'tests.rs' -print0 \
    | xargs -0 awk '
        in_test && /^mod [a-z_]+ \{/ { nextfile }
        { in_test = /^#\[cfg\(test\)\]/ }
        /^[[:space:]]*\/\// { next }
        /Option<&mut SimInstant>/ { print FILENAME ":" FNR ": " $0 }
    ')"
if [ -n "$cursor_hits" ]; then
    echo "a private timeline passed by hand (add a Timeline and use Monitor::run_on):" >&2
    echo "$cursor_hits" >&2
    exit 1
fi

echo "==> lint: instruments are declared, not hand-registered"
# A layer states its counters, gauges and histograms once, in a
# fluidmem_telemetry::instrument_set! list; the snapshot struct, the
# registration under the caller's labels and the CATALOGUE row are
# derived from it (DESIGN.md "Telemetry"). A Registry::adopt_* call
# anywhere else is an instrument the catalogue does not know.
adopt_hits="$(grep -rn 'adopt_counter\|adopt_gauge\|adopt_histogram' crates src --include='*.rs' \
    | grep -v '^crates/telemetry/src/' || true)"
if [ -n "$adopt_hits" ]; then
    echo "instrument registered by hand (declare it in the layer's instrument_set! list):" >&2
    echo "$adopt_hits" >&2
    exit 1
fi

echo "==> lint: pages are sized through their buffer"
# A page version's compressed size is computed once, by
# fluidmem_kv::stored_page_size, and remembered in the page's PageBuf,
# which every clone of that version shares (DESIGN.md §16). A raw
# rle_len / scan_runs call, or a PageBuf::stored_len call, anywhere but
# crates/kv/src/compress.rs re-scans bytes whose size is already known
# (or memoizes a second policy). Mark a deliberate raw scan with
# '// lint: raw-scan'. Comments and test modules are exempt.
scan_hits=""
for f in $(find crates src examples -name '*.rs' ! -path crates/kv/src/compress.rs ! -name 'tests.rs'); do
    scan_hits="$scan_hits$(awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// || /lint: raw-scan/ { next }
        /(^|[^a-z_])rle_len\(|scan_runs\(|\.stored_len\(/ { print f ":" FNR ": " $0 }
    ' "$f")"
done
if [ -n "$scan_hits" ]; then
    echo "page bytes sized outside fluidmem_kv::stored_page_size (call it, or mark '// lint: raw-scan'):" >&2
    echo "$scan_hits" >&2
    exit 1
fi

echo "==> lint: durations are recorded as durations"
# A Sample keeps a recorded duration as integer nanoseconds, four bytes
# each (DESIGN.md §10). Recording one as a float, `.record(d.as_micros_f64())`,
# reads back the same but silently moves the whole sample to its
# eight-byte f64 store: call `record_duration(d)` instead, or mark a
# deliberate raw value with '// lint: raw-sample'. The collectors'
# definitions (crates/sim/src/stats.rs), comments and test modules are
# exempt.
sample_hits=""
for f in $(find crates src examples -name '*.rs' ! -path crates/sim/src/stats.rs ! -name 'tests.rs'); do
    sample_hits="$sample_hits$(awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// || /lint: raw-sample/ { next }
        /\.record\([^,]*\.as_micros_f64\(\)\)/ { print f ":" FNR ": " $0 }
    ' "$f")"
done
if [ -n "$sample_hits" ]; then
    echo "a duration recorded as a raw float (call record_duration, or mark '// lint: raw-sample'):" >&2
    echo "$sample_hits" >&2
    exit 1
fi

echo "==> cluster smoke: scaling --smoke --cluster (twice, byte-identical, zero lost pages)"
run_twice_cmp "cluster smoke" scaling scaling_cluster --cluster
# Every cell churns membership mid-run (a join and a graceful leave);
# the shadow-accounting audit must find no lost or duplicated page.
if grep '"bench":"scaling_cluster"' "$smoke_json" | grep -qv '"lost_pages":0'; then
    echo "cluster smoke: pages lost during migration chaos" >&2
    exit 1
fi
if grep '"bench":"scaling_cluster"' "$smoke_json" | grep -qv '"duplicated_pages":0'; then
    echo "cluster smoke: pages duplicated during migration chaos" >&2
    exit 1
fi
rm -f "$smoke_json"

echo "==> pipeline smoke: depth sweep (twice, stdout + JSON must be byte-identical)"
run_twice_cmp "pipeline smoke" pipeline pipeline_reclaim
grep -q '"depth":16' "$smoke_json" || {
    echo "pipeline smoke: depth sweep incomplete" >&2
    exit 1
}
# At default watermarks the background evictor must absorb the entire
# eviction load: any direct (inline, on-fault-path) reclaim is a gate
# failure.
if grep '"bench":"pipeline_reclaim"' "$smoke_json" | grep -qv '"direct_reclaims":0'; then
    echo "pipeline smoke: direct reclaims at default watermarks (evictor fell behind)" >&2
    exit 1
fi
# Deep pipelines are where inline eviction hurts: reclaim must win the
# p99 tail at every depth >= 4.
if grep '"bench":"pipeline_reclaim"' "$smoke_json" | grep -E '"depth":(4|8|16),' | grep -q '"tail_win":false'; then
    echo "pipeline smoke: background reclaim lost the p99 tail at depth >= 4" >&2
    exit 1
fi
# A landed read is finished by the next monitor entry, not when the
# driver collects it: fault latency must not scale with the depth bound.
pipe_p99() {
    grep '"bench":"pipeline"' "$smoke_json" | grep "\"depth\":$1," \
        | sed 's/.*"fault_p99_us":\([0-9.eE+-]*\).*/\1/'
}
p99_d2="$(pipe_p99 2)"
p99_d16="$(pipe_p99 16)"
test -n "$p99_d2" && test -n "$p99_d16" || {
    echo "pipeline smoke: fault_p99_us missing from the depth sweep" >&2
    exit 1
}
awk -v shallow="$p99_d2" -v deep="$p99_d16" 'BEGIN { exit (deep <= 2 * shallow) ? 0 : 1 }' || {
    echo "pipeline smoke: fault p99 at depth 16 ($p99_d16 us) is over 2x depth 2 ($p99_d2 us)" >&2
    exit 1
}
rm -f "$smoke_json"

echo "==> workingset smoke: WSS sweep (twice, stdout + JSON must be byte-identical)"
run_twice_cmp "workingset smoke" workingset workingset
rm -f "$smoke_json"

echo "==> tiering smoke: compressibility sweep (twice, stdout + JSON must be byte-identical)"
run_twice_cmp "tiering smoke" tiering tiering
# Every cell audits the pool against the page tracker: each tracked
# page must be found in exactly one place (DRAM, pool, write list, or
# store), with the compressed-byte accounting balanced.
if grep '"bench":"tiering"' "$smoke_json" | grep -qv '"lost_pages":0'; then
    echo "tiering smoke: pages lost between the pool and the store" >&2
    exit 1
fi
if grep '"bench":"tiering"' "$smoke_json" | grep -qv '"duplicated_pages":0'; then
    echo "tiering smoke: pages duplicated between the pool and the store" >&2
    exit 1
fi
rm -f "$smoke_json"

echo "==> ablations --scale 64 (twice, byte-identical, compressed framing round-trips)"
# The one harness that drives CompressedStore's frames and ZramDevice end
# to end (ablations 6 and 8). Ablation 6 reads every adversarial page
# back and counts the pages that did not round-trip.
abl_a="$(mktemp)"
abl_b="$(mktemp)"
cargo run -q --release -p fluidmem-bench --bin ablations -- --scale 64 > "$abl_a"
cargo run -q --release -p fluidmem-bench --bin ablations -- --scale 64 > "$abl_b"
cmp "$abl_a" "$abl_b" || { echo "ablations: stdout not deterministic" >&2; exit 1; }
grep -q '^adversarial framing check: .*(0 mismatches)$' "$abl_a" || {
    echo "ablations: ablation 6 framing check missing or not at 0 mismatches" >&2
    exit 1
}
rm -f "$abl_a" "$abl_b"

echo "==> prefetch smoke: phase sweep (twice, byte-identical, strided hit rate, zero fatal errors)"
run_twice_cmp "prefetch smoke" prefetch prefetch_gate
# Speculation must never panic the monitor on a store error.
if grep '"bench":"prefetch_gate"' "$smoke_json" | grep -qv '"fatal_errors":0'; then
    echo "prefetch smoke: fatal store errors surfaced on the prefetch path" >&2
    exit 1
fi
# The detector must cover at least half the strided phase's accesses;
# below that the trend prefetcher is not working.
pf_hit="$(grep '"bench":"prefetch_gate"' "$smoke_json" \
    | sed 's/.*"strided_hit_rate":\([0-9.eE+-]*\).*/\1/')"
test -n "$pf_hit" || {
    echo "prefetch smoke: strided_hit_rate missing from gate record" >&2
    exit 1
}
awk -v hit="$pf_hit" 'BEGIN { exit (hit >= 0.5) ? 0 : 1 }' || {
    echo "prefetch smoke: strided-phase hit rate ($pf_hit) fell below 0.5" >&2
    exit 1
}
rm -f "$smoke_json"

echo "==> paper-shape outputs: results/ and BENCH_scaling.json regenerate byte-identical"
# The committed tables and figures are the reproduction's record. A change
# that moves one either regenerates it with a diff table in
# EXPERIMENTS.md or is a regression.
shape_out="$(mktemp)"
for bin in table1 table2 table3 fig2 fig3 fig4 fig5 timeouts ablations prefetch; do
    cargo run -q --release -p fluidmem-bench --bin "$bin" > "$shape_out"
    cmp "$shape_out" "results/$bin.txt" || {
        echo "paper-shape outputs: $bin no longer matches results/$bin.txt" >&2
        exit 1
    }
done
cargo run -q --release -p fluidmem-bench --bin scaling -- --big --json "$shape_out" > /dev/null
cmp "$shape_out" BENCH_scaling.json || {
    echo "paper-shape outputs: scaling --big no longer matches BENCH_scaling.json" >&2
    exit 1
}
rm -f "$shape_out"

echo "==> all checks passed"
