#!/usr/bin/env bash
# Builds fmbench (release) and runs all five workloads, each in its own
# process, printing every metric as `workload metric value unit` and
# writing one set file.
#
#   fmbench/run.sh [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE]
#
# --traced  record spans and report the ~105 per-layer metrics as well
#           (Chrome traces land in fmbench/out/trace-<workload>.json)
# --smoke   1/32-size pass, a few seconds in total
# --out     where the set file goes (default fmbench/out/result.json)
#
# Compare two set files with
#   cargo run --release --manifest-path fmbench/Cargo.toml -- compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."

out=fmbench/out/result.json
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --out)
            out=$2
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

exec cargo run --release --quiet --manifest-path fmbench/Cargo.toml -- \
    set ${args[@]+"${args[@]}"} --out "$out"
