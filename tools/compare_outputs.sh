#!/usr/bin/env bash
# Byte-identity gate: runs the deterministic artifacts of two builds and
# compares what they print.
#
# Usage: tools/compare_outputs.sh <parent-build> <change-build>
#
# Each argument is a CMake build directory of this repository (Release is
# fastest) with its bench/ and examples/ binaries built. Both builds run
# from the repository root with RST_THREADS=4, one artifact at a time, and
# their stdout and exit code must match for:
#   - every bench_table*, bench_fig*, bench_ablation_* and bench_ext_* bench;
#   - the deterministic examples;
#   - run_experiment --trials 400, bare, with --config and with --fault-plan
#     examples/degraded_run.conf, its --trace-out JSON and --list-config-keys;
#   - bench_city_corridor, compared on its `fingerprint <hex>` tokens and
#     `[ok]` lines only;
#   - bench_dense_fleet, compared on its N, tx-frame, delivery and culled
#     columns only (the other columns are wall times).
# Prints SAME or DIFF per artifact, with the first differing lines of each
# DIFF, and exits 1 on any DIFF.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
builds=("$(cd "$1" && pwd)" "$(cd "$2" && pwd)")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export RST_THREADS=4
cd "$root"

city_filter() { grep -oE 'fingerprint [0-9a-f]+|\[ok\].*' || true; }
fleet_filter() { awk '$1 ~ /^[0-9]+$/ { print $1, $5, $6, $7 }'; }

diffs=0
# compare <name> <filter> <binary under the build dir> [args...]
# A trace file written to $work/trace.json is appended to the output, so
# both sides pass the same path and print the same text.
compare() {
  local name=$1 filter=$2 bin=$3
  shift 3
  local side
  for side in 0 1; do
    local out=$work/$side.out rc=0
    rm -f "$work/trace.json"
    if [[ -x ${builds[$side]}/$bin ]]; then
      "${builds[$side]}/$bin" "$@" > "$out.raw" 2> /dev/null || rc=$?
    else
      echo "missing $bin" > "$out.raw"
    fi
    "$filter" < "$out.raw" > "$out"
    echo "exit $rc" >> "$out"
    if [[ -f $work/trace.json ]]; then cat "$work/trace.json" >> "$out"; fi
  done
  if cmp -s "$work/0.out" "$work/1.out"; then
    printf '%-44s SAME\n' "$name"
  else
    printf '%-44s DIFF\n' "$name"
    diff "$work/0.out" "$work/1.out" | head -n 6 | sed 's/^/    /' || true
    diffs=$((diffs + 1))
  fi
}

# The union of both builds' benches, so a bench missing on one side is a DIFF.
mapfile -t benches < <(ls "${builds[0]}/bench" "${builds[1]}/bench" |
                         grep -E '^bench_(table|fig|ablation_|ext_)' | sort -u)
for bench in "${benches[@]}"; do
  compare "$bench" cat "bench/$bench"
done
compare bench_city_corridor city_filter bench/bench_city_corridor
compare bench_dense_fleet fleet_filter bench/bench_dense_fleet

for example in blind_corner_intersection cam_monitor cpm_demo frame_capture \
               intersection_watch platoon_forwarding quickstart; do
  compare "$example" cat "examples/$example"
done

conf=examples/degraded_run.conf
compare "run_experiment --trials 400" cat examples/run_experiment --trials 400
compare "run_experiment --trials 400 --config" cat examples/run_experiment --trials 400 \
  --config "$conf"
compare "run_experiment --trials 400 --fault-plan" cat examples/run_experiment --trials 400 \
  --fault-plan "$conf"
compare "run_experiment --trace-out" cat examples/run_experiment --trials 2 \
  --trace-out "$work/trace.json"
compare "run_experiment --list-config-keys" cat examples/run_experiment --list-config-keys

if ((diffs > 0)); then
  echo "compare_outputs: $diffs artifact(s) differ"
  exit 1
fi
echo "compare_outputs: all artifacts identical"
