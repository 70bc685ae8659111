#!/usr/bin/env bash
# Reachability gate: every named library function must be linked into at
# least one bench, example or perfbench binary, or be listed with a reason
# in tools/reachability_allow.txt.
#
# Builds the benches and examples (BUILD_TESTING=OFF) and perfbench's own
# CMake package at -O0 with -ffunction-sections and -Wl,--gc-sections, so a
# function that no binary calls is dropped by the linker. The library's
# defined text symbols that no binary links are demangled, stripped of the
# "(anonymous namespace)::" prefix, ABI tags and argument lists, and
# filtered to named rst:: functions: lambdas, constructors, destructors,
# operators and template instantiations are discarded. The sorted names
# must equal the allowlist; the script prints the difference and exits 1
# otherwise, so a newly unreached function and a stale allowlist entry both
# fail it.
#
# Usage: tools/reachability.sh   (builds into build-reach/ at the repository
# root, with one job per processor)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build-reach
jobs=$(nproc)
allow=$root/tools/reachability_allow.txt

# CMAKE_BUILD_TYPE=None adds no optimisation flags of its own, so -O0 holds.
configure_flags=(-DCMAKE_BUILD_TYPE=None
                 "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
                 "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$root" -B "$out/main" -DBUILD_TESTING=OFF "${configure_flags[@]}" > /dev/null
cmake --build "$out/main" -j "$jobs" > /dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${configure_flags[@]}" > /dev/null
cmake --build "$out/perfbench" -j "$jobs" > /dev/null

# Mangled names of defined text symbols (T, t, W) in the given files.
text_symbols() {
  nm --defined-only -P "$@" 2> /dev/null | awk 'NF >= 2 && $2 ~ /^[TtW]$/ { print $1 }' | sort -u
}

mapfile -t libraries < <(find "$out/main/src" -name 'librst_*.a' | sort)
mapfile -t binaries < <(find "$out/main/bench" "$out/main/examples" -maxdepth 1 -type f \
                          -perm -u+x | sort)
binaries+=("$out/perfbench/perfbench")
if [[ ${#libraries[@]} -eq 0 || ${#binaries[@]} -lt 2 ]]; then
  echo "reachability: no libraries or binaries found under $out" >&2
  exit 2
fi

unreached=$(comm -23 <(text_symbols "${libraries[@]}") <(text_symbols "${binaries[@]}") |
  c++filt |
  sed -e 's/(anonymous namespace):://g' -e 's/\[abi:[^]]*\]//g' |
  grep -v -e '{lambda' -e 'operator' -e '~' |
  sed -e 's/(.*$//' |
  grep -E '^rst::[A-Za-z0-9_:]+$' |
  awk -F'::' '$NF != $(NF - 1)' |
  sort -u)

expected=$(sed -e 's/#.*$//' -e 's/[[:space:]]*$//' -e '/^$/d' "$allow" | sort -u)

if diff_out=$(diff <(echo "$expected") <(echo "$unreached")); then
  echo "reachability: OK ($(echo "$unreached" | grep -c .) allowlisted unreached function(s))"
  exit 0
fi
echo "reachability: unreached functions differ from $allow" >&2
echo "  '<' allowlisted but now reached or gone (remove from the allowlist)" >&2
echo "  '>' unreached by every bench, example and perfbench binary" >&2
echo "$diff_out" | grep '^[<>]' >&2
exit 1
