#!/bin/sh
# Runs one google-benchmark binary at its smallest configuration with
# --benchmark_out and checks the JSON it writes: the run exits 0, the
# context names the compiler and git commit, the result rows carry the
# hand-set counter, and no result row repeats a key (a counter named
# like one of Google Benchmark's own fields, e.g. "threads").
#
# Usage: bench_provenance_test.sh <bench binary> <filter> <counter>
set -u
bench_bin=$1
filter=$2
counter=$3
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
out="$dir/out.json"

"$bench_bin" --benchmark_min_time=0.01 --benchmark_filter="$filter" \
  --benchmark_out="$out" --benchmark_out_format=json
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: $bench_bin exited $status" >&2
  exit 1
fi

fail=0
# Context keys sit at 4 spaces of indentation, result keys at 6.
for key in compiler git_commit; do
  if ! grep -q "^    \"$key\": \"[^\"]" "$out"; then
    echo "FAIL: context has no non-empty \"$key\"" >&2
    fail=1
  fi
done
if ! grep -q "^      \"$counter\": " "$out"; then
  echo "FAIL: no result row has the counter \"$counter\"" >&2
  fail=1
fi
dups=$(awk '
  /^  "benchmarks": \[/ { in_results = 1 }
  in_results && /^    \{/ { split("", seen) }
  in_results && /^      "[^"]*":/ {
    key = $1
    if (key in seen) print "duplicate key " key " in row " row
    seen[key] = 1
    if (key == "\"name\":") row = $2
  }' "$out")
if [ -n "$dups" ]; then
  echo "FAIL: $dups" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  cat "$out" >&2
  exit 1
fi
grep "^    \"compiler\"\|^    \"git_commit\"" "$out"
echo "PASS: $bench_bin writes provenance and \"$counter\""
