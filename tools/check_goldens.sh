#!/bin/sh
# Regenerate every paper artifact and compare it with its committed golden.
#
# Usage: tools/check_goldens.sh BENCH_DIR
#
# artifacts/<binary>.txt is the default-flag (serial, --jobs=1) stdout of
# one bench binary (every binary in BENCH_DIR except perf_engine). Each
# binary is re-run at --jobs=$(nproc) (calibrate takes no flags) and its
# stdout must match the golden byte for byte: results do not depend on
# --jobs, so any difference is a change to the artifact itself. A binary without a golden, or a golden without a
# binary, fails too.
# Each binary's wall time and the total regeneration time go to stderr;
# stdout carries only the mismatch reports: a `diff -u` of each golden
# against the new output, so a log shows the lines that moved.
# Exit status: 0 all match, 1 a mismatch or missing file, 2 usage.
set -u

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 BENCH_DIR" >&2
  exit 2
fi
bench=$1
jobs=$(nproc)
goldens=$(dirname "$0")/../artifacts
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

now() { date +%s.%N; }
# Print "<name> <seconds since $2>" to stderr.
report_time() {
  awk -v name="$1" -v t0="$2" -v t1="$(now)" \
    'BEGIN { printf "%-24s %8.2f s\n", name, t1 - t0 }' >&2
}

status=0
start=$(now)
for path in "$bench"/*; do
  b=$(basename "$path")
  [ "$b" = perf_engine ] && continue
  [ -f "$path" ] && [ -x "$path" ] || continue
  if [ ! -f "$goldens/$b.txt" ]; then
    echo "no golden for $b (artifacts/$b.txt)" >&2
    status=1
    continue
  fi
  t0=$(now)
  if [ "$b" = calibrate ]; then
    "$path" > "$out/$b.txt"
  else
    "$path" --jobs="$jobs" > "$out/$b.txt"
  fi || { echo "$b exited $?" >&2; status=1; continue; }
  report_time "$b" "$t0"
  diff -u --label "artifacts/$b.txt" --label "$b (this build)" \
    "$goldens/$b.txt" "$out/$b.txt" || status=1
done
report_time "total (--jobs=$jobs)" "$start"
for g in "$goldens"/*.txt; do
  b=$(basename "$g" .txt)
  if [ ! -x "$bench/$b" ]; then
    echo "golden without a binary: artifacts/$b.txt" >&2
    status=1
  fi
done
exit $status
