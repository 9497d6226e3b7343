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

status=0
for path in "$bench"/*; do
  b=$(basename "$path")
  [ "$b" = perf_engine ] && continue
  [ -f "$path" ] && [ -x "$path" ] || continue
  if [ ! -f "$goldens/$b.txt" ]; then
    echo "no golden for $b (artifacts/$b.txt)" >&2
    status=1
    continue
  fi
  if [ "$b" = calibrate ]; then
    "$path" > "$out/$b.txt"
  else
    "$path" --jobs="$jobs" > "$out/$b.txt"
  fi || { echo "$b exited $?" >&2; status=1; continue; }
  cmp "$goldens/$b.txt" "$out/$b.txt" || status=1
done
for g in "$goldens"/*.txt; do
  b=$(basename "$g" .txt)
  if [ ! -x "$bench/$b" ]; then
    echo "golden without a binary: artifacts/$b.txt" >&2
    status=1
  fi
done
exit $status
