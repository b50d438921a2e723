#!/usr/bin/env bash
# Run-to-run spread of the end-to-end metrics. From the repository root:
#
#   benchmark/repeat.sh N [--record DIR] [--seed S]
#
# runs N end-to-end sets back to back (set i with seed S + i) and prints,
# per metric and workload, the median, the quartiles and the spread
# (interquartile range / median) against the bound in BENCHMARK.json.
# Exits nonzero if a spread exceeds its bound or a run fails a check.
# With --record, the output and a description of the host are also
# written to DIR (this is how benchmark/baseline/ was produced).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."
sets="${1:?usage: benchmark/repeat.sh N [--record DIR] [--seed S]}"
shift
record=""
if [ "${1:-}" = "--record" ]; then
  record="${2:?--record needs a directory}"
  shift 2
fi
if [ -z "$record" ]; then
  exec "$here/run.sh" repeat "$sets" "$@"
fi
mkdir -p "$record" benchmark/out/tmp
{
  echo "date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo "nproc: $(nproc)"
  echo "rustc: $(rustc -V)"
  echo "cargo: $(cargo -V)"
  echo "kernel: $(uname -sr)"
  echo "git commit: $(git rev-parse HEAD 2>/dev/null || echo 'not a git checkout')"
  echo "temp dir: $PWD/benchmark/out/tmp"
  echo "temp dir filesystem: $(df --output=fstype benchmark/out/tmp | tail -n 1)"
  echo "command: benchmark/repeat.sh $sets --record $record $*"
} > "$record/env.txt"
"$here/run.sh" repeat "$sets" "$@" | tee "$record/repeat-$sets.txt"
