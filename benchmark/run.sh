#!/usr/bin/env bash
# The benchmark's one command. From the repository root:
#
#   benchmark/run.sh [--seed N]
#       builds the package and runs both passes of all five workloads,
#       each in a fresh process; prints every metric by name with its
#       unit; exits nonzero on any violation.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line of standard output is
#       the JSON result object (this is what BENCHMARK.json's command
#       runs).
set -euo pipefail
cd "$(dirname "$0")/.."
# An absolute target dir, so cargo and this script agree on where the
# executable is whatever CARGO_TARGET_DIR was given relative to.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# Not --locked: a later change that adds a workspace crate must still
# build here, and may not edit benchmark/Cargo.lock to say so.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# Durable deployments and the WAL probe write under the system temp
# dir; keep that inside the checkout.
export TMPDIR="$PWD/benchmark/out/tmp"
mkdir -p "$TMPDIR"
exec "$target/release/ares-benchmark" "$@"
