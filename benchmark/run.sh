#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the root of a
# checkout; every argument goes to the program (see README.md):
#
#   benchmark/run.sh --workload tpch_core --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh                  # all five workloads, then their layer tables
#   benchmark/run.sh --smoke          # the same at toy sizes, < 20 s, writes nothing
#   benchmark/run.sh --compare A.jsonl B.jsonl
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# A relative CARGO_TARGET_DIR is relative to where cargo is started: here.
target="${CARGO_TARGET_DIR:-$here/target}"

# Progress goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/sqalpel-benchmark" "$@"
