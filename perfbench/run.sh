#!/usr/bin/env bash
# Entry point of the benchmark (the `command` of BENCHMARK.json).
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the real `pcs-serve` binary (root workspace) and the benchmark
# (its own package) from source into one target directory, then runs the
# benchmark with the arguments given.  Run it from the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/service ]; then
    echo "perfbench/run.sh: $root is not the repo: the program to measure is missing" >&2
    exit 1
fi

# One absolute target directory for both builds, so that shared crates
# compile once and `pcs-serve` lands beside the benchmark binary.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet -p pcs-service --bin pcs-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/pcs-perfbench" "$@"
