#!/usr/bin/env bash
# The benchmark's one entry command. Builds the real `joinmi_serve` daemon
# (from the root workspace, with the root's own profile and lock file) and the
# benchmark package, then runs the benchmark with the given arguments:
#
#   benchmark/run.sh                 the four workloads, every end-to-end metric
#   benchmark/run.sh --trace         ... plus the traced runs and per-layer metrics
#   benchmark/run.sh --repeat N      the suite N times
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#   benchmark/run.sh compare [--values] A.json... -- B.json...
#
# Run from anywhere; everything it writes goes under the checkout
# (`benchmark/out/` and the cargo target directory).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, absolute so both cargo invocations
# and the benchmark agree on it. The default is the root workspace's own.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the run's result.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
  -p joinmi_serve --bin joinmi_serve >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

export JOINMI_SERVE_BIN="$target/release/joinmi_serve"
exec "$target/release/joinmi_benchmark" "$@"
