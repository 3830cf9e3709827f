#!/usr/bin/env bash
# The benchmark's one command:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Builds both binaries from source (offline; a no-op after the first run),
# then runs the one `--trace` selects: `bench` for the end-to-end metrics,
# `traced` for the per-layer ones. Its last line of output is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The binaries write under benchmark/out relative to the checkout's root.
cd "$here/.."

bin=bench
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == "--trace" && "${args[i + 1]:-}" == "1" ]]; then
    bin=traced
  fi
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/$bin" "$@"
