#!/usr/bin/env bash
# One benchmark run: builds the release `ntgd-serve` binary and the
# `perfbench` program from the checkout's sources, then runs `perfbench` with
# the given arguments (`--workload <name> --seed <n> --seconds <s> --trace <0|1>`).
# Run from the repository root.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/ntgd-server || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a stable-tgd source checkout" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p ntgd-server --bin ntgd-serve 1>&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/ntgd-serve" "$@"
