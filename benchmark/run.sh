#!/usr/bin/env bash
# Builds trinity-benchmark and runs it. README.md has the catalogue.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in this process: the command BENCHMARK.json names.
#       The last line of standard output is the result object.
#   run.sh [seed]
#       tooling checks, then every workload in a fresh child process,
#       untraced then traced; writes out/results.json and
#       out/trace-<workload>.jsonl. Default seed 42.
#   run.sh --selfcheck [seed]
#       the same twice, compared metric by metric against the bounds in
#       ../BENCHMARK.json.
#
# Exits non-zero when a result is wrong, a count does not repeat, the
# tracing overhead guard trips or a tooling check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/trinity-benchmark"

if [ "${1:-}" = "--workload" ]; then
    exec "$bin" --out "$here/out" "$@"
fi

# Tooling hygiene, confined to this package: formatting, and the root
# workspace's lint must stay clean with these files present.
cargo fmt --check --manifest-path "$here/Cargo.toml"
(cd "$here/.." && cargo run --release --offline -q -p trinity-lint) >&2

mode=--suite
if [ "${1:-}" = "--selfcheck" ]; then
    mode=--selfcheck
    shift
fi
exec "$bin" "$mode" --seed "${1:-42}" --out "$here/out" --bounds "$here/../BENCHMARK.json"
