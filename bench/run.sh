#!/usr/bin/env bash
# The stack benchmark's one command. Builds the program under test (`pqo`,
# from the root workspace) and the benchmark (`pqo-stackbench`, this
# directory's own package), both offline and in release mode, then runs.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload (what BENCHMARK.json's command is given);
#       the last line of standard output is the result as one JSON object
#   bench/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload in turn; one JSON object with all results at the end
#   bench/run.sh --aa 1 [--seed N] [--seconds S]
#       two sets of three full runs of this build, compared metric by metric
#
# Exits non-zero when a build fails, a server cannot be started or stopped,
# or any output check fails. Child servers are started, measured and reaped
# by pqo-stackbench itself, which kills them on every failure path.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to where we were called from.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to standard error: standard output carries the result.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p pqo-cli >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

bench="$target/release/pqo-stackbench"
common=(--pqo-bin "$target/release/pqo" --bench-dir "$here")

workload=""
passthrough=()
while (($#)); do
    case "$1" in
    --workload)
        workload="${2:?--workload needs a name}"
        shift 2
        ;;
    --*)
        passthrough+=("$1" "${2:?$1 needs a value}")
        shift 2
        ;;
    *)
        echo "run.sh: unexpected argument '$1'" >&2
        exit 64
        ;;
    esac
done

if [[ -n "$workload" ]]; then
    exec "$bench" --workload "$workload" "${common[@]}" ${passthrough[@]+"${passthrough[@]}"}
fi
for arg in ${passthrough[@]+"${passthrough[@]}"}; do
    if [[ "$arg" == "--aa" ]]; then
        exec "$bench" "${common[@]}" "${passthrough[@]}"
    fi
done

# Every workload in turn. Each run prints its own table and result line; the
# result lines are gathered into one document at the end.
status=0
results=()
for w in wire_hit embedded_bigjoin embedded_corpus replica_follow; do
    out="$("$bench" --workload "$w" "${common[@]}" ${passthrough[@]+"${passthrough[@]}"})" || status=$?
    printf '%s\n\n' "$out"
    results+=("\"$w\": $(tail -n 1 <<<"$out")")
done
if ls "$here"/out/layers_*.md >/dev/null 2>&1; then
    cat "$here"/out/layers_*.md >"$here/out/layers.md"
fi
(
    IFS=,
    printf '{%s}\n' "${results[*]}"
)
exit "$status"
