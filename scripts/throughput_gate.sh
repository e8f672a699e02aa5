#!/bin/sh
# Same-job throughput A/B for CI: build the base commit beside the head in a
# git worktree with its own CARGO_TARGET_DIR, run the `runtime_throughput`
# bench in 5 alternating base/head pairs, print every run, and compare the
# head median of `single_shard_segs_per_sec` with 0.9x the base median.
#
# Report only: a head median below the bound prints a warning and the script
# still exits 0. Benches before the median-of-5 leg time one ~0.1 s serve,
# and a 5-pair median of those reads 0.64x parent against parent, so the
# comparison fails the job only once both sides carry the repeated leg.
#
# Usage (from anywhere inside the checkout, with full history fetched):
#   scripts/throughput_gate.sh
# The base is $BASE_SHA, else HEAD~1 (an unset, all-zero or unknown revision
# falls through to HEAD~1). Scratch files go to target/throughput-gate.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
base=${BASE_SHA:-}
if [ -z "$base" ] || ! git cat-file -e "$base^{commit}" 2>/dev/null; then
    base=HEAD~1
fi
base=$(git rev-parse "$base^{commit}")
gate=$root/target/throughput-gate

rm -rf "$gate"
mkdir -p "$gate"
git worktree prune
git worktree add --detach "$gate/base" "$base" >/dev/null
trap 'git worktree remove --force "$gate/base" || true' EXIT
echo "throughput A/B: head $(git rev-parse --short HEAD) vs base $(git rev-parse --short "$base"), 5 pairs"

bench() { # <label> <dir> <target-dir> <json-out>
    (cd "$2" && CARGO_TARGET_DIR="$3" VETL_BENCH_JSON="$4" \
        cargo bench -q -p vetl-bench --bench runtime_throughput >"$4.log" 2>&1) ||
        { cat "$4.log"; echo "$1 bench failed"; exit 1; }
}

# Build both sides before timing anything.
(cd "$gate/base" && CARGO_TARGET_DIR="$gate/base-target" \
    cargo bench -q -p vetl-bench --bench runtime_throughput --no-run)
cargo bench -q -p vetl-bench --bench runtime_throughput --no-run

for i in 1 2 3 4 5; do
    # Alternate which side runs first so drift on the runner hits both.
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        if [ "$side" = base ]; then
            bench base "$gate/base" "$gate/base-target" "$gate/base-$i.json"
        else
            bench head "$root" "${CARGO_TARGET_DIR:-$root/target}" "$gate/head-$i.json"
        fi
    done
done

python3 - "$gate" <<'PY'
import json, statistics, sys

gate = sys.argv[1]
runs = {}
for side in ("base", "head"):
    runs[side] = [
        json.load(open(f"{gate}/{side}-{i}.json"))["runtime"]["single_shard_segs_per_sec"]
        for i in range(1, 6)
    ]
    print(f"{side}: " + ", ".join(f"{v:,.0f}" for v in runs[side]) + " segs/s")
base, head = statistics.median(runs["base"]), statistics.median(runs["head"])
print(f"median base {base:,.0f} -> head {head:,.0f} segs/s ({head / base:.3f}x, bound 0.9x)")
if head < 0.9 * base:
    print("::warning::single-shard throughput median below 0.9x the base median (report only)")
PY
