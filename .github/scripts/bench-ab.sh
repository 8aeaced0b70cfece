#!/usr/bin/env bash
# Same-runner A/B benchmark gate: compares the working tree against a base
# revision with perfbench, on this machine, in one sitting.
#
#   bash .github/scripts/bench-ab.sh <base-rev>
#
# The base is checked out with `git worktree` under .bench_ab/ and builds
# into .bench_ab/target; the working tree builds into .bench_build, the
# default of perfbench/run.sh. For every workload in BENCHMARK.json the
# script runs 5 pairs of untraced perfbench runs of `run_seconds` each, one
# seed per pair, alternating which side runs first. It fails when any run
# reports `correct: false` or `failed > 0`, or when the working tree's
# median of an end-to-end metric is worse than the base's by more than that
# metric's `bound` (a fraction of the base's median). Both sides share the
# machine's load, so a slower machine does not fail the gate; a slower
# program does.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: bash .github/scripts/bench-ab.sh <base-rev>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")

pairs=5
work=$root/.bench_ab
base_tree=$work/base
mkdir -p "$work"
git worktree remove --force "$base_tree" 2>/dev/null || rm -rf "$base_tree"
git worktree prune
git worktree add --detach --quiet "$base_tree" "$base_rev"
trap 'git -C "$root" worktree remove --force "$base_tree" 2>/dev/null || true' EXIT

seconds=$(jq -r .run_seconds BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
results=$work/results.tsv
: >"$results"
failures=()

# run_side <base|head> <workload> <seed>: one perfbench run; appends
# "<side> <workload> <metric> <value>" lines to $results.
run_side() {
    local side=$1 w=$2 seed=$3 tree target line
    if [ "$side" = base ]; then
        tree=$base_tree target=$work/target
    else
        tree=$root target=$root/.bench_build
    fi
    local log=$work/$side-$w-seed$seed.log
    line=$(CARGO_TARGET_DIR=$target bash "$tree/perfbench/run.sh" --workload "$w" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>"$log" | tail -n 1) || true
    if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null 2>&1; then
        failures+=("$w seed $seed on $side: run not correct (${line:-no result}), see $log")
        tail -n 20 "$log" >&2
        return
    fi
    jq -r --arg side "$side" --arg w "$w" \
        '.metrics | to_entries[] | "\($side) \($w) \(.key) \(.value.value)"' <<<"$line" >>"$results"
}

for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
        for side in $order; do
            run_side "$side" "$w" "$seed"
        done
        echo "bench-ab: $w pair $seed/$pairs done" >&2
    done
done

median() { sort -g | awk '{ v[NR] = $1 } END { if (NR) print v[int((NR + 1) / 2)] }'; }

mapfile -t gated < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json)
printf '%-8s %-12s %12s %12s %8s %6s\n' workload metric base head change bound
for w in "${workloads[@]}"; do
    for spec in "${gated[@]}"; do
        read -r metric better bound <<<"$spec"
        b=$(awk -v w="$w" -v m="$metric" '$1 == "base" && $2 == w && $3 == m { print $4 }' "$results" | median)
        h=$(awk -v w="$w" -v m="$metric" '$1 == "head" && $2 == w && $3 == m { print $4 }' "$results" | median)
        if [ -z "$b" ] || [ -z "$h" ]; then
            failures+=("$w $metric: no measurement")
            continue
        fi
        # `worse` is the head's relative move in the metric's bad direction.
        read -r change worse < <(awk -v b="$b" -v h="$h" -v better="$better" \
            'BEGIN { c = (h - b) / b; print c, (better == "lower") ? c : -c }')
        verdict=ok
        if awk -v x="$worse" -v bound="$bound" 'BEGIN { exit !(x > bound) }'; then
            verdict=FAIL
            failures+=("$w $metric: head median $h vs base $b ($better is better, bound $bound)")
        fi
        printf '%-8s %-12s %12.6g %12.6g %+7.1f%% %5.0f%% %s\n' "$w" "$metric" "$b" "$h" \
            "$(awk -v c="$change" 'BEGIN { print c * 100 }')" \
            "$(awk -v x="$bound" 'BEGIN { print x * 100 }')" "$verdict"
    done
done

if [ ${#failures[@]} -eq 0 ]; then
    echo "bench-ab: PASS against $base_rev"
    exit 0
fi
printf 'FAIL %s\n' "${failures[@]}"
echo "bench-ab: FAIL against $base_rev"
exit 1
