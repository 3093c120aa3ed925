#!/usr/bin/env bash
# Paired end-to-end benchmark: a git revision against the working tree.
#
# Usage:
#   scripts/bench_pair.sh REV [--runs K] [--seconds S] [--workload W] [--seed N]
#
# REV is checked out in a detached git worktree under .bench_build/, then
# bench/run.sh runs alternately on REV and on the working tree, K times
# (default 5) per workload, S seconds each (default 5). Alternating keeps a
# slow spell of the host from landing on one side only: on a shared host one
# commit's throughput can spread by half between single runs, so one run of
# each side cannot size a change.
#
# For every end-to-end metric the script prints the median over the K runs
# of each side and the ratio new/old. Whether a ratio above 1 is a gain
# depends on the metric's direction in BENCHMARK.json (ops_per_s: higher is
# better; the rest: lower). The script exits non-zero if any run fails.
set -euo pipefail

if [ $# -lt 1 ] || [ "${1#-}" != "$1" ]; then
	echo "usage: $0 REV [--runs K] [--seconds S] [--workload W] [--seed N]" >&2
	exit 2
fi
rev=$1
shift
runs=5 seconds=5 workload=all seed=0
while [ $# -gt 0 ]; do
	case $1 in
	--runs) runs=$2 ;;
	--seconds) seconds=$2 ;;
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	*)
		echo "$0: unknown flag $1" >&2
		exit 2
		;;
	esac
	shift 2
done

root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
out="$root/.bench_build/pair"
base="$out/base"
mkdir -p "$out"
git -C "$root" worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git -C "$root" worktree prune
git -C "$root" worktree add --detach --quiet "$base" "$rev"
trap 'git -C "$root" worktree remove --force "$base"; git -C "$root" worktree prune' EXIT

# one SIDE DIR: runs the benchmark in checkout DIR and keeps the JSON line
# of its standard output as $out/SIDE.K.
one() {
	bash "$2/bench/run.sh" --workload "$workload" --seconds "$seconds" --seed "$seed" >"$out/$1.log"
	tail -n 1 "$out/$1.log" >"$out/$1.$k"
}
for k in $(seq 1 "$runs"); do
	one old "$base"
	one new "$root"
	echo "pair $k/$runs done" >&2
done

# metrics SIDE: one "name value" line per metric of every run of SIDE.
metrics() {
	for k in $(seq 1 "$runs"); do
		grep -o '"[^"]*":{"value":[^,}]*' "$out/$1.$k" | sed 's/^"\([^"]*\)":{"value":/\1 /'
	done
}
# medians: "name median" per metric, from "name value" lines on stdin.
medians() {
	sort -k1,1 -k2,2g | awk '
		function flush() { if (n) print name, (n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2) }
		$1 != name { flush(); name = $1; n = 0 }
		{ v[++n] = $2 }
		END { flush() }'
}
metrics old | medians >"$out/old.med"
metrics new | medians >"$out/new.med"
printf '%-42s %14s %14s %8s\n' metric "old($rev)" new ratio
join "$out/old.med" "$out/new.med" | awk '{
	r = ($2 == 0) ? ($3 == 0 ? 1 : "inf") : sprintf("%.3f", $3 / $2)
	printf "%-42s %14.6g %14.6g %8s\n", $1, $2, $3, r
}'
