#!/usr/bin/env bash
# Paired end-to-end benchmark: a git revision against the working tree.
#
# Usage:
#   scripts/bench_pair.sh REV [--runs K] [--seconds S] [--workload W] [--seed N]
#
# REV is checked out in a detached git worktree under .bench_build/, then
# bench/run.sh runs K pairs (default 5) of one run on REV and one on the
# working tree, S seconds each (default 5). Odd pairs run REV first and even
# pairs the working tree first, so neither a slow spell of the host nor the
# position within a pair lands on one side only: on a shared host one
# commit's throughput can spread by half between single runs, so one run of
# each side cannot size a change.
#
# For every metric the script prints each side's quartiles over its K runs
# (q1, median, q3), the ratio of the medians new/old, and in how many pairs
# the new run beat the old one in the metric's direction from BENCHMARK.json
# ("better": higher or lower; ties count for neither side, and "-" marks a
# metric without a direction). A gain is claimed only when new wins at least
# nine tenths of the pairs and the medians differ by more than old's
# q3 - q1. The script exits non-zero if any run fails.
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
# Each run is a background job in its own process group (set -m), so that
# stopping the script stops the whole run (bench/run.sh, its go build, the
# bench binary) before the worktree it runs from is removed. The script
# waits on the job rather than running it in the foreground so that INT
# and TERM reach their traps at once, not when the run ends.
set -m
child=
stop_child() {
	if [ -n "$child" ]; then
		kill -TERM -- -"$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
}
trap 'stop_child; git -C "$root" worktree remove --force "$base"; git -C "$root" worktree prune' EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# one SIDE DIR: runs the benchmark in checkout DIR and keeps the JSON line
# of its standard output as $out/SIDE.K.
one() {
	bash "$2/bench/run.sh" --workload "$workload" --seconds "$seconds" --seed "$seed" >"$out/$1.log" &
	child=$!
	wait "$child"
	child=
	tail -n 1 "$out/$1.log" >"$out/$1.$k"
}
for k in $(seq 1 "$runs"); do
	if [ $((k % 2)) -eq 1 ]; then
		one old "$base"
		one new "$root"
	else
		one new "$root"
		one old "$base"
	fi
	echo "pair $k/$runs done" >&2
done

# metrics SIDE: one "name pair value" line per metric of every run of SIDE.
metrics() {
	for k in $(seq 1 "$runs"); do
		grep -o '"[^"]*":{"value":[^,}]*' "$out/$1.$k" | sed "s/^\"\\([^\"]*\\)\":{\"value\":/\\1 $k /"
	done
}
metrics old >"$out/old.all"
metrics new >"$out/new.all"
# "name better" per metric BENCHMARK.json declares. A run of every workload
# prefixes each metric with its workload's name, which the lookup strips.
tr -d ' \n' <"$root/BENCHMARK.json" | grep -o '"name":"[^"]*","unit":"[^"]*","better":"[^"]*"' |
	sed 's/^"name":"\([^"]*\)".*"better":"\([^"]*\)"$/\1 \2/' >"$out/better"
printf '%-42s %32s %32s %7s %5s\n' metric "old($rev) q1/med/q3" "new q1/med/q3" ratio wins
awk -v runs="$runs" '
	FILENAME ~ /better$/ { better[$1] = $2; next }
	FILENAME ~ /old.all$/ { old[$1, $2] = $3; names[$1] = 1; next }
	{ new[$1, $2] = $3 }
	# quart sorts the n values of a[1..n] and sets q[1..3] to their
	# quartiles, interpolated between order statistics.
	function quart(a, n, q,    i, j, t, h, lo) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		for (i = 1; i <= 3; i++) {
			h = (n - 1) * i / 4 + 1; lo = int(h)
			q[i] = (lo >= n) ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
	}
	END {
		for (name in names) {
			m = name; if (!(m in better)) sub(/^[^.]*\./, "", m)
			dir = better[m]; n = 0; wins = 0
			delete o; delete w
			for (k = 1; k <= runs; k++) {
				if (!((name, k) in old) || !((name, k) in new)) continue
				o[++n] = old[name, k]; w[n] = new[name, k]
				if (dir == "higher" && w[n] > o[n] || dir == "lower" && w[n] < o[n]) wins++
			}
			if (n == 0) continue
			quart(o, n, qo); quart(w, n, qn)
			r = (qo[2] == 0) ? (qn[2] == 0 ? "1" : "inf") : sprintf("%.3f", qn[2] / qo[2])
			printf "%-42s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %7s %5s\n", name,
				qo[1], qo[2], qo[3], qn[1], qn[2], qn[3], r, (dir == "" ? "-" : wins "/" n)
		}
	}' "$out/better" "$out/old.all" "$out/new.all" | sort
