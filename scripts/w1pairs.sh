#!/bin/sh
# w1pairs.sh: paired W1 runs of a base commit against this checkout,
# the method of the choosing-metrics guide for claiming (or ruling out)
# a change in an end-to-end metric on a small shared sandbox.
#
#   sh scripts/w1pairs.sh <base-ref> [workload] [pairs]
#
# base-ref is exported with `git archive` into a temporary directory;
# the change is the working tree the script is run from (module root),
# uncommitted edits included. Each pair is one timed run of each side
# (`go run ./benchmark --workload W --seed $SEED --seconds N --trace 0`,
# N = BENCHMARK.json's run_seconds, so both sides build and drive their
# own mdserver with their own copy of benchmark/); which side goes first
# alternates from pair to pair. Defaults: mixed_sharded, 10 pairs,
# SEED=1 (set SEED in the environment for a seed the change was not
# written against).
#
# Prints, per end-to-end metric: each side's median and quartiles over
# the pairs, the ratio of the medians, in how many pairs the change was
# better (ties count for neither), and a verdict: "gain" or "worse"
# only where that side won at least nine tenths of the pairs and the
# medians differ by more than the distance between the base's
# quartiles; "worse" becomes "REGRESSION" when the change's median is
# worse than the base's by more than the metric's BENCHMARK.json bound.
# Exits non-zero if a run fails or reports an incorrect answer.
base=${1:?usage: w1pairs.sh <base-ref> [workload] [pairs]}
workload=${2:-mixed_sharded}
pairs=${3:-10}
seed=${SEED:-1}
go=${GO:-go}

[ -f BENCHMARK.json ] || { echo "w1pairs: run from the module root" >&2; exit 1; }
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" && git archive "$base" | tar -x -C "$tmp/base" || exit 1

# one timed run in directory $1; appends "pair side metric value" lines
run_side() {
	(cd "$1" && "$go" run ./benchmark --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) >"$tmp/out" 2>"$tmp/err" ||
		{ echo "w1pairs: pair $3 $2 run failed:" >&2; tail -n 5 "$tmp/out" "$tmp/err" >&2; exit 1; }
	tail -n 1 "$tmp/out" | awk -v pair="$3" -v side="$2" '
		!/"correct":true/ { print "w1pairs: pair " pair " " side " answered incorrectly: " $0 > "/dev/stderr"; exit 1 }
		{
			if (match($0, /"failed":[0-9]+/)) print pair, side, "failed_ops", substr($0, RSTART + 9, RLENGTH - 9)
			s = $0
			while (match(s, /"[a-z_0-9]+":\{"value":[-+.eE0-9]+/)) {
				m = substr(s, RSTART, RLENGTH)
				split(m, kv, /":\{"value":/)
				print pair, side, substr(kv[1], 2), kv[2]
				s = substr(s, RSTART + RLENGTH)
			}
		}' >>"$tmp/results" || exit 1
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
	for side in $order; do
		if [ "$side" = base ]; then dir="$tmp/base"; else dir=.; fi
		run_side "$dir" "$side" "$i"
	done
	echo "pair $i/$pairs done ($order)" >&2
	i=$((i + 1))
done

echo "W1 pairs: base=$base workload=$workload pairs=$pairs seed=$seed seconds=$seconds"
# "better" and "bound" per metric come from BENCHMARK.json (one key per line).
awk -v pairs="$pairs" '
	function sorted(side, m,    n, i, j, t) { # fills v[1..n] ascending, returns n
		n = 0
		for (i = 1; i <= pairs; i++) if ((i, side, m) in val) v[++n] = val[i, side, m]
		for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
		return n
	}
	function quantile(n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
	FNR == NR {
		if ($1 == "\"name\":") { name = $2; gsub(/[",]/, "", name) }
		if ($1 == "\"better\":") { b = $2; gsub(/[",]/, "", b); better[name] = b }
		if ($1 == "\"bound\":") bound[name] = $2 + 0
		next
	}
	{ val[$1, $2, $3] = $4 + 0; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
	END {
		better["failed_ops"] = "lower"
		printf "%-26s %-6s %34s %34s %7s %6s %5s  %s\n", "metric", "better", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "ties", "verdict"
		for (k = 1; k <= nm; k++) {
			m = order[k]
			n = sorted("base", m); bm = quantile(n, .5); bq1 = quantile(n, .25); bq3 = quantile(n, .75)
			n = sorted("change", m); cm = quantile(n, .5); cq1 = quantile(n, .25); cq3 = quantile(n, .75)
			wins = ties = losses = 0
			for (i = 1; i <= pairs; i++) {
				d = val[i, "change", m] - val[i, "base", m]
				if (better[m] == "lower") d = -d
				if (d > 0) wins++; else if (d < 0) losses++; else ties++
			}
			gap = cm - bm; if (gap < 0) gap = -gap
			verdict = "-"
			if (gap > bq3 - bq1 && wins >= 0.9 * pairs) verdict = "gain"
			if (gap > bq3 - bq1 && losses >= 0.9 * pairs) verdict = "worse, within bound"
			if (m in bound && bm != 0 && (better[m] == "lower" ? cm / bm - 1 : 1 - cm / bm) > bound[m]) verdict = "REGRESSION"
			printf "%-26s %-6s %12.4f [%9.4f,%9.4f] %12.4f [%9.4f,%9.4f] %7s %3d/%-2d %5d  %s\n", m, better[m], bm, bq1, bq3, cm, cq1, cq3, (bm != 0 ? sprintf("%.3f", cm / bm) : "-"), wins, pairs, ties, verdict
		}
	}' BENCHMARK.json "$tmp/results"
