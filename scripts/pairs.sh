#!/bin/sh
# Alternating parent/change pairs of one benchmark workload: the
# comparison a performance claim rests on (choosing-metrics guide, §8).
#
#	sh scripts/pairs.sh PARENT WORKLOAD FIRST_SEED PAIRS
#
# PARENT is a checkout of the parent commit (git clone, then check the
# sha out); the change is the checkout this script lives in. Pair i runs
# `bash bench/run.sh --workload WORKLOAD --seed FIRST_SEED+i --seconds 26
# --trace 0` once in each tree — the parent first on even seeds, the
# change first on odd ones — and reads the JSON line each run ends with.
# Output: one row per pair (parent→change for the nine end-to-end
# metrics), then per metric each side's quartiles and median, the shift
# of the median against the parent's, and the pairs each side won.
# Exits 1 if any run did not end in a result with "correct":true.
set -eu

[ $# -eq 4 ] || { echo "usage: $0 PARENT WORKLOAD FIRST_SEED PAIRS" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
workload=$2 first=$3 pairs=$4

# run TREE SEED prints the result line of one run.
run() {
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$2" --seconds 26 --trace 0) | tail -n 1
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
seed=$first
while [ "$seed" -lt $((first + pairs)) ]; do
	if [ $((seed % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "seed $seed: $side" >&2
		if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
		printf '%s %s %s\n' "$seed" "$side" "$(run "$tree" "$seed")" >>"$results"
	done
	seed=$((seed + 1))
done

awk '
function value(line, name,    pat) {
	pat = "\"" name "\":[{]\"value\":[^,}]*"
	if (!match(line, pat)) return "nan"
	return substr(line, RSTART + length(name) + 12, RLENGTH - length(name) - 12) + 0
}
# quartile q of v[1..n], sorted ascending, by linear interpolation.
function quartile(v, n, q,    h, lo) {
	h = (n - 1) * q + 1; lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sorted(side, m, out,    i, j, x) {
	for (i = 1; i <= npairs; i++) {
		x = val[side, m, seeds[i]]
		for (j = i - 1; j >= 1 && out[j] > x; j--) out[j + 1] = out[j]
		out[j + 1] = x
	}
}
BEGIN {
	nm = split("setup_s op_s_p50 iter_s_p50 msgs_per_s cpu_s_per_op alloc_mb_per_op peak_rss_mb final_imbalance migrations_per_op", metric, " ")
	higher["msgs_per_s"] = 1 # every other metric is better lower
}
{
	seed = $1; side = $2
	if (index($0, "{\"correct\":true,") == 0) { bad = bad " " seed ":" side; failed = 1 }
	if (!(seed in seen)) { seen[seed] = 1; seeds[++npairs] = seed }
	for (i = 1; i <= nm; i++) val[side, metric[i], seed] = value($0, metric[i])
}
END {
	printf "%-6s", "seed"
	for (i = 1; i <= nm; i++) printf " %21s", metric[i]
	printf "\n"
	for (p = 1; p <= npairs; p++) {
		s = seeds[p]
		printf "%-6s", s
		for (i = 1; i <= nm; i++) printf " %10.4g→%-10.4g", val["parent", metric[i], s], val["change", metric[i], s]
		printf "\n"
	}
	printf "\n%-18s %32s   %32s %8s  %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "median", "pairs won: change, parent"
	for (i = 1; i <= nm; i++) {
		m = metric[i]
		sorted("parent", m, a); sorted("change", m, b)
		won = lost = 0
		for (p = 1; p <= npairs; p++) {
			d = val["change", m, seeds[p]] - val["parent", m, seeds[p]]
			if (m in higher) d = -d
			if (d < 0) won++; else if (d > 0) lost++
		}
		pm = quartile(a, npairs, 0.5); cm = quartile(b, npairs, 0.5)
		printf "%-18s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g %+7.1f%%  %d, %d of %d\n", m,
			quartile(a, npairs, 0.25), pm, quartile(a, npairs, 0.75),
			quartile(b, npairs, 0.25), cm, quartile(b, npairs, 0.75),
			pm == 0 ? 0 : 100 * (cm - pm) / pm, won, lost, npairs
	}
	if (failed) { print "runs without a correct result:" bad; exit 1 }
}' "$results"
