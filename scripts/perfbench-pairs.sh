#!/bin/sh
# Alternating perfbench pairs: a parent commit's committed files
# against this checkout, on one BENCHMARK.json workload. Run from the
# root of a checkout:
#
#   sh scripts/perfbench-pairs.sh PARENT WORKLOAD [PAIRS]
#
# PARENT (any git revision) is exported with `git archive` into
# .perfbench-parent/, a dot-directory the checkout's dune ignores, and
# removed when the script exits. Pair s, for s = 1 .. PAIRS (default
# 10), runs perfbench/run.sh at seed s for BENCHMARK.json's
# run_seconds in both trees, the parent first when s is odd. The
# script prints each pair's end-to-end metrics, each side's median and
# quartiles, the change's median relative to the parent's, and the
# number of pairs the change won (a tie counts for neither side). Raw
# result lines are kept in .bench_out/pairs-WORKLOAD.txt.
set -e
parent=$1 workload=$2 pairs=${3:-10}
if [ -z "$parent" ] || [ -z "$workload" ]; then
  echo "usage: sh scripts/perfbench-pairs.sh PARENT WORKLOAD [PAIRS]" >&2
  exit 2
fi
if ! git rev-parse -q --verify "$parent^{commit}" > /dev/null; then
  echo "perfbench-pairs: $parent is not a commit" >&2
  exit 2
fi
if ! awk '/"workloads"/ { w = 1 } /"end_to_end"/ { w = 0 } w' BENCHMARK.json |
     grep -q "\"name\": \"$workload\""; then
  echo "perfbench-pairs: $workload is not a BENCHMARK.json workload" >&2
  exit 2
fi
secs=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
# name better bound, one line per end-to-end metric
metrics=$(awk '/"end_to_end"/ { e = 1 } /"per_layer"/ { e = 0 }
  e && /"name"/ { gsub(/[",]/, "", $2); n = $2 }
  e && /"better"/ { gsub(/[",]/, "", $2); b = $2 }
  e && /"bound"/ { gsub(/[",]/, "", $2); print n, b, $2 }' BENCHMARK.json)
dir=.perfbench-parent
rm -rf "$dir"
trap 'rm -rf "$dir"' EXIT INT TERM
mkdir -p "$dir" .bench_out
git archive "$parent" | tar -x -C "$dir"
log=.bench_out/pairs-$workload.txt
: > "$log"

run() { # side tree seed
  line=$(cd "$2" && sh perfbench/run.sh --workload "$workload" --seed "$3" \
           --seconds "$secs" --trace 0 | tail -n 1)
  echo "$1 $3 $line" >> "$log"
}

s=1
while [ "$s" -le "$pairs" ]; do
  if [ $((s % 2)) -eq 1 ]; then run parent "$dir" "$s"; run change . "$s"
  else run change . "$s"; run parent "$dir" "$s"; fi
  s=$((s + 1))
done

# One row per run: side, seed, correct, failed, then each metric.
echo "$metrics" | awk -v logf="$log" '
  { name[NR] = $1; better[NR] = $2; bound[NR] = $3; m = NR }
  function val(line, key,   i, rest) {
    i = index(line, "\"" key "\":")
    if (i == 0) return ""
    rest = substr(line, i + length(key) + 3)
    sub(/^\{"value":/, "", rest)
    sub(/[,}].*/, "", rest)
    return rest
  }
  function q(a, n, p,   x, i, j, t) {
    for (i = 1; i <= n; i++) s[i] = a[i]
    for (i = 2; i <= n; i++) {
      t = s[i]
      for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
      s[j + 1] = t
    }
    x = 1 + (n - 1) * p; i = int(x)
    return i >= n ? s[n] : s[i] + (x - i) * (s[i + 1] - s[i])
  }
  END {
    while ((getline line < logf) > 0) {
      split(line, f, " "); side = f[1]; seed = f[2]
      ok = val(line, "correct"); bad = val(line, "failed")
      row = sprintf("%-6s seed %-3s correct=%s failed=%s", side, seed, ok, bad)
      k = (side == "parent") ? ++np : ++nc
      for (i = 1; i <= m; i++) {
        v = val(line, name[i]); row = row sprintf(" %s=%s", name[i], v)
        if (side == "parent") P[i, k] = v; else C[i, k] = v
      }
      print row
    }
    n = (np < nc) ? np : nc
    printf "\n%-12s %-28s %-28s %8s %7s %6s\n", "metric", "parent median [q1, q3]",
      "change median [q1, q3]", "change", "wins", "bound"
    for (i = 1; i <= m; i++) {
      wins = 0
      for (k = 1; k <= n; k++) {
        pv[k] = P[i, k] + 0; cv[k] = C[i, k] + 0
        if (better[i] == "higher" ? cv[k] > pv[k] : cv[k] < pv[k]) wins++
      }
      pm = q(pv, n, 0.5); cm = q(cv, n, 0.5)
      printf "%-12s %-28s %-28s %+7.1f%% %3d/%-3d %5.0f%%\n", name[i],
        sprintf("%.4g [%.4g, %.4g]", pm, q(pv, n, 0.25), q(pv, n, 0.75)),
        sprintf("%.4g [%.4g, %.4g]", cm, q(cv, n, 0.25), q(cv, n, 0.75)),
        pm == 0 ? 0 : 100 * (cm - pm) / pm, wins, n, 100 * bound[i]
    }
  }'
