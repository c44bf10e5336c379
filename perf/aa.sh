#!/bin/sh
# A/A noise floor of the host-time benchmark. Runs every workload of
# BENCHMARK.json RUNS times per side on this one commit, the sides
# alternating A B A B ..., each run with its own seed, then prints for each
# (workload, metric) the median, the interquartile range and the max/min
# spread (both as shares of the median), the gap between the two sides'
# medians, and the bound this spread asks for: max(bound in BENCHMARK.json,
# 1.5 x max/min spread, 3 x interquartile range), capped at 0.25.
#
# usage: sh perf/aa.sh [RUNS_PER_SIDE] [SECONDS]    (defaults 3 and the
#        run_seconds of BENCHMARK.json); the raw results go to perf-aa.jsonl
set -eu
cd "$(dirname "$0")/.."
runs=${1:-3}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
out=perf-aa.jsonl
: > "$out"
seed=0
for _ in $(seq "$runs"); do
  for side in A B; do
    seed=$((seed + 1))
    for w in $workloads; do
      result=$(sh perf/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
      printf '{"side": "%s", "workload": "%s", "seed": %d, "result": %s}\n' \
        "$side" "$w" "$seed" "$result" >> "$out"
    done
  done
done
python3 - "$out" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
bad = [r for r in rows if not r["result"]["correct"]]
if bad:
    sys.exit("aa: %d incorrect runs" % len(bad))
print("%-15s %-16s %12s %7s %7s %7s %6s %6s" %
      ("workload", "metric", "median", "iqr", "maxmin", "sides", "bound", "needs"))
worst = {}
for w in [w["name"] for w in bench["workloads"]]:
    for m in bench["end_to_end"]:
        name = m["name"]
        vals = [r["result"]["metrics"][name]["value"] for r in rows if r["workload"] == w]
        side = {s: statistics.median(r["result"]["metrics"][name]["value"]
                                     for r in rows if r["workload"] == w and r["side"] == s)
                for s in "AB"}
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr, spread = (q3 - q1) / med, (max(vals) - min(vals)) / med
        gap = abs(side["A"] - side["B"]) / med
        needs = min(0.25, max(m["bound"], 1.5 * spread, 3 * iqr))
        worst[name] = max(worst.get(name, 0), needs)
        print("%-15s %-16s %12.6g %7.4f %7.4f %7.4f %6.3f %6.3f" %
              (w, name, med, iqr, spread, gap, m["bound"], needs))
print()
for m in bench["end_to_end"]:
    print("%-16s needs bound %.3f (now %.3f)" % (m["name"], worst[m["name"]], m["bound"]))
EOF
