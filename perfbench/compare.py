"""Compare two result sets of the wfano benchmark.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that `perfbench/run.py --out FILE` appends.
Runs of the two sides are paired by workload, trace mode and seed (the k-th
run of a seed on one side with the k-th on the other).  For every workload
and metric the report gives each side's median and quartiles, the pairs the
new side wins, and a verdict:

* improved: the new side wins at least nine tenths of at least ten pairs
  (ties count for neither side), and the medians differ in its favour by
  more than the base side's spread, the distance between its quartiles
  (with fewer than ten pairs, such a result is unresolved);
* worse: the new median is worse than the base median by more than the
  metric's bound in BENCHMARK.json (for a metric without a bound, the
  improved rule with the sides swapped);
* unresolved: the base side's spread is wider than the bound, unless every
  new run reads better than every base run; or, without a bound, the medians
  differ but neither rule above holds;
* unchanged: otherwise.

A per-layer value that repeats exactly on each side (a count) is improved,
worse or unchanged by direct comparison, whatever the number of pairs.

A gain does not count when the new side failed more operations: its
improved verdicts are reported as unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {seed key: result}} from one JSON-lines file."""
    runs: dict = defaultdict(dict)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        group = runs[(record["workload"], record["trace"])]
        occurrence = sum(1 for seed, _ in group if seed == record["seed"])
        group[(record["seed"], occurrence)] = record["result"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]], lower: bool, bound) -> tuple[str, int]:
    sign = -1 if lower else 1
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    q1, base_median, q3 = quartiles(base)
    spread = q3 - q1
    gain = sign * (statistics.median(new) - base_median)
    if bound is None and len(set(base)) == 1 and len(set(new)) == 1:
        # a count that repeats exactly on each side needs no pairs
        return ("unchanged" if gain == 0 else "improved" if gain > 0 else "worse"), wins
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return ("improved" if len(pairs) >= 10 else "unresolved"), wins
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", wins
        return ("unchanged" if gain == 0 else "unresolved"), wins
    if -gain > bound * abs(base_median):
        return "worse", wins
    every_run_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound * abs(base_median) and not every_run_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base_runs, new_runs = load(argv[0]), load(argv[1])
    print("workload trace metric | base median [q1, q3] | new median [q1, q3] | new wins/pairs | verdict")
    for group in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[group], new_runs[group]
        keys = sorted(set(base) & set(new))
        failed = [sum(r["failed"] for r in side.values()) for side in (base, new)]
        attempted = [sum(r["attempted"] for r in side.values()) for side in (base, new)]
        workload, trace = group
        print(f"{workload} trace={trace}: failed {failed[0]}/{attempted[0]} base, {failed[1]}/{attempted[1]} new")
        names = sorted(set.intersection(*(set(r["metrics"]) for r in [*base.values(), *new.values()])))
        for name in names:
            spec = specs.get(name, {"better": "lower"})
            b = [r["metrics"][name]["value"] for r in base.values()]
            n = [r["metrics"][name]["value"] for r in new.values()]
            pairs = [(base[k]["metrics"][name]["value"], new[k]["metrics"][name]["value"]) for k in keys]
            result, wins = verdict(b, n, pairs, spec["better"] == "lower", spec.get("bound"))
            if result == "improved" and failed[1] > failed[0]:
                result = "unresolved"
            bq, nq = quartiles(b), quartiles(n)
            print(
                f"{workload} trace={trace} {name} | {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] | "
                f"{nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] | {wins}/{len(pairs)} | {result}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
