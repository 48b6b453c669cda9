"""The wfano benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out RESULTS.jsonl] [--limit K]

NAME is one of enum4, classify4, classify5_lift, verify4, or `all` to run the
four in turn.  The command launches one pass after another, each in a fresh
interpreter (perfbench/worker.py), until S seconds have gone by; every `wfano`
CLI call starts with cold in-process caches, and so does every pass.  The
seed shuffles the order of the catalog systems; enum4 has no random input.
setup_s (interpreter start, `import wfano`, loading the inputs) is sampled
on every pass and on three set-up-only launches after each pass.

Times are scaled to a nominal host speed.  A shared host can run the same
pass at half speed for seconds to minutes at a time, so right before and
after every pass a fixed pure-Python loop that does not touch wfano
(perfbench/probe.py) is timed in a fresh interpreter, and that pass's times
(the pass, its items, its set-ups) are divided by the mean probe time over
PROBE_NOMINAL_S.  The probe never runs wfano code, so a slower wfano reads
slower at any host speed.  The median slowdown of a run is printed, and
stored by --out; peak RSS is not scaled.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics; the tracing overhead is the traced median pass time
minus the untraced one.  Its spans, the calls and self times per layer and
parent layer, and the overhead go to .perfbench_out/trace-NAME-seedN.json.

Every output is checked against perfbench/expected.json.  A failed check
counts as a failed operation, and any failure makes the command exit 1.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it print each metric with its unit.
--out appends each workload's result to a JSON-lines file that
perfbench/compare.py reads.  --limit keeps the first K systems per pass
(the self-test's tiny size); pinned whole-catalog tallies then are skipped.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enum4", "classify4", "classify5_lift", "verify4")
PASS_TIMEOUT_S = 170
# set-up-only launches after each pass: set-up is short and noisy, so it gets more samples
SETUP_SAMPLES_PER_PASS = 3
# perfbench/probe.py's time on a quiet 2-core Xeon host; times are reported at that speed
PROBE_NOMINAL_S = 0.18


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_pass(workload: str, seed: int, mode: str, limit: int) -> dict:
    """One pass in a fresh interpreter; setup_s runs from launch to the end of its set-up."""
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(limit)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not end within {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("ready") - launched
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, lowered until at least ten samples lie beyond it, but not below
    the median: enum4, with one item per pass, has too few samples for any tail."""
    q = max(50, min(q, 100 - 1000 // len(values)))
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe() -> float:
    """Wall seconds of the machine-speed probe, in a fresh interpreter."""
    command = [sys.executable, str(HERE / "probe.py")]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout)


def end_to_end(passes: list[dict]) -> dict:
    """Times scaled by each pass's slowdown to the probe's nominal speed; peak RSS as measured."""
    items = [ms / p["slowdown"] for p in passes for ms in p["items_ms"]]
    return {
        "pass_s": statistics.median(p["pass_s"] / p["slowdown"] for p in passes),
        "item_p50_ms": percentile(items, 50),
        "item_p99_ms": percentile(items, 99),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "setup_s": statistics.median(s / p["slowdown"] for p in passes for s in p["setups"]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics, and the counts that did not repeat exactly across traced passes."""
    metrics = {}
    unsteady = []
    for name, first in traced[0]["layers"].items():
        values = [p["layers"][name] for p in traced]
        if isinstance(first, int):
            if len(set(values)) != 1:
                unsteady.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(p["pass_s"] for p in traced) - statistics.median(
        p["pass_s"] for p in plain
    )
    return metrics, unsteady


def write_trace(workload: str, seed: int, plain: list[dict], traced: list[dict], metrics: dict) -> Path:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "overhead_s": metrics["trace.overhead_s"],
        "untraced_pass_s": [p["pass_s"] for p in plain],
        "traced_pass_s": [p["pass_s"] for p in traced],
        "metrics": metrics,
        # layers, counts and spans of the first traced pass
        **traced[0]["trace"],
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def run_workload(workload: str, seed: int, seconds: int, trace: bool, limit: int, units: dict) -> dict:
    deadline = time.monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    slowdown = None
    while True:
        before = None if trace else probe()
        plain.append(run_pass(workload, seed, "run", limit))
        if trace:
            traced.append(run_pass(workload, seed, "trace", limit))
        else:
            # the host's speed drifts within seconds: probe on both sides of the pass it scales
            plain[-1]["slowdown"] = (before + probe()) / 2 / PROBE_NOMINAL_S
            plain[-1]["setups"] = [plain[-1]["setup_s"]] + [
                run_pass(workload, seed, "setup", limit)["setup_s"] for _ in range(SETUP_SAMPLES_PER_PASS)
            ]
        if time.monotonic() >= deadline:
            break
    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    failed = len(failures)
    if trace:
        metrics, unsteady = per_layer(plain, traced)
        attempted += 1  # one more operation: the counts of every traced pass agree
        failed += bool(unsteady)
        failures += unsteady
        print(f"{workload}: trace written to {write_trace(workload, seed, plain, traced, metrics)}")
    else:
        metrics = end_to_end(plain)
        slowdown = statistics.median(p["slowdown"] for p in plain)
        print(f"{workload}: median host slowdown {slowdown} (probe time / {PROBE_NOMINAL_S} s)")
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(f"{workload}: {len(plain)} untraced and {len(traced)} traced passes, seed {seed}")
    for name in sorted(metrics):
        print(f"{workload} {name} = {metrics[name]} {units[name]}")
    print(f"{workload} fail_share = {failed / attempted} ({failed} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"{workload} FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    return result, slowdown


def check_checkout() -> dict:
    """Refuse to run without the sources and the pinned inputs; return BENCHMARK.json."""
    if not (ROOT / "src" / "wfano" / "__init__.py").is_file():
        raise BenchError(f"no wfano sources under {ROOT / 'src'}")
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256((HERE / "data" / "fourfolds.json").read_bytes()).hexdigest()
    if digest != expected["catalog_sha256"]:
        raise BenchError(f"catalog sha256 {digest} does not match the pinned value")
    # byte-compile first, so that set-up time is that of an installed package
    if not compileall.compile_dir(ROOT / "src" / "wfano", quiet=1):
        raise BenchError("wfano sources do not compile")
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, default=None, help="append results as JSON lines")
    parser.add_argument("--limit", type=int, default=0, help="systems per pass (0: all)")
    args = parser.parse_args(argv)
    try:
        bench = check_checkout()
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in bench[kind]}
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results, slowdowns = {}, {}
        for workload in names:
            results[workload], slowdowns[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), args.limit, units
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as fh:
            for workload, result in results.items():
                record = {"workload": workload, "seed": args.seed, "trace": args.trace, "limit": args.limit}
                record |= {"slowdown": slowdowns[workload], "result": result}
                fh.write(json.dumps(record) + "\n")
    if len(results) == 1:
        (final,) = results.values()
    else:
        for result in results.values():
            print(json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
