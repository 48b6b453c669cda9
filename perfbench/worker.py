"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE LIMIT

Sets up (imports wfano from the checkout's `src/`, loads the inputs), runs the
workload once over its inputs, then checks every output against
`perfbench/expected.json`.  Prints one JSON object on stdout: `ready` (the
monotonic clock at the end of set-up, which run.py subtracts from its own
launch time), the pass time, per-item latencies, peak RSS, operations and
failures.  MODE is `run`, `trace` (run with the per-layer tracer installed,
and report its trace) or `setup` (stop after set-up and report only
`ready`).  LIMIT > 0 keeps only the first LIMIT systems of the shuffled
catalog (the self-test's tiny size).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CATALOG = HERE / "data" / "fourfolds.json"
EXPECTED = HERE / "expected.json"
ENUM4_ARGS = ["enumerate", "--dim", "4", "--index", "1", "--format", "json"]

sys.path.insert(0, str(SRC))

import wfano  # noqa: E402
from wfano import core, enumeration, monomial, stability  # noqa: E402

if not Path(wfano.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"wfano was imported from {wfano.__file__}, not from {SRC}")

dumps = json.dumps  # the tracer replaces this name to time rendering


def lift(ws: core.WeightSystem) -> core.WeightSystem:
    """(a_1,...,a_6 : d) -> (a_1,...,a_6, d : 2d): index 1, divisible, well-formed, dim 5."""
    return core.WeightSystem(ws.weights + (ws.degree,), 2 * ws.degree)


def load_inputs(workload: str, seed: int, limit: int) -> list:
    """The pass's inputs: the pinned catalog via load_catalog, in the seed's order."""
    if workload == "enum4":
        from click.testing import CliRunner

        from wfano import cli

        return [(CliRunner(), cli.cli, ENUM4_ARGS)]
    systems = list(enumeration.load_catalog(CATALOG).systems)
    random.Random(seed).shuffle(systems)
    if limit:
        systems = systems[:limit]
    if workload == "classify5_lift":
        systems = [lift(ws) for ws in systems]
    return systems


class Pass:
    """Timings, outputs and check results of one pass."""

    def __init__(self, expected: dict, limit: int, tracer) -> None:
        self.expected = expected
        self.full = not limit
        self.items_ms: list[float] = []
        self.output_bytes = 0
        self.ops = 0
        self.failures: list[str] = []
        self.span = tracer.span if tracer else (lambda name, system=None: contextlib.nullcontext())
        self.pass_s: float | None = None
        self.start = time.perf_counter()

    def stop(self) -> None:
        """End of the timed pass; the checks that follow are not timed."""
        self.pass_s = time.perf_counter() - self.start

    def check(self, ok: bool, what: str) -> None:
        """One operation: an item or a whole-pass check.  Failing counts once."""
        self.ops += 1
        if not ok:
            self.failures.append(what)

    def render(self, payload) -> None:
        self.output_bytes += len(dumps(payload, indent=2))

    def expected_verdict(self, ws: core.WeightSystem) -> str:
        unknown = self.expected["unknown"]
        return "unknown" if ws.render() in unknown else "k_stable"

    def check_counts(self, counts: dict, expected_items: Counter) -> None:
        """Tally against the per-item expectation; on the full catalog, against the pin."""
        tally = {k: v for k, v in counts.items() if v}
        self.check(tally == dict(expected_items), f"tally {tally} != per-item {dict(expected_items)}")
        if self.full:
            pinned = {k: v for k, v in self.expected["counts"].items() if v}
            self.check(tally == pinned, f"tally {tally} != pinned {pinned}")


def run_enum4(p: Pass, inputs: list) -> None:
    outputs = []
    for runner, command, args in inputs:
        t = time.perf_counter()
        result = runner.invoke(command, args)
        p.items_ms.append((time.perf_counter() - t) * 1e3)
        outputs.append(result)
    p.stop()
    for result in outputs:
        text = result.output.encode()
        p.output_bytes += len(text)
        digest = hashlib.sha256(text).hexdigest()
        p.check(
            result.exit_code == 0 and digest == p.expected["output_sha256"],
            f"enumerate exit {result.exit_code}, sha256 {digest}",
        )


def run_classify4(p: Pass, systems: list) -> None:
    # batch_classify hides its per-system calls; a thin hook times each one
    classify = stability.classify
    timed: list[tuple[object, float]] = []

    def timed_classify(*args, **kwargs):
        t = time.perf_counter()
        report = classify(*args, **kwargs)
        timed.append((report, time.perf_counter() - t))
        return report

    stability.classify = timed_classify
    catalog = enumeration.EnumerationResult(
        query=enumeration.EnumerationQuery(num_weights=6, index=1),
        systems=tuple(systems),
        complete=p.full,
    )
    summary = stability.batch_classify(catalog)
    for report, seconds in timed:
        t = time.perf_counter()
        p.render(stability.report_to_json(report))
        p.items_ms.append((seconds + time.perf_counter() - t) * 1e3)
    p.render(stability.summary_to_json(summary))
    p.stop()
    stability.classify = classify

    expected_items = Counter()
    for ws, (report, _) in zip(systems, timed):
        want = p.expected_verdict(ws)
        expected_items[want] += 1
        p.check(
            report.system == ws and report.verdict.value == want,
            f"{ws.render()}: {report.verdict.value}, expected {want}",
        )
    p.check(summary.total == len(systems), f"summary total {summary.total}")
    p.check_counts(summary.counts, expected_items)
    unknown = sorted(r.system.render() for r in summary.unknown)
    want = sorted(ws.render() for ws in systems if p.expected_verdict(ws) == "unknown")
    p.check(unknown == want, f"unknown list {unknown} != {want}")


def run_classify5_lift(p: Pass, systems: list) -> None:
    reports = []
    for ws in systems:
        t = time.perf_counter()
        with p.span("item", ws.render()):
            report = stability.classify(ws)
            p.render(stability.report_to_json(report))
        p.items_ms.append((time.perf_counter() - t) * 1e3)
        reports.append(report)
    p.stop()

    expected_items = Counter()
    counts = Counter()
    for ws, report in zip(systems, reports):
        want = p.expected_verdict(ws)
        expected_items[want] += 1
        counts[report.verdict.value] += 1
        joined = stability.join_verdicts(e.verdict for e in report.trace)
        p.check(
            core.validate(ws, 1).ok and report.verdict is joined and report.verdict.value == want,
            f"{ws.render()}: {report.verdict.value} (trace join {joined.value}), expected {want}",
        )
    p.check_counts(counts, expected_items)


def run_verify4(p: Pass, systems: list) -> None:
    outcomes = []
    for ws in systems:
        t = time.perf_counter()
        with p.span("item", ws.render()):
            report = stability.classify(ws, stability.MEMBER_FERMAT)
            p.render(stability.report_to_json(report))
            recomputed = [stability.recompute_entry(e) for e in report.trace]
            plan = monomial.plan_cover_for_support(monomial.fermat_support(ws))
            inequalities = core.check_lemma_ineq(ws)
        p.items_ms.append((time.perf_counter() - t) * 1e3)
        outcomes.append((ws, report, recomputed, plan, inequalities))
    p.stop()

    expected_items = Counter()
    counts = Counter()
    for ws, report, recomputed, plan, inequalities in outcomes:
        want = p.expected_verdict(ws)
        expected_items[want] += 1
        counts[report.verdict.value] += 1
        same = recomputed == [(e.conclusion, e.verdict) for e in report.trace]
        plan_ok = plan.ok and all(a == 1 for a in plan.final_weights)
        p.check(
            report.verdict.value == want and same and plan_ok and inequalities.passed,
            f"{ws.render()}: {report.verdict.value} (expected {want}), recompute {same}, "
            f"plan {plan_ok}, inequalities {inequalities.passed}",
        )
    p.check_counts(counts, expected_items)


WORKLOADS = {
    "enum4": run_enum4,
    "classify4": run_classify4,
    "classify5_lift": run_classify5_lift,
    "verify4": run_verify4,
}


def main() -> None:
    workload, seed, mode, limit = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
    tracer = None
    if mode == "trace":
        global dumps
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        dumps = tracer.wrap_span("render.json_dumps", json.dumps)
    inputs = load_inputs(workload, seed, limit)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    p = Pass(expected, limit, tracer)
    try:
        WORKLOADS[workload](p, inputs)
    except Exception as exc:  # a crash inside wfano fails the pass, not the harness
        if p.pass_s is None:
            p.stop()
        p.check(False, f"{type(exc).__name__}: {exc}")
    result = {
        "ready": ready,
        "pass_s": p.pass_s,
        "items_ms": p.items_ms,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output_bytes": p.output_bytes,
        "ops": p.ops,
        "failures": p.failures,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics() | {"cli.output_bytes": p.output_bytes}
        result["trace"] = tracer.report()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
