"""Self-test of the benchmark at a tiny size (about a minute on two cores).

Usage: python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, untraced and traced, alone and under `--workload all`; that two
traced runs give the same counts; that a tampered expected value (the
classify4 tally) makes a run fail; that the benchmark refuses to run without
the wfano sources; that compare.py reads result sets; and that the pinned
fourfold unknowns agree with the repository's fixture.  Scratch files go
under .perfbench_out/selftest.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS

SCRATCH = ROOT / ".perfbench_out" / "selftest"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(root: Path, *args: str) -> tuple[int, dict | None]:
    """Run run.py in `root`; the exit code and the final JSON line, if any."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def copy_checkout(name: str, with_sources: bool) -> Path:
    target = SCRATCH / name
    shutil.rmtree(target, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, target / "perfbench", ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", target / "src", ignore=ignore)
    return target


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    SCRATCH.mkdir(parents=True, exist_ok=True)
    results = SCRATCH / "results.jsonl"
    results.unlink(missing_ok=True)
    tiny = ("--seed", "1", "--seconds", "1", "--limit", "5", "--out", str(results))

    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in WORKLOADS:
            code, result = bench(ROOT, "--workload", workload, "--trace", trace, *tiny)
            emitted = {n: m["unit"] for n, m in (result or {}).get("metrics", {}).items()}
            expect(
                code == 0 and result is not None and result["correct"] and result["attempted"] >= 1,
                f"{workload} --trace {trace} passes its checks",
            )
            expect(emitted == units, f"{workload} --trace {trace} emits every {kind} metric with its unit")

    code, result = bench(ROOT, "--workload", "all", "--trace", "0", "--seed", "1", "--seconds", "1", "--limit", "5")
    names = {f"{w}.{m['name']}" for w in WORKLOADS for m in spec["end_to_end"]}
    expect(
        code == 0 and result is not None and set(result["metrics"]) == names,
        "--workload all reports every workload's metrics",
    )

    counts = []
    for _ in range(2):
        bench(ROOT, "--workload", "classify4", "--trace", "1", "--seed", "7", "--seconds", "1", "--limit", "20")
        trace = json.loads((ROOT / ".perfbench_out" / "trace-classify4-seed7.json").read_text(encoding="utf-8"))
        counts.append(trace["counts"])
    expect(counts[0] == counts[1] and counts[0], "two traced runs give the same counts")

    tampered = copy_checkout("tampered", with_sources=True)
    expected_path = tampered / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    expected["classify4"]["counts"]["k_stable"] += 1
    expected_path.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    code, result = bench(tampered, "--workload", "classify4", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(
        code != 0 and result is not None and not result["correct"] and result["failed"] >= 1,
        "a tampered classify4 tally makes the run fail",
    )

    bare = copy_checkout("bare", with_sources=False)
    code, result = bench(bare, "--workload", "classify4", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(code != 0 and result is None, "without the wfano sources the run fails and prints no result")

    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(results), str(results)],
        capture_output=True, text=True, timeout=60,
    )
    rows = [line for line in proc.stdout.splitlines() if " | " in line][1:]
    expect(
        proc.returncode == 0 and rows and all(line.endswith("| unchanged") for line in rows),
        "compare.py finds a result set unchanged against itself",
    )

    fixture = ROOT / "fixtures" / "fourfold_unknowns.json"
    if fixture.is_file():
        pinned = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["classify4"]["unknown"]
        fixed = json.loads(fixture.read_text(encoding="utf-8"))["unknown"]
        rendered = [",".join(map(str, u["weights"])) + f":{u['degree']}" for u in fixed]
        expect(pinned == rendered, "pinned classify4 unknowns equal fixtures/fourfold_unknowns.json")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
