"""Per-layer tracing for one benchmark pass, installed from outside the package.

The tracer replaces public functions of `wfano` with timing wrappers under
every name a calling module looks up (`monomial.semigroup_representable` as
well as `core.semigroup_representable`), so nothing in `src/` changes.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent span, system).  Used at
  layer boundaries that run a few thousand times per pass.
* leaf: calls, total time and self time aggregated per (layer, parent layer).
  Used for hot functions such as `semigroup_representable` (about 471k calls
  on the fourfold batch), where one record per call would swamp the run.

Self time is a call's duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import contextlib
import time

from wfano import cli, core, enumeration, monomial, stability

import wfano

# (defining module, attribute, layer name, kind, modules that look the name up)
SPAN, LEAF = "span", "leaf"
FUNCTIONS = (
    (enumeration, "enumerate_systems", "enumeration.enumerate_systems", SPAN, (cli,)),
    (enumeration, "load_catalog", "enumeration.load_catalog", SPAN, ()),
    (enumeration, "render_table", "render.render_table", SPAN, (cli,)),
    (core, "semigroup_representable", "core.semigroup_representable", LEAF, (monomial,)),
    (core, "semigroup_decomposition", "core.semigroup_decomposition", LEAF, (monomial,)),
    (core, "check_lemma_ineq", "core.check_lemma_ineq", SPAN, (cli,)),
    (monomial, "plan_cover_universal", "monomial.plan_cover_universal", SPAN, (stability, cli)),
    (monomial, "universal_star_at", "monomial.universal_star_at", LEAF, ()),
    (monomial, "plan_cover_for_support", "monomial.plan_cover_for_support", SPAN, (stability, cli)),
    (monomial, "fermat_support", "monomial.fermat_support", LEAF, ()),
    (monomial, "substitute", "monomial.substitute", LEAF, ()),
    (monomial, "apply_cover", "monomial.apply_cover", LEAF, ()),
    (monomial, "star_condition", "monomial.star_condition", LEAF, (cli,)),
    (stability, "batch_classify", "stability.batch_classify", SPAN, ()),
    (stability, "classify", "stability.classify", SPAN, (cli,)),
    (stability, "make_entry", "stability.make_entry", LEAF, ()),
    (stability, "recompute_entry", "stability.recompute_entry", LEAF, ()),
    (stability, "alpha_lower_bound", "stability.alpha_lower_bound", LEAF, (cli,)),
    (stability, "aut_finite", "stability.aut_finite", LEAF, ()),
    (stability, "report_to_json", "render.report_to_json", SPAN, (cli,)),
    (stability, "summary_to_json", "render.summary_to_json", SPAN, ()),
)

WeightSystem = core.WeightSystem


class Tracer:
    """Collects spans and leaf aggregates for one pass; install() patches wfano."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.leaves: dict[tuple[str, str], list[float]] = {}  # -> [calls, total_s, self_s]
        self.max_target = 0
        self.kept = 0
        self.plans = 0
        self.plans_ok = 0
        # frames: [layer name, start, child time, span id or None]
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    # recording

    def _enter(self, name: str, span_id: int | None) -> list:
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> tuple[float, float, float]:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][2] += duration
        return end, duration, duration - frame[2]

    @contextlib.contextmanager
    def span(self, name: str, system: str | None = None):
        """Record one span; `system` labels every span opened inside it."""
        parent = self._stack[-1][3] if self._stack else None
        if system is None and parent is not None:
            system = self.spans[parent]["system"]
        record = {"id": len(self.spans), "parent": parent, "name": name, "system": system}
        self.spans.append(record)
        frame = self._enter(name, record["id"])
        try:
            yield
        finally:
            end, duration, self_s = self._exit(frame)
            record.update(start=frame[1], end=end, self_s=self_s)

    def wrap_span(self, name: str, fn):
        def traced(*args, **kwargs):
            system = args[0].render() if args and isinstance(args[0], WeightSystem) else None
            with self.span(name, system):
                result = fn(*args, **kwargs)
            if name == "enumeration.enumerate_systems":
                self.kept += len(result.systems)
            elif name == "monomial.plan_cover_for_support":
                self.plans += 1
                self.plans_ok += result.ok
            return result

        return traced

    def wrap_leaf(self, name: str, fn, target_arg: bool = False):
        leaves = self.leaves
        stack = self._stack

        def traced(*args, **kwargs):
            if target_arg:
                self.max_target = max(self.max_target, args[0])
            parent = stack[-1][0] if stack else "-"
            frame = self._enter(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                _, duration, self_s = self._exit(frame)
                agg = leaves.get((name, parent))
                if agg is None:
                    agg = leaves[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += self_s

        return traced

    def install(self) -> None:
        """Patch wfano's modules in place, for the rest of this process."""
        for module, attr, name, kind, callers in FUNCTIONS:
            original = getattr(module, attr)
            if kind == SPAN:
                traced = self.wrap_span(name, original)
            else:
                traced = self.wrap_leaf(name, original, target_arg=name.startswith("core.semigroup"))
            for holder in (module, wfano, *callers):
                if getattr(holder, attr, None) is original:
                    setattr(holder, attr, traced)
        # methods on the shared class cover every caller at once
        of = WeightSystem.of.__func__
        WeightSystem.of = classmethod(self.wrap_leaf("core.WeightSystem.of", of))
        well_formed = WeightSystem.well_formed.fget
        WeightSystem.well_formed = property(self.wrap_leaf("core.well_formed", well_formed))

    # ------------------------------------------------------------------
    # summaries

    def leaf(self, name: str, parent: str | None = None) -> tuple[int, float, float]:
        """(calls, total_s, self_s) of a leaf, under one parent layer or all of them."""
        rows = [v for (n, p), v in self.leaves.items() if n == name and (parent is None or p == parent)]
        return (
            sum(int(r[0]) for r in rows),
            sum((r[1] for r in rows), 0.0),
            sum((r[2] for r in rows), 0.0),
        )

    def span_totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total_s, self_s) over every span of one layer."""
        rows = [s for s in self.spans if s["name"] == name]
        return (
            len(rows),
            sum((s["end"] - s["start"] for s in rows), 0.0),
            sum((s["self_s"] for s in rows), 0.0),
        )

    def layer_table(self) -> list[dict]:
        """Calls, total and self time per (layer, parent layer), spans and leaves alike."""
        table: dict[tuple[str, str], list[float]] = {k: list(v) for k, v in self.leaves.items()}
        by_id = {s["id"]: s for s in self.spans}
        for s in self.spans:
            parent = by_id[s["parent"]]["name"] if s["parent"] is not None else "-"
            row = table.setdefault((s["name"], parent), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s["end"] - s["start"]
            row[2] += s["self_s"]
        return [
            {"layer": n, "parent": p, "calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
            for (n, p), v in sorted(table.items())
        ]

    def counts(self) -> dict:
        """Every call count of the pass: these must repeat exactly between runs."""
        return {f"{row['layer']}<{row['parent']}": row["calls"] for row in self.layer_table()} | {
            "core.semigroup.max_target": self.max_target,
            "monomial.plans_ok": self.plans_ok,
        }

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one pass; `.s` is inclusive time, `self_s` self time."""
        metrics = {}
        for name in (
            "core.well_formed",
            "core.semigroup_representable",
            "core.semigroup_decomposition",
            "monomial.universal_star_at",
            "stability.make_entry",
            "stability.recompute_entry",
        ):
            metrics[f"{name}.calls"], metrics[f"{name}.s"], _ = self.leaf(name)
        for name in ("monomial.plan_cover_universal", "monomial.plan_cover_for_support"):
            metrics[f"{name}.calls"], metrics[f"{name}.s"], _ = self.span_totals(name)
        for name in (
            "monomial.substitute",
            "monomial.apply_cover",
            "monomial.star_condition",
            "stability.alpha_lower_bound",
            "stability.aut_finite",
        ):
            metrics[f"{name}.calls"] = self.leaf(name)[0]
        candidates = self.leaf("core.WeightSystem.of", "enumeration.enumerate_systems")[0]
        metrics.update(
            {
                "enumeration.self_s": self.span_totals("enumeration.enumerate_systems")[2],
                "enumeration.candidates": candidates,
                "enumeration.kept": self.kept,
                "enumeration.kept_ratio": self.kept / candidates if candidates else 0.0,
                "enumeration.load_catalog.s": self.span_totals("enumeration.load_catalog")[1],
                "core.semigroup.max_target": self.max_target,
                "monomial.plan_ok_ratio": self.plans_ok / self.plans if self.plans else 0.0,
                "stability.classify.self_s": self.span_totals("stability.classify")[2],
                "cli.render_s": sum(
                    (s["self_s"] for s in self.spans if s["name"].startswith("render.")), 0.0
                ),
            }
        )
        return metrics

    def report(self) -> dict:
        return {"layers": self.layer_table(), "counts": self.counts(), "spans": self.spans}
