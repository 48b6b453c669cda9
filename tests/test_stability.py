"""Verdict lattice, alpha bounds, Fermat criterion, classification traces."""

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfano
from wfano import (
    ALPHA_ALL_GE2,
    ALPHA_GENERIC,
    ALPHA_STAR,
    COVER_ASSUMPTION,
    MEMBER_ANY,
    MEMBER_CLASSES,
    MEMBER_FERMAT,
    MEMBER_GENERAL,
    EnumerationQuery,
    EnumerationResult,
    Support,
    TraceEntry,
    Verdict,
    WeightSystem,
    alpha_lower_bound,
    aut_finite,
    batch_classify,
    classify,
    fermat_k_stability,
    join_verdicts,
    load_support,
    plan_cover_universal,
    recompute_entry,
    registered_criteria,
    report_to_json,
    summary_to_json,
    threshold_c,
)

from conftest import FIXTURES

X60_SYSTEM = WeightSystem((3, 4, 4, 5, 15, 30), 60)


class TestVerdictLattice:
    def test_chain_implications(self):
        assert Verdict.K_STABLE.implies(Verdict.K_POLYSTABLE)
        assert Verdict.K_STABLE.implies(Verdict.K_SEMISTABLE)
        assert Verdict.K_POLYSTABLE.implies(Verdict.K_SEMISTABLE)
        assert not Verdict.K_SEMISTABLE.implies(Verdict.K_POLYSTABLE)
        assert not Verdict.UNKNOWN.implies(Verdict.K_SEMISTABLE)
        assert Verdict.K_SEMISTABLE.implies(Verdict.UNKNOWN)

    def test_reflexive(self):
        for v in Verdict:
            assert v.implies(v)

    def test_instability_outside_chain(self):
        assert not Verdict.K_UNSTABLE.implies(Verdict.UNKNOWN)
        assert not Verdict.K_STABLE.implies(Verdict.K_UNSTABLE)
        assert not Verdict.UNKNOWN.implies(Verdict.K_UNSTABLE)

    def test_join(self):
        assert join_verdicts([]) is Verdict.UNKNOWN
        assert join_verdicts([None, None]) is Verdict.UNKNOWN
        assert join_verdicts([Verdict.K_SEMISTABLE, Verdict.K_STABLE]) is Verdict.K_STABLE
        assert (
            join_verdicts([Verdict.K_UNSTABLE, None, Verdict.UNKNOWN]) is Verdict.K_UNSTABLE
        )

    def test_join_rejects_contradiction(self):
        with pytest.raises(ValueError, match="contradictory"):
            join_verdicts([Verdict.K_UNSTABLE, Verdict.K_SEMISTABLE])


class TestAlphaLowerBound:
    def test_star_case(self):
        bound = alpha_lower_bound(WeightSystem((1, 1, 2, 3, 6), 12), cover_available=True)
        assert bound.value == Fraction(5, 6)
        assert bound.case_tag == ALPHA_STAR
        assert bound.assumptions == (COVER_ASSUMPTION,)

    def test_generic_case(self):
        bound = alpha_lower_bound(WeightSystem((1, 1, 1, 1), 3), cover_available=True)
        assert bound.value == Fraction(2, 3)
        assert bound.case_tag == ALPHA_GENERIC

    def test_all_weights_two_or_more(self):
        for ws in (WeightSystem((3, 3, 5, 5), 15), WeightSystem((2, 4, 5, 5, 5), 20)):
            bound = alpha_lower_bound(ws, cover_available=True)
            assert bound.value == Fraction(1)
            assert bound.case_tag == ALPHA_ALL_GE2

    def test_without_cover_no_claim(self):
        assert alpha_lower_bound(WeightSystem((1, 1, 2, 3), 6), cover_available=False) is None

    def test_preconditions(self):
        with pytest.raises(ValueError, match="index"):
            alpha_lower_bound(WeightSystem((1, 1, 2, 2), 4), cover_available=True)
        with pytest.raises(ValueError, match="divide"):
            alpha_lower_bound(WeightSystem((1, 2, 4), 6), cover_available=True)
        with pytest.raises(ValueError, match="well-formed"):
            alpha_lower_bound(WeightSystem((2, 2, 3), 6), cover_available=True)
        with pytest.raises(ValueError, match="cone"):
            alpha_lower_bound(WeightSystem((1, 2, 3, 6), 6), cover_available=True)

    def test_agrees_with_threshold_constant(self, threefold_catalog):
        for ws in threefold_catalog.systems:
            bound = alpha_lower_bound(ws, cover_available=True)
            if bound.case_tag == ALPHA_ALL_GE2:
                assert bound.value == 1
                assert bound.value >= threshold_c(ws)
            else:
                assert bound.value == threshold_c(ws)

    def test_floor(self, surface_catalog, threefold_catalog):
        for result in (surface_catalog, threefold_catalog):
            for ws in result.systems:
                bound = alpha_lower_bound(ws, cover_available=True)
                assert bound.value >= Fraction(ws.n - 1, ws.n)


@st.composite
def aut_finite_inputs(draw):
    """Ascending positive weights and 1 <= c <= n degrees, none equal to a weight."""
    weights = tuple(sorted(draw(st.lists(st.integers(1, 8), min_size=2, max_size=6))))
    c = draw(st.integers(1, len(weights) - 1))
    degree = st.integers(1, 40).filter(lambda d: d not in weights)
    return weights, tuple(draw(st.lists(degree, min_size=c, max_size=c)))


class TestAutFinite:
    def test_degree_sum_branch(self):
        assert aut_finite((1, 1, 2, 3, 6), (12,))
        assert aut_finite((3, 3, 4, 4), (12,))

    def test_not_decided(self):
        assert not aut_finite((2, 3, 3, 3, 3, 3), (6,))
        assert not aut_finite((2, 3, 3, 3), (6,))

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            aut_finite((3, 2, 1), (4,))
        with pytest.raises(ValueError, match="positive"):
            aut_finite((1, 2, 3), ())
        with pytest.raises(ValueError, match="positive"):
            aut_finite((1, 2, 3), (0,))
        with pytest.raises(ValueError, match="cone"):
            aut_finite((1, 2, 3), (3,))
        with pytest.raises(ValueError, match="codimension"):
            aut_finite((1, 2, 3), (4, 4, 4))

    @settings(max_examples=400)
    @given(aut_finite_inputs())
    def test_matches_the_two_clause_rule(self, case):
        weights, degrees = case
        n, c, total = len(weights) - 1, len(degrees), sum(degrees)
        index = sum(weights) - total
        assert aut_finite(weights, degrees) == (
            total > sum(weights[-(c + 1):]) or 0 < index < n - c
        )

    def test_entry_conclusions(self):
        finite = classify(WeightSystem((1, 1, 2, 3, 6), 12), MEMBER_FERMAT).trace[0]
        assert finite.conclusion == (
            "automorphism group is finite: degree sum 12 exceeds 9, "
            "the sum of the 2 largest weights"
        )
        silent = classify(WeightSystem((2, 3, 3, 3, 3, 3), 6), MEMBER_FERMAT).trace[0]
        assert silent.conclusion == (
            "finiteness of the automorphism group is not decided: "
            "degree sum 6 <= 6 and index 11 is not in (0, 4)"
        )


class TestFermatCriterion:
    def test_stable_example(self):
        result = fermat_k_stability(WeightSystem((1, 1, 2, 3, 6), 12))
        assert result.verdict is Verdict.K_STABLE
        assert result.margin == 3
        assert result.aut_finite

    def test_unstable_example(self):
        result = fermat_k_stability(WeightSystem((2, 3, 3, 3, 3, 3), 6))
        assert result.verdict is Verdict.K_UNSTABLE
        assert result.margin == -1
        assert not result.aut_finite

    def test_polystable_example(self):
        result = fermat_k_stability(WeightSystem((2, 3, 3, 3), 6))
        assert result.verdict is Verdict.K_POLYSTABLE
        assert result.margin == 1
        assert not result.aut_finite

    def test_margin_monotone_in_family(self):
        # (2, 3, ..., 3 : 6) with l threes: margin 4 - l, strength decreasing
        rank = {
            Verdict.K_STABLE: 3,
            Verdict.K_POLYSTABLE: 2,
            Verdict.K_SEMISTABLE: 1,
            Verdict.K_UNSTABLE: -1,
        }
        results = [
            fermat_k_stability(WeightSystem((2,) + (3,) * l, 6)) for l in range(2, 7)
        ]
        assert [r.margin for r in results] == [2, 1, 0, -1, -2]
        ranks = [rank[r.verdict] for r in results]
        assert ranks == sorted(ranks, reverse=True)
        assert results[2].verdict is Verdict.K_SEMISTABLE

    def test_works_without_well_formedness(self):
        # non-well-formed ambient: the criterion only needs divisibility
        assert not WeightSystem((2, 3, 3, 3, 3, 3), 6).well_formed
        fermat_k_stability(WeightSystem((2, 3, 3, 3, 3, 3), 6))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="divide"):
            fermat_k_stability(WeightSystem((1, 2, 4), 6))
        with pytest.raises(ValueError, match="cone"):
            fermat_k_stability(WeightSystem((1, 2, 3, 6), 6))
        with pytest.raises(ValueError, match="not positive"):
            fermat_k_stability(WeightSystem((1, 1, 1), 6))


class TestClassify:
    def test_fermat_unstable_trace(self):
        report = classify(WeightSystem((2, 3, 3, 3, 3, 3), 6), MEMBER_FERMAT)
        assert report.verdict is Verdict.K_UNSTABLE
        assert report.aut_finite is False
        assert report.alpha is None
        assert [e.criterion for e in report.trace] == ["aut_finiteness", "fermat_margin"]

    def test_fermat_stable_trace(self):
        report = classify(WeightSystem((1, 1, 2, 3, 6), 12), MEMBER_FERMAT)
        assert report.verdict is Verdict.K_STABLE
        assert report.aut_finite is True
        assert report.alpha.value == Fraction(5, 6)
        assert [e.criterion for e in report.trace] == [
            "aut_finiteness",
            "fermat_margin",
            "smooth_cover",
            "alpha_bound",
            "alpha_above_threshold",
            "kahler_einstein",
        ]

    def test_general_member_trace(self):
        report = classify(WeightSystem((3, 3, 5, 5), 15), MEMBER_GENERAL)
        assert report.trace[0].criterion == "index_vs_dimension"
        assert report.trace[0].verdict is Verdict.K_STABLE
        assert report.verdict is Verdict.K_STABLE

    def test_general_member_silent_when_index_large(self):
        report = classify(WeightSystem((2, 3, 3, 3, 3, 3), 6), MEMBER_GENERAL)
        assert report.verdict is Verdict.UNKNOWN
        assert len(report.trace) == 1
        assert report.trace[0].verdict is None
        assert "criterion silent" in report.trace[0].conclusion

    def test_boundary_smooth_shape(self):
        report = classify(WeightSystem((1, 1, 1, 1, 1), 4), MEMBER_ANY)
        assert report.verdict is Verdict.K_STABLE
        criteria = [e.criterion for e in report.trace]
        assert criteria == [
            "smooth_cover",
            "alpha_bound",
            "alpha_boundary_smooth",
            "kahler_einstein",
        ]

    def test_boundary_parity_odd(self):
        report = classify(WeightSystem((1, 1, 2, 3), 6), MEMBER_ANY)
        assert report.verdict is Verdict.K_STABLE
        entry = next(e for e in report.trace if e.criterion == "alpha_boundary_star_parity")
        assert "odd" in entry.conclusion
        assert "smooth" in entry.conclusion

    def test_boundary_parity_even(self):
        for ws in (WeightSystem((1, 1, 1, 2, 4), 8), WeightSystem((1, 1, 1, 1, 2, 5), 10)):
            report = classify(ws, MEMBER_ANY)
            assert report.verdict is Verdict.K_STABLE, ws
        entry = next(
            e
            for e in classify(WeightSystem((1, 1, 1, 2, 4), 8), MEMBER_ANY).trace
            if e.criterion == "alpha_boundary_star_parity"
        )
        assert "even" in entry.conclusion
        assert "half-point" in entry.conclusion

    def test_kahler_einstein_exactly_on_stable(self, surface_catalog):
        for ws in surface_catalog.systems:
            report = classify(ws, MEMBER_ANY)
            criteria = [e.criterion for e in report.trace]
            if report.verdict is Verdict.K_STABLE:
                assert criteria[-1] == "kahler_einstein"
            else:
                assert "kahler_einstein" not in criteria

    def test_unknown_without_support(self):
        report = classify(X60_SYSTEM, MEMBER_ANY)
        assert report.verdict is Verdict.UNKNOWN
        assert report.alpha is None
        criteria = [e.criterion for e in report.trace]
        assert criteria == ["smooth_cover", "alpha_bound"]
        assert "no smooth cover found" in report.trace[0].conclusion
        assert "unavailable" in report.trace[1].conclusion

    def test_unknown_with_support(self):
        support = load_support(FIXTURES / "x60_p3454_15_30.json")
        report = classify(X60_SYSTEM, MEMBER_ANY, support=support)
        assert report.verdict is Verdict.UNKNOWN
        cover_entries = [e for e in report.trace if e.criterion == "smooth_cover"]
        assert [e.inputs["mode"] for e in cover_entries] == ["universal", "support"]
        assert "the given member" in cover_entries[1].conclusion

    def test_support_ambient_must_match(self):
        support = load_support(FIXTURES / "x60_p3454_15_30.json")
        with pytest.raises(ValueError, match="does not match"):
            classify(WeightSystem((1, 1, 2, 3), 6), MEMBER_ANY, support=support)

    def test_member_class_checked(self):
        with pytest.raises(ValueError, match="member class"):
            classify(WeightSystem((1, 1, 2, 3), 6), "generic")

    def test_system_preconditions(self):
        with pytest.raises(ValueError, match="not positive"):
            classify(WeightSystem((1, 1, 1), 6), MEMBER_ANY)
        with pytest.raises(ValueError, match="divide"):
            classify(WeightSystem((1, 2, 4), 6), MEMBER_ANY)
        with pytest.raises(ValueError, match="cone"):
            classify(WeightSystem((1, 2, 3, 6), 6), MEMBER_ANY)

    def test_non_well_formed_fermat_still_classifies(self):
        # well-formedness only gates the alpha chain, not the Fermat test
        report = classify(WeightSystem((2, 3, 3, 3, 3, 3), 6), MEMBER_FERMAT)
        assert report.verdict is Verdict.K_UNSTABLE


# each criterion recorded on a weight system, with its inputs besides weights and degree
WEIGHT_ENTRIES = [
    pytest.param("index_vs_dimension", {}, id="index_vs_dimension"),
    pytest.param("fermat_margin", {"aut_finite": True}, id="fermat_margin"),
    pytest.param("smooth_cover", {"mode": "universal"}, id="smooth_cover_universal"),
    pytest.param("smooth_cover", {"mode": "support", "monomials": []}, id="smooth_cover_support"),
    pytest.param(
        "alpha_above_threshold",
        {"alpha": {"num": 1, "den": 1, "case": ALPHA_ALL_GE2}},
        id="alpha_above_threshold",
    ),
    pytest.param("alpha_boundary_smooth", {}, id="alpha_boundary_smooth"),
    pytest.param("alpha_boundary_star_parity", {}, id="alpha_boundary_star_parity"),
]


class TestTraceRecompute:
    def test_entries_recompute_exactly(self, surface_catalog):
        supports = {X60_SYSTEM: load_support(FIXTURES / "x60_p3454_15_30.json")}
        reports = [classify(ws, member)
                   for ws in surface_catalog.systems
                   for member in (MEMBER_ANY, MEMBER_FERMAT, MEMBER_GENERAL)]
        reports.append(classify(X60_SYSTEM, MEMBER_ANY, support=supports[X60_SYSTEM]))
        for report in reports:
            for entry in report.trace:
                assert recompute_entry(entry) == (entry.conclusion, entry.verdict)

    def test_entries_carry_the_facts_classify_reports(self):
        ws = WeightSystem((1, 1, 2, 3), 6)
        report = classify(ws, MEMBER_FERMAT)
        aut, fermat, cover, alpha = report.trace[:4]
        assert aut.payload is report.aut_finite is aut_finite(ws.weights, (ws.degree,))
        assert fermat.payload is None
        assert cover.payload == plan_cover_universal(ws) and cover.payload.ok
        assert alpha.payload == report.alpha == alpha_lower_bound(ws, cover_available=True)
        # the payload is kept for classify only: neither compared nor shown
        assert replace(cover, payload=None) == cover
        assert "payload" not in repr(cover)

    @pytest.mark.parametrize(
        "weights, degree",
        [((1, 1, 1), 6), ((1, 2, 4), 6), ((1, 2, 3, 6), 6)],
        ids=["not_fano", "not_divisible", "linear_cone"],
    )
    @pytest.mark.parametrize("criterion, extra", WEIGHT_ENTRIES)
    def test_recompute_rejects_systems_outside_the_hypotheses(
        self, criterion, extra, weights, degree
    ):
        # 1,1,1:6 has index -3 < dim 1: ungated, index_vs_dimension would call it k_stable
        entry = TraceEntry(criterion, "", dict(extra, weights=list(weights), degree=degree), "")
        with pytest.raises(ValueError, match="not positive|divide|linear cone"):
            recompute_entry(entry)

    def test_fermat_chain_reads_earlier_entries(self, fourfold_catalog):
        thresholds = 0
        for ws in fourfold_catalog.systems:
            report = classify(ws, MEMBER_FERMAT)
            entries = {e.criterion: e for e in report.trace}
            assert entries["fermat_margin"].inputs["aut_finite"] is entries["aut_finiteness"].payload
            if "alpha_above_threshold" in entries:
                thresholds += 1
                alpha = entries["alpha_bound"].payload.to_json()
                assert entries["alpha_above_threshold"].inputs["alpha"] == alpha
            for entry in report.trace:
                assert recompute_entry(entry) == (entry.conclusion, entry.verdict)
        assert thresholds == 651  # 653 covered, less the two boundary shapes

    def test_unregistered_criterion(self):
        entry = TraceEntry("made_up", "", {}, "", None)
        with pytest.raises(KeyError, match="made_up"):
            recompute_entry(entry)

    def test_registry_contents(self):
        assert registered_criteria() == (
            "alpha_above_threshold",
            "alpha_bound",
            "alpha_boundary_smooth",
            "alpha_boundary_star_parity",
            "aut_finiteness",
            "fermat_margin",
            "index_vs_dimension",
            "kahler_einstein",
            "smooth_cover",
        )

    def test_entries_carry_citations(self, surface_catalog):
        report = classify(surface_catalog.systems[0], MEMBER_ANY)
        for entry in report.trace:
            assert entry.cite


class TestReportJson:
    def test_schema(self):
        report = classify(WeightSystem((1, 1, 2, 3, 6), 12), MEMBER_FERMAT)
        payload = report_to_json(report)
        assert list(payload) == [
            "system",
            "member_class",
            "verdict",
            "alpha",
            "aut_finite",
            "trace",
        ]
        assert payload["system"] == {"weights": [1, 1, 2, 3, 6], "degree": 12}
        assert payload["member_class"] == "fermat"
        assert payload["verdict"] == "k_stable"
        assert payload["alpha"] == {"num": 5, "den": 6, "case": "star"}
        assert payload["aut_finite"] is True
        for entry in payload["trace"]:
            assert list(entry) == ["criterion", "cite", "conclusion"]
        json.dumps(payload)

    def test_nulls(self):
        payload = report_to_json(classify(X60_SYSTEM, MEMBER_ANY))
        assert payload["alpha"] is None
        assert payload["aut_finite"] is None
        assert payload["member_class"] == "any_quasi_smooth"
        assert payload["verdict"] == "unknown"

    def test_fourfold_reports_pinned(self, fourfold_catalog):
        # every fourfold in every member class, plus the support-planner path:
        # any change to a verdict, alpha bound, finiteness flag or trace line
        # changes the digest
        lines = [
            json.dumps(report_to_json(classify(ws, member)))
            for ws in fourfold_catalog.systems
            for member in MEMBER_CLASSES
        ]
        support = load_support(FIXTURES / "x60_p3454_15_30.json")
        lines.append(json.dumps(report_to_json(classify(X60_SYSTEM, MEMBER_ANY, support=support))))
        assert len(lines) == 3 * 661 + 1
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == "777e235cb7135dde276f2ac929156c61a22a408a2948ad5d31c7e4164579ec21"


class TestBatch:
    def test_surface_counts(self, surface_catalog):
        summary = batch_classify(surface_catalog)
        assert summary.total == 4
        assert summary.counts == {
            "k_stable": 4,
            "k_polystable": 0,
            "k_semistable": 0,
            "k_unstable": 0,
            "unknown": 0,
        }
        assert summary.unknown == ()

    def test_deterministic(self, surface_catalog):
        assert batch_classify(surface_catalog) == batch_classify(surface_catalog)

    def test_unknowns_carry_reports(self):
        catalog = EnumerationResult(
            query=EnumerationQuery(num_weights=6, index=1),
            systems=(X60_SYSTEM,),
            complete=False,
        )
        summary = batch_classify(catalog)
        assert summary.counts["unknown"] == 1
        assert summary.unknown[0].system == X60_SYSTEM

    def test_summary_json(self, surface_catalog):
        payload = summary_to_json(batch_classify(surface_catalog))
        assert list(payload) == ["total", "counts", "unknown"]
        assert payload["unknown"] == []
        json.dumps(payload)


# classify under a 3 GB address-space cap, in a child process that sets it
CAPPED_CLASSIFY = """
import resource, sys
cap = 3 << 30
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
from wfano import WeightSystem, classify
for spec in sys.argv[1:]:
    weights, degree = spec.split(":")
    print(classify(WeightSystem.of(map(int, weights.split(",")), int(degree))).verdict.value)
"""


def test_large_fivefolds_classify_within_memory_cap():
    specs = (
        # the largest fivefold degree
        "2,272405,122991309,5177076030,31802038470,74204756430,111307134645:222614269290",
        # a cover plan whose decomposition once stepped its first coefficient 3.4e7 times
        "6,13201,662501,28379694,174332406,406775614,610163421:1220326842",
    )
    src = str(Path(wfano.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", CAPPED_CLASSIFY, *specs],
        capture_output=True, text=True, env=env, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [Verdict.K_STABLE.value] * 2
    assert elapsed < 20, f"took {elapsed:.1f} s"
