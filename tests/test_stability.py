"""Verdict lattice, alpha bounds, Fermat criterion, classification traces."""

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfano
from wfano import core, monomial
from wfano import (
    ALPHA_ALL_GE2,
    ALPHA_GENERIC,
    ALPHA_STAR,
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
    enumerate_systems,
    fermat_k_stability,
    fermat_support,
    join_verdicts,
    load_support,
    plan_cover_universal,
    recompute_entry,
    registered_criteria,
    report_to_json,
    summary_to_json,
    threshold_c,
)
from wfano.stability import make_entry

from conftest import FIXTURES

X60_SYSTEM = WeightSystem((3, 4, 4, 5, 15, 30), 60)


class TestVerdictLattice:
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

    @pytest.mark.parametrize(
        "dim, index, d_max, count, stable",
        [
            (3, 2, 3000, 2335, True),
            (4, 2, 1000, 2687, True),
            (4, 3, 1000, 1956, True),
            (2, 2, 2000, 1004, False),
            (3, 3, 3000, 2142, False),
            (4, 4, 1000, 3262, False),
        ],
    )
    def test_general_members_of_higher_index_catalogs(self, dim, index, d_max, count, stable):
        # the paper's second claim: a general member of Fano index below its
        # dimension is K-stable; at index >= dim nothing else applies above index 1
        query = EnumerationQuery(num_weights=dim + 2, index=index, d_max=d_max)
        systems = enumerate_systems(query).systems
        assert len(systems) == count
        if stable:
            verdict, criteria = Verdict.K_STABLE, ["index_vs_dimension", "kahler_einstein"]
        else:
            verdict, criteria = Verdict.UNKNOWN, ["index_vs_dimension"]
        for ws in systems:
            report = classify(ws, MEMBER_GENERAL)
            assert report.verdict is verdict, ws
            assert [entry.criterion for entry in report.trace] == criteria, ws
            for entry in report.trace:
                assert recompute_entry(entry) == (entry.conclusion, entry.verdict), ws

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

    def test_conic_is_not_k_stable(self):
        # 1,1,1:2 is the conic, P^1: alpha = 1/2 = dim/(dim+1), but equality
        # gives K-stability only from dimension 2 on, and P^1 has infinite
        # automorphisms; the Fermat margin says K-polystable and no more
        ws = WeightSystem((1, 1, 1), 2)
        for member, verdict in ((MEMBER_FERMAT, Verdict.K_POLYSTABLE), (MEMBER_ANY, Verdict.UNKNOWN)):
            report = classify(ws, member)
            assert report.verdict is verdict, member
            entries = {e.criterion: e for e in report.trace}
            assert "kahler_einstein" not in entries
            boundary = entries["alpha_boundary_smooth"]
            assert boundary.verdict is None
            assert "dimension is 1; criterion silent" in boundary.conclusion
            for entry in report.trace:
                assert recompute_entry(entry) == (entry.conclusion, entry.verdict)

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

    def test_support_must_be_quasi_smooth(self):
        # z_0^20 = 0 is not even reduced; its support plan would find 6 covers
        support = Support.of(X60_SYSTEM.weights, 60, [[20, 0, 0, 0, 0, 0]])
        with pytest.raises(ValueError, match=r"not quasi-smooth at the variables \[1\]"):
            classify(X60_SYSTEM, MEMBER_ANY, support=support)
        entry = TraceEntry("smooth_cover", dict(support.to_json(), mode="support"), "")
        with pytest.raises(ValueError, match="not quasi-smooth"):
            recompute_entry(entry)

    def test_support_cover_is_assumed_for_the_given_member(self):
        # the Fermat support plan succeeds where the universal plan fails
        report = classify(X60_SYSTEM, MEMBER_ANY, support=fermat_support(X60_SYSTEM))
        assert report.verdict is Verdict.K_STABLE
        alpha = next(e for e in report.trace if e.criterion == "alpha_bound")
        assert alpha.inputs["cover_mode"] == "support"
        assert alpha.conclusion == (
            "alpha >= 1 (case all_weights_ge2; assuming: smooth cover exists for the given member)"
        )
        for entry in report.trace:
            assert recompute_entry(entry) == (entry.conclusion, entry.verdict)

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
    pytest.param("alpha_bound", {"cover_available": True}, id="alpha_bound"),
    pytest.param(
        "alpha_above_threshold",
        {"alpha": {"num": 1, "den": 1, "case": ALPHA_ALL_GE2}},
        id="alpha_above_threshold",
    ),
    pytest.param("alpha_boundary_smooth", {}, id="alpha_boundary_smooth"),
    pytest.param("alpha_boundary_star_parity", {}, id="alpha_boundary_star_parity"),
]


def _recompute_on_sextic(criterion: str, **inputs):
    """Recompute an entry of criterion recorded on 1,1,2,3:6 with the given inputs."""
    return recompute_entry(TraceEntry(criterion, dict(inputs, weights=[1, 1, 2, 3], degree=6), ""))


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
        entry = TraceEntry(criterion, dict(extra, weights=list(weights), degree=degree), "")
        with pytest.raises(ValueError, match="not positive|divide|linear cone"):
            recompute_entry(entry)

    @pytest.mark.parametrize(
        "weights, degree, message",
        [
            ((1, 1, 2, 2), 4, "alpha bound undefined for 1,1,2,2:4: index 2 != 1"),
            ((1, 2, 2, 4, 4, 4), 16, "alpha bound undefined for 1,2,2,4,4,4:16: not well-formed"),
        ],
        ids=["index_two", "not_well_formed"],
    )
    def test_alpha_entry_keeps_the_index_one_gate(self, weights, degree, message):
        # both systems meet the standing hypotheses; the alpha bound also needs
        # index 1 and well-formedness, checked with the bound's own message
        inputs = {"weights": list(weights), "degree": degree, "cover_available": True}
        with pytest.raises(ValueError, match=f"^{message}$"):
            recompute_entry(TraceEntry("alpha_bound", inputs, ""))
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_entry("alpha_bound", inputs)

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

    @pytest.mark.parametrize(
        "criterion, weights, degree, extra, conclusion",
        [
            pytest.param(
                "alpha_above_threshold",
                (1, 1, 2, 3),
                6,
                {"alpha": {"num": 2, "den": 3, "case": ALPHA_GENERIC}},
                "alpha bound 2/3 does not exceed dim/(dim+1) = 2/3; criterion silent",
                id="alpha_above_threshold",
            ),
            pytest.param(
                "alpha_boundary_smooth",
                (1, 1, 2, 3),
                6,
                {},
                "not the all-ones boundary shape; criterion silent",
                id="alpha_boundary_smooth",
            ),
            pytest.param(
                "alpha_boundary_star_parity",
                (1, 1, 1, 1),
                3,
                {},
                "not the double-weight boundary shape with all other weights 1; criterion silent",
                id="alpha_boundary_star_parity",
            ),
        ],
    )
    def test_silent_branches(self, criterion, weights, degree, extra, conclusion):
        entry = make_entry(criterion, dict(extra, weights=list(weights), degree=degree))
        assert (entry.conclusion, entry.verdict) == (conclusion, None)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: aut_finite((True, 2, 3), (7,)), id="aut_finite_bool_weight"),
            pytest.param(lambda: aut_finite((1.5, 2, 3), (7.0,)), id="aut_finite_float_weight"),
            pytest.param(lambda: aut_finite((1, 2, 3), (7.0,)), id="aut_finite_float_degree"),
            pytest.param(
                lambda: _recompute_on_sextic("fermat_margin", aut_finite="no"), id="fermat_flag_str"
            ),
            pytest.param(
                lambda: _recompute_on_sextic("fermat_margin", aut_finite=1), id="fermat_flag_int"
            ),
            pytest.param(
                lambda: _recompute_on_sextic(
                    "alpha_bound", cover_available="no", cover_mode="universal"
                ),
                id="cover_flag_str",
            ),
            pytest.param(
                lambda: _recompute_on_sextic(
                    "alpha_above_threshold", alpha={"num": True, "den": 1, "case": ALPHA_STAR}
                ),
                id="alpha_bool_numerator",
            ),
            pytest.param(
                lambda: _recompute_on_sextic(
                    "alpha_above_threshold", alpha={"num": 5, "den": 6.0, "case": ALPHA_STAR}
                ),
                id="alpha_float_denominator",
            ),
        ],
    )
    def test_trace_inputs_have_exact_types(self, call):
        with pytest.raises(ValueError, match="integers, got|must be bool, got|must be int, got"):
            call()

    @pytest.mark.parametrize(
        "criterion, inputs",
        [
            pytest.param(
                "alpha_above_threshold",
                {"weights": [1, 1, 2, 3], "degree": 6, "alpha": {"num": 1, "den": 0, "case": ALPHA_STAR}},
                id="alpha_zero_denominator",
            ),
            pytest.param(
                "smooth_cover",
                dict(fermat_support(WeightSystem((1, 1, 2, 3), 6)).to_json(), mode="Universal"),
                id="cover_mode_misspelled",
            ),
            pytest.param(
                "alpha_bound",
                {"weights": [1, 1, 2, 3], "degree": 6, "cover_available": True, "cover_mode": "suport"},
                id="alpha_cover_mode_misspelled",
            ),
            pytest.param(
                "alpha_bound",
                {"weights": [1, 1, 2, 3], "degree": 6, "cover_available": True},
                id="alpha_without_cover_mode",
            ),
            pytest.param(
                "smooth_cover",
                {"weights": [1, 1, 2, 3], "degree": 6, "mode": "support"},
                id="support_cover_without_monomials",
            ),
            pytest.param("aut_finiteness", {"weights": [1, 1, 2, 3]}, id="aut_without_multidegree"),
            pytest.param("aut_finiteness", {"weights": 5, "multidegree": [6]}, id="aut_scalar_weights"),
            pytest.param(
                "alpha_bound",
                {"weights": [1, 1, 2, 3], "cover_available": True, "cover_mode": "universal"},
                id="alpha_without_degree",
            ),
            pytest.param(
                "fermat_margin",
                {"weights": [1, 1, 2, 3], "aut_finite": True},
                id="fermat_without_degree",
            ),
        ],
    )
    def test_malformed_records_raise_value_error(self, criterion, inputs):
        # a malformed report must be a validation failure, not a crash or a misreading
        with pytest.raises(ValueError):
            make_entry(criterion, inputs)

    @pytest.mark.parametrize("inputs", [None, [1], "x"], ids=["none", "list", "str"])
    @pytest.mark.parametrize("criterion", registered_criteria())
    def test_records_that_are_not_dicts_raise_value_error(self, criterion, inputs):
        # kahler_einstein reads no inputs, so only the dict check can reject these
        with pytest.raises(ValueError, match=f"^malformed {criterion} record"):
            make_entry(criterion, inputs)
        with pytest.raises(ValueError, match=f"^malformed {criterion} record"):
            recompute_entry(TraceEntry(criterion, inputs, ""))

    def test_unregistered_criterion(self):
        entry = TraceEntry("made_up", {}, "", None)
        with pytest.raises(KeyError, match="unregistered criterion 'made_up'"):
            recompute_entry(entry)
        with pytest.raises(KeyError, match="unregistered criterion 'made_up'"):
            make_entry("made_up", {})

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


def _count_hypothesis_work(monkeypatch) -> Counter:
    """Count precondition checks, system builds and well-formedness tests."""
    counts: Counter = Counter()
    errors, init, well_formed = (
        core.precondition_errors, WeightSystem.__init__, WeightSystem.well_formed.fget
    )

    def counted_errors(*args, **kwargs):
        counts["precondition_errors"] += 1
        return errors(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["builds"] += 1
        init(self, *args, **kwargs)

    def counted_well_formed(self):
        counts["well_formed"] += 1
        return well_formed(self)

    monkeypatch.setattr(core, "precondition_errors", counted_errors)
    monkeypatch.setattr(WeightSystem, "__init__", counted_init)
    monkeypatch.setattr(WeightSystem, "well_formed", property(counted_well_formed))
    return counts


class TestHypothesisWork:
    """classify checks each system once and hands it to every evaluator."""

    def test_given_member_checked_once(self, monkeypatch):
        # classify gates the member and hands it, checked, to the support-mode
        # evaluator; recomputing that entry gates the recorded member once
        checked = []
        real = monomial.quasi_smooth_failure

        def counted(support):
            checked.append(support)
            return real(support)

        monkeypatch.setattr(monomial, "quasi_smooth_failure", counted)
        support = load_support(FIXTURES / "x60_p3454_15_30.json")
        report = classify(X60_SYSTEM, MEMBER_ANY, support=support)
        assert checked == [support]
        checked.clear()
        entry = next(e for e in report.trace if e.inputs.get("mode") == "support")
        assert recompute_entry(entry) == (entry.conclusion, entry.verdict)
        assert checked == [support]

    def test_recorded_member_built_once(self, monkeypatch):
        # classify builds the member from its record for the planner; recomputing
        # the entry builds it once for the member gate, and the planner reuses it
        built = []
        real = Support.__post_init__

        def counted(self):
            built.append(self.weights)
            real(self)

        support = load_support(FIXTURES / "x60_p3454_15_30.json")
        monkeypatch.setattr(Support, "__post_init__", counted)
        report = classify(X60_SYSTEM, MEMBER_ANY, support=support)
        assert built == [support.weights]
        built.clear()
        entry = next(e for e in report.trace if e.inputs.get("mode") == "support")
        assert recompute_entry(entry) == (entry.conclusion, entry.verdict)
        assert built == [support.weights]

    def test_classify_checks_each_fourfold_once(self, fourfold_catalog, monkeypatch):
        # the classify4 benchmark traffic: per system, the standing check and
        # well-formedness test of classify, then the index-one check of the
        # alpha bound; the 8 failed plans build their witnesses without a system
        counts = _count_hypothesis_work(monkeypatch)
        for ws in fourfold_catalog.systems:
            classify(ws)
        assert counts == Counter(precondition_errors=2 * 661, well_formed=2 * 661, builds=0)

    def test_recompute_builds_one_system_per_entry(self, fourfold_catalog, monkeypatch):
        # the verify4 benchmark traffic: Fermat traces, then every entry recomputed
        reports = [classify(ws, MEMBER_FERMAT) for ws in fourfold_catalog.systems]
        entries = [e for report in reports for e in report.trace]
        recorded = sum("weights" in e.inputs and "degree" in e.inputs for e in entries)
        # a failed universal plan builds no system for its witness
        failed = sum(e.criterion == "smooth_cover" and not e.payload.ok for e in entries)
        counts = _count_hypothesis_work(monkeypatch)
        for entry in entries:
            assert recompute_entry(entry) == (entry.conclusion, entry.verdict)
        assert (recorded, failed) == (2636, 8)
        # one standing check per recorded system, one index-one check per alpha entry
        assert counts == {
            "builds": recorded,
            "precondition_errors": recorded + 661,
            "well_formed": 661,
        }


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


def test_fivefolds_that_reached_the_residue_table_pinned():
    # the 109 fivefolds whose planning once took membership from a residue
    # (Apéry) table: their verdicts and universal plans, step by step
    specs = json.loads((FIXTURES / "fivefold_table_inputs.json").read_text(encoding="utf-8"))["systems"]
    assert len(specs) == 109
    lines = []
    for spec in specs:
        weights, degree = spec.split(":")
        ws = WeightSystem.of(map(int, weights.split(",")), int(degree))
        lines.append(f"{spec} {classify(ws).verdict.value} {plan_cover_universal(ws)!r}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "cc2d572cfb0c882252875348db5380ce600a05f5e0b0056fa6c382b9c9c6efee"


def test_well_formedness_stays_linear():
    # gcd of every n of 20,000 weights: the direct form takes seconds here,
    # the prefix/suffix tables milliseconds
    ws = WeightSystem((1,) * 20000, 19999)
    start = time.perf_counter()
    report = classify(ws)
    for entry in report.trace:
        assert recompute_entry(entry) == (entry.conclusion, entry.verdict)
    elapsed = time.perf_counter() - start
    assert report.verdict is Verdict.K_STABLE
    assert elapsed < 3, f"took {elapsed:.2f} s"
