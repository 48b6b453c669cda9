"""Acceptance gate: twelve end-to-end checks with pinned values and budgets.

Each test is one criterion; together they pin the catalog contents, the
inequality suite, the alpha bounds, both cover planners, the fourfold batch
tally (including the frozen two-row delta against a hand-compiled reference
list), the Fermat margin examples, trace recomputation, and the brute-force
oracles.  Budgets are wall-clock upper bounds on this package's own work.
"""

import json
import random
import time
from fractions import Fraction
from operator import mul

from click.testing import CliRunner

from wfano import (
    MEMBER_ANY,
    MEMBER_FERMAT,
    MEMBER_GENERAL,
    EnumerationQuery,
    Verdict,
    WeightSystem,
    alpha_lower_bound,
    aut_finite,
    batch_classify,
    check_lemma_ineq,
    classify,
    enumerate_bruteforce,
    enumerate_systems,
    fermat_k_stability,
    fermat_support,
    join_verdicts,
    load_support,
    minimal_triple_gap,
    plan_cover_for_support,
    plan_cover_universal,
    recompute_entry,
    report_to_json,
    star_condition,
)
from wfano.cli import cli

from conftest import FIXTURES, GOLDEN
from test_core import naive_representable

# hand-compiled reference list of the resistant fourfold families; two rows
# disagree with the computed catalog and are analysed in test_c09
HAND_REFERENCE = [
    ([3, 4, 4, 5, 15, 30], 60),
    ([3, 3, 5, 30, 40, 40], 105),
    ([4, 5, 7, 20, 35, 70], 140),
    ([5, 10, 14, 35, 42, 105], 210),
    ([3, 5, 28, 35, 140, 210], 420),
    ([14, 21, 34, 51, 238, 357], 714),
    ([9, 11, 14, 198, 462, 693], 1386),
    ([5, 14, 27, 270, 630, 945], 1890),
]


def fmt(ws: WeightSystem) -> dict:
    return {"weights": list(ws.weights), "degree": ws.degree}


def test_c01_surface_catalog_exact():
    start = time.perf_counter()
    result = CliRunner().invoke(
        cli, ["enumerate", "--dim", "2", "--index", "1", "--format", "json"]
    )
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert json.loads(result.output) == [
        {"weights": [1, 1, 1, 1], "degree": 3},
        {"weights": [1, 1, 1, 2], "degree": 4},
        {"weights": [1, 1, 2, 3], "degree": 6},
        {"weights": [3, 3, 5, 5], "degree": 15},
    ]
    assert elapsed < 1.0


def test_c02_threefold_table_matches_golden():
    start = time.perf_counter()
    result = CliRunner().invoke(cli, ["enumerate", "--dim", "3", "--index", "1", "--format", "md"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    golden = (GOLDEN / "table1.md").read_text(encoding="utf-8")
    assert result.output == golden
    rows = result.output.splitlines()[2:]
    assert len(rows) == 30
    assert "1 1 6 14 21 | 42" in rows
    assert "5 5 18 18 45 | 90" in rows
    assert elapsed < 1.0


def test_c03_fourfold_count():
    start = time.perf_counter()
    result = enumerate_systems(EnumerationQuery(num_weights=6, index=1))
    elapsed = time.perf_counter() - start
    assert len(result.systems) == 661
    assert result.complete
    assert elapsed < 60.0


def test_c04_inequality_suite(surface_catalog, threefold_catalog, fourfold_catalog):
    start = time.perf_counter()
    equality = set()
    checked = 0
    for catalog in (surface_catalog, threefold_catalog, fourfold_catalog):
        for ws in catalog.systems:
            report = check_lemma_ineq(ws)
            assert report.passed, ws
            checked += 1
            if report.c_value == Fraction(ws.n - 1, ws.n):
                equality.add(ws)
    elapsed = time.perf_counter() - start
    assert checked == 4 + 30 + 661
    # equality holds exactly on the smooth degree-n shape and the (1,..,1,2,a) shape
    assert equality == {
        WeightSystem((1, 1, 1, 1), 3),
        WeightSystem((1, 1, 2, 3), 6),
        WeightSystem((1, 1, 1, 1, 1), 4),
        WeightSystem((1, 1, 1, 2, 4), 8),
        WeightSystem((1, 1, 1, 1, 1, 1), 5),
        WeightSystem((1, 1, 1, 1, 2, 5), 10),
    }
    assert elapsed < 10.0


def test_c05_minimal_triple_gap():
    assert minimal_triple_gap(30) == (48, (3, 4, 5))


def test_c06_alpha_bounds_match_formula(threefold_catalog):
    def rederived(weights, degree):
        # written independently of the library: same contract, fresh logic
        half = degree // 2
        if degree % 2 == 0 and half >= 3 and 2 in weights and half in weights:
            return Fraction(degree - 2, degree)
        if all(a >= 2 for a in weights):
            return Fraction(1)
        return Fraction(degree - 1, degree)

    for ws in threefold_catalog.systems:
        bound = alpha_lower_bound(ws, cover_available=True)
        assert bound.value == rederived(ws.weights, ws.degree), ws

    spot = {
        WeightSystem((1, 1, 2, 2, 5), 10): Fraction(4, 5),
        WeightSystem((1, 1, 2, 3, 6), 12): Fraction(5, 6),
        WeightSystem((2, 4, 5, 5, 5), 20): Fraction(1),
        WeightSystem((1, 1, 1, 1, 1), 4): Fraction(3, 4),
    }
    for ws, value in spot.items():
        assert alpha_lower_bound(ws, cover_available=True).value == value, ws


def test_c07_cover_planners_positive(surface_catalog, threefold_catalog, fourfold_catalog):
    start = time.perf_counter()
    for catalog in (surface_catalog, threefold_catalog):
        for ws in catalog.systems:
            assert plan_cover_universal(ws).ok, ws
    for catalog in (surface_catalog, threefold_catalog, fourfold_catalog):
        for ws in catalog.systems:
            plan = plan_cover_for_support(fermat_support(ws))
            assert plan.ok, ws
            assert plan.final_weights == (1,) * ws.num_weights
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_c08_cover_planner_negative_witnesses(fourfold_catalog):
    support = load_support(FIXTURES / "x60_p3454_15_30.json")
    row, i = star_condition(support)
    assert row == (17, 1, 1, 0, 0, 0)
    assert support.weights[i] == 4

    unknowns = json.loads((FIXTURES / "fourfold_unknowns.json").read_text(encoding="utf-8"))
    resistant = [WeightSystem(tuple(row["weights"]), row["degree"]) for row in unknowns["unknown"]]
    assert len(resistant) == 8
    for ws in resistant + [WeightSystem((1,) * 49 + (3, 4, 5), 60)]:
        plan = plan_cover_universal(ws)
        assert not plan.ok, ws
        row, i = plan.witness
        assert row[i] == 1
        assert sum(map(mul, row, plan.final_weights)) == ws.degree

    # the two reference rows that disagree with the computed resistant list
    # are defective: one is not a catalog entry at all, the other is covered
    bad_weights, bad_degree = HAND_REFERENCE[1]
    assert sum(bad_weights) - bad_degree != 1
    assert any(bad_degree % a for a in bad_weights)

    ref210 = WeightSystem(tuple(HAND_REFERENCE[3][0]), HAND_REFERENCE[3][1])
    assert ref210 in set(fourfold_catalog.systems)
    assert plan_cover_universal(ref210).ok
    assert classify(ref210, MEMBER_ANY).verdict is Verdict.K_STABLE


def test_c09_fourfold_batch_tally(fourfold_catalog, tmp_path):
    summary = batch_classify(fourfold_catalog)
    assert summary.total == 661
    assert summary.counts["k_stable"] == 653
    assert summary.counts["unknown"] == 8
    assert summary.counts["k_polystable"] == 0
    assert summary.counts["k_semistable"] == 0
    assert summary.counts["k_unstable"] == 0

    computed = [report.system for report in summary.unknown]
    unknowns = json.loads((FIXTURES / "fourfold_unknowns.json").read_text(encoding="utf-8"))
    assert [fmt(ws) for ws in computed] == unknowns["unknown"]
    assert unknowns["catalog_size"] == summary.total
    assert unknowns["k_stable"] == summary.counts["k_stable"]

    # regenerate the machine-readable delta against the hand reference list
    # and emit it; it must equal the frozen report
    key = lambda pair: (pair[0], tuple(pair[1]))
    computed_keys = {(ws.degree, ws.weights) for ws in computed}
    reference_keys = {(degree, tuple(weights)) for weights, degree in HAND_REFERENCE}
    as_row = lambda k: {"weights": list(k[1]), "degree": k[0]}
    agreeing = sorted(computed_keys & reference_keys)
    only_computed = sorted(computed_keys - reference_keys)
    only_reference = sorted(reference_keys - computed_keys)

    bad_weights, bad_degree = HAND_REFERENCE[1]
    non_divisor = max(a for a in bad_weights if bad_degree % a)
    note1 = (
        f"reference row weights {bad_weights} degree {bad_degree} is not a valid catalog "
        f"entry: {non_divisor} does not divide {bad_degree} and the weight sum minus the "
        f"degree is {sum(bad_weights) - bad_degree}, not 1"
    )

    ref210 = WeightSystem(tuple(HAND_REFERENCE[3][0]), HAND_REFERENCE[3][1])
    plan = plan_cover_universal(ref210)
    assert plan.ok
    route = []
    current = ref210
    for i, _ in plan.steps:
        route.append(current.weights[i])
        raw = list(current.weights)
        raw[i] = 1
        current = WeightSystem(tuple(sorted(raw)), current.degree)
    resistant_210 = next(ws for ws in computed if ws.degree == ref210.degree)
    note2 = (
        f"reference row weights {list(ref210.weights)} degree {ref210.degree} admits a full "
        f"cover route {tuple(route)}, so every quasi-smooth member has a smooth cover and "
        f"the family is classified {Verdict.K_STABLE.value}; the computed resistant family "
        f"of degree {resistant_210.degree} is {list(resistant_210.weights)}"
    )

    payload = {
        "catalog_size": summary.total,
        "counts": summary.counts,
        "computed_unknowns": [fmt(ws) for ws in computed],
        "hand_reference": [{"weights": weights, "degree": degree} for weights, degree in HAND_REFERENCE],
        "agreeing_rows": [as_row(k) for k in agreeing],
        "only_computed": [as_row(k) for k in only_computed],
        "only_reference": [as_row(k) for k in only_reference],
        "notes": [note1, note2],
    }
    emitted = tmp_path / "fourfold_discrepancy.json"
    emitted.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    frozen = json.loads((FIXTURES / "fourfold_discrepancy.json").read_text(encoding="utf-8"))
    assert payload == frozen


def test_c10_fermat_margin_examples():
    unstable = fermat_k_stability(WeightSystem((2, 3, 3, 3, 3, 3), 6))
    assert unstable.verdict is Verdict.K_UNSTABLE
    assert unstable.margin == -1

    semistable = fermat_k_stability(WeightSystem((2, 3, 3, 3, 3), 6))
    assert semistable.verdict is Verdict.K_SEMISTABLE
    assert semistable.margin == 0

    cubic = fermat_k_stability(WeightSystem((1, 1, 1, 1), 3))
    assert cubic.verdict is Verdict.K_STABLE
    assert cubic.aut_finite

    assert aut_finite((3, 3, 4, 4), (12,))


def test_c11_trace_recompute_sample(surface_catalog, threefold_catalog, fourfold_catalog):
    pool = [
        (ws, member)
        for catalog in (surface_catalog, threefold_catalog, fourfold_catalog)
        for ws in catalog.systems
        for member in (MEMBER_ANY, MEMBER_FERMAT, MEMBER_GENERAL)
    ]
    assert len(pool) == (4 + 30 + 661) * 3
    rng = random.Random(20260814)
    for ws, member in rng.sample(pool, 500):
        report = classify(ws, member)
        assert report.verdict is join_verdicts(entry.verdict for entry in report.trace)
        for entry in report.trace:
            assert recompute_entry(entry) == (entry.conclusion, entry.verdict), (ws, member)
        json.dumps(report_to_json(report))


def test_c12_bruteforce_and_semigroup_oracles(surface_catalog, threefold_catalog):
    brute_surface = enumerate_bruteforce(4, 1, 60)
    assert list(brute_surface.systems) == [
        ws for ws in surface_catalog.systems if max(ws.weights) <= 60
    ]
    brute_threefold = enumerate_bruteforce(5, 1, 60)
    assert list(brute_threefold.systems) == [
        ws for ws in threefold_catalog.systems if max(ws.weights) <= 60
    ]

    from wfano import semigroup_representable

    rng = random.Random(20260814)
    mismatches = 0
    for _ in range(40):
        gens = tuple(rng.randint(2, 60) for _ in range(rng.randint(1, 4)))
        for target in range(201):
            if semigroup_representable(target, gens) != naive_representable(target, gens):
                mismatches += 1
    assert mismatches == 0
