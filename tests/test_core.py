"""Core arithmetic: weight systems, the degree inequality, numerical semigroups.

The semigroup routines are checked against deliberately naive oracles (a
table-filling membership test and an exhaustive lexicographic search) so that
the closed forms and the capped peeling are never trusted on their own word.
"""

import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import tokenize
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wfano
from wfano import core, monomial
from wfano import (
    WeightSystem,
    check_lemma_ineq,
    classify,
    minimal_triple_gap,
    semigroup_decomposition,
    semigroup_representable,
    star_case,
    threshold_c,
    triple_gap,
    validate,
)
from wfano.core import (
    RULE_GENERAL_PAIR,
    RULE_STAR_PAIR,
    RULE_UNIT_WEIGHT,
    SHAPE_ALL_ONES,
    SHAPE_STAR,
    InequalityCheck,
    InequalityReport,
    boundary_shape,
    precondition_errors,
)


def naive_representable(target: int, generators) -> bool:
    """Textbook coin-problem table, independent of the code under test."""
    if target < 0:
        return False
    gens = [g for g in set(generators) if 0 < g <= target]
    table = [False] * (target + 1)
    table[0] = True
    for value in range(1, target + 1):
        table[value] = any(table[value - g] for g in gens if g <= value)
    return table[target]


def naive_decomposition(target: int, generators):
    """Exhaustive lexicographically minimal coefficient search."""
    best = None
    ranges = [range(target // g + 1) for g in generators]
    for combo in itertools.product(*ranges):
        if sum(c * g for c, g in zip(combo, generators)) == target:
            if best is None or combo < best:
                best = combo
    return best


class TestWeightSystem:
    def test_canonical_order(self):
        ws = WeightSystem.of((3, 1, 2), 6)
        assert ws.weights == (1, 2, 3)
        assert ws.degree == 6

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            WeightSystem((2, 1, 3), 6)

    def test_constructor_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            WeightSystem((0, 1, 2), 3)
        with pytest.raises(ValueError, match="positive"):
            WeightSystem((1, 1, 2), 0)

    def test_constructor_rejects_bool(self):
        # True == 1, yet (True,1,1,1):3 would render as "True,1,1,1:3"
        with pytest.raises(ValueError, match="weights must be positive integers"):
            WeightSystem((True, 1, 1, 1), 3)
        with pytest.raises(ValueError, match="degree must be a positive integer"):
            WeightSystem((1,), True)

    def test_basic_properties(self):
        ws = WeightSystem((1, 1, 2, 3, 6), 12)
        assert ws.index == 1
        assert ws.dim == 3
        assert ws.n == 4
        assert ws.divisible
        assert ws.quotients == (12, 12, 6, 4, 2)
        assert ws.well_formed
        assert not ws.is_linear_cone
        assert ws.render() == "1,1,2,3,6:12"

    def test_linear_cone(self):
        assert WeightSystem((1, 1, 2, 6), 6).is_linear_cone
        assert not WeightSystem((1, 1, 2, 6), 12).is_linear_cone

    def test_divisibility_flag(self):
        assert not WeightSystem((1, 2, 4), 6).divisible

    def test_well_formedness(self):
        # gcd of all weights but one must be 1 for every omitted coordinate
        assert not WeightSystem((2, 2, 3), 6).well_formed
        assert not WeightSystem((1, 2, 2), 4).well_formed
        assert WeightSystem((1, 1, 2), 4).well_formed
        assert WeightSystem((1, 1, 2, 3, 6), 12).well_formed

    def test_validate_flags(self):
        report = validate(WeightSystem((1, 1, 2, 3, 6), 12), 1)
        assert report.ok
        assert report.well_formed and report.divisibility and report.index_matches
        assert not report.linear_cone

        bad = validate(WeightSystem((2, 2, 3), 6), 1)
        assert not bad.ok
        assert not bad.well_formed
        assert bad.index_matches

        wrong_index = validate(WeightSystem((1, 1, 2, 3, 6), 12), 2)
        assert not wrong_index.index_matches
        assert not wrong_index.ok

    def test_validate_rejects_nonpositive_index(self):
        with pytest.raises(ValueError, match="index must be positive"):
            validate(WeightSystem((1, 1, 2), 3), 0)

    def test_validate_rejects_bool_index(self):
        # True == 1 would pass as the index of 1,1,2,3,6:12
        with pytest.raises(ValueError, match="index must be an integer, got True"):
            validate(WeightSystem((1, 1, 2, 3, 6), 12), True)


class TestStarCase:
    def test_positive(self):
        assert star_case(WeightSystem((1, 1, 2, 3, 6), 12)) == 6

    def test_requires_even_degree(self):
        assert star_case(WeightSystem((1, 1, 1, 1), 3)) is None

    def test_requires_both_weights(self):
        # d = 8, a = 4: the weights must contain both 2 and 4
        assert star_case(WeightSystem((1, 1, 2, 4), 8)) == 4
        assert star_case(WeightSystem((1, 2, 2, 4), 8)) == 4
        assert star_case(WeightSystem((1, 1, 4, 4), 8)) is None
        assert star_case(WeightSystem((1, 2, 2, 2), 8)) is None

    def test_half_degree_must_be_at_least_three(self):
        # d = 4 gives a = 2 < 3, excluded regardless of the weights
        assert star_case(WeightSystem((1, 1, 2, 2), 4)) is None


class TestThreshold:
    def test_star_value(self):
        assert threshold_c(WeightSystem((1, 1, 2, 3), 6)) == Fraction(4, 6)

    def test_generic_value(self):
        assert threshold_c(WeightSystem((1, 1, 1, 1), 3)) == Fraction(2, 3)
        assert threshold_c(WeightSystem((3, 3, 5, 5), 15)) == Fraction(14, 15)


def naive_check_lemma_ineq(ws: WeightSystem) -> InequalityReport:
    """The per-pair evaluation: three Fractions built afresh for every ordered pair."""
    errors = precondition_errors(ws, index_one=True)
    if errors:
        return InequalityReport(ws, errors, ())

    d = ws.degree
    star = star_case(ws)
    c = threshold_c(ws)
    checks = []
    for i, ai in enumerate(ws.weights):
        for j, aj in enumerate(ws.weights):
            if i == j:
                continue
            if ai == 1:
                lhs = Fraction(-d - 1 + ai) + c * d
                rhs = Fraction(-1)
                rule = RULE_UNIT_WEIGHT
            elif star is not None and ai == 2 and aj == star:
                lhs = Fraction(-d - 1 + ai) + c * Fraction(d, ai)
                rhs = Fraction(-aj)
                rule = RULE_STAR_PAIR
            else:
                lhs = Fraction(-d - 1 + ai + d // ai)
                rhs = Fraction(-aj)
                rule = RULE_GENERAL_PAIR
            checks.append(InequalityCheck(rule, i, j, lhs, rhs))

    floor = Fraction(ws.n - 1, ws.n)
    return InequalityReport(
        system=ws,
        precondition_errors=(),
        checks=tuple(checks),
        c_value=c,
        c_bound_ok=c > floor or c == floor and boundary_shape(ws) is not None,
    )


class TestLemmaInequality:
    def test_passes_on_smooth_cubic(self):
        report = check_lemma_ineq(WeightSystem((1, 1, 1, 1), 3))
        assert report.passed
        assert report.precondition_errors == ()
        assert report.checks
        assert all(c.ok for c in report.checks)
        assert report.failures == ()

    def test_rule_kinds_and_star_equality(self):
        report = check_lemma_ineq(WeightSystem((1, 1, 2, 2, 5), 10))
        kinds = {c.rule for c in report.checks}
        assert kinds == {"unit_weight", "star_pair", "general_pair"}
        # the star pair (2, a) always meets its inequality with equality
        star_checks = [c for c in report.checks if c.rule == "star_pair"]
        assert star_checks
        assert all(c.lhs == c.rhs for c in star_checks)
        assert report.c_value == Fraction(4, 5)
        assert report.c_value > Fraction(3, 4)  # the floor (n-1)/n
        assert report.c_bound_ok
        assert report.passed

    def test_every_ordered_pair_checked(self):
        ws = WeightSystem((1, 1, 2, 3, 6), 12)
        report = check_lemma_ineq(ws)
        pairs = {(c.i, c.j) for c in report.checks}
        expected = {(i, j) for i in range(5) for j in range(5) if i != j}
        assert pairs == expected

    def test_equality_shape_accepted(self):
        # boundary systems meet c == (n-1)/n exactly and still pass
        report = check_lemma_ineq(WeightSystem((1, 1, 2, 3), 6))
        assert report.c_value == Fraction(2, 3)  # the floor (n-1)/n
        assert report.c_bound_ok
        assert report.passed

    def test_preconditions_block_checks(self):
        report = check_lemma_ineq(WeightSystem((2, 3, 3, 3, 3, 3), 6))
        assert not report.passed
        assert report.precondition_errors
        assert any("well" in e for e in report.precondition_errors)
        assert any("index" in e for e in report.precondition_errors)
        assert report.checks == ()

    def test_catalog_reports_pinned(self, surface_catalog, threefold_catalog, fourfold_catalog):
        # every rule, side and threshold of the 4 surfaces, 30 threefolds and
        # 661 fourfolds, in catalog order
        systems = [ws for result in (surface_catalog, threefold_catalog, fourfold_catalog) for ws in result.systems]
        assert len(systems) == 695
        text = "\n".join(repr(check_lemma_ineq(ws)) for ws in systems)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "4fe1a8da46a2496c721100d6bf9fe9eb0aacafd1f5091cd47e92fbb9cde1eb02"


class TestSemigroupMembership:
    def test_matches_naive_oracle(self):
        rng = random.Random(8141)
        for _ in range(300):
            k = rng.randint(1, 4)
            gens = tuple(rng.randint(2, 40) for _ in range(k))
            target = rng.randint(0, 200)
            expected = naive_representable(target, gens)
            assert semigroup_representable(target, gens) == expected, (target, gens)

    def test_zero_is_always_representable(self):
        assert semigroup_representable(0, ())
        assert semigroup_representable(0, (7, 11))

    def test_empty_generators(self):
        assert not semigroup_representable(5, ())

    def test_unit_generator(self):
        assert semigroup_representable(123, (1,))

    def test_negative_target(self):
        assert not semigroup_representable(-3, (2, 5))

    def test_rejects_nonpositive_generators(self):
        with pytest.raises(ValueError, match="positive"):
            semigroup_representable(4, (0, 2))
        with pytest.raises(ValueError, match="positive"):
            semigroup_representable(4, (-1, 3))

    def test_rejects_non_integer_target(self):
        for gens in ((1,), (1, 7), (2, 3)):
            with pytest.raises(ValueError, match="target"):
                semigroup_representable(2.5, gens)
        with pytest.raises(ValueError, match="target"):
            semigroup_representable(6.0, (2, 3))
        with pytest.raises(ValueError, match="target"):
            semigroup_representable(Fraction(6), (2, 3))

    def test_rejects_bool(self):
        # True == 1 lies in <1>, and 3 = 1*1 + 1*2, yet a bool is no target or generator
        with pytest.raises(ValueError, match="target must be an integer, got True"):
            semigroup_representable(True, (1,))
        # checked before deduplication, where True and 1 are one element
        with pytest.raises(ValueError, match="generators must be positive integers"):
            semigroup_representable(3, (1, True))


CAPPED_MEMBERSHIP = """
import resource, sys
cap = 400 << 20
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
from wfano import semigroup_representable
print(semigroup_representable(int(sys.argv[1]), tuple(map(int, sys.argv[2:]))))
"""


def test_membership_near_ten_million_within_memory_cap():
    a = 10**7
    gens = (a, a + 1, 12_500_000, 15_000_000)
    # one below Schur's bound (a_1 - 1)(a_k - 1) - 1, so no shortcut answers
    target = (a - 1) * (gens[-1] - 1) - 2
    # above the Frobenius number of the first two generators, so in <gens>
    assert target > a * (a + 1) - a - (a + 1)
    src = str(Path(wfano.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", CAPPED_MEMBERSHIP, str(target), *map(str, gens)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True"]
    assert elapsed < 20, f"took {elapsed:.1f} s"


def test_membership_skips_targets_no_count_of_generators_reaches(monkeypatch):
    # J generators among 1000..1005 sum to a value in [1000*J, 1005*J]: 80999
    # lies between the intervals of J = 80 and J = 81, so the peel rejects it
    # at the root, where the full peel of 1002..1005 makes 1,929,501 pair
    # tests.  80200 lies in the interval of J = 80; every leaf before
    # 80200 - 40*1003 - 40*1002 = 0 is skipped, so 0 is the one pair test.
    calls = []
    real = core._least_multiple

    def counted(target, g, c):
        calls.append((target, g, c))
        return real(target, g, c)

    monkeypatch.setattr(core, "_least_multiple", counted)
    assert not semigroup_representable(80999, range(1000, 1006))
    assert calls == []
    assert semigroup_representable(80200, range(1000, 1006))
    assert calls == [(0, 1001, 1000)]


# one strategy per branch of semigroup_representable; targets stay small
# enough for the table of naive_representable
one_generator = st.tuples(st.integers(0, 300), st.tuples(st.integers(1, 40)))


@st.composite
def common_gcd(draw):
    h = draw(st.integers(2, 6))
    base = draw(st.lists(st.integers(1, 15), min_size=2, max_size=4))
    return draw(st.integers(0, 300)), tuple(h * b for b in base)


@st.composite
def coprime_pair(draw):
    a = draw(st.integers(2, 30))
    b = draw(st.integers(2, 60).filter(lambda b: gcd(a, b) == 1))
    return draw(st.integers(0, a * b)), (a, b)


@st.composite
def above_schur_bound(draw):
    gens = draw(st.lists(st.integers(2, 30), min_size=2, max_size=4, unique=True))
    assume(gcd(*gens) == 1)
    bound = (min(gens) - 1) * (max(gens) - 1) - 1
    return bound + draw(st.integers(1, 50)), tuple(gens)


@st.composite
def small_first_large_target(draw):
    # three or more generators above a small a_1, target below Schur's bound
    # and large against the rest: a peel with several multiples of each
    # generator above the two smallest
    a = draw(st.integers(2, 7))
    rest = draw(st.lists(st.integers(a + 1, 60), min_size=2, max_size=4, unique=True))
    gens = (a, *rest)
    assume(gcd(*gens) == 1)
    return draw(st.integers((a - 1) * (max(gens) - 1) // 2, (a - 1) * (max(gens) - 1))), gens


@st.composite
def large_generators_small_target(draw):
    # three or more large generators against a small target: peeling
    gens = draw(st.lists(st.integers(20, 80), min_size=3, max_size=5, unique=True))
    return draw(st.integers(0, 3 * min(gens))), tuple(gens)


@st.composite
def shared_factor_with_first(draw):
    # 4-6 generators; those above the two smallest share a large factor f
    # with a_1, so the exchange caps their multiples at a_1/gcd(a_1, c) - 1,
    # below t // c; target below Schur's bound
    f = draw(st.integers(3, 10))
    a = f * draw(st.integers(1, 3))
    b = draw(st.integers(a + 1, a + 20))
    large = draw(st.lists(st.integers(b // f + 1, b // f + 12), min_size=2, max_size=4, unique=True))
    gens = (a, b, *(f * v for v in large))
    assume(gcd(*gens) == 1)
    return draw(st.integers(0, (a - 1) * (max(gens) - 1) - 1)), gens


membership_cases = st.one_of(
    one_generator,
    common_gcd(),
    coprime_pair(),
    above_schur_bound(),
    small_first_large_target(),
    large_generators_small_target(),
    shared_factor_with_first(),
)


class TestSemigroupProperties:
    @settings(max_examples=600)
    @given(membership_cases)
    def test_membership_matches_naive_oracle(self, case):
        target, gens = case
        assert semigroup_representable(target, gens) == naive_representable(target, gens)

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.lists(st.integers(2, 12), min_size=1, max_size=3).flatmap(
                # duplicates, and pairs where one distinct generator remains
                lambda gens: st.tuples(st.integers(0, 60), st.sampled_from((gens, gens + gens[-1:])))
            ),
            # four distinct generators: the first coefficient peels the two largest others
            st.tuples(st.integers(0, 60), st.lists(st.integers(2, 12), min_size=4, max_size=4, unique=True)),
        )
    )
    def test_decomposition_matches_exhaustive_search(self, case):
        target, gens = case
        gens = tuple(gens)
        assert semigroup_decomposition(target, gens) == naive_decomposition(target, gens)

    def test_large_pair_decomposition(self):
        # gcd 2,860,263; the target is 76,913 times it, near the degree
        # 222,614,269,290 of the largest fivefold
        gens = (122991309, 5177076030)
        target = 219991408119
        m, n = semigroup_decomposition(target, gens)
        assert m * gens[0] + n * gens[1] == target
        assert (target - (m - 1) * gens[0]) % gens[1] != 0


class TestSemigroupDecomposition:
    def test_matches_exhaustive_search(self):
        rng = random.Random(8142)
        for _ in range(100):
            k = rng.randint(1, 3)
            gens = tuple(rng.randint(2, 12) for _ in range(k))
            target = rng.randint(0, 60)
            expected = naive_decomposition(target, gens)
            assert semigroup_decomposition(target, gens) == expected, (target, gens)

    def test_pinned_value(self):
        assert semigroup_decomposition(48, (4, 5)) == (2, 8)

    def test_reconstruction(self):
        gens = (3, 7, 11)
        coeffs = semigroup_decomposition(41, gens)
        assert coeffs is not None
        assert sum(c * g for c, g in zip(coeffs, gens)) == 41

    def test_unrepresentable_returns_none(self):
        assert semigroup_decomposition(5, (3, 4)) is None

    def test_input_edges(self):
        assert semigroup_decomposition(-3, (3, 4)) is None
        assert semigroup_decomposition(0, ()) == ()
        assert semigroup_decomposition(7, ()) is None
        # 9 is a gap of <5, 6, 7>, and the first coefficient already has no solution
        assert semigroup_decomposition(9, (5, 6, 7)) is None
        with pytest.raises(ValueError, match="positive"):
            semigroup_decomposition(6, (3, 0))
        with pytest.raises(ValueError, match="positive"):
            semigroup_decomposition(6, (3, 1.5))
        with pytest.raises(ValueError, match="target"):
            semigroup_decomposition(6.0, (2, 3))
        with pytest.raises(ValueError, match="target"):
            semigroup_decomposition(-3.0, (2, 3))

    def test_rejects_bool_generator(self):
        with pytest.raises(ValueError, match=r"positive integers, got \(True, 2\)"):
            semigroup_decomposition(3, (True, 2))

    def test_duplicate_generators(self):
        gens = (3, 3, 4)
        assert semigroup_decomposition(10, gens) == naive_decomposition(10, gens)

    @pytest.mark.parametrize(
        "target, gens, expected",
        [(5, (5,), (1,)), (7, (2, 3), (2, 1)), (10, (3, 3, 4), (0, 2, 1)), (9, (5, 6, 7), None)],
    )
    def test_generators_in_any_iterable(self, target, gens, expected):
        # the generators are read once, so an iterator answers as its tuple does
        for make in (tuple, list, iter, lambda g: (x for x in g)):
            assert semigroup_decomposition(target, make(gens)) == expected
            assert semigroup_representable(target, make(gens)) == (expected is not None)

    @staticmethod
    def _count_pair_tests(monkeypatch):
        calls = []
        real = core._least_multiple

        def counted(target, g, c):
            calls.append((target, g, c))
            return real(target, g, c)

        monkeypatch.setattr(core, "_least_multiple", counted)
        return calls

    def test_search_skips_branches_without_a_decomposition(self, monkeypatch):
        # 80000 is no sum of 1001..1005, so the first coefficient is 80, read
        # from the first leaf; the full peel of 1002..1005 makes 1,837,620 pair
        # tests for it.  Every other branch has a target outside [J*lo, J*hi]
        # for every count J of its free generators lo..hi, and each later
        # coefficient is 0 at its first leaf.
        calls = self._count_pair_tests(monkeypatch)
        assert semigroup_decomposition(80000, tuple(range(1000, 1006))) == (80, 0, 0, 0, 0, 0)
        assert len(calls) == 5

    def test_search_returns_at_zero(self, monkeypatch):
        # the first leaf (20) gives m = 1, the second (20 - 5) gives m = 0 and ends the search
        calls = self._count_pair_tests(monkeypatch)
        assert core._least_coefficient(20, 2, (3, 5, 7)) == 0
        assert calls == [(20, 2, 3), (15, 2, 3)]


def test_catalog_pair_tests_pinned(fourfold_catalog, monkeypatch):
    # the pair tests that classify makes on the 661 fourfolds and on their
    # lifts (a..., d : 2d) to dimension 5, the traffic of the classify4 and
    # classify5_lift benchmark workloads; membership and decomposition share
    # the capped peel
    calls = TestSemigroupDecomposition._count_pair_tests(monkeypatch)
    for ws in fourfold_catalog.systems:
        classify(ws)
    assert len(calls) == 1283
    calls.clear()
    for ws in fourfold_catalog.systems:
        classify(WeightSystem(ws.weights + (ws.degree,), 2 * ws.degree))
    assert len(calls) == 872


def count_membership_tests(monkeypatch):
    """The (target, generators) of every membership test the planners make."""
    calls = []
    real = monomial._representable

    def counted(target, gens):
        calls.append((target, gens))
        return real(target, gens)

    monkeypatch.setattr(monomial, "_representable", counted)
    return calls


def test_catalog_membership_tests_pinned(fourfold_catalog, monkeypatch):
    # the membership tests of the universal star checks in the same two
    # passes; without the pool-gcd test in _blocking_subset they were 18,906
    # and 45,241
    calls = count_membership_tests(monkeypatch)
    for ws in fourfold_catalog.systems:
        classify(ws)
    assert len(calls) == 5276
    calls.clear()
    for ws in fourfold_catalog.systems:
        classify(WeightSystem(ws.weights + (ws.degree,), 2 * ws.degree))
    assert len(calls) == 6969


class TestTripleGap:
    def test_formula(self):
        assert triple_gap(3, 4, 5) == 3 * 4 * 5 - 3 - 4 - 5

    def test_minimal_search_matches_bruteforce(self):
        bound = 12
        best = None
        for a0, a1, a2 in itertools.combinations(range(2, bound + 1), 3):
            if any(
                lcm(x, y) != x * y
                for x, y in itertools.combinations((a0, a1, a2), 2)
            ):
                continue
            if any(
                naive_representable(a, (b, c))
                for a, b, c in ((a0, a1, a2), (a1, a0, a2), (a2, a0, a1))
            ):
                continue
            candidate = (triple_gap(a0, a1, a2), (a0, a1, a2))
            if best is None or candidate < best:
                best = candidate
        assert minimal_triple_gap(bound) == best

    def test_pinned_minimum(self):
        assert minimal_triple_gap(30) == (48, (3, 4, 5))

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError, match="bound"):
            minimal_triple_gap(4)


def test_lcm_identity_on_small_catalogs(surface_catalog, threefold_catalog):
    # index-1 divisible systems satisfy d == lcm(d / a_i)
    for result in (surface_catalog, threefold_catalog):
        for ws in result.systems:
            assert ws.degree == lcm(*ws.quotients)


# ascending systems of every kind, and index-1 systems whose weights all
# divide the degree: drawn proper divisors, the rest of d + 1 filled greedily
# with proper divisors (1 always divides); half of them end in two 1s, which
# makes them well-formed, so that many pass every check
ascending_systems = st.builds(
    WeightSystem.of,
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.integers(1, 40),
)


@st.composite
def index_one_systems(draw):
    degree = draw(st.integers(2, 60))
    divisors = [a for a in range(1, degree) if degree % a == 0]
    weights = draw(st.lists(st.sampled_from(divisors), max_size=4))
    ones = draw(st.sampled_from((0, 2)))
    rest = degree + 1 - sum(weights) - ones
    assume(rest >= 0)
    weights += [1] * ones
    for a in reversed(divisors):
        count, rest = divmod(rest, a)
        weights += [a] * count
    assume(len(weights) <= 8)
    return WeightSystem.of(weights, degree)


@st.composite
def star_case_systems(draw):
    # weights holding 2 and a with degree 2a, plus divisors of 2a; completed to
    # index 1 with ones half of the time, which gives the boundary shape
    # (1,...,1,2,a : 2a) among others
    a = draw(st.integers(3, 15))
    degree = 2 * a
    divisors = [b for b in range(1, degree) if degree % b == 0]
    weights = [2, a] + draw(st.lists(st.sampled_from(divisors), max_size=3))
    rest = degree + 1 - sum(weights)
    if rest >= 0 and draw(st.booleans()):
        weights += [1] * rest
    assume(len(weights) <= 10)
    return WeightSystem.of(weights, degree)


# (1,...,1 : n), the other boundary shape
all_ones_systems = st.integers(2, 8).map(lambda n: WeightSystem((1,) * (n + 1), n))


class TestLemmaInequalityOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(ascending_systems, index_one_systems(), star_case_systems(), all_ones_systems))
    @example(WeightSystem((1, 1, 2, 2, 5), 10))
    @example(WeightSystem((1, 1, 2, 3), 6))
    def test_matches_per_pair_evaluation(self, ws):
        report = check_lemma_ineq(ws)
        expected = naive_check_lemma_ineq(ws)
        assert report == expected
        assert repr(report) == repr(expected)
        assert all(isinstance(ch.lhs, Fraction) and isinstance(ch.rhs, Fraction) for ch in report.checks)


class TestSharedChecks:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ascending_systems, index_one_systems()))
    def test_index_one_preconditions_match_validate(self, ws):
        assert (precondition_errors(ws, index_one=True) == ()) == validate(ws, 1).ok

    @settings(max_examples=300, deadline=None)
    @given(index_one_systems())
    def test_boundary_shape_iff_threshold_at_floor(self, ws):
        assume(not precondition_errors(ws, index_one=True))
        n = ws.n
        assert (boundary_shape(ws) is not None) == (threshold_c(ws) == Fraction(n - 1, n))

    def test_boundary_shapes_named(self):
        assert boundary_shape(WeightSystem((1, 1, 1, 1), 3)) == SHAPE_ALL_ONES
        assert boundary_shape(WeightSystem((1, 1, 2, 3), 6)) == SHAPE_STAR
        assert boundary_shape(WeightSystem((1, 1, 2, 3, 6), 12)) is None
        assert boundary_shape(WeightSystem((1, 1, 1), 6)) is None


def test_verdict_modules_have_no_assert():
    # assert statements vanish under python -O; verdict guards must raise
    paths = sorted(Path(wfano.__file__).parent.glob("*.py"))
    assert {"__init__.py", "cli.py", "core.py", "monomial.py"} <= {path.name for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_top_level_names_are_used():
    # a module-level name that occurs only where it is defined is dead code
    root = Path(wfano.__file__).resolve().parents[2]
    counts = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            with path.open("rb") as source:
                tokens = tokenize.tokenize(source.readline)
                counts.update(token.string for token in tokens if token.type == tokenize.NAME)
    unused = []
    for path in sorted(Path(wfano.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list:
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            unused += [f"{path.name}:{name}" for name in names if counts[name] < 2]
    assert unused == []


def test_dataclass_fields_are_read():
    # a dataclass field or a property of any class that is never read as
    # .name is dead data; ast, unlike tokenize on Python 3.11, also sees the
    # attributes read inside f-strings
    root = Path(wfano.__file__).resolve().parents[2]
    read = {
        node.attr
        for folder in ("src", "tests", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    unread = []
    for path in sorted(Path(wfano.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            is_dataclass = any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            fields = [f.target.id for f in node.body if is_dataclass and isinstance(f, ast.AnnAssign)]
            properties = [
                f.name
                for f in node.body
                if isinstance(f, ast.FunctionDef)
                and any(isinstance(d, ast.Name) and d.id == "property" for d in f.decorator_list)
            ]
            unread += [f"{path.name}:{node.name}.{name}" for name in fields + properties if name not in read]
    assert unread == []
