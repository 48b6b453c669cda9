"""Supports, star conditions, covers, substitutions, and the cover planner.

The two shipped support fixtures are re-derived here from scratch by
expanding the defining pencils with binomial coefficients and tracking
cancellation in a Counter, so the JSON files cannot drift silently.
"""

import hashlib
import json
import random
from collections import Counter
from functools import cache
from itertools import combinations
from math import comb, gcd, prod
from operator import mul

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from wfano import (
    Support,
    SupportError,
    WeightSystem,
    apply_cover,
    classify,
    fermat_support,
    load_support,
    plan_cover_for_support,
    plan_cover_universal,
    quasi_smooth_failure,
    save_support,
    star_condition,
    star_condition_at,
    substitute,
    universal_star_at,
)
from wfano import monomial
from wfano.monomial import CoverPlan

from conftest import FIXTURES
from test_core import count_membership_tests, naive_decomposition, naive_representable

X60 = FIXTURES / "x60_p3454_15_30.json"
X60_DIM50 = FIXTURES / "x60_dim50_p1x49_345.json"


def all_monomials(weights, degree):
    """Every exponent vector of the given weighted degree."""
    rows = []

    def rec(pos, remaining, acc):
        if pos == len(weights) - 1:
            if remaining % weights[pos] == 0:
                rows.append(tuple(acc + [remaining // weights[pos]]))
            return
        for k in range(remaining // weights[pos] + 1):
            rec(pos + 1, remaining - k * weights[pos], acc + [k])

    rec(0, degree, [])
    return rows


def pencil_coefficients():
    """Expansion of (x^4+y^3)^5 + (x^5+z^3)^4 + (y^5+z^4)^3 minus duplicate pure powers."""
    coeff = Counter()
    for r in range(6):
        coeff[(4 * r, 3 * (5 - r), 0)] += comb(5, r)
    for r in range(5):
        coeff[(5 * r, 0, 3 * (4 - r))] += comb(4, r)
    for r in range(4):
        coeff[(0, 5 * r, 4 * (3 - r))] += comb(3, r)
    for pure in ((20, 0, 0), (0, 15, 0), (0, 0, 12)):
        coeff[pure] -= 1
    return coeff


def x60_expected_rows():
    coeff = Counter()
    for head, c in pencil_coefficients().items():
        coeff[head + (0, 0, 0)] += c
    coeff[(17, 1, 1, 0, 0, 0)] += 1
    coeff[(1, 13, 1, 0, 0, 0)] += 1
    # the complementary block: every monomial of degree 60 in weights (4, 15, 30)
    for a in range(16):
        for b in range(5):
            for c in range(3):
                if 4 * a + 15 * b + 30 * c == 60:
                    coeff[(0, 0, 0, a, b, c)] += 1
    return {exps for exps, value in coeff.items() if value}


def dim50_expected_rows():
    coeff = Counter()
    for i in range(49):
        exps = [0] * 52
        exps[i] = 60
        coeff[tuple(exps)] += 1
    for head, c in pencil_coefficients().items():
        coeff[(0,) * 49 + head] += c
    coeff[(0,) * 49 + (1, 13, 1)] += 1
    coeff[(0,) * 49 + (2, 1, 10)] += 1
    return {exps for exps, value in coeff.items() if value}


def naive_universal_star_at(ws, i):
    """Every subset of the other distinct weight values, smallest first, each size
    in lexicographic order, with the naive semigroup oracles."""
    weights = ws.weights
    a_i = weights[i]
    values = sorted({a for j, a in enumerate(weights) if j != i})
    for size in range(len(values) + 1):
        for combo in combinations(values, size):
            if naive_representable(a_i, combo):
                continue
            remainder = ws.degree - a_i - sum(combo)
            if not naive_representable(remainder, combo):
                continue
            exps = [0] * len(weights)
            exps[i] = 1
            for value, m in zip(combo, naive_decomposition(remainder, combo)):
                lowest = min(j for j, a in enumerate(weights) if j != i and a == value)
                exps[lowest] = 1 + m
            return tuple(exps), i
    return None


@st.composite
def universal_star_systems(draw):
    # 3 to 7 weights with repeated values and divisors of other weights (1
    # among them); the degree need not be divisible by any weight
    base = draw(st.lists(st.integers(2, 24), min_size=2, max_size=5))
    top = draw(st.sampled_from(base))
    extras = draw(
        st.lists(
            st.one_of(
                st.sampled_from(base),
                st.sampled_from([c for c in range(1, top + 1) if top % c == 0]),
            ),
            min_size=max(0, 3 - len(base)),
            max_size=7 - len(base),
        )
    )
    weights = sorted(base + extras)
    return WeightSystem(weights, draw(st.integers(weights[-1], 120)))


@st.composite
def shared_factor_systems(draw):
    # most weights are multiples of one factor, so most pools have a gcd above
    # 1; the degree falls on either side of d - a_i being one of its multiples
    factor = draw(st.integers(2, 6))
    shared = draw(st.lists(st.integers(1, 8).map(lambda k: k * factor), min_size=2, max_size=5))
    others = draw(st.lists(st.integers(1, 24), max_size=2))
    weights = sorted(shared + others)
    return WeightSystem(weights, draw(st.integers(weights[-1], 120)))


def naive_plan_cover_universal(ws):
    """The per-position planner: every position above weight 1 checked on every
    step, and a re-sorted WeightSystem built after each cover."""
    current = ws
    steps = []
    while any(a > 1 for a in current.weights):
        first_blocked = None
        for i, a in enumerate(current.weights):
            if a <= 1:
                continue
            violation = universal_star_at(current, i)
            if violation is None:
                break
            if first_blocked is None:
                first_blocked = violation
        else:
            return CoverPlan(steps=tuple(steps), final_weights=current.weights, witness=first_blocked)
        raw = list(current.weights)
        raw[i] = 1
        perm = tuple(sorted(range(len(raw)), key=lambda j: (raw[j], j)))
        steps.append((i, None))
        current = WeightSystem(tuple(raw[p] for p in perm), current.degree)
    return CoverPlan(steps=tuple(steps), final_weights=current.weights, witness=None)


def some_cover_order_succeeds(ws):
    """Exhaustive search: does any order of universal cover steps reach all weights 1?"""

    @cache
    def succeeds(weights):
        if all(a == 1 for a in weights):
            return True
        current = WeightSystem(weights, ws.degree)
        return any(
            succeeds(tuple(sorted(weights[:i] + (1,) + weights[i + 1:])))
            for i, a in enumerate(weights)
            if a > 1 and universal_star_at(current, i) is None
        )

    return succeeds(ws.weights)


@st.composite
def divisible_systems(draw):
    # 3 to 7 weights drawn from the divisors of d <= 120: plans that succeed,
    # and plans that fail before or after some cover steps
    d = draw(st.integers(2, 120))
    divisors = [c for c in range(1, d + 1) if d % c == 0]
    return WeightSystem.of(draw(st.lists(st.sampled_from(divisors), min_size=3, max_size=7)), d)


def naive_star_violation(support):
    """First (monomial, index) that violates the star condition, in canonical
    order, by the coin-problem table; None when there is none."""
    for mono in support.monomials:
        for i, k in enumerate(mono):
            a_i = support.weights[i]
            if k == 1 and a_i > 1:
                gens = [support.weights[j] for j, kj in enumerate(mono) if j != i and kj > 0]
                if not naive_representable(a_i, gens):
                    return mono, i
    return None


def naive_plan_cover_for_support(support):
    """The Support-based planner: a validated Support rebuilt after every
    substitution and cover, and the star condition re-checked on it with the
    naive semigroup oracles."""
    current = support
    violation = naive_star_violation(current)
    steps = []
    while violation is None and any(a > 1 for a in current.weights):
        weights = current.weights
        i = min((j for j, a in enumerate(weights) if a > 1), key=lambda j: (weights[j], j))
        linear = [mono for mono in current.monomials if mono[i] == 1]
        if linear:
            positions = [j for j, k in enumerate(linear[0]) if j != i and k > 0]
            coeffs = naive_decomposition(weights[i], [weights[j] for j in positions])
            exps = [0] * len(weights)
            for j, m in zip(positions, coeffs):
                exps[j] += m
            steps.append((i, tuple(exps)))
            rows = list(current.monomials)
            for mono in current.monomials:
                t = mono[i]
                for r in range(1, t + 1):
                    row = list(mono)
                    row[i] = t - r
                    rows.append(tuple(k + r * m for k, m in zip(row, exps)))
            current = Support.of(weights, current.degree, rows)
            violation = naive_star_violation(current)
            if violation is not None:
                break
        raw = list(weights)
        raw[i] = 1
        perm = tuple(sorted(range(len(raw)), key=lambda j: (raw[j], j)))
        rows = []
        for mono in current.monomials:
            row = list(mono)
            row[i] *= weights[i]
            rows.append(tuple(row[p] for p in perm))
        current = Support.of(tuple(raw[p] for p in perm), current.degree, rows)
        steps.append((i, None))
        violation = naive_star_violation(current)
    return CoverPlan(steps=tuple(steps), final_weights=current.weights, witness=violation)


def fermat_support_in_source_order(weights, degree):
    """The support {z_i**(d/a_i)} with the weights kept in the given order."""
    rows = [tuple(degree // a if j == i else 0 for j in range(len(weights))) for i, a in enumerate(weights)]
    return Support.of(weights, degree, rows)


@st.composite
def shuffled_supports(draw):
    # 1 to 4 variables of weight 1..6 in any source order, so the first step
    # sees unsorted weights, and a random subset of the monomials of one
    # degree: plans that succeed with or without substitutions, and plans
    # that fail before or after some steps
    weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    degree = draw(st.integers(1, 18))
    rows = all_monomials(weights, degree)
    assume(rows)
    return Support.of(weights, degree, draw(st.lists(st.sampled_from(rows), min_size=1, max_size=10)))


def naive_quasi_smooth_failure(support):
    """The generic quasi-smoothness criterion tried on every nonempty variable
    set, size by size, each size in lexicographic order."""
    rows = support.monomials
    n = len(support.weights)
    for size in range(1, n + 1):
        for held in combinations(range(n), size):
            if any(all(j in held for j, k in enumerate(row) if k) for row in rows):
                continue
            linear = {
                e
                for row in rows
                for e, k in enumerate(row)
                if k == 1 and e not in held
                and all(j in held for j, kj in enumerate(row) if kj and j != e)
            }
            if len(linear) < size:
                return held
    return None


def random_small_support(rng):
    """A support over 2 to 4 variables of weight at most 4 and degree at most
    8, not a linear cone, holding each pure power with probability 3/4."""
    while True:
        weights = tuple(sorted(rng.randint(1, 4) for _ in range(rng.randint(2, 4))))
        degree = rng.randint(2, 8)
        if degree in weights:
            continue
        rows = all_monomials(weights, degree)
        pure = [row for row in rows if sum(1 for k in row if k) == 1]
        mixed = [row for row in rows if row not in pure]
        picked = [row for row in pure if rng.random() < 0.75]
        picked += rng.sample(mixed, min(len(mixed), rng.randint(0, 4)))
        if picked:
            return Support.of(weights, degree, picked)


@pytest.fixture(scope="module")
def x60():
    return load_support(X60)


@pytest.fixture(scope="module")
def x60_dim50():
    return load_support(X60_DIM50)


class TestMonomialAndSupport:
    def test_degree(self):
        assert Support.of((3, 4, 5), 10, [(2, 1, 0)]).monomials == ((2, 1, 0),)

    def test_rejects_negative_exponents(self):
        with pytest.raises(SupportError, match="non-negative"):
            Support.of((1, 1), 2, [(1, -1)])

    def test_normalization(self):
        support = Support.of((1, 2), 4, [(0, 2), (4, 0), (0, 2), (2, 1)])
        assert list(support.monomials) == [(4, 0), (2, 1), (0, 2)]

    def test_rejects_wrong_degree_row(self):
        with pytest.raises(SupportError, match="weighted degree"):
            Support.of((1, 2), 4, [(4, 0), (1, 1)])

    def test_rejects_empty(self):
        with pytest.raises(SupportError, match="at least one"):
            Support.of((1, 2), 4, [])

    def test_system_property(self):
        support = Support.of((5, 2, 3), 10, [(2, 0, 0), (0, 5, 0), (1, 1, 1)])
        assert support.system == WeightSystem((2, 3, 5), 10)

    def test_round_trip(self, x60, tmp_path):
        path = tmp_path / "copy.json"
        save_support(x60, path)
        assert load_support(path) == x60

    def test_load_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(SupportError, match="parse"):
            load_support(path)

    def test_load_non_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SupportError, match="support parse error: 'utf-8' codec can't decode"):
            load_support(path)

    def test_load_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"weights": [1, 2], "degree": 4}', encoding="utf-8")
        with pytest.raises(SupportError, match="schema"):
            load_support(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0, 2, 0), "monomial has 3 exponents, ambient has 2 weights"),
            ((4,), "monomial has 1 exponents, ambient has 2 weights"),
            ((6, -1), "exponents must be non-negative integers"),
            ((0, 2.0), "exponents must be non-negative integers"),
        ],
    )
    def test_malformed_row_is_a_support_error(self, tmp_path, row, message):
        with pytest.raises(SupportError, match=message):
            Support.of((1, 2), 4, [(4, 0), row])
        path = tmp_path / "bad_row.json"
        path.write_text(json.dumps({"weights": [1, 2], "degree": 4, "monomials": [[4, 0], list(row)]}), encoding="utf-8")
        with pytest.raises(SupportError, match=message):
            load_support(path)

    @pytest.mark.parametrize(
        "weights, degree, rows, message",
        [
            ((True, 2), 4, [(4, 0)], "weights must be positive integers"),
            ((1,), True, [(1,)], "degree must be a positive integer"),
            ((1, 2), 4, [(2, True)], "exponents must be non-negative integers"),
        ],
        ids=["weight", "degree", "exponent"],
    )
    def test_bool_is_a_support_error(self, tmp_path, weights, degree, rows, message):
        # JSON true reads as True == 1, which is no weight, degree or exponent
        with pytest.raises(SupportError, match=message):
            Support.of(weights, degree, rows)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"weights": weights, "degree": degree, "monomials": rows}), encoding="utf-8")
        with pytest.raises(SupportError, match=message):
            load_support(path)

    def test_constructor_rejects_row_of_wrong_length(self):
        with pytest.raises(SupportError, match="monomial has 3 exponents, ambient has 2 weights"):
            Support((1, 2), 4, ((0, 2, 0),))

    @pytest.mark.parametrize(
        "weights, rows, message",
        [
            ((1, 2), ([4, 0],), r"monomial rows must be tuples, got \[4, 0\]"),
            ([1, 2], ((4, 0),), r"weights must be a tuple, got \[1, 2\]"),
        ],
        ids=["row", "weights"],
    )
    def test_constructor_rejects_lists(self, weights, rows, message):
        # a list row was unhashable; list weights made a support that could
        # not be hashed and compared unequal to its tuple twin
        with pytest.raises(SupportError, match=message):
            Support(weights, 4, rows)
        support = Support.of(weights, 4, rows)
        assert support == Support((1, 2), 4, ((4, 0),))
        assert hash(support) == hash(Support((1, 2), 4, ((4, 0),)))


class TestFixturesRederived:
    def test_x60_matches_pencil_expansion(self, x60):
        assert x60.weights == (3, 4, 5, 4, 15, 30)
        assert x60.degree == 60
        assert set(x60.monomials) == x60_expected_rows()
        assert len(x60.monomials) == 18

    def test_dim50_matches_pencil_expansion(self, x60_dim50):
        assert x60_dim50.weights == (1,) * 49 + (3, 4, 5)
        assert x60_dim50.degree == 60
        assert set(x60_dim50.monomials) == dim50_expected_rows()
        assert len(x60_dim50.monomials) == 63


class TestFermatSupport:
    def test_rows_are_pure_powers(self):
        ws = WeightSystem((1, 1, 2, 3), 6)
        support = fermat_support(ws)
        assert set(support.monomials) == {
            (6, 0, 0, 0),
            (0, 6, 0, 0),
            (0, 0, 3, 0),
            (0, 0, 0, 2),
        }

    def test_linear_cone_rejected(self):
        with pytest.raises(ValueError, match="cone"):
            fermat_support(WeightSystem((1, 1, 2, 6), 6))


class TestStarCondition:
    def test_x60_first_violation(self, x60):
        row, i = star_condition(x60)
        assert row == (17, 1, 1, 0, 0, 0)
        assert i == 1
        assert x60.weights[i] == 4

    def test_x60_per_position(self, x60):
        assert star_condition_at(x60, 1) == ((17, 1, 1, 0, 0, 0), 1)
        # x^17*y*z also blocks the weight-5 variable: 5 is not in <3, 4>
        assert star_condition_at(x60, 2) is not None
        # no monomial is linear in the second weight-4 variable
        assert star_condition_at(x60, 3) is None
        # u^2*w is linear in w but 30 lies in <15>
        assert star_condition_at(x60, 5) is None

    def test_weight_one_position_rejected(self, x60_dim50):
        with pytest.raises(ValueError, match="weight > 1"):
            star_condition_at(x60_dim50, 0)

    def test_fermat_supports_pass(self):
        for ws in (
            WeightSystem((1, 1, 2, 3), 6),
            WeightSystem((3, 3, 5, 5), 15),
            WeightSystem((2, 4, 5, 5, 5), 20),
        ):
            assert star_condition(fermat_support(ws)) is None


class TestQuasiSmooth:
    def test_a_pure_power_in_one_variable_fails(self):
        # z_0^20 = 0 on 3,4,4,5,15,30:60: no monomial in z_1 alone, nor z_e * z_1^m
        support = Support.of((3, 4, 4, 5, 15, 30), 60, [[20, 0, 0, 0, 0, 0]])
        assert quasi_smooth_failure(support) == (1,)

    def test_shipped_and_fermat_supports_pass(self, x60, x60_dim50):
        for support in (x60, x60_dim50, fermat_support(WeightSystem((1, 1, 2, 3), 6))):
            assert quasi_smooth_failure(support) is None

    def test_linear_clause(self):
        # x*y + z^2 over 1,1,1:2: no row lies in {x} alone, but y appears to the
        # first power times x; likewise for {y}; x*y lies in {x, y}
        support = Support.of((1, 1, 1), 2, [[1, 1, 0], [0, 0, 2]])
        assert quasi_smooth_failure(support) is None
        # x*y alone: {z} has no row inside and no z_e * z^m row
        assert quasi_smooth_failure(Support.of((1, 1, 1), 2, [[1, 1, 0]])) == (2,)

    @settings(max_examples=300)
    @given(shuffled_supports())
    def test_pure_power_shortcut_matches_every_subset(self, support):
        assert quasi_smooth_failure(support) == naive_quasi_smooth_failure(support)

    def test_too_many_unpowered_variables_is_not_decided(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("a subset was enumerated")

        monkeypatch.setattr(monomial, "combinations", no_enumeration)
        n = monomial.MAX_UNPOWERED_VARIABLES + 1
        support = Support.of((1,) * n, 2, [[1, 1] + [0] * (n - 2)])
        with pytest.raises(ValueError, match=f"{n} variables have no pure power.*not decided"):
            quasi_smooth_failure(support)

    def test_agrees_with_the_jacobian_ideal(self):
        # quasi-smooth iff the cone over the member is smooth off the origin:
        # every variable has a power in the ideal of f and its partials, so
        # some leading monomial of its Groebner basis is a power of it
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20211)
        seen = Counter()
        for _ in range(60):
            support = random_small_support(rng)
            xs = sympy.symbols(f"x0:{len(support.weights)}")
            f = sum(
                rng.randint(1, 97) * prod(x**k for x, k in zip(xs, m))
                for m in support.monomials
            )
            basis = sympy.groebner([f, *(f.diff(x) for x in xs)], *xs, order="grevlex")
            leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
            smooth = all(
                any(all(k == 0 for j, k in enumerate(lead) if j != i) for lead in leads)
                for i in range(len(xs))
            )
            assert (quasi_smooth_failure(support) is None) is smooth, support
            seen[smooth] += 1
        assert seen[True] >= 10 and seen[False] >= 10, seen


class TestUniversalStar:
    def test_blocked_position_with_witness(self):
        ws = WeightSystem((1, 1, 3, 4, 4, 5), 60)
        row, i = universal_star_at(ws, 2)
        assert (row, i) == ((0, 0, 1, 3, 0, 9), 2)
        assert sum(map(mul, row, ws.weights)) == 60

    def test_open_positions(self):
        ws = WeightSystem((1, 1, 2, 3, 6), 12)
        for i in (2, 3, 4):
            assert universal_star_at(ws, i) is None

    def test_weight_one_rejected(self):
        with pytest.raises(ValueError, match="weight > 1"):
            universal_star_at(WeightSystem((1, 1, 2, 3), 6), 0)

    def test_ok_dominates_every_support(self):
        rng = random.Random(8143)
        systems = (
            WeightSystem((1, 1, 2, 3), 6),
            WeightSystem((3, 3, 5, 5), 15),
            WeightSystem((1, 1, 2, 2, 5), 10),
        )
        for ws in systems:
            rows = all_monomials(ws.weights, ws.degree)
            open_positions = [
                i for i, a in enumerate(ws.weights) if a > 1 and universal_star_at(ws, i) is None
            ]
            for _ in range(20):
                subset = rng.sample(rows, rng.randint(1, len(rows)))
                support = Support.of(ws.weights, ws.degree, subset)
                for i in open_positions:
                    assert star_condition_at(support, i) is None, (ws, i, subset)

    @settings(max_examples=400)
    @given(universal_star_systems())
    @example(WeightSystem((2, 3, 4), 7))  # blocked at 3 by {2}
    @example(WeightSystem((2, 3), 3))  # blocked at 3 by the empty set
    @example(WeightSystem((3, 4, 6), 12))  # at 3, gcd(4, 6) = 2 does not divide 9
    @example(WeightSystem((3, 4, 6), 13))  # at 3, 2 divides 10: blocked by {4, 6}
    @example(WeightSystem((2, 9, 12), 17))  # at 2, gcd(9, 12) = 3 divides 15: scanned, open
    def test_matches_naive_subset_scan(self, ws):
        for i, a in enumerate(ws.weights):
            if a > 1:
                assert universal_star_at(ws, i) == naive_universal_star_at(ws, i), (ws, i)

    def test_matches_naive_subset_scan_on_shared_factors(self):
        # the pool's gcd decides most positions here; both sides of that test
        # must be drawn often for the property to cover the closed form
        sides = Counter()

        @settings(max_examples=300)
        @given(shared_factor_systems())
        def check(ws):
            for i, a in enumerate(ws.weights):
                if a > 1:
                    g = gcd(*{v for v in ws.weights if a % v})  # 0 for an empty pool
                    if ws.degree != a and g > 1:
                        side = "gcd closes" if (ws.degree - a) % g else "gcd divides"
                        event(side)
                        sides[side] += 1
                    assert universal_star_at(ws, i) == naive_universal_star_at(ws, i), (ws, i)

        check()
        assert sides["gcd closes"] >= 100 and sides["gcd divides"] >= 100, sides

    def test_search_stops_after_first_size_without_blocking_subset(self, monkeypatch):
        # 1000003 lies outside the semigroup of the empty set and of each prime
        # alone, and inside that of every pair; without the per-size stop all
        # 2**20 subsets would be tested.  Sizes 0 and 1 are decided by
        # arithmetic, so only the pairs reach the membership test.
        primes = [p for p in range(2, 72) if all(p % q for q in range(2, p))]
        ws = WeightSystem(primes + [1000003], 1000003 * prod(primes))
        calls = []
        real = monomial._representable

        def counted(target, gens):
            calls.append((target, gens))
            return real(target, gens)

        monkeypatch.setattr(monomial, "_representable", counted)
        assert universal_star_at(ws, len(primes)) is None
        # the 190 pairs tested against a_i; no pair blocks, so no remainder is tested
        assert sum(1 for target, _ in calls if target == 1000003) == 190
        assert len(calls) == 190

    def test_pool_gcd_not_dividing_closes_the_search(self, monkeypatch):
        # a_i = 3 against the twelve even weights 4..26: 3 lies outside the
        # semigroup of every subset, so without the gcd test each of the 4,083
        # subsets of size 2 and up takes two membership tests; d - a_i = 181 is
        # odd, so no remainder is even and none of them can block
        ws = WeightSystem((3, *range(4, 27, 2)), 184)
        calls = count_membership_tests(monkeypatch)
        assert universal_star_at(ws, 0) is None
        assert calls == []

    def test_sizes_zero_and_one_block_in_closed_form(self):
        assert universal_star_at(WeightSystem((2, 3, 4), 7), 1) == ((2, 1, 0), 1)
        assert universal_star_at(WeightSystem((2, 3), 3), 1) == ((0, 1), 1)
        assert monomial._blocking_subset(7, 3, (2, 4)) == ((2,), 2)
        assert monomial._blocking_subset(3, 3, (2,)) == ((), 0)
        assert monomial._blocking_subset(8, 3, ()) is None

    def test_witness_is_realizable(self):
        # a universal failure must be exhibited by some concrete support
        ws = WeightSystem((3, 4, 4, 5, 15, 30), 60)
        for i, a in enumerate(ws.weights):
            if a <= 1:
                continue
            violation = universal_star_at(ws, i)
            if violation is None:
                continue
            rows = [violation[0]]
            rows += fermat_support(ws).monomials
            support = Support.of(ws.weights, ws.degree, rows)
            assert star_condition_at(support, i) is not None


@pytest.mark.parametrize(
    "check, source, args, expected",
    [
        (star_condition, "x60", (), ((17, 1, 1, 0, 0, 0), 1)),
        (star_condition, fermat_support(WeightSystem((1, 1, 2, 3), 6)), (), None),
        (star_condition_at, "x60", (1,), ((17, 1, 1, 0, 0, 0), 1)),
        (star_condition_at, "x60", (2,), ((17, 1, 1, 0, 0, 0), 2)),
        (star_condition_at, "x60", (3,), None),
        (star_condition_at, "x60", (5,), None),
        (universal_star_at, WeightSystem((1, 1, 3, 4, 4, 5), 60), (2,), ((0, 0, 1, 3, 0, 9), 2)),
        (universal_star_at, WeightSystem((1, 1, 2, 3, 6), 12), (2,), None),
    ],
    ids=[
        "support_x60", "support_fermat", "at_x60_1", "at_x60_2", "at_x60_3", "at_x60_5",
        "universal_blocked", "universal_open",
    ],
)
def test_star_checks_return_violation_or_none(request, check, source, args, expected):
    # every star check returns None, or the first violation (row, i): a row of
    # weighted degree d with exponent 1 at position i
    if source == "x60":
        source = request.getfixturevalue("x60")
    violation = check(source, *args)
    assert violation == expected
    if violation is not None:
        row, i = violation
        assert row[i] == 1
        assert sum(map(mul, row, source.weights)) == source.degree


class TestPositionRange:
    """Every per-position entry point rejects a position outside the ambient;
    a negative one must not wrap around to a variable from the end, and
    neither True nor 1.0 may be read as position 1."""

    @pytest.mark.parametrize("position", [-1, -5, -6])
    def test_negative_position_rejected(self, x60, position):
        self._assert_rejected(x60, position)

    @pytest.mark.parametrize("position", [6, 9])
    def test_too_large_position_rejected(self, x60, position):
        self._assert_rejected(x60, position)

    @pytest.mark.parametrize("position", [True, 1.0])
    def test_non_integer_position_rejected(self, x60, position):
        self._assert_rejected(x60, position, "position must be an integer")

    @staticmethod
    def _assert_rejected(support, position, message="out of range"):
        calls = (
            lambda: star_condition_at(support, position),
            lambda: universal_star_at(support.system, position),
            lambda: apply_cover(support, position),
            lambda: substitute(support, position, (0,) * len(support.weights)),
        )
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


class TestApplyCover:
    def test_x60_cover_semantics(self, x60):
        covered, perm = apply_cover(x60, 0)
        assert covered.weights == (1, 4, 4, 5, 15, 30)
        assert perm == (0, 1, 3, 2, 4, 5)
        assert sorted(perm) == list(range(6))
        # x^17*y*z becomes x^51*y*z with the two weight-4 slots swapped
        assert (51, 1, 0, 1, 0, 0) in covered.monomials
        for mono in covered.monomials:
            assert sum(map(mul, mono, covered.weights)) == 60

    def test_weight_one_rejected(self, x60_dim50):
        with pytest.raises(ValueError, match="weight > 1"):
            apply_cover(x60_dim50, 0)

    def test_degree_preserved_on_random_supports(self):
        rng = random.Random(8144)
        weights = (1, 2, 3)
        rows = all_monomials(weights, 6)
        for _ in range(30):
            subset = rng.sample(rows, rng.randint(1, len(rows)))
            support = Support.of(weights, 6, subset)
            i = rng.choice((1, 2))
            covered, perm = apply_cover(support, i)
            assert sorted(perm) == list(range(3))
            assert covered.degree == 6
            assert len(covered.monomials) == len(support.monomials)


def large_substitution_support(a):
    """{z_1^a, z_0^(2a-2) z_1, z_2^2, z_3^2} on 1,2,a,a:2a (a odd: well-formed,
    divisible, index 3): substituting z_1 -> z_1 + z_0^2 expands a + 1 rows."""
    rows = [(0, a, 0, 0), (2 * a - 2, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]
    return Support.of((1, 2, a, a), 2 * a, rows)


class TestSubstitute:
    def test_expansion_rows(self):
        support = Support.of((1, 1, 2), 4, [(4, 0, 0), (0, 0, 2), (1, 1, 1)])
        result = substitute(support, 2, (1, 1, 0))
        assert set(result.monomials) == {
            (4, 0, 0),
            (0, 0, 2),
            (1, 1, 1),
            (2, 2, 0),
        }

    def test_replacement_must_avoid_variable(self):
        support = Support.of((1, 2), 4, [(4, 0)])
        with pytest.raises(ValueError, match="must not involve"):
            substitute(support, 1, (0, 1))

    def test_replacement_degree_checked(self):
        support = Support.of((1, 2), 4, [(4, 0)])
        with pytest.raises(ValueError, match="degree"):
            substitute(support, 1, (3, 0))

    @pytest.mark.parametrize("replacement", [(-1, 2, 0), (True, 1, 0)])
    def test_replacement_exponents_checked(self, replacement):
        # both rows have weighted degree 3 = a_2: only the exponent check stops them
        support = Support.of((1, 2, 3), 6, [(6, 0, 0), (0, 0, 2)])
        with pytest.raises(ValueError, match="exponents must be non-negative integers"):
            substitute(support, 2, replacement)

    def test_replacement_length_checked(self):
        support = Support.of((1, 2), 4, [(4, 0)])
        with pytest.raises(ValueError, match="variable count"):
            substitute(support, 1, (2, 0, 0))

    def test_row_bound_checked_before_any_row_is_built(self):
        # z_1^a and z_0^(2a-2) z_1 expand into a + 1 rows; at a = 100,000,001
        # that is about 26 GB
        support = large_substitution_support(100_000_001)
        with pytest.raises(ValueError, match="would add up to 100000002 rows, more than 10000"):
            substitute(support, 1, (2, 0, 0, 0))
        with pytest.raises(ValueError, match="would add up to 100000002 rows"):
            plan_cover_for_support(support)

    def test_row_bound_admits_its_limit(self):
        a = monomial.MAX_SUBSTITUTION_ROWS - 1  # a + 1 expansions, exactly the bound
        result = substitute(large_substitution_support(a), 1, (2, 0, 0, 0))
        # two expansions repeat rows already there: z_0^(2a-2) z_1 and z_0^(2a)
        assert len(result.monomials) == 4 + a - 1

    def test_degree_preserved_on_random_supports(self):
        rng = random.Random(8145)
        weights = (1, 2, 3)
        rows = all_monomials(weights, 6)
        replacements = {1: (2, 0, 0), 2: (3, 0, 0)}
        for _ in range(30):
            subset = rng.sample(rows, rng.randint(1, len(rows)))
            support = Support.of(weights, 6, subset)
            i = rng.choice((1, 2))
            result = substitute(support, i, replacements[i])
            assert result.degree == 6
            # the original rows all survive: substitution only adds monomials
            assert set(support.monomials) <= set(result.monomials)


class TestSupportPlanner:
    def test_fermat_sextic(self):
        plan = plan_cover_for_support(fermat_support(WeightSystem((1, 1, 2, 3), 6)))
        assert plan.ok
        assert plan.final_weights == (1, 1, 1, 1)
        assert plan.cover_count == 2
        assert all(replacement is None for _, replacement in plan.steps)

    def test_substitution_before_cover(self):
        support = Support.of((1, 2), 4, [(4, 0), (2, 1), (0, 2)])
        plan = plan_cover_for_support(support)
        assert plan.ok
        assert plan.steps == ((1, (2, 0)), (1, None))
        assert plan.cover_count == 1
        assert plan.final_weights == (1, 1)

    def test_x60_fails_before_any_step(self, x60):
        plan = plan_cover_for_support(x60)
        assert not plan.ok
        assert plan.steps == ()
        assert plan.witness == ((17, 1, 1, 0, 0, 0), 1)
        assert plan.final_weights == (3, 4, 5, 4, 15, 30)

    def test_dim50_fails_before_any_step(self, x60_dim50):
        plan = plan_cover_for_support(x60_dim50)
        assert not plan.ok
        assert plan.steps == ()
        assert plan.witness is not None
        assert plan.witness[0][49:] in {(2, 1, 10), (1, 13, 1)}

    def test_cover_count_equals_heavy_positions(self, surface_catalog, threefold_catalog):
        for result in (surface_catalog, threefold_catalog):
            for ws in result.systems:
                plan = plan_cover_for_support(fermat_support(ws))
                assert plan.ok, ws
                assert plan.cover_count == sum(1 for a in ws.weights if a > 1)
                assert plan.final_weights == (1,) * ws.num_weights

    def test_fermat_plans_pinned(self, surface_catalog, threefold_catalog, fourfold_catalog):
        # every step and witness of the Fermat support plans of the 4
        # surfaces, 30 threefolds and 661 fourfolds
        systems = [ws for result in (surface_catalog, threefold_catalog, fourfold_catalog) for ws in result.systems]
        assert len(systems) == 695
        text = "\n".join(repr(plan_cover_for_support(fermat_support(ws))) for ws in systems)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "5b3b1e2af08a2fe0ad2067feb02b15b6d4fe00edafdd773f016346887d1aca35"

    def test_fixture_plans_match_support_based_planner(self, x60, x60_dim50):
        for support in (x60, x60_dim50):
            assert plan_cover_for_support(support) == naive_plan_cover_for_support(support)
        assert plan_cover_for_support(x60) == CoverPlan(
            steps=(),
            final_weights=(3, 4, 5, 4, 15, 30),
            witness=((17, 1, 1, 0, 0, 0), 1),
        )
        assert plan_cover_for_support(x60_dim50) == CoverPlan(
            steps=(),
            final_weights=(1,) * 49 + (3, 4, 5),
            witness=((0,) * 49 + (2, 1, 10), 50),
        )

    def test_one_variable_cover(self):
        plan = plan_cover_for_support(Support.of((3,), 6, [(2,)]))
        assert plan == CoverPlan(
            steps=((0, None),),
            final_weights=(1,),
            witness=None,
        )
        covered, perm = apply_cover(Support.of((3,), 6, [(2,)]), 0)
        assert covered == Support.of((1,), 6, [(6,)])
        assert perm == (0,)

    @settings(max_examples=400)
    @given(shuffled_supports())
    @example(Support.of((3,), 6, [(2,)]))
    @example(Support.of((5,), 5, [(1,)]))
    @example(Support.of((1,), 4, [(4,)]))
    @example(Support.of((2, 1), 4, [(0, 4), (1, 2), (2, 0)]))
    # unsorted sources whose smallest weight above 1 sits at non-adjacent
    # positions: the lowest of them is covered first
    @example(fermat_support_in_source_order((3, 2, 5, 2), 30))
    @example(fermat_support_in_source_order((4, 2, 3, 2, 1), 12))
    @example(Support.of((2, 1, 2), 4, [(2, 0, 0), (0, 4, 0), (0, 0, 2), (1, 2, 0), (0, 2, 1)]))
    def test_matches_support_based_planner(self, support):
        plan = plan_cover_for_support(support)
        assert plan == naive_plan_cover_for_support(support)
        # the planner covers a smallest weight above 1 and substitutes with
        # weights no larger, so no step creates a violation: a plan fails
        # before its first step or not at all
        assert plan.ok or not plan.steps


    @pytest.mark.parametrize("helper", ["_substitute_rows", "_cover_rows"])
    def test_degree_guard_rejects_a_row_of_wrong_degree(self, monkeypatch, helper):
        # the planner substitutes and then covers on this support; a helper
        # that returns one row of the wrong weighted degree must be caught
        real = getattr(monomial, helper)

        def one_wrong_row(*args):
            result = real(*args)
            rows = result if helper == "_substitute_rows" else result[1]
            rows[0] = (rows[0][0] + 1, *rows[0][1:])
            return result

        monkeypatch.setattr(monomial, helper, one_wrong_row)
        support = Support.of((1, 2), 4, [(4, 0), (2, 1), (0, 2)])
        with pytest.raises(AssertionError, match="left weighted degree"):
            plan_cover_for_support(support)


class TestUniversalPlanner:
    def test_threefold_catalog_all_covered(self, threefold_catalog):
        for ws in threefold_catalog.systems:
            plan = plan_cover_universal(ws)
            assert plan.ok, ws
            assert plan.cover_count == sum(1 for a in ws.weights if a > 1)
            assert all(replacement is None for _, replacement in plan.steps)

    def test_all_heavy_system(self):
        plan = plan_cover_universal(WeightSystem((2, 4, 5, 5, 5), 20))
        assert plan.ok
        assert plan.cover_count == 5
        assert plan.final_weights == (1, 1, 1, 1, 1)

    def test_x60_route_and_failure(self):
        plan = plan_cover_universal(WeightSystem((3, 4, 4, 5, 15, 30), 60))
        assert not plan.ok
        # the two top weights come off, then every remaining position blocks
        assert plan.steps == ((4, None), (5, None))
        assert plan.final_weights == (1, 1, 3, 4, 4, 5)
        assert plan.witness == ((0, 0, 1, 3, 0, 9), 2)

    def test_fourfold_and_lifted_plans_pinned(self, fourfold_catalog):
        # every step and witness of the 661 fourfold plans and of their
        # lifts (a..., d : 2d) to dimension 5
        systems = list(fourfold_catalog.systems)
        systems += [WeightSystem(ws.weights + (ws.degree,), 2 * ws.degree) for ws in systems]
        text = "\n".join(repr(plan_cover_universal(ws)) for ws in systems)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "013daac4900ee887812dbb7fa8c22b741898b7723a776d1e15e956435f69c8f5"

    def test_cover_steps_shared_across_plans(self, fourfold_catalog):
        # a cover step is (i, None) for its position i alone, so one cached
        # tuple per position serves every plan of both planners: a classify
        # pass and the Fermat support plans (3,689 covers) over the fourfolds
        # build 6 steps each, over their lifts (a..., d : 2d, 4,350 covers) 7
        def shared(plans):
            covers = [step for plan in plans for step in plan.steps if step[1] is None]
            return all(step is monomial._cover_step(step[0]) for step in covers)

        lifts = [WeightSystem(ws.weights + (ws.degree,), 2 * ws.degree) for ws in fourfold_catalog.systems]
        for systems, covers, misses in ((fourfold_catalog.systems, 3689, 6), (lifts, 4350, 7)):
            monomial._cover_step.cache_clear()
            for ws in systems:
                classify(ws)
            assert monomial._cover_step.cache_info().misses == misses
            monomial._cover_step.cache_clear()
            plans = [plan_cover_for_support(fermat_support(ws)) for ws in systems]
            assert monomial._cover_step.cache_info().misses == misses
            assert sum(plan.cover_count for plan in plans) == covers
            assert shared(plans + [plan_cover_universal(ws) for ws in systems])
        # a source out of order shares its steps too
        assert shared(
            plan_cover_for_support(fermat_support_in_source_order(weights, degree))
            for weights, degree in (((3, 2, 5, 2), 30), ((4, 2, 3, 2, 1), 12))
        )
        # 300 distinct steps in one plan: the cache stays within its bound
        ws = WeightSystem((1,) + (2,) * 300, 4)
        plan = plan_cover_universal(ws)
        assert monomial._cover_step.cache_info().currsize <= monomial.UNIVERSAL_STEP_CACHE_SIZE
        assert plan.steps == tuple((i, None) for i in range(1, 301))
        assert plan == naive_plan_cover_universal(ws)

    @settings(max_examples=400)
    @given(divisible_systems())
    @example(WeightSystem((3, 4, 4, 5, 15, 30), 60))
    def test_matches_per_position_planner(self, ws):
        assert plan_cover_universal(ws) == naive_plan_cover_universal(ws)

    @settings(max_examples=300)
    @given(divisible_systems())
    @example(WeightSystem((3, 4, 4, 5, 15, 30), 60))
    def test_fails_only_when_no_cover_order_succeeds(self, ws):
        assert plan_cover_universal(ws).ok == some_cover_order_succeeds(ws)

    def test_rechecks_only_a_value_whose_blocking_subset_left(self, monkeypatch):
        # step 1: 2, 3 and 5 block, by (3, 5), (2, 5) and (3, 10), and 10
        # passes; step 2: 10 is gone, so 5 is checked again and passes, while
        # 2 and 3 keep their blocking subsets; steps 3 and 4: 5 is gone, so 2
        # and 3 are checked again.  No witness is built.
        checks = []
        real = monomial._blocking_subset

        def counted(d, a_i, pool):
            found = real(d, a_i, pool)
            checks.append((a_i, pool, found and found[0]))
            return found

        monkeypatch.setattr(monomial, "_blocking_subset", counted)
        monkeypatch.setattr(monomial, "universal_star_at", None)
        ws = WeightSystem((1, 2, 3, 5, 10), 30)
        plan = plan_cover_universal(ws)
        assert plan.ok and [i for i, _ in plan.steps] == [4, 4, 3, 4]
        assert checks == [
            (2, (3, 5, 10), (3, 5)),
            (3, (2, 5, 10), (2, 5)),
            (5, (2, 3, 10), (3, 10)),
            (10, (3,), None),
            (5, (2, 3), None),
            (2, (3,), None),
            (3, (), None),
        ]
        monkeypatch.undo()
        assert plan == naive_plan_cover_universal(ws)

    def test_failure_witness_degree(self):
        ws = WeightSystem((1,) * 49 + (3, 4, 5), 60)
        plan = plan_cover_universal(ws)
        assert not plan.ok
        row, i = plan.witness
        assert sum(map(mul, row, plan.final_weights)) == 60
        assert row[i] == 1


def replayed_weights(weights, plan):
    """weights after every cover step of plan, each replayed by setting the
    recorded a_i > 1 to 1 and re-sorting stably, as the planners do."""
    for i, replacement in plan.steps:
        assert weights[i] > 1, (plan, i)
        if replacement is None:
            weights = tuple(sorted(weights[:i] + (1,) + weights[i + 1:]))
    return weights


def replayed_support(support, plan):
    """support after every step of plan: apply_cover for a cover, substitute
    for a substitution."""
    for i, replacement in plan.steps:
        support = apply_cover(support, i)[0] if replacement is None else substitute(support, i, replacement)
    return support


class TestPermutationReplay:
    """A plan records positions only, each in the coordinates reached by the
    steps before it; the stable re-sort after each cover maps them back to
    the source coordinates."""

    def test_every_plan_replays(self, surface_catalog, threefold_catalog, fourfold_catalog, x60, x60_dim50):
        systems = [ws for result in (surface_catalog, threefold_catalog, fourfold_catalog) for ws in result.systems]
        assert len(systems) == 695
        plans = [(ws.weights, plan_cover_universal(ws)) for ws in systems + [x60.system, x60_dim50.system]]
        supports = [fermat_support(ws) for ws in systems] + [x60, x60_dim50]
        supports += [
            fermat_support_in_source_order(weights, degree)
            for weights, degree in (((3, 2, 5, 2), 30), ((4, 2, 3, 2, 1), 12))
        ]
        for support in supports:
            plan = plan_cover_for_support(support)
            plans.append((support.weights, plan))
            reached = replayed_support(support, plan)
            assert reached.weights == plan.final_weights and star_condition(reached) == plan.witness, plan
        for weights, plan in plans:
            assert replayed_weights(weights, plan) == plan.final_weights, plan
