"""Exact arithmetic primitives for weighted Fano hypersurfaces.

A weight system (a_0 <= ... <= a_n : d) describes a degree-d hypersurface in
the weighted projective space P(a_0,...,a_n).  Throughout the library the
weights are kept in canonical ascending order, every weight is required to
divide the degree wherever a quotient b_i = d/a_i is used, and the Fano index
is I = sum(a_i) - d (positive exactly in the Fano range).

All verdict-relevant arithmetic is integer or fractions.Fraction; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class WeightSystem:
    """Ascending weights a_0 <= ... <= a_n together with a degree d."""

    degree: int
    weights: tuple[int, ...]

    def __init__(self, weights: Iterable[int], degree: int) -> None:
        ws = tuple(weights)
        if not ws:
            raise ValueError("weight system needs at least one weight")
        if any(not isinstance(a, int) or a <= 0 for a in ws):
            raise ValueError(f"weights must be positive integers, got {ws!r}")
        if any(ws[i] > ws[i + 1] for i in range(len(ws) - 1)):
            raise ValueError(f"weights must be sorted ascending, got {ws!r}")
        if not isinstance(degree, int) or degree <= 0:
            raise ValueError(f"degree must be a positive integer, got {degree!r}")
        # frozen dataclass: bypass the generated __init__ field protection
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "degree", degree)

    @classmethod
    def of(cls, weights: Iterable[int], degree: int) -> "WeightSystem":
        """Build the canonical (sorted) system from weights in any order."""
        return cls(sorted(weights), degree)

    @property
    def num_weights(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        """Ambient projective dimension: weights are a_0..a_n."""
        return len(self.weights) - 1

    @property
    def dim(self) -> int:
        """Dimension of the hypersurface itself (n - 1)."""
        return len(self.weights) - 2

    @property
    def index(self) -> int:
        """Fano index I = sum(a_i) - d."""
        return sum(self.weights) - self.degree

    @property
    def divisible(self) -> bool:
        return all(self.degree % a == 0 for a in self.weights)

    @property
    def quotients(self) -> tuple[int, ...]:
        """The exponents b_i = d/a_i of the Fermat member; needs a_i | d."""
        if not self.divisible:
            raise ValueError(f"{self.render()}: some weight does not divide the degree")
        return tuple(self.degree // a for a in self.weights)

    @property
    def is_linear_cone(self) -> bool:
        return self.degree in self.weights

    @property
    def well_formed(self) -> bool:
        """gcd of every n of the n+1 weights is 1."""
        ws = self.weights
        if len(ws) < 2:
            return ws[0] == 1
        # prefix/suffix gcds give gcd-with-one-removed in linear time
        prefix = [0] * (len(ws) + 1)
        for i, a in enumerate(ws):
            prefix[i + 1] = gcd(prefix[i], a)
        suffix = [0] * (len(ws) + 1)
        for i in range(len(ws) - 1, -1, -1):
            suffix[i] = gcd(suffix[i + 1], ws[i])
        return all(gcd(prefix[i], suffix[i + 1]) == 1 for i in range(len(ws)))

    def render(self) -> str:
        return ",".join(str(a) for a in self.weights) + f":{self.degree}"

    def __repr__(self) -> str:  # compact; render() round-trips via cli parsing
        return f"WeightSystem({self.render()})"


@dataclass(frozen=True)
class ValidationReport:
    """Flags for the standing hypotheses of the classification pipeline."""

    well_formed: bool
    divisibility: bool
    linear_cone: bool
    index_matches: bool

    @property
    def ok(self) -> bool:
        return self.well_formed and self.divisibility and not self.linear_cone and self.index_matches


def validate(ws: WeightSystem, index: int) -> ValidationReport:
    """Check well-formedness, divisibility, the linear-cone exclusion and the index."""
    if index <= 0:
        raise ValueError(f"index must be positive, got {index}")
    return ValidationReport(
        well_formed=ws.well_formed,
        divisibility=ws.divisible,
        linear_cone=ws.is_linear_cone,
        index_matches=ws.index == index,
    )


def precondition_errors(ws: WeightSystem, index_one: bool = False) -> tuple[str, ...]:
    """The standing hypotheses ws fails, one message each; empty when all hold.

    Always required: positive index, every weight dividing the degree, and no
    linear cone.  With index_one, also index exactly 1 and well-formedness
    (the hypotheses of the alpha bound and the threshold inequalities).
    """
    errors = []
    if ws.index < 1:
        errors.append(f"index {ws.index} is not positive (not Fano)")
    elif index_one and ws.index != 1:
        errors.append(f"index {ws.index} != 1")
    if not ws.divisible:
        errors.append("some weight does not divide the degree")
    if index_one and not ws.well_formed:
        errors.append("not well-formed")
    if ws.is_linear_cone:
        errors.append("degree equals a weight (linear cone)")
    return tuple(errors)


def require_preconditions(ws: WeightSystem, context: str, index_one: bool = False) -> None:
    """Raise ValueError naming every hypothesis of precondition_errors that ws fails."""
    errors = precondition_errors(ws, index_one)
    if errors:
        raise ValueError(f"{context} {ws.render()}: " + "; ".join(errors))


@dataclass(frozen=True)
class StarCase:
    """Detection of the special shape d = 2a with weights containing 2 and a.

    holds is true iff a = d/2 >= 3 and the weights contain both 2 and a.
    """

    holds: bool
    a: int | None = None


def star_case(ws: WeightSystem) -> StarCase:
    d = ws.degree
    if d % 2 != 0:
        return StarCase(False)
    a = d // 2
    if a >= 3 and 2 in ws.weights and a in ws.weights:
        return StarCase(True, a)
    return StarCase(False)


def threshold_c(ws: WeightSystem) -> Fraction:
    """Threshold constant c: (d-2)/d in the star case, (d-1)/d otherwise."""
    d = ws.degree
    if star_case(ws).holds:
        return Fraction(d - 2, d)
    return Fraction(d - 1, d)


SHAPE_ALL_ONES = "all_ones"
SHAPE_STAR = "star"


def boundary_shape(ws: WeightSystem) -> str | None:
    """Which index-1 shape attaining c = (n-1)/n ws has, if any.

    SHAPE_ALL_ONES is (1,...,1 : n); SHAPE_STAR is (1,...,1,2,a : 2a) with
    a >= 3, the star case.  None for every other system.
    """
    if ws.index != 1:
        return None
    if ws.weights == (1,) * ws.num_weights:
        return SHAPE_ALL_ONES
    star = star_case(ws)
    if star.holds and ws.weights == (1,) * (ws.num_weights - 2) + (2, star.a):
        return SHAPE_STAR
    return None


# rule tags for the per-pair inequality routing
RULE_UNIT_WEIGHT = "unit_weight"   # a_i = 1:       -d-1+a_i+c*d      <= -1
RULE_STAR_PAIR = "star_pair"       # star, a_i=2,a_j=a: -d-1+a_i+c*d/a_i <= -a_j
RULE_GENERAL_PAIR = "general_pair"  # a_i > 1:      -d-1+a_i+d/a_i    <= -a_j


@dataclass(frozen=True)
class InequalityCheck:
    rule: str
    i: int
    j: int
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def equality(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class InequalityReport:
    """Exact evaluation of the pairwise threshold inequalities for one system.

    Every ordered pair (i, j), i != j, is routed to exactly one rule; on top of
    the pairwise checks the report verifies c >= (n-1)/n and, when equality
    holds, that the system has one of the two shapes for which equality is
    attained: all weights 1 (degree n), or (1,...,1,2,a) of degree 2a.
    """

    system: WeightSystem
    precondition_errors: tuple[str, ...]
    checks: tuple[InequalityCheck, ...]
    c_value: Fraction | None = None
    c_lower_bound: Fraction | None = None
    c_equality_shape_ok: bool | None = None

    @property
    def failures(self) -> tuple[InequalityCheck, ...]:
        return tuple(ch for ch in self.checks if not ch.ok)

    @property
    def c_bound_ok(self) -> bool:
        if self.c_value is None or self.c_lower_bound is None:
            return False
        if self.c_value < self.c_lower_bound:
            return False
        if self.c_value == self.c_lower_bound:
            return bool(self.c_equality_shape_ok)
        return True

    @property
    def passed(self) -> bool:
        return not self.precondition_errors and not self.failures and self.c_bound_ok


def check_lemma_ineq(ws: WeightSystem) -> InequalityReport:
    """Evaluate the pairwise threshold inequalities in exact rational arithmetic.

    Preconditions (reported, not skipped): those of precondition_errors
    with index 1 required.
    """
    errors = precondition_errors(ws, index_one=True)
    if errors:
        return InequalityReport(ws, errors, ())

    d = ws.degree
    star = star_case(ws)
    c = threshold_c(ws)
    checks: list[InequalityCheck] = []
    for i, ai in enumerate(ws.weights):
        for j, aj in enumerate(ws.weights):
            if i == j:
                continue
            if ai == 1:
                lhs = Fraction(-d - 1 + ai) + c * d
                rhs = Fraction(-1)
                rule = RULE_UNIT_WEIGHT
            elif star.holds and ai == 2 and aj == star.a:
                lhs = Fraction(-d - 1 + ai) + c * Fraction(d, ai)
                rhs = Fraction(-aj)
                rule = RULE_STAR_PAIR
            else:
                lhs = Fraction(-d - 1 + ai + d // ai)
                rhs = Fraction(-aj)
                rule = RULE_GENERAL_PAIR
            checks.append(InequalityCheck(rule, i, j, lhs, rhs))

    n = ws.n
    return InequalityReport(
        system=ws,
        precondition_errors=(),
        checks=tuple(checks),
        c_value=c,
        c_lower_bound=Fraction(n - 1, n),
        c_equality_shape_ok=boundary_shape(ws) is not None if c == Fraction(n - 1, n) else None,
    )


def _apery_table(gens: tuple[int, ...]) -> list[int]:
    """Smallest element of <gens> in each residue class modulo gens[0].

    The round-robin algorithm of Böcker & Lipták ("A fast and simple algorithm
    for the money changing problem", Algorithmica 2007): about
    len(gens) * gens[0] steps, whatever the target.  gens are sorted, distinct
    and coprime, so every class is reached.
    """
    a = gens[0]
    # a smallest element uses every other generator fewer than a times
    unreached = a * sum(gens)
    table = [unreached] * a
    table[0] = 0
    for b in gens[1:]:
        h = gcd(a, b)
        for r in range(h):
            n = min(table[r::h])
            if n == unreached:
                continue
            for _ in range(a // h - 1):
                n += b
                p = n % a
                if table[p] < n:
                    n = table[p]
                else:
                    table[p] = n
    return table


def _least_multiple(target: int, g: int, c: int) -> int | None:
    """Least m >= 0 with target - m*g a non-negative multiple of c, or None.

    m solves m*g = target (mod c) in closed form: with h = gcd(g, c), the
    residue of (target/h) * (g/h)^-1 modulo c/h.
    """
    h = gcd(g, c)
    if target % h:
        return None
    c //= h
    m = target // h * pow(g // h, -1, c) % c
    return m if m * g <= target else None


def _peeled(target: int, large: tuple[int, ...]) -> Iterator[int]:
    """target minus every sum of multiples of large that stays >= 0."""
    if not large:
        yield target
        return
    c = large[-1]
    for m in range(target // c + 1):
        yield from _peeled(target - m * c, large[:-1])


def _representable(target: int, gens: tuple[int, ...]) -> bool:
    """Membership of target >= 0 in <gens>, for sorted distinct positive gens.

    Exact shortcuts first, the last of them the closed form for a coprime
    pair; otherwise the cheaper of the Apéry table (about k * a_1 steps,
    built per call) and peeling the multiples of the generators above the
    two smallest (prod(t // c + 1) pair tests).
    """
    if target == 0:
        return True
    if not gens or target < gens[0]:
        return False
    if gens[0] == 1:
        return True
    if len(gens) == 1:
        return target % gens[0] == 0
    h = gcd(*gens)
    if target % h:
        return False
    if h > 1:
        target //= h
        gens = tuple(g // h for g in gens)
    a, b = gens[0], gens[1]
    # Schur: every integer above (a_1 - 1)(a_k - 1) - 1 lies in <gens>
    if target > (a - 1) * (gens[-1] - 1) - 1:
        return True
    if len(gens) == 2:
        return _least_multiple(target, b, a) is not None
    if len(gens) * a <= prod(target // c + 1 for c in gens[2:]):
        return target >= _apery_table(gens)[target % a]
    return any(_least_multiple(t, b, a) is not None for t in _peeled(target, gens[2:]))


def semigroup_representable(target: int, generators: Iterable[int]) -> bool:
    """Is target a non-negative integer combination of the generators?"""
    gens = tuple(sorted(set(generators)))
    if any(not isinstance(g, int) or g <= 0 for g in gens):
        raise ValueError(f"generators must be positive integers, got {gens!r}")
    if target < 0:
        return False
    return _representable(target, gens)


def _least_coefficient(remaining: int, g: int, rest: tuple[int, ...]) -> int:
    """Smallest m >= 0 with remaining - m*g in <rest>; remaining lies in <g, rest>.

    rest is sorted and distinct.  With one generator c left, m is the closed
    form of _least_multiple.  Otherwise m < c / gcd(g, c) for every c in rest
    (that many g make a multiple of c), and m <= remaining // g: step m
    through that range, or peel the multiples of rest[1:] and take the least
    closed-form m against rest[0], whichever takes fewer steps.
    """
    if not rest:
        m = remaining // g
    elif len(rest) == 1:
        m = _least_multiple(remaining, g, rest[0])
    else:
        limit = min(remaining // g, *(c // gcd(g, c) - 1 for c in rest))
        if prod(remaining // c + 1 for c in rest[1:]) <= limit:
            found = (_least_multiple(t, g, rest[0]) for t in _peeled(remaining, rest[1:]))
            m = min((x for x in found if x is not None), default=None)
        else:
            m = next((x for x in range(limit + 1) if _representable(remaining - x * g, rest)), None)
    if m is None:
        raise AssertionError(f"{remaining} is not in the semigroup of {(g, *rest)}")
    return m


def semigroup_decomposition(target: int, generators: tuple[int, ...]) -> tuple[int, ...] | None:
    """Lexicographically smallest m with sum(m_t * generators[t]) = target.

    Generators are taken in the given order (duplicates allowed); the
    coefficient vector is minimized coordinate by coordinate from the left.
    Returns None when target is not representable.
    """
    if not semigroup_representable(target, generators):
        return None
    coeffs: list[int] = []
    remaining = target
    for t, g in enumerate(generators):
        m = _least_coefficient(remaining, g, tuple(sorted(set(generators[t + 1:]))))
        coeffs.append(m)
        remaining -= m * g
    if remaining != 0:
        raise AssertionError("decomposition did not consume the target")
    return tuple(coeffs)


def triple_gap(a0: int, a1: int, a2: int) -> int:
    """a0*a1*a2 - a0 - a1 - a2."""
    return a0 * a1 * a2 - a0 - a1 - a2


def minimal_triple_gap(bound: int) -> tuple[int, tuple[int, int, int]]:
    """Minimal triple_gap over admissible triples 1 < a0 < a1 < a2 <= bound.

    Admissible: pairwise coprime, and no member is a non-negative integer
    combination of the other two.  Returns (gap, witness triple); the witness
    is the lexicographically first triple attaining the minimum.
    """
    if bound < 5:
        raise ValueError(f"bound must be at least 5, got {bound}")
    best: tuple[int, tuple[int, int, int]] | None = None
    for a0, a1, a2 in combinations(range(2, bound + 1), 3):
        if gcd(a0, a1) != 1 or gcd(a0, a2) != 1 or gcd(a1, a2) != 1:
            continue
        if semigroup_representable(a2, (a0, a1)):
            continue
        if semigroup_representable(a1, (a0, a2)):
            continue
        if semigroup_representable(a0, (a1, a2)):
            continue
        gap = triple_gap(a0, a1, a2)
        if best is None or gap < best[0]:
            best = (gap, (a0, a1, a2))
    if best is None:
        raise AssertionError(f"no admissible triple below {bound}")
    return best
