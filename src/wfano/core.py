"""Exact arithmetic primitives for weighted Fano hypersurfaces.

A weight system (a_0 <= ... <= a_n : d) describes a degree-d hypersurface in
the weighted projective space P(a_0,...,a_n).  Throughout the library the
weights are kept in canonical ascending order, every weight is required to
divide the degree wherever a quotient b_i = d/a_i is used, and the Fano index
is I = sum(a_i) - d (positive exactly in the Fano range).

All verdict-relevant arithmetic is exact and no float is used.  Verdict
decisions are integer comparisons (a ratio against a ratio is decided
cross-multiplied over positive denominators); fractions.Fraction appears only
in public values: AlphaBound.value, threshold_c, an InequalityReport's c_value
and the sides of its checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True, slots=True)
class WeightSystem:
    """Ascending weights a_0 <= ... <= a_n together with a degree d."""

    degree: int
    weights: tuple[int, ...]

    def __init__(self, weights: Iterable[int], degree: int) -> None:
        ws = tuple(weights)
        if not ws:
            raise ValueError("weight system needs at least one weight")
        # type, not isinstance: a bool is an int but no weight or degree
        if any(type(a) is not int or a <= 0 for a in ws):
            raise ValueError(f"weights must be positive integers, got {ws!r}")
        if any(ws[i] > ws[i + 1] for i in range(len(ws) - 1)):
            raise ValueError(f"weights must be sorted ascending, got {ws!r}")
        if type(degree) is not int or degree <= 0:
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
    if type(index) is not int:
        raise ValueError(f"index must be an integer, got {index!r}")
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


def star_case(ws: WeightSystem) -> int | None:
    """The star value a = d/2 when a >= 3 and the weights contain both 2 and a, else None."""
    d = ws.degree
    a = d // 2
    if d % 2 == 0 and a >= 3 and 2 in ws.weights and a in ws.weights:
        return a
    return None


def threshold_c(ws: WeightSystem) -> Fraction:
    """Threshold constant c: (d-2)/d in the star case, (d-1)/d otherwise."""
    d = ws.degree
    return Fraction(d - 1 if star_case(ws) is None else d - 2, d)


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
    if star is not None and ws.weights == (1,) * (ws.num_weights - 2) + (2, star):
        return SHAPE_STAR
    return None


# rule tags for the per-pair inequality routing
RULE_UNIT_WEIGHT = "unit_weight"   # a_i = 1:       -d-1+a_i+c*d      <= -1
RULE_STAR_PAIR = "star_pair"       # star, a_i=2,a_j=a: -d-1+a_i+c*d/a_i <= -a_j
RULE_GENERAL_PAIR = "general_pair"  # a_i > 1:      -d-1+a_i+d/a_i    <= -a_j


@dataclass(frozen=True, slots=True)
class InequalityCheck:
    """One ordered pair (i, j), the rule it is routed to, and the sides lhs <= rhs."""

    rule: str
    i: int
    j: int
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs


def _lemma_pairs(ws: WeightSystem) -> Iterator[tuple[str, int, int, int, int]]:
    """(rule, i, j, lhs, rhs) for every ordered pair i != j, in row order.

    Needs the index-1 preconditions: with a_i | d and c*d = d - 1, or d - 2
    in the star case, every side is an integer.  The unit pair's left side is
    -d + c*d, the star pair's 1 - d + c*d/2 = -d/2 (d is even there), the
    general pair's -d - 1 + a_i + d/a_i; the right sides are -1 and -a_j.
    """
    d, weights = ws.degree, ws.weights
    star = star_case(ws)
    cd = d - 1 if star is None else d - 2
    unit_lhs, star_lhs = cd - d, 1 - d + cd // 2
    for i, ai in enumerate(weights):
        for j, aj in enumerate(weights):
            if i == j:
                continue
            if ai == 1:
                yield RULE_UNIT_WEIGHT, i, j, unit_lhs, -1
            elif ai == 2 and aj == star:
                yield RULE_STAR_PAIR, i, j, star_lhs, -aj
            else:
                yield RULE_GENERAL_PAIR, i, j, -d - 1 + ai + d // ai, -aj


@dataclass(frozen=True, slots=True)
class InequalityReport:
    """Exact evaluation of the pairwise threshold inequalities for one system.

    Every ordered pair (i, j), i != j, is routed to exactly one rule and
    decided on integer sides; failures holds an InequalityCheck for each pair
    whose inequality fails, in pair order, so it is () whenever the lemma
    holds.  checks derives the check of every pair on request.  On top of
    the pairwise checks, c_bound_ok records that c > (n-1)/n, or that
    c == (n-1)/n on one of the two shapes for which equality is attained: all
    weights 1 (degree n), or (1,...,1,2,a) of degree 2a.  It is False when
    the preconditions fail and nothing was checked.
    """

    system: WeightSystem
    precondition_errors: tuple[str, ...]
    failures: tuple[InequalityCheck, ...]
    c_value: Fraction | None = None
    c_bound_ok: bool = False

    @property
    def checks(self) -> tuple[InequalityCheck, ...]:
        """Every ordered pair's check, Fraction sides; () when the preconditions fail."""
        if self.precondition_errors:
            return ()
        return tuple(
            InequalityCheck(rule, i, j, Fraction(lhs), Fraction(rhs))
            for rule, i, j, lhs, rhs in _lemma_pairs(self.system)
        )

    @property
    def passed(self) -> bool:
        return not self.precondition_errors and not self.failures and self.c_bound_ok


def check_lemma_ineq(ws: WeightSystem) -> InequalityReport:
    """Evaluate the pairwise threshold inequalities in exact arithmetic.

    Preconditions (reported, not skipped): those of precondition_errors
    with index 1 required.  Once they hold every side is an integer, so each
    pair is decided by one integer comparison, and an InequalityCheck is
    built only for a pair that fails.
    """
    errors = precondition_errors(ws, index_one=True)
    if errors:
        return InequalityReport(ws, errors, ())

    failures = tuple(
        InequalityCheck(rule, i, j, Fraction(lhs), Fraction(rhs))
        for rule, i, j, lhs, rhs in _lemma_pairs(ws)
        if lhs > rhs
    )
    c = threshold_c(ws)
    # c against the floor (n-1)/n, cross-multiplied: both denominators are positive
    excess = c.numerator * ws.n - (ws.n - 1) * c.denominator
    return InequalityReport(
        system=ws,
        precondition_errors=(),
        failures=failures,
        c_value=c,
        c_bound_ok=excess > 0 or excess == 0 and boundary_shape(ws) is not None,
    )


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


def _peeled(target: int, g: int, a: int, large: tuple[int, ...]) -> Iterator[int]:
    """target minus every sum of multiples of the sorted large that stays >= 0,
    each c in large taken fewer than a / gcd(a, c) times; last generator
    first, counts ascending.

    The cap loses no combination that may also use a: with h = gcd(a, c),
    a/h copies of c make the same sum as c/h copies of a.  A branch whose
    target is no sum of its free generators (g, a and the large ones not yet
    peeled) is skipped: J of them sum to a value in [J*lo, J*hi], lo and hi
    the smallest and largest, so a target outside every such interval lies
    outside their semigroup.
    """
    hi = max(g, large[-1] if large else a)
    if -(-target // hi) > target // min(g, a):
        return
    if not large:
        yield target
        return
    c = large[-1]
    for m in range(min(target // c, a // gcd(a, c) - 1) + 1):
        yield from _peeled(target - m * c, g, a, large[:-1])


def _representable(target: int, gens: tuple[int, ...]) -> bool:
    """Membership of target >= 0 in <gens>, for sorted distinct positive gens.

    Exact shortcuts first; below Schur's bound, peel the capped multiples of
    the generators above the two smallest a < b, skipping targets that no
    count of the free generators reaches, and ask the closed form of
    _least_multiple whether a remainder lies in <a, b>.
    """
    if target == 0:
        return True
    if not gens or target < gens[0]:
        return False
    h = gcd(*gens)
    if target % h:
        return False
    if h > 1:
        target //= h
        gens = tuple(g // h for g in gens)
    a = gens[0]
    if a == 1:
        return True
    # Schur: every integer above (a_1 - 1)(a_k - 1) - 1 lies in <gens>
    if target > (a - 1) * (gens[-1] - 1) - 1:
        return True
    b = gens[1]
    return any(_least_multiple(t, b, a) is not None for t in _peeled(target, b, a, gens[2:]))


def _checked_inputs(target: int, generators: Iterable[int]) -> tuple[int, ...]:
    """The generators as a tuple, read once and in order; ValueError unless
    target is an int and every generator a positive int (type, not
    isinstance: a bool is neither)."""
    if type(target) is not int:
        raise ValueError(f"target must be an integer, got {target!r}")
    gens = tuple(generators)
    if any(type(g) is not int or g <= 0 for g in gens):
        raise ValueError(f"generators must be positive integers, got {gens!r}")
    return gens


def semigroup_representable(target: int, generators: Iterable[int]) -> bool:
    """Is target a non-negative integer combination of the generators?"""
    gens = _checked_inputs(target, generators)
    if target < 0:
        return False
    return _representable(target, tuple(sorted(set(gens))))


def _least_coefficient(remaining: int, g: int, rest: tuple[int, ...]) -> int | None:
    """Smallest m >= 0 with remaining - m*g in <rest>, or None when there is none.

    rest is sorted and distinct.  With no generator left, m*g must be all of
    remaining.  Otherwise m is the least closed-form _least_multiple against
    a = rest[0] over the targets of the capped peel of rest[1:], stopping
    once m = 0.
    """
    if not rest:
        return None if remaining % g else remaining // g
    a = rest[0]
    best: int | None = None
    for target in _peeled(remaining, g, a, rest[1:]):
        m = _least_multiple(target, g, a)
        if m is not None and (best is None or m < best):
            best = m
            if m == 0:
                break
    return best


def semigroup_decomposition(target: int, generators: Iterable[int]) -> tuple[int, ...] | None:
    """Lexicographically smallest m with sum(m_t * generators[t]) = target.

    Generators are taken in the given order (duplicates allowed); the
    coefficient vector is minimized coordinate by coordinate from the left.
    Returns None when target is not representable: then the first
    coefficient already has no solution (or there are no generators).
    """
    generators = _checked_inputs(target, generators)
    if target < 0:
        return None
    coeffs: list[int] = []
    remaining = target
    for t, g in enumerate(generators):
        m = _least_coefficient(remaining, g, tuple(sorted(set(generators[t + 1:]))))
        if m is None:
            return None
        coeffs.append(m)
        remaining -= m * g
    # the last coefficient consumes the rest, so only an empty generator tuple leaves any
    return tuple(coeffs) if remaining == 0 else None


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
