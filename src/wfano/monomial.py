"""Supports of monomials, the star condition, and the smooth-cover planner.

A monomial is its exponent row k_0..k_n, a tuple of non-negative ints
against an ambient weight list.  A Support records the monomials of a
weighted hypersurface member with generic coefficients.  Unlike WeightSystem,
a support keeps the variable order of its source (constructor argument or
fixture file), and star_condition reports a violation in the coordinates of
the polynomial it came from.  A cover plan's steps and witness are not: each
step's position, and the witness, are in the coordinates the plan has reached
by then.  A cover sets a_i to 1 and re-sorts the weights stably, equal weights
keeping their order, so replaying the covered positions from the source
weights (or calling apply_cover) maps them back.

The star condition: every monomial with exponent 1 at a position of weight
a_i > 1 must have a_i representable as a non-negative integer combination of
the weights of the other variables it involves.  It is the arithmetic gate for
replacing a weighted variable by its cyclic cover z_i -> z_i^{a_i} without
losing quasi-smoothness, after a generic coordinate change removes the
offending linear monomial.

Planners are sufficient-condition checkers.  A failed universal plan means
that no order of universal cover steps succeeds; a failed support plan means
that the iterated cover procedure found no route.  Neither means that no
smooth cover exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import itemgetter, mul
from pathlib import Path
from typing import Iterable, Sequence

from .core import WeightSystem, _representable, semigroup_decomposition

# an exponent row; Support keeps its rows in canonical order: descending
# lexicographic, duplicates collapsed
Row = tuple[int, ...]
# a plan step at position i: (i, None) covers z_i -> z_i**a_i, and (i, M)
# substitutes z_i -> z_i + lambda*M, M the exponent row of a monomial of degree a_i
Step = tuple[int, Row | None]

# cover steps kept for sharing across plans of both planners, one per
# position; a fourfold catalog pass needs 6, its lifts to dimension 5 one more
UNIVERSAL_STEP_CACHE_SIZE = 256
# rows one substitution may add: one per power of M it expands, before
# duplicates collapse; the shipped and catalog supports expand at most 47
MAX_SUBSTITUTION_ROWS = 10_000
# variables without a pure power whose subsets the quasi-smoothness check may
# try; every Fermat support and both shipped supports have none
MAX_UNPOWERED_VARIABLES = 12


class SupportError(ValueError):
    """Support file or constructor input is malformed."""


def _require_exponents(row: Row, error: type[ValueError]) -> None:
    """error unless every entry of row is a non-negative int."""
    if any(type(k) is not int or k < 0 for k in row):  # a bool is no exponent
        raise error(f"exponents must be non-negative integers, got {row!r}")


@dataclass(frozen=True, slots=True)
class Support:
    """Duplicate-free monomials of a fixed weighted degree, in source coordinates."""

    weights: tuple[int, ...]
    degree: int
    monomials: tuple[Row, ...]

    def __post_init__(self) -> None:
        # a list would leave the support unhashable and unequal to its tuple twin
        if not isinstance(self.weights, tuple):
            raise SupportError(f"weights must be a tuple, got {self.weights!r}; Support.of takes any iterable")
        # type, not isinstance: a bool is an int but no weight or degree
        if not self.weights or any(type(a) is not int or a <= 0 for a in self.weights):
            raise SupportError(f"weights must be positive integers, got {self.weights!r}")
        if type(self.degree) is not int or self.degree <= 0:
            raise SupportError(f"degree must be a positive integer, got {self.degree!r}")
        if not self.monomials:
            raise SupportError("support must contain at least one monomial")
        for row in self.monomials:  # before sorting, which needs comparable entries
            if not isinstance(row, tuple):
                raise SupportError(f"monomial rows must be tuples, got {row!r}; Support.of takes any iterables")
            _require_exponents(row, SupportError)
        unique = tuple(sorted(set(self.monomials), reverse=True))
        for row in unique:
            if len(row) != len(self.weights):
                raise SupportError(
                    f"monomial has {len(row)} exponents, ambient has {len(self.weights)} weights"
                )
            degree = sum(map(mul, row, self.weights))
            if degree != self.degree:
                raise SupportError(
                    f"monomial {row} has weighted degree {degree}, expected {self.degree}"
                )
        object.__setattr__(self, "monomials", unique)

    @classmethod
    def of(cls, weights: Iterable[int], degree: int, exponent_rows: Iterable[Iterable[int]]) -> "Support":
        return cls(tuple(weights), degree, tuple(map(tuple, exponent_rows)))

    @property
    def system(self) -> WeightSystem:
        """Canonical ascending weight system of the ambient."""
        return WeightSystem.of(self.weights, self.degree)

    def to_json(self) -> dict:
        """The record that load_support reads back and save_support writes."""
        return {
            "weights": list(self.weights),
            "degree": self.degree,
            "monomials": [list(row) for row in self.monomials],
        }


def load_support(path: str | Path) -> Support:
    data = Path(path).read_bytes()
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SupportError(f"support parse error: {exc}") from exc
    try:
        return Support.of(payload["weights"], payload["degree"], payload["monomials"])
    except (KeyError, TypeError) as exc:
        raise SupportError(f"support schema error: {exc}") from exc


def save_support(support: Support, path: str | Path) -> None:
    Path(path).write_text(json.dumps(support.to_json(), indent=2) + "\n", encoding="utf-8")


def fermat_support(ws: WeightSystem) -> Support:
    """The support {z_i**(d/a_i)}; needs divisibility and no linear cone."""
    quotients = ws.quotients
    if any(b < 2 for b in quotients):
        raise ValueError(f"{ws.render()} is a linear cone; no Fermat member")
    rows = []
    for i, b in enumerate(quotients):
        exps = [0] * ws.num_weights
        exps[i] = b
        rows.append(exps)
    return Support.of(ws.weights, ws.degree, rows)


def quasi_smooth_failure(support: Support) -> tuple[int, ...] | None:
    """First variable set I at which the member with generic coefficients on
    support fails to be quasi-smooth, or None when it is quasi-smooth.

    The criterion: for every nonempty I, either some monomial uses only
    variables in I, or at least |I| distinct positions e outside I each carry
    a monomial x_I^M * x_e (exponent 1 at e, every other variable in I).  A
    variable with a pure power meets the first clause for every I that holds
    it, so only subsets of the variables without one are tried, size by size,
    each size in lexicographic order.  ValueError, before any subset is tried,
    when more than MAX_UNPOWERED_VARIABLES variables have no pure power.
    """
    rows = support.monomials
    masks = [sum(1 << j for j, k in enumerate(row) if k) for row in rows]
    powered = {m for m in masks if m & (m - 1) == 0}  # one variable: a pure power
    unpowered = [j for j in range(len(support.weights)) if 1 << j not in powered]
    if len(unpowered) > MAX_UNPOWERED_VARIABLES:
        raise ValueError(
            f"quasi-smoothness: {len(unpowered)} variables have no pure power, more than "
            f"{MAX_UNPOWERED_VARIABLES}; not decided"
        )
    outside = ~sum(1 << j for j in unpowered)
    # rows that can lie inside some tried I, and (rest, e) for each x_rest^M * x_e
    inside = {m for m in masks if not m & outside}
    linear = {
        (m & ~(1 << e), e)
        for row, m in zip(rows, masks)
        for e, k in enumerate(row)
        if k == 1 and not m & ~(1 << e) & outside
    }
    for size in range(1, len(unpowered) + 1):
        for subset in combinations(unpowered, size):
            held = sum(1 << j for j in subset)
            if any(not m & ~held for m in inside):
                continue
            # no row lies inside I, so each e found here is outside I
            if len({e for rest, e in linear if not rest & ~held}) < size:
                return subset
    return None


def require_member(support: Support, ws: WeightSystem) -> None:
    """ValueError unless support lies in the ambient of ws and its member with
    generic coefficients is quasi-smooth: the only members the cover and
    alpha criteria cover."""
    if support.system != ws:
        raise ValueError("support ambient does not match the weight system")
    failing = quasi_smooth_failure(support)
    if failing is not None:
        raise ValueError(
            f"the given member is not quasi-smooth at the variables {list(failing)}: no "
            f"monomial uses only them, and fewer than {len(failing)} others each appear "
            "to the first power in a monomial whose other variables are among them"
        )


def _weight_at(weights: tuple[int, ...], i: int, operation: str | None = None) -> int:
    """a_i; ValueError unless i is an int (a bool is no position) with
    0 <= i < len(weights), so no negative index wraps, and, when an operation
    is named, unless a_i > 1."""
    if type(i) is not int:
        raise ValueError(f"position must be an integer, got {i!r}")
    if not 0 <= i < len(weights):
        raise ValueError(f"position {i} out of range for {len(weights)} variables")
    if operation is not None and weights[i] <= 1:
        raise ValueError(f"{operation} at index {i} needs weight > 1, got {weights[i]}")
    return weights[i]


def _violates(weights: tuple[int, ...], row: Row, i: int) -> bool:
    """a_i outside the semigroup of the weights of row's other variables."""
    gens = {weights[j] for j, k in enumerate(row) if k and j != i}
    # sorted, distinct and positive: the internal membership test needs no re-check
    return not _representable(weights[i], tuple(sorted(gens)))


def _first_violation(weights: tuple[int, ...], rows: Sequence[Row]) -> tuple[Row, int] | None:
    """First (row, i) in row order, then index order, with k_i = 1 < a_i and
    a_i outside the semigroup of the weights of row's other variables."""
    for row in rows:
        if 1 in row:
            for i, k in enumerate(row):
                if k == 1 and weights[i] > 1 and _violates(weights, row, i):
                    return row, i
    return None


def star_condition(support: Support) -> tuple[Row, int] | None:
    """First violation (row, i) in canonical order (row, then index), or None."""
    return _first_violation(support.weights, support.monomials)


def star_condition_at(support: Support, i: int) -> tuple[Row, int] | None:
    """The per-index restriction: first violation (row, i), or None; requires weight a_i > 1."""
    _weight_at(support.weights, i, "star condition")
    for row in support.monomials:
        if row[i] == 1 and _violates(support.weights, row, i):
            return row, i
    return None


def _blocking_subset(d: int, a_i: int, pool: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """First subset S of pool with a_i outside <S> and d - a_i - sum(S) inside it.

    pool is sorted, distinct, and free of divisors of a_i.  Subsets are
    tried size by size, each size in lexicographic order; returns the first
    blocking (S, d - a_i - sum(S)), or None.  Once every subset of one size
    represents a_i, so does every larger one, and the search stops.

    Sizes 0 and 1 are closed forms: a_i > 1 is outside <()>, and outside <s>
    for each s in pool as s does not divide a_i; so the empty set blocks iff
    d = a_i, and {s} blocks iff r = d - a_i - s >= 0 is a multiple of s.
    Neither size can stop the search, unless pool is empty.

    No subset blocks unless gcd(pool) divides d - a_i: if S blocks, gcd(S)
    divides d - a_i - sum(S) and sum(S), so d - a_i, and gcd(pool) divides
    gcd(S).  That test settles most calls before any subset is tried.
    """
    if d == a_i:
        return (), 0
    if pool and (d - a_i) % gcd(*pool):
        return None
    for s in pool:
        remainder = d - a_i - s
        if remainder >= 0 and remainder % s == 0:
            return (s,), remainder
    for size in range(2, len(pool) + 1):
        blocked = False  # some subset of this size has a_i outside its semigroup
        for combo in combinations(pool, size):
            if _representable(a_i, combo):
                continue
            blocked = True
            remainder = d - a_i - sum(combo)
            if remainder >= 0 and _representable(remainder, combo):
                return combo, remainder
        if not blocked:
            break
    return None


def _universal_witness(
    weights: tuple[int, ...], i: int, combo: tuple[int, ...], remainder: int
) -> Row:
    """z_i * prod_{value in combo} z_j^(1+m), each value at its lowest position j,
    with m the lexicographically smallest decomposition of remainder over combo."""
    coeffs = semigroup_decomposition(remainder, combo)
    if coeffs is None:
        raise AssertionError(f"representable remainder {remainder} has no decomposition")
    exps = [0] * len(weights)
    exps[i] = 1
    for value, m in zip(combo, coeffs):
        exps[weights.index(value)] = 1 + m  # no pool value is a_i, so never position i
    return tuple(exps)


def universal_star_at(ws: WeightSystem, i: int) -> tuple[Row, int] | None:
    """The violation (witness, i) of some conceivable member at position i, or
    None when every member satisfies the star condition there.

    Fails iff some set of other variables S has a_i outside the semigroup of
    its weights while d - a_i - sum(S) lies inside: then the monomial
    z_i * prod_{j in S} z_j^(1+m_j) has degree d, exponent 1 at i, and
    witnesses the violation.  Subsets are searched over distinct weight values
    (equivalent to position subsets: extra positions of a value fold into the
    coefficients), sized ascending, values lexicographic; witness positions are
    the lowest position per value and the coefficient vector is
    lexicographically smallest.

    Adding generators never takes a_i out of the semigroup.  So a subset with
    a value dividing a_i (1 among them) never blocks, and those values are
    dropped, which keeps the order of the remaining subsets (combinations of a
    sorted sublist, size by size); _blocking_subset tests every other subset
    directly.  The first blocking subset, and with it the witness, is the same
    as in the full scan.  Nothing blocks when the gcd of the remaining values
    does not divide d - a_i: a blocking S has gcd(S) dividing both
    d - a_i - sum(S) and sum(S), and the pool's gcd divides gcd(S).
    """
    weights = ws.weights
    a_i = _weight_at(weights, i, "universal star check")
    # sorted, distinct and positive: the internal membership test needs no re-check
    found = _blocking_subset(ws.degree, a_i, tuple(sorted({a for a in weights if a_i % a})))
    return None if found is None else (_universal_witness(weights, i, *found), i)


def _cover_rows(
    weights: tuple[int, ...], rows: Sequence[Row], i: int
) -> tuple[tuple[int, ...], list[Row], tuple[int, ...]]:
    """The cover of z_i on rows: (new weights, new rows, perm), perm[new] = old.

    A cover maps distinct rows to distinct rows, so the new rows need a
    re-sort but no dedupe.
    """
    a_i = weights[i]
    raw = (*weights[:i], 1, *weights[i + 1:])
    perm = tuple(sorted(range(len(raw)), key=raw.__getitem__))  # stable: ties keep position order
    if len(perm) == 1:  # itemgetter of one index returns the item, not a 1-tuple
        return raw, [(row[0] * a_i,) for row in rows], perm
    pick = itemgetter(*perm)
    covered = sorted((pick(row[:i] + (row[i] * a_i,) + row[i + 1:]) for row in rows), reverse=True)
    return pick(raw), covered, perm


def _substitute_rows(rows: Sequence[Row], i: int, replacement: Row) -> list[Row]:
    """rows together with z_i^(t-r) * M^r for every row with k_i = t and r = 1..t.

    ValueError, before any row is built, when that adds more than
    MAX_SUBSTITUTION_ROWS rows: the sum of the k_i is linear in the degree.
    """
    added = sum(row[i] for row in rows)
    if added > MAX_SUBSTITUTION_ROWS:
        raise ValueError(
            f"substitution at position {i} would add up to {added} rows, more than "
            f"{MAX_SUBSTITUTION_ROWS}; not decided"
        )
    expanded = set(rows)
    for row in rows:
        t = row[i]
        for r in range(1, t + 1):
            shifted = row[:i] + (t - r,) + row[i + 1:]
            expanded.add(tuple(k + r * m for k, m in zip(shifted, replacement)))
    return sorted(expanded, reverse=True)


def apply_cover(support: Support, i: int) -> tuple[Support, tuple[int, ...]]:
    """Replace z_i by its cyclic cover: weight a_i -> 1, exponent k_i -> k_i * a_i.

    The new ambient is re-sorted canonically; the returned permutation maps
    new positions to old ones (perm[new] = old), stable on ties.
    """
    _weight_at(support.weights, i, "cover")
    weights, rows, perm = _cover_rows(support.weights, support.monomials, i)
    return Support.of(weights, support.degree, rows), perm


def substitute(support: Support, i: int, replacement: Row) -> Support:
    """Generic-coefficient closure of z_i -> z_i + lambda * M.

    M, the exponent row replacement, must avoid z_i and have weighted degree
    a_i.  Every monomial with k_i = t > 0 contributes the expansions
    z_i^(t-r) * M^r for r = 0..t; the result is the union with the original
    support (no cancellation is assumed).  ValueError when that adds more than
    MAX_SUBSTITUTION_ROWS rows.
    """
    a_i = _weight_at(support.weights, i)
    _require_exponents(replacement, ValueError)
    if len(replacement) != len(support.weights):
        raise ValueError("replacement monomial does not match the ambient variable count")
    if replacement[i] != 0:
        raise ValueError(f"replacement monomial must not involve variable {i}")
    degree = sum(map(mul, replacement, support.weights))
    if degree != a_i:
        raise ValueError(
            f"replacement monomial has degree {degree}, expected the weight {a_i} of variable {i}"
        )
    rows = _substitute_rows(support.monomials, i, replacement)
    return Support.of(support.weights, support.degree, rows)


@dataclass(frozen=True, slots=True)
class CoverPlan:
    """Ordered steps (i, None) or (i, M), see Step, and the weights where they
    stopped: all ones on success, else the coordinates of the witness, a
    star-check violation (row, i)."""

    steps: tuple[Step, ...]
    final_weights: tuple[int, ...]
    witness: tuple[Row, int] | None

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def cover_count(self) -> int:
        return sum(1 for _, replacement in self.steps if replacement is None)


@lru_cache(maxsize=UNIVERSAL_STEP_CACHE_SIZE)
def _cover_step(i: int) -> Step:
    """The step (i, None), one tuple per position shared by the plans of both planners."""
    return i, None


def _check_degrees(weights: tuple[int, ...], degree: int, rows: Sequence[Row]) -> None:
    for row in rows:
        if sum(map(mul, row, weights)) != degree:
            raise AssertionError(f"row {row} left weighted degree {degree} under weights {weights}")


def plan_cover_for_support(support: Support) -> CoverPlan:
    """Iterated cover construction for one explicit member.

    Repeatedly covers the smallest weight above 1 (lowest position on ties),
    preceded by a substitution when a monomial is linear in that variable; the
    star condition is re-verified after every transform, never assumed.

    The support's weights and exponent rows are read once; each step is a
    row operation shared with apply_cover and substitute, followed by a check
    that every row keeps the weighted degree and by the star check that
    star_condition runs.
    """
    weights, degree, rows = support.weights, support.degree, support.monomials
    violation = _first_violation(weights, rows)
    steps: list[Step] = []
    while violation is None and max(weights) > 1:
        i = weights.index(min(a for a in weights if a > 1))
        linear = next((row for row in rows if row[i] == 1), None)  # first in canonical order
        if linear is not None:
            positions = [j for j, k in enumerate(linear) if j != i and k > 0]
            coeffs = semigroup_decomposition(weights[i], tuple(weights[j] for j in positions))
            if coeffs is None:  # the star condition was just verified
                raise AssertionError("star condition holds but the linear monomial does not decompose")
            exps = [0] * len(weights)
            for j, m in zip(positions, coeffs):
                exps[j] += m
            replacement = tuple(exps)
            steps.append((i, replacement))
            rows = _substitute_rows(rows, i, replacement)
            _check_degrees(weights, degree, rows)
            violation = _first_violation(weights, rows)
            if violation is not None:
                break
        weights, rows, _ = _cover_rows(weights, rows, i)
        _check_degrees(weights, degree, rows)
        steps.append(_cover_step(i))
        violation = _first_violation(weights, rows)
    return CoverPlan(tuple(steps), weights, violation)


def plan_cover_universal(ws: WeightSystem) -> CoverPlan:
    """Iterated cover construction valid for every quasi-smooth member.

    Covers the lowest position whose universal star check passes, which is
    the lowest copy of the smallest passing weight; fails with the witness of
    the lowest position above weight 1 when none passes.

    The check at position i depends only on d, a_i and its pool: the distinct
    weights that do not divide a_i.  Copies of a_i and the weight 1 divide
    it, so every copy of a value has the same pool.  A cover turns a weight
    into 1, so pools only shrink, and a subset that blocks a_i does so in any
    pool that holds it.  So a value that passes keeps passing, and while it
    has copies left no pool changes: its copies are covered one after
    another.  A value that blocked is checked again only once the subset
    that blocked it has left its pool; the planner keeps one verdict per
    value instead of one check per position and step.  It also follows
    that the plan fails exactly when no order of universal cover steps
    succeeds; that still does not mean that no smooth cover exists.

    A failed plan builds the witness from the subset recorded for the lowest
    value: universal_star_at finds the same, as no subset ahead of it in the
    pool's order blocked in the larger pool where it was recorded.

    A value passes at once when the gcd of its pool does not divide d - a: a
    blocking S has gcd(S) dividing d - a - sum(S) and sum(S), so d - a, and
    the pool's gcd divides gcd(S).
    """
    d, n = ws.degree, ws.num_weights
    ones = ws.weights.count(1)
    copies: dict[int, int] = {}  # value -> its number of copies, ascending as ws.weights is
    for a in ws.weights[ones:]:
        copies[a] = copies.get(a, 0) + 1
    blocked_by: dict[int, tuple[tuple[int, ...], int]] = {}  # value -> (subset, remainder)
    steps: list[Step] = []
    while copies:
        i = ones  # the lowest position of the value under test
        for a, k in copies.items():
            found = blocked_by.get(a)
            if found is None or any(v not in copies for v in found[0]):
                found = _blocking_subset(d, a, tuple(v for v in copies if a % v))
                if found is None:
                    break
                blocked_by[a] = found
            i += k
        else:  # every value blocks; the first position the scan examines is the lowest
            weights = (1,) * ones + tuple(a for a, k in copies.items() for _ in range(k))
            witness = _universal_witness(weights, ones, *blocked_by[weights[ones]])
            return CoverPlan(tuple(steps), weights, (witness, ones))
        del copies[a]
        for _ in range(k):
            steps.append(_cover_step(i))
            i += 1
            ones += 1
    return CoverPlan(tuple(steps), (1,) * n, None)
