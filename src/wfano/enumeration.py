"""Complete enumeration of weight systems with divisible weights.

A system (a_0,...,a_n : d) with Fano index I satisfies d = sum(a_i) - I and
a_i | d for every i.  Only well-formed systems that are not linear cones are
listed.

The quotients b_i = d/a_i obey the unit fraction identity
sum(1/b_i) = 1 + I/d with every b_i >= 2 (no linear cone).  Since each b_i
divides d, the gcd of the weights other than a_j is d / lcm(b_i : i != j), so
the system is well-formed exactly when dropping any one quotient keeps the
lcm equal to d.  Two consequences make one search serve every index:

* List the quotients ascending, b_0 <= ... <= b_{n-1} <= c, and drop the last
  one: well-formedness gives d = lcm(b_0,...,b_{n-1}).
* The recursion picks b_0,...,b_{n-2} and carries L = lcm(b_0,...,b_{n-2})
  and the integer partial sum sigma = sum(L/b_i).  The last two quotients
  follow in closed form.  With P = L - sigma and g = gcd(L, b) for the
  second-to-last quotient b = b_{n-1}, the degree is d = L*b/g, and the
  identity sum(1/b_i) = 1 + I/d gives the last weight
  w = d/c = (b*P - L)/g + I.  A b is kept when 1 <= w <= L/g (so c >= b),
  w | d, and d <= d_max when a bound is given.

The window for b follows from 1 <= w <= L/g, that is
L - (I - 1)*g <= b*P <= 2L - I*g:

* P > 0: b <= (2L - 1)/P; at index 1, w >= 1 also needs b >= L/P.
* P < 0: w >= 1 needs b*|P| <= (I - 1)*g - L <= (I - 2)*L, so
  b <= (I - 2)*L/|P|.  The prune below leaves P >= 2 - I, so this only
  happens at index 3 and above.
* P = 0: w = I - L/g does not grow with b, and only d_max bounds b.

Well-formedness is read off the quotients before any system is built.  For
divisors x, y of d, lcm(x, y) = d exactly when gcd(d/x, d/y) = 1.  Dropping c
keeps lcm(L, b) = d by construction.  Dropping b keeps the lcm d exactly when
lcm(L, c) = d, that is gcd(b/g, w) = 1.  Dropping b_j leaves L_j, the lcm of
the prefix without b_j; when L_j = L the lcm stays d, and when L_j < L it
must satisfy lcm(L_j, b, c) = d, that is gcd((b/g)*(L/L_j), L/g, w) = 1.
The cofactors L/L_j > 1 are computed once per prefix.

While the partial sum s is below 1, prefix values are bounded by
b < m/(1 - s), where m counts the remaining slots: all later values are at
least b, so the total could not otherwise exceed 1.  Partial sums
s >= 1 + (I - 1)/L with two or more slots remaining are impossible (each
remaining term is at least 1/d and d >= L, so the total would exceed
1 + I/d).  At index 1 that leaves s < 1 at every prefix, and the search is
finite without a degree bound.  Above index 1 a prefix with s >= 1 bounds the
next quotient only by d_max, which is then required: (1,1,a,a : 2a) has
index 2 for every a.  The lcm L only grows along the recursion, so a degree
bound d_max prunes a prefix as soon as L > d_max.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import gcd, lcm
from pathlib import Path

from .core import WeightSystem, precondition_errors

CATALOG_VERSION = 1

# Filters every catalog applies; kept in the file envelope for format compatibility.
_CATALOG_FILTERS = {"require_well_formed": True, "exclude_linear_cone": True}


class CatalogError(ValueError):
    """Catalog file is unreadable: parse error, bad schema, or bad version."""


class CatalogMismatch(CatalogError):
    """Catalog file is valid but was produced by a different query (cache miss)."""


@dataclass(frozen=True)
class EnumerationQuery:
    """Search parameters: n+1 weights, Fano index, optional degree bound.

    Every search lists well-formed systems that are not linear cones.
    """

    num_weights: int
    index: int
    d_max: int | None = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            # type, not isinstance: a bool or a float read from JSON is no count
            if type(value) is not int and not (name == "d_max" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_weights < 3:
            raise ValueError(f"num_weights must be at least 3, got {self.num_weights}")
        if self.index < 1:
            raise ValueError(f"index must be a positive integer, got {self.index}")
        if self.d_max is not None and self.d_max < 1:
            raise ValueError(f"d_max must be positive when given, got {self.d_max}")


@dataclass(frozen=True)
class EnumerationResult:
    """Canonically ordered systems; complete=False when truncated by d_max."""

    query: EnumerationQuery
    systems: tuple[WeightSystem, ...]
    complete: bool


def _lcm_systems(num_weights: int, index: int, d_max: int | None) -> list[WeightSystem]:
    """All systems of one index via the ascending quotient recursion (see module docstring)."""
    found: list[WeightSystem] = []

    def last_two(chosen: list[int], big_l: int, sigma: int) -> None:
        """Pick the second-to-last quotient b in closed form; the last weight follows."""
        p = big_l - sigma
        lo = chosen[-1]
        if p > 0:
            hi = (2 * big_l - 1) // p
            if index == 1:
                lo = max(lo, -(-big_l // p))
        elif p < 0:
            hi = (index - 2) * big_l // -p
        else:
            hi = d_max
        if d_max is not None and hi > d_max:
            hi = d_max
        # L / L_j > 1 for each distinct lcm L_j < L of the prefix without one b_j
        cofactors = {big_l // lcm(*chosen[:j], *chosen[j + 1 :]) for j in range(len(chosen))} - {1}
        for b in range(lo, hi + 1):
            g = gcd(big_l, b)
            w = (b * p - big_l) // g + index
            a_b = big_l // g  # the weight d/b
            if w < 1 or w > a_b:
                continue
            d = a_b * b
            if d % w or (d_max is not None and d > d_max):
                continue
            k = b // g  # d/L, the gcd of the prefix weights
            if gcd(k, w) == 1 and all(gcd(k * m, a_b, w) == 1 for m in cofactors):
                found.append(WeightSystem.of([d // q for q in chosen] + [a_b, w], d))

    def extend(chosen: list[int], slots: int, big_l: int, sigma: int) -> None:
        if sigma >= big_l + index - 1:
            return  # s >= 1 + (I - 1)/L leaves under 2/d for two or more slots
        if slots == 2:
            last_two(chosen, big_l, sigma)
            return
        hi = (slots * big_l - 1) // (big_l - sigma) if sigma < big_l else d_max
        if d_max is not None and hi > d_max:
            hi = d_max
        for b in range(chosen[-1] if chosen else 2, hi + 1):
            new_l = lcm(big_l, b)
            if d_max is None or new_l <= d_max:
                extend(chosen + [b], slots - 1, new_l, sigma * (new_l // big_l) + new_l // b)

    extend([], num_weights, 1, 0)
    return found


def _in_query(ws: WeightSystem, query: EnumerationQuery) -> bool:
    """Whether the search for query lists ws: the query's weight count and
    index, degree at most d_max, well-formed, divisible and no linear cone."""
    return (
        ws.num_weights == query.num_weights
        and ws.index == query.index
        and (query.d_max is None or ws.degree <= query.d_max)
        and ws.well_formed
        and not precondition_errors(ws)
    )


def _searchable(query: EnumerationQuery) -> bool:
    """Some search answers query: index 1, or a degree bound (index > 1 is unbounded without one)."""
    return query.index == 1 or query.d_max is not None


def _exhaustive(query: EnumerationQuery) -> bool:
    """The search for query lists every system: index 1 without a degree bound."""
    return query.index == 1 and query.d_max is None


def enumerate_systems(query: EnumerationQuery) -> EnumerationResult:
    """All well-formed, non-cone systems with sum(a_i) - d = index and a_i | d.

    Index 1 needs no degree bound; a given d_max truncates the catalog and
    marks it incomplete.  Index > 1 requires d_max.
    """
    if not _searchable(query):
        raise ValueError("enumeration with index > 1 is unbounded; an explicit d_max is required")
    systems = _lcm_systems(query.num_weights, query.index, query.d_max)
    unique = sorted(set(systems))
    for ws in unique:
        if not _in_query(ws, query):
            raise AssertionError(f"enumeration produced {ws.render()}, outside the query")
    return EnumerationResult(query=query, systems=tuple(unique), complete=_exhaustive(query))


def enumerate_bruteforce(num_weights: int, index: int, a_max: int) -> EnumerationResult:
    """Exhaustive oracle: scan every ascending weight tuple with a_i <= a_max.

    Cost is roughly a_max^num_weights / num_weights!; intended for validating
    enumerate_systems on its restriction to max weight <= a_max.
    """
    if a_max < 1:
        raise ValueError(f"a_max must be positive, got {a_max}")
    query = EnumerationQuery(num_weights=num_weights, index=index)
    found: list[WeightSystem] = []
    for weights in combinations_with_replacement(range(1, a_max + 1), num_weights):
        d = sum(weights) - index
        if d <= 0:
            continue
        # check divisibility from the largest weight down: fails earliest
        if any(d % a != 0 for a in reversed(weights)):
            continue
        ws = WeightSystem(weights, d)
        if ws.is_linear_cone or not ws.well_formed:
            continue
        found.append(ws)
    return EnumerationResult(query=query, systems=tuple(sorted(set(found))), complete=False)


def render_table(result: EnumerationResult, format: str = "md") -> str:
    """Render systems as markdown, TSV, or a JSON array; deterministic output."""
    if format == "md":
        lines = ["weights | degree", "--- | ---"]
        lines += [f"{' '.join(str(a) for a in ws.weights)} | {ws.degree}" for ws in result.systems]
        return "\n".join(lines)
    if format == "tsv":
        lines = ["weights\tdegree"]
        lines += [f"{' '.join(str(a) for a in ws.weights)}\t{ws.degree}" for ws in result.systems]
        return "\n".join(lines)
    if format == "json":
        payload = [{"weights": list(ws.weights), "degree": ws.degree} for ws in result.systems]
        return json.dumps(payload, indent=2)
    raise ValueError(f"unknown format {format!r}; expected md, tsv, or json")


def save_catalog(result: EnumerationResult, path: str | Path) -> None:
    """Write the versioned catalog envelope; load_catalog inverts it exactly.

    ValueError, before the file is opened, when no search answers the query
    (index > 1 without d_max): load_catalog would refuse the file.
    """
    if not _searchable(result.query):
        raise ValueError(f"catalog query {result.query} has index > 1 and no d_max; no search answers it")
    payload = {
        "version": CATALOG_VERSION,
        "query": {**vars(result.query), **_CATALOG_FILTERS},
        "complete": result.complete,
        "systems": [{"weights": list(ws.weights), "degree": ws.degree} for ws in result.systems],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_catalog(path: str | Path, query: EnumerationQuery | None = None) -> EnumerationResult:
    """Read a catalog file back; optional query echo check signals cache misses."""
    data = Path(path).read_bytes()
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # message carries the position
        raise CatalogError(f"catalog parse error: {exc}") from exc
    version = payload.get("version") if isinstance(payload, dict) else type(payload).__name__
    if type(version) is not int or version != CATALOG_VERSION:  # true and 1.0 equal 1
        raise CatalogError(f"catalog version mismatch: expected {CATALOG_VERSION}, got {version!r}")
    try:
        fields = dict(payload["query"])
        for key, value in _CATALOG_FILTERS.items():
            if fields.pop(key) is not value:
                raise ValueError(f"query {key} must be {json.dumps(value)}")
        stored_query = EnumerationQuery(**fields)
        systems = tuple(
            WeightSystem(tuple(entry["weights"]), entry["degree"]) for entry in payload["systems"]
        )
        complete = payload["complete"]
        if not isinstance(complete, bool):
            raise ValueError(f"complete must be true or false, got {json.dumps(complete)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"catalog schema error: {exc}") from exc
    if not _searchable(stored_query):
        raise CatalogError(f"catalog query {stored_query} has index > 1 and no d_max; no search answers it")
    if list(systems) != sorted(set(systems)):
        raise CatalogError("catalog systems are not in canonical sorted order")
    if complete and not _exhaustive(stored_query):
        raise CatalogError(f"catalog is marked complete, but {stored_query} is not index 1 without d_max")
    for ws in systems:
        if not _in_query(ws, stored_query):
            raise CatalogError(f"catalog system {ws.render()} lies outside its query {stored_query}")
    if query is not None and stored_query != query:
        raise CatalogMismatch(
            f"catalog was built for {stored_query}, requested {query}"
        )
    return EnumerationResult(query=stored_query, systems=systems, complete=complete)
