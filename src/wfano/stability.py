"""K-stability verdicts assembled from recomputable criterion traces.

Every sufficient criterion used by classify() is registered under a short
machine name together with a citation tag naming the underlying result.  The
trace is built exclusively through the registry, so each recorded conclusion
can be recomputed later from the recorded inputs alone, and the final verdict
is the join of the per-entry claims, never stronger.

All outputs are one-sided: "unknown" means no registered criterion applied,
never that the member is unstable, and alpha values are lower bounds.  The
only two-sided statement is the Fermat margin criterion, which does decide
instability for negative margins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .core import (
    SHAPE_ALL_ONES,
    SHAPE_STAR,
    WeightSystem,
    boundary_shape,
    require_preconditions,
    star_case,
    threshold_c,
)
from .enumeration import EnumerationResult
from .monomial import CoverPlan, Support, plan_cover_for_support, plan_cover_universal

MEMBER_FERMAT = "fermat"
MEMBER_GENERAL = "general"
MEMBER_ANY = "any_quasi_smooth"
MEMBER_CLASSES = (MEMBER_FERMAT, MEMBER_GENERAL, MEMBER_ANY)


class Verdict(enum.Enum):
    """Lattice of claims: k_stable > k_polystable > k_semistable > unknown.

    k_unstable sits outside the chain; it contradicts every positive claim
    and join_verdicts refuses to merge them.
    """

    K_STABLE = "k_stable"
    K_POLYSTABLE = "k_polystable"
    K_SEMISTABLE = "k_semistable"
    K_UNSTABLE = "k_unstable"
    UNKNOWN = "unknown"

    def implies(self, other: "Verdict") -> bool:
        if self is other:
            return True
        if self is Verdict.K_UNSTABLE or other is Verdict.K_UNSTABLE:
            return False
        return _CHAIN.index(self) >= _CHAIN.index(other)


_CHAIN = (Verdict.UNKNOWN, Verdict.K_SEMISTABLE, Verdict.K_POLYSTABLE, Verdict.K_STABLE)


def join_verdicts(verdicts: Iterable[Verdict | None]) -> Verdict:
    """Strongest claim supported by all of them; None entries carry no claim."""
    claims = [v for v in verdicts if v is not None]
    if Verdict.K_UNSTABLE in claims:
        if any(v not in (Verdict.K_UNSTABLE, Verdict.UNKNOWN) for v in claims):
            raise ValueError("contradictory trace: instability joined with a positive claim")
        return Verdict.K_UNSTABLE
    best = Verdict.UNKNOWN
    for v in claims:
        if _CHAIN.index(v) > _CHAIN.index(best):
            best = v
    return best


# ---------------------------------------------------------------------------
# alpha lower bounds


ALPHA_STAR = "star"
ALPHA_ALL_GE2 = "all_weights_ge2"
ALPHA_GENERIC = "generic"

COVER_ASSUMPTION = "smooth cover exists for a general member"


@dataclass(frozen=True)
class AlphaBound:
    """A lower bound for the alpha invariant, not its value."""

    value: Fraction
    case_tag: str
    assumptions: tuple[str, ...]

    def to_json(self) -> dict:
        return {"num": self.value.numerator, "den": self.value.denominator, "case": self.case_tag}


def alpha_lower_bound(ws: WeightSystem, cover_available: bool) -> AlphaBound | None:
    """Threshold bound for index-1 systems whose members carry a smooth cover.

    Returns None when cover_available is false: without the cover the bound
    is conditional and nothing is claimed.  The bound is the threshold
    constant threshold_c: (d-2)/d in the star case, (d-1)/d otherwise,
    upgraded to 1 outside the star case when every weight is at least 2.
    """
    require_preconditions(ws, "alpha bound undefined for", index_one=True)
    if not cover_available:
        return None
    assumptions = (COVER_ASSUMPTION,)
    if star_case(ws).holds:
        return AlphaBound(threshold_c(ws), ALPHA_STAR, assumptions)
    if ws.weights[0] >= 2:
        return AlphaBound(Fraction(1), ALPHA_ALL_GE2, assumptions)
    return AlphaBound(threshold_c(ws), ALPHA_GENERIC, assumptions)


# ---------------------------------------------------------------------------
# automorphism finiteness and the Fermat member


def aut_finite(weights: Sequence[int], multidegree: Sequence[int]) -> bool:
    """True when finiteness of the automorphism group is guaranteed.

    A complete intersection of multidegree (d_1, ..., d_c) in the weighted
    projective space with the given ascending weights has finite automorphism
    group when sum(d_j) exceeds the sum of the c+1 largest weights (the cited
    alternative 0 < I < n - c never applies otherwise: I = sum(a_i) - sum(d_j)
    is then at least the sum of the n - c smallest weights).  False means the
    criterion is silent, never that the group is infinite.
    """
    ws = tuple(weights)
    degrees = tuple(multidegree)
    if not ws or any(a < 1 for a in ws):
        raise ValueError("weights must be positive")
    if any(ws[k] > ws[k + 1] for k in range(len(ws) - 1)):
        raise ValueError("weights must be ascending")
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("multidegree must be a non-empty list of positive degrees")
    if any(d in ws for d in degrees):
        raise ValueError("linear cone: a degree equals one of the weights")
    n = len(ws) - 1
    c = len(degrees)
    if c > n:
        raise ValueError(f"codimension {c} exceeds the ambient dimension {n}")
    return sum(degrees) > sum(ws[-(c + 1):])


@dataclass(frozen=True)
class FermatStability:
    """Verdict for the member cut out by the pure-power polynomial."""

    verdict: Verdict
    margin: int
    aut_finite: bool


def fermat_k_stability(ws: WeightSystem) -> FermatStability:
    """Decide the Fermat member by the margin n*a_0 - I.

    Positive margin gives K-polystability (K-stability once the automorphism
    group is known finite), zero gives strict K-semistability, negative gives
    K-instability.  This is the one criterion here that is two-sided.
    """
    require_preconditions(ws, "Fermat criterion undefined for")
    return _fermat_stability(ws, aut_finite(ws.weights, (ws.degree,)))


def _fermat_stability(ws: WeightSystem, finite: bool) -> FermatStability:
    margin = ws.n * ws.weights[0] - ws.index
    if margin > 0:
        verdict = Verdict.K_STABLE if finite else Verdict.K_POLYSTABLE
    else:
        verdict = Verdict.K_SEMISTABLE if margin == 0 else Verdict.K_UNSTABLE
    return FermatStability(verdict=verdict, margin=margin, aut_finite=finite)


# ---------------------------------------------------------------------------
# criterion registry


@dataclass(frozen=True)
class TraceEntry:
    """One applied criterion; conclusion and verdict recompute from inputs.

    payload is the fact the evaluator computed for classify to read (a
    CoverPlan, an AlphaBound or None, a finiteness flag); it is not compared.
    A later entry that needs such a fact records it among its inputs.
    """

    criterion: str
    cite: str
    inputs: dict
    conclusion: str
    verdict: Verdict | None = None
    payload: Any = field(default=None, compare=False, repr=False)


# an evaluator maps recorded inputs to (conclusion, verdict, payload)
Evaluator = Callable[[dict], tuple[str, Verdict | None, Any]]

_EVALUATORS: dict[str, Evaluator] = {}
_CITES: dict[str, str] = {}


def register_criterion(name: str, cite: str) -> Callable[[Evaluator], Evaluator]:
    def wrap(fn: Evaluator) -> Evaluator:
        _EVALUATORS[name] = fn
        _CITES[name] = cite
        return fn

    return wrap


def registered_criteria() -> tuple[str, ...]:
    return tuple(sorted(_EVALUATORS))


def make_entry(criterion: str, inputs: dict) -> TraceEntry:
    conclusion, verdict, payload = _EVALUATORS[criterion](inputs)
    return TraceEntry(criterion, _CITES[criterion], dict(inputs), conclusion, verdict, payload)


def recompute_entry(entry: TraceEntry) -> tuple[str, Verdict | None]:
    """Re-run the entry's criterion on its recorded inputs; the payload is dropped."""
    if entry.criterion not in _EVALUATORS:
        raise KeyError(f"unregistered criterion {entry.criterion!r}")
    conclusion, verdict, _ = _EVALUATORS[entry.criterion](entry.inputs)
    return conclusion, verdict


CRIT_INDEX_VS_DIM = "index_vs_dimension"
CRIT_AUT = "aut_finiteness"
CRIT_FERMAT = "fermat_margin"
CRIT_COVER = "smooth_cover"
CRIT_ALPHA = "alpha_bound"
CRIT_ALPHA_THRESHOLD = "alpha_above_threshold"
CRIT_BOUNDARY_SMOOTH = "alpha_boundary_smooth"
CRIT_BOUNDARY_PARITY = "alpha_boundary_star_parity"
CRIT_KE = "kahler_einstein"


def _ws_from(inputs: dict) -> WeightSystem:
    """The recorded system; ValueError when it fails the standing hypotheses."""
    ws = WeightSystem.of(inputs["weights"], inputs["degree"])
    require_preconditions(ws, "criterion undefined for")
    return ws


@register_criterion(
    CRIT_INDEX_VS_DIM,
    "a general member is K-stable when the Fano index is smaller than the dimension",
)
def _eval_index_vs_dimension(inputs: dict) -> tuple[str, Verdict | None, None]:
    ws = _ws_from(inputs)
    if ws.index < ws.dim:
        return (
            f"Fano index {ws.index} is smaller than the dimension {ws.dim}; "
            "a general member is K-stable",
            Verdict.K_STABLE,
            None,
        )
    return (
        f"Fano index {ws.index} is not smaller than the dimension {ws.dim}; criterion silent",
        None,
        None,
    )


@register_criterion(
    CRIT_AUT,
    "the automorphism group is finite when the degree sum exceeds the sum of the "
    "largest c+1 weights, or when 0 < index < n - c",
)
def _eval_aut_finiteness(inputs: dict) -> tuple[str, Verdict | None, bool]:
    weights = tuple(inputs["weights"])
    degrees = tuple(inputs["multidegree"])
    finite = aut_finite(weights, degrees)
    n = len(weights) - 1
    c = len(degrees)
    total = sum(degrees)
    top = sum(weights[-(c + 1):])
    index = sum(weights) - total
    # aut_finite decided; the reason only restates its test
    if not finite:
        reason = f"degree sum {total} <= {top} and index {index} is not in (0, {n - c})"
        return (f"finiteness of the automorphism group is not decided: {reason}", None, finite)
    reason = f"degree sum {total} exceeds {top}, the sum of the {c + 1} largest weights"
    return (f"automorphism group is finite: {reason}", None, finite)


@register_criterion(
    CRIT_FERMAT,
    "the Fermat member is K-polystable exactly when the Fano index is below n times "
    "the smallest weight, strictly K-semistable at equality, K-unstable beyond; "
    "K-polystable plus a finite automorphism group gives K-stable",
)
def _eval_fermat_margin(inputs: dict) -> tuple[str, Verdict | None, None]:
    ws = _ws_from(inputs)
    result = _fermat_stability(ws, inputs["aut_finite"])
    finiteness = "finite" if result.aut_finite else "not decided"
    return (
        f"margin n*a_0 - I = {ws.n}*{ws.weights[0]} - {ws.index} = {result.margin}; "
        f"automorphism group {finiteness}; the Fermat member is {result.verdict.value}",
        result.verdict,
        None,
    )


@register_criterion(
    CRIT_COVER,
    "iterated cyclic covers over the recorded coordinates produce a smooth finite "
    "cover of a quasi-smooth member",
)
def _eval_smooth_cover(inputs: dict) -> tuple[str, Verdict | None, CoverPlan]:
    ws = _ws_from(inputs)
    if inputs["mode"] == "universal":
        plan = plan_cover_universal(ws)
        scope = "every quasi-smooth member"
    else:
        support = Support.of(inputs["weights"], inputs["degree"], inputs["monomials"])
        plan = plan_cover_for_support(support)
        scope = "the given member"
    if plan.ok:
        return (
            f"smooth cover found for {scope}: {plan.cover_count} cover step(s), "
            f"final weights {list(plan.final_weights)}",
            None,
            plan,
        )
    return (
        f"no smooth cover found for {scope}: monomial {list(plan.witness.exponents)} "
        f"at position {plan.witness_index} blocks the semigroup condition over "
        f"weights {list(plan.witness_weights)}",
        None,
        plan,
    )


@register_criterion(
    CRIT_ALPHA,
    "members carrying a smooth cover have alpha at least (d-2)/d in the "
    "double-weight case, (d-1)/d otherwise, and at least 1 when every weight "
    "is at least 2",
)
def _eval_alpha_bound(inputs: dict) -> tuple[str, Verdict | None, AlphaBound | None]:
    bound = alpha_lower_bound(_ws_from(inputs), cover_available=inputs["cover_available"])
    if bound is None:
        return ("alpha bound unavailable without a smooth cover", None, None)
    return (
        f"alpha >= {bound.value} (case {bound.case_tag}; assuming: "
        + "; ".join(bound.assumptions)
        + ")",
        None,
        bound,
    )


@register_criterion(
    CRIT_ALPHA_THRESHOLD,
    "a Fano variety whose alpha invariant exceeds dim/(dim+1) is K-stable",
)
def _eval_alpha_above_threshold(inputs: dict) -> tuple[str, Verdict | None, None]:
    ws = _ws_from(inputs)
    bound = Fraction(inputs["alpha"]["num"], inputs["alpha"]["den"])
    threshold = Fraction(ws.dim, ws.dim + 1)
    if bound > threshold:
        return (
            f"alpha >= {bound} > dim/(dim+1) = {threshold}; the member is K-stable",
            Verdict.K_STABLE,
            None,
        )
    return (
        f"alpha bound {bound} does not exceed dim/(dim+1) = {threshold}; criterion silent",
        None,
        None,
    )


@register_criterion(
    CRIT_BOUNDARY_SMOOTH,
    "a smooth Fano variety with alpha invariant equal to dim/(dim+1) is K-stable",
)
def _eval_alpha_boundary_smooth(inputs: dict) -> tuple[str, Verdict | None, None]:
    ws = _ws_from(inputs)
    if boundary_shape(ws) != SHAPE_ALL_ONES:
        return ("not the all-ones boundary shape; criterion silent", None, None)
    threshold = Fraction(ws.dim, ws.dim + 1)
    return (
        f"all weights equal 1 and the degree is {ws.degree}, so the member is a smooth "
        f"Fano hypersurface with alpha >= dim/(dim+1) = {threshold}; equality suffices "
        "for smooth varieties; K-stable",
        Verdict.K_STABLE,
        None,
    )


@register_criterion(
    CRIT_BOUNDARY_PARITY,
    "boundary shape (1,...,1,2,a : 2a): for odd a the member is smooth, for even a "
    "it has only half-point quotient singularities, which are not weakly "
    "exceptional; K-stable either way",
)
def _eval_alpha_boundary_star_parity(inputs: dict) -> tuple[str, Verdict | None, None]:
    ws = _ws_from(inputs)
    if boundary_shape(ws) != SHAPE_STAR:
        return (
            "not the double-weight boundary shape with all other weights 1; criterion silent",
            None,
            None,
        )
    a = ws.degree // 2
    threshold = Fraction(ws.dim, ws.dim + 1)
    if a % 2 == 1:
        return (
            f"boundary case alpha = {threshold} with a = {a} odd: the member is smooth "
            "and equality suffices for smooth varieties; K-stable",
            Verdict.K_STABLE,
            None,
        )
    return (
        f"boundary case alpha = {threshold} with a = {a} even: the member has only "
        "half-point quotient singularities, which are not weakly exceptional "
        "(cited singularity classification, not recomputed here); K-stable",
        Verdict.K_STABLE,
        None,
    )


@register_criterion(
    CRIT_KE,
    "a K-stable Fano variety admits a Kahler-Einstein metric",
)
def _eval_kahler_einstein(inputs: dict) -> tuple[str, Verdict | None, None]:
    return ("the member admits a Kahler-Einstein metric", None, None)


# ---------------------------------------------------------------------------
# the combined pipeline


@dataclass(frozen=True)
class StabilityReport:
    system: WeightSystem
    member_class: str
    verdict: Verdict
    alpha: AlphaBound | None
    aut_finite: bool | None
    trace: tuple[TraceEntry, ...]


def classify(
    ws: WeightSystem,
    member_class: str = MEMBER_ANY,
    support: Support | None = None,
) -> StabilityReport:
    """Run every applicable criterion in a fixed order and join the claims.

    Order: the index-versus-dimension test for general members, the Fermat
    margin test for Fermat members, then (at index 1, for well-formed
    systems) the smooth-cover planners followed by the alpha threshold and
    its two boundary shapes.  A failed planner leaves its witness in the
    trace; with no applicable criterion the verdict is unknown.
    """
    if member_class not in MEMBER_CLASSES:
        raise ValueError(f"unknown member class {member_class!r}")
    require_preconditions(ws, "cannot classify")
    if support is not None and support.system != ws:
        raise ValueError("support ambient does not match the weight system")

    base = {"weights": list(ws.weights), "degree": ws.degree}
    entries: list[TraceEntry] = []
    alpha: AlphaBound | None = None
    finite: bool | None = None

    if member_class == MEMBER_GENERAL:
        entries.append(make_entry(CRIT_INDEX_VS_DIM, dict(base)))

    if member_class == MEMBER_FERMAT:
        entries.append(
            make_entry(CRIT_AUT, {"weights": list(ws.weights), "multidegree": [ws.degree]})
        )
        finite = entries[-1].payload
        entries.append(make_entry(CRIT_FERMAT, dict(base, aut_finite=finite)))

    if ws.index == 1 and ws.well_formed:
        entries.append(make_entry(CRIT_COVER, dict(base, mode="universal")))
        if not entries[-1].payload.ok and support is not None:
            entries.append(make_entry(CRIT_COVER, dict(support.to_json(), mode="support")))
        covered = entries[-1].payload.ok
        entries.append(make_entry(CRIT_ALPHA, dict(base, cover_available=covered)))
        alpha = entries[-1].payload
        if alpha is not None:
            if alpha.value > Fraction(ws.dim, ws.dim + 1):
                entries.append(make_entry(CRIT_ALPHA_THRESHOLD, dict(base, alpha=alpha.to_json())))
            else:
                # the threshold bound meets dim/(dim+1) only on the two boundary shapes
                shape = boundary_shape(ws)
                if shape is None:
                    raise AssertionError(f"alpha bound below dim/(dim+1) for {ws.render()}")
                boundary = CRIT_BOUNDARY_SMOOTH if shape == SHAPE_ALL_ONES else CRIT_BOUNDARY_PARITY
                entries.append(make_entry(boundary, dict(base)))

    verdict = join_verdicts(entry.verdict for entry in entries)
    if verdict is Verdict.K_STABLE:
        entries.append(make_entry(CRIT_KE, {}))
    return StabilityReport(
        system=ws,
        member_class=member_class,
        verdict=verdict,
        alpha=alpha,
        aut_finite=finite,
        trace=tuple(entries),
    )


def report_to_json(report: StabilityReport) -> dict:
    return {
        "system": {"weights": list(report.system.weights), "degree": report.system.degree},
        "member_class": report.member_class,
        "verdict": report.verdict.value,
        "alpha": report.alpha.to_json() if report.alpha is not None else None,
        "aut_finite": report.aut_finite,
        "trace": [
            {"criterion": e.criterion, "cite": e.cite, "conclusion": e.conclusion}
            for e in report.trace
        ],
    }


@dataclass(frozen=True)
class BatchSummary:
    """Deterministic tally over a catalog, in canonical system order."""

    total: int
    counts: dict
    unknown: tuple[StabilityReport, ...]


def batch_classify(catalog: EnumerationResult) -> BatchSummary:
    """Classify every catalog system as a quasi-smooth member, tally verdicts."""
    counts = {v.value: 0 for v in Verdict}  # keys in Verdict's declaration order
    unknown: list[StabilityReport] = []
    for ws in catalog.systems:
        report = classify(ws, MEMBER_ANY)
        counts[report.verdict.value] += 1
        if report.verdict is Verdict.UNKNOWN:
            unknown.append(report)
    return BatchSummary(total=len(catalog.systems), counts=counts, unknown=tuple(unknown))


def summary_to_json(summary: BatchSummary) -> dict:
    return {
        "total": summary.total,
        "counts": dict(summary.counts),
        "unknown": [report_to_json(r) for r in summary.unknown],
    }
