"""K-stability verdicts assembled from recomputable criterion traces.

Every sufficient criterion used by classify() has a short machine name and a
citation tag naming the underlying result, in one closed table.  The trace is
built exclusively through that table, so each recorded conclusion can be
recomputed later from the recorded inputs alone, and the final verdict is the
join of the per-entry claims, never stronger.

All outputs are one-sided: "unknown" means no criterion applied,
never that the member is unstable, and alpha values are lower bounds.  The
only two-sided statement is the Fermat margin criterion, which does decide
instability for negative margins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from .core import (
    SHAPE_ALL_ONES,
    SHAPE_STAR,
    WeightSystem,
    _threshold,
    boundary_shape,
    require_preconditions,
    star_case,
)
from .enumeration import EnumerationResult
from .monomial import (
    CoverPlan,
    Support,
    plan_cover_for_support,
    plan_cover_universal,
    require_member,
)

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
SUPPORT_COVER_ASSUMPTION = "smooth cover exists for the given member"


@dataclass(frozen=True, slots=True)
class AlphaBound:
    """A lower bound for the alpha invariant, not its value.

    It assumes a smooth cover: COVER_ASSUMPTION, or SUPPORT_COVER_ASSUMPTION
    when the alpha_bound entry that derived it records cover_mode "support".
    """

    value: Fraction
    case_tag: str

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
    star = star_case(ws)
    if star is None and ws.weights[0] >= 2:
        return AlphaBound(Fraction(1), ALPHA_ALL_GE2)
    return AlphaBound(_threshold(ws.degree, star), ALPHA_GENERIC if star is None else ALPHA_STAR)


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
    # type, not isinstance: a bool is an int but no weight or degree
    if not ws or any(type(a) is not int or a < 1 for a in ws):
        raise ValueError(f"weights must be positive integers, got {ws!r}")
    if any(ws[k] > ws[k + 1] for k in range(len(ws) - 1)):
        raise ValueError("weights must be ascending")
    if not degrees or any(type(d) is not int or d < 1 for d in degrees):
        raise ValueError(
            f"multidegree must be a non-empty list of positive integers, got {degrees!r}"
        )
    if any(d in ws for d in degrees):
        raise ValueError("linear cone: a degree equals one of the weights")
    n = len(ws) - 1
    c = len(degrees)
    if c > n:
        raise ValueError(f"codimension {c} exceeds the ambient dimension {n}")
    return sum(degrees) > sum(ws[-(c + 1):])


@dataclass(frozen=True, slots=True)
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
# criteria


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One applied criterion; conclusion and verdict recompute from inputs.

    cite is read from the criterion table.  payload is the fact the evaluator
    computed for classify to read (a CoverPlan, an AlphaBound or None, a
    finiteness flag); it is not compared.  A later entry that needs such a
    fact records it among its inputs.
    """

    criterion: str
    inputs: dict
    conclusion: str
    verdict: Verdict | None = None
    payload: Any = field(default=None, compare=False, repr=False)

    @property
    def cite(self) -> str:
        return _CRITERIA[self.criterion][0]


# an evaluator maps the recorded system, checked against the standing hypotheses
# (None for aut_finiteness and kahler_einstein, which record none), and the
# recorded inputs to (conclusion, verdict, payload)
Evaluator = Callable[[WeightSystem | None, dict], tuple[str, Verdict | None, Any]]


def _recorded(inputs: dict, key: str, kind: type, among: tuple[str, ...] = ()) -> Any:
    """inputs[key], which must be exactly of type kind (a bool is no int, 1 no
    bool) and, when among is given, one of its values."""
    value = inputs[key]
    if type(value) is not kind or among and value not in among:
        raise ValueError(f"recorded {key} must be {' or '.join(among) or kind.__name__}, got {value!r}")
    return value


def _recorded_support(inputs: dict) -> Support:
    return Support.of(inputs["weights"], inputs["degree"], inputs["monomials"])


def registered_criteria() -> tuple[str, ...]:
    return tuple(sorted(_CRITERIA))


def make_entry(criterion: str, inputs: dict, system: WeightSystem | None = None) -> TraceEntry:
    """Evaluate a criterion on inputs; system is the recorded system, known to
    meet the standing hypotheses and to hold the member of a support-mode
    smooth_cover record, or None to build and check both from the record.
    ValueError when a check fails or the record is malformed."""
    if criterion not in _CRITERIA:
        raise KeyError(f"unregistered criterion {criterion!r}")
    if not isinstance(inputs, dict):
        raise ValueError(f"malformed {criterion} record: inputs {inputs!r} are not a dict")
    evaluate = _CRITERIA[criterion][1]
    try:
        if system is None and criterion not in (CRIT_AUT, CRIT_KE):
            system = WeightSystem.of(inputs["weights"], inputs["degree"])
            require_preconditions(system, "criterion undefined for")
            if criterion == CRIT_COVER and inputs.get("mode") == "support":
                support = _recorded_support(inputs)
                require_member(support, system)
                # the gated member is the one the planner covers: built once
                evaluate = partial(_eval_smooth_cover, support=support)
        conclusion, verdict, payload = evaluate(system, inputs)
    except (KeyError, TypeError) as exc:  # a missing key or a value of the wrong shape
        raise ValueError(f"malformed {criterion} record: {exc!r}") from exc
    return TraceEntry(criterion, dict(inputs), conclusion, verdict, payload)


def recompute_entry(entry: TraceEntry) -> tuple[str, Verdict | None]:
    """Re-run the entry's criterion on its recorded inputs; the payload is dropped."""
    fresh = make_entry(entry.criterion, entry.inputs)
    return fresh.conclusion, fresh.verdict


CRIT_INDEX_VS_DIM = "index_vs_dimension"
CRIT_AUT = "aut_finiteness"
CRIT_FERMAT = "fermat_margin"
CRIT_COVER = "smooth_cover"
CRIT_ALPHA = "alpha_bound"
CRIT_ALPHA_THRESHOLD = "alpha_above_threshold"
CRIT_BOUNDARY_SMOOTH = "alpha_boundary_smooth"
CRIT_BOUNDARY_PARITY = "alpha_boundary_star_parity"
CRIT_KE = "kahler_einstein"
COVER_MODES = ("universal", "support")


def _eval_index_vs_dimension(ws: WeightSystem, inputs: dict) -> tuple[str, Verdict | None, None]:
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


def _eval_aut_finiteness(ws: None, inputs: dict) -> tuple[str, Verdict | None, bool]:
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


def _eval_fermat_margin(ws: WeightSystem, inputs: dict) -> tuple[str, Verdict | None, None]:
    result = _fermat_stability(ws, _recorded(inputs, "aut_finite", bool))
    finiteness = "finite" if result.aut_finite else "not decided"
    return (
        f"margin n*a_0 - I = {ws.n}*{ws.weights[0]} - {ws.index} = {result.margin}; "
        f"automorphism group {finiteness}; the Fermat member is {result.verdict.value}",
        result.verdict,
        None,
    )


def _eval_smooth_cover(
    ws: WeightSystem, inputs: dict, support: Support | None = None
) -> tuple[str, Verdict | None, CoverPlan]:
    """support, when given, is the support-mode member already built from inputs."""
    if _recorded(inputs, "mode", str, COVER_MODES) == "universal":
        plan = plan_cover_universal(ws)
        scope = "every quasi-smooth member"
    else:
        plan = plan_cover_for_support(_recorded_support(inputs) if support is None else support)
        scope = "the given member"
    if plan.ok:
        return (
            f"smooth cover found for {scope}: {plan.cover_count} cover step(s), "
            f"final weights {list(plan.final_weights)}",
            None,
            plan,
        )
    row, i = plan.witness
    return (
        f"no smooth cover found for {scope}: monomial {list(row)} "
        f"at position {i} blocks the semigroup condition over "
        f"weights {list(plan.final_weights)}",
        None,
        plan,
    )


def _eval_alpha_bound(
    ws: WeightSystem, inputs: dict
) -> tuple[str, Verdict | None, AlphaBound | None]:
    bound = alpha_lower_bound(ws, _recorded(inputs, "cover_available", bool))
    mode = _recorded(inputs, "cover_mode", str, COVER_MODES)
    if bound is None:
        return ("alpha bound unavailable without a smooth cover", None, None)
    assumption = SUPPORT_COVER_ASSUMPTION if mode == "support" else COVER_ASSUMPTION
    return (f"alpha >= {bound.value} (case {bound.case_tag}; assuming: {assumption})", None, bound)


def _eval_alpha_above_threshold(ws: WeightSystem, inputs: dict) -> tuple[str, Verdict | None, None]:
    num, den = _recorded(inputs["alpha"], "num", int), _recorded(inputs["alpha"], "den", int)
    if den < 1:
        raise ValueError(f"recorded alpha den must be positive, got {den}")
    bound = Fraction(num, den)
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


def _eval_alpha_boundary_smooth(ws: WeightSystem, inputs: dict) -> tuple[str, Verdict | None, None]:
    if boundary_shape(ws) != SHAPE_ALL_ONES:
        return ("not the all-ones boundary shape; criterion silent", None, None)
    threshold = Fraction(ws.dim, ws.dim + 1)
    if ws.dim < 2:
        # the conic is P^1: alpha = 1/2 = dim/(dim+1), K-polystable but not K-stable
        return (
            f"all weights equal 1 and the degree is {ws.degree}, with alpha >= dim/(dim+1) = "
            f"{threshold}; equality suffices only in dimension at least 2, and the dimension "
            f"is {ws.dim}; criterion silent",
            None,
            None,
        )
    return (
        f"all weights equal 1 and the degree is {ws.degree}, so the member is a smooth "
        f"Fano hypersurface with alpha >= dim/(dim+1) = {threshold}; equality suffices "
        "for smooth varieties; K-stable",
        Verdict.K_STABLE,
        None,
    )


def _eval_alpha_boundary_star_parity(
    ws: WeightSystem, inputs: dict
) -> tuple[str, Verdict | None, None]:
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


def _eval_kahler_einstein(ws: None, inputs: dict) -> tuple[str, Verdict | None, None]:
    return ("the member admits a Kahler-Einstein metric", None, None)


# the closed criterion table: name -> (cite, evaluator); nothing writes to it
_CRITERIA: dict[str, tuple[str, Evaluator]] = {
    CRIT_INDEX_VS_DIM: (
        "a general member is K-stable when the Fano index is smaller than the dimension",
        _eval_index_vs_dimension,
    ),
    CRIT_AUT: (
        "the automorphism group is finite when the degree sum exceeds the sum of the "
        "largest c+1 weights, or when 0 < index < n - c",
        _eval_aut_finiteness,
    ),
    CRIT_FERMAT: (
        "the Fermat member is K-polystable exactly when the Fano index is below n times "
        "the smallest weight, strictly K-semistable at equality, K-unstable beyond; "
        "K-polystable plus a finite automorphism group gives K-stable",
        _eval_fermat_margin,
    ),
    CRIT_COVER: (
        "iterated cyclic covers over the recorded coordinates produce a smooth finite "
        "cover of a quasi-smooth member",
        _eval_smooth_cover,
    ),
    CRIT_ALPHA: (
        "members carrying a smooth cover have alpha at least (d-2)/d in the "
        "double-weight case, (d-1)/d otherwise, and at least 1 when every weight "
        "is at least 2",
        _eval_alpha_bound,
    ),
    CRIT_ALPHA_THRESHOLD: (
        "a Fano variety whose alpha invariant exceeds dim/(dim+1) is K-stable",
        _eval_alpha_above_threshold,
    ),
    CRIT_BOUNDARY_SMOOTH: (
        "a smooth Fano variety with alpha invariant equal to dim/(dim+1) is K-stable",
        _eval_alpha_boundary_smooth,
    ),
    CRIT_BOUNDARY_PARITY: (
        "boundary shape (1,...,1,2,a : 2a): for odd a the member is smooth, for even a "
        "it has only half-point quotient singularities, which are not weakly "
        "exceptional; K-stable either way",
        _eval_alpha_boundary_star_parity,
    ),
    CRIT_KE: ("a K-stable Fano variety admits a Kahler-Einstein metric", _eval_kahler_einstein),
}


# ---------------------------------------------------------------------------
# the combined pipeline


@dataclass(frozen=True, slots=True)
class StabilityReport:
    """The joined verdict for one member class of one system and the trace it
    joins; alpha and aut_finite are the payloads of the trace's alpha_bound
    and aut_finiteness entries (None when no such entry gave one)."""

    system: WeightSystem
    member_class: str
    verdict: Verdict
    trace: tuple[TraceEntry, ...]

    @property
    def alpha(self) -> AlphaBound | None:
        return self._payload(CRIT_ALPHA)

    @property
    def aut_finite(self) -> bool | None:
        return self._payload(CRIT_AUT)

    def _payload(self, criterion: str) -> Any:
        return next((e.payload for e in self.trace if e.criterion == criterion), None)


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
    if support is not None:
        require_member(support, ws)

    # ws now meets the standing hypotheses, so each entry recorded on it takes
    # it as its checked system
    base = {"weights": list(ws.weights), "degree": ws.degree}
    entries: list[TraceEntry] = []

    if member_class == MEMBER_GENERAL:
        entries.append(make_entry(CRIT_INDEX_VS_DIM, base, ws))

    if member_class == MEMBER_FERMAT:
        entries.append(
            make_entry(CRIT_AUT, {"weights": list(ws.weights), "multidegree": [ws.degree]})
        )
        entries.append(make_entry(CRIT_FERMAT, dict(base, aut_finite=entries[-1].payload), ws))

    if ws.index == 1 and ws.well_formed:
        entries.append(make_entry(CRIT_COVER, dict(base, mode="universal"), ws))
        if not entries[-1].payload.ok and support is not None:
            entries.append(make_entry(CRIT_COVER, dict(support.to_json(), mode="support"), ws))
        cover = entries[-1]
        inputs = dict(base, cover_available=cover.payload.ok, cover_mode=cover.inputs["mode"])
        entries.append(make_entry(CRIT_ALPHA, inputs, ws))
        alpha = entries[-1].payload
        if alpha is not None:
            if alpha.value > Fraction(ws.dim, ws.dim + 1):
                above = dict(base, alpha=alpha.to_json())
                entries.append(make_entry(CRIT_ALPHA_THRESHOLD, above, ws))
            else:
                # the threshold bound meets dim/(dim+1) only on the two boundary shapes
                shape = boundary_shape(ws)
                if shape is None:
                    raise AssertionError(f"alpha bound below dim/(dim+1) for {ws.render()}")
                boundary = CRIT_BOUNDARY_SMOOTH if shape == SHAPE_ALL_ONES else CRIT_BOUNDARY_PARITY
                entries.append(make_entry(boundary, base, ws))

    verdict = join_verdicts(entry.verdict for entry in entries)
    if verdict is Verdict.K_STABLE:
        entries.append(make_entry(CRIT_KE, {}))
    return StabilityReport(system=ws, member_class=member_class, verdict=verdict, trace=tuple(entries))


def report_to_json(report: StabilityReport) -> dict:
    alpha = report.alpha
    return {
        "system": {"weights": list(report.system.weights), "degree": report.system.degree},
        "member_class": report.member_class,
        "verdict": report.verdict.value,
        "alpha": alpha.to_json() if alpha is not None else None,
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
