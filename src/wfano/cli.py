"""Command-line front end.

Every subcommand is a thin wrapper over one library entry point, emitting
deterministic text or JSON: repeated runs on the same inputs are
byte-identical.  Exit codes: 0 success, 2 validation failure (malformed
input or arguments, failed precondition), 3 unknown classification under
--strict, 4 I/O error, 5 condition not met (star violation, failed cover
plan, lemma violation).  Rational values are printed exactly, never as floats.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from .core import WeightSystem, check_lemma_ineq, minimal_triple_gap, require_preconditions
from .enumeration import EnumerationQuery, enumerate_systems, render_table
from .monomial import (
    load_support,
    plan_cover_for_support,
    plan_cover_universal,
    require_member,
    star_condition,
    star_condition_at,
)
from .stability import (
    COVER_ASSUMPTION,
    MEMBER_ANY,
    MEMBER_FERMAT,
    MEMBER_GENERAL,
    Verdict,
    alpha_lower_bound,
    classify,
    fermat_k_stability,
    report_to_json,
)

EXIT_VALIDATION = 2
EXIT_UNKNOWN = 3
EXIT_IO = 4
EXIT_CONDITION = 5

_MEMBER_FLAGS = {"fermat": MEMBER_FERMAT, "general": MEMBER_GENERAL, "any": MEMBER_ANY}


def parse_weight_system(text: str) -> WeightSystem:
    """Parse "a0,a1,...,an:d" into the canonical ascending system."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"weight system {text!r} lacks the ':degree' suffix")
    try:
        weights = tuple(int(token) for token in head.split(","))
        degree = int(tail)
    except ValueError as exc:
        raise ValueError(f"weight system {text!r} has non-integer entries") from exc
    return WeightSystem.of(weights, degree)


def _run(fn):
    """Map library errors to the exit-code contract (2 validation, 4 I/O)."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)

    return inner


@click.group()
def cli() -> None:
    """Enumerate and classify Fano weighted hypersurfaces with divisible weights."""


@cli.command(name="enumerate")
@click.option("--dim", type=int, required=True, help="Dimension of the hypersurface.")
@click.option("--index", type=int, required=True, help="Fano index (sum of weights minus degree).")
@click.option("--dmax", type=int, default=None, help="Degree cap; required when the index exceeds 1.")
@click.option("--format", "fmt", type=click.Choice(["json", "tsv", "md"]), default="md", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write to a file instead of stdout.")
@_run
def enumerate_cmd(dim: int, index: int, dmax: int | None, fmt: str, out: str | None) -> None:
    """List all systems of the given dimension and index."""
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    if dmax is not None and dmax < 1:
        raise ValueError(f"--dmax must be at least 1, got {dmax}")
    if index > 1 and dmax is None:
        raise ValueError("--index above 1 needs --dmax")
    query = EnumerationQuery(num_weights=dim + 2, index=index, d_max=dmax)
    text = render_table(enumerate_systems(query), format=fmt)
    if out is None:
        click.echo(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


@cli.command()
@_run
def table1() -> None:
    """Markdown table of the 30 threefold systems (dim 3, index 1)."""
    result = enumerate_systems(EnumerationQuery(num_weights=5, index=1))
    click.echo(render_table(result, format="md"))


@cli.command()
@click.argument("ws")
@click.option("--member", type=click.Choice(sorted(_MEMBER_FLAGS)), default="any", show_default=True)
@click.option("--support", "support_path", type=click.Path(dir_okay=False), default=None)
@click.option("--strict", is_flag=True, help="Exit 3 when the verdict is unknown.")
@_run
def analyze(ws: str, member: str, support_path: str | None, strict: bool) -> None:
    """Full classification report for WS (format a0,...,an:d) as JSON."""
    system = parse_weight_system(ws)
    support = load_support(support_path) if support_path else None
    report = classify(system, _MEMBER_FLAGS[member], support)
    click.echo(json.dumps(report_to_json(report), indent=2))
    if strict and report.verdict is Verdict.UNKNOWN:
        sys.exit(EXIT_UNKNOWN)


@cli.command()
@click.argument("ws")
@_run
def alpha(ws: str) -> None:
    """Alpha-invariant lower bound for WS, via the universal cover planner."""
    system = parse_weight_system(ws)
    require_preconditions(system, "alpha bound undefined for", index_one=True)  # before planning
    plan = plan_cover_universal(system)
    bound = alpha_lower_bound(system, cover_available=plan.ok)
    click.echo(f"system: {system.render()}")
    if plan.ok:
        click.echo(f"cover: universal route found ({plan.cover_count} cover steps)")
    else:
        row, i = plan.witness
        click.echo(f"cover: no universal route found (witness {row} at position {i})")
    if bound is None:
        click.echo("alpha: unavailable (no smooth cover established)")
        return
    click.echo(f"alpha >= {bound.value} (case {bound.case_tag})")
    click.echo(f"assumption: {COVER_ASSUMPTION}")


@cli.command()
@click.argument("ws")
@_run
def fermat(ws: str) -> None:
    """K-stability of the Fermat member of WS by the margin criterion."""
    system = parse_weight_system(ws)
    result = fermat_k_stability(system)
    click.echo(f"system: {system.render()}")
    click.echo(f"margin: {result.margin}")
    click.echo(f"aut_finite: {'finite' if result.aut_finite else 'criterion silent'}")
    click.echo(f"verdict: {result.verdict.value}")


@cli.command(name="star-check")
@click.option("--support", "support_path", required=True, type=click.Path(dir_okay=False))
@click.option("--index", type=int, default=None, help="Check a single coordinate position.")
@_run
def star_check(support_path: str, index: int | None) -> None:
    """Check the exponent-1 semigroup condition on a support file."""
    support = load_support(support_path)
    violation = star_condition(support) if index is None else star_condition_at(support, index)
    if violation is None:
        click.echo("star condition holds")
        return
    row, i = violation
    click.echo(f"star violation: monomial {row} at position {i} (weight {support.weights[i]})")
    sys.exit(EXIT_CONDITION)


@cli.command(name="cover-plan")
@click.argument("ws")
@click.option("--support", "support_path", type=click.Path(dir_okay=False), default=None)
@click.option("--universal", is_flag=True, help="Plan for every quasi-smooth member (the default).")
@_run
def cover_plan(ws: str, support_path: str | None, universal: bool) -> None:
    """Plan an iterated smooth cover for WS."""
    system = parse_weight_system(ws)
    if support_path and universal:
        raise ValueError("--support and --universal are mutually exclusive")
    if support_path:
        support = load_support(support_path)
        require_member(support, system)
        plan = plan_cover_for_support(support)
    else:
        plan = plan_cover_universal(system)
    for k, (i, replacement) in enumerate(plan.steps, 1):
        if replacement is None:
            click.echo(f"step {k}: cover at position {i}")
        else:
            click.echo(f"step {k}: substitute at position {i} with {replacement}")
    if plan.ok:
        click.echo(f"plan: success, final weights {plan.final_weights}")
        return
    row, i = plan.witness
    click.echo(f"plan: failure, monomial {row} at position {i} over weights {plan.final_weights}")
    sys.exit(EXIT_CONDITION)


@cli.command(name="verify-lemmas")
@click.option("--dims", default="2,3", show_default=True, help="Comma-separated hypersurface dimensions.")
@_run
def verify_lemmas(dims: str) -> None:
    """Check the threshold inequalities over whole catalogs, plus the minimal triple gap."""
    # an empty --dims checks no catalog; an empty item in a list is malformed
    tokens = dims.split(",") if dims.strip() else []
    try:
        scope = list(dict.fromkeys(int(token) for token in tokens))
    except ValueError:
        raise ValueError(f"--dims must be comma-separated integers, got {dims!r}") from None
    if min(scope, default=1) < 1:
        raise ValueError(f"dimension must be at least 1, got {min(scope)}")
    total = 0
    violations = 0
    for dim in scope:
        result = enumerate_systems(EnumerationQuery(num_weights=dim + 2, index=1))
        for system in result.systems:
            total += 1
            if not check_lemma_ineq(system).passed:
                violations += 1
                click.echo(f"violation: {system.render()}")
    click.echo(f"dims {','.join(str(d) for d in scope) or 'none'}: {total} systems checked, {violations} violations")
    gap, triple = minimal_triple_gap(30)
    click.echo(f"minimal non-representable triple gap up to 30: {gap} at {triple}")
    if violations or (gap, triple) != (48, (3, 4, 5)):
        sys.exit(EXIT_CONDITION)


def main() -> None:
    cli(prog_name="wfano")


if __name__ == "__main__":
    main()
