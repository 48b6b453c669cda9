"""The records built once per system or per pair are slotted: no instance dict.

A catalog pass keeps one of these per system, per trace entry or per ordered
pair of weights, so an instance dict on each would cost memory in proportion
to the catalog.
"""

import ast
from pathlib import Path

import pytest

from wfano import (
    MEMBER_FERMAT,
    AlphaBound,
    CoverPlan,
    FermatStability,
    InequalityCheck,
    InequalityReport,
    StabilityReport,
    Support,
    TraceEntry,
    WeightSystem,
    check_lemma_ineq,
    classify,
    fermat_k_stability,
    fermat_support,
    plan_cover_for_support,
)

SLOTTED = (
    WeightSystem,
    Support,
    CoverPlan,
    InequalityCheck,
    InequalityReport,
    AlphaBound,
    FermatStability,
    TraceEntry,
    StabilityReport,
)


def built_records() -> list:
    """One instance of each slotted record, built by the pipeline."""
    ws = WeightSystem((1, 1, 1, 1, 1, 4), 8)
    report = classify(ws, MEMBER_FERMAT)
    plan = plan_cover_for_support(fermat_support(ws))
    inequalities = check_lemma_ineq(ws)
    return [
        ws,
        fermat_support(ws),
        plan,
        inequalities.checks[0],
        inequalities,
        report.alpha,
        fermat_k_stability(ws),
        report.trace[0],
        report,
    ]


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_record_class_defines_slots(cls):
    assert "__slots__" in vars(cls)


def test_built_records_have_no_instance_dict():
    records = built_records()
    assert [type(record) for record in records] == list(SLOTTED)
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def slotted_dataclasses_in_source() -> set[str]:
    """Names of the classes in src/wfano decorated with @dataclass(..., slots=True)."""
    names = set()
    for path in (Path(__file__).parent.parent / "src" / "wfano").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Call)
                and getattr(d.func, "id", None) == "dataclass"
                and any(k.arg == "slots" and getattr(k.value, "value", None) is True for k in d.keywords)
                for d in node.decorator_list
            ):
                names.add(node.name)
    return names


def test_every_slotted_dataclass_is_listed():
    # the hand list above, and the count README gives, follow the source
    assert slotted_dataclasses_in_source() == {cls.__name__ for cls in SLOTTED}
