"""README's library overview runs and returns what its comments claim."""

import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_overview(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    monkeypatch.chdir(ROOT)  # the block reads a shipped fixture by its relative path
    names = {}
    exec(block, names)
    assert names["report"].verdict.value == "k_stable"
    assert names["plan"].ok and names["plan"].cover_count == 3
    assert names["bound"].value == Fraction(5, 6) and names["bound"].case_tag == "star"
    assert names["violation"] == ((17, 1, 1, 0, 0, 0), 1)
