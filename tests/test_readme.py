"""The README's Python examples run as written, in order, in one namespace,
and give the results their comments state."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_and_give_the_commented_results():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.normalized_vector() == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
    assert report.absolute("P3") == Fraction(1, 4)
    assert namespace["Status"].VETO in report.statuses("P1")
