"""The README's Python examples run, and give what their comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_examples_hold():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:  # the second reads the first's import of numpy
        exec(compile(block, str(README), "exec"), ns)
    trace = ns["trace"]
    assert trace.reason == "epsilon-reached"
    assert trace.summary["best_value"] == pytest.approx(ns["obj"].f_star,
                                                        abs=1e-9)
    rep = ns["rep"]
    # 16/3 to the rounding of the spectral sum
    assert rep.bound == pytest.approx(16 / 3, rel=4e-16)
    assert rep.attained
    assert rep.mu.sharp
