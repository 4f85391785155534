"""The Python code blocks of README.md run, and print what they say.

A ``print(...)`` line ending in ``# <text>`` must print exactly <text>.
"""

from __future__ import annotations

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

with open(README, "r", encoding="utf-8") as _fp:
    BLOCKS = re.findall(r"```python\n(.*?)```", _fp.read(), re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    expected = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE)]
    assert out.getvalue().splitlines() == expected
