"""The code blocks of README.md run, and print what they say.

A ``print(...)`` line ending in ``# <text>`` must print exactly <text>.  The
```json scenario runs through ``check-order --config``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re

import pytest

from stochorder import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

with open(README, "r", encoding="utf-8") as _fp:
    _TEXT = _fp.read()
BLOCKS = re.findall(r"```python\n(.*?)```", _TEXT, re.DOTALL)
SCENARIOS = re.findall(r"```json\n(.*?)```", _TEXT, re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    expected = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE)]
    assert out.getvalue().splitlines() == expected


def test_readme_config_scenario_runs(tmp_path, monkeypatch):
    # the scenario is the distorted ce02 pair: dmrl fails near p = 0
    [scenario] = SCENARIOS
    (tmp_path / "scenario.json").write_text(scenario, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check-order", "--config", "scenario.json"]) == 1
    doc = json.loads((tmp_path / "verdict.json").read_text(encoding="utf-8"))
    [result] = doc["results"]
    assert result["order"] == "dmrl" and result["holds"] is False
    assert (tmp_path / "curve.csv").is_file()
