"""Every `reproduce` bundle against the reference copy in tests/golden.

The reference files were written by `stochorder reproduce <target>`.  CSV
values must agree to 1e-12 (absolute or relative), comment and header lines
exactly; JSON documents must be equal.  Regenerate a bundle only when a
numeric change is intended:

    stochorder reproduce <target> --out-dir tests/golden/<target>
"""

from __future__ import annotations

import json
import math
import os

import pytest

from stochorder import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
TOL = 1e-12


def _read(path):
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


def _split_csv(text: str):
    """(comment and header lines, numeric rows)."""
    lines = text.splitlines()
    head = 2 if lines[0].startswith("#") else 1
    return lines[:head], [[float(v) for v in line.split(",")] for line in lines[head:]]


def _assert_csv_close(fresh: str, golden: str, name: str) -> None:
    fresh_head, fresh_rows = _split_csv(fresh)
    golden_head, golden_rows = _split_csv(golden)
    assert fresh_head == golden_head, name
    assert len(fresh_rows) == len(golden_rows), name
    for row, (got, want) in enumerate(zip(fresh_rows, golden_rows)):
        assert len(got) == len(want), f"{name} row {row}"
        for a, b in zip(got, want):
            assert math.isclose(a, b, rel_tol=TOL, abs_tol=TOL), \
                f"{name} row {row}: {a!r} != {b!r}"


def test_golden_targets_match_cli():
    assert sorted(os.listdir(GOLDEN)) == sorted(cli.REPRO_TARGETS)


@pytest.mark.parametrize("target", sorted(os.listdir(GOLDEN)))
def test_reproduce_matches_golden(target, tmp_path, capsys):
    assert cli.main(["reproduce", target, "--out-dir", str(tmp_path)]) == 0
    want_dir = os.path.join(GOLDEN, target)
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(want_dir))
    for name in sorted(os.listdir(want_dir)):
        fresh = _read(os.path.join(tmp_path, name))
        golden = _read(os.path.join(want_dir, name))
        if name.endswith(".json"):
            assert json.loads(fresh) == json.loads(golden), name
        else:
            _assert_csv_close(fresh, golden, name)
