"""The traced benchmark pass runs against this library and judges it correct.

bench/tracer.py patches library names (compile_fn, monotone_inverse,
integrate, co_inverse, build, distort, ...) and reads cache_info() on every
distorted quantile; a rename or a changed contract there breaks the traced
run, which nothing else in the suite executes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_check_expr_pass_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "check_expr",
         "--seconds", "1", "--trace", "1"],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    last = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
    assert last["correct"] is True, last
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    # the patches took: expressions, hazards and distorted quantiles were seen
    assert metrics["funcalc.evals"] > 0
    assert metrics["distributions.quantile.evals.hazard"] > 0
    assert metrics["distributions.quantile.evals.distorted"] > 0
