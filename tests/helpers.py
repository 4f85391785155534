"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from typing import Callable, Iterable, Optional, Sequence


def interior_points(lo: float, hi: float, count: int) -> list:
    """count points strictly inside (lo, hi), evenly spaced."""
    step = (hi - lo) / (count + 1)
    return [lo + step * i for i in range(1, count + 1)]


def max_abs_diff(f: Callable[[float], float],
                 g: Callable[[float], float],
                 points: Iterable[float]) -> float:
    return max(abs(f(p) - g(p)) for p in points)


def max_abs(values: Sequence[float]) -> float:
    return max(abs(v) for v in values)


# dyadic probe grid including both endpoints
GRID65 = tuple(i / 64 for i in range(65))
# the same grid without the endpoints, for ratio-style probes
GRID63 = tuple(i / 64 for i in range(1, 64))


def reference_json_text(doc) -> str:
    """The JSON bytes every CLI document must have: the json module's own
    indented, key-sorted encoding."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reference_csv_text(header: Sequence[str], rows: Iterable[Sequence],
                       comment: Optional[str] = None) -> str:
    """The CSV bytes of rows, one row at a time: each value as "%.17g"."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    head = f"# {comment}\n" if comment else ""
    return head + ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)
