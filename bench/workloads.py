"""Seeded request streams for the four workloads, and the oracles that judge
their outputs from theory alone (never from outputs recorded earlier).

Every input the program receives is generated here as spec text, CLI
arguments or a sweep config, with the grid, tolerance and trial count
pinned explicitly, so a change to a library default shows up as an oracle
failure instead of silently changing the workload.

This module imports nothing from ``stochorder``: it is loaded before the
timed set-up starts.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence

ORDERS = ("ttt", "ew", "dmrl", "qmit", "convex_transform", "star")

# pinned check-order inputs (the CLI defaults today, stated explicitly)
GRID_COUNT = 512
GRID_MARGIN = 1e-3
GRID_DESCRIBE = "512:0.001:0.999"
CHECK_TOL = 1e-8  # verdict tolerance; check-order has no flag, so it is asserted
GRID_ARGS = ["--grid-count", str(GRID_COUNT), "--grid-lo", "0", "--grid-hi", "1",
             "--grid-margin", repr(GRID_MARGIN)]

# pinned sweep inputs
SWEEP_TRIALS = 20          # past the longest catalog walk (13 trials)
SWEEP_GRID_COUNT = 48
SWEEP_EDGE_MARGIN = 0.01
SWEEP_TOL = 1e-8
SWEEP_BASE_SEED = 20240917
SWEEP_SUITES = ("ttt_starshaped", "ew_antistarshaped", "dmrl_antistarshaped",
                "qmit_dual_antistarshaped", "convex_star_invariance")

SYSTEM_TABLE_COUNT = 257
TABLE_TOL = 1e-12

# quantile expressions the scale pairs are built on (copied, not imported,
# from the catalog so that a catalog edit cannot change the workload)
SCALE_BASES = ("17/8*p - 1/2*p^2", "ln(15/8 + p)", "p", "(1 - (1-p)^0.3)/0.3")


@dataclass
class Request:
    """One CLI request: arguments, the outputs to attach, and its oracle.

    ``check(rc, doc, table)`` returns None when the outputs agree with the
    theory, else a one-line reason.  ``table`` is the parsed CSV for
    ``system`` requests and None otherwise.
    """

    kind: str
    argv: List[str]
    csv_out: bool
    check: Callable[[int, dict, Optional[list]], Optional[str]]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# ---------------------------------------------------------------------------
# check-order oracles


def _check_verdicts(expected: Dict[str, bool]):
    """Exit code, per-order verdicts, grid and tolerance must match."""
    want_rc = 0 if all(expected.values()) else 1

    def check(rc: int, doc: dict, _table) -> Optional[str]:
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        got = {r["order"]: r["holds"] for r in doc.get("results", [])}
        if got != expected:
            wrong = sorted(k for k in expected if got.get(k) != expected[k])
            return f"verdicts {got} disagree with theory on {wrong}"
        for r in doc["results"]:
            if r["grid"] != GRID_DESCRIBE:
                return f"grid {r['grid']!r}, pinned {GRID_DESCRIBE!r}"
            tol = r["tolerances"]
            if tol["abs_tol"] != CHECK_TOL or tol["rel_tol"] != CHECK_TOL:
                return f"tolerances {tol}, pinned {CHECK_TOL}"
        return None

    return check


def _order_args(orders: Sequence[str]) -> List[str]:
    out: List[str] = []
    for name in orders:
        out += ["--order", name]
    return out


def _check_request(kind: str, x: str, y: str, orders: Sequence[str],
                   expected: Dict[str, bool], distortion: Optional[str] = None) -> Request:
    argv = ["check-order", "--x", x, "--y", y] + _order_args(orders) + GRID_ARGS
    if distortion is not None:
        argv += ["--distort", distortion]
    return Request(kind=kind, argv=argv, csv_out=True,
                   check=_check_verdicts({o: expected[o] for o in orders}))


ALL_HOLD = {o: True for o in ORDERS}
# a reversed scale pair fails the pointwise orders; its ratios stay constant
REVERSED = {o: o not in ("ttt", "ew") for o in ORDERS}


def check_closed(seed: int) -> Iterator[Request]:
    """Exponential rate pairs (some reversed), plain or under power:k and
    dualpower:k, all six orders on the 512-point grid.

    An exponential pair is a scale pair, and a common distortion of a scale
    pair is again a scale pair, so the theory fixes all six verdicts: an
    ordered pair holds everything, a reversed one fails ttt and ew only.
    """
    rng = random.Random(f"check_closed:{seed}")
    i = 0
    while True:
        rate_y = 0.4 + 1.2 * rng.random()
        rate_x = rate_y * (1.1 + 0.9 * rng.random())
        k = 1.5 + 2.5 * rng.random()
        family = ("plain", "power", "dualpower")[i % 3]
        reverse = i % 4 == 3
        x, y = f"exp:{rate_x:.12g}", f"exp:{rate_y:.12g}"
        if reverse:
            x, y = y, x
        distortion = None if family == "plain" else f"{family}:{_fmt(k)}"
        kind = f"exp-{family}" + ("-reversed" if reverse else "")
        yield _check_request(kind, x, y, ORDERS,
                             REVERSED if reverse else ALL_HOLD, distortion)
        i += 1


def _unit_power(a: float) -> str:
    return f"q: (1 - (1-p)^{_fmt(a)})/{_fmt(a)}"


def _q_pair(rng: random.Random, base: Optional[str]):
    """An ordered q: pair: with ``base``, the expression against c times
    itself (all ratios constant); without, unit-power exponents a_X > a_Y
    (density ratio increasing, so convex-transform order and all it
    implies)."""
    if base is not None:
        c = 1.1 + 1.4 * rng.random()
        return f"q: {base}", f"q: {_fmt(c)}*({base})", "q-scale"
    a_y = 0.15 + 0.45 * rng.random()
    a_x = a_y + 0.08 + (0.89 - a_y) * rng.random()
    return _unit_power(a_x), _unit_power(a_y), "q-unit-power"


# distortion families of known shape: convex (starshaped, dual concave) and
# concave (antistarshaped); both strictly increasing for w > 0
def _expr_distortion(rng: random.Random, convex: bool, m: int) -> str:
    w = 0.2 + 0.6 * rng.random()
    if convex:
        return f"h: {_fmt(w)}*p + {_fmt(1 - w)}*p^{m}"
    return f"h: {_fmt(w)}*p + {_fmt(1 - w)}*(1 - (1-p)^{m})"


# request mix of check_expr: one cycle of 16 slots, each a pair family and
# the orders it asks for.  The mix is fixed and only parameters are drawn,
# so that p50 lands inside the one-order transform requests and p90 inside
# the tail (slots 7 and 15: a hazard pair and an expression-distorted pair,
# one order each) on every seed.
_EXPR_SLOTS = (
    ("unit", ("ttt",)), ("scale", ("ew",)), ("unit", ("dmrl",)), ("scale", ORDERS),
    ("unit", ("qmit",)), ("scale", ("ttt",)), ("unit", ("star",)),
    ("hazard", ("convex_transform",)),
    ("scale", ("dmrl",)), ("unit", ("ew",)), ("scale", ("dmrl", "qmit")),
    ("unit", ("ttt", "ew")), ("scale", ("convex_transform",)), ("unit", ("qmit",)),
    ("scale", ("ew",)), ("distorted", ("star",)),
)


def check_expr(seed: int) -> Iterator[Request]:
    """q: pairs on the 512-point grid, plus a tail of hazard scale pairs and
    expression-distorted pairs.

    Hazard pairs (x/s)^k against (x/(c s))^k are Weibull scale pairs, so
    every order holds.  The distorted pairs ask only for star, whose verdict
    no common distortion can change, so they keep the verdict of their
    ordered base pair.  Scale pairs cycle through the catalog expressions.
    """
    rng = random.Random(f"check_expr:{seed}")
    scale_index = 0
    i = 0
    while True:
        family, orders = _EXPR_SLOTS[i % len(_EXPR_SLOTS)]
        if family == "hazard":
            k = 0.8 + 1.7 * rng.random()
            s = 0.5 + rng.random()
            c = 1.1 + 0.9 * rng.random()
            x = f"hazard: (x/{_fmt(s)})^{_fmt(k)}"
            y = f"hazard: (x/{_fmt(s * c)})^{_fmt(k)}"
            yield _check_request("hazard", x, y, orders, ALL_HOLD)
        elif family == "distorted":
            x, y, pair = _q_pair(rng, None)
            rnd = i // len(_EXPR_SLOTS)
            convex = rnd % 2 == 0
            h = _expr_distortion(rng, convex, 2 + (rnd // 2) % 3)
            kind = f"{pair}-distorted-{'convex' if convex else 'concave'}"
            yield _check_request(kind, x, y, orders, ALL_HOLD, h)
        else:
            base = None
            if family == "scale":
                base = SCALE_BASES[scale_index % len(SCALE_BASES)]
                scale_index += 1
            x, y, pair = _q_pair(rng, base)
            yield _check_request(pair, x, y, orders, ALL_HOLD)
        i += 1


# ---------------------------------------------------------------------------
# systems


def k_of_n_signature(k: int, n: int) -> List[int]:
    """Minimal signature of a k-out-of-n system: the coefficients of
    sum_{j>=k} C(n,j) p^j (1-p)^(n-j) in powers p^1..p^n."""
    coeffs = []
    for i in range(1, n + 1):
        coeffs.append(sum(math.comb(n, j) * math.comb(n - j, i - j) * (-1) ** (i - j)
                          for j in range(k, i + 1)))
    return coeffs


def binomial_reliability(k: int, n: int, p: float) -> float:
    return math.fsum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
                     for j in range(k, n + 1))


# n=4 and n=5 signatures of the catalog's worked systems
CATALOG_SIGNATURES = ([2, 0, -2, 1], [0, 1, 1, -1], [0, 6, -8, 3], [0, 0, 2, -1],
                      [0, 0, 0, 3, -2])


def _sig_text(sig: Sequence[int]) -> str:
    return ",".join(str(a) for a in sig)


# shape flags the theory fixes for each closed form (strict increase is
# grid-relative in the library and is not asserted)
CONVEX_FLAGS = {"convex": True, "concave": False, "starshaped": True,
                "antistarshaped": False, "dual_antistarshaped": True}
CONCAVE_FLAGS = {"convex": False, "concave": True, "starshaped": False,
                 "antistarshaped": True, "dual_antistarshaped": False}
S_SHAPED_FLAGS = {"convex": False, "concave": False, "starshaped": False,
                  "antistarshaped": False, "dual_antistarshaped": False}
IDENTITY_FLAGS = {"convex": True, "concave": True, "starshaped": True,
                  "antistarshaped": True, "dual_antistarshaped": True}


def _advice_error(doc: dict) -> Optional[str]:
    """The advice block must follow the preservation theorems applied to the
    reported flags."""
    f = doc["flags"]
    strict = f["strictly_increasing"]
    want = {"ttt": f["starshaped"],
            "ew": f["antistarshaped"] and strict,
            "dmrl": f["antistarshaped"] and strict,
            "qmit": f["dual_antistarshaped"] and strict,
            "convex_transform": True, "star": True}
    for order, ok in want.items():
        got = doc["advice"][order]["verdict"]
        if got != ("preserved" if ok else "not_guaranteed"):
            return f"advice for {order} is {got!r}, flags give preserved={ok}"
    return None


def _system_check(closed_form: Callable[[float], float],
                  flags: Optional[Dict[str, bool]] = None,
                  extra: Optional[Callable[[dict], Optional[str]]] = None):
    def check(rc: int, doc: dict, table: Optional[list]) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if table is not None:
            if len(table) != SYSTEM_TABLE_COUNT:
                return f"table has {len(table)} rows, expected {SYSTEM_TABLE_COUNT}"
            for p, v in table:
                want = closed_form(p)
                if abs(v - want) > TABLE_TOL:
                    return f"table value {v!r} at p={p!r}, closed form {want!r}"
        if flags is not None:
            got = {k: doc["flags"][k] for k in flags}
            if got != flags:
                return f"flags {got}, theory gives {flags}"
        err = _advice_error(doc)
        if err is None and extra is not None:
            err = extra(doc)
        return err

    return check


def _system_request(kind: str, command: str, sig: Sequence[int], copula: str,
                    check) -> Request:
    argv = [command, "--signature", _sig_text(sig), "--copula", copula]
    if command == "system":
        argv += ["--grid-count", str(SYSTEM_TABLE_COUNT)]
    return Request(kind=kind, argv=argv, csv_out=command == "system", check=check)


def _product_form(sig: Sequence[int]) -> Callable[[float], float]:
    return lambda p: math.fsum(a * p ** i for i, a in enumerate(sig, start=1))


def _durante_check_extra(f0: float):
    """Characterisation of generator-form systems: h_T is starshaped iff
    S(f) >= 0 over the range of f, antistarshaped iff S(f) <= 0; the closed
    corollary and the sampled condition must agree with the flags."""
    def extra(doc: dict) -> Optional[str]:
        flags = doc["flags"]
        cond = doc["shape_condition"]["verdict"]
        if cond in ("starshaped", "antistarshaped") and not flags[cond]:
            return f"shape condition says {cond} but the flag is off"
        cor = doc.get("corollary")
        if cor is None:
            return None
        verdict = cor["verdict"]
        implied = []
        if verdict == "identity":
            implied = ["starshaped", "antistarshaped"]
        elif verdict.endswith("_any_f"):
            implied = [verdict[:-len("_any_f")]]
        elif verdict.endswith("_if"):
            threshold = float(Fraction(cor["threshold"]))
            if f0 >= threshold:
                implied = [verdict[:-len("_if")]]
        for shape in implied:
            if not flags[shape]:
                return f"corollary {verdict} (f(0)={f0:.6g}) implies {shape}, flag is off"
        return None

    return extra


def _diag_params(sig: Sequence[int]):
    n = len(sig)
    alpha = sum(Fraction(a * (n - i)) for i, a in enumerate(sig, start=1)) / (n - 1)
    beta = sum(Fraction(a * (i - 1)) for i, a in enumerate(sig, start=1)) / (n - 1)
    return alpha, beta


def _signature_pool(n: int) -> List[List[int]]:
    """k-out-of-n signatures for every k, then the catalog's of size n."""
    pool = [k_of_n_signature(k, n) for k in range(1, n + 1)]
    return pool + [list(s) for s in CATALOG_SIGNATURES if len(s) == n]


# (k, n) pairs of the proper k-out-of-n systems, 1 < k < n
_K_OF_N = ((2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5))
_SYSTEMS_CYCLE = 10
_SYSTEM_SLOTS = (0, 2, 3, 4, 6, 8)  # the other slots send classify


def systems(seed: int) -> Iterator[Request]:
    """classify --signature --copula and system requests over series,
    parallel, k-out-of-n and catalog signatures, for all six copula
    families.  Oracles: binomial closed forms under product, identity under
    comonotone, closed forms and shape flags for the bivariate families,
    the generator- and diagonal-form closed forms and characterisation
    theorems, and durante f=p against product:n.

    Which signature, dimension and family a request uses cycles with the
    request index, so every seed has the same mix of costs; the seed draws
    the continuous copula parameters.
    """
    rng = random.Random(f"systems:{seed}")
    i = 0
    while True:
        slot, rnd = i % _SYSTEMS_CYCLE, i // _SYSTEMS_CYCLE
        command = "system" if slot in _SYSTEM_SLOTS else "classify"
        param = 0.1 + 0.8 * rng.random()
        n = 2 + rnd % 4
        if slot == 0:
            yield _system_request("product-series", command, k_of_n_signature(n, n),
                                  f"product:{n}",
                                  _system_check(lambda p, n=n: p ** n, CONVEX_FLAGS))
        elif slot == 1:
            yield _system_request("product-parallel", command, k_of_n_signature(1, n),
                                  f"product:{n}", _system_check(None, CONCAVE_FLAGS))
        elif slot in (2, 3):
            k, n = _K_OF_N[rnd % len(_K_OF_N)]
            sig = k_of_n_signature(k, n)
            if slot == 2:
                yield _system_request(
                    "product-k-of-n", command, sig, f"product:{n}",
                    _system_check(lambda p, k=k, n=n: binomial_reliability(k, n, p),
                                  S_SHAPED_FLAGS))
            else:
                yield _system_request("comonotone", command, sig, f"comonotone:{n}",
                                      _system_check(lambda p: p, IDENTITY_FLAGS))
        elif slot in (4, 5):
            parallel = rnd % 2 == 1
            sig = [2, -1] if parallel else [0, 1]
            t = float(_fmt(param))
            if slot == 4:
                copula = f"cuadras-auge:theta={_fmt(t)}"
                diag = lambda p, t=t: p ** (2.0 - t)
            else:
                copula = f"frechet:gamma={_fmt(t)}"
                diag = lambda p, t=t: t * p + (1.0 - t) * p * p
            form = (lambda p, d=diag: 2.0 * p - d(p)) if parallel else diag
            yield _system_request(
                copula.split(":")[0] + ("-parallel" if parallel else "-series"),
                command, sig, copula,
                _system_check(form, CONCAVE_FLAGS if parallel else CONVEX_FLAGS))
        elif slot in (6, 7):
            n = 3 + rnd % 2
            family = (rnd // 2) % 3
            pool = _signature_pool(n)
            sig = pool[(rnd // 6) % len(pool)]
            if family == 0:  # f = p: the product copula in generator form
                f_text, f0 = "p", 0.0
                form = _product_form(sig)
            else:
                if family == 1:
                    c = float(_fmt(0.2 + 0.8 * param))
                    f_text, f = f"p^{_fmt(c)}", (lambda p, c=c: p ** c)
                    f0 = 0.0
                else:
                    w = float(_fmt(param))
                    f_text = f"{_fmt(w)}*p + {_fmt(1 - w)}"
                    f = lambda p, w=w: w * p + (1.0 - w)
                    f0 = 1.0 - w
                form = (lambda p, f=f, sig=sig: math.fsum(
                    a * p * f(p) ** (j - 1) for j, a in enumerate(sig, start=1)))
            yield _system_request(
                ("durante-f=p", "durante-power-f", "durante-affine-f")[family],
                command, sig, f"durante: f={f_text}, n={n}",
                _system_check(form, None, _durante_check_extra(f0)))
        else:
            pool = [[0, 1], [2, -1]] if n == 2 else _signature_pool(n)
            sig = pool[(rnd // 4) % len(pool)]
            m = float(_fmt(1.2 + 0.8 * param))
            alpha, beta = _diag_params(sig)
            a, b = float(alpha), float(beta)
            form = lambda p, a=a, b=b, m=m: a * p + b * p ** m
            # d = p^m is starshaped, so h_T = alpha p + beta d is starshaped
            # for beta > 0 and antistarshaped for beta < 0
            if beta == 0:
                flags = {"starshaped": True, "antistarshaped": True}
            else:
                flags = {"starshaped": beta > 0, "antistarshaped": beta < 0}
            yield _system_request("diagonal", command, sig,
                                  f"diagonal: d=p^{_fmt(m)}, n={n}",
                                  _system_check(form, flags))
        i += 1


# ---------------------------------------------------------------------------
# running one CLI request


def run_request(cli_main: Callable, req: Request, out_dir: str, lat) -> Optional[str]:
    """Call the CLI in-process, timed by ``lat`` (start/stop); return None
    when the outputs agree with the oracle, else the reason."""
    json_path = os.path.join(out_dir, "out.json")
    csv_path = os.path.join(out_dir, "out.csv")
    argv = list(req.argv) + ["--out-json", json_path]
    if req.csv_out:
        argv += ["--out-csv", csv_path]
    lat.start()
    try:
        rc = cli_main(argv)
    except Exception as ex:  # a raised error is a failed operation, not a crash
        lat.stop()
        return f"raised {type(ex).__name__}: {ex}"
    lat.stop()
    try:
        with open(json_path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
        table = None
        if req.csv_out and req.argv[0] == "system":
            with open(csv_path, "r", encoding="utf-8", newline="") as fp:
                rows = [r for r in csv.reader(fp) if r and not r[0].startswith("#")]
            table = [(float(p), float(v)) for p, v in rows[1:]]
    except (OSError, ValueError, KeyError) as ex:
        return f"unreadable output ({rc=}): {ex}"
    try:
        return req.check(rc, doc, table)
    except (KeyError, TypeError, ValueError) as ex:
        return f"malformed output: {type(ex).__name__}: {ex}"
    finally:
        for path in (json_path,) + ((csv_path,) if req.csv_out else ()):
            if os.path.exists(path):
                os.remove(path)


def describe_inputs(workload: str, seed: int) -> dict:
    """Every input setting of a workload, for the result record."""
    if workload == "sweep":
        return {"seed": seed,
                "sweep_seeds": f"{SWEEP_BASE_SEED} + batch index (pinned)",
                "trials_per_suite": SWEEP_TRIALS, "suites": list(SWEEP_SUITES),
                "grid_count": SWEEP_GRID_COUNT, "edge_margin": SWEEP_EDGE_MARGIN,
                "abs_tol": SWEEP_TOL, "rel_tol": SWEEP_TOL,
                "operation": "one sweep trial"}
    common = {"seed": seed, "operation": "one CLI request, in-process"}
    if workload == "systems":
        return dict(common, table_points=SYSTEM_TABLE_COUNT, table_tol=TABLE_TOL,
                    mix=f"cycle of {_SYSTEMS_CYCLE}: system product series, "
                        "classify product parallel, system product k-of-n, "
                        "system comonotone k-of-n, system cuadras-auge, "
                        "classify frechet, system durante, classify durante, "
                        "system diagonal, classify diagonal")
    grid = {"grid_count": GRID_COUNT, "edge_margin": GRID_MARGIN,
            "check_tol": CHECK_TOL}
    if workload == "check_closed":
        return dict(common, **grid,
                    mix="exp rate pairs with all six orders; distortion cycles "
                        "none/power:k/dualpower:k, every 4th pair reversed")
    return dict(common, **grid,
                mix=f"cycle of {len(_EXPR_SLOTS)} (family, orders): "
                    + "; ".join(f"{fam} {'+'.join(o) if len(o) < 6 else 'all six'}"
                                for fam, o in _EXPR_SLOTS))


REQUEST_STREAMS = {"check_closed": check_closed, "check_expr": check_expr,
                   "systems": systems}
WORKLOADS = ("check_closed", "check_expr", "sweep", "systems")
