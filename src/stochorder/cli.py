"""Command-line front end.

Subcommands:

* check-order -- verify one or more stochastic orders between two
  quantile-specified distributions, optionally after distorting both;
* classify    -- shape-classify a distortion, or a system distortion built
  from a minimal signature and an exchangeable copula, with preservation
  advice per order;
* distort     -- emit a distorted quantile table;
* system      -- emit a system distortion table plus its classification;
* reproduce   -- regenerate the reference curves for the worked examples
  and counterexamples as deterministic CSV/JSON;
* sweep       -- run the randomized preservation suites.

Exit codes: 0 success/orders hold; 1 at least one checked order is violated;
2 input or validation error; 3 a preservation sweep recorded a failure;
4 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from . import catalog
from . import copulas as cop_mod
from . import distortions as dist_mod
from . import distributions as distrib_mod
from . import funcalc
from . import orders as orders_mod
from . import systems as sys_mod
from . import sweeps as sweeps_mod
from .numerics import (DEFAULT_EDGE_MARGIN, DEFAULT_GRID_COUNT, Grid,
                       NumericsError, Tolerance, uniform_grid,
                       validation_points)
from .orders import OrderKind

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_SWEEP_FAIL = 3
EXIT_IO = 4

_INPUT_ERRORS = (ValueError, funcalc.ExprError, NumericsError)


def _write_csv(path: str, header: Sequence[str], rows, comment: Optional[str] = None) -> None:
    """One row per line, each value as repr-exact "%.17g" (the same bytes as
    format(float(v), ".17g")); the whole file is written in one call."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    head = f"# {comment}\n" if comment else ""
    text = head + ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(text)


def _write_json(path: Optional[str], doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except OSError as ex:
        raise ValueError(f"cannot read config {path!r}: {ex.strerror or ex}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    return doc


def _pick(args_value, config: dict, key: str, default=None):
    if args_value is not None:
        return args_value
    return config.get(key, default)


def _config_object(config: dict, key: str, fields: Sequence[str]) -> dict:
    """config[key] as an object whose keys are all among fields ({} if absent)."""
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"config {key!r} must be an object with keys "
                         f"{', '.join(fields)}; got {value!r}")
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise ValueError(f"config {key!r} has unknown key(s) {', '.join(unknown)}; "
                         f"expected {', '.join(fields)}")
    return value


def _config_orders(config: dict) -> List[str]:
    """config "orders", checked to be a list of order names ([] if absent)."""
    names = config.get("orders", [])
    valid = [k.value for k in OrderKind]
    if not isinstance(names, list) or not all(n in valid for n in names):
        raise ValueError(f"config 'orders' must be a list of order names from "
                         f"{', '.join(valid)}; got {names!r}")
    return names


def _grid_from(config: dict, count=None, lo=None, hi=None, margin=None) -> Grid:
    grid_cfg = _config_object(config, "grid", ("count", "lo", "hi", "edge_margin"))
    count = count if count is not None else grid_cfg.get("count", DEFAULT_GRID_COUNT)
    lo = lo if lo is not None else grid_cfg.get("lo", 0.0)
    hi = hi if hi is not None else grid_cfg.get("hi", 1.0)
    margin = margin if margin is not None else grid_cfg.get("edge_margin",
                                                            DEFAULT_EDGE_MARGIN)
    return uniform_grid(int(count), lo=float(lo), hi=float(hi),
                        edge_margin=float(margin))


def _verdict_record(scenario: str, verdict) -> dict:
    return {
        "scenario": scenario,
        "order": verdict.kind.value,
        "holds": verdict.holds,
        "witnesses": [{"p": p, "margin": m} for p, m in verdict.witnesses],
        "grid": verdict.grid.describe(),
        "tolerances": {"abs_tol": verdict.tolerance.abs_tol,
                       "rel_tol": verdict.tolerance.rel_tol},
        "notes": list(verdict.notes),
    }


def _csv_path_for_order(base: str, order: OrderKind, multiple: bool) -> str:
    if not multiple:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}_{order.value}{ext or '.csv'}"


def cmd_check_order(args) -> int:
    config = _load_config(args.config)
    x_spec = _pick(args.x, config, "x")
    y_spec = _pick(args.y, config, "y")
    if not x_spec or not y_spec:
        raise ValueError("check-order needs --x and --y distribution specs")
    config_orders = _config_orders(config)
    kinds = args.order or config_orders
    if not kinds:
        raise ValueError("check-order needs at least one --order")
    distortion_spec = _pick(args.distort, config, "distortion")
    scenario = _pick(args.scenario, config, "name", default="cli")
    grid = _grid_from(config, args.grid_count, args.grid_lo, args.grid_hi,
                      args.grid_margin)
    outputs = _config_object(config, "outputs", ("verdict_json", "curve_csv"))

    x = distrib_mod.build(distrib_mod.parse_spec(x_spec))
    y = distrib_mod.build(distrib_mod.parse_spec(y_spec))
    h = None
    if distortion_spec:
        h = dist_mod.parse_distortion_spec(distortion_spec)
        x = distrib_mod.distort(x, h)
        y = distrib_mod.distort(y, h)

    verdicts = orders_mod.check_orders(x, y, kinds, grid)

    doc = {
        "scenario": scenario,
        "x": x.label,
        "y": y.label,
        "distortion": h.label if h is not None else None,
        "holds": all(v.holds for v in verdicts),
        "results": [_verdict_record(scenario, v) for v in verdicts],
    }
    json_path = _pick(args.out_json, outputs, "verdict_json")
    csv_path = _pick(args.out_csv, outputs, "curve_csv")
    if json_path or not csv_path:
        _write_json(json_path, doc)
    if csv_path:
        multiple = len(verdicts) > 1
        columns = ("p", "value_x", "value_y", "functional")
        for v in verdicts:
            _write_csv(_csv_path_for_order(csv_path, v.kind, multiple), columns,
                       zip(*(v.curve[key] for key in columns)))
    return EXIT_OK if doc["holds"] else EXIT_VIOLATED


def _summary_verdict(flags: Dict[str, bool]) -> str:
    star = flags["starshaped"]
    anti = flags["antistarshaped"]
    if star and anti:
        return "identity-like"
    if star:
        return "starshaped"
    if anti:
        return "antistarshaped"
    if flags["dual_antistarshaped"]:
        return "dual-antistarshaped"
    return "unclassified"


def _advice_block(report) -> Dict[str, dict]:
    out = {}
    for kind in OrderKind:
        advice = sys_mod.preservation_advice(kind, report)
        out[kind.value] = {"verdict": advice.verdict, "reason": advice.reason}
    return out


def _classification_doc(h: dist_mod.Distortion,
                        report: dist_mod.ShapeReport) -> dict:
    return {
        "label": h.label,
        "flags": report.flags(),
        "verdict": _summary_verdict(report.flags()),
        "advice": _advice_block(report),
    }


def _system_doc(built: sys_mod.SystemDistortion,
                handle: cop_mod.CopulaHandle) -> dict:
    report = dist_mod.classify(built.h)
    doc = _classification_doc(built.h, report)
    if built.closed_form:
        doc["closed_form"] = built.closed_form
    doc["signature"] = built.sig.label()
    doc["copula"] = handle.label
    doc.update(sys_mod.shape_theorems(built, handle, report))
    return doc


def _build_system(signature_text: str, copula_text: str):
    sig = sys_mod.parse_signature(signature_text)
    handle = cop_mod.parse_copula_spec(copula_text)
    return handle, sys_mod.system_distortion(sig, handle)


def cmd_classify(args) -> int:
    if args.h and args.signature:
        raise ValueError("give either --h or --signature/--copula, not both")
    if args.h:
        h = dist_mod.parse_distortion_spec(args.h)
        doc = _classification_doc(h, dist_mod.classify(h))
    elif args.signature:
        if not args.copula:
            raise ValueError("--signature needs --copula")
        handle, built = _build_system(args.signature, args.copula)
        doc = _system_doc(built, handle)
    else:
        raise ValueError("classify needs --h or --signature/--copula")
    _write_json(args.out_json, doc)
    return EXIT_OK


def cmd_distort(args) -> int:
    x = distrib_mod.build(distrib_mod.parse_spec(args.x))
    h = dist_mod.parse_distortion_spec(args.h)
    xh = distrib_mod.distort(x, h)
    grid = _grid_from({}, args.grid_count, args.grid_lo, args.grid_hi,
                      args.grid_margin)
    rows = [(p, xh.quantile(p)) for p in grid.points]
    _write_csv(args.out_csv, ("p", "value"), rows,
               comment=f"distorted quantile of {x.label} under h={h.label}")
    return EXIT_OK


def cmd_system(args) -> int:
    count = args.grid_count if args.grid_count is not None else 257
    if count < 2:
        raise ValueError(f"--grid-count must be at least 2, got {count}")
    handle, built = _build_system(args.signature, args.copula)
    doc = _system_doc(built, handle)
    rows = [(p, built.h.fn(p)) for p in validation_points(count)]
    if args.out_csv:
        _write_csv(args.out_csv, ("p", "value"), rows,
                   comment=f"system distortion h_T for a=({built.sig.label()}) "
                           f"with {handle.label}")
    _write_json(args.out_json, doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce targets


def _repro_ce02(out_dir: str) -> List[str]:
    """Density-ratio turning point, baseline dmrl gap, and the distorted gap
    that dips negative for small p (order not preserved by a convex h)."""
    dd = catalog.distributions()
    x, y = dd["ce02_x"], dd["ce02_y"]
    h = dist_mod.power(5.0)
    files = []

    grid = uniform_grid(512, edge_margin=0.01)
    s = orders_mod.density_ratios(x, y, grid.points)
    path = os.path.join(out_dir, "s_curve.csv")
    _write_csv(path, ("p", "value"), zip(grid.points, s),
               comment="density ratio s(p) for the baseline pair; "
                       "decreasing then increasing with turning point 1/8")
    files.append(path)

    gap = orders_mod.dmrl_integral_curve(x, y, grid)
    path = os.path.join(out_dir, "dmrl_gap.csv")
    _write_csv(path, ("p", "value"), zip(gap["p"], gap["value"]),
               comment="baseline dmrl gap I(p) (nonnegative: the order holds)")
    files.append(path)

    xh = distrib_mod.distort(x, h)
    yh = distrib_mod.distort(y, h)
    gap_h = orders_mod.dmrl_integral_curve(
        xh, yh, uniform_grid(199, lo=0.002, hi=0.2, edge_margin=0.0))
    path = os.path.join(out_dir, "dmrl_gap_distorted.csv")
    _write_csv(path, ("p", "value"), zip(gap_h["p"], gap_h["value"]),
               comment="dmrl gap I_h(p) after distorting both sides by p^5; "
                       "negative for small p, sign change near 0.0263")
    files.append(path)
    return files


def _repro_ce01(out_dir: str) -> List[str]:
    """Quantile-mit gap in x-space for the kinked-hazard pair distorted by
    1-(1-p)^5: negative inside [1.2539, 1.3050], positive elsewhere."""
    dd = catalog.distributions()
    x, y = dd["ce01_x"], dd["exp_1"]
    h = dist_mod.dualpower(5.0)
    xh = distrib_mod.distort(x, h)
    yh = distrib_mod.distort(y, h)
    rows = []
    for i in range(1, 201):
        t = i / 100.0
        rows.append((t, orders_mod.qmit_xspace_integral(xh, yh, t)))
    path = os.path.join(out_dir, "qmit_gap_xspace.csv")
    _write_csv(path, ("t", "value"), rows,
               comment="distorted quantile-mit gap in x-space; sign dips "
                       "negative near t=1.3")
    return [path]


def _repro_durante(sig_name: str, out_dir: str) -> List[str]:
    sig = catalog.signatures()[sig_name]
    handle = cop_mod.durante(catalog.DEFAULT_GENERATOR_TEXT, sig.n)
    gen = handle.generator
    built = sys_mod.system_distortion(sig, handle)
    files = []
    pts = validation_points(257)
    path = os.path.join(out_dir, "distortion.csv")
    _write_csv(path, ("p", "value"), [(p, built.h.fn(p)) for p in pts],
               comment=f"system distortion h_T, a=({sig.label()}), "
                       f"f(p)={gen.label}")
    files.append(path)
    cond = sys_mod.durante_condition_values(sig, gen, pts)
    path = os.path.join(out_dir, "shape_condition.csv")
    _write_csv(path, ("p", "value"), zip(pts, cond),
               comment="shape condition S(p); >= 0 everywhere means "
                       "starshaped, <= 0 antistarshaped")
    files.append(path)
    doc = _system_doc(built, handle)
    path = os.path.join(out_dir, "classification.json")
    _write_json(path, doc)
    files.append(path)
    return files


def _repro_diag(sig_name: str, diag_name: str, out_dir: str,
                extra_qmit: bool = False) -> List[str]:
    sig = catalog.signatures()[sig_name]
    handle = cop_mod.jaworski(*catalog.diagonals()[diag_name])
    d = handle.diagonal
    built = sys_mod.system_distortion(sig, handle)
    files = []
    pts = validation_points(257)
    path = os.path.join(out_dir, "distortion.csv")
    _write_csv(path, ("p", "value"), [(p, built.h.fn(p)) for p in pts],
               comment=f"system distortion h_T = {built.closed_form}, "
                       f"a=({sig.label()}), d(p)={d.label}")
    files.append(path)
    doc = _system_doc(built, handle)
    path = os.path.join(out_dir, "classification.json")
    _write_json(path, doc)
    files.append(path)
    if extra_qmit:
        dual = dist_mod.dual(built.h)
        ratio_pts = validation_points(513)[1:]
        path = os.path.join(out_dir, "dual_ratio.csv")
        _write_csv(path, ("p", "value"),
                   [(p, dual.fn(p) / p) for p in ratio_pts],
                   comment="dual distortion ratio h*(p)/p; decreasing means "
                           "the dual is antistarshaped")
        files.append(path)
        path = os.path.join(out_dir, "diagonal.csv")
        _write_csv(path, ("p", "value"), [(p, d.fn(p)) for p in pts],
                   comment=f"diagonal d(p)={d.label} against the identity")
        files.append(path)
    return files


REPRO_BUILDERS = {
    "ce02": _repro_ce02,
    "ce01": _repro_ce01,
    "ex_durante_1": lambda out: _repro_durante("two_parallel_pairs", out),
    "ex_durante_2": lambda out: _repro_durante("one_of_two_pairs", out),
    "ex_diag_5comp": lambda out: _repro_diag("five_comp_bridge", "cubic_bend_5", out),
    "ex_3of4": lambda out: _repro_diag("three_of_four", "mixed_bend_4", out),
    "ex_qmit": lambda out: _repro_diag("series_with_parallel_pair", "reflected_cubic_4",
                                       out, extra_qmit=True),
}
REPRO_TARGETS = tuple(REPRO_BUILDERS)


def cmd_reproduce(args) -> int:
    out_dir = args.out_dir or f"repro_{args.target}"
    os.makedirs(out_dir, exist_ok=True)
    for path in REPRO_BUILDERS[args.target](out_dir):
        print(path)
    return EXIT_OK


def cmd_sweep(args) -> int:
    raw = _load_config(args.config)
    default = sweeps_mod.SweepConfig()
    tol = Tolerance(abs_tol=float(raw.get("abs_tol", default.tolerance.abs_tol)),
                    rel_tol=float(raw.get("rel_tol", default.tolerance.rel_tol)))
    suites = tuple(raw.get("suites", default.suites))
    for name in suites:
        if name not in sweeps_mod.SUITE_NAMES:
            raise ValueError(f"unknown sweep suite {name!r}")
    config = sweeps_mod.SweepConfig(
        seed=int(raw.get("seed", default.seed)),
        trials=int(raw.get("trials", default.trials)),
        grid_count=int(raw.get("grid_count", default.grid_count)),
        edge_margin=float(raw.get("edge_margin", default.edge_margin)),
        tolerance=tol,
        suites=suites,
    )
    if config.trials < 0:
        raise ValueError("trials must be >= 0")
    summary = sweeps_mod.run_all(config)
    _write_json(args.out, summary.to_json())
    return EXIT_OK if summary.ok else EXIT_SWEEP_FAIL


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-count", type=int, default=None,
                        help="number of grid points (default 512)")
    parser.add_argument("--grid-lo", type=float, default=None)
    parser.add_argument("--grid-hi", type=float, default=None)
    parser.add_argument("--grid-margin", type=float, default=None,
                        help="edge margin keeping points off the ends")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochorder",
        description="Verify stochastic orders between quantile-defined "
                    "distributions and classify distortion functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-order", help="verify stochastic orders")
    p.add_argument("--order", action="append",
                   choices=[k.value for k in OrderKind],
                   help="order to check (repeatable)")
    p.add_argument("--x", help="distribution spec for the lower side")
    p.add_argument("--y", help="distribution spec for the upper side")
    p.add_argument("--distort", help="distortion spec applied to both sides")
    p.add_argument("--config", help="scenario JSON (flags override)")
    p.add_argument("--scenario", help="scenario name for reports")
    p.add_argument("--out-json", help="verdict JSON path (default stdout)")
    p.add_argument("--out-csv", help="curve CSV path (per order)")
    _add_grid_flags(p)
    p.set_defaults(fn=cmd_check_order)

    p = sub.add_parser("classify", help="shape-classify a distortion or system")
    p.add_argument("--h", help="distortion spec")
    p.add_argument("--signature", help="minimal signature, e.g. 2,0,-2,1")
    p.add_argument("--copula", help="copula spec, e.g. durante:f=p^0.5,n=4")
    p.add_argument("--out-json", help="report path (default stdout)")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("distort", help="emit a distorted quantile table")
    p.add_argument("--x", required=True, help="distribution spec")
    p.add_argument("--h", required=True, help="distortion spec")
    p.add_argument("--out-csv", required=True, help="CSV path")
    _add_grid_flags(p)
    p.set_defaults(fn=cmd_distort)

    p = sub.add_parser("system", help="emit a system distortion and classify it")
    p.add_argument("--signature", required=True)
    p.add_argument("--copula", required=True)
    p.add_argument("--out-csv", help="h_T table CSV path")
    p.add_argument("--out-json", help="classification path (default stdout)")
    p.add_argument("--grid-count", type=int, default=None,
                   help="points in the h_T table (default 257)")
    p.set_defaults(fn=cmd_system)

    p = sub.add_parser("reproduce", help="regenerate reference curves")
    p.add_argument("target", choices=REPRO_TARGETS)
    p.add_argument("--out-dir", help="output directory (default repro_<target>)")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("sweep", help="run randomized preservation suites")
    p.add_argument("--config", help="sweep config JSON")
    p.add_argument("--out", help="summary JSON path (default stdout)")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as ex:
        print(f"output error: {ex}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
