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
4 output I/O error; 5 numeric failure (quadrature, or a root solve's bracket);
6 internal error: any other exception, a fault of the program, never 1.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import catalog
from . import copulas as cop_mod
from . import distortions as dist_mod
from . import distributions as distrib_mod
from . import funcalc
from . import orders as orders_mod
from . import systems as sys_mod
from . import sweeps as sweeps_mod
from .numerics import (DEFAULT_EDGE_MARGIN, DEFAULT_GRID_COUNT, MAX_GRID_COUNT,
                       Grid, InputError, NumericsError, Tolerance,
                       uniform_grid, validation_points)
from .orders import OrderKind

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_SWEEP_FAIL = 3
EXIT_IO = 4
EXIT_NUMERIC = 5
EXIT_INTERNAL = 6

_INPUT_ERRORS = (InputError, funcalc.ExprError)

# float64 bytes of a column -> its values as "%.17g" lines
_ColumnTexts = Dict[bytes, Tuple[str, ...]]


def _column_text(values, texts: _ColumnTexts) -> Tuple[str, ...]:
    """values as "%.17g" lines (the same bytes as format(float(v), ".17g")),
    formatted by one call the first time texts sees their float64 bytes;
    the bytes tell 0.0 from -0.0, so the two never share text."""
    arr = np.asarray(values, dtype=float)
    key = arr.tobytes()
    lines = texts.get(key)
    if lines is None:
        lines = texts[key] = tuple(("%.17g\n" * arr.size % tuple(arr.tolist())).splitlines())
    return lines


@functools.lru_cache(maxsize=4)
def _grid_text(grid: Grid) -> _ColumnTexts:
    """The grid's own points as "%.17g" lines, keyed as _column_text keys them:
    the p column of every verdict that excluded no point."""
    texts: _ColumnTexts = {}
    _column_text(grid.points, texts)
    return texts


def _write_csv(path: str, header: Sequence[str], columns: Sequence,
               comment: Optional[str] = None,
               texts: Optional[_ColumnTexts] = None) -> None:
    """One line per row of the equal-length columns, each value as "%.17g".

    Columns are formatted through texts, so a caller writing several files
    formats a column they share once; the file is assembled by one template
    call and written in one call.
    """
    texts = {} if texts is None else texts
    lines = [_column_text(col, texts) for col in columns]
    width, rows = len(lines), len(lines[0])
    cells = [""] * (width * rows)
    for j, col in enumerate(lines):
        cells[j::width] = col
    row = ",".join(["%s"] * width) + "\n"
    head = f"# {comment}\n" if comment else ""
    text = head + ",".join(header) + "\n" + row * rows % tuple(cells)
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(text)


def _json_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def _nested(text: str) -> str:
    """JSON text one level deeper: no string in JSON text holds a raw
    newline, so every newline starts a line."""
    return text.replace("\n", "\n  ")


def _object_text(texts: Dict[str, str]) -> str:
    """The object _json_text lays out, from each key's value text."""
    return "{\n" + ",\n".join(f"  {json.dumps(key)}: {_nested(text)}"
                              for key, text in sorted(texts.items())) + "\n}"


_WITNESS_TEXT = '  {\n    "margin": %r,\n    "p": %r\n  },\n'


def _witnesses_text(witnesses: List[dict]) -> str:
    """_json_text(witnesses) for a non-empty list of {"p", "margin"} dicts:
    one template call where every value is a finite float, whose repr is
    what json writes."""
    values = list(itertools.chain.from_iterable(
        map(operator.itemgetter("margin", "p"), witnesses)))
    if set(map(type, values)) != {float} or not np.isfinite(values).all():
        return _json_text(witnesses)
    return "[\n" + (_WITNESS_TEXT * len(witnesses))[:-2] % tuple(values) + "\n]"


def _verdicts_text(doc: dict) -> str:
    """_json_text(doc) and a newline for a check-order doc, byte for byte.

    With an indent the json module encodes in Python, one node at a time;
    the witness lists are the bulk of a violated verdict, so the objects
    holding them are laid out key by key here, each witness list by
    _witnesses_text, and everything else by json itself.
    """
    def record_text(record: dict) -> str:
        if not record["witnesses"]:
            return _json_text(record)
        texts = {key: _json_text(value) for key, value in record.items()
                 if key != "witnesses"}
        texts["witnesses"] = _witnesses_text(record["witnesses"])
        return _object_text(texts)

    if not any(record["witnesses"] for record in doc["results"]):
        return _json_text(doc) + "\n"
    texts = {key: _json_text(value) for key, value in doc.items() if key != "results"}
    texts["results"] = "[\n" + ",\n".join("  " + _nested(record_text(record))
                                          for record in doc["results"]) + "\n]"
    return _object_text(texts) + "\n"


def _write_text(path: Optional[str], text: str) -> None:
    """text to path, or to stdout without one (or with "-")."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)


def _write_json(path: Optional[str], doc: dict) -> None:
    _write_text(path, _json_text(doc) + "\n")


# every key a check-order config may hold, with its default, and the names
# each list-valued config key may hold (see _read_config)
_CHECK_ORDER_DEFAULTS = {
    "x": None, "y": None, "orders": [], "distortion": None, "name": "cli",
    "grid": {"count": DEFAULT_GRID_COUNT, "lo": 0.0, "hi": 1.0,
             "edge_margin": DEFAULT_EDGE_MARGIN},
    "outputs": {"verdict_json": None, "curve_csv": None}}
_CONFIG_NAMES = {"orders": tuple(k.value for k in OrderKind),
                 "suites": sweeps_mod.SUITE_NAMES}


def _once(names: List[str], source: str) -> None:
    """Refuse names that name one thing twice; source is where they came from."""
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        raise InputError(f"{source} names {repeated[0]!r} more than once")


def _read_config(doc: dict, defaults: dict, where: str, prefix: str = "") -> dict:
    """doc read against defaults: each key must have a default, reads as it
    when absent and must have its type; the first fault in key order is
    refused, naming the key by its dotted path.  An object takes an object
    read the same way, a list a list of _CONFIG_NAMES[key] with none twice,
    a string or None a string or null (read as the default), an int an
    integer and a float a number a float can hold (returned as a float); a
    bool is neither."""
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise InputError(f"config {where!r} has unknown key(s) {', '.join(unknown)}; "
                         f"expected {', '.join(defaults)}")
    values = {}
    for key, default in defaults.items():
        name = prefix + key
        value = doc.get(key, default)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise InputError(f"config {name!r} must be an object with keys "
                                 f"{', '.join(default)}; got {value!r}")
            value = _read_config(value, default, name, name + ".")
        elif isinstance(default, list):
            valid = _CONFIG_NAMES[key]
            if not isinstance(value, list) or not all(n in valid for n in value):
                raise InputError(f"config {name!r} must be a list of names from "
                                 f"{', '.join(valid)}; got {value!r}")
            _once(value, f"config {name!r}")
        elif default is None or isinstance(default, str):
            if value is None:
                value = default
            elif not isinstance(value, str):
                raise InputError(f"config {name!r} must be a string; got {value!r}")
        else:
            kind = type(default)
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                what = "an integer" if kind is int else "a number"
                raise InputError(f"config {name!r} must be {what}; got {value!r}")
            try:
                value = kind(value)
            except OverflowError:
                raise InputError(f"config {name!r} must be a number; got an "
                                 "integer too large for a float") from None
        values[key] = value
    return values


def _load_config(path: Optional[str], defaults: dict) -> dict:
    """The JSON object in path (none without a path) read against defaults."""
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fp:
                doc = json.load(fp)
        except OSError as ex:
            raise InputError(f"cannot read config {path!r}: {ex.strerror or ex}") from None
        except ValueError as ex:  # malformed JSON or text that is not UTF-8
            raise InputError(f"config {path!r} is not UTF-8 JSON: {ex}") from None
        if not isinstance(doc, dict):
            raise InputError(f"config {path!r} must hold a JSON object")
    return _read_config(doc, defaults, path)


def _with_flags(values: dict, flags: dict) -> dict:
    """values with each given flag in place of its key's (checked) value."""
    return {**values, **{key: flag for key, flag in flags.items() if flag is not None}}


def _grid_from(grid: dict, args) -> Grid:
    return uniform_grid(**_with_flags(grid, {
        "count": args.grid_count, "lo": args.grid_lo, "hi": args.grid_hi,
        "edge_margin": args.grid_margin}))


def _csv_out(path: Optional[str], source: str = "--out-csv") -> Optional[str]:
    """path, refused when it is "-" (CSV goes to files only), naming source."""
    if path == "-":
        raise InputError(f"{source} needs a file path; '-' (stdout) is "
                         "only for --out-json")
    return path


def _csv_path_for_order(base: str, order: OrderKind, multiple: bool) -> str:
    if not multiple:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}_{order.value}{ext or '.csv'}"


def cmd_check_order(args) -> int:
    config = _with_flags(_load_config(args.config, _CHECK_ORDER_DEFAULTS), {
        "x": args.x, "y": args.y, "distortion": args.distort, "name": args.scenario})
    if not config["x"] or not config["y"]:
        raise InputError("check-order needs --x and --y distribution specs")
    _once(args.order or [], "--order")
    kinds = args.order or config["orders"]
    if not kinds:
        raise InputError("check-order needs at least one --order")
    grid = _grid_from(config["grid"], args)
    outputs = _with_flags(config["outputs"], {"verdict_json": args.out_json,
                                              "curve_csv": args.out_csv})
    json_path = outputs["verdict_json"]
    csv_path = _csv_out(outputs["curve_csv"], "--out-csv" if args.out_csv is not None
                        else "config 'outputs.curve_csv'")
    scenario = config["name"]

    x = distrib_mod.build(config["x"])
    y = distrib_mod.build(config["y"])
    h = None
    if config["distortion"]:
        h = dist_mod.parse_distortion_spec(config["distortion"])
        x = distrib_mod.distort(x, h)
        y = distrib_mod.distort(y, h)

    verdicts = orders_mod.check_orders(x, y, kinds, grid)

    doc = {
        "scenario": scenario,
        "x": x.label,
        "y": y.label,
        "distortion": h.label if h is not None else None,
        "holds": all(v.holds for v in verdicts),
        "results": [{"scenario": scenario, **v.to_json()} for v in verdicts],
    }
    if json_path or not csv_path:
        _write_text(json_path, _verdicts_text(doc))
    if csv_path:
        multiple = len(verdicts) > 1
        header = ("p", "value_x", "value_y", "functional")
        # the files share columns: p, and dmrl's values are ew's
        texts = dict(_grid_text(grid))
        for v in verdicts:
            _write_csv(_csv_path_for_order(csv_path, v.kind, multiple), header,
                       [v.curve[key] for key in header], texts=texts)
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


def _write_system(csv_path: Optional[str], json_path: Optional[str],
                  built: sys_mod.SystemDistortion, handle: cop_mod.CopulaHandle,
                  count: int = 257) -> None:
    """What `stochorder system` writes: the h_T table at validation_points(count)
    to csv_path (none without one), then the classification document to
    json_path (stdout without one), built before either file is opened."""
    doc = _system_doc(built, handle)
    if csv_path:
        _write_csv(csv_path, ("p", "value"),
                   (validation_points(count), dist_mod.values_at(built.h, count)),
                   comment=f"system distortion h_T for a=({built.sig.label()}) "
                           f"with {handle.label}")
    _write_json(json_path, doc)


def cmd_classify(args) -> int:
    if args.h and (args.signature or args.copula):
        raise InputError("give either --h or --signature/--copula, not both")
    if args.h:
        h = dist_mod.parse_distortion_spec(args.h)
        _write_json(args.out_json, _classification_doc(h, dist_mod.classify(h)))
    elif args.signature:
        if not args.copula:
            raise InputError("--signature needs --copula")
        handle, built = sys_mod.build_system(args.signature, args.copula)
        _write_system(None, args.out_json, built, handle)
    else:
        raise InputError("classify needs --h or --signature/--copula")
    return EXIT_OK


def cmd_distort(args) -> int:
    _csv_out(args.out_csv)
    x = distrib_mod.build(args.x)
    h = dist_mod.parse_distortion_spec(args.h)
    xh = distrib_mod.distort(x, h)
    grid = _grid_from(_CHECK_ORDER_DEFAULTS["grid"], args)
    _write_csv(args.out_csv, ("p", "value"), (grid.points, xh.quantile(grid.points)),
               comment=f"distorted quantile of {x.label} under h={h.label}")
    return EXIT_OK


def cmd_system(args) -> int:
    if args.grid_count < 2:
        raise InputError(f"--grid-count must be at least 2, got {args.grid_count}")
    if args.grid_count > MAX_GRID_COUNT:
        raise InputError(f"--grid-count must be at most {MAX_GRID_COUNT}, got {args.grid_count}")
    _csv_out(args.out_csv)
    handle, built = sys_mod.build_system(args.signature, args.copula)
    _write_system(args.out_csv, args.out_json, built, handle, args.grid_count)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce targets


def _ce02_curves(x: distrib_mod.Distribution, y: distrib_mod.Distribution,
                 grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """The density ratio s = f_X/f_Y at matched quantiles and the dmrl gap
    ew_Y - s*ew_X on grid, read from the convex_transform and dmrl verdicts'
    curves; a point either verdict excludes is refused, not left out."""
    dmrl, convex = orders_mod.check_orders(
        x, y, (OrderKind.DMRL, OrderKind.CONVEX_TRANSFORM), grid)
    for verdict in (convex, dmrl):
        if verdict.curve["p"].size < grid.points.size:
            raise ValueError(f"{verdict.kind.value}: {verdict.notes[0]}")
    s = convex.curve["functional"]
    return s, dmrl.curve["value_y"] - s * dmrl.curve["value_x"]


def _repro_table(out_dir: str, file: str, x, value, comment: str,
                 x_name: str = "p") -> str:
    """Write the (x_name, value) table out_dir/file and return its path."""
    path = os.path.join(out_dir, file)
    _write_csv(path, (x_name, "value"), (x, value), comment=comment)
    return path


def _repro_ce02(out_dir: str) -> List[str]:
    """Density-ratio turning point, baseline dmrl gap, and the distorted gap
    that dips negative for small p (order not preserved by a convex h)."""
    dd = catalog.distributions()
    x, y = dd["ce02_x"], dd["ce02_y"]
    h = dist_mod.power(5.0)

    grid = uniform_grid(512, edge_margin=0.01)
    s, gap = _ce02_curves(x, y, grid)
    files = [
        _repro_table(out_dir, "s_curve.csv", grid.points, s,
                     "density ratio s(p) for the baseline pair; "
                     "decreasing then increasing with turning point 1/8"),
        _repro_table(out_dir, "dmrl_gap.csv", grid.points, gap,
                     "baseline dmrl gap I(p) (nonnegative: the order holds)"),
    ]

    grid_h = uniform_grid(199, lo=0.002, hi=0.2, edge_margin=0.0)
    _, gap_h = _ce02_curves(distrib_mod.distort(x, h), distrib_mod.distort(y, h), grid_h)
    files.append(_repro_table(out_dir, "dmrl_gap_distorted.csv", grid_h.points, gap_h,
                              "dmrl gap I_h(p) after distorting both sides by p^5; "
                              "negative for small p, sign change near 0.0263"))
    return files


def _repro_ce01(out_dir: str) -> List[str]:
    """Quantile-mit gap in x-space for the kinked-hazard pair distorted by
    1-(1-p)^5: negative inside [1.2539, 1.3050], positive elsewhere."""
    dd = catalog.distributions()
    x, y = dd["ce01_x"], dd["exp_1"]
    h = dist_mod.dualpower(5.0)
    xh = distrib_mod.distort(x, h)
    yh = distrib_mod.distort(y, h)
    ts = [i / 100.0 for i in range(1, 201)]
    gap = [orders_mod.qmit_xspace_integral(xh, yh, t) for t in ts]
    return [_repro_table(out_dir, "qmit_gap_xspace.csv", ts, gap,
                         "distorted quantile-mit gap in x-space; sign dips "
                         "negative near t=1.3", x_name="t")]


def _repro_system(name: str, out_dir: str) -> List[str]:
    """The `system` command's files for catalog.SYSTEMS[name], plus the
    shape condition S(p) of a generator-form copula, and for the quantile-mit
    example the dual's ratio h*(p)/p and the diagonal itself."""
    handle, built = sys_mod.build_system(*catalog.SYSTEMS[name])
    files = [os.path.join(out_dir, "distortion.csv"),
             os.path.join(out_dir, "classification.json")]
    _write_system(*files, built, handle)
    pts = validation_points(257)
    if handle.kind == "durante":
        files.insert(1, _repro_table(
            out_dir, "shape_condition.csv", pts,
            sys_mod.durante_condition_values(built.sig, handle.generator, pts),
            "shape condition S(p); >= 0 everywhere means starshaped, <= 0 antistarshaped"))
    if name == "series_with_parallel_pair":
        ratio_pts, d = np.array(validation_points(513)[1:]), handle.diagonal
        files += [_repro_table(out_dir, "dual_ratio.csv", ratio_pts,
                               dist_mod.dual(built.h).fn(ratio_pts) / ratio_pts,
                               "dual distortion ratio h*(p)/p; decreasing means the dual "
                               "is antistarshaped"),
                  _repro_table(out_dir, "diagonal.csv", pts, d.fn(np.array(pts)),
                               f"diagonal d(p)={d.label} against the identity")]
    return files


REPRO_BUILDERS = {
    "ce02": _repro_ce02,
    "ce01": _repro_ce01,
    "ex_durante_1": functools.partial(_repro_system, "two_parallel_pairs"),
    "ex_durante_2": functools.partial(_repro_system, "one_of_two_pairs"),
    "ex_diag_5comp": functools.partial(_repro_system, "five_comp_bridge"),
    "ex_3of4": functools.partial(_repro_system, "three_of_four"),
    "ex_qmit": functools.partial(_repro_system, "series_with_parallel_pair"),
}
REPRO_TARGETS = tuple(REPRO_BUILDERS)


def cmd_reproduce(args) -> int:
    out_dir = args.out_dir or f"repro_{args.target}"
    os.makedirs(out_dir, exist_ok=True)
    for path in REPRO_BUILDERS[args.target](out_dir):
        print(path)
    return EXIT_OK


def cmd_sweep(args) -> int:
    # the keys, and the type of each, are those of the default config's JSON
    doc = _load_config(args.config, sweeps_mod.SweepConfig().to_json())
    tol = Tolerance(abs_tol=doc.pop("abs_tol"), rel_tol=doc.pop("rel_tol"))
    summary = sweeps_mod.run_all(sweeps_mod.SweepConfig(tolerance=tol, **doc))
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
    p.add_argument("--out-json",
                   help="verdict JSON path, '-' for stdout (default stdout, "
                        "but no JSON at all when only --out-csv is given)")
    p.add_argument("--out-csv",
                   help="curve CSV path; with several orders, <stem>_<order><ext> "
                        "per order")
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
    p.add_argument("--grid-count", type=int, default=257,
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


# built on the first main call and reused: each parse_args starts a fresh
# namespace, so one call's flags never reach the next
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericsError as ex:
        print(f"numeric failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as ex:
        print(f"output error: {ex}", file=sys.stderr)
        return EXIT_IO
    except Exception as ex:
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
