"""Tracing for the traced run, installed from outside the library.

Each public function of a layer is patched at the name its callers use, and
the callables it receives or returns (integrands, bisection targets,
compiled expressions, quantile functions) are wrapped too.  Every boundary
keeps a call count, busy time and self time (busy time minus the busy time
of the boundaries it called).  Coarse boundaries, one or a few per request,
also keep spans in memory; per-point boundaries keep only the accumulators,
so memory stays bounded however many points a request evaluates.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List

# (module, attribute, boundary) for the coarse boundaries that keep spans
_SPAN_PATCHES = (
    ("cli", "main", "cli.request"),
    ("orders", "transform_curves", "orders.transform_curves"),
    ("distortions", "validate", "distortions.validate"),
    ("distortions", "classify", "distortions.classify"),
    ("copulas", "validate_generator", "copulas.validate"),
    ("copulas", "validate_diagonal", "copulas.validate"),
    ("systems", "system_distortion", "systems.build"),
    ("systems", "durante_system_distortion", "systems.build"),
    ("systems", "diag_system_distortion", "systems.build"),
    ("systems", "parallel_distortion", "systems.build"),
    ("systems", "series_distortion", "systems.build"),
    ("systems", "classify_3component", "systems.classify"),
    ("systems", "classify_4component", "systems.classify"),
    ("systems", "classify_diag", "systems.classify"),
    ("systems", "durante_shape_condition", "systems.classify"),
)

# per-point boundaries: accumulators only
_POINT_PATCHES = (
    ("orders", "edge_ladder_integral", "numerics.edge_ladder"),
    ("distributions", "edge_ladder_integral", "numerics.edge_ladder"),
    ("orders", "derivative", "numerics.derivative"),
    ("distributions", "derivative", "numerics.derivative"),
    ("copulas", "cop_eval", "copulas.eval"),
    ("distortions", "co_inverse", "distortions.co_inverse"),
)

_ORDERS = ("ttt", "ew", "dmrl", "qmit", "convex_transform", "star")
_RATIO_ORDERS = ("dmrl", "qmit", "convex_transform", "star")
_SUITES = ("ttt_starshaped", "ew_antistarshaped", "dmrl_antistarshaped",
           "qmit_dual_antistarshaped", "convex_star_invariance")
_QUANTILE_KINDS = ("exponential", "quantile_expr", "hazard", "distorted")
_LABEL_KINDS = (("exp:", "exponential"), ("q:", "quantile_expr"),
                ("hazard:", "hazard"))


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.failures: Dict[str, int] = defaultdict(int)
        # frames: [boundary, child busy time, span index or -1]
        self.stack: List[list] = [["root", 0.0, -1]]
        self.spans: List[tuple] = []
        self.request = -1
        self.verdicts: Dict[str, int] = defaultdict(int)
        self.verdict_busy: Dict[str, float] = defaultdict(float)
        self.coverage_min = 1.0
        self.co_inverse_bisects = 0
        self.suite_s: Dict[str, float] = defaultdict(float)
        self.cache_hits = 0
        self.cache_lookups = 0
        self._open_caches: list = []
        self.catalog_build_s = 0.0

    # -- accounting ---------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs, span: bool = False):
        clock = self.clock
        parent = self.stack[-1]
        sid = -1
        if span:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, sid]
        self.stack.append(frame)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures[name] += 1
            raise
        finally:
            t1 = clock()
            dt = t1 - t0
            self.stack.pop()
            parent[1] += dt
            self.calls[name] += 1
            self.busy[name] += dt
            self.self_s[name] += dt - frame[1]
            if span:
                parent_sid = next((f[2] for f in reversed(self.stack) if f[2] >= 0), -1)
                self.spans[sid] = (name, t0, t1, parent_sid, self.request)

    def wrap(self, name: str, fn: Callable, span: bool = False) -> Callable:
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, span)

        wrapped.__wrapped__ = fn
        return wrapped

    def begin_request(self, index: int) -> None:
        self.request = index

    def end_request(self) -> None:
        """Harvest the memo caches of the distorted quantiles built during
        the request, then drop them so they can be freed."""
        for cache in self._open_caches:
            info = cache.cache_info()
            self.cache_hits += info.hits
            self.cache_lookups += info.hits + info.misses
        self._open_caches.clear()

    # -- installation -------------------------------------------------------

    def install(self, mods: Dict[str, object]) -> None:
        """Patch the layers; ``mods`` maps short names to library modules."""
        for mod, attr, name in _SPAN_PATCHES:
            self._patch(mods[mod], attr, name, span=True)
        for mod, attr, name in _POINT_PATCHES:
            self._patch(mods[mod], attr, name)
        for mod in ("numerics", "orders"):
            self._patch_integrate(mods[mod])
        for mod in ("distributions", "distortions"):
            self._patch_bisect(mods[mod])
        self._patch_compile(mods["funcalc"])
        self._patch_distributions(mods["distributions"])
        for mod in ("orders", "sweeps"):
            self._patch_check_order(mods[mod])
        self._patch_run_suite(mods["sweeps"])

    def _patch(self, module, attr: str, name: str, span: bool = False) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), span))

    def _patch_integrate(self, module) -> None:
        original = module.integrate
        tracer = self

        @functools.wraps(original)
        def integrate(fn, *args, **kwargs):
            counted = tracer.wrap("numerics.integrand", fn)
            return tracer.call("numerics.integrate", original,
                               (counted,) + args, kwargs)

        module.integrate = integrate

    def _patch_bisect(self, module) -> None:
        original = module.monotone_inverse
        tracer = self

        @functools.wraps(original)
        def monotone_inverse(fn, *args, **kwargs):
            if tracer.stack[-1][0] == "distortions.co_inverse":
                tracer.co_inverse_bisects += 1
            counted = tracer.wrap("numerics.bisect.step", fn)
            return tracer.call("numerics.bisect", original,
                               (counted,) + args, kwargs)

        module.monotone_inverse = monotone_inverse

    def _patch_compile(self, funcalc) -> None:
        original = funcalc.compile_fn
        tracer = self

        @functools.wraps(original)
        def compile_fn(node):
            return tracer.wrap("funcalc.eval", original(node))

        funcalc.compile_fn = compile_fn

    def _patch_distributions(self, distributions) -> None:
        build = distributions.build
        distort = distributions.distort
        tracer = self

        def tag(dist, kind):
            dist.quantile = tracer.wrap(f"distributions.quantile.{kind}", dist.quantile)
            return dist

        @functools.wraps(build)
        def traced_build(spec):
            dist = tracer.call("distributions.build", build, (spec,), {}, span=True)
            for prefix, kind in _LABEL_KINDS:
                if dist.label.startswith(prefix):
                    return tag(dist, kind)
            return dist  # distorted: tagged by distort below

        @functools.wraps(distort)
        def traced_distort(base, h):
            dist = distort(base, h)
            tracer._open_caches.append(dist.quantile)
            return tag(dist, "distorted")

        distributions.build = traced_build
        distributions.distort = traced_distort

    def _patch_check_order(self, module) -> None:
        original = module.check_order
        tracer = self

        @functools.wraps(original)
        def check_order(*args, **kwargs):
            t0 = tracer.clock()
            verdict = tracer.call("orders.check_order", original, args, kwargs,
                                  span=True)
            kind = verdict.kind.value
            tracer.verdicts[kind] += 1
            tracer.verdict_busy[kind] += tracer.clock() - t0
            if kind in _RATIO_ORDERS:
                kept = len(verdict.curve["p"]) / verdict.grid.count
                tracer.coverage_min = min(tracer.coverage_min, kept)
            return verdict

        module.check_order = check_order

    def _patch_run_suite(self, sweeps) -> None:
        original = sweeps.run_suite
        tracer = self

        @functools.wraps(original)
        def run_suite(name, *args, **kwargs):
            t0 = tracer.clock()
            try:
                return tracer.call("sweeps.run_suite", original, (name,) + args,
                                   kwargs, span=True)
            finally:
                tracer.suite_s[name] += tracer.clock() - t0

        sweeps.run_suite = run_suite

    # -- report -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        c, busy, own = self.calls, self.busy, self.self_s

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        out: Dict[str, float] = {
            "funcalc.evals": c["funcalc.eval"],
            "funcalc.self_s": own["funcalc.eval"],
            "funcalc.us_per_eval": per(own["funcalc.eval"], c["funcalc.eval"], 1e6),
            "numerics.integrate.calls": c["numerics.integrate"],
            "numerics.integrate.evals": c["numerics.integrand"],
            "numerics.integrate.evals_per_call": per(c["numerics.integrand"],
                                                     c["numerics.integrate"]),
            "numerics.integrate.self_s": own["numerics.integrate"],
            "numerics.integrate.failures": self.failures["numerics.integrate"],
            "numerics.edge_ladder.calls": c["numerics.edge_ladder"],
            "numerics.edge_ladder.self_s": own["numerics.edge_ladder"],
            "numerics.bisect.calls": c["numerics.bisect"],
            "numerics.bisect.evals": c["numerics.bisect.step"],
            "numerics.bisect.evals_per_call": per(c["numerics.bisect.step"],
                                                  c["numerics.bisect"]),
            "numerics.bisect.self_s": own["numerics.bisect"],
            "numerics.derivative.calls": c["numerics.derivative"],
            "numerics.derivative.self_s": own["numerics.derivative"],
            "distributions.build.calls": c["distributions.build"],
            "distributions.build.self_s": own["distributions.build"],
        }
        for kind in _QUANTILE_KINDS:
            name = f"distributions.quantile.{kind}"
            out[f"distributions.quantile.evals.{kind}"] = c[name]
            out[f"distributions.quantile.us_per_eval.{kind}"] = per(busy[name], c[name], 1e6)
        out["distributions.distort.lookups"] = self.cache_lookups
        out["distributions.distort.cache_hit_ratio"] = per(self.cache_hits,
                                                           self.cache_lookups)
        out.update({
            "distortions.co_inverse.calls": c["distortions.co_inverse"],
            "distortions.co_inverse.bisect_share": per(self.co_inverse_bisects,
                                                       c["distortions.co_inverse"]),
            "distortions.validate.calls": c["distortions.validate"],
            "distortions.validate.self_s": own["distortions.validate"],
            "distortions.classify.calls": c["distortions.classify"],
            "distortions.classify.self_s": own["distortions.classify"],
            "orders.check_order.calls": c["orders.check_order"],
            "orders.check_order.self_s": own["orders.check_order"],
        })
        for kind in _ORDERS:
            out[f"orders.check_order.ms_per_verdict.{kind}"] = per(
                self.verdict_busy[kind], self.verdicts[kind], 1e3)
        curve_verdicts = sum(self.verdicts[k] for k in ("ttt", "ew", "dmrl", "qmit"))
        out.update({
            "orders.transform_curves.calls": c["orders.transform_curves"],
            "orders.transform_curves.self_s": own["orders.transform_curves"],
            "orders.transform_curves.per_verdict": per(c["orders.transform_curves"],
                                                       curve_verdicts),
            "orders.coverage_min": self.coverage_min,
            "copulas.validate.calls": c["copulas.validate"],
            "copulas.validate.self_s": own["copulas.validate"],
            "copulas.eval.calls": c["copulas.eval"],
            "copulas.eval.self_s": own["copulas.eval"],
            "systems.build.calls": c["systems.build"],
            "systems.build.self_s": own["systems.build"],
            "systems.classify.self_s": own["systems.classify"],
        })
        for suite in _SUITES:
            out[f"sweeps.suite_s.{suite}"] = self.suite_s[suite]
        out["catalog.build_s"] = self.catalog_build_s
        out["cli.request.self_s"] = own["cli.request"]
        return out

    def write_spans(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fp:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent, request = span
                fp.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": request}) + "\n")
        return len(self.spans)
