"""stochorder benchmark: four workloads, end-to-end metrics, traced per-layer
metrics.

    python3 bench/run.py --workload check_closed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Load is one client in a closed loop: one process, one thread, the next
request sent only after the previous one returned.  Each workload run starts
fresh interpreters (set-up only, before and after one that also runs the
measured phase), so import cost and catalog construction are measured apart
from the requests.  Latencies are also reported at reference speed, scaled
by a speed probe timed between operations.  The library is imported from
``src/`` of the checkout this file sits in.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402  (stdlib only; loaded before the timed set-up)

SETUP_REPEATS = 3        # set-up-only interpreters before and after the measured one
MIN_OPS = 100            # so that at least ten samples lie beyond p90
HARD_STOP_S = 150.0      # stop issuing requests here even below MIN_OPS
CHILD_TIMEOUT_S = 175.0
# requests per second of --seconds in the traced run (fixed count, so that
# two traced runs of one seed issue the same requests); sweep runs one batch
TRACE_RATE = {"check_closed": 5, "check_expr": 5, "systems": 20}

# On a shared host the CPU speed can drift by a third between spells of
# seconds to minutes, which moves every wall time alike.  A fixed
# pure-Python loop, timed between operations, tracks that speed; latencies
# scaled by PROBE_REF_MS / (loop time) are "reference milliseconds", the
# time the operation takes while the loop takes PROBE_REF_MS.
PROBE_LOOPS = 30_000
PROBE_REF_MS = 2.0
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_ref_s": "op/ref-s",
                    "op_p50_ref_ms": "ref-ms", "op_p90_ref_ms": "ref-ms",
                    "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# child: one fresh interpreter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _library():
    """Import the library from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    from stochorder import catalog, cli, copulas, distortions, distributions
    from stochorder import funcalc, numerics, orders, sweeps, systems
    mods = {"catalog": catalog, "cli": cli, "copulas": copulas,
            "distortions": distortions, "distributions": distributions,
            "funcalc": funcalc, "numerics": numerics, "orders": orders,
            "sweeps": sweeps, "systems": systems}
    expected = (SRC / "stochorder").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"imported stochorder from {cli.__file__}, not {expected}")
    return mods


def _build_catalogs(mods) -> None:
    mods["catalog"].distributions()
    mods["catalog"].distortions()


class _Latencies:
    """Operation latencies, raw and at reference speed (see PROBE_REF_MS).

    ``start()`` times the speed probe when PROBE_EVERY_S has passed since
    the last one, then starts the clock; ``stop()`` records the operation.
    An operation is scaled by the median of the probes taken from
    PROBE_WINDOW_S before it starts to PROBE_WINDOW_S after it ends, so a
    long operation is judged by the speed on both sides of it."""

    def __init__(self, clock):
        self.clock = clock
        self.ops = []            # (start, end) of each operation
        self.probe_at, self.probe_ms = [], []
        self._t0 = 0.0

    def start(self) -> None:
        if not self.probe_at or self.clock() - self.probe_at[-1] >= PROBE_EVERY_S:
            t0 = self.clock()
            acc = 0.0
            for i in range(PROBE_LOOPS):
                acc += i * 0.5
            t1 = self.clock()
            self.probe_at.append(t1)
            self.probe_ms.append((t1 - t0) * 1e3)
        self._t0 = self.clock()

    def stop(self) -> None:
        self.ops.append((self._t0, self.clock()))

    def result(self) -> dict:
        raw, ref = [], []
        for t0, t1 in self.ops:
            lo = bisect.bisect_left(self.probe_at, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.probe_at, t1 + PROBE_WINDOW_S)
            near = self.probe_ms[lo:hi] or [self.probe_ms[max(0, lo - 1)]]
            raw.append(t1 - t0)
            ref.append((t1 - t0) * PROBE_REF_MS / statistics.median(near))
        return {"latencies": raw, "ref_latencies": ref,
                "busy_s": math.fsum(raw), "ref_busy_s": math.fsum(ref),
                "probe_ms": statistics.median(self.probe_ms),
                "probes": len(self.probe_ms)}


class _TrialClock:
    """Per-trial latency of a sweep: a trial runs from one pair draw to the
    next, the first from suite entry (so suite set-up is charged to it) and
    the last to suite exit.  Adds two clock reads per trial, and the speed
    probe between trials."""

    def __init__(self, mods, lat: _Latencies):
        catalog, sweeps = mods["catalog"], mods["sweeps"]
        draw, run_suite = catalog.sample_ordered_pair, sweeps.run_suite
        state = {"first": True}

        def sample_ordered_pair(rng):
            if not state["first"]:
                lat.stop()
                lat.start()
            state["first"] = False
            return draw(rng)

        def timed_run_suite(name, config=None):
            lat.start()
            state["first"] = True
            try:
                return run_suite(name, config)
            finally:
                if not state["first"]:
                    lat.stop()

        catalog.sample_ordered_pair = sample_ordered_pair
        sweeps.run_suite = timed_run_suite


def _sweep_config(mods, batch: int):
    Tolerance = mods["numerics"].Tolerance
    return mods["sweeps"].SweepConfig(
        seed=workloads.SWEEP_BASE_SEED + batch,
        trials=workloads.SWEEP_TRIALS,
        grid_count=workloads.SWEEP_GRID_COUNT,
        edge_margin=workloads.SWEEP_EDGE_MARGIN,
        tolerance=Tolerance(abs_tol=workloads.SWEEP_TOL, rel_tol=workloads.SWEEP_TOL),
        suites=workloads.SWEEP_SUITES)


def _sweep_ops(mods, clock, more, tracer=None):
    """Run sweep batches while ``more(trials done, batches done)``; one
    trial is one operation."""
    lat = _Latencies(clock)
    _TrialClock(mods, lat)
    attempted, failures = 0, []
    batch = 0
    while more(attempted, batch):
        if tracer is not None:
            tracer.begin_request(batch)
        config = _sweep_config(mods, batch)
        summary = mods["sweeps"].run_all(config)
        if tracer is not None:
            tracer.end_request()
        for suite in summary.suites:
            attempted += suite.trials
            for fail in suite.failures:
                failures.append(f"sweep seed {config.seed} suite {suite.name}: {fail}")
        shape = [(s.name, s.trials) for s in summary.suites]
        if shape != [(name, workloads.SWEEP_TRIALS) for name in workloads.SWEEP_SUITES]:
            failures.append(f"sweep seed {config.seed}: ran (suite, trials) {shape}")
        batch += 1
    return dict(lat.result(), attempted=attempted, failed=len(failures),
                failures=failures[:10], mix={"batches": batch})


def _cli_ops(mods, workload, seed, clock, more, tracer=None):
    out = OUT_DIR / f"tmp-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    stream = workloads.REQUEST_STREAMS[workload](seed)
    lat = _Latencies(clock)
    failures, mix = [], {}
    done = failed = 0
    try:
        while more(done, done):
            req = next(stream)
            if tracer is not None:
                tracer.begin_request(done)
            error = workloads.run_request(mods["cli"].main, req, str(out), lat)
            if tracer is not None:
                tracer.end_request()
            done += 1
            mix[req.kind] = mix.get(req.kind, 0) + 1
            if error is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{error} | stochorder {' '.join(req.argv)}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return dict(lat.result(), attempted=done, failed=failed, failures=failures, mix=mix)


def child_main(role: str, workload: str, seed: int, seconds: float, count: int) -> dict:
    clock = time.perf_counter
    t0 = clock()
    mods = _library()
    tracer = None
    if role == "traced":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(clock)
        tracer.install(mods)
    t1 = clock()
    if workload == "sweep":
        _build_catalogs(mods)
    setup_s = clock() - t0
    if tracer is not None:
        tracer.catalog_build_s = clock() - t1
    import numpy
    result = {"setup_s": setup_s, "python": platform.python_version(),
              "numpy": numpy.__version__}
    if role == "setup":
        result["peak_rss_mb"] = _peak_rss_mb()
        return result

    if role == "measure":
        start = clock()

        def more(done, units):
            # start another unit (request or sweep batch) only if one of
            # average length still ends by the deadline, so a run's length
            # does not hinge on whether one last long batch fits
            elapsed = clock() - start
            projected = elapsed + (elapsed / units if units else 0.0)
            return elapsed < HARD_STOP_S and (projected <= seconds or done < MIN_OPS)
    else:  # traced / fixed: a fixed number of requests (sweep: batches)
        def more(done, units):
            return units < count

    if workload == "sweep":
        result.update(_sweep_ops(mods, clock, more, tracer))
    else:
        result.update(_cli_ops(mods, workload, seed, clock, more, tracer))
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        result["spans"] = tracer.write_spans(str(path))
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


# ---------------------------------------------------------------------------
# parent: orchestration and report


def _spawn(role: str, workload: str, seed: int, seconds: float, count: int = 0) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--count", str(count)]
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} child for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def _cpu_probe_ms() -> float:
    """Time of a fixed pure-Python loop, before and after each workload: how
    fast this (possibly shared) machine ran while it was measured."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1_000_000):
        acc += i * 0.5
    return (time.perf_counter() - t0) * 1e3


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "system": platform.system()}
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            env["git_commit"] = "unavailable"
    else:
        env["git_commit"] = "not a git checkout"
    digest = hashlib.sha256()
    for path in sorted((SRC / "stochorder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    # set-ups are timed before and after the measured phase, so that a short
    # fast or slow spell of a shared machine does not set their median
    setups = [_spawn("setup", workload, seed, seconds) for _ in range(SETUP_REPEATS)]
    run = _spawn("measure", workload, seed, seconds)
    setups += [_spawn("setup", workload, seed, seconds) for _ in range(SETUP_REPEATS)]
    setup_values = [s["setup_s"] for s in setups] + [run["setup_s"]]
    raw, ref = run["latencies"], run["ref_latencies"]
    n = len(ref)
    metrics = {
        "setup_s": statistics.median(setup_values),
        "ops_per_ref_s": run["attempted"] / run["ref_busy_s"],
        "op_p50_ref_ms": statistics.median(ref) * 1e3,
        "op_p90_ref_ms": statistics.quantiles(ref, n=10)[8] * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    beyond = sum(1 for v in ref if v * 1e3 > metrics["op_p90_ref_ms"])
    samples = {
        "setup_s": f"median of {len(setup_values)} fresh interpreters",
        "ops_per_ref_s": f"{run['attempted']} ops over {run['ref_busy_s']:.3f} ref-s busy",
        "op_p50_ref_ms": f"n={n}",
        "op_p90_ref_ms": f"n={n}, {beyond} beyond",
        "peak_rss_mb": "measured interpreter",
    }
    # the same quantities in plain wall time, printed but not gated
    wall = {
        "ops_per_s": (run["attempted"] / run["busy_s"], "op/s",
                      f"{run['attempted']} ops over {run['busy_s']:.3f} s busy"),
        "op_p50_ms": (statistics.median(raw) * 1e3, "ms", f"n={n}"),
        "op_p90_ms": (statistics.quantiles(raw, n=10)[8] * 1e3, "ms", f"n={n}"),
        "probe_ms": (run["probe_ms"], "ms",
                     f"median of {run['probes']} speed probes; reference {PROBE_REF_MS}"),
    }
    return {"metrics": metrics, "units": END_TO_END_UNITS, "samples": samples,
            "wall": wall, "run": run, "python": run["python"], "numpy": run["numpy"]}


def _layer_unit(name: str) -> str:
    if name.endswith("ops_per_ref_s"):
        return "op/ref-s"
    if name.endswith("us_per_eval") or ".us_per_eval." in name:
        return "us"
    if ".ms_per_verdict." in name:
        return "ms"
    if name.endswith("_s") or ".suite_s." in name:
        return "s"
    if name.endswith(("_ratio", "_share", "coverage_min", "overhead")):
        return "fraction"
    if name.endswith(("_per_call", "per_verdict")):
        return "ratio"
    return "count"


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    count = 1 if workload == "sweep" else max(
        MIN_OPS, math.ceil(seconds * TRACE_RATE[workload]))
    traced = _spawn("traced", workload, seed, seconds, count)
    plain = _spawn("fixed", workload, seed, seconds, count)
    metrics = dict(traced["per_layer"])
    traced_rate = traced["attempted"] / traced["ref_busy_s"]
    plain_rate = plain["attempted"] / plain["ref_busy_s"]
    metrics["trace.ops_per_ref_s"] = traced_rate
    metrics["trace.untraced_ops_per_ref_s"] = plain_rate
    metrics["trace.overhead"] = plain_rate / traced_rate - 1.0
    units = {name: _layer_unit(name) for name in metrics}
    run = dict(traced, attempted=traced["attempted"] + plain["attempted"],
               failed=traced["failed"] + plain["failed"],
               failures=(traced["failures"] + plain["failures"])[:10])
    samples = {"trace.ops_per_ref_s": f"{traced['attempted']} ops traced",
               "trace.untraced_ops_per_ref_s": f"{plain['attempted']} ops untraced"}
    return {"metrics": metrics, "units": units, "samples": samples, "run": run,
            "python": traced["python"], "numpy": traced["numpy"],
            "spans": traced["spans"], "spans_file": traced["spans_file"]}


def _print_block(workload, seed, seconds, trace, res, env) -> dict:
    run = res["run"]
    attempted, failed = run["attempted"], run["failed"]
    inputs = workloads.describe_inputs(workload, seed)
    inputs["mix_counts"] = run["mix"]
    if trace:
        inputs["trace_ops"] = run["attempted"] // 2
    print(f"== stochorder benchmark: workload={workload} seed={seed} "
          f"seconds={seconds} trace={trace}")
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print("environment " + json.dumps(dict(env, python=res["python"], numpy=res["numpy"],
                                           cpu_probe_ms=res["cpu_probe_ms"]),
                                      sort_keys=True))
    for name, value in res["metrics"].items():
        note = res["samples"].get(name, "")
        print(f"  {name:<48} {value:>16.6g} {res['units'][name]:<9} {note}")
    for name, (value, unit, note) in res.get("wall", {}).items():
        print(f"  {name:<48} {value:>16.6g} {unit:<9} {note} (wall time, not gated)")
    error_rate = failed / attempted if attempted else float("nan")
    print(f"  {'error_rate':<48} {error_rate:>16.6g} {'fraction':<9} "
          f"{failed} failed of {attempted} attempted")
    for line in run["failures"]:
        print(f"  failed: {line}")
    if trace:
        print(f"  spans: {res['spans']} kept in memory, written to {res['spans_file']}")
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": res["units"][k]}
                        for k, v in res["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "stochorder" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'stochorder'}", file=sys.stderr)
        return 2
    if args.child:
        result = child_main(args.child, args.workload, args.seed, args.seconds,
                            args.count)
        print(json.dumps(result))
        return 0

    env = environment()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    blocks = []
    for workload in names:
        probe = _cpu_probe_ms()
        if args.trace:
            res = run_traced(workload, args.seed, args.seconds)
        else:
            res = run_untraced(workload, args.seed, args.seconds)
        res["cpu_probe_ms"] = [probe, _cpu_probe_ms()]
        blocks.append(_print_block(workload, args.seed, args.seconds, args.trace,
                                   res, env))
    attempted = sum(b["attempted"] for b in blocks)
    failed = sum(b["failed"] for b in blocks)
    if len(blocks) == 1:
        metrics = blocks[0]["metrics"]
    else:
        metrics = {f"{b['workload']}.{k}": v for b in blocks
                   for k, v in b["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
