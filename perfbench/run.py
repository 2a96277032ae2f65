"""Benchmark of the boxprod analyze paths.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads: scan, isoperimetry, influence, sdp-lift (see README.md).  One
Python process runs the package from ``src/`` in-process: it writes the
input files once, imports the package and builds the ops several times,
runs one discarded warm-up op, then repeats whole rounds of the
workload's fixed op list while the next round is expected to end within
``--seconds`` (at least one round), with one more set-up after each
round.  Each op's output is checked against independent oracles.  Every
op and set-up is timed between two runs of a fixed calibration loop, and
times are reported in seconds at the loop's reference speed, as medians
over the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports per-layer calls, self time and
work counts per round, plus the tracing overhead, and writes them to
``perfbench/.runs/``.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# fixed before numpy loads: one BLAS thread, so the process runs one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# no caches in the checkout; the package's byte code goes to a fresh
# per-run prefix instead (see _fresh_bytecode)
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
SETUP_REPEATS = 5
# The host's speed is read from a fixed plain-Python loop, timed right
# before and after every op and every set-up (see _calibration_loop).
CALIBRATION_STEPS = 300_000
# The loop's time when the host of the README's figures runs fast.
REFERENCE_LOOP_S = 0.018

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Fresh import of boxprod from the checkout (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "boxprod" or m.startswith("boxprod.")]:
        del sys.modules[name]
    bp = importlib.import_module("boxprod")
    importlib.import_module("boxprod.cli")
    if Path(bp.__file__).resolve().parent != SRC / "boxprod":
        raise ImportError(f"boxprod was imported from {bp.__file__}, not {SRC}")
    return bp


def _fresh_bytecode(prefix):
    """Compile the package into an empty cache of this run's own, so that
    a ``__pycache__`` left in the checkout changes neither ``setup_s`` nor
    ``peak_rss_mb``: the first import compiles, the others load it."""
    sys.pycache_prefix = str(prefix)
    sys.dont_write_bytecode = False


def _calibration_loop():
    """Time of a fixed loop of plain Python.  The host runs at two speeds
    about 1.45 times apart and switches between them within seconds; this
    loop slows down with the program, so times are reported scaled to the
    loop's reference time (see README.md, "Host speed")."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i
    return time.perf_counter() - t0


def _timed(fn):
    """``fn()``, its time, and that time over the calibration loop's time
    right around it (the mean of the loops before and after)."""
    gc.collect()
    before = _calibration_loop()
    t0 = time.perf_counter()
    try:
        result, exc = fn(), None
    except Exception as e:  # an op that raises is a failed op, not a crash
        result, exc = None, e
    dt = time.perf_counter() - t0
    loop = 0.5 * (before + _calibration_loop())
    return result, exc, dt, dt / loop, loop


def _setup(name, seed, workdir):
    """Input files are written once, untimed: they are the benchmark's
    work.  The timed set-up is the import plus building the ops."""
    make_inputs, build = WORKLOADS[name]
    workdir.mkdir(parents=True)
    inputs = make_inputs(seed, workdir)
    _fresh_bytecode(workdir / "pycache")
    ratios = []
    for _ in range(SETUP_REPEATS):
        ops, ratio = _timed_setup(build, inputs)
        ratios.append(ratio)
    return ops, functools.partial(_setup_again, build, inputs), ratios


def _timed_setup(build, inputs):
    """The ops, and the set-up time over the calibration loop's time."""
    ops, exc, _, ratio, _ = _timed(lambda: build(_import_package(), inputs))
    if exc is not None:
        raise exc
    return ops, ratio


def _package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "boxprod" or name.startswith("boxprod.")}


def _setup_again(build, inputs):
    """One more timed set-up, whose ops are dropped.  The modules the
    running ops were built from go back into ``sys.modules`` after it,
    since the package imports some of its modules at call time."""
    running = _package_modules()
    ratio = _timed_setup(build, inputs)[1]
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(running)
    return ratio


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.by_op = {}
        self.failed_ops = set()
        self.ratios = {}  # op -> its times over the calibration loop's
        self.loops = []


def _run_op(op, tally):
    result, exc, dt, ratio, loop = _timed(op.call)
    tally.attempted += 1
    tally.by_op.setdefault(op.name, []).append(dt)
    tally.ratios.setdefault(op.name, []).append(ratio)
    tally.loops.append(loop)
    if op.fault is not None and op.fault(result, exc):
        tally.failed += 1  # the known fault: failed, not incorrect
        tally.failed_ops.add(op.name)
        return dt
    if exc is not None:
        problems = ["".join(traceback.format_exception(exc)).strip()]
    else:
        problems = op.check(result)
    if problems:
        tally.failed += 1
        tally.failed_ops.add(op.name)
        tally.correct = False
        print(f"[{op.name}] " + "; ".join(problems), file=sys.stderr)
    return dt


def _rounds(ops, seconds, tally, tracer=None, setup=None, setup_ratios=None):
    """Whole rounds while the next is expected to end in time.  With a
    tracer, rounds alternate untraced / traced (at least one of each).
    Without one, ``setup`` is timed again after every round, so that the
    set-up times are spread over the run like the op times."""
    plain, traced, layers, per_op = [], [], [], {}
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        tracing_now = tracer is not None and len(plain) > len(traced)
        if tracing_now:
            tracer.install()
        t_round = 0.0
        try:
            for op in ops:
                if tracing_now:
                    tracer.reset()
                dt = _run_op(op, tally)
                t_round += dt
                if tracing_now:
                    snap = tracer.snapshot(dt)
                    per_op.setdefault(op.name, snap)
                    layers.append(snap)
        finally:
            if tracing_now:
                tracer.uninstall()
        (traced if tracing_now else plain).append(t_round)
        if tracer is None:
            setup_ratios.append(setup())
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        elapsed = now - start
        need_more = tracer is not None and not traced
        if not need_more and elapsed + longest > seconds:
            return plain, traced, layers, per_op


def _op_times(tally):
    """Each op's time in seconds at the reference host speed: the median
    over the run's rounds of its ratio to the calibration loop timed
    around it, times the loop's reference time."""
    return {name: REFERENCE_LOOP_S * statistics.median(r)
            for name, r in tally.ratios.items()}


def _op_p50(op_times, failed_ops):
    """The median op: over the ops that never failed (all ops, if every
    one failed), the median of the ops' times."""
    ok = [t for name, t in op_times.items() if name not in failed_ops]
    return statistics.median(ok or op_times.values())


def _per_layer(layers, plain, traced):
    """Per-round totals: counts are the same in every round; times are the
    per-round mean of the traced rounds."""
    out = {}
    for metric, unit in tracing.metric_names():
        if metric == "trace.overhead_pct":
            base = statistics.median(plain)
            value = 100.0 * (statistics.median(traced) - base) / base
        else:
            value = sum(snap[metric] for snap in layers) / len(traced)
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    args = _parse(argv)
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    if not (SRC / "boxprod" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'boxprod'}; run from a boxprod checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        try:
            ops, setup, setup_ratios = _setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"cannot import boxprod: {exc}", file=sys.stderr)
            return 2
        warm = Tally()
        _run_op(ops[0], warm)  # discarded warm-up; each list starts with a cheap op
        tally = Tally()
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, layers, per_op = _rounds(ops, args.seconds, tally, tracer,
                                                setup, setup_ratios)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = _per_layer(layers, plain, traced)
        RUNS.mkdir(exist_ok=True)
        trace_file = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced_round_s": plain, "traced_round_s": traced,
                       "per_round": metrics, "first_traced_round_by_op": per_op},
                      fh, indent=1)
        print(f"trace written to {trace_file}", file=sys.stderr)
    else:
        op_times = _op_times(tally)
        metrics = {
            "wall_s": {"value": sum(op_times.values()), "unit": "s"},
            "op_p50_s": {"value": _op_p50(op_times, tally.failed_ops), "unit": "s"},
            "setup_s": {"value": REFERENCE_LOOP_S * statistics.median(setup_ratios),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    rounds = len(plain) + len(traced)
    print(f"{args.workload} seed={args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{tally.failed}/{tally.attempted} failed", file=sys.stderr)
    for name, times in tally.by_op.items():
        print(f"  op {name}: " + " ".join(f"{t:.4f}" for t in times) + " s", file=sys.stderr)
    print(f"  calibration loop: best {min(tally.loops):.5f} s, median "
          f"{statistics.median(tally.loops):.5f} s, reference {REFERENCE_LOOP_S} s",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
