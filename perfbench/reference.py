"""Reference timings to tell host drift apart from a code change.

Usage, from the root of a source checkout:

    python3 perfbench/reference.py

Times the baseline commands of ROADMAP item 1 once each, in-process,
with a fixed plain-Python loop timed before and after every command.
If the loop moves as much as a command did between two measurements, the
host moved, not the code.  The tier-1 suite is timed separately (see
README.md).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import boxprod as bp  # noqa: E402
from boxprod import cli  # noqa: E402


def python_loop():
    """A fixed interpreter-bound loop: 3,000,000 integer multiply-adds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i
    return time.perf_counter() - t0


def report(argv):
    with redirect_stdout(io.StringIO()):
        return cli.run(argv)


BASELINE = [
    ("conductance_bruteforce(C5^2)",
     lambda: bp.conductance_bruteforce(bp.cartesian_power(bp.cycle_graph(5), 2))),
    ("log_sobolev_estimate(P3^2)",
     lambda: bp.log_sobolev_estimate(
         bp.cartesian_power(bp.path_graph(3), 2).to_weighted_graph())),
    ("analyze isoperimetry --builtin path:3 --k 2",
     lambda: report(["isoperimetry", "--builtin", "path:3", "--k", "2"])),
    ("analyze kkl --builtin k2 --k 16",
     lambda: report(["kkl", "--builtin", "k2", "--k", "16"])),
    ("analyze sdp-lift --builtin k2 --k 4 --t-level 3",
     lambda: report(["sdp-lift", "--builtin", "k2", "--k", "4", "--t-level", "3"])),
]


def main():
    print(f"{'command':48s} {'time_s':>8s} {'loop_before_s':>14s} {'loop_after_s':>13s}")
    for name, fn in BASELINE:
        before = python_loop()
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        after = python_loop()
        print(f"{name:48s} {elapsed:8.3f} {before:14.3f} {after:13.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
