"""hullgap benchmark: one workload per process, from a single thread of control.

    python3 perfbench/run.py --workload sweep|queries|brackets --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the workload runs whole rounds until about S seconds of operations
have been timed, and the end-to-end metrics are printed.  With --trace 1 exactly
one round runs with every layer boundary wrapped (tracing.py), so its counts
repeat exactly for a seed, and the per-layer metrics are printed.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  An operation fails when it raises or when a check on its output
fails; `correct` is false when some output was wrong.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread of control: BLAS and OpenMP pools would spin on the same few
# cores as the workload and measure the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3


def _import_program():
    if not (SRC / "hullgap" / "__init__.py").is_file():
        sys.exit(f"hullgap sources not found under {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import hullgap.cli  # noqa: F401
    # the grid oracle imports scipy.spatial lazily and the hull solver
    # scipy.optimize; importing both here charges them to set-up
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401


class Pace:
    """Times a fixed reference computation between operations.

    The host's speed drifts by 15 to 60% over minutes, the same for any
    code.  A slice of ``REFERENCE_ITERS`` iterations of a loop of small
    numpy products and Python arithmetic, independent of hullgap and shaped
    like its inner loops, is timed after an operation whenever
    ``SLICE_EVERY_S`` has passed since the last slice.  ``speed`` is
    ``REFERENCE_UNIT_S`` over the mean slice time: above 1 when the host
    runs faster than the reference.
    """

    REFERENCE_ITERS = 900
    REFERENCE_UNIT_S = 0.010
    SLICE_EVERY_S = 0.5

    def __init__(self):
        import numpy as np
        self._a = np.random.default_rng(0).standard_normal((8, 3))
        self._np = np
        self.slices = []
        self._run()  # first call pays numpy's lazy set-up; sets _last

    def _run(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        a, amax, aabs = self._a, self._np.max, self._np.abs
        for i in range(self.REFERENCE_ITERS):
            acc += float(amax(aabs(a @ a[i % 8]))) + sum(j * j for j in range(60))
        self._last = time.perf_counter()
        return self._last - t0

    def after_op(self) -> float:
        """Runs a slice if one is due; returns the seconds it took, else 0."""
        if time.perf_counter() - self._last < self.SLICE_EVERY_S:
            return 0.0
        dt = self._run()
        self.slices.append(dt)
        return dt

    @property
    def speed(self) -> float:
        return self.REFERENCE_UNIT_S / statistics.fmean(self.slices)


def _execute(ops, pace=None):
    """Run ops back to back; returns (seconds in ops, [(op, output, error, seconds)])."""
    done = []
    paced = 0.0
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an operation that raises is counted as failed
            out, err = None, exc
        done.append((op, out, err, time.perf_counter() - t0))
        if pace is not None:
            paced += pace.after_op()
    return time.perf_counter() - start - paced, done


def _check(done):
    """Returns (raised, wrong) counts; each failure is described on stderr."""
    raised = wrong = 0
    for op, out, err, _ in done:
        if err is not None:
            raised += 1
            print(f"{op.kind}: raised {err!r}", file=sys.stderr)
            continue
        try:
            op.check(out)
        except Exception as exc:
            wrong += 1
            print(f"{op.kind}: check failed: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    return raised, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "queries", "brackets"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import numpy as np
    import tracing
    import workloads

    import_s = time.perf_counter() - _T0
    make_round, make_warmup = workloads.WORKLOADS[args.workload]
    workloads.OUT_DIR.mkdir(exist_ok=True)

    def rng(r):
        return np.random.default_rng([args.seed, r])

    # set-up: input generation and one warm-up operation of each kind,
    # repeated; the warm-ups use fixed inputs and are checked like the rest
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        make_round(rng(0), 0)
        _, warm = _execute(make_warmup())
        reps.append(time.perf_counter() - t0)
        raised, wrong = _check(warm)
        if raised or wrong:
            sys.exit("a warm-up operation failed")
    setup_s = import_s + statistics.median(reps)

    tracer = found = pace = None
    if args.trace:
        tracer = tracing.Tracer()
        found = tracing.install(tracer)
    else:
        pace = Pace()

    attempted = raised = wrong = 0
    timed = 0.0
    latencies = []
    r = 0
    while True:
        wall, done = _execute(make_round(rng(r), r), pace)
        timed += wall
        latencies += [dt for *_, dt in done]
        attempted += len(done)
        a, b = _check(done)
        raised, wrong = raised + a, wrong + b
        print(f"round {r}: {len(done)} ops, {wall:.3f} s", file=sys.stderr)
        r += 1
        # start another round only if at least half of it (taken as long as
        # this one) fits, so the timed total lands near --seconds
        if args.trace or timed + wall / 2 >= args.seconds:
            break

    if tracer is not None:
        tracer.uninstall()
        metrics = tracing.report(tracer, found)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall_ops_per_s = attempted / timed
        wall_p50_ms = 1000.0 * statistics.median(latencies)
        print(f"wall clock: {wall_ops_per_s:.6g} ops/s, median {wall_p50_ms:.6g} ms; "
              f"{len(pace.slices)} reference slices, speed {pace.speed:.4f}", file=sys.stderr)
        # throughput and latency at the reference speed
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": wall_ops_per_s / pace.speed, "unit": "ops/s"},
            "op_p50_ms": {"value": wall_p50_ms * pace.speed, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": raised + wrong,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
