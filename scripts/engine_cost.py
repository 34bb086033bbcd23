"""Process CPU time of one more upper engine in a profile's batch.

Builds batches of 20 and of 80 upper engines (``_build_engines``, seed 0,
budget 1) on tuples drawn uniformly from [-1, 1]^(n d) with seed 0, and asks
each batch for its best upper at k = 1, 2 and 3 (``_best_upper``, eps 0.2,
alpha 1), as ``estimate_dk`` does for a profile.  The cost per extra engine
is the difference of the two batches' process CPU times divided by 60; the
script prints the median over 30 repeats, with the median time of each
batch size:

    PYTHONPATH=src python scripts/engine_cost.py [--space "lp(inf,1)"] [--n 6]
"""

import argparse
import time

import numpy as np

from hullgap.hullgeom import CmParams, _best_upper, _build_engines
from hullgap.spaces import dim, parse_space

SIZES, KS, EPS, REPEATS = (20, 80), (1, 2, 3), 0.2, 30


def batch_seconds(space, n: int, zs: np.ndarray) -> float:
    """Process CPU seconds of one batch build and its best upper at every k."""
    t0 = time.process_time()
    engines = _build_engines(space, n, zs, 0, 1)
    for k in KS:
        _best_upper(engines, CmParams(n, EPS, 1.0, k))
    return time.process_time() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--space", default="lp(inf,1)")
    ap.add_argument("--n", type=int, default=6)
    args = ap.parse_args()
    space = parse_space(args.space)
    zs = np.random.default_rng(0).uniform(-1.0, 1.0, (max(SIZES), args.n * dim(space)))
    batch_seconds(space, args.n, zs[: SIZES[0]])  # warm-up
    times = {size: [] for size in SIZES}
    for _ in range(REPEATS):
        for size in SIZES:
            times[size].append(batch_seconds(space, args.n, zs[:size]))
    lo, hi = (np.array(times[size]) for size in SIZES)
    per_engine = np.median((hi - lo) / (SIZES[1] - SIZES[0]))
    print(f"{args.space} n={args.n}: batch of {SIZES[0]} {1e3 * np.median(lo):.2f} ms, "
          f"of {SIZES[1]} {1e3 * np.median(hi):.2f} ms, "
          f"per extra engine {1e6 * per_engine:.1f} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
