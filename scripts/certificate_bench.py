"""Stress the hull-distance solver's certificates on random instances.

Draws random generator clouds and query points over a mixed pool of norms
(polyhedral, smooth, and composites of both) and reports the distribution
of duality gaps and solve times, and how many solves each solver stage
certified.  A healthy run has every gap at or below the requested target;
the script exits 1 otherwise, so it can serve as a check:

    PYTHONPATH=src python scripts/certificate_bench.py --trials 180 --seed 42
"""

import argparse
import sys
import time
from collections import Counter

import numpy as np

from hullgap.hullgeom import min_norm_point
from hullgap.spaces import INF, DirectSum, LpFinite, SupTuple, dim

POOL = [
    LpFinite(INF, 4),
    LpFinite(1.0, 4),
    LpFinite(2.0, 5),
    LpFinite(3.0, 3),
    SupTuple(3, LpFinite(INF, 2)),
    SupTuple(2, LpFinite(2.0, 3)),
    DirectSum(1.0, LpFinite(2.0, 2), LpFinite(INF, 3)),
    DirectSum(INF, LpFinite(1.0, 3), LpFinite(2.0, 2)),
    SupTuple(2, DirectSum(2.0, LpFinite(1.0, 2), LpFinite(INF, 2))),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--target-gap", type=float, default=1e-10)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    gaps, times, stages, worst = [], [], Counter(), (-1.0, None, None, None)
    for trial in range(args.trials):
        sp = POOL[trial % len(POOL)]
        D = dim(sp)
        K = int(rng.integers(2, 21))
        G = rng.uniform(-1.0, 1.0, (K, D))
        z = rng.uniform(-1.5, 1.5, D)
        t0 = time.perf_counter()
        res = min_norm_point(sp, z, G, target_gap=args.target_gap)
        dt = time.perf_counter() - t0
        gaps.append(res.gap)
        times.append(dt)
        stages[res.stage] += 1
        if res.gap > worst[0]:
            worst = (res.gap, trial, sp, K)

    gaps_a = np.array(gaps)
    print(f"trials {args.trials}  seed {args.seed}  target {args.target_gap:g}")
    print(
        f"gaps: max {gaps_a.max():.3g}  p95 {np.quantile(gaps_a, 0.95):.3g}"
        f"  median {np.median(gaps_a):.3g}"
    )
    print(f"times: total {sum(times):.2f}s  max {max(times):.3f}s")
    print(f"worst: gap {worst[0]:.3g} at trial {worst[1]} on {worst[2]} with K={worst[3]}")
    print(
        f"count gap > 1e-9: {int((gaps_a > 1e-9).sum())}"
        f"   > 1e-10: {int((gaps_a > 1e-10).sum())}"
    )
    print("stages: " + "  ".join(f"{name} {count}" for name, count in sorted(stages.items())))
    misses = int((gaps_a > args.target_gap).sum())
    if misses:
        print(f"FAIL: {misses} gaps above the target {args.target_gap:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
