"""How far the upper engine sits above the grid oracle's feasible upper.

For each row (space, n, eps) of a fixed roster, 120 tuples from
``sample_unit_ball`` on the ambient space (seed 0) get two upper bounds on
d(z, C_m) at m = 1, 2, 3 and alpha = 1: the engine's
(``dist_to_cm_upper`` at budget 8, seed 0) and the grid oracle's own
feasible decomposition at resolution 0.1 (one ``_grid_members`` record per
row, then ``_grid_upper`` per tuple).  Both are genuine decompositions, so
neither bounds the other; the excess is engine minus grid.  Per row and m
the script prints the share of tuples where the engine is higher, and the
median and largest excess:

    PYTHONPATH=src python scripts/engine_slack.py
"""

import time

import numpy as np

from hullgap.hullgeom import CmParams, _grid_members, _grid_upper, ambient_space, dist_to_cm_upper
from hullgap.spaces import parse_space, sample_unit_ball

ROSTER = [
    ("lp(2,2)", 2, 0.25),
    ("lp(4,2)", 2, 0.15),
    ("lp(1,2)", 2, 0.2),
    ("lp(inf,2)", 2, 0.2),
    ("lp(2,1)", 3, 0.2),
    ("lp(2,1)", 2, 0.1),
]
TUPLES, RESOLUTION, BUDGET, SEED, MS = 120, 0.1, 8, 0, (1, 2, 3)


def excess(text: str, n: int, eps: float) -> np.ndarray:
    """Engine upper minus grid upper, as a (len(MS), TUPLES) array."""
    space = parse_space(text)
    amb = ambient_space(space, n)
    members = _grid_members(space, CmParams(n, eps), RESOLUTION)
    out = np.empty((len(MS), TUPLES))
    for j, z in enumerate(sample_unit_ball(amb, TUPLES, SEED)):
        for i, m in enumerate(MS):
            engine = dist_to_cm_upper(space, z, CmParams(n, eps, 1.0, m), budget=BUDGET, seed=SEED)
            out[i, j] = engine.upper - _grid_upper(amb, z, members, m)[0]
    return out


def main() -> int:
    print(f"{TUPLES} tuples per row, h = {RESOLUTION}, engine budget {BUDGET}, seed {SEED}")
    print(f"{'space':<10} {'n':>2} {'eps':>5} {'m':>2} {'engine higher':>14} "
          f"{'median excess':>14} {'largest excess':>15}")
    t0 = time.perf_counter()
    for text, n, eps in ROSTER:
        for m, d in zip(MS, excess(text, n, eps)):
            print(f"{text:<10} {n:>2} {eps:>5} {m:>2} {np.mean(d > 0.0):>14.0%} "
                  f"{np.median(d):>+14.4f} {np.max(d):>+15.4f}")
    print(f"time {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
