"""One sha256 over the outputs of a fixed roster of upper bounds and profiles.

    PYTHONPATH=src python scripts/output_digest.py

The roster holds ``dist_to_cm_upper`` calls on curved and polyhedral
spaces, at alpha below and above 1, over an (m, eps, alpha) lattice on
seeded tuples, ``estimate_dk`` profiles of the benchmark's sweep spaces
and a curved space, gridded profiles of the reals with n = 2, and
``dist_to_cm_grid`` brackets at z* = (1, -1) of the reals with n = 2.  Every result is serialised exactly (floats by
``repr``, which round-trips) and fed to one hash, so two trees that print
the same digest give the same bits on the whole roster.  The script exits
1 when the digest differs from the pinned ``EXPECTED``, so a change that
moves any value fails it; a change meant to move values re-pins it.
"""

import hashlib
import json
import sys

import numpy as np

from hullgap.dkprofile import estimate_dk
from hullgap.hullgeom import CmParams, dist_to_cm_grid, dist_to_cm_upper
from hullgap.spaces import dim, norm, parse_space

UPPER_SPACES = (
    "lp(4,2)",
    "lp(1.5,2)",
    "dsum(2, lp(1,2), lp(inf,1))",
    "lp(2,2)",
    "fmod(3, lp(2,2))",
    "dsum(inf, lp(1,2), lp(2,1))",
    "lp(inf,3)",
    "sup(2, lp(inf,2))",
)
# the digest and result count of the roster below
EXPECTED = ("8aa1a48bd132ae4463b7a0e715ce0d668326fb0d4bca34d2eaa411b8af94aae1", 764)
N, TUPLES, BUDGET = 2, 5, 1
LATTICE = [(m, eps, alpha) for m in (1, 2, 3) for eps in (0.15, 0.3) for alpha in (0.95, 1.0, 1.3)]
# (space, n, eps, alpha, seed): the sweep workload's spaces and two curved ones,
# one with partition supports; none of them fits a grid, so no lower side runs
PROFILES = [
    (text, n, 0.2, alpha, seed)
    for text, n in (("lp(inf,3)", 2), ("lp(inf,1)", 6), ("lp(3,3)", 2), ("sup(2, lp(2,2))", 2))
    for alpha in (1.0, 0.95)
    for seed in (1, 5, 9)
]
# (eps, resolution, seed): gridded profiles of the reals with n = 2, k 1..3,
# whose lower sides come from the grid oracle in ambient dimension 2
GRID_PROFILES = [(eps, h, seed) for h in (0.1, 0.05) for eps in (0.15, 0.3) for seed in (1, 5)]
# (eps, m, resolution): grid brackets at z* = (1, -1) of the reals with n = 2,
# as the benchmark's brackets workload asks them
ZSTAR = [(eps, m, h) for h in (0.1, 0.05) for eps in (0.15, 0.3) for m in (1, 2, 3)]


def _tuple(space, rng) -> np.ndarray:
    """n blocks in seeded directions, each of norm in [0.5, 1.3]."""
    blocks = []
    for _ in range(N):
        b = rng.standard_normal(dim(space))
        blocks.append(b * (rng.uniform(0.5, 1.3) / norm(space, b)))
    return np.concatenate(blocks)


def results():
    """The jsonable result of every call of the roster, in a fixed order."""
    for si, text in enumerate(UPPER_SPACES):
        space = parse_space(text)
        rng = np.random.default_rng([17, si])
        for t in range(TUPLES):
            z = _tuple(space, rng)
            for m, eps, alpha in LATTICE:
                b = dist_to_cm_upper(space, z, CmParams(N, eps, alpha, m), budget=BUDGET, seed=t)
                yield b.to_jsonable()
    for text, n, eps, alpha, seed in PROFILES:
        prof = estimate_dk(parse_space(text), n, eps, alpha=alpha, k_range=(1, 2, 3),
                           budget=1, seed=seed)
        yield prof.to_jsonable()
    reals = parse_space("lp(2,1)")
    for eps, h, seed in GRID_PROFILES:
        prof = estimate_dk(reals, 2, eps, k_range=(1, 2, 3), budget=1, seed=seed, resolution=h)
        yield prof.to_jsonable()
    for eps, m, h in ZSTAR:
        yield dist_to_cm_grid(reals, np.array([1.0, -1.0]), CmParams(2, eps, 1.0, m), h).to_jsonable()


def main() -> int:
    total, count = hashlib.sha256(), 0
    for out in results():
        total.update(json.dumps(out, sort_keys=True).encode())
        count += 1
    got = (total.hexdigest(), count)
    print(f"{got[0]}  {count} results")
    if got != EXPECTED:
        print(f"expected {EXPECTED[0]}  {EXPECTED[1]} results: a value moved", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
