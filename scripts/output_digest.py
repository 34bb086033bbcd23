"""One sha256 per roster over the outputs of fixed rosters of bounds, profiles and certificates.

    PYTHONPATH=src python scripts/output_digest.py

The ``bounds`` roster holds ``dist_to_cm_upper`` calls on curved and
polyhedral spaces, at alpha below and above 1, over an (m, eps, alpha)
lattice on seeded tuples, ``estimate_dk`` profiles of the benchmark's
sweep spaces and a curved space, gridded profiles of the reals with
n = 2, and ``dist_to_cm_grid`` brackets at z* = (1, -1) of the reals with
n = 2.  The ``certificates`` roster holds seeded restricted seminorms and
McShane extensions on chain and ray metrics, ring searches with their
validation, the ``ivakhno_verify`` and ``centralizer_verify`` reports of
seeded tuples, and ``constructive_dk_upper`` ceilings.  Every result is
serialised exactly (floats by ``repr``, which round-trips) and fed to its
roster's hash, so two trees that print the same digests give the same
bits on both rosters.  The script exits 1 when a digest differs from the
pinned ``EXPECTED``, so a change that moves any value fails it; a change
meant to move values re-pins it.
"""

import hashlib
import json
import sys

import numpy as np

from hullgap.certificates import (
    FunctionModuleSection,
    RingFamily,
    centralizer_construct,
    centralizer_verify,
    extreme_unit_section,
    find_ring_family,
    ivakhno_construct,
    ivakhno_verify,
    module_section_norm,
    validate_ring_family,
)
from hullgap.dkprofile import constructive_dk_upper, estimate_dk
from hullgap.hullgeom import CmParams, dist_to_cm_grid, dist_to_cm_upper
from hullgap.lipmetric import (
    LipFunction,
    geometric_chain,
    integer_ray,
    lip_seminorm,
    mcshane_extend,
    restricted_seminorm,
)
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
# the digest and result count of each roster below
EXPECTED = {
    "bounds": ("8aa1a48bd132ae4463b7a0e715ce0d668326fb0d4bca34d2eaa411b8af94aae1", 764),
    "certificates": ("4ade84e3b429a7dd157a1219f613da7cd38f2ee7764481a34a4f131c75711471", 291),
}
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
# (q or a, L): chains and rays, the benchmark's two chains among them
CHAINS = ((0.5, 8), (0.01, 12), (0.3, 24), (0.1, 40))
RAYS = ((2.0, 10), (3.0, 30), (1.5, 60))
# seeded value vectors per metric, at scales 1e-5 .. 1e5
LIP_CASES = 12
# (q, L, eps, k) of the ring searches; the one on chain(0.5,8) exhausts
RING_CASES = [(q, L, eps, k) for q, L in ((0.01, 12), (0.02, 10), (0.001, 9))
              for eps in (0.5, 0.6) for k in (1, 2, 3)] + [(0.5, 8, 0.5, 2), (0.3, 24, 0.5, 3)]
# the module panels: partition overwrites on singleton sets, tuple lengths 1..3
MODULES = ("fmod(4, lp(2,2))", "fmod(6, lp(inf,1))", "fmod(3, dsum(1, lp(1,2), lp(3,1)))",
           "fmod(5, lp(1.5,3))")
# (space, n, seed) of the partition ceilings, eps 0.25, k 1..7 (those above
# the base size are absent)
CEILINGS = [(text, n, seed) for text in ("fmod(5, lp(inf,1))", "lp(inf,4)", "fmod(3, lp(2,2))")
            for n in (1, 3) for seed in (0, 7)]
# (n, seed) of the annulus ceilings on chain(0.01,12), eps 0.5, k 1..4
ANNULUS_CEILINGS = [(n, seed) for n in (1, 2) for seed in (0, 7)]


def _tuple(space, rng) -> np.ndarray:
    """n blocks in seeded directions, each of norm in [0.5, 1.3]."""
    blocks = []
    for _ in range(N):
        b = rng.standard_normal(dim(space))
        blocks.append(b * (rng.uniform(0.5, 1.3) / norm(space, b)))
    return np.concatenate(blocks)


def certificate_results():
    """The jsonable result of every call of the certificate roster, in a fixed order."""
    metrics = [(f"chain({q},{L})", geometric_chain(q, L)) for q, L in CHAINS]
    metrics += [(f"ray({a},{L})", integer_ray(L, a)) for a, L in RAYS]
    for mi, (name, M) in enumerate(metrics):
        rng = np.random.default_rng([23, mi])
        for c in range(LIP_CASES):
            vals = rng.standard_normal(M.size) * 10.0 ** rng.uniform(-5.0, 5.0)
            size = int(rng.integers(1, M.size + 1))
            mask = tuple(sorted(rng.choice(M.size, size, replace=False).tolist()))
            f = LipFunction(vals, mask=None if c % 4 == 0 else mask)
            s = restricted_seminorm(M, f)
            ext = mcshane_extend(M, f, s * (1.0 + 0.5 * (c % 3)))
            yield {"metric": name, "seminorm": s, "extension": ext.values.tolist(),
                   "extension_seminorm": lip_seminorm(M, ext)}
    for q, L, eps, k in RING_CASES:
        M = geometric_chain(q, L)
        got = find_ring_family(M, eps, k)
        if isinstance(got, RingFamily):
            yield {"family": got.to_jsonable(), "validation": validate_ring_family(M, got).to_jsonable()}
            rng = np.random.default_rng([29, int(L), k])
            for n in (1, 2, 3):
                z = []
                for _ in range(n):
                    v = rng.standard_normal(M.size)
                    z.append(LipFunction(v / lip_seminorm(M, LipFunction(v))))
                built = ivakhno_construct(M, z, got)
                for kk in range(1, len(built) + 1):
                    yield ivakhno_verify(M, z, built, kk, got).to_jsonable()
        else:
            yield {"pairs_examined": got.pairs_examined, "accepted": got.accepted}
    for mi, text in enumerate(MODULES):
        module = parse_space(text)
        e = extreme_unit_section(module)
        rng = np.random.default_rng([31, mi])
        sets = [[j] for j in range(module.base_size)]
        for n in (1, 2, 3):
            z = []
            for _ in range(n):
                sec = FunctionModuleSection(rng.standard_normal((module.base_size, dim(module.fiber))))
                s = module_section_norm(module, sec)
                z.append(FunctionModuleSection(sec.values / s) if s > 1.0 else sec)
            built = centralizer_construct(module, z, e, sets)
            for m in range(1, module.base_size + 1):
                yield centralizer_verify(module, z, built, m).to_jsonable()
    for text, n, seed in CEILINGS:
        got = constructive_dk_upper(parse_space(text), n, 0.25, range(1, 8), panel=4, seed=seed)
        yield {"target": text, "ceilings": sorted(got.items())}
    for n, seed in ANNULUS_CEILINGS:
        got = constructive_dk_upper(geometric_chain(0.01, 12), n, 0.5, range(1, 5), panel=4, seed=seed)
        yield {"target": "chain(0.01,12)", "ceilings": sorted(got.items())}


def results():
    """The jsonable result of every call of the bounds roster, in a fixed order."""
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


def digest(outs):
    """The sha256 hex digest over a sequence of jsonable results, and their count."""
    total, count = hashlib.sha256(), 0
    for out in outs:
        total.update(json.dumps(out, sort_keys=True).encode())
        count += 1
    return total.hexdigest(), count


def main() -> int:
    code = 0
    for name, outs in (("bounds", results()), ("certificates", certificate_results())):
        got = digest(outs)
        print(f"{name}: {got[0]}  {got[1]} results")
        if got != EXPECTED[name]:
            want = EXPECTED[name]
            print(f"{name}: expected {want[0]}  {want[1]} results: a value moved", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
