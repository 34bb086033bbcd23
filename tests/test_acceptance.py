"""Gate criteria: eight end-to-end checks with pinned tolerances.

Every numeric window and runtime cap here is frozen; loosening one is a
release decision, not a test fix.  Each test emits a single verdict line
through the ``gate`` fixture (see conftest), printed after the run.
"""

import numpy as np
import pytest

from hullgap.errors import CapabilityRefusal
from hullgap.spaces import INF, FunctionModule, LpFinite, SupTuple, dim
from hullgap.hullgeom import GRID_GUARD, CmParams, dist_to_cm_upper, min_norm_point
from hullgap.lipmetric import (
    LipFunction,
    geometric_chain,
    line_metric,
    lip_seminorm,
    mcshane_extend,
    restricted_seminorm,
)
from hullgap.certificates import (
    FunctionModuleSection,
    RingFamily,
    centralizer_construct,
    centralizer_verify,
    find_ring_family,
    ivakhno_construct,
    ivakhno_verify,
)
from hullgap.dkprofile import _adversaries, constructive_dk_upper, estimate_dk
from hullgap.cli import EXIT_OK, main


def test_criterion_1_scalar_grid_profile(gate):
    # X = the reals, n=2, eps=0.1, alpha=1, grid step 0.01: the certified
    # bracket must pin k=1 inside [1.75, 1.85] and k=2..4 inside [0.85, 0.95],
    # with the sign-flip pair as the winning adversary.
    with gate.criterion(1, "scalar grid profile", cap_seconds=120):
        space = LpFinite(2.0, 1)
        prof = estimate_dk(
            space, n=2, epsilon=0.1, alpha=1.0, k_range=(1, 2, 3, 4),
            seed=0, resolution=0.01,
        )
        b1 = prof.bracket(1)
        assert 1.75 <= b1.lower <= b1.upper <= 1.85, (b1.lower, b1.upper)
        for k in (2, 3, 4):
            b = prof.bracket(k)
            assert 0.85 <= b.lower <= b.upper <= 0.95, (k, b.lower, b.upper)
        wid = b1.meta["witness_id"]
        cand = dict(_adversaries(space, 2, 8, 0))[wid]
        assert np.allclose(np.abs(cand), 1.0)
        assert abs(cand[0] + cand[1]) <= 1e-12


def test_criterion_2_annulus_certificates(gate):
    # chain q=0.01 with 12 levels, eps=0.5: a ring family of size >= 3 exists,
    # and over 50 random unit-seminorm tuples every certificate passes with
    # sup <= 1.5 + 1e-9, witness >= 1 - 1e-9, approximation <= 5/k + 1e-9.
    with gate.criterion(2, "annulus certificate workload", cap_seconds=60):
        M = geometric_chain(0.01, 12)
        eps = 0.5
        found = find_ring_family(M, eps, 3)
        assert isinstance(found, RingFamily), found
        assert len(found.entries) >= 3
        fam = RingFamily(found.entries[:3], eps)
        rng = np.random.default_rng(202)
        for trial in range(50):
            n = (trial % 3) + 1
            z = []
            for _ in range(n):
                v = rng.standard_normal(M.size)
                z.append(LipFunction(v / lip_seminorm(M, LipFunction(v))))
            constructed = ivakhno_construct(M, z, fam, eps)
            for k in (1, 2, 3):
                rep = ivakhno_verify(M, z, constructed, k, eps, fam)
                assert rep.passed, (trial, k, [c.name for c in rep.failing()])
                for c in rep.checks:
                    if c.name.startswith("sup-bound"):
                        assert c.value <= 1.5 + 1e-9, (trial, c)
                    elif c.name.startswith("mean-bound"):
                        assert c.value >= 1.0 - 1e-9, (trial, c)
                    else:
                        assert c.value <= 5.0 / k + 1e-9, (trial, c)


def test_criterion_3_partition_certificates(gate):
    # 8-point base with scalar sup fiber, e = the all-ones section: 100 random
    # tuples pass every check with approximation <= 2/m + 1e-12, and the
    # tuple z = -e attains 2/m exactly on singleton sets.
    with gate.criterion(3, "partition certificate workload", cap_seconds=30):
        module = FunctionModule(8, LpFinite(INF, 1))
        e = FunctionModuleSection(np.ones((8, 1)))
        sets = [[j] for j in range(8)]
        rng = np.random.default_rng(303)
        for trial in range(100):
            k = (trial % 3) + 1
            z = [
                FunctionModuleSection(rng.uniform(-1.0, 1.0, size=(8, 1)))
                for _ in range(k)
            ]
            constructed = centralizer_construct(module, z, e, sets)
            for m in (1, 2, 4, 8):
                rep = centralizer_verify(module, z, constructed, m)
                assert rep.passed, (trial, m, [c.name for c in rep.failing()])
                for c in rep.checks:
                    if c.name.startswith("mix-approx"):
                        assert c.value <= 2.0 / m + 1e-12, (trial, m, c)
        for k in (1, 2, 3):
            z = [FunctionModuleSection(-np.ones((8, 1))) for _ in range(k)]
            constructed = centralizer_construct(module, z, e, sets)
            for m in (1, 2, 4, 8):
                rep = centralizer_verify(module, z, constructed, m)
                mix = [c for c in rep.checks if c.name.startswith("mix-approx")]
                assert mix
                for c in mix:
                    assert abs(c.value - 2.0 / m) <= 1e-12, (k, m, c)


def test_criterion_4_three_way_consistency(gate):
    # sup norm in dimension 8, eps=0.2, n=3: for every k <= 8 the swept
    # estimate stays under the constructive ceiling 2/k + 1e-9.  The ambient
    # dimension is 24, so no grid in the ladder fits under the point cap and
    # the certified-lower clause is vacuous (checked, not assumed).
    with gate.criterion(4, "three-way consistency sweep", cap_seconds=600):
        space = LpFinite(INF, 8)
        ks = tuple(range(1, 9))
        prof = estimate_dk(space, n=3, epsilon=0.2, alpha=1.0, k_range=ks, seed=0)
        ceilings = constructive_dk_upper(space, 3, 0.2, ks, seed=0)
        grid_entries = 0
        for k in ks:
            b = prof.bracket(k)
            assert b.upper <= 2.0 / k + 1e-9, (k, b.upper)
            assert b.upper <= ceilings[k] + 1e-9, (k, b.upper, ceilings[k])
            if b.lower_method != "none":
                grid_entries += 1
                assert b.lower <= b.upper + 1e-12, (k, b.lower, b.upper)
        assert grid_entries == 0
        with pytest.raises(CapabilityRefusal) as exc:
            estimate_dk(space, n=3, epsilon=0.2, k_range=(1,), seed=0,
                        resolution=0.25)
        assert exc.value.report["grid_points"] > GRID_GUARD


def test_criterion_5_upper_bound_monotonicity(gate):
    # 20 random configurations: the upper bound is nonincreasing in m, eps,
    # and alpha, and the widened-alpha variant never exceeds the plain value.
    # Zero violations at 1e-9.
    with gate.criterion(5, "upper-bound monotonicity"):
        rng = np.random.default_rng(505)
        pool = [
            LpFinite(2.0, 2), LpFinite(1.0, 2), LpFinite(INF, 3),
            LpFinite(2.0, 3), SupTuple(2, LpFinite(INF, 2)), LpFinite(3.0, 2),
        ]
        violations = []
        for cfg in range(20):
            space = pool[cfg % len(pool)]
            n = int(rng.integers(1, 4))
            eps = float(rng.uniform(0.05, 0.45))
            z = rng.standard_normal(n * dim(space)) * float(rng.uniform(0.5, 2.0))

            def up(params):
                return dist_to_cm_upper(space, z, params, budget=6, seed=cfg).upper

            base = CmParams(n, eps, 1.0, 1)
            by_m = [up(base.with_m(m)) for m in (1, 2, 4)]
            for a, b in zip(by_m, by_m[1:]):
                if b > a + 1e-9:
                    violations.append(("m", cfg, a, b))
            lo, hi = up(CmParams(n, eps, 1.0, 2)), up(CmParams(n, min(0.9, eps + 0.3), 1.0, 2))
            if hi > lo + 1e-9:
                violations.append(("eps", cfg, lo, hi))
            lo, hi = up(CmParams(n, eps, 1.0, 2)), up(CmParams(n, eps, 1.5, 2))
            if hi > lo + 1e-9:
                violations.append(("alpha", cfg, lo, hi))
            if up(CmParams(n, eps, 1.0 + eps, 1)) > up(base) + 1e-9:
                violations.append(("widened", cfg))
        assert violations == []


def test_criterion_6_extension_and_seminorm_laws(gate):
    # 200 random instances: the extension agrees on the mask and its global
    # seminorm equals the restricted one within 1e-12.  1000 random pairs:
    # absolute homogeneity and subadditivity of the seminorm.
    with gate.criterion(6, "extension and seminorm laws"):
        rng = np.random.default_rng(606)
        for _ in range(200):
            size = int(rng.integers(2, 11))
            pts = np.cumsum(rng.uniform(0.05, 2.0, size)) + float(rng.uniform(-5, 5))
            M = line_metric(pts)
            mask_size = int(rng.integers(1, size + 1))
            mask = tuple(sorted(rng.choice(size, mask_size, replace=False).tolist()))
            vals = rng.standard_normal(size)
            f = LipFunction(vals, mask=mask)
            L = restricted_seminorm(M, f)
            ext = mcshane_extend(M, f, L)
            idx = np.array(mask, dtype=int)
            assert np.array_equal(ext.values[idx], vals[idx])
            assert abs(lip_seminorm(M, ext) - L) <= 1e-12, (mask, L)
        for _ in range(1000):
            size = int(rng.integers(2, 9))
            M = line_metric(np.cumsum(rng.uniform(0.1, 2.0, size)))
            fv = rng.standard_normal(size)
            gv = rng.standard_normal(size)
            c = float(rng.uniform(-3.0, 3.0))
            sf = lip_seminorm(M, LipFunction(fv))
            sg = lip_seminorm(M, LipFunction(gv))
            sc = lip_seminorm(M, LipFunction(c * fv))
            assert abs(sc - abs(c) * sf) <= 1e-12 * max(1.0, abs(c) * sf)
            assert lip_seminorm(M, LipFunction(fv + gv)) <= sf + sg + 1e-12


def test_criterion_7_solver_certification(gate):
    # 100 random hull instances (<= 20 generators, dimension <= 12): the
    # solver's certified gap stays under 1e-9.  50 two-generator Euclidean
    # instances match the segment-projection closed form within 1e-10.
    with gate.criterion(7, "hull solver gaps"):
        rng = np.random.default_rng(707)
        pool = [
            LpFinite(2.0, 4), LpFinite(INF, 6), LpFinite(1.0, 5),
            LpFinite(2.0, 12), SupTuple(3, LpFinite(INF, 4)), LpFinite(1.5, 3),
        ]
        for trial in range(100):
            space = pool[trial % len(pool)]
            d = dim(space)
            K = int(rng.integers(1, 21))
            G = rng.standard_normal((K, d))
            z = rng.standard_normal(d) * 1.5
            res = min_norm_point(space, z, list(G))
            assert res.gap <= 1e-9, (trial, res.gap)
            assert res.lower <= res.distance + 1e-12 * (1.0 + res.distance)
        for trial in range(50):
            d = int(rng.integers(2, 7))
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            z = rng.standard_normal(d)
            res = min_norm_point(LpFinite(2.0, d), z, [a, b])
            seg = b - a
            t = float(np.clip(np.dot(z - a, seg) / np.dot(seg, seg), 0.0, 1.0))
            expect = float(np.linalg.norm(z - (a + t * seg)))
            assert abs(res.distance - expect) <= 1e-10, (trial, res.distance, expect)


def test_criterion_8_command_determinism(gate, tmp_path):
    # every subcommand, run twice with the same flags and seed, produces
    # byte-identical output files.
    with gate.criterion(8, "command determinism"):
        runs = {
            "lip": [
                "lip", "--metric", "chain(0.5,6)",
                "--values", "0,0.5,0.25,0.125,0.0625,0.03125",
            ],
            "rings": [
                "rings", "--metric", "chain(0.01,12)", "--eps", "0.5", "--k", "3",
            ],
            "cert": [
                "cert", "--space", "lp(inf,4)", "--n", "2", "--eps", "0.2",
                "--m", "4", "--seed", "5",
            ],
            "dk": [
                "dk", "--space", "lp(2,2)", "--n", "2", "--eps", "0.25",
                "--k", "1..3", "--resolution", "0.25", "--seed", "9",
            ],
        }
        for name, argv in runs.items():
            out = tmp_path / f"{name}.out"
            full = argv + ["--out", str(out)]
            assert main(list(full)) == EXIT_OK, name
            first = out.read_bytes()
            assert first
            assert main(list(full)) == EXIT_OK, name
            assert out.read_bytes() == first, f"{name} output changed between runs"
