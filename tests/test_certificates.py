"""Ring-family search, the two constructive panels, and their verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullgap.certificates import (
    CertificateReport,
    FunctionModuleSection,
    RingEntry,
    RingFamily,
    RingSearchExhausted,
    centralizer_construct,
    centralizer_verify,
    extreme_unit_section,
    find_ring_family,
    ivakhno_construct,
    ivakhno_verify,
    module_section_norm,
    validate_ring_family,
)
from hullgap.errors import ParameterError, PreconditionError
from hullgap.hullgeom import (
    STRICTNESS_TOL,
    CmParams,
    ConvexDecomposition,
    validate_decomposition,
)
from hullgap.lipmetric import (
    FiniteMetricSpace,
    LipFunction,
    geometric_chain,
    integer_ray,
    line_metric,
    lip_seminorm,
)
from hullgap.spaces import INF, FunctionModule, LpFinite, dim, norm, parse_space


# --- independent existence oracle -----------------------------------------
# A candidate pair {i < j} admits a ring iff the extremal radii already do:
# shrinking only helps disjointness, so k disjoint rings exist for some
# admissible radii iff they exist for r = rho*eps/(2+eps), R = rho*(2+eps)/eps
# (both ratio conditions hold with equality there).  Exhaustive DFS over the
# minimal-ring masks then decides existence exactly.


def minimal_ring_mask(M, t, tau, eps):
    rho = M.d(t, tau)
    r = rho * eps / (2.0 + eps)
    R = rho * (2.0 + eps) / eps
    return frozenset(
        s for s in range(M.size) if r < M.d(t, s) <= R
    )


def exists_k_disjoint_rings(M, eps, k):
    masks = sorted(
        {
            minimal_ring_mask(M, i, j, eps)
            for i in range(M.size)
            for j in range(i + 1, M.size)
        },
        key=len,
    )

    def dfs(start, used, need):
        if need == 0:
            return True
        for a in range(start, len(masks)):
            if not masks[a] & used:
                if dfs(a + 1, used | masks[a], need - 1):
                    return True
        return False

    return dfs(0, frozenset(), k)


def unit_seminorm_tuple(M, rng, n):
    out = []
    for _ in range(n):
        v = rng.uniform(-1.0, 1.0, M.size)
        f = LipFunction(v / lip_seminorm(M, LipFunction(v)))
        out.append(f)
    return out


# --- one-at-a-time references of the array kernels ------------------------


def ring_indices_reference(M, e):
    row = M.dist[e.t]
    return tuple(s for s in range(M.size) if e.r < row[s] <= e.R)


def ring_family_reference(M, eps, k):
    """The search over candidates built by boolean masks, first found family."""
    realized = np.unique(M.dist)

    def snap_down(x, keep):
        below = realized[(realized <= x) & (realized > 0.0)]
        if below.shape[0] and keep(float(below[-1])):
            return float(below[-1])
        return x

    pairs = sorted(((M.d(i, j), i, j) for i in range(M.size) for j in range(i + 1, M.size)),
                   key=lambda p: (-p[0], p[1], p[2]))
    cands, seen = [], set()
    for rho, t, tau in pairs:
        r = snap_down(0.5 * rho * eps / (2.0 + eps),
                      lambda c: 0.0 < c < rho and 2.0 * c / (rho - c) <= eps)
        R = snap_down(2.0 * rho * (2.0 + eps) / eps,
                      lambda c: c > rho and 2.0 * rho / (c - rho) <= eps)
        entry = RingEntry(t, tau, r, rho, R)
        ring = frozenset(ring_indices_reference(M, entry))
        if ring not in seen:
            seen.add(ring)
            cands.append((entry, ring))
    cands.sort(key=lambda c: (len(c[1]), -c[0].rho, c[0].t, c[0].tau))

    def dfs(start, chosen, taken):
        if len(chosen) == k:
            return chosen
        for a in range(start, len(cands)):
            if not cands[a][1] & taken:
                got = dfs(a + 1, chosen + [cands[a][0]], taken | cands[a][1])
                if got:
                    return got
        return None

    return dfs(0, [], frozenset())


def centralizer_report_reference(module, z, constructed, m):
    """The named checks of centralizer_verify, one spaces.norm row at a time."""
    k = len(z)
    checks = []
    for j in range(m):
        tup = constructed[j]
        sup = max(norm(module, c.values.reshape(-1)) for c in tup)
        checks.append((f"sup-bound[{j}]", sup, 1.0 + 1e-12))
        tot = np.sum([c.values for c in tup], axis=0)
        checks.append((f"mean-bound[{j}]", norm(module, tot.reshape(-1)) / k, 1.0 - 1e-12))
    for i in range(k):
        avg = np.mean([constructed[j][i].values for j in range(m)], axis=0)
        checks.append((f"mix-approx[{i}]", norm(module, (z[i].values - avg).reshape(-1)),
                       2.0 / m + 1e-12))
    return [(name, value, bound, value >= bound if name.startswith("mean") else value <= bound)
            for name, value, bound in checks]


class TestRingSearch:
    def test_chain_supports_three_rings(self):
        M = geometric_chain(0.01, 12)
        assert exists_k_disjoint_rings(M, 0.5, 3)
        fam = find_ring_family(M, 0.5, 3)
        assert isinstance(fam, RingFamily)
        assert len(fam.entries) >= 3
        assert validate_ring_family(M, fam).passed

    def test_ray_supports_two_rings(self):
        M = integer_ray(10, 4.0)
        assert exists_k_disjoint_rings(M, 0.5, 2)
        fam = find_ring_family(M, 0.5, 2)
        assert isinstance(fam, RingFamily)
        assert len(fam.entries) >= 2
        assert validate_ring_family(M, fam).passed

    def test_two_point_space_exhausts(self):
        M = line_metric([0.0, 1.0])
        assert not exists_k_disjoint_rings(M, 0.5, 2)
        out = find_ring_family(M, 0.5, 2)
        assert isinstance(out, RingSearchExhausted)

    def test_rejects_bad_parameters(self):
        M = line_metric([0.0, 1.0])
        with pytest.raises(ParameterError):
            find_ring_family(M, 0.0, 1)
        with pytest.raises(ParameterError):
            find_ring_family(M, 0.5, 0)

    def test_validation_catches_tampering(self):
        M = geometric_chain(0.01, 12)
        fam = find_ring_family(M, 0.5, 2)
        good = fam.entries[0]
        # inner radius pushed past its ratio condition
        bad = RingEntry(good.t, good.tau, good.rho * 0.9, good.rho, good.R)
        rep = validate_ring_family(M, RingFamily([bad], fam.epsilon))
        assert not rep.passed
        assert any("inner-ratio" in c.name and not c.passed for c in rep.checks)

    def test_validation_catches_wrong_rho(self):
        M = geometric_chain(0.01, 12)
        fam = find_ring_family(M, 0.5, 2)
        g = fam.entries[0]
        bad = RingEntry(g.t, g.tau, g.r, g.rho * 1.0001, g.R)
        rep = validate_ring_family(M, RingFamily([bad], fam.epsilon))
        assert not rep.passed

    def test_validation_catches_overlap(self):
        M = geometric_chain(0.01, 12)
        fam = find_ring_family(M, 0.5, 2)
        doubled = RingFamily(list(fam.entries) + [fam.entries[0]], fam.epsilon)
        rep = validate_ring_family(M, doubled)
        assert any("disjoint" in c.name and not c.passed for c in rep.checks)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(5, 10))
    def test_search_results_always_validate(self, seed, npts):
        rng = np.random.default_rng(seed)
        pts = np.cumsum(rng.uniform(0.1, 5.0, npts))
        M = line_metric([0.0] + pts.tolist())
        out = find_ring_family(M, 0.4, 2)
        if isinstance(out, RingFamily):
            assert validate_ring_family(M, out).passed

    def test_ring_indices_equal_the_boolean_reference(self):
        rng = np.random.default_rng(2304)
        for _ in range(40):
            M = geometric_chain(float(rng.uniform(0.005, 0.6)), int(rng.integers(3, 16)))
            t, tau = (int(x) for x in rng.choice(M.size, 2, replace=False))
            # radii on realized distances too, where < and <= decide
            r, R = sorted(rng.choice(np.unique(M.dist), 2, replace=False).tolist())
            for e in (RingEntry(t, tau, r, M.d(t, tau), R),
                      RingEntry(t, tau, r * rng.uniform(0.5, 1.5), M.d(t, tau), R * rng.uniform(0.5, 1.5))):
                assert e.ring_indices(M) == ring_indices_reference(M, e)

    def test_candidates_equal_the_boolean_reference(self):
        # the same candidates in the same order give the same first family
        rng = np.random.default_rng(2305)
        for trial in range(40):
            if trial % 4 == 3:
                # quarter-integer points and eps = 2: the unsnapped radii
                # rho / 4 and 4 rho are often realized distances themselves
                pts = np.sort(rng.choice(np.arange(0.0, 64.0, 0.25), int(rng.integers(4, 12)),
                                         replace=False))
                M, eps = line_metric(pts.tolist()), 2.0
            else:
                M = geometric_chain(float(rng.uniform(0.005, 0.3)), int(rng.integers(4, 14)))
                eps = float(rng.uniform(0.3, 1.0))
            k = int(rng.integers(1, 4))
            want = ring_family_reference(M, eps, k)
            got = find_ring_family(M, eps, k)
            if want is None:
                assert isinstance(got, RingSearchExhausted)
            else:
                assert isinstance(got, RingFamily) and list(got.entries) == want

    def test_family_roundtrips_to_json(self):
        M = geometric_chain(0.01, 12)
        fam = find_ring_family(M, 0.5, 3)
        data = fam.to_jsonable()
        back = RingFamily.from_jsonable(data)
        assert back.entries == fam.entries and back.epsilon == fam.epsilon


class TestIvakhnoPanel:
    EPS = 0.5

    def make(self, n=2, seed=5):
        M = geometric_chain(0.01, 12)
        fam = find_ring_family(M, self.EPS, 3)
        rng = np.random.default_rng(seed)
        z = unit_seminorm_tuple(M, rng, n)
        return M, fam, z

    def test_empty_family_constructs_nothing(self):
        M, fam, z = self.make()
        assert ivakhno_construct(M, z, RingFamily([], self.EPS)) == []

    def test_zero_function_branch(self):
        M, fam, _ = self.make()
        zero = [LipFunction(np.zeros(M.size))]
        built = ivakhno_construct(M, zero, fam)
        for entry, tup in zip(fam.entries, built):
            f = tup[0]
            # flat except a bump of height rho at the far ring point
            assert f.values[entry.tau] == pytest.approx(entry.rho)
            assert f.values[entry.t] == 0.0
            assert lip_seminorm(M, f) <= 1.0 + self.EPS + 1e-9

    def test_constructed_tuples_verify(self):
        M, fam, z = self.make()
        built = ivakhno_construct(M, z, fam)
        assert len(built) == len(fam.entries)
        for k in range(1, len(built) + 1):
            rep = ivakhno_verify(M, z, built, k, family=fam)
            assert rep.passed, [c.name for c in rep.checks if not c.passed]

    def test_witness_quotient_is_exactly_one(self):
        M, fam, z = self.make()
        built = ivakhno_construct(M, z, fam)
        n = len(z)
        for entry, tup in zip(fam.entries, built):
            tot = sum(f.values for f in tup)
            q = abs(tot[entry.tau] - tot[entry.t]) / (n * entry.rho)
            assert q == pytest.approx(1.0, abs=1e-12)

    def test_mix_bound_at_three(self):
        M, fam, z = self.make()
        built = ivakhno_construct(M, z, fam)
        rep = ivakhno_verify(M, z, built, 3, family=fam)
        mix = [c for c in rep.checks if c.name.startswith("mix-approx")]
        assert mix and all(c.value <= (4.0 + 2.0 * self.EPS) / 3.0 + 1e-9 for c in mix)

    def test_single_average_bound_is_loose(self):
        M, fam, z = self.make()
        built = ivakhno_construct(M, z, fam)
        rep = ivakhno_verify(M, z, built, 1, family=fam)
        assert rep.passed

    def test_rescaled_tuples_are_plain_members(self):
        M, fam, z = self.make()
        built = ivakhno_construct(M, z, fam)
        n = len(z)
        for tup in built:
            scaled = [LipFunction(f.values / (1.0 + self.EPS)) for f in tup]
            sup = max(lip_seminorm(M, f) for f in scaled)
            mean = lip_seminorm(M, LipFunction(np.sum([f.values for f in scaled], axis=0))) / n
            assert sup <= 1.0 + STRICTNESS_TOL
            assert mean > 1.0 - self.EPS - STRICTNESS_TOL

    def test_rejects_oversized_seminorm(self):
        M, fam, _ = self.make()
        v = np.zeros(M.size)
        v[1] = 2.0 * M.d(0, 1)
        with pytest.raises(PreconditionError, match="seminorm"):
            ivakhno_construct(M, [LipFunction(v)], fam)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_bounds_hold_on_random_instances(self, seed, n):
        M = geometric_chain(0.02, 10)
        fam = find_ring_family(M, 0.6, 2)
        assert isinstance(fam, RingFamily)
        rng = np.random.default_rng(seed)
        z = unit_seminorm_tuple(M, rng, n)
        built = ivakhno_construct(M, z, fam)
        for k in (1, len(built)):
            rep = ivakhno_verify(M, z, built, k, family=fam)
            assert rep.passed
            assert all(c.slack >= -1e-9 for c in rep.checks)


def scalar_module(base):
    return FunctionModule(base, LpFinite(2.0, 1))


def const_section(base, value):
    return FunctionModuleSection(np.full((base, 1), float(value)))


class TestCentralizerPanel:
    def test_rejects_non_unit_extreme_section(self):
        mod = scalar_module(4)
        e = FunctionModuleSection(np.array([[1.0], [1.0], [0.5], [1.0]]))
        with pytest.raises(PreconditionError, match="2"):
            centralizer_construct(mod, [const_section(4, 0.0)], e, [[0], [1]])

    def test_rejects_overlapping_sets(self):
        mod = scalar_module(4)
        e = const_section(4, 1.0)
        with pytest.raises(ParameterError, match="disjoint"):
            centralizer_construct(mod, [const_section(4, 0.0)], e, [[0, 1], [1, 2]])

    def test_full_base_set_replaces_everything(self):
        mod = scalar_module(4)
        e = const_section(4, 1.0)
        x = FunctionModuleSection(np.array([[0.1], [-0.2], [0.3], [0.0]]))
        built = centralizer_construct(mod, [x, x], e, [list(range(4))])
        assert len(built) == 1
        for comp in built[0]:
            assert np.allclose(comp.values, e.values)

    def test_extreme_tuple_is_fixed_point(self):
        mod = scalar_module(5)
        e = const_section(5, 1.0)
        built = centralizer_construct(mod, [e, e, e], e, [[0], [2], [4]])
        for tup in built:
            for comp in tup:
                assert np.allclose(comp.values, e.values)

    def test_random_sections_verify(self):
        base, k, m = 8, 3, 8
        mod = scalar_module(base)
        e = const_section(base, 1.0)
        rng = np.random.default_rng(17)
        zs = [FunctionModuleSection(rng.uniform(-1.0, 1.0, (base, 1))) for _ in range(k)]
        sets = [[j] for j in range(m)]
        built = centralizer_construct(mod, zs, e, sets)
        rep = centralizer_verify(mod, zs, built, m)
        assert rep.passed
        mix = [c for c in rep.checks if c.name.startswith("mix-approx")]
        assert mix and all(c.value <= 2.0 / m + 1e-12 for c in mix)

    def test_opposite_extreme_attains_the_bound(self):
        # z = -e on singleton sets realizes 2/m exactly
        base, m = 6, 6
        mod = scalar_module(base)
        e = const_section(base, 1.0)
        z = [const_section(base, -1.0)] * 2
        built = centralizer_construct(mod, z, e, [[j] for j in range(m)])
        rep = centralizer_verify(mod, z, built, m)
        mix = [c for c in rep.checks if c.name.startswith("mix-approx")]
        assert all(c.value == pytest.approx(2.0 / m, abs=1e-12) for c in mix)

    def test_section_norm_matches_flat_norm(self):
        mod = scalar_module(3)
        s = FunctionModuleSection(np.array([[0.5], [-2.0], [1.0]]))
        assert module_section_norm(mod, s) == pytest.approx(2.0)

    def test_constructed_tuples_are_hull_members(self):
        # scalar-fiber module with d base points carries the sup-norm space,
        # so the panel's average is a genuine decomposition there
        base, k, m = 4, 2, 3
        mod = scalar_module(base)
        e = const_section(base, 1.0)
        rng = np.random.default_rng(3)
        zs = [FunctionModuleSection(rng.uniform(-1.0, 1.0, (base, 1))) for _ in range(k)]
        built = centralizer_construct(mod, zs, e, [[0], [1], [2]])
        params = CmParams(n=k, epsilon=0.3, m=m)
        gens = [
            np.concatenate([comp.values.reshape(-1) for comp in tup])
            for tup in built
        ]
        dec = ConvexDecomposition(np.full(m, 1.0 / m), gens)
        assert validate_decomposition(mod, params, dec)

    @pytest.mark.parametrize("text", [
        "fmod(4, lp(2,2))", "fmod(6, lp(inf,1))", "fmod(3, dsum(1, lp(1,2), lp(3,1)))",
        "fmod(5, lp(1.5,3))", "fmod(3, sup(2, lp(2,2)))",
    ])
    def test_report_equals_the_one_row_reference(self, text):
        module = parse_space(text)
        rng = np.random.default_rng([2306, module.base_size])
        e = extreme_unit_section(module)
        sets = [[j] for j in range(module.base_size)]
        for n in (1, 2, 3):
            z = []
            for _ in range(n):
                sec = FunctionModuleSection(rng.standard_normal((module.base_size, dim(module.fiber))))
                s = module_section_norm(module, sec)
                z.append(FunctionModuleSection(sec.values / s * rng.uniform(0.3, 1.0)))
            built = centralizer_construct(module, z, e, sets)
            # and a tampered copy, each section rescaled, whose checks may fail
            tampered = [[FunctionModuleSection(c.values * rng.uniform(0.5, 1.5)) for c in tup]
                        for tup in built]
            for tuples in (built, tampered):
                for m in range(1, module.base_size + 1):
                    rep = centralizer_verify(module, z, tuples, m)
                    got = [(c.name, c.value, c.bound, c.passed) for c in rep.checks]
                    assert got == centralizer_report_reference(module, z, tuples, m)

    def test_wrong_shape_section_is_refused(self):
        mod = scalar_module(4)
        e = const_section(4, 1.0)
        z = [const_section(4, 0.5)]
        built = centralizer_construct(mod, z, e, [[0], [3]])
        built[1] = [FunctionModuleSection(np.zeros((2, 2)))]
        assert centralizer_verify(mod, z, built, 1).passed
        with pytest.raises(ParameterError, match="section has shape"):
            centralizer_verify(mod, z, built, 2)
        # a (4, 2) component is refused by its shape, before any arithmetic on it
        with pytest.raises(ParameterError, match="component 0 has shape"):
            centralizer_verify(mod, [FunctionModuleSection(np.zeros((4, 2)))], built, 1)

    def test_report_roundtrips_to_json(self):
        mod = scalar_module(4)
        e = const_section(4, 1.0)
        z = [const_section(4, 0.5)]
        built = centralizer_construct(mod, z, e, [[0], [3]])
        rep = centralizer_verify(mod, z, built, 2)
        data = rep.to_jsonable()
        assert data["passed"] is True
        assert all({"name", "value", "bound", "slack", "passed"} <= set(c) for c in data["checks"])
