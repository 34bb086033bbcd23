"""Hull-set parameters, the certified distance solver, descent uppers, grid brackets."""

import dataclasses
import decimal
import functools
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

import hullgap.dkprofile as dkprofile
import hullgap.hullgeom as hullgeom
from hullgap.dkprofile import _adversaries, estimate_dk
from hullgap.errors import (
    CapabilityRefusal,
    InternalInconsistencyError,
    ParameterError,
)
from hullgap.hullgeom import (
    CmParams,
    ConvexDecomposition,
    DistanceBracket,
    _batch_segment_min,
    cm_member_check,
    dist_to_cm_grid,
    dist_to_cm_upper,
    dual_norm,
    dual_plan,
    grid_guard_report,
    mean_norm_evaluator,
    min_norm_point,
    norm_evaluator,
    norm_plan,
    require_nonempty,
    validate_decomposition,
)
from hullgap.spaces import (
    INF,
    DimensionMismatch,
    DirectSum,
    FunctionModule,
    LpFinite,
    SupTuple,
    canonical_unit,
    dim,
    format_space,
    norm,
    parse_space,
)

SCALARS = LpFinite(2.0, 1)
PLANE = LpFinite(INF, 2)

POOL = [
    LpFinite(INF, 3),
    LpFinite(1.0, 3),
    LpFinite(2.0, 4),
    LpFinite(3.0, 3),
    SupTuple(2, LpFinite(2.0, 2)),
    DirectSum(1.0, LpFinite(2.0, 2), LpFinite(INF, 2)),
    DirectSum(INF, LpFinite(1.0, 2), LpFinite(2.0, 2)),
]

# the norm-machinery properties also cover modules and three-level nesting;
# POOL itself stays as it is, so the seeded solver loops draw what they drew
NORM_POOL = POOL + [
    FunctionModule(3, LpFinite(2.0, 2)),
    SupTuple(2, DirectSum(2.0, LpFinite(1.0, 2), LpFinite(INF, 2))),
]

# the plan must also compile one-coordinate atoms, which are |x| for every
# p, and group equal kids: the curved ambients of the benchmark's queries
# workload, the atoms of a module, and kids strided by a one-coordinate atom
PLAN_POOL = NORM_POOL + [
    LpFinite(2.0, 1),
    FunctionModule(1, LpFinite(3.0, 1)),
    SupTuple(6, LpFinite(INF, 1)),
    SupTuple(2, LpFinite(4.0, 2)),
    SupTuple(2, LpFinite(1.5, 2)),
    SupTuple(2, DirectSum(2.0, LpFinite(1.0, 2), LpFinite(INF, 1))),
    SupTuple(2, FunctionModule(3, LpFinite(2.0, 2))),
    SupTuple(2, SupTuple(2, DirectSum(INF, LpFinite(1.0, 2), LpFinite(2.0, 1)))),
]

# the segment search: every plan of PLAN_POOL, flat sup-norm ambients, an
# l_1 composite and a one-coordinate atom
SEGMENT_POOL = PLAN_POOL + [
    SupTuple(2, LpFinite(INF, 3)),
    SupTuple(3, LpFinite(INF, 4)),
    DirectSum(1.0, LpFinite(INF, 2), SupTuple(2, LpFinite(1.0, 2))),
    SupTuple(2, LpFinite(2.0, 1)),
]

# every atom and combiner has p in {1, inf}: one LP solves the hull problem
POLYHEDRAL_POOL = [
    LpFinite(INF, 3),
    LpFinite(1.0, 4),
    SupTuple(2, LpFinite(1.0, 2)),
    DirectSum(1.0, LpFinite(INF, 2), LpFinite(1.0, 3)),
    FunctionModule(3, LpFinite(INF, 2)),
    DirectSum(INF, LpFinite(1.0, 2), SupTuple(2, LpFinite(INF, 2))),
]

STAGES = {"vertex", "lp", "norming", "slsqp-primal", "slsqp-dual"}


def criterion_7_instance(seed, trial):
    # replays the draws of test_acceptance's criterion 7 with another seed
    pool = [
        LpFinite(2.0, 4), LpFinite(INF, 6), LpFinite(1.0, 5),
        LpFinite(2.0, 12), SupTuple(3, LpFinite(INF, 4)), LpFinite(1.5, 3),
    ]
    rng = np.random.default_rng(seed)
    for t in range(trial + 1):
        space = pool[t % len(pool)]
        d = dim(space)
        K = int(rng.integers(1, 21))
        G = rng.standard_normal((K, d))
        z = rng.standard_normal(d) * 1.5
    return space, z, G


def certificate_bench_instance(seed, trial):
    # replays the draws of scripts/certificate_bench.py
    pool = [
        LpFinite(INF, 4), LpFinite(1.0, 4), LpFinite(2.0, 5), LpFinite(3.0, 3),
        SupTuple(3, LpFinite(INF, 2)), SupTuple(2, LpFinite(2.0, 3)),
        DirectSum(1.0, LpFinite(2.0, 2), LpFinite(INF, 3)),
        DirectSum(INF, LpFinite(1.0, 3), LpFinite(2.0, 2)),
        SupTuple(2, DirectSum(2.0, LpFinite(1.0, 2), LpFinite(INF, 2))),
    ]
    rng = np.random.default_rng(seed)
    for t in range(trial + 1):
        space = pool[t % len(pool)]
        D = dim(space)
        K = int(rng.integers(2, 21))
        G = rng.uniform(-1.0, 1.0, (K, D))
        z = rng.uniform(-1.5, 1.5, D)
    return space, z, G


def segment_rows(rng, D, T=12):
    # random rows, quarter-grid rows (ties between coordinates, flat
    # bottoms), a zero column of W, V on a kink, hi = 0 and W = 0
    V = rng.uniform(-1.0, 1.0, (T, D))
    W = rng.uniform(-1.0, 1.0, (T, D))
    V[6:] = np.round(4.0 * V[6:]) / 4.0
    W[6:] = np.round(4.0 * W[6:]) / 4.0
    W[1:3, 0] = 0.0
    V[2, -1] = 0.0
    if D > 1:
        V[3, -1] = -V[3, 0]
    hi = rng.uniform(0.0, 2.0, T)
    hi[4] = 0.0
    W[5] = 0.0
    return V, W, hi


def two_gen_scan(space, z, g0, g1):
    # independent segment oracle: dense scan plus golden refinement, built on
    # the scalar norm only (never the vectorized evaluator under test)
    z = np.asarray(z, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    g1 = np.asarray(g1, dtype=float)

    def f(t):
        return norm(space, z - ((1.0 - t) * g0 + t * g1))

    ts = np.linspace(0.0, 1.0, 4001)
    vals = [f(t) for t in ts]
    k = int(np.argmin(vals))
    a, b = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(120):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return min(vals[k], f1, f2, f(a), f(b))


class TestParams:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ParameterError, match="epsilon"):
            CmParams(n=2, epsilon=0.0)
        with pytest.raises(ParameterError, match="epsilon"):
            CmParams(n=2, epsilon=1.2)

    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterError, match="n must"):
            CmParams(n=0, epsilon=0.1)
        with pytest.raises(ParameterError, match="m must"):
            CmParams(n=2, epsilon=0.1, m=0)
        with pytest.raises(ParameterError, match="n must"):
            CmParams(n=2.5, epsilon=0.1)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError, match="alpha"):
            CmParams(n=2, epsilon=0.1, alpha=-1.0)

    def test_derived_params(self):
        p = CmParams(n=3, epsilon=0.2)
        assert p.with_m(5).m == 5 and p.with_m(5).n == 3
        q = p.eps_plus()
        assert q.alpha == pytest.approx(1.2) and q.epsilon == 0.2

    def test_empty_set_detection(self):
        require_nonempty(CmParams(n=2, epsilon=0.1, alpha=0.95))
        with pytest.raises(ParameterError, match="empty"):
            require_nonempty(CmParams(n=2, epsilon=0.1, alpha=0.85))


class TestMemberCheck:
    def test_accepts_boundary_member(self):
        p = CmParams(n=2, epsilon=0.1)
        rep = cm_member_check(SCALARS, p, [1.0, 0.8])
        assert rep.sup_norm == pytest.approx(1.0)
        assert rep.mean_norm == pytest.approx(0.9)
        assert rep.passed

    def test_rejects_weak_mean(self):
        p = CmParams(n=2, epsilon=0.1)
        rep = cm_member_check(SCALARS, p, [1.0, 0.7])
        assert rep.mean_norm == pytest.approx(0.85)
        assert rep.sup_ok and not rep.mean_ok

    def test_rejects_large_sup(self):
        p = CmParams(n=2, epsilon=0.1)
        rep = cm_member_check(SCALARS, p, [1.2, 0.9])
        assert not rep.sup_ok

    def test_widened_bound_admits_more(self):
        p = CmParams(n=2, epsilon=0.1, alpha=1.1)
        assert cm_member_check(SCALARS, p, [1.05, 0.95]).passed


class TestDecompositions:
    def test_count_mismatch(self):
        with pytest.raises(ParameterError, match="weights"):
            ConvexDecomposition([0.5, 0.5], [np.zeros(2)])

    def test_point_is_weighted_average(self):
        dec = ConvexDecomposition([0.25, 0.75], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(dec.point(), [0.25, 0.75])

    def test_validation_limits(self):
        p = CmParams(n=2, epsilon=0.1, m=1)
        good = ConvexDecomposition([1.0], [np.array([1.0, 0.9])])
        two = ConvexDecomposition([0.5, 0.5], [np.array([1.0, 0.9]), np.array([0.9, 1.0])])
        assert validate_decomposition(SCALARS, p, good)
        assert not validate_decomposition(SCALARS, p, two)
        assert validate_decomposition(SCALARS, p.with_m(2), two)
        bad_w = ConvexDecomposition([0.7, 0.7], [np.array([1.0, 0.9])] * 2)
        assert not validate_decomposition(SCALARS, p.with_m(2), bad_w)

    def test_bracket_inversion_detected(self):
        with pytest.raises(InternalInconsistencyError, match="inverted"):
            DistanceBracket(1.0, 0.5, "a", "b")

    def test_bracket_jsonable(self):
        b = DistanceBracket(0.1, 0.2, "grid", "scan", meta={"k": 1})
        out = b.to_jsonable()
        assert out["lower"] == 0.1 and out["meta"] == {"k": 1}


class TestNormMachinery:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(PLAN_POOL) - 1), st.integers(0, 2**31 - 1))
    def test_batch_evaluator_matches_scalar_norm(self, si, seed):
        sp = PLAN_POOL[si]
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, (7, dim(sp)))
        assert norm_evaluator(sp) is norm_plan(sp).evaluate
        batch = norm_plan(sp).evaluate(X)
        for i in range(X.shape[0]):
            assert batch[i] == pytest.approx(norm(sp, X[i]), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(PLAN_POOL) - 1), st.integers(0, 2**31 - 1))
    def test_dual_norm_matches_conjugate_space(self, si, seed):
        # the dual plan's norming candidates at phi lie in the unit ball of the
        # scalar reference norm, and the best one attains dual_norm(phi): with
        # the pairing inequality below, dual_norm is the sup of phi on that ball
        sp = PLAN_POOL[si]
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-2.0, 2.0, dim(sp))
        dn = dual_norm(sp, phi)
        cands = dual_plan(sp).norming(phi)
        assert cands
        assert phi @ cands[0][1] == pytest.approx(dn, abs=1e-12)
        for val, x in cands:
            assert val == phi @ x
            assert norm(sp, x) <= 1.0 + 1e-12
            assert phi @ x <= dn + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(NORM_POOL) - 1), st.integers(0, 2**31 - 1))
    def test_pairing_inequality(self, si, seed):
        sp = NORM_POOL[si]
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-2.0, 2.0, dim(sp))
        x = rng.uniform(-2.0, 2.0, dim(sp))
        assert abs(phi @ x) <= dual_norm(sp, phi) * norm(sp, x) + 1e-9

    def test_conjugate_exponent_formulas(self):
        phi = np.array([0.5, -2.0, 1.0])
        assert dual_norm(LpFinite(INF, 3), phi) == pytest.approx(3.5)
        assert dual_norm(LpFinite(1.0, 3), phi) == pytest.approx(2.0)
        assert dual_norm(LpFinite(2.0, 3), phi) == pytest.approx(np.linalg.norm(phi))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, len(NORM_POOL) - 1), st.integers(0, 2**31 - 1))
    @example(si=5, seed=915)  # dsum(1, lp(2,2), lp(inf,2)): a near tie in the max part
    def test_norming_cuts_support_the_norm(self, si, seed):
        sp = NORM_POOL[si]
        rng = np.random.default_rng(seed)
        v = rng.uniform(-2.0, 2.0, dim(sp))
        nv = norm(sp, v)
        cuts = [psi for val, psi in hullgeom._norming_functionals(sp, v) if val >= (1.0 - 1e-12) * nv]
        for psi in cuts:
            assert dual_norm(sp, psi) <= 1.0 + 1e-9
            assert psi @ v == pytest.approx(nv, abs=1e-9)

    @pytest.mark.parametrize("p, row", [
        (100.0, [4e-4, 1e-4, 0.0, 0.0]),  # every p-th power underflows to 0
        (30.0, [2e10, 1.0, 1.0]),  # the leading p-th power overflows to inf
    ])
    def test_lp_norm_outside_the_power_range(self, p, row):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            total = sum(abs(decimal.Decimal(x)) ** int(p) for x in row)
            ref = float(total ** (decimal.Decimal(1) / decimal.Decimal(int(p))))
        X = np.array([row, [0.0] * len(row), [1.0] + [0.5] * (len(row) - 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the rows the root redoes warn about nothing
            plan = norm_plan(LpFinite(p, len(row)))
            f = plan.evaluate(X)
            assert np.array_equal(plan.probe(X, np.ones_like(X))[0], f)
            # the same terms under a p-combiner of l1 parts
            comb = norm_plan(DirectSum(p, LpFinite(1.0, 2), LpFinite(1.0, len(row))))
            Y = np.hstack([X[:, :1], np.zeros((3, 1)), X[:, 1:]])
            g = comb.evaluate(Y)
            assert np.array_equal(comb.probe(Y, np.ones_like(Y))[0], g)
        assert abs(f[0] - ref) <= 4 * math.ulp(ref), (f[0], ref)
        assert f[1] == 0.0
        # a row in the normal range keeps the plain sum of powers
        assert f[2] == np.sum(np.abs(X[2]) ** p) ** (1.0 / p)
        assert g[0] == pytest.approx(ref, rel=4e-16) and g[1] == 0.0

    def test_l2_norm_at_the_ends_of_the_float_range(self):
        # the squares leave the float range where the norm does not
        lp_norm = hullgeom._lp_norm
        assert lp_norm(2.0, np.array([[1e-200, 0.0]]))[0] == 1e-200
        assert lp_norm(2.0, np.array([[1e200, 0.0]]))[0] == 1e200
        assert lp_norm(2.0, np.array([[3e200, 4e200]]))[0] == pytest.approx(5e200, rel=4e-16)
        # a row in the normal range keeps the plain root, which is np.sqrt
        X = np.array([[0.3, -1.7], [0.0, 0.0], [2.0, 5e-3]])
        assert np.array_equal(lp_norm(2.0, X), np.sqrt(np.einsum("td,td->t", X, X)))

    def test_l2_probe_sees_no_kink_at_a_tiny_row(self):
        # s -> |1e-200 - s| on the first coordinate: slope -1 on both sides
        r, w = np.array([[1e-200, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])
        f, left, right = norm_plan(LpFinite(2.0, 3)).probe(r, w)
        assert (f[0], left[0], right[0]) == (1e-200, -1.0, -1.0)

    def test_l2_own_term_slopes_at_a_huge_row(self):
        # the norm is 1-homogeneous, so its slopes at c v are those at v
        plan = norm_plan(SupTuple(2, DirectSum(2.0, LpFinite(1.0, 2), LpFinite(INF, 1))))
        v = np.array([[0.4, -0.9, 1.3, 0.2, 0.5, -0.6]])
        w = np.array([[1.0, 0.5, -2.0, 0.3, 0.0, 1.0]])
        f, left, right = plan.probe(v, w)
        F, L, R = plan.probe(1e200 * v, w)
        assert np.isfinite([L[0], R[0]]).all()
        assert F[0] == pytest.approx(1e200 * f[0], rel=1e-15)
        assert (L[0], R[0]) == (pytest.approx(left[0], rel=1e-12), pytest.approx(right[0], rel=1e-12))

    def test_mean_evaluator(self):
        ev = mean_norm_evaluator(SCALARS, 2)
        assert ev(np.array([[1.0, 0.8]]))[0] == pytest.approx(0.9)

    @pytest.mark.parametrize("sp", PLAN_POOL, ids=format_space)
    def test_mean_sup_evaluator_is_both_evaluators(self, sp):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3):
            D = n * dim(sp)
            X = rng.standard_normal((7, D))
            X[1] = 0.0
            X[2, : dim(sp)] = 0.0  # a zero block
            X[3] *= 1e-200
            X[4] *= 1e200
            X[5, -1] = 1e200
            mean, sup = hullgeom._mean_sup_evaluator(sp, n)(X)
            assert mean.tobytes() == mean_norm_evaluator(sp, n)(X).tobytes(), n
            assert sup.tobytes() == norm_evaluator(hullgeom.ambient_space(sp, n))(X).tobytes(), n

    def test_plan_flattens_same_p_nests(self):
        for sp in (SupTuple(6, LpFinite(INF, 1)), SupTuple(3, LpFinite(INF, 4)),
                   DirectSum(1.0, LpFinite(1.0, 2), LpFinite(1.0, 3))):
            plan = norm_plan(sp)
            assert plan.kids == () and plan.cols == slice(0, dim(sp)), sp
        assert norm_plan(SupTuple(6, LpFinite(INF, 1))) is norm_plan(parse_space("sup(6, lp(inf,1))"))
        for sp in (LpFinite(2.0, 1), FunctionModule(1, LpFinite(3.0, 1)), SupTuple(2, LpFinite(2.0, 1))):
            assert norm_plan(sp).polyhedral, sp
        # two one-coordinate atoms under a 2-sum are the Euclidean plane
        for sp in (LpFinite(2.0, 2), DirectSum(2.0, LpFinite(INF, 1), LpFinite(INF, 1))):
            assert not norm_plan(sp).polyhedral, sp


class TestSegmentSearch:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(PLAN_POOL) - 1), st.integers(0, 2**31 - 1))
    def test_probe_matches_evaluator_and_difference_quotients(self, si, seed):
        sp = PLAN_POOL[si]
        plan = norm_plan(sp)
        rng = np.random.default_rng(seed)
        D = dim(sp)
        R = rng.uniform(-1.0, 1.0, (8, D))
        W = rng.uniform(-1.0, 1.0, (8, D))
        R[0] = 0.0  # every term at its kink
        W[1] = 0.0  # a constant line
        R[2, : (D + 1) // 2] = 0.0  # some terms at their kinks
        # ties between terms, away from 0: at a zero coordinate of an l_p term
        # with p < 2 the quotient is off by O(h^(p-1)), not O(h) (row 2 has kinks)
        R[3] = (np.floor(4.0 * R[3]) + 0.5) / 4.0
        f, left, right = plan.probe(R, W)
        assert np.array_equal(f, plan.evaluate(R))
        assert np.all(left <= right)
        # convexity brackets the slopes by the difference quotients, which
        # close in on them as h shrinks
        for h in (1e-3, 1e-5, 1e-7):
            q_right = (plan.evaluate(R - h * W) - f) / h
            q_left = (f - plan.evaluate(R + h * W)) / h
            assert np.all(q_left <= left + 1e-6) and np.all(right <= q_right + 1e-6), h
        assert np.allclose(q_right, right, rtol=0.0, atol=1e-5)
        assert np.allclose(q_left, left, rtol=0.0, atol=1e-5)

    @pytest.mark.parametrize("sp", SEGMENT_POOL, ids=format_space)
    def test_exact_route_matches_brute_force(self, sp):
        D = dim(sp)
        ev = norm_evaluator(sp)
        rng = np.random.default_rng(D)
        ts = np.linspace(0.0, 1.0, 20001)
        for _ in range(5):
            V, W, hi = segment_rows(rng, D)
            t, f = _batch_segment_min(sp, V, W, hi)
            assert np.all((0.0 <= t) & (t <= hi))
            assert t[4] == 0.0 and t[5] == 0.0
            # the returned value is the evaluator's, bit for bit
            assert np.array_equal(f, ev(V - t[:, None] * W))
            for i in range(V.shape[0]):
                scan = ev(V[i][None, :] - (ts * hi[i])[:, None] * W[i][None, :])
                assert f[i] <= float(np.min(scan)) + 1e-12, (i, f[i], float(np.min(scan)))

    def test_exact_route_step_bound_raises(self, monkeypatch):
        # max(|1 - t|, |t/2|) on [0, 2] needs one step; a plan allowing none
        V = np.array([[1.0, 0.0, 0.0]])
        W = np.array([[1.0, -0.5, 0.0]])
        hi = np.array([2.0])
        plan = dataclasses.replace(norm_plan(LpFinite(INF, 3)), pieces=0)
        with monkeypatch.context() as m:
            m.setattr(hullgeom, "norm_plan", lambda space: plan)
            with pytest.raises(InternalInconsistencyError, match="segment search"):
                _batch_segment_min(LpFinite(INF, 3), V, W, hi)
        # the Euclidean ||(1 - t, t/2)|| takes several steps to its minimum
        # sqrt(1/5) at t = 4/5; a curved plan is held to _CURVED_STEPS
        t, f = _batch_segment_min(LpFinite(2.0, 3), V, W, hi)
        assert t[0] == pytest.approx(0.8, abs=1e-7)
        assert f[0] == pytest.approx(math.sqrt(0.2), abs=1e-15)
        monkeypatch.setattr(hullgeom, "_CURVED_STEPS", 1)
        with pytest.raises(InternalInconsistencyError, match="segment search"):
            _batch_segment_min(LpFinite(2.0, 3), V, W, hi)

    def test_rounding_floor_closes_a_near_zero_row(self):
        # a polish row that starts at the hull point itself: its residual is
        # about 1e-16, below what any step along W can resolve, and the row
        # must close at the rounding floor rather than creep for 100 steps
        V = np.array([[-5.55e-17, 2.22e-16, -2.22e-16]])
        W = np.array([[-0.26362297, 3.14031908, 0.05379914]])
        hi = np.array([0.3350132694648844])
        sp = LpFinite(2.0, 3)
        t, f = _batch_segment_min(sp, V, W, hi)
        assert 0.0 <= t[0] <= hi[0]
        assert np.array_equal(f, norm_evaluator(sp)(V - t[:, None] * W))
        assert f[0] <= 1e-15


class TestMinNormPoint:
    def test_rejects_empty_generators(self):
        with pytest.raises(ParameterError, match="nonempty"):
            min_norm_point(PLANE, [0.0, 0.0], [])

    def test_singleton(self):
        res = min_norm_point(PLANE, [1.0, -1.0], [[0.5, 0.5]])
        assert res.distance == pytest.approx(1.5, abs=1e-12)
        assert res.gap <= 1e-9
        assert np.allclose(res.point, [0.5, 0.5])

    def test_vertex_hit(self):
        res = min_norm_point(PLANE, [0.3, 0.7], [[0.3, 0.7], [1.0, 1.0]])
        assert res.distance == 0.0 and res.gap == 0.0

    def test_interior_point(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        z = 0.2 * g[0] + 0.5 * g[1] + 0.3 * g[2]
        res = min_norm_point(LpFinite(2.0, 2), z, g)
        assert res.distance <= 1e-10

    def test_plane_segment_value(self):
        res = min_norm_point(PLANE, [1.0, -1.0], [[1.0, 0.8], [-0.8, -1.0]])
        assert res.distance == pytest.approx(0.9, abs=1e-9)
        assert np.allclose(res.point, [0.1, -0.1], atol=1e-9)
        assert res.gap <= 1e-9
        assert res.converged

    def test_matches_segment_scan(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            sp = POOL[trial % len(POOL)]
            D = dim(sp)
            g0 = rng.uniform(-1.0, 1.0, D)
            g1 = rng.uniform(-1.0, 1.0, D)
            z = rng.uniform(-1.5, 1.5, D)
            res = min_norm_point(sp, z, [g0, g1])
            assert res.distance == pytest.approx(
                two_gen_scan(sp, z, g0, g1), abs=1e-10
            ), f"trial {trial} on {sp}"

    def test_zero_residual_in_grid_hull(self):
        # a point inside the relaxed grid hull: the polished residual is
        # exactly zero, so no norming functional exists and the distance 0
        # is exact
        z = (-0.30745611501811365, -0.35837208652377983, -0.8087053505681521)
        p = CmParams(n=3, epsilon=0.263, alpha=1.0, m=2)
        g = dist_to_cm_grid(SCALARS, z, p, resolution=0.25)
        assert g.lower == 0.0 and g.lower_method == "grid-dual-certificate"
        assert validate_decomposition(SCALARS, p, g.witness)

    def test_random_instances_certify(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            sp = POOL[trial % len(POOL)]
            D = dim(sp)
            K = int(rng.integers(2, 15))
            G = rng.uniform(-1.0, 1.0, (K, D))
            z = rng.uniform(-1.5, 1.5, D)
            res = min_norm_point(sp, z, G)
            assert res.gap <= 1e-9, f"trial {trial} on {sp}"
            assert res.lower <= res.distance + 1e-12
            assert res.stage in STAGES
            # the witness must be a genuine convex combination
            assert np.all(res.weights >= -1e-12)
            assert float(res.weights.sum()) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(res.point, res.weights @ G, atol=1e-12)
            ev = norm_evaluator(sp)
            assert res.distance == pytest.approx(
                float(ev((np.asarray(z) - res.point)[None, :])[0]), abs=1e-12
            )

    def test_polyhedral_norms_take_one_lp(self, monkeypatch):
        calls = []
        original = scipy.optimize.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        rng = np.random.default_rng(17)
        for trial in range(24):
            sp = POLYHEDRAL_POOL[trial % len(POLYHEDRAL_POOL)]
            D = dim(sp)
            K = int(rng.integers(2, 21))
            G = rng.uniform(-1.0, 1.0, (K, D))
            z = rng.uniform(-1.5, 1.5, D)
            before = len(calls)
            res = min_norm_point(sp, z, G)
            assert len(calls) - before == 1, f"trial {trial} on {sp}"
            assert res.stage == "lp"
            assert res.gap <= 1e-12, f"trial {trial} on {sp}: gap {res.gap}"
            assert res.lower <= res.distance + 1e-12

    def test_one_coordinate_atoms_take_one_lp(self, monkeypatch):
        calls = []
        original = scipy.optimize.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        sp = SupTuple(2, LpFinite(2.0, 1))
        rng = np.random.default_rng(19)
        for trial in range(6):
            G = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 12)), 2))
            z = rng.uniform(-1.5, 1.5, 2)
            before = len(calls)
            res = min_norm_point(sp, z, G)
            assert len(calls) - before == 1, f"trial {trial}"
            assert res.stage == "lp"
            assert res.gap <= 1e-12, f"trial {trial}: gap {res.gap}"

    def test_epigraph_follows_the_plan(self, monkeypatch):
        # the LP sees the plan's flattening: one max over all coordinates is
        # one bound variable with two rows per coordinate
        models = []
        original = scipy.optimize.linprog

        def recording(c, **kwargs):
            models.append((len(c), kwargs["A_ub"].shape[0]))
            return original(c, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", recording)
        rng = np.random.default_rng(23)
        for text, bound_vars, rows in [
            ("sup(3, lp(inf,4))", 1, 24),
            ("sup(6, lp(inf,1))", 1, 12),
            ("fmod(3, lp(inf,2))", 1, 12),
            ("sup(2, lp(inf,3))", 1, 12),
            ("lp(1,5)", 5, 10),
        ]:
            sp = parse_space(text)
            D, K = dim(sp), 4
            res = min_norm_point(sp, rng.uniform(-3.0, 3.0, D), rng.uniform(-1.0, 1.0, (K, D)))
            assert res.stage == "lp", text
            n_vars, n_rows = models[-1]
            assert (n_vars - K - D, n_rows) == (bound_vars, rows), text

    def test_generator_array_taken_whole(self):
        sp = LpFinite(2.0, 3)
        rng = np.random.default_rng(29)
        G = rng.uniform(-1.0, 1.0, (9, 3))
        z = rng.uniform(-1.5, 1.5, 3)
        whole, rows = min_norm_point(sp, z, G), min_norm_point(sp, z, list(G))
        assert whole.distance == rows.distance and whole.lower == rows.lower
        assert np.array_equal(whole.weights, rows.weights)
        message = r"vector has 4 coordinates but space lp\(2,3\) has dimension 3"
        for bad in (np.zeros((5, 4)), list(np.zeros((5, 4)))):
            with pytest.raises(DimensionMismatch, match=message):
                min_norm_point(sp, z, bad)

    def test_curved_gap_on_criterion_7_seed_5(self):
        # z lies in the hull here: the gap closes only once the primal side
        # reaches a residual near zero
        sp, z, G = criterion_7_instance(5, 35)
        assert format_space(sp) == "lp(1.5,3)"
        res = min_norm_point(sp, z, list(G))
        assert res.gap <= 1e-9, res.gap
        assert res.lower <= res.distance + 1e-12

    def test_direct_sum_converges_on_certificate_bench_trial_25(self):
        # a curved composite whose primal side needs a refinement after the
        # polish to meet the default 1e-10 target
        sp, z, G = certificate_bench_instance(42, 25)
        assert format_space(sp) == "dsum(inf, lp(1,3), lp(2,2))" and G.shape[0] == 17
        res = min_norm_point(sp, z, G)
        assert res.converged, res.gap
        assert res.lower <= res.distance + 1e-12

    @pytest.mark.parametrize("s", sorted({39, *range(30)}))
    def test_z_inside_the_hull_closes(self, s):
        # z is a convex combination of the generators: the exact Euclidean
        # nearest point is z itself, and the polish starts at a residual of
        # rounding size (on seed 39, one the segment search must close at
        # its rounding floor)
        rng = np.random.default_rng(1000 + s)
        sp = [LpFinite(2.0, 3), LpFinite(3.0, 4), LpFinite(1.5, 2)][s % 3]
        D = dim(sp)
        G = rng.standard_normal((int(rng.integers(D + 1, 30)), D))
        z = rng.dirichlet(np.ones(G.shape[0])) @ G
        res = min_norm_point(sp, z, G)
        assert res.distance <= 1e-10 and res.gap <= 1e-10, (res.distance, res.gap)

    def test_many_generators_keep_the_polish_small(self, monkeypatch):
        # z = 0 among a few hundred generators, where uniform weights beat
        # every vertex: the Euclidean start has at most D + 1 members, and the
        # support only gains the _PAIR_CAP generators nearest z, so every
        # segment search has at most (D + 1 + _PAIR_CAP)^2 rows
        sp = LpFinite(4.0, 4)
        D = dim(sp)
        rng = np.random.default_rng(31)
        G = rng.standard_normal((300, D))
        z = np.zeros(D)
        ev = norm_evaluator(sp)
        uniform = np.full(G.shape[0], 1.0 / G.shape[0])
        assert ev((z - uniform @ G)[None, :])[0] < np.min(ev(z[None, :] - G))
        cap = (D + 1 + hullgeom._PAIR_CAP) ** 2
        search = hullgeom._batch_segment_min
        rows = []

        def bounded(space, V, W, hi):
            rows.append(V.shape[0])
            assert V.shape[0] <= cap, (V.shape[0], cap)
            return search(space, V, W, hi)

        monkeypatch.setattr(hullgeom, "_batch_segment_min", bounded)
        res = min_norm_point(sp, z, G)
        assert rows and res.gap <= 1e-10, (rows, res.gap)
        assert np.count_nonzero(hullgeom._euclid_surrogate(G[None], z[None]) > 0.0) <= D + 1

    def test_nnls_failure_falls_back_to_the_nearest_generator(self, monkeypatch):
        def capped(A, b, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        G = np.array([[2.0, 0.0], [0.5, 0.5], [-1.0, 3.0]])
        z = np.array([1.0, 1.0])
        assert np.array_equal(hullgeom._euclid_surrogate(G[None], z[None]), [[0.0, 1.0, 0.0]])
        # the polish and the refinements still certify from that start
        sp = LpFinite(3.0, 2)
        res = min_norm_point(sp, [1.5, -1.0], G)
        assert res.gap <= 1e-10, res.gap


class TestDescentUpper:
    P1 = CmParams(n=2, epsilon=0.1, m=1)

    def test_single_tuple_plateau(self):
        b = dist_to_cm_upper(SCALARS, [1.0, -1.0], self.P1)
        assert b.upper == pytest.approx(1.8, abs=1e-6)
        assert validate_decomposition(SCALARS, self.P1, b.witness)

    def test_combination_plateau(self):
        for m in (2, 3, 4):
            p = self.P1.with_m(m)
            b = dist_to_cm_upper(SCALARS, [1.0, -1.0], p)
            assert b.upper == pytest.approx(0.9, abs=1e-6), f"m={m}"
            assert validate_decomposition(SCALARS, p, b.witness)

    def test_member_shortcut(self):
        b = dist_to_cm_upper(SCALARS, [0.95, 0.95], self.P1)
        assert b.upper == 0.0 and b.lower == 0.0

    def test_monotone_in_each_parameter(self):
        z = [1.0, -0.6]
        for eps in (0.05, 0.1, 0.2):
            vals = [
                dist_to_cm_upper(SCALARS, z, CmParams(n=2, epsilon=eps, m=m)).upper
                for m in (1, 2, 3, 4)
            ]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-9
        for m in (1, 2):
            vals = [
                dist_to_cm_upper(SCALARS, z, CmParams(n=2, epsilon=eps, m=m)).upper
                for eps in (0.05, 0.1, 0.2, 0.3)
            ]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-9

    def test_widened_bound_dominates(self):
        z = [1.0, -0.6]
        for eps in (0.1, 0.25):
            p = CmParams(n=2, epsilon=eps, m=2)
            assert (
                dist_to_cm_upper(SCALARS, z, p.eps_plus()).upper
                <= dist_to_cm_upper(SCALARS, z, p).upper + 1e-9
            )

    def test_shrunk_sup_bound(self):
        p = CmParams(n=2, epsilon=0.1, alpha=0.95, m=2)
        b = dist_to_cm_upper(SCALARS, [1.0, -1.0], p)
        assert b.upper >= 0.9 - 1e-9
        assert validate_decomposition(SCALARS, p, b.witness)

    def test_empty_set_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            dist_to_cm_upper(SCALARS, [1.0, -1.0], CmParams(n=2, epsilon=0.1, alpha=0.9))

    def test_vector_blocks(self):
        # two plane-valued blocks, query far outside
        p = CmParams(n=2, epsilon=0.1, m=2)
        b = dist_to_cm_upper(PLANE, [2.0, 0.0, -2.0, 0.0], p)
        assert 0.0 < b.upper <= 4.0
        assert validate_decomposition(PLANE, p, b.witness)


class TestEngineReuse:
    """dist_to_cm_upper builds one engine per (space, n, z, seed, budget)."""

    Z = [1.0, -0.6]
    P = CmParams(n=2, epsilon=0.1, m=2)

    @pytest.fixture
    def builds(self, monkeypatch):
        made = []
        engine = hullgeom._UpperEngine

        def counting(*args, **kwargs):
            made.append(args)
            return engine(*args, **kwargs)

        hullgeom._engine.cache_clear()
        monkeypatch.setattr(hullgeom, "_UpperEngine", counting)
        yield made
        hullgeom._engine.cache_clear()

    def test_repeated_key_builds_once(self, builds):
        for m in (1, 2, 4):
            for eps in (0.05, 0.2):
                for alpha in (0.97, 1.0, 1.5):
                    dist_to_cm_upper(SCALARS, self.Z, CmParams(2, eps, alpha, m))
        assert len(builds) == 1
        assert hullgeom._engine.cache_info().hits == 17

    def test_new_seed_budget_or_z_builds_anew(self, builds):
        dist_to_cm_upper(SCALARS, self.Z, self.P)
        dist_to_cm_upper(SCALARS, np.array(self.Z), self.P)  # the same key
        dist_to_cm_upper(SCALARS, self.Z, self.P, seed=1)
        dist_to_cm_upper(SCALARS, self.Z, self.P, budget=3)
        dist_to_cm_upper(SCALARS, [1.0, -0.5], self.P)
        assert len(builds) == 4
        dist_to_cm_upper(SCALARS, self.Z, self.P, budget=0)
        dist_to_cm_upper(SCALARS, self.Z, self.P, budget=1)  # budget 0 counts as 1
        assert len(builds) == 5

    def test_wrong_dimension_raises_before_the_lookup(self, builds):
        with pytest.raises(DimensionMismatch):
            dist_to_cm_upper(SCALARS, [1.0, -0.6, 0.2], self.P)
        assert builds == []

    def test_cold_and_warm_results_agree_bit_for_bit(self):
        sp, z = LpFinite(3.0, 2), [1.3, -0.4, 0.2, 0.9]
        params = [CmParams(2, 0.1, 1.0, 1), CmParams(2, 0.1, 1.0, 3), CmParams(2, 0.3, 1.0, 3),
                  CmParams(2, 0.1, 0.95, 3), CmParams(2, 0.1, 1.5, 3)]

        def key(b):
            w = b.witness
            return (b.lower, b.upper, b.lower_method, b.upper_method, b.meta,
                    w.weights.tobytes(), [g.tobytes() for g in w.generators])

        cold = []
        for p in params:
            hullgeom._engine.cache_clear()
            cold.append(key(dist_to_cm_upper(sp, z, p, budget=3, seed=4)))
        warm = [key(dist_to_cm_upper(sp, z, p, budget=3, seed=4)) for p in params]
        assert hullgeom._engine.cache_info().hits == len(params)
        assert warm == cold

    def test_caller_edits_do_not_reach_an_engine(self):
        z = np.array([2.0, 0.0, -2.0, 0.0])
        engine = hullgeom._build_engines(PLANE, 2, [z], 0, 2)[0]
        assert not np.shares_memory(engine.z, z)
        hullgeom._engine.cache_clear()
        first = dist_to_cm_upper(PLANE, z, self.P)
        z[:] = [0.5, 0.5, 0.5, 0.5]
        dist_to_cm_upper(PLANE, z, self.P)
        again = dist_to_cm_upper(PLANE, [2.0, 0.0, -2.0, 0.0], self.P)
        assert again.upper == first.upper and again.meta == first.meta
        assert np.array_equal(again.witness.point(), first.witness.point())


class TestOnePullRule:
    """Every alpha goes through the same pulls, closed form and witness checks."""

    SPACE, Z = LpFinite(3.0, 2), [1.3, -0.4, 0.2, 0.9]

    def test_supports_below_one_are_solved_once_per_alpha(self, monkeypatch):
        solves = []  # supports solved per call: the rows of its stack
        solve = hullgeom._UpperEngine._solve_support

        def counting(self, gens, *args, **kwargs):
            solves.append(gens.shape[0])
            return solve(self, gens, *args, **kwargs)

        monkeypatch.setattr(hullgeom._UpperEngine, "_solve_support", counting)
        hullgeom._engine.cache_clear()
        dist_to_cm_upper(self.SPACE, self.Z, CmParams(2, 0.1, 1.0, 1), budget=3)
        engine = hullgeom._engine(self.SPACE, 2, np.array(self.Z).tobytes(), 0, 3)
        batch = len({idxs for _, idxs in engine.supports})
        built = sum(solves)
        after = []
        for m in (1, 2, 3):
            for eps in (0.1, 0.2):
                dist_to_cm_upper(self.SPACE, self.Z, CmParams(2, eps, 0.97, m), budget=3)
                after.append(sum(solves) - built)
        hullgeom._engine.cache_clear()
        assert batch > 1
        assert after == [batch] * 6

    def test_scaled_uppers_are_monotone_and_checked(self):
        for sp, z in ((self.SPACE, self.Z), (SCALARS, [1.0, -1.0]), (PLANE, [2.0, 0.0, -2.0, 0.0])):
            ups = {}
            for eps in (0.1, 0.2, 0.3):
                for m in (1, 2, 3):
                    p = CmParams(2, eps, 0.95, m)
                    b = dist_to_cm_upper(sp, z, p, budget=3)
                    assert b.upper_method == "prototype-pull-scaled"
                    assert len(b.meta["pulls"]) >= 1
                    assert validate_decomposition(sp, p, b.witness)
                    ups[eps, m] = b.upper
            for eps in (0.1, 0.2, 0.3):
                assert ups[eps, 2] <= ups[eps, 1] and ups[eps, 3] <= ups[eps, 2]
            for m in (1, 2, 3):
                assert ups[0.2, m] <= ups[0.1, m] and ups[0.3, m] <= ups[0.2, m]

    def test_broken_prototype_promise_raises(self, monkeypatch):
        unit = hullgeom.canonical_unit
        monkeypatch.setattr(hullgeom, "canonical_unit", lambda sp: 2.0 * unit(sp))
        with pytest.raises(InternalInconsistencyError, match="promise"):
            hullgeom._build_engines(LpFinite(INF, 3), 2, [[1.5, 0.2, -0.3, -1.2, 0.4, 0.1]], 0, 2)


class TestBatchedRows:
    """Stacked supports and primed pulls give each row the arithmetic it gets alone."""

    CASES = [
        (LpFinite(INF, 3), [1.5, 0.2, -0.3, -1.2, 0.4, 0.1]),
        (SupTuple(2, LpFinite(INF, 2)), [0.9, -0.4, 0.3, 1.1, -1.0, 0.2, -0.5, -0.8]),
        (LpFinite(3.0, 2), [1.3, -0.4, 0.2, 0.9]),
    ]

    @pytest.mark.parametrize("sp, z", CASES)
    def test_a_stack_solves_each_support_as_alone(self, sp, z):
        # one stack mixes the rows of two engines, each row with its own z;
        # an engine build reuses a greedy row's solve as its accurate one,
        # which needs every row exact on curved norms too
        engs = hullgeom._build_engines(sp, 2, [z, -0.7 * np.array(z)[::-1]], 3, 2)
        rng = np.random.default_rng(11)
        for K in (1, 2, 3, 4):
            rows = [(e, rng.choice(len(e.pool), K, replace=False)) for _ in range(3) for e in engs]
            rows += [(e, np.array(e.chain[:K])) for e in engs if len(e.chain) >= K]
            gens, Z = np.stack([e.pool[idx] for e, idx in rows]), np.stack([e.z for e, _ in rows])
            for accurate in (False, True):
                lams, vals, settled = engs[0]._solve_support(gens, Z, accurate=accurate)
                for (e, row), lam, val, done in zip(rows, lams, vals, settled):
                    lam1, val1, done1 = e._solve_support(e.pool[row][None], e.z[None], accurate=accurate)
                    assert np.array_equal(lam, lam1[0]) and val == val1[0], (K, row)
                    assert done == done1[0]

    # a queries-shaped tuple, round 38 of the benchmark's queries workload at
    # seed 301, with its engine seed: the polish of its chosen chain-3
    # support is still improving after the greedy stage's 8 sweeps
    CAPPED = (
        parse_space("dsum(2, lp(1,2), lp(inf,1))"),
        [-0.1948904427825758, -0.3161928826072088, -0.5548674315210619,
         0.1132703078657793, -0.5226358140952193, 0.15888668622474855],
        837782,
    )

    def test_settled_rows_of_a_capped_polish_equal_a_longer_one(self):
        sp, z, seed = self.CAPPED
        e = hullgeom._build_engines(sp, 2, [z], seed, 1)[0]
        rng = np.random.default_rng(14)
        rows = [e.chain[:3]] + [rng.choice(len(e.pool), K, replace=False) for K in (2, 3, 4, 5)
                                for _ in range(20)]
        open_after_2 = []  # per size, the rows a 2-sweep polish leaves open
        for sweeps in (2, 8):
            for k in (2, 3, 4, 5):
                G = np.stack([e.pool[list(r)] for r in rows if len(r) == k])
                Z = np.broadcast_to(e.z, (G.shape[0], G.shape[2]))
                start = hullgeom._euclid_surrogate(G, Z)
                lam, settled = hullgeom._polish_true_norm(e.amb, G, Z, start, sweeps)
                lam60, settled60 = hullgeom._polish_true_norm(e.amb, G, Z, start, 60)
                assert np.array_equal(lam[settled], lam60[settled]), (sweeps, k)
                assert settled60[settled].all()
                if sweeps == 8 and k == 3:
                    assert not settled[0]  # the capped chain support
                    assert not np.array_equal(lam[0], lam60[0])
                if sweeps == 2:
                    open_after_2.append(~settled)
        open_after_2 = np.concatenate(open_after_2)
        assert open_after_2.any() and not open_after_2.all()

    @pytest.mark.parametrize("alpha", [1.0, 1.2, 0.95])
    def test_primed_pulls_equal_each_engines_own(self, alpha):
        sp, n = LpFinite(INF, 3), 2
        zs = np.random.default_rng(4).uniform(-1.2, 1.2, (5, 6))
        params = CmParams(n, 0.2, alpha)
        primed = hullgeom._build_engines(sp, n, zs, 1, 1)
        hullgeom._prime_pulls(primed, params)
        members = [eng._is_member(params) for eng in primed]
        assert members.count(False) >= 3
        for z, eng, member in zip(zs, primed, members):
            if member:  # value answers a member without pulls
                assert (0.2, alpha) not in eng._pull_cache
                continue
            own = hullgeom._build_engines(sp, n, [z], 1, 1)[0]
            pool = own._at_scale(hullgeom._pool_scale(alpha))[0]
            own_pulls = hullgeom._pull_rows(own.nrm_mean_sup, pool, own.z[None, :], 0.2, alpha)
            assert np.array_equal(eng._pull_cache[0.2, alpha], own_pulls)

    @pytest.mark.parametrize("sp, z", [case[:2] for case in CASES[::2]])
    def test_a_surrogate_stack_solves_each_row_as_alone(self, sp, z):
        # rows of two engines' supports, each with its own z, on a polyhedral
        # and a curved space; alone is a batch of one, and the system one
        # row's NNLS is given when it is built for that row by itself
        engs = hullgeom._build_engines(sp, 2, [z, -0.7 * np.array(z)[::-1]], 3, 2)
        rng = np.random.default_rng(12)
        for K in (2, 3, 5):
            rows = [(e, rng.choice(len(e.pool), K, replace=False)) for _ in range(3) for e in engs]
            G, Z = np.stack([e.pool[idx] for e, idx in rows]), np.stack([e.z for e, _ in rows])
            b = np.zeros(G.shape[2] + 1)
            b[-1] = 1.0
            for g, zr, lam in zip(G, Z, hullgeom._euclid_surrogate(G, Z)):
                assert np.array_equal(lam, hullgeom._euclid_surrogate(g[None], zr[None])[0])
                mu, _ = scipy.optimize.nnls(np.vstack([(g - zr).T, np.ones(K)]), b)
                assert np.array_equal(lam, mu / mu.sum())

    def test_nnls_failure_falls_back_on_its_row_only(self, monkeypatch):
        rng = np.random.default_rng(13)
        G = rng.standard_normal((4, 5, 3))
        Z = G.mean(axis=1) + 0.1 * rng.standard_normal((4, 3))
        clean = hullgeom._euclid_surrogate(G, Z)
        nnls, calls = scipy.optimize.nnls, []

        def capped_on_the_third_row(A, b, **kwargs):
            calls.append(A)
            if len(calls) == 3:
                raise RuntimeError("Maximum number of iterations reached.")
            return nnls(A, b, **kwargs)

        monkeypatch.setattr(scipy.optimize, "nnls", capped_on_the_third_row)
        got = hullgeom._euclid_surrogate(G, Z)
        nearest = int(np.argmin(np.sum((G[2] - Z[2]) ** 2, axis=1)))
        assert len(calls) == 4 and not np.array_equal(clean[2], np.eye(5)[nearest])
        assert np.array_equal(got[[0, 1, 3]], clean[[0, 1, 3]])
        assert np.array_equal(got[2], np.eye(5)[nearest])

    # uppers, witness ids and supports of estimate_dk(eps 0.2, k 1..3,
    # budget 1, seed 5), as each support solved and each engine pulled alone
    # gives them; on the reals, k = 2 and 3 tie between the adversaries
    # pair[0] and ball[7] at 0.8000000000000802, and the Euclidean nearest
    # point start resolves the tie to ball[7]
    PINNED = {
        ("lp(inf,3)", 2): [(1, 1.6000000000000805, "pair[0]", "chain-1"),
                           (2, 0.8, "pair[0]", "partition-2"),
                           (3, 0.5333333333333334, "pair[0]", "partition-3")],
        ("lp(inf,1)", 6): [(1, 1.700000000000043, "ball[15]", "chain-1"),
                           (2, 0.8000000000000802, "ball[7]", "chain-2"),
                           (3, 0.8000000000000802, "ball[7]", "chain-2")],
    }

    @pytest.mark.parametrize("text, n", list(PINNED))
    def test_profiles_are_pinned(self, text, n):
        prof = estimate_dk(parse_space(text), n, 0.2, k_range=(1, 2, 3), budget=1, seed=5)
        got = [(k, b.upper, b.meta["witness_id"], b.meta["support"]) for k, b in prof.entries]
        assert got == self.PINNED[text, n]


class TestBatchedEngines:
    """Engines built together equal the same engines built alone, bit for bit."""

    @staticmethod
    def state(e):
        """The pool, chain and supports, the solutions at c = 1 and below, and values."""
        out = [e.pool.tobytes(), e._n_const, e.chain, e.supports, e.z_sup, e.z_mean]
        for c in (1.0, hullgeom._pool_scale(0.95)):
            pool, solutions = e._at_scale(c)
            out.append(pool.tobytes())
            out += [(idxs, lam.tobytes(), d) for idxs, (lam, d) in sorted(solutions.items())]
        for m in (1, 2, 4):
            for eps in (0.1, 0.3):
                for alpha in (0.95, 1.0, 1.3):
                    b = e.value(CmParams(e.n, eps, alpha, m))
                    w = b.witness
                    out.append((b.upper, b.upper_method, b.meta, w.weights.tobytes(),
                                [g.tobytes() for g in w.generators]))
        return out

    # a sweep profile's candidates, plus z = 0 (its blocks have no unit, and
    # its chain closes at length 2 on a support through 0) and a member z
    @pytest.mark.parametrize("sp, n, budget", [
        (LpFinite(INF, 3), 2, 1), (SupTuple(2, LpFinite(INF, 2)), 2, 8), (LpFinite(3.0, 2), 2, 1),
    ])
    def test_together_equals_alone(self, sp, n, budget):
        member = 0.9 * np.tile(canonical_unit(sp), n)
        zs = [v for _, v in _adversaries(sp, n, budget, 5)] + [np.zeros(n * dim(sp)), member]
        together = hullgeom._build_engines(sp, n, zs, 5, budget)
        # the scaled supports of every non-member engine as one batch too
        hullgeom._prime_pulls(together, CmParams(n, 0.2, 0.95))
        caps = [min(e._n_const, max(4, min(12, budget + 4))) for e in together]
        closed = [len(e.chain) < cap for e, cap in zip(together, caps)]
        assert closed[-2] and together[-1]._is_member(CmParams(n, 0.2, 0.95))
        assert len({len(e.chain) for e in together}) > 1
        if sp == LpFinite(3.0, 2):
            assert len(set(caps)) > 1  # and at different caps
        for z, e in zip(zs, together):
            alone = hullgeom._build_engines(sp, n, [z], 5, budget)[0]
            assert self.state(e) == self.state(alone)

    @staticmethod
    def bracket(b):
        w = b.witness
        return (b.lower, b.upper, b.lower_method, b.upper_method, b.meta, w.weights.tobytes(),
                [g.tobytes() for g in w.generators])

    @staticmethod
    def loop_upper(e, p):
        """The smallest closed form d_C / Z computed support by support, or 0 for a member."""
        if e._is_member(p):
            return 0.0
        pool, solutions = e._at_scale(hullgeom._pool_scale(p.alpha))
        s = hullgeom._pull_rows(e.nrm_mean_sup, pool, e.z[None, :], p.epsilon, p.alpha)
        return min(solutions[idxs][1] / float(np.sum(solutions[idxs][0] / (1.0 - s[list(idxs)])))
                   for _, idxs in e.supports if len(idxs) <= p.m)

    @pytest.mark.parametrize("text, n", [("lp(inf,3)", 2), ("lp(inf,1)", 6), ("lp(3,2)", 2)])
    def test_batch_upper_is_the_best_own_value(self, text, n):
        # a profile's batch plus a member z, against each engine built and
        # asked alone, and against the closed forms computed one by one; the
        # largest upper is tied between engines at most of these params, and
        # the first of them must win
        sp = parse_space(text)
        zs = [v for _, v in _adversaries(sp, n, 1, 5)] + [0.9 * np.tile(canonical_unit(sp), n)]
        batch = hullgeom._build_engines(sp, n, zs, 5, 1)
        alone = [hullgeom._build_engines(sp, n, [z], 5, 1)[0] for z in zs]
        ties = 0
        for m in (1, 2, 3):
            for eps, alpha in ((0.2, 1.0), (0.35, 0.95)):
                p = CmParams(n, eps, alpha, m)
                i, b = hullgeom._best_upper(batch, p)
                own = [e.value(p) for e in alone]
                ups = [o.upper for o in own]
                assert ups == [self.loop_upper(e, p) for e in alone]
                assert i == ups.index(max(ups))
                assert self.bracket(b) == self.bracket(own[i])
                ties += ups.count(max(ups)) > 1
        assert batch[-1].value(p).upper_method == "member-shortcut"
        assert ties >= 2

    def test_a_losing_engines_drift_raises(self, monkeypatch):
        sp, n = LpFinite(3.0, 2), 2
        batch = hullgeom._build_engines(sp, n, [v for _, v in _adversaries(sp, n, 1, 5)], 5, 1)
        p = CmParams(n, 0.2, 1.0, 2)
        i, b = hullgeom._best_upper(batch, p)
        loser = batch[(i + 1) % len(batch)]
        assert not loser._is_member(p) and loser.value(p).upper < b.upper
        monkeypatch.setitem(loser._closed, (0.2, 1.0), 0.5 * loser._closed[0.2, 1.0])
        with pytest.raises(InternalInconsistencyError, match="drifted"):
            hullgeom._best_upper(batch, p)

    def test_prototype_keys_match_the_tuple_keys(self):
        # rows equal to 12 digits, or up to the sign of a zero, are one
        # prototype; the pool and the partition supports are those the
        # tuple keys of np.round(row, 12) give
        sp, n = LpFinite(INF, 2), 2
        u = np.array([0.5, -0.0, 0.25, 0.0])
        # seven tiled units, then the overwrites of parts 1 (one row) and 2 (two)
        protos = np.array([u, u + 0.0, u + 3e-14, [0.5, -1e-14, 0.25, -0.0], u + 1e-11,
                           -u, u + [0.0, 0.0, 0.0, 4e-13],
                           u + 1e-11, -u + 2e-13, [0.9, 0.1, -0.3, 0.0]])
        e = hullgeom._UpperEngine(sp, n, np.zeros(4), 1, protos, 7, 0.0, 0.0)
        index_of, kept, idx = {}, [], []
        for row in protos:
            key = tuple(np.round(row, 12))
            if key not in index_of:
                index_of[key] = len(kept)
                kept.append(row)
            idx.append(index_of[key])
        assert np.array_equal(e.pool, np.stack(kept)) and len(kept) == 4
        assert e._n_const == max(idx[:7]) + 1 == 3
        assert e.partition_supports == {1: idx[7:8], 2: idx[8:10]} == {1: [1], 2: [2, 3]}

    @staticmethod
    def settled_in_greedy(e, idxs):
        """Whether the greedy stage's 8-sweep solve of a chain support settled."""
        return (idxs == tuple(e.chain[: len(idxs)])
                and e._solve_support(e.pool[list(idxs)][None], e.z[None], accurate=False)[2][0])

    @pytest.mark.parametrize("sp, zs, seed, budget", [
        (sp, [v for _, v in _adversaries(sp, n, budget, 5)] + [np.zeros(n * dim(sp))], 5, budget)
        for sp, n, budget in ((LpFinite(INF, 3), 2, 1), (SupTuple(2, LpFinite(INF, 2)), 2, 8),
                              (LpFinite(3.0, 2), 2, 1))
    ] + [(TestBatchedRows.CAPPED[0], [TestBatchedRows.CAPPED[1]], TestBatchedRows.CAPPED[2], 1)])
    def test_c1_solutions_are_fresh_accurate_solves(self, monkeypatch, sp, zs, seed, budget):
        # every support at c = 1, whether kept from the greedy stage or
        # solved in the c = 1 stage, is what an accurate solve of it alone gives
        solve, accurate_rows = hullgeom._UpperEngine._solve_support, []

        def recording(self, gens, Z, accurate):
            if accurate:
                accurate_rows.extend((g.tobytes(), z.tobytes()) for g, z in zip(gens, Z))
            return solve(self, gens, Z, accurate)

        monkeypatch.setattr(hullgeom._UpperEngine, "_solve_support", recording)
        engines = hullgeom._build_engines(sp, 2, zs, seed, budget)
        monkeypatch.undo()
        kept = 0
        for e in engines:
            pool, found = e._scaled[1.0]
            assert pool is e.pool and set(found) == {idxs for _, idxs in e.supports}
            for idxs, (lam, d) in found.items():
                lam1, d1, _ = solve(e, e.pool[list(idxs)][None], e.z[None], accurate=True)
                assert lam.tobytes() == lam1[0].tobytes() and d == d1[0], idxs
                resolved = (e.pool[list(idxs)].tobytes(), e.z.tobytes()) in accurate_rows
                assert resolved != self.settled_in_greedy(e, idxs), idxs
                kept += not resolved
        assert kept >= len(engines)  # at least every chain-1
        if sp == TestBatchedRows.CAPPED[0]:  # the capped chain-3 support took the re-solve
            e = engines[0]
            assert accurate_rows == [(e.pool[e.chain[:3]].tobytes(), e.z.tobytes())]

    def test_a_settled_build_makes_no_accurate_stack(self, monkeypatch):
        # lp(4,2) has no partition supports: when every greedy row settles,
        # the build's greedy stacks are all it solves
        calls = []
        solve = hullgeom._UpperEngine._solve_support

        def counting(self, gens, Z, accurate):
            out = solve(self, gens, Z, accurate)
            calls.append((gens.shape[1], accurate, bool(out[2].all())))
            return out

        monkeypatch.setattr(hullgeom._UpperEngine, "_solve_support", counting)
        sp, z = LpFinite(4.0, 2), [0.9, -0.2, -0.7, 0.5]
        hullgeom._engine.cache_clear()
        dist_to_cm_upper(sp, z, CmParams(2, 0.2, 1.0, 1), budget=1)
        engine = hullgeom._engine(sp, 2, np.array(z).tobytes(), 0, 1)
        hullgeom._engine.cache_clear()
        assert engine.partition_supports == {} and len(engine.chain) > 2
        assert calls == [(K, False, True) for K in range(2, len(engine.chain) + 1)]

    def test_one_stack_per_step_for_a_whole_profile(self, monkeypatch):
        sizes, engines = [], []  # support size of each stack; the profile's engines
        solve, build = hullgeom._UpperEngine._solve_support, dkprofile._build_engines

        def counting(self, gens, *args, **kwargs):
            sizes.append(gens.shape[1])
            return solve(self, gens, *args, **kwargs)

        def keep(*args):
            engines.extend(build(*args))
            return engines

        monkeypatch.setattr(hullgeom._UpperEngine, "_solve_support", counting)
        monkeypatch.setattr(dkprofile, "_build_engines", keep)
        estimate_dk(LpFinite(INF, 3), 2, 0.2, k_range=(1, 2, 3), budget=1, seed=5)
        monkeypatch.undo()
        longest = max(len(e.chain) for e in engines)
        # the c = 1 stage solves only the sizes the greedy stage left open:
        # here the partition supports, and no chain support of size 4 or 5
        open_sizes = sorted({len(idxs) for e in engines for _, idxs in e.supports
                             if not self.settled_in_greedy(e, idxs)})
        assert sizes == list(range(2, longest + 1)) + open_sizes
        assert longest == 5 and open_sizes == [1, 2, 3]
        assert len(sizes) < len(engines) == 23


class TestKidGroups:
    """Equal sibling kids run as one call and give each kid's terms bit for bit."""

    # the grouped ambients of PLAN_POOL, a group under an l_p combiner and
    # two groups whose kids interleave
    GROUPED = PLAN_POOL[-5:] + [
        DirectSum(2.0, LpFinite(3.0, 2), LpFinite(3.0, 2)),
        SupTuple(2, DirectSum(INF, LpFinite(1.0, 2), LpFinite(2.0, 2))),
    ]

    @staticmethod
    def combined(p, terms):
        # the node's rule on (value, left, right) terms stacked in kid order
        fs, lefts, rights = (np.stack(col) for col in zip(*terms))
        if p == INF:
            f = functools.reduce(np.maximum, fs)
            act = fs == f[None, :]
            return f, np.where(act, lefts, INF).min(axis=0), np.where(act, rights, -INF).max(axis=0)
        if p == 1.0:
            return functools.reduce(np.add, fs), lefts.sum(axis=0), rights.sum(axis=0)
        f = hullgeom._lp_combine(p, fs)
        return (f,) + hullgeom._lp_slopes(p, f, fs, lefts, rights)

    @pytest.mark.parametrize("sp", GROUPED, ids=format_space)
    def test_terms_match_each_block_alone(self, sp):
        D = dim(sp)
        rng = np.random.default_rng(D)
        R, W = rng.uniform(-1.0, 1.0, (9, D)), rng.uniform(-1.0, 1.0, (9, D))
        R[0] = 0.0  # every block zero: the f = 0 branch at each node
        R[1, : D // 2] = 0.0  # a zero block
        R[2] *= 1e-200  # p-th powers below the float range: the _lp_root redo
        R[3] *= 1e200  # and above it
        R[4] = np.round(4.0 * R[4]) / 4.0  # ties between blocks
        W[5] = 0.0
        for plan in (norm_plan(sp), dual_plan(sp)):
            assert any(g.idx is not None for g in plan.groups)
            own = []
            if plan.cols is not None:
                atom = norm_plan(LpFinite(plan.p, len(np.arange(D)[plan.cols])))
                own = [atom.probe(R[:, plan.cols], W[:, plan.cols])]
            with np.errstate(over="ignore", invalid="ignore"):
                want = self.combined(plan.p, own + [kid.probe(R, W) for kid in plan.kids])
                got = plan.probe(R, W)
                values = plan.evaluate(R)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            assert values.tobytes() == want[0].tobytes()

    def test_one_probe_is_one_inner_call(self, monkeypatch):
        sp = SupTuple(2, LpFinite(4.0, 2))
        calls, probe = [], hullgeom.NormPlan.probe

        def counting(plan, R, W):
            calls.append((plan, R.shape))
            return probe(plan, R, W)

        monkeypatch.setattr(hullgeom.NormPlan, "probe", counting)
        R = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 4))
        norm_plan(sp).probe(R, R[::-1])
        assert [shape for _, shape in calls] == [(6, 4), (12, 2)]
        assert calls[1][0] is norm_plan(sp).groups[0].plan

    # (upper, witness digest) over the queries workload's lattice (m, eps,
    # alpha): (1, e, 1), (2, e, 1), (1, e + 0.15, 1), (1, e, a) with e = 0.2,
    # a = 1.3, at n = 2, budget 1, seed 3; the digest is the first 16 hex
    # digits of the sha256 of the witness weights' and generators' bytes
    QUERY_LATTICE = [(1, 0.2, 1.0), (2, 0.2, 1.0), (1, 0.35, 1.0), (1, 0.2, 1.3)]
    QUERY_PINNED = {
        ("lp(4,2)", (0.9, -0.2, -0.7, 0.5)): [
            (1.0234812035424676, "57fc86f5e1cf2613"), (0.7560834139166477, "e40905dde2503f94"),
            (0.7847537427179886, "10f9d2b410a08282"), (1.0234812035424676, "57fc86f5e1cf2613")],
        ("lp(1.5,2)", (0.3, 0.8, -0.6, 0.1)): [
            (0.5417207166789122, "5a9aab97748d2f86"), (0.41386215304935264, "af4bd92ae7f141a3"),
            (0.26530834586854235, "59b2d5913dbaab79"), (0.5417207166789122, "5a9aab97748d2f86")],
        ("dsum(2, lp(1,2), lp(inf,1))", (0.5, -0.3, 0.2, -0.4, 0.1, 0.6)): [
            (0.5956245596303726, "1ddf841196c71f9c"), (0.5630859326274954, "50117afaf08db8d6"),
            (0.35596863467347145, "2e41bca490bfa313"), (0.5956245596303726, "1ddf841196c71f9c")],
    }

    @pytest.mark.parametrize("text, z", list(QUERY_PINNED))
    def test_queries_are_pinned(self, text, z):
        got = []
        for m, e, a in self.QUERY_LATTICE:
            b = dist_to_cm_upper(parse_space(text), np.array(z), CmParams(2, e, a, m), budget=1, seed=3)
            w = b.witness
            digest = hashlib.sha256(w.weights.tobytes() + b"".join(g.tobytes() for g in w.generators))
            got.append((b.upper, digest.hexdigest()[:16]))
        assert got == self.QUERY_PINNED[text, z]


class TestGridOracle:
    P1 = CmParams(n=2, epsilon=0.1, m=1)

    @pytest.mark.parametrize("z", [[1.0, -1.0], [1.0, -1.0, 0.5]])
    def test_one_bracket_for_every_m_from_two(self, z):
        def key(p):
            g = dist_to_cm_grid(SCALARS, z, p, resolution=0.1)
            w = g.witness
            return (g.lower, g.upper, g.lower_method, g.upper_method, g.meta,
                    w.weights.tobytes(), [x.tobytes() for x in w.generators])

        p = CmParams(n=len(z), epsilon=0.25, m=2)
        assert key(p) == key(p.with_m(4))

    def test_bracket_single_tuple(self):
        g = dist_to_cm_grid(SCALARS, [1.0, -1.0], self.P1, resolution=0.01)
        assert g.lower <= 1.8 <= g.upper
        assert g.upper - g.lower <= 0.03
        assert g.meta["covering_constant"] == pytest.approx(0.5)
        assert validate_decomposition(SCALARS, self.P1, g.witness)

    def test_bracket_two_fold(self):
        p = self.P1.with_m(2)
        g = dist_to_cm_grid(SCALARS, [1.0, -1.0], p, resolution=0.01)
        assert g.lower <= 0.9 <= g.upper
        assert g.upper - g.lower <= 0.03
        assert validate_decomposition(SCALARS, p, g.witness)

    def test_member_query_nearly_zero(self):
        g = dist_to_cm_grid(SCALARS, [0.951, 0.949], self.P1, resolution=0.01)
        assert g.upper <= 0.5 * 0.01 + 1e-12

    def test_consistent_with_descent(self):
        for m in (1, 2):
            p = self.P1.with_m(m)
            g = dist_to_cm_grid(SCALARS, [1.0, -1.0], p, resolution=0.02)
            u = dist_to_cm_upper(SCALARS, [1.0, -1.0], p)
            assert g.lower - 1e-9 <= u.upper
            assert u.upper <= g.upper + 1e-9 or u.upper <= g.upper * 1.01

    def test_guard_refusal(self):
        p = CmParams(n=4, epsilon=0.1, m=2)
        big = LpFinite(INF, 4)
        report = grid_guard_report(big, p, 0.05)
        assert report["grid_points"] > report["guard"] == 10**7
        with pytest.raises(CapabilityRefusal) as exc:
            dist_to_cm_grid(big, np.zeros(16), p, resolution=0.05)
        assert exc.value.report["dimension"] == 16
        assert exc.value.report["required_resolution"] > 0.05

    def test_rejects_nonpositive_resolution(self):
        with pytest.raises(ParameterError, match="resolution"):
            dist_to_cm_grid(SCALARS, [1.0, -1.0], self.P1, resolution=0.0)

    def test_too_coarse_refused(self):
        with pytest.raises(CapabilityRefusal, match="coarse"):
            dist_to_cm_grid(SCALARS, [1.0, -1.0], self.P1, resolution=2.0)
