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
import hullgap.spaces as spaces
from hullgap.dkprofile import _adversaries, estimate_dk
from hullgap.errors import (
    CapabilityRefusal,
    InternalInconsistencyError,
    ParameterError,
)
from hullgap.hullgeom import (
    STRICTNESS_TOL,
    CmParams,
    ConvexDecomposition,
    DistanceBracket,
    _batch_segment_min,
    ambient_space,
    dist_to_cm_grid,
    dist_to_cm_upper,
    grid_guard_report,
    mean_norm_evaluator,
    min_norm_point,
    validate_decomposition,
)
from hullgap.spaces import (
    INF,
    DimensionMismatch,
    DirectSum,
    FunctionModule,
    LpFinite,
    SupTuple,
    as_coords,
    canonical_unit,
    dim,
    dual_plan,
    format_space,
    norm,
    norm_evaluator,
    norm_plan,
    parse_space,
    sample_unit_ball,
)

SCALARS = LpFinite(2.0, 1)
PLANE = LpFinite(INF, 2)


def dual_norm_of(space, phi) -> float:
    """The exact dual norm of a functional, from the space's dual plan."""
    return float(dual_plan(space).evaluate(np.asarray(phi, dtype=float)[None, :])[0])


def at_scale(engine, c: float):
    """An engine's pool scaled by c and each support's (mu_C, d_C) on it, solved for it alone."""
    b, i = engine.batch, engine.i
    hullgeom._solve_scale(engine, np.arange(len(b.Z)) == i, c)
    scale = b.scales[c]
    return scale.pool[b.start[i] : b.start[i + 1]], {
        idxs: (scale.mu[i, j, : len(idxs)], float(scale.d[i, j]))
        for j, (_, idxs) in zip(np.nonzero(b.valid[i])[0], supports_of(engine))}


def pool_of(engine):
    """An engine's prototypes: its rows of the batch's pool."""
    b, i = engine.batch, engine.i
    return b.pool[b.start[i] : b.start[i + 1]]


def chain_of(engine):
    """An engine's greedy chain, as indices into its pool."""
    b, i = engine.batch, engine.i
    return b.idx[i, b.length[i] - 1, : b.length[i]].tolist()


def supports_of(engine):
    """An engine's (name, pool indices) supports, in the order its upper's tie rule reads them."""
    b, i = engine.batch, engine.i
    return [(b.names[j], tuple(b.idx[i, j, : b.sizes[j]].tolist())) for j in np.nonzero(b.valid[i])[0]]


@dataclasses.dataclass(frozen=True)
class MemberReport:
    sup_norm: float
    mean_norm: float
    sup_ok: bool
    mean_ok: bool

    @property
    def passed(self) -> bool:
        return self.sup_ok and self.mean_ok


def member_check(space, params, g) -> MemberReport:
    """Both membership constraints of one generator, with the two computed norms: the
    per-generator reference of ``validate_decomposition``."""
    x = as_coords(ambient_space(space, params.n), g)
    mean, sup = (float(v[0]) for v in hullgeom._mean_sup_evaluator(space, params.n)(x[None, :]))
    return MemberReport(sup, mean, sup <= params.alpha + STRICTNESS_TOL,
                        mean > 1.0 - params.epsilon - STRICTNESS_TOL)


def is_member(engine, params) -> bool:
    """Whether an engine's tuple lies in the set at params."""
    return bool(engine.batch.members(params)[engine.i])


def own_pulls(engine, key):
    """An engine's pulls at key = (eps, alpha), its closed forms, and whether it was primed."""
    b, i = engine.batch, engine.i
    primed = b.pulls[key]
    done = not (primed.member[i] or primed.pending[i])
    return primed.pulls[b.start[i] : b.start[i + 1]], primed.closed[i][b.valid[i]], done


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
        for alpha in (-1.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match="alpha"):
                CmParams(n=2, epsilon=0.1, alpha=alpha)

    def test_derived_params(self):
        p = CmParams(n=3, epsilon=0.2)
        assert p.with_m(5).m == 5 and p.with_m(5).n == 3
        assert p.with_m(5).epsilon == 0.2 and p.with_m(5).alpha == 1.0

    def test_empty_set_detection(self):
        CmParams(2, 0.1, 0.95)
        with pytest.raises(ParameterError, match="empty"):
            CmParams(2, 0.1, 0.85)


class TestMemberCheck:
    """The two membership constraints of one generator: the reference member check, and
    ``validate_decomposition`` on the one-generator decomposition, which must agree with it."""

    @staticmethod
    def validated(space, p, g) -> bool:
        return validate_decomposition(space, p, ConvexDecomposition([1.0], [g]))

    def test_accepts_boundary_member(self):
        p = CmParams(n=2, epsilon=0.1)
        rep = member_check(SCALARS, p, [1.0, 0.8])
        assert rep.sup_norm == pytest.approx(1.0)
        assert rep.mean_norm == pytest.approx(0.9)
        assert rep.passed
        assert self.validated(SCALARS, p, [1.0, 0.8])

    def test_rejects_weak_mean(self):
        p = CmParams(n=2, epsilon=0.1)
        rep = member_check(SCALARS, p, [1.0, 0.7])
        assert rep.mean_norm == pytest.approx(0.85)
        assert rep.sup_ok and not rep.mean_ok
        assert not self.validated(SCALARS, p, [1.0, 0.7])

    def test_rejects_large_sup(self):
        p = CmParams(n=2, epsilon=0.1)
        rep = member_check(SCALARS, p, [1.2, 0.9])
        assert not rep.sup_ok
        assert not self.validated(SCALARS, p, [1.2, 0.9])

    def test_widened_bound_admits_more(self):
        p = CmParams(n=2, epsilon=0.1, alpha=1.1)
        assert member_check(SCALARS, p, [1.05, 0.95]).passed
        assert self.validated(SCALARS, p, [1.05, 0.95])
        assert not self.validated(SCALARS, CmParams(n=2, epsilon=0.1), [1.05, 0.95])

    def test_norms_stay_finite_at_a_huge_tuple(self):
        p = CmParams(n=2, epsilon=0.1)
        for text in ("lp(2,2)", "lp(4,2)", "dsum(2, lp(1,1), lp(1,1))"):
            sp = parse_space(text)
            g = 1e200 * np.concatenate([canonical_unit(sp), 0.5 * canonical_unit(sp)])
            rep = member_check(sp, p, g)
            assert rep.sup_norm == 1e200, text
            assert rep.mean_norm == pytest.approx(0.75e200, rel=1e-15), text
            assert not self.validated(sp, p, g), text


class TestDecompositions:
    def test_count_mismatch(self):
        with pytest.raises(ParameterError, match="weights"):
            ConvexDecomposition([0.5, 0.5], [np.zeros(2)])

    def test_point_is_weighted_average(self):
        dec = ConvexDecomposition([0.25, 0.75], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(dec.weights @ np.stack(dec.generators), [0.25, 0.75])

    def test_validation_limits(self):
        p = CmParams(n=2, epsilon=0.1, m=1)
        good = ConvexDecomposition([1.0], [np.array([1.0, 0.9])])
        two = ConvexDecomposition([0.5, 0.5], [np.array([1.0, 0.9]), np.array([0.9, 1.0])])
        assert validate_decomposition(SCALARS, p, good)
        assert not validate_decomposition(SCALARS, p, two)
        assert validate_decomposition(SCALARS, p.with_m(2), two)
        bad_w = ConvexDecomposition([0.7, 0.7], [np.array([1.0, 0.9])] * 2)
        assert not validate_decomposition(SCALARS, p.with_m(2), bad_w)

    def test_one_bad_generator_among_several_fails(self, monkeypatch):
        # four members and one generator whose mean misses 1 - eps, in every
        # position; each check is one evaluator call, whatever the count
        p = CmParams(n=2, epsilon=0.1, m=5)
        good = [np.array([1.0, 0.9]), np.array([0.9, 1.0]), np.array([1.0, 1.0]), np.array([0.85, 0.95])]
        calls, make = [], hullgeom._mean_sup_evaluator

        def counting(*args):
            ev = make(*args)
            return lambda X: calls.append(len(X)) or ev(X)

        monkeypatch.setattr(hullgeom, "_mean_sup_evaluator", counting)
        assert validate_decomposition(SCALARS, p, ConvexDecomposition(np.full(4, 0.25), good))
        for at in range(5):
            gens = good[:at] + [np.array([1.0, 0.7])] + good[at:]
            assert not validate_decomposition(SCALARS, p, ConvexDecomposition(np.full(5, 0.2), gens))
        assert calls == [4] + [5] * 5
        with pytest.raises(DimensionMismatch):
            validate_decomposition(SCALARS, p, ConvexDecomposition([0.5, 0.5], [good[0], np.ones(3)]))

    @pytest.mark.parametrize("text, n", [("lp(2,1)", 2), ("lp(inf,2)", 3), ("dsum(2, lp(1,2), lp(inf,1))", 2)])
    def test_validation_agrees_with_the_member_check_of_each_generator(self, text, n):
        # seeded decompositions whose generators straddle both constraints
        sp, rng = parse_space(text), np.random.default_rng(21)
        outcomes = []
        for _ in range(60):
            m = int(rng.integers(1, 5))
            p = CmParams(n, float(rng.uniform(0.05, 0.5)), float(rng.uniform(1.0, 1.3)), m)
            ball = sample_unit_ball(ambient_space(sp, n), m, int(rng.integers(1000)))
            gens = [g * rng.uniform(0.8, 1.4) for g in ball]
            loop = all(member_check(sp, p, g).passed for g in gens)
            assert validate_decomposition(sp, p, ConvexDecomposition(np.full(m, 1.0 / m), gens)) == loop
            outcomes.append(loop)
        assert 0 < sum(outcomes) < len(outcomes)

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
        # scalar reference norm, and the best one attains the dual norm of phi:
        # with the pairing inequality below, it is the sup of phi on that ball
        sp = PLAN_POOL[si]
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-2.0, 2.0, dim(sp))
        dn = dual_norm_of(sp, phi)
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
        assert abs(phi @ x) <= dual_norm_of(sp, phi) * norm(sp, x) + 1e-9

    def test_conjugate_exponent_formulas(self):
        phi = np.array([0.5, -2.0, 1.0])
        assert dual_norm_of(LpFinite(INF, 3), phi) == pytest.approx(3.5)
        assert dual_norm_of(LpFinite(1.0, 3), phi) == pytest.approx(2.0)
        assert dual_norm_of(LpFinite(2.0, 3), phi) == pytest.approx(np.linalg.norm(phi))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, len(NORM_POOL) - 1), st.integers(0, 2**31 - 1))
    @example(si=5, seed=915)  # dsum(1, lp(2,2), lp(inf,2)): a near tie in the max part
    def test_norming_cuts_support_the_norm(self, si, seed):
        sp = NORM_POOL[si]
        rng = np.random.default_rng(seed)
        v = rng.uniform(-2.0, 2.0, dim(sp))
        nv = norm(sp, v)
        cuts = [psi for val, psi in norm_plan(sp).norming(v) if val >= (1.0 - 1e-12) * nv]
        for psi in cuts:
            assert dual_norm_of(sp, psi) <= 1.0 + 1e-9
            assert psi @ v == pytest.approx(nv, abs=1e-9)

    @pytest.mark.parametrize("sp", PLAN_POOL, ids=format_space)
    def test_into_ball_rows_read_at_most_one(self, sp):
        D = dim(sp)
        rng = np.random.default_rng(21)
        X = np.concatenate([scale * rng.standard_normal((40, D)) for scale in (1e-200, 1.0, 1e200)]
                           + [np.zeros((1, D)), np.full((1, D), 1.0)])
        X[-1, -1] = INF
        want = np.ones(X.shape[0], dtype=bool)
        want[-2:] = False  # the zero row and the non-finite row
        for plan in (norm_plan(sp), dual_plan(sp)):
            for shrink in (1.0, 1.0 - 1e-13):
                U, ok = plan.into_ball(X, shrink)
                assert np.array_equal(ok, want)
                assert U.shape == (want.sum(), D)
                assert np.all(plan.evaluate(U) <= 1.0)
                assert all(plan.evaluate(u[None, :])[0] <= 1.0 for u in U)
                U, ok = plan.into_ball(X[-2:], shrink)  # no row left
                assert U.shape == (0, D) and not ok.any()

    @pytest.mark.parametrize("sp", PLAN_POOL, ids=format_space)
    def test_zero_rows_give_empty_results(self, sp):
        # a plan with grouped kids splits its values by the group's copy count
        X = np.zeros((0, dim(sp)))
        for plan in (norm_plan(sp), dual_plan(sp)):
            assert plan.evaluate(X).shape == (0,)
            assert all(v.shape == (0,) for v in plan.probe(X, X))
            U, ok = plan.into_ball(X)
            assert U.shape == X.shape and ok.shape == (0,)

    def test_dual_lower_functional_reads_at_most_one(self):
        # divided twice by its computed dual norm, this functional still
        # reads 1 + ulp; the next float above that norm brings it in
        sp = LpFinite(3.0, 3)
        phi = np.array([-1.4200694881000024, 0.03229538393163682, 1.2400181153090652])
        _, psi = hullgeom._dual_lower(sp, np.zeros(3), np.zeros((1, 3)), phi)
        assert dual_norm_of(sp, psi) <= 1.0

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
        lp_norm = spaces._lp_norm
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

    @pytest.mark.parametrize(
        "sp", [sp for sp in SEGMENT_POOL if not norm_plan(sp).polyhedral], ids=format_space)
    def test_curved_rows_close_at_the_rounding_floor(self, sp):
        # the two-probe step's certificate: the returned value is the
        # evaluator's at the returned t, and no point of [0, hi] beats it
        # by more than the floor 4 eps (fa + fb) of the row's ends
        plan, D = norm_plan(sp), dim(sp)
        rng = np.random.default_rng([7, D])
        ts = np.linspace(0.0, 1.0, 2001)
        for _ in range(3):
            V, W, hi = segment_rows(rng, D, T=16)
            t, f = _batch_segment_min(sp, V, W, hi)
            assert np.array_equal(f, plan.evaluate(V - t[:, None] * W))
            floor = 4.0 * np.finfo(float).eps * (plan.evaluate(V) + plan.evaluate(V - hi[:, None] * W))
            for i in range(V.shape[0]):
                scan = plan.evaluate(V[i][None, :] - (ts * hi[i])[:, None] * W[i][None, :])
                assert f[i] <= float(np.min(scan)) + floor[i], (i, f[i], float(np.min(scan)))

    # root probe calls of the one-probe Kelley step on the stack below, per
    # queries-workload ambient: the chord probe must at least halve them
    KELLEY_PROBES = {"lp(4,2)": 26, "lp(1.5,2)": 27, "dsum(2, lp(1,2), lp(inf,1))": 26}

    @pytest.mark.parametrize("text", list(KELLEY_PROBES))
    def test_chord_probe_halves_the_curved_probe_calls(self, text, monkeypatch):
        sp = SupTuple(2, parse_space(text))
        root, probe, calls = norm_plan(sp), spaces.NormPlan.probe, []

        def counting(plan, R, W):
            if plan is root:
                calls.append(R.shape[0])
            return probe(plan, R, W)

        monkeypatch.setattr(spaces.NormPlan, "probe", counting)
        rng = np.random.default_rng(0)
        D = dim(sp)
        V, W = rng.uniform(-1.0, 1.0, (300, D)), rng.uniform(-1.0, 1.0, (300, D))
        _batch_segment_min(sp, V, W, rng.uniform(0.0, 2.0, 300))
        assert 2 * len(calls) <= self.KELLEY_PROBES[text], calls

    def test_polyhedral_outputs_are_pinned(self):
        # the one-probe step on every polyhedral plan of SEGMENT_POOL: the
        # sha256 of its outputs, as the search gave them before the chord probe
        total = hashlib.sha256()
        for sp in SEGMENT_POOL:
            if norm_plan(sp).polyhedral:
                rng = np.random.default_rng([11, dim(sp)])
                for _ in range(4):
                    t, f = _batch_segment_min(sp, *segment_rows(rng, dim(sp), T=40))
                    total.update(t.tobytes() + f.tobytes())
        assert total.hexdigest() == "22a54cbc5ecb788c47ba1bb03bedb388733be1d3dac05e4c4dae886492437997"


class TestMinNormPoint:
    def test_rejects_empty_generators(self):
        with pytest.raises(ParameterError, match="nonempty"):
            min_norm_point(PLANE, [0.0, 0.0], [])

    def test_singleton(self):
        res = min_norm_point(PLANE, [1.0, -1.0], [[0.5, 0.5]])
        assert res.distance == pytest.approx(1.5, abs=1e-12)
        assert res.gap <= 1e-9
        assert np.allclose(res.weights @ np.array([[0.5, 0.5]]), [0.5, 0.5])

    def test_vertex_hit(self):
        res = min_norm_point(PLANE, [0.3, 0.7], [[0.3, 0.7], [1.0, 1.0]])
        assert res.distance == 0.0 and res.gap == 0.0

    def test_interior_point(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        z = 0.2 * g[0] + 0.5 * g[1] + 0.3 * g[2]
        res = min_norm_point(LpFinite(2.0, 2), z, g)
        assert res.distance <= 1e-10

    def test_plane_segment_value(self):
        G = np.array([[1.0, 0.8], [-0.8, -1.0]])
        res = min_norm_point(PLANE, [1.0, -1.0], G)
        assert res.distance == pytest.approx(0.9, abs=1e-9)
        assert np.allclose(res.weights @ G, [0.1, -0.1], atol=1e-9)
        assert res.gap <= 1e-10  # the default target

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
            ev = norm_evaluator(sp)
            assert res.distance == pytest.approx(
                float(ev((np.asarray(z) - res.weights @ G)[None, :])[0]), abs=1e-12
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

    def test_primal_refinement_above_sixty_generators(self):
        # above 60 generators the refinement runs on the support of its
        # start and the nearest generators, up to 60 of them; a support of
        # more than 60 runs whole
        sp = LpFinite(3.0, 3)
        nrm = norm_evaluator(sp)
        rng = np.random.default_rng(31)
        G = rng.uniform(-1.0, 1.0, (80, 3))
        z = rng.uniform(-1.5, 1.5, 3)
        near = np.argsort(nrm(z[None, :] - G))
        sparse = np.zeros(80)
        sparse[[0, 1, 2]] = 1.0 / 3.0
        kept = set(near[~np.isin(near, [0, 1, 2])][:57].tolist()) | {0, 1, 2}
        for lam0, allowed in [(sparse, kept), (np.full(80, 1.0 / 80), set(range(80)))]:
            lam = hullgeom._slsqp_primal(sp, nrm, G, z, lam0)
            assert set(np.flatnonzero(lam).tolist()) <= allowed
            assert float(lam.sum()) == pytest.approx(1.0, abs=1e-12)
            assert nrm((z - lam @ G)[None, :])[0] <= nrm((z - lam0 @ G)[None, :])[0]

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

    def test_lp_route_meets_its_gap_on_a_brackets_round(self, monkeypatch):
        # round 245 of the benchmark's brackets workload at seed 20106: the
        # LP's weights leave a gap of 1.38e-9 on the eighth hull instance,
        # and the polish closes it; no other LP solve of the round runs it
        rng = np.random.default_rng([20106, 245])
        draws = []
        for _ in range(2):
            for text in ("lp(inf,6)", "lp(1,5)", "lp(2,12)", "sup(3, lp(inf,4))"):
                sp = parse_space(text)
                K = int(rng.integers(1, 21))
                draws.append((sp, rng.standard_normal(dim(sp)) * 1.5,
                              rng.standard_normal((K, dim(sp)))))
        polishes = []
        polish = hullgeom._polish_true_norm

        def counting(*args, **kwargs):
            polishes.append(1)
            return polish(*args, **kwargs)

        monkeypatch.setattr(hullgeom, "_polish_true_norm", counting)
        for i, (sp, z, G) in enumerate(draws):
            if not norm_plan(sp).polyhedral:
                continue
            before = len(polishes)
            res = min_norm_point(sp, z, G)
            assert res.stage == "lp" and res.gap <= 1e-10, (i, res.gap)
            assert len(polishes) - before == (i == 7), i
        assert format_space(draws[7][0]) == "sup(3, lp(inf,4))" and draws[7][2].shape == (14, 12)

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
        assert res.gap <= 1e-10, res.gap
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


class TestEpigraph:
    """The epigraph model the LP and the SLSQP stages read, one per plan."""

    @pytest.mark.parametrize("plan_of", [norm_plan, dual_plan])
    @pytest.mark.parametrize("text", [
        "lp(inf,4)", "lp(3,3)", "sup(2, lp(2,3))", "dsum(1, lp(2,2), lp(inf,3))",
        "sup(2, dsum(2, lp(1,2), lp(inf,2)))",
    ])
    def test_rows_hold_and_are_tight_at_the_start(self, text, plan_of):
        sp = parse_space(text)
        D, plan = dim(sp), plan_of(sp)
        epi = hullgeom._epigraph(plan, D)
        assert hullgeom._epigraph(plan, D) is epi
        assert (epi.P.shape[0] == 0) == plan.polyhedral
        rng = np.random.default_rng(D)
        for x in rng.standard_normal((12, D)) * rng.choice([1e-3, 1.0, 1e3], (12, 1)):
            y = np.concatenate([x, epi.start(x)])
            f = float(plan.evaluate(x[None, :])[0])
            assert float(epi.root @ y) == pytest.approx(f, rel=1e-13), text
            assert np.all(epi.A @ y >= -1e-14 * f), text
            # each power row |y_a|^p >= sum |M y|^p holds with equality
            terms = np.abs(epi.P @ y) ** epi.p
            assert np.all(np.abs(epi.S @ terms) <= 1e-13 * (np.abs(epi.S) @ terms)), text


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
                dist_to_cm_upper(SCALARS, z, CmParams(2, eps, 1.0 + eps, 2)).upper
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
        assert np.array_equal(again.witness.weights @ np.stack(again.witness.generators),
                              first.witness.weights @ np.stack(first.witness.generators))


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
        batch = len({idxs for _, idxs in supports_of(engine)})
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
            rows = [(e, rng.choice(len(pool_of(e)), K, replace=False)) for _ in range(3) for e in engs]
            rows += [(e, np.array(chain_of(e)[:K])) for e in engs if len(chain_of(e)) >= K]
            gens, Z = np.stack([pool_of(e)[idx] for e, idx in rows]), np.stack([e.z for e, _ in rows])
            for accurate in (False, True):
                lams, vals, settled = engs[0]._solve_support(gens, Z, accurate=accurate)
                for (e, row), lam, val, done in zip(rows, lams, vals, settled):
                    lam1, val1, done1 = e._solve_support(pool_of(e)[row][None], e.z[None], accurate=accurate)
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
        rows = [chain_of(e)[:3]] + [rng.choice(len(pool_of(e)), K, replace=False) for K in (2, 3, 4, 5)
                                for _ in range(20)]
        open_after_2 = []  # per size, the rows a 2-sweep polish leaves open
        for sweeps in (2, 8):
            for k in (2, 3, 4, 5):
                G = np.stack([pool_of(e)[list(r)] for r in rows if len(r) == k])
                Z = np.broadcast_to(e.z, (G.shape[0], G.shape[2]))
                start = hullgeom._euclid_surrogate(G, Z)
                dists = e.batch.nrm_sup((Z[:, None, :] - G).reshape(-1, G.shape[2])).reshape(G.shape[:2])
                lam, settled = hullgeom._polish_true_norm(e.batch.amb, G, Z, start, sweeps, dists)
                lam60, settled60 = hullgeom._polish_true_norm(e.batch.amb, G, Z, start, 60, dists)
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
    def test_primed_pulls_equal_each_engines_own(self, alpha, monkeypatch):
        sp, n = LpFinite(INF, 3), 2
        zs = np.random.default_rng(4).uniform(-1.2, 1.2, (5, 6))
        params = CmParams(n, 0.2, alpha)
        primed = hullgeom._build_engines(sp, n, zs, 1, 1)
        hullgeom._prime_pulls(primed, params)
        members = [is_member(eng, params) for eng in primed]
        assert members.count(False) >= 3
        for z, eng, member in zip(zs, primed, members):
            pulls, closed, done = own_pulls(eng, (0.2, alpha))
            if member:  # value answers a member without pulls
                assert not done and np.isnan(pulls).all() and np.isinf(closed).all()
                continue
            own = hullgeom._build_engines(sp, n, [z], 1, 1)[0]
            pool = at_scale(own, hullgeom._pool_scale(alpha))[0]
            alone = hullgeom._pull_rows(own.batch.nrm_mean_sup, pool, own.z[None, :], 0.2, alpha)[0]
            assert done and np.array_equal(pulls, alone)
            # the closed forms of every support size come with the pulls
            assert np.isfinite(closed).all() and max(len(idxs) for _, idxs in supports_of(eng)) >= 3

        # a larger m at the same (eps, alpha) only filters the supports
        def bracket(pick):
            w, b = pick
            return (w, b.upper, b.upper_method, b.meta, b.witness.weights.tobytes(),
                    [g.tobytes() for g in b.witness.generators])

        hullgeom._best_upper(primed, params)
        work = []
        monkeypatch.setattr(hullgeom, "_pull_rows", lambda *a: work.append("pull"))
        monkeypatch.setattr(hullgeom._UpperEngine, "_solve_support", lambda *a, **k: work.append("solve"))
        later = hullgeom._best_upper(primed, params.with_m(3))
        assert work == []
        monkeypatch.undo()
        fresh = hullgeom._build_engines(sp, n, zs, 1, 1)
        assert bracket(later) == bracket(hullgeom._best_upper(fresh, params.with_m(3)))

    @pytest.mark.parametrize("sp, z", [case[:2] for case in CASES[::2]])
    def test_a_surrogate_stack_solves_each_row_as_alone(self, sp, z):
        # rows of two engines' supports, each with its own z, on a polyhedral
        # and a curved space; alone is a batch of one, and the system one
        # row's NNLS is given when it is built for that row by itself
        engs = hullgeom._build_engines(sp, 2, [z, -0.7 * np.array(z)[::-1]], 3, 2)
        rng = np.random.default_rng(12)
        for K in (2, 3, 5):
            rows = [(e, rng.choice(len(pool_of(e)), K, replace=False)) for _ in range(3) for e in engs]
            G, Z = np.stack([pool_of(e)[idx] for e, idx in rows]), np.stack([e.z for e, _ in rows])
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
        b = e.batch
        out = [pool_of(e).tobytes(), b.n_const[e.i], chain_of(e), supports_of(e), b.z_sup[e.i], b.z_mean[e.i]]
        for c in (1.0, hullgeom._pool_scale(0.95)):
            pool, solutions = at_scale(e, c)
            out.append(pool.tobytes())
            out += [(idxs, lam.tobytes(), d) for idxs, (lam, d) in sorted(solutions.items())]
        for m in (1, 2, 4):
            for eps in (0.1, 0.3):
                for alpha in (0.95, 1.0, 1.3):
                    b = e.value(CmParams(e.batch.n, eps, alpha, m))
                    w = b.witness
                    out.append((b.upper, b.upper_method, b.meta, w.weights.tobytes(),
                                [g.tobytes() for g in w.generators]))
        return out

    # a sweep profile's candidates, plus z = 0 (its blocks have no unit, and
    # its chain closes at length 2 on a support through 0) and a member z
    # at budget 8 on sup(2, lp(inf,8)) the chains reach 12 generators and
    # the partition families 16, so a sum over a padded stack would reassociate
    @pytest.mark.parametrize("sp, n, budget", [
        (LpFinite(INF, 3), 2, 1), (SupTuple(2, LpFinite(INF, 2)), 2, 8), (LpFinite(3.0, 2), 2, 1),
        (SupTuple(2, LpFinite(INF, 8)), 1, 8),
    ])
    def test_together_equals_alone(self, sp, n, budget):
        member = 0.9 * np.tile(canonical_unit(sp), n)
        zs = [v for _, v in _adversaries(sp, n, budget, 5)] + [np.zeros(n * dim(sp)), member]
        together = hullgeom._build_engines(sp, n, zs, 5, budget)
        # the scaled supports of every non-member engine as one batch too
        hullgeom._prime_pulls(together, CmParams(n, 0.2, 0.95))
        caps = [min(e.batch.n_const[e.i], max(4, min(12, budget + 4))) for e in together]
        closed = [len(chain_of(e)) < cap for e, cap in zip(together, caps)]
        assert closed[-2] and is_member(together[-1], CmParams(n, 0.2, 0.95))
        assert len({len(chain_of(e)) for e in together}) > 1
        if sp == LpFinite(3.0, 2):
            assert len(set(caps)) > 1  # and at different caps
        if dim(sp) == 16:
            assert max(len(chain_of(e)) for e in together) == 12 and max(together[0].batch.sizes) == 16
        for z, e in zip(zs, together):
            alone = hullgeom._build_engines(sp, n, [z], 5, budget)[0]
            assert self.state(e) == self.state(alone)

    @staticmethod
    def bracket(b):
        w = b.witness
        return (b.lower, b.upper, b.lower_method, b.upper_method, b.meta, w.weights.tobytes(),
                [g.tobytes() for g in w.generators])

    @staticmethod
    def loop_closed(e, p):
        """Every support's closed form d_C / Z, computed support by support."""
        pool, solutions = at_scale(e, hullgeom._pool_scale(p.alpha))
        s = hullgeom._pull_rows(e.batch.nrm_mean_sup, pool, e.z[None, :], p.epsilon, p.alpha)[0]
        return [solutions[idxs][1] / float(np.sum(solutions[idxs][0] / (1.0 - s[list(idxs)])))
                for _, idxs in supports_of(e)]

    @classmethod
    def loop_upper(cls, e, p):
        """The smallest closed form over the supports of at most m generators, or 0 for a member."""
        if is_member(e, p):
            return 0.0
        return min(v for v, (_, idxs) in zip(cls.loop_closed(e, p), supports_of(e)) if len(idxs) <= p.m)

    @pytest.mark.parametrize("text, n, budget", [
        *[pytest.param(text, n, 1, id=f"{text}-{n}") for text, n in (("lp(inf,3)", 2), ("lp(inf,1)", 6),
                                                                      ("lp(3,2)", 2))],
        ("sup(2, lp(inf,8))", 1, 8), ("lp(1.5,3)", 2, 8),
    ])
    def test_batch_upper_is_the_best_own_value(self, text, n, budget):
        # a profile's batch plus a member z, against each engine built and
        # asked alone, and against the closed forms computed one by one: the
        # chosen ones, and at m = 1 every one of the batch's table, whose
        # sums of 9 to 16 terms a padded stack would reassociate; the
        # largest upper is tied between engines at most of these params, and
        # the first of them must win
        sp = parse_space(text)
        zs = [v for _, v in _adversaries(sp, n, budget, 5)] + [0.9 * np.tile(canonical_unit(sp), n)]
        batch = hullgeom._build_engines(sp, n, zs, 5, budget)
        alone = [hullgeom._build_engines(sp, n, [z], 5, budget)[0] for z in zs]
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
                if m == 1:
                    for e, a in zip(batch, alone):
                        if not is_member(e, p):
                            assert own_pulls(e, (eps, alpha))[1].tolist() == self.loop_closed(a, p)
        assert batch[-1].value(p).upper_method == "member-shortcut"
        assert ties >= 2

    def test_a_losing_engines_drift_raises(self, monkeypatch):
        sp, n = LpFinite(3.0, 2), 2
        batch = hullgeom._build_engines(sp, n, [v for _, v in _adversaries(sp, n, 1, 5)], 5, 1)
        p = CmParams(n, 0.2, 1.0, 2)
        i, b = hullgeom._best_upper(batch, p)
        loser = batch[(i + 1) % len(batch)]
        assert not is_member(loser, p) and loser.value(p).upper < b.upper
        loser.batch.pulls[0.2, 1.0].closed[loser.i] *= 0.5
        with pytest.raises(InternalInconsistencyError, match="drifted"):
            hullgeom._best_upper(batch, p)

    @pytest.mark.parametrize("size", [1, 5])
    def test_the_returned_witness_is_the_checked_one(self, monkeypatch, size):
        # a winner's witness moved halfway to z halves its distance, which
        # no longer matches the closed form it reports
        sp, n = LpFinite(3.0, 2), 2
        batch = hullgeom._build_engines(sp, n, [v for _, v in _adversaries(sp, n, 1, 5)][:size], 5, 1)
        p = CmParams(n, 0.2, 1.0, 2)
        assert hullgeom._best_upper(batch, p)[1].upper > 0.0
        witness = hullgeom._UpperEngine._witness

        def moved(self, *args):
            weights, gens, sc = witness(self, *args)
            return weights, 0.5 * (gens + self.z), sc

        monkeypatch.setattr(hullgeom._UpperEngine, "_witness", moved)
        with pytest.raises(InternalInconsistencyError, match="drifted"):
            hullgeom._best_upper(batch, p)

    def test_engines_of_two_batches_are_refused(self):
        sp, n = LpFinite(3.0, 2), 2
        zs = [v for _, v in _adversaries(sp, n, 1, 5)][:2]
        one, two = (hullgeom._build_engines(sp, n, [z], 5, 1)[0] for z in zs)
        with pytest.raises(ValueError, match="more than one batch"):
            hullgeom._best_upper([one, two], CmParams(n, 0.2, 1.0, 2))

    def test_prototype_keys_match_the_tuple_keys(self):
        # rows equal to 12 digits, or up to the sign of a zero, are one
        # prototype of their engine; each engine's pool and partition
        # supports are those the tuple keys of np.round(row, 12) give
        sp, n = LpFinite(INF, 2), 2
        u = np.array([0.5, -0.0, 0.25, 0.0])
        # seven tiled units, then the overwrites of parts 1 (one row) and 2 (two)
        protos = np.array([u, u + 0.0, u + 3e-14, [0.5, -1e-14, 0.25, -0.0], u + 1e-11,
                           -u, u + [0.0, 0.0, 0.0, 4e-13],
                           u + 1e-11, -u + 2e-13, [0.9, 0.1, -0.3, 0.0]])
        # a second engine with the last five units and the same overwrites
        engines = [(protos[:7], protos[7:]), (protos[2:7], protos[7:])]
        batch = hullgeom._EngineBatch(sp, n, 1, np.zeros((2, 4)))
        over = batch.set_pool(np.concatenate([units for units, _ in engines]), np.array([7, 5]),
                              np.stack([rows for _, rows in engines]))
        assert batch.start.tolist() == [0, 4, 8] and batch.owner.tolist() == [0] * 4 + [1] * 4
        for i, (units, rows) in enumerate(engines):
            index_of, kept, idx = {}, [], []
            for row in np.concatenate([units, rows]):
                key = tuple(np.round(row, 12))
                if key not in index_of:
                    index_of[key] = len(kept)
                    kept.append(row)
                idx.append(index_of[key])
            pool = pool_of(hullgeom._UpperEngine(batch, i))
            assert np.array_equal(pool, np.stack(kept)) and len(kept) == 4
            assert batch.n_const[i] == max(idx[: len(units)]) + 1 == 3
            assert (over[i, :1].tolist(), over[i, 1:].tolist()) == (idx[-3:-2], idx[-2:]) == ([1], [2, 3])

    @staticmethod
    def settled_in_greedy(e, idxs):
        """Whether the greedy stage's 8-sweep solve of a chain support settled."""
        return (idxs == tuple(chain_of(e)[: len(idxs)])
                and e._solve_support(pool_of(e)[list(idxs)][None], e.z[None], accurate=False)[2][0])

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
        batch = engines[0].batch
        assert batch.scales[1.0].pool is batch.pool and batch.scales[1.0].solved[batch.valid].all()
        for e in engines:
            _, found = at_scale(e, 1.0)
            assert set(found) == {idxs for _, idxs in supports_of(e)}
            for idxs, (lam, d) in found.items():
                lam1, d1, _ = solve(e, pool_of(e)[list(idxs)][None], e.z[None], accurate=True)
                assert lam.tobytes() == lam1[0].tobytes() and d == d1[0], idxs
                resolved = (pool_of(e)[list(idxs)].tobytes(), e.z.tobytes()) in accurate_rows
                assert resolved != self.settled_in_greedy(e, idxs), idxs
                kept += not resolved
        assert kept >= len(engines)  # at least every chain-1
        if sp == TestBatchedRows.CAPPED[0]:  # the capped chain-3 support took the re-solve
            e = engines[0]
            assert accurate_rows == [(pool_of(e)[chain_of(e)[:3]].tobytes(), e.z.tobytes())]

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
        assert [name for name, _ in supports_of(engine) if name.startswith("partition")] == []
        assert len(chain_of(engine)) > 2
        assert calls == [(K, False, True) for K in range(2, len(chain_of(engine)) + 1)]

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
        longest = max(len(chain_of(e)) for e in engines)
        # the c = 1 stage solves only the sizes the greedy stage left open:
        # here the partition supports, and no chain support of size 4 or 5
        open_sizes = sorted({len(idxs) for e in engines for _, idxs in supports_of(e)
                             if not self.settled_in_greedy(e, idxs)})
        assert sizes == list(range(2, longest + 1)) + open_sizes
        assert longest == 5 and open_sizes == [1, 2, 3]
        assert len(sizes) < len(engines) == 23


    @pytest.mark.parametrize("size", [1, 5, 40])
    def test_one_drift_norm_call_and_one_witness_per_call(self, monkeypatch, size):
        # every non-member engine is checked in one norm evaluation, and only
        # the winner's decomposition is built, however large the batch
        # opposed blocks keep every tuple out of the set, but the last of 40
        sp, n, rng = LpFinite(INF, 3), 2, np.random.default_rng(9)
        u = rng.uniform(-1.0, 1.0, (size, 3))
        zs = np.concatenate([u, -rng.uniform(0.5, 1.0, (size, 1)) * u], axis=1)
        if size == 40:
            zs[-1] = 0.95 * np.tile(canonical_unit(sp), n)
        engines = hullgeom._build_engines(sp, n, zs, 3, 1)
        batch, norms, witnessed = engines[0].batch, [], []
        nrm_sup, witness = batch.nrm_sup, hullgeom._UpperEngine._witness
        batch.nrm_sup = lambda X: norms.append(len(X)) or nrm_sup(X)

        def recording(self, *args):
            witnessed.append(self.i)
            return witness(self, *args)

        monkeypatch.setattr(hullgeom._UpperEngine, "_witness", recording)
        for eps, alpha in ((0.2, 1.0), (0.3, 1.2)):
            for m in (1, 2, 3):
                p = CmParams(n, eps, alpha, m)
                live = [not is_member(e, p) for e in engines]
                del norms[:], witnessed[:]
                w, b = hullgeom._best_upper(engines, p)
                assert norms == [sum(live)] and witnessed == [w] and live[w]
                assert sum(live) == size - (size == 40)
                assert b.upper == max(e.value(p).upper for e in engines)

    def test_one_view_per_candidate(self, monkeypatch):
        # a profile makes one engine view per candidate and no other
        made, init = [], hullgeom._UpperEngine.__init__

        def counting(self, batch, i):
            made.append(i)
            init(self, batch, i)

        monkeypatch.setattr(hullgeom._UpperEngine, "__init__", counting)
        sp, n = LpFinite(INF, 3), 2
        estimate_dk(sp, n, 0.2, k_range=(1, 2, 3), budget=1, seed=5)
        assert made == list(range(len(_adversaries(sp, n, 1, 5))))

    def test_tie_scan_is_the_left_to_right_scan(self):
        # rows of near ties (within and just past 1e-12 at several scales),
        # with infinite entries, against the scan one entry at a time
        def scan(row):
            best, low = -1, np.inf
            for k, v in enumerate(row):
                if v < low - 1e-12:
                    best, low = k, v
            return best

        rng = np.random.default_rng(17)
        blocked = 0
        for _ in range(300):
            C, W = int(rng.integers(1, 30)), int(rng.integers(1, 17))
            steps = rng.choice([0.0, 1e-13, 5e-13, 9e-13, 1e-12, 1.1e-12, 2e-12, 1e-9], (C, W))
            V = np.abs(rng.choice([0.0, 1e-14, 0.5, 1.7, 1e4], (C, 1)) + steps * rng.choice([-1, 1], (C, W)))
            V[rng.random((C, W)) < 0.3] = np.inf
            V[np.arange(C), rng.integers(0, W, C)] = rng.uniform(0.0, 2.0, C)
            want = [scan(row) for row in V]
            assert hullgeom._tie_scan(V).tolist() == want
            blocked += sum(w != int(np.argmin(row)) for w, row in zip(want, V))
        assert blocked > 100


def sixty_step_pulls(nrm_mean_sup, pool, Z, eps, alpha):
    """The pulls of the plain 60-step bisection: the reference of the stopped one."""
    lo, hi = np.zeros(len(pool)), np.ones(len(pool))
    for _ in range(60):
        mid = (lo + hi) / 2.0
        mean, sup = nrm_mean_sup((1.0 - mid)[:, None] * pool + mid[:, None] * Z)
        ok = (mean >= 1.0 - eps) & (sup <= alpha)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo


def tuples_at_sup(sp, n, sups, seed):
    """One seeded tuple per entry of sups, with that sup norm: its first block has norm sup,
    the others a norm drawn from [0.6, 1] times it."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((len(sups), n, dim(sp)))
    scale = rng.uniform(0.6, 1.0, (len(sups), n))
    scale[:, 0] = 1.0
    scale *= np.asarray(sups)[:, None] / norm_evaluator(sp)(B.reshape(-1, dim(sp))).reshape(len(sups), n)
    return (B * scale[:, :, None]).reshape(len(sups), -1)


class TestSharedPulls:
    """The stopped bisection, and pulls shared between alphas of one eps and pool scale."""

    SPACES = [("lp(4,2)", 2), ("lp(1.5,2)", 2), ("dsum(2, lp(1,2), lp(inf,1))", 2),
              ("lp(inf,3)", 2), ("lp(inf,1)", 6)]
    # two tuples inside the unit ball, two with a sup norm in (1, 1.3), two above 1.3
    SUPS = (0.8, 0.9, 1.1, 1.2, 1.4, 1.6)

    @staticmethod
    def counting_pulls(monkeypatch):
        """Patch ``_pull_rows`` to record the rows of each call; return the record."""
        rows, pull = [], hullgeom._pull_rows

        def counted(nrm_mean_sup, pool, *args):
            rows.append(len(pool))
            return pull(nrm_mean_sup, pool, *args)

        monkeypatch.setattr(hullgeom, "_pull_rows", counted)
        return rows

    @staticmethod
    def pending_rows(engines, params):
        """The pool rows that a first priming at params would pull."""
        batch = engines[0].batch
        return ~batch.members(params)[batch.owner]

    @pytest.mark.parametrize("text, n", SPACES)
    def test_stopped_bisection_equals_sixty_steps(self, text, n):
        sp = parse_space(text)
        engines = hullgeom._build_engines(sp, n, tuples_at_sup(sp, n, self.SUPS, 2), 1, 1)
        batch, steps = engines[0].batch, []

        def counting(X):
            steps[-1] += 1
            return batch.nrm_mean_sup(X)

        pulled_outside = 0
        for eps in (0.1, 0.3):
            for alpha in (0.95, 1.0, 1.3):
                rows = self.pending_rows(engines, CmParams(n, eps, alpha))
                pool = batch.scale(hullgeom._pool_scale(alpha)).pool[rows]
                Z = batch.Z[batch.owner[rows]]
                steps.append(0)
                s, top = hullgeom._pull_rows(counting, pool, Z, eps, alpha)
                assert np.array_equal(s, sixty_step_pulls(batch.nrm_mean_sup, pool, Z, eps, alpha))
                # the bisection evaluated the pulled point itself
                assert np.all(top >= batch.nrm_mean_sup((1.0 - s)[:, None] * pool + s[:, None] * Z)[1])
                pulled_outside += int(np.sum(batch.z_sup[batch.owner[rows]] > 1.0))
        assert pulled_outside > 0
        # no row reaches its fixed point before step 54; a row pulled by
        # less than 2^-6 has none within 60 steps, and keeps its call going
        assert all(54 <= k <= 60 for k in steps) and min(steps) < 60, steps

    def test_a_pull_below_one_ulp_of_one_is_bisected_to_the_end(self):
        # a prototype one ulp inside the unit sup ball, pulled toward z = (c, c):
        # the pull is about 2^-53 / (c - 1), found only after step 53
        pool = np.full((4, 2), 1.0 - 2.0 ** -53)
        Z = np.array([[4.0, 4.0], [16.0, 16.0], [1e3, 1e3], [1.5, 1.5]])
        nrm_mean_sup = hullgeom._mean_sup_evaluator(LpFinite(INF, 1), 2)
        for rows in ([0], [1], [0, 1, 2], [3], [0, 3]):
            s, _ = hullgeom._pull_rows(nrm_mean_sup, pool[rows], Z[rows], 0.1, 1.0)
            want = sixty_step_pulls(nrm_mean_sup, pool[rows], Z[rows], 0.1, 1.0)
            assert np.array_equal(s, want), rows
        assert 0.0 < want[0] < 2.0 ** -53

    @pytest.mark.parametrize("first, second", [(1.0, 1.3), (1.3, 1.0)])
    @pytest.mark.parametrize("text, n", SPACES)
    def test_a_shared_key_equals_a_fresh_batch(self, text, n, first, second, monkeypatch):
        sp = parse_space(text)
        zs = tuples_at_sup(sp, n, self.SUPS, 3)
        shared = hullgeom._build_engines(sp, n, zs, 1, 1)
        hullgeom._prime_pulls(shared, CmParams(n, 0.2, first))
        rows = self.counting_pulls(monkeypatch)
        hullgeom._prime_pulls(shared, CmParams(n, 0.2, second))
        monkeypatch.undo()
        assert sum(rows) < np.sum(self.pending_rows(shared, CmParams(n, 0.2, second)))
        fresh = hullgeom._build_engines(sp, n, zs, 1, 1)
        hullgeom._prime_pulls(fresh, CmParams(n, 0.2, second))
        got, want = shared[0].batch.pulls[0.2, second], fresh[0].batch.pulls[0.2, second]
        for field in ("member", "pulls", "sup", "closed", "pending"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field
        for m in (1, 2):
            a = hullgeom._best_upper(shared, CmParams(n, 0.2, second, m))
            b = hullgeom._best_upper(fresh, CmParams(n, 0.2, second, m))
            assert a[0] == b[0] and TestBatchedEngines.bracket(a[1]) == TestBatchedEngines.bracket(b[1])

    @pytest.mark.parametrize("text, n", SPACES)
    def test_only_rows_whose_sup_binds_are_bisected_again(self, text, n, monkeypatch):
        sp = parse_space(text)
        engines = hullgeom._build_engines(sp, n, tuples_at_sup(sp, n, self.SUPS, 4), 1, 1)
        batch = engines[0].batch
        at_one = hullgeom._prime_pulls(engines, CmParams(n, 0.2, 1.0))
        rows = self.counting_pulls(monkeypatch)
        hullgeom._prime_pulls(engines, CmParams(n, 0.2, 1.3))
        pending = self.pending_rows(engines, CmParams(n, 0.2, 1.3))
        binds = pending & (at_one.sup > 1.0)
        assert rows == [int(np.sum(binds))]
        assert 0 < np.sum(binds) < np.sum(pending)
        # a tuple inside the unit ball keeps every point of its segments there
        assert np.all(batch.z_sup[batch.owner[binds]] > 1.0)

    def test_no_pull_is_shared_below_alpha_one_or_across_eps(self, monkeypatch):
        sp, n = parse_space("lp(4,2)"), 2
        engines = hullgeom._build_engines(sp, n, tuples_at_sup(sp, n, self.SUPS, 5), 1, 1)
        rows = self.counting_pulls(monkeypatch)
        asked = [(0.2, 0.95), (0.2, 0.97), (0.2, 1.0), (0.3, 1.3), (0.3, 0.95)]
        for eps, alpha in asked:
            hullgeom._prime_pulls(engines, CmParams(n, eps, alpha))
        assert rows == [int(np.sum(self.pending_rows(engines, CmParams(n, eps, alpha))))
                        for eps, alpha in asked]
        monkeypatch.undo()
        fresh = hullgeom._build_engines(sp, n, tuples_at_sup(sp, n, self.SUPS, 5), 1, 1)
        hullgeom._prime_pulls(fresh, CmParams(n, 0.2, 0.97))
        got, want = engines[0].batch.pulls[0.2, 0.97], fresh[0].batch.pulls[0.2, 0.97]
        assert np.array_equal(got.pulls, want.pulls, equal_nan=True)
        assert np.array_equal(got.closed, want.closed)


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
        f = spaces._lp_combine(p, fs)
        return (f,) + spaces._lp_slopes(p, f, fs, lefts, rights)

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
        calls, probe = [], spaces.NormPlan.probe

        def counting(plan, R, W):
            calls.append((plan, R.shape))
            return probe(plan, R, W)

        monkeypatch.setattr(spaces.NormPlan, "probe", counting)
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
            (1.0234812035424676, "57fc86f5e1cf2613"), (0.756083413491658, "605f47acb239ca1a"),
            (0.7847537427179886, "10f9d2b410a08282"), (1.0234812035424676, "57fc86f5e1cf2613")],
        ("lp(1.5,2)", (0.3, 0.8, -0.6, 0.1)): [
            (0.5417207166789122, "5a9aab97748d2f86"), (0.4138621530493524, "c8bbd7fe86c9caf4"),
            (0.26530834586854235, "59b2d5913dbaab79"), (0.5417207166789122, "5a9aab97748d2f86")],
        ("dsum(2, lp(1,2), lp(inf,1))", (0.5, -0.3, 0.2, -0.4, 0.1, 0.6)): [
            (0.5956245596303726, "1ddf841196c71f9c"), (0.563085932714401, "4826d8e1648c35d0"),
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

    def test_rejects_non_finite_resolution_before_any_grid_work(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(hullgeom, "_grid_points", no_grid)
        for h in (-0.5, math.inf, math.nan):
            with pytest.raises(ParameterError, match="resolution"):
                dist_to_cm_grid(SCALARS, [1.0, -1.0], self.P1, resolution=h)

    def test_empty_strict_set_refused_on_both_paths(self, monkeypatch):
        # at step 0.3 the grid's largest point in the unit ball is (0.9, 0.9),
        # whose mean misses 1 - eps = 0.95; the relaxed set still has two
        # points.  A profile refuses as the bracket does, before its engines.
        p = CmParams(n=2, epsilon=0.05, m=2)
        monkeypatch.setattr(dkprofile, "_build_engines", None)
        for entry in (lambda: dist_to_cm_grid(SCALARS, [1.0, -1.0], p, 0.3),
                      lambda: estimate_dk(SCALARS, 2, 0.05, k_range=(1, 2), resolution=0.3)):
            with pytest.raises(CapabilityRefusal, match="coarse") as exc:
                entry()
            assert exc.value.report["strict_members"] == 0
            assert exc.value.report["relax_members"] == 2

    def test_wrong_length_z_is_refused_before_the_grid(self):
        # z is checked before every grid refusal: a grid with no strict
        # members, a zero step and a grid over the guard.  A profile takes no
        # z; its candidates come from the unit-ball sampler at the right length.
        p = CmParams(n=2, epsilon=0.05, m=2)
        for h in (0.3, 0.0, 1e-4):
            with pytest.raises(spaces.DimensionMismatch):
                dist_to_cm_grid(SCALARS, [1.0, -1.0, 0.5], p, h)

    def test_no_vertex_solve_above_the_dimension_cap(self):
        members = hullgeom._grid_members(SCALARS, CmParams(5, 0.25, m=2), 0.5)
        assert members.relax.shape[1] > hullgeom._VERTEX_DIM_CAP
        assert members.relax_vertices is None
        assert hullgeom._grid_members(SCALARS, CmParams(3, 0.25, m=2), 0.25).relax_vertices is not None

    # (space, n, resolution): ambient dimension 2, 3 and 4
    LOWER_CASES = [(SCALARS, 2, 0.05), (SCALARS, 3, 0.25), (LpFinite(2.0, 2), 2, 0.25)]

    @pytest.mark.parametrize("sp, n, h", LOWER_CASES)
    def test_lower_only_path_equals_the_bracket_lower(self, sp, n, h):
        # one record per eps for every z and m, as a profile uses it, against
        # a bracket that builds its own record per call
        amb = hullgeom.ambient_space(sp, n)
        rng = np.random.default_rng(n)
        zs = [rng.uniform(-1.2, 1.2, dim(amb)) for _ in range(4)] + [np.tile(canonical_unit(sp), n)]
        for eps in (0.2, 0.3):
            members = hullgeom._grid_members(sp, CmParams(n, eps), h)
            for m in (1, 2):
                for z in zs:
                    low = hullgeom._grid_lower(amb, z, members, m)[0]
                    g = dist_to_cm_grid(sp, z, CmParams(n, eps, m=m), h)
                    assert np.float64(low).tobytes() == np.float64(g.lower).tobytes(), (eps, m, z)

    def test_each_call_gets_its_own_meta(self):
        p = CmParams(n=3, epsilon=0.5, m=2)
        first = dist_to_cm_grid(SCALARS, [1.0, -1.0, 0.5], p, 0.25)
        first.meta["grid_points"] = -1
        again = dist_to_cm_grid(SCALARS, [1.0, -1.0, 0.5], p, 0.25)
        assert again.meta["grid_points"] == 9**3 and again.meta is not first.meta

    @pytest.mark.parametrize("sp, n, h", LOWER_CASES[1:])
    def test_vertex_solve_lower_is_below_the_all_member_distance(self, sp, n, h):
        amb = hullgeom.ambient_space(sp, n)
        members = hullgeom._grid_members(sp, CmParams(n, 0.25, m=2), h)
        V = members.relax_vertices
        assert V is not None and 0 < V.shape[0] < members.relax.shape[0]
        rng = np.random.default_rng(7)
        for _ in range(6):
            z = rng.uniform(-1.5, 1.5, amb_dim := dim(amb))
            lower = hullgeom._dual_certificate(amb, z, members)
            full = min_norm_point(amb, z, members.relax, target_gap=1e-9)
            # up to the rounding of phi(z) - max phi(g), which is not yet
            # outward: at a grid point nearest z, full.lower itself reads one
            # ulp above full.distance
            assert lower <= full.distance + 4 * math.ulp(full.distance), (z, amb_dim)
            assert lower >= full.lower - 1e-9
            # the vertex solve's functional certifies the lower it reports
            res = min_norm_point(amb, z, members.relax[V], target_gap=1e-9)
            if res.functional is not None:
                phi = res.functional
                assert dual_norm_of(amb, phi) <= 1.0 + 1e-12
                assert res.lower == max(0.0, float(phi @ z - np.max(members.relax[V] @ phi)))

    def test_a_vertex_qhull_drops_cannot_raise_the_lower(self):
        # drop the relaxed vertex nearest z from the vertex set: the solve on
        # the rest reports too large a lower, and checking its functional
        # against every member brings it back under the true distance
        amb = hullgeom.ambient_space(SCALARS, 3)
        base = hullgeom._grid_members(SCALARS, CmParams(3, 0.25, m=2), 0.25)
        members = hullgeom._GridMembers(base.r_cov, base.strict, base.relax, None, None, None, {})
        V = base.relax_vertices
        z = 2.0 * base.relax[V[0]]
        members.__dict__["relax_vertices"] = V[1:]
        full = min_norm_point(amb, z, base.relax, target_gap=1e-9)
        assert min_norm_point(amb, z, base.relax[V[1:]], target_gap=1e-9).lower > full.distance + 1e-3
        assert hullgeom._dual_certificate(amb, z, members) <= full.distance + 4 * math.ulp(full.distance)

    def test_flat_relaxed_set_in_three_dimensions_falls_back(self):
        # members on the plane x3 = x1 + x2: Qhull refuses, so the m >= 2
        # lower side solves on every member
        amb = hullgeom.ambient_space(SCALARS, 3)
        rng = np.random.default_rng(5)
        xy = rng.uniform(-1.0, 1.0, (30, 2))
        flat = np.column_stack([xy, xy.sum(axis=1)])
        members = hullgeom._GridMembers(0.01, flat[:5].copy(), flat, None, None, None, {})
        assert members.relax_vertices is None
        z = np.array([0.4, -0.8, 1.3])
        lower, method = hullgeom._grid_lower(amb, z, members, 2)
        want = min_norm_point(amb, z, flat, target_gap=1e-9).lower
        assert method == "grid-dual-certificate"
        assert lower == max(0.0, float(np.nextafter(want - 0.01, -math.inf)))
        assert lower > 0.0
