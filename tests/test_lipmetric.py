"""Metric validation, seminorms, extension, and the line-space generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullgap.errors import ParameterError, PreconditionError
from hullgap.lipmetric import (
    DegenerateDomainError,
    FiniteMetricSpace,
    LipFunction,
    MetricError,
    MetricFileError,
    dump_metric,
    geometric_chain,
    integer_ray,
    line_metric,
    lip_seminorm,
    mcshane_extend,
    parse_metric,
    restricted_seminorm,
)

ATOL = 1e-12


def euclidean_metric(rng, n, dims=2):
    pts = rng.uniform(-5, 5, size=(n, dims))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return FiniteMetricSpace(d)


def seminorm_bruteforce(M, f):
    # independent O(N^2) double loop kept as the oracle
    idx = list(f.mask_indices(M))
    best = 0.0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = idx[a], idx[b]
            best = max(best, abs(f.values[i] - f.values[j]) / M.d(i, j))
    return best


def triangle_violation_message(m):
    # the one-k sweep: the first violation of the smallest k, row-major (i, j)
    d = (m + m.T) / 2.0
    tol = 1e-12 * (1.0 + float(np.max(m)))
    for k in range(d.shape[0]):
        viol = d > d[:, [k]] + d[[k], :] + tol
        if np.any(viol):
            i, j = map(int, np.argwhere(viol)[0])
            return (f"triangle inequality fails: dist[{i}][{j}]={d[i, j]} > "
                    f"dist[{i}][{k}]+dist[{k}][{j}]={d[i, k] + d[k, j]}")
    return None


class TestMetricValidation:
    def test_accepts_valid_metric(self):
        M = line_metric([0.0, 1.0, 3.0])
        assert M.size == 3 and M.d(0, 2) == 3.0

    def test_rejects_nonzero_diagonal(self):
        m = np.array([[0.0, 1.0], [1.0, 0.5]])
        with pytest.raises(MetricError, match="dist\\[1\\]\\[1\\]"):
            FiniteMetricSpace(m)

    def test_rejects_asymmetry(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MetricError, match="asymmetry"):
            FiniteMetricSpace(m)

    def test_rejects_zero_off_diagonal(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 1.0
        with pytest.raises(MetricError, match="positive"):
            FiniteMetricSpace(m)

    def test_rejects_triangle_violation(self):
        m = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(MetricError, match="triangle"):
            FiniteMetricSpace(m)

    # 64 points: blocks of 2**16 // 64**2 = 16 middle points, k from 32 on
    # lies in the third block or later
    N_BLOCKED = 64

    def test_planted_violation_in_a_late_block_gives_the_sweep_message(self):
        rng = np.random.default_rng(2301)
        for trial in range(12):
            if trial % 2:
                # points on a line in index order, gaps >= 0.1: the pair
                # (k - 1, k + 1) stretched by 0.05 fails through k alone
                x = np.cumsum(rng.uniform(0.1, 2.0, self.N_BLOCKED))
                m = np.abs(x[:, None] - x[None, :])
                k = int(rng.integers(32, self.N_BLOCKED - 1))
                i, j = k - 1, k + 1
                m[i, j] = m[j, i] = m[i, j] + 0.05
                want = triangle_violation_message(m)
                assert f"dist[{i}][{j}]=" in want and f"+dist[{k}][{j}]=" in want
            else:
                # planar points with one stretched pair: the reference finds
                # the first failing k, whatever it is
                m = euclidean_metric(rng, self.N_BLOCKED).dist.copy()
                i, j = sorted(int(t) for t in rng.choice(np.arange(32, self.N_BLOCKED), 2, replace=False))
                m[i, j] = m[j, i] = m[i, j] * rng.uniform(1.5, 3.0) + 1e-3
                want = triangle_violation_message(m)
                assert want is not None
            with pytest.raises(MetricError) as err:
                FiniteMetricSpace(m)
            assert str(err.value) == want

    def test_line_violation_at_k_is_reported_at_k(self):
        x = np.arange(float(self.N_BLOCKED))
        m = np.abs(x[:, None] - x[None, :])
        m[40, 42] = m[42, 40] = 2.5
        with pytest.raises(MetricError) as err:
            FiniteMetricSpace(m)
        assert str(err.value) == (
            "triangle inequality fails: dist[40][42]=2.5 > dist[40][41]+dist[41][42]=2.0"
        )

    def test_valid_metrics_of_the_blocked_size_are_accepted(self):
        rng = np.random.default_rng(2302)
        for n in (self.N_BLOCKED, 3 * self.N_BLOCKED // 2, 257):
            M = euclidean_metric(rng, n, dims=3)
            assert M.size == n and triangle_violation_message(M.dist) is None
        assert geometric_chain(0.9, 200).size == 200

    def test_rejects_tiny_spaces(self):
        with pytest.raises(MetricError):
            FiniteMetricSpace(np.zeros((1, 1)))


class TestSeminormExamples:
    def test_constant_is_zero(self):
        M = line_metric([0.0, 0.5, 2.0])
        assert lip_seminorm(M, LipFunction([7.0, 7.0, 7.0])) == 0.0

    def test_distance_to_base_has_seminorm_one(self):
        rng = np.random.default_rng(5)
        M = euclidean_metric(rng, 7)
        f = LipFunction(M.dist[:, 0])
        assert lip_seminorm(M, f) == pytest.approx(1.0, abs=ATOL)

    def test_two_point_quotient(self):
        M = line_metric([0.0, 2.0])
        assert lip_seminorm(M, LipFunction([0.0, 3.0])) == 1.5

    def test_degenerate_mask(self):
        M = line_metric([0.0, 1.0])
        with pytest.raises(DegenerateDomainError):
            lip_seminorm(M, LipFunction([0.0, 1.0], mask=(0,)))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = euclidean_metric(rng, 6)
            f = LipFunction(rng.uniform(-3, 3, size=6), mask=tuple(rng.choice(6, size=4, replace=False)))
            assert lip_seminorm(M, f) == pytest.approx(seminorm_bruteforce(M, f), abs=ATOL)

    def test_equals_the_pairwise_reference_bit_for_bit(self):
        # the same IEEE operations per pair as the double loop, so the same float
        rng = np.random.default_rng(2303)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            M = euclidean_metric(rng, n) if trial % 2 else geometric_chain(
                float(rng.uniform(0.05, 0.9)), n)
            vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0)
            size = 2 if trial % 3 == 0 else int(rng.integers(2, n + 1))
            mask = None if trial % 7 == 0 else tuple(rng.choice(n, size, replace=False).tolist())
            f = LipFunction(vals, mask=mask)
            assert lip_seminorm(M, f) == seminorm_bruteforce(M, f)


class TestMcShane:
    def test_full_mask_is_identity(self):
        M = line_metric([0.0, 1.0, 2.5])
        f = LipFunction([0.0, 0.5, 1.0])
        g = mcshane_extend(M, f, L=1.0)
        assert np.array_equal(g.values, f.values)

    def test_one_point_mask_gives_distance_cone(self):
        rng = np.random.default_rng(2)
        M = euclidean_metric(rng, 6)
        f = LipFunction(np.zeros(6), mask=(0,))
        g = mcshane_extend(M, f, L=1.0)
        assert np.allclose(g.values, M.dist[:, 0], atol=ATOL)

    def test_precondition_reports_both_values(self):
        M = line_metric([0.0, 1.0])
        f = LipFunction([0.0, 5.0])
        with pytest.raises(PreconditionError) as err:
            mcshane_extend(M, f, L=1.0)
        msg = str(err.value)
        assert "1.0" in msg and "5.0" in msg

    def test_extension_at_tight_constant(self):
        # frozen oracle: seminorm of the extension equals L and mask values
        # survive exactly, checked by the brute-force pair sweep
        rng = np.random.default_rng(23)
        for trial in range(30):
            M = euclidean_metric(rng, 6)
            mask = tuple(sorted(rng.choice(6, size=rng.integers(2, 6), replace=False)))
            f = LipFunction(rng.uniform(-2, 2, size=6), mask=mask)
            L = restricted_seminorm(M, f)
            g = mcshane_extend(M, f, L)
            assert np.array_equal(g.values[list(mask)], f.values[list(mask)])
            assert seminorm_bruteforce(M, g) <= L + 1e-12
            assert seminorm_bruteforce(M, g) == pytest.approx(L, abs=1e-12)

    def test_dominates_least_extension(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = euclidean_metric(rng, 7)
            mask = tuple(sorted(rng.choice(7, size=3, replace=False)))
            f = LipFunction(rng.uniform(-2, 2, size=7), mask=mask)
            L = restricted_seminorm(M, f) + rng.uniform(0, 1)
            hi = mcshane_extend(M, f, L)
            # the least L-Lipschitz extension: sup-convolution over the mask
            idx = list(mask)
            lo = np.max(f.values[idx][None, :] - L * M.dist[:, idx], axis=1)
            assert np.all(hi.values >= lo - ATOL)


class TestGenerators:
    def test_chain_two_points(self):
        M = geometric_chain(0.5, 2)
        assert M.size == 2 and M.d(0, 1) == 0.5

    def test_chain_point_set(self):
        q = 0.1
        M = geometric_chain(q, 3)
        # points {0, q, q^2}; distances are |q^i - q^j| exactly as floats
        assert M.d(0, 1) == q
        assert M.d(0, 2) == q**2
        assert M.d(1, 2) == q - q**2
        assert M.d(1, 2) == pytest.approx(0.09, abs=ATOL)

    def test_chain_is_valid_line_subspace(self):
        geometric_chain(0.01, 12)  # construction validates the triangle sweep

    def test_ray_two_points(self):
        M = integer_ray(2, a=2)
        assert M.d(0, 1) == 2.0

    def test_ray_max_distance(self):
        M = integer_ray(10, a=4)
        assert float(np.max(M.dist)) == 4.0**9

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            geometric_chain(1.5, 3)
        with pytest.raises(ParameterError):
            geometric_chain(0.5, 1)
        with pytest.raises(ParameterError):
            integer_ray(3, a=0.5)


class TestFileFormat:
    def test_roundtrip(self):
        M = geometric_chain(0.1, 4)
        M2 = parse_metric(dump_metric(M))
        assert np.array_equal(M.dist, M2.dist)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(MetricFileError) as err:
            parse_metric("2\n0 1\n1 zero\n")
        assert err.value.line == 3
        with pytest.raises(MetricFileError) as err:
            parse_metric("x\n")
        assert err.value.line == 1
        with pytest.raises(MetricFileError) as err:
            parse_metric("3\n0 1 2\n1 0 1\n")
        assert err.value.line is not None


@st.composite
def masked_function(draw):
    n = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    M = euclidean_metric(rng, n)
    vals = np.array([draw(st.floats(-5, 5)) for _ in range(n)])
    size = draw(st.integers(2, n))
    mask = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
    return M, LipFunction(vals, mask=mask)


class TestSeminormProperties:
    @settings(max_examples=200, deadline=None)
    @given(masked_function(), st.floats(-20, 20))
    def test_homogeneity(self, mf, c):
        M, f = mf
        gf = LipFunction(c * f.values, mask=f.mask)
        s = lip_seminorm(M, f)
        assert lip_seminorm(M, gf) == pytest.approx(abs(c) * s, rel=1e-12, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(masked_function(), st.integers(0, 10_000))
    def test_subadditive(self, mf, seed2):
        M, f = mf
        g = LipFunction(np.random.default_rng(seed2).uniform(-5, 5, M.size), mask=f.mask)
        both = LipFunction(f.values + g.values, mask=f.mask)
        assert lip_seminorm(M, both) <= lip_seminorm(M, f) + lip_seminorm(M, g) + ATOL

    @settings(max_examples=100, deadline=None)
    @given(masked_function(), st.floats(-9, 9))
    def test_constant_shift_invariance(self, mf, c):
        # the seminorm itself ignores constants; the only slack allowed is
        # the rounding that f + c introduces into the stored values
        M, f = mf
        shifted = LipFunction(f.values + c, mask=f.mask)
        s = lip_seminorm(M, f)
        assert lip_seminorm(M, shifted) == pytest.approx(s, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(masked_function())
    def test_exactly_representable_shift_is_exact(self, mf):
        # shifting by a power of two keeps small values exact, and then the
        # quotient semantics hold with no tolerance at all
        M, f = mf
        g = LipFunction(np.trunc(f.values * 16) / 16, mask=f.mask)
        shifted = LipFunction(g.values + 64.0, mask=f.mask)
        assert lip_seminorm(M, shifted) == lip_seminorm(M, g)
