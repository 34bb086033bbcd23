"""Norm evaluation, sampling and the space grammar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullgap.hullgeom import _mean_sup_evaluator
from hullgap.spaces import (
    INF,
    DimensionMismatch,
    DirectSum,
    FunctionModule,
    LpFinite,
    SpaceGrammarError,
    SupTuple,
    canonical_unit,
    dim,
    format_space,
    norm,
    norm_evaluator,
    norm_plan,
    norming_section,
    parse_space,
    parts,
    sample_unit_ball,
    sup_slots,
)

ATOL = 1e-12


def some_spaces():
    return [
        LpFinite(2, 3),
        LpFinite(1, 4),
        LpFinite(INF, 4),
        LpFinite(3.5, 2),
        SupTuple(2, LpFinite(1, 2)),
        SupTuple(3, LpFinite(INF, 2)),
        DirectSum(1, LpFinite(1, 2), LpFinite(INF, 2)),
        DirectSum(INF, LpFinite(2, 2), LpFinite(1, 1)),
        DirectSum(2, LpFinite(2, 2), LpFinite(2, 3)),
        FunctionModule(4, LpFinite(2, 2)),
        FunctionModule(8, LpFinite(2, 1)),
        SupTuple(2, DirectSum(1, LpFinite(2, 1), LpFinite(INF, 2))),
    ]


class TestNormExamples:
    def test_euclidean_identity(self):
        assert norm(LpFinite(2, 2), [3, 4]) == pytest.approx(5.0, abs=ATOL)

    def test_zero_vector(self):
        for sp in some_spaces():
            assert norm(sp, np.zeros(dim(sp))) == 0.0

    def test_sup_tuple_is_max_of_blocks(self):
        sp = SupTuple(2, LpFinite(1, 2))
        assert norm(sp, [1, 1, 0.5, 0]) == 2.0

    def test_direct_sum_p1_is_sum(self):
        sp = DirectSum(1, LpFinite(1, 2), LpFinite(INF, 2))
        assert norm(sp, [1, 2, 3, -4]) == (1 + 2) + 4

    def test_direct_sum_pinf_is_max(self):
        sp = DirectSum(INF, LpFinite(2, 2), LpFinite(1, 1))
        assert norm(sp, [3, 4, 2]) == 5.0

    def test_function_module_is_sup_over_base(self):
        sp = FunctionModule(3, LpFinite(2, 2))
        v = [0, 0, 3, 4, 1, 1]
        assert norm(sp, v) == 5.0

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(DimensionMismatch) as err:
            norm(LpFinite(2, 3), [1, 2])
        assert "2" in str(err.value) and "3" in str(err.value)


def block_mean_norm(space, n: int, g) -> float:
    """The norm of the block mean of an ambient n-tuple, as the hull set's member test reads it."""
    return float(_mean_sup_evaluator(space, n)(np.asarray(g, dtype=float)[None, :])[0][0])


class TestMeanBlock:
    """The block mean of an ambient n-tuple, as the hull set's member test norms it."""

    def test_idempotent_on_equal_blocks(self):
        assert block_mean_norm(LpFinite(2, 2), 2, [3, 4, 3, 4]) == 5.0

    def test_opposite_blocks_cancel(self):
        assert block_mean_norm(LpFinite(2, 2), 2, [1, 2, -1, -2]) == 0.0

    def test_scalar_arithmetic(self):
        assert block_mean_norm(LpFinite(INF, 1), 3, [1, 1, -1]) == pytest.approx(1 / 3, abs=ATOL)

    @pytest.mark.parametrize("text, row, want", [
        ("lp(4,2)", [1e-100, 0.0], 1e-100),
        ("lp(4,2)", [1e100, 0.0], 1e100),
        ("lp(2,2)", [1e200, 0.0], 1e200),
        ("dsum(2, lp(1,1), lp(1,1))", [1e200, 1e200], 1.414213562373095e200),
    ])
    def test_norm_where_the_powers_leave_the_float_range(self, text, row, want):
        assert norm(parse_space(text), row) == want


class TestSampling:
    def test_linf_vertices_present(self):
        got = sample_unit_ball(LpFinite(INF, 2), 4, seed=0)
        coords = {tuple(v) for v in got}
        assert {(1, 1), (1, -1), (-1, 1), (-1, -1)} <= coords

    def test_deterministic_for_fixed_seed(self):
        a = sample_unit_ball(LpFinite(2, 3), 50, seed=7)
        b = sample_unit_ball(LpFinite(2, 3), 50, seed=7)
        assert np.array_equal(a, b)

    def test_norms_at_most_one(self):
        for sp in some_spaces():
            for v in sample_unit_ball(sp, 100, seed=3):
                assert norm(sp, v) <= 1 + ATOL

    def test_count_respected(self):
        assert sample_unit_ball(LpFinite(1, 2), 17, seed=1).shape == (17, 2)

    def test_curved_rows_at_most_one(self):
        sp = LpFinite(4.0, 2)
        assert np.all(norm_evaluator(sp)(sample_unit_ball(sp, 200, seed=5)) <= 1.0)

    @pytest.mark.parametrize("p, d", [(1.5, 4), (1.5, 7)])
    def test_rows_dividing_back_to_themselves_are_shrunk(self, p, d):
        # a row of norm 1 + ulp divided by that norm can round back to
        # itself; over these seeds such rows turn up on both spaces
        sp = LpFinite(p, d)
        for seed in range(12):
            U = sample_unit_ball(sp, 200, seed)
            assert np.all(norm_evaluator(sp)(U) <= 1.0), seed
            assert all(norm(sp, u) <= 1.0 for u in U), seed

    @staticmethod
    def one_at_a_time(space, count, seed):
        """sample_unit_ball as a loop over single vectors, each normed by ``norm``."""
        D = dim(space)
        out, seen = [], set()

        def unit(x):
            n = norm(space, x)
            if n == 0.0 or not math.isfinite(n):
                return None
            y = x / n
            n2 = norm(space, y)
            y = y / n2 if n2 > 1.0 else y
            while (n2 := norm(space, y)) > 1.0:
                y = y / np.nextafter(n2, math.inf)
            return y

        def push(x):
            u = unit(x)
            key = tuple(np.round(u, 12))
            if key not in seen:
                seen.add(key)
                out.append(u)

        for code in range(min(2 ** min(D, 12), 4096)):
            if len(out) >= count:
                break
            push(np.array([-1.0 if (code >> i) & 1 else 1.0 for i in range(D)]))
        for i in range(D):
            if len(out) >= count:
                break
            e = np.zeros(D)
            e[i] = 1.0
            push(e)
            if len(out) < count:
                push(-e)
        rng = np.random.default_rng(seed)
        while len(out) < count:
            u = unit(rng.standard_normal(D))
            if u is not None:
                out.append(u)
        return np.stack(out)

    @pytest.mark.parametrize("text, count", [
        ("lp(2,1)", 7),  # +-e_0 repeat the two sign patterns
        ("lp(inf,1)", 1),
        ("lp(4,2)", 3),
        ("dsum(2, lp(1,2), lp(inf,1))", 40),  # past the 8 patterns and 6 basis vectors
        ("sup(3, lp(1.5,2))", 90),
        ("fmod(2, lp(3,7))", 50),  # D = 14: the patterns vary bits 0..11 only
        ("lp(1.5,13)", 4130),  # all 4096 patterns, the 26 basis vectors, 8 draws
    ])
    def test_batches_equal_the_vector_loop(self, text, count):
        sp = parse_space(text)
        for seed in (0, 11):
            got = sample_unit_ball(sp, count, seed)
            assert got.tobytes() == self.one_at_a_time(sp, count, seed).tobytes(), seed


class TestHelpers:
    def test_canonical_unit_has_norm_one(self):
        for sp in some_spaces():
            assert norm(sp, canonical_unit(sp)) == pytest.approx(1.0, abs=ATOL)

    def test_norming_section_has_norm_one(self):
        for sp in some_spaces():
            assert norm(sp, norming_section(sp)) == pytest.approx(1.0, abs=ATOL)

    def test_norming_section_fills_every_slot(self):
        sp = SupTuple(3, LpFinite(INF, 2))
        x = norming_section(sp)
        assert np.array_equal(x, np.ones(6))

    def test_sup_slots_tile_linf(self):
        slots = sup_slots(LpFinite(INF, 4))
        assert [off for off, _ in slots] == [0, 1, 2, 3]

    def test_sup_slots_absent_for_smooth_norms(self):
        assert sup_slots(LpFinite(2, 3)) is None
        assert sup_slots(DirectSum(2, LpFinite(2, 1), LpFinite(2, 1))) is None

    def test_sup_slots_recurse_through_modules(self):
        sp = FunctionModule(2, LpFinite(INF, 3))
        slots = sup_slots(sp)
        assert [off for off, _ in slots] == [0, 1, 2, 3, 4, 5]

    def test_blocks_roundtrip(self):
        sp = SupTuple(2, LpFinite(2, 3))
        v = np.arange(6.0)
        _, subs = parts(sp)
        got = [v[off : off + dim(part)] for off, part in subs]
        assert np.array_equal(np.concatenate(got), v)


@st.composite
def space_strategy(draw):
    kind = draw(st.integers(0, 3))
    p = draw(st.sampled_from([1.0, 2.0, 3.0, INF]))
    if kind == 0:
        return LpFinite(p, draw(st.integers(1, 5)))
    inner = LpFinite(draw(st.sampled_from([1.0, 2.0, INF])), draw(st.integers(1, 3)))
    if kind == 1:
        return SupTuple(draw(st.integers(1, 3)), inner)
    if kind == 2:
        other = LpFinite(draw(st.sampled_from([1.0, 2.0, INF])), draw(st.integers(1, 3)))
        return DirectSum(p, inner, other)
    return FunctionModule(draw(st.integers(1, 4)), inner)


@st.composite
def space_and_vectors(draw, n_vectors=1):
    sp = draw(space_strategy())
    D = dim(sp)
    vecs = [
        np.array([draw(st.floats(-10, 10)) for _ in range(D)]) for _ in range(n_vectors)
    ]
    return sp, vecs


class TestLayout:
    @settings(max_examples=200, deadline=None)
    @given(space_strategy())
    def test_parts_tile_the_coordinates(self, sp):
        if isinstance(sp, LpFinite):
            with pytest.raises(TypeError):
                parts(sp)
            return
        p, subs = parts(sp)
        offsets = [off for off, _ in subs]
        ends = [off + dim(part) for off, part in subs]
        assert offsets[0] == 0
        assert offsets[1:] == ends[:-1]
        assert ends[-1] == dim(sp)
        assert p == (sp.p if isinstance(sp, DirectSum) else INF)


class TestNormAxioms:
    @settings(max_examples=300, deadline=None)
    @given(space_and_vectors(1), st.floats(-100, 100))
    def test_absolute_homogeneity(self, sv, c):
        sp, (v,) = sv
        scale = max(1.0, abs(c) * max(1.0, float(np.max(np.abs(v), initial=0.0))))
        assert norm(sp, c * v) == pytest.approx(abs(c) * norm(sp, v), abs=ATOL * scale)

    @settings(max_examples=300, deadline=None)
    @given(space_and_vectors(2))
    def test_subadditive(self, sv):
        sp, (u, v) = sv
        assert norm(sp, u + v) <= norm(sp, u) + norm(sp, v) + ATOL

    @settings(max_examples=200, deadline=None)
    @given(space_and_vectors(1))
    def test_sup_tuple_norm_is_exact_max(self, sv):
        sp, (v,) = sv
        ambient = SupTuple(3, sp)
        z = np.concatenate([v, 2 * v, -v])
        expect = max(norm(sp, v), norm(sp, 2 * v), norm(sp, -v))
        assert norm(ambient, z) == expect

    @settings(max_examples=200, deadline=None)
    @given(space_and_vectors(2))
    def test_direct_sum_p1_pinf_exact(self, sv):
        sp, (u, v) = sv
        both = np.concatenate([u, v])
        s1 = DirectSum(1, sp, sp)
        si = DirectSum(INF, sp, sp)
        a, b = norm(s1, both), norm(sp, u) + norm(sp, v)
        if norm_plan(sp).p != 1.0:
            assert a == b
        else:
            # the plan splices a sum of sums into one flat sum: a and b add the
            # same k <= dim(s1) nonnegative terms in two orders, each within
            # gamma_(k-1) S of their exact sum S (Higham 2002, sec. 4.2)
            g = (dim(s1) - 1) * 2.0 ** -53 / (1.0 - (dim(s1) - 1) * 2.0 ** -53)
            assert abs(a - b) <= 2.0 * g * b / (1.0 - g)
        assert norm(si, both) == max(norm(sp, u), norm(sp, v))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1.0, 1.5, 2.0, 4.0, INF]), st.integers(2, 6), st.randoms())
    def test_lp_permutation_invariance(self, p, d, rnd):
        sp = LpFinite(p, d)
        v = np.array([rnd.uniform(-5, 5) for _ in range(d)])
        perm = list(range(d))
        rnd.shuffle(perm)
        assert norm(sp, v[perm]) == pytest.approx(norm(sp, v), rel=1e-14, abs=ATOL)


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("lp(2,8)", LpFinite(2, 8)),
            ("sup(3, lp(inf,4))", SupTuple(3, LpFinite(INF, 4))),
            (
                "dsum(1, lp(1,2), lp(inf,2))",
                DirectSum(1, LpFinite(1, 2), LpFinite(INF, 2)),
            ),
            ("fmod(8, lp(2,1))", FunctionModule(8, LpFinite(2, 1))),
            ("lp(1.5, 3)", LpFinite(1.5, 3)),
            ("  sup( 2 ,  fmod(2, lp(2,2)) ) ", SupTuple(2, FunctionModule(2, LpFinite(2, 2)))),
            # any whitespace anywhere, and any decimal spelling of an exponent
            ("lp\n(2,\t3)\xa0", LpFinite(2, 3)),
            ("dsum(2.50, lp(01.5,1), lp(inf,1))", DirectSum(2.5, LpFinite(1.5, 1), LpFinite(INF, 1))),
        ],
    )
    def test_parse(self, text, expect):
        assert parse_space(text) == expect

    @pytest.mark.parametrize(
        "bad",
        ["", "lp(0.5, 2)", "lp(2)", "sup(2 lp(2,2))", "blob(1,2)", "lp(2,2) extra", "lp(2,-1)", "lp(inf,2))",
         # Python call syntax that is not the grammar
         "lp(2,3,)", "lp(2,3) # c", "(lp(2,3))", "lp((2),3)", "lp(p=2,d=3)", "lp(2,1e3)", "lp(True,2)",
         "sup(2, 3)", "fmod(0, lp(2,1))", "lp(2,3 if 1else 2)",
         # accepted before the grammar was read by ast: a leading zero, a non-ASCII
         # digit, an exponent past Python's 4,300 digits (it read as inf)
         "lp(2,08)", "lp(02,8)", "lp(2,\u0663)", pytest.param("lp(" + "1" * 5000 + ",2)", id="long-exponent")],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(SpaceGrammarError):
            parse_space(bad)

    def test_nesting_is_bounded(self):
        # 199 sup(1, ...) around an atom are 200 nested parentheses, Python's
        # limit; 200 to 449 of them parsed before the grammar was read by ast
        nest = lambda k: "sup(1, " * k + "lp(2,3)" + ")" * k
        assert dim(parse_space(nest(199))) == 3
        for k in (200, 449, 1200):
            with pytest.raises(SpaceGrammarError, match="nested parentheses"):
                parse_space(nest(k))
        # texts too deep for Python's parser without parentheses
        for text in ("lp(" + "not " * 10**5 + "1,2)", "lp" + "(1)" * 10**5):
            with pytest.raises(SpaceGrammarError, match="too deeply nested"):
                parse_space(text)

    @settings(max_examples=100, deadline=None)
    @given(space_strategy())
    def test_roundtrip(self, drawn):
        for sp in some_spaces() + [drawn]:
            text = format_space(sp)
            assert parse_space(text) == sp
            assert format_space(parse_space(text)) == text

    def test_infinity_is_marker_not_big_float(self):
        sp = parse_space("lp(inf,3)")
        assert sp.p == math.inf
        # values that would overflow any power-based evaluation
        assert norm(sp, [1e300, -1e300, 0.0]) == 1e300
