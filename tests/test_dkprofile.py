"""Profile sweeps, construction-backed ceilings, and certified floors."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hullgap.dkprofile as dkprofile
from hullgap.dkprofile import (
    DkProfile,
    constructive_dk_upper,
    estimate_dk,
    _adversaries,
)
from hullgap.certificates import RingEntry, RingFamily, find_ring_family
from hullgap.errors import (
    CapabilityRefusal,
    InternalInconsistencyError,
    ParameterError,
    PreconditionError,
)
from hullgap.hullgeom import DistanceBracket
from hullgap.lipmetric import geometric_chain, line_metric
from hullgap.spaces import INF, FunctionModule, LpFinite

R1 = LpFinite(2.0, 1)


@pytest.fixture(scope="module")
def scalar_profile():
    return estimate_dk(
        R1, 2, 0.1, 1.0, (1, 2, 3, 4), budget=8, seed=0, resolution=0.01
    )


class TestScalarProfile:
    def test_k1_bracket(self, scalar_profile):
        b = scalar_profile.bracket(1)
        assert 1.75 <= b.lower <= b.upper <= 1.85

    def test_flat_tail(self, scalar_profile):
        for k in (2, 3, 4):
            b = scalar_profile.bracket(k)
            assert 0.85 <= b.lower <= b.upper <= 0.95
        assert abs(scalar_profile.bracket(2).upper - scalar_profile.bracket(4).upper) <= 1e-9

    def test_witness_is_opposite_pair(self, scalar_profile):
        wid = scalar_profile.bracket(1).meta["witness_id"]
        vecs = dict(_adversaries(R1, 2, 8, 0))
        assert np.allclose(np.abs(vecs[wid]), [1.0, 1.0])
        assert vecs[wid][0] * vecs[wid][1] < 0

    def test_provenance(self, scalar_profile):
        for k, b in scalar_profile.entries:
            assert b.meta["method"] == "grid+sweep"
            assert b.meta["resolution"] == 0.01
            assert b.lower_method == "grid-covering"
            assert b.witness is not None

    def test_uppers_nonincreasing(self, scalar_profile):
        ups = [b.upper for _, b in scalar_profile.entries]
        assert all(b <= a + 1e-12 for a, b in zip(ups, ups[1:]))

    def test_ks_accessor(self, scalar_profile):
        assert scalar_profile.ks == (1, 2, 3, 4)
        with pytest.raises(ParameterError, match="k=7"):
            scalar_profile.bracket(7)

    def test_csv_shape(self, scalar_profile):
        text = scalar_profile.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["k", "lower", "upper", "method", "witness-id"]
        assert len(rows) == 5
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
        # repr round-trips every float exactly
        for r, (_, b) in zip(rows[1:], scalar_profile.entries):
            assert float(r[1]) == b.lower and float(r[2]) == b.upper

    def test_json_shape(self, scalar_profile):
        doc = scalar_profile.to_jsonable()
        assert set(doc["entries"]) == {"1", "2", "3", "4"}
        json.dumps(doc, sort_keys=True)


class TestEstimateDk:
    def test_bad_k_range(self):
        with pytest.raises(ParameterError, match="empty"):
            estimate_dk(R1, 2, 0.1, k_range=())
        with pytest.raises(ParameterError, match=">= 1"):
            estimate_dk(R1, 2, 0.1, k_range=(0, 1))

    def test_deterministic_rerun(self):
        kw = dict(k_range=(1, 2), budget=2, seed=11, resolution=0.25)
        a = estimate_dk(LpFinite(2.0, 2), 2, 0.3, 1.0, **kw)
        b = estimate_dk(LpFinite(2.0, 2), 2, 0.3, 1.0, **kw)
        assert a.to_csv() == b.to_csv()
        assert json.dumps(a.to_jsonable(), sort_keys=True) == json.dumps(
            b.to_jsonable(), sort_keys=True
        )

    def test_wider_eps_dominated(self):
        kw = dict(k_range=(1, 2, 3), budget=4, seed=2, resolution=0.05)
        narrow = estimate_dk(R1, 2, 0.1, 1.0, **kw)
        wide = estimate_dk(R1, 2, 0.2, 1.0, **kw)
        for k in (1, 2, 3):
            assert wide.bracket(k).upper <= narrow.bracket(k).upper + 1e-9
            assert wide.bracket(k).lower <= narrow.bracket(k).lower + 1e-9

    def test_widened_alpha_dominated(self):
        kw = dict(k_range=(1, 2, 3), budget=4, seed=2, resolution=0.05)
        plain = estimate_dk(R1, 2, 0.1, 1.0, **kw)
        widened = estimate_dk(R1, 2, 0.1, 1.1, **kw)
        for k in (1, 2, 3):
            assert widened.bracket(k).upper <= plain.bracket(k).upper + 1e-9
            assert widened.bracket(k).lower <= plain.bracket(k).lower + 1e-9

    def test_heuristic_only_when_no_grid_fits(self):
        prof = estimate_dk(LpFinite(INF, 3), 2, 0.2, 1.0, (1, 2), budget=2, seed=0)
        for _, b in prof.entries:
            assert b.meta["method"] == "heuristic-only"
            assert b.lower == 0.0 and b.lower_method == "none"
            assert b.upper > 0.0

    def test_grid_runs_once_per_m_class(self, monkeypatch):
        # one member record per profile, built before the engines; one lower
        # side per candidate for k = 1 and one for k = 2 and 3 together
        calls = []
        build, lower, engines = dkprofile._grid_members, dkprofile._grid_lower, dkprofile._build_engines

        def counting_build(*args):
            calls.append("record")
            return build(*args)

        def counting_lower(amb, v, members, m):
            calls.append(min(m, 2))
            return lower(amb, v, members, m)

        def counting_engines(*args):
            calls.append("engines")
            return engines(*args)

        monkeypatch.setattr(dkprofile, "_grid_members", counting_build)
        monkeypatch.setattr(dkprofile, "_grid_lower", counting_lower)
        monkeypatch.setattr(dkprofile, "_build_engines", counting_engines)
        prof = estimate_dk(R1, 2, 0.25, 1.0, (1, 2, 3), budget=2, seed=3, resolution=0.1)
        n_cands = len(_adversaries(R1, 2, 2, 3))
        assert calls == ["record", "engines"] + [1] * n_cands + [2] * n_cands
        assert prof.bracket(2).lower == prof.bracket(3).lower
        assert prof.bracket(2).lower <= prof.bracket(1).lower

    def test_small_sup_space_three_way(self):
        space = LpFinite(INF, 2)
        prof = estimate_dk(space, 2, 0.2, 1.0, (1, 2), budget=2, seed=0)
        ceilings = constructive_dk_upper(space, 2, 0.2, (1, 2), panel=6, seed=0)
        for k in (1, 2):
            b = prof.bracket(k)
            assert b.meta["method"] == "grid+sweep"
            assert b.lower <= b.upper + 1e-12
            assert b.upper <= ceilings[k] + 1e-9


class TestProfileContainer:
    @staticmethod
    def _bracket(lo, up):
        return DistanceBracket(lo, up, "a", "b", meta={"witness_id": "w"})

    def test_rejects_increasing_uppers(self):
        with pytest.raises(InternalInconsistencyError, match="increase"):
            DkProfile(
                n=1, epsilon=0.1, alpha=1.0, seed=0, budget=1,
                entries=((1, self._bracket(0.0, 0.5)), (2, self._bracket(0.0, 0.7))),
            )

    def test_rejects_unsorted_keys(self):
        with pytest.raises(InternalInconsistencyError, match="increasing"):
            DkProfile(
                n=1, epsilon=0.1, alpha=1.0, seed=0, budget=1,
                entries=((2, self._bracket(0.0, 0.5)), (1, self._bracket(0.0, 0.5))),
            )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_synthetic_roundtrip(self, raws):
        ups = sorted(raws, reverse=True)
        entries = tuple(
            (k + 1, self._bracket(0.0, u)) for k, u in enumerate(ups)
        )
        prof = DkProfile(n=1, epsilon=0.5, alpha=1.0, seed=3, budget=1, entries=entries)
        rows = list(csv.reader(io.StringIO(prof.to_csv())))
        assert len(rows) == len(ups) + 1
        for r, (_, b) in zip(rows[1:], entries):
            assert float(r[2]) == b.upper
        assert set(prof.to_jsonable()["entries"]) == {str(k) for k, _ in entries}


class TestConstructiveCeilings:
    def test_partition_scalar_module(self):
        module = FunctionModule(8, LpFinite(INF, 1))
        up = constructive_dk_upper(module, 3, 0.2, range(1, 11), panel=6, seed=0)
        assert up == {k: 2.0 / k for k in range(1, 9)}

    def test_sup_space_is_a_module(self):
        up = constructive_dk_upper(LpFinite(INF, 8), 1, 0.2, (1, 8), panel=4, seed=1)
        assert up[1] == 2.0 and up[8] == 0.25

    def test_vector_fiber(self):
        module = FunctionModule(3, LpFinite(2.0, 2))
        up = constructive_dk_upper(module, 2, 0.4, (1, 2, 3, 4), panel=5, seed=2)
        assert set(up) == {1, 2, 3}
        assert up[3] == pytest.approx(2.0 / 3.0, abs=0)

    def test_scalar_line_capacity_one(self):
        up = constructive_dk_upper(R1, 2, 0.1, (1, 2, 3), panel=4, seed=0)
        assert up == {1: 2.0}

    def test_no_route(self):
        with pytest.raises(ParameterError, match="route"):
            constructive_dk_upper(LpFinite(2.0, 3), 1, 0.1, (1,))

    def test_family_needs_metric(self):
        M = geometric_chain(0.1, 4)
        fam = find_ring_family(M, 0.5, 1)
        with pytest.raises(ParameterError, match="metric"):
            constructive_dk_upper(LpFinite(INF, 4), 1, 0.5, (1,), family=fam)

    def test_annulus_found_family(self):
        M = geometric_chain(0.01, 12)
        up = constructive_dk_upper(M, 2, 0.5, (1, 2, 3), panel=6, seed=4)
        assert up == {1: 5.0, 2: 2.5, 3: pytest.approx(5.0 / 3.0, abs=0)}

    def test_annulus_supplied_family_caps(self):
        M = geometric_chain(0.01, 12)
        fam = find_ring_family(M, 0.5, 2)
        up = constructive_dk_upper(M, 1, 0.5, (1, 2, 3, 4), family=fam, panel=5, seed=0)
        assert set(up) == {1, 2}

    def test_annulus_two_point_capacity(self):
        M = line_metric([0.0, 1.0])
        up = constructive_dk_upper(M, 1, 0.5, (1, 2), panel=4, seed=0)
        assert set(up) == {1}

    def test_annulus_epsilon_mismatch(self):
        M = geometric_chain(0.01, 12)
        fam = find_ring_family(M, 0.5, 2)
        with pytest.raises(ParameterError, match="epsilon"):
            constructive_dk_upper(M, 1, 0.6, (1,), family=fam)

    def test_annulus_corrupted_family(self):
        M = geometric_chain(0.01, 12)
        fam = find_ring_family(M, 0.5, 2)
        good = fam.entries[0]
        bad = RingFamily(
            (RingEntry(good.t, good.tau, good.r, good.rho * 0.9, good.R),)
            + fam.entries[1:],
            fam.epsilon,
        )
        with pytest.raises(PreconditionError, match="validation"):
            constructive_dk_upper(M, 1, 0.5, (1,), family=bad)

    def test_epsilon_above_one_is_refused(self):
        # the ceilings 2/k and (4 + 2 eps)/k are proved for eps in (0, 1) only
        for target in (LpFinite(INF, 4), geometric_chain(0.01, 12)):
            with pytest.raises(ParameterError, match=r"\(0, 1\)"):
                constructive_dk_upper(target, 1, 1.5, (1,))

    def test_bad_params(self):
        with pytest.raises(ParameterError, match="empty"):
            constructive_dk_upper(LpFinite(INF, 4), 1, 0.2, ())
        with pytest.raises(ParameterError, match=r"epsilon must lie in \(0, 1\)"):
            constructive_dk_upper(LpFinite(INF, 4), 1, -0.2, (1,))
        with pytest.raises(ParameterError, match="n must"):
            constructive_dk_upper(LpFinite(INF, 4), 0, 0.2, (1,))


class TestFloorCheck:
    # the certified floor up to k is the smallest grid-certified lower side
    def test_scalar_floor(self):
        prof = estimate_dk(R1, 2, 0.1, k_range=range(1, 5), resolution=0.01)
        assert list(prof.ks) == [1, 2, 3, 4]
        assert min(b.lower for _, b in prof.entries) >= 0.85

    def test_floor_below_constructive(self):
        prof = estimate_dk(LpFinite(INF, 2), 2, 0.2, k_range=(1, 2), resolution=0.2)
        floor = min(b.lower for _, b in prof.entries)
        ceilings = constructive_dk_upper(LpFinite(INF, 2), 2, 0.2, (1, 2), panel=4, seed=0)
        assert floor <= ceilings[2] + 1e-9

    def test_guard_propagates(self):
        with pytest.raises(CapabilityRefusal) as exc:
            estimate_dk(LpFinite(INF, 4), 4, 0.2, k_range=(1,), resolution=0.05)
        assert exc.value.report["dimension"] == 16
