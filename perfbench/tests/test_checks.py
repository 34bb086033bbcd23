"""Each check accepts a correct answer and rejects the same answer perturbed.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import checks
import reference as ref
import tracing
from checks import CheckFailed

REALS = ref.parse("lp(2,1)")
ZSTAR = np.array([1.0, -1.0])
# a member of C for n=2, eps=0.2, alpha=1 nearest to z*: d(z*, C_1) = 1.6
GEN = [1.0, 0.6]


def test_upper_off_by_1e6_is_rejected():
    checks.check_upper_query(REALS, 2, ZSTAR, 0.2, 1.0, 1, 1.6, [1.0], [GEN])
    with pytest.raises(CheckFailed):
        checks.check_upper_query(REALS, 2, ZSTAR, 0.2, 1.0, 1, 1.6 + 1e-6, [1.0], [GEN])
    with pytest.raises(CheckFailed):
        checks.check_upper_query(REALS, 2, ZSTAR, 0.2, 1.0, 1, 1.6 - 1e-6, [1.0], [GEN])


def test_generator_above_alpha_is_rejected():
    checks.check_witness(REALS, 2, 0.2, 1.0, 1, [1.0], [GEN])
    with pytest.raises(CheckFailed):
        checks.check_witness(REALS, 2, 0.2, 1.0, 1, [1.0], [[1.0 + 1e-6, 0.6]])


def test_witness_with_too_many_generators_is_rejected():
    with pytest.raises(CheckFailed):
        checks.check_witness(REALS, 2, 0.2, 1.0, 1, [0.5, 0.5], [GEN, [0.6, 1.0]])


def test_grid_bracket_excluding_the_analytic_value_is_rejected():
    for m, exact in ((1, 1.6), (2, 0.8), (3, 0.8)):
        checks.check_zstar_bracket(0.2, m, exact - 0.01, exact + 0.01)
        with pytest.raises(CheckFailed):
            checks.check_zstar_bracket(0.2, m, exact + 1e-6, exact + 0.01)
        with pytest.raises(CheckFailed):
            checks.check_zstar_bracket(0.2, m, exact - 0.01, exact - 1e-6)


def _partition_doc(values):
    return {
        "route": "partition",
        "report": {
            "passed": True,
            "checks": [{"name": f"mix-approx[{i}]", "value": v} for i, v in enumerate(values)],
        },
    }


def test_certificate_value_above_2_over_m_is_rejected():
    checks.check_partition_cert(_partition_doc([0.5, 0.25]), n=2, m=4)
    with pytest.raises(CheckFailed):
        checks.check_partition_cert(_partition_doc([0.5 + 1e-9, 0.25]), n=2, m=4)


def test_hull_distance_off_by_1e6_is_rejected():
    node = ref.parse("lp(inf,2)")
    z, G = np.array([2.0, 0.5]), np.array([[0.0, 0.0], [0.0, 1.0]])
    d, lam = ref.hull_distance(node, z, G)
    assert d == pytest.approx(2.0, abs=1e-12)
    checks.check_hull_solve(node, z, G, d, d - 1e-12, 1e-12, lam)
    with pytest.raises(CheckFailed):
        checks.check_hull_solve(node, z, G, d + 1e-6, d, 1e-6, lam)


@pytest.mark.parametrize("text", ["lp(2,3)", "lp(1,3)", "sup(2, lp(inf,2))", "dsum(1, lp(inf,2), lp(1,2))"])
def test_reference_hull_distance_is_a_minimum(text):
    # no hull point sampled at random is nearer than the reference optimum
    node = ref.parse(text)
    rng = np.random.default_rng(3)
    d = ref.dim(node)
    z, G = rng.standard_normal(d) * 2.0, rng.standard_normal((5, d))
    best, lam = ref.hull_distance(node, z, G)
    assert abs(float(lam.sum()) - 1.0) <= 1e-12 and np.all(lam >= 0.0)
    for w in rng.dirichlet(np.ones(5), size=400):
        assert ref.norm(node, z - w @ G) >= best - 1e-9


def test_lattice_increase_is_rejected():
    base = (1, 0.1, 1.0)
    ups = {base: 1.0, (2, 0.1, 1.0): 0.5, (1, 0.25, 1.0): 0.9, (1, 0.1, 1.2): 1.0}
    checks.check_lattice_against_base(ups, base)
    ups[(1, 0.1, 1.2)] = 1.0 + 1e-6
    with pytest.raises(CheckFailed):
        checks.check_lattice_against_base(ups, base)


def test_nested_evaluators_count_each_row_once():
    from hullgap import hullgeom
    from hullgap.spaces import INF, LpFinite, SupTuple

    original = hullgeom.norm_evaluator
    tracer = tracing.Tracer()
    found = tracing.install(tracer)
    try:
        assert all(found.values()), found
        X = np.ones((7, 6))
        hullgeom.norm_evaluator(SupTuple(3, LpFinite(INF, 2)))(X)
        hullgeom.mean_norm_evaluator(LpFinite(INF, 2), 3)(X)
    finally:
        tracer.uninstall()
    lay = tracer.layer("hullgeom.norm")
    assert lay.calls == 2 and lay.counters["rows"] == 14
    assert hullgeom.norm_evaluator is original
