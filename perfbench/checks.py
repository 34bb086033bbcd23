"""Checks on program outputs, each against reference.py or a property the method must have.

Every check raises CheckFailed with a message naming the value and the
bound.  No check compares against a stored copy of an earlier output.
The fields each check reads are listed in README.md.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

import reference as ref

# the closure slack of the constrained set, and the criterion-7 gap window
SOLVER_GAP = 1e-9
# a distance recomputed by the reference agrees with the program's to this
# relative precision
DISTANCE_TOL = 1e-9
# drift allowed between values that must be ordered (monotone in k, m, eps, alpha)
ORDER_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output contradicts a reference value or a required property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_witness(node, n: int, eps: float, alpha: float, m: int,
                  weights: Sequence[float], generators: Sequence[Sequence[float]]) -> np.ndarray:
    """A convex decomposition with at most m generators, every one a member.

    Returns the decomposed point.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    _require(1 <= w.shape[0] == gens.shape[0] <= m,
             f"{w.shape[0]} weights for {gens.shape[0]} generators, at most {m} allowed")
    _require(bool(np.all(w >= -1e-12)) and abs(float(w.sum()) - 1.0) <= 1e-12,
             f"weights {w.tolist()} are not on the simplex")
    for j, g in enumerate(gens):
        sup, mean = ref.tuple_norms(node, n, g)
        _require(sup <= alpha + ref.MEMBER_TOL,
                 f"generator {j} has sup-tuple norm {sup!r} above alpha={alpha}")
        _require(mean > 1.0 - eps - ref.MEMBER_TOL,
                 f"generator {j} has mean norm {mean!r}, not above 1 - eps = {1.0 - eps}")
    return w @ gens


def check_nonincreasing(values: Sequence[float], what: str) -> None:
    for a, b in zip(values, values[1:]):
        _require(b <= a + ORDER_TOL, f"{what} increases: {list(values)}")


def _close(a: float, b: float, tol: float = DISTANCE_TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------------------
# sweep

def check_sweep_profile(doc: Mapping, node, n: int, eps: float, alpha: float,
                        ks: Sequence[int]) -> None:
    """`hullgap dk --format json` on a sup-norm space, adversary-sweep route."""
    entries = doc["profile"]["entries"]
    _require(sorted(int(k) for k in entries) == sorted(ks),
             f"profile covers k={sorted(entries)}, asked {list(ks)}")
    slots = ref.sup_slot_count(node)
    uppers = []
    for k in sorted(ks):
        e = entries[str(k)]
        wit = e["witness"]
        check_witness(node, n, eps, alpha, k, wit["weights"], wit["generators"])
        if k <= slots:
            _require(e["upper"] <= 2.0 / k + 1e-9,
                     f"k={k}: upper {e['upper']!r} above the partition bound 2/k")
        uppers.append(e["upper"])
    check_nonincreasing(uppers, "profile upper side along k")


# ---------------------------------------------------------------------------
# queries

def check_upper_query(node, n: int, z, eps: float, alpha: float, m: int,
                      upper: float, weights, generators) -> None:
    """`dist_to_cm_upper`: the witness is feasible and realizes `upper`."""
    point = check_witness(node, n, eps, alpha, m, weights, generators)
    d = ref.norm(ref.tuple_space(node, n), np.asarray(z, dtype=float) - point)
    _require(_close(d, upper), f"witness is at distance {d!r} from z, reported upper {upper!r}")


def check_lattice_against_base(uppers: Mapping[tuple, float], base: tuple) -> None:
    """`upper` does not increase when m, eps or alpha >= 1 grows from the base point.

    Keys are (m, eps, alpha); every key other than the base raises one of them.
    """
    for key, up in uppers.items():
        _require(all(k >= b for k, b in zip(key, base)),
                 f"lattice point {key} lowers a parameter of the base {base}")
        _require(up <= uppers[base] + ORDER_TOL,
                 f"upper {up!r} at {key} above {uppers[base]!r} at the base {base}")


# ---------------------------------------------------------------------------
# brackets

def check_hull_solve(node, z, G, distance: float, lower: float, gap: float, weights) -> None:
    """`min_norm_point`: matches the reference distance, with a certified gap."""
    z = np.asarray(z, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    w = np.asarray(weights, dtype=float)
    _require(bool(np.all(w >= 0.0)) and abs(float(w.sum()) - 1.0) <= 1e-12,
             "hull weights are not on the simplex")
    own = ref.norm(node, z - w @ G)
    _require(_close(own, distance), f"reported distance {distance!r}, its point is at {own!r}")
    _require(gap <= SOLVER_GAP, f"solver gap {gap!r} above {SOLVER_GAP}")
    _require(lower <= distance + 1e-12 * (1.0 + distance), f"lower {lower!r} above distance {distance!r}")
    if ref.polyhedral(node) or ref.euclidean(node):
        d_ref, _ = ref.hull_distance(node, z, G)
        _require(_close(distance, d_ref), f"distance {distance!r}, reference {d_ref!r}")
        _require(lower <= d_ref + 1e-12 * (1.0 + d_ref), f"lower {lower!r} above the reference {d_ref!r}")


def check_grid_bracket(node, n: int, z, eps: float, alpha: float, m: int,
                       lower: float, upper: float, weights, generators) -> None:
    """`dist_to_cm_grid`: an ordered bracket whose upper side has a feasible witness."""
    _require(0.0 <= lower <= upper, f"bracket [{lower!r}, {upper!r}] is not ordered")
    check_upper_query(node, n, z, eps, alpha, m, upper, weights, generators)


def grid_relaxed_members(node, n: int, eps: float, alpha: float, h: float):
    """The grid points that pass the constraints relaxed by the covering radius."""
    D = n * ref.dim(node)
    K = int(np.ceil(alpha / h - 1e-12))
    axis = np.arange(-K, K + 1) * h
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(*([axis] * D), indexing="ij")], axis=1)
    r_cov = (h / 2.0) * ref.norm(ref.tuple_space(node, n), np.ones(D))
    keep = []
    for p in pts:
        sup, mean = ref.tuple_norms(node, n, p)
        if sup <= alpha + r_cov and mean >= 1.0 - eps - r_cov:
            keep.append(p)
    return np.array(keep), r_cov


def check_grid_lower(node, n: int, z, eps: float, alpha: float, m: int, h: float,
                     lower: float) -> None:
    """The certified lower side never exceeds the reference distance to the relaxed grid hull."""
    relax, r_cov = grid_relaxed_members(node, n, eps, alpha, h)
    amb = ref.tuple_space(node, n)
    z = np.asarray(z, dtype=float)
    if m == 1:
        d_ref = min(ref.norm(amb, z - p) for p in relax)
    else:
        d_ref, _ = ref.hull_distance(amb, z, relax)
    _require(lower <= max(0.0, d_ref - r_cov) + DISTANCE_TOL * (1.0 + d_ref),
             f"certified lower {lower!r} above reference {d_ref!r} minus covering radius {r_cov!r}")


def check_zstar_bracket(eps: float, m: int, lower: float, upper: float) -> None:
    """The grid bracket at z* = (1, -1) contains the analytic distance."""
    exact = ref.zstar_distance(eps, m)
    _require(lower - 1e-9 <= exact <= upper + 1e-9,
             f"bracket [{lower!r}, {upper!r}] excludes the analytic value {exact!r} (m={m}, eps={eps})")


def check_gridded_profile(doc: Mapping, eps: float, ks: Sequence[int]) -> None:
    """`hullgap dk --resolution` on the reals: each upper side is at least d(z*, C_k)."""
    entries = doc["profile"]["entries"]
    _require(sorted(int(k) for k in entries) == sorted(ks),
             f"profile covers k={sorted(entries)}, asked {list(ks)}")
    for k in ks:
        e = entries[str(k)]
        exact = ref.zstar_distance(eps, k)
        _require(0.0 <= e["lower"] <= e["upper"], f"k={k}: bracket [{e['lower']!r}, {e['upper']!r}] not ordered")
        _require(e["upper"] >= exact - 1e-9, f"k={k}: upper {e['upper']!r} below the analytic {exact!r}")


def check_ceiling_profile(doc: Mapping, base_size: int, ks: Sequence[int]) -> None:
    """`hullgap dk` on a function module: the partition ceiling 2/k, and only for k <= base size."""
    entries = doc["profile"]["entries"]
    covered = [k for k in ks if k <= base_size]
    _require(doc["route"] == "partition-ceiling" and sorted(int(k) for k in entries) == covered,
             f"ceiling covers k={sorted(entries)}, expected {covered}")
    for k in covered:
        e = entries[str(k)]
        _require(e["lower"] == 0.0 and e["upper"] == 2.0 / k,
                 f"k={k}: ceiling entry [{e['lower']!r}, {e['upper']!r}], expected [0, 2/k]")


def _approx_checks(report: Mapping) -> Dict[str, float]:
    return {c["name"]: c["value"] for c in report["checks"] if c["name"].startswith("mix-approx")}


def check_partition_cert(doc: Mapping, n: int, m: int) -> None:
    """`hullgap cert --space`: the report passes and each approximation is <= 2/m."""
    rep = doc["report"]
    _require(doc["route"] == "partition" and rep["passed"], "partition report did not pass")
    approx = _approx_checks(rep)
    _require(len(approx) == n, f"{len(approx)} approximation checks for n={n}")
    for name, v in approx.items():
        _require(v <= 2.0 / m + 1e-12, f"{name} = {v!r} above 2/m = {2.0 / m!r}")


def check_annulus_cert(doc: Mapping, n: int, k: int, eps: float) -> None:
    """`hullgap cert --metric`: the report passes and each approximation is <= (4 + 2 eps)/k."""
    rep = doc["report"]
    _require(doc["route"] == "annulus" and doc["family_validation"]["passed"] and rep["passed"],
             "annulus report did not pass")
    approx = _approx_checks(rep)
    _require(len(approx) == n, f"{len(approx)} approximation checks for n={n}")
    for name, v in approx.items():
        _require(v <= (4.0 + 2.0 * eps) / k + 1e-9, f"{name} = {v!r} above (4 + 2 eps)/k")


def check_ring_family(doc: Mapping, points: Sequence[float], eps: float, k: int) -> None:
    """`hullgap rings`: k annuli with the ratio conditions, pairwise disjoint."""
    fam = doc["family"]["entries"]
    _require(len(fam) == doc["size"] >= k, f"family of {len(fam)} entries for k={k}")
    rings = []
    for j, e in enumerate(fam):
        t, tau, r, rho, R = e["t"], e["tau"], e["r"], e["rho"], e["R"]
        _require(abs(rho - abs(points[t] - points[tau])) <= 1e-12 * rho, f"entry {j}: rho is not d(t, tau)")
        _require(0.0 < r < rho < R, f"entry {j}: radii not ordered")
        _require(2.0 * rho / (R - rho) <= eps and 2.0 * r / (rho - r) <= eps,
                 f"entry {j}: a radius ratio exceeds eps")
        rings.append({s for s in range(len(points)) if r < abs(points[t] - points[s]) <= R})
    for a in range(len(rings)):
        for b in range(a + 1, len(rings)):
            _require(not (rings[a] & rings[b]), f"annuli {a} and {b} overlap")


def check_lip(doc: Mapping, points: Sequence[float], values: Sequence[float],
              mask: Sequence[int]) -> None:
    """`hullgap lip`: the extension agrees on the mask and keeps the restricted seminorm."""
    ext = doc["extension"]["values"]
    _require(all(ext[i] == values[i] for i in mask), "extension differs from the input on the mask")
    restricted = ref.seminorm(points, values, mask)
    full = ref.seminorm(points, ext, range(len(points)))
    _require(abs(doc["seminorm"] - restricted) <= 1e-12,
             f"reported seminorm {doc['seminorm']!r}, reference {restricted!r}")
    _require(abs(full - restricted) <= 1e-12,
             f"extension seminorm {full!r}, restricted {restricted!r}")
