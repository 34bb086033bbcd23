"""Constructive near-averaging certificates on metric and module spaces.

Two panels, both mechanical: a ring-family route on Lipschitz function
spaces (disjoint annuli let a function be re-pinned near each annulus and
re-extended, producing many almost-averaging tuples whose mean approximates
the original within (4+2eps)/k) and an indicator-mixing route on finite
function modules (overwrite a tuple with a unit section on disjoint base
sets, giving m members whose average is within 2/m of the start).

Everything here either builds a witness or checks one; the checks recompute
every bound from scratch and report named results, so a corrupted input
shows up as a failed check rather than a wrong conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    CapabilityRefusal,
    InternalInconsistencyError,
    ParameterError,
    PreconditionError,
)
from .lipmetric import (
    FiniteMetricSpace,
    LipFunction,
    lip_seminorm,
    mcshane_extend,
    restricted_seminorm,
)
from .spaces import FunctionModule, as_coord_rows, dim, norm, norm_plan


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    """One named bound: computed value, required bound, signed slack."""

    name: str
    value: float
    bound: float
    slack: float
    passed: bool


@dataclass(frozen=True, eq=False)
class CertificateReport:
    checks: Tuple[CheckResult, ...]

    def __init__(self, checks: Sequence[CheckResult]):
        object.__setattr__(self, "checks", tuple(checks))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "bound": c.bound,
                    "slack": c.slack,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _at_most(name: str, value: float, bound: float) -> CheckResult:
    value, bound = float(value), float(bound)
    return CheckResult(name, value, bound, bound - value, value <= bound)


def _at_least(name: str, value: float, bound: float) -> CheckResult:
    value, bound = float(value), float(bound)
    return CheckResult(name, value, bound, value - bound, value >= bound)


# ---------------------------------------------------------------------------
# ring families


@dataclass(frozen=True)
class RingEntry:
    """Annulus around point t with companion tau on its middle sphere.

    rho is the realized distance d(t, tau); the annulus is the closed-ball
    difference {s : r < d(t, s) <= R}.
    """

    t: int
    tau: int
    r: float
    rho: float
    R: float

    def ring_indices(self, M: FiniteMetricSpace) -> Tuple[int, ...]:
        row = M.dist[self.t]
        return tuple(np.flatnonzero((self.r < row) & (row <= self.R)).tolist())


@dataclass(frozen=True, eq=False)
class RingFamily:
    entries: Tuple[RingEntry, ...]
    epsilon: float

    def __init__(self, entries: Sequence[RingEntry], epsilon: float):
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "epsilon", float(epsilon))

    def to_jsonable(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "entries": [
                {"t": int(e.t), "tau": int(e.tau), "r": float(e.r),
                 "rho": float(e.rho), "R": float(e.R)}
                for e in self.entries
            ],
        }

    def check_epsilon(self, epsilon: float) -> None:
        """Refuse a run at another epsilon: the annulus ratios are sized for the family's."""
        if self.epsilon != epsilon:
            raise ParameterError(f"family was built for epsilon={self.epsilon}, asked {epsilon}")

    @classmethod
    def from_jsonable(cls, data: dict) -> "RingFamily":
        entries = [
            RingEntry(int(e["t"]), int(e["tau"]), float(e["r"]),
                      float(e["rho"]), float(e["R"]))
            for e in data["entries"]
        ]
        return cls(entries, float(data["epsilon"]))


@dataclass(frozen=True)
class RingSearchExhausted:
    """Negative search result: every candidate pair was considered."""

    pairs_examined: int
    accepted: int


def validate_ring_family(M: FiniteMetricSpace, family: RingFamily) -> CertificateReport:
    """Recheck every family invariant from scratch, one named check each."""
    eps = family.epsilon
    checks: List[CheckResult] = []
    rings: List[frozenset] = []
    for j, e in enumerate(family.entries):
        checks.append(
            _at_most(f"entry[{j}].rho-is-realized", abs(e.rho - M.d(e.t, e.tau)), 0.0)
        )
        checks.append(
            _at_least(f"entry[{j}].radius-order", min(e.R - e.rho, e.rho - e.r, e.r),
                      np.nextafter(0.0, 1.0))
        )
        if e.R > e.rho and e.rho > e.r > 0.0:
            checks.append(
                _at_most(f"entry[{j}].outer-ratio", 2.0 * e.rho / (e.R - e.rho), eps)
            )
            checks.append(
                _at_most(f"entry[{j}].inner-ratio", 2.0 * e.r / (e.rho - e.r), eps)
            )
        rings.append(frozenset(e.ring_indices(M)))
    overlap = 0
    for a in range(len(rings)):
        for b in range(a + 1, len(rings)):
            overlap = max(overlap, len(rings[a] & rings[b]))
    checks.append(_at_most("rings-pairwise-disjoint", float(overlap), 0.0))
    return CertificateReport(checks)


_RING_SEARCH_BUDGET = 500_000


def find_ring_family(
    M: FiniteMetricSpace, epsilon: float, k_target: int
) -> Union[RingFamily, RingSearchExhausted]:
    """Annulus packing over all unordered point pairs, greedy with backtracking.

    Each pair {i < j} is tried once, centered at the lower index, with radii
    at the extremal admissible ratios widened by a factor-2 safety margin
    outward and halved inward, then snapped down to realized distances where
    that keeps both ratio conditions intact.  Candidates are consumed
    smallest annulus first (separation descending within a size class): small
    annuli pack better, and they keep the later re-extension step away from
    point clusters at incommensurate scales, where verifying a quotient in
    floating point would drown in rounding error.  The accept-first branch
    makes the leftmost path plain greedy, and backtracking makes a negative
    answer an actual exhaustion of all selections rather than a greedy dead
    end.
    """
    if not (epsilon > 0.0):
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if int(k_target) != k_target or k_target < 1:
        raise ParameterError(f"k_target must be a positive integer, got {k_target}")

    realized = np.unique(M.dist)
    pairs = [
        (M.d(i, j), i, j)
        for i in range(M.size)
        for j in range(i + 1, M.size)
    ]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))

    def snap_down(x: float, keep) -> float:
        # the largest positive realized distance <= x, if it keeps the ratios
        at = int(realized.searchsorted(x, side="right")) - 1
        if at >= 0 and realized[at] > 0.0:
            cand = float(realized[at])
            if keep(cand):
                return cand
        return x

    cands: List[Tuple[RingEntry, frozenset]] = []
    masks_seen: set = set()
    for rho, t, tau in pairs:
        r0 = 0.5 * rho * epsilon / (2.0 + epsilon)
        R0 = 2.0 * rho * (2.0 + epsilon) / epsilon
        r = snap_down(r0, lambda c: 0.0 < c < rho and 2.0 * c / (rho - c) <= epsilon)
        R = snap_down(R0, lambda c: c > rho and 2.0 * rho / (c - rho) <= epsilon)
        entry = RingEntry(t, tau, r, rho, R)
        ring = frozenset(entry.ring_indices(M))
        # same realized annulus, same disjointness behavior: keep the first
        if ring in masks_seen:
            continue
        masks_seen.add(ring)
        cands.append((entry, ring))
    # an annulus containing another candidate's annulus can only block more
    # later picks, and re-extending across the extra points it swallows is
    # where quotient checks lose precision; smallest-first sidesteps both
    cands.sort(key=lambda c: (len(c[1]), -c[0].rho, c[0].t, c[0].tau))

    best = 0
    nodes = 0
    found: Optional[List[RingEntry]] = None

    def rec(start: int, chosen: List[RingEntry], taken: frozenset) -> bool:
        nonlocal best, nodes, found
        best = max(best, len(chosen))
        if len(chosen) >= k_target:
            found = list(chosen)
            return True
        if len(chosen) + (len(cands) - start) < k_target:
            return False
        for a in range(start, len(cands)):
            nodes += 1
            if nodes > _RING_SEARCH_BUDGET:
                raise CapabilityRefusal(
                    f"annulus packing exceeded {_RING_SEARCH_BUDGET} search nodes",
                    report={"candidates": len(cands), "k_target": k_target},
                )
            entry, ring = cands[a]
            if ring & taken:
                continue
            chosen.append(entry)
            if rec(a + 1, chosen, taken | ring):
                return True
            chosen.pop()
        return False

    if rec(0, [], frozenset()):
        fam = RingFamily(found, epsilon)
        rep = validate_ring_family(M, fam)
        if not rep.passed:
            raise InternalInconsistencyError(
                f"search produced an invalid family: {[c.name for c in rep.failing()]}"
            )
        return fam
    # the reachability prune can cut branches before they record a partial
    # packing, so report at least what plain greedy achieves
    taken0: frozenset = frozenset()
    greedy = 0
    for _, ring in cands:
        if not (ring & taken0):
            greedy += 1
            taken0 = taken0 | ring
    return RingSearchExhausted(pairs_examined=len(pairs), accepted=max(best, greedy))


# ---------------------------------------------------------------------------
# Lipschitz panel: re-pin near each annulus, re-extend, average


def _check_unit_tuple(M: FiniteMetricSpace, z: Sequence[LipFunction]) -> None:
    for i, f in enumerate(z):
        s = lip_seminorm(M, f)
        if s > 1.0 + 1e-12:
            raise PreconditionError(
                f"component {i} has seminorm {s}, above the unit bound"
            )


def ivakhno_construct(
    M: FiniteMetricSpace,
    z: Sequence[LipFunction],
    family: RingFamily,
) -> List[List[LipFunction]]:
    """One constructed tuple per family entry, at the family's epsilon.

    For entry (t, tau, r, rho, R): restrict each component to the complement
    of the open annulus plus {tau}, overwrite the value at tau with
    value(t) + rho, and re-extend with constant 1 + epsilon.  The annulus
    invariants make the restricted seminorm at most 1 + epsilon; a violation
    here means the family was corrupted, not that the input was unlucky.
    """
    _check_unit_tuple(M, z)
    epsilon = family.epsilon
    out: List[List[LipFunction]] = []
    for e in family.entries:
        row = M.dist[e.t]
        mask = tuple(
            s for s in range(M.size)
            if row[s] > e.R or row[s] <= e.r or s == e.tau
        )
        tup: List[LipFunction] = []
        for i, f in enumerate(z):
            vals = f.values.copy()
            vals[e.tau] = f.values[e.t] + e.rho
            restricted = LipFunction(vals, mask=mask)
            s = restricted_seminorm(M, restricted)
            if s > (1.0 + epsilon) * (1.0 + 1e-9):
                raise InternalInconsistencyError(
                    f"restricted seminorm {s} exceeds {1.0 + epsilon} for "
                    f"component {i} at ring ({e.t}, {e.tau})"
                )
            tup.append(mcshane_extend(M, restricted, max(1.0 + epsilon, s)))
        out.append(tup)
    return out


def ivakhno_verify(
    M: FiniteMetricSpace,
    z: Sequence[LipFunction],
    constructed: Sequence[Sequence[LipFunction]],
    k: int,
    family: RingFamily,
) -> CertificateReport:
    """Recompute the three bound families for the first k constructed tuples, at the family's epsilon.

    sup-bound: every component seminorm at most 1 + epsilon; mean-bound: the
    averaged sum has seminorm at least 1, evaluated explicitly on the entry's
    (t, tau) pair; mix-approx: averaging the first k tuples approximates the
    original within (4 + 2 epsilon)/k, componentwise.
    """
    if not (1 <= k <= len(constructed)):
        raise ParameterError(f"k={k} outside 1..{len(constructed)}")
    n, epsilon = len(z), family.epsilon
    checks: List[CheckResult] = []
    for m in range(k):
        tup = constructed[m]
        e = family.entries[m]
        sup = max(lip_seminorm(M, f) for f in tup)
        checks.append(_at_most(f"sup-bound[{m}]", sup, 1.0 + epsilon + 1e-9))
        tot = np.sum([f.values for f in tup], axis=0)
        witness = abs(tot[e.tau] - tot[e.t]) / (n * e.rho)
        mean = max(witness, lip_seminorm(M, LipFunction(tot)) / n)
        checks.append(_at_least(f"mean-bound[{m}]", mean, 1.0 - 1e-9))
    for i in range(n):
        avg = np.mean([constructed[j][i].values for j in range(k)], axis=0)
        diff = lip_seminorm(M, LipFunction(z[i].values - avg))
        checks.append(
            _at_most(f"mix-approx[{i}]", diff, (4.0 + 2.0 * epsilon) / k + 1e-9)
        )
    return CertificateReport(checks)


# ---------------------------------------------------------------------------
# function-module panel: indicator mixing toward a unit section


@dataclass(frozen=True, eq=False)
class FunctionModuleSection:
    """Fiber values over the finite base, one row per base point."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ParameterError(f"section values must be 2-d, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    @classmethod
    def from_flat(cls, module: FunctionModule, coords) -> "FunctionModuleSection":
        x = np.asarray(coords, dtype=float).reshape(-1)
        if x.shape[0] != dim(module):
            raise ParameterError(
                f"{x.shape[0]} coordinates for a module of dimension {dim(module)}"
            )
        return cls(x.reshape(module.base_size, dim(module.fiber)))


def _check_section(module: FunctionModule, s: FunctionModuleSection, what: str) -> None:
    want = (module.base_size, dim(module.fiber))
    if s.values.shape != want:
        raise ParameterError(
            f"{what} has shape {s.values.shape}, module needs {want}"
        )


def module_section_norm(module: FunctionModule, s: FunctionModuleSection) -> float:
    _check_section(module, s, "section")
    return norm(module, s.flat())


def extreme_unit_section(module: FunctionModule) -> FunctionModuleSection:
    """The section equal at every base point to the fiber's normalized all-ones vector."""
    ones = np.ones(dim(module.fiber))
    return FunctionModuleSection(np.tile(ones / norm(module.fiber, ones), (module.base_size, 1)))


def centralizer_construct(
    module: FunctionModule,
    z: Sequence[FunctionModuleSection],
    e: FunctionModuleSection,
    sets: Sequence[Sequence[int]],
) -> List[List[FunctionModuleSection]]:
    """Overwrite the tuple with the unit section on each base set in turn.

    The base is finite and discrete, so the bump function of a set is its
    exact indicator; output j agrees with e on sets[j] and with the input
    elsewhere, componentwise.
    """
    _check_section(module, e, "extreme section")
    for t in range(module.base_size):
        fn = norm(module.fiber, e.values[t])
        if abs(fn - 1.0) > 1e-12:
            raise PreconditionError(
                f"extreme section has fiber norm {fn} at base point {t}, need 1"
            )
    for i, s in enumerate(z):
        _check_section(module, s, f"component {i}")
        sup = module_section_norm(module, s)
        if sup > 1.0 + 1e-12:
            raise PreconditionError(
                f"component {i} has norm {sup}, above the unit bound"
            )
    seen: dict = {}
    clean: List[Tuple[int, ...]] = []
    for j, O in enumerate(sets):
        idx = tuple(sorted(set(int(t) for t in O)))
        if not idx:
            raise ParameterError(f"set {j} is empty")
        if idx[0] < 0 or idx[-1] >= module.base_size:
            raise ParameterError(f"set {j} has an index outside the base: {idx}")
        for t in idx:
            if t in seen:
                raise ParameterError(
                    f"sets must be pairwise disjoint: base point {t} is in "
                    f"sets {seen[t]} and {j}"
                )
            seen[t] = j
        clean.append(idx)
    out: List[List[FunctionModuleSection]] = []
    for idx in clean:
        sel = np.array(idx, dtype=int)
        tup = []
        for s in z:
            vals = s.values.copy()
            vals[sel] = e.values[sel]
            tup.append(FunctionModuleSection(vals))
        out.append(tup)
    return out


def centralizer_verify(
    module: FunctionModule,
    z: Sequence[FunctionModuleSection],
    constructed: Sequence[Sequence[FunctionModuleSection]],
    m: int,
) -> CertificateReport:
    """Recompute the membership and averaging bounds for m constructed tuples.

    sup-bound: each tuple stays in the unit ball; mean-bound: the averaged
    sum of components has norm at least 1 (the overwritten set realizes it
    exactly); mix-approx: the m-average is within 2/m of the original tuple.
    No bound reads epsilon: these tuples are members for every eps in (0, 1).
    Every section, of z and of the tuples, is shape-checked, and each
    group of norms (the components, the m sums, the k mix differences) is
    one batch call of the module's norm plan on its stacked,
    dimension-checked rows; a row's norm in a batch is its norm alone, bit
    for bit.
    """
    if not (1 <= m <= len(constructed)):
        raise ParameterError(f"m={m} outside 1..{len(constructed)}")
    k = len(z)
    tuples = constructed[:m]
    for i, s in enumerate(z):
        _check_section(module, s, f"component {i}")
    for tup in tuples:
        for c in tup:
            _check_section(module, c, "section")

    def norms(sections) -> np.ndarray:
        return norm_plan(module).evaluate(as_coord_rows(module, np.stack([
            v.reshape(-1) for v in sections])))

    sups = norms(c.values for tup in tuples for c in tup)
    tots = norms(np.sum([c.values for c in tup], axis=0) for tup in tuples)
    diffs = norms(z[i].values - np.mean([tup[i].values for tup in tuples], axis=0)
                  for i in range(k))
    checks: List[CheckResult] = []
    at = 0
    for j, tup in enumerate(tuples):
        sup = max(sups[at:at + len(tup)])
        at += len(tup)
        checks.append(_at_most(f"sup-bound[{j}]", sup, 1.0 + 1e-12))
        checks.append(_at_least(f"mean-bound[{j}]", tots[j] / k, 1.0 - 1e-12))
    for i in range(k):
        checks.append(_at_most(f"mix-approx[{i}]", diffs[i], 2.0 / m + 1e-12))
    return CertificateReport(checks)
