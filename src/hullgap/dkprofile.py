"""Deficiency profiles over a range of generator budgets.

The headline quantity is the worst-case distance from a unit-ball tuple to
the constrained averaging hull with at most k generators, swept over k.
Three independent routes feed a profile: a deterministic adversary sweep
for heuristic values, the certified grid oracle for lower floors where the
ambient dimension admits one, and construction-backed ceilings that hold
for every tuple at once and therefore bound the supremum itself.

A profile never reports a bare number: each entry is a bracket with method
provenance, and entries the grid cannot certify say so.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    InternalInconsistencyError,
    ParameterError,
    PreconditionError,
    VerificationError,
)
from .spaces import (
    INF,
    FunctionModule,
    LpFinite,
    Space,
    dim,
    sample_unit_ball,
)
from .hullgeom import (
    CmParams,
    DistanceBracket,
    _best_upper,
    _build_engines,
    _grid_lower,
    _grid_members,
    ambient_space,
    grid_guard_report,
    validate_decomposition,
)
from .lipmetric import FiniteMetricSpace, LipFunction, lip_seminorm
from .certificates import (
    FunctionModuleSection,
    RingFamily,
    RingSearchExhausted,
    centralizer_construct,
    centralizer_verify,
    extreme_unit_section,
    find_ring_family,
    ivakhno_construct,
    ivakhno_verify,
    validate_ring_family,
)

# an auto-chosen grid is normed once per profile, but its members are
# scanned once per (adversary, m class) pair, so it gets a point budget
# well under the single-call guard
_AUTO_GRID_CAP = 300_000
_AUTO_LADDER = (0.01, 0.02, 0.025, 0.05, 0.1, 0.2, 0.25)


# ---------------------------------------------------------------------------
# profile container


@dataclass(frozen=True, eq=False)
class DkProfile:
    """Bracketed deficiency values keyed by generator budget k."""

    n: int
    epsilon: float
    alpha: float
    seed: int
    budget: int
    entries: Tuple[Tuple[int, DistanceBracket], ...]

    def __post_init__(self):
        ks = [k for k, _ in self.entries]
        if ks != sorted(set(ks)):
            raise InternalInconsistencyError(f"entry keys not strictly increasing: {ks}")
        ups = [b.upper for _, b in self.entries]
        for a, b in zip(ups, ups[1:]):
            if b > a + 1e-12:
                raise InternalInconsistencyError(
                    f"upper bounds increase along k, which no engine's upper can: {ups}"
                )

    @property
    def ks(self) -> Tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    def bracket(self, k: int) -> DistanceBracket:
        for kk, b in self.entries:
            if kk == k:
                return b
        raise ParameterError(f"no entry for k={k}; profile covers {self.ks}")

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "seed": self.seed,
            "budget": self.budget,
            "entries": {str(k): b.to_jsonable() for k, b in self.entries},
        }

    def csv_rows(self) -> List[dict]:
        rows = []
        for k, b in self.entries:
            rows.append(
                {
                    "k": k,
                    "lower": b.lower,
                    "upper": b.upper,
                    "method": b.meta.get("method", f"{b.lower_method}/{b.upper_method}"),
                    "witness-id": b.meta.get("witness_id", ""),
                }
            )
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["k", "lower", "upper", "method", "witness-id"])
        for r in self.csv_rows():
            w.writerow([r["k"], repr(r["lower"]), repr(r["upper"]), r["method"], r["witness-id"]])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# adversary sweep


def _adversaries(space: Space, n: int, budget: int, seed: int) -> List[Tuple[str, np.ndarray]]:
    """Deterministic candidate tuples: sign-alternating block pairs first
    (the scalar analysis shows they dominate), then ambient ball vertices
    and seeded directions."""
    amb = ambient_space(space, n)
    out: List[Tuple[str, np.ndarray]] = []
    seen = set()

    def push(tag: str, arr: np.ndarray) -> None:
        key = tuple(np.round(arr, 12))
        if key not in seen:
            seen.add(key)
            out.append((tag, arr))

    blocks = sample_unit_ball(space, min(max(4, 2 * dim(space)), 8), seed + 1)
    for j, u in enumerate(blocks):
        push(f"pair[{j}]", np.concatenate([u if i % 2 == 0 else -u for i in range(n)]))
    count = max(1, budget) + min(2 ** min(dim(amb), 4), 16)
    for j, v in enumerate(sample_unit_ball(amb, count, seed)):
        push(f"ball[{j}]", v)
    return out


def _budgets(k_range: Iterable[int]) -> List[int]:
    """The distinct generator budgets of k_range, ascending, each at least 1."""
    ks = sorted({int(k) for k in k_range})
    if not ks:
        raise ParameterError("k_range is empty")
    if ks[0] < 1:
        raise ParameterError(f"generator budgets must be >= 1, got {ks[0]}")
    return ks


def _auto_resolution(space: Space, params: CmParams) -> Optional[float]:
    for h in _AUTO_LADDER:
        if grid_guard_report(space, params, h)["grid_points"] <= _AUTO_GRID_CAP:
            return h
    return None


def estimate_dk(
    space: Space,
    n: int,
    epsilon: float,
    alpha: float = 1.0,
    k_range: Iterable[int] = (1, 2, 3, 4),
    budget: int = 8,
    seed: int = 0,
    resolution: Optional[float] = None,
) -> DkProfile:
    """Sweep adversary candidates against the hull for each k in k_range.

    Each entry's upper side is the largest explicit-decomposition upper
    bound over the candidates (a heuristic for the supremum: candidates
    only sample the ball).  It is nonincreasing in k as computed: each
    engine's upper is a min over supports of at most m generators, whose
    closed forms are fixed per (epsilon, alpha), so the max over the
    engines cannot rise with k (``DkProfile`` checks it).  When a grid fits
    under the point cap (or the caller pins a resolution), each lower side
    is the largest certified grid lower over the candidates: a
    candidate's m = 1 lower is never below its m >= 2 one, which is the same
    for every m >= 2, so the grid oracle's lower side (``_grid_lower``)
    runs once per candidate for k = 1 and once for all k >= 2.  Those calls
    share one member record (``_grid_members``), built once per profile
    before the engines, with the checks and refusals of
    ``dist_to_cm_grid``: with an explicit resolution the guard refusal
    propagates instead of degrading, and a grid with no members refuses.

    Deterministic for fixed (seed, budget): the candidate list, the inner
    engines, and the grid are all seeded or exact.  The candidates' upper
    engines are built as one batch (``_build_engines``), with one stack of
    supports per greedy step and per support size for the whole profile.
    Each k makes one ``_best_upper`` call over the batch: its first call
    pulls every engine's prototypes for (epsilon, alpha) in one bisection
    and keeps each support's closed form, and every call checks every
    engine's witness in one norm evaluation.  Every row gets the
    arithmetic of its engine built alone.
    """
    ks = _budgets(k_range)
    base = CmParams(n=n, epsilon=epsilon, alpha=alpha)
    h = resolution if resolution is not None else _auto_resolution(space, base)
    members = None if h is None else _grid_members(space, base, h)

    amb = ambient_space(space, n)
    cands = _adversaries(space, n, budget, seed)
    engines = _build_engines(space, n, [v for _, v in cands], seed, budget)

    entries = []
    lows: Dict[int, Tuple[float, str]] = {}  # the grid lower side of m = 1 and of m >= 2
    for k in ks:
        p = base.with_m(k)
        i, b = _best_upper(engines, p)
        if not validate_decomposition(space, p, b.witness):
            raise InternalInconsistencyError(f"sweep witness failed validation at k={k}")
        if members is not None and min(k, 2) not in lows:
            low, low_id = 0.0, ""
            for cid, v in cands:
                g = _grid_lower(amb, v, members, k)[0]
                if g > low:
                    low, low_id = g, cid
            lows[min(k, 2)] = (low, low_id)
        low, low_id = lows.get(min(k, 2), (0.0, ""))
        meta = {
            "witness_id": cands[i][0],
            "support": b.meta["support"],
            "method": ("grid+sweep" if h is not None else "heuristic-only"),
        }
        if h is not None:
            meta["resolution"] = h
            if low_id:
                meta["lower_witness_id"] = low_id
        entries.append((k, DistanceBracket(
            low, b.upper, lower_method=("grid-covering" if h is not None else "none"),
            upper_method="candidate-sweep", witness=b.witness, meta=meta,
        )))
    return DkProfile(
        n=n, epsilon=epsilon, alpha=alpha, seed=seed, budget=max(1, int(budget)),
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# construction-backed ceilings


def _as_module(target: Union[Space, FiniteMetricSpace]) -> FunctionModule:
    if isinstance(target, FunctionModule):
        return target
    if isinstance(target, LpFinite) and (target.p == INF or target.d == 1):
        # a sup-norm space is the module of scalar-fiber sections over d points
        return FunctionModule(target.d, LpFinite(INF, 1))
    raise ParameterError(
        "no construction route for this target: need a function module, a "
        "sup-norm space, or a finite metric space with a ring family"
    )


def _unit_sections(module: FunctionModule, n: int, panel: int, seed: int):
    flats = sample_unit_ball(module, max(1, panel) * n, seed)
    return [
        tuple(
            FunctionModuleSection.from_flat(module, flats[t * n + i])
            for i in range(n)
        )
        for t in range(max(1, panel))
    ]


def _partition_ceilings(
    module: FunctionModule, n: int, ks: Sequence[int], panel: int, seed: int
) -> Dict[int, float]:
    cap = module.base_size
    usable = [k for k in ks if k <= cap]
    if not usable:
        return {}
    e = extreme_unit_section(module)
    tuples = _unit_sections(module, n, panel, seed)
    # the sign-flipped extreme section is the equality case of the 2/m bound
    tuples.append(tuple(FunctionModuleSection(-e.values.copy()) for _ in range(n)))
    sets = [[j] for j in range(max(usable))]
    for z in tuples:
        constructed = centralizer_construct(module, z, e, sets)
        for k in usable:
            rep = centralizer_verify(module, z, constructed, k)
            if not rep.passed:
                raise VerificationError(
                    f"partition panel failed at k={k}: "
                    f"{[c.name for c in rep.failing()]}"
                )
    return {k: 2.0 / k for k in usable}


def _unit_lip_tuples(M: FiniteMetricSpace, n: int, panel: int, seed: int):
    rng = np.random.default_rng(seed)
    tuples = []
    for _ in range(max(1, panel)):
        tup = []
        for _ in range(n):
            v = rng.standard_normal(M.size)
            s = lip_seminorm(M, LipFunction(v))
            tup.append(LipFunction(v / s if s > 0 else v * 0.0))
        tuples.append(tuple(tup))
    tuples.append(tuple(LipFunction(np.zeros(M.size)) for _ in range(n)))
    return tuples


def _annulus_ceilings(
    M: FiniteMetricSpace,
    n: int,
    epsilon: float,
    ks: Sequence[int],
    family: Optional[RingFamily],
    panel: int,
    seed: int,
) -> Dict[int, float]:
    if family is None:
        got = find_ring_family(M, epsilon, max(ks))
        if isinstance(got, RingSearchExhausted):
            if got.accepted < 1:
                return {}
            got = find_ring_family(M, epsilon, got.accepted)
            if isinstance(got, RingSearchExhausted):
                return {}
        family = got
    else:
        family.check_epsilon(epsilon)
        rep = validate_ring_family(M, family)
        if not rep.passed:
            raise PreconditionError(
                f"supplied ring family fails validation: "
                f"{[c.name for c in rep.failing()]}"
            )
    cap = len(family.entries)
    usable = [k for k in ks if k <= cap]
    if not usable:
        return {}
    for z in _unit_lip_tuples(M, n, panel, seed):
        constructed = ivakhno_construct(M, z, family, epsilon)
        for k in usable:
            rep = ivakhno_verify(M, z, constructed, k, epsilon, family)
            if not rep.passed:
                raise VerificationError(
                    f"annulus panel failed at k={k}: "
                    f"{[c.name for c in rep.failing()]}"
                )
    return {k: (4.0 + 2.0 * epsilon) / k for k in usable}


def constructive_dk_upper(
    target: Union[Space, FiniteMetricSpace],
    n: int,
    epsilon: float,
    k_range: Iterable[int],
    family: Optional[RingFamily] = None,
    panel: int = 12,
    seed: int = 0,
) -> Dict[int, float]:
    """Rigorous per-k ceilings backed by running a construction panel.

    Function modules (and sup-norm spaces read as scalar modules) get the
    partition-overwrite route with ceiling 2/k for k up to the base size;
    a finite metric space with a ring family (supplied or searched) gets
    the re-pinning route with ceiling (4 + 2 eps)/k for k up to the family
    size.  Both ceilings hold for every unit tuple, so they bound the
    supremum; the panel of sampled tuples must verify in full or the call
    raises, and k beyond a construction's capacity is simply absent from
    the result, never extrapolated.  ``CmParams`` checks n and epsilon, and
    a supplied family must be built for this epsilon, whatever the k range.
    """
    ks = _budgets(k_range)
    params = CmParams(n, epsilon)
    if isinstance(target, FiniteMetricSpace):
        return _annulus_ceilings(target, params.n, params.epsilon, ks, family, panel, seed)
    if family is not None:
        raise ParameterError("a ring family only applies to a finite metric space")
    return _partition_ceilings(_as_module(target), params.n, ks, panel, seed)
