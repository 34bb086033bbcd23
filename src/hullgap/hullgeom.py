"""Near-averaging tuple sets, hull distances, and certified brackets.

The central set is parameterized by (n, eps, alpha, m): tuples g of n blocks
with sup-tuple norm at most alpha whose block mean has norm exceeding
1 - eps, combined by convex combinations of at most m such tuples.  This
module answers "how far is z from that set" three ways:

* ``min_norm_point`` -- distance from a point to the convex hull of finitely
  many generators in any of our norms, with a rigorous lower bound built
  from an explicit dual functional rescaled by its exactly computed dual
  norm (so the reported gap is a real gap).  A polyhedral norm (every atom
  and combiner with p in {1, inf}, or a one-coordinate atom, which is |x|
  for every p) takes one LP, whose marginals are the functional; a curved
  norm takes the exact Euclidean nearest point (one NNLS), a descent in
  the true norm from there, norming functionals at the residual, and one
  SLSQP refinement on each side.  The LP and the SLSQP stages share one
  epigraph model per norm plan (``_epigraph``);
* ``dist_to_cm_upper`` -- a deterministic feasible-decomposition search whose
  reported value is monotone in m, eps and alpha by construction; its hull
  weights are polished by one segment line search on every norm, tangent
  cuts on the norm plan's one-sided slopes;
* ``dist_to_cm_grid`` -- an enumeration oracle producing two-sided brackets
  whose lower side is backed by a covering-radius argument; its grid
  members are one record (``_grid_members``) that a caller builds once and
  passes to every lower side it runs (``_grid_lower``).

Every norm and dual norm here is a plan that ``spaces`` compiles
(``norm_plan``, ``dual_plan``, ``norm_evaluator``); this module adds the
evaluators of ambient tuples (block-mean norm, and block-mean and sup norm
in one call).  A certified lower's functional is scaled into the dual ball
once, by the dual plan's ``into_ball`` (``_dual_lower``).

Strictness: the "> 1 - eps" constraint is checked as "> 1 - eps - tol" with
the declared tolerance ``STRICTNESS_TOL`` = 1e-9, i.e. all distances are
reported about the closure of the constraint set; the infimum is the same.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapabilityRefusal, InternalInconsistencyError, ParameterError
from .spaces import (
    INF,
    NormPlan,
    Space,
    SupTuple,
    as_coord_rows,
    as_coords,
    canonical_unit,
    dim,
    dual_plan,
    norm_evaluator,
    norm_plan,
    norming_section,
    sup_slots,
)

STRICTNESS_TOL = 1e-9
GRID_GUARD = 10_000_000


# ---------------------------------------------------------------------------
# parameters and certificates


@dataclass(frozen=True)
class CmParams:
    """Parameters (n, epsilon, alpha, m) of the constrained-hull set.

    Conventions: alpha = 1 is the plain set, alpha = 1 + epsilon is the
    widened variant that the constructions hit naturally; m = 1 means single
    tuples, no combination.  Every route of a run builds one, so this is
    the one check of n, m >= 1, epsilon in (0, 1) and alpha in (1 - eps, inf).
    """

    n: int
    epsilon: float
    alpha: float = 1.0
    m: int = 1

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n}")
        if not (0.0 < self.epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (0.0 < self.alpha < INF):
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if int(self.m) != self.m or self.m < 1:
            raise ParameterError(f"m must be a positive integer, got {self.m}")
        if self.alpha <= 1.0 - self.epsilon:
            # every member's mean norm is at most its sup norm, hence at most alpha
            raise ParameterError(f"constraint set is empty: alpha={self.alpha} <= 1 - epsilon="
                                 f"{1.0 - self.epsilon}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "alpha", float(self.alpha))

    def with_m(self, m: int) -> "CmParams":
        return CmParams(self.n, self.epsilon, self.alpha, m)


def ambient_space(space: Space, n: int) -> SupTuple:
    return SupTuple(n, space)


@dataclass(frozen=True)
class MemberReport:
    sup_norm: float
    mean_norm: float
    sup_ok: bool
    mean_ok: bool

    @property
    def passed(self) -> bool:
        return self.sup_ok and self.mean_ok


def cm_member_check(space: Space, params: CmParams, g) -> MemberReport:
    """Check the two membership constraints, reporting both computed values."""
    x = as_coords(ambient_space(space, params.n), g)
    mean, sup = (float(v[0]) for v in _mean_sup_evaluator(space, params.n)(x[None, :]))
    return MemberReport(
        sup_norm=sup,
        mean_norm=mean,
        sup_ok=sup <= params.alpha + STRICTNESS_TOL,
        mean_ok=mean > 1.0 - params.epsilon - STRICTNESS_TOL,
    )


@dataclass(frozen=True, eq=False)
class ConvexDecomposition:
    """Weights plus generator tuples witnessing a point of the m-fold hull."""

    weights: np.ndarray
    generators: List[np.ndarray]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        gens = [np.asarray(g, dtype=float).reshape(-1) for g in self.generators]
        if w.shape[0] != len(gens):
            raise ParameterError(
                f"{w.shape[0]} weights for {len(gens)} generators"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "generators", gens)

    def to_jsonable(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "generators": [g.tolist() for g in self.generators],
        }


def validate_decomposition(space: Space, params: CmParams, dec: ConvexDecomposition) -> bool:
    if len(dec.generators) > params.m:
        return False
    if np.any(dec.weights < -1e-12) or abs(float(dec.weights.sum()) - 1.0) > 1e-12:
        return False
    return all(cm_member_check(space, params, g).passed for g in dec.generators)


@dataclass(frozen=True, eq=False)
class DistanceBracket:
    """Certified/heuristic enclosure of a distance value with provenance."""

    lower: float
    upper: float
    lower_method: str
    upper_method: str
    witness: Optional[ConvexDecomposition] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise InternalInconsistencyError(
                f"bracket inverted: lower={self.lower} > upper={self.upper}"
            )

    def to_jsonable(self) -> dict:
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "lower_method": self.lower_method,
            "upper_method": self.upper_method,
            "meta": dict(self.meta),
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_jsonable()
        return out


# ---------------------------------------------------------------------------
# batch evaluators of ambient tuples


def mean_norm_evaluator(space: Space, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Batch evaluator for the block-mean norm of ambient tuples."""
    di = dim(space)
    sub = norm_evaluator(space)

    def ev(X: np.ndarray) -> np.ndarray:
        # the block sum over n, as ndarray.mean computes it without its call overhead
        return sub(np.add.reduce(X.reshape(X.shape[0], n, di), axis=1) / n)

    return ev


def _mean_sup_evaluator(space: Space, n: int) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Batch evaluator of (block-mean norm, ambient sup norm) of ambient tuples.

    One call of the space's evaluator takes the n blocks and the block mean
    of every row, stacked.  The norm of ``ambient_space(space, n)`` is the
    max of the block norms, and a max is exact, so the pair equals
    ``mean_norm_evaluator`` and ``norm_evaluator(ambient_space(space, n))``
    bit for bit.
    """
    di = dim(space)
    sub = norm_evaluator(space)

    def ev(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        T = X.shape[0]
        f = sub(np.concatenate([X.reshape(T * n, di),
                                np.add.reduce(X.reshape(T, n, di), axis=1) / n]))
        return f[T * n:], f[: T * n].reshape(T, n).max(axis=1)

    return ev


def _dual_lower(
    space: Space, z: np.ndarray, G: np.ndarray, phi: Optional[np.ndarray]
) -> Tuple[float, Optional[np.ndarray]]:
    """The bound phi(z) - max_j phi(g_j) on d(z, co(rows of G)), phi scaled into the dual ball first.

    The dual norm is evaluated here (``dual_plan(space).into_ball``), never
    taken from a solver, and the scaled phi reads at most 1 under it, so
    the bound holds whatever the solver's tolerances.  Returns (0, None)
    for a missing, zero or non-finite functional.
    """
    U = [] if phi is None else dual_plan(space).into_ball(phi[None, :])[0]
    if len(U) == 0:
        return 0.0, None
    phi = U[0]
    return max(0.0, float(phi @ z - np.max(G @ phi))), phi


_CUT_CAP = 160


def certified_hull_lower(
    space: Space, z: np.ndarray, G: np.ndarray, v_hat: np.ndarray
) -> Tuple[float, Optional[np.ndarray]]:
    """Rigorous lower bound on d(z, co(rows of G)) from a dual functional.

    Any phi with dual norm <= 1 gives the bound phi(z) - max_j phi(g_j).  The
    norm plan's norming candidates at the residual v_hat, near ties
    included, are taken in the plan's order (best-attaining first) without
    repeats to 10 digits, and the first ``_CUT_CAP`` kept.  Their best convex
    combination is selected by a small LP and then scaled into the dual
    ball, once, by ``_dual_lower``, so the bound stays valid however the LP
    was solved.
    """
    first: Dict[tuple, np.ndarray] = {}
    for _, psi in norm_plan(space).norming(v_hat):
        first.setdefault(tuple(np.round(psi, 10)), psi)
    cands = list(first.values())[:_CUT_CAP]
    if not cands:
        return 0.0, None
    P = np.stack(cands)  # C x D
    return _dual_lower(space, z, G, _best_dual_combination(P, P @ z, P @ G.T))


def _best_dual_combination(P: np.ndarray, vals_z: np.ndarray, vals_G: np.ndarray) -> np.ndarray:
    from scipy import optimize

    C = P.shape[0]
    if C == 1:
        return P[0].copy()
    # maximize sum_c mu_c vals_z[c] - t  s.t.  sum_c mu_c vals_G[c, j] <= t
    K = vals_G.shape[1]
    res = optimize.linprog(
        np.concatenate([-vals_z, [1.0]]),
        A_ub=np.hstack([vals_G.T, -np.ones((K, 1))]), b_ub=np.zeros(K),
        A_eq=np.concatenate([np.ones(C), [0.0]])[None, :], b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * C + [(None, None)], method="highs",
    )
    if res.status == 0:
        mu = np.clip(res.x[:C], 0.0, None)
        total = float(mu.sum())
        if total > 0:
            return np.einsum("c,cd->d", mu / total, P)
    # the LP failed: the single best extreme candidate
    scores = vals_z - np.max(vals_G, axis=1)
    return P[int(np.argmax(scores))].copy()


# ---------------------------------------------------------------------------
# min-norm point over a finite hull


@dataclass(frozen=True, eq=False)
class MinNormResult:
    distance: float
    weights: np.ndarray
    gap: float
    lower: float
    # the step that produced ``lower``: "vertex" (z is a generator), "lp"
    # (the polyhedral route), or, on curved norms, "norming" (norming
    # functionals at the residual of the polished Euclidean nearest point),
    # "slsqp-primal" (the same after the primal refinement) or "slsqp-dual"
    # (the dual refinement)
    stage: str
    # the functional of ``lower``, rescaled into the dual unit ball: lower is
    # max(0, phi(z) - max_j phi(g_j)), so it certifies any other generator
    # set too; None where lower is 0 without one
    functional: Optional[np.ndarray] = None


_CURVED_STEPS = 100


def _batch_segment_min(
    space: Space,
    V: np.ndarray,
    W: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """For each row p, minimize the convex t -> norm(V[p] - t*W[p]) over [0, hi[p]].

    Kelley's cutting-plane method in one dimension, on all rows at once,
    driven by the plan's ``probe``.  A row keeps a tangent line at a (slope
    sa < 0) and one at b (slope sb > 0) and probes t, where they meet.  On
    a curved plan the same ``probe`` call also takes s = a - sa (b - a) /
    (sb - sa), the zero of the chord through the two end slopes, which is
    exact at a quadratic's minimizer: Kelley's t alone closes a smooth
    bracket only at the rate of bisection.  A probe strictly inside the
    bracket replaces the end whose slope it strictly improves (its
    one-sided slope pointing downhill), t first, and every probe feeds the
    best point.  A row is done when the slopes at a probe bracket 0, when
    no probe moves an end (a probe at an end, or a cut that repeats by
    rounding), or when its best value meets the model up to the rounding
    floor 4 eps (fa + fb) of the row's ends: f(t) against the model at t
    on a polyhedral plan, the best value against the minimum of the
    two-tangent model left by both cuts on a curved one.  On a polyhedral
    plan every step cuts with a new linear piece, so Kelley's probe alone
    is exact within ``plan.pieces`` steps (2-3 in practice), and a second
    probe would only add rows; on a curved plan the model closes in until
    rounding stops it, within ``_CURVED_STEPS`` steps.  Either bound left
    open raises.  The best point seen is returned, with the value the
    evaluator gives there.
    """
    plan = norm_plan(space)
    steps = plan.pieces if plan.polyhedral else _CURVED_STEPS
    T = V.shape[0]
    f, left, right = plan.probe(np.concatenate([V, V - hi[:, None] * W]), np.concatenate([W, W]))
    a, fa, sa = np.zeros(T), f[:T], right[:T]
    b, fb, sb = hi.astype(float), f[T:], left[T:]
    t_best = np.where(fb < fa, b, a)
    f_best = np.minimum(fa, fb)
    # the state of the open rows only, compacted whenever rows close
    rows = np.flatnonzero((sa < 0.0) & (sb > 0.0) & (b > 0.0))
    a, fa, sa, b, fb, sb, V, W = (x[rows] for x in (a, fa, sa, b, fb, sb, V, W))
    done = np.zeros(rows.shape[0], dtype=bool)
    for step in range(steps):
        t = np.clip((fb - fa + sa * a - sb * b) / (sa - sb), a, b)
        model = np.maximum(fa + sa * (t - a), fb + sb * (t - b))
        # ||hi W|| <= fa + fb, so no row resolves f finer than eps (fa + fb)
        floor = 4.0 * np.finfo(float).eps * (fa + fb)
        if step and not plan.polyhedral:  # the certificate after the last step's cuts
            done |= f_best[rows] <= model + floor
        if done.any():
            keep = ~done
            rows, a, fa, sa, b, fb, sb, V, W, t, model, floor, done = (
                x[keep] for x in (rows, a, fa, sa, b, fb, sb, V, W, t, model, floor, done))
        if rows.shape[0] == 0:
            break
        P = [t] if plan.polyhedral else [t, a - sa * (b - a) / (sb - sa)]
        F, L, R = (x.reshape(len(P), -1) for x in plan.probe(
            np.concatenate([V - p[:, None] * W for p in P]), np.concatenate([W] * len(P))))
        moved = np.zeros(rows.shape[0], dtype=bool)
        for p, f, left, right in zip(P, F, L, R):
            better = f < f_best[rows]
            t_best[rows[better]] = p[better]
            f_best[rows[better]] = f[better]
            inside = (a < p) & (p < b)
            done |= inside & (right >= 0.0) & (left <= 0.0)
            # still descending at p, less steeply than at a: p becomes the left end
            up = inside & (right < 0.0) & (right > sa)
            down = inside & (left > 0.0) & (left < sb)
            moved |= up | down
            a, fa, sa = np.where(up, p, a), np.where(up, f, fa), np.where(up, right, sa)
            b, fb, sb = np.where(down, p, b), np.where(down, f, fb), np.where(down, left, sb)
        done |= ~moved
        if plan.polyhedral:
            done |= F[0] <= model + floor
    open_rows = np.count_nonzero(~done)
    if open_rows:
        raise InternalInconsistencyError(
            f"segment search still open after {steps} steps on {open_rows} of {T} rows"
        )
    return t_best, f_best


def _euclid_surrogate(G: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Simplex weights (C, K) of the Euclidean nearest point to Z[c] of the hull of G[c]'s rows.

    One NNLS (Lawson & Hanson 1974, ch. 23) per row c on A = [(G[c] -
    Z[c])^T; 1^T] and b = [0; 1]: its minimizer is lam* / (1 + r^2) for the
    exact weights lam* and distance r, so renormalized it is exact, with at
    most D + 1 positive weights.  The systems of the whole (C, K, D) stack
    are built as one array; should NNLS stop at its iteration cap on a row,
    that row's nearest generator stands in.
    """
    from scipy.optimize import nnls

    C, K, D = G.shape
    A = np.ones((C, D + 1, K))
    A[:, :D, :] = (G - Z[:, None, :]).transpose(0, 2, 1)
    b = np.zeros(D + 1)
    b[D] = 1.0
    lam = np.empty((C, K))
    for c in range(C):
        try:
            mu, _ = nnls(A[c], b)
        except RuntimeError:
            mu = np.zeros(K)
            R = G[c] - Z[c]
            mu[int(np.argmin(np.einsum("kd,kd->k", R, R)))] = 1.0
        lam[c] = mu / mu.sum()
    return lam


_PAIR_CAP = 18


def _polish_true_norm(
    space: Space, G: np.ndarray, Z: np.ndarray, lam: np.ndarray, sweeps: int,
    dists: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pairwise weight transfers with exact convex line searches, on a stack of rows.

    Row r has its own point Z[r] (Z is (R, D)), the generators G[r] (a
    (R, K, D) stack) and the weights lam[r], so one stack may hold the
    supports of many upper engines; dists[r, k] is the norm of Z[r] -
    G[r, k], which every caller has already computed.  In a row, weight
    moves from the support to the support and the ``_PAIR_CAP`` generators
    nearest Z[r]; a sweep takes the best transfer (the first pair on a tie)
    while it improves the norm, and a row that stops improving is done.  The rows
    are independent, but every sweep gathers the pairs of all rows still
    improving into one segment search.

    Returns the weights and which rows settled: stopped improving within
    ``sweeps``.  Every sweep is deterministic and row-wise, so a settled
    row's weights are those any larger cap gives, bit for bit.
    """
    nrm = norm_evaluator(space)
    R, K = dists.shape
    near = np.zeros((R, K), dtype=bool)
    order = np.argsort(dists, axis=1)
    np.put_along_axis(near, order[:, :_PAIR_CAP], True, axis=1)
    lam = lam.copy()
    live = np.arange(R)
    for _ in range(sweeps):
        sup = lam[live] > 1e-15
        r, i = np.nonzero(sup)
        ra, j = np.nonzero(sup | near[live])
        # the pairs (r, i, j) ordered by row, then source i in the support,
        # then target j in the support or near z: source i of row r pairs
        # with the `width` targets of its row, which start at j[start]
        width = np.bincount(ra, minlength=live.shape[0])[r]
        start = np.searchsorted(ra, r)
        at = np.arange(width.sum()) + np.repeat(start - (np.cumsum(width) - width), width)
        r, i, j = np.repeat(r, width), np.repeat(i, width), j[at]
        r, i, j = r[i != j], i[i != j], j[i != j]
        if r.shape[0] == 0:
            break
        v0 = Z[live] - (lam[live][:, None, :] @ G[live])[:, 0]
        rows = live[r]
        t, f = _batch_segment_min(space, v0[r], G[rows, j] - G[rows, i], lam[rows, i])
        # each row's best pair, the first one on a tie (lexsort is stable)
        k = np.lexsort((f, r))[np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))]
        b = nrm(v0)[r[k]]
        k = k[~(f[k] >= b - 1e-15 * (1.0 + b))]
        live, ii = rows[k], np.arange(k.shape[0])
        step = lam[live]
        step[ii, i[k]] -= t[k]
        step[ii, j[k]] += t[k]
        step = np.clip(step, 0.0, None)
        lam[live] = step / step.sum(axis=1)[:, None]
    settled = np.ones(R, dtype=bool)
    settled[live] = False
    return lam, settled


@dataclass(frozen=True, eq=False)
class _Epigraph:
    """Inequality model of a plan's norm over y = [x; aux], compiled once (``_epigraph``).

    A max node bounds one variable a >= +-x_c and a >= each kid; a sum node
    one u_c >= +-x_c per own coordinate, added to its kids' expressions; any
    other p one variable a by one power row |a|^p >= sum |x_c|^p + sum
    |kid|^p.  The plan's flattening carries over, so ``sup(n, lp(inf,d))``
    is one max.  ``root @ y`` is the norm at the optimum.  A polyhedral plan
    has no power rows, and its linear rows ``A @ y >= 0`` are an exact LP
    model; a curved one is a model a smooth NLP solver can drive to machine
    precision.

    The power rows (p, a, M), |y_a|^p >= sum |M @ y|^p, are stacked: row r
    is ``S[r] @ |P @ y|^p >= 0``, where ``P`` holds each row's e_a and then
    its M, ``p`` each term's exponent, and S[r] is +1 on e_a, -1 on M.
    """

    A: np.ndarray
    root: np.ndarray
    P: np.ndarray
    S: np.ndarray
    p: np.ndarray
    # per auxiliary variable: the column c of a u_c, or the node a bounds
    sources: tuple

    def __post_init__(self):
        for arr in (self.A, self.root, self.P, self.S, self.p):
            arr.setflags(write=False)  # one model serves every solve on the plan

    def start(self, x: np.ndarray) -> np.ndarray:
        """The auxiliary values at x, where every row is tight: |x_c| or the node's norm."""
        return np.array([
            abs(x[s]) if isinstance(s, int) else float(s.evaluate(x[None, :])[0])
            for s in self.sources
        ])


def _aux_count(plan: NormPlan, D: int) -> int:
    own = 0 if plan.cols is None else len(np.arange(D)[plan.cols])
    return (own if plan.p == 1.0 else 1) + sum(_aux_count(k, D) for k in plan.kids)


@functools.lru_cache(maxsize=None)
def _epigraph(plan: NormPlan, D: int) -> _Epigraph:
    """The plan's epigraph model on D coordinates, compiled once per plan."""
    from scipy.linalg import block_diag

    I = np.eye(D + _aux_count(plan, D))
    lin: List[np.ndarray] = []
    pows: List[Tuple[float, List[np.ndarray]]] = []
    sources: list = []

    def new_var(source) -> np.ndarray:
        sources.append(source)
        return I[D + len(sources) - 1]

    def build(node: NormPlan) -> np.ndarray:
        """The node's rows; returns its expression, a row over y."""
        own = [] if node.cols is None else np.arange(D)[node.cols].tolist()
        kids = [build(kid) for kid in node.kids]
        if node.p == 1.0:
            us = [new_var(c) for c in own]
            lin.extend(r for u, c in zip(us, own) for r in (u - I[c], u + I[c]))
            return sum(us + kids)
        a = new_var(node)
        if node.p == INF:
            lin.extend(r for c in own for r in (a - I[c], a + I[c]))
            lin.extend(a - k for k in kids)
        else:
            pows.append((node.p, [a] + [I[c] for c in own] + kids))
        return a

    root, W = build(plan), I.shape[0]
    return _Epigraph(
        A=np.array(lin).reshape(-1, W), root=root,
        P=np.array([t for _, terms in pows for t in terms]).reshape(-1, W),
        S=block_diag(*[np.r_[1.0, -np.ones(len(t) - 1)] for _, t in pows]) if pows else np.zeros((0, 0)),
        p=np.array([p for p, terms in pows for _ in terms]), sources=tuple(sources),
    )


def _nlp_constraints(epi: _Epigraph, A: np.ndarray, b: np.ndarray,
                     P: np.ndarray, q: np.ndarray) -> List[dict]:
    """SLSQP constraints: the linear rows A @ w + b >= 0 and the model's power
    rows on the terms P @ w + q, which the caller mapped to its variables w."""
    cons = []
    if A.shape[0]:
        cons.append({"type": "ineq", "fun": lambda w: A @ w + b, "jac": lambda w: A})
    if P.shape[0]:
        S, p = epi.S, epi.p

        def jac(w):
            v = P @ w + q
            return S @ ((p * np.abs(v) ** (p - 1.0) * np.sign(v))[:, None] * P)

        cons.append({"type": "ineq", "fun": lambda w: S @ np.abs(P @ w + q) ** p, "jac": jac})
    return cons


def _slsqp(c: np.ndarray, x0: np.ndarray, bounds: list, cons: List[dict],
           tries: int) -> Optional[np.ndarray]:
    """min c @ w by SLSQP from x0; None if the solver raises.

    The line search can stall on rounding short of the optimum (status 8,
    or the iteration limit); each further try restarts from where it stopped.
    """
    from scipy.optimize import minimize

    try:
        for _ in range(tries):
            res = minimize(lambda w: float(c @ w), x0, jac=lambda w: c, method="SLSQP",
                           bounds=bounds, constraints=cons,
                           options={"maxiter": 250, "ftol": 1e-14})
            if res.status == 0:
                break
            x0 = res.x
    except Exception:
        return None
    return res.x


def _slsqp_primal(space, nrm, G: np.ndarray, z: np.ndarray,
                  lam0: np.ndarray) -> Optional[np.ndarray]:
    """Refine hull weights with a smooth NLP over the norm's epigraph model.

    Above 60 generators it runs on the support of lam0 and the generators
    nearest z, up to 60 of them.
    """
    K, D = G.shape
    keep = np.ones(K, dtype=bool)
    if K > 60:
        keep = lam0 > 1e-14
        order = np.argsort(nrm(z[None, :] - G))
        keep[order[~keep[order]][: max(0, 60 - int(keep.sum()))]] = True
    Gs, lam0 = G[keep], np.clip(lam0[keep], 0.0, None)
    k, lam0 = Gs.shape[0], lam0 / lam0.sum()
    epi = _epigraph(norm_plan(space), D)
    # substitute x = z - G'lam: the rows over [lam; aux], with their constants
    E = np.vstack([epi.A, epi.P])
    Ew, e0 = np.hstack([-E[:, :D] @ Gs.T, E[:, D:]]), E[:, :D] @ z
    L, n = epi.A.shape[0], Ew.shape[1]
    cons = _nlp_constraints(epi, Ew[:L], e0[:L], Ew[L:], e0[L:])
    cons.append({
        "type": "eq",
        "fun": lambda y: np.array([y[:k].sum() - 1.0]),
        "jac": lambda y: np.concatenate([np.ones(k), np.zeros(n - k)])[None, :],
    })
    # the root reads auxiliary variables only
    x = _slsqp(np.concatenate([np.zeros(k), epi.root[D:]]),
               np.concatenate([lam0, epi.start(z - lam0 @ Gs) * (1.0 + 1e-9) + 1e-12]),
               [(0.0, 1.0)] * k + [(0.0, None)] * (n - k), cons, tries=1)
    if x is None:
        return None
    lam = np.clip(x[:k], 0.0, None)
    s = lam.sum()
    if not np.isfinite(s) or s <= 0.0:
        return None
    out = np.zeros(K)
    out[keep] = lam / s
    return out


def _slsqp_dual(space, G: np.ndarray, z: np.ndarray,
                phi0: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Refine a separating functional over the dual unit ball's epigraph model.

    Maximizes phi(z) - max_j phi(g_j) subject to the dual-ball model, from
    phi0 shrunk by 1 - 1e-9.  phi0 is already in the dual ball: every caller
    passes a functional that ``_dual_lower`` scaled there.  The caller must
    scale the result into the dual ball (``_dual_lower``) before trusting
    any bound derived from it.
    """
    if phi0 is None:
        return None
    phi0 = phi0 * (1.0 - 1e-9)
    K, D = G.shape
    rows = z[None, :] - G
    if K > 150:
        keep = np.argsort(rows @ phi0)[:150]
        rows = rows[keep]
    epi = _epigraph(dual_plan(space), D)
    # the variables [phi; s; aux]: the model with an s column at D, the
    # ball row 1 - root >= 0, and s <= phi(z - g_j) for every row
    E = np.insert(np.vstack([epi.A, -epi.root, epi.P]), D, 0.0, axis=1)
    L, n = epi.A.shape[0], E.shape[1]
    A = np.vstack([E[: L + 1], np.hstack([rows, -np.ones((len(rows), 1)),
                                          np.zeros((len(rows), n - D - 1))])])
    b = np.zeros(A.shape[0])
    b[L] = 1.0
    cons = _nlp_constraints(epi, A, b, E[L + 1 :], np.zeros(E.shape[0] - L - 1))
    c_obj = np.zeros(n)
    c_obj[D] = -1.0
    x = _slsqp(c_obj, np.concatenate([phi0, [np.min(rows @ phi0)], epi.start(phi0) * (1.0 + 1e-9) + 1e-12]),
               [(None, None)] * (D + 1) + [(0.0, None)] * (n - D - 1), cons, tries=2)
    if x is None or not np.all(np.isfinite(x[:D])):
        return None
    return x[:D]


def _hull_lp(space: Space, z: np.ndarray, G: np.ndarray):
    """min ||v|| s.t. v + G'lam = z, lam on the simplex, as one HiGHS LP.

    The norm is modelled by the linear rows of its epigraph, padded with the
    lam columns, so the space must be polyhedral
    (``norm_plan(space).polyhedral``).  Returns (weights, phi) or None if
    the LP fails; phi holds the marginals of the D coupling rows: the
    derivative of the distance in z, which is the optimal separating
    functional.
    """
    from scipy import optimize

    K, D = G.shape
    epi = _epigraph(norm_plan(space), D)
    L, W = epi.A.shape
    A_eq = np.zeros((D + 1, K + W))
    A_eq[:D, :K] = G.T
    A_eq[:D, K : K + D] = np.eye(D)
    A_eq[D, :K] = 1.0
    bounds = [(0.0, None)] * K + [(None, None)] * D + [(0.0, None)] * (W - D)
    res = optimize.linprog(
        np.concatenate([np.zeros(K), epi.root]),
        A_ub=-np.hstack([np.zeros((L, K)), epi.A]), b_ub=np.zeros(L),
        A_eq=A_eq, b_eq=np.append(z, 1.0), bounds=bounds, method="highs",
    )
    if res.status != 0:
        return None
    lam = np.clip(res.x[:K], 0.0, None)
    return lam / lam.sum(), res.eqlin.marginals[:D]


def min_norm_point(
    space: Space,
    z,
    generators: Sequence,
    target_gap: float = 1e-10,
) -> MinNormResult:
    """Distance from z to the convex hull of the generators, with certificate.

    ``distance`` is the norm of z - lam G for the returned weights lam on
    the simplex; ``lower`` is phi(z) - max_j phi(g_j) for a functional phi
    (``functional``) rescaled by its exactly computed dual norm, so the gap
    is rigorous whatever the solvers' tolerances.  One of two routes runs:

    * polyhedral norms (``norm_plan(space).polyhedral``): one LP,
      whose equality marginals are the functional (stage "lp"); should
      its gap exceed the target, the LP's weights get the curved route's
      pairwise polish, which is exact on these norms, and the functional
      stands;
    * curved norms: the exact Euclidean nearest point (one NNLS, which
      finds the hull point itself when z lies in the hull) and a pairwise
      polish in the true norm, certified by the norming functionals at the
      residual; while the gap exceeds the target, an SLSQP primal
      refinement, then an SLSQP dual refinement.
    """
    if len(generators) == 0:
        raise ParameterError("generator set must be nonempty")
    zz = as_coords(space, z)
    G = as_coord_rows(space, generators)
    K, D = G.shape
    nrm = norm_evaluator(space)

    def dist(lam: np.ndarray) -> float:
        return float(nrm((zz - lam @ G)[None, :])[0])

    vertex_dists = nrm(zz[None, :] - G)
    j = int(np.argmin(vertex_dists))
    lam = np.zeros(K)
    lam[j] = 1.0
    if vertex_dists[j] == 0.0:
        return MinNormResult(0.0, lam, 0.0, 0.0, "vertex")

    if norm_plan(space).polyhedral:
        sol = _hull_lp(space, zz, G)
        if sol is None:
            raise InternalInconsistencyError(f"hull LP failed on {K} generators in dimension {D}")
        lam = sol[0]
        best_val = dist(lam)
        lower, phi = _dual_lower(space, zz, G, sol[1])
        stage = "lp"
        if best_val - lower > target_gap:  # the LP's weights stopped short of its functional
            lam = _polish_true_norm(space, G[None], zz[None], lam[None], sweeps=25,
                                    dists=vertex_dists[None])[0][0]
            best_val = dist(lam)
    else:
        lam = _euclid_surrogate(G[None], zz[None])[0]
        lam = _polish_true_norm(space, G[None], zz[None], lam[None], sweeps=25,
                                dists=vertex_dists[None])[0][0]
        best_val = dist(lam)
        lower, phi = certified_hull_lower(space, zz, G, zz - lam @ G)
        stage = "norming"
        if best_val - lower > target_gap:
            lam_ref = _slsqp_primal(space, nrm, G, zz, lam)
            if lam_ref is not None and dist(lam_ref) < best_val:
                lam, best_val = lam_ref, dist(lam_ref)
                lower_r, phi_r = certified_hull_lower(space, zz, G, zz - lam @ G)
                if lower_r > lower:
                    lower, phi, stage = lower_r, phi_r, "slsqp-primal"
        if best_val - lower > target_gap:
            lower_d, phi_d = _dual_lower(space, zz, G, _slsqp_dual(space, G, zz, phi))
            if lower_d > lower:
                lower, phi, stage = lower_d, phi_d, "slsqp-dual"
    return MinNormResult(distance=best_val, weights=lam, gap=max(0.0, best_val - lower),
                         lower=lower, stage=stage, functional=phi)


# ---------------------------------------------------------------------------
# monotone upper bounds via prototype pulls


class _UpperEngine:
    """Deterministic feasible-decomposition search for one (space, n, z, seed).

    Everything that could break monotonicity is parameter-free: the prototype
    pool, the nested greedy supports, and the hull weights mu_C are computed
    once from (space, n, z, seed, budget) alone.  A parameter pair (eps,
    alpha) only chooses, per prototype, how far it can be pulled toward z
    along a segment (found by bisection on the convex feasibility
    crossings), and the candidate value for a support C is then the closed
    form d_C / Z with Z = sum_c mu_c / (1 - s_c).  Deeper pulls can only
    increase Z, so enlarging eps or alpha can only lower every candidate,
    and enlarging m only adds candidates.

    One pull rule serves every alpha: below alpha = 1 the pool is first
    scaled by c = alpha (1 - 1e-12) into the alpha ball, and the supports
    are solved once per c and kept in ``_scaled``; monotonicity in alpha is
    stated for alpha >= 1 only.  At c = 1, with the engine, each support is
    solved once: the greedy stage's solve of a chain support stands when
    its polish settled within the greedy cap, since an accurate solve gives
    the same bits, and only the rest are solved again.  The prototypes
    promise mean norm >= 1 - 1e-9 and sup norm <= 1 + 1e-12; a broken
    promise raises ``InternalInconsistencyError``.

    So one engine answers every (m, eps, alpha) for its tuple: the pulls
    and the closed forms of all its supports are computed once per (eps,
    alpha), and m only filters the supports by size.  ``dist_to_cm_upper``
    reuses the engine of a repeated (space, n, z, seed, budget), and
    ``estimate_dk`` holds one per candidate for a whole profile and asks
    ``_best_upper`` for the largest upper over all of them.  The engine
    keeps its own copy of z, and the norms of z, so a caller that edits its
    array in place does not change a stored engine.

    Engines are built by ``_build_engines`` only, in batches of one (space,
    n, seed, budget), and come out the same bit for bit in any batch;
    ``__init__`` makes one engine's pool from its prototype rows.
    """

    def __init__(self, space: Space, n: int, z: np.ndarray, budget: int, protos: np.ndarray,
                 n_units: int, z_sup: float, z_mean: float):
        self.n = n
        self.amb = ambient_space(space, n)
        self.z = z.copy()
        self.budget = budget
        self.nrm_sup = norm_evaluator(self.amb)
        self.nrm_mean_sup = _mean_sup_evaluator(space, n)
        self.z_sup, self.z_mean = z_sup, z_mean
        self._pull_cache: Dict[Tuple[float, float], np.ndarray] = {}
        self._closed: Dict[Tuple[float, float], np.ndarray] = {}
        # one prototype per row distinct to 12 digits (+ 0.0 makes -0.0 equal
        # 0.0): the n_units tiled units, then the partition overwrites, which
        # hold `parts` rows for each parts = 1, 2, ...
        index_of: Dict[bytes, int] = {}
        idx = np.array([index_of.setdefault(key.tobytes(), len(index_of))
                        for key in np.round(protos, 12) + 0.0])
        self.pool = protos[np.unique(idx, return_index=True)[1]]
        # scale c -> (pool scaled by c, {support: (mu_C, d_C)}); c = 1 is
        # the pool itself, and _grow_chains fills in its settled chain supports
        self._scaled: Dict[float, tuple] = {1.0: (self.pool, {})}
        self._n_const = int(idx[:n_units].max()) + 1
        self.partition_supports: Dict[int, List[int]] = {}
        while n_units < len(idx):
            parts = len(self.partition_supports) + 1
            self.partition_supports[parts] = idx[n_units : n_units + parts].tolist()
            n_units += parts

    def _solve_support(
        self, gens: np.ndarray, Z: np.ndarray, accurate: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hull weights (C, K), distances (C,) and settled rows (C,) for a stack (C, K, D) of supports.

        Row c is the support gens[c] with its own point Z[c] (Z is (C, D)),
        so one stack may hold the supports of every engine of self's
        (space, n); self only supplies the norm.  No certificate machinery.
        Each support gets the exact Euclidean nearest point of its hull,
        and one polish in the true norm takes every support as a row, with
        60 sweeps when ``accurate`` and 8 otherwise.  The Euclidean
        minimizer can lie far from the true-norm one on kinked norms, so the
        nearest generator, the polished weights and uniform weights are
        evaluated in the true norm and the first strictly nearest kept.
        Every row gets the arithmetic of a support solved alone.  A row is
        settled when its polish stopped within the cap (a single generator
        always is): its weights and distance are then those of any larger
        cap, bit for bit, so an 8-sweep solve of a settled row stands for an
        ``accurate`` one.
        """
        C, K, D = gens.shape
        vd = self.nrm_sup((Z[:, None, :] - gens).reshape(C * K, D)).reshape(C, K)
        best_lam = np.zeros((C, K))
        best_lam[np.arange(C), np.argmin(vd, axis=1)] = 1.0
        best_val = np.min(vd, axis=1)
        if K == 1:
            return best_lam, best_val, np.ones(C, dtype=bool)
        uniform = np.full(K, 1.0 / K)
        u_val = self.nrm_sup(Z - np.matmul(uniform, gens))
        lams, settled = _polish_true_norm(self.amb, gens, Z, _euclid_surrogate(gens, Z),
                                          sweeps=60 if accurate else 8, dists=vd)
        p_val = self.nrm_sup(Z - (lams[:, None, :] @ gens)[:, 0])
        # after the vertex, the polished and then the uniform weights, each
        # kept only where strictly nearer
        nearer = p_val < best_val
        best_lam[nearer], best_val[nearer] = lams[nearer], p_val[nearer]
        nearer = u_val < best_val
        best_lam[nearer], best_val[nearer] = uniform, u_val[nearer]
        return best_lam, best_val, settled

    # -- parameter-dependent stage --------------------------------------

    def _is_member(self, params: CmParams) -> bool:
        return self.z_sup <= params.alpha and self.z_mean >= 1.0 - params.epsilon

    def _witness(self, c: float, key: Tuple[float, float], j: int):
        """Weights, generators and pulls of support j, pulled at key = (eps, alpha) on scale c."""
        pool, solutions = self._scaled[c]
        idxs = self.supports[j][1]
        sc = self._pull_cache[key][list(idxs)]
        lam_raw = solutions[idxs][0] / (1.0 - sc)
        lam = lam_raw / lam_raw.sum()
        gens = (1.0 - sc)[:, None] * pool[list(idxs)] + sc[:, None] * self.z
        keep = lam > 1e-15
        return lam[keep] / lam[keep].sum(), gens[keep], sc

    def value(self, params: CmParams) -> DistanceBracket:
        """The upper bound on d(z, C) at params: ``_best_upper`` on a batch of one."""
        return _best_upper([self], params)[1]


def _best_upper(engines: Sequence[_UpperEngine], params: CmParams) -> Tuple[int, DistanceBracket]:
    """The largest upper bound over engines of one (space, n): its engine's index and bracket.

    An engine's upper is 0 for a member z, else its first strictly smallest
    closed form over the supports of size at most m; the winner is the
    first strictly largest.  Every non-member engine's witness distance is
    checked against its closed form, all in one norm evaluation; only the
    winner's decomposition and bracket are built.
    """
    _prime_pulls(engines, params)
    key, c = (params.epsilon, params.alpha), _pool_scale(params.alpha)
    vals = np.zeros(len(engines))
    picks = {}  # engine index -> (support index, weights, generators, pulls)
    for i, e in enumerate(engines):
        if not e._is_member(params):
            closed = np.where(e._sizes <= params.m, e._closed[key], np.inf)
            j = int(np.argmin(closed))
            vals[i] = closed[j]
            picks[i] = (j,) + e._witness(c, key, j)
    if picks:
        actual = engines[0].nrm_sup(np.array(
            [engines[i].z - np.einsum("j,jd->d", w, g) for i, (_, w, g, _) in picks.items()]))
        for a, val in zip(actual, vals[list(picks)]):
            if abs(a - val) > 1e-9 * (1.0 + val):
                raise InternalInconsistencyError(
                    f"witness distance {a} drifted from closed form {val}")
    w = int(np.argmax(vals))
    e = engines[w]
    if w not in picks:
        dec = ConvexDecomposition(np.array([1.0]), [e.z.copy()])
        return w, DistanceBracket(0.0, 0.0, "trivial", "member-shortcut", witness=dec,
                                  meta={"support": "z"})
    j, weights, gens, sc = picks[w]
    method = "prototype-pull" if c == 1.0 else "prototype-pull-scaled"
    return w, DistanceBracket(
        0.0, float(vals[w]), "trivial", method, witness=ConvexDecomposition(weights, list(gens)),
        meta={"support": e.supports[j][0], "pulls": sc.tolist()},
    )


def _build_engines(
    space: Space, n: int, zs: Sequence, seed: int, budget: int
) -> List[_UpperEngine]:
    """The upper engines of the tuples zs for one (space, n, seed, budget), built together.

    Three stages, each one batch across the engines:

    * pools: the z-free units (canonical unit, norming section, their
      negatives, the seeded directions) are made once, each engine adds its
      block mean and its blocks with both signs, and every unit of the
      batch is scaled just inside the unit ball by one call of the norm
      plan's ``into_ball``, shrunk by 1 - 1e-13.  On a
      sup-decomposable space the partition overwrites of every engine are
      one array, from one norm evaluation of all blocks.  ``__init__``
      makes each engine's prototypes from these rows; the norms of every z
      and the prototype promise take one call each for the batch, of the
      fused block-mean and sup evaluator (``_mean_sup_evaluator``);
    * greedy: the chains grow in lock step (``_grow_chains``), which keeps
      chain-1 (the nearest vertex) and every chain support whose polish
      settled as solved at c = 1;
    * supports at c = 1: the partition supports and the chain supports
      whose polish hit the greedy cap, one accurate stack per support size
      (``_solve_scale``).
    """
    budget = max(1, int(budget))
    di, amb = dim(space), ambient_space(space, n)
    Z = np.stack([as_coords(amb, z) for z in zs])
    rng = np.random.default_rng(seed)
    shared = [canonical_unit(space), norming_section(space),
              -canonical_unit(space), -norming_section(space)]
    seeded = [rng.standard_normal(di) for _ in range(budget)]
    raw = []
    for z in Z:
        zb = z.reshape(n, di)
        raw += shared + [zb.mean(axis=0)] + [b for x in zb for b in (x, -x)] + seeded
    # strictly inside the ball; a zero block of z gives no unit
    U, keep = norm_plan(space).into_ball(np.stack(raw), shrink=1.0 - 1e-13)
    units = np.split(U, np.cumsum(keep.reshape(len(Z), -1).sum(axis=1))[:-1])
    # centralizer-style partition overwrites: every block of z clipped into
    # the ball, and for parts = 1, 2, ..., 16 each group of sup slots set to
    # its canonical units
    slots = sup_slots(space) or []
    groups = [group for parts in range(1, min(len(slots), 16) + 1)
              for group in np.array_split(np.arange(len(slots)), parts)]
    masks, fill = np.zeros((len(groups), 1, di), dtype=bool), np.zeros((len(groups), 1, di))
    for r, group in enumerate(groups):
        for s in group:
            off, sub = slots[s]
            masks[r, 0, off : off + dim(sub)] = True
            fill[r, 0, off : off + dim(sub)] = canonical_unit(sub)
    blocks = Z.reshape(-1, di)
    if slots:
        blocks = blocks / np.maximum(norm_evaluator(space)(blocks), 1.0)[:, None]
    overwrites = np.where(masks, fill, blocks.reshape(len(Z), 1, n, di))
    overwrites = overwrites.reshape(len(Z), len(masks), n * di)
    z_mean, z_sup = _mean_sup_evaluator(space, n)(Z)
    engines = [
        _UpperEngine(space, n, z, budget, np.concatenate([np.tile(u, (1, n)), o]), len(u),
                     float(sup), float(mean))
        for z, u, o, sup, mean in zip(Z, units, overwrites, z_sup, z_mean)
    ]
    # the pulls start every prototype inside the feasible set
    pools = np.concatenate([e.pool for e in engines])
    mean, sup = engines[0].nrm_mean_sup(pools)
    broken = (mean < 1.0 - 1e-9) | (sup > 1.0 + 1e-12)
    if np.any(broken):
        raise InternalInconsistencyError(
            f"prototypes {np.nonzero(broken)[0].tolist()} of the batch break the promise "
            "mean norm >= 1 - 1e-9, sup norm <= 1 + 1e-12"
        )
    _grow_chains(engines)
    _solve_scale(engines, 1.0)
    return engines


def _grow_chains(engines: Sequence[_UpperEngine]) -> None:
    """Each engine's nested greedy supports, the chains of a batch grown in lock step.

    A chain starts at the constant prototype nearest z and grows by the
    candidate (one of the 16 nearest) whose extended support lies nearest
    z, the first on a near tie, up to its cap or until a support reaches z.
    At step L every chain still growing has length L, so the extended
    supports of all engines form one stack of size L + 1.  An engine's
    supports are its chain prefixes and its partition families.  Chain-1
    and each chosen extension whose 8-sweep polish settled are recorded as
    solved at c = 1 (``_solve_support``), with the weights and distance
    already computed.
    """
    lead = engines[0]
    vertex_d = np.split(
        lead.nrm_sup(np.concatenate([e.z[None, :] - e.pool[: e._n_const] for e in engines])),
        np.cumsum([e._n_const for e in engines])[:-1])
    candidates = []
    for e, vd in zip(engines, vertex_d):
        candidates.append([int(j) for j in np.argsort(vd, kind="stable")[:16]])
        j = int(np.argmin(vd))
        e.chain = [j]
        e._scaled[1.0][1][(j,)] = (np.ones(1), float(vd[j]))  # chain-1 is the vertex
    caps = [min(e._n_const, max(4, min(12, e.budget + 4))) for e in engines]
    growing = [i for i, e in enumerate(engines) if len(e.chain) < caps[i]]
    while growing:
        steps = [(i, [j for j in candidates[i] if j not in engines[i].chain]) for i in growing]
        steps = [(i, js) for i, js in steps if js]
        if not steps:
            break
        gens = np.concatenate(
            [engines[i].pool[[engines[i].chain + [j] for j in js]] for i, js in steps])
        Z = np.concatenate([np.broadcast_to(engines[i].z, (len(js),) + lead.z.shape) for i, js in steps])
        lams, vals, settled = lead._solve_support(gens, Z, accurate=False)
        growing, at = [], 0
        for i, js in steps:
            e, best = engines[i], at
            for k in range(at + 1, at + len(js)):
                if vals[k] < vals[best] - 1e-12:
                    best = k
            e.chain.append(js[best - at])
            if settled[best]:  # the accurate solve of this chain support
                e._scaled[1.0][1][tuple(e.chain)] = (lams[best], float(vals[best]))
            at += len(js)
            if vals[best] > 1e-13 and len(e.chain) < caps[i]:
                growing.append(i)
    for e in engines:
        e.supports = [(f"chain-{L}", tuple(e.chain[:L])) for L in range(1, len(e.chain) + 1)]
        e.supports += [(f"partition-{parts}", tuple(idxs))
                       for parts, idxs in sorted(e.partition_supports.items())]
        e._sizes = np.array([len(idxs) for _, idxs in e.supports])


def _solve_scale(engines: Sequence[_UpperEngine], c: float) -> None:
    """Each engine's pool scaled by c and each support's (mu_C, d_C) on it, solved once per c.

    The distinct supports of every engine not yet solved at c are one
    accurate stack per support size, each row with its own engine's z.  At
    c = 1 that leaves the partition supports and the chain supports whose
    greedy polish hit its cap: ``_grow_chains`` keeps the others.
    """
    rows = []
    for e in engines:
        if c not in e._scaled:
            e._scaled[c] = (c * e.pool, {})
        pool, found = e._scaled[c]
        rows += [(e, pool, found, idxs) for idxs in dict.fromkeys(idxs for _, idxs in e.supports)
                 if idxs not in found]
    for K in sorted({len(row[3]) for row in rows}):
        group = [row for row in rows if len(row[3]) == K]
        lams, vals, _ = engines[0]._solve_support(
            np.stack([pool[list(idxs)] for _, pool, _, idxs in group]),
            np.stack([e.z for e, _, _, _ in group]), accurate=True)
        for (_, _, found, idxs), lam, v in zip(group, lams, vals):
            found[idxs] = (lam, float(v))


def _pool_scale(alpha: float) -> float:
    """The factor c on the prototype pool: below alpha = 1 it shrinks into the alpha ball."""
    return 1.0 if alpha >= 1.0 else alpha * (1.0 - 1e-12)


def _pull_rows(nrm_mean_sup, pool: np.ndarray, Z: np.ndarray, eps: float,
               alpha: float) -> np.ndarray:
    """Per row, the largest s found by bisection with (1 - s) pool + s Z feasible.

    Feasible means mean norm >= 1 - eps and sup norm <= alpha; both are
    convex constraints, so each row's feasible s form an interval from 0.
    Each bisection step reads both from one call of ``nrm_mean_sup`` (an
    engine's ``_mean_sup_evaluator``).  Every row is bisected on its own
    (Z is one row per row of pool, or one row for all), however many rows
    share the call.
    """
    lo, hi = np.zeros(len(pool)), np.ones(len(pool))
    for _ in range(60):
        mid = (lo + hi) / 2.0
        pts = (1.0 - mid)[:, None] * pool + mid[:, None] * Z
        mean, sup = nrm_mean_sup(pts)
        ok = (mean >= 1.0 - eps) & (sup <= alpha)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo


def _prime_pulls(engines: Sequence[_UpperEngine], params: CmParams) -> None:
    """Fill the pull and closed-form caches of engines of one (space, n), once per (eps, alpha).

    The rows of every non-member engine without pulls at (eps, alpha) are
    stacked with their own z and pulled by one bisection.  Below alpha = 1
    the engines' supports at the scaled pool are solved first, as one stack
    per support size across them (``_solve_scale``).  The closed forms
    d_C / Z of all their supports follow, one stack per size, whatever m.
    """
    key = (params.epsilon, params.alpha)
    c = _pool_scale(params.alpha)
    todo = [e for e in engines if not e._is_member(params) and key not in e._pull_cache]
    if not todo:
        return
    _solve_scale(todo, c)
    pools = [e._scaled[c][0] for e in todo]
    Z = np.concatenate([np.broadcast_to(e.z, pool.shape) for e, pool in zip(todo, pools)])
    s = _pull_rows(todo[0].nrm_mean_sup, np.concatenate(pools), Z, *key)
    by_size: Dict[int, list] = {}
    for e, pulls in zip(todo, np.split(s, np.cumsum([len(pool) for pool in pools])[:-1])):
        e._pull_cache[key], e._closed[key] = pulls, np.empty(len(e.supports))
        solutions = e._scaled[c][1]
        for j, (_, idxs) in enumerate(e.supports):
            mu, d = solutions[idxs]
            by_size.setdefault(len(idxs), []).append((e._closed[key], j, mu, d, pulls[list(idxs)]))
    for group in by_size.values():
        closed, js, mu, d, sc = zip(*group)
        vals = np.array(d) / (np.array(mu) / (1.0 - np.array(sc))).sum(axis=1)
        for out, j, val in zip(closed, js, vals):
            out[j] = val


def dist_to_cm_upper(
    space: Space, z, params: CmParams, budget: int = 8, seed: int = 0
) -> DistanceBracket:
    """Upper bound on d(z, C) from an explicit feasible decomposition.

    Deterministic for fixed seed; the value is nonincreasing under enlarging
    m, eps, or alpha (alpha >= 1), because the candidate enumeration is
    parameter-free and each candidate's closed-form value is monotone.
    The engine is built once per (space, n, z, seed, budget) and reused
    from a small LRU, since nothing it builds depends on (m, eps, alpha);
    every call still evaluates the engine (``_best_upper`` on a batch of
    one) with its drift check and validates the witness.
    """
    z = as_coords(ambient_space(space, params.n), z)
    engine = _engine(space, params.n, z.tobytes(), seed, max(1, int(budget)))
    bracket = engine.value(params)
    if bracket.witness is not None and not validate_decomposition(
        space, params, bracket.witness
    ):
        raise InternalInconsistencyError("upper-bound witness failed validation")
    return bracket


@functools.lru_cache(maxsize=16)
def _engine(space: Space, n: int, z_bytes: bytes, seed: int, budget: int) -> _UpperEngine:
    """The upper engine of one key, built as a batch of one.

    z travels as the bytes of its float64 coordinates.
    """
    return _build_engines(space, n, [np.frombuffer(z_bytes)], seed, budget)[0]


# ---------------------------------------------------------------------------
# certified grid oracle


def _axis_count(alpha: float, h: float) -> int:
    return 2 * math.ceil(alpha / h - 1e-12) + 1


def grid_guard_report(space: Space, params: CmParams, h: float) -> dict:
    D = dim(ambient_space(space, params.n))
    per_axis = _axis_count(params.alpha, h)
    total = per_axis**D
    target = GRID_GUARD ** (1.0 / D)
    h_req = 2.0 * params.alpha / max(target - 1.0, 1e-9)
    return {
        "dimension": D,
        "per_axis": per_axis,
        "grid_points": total,
        "guard": GRID_GUARD,
        "resolution": h,
        "required_resolution": h_req,
    }


def _grid_points(per_axis: int, h: float, D: int) -> np.ndarray:
    """The D-dimensional grid of step h, ``per_axis`` (``_axis_count``) points per axis."""
    axis = (np.arange(per_axis) - per_axis // 2) * h
    grids = np.meshgrid(*([axis] * D), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


# Qhull's output grows like K^(D/2) facets.  On the 24 candidates of an
# auto-grid profile at m >= 2, Qhull plus the vertex solves against the
# solves on every relaxed member: lp(2,2) n 2 (D = 4, 27,876 members, 200
# vertices) 168 ms against 1,476 ms, lp(3,4) (98,632 members) 489 against
# 1,116 ms; but in D = 5 lp(3,5) (81,774 members, 4,266 vertices) takes
# 8,152 against 1,676 ms and lp(1.5,5) 2,321 against 472 ms.  Above this
# dimension the m >= 2 lower side solves on every member.
_VERTEX_DIM_CAP = 4


@dataclass(frozen=True, eq=False)
class _GridMembers:
    """The strict and relaxed grid members of one (space, params, resolution).

    They come with the bracket ``meta`` and with what the grid's lower and
    upper sides ask of their hulls.  In the plane (D = 2): the strict
    set's hull edges (the extreme pair when Qhull refuses a degenerate
    set), and the relaxed set's hull edges and facet equations (None when
    Qhull refuses).  In 3 <= D <= ``_VERTEX_DIM_CAP``: the relaxed set's
    hull vertices, found on the first m >= 2 lower side that needs them
    (None when Qhull refuses or above the cap).
    """

    r_cov: float
    strict: np.ndarray
    relax: np.ndarray
    strict_edges: Optional[np.ndarray]
    relax_edges: Optional[np.ndarray]
    relax_equations: Optional[np.ndarray]
    meta: dict

    @functools.cached_property
    def relax_vertices(self) -> Optional[np.ndarray]:
        from scipy.spatial import ConvexHull, QhullError

        if self.relax.shape[1] > _VERTEX_DIM_CAP:
            return None
        try:
            return ConvexHull(self.relax).vertices
        except QhullError:
            return None


def _grid_members(space: Space, params: CmParams, resolution: float) -> _GridMembers:
    """The grid members at params, normed once, with their planar hulls.

    Checks a resolution in (0, inf) and the grid guard, then refuses a grid
    too coarse to have members.
    The covering radius r_cov is rounded up, so the relaxed set can only
    grow and the lower side only shrink.  Callers build one record and
    pass it to every ``_grid_lower`` (and ``_grid_upper``) they run.
    """
    if not 0.0 < resolution < INF:
        raise ParameterError(f"resolution must be positive and finite, got {resolution}")
    report = grid_guard_report(space, params, resolution)
    if report["grid_points"] > GRID_GUARD:
        raise CapabilityRefusal(
            f"grid of {report['grid_points']} points exceeds the guard "
            f"({GRID_GUARD}); need resolution >= {report['required_resolution']:.3g}",
            report=report,
        )
    from scipy.spatial import ConvexHull, QhullError

    D, alpha, eps = report["dimension"], params.alpha, params.epsilon
    mean_sup = _mean_sup_evaluator(space, params.n)
    pts = _grid_points(report["per_axis"], resolution, D)
    mean_vals, sup_vals = mean_sup(pts)
    r_cov = float(np.nextafter((resolution / 2.0) * float(mean_sup(np.ones((1, D)))[1][0]), INF))
    strict = pts[(sup_vals <= alpha) & (mean_vals > 1.0 - eps)]
    relax = pts[(sup_vals <= alpha + r_cov) & (mean_vals >= 1.0 - eps - r_cov)]
    meta = {
        "resolution": resolution,
        "covering_radius": r_cov,
        "covering_constant": r_cov / resolution,
        "grid_points": int(pts.shape[0]),
        "strict_members": int(strict.shape[0]),
        "relax_members": int(relax.shape[0]),
    }
    if strict.shape[0] == 0 or relax.shape[0] == 0:
        raise CapabilityRefusal(
            "grid too coarse: no members at this resolution", report={**report, **meta}
        )
    strict_edges = relax_edges = equations = None
    if D == 2:
        if strict.shape[0] >= 2:
            strict_edges = _hull_edges(strict)
        try:
            hull = ConvexHull(relax)
            relax_edges, equations = hull.simplices, hull.equations
        except QhullError:
            pass  # degenerate (collinear): the lower side solves on every member
    return _GridMembers(r_cov, strict, relax, strict_edges, relax_edges, equations, meta)


def _segment_scan(space: Space, z, A: np.ndarray, B: np.ndarray) -> Tuple[float, int, float]:
    """Min over segments [A_i, B_i] of the distance to z; returns (val, index, t)."""
    V = z[None, :] - A
    W = B - A
    hi = np.ones(A.shape[0])
    t, f = _batch_segment_min(space, V, W, hi)
    k = int(np.argmin(f))
    return float(f[k]), k, float(t[k])


def dist_to_cm_grid(space: Space, z, params: CmParams, resolution: float) -> DistanceBracket:
    """Two-sided certified bracket for d(z, C) from grid enumeration.

    Upper side: distance to explicit members on the grid (point scan, hull
    edges, near pairs), every one a genuine feasible decomposition
    (``_grid_upper``).  Lower side: members of the closure are within the
    covering radius of a grid point satisfying the relaxed constraints, so
    the distance to the relaxed grid hull minus the covering radius is a
    valid lower bound (``_grid_lower``).

    z's length is checked first; each call then builds its own member
    record (``_grid_members``), with its checks and refusals, and its own
    ``meta``.  The bracket is the same for every m >= 2: the upper side
    uses at most two grid members and the lower side the full relaxed hull.
    """
    amb = ambient_space(space, params.n)
    zz = as_coords(amb, z)
    members = _grid_members(space, params, resolution)
    upper, witness, upper_method = _grid_upper(amb, zz, members, params.m)
    lower, lower_method = _grid_lower(amb, zz, members, params.m)
    return DistanceBracket(
        min(lower, upper), upper, lower_method, upper_method, witness=witness, meta=members.meta
    )


def _grid_upper(amb: Space, z, members: _GridMembers, m: int) -> Tuple[float, ConvexDecomposition, str]:
    S = members.strict
    d_point = norm_evaluator(amb)(z[None, :] - S)
    j = int(np.argmin(d_point))
    best_val = float(d_point[j])
    best_dec = ConvexDecomposition(np.array([1.0]), [S[j].copy()])
    method = "grid-point-scan"
    if m >= 2 and S.shape[0] >= 2:
        edges = members.strict_edges
        if edges is not None and len(edges):
            val, k, t = _segment_scan(amb, z, S[edges[:, 0]], S[edges[:, 1]])
            if val < best_val:
                a, b = edges[k]
                best_val = val
                best_dec = ConvexDecomposition(
                    np.array([1.0 - t, t]), [S[a].copy(), S[b].copy()]
                )
                method = "grid-hull-edges"
        # near pairs mop up the case of z inside the hull but off co_2; the
        # pairs (i < j) of the 120 nearest, in itertools.combinations order
        order = np.argsort(d_point)[:120]
        a, b = (order[i] for i in np.triu_indices(order.shape[0], 1))
        if a.shape[0]:
            val, k, t = _segment_scan(amb, z, S[a], S[b])
            if val < best_val - 1e-15:
                best_val = val
                best_dec = ConvexDecomposition(
                    np.array([1.0 - t, t]), [S[a[k]].copy(), S[b[k]].copy()]
                )
                method = "grid-near-pairs"
    return best_val, best_dec, method


def _hull_edges(S: np.ndarray) -> np.ndarray:
    """The (E, 2) hull edges of a planar point set; the extreme pair when it is collinear."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        return ConvexHull(S).simplices
    except QhullError:
        # degenerate (collinear) point sets: use the extreme pair
        spread = S - S.mean(axis=0)
        _, _, vt = np.linalg.svd(spread, full_matrices=False)
        proj = spread @ vt[0]
        return np.array([[int(np.argmin(proj)), int(np.argmax(proj))]])


def _grid_lower(amb: Space, z, members: _GridMembers, m: int) -> Tuple[float, str]:
    """The covering lower side: d(z, relaxed hull) - r_cov, rounded down, and its method.

    m = 1 scans the relaxed points.  For m >= 2 in the plane, a nearest
    point of the full hull lies on a boundary edge whenever z is outside,
    so <= 2 generators suffice and the full-hull distance equals the m-fold
    one for every m >= 2: the record's hull edges give it.  Otherwise the
    hull distance is certified by a dual functional (``_dual_certificate``).
    """
    S = members.relax
    if m == 1:
        raw, method = float(np.min(norm_evaluator(amb)(z[None, :] - S))), "grid-point-scan"
    elif members.relax_edges is not None:
        if np.all(members.relax_equations @ np.append(z, 1.0) <= 1e-12):
            return 0.0, "grid-hull-inside"
        edges = members.relax_edges
        raw, _, _ = _segment_scan(amb, z, S[edges[:, 0]], S[edges[:, 1]])
        method = "grid-hull-exact"
    else:
        raw, method = _dual_certificate(amb, z, members), "grid-dual-certificate"
    return max(0.0, float(np.nextafter(raw - members.r_cov, -INF))), method


def _dual_certificate(amb: Space, z, members: _GridMembers) -> float:
    """A certified lower bound on d(z, co(relaxed members)).

    ``min_norm_point`` solves on the relaxed set's hull vertices, and its
    functional is then checked against every relaxed member in one matrix
    product (``_dual_lower``): the bound holds for the full set whatever
    points Qhull's facet merging dropped.  Without vertices it solves on
    every member.
    """
    S, V = members.relax, members.relax_vertices
    if V is None:
        return min_norm_point(amb, z, S, target_gap=1e-9).lower
    return _dual_lower(amb, z, S, min_norm_point(amb, z, S[V], target_gap=1e-9).functional)[0]
