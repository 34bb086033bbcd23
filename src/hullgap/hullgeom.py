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
    """Whether dec is a point of the m-fold hull: at most m generators, weights on the simplex
    (to 1e-12), and every generator in the set, its sup norm at most alpha and its block-mean
    norm above 1 - epsilon (both to ``STRICTNESS_TOL``), all from one evaluator call."""
    if len(dec.generators) > params.m:
        return False
    if np.any(dec.weights < -1e-12) or abs(float(dec.weights.sum()) - 1.0) > 1e-12:
        return False
    G = as_coord_rows(ambient_space(space, params.n), dec.generators)
    mean, sup = _mean_sup_evaluator(space, params.n)(G)
    return bool(np.all(sup <= params.alpha + STRICTNESS_TOL)
                and np.all(mean > 1.0 - params.epsilon - STRICTNESS_TOL))


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
    """Deterministic feasible-decomposition search for one (space, n, z, seed): row i of its batch.

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
    are solved once per c; monotonicity in alpha is stated for alpha >= 1
    only.  At c = 1, with the engine, each support is solved once: the
    greedy stage's solve of a chain support stands when its polish settled
    within the greedy cap, since an accurate solve gives the same bits, and
    only the rest are solved again.  The prototypes promise mean norm >=
    1 - 1e-9 and sup norm <= 1 + 1e-12; a broken promise raises
    ``InternalInconsistencyError``.

    So one engine answers every (m, eps, alpha) for its tuple: the pulls
    and the closed forms of all its supports are computed once per (eps,
    alpha), and m only filters the supports by size.  A pull is bisected
    once for every alpha of one eps and pool scale whose test sup <= alpha
    agrees at each point its bisection evaluated: the other alphas take its
    bits (``_prime_pulls``).

    An engine holds no arrays of its own: it is a view of row i of the
    ``_EngineBatch`` whose flat arrays hold every engine's pool, supports,
    solutions, pulls and closed forms.  ``_build_engines`` makes the batch
    and one view per tuple; ``dist_to_cm_upper`` keeps a batch of one per
    (space, n, z, seed, budget), and ``estimate_dk`` one batch of all its
    candidates for a whole profile, whose ``_best_upper`` is the largest
    upper over them.  Engines come out the same bit for bit in any batch.
    The batch holds no views, so a view keeps its batch alive and nothing
    keeps a view but its caller.
    """

    def __init__(self, batch: "_EngineBatch", i: int):
        self.batch, self.i = batch, i

    @property
    def z(self) -> np.ndarray:
        return self.batch.Z[self.i]

    def _solve_support(
        self, gens: np.ndarray, Z: np.ndarray, accurate: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hull weights (C, K), distances (C,) and settled rows (C,) of a stack (C, K, D) of supports.

        Row c is the support gens[c] with its own point Z[c] (Z is (C, D)),
        so one stack may hold the supports of every engine of the batch;
        self only supplies the norm.  No certificate machinery.
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
        nrm_sup = self.batch.nrm_sup
        C, K, D = gens.shape
        vd = nrm_sup((Z[:, None, :] - gens).reshape(C * K, D)).reshape(C, K)
        best_lam = np.zeros((C, K))
        best_lam[np.arange(C), np.argmin(vd, axis=1)] = 1.0
        best_val = np.min(vd, axis=1)
        if K == 1:
            return best_lam, best_val, np.ones(C, dtype=bool)
        uniform = np.full(K, 1.0 / K)
        u_val = nrm_sup(Z - np.matmul(uniform, gens))
        lams, settled = _polish_true_norm(self.batch.amb, gens, Z, _euclid_surrogate(gens, Z),
                                          sweeps=60 if accurate else 8, dists=vd)
        p_val = nrm_sup(Z - (lams[:, None, :] @ gens)[:, 0])
        # after the vertex, the polished and then the uniform weights, each
        # kept only where strictly nearer
        nearer = p_val < best_val
        best_lam[nearer], best_val[nearer] = lams[nearer], p_val[nearer]
        nearer = u_val < best_val
        best_lam[nearer], best_val[nearer] = uniform, u_val[nearer]
        return best_lam, best_val, settled

    # -- parameter-dependent stage --------------------------------------

    def _witness(self, c: float, key: Tuple[float, float], j: int):
        """Weights, generators and pulls of support column j, pulled at key = (eps, alpha) on scale c.

        The winner's witness only: a stack of exactly its support's size.
        """
        b, i = self.batch, self.i
        K = b.sizes[j]
        rows = b.start[i] + b.idx[i, j, :K]
        scale = b.scales[c]
        sc = b.pulls[key].pulls[rows]
        lam_raw = scale.mu[i, j, :K] / (1.0 - sc)
        lam = lam_raw / lam_raw.sum()
        gens = (1.0 - sc)[:, None] * scale.pool[rows] + sc[:, None] * b.Z[i]
        keep = lam > 1e-15
        return lam[keep] / lam[keep].sum(), gens[keep], sc

    def value(self, params: CmParams) -> DistanceBracket:
        """The upper bound on d(z, C) at params: ``_best_upper`` on this engine alone."""
        return _best_upper([self], params)[1]


@dataclass(eq=False)
class _Scale:
    """The pool scaled by c, and each support's hull weights mu (E, S, K) and distance d (E, S).

    ``solved`` (E, S) marks the supports done at c, and those an engine lacks.
    """

    pool: np.ndarray
    mu: np.ndarray
    d: np.ndarray
    solved: np.ndarray


@dataclass(eq=False)
class _Pulls:
    """Per (eps, alpha): which tuples are members (E,), the pull of every prototype (P,), the
    largest sup norm its bisection evaluated (P,), the closed form of every support (E, S),
    and which non-member engines still lack them (E,).

    ``sup`` decides which pulls another alpha of the same eps and pool scale
    may take as its own (``_prime_pulls``).
    """

    member: np.ndarray
    pulls: np.ndarray
    sup: np.ndarray
    closed: np.ndarray
    pending: np.ndarray


class _EngineBatch:
    """The upper engines of one (space, n, seed, budget), as flat arrays (E engines, P prototypes).

    * ``Z`` (E, D), ``z_mean`` and ``z_sup`` (E,): the tuples and their norms;
    * ``pool`` (P, D): the prototypes, engine after engine; engine i owns
      rows ``start[i]:start[i + 1]`` (``owner`` and ``local`` map a row to
      its engine and its index there), and its first ``n_const[i]`` rows
      are its constant prototypes;
    * the support table, S columns: column k - 1 is chain-k for k up to
      the longest chain L, then column L + k - 1 is partition-k;
      ``sizes`` (S,), ``names`` (S,), ``idx`` (E, S, K) the pool rows of
      each support, local to its engine and padded with 0, ``valid``
      (E, S) where an engine has the support, and ``repeat`` (E, S) where
      partition-k is the same support as chain-k (L is ``n_chain``);
    * ``groups``: per support size k, the (engine, column) pairs of that
      size and their global pool rows (N, k), made once per batch;
    * ``scales``: per scale c a ``_Scale``; ``pulls``: per (eps, alpha) a
      ``_Pulls``: NaN pulls and infinite closed forms where an engine has
      none (a member, an engine not primed, a support it lacks).
    """

    def __init__(self, space: Space, n: int, budget: int, Z: np.ndarray):
        self.n, self.budget, self.Z = n, budget, Z
        self.amb = ambient_space(space, n)
        self.nrm_sup = norm_evaluator(self.amb)
        self.nrm_mean_sup = _mean_sup_evaluator(space, n)
        self.z_mean, self.z_sup = self.nrm_mean_sup(Z)
        self.scales: Dict[float, _Scale] = {}
        self.pulls: Dict[Tuple[float, float], _Pulls] = {}

    def scale(self, c: float) -> _Scale:
        """The supports' solutions on the pool scaled by c (the pool itself at c = 1), made once."""
        if c not in self.scales:
            self.scales[c] = _Scale(self.pool if c == 1.0 else c * self.pool, np.zeros(self.idx.shape),
                                    np.zeros(self.valid.shape), ~self.valid)
        return self.scales[c]

    def members(self, params: CmParams) -> np.ndarray:
        """Which tuples lie in the set at params: their upper is 0 without pulls."""
        return (self.z_sup <= params.alpha) & (self.z_mean >= 1.0 - params.epsilon)

    def set_pool(self, tiled: np.ndarray, n_units: np.ndarray,
                 overwrites: np.ndarray) -> np.ndarray:
        """Set the flat pool from each engine's units and overwrites; return the overwrites' rows.

        Engine i's prototype rows are its n_units[i] rows of tiled (the units
        of every engine, engine after engine), then its overwrites[i]
        (E, R, D).  Rows equal to 12 digits within one engine (+ 0.0 makes
        -0.0 equal 0.0) are one prototype: one ``np.unique`` over (engine,
        rounded row) keys numbers them by first occurrence, as a dict of the
        keys' bytes would, and the pool keeps each number's first row.  Sets
        ``pool``, ``owner``, ``local`` (each pool row's index in its engine's
        pool), ``start`` and ``n_const`` (the distinct units of each engine,
        which come first); returns the local pool index of each overwrite,
        (E, R).
        """
        E, R = overwrites.shape[:2]
        counts = n_units + R
        owner = np.repeat(np.arange(E), counts)
        first = np.cumsum(counts) - counts
        is_unit = np.arange(len(owner)) - first[owner] < n_units[owner]
        protos = np.empty((len(owner), tiled.shape[1]))
        protos[is_unit], protos[~is_unit] = tiled, overwrites.reshape(E * R, tiled.shape[1])
        keys = np.concatenate([owner[:, None] + 0.0, np.round(protos, 12) + 0.0], axis=1)
        number, kept = _first_rows(keys)
        self.pool, self.owner = protos[kept], owner[kept]
        self.start = np.append(number[first], len(kept))
        local = number - self.start[owner]
        self.local = local[kept]
        self.n_const = np.maximum.reduceat(np.where(is_unit, local, -1), first) + 1
        return local[~is_unit].reshape(E, R)

    def tabulate(self, chain: np.ndarray, length: np.ndarray, over: np.ndarray, parts: int) -> None:
        """The support table, from the chains (E, L) of lengths ``length`` and the overwrites.

        The overwrites' pool rows (E, R) hold the family of each parts = 1,
        ..., ``parts`` in turn, parts rows each.
        """
        E, L = chain.shape
        self.length, self.n_chain = length, L
        self.sizes = np.concatenate([np.arange(1, L + 1), np.arange(1, parts + 1)])
        self.names = ([f"chain-{k}" for k in range(1, L + 1)]
                      + [f"partition-{k}" for k in range(1, parts + 1)])
        self.idx = np.zeros((E, L + parts, max(L, parts)), dtype=np.intp)
        self.idx[:, :L, :L] = chain[:, None, :] * np.tri(L, dtype=np.intp)
        self.valid = np.ones((E, L + parts), dtype=bool)
        self.valid[:, :L] = np.arange(L) < length[:, None]
        self.repeat = np.zeros_like(self.valid)
        if parts:
            for k in range(1, parts + 1):
                self.idx[:, L + k - 1, :k] = over[:, k * (k - 1) // 2 : k * (k + 1) // 2]
            # partition-k repeats chain-k where their (zero padded) index rows agree
            k = min(L, parts)
            same = (self.idx[:, :k] == self.idx[:, L : L + k]).all(axis=2)
            self.repeat[:, L : L + k] = self.valid[:, :k] & same
        # the supports grouped by size: slices of one stable sort by size
        e, j = np.nonzero(self.valid)
        order = np.argsort(self.sizes[j], kind="stable")
        e, j = e[order], j[order]
        g = self.start[e][:, None] + self.idx[e, j]
        ends = np.cumsum(np.bincount(self.sizes[j]))
        self.groups = [(k, e[a:b], j[a:b], g[a:b, :k])
                       for k, a, b in zip(range(1, len(ends)), ends[:-1], ends[1:]) if b > a]


def _first_rows(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of keys (compared as bytes) by first occurrence.

    Returns each row's number and each number's first row.
    """
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse], first[order]


def _best_upper(engines: Sequence[_UpperEngine], params: CmParams) -> Tuple[int, DistanceBracket]:
    """The largest upper bound over engines of one batch: its engine's index and bracket.

    An engine's upper is 0 for a member z, else its first strictly smallest
    closed form over the supports of size at most m, one masked argmin over
    the engines' rows of the (E, S) closed-form table; the winner is the
    first strictly largest, and only its decomposition is built, by its
    ``_witness``.  Every non-member engine's point is checked against its
    closed form, within 1e-9, by one norm evaluation: the winner's witness
    point, and the other engines' points from one gather of their chosen
    supports' weights and pulled generators (``_support_points``).
    """
    batch, rows = _rows(engines)
    primed = _prime_pulls(engines, params)
    key, c = (params.epsilon, params.alpha), _pool_scale(params.alpha)
    member = primed.member[rows]
    closed = np.where(batch.sizes <= params.m, primed.closed[rows], np.inf)
    pick = closed.argmin(axis=1)
    vals = np.where(member, 0.0, closed[np.arange(len(rows)), pick])
    w = int(np.argmax(vals))
    e = engines[w]
    # the checked engines and their points: the other non-members (none in
    # a batch of one) by one gather, then the winner by its witness
    others = np.flatnonzero(~member)
    others = others[others != w]
    at, points = [others], []
    if len(others):
        points.append(_support_points(batch, primed, c, rows[others], pick[others]))
    if member[w]:
        bracket = DistanceBracket(0.0, 0.0, "trivial", "member-shortcut", meta={"support": "z"},
                                  witness=ConvexDecomposition(np.array([1.0]), [e.z.copy()]))
    else:
        j = int(pick[w])
        weights, pulled, sc = e._witness(c, key, j)
        bracket = DistanceBracket(
            0.0, float(vals[w]), "trivial", "prototype-pull" if c == 1.0 else "prototype-pull-scaled",
            witness=ConvexDecomposition(weights, list(pulled)),
            meta={"support": batch.names[j], "pulls": sc.tolist()})
        at.append([w])
        points.append(np.einsum("j,jd->d", weights, pulled)[None])
    if points:
        at = np.concatenate(at)
        val = vals[at]
        actual = batch.nrm_sup(batch.Z[rows[at]] - np.concatenate(points))
        drift = np.abs(actual - val) > 1e-9 * (1.0 + val)
        if drift.any():
            raise InternalInconsistencyError(
                f"witness distance {actual[drift][0]} drifted from closed form {val[drift][0]}")
    return w, bracket


def _support_points(batch: "_EngineBatch", primed: _Pulls, c: float, i: np.ndarray,
                    j: np.ndarray) -> np.ndarray:
    """The points of engines i's supports j, pulled at primed on scale c: one gather, (N, D).

    The supports are padded to the widest with zero weights, so these
    points are for the drift check's 1e-9 comparison only.
    """
    scale = batch.scales[c]
    g = batch.start[i][:, None] + batch.idx[i, j]
    sc = primed.pulls[g]
    lam = scale.mu[i, j] / (1.0 - sc)
    gens = (1.0 - sc)[:, :, None] * scale.pool[g] + sc[:, :, None] * batch.Z[i][:, None, :]
    return np.einsum("ck,ckd->cd", lam, gens) / lam.sum(axis=1)[:, None]


def _build_engines(
    space: Space, n: int, zs: Sequence, seed: int, budget: int
) -> List[_UpperEngine]:
    """The upper engines of the tuples zs for one (space, n, seed, budget): the views of one batch.

    Three stages, each a fixed number of array calls for the whole batch:

    * pools: the z-free units (canonical unit, norming section, their
      negatives, the seeded directions) are made once, each engine adds its
      block mean and its blocks with both signs, and every unit of the
      batch is scaled just inside the unit ball by one call of the norm
      plan's ``into_ball``, shrunk by 1 - 1e-13.  On a sup-decomposable
      space the partition overwrites of every engine are one array, from
      one norm evaluation of all blocks.  Each engine's prototypes are its
      units tiled over the n blocks, then its overwrites; one ``np.unique``
      over (engine, row rounded to 12 digits) keys keeps one prototype per
      distinct row of an engine, numbered by first occurrence
      (``_first_rows``), into the flat pool.  The norms of every z and the
      prototype promise take one call each of the fused block-mean and sup
      evaluator (``_mean_sup_evaluator``);
    * greedy: the chains grow in lock step (``_grow_chains``), which keeps
      chain-1 (the nearest vertex) and every chain support whose polish
      settled as solved at c = 1; the support table follows
      (``_EngineBatch.tabulate``);
    * supports at c = 1: the partition supports and the chain supports
      whose polish hit the greedy cap, one accurate stack per support size
      (``_solve_scale``).

    ``_UpperEngine.__init__`` runs once per tuple and makes its view.
    """
    budget = max(1, int(budget))
    di, amb = dim(space), ambient_space(space, n)
    batch = _EngineBatch(space, n, budget, as_coord_rows(amb, zs).copy())
    E = len(batch.Z)
    # per engine: the shared units, the block mean, each block then its
    # negative, the seeded directions
    zb, unit, section = batch.Z.reshape(E, n, di), canonical_unit(space), norming_section(space)
    raw = np.empty((E, 5 + 2 * n + budget, di))
    raw[:, 0], raw[:, 1], raw[:, 2], raw[:, 3] = unit, section, -unit, -section
    raw[:, 4] = zb.mean(axis=1)
    raw[:, 5 : 5 + 2 * n : 2], raw[:, 6 : 6 + 2 * n : 2] = zb, -zb
    raw[:, 5 + 2 * n :] = np.random.default_rng(seed).standard_normal((budget, di))
    # strictly inside the ball; a zero block of z gives no unit
    units, keep = norm_plan(space).into_ball(raw.reshape(-1, di), shrink=1.0 - 1e-13)
    n_units = keep.reshape(E, -1).sum(axis=1)
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
    blocks = batch.Z.reshape(-1, di)
    if slots:
        blocks = blocks / np.maximum(norm_evaluator(space)(blocks), 1.0)[:, None]
    overwrites = np.where(masks, fill, blocks.reshape(E, 1, n, di))
    over = batch.set_pool(np.tile(units, (1, n)), n_units,
                          overwrites.reshape(E, len(masks), n * di))
    mean, sup = batch.nrm_mean_sup(batch.pool)
    broken = (mean < 1.0 - 1e-9) | (sup > 1.0 + 1e-12)
    if np.any(broken):
        raise InternalInconsistencyError(
            f"prototypes {np.nonzero(broken)[0].tolist()} of the batch break the promise "
            "mean norm >= 1 - 1e-9, sup norm <= 1 + 1e-12"
        )
    engines = [_UpperEngine(batch, i) for i in range(E)]
    _grow_chains(engines[0], over, min(len(slots), 16))
    _solve_scale(engines[0], np.ones(E, dtype=bool), 1.0)
    return engines


def _tie_scan(V: np.ndarray) -> np.ndarray:
    """Per row of V, the column a left-to-right scan keeps.

    The scan keeps the first finite entry, then each entry more than 1e-12
    below the one it keeps.  No entry before a kept one lies more than
    1e-12 below it, so the next one kept is the first entry anywhere that
    does: the scan jumps from kept entry to kept entry, all rows at once,
    one array step per jump.
    """
    rows = np.arange(len(V))
    at = np.isfinite(V).argmax(axis=1)
    while True:
        later = V < V[rows, at][:, None] - 1e-12
        jump = later.any(axis=1)
        if not jump.any():
            return at
        at = np.where(jump, later.argmax(axis=1), at)


def _grow_chains(lead: _UpperEngine, over: np.ndarray, parts: int) -> None:
    """Each engine's nested greedy supports, the chains of a batch grown in lock step.

    A chain starts at the constant prototype nearest z and grows by the
    candidate (one of the 16 nearest, an (E, 16) table from one stable
    argsort) whose extended support lies nearest z, the first on a near tie
    (``_tie_scan``), up to its cap or until a support reaches z.  At step L
    every chain still growing has length L, so the extended supports of all
    engines form one stack of size L + 1.  An engine's supports are its
    chain prefixes and its partition families, tabulated at the end.
    Chain-1 and each chosen extension whose 8-sweep polish settled are
    recorded as solved at c = 1 (``_solve_support``), with the weights and
    distance already computed.  lead is any engine of the batch: the stacks
    are solved by its ``_solve_support``, the one solver of every stage.
    """
    batch = lead.batch
    E, start, n_const, owner = len(batch.Z), batch.start, batch.n_const, batch.owner
    const = batch.local < n_const[owner]
    vd = np.full((E, int(n_const.max())), np.inf)
    vd[owner[const], batch.local[const]] = batch.nrm_sup(batch.Z[owner[const]] - batch.pool[const])
    candidates = np.argsort(vd, axis=1, kind="stable")[:, :16]
    W = candidates.shape[1]
    open_ = np.arange(W) < n_const[:, None]  # a candidate not yet in the chain
    open_[:, 0] = False
    caps = np.minimum(n_const, max(4, min(12, batch.budget + 4)))
    cap = int(caps.max())
    chain, length = np.zeros((E, cap), dtype=np.intp), np.ones(E, dtype=np.intp)
    mu, d, solved = np.zeros((E, cap, cap)), np.zeros((E, cap)), np.zeros((E, cap), dtype=bool)
    chain[:, 0] = candidates[:, 0]
    # chain-1 is the vertex
    mu[:, 0, 0], d[:, 0], solved[:, 0] = 1.0, vd[np.arange(E), chain[:, 0]], True
    growing = np.nonzero((length < caps) & open_.any(axis=1))[0]
    L = 1
    while len(growing):
        g, k = np.nonzero(open_[growing])
        e = growing[g]
        idx = np.concatenate([chain[e, :L], candidates[e, k][:, None]], axis=1)
        lams, vals, settled = lead._solve_support(
            batch.pool[start[e][:, None] + idx], batch.Z[e], accurate=False)
        table, at = np.full((len(growing), W), np.inf), np.zeros((len(growing), W), dtype=np.intp)
        table[g, k], at[g, k] = vals, np.arange(len(e))
        best = _tie_scan(table)
        r = at[np.arange(len(growing)), best]
        chain[growing, L] = candidates[growing, best]
        open_[growing, best] = False
        # a settled polish is the accurate solve of this chain support
        mu[growing, L, : L + 1], d[growing, L], solved[growing, L] = lams[r], vals[r], settled[r]
        length[growing] = L + 1
        L += 1
        growing = growing[(vals[r] > 1e-13) & (L < caps[growing]) & open_[growing].any(axis=1)]
    L = int(length.max())
    batch.tabulate(chain[:, :L], length, over, parts)
    scale = batch.scale(1.0)
    scale.mu[:, :L, :L], scale.d[:, :L] = mu[:, :L, :L], d[:, :L]
    scale.solved[:, :L] |= solved[:, :L]


def _solve_scale(lead: _UpperEngine, todo: np.ndarray, c: float) -> None:
    """The pool scaled by c and each support's (mu_C, d_C) on it, once per c, for the engines todo.

    todo is an (E,) mask; lead is any engine of the batch, whose
    ``_solve_support`` solves the stacks.  The supports of those engines
    not yet solved at c are one accurate stack per support size, each row
    with its own engine's z; a partition
    support that repeats its size's chain support takes that solution.  At
    c = 1 that leaves the partition supports and the chain supports whose
    greedy polish hit its cap: ``_grow_chains`` keeps the others.
    """
    batch = lead.batch
    scale = batch.scale(c)
    need = ~scale.solved & todo[:, None]
    if not need.any():
        return
    own = need & ~batch.repeat
    for K in sorted(set(batch.sizes[own.any(axis=0)].tolist())):
        e, j = np.nonzero(own & (batch.sizes == K))
        lams, vals, _ = lead._solve_support(
            scale.pool[batch.start[e][:, None] + batch.idx[e, j, :K]], batch.Z[e], accurate=True)
        scale.mu[e, j, :K], scale.d[e, j] = lams, vals
    # partition-k takes the solution of chain-k, L columns to its left
    e, j = np.nonzero(need & batch.repeat)
    t = j - batch.n_chain
    scale.mu[e, j], scale.d[e, j] = scale.mu[e, t], scale.d[e, t]
    scale.solved |= need


def _pool_scale(alpha: float) -> float:
    """The factor c on the prototype pool: below alpha = 1 it shrinks into the alpha ball."""
    return 1.0 if alpha >= 1.0 else alpha * (1.0 - 1e-12)


def _pull_rows(nrm_mean_sup, pool: np.ndarray, Z: np.ndarray, eps: float,
               alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the largest s found by bisection with (1 - s) pool + s Z feasible, and the
    largest sup norm the bisection evaluated.

    Feasible means mean norm >= 1 - eps and sup norm <= alpha; both are
    convex constraints, so each row's feasible s form an interval from 0.
    Each bisection step reads both from one call of ``nrm_mean_sup`` (a
    batch's ``_mean_sup_evaluator``).  Every row is bisected on its own
    (Z is one row per row of pool, or one row for all), however many rows
    share the call.

    The bisection runs 60 steps, or stops earlier at its fixed point: once
    every row's midpoint equals its lo or its hi, each further step would
    evaluate that point again and take the same branch (an hi of 1 is Z
    itself, a non-member wherever a row is pulled), so the bits are those
    of all 60 steps.  The interval after t steps is 2^-t wide with dyadic
    ends, so no midpoint rounds onto an end before step 54.

    Each row's largest evaluated sup norm tells ``_prime_pulls`` at which
    other alphas its bisection takes the same branches.
    """
    lo, hi = np.zeros(len(pool)), np.ones(len(pool))
    top = np.full(len(pool), -INF)
    for step in range(60):
        mid = (lo + hi) / 2.0
        if step >= 53 and np.all((mid == lo) | (mid == hi)):
            break
        pts = (1.0 - mid)[:, None] * pool + mid[:, None] * Z
        mean, sup = nrm_mean_sup(pts)
        top = np.maximum(top, sup)
        ok = (mean >= 1.0 - eps) & (sup <= alpha)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo, top


def _rows(engines: Sequence[_UpperEngine]) -> Tuple[_EngineBatch, np.ndarray]:
    """The batch of engines and their rows in it; the engines must be views of one batch."""
    batch = engines[0].batch
    if any(e.batch is not batch for e in engines):
        raise ValueError("the engines are views of more than one batch")
    return batch, np.fromiter((e.i for e in engines), np.intp, len(engines))


def _prime_pulls(engines: Sequence[_UpperEngine], params: CmParams) -> _Pulls:
    """Fill the pulls and closed forms of engines of one batch, once per (eps, alpha); return them.

    The prototypes of every non-member engine without pulls at
    (eps, alpha) are pulled toward their own z.  Below alpha = 1 the
    engines' supports at the scaled pool are solved first, as one stack
    per support size (``_solve_scale``).

    A row's bisection reads alpha only through sup <= alpha at the points
    it evaluates, so a row already bisected at (eps, a0) on the same pool
    scale c took every branch it would take at alpha when each of those
    points has sup norm at most min(a0, alpha): it is taken from there, bit
    for bit.  Every alpha >= 1 has c = 1; each alpha below 1 its own c, so
    those never share.  The remaining rows are one bisection; rows are
    independent in the evaluator, so any subset gets the same bits.

    The closed forms d_C / Z of all the engines' supports follow, whatever
    m: per support size k, the batch's index matrices of that size
    (``groups``) gather one (N, k) stack of weights and pulls, whose row
    sums have exactly k terms, and the forms scatter into the (E, S) table.
    """
    batch, rows = _rows(engines)
    key = (params.epsilon, params.alpha)
    primed = batch.pulls.get(key)
    if primed is None:
        member = batch.members(params)
        primed = batch.pulls[key] = _Pulls(member, np.full(len(batch.pool), np.nan),
                                           np.full(len(batch.pool), np.nan),
                                           np.full(batch.valid.shape, np.inf), ~member)
    if not primed.pending[rows].any():
        return primed
    todo = np.zeros(len(batch.Z), dtype=bool)
    todo[rows] = primed.pending[rows]
    c = _pool_scale(params.alpha)
    _solve_scale(engines[0], todo, c)
    scale = batch.scales[c]
    pulled = todo[batch.owner]
    for (eps, a0), other in batch.pulls.items():
        if eps == params.epsilon and a0 != params.alpha and _pool_scale(a0) == c:
            # NaN (a row not bisected there) compares False
            same = pulled & (other.sup <= min(a0, params.alpha))
            primed.pulls[same], primed.sup[same] = other.pulls[same], other.sup[same]
            pulled &= ~same
    if pulled.any():
        primed.pulls[pulled], primed.sup[pulled] = _pull_rows(
            batch.nrm_mean_sup, scale.pool[pulled], batch.Z[batch.owner[pulled]], *key)
    for K, e, j, g in batch.groups:
        e, j, g = e[todo[e]], j[todo[e]], g[todo[e]]
        total = (scale.mu[e, j, :K] / (1.0 - primed.pulls[g])).sum(axis=1)
        primed.closed[e, j] = scale.d[e, j] / total
    primed.pending &= ~todo
    return primed


def dist_to_cm_upper(
    space: Space, z, params: CmParams, budget: int = 8, seed: int = 0
) -> DistanceBracket:
    """Upper bound on d(z, C) from an explicit feasible decomposition.

    Deterministic for fixed seed; the value is nonincreasing under enlarging
    m, eps, or alpha (alpha >= 1), because the candidate enumeration is
    parameter-free and each candidate's closed-form value is monotone.
    The engine is built once per (space, n, z, seed, budget), as a batch of
    one, and reused from a small LRU, since nothing it builds depends on
    (m, eps, alpha); every call still evaluates the engine (``value``) with
    its drift check and validates the witness.
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
