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
  SLSQP refinement on each side;
* ``dist_to_cm_upper`` -- a deterministic feasible-decomposition search whose
  reported value is monotone in m, eps and alpha by construction; its hull
  weights are polished by one segment line search on every norm, tangent
  cuts on the norm plan's one-sided slopes;
* ``dist_to_cm_grid`` -- an enumeration oracle producing two-sided brackets
  whose lower side is backed by a covering-radius argument.

Strictness: the "> 1 - eps" constraint is checked as "> 1 - eps - tol" with
a declared tolerance (default 1e-9), i.e. all distances are reported about
the closure of the constraint set; the infimum is the same.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapabilityRefusal, InternalInconsistencyError, ParameterError
from .spaces import (
    INF,
    LpFinite,
    Space,
    SupTuple,
    as_coord_rows,
    as_coords,
    canonical_unit,
    dim,
    mean_block,
    norm,
    norming_section,
    parts,
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
    tuples, no combination.
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
        if not (self.alpha > 0.0):
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if int(self.m) != self.m or self.m < 1:
            raise ParameterError(f"m must be a positive integer, got {self.m}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "alpha", float(self.alpha))

    def with_m(self, m: int) -> "CmParams":
        return CmParams(self.n, self.epsilon, self.alpha, m)

    def eps_plus(self) -> "CmParams":
        return CmParams(self.n, self.epsilon, 1.0 + self.epsilon, self.m)


def require_nonempty(params: CmParams) -> None:
    # every member's mean norm is at most its sup norm, hence at most alpha
    if params.alpha <= 1.0 - params.epsilon:
        raise ParameterError(
            f"constraint set is empty: alpha={params.alpha} <= 1 - epsilon="
            f"{1.0 - params.epsilon}"
        )


def ambient_space(space: Space, n: int) -> SupTuple:
    return SupTuple(n, space)


@dataclass(frozen=True)
class MemberReport:
    sup_norm: float
    mean_norm: float
    sup_ok: bool
    mean_ok: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.sup_ok and self.mean_ok


def cm_member_check(space: Space, params: CmParams, g, tol: float = STRICTNESS_TOL) -> MemberReport:
    """Check the two membership constraints, reporting both computed values."""
    amb = ambient_space(space, params.n)
    x = as_coords(amb, g)
    sup = norm(amb, x)
    mean = norm(space, mean_block(amb, x))
    return MemberReport(
        sup_norm=sup,
        mean_norm=mean,
        sup_ok=sup <= params.alpha + tol,
        mean_ok=mean > 1.0 - params.epsilon - tol,
        tol=tol,
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

    def point(self) -> np.ndarray:
        return np.einsum("j,jd->d", self.weights, np.stack(self.generators))

    def to_jsonable(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "generators": [g.tolist() for g in self.generators],
        }


def validate_decomposition(
    space: Space, params: CmParams, dec: ConvexDecomposition, tol: float = STRICTNESS_TOL
) -> bool:
    if len(dec.generators) > params.m:
        return False
    if np.any(dec.weights < -1e-12) or abs(float(dec.weights.sum()) - 1.0) > 1e-12:
        return False
    return all(cm_member_check(space, params, g, tol).passed for g in dec.generators)


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
# vectorized norm machinery


@dataclass(frozen=True, eq=False)
class NormPlan:
    """A space compiled once for batch work on (T, dim) arrays.

    One node is the l_p combination of |x_c| over its own coordinates
    ``cols`` and of its child nodes' norms.  Same-p nests are flattened on
    compiling: a max of maxes is one max over the union of their
    coordinates, a sum of sums one sum, so ``sup(n, lp(inf,d))`` is a single
    ``np.max(np.abs(X), axis=1)``.  A one-coordinate atom is |x| for every
    p and joins its parent's combination.

    The dual plan (``dual_plan``) has the same nodes and columns with the
    conjugate exponent at each node, since the dual of an l_p combination
    is the l_q combination of the parts' duals.  Everything the hull solver
    needs of a space comes from these nodes: the norm and the dual norm
    (``evaluate``), the one-sided slopes (``probe``), the norming
    functionals (``norming``) and the LP/NLP rows of ``_NormEpigraph``.

    ``evaluate`` and ``probe`` run the kids by ``groups``: sibling kids
    that are one node at different column offsets (the n blocks of
    ``sup(n, X)``, the fibers of a module) are one call of that node on
    the gathered (T r, w) rows (``_KidGroup``).  The node's terms, its own
    coordinates first and then its kids in kid order, fill one C-ordered
    (K, T) stack, as the kids alone would, so each term gets the
    operations it gets alone and grouping moves no value.  ``norming`` and
    ``_NormEpigraph`` walk ``kids``.

    ``polyhedral`` holds when every node has p in {1, inf}: the norm is then
    a max of finitely many linear functionals, the hull problem is one LP,
    and t -> ||V - tW|| is piecewise linear with at most ``pieces`` pieces,
    so the segment line search, which runs on ``probe`` for every plan, is
    exact.
    """

    p: float
    cols: object  # None, a slice, or an index array when they are not contiguous
    kids: Tuple["NormPlan", ...]
    polyhedral: bool
    pieces: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    groups: Tuple["_KidGroup", ...] = ()

    def probe(self, R: np.ndarray, W: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, left and right slope of s -> norm(R - sW) at s = 0, per row.

        The value is computed by the same operations in the same order as
        ``evaluate(R)``, so it equals it bit for bit.  |r_c| has slope
        -sign(r_c) w_c, or -+|w_c| where r_c = 0; a max takes the extreme
        slopes over its active terms, a sum the sums, and any other l_p
        node the chain rule (``_lp_slopes``).
        """
        terms = []
        if self.cols is not None:
            r, w = R[:, self.cols], W[:, self.cols]
            a, aw = np.abs(r), np.abs(w)
            slope = -np.sign(r) * w
            kink = r == 0.0
            left = np.where(kink, -aw, slope)
            right = np.where(kink, aw, slope)
            if self.p == INF:
                f = np.max(a, axis=1)
                act = a == f[:, None]
                terms.append((f, np.where(act, left, INF).min(axis=1),
                              np.where(act, right, -INF).max(axis=1)))
            elif self.p == 1.0:
                terms.append((np.sum(a, axis=1), left.sum(axis=1), right.sum(axis=1)))
            else:
                f = _lp_norm(self.p, r)
                terms.append((f,) + _lp_slopes(self.p, f, a.T, left.T, right.T))
        if not self.groups:
            return terms[0]
        # value, left and right slope of each term, one C-ordered (K, T) stack each
        T = R.shape[0]
        fs, lefts, rights = stack = np.empty((3, len(terms) + len(self.kids), T))
        for out, v in zip(stack, terms[0] if terms else ()):
            out[0] = v
        for g in self.groups:
            for out, v in zip(stack, g.plan.probe(g.rows(R), g.rows(W))):
                out[g.at] = g.split(v, T)
        if self.p == INF:
            f = functools.reduce(np.maximum, fs)
            act = fs == f[None, :]
            return f, np.where(act, lefts, INF).min(axis=0), np.where(act, rights, -INF).max(axis=0)
        if self.p == 1.0:
            return functools.reduce(np.add, fs), lefts.sum(axis=0), rights.sum(axis=0)
        f = _lp_combine(self.p, fs)
        return (f,) + _lp_slopes(self.p, f, fs, lefts, rights)

    def norming(self, v: np.ndarray) -> List[Tuple[float, np.ndarray]]:
        """Norming candidates at v: pairs (x @ v, x), best-attaining first.

        Each x lies in the conjugate unit ball (up to rounding), and its
        value x @ v attains this node's norm of v or nearly does: a term
        within a fraction ``_NEAR_TIE`` of the max, or a coordinate that
        close to 0 under a sum, counts as a tie.  A max takes the union over
        its nearly attaining terms; any other combiner the product over its
        terms, each child scaled by its dual l_q coefficient and cut to its
        six best candidates.  The candidates of the dual plan at a
        functional lie in the primal unit ball.
        """
        nv = float(self.evaluate(v[None, :])[0])
        if not nv > 0.0:
            return []
        own = [] if self.cols is None else _own_norming(
            self.p, np.arange(v.shape[0])[self.cols], v, nv)
        if self.p == INF:
            cands = own + [
                x for kid in self.kids
                if kid.evaluate(v[None, :])[0] >= (1.0 - _NEAR_TIE) * nv
                for _, x in kid.norming(v)
            ]
        else:
            factors = [[x for _, x in _ranked(own, v)]] if own else []
            for kid in self.kids:
                c = (float(kid.evaluate(v[None, :])[0]) / nv) ** (self.p - 1.0)
                factors.append([c * x for _, x in kid.norming(v)] or [np.zeros(v.shape[0])])
            cands = factors[0] if len(factors) == 1 else [
                functools.reduce(np.add, combo)
                for combo in itertools.product(*(f[:6] for f in factors))
            ]
        return _ranked(cands, v)


@dataclass(frozen=True, eq=False)
class _KidGroup:
    """r sibling kids that are one node at r column offsets, run as one call.

    ``plan`` is that node on the columns 0..w-1 of one copy, and row k of
    ``idx`` (r, w) holds copy k's columns of the parent's rows; ``at``
    holds the copies' places among the parent's terms.  A group of one is
    the kid itself on the parent's rows, with ``idx`` None.
    """

    plan: NormPlan
    idx: Optional[np.ndarray]
    at: object  # a slice, or an index array when the places are not contiguous

    def rows(self, X: np.ndarray) -> np.ndarray:
        """The (T r, w) rows of the copies: row t r + k is copy k of row t of X."""
        return X if self.idx is None else X[:, self.idx].reshape(-1, self.idx.shape[1])

    @staticmethod
    def split(v: np.ndarray, T: int) -> np.ndarray:
        """Values (..., T r) over ``rows`` as (..., r, T): r term rows, copy by copy."""
        return v.reshape(v.shape[:-1] + (T, -1)).swapaxes(-1, -2)


_NEAR_TIE = 1e-3


def _ranked(cands: List[np.ndarray], v: np.ndarray) -> List[Tuple[float, np.ndarray]]:
    """(x @ v, x) for each candidate, largest value first, ties in given order."""
    return sorted(((float(x @ v), x) for x in cands), key=lambda e: -e[0])


def _own_norming(p: float, idx: np.ndarray, v: np.ndarray, nv: float) -> List[np.ndarray]:
    """A node's norming factor on its own coordinates idx, as full-length vectors.

    Under a max, the signed unit vector of each coordinate that nearly
    attains nv; under a sum, the sign pattern, with both signs on up to four
    coordinates that are nearly 0 (or single flips on the first eight of
    more); under any other p, the gradient sign(v_c) (|v_c| / nv)^(p - 1).
    """
    a, sign = np.abs(v[idx]), np.sign(v[idx])
    base = np.zeros(v.shape[0])
    if p == INF:
        hit = a >= (1.0 - _NEAR_TIE) * nv
        return list(np.eye(v.shape[0])[idx[hit]] * sign[hit][:, None])
    base[idx] = sign if p == 1.0 else sign * (a / nv) ** (p - 1.0)
    free = idx[a <= _NEAR_TIE * nv] if p == 1.0 else idx[:0]
    if free.shape[0] <= 4:
        X = np.tile(base, (2 ** free.shape[0], 1))
        X[:, free] = list(itertools.product((-1.0, 1.0), repeat=free.shape[0]))
        return list(X)
    k = np.arange(min(free.shape[0], 8))
    X = np.tile(base, (1 + 2 * k.shape[0], 1))
    X[1 + 2 * k, free[k]], X[2 + 2 * k, free[k]] = -1.0, 1.0
    return list(X)


def _lp_norm(p: float, r: np.ndarray) -> np.ndarray:
    """The l_p norm of each row of r, for 1 < p < inf."""
    if p == 2.0:  # the root of 0.5 is np.sqrt, bit for bit
        return _lp_root(2.0, np.einsum("td,td->t", r, r), r.T)
    a = np.abs(r)
    with np.errstate(over="ignore", under="ignore"):  # _lp_root redoes those rows
        total = np.add.reduce(a ** p, axis=1)
    return _lp_root(p, total, a.T)


def _lp_combine(p: float, fs) -> np.ndarray:
    """The l_p combination (1 < p < inf) of the terms fs, one row of T values each."""
    with np.errstate(over="ignore", under="ignore"):  # _lp_root redoes those rows
        total = functools.reduce(np.add, [fk ** p for fk in fs])
    return _lp_root(p, total, fs)


# below this a sum of p-th powers may have lost digits to subnormal terms
_LP_SAFE = np.finfo(float).tiny * 2.0 ** 53


def _lp_root(p: float, total: np.ndarray, terms) -> np.ndarray:
    """total ** (1/p), where total sums the p-th powers of |terms|, column by column.

    The powers leave the float range at moderate scales for large p,
    (4e-4) ** 100 is 0 and (2e10) ** 30 is inf, and at the ends of it for
    p = 2: (1e-200) ** 2 is 0.  Entries of total below ``_LP_SAFE`` or not
    finite are redone scaled by their largest term; every other entry keeps
    the plain root.
    """
    f = total ** (1.0 / p)
    if np.minimum.reduce(total, initial=INF) >= _LP_SAFE and np.maximum.reduce(total, initial=0.0) < INF:
        return f
    bad = np.flatnonzero(~((total >= _LP_SAFE) & (total < INF)))
    a = np.abs(np.asarray(terms)[:, bad])
    top = a.max(axis=0)
    keep = (top > 0.0) & (top < INF)
    bad, a, top = bad[keep], a[:, keep], top[keep]
    f[bad] = top * np.sum((a / top) ** p, axis=0) ** (1.0 / p)
    return f


def _lp_slopes(p: float, f: np.ndarray, fs: np.ndarray, lefts: np.ndarray,
               rights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Left and right slopes of f, the l_p combination (1 < p < inf) of terms.

    Term k is row k of fs, with its one-sided slopes in lefts and rights.
    Where f > 0 the chain rule weighs term k by (f_k / f)^(p - 1), which is
    0 on a zero term; where f = 0 every term is 0 and grows like |s| times
    its slope on each side, so f does too, with the l_p norm of those slopes.
    """
    pos = f > 0.0
    c = (fs / np.where(pos, f, 1.0)) ** (p - 1.0)
    left, right = (c * lefts).sum(axis=0), (c * rights).sum(axis=0)
    if not pos.all():
        zero = ~pos
        left[zero] = -_lp_combine(p, np.abs(lefts[:, zero]))
        right[zero] = _lp_combine(p, np.abs(rights[:, zero]))
    return left, right


def _own_evaluator(p: float, cols) -> Callable[[np.ndarray], np.ndarray]:
    """The l_p norm of the coordinates ``cols`` of each row."""
    if p == INF:
        return lambda X: np.max(np.abs(X[:, cols]), axis=1)
    if p == 1.0:
        return lambda X: np.sum(np.abs(X[:, cols]), axis=1)
    return lambda X: _lp_norm(p, X[:, cols])


def _combined_evaluator(p: float, own, groups: Tuple[_KidGroup, ...],
                        K: int) -> Callable[[np.ndarray], np.ndarray]:
    """The l_p norm of the K >= 2 terms' values: own first, then the kids in kid order."""
    if p in (1.0, INF):
        combine = functools.partial(functools.reduce, np.maximum if p == INF else np.add)
    else:
        combine = functools.partial(_lp_combine, p)

    def ev(X: np.ndarray) -> np.ndarray:
        fs = np.empty((K, X.shape[0]))
        if own is not None:
            fs[0] = own(X)
        for g in groups:
            fs[g.at] = g.split(g.plan.evaluate(g.rows(X)), X.shape[0])
        return combine(fs)

    return ev


def _flat_layout(space: Space, off: int) -> Tuple[Optional[float], List[int], list]:
    """(p, own coordinates, child layouts) with same-p nests spliced in.

    p is None for a one-coordinate atom, which fits under any combiner.
    """
    if isinstance(space, LpFinite):
        return (space.p if space.d > 1 else None), list(range(off, off + space.d)), []
    p, subs = parts(space)
    cols: List[int] = []
    kids = []
    for o, part in subs:
        q, c, k = _flat_layout(part, off + o)
        if q is None or q == p:
            cols += c
            kids += k
        else:
            kids.append((q, c, k))
    if not cols and len(kids) == 1:
        return kids[0]
    return p, cols, kids


def _conjugate(p: float) -> float:
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def _layout_cols(layout: tuple) -> List[int]:
    """Every column a flat layout reads, its own and its kids'."""
    _, cols, kids = layout
    return list(cols) + [c for k in kids for c in _layout_cols(k)]


def _shifted(layout: tuple, by: int) -> tuple:
    """The layout with every column lowered by ``by``, as nested tuples."""
    p, cols, kids = layout
    return p, tuple(c - by for c in cols), tuple(_shifted(k, by) for k in kids)


def _kid_groups(kids: list, nodes: Tuple[NormPlan, ...], first: int,
                exponent: Callable[[float], float]) -> Tuple[_KidGroup, ...]:
    """The kids grouped by their layout up to a column offset; kid i is term first + i."""
    found: Dict[tuple, List[Tuple[int, int]]] = {}
    for i, kid in enumerate(kids):
        lo = min(_layout_cols(kid))
        found.setdefault(_shifted(kid, lo), []).append((first + i, lo))
    groups = []
    for template, members in found.items():
        at, offsets = (np.array(v) for v in zip(*members))
        if np.all(np.diff(at) == 1):
            at = slice(int(at[0]), int(at[-1]) + 1)
        if len(members) == 1:
            groups.append(_KidGroup(nodes[members[0][0] - first], None, at))
        else:
            idx = offsets[:, None] + np.arange(max(_layout_cols(template)) + 1)
            groups.append(_KidGroup(_compile(template, exponent), idx, at))
    return tuple(groups)


def _compile(layout: tuple, exponent: Callable[[float], float]) -> NormPlan:
    """The plan of a flat layout, with ``exponent`` applied to each node's p.

    Kids with the same layout up to a column offset are grouped
    (``_kid_groups``): one template plan, compiled on the columns of one
    copy, runs them all in ``evaluate`` and ``probe``.
    """
    p, cols, kids = layout
    p = exponent(INF if p is None else p)
    nodes = tuple(_compile(k, exponent) for k in kids)
    if not cols:
        sel = None
    elif list(cols) == list(range(cols[0], cols[0] + len(cols))):
        sel = slice(cols[0], cols[0] + len(cols))
    else:
        sel = np.array(cols)
    own = None if sel is None else _own_evaluator(p, sel)
    first = int(own is not None)  # the kids' first place among the terms
    groups = _kid_groups(kids, nodes, first, exponent)
    # along a line: |x_c| has two pieces and one kink; a max of convex pieces
    # has at most as many pieces as its terms together, a sum one more than
    # the kinks of its terms together
    if p == INF:
        pieces = 2 * len(cols) + sum(k.pieces for k in nodes)
    else:
        pieces = 1 + len(cols) + sum(k.pieces - 1 for k in nodes)
    return NormPlan(
        p=p, cols=sel, kids=nodes,
        polyhedral=p in (1.0, INF) and all(k.polyhedral for k in nodes),
        pieces=pieces, groups=groups,
        evaluate=own if not nodes else _combined_evaluator(p, own, groups, first + len(nodes)),
    )


@functools.lru_cache(maxsize=None)
def norm_plan(space: Space) -> NormPlan:
    """The space's norm plan, compiled once per (frozen) descriptor."""
    return _compile(_flat_layout(space, 0), lambda p: p)


@functools.lru_cache(maxsize=None)
def dual_plan(space: Space) -> NormPlan:
    """The plan of the dual norm: the norm plan's nodes with conjugate exponents."""
    return _compile(_flat_layout(space, 0), _conjugate)


def norm_evaluator(space: Space) -> Callable[[np.ndarray], np.ndarray]:
    """The batch evaluator mapping an (T, dim) array to the T norms."""
    return norm_plan(space).evaluate


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


def dual_norm(space: Space, phi) -> float:
    """Exact dual norm of a functional given by its coordinate vector."""
    return float(dual_plan(space).evaluate(as_coords(space, phi)[None, :])[0])


def _dual_unit(space: Space, phi: np.ndarray) -> Optional[np.ndarray]:
    """phi divided by its exactly computed dual norm, so that norm is at most 1.

    The dual norm is evaluated here, never taken from a solver, so every
    bound built on the result holds whatever the solver's tolerances.
    Returns None for a zero or non-finite functional.
    """
    dual = dual_plan(space).evaluate
    dn = float(dual(phi[None, :])[0])
    if not (np.isfinite(dn) and dn > 0.0):
        return None
    phi = phi / dn
    dn = float(dual(phi[None, :])[0])
    return phi / dn if dn > 1.0 else phi


def _dual_lower(
    space: Space, z: np.ndarray, G: np.ndarray, phi: Optional[np.ndarray]
) -> Tuple[float, Optional[np.ndarray]]:
    """The bound phi(z) - max_j phi(g_j) on d(z, co(rows of G)), phi rescaled first."""
    phi = None if phi is None else _dual_unit(space, phi)
    if phi is None:
        return 0.0, None
    return max(0.0, float(phi @ z - np.max(G @ phi))), phi


def _norming_functionals(space: Space, v: np.ndarray) -> List[Tuple[float, np.ndarray]]:
    """The norm plan's norming candidates at v, rescaled into the dual ball.

    Pairs (psi @ v, psi) without repeats, in the plan's order: best-attaining
    first, so the near ties come after every functional that attains the norm.
    """
    out: List[Tuple[float, np.ndarray]] = []
    seen = set()
    for _, psi in norm_plan(space).norming(v):
        psi = _dual_unit(space, psi)
        if psi is None:
            continue
        key = tuple(np.round(psi, 10))
        if key not in seen:
            seen.add(key)
            out.append((float(psi @ v), psi))
    return out


_CUT_CAP = 160


def certified_hull_lower(
    space: Space, z: np.ndarray, G: np.ndarray, v_hat: np.ndarray
) -> Tuple[float, Optional[np.ndarray]]:
    """Rigorous lower bound on d(z, co(rows of G)) from a dual functional.

    Any phi with dual norm <= 1 gives the bound phi(z) - max_j phi(g_j).  The
    best convex combination of the norming functionals at the residual
    v_hat, near ties included and the best-attaining ``_CUT_CAP`` of them
    kept, is selected by a small LP and then rescaled by its exactly
    computed dual norm, so the bound stays valid however the LP was solved.
    """
    cands = [psi for _, psi in _norming_functionals(space, v_hat)[:_CUT_CAP]]
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
    point: np.ndarray
    weights: np.ndarray
    gap: float
    lower: float
    converged: bool
    # the step that produced ``lower``: "vertex" (z is a generator), "lp"
    # (the polyhedral route), or, on curved norms, "norming" (norming
    # functionals at the residual of the polished Euclidean nearest point),
    # "slsqp-primal" (the same after the primal refinement) or "slsqp-dual"
    # (the dual refinement)
    stage: str


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
    sa < 0) and one at b (slope sb > 0), steps to where they meet, and there
    replaces one of them by the line of the one-sided slope pointing
    downhill.  A row is done when the slopes at t bracket 0, when f(t) meets
    the model up to the rounding floor 4 eps (fa + fb) of the row's ends,
    when t reaches an end, or when rounding makes a cut repeat the one it
    replaces (a tie resolved the other way).  On a polyhedral plan every
    step cuts with a new linear piece, so the search is exact and done
    within ``plan.pieces`` steps; on a curved plan the model closes in
    until rounding stops it, within ``_CURVED_STEPS`` steps.  Either bound
    left open raises.  The best point seen is returned, with the value the
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
    for _ in range(steps):
        if rows.shape[0] == 0:
            break
        t = np.clip((fb - fa + sa * a - sb * b) / (sa - sb), a, b)
        model = np.maximum(fa + sa * (t - a), fb + sb * (t - b))
        f, left, right = plan.probe(V - t[:, None] * W, W)
        better = f < f_best[rows]
        t_best[rows[better]] = t[better]
        f_best[rows[better]] = f[better]
        up = right < 0.0  # still descending at t: t becomes the left end
        down = left > 0.0
        # ||hi W|| <= fa + fb, so no row resolves f finer than eps (fa + fb)
        floor = 4.0 * np.finfo(float).eps * (fa + fb)
        done = ~(up | down) | (f <= model + floor) | (t <= a) | (t >= b)
        done |= (up & (right <= sa)) | (down & (left >= sb))
        up &= ~done
        down &= ~done
        a, fa, sa = np.where(up, t, a), np.where(up, f, fa), np.where(up, right, sa)
        b, fb, sb = np.where(down, t, b), np.where(down, f, fb), np.where(down, left, sb)
        if done.any():
            keep = ~done
            rows, a, fa, sa, b, fb, sb, V, W = (
                x[keep] for x in (rows, a, fa, sa, b, fb, sb, V, W))
    if rows.shape[0]:
        raise InternalInconsistencyError(
            f"segment search still open after {steps} steps on "
            f"{rows.shape[0]} of {T} rows"
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
    space: Space, G: np.ndarray, Z: np.ndarray, lam: np.ndarray, sweeps: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pairwise weight transfers with exact convex line searches, on a stack of rows.

    Row r has its own point Z[r] (Z is (R, D)), the generators G[r] (a
    (R, K, D) stack) and the weights lam[r], so one stack may hold the
    supports of many upper engines.  In a row, weight moves from the
    support to the support and the ``_PAIR_CAP`` generators nearest Z[r]; a
    sweep takes the best transfer (the first pair on a tie) while it
    improves the norm, and a row that stops improving is done.  The rows
    are independent, but every sweep gathers the pairs of all rows still
    improving into one segment search.

    Returns the weights and which rows settled: stopped improving within
    ``sweeps``.  Every sweep is deterministic and row-wise, so a settled
    row's weights are those any larger cap gives, bit for bit.
    """
    nrm = norm_evaluator(space)
    R, K, D = G.shape
    near = np.zeros((R, K), dtype=bool)
    order = np.argsort(nrm((Z[:, None, :] - G).reshape(R * K, D)).reshape(R, K), axis=1)
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


class _NormEpigraph:
    """Smooth inequality model of a plan's norm over affine coordinate expressions.

    One plan node gives one set of rows over its own coordinates and its
    children's models: a max node one bound variable a with a >= +-x_c and
    a >= each child; a sum node one variable u_c >= +-x_c per own
    coordinate, added to its children's expressions; any other p one
    variable a and one power row |a|^p >= sum |x_c|^p + sum |child|^p.  The
    plan's flattening carries over, so ``sup(n, lp(inf,d))`` is one max
    over all its coordinates.  On a polyhedral plan there are no power rows
    and the linear rows alone are an exact LP model; on a curved one the
    model is one a smooth NLP solver can drive to machine precision.

    Affine expressions are (coef dict, const) pairs over the variable vector;
    rows in ``lin`` assert expr >= 0.
    """

    def __init__(self, n_core: int):
        self.n = n_core
        self.init: List[float] = []
        self.lin: List[Tuple[Dict[int, float], float]] = []
        self.pows: List[Tuple[float, int, List[Tuple[Dict[int, float], float]]]] = []

    def new_var(self, value: float) -> int:
        idx = self.n
        self.n += 1
        self.init.append(value * (1.0 + 1e-9) + 1e-12)
        return idx

    def _ge(self, hi, lo) -> None:
        coef = dict(hi[0])
        for k, c in lo[0].items():
            coef[k] = coef.get(k, 0.0) - c
        self.lin.append((coef, hi[1] - lo[1]))

    def _bound_abs(self, var: int, e) -> None:
        """var >= |e|, as two linear rows."""
        self._ge(({var: 1.0}, 0.0), e)
        self._ge(({var: 1.0}, 0.0), ({k: -c for k, c in e[0].items()}, -e[1]))

    def build(self, plan: NormPlan, exprs, vals: np.ndarray):
        """Model the plan's norm of the coordinate expressions; returns (expr, value)."""
        own = [] if plan.cols is None else np.arange(len(exprs))[plan.cols].tolist()
        mags = [abs(float(vals[c])) for c in own]
        kids = [self.build(kid, exprs, vals) for kid in plan.kids]
        if plan.p == 1.0:
            coef: Dict[int, float] = {}
            for c, m in zip(own, mags):
                u = self.new_var(m)
                self._bound_abs(u, exprs[c])
                coef[u] = 1.0
            for ke, _ in kids:
                for k, w in ke[0].items():
                    coef[k] = coef.get(k, 0.0) + w
            return (coef, sum(ke[1] for ke, _ in kids)), sum(mags) + sum(kv for _, kv in kids)
        if plan.p == INF:
            val = max(mags + [kv for _, kv in kids])
            a = self.new_var(val)
            for c in own:
                self._bound_abs(a, exprs[c])
            for ke, _ in kids:
                self._ge(({a: 1.0}, 0.0), ke)
            return ({a: 1.0}, 0.0), val
        p = plan.p
        val = float(sum(m ** p for m in mags) + sum(kv ** p for _, kv in kids)) ** (1.0 / p)
        a = self.new_var(val)
        self.pows.append((p, a, [exprs[c] for c in own] + [ke for ke, _ in kids]))
        return ({a: 1.0}, 0.0), val

    def linear_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of ``lin`` as a dense system A y + b >= 0."""
        A = np.zeros((len(self.lin), self.n))
        b = np.empty(len(self.lin))
        for r, (coef, const) in enumerate(self.lin):
            for k, c in coef.items():
                A[r, k] = c
            b[r] = const
        return A, b

    def compiled_constraints(self):
        n = self.n
        cons = []
        if self.lin:
            A, b = self.linear_rows()
            cons.append({
                "type": "ineq",
                "fun": lambda y, A=A, b=b: A @ y + b,
                "jac": lambda y, A=A: A,
            })
        if self.pows:
            rows = []
            for p, a, kids in self.pows:
                pre = [
                    (np.array(sorted(e[0])), np.array(
                        [e[0][k] for k in sorted(e[0])]), e[1])
                    for e in kids
                ]
                rows.append((p, a, pre))

            def pow_fun(y, rows=rows):
                out = np.empty(len(rows))
                for r, (p, a, pre) in enumerate(rows):
                    s = abs(y[a]) ** p
                    for idxs, cs, const in pre:
                        s -= abs(float(y[idxs] @ cs) + const) ** p
                    out[r] = s
                return out

            def pow_jac(y, rows=rows, n=n):
                J = np.zeros((len(rows), n))
                for r, (p, a, pre) in enumerate(rows):
                    J[r, a] = p * abs(y[a]) ** (p - 1.0) * np.sign(y[a])
                    for idxs, cs, const in pre:
                        v = float(y[idxs] @ cs) + const
                        g = -p * abs(v) ** (p - 1.0) * np.sign(v)
                        J[r, idxs] += g * cs
                return J

            cons.append({"type": "ineq", "fun": pow_fun, "jac": pow_jac})
        return cons


def _slsqp_primal(space, nrm, G: np.ndarray, z: np.ndarray,
                  lam0: np.ndarray, cap: int = 60) -> Optional[np.ndarray]:
    """Refine hull weights with a smooth NLP over the norm's epigraph model."""
    from scipy.optimize import minimize

    K, D = G.shape
    if K > cap:
        support = set(np.nonzero(lam0 > 1e-14)[0].tolist())
        for j in np.argsort(nrm(z[None, :] - G)):
            if len(support) >= cap:
                break
            support.add(int(j))
        idx = np.array(sorted(support))
        sub = _slsqp_primal(space, nrm, G[idx], z, lam0[idx] / max(lam0[idx].sum(), 1e-300), cap)
        if sub is None:
            return None
        out = np.zeros(K)
        out[idx] = sub
        return out
    lam0 = np.clip(lam0, 0.0, None)
    lam0 = lam0 / lam0.sum()
    v0 = z - lam0 @ G
    eb = _NormEpigraph(K)
    exprs = [
        ({j: -float(G[j, i]) for j in range(K) if G[j, i] != 0.0}, float(z[i]))
        for i in range(D)
    ]
    root, _ = eb.build(norm_plan(space), exprs, v0)
    n = eb.n
    c_obj = np.zeros(n)
    for k, c in root[0].items():
        c_obj[k] = c
    x0 = np.concatenate([lam0, np.array(eb.init)])
    cons = eb.compiled_constraints()
    cons.append({
        "type": "eq",
        "fun": lambda y: np.array([y[:K].sum() - 1.0]),
        "jac": lambda y: np.concatenate([np.ones(K), np.zeros(n - K)])[None, :],
    })
    bounds = [(0.0, 1.0)] * K + [(0.0, None)] * (n - K)
    try:
        res = minimize(
            lambda y: float(c_obj @ y) + root[1],
            x0,
            jac=lambda y: c_obj,
            method="SLSQP",
            bounds=bounds,
            constraints=cons,
            options={"maxiter": 250, "ftol": 1e-14},
        )
    except Exception:
        return None
    lam = np.clip(res.x[:K], 0.0, None)
    s = lam.sum()
    if not np.isfinite(s) or s <= 0.0:
        return None
    return lam / s


def _slsqp_dual(space, G: np.ndarray, z: np.ndarray,
                phi0: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Refine a separating functional over the dual unit ball's epigraph model.

    Maximizes phi(z) - max_j phi(g_j) subject to the dual-ball model; the
    caller must renormalize the result by the exactly computed dual norm
    before trusting any bound derived from it.
    """
    from scipy.optimize import minimize

    phi0 = None if phi0 is None else _dual_unit(space, phi0)
    if phi0 is None:
        return None
    phi0 = phi0 * (1.0 - 1e-9)
    K, D = G.shape
    rows = z[None, :] - G
    if K > 150:
        keep = np.argsort(rows @ phi0)[:150]
        rows = rows[keep]
    eb = _NormEpigraph(D + 1)
    exprs = [({i: 1.0}, 0.0) for i in range(D)]
    root, _ = eb.build(dual_plan(space), exprs, phi0)
    n = eb.n
    s_idx = D
    ball = ({k: -c for k, c in root[0].items()}, 1.0 - root[1])
    eb.lin.append(ball)
    for r in rows:
        coef = {i: float(r[i]) for i in range(D) if r[i] != 0.0}
        coef[s_idx] = -1.0
        eb.lin.append((coef, 0.0))
    cons = eb.compiled_constraints()
    s0 = float(np.min(rows @ phi0))
    x0 = np.concatenate([phi0, [s0], np.array(eb.init)])
    c_obj = np.zeros(n)
    c_obj[s_idx] = -1.0
    bounds = [(None, None)] * (D + 1) + [(0.0, None)] * (n - D - 1)
    try:
        # the line search can stall on rounding short of the optimum (status
        # 8, or the iteration limit); one restart from where it stopped goes on
        for _ in range(2):
            res = minimize(
                lambda y: float(c_obj @ y),
                x0,
                jac=lambda y: c_obj,
                method="SLSQP",
                bounds=bounds,
                constraints=cons,
                options={"maxiter": 250, "ftol": 1e-14},
            )
            if res.status == 0:
                break
            x0 = res.x
    except Exception:
        return None
    phi = res.x[:D]
    if not np.all(np.isfinite(phi)):
        return None
    return phi


def _hull_lp(space: Space, z: np.ndarray, G: np.ndarray):
    """min ||v|| s.t. v + G'lam = z, lam on the simplex, as one HiGHS LP.

    The norm is modelled by the linear rows of its epigraph, so the space
    must be polyhedral (``norm_plan(space).polyhedral``).  Returns (weights, phi) or None if the LP fails;
    phi holds the marginals of the D coupling rows: the derivative of the
    distance in z, which is the optimal separating functional.
    """
    from scipy import optimize

    K, D = G.shape
    eb = _NormEpigraph(K + D)
    root, _ = eb.build(norm_plan(space), [({K + i: 1.0}, 0.0) for i in range(D)], np.zeros(D))
    A, b = eb.linear_rows()
    c = np.zeros(eb.n)
    for k, w in root[0].items():
        c[k] = w
    A_eq = np.zeros((D + 1, eb.n))
    A_eq[:D, :K] = G.T
    A_eq[:D, K : K + D] = np.eye(D)
    A_eq[D, :K] = 1.0
    bounds = [(0.0, None)] * K + [(None, None)] * D + [(0.0, None)] * (eb.n - K - D)
    res = optimize.linprog(
        c, A_ub=-A, b_ub=b, A_eq=A_eq, b_eq=np.append(z, 1.0), bounds=bounds,
        method="highs",
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
    rescaled by its exactly computed dual norm, so the gap is rigorous
    whatever the solvers' tolerances.  One of two routes runs:

    * polyhedral norms (``norm_plan(space).polyhedral``): one LP,
      whose equality marginals are the functional (stage "lp");
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
        return MinNormResult(0.0, G[j].copy(), lam, 0.0, 0.0, True, "vertex")

    if norm_plan(space).polyhedral:
        sol = _hull_lp(space, zz, G)
        if sol is None:
            raise InternalInconsistencyError(f"hull LP failed on {K} generators in dimension {D}")
        lam = sol[0]
        best_val = dist(lam)
        lower, _ = _dual_lower(space, zz, G, sol[1])
        stage = "lp"
    else:
        lam = _euclid_surrogate(G[None], zz[None])[0]
        lam = _polish_true_norm(space, G[None], zz[None], lam[None], sweeps=25)[0][0]
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
            lower_d, _ = _dual_lower(space, zz, G, _slsqp_dual(space, G, zz, phi))
            if lower_d > lower:
                lower, stage = lower_d, "slsqp-dual"
    gap = max(0.0, best_val - lower)
    return MinNormResult(
        distance=best_val,
        point=lam @ G,
        weights=lam,
        gap=gap,
        lower=lower,
        converged=gap <= target_gap,
        stage=stage,
    )


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
    are computed once per (eps, alpha), the closed forms of the supports of
    one size once per (eps, alpha, size), when an m first needs them, and
    m only filters the supports by size.  ``dist_to_cm_upper``
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
        self.space = space
        self.n = n
        self.amb = ambient_space(space, n)
        self.z = z.copy()
        self.budget = budget
        self.nrm_sup = norm_evaluator(self.amb)
        self.nrm_mean_sup = _mean_sup_evaluator(space, n)
        self.z_sup, self.z_mean = z_sup, z_mean
        self._pull_cache: Dict[Tuple[float, float], np.ndarray] = {}
        self._closed: Dict[Tuple[float, float], np.ndarray] = {}
        self._closed_sizes: set = set()  # the (eps, alpha, size) filled in _closed
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
                                          sweeps=60 if accurate else 8)
        p_val = self.nrm_sup(Z - (lams[:, None, :] @ gens)[:, 0])
        # after the vertex, the polished and then the uniform weights, each
        # kept only where strictly nearer
        nearer = p_val < best_val
        best_lam[nearer], best_val[nearer] = lams[nearer], p_val[nearer]
        nearer = u_val < best_val
        best_lam[nearer], best_val[nearer] = uniform, u_val[nearer]
        return best_lam, best_val, settled

    def _at_scale(self, c: float):
        """The pool scaled by c and each support's (mu_C, d_C) on it (``_solve_scale``)."""
        _solve_scale([self], c)
        return self._scaled[c]

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
      batch is scaled just inside the unit ball by one norm evaluation (and
      one more for the rows that rounding left outside).  On a
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
    nrm = norm_evaluator(space)
    U = np.stack(raw)
    nu = nrm(U)
    keep = ~(nu <= 0.0)  # a zero block of z gives no unit
    # strictly inside the ball, and rescaled where rounding left a unit outside
    U = (U / np.where(keep, nu, 1.0)[:, None]) * (1.0 - 1e-13)
    n2 = nrm(U)
    U[n2 > 1.0] /= n2[n2 > 1.0, None]
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
        blocks = blocks / np.maximum(nrm(blocks), 1.0)[:, None]
    overwrites = np.where(masks, fill, blocks.reshape(len(Z), 1, n, di))
    overwrites = overwrites.reshape(len(Z), len(masks), n * di)
    z_mean, z_sup = _mean_sup_evaluator(space, n)(Z)
    rows = zip(Z, np.split(np.tile(U, (1, n)), len(Z)), np.split(keep, len(Z)), overwrites)
    engines = [
        _UpperEngine(space, n, z, budget, np.concatenate([t[k], o]), int(k.sum()),
                     float(sup), float(mean))
        for (z, t, k, o), sup, mean in zip(rows, z_sup, z_mean)
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
    """Fill the pull and closed-form caches of engines of one (space, n) for params.

    The rows of every non-member engine without pulls at (eps, alpha) are
    stacked with their own z and pulled by one bisection.  Below alpha = 1
    the engines' supports at the scaled pool are solved first, as one stack
    per support size across them (``_solve_scale``).  Then the closed forms
    d_C / Z of the support sizes up to m not yet computed at (eps, alpha)
    are computed, in one stack per size; a larger m later adds its sizes.
    """
    require_nonempty(params)
    key = (params.epsilon, params.alpha)
    live = [e for e in engines if not e._is_member(params)]
    c = _pool_scale(params.alpha)
    todo = [e for e in live if key not in e._pull_cache]
    if todo:
        _solve_scale(todo, c)
        pools = [e._scaled[c][0] for e in todo]
        Z = np.concatenate([np.broadcast_to(e.z, pool.shape) for e, pool in zip(todo, pools)])
        s = _pull_rows(todo[0].nrm_mean_sup, np.concatenate(pools), Z, *key)
        for e, pulls in zip(todo, np.split(s, np.cumsum([len(pool) for pool in pools])[:-1])):
            e._pull_cache[key], e._closed[key] = pulls, np.full(len(e.supports), np.nan)
    by_size: Dict[int, list] = {}
    for e in live:
        new = {K for K in e._sizes.tolist() if K <= params.m and key + (K,) not in e._closed_sizes}
        if not new:
            continue
        e._closed_sizes.update(key + (K,) for K in new)
        pulls, solutions = e._pull_cache[key], e._scaled[c][1]
        for j, (_, idxs) in enumerate(e.supports):
            if len(idxs) in new:
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
    require_nonempty(params)
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


def require_grid_fits(space: Space, params: CmParams, h: float) -> dict:
    """The grid guard report, or a refusal carrying it when the grid is too large."""
    report = grid_guard_report(space, params, h)
    if report["grid_points"] > GRID_GUARD:
        raise CapabilityRefusal(
            f"grid of {report['grid_points']} points exceeds the guard "
            f"({GRID_GUARD}); need resolution >= {report['required_resolution']:.3g}",
            report=report,
        )
    return report


def _grid_points(alpha: float, h: float, D: int) -> np.ndarray:
    K = math.ceil(alpha / h - 1e-12)
    axis = np.arange(-K, K + 1) * h
    grids = np.meshgrid(*([axis] * D), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


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
    edges, near pairs), every one a genuine feasible decomposition.  Lower
    side: members of the closure are within the covering radius of a grid
    point satisfying the relaxed constraints, so the distance to the relaxed
    grid hull minus the covering radius is a valid lower bound.

    The bracket is the same for every m >= 2: the upper side uses at most
    two grid members and the lower side the full relaxed hull.
    """
    require_nonempty(params)
    if resolution <= 0:
        raise ParameterError(f"resolution must be positive, got {resolution}")
    amb = ambient_space(space, params.n)
    D = dim(amb)
    report = require_grid_fits(space, params, resolution)
    zz = as_coords(amb, z)
    mean_sup = _mean_sup_evaluator(space, params.n)

    pts = _grid_points(params.alpha, resolution, D)
    mean_vals, sup_vals = mean_sup(pts)
    # rounded up, so the relaxed set can only grow; the lower side is rounded down
    r_cov = float(np.nextafter((resolution / 2.0) * float(mean_sup(np.ones((1, D)))[1][0]), INF))

    strict = pts[(sup_vals <= params.alpha) & (mean_vals > 1.0 - params.epsilon)]
    relax = pts[
        (sup_vals <= params.alpha + r_cov)
        & (mean_vals >= 1.0 - params.epsilon - r_cov)
    ]
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

    upper, witness, upper_method = _grid_upper(amb, zz, strict, params.m)
    lower_raw, lower_method = _grid_hull_lower(amb, zz, relax, params.m)
    lower = max(0.0, float(np.nextafter(lower_raw - r_cov, -INF)))
    lower = min(lower, upper)
    return DistanceBracket(
        lower, upper, lower_method, upper_method, witness=witness, meta=meta
    )


def _grid_upper(amb: Space, z, S: np.ndarray, m: int) -> Tuple[float, ConvexDecomposition, str]:
    d_point = norm_evaluator(amb)(z[None, :] - S)
    j = int(np.argmin(d_point))
    best_val = float(d_point[j])
    best_dec = ConvexDecomposition(np.array([1.0]), [S[j].copy()])
    method = "grid-point-scan"
    if m >= 2 and S.shape[0] >= 2:
        edges = _hull_edges(S)
        if edges is not None and len(edges):
            A = S[[a for a, _ in edges]]
            B = S[[b for _, b in edges]]
            val, k, t = _segment_scan(amb, z, A, B)
            if val < best_val:
                a, b = edges[k]
                best_val = val
                best_dec = ConvexDecomposition(
                    np.array([1.0 - t, t]), [S[a].copy(), S[b].copy()]
                )
                method = "grid-hull-edges"
        # near pairs mop up the case of z inside the hull but off co_2
        order = np.argsort(d_point)[:120]
        pairs = list(itertools.combinations(order.tolist(), 2))
        if pairs:
            A = S[[a for a, _ in pairs]]
            B = S[[b for _, b in pairs]]
            val, k, t = _segment_scan(amb, z, A, B)
            if val < best_val - 1e-15:
                a, b = pairs[k]
                best_val = val
                best_dec = ConvexDecomposition(
                    np.array([1.0 - t, t]), [S[a].copy(), S[b].copy()]
                )
                method = "grid-near-pairs"
    return best_val, best_dec, method


def _hull_edges(S: np.ndarray):
    from scipy.spatial import ConvexHull, QhullError

    if S.shape[1] != 2:
        return None
    try:
        hull = ConvexHull(S)
    except QhullError:
        # degenerate (collinear) point sets: use the extreme pair
        spread = S - S.mean(axis=0)
        _, _, vt = np.linalg.svd(spread, full_matrices=False)
        proj = spread @ vt[0]
        return [(int(np.argmin(proj)), int(np.argmax(proj)))]
    return [tuple(simplex) for simplex in hull.simplices]


def _grid_hull_lower(amb: Space, z, S: np.ndarray, m: int) -> Tuple[float, str]:
    from scipy.spatial import ConvexHull, QhullError

    if m == 1:
        return float(np.min(norm_evaluator(amb)(z[None, :] - S))), "grid-point-scan"
    if S.shape[1] == 2:
        # in the plane, a nearest point of the full hull lies on a boundary
        # edge whenever z is outside, so <= 2 generators suffice and the
        # full-hull distance equals the m-fold one for every m >= 2
        try:
            hull = ConvexHull(S)
        except QhullError:
            hull = None  # degenerate (collinear) set: the dual certificate below
        if hull is not None:
            if np.all(hull.equations @ np.append(z, 1.0) <= 1e-12):
                return 0.0, "grid-hull-inside"
            edges = [tuple(s) for s in hull.simplices]
            A = S[[a for a, _ in edges]]
            B = S[[b for _, b in edges]]
            val, _, _ = _segment_scan(amb, z, A, B)
            return val, "grid-hull-exact"
    # general ambient dimension: certified dual lower bound on the full hull
    return min_norm_point(amb, z, S, target_gap=1e-9).lower, "grid-dual-certificate"
