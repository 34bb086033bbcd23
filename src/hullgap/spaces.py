"""Finite-dimensional normed spaces: descriptors, vectors, and their one norm.

A space is built from four constructors, each a frozen dataclass described
once (``_constructor``) by its name in the one-line text grammar and the
kind of each field: an exponent in [1, inf], a positive integer, or a space.

* ``lp(p, d)``, ``LpFinite`` -- the d-dimensional l_p space;
* ``sup(n, X)``, ``SupTuple`` -- n-tuples of X with the max-of-norms norm
  (the ambient space every hull computation lives in);
* ``dsum(p, X, Y)``, ``DirectSum`` -- the l_p norm of the summands' norms;
* ``fmod(N, X)``, ``FunctionModule`` -- sections over a finite discrete
  base of N points with the sup-over-base norm of fiber norms.

The field checks, ``format_space`` and ``parse_space``, which reads the
grammar with the standard library's ``ast``, all follow that description,
and so does ``parts()``: a composite is the l_p norm of its parts' norms,
its space fields repeated by its count field under its exponent field (or
p = inf).  Every walker here handles the ``LpFinite`` atom and the
composite ``(p, parts)`` and nothing else.

Every norm of the package is computed here, by one compiler: ``norm_plan``
turns a space into a ``NormPlan`` once, and its batch evaluator on (T, dim)
rows serves ``norm`` (one row), ``sample_unit_ball`` and every hull
computation in ``hullgeom``; ``dual_plan`` is the same plan with conjugate
exponents.  A plan also scales rows into its unit ball (``into_ball``).  An
l_p sum of p-th powers that leaves the float range is redone scaled by its
largest term, so a norm underflows to 0 or overflows to inf only where its
value does.

Vectors are flat coordinate arrays; the space descriptor drives the block
interpretation.  ``p = inf`` is the ``math.inf`` marker and infinity norms
are always computed by ``max``, never by large-exponent powers.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

INF = math.inf


class DimensionMismatch(ValueError):
    """Vector length does not match the space's coordinate dimension."""


class SpaceGrammarError(ValueError):
    """A space-grammar string failed to parse."""


# The kinds of constructor field.  Each kind is checked, read from the grammar
# and written back one way, and its text names it in error messages.
_EXPONENT = "an exponent in [1, inf]"
_COUNT = "a positive integer"
_SPACE = "a space"

_CONSTRUCTORS: Dict[str, type] = {}  # grammar name -> constructor class


def _constructor(grammar: str, *kinds: str):
    """Class decorator: a space constructor as a frozen dataclass, described once.

    ``GRAMMAR`` is its grammar name and ``FIELDS`` pairs each field with its
    kind, in order, for the field checks, ``parts`` and the text grammar.
    """
    def make(cls):
        cls.GRAMMAR, cls.FIELDS = grammar, tuple(zip(cls.__annotations__, kinds))
        cls.__post_init__ = _check_fields
        _CONSTRUCTORS[grammar] = cls = dataclass(frozen=True)(cls)
        return cls
    return make


def _check_fields(space) -> None:
    """Store each exponent field as a float and each count field as an int, or raise."""
    for name, kind in space.FIELDS:
        v = getattr(space, name)
        if kind == _EXPONENT and not float(v) >= 1.0 or kind == _COUNT and not (int(v) == v and v >= 1):
            raise ValueError(f"{name} must be {kind}, got {v}")
        if kind != _SPACE:
            object.__setattr__(space, name, float(v) if kind == _EXPONENT else int(v))


@_constructor("lp", _EXPONENT, _COUNT)
class LpFinite:
    p: float
    d: int


@_constructor("sup", _COUNT, _SPACE)
class SupTuple:
    n: int
    inner: "Space"


@_constructor("dsum", _EXPONENT, _SPACE, _SPACE)
class DirectSum:
    p: float
    left: "Space"
    right: "Space"


@_constructor("fmod", _COUNT, _SPACE)
class FunctionModule:
    base_size: int
    fiber: "Space"


Space = Union[LpFinite, SupTuple, DirectSum, FunctionModule]


@functools.lru_cache(maxsize=None)
def parts(space: Space) -> Tuple[float, Tuple[Tuple[int, Space], ...]]:
    """Layout of a composite space: (p, ((offset, part), ...)).

    The norm is the l_p norm of the parts' norms, each part reading the
    coordinates from its offset on.  The parts are the space fields,
    repeated by the count field if there is one (the copies of a sup tuple
    or a module), and p is the exponent field, or inf if there is none.
    Atoms have no space field, so no parts.
    """
    numbers = {kind: getattr(space, name) for name, kind in space.FIELDS if kind != _SPACE}
    subs = [getattr(space, name) for name, kind in space.FIELDS if kind == _SPACE]
    if not subs:
        raise TypeError(f"not a composite space: {space!r}")
    subs *= numbers.get(_COUNT, 1)
    return numbers.get(_EXPONENT, INF), tuple(zip(itertools.accumulate(map(dim, subs), initial=0), subs))


@functools.lru_cache(maxsize=None)
def dim(space: Space) -> int:
    """Total coordinate dimension of a space."""
    if isinstance(space, LpFinite):
        return space.d
    off, last = parts(space)[1][-1]
    return off + dim(last)


def _check_dim(space: Space, got: int) -> None:
    want = dim(space)
    if got != want:
        raise DimensionMismatch(
            f"vector has {got} coordinates but space "
            f"{format_space(space)} has dimension {want}"
        )


def as_coords(space: Space, v) -> np.ndarray:
    """Coerce an array-like to a flat float array of the right size."""
    arr = np.asarray(v, dtype=float).reshape(-1)
    _check_dim(space, arr.shape[0])
    return arr


def as_coord_rows(space: Space, vs) -> np.ndarray:
    """Stack vectors as the rows of a (K, dim) float array.

    A 2-D array is taken whole, with one shape check; anything else goes
    through ``as_coords`` one vector at a time.
    """
    if isinstance(vs, np.ndarray) and vs.ndim == 2:
        _check_dim(space, vs.shape[1])
        return np.asarray(vs, dtype=float)
    return np.stack([as_coords(space, v) for v in vs])


# ---------------------------------------------------------------------------
# the norm plan: every norm and dual norm of the package


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
    (``evaluate``), the one-sided slopes (``probe``) and the norming
    functionals (``norming``); hullgeom compiles its LP/NLP epigraph model
    from the nodes once per plan (``_epigraph``).

    The plan owns its unit ball: ``into_ball`` scales the unit samples,
    the engine's prototypes and, on the dual plan, every certified
    functional into it.

    ``evaluate`` and ``probe`` run the kids by ``groups``: sibling kids
    that are one node at different column offsets (the n blocks of
    ``sup(n, X)``, the fibers of a module) are one call of that node on
    the gathered (T r, w) rows (``_KidGroup``).  The node's terms, its own
    coordinates first and then its kids in kid order, fill one C-ordered
    (K, T) stack, as the kids alone would, so each term gets the
    operations it gets alone and grouping moves no value.  ``norming`` and
    hullgeom's ``_epigraph`` walk ``kids``.

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

    def into_ball(self, X: np.ndarray, shrink: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of X with a finite nonzero norm, scaled into the unit ball, and their mask.

        Each row is divided by its norm and multiplied by ``shrink``.  A row
        that then reads above 1 is divided by that norm once more, and then
        by the next float above it, until none does (dividing by a norm of
        1 + ulp can round a row back to itself): every row reads <= 1.
        """
        n = self.evaluate(X)
        ok = (n > 0.0) & (n < INF)
        U = X[ok] / n[ok, None] * shrink
        n, first = self.evaluate(U), True
        while np.any(over := n > 1.0):
            div = n[over] if first else np.nextafter(n[over], INF)
            U[over] = U[over] / div[:, None]
            n[over], first = self.evaluate(U[over]), False
        return U, ok

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

    def split(self, v: np.ndarray, T: int) -> np.ndarray:
        """Values (..., T r) over ``rows`` as (..., r, T): r term rows, copy by copy."""
        r = 1 if self.idx is None else self.idx.shape[0]
        return v.reshape(v.shape[:-1] + (T, r)).swapaxes(-1, -2)


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
    return _lp_root(p, _row_power_sums(p, a), a.T)


def _lp_combine(p: float, fs) -> np.ndarray:
    """The l_p combination (1 < p < inf) of the terms fs, one row of T values each."""
    return _lp_root(p, _term_power_sums(p, fs), fs)


# The p-th powers and their sums leave the float range only on the rows that
# _lp_root redoes, so they run with overflow and underflow ignored.  As
# decorators, the two errstates are made once, at import, where a ``with
# np.errstate(...)`` block would make a new one and enter it on every call.


@np.errstate(over="ignore", under="ignore")
def _row_power_sums(p: float, a: np.ndarray) -> np.ndarray:
    """The sum of the p-th powers of each row of a >= 0."""
    return np.add.reduce(a ** p, axis=1)


@np.errstate(over="ignore", under="ignore")
def _term_power_sums(p: float, fs) -> np.ndarray:
    """The sum of the p-th powers of the terms fs >= 0, term after term."""
    return functools.reduce(np.add, [fk ** p for fk in fs])


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


def norm(space: Space, v) -> float:
    """The norm of one vector: the space's norm plan on a single row."""
    return float(norm_plan(space).evaluate(as_coords(space, v)[None, :])[0])


def sup_slots(space: Space) -> Optional[List[Tuple[int, Space]]]:
    """Coordinate slots over which the norm is a plain maximum, if any.

    Returns a list of (offset, subspace) pairs that tile the coordinates and
    satisfy norm(x) = max over slots of subspace-norm of the slot block, or
    None when the norm has no such decomposition (l_p with p < inf, direct
    sums with p < inf).  One-dimensional spaces are treated as atoms.
    """
    if isinstance(space, LpFinite):
        if space.p == INF and space.d >= 2:
            return [(i, LpFinite(INF, 1)) for i in range(space.d)]
        return None
    p, subs = parts(space)
    if p != INF:
        return None
    return [
        (off + inner_off, sub)
        for off, part in subs
        for inner_off, sub in sup_slots(part) or [(0, part)]
    ]


def canonical_unit(space: Space) -> np.ndarray:
    """A fixed deterministic unit vector of the space.

    A max of equal parts gets the part's unit in every part; any other
    composite gets its first part's unit and zeros elsewhere.
    """
    x = np.zeros(dim(space))
    if isinstance(space, LpFinite):
        x[0] = 1.0
        return x
    p, subs = parts(space)
    first = subs[0][1]
    if p == INF and all(part == first for _, part in subs):
        return np.tile(canonical_unit(first), len(subs))
    x[: dim(first)] = canonical_unit(first)
    return x


def norming_section(space: Space) -> np.ndarray:
    """A unit vector attaining norm 1 in every sup slot (ones for l_inf^d).

    Falls back to canonical_unit when the space has no sup decomposition.
    """
    slots = sup_slots(space)
    if not slots:
        return canonical_unit(space)
    x = np.zeros(dim(space))
    for off, sub in slots:
        x[off : off + dim(sub)] = canonical_unit(sub)
    return x


def sample_unit_ball(space: Space, count: int, seed: int) -> np.ndarray:
    """Deterministic sample of `count` vectors with norm <= 1, as (count, dim) rows.

    Sign-pattern vertices (normalized) come first, then normalized +-basis
    vectors, then seeded random directions normalized to the unit sphere.
    For a fixed seed the returned array is identical across calls.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    D = dim(space)
    # sign patterns, bit i of the code -> -1 so (1, 1, ..., 1) comes first; a
    # pattern's norm lies in [1, D], so no pattern is dropped or repeats another
    codes = np.arange(min(2 ** min(D, 12), count))
    signs = np.ones((codes.shape[0], D))
    signs[:, :12] = np.where((codes[:, None] >> np.arange(min(D, 12))) & 1, -1.0, 1.0)
    eye = np.eye(D)
    ball = norm_plan(space).into_ball
    U, _ = ball(np.concatenate([signs, np.stack([eye, -eye], axis=1).reshape(2 * D, D)]))
    out: List[np.ndarray] = []
    seen = set()
    for u, key in zip(U, map(tuple, np.round(U, 12))):
        if key not in seen:
            seen.add(key)
            out.append(u)
    rng = np.random.default_rng(seed)
    while len(out) < count:
        # k draws of D as one (k, D) block: the same stream as k draws one by one
        out.extend(ball(rng.standard_normal((count - len(out), D)))[0])
    return np.stack(out[:count])


# ---------------------------------------------------------------------------
# one-line text grammar:  lp(2,8) | sup(3, lp(inf,4)) | dsum(1, A, B) | fmod(8, A)

# a character outside the grammar, or a letter right after a digit or a dot:
# no text of the grammar has one, and Python's parser warns about it
_OUTSIDE = re.compile(r"[^A-Za-z0-9_(),. ]|(?<=[0-9.])[A-Za-z_]")
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def parse_space(text: str) -> Space:
    """Parse the one-line space grammar, e.g. ``sup(3, lp(inf,4))``.

    The grammar is a subset of Python call syntax, so ``ast`` reads it and
    ``read`` keeps only calls of the constructors on arguments of the kinds
    their description names.  Python also takes extra parentheses and
    trailing commas, so the text the accepted nodes spell must be the input
    up to whitespace.  Python refuses more than 200 nested parentheses.
    """
    def fail(pos: int, what: str) -> SpaceGrammarError:
        return SpaceGrammarError(f"{what} at position {pos}: {text[pos:pos + 20]!r}")

    src = "".join(" " if c.isspace() else c for c in text)
    bad = _OUTSIDE.search(src)
    if bad:
        raise fail(bad.start(), "bad character")
    body = src.lstrip()  # Python reads leading blanks as an indent
    lead = len(src) - len(body)
    try:
        tree = ast.parse(body, mode="eval")
    except SyntaxError as exc:
        raise fail(lead + max((exc.offset or 1) - 1, 0), exc.msg) from None
    except (MemoryError, RecursionError):  # how Python refuses a text too deep for its parser
        raise fail(lead, "too deeply nested") from None

    def read(node: ast.expr, kind: str) -> Tuple[object, str]:
        """The value of one argument of this kind, and the text it spells."""
        pos = lead + node.col_offset
        if kind != _SPACE:
            lit = body[node.col_offset:node.end_col_offset]
            if kind == _EXPONENT and (lit == "inf" or _NUMBER.fullmatch(lit)) or lit.isdigit():
                return (float(lit) if kind == _EXPONENT else int(lit)), lit
            raise fail(pos, f"expected {kind}")
        cls = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and _CONSTRUCTORS.get(node.func.id)
        if not cls:
            raise fail(pos, f"expected a space constructor ({', '.join(_CONSTRUCTORS)})")
        if len(node.args) != len(cls.FIELDS):
            raise fail(pos, f"{cls.GRAMMAR} takes {len(cls.FIELDS)} arguments")
        args = [read(arg, kind) for arg, (_, kind) in zip(node.args, cls.FIELDS)]
        try:
            space = cls(*(v for v, _ in args))
        except ValueError as exc:
            raise fail(pos, f"invalid parameters for {cls.GRAMMAR} ({exc})") from None
        return space, f"{cls.GRAMMAR}({','.join(t for _, t in args)})"

    space, spelled = read(tree.body, _SPACE)
    given = "".join(src.split())
    if spelled != given:
        k = next((i for i, (a, b) in enumerate(zip(spelled, given)) if a != b), len(spelled))
        raise fail([i for i, c in enumerate(src) if c != " "][k], "not in the grammar")
    return space


def _format_field(kind: str, v) -> str:
    if kind == _SPACE:
        return format_space(v)
    return "inf" if v == INF else str(int(v)) if v == int(v) else repr(v)


def format_space(space: Space) -> str:
    """Inverse of parse_space (used in reports and error messages).

    An atom's arguments are joined by "," and a composite's by ", ".
    """
    sep = ", " if any(kind == _SPACE for _, kind in space.FIELDS) else ","
    args = [_format_field(kind, getattr(space, name)) for name, kind in space.FIELDS]
    return f"{space.GRAMMAR}({sep.join(args)})"
