"""Reference computations written apart from the hullgap package.

Nothing here imports hullgap.  Spaces are read from the one-line grammar
(``lp(p,d)``, ``sup(n, S)``, ``dsum(p, S, T)``, ``fmod(N, S)``) by a parser
of our own, and every quantity is computed from its definition:

* norms of every space class;
* membership in the constrained set (sup-tuple norm at most alpha, block
  mean of norm above 1 - eps, both about the closure with a 1e-9 slack);
* the distance from a point to the convex hull of finitely many points, as
  one HiGHS LP for polyhedral norms and by NNLS with a weighted simplex row
  for l_2;
* the analytic distances of the sign-flip pair z* = (1, -1) of the reals;
* the geometric chain metric and exact Lipschitz seminorms on it.
"""

from __future__ import annotations

import math
import re
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, nnls

INF = math.inf
MEMBER_TOL = 1e-9

# ---------------------------------------------------------------------------
# grammar

_TOKEN = re.compile(r"\s*([A-Za-z]+|-?\d+(?:\.\d+)?|[(),])")


def parse(text: str):
    """Parse the space grammar into nested tuples.

    ("lp", p, d) | ("sup", n, S) | ("dsum", p, S, T) | ("fmod", N, S)
    """
    toks = _TOKEN.findall(text)
    if "".join(toks) != re.sub(r"\s+", "", text):
        raise ValueError(f"unparsable space {text!r}")
    pos = 0

    def take(want=None):
        nonlocal pos
        tok = toks[pos]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r} at token {pos} of {text!r}")
        pos += 1
        return tok

    def number(tok):
        return INF if tok == "inf" else float(tok)

    def node():
        name = take()
        take("(")
        if name == "lp":
            p = number(take())
            take(",")
            out = ("lp", p, int(take()))
        elif name in ("sup", "fmod"):
            count = int(take())
            take(",")
            out = (name, count, node())
        elif name == "dsum":
            p = number(take())
            take(",")
            left = node()
            take(",")
            out = ("dsum", p, left, node())
        else:
            raise ValueError(f"unknown constructor {name!r} in {text!r}")
        take(")")
        return out

    tree = node()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return tree


def dim(node) -> int:
    kind = node[0]
    if kind == "lp":
        return node[2]
    if kind in ("sup", "fmod"):
        return node[1] * dim(node[2])
    return dim(node[2]) + dim(node[3])


def _combine(p: float, a: float, b: float) -> float:
    if p == INF:
        return max(a, b)
    return (a**p + b**p) ** (1.0 / p)


def norm(node, x) -> float:
    """The norm of x, from the definition of each constructor."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != dim(node):
        raise ValueError(f"{x.shape[0]} coordinates for dimension {dim(node)}")
    kind = node[0]
    if kind == "lp":
        p = node[1]
        if p == INF:
            return float(max(abs(v) for v in x))
        return float(sum(abs(v) ** p for v in x) ** (1.0 / p))
    if kind in ("sup", "fmod"):
        count, part = node[1], node[2]
        w = dim(part)
        return max(norm(part, x[i * w:(i + 1) * w]) for i in range(count))
    dl = dim(node[2])
    return _combine(node[1], norm(node[2], x[:dl]), norm(node[3], x[dl:]))


def polyhedral(node) -> bool:
    """True when every atom and every combiner has p in {1, inf}.

    One-dimensional atoms count as polyhedral whatever their p: the norm is |x|.
    """
    kind = node[0]
    if kind == "lp":
        return node[1] in (1.0, INF) or node[2] == 1
    if kind in ("sup", "fmod"):
        return polyhedral(node[2])
    return node[1] in (1.0, INF) and polyhedral(node[2]) and polyhedral(node[3])


def euclidean(node) -> bool:
    return node[0] == "lp" and node[1] == 2.0


def sup_slot_count(node) -> int:
    """Number of coordinates of a pure sup-norm space (every atom l_inf or 1-d).

    The partition bound 2/k of criterion 4 holds for k up to this count.
    """
    kind = node[0]
    if kind == "lp":
        if node[1] == INF or node[2] == 1:
            return node[2]
        raise ValueError("not a sup-norm space")
    if kind in ("sup", "fmod"):
        return node[1] * sup_slot_count(node[2])
    if node[1] != INF:
        raise ValueError("not a sup-norm space")
    return sup_slot_count(node[2]) + sup_slot_count(node[3])


# ---------------------------------------------------------------------------
# constrained set

def tuple_norms(node, n: int, g) -> Tuple[float, float]:
    """(sup-tuple norm, norm of the block mean) of an n-tuple g."""
    g = np.asarray(g, dtype=float).reshape(n, dim(node))
    sup = max(norm(node, g[i]) for i in range(n))
    return sup, norm(node, g.sum(axis=0) / n)


def tuple_space(node, n: int):
    return ("sup", n, node)


# ---------------------------------------------------------------------------
# hull distance

class _Lp:
    """Epigraph LP of a polyhedral norm of the residual z - G' lam."""

    def __init__(self, z: np.ndarray, G: np.ndarray):
        self.z, self.G = z, G
        self.nvar = G.shape[0]
        self.rows: List[Tuple[dict, float]] = []  # coef . x <= bound

    def var(self) -> int:
        self.nvar += 1
        return self.nvar - 1

    def residual(self, i: int):
        return ({j: -float(self.G[j, i]) for j in range(self.G.shape[0])}, float(self.z[i]))

    def at_most(self, expr, t: int, sign: float = 1.0) -> None:
        coef = {k: sign * c for k, c in expr[0].items()}
        coef[t] = coef.get(t, 0.0) - 1.0
        self.rows.append((coef, -sign * expr[1]))

    def bound(self, node, idx: Sequence[int]):
        """An expression that is >= the norm of the residual on idx, tight at the optimum."""
        kind = node[0]
        if kind == "lp" and (node[1] == INF or node[2] == 1):
            t = self.var()
            for i in idx:
                self.at_most(self.residual(i), t)
                self.at_most(self.residual(i), t, -1.0)
            return ({t: 1.0}, 0.0)
        if kind == "lp":  # p = 1
            total = {}
            for i in idx:
                u = self.var()
                self.at_most(self.residual(i), u)
                self.at_most(self.residual(i), u, -1.0)
                total[u] = 1.0
            return (total, 0.0)
        if kind in ("sup", "fmod"):
            count, part = node[1], node[2]
            w = dim(part)
            kids = [self.bound(part, idx[b * w:(b + 1) * w]) for b in range(count)]
        else:
            dl = dim(node[2])
            kids = [self.bound(node[2], idx[:dl]), self.bound(node[3], idx[dl:])]
            if node[1] == 1.0:
                total = {}
                for coef, _ in kids:
                    for k, c in coef.items():
                        total[k] = total.get(k, 0.0) + c
                return (total, 0.0)
        t = self.var()
        for kid in kids:
            self.at_most(kid, t)
        return ({t: 1.0}, 0.0)


def _lp_weights(node, z: np.ndarray, G: np.ndarray) -> np.ndarray:
    model = _Lp(z, G)
    root = model.bound(node, list(range(z.shape[0])))
    K, n = G.shape[0], model.nvar
    A = np.zeros((len(model.rows), n))
    b = np.empty(len(model.rows))
    for r, (coef, rhs) in enumerate(model.rows):
        for k, c in coef.items():
            A[r, k] += c
        b[r] = rhs
    c_obj = np.zeros(n)
    for k, c in root[0].items():
        c_obj[k] = c
    a_eq = np.zeros((1, n))
    a_eq[0, :K] = 1.0
    res = linprog(c_obj, A_ub=A, b_ub=b, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * n, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x[:K]


# weight of the simplex row in the NNLS system; the row's residual, and so
# the drift of sum(lam) from 1, shrinks like 1/weight^2
_SIMPLEX_WEIGHT = 1e4


def _nnls_weights(z: np.ndarray, G: np.ndarray) -> np.ndarray:
    A = np.vstack([G.T, np.full((1, G.shape[0]), _SIMPLEX_WEIGHT)])
    b = np.concatenate([z, [_SIMPLEX_WEIGHT]])
    lam, _ = nnls(A, b, maxiter=50 * A.shape[1])
    return lam


def hull_distance(node, z, G) -> Tuple[float, np.ndarray]:
    """Distance from z to the convex hull of the rows of G, and its weights.

    The weights are clipped and renormalized onto the simplex, so the
    distance returned is that of a genuine hull point.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if polyhedral(node):
        lam = _lp_weights(node, z, G)
    elif euclidean(node):
        lam = _nnls_weights(z, G)
    else:
        raise ValueError("no reference hull distance for a curved non-Euclidean norm")
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    return norm(node, z - lam @ G), lam


# ---------------------------------------------------------------------------
# the sign-flip pair of the reals

def zstar_distance(eps: float, k: int) -> float:
    """d(z*, C_k) for z* = (1, -1) in the reals, n = 2, alpha = 1.

    k = 1: 2 - 2 eps.  k >= 2: 1 - eps.  Derivation in README.md.
    """
    return 2.0 - 2.0 * eps if k == 1 else 1.0 - eps


# ---------------------------------------------------------------------------
# metric spaces on the line

def chain_points(q: float, levels: int) -> List[float]:
    """The points 0, q, q^2, ..., q^(levels-1) of the geometric chain."""
    return [0.0] + [q**i for i in range(1, levels)]


def seminorm(points: Sequence[float], values: Sequence[float], mask: Sequence[int]) -> float:
    """max |f(x) - f(y)| / |x - y| over distinct pairs of the mask (0 on one point)."""
    best = 0.0
    for a in mask:
        for b in mask:
            if a < b:
                best = max(best, abs(values[a] - values[b]) / abs(points[a] - points[b]))
    return best
