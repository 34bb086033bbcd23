"""Finite-dimensional normed spaces: descriptors, vectors, exact norms.

A space is described by a small recursive grammar of building blocks:

* ``LpFinite(p, d)`` -- the d-dimensional l_p space, 1 <= p <= inf;
* ``SupTuple(n, inner)`` -- n-tuples of inner-space elements with the
  max-of-norms norm (the ambient space every hull computation lives in);
* ``DirectSum(p, left, right)`` -- two summands combined by the l_p norm
  of their part norms;
* ``FunctionModule(base_size, fiber)`` -- sections over a finite discrete
  base with the sup-over-base norm of fiber norms.

Every composite is the l_p norm of its parts' norms: a sup tuple or a
module is n copies of one part under p = inf, a direct sum is two parts
under its own p.  ``parts()`` is the one place that knows this layout;
every walker here, and the norm-plan compiler in ``hullgeom``, handles the
``LpFinite`` atom and the composite ``(p, parts)`` and nothing else.

Vectors are flat coordinate arrays; the space descriptor drives the block
interpretation.  ``p = inf`` is the ``math.inf`` marker and infinity norms
are always computed by ``max``, never by large-exponent powers.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

INF = math.inf


class DimensionMismatch(ValueError):
    """Vector length does not match the space's coordinate dimension."""


class SpaceGrammarError(ValueError):
    """A space-grammar string failed to parse."""


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"p must lie in [1, inf], got {p}")
    return p


@dataclass(frozen=True)
class LpFinite:
    p: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))


@dataclass(frozen=True)
class SupTuple:
    n: int
    inner: "Space"

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"arity must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class DirectSum:
    p: float
    left: "Space"
    right: "Space"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))


@dataclass(frozen=True)
class FunctionModule:
    base_size: int
    fiber: "Space"

    def __post_init__(self):
        if int(self.base_size) != self.base_size or self.base_size < 1:
            raise ValueError(f"base size must be a positive integer, got {self.base_size}")
        object.__setattr__(self, "base_size", int(self.base_size))


Space = Union[LpFinite, SupTuple, DirectSum, FunctionModule]


@functools.lru_cache(maxsize=None)
def parts(space: Space) -> Tuple[float, Tuple[Tuple[int, Space], ...]]:
    """Layout of a composite space: (p, ((offset, part), ...)).

    The norm is the l_p norm of the parts' norms, each part reading the
    coordinates from its offset on.  Atoms have no parts.
    """
    if isinstance(space, SupTuple):
        copies, part = space.n, space.inner
    elif isinstance(space, FunctionModule):
        copies, part = space.base_size, space.fiber
    elif isinstance(space, DirectSum):
        return space.p, ((0, space.left), (dim(space.left), space.right))
    else:
        raise TypeError(f"not a composite space: {space!r}")
    step = dim(part)
    return INF, tuple((k * step, part) for k in range(copies))


def combine(p: float, values: Sequence[float]) -> float:
    """The l_p norm of the part values (a plain max for inf, a plain sum for 1)."""
    if p == INF:
        return max(values)
    if p == 1.0:
        return sum(values)
    return float(np.linalg.norm(values, ord=p))


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


def norm(space: Space, v) -> float:
    """Exact norm of v in the given space (absolutely homogeneous, subadditive)."""
    return _norm_arr(space, as_coords(space, v))


def _norm_arr(space: Space, x: np.ndarray) -> float:
    if isinstance(space, LpFinite):
        if space.p == INF:
            return float(np.max(np.abs(x)))
        return float(np.linalg.norm(x, ord=space.p))
    p, subs = parts(space)
    return combine(p, [_norm_arr(part, x[off : off + dim(part)]) for off, part in subs])


def mean_block(space: SupTuple, z) -> np.ndarray:
    """Arithmetic mean (1/n) * sum of the n blocks, as coordinates of the inner space."""
    if not isinstance(space, SupTuple):
        raise TypeError(f"mean_block needs a SupTuple space, got {format_space(space)}")
    x = as_coords(space, z)
    di = dim(space.inner)
    return x.reshape(space.n, di).mean(axis=0)


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


def _unit(space: Space, x: np.ndarray) -> Optional[np.ndarray]:
    n = _norm_arr(space, x)
    if n == 0.0 or not math.isfinite(n):
        return None
    y = x / n
    n2 = _norm_arr(space, y)
    if n2 > 1.0:
        y = y / n2
    return y


def sample_unit_ball(space: Space, count: int, seed: int) -> np.ndarray:
    """Deterministic sample of `count` vectors with norm <= 1, as (count, dim) rows.

    Sign-pattern vertices (normalized) come first, then normalized +-basis
    vectors, then seeded random directions normalized to the unit sphere.
    For a fixed seed the returned array is identical across calls.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    D = dim(space)
    rng = np.random.default_rng(seed)
    out: List[np.ndarray] = []
    seen = set()

    def push_structured(x: np.ndarray) -> None:
        u = _unit(space, x)
        if u is None:
            return
        key = tuple(np.round(u, 12))
        if key in seen:
            return
        seen.add(key)
        out.append(u)

    # sign-pattern vertices; bit 0 -> +1 so (1, 1, ..., 1) comes first
    for code in range(min(2 ** min(D, 12), 4096)):
        if len(out) >= count:
            break
        s = np.array([1.0 if not (code >> i) & 1 else -1.0 for i in range(D)])
        push_structured(s)
    for i in range(D):
        if len(out) >= count:
            break
        e = np.zeros(D)
        e[i] = 1.0
        push_structured(e)
        if len(out) < count:
            push_structured(-e)
    while len(out) < count:
        g = rng.standard_normal(D)
        u = _unit(space, g)
        if u is not None:
            out.append(u)
    return np.stack(out[:count])


# ---------------------------------------------------------------------------
# one-line text grammar:  lp(2,8) | sup(3, lp(inf,4)) | dsum(1, A, B) | fmod(8, A)

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]+)|(?P<num>-?\d+(?:\.\d+)?)|(?P<punct>[(),]))")


def _tokenize(text: str):
    pos = 0
    toks = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise SpaceGrammarError(f"bad character at position {pos}: {text[pos:pos+8]!r}")
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def take(self, kind: str, want: Optional[str] = None):
        k, v, pos = self.peek()
        if k != kind or (want is not None and v != want):
            expect = want or kind
            raise SpaceGrammarError(f"expected {expect!r} at position {pos} in {self.text!r}")
        self.i += 1
        return v

    def p_value(self) -> float:
        k, v, pos = self.peek()
        if k == "name" and v == "inf":
            self.i += 1
            return INF
        if k == "num":
            self.i += 1
            return float(v)
        raise SpaceGrammarError(f"expected a p value or 'inf' at position {pos}")

    def int_value(self) -> int:
        k, v, pos = self.peek()
        if k != "num" or "." in v or v.startswith("-"):
            raise SpaceGrammarError(f"expected a positive integer at position {pos}")
        self.i += 1
        return int(v)

    def space(self) -> Space:
        k, name, pos = self.peek()
        if k != "name":
            raise SpaceGrammarError(f"expected a space constructor at position {pos}")
        self.i += 1
        self.take("punct", "(")
        try:
            if name == "lp":
                p = self.p_value()
                self.take("punct", ",")
                d = self.int_value()
                result: Space = LpFinite(p, d)
            elif name == "sup":
                n = self.int_value()
                self.take("punct", ",")
                result = SupTuple(n, self.space())
            elif name == "dsum":
                p = self.p_value()
                self.take("punct", ",")
                left = self.space()
                self.take("punct", ",")
                result = DirectSum(p, left, self.space())
            elif name == "fmod":
                N = self.int_value()
                self.take("punct", ",")
                result = FunctionModule(N, self.space())
            else:
                raise SpaceGrammarError(
                    f"unknown constructor {name!r} at position {pos} "
                    f"(expected lp, sup, dsum or fmod)"
                )
        except ValueError as exc:
            if isinstance(exc, SpaceGrammarError):
                raise
            raise SpaceGrammarError(f"invalid parameters for {name} at position {pos}: {exc}")
        self.take("punct", ")")
        return result


def parse_space(text: str) -> Space:
    """Parse the one-line space grammar, e.g. ``sup(3, lp(inf,4))``."""
    parser = _Parser(text)
    result = parser.space()
    k, _, pos = parser.peek()
    if k is not None:
        raise SpaceGrammarError(f"trailing input at position {pos} in {text!r}")
    return result


def _fmt_p(p: float) -> str:
    if p == INF:
        return "inf"
    if p == int(p):
        return str(int(p))
    return repr(p)


def format_space(space: Space) -> str:
    """Inverse of parse_space (used in reports and error messages)."""
    if isinstance(space, LpFinite):
        return f"lp({_fmt_p(space.p)},{space.d})"
    if isinstance(space, SupTuple):
        return f"sup({space.n}, {format_space(space.inner)})"
    if isinstance(space, DirectSum):
        return f"dsum({_fmt_p(space.p)}, {format_space(space.left)}, {format_space(space.right)})"
    if isinstance(space, FunctionModule):
        return f"fmod({space.base_size}, {format_space(space.fiber)})"
    raise TypeError(f"not a space: {space!r}")
