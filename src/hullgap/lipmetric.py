"""Finite pointed metric spaces and exact Lipschitz seminorms.

The seminorm here is the quotient seminorm (constants have seminorm 0): the
maximum of |f(x) - f(y)| / d(x, y) over pairs.  No base-point normalization
of function values is performed anywhere; every bound downstream is a
seminorm bound, and extensions are free to carry whatever offsets their
inputs had.  The base point (index 0) only anchors the generated spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import CapabilityRefusal, ParameterError, PreconditionError


# the most elements of one (block, N, N) array of the triangle sweep
_SWEEP_CAP = 2**16

# the most points of a metric that is built or read: its triangle sweep is
# cubic in the point count
MAX_POINTS = 2000


class MetricError(ValueError):
    """Distance matrix violates a metric axiom."""


class MetricFileError(MetricError):
    """Metric file failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateDomainError(ValueError):
    """A seminorm was requested on fewer than two points."""


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Pointed finite metric space given by its full distance matrix.

    The base point is index 0 by convention.  Construction validates all
    metric axioms including the full O(N^3) triangle sweep; a corrupted
    metric would silently invalidate every certificate built on it, so the
    cost is paid up front.  The sweep runs in blocks of middle points k:
    one block is one (block, N, N) comparison of d[i,j] > d[i,k] + d[k,j] +
    tol, with ``_SWEEP_CAP`` // N^2 points per block (at least one), so its
    temporaries stay under about 2^16 elements, and N > 256 sweeps one k at
    a time.  The first violation reported is the one of the smallest k,
    then the first (i, j) in row-major order, as a one-k sweep finds it.
    The stored matrix is symmetrised, (d + d^T) / 2, so both triangles hold
    the same floats.
    """

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        if n < 2:
            raise MetricError(f"need at least 2 points, got {n}")
        if not np.all(np.isfinite(d)):
            raise MetricError("distances must be finite")
        if np.any(np.diagonal(d) != 0.0):
            i = int(np.nonzero(np.diagonal(d))[0][0])
            raise MetricError(f"dist[{i}][{i}] = {d[i, i]} must be 0")
        scale = float(np.max(d))
        tol = 1e-12 * (1.0 + scale)
        if np.any(np.abs(d - d.T) > tol):
            i, j = map(int, np.argwhere(np.abs(d - d.T) > tol)[0])
            raise MetricError(f"asymmetry: dist[{i}][{j}]={d[i, j]} vs dist[{j}][{i}]={d[j, i]}")
        d = (d + d.T) / 2.0
        off = d + np.eye(n) * (1.0 + scale)
        if np.any(off <= 0.0):
            i, j = map(int, np.argwhere(off <= 0.0)[0])
            raise MetricError(f"dist[{i}][{j}] = {d[i, j]} must be positive for distinct points")
        block = max(1, _SWEEP_CAP // (n * n))
        for k0 in range(0, n, block):
            ks = slice(k0, k0 + block)
            # viol[b, i, j]: d[i, j] > d[i, k] + d[k, j] + tol for k = k0 + b
            viol = d > d[:, ks].T[:, :, None] + d[ks, None, :] + tol
            if np.any(viol):
                b, i, j = map(int, np.argwhere(viol)[0])
                k = k0 + b
                raise MetricError(
                    f"triangle inequality fails: dist[{i}][{j}]={d[i, j]} > "
                    f"dist[{i}][{k}]+dist[{k}][{j}]={d[i, k] + d[k, j]}"
                )
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])


@dataclass(frozen=True, eq=False)
class LipFunction:
    """Real function on (a masked subset of) a finite metric space.

    `values` always has one entry per point; entries outside the mask are
    carried but meaningless.  mask=None means the function is total.
    """

    values: np.ndarray
    mask: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", v)
        if self.mask is not None:
            m = tuple(sorted(set(int(i) for i in self.mask)))
            if not m:
                raise DegenerateDomainError("mask must not be empty")
            if m[0] < 0 or m[-1] >= v.shape[0]:
                raise ParameterError(f"mask index out of range: {m}")
            object.__setattr__(self, "mask", m)

    def mask_indices(self, M: FiniteMetricSpace) -> np.ndarray:
        self._check(M)
        if self.mask is None:
            return np.arange(M.size)
        return np.array(self.mask, dtype=int)

    def _check(self, M: FiniteMetricSpace) -> None:
        if self.values.shape[0] != M.size:
            raise ParameterError(
                f"function has {self.values.shape[0]} values but the space has {M.size} points"
            )


def lip_seminorm(M: FiniteMetricSpace, f: LipFunction) -> float:
    """Exact max of |f(x)-f(y)|/d(x,y) over unordered pairs in the mask.

    The quotients fill the whole masked matrix, divided only where the
    distance is positive (off the diagonal, which stays 0).  The stored
    distances are symmetric and |a - b| = |b - a| exactly, so each pair's
    two entries are the same float and the max is the one over i < j.
    """
    idx = f.mask_indices(M)
    if idx.shape[0] < 2:
        raise DegenerateDomainError(
            f"seminorm needs at least 2 points in the domain, got {idx.shape[0]}"
        )
    v = f.values[idx]
    dd = M.dist[idx][:, idx]
    q = np.divide(np.abs(v[:, None] - v[None, :]), dd, out=np.zeros(dd.shape), where=dd > 0.0)
    return float(q.max())


def restricted_seminorm(M: FiniteMetricSpace, f: LipFunction) -> float:
    """Seminorm over the mask, with the one-point mask allowed (it is 0)."""
    idx = f.mask_indices(M)
    if idx.shape[0] < 2:
        return 0.0
    return lip_seminorm(M, f)


def mcshane_extend(M: FiniteMetricSpace, f: LipFunction, L: float) -> LipFunction:
    """Inf-convolution extension: x -> min over mask p of f(p) + L*d(x,p).

    Requires L >= the restricted seminorm of f (checked; both values are
    reported on failure).  The result is total, agrees with f on the mask
    exactly, and has global seminorm <= L.
    """
    f._check(M)
    s = restricted_seminorm(M, f)
    if L < s:
        raise PreconditionError(
            f"extension constant L={L} is below the restricted seminorm {s}"
        )
    idx = f.mask_indices(M)
    ext = np.min(f.values[idx][None, :] + L * M.dist[:, idx], axis=1)
    ext[idx] = f.values[idx]
    return LipFunction(ext, mask=None)


def check_points(points: int) -> None:
    """Refuse a metric of more than ``MAX_POINTS`` points before it is built or read."""
    if points > MAX_POINTS:
        raise CapabilityRefusal(
            f"a metric of {points} points exceeds the cap of {MAX_POINTS}",
            report={"points": points, "cap": MAX_POINTS},
        )


def line_metric(points: Sequence[float]) -> FiniteMetricSpace:
    """Metric space of distinct reals with |x - y|, base point = points[0]."""
    pts = np.asarray(list(points), dtype=float)
    if len(set(pts.tolist())) != pts.shape[0]:
        raise ParameterError("line points must be distinct (check for underflow)")
    return FiniteMetricSpace(np.abs(pts[:, None] - pts[None, :]))


def geometric_chain(q: float, levels: int) -> FiniteMetricSpace:
    """Points {0, q, q^2, ..., q^(levels-1)} on the line, base point 0.

    q < 1/4 is recommended when the space is meant to carry ring families
    (documented, not enforced).
    """
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1), got {q}")
    if int(levels) != levels or levels < 2:
        raise ParameterError(f"levels must be an integer >= 2, got {levels}")
    pts = [0.0] + [q**i for i in range(1, int(levels))]
    if min(pts[1:]) == 0.0:
        raise ParameterError(f"q**{levels - 1} underflows to 0; reduce levels")
    return line_metric(pts)


def integer_ray(levels: int, a: float) -> FiniteMetricSpace:
    """Points {0, a, a^2, ..., a^(levels-1)} on the line, base point 0."""
    a = float(a)
    if not (a > 1.0):
        raise ParameterError(f"growth must exceed 1, got {a}")
    if int(levels) != levels or levels < 2:
        raise ParameterError(f"levels must be an integer >= 2, got {levels}")
    try:
        pts = [0.0] + [a**i for i in range(1, int(levels))]
        finite = bool(np.isfinite(pts[-1]))
    except OverflowError:  # a float power past the float range raises
        finite = False
    if not finite:
        raise ParameterError(f"a**{levels - 1} overflows; reduce levels")
    return line_metric(pts)


# ---------------------------------------------------------------------------
# file format: first line N, then N lines of N space-separated reals


def dump_metric(M: FiniteMetricSpace) -> str:
    lines = [str(M.size)]
    for row in M.dist:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _read_metric(lines: Iterable[str]) -> FiniteMetricSpace:
    """A metric from its lines, taken one at a time: the header is checked before any row is read."""
    content = ((no, ln.strip()) for no, ln in enumerate(lines, 1) if ln.strip())
    no0, head = next(content, (1, ""))
    if not head:
        raise MetricFileError("empty metric file", line=1)
    try:
        n = int(head)
    except ValueError:
        raise MetricFileError(f"expected the point count, got {head!r}", line=no0)
    if n < 2:
        raise MetricFileError(f"point count must be >= 2, got {n}", line=no0)
    check_points(n)
    rows = list(content)
    if len(rows) != n:
        raise MetricFileError(
            f"expected {n} matrix rows, found {len(rows)}", line=rows[-1][0] if rows else no0
        )
    mat = np.zeros((n, n))
    for r, (no, ln) in enumerate(rows):
        entries = ln.split()
        if len(entries) != n:
            raise MetricFileError(f"expected {n} entries, found {len(entries)}", line=no)
        try:
            mat[r] = [float(e) for e in entries]
        except ValueError as exc:
            raise MetricFileError(f"bad number: {exc}", line=no)
    return FiniteMetricSpace(mat)


def parse_metric(text: str) -> FiniteMetricSpace:
    return _read_metric(text.splitlines())


def load_metric(path) -> FiniteMetricSpace:
    """Read a metric file line by line, so an oversized one is refused from its header."""
    with open(path, "r", encoding="utf-8") as fh:
        # splitting each line again breaks it where parse_metric's splitlines does
        return _read_metric(part for line in fh for part in line.splitlines())
