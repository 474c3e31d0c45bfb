"""Restricted parameter sets, discrete grids, and equivalence constants.

A restricted set is a Borel subset of [1, inf) containing 1, stored as a
merged union of closed segments (isolated points are degenerate
segments).  A grid is a strictly increasing sequence q(1)=1, q(2), ...
that conceptually continues to infinity; only finitely many values are
materialized, with an optional generator to extend on demand.

The equivalence constants quantify how much of the full norm a
restriction can lose:

    Z  = sup_p psi(p+(p)) / psi(p)           over gaps of the set
    W  = sup_m psi(q(m+1)) / psi(q(m))        consecutive grid ratios
    W^ = sup_m psi(q(m+1)) / min_{A(m)} psi   cell-minimum variant,
                                              valid without monotonicity

where p+(p) is the smallest element of the set that is >= p and A(m) is
the cell [q(m), q(m+1)].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonMonotoneError, TruncationError
from .generating import GeneratingFunction, psi_values
from .models import _check_finite
from .search import sampled_min

_EXTEND_CAP = 200000
# Z on a generator-backed set also reads this many gaps past the stored points
_Z_TAIL_TERMS = 8


class GridSequence:
    """Strictly increasing grid q(1)=1 < q(2) < ... with optional tail."""

    def __init__(self, values, description="grid:custom", generator: Optional[Callable[[int], float]] = None):
        vals = np.asarray(values, dtype=float).ravel()
        if vals.size < 1:
            raise DomainError("a grid needs at least one point")
        if vals[0] != 1.0:
            raise DomainError(f"grids must start at q(1)=1, got {vals[0]}")
        _check_finite(vals, description)
        if np.any(np.diff(vals) <= 0):
            raise NonMonotoneError("grid values must be strictly increasing")
        self.values = vals
        self.description = description
        self.generator = generator

    @property
    def M(self) -> int:
        return int(self.values.size)

    def value_at(self, m: int) -> float:
        """q(m), 1-based; beyond the stored range the generator extends."""
        if m < 1:
            raise DomainError("grid indices are 1-based")
        if m <= self.M:
            return float(self.values[m - 1])
        if self.generator is None:
            raise TruncationError(f"grid stores {self.M} points and has no generator for m={m}")
        q = self._extended(m)
        if not math.isfinite(q):
            raise TruncationError(f"{self.description}: q({m}) overflows a float")
        return q

    def _extended(self, m: int) -> float:
        """q(m) from the generator, inf where it overflows a float."""
        try:
            return float(self.generator(m))
        except OverflowError:
            return math.inf

    def truncated(self, M: int) -> "GridSequence":
        """The grid's first M points, with its description and generator; a
        prefix of checked values is not checked again."""
        if not 1 <= M <= self.M:
            raise DomainError(f"cannot truncate a {self.M}-point grid to M={M}")
        q = GridSequence.__new__(GridSequence)
        q.values, q.description, q.generator = self.values[:M], self.description, self.generator
        return q

    def first_index_at_least(self, p: float) -> int:
        """Smallest m with q(m) >= p; extends through the generator."""
        m = self._first_index(p, lambda q: q < p)
        if m > self.M and not math.isfinite(self._extended(m)):
            raise TruncationError(f"{self.description} overflows a float at q({m}) before reaching {p:g}")
        return m

    def last_index_at_most(self, p: float) -> int:
        """Largest m with q(m) <= p, 0 for p < 1; extends through the
        generator, and stops below the first q(m) that overflows a float."""
        return self._first_index(p, lambda q: (q <= p) & (q < math.inf)) - 1

    def _first_index(self, p: float, before) -> int:
        """Smallest m where ``before(q(m))`` fails, for a ``before`` that
        holds on the grid's first points and no later ones; an overflowing
        q(m) reads as inf.  ``before`` takes a float or the stored array."""
        if math.isnan(p):
            raise DomainError(f"{self.description}: no grid index for p={p}")
        if not before(self.values[-1]):
            return int(np.count_nonzero(before(self.values))) + 1
        if self.generator is None:
            raise TruncationError(
                f"{self.description} is truncated at q({self.M})={self.values[-1]:g} < {p:g}"
            )
        # grids diverge, so doubling then bisecting terminates quickly
        lo, hi = self.M, 2 * self.M
        while before(self._extended(hi)):
            lo, hi = hi, 2 * hi
            if hi > _EXTEND_CAP:
                raise TruncationError(f"{self.description} did not reach {p:g} within {_EXTEND_CAP} terms")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if before(self._extended(mid)) else (lo, mid)
        return hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GridSequence({self.description}, M={self.M})"


def geometric_grid(D: int, M: int) -> GridSequence:
    """q(m) = D^m - D + 1 for an integer ratio D >= 2; q(1) = 1."""
    if float(D) != int(D) or int(D) < 2:
        raise DomainError(f"geometric grids need an integer D >= 2, got {D}")
    D = float(int(D))
    if M < 1:
        raise DomainError("M must be positive")
    description = f"grid:geometric:D={D:g}:M={M}"
    try:
        math.pow(D, M)
    except OverflowError:
        raise DomainError(f"{description}: q(M) = D^M - D + 1 overflows a float; lower M") from None
    values = D ** np.arange(1, M + 1, dtype=float) - D + 1.0
    return GridSequence(values, description, generator=lambda m: D**m - D + 1.0)


def integer_grid(M: int) -> GridSequence:
    """q(m) = m."""
    if M < 1:
        raise DomainError("M must be positive")
    return GridSequence(np.arange(1, M + 1, dtype=float), f"grid:integers:M={M}", generator=float)


class RestrictedSet:
    """Borel subset of [1, inf) containing 1, as merged closed segments."""

    def __init__(
        self,
        segments,
        description="set:custom",
        grid: Optional[GridSequence] = None,
        windowed_at: Optional[float] = None,
    ):
        segs = sorted((float(a), float(b)) for a, b in segments)
        for a, b in segs:
            if not (a >= 1.0 and a <= b):
                raise DomainError(f"segment [{a:g}, {b:g}] must satisfy 1 <= a <= b")
            if a == math.inf:
                raise DomainError(f"segment [{a:g}, {b:g}] must start at a finite p")
        merged = []
        for a, b in segs:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        if not merged or merged[0][0] != 1.0:
            raise DomainError("restricted sets must contain p = 1")
        self._lo = np.array([s[0] for s in merged])
        self._hi = np.array([s[1] for s in merged])
        self.description = description
        self.grid = grid
        self.windowed_at = windowed_at

    @classmethod
    def full(cls) -> "RestrictedSet":
        return cls([(1.0, math.inf)], "full")

    @classmethod
    def from_intervals(cls, intervals, description=None) -> "RestrictedSet":
        if description is None:
            parts = ",".join(f"{a:g}-{'inf' if math.isinf(b) else format(b, 'g')}" for a, b in intervals)
            description = f"intervals:{parts}"
        return cls(intervals, description)

    @classmethod
    def from_grid(cls, grid: GridSequence) -> "RestrictedSet":
        return cls([(v, v) for v in grid.values], grid.description, grid=grid)

    @property
    def segments(self):
        return list(zip(self._lo.tolist(), self._hi.tolist()))

    @property
    def sup_value(self) -> float:
        return math.inf if self.grid is not None and self.grid.generator is not None else float(self._hi[-1])

    def contains(self, p):
        arr = np.asarray(p, dtype=float)
        flat = np.atleast_1d(arr)
        res = flat >= 1.0
        res[res] = self.p_plus(flat[res]) == flat[res]
        return bool(res[0]) if arr.ndim == 0 else res.reshape(arr.shape)

    def p_plus(self, p):
        """Smallest element of the set that is >= p (inf if none).

        Past the stored points of a grid-backed set the grid is read, not
        copied in: a query never changes the set."""
        arr = np.asarray(p, dtype=float)
        flat = np.atleast_1d(arr).astype(float)
        if not (flat >= 1.0).all():
            raise DomainError("p_plus is defined for p >= 1")
        idx = np.searchsorted(self._hi, flat, side="left")
        out = np.full(flat.shape, math.inf)
        ok = idx < self._hi.size
        out[ok] = np.maximum(flat[ok], self._lo[idx[ok]])
        if self.grid is not None and self.grid.generator is not None:
            for k in np.flatnonzero(~ok):
                out[k] = self.grid.value_at(self.grid.first_index_at_least(flat[k]))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def window_point(self, p_max: float) -> float:
        """Smallest set element >= p_max, used to truncate comparisons."""
        P = self.p_plus(p_max)
        if math.isinf(P):
            raise TruncationError(
                f"{self.description} has no elements >= {p_max:g}; lower p_max to at most {self.sup_value:g}"
            )
        return P

    def window(self, p_max: float) -> "RestrictedSet":
        """Intersection with [1, P], P = window_point(p_max), with its
        errors.  P belongs to the set, so every p <= P keeps its p_plus
        inside the window, and Z of the result is a valid constant for the
        truncated sandwich.  Where p_max falls in a stored segment, P is
        read off that segment, the first whose end reaches p_max, without
        a p_plus call; the ends are cut at P by _ends_to, which reads a
        grid-backed set on past its stored points.  They come merged and in
        order, so they are not sorted, merged or checked again."""
        p_max = float(p_max)
        k = int(np.searchsorted(self._hi, p_max))
        if 1.0 <= p_max < math.inf and k < self._hi.size:
            P = max(p_max, float(self._lo[k]))
        else:
            P = self.window_point(p_max)
        W = RestrictedSet.__new__(RestrictedSet)
        W._lo, W._hi = self._ends_to(P)
        W.description, W.grid, W.windowed_at = f"{self.description}|p<={P:g}", None, P
        return W

    def _ends_to(self, P: float) -> tuple:
        """The arrays (lo, hi) of the ends of the segments that meet [1, P],
        cut at P.  A grid-backed set is read on through its grid's
        generator, past its stored points, to its last point at or below P
        (a TruncationError where the grid neither passes P nor overflows
        within _EXTEND_CAP terms)."""
        k = int(np.count_nonzero(self._lo <= P))
        lo, hi = self._lo[:k], np.minimum(self._hi[:k], P)
        if P > self._hi[-1] and self.grid is not None and self.grid.generator is not None:
            tail = range(self.grid.M + 1, self.grid.last_index_at_most(P) + 1)
            points = np.array([self.grid.value_at(m) for m in tail], dtype=float)
            lo, hi = np.concatenate((lo, points)), np.concatenate((hi, points))
        return lo, hi

    def gaps(self):
        """Open gaps (hi_k, lo_{k+1}) between consecutive segments."""
        return list(zip(*(ends.tolist() for ends in self._gap_ends())))

    def _gap_ends(self) -> tuple:
        """gaps() as the arrays of the gaps' left and right ends."""
        b, a = self._hi[:-1], self._lo[1:]
        gap = a > b
        return b[gap], a[gap]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RestrictedSet({self.description})"


# ---------------------------------------------------------------------------
# Equivalence constants

@dataclass(frozen=True)
class EquivalenceConstant:
    """A computed Z / W / W^ value with its witness location.

    ``arg`` is the left endpoint of the achieving gap (Z) or the 1-based
    achieving cell index (W, W^).  ``tail_ratio`` reports the last
    computed ratio so callers can notice a supremum that is still
    climbing at the truncation point (``tail_increasing``).
    """

    kind: str
    value: float
    arg: float
    unbounded: bool = False
    tail_ratio: Optional[float] = None
    tail_increasing: bool = False

    def __float__(self) -> float:
        return self.value


# geometric sample points of _check_monotone's test on [1, end]
_MONOTONE_POINTS = 1000


def _check_monotone(psi: GeneratingFunction, end: float, advice: str) -> None:
    """Pass when psi declares itself its own envelope (nondecreasing), or
    else is nondecreasing on _MONOTONE_POINTS geometric samples of
    [1, end]: the Z and W constants judge a finite window, so a sampled
    test serves them.  Otherwise a NonMonotoneError naming the window,
    then ``advice``; a window of one point, end <= 1, is a DomainError."""
    if psi.nondecreasing:
        return
    if not end > 1.0:
        raise DomainError(f"{psi.description}: the monotone test needs a window [1, end] with end > 1, got {end:g}")
    ps = np.geomspace(1.0, end, _MONOTONE_POINTS)
    ps[0] = 1.0
    # the evaluator, not psi_eval: a value psi_eval rejects (0, inf) is compared, not raised
    if not (np.diff(np.asarray(psi.evaluator(ps), dtype=float)) >= 0).all():
        raise NonMonotoneError(f"{psi.description} is not nondecreasing on [1, {end:g}]; {advice}")


def _grid_constant(kind: str, ratios: np.ndarray, args: Optional[np.ndarray] = None, least=None) -> EquivalenceConstant:
    """Z, W or W^ from its per-cell ratios and per-cell ``args`` (the 1-based
    cell index where None): the first maximum, at least ``least`` where
    given, and the tail evidence."""
    idx = int(ratios.argmax())
    value = float(ratios[idx])
    tail_increasing = ratios.size >= 3 and ratios[-1] > ratios[-2] > ratios[-3]
    return EquivalenceConstant(
        kind=kind,
        value=value if least is None else max(least, value),
        arg=float(idx + 1 if args is None else args[idx]),
        tail_ratio=float(ratios[-1]),
        tail_increasing=bool(tail_increasing),
    )


def z_constant(S: RestrictedSet, psi: GeneratingFunction) -> EquivalenceConstant:
    """Z = sup_p psi(p+(p))/psi(p), by structural analysis of the gaps.

    Inside a segment p+(p) = p, so only the gaps contribute.  Over a gap
    (b, a) the supremum of psi(a)/psi(p) is the limit value psi(a)/psi(b)
    as p drops to b (psi continuous and nondecreasing); the closed-form
    gap analysis therefore requires psi to be declared nondecreasing or
    sampled nondecreasing up to the last gap end, and rejects anything
    else (the W^ machinery covers non-monotone psi).  A bounded set has
    nothing beyond its last point, so p_plus diverges there and Z = +inf
    with an unbounded-gap marker.  psi is evaluated at every gap's two
    ends in one call (psi_values: the ends are set elements, at least 1),
    the right ends first, so that a psi value that is not finite and
    positive is named where the right ends, then the left ones, meet it
    first.
    """
    b, a = S._gap_ends()
    extended = S.grid is not None and S.grid.generator is not None
    if extended:
        # the stored points are a truncation; extend a few gaps past the
        # end so the reported tail ratio reflects the true sequence
        last = S.grid.M
        ext = np.array([S.grid.value_at(m) for m in range(last, last + _Z_TAIL_TERMS + 1)])
        b, a = np.concatenate((b, ext[:-1])), np.concatenate((a, ext[1:]))
    if a.size:
        # gaps run in increasing order, so the last one ends highest
        _check_monotone(
            psi, float(a[-1]), "the gap analysis for Z needs monotone psi (use the W^ cell-minimum machinery instead)"
        )
    if not extended and math.isfinite(S.sup_value) and S.windowed_at is None:
        # nothing beyond the last point: p_plus diverges there, so no
        # finite Z compares the set against the untruncated full norm
        return EquivalenceConstant(
            kind="Z",
            value=math.inf,
            arg=S.sup_value,
            unbounded=True,
        )
    if not a.size:
        return EquivalenceConstant(kind="Z", value=1.0, arg=1.0)
    ends = psi_values(psi, np.concatenate((a, b)))
    return _grid_constant("Z", ends[: a.size] / ends[a.size :], b, least=1.0)


def w_constant(q: GridSequence, psi: GeneratingFunction) -> EquivalenceConstant:
    """W = max_m psi(q(m+1))/psi(q(m)) over the stored grid, from one call
    of psi at its values (psi_values: a grid's values are at least 1)."""
    if q.M < 2:
        raise DomainError("W needs at least two grid points")
    vals = psi_values(psi, q.values)
    return _grid_constant("W", vals[1:] / vals[:-1])


def w_hat_constant(q: GridSequence, psi: GeneratingFunction) -> EquivalenceConstant:
    """W^ = max_m psi(q(m+1)) / min over the cell A(m) of psi.

    The cell minima come from one sampled_min call over all cells,
    256 samples per cell polished by local refinement, so for
    increasing psi this reproduces W exactly (the minimum sits at the
    left endpoint, which is a sample).  Valid for non-monotone
    generating functions, where W is not.

    W^ depends on psi and the grid values only, never on a model, and
    its minima search costs more than a W^ sandwich's norm search, so it
    is computed once per (psi, cell ends) per process: the result is
    memoized on psi and the bytes of the grid values (_w_hat_memo), which
    keeps the 32 most recent psi alive (and the model of a natural psi).
    Two psi share an entry only when they compare equal (the same
    evaluator object, description and envelope).  An error is not
    memoized, and a psi that cannot be hashed (an unhashable evaluator or
    envelope) is computed every time.
    """
    if q.M < 2:
        raise DomainError("W^ needs at least two grid points")
    try:
        hash(psi)
    except TypeError:
        return _w_hat(psi, q.values)
    return _w_hat_memo(psi, q.values.tobytes())


def _w_hat(psi: GeneratingFunction, v: np.ndarray) -> EquivalenceConstant:
    """W^ of psi over the cells between consecutive values of ``v``, psi
    read by psi_values: every p of a cell is at least 1."""
    mins = sampled_min(lambda p: psi_values(psi, p), v[:-1], v[1:])
    return _grid_constant("W_hat", psi_values(psi, v[1:]) / mins)


@functools.lru_cache(maxsize=32)
def _w_hat_memo(psi: GeneratingFunction, ends: bytes) -> EquivalenceConstant:
    """_w_hat of the grid values whose bytes are ``ends``."""
    return _w_hat(psi, np.frombuffer(ends))
