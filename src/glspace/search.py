"""Supremum search: one batched scan plus golden-section refinement.

Nothing here assumes unimodality.  A search covers one or more rows
(segments or cells), each sampled on its own increasing grid, and ``f``
is evaluated on every row in one array call.  Every local maximum of a
row (plateaus and endpoints included) is bracketed by its scan
neighbours and refined by golden section.  Several brackets refine in
lockstep, one array call of ``f`` per iteration (Kiefer, "Sequential
minimax search for a maximum", Proc. AMS 1953); a search with only a few
brackets refines each one with the scalar golden_section_max, which is
cheaper than numpy bookkeeping on a few-element array.  Both use the same
update rule, stopping width and tie-break, so they give bit-identical
results.  The best value of a row wins, with ties broken toward the
smallest argument so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Searches with at most this many brackets refine them one by one with the
# scalar golden_section_max; more go lockstep.  Timed on 64-point rows with
# one bracket each (Python 3.11, NumPy 2.4, CPU time, median of 25 rounds),
# lockstep becomes the cheaper path at 6-7 brackets for a Gaussian ratio
# and at about 4 for a ratio of moments on a group of order 12.
SCALAR_BRACKETS = 4

# refinement stops once a bracket is narrower than this, relative to the
# magnitude of its ends; _MAX_ITER only stops a runaway loop, since 200
# golden steps shrink a bracket by a factor of about 1e-42
_REFINE_TOL = 1e-10
_MAX_ITER = 200
# sampled_min: samples per interval, and its (tighter) refinement tolerance
_MIN_SAMPLES = 256
_MIN_TOL = 1e-12


@dataclass(frozen=True)
class SupremumResult:
    """Outcome of a supremum search.

    value / arg are the best function value and where it was found.
    decreasing_at_hi reports whether the sampled values were strictly
    decreasing at the right edge of the search interval, which is the
    evidence that truncating the interval there was harmless.
    """

    value: float
    arg: float
    decreasing_at_hi: bool
    n_evaluations: int

    def __float__(self) -> float:
        return self.value


class RowSupremum(NamedTuple):
    """Per-row outcome of sup_rows; see SupremumResult for the fields.
    ``n_evaluations`` counts every point ``f`` saw, over all rows."""

    values: np.ndarray
    args: np.ndarray
    decreasing_at_hi: np.ndarray
    n_evaluations: int


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = _REFINE_TOL,
) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi].

    Returns (arg, value) of the best point actually evaluated, endpoints
    included, so a maximum sitting on the boundary is never lost.  The
    interval shrinks until its width drops below ``tol`` relative to the
    magnitude of ``lo``/``hi`` (absolute for small arguments).
    """
    if hi < lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    best_x, best_v = lo, f(lo)
    v = f(hi)
    if v > best_v:
        best_x, best_v = hi, v
    a, b = lo, hi
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    width_tol = tol * max(1.0, abs(lo), abs(hi))
    for _ in range(_MAX_ITER):
        if (b - a) <= width_tol:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = f(x1)
            x, v = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = f(x2)
            x, v = x2, f2
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v
    return best_x, best_v


def _golden_lockstep(f, lo, f_lo, hi, f_hi, tol: float):
    """golden_section_max on every bracket [lo[k], hi[k]] at once.

    ``f_lo`` / ``f_hi`` are the values already known at the bracket ends.
    Each iteration moves every bracket still wider than its stopping
    width and evaluates ``f`` once on the array of new points.  Returns
    (args, values, number of points evaluated).
    """
    best_x, best_v = lo.copy(), f_lo.copy()
    up = f_hi > best_v
    best_x[up], best_v[up] = hi[up], f_hi[up]
    a, b = lo.copy(), hi.copy()
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    k = lo.size
    f12 = _eval_array(f, np.concatenate([x1, x2]))
    f1, f2 = f12[:k], f12[k:]
    n_eval = 2 * k
    width_tol = tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    for _ in range(_MAX_ITER):
        act = np.flatnonzero(b - a > width_tol)
        if act.size == 0:
            break
        go_left = f1[act] >= f2[act]
        L, R = act[go_left], act[~go_left]
        b[L], x2[L], f2[L] = x2[L], x1[L], f1[L]
        x1[L] = b[L] - INV_PHI * (b[L] - a[L])
        a[R], x1[R], f1[R] = x1[R], x2[R], f2[R]
        x2[R] = a[R] + INV_PHI * (b[R] - a[R])
        x = np.where(go_left, x1[act], x2[act])
        v = _eval_array(f, x)
        n_eval += act.size
        f1[L], f2[R] = v[go_left], v[~go_left]
        better = (v > best_v[act]) | ((v == best_v[act]) & (x < best_x[act]))
        won = act[better]
        best_x[won], best_v[won] = x[better], v[better]
    return best_x, best_v, n_eval


def sup_rows(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, refine_tol: float = _REFINE_TOL) -> RowSupremum:
    """Supremum of ``f`` over each row of the scan grid ``xs``.

    Each row is an increasing grid whose first and last points are the
    ends of its interval.  ``f`` sees all rows in one array call; every
    local maximum of a row is then refined inside the cell spanned by
    its scan neighbours.  Lockstep refinement reuses the scan values at
    the bracket ends; up to SCALAR_BRACKETS brackets go one by one to
    golden_section_max, which evaluates them again.  Refinement never
    loses the scan value it started from.  A NaN value of ``f`` raises
    DomainError naming the first p where it occurred.
    """
    rows, n = xs.shape
    ys = _eval_array(f, xs.ravel()).reshape(rows, n)
    pad = np.full((rows, 1), -np.inf)
    peak = (ys >= np.hstack([pad, ys[:, :-1]])) & (ys >= np.hstack([ys[:, 1:], pad]))
    r, i = np.nonzero(peak)
    il, ih = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
    bl, bh = xs[r, il], xs[r, ih]
    cand_x, cand_v = xs[r, i], ys[r, i]
    n_eval = xs.size
    k = np.flatnonzero(bh > bl)
    if k.size <= SCALAR_BRACKETS:
        count = [0]

        def refine_f(x: float) -> float:
            count[0] += 1
            return _eval_scalar(f, x)

        refined = [golden_section_max(refine_f, bl[j], bh[j], tol=refine_tol) for j in k]
        ref_x, ref_v = np.array(refined, dtype=float).reshape(-1, 2).T
        n_eval += count[0]
    else:
        ref_x, ref_v, n_ref = _golden_lockstep(
            f, bl[k], ys[r[k], il[k]], bh[k], ys[r[k], ih[k]], refine_tol
        )
        n_eval += n_ref
    keep = ~(cand_v[k] > ref_v)
    cand_x[k[keep]], cand_v[k[keep]] = ref_x[keep], ref_v[keep]
    # per row: largest value, then smallest arg; every row has a peak
    order = np.lexsort((cand_x, -cand_v, r))
    first = order[np.diff(r[order], prepend=-1) != 0]
    if n >= 3:
        decreasing = (ys[:, -3] > ys[:, -2]) & (ys[:, -2] > ys[:, -1])
    else:
        decreasing = np.zeros(rows, dtype=bool)
    return RowSupremum(cand_v[first], cand_x[first], decreasing, int(n_eval))


def grid_refine_supremum(
    f: Callable[[np.ndarray | float], np.ndarray | float],
    lo: float,
    hi: float,
    n_points: int = 512,
    geometric: bool = True,
) -> SupremumResult:
    """Supremum of ``f`` over [lo, hi] by coarse scan plus local refinement.

    The scan grid is geometrically spaced by default (suited to moment
    ratios that vary on a log scale in p); the search is sup_rows on one
    row.  ``f`` must accept an array of points (see _eval_array);
    ``n_evaluations`` counts the scan points and every refinement point.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return SupremumResult(_eval_scalar(f, lo), lo, True, 1)
    n_points = max(int(n_points), 2)
    if geometric and lo > 0:
        xs = np.geomspace(lo, hi, n_points)
    else:
        xs = np.linspace(lo, hi, n_points)
    xs[0], xs[-1] = lo, hi
    res = sup_rows(f, xs[None, :])
    return SupremumResult(
        float(res.values[0]), float(res.args[0]), bool(res.decreasing_at_hi[0]), res.n_evaluations
    )


def sampled_min(f: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Minimum of ``f`` over each interval [lo[k], hi[k]].

    ``lo`` and ``hi`` are arrays of interval bounds; the minima come back
    in their shape.  Each interval is sampled at _MIN_SAMPLES evenly spaced
    points and the minimum is sup_rows of ``-f``, so every local minimum
    of every sample is refined and no unimodality is assumed.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.any(hi < lo):
        raise ValueError("sampled_min needs lo <= hi for every interval")
    xs = np.linspace(lo, hi, _MIN_SAMPLES, axis=-1)
    res = sup_rows(lambda x: -f(x), xs.reshape(lo.size, -1), _MIN_TOL)
    return -res.values.reshape(lo.shape)


def _nan_error(x) -> DomainError:
    return DomainError(f"the searched function is NaN at p={float(x)!r}")


def _eval_scalar(f, x: float) -> float:
    v = float(f(float(x)))
    if v != v:
        raise _nan_error(x)
    return v


def _eval_array(f, xs: np.ndarray) -> np.ndarray:
    """``f`` on every point of ``xs`` in one call.

    ``f`` must accept an array and return one value per point; a
    function that only takes scalars is a caller error, not something to
    fall back from point by point.  A NaN value raises DomainError
    naming the first point where it occurred.  An empty ``xs`` is not
    passed to ``f``.
    """
    if xs.size == 0:
        return np.empty(xs.shape)
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"f returned shape {ys.shape} for {xs.shape} points; it must accept arrays")
    nan = np.isnan(ys)
    if nan.any():
        raise _nan_error(xs[np.argmax(nan)])
    return ys
