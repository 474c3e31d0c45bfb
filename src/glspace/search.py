"""Supremum search: one batched scan plus golden-section refinement.

Nothing here assumes unimodality.  A search covers one or more rows
(segments or cells), each sampled on its own increasing grid, and ``f``
is evaluated on every row in one array call.  Every local maximum of a
row (endpoints included) is bracketed by its scan neighbours and refined
by golden section, unless it is a plateau: a scan value whose neighbours
agree with it to a few ulp keeps that value.  Several brackets refine in
lockstep, one array call of ``f`` per iteration (Kiefer, "Sequential
minimax search for a maximum", Proc. AMS 1953); a search with only a few
brackets refines each one with the scalar golden_section_max, which is
cheaper than numpy bookkeeping on a few-element array.  Both use the same
update rule, stopping width and tie-break, so they give bit-identical
results as long as ``f`` gives the same bits for a float and for the same
point in an array, which the moment backends and psi do.  The best value
of a row wins, with ties broken toward the smallest argument so results
are deterministic.

A search may be pruned.  When ``f = num / den`` with ``num`` and ``den``
nondecreasing and ``den`` positive (a moment over a nondecreasing
generating function: on a probability space |f|_p is nondecreasing in p),
the sup of ``f`` over a cell [a, b] is at most num(b) / den(a).  This is
the W constant's argument (full <= W * discrete) on the scan grid, used
as the Lipschitz bound is in the branch and bound of Piyavskii (1972) and
Shubert (1972).  The pruned scan works in levels, one per entry of
_COARSE_STEPS (64, then 8).  The first level evaluates every 64th point of
each row and the row's last point, and drops every cell whose bound,
widened by _PRUNE_MARGIN for rounding, is below the best value seen.  The
next level evaluates the step-8 points inside the live 64-cells only, and
drops step-8 cells by the same rule.  A child cell's bound is at most its
parent's, and the best step-8 point lies in a live 64-cell, so the live
step-8 cells are those a one-level step-8 pass would keep.  The fine pass
then evaluates the points of the live cells, the point next to each end of
a live cell and the last three points of each row.  Every dropped point or
bracket is strictly below a value the search evaluates, and every local
maximum that remains has the same scan neighbours as in the full scan, so
the overall supremum, its argument and the edge evidence keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DivergentMomentError, DomainError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Searches with at most this many brackets refine them one by one with the
# scalar golden_section_max; more go lockstep.  Timed on 64-point rows with
# one bracket each (Python 3.11, NumPy 2.4, CPU time, median of 25 rounds,
# the two paths alternating), lockstep becomes the cheaper path at 9
# brackets for a Gaussian ratio, a ratio of moments on a group of order 12
# and a 4096-value sample, all under power_slowvary(r=2, delta=0.5).
SCALAR_BRACKETS = 8

# refinement stops once a bracket is narrower than this, relative to the
# magnitude of its ends; _MAX_ITER only stops a runaway loop, since 200
# golden steps shrink a bracket by a factor of about 1e-42
_REFINE_TOL = 1e-10
_MAX_ITER = 200
# sampled_min: samples per interval, and its (tighter) refinement tolerance
_MIN_SAMPLES = 256
_MIN_TOL = 1e-12
# a bracket whose scan value and scan neighbours agree within this many
# ulp of the value is a plateau, and is not refined
_PLATEAU_ULP = 4
# the pruned scan's levels: level k takes every _COARSE_STEPS[k]-th point of
# a row inside the cells the level before kept, and the row's last point.
# Each step divides the one before it, so every cell lies in one parent.
# A cell is dropped when its bound times 1 + _PRUNE_MARGIN is below the best
# value.  The margin covers the rounding of the moment and of psi (a few
# ulp, about 1e-14 relative) with room to spare
_COARSE_STEPS = (64, 8)
_PRUNE_MARGIN = 1e-10


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

    def __float__(self) -> float:
        return self.value


class RowSupremum(NamedTuple):
    """Per-row outcome of sup_rows; see SupremumResult for the fields.
    ``plateaus`` counts the brackets left unrefined because they were
    flat, and ``pruned`` the cells a pruned scan dropped unevaluated."""

    values: np.ndarray
    args: np.ndarray
    decreasing_at_hi: np.ndarray
    plateaus: int
    pruned: int


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = _REFINE_TOL,
    *,
    f_lo: Optional[float] = None,
    f_hi: Optional[float] = None,
) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi].

    Returns (arg, value) of the best point actually evaluated, endpoints
    included, so a maximum sitting on the boundary is never lost.  The
    interval shrinks until its width drops below ``tol`` relative to the
    magnitude of ``lo``/``hi`` (absolute for small arguments).  ``f_lo`` /
    ``f_hi``, when given, are f(lo) / f(hi), known already, and ``f`` is
    not asked for them again.
    """
    if hi < lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    best_x, best_v = lo, f(lo) if f_lo is None else f_lo
    v = f(hi) if f_hi is None else f_hi
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
    (args, values).
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
        f1[L], f2[R] = v[go_left], v[~go_left]
        better = (v > best_v[act]) | ((v == best_v[act]) & (x < best_x[act]))
        won = act[better]
        best_x[won], best_v[won] = x[better], v[better]
    return best_x, best_v


def sup_rows(
    f: Callable[[np.ndarray], np.ndarray],
    xs: np.ndarray,
    refine_tol: float = _REFINE_TOL,
    parts: Optional[Callable[[np.ndarray], tuple]] = None,
    floor: float = -math.inf,
) -> RowSupremum:
    """Supremum of ``f`` over each row of the scan grid ``xs``.

    Each row is an increasing grid whose first and last points are the
    ends of its interval.  ``f`` sees all rows in one array call; every
    local maximum of a row is then refined inside the cell spanned by
    its scan neighbours, unless the three scan values agree within
    _PLATEAU_ULP ulp: such a plateau (a flat ratio makes every scan point
    one) keeps its scan value.  Up to SCALAR_BRACKETS brackets go one by
    one to golden_section_max, more to lockstep refinement; both reuse the
    scan values at the bracket ends.  Refinement never loses the scan value
    it started from.  A NaN value of ``f`` raises
    DomainError naming the first p where it occurred.

    With ``parts`` the scan is pruned (see the module docstring):
    ``parts(x)`` returns arrays (num, den) with num / den giving the bits
    of ``f(x)``, both nondecreasing and den positive.  ``floor`` is a value
    known from elsewhere (the exact points of a norm) that the pruning
    also compares against.  The largest of the row values and ``floor``
    and its argument are then those of the full scan, bit for bit, as is
    ``decreasing_at_hi``; a row that cannot hold that supremum may report
    a lower value.  When a NaN value or a divergent moment stops the
    pruned scan, the full scan runs instead, so the error and the p it
    names are the full scan's.
    """
    rows, n = xs.shape
    known = None
    pruned = 0
    if parts is not None and xs.size:
        try:
            ys, known, pruned = _pruned_scan(f, xs, parts, floor)
        except (DomainError, DivergentMomentError):
            known = None
    if known is None:
        ys = _eval_array(f, xs.ravel()).reshape(rows, n)
    pad = np.full((rows, 1), -np.inf)
    peak = (ys >= np.hstack([pad, ys[:, :-1]])) & (ys >= np.hstack([ys[:, 1:], pad]))
    if known is not None:
        peak &= known
    r, i = np.nonzero(peak)
    il, ih = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
    bl, bh = xs[r, il], xs[r, ih]
    cand_x, cand_v = xs[r, i], ys[r, i]
    k = np.flatnonzero(bh > bl)
    if known is not None:
        # a peak next to an unevaluated point lies in a dropped cell: it
        # keeps its value, which is below the best one
        k = k[known[r[k], il[k]] & known[r[k], ih[k]]]
    # a non-finite peak is never flat; only finite ones are compared, so no
    # inf - inf is formed
    v = cand_v[k]
    flat = np.isfinite(v)
    kf, v = k[flat], v[flat]
    near = _PLATEAU_ULP * np.spacing(np.abs(v))
    flat[flat] = (v - ys[r[kf], il[kf]] <= near) & (v - ys[r[kf], ih[kf]] <= near)
    k = k[~flat]
    if k.size <= SCALAR_BRACKETS:
        # Python floats in, so the golden-section arithmetic and the ratio
        # take float paths (same IEEE operations as on numpy scalars); the
        # scan values at the bracket ends are the bits f gives those floats
        ends = zip(bl[k].tolist(), bh[k].tolist(), ys[r[k], il[k]].tolist(), ys[r[k], ih[k]].tolist())
        refine_f = partial(_eval_scalar, f)
        refined = [golden_section_max(refine_f, a, b, tol=refine_tol, f_lo=fa, f_hi=fb) for a, b, fa, fb in ends]
        ref_x, ref_v = np.array(refined, dtype=float).reshape(-1, 2).T
    else:
        ref_x, ref_v = _golden_lockstep(f, bl[k], ys[r[k], il[k]], bh[k], ys[r[k], ih[k]], refine_tol)
    keep = ~(cand_v[k] > ref_v)
    cand_x[k[keep]], cand_v[k[keep]] = ref_x[keep], ref_v[keep]
    # per row: largest value, then smallest arg; every row has a peak
    order = np.lexsort((cand_x, -cand_v, r))
    first = order[np.diff(r[order], prepend=-1) != 0]
    if n >= 3:
        decreasing = (ys[:, -3] > ys[:, -2]) & (ys[:, -2] > ys[:, -1])
    else:
        decreasing = np.zeros(rows, dtype=bool)
    return RowSupremum(cand_v[first], cand_x[first], decreasing, int(np.count_nonzero(flat)), pruned)


def cell_bounds(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Upper bound num(b) / den(a) of num / den on each cell [a, b]
    between consecutive points (last axis) of a row, for nondecreasing
    num and den."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return num[..., 1:] / den[..., :-1]


def _pruned_scan(f, xs: np.ndarray, parts, floor: float):
    """The scan of sup_rows, pruned level by level by the cell bounds of
    ``parts``.

    Returns (ys, known, pruned cells): ``ys`` holds the value of every
    evaluated point and -inf elsewhere, ``known`` marks the evaluated
    points, and the count is of the cells of the last level dropped, those
    under a dropped parent included.  One call of ``parts`` per level, one
    array call of ``f``.
    """
    rows, n = xs.shape
    ys = np.full((rows, n), -np.inf)
    num, den = np.full((rows, n), np.nan), np.full((rows, n), np.nan)
    known = np.zeros((rows, n), dtype=bool)
    # cover marks the points c_k .. c_k+1 - 1 of every live cell [c_k, c_k+1];
    # before the first level the whole row is one live cell
    cover = np.ones((rows, n), dtype=bool)
    best = floor
    for step in _COARSE_STEPS:
        level = np.zeros(n, dtype=bool)
        level[::step] = True
        level[-1] = True
        c = np.flatnonzero(level)
        new = np.zeros((rows, n), dtype=bool)
        new[:, c] = cover[:, c] & ~known[:, c]
        if new.any():
            xn = xs[new]
            nu, de = (np.asarray(a, dtype=float).reshape(xn.shape) for a in parts(xn))
            num[new], den[new], ys[new] = nu, de, _checked(xn, nu / de)
            known |= new
            best = max(best, float(ys[new].max()))
        nc, dc = num[:, c], den[:, c]
        # a NaN bound, or a den that is not positive, keeps its cell; a cell
        # under a dropped parent stays dropped (its ends may be unevaluated)
        live = cover[:, c[:-1]] & (~(cell_bounds(nc, dc) * (1.0 + _PRUNE_MARGIN) < best) | ~(dc[:, :-1] > 0.0))
        cover = np.zeros((rows, n), dtype=bool)
        cover[:, :-1] = np.repeat(live, np.diff(c), axis=1)
    # a live cell needs its points and the scan neighbours of its ends,
    # c_k - 1 and c_k+1 + 1, so that each of its peaks is judged and
    # bracketed as in the full scan
    need = cover.copy()
    need[:, :-1] |= cover[:, 1:]
    need[:, 2:] |= cover[:, :-2]
    need[:, -3:] = True  # the decreasing_at_hi evidence
    fine = need & ~known
    ys[fine] = _eval_array(f, xs[fine])
    return ys, need | known, int(live.size - np.count_nonzero(live))


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
    row.  ``f`` must accept an array of points (see _eval_array).
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return SupremumResult(_eval_scalar(f, lo), lo, True)
    n_points = max(int(n_points), 2)
    if geometric and lo > 0:
        xs = np.geomspace(lo, hi, n_points)
    else:
        xs = np.linspace(lo, hi, n_points)
    xs[0], xs[-1] = lo, hi
    res = sup_rows(f, xs[None, :])
    return SupremumResult(float(res.values[0]), float(res.args[0]), bool(res.decreasing_at_hi[0]))


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
    return _checked(xs, f(xs))


def _checked(xs: np.ndarray, ys) -> np.ndarray:
    """``ys``, the values at the points ``xs``, as a float array of their
    shape; DomainError naming the first point whose value is NaN."""
    ys = np.asarray(ys, dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"f returned shape {ys.shape} for {xs.shape} points; it must accept arrays")
    nan = np.isnan(ys)
    if nan.any():
        raise _nan_error(xs.flat[np.argmax(nan)])
    return ys
