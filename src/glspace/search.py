"""Supremum search over an interval: coarse grid plus golden-section refinement.

Nothing here assumes unimodality.  The grid stage locates every local
maximum (plateaus and endpoints included) and each one is refined
independently; the best refined value wins, with ties broken toward the
smallest argument so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
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
    for _ in range(max_iter):
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


def _local_max_indices(ys: np.ndarray) -> list[int]:
    """Indices that are not dominated by a neighbour (plateau tolerant)."""
    n = len(ys)
    if n == 1:
        return [0]
    idx = []
    for i in range(n):
        left_ok = i == 0 or ys[i] >= ys[i - 1]
        right_ok = i == n - 1 or ys[i] >= ys[i + 1]
        if left_ok and right_ok:
            idx.append(i)
    return idx


def grid_refine_supremum(
    f: Callable[[np.ndarray | float], np.ndarray | float],
    lo: float,
    hi: float,
    n_points: int = 512,
    refine_tol: float = 1e-10,
    geometric: bool = True,
) -> SupremumResult:
    """Supremum of ``f`` over [lo, hi] by coarse scan plus local refinement.

    The scan grid is geometrically spaced by default (suited to moment
    ratios that vary on a log scale in p).  Every local maximum of the
    scan, endpoints included, is refined with a golden-section search in
    its bracketing cell; refinement never loses the grid value it started
    from.  ``f`` must accept an array of points (see _eval_array);
    ``n_evaluations`` counts the scan points and every refinement call.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        v = float(_eval_scalar(f, lo))
        return SupremumResult(v, lo, True, 1)
    n_refine = 0

    def refine_f(x: float) -> float:
        nonlocal n_refine
        n_refine += 1
        return _eval_scalar(f, x)

    n_points = max(int(n_points), 2)
    if geometric and lo > 0:
        xs = np.geomspace(lo, hi, n_points)
    else:
        xs = np.linspace(lo, hi, n_points)
    xs[0], xs[-1] = lo, hi
    ys = _eval_array(f, xs)
    candidates: list[tuple[float, float]] = []
    for i in _local_max_indices(ys):
        bl = xs[i - 1] if i > 0 else xs[i]
        bh = xs[i + 1] if i < len(xs) - 1 else xs[i]
        if bh > bl:
            arg, val = golden_section_max(refine_f, bl, bh, tol=refine_tol)
        else:
            arg, val = xs[i], ys[i]
        if ys[i] > val:
            arg, val = xs[i], ys[i]
        candidates.append((float(arg), float(val)))
    best_val = max(v for _, v in candidates)
    best_arg = min(a for a, v in candidates if v == best_val)
    decreasing = bool(len(ys) >= 3 and ys[-3] > ys[-2] > ys[-1])
    return SupremumResult(best_val, best_arg, decreasing, len(xs) + n_refine)


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Golden-section minimization on [lo, hi]; see golden_section_max."""
    arg, val = golden_section_max(lambda x: -f(x), lo, hi, tol=tol, max_iter=max_iter)
    return arg, -val


def sampled_min(
    f: Callable[[np.ndarray | float], np.ndarray | float],
    lo: float,
    hi: float,
    n_samples: int = 256,
    refine_tol: float = 1e-12,
) -> float:
    """Minimum of ``f`` over [lo, hi] by dense sampling plus refinement
    around the best sample.  No unimodality is assumed; every local
    minimum of the sample is refined."""
    if hi <= lo:
        return float(_eval_scalar(f, lo))
    xs = np.linspace(lo, hi, max(int(n_samples), 2))
    ys = _eval_array(f, xs)
    best = float(ys.min())
    for i in _local_max_indices(-ys):
        bl = xs[i - 1] if i > 0 else xs[i]
        bh = xs[i + 1] if i < len(xs) - 1 else xs[i]
        if bh > bl:
            _, val = golden_section_min(lambda x: _eval_scalar(f, x), bl, bh, tol=refine_tol)
            best = min(best, float(val))
    return best


def _eval_scalar(f, x: float) -> float:
    return float(f(float(x)))


def _eval_array(f, xs: np.ndarray) -> np.ndarray:
    """``f`` on every point of ``xs`` in one call.

    ``f`` must accept an array and return one value per point; a
    function that only takes scalars is a caller error, not something to
    fall back from point by point.
    """
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"f returned shape {ys.shape} for {xs.shape} points; it must accept arrays")
    return ys


def enumerate_max(values: Sequence[float]) -> tuple[int, float]:
    """Index and value of the maximum, ties broken toward the smallest
    index (deterministic reduction order)."""
    best_i = 0
    best_v = values[0]
    for i, v in enumerate(values):
        if v > best_v:
            best_i, best_v = i, v
    return best_i, float(best_v)
