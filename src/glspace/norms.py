"""Norm computations: full, restricted, discrete, and sandwich checks.

The central quantity is sup over admissible p of |f|_p / psi(p).  The
full norm ranges over [1, p_max], the restricted norm over a Borel
subset, the discrete norm over a grid (exact enumeration, no
refinement).  All three are one search, _sup_norm: intervals and grid
cells are rows of one scan grid, refined together, and isolated points
and grid values are evaluated exactly in one array call.  For a large
sample or group function under a nondecreasing psi the scan is
pruned: a cell whose bound |f|(right end) / psi(left end) lies below the
best value is not evaluated (see search), which leaves the result's bits
as they are.  Sandwich checks verify the two-sided equivalence

    inner <= full <= constant * inner

numerically.  Both sides are only provable under a common truncation, so
the comparison window is cut at P = p_plus(p_max): the smallest set (or
grid) element at or beyond p_max.  With that choice every p in [1, P]
has its p_plus inside the window and both inequalities hold in exact
arithmetic; the reported slack covers search and moment-backend error.

A divergent moment is not an error here: ||f|| = +inf is a meaningful
statement (f lies outside the space), so it short-circuits to +inf with
the offending p recorded as the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergentMomentError, DomainError, TruncationError
from .generating import GeneratingFunction, psi_eval
from .grids import (
    EquivalenceConstant,
    GridSequence,
    RestrictedSet,
    _check_monotone,
    w_constant,
    w_hat_constant,
    z_constant,
)
from .models import EmpiricalModel, PowerMeanModel, RandomVariableModel
from .search import _eval_array, sup_rows
from .search import grid_refine_supremum  # noqa: F401  unused here; the benchmark tracer patches it

DEFAULT_P_MAX = 200.0
# scan points per interval component in gls_norm
_SCAN_POINTS = 512
# scan points per W^ cell in _cellwise_full_norm
_CELL_POINTS = 64
# relative tolerance a sandwich allows on top of the moment backend's own
_RTOL = 1e-9
# the norm search is pruned only when the moment is a power mean of at
# least this many values.  Timed on full and two-interval norms of normal
# samples and on cyclic-group functions under power_slowvary(r=2,
# delta=0.5) (Python 3.11, NumPy 2.4, CPU time, median of 21 rounds, the
# two paths alternating): the pruned scan breaks even at 48-64 values and
# takes 0.56-0.85 of the full scan's time at 128.  A flat ratio (a sample
# under its own natural psi) drops no cell and pays 12-20% more there.
_PRUNE_MIN_VALUES = 128


def default_p_max(model: RandomVariableModel) -> float:
    """200 for exact backends; capped at 5*ln(n) for plug-in moments,
    beyond which the empirical estimator degenerates to the sample max."""
    if isinstance(model, EmpiricalModel):
        return min(DEFAULT_P_MAX, max(5.0 * math.log(model.values.size), 1.0))
    return DEFAULT_P_MAX


@dataclass(frozen=True)
class NormResult:
    """A computed norm value with its witness point and diagnostics."""

    value: float
    arg_p: float
    truncation_p_max: float
    decreasing_at_hi: bool
    n_evaluations: int
    arg_index: Optional[int] = None

    @property
    def diagnostics(self) -> str:
        if math.isinf(self.value):
            return f"divergent moment at p={self.arg_p:g}; norm is +inf"
        if self.decreasing_at_hi:
            return "ratio decreasing at the truncation point"
        return "ratio not decreasing at the truncation point; supremum may exceed the truncated value"

    def __float__(self) -> float:
        return self.value


def _ratio_fn(model: RandomVariableModel, psi: GeneratingFunction):
    """p -> (|f|_p, psi(p)), the numerator and denominator of the ratio."""
    if psi.source is model:
        # psi(p) = |f|_p / |f|_1 of this very model: one moment per p serves
        # both, and m / (m / m1) is the division the two-call route makes
        m1 = float(model.lp_norm(1.0))

        def pair(p):
            m = model.lp_norm(p)
            return m, m / m1

    else:

        def pair(p):
            return model.lp_norm(p), psi_eval(psi, p)

    return pair


def _sup_norm(
    model: RandomVariableModel,
    psi: GeneratingFunction,
    p_max: float,
    rows: np.ndarray,
    points: np.ndarray,
    grid: bool = False,
) -> NormResult:
    """sup of |f|_p / psi(p) over the scan rows and the exact points.

    Every row of ``rows`` is an increasing scan grid of one interval,
    refined by sup_rows; ``points`` are evaluated exactly, all in one
    array call.  The best value wins, ties going to the smallest p, and
    n_evaluations counts every point the ratio was asked for, including
    those of a call that raised.  The edge evidence decreasing_at_hi is
    the last row's when that row ends at p_max (True when none does);
    with ``grid`` the points are a grid, the evidence is its last three
    ratios, and the result carries the 1-based arg_index.

    The scan is pruned, against the best exact-point value too, when the
    model is a PowerMeanModel of at least _PRUNE_MIN_VALUES values and psi
    is flagged nondecreasing.  The cell bound needs |f|_p nondecreasing,
    which a power mean is exactly (a density moment only to its quadrature
    noise, 1e-8), and psi nondecreasing; on small arrays the full scan is
    cheaper.  Pruning runs in levels (every 64th scan point, then every 8th
    inside the 64-cells kept, then the points of the 8-cells kept), and each
    power mean skips the terms that underflow to exactly 0.0 at large p
    (models.power_mean), so a large sample pays for the points and terms
    that can change the result and no others.
    """
    pair = _ratio_fn(model, psi)
    asked = [0]

    def parts(p):
        # scalar refinement passes floats, on which np.size costs about 2 us a call
        asked[0] += p.size if isinstance(p, np.ndarray) else 1
        return pair(p)

    def ratio(p):
        num, den = parts(p)
        return num / den

    prune = (
        isinstance(model, PowerMeanModel)
        and model.values.size >= _PRUNE_MIN_VALUES
        and psi.nondecreasing
    )
    try:
        at_points = _eval_array(ratio, points)
        floor = float(at_points.max()) if at_points.size else -math.inf
        found = sup_rows(ratio, rows, parts=parts if prune else None, floor=floor)
    except DivergentMomentError as exc:
        return NormResult(math.inf, float(exc.p), float(p_max), False, asked[0])
    vals = np.concatenate([at_points, found.values])
    args = np.concatenate([points, found.args])
    ties = np.flatnonzero(vals == vals.max())
    k = ties[np.argmin(args[ties])]
    if grid:
        decreasing = vals.size >= 3 and vals[-3] > vals[-2] > vals[-1]
    else:
        decreasing = rows.size == 0 or rows[-1, -1] != p_max or found.decreasing_at_hi[-1]
    return NormResult(
        value=float(vals[k]),
        arg_p=float(args[k]),
        truncation_p_max=float(p_max),
        decreasing_at_hi=bool(decreasing),
        n_evaluations=asked[0],
        arg_index=int(k) + 1 if grid else None,
    )


def gls_norm(
    model: RandomVariableModel,
    psi: GeneratingFunction,
    p_max: float = DEFAULT_P_MAX,
    rset: Optional[RestrictedSet] = None,
) -> NormResult:
    """sup over S intersected with [1, p_max] of |f|_p / psi(p).

    With rset=None the domain is all of [1, p_max]; with a set it is the
    restricted norm.  Every interval component is a geometric scan row of
    _SCAN_POINTS points, all searched at once, and every local maximum is
    polished by golden section (no unimodality assumed); point components
    are evaluated exactly.
    """
    if not 1.0 <= p_max < math.inf:
        raise DomainError(f"p_max must be finite and at least 1, got {p_max:g}")
    segments = [(1.0, p_max)] if rset is None else rset.segments
    lo, hi = np.array(segments, dtype=float).T
    lo, hi = np.maximum(lo, 1.0), np.minimum(hi, p_max)
    lo, hi = lo[lo <= hi], hi[lo <= hi]
    span = lo < hi
    rows = np.geomspace(lo[span], hi[span], _SCAN_POINTS, axis=1)
    rows[:, 0], rows[:, -1] = lo[span], hi[span]
    return _sup_norm(model, psi, p_max, rows, lo[~span])


def discrete_norm(model: RandomVariableModel, psi: GeneratingFunction, q: GridSequence) -> NormResult:
    """max over the stored grid of |f|_{q(m)} / psi(q(m)); exact enumeration."""
    return _sup_norm(model, psi, q.values[-1], np.empty((0, 2)), q.values, grid=True)


# ---------------------------------------------------------------------------
# Sandwich checks

@dataclass(frozen=True)
class SandwichReport:
    """Outcome of a two-sided equivalence check on a common window.

    left  :  inner <= full        (a sup over a subset cannot exceed it)
    right :  full <= constant * inner
    ``slack`` is the relative tolerance applied (1e-9 plus twice the
    moment backend's own).  When the constant or a norm is infinite the
    right side is not applicable and only the left side is judged.
    """

    kind: str
    model_label: str
    psi_description: str
    domain_description: str
    window_p: float
    full_value: float
    inner_value: float
    constant: EquivalenceConstant
    left_ok: bool
    right_ok: bool
    slack: float

    @property
    def bound(self) -> float:
        return self.constant.value * self.inner_value

    @property
    def ok(self) -> bool:
        return self.left_ok and self.right_ok


def _sandwich_report(
    kind: str,
    model: RandomVariableModel,
    psi: GeneratingFunction,
    domain_description: str,
    P: float,
    inner: NormResult,
    full: NormResult,
    const: EquivalenceConstant,
) -> SandwichReport:
    """Judge inner <= full <= constant * inner with the combined slack."""
    # two moment evaluations enter each compared ratio
    slack = _RTOL + 2.0 * model.moment_tolerance
    left_ok = inner.value <= full.value * (1.0 + slack)
    if math.isfinite(const.value) and math.isfinite(full.value) and math.isfinite(inner.value):
        right_ok = full.value <= const.value * inner.value * (1.0 + slack)
    else:
        right_ok = True  # right side not applicable, never asserted false
    return SandwichReport(
        kind=kind,
        model_label=model.label,
        psi_description=psi.description,
        domain_description=domain_description,
        window_p=P,
        full_value=full.value,
        inner_value=inner.value,
        constant=const,
        left_ok=bool(left_ok),
        right_ok=bool(right_ok),
        slack=slack,
    )


def sandwich_check_restricted(
    model: RandomVariableModel,
    psi: GeneratingFunction,
    S: RestrictedSet,
    p_max: float = DEFAULT_P_MAX,
) -> SandwichReport:
    """Check inner <= full <= Z * inner on the window [1, p_plus(p_max)].

    Z is computed over the windowed set: its gaps are exactly the gaps
    a p in the window can fall into, so the bound is valid and finite
    even when the untruncated set continues with larger gaps.
    """
    P = S.window_point(p_max)
    windowed = S.windowed(P)
    inner = gls_norm(model, psi, P, rset=windowed)
    full = gls_norm(model, psi, P)
    return _sandwich_report("restricted", model, psi, S.description, P, inner, full, z_constant(windowed, psi))


def _cellwise_full_norm(model: RandomVariableModel, psi: GeneratingFunction, gtr: GridSequence) -> NormResult:
    """Full norm over [1, q(M)] with every partition cell scanned on its own.

    An oscillating psi can hide whole peaks between the samples of a
    single geometric scan of [1, q(M)].  The W^ constant resolves each
    cell with its own dense sample, so the norm search on the other side
    of the sandwich has to match that resolution or the two sides end up
    looking at different functions.  Each cell is a scan row of
    _CELL_POINTS evenly spaced points.
    """
    v = gtr.values
    xs = np.linspace(v[:-1], v[1:], _CELL_POINTS, axis=1)
    xs[:, 0], xs[:, -1] = v[:-1], v[1:]
    return _sup_norm(model, psi, v[-1], xs, np.empty(0))


def sandwich_check_discrete(
    model: RandomVariableModel,
    psi: GeneratingFunction,
    q: GridSequence,
    p_max: float = DEFAULT_P_MAX,
    use_w_hat: bool = False,
) -> SandwichReport:
    """Check discrete <= full <= W * discrete (or W^ when requested).

    The W route is only sound for nondecreasing psi; a non-monotone
    generating function must go through W^, whose cell minima assume
    nothing.  The two routes stay separate on purpose: W^ collapsing to
    W on monotone inputs is itself a tested property, not a shortcut.
    """
    idx = q.first_index_at_least(p_max)
    if idx > q.M:
        raise TruncationError(
            f"{q.description} stores {q.M} points but the window needs q({idx}); increase M"
        )
    gtr = q.truncated(idx)
    P = float(gtr.values[-1])
    inner = discrete_norm(model, psi, gtr)
    if use_w_hat:
        const = w_hat_constant(gtr, psi)
        full = _cellwise_full_norm(model, psi, gtr)
    else:
        _check_monotone(psi, P, "the W bound does not apply, pass use_w_hat=True")
        full = gls_norm(model, psi, P)
        const = w_constant(gtr, psi)
    return _sandwich_report("discrete", model, psi, q.description, P, inner, full, const)
