"""Norm computations: full, restricted, discrete, and sandwich checks.

The central quantity is sup over admissible p of |f|_p / psi(p).  The
full norm ranges over [1, p_max], the restricted norm over a Borel
subset, the discrete norm over a grid (its exact values, no
refinement).  Each is a NormSearch (scan rows and exact points) and all
go through one path, _search: intervals and grid cells are rows of one
scan grid, refined together, and isolated points and grid values are
evaluated exactly, in one array call, except a grid's values where the
pruned scan may skip them (_point_values).  Several searches under one psi
share that path's every array call: the three norms of an algebra
check, the two of ``gls norm --set ... --grid ...``, and the two sides
of a sandwich check, so each check's norms are one scan and one
refinement.  A shared search has one ratio kernel: the norms of one
model share its moment and psi call, and the norms of several group
functions share _stacked_ratio (psi once, the power means of all models
in one call); searches of any other mix of models run alone.  Equal
domains, and equal W^ grids, share their scan rows (_scan_rows).  Every
norm keeps the bits of its search alone.  The W^ constant depends on psi
and the grid only, so a W^ check takes it from grids.w_hat_constant,
computed once per (psi, cell ends) per process.
A search hands search.sup_rows two facts, and sup_rows reads from them
what it may skip, each skip leaving the result's bits as they are: a
lower envelope of psi, given where every model's moments are exact (the
power means and the closed forms, p-norms on a probability space), and
whether a ratio costs by the point (a large sample or group function, as
a model or as the model of a natural psi).  A search whose ratio cannot
rise along a row makes no sup_rows at all: where the moments are exact
and psi is the model's own natural psi (the ratio is |f|_1 at every p),
or psi is nondecreasing and |f| is constant almost surely (read off the
model exactly, _abs_constant), a row's supremum is its first point.  See
_search.
Sandwich checks verify the two-sided equivalence

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
from functools import lru_cache
from itertools import accumulate
from typing import ClassVar, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DivergentMomentError, DomainError, TruncationError
from .generating import GeneratingFunction, psi_eval, psi_values
from .grids import (
    EquivalenceConstant,
    GridSequence,
    RestrictedSet,
    _check_monotone,
    w_constant,
    w_hat_constant,
    z_constant,
)
from .models import (
    ClosedFormModel,
    EmpiricalModel,
    PowerMeanModel,
    RandomVariableModel,
    _REPEATED_P,
    power_means,
)
from .search import RowSupremum, _eval_parts, _scan, sup_rows
from .search import grid_refine_supremum  # noqa: F401  unused here; the benchmark tracer patches it

DEFAULT_P_MAX = 200.0
# scan points per interval component in gls_norm
_SCAN_POINTS = 512
# scan points per W^ cell in _cellwise_full_norm
_CELL_POINTS = 64
# relative tolerance of a sandwich's two comparisons
_RTOL = 1e-9
# a power mean of at least this many values costs by the point
# (_costs_per_point): a norm search over such a ratio is pruned where psi
# has an envelope, and refined in lockstep, without guessed points.  Timed
# on full and two-interval norms of normal samples and on cyclic-group
# functions under power_slowvary(r=2, delta=0.5) (Python 3.11, NumPy 2.4,
# CPU time, median of 21 rounds, the two paths alternating): the pruned
# scan breaks even at 48-64 values and takes 0.56-0.85 of the full scan's
# time at 128
_PRUNE_MIN_VALUES = 128
# a grid's exact points are pruned as one scan row only where its points
# times the values its ratio reads at each point reach this (_prune_pays).
# Timed on discrete_norm of normal samples of 2^10 to 2^16 values under
# power_slowvary(r=2, delta=0.5) and (r=8, delta=0), on integers:M=20 and
# M=50 and geometric D=2:M=12 and D=3:M=8 (Python 3.11, NumPy 2.4, 2-core
# x86-64 VM, CPU time, median of 15 alternating rounds of 10 calls each
# way): the pruned row took 1.0-3.2x the one call at up to 1.6e5, 0.57-0.77x
# on integers:M=50 at 2.0e5 and 0.9-1.3x on geometric D=2:M=12 at the same
# product; geometric:D=3:M=8, which prunes none of its points, pays only
# from about 5e5
_PRUNE_GRID_MIN = 200_000


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
    #: psi is the model's own natural psi, so the ratio is |f|_1 at every p
    #: in exact arithmetic, whatever the edge evidence says.  The value is
    #: the largest rounded ratio m / (m / |f|_1) at the points read, which
    #: may lie a few ulp above |f|_1 (1 ulp at p = 2 on a sample's integer
    #: grid); it is |f|_1 itself at p = 1 where the moments are exact and a
    #: scan row starts there, and at least |f|_1 wherever p = 1 is read
    constant_ratio: bool = False
    #: |f|_1 = 0, so f = 0 almost surely and the norm is exactly 0
    zero_model: bool = False
    #: the domain goes on past truncation_p_max (NormSearch.truncated)
    truncated: bool = True

    @property
    def diagnostics(self) -> str:
        if math.isinf(self.value):
            return f"divergent moment at p={self.arg_p:g}; norm is +inf"
        if self.constant_ratio:
            return "ratio constant under the model's own natural psi"
        if self.zero_model:
            return "f = 0 almost surely (|f|_1 = 0); norm is exactly 0"
        if not self.truncated:
            return "domain ends within the window; nothing was truncated"
        if self.decreasing_at_hi:
            return "ratio decreasing at the truncation point"
        return "ratio not decreasing at the truncation point; supremum may exceed the truncated value"

    def __float__(self) -> float:
        return self.value


def _ratio_fn(model: RandomVariableModel, psi: GeneratingFunction):
    """p -> (|f|_p, psi(p)), the numerator and denominator of the ratio.

    A search's points lie in [1, p_max] by construction (domain_search
    checks p_max, grids and sets start at 1, golden points lie inside their
    brackets), so an array p goes to the model's moment kernel
    (RandomVariableModel._lp_norms) and to psi_values unchecked, psi's
    values tested once for the call.  Any other p, a float, takes the
    checked lp_norm and psi_eval; both give a point the same bits."""
    moments = model._lp_norms
    if psi.source is model:
        # psi(p) = |f|_p / |f|_1 of this very model: one moment per p serves
        # both, and m / (m / m1) is the division the two-call route makes
        m1 = float(model.lp_norm(1.0))

        def pair(p):
            m = moments(p) if isinstance(p, np.ndarray) else model.lp_norm(p)
            return m, m / m1

    else:

        def pair(p):
            if isinstance(p, np.ndarray):
                return moments(p), psi_values(psi, p)
            return model.lp_norm(p), psi_eval(psi, p)

    return pair


def _stacks(model: RandomVariableModel, psi: GeneratingFunction) -> bool:
    """Whether the moment of ``model`` is the plain power mean of its
    values, which power_means may take for several models at once: a
    PowerMeanModel whose moment does not warn, and not the model of psi."""
    return isinstance(model, PowerMeanModel) and not isinstance(model, EmpiricalModel) and model is not psi.source


def _stacked_ratio(psi: GeneratingFunction, models: Sequence[PowerMeanModel]):
    """The (num, den) of consecutive searches of the _stacks ``models``, one
    model per search, in one function: ``f(p, at)`` at an array p whose
    points p[at[k]:at[k + 1]] are search k's.  A call evaluates psi once
    over its points, and only once over points that every search of the
    call repeats (a scan row that gls_norms' searches share), and takes the
    moments of all models in one power_means.  Every value has the bits of
    the model's own _ratio_fn pair: psi and the power means act point by
    point."""
    states = [m._moments for m in models]
    n_parts = len(models)

    def pair(p, at):
        num = power_means(states, p, at)
        size = at[1]
        if size and at == list(range(0, n_parts * size + 1, size)) and (p.reshape(n_parts, size) == p[:size]).all():
            return num, np.concatenate((psi_values(psi, p[:size]),) * n_parts)
        return num, psi_values(psi, p)

    return pair


def _costs_per_point(model) -> bool:
    """Whether a moment of ``model`` costs in proportion to the points it is
    asked for more than to the calls: a power mean of at least
    _PRUNE_MIN_VALUES values.  A search costs by the point (sup_rows'
    ``per_point``) when any model, or the model of psi, does: its scan is
    then pruned where psi has an envelope, and every bracket refines in
    lockstep, golden section's own points and no other, because guessed
    points would cost more than the calls they save: on a 2^16-value
    exponential sample with an interior peak, guessing took 148 ms against
    84 ms on golden section's points alone (272 evaluations against
    195)."""
    return isinstance(model, PowerMeanModel) and model.values.size >= _PRUNE_MIN_VALUES


def _prune_pays(s: "NormSearch", psi: GeneratingFunction) -> bool:
    """Whether the grid of ``s`` is worth pruning: its points times the
    values its ratio reads at each point, those of each power mean among
    its model and the model of psi, reach _PRUNE_GRID_MIN."""
    read = {id(m): m.values.size for m in (s.model, psi.source) if isinstance(m, PowerMeanModel)}
    return s.points.size * sum(read.values()) >= _PRUNE_GRID_MIN


def _one_plugin_warning(pair):
    """``pair``, quiet about plug-in moments on a call whose p all lie at or
    below the largest p an earlier call reached.  A plug-in warning names
    the largest p of its call, and the scan's first call reaches the
    largest p of its rows, so the refinement and the later pruning levels
    only repeat it.  They are quieted through models._REPEATED_P, not
    through the warnings filters, whose every change makes Python forget
    the warnings it has shown: a loop of norms shows each warning once
    under the default filter."""
    reached = -math.inf

    def quiet_after_the_first(p):
        nonlocal reached
        top = float(p.max())
        if top > reached:
            reached = top
            return pair(p)
        token = _REPEATED_P.set(True)
        try:
            return pair(p)
        finally:
            _REPEATED_P.reset(token)

    return quiet_after_the_first


class NormSearch(NamedTuple):
    """One norm of a search: the sup of |f|_p / psi(p) for ``model`` over
    the scan ``rows`` (each an increasing grid of one interval, refined by
    sup_rows) and the exact ``points``, rows and points each in increasing
    order of p.  With ``grid`` the points are a grid, there are no rows,
    and the result carries its arg_index.  ``truncated`` says that the
    domain goes on past p_max, so that the edge evidence is needed.  See
    _search."""

    model: RandomVariableModel
    p_max: float
    rows: np.ndarray
    points: np.ndarray
    grid: bool = False
    truncated: bool = True


_NO_ROWS = np.empty((0, 2))
_NO_POINTS = np.empty(0)


def _cat(arrays: list) -> np.ndarray:
    """np.concatenate, without a copy for one array, float for none."""
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays) if arrays else np.empty(0)


def _check_p_max(p_max: float) -> None:
    """DomainError unless p_max is a finite p of at least 1."""
    if not 1.0 <= p_max < math.inf:
        raise DomainError(f"p_max must be finite and at least 1, got {p_max:g}")


def domain_search(model: RandomVariableModel, p_max: float, rset: Optional[RestrictedSet] = None) -> NormSearch:
    """The search of gls_norm: every interval component of ``rset``
    (all of [1, p_max] when None) within [1, p_max] a geometric scan row of
    _SCAN_POINTS points (_scan_rows), every point component an exact
    point, a grid-backed set's read through its grid up to p_max
    (RestrictedSet._ends_to).  The domain is truncated when
    it goes on past p_max."""
    _check_p_max(p_max)
    if rset is None:
        lo, hi = np.array([[1.0], [p_max]], dtype=float)
    else:
        lo, hi = rset._ends_to(p_max)
    span = lo < hi
    rows = _scan_rows(lo[span].tobytes(), hi[span].tobytes(), _SCAN_POINTS, True)
    return NormSearch(model, p_max, rows, lo[~span], truncated=rset is None or rset.sup_value > p_max)


@lru_cache(maxsize=32)
def _scan_rows(lo: bytes, hi: bytes, points: int, geometric: bool) -> np.ndarray:
    """The scan rows of ``points`` points from lo[k] to hi[k], geometric or
    evenly spaced, their ends exact; the row ends come as the bytes of
    float arrays, as grids.w_hat_constant keys its memo.  Every norm over
    one domain or W^ grid scans the same rows, so the last 32 domains' or
    grids' rows are kept, read-only."""
    lo, hi = np.frombuffer(lo), np.frombuffer(hi)
    rows = (np.geomspace if geometric else np.linspace)(lo, hi, points, axis=1)
    rows[:, 0], rows[:, -1] = lo, hi
    rows.flags.writeable = False
    return rows


def grid_search(model: RandomVariableModel, q: GridSequence) -> NormSearch:
    """The search of discrete_norm: the stored grid values as exact points,
    one row of the pruned scan where the ratio costs by the point under an
    envelope and the grid is large enough to pay (_prune_pays,
    _point_values)."""
    return NormSearch(model, q.values[-1], _NO_ROWS, q.values, grid=True)


def _cell_search(model: RandomVariableModel, gtr: GridSequence) -> NormSearch:
    """The search of _cellwise_full_norm: every cell of the grid a scan row
    of _CELL_POINTS evenly spaced points (_scan_rows); a grid of one point
    has no cell, and its window [1, 1] is that point, as in
    domain_search."""
    v = gtr.values
    xs = _scan_rows(v[:-1].tobytes(), v[1:].tobytes(), _CELL_POINTS, False)
    return NormSearch(model, v[-1], xs, _NO_POINTS if v.size > 1 else v)


def sup_norms(psi: GeneratingFunction, searches: Sequence[NormSearch]) -> list:
    """One NormResult per search of ``searches``, all under ``psi``, in one
    search where they can share it (see _search), each with the bits its
    search gives alone."""
    found = _search(psi, searches)
    if found is None:
        return [_search(psi, [s])[0] for s in searches]
    return found


def _search(psi: GeneratingFunction, searches: Sequence[NormSearch]):
    """The norms of ``searches`` under ``psi`` in one search: one
    NormResult per search, or None where a shared search is given up.

    Every array call of the search (the exact points, the scan, each
    pruning level, each refinement round) serves every search, but the
    calls of a pruned grid, each its own search's (_point_values): the rows
    of all searches are one scan array of sup_rows, and one (num, den)
    function gives the ratios of all searches at once, sup_rows dividing:
    the _ratio_fn pair of their one model, or, where every model is a
    plain power mean (_stacks: the three of an algebra check), one
    _stacked_ratio, which evaluates psi once over their points and their
    moments in one power_means.  A norm's value is
    its best value over its rows and its points, ties going to the
    smallest p, and n_evaluations counts every point its ratio was asked
    for, including those of a call that raised.  The edge evidence
    decreasing_at_hi is True where the domain goes no further than p_max
    (not ``truncated``), and otherwise the last row's when that row ends
    at p_max (False when none does); with ``grid`` the points are a grid,
    the evidence is its last three ratios, and the result carries the
    1-based arg_index.

    Decided once for the search, from two facts that sup_rows reads (see
    search): ``lower``, the envelope, and ``per_point``, the cost.  Where
    every model's moments are exact (a PowerMeanModel of any size or a
    ClosedFormModel: p-norms on a probability space, whose rounding the
    chord bound's margins cover; a moment by quadrature errs by more),
    ``lower`` is the envelope psi declares (GeneratingFunction.envelope);
    elsewhere it is None.  ``per_point`` holds where any model, or the
    model of psi, costs by the point (_costs_per_point).  From them a
    grid's exact points are pruned as one scan row, where its points times
    its values pass a measured break-even (_prune_pays), the scan is pruned,
    against the best exact-point value too, a row-end
    peak that golden section cannot beat is not refined, a search of more
    than SCALAR_BRACKETS brackets drops those its envelope rules out (the
    W^ full norm under sqrt_dip, one interior peak in each of its cells,
    refines one or two of about two hundred), and the route is chosen: up
    to SCALAR_BRACKETS brackets, counted over every search, refine in
    guessed rounds, more in lockstep, and every bracket of a ratio that
    costs by the point in lockstep.  Pruning runs in levels, and each
    power mean skips the terms that underflow to exactly 0.0 at large p
    (models.power_mean), so a large sample pays for the points and terms
    that can change the result and no others.  Kept per search: the
    pruning floor and best value, the count, the edge evidence.  Every
    result has the bits of its search alone; its count is that search's
    too, unless more brackets in all than its own send it lockstep, which
    asks for no point off golden section's path.

    A search is flat where its ratio cannot rise along a row: its model's
    moments are exact and psi is the model's own natural psi (the ratio is
    |f|_1 at every p), or psi is nondecreasing and |f| is constant almost
    surely (_abs_constant).  Then each row's supremum is its first point,
    and sup_rows is not called: _row_starts evaluates the rows' first
    points, and the edge evidence, in one array call.  Every result keeps
    its bits but the count, where the computed psi is nondecreasing as
    declared; under the model's own natural psi, whose rounded ratio may
    lie 1 ulp above |f|_1 at some p, the value is the largest ratio at the
    rows' first points and the exact points, at most the full search's,
    and |f|_1 itself at p = 1.  A shared search whose searches differ in
    flatness is given up (None), as for the models below.

    A search alone raises what it meets, except that a divergent moment
    gives the norm +inf with that p as its witness.  A shared search that
    raises, or whose refinement met an error and reran its brackets one
    by one (RowSupremum.reran: a NaN ratio or a domain error at a point
    off golden section's path), is given up: _search returns None, and
    sup_norms, its one caller, runs each search alone, in order, so every
    error, every +inf and every count is that of the searches alone.  A
    shared search is not tried (None at once) where a plug-in moment may
    warn, since interleaved calls would reorder and merge the warning
    lines of the searches, where the searches' rows differ in length,
    since one scan array holds rows of one length, or where their models
    are neither one model nor all plain power means, since one function
    serves them.
    """
    n_parts = len(searches)
    shared = n_parts > 1
    models = [s.model for s in searches]
    one_model = all(m is models[0] for m in models)
    # the models' facts, each model once
    distinct = models[:1] if one_model else models
    plugin = any(isinstance(m, EmpiricalModel) for m in (*distinct, psi.source))
    exact = all(isinstance(m, (PowerMeanModel, ClosedFormModel)) for m in distinct)
    flat = {exact and (psi.source is m or psi.nondecreasing and _abs_constant(m)) for m in distinct}
    counts = [s.rows.shape[0] for s in searches]
    blocks = [s.rows for s, n in zip(searches, counts) if n]
    mixed = not (one_model or all(_stacks(m, psi) for m in models))
    if shared and (plugin or mixed or len(flat) > 1 or len({rows.shape[1] for rows in blocks}) > 1):
        return None
    lower = psi.envelope if exact else None
    if one_model:
        pair = _ratio_fn(models[0], psi)
        pair = _one_plugin_warning(pair) if plugin else pair
    else:
        stacked = _stacked_ratio(psi, models)
    per_point = any(map(_costs_per_point, (*distinct, psi.source)))
    # the first row of each search, then the number of rows
    starts = [0, *accumulate(counts)]
    row0 = np.array(starts)
    asked = [0] * n_parts

    def parts(p, at):
        """(num, den) at the points of an array call, search k's being
        p[at[k]:at[k + 1]] (all of p for one search, ``at`` None); every
        point is counted to its search."""
        if n_parts == 1:
            asked[0] += p.size
        else:
            for k in range(n_parts):
                asked[k] += at[k + 1] - at[k]
        return pair(p) if one_model else stacked(p, at)

    def num_den(p, row):
        # each search's points start where its first row does
        return parts(p, None if n_parts == 1 else np.searchsorted(row, row0.astype(row.dtype, copy=False)).tolist())

    pruned = [per_point and lower is not None and s.grid and _prune_pays(s, psi) for s in searches]
    try:
        at_points = _point_values(parts, searches, lower, pruned)
        if flat == {True}:
            found = _row_starts(parts, searches)
        else:
            found = sup_rows(
                num_den,
                _cat(blocks) if blocks else _NO_ROWS,
                floor=[v.max() if v.size else -math.inf for v in at_points],
                search=np.arange(n_parts).repeat(counts),
                per_point=per_point,
                lower=lower,
            )
    except Exception as exc:
        if shared:
            return None
        if isinstance(exc, DivergentMomentError):
            s = searches[0]
            return [NormResult(math.inf, float(exc.p), float(s.p_max), False, asked[0])]
        raise
    if shared and found.reran:
        return None
    out = []
    for k, s in enumerate(searches):
        lo, hi = starts[k], starts[k + 1]
        at = at_points[k]
        # the largest value, ties going to the smallest p: the first best
        # of the points, then of the rows, both in increasing order of p;
        # i indexes the points followed by the rows
        value, arg, i = -math.inf, math.inf, -1
        if at.size:
            i = int(at.argmax())
            value, arg = float(at[i]), float(s.points[i])
        if hi > lo:
            j = lo + int(found.values[lo:hi].argmax())
            row_value, row_arg = float(found.values[j]), float(found.args[j])
            if row_value > value or row_value == value and row_arg < arg:
                value, arg, i = row_value, row_arg, at.size + j - lo
        if s.grid:
            decreasing = at.size >= 3 and at[-3] > at[-2] > at[-1]
        else:
            at_p_max = hi > lo and s.rows[-1, -1] == s.p_max
            decreasing = not s.truncated or at_p_max and found.decreasing_at_hi[hi - 1]
        out.append(NormResult(
            value=value,
            arg_p=arg,
            truncation_p_max=float(s.p_max),
            decreasing_at_hi=bool(decreasing),
            n_evaluations=asked[k],
            arg_index=i + 1 if s.grid else None,
            constant_ratio=psi.source is s.model,
            # a zero model has the value 0.0, which a tiny nonzero one may
            # also underflow to; only |f|_1 tells them apart
            zero_model=value == 0.0 and float(s.model.lp_norm(1.0)) == 0.0,
            truncated=s.truncated,
        ))
    return out


def _point_values(parts, searches: Sequence[NormSearch], lower: Optional[tuple], pruned: list) -> list:
    """The ratio at the exact points of each search, from ``parts`` as in
    _search.  Where ``pruned[k]``, search k's points, a grid's, are one row
    of search._scan under ``lower``, its levels, chord bound and margin: the
    first level holds the grid's last point, so the first call reaches its
    largest p as the one-call evaluation does, and the last three points,
    its edge evidence, are always evaluated; a point the scan skips reads
    -inf, and lies strictly below the grid's largest value.  Where that scan
    meets a NaN ratio or a divergent moment, the grid's points are evaluated
    in one call instead, so the error and the p it names are that call's.
    Every other search's points are evaluated in one array call, made
    first (_split_call)."""
    n_parts = len(searches)
    values = _split_call(parts, [_NO_POINTS if skip else s.points for s, skip in zip(searches, pruned)])
    for k, s in enumerate(searches):
        if pruned[k]:

            def grid_parts(p, _, k=k):
                # every point of the call is search k's
                return parts(p, [0] * (k + 1) + [p.size] * (n_parts - k))

            values[k] = _scan(s.points[None, :], grid_parts, None, None, lower)[0][0]
    return values


def _split_call(parts, points: list) -> list:
    """The ratio at the points ``points[k]`` of each search k, from one
    array call of ``parts`` (search k's points of the call are
    p[at[k]:at[k + 1]]), as one array per search; no call where no search
    has a point (the empty arrays are then their own ratios)."""
    at = [0, *accumulate(p.size for p in points)]
    if not at[-1]:
        return points
    ys = _eval_parts(lambda p, _: parts(p, at), _cat(points), None)[2]
    return [ys[lo:hi] for lo, hi in zip(at, at[1:])]


def _abs_constant(model) -> bool:
    """Whether |f| is constant almost surely, for a PowerMeanModel or a
    ClosedFormModel, decided exactly and without a moment: every value of a
    power mean scaled by its maximum is 1.0, or the maximum is 0; a closed
    form's ess_sup is finite and equals its |f|_1.  A power mean's |f|_1
    would not do: {2, 2 (1 - 2^-53)} rounds to |f|_1 = 2 = ess_sup."""
    if isinstance(model, PowerMeanModel):
        scaled = model._moments.scaled
        # the first value turns down most models without a NumPy call
        return scaled is None or scaled.item(0) == 1.0 and bool((scaled == 1.0).all())
    return model.ess_sup < math.inf and model.ess_sup == model._mean_abs


def _row_starts(parts, searches: Sequence[NormSearch]) -> RowSupremum:
    """sup_rows' result for ``searches`` whose ratio cannot rise along a
    row (see _search), from one array call of ``parts`` (``calls`` is 1,
    or 0 where no search has a row): each row's value is its first
    point's, and the edge evidence of a search's last row is read from that
    row's last three points (_split_call).  Scan rows hold at least
    _CELL_POINTS points."""
    xs = [np.concatenate((s.rows[:, 0], s.rows[-1, -3:])) if s.rows.shape[0] else _NO_POINTS for s in searches]
    values, decreasing = [], []
    for ys in _split_call(parts, xs):
        if ys.size:
            values.append(ys[:-3])
            decreasing += [False] * (ys.size - 4) + [ys[-3] > ys[-2] > ys[-1]]
    args = _cat([s.rows[:, 0] for s in searches])
    return RowSupremum(_cat(values), args, np.array(decreasing, dtype=bool), 0, 0, 0, 0, 0, int(bool(values)))


def gls_norms(
    models: Sequence[RandomVariableModel],
    psi: GeneratingFunction,
    p_max: float = DEFAULT_P_MAX,
    rset: Optional[RestrictedSet] = None,
) -> list:
    """gls_norm of every model of ``models`` under one psi, domain and
    p_max, in one search (see _search): one NormResult per model, each
    with the bits gls_norm gives that model alone."""
    if not models:
        raise DomainError("gls_norms needs at least one model")
    search = domain_search(models[0], p_max, rset)
    return sup_norms(psi, [search._replace(model=m) for m in models])


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
    return sup_norms(psi, [domain_search(model, p_max, rset)])[0]


def discrete_norm(model: RandomVariableModel, psi: GeneratingFunction, q: GridSequence) -> NormResult:
    """max over the stored grid of |f|_{q(m)} / psi(q(m)), with the bits of
    the enumeration of every grid point: where the ratio costs by the
    point under an envelope and the grid's points times its values pass
    _PRUNE_GRID_MIN, the points the chord bound puts below the largest
    value are not evaluated, and only n_evaluations falls."""
    return sup_norms(psi, [grid_search(model, q)])[0]


# ---------------------------------------------------------------------------
# Sandwich checks

@dataclass(frozen=True)
class SandwichReport:
    """Outcome of a two-sided equivalence check on a common window.

    left  :  inner <= full        (a sup over a subset cannot exceed it)
    right :  full <= constant * inner
    The report stores the two norms, the constant and the labels of the
    inputs; every verdict is read off them.  ``slack`` is the relative
    tolerance applied, 1e-9: both moment backends, closed form and power
    mean, are exact up to rounding.  When the constant or a norm is
    infinite the right side is not applicable and only the left side is
    judged.
    """

    slack: ClassVar[float] = _RTOL

    model_label: str
    psi_description: str
    domain_description: str
    full: NormResult
    inner: NormResult
    constant: EquivalenceConstant

    @property
    def kind(self) -> str:
        """'restricted' for Z, 'discrete' for W and W^."""
        return "restricted" if self.constant.kind == "Z" else "discrete"

    @property
    def window_p(self) -> float:
        """P, the end of the common window: the full norm's truncation."""
        return self.full.truncation_p_max

    @property
    def full_value(self) -> float:
        return self.full.value

    @property
    def inner_value(self) -> float:
        return self.inner.value

    @property
    def bound(self) -> float:
        return self.constant.value * self.inner_value

    @property
    def left_ok(self) -> bool:
        return self.inner_value <= self.full_value * (1.0 + self.slack)

    @property
    def right_ok(self) -> bool:
        c, full, inner = self.constant.value, self.full_value, self.inner_value
        if not (math.isfinite(c) and math.isfinite(full) and math.isfinite(inner)):
            return True  # right side not applicable, never asserted false
        return full <= c * inner * (1.0 + self.slack)

    @property
    def ok(self) -> bool:
        return self.left_ok and self.right_ok


def sandwich_check_restricted(
    model: RandomVariableModel,
    psi: GeneratingFunction,
    S: RestrictedSet,
    p_max: float = DEFAULT_P_MAX,
) -> SandwichReport:
    """Check inner <= full <= Z * inner on the window [1, p_plus(p_max)],
    p_max checked first, as domain_search checks it.

    The window is RestrictedSet.window, the set's ends cut at P.  Z is
    computed over the windowed set: its gaps are exactly the gaps a p in
    the window can fall into, so the bound is valid and finite even when
    the untruncated set continues with larger gaps.  The inner
    norm (the windowed set's rows and isolated points) and the full norm
    (the row [1, P]) are one search (sup_norms), each with the bits of
    gls_norm.
    """
    _check_p_max(p_max)
    windowed = S.window(p_max)
    P = windowed.windowed_at
    inner, full = sup_norms(psi, [domain_search(model, P, windowed), domain_search(model, P)])
    return SandwichReport(model.label, psi.description, S.description, full, inner, z_constant(windowed, psi))


def _cellwise_full_norm(model: RandomVariableModel, psi: GeneratingFunction, gtr: GridSequence) -> NormResult:
    """Full norm over [1, q(M)] with every partition cell scanned on its own.

    An oscillating psi can hide whole peaks between the samples of a
    single geometric scan of [1, q(M)].  The W^ constant resolves each
    cell with its own dense sample, so the norm search on the other side
    of the sandwich has to match that resolution or the two sides end up
    looking at different functions.  Each cell is a scan row of
    _CELL_POINTS evenly spaced points.
    """
    return sup_norms(psi, [_cell_search(model, gtr)])[0]


def sandwich_check_discrete(
    model: RandomVariableModel,
    psi: GeneratingFunction,
    q: GridSequence,
    p_max: float = DEFAULT_P_MAX,
    use_w_hat: bool = False,
) -> SandwichReport:
    """Check discrete <= full <= W * discrete (or W^ when requested), p_max
    checked first, as domain_search checks it.

    The W route is only sound for nondecreasing psi; a non-monotone
    generating function must go through W^, whose cell minima assume
    nothing.  The two routes stay separate on purpose: W^ collapsing to
    W on monotone inputs is itself a tested property, not a shortcut.

    The two norms of each route are one search (sup_norms), the grid
    values as exact points and the full window: the row [1, P] for W, the
    cell rows of _cellwise_full_norm for W^.  The constant comes after
    them, as on every route: W's monotone test, then W (a psi that fails
    the test is a NonMonotoneError once both norms are found clean); W^
    from w_hat_constant, which depends on psi and the grid only and is
    computed once per (psi, cell ends) per process.
    """
    _check_p_max(p_max)
    idx = q.first_index_at_least(p_max)
    if idx > q.M:
        raise TruncationError(
            f"{q.description} stores {q.M} points but the window needs q({idx}); increase M"
        )
    gtr = q.truncated(idx)
    P = float(gtr.values[-1])
    window = _cell_search(model, gtr) if use_w_hat else domain_search(model, P)
    inner, full = sup_norms(psi, [grid_search(model, gtr), window])
    if use_w_hat:
        const = w_hat_constant(gtr, psi)
    else:
        _check_monotone(psi, P, "the W bound does not apply, pass use_w_hat=True")
        const = w_constant(gtr, psi)
    return SandwichReport(model.label, psi.description, q.description, full, inner, const)
