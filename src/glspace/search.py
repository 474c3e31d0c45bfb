"""Supremum search: one batched scan plus golden-section refinement.

Every searched value is a ratio num / den, and one function
``parts(x, row) -> (num, den)`` serves the whole search: the scan, every
pruning level, both refinement routes and the rerun after an error.  A
plain function f is searched as the ratio (f, 1), whose division is exact.
Nothing here assumes unimodality.  A search covers one or more rows
(segments or cells), each sampled on its own increasing grid, and
``parts`` is evaluated on every row in one array call.  It is told the row
of each point it is asked for, so the rows may belong to several functions
(the norms of several models under one psi, as for an algebra check; the
two norms of a sandwich check), and every array call of the search, scan
and refinement alike, serves them all.  Every local maximum of a
row (endpoints included) is bracketed by its scan neighbours and refined
by golden section (Kiefer, "Sequential minimax search for a maximum",
Proc. AMS 1953), unless it is a plateau: a scan value whose neighbours
agree with it to a few ulp keeps that value.  The best value of a row
wins, with ties broken toward the smallest argument so results are
deterministic.

Two facts about the ratio decide what a search may skip, and sup_rows
reads every choice from them:
- ``per_point``, a cost: ``parts`` costs by the points it is asked for
  more than by its calls (a power mean of many values);
- ``lower`` = (L, chord), an envelope: num is a p-norm on a probability
  space, and L is a lower envelope of den, nondecreasing and at most den,
  with a concave ln L where ``chord`` is set.  L None stands for den
  itself, then nondecreasing.
The pruned scan runs where ``per_point`` holds and ``lower`` is given.
The end certificate applies where ``lower`` is (None, True), den's own
concave chord.  The bracket bound applies where ``lower`` is given and
more than SCALAR_BRACKETS brackets remain.  Guessed rounds refine where
``per_point`` does not hold and at most SCALAR_BRACKETS brackets remain;
lockstep refines every other search.

Refinement takes one of two routes, chosen once for the whole search.
Both take golden_section_max's update rule, stopping width and tie-break
and ask ``parts`` for arrays of points only, so they give its bits as
long as ``parts`` gives a point the same bits in any array, as the moment
kernels and psi's evaluators do (norms._ratio_fn, which takes arrays
only).
- Lockstep: every bracket takes one golden step per array call, so
  ``parts`` is asked for golden_section_max's points and no other: where
  a guessed point would cost more than the call it saves, or where there
  are too many brackets to guess.
- Guessed rounds: a few brackets refine in rounds, one array call for all
  of them per round.  Golden section's next point depends only on its
  left/right decisions, never on the values, so a round lays out the
  points of a decision path before any is evaluated, then replays the
  update rule over their values.  Each round guesses every bracket's
  decisions to the end of its path, toward a predicted peak: in the first
  round a row end for a peak there, else the vertex of the parabola
  through the scan peak and its neighbours; in every later round the
  vertex of the parabola through the inner point golden section keeps
  and its two neighbours in the bracket (_Golden.aim), as in Brent's
  parabolic step (Brent, "Algorithms for Minimization without
  Derivatives", 1973), which here only aims the guesses.  The replay
  stops at the first wrong guess, which only costs the points evaluated
  past it.
When refinement raises (a NaN ratio, a domain error, a divergent moment),
perhaps at a point off golden section's path in a guessed round, or on a
later bracket's path that lockstep reaches first, each bracket reruns
alone from its ends, in row order, as a one-bracket lockstep.  So the
error is the one golden_section_max meets on the first bracket that
meets one, naming the same p; where no bracket meets one alone, the
search returns, and RowSupremum.reran counts the brackets it reran.

The chord bound.  When ``num`` = |g|_p is a p-norm on a probability
space and L is a lower envelope of ``den`` (``lower``), the values of
num and L at the ends of a cell [a, b] bound f = num / den on the whole
cell, since f <= num / L.  p ln num(p) = ln E|g|^p is convex in p
(Lyapunov), so it lies below its chord on the cell.  Where ``chord`` is
set, ln L is concave in p and lies above its own chord; otherwise ln L(q)
>= ln L(a), as L is nondecreasing.  With w = (q - a) / (b - a), dL =
ln(num(b) / num(a)) and dl = ln(L(b) / L(a)) (dl = 0 without the chord),
the first chord gives ln num(q) - ln num(a) <= w (b / q) dL and the
second ln L(q) - ln L(a) >= w dl, so relative to num(a) / L(a), which is
f(a) where L is den,

    ln f(q) - ln (num(a) / L(a)) <= w ((b / q) dL - dl),

the gain of _chord_gain.  It is 0 at a and dL - dl at b, and as
c - dl q / (b - a) - a b dL / ((b - a) q) it has one stationary point,
q* = sqrt(a b dL / dl), so its largest value on any part of the cell is
at that part's ends or at q* clipped to them.  The form never takes ln
num or ln L themselves, only the logs of ratios of neighbouring values
near 1, weighed by w and w b / q, both in [0, 1]: a few ulp of error in
num and L at the cell's ends are a few ulp of absolute error in the
gain, whatever the scale of f.  So its three readers (the pruned scan,
the end certificate and the bracket bound, each below) need a margin of
a few ulp only, and all read one far wider, _CHORD_MARGIN.  The bound is
used as the Lipschitz bound is in the branch and bound of Piyavskii
(1972) and Shubert (1972).  The bound of a cell, cell_bounds, is
num(a) / L(a) exp(gain over [a, b]); for L = den without the chord it is
max(num(a), num(b)) / den(a), the W constant's argument (full <= W *
discrete) on the scan grid, and the chord makes it second-order in the
cell width, so near a flat peak it is far tighter.

The pruned scan works in levels, one per entry of _COARSE_STEPS (64, 16,
then 4).  The first level evaluates every 64th point of each row and the
row's last point, and drops every cell whose bound, widened by
_CHORD_MARGIN for rounding, is below the best value seen.  Each next
level evaluates its points inside the live cells of the level before
only, and drops its cells by the same rule.  In exact arithmetic a child
cell's bound is at most its parent's (the child's chord of p ln num lies
below the parent's, its chord of ln L above), and the best point of a
level lies in a live cell of the level before, so the live cells of the
last level are those a one-level pass at its step would keep.  The fine
pass then evaluates the points of the live cells, the point next to each
end of a live cell and the last three points of each row.  Every
dropped point or bracket is strictly below a value the search
evaluates, and every local maximum that remains has the same scan
neighbours as in the full scan, so the overall supremum, its argument
and the edge evidence keep their bits.  It pays only where a point costs
more than a call: on a small array the full scan is cheaper.  The rows
need not be a norm's scan: norms._point_values scans a grid's values as
one row, whose cells lie between consecutive grid values, which the bound
of a cell covers as it covers every p of the cell.

The end certificate spares a peak at a row end, where a ratio that falls
(or rises) through its row peaks most often.  Golden section on the cell
[a, b] of a peak at a asks only for points at least (1 - INV_PHI) *
INV_PHI * min(b - a, its stopping width), about 0.236 of that, from a:
its first two points lie 0.382 (b - a) from the ends, and each later one
0.382 of a bracket that is 0.618 of one still wider than the stopping
width.  When the gain over the part of the cell golden section can reach
(all of it but the _REACH * min(b - a, stopping width) next to the
peak), less dL - dl for a peak at b, is below -_CHORD_MARGIN, every
point golden section would evaluate is below the peak, and
golden_section_max would return the peak itself: a tie never moves its
best point to a larger p, and a peak at b is certified only where f(b) >
f(a), so that b is its best point from the start.  Such a bracket is not
refined, and only the count of evaluations changes.  The bound must be
f's own there, so the certificate reads den's own concave chord only.

The bracket bound rules out brackets whose peak cannot win.  A bracket
spans the one or two scan cells beside its peak, so when the cell bound
of each, widened by _CHORD_MARGIN, lies below the best value its search
has evaluated (a scan value or a value known from elsewhere, ``floor``),
golden section cannot lift the bracket to that value, and the bracket is
not refined.  The bound reads only scan values and L at three points a
bracket, so a search takes it only when it holds more brackets than it
may guess, where refinement costs most: the 199 cells of a W^ check
under sqrt_dip, one interior peak each, leave one or two brackets to
refine.  A dropped bracket is strictly below its search's best value, so
the search's value and argument keep their bits; only its row may report
a lower value, as under pruning, and the count of evaluations changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DivergentMomentError, DomainError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The most brackets a search refines in guessed rounds (_speculate),
# counted over all its rows, whatever functions they belong to.  A search
# with more refines in lockstep and, under an envelope, takes the bracket
# bound first; a search whose ratio costs by the point (sup_rows'
# ``per_point``) refines in lockstep whatever its brackets.  Timed on k
# rows of 64 points with one interior peak each (Python 3.11, NumPy 2.4, a
# 2-core x86-64 VM, CPU time, median of 9 rounds, the two routes
# alternating), lockstep breaks even at 12 brackets for one function (a
# Gaussian under sqrt_dip).  On one seed-7 run of each
# benchmark workload, counting the searches that refine any bracket: norm
# refines 28 searches (29 brackets in all) lockstep because their ratios
# cost by the point and 17 (18) in guessed rounds; sandwich refines 68
# (120) in guessed rounds and one lockstep, W^'s cell minima (237), since
# sqrt_dip's lower envelope leaves each of its 48 W^ full norms one or two
# brackets of about 200 (9,856 in all, lockstep, without it); algebra
# refines 193 (309) in guessed rounds, and tail refines none.
SCALAR_BRACKETS = 12

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
# On 2^14..2^16-value samples under the norm workload's psi, plain and on a
# set, (64, 16, 4) evaluated 29 scan points an op against 35 for (64, 8)
# and 32 for (64, 8, 2); (128, 32, 8) took 28, and their CPU times were
# within noise of each other (measured at a margin of 1e-10)
_COARSE_STEPS = (64, 16, 4)
# The one margin of the chord bound's three readers (the module docstring):
# the pruned scan and the bracket bound drop a cell whose bound times
# 1 + _CHORD_MARGIN is below the best value, and the end certificate leaves
# a bracket of a row-end peak unrefined where the bound over the points
# golden section can reach lies below the peak by more than _CHORD_MARGIN,
# in ln f.  Each compares a computed bound with computed values, so the
# margin covers rounding in units of 2^-52, each an absolute error of that
# size in a log.  The ratio at a point: each within 4 ulp for the power
# mean, 20 for the Gaussian, exponential and uniform01 moments (exact for a
# constant and the Rademacher signs) and 6 for the power family psi (all
# against a 40-digit reference in tests/test_decimal_reference.py), 0.5 for
# the division, 53 in all at the closed forms.  The chord's dL and dl, from
# num and den at the cell ends: 2 * 20 and 2 * 6, weighed by factors in
# [0, 1], and 1.5 for each quotient and its log, 55.  A few ulp of the gain
# itself, which is of the order of dL, far below 1 ulp in a log; for a
# cell's bound, a few ulp of f(a) and the exp; and an error in q* costs
# second order.  About 110 ulp, 2.4e-14, is a fortieth of the margin (45
# ulp, a hundredth, for the power means); the rest covers a power mean of
# more values than the reference test's, whose pairwise sum rounds up to
# log2 n times, and closed-form moments at p between the reference's
# integer and half-integer arguments of Gamma.  With _REACH's 2e-11 p a
# peak certifies where ln f falls off it by more than about 0.05 per unit of
# ln p.  On two seed-7 blocks of the benchmark, 1e-12 certified 63 of the 64
# end brackets of the norm workload and 823 of 858 of algebra when only
# power means took the certificate; 1e-13 64 and 851; 1e-11 24 and 530;
# 1e-10 none.  With the closed forms, 1e-12 certifies 259 of the 268 end
# brackets of the sandwich workload and 474 of 487 of norm
_CHORD_MARGIN = 1e-12
# Golden section comes no nearer a row-end peak than 0.236 of min(width,
# stopping width), 2.4e-11 p on a norm's scan; _REACH leaves room for the
# rounding of its points, a few ulp of p
_REACH = 0.2


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
    """Per-row outcome of sup_rows.

    ``values`` and ``args`` hold each row's best value and where it was
    found, ties going to the smallest argument; ``decreasing_at_hi`` says
    whether the row's last three scan values strictly decrease, the
    evidence that ending the row there was harmless.  Over all rows,
    ``plateaus`` counts the brackets left unrefined because they were
    flat, ``pruned`` the cells a pruned scan dropped unevaluated, and
    ``certified`` the brackets of row-end peaks left unrefined because
    golden section could not beat them, ``reran`` the brackets rerun
    alone after an error in refinement that none of them met alone,
    ``ruled_out`` the brackets whose cell bounds under a lower envelope lay
    below their search's best value, left unrefined, and ``calls`` the
    array calls of ``parts`` the search made: the scan (or each pruning
    level and the fine pass), each guessed round or lockstep iteration, and
    each call of the reruns."""

    values: np.ndarray
    args: np.ndarray
    decreasing_at_hi: np.ndarray
    plateaus: int
    pruned: int
    certified: int
    reran: int
    ruled_out: int
    calls: int


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
    not asked for them again.  This is _Golden walked one point at a time,
    every decision taken on known values.
    """
    if hi < lo:
        raise DomainError(f"empty bracket [{lo}, {hi}]")
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    g = _Golden(lo, hi, f_lo, f_hi, tol)
    g.walk(f, repeat(None))
    return g.best_x, g.best_v


def _guess_left(x1: float, x2: float, target: float) -> bool:
    """The predicted decision f(x1) >= f(x2) for a peak at ``target``:
    left when the peak lies at or below the midpoint, which is the exact
    decision for a parabola (ties go left, as the update rule's do)."""
    return target <= 0.5 * (x1 + x2)


def _vertex(x0, y0, x1, y1, x2, y2) -> float:
    """Abscissa of the vertex of the parabola through three points whose
    middle one is the highest; ``x1`` when that is undefined (collinear
    points, an infinite value)."""
    p, q = (x1 - x0) * (y1 - y2), (x1 - x2) * (y1 - y0)
    d = p - q
    if d == 0.0 or not math.isfinite(d):
        return x1
    v = x1 - 0.5 * ((x1 - x0) * p - (x1 - x2) * q) / d
    return v if math.isfinite(v) else x1


class _Golden:
    """golden_section_max on one bracket, as a state that can advance by
    several points at a time.

    The bracket [a, b] holds the inner points x1 < x2 with values f1, f2
    (both None until evaluated, together).  The points golden section asks
    for depend only on its decisions, f1 >= f2 (keep [a, x2]) or not, never
    on the values themselves.  So plan() lays out the points of the whole
    path, its decisions past the known values guessed, and walk() runs the
    update rule, the best-point tie-break and the stopping width over their
    values up to the first guess the values contradict.  Every step walk()
    confirms is the step of golden_section_max, on the same floats.
    """

    __slots__ = ("a", "b", "fa", "fb", "x1", "x2", "f1", "f2", "best_x", "best_v", "width_tol", "steps")

    def __init__(self, lo, hi, f_lo, f_hi, tol: float):
        self.best_x, self.best_v = lo, f_lo
        if f_hi > f_lo:
            self.best_x, self.best_v = hi, f_hi
        self.a, self.b, self.fa, self.fb = lo, hi, f_lo, f_hi
        self.x1 = hi - INV_PHI * (hi - lo)
        self.x2 = lo + INV_PHI * (hi - lo)
        self.f1 = self.f2 = None
        self.width_tol = tol * max(1.0, abs(lo), abs(hi))
        self.steps = 0

    @property
    def done(self) -> bool:
        return self.f2 is not None and (self.b - self.a <= self.width_tol or self.steps >= _MAX_ITER)

    def aim(self) -> float:
        """The predicted peak once x1 and x2 are evaluated: the vertex of
        the parabola through the inner point golden section keeps (x1 where
        f1 >= f2) and its two neighbours in the bracket, or the bracket end
        beside it where that end is higher, for a bracket that rises to an
        end."""
        if self.f1 >= self.f2:
            if self.fa > self.f1:
                return self.a
            return _vertex(self.a, self.fa, self.x1, self.f1, self.x2, self.f2)
        if self.fb > self.f2:
            return self.b
        return _vertex(self.x1, self.f1, self.x2, self.f2, self.b, self.fb)

    def plan(self, target: float) -> tuple:
        """The points golden section asks for to the end of its path, x1
        and x2 first while unevaluated, and the decision of each step: taken
        from the values where these are known, guessed toward ``target``
        past them.  Returns (points, decisions)."""
        pts = [self.x1, self.x2] if self.f2 is None else []
        left = None if pts else self.f1 >= self.f2
        a, b, x1, x2, tol = self.a, self.b, self.x1, self.x2, self.width_tol
        lefts = []
        for _ in range(_MAX_ITER - self.steps):
            if b - a <= tol:
                break
            if left is None:
                left = _guess_left(x1, x2, target)
            # walk()'s golden step, written out as there: plan lays out
            # every point of a path, and a call per step took a third of
            # its time
            if left:
                b, x2 = x2, x1
                x1 = x = b - INV_PHI * (b - a)
            else:
                a, x1 = x1, x2
                x2 = x = a + INV_PHI * (b - a)
            lefts.append(left)
            pts.append(x)
            left = None
        return pts, lefts

    def walk(self, f, lefts) -> None:
        """Golden section's update rule from the current state.  ``f(x)``
        is the value of each point it asks for, x1 and x2 first while
        unevaluated.  ``lefts`` holds a planned decision per step (None
        where the values decide): the walk stops at the first planned one
        the values contradict, when they run out, or at the stopping width."""
        a, b, fa, fb, x1, x2, f1, f2 = self.a, self.b, self.fa, self.fb, self.x1, self.x2, self.f1, self.f2
        best_x, best_v, steps, tol = self.best_x, self.best_v, self.steps, self.width_tol
        if f2 is None:
            f1, f2 = f(x1), f(x2)
            for x, v in ((x1, f1), (x2, f2)):
                if v > best_v or (v == best_v and x < best_x):
                    best_x, best_v = x, v
        for planned in lefts:
            left = f1 >= f2
            if b - a <= tol or steps >= _MAX_ITER or (planned is not None and planned != left):
                break
            # keep [a, x2] (left) or [x1, b]; the new point is x1 or x2 of
            # the new bracket, the other inner point the old x1 or x2
            if left:
                b, fb, x2, f2 = x2, f2, x1, f1
                x1 = x = b - INV_PHI * (b - a)
                f1 = v = f(x)
            else:
                a, fa, x1, f1 = x1, f1, x2, f2
                x2 = x = a + INV_PHI * (b - a)
                f2 = v = f(x)
            steps += 1
            if v > best_v or (v == best_v and x < best_x):
                best_x, best_v = x, v
        self.a, self.b, self.fa, self.fb, self.x1, self.x2, self.f1, self.f2 = a, b, fa, fb, x1, x2, f1, f2
        self.best_x, self.best_v, self.steps = best_x, best_v, steps


def _speculate(parts, lo, f_lo, hi, f_hi, tol: float, rows: np.ndarray, targets: list):
    """golden_section_max on every bracket [lo[k], hi[k]], of the scan row
    rows[k], in guessed rounds of one array call of ``parts`` each.

    Each round asks for the points of every unfinished bracket's whole
    remaining path, its decisions guessed toward a target: targets[k] in
    the first round, the bracket's _Golden.aim in every later one.
    An error of ``parts`` propagates, whether or not it lies on golden
    section's path (sup_rows then reruns the brackets one by one).
    Returns (args, values).
    """
    # Python floats in, so the golden-section arithmetic takes float paths
    # (same IEEE operations as on numpy scalars)
    ends = zip(lo.tolist(), hi.tolist(), f_lo.tolist(), f_hi.tolist())
    brackets = [_Golden(a, b, fa, fb, tol) for a, b, fa, fb in ends]
    live, live_rows = brackets, rows.tolist()
    while live:
        plans = [g.plan(t) for g, t in zip(live, targets)]
        counts = [len(pts) for pts, _ in plans]
        xs = np.array([x for pts, _ in plans for x in pts])
        values = _eval_parts(parts, xs, np.array(live_rows).repeat(counts))[2].tolist()
        at = 0
        for g, (_, lefts), count in zip(live, plans, counts):
            it = iter(values[at : at + count])
            g.walk(lambda x: next(it), lefts)
            at += count
        live_rows = [row for g, row in zip(live, live_rows) if not g.done]
        live = [g for g in live if not g.done]
        targets = [g.aim() for g in live]
    return np.array([(g.best_x, g.best_v) for g in brackets], dtype=float).reshape(-1, 2).T


def _golden_lockstep(parts, lo, f_lo, hi, f_hi, tol: float, rows: np.ndarray):
    """golden_section_max on every bracket [lo[k], hi[k]], of the scan row
    rows[k], at once.

    ``f_lo`` / ``f_hi`` are the values already known at the bracket ends.
    Each iteration moves every bracket still wider than its stopping
    width and evaluates ``parts`` once on the array of new points.  The state
    is kept for the moving brackets only, so an iteration is a few whole
    array operations; a bracket that stops leaves it.  Returns (args,
    values).
    """
    a, b = lo, hi
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    # x1 and x2 of each bracket side by side, so the points come row by row
    f12 = _eval_parts(parts, np.stack([x1, x2], axis=1).ravel(), rows.repeat(2))[2].reshape(-1, 2)
    f1, f2 = f12[:, 0], f12[:, 1]
    # the best of the four points so far: the first largest value in order of p
    first = np.argmax([f_lo, f1, f2, f_hi], axis=0)
    best_x, best_v = np.choose(first, (lo, x1, x2, hi)), np.choose(first, (f_lo, f1, f2, f_hi))
    width_tol = tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    # the moving brackets: their indices, then their state
    at, bx, bv = np.arange(lo.size), best_x, best_v
    for _ in range(_MAX_ITER):
        live = b - a > width_tol
        if not (live.size and live.all()):
            best_x[at], best_v[at] = bx, bv
            if not live.any():
                return best_x, best_v
            at, a, b, x1, x2, f1, f2, bx, bv, width_tol, rows = (
                state[live] for state in (at, a, b, x1, x2, f1, f2, bx, bv, width_tol, rows)
            )
        left = f1 >= f2
        # keep [a, x2] (left) or [x1, b]; the new point is x1 or x2 of the
        # new bracket, the other inner point the old x1 or x2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        d = INV_PHI * (b - a)
        x = np.where(left, b - d, a + d)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        v = _eval_parts(parts, x, rows)[2]
        f1, f2 = np.where(left, v, f2), np.where(left, f1, v)
        better = (v > bv) | ((v == bv) & (x < bx))
        bx, bv = np.where(better, x, bx), np.where(better, v, bv)
    best_x[at], best_v[at] = bx, bv
    return best_x, best_v


def sup_rows(
    parts: Callable[[np.ndarray, np.ndarray], tuple],
    xs: np.ndarray,
    refine_tol: float = _REFINE_TOL,
    floor=None,
    search: Optional[np.ndarray] = None,
    per_point: bool = False,
    lower: Optional[tuple] = None,
) -> RowSupremum:
    """Supremum of the ratio num / den over each row of the scan grid ``xs``.

    Each row is an increasing grid whose first and last points are the
    ends of its interval.  ``parts(x, row)`` takes an array of points and
    the array of their row indices in ``xs``, never a scalar, and returns
    the arrays (num, den) of the ratio at those points, so one search can
    serve rows of different functions; every array call lists its points
    row by row, their row indices nondecreasing.  A NaN ratio, or an
    infinite one of a finite num, raises DomainError naming the first p
    where it occurred.  The scan asks for all rows in one array call;
    every local maximum of a row is then refined inside the cell spanned
    by its scan neighbours, to the stopping width ``refine_tol``, unless
    the three scan values agree within _PLATEAU_ULP ulp: such a plateau (a
    flat ratio makes every scan point one) keeps its scan value.  Both
    refinement routes reuse the scan values at the bracket ends and give
    the bits of golden_section_max, and when either raises, each bracket
    reruns alone in row order, so an error names the p golden_section_max
    names on the first bracket that meets one; where none does, ``reran``
    counts the brackets rerun.  Refinement never loses the scan value it
    started from.

    Two facts choose what the search skips (the module docstring).
    ``per_point`` says that ``parts`` costs by the points it is asked for
    more than by its calls.  ``lower`` = (L, chord) promises that num is a
    p-norm on a probability space and gives a lower envelope of den:
    ``L(p)``, of an array of any shape, is nondecreasing and at most den
    at every p, and ln L is concave where ``chord`` is set; L None stands
    for den itself, then nondecreasing.  With both, the scan is pruned;
    with (None, True), a peak at a row end whose chord bound proves that
    golden section cannot beat it is not refined; with ``lower``, a search
    that would refine more than SCALAR_BRACKETS brackets drops each whose
    cell bounds lie below its search's best value.  Up to SCALAR_BRACKETS
    brackets, counted over all rows, refine in guessed rounds unless
    ``per_point``; every other search refines in lockstep, so that no
    point off golden section's path is evaluated.

    ``floor`` holds a value known from elsewhere (the exact points of a
    norm), one per search (-inf for each when None), ``search`` giving the
    search of each row (all the first when None); the pruning and the
    bracket bound compare each search's cells against the best of its own
    floor and its own values, never against another search's.  Under
    either, the largest of a search's row values and its floor and its
    argument are those of the full search, bit for bit, as is
    ``decreasing_at_hi``; a row that cannot hold that supremum may report
    a lower value.  When a NaN ratio or a divergent moment stops the
    pruned scan, the full scan runs instead, so the error and the p it
    names are the full scan's.  The certificate changes no result, only
    the points ``parts`` is asked for.
    """
    rows, n = xs.shape
    if not rows:
        return RowSupremum(np.empty(0), np.empty(0), np.zeros(0, dtype=bool), 0, 0, 0, 0, 0, 0)
    calls = 0

    def counted(x, row):
        nonlocal calls
        calls += 1
        return parts(x, row)

    ys, known, pruned, num, den = _scan(xs, counted, floor, search, lower if per_point else None)
    r, i, il, ih, k, n_flat = _brackets(xs, ys, known)
    certified = 0
    if lower is not None and lower[0] is None and lower[1]:
        sure = _certified(xs, ys, num, den, r[k], i[k], refine_tol)
        certified = int(np.count_nonzero(sure))
        k = k[~sure]
    ruled_out = 0
    if lower is not None and k.size > SCALAR_BRACKETS:
        below = _below_best(xs, num, den, r[k], i[k], il[k], ih[k], lower, _row_best(ys, floor, search)[r[k]])
        ruled_out = int(np.count_nonzero(below))
        k = k[~below]
    cand_x, cand_v = xs[r, i], ys[r, i]
    rk, il, ih = r[k], il[k], ih[k]
    ends = xs[rk, il], ys[rk, il], xs[rk, ih], ys[rk, ih]
    reran = 0
    try:
        if per_point or k.size > SCALAR_BRACKETS:
            ref_x, ref_v = _golden_lockstep(counted, *ends, refine_tol, rk)
        else:
            ref_x, ref_v = _speculate(counted, *ends, refine_tol, rk, _scan_targets(xs, ys, rk, i[k]))
    except (DomainError, DivergentMomentError):
        # each bracket alone, in row order: an error is then the one
        # golden_section_max meets on the first bracket that meets one
        alone = [_golden_lockstep(counted, *(e[j : j + 1] for e in ends), refine_tol, rk[j : j + 1]) for j in range(k.size)]
        ref_x, ref_v = (np.concatenate(a) for a in zip(*alone))
        reran = k.size
    keep = ~(cand_v[k] > ref_v)
    cand_x[k[keep]], cand_v[k[keep]] = ref_x[keep], ref_v[keep]
    # per row: largest value, then smallest arg; every row has a peak
    order = np.lexsort((cand_x, -cand_v, r))
    ro = r[order]
    new_row = np.ones(ro.size, dtype=bool)
    np.not_equal(ro[1:], ro[:-1], out=new_row[1:])
    first = order[new_row]
    if n >= 3:
        decreasing = (ys[:, -3] > ys[:, -2]) & (ys[:, -2] > ys[:, -1])
    else:
        decreasing = np.zeros(rows, dtype=bool)
    return RowSupremum(cand_v[first], cand_x[first], decreasing, n_flat, pruned, certified, reran, ruled_out, calls)


def _brackets(xs: np.ndarray, ys: np.ndarray, known: Optional[np.ndarray]):
    """The scan peaks of one scan array, as (row, column, left and right
    neighbour column) arrays, then the indices into them of the peaks to
    refine and the count of plateaus.

    A peak is a point at least as high as its scan neighbours; with
    ``known`` (a pruned scan) only an evaluated one, and it is refined only
    when both neighbours were evaluated too: a peak next to an unevaluated
    point lies in a dropped cell and keeps its value, which is below the
    best one.  A peak whose scan neighbours agree with it within
    _PLATEAU_ULP ulp is a plateau and keeps its value too."""
    n = xs.shape[1]
    # at least as high as the left and the right neighbour; a row end has
    # none on its outer side
    peak = np.ones(ys.shape, dtype=bool)
    np.greater_equal(ys[:, 1:], ys[:, :-1], out=peak[:, 1:])
    peak[:, :-1] &= ys[:, :-1] >= ys[:, 1:]
    if known is not None:
        peak &= known
    r, i = np.nonzero(peak)
    il, ih = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
    k = np.flatnonzero(xs[r, ih] > xs[r, il])
    if known is not None:
        k = k[known[r[k], il[k]] & known[r[k], ih[k]]]
    # a non-finite peak is never flat; only finite ones are compared, so no
    # inf - inf is formed
    v = ys[r[k], i[k]]
    flat = np.isfinite(v)
    kf, v = k[flat], v[flat]
    near = _PLATEAU_ULP * np.spacing(np.abs(v))
    flat[flat] = (v - ys[r[kf], il[kf]] <= near) & (v - ys[r[kf], ih[kf]] <= near)
    return r, i, il, ih, k[~flat], int(np.count_nonzero(flat))


def _scan_targets(xs: np.ndarray, ys: np.ndarray, r: np.ndarray, i: np.ndarray) -> list:
    """The predicted peak of each bracket around the scan peak (r, i): a
    row end for a peak at a row end, else the vertex of the parabola
    through the peak and its two scan neighbours."""
    n = xs.shape[1]
    return [
        float(xs[rj, ij]) if ij in (0, n - 1)
        else _vertex(*(float(a[rj, ij + d]) for d in (-1, 0, 1) for a in (xs, ys)))
        for rj, ij in zip(r.tolist(), i.tolist())
    ]


def _chord_gain(a, b, d_num, d_den, lo, hi):
    """The largest U(q) - ln f(a) = w ((b / q) d_num - d_den), w = (q - a) /
    (b - a), over [lo, hi] inside the cell [a, b] (the module docstring),
    at lo, hi and q* = sqrt(a b d_num / d_den) clipped to them.  d_num and
    d_den are ln(num(b) / num(a)) and ln(den(b) / den(a)).

    Arrays of cells (the pruning bound): a NaN q* (0 / 0, or the root of a
    negative) takes lo, and a NaN or infinite part gives a NaN or infinite
    gain.  Or Python floats for one cell (the end certificate, which passes
    finite logs and b > a), judged without a NumPy call: on one cell's
    floats the array branch takes 8.4 us, this one 2.3 us (the machine of
    _certified's timings).  There q* is taken only for d_num and d_den both
    positive; otherwise the gain is monotone or convex, and largest at lo
    or hi."""

    def gain(q):
        return (q - a) / (b - a) * (b / q * d_num - d_den)

    if isinstance(d_num, float):
        top = min(max(math.sqrt(a * b * d_num / d_den), lo), hi) if d_num > 0.0 and d_den > 0.0 else lo
        return max(gain(lo), gain(hi), gain(top))
    top = np.fmin(np.fmax(np.sqrt(a * b * d_num / d_den), lo), hi)
    return np.maximum(np.maximum(gain(lo), gain(hi)), gain(top))


def cell_bounds(p: np.ndarray, num: np.ndarray, den: np.ndarray, lower: tuple) -> np.ndarray:
    """Upper bound of num / den on each cell [a, b] between consecutive
    points p (last axis) of a row, from num and den at the points, under
    the envelope ``lower`` = (L, chord) of sup_rows: num(a) / L(a)
    exp(_chord_gain over [a, b]), L taken at p (den itself for L None),
    with the chord of ln L where ``chord`` is set and dl = 0 otherwise (see
    the module docstring).  Where the gain is not finite (a zero num, an L
    that is not positive, an unevaluated end) the bound is inf, which keeps
    the cell."""
    envelope, chord = lower
    den = den if envelope is None else envelope(p)
    a, b = p[..., :-1], p[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d_num = np.log(num[..., 1:] / num[..., :-1])
        d_den = np.log(den[..., 1:] / den[..., :-1]) if chord else 0.0
        gain = _chord_gain(a, b, d_num, d_den, a, b)
        return np.where(np.isfinite(gain), num[..., :-1] / den[..., :-1] * np.exp(gain), np.inf)


def _certified(xs, ys, num, den, r: np.ndarray, i: np.ndarray, tol: float) -> np.ndarray:
    """Which of the scan peaks (r, i) golden section cannot beat: a peak
    at a row end whose _chord_gain (den's own chords) over the points
    golden section to ``tol`` reaches on its cell, less dL - dl =
    ln(f(b) / f(a)) for a peak at b, is below -_CHORD_MARGIN (see the
    module docstring).  A peak at the last point needs a value above its
    neighbour's too.  ``num`` and ``den`` are the scan's parts; an interior
    peak is never certified, nor is one whose cell has a NaN, zero or
    infinite part or ratio of parts.  A search holds a few end peaks (it
    certifies 2.4 a search on two seed-7 sandwich blocks, 3.3 on algebra),
    so each is judged in Python floats: 14 us a search on sandwich and 25 us
    on algebra, where one NumPy call of _chord_gain over three peaks takes
    19 us (Python 3.11, NumPy 2.4, a 2-core x86-64 VM)."""
    sure = np.zeros(i.size, dtype=bool)
    last = xs.shape[1] - 1
    for j, (row, col) in enumerate(zip(r.tolist(), i.tolist())):
        if col != 0 and col != last:
            continue
        left = col == 0
        c = 0 if left else last - 1
        if not (left or ys.item(row, c + 1) > ys.item(row, c)):
            continue
        n0, d0 = num.item(row, c), den.item(row, c)
        if not (0.0 < n0 < math.inf and 0.0 < d0 < math.inf):
            continue
        q_num, q_den = num.item(row, c + 1) / n0, den.item(row, c + 1) / d0
        if not (0.0 < q_num < math.inf and 0.0 < q_den < math.inf):
            continue
        d_num, d_den = math.log(q_num), math.log(q_den)
        a, b = xs.item(row, c), xs.item(row, c + 1)
        reach = _REACH * min(b - a, tol * max(1.0, abs(a), abs(b)))
        # the reachable part of the cell, and ln f at the peak less ln f(a)
        lo, hi, peak = (a + reach, b, 0.0) if left else (a, b - reach, d_num - d_den)
        sure[j] = _chord_gain(a, b, d_num, d_den, lo, hi) - peak < -_CHORD_MARGIN
    return sure


def _row_best(ys: np.ndarray, floor, search: Optional[np.ndarray]) -> np.ndarray:
    """For each row of ``ys``, the best value of its search: the largest of
    the search's ``floor`` (one per search, -inf for each when None) and the
    values of its rows, -inf where unevaluated.  ``search`` holds the search
    of each row, all the first when None."""
    search = np.zeros(ys.shape[0], dtype=np.intp) if search is None else search
    best = np.full(int(search.max()) + 1, -np.inf) if floor is None else np.array(floor, dtype=float).reshape(-1)
    np.maximum.at(best, search, ys.max(axis=1))
    return best[search]


def _below_best(xs, num, den, r: np.ndarray, i: np.ndarray, il: np.ndarray, ih: np.ndarray, lower: tuple, best):
    """Which brackets of the scan peaks (r, i), spanning the scan points il
    to ih of their rows, cannot reach ``best``: the cell_bounds of their
    one or two scan cells under ``lower``, times 1 + _CHORD_MARGIN, lie
    below it (see the module docstring).  A peak at a row end has one
    cell; its other, of width 0, bounds nothing."""
    at = (r[:, None], np.stack((il, i, ih), axis=1))
    p = xs[at]
    bound = cell_bounds(p, num[at], den[at], lower)
    bound[p[:, 1:] == p[:, :-1]] = -np.inf
    return bound.max(axis=1) * (1.0 + _CHORD_MARGIN) < best


def _eval_parts(parts, xs: np.ndarray, rows: np.ndarray) -> tuple:
    """(num, den, num / den) of ``parts(xs, rows)``, float arrays of the
    shape of ``xs``, in one call; ``rows`` holds the scan row of each
    point.  ``parts`` must accept an array and return one num and one den
    per point: a function that only takes scalars is a caller error, not
    something to fall back from point by point.  A NaN quotient, or an
    infinite one of a finite num (an overflow), raises DomainError naming
    the first point where it occurred; the quotient of an infinite num is a
    value, +inf.  An empty ``xs`` is not passed to ``parts``."""
    if xs.size == 0:
        return np.empty(xs.shape), np.empty(xs.shape), np.empty(xs.shape)
    num, den = (_per_point(xs, a) for a in parts(xs, rows))
    # an infinite quotient of a finite num raises below, not a RuntimeWarning
    with np.errstate(divide="ignore", over="ignore"):
        ys = num / den
    if not np.isfinite(ys).all():
        bad = np.isnan(ys) | np.isinf(ys) & np.isfinite(num)
        if bad.any():
            i = np.argmax(bad)
            what = "is NaN" if np.isnan(ys.flat[i]) else "overflows a float"
            raise DomainError(f"the searched function {what} at p={float(xs.flat[i])!r}")
    return num, den, ys


def _per_point(xs: np.ndarray, values) -> np.ndarray:
    """``values``, one per point of ``xs``, as a float array; DomainError
    when their shape is not that of ``xs``."""
    values = np.asarray(values, dtype=float)
    if values.shape != xs.shape:
        raise DomainError(f"parts returned shape {values.shape} for {xs.shape} points; it must accept arrays")
    return values


def _unit(f):
    """``f`` as the ratio (f, 1) that sup_rows searches; dividing by 1
    keeps its bits."""
    return lambda x, row: (f(x), np.ones_like(x))


def _scan(xs: np.ndarray, parts, floor, search: Optional[np.ndarray], lower: Optional[tuple]):
    """The scan of the rows ``xs``: _pruned_scan under the envelope
    ``lower``, and the whole of ``xs`` in one call of ``parts`` without one,
    or where a NaN ratio or a divergent moment stops the pruned scan, so that
    the error and the p it names are the whole scan's.  Returns (ys, known,
    pruned cells, num, den) as _pruned_scan does, ``known`` None and no cell
    pruned for the whole scan."""
    if lower is not None:
        try:
            return _pruned_scan(xs, parts, floor, search, lower)
        except (DomainError, DivergentMomentError):
            pass
    rows, n = xs.shape
    # each scan point's row, in the smallest integer type that holds it: as
    # int64, the 51200 indices of W^'s cell minima took about 4% more time
    # there (the allocation, not the arithmetic)
    scan_rows = np.arange(rows, dtype=np.min_scalar_type(rows)).repeat(n)
    num, den, ys = (a.reshape(rows, n) for a in _eval_parts(parts, xs.ravel(), scan_rows))
    return ys, None, 0, num, den


def _pruned_scan(xs: np.ndarray, parts, floor, search: Optional[np.ndarray], lower: tuple):
    """The scan of sup_rows, pruned level by level by the cell_bounds of
    ``parts`` under ``lower``.

    ``floor`` holds one value per search and ``search`` the search of each
    row (see _row_best); each search's cells are judged against the best of
    its own floor and its own evaluated points.  Returns (ys,
    known, pruned cells, num, den): ``ys`` holds the value of every
    evaluated point and -inf elsewhere, ``known`` marks the evaluated
    points, the count is of the cells of the last level dropped, those
    under a dropped parent included, and ``num`` and ``den`` hold the parts
    of the evaluated points.  One call of ``parts`` per level, and one for
    the points of the cells kept.
    """
    rows, n = xs.shape
    ys = np.full((rows, n), -np.inf)
    num, den = np.full((rows, n), np.nan), np.full((rows, n), np.nan)
    known = np.zeros((rows, n), dtype=bool)
    # cover marks the points c_k .. c_k+1 - 1 of every live cell [c_k, c_k+1];
    # before the first level the whole row is one live cell
    cover = np.ones((rows, n), dtype=bool)
    for step in _COARSE_STEPS:
        level = np.zeros(n, dtype=bool)
        level[::step] = True
        level[-1] = True
        c = np.flatnonzero(level)
        new = np.zeros((rows, n), dtype=bool)
        new[:, c] = cover[:, c] & ~known[:, c]
        if new.any():
            rn, cn = np.nonzero(new)
            num[rn, cn], den[rn, cn], ys[rn, cn] = _eval_parts(parts, xs[rn, cn], rn)
            known |= new
        # a cell under a dropped parent stays dropped (its ends may be
        # unevaluated)
        bound = cell_bounds(xs[:, c], num[:, c], den[:, c], lower)
        live = cover[:, c[:-1]] & ~(bound * (1.0 + _CHORD_MARGIN) < _row_best(ys, floor, search)[:, None])
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
    rf, cf = np.nonzero(fine)
    num[rf, cf], den[rf, cf], ys[rf, cf] = _eval_parts(parts, xs[rf, cf], rf)
    return ys, need | known, int(live.size - np.count_nonzero(live)), num, den


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
    row.  ``f`` must accept an array of points (see _eval_parts).
    """
    if hi < lo:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return SupremumResult(_eval_parts(_unit(f), np.array([lo], dtype=float), None)[2].item(0), lo, True)
    n_points = max(int(n_points), 2)
    if geometric and lo > 0:
        xs = np.geomspace(lo, hi, n_points)
    else:
        xs = np.linspace(lo, hi, n_points)
    xs[0], xs[-1] = lo, hi
    res = sup_rows(_unit(f), xs[None, :])
    return SupremumResult(float(res.values[0]), float(res.args[0]), bool(res.decreasing_at_hi[0]))


def sampled_min(f: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Minimum of ``f`` over each interval [lo[k], hi[k]].

    ``lo`` and ``hi`` are arrays of interval bounds; the minima come back
    in their shape.  Each interval is a row of _MIN_SAMPLES evenly spaced
    points, and the minimum is sup_rows of ``-f``, refined to _MIN_TOL, so
    every local minimum of every sample is refined and no unimodality is
    assumed.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.any(hi < lo):
        raise DomainError("sampled_min needs lo <= hi for every interval")
    xs = np.linspace(lo, hi, _MIN_SAMPLES, axis=-1).reshape(lo.size, -1)
    res = sup_rows(_unit(lambda x: -f(x)), xs, _MIN_TOL)
    return -res.values.reshape(np.shape(lo))

