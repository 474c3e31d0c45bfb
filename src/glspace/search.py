"""Supremum search: one batched scan plus golden-section refinement.

Nothing here assumes unimodality.  A search covers one or more rows
(segments or cells), each sampled on its own increasing grid, and ``f``
is evaluated on every row in one array call.  ``f`` is told the row of
each point it is asked for, so the rows may belong to several functions
(the norms of several models under one psi, as for an algebra check; the
two norms of a sandwich check), and every array call of the search, scan
and refinement alike, serves them all.  Every local maximum of a
row (endpoints included) is bracketed by its scan neighbours and refined
by golden section (Kiefer, "Sequential minimax search for a maximum",
Proc. AMS 1953), unless it is a plateau: a scan value whose neighbours
agree with it to a few ulp keeps that value.  The best value of a row
wins, with ties broken toward the smallest argument so results are
deterministic.

Refinement takes one of two routes, chosen once for the whole search.
Both take golden_section_max's update rule, stopping width and tie-break
and ask ``f`` for arrays of points only, so they give its bits as long
as ``f`` gives a point the same bits in any array, as the moment backends
and psi_eval do (a scalar p reaches them as a one-element array).
- Lockstep: every bracket takes one golden step per array call, so ``f``
  is asked for golden_section_max's points and no other.  A search takes
  it when it holds more brackets than it may guess (``guessed``), and
  always when ``f`` costs by the points it is asked for (a power mean of
  many values), where a guessed point would cost more than the call it
  saves.
- Guessed rounds: a few brackets refine in rounds, one array call for all
  of them per round.  Golden section's next point depends only on its
  left/right decisions, never on the values of f, so a round lays out the
  points of a decision path before any is evaluated, then replays the
  update rule over their values.  Each round guesses every bracket's
  coming decisions (a peak at a row end goes all one way; an interior
  peak goes toward the vertex of a parabola through the best points
  known), the first round for the whole path, later ones for _LOOKAHEAD
  steps, and the replay stops at the first wrong guess, which only costs
  the points evaluated past it.
When refinement raises (a NaN, a domain error, a divergent moment),
perhaps at a point off golden section's path in a guessed round, or on a
later bracket's path that lockstep reaches first, each bracket reruns
alone from its ends, in row order, as a one-bracket lockstep.  So the
error is the one golden_section_max meets on the first bracket that
meets one, naming the same p.

A search may be pruned.  When ``f = num / den`` with ``num`` = |g|_p, a
p-norm on a probability space, and ``den`` positive and nondecreasing (a
moment over a nondecreasing generating function), a scan cell [a, b]
whose ends are evaluated has a bound on ``f``.  phi(p) = p ln num(p) =
ln E|g|^p is convex in p (Lyapunov), so it lies below its chord on the
cell, and ln num(p) <= (phi(a) + (p - a) s) / p with s the chord's
slope.  When ln den is concave in p as well (the log_concave promise of
a generating function), ln den(p) lies above its own chord, of slope t;
otherwise ln den(p) >= ln den(a), and t = 0.  So on the cell

    ln f(p) <= U(p) = (phi(a) + (p - a) s) / p - (ln den(a) + (p - a) t),

and U(p) = alpha / p + s - ln den(a) - (p - a) t, alpha = phi(a) - a s,
has one stationary point, p* = sqrt(-alpha / t), so its largest value
on the cell is at a, b or p* (clipped to the cell).  The cell's bound is
exp of that value.  With t = 0 it is max(num(a), num(b)) / den(a) =
num(b) / den(a), the W constant's argument (full <= W * discrete) on the
scan grid; the chord of ln den makes the bound second-order in the cell
width, so near a flat peak far fewer cells survive.  The bound is used
as the Lipschitz bound is in the branch and bound of Piyavskii (1972)
and Shubert (1972).  The pruned scan works in levels, one per entry of
_COARSE_STEPS (64, 16, then 4).  The first level evaluates every 64th
point of each row and the row's last point, and drops every cell whose
bound, widened by _PRUNE_MARGIN for rounding, is below the best value
seen.  Each next level evaluates its points inside the live cells of
the level before only, and drops its cells by the same rule.  In exact
arithmetic a child cell's bound is at most its parent's (the child's
chord of phi lies below the parent's, its chord of ln den above), and
the best point of a level lies in a live cell of the level before, so
the live cells of the last level are those a one-level pass at its step
would keep.  The fine pass then evaluates the points of the live cells,
the point next to each end of a live cell and the last three points of
each row.  Every dropped point or bracket is strictly below a value the
search evaluates, and every local maximum that remains has the same
scan neighbours as in the full scan, so the overall supremum, its
argument and the edge evidence keep their bits.

The same chords certify a peak at a row end, where a ratio that falls
(or rises) through its row peaks most often.  Golden section on the cell
[a, b] of a peak at a asks only for points at least (1 - INV_PHI) *
INV_PHI * min(b - a, its stopping width), about 0.236 of that, from a:
its first two points lie 0.382 (b - a) from the ends, and each later one
0.382 of a bracket that is 0.618 of one still wider than the stopping
width.  With both chords U(a) = ln f(a) and U(b) = ln f(b), and relative
to the peak the bound reads

    U(q) - U(a) = (q - a) / (b - a) * ((b / q) dL - dl),
    U(q) - U(b) = (b - q) / (b - a) * (dl - (a / q) dL),

dL = ln(num(b) / num(a)) and dl = ln(den(b) / den(a)); each has the form
c - dl q / (b - a) - a b dL / ((b - a) q), whose largest value on an
interval is at its ends or at q* = sqrt(a b dL / dl).  When its largest
value over the part of the cell golden section can reach (all of it but
the _REACH * min(b - a, stopping width) next to the peak) is below
-_CERTIFY_MARGIN, every point golden section would evaluate is below the
peak, and golden_section_max would return the peak itself: a tie never
moves its best point to a larger p, and a peak at b is certified only
where f(b) > f(a), so that b is its best point from the start.  Such a
bracket is not refined, and only the count of evaluations changes.  The
form never takes ln num or ln den themselves, only the logs of ratios of
neighbouring values near 1, so its rounding does not grow with the scale
of f (see _CERTIFY_MARGIN).  The norms ask for it on both exact moment
backends: the power means of samples and group functions, and the closed
forms, whose Gaussian, exponential and uniform01 moments are p-norms on a
probability space like any other and whose constant and Rademacher
moments give dL = 0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DivergentMomentError, DomainError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The most brackets a search of one function refines in guessed rounds
# (_speculate, sup_rows' default ``guessed``); a search with more goes
# lockstep, and so does every search whose ratio costs by the point, for
# which norms passes guessed=0.  The count is of the whole search: when one
# search serves several functions (the three norms of an algebra check),
# their brackets are counted together and all take one route, and norms
# allows SCALAR_BRACKETS / 2 more for each function past the first
# (guessed = SCALAR_BRACKETS * (functions + 1) // 2), as a lockstep
# iteration called every function once when this was timed.
# norms now evaluates the three algebra ratios in one stacked call, whose
# cost still grows with each model it serves, so it still counts them as
# three and speculation stays the cheaper route there.  Counted as one
# function instead, four seed-7 algebra benchmark blocks (504 shared
# searches, same VM) sent one search, cyclic:14 with 13 brackets,
# lockstep, and its op took 8.1-8.7 ms against 3.0-5.6 ms speculating
# (median of 31, two rounds), with the same outcomes.  Timed on k rows of
# 64 points with one bracket each (Python 3.11, NumPy 2.4, a 2-core x86-64
# VM, CPU time, median of 9 rounds, the two routes alternating): with an
# interior peak in every row,
# lockstep becomes the cheaper route at 13-16 brackets for a ratio of
# moments on a group of order 12 (power_slowvary(r=3, delta=-1)) and at
# 17-24 for a Gaussian ratio (sqrt_dip); with peaks at row ends, whose paths
# are guessed right, only past 32.  Re-timed
# with the lockstep that keeps only its moving brackets: one function
# (a Gaussian under sqrt_dip) breaks even at 12 brackets, and three (three
# group functions of order 14, or three closed forms, under sqrt_dip) at
# 24; three group functions under power_slowvary(r=3, delta=-1) speculate
# more cheaply up to 48.  On one seed-7 run of each benchmark workload,
# norm sends 111 searches (29 brackets in all) lockstep because their
# ratios cost by the point; sandwich refines 49 searches (10,093 brackets)
# lockstep and 432 in guessed rounds, algebra 504 in guessed rounds, and
# tail refines none.
SCALAR_BRACKETS = 12

# refinement stops once a bracket is narrower than this, relative to the
# magnitude of its ends; _MAX_ITER only stops a runaway loop, since 200
# golden steps shrink a bracket by a factor of about 1e-42
_REFINE_TOL = 1e-10
_MAX_ITER = 200
# a speculative round after the first asks for this many steps past the
# last confirmed one of each bracket
_LOOKAHEAD = 8
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
# value.  The margin covers rounding with room to spare: the moment and psi
# carry a few ulp (about 1e-14 relative), an absolute error of that size in
# their logs; each chord weighs its ends' errors by weights in [0, 1] that
# sum to 1 (for phi, whose errors scale with a and b, after the division by
# p); the logs and the chord arithmetic add a few ulp of |ln num| and
# |ln den|, below 1e-12 in the double range; and an error dp in p*
# costs t dp^2 / p, second order.  On 2^14..2^16-value samples under the
# norm workload's psi, plain and on a set, (64, 16, 4) evaluated 29 scan
# points an op against 35 for (64, 8) and 32 for (64, 8, 2); (128, 32, 8)
# took 28, and their CPU times were within noise of each other
_COARSE_STEPS = (64, 16, 4)
_PRUNE_MARGIN = 1e-10
# a bracket of a peak at a row end is left unrefined when the chord bound
# over the points golden section can reach lies below the peak by more than
# _CERTIFY_MARGIN, in ln f (see the module docstring).  Golden section comes
# no nearer the peak than 0.236 of min(width, stopping width), 2.4e-11 p on
# a norm's scan; _REACH leaves room for the rounding of its points, a few
# ulp of p.  The margin covers rounding in units of 2^-52, each an absolute
# error of that size in a log.  The ratio at the peak and at a golden point:
# each within 4 ulp for the power mean, 20 for the Gaussian, exponential and
# uniform01 moments (exact for a constant and the Rademacher signs) and 6
# for the power family psi (all against a 40-digit reference in
# tests/test_decimal_reference.py), 0.5 for the division, 53 in all at the
# closed forms.  The chord's dL and dl, from num and den at the cell ends:
# 2 * 20 and 2 * 6, weighed by factors in [0, 1], and 1.5 for each quotient
# and its log, 55.  And a few ulp of the gain itself, which is of the order
# of dL, far below 1 ulp in a log.  About 110 ulp, 2.4e-14, is a fortieth
# of the margin (45 ulp, a hundredth, for the power means); the rest covers
# a power mean of more values than the reference test's, whose pairwise sum
# rounds up to log2 n times, and closed-form moments at p between the
# reference's integer and half-integer arguments of Gamma.  With
# a reach of 2e-11 p a peak certifies where ln f falls off it by more than
# about 0.05 per unit of ln p.  On two seed-7 blocks of the benchmark, 1e-12
# certified 63 of the 64 end brackets of the norm workload and 823 of 858 of
# algebra when only power means took the certificate; 1e-13 64 and 851;
# 1e-11 24 and 530; the pruning's 1e-10 none.  With the closed forms, 1e-12
# certifies 259 of the 268 end brackets of the sandwich workload and 474 of
# 487 of norm
_REACH = 0.2
_CERTIFY_MARGIN = 1e-12


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
    golden section could not beat them."""

    values: np.ndarray
    args: np.ndarray
    decreasing_at_hi: np.ndarray
    plateaus: int
    pruned: int
    certified: int


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
    not asked for them again.  This is _Golden with a lookahead of one
    point: every decision is taken on known values.
    """
    if hi < lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    return _Golden(lo, hi, f_lo, f_hi, tol).finish(f)


def _advance(a, b, x1, x2, left: bool):
    """One golden-section step: keep [a, x2] (``left``) or [x1, b].
    Returns the new (a, b, x1, x2) and the one new point, x1 or x2."""
    if left:
        b, x2 = x2, x1
        x1 = b - INV_PHI * (b - a)
        return a, b, x1, x2, x1
    a, x1 = x1, x2
    x2 = a + INV_PHI * (b - a)
    return a, b, x1, x2, x2


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
    (None until evaluated); fa and fb, the values at a and b, are read only
    by the predictor.  The points golden section asks for depend only on
    its decisions, f1 >= f2 (keep [a, x2]) or not, never on the values
    themselves.  So plan() lays out the points of a path whose decisions
    past the known values are guessed, and walk() runs the update rule,
    the best-point tie-break and the stopping width over their values up
    to the first guess the values contradict.  Every step walk() confirms
    is the step of golden_section_max, on the same floats.
    """

    __slots__ = ("a", "b", "x1", "x2", "fa", "fb", "f1", "f2", "best_x", "best_v", "width_tol", "steps", "lefts")

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
        self.lefts = []

    @property
    def done(self) -> bool:
        return self.f2 is not None and (self.b - self.a <= self.width_tol or self.steps >= _MAX_ITER)

    def plan(self, n: int, target: float) -> list:
        """The next points golden section asks for: x1 and x2 while
        unevaluated, then the points of (at most) ``n`` steps, ``self.lefts``,
        whose decisions are taken from the values where these are known and
        guessed toward ``target`` past them."""
        pts = [x for x, v in ((self.x1, self.f1), (self.x2, self.f2)) if v is None]
        left = None if pts else self.f1 >= self.f2
        a, b, x1, x2, tol = self.a, self.b, self.x1, self.x2, self.width_tol
        lefts = self.lefts = []
        room = min(n, _MAX_ITER - self.steps)
        while room > 0 and b - a > tol:
            if left is None:
                left = _guess_left(x1, x2, target)
            a, b, x1, x2, x = _advance(a, b, x1, x2, left)
            lefts.append(left)
            pts.append(x)
            room -= 1
            left = None
        return pts

    def walk(self, f, lefts) -> None:
        """Golden section's update rule from the current state.  ``f(x)``
        is the value of each point it asks for, x1 and x2 first while
        unevaluated.  ``lefts`` holds a planned decision per step (None
        where the values decide): the walk stops at the first planned one
        the values contradict, when they run out, or at the stopping width."""
        a, b, x1, x2, fa, fb, f1, f2 = self.a, self.b, self.x1, self.x2, self.fa, self.fb, self.f1, self.f2
        if f1 is None:
            f1 = f(x1)
        if f2 is None:
            f2 = f(x2)
        best_x, best_v, steps, tol = self.best_x, self.best_v, self.steps, self.width_tol
        for planned in lefts:
            left = f1 >= f2
            if b - a <= tol or steps >= _MAX_ITER or (planned is not None and planned != left):
                break
            a, b, x1, x2, x = _advance(a, b, x1, x2, left)
            v = f(x)
            if left:
                fb, f2, f1 = f2, f1, v
            else:
                fa, f1, f2 = f1, f2, v
            steps += 1
            if v > best_v or (v == best_v and x < best_x):
                best_x, best_v = x, v
        self.a, self.b, self.x1, self.x2, self.fa, self.fb, self.f1, self.f2 = a, b, x1, x2, fa, fb, f1, f2
        self.best_x, self.best_v, self.steps = best_x, best_v, steps

    def replay(self, values: list) -> None:
        """walk() over the values of the points plan() returned."""
        it = iter(values)
        self.walk(lambda x: next(it), self.lefts)

    def target(self) -> float:
        """Where the peak is predicted: the vertex of the parabola through
        the better inner point and its two neighbours among a, x1, x2, b."""
        if self.f1 >= self.f2:
            return _vertex(self.a, self.fa, self.x1, self.f1, self.x2, self.f2)
        return _vertex(self.x1, self.f1, self.x2, self.f2, self.b, self.fb)

    def finish(self, f) -> tuple:
        """walk() to the end, one point at a time, ``f`` taking a float:
        the lookahead-1 case, whose every decision the values take.
        Returns the best (arg, value)."""
        self.walk(f, repeat(None))
        return self.best_x, self.best_v


def _speculate(f, lo, f_lo, hi, f_hi, tol: float, rows: np.ndarray, targets: list):
    """golden_section_max on every bracket [lo[k], hi[k]], of the scan row
    rows[k], in guessed rounds of one array call of ``f`` each.

    Each round asks for every unfinished bracket's planned points, guessed
    toward its target (targets[k] at first): the first round for the whole
    path, later ones for _LOOKAHEAD steps past the last confirmed one, with
    the target moved to the vertex of the parabola through the confirmed
    points.  An error of ``f`` propagates, whether or not it lies on golden
    section's path (sup_rows then reruns the brackets one by one).  Returns
    (args, values).
    """
    # Python floats in, so the golden-section arithmetic takes float paths
    # (same IEEE operations as on numpy scalars)
    ends = zip(lo.tolist(), hi.tolist(), f_lo.tolist(), f_hi.tolist())
    brackets = [_Golden(a, b, fa, fb, tol) for a, b, fa, fb in ends]
    live, live_rows, n = brackets, rows.tolist(), _MAX_ITER
    while live:
        plans = [g.plan(n, t) for g, t in zip(live, targets)]
        counts = [len(plan) for plan in plans]
        xs = np.array([x for plan in plans for x in plan])
        values = _eval_array(f, xs, np.array(live_rows).repeat(counts)).tolist()
        at = 0
        for g, count in zip(live, counts):
            g.replay(values[at : at + count])
            at += count
        live_rows = [row for g, row in zip(live, live_rows) if not g.done]
        live = [g for g in live if not g.done]
        targets = [g.target() for g in live]
        n = _LOOKAHEAD
    return np.array([(g.best_x, g.best_v) for g in brackets], dtype=float).reshape(-1, 2).T


def _golden_lockstep(f, lo, f_lo, hi, f_hi, tol: float, rows: np.ndarray):
    """golden_section_max on every bracket [lo[k], hi[k]], of the scan row
    rows[k], at once.

    ``f_lo`` / ``f_hi`` are the values already known at the bracket ends.
    Each iteration moves every bracket still wider than its stopping
    width and evaluates ``f`` once on the array of new points.  The state
    is kept for the moving brackets only, so an iteration is a few whole
    array operations; a bracket that stops leaves it.  Returns (args,
    values).
    """
    best_x, best_v = lo.copy(), f_lo.copy()
    up = f_hi > best_v
    best_x[up], best_v[up] = hi[up], f_hi[up]
    a, b = lo, hi
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    # x1 and x2 of each bracket side by side, so the points come row by row
    f12 = _eval_array(f, np.stack([x1, x2], axis=1).ravel(), rows.repeat(2)).reshape(-1, 2)
    f1, f2 = f12[:, 0], f12[:, 1]
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
        v = _eval_array(f, x, rows)
        f1, f2 = np.where(left, v, f2), np.where(left, f1, v)
        better = (v > bv) | ((v == bv) & (x < bx))
        bx, bv = np.where(better, x, bx), np.where(better, v, bv)
    best_x[at], best_v[at] = bx, bv
    return best_x, best_v


def sup_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    xs: np.ndarray,
    refine_tol: float = _REFINE_TOL,
    parts: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None,
    floor=-math.inf,
    guessed: int = SCALAR_BRACKETS,
    search: Optional[np.ndarray] = None,
    log_concave: bool = False,
    prune: bool = True,
) -> RowSupremum:
    """Supremum of ``f`` over each row of the scan grid ``xs``.

    Each row is an increasing grid whose first and last points are the
    ends of its interval.  ``f(x, row)`` takes an array of points and the
    array of their row indices in ``xs``, never a scalar, so one search can
    serve rows of different functions; every array call lists its points
    row by row, their row indices nondecreasing.  ``f`` sees all rows in one array call; every
    local maximum of a row is then refined inside the cell spanned by its
    scan neighbours, to the stopping width ``refine_tol``, unless the three
    scan values agree within _PLATEAU_ULP ulp: such a plateau (a flat ratio
    makes every scan point one) keeps its scan value.  Up to ``guessed``
    brackets, counted over all rows, refine in guessed rounds, more in
    lockstep (see the module docstring and SCALAR_BRACKETS); guessed=0
    sends every bracket lockstep, for an ``f`` whose cost grows with the
    points it is asked for more than with its calls, so that no point off
    golden section's path is evaluated.  Both routes reuse the scan values
    at the bracket ends and give the bits of golden_section_max, and when
    either raises, each bracket reruns alone in row order, so an error
    names the p golden_section_max names on the first bracket that meets
    one.  Refinement never loses the scan value it started from.  A NaN
    value of ``f`` raises DomainError naming the first p where it occurred.

    With ``parts`` every scan value is num / den of ``parts(x, row)``,
    arrays (num, den) whose quotient has the bits of ``f(x, row)``, both
    nondecreasing and den positive, and the scan is pruned (see the module
    docstring) unless ``prune`` is False.  With ``log_concave`` ln den is
    concave in p and p ln num convex (num a p-norm on a probability space,
    den a generating function with that promise): the cell bound takes both
    chords, and a peak at a row end whose chord bound proves that golden
    section cannot beat it is not refined (the module docstring), which
    changes no result and only the points ``f`` is asked for.  ``floor``
    is a value known from elsewhere (the exact points of a norm) that the
    pruning also compares against.  It may hold one value per search,
    ``search`` then giving the search of each row, and each search is
    pruned against its own floor and its own best value, so a cell of one
    search is never dropped against another's.  The largest of a search's
    row values and its floor and its argument are then those of the full
    scan, bit for bit, as is ``decreasing_at_hi``; a row that cannot hold
    that supremum may report a lower value.  When a NaN value or a
    divergent moment stops the pruned scan, the full scan runs instead, so
    the error and the p it names are the full scan's.
    """
    rows, n = xs.shape
    if not rows:
        return RowSupremum(np.empty(0), np.empty(0), np.zeros(0, dtype=bool), 0, 0, 0)
    known = None
    pruned = 0
    if parts is not None and prune:
        try:
            floors = np.atleast_1d(np.asarray(floor, dtype=float))
            ys, known, pruned, num, den = _pruned_scan(xs, parts, floors, search, log_concave)
        except (DomainError, DivergentMomentError):
            known = None
    if known is None:
        # each scan point's row, in the smallest integer type that holds it:
        # as int64, the 51200 indices of W^'s cell minima took about 4% more
        # time there (the allocation, not the arithmetic)
        scan_rows = np.arange(rows, dtype=np.min_scalar_type(rows)).repeat(n)
        if parts is None:
            ys = _eval_array(f, xs.ravel(), scan_rows).reshape(rows, n)
        else:
            num, den, ys = (a.reshape(rows, n) for a in _eval_parts(parts, xs.ravel(), scan_rows))
    r, i, il, ih, k, n_flat = _brackets(xs, ys, known)
    certified = 0
    if parts is not None and log_concave:
        sure = _certified(xs, ys, num, den, r[k], i[k], refine_tol)
        certified = int(np.count_nonzero(sure))
        k = k[~sure]
    cand_x, cand_v = xs[r, i], ys[r, i]
    rk, il, ih = r[k], il[k], ih[k]
    ends = xs[rk, il], ys[rk, il], xs[rk, ih], ys[rk, ih]
    try:
        if k.size <= guessed:
            ref_x, ref_v = _speculate(f, *ends, refine_tol, rk, _scan_targets(xs, ys, rk, i[k]))
        else:
            ref_x, ref_v = _golden_lockstep(f, *ends, refine_tol, rk)
    except (DomainError, DivergentMomentError):
        # each bracket alone, in row order: an error is then the one
        # golden_section_max meets on the first bracket that meets one
        alone = [_golden_lockstep(f, *(e[j : j + 1] for e in ends), refine_tol, rk[j : j + 1]) for j in range(k.size)]
        ref_x, ref_v = (np.concatenate(a) for a in zip(*alone))
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
    return RowSupremum(cand_v[first], cand_x[first], decreasing, n_flat, pruned, certified)


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


def cell_bounds(p: np.ndarray, num: np.ndarray, den: np.ndarray, log_concave: bool) -> np.ndarray:
    """Upper bound of num / den on each cell [a, b] between consecutive
    points p (last axis) of a row, from num and den at the points: exp of
    the largest U on the cell (see the module docstring), with the chord
    of ln den when ``log_concave`` and t = 0 otherwise.  Where U is not
    finite (a zero num, a den that is not positive, an unevaluated end)
    the bound is inf, which keeps the cell."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi, ell = p * np.log(num), np.log(den)
        a, b, phi_a, ell_a = p[..., :-1], p[..., 1:], phi[..., :-1], ell[..., :-1]
        s = (phi[..., 1:] - phi_a) / (b - a)
        t = (ell[..., 1:] - ell_a) / (b - a) if log_concave else np.zeros_like(s)
        # fmax and fmin take a for a NaN -alpha / t (alpha = t = 0)
        top = np.fmin(np.fmax(np.sqrt((a * s - phi_a) / t), a), b)

        def u(q):
            return (phi_a + (q - a) * s) / q - (ell_a + (q - a) * t)

        high = np.maximum(np.maximum(u(a), u(b)), u(top))
        return np.exp(np.where(np.isfinite(high), high, np.inf))


def _certified(xs, ys, num, den, r: np.ndarray, i: np.ndarray, tol: float) -> np.ndarray:
    """Which of the scan peaks (r, i) golden section cannot beat: a peak
    at a row end whose chord bound (log_concave chords), over the points
    golden section to ``tol`` reaches on its cell, lies below it by more
    than _CERTIFY_MARGIN (see the module docstring).  A peak at the last
    point needs a value above its neighbour's too.  ``num`` and ``den`` are
    the scan's parts; an interior peak is never certified, nor is one whose
    cell has a NaN, zero or infinite part or ratio of parts.  A search
    holds a few end peaks (2-4 on average on the sandwich and algebra
    benchmarks), so each is judged in Python floats: 23-30 us a search on
    two seed-7 blocks of either, where the same formulas on arrays, about
    45 small NumPy calls, took 131 us on algebra (Python 3.11, NumPy 2.4, a
    2-core x86-64 VM)."""
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
        lo, hi = (a + reach, b) if left else (a, b - reach)
        # U(q) - ln f at the peak (the module docstring) is concave in q,
        # with its top at sqrt(a b dL / dl), where dL and dl are both
        # positive; otherwise its largest value on [lo, hi] is at an end.
        # It is taken at lo, hi and that top clipped to them; a NaN fails
        # the comparison
        top = min(max(math.sqrt(a * b * d_num / d_den), lo), hi) if d_num > 0.0 and d_den > 0.0 else lo
        if left:
            gains = [(q - a) * (b / q * d_num - d_den) / (b - a) for q in (lo, hi, top)]
        else:
            gains = [(b - q) * (d_den - a / q * d_num) / (b - a) for q in (lo, hi, top)]
        sure[j] = all(g < -_CERTIFY_MARGIN for g in gains)
    return sure


def _eval_parts(parts, xs: np.ndarray, rows: np.ndarray) -> tuple:
    """(num, den, num / den) of ``parts(xs, rows)`` as float arrays of the
    shape of ``xs``; DomainError naming the first point whose quotient is
    NaN.  An empty ``xs`` is not passed to ``parts``."""
    if xs.size == 0:
        return np.empty(xs.shape), np.empty(xs.shape), np.empty(xs.shape)
    num, den = (np.asarray(a, dtype=float).reshape(xs.shape) for a in parts(xs, rows))
    return num, den, _checked(xs, num / den)


def _pruned_scan(
    xs: np.ndarray, parts, floor: np.ndarray, search: Optional[np.ndarray] = None, log_concave: bool = False
):
    """The scan of sup_rows, pruned level by level by the cell bounds of
    ``parts``.

    ``floor`` holds one value per search and ``search`` the search of each
    row (the first when None); each search's cells are judged against the
    best of its own floor and its own evaluated points.  Returns (ys,
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
    search = np.zeros(rows, dtype=np.intp) if search is None else search
    best = np.array(floor, dtype=float)
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
            np.maximum.at(best, search, ys.max(axis=1))
        # a cell under a dropped parent stays dropped (its ends may be
        # unevaluated)
        bound = cell_bounds(xs[:, c], num[:, c], den[:, c], log_concave)
        live = cover[:, c[:-1]] & ~(bound * (1.0 + _PRUNE_MARGIN) < best[search][:, None])
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
    row.  ``f`` must accept an array of points (see _eval_array).
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return SupremumResult(_eval_array(lambda x, row: f(x), np.array([lo], dtype=float), None).item(0), lo, True)
    n_points = max(int(n_points), 2)
    if geometric and lo > 0:
        xs = np.geomspace(lo, hi, n_points)
    else:
        xs = np.linspace(lo, hi, n_points)
    xs[0], xs[-1] = lo, hi
    res = sup_rows(lambda x, row: f(x), xs[None, :])
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
        raise ValueError("sampled_min needs lo <= hi for every interval")
    xs = np.linspace(lo, hi, _MIN_SAMPLES, axis=-1).reshape(lo.size, -1)
    res = sup_rows(lambda x, row: -f(x), xs, _MIN_TOL)
    return -res.values.reshape(np.shape(lo))


def _nan_error(x) -> DomainError:
    return DomainError(f"the searched function is NaN at p={float(x)!r}")


def _eval_array(f, xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``f(xs, rows)`` on every point of ``xs`` in one call; ``rows`` holds
    the scan row of each point.

    ``f`` must accept an array and return one value per point; a
    function that only takes scalars is a caller error, not something to
    fall back from point by point.  A NaN value raises DomainError
    naming the first point where it occurred.  An empty ``xs`` is not
    passed to ``f``.
    """
    if xs.size == 0:
        return np.empty(xs.shape)
    return _checked(xs, f(xs, rows))


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
