"""The set-up of a sandwich check reads the arrays it already holds: the
window is a set's merged ends cut at P (RestrictedSet.window), a truncated
grid is not checked again, Z and W evaluate psi in one call, and
domain_search reads a set's ends as arrays.  Each must give what the
composition it replaces gives, bit for bit and error for error."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    DomainError,
    GeneratingFunction,
    GridSequence,
    RestrictedSet,
    geometric_grid,
    integer_grid,
    psi_eval,
    sqrt_dip_psi,
    w_constant,
    z_constant,
)
from glspace import norms
from glspace.grids import _Z_TAIL_TERMS, EquivalenceConstant, _check_monotone
from glspace.suites import psi_pool

# ends on a 1/8 lattice, so that segments touch, overlap and nest
_END = st.integers(8, 800).map(lambda k: k / 8.0)


@st.composite
def _sets(draw):
    """A restricted set: intervals and isolated points (the last segment
    bounded or running to infinity), or a grid-backed set with or without
    a generator."""
    kind = draw(st.sampled_from(["intervals", "grid"]))
    if kind == "grid":
        grid = draw(st.sampled_from([
            integer_grid(draw(st.integers(1, 30))),
            geometric_grid(draw(st.integers(2, 4)), draw(st.integers(1, 8))),
            GridSequence(np.cumsum([1.0, *draw(st.lists(_END, max_size=6))]), "grid:custom"),
        ]))
        return RestrictedSet.from_grid(grid)
    segments = [(1.0, draw(st.sampled_from([1.0, 1.5, 3.0])))]
    for a in draw(st.lists(_END, max_size=6)):
        segments.append((a, a + draw(st.sampled_from([0.0, 0.0, 0.125, 1.0, 10.0]))))
    if draw(st.booleans()):
        segments.append((draw(_END), math.inf))
    return RestrictedSet.from_intervals(segments)


def _p_max(S):
    """A p_max anywhere, at a set element, or one that is refused."""
    ends = [v for seg in S.segments for v in seg if math.isfinite(v)]
    return st.one_of(
        st.floats(0.5, 2000.0),
        st.sampled_from(ends),
        st.sampled_from([math.nan, math.inf, 0.5, 1.0]),
    )


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return f"{type(exc).__name__}: {exc}"


def _summary(W):
    if isinstance(W, str):
        return W
    return W.segments, W.description, W.windowed_at, W.grid, W._lo.dtype, W._hi.dtype


def _window_reference(S, p_max):
    """The set's ends cut at P = window_point(p_max), through the validating
    constructor."""
    P = S.window_point(p_max)
    segments = list(zip(*(ends.tolist() for ends in S._ends_to(P))))
    return RestrictedSet(segments, f"{S.description}|p<={P:g}", windowed_at=float(P))


@settings(max_examples=200)
@given(st.data())
def test_the_window_is_the_validated_set_of_its_cut_ends(data):
    # p_max anywhere, at an element, NaN, inf or below 1, and on a grid-backed
    # set past its stored points
    S = data.draw(_sets())
    p_max = data.draw(_p_max(S))
    cut = _outcome(lambda: S.window(p_max))
    old = _outcome(lambda: _window_reference(S, p_max))
    assert _summary(cut) == _summary(old)
    if not isinstance(cut, str):
        assert repr(cut.windowed_at) == repr(old.windowed_at)
        # the window is read as the old one is, and gives the same search
        P = cut.windowed_at
        new_search, old_search = norms.domain_search(None, P, cut), norms.domain_search(None, P, old)
        assert new_search.rows.tobytes() == old_search.rows.tobytes()
        assert new_search.points.tobytes() == old_search.points.tobytes()
        assert new_search.truncated == old_search.truncated


@settings(max_examples=200)
@given(st.data())
def test_the_ends_of_a_set_are_its_segments(data):
    S = data.draw(_sets())
    P = data.draw(st.one_of(st.floats(1.0, 5000.0), st.just(math.nan)))
    got = _outcome(lambda: list(zip(*(ends.tolist() for ends in S._ends_to(P)))))
    reference = _outcome(lambda: _ends_to_reference(S, P))
    assert got == reference


def _ends_to_reference(S, P):
    """RestrictedSet._ends_to as a list of segments, one at a time."""
    segs = [(a, min(b, P)) for a, b in S.segments if a <= P]
    if P > S._hi[-1] and S.grid is not None and S.grid.generator is not None:
        tail = range(S.grid.M + 1, S.grid.last_index_at_most(P) + 1)
        segs += [(v, v) for v in map(S.grid.value_at, tail)]
    return segs


# nondecreasing as declared, and not finite past p = 30, so that the first
# p that psi_eval names is read off a gap's right end or its left one
_BROKEN = GeneratingFunction(lambda p: np.where(np.asarray(p) < 30.0, np.sqrt(p), np.inf), "broken",
                             envelope=(None, True))
# falling, yet declared nondecreasing, so that no monotone test stops it:
# every gap ratio lies below 1, where Z reads 1
_FALLING = GeneratingFunction(lambda p: 1.0 / np.asarray(p), "falling", envelope=(None, True))
_PSIS = [*psi_pool(), sqrt_dip_psi(), _BROKEN, _FALLING]


def _grid_constant_reference(kind, ratios, args):
    idx = int(np.argmax(ratios))
    tail_increasing = ratios.size >= 3 and ratios[-1] > ratios[-2] > ratios[-3]
    return EquivalenceConstant(kind=kind, value=float(ratios[idx]), arg=float(args[idx]),
                               tail_ratio=float(ratios[-1]), tail_increasing=bool(tail_increasing))


def _z_reference(S, psi):
    """Z from the list of gaps and two psi_eval calls, right ends first."""
    gaps = S.gaps()
    extended = S.grid is not None and S.grid.generator is not None
    if extended:
        ext = [S.grid.value_at(m) for m in range(S.grid.M, S.grid.M + _Z_TAIL_TERMS + 1)]
        gaps = gaps + [(ext[i], ext[i + 1]) for i in range(_Z_TAIL_TERMS)]
    if gaps:
        _check_monotone(psi, gaps[-1][1],
                        "the gap analysis for Z needs monotone psi (use the W^ cell-minimum machinery instead)")
    if not extended and math.isfinite(S.sup_value) and S.windowed_at is None:
        return EquivalenceConstant(kind="Z", value=math.inf, arg=S.sup_value, unbounded=True)
    if not gaps:
        return EquivalenceConstant(kind="Z", value=1.0, arg=1.0)
    lo, hi = (np.array(ends) for ends in zip(*gaps))
    z = _grid_constant_reference("Z", psi_eval(psi, hi) / psi_eval(psi, lo), lo)
    return dataclasses.replace(z, value=max(1.0, z.value))


@settings(max_examples=200)
@given(st.data())
def test_z_is_the_two_call_gap_computation(data):
    S = data.draw(_sets())
    if data.draw(st.booleans()):
        S = _outcome(lambda: S.window(data.draw(_p_max(S))))
        if isinstance(S, str):
            return
    psi = data.draw(st.sampled_from(_PSIS))
    assert repr(_outcome(lambda: z_constant(S, psi))) == repr(_outcome(lambda: _z_reference(S, psi)))


def test_z_names_the_first_bad_right_end_then_the_first_bad_left_end():
    # right ends 40 and 50 are not finite under the broken psi; so are the
    # left ends 35 and 45, which the right ends' error comes before
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, 35.0), (40.0, 45.0), (50.0, math.inf)])
    with pytest.raises(DomainError, match=r"^broken: psi\(p\) = inf at p=40\.0; psi must be finite and positive$"):
        z_constant(S, _BROKEN)
    assert repr(_outcome(lambda: z_constant(S, _BROKEN))) == repr(_outcome(lambda: _z_reference(S, _BROKEN)))
    # only a left end past 30: the gap (29, 31) has its right end at 31
    T = RestrictedSet.from_intervals([(1.0, 29.0), (31.0, math.inf)])
    assert repr(_outcome(lambda: z_constant(T, _BROKEN))) == repr(_outcome(lambda: _z_reference(T, _BROKEN)))


def test_z_reads_at_least_1():
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    z = z_constant(S, _FALLING)
    assert (z.value, z.arg, z.tail_ratio) == (1.0, 2.0, 2.0 / 3.0)
    assert repr(z) == repr(_z_reference(S, _FALLING))


def _w_reference(q, psi):
    if q.M < 2:
        raise DomainError("W needs at least two grid points")
    vals = psi_eval(psi, q.values)
    return _grid_constant_reference("W", vals[1:] / vals[:-1], np.arange(1.0, q.M))


@given(st.integers(1, 12), st.integers(2, 4), st.sampled_from(_PSIS), st.booleans())
def test_w_is_the_enumeration_of_the_grid_ratios(M, D, psi, geometric):
    q = geometric_grid(D, M) if geometric else integer_grid(M * 4)
    assert repr(_outcome(lambda: w_constant(q, psi))) == repr(_outcome(lambda: _w_reference(q, psi)))


@given(st.sampled_from([integer_grid(40), geometric_grid(3, 9), GridSequence([1.0, 1.5, 4.0, 9.0])]),
       st.integers(-1, 41))
def test_a_truncated_grid_is_the_grid_of_its_first_values(q, M):
    got = _outcome(lambda: q.truncated(M))
    if not 1 <= M <= q.M:
        assert got == f"DomainError: cannot truncate a {q.M}-point grid to M={M}"
        return
    reference = GridSequence(q.values[:M], q.description, q.generator)
    assert type(got) is GridSequence
    assert got.values.tobytes() == reference.values.tobytes() and got.values.dtype == reference.values.dtype
    assert (got.M, got.description, got.generator) == (reference.M, reference.description, reference.generator)
