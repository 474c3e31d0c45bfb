"""The lower envelope of a generating function: sqrt_dip's sqrt(p) / 1.5
touches psi, takes part in equality, and a norm search that rules out
brackets by it keeps every bit of every norm; an envelope above psi
does not."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    EmpiricalModel,
    GroupFunctionModel,
    RestrictedSet,
    constant_model,
    cyclic_group,
    exponential_model,
    gaussian_model,
    geometric_grid,
    integer_grid,
    psi_eval,
    rademacher_model,
    sandwich_check_discrete,
    sqrt_dip_psi,
    uniform01_model,
)
from glspace import norms, search
from glspace.grids import w_hat_constant
from glspace.norms import _cell_search, domain_search, grid_search, sup_norms

pytestmark = pytest.mark.filterwarnings("ignore::glspace.models.MomentInstabilityWarning")

CLOSED = [gaussian_model(), exponential_model(), uniform01_model(), rademacher_model(), constant_model(2.5)]


def test_sqrt_dips_envelope_touches_psi_at_every_half_integer():
    # the ripple is at its least there (the promise itself is checked with
    # every shipped psi's, in test_generating)
    psi = sqrt_dip_psi()
    half = np.arange(3, 2001, 2) / 2.0
    assert np.allclose(psi.envelope[0](half), psi_eval(psi, half), rtol=1e-15, atol=0.0)


def test_the_envelope_takes_part_in_equality_and_hashing():
    # so a psi without it, or with another, never shares psi's W^ memo entry
    psi = sqrt_dip_psi()
    off = dataclasses.replace(psi, envelope=None)
    assert off != psi and off.envelope is None
    assert dataclasses.replace(psi) == psi and hash(dataclasses.replace(psi)) == hash(psi)
    assert dataclasses.replace(psi, envelope=(psi.envelope[0], False)) != psi
    q = integer_grid(20)
    search._row_memo.clear()
    hits, misses = search.memo_counts["hits"], search.memo_counts["misses"]
    assert w_hat_constant(q, off) == w_hat_constant(q, psi)
    assert (search.memo_counts["hits"] - hits, search.memo_counts["misses"] - misses) == (0, 2)


def _norms(psi, case):
    """The (value, arg_p, decreasing_at_hi) of each norm of ``case`` under psi."""
    kind, model, domain = case
    if kind == "interval":
        searches = [domain_search(model, domain)]
    elif kind == "set":
        p_max, segments = domain
        searches = [domain_search(model, p_max, RestrictedSet(segments))]
    else:
        # a W^ check's two norms: the grid values and the cell rows
        searches = [grid_search(model, domain), _cell_search(model, domain)]
    return [(r.value, r.arg_p, r.decreasing_at_hi) for r in sup_norms(psi, searches)]


@st.composite
def _cases(draw):
    source = draw(st.sampled_from(["closed", "sample", "group"]))
    if source == "closed":
        model = draw(st.sampled_from(CLOSED))
    else:
        n = 2 ** draw(st.integers(7, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
        model = EmpiricalModel(values) if source == "sample" else GroupFunctionModel(cyclic_group(n), values)
    kind = draw(st.sampled_from(["interval", "set", "cells"]))
    if kind == "interval":
        domain = draw(st.floats(1.5, 200.0))
    elif kind == "set":
        # [1, a], then an interval between each next pair of ends, and a
        # point at an end left over
        ends = sorted(draw(st.lists(st.floats(1.0, 200.0), min_size=1, max_size=4)))
        segments = [(1.0, ends[0])] + list(zip(ends[1::2], ends[2::2]))
        if len(ends) % 2 == 0:
            segments.append((ends[-1], ends[-1]))
        domain = (draw(st.floats(ends[-1], 200.0)), segments)
    else:
        domain = draw(st.one_of(
            st.builds(integer_grid, st.integers(2, 80)),
            st.builds(geometric_grid, st.integers(2, 3), st.integers(2, 4)),
        ))
    return kind, model, domain


@settings(max_examples=80, deadline=None)
@given(case=_cases())
def test_every_norm_keeps_its_bits_with_and_without_the_envelope(case):
    psi = sqrt_dip_psi()
    assert _norms(psi, case) == _norms(dataclasses.replace(psi, envelope=None), case)


def _routes(monkeypatch):
    """The brackets of each lockstep and each guessed-round refinement, and
    the RowSupremum of each sup_rows call, as they happen."""
    seen = {"lockstep": [], "guessed": [], "found": []}
    lockstep, speculate, sup_rows = search._golden_lockstep, search._speculate, search.sup_rows

    def lockstep_spy(parts, lo, *args):
        seen["lockstep"].append(lo.size)
        return lockstep(parts, lo, *args)

    def speculate_spy(parts, lo, *args):
        seen["guessed"].append(lo.size)
        return speculate(parts, lo, *args)

    def sup_rows_spy(*args, **kw):
        seen["found"].append(sup_rows(*args, **kw))
        return seen["found"][-1]

    monkeypatch.setattr(search, "_golden_lockstep", lockstep_spy)
    monkeypatch.setattr(search, "_speculate", speculate_spy)
    monkeypatch.setattr(norms, "sup_rows", sup_rows_spy)
    return seen


@pytest.mark.parametrize("model", CLOSED, ids=lambda m: m.label)
def test_a_w_hat_check_under_sqrt_dip_refines_one_or_two_brackets_in_guessed_rounds(monkeypatch, model):
    psi = sqrt_dip_psi()
    q = integer_grid(256)
    off = sandwich_check_discrete(model, dataclasses.replace(psi, envelope=None), q, use_w_hat=True)
    # psi's W^ from the memo, as off's is: its cell minima refine in
    # lockstep, and are no part of the norm search
    sandwich_check_discrete(model, psi, q, use_w_hat=True)
    seen = _routes(monkeypatch)
    rep = sandwich_check_discrete(model, psi, q, use_w_hat=True)
    for a, b in ((rep.full, off.full), (rep.inner, off.inner)):
        assert (a.value, a.arg_p, a.decreasing_at_hi) == (b.value, b.arg_p, b.decreasing_at_hi)
    assert rep.full.n_evaluations < off.full.n_evaluations
    # 199 cells, one interior peak each: all but one or two ruled out
    (found,) = seen["found"]
    assert found.ruled_out >= 190 and seen["lockstep"] == []
    assert len(seen["guessed"]) == 1 and 1 <= seen["guessed"][0] <= 2


def test_a_search_of_few_brackets_takes_no_envelope(monkeypatch):
    # 10 cells, one interior peak each and two more at the left ends of
    # the first two: 12 brackets, no more than may be guessed
    seen = _routes(monkeypatch)
    sandwich_check_discrete(gaussian_model(), sqrt_dip_psi(), integer_grid(11), 11.0, use_w_hat=True)
    assert [f.ruled_out for f in seen["found"]] == [0] and seen["guessed"] == [12]


def test_an_envelope_above_psi_loses_the_peak():
    # sqrt(p) / 1.4 lies above psi near every half-integer, so the bound of
    # the bracket that holds the supremum falls below its scan value, and
    # the norm keeps that lower scan value
    psi = sqrt_dip_psi()
    high = dataclasses.replace(psi, envelope=(lambda p: np.sqrt(p) / 1.4, True))
    assert high.envelope[0](np.array([1.5]))[0] > psi(1.5)
    case = ("cells", gaussian_model(), integer_grid(60))
    assert _norms(high, case)[1][0] < _norms(psi, case)[1][0]
