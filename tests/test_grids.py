"""Grids, restricted sets, and the Z / W / W^ equivalence constants."""

import math

import numpy as np
import pytest

from glspace import (
    DomainError,
    GridSequence,
    NonMonotoneError,
    PowerSlowVaryParams,
    RestrictedSet,
    TruncationError,
    constant_model,
    geometric_grid,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    rademacher_model,
    sandwich_check_discrete,
    sandwich_check_restricted,
    set_from_spec,
    sqrt_dip_psi,
    w_constant,
    w_hat_constant,
    z_constant,
)


def root_psi():
    return make_power_slowvary(PowerSlowVaryParams(r=2.0))


def linear_psi():
    return make_power_slowvary(PowerSlowVaryParams(r=1.0))


# ---------------------------------------------------------------------------
# Grid sequences

def test_geometric_grid_values():
    q = geometric_grid(2, 10)
    assert q.values[0] == 1.0
    assert q.value_at(10) == 1023.0
    assert q.description == "grid:geometric:D=2:M=10"


def test_geometric_grid_rejects_bad_parameters():
    with pytest.raises(DomainError):
        geometric_grid(2.5, 10)
    with pytest.raises(DomainError):
        geometric_grid(1, 10)
    with pytest.raises(DomainError):
        geometric_grid(2, 0)


def test_integer_grid_extends_through_its_generator():
    q = integer_grid(5)
    assert list(q.values) == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert q.value_at(9) == 9.0
    assert q.first_index_at_least(3.0) == 3
    assert q.first_index_at_least(3.5) == 4
    assert q.first_index_at_least(7.2) == 8


def test_truncated_grid():
    q = integer_grid(10).truncated(3)
    assert q.M == 3 and q.value_at(3) == 3.0
    with pytest.raises(DomainError):
        integer_grid(10).truncated(0)


def test_plain_grid_without_generator_truncates():
    q = GridSequence([1.0, 2.0, 4.0])
    with pytest.raises(TruncationError):
        q.first_index_at_least(5.0)
    with pytest.raises(TruncationError):
        q.value_at(4)
    with pytest.raises(DomainError):
        q.value_at(0)


def test_invalid_grids_rejected():
    with pytest.raises(DomainError):
        GridSequence([2.0, 3.0])  # must start at 1
    with pytest.raises(NonMonotoneError):
        GridSequence([1.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        GridSequence([])


@pytest.mark.parametrize("values, i", [([1.0, 2.0, math.inf], 2), ([1.0, math.nan, 3.0], 1), ([1.0, math.inf, math.inf], 1)])
def test_non_finite_grid_values_are_rejected_naming_the_index(values, i):
    # inf - inf is NaN, which no strictly-increasing check catches
    with pytest.raises(DomainError, match=rf"^grid:custom: value {values[i]} at index {i} is not finite$"):
        GridSequence(values)


def test_geometric_grid_rejects_an_overflowing_length():
    assert geometric_grid(2, 1023).values[-1] == 2.0**1023 - 1.0
    with pytest.raises(DomainError, match=r"^grid:geometric:D=2:M=1024: q\(M\) = D\^M - D \+ 1 overflows a float"):
        geometric_grid(2, 1024)
    with pytest.raises(DomainError, match=r"D=2:M=1100"):
        geometric_grid(2, 1100)


def test_generator_extension_past_the_floats_is_a_truncation():
    q = geometric_grid(2, 10)
    # the doubling search overshoots into overflow and still finds q(997)
    assert q.first_index_at_least(1e300) == 997
    assert q.first_index_at_least(2.0**1023) == 1023
    with pytest.raises(TruncationError, match=r"overflows a float at q\(1024\) before reaching 1e\+308"):
        q.first_index_at_least(1e308)
    with pytest.raises(TruncationError, match=r"q\(1024\) overflows a float"):
        q.value_at(1024)
    with pytest.raises(TruncationError, match=r"D=2:M=10 overflows a float"):
        RestrictedSet.from_grid(q).p_plus(1e308)
    with pytest.raises(TruncationError, match=r"D=2:M=10 overflows a float"):
        sandwich_check_discrete(rademacher_model(), root_psi(), q, p_max=1e308)


# ---------------------------------------------------------------------------
# Restricted sets

def test_overlapping_segments_merge():
    S = RestrictedSet.from_intervals([(1.0, 2.0), (1.5, 3.0)])
    assert S.segments == [(1.0, 3.0)]
    assert S.gaps() == []
    assert S.sup_value == 3.0


def test_sets_must_contain_one():
    with pytest.raises(DomainError):
        RestrictedSet.from_intervals([(2.0, 3.0)])
    with pytest.raises(DomainError):
        RestrictedSet.from_intervals([(0.5, 2.0)])


def test_membership_and_next_point():
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    assert S.contains(1.5) and S.contains(2.0) and S.contains(3.0) and S.contains(1e9)
    assert not S.contains(2.5)
    np.testing.assert_array_equal(
        S.contains(np.array([1.0, 2.4, 7.0])), [True, False, True]
    )
    assert S.p_plus(1.7) == 1.7
    assert S.p_plus(2.5) == 3.0
    with pytest.raises(DomainError):
        S.p_plus(0.5)


def test_next_point_diverges_past_a_bounded_set():
    B = RestrictedSet.from_intervals([(1.0, 2.0)])
    assert B.p_plus(5.0) == math.inf
    with pytest.raises(TruncationError):
        B.window_point(5.0)
    assert B.window_point(1.7) == 1.7


def test_windowing_keeps_only_reachable_gaps():
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    assert S.window_point(200.0) == 200.0
    W = S.windowed(200.0)
    assert W.segments == [(1.0, 2.0), (3.0, 200.0)]
    assert W.windowed_at == 200.0
    with pytest.raises(DomainError):
        S.windowed(2.5)  # not a member


def test_grid_backed_sets_pull_points_on_demand():
    G = RestrictedSet.from_grid(integer_grid(5))
    assert G.contains(4.0) and not G.contains(4.5)
    assert G.contains(12.0)  # beyond the stored points
    assert G.p_plus(7.3) == 8.0
    assert G.sup_value == math.inf


def test_grid_backed_set_queries_leave_it_unchanged():
    G = RestrictedSet.from_grid(integer_grid(5))
    assert G.contains(100.0) and not G.contains(100.5)
    np.testing.assert_array_equal(G.contains(np.array([0.5, 3.0, 6.5, 150.0])), [False, True, False, True])
    np.testing.assert_array_equal(G.p_plus(np.array([2.5, 6.5, 149.2])), [3.0, 7.0, 150.0])
    assert G.window_point(200.0) == 200.0
    assert G.segments == [(v, v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    # the window reads the grid on to P without taking it into G
    W = G.windowed(12.0)
    assert W.segments == [(float(m), float(m)) for m in range(1, 13)]
    assert len(G.segments) == 5


# ---------------------------------------------------------------------------
# Equivalence constants

def test_full_set_has_unit_constant():
    z = z_constant(RestrictedSet.full(), root_psi())
    assert z.value == 1.0


def test_gap_constant_is_the_limit_ratio():
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    z = z_constant(S, linear_psi())
    assert z.value == 1.5 and z.arg == 2.0
    assert z_constant(S, root_psi()).value == pytest.approx(math.sqrt(1.5), rel=1e-14)
    assert float(z) == z.value


def test_bounded_set_constant_is_unbounded_until_windowed():
    B = RestrictedSet.from_intervals([(1.0, 2.0)])
    z = z_constant(B, root_psi())
    assert z.unbounded and math.isinf(z.value)
    zw = z_constant(B.windowed(2.0), root_psi())
    assert zw.value == 1.0


def test_gap_analysis_requires_monotone_psi():
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    with pytest.raises(NonMonotoneError):
        z_constant(S, sqrt_dip_psi())


@pytest.mark.parametrize("model", [rademacher_model(), constant_model(3.0)])
def test_gap_analysis_accepts_nondecreasing_psi(model):
    # the natural psi of these models is identically 1: nondecreasing,
    # not strictly increasing
    psi = natural_psi(model)
    assert not psi.strictly_increasing
    S = set_from_spec("intervals:1-2,4-inf")
    assert z_constant(S, psi).value == 1.0
    rep = sandwich_check_restricted(model, psi, S, p_max=10.0)
    assert rep.constant.value == 1.0 and rep.ok


def test_grid_set_constant_matches_the_grid_constant():
    # gaps of a point set are exactly the grid cells, so Z and W agree
    for q in (geometric_grid(2, 40), integer_grid(30)):
        z = z_constant(RestrictedSet.from_grid(q), root_psi())
        w = w_constant(q, root_psi())
        assert z.value == pytest.approx(w.value, rel=1e-12)


def test_grid_constant_anchors():
    w = w_constant(geometric_grid(2, 40), root_psi())
    assert w.value == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert w.arg == 1.0
    assert w_constant(integer_grid(40), root_psi()).value == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )
    assert w_constant(geometric_grid(3, 30), linear_psi()).value == pytest.approx(
        7.0, rel=1e-14
    )


def test_grid_constant_needs_two_points():
    with pytest.raises(DomainError):
        w_constant(integer_grid(1), root_psi())
    with pytest.raises(DomainError):
        w_hat_constant(integer_grid(1), root_psi())


def test_cell_minimum_constant_collapses_to_w_for_monotone_psi():
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5))
    for q in (geometric_grid(2, 12), integer_grid(25)):
        assert math.isclose(
            w_hat_constant(q, psi).value, w_constant(q, psi).value, rel_tol=1e-12
        )


def test_cell_minimum_constant_handles_the_dip():
    # between integers the dip drags the cell minimum below both
    # endpoints, so W^ must exceed the literal endpoint ratio
    q = integer_grid(20)
    w_hat = w_hat_constant(q, sqrt_dip_psi())
    literal = w_constant(q, sqrt_dip_psi())
    assert w_hat.value > literal.value
    assert 1.70 < w_hat.value < 1.80
