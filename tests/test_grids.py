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
    gaussian_model,
    geometric_grid,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    psi_eval,
    rademacher_model,
    sandwich_check_discrete,
    sandwich_check_restricted,
    set_fixtures,
    set_from_spec,
    sqrt_dip_psi,
    w_constant,
    w_hat_constant,
    z_constant,
)
from glspace.grids import _Z_TAIL_TERMS, _check_monotone
from glspace.suites import psi_pool


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


@pytest.mark.parametrize("q", [geometric_grid(2, 10), integer_grid(5), GridSequence([1.0, 2.0])], ids=repr)
def test_nan_has_no_grid_index(q):
    # NaN compares false with every q(m); that must not read as "past them all"
    with pytest.raises(DomainError, match=rf"^{q.description}: no grid index for p=nan$"):
        q.first_index_at_least(math.nan)
    with pytest.raises(DomainError, match=rf"^{q.description}: no grid index for p=nan$"):
        q.last_index_at_most(math.nan)


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


@pytest.mark.parametrize("start", [math.inf, float("1e309")], ids=["inf", "1e309"])
def test_a_segment_that_starts_at_infinity_is_refused_naming_it(start):
    # no p of [1, inf) lies in it; accepted, it made inf a member and
    # window_point advise "lower p_max to at most inf"
    with pytest.raises(DomainError, match=r"^segment \[inf, inf\] must start at a finite p$"):
        RestrictedSet.from_intervals([(1.0, 2.0), (start, math.inf)])
    # a segment that only ends there is a set
    assert RestrictedSet.from_intervals([(1.0, math.inf)]).segments == [(1.0, math.inf)]


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


def test_a_grid_set_without_a_generator_ends_at_its_last_point():
    S = RestrictedSet.from_grid(GridSequence([1.0, 2.0, 3.0]))
    assert S.sup_value == 3.0
    assert S.p_plus(3.5) == math.inf
    with pytest.raises(TruncationError, match=r"lower p_max to at most 3$"):
        S.window_point(3.5)


def test_a_grid_set_reads_its_grid_to_the_last_point_at_or_below_p():
    q = geometric_grid(2, 3)
    # q(m) = 2^m - 1, which overflows a float at m = 1024
    ps = (0.5, 1.0, 2.9, 3.0, 1e300, 1e308, math.inf)
    assert [q.last_index_at_most(p) for p in ps] == [0, 1, 1, 2, 996, 1023, 1023]
    S = RestrictedSet.from_grid(q)
    assert S.segments_to(1e308) == [(v, v) for v in (2.0 ** np.arange(1, 1024) - 1.0).tolist()]
    assert S.segments_to(8.0) == [(1.0, 1.0), (3.0, 3.0), (7.0, 7.0)]
    # a grid that never passes P within _EXTEND_CAP terms is still refused
    with pytest.raises(TruncationError, match=r"did not reach 1e\+09 within 200000 terms"):
        RestrictedSet.from_grid(integer_grid(5)).segments_to(1e9)


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
    with pytest.raises(NonMonotoneError, match=r"^sqrt_dip is not nondecreasing on \[1, 3\]; the gap analysis for Z"):
        z_constant(S, sqrt_dip_psi())
    # a grid-backed set is checked up to its last tail gap, q(5 + 8) = 13
    with pytest.raises(NonMonotoneError, match=r"on \[1, 13\]; the gap analysis for Z"):
        z_constant(RestrictedSet.from_grid(integer_grid(5)), sqrt_dip_psi())


@pytest.mark.parametrize("model", [rademacher_model(), constant_model(3.0)])
def test_gap_analysis_accepts_nondecreasing_psi(model):
    # the natural psi of these models is identically 1: flagged
    # nondecreasing, as every natural psi is, though not strictly increasing
    psi = natural_psi(model)
    assert psi.nondecreasing
    S = set_from_spec("intervals:1-2,4-inf")
    assert z_constant(S, psi).value == 1.0
    rep = sandwich_check_restricted(model, psi, S, p_max=10.0)
    assert rep.constant.value == 1.0 and rep.ok


def test_sampled_gate_judges_an_unflagged_psi_on_its_window():
    # power_slowvary with delta < 0 is unflagged, yet nondecreasing on [1, 50]
    bent = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=-0.5))
    assert not bent.nondecreasing
    _check_monotone(bent, 50.0, "advice")
    with pytest.raises(NonMonotoneError, match=r"^sqrt_dip is not nondecreasing on \[1, 20\]; advice$"):
        _check_monotone(sqrt_dip_psi(), 20.0, "advice")
    # a flagged psi is trusted, whatever the window
    _check_monotone(make_power_slowvary(PowerSlowVaryParams(r=2.0)), 1.0, "advice")
    # an unflagged psi on a one-point window: the gate and the W route
    for psi in (bent, sqrt_dip_psi()):
        with pytest.raises(DomainError):
            _check_monotone(psi, 1.0, "advice")
        with pytest.raises(DomainError):
            sandwich_check_discrete(gaussian_model(), psi, integer_grid(5), p_max=1.0)


def _z_reference(S, psi):
    """Z's value, arg, tail_ratio and tail_increasing, one gap at a time."""
    gaps = S.gaps()
    if S.grid is not None:
        ext = [S.grid.value_at(m) for m in range(S.grid.M, S.grid.M + _Z_TAIL_TERMS + 1)]
        gaps += list(zip(ext, ext[1:]))
    if not gaps:
        return 1.0, 1.0, None, False
    ratios = [psi_eval(psi, b) / psi_eval(psi, a) for a, b in gaps]
    k = ratios.index(max(ratios))
    increasing = len(ratios) >= 3 and ratios[-1] > ratios[-2] > ratios[-3]
    return max(1.0, ratios[k]), gaps[k][0], ratios[-1], increasing


def test_z_equals_the_per_gap_scalar_reference():
    grid_set = RestrictedSet.from_grid(geometric_grid(2, 12))
    sets = set_fixtures() + [grid_set, grid_set.windowed(8191.0), set_fixtures()[16].windowed(12.0)]
    for S in sets:
        for psi in psi_pool():
            z = z_constant(S, psi)
            got = (z.value, z.arg, z.tail_ratio, z.tail_increasing)
            assert repr(got) == repr(_z_reference(S, psi)), (S.description, psi.description)
            assert z.kind == "Z" and not z.unbounded


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
