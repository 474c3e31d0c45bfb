"""Norm computations and the two-sided sandwich checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    DensityModel,
    DomainError,
    EmpiricalModel,
    GeneratingFunction,
    NonMonotoneError,
    PowerSlowVaryParams,
    RestrictedSet,
    TruncationError,
    constant_model,
    default_p_max,
    discrete_norm,
    exponential_model,
    gaussian_model,
    geometric_grid,
    gls_norm,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    restricted_norm,
    sandwich_check_discrete,
    sandwich_check_restricted,
    set_fixtures,
    set_from_spec,
    sqrt_dip_psi,
    uniform01_model,
)
from glspace.norms import _cellwise_full_norm, _ratio_fn
from glspace.search import grid_refine_supremum


def root_psi():
    return make_power_slowvary(PowerSlowVaryParams(r=2.0))


def linear_psi():
    return make_power_slowvary(PowerSlowVaryParams(r=1.0))


def test_gaussian_root_norm_peaks_at_one():
    res = gls_norm(gaussian_model(), root_psi())
    assert res.value == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert res.arg_p == 1.0
    assert res.decreasing_at_hi


def test_uniform_root_norm():
    res = gls_norm(uniform01_model(), root_psi())
    assert res.value == pytest.approx(0.5, rel=1e-12)
    assert res.arg_p == 1.0


def test_natural_psi_norm_is_the_first_moment():
    g = gaussian_model()
    res = gls_norm(g, natural_psi(g))
    # the ratio is identically |f|_1 by construction
    assert res.value == pytest.approx(g.lp_norm(1.0), rel=1e-12)


def test_p_max_must_be_at_least_one():
    with pytest.raises(DomainError):
        gls_norm(gaussian_model(), root_psi(), p_max=0.5)


def test_discrete_norm_of_a_constant():
    res = discrete_norm(constant_model(5.0), root_psi(), integer_grid(10))
    assert res.value == 5.0
    assert res.arg_p == 1.0 and res.arg_index == 1
    assert res.truncation_p_max == 10.0


def test_discrete_norm_gaussian_on_integers():
    g = gaussian_model()
    res = discrete_norm(g, root_psi(), integer_grid(50))
    assert res.value == pytest.approx(g.lp_norm(1.0), rel=1e-13)
    assert res.arg_index == 1
    assert res.decreasing_at_hi


def test_divergent_moments_give_infinite_norms():
    pareto = DensityModel(
        "pareto3", lambda x: 2.0 / x ** 3 if x >= 1.0 else 0.0, (1.0, np.inf)
    )
    res = gls_norm(pareto, root_psi(), p_max=10.0, n_points=32)
    assert math.isinf(res.value)
    assert "divergent" in res.diagnostics
    dres = discrete_norm(pareto, root_psi(), integer_grid(5))
    assert math.isinf(dres.value)


def test_homogeneity_of_all_three_norms():
    g = gaussian_model()
    psi = root_psi()
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    q = geometric_grid(2, 10)
    for alpha in (-2.0, 0.5, 3.0):
        s = g.scaled(alpha)
        assert gls_norm(s, psi).value == pytest.approx(
            abs(alpha) * gls_norm(g, psi).value, rel=1e-12
        )
        assert restricted_norm(s, psi, S).value == pytest.approx(
            abs(alpha) * restricted_norm(g, psi, S).value, rel=1e-12
        )
        assert discrete_norm(s, psi, q).value == pytest.approx(
            abs(alpha) * discrete_norm(g, psi, q).value, rel=1e-12
        )


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 31), n=st.integers(60, 150))
def test_triangle_inequality_for_plugin_norms(seed, n):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n)
    g = rng.normal(size=n)
    psi = root_psi()
    nf = gls_norm(EmpiricalModel(f), psi, p_max=20.0, n_points=128).value
    ng = gls_norm(EmpiricalModel(g), psi, p_max=20.0, n_points=128).value
    nfg = gls_norm(EmpiricalModel(f + g), psi, p_max=20.0, n_points=128).value
    assert nfg <= (nf + ng) * (1.0 + 1e-9)


def test_restricted_sandwich_with_the_linear_gap():
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    rep = sandwich_check_restricted(gaussian_model(), linear_psi(), S)
    assert rep.ok
    assert rep.kind == "restricted"
    assert rep.window_p == 200.0
    assert rep.constant.value == 1.5
    assert rep.inner_value <= rep.full_value <= rep.bound * (1.0 + rep.slack)


def test_restricted_sandwich_on_a_bounded_window():
    B = RestrictedSet.from_intervals([(1.0, 2.0)])
    rep = sandwich_check_restricted(gaussian_model(), root_psi(), B, p_max=2.0)
    # window and set coincide, so the two norms are the same scan
    assert rep.ok and rep.constant.value == 1.0
    assert rep.inner_value == rep.full_value
    with pytest.raises(TruncationError):
        sandwich_check_restricted(gaussian_model(), root_psi(), B, p_max=200.0)


def test_discrete_sandwich_monotone_route():
    rep = sandwich_check_discrete(gaussian_model(), root_psi(), geometric_grid(2, 40))
    assert rep.ok
    assert rep.kind == "discrete"
    assert rep.window_p == 255.0  # first grid point at or past 200
    assert rep.constant.value == pytest.approx(math.sqrt(3.0), rel=1e-13)


def test_discrete_sandwich_dip_needs_the_cell_route():
    with pytest.raises(NonMonotoneError, match=r"^sqrt_dip is not nondecreasing on \[1, 200\]; the W bound does not apply"):
        sandwich_check_discrete(gaussian_model(), sqrt_dip_psi(), integer_grid(256))
    rep = sandwich_check_discrete(
        gaussian_model(), sqrt_dip_psi(), integer_grid(256), use_w_hat=True
    )
    assert rep.ok
    assert rep.constant.kind == "W_hat"
    # the dip hides full-norm mass between grid points
    assert rep.full_value > rep.inner_value


def test_discrete_sandwich_requires_a_long_enough_grid():
    with pytest.raises(TruncationError):
        sandwich_check_discrete(gaussian_model(), root_psi(), integer_grid(50))


def test_default_window():
    assert default_p_max(gaussian_model()) == 200.0
    assert default_p_max(EmpiricalModel(np.ones(1000))) == pytest.approx(
        5.0 * math.log(1000.0)
    )


def nan_above_50_psi():
    """sqrt(p) below p = 50 and NaN above it."""

    def evaluator(p):
        return np.where(np.asarray(p) > 50.0, np.nan, np.sqrt(p))

    return GeneratingFunction(evaluator, False, 1.0, "nan_above_50")


def test_nan_ratio_raises_naming_p():
    # the ratio Gamma(p+1)^(1/p) / sqrt(p) increases, so a NaN must not
    # lose silently to the value at p = 1
    with pytest.raises(DomainError, match=r"NaN at p=50\.\d"):
        gls_norm(exponential_model(), nan_above_50_psi())
    with pytest.raises(DomainError, match=r"NaN at p=51\.0"):
        discrete_norm(exponential_model(), nan_above_50_psi(), integer_grid(60))
    with pytest.raises(DomainError, match=r"NaN at p=5[01]\.\d"):
        sandwich_check_discrete(exponential_model(), nan_above_50_psi(), integer_grid(60), p_max=55.0, use_w_hat=True)


def _per_segment_norm(model, psi, S, p_max=200.0):
    """gls_norm as a loop: grid_refine_supremum on each interval and a
    scalar ratio call on each point, the best value winning and ties
    going to the smallest p."""
    pair = _ratio_fn(model, psi)

    def ratio(p):
        num, den = pair(p)
        return num / den

    best_val, best_arg, edge = -math.inf, math.inf, True
    for a, b in S.segments:
        a, b = max(a, 1.0), min(b, p_max)
        if a > b:
            continue
        if a == b:
            val, arg = float(ratio(a)), a
        else:
            res = grid_refine_supremum(ratio, a, b)
            val, arg = res.value, res.arg
            if b == p_max:
                edge = res.decreasing_at_hi
        if val > best_val or (val == best_val and arg < best_arg):
            best_val, best_arg = val, arg
    return best_val, best_arg, edge


MIXED_SET = RestrictedSet([(1.0, 1.5), (2.0, 2.0), (3.0, 4.5), (6.0, 6.0), (7.25, 7.25), (9.0, math.inf)])


@pytest.mark.parametrize("model", [gaussian_model(), exponential_model()], ids=lambda m: m.label)
@pytest.mark.parametrize("psi", [root_psi(), sqrt_dip_psi()], ids=lambda p: p.description)
def test_norm_over_a_set_equals_a_per_segment_search(model, psi):
    for S in set_fixtures() + [MIXED_SET, RestrictedSet.from_grid(integer_grid(40))]:
        for p_max in (200.0, 6.0):
            res = gls_norm(model, psi, p_max, rset=S)
            val, arg, edge = _per_segment_norm(model, psi, S, p_max)
            assert abs(res.value - val) <= 4 * np.spacing(val), (S.description, p_max)
            assert res.arg_p == arg, (S.description, p_max)
            assert res.decreasing_at_hi == edge, (S.description, p_max)


def _counting(model):
    """``model`` with its moment map wrapped to count the points asked for."""
    seen = [0]
    lp_norm = model.lp_norm

    def counted(p):
        seen[0] += np.size(p)
        return lp_norm(p)

    model.lp_norm = counted
    return model, seen


def pareto3_density():
    """Density 2/x^3 on [1, inf): moments diverge from p = 2."""
    return DensityModel("pareto3", lambda x: 2.0 / x**3, (1.0, math.inf))


def test_evaluation_counts_include_the_call_that_diverged():
    model, seen = _counting(pareto3_density())
    res = _cellwise_full_norm(model, sqrt_dip_psi(), integer_grid(5))
    assert math.isinf(res.value) and res.arg_p == 2.0
    assert res.n_evaluations == seen[0] == 4 * 64
    model, seen = _counting(pareto3_density())
    res = gls_norm(model, root_psi(), rset=set_from_spec("intervals:1-1.5,3-inf"))
    assert math.isinf(res.value) and res.arg_p == 3.0
    assert res.n_evaluations == seen[0] == 2 * 512


def test_evaluation_counts_are_the_points_seen():
    for S in (None, MIXED_SET, RestrictedSet.from_grid(integer_grid(40))):
        model, seen = _counting(gaussian_model())
        res = gls_norm(model, sqrt_dip_psi(), rset=S)
        assert res.n_evaluations == seen[0] > 0
        # a pruned search counts the points of both of its passes
        model, seen = _counting(EmpiricalModel(np.random.default_rng(2).normal(size=400)))
        res = gls_norm(model, root_psi(), default_p_max(model), rset=S)
        assert res.n_evaluations == seen[0] > 0
    model, seen = _counting(gaussian_model())
    assert discrete_norm(model, sqrt_dip_psi(), integer_grid(40)).n_evaluations == seen[0] == 40


def test_restricted_norm_ignores_earlier_set_queries():
    G = RestrictedSet.from_grid(integer_grid(5))
    before = gls_norm(exponential_model(), root_psi(), 200.0, rset=G)
    assert G.contains(100.0)
    after = gls_norm(exponential_model(), root_psi(), 200.0, rset=G)
    assert before == after
    assert before.n_evaluations == 5
    assert before.value == pytest.approx(1.165067927680028, rel=1e-12)
    S = set_from_spec("grid:integers:M=5")
    rep = sandwich_check_restricted(exponential_model(), root_psi(), S)
    assert rep.window_p == 200.0
    assert rep.inner_value == pytest.approx(5.296261809217376, rel=1e-12)
    assert len(S.segments) == 5


def test_ties_go_to_the_smallest_p():
    model = constant_model(3.0)
    psi = natural_psi(model)  # the ratio is exactly 3 everywhere
    for S in (None, MIXED_SET, RestrictedSet.from_grid(integer_grid(10))):
        res = gls_norm(model, psi, rset=S)
        assert (res.value, res.arg_p) == (3.0, 1.0)
    assert discrete_norm(model, psi, integer_grid(10)).arg_index == 1
    assert _cellwise_full_norm(model, psi, integer_grid(10)).arg_p == 1.0
