"""A ratio that cannot rise along a row: a constant |f| under a
nondecreasing psi, or an exact model under its own natural psi.  Its norm
reads each scan row at its first point, and the last three points of its
last row for the edge evidence, and makes no sup_rows; every field but the count is the full search's, except that
under the model's own natural psi the value, |f|_1 at every p, may move
by 1 ulp toward |f|_1."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    ClosedFormModel,
    EmpiricalModel,
    GroupFunctionModel,
    PowerSlowVaryParams,
    RestrictedSet,
    constant_model,
    cyclic_group,
    discrete_norm,
    exponential_model,
    gaussian_model,
    geometric_grid,
    gls_norm,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    rademacher_model,
    sandwich_check_discrete,
    sandwich_check_restricted,
    sqrt_dip_psi,
    uniform01_model,
)
from glspace import norms
from glspace.norms import gls_norms
from glspace.suites import grid_pool, psi_pool, set_fixtures
from glspace.search import sup_rows

from quadrature_models import DensityModel, uniform01_density_model

pytestmark = pytest.mark.filterwarnings("ignore::glspace.models.MomentInstabilityWarning")


def _sup_rows_calls(monkeypatch, call) -> tuple:
    """call()'s result and the number of sup_rows it made."""
    calls = [0]

    def spy(*args, **kw):
        calls[0] += 1
        return sup_rows(*args, **kw)

    monkeypatch.setattr(norms, "sup_rows", spy)
    return call(), calls[0]


def _full_search(call):
    """call() with no |f| taken for constant.  Where the psi it passes is
    not the model's own (_not_own), every norm is searched in full."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(norms, "_abs_constant", lambda model: False)
        return call()


def _not_own(psi):
    """``psi`` with no source: the two-call route, point for point the bits
    of the one-moment pair."""
    return dataclasses.replace(psi, source=None)


def test_models_declare_their_ess_sup():
    assert constant_model(-2.5).ess_sup == 2.5 and constant_model(0.0).ess_sup == 0.0
    assert rademacher_model().ess_sup == uniform01_model().ess_sup == 1.0
    assert gaussian_model().ess_sup == exponential_model().ess_sup == math.inf
    assert ClosedFormModel("anonymous", np.sqrt).ess_sup == math.inf
    assert EmpiricalModel([0.5, -3.0, 2.0]).ess_sup == 3.0
    assert GroupFunctionModel(cyclic_group(3), [0.0, 0.0, 0.0]).ess_sup == 0.0


def test_a_constant_abs_is_decided_exactly_and_without_a_moment():
    # |f|_1 of 2 and its neighbour below rounds to the ess sup, 2, yet |f|
    # is not constant
    near = EmpiricalModel([2.0, np.nextafter(2.0, 0.0)])
    assert near.lp_norm(1.0) == near.ess_sup == 2.0
    assert not norms._abs_constant(near)
    assert not norms._abs_constant(EmpiricalModel([2.0, 2.0 * (1.0 - 2.0**-52)]))
    assert norms._abs_constant(EmpiricalModel([2.0, -2.0, 2.0]))
    assert norms._abs_constant(GroupFunctionModel(cyclic_group(4), np.zeros(4)))
    assert norms._abs_constant(constant_model(-3.0)) and norms._abs_constant(rademacher_model())
    assert not norms._abs_constant(uniform01_model())

    class Unasked(ClosedFormModel):
        def lp_norm(self, p):
            raise AssertionError("the test asks for no moment")

    for ess_sup in (4.0, math.inf):
        model = Unasked("c", lambda p: np.full_like(p, 4.0), ess_sup=ess_sup)
        assert norms._abs_constant(model) is (ess_sup == 4.0)


@pytest.mark.parametrize("below", [2.0 * (1.0 - 2.0**-52), np.nextafter(2.0, 0.0)], ids=["two-ulp", "one-ulp"])
def test_a_near_constant_sample_is_searched_in_full(monkeypatch, below):
    model = EmpiricalModel([2.0, below] * 3)
    psi = make_power_slowvary(PowerSlowVaryParams(2.0, 0.5))
    res, calls = _sup_rows_calls(monkeypatch, lambda: gls_norm(model, psi))
    assert calls == 1 and res.n_evaluations > 4
    # an equal |value| on every point reads the row start and the edge
    res, calls = _sup_rows_calls(monkeypatch, lambda: gls_norm(EmpiricalModel([2.0, -2.0] * 3), psi))
    assert calls == 0 and res.n_evaluations == 4
    assert (res.value, res.arg_p, res.decreasing_at_hi) == (2.0, 1.0, True)


def test_a_divergent_models_own_natural_psi_keeps_its_witness(monkeypatch):
    # a moment by quadrature is not exact, so its own ratio is searched in
    # full, and the divergent moment past p = 2 is found and named
    model = DensityModel("pareto3", lambda x: 2.0 / x**3, (1.0, math.inf))
    res, calls = _sup_rows_calls(monkeypatch, lambda: gls_norm(model, natural_psi(model), 20.0))
    assert calls == 1
    assert (res.value, res.arg_p) == (math.inf, 2.0089983868733725)


@pytest.mark.parametrize("psi", [
    sqrt_dip_psi(),
    make_power_slowvary(PowerSlowVaryParams(2.0, -0.5)),
], ids=["sqrt_dip", "negative-delta"])
@pytest.mark.parametrize("model", [constant_model(2.5), rademacher_model(), EmpiricalModel([1.5, -1.5] * 64)],
                         ids=["constant", "rademacher", "equal-values"])
def test_a_constant_abs_under_a_psi_not_nondecreasing_is_searched_in_full(monkeypatch, model, psi):
    assert not psi.nondecreasing
    _, calls = _sup_rows_calls(monkeypatch, lambda: gls_norm(model, psi, 50.0))
    assert calls == 1


def test_a_model_of_inexact_moments_is_searched_in_full(monkeypatch):
    model = uniform01_density_model()
    _, calls = _sup_rows_calls(monkeypatch, lambda: gls_norm(model, natural_psi(model), 5.0))
    assert calls == 1


def test_a_shared_search_whose_ratios_differ_in_flatness_is_given_up():
    # g = 0 cannot rise under a nondecreasing psi; f can: each searches
    # alone, with its own bits and count
    G = cyclic_group(6)
    f = GroupFunctionModel(G, np.random.default_rng(4).standard_normal(6))
    g = GroupFunctionModel(G, np.zeros(6))
    psi = psi_pool()[6]
    both = gls_norms([f, g], psi, 30.0)
    assert both == [gls_norm(f, psi, 30.0), gls_norm(g, psi, 30.0)]
    assert both[1].n_evaluations == 4 < both[0].n_evaluations


def _flat_models():
    """Models whose |f| is constant: closed forms and power means."""
    c = st.floats(0.25, 8.0).map(float)
    return st.one_of(
        c.map(constant_model),
        st.just(rademacher_model()),
        st.tuples(c, st.integers(1, 300), st.integers(0, 2**32 - 1)).map(
            lambda a: EmpiricalModel(a[0] * np.where(np.random.default_rng(a[2]).random(a[1]) < 0.5, -1.0, 1.0))
        ),
        st.tuples(c, st.integers(1, 40)).map(lambda a: GroupFunctionModel(cyclic_group(a[1]), np.full(a[1], -a[0]))),
    )


@st.composite
def _sets(draw):
    """A random subset of [1, inf) containing 1: intervals and points
    between drawn breakpoints, the last reaching to inf or not."""
    cuts = sorted(set(draw(st.lists(st.floats(1.001, 300.0), min_size=1, max_size=8))))
    ends = [1.0, *cuts]
    segments = []
    for k in range(0, len(ends) - 1, 2):
        a, b = ends[k], ends[k + 1]
        segments.append((a, a) if draw(st.booleans()) else (a, b))
    if draw(st.booleans()):
        segments.append((ends[-1], math.inf))
    return RestrictedSet(segments)


def _same(flat, full, own: bool, m1: float):
    """``flat`` has the fields of ``full`` but the count.  Under the model's
    own natural psi, where the ratio is |f|_1 at every p up to rounding, its
    value may be 1 ulp nearer |f|_1, and its argument another point of the
    rows' starts and the exact points: the first where that value is
    reached, which the full search may reach at a smaller p."""
    value, arg_p = full.value, full.arg_p
    if own:
        assert flat.value in (value, np.nextafter(value, m1)) and abs(flat.value - m1) <= abs(value - m1)
        assert flat.value < value or flat.arg_p >= arg_p
        value, arg_p = flat.value, flat.arg_p
    assert (flat.value, flat.arg_p, flat.decreasing_at_hi, flat.arg_index, flat.zero_model) == (
        value, arg_p, full.decreasing_at_hi, full.arg_index, full.zero_model)


@settings(max_examples=80)
@given(
    model=st.one_of(_flat_models(), st.sampled_from([uniform01_model(), gaussian_model(),
                                                     EmpiricalModel(np.random.default_rng(5).normal(size=300))])),
    own=st.booleans(),
    pool=st.sampled_from(psi_pool()),
    rset=st.one_of(st.none(), _sets(), st.sampled_from(set_fixtures())),
    grid=st.sampled_from(grid_pool()),
    p_max=st.floats(1.0, 250.0),
)
def test_reading_the_row_start_gives_the_full_searchs_fields(model, own, pool, rset, grid, p_max):
    # a model of a non-constant |f| only under its own natural psi, where
    # its ratio is |f|_1 at every p
    own = own or not norms._abs_constant(model)
    if own and model.ess_sup == 0.0:
        return  # f = 0 has no natural psi
    psi = natural_psi(model) if own else pool
    m1 = model.lp_norm(1.0)
    for norm in (
        lambda psi: gls_norm(model, psi, p_max, rset),
        lambda psi: discrete_norm(model, psi, grid),
    ):
        _same(norm(psi), _full_search(lambda: norm(_not_own(psi))), own, m1)
    window = max(p_max, 1.5)
    for check in (
        lambda psi: sandwich_check_restricted(model, psi, set_fixtures()[3], window),
        lambda psi: sandwich_check_discrete(model, psi, grid, window),
        lambda psi: sandwich_check_discrete(model, psi, grid, window, use_w_hat=True),
    ):
        flat, full = check(psi), _full_search(lambda: check(_not_own(psi)))
        _same(flat.inner, full.inner, own, m1)
        _same(flat.full, full.full, own, m1)
        assert (flat.ok, flat.constant.value) == (full.ok, full.constant.value)


def test_a_value_under_the_models_own_natural_psi_lies_a_few_ulp_at_most_above_its_l1():
    # the ratio is |f|_1 at every p in exact arithmetic, but the value is the
    # rounded m / (m / |f|_1) at the largest of the points read: on a
    # 40-value sample's integer grid (at p = 2), and in the Gaussian's W^
    # full norm on a doubling grid (at p = 127 on NumPy's default loops of
    # an AVX-512 machine, at p = 31 on its baseline loops), it is 1 ulp
    # above |f|_1.  Both reads include p = 1, where the ratio is |f|_1
    # itself, so the value is not below it
    sample = EmpiricalModel(np.random.default_rng(3).standard_normal(40))
    on_grid = discrete_norm(sample, natural_psi(sample), integer_grid(40))
    gauss = gaussian_model()
    w_hat = sandwich_check_discrete(gauss, natural_psi(gauss), geometric_grid(2, 40), 128.0, use_w_hat=True).full
    for model, res in ((sample, on_grid), (gauss, w_hat)):
        l1 = float(model.lp_norm(1.0))
        assert res.constant_ratio
        assert l1 < res.value <= l1 + 4 * np.spacing(l1)
