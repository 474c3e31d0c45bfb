"""The end certificate: a scan peak at a row end is not refined where the
chord bound proves that golden section cannot beat it, and the search
keeps every bit but the count of evaluations.  It serves both exact
moment backends, power means and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    EmpiricalModel,
    GroupFunctionModel,
    PowerSlowVaryParams,
    constant_model,
    cyclic_group,
    default_p_max,
    exponential_model,
    gaussian_model,
    gls_norm,
    make_power_slowvary,
    rademacher_model,
    raw_power_slowvary,
    sandwich_check_restricted,
    set_from_spec,
    uniform01_model,
)
from glspace import norms, search
from glspace.search import golden_section_max, sup_rows

pytestmark = pytest.mark.filterwarnings("ignore::glspace.models.MomentInstabilityWarning")

# normalized and raw members of the power family with delta >= 0, the psi
# that promise a concave ln psi
PSIS = [make(PowerSlowVaryParams(r, d)) for make in (make_power_slowvary, raw_power_slowvary)
        for r in (0.5, 1.0, 2.0, 4.0, 8.0) for d in (0.0, 0.5, 2.0)]


def _never(xs, ys, num, den, r, i, tol):
    """A search._certified that never fires."""
    return np.zeros(i.size, dtype=bool)


def _always(xs, ys, num, den, r, i, tol):
    """A search._certified that always fires."""
    return np.ones(i.size, dtype=bool)


def _searched(monkeypatch, call):
    """call()'s result and the RowSupremum of each sup_rows it made."""
    found = []

    def spy(*args, **kw):
        found.append(sup_rows(*args, **kw))
        return found[-1]

    monkeypatch.setattr(norms, "sup_rows", spy)
    return call(), found


@pytest.mark.parametrize("seed, scale, r, delta, p_max, spec, certified, evaluations", [
    # a normal sample under p^(1/2) ln^(1/2)(2 + p): the ratio peaks at
    # p = 1, and golden section on [x_0, x_1] would spend 41 points to
    # return it
    (0, 1.0, 2.0, 0.5, 200.0, None, 1, (21, 62)),
    # under p^(1/8) both rows of the set peak at their last point, 3 and
    # the sample's default p_max
    (11, 1.7, 8.0, 0.0, 5.0 * math.log(4096), "intervals:1-3,9-inf", 2, (29, 105)),
], ids=["first-point", "last-points"])
def test_a_sample_that_peaks_at_row_ends_is_certified_with_the_same_bits(
        monkeypatch, seed, scale, r, delta, p_max, spec, certified, evaluations):
    model = EmpiricalModel(scale * np.random.default_rng(seed).standard_normal(4096))
    psi = make_power_slowvary(PowerSlowVaryParams(r, delta))
    rset = spec and set_from_spec(spec)
    ends = norms.domain_search(model, p_max, rset).rows[:, [0, -1]]
    res, found = _searched(monkeypatch, lambda: gls_norm(model, psi, p_max, rset=rset))
    monkeypatch.setattr(search, "_certified", _never)
    off, found_off = _searched(monkeypatch, lambda: gls_norm(model, psi, p_max, rset=rset))
    assert (res.value, res.arg_p, res.decreasing_at_hi) == (off.value, off.arg_p, off.decreasing_at_hi)
    assert found[0].args.tolist() == found_off[0].args.tolist() and np.isin(found[0].args, ends).all()
    assert [f.certified for f in found] == [certified] and [f.certified for f in found_off] == [0]
    assert (res.n_evaluations, off.n_evaluations) == evaluations


def _zeros_and_ones(n: int) -> np.ndarray:
    """n values, half of them 0 and half 1: |f|_p = 2^(-1/p), whose ratio
    to p^(1/r) is log-concave and peaks at p = r ln 2."""
    return np.r_[np.zeros(n // 2), np.ones(n - n // 2)]


@pytest.mark.parametrize("model", [EmpiricalModel(_zeros_and_ones(256)),
                                   GroupFunctionModel(cyclic_group(16), _zeros_and_ones(16))],
                         ids=["pruned-sample", "group-function"])
def test_a_peak_inside_the_first_cell_is_still_refined(monkeypatch, model):
    # the ratio peaks at p = 1.003, inside the first scan cell [1, 1.0104],
    # nearer its left end: the scan peaks at p = 1 and only refinement finds
    # the higher value
    psi = make_power_slowvary(PowerSlowVaryParams(r=1.003 / math.log(2.0), delta=0.0))
    pair = norms._ratio_fn(model, psi)
    xs = norms.domain_search(model, 200.0).rows[0]
    num, den = pair(xs)
    ys = num / den
    assert ys.argmax() == 0 and 1.0 < 1.003 < xs[1]
    res = gls_norm(model, psi, 200.0)
    assert 1.0 < res.arg_p < xs[1] and res.value > ys[0]
    # a certificate that always fires returns the scan value
    monkeypatch.setattr(search, "_certified", _always)
    always = gls_norm(model, psi, 200.0)
    assert (always.value, always.arg_p) == (ys[0], 1.0)


def _assert_certified_brackets_are_unbeatable(model, psi, rset):
    """golden_section_max on every bracket _certified leaves unrefined, on
    the scan rows of gls_norm, returns the scan peak's own (arg, value)."""
    xs = norms.domain_search(model, default_p_max(model), rset).rows
    pair = norms._ratio_fn(model, psi)
    num, den = pair(xs)
    ys = num / den
    r, i, il, ih, k, _ = search._brackets(xs, ys, None)
    sure = search._certified(xs, ys, num, den, r[k], i[k], search._REFINE_TOL)
    for j in k[sure].tolist():
        row, lo, hi = r[j], il[j], ih[j]
        found = golden_section_max(lambda p: np.divide(*pair(np.array([p]))).item(), float(xs[row, lo]), float(xs[row, hi]),
                                   f_lo=float(ys[row, lo]), f_hi=float(ys[row, hi]))
        assert found == (xs[row, i[j]], ys[row, i[j]])


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**31),
    kind=st.integers(0, 2),
    n=st.integers(128, 20000),
    order=st.integers(2, 512),
    group=st.booleans(),
    scale=st.integers(-250, 250),
    psi=st.sampled_from(PSIS),
    with_set=st.booleans(),
)
def test_every_certified_bracket_is_one_golden_section_cannot_beat(seed, kind, n, order, group, scale, psi, with_set):
    rng = np.random.default_rng(seed)
    draw = (rng.standard_normal, rng.exponential, lambda size: rng.uniform(-1.0, 2.0, size))[kind]
    values = draw(size=order if group else n) * 10.0**scale
    model = GroupFunctionModel(cyclic_group(order), values) if group else EmpiricalModel(values)
    rset = set_from_spec("intervals:1-3,9-inf") if with_set else None
    _assert_certified_brackets_are_unbeatable(model, psi, rset)


CLOSED_FORMS = {"gaussian": gaussian_model, "exponential": exponential_model, "uniform01": uniform01_model,
                "rademacher": rademacher_model}


@settings(max_examples=200)
@given(
    family=st.sampled_from([*CLOSED_FORMS, "constant"]),
    mantissa=st.floats(1.0, 10.0),
    scale=st.integers(-320, 307),
    psi=st.sampled_from(PSIS),
    with_set=st.booleans(),
)
def test_every_certified_closed_form_bracket_is_one_golden_section_cannot_beat(family, mantissa, scale, psi, with_set):
    # a constant from subnormal to near the largest double
    model = constant_model(mantissa * 10.0**scale) if family == "constant" else CLOSED_FORMS[family]()
    rset = set_from_spec("intervals:1-3,9-inf") if with_set else None
    _assert_certified_brackets_are_unbeatable(model, psi, rset)


@pytest.mark.parametrize("make, r, delta, arg_p", [
    # the ratio falls from p = 1 on every row
    (gaussian_model, 2.0, 0.5, 1.0),
    # p^(1/8) grows more slowly than the exponential's moments: every row
    # peaks at its last point
    (exponential_model, 8.0, 0.0, 200.0),
], ids=["gaussian-first-points", "exponential-last-points"])
def test_a_closed_form_z_check_is_certified_with_the_same_bits(monkeypatch, make, r, delta, arg_p):
    model, psi = make(), make_power_slowvary(PowerSlowVaryParams(r, delta))
    S = set_from_spec("intervals:1-3,9-inf")
    rep, found = _searched(monkeypatch, lambda: sandwich_check_restricted(model, psi, S))
    monkeypatch.setattr(search, "_certified", _never)
    off, found_off = _searched(monkeypatch, lambda: sandwich_check_restricted(model, psi, S))
    for on_side, off_side in ((rep.inner, off.inner), (rep.full, off.full)):
        assert (on_side.value, on_side.arg_p, on_side.decreasing_at_hi) == (
            off_side.value, off_side.arg_p, off_side.decreasing_at_hi)
        assert on_side.arg_p == arg_p
    assert (rep.ok, rep.constant.value) == (off.ok, off.constant.value)
    # one shared search of the inner rows [1, 3] and [9, 200] and the full row
    assert [f.certified for f in found] == [3] and [f.certified for f in found_off] == [0]
    assert (rep.inner.n_evaluations, rep.full.n_evaluations) == (1024, 512)
    assert (off.inner.n_evaluations, off.full.n_evaluations) == (1102, 553)


def test_a_zero_constant_is_not_certified_and_keeps_its_note(monkeypatch):
    model, psi = constant_model(0.0), make_power_slowvary(PowerSlowVaryParams(2.0, 0.5))
    res, found = _searched(monkeypatch, lambda: gls_norm(model, psi))
    # |f| = 0 is constant and psi nondecreasing: the ratio cannot rise, so
    # the norm reads the row start and makes no sup_rows
    assert found == [] and res.n_evaluations == 4
    assert (res.value, res.arg_p, res.zero_model) == (0.0, 1.0, True)
    assert res.diagnostics == "f = 0 almost surely (|f|_1 = 0); norm is exactly 0"
    # the scan is a plateau; asked all the same, the certificate refuses
    # the first point, whose parts are 0
    xs = norms.domain_search(model, 200.0).rows
    num, den = norms._ratio_fn(model, psi)(xs)
    one = np.zeros(1, dtype=np.intp)
    assert not search._certified(xs, num / den, num, den, one, one, search._REFINE_TOL).any()
