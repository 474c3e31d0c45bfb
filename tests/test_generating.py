"""Generating-function families: normalization, monotonicity, domains."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glspace import (
    DomainError,
    EmpiricalModel,
    GeneratingFunction,
    PowerSlowVaryParams,
    gaussian_model,
    make_power_slowvary,
    natural_psi,
    psi_eval,
    psi_validate,
    raw_power_slowvary,
    sqrt_dip_psi,
)


@pytest.mark.parametrize("r,delta", [(0.5, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 2.5)])
def test_normalized_family_is_one_at_one(r, delta):
    psi = make_power_slowvary(PowerSlowVaryParams(r=r, delta=delta))
    assert psi.value_at_one == 1.0
    assert psi_eval(psi, 1.0) == 1.0


def test_descriptions_round_trip_parameters():
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5))
    assert psi.description == "power_slowvary(r=2, delta=0.5)"


def test_monotone_flag_tracks_delta_sign():
    assert make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5)).strictly_increasing
    assert not make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=-0.5)).strictly_increasing


def test_invalid_exponent_rejected():
    with pytest.raises(DomainError):
        PowerSlowVaryParams(r=0.0)
    with pytest.raises(DomainError):
        PowerSlowVaryParams(r=-1.0)


UNUSABLE_DELTAS = [1e300, math.inf, -math.inf, -1e300, math.nan]


@pytest.mark.parametrize("delta", UNUSABLE_DELTAS)
@pytest.mark.parametrize("make", [make_power_slowvary, raw_power_slowvary])
def test_delta_without_a_finite_psi_is_rejected(make, delta):
    # ln^delta(3) overflows or underflows (or delta is not a number): a
    # DomainError, not an OverflowError or a NumPy RuntimeWarning
    with pytest.raises(DomainError, match="delta"):
        make(PowerSlowVaryParams(r=2.0, delta=delta))


# psi(r=2, delta) underflows to 0 from p = 16.27 on (delta = -700) and
# overflows to inf from p = 1.17 on (delta = 5000), inside the norm window
OUT_OF_RANGE = [(-700.0, "0"), (5000.0, "inf")]


@pytest.mark.parametrize("delta, value", OUT_OF_RANGE)
def test_psi_out_of_range_is_a_domain_error_naming_p(delta, value):
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=delta))
    desc = f"power_slowvary(r=2, delta={delta:g})"
    with np.errstate(over="ignore"):
        assert psi_eval(psi, 1.0) == 1.0
        with pytest.raises(DomainError) as scalar:
            psi_eval(psi, 100.0)
        with pytest.raises(DomainError) as array:
            psi_eval(psi, np.array([1.0, 1.05, 50.0, 100.0]))
    assert str(scalar.value) == f"{desc}: psi(p) = {value} at p=100.0; psi must be finite and positive"
    assert str(array.value) == f"{desc}: psi(p) = {value} at p=50.0; psi must be finite and positive"


def test_psi_evaluation_rejects_a_negative_value_and_passes_nan_on():
    negative = GeneratingFunction(lambda p: 2.0 - np.asarray(p), False, 1.0, "two_minus_p")
    with pytest.raises(DomainError, match=r"^two_minus_p: psi\(p\) = -1 at p=3.0;"):
        psi_eval(negative, 3.0)
    with pytest.raises(DomainError, match=r"^two_minus_p: psi\(p\) = 0 at p=2.0;"):
        psi_eval(negative, np.array([1.0, 2.0, 3.0]))
    # a NaN is the search's to name, with the p it was searching at
    nan = GeneratingFunction(lambda p: np.sqrt(p) * np.nan, False, 1.0, "nan")
    assert math.isnan(psi_eval(nan, 2.0))
    assert np.isnan(psi_eval(nan, np.array([1.0, 2.0]))).all()


def test_evaluation_rejects_p_below_one():
    psi = make_power_slowvary(PowerSlowVaryParams(r=1.0))
    with pytest.raises(DomainError):
        psi_eval(psi, 0.5)
    with pytest.raises(DomainError):
        psi_eval(psi, np.array([1.0, 0.99]))


@pytest.mark.parametrize(
    "p", [0.5, np.float64(0.5), np.array(0.5), 0], ids=["float", "numpy_float", "0d_array", "int"]
)
def test_scalar_evaluation_rejects_p_below_one(p):
    # scalars take a float comparison instead of np.any; the check must hold
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0))
    with pytest.raises(DomainError, match="p >= 1"):
        psi_eval(psi, p)


def test_vectorized_matches_scalar_evaluation():
    psi = make_power_slowvary(PowerSlowVaryParams(r=1.5, delta=1.0))
    ps = np.array([1.0, 2.0, 3.7, 50.0, 200.0])
    vec = psi_eval(psi, ps)
    np.testing.assert_allclose(vec, [psi_eval(psi, float(p)) for p in ps], rtol=1e-14)


def test_raw_family_pays_its_value_at_one():
    raw = raw_power_slowvary(PowerSlowVaryParams(r=1.0, delta=2.0))
    assert raw.value_at_one == pytest.approx(math.log(3.0) ** 2, rel=1e-14)
    assert psi_eval(raw, 1.0) == pytest.approx(raw.value_at_one, rel=1e-14)
    # normalized twin divides the slowly varying factor back out
    norm = make_power_slowvary(PowerSlowVaryParams(r=1.0, delta=2.0))
    for p in (1.0, 4.0, 33.0):
        assert psi_eval(raw, p) == pytest.approx(
            psi_eval(norm, p) * raw.value_at_one, rel=1e-12
        )


def test_natural_family_is_the_moment_ratio():
    g = gaussian_model()
    psi = natural_psi(g)
    assert psi_eval(psi, 1.0) == 1.0
    # |f|_2 / |f|_1 = 1 / sqrt(2/pi) for the standard normal
    assert psi_eval(psi, 2.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    assert psi.strictly_increasing
    assert psi.description == "natural(gaussian)"


def test_dip_family_touches_root_p_at_integers():
    dip = sqrt_dip_psi()
    for m in (1, 2, 3, 10, 37):
        assert psi_eval(dip, float(m)) == pytest.approx(math.sqrt(m), rel=1e-12)
    # between integers the oscillation dips below sqrt(p)
    assert psi_eval(dip, 2.5) < math.sqrt(2.5)


def test_validation_detects_the_dip():
    assert not sqrt_dip_psi().strictly_increasing
    assert not psi_validate(sqrt_dip_psi(), p_max=20.0).monotone
    assert psi_validate(make_power_slowvary(PowerSlowVaryParams(r=2.0)), p_max=50.0).monotone


@given(
    r=st.floats(0.3, 5.0),
    delta=st.floats(0.0, 3.0),
    a=st.floats(1.0, 900.0),
    scale=st.floats(1.001, 10.0),
)
def test_family_strictly_increasing_for_nonnegative_delta(r, delta, a, scale):
    psi = make_power_slowvary(PowerSlowVaryParams(r=r, delta=delta))
    assert psi_eval(psi, a * scale) > psi_eval(psi, a)


def test_natural_psi_of_a_small_sample_builds_without_warnings():
    # the strictness probe reaches p = 50, past the stable p = 5 ln n = 41.6
    values = np.random.default_rng(5).standard_normal(4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = natural_psi(EmpiricalModel(values))
    assert psi.strictly_increasing
