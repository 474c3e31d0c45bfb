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
    GroupFunctionModel,
    PowerSlowVaryParams,
    constant_model,
    cyclic_group,
    exponential_model,
    gaussian_model,
    make_power_slowvary,
    natural_psi,
    psi_eval,
    rademacher_model,
    raw_power_slowvary,
    sqrt_dip_psi,
    uniform01_model,
)
from glspace.suites import psi_pool


@pytest.mark.parametrize("r,delta", [(0.5, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 2.5)])
def test_normalized_family_is_one_at_one(r, delta):
    psi = make_power_slowvary(PowerSlowVaryParams(r=r, delta=delta))
    assert psi.value_at_one == 1.0
    assert psi_eval(psi, 1.0) == 1.0


def test_descriptions_round_trip_parameters():
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5))
    assert psi.description == "power_slowvary(r=2, delta=0.5)"


def test_monotone_flag_tracks_delta_sign():
    # delta >= 0: psi is its own envelope, with its chord; delta < 0: no
    # envelope, and nondecreasing is read off the envelope
    up = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5))
    bent = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=-0.5))
    assert up.envelope == (None, True) and up.nondecreasing
    assert bent.envelope is None and not bent.nondecreasing


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
    negative = GeneratingFunction(lambda p: 2.0 - np.asarray(p), "two_minus_p")
    with pytest.raises(DomainError, match=r"^two_minus_p: psi\(p\) = -1 at p=3.0;"):
        psi_eval(negative, 3.0)
    with pytest.raises(DomainError, match=r"^two_minus_p: psi\(p\) = 0 at p=2.0;"):
        psi_eval(negative, np.array([1.0, 2.0, 3.0]))
    # a NaN is the search's to name, with the p it was searching at
    nan = GeneratingFunction(lambda p: np.sqrt(p) * np.nan, "nan")
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
    # a scalar p is checked as a 0-d array; the check must hold
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
    assert psi.envelope == (None, False) and psi.nondecreasing
    assert psi.description == "natural(gaussian)"


def test_dip_family_touches_root_p_at_integers():
    dip = sqrt_dip_psi()
    for m in (1, 2, 3, 10, 37):
        assert psi_eval(dip, float(m)) == pytest.approx(math.sqrt(m), rel=1e-12)
    # between integers the oscillation dips below sqrt(p)
    assert psi_eval(dip, 2.5) < math.sqrt(2.5)


@given(
    r=st.floats(0.3, 5.0),
    delta=st.floats(0.0, 3.0),
    a=st.floats(1.0, 900.0),
    scale=st.floats(1.001, 10.0),
)
def test_family_increases_for_nonnegative_delta(r, delta, a, scale):
    psi = make_power_slowvary(PowerSlowVaryParams(r=r, delta=delta))
    assert psi_eval(psi, a * scale) > psi_eval(psi, a)


def test_natural_psi_of_a_small_sample_builds_without_warnings():
    # building evaluates |f|_1 only, far below the stable p = 5 ln n = 41.6
    values = np.random.default_rng(5).standard_normal(4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = natural_psi(EmpiricalModel(values))
    assert psi.nondecreasing


@given(
    r=st.floats(0.25, 8.0),
    delta=st.floats(-1.0, 2.0),
    raw=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 70), min_size=1, max_size=5),
)
def test_psi_over_concatenated_points_gives_each_slice_its_bits(r, delta, raw, seed, sizes):
    # a search evaluates psi once over the points of several norms; each
    # norm's points keep the bits they get alone, whatever their length
    # and offset (SIMD loops take the tail of an array by a mask)
    make = raw_power_slowvary if raw else make_power_slowvary
    rng = np.random.default_rng(seed)
    slices = [1.0 + 199.0 * rng.random(n) for n in sizes]
    for psi in (make(PowerSlowVaryParams(r=r, delta=delta)), sqrt_dip_psi()):
        whole = psi_eval(psi, np.concatenate(slices))
        alone = np.concatenate([psi_eval(psi, p) for p in slices])
        assert whole.tobytes() == alone.tobytes()


def _shipped_psi() -> list:
    """Every kind of psi the package builds: every power_slowvary(r,
    delta >= 0) of the benchmark's pools (the sandwich and algebra psi
    pool, the norm workload's grid, the tail workload), the algebra
    suite's raw members, members with delta < 0, the natural psi of every
    closed form, of a sample and of a group function, and sqrt_dip."""
    normalized = sorted({(r, d) for r in (0.5, 1.0, 2.0, 3.0, 4.0) for d in (0.0, 0.5, 1.0)} | {(1.5, 0.5), (1.0, 2.0)})
    assert {psi.description for psi in psi_pool()} <= {f"power_slowvary(r={r:g}, delta={d:g})" for r, d in normalized}
    raw = [raw_power_slowvary(PowerSlowVaryParams(r, d)) for r, d in ((1.0, 0.5), (2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (0.5, 1.0))]
    bent = [make(PowerSlowVaryParams(r, d)) for make in (make_power_slowvary, raw_power_slowvary)
            for r, d in ((1.0, -0.5), (3.0, -1.0))]
    sample = EmpiricalModel(1.7 * np.random.default_rng(11).standard_normal(256))
    group = GroupFunctionModel(cyclic_group(64), np.random.default_rng(7).standard_normal(64))
    models = (gaussian_model(), exponential_model(), uniform01_model(), rademacher_model(), constant_model(2.5), sample, group)
    return [*(make_power_slowvary(PowerSlowVaryParams(r, d)) for r, d in normalized), *raw, *bent,
            *(natural_psi(m) for m in models), sqrt_dip_psi()]


SHIPPED = _shipped_psi()


def _envelope_points():
    """Every integer and half-integer of [1, 1e4], then 1e5 seeded points of
    [1, 1e6]."""
    rng = np.random.default_rng(34)
    return np.concatenate([np.arange(2, 20001) / 2.0, rng.uniform(1.0, 1e6, 100_000)])


@pytest.mark.filterwarnings("ignore::glspace.models.MomentInstabilityWarning")
@pytest.mark.parametrize("psi", [psi for psi in SHIPPED if psi.envelope is not None], ids=lambda psi: psi.description)
def test_every_shipped_psi_keeps_its_envelope_promise(psi):
    # the envelope, psi itself or a declared L, is nondecreasing; a declared
    # L is at most psi bit for bit, one point at a time too (a scalar
    # reaches the evaluator as a one-element array); with the chord, the
    # second divided differences of the envelope's log on a dense
    # geometric grid over [1, 1e6] are at most the rounding of the log (a
    # few ulp of its magnitude plus the envelope's own few ulp) over the
    # steps
    L, chord = psi.envelope
    envelope = psi if L is None else L
    p = _envelope_points()
    if L is not None:
        assert (L(p) <= psi_eval(psi, p)).all()
        assert all(L(np.array([x]))[0] <= psi(x) for x in p[:2000].tolist())
    assert (np.diff(envelope(np.sort(p))) >= 0.0).all()
    if chord:
        p = np.geomspace(1.0, 1e6, 4001)
        ell = np.log(envelope(p))
        h = np.diff(p)
        rounding = 8.0 * np.spacing(np.abs(ell).max() + 1.0)
        assert (np.diff(np.diff(ell) / h) <= 4.0 * rounding / h[:-1]).all()


@pytest.mark.parametrize("psi", SHIPPED, ids=lambda psi: psi.description)
def test_value_at_one_is_the_evaluators_value_at_one(psi):
    # computed from the evaluator through psi_eval, with the bits of the
    # evaluator's own value at the float 1.0
    assert psi.value_at_one == float(psi.evaluator(1.0))
    assert type(psi.value_at_one) is float
