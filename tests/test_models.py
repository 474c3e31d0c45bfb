"""Moment backends: closed forms and plug-in samples, cross-checked
against the quadrature twins of the test helper."""

import gzip
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, ndtri

import glspace.models

from glspace import (
    DivergentMomentError,
    DomainError,
    EmpiricalModel,
    EmptyBatchError,
    GroupFunctionModel,
    MomentInstabilityWarning,
    PowerSlowVaryParams,
    RestrictedSet,
    UnsupportedBackendError,
    constant_model,
    cyclic_group,
    empirical_survival,
    exponential_model,
    gaussian_model,
    gls_norm,
    group_lp_norm,
    make_power_slowvary,
    psi_eval,
    rademacher_model,
    sample,
    sqrt_dip_psi,
    uniform01_model,
)
from glspace.models import (
    SAMPLE_CHUNK,
    _ZERO_MIN_VALUES,
    PowerMeanState,
    power_mean,
    power_means,
    read_values,
    _uniform_chunk,
    uniform_stream,
)
from quadrature_models import (
    DensityModel,
    ScaledModel,
    exponential_density_model,
    gaussian_density_model,
    uniform01_density_model,
)


def test_gaussian_moments():
    g = gaussian_model()
    assert g.lp_norm(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert g.lp_norm(2.0) == pytest.approx(1.0, rel=1e-12)
    # E|Z|^4 = 3
    assert g.lp_norm(4.0) == pytest.approx(3.0 ** 0.25, rel=1e-12)


def test_uniform_and_exponential_moments():
    assert uniform01_model().lp_norm(3.0) == pytest.approx(4.0 ** (-1.0 / 3.0), rel=1e-12)
    assert exponential_model().lp_norm(1.0) == pytest.approx(1.0, rel=1e-12)
    assert exponential_model().lp_norm(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def _old_gaussian(p):
    return np.exp(((p / 2.0) * math.log(2.0) + gammaln((np.asarray(p) + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / p)


def _old_exponential(p):
    return np.exp(gammaln(np.asarray(p, dtype=float) + 1.0) / p)


@pytest.mark.parametrize(
    "model, old, asymptote",
    [
        (gaussian_model(), _old_gaussian, lambda p: np.sqrt(p / math.e)),
        (exponential_model(), _old_exponential, lambda p: p / math.e),
    ],
)
def test_closed_form_moments_stay_finite_up_to_the_largest_float(model, old, asymptote):
    # past p ~ 5e305 the log-moment overflows before its division by p,
    # although |f|_p is about sqrt(p / e) (Gaussian) or p / e (exponential)
    ps = np.append(np.geomspace(1e300, 1.7e308, 200), np.finfo(float).max)
    got = model.lp_norm(ps)
    assert np.isfinite(got).all() and (np.diff(got) > 0).all()
    np.testing.assert_allclose(got, asymptote(ps), rtol=1e-12)
    assert [model.lp_norm(p) for p in ps.tolist()] == got.tolist()
    # every moment the old expression kept finite keeps its bits
    with np.errstate(over="ignore"):
        before = old(ps)
    assert np.isinf(before[-1]) and np.isfinite(before[0])
    finite = np.isfinite(before)
    assert got[finite].tolist() == before[finite].tolist()
    ps = np.array([1.0, 1.5, 2.0, 17.25, 200.0, 1e6, 1e300])
    assert model.lp_norm(ps).tolist() == old(ps).tolist()


def test_flat_families():
    assert rademacher_model().lp_norm(17.3) == 1.0
    assert constant_model(-3.0).lp_norm(5.0) == 3.0
    assert constant_model(-3.0).label == "constant:-3"


@pytest.mark.parametrize("c, named", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
def test_a_non_finite_constant_is_rejected_naming_it(c, named):
    # as a non-finite empirical value is: no model whose moments are all inf
    with pytest.raises(DomainError, match=f"constant model: value {named} is not finite"):
        constant_model(c)


def test_moments_reject_p_below_one():
    with pytest.raises(DomainError):
        gaussian_model().lp_norm(0.5)
    with pytest.raises(DomainError):
        uniform01_model().lp_norm(np.array([2.0, 0.3]))


@pytest.mark.parametrize("evaluate, what", [
    (gaussian_model().lp_norm, "moments"),
    (lambda p: psi_eval(sqrt_dip_psi(), p), "generating functions"),
], ids=["moment", "psi"])
def test_a_bad_p_in_a_large_array_is_named_with_its_index(evaluate, what):
    # the whole array in the message was summarized by NumPy, the bad p
    # hidden in its "..."
    p = np.linspace(2.0, 3.0, 3001)
    p[1500] = 0.5
    with pytest.raises(DomainError, match=rf"^{what} are defined for p >= 1, got p=0\.5 at index 1500$"):
        evaluate(p)
    with pytest.raises(DomainError, match=rf"^{what} are defined for p >= 1, got p=nan at index \(1, 0\)$"):
        evaluate(np.array([[2.0, 3.0], [math.nan, 0.5]]))


def test_nan_p_is_rejected_as_p_below_one_is():
    nan = math.nan
    calls = [
        lambda: gaussian_model().lp_norm(nan),
        lambda: gaussian_model().lp_norm(np.float64(nan)),
        lambda: EmpiricalModel([1.0, 2.0]).lp_norm(np.array([2.0, nan])),
        lambda: gaussian_density_model().lp_norm(nan),
        lambda: group_lp_norm(cyclic_group(3), np.ones(3), nan),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"^moments are defined for p >= 1, got .*nan"):
            call()
    with pytest.raises(DomainError, match=r"^generating functions are defined for p >= 1, got nan$"):
        psi_eval(sqrt_dip_psi(), nan)
    with pytest.raises(DomainError, match=r"p_plus is defined for p >= 1"):
        RestrictedSet.full().p_plus(nan)


def test_empty_array_of_p_gives_an_empty_array():
    G = cyclic_group(2)
    for model in (gaussian_model(), EmpiricalModel([1.0, 2.0]), GroupFunctionModel(G, [1.0, 2.0])):
        out = model.lp_norm(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize(
    "make_closed,make_density",
    [
        (gaussian_model, gaussian_density_model),
        (uniform01_model, uniform01_density_model),
        (exponential_model, exponential_density_model),
    ],
)
def test_quadrature_twin_agrees_with_closed_form(make_closed, make_density):
    closed, density = make_closed(), make_density()
    # the default norm window runs to p = 200, where |x|^p alone overflows
    for p in (1.0, 2.0, 3.7, 10.0, 50.0, 80.0, 100.0, 150.0, 200.0):
        assert density.lp_norm(p) == pytest.approx(closed.lp_norm(p), rel=1e-6)


def test_density_norm_over_the_default_window():
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0))
    res = gls_norm(gaussian_density_model(), psi)
    ref = gls_norm(gaussian_model(), psi)
    assert res.value == pytest.approx(ref.value, rel=1e-6)
    assert res.truncation_p_max == 200.0


@pytest.mark.parametrize(
    "factory", [gaussian_model, uniform01_model, exponential_model, rademacher_model]
)
def test_moments_nondecreasing_in_p(factory):
    model = factory()
    rng = np.random.default_rng(42)
    for _ in range(30):
        p = 1.0 + 6.0 * rng.random()
        q = p + 5.0 * rng.random()
        assert model.lp_norm(p) <= model.lp_norm(q) * (1.0 + 1e-12)


def test_heavy_tail_divergence_carries_the_exponent():
    pareto = DensityModel(
        "pareto3", lambda x: 2.0 / x ** 3 if x >= 1.0 else 0.0, (1.0, np.inf)
    )
    assert pareto.lp_norm(1.0) == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(DivergentMomentError) as exc:
        pareto.lp_norm(4.0)
    assert exc.value.p == 4.0


def test_infinite_support_density_cannot_sample():
    with pytest.raises(UnsupportedBackendError):
        gaussian_density_model().sample_values(10, 0)
    vals = uniform01_density_model().sample_values(2000, 1)
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_sampling_is_reproducible():
    a = sample(gaussian_model(), 70_000, seed=3)
    b = sample(gaussian_model(), 70_000, seed=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, sample(gaussian_model(), 70_000, seed=4).values)


def test_chunk_order_cannot_change_the_stream():
    n = 3 * SAMPLE_CHUNK + 123
    natural = uniform_stream(9, n)
    # each chunk is drawn on its own, in shuffled order, and placed by index
    for i in (3, 1, 0, 2):
        start = i * SAMPLE_CHUNK
        count = min(SAMPLE_CHUNK, n - start)
        assert np.array_equal(natural[start : start + count], _uniform_chunk(9, i, np.empty(count)))


def test_shorter_stream_is_a_prefix_of_a_longer_one():
    long = uniform_stream(5, SAMPLE_CHUNK + 50)
    short = uniform_stream(5, SAMPLE_CHUNK + 7)
    assert np.array_equal(long[: SAMPLE_CHUNK + 7], short)


def _integer_formula_stream(seed, n):
    """The stream as (integers(0, 2^53) + 0.5) 2^-53, chunk by chunk: the
    allocating formula the sampler drew with before it filled one array."""
    out = np.empty(n)
    for i, start in enumerate(range(0, n, SAMPLE_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        k = rng.integers(0, 1 << 53, size=min(SAMPLE_CHUNK, n - start), dtype=np.int64)
        out[start : start + k.size] = (k.astype(np.float64) + 0.5) * 2.0**-53
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 3, 11, 12345, 2**63 + 5])
def test_uniform_stream_has_the_bits_of_the_integer_formula(seed):
    for n in (0, 1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 123, 1 << 20):
        assert _same_bits(uniform_stream(seed, n), _integer_formula_stream(seed, n)), n


_STORED = np.random.default_rng(4).standard_normal(1000)


def _bootstrap(u):
    return _STORED[np.minimum((u * _STORED.size).astype(np.int64), _STORED.size - 1)]


# each sampler beside the allocating expression it replaced, applied to the
# uniforms of the integer formula
_ALLOCATING_SAMPLERS = [
    (gaussian_model(), ndtri),
    (uniform01_model(), lambda u: u),
    (exponential_model(), lambda u: -np.log1p(-u)),
    (constant_model(-2.5), lambda u: np.full_like(u, -2.5)),
    (constant_model(-0.0), lambda u: np.full_like(u, -0.0)),
    (rademacher_model(), lambda u: np.where(u < 0.5, -1.0, 1.0)),
    (EmpiricalModel(_STORED), _bootstrap),
    (ScaledModel(gaussian_model(), -2.0), lambda u: -2.0 * ndtri(u)),
    (ScaledModel(exponential_model(), 0.3), lambda u: 0.3 * -np.log1p(-u)),
    (ScaledModel(EmpiricalModel(_STORED), 1.7), lambda u: 1.7 * _bootstrap(u)),
]


@pytest.mark.parametrize("model, allocating", [pytest.param(*pair, id=pair[0].label) for pair in _ALLOCATING_SAMPLERS])
@pytest.mark.parametrize("seed", [3, 12345])
def test_in_place_samplers_keep_the_allocating_bits(model, allocating, seed):
    n = 3 * SAMPLE_CHUNK + 123
    assert _same_bits(model.sample_values(n, seed), allocating(_integer_formula_stream(seed, n)))


def test_bootstrap_index_that_rounds_up_to_the_size_takes_the_last_value(monkeypatch):
    # (1 - 2^-53) * 3 rounds to 3, one past the last index
    u = np.array([2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0])
    monkeypatch.setattr(glspace.models, "uniform_stream", lambda seed, n: u.copy())
    assert EmpiricalModel([10.0, 20.0, 30.0]).sample_values(4, 0).tolist() == [10.0, 20.0, 30.0, 30.0]


class _TopAndBottomDraws:
    """A stand-in for a chunk's Generator whose random() gives k 2^-53 for
    the largest k, 2^53 - 1, and the smallest, 0."""

    def random(self, out):
        out[:] = [1.0 - 2.0**-53, 0.0]
        return out


def test_the_top_draw_is_u_one_and_the_gaussian_and_exponential_samples_are_inf_there(monkeypatch):
    # kept as it is, and documented (uniform_stream, sample): one draw in
    # 2^53 is u = 1.0, since k + 1/2 rounds to even past 2^52
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _TopAndBottomDraws())
    assert _uniform_chunk(0, 0, np.empty(2)).tolist() == [1.0, 2.0**-54]
    gauss = sample(gaussian_model(), 2, 0)
    assert gauss.values[0] == math.inf and gauss.values[1] == ndtri(2.0**-54)
    # +inf with no warning, so that python -W error samples on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expo = sample(exponential_model(), 2, 0)
    assert expo.values[0] == math.inf and expo.values[1] == -math.log1p(-(2.0**-54))
    # the draw lies above every finite probe, and is no value of a sample
    assert empirical_survival(gauss, 1e300) == 0.5
    with pytest.raises(DomainError, match="^empirical: value inf at index 0 is not finite$"):
        EmpiricalModel(gauss.values)
    # the bootstrap maps u = 1.0 to its last value
    assert EmpiricalModel([10.0, 20.0]).sample_values(2, 0).tolist() == [20.0, 10.0]


@pytest.mark.parametrize(
    "factory", [gaussian_model, exponential_model, pytest.param(lambda: EmpiricalModel(_STORED), id="bootstrap")]
)
def test_sample_allocates_its_output_and_at_most_one_chunk_beside_it(factory):
    # the bootstrap gathers block by block, so its int64 indices stay small
    model = factory()
    n = 1 << 20
    tracemalloc.start()
    try:
        sample(model, n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n + SAMPLE_CHUNK)


def test_empirical_plugin_moments():
    m = EmpiricalModel([3.0, 4.0])
    assert m.lp_norm(1.0) == pytest.approx(3.5, rel=1e-15)
    assert m.lp_norm(2.0) == pytest.approx(math.sqrt(12.5), rel=1e-14)


def test_plugin_warns_when_p_outruns_the_sample():
    m = EmpiricalModel(np.arange(1.0, 101.0))
    with pytest.warns(MomentInstabilityWarning):
        m.lp_norm(30.0)


def test_array_call_warns_once_naming_the_largest_p():
    m = EmpiricalModel(np.arange(1.0, 101.0))
    with pytest.warns(MomentInstabilityWarning) as record:
        m.lp_norm(np.geomspace(1.0, 200.0, 512))
    assert len(record) == 1
    assert "p=200 " in str(record[0].message)


@pytest.mark.parametrize(
    "n,n_p",
    [
        (1, 512),
        (5, 512),
        (256, 512),
        (1 << 16, 512),  # 4 p per chunk, 128 chunks
        ((1 << 18) + 3, 16),  # one p per chunk
    ],
)
def test_power_mean_array_matches_scalar(n, n_p):
    a = np.abs(np.random.default_rng(n).normal(size=n))
    ps = np.geomspace(1.0, 200.0, n_p)
    ps[-1] = math.inf
    expect = np.array([power_mean(a, float(p)) for p in ps])
    got = power_mean(a, ps)
    assert got.shape == ps.shape
    # same sum, division and libm root on both paths: the same bits
    np.testing.assert_array_equal(got, expect)
    assert got[-1] == a.max()
    two_d = power_mean(a, ps[:-2].reshape(2, -1))
    np.testing.assert_array_equal(two_d.ravel(), got[:-2])


@pytest.mark.parametrize("seed", [11, 30])
def test_p_2_has_the_same_bits_in_any_array(seed):
    # NumPy squares where the exponent 2 reaches its loop as a scalar and
    # takes pow where it buffers the exponents: on AVX-512 loops, for these
    # two 64-value samples, p = 2 among three or more p differed from p = 2
    # alone in the last place
    values = np.abs(np.random.default_rng(seed).normal(size=64))
    state = PowerMeanState.of(values)
    alone = power_mean(state, 2.0)
    for ps in ([2.0, 3.0, 5.0], [1.5, 2.0, 2.0, 7.0], [2.0] * 40, [2.0, 3.0]):
        assert power_mean(state, np.array(ps))[ps.index(2.0)] == alone, ps
    assert alone == _plain_power_mean(values, 2.0)


def _plain_power_mean(values, p):
    """power_mean with every term passed to pow, against an array of
    exponents (so that NumPy never squares): scalar p and one chunk of
    array p, as the kernel computed them before it skipped zero terms."""
    mx = float(values.max())
    scaled = values / mx
    if isinstance(p, float):
        return mx * float(np.add.reduce(scaled ** np.full(scaled.size, p)) / scaled.size) ** (1.0 / p)
    terms = np.array([scaled ** np.full(scaled.size, q) for q in p.tolist()])
    return mx * np.float_power(np.add.reduce(terms, axis=1) / scaled.size, 1.0 / p)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(_ZERO_MIN_VALUES, 600),
    scale=st.floats(1e-3, 1e3),
    p=st.floats(1.0, 1e4),
    ps=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=24),
)
def test_skipping_zero_terms_keeps_the_power_mean_bits(seed, n, scale, p, ps):
    # values 10^e for e uniform in [-300, 0], a tenth of them exact zeros
    rng = np.random.default_rng(seed)
    decades = np.where(rng.random(n) < 0.1, -np.inf, rng.uniform(-300.0, 0.0, n))
    values = scale * np.r_[1.0, 10.0**decades]
    assert PowerMeanState.of(values).zero_p < 2.0
    assert power_mean(values, p) == _plain_power_mean(values, p)
    ps = np.array(ps)
    np.testing.assert_array_equal(power_mean(values, ps), _plain_power_mean(values, ps))


@given(binades=st.lists(st.floats(-1074.0, -550.0), min_size=1, max_size=100), zeros=st.integers(0, 3))
def test_squares_below_the_cut_are_skipped_with_the_same_bits(binades, zeros):
    # the smallest value is below 2^-550, so p = 2 is past zero_p; its
    # terms go through pow, never NumPy's square, on both routes
    small = np.resize(2.0 ** np.array(binades), _ZERO_MIN_VALUES)
    values = np.r_[1.0, np.zeros(zeros), small, 2.0**-549]
    assert PowerMeanState.of(values).zero_p < 2.0
    assert power_mean(values, 2.0) == _plain_power_mean(values, 2.0)
    np.testing.assert_array_equal(power_mean(values, np.array([2.0, 2.0, 3.0])),
                                  _plain_power_mean(values, np.array([2.0, 2.0, 3.0])))


def test_zero_p_is_where_an_eighth_of_the_positive_terms_drop_below_the_cut():
    # 2^0 .. 2^-127: the 17th smallest of 128 is 2^-111
    assert PowerMeanState.of(2.0 ** -np.arange(128.0)).zero_p == 1100.0 / 111.0
    values = np.r_[np.zeros(_ZERO_MIN_VALUES), 2.0**-551, 1.0]
    assert PowerMeanState.of(values).zero_p == 1100.0 / 551.0
    assert PowerMeanState.of(np.full(_ZERO_MIN_VALUES, 3.0)).zero_p == math.inf
    assert PowerMeanState.of(np.zeros(4)) == (0.0, None, math.inf)
    # fewer values never skip: the mask costs more than the pow it saves
    assert PowerMeanState.of(values[-_ZERO_MIN_VALUES + 1 :]).zero_p == math.inf
    # a normal sample of 2^16 values crosses it inside a geometric grid's
    # range: the grids geometric:D=2:M=12 and D=3:M=8 reach p = 4095, 6559
    a = np.abs(np.random.default_rng(4).normal(size=1 << 16))
    state = PowerMeanState.of(a)
    assert 20.0 < state.zero_p < 1000.0
    ps = np.array([1.0, 3.0, 7.0, 79.0, 1023.0, 4095.0, 6559.0, math.inf])
    np.testing.assert_array_equal(power_mean(state, ps), [power_mean(a, float(p)) for p in ps])
    np.testing.assert_array_equal(power_mean(state, ps[:-1]), _plain_power_mean(a, ps[:-1]))


def test_power_mean_chunks_its_temporary():
    a = np.random.default_rng(0).random(1 << 16)
    tracemalloc.start()
    try:
        power_mean(a, np.geomspace(1.0, 200.0, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unchunked 512 x 2^16 temporary alone would be 256 MiB
    assert peak < 8 * 2**20


def test_power_means_holds_one_512_kib_chunk_of_powers_at_a_time():
    # nine p on 2^16 values: a row of powers is 512 KiB, and a chunk is
    # one row; two such chunks alive at once is the most allowed (2 MiB
    # chunks, each allocated before the last was freed, peaked at 4,098 KiB)
    a = np.abs(np.random.default_rng(1).normal(size=1 << 16))
    state = PowerMeanState.of(a)
    ps = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0])
    tracemalloc.start()
    try:
        power_means([state], ps, (0, ps.size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * a.size + 4096


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 1200), st.sampled_from([(1 << 16) - 1, (1 << 16) + 5])),
    tiny=st.booleans(),
    ps=st.lists(st.one_of(st.floats(1.0, 1e4), st.just(2.0), st.just(math.inf)), min_size=1, max_size=40),
    at=st.integers(0, 40),
)
@settings(max_examples=30)
# the two 64-value samples of test_p_2_has_the_same_bits_in_any_array
@example(seed=11, n=64, tiny=False, ps=[3.0, 5.0], at=0)
@example(seed=30, n=64, tiny=False, ps=[3.0, 5.0], at=0)
def test_power_means_bits_do_not_depend_on_the_chunk_bound(seed, n, tiny, ps, at):
    # p = 2 is always among the p: NumPy squares it where the exponent
    # reaches its loop as one scalar (a chunk of one p, as under a bound
    # of 1) and takes pow where it buffers the exponents; tiny values make
    # the large p skip the terms that underflow
    rng = np.random.default_rng(seed)
    values = np.abs(rng.normal(size=n))
    if tiny:
        values *= 10.0 ** rng.uniform(-300.0, 0.0, n)
    ps.insert(at % (len(ps) + 1), 2.0)
    qs = np.array(ps)
    states = [PowerMeanState.of(values), PowerMeanState.of(values[: max(1, n // 3)])]
    bits = []
    for block in (1, 1 << 16, 1 << 18):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glspace.models, "_POWER_MEAN_BLOCK", block)
            bits.append(power_means(states, np.r_[qs, qs[::-1]], (0, qs.size, 2 * qs.size)).tobytes())
    assert bits[0] == bits[1] == bits[2]


def test_zero_sample_has_zero_norm():
    assert EmpiricalModel(np.zeros(8)).lp_norm(2.0) == 0.0
    assert np.array_equal(power_mean(np.zeros(8), np.array([1.0, 3.0, math.inf])), np.zeros(3))


def test_power_mean_rejects_p_below_one():
    with pytest.raises(DomainError):
        power_mean(np.ones(3), 0.5)
    with pytest.raises(DomainError):
        EmpiricalModel([1.0, 2.0]).lp_norm(np.array([2.0, 0.9]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_rejects_non_finite_values(bad):
    with pytest.raises(DomainError, match=rf"value {bad!r} at index 2"):
        EmpiricalModel([1.0, 2.0, bad, 4.0])


def test_empirical_rejects_empty_input():
    with pytest.raises(EmptyBatchError):
        EmpiricalModel([])


def test_from_file_parses_each_token_as_float_does(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
    tokens = list(map(repr, x.tolist())) + ["-0", "+7", ".5", "1_000", "4.9e-324", "1e-330", "1E5"]
    path = tmp_path / "x.txt"
    path.write_text("\n".join(tokens) + "\n")
    values = EmpiricalModel.from_file(path).values
    np.testing.assert_array_equal(values.view(np.int64), np.array([float(t) for t in tokens]).view(np.int64))


def test_from_file_keeps_floats_error_text(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("1.0\n0x1p3\n2.0\n")
    with pytest.raises(ValueError, match=r"^could not convert string to float: '0x1p3'$"):
        EmpiricalModel.from_file(path)


def _outcome(parse):
    """The bits of the array ``parse()`` returns, or the type and message of
    what it raised."""
    try:
        return parse().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TOKENS = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda x: "%.18e" % x),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_000", "١", "0x1p3", "nan", "-inf", "inf", "1e", "--1", "abc", '"2"', "1,5", "1e400"]),
)
_SEPARATORS = st.sampled_from([" ", "\t", "\x0b", "\x1c", "\xa0", "　"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\n\n", "\r"])


@st.composite
def _sample_text(draw):
    """A sample file's text: one token a line, several a line, ragged lines,
    blank lines, odd separators and line ends, empty or whitespace only."""
    layout = draw(st.sampled_from(["one", "rows", "ragged", "empty", "blank"]))
    if layout == "empty":
        return ""
    if layout == "blank":
        return "".join(draw(st.lists(st.one_of(_SEPARATORS, _LINE_ENDS), max_size=6)))
    count = draw(st.integers(1, 12)) if layout == "one" else None
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(count or draw(st.integers(1, 5))):
        n = 1 if layout == "one" else width if layout == "rows" else draw(st.integers(1, 4))
        sep = draw(_SEPARATORS)
        lines.append(sep.join(draw(st.lists(_TOKENS, min_size=n, max_size=n))))
    end = draw(_LINE_ENDS)
    return end.join(lines) + draw(st.sampled_from(["", end]))


@given(text=_sample_text())
def test_read_values_gives_the_token_parsers_bits_or_its_error(tmp_path_factory, text):
    # loadtxt's path and the token parser's: the same bits or the same
    # error, and no warning (filterwarnings = error), also on a file
    # without a token
    path = tmp_path_factory.mktemp("sample") / "x.txt"
    path.write_text(text, newline="")
    assert _outcome(lambda: read_values(path)) == _outcome(lambda: np.array(text.split(), dtype=float))


def _token_parser(path):
    return np.array(path.read_text().split(), dtype=float)


def test_read_values_keeps_the_errors_of_a_missing_file_and_a_directory(tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        kept = _outcome(lambda: read_values(path))
        assert issubclass(kept[0], OSError) and kept == _outcome(lambda: _token_parser(path))


def test_read_values_does_not_decompress(tmp_path):
    # loadtxt opens a .gz path through gzip; the token parser reads the
    # compressed bytes as text
    packed = tmp_path / "x.gz"
    packed.write_bytes(gzip.compress(b"1.5\n2.5\n"))
    assert np.loadtxt(packed).tolist() == [1.5, 2.5]
    assert _outcome(lambda: read_values(packed)) == _outcome(lambda: _token_parser(packed))
    plain = tmp_path / "y.gz"
    plain.write_text("1.5 2.5\n")
    assert read_values(plain).tolist() == [1.5, 2.5]


def _loadtxt_rows_reference(path):
    """models._loadtxt_rows as first written, with full-size masks."""
    if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):
        return 0
    data = path.read_bytes()
    if not (data.isascii() and glspace.models._TOKEN_BYTE.search(data)):
        return 0
    chars = np.frombuffer(data, dtype=np.uint8)
    ends = chars == ord("\n")
    after_space = chars[:-1] <= ord(" ")
    after_space &= ends[1:]
    if b"\r" in data or ends[0] or after_space.any() or not (ends[-1] or chars[-1] > ord(" ")):
        return None
    return int(np.count_nonzero(ends)) + 1


_FILE_BYTES = st.one_of(
    st.binary(max_size=40),
    # ASCII, mostly tokens and line ends, so that most files pass the
    # first tests and the line ends decide
    st.lists(
        st.sampled_from([b"1", b"-2.5", b"e", b"7", b"\n", b"\n", b"\n", b" ", b"\t", b"\r", b"\x0b", b"\x00", b"!"]),
        max_size=30,
    ).map(b"".join),
    _sample_text().map(str.encode),
)


@settings(max_examples=300)
@given(data=_FILE_BYTES, chunk=st.sampled_from([1, 2, 3, 5, glspace.models._ROWS_CHUNK]))
def test_loadtxt_rows_reads_a_file_as_full_size_masks_do(tmp_path_factory, data, chunk):
    # chunks of a few bytes, so that line ends and the bytes before them
    # fall on every side of a chunk's edge
    path = tmp_path_factory.mktemp("rows") / "x.txt"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(glspace.models, "_ROWS_CHUNK", chunk)
        got = glspace.models._loadtxt_rows(path)
    expected = _loadtxt_rows_reference(path)
    assert (type(got), got) == (type(expected), expected)


def test_scaling_is_exact_homogeneity():
    g = gaussian_model()
    s = ScaledModel(g, -2.0)
    assert s.lp_norm(3.0) == 2.0 * g.lp_norm(3.0)
    assert np.array_equal(s.sample_values(100, 7), -2.0 * g.sample_values(100, 7))
    assert s.label == "gaussian*-2"


def test_empirical_survival_matches_the_normal_tail():
    batch = sample(gaussian_model(), 200_000, seed=11)
    # P(|Z| >= 1) = 0.31731...
    assert empirical_survival(batch, 1.0) == pytest.approx(0.31731, abs=5e-3)
    assert empirical_survival(batch, 0.0) == 1.0


def test_empirical_survival_of_an_array_counts_like_each_point():
    batch = sample(exponential_model(), 50_000, seed=2)
    xs = np.concatenate([[0.0, -1.0, np.inf], np.abs(batch.values[:20]), np.linspace(0.0, 8.0, 41)])
    want = [np.count_nonzero(np.abs(batch.values) >= x) / batch.size for x in xs]
    got = empirical_survival(batch, xs)
    assert got.shape == xs.shape and got.tolist() == want
    assert [empirical_survival(batch, float(x)) for x in xs] == want


def test_empty_batch_has_no_survival():
    with pytest.raises(EmptyBatchError):
        empirical_survival(sample(gaussian_model(), 0, seed=0), 1.0)


def test_negative_sample_size_rejected():
    with pytest.raises(DomainError):
        sample(gaussian_model(), -1, seed=0)


@pytest.mark.parametrize("model", [gaussian_model(), EmpiricalModel([1.0, -2.0, 3.0]), constant_model(2.0)],
                         ids=lambda m: m.label)
def test_negative_seed_rejected(model):
    with pytest.raises(DomainError, match=r"^seed must be a nonnegative integer, got -1$"):
        sample(model, 10, -1)


def test_negative_seed_rejected_for_an_empty_sample():
    # n = 0 draws nothing, but the seed is checked as for n = 10
    with pytest.raises(DomainError, match=r"^seed must be a nonnegative integer, got -1$"):
        sample(gaussian_model(), 0, -1)
    assert sample(gaussian_model(), 0, 0).size == 0
