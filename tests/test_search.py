"""Supremum search: speculative and lockstep refinement, batched cells,
evaluation accounting."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from glspace import (
    DivergentMomentError,
    DomainError,
    EmpiricalModel,
    GeneratingFunction,
    GroupFunctionModel,
    MomentInstabilityWarning,
    PowerSlowVaryParams,
    RestrictedSet,
    constant_model,
    cyclic_group,
    dihedral_group,
    exponential_model,
    gaussian_model,
    gls_norm,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    psi_eval,
    rademacher_model,
    raw_power_slowvary,
    sqrt_dip_psi,
    symmetric_group,
    uniform01_model,
    w_hat_constant,
)
from glspace.norms import _PRUNE_MIN_VALUES, _cellwise_full_norm, _ratio_fn
from glspace.suites import psi_pool
from glspace import norms, search
from glspace.search import SCALAR_BRACKETS, _golden_lockstep, golden_section_max, grid_refine_supremum, sup_rows


def test_scalar_only_function_is_rejected():
    with pytest.raises(ValueError, match="must accept arrays"):
        grid_refine_supremum(lambda p: 1.0, 1.0, 2.0)


def _tri(x):
    return np.abs(np.mod(x, 2.0) - 1.0)


def _multi_peak(x):
    """Peaks, flat steps (exact ties) and monotone stretches; only exactly
    rounded operations, so a point gives the same bits alone or in an array."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 10.0, np.floor(6.0 * _tri(x)) / 6.0, _tri(1.7 * x) * (1.0 + 0.01 * x))


def _counted(f):
    """``f`` and a one-element list that counts the points it is asked for."""
    seen = [0]

    def counted(p):
        seen[0] += np.size(p)
        return f(p)

    return counted, seen


def _rowless(f):
    """``f`` as sup_rows calls it, with the scan-row index, which it ignores."""
    return lambda x, row: f(x)


def _ratio(model, psi):
    """p -> |f|_p / psi(p), the quotient of the norm's (numerator,
    denominator) pair."""
    pair = _ratio_fn(model, psi)

    def ratio(p):
        num, den = pair(p)
        return num / den

    return ratio


def test_n_evaluations_counts_every_refinement_call(monkeypatch):
    counted, seen = _counted(_multi_peak)
    res = grid_refine_supremum(counted, 1.0, 200.0)
    # the peaks past p = 10 are refined; the flat steps below it are not
    assert seen[0] > 512
    assert res.value == float(_multi_peak(res.arg)) > 2.0
    # a norm counts every point of its scan and of its refinement, as a
    # wrapper around its ratio sees them
    counts = []

    def counted_ratio_fn(model, psi):
        counted, seen = _counted(_ratio_fn(model, psi))
        counts.append(seen)
        return counted

    monkeypatch.setattr(norms, "_ratio_fn", counted_ratio_fn)
    res = gls_norm(gaussian_model(), sqrt_dip_psi())
    assert res.n_evaluations == counts[0][0] > 512


@pytest.mark.parametrize("lo, hi", [(1.0, 200.0), (3.5, 4.0), (2.0, 2.1), (10.5, 10.5000001)])
def test_known_bracket_ends_save_two_calls_with_the_same_result(lo, hi):
    plain, plain_seen = _counted(lambda x: float(_multi_peak(x)))
    given, given_seen = _counted(lambda x: float(_multi_peak(x)))
    ref = golden_section_max(plain, lo, hi)
    got = golden_section_max(given, lo, hi, f_lo=float(_multi_peak(lo)), f_hi=float(_multi_peak(hi)))
    assert got == ref
    assert given_seen[0] == plain_seen[0] - 2


def test_lockstep_matches_golden_section_bit_for_bit():
    rng = np.random.default_rng(20240611)
    lo = rng.uniform(1.0, 20.0, 240)
    hi = lo + 10.0 ** rng.uniform(-4.0, 0.7, lo.size)
    # brackets that sit on a flat step, and ones ending exactly on a peak
    lo[:20], hi[:20] = 2.0 + 0.01 * np.arange(20), 2.1 + 0.01 * np.arange(20)
    lo[20:40], hi[20:40] = 3.5 + 0.01 * np.arange(20), 4.0
    for tol in (1e-10, 1e-12):
        lock_f, n_eval = _counted(_multi_peak)
        rows = np.arange(lo.size)
        args, vals = _golden_lockstep(_rowless(lock_f), lo, _multi_peak(lo), hi, _multi_peak(hi), tol, rows)
        calls = [0]

        def scalar_f(x):
            calls[0] += 1
            return float(_multi_peak(x))

        for k in range(lo.size):
            arg, val = golden_section_max(scalar_f, lo[k], hi[k], tol=tol)
            assert (args[k], vals[k]) == (arg, val), k
        # same points, except the bracket ends the lockstep path already knew
        assert n_eval[0] == calls[0] - 2 * lo.size
    # the cases the brackets were built to hit
    assert np.any(args[:20] == lo[:20]) and np.any(args[20:40] == hi[20:40])


def _cells(q):
    return zip(q.values[:-1].tolist(), q.values[1:].tolist())


def test_cellwise_norm_equals_a_per_cell_search():
    model, psi, q = gaussian_model(), sqrt_dip_psi(), integer_grid(256)
    ratio, n_eval = _counted(_ratio(model, psi))
    best_val, best_arg = -np.inf, np.inf
    for a, b in _cells(q):
        res = grid_refine_supremum(ratio, a, b, n_points=64, geometric=False)
        if res.value > best_val or (res.value == best_val and res.arg < best_arg):
            best_val, best_arg = res.value, res.arg
    batched = _cellwise_full_norm(model, psi, q)
    assert (batched.value, batched.arg_p) == (best_val, best_arg)
    assert batched.decreasing_at_hi == res.decreasing_at_hi
    # the same points are searched; the per-cell loop re-evaluates bracket ends
    assert batched.n_evaluations <= n_eval[0]


def test_w_hat_equals_a_per_cell_minimum():
    psi, q = sqrt_dip_psi(), integer_grid(256)
    ratios = []
    for a, b in _cells(q):
        xs = np.linspace(a, b, 256)
        ys = psi_eval(psi, xs)
        mn = float(ys.min())
        for i in range(xs.size):
            if (i == 0 or ys[i] <= ys[i - 1]) and (i == xs.size - 1 or ys[i] <= ys[i + 1]):
                bl, bh = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
                if bh > bl:
                    _, v = golden_section_max(lambda x: -psi_eval(psi, x), bl, bh, tol=1e-12)
                    mn = min(mn, -v)
        ratios.append(psi_eval(psi, b) / mn)
    const = w_hat_constant(q, psi)
    k = int(np.argmax(ratios))
    assert (const.value, const.arg, const.tail_ratio) == (ratios[k], k + 1.0, ratios[-1])


def test_flat_ratio_refines_in_few_array_calls():
    model = constant_model(3.0)
    ratio = _ratio(model, natural_psi(model))
    calls, points = [0], [0]

    def counted(p):
        calls[0] += 1
        points[0] += np.size(p)
        return ratio(p)

    res = grid_refine_supremum(counted, 1.0, 200.0)
    assert (res.value, res.arg) == (3.0, 1.0)
    # every scan point is a plateau: the scan is the only call
    assert points[0] == 512
    assert calls[0] == 1


def _one_peak_per_row(k):
    """k scan rows over [j, j + 0.75], j = 1..k, and an f whose one peak in
    each row sits at j + 0.3."""
    xs = np.linspace(np.arange(1.0, k + 1), np.arange(1.75, k + 1), 33, axis=1)
    return xs, lambda x: -((np.mod(x, 1.0) - 0.3) ** 2)


def _routed(monkeypatch, k):
    """sup_rows on k brackets; returns (result, array calls of f, calls of
    golden_section_max)."""
    xs, f = _one_peak_per_row(k)
    array_calls, golden_calls = [0], [0]

    def counted_f(x):
        array_calls[0] += np.ndim(x) > 0
        return f(x)

    def counted_golden(*args, **kw):
        golden_calls[0] += 1
        return golden_section_max(*args, **kw)

    monkeypatch.setattr(search, "golden_section_max", counted_golden)
    return sup_rows(_rowless(counted_f), xs), array_calls[0], golden_calls[0]


@pytest.mark.parametrize("k", [2, 3, 4, 8, SCALAR_BRACKETS])
def test_few_brackets_refine_one_by_one(monkeypatch, k):
    # each bracket keeps its own golden-section state; they all speculate
    # together, one array call of f per round
    assert k <= SCALAR_BRACKETS
    res, array_calls, golden_calls = _routed(monkeypatch, k)
    # a parabolic peak is guessed right: the scan and one round
    assert (array_calls, golden_calls) == (2, 0)
    np.testing.assert_allclose(res.args, np.arange(1, k + 1) + 0.3, atol=1e-6)
    # the lockstep path gives the same bits
    monkeypatch.setattr(search, "SCALAR_BRACKETS", 0)
    lock, array_calls, golden_calls = _routed(monkeypatch, k)
    assert golden_calls == 0 and array_calls > 10
    np.testing.assert_array_equal(lock.values, res.values)
    np.testing.assert_array_equal(lock.args, res.args)
    # and so does golden_section_max, one bracket and one point at a time
    xs, f = _one_peak_per_row(k)
    seq = sup_rows(_rowless(f), xs, speculate=False)
    np.testing.assert_array_equal(seq.values, res.values)
    np.testing.assert_array_equal(seq.args, res.args)


@pytest.mark.parametrize("k", [SCALAR_BRACKETS + 1, 2 * SCALAR_BRACKETS])
def test_many_brackets_go_lockstep(monkeypatch, k):
    res, array_calls, golden_calls = _routed(monkeypatch, k)
    assert golden_calls == 0
    # the scan plus one call per lockstep iteration
    assert 10 < array_calls < 100
    np.testing.assert_allclose(res.args, np.arange(1, k + 1) + 0.3, atol=1e-6)
    # speculation gives the same bits
    monkeypatch.setattr(search, "SCALAR_BRACKETS", k)
    spec, array_calls, golden_calls = _routed(monkeypatch, k)
    assert (array_calls, golden_calls) == (2, 0)
    np.testing.assert_array_equal(spec.values, res.values)
    np.testing.assert_array_equal(spec.args, res.args)


# every psi the suites draw (the normalized pool and the algebra suite's raw
# members) and sqrt_dip, whose dips make interior peaks
_SPEC_PSIS = [
    *psi_pool(),
    *(raw_power_slowvary(PowerSlowVaryParams(r, d)) for r, d in [(1.0, 0.5), (2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (0.5, 1.0)]),
    sqrt_dip_psi(),
]
_SPEC_MODELS = [
    gaussian_model(),
    uniform01_model(),
    exponential_model(),
    rademacher_model(),
    constant_model(2.5),
    *(GroupFunctionModel(G, np.random.default_rng(G.order).normal(size=G.order))
      for G in (cyclic_group(5), dihedral_group(4), symmetric_group(3))),
]
_DENSE = np.geomspace(1.0, 200.0, 4097)


@functools.cache
def _dense_ratio(m: int, k: int):
    """The ratio of _SPEC_MODELS[m] over _SPEC_PSIS[k], and the indices of
    _DENSE where it has a strict interior maximum, or is strictly monotone
    over the two neighbours on either side."""
    f = _ratio(_SPEC_MODELS[m], _SPEC_PSIS[k])
    ys = f(_DENSE)
    d = np.sign(np.diff(ys))
    peaks = np.flatnonzero((d[:-1] > 0) & (d[1:] < 0)) + 1
    steady = np.flatnonzero((d[:-3] == d[1:-2]) & (d[1:-2] == d[2:-1]) & (d[2:-1] == d[3:]) & (d[1:-2] != 0)) + 2
    return f, peaks, steady


@st.composite
def _spec_search(draw):
    """A ratio of a closed-form or group model over a psi, one scan row
    around an interior maximum or on a monotone stretch (a row-end peak),
    and which of the two."""
    kind = draw(st.sampled_from(["interior", "end"]))
    m = draw(st.integers(0, len(_SPEC_MODELS) - 1))
    k = draw(st.integers(0, len(_SPEC_PSIS) - 1))
    f, peaks, steady = _dense_ratio(m, k)
    at = peaks if kind == "interior" else steady
    assume(at.size)
    j = draw(st.sampled_from(at.tolist()))
    xs = np.geomspace(_DENSE[j - 1], _DENSE[j + 1], draw(st.sampled_from([5, 9, 17, 33])))
    xs[0], xs[-1] = _DENSE[j - 1], _DENSE[j + 1]
    return f, xs[None, :], kind


def _peak_kinds(f, xs):
    """The kinds, 'end' or 'interior', of the scan peaks of the row."""
    ys = f(xs[0])
    n = ys.size
    return {
        "end" if i in (0, n - 1) else "interior"
        for i in range(n)
        if (i == 0 or ys[i] >= ys[i - 1]) and (i == n - 1 or ys[i] >= ys[i + 1])
    }


@given(search_case=_spec_search())
def test_speculation_has_the_bits_of_the_one_point_search(search_case):
    f, xs, kind = search_case
    assert kind in _peak_kinds(f, xs)
    spec = sup_rows(_rowless(f), xs)
    seq = sup_rows(_rowless(f), xs, speculate=False)
    assert (spec.values[0].hex(), spec.args[0].hex()) == (seq.values[0].hex(), seq.args[0].hex())


def _always_wrong(monkeypatch, f):
    """Make every guessed decision the wrong one for the scalar ``f``."""
    monkeypatch.setattr(search, "_guess_left", lambda x1, x2, target: not (f(x1) >= f(x2)))


def _multi_peak_case():
    """Rows over the peaks of _multi_peak past p = 10, and its scalar twin."""
    xs = np.linspace(np.array([10.3, 11.5, 13.0]), np.array([11.0, 12.6, 13.9]), 17, axis=1)
    return xs, lambda x: float(_multi_peak(x))


def test_an_always_wrong_guess_keeps_the_bits(monkeypatch):
    xs, scalar = _multi_peak_case()
    seq = sup_rows(_rowless(_multi_peak), xs, speculate=False)
    _always_wrong(monkeypatch, scalar)
    f, calls = _counted(_multi_peak)
    spec = sup_rows(_rowless(f), xs)
    np.testing.assert_array_equal(spec.values, seq.values)
    np.testing.assert_array_equal(spec.args, seq.args)
    assert calls[0] > xs.size + 3 * 40


def _true_path(xs):
    """The points the one-point search evaluates: the scan and every
    golden_section_max call's."""
    seen = set(xs.ravel().tolist())

    def recorded(x):
        if np.ndim(x) == 0:
            seen.add(float(x))
        return _multi_peak(x)

    sup_rows(_rowless(recorded), xs, speculate=False)
    return seen


def _nan_or_raise(how, bad):
    """_multi_peak, NaN at or raising on the points where ``bad`` holds."""

    def f(x):
        x = np.asarray(x, dtype=float)
        hit = np.vectorize(bad, otypes=[bool])(x)
        if hit.any() and how != "nan":
            p = float(x[hit][0]) if x.ndim else float(x)
            raise DivergentMomentError(p) if how == "divergent" else DomainError(f"no value at p={p!r}")
        return np.where(hit, np.nan, _multi_peak(x))

    return f


@pytest.mark.parametrize("how", ["nan", "divergent", "domain"])
def test_an_error_only_off_the_true_path_gives_the_one_point_result(monkeypatch, how):
    xs, scalar = _multi_peak_case()
    seq = sup_rows(_rowless(_multi_peak), xs, speculate=False)
    true_path = _true_path(xs)
    _always_wrong(monkeypatch, scalar)
    spec = sup_rows(_rowless(_nan_or_raise(how, lambda x: x not in true_path)), xs)
    np.testing.assert_array_equal(spec.values, seq.values)
    np.testing.assert_array_equal(spec.args, seq.args)


@pytest.mark.parametrize("how", ["nan", "divergent", "domain"])
def test_an_error_on_the_true_path_is_the_one_point_error(monkeypatch, how):
    xs, scalar = _multi_peak_case()
    true_path = _true_path(xs)
    # the 10th point the refinement of the last bracket asks for, and every
    # point off the true path, which the first rounds meet first
    refined = sorted(true_path - set(xs.ravel().tolist()))
    bad = [x for x in refined if 13.0 < x < 13.9][9]
    f = _nan_or_raise(how, lambda x: x == bad or x not in true_path)
    error = DivergentMomentError if how == "divergent" else DomainError
    with pytest.raises(error) as seq:
        sup_rows(_rowless(f), xs, speculate=False)
    _always_wrong(monkeypatch, scalar)
    with pytest.raises(error) as spec:
        sup_rows(_rowless(f), xs)
    assert str(spec.value) == str(seq.value)
    assert spec.value.p == bad if how == "divergent" else repr(bad) in str(spec.value)


def test_n_evaluations_counts_speculated_points(monkeypatch):
    # an interior peak near p = 9, refined in one bracket
    model = GroupFunctionModel(dihedral_group(6), np.random.default_rng(6).normal(size=12))
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0, delta=0.0))
    counts = []

    def counted_ratio_fn(model, psi):
        counted, seen = _counted(_ratio_fn(model, psi))
        counts.append(seen)
        return counted

    monkeypatch.setattr(norms, "_ratio_fn", counted_ratio_fn)
    monkeypatch.setattr(norms, "_costs_per_point", lambda model: True)
    seq = gls_norm(model, psi, p_max=30.0)
    monkeypatch.setattr(norms, "_costs_per_point", lambda model: False)
    _always_wrong(monkeypatch, _ratio(model, psi))
    spec = gls_norm(model, psi, p_max=30.0)
    assert (spec.value, spec.arg_p) == (seq.value, seq.arg_p)
    assert (seq.n_evaluations, spec.n_evaluations) == (counts[0][0], counts[1][0])
    # every wrong guess costs a point the one-point search never asks for
    assert spec.n_evaluations > seq.n_evaluations


@pytest.mark.parametrize("model, per_point", [
    (EmpiricalModel(np.random.default_rng(3).normal(size=_PRUNE_MIN_VALUES - 1)), False),
    (EmpiricalModel(np.random.default_rng(3).normal(size=_PRUNE_MIN_VALUES)), True),
    (GroupFunctionModel(cyclic_group(5), [1.0, -2.0, 0.5, 0.0, 3.0]), False),
    (gaussian_model(), False),
], ids=["sample-127", "sample-128", "group", "gaussian"])
def test_only_a_ratio_that_costs_by_the_point_refines_one_point_at_a_time(monkeypatch, model, per_point):
    golden_calls = [0]

    def counted_golden(*args, **kw):
        golden_calls[0] += 1
        return golden_section_max(*args, **kw)

    monkeypatch.setattr(search, "golden_section_max", counted_golden)
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0, delta=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MomentInstabilityWarning)
        gls_norm(model, psi, p_max=30.0)
    assert (golden_calls[0] > 0) == per_point


def test_the_one_point_route_gives_the_speculative_routes_norm(monkeypatch):
    # 256-value sparse functions refine one point at a time; the same search
    # speculating must print the same norms, so a float's psi must have the
    # bits it has in an array (20 to 29 of 120 such draws differed under
    # power_slowvary(r=1, delta=-0.5) while it did not)
    G = cyclic_group(256)
    psi = make_power_slowvary(PowerSlowVaryParams(r=1.0, delta=-0.5))
    rng = np.random.default_rng(0)
    models = []
    for _ in range(60):
        values = rng.standard_normal(G.order)
        values[rng.random(G.order) < 0.5] = 0.0
        models.append(GroupFunctionModel(G, values))
    one_point = [gls_norm(m, psi) for m in models]
    monkeypatch.setattr(norms, "_costs_per_point", lambda model: False)
    speculated = [gls_norm(m, psi) for m in models]
    bits = [(r.value.hex(), r.arg_p.hex()) for r in one_point]
    assert [(r.value.hex(), r.arg_p.hex()) for r in speculated] == bits


def test_plateaus_are_counted_and_not_refined():
    xs = np.geomspace(1.0, 200.0, 64)[None, :]
    # ulp noise on a constant, as a natural psi's ratio shows
    ys = 0.5 + np.spacing(0.5) * np.resize([0.0, 2.0, 1.0], 64)
    f, seen = _counted(lambda x: np.interp(x, xs[0], ys))
    flat = sup_rows(_rowless(f), xs)
    # each local maximum (every third point) is a plateau; the scan is all
    assert (flat.plateaus, seen[0]) == (np.count_nonzero(ys == ys.max()), 64)
    assert (flat.values[0], flat.args[0]) == (ys.max(), xs[0, 1])
    peaks, f = _one_peak_per_row(3)
    f, seen = _counted(f)
    res = sup_rows(_rowless(f), peaks)
    assert res.plateaus == 0 and seen[0] > peaks.size


def test_infinite_scan_values_are_never_flat_and_raise_no_warning():
    # past p ~ 5e305 the scan meets inf next to inf; the plateau test must
    # not form inf - inf
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gls_norm(gaussian_model(), psi, 1e308)
    assert res.value > 0.0


def test_searches_whose_rows_differ_in_length_each_keep_the_bits_of_their_search_alone(monkeypatch):
    # two 512-point rows and a point, and 199 cells of 64 points: one scan
    # array holds rows of one length, so each search runs alone, and no
    # point is evaluated for a shared search first
    model, dip, asked = gaussian_model(), sqrt_dip_psi(), []
    psi = GeneratingFunction(lambda p: asked.append(np.size(p)) or dip.evaluator(p), False, 1.0, "counted")
    rset = RestrictedSet.from_intervals([(1.0, 3.0), (25.0, 25.0), (30.0, 200.0)])
    searches = [norms.domain_search(model, 200.0, rset), norms._cell_search(model, integer_grid(200))]
    shapes = []
    real = norms.sup_rows

    def spy(f, xs, *args, **kw):
        shapes.append(xs.shape)
        return real(f, xs, *args, **kw)

    monkeypatch.setattr(norms, "sup_rows", spy)
    both = norms.sup_norms(psi, searches)
    assert shapes == [(2, 512), (199, 64)]
    assert sum(asked) == sum(r.n_evaluations for r in both)
    alone = [norms.sup_norms(psi, [s])[0] for s in searches]
    for mine, theirs in zip(both, alone):
        assert mine.value.hex() == theirs.value.hex() and mine.arg_p.hex() == theirs.arg_p.hex()
        assert mine == theirs
