"""Supremum search: speculative and lockstep refinement, batched cells,
evaluation accounting."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from glspace import (
    ClosedFormModel,
    DivergentMomentError,
    DomainError,
    EmpiricalModel,
    GeneratingFunction,
    GroupFunctionModel,
    MomentInstabilityWarning,
    PowerMeanModel,
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
from glspace.models import power_mean
from glspace.suites import psi_pool
from glspace import norms, search
from glspace.search import INV_PHI, SCALAR_BRACKETS, _golden_lockstep, golden_section_max, grid_refine_supremum, sup_rows


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
    """``f`` as sup_rows calls it: the ratio (f, 1), with the scan-row
    index, which it ignores."""
    return lambda x, row: (f(x), np.ones_like(x))


def _ratio(model, psi):
    """p -> |f|_p / psi(p), the quotient of the norm's (numerator,
    denominator) pair, which takes arrays only: a float p goes to it as a
    one-element array, whose quotient comes back as a float."""
    pair = _ratio_fn(model, psi)

    def ratio(p):
        num, den = pair(np.atleast_1d(np.asarray(p, dtype=float)))
        return num / den if np.ndim(p) else (num / den).item()

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
    # the pair itself for every call: the memo at cached scan rows would
    # answer the scan without it (norms._memo_pair)
    monkeypatch.setattr(norms, "_memo_pair", lambda pair, *args: pair)
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


@pytest.mark.parametrize("peak", [1.0 - INV_PHI, INV_PHI], ids=["x1", "x2"])
def test_golden_section_returns_a_first_inner_point_that_no_later_point_beats(peak):
    # golden section on [0, 1] evaluates x1 = 1 - INV_PHI and x2 = INV_PHI
    # first; f peaks exactly at one of them, so every later point is lower
    # and that point itself comes back, on every route
    def f(x):
        return -((x - peak) ** 2)

    assert golden_section_max(f, 0.0, 1.0) == (peak, 0.0)
    ends = np.array([0.0]), f(np.array([0.0])), np.array([1.0]), f(np.array([1.0]))
    rows = np.zeros(1, dtype=np.intp)
    lockstep = _golden_lockstep(_rowless(f), *ends, search._REFINE_TOL, rows)
    guessed = search._speculate(_rowless(f), *ends, search._REFINE_TOL, rows, [0.5])
    for args, values in (lockstep, guessed):
        assert (args.tolist(), values.tolist()) == ([peak], [0.0])


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


def _routed(monkeypatch, k, **kw):
    """sup_rows on k brackets, with the keywords ``kw``; returns (result,
    array calls of f, calls of golden_section_max)."""
    xs, f = _one_peak_per_row(k)
    array_calls, golden_calls = [0], [0]

    def counted_f(x):
        array_calls[0] += np.ndim(x) > 0
        return f(x)

    def counted_golden(*args, **kw):
        golden_calls[0] += 1
        return golden_section_max(*args, **kw)

    monkeypatch.setattr(search, "golden_section_max", counted_golden)
    return sup_rows(_rowless(counted_f), xs, **kw), array_calls[0], golden_calls[0]


@pytest.mark.parametrize("k", [2, 3, 4, 8, SCALAR_BRACKETS])
def test_few_brackets_refine_one_by_one(monkeypatch, k):
    # each bracket keeps its own golden-section state; they all refine in
    # guessed rounds together, one array call of f per round
    assert k <= SCALAR_BRACKETS
    res, array_calls, golden_calls = _routed(monkeypatch, k)
    # a parabolic peak is guessed right: the scan and one round
    assert (array_calls, golden_calls) == (2, 0)
    np.testing.assert_allclose(res.args, np.arange(1, k + 1) + 0.3, atol=1e-6)
    # the lockstep path gives the same bits
    lock, array_calls, golden_calls = _routed(monkeypatch, k, per_point=True)
    assert golden_calls == 0 and array_calls > 10
    np.testing.assert_array_equal(lock.values, res.values)
    np.testing.assert_array_equal(lock.args, res.args)
    # and so does golden_section_max, one bracket and one point at a time:
    # each row's one bracket beats its scan peak
    xs, f = _one_peak_per_row(k)
    seq = np.array([found for _, found in _golden_brackets(f, xs)]).T
    np.testing.assert_array_equal(seq[1], res.values)
    np.testing.assert_array_equal(seq[0], res.args)


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
def test_speculation_has_the_bits_of_lockstep(search_case):
    f, xs, kind = search_case
    assert kind in _peak_kinds(f, xs)
    spec = sup_rows(_rowless(f), xs)
    seq = sup_rows(_rowless(f), xs, per_point=True)
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
    seq = sup_rows(_rowless(_multi_peak), xs, per_point=True)
    _always_wrong(monkeypatch, scalar)
    f, calls = _counted(_multi_peak)
    spec = sup_rows(_rowless(f), xs)
    np.testing.assert_array_equal(spec.values, seq.values)
    np.testing.assert_array_equal(spec.args, seq.args)
    assert calls[0] > xs.size + 3 * 40


def test_a_wrong_first_guess_costs_one_round(monkeypatch):
    # every guess is right but the search's first: the second round plans
    # the rest of the path toward the predicted peak, so the scan and two
    # rounds are the whole search, with the bits of lockstep
    xs, f = _one_peak_per_row(1)
    seq = sup_rows(_rowless(f), xs, per_point=True)
    guesses = []

    def first_wrong(x1, x2, target):
        guesses.append((x1, x2, target))
        return (f(x1) >= f(x2)) != (len(guesses) == 1)

    monkeypatch.setattr(search, "_guess_left", first_wrong)
    calls = []
    spec = sup_rows(lambda x, row: calls.append(x.size) or (f(x), np.ones_like(x)), xs)
    np.testing.assert_array_equal(spec.values, seq.values)
    np.testing.assert_array_equal(spec.args, seq.args)
    assert len(calls) == 3
    # the first round guesses every step, x1 and x2 unevaluated; the second
    # takes its first step from their values and aims every guess at the
    # vertex of the parabola through the inner point golden section keeps
    # (x1 where f(x1) >= f(x2)) and its two neighbours in the bracket; f is
    # a parabola, so that vertex is its peak, 1.3, up to rounding
    i = int(np.argmax(f(xs[0])))
    lo, hi = xs[0, i - 1], xs[0, i + 1]
    x1, x2 = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
    three = (lo, x1, x2) if f(x1) >= f(x2) else (x1, x2, hi)
    vertex = search._vertex(*(float(v) for x in three for v in (x, f(x))))
    assert len(guesses) == (calls[1] - 2) + (calls[2] - 1)
    assert {target for _, _, target in guesses[calls[1] - 2:]} == {vertex}
    assert vertex == pytest.approx(1.3, abs=1e-12)


def _true_path(xs):
    """The points golden_section_max evaluates: every point of the lockstep
    search (per_point=True), the scan's included."""
    seen = set()

    def recorded(x):
        seen.update(np.ravel(x).tolist())
        return _multi_peak(x)

    sup_rows(_rowless(recorded), xs, per_point=True)
    return seen


def _nan_or_raise(how, bad, g=_multi_peak):
    """``g``, NaN at or raising on the points where ``bad`` holds."""

    def f(x):
        x = np.asarray(x, dtype=float)
        hit = np.vectorize(bad, otypes=[bool])(x)
        if hit.any() and how != "nan":
            p = float(x[hit][0]) if x.ndim else float(x)
            raise DivergentMomentError(p) if how == "divergent" else DomainError(f"no value at p={p!r}")
        return np.where(hit, np.nan, g(x))

    return f


@pytest.mark.parametrize("how", ["nan", "divergent", "domain"])
def test_an_error_only_off_the_true_path_gives_the_lockstep_result(monkeypatch, how):
    xs, scalar = _multi_peak_case()
    seq = sup_rows(_rowless(_multi_peak), xs, per_point=True)
    true_path = _true_path(xs)
    _always_wrong(monkeypatch, scalar)
    spec = sup_rows(_rowless(_nan_or_raise(how, lambda x: x not in true_path)), xs)
    np.testing.assert_array_equal(spec.values, seq.values)
    np.testing.assert_array_equal(spec.args, seq.args)


@pytest.mark.parametrize("how", ["nan", "divergent", "domain"])
def test_reran_counts_the_brackets_rerun_after_an_error_off_the_true_path(monkeypatch, how):
    xs, scalar = _multi_peak_case()
    brackets = len(_golden_brackets(_multi_peak, xs))
    assert 1 < brackets <= SCALAR_BRACKETS
    # a clean search reruns nothing, on either route and whatever it guesses
    for per_point in (False, True):
        assert sup_rows(_rowless(_multi_peak), xs, per_point=per_point).reran == 0
    true_path = _true_path(xs)
    _always_wrong(monkeypatch, scalar)
    assert sup_rows(_rowless(_multi_peak), xs).reran == 0
    # the first guessed round meets an error off golden section's path, and
    # every bracket reruns alone, meeting none
    spec = sup_rows(_rowless(_nan_or_raise(how, lambda x: x not in true_path)), xs)
    assert spec.reran == brackets


def test_a_shared_search_that_reran_gives_each_norm_its_alone_bits(monkeypatch):
    # a Gaussian on a set and on all of [1, 30] under a psi that declares
    # no envelope: one shared search of three brackets, at row-end
    # peaks, refined in guessed rounds.  psi is NaN off the points of the
    # searches alone in lockstep, so every wrong guess meets an error and
    # the shared search reruns its brackets
    model, dip = gaussian_model(), make_power_slowvary(PowerSlowVaryParams(r=3.0, delta=-1.0))
    searches = [
        norms.domain_search(model, 30.0, RestrictedSet.from_intervals([(1.0, 3.0), (9.0, math.inf)])),
        norms.domain_search(model, 30.0),
    ]
    path = set()

    def recorded(p):
        path.update(np.ravel(p).tolist())
        return dip.evaluator(p)

    with monkeypatch.context() as m:
        m.setattr(norms, "_costs_per_point", lambda model: True)
        for s in searches:
            norms.sup_norms(GeneratingFunction(recorded, "recorded"), [s])

    def off_path_nan(p):
        return np.where(np.isin(p, list(path)), dip.evaluator(p), np.nan)

    psi = GeneratingFunction(off_path_nan, "nan off the path")
    _always_wrong(monkeypatch, _ratio(model, dip))
    found, real = [], norms.sup_rows

    def spy(*args, **kw):
        found.append(real(*args, **kw))
        return found[-1]

    monkeypatch.setattr(norms, "sup_rows", spy)
    shared = norms.sup_norms(psi, searches)
    # the shared search reran its brackets and was given up: each norm ran
    # alone, and reran its own
    assert len(found) == 3 and all(f.reran > 0 for f in found)
    assert found[0].reran == found[1].reran + found[2].reran <= SCALAR_BRACKETS
    alone = [norms.sup_norms(psi, [s])[0] for s in searches]
    assert shared == alone
    clean = [norms.sup_norms(dip, [s])[0] for s in searches]
    assert [(r.value.hex(), r.arg_p.hex()) for r in shared] == [(r.value.hex(), r.arg_p.hex()) for r in clean]


@pytest.mark.parametrize("how", ["nan", "divergent", "domain"])
def test_an_error_on_the_true_path_is_the_lockstep_error(monkeypatch, how):
    xs, scalar = _multi_peak_case()
    true_path = _true_path(xs)
    # the 10th point the refinement of the last bracket asks for, and every
    # point off the true path, which the first rounds meet first
    refined = sorted(true_path - set(xs.ravel().tolist()))
    bad = [x for x in refined if 13.0 < x < 13.9][9]
    f = _nan_or_raise(how, lambda x: x == bad or x not in true_path)
    error = DivergentMomentError if how == "divergent" else DomainError
    with pytest.raises(error) as seq:
        sup_rows(_rowless(f), xs, per_point=True)
    _always_wrong(monkeypatch, scalar)
    with pytest.raises(error) as spec:
        sup_rows(_rowless(f), xs)
    assert str(spec.value) == str(seq.value)
    assert spec.value.p == bad if how == "divergent" else repr(bad) in str(spec.value)


def _golden_brackets(f, xs):
    """golden_section_max on each bracket of the scan rows ``xs`` of ``f``,
    in row order, the bracket ends known: the points it asks for and its
    (arg, value), per bracket.  ``f`` is checked as sup_rows checks it, so
    a NaN raises DomainError."""
    ys = f(xs)
    r, _, il, ih, k, _ = search._brackets(xs, ys, None)
    out = []
    for row, lo, hi in zip(r[k].tolist(), il[k].tolist(), ih[k].tolist()):
        path = []

        def on_path(x):
            path.append(x)
            return search._eval_parts(_rowless(f), np.array([x]), None)[2].item(0)

        found = golden_section_max(on_path, xs[row, lo], xs[row, hi], f_lo=ys[row, lo], f_hi=ys[row, hi])
        out.append((path, found))
    return out


@pytest.mark.parametrize("case", ["one-peak-per-row", "multi-peak"])
def test_lockstep_asks_for_golden_sections_points_alone(case):
    xs, f = _one_peak_per_row(8) if case == "one-peak-per-row" else (_multi_peak_case()[0], _multi_peak)
    paths = [path for path, _ in _golden_brackets(f, xs)]
    assert len(paths) > 1
    calls = []

    def recorded(x, row):
        calls.append(x.tolist())
        return f(x), np.ones_like(x)

    res = sup_rows(recorded, xs, per_point=True)
    # the scan, then one call of x1 and x2 and one call per golden step of
    # the longest path: every bracket's points, and no other
    assert calls[0] == xs.ravel().tolist()
    assert sorted(x for call in calls[1:] for x in call) == sorted(x for path in paths for x in path)
    assert len(calls) - 1 == max(len(path) for path in paths) - 1
    ref = sup_rows(_rowless(f), xs)
    np.testing.assert_array_equal(res.values, ref.values)
    np.testing.assert_array_equal(res.args, ref.args)


@pytest.mark.parametrize("how", ["nan", "divergent", "domain"])
def test_a_lockstep_error_is_golden_sections_error_on_the_first_bracket_that_meets_one(how):
    # more brackets than may be guessed, and errors at the 12th point golden
    # section asks for on the first bracket and at the 3rd on the last,
    # which a lockstep iteration of all brackets meets first
    xs, f = _one_peak_per_row(20)
    brackets = _golden_brackets(f, xs)
    assert len(brackets) > SCALAR_BRACKETS
    first, last = float(brackets[0][0][11]), float(brackets[-1][0][2])
    g = _nan_or_raise(how, lambda x: x in (first, last), f)
    error = DivergentMomentError if how == "divergent" else DomainError
    with pytest.raises(error) as alone:
        _golden_brackets(g, xs)
    with pytest.raises(error) as lockstep:
        sup_rows(_rowless(g), xs)
    assert str(lockstep.value) == str(alone.value)
    assert lockstep.value.p == first if how == "divergent" else repr(first) in str(lockstep.value)


def test_a_divergent_moment_in_lockstep_is_witnessed_at_the_first_brackets_p(monkeypatch):
    # a Gaussian under sqrt_dip to p = 30 refines 30 brackets in lockstep;
    # the model diverges at the 12th point golden section asks for on the
    # first and at the 3rd on the last, and nowhere else.  Such a model is
    # no p-norm, so sqrt_dip's lower envelope, which would rule out both
    # brackets, is taken off
    model, psi = gaussian_model(), dataclasses.replace(sqrt_dip_psi(), envelope=None)
    starts, real = [], search._golden_lockstep

    def spy(f, lo, f_lo, hi, f_hi, *args):
        starts.append(list(zip(lo.tolist(), hi.tolist(), f_lo.tolist(), f_hi.tolist())))
        return real(f, lo, f_lo, hi, f_hi, *args)

    monkeypatch.setattr(search, "_golden_lockstep", spy)
    gls_norm(model, psi, 30.0)
    brackets = starts[0]
    assert len(starts) == 1 and len(brackets) > SCALAR_BRACKETS
    ratio, paths = _ratio(model, psi), []
    for a, b, fa, fb in (brackets[0], brackets[-1]):
        path = []
        golden_section_max(lambda x: path.append(x) or float(ratio(np.array([x]))[0]), a, b, f_lo=fa, f_hi=fb)
        paths.append(path)
    bad = np.array([paths[0][11], paths[1][2]])

    def moments(p):
        hit = np.isin(p, bad)
        if hit.any():
            raise DivergentMomentError(float(p[hit][0]))
        return model.lp_norm(p)

    diverging = ClosedFormModel("diverging-at-two-points", moments)
    with pytest.raises(DivergentMomentError) as alone:
        golden_section_max(_ratio(diverging, psi), *brackets[0][:2], f_lo=brackets[0][2], f_hi=brackets[0][3])
    res = gls_norm(diverging, psi, 30.0)
    assert (res.value, res.arg_p) == (np.inf, alone.value.p) == (np.inf, paths[0][11])


def _tripwire(f):
    """``f`` as sup_rows calls it, raising TypeError on any argument that is
    not an array: a float or an int reaching it means a scalar route."""

    def arrays_only(x, row):
        for arg in (x, row):
            if not isinstance(arg, np.ndarray):
                raise TypeError(f"f was given {type(arg).__name__} {arg!r}, not an array")
        return f(x), np.ones_like(x)

    return arrays_only


@pytest.mark.parametrize("route", ["guessed", "per-point", "lockstep", "after-a-raise"])
def test_every_route_gives_f_arrays_only(monkeypatch, route):
    xs, scalar = _multi_peak_case()
    f = _multi_peak
    if route == "lockstep":
        # more brackets than may be guessed
        monkeypatch.setattr(search, "SCALAR_BRACKETS", 1)
    if route == "after-a-raise":
        # every guess is wrong and every point off the true path raises, so
        # the first round raises and each bracket reruns alone, in lockstep
        true_path = _true_path(xs)
        _always_wrong(monkeypatch, scalar)
        f = _nan_or_raise("domain", lambda x: x not in true_path)
    res = sup_rows(_tripwire(f), xs, per_point=route == "per-point")
    ref = sup_rows(_rowless(_multi_peak), xs)
    np.testing.assert_array_equal(res.values, ref.values)
    np.testing.assert_array_equal(res.args, ref.args)


@pytest.mark.parametrize("route", ["guessed", "per-point", "lockstep", "after-a-raise"])
def test_calls_count_every_array_call_of_parts(monkeypatch, route):
    xs, scalar = _multi_peak_case()
    f = _multi_peak
    if route == "lockstep":
        monkeypatch.setattr(search, "SCALAR_BRACKETS", 1)
    if route == "after-a-raise":
        true_path = _true_path(xs)
        _always_wrong(monkeypatch, scalar)
        f = _nan_or_raise("domain", lambda x: x not in true_path)
    calls = []
    res = sup_rows(lambda x, row: calls.append(x.size) or (f(x), np.ones_like(x)), xs, per_point=route == "per-point")
    assert res.calls == len(calls) > 1
    # the scan, then one call a round or iteration, and the reruns
    assert calls[0] == xs.size and (res.reran > 0) == (route == "after-a-raise")


class _ArraysOnly(PowerMeanModel):
    """A power-mean model whose moment raises TypeError unless p is an
    array."""

    def lp_norm(self, p):
        if not isinstance(p, np.ndarray):
            raise TypeError(f"lp_norm was given {type(p).__name__} {p!r}, not an array")
        return power_mean(self._moments, p)


def test_a_sample_norm_asks_its_moments_for_arrays_only():
    # 256 values cost by the point: a pruned scan and lockstep, which
    # refines an interior peak near p = 18
    values = np.random.default_rng(4).normal(size=256)
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0, delta=0.0))
    res = gls_norm(_ArraysOnly(values, "tripwire"), psi, p_max=60.0)
    ref = gls_norm(GroupFunctionModel(cyclic_group(256), values), psi, p_max=60.0)
    assert (res.value, res.arg_p, res.n_evaluations) == (ref.value, ref.arg_p, ref.n_evaluations)
    assert 10.0 < res.arg_p < 30.0


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
    monkeypatch.setattr(norms, "_memo_pair", lambda pair, *args: pair)
    monkeypatch.setattr(norms, "_costs_per_point", lambda model: True)
    seq = gls_norm(model, psi, p_max=30.0)
    monkeypatch.setattr(norms, "_costs_per_point", lambda model: False)
    _always_wrong(monkeypatch, _ratio(model, psi))
    spec = gls_norm(model, psi, p_max=30.0)
    assert (spec.value, spec.arg_p) == (seq.value, seq.arg_p)
    assert (seq.n_evaluations, spec.n_evaluations) == (counts[0][0], counts[1][0])
    # every wrong guess costs a point the lockstep search never asks for
    assert spec.n_evaluations > seq.n_evaluations


@pytest.mark.parametrize("model, per_point", [
    (EmpiricalModel(np.random.default_rng(3).normal(size=_PRUNE_MIN_VALUES - 1)), False),
    (EmpiricalModel(np.random.default_rng(3).normal(size=_PRUNE_MIN_VALUES)), True),
    (GroupFunctionModel(cyclic_group(5), [1.0, -2.0, 0.5, 0.0, 3.0]), False),
    (gaussian_model(), False),
], ids=["sample-127", "sample-128", "group", "gaussian"])
def test_only_a_ratio_that_costs_by_the_point_plans_no_guesses(monkeypatch, model, per_point):
    # each refinement records whether it went lockstep, its brackets'
    # starting states, the points it asked for and its results, per bracket
    refinements = []

    def spied(lockstep, real):
        def spy(f, lo, f_lo, hi, f_hi, *args):
            asked = []

            def recorded(x, row):
                asked.extend(x.tolist())
                return f(x, row)

            out = real(recorded, lo, f_lo, hi, f_hi, *args)
            starts = list(zip(lo.tolist(), hi.tolist(), f_lo.tolist(), f_hi.tolist()))
            refinements.append((lockstep, starts, asked, list(zip(*out))))
            return out

        return spy

    monkeypatch.setattr(search, "_speculate", spied(False, search._speculate))
    monkeypatch.setattr(search, "_golden_lockstep", spied(True, search._golden_lockstep))
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0, delta=0.0))
    ratio = _ratio(model, psi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MomentInstabilityWarning)
        gls_norm(model, psi, p_max=30.0)
        # a few brackets: only a ratio that costs by the point goes lockstep
        assert refinements and all(lockstep == per_point for lockstep, *_ in refinements)
        if per_point:
            # no point lies off golden section's path: the search asks for
            # golden_section_max's points of every bracket, and no other
            path = []

            def on_path(x):
                path.append(x)
                return float(ratio(np.array([x]))[0])

            for _, starts, asked, out in refinements:
                assert starts
                path.clear()
                for (a, b, fa, fb), found in zip(starts, out):
                    assert golden_section_max(on_path, a, b, f_lo=fa, f_hi=fb) == found
                assert sorted(asked) == sorted(path)


def test_lockstep_by_the_point_gives_the_guessed_rounds_norm(monkeypatch):
    # 256-value sparse functions cost by the point and refine in lockstep;
    # the same search guessing must print the same norms, so a point's psi
    # must have the bits it has in any array (20 to 29 of 120 such draws
    # differed under power_slowvary(r=1, delta=-0.5) while a float reached
    # psi as a float)
    G = cyclic_group(256)
    psi = make_power_slowvary(PowerSlowVaryParams(r=1.0, delta=-0.5))
    rng = np.random.default_rng(0)
    models = []
    for _ in range(60):
        values = rng.standard_normal(G.order)
        values[rng.random(G.order) < 0.5] = 0.0
        models.append(GroupFunctionModel(G, values))
    lockstep = [gls_norm(m, psi) for m in models]
    monkeypatch.setattr(norms, "_costs_per_point", lambda model: False)
    speculated = [gls_norm(m, psi) for m in models]
    bits = [(r.value.hex(), r.arg_p.hex()) for r in lockstep]
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
    psi = GeneratingFunction(lambda p: asked.append(np.size(p)) or dip.evaluator(p), "counted")
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
