"""Supremum search: lockstep refinement, batched cells, evaluation accounting."""

import numpy as np
import pytest

from glspace import (
    constant_model,
    gaussian_model,
    gls_norm,
    integer_grid,
    natural_psi,
    psi_eval,
    sqrt_dip_psi,
    w_hat_constant,
)
from glspace.norms import _cellwise_full_norm, _ratio_fn
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
        args, vals = _golden_lockstep(lock_f, lo, _multi_peak(lo), hi, _multi_peak(hi), tol)
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
    return sup_rows(counted_f, xs), array_calls[0], golden_calls[0]


@pytest.mark.parametrize("k", [2, 3, 4, SCALAR_BRACKETS])
def test_few_brackets_refine_one_by_one(monkeypatch, k):
    assert k <= SCALAR_BRACKETS
    res, array_calls, golden_calls = _routed(monkeypatch, k)
    # the scan is the only array call; each bracket goes to golden_section_max
    assert (array_calls, golden_calls) == (1, k)
    np.testing.assert_allclose(res.args, np.arange(1, k + 1) + 0.3, atol=1e-6)
    # the lockstep path gives the same bits
    monkeypatch.setattr(search, "SCALAR_BRACKETS", 0)
    lock, array_calls, golden_calls = _routed(monkeypatch, k)
    assert golden_calls == 0 and array_calls > 1
    np.testing.assert_array_equal(lock.values, res.values)
    np.testing.assert_array_equal(lock.args, res.args)


@pytest.mark.parametrize("k", [SCALAR_BRACKETS + 1, 12])
def test_many_brackets_go_lockstep(monkeypatch, k):
    res, array_calls, golden_calls = _routed(monkeypatch, k)
    assert golden_calls == 0
    # the scan plus one call per lockstep iteration
    assert 10 < array_calls < 100
    np.testing.assert_allclose(res.args, np.arange(1, k + 1) + 0.3, atol=1e-6)


def test_plateaus_are_counted_and_not_refined():
    xs = np.geomspace(1.0, 200.0, 64)[None, :]
    # ulp noise on a constant, as a natural psi's ratio shows
    ys = 0.5 + np.spacing(0.5) * np.resize([0.0, 2.0, 1.0], 64)
    f, seen = _counted(lambda x: np.interp(x, xs[0], ys))
    flat = sup_rows(f, xs)
    # each local maximum (every third point) is a plateau; the scan is all
    assert (flat.plateaus, seen[0]) == (np.count_nonzero(ys == ys.max()), 64)
    assert (flat.values[0], flat.args[0]) == (ys.max(), xs[0, 1])
    peaks, f = _one_peak_per_row(3)
    f, seen = _counted(f)
    res = sup_rows(f, peaks)
    assert res.plateaus == 0 and seen[0] > peaks.size
