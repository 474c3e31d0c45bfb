"""The pruned scan: a ratio that costs by the point (a large sample or
group function, as the model or as the model of psi) under a psi that
declares a lower envelope (psi itself, nondecreasing, or an L below it)
skips the scan cells whose bound lies below the best value, and
must give the full scan's value, argument and edge evidence bit for bit.
A grid's exact points are one row of the same scan, and the discrete norm
keeps every field of the enumeration of every point but its count, alone
and inside a shared search."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    ClosedFormModel,
    DivergentMomentError,
    DomainError,
    EmpiricalModel,
    GeneratingFunction,
    GroupFunctionModel,
    PowerSlowVaryParams,
    RestrictedSet,
    cyclic_group,
    default_p_max,
    discrete_norm,
    exponential_model,
    gaussian_model,
    geometric_grid,
    gls_norm,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    raw_power_slowvary,
    set_from_spec,
    sqrt_dip_psi,
    uniform01_model,
)
from glspace import norms, search
from glspace.search import _CHORD_MARGIN, cell_bounds, sup_rows

pytestmark = pytest.mark.filterwarnings("ignore::glspace.models.MomentInstabilityWarning")

# every power_slowvary(r, delta >= 0) of the benchmark's pools: the norm
# workload's grid, the sandwich and algebra psi_pool, the tail workload
NORMALIZED = sorted({(r, d) for r in (0.5, 1.0, 2.0, 3.0, 4.0) for d in (0.0, 0.5, 1.0)}
                    | {(1.5, 0.5), (1.0, 2.0)})
# the algebra workload's raw (non-normalized) members
RAW = ((1.0, 0.5), (2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (0.5, 1.0))
PSIS = [make_power_slowvary(PowerSlowVaryParams(r, d)) for r, d in NORMALIZED] + [
    raw_power_slowvary(PowerSlowVaryParams(r, d)) for r, d in RAW
]
N = norms._PRUNE_MIN_VALUES


def _sample(kind: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.5, 3.0))
    if kind == 0:
        return scale * rng.standard_normal(n)
    if kind == 1:
        return scale * rng.exponential(size=n)
    return scale * rng.uniform(-1.0, 2.0, n)


def _rowless(f):
    """The (num, den) function ``f`` as sup_rows calls it, with the scan-row
    index, which it ignores."""
    return lambda x, row: f(x)


def _full_scan(*args, norm=gls_norm, **kw):
    """``norm`` with pruning switched off, as every search ran before it:
    no ratio costs by the point, and a grid's points are one call."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(norms, "_PRUNE_MIN_VALUES", math.inf)
        return norm(*args, **kw)


def _every_grid_pruned(call):
    """``call()`` with the break-even of grid pruning at 0: every grid whose
    ratio costs by the point under an envelope is pruned, however few its
    points and values."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(norms, "_PRUNE_GRID_MIN", 0)
        return call()


def _bits(res):
    return (res.value, res.arg_p, res.decreasing_at_hi)


def _ratio(model, psi):
    """The norm's (numerator, denominator) evaluator and its quotient."""
    pair = norms._ratio_fn(model, psi)

    def ratio(p):
        num, den = pair(p)
        return num / den

    return pair, ratio


def _counted(f):
    """``f`` and a one-element list that counts the points it is asked for."""
    seen = [0]

    def counted(p):
        seen[0] += np.size(p)
        return f(p)

    return counted, seen


def _sets(seed: int):
    rng = np.random.default_rng(seed)
    a = round(float(rng.uniform(1.25, 8.0)), 2)
    b = round(a + float(rng.uniform(0.5, 10.0)), 2)
    return [
        None,
        set_from_spec(f"intervals:1-{a:g},{b:g}-inf"),
        # isolated points too: the pruning also compares against their values
        RestrictedSet([(1.0, 1.1), (a, a), (b, b), (b + 1.0, math.inf)]),
    ]


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["normal", "exponential", "uniform"])
@pytest.mark.parametrize("psi", PSIS, ids=lambda psi: psi.description)
def test_pruned_norm_has_the_full_scan_bits(kind, psi):
    model = EmpiricalModel(_sample(kind, 4 * N, kind))
    for p_max in (default_p_max(model), 200.0):
        for rset in _sets(kind):
            pruned = gls_norm(model, psi, p_max, rset=rset)
            full = _full_scan(model, psi, p_max, rset=rset)
            assert _bits(pruned) == _bits(full)
            assert pruned.n_evaluations < full.n_evaluations


@given(
    seed=st.integers(0, 2**31),
    kind=st.integers(0, 2),
    n=st.integers(N, 3000),
    psi=st.sampled_from(PSIS),
    which_set=st.integers(0, 2),
    group=st.booleans(),
)
def test_pruned_norm_has_the_full_scan_bits_for_any_sample(seed, kind, n, psi, which_set, group):
    values = _sample(kind, n, seed)
    model = GroupFunctionModel(cyclic_group(n), values) if group else EmpiricalModel(values)
    rset = _sets(seed)[which_set]
    pruned = gls_norm(model, psi, default_p_max(model), rset=rset)
    assert _bits(pruned) == _bits(_full_scan(model, psi, default_p_max(model), rset=rset))


def _two_peaks():
    """A sample whose ratio under p^(1/3) has two interior peaks: near
    p = 4.6, where the values 1 take over from the bulk at 0.3, and a lower
    one near p = 22.5, where the single value 1.6 does."""
    values = np.r_[np.full(1638, 0.3), np.full(409, 1.0), [1.6]]
    return EmpiricalModel(values), make_power_slowvary(PowerSlowVaryParams(3.0, 0.0))


def test_the_lower_peak_of_two_is_pruned():
    model, psi = _two_peaks()
    p_max = default_p_max(model)
    xs = np.geomspace(1.0, p_max, 512)
    xs[0], xs[-1] = 1.0, p_max
    pair, ratio = _ratio(model, psi)
    ys = ratio(xs)
    peaks = [i for i in range(1, 511) if ys[i - 1] < ys[i] > ys[i + 1]]
    assert len(peaks) == 2 and ys[peaks[1]] < ys[peaks[0]]
    lower = peaks[1]

    seen = []

    def parts(x):
        seen.append(x)
        return pair(x)

    res = sup_rows(_rowless(parts), xs[None, :], per_point=True, lower=(None, False))
    counted, full_seen = _counted(pair)
    full = sup_rows(_rowless(counted), xs[None, :])
    assert (res.values[0], res.args[0], res.decreasing_at_hi[0]) == (
        full.values[0], full.args[0], full.decreasing_at_hi[0])
    asked = np.concatenate(seen)
    # nothing around the lower peak was evaluated: its cells were dropped
    assert not np.isin(xs[lower - 1 : lower + 2], asked).any()
    assert res.pruned > 0
    # the pruned scan asks for fewer points than the full scan
    assert asked.size < full_seen[0]
    norm = gls_norm(model, psi, p_max)
    assert _bits(norm) == _bits(_full_scan(model, psi, p_max))


def _counted_search(pair, xs, chord=False):
    """sup_rows of ``pair``, pruned under den's own envelope, and the number
    of points it asked for."""
    parts, seen = _counted(pair)
    res = sup_rows(_rowless(parts), xs, per_point=True, lower=(None, chord))
    return res, seen[0]


def _normal_under_root():
    return EmpiricalModel(_sample(0, 4 * N, 5)), make_power_slowvary(PowerSlowVaryParams(2.0, 0.5))


@pytest.mark.parametrize("promise", [False, True], ids=["flat-den", "den-chord"])
@pytest.mark.parametrize("fixture", [_two_peaks, _normal_under_root], ids=["two-peaks", "normal"])
def test_levels_evaluate_no_more_points_than_one_level_with_the_same_bits(fixture, promise):
    model, psi = fixture()
    p_max = default_p_max(model)
    xs = np.geomspace(1.0, p_max, 512)
    xs[0], xs[-1] = 1.0, p_max
    pair = norms._ratio_fn(model, psi)
    # one level at the last step of the levels
    last = search._COARSE_STEPS[-1:]
    res, asked = _counted_search(pair, xs[None, :], promise)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_COARSE_STEPS", last)
        one, one_asked = _counted_search(pair, xs[None, :], promise)
    assert (res.values[0], res.args[0], res.decreasing_at_hi[0]) == (
        one.values[0], one.args[0], one.decreasing_at_hi[0])
    # the same last-step cells are dropped, those under a dropped coarser
    # cell too
    assert res.pruned == one.pruned > 0
    # both ratios fall off somewhere in the window (the two-peak one stays
    # within 0.33-0.53, but a step-16 cell's bound is tight enough), so the
    # coarse levels drop cells and pay
    assert asked < one_asked
    # and a whole norm, intervals and points included, keeps its bits too
    rset = _sets(3)[2]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_COARSE_STEPS", last)
        one = gls_norm(model, psi, p_max, rset=rset)
    levels = gls_norm(model, psi, p_max, rset=rset)
    assert _bits(levels) == _bits(one) == _bits(_full_scan(model, psi, p_max, rset=rset))
    assert levels.n_evaluations <= one.n_evaluations


# f = num / den on the scan points 0..64, num and den piecewise linear and
# nondecreasing, as (num breakpoints, den breakpoints).  Each has a spike of
# height 3 beside a scan point at one end of a live cell, 32 (left end) and
# 40 (right end), whose other neighbour cell is pruned against the value 2
# at the row's end: only the full scan's bracket of that point finds it.
SPIKES = [
    (([0, 32, 32.4, 33, 60, 64], [1, 1, 3, 3, 200, 200]), ([0, 32.5, 32.6, 64], [1, 1, 100, 100])),
    (([0, 39, 39.4, 60, 62, 64], [0.5, 0.5, 3, 3, 200, 200]),
     ([0, 39.5, 39.6, 40.5, 40.6, 64], [1, 1, 3, 3, 100, 100])),
]


@pytest.mark.parametrize("num_pts, den_pts", SPIKES, ids=["left-end", "right-end"])
def test_a_peak_at_a_live_cell_end_keeps_its_full_scan_bracket(num_pts, den_pts):
    xs = np.arange(65.0)[None, :]

    def parts(x):
        return np.interp(x, *num_pts), np.interp(x, *den_pts)

    counted, full_seen = _counted(parts)
    full = sup_rows(_rowless(counted), xs)
    counted, seen = _counted(parts)
    res = sup_rows(_rowless(counted), xs, per_point=True, lower=(None, False))
    assert full.values[0] > 2.9
    assert (res.values[0], res.args[0]) == (full.values[0], full.args[0])
    assert res.pruned > 0 and seen[0] < full_seen[0]


@functools.cache
def _bound_cells():
    """The cells the bound test reads, as (cell ends, num there, dense
    points, num there) per model and step: the cells of 4, 16 and 64 steps
    of the 512-point scan of [1, 200], 257 evenly spaced points in each,
    for samples of the three kinds, the two-peak sample and a group
    function."""
    xs = np.geomspace(1.0, 200.0, 512)
    xs[0], xs[-1] = 1.0, 200.0
    models = [EmpiricalModel(_sample(kind, 2 * N, 7)) for kind in range(3)] + [
        _two_peaks()[0], GroupFunctionModel(cyclic_group(N), _sample(0, N, 3))]
    cells = []
    for model in models:
        for step in (4, 16, 64):
            ends = np.r_[xs[:-1:step], xs[-1]]
            dense = np.linspace(ends[:-1], ends[1:], 257, axis=1)
            cells.append((ends, model.lp_norm(ends), dense, model.lp_norm(dense)))
    return cells


def _with_and_without_promise(psis):
    return [(psi, flag) for psi in psis for flag in sorted({False, psi.envelope[1]})]


def _bound_violations(bounds, psis) -> int:
    """Cells of _bound_cells where ``bounds(p, num, den, (None, chord))``
    (widened by the pruning margin) falls below the maximum of the ratio
    on the cell's dense points, under every (psi, chord) of ``psis``."""
    count = 0
    for ends, num, dense, num_dense in _bound_cells():
        for psi, chord in psis:
            reference = (num_dense / psi(dense)).max(axis=1)
            bound = bounds(ends, num, psi(ends), (None, chord))
            count += int(np.count_nonzero(bound * (1.0 + _CHORD_MARGIN) < reference))
    return count


def test_cell_bound_is_at_least_the_cell_maximum():
    assert _bound_violations(cell_bounds, _with_and_without_promise(PSIS)) == 0


def test_the_bound_test_catches_a_right_end_denominator():
    # the mutation psi(x_{j+1}) in place of psi(x_j) bounds nothing
    def right_end(p, num, den, lower):
        return num[..., 1:] / den[..., 1:]

    assert _bound_violations(right_end, _with_and_without_promise(PSIS[:1])) > 0


def test_the_bound_test_catches_a_chord_of_ln_num():
    # the mutation that takes the chord of ln num, not of p ln num: a num of
    # num^(1/p) makes cell_bounds' p ln num read ln num
    def ln_num_chord(p, num, den, lower):
        return cell_bounds(p, num ** (1.0 / p), den, lower)

    assert _bound_violations(ln_num_chord, _with_and_without_promise(PSIS[:1])) > 0


def test_the_bound_test_catches_a_den_chord_on_a_log_convex_psi():
    # exp(p^2 / 5000) is nondecreasing but its log is strictly convex: the
    # chord of ln psi lies above ln psi, and the promise bounds nothing
    convex = GeneratingFunction(lambda p: np.exp(np.square(p) / 5000.0), "convex", envelope=(None, False))
    assert _bound_violations(cell_bounds, [(convex, False)]) == 0
    assert _bound_violations(cell_bounds, [(convex, True)]) > 0


def _nan_psi(bad):
    """A psi, its own envelope, that is NaN where ``bad(p)``."""

    def evaluator(p):
        return np.where(bad(p), np.nan, np.sqrt(p))

    return GeneratingFunction(evaluator, "nan_sqrt", envelope=(None, False))


def test_nan_psi_names_the_full_scans_p():
    model = EmpiricalModel(_sample(0, 4 * N, 11))
    p_max = default_p_max(model)
    xs = np.geomspace(1.0, p_max, 512)
    # NaN from p = 7.5 on: the first levels meet it at a later point than
    # the full scan, whose first NaN is not a step-16 point
    first = int(np.argmax(xs > 7.5))
    assert first % 16
    # NaN at one point next to the best step-4 value, inside a live cell:
    # the levels are clean and the fine pass meets it
    best = int(np.argmax(_ratio(model, _nan_psi(lambda q: False))[1](xs[::4])))
    lone = xs[4 * best + 3]
    # NaN at one step-64 point only, which the first level meets; and NaN
    # from a point on that is not a step-16 point, which the first level
    # meets at the next step-64 point and the full scan earlier
    cases = [(lambda q: q > 7.5, xs[first]), (lambda q: q == lone, lone),
             (lambda q: q == xs[192], xs[192]), (lambda q: q >= xs[200], xs[200])]
    for bad, p in cases:
        psi = _nan_psi(bad)
        with pytest.raises(DomainError) as pruned:
            gls_norm(model, psi, p_max)
        with pytest.raises(DomainError) as full:
            _full_scan(model, psi, p_max)
        assert str(pruned.value) == str(full.value) == f"the searched function is NaN at p={float(p)!r}"


def test_psi_overflow_names_the_full_scans_p():
    # a 1024-value sample under a psi, its own envelope, whose value
    # overflows to inf from p = 1.17 on: the first level of the pruned scan
    # meets it at xs[64], the full scan at an earlier point
    model = EmpiricalModel(_sample(0, 8 * N, 11))
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=5000.0))
    p_max = default_p_max(model)
    xs = np.geomspace(1.0, p_max, 512)
    pair = norms._ratio_fn(model, psi)
    message = "power_slowvary(r=2, delta=5000): psi(p) = inf at p={!r}; psi must be finite and positive"
    with np.errstate(over="ignore"):
        first = int(np.argmax(psi.evaluator(xs) == math.inf))
        assert first % 64
        with pytest.raises(DomainError) as coarse:
            search._pruned_scan(xs[None, :], _rowless(pair), np.array([-math.inf]), None, (None, True))
        with pytest.raises(DomainError) as pruned:
            gls_norm(model, psi, p_max)
        with pytest.raises(DomainError) as full:
            _full_scan(model, psi, p_max)
    assert str(coarse.value) == message.format(float(xs[64]))
    assert str(pruned.value) == str(full.value) == message.format(float(xs[first]))


def _routes(monkeypatch, model, psi) -> list:
    """For each sup_rows that gls_norm makes, whether it asks for a pruned
    scan: a ratio that costs by the point, under an envelope.  None where
    the norm makes no sup_rows, its ratio unable to rise along a row."""
    got = []

    def spy(parts, xs, *args, per_point=False, lower=None, **kw):
        got.append(per_point and lower is not None)
        return sup_rows(parts, xs, *args, per_point=per_point, lower=lower, **kw)

    monkeypatch.setattr(norms, "sup_rows", spy)
    gls_norm(model, psi, default_p_max(model))
    return got or None


def _is_pruned(monkeypatch, model, psi) -> bool:
    return _routes(monkeypatch, model, psi) == [True]


def test_only_ratios_that_cost_by_the_point_under_an_envelope_are_pruned(monkeypatch):
    psi = PSIS[0]
    big, small = EmpiricalModel(_sample(0, N, 1)), EmpiricalModel(_sample(0, N - 1, 1))
    assert _is_pruned(monkeypatch, big, psi)
    assert not _is_pruned(monkeypatch, small, psi)
    assert not _is_pruned(monkeypatch, gaussian_model(), psi)
    assert _is_pruned(monkeypatch, GroupFunctionModel(cyclic_group(N), _sample(1, N, 2)), psi)
    # neither nondecreasing nor declaring an envelope
    bent = make_power_slowvary(PowerSlowVaryParams(2.0, -0.5))
    assert not bent.nondecreasing and not _is_pruned(monkeypatch, big, bent)
    # not nondecreasing, but declaring one
    assert _is_pruned(monkeypatch, big, sqrt_dip_psi())
    assert not _is_pruned(monkeypatch, big, dataclasses.replace(sqrt_dip_psi(), envelope=None))
    # a natural psi is nondecreasing on a sample, and a closed form under
    # it costs by the point; the sample's own ratio cannot rise, so its norm
    # makes no sup_rows, though its pair keeps the one-moment-per-p division
    nat = natural_psi(big)
    assert _is_pruned(monkeypatch, gaussian_model(), nat)
    assert _routes(monkeypatch, big, nat) is None
    ps = np.array([1.0, 2.0, 9.5])
    num, den = norms._ratio_fn(big, nat)(ps)
    m = big.lp_norm(ps)
    np.testing.assert_array_equal(num / den, m / (m / big.lp_norm(1.0)))


def test_a_flat_natural_ratio_reads_the_row_start_with_the_full_scan_bits(monkeypatch):
    # |f| = c on every value: the natural psi is identically 1, its own
    # envelope though not strictly increasing, and the ratio is flat.  The
    # norm reads the row's first point and its last three, the edge
    # evidence, and no sup_rows, with the bits of the full scan, which a
    # twin's psi, not the model's own, takes under no envelope
    signs = np.where(np.random.default_rng(3).random(512) < 0.5, -1.0, 1.0)
    model = EmpiricalModel(2.5 * signs)
    psi = natural_psi(model)
    assert psi.nondecreasing and _routes(monkeypatch, model, psi) is None
    p_max = default_p_max(model)
    res = gls_norm(model, psi, p_max)
    twin = dataclasses.replace(natural_psi(EmpiricalModel(2.5 * signs)), envelope=None)
    assert _routes(monkeypatch, model, twin) == [False]
    assert repr(_bits(res)) == repr(_bits(_full_scan(model, twin, p_max)))
    assert res.n_evaluations == 4


@pytest.mark.parametrize("n", [256, 4096])
def test_a_declared_envelope_prunes_a_large_sample(n):
    # sqrt_dip is not nondecreasing, but its declared envelope sqrt(p) / 1.5
    # bounds the cells of a sample's ratio, which costs by the point: the
    # scan is pruned, with the bits of the search without the envelope
    model = EmpiricalModel(np.random.default_rng(n).standard_normal(n))
    psi, p_max = sqrt_dip_psi(), default_p_max(model)
    pruned = gls_norm(model, psi, p_max)
    full = gls_norm(model, dataclasses.replace(psi, envelope=None), p_max)
    assert _bits(pruned) == _bits(full)
    assert pruned.n_evaluations < norms._SCAN_POINTS <= full.n_evaluations


@pytest.mark.parametrize("which_set", [0, 1], ids=["plain", "set"])
@pytest.mark.parametrize("model", [gaussian_model(), exponential_model()], ids=lambda m: m.label)
def test_a_closed_form_under_a_large_samples_natural_psi_is_pruned(model, which_set):
    # the model of psi costs by the point, so the closed-form ratio does
    # too, and psi, nondecreasing, is its own envelope: the scan is pruned,
    # with the bits of the search of a psi without the envelope
    psi = natural_psi(EmpiricalModel(1.7 * np.random.default_rng(11).standard_normal(1 << 14)))
    rset = _sets(0)[which_set]
    pruned = gls_norm(model, psi, 200.0, rset)
    full = gls_norm(model, dataclasses.replace(psi, envelope=None), 200.0, rset)
    assert _bits(pruned) == _bits(full)
    assert pruned.n_evaluations < norms._SCAN_POINTS <= full.n_evaluations


def test_only_the_power_family_with_nonnegative_delta_makes_the_promise():
    # the chord of psi's own log; sqrt_dip's chord is its envelope's
    assert natural_psi(EmpiricalModel(_sample(0, N, 1))).envelope == (None, False)
    assert sqrt_dip_psi().envelope[0] is not None
    for make in (make_power_slowvary, raw_power_slowvary):
        for r, d in ((1.0, -0.5), (3.0, -1.0), (2.0, -0.25)):
            assert make(PowerSlowVaryParams(r, d)).envelope is None
    # a psi built by hand makes no promise, and the chord takes part in
    # equality
    plain = GeneratingFunction(np.sqrt, "sqrt")
    assert plain.envelope is None and not plain.nondecreasing
    own = dataclasses.replace(plain, envelope=(None, False))
    assert own.nondecreasing and own != plain
    assert dataclasses.replace(plain, envelope=(None, True)) != own


def test_a_psi_with_a_wrapped_evaluator_keeps_its_promise(monkeypatch):
    # the benchmark tracer counts psi through dataclasses.replace(psi,
    # evaluator=...): the copy keeps the envelope, so a traced norm prunes
    # as the plain one does, point for point
    model, psi = _normal_under_root()
    wrapped = dataclasses.replace(psi, evaluator=lambda p: psi.evaluator(p))
    assert wrapped.envelope == psi.envelope == (None, True) and wrapped.nondecreasing
    p_max = default_p_max(model)
    ref, res = gls_norm(model, psi, p_max), gls_norm(model, wrapped, p_max)
    assert (res.value, res.arg_p, res.n_evaluations) == (ref.value, ref.arg_p, ref.n_evaluations)
    assert _is_pruned(monkeypatch, model, wrapped)


@pytest.mark.parametrize("which_set", [0, 1], ids=["plain", "set"])
def test_the_chord_of_ln_psi_halves_the_points(which_set):
    # a 2^12-value normal sample under p^(1/3), whose ratio peaks inside the
    # window (near p = 22): the chord of ln psi keeps the bits and asks for
    # at most half the ratio points of the bound without it.  (Under
    # power_slowvary(r=2, delta=0.5) the ratio of a normal sample peaks at
    # p = 1, and the bound without the chord drops nearly every cell too.)
    model = EmpiricalModel(np.random.default_rng(0).standard_normal(1 << 12))
    psi = make_power_slowvary(PowerSlowVaryParams(3.0, 0.0))
    off = dataclasses.replace(psi, envelope=(None, False))
    rset = set_from_spec("intervals:1-3,9-inf") if which_set else None
    p_max = default_p_max(model)
    chord, flat = gls_norm(model, psi, p_max, rset=rset), gls_norm(model, off, p_max, rset=rset)
    assert 3.0 < chord.arg_p < p_max
    assert _bits(chord) == _bits(flat) == _bits(_full_scan(model, psi, p_max, rset=rset))
    assert 2 * chord.n_evaluations <= flat.n_evaluations


def test_a_wrapped_ratio_is_pruned_too(monkeypatch):
    """A plain closure around the norm's evaluator, as a benchmark tracer
    installs, keeps the pruned search: same bits, same count."""
    model, psi = EmpiricalModel(_sample(0, 4 * N, 5)), PSIS[0]
    p_max = default_p_max(model)
    ref = gls_norm(model, psi, p_max)
    ratio_fn = norms._ratio_fn
    seen = []

    def wrapped_ratio_fn(model, psi):
        counted, n = _counted(ratio_fn(model, psi))
        seen.append(n)
        return counted

    monkeypatch.setattr(norms, "_ratio_fn", wrapped_ratio_fn)
    res = gls_norm(model, psi, p_max)
    assert (res.value, res.arg_p, res.n_evaluations) == (ref.value, ref.arg_p, ref.n_evaluations)
    assert res.n_evaluations == seen[0][0] < 512


# ---------------------------------------------------------------------------
# A grid's exact points

# every shipped psi that declares an envelope: the power family with delta
# >= 0 (its own, with the chord), sqrt_dip (sqrt(p) / 1.5, with the chord)
# and a natural psi (its own, without), of the model itself or of another
# sample
GRID_PSIS = [
    make_power_slowvary(PowerSlowVaryParams(1.0, 0.0)),
    make_power_slowvary(PowerSlowVaryParams(2.0, 0.5)),
    make_power_slowvary(PowerSlowVaryParams(3.0, 1.0)),
    raw_power_slowvary(PowerSlowVaryParams(2.0, 1.0)),
    sqrt_dip_psi(),
    "natural of the model",
    natural_psi(EmpiricalModel(1.3 * np.random.default_rng(17).standard_normal(1 << 10))),
]
assert all(psi == "natural of the model" or psi.envelope is not None for psi in GRID_PSIS)


def _enumerated(model, psi, q):
    """The discrete norm's fields from every grid point's ratio, in one
    call: the largest value, ties going to the smallest p, its p and
    1-based index, the last three ratios' edge evidence, the window end."""
    num, den = norms._ratio_fn(model, psi)(q.values)
    ys = num / den
    i = int(np.lexsort((q.values, -ys))[0])
    decreasing = ys.size >= 3 and ys[-3] > ys[-2] > ys[-1]
    return ys[i].hex(), q.values[i].hex(), i + 1, bool(decreasing), q.values[-1].hex()


def _fields(res):
    return res.value.hex(), res.arg_p.hex(), res.arg_index, res.decreasing_at_hi, res.truncation_p_max.hex()


_GRIDS = st.one_of(
    st.integers(1, 60).map(integer_grid),
    st.tuples(st.sampled_from([2, 3]), st.integers(1, 12)).map(lambda dm: geometric_grid(*dm)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.integers(0, 2),
    n=st.sampled_from([128, 300, 2048]),
    group=st.booleans(),
    psi=st.sampled_from(GRID_PSIS),
    q=_GRIDS,
)
def test_a_pruned_grid_has_the_bits_of_every_point(seed, kind, n, group, psi, q):
    values = _sample(kind, n, seed)
    model = GroupFunctionModel(cyclic_group(n), values) if group else EmpiricalModel(values)
    psi = natural_psi(model) if psi == "natural of the model" else psi
    # as the break-even decides, and with every grid pruned, since these
    # grids and samples mostly fall below it
    for run in (lambda call: call(), _every_grid_pruned):
        alone = run(lambda: discrete_norm(model, psi, q))
        assert _fields(alone) == _enumerated(model, psi, q)
        assert alone.n_evaluations <= q.M
        # inside a shared search (a group function's, which shares; a
        # sample's runs each search alone), the grid's result is the one it
        # has alone
        p_max = default_p_max(model)
        searches = [norms.domain_search(model, p_max), norms.grid_search(model, q)]
        _, shared = run(lambda: norms.sup_norms(psi, searches))
        assert _fields(shared) == _fields(alone) and shared.n_evaluations == alone.n_evaluations


def _unpruned(call):
    """``call()`` with the chord bound's margin at inf: no cell is pruned,
    no bracket ruled out and no row-end peak certified, so every scan point
    is evaluated and every bracket refined."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_CHORD_MARGIN", math.inf)
        return call()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["sample", "group", "gaussian", "exponential", "uniform01"]),
    n=st.integers(N, 3000),
    psi=st.sampled_from([*PSIS, sqrt_dip_psi()]),
    which_set=st.integers(0, 2),
    q=st.one_of(st.integers(1, 60).map(integer_grid),
                st.tuples(st.sampled_from([2, 3]), st.integers(1, 6)).map(lambda dm: geometric_grid(*dm))),
)
def test_at_the_one_margin_every_route_keeps_the_unpruned_bits(seed, kind, n, psi, which_set, q):
    # the pruned scan and the end certificate of a norm on a domain, the
    # pruned grid of a discrete norm, and the bracket bound of W^'s cell
    # rows (one interior peak a cell under sqrt_dip), each against the same
    # search with the margin at inf
    values = _sample(seed % 3, n, seed)
    model = {
        "sample": lambda: EmpiricalModel(values),
        "group": lambda: GroupFunctionModel(cyclic_group(n), values),
        "gaussian": gaussian_model,
        "exponential": exponential_model,
        "uniform01": uniform01_model,
    }[kind]()
    rset = _sets(seed)[which_set]
    calls = [
        lambda: gls_norm(model, psi, default_p_max(model), rset=rset),
        lambda: _every_grid_pruned(lambda: discrete_norm(model, psi, q)),
        lambda: norms._cellwise_full_norm(model, sqrt_dip_psi(), q),
    ]
    for call in calls:
        assert _fields(call()) == _fields(_unpruned(call))


@pytest.mark.parametrize("n, q, pruned", [
    (16384, geometric_grid(3, 8), False),
    (1024, integer_grid(50), False),
    (4096, integer_grid(50), True),
    (65536, geometric_grid(3, 8), True),
], ids=["D=3:M=8 at 2^14", "M=50 at 2^10", "M=50 at 2^12", "D=3:M=8 at 2^16"])
def test_a_grid_is_pruned_from_its_points_times_values_on(n, q, pruned):
    # 8 * 2^14 and 50 * 2^10 lie below _PRUNE_GRID_MIN, 50 * 2^12 and
    # 8 * 2^16 above it; a grid kept whole is one array call
    model = EmpiricalModel(_sample(0, n, 4))
    psi = make_power_slowvary(PowerSlowVaryParams(2.0, 0.5))
    calls = []
    moments = model._lp_norms
    model._lp_norms = lambda p: calls.append(p.size) or moments(p)
    res = discrete_norm(model, psi, q)
    assert (q.M * n >= norms._PRUNE_GRID_MIN) == pruned
    assert (len(calls) > 1) == pruned and sum(calls) == res.n_evaluations
    if not pruned:
        assert calls == [q.M]
    del model._lp_norms
    assert _fields(res) == _enumerated(model, psi, q)


@pytest.mark.parametrize("group", [False, True], ids=["sample", "group"])
def test_a_grid_of_fifty_integers_evaluates_fewer_points(group):
    values = _sample(0, 4096, 3)
    model = GroupFunctionModel(cyclic_group(4096), values) if group else EmpiricalModel(values)
    psi, q = make_power_slowvary(PowerSlowVaryParams(2.0, 0.5)), integer_grid(50)
    res, before = discrete_norm(model, psi, q), _full_scan(model, psi, q, norm=discrete_norm)
    assert res.n_evaluations < 25 and before.n_evaluations == 50 and _fields(res) == _fields(before)
    domain = norms.domain_search(model, default_p_max(model))
    assert norms.sup_norms(psi, [domain, norms.grid_search(model, q)])[1] == res


@pytest.mark.parametrize("psi", [
    make_power_slowvary(PowerSlowVaryParams(3.0, -1.0)),
    dataclasses.replace(sqrt_dip_psi(), envelope=None),
], ids=["delta<0", "sqrt_dip without its envelope"])
def test_a_grid_under_a_psi_without_an_envelope_is_not_pruned(psi):
    model = EmpiricalModel(_sample(1, 4096, 5))
    assert psi.envelope is None
    res = discrete_norm(model, psi, integer_grid(50))
    assert res.n_evaluations == 50 and _fields(res) == _enumerated(model, psi, integer_grid(50))


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class _NanGroupFunction(GroupFunctionModel):
    """A group function whose moment is NaN for p in (lo, hi)."""

    def __init__(self, G, values, lo, hi):
        super().__init__(G, values)
        self.lo, self.hi = lo, hi

    def _lp_norms(self, q):
        out = super()._lp_norms(q)
        return np.where((q > self.lo) & (q < self.hi), np.nan, out)


def _diverging_from(p0: float) -> ClosedFormModel:
    def moments(p):
        past = np.atleast_1d(p) >= p0
        if past.any():
            raise DivergentMomentError(float(np.atleast_1d(p)[past][0]))
        return np.sqrt(p)

    return ClosedFormModel(f"diverging-from-{p0:g}", moments)


def test_a_nan_at_a_grid_point_names_the_p_of_the_one_call():
    # NaN on (20, 40): the pruned scan meets it first at q(33), the one
    # call at q(21), which the error names
    G, values = cyclic_group(512), _sample(0, 512, 7)
    q = integer_grid(50)
    for model, psi in [
        (_NanGroupFunction(G, values, 20.0, 40.0), make_power_slowvary(PowerSlowVaryParams(2.0, 0.5))),
        (GroupFunctionModel(G, values), _nan_psi(lambda p: (p > 20.0) & (p < 40.0))),
    ]:
        # 50 points of 512 values lie below the break-even: pruned anyway
        error = _every_grid_pruned(lambda: _raised(lambda: discrete_norm(model, psi, q)))
        assert error == _raised(lambda: _full_scan(model, psi, q, norm=discrete_norm))
        assert error == (DomainError, "the searched function is NaN at p=21.0")


@pytest.mark.parametrize("p0", [1.0, 20.5, 50.0])
def test_a_divergent_moment_at_a_grid_point_is_the_one_calls_witness(p0):
    # a closed form under a large sample's natural psi costs by the point;
    # the first level reaches q(50) first, the one call q(1), and the +inf
    # result names the first divergent p of the one call, counting the
    # points of the pruned attempt too
    model = _diverging_from(p0)
    psi = natural_psi(EmpiricalModel(_sample(0, 1 << 12, 9)))
    q = integer_grid(50)
    res, before = discrete_norm(model, psi, q), _full_scan(model, psi, q, norm=discrete_norm)
    assert math.isinf(res.value) and res.arg_p == math.ceil(p0)
    assert dataclasses.replace(res, n_evaluations=before.n_evaluations) == before
    assert before.n_evaluations == 50 <= res.n_evaluations
