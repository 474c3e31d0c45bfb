"""A sandwich check as one search: its inner norm and its full norm share
one scan and one refinement, with the results of the searches run one by
one; the W^ constant is computed once per (psi, cell ends), and a closed
form's moments and psi at cached scan rows once per (model or psi, rows)."""

import csv
import dataclasses
import gc
import io
import math
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glspace
import glspace.cli
from glspace import (
    ClosedFormModel,
    DivergentMomentError,
    DomainError,
    EmpiricalModel,
    GeneratingFunction,
    GroupFunctionModel,
    NonMonotoneError,
    PowerSlowVaryParams,
    constant_model,
    cyclic_group,
    discrete_norm,
    gaussian_model,
    gls_norm,
    integer_grid,
    make_power_slowvary,
    sandwich_check_discrete,
    sandwich_check_restricted,
    set_fixtures,
    set_from_spec,
    sqrt_dip_psi,
    uniform01_model,
    w_constant,
    w_hat_constant,
    z_constant,
)
from glspace import norms, search
from glspace.cli import main
from glspace.grids import _check_monotone
from glspace.norms import SandwichReport, _cellwise_full_norm
from glspace.suites import _closed_form_pool, grid_pool, psi_pool

ROOT = Path(__file__).resolve().parents[1]


def _alone(kind, model, psi, domain, p_max=200.0):
    """The report of sandwich_check_* assembled from one-search calls, in
    the order inner, full, constant."""
    if kind == "Z":
        windowed = domain.window(p_max)
        P = windowed.windowed_at
        inner = gls_norm(model, psi, P, rset=windowed)
        full = gls_norm(model, psi, P)
        return SandwichReport(model.label, psi.description, domain.description, full, inner,
                              z_constant(windowed, psi))
    gtr = domain.truncated(domain.first_index_at_least(p_max))
    P = float(gtr.values[-1])
    inner = discrete_norm(model, psi, gtr)
    if kind == "W_hat":
        full = _cellwise_full_norm(model, psi, gtr)
        const = w_hat_constant(gtr, psi)
    else:
        full = gls_norm(model, psi, P)
        _check_monotone(psi, P, "the W bound does not apply, pass use_w_hat=True")
        const = w_constant(gtr, psi)
    return SandwichReport(model.label, psi.description, domain.description, full, inner, const)


def _shared(kind, model, psi, domain, p_max=200.0):
    if kind == "Z":
        return sandwich_check_restricted(model, psi, domain, p_max)
    return sandwich_check_discrete(model, psi, domain, p_max, use_w_hat=kind == "W_hat")


def _outcome(call):
    """call()'s result, or the type and text of what it raised, and whether
    a search of it refined in lockstep."""
    lockstep = []
    real = search._golden_lockstep

    def spy(*args, **kw):
        lockstep.append(True)
        return real(*args, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_golden_lockstep", spy)
        try:
            return call(), bool(lockstep)
        except Exception as exc:
            return (type(exc), str(exc)), bool(lockstep)


# what a SandwichReport derives from its fields, compared with them
_DERIVED = ("kind", "window_p", "left_ok", "right_ok", "ok")


def _bits(value):
    """A report or result with its floats as their bits, recursively; a
    SandwichReport's derived window and verdicts too."""
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
        names += _DERIVED if isinstance(value, SandwichReport) else ()
        return tuple(_bits(getattr(value, name)) for name in names)
    return value.hex() if isinstance(value, float) else value


def _same_report(shared, shared_lockstep, alone, alone_lockstep):
    """Every field of the two reports, both NormResults and the constant
    included, and the window and verdicts each derives, is the same.  Where
    the shared search went lockstep and the one-search calls did not, a
    norm's count may be lower: lockstep asks for no point off golden
    section's path, speculation also for the points of its wrong guesses."""
    if isinstance(alone, tuple):
        assert shared == alone
        return
    if shared_lockstep and not alone_lockstep:
        fix = {}
        for name in ("inner", "full"):
            mine, theirs = getattr(shared, name), getattr(alone, name)
            assert mine.n_evaluations <= theirs.n_evaluations
            fix[name] = dataclasses.replace(mine, n_evaluations=theirs.n_evaluations)
        shared = dataclasses.replace(shared, **fix)
    assert _bits(shared) == _bits(alone)


def _big_group_model(seed):
    # a power mean of 128 values: the Z and W searches are pruned, the
    # inner norm's rows and the full norm's row being blocks of unequal size
    return GroupFunctionModel(cyclic_group(128), np.random.default_rng(seed).standard_normal(128))


_MODELS = _closed_form_pool(np.random.default_rng(3))
_SAMPLE = EmpiricalModel(np.random.default_rng(5).standard_normal(256))


@st.composite
def _sandwich_case(draw):
    kind = draw(st.sampled_from(["Z", "W", "W_hat"]))
    model = draw(st.one_of(
        st.sampled_from(_MODELS),
        st.integers(0, 2**32 - 1).map(_big_group_model),
        st.just(_SAMPLE),
    ))
    if kind == "W_hat":
        return kind, model, sqrt_dip_psi(), integer_grid(256), 200.0
    psi = draw(st.sampled_from(psi_pool()))
    domain = draw(st.sampled_from(set_fixtures() if kind == "Z" else grid_pool()))
    return kind, model, psi, domain, draw(st.sampled_from([200.0, 37.5]))


@settings(max_examples=60, deadline=None)
@given(case=_sandwich_case())
def test_a_sandwich_report_is_the_report_of_its_searches_alone(case):
    shared = _outcome(lambda: _shared(*case))
    alone_calls = _outcome(lambda: _alone(*case))
    _same_report(*shared, *alone_calls)


@pytest.mark.parametrize("seed, psi, S", [(1, 3, 16), (2, 3, 7), (3, 4, 13)])
def test_a_pruned_search_judges_each_norm_against_its_own_best(seed, psi, S):
    # the full norm's supremum lies in a gap of the set: pruned against the
    # full norm's best, the inner norm would lose cells it needs
    case = ("Z", _big_group_model(seed), psi_pool()[psi], set_fixtures()[S])
    shared, alone = _shared(*case), _alone(*case)
    assert shared.inner.value < shared.full.value
    assert _bits(shared) == _bits(alone)


def test_each_route_runs_one_search(monkeypatch):
    calls, mins = [], []
    real, real_min = norms.sup_rows, search.sup_rows

    def spy(f, xs, *args, **kw):
        calls.append(xs.shape[0])
        return real(f, xs, *args, **kw)

    def min_spy(f, xs, *args, **kw):
        mins.append(xs.shape)
        return real_min(f, xs, *args, **kw)

    monkeypatch.setattr(norms, "sup_rows", spy)
    monkeypatch.setattr(search, "sup_rows", min_spy)
    model, psi, dip = gaussian_model(), psi_pool()[2], sqrt_dip_psi()
    sandwich_check_restricted(model, psi, set_fixtures()[3])
    sandwich_check_discrete(model, psi, grid_pool()[1])
    sandwich_check_discrete(model, dip, integer_grid(256), use_w_hat=True)
    # the windowed set's two rows and [1, P]; [1, P]; the 199 cells of the
    # window [1, 200]
    assert calls == [3, 1, 199]
    # psi's cell minima, on the first W^ check of this psi and grid only
    assert mins == [(199, 256)]
    sandwich_check_discrete(uniform01_model(), dip, integer_grid(256), use_w_hat=True)
    assert calls == [3, 1, 199, 199] and mins == [(199, 256)]


def test_a_w_hat_sandwich_refines_in_one_lockstep():
    arrays = []
    real = search._eval_parts

    def counted(parts, xs, rows):
        arrays.append(xs.size)
        return real(parts, xs, rows)

    dip, q = sqrt_dip_psi(), integer_grid(256)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_eval_parts", counted)
        rep = sandwich_check_discrete(gaussian_model(), dip, q, use_w_hat=True)
        miss = list(arrays)
        arrays.clear()
        again = sandwich_check_discrete(gaussian_model(), dip, q, use_w_hat=True)
        hit = list(arrays)
    assert _bits(rep) == _bits(again) == _bits(_alone("W_hat", gaussian_model(), dip, q))
    # a miss: the norm search's scan of 199 cells of 64 points and one
    # lockstep over its brackets (its first call, x1 and x2, and one call
    # per iteration), then the minima's scan of 199 cells of 256 points and
    # their lockstep
    minima = miss.index(199 * 256)
    norm, (min_scan, *min_lockstep) = miss[:minima], miss[minima:]
    assert norm[0] == 199 * 64 and len(norm) <= 42
    assert min_scan == 199 * 256 and len(min_lockstep) <= 48
    # a hit: the norm search alone, call for call
    assert hit == norm


def test_a_grid_only_search_makes_one_array_call(monkeypatch):
    arrays = []
    real = search._eval_parts
    monkeypatch.setattr(search, "_eval_parts", lambda parts, xs, rows: arrays.append(xs.size) or real(parts, xs, rows))
    monkeypatch.setattr(norms, "_eval_parts", search._eval_parts)
    res = discrete_norm(gaussian_model(), psi_pool()[2], integer_grid(40))
    assert arrays == [40] and res.n_evaluations == 40


# ---------------------------------------------------------------------------
# The W^ constant: computed once per (psi, cell ends), the same on a hit


def _w_hat_uncached(psi, q, p_max=200.0):
    """W^ of the window of ``q`` at ``p_max``, computed without the memo."""
    return glspace.grids._w_hat(psi, q.truncated(q.first_index_at_least(p_max)).values)


@pytest.mark.filterwarnings("ignore::glspace.MomentInstabilityWarning")  # the sample's plug-in moments
@pytest.mark.parametrize("clear", [False, True], ids=["hit", "after-cache-clear"])
def test_a_w_hat_check_on_a_memoized_constant_is_the_report_of_its_searches_alone(clear):
    memo = glspace.grids._w_hat_memo
    dip, q = sqrt_dip_psi(), integer_grid(256)
    sandwich_check_discrete(_MODELS[0], dip, q, use_w_hat=True)
    for model in (*_MODELS, _SAMPLE):
        if clear:
            memo.cache_clear()
        before = memo.cache_info()
        shared = _outcome(lambda: _shared("W_hat", model, dip, q))
        after = memo.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == ((0, 1) if clear else (1, 0))
        _same_report(*shared, *_outcome(lambda: _alone("W_hat", model, dip, q)))
        assert _bits(shared[0].constant) == _bits(_w_hat_uncached(dip, q))


def test_a_psi_nan_in_one_cell_raises_its_error_on_every_check():
    psi, q = _nan_between(20.2, 20.8, flagged=False), integer_grid(60)
    memo = glspace.grids._w_hat_memo
    size = memo.cache_info().currsize
    check = _raised(lambda: sandwich_check_discrete(uniform01_model(), psi, q, 50.0, use_w_hat=True))
    assert check[0] is DomainError and "NaN" in check[1]
    assert _raised(lambda: sandwich_check_discrete(uniform01_model(), psi, q, 50.0, use_w_hat=True)) == check
    const = _raised(lambda: w_hat_constant(q, psi))
    assert const[0] is DomainError and "NaN" in const[1]
    assert _raised(lambda: w_hat_constant(q, psi)) == const
    assert memo.cache_info().currsize == size


def test_two_grids_or_two_psi_never_share_a_memo_entry():
    memo = glspace.grids._w_hat_memo
    memo.cache_clear()
    # one description, two evaluators with different W^
    root = GeneratingFunction(np.sqrt, "same", envelope=(None, False))
    ripple = GeneratingFunction(sqrt_dip_psi().evaluator, "same")
    grids = [integer_grid(40), glspace.geometric_grid(2, 6)]
    got = {(i, j): w_hat_constant(q, psi) for i, psi in enumerate((root, ripple)) for j, q in enumerate(grids)}
    assert memo.cache_info()[:2] == (0, 4)
    for (i, j), const in got.items():
        assert _bits(const) == _bits(glspace.grids._w_hat((root, ripple)[i], grids[j].values))
    assert len({const.value for const in got.values()}) == 4
    # equal grid values in another grid object, and an equal psi, are one entry
    assert w_hat_constant(integer_grid(40), dataclasses.replace(root)) is got[0, 0]
    assert memo.cache_info()[:2] == (1, 4)


class _UnhashableEvaluator:
    """An evaluator, sqrt_dip's by default, as a callable whose objects
    cannot be hashed."""

    __hash__ = None

    def __init__(self, evaluator=None):
        self.evaluator = evaluator or sqrt_dip_psi().evaluator

    def __call__(self, p):
        return self.evaluator(p)


def test_a_psi_with_an_unhashable_evaluator_still_gets_its_w_hat_constant():
    dip = sqrt_dip_psi()
    psi = GeneratingFunction(_UnhashableEvaluator(), "unhashable sqrt_dip")
    with pytest.raises(TypeError):
        hash(psi)
    q = integer_grid(256)
    assert _bits(w_hat_constant(q, psi)) == _bits(w_hat_constant(q, dip))
    rep = sandwich_check_discrete(gaussian_model(), psi, q, use_w_hat=True)
    assert _bits(rep.constant) == _bits(_w_hat_uncached(dip, q))
    assert rep.ok


# ---------------------------------------------------------------------------
# A closed form's moments and psi at cached scan rows: computed once per
# (model or psi, rows) while the model or psi lives (norms._row_values)


def _cell_points(q):
    """The points of the cell rows of the grid ``q``, in the full scan's order."""
    return norms._cell_search(gaussian_model(), q).rows.ravel()


def _zero_between(lo, hi):
    """sqrt(p), but 0 on (lo, hi): not a psi there, and no envelope."""

    def evaluator(p):
        p = np.asarray(p, dtype=float)
        return np.where((p > lo) & (p < hi), 0.0, np.sqrt(p))

    return GeneratingFunction(evaluator, f"zero-on-({lo:g},{hi:g})")


def _kept(f):
    """The row keys the memo holds for ``f`` (none for an unhashable psi)."""
    return [key for g, rows in norms._row_memo.items() if g is f for key in rows]


def _unmemoized(monkeypatch):
    """Every search's pair as _ratio_fn makes it, the memo never read."""
    monkeypatch.setattr(norms, "_memo_pair", lambda pair, *args: pair)


_ROW_SEARCHES = {
    "integers": lambda m: norms._cell_search(m, integer_grid(200)),
    "geometric": lambda m: norms._cell_search(m, glspace.geometric_grid(2, 8)),
    "one-cell": lambda m: norms._cell_search(m, integer_grid(2)),
    "full": lambda m: norms.domain_search(m, 200.0),
    "set": lambda m: norms.domain_search(m, 120.0, set_fixtures()[3]),
}


@pytest.mark.parametrize("rows", _ROW_SEARCHES.values(), ids=_ROW_SEARCHES.keys())
def test_the_memoized_values_at_scan_rows_are_psi_values_and_the_moments_there_bit_for_bit(rows):
    dip, model = sqrt_dip_psi(), gaussian_model()
    s = rows(model)
    points = s.rows.ravel()
    for f, expect in ((dip, glspace.generating.psi_values(dip, points)), (model, model._lp_norms(points))):
        got = norms._row_values(f, s.rows_key)
        assert got.tobytes() == expect.tobytes()
        assert not got.flags.writeable
        assert norms._row_values(f, s.rows_key) is got


_ROUTES = {"Z": set_fixtures()[3], "W": grid_pool()[1], "W_hat": integer_grid(256)}


# a constant model under a nondecreasing psi is flat, and its search
# makes no scan (_row_starts), so it is searched on the W^ route only
@pytest.mark.parametrize("kind, model", [
    *((kind, m) for kind in _ROUTES for m in (gaussian_model(), uniform01_model(), glspace.exponential_model())),
    ("W_hat", constant_model(1.3)),
], ids=lambda x: x if isinstance(x, str) else x.label)
def test_sandwich_checks_keep_their_counts_and_values_on_a_memo_hit_and_a_miss(kind, model, monkeypatch):
    dip = sqrt_dip_psi() if kind == "W_hat" else psi_pool()[2]
    with monkeypatch.context() as m:
        _unmemoized(m)
        expect = _bits(_shared(kind, model, dip, _ROUTES[kind]))
    norms._row_memo.clear()
    assert _bits(_shared(kind, model, dip, _ROUTES[kind])) == expect
    kept = {f: {key: norms._row_memo[f][key] for key in _kept(f)} for f in (model, dip)}
    assert all(kept.values())
    assert _bits(_shared(kind, model, dip, _ROUTES[kind])) == expect
    # the hit read the same arrays, and kept no other
    assert all(norms._row_memo[f][key] is values for f in kept for key, values in kept[f].items())
    assert all(_kept(f) == list(kept[f]) for f in kept)


def test_an_unhashable_psi_is_evaluated_at_the_cell_rows_every_time():
    dip, q = sqrt_dip_psi(), integer_grid(60)
    asked = []

    def evaluator(p):
        asked.append(np.size(p))
        return dip.evaluator(p)

    psi = GeneratingFunction(_UnhashableEvaluator(evaluator), dip.description, envelope=dip.envelope)
    model = gaussian_model()
    cells = _cell_points(q).size
    norms._row_memo.clear()
    for _ in range(2):
        asked.clear()
        assert _bits(_cellwise_full_norm(model, psi, q)) == _bits(_cellwise_full_norm(model, dip, q))
        assert cells in asked
    # the model's moments and dip's values, one row key each; none of psi
    assert _kept(psi) == [] and len(_kept(dip)) == len(_kept(model)) == 1


def test_a_psi_that_fails_at_a_cell_point_raises_its_error_and_is_not_memoized():
    psi, q = _zero_between(20.2, 20.8), integer_grid(60)
    gtr = q.truncated(q.first_index_at_least(50.0))
    norms._row_memo.clear()
    expect = _raised(lambda: glspace.generating.psi_values(psi, _cell_points(gtr)))
    assert expect[0] is DomainError and "p=20.206349206349206" in expect[1]
    for _ in range(2):
        assert _raised(lambda: _cellwise_full_norm(uniform01_model(), psi, gtr)) == expect
        assert _raised(lambda: sandwich_check_discrete(uniform01_model(), psi, q, 50.0, use_w_hat=True)) == expect
    # every attempt evaluated psi, and none left an entry
    assert not any(f is psi for f in norms._row_memo.keys())


@pytest.mark.parametrize("kind, domain", [("Z", set_from_spec("intervals:1-3,40-inf")), ("W_hat", integer_grid(50))])
def test_a_divergent_moment_wins_over_a_psi_that_fails_at_a_scan_point(kind, domain, monkeypatch):
    psi, model = _zero_between(20.2, 20.8), _diverging_from(2.5)
    searches = _searches(kind, model, domain, 45.0)
    with monkeypatch.context() as m:
        _unmemoized(m)
        expect = repr(norms.sup_norms(psi, searches))
    norms._row_memo.clear()
    full = norms.sup_norms(psi, searches)[1]
    # the scan's moments raise before psi is asked, at the first p >= 2.5 of
    # the full norm's rows (a shared search that raised reruns its searches
    # alone)
    xs = searches[1].rows.ravel()
    assert full.value == math.inf and full.arg_p == xs[xs >= 2.5][0]
    assert repr(norms.sup_norms(psi, searches)) == expect
    assert not any(f is psi or f is model for f in norms._row_memo.keys())


@pytest.mark.parametrize("kind", _ROUTES)
def test_a_model_with_one_moment_for_all_its_points_is_named_as_without_the_memo(kind, monkeypatch):
    # one value, not one per point: the memo keeps nothing, and the search's
    # pair names the shape of the whole scan's call
    model, psi = ClosedFormModel("scalar", lambda p: 1.0), psi_pool()[2]
    with monkeypatch.context() as m:
        _unmemoized(m)
        expect = _raised(lambda: _shared(kind, model, psi, _ROUTES[kind]))
    assert expect[0] is DomainError and "it must accept arrays" in expect[1]
    norms._row_memo.clear()
    assert _raised(lambda: _shared(kind, model, psi, _ROUTES[kind])) == expect
    assert _kept(model) == []


def _searches(kind, model, domain, p_max):
    """The searches of a sandwich check's shared search."""
    if kind == "Z":
        windowed = domain.window(p_max)
        return [norms.domain_search(model, windowed.windowed_at, windowed),
                norms.domain_search(model, windowed.windowed_at)]
    gtr = domain.truncated(domain.first_index_at_least(p_max))
    return [norms.grid_search(model, gtr), norms._cell_search(model, gtr)]


@pytest.mark.parametrize("kind", _ROUTES)
def test_a_memo_hit_asks_psi_only_for_the_points_of_the_norm_search(kind, monkeypatch):
    base, model, domain = sqrt_dip_psi() if kind == "W_hat" else psi_pool()[2], gaussian_model(), _ROUTES[kind]
    # each call's size, and whether the check's norm search asked for it
    asked, searching = [], []

    def evaluator(p):
        asked.append((bool(searching), np.size(p)))
        return base.evaluator(p)

    real = norms.sup_norms

    def sup_norms(*args):
        searching.append(True)
        try:
            return real(*args)
        finally:
            searching.clear()

    monkeypatch.setattr(norms, "sup_norms", sup_norms)
    psi = GeneratingFunction(evaluator, f"counted {base.description}", envelope=base.envelope)
    # the full scan's blocks: the windowed set's two rows, then [1, P];
    # [1, P]; the 199 cells of the window [1, 200]
    blocks = {"Z": [2 * 512, 512], "W": [512], "W_hat": [199 * 64]}[kind]
    scan = sum(blocks)
    first = _shared(kind, model, psi, domain)
    searched = [n for inside, n in asked if inside]
    # a miss asks psi for each block of the scan
    assert all(n in searched for n in blocks)
    assert sum(searched) == first.inner.n_evaluations + first.full.n_evaluations
    # a W^ miss also searches psi's 199 cells of 256 points for their minima
    assert ((False, 199 * 256) in asked) == (kind == "W_hat")
    asked.clear()
    rep = _shared(kind, model, psi, domain)
    assert _bits(rep) == _bits(first)
    # a hit: psi is asked for the points of the two norms' ratios only, but
    # the full scan's, whose psi values are memoized; the scan's points are
    # still counted
    searched = [n for inside, n in asked if inside]
    assert not any(n in searched for n in blocks) and (False, 199 * 256) not in asked
    assert sum(searched) == rep.inner.n_evaluations + rep.full.n_evaluations - scan


def test_a_models_or_psis_entries_go_once_it_is_collected():
    model, psi = gaussian_model(), GeneratingFunction(lambda p: np.sqrt(p), "root", envelope=(None, True))
    sandwich_check_restricted(model, psi, set_fixtures()[3])
    sandwich_check_discrete(model, psi, grid_pool()[1])
    assert _kept(model) and _kept(psi)
    gc.collect()
    gone, size = (weakref.ref(model), weakref.ref(psi)), len(norms._row_memo)
    del model, psi
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    assert len(norms._row_memo) == size - 2


def test_one_function_keeps_at_most_32_row_keys():
    model, psi = gaussian_model(), psi_pool()[2]
    keys = [norms.domain_search(model, p_max).rows_key for p_max in range(2, 42)]
    assert norms._ROWS_KEPT == 32
    for p_max in range(2, 42):
        gls_norm(model, psi, p_max)
    assert _kept(model) == _kept(psi) == keys[-32:]
    # the most recently read last: a hit on the oldest (p_max 10) keeps it,
    # and the next miss drops the one after it (11)
    gls_norm(model, psi, 10.0)
    gls_norm(model, psi, 50.0)
    assert _kept(model) == _kept(psi) == keys[-30:] + [keys[8], norms.domain_search(model, 50.0).rows_key]


def test_fresh_objects_as_gls_norm_makes_them_leave_the_memo_empty(capsys):
    norms._row_memo.clear()
    for psi in ("power_slowvary(r=2, delta=0)", "sqrt_dip"):
        for domain in ((), ("--set", "intervals:1-3,40-inf"), ("--grid", "integers:M=60")):
            for _ in range(3):
                assert main(["norm", "--model", "gaussian", "--psi", psi, *domain]) == 0
    capsys.readouterr()
    # every model and psi of a run is gone with the run, and so are its
    # entries, without a collection
    assert len(norms._row_memo) == 0


def _memo_psi(model, name):
    """A psi of the property below: the pool's, sqrt_dip, an unhashable one,
    the natural psi of another model and the model's own."""
    if name == "unhashable":
        dip = sqrt_dip_psi()
        return GeneratingFunction(_UnhashableEvaluator(dip.evaluator), "unhashable sqrt_dip", envelope=dip.envelope)
    if name == "natural":
        return glspace.natural_psi(_MEMO_OTHER)
    if name == "own":
        return glspace.natural_psi(model)
    return name


_MEMO_OTHER = glspace.exponential_model()


@st.composite
def _memo_case(draw):
    kind = draw(st.sampled_from(["Z", "W", "W_hat", "norm"]))
    model = draw(st.sampled_from(_MODELS))
    psi = _memo_psi(model, draw(st.sampled_from([*psi_pool(), sqrt_dip_psi(), "unhashable", "natural", "own"])))
    if kind == "W_hat":
        domain = integer_grid(256)
    else:
        domain = draw(st.sampled_from(grid_pool() if kind == "W" else set_fixtures()))
    return kind, model, psi, domain, draw(st.sampled_from([200.0, 80.0, 37.5]))


def _memo_call(kind, model, psi, domain, p_max):
    """The report of a sandwich check, or gls_norm's result on a set, by
    repr, or the type and text of what it raised."""
    try:
        if kind == "norm":
            return repr(gls_norm(model, psi, p_max, rset=domain))
        return repr(_shared(kind, model, psi, domain, p_max))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(case=_memo_case())
def test_a_memo_miss_and_a_hit_give_the_results_of_the_unmemoized_search(case):
    with pytest.MonkeyPatch.context() as m:
        _unmemoized(m)
        expect = _memo_call(*case)
    norms._row_memo.clear()
    assert _memo_call(*case) == expect
    assert _memo_call(*case) == expect


# ---------------------------------------------------------------------------
# Errors: those of the searches run alone, in the order inner, full, constant


def _nan_between(lo, hi, flagged=True):
    """sqrt(p), but NaN on (lo, hi); ``flagged``, its own envelope."""

    def evaluator(p):
        p = np.asarray(p, dtype=float)
        out = np.sqrt(p)
        return np.where((p > lo) & (p < hi), np.nan, out)

    return GeneratingFunction(evaluator, f"nan-on-({lo:g},{hi:g})", envelope=(None, False) if flagged else None)


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("kind, domain", [
    ("Z", set_from_spec("intervals:1-3,40-inf")),
    ("W", integer_grid(60)),
    ("W_hat", integer_grid(60)),
])
def test_a_psi_nan_only_in_the_full_window_is_the_searches_error(kind, domain):
    # NaN on (20.2, 20.8): between the set's segments and the grid points.
    # The full norm meets it first: on the row [1, 50], or, for W^, at the
    # first NaN point of the cell (20, 21), before the W^ constant's minima
    # search meets its own (20.20392156862745)
    psi = _nan_between(20.2, 20.8)
    shared = _raised(lambda: _shared(kind, uniform01_model(), psi, domain, 50.0))
    assert shared == _raised(lambda: _alone(kind, uniform01_model(), psi, domain, 50.0))
    p = 20.206349206349206 if kind == "W_hat" else 20.26022433756431
    assert shared == (DomainError, f"the searched function is NaN at p={p!r}")
    # the inner norm alone is clean
    if kind == "Z":
        gls_norm(uniform01_model(), psi, 50.0, set_from_spec("intervals:1-3,40-50"))
    else:
        discrete_norm(uniform01_model(), psi, domain.truncated(50))


def _diverging_from(p0: float) -> ClosedFormModel:
    def moments(p):
        past = np.atleast_1d(p) >= p0
        if past.any():
            raise DivergentMomentError(float(np.atleast_1d(p)[past][0]))
        return np.sqrt(p)

    return ClosedFormModel(f"diverging-from-{p0:g}", moments)


@pytest.mark.parametrize("p0", [2.5, 45.0, 150.0])
@pytest.mark.parametrize("kind, domain", [
    ("Z", set_from_spec("intervals:1-3,40-inf")),
    ("W", integer_grid(250)),
    ("W_hat", integer_grid(250)),
])
def test_a_divergent_moment_in_one_search_is_the_report_of_the_searches_alone(kind, domain, p0):
    psi = sqrt_dip_psi() if kind == "W_hat" else psi_pool()[2]
    shared, alone = _shared(kind, _diverging_from(p0), psi, domain), _alone(kind, _diverging_from(p0), psi, domain)
    assert _bits(shared) == _bits(alone)
    assert math.isinf(shared.full.value)
    # the report reads its window and verdicts off the +inf result too:
    # P = 200 on every route, and the right side is not applicable
    assert shared.kind == ("restricted" if kind == "Z" else "discrete")
    assert shared.window_p == 200.0
    assert shared.left_ok and shared.right_ok and shared.ok


def test_a_non_monotone_psi_on_the_w_route_is_raised_after_a_clean_inner_norm():
    dip, q = sqrt_dip_psi(), integer_grid(256)
    # the inner norm is clean: the monotone test decides
    with pytest.raises(NonMonotoneError):
        sandwich_check_discrete(gaussian_model(), dip, q)
    # the inner norm meets a NaN: its error comes first
    nan_dip = GeneratingFunction(lambda p: np.where(np.asarray(p) == 7.0, np.nan, dip.evaluator(p)))
    shared = _raised(lambda: sandwich_check_discrete(gaussian_model(), nan_dip, q))
    assert shared[0] is DomainError and "p=7.0" in shared[1]
    # the inner norm is clean and the full norm's scan meets a NaN on (7.2,
    # 7.8), between the grid points: the full norm's error comes before the
    # monotone test
    nan_full = GeneratingFunction(
        lambda p: np.where((np.asarray(p) > 7.2) & (np.asarray(p) < 7.8), np.nan, dip.evaluator(p))
    )
    discrete_norm(gaussian_model(), nan_full, q.truncated(200))
    shared = _raised(lambda: sandwich_check_discrete(gaussian_model(), nan_full, q))
    assert shared == _raised(lambda: gls_norm(gaussian_model(), nan_full, 200.0))
    assert shared[0] is DomainError and "NaN" in shared[1]


@pytest.mark.parametrize("use_w_hat, psi, message", [
    (False, psi_pool()[2], "W needs at least two grid points"),
    (True, psi_pool()[2], "W^ needs at least two grid points"),
    (True, sqrt_dip_psi(), "W^ needs at least two grid points"),
    # a psi that is not its own envelope meets W's monotone test first, whose
    # window [1, 1] is too short as well
    (False, sqrt_dip_psi(), "the monotone test needs a window [1, end] with end > 1, got 1"),
])
def test_a_one_point_window_is_a_domain_error_naming_the_short_grid(use_w_hat, psi, message):
    # p_max = 1 cuts the window at q(1) = 1: one grid point and no cell
    kind, text = _raised(lambda: sandwich_check_discrete(gaussian_model(), psi, integer_grid(60), 1.0,
                                                         use_w_hat=use_w_hat))
    assert kind is DomainError and message in text
    # the full norm of W^ over the window [1, 1] is the ratio at p = 1
    one_point = integer_grid(60).truncated(1)
    assert _cellwise_full_norm(gaussian_model(), psi, one_point) == gls_norm(gaussian_model(), psi, 1.0)


# ---------------------------------------------------------------------------
# Plug-in warnings, the CLI, the tracer


def _warnings_of(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [str(w.message) for w in caught]


def test_the_plugin_warnings_of_a_small_sample_are_the_searches_alone():
    model = EmpiricalModel(np.random.default_rng(60).standard_normal(60))
    psi = make_power_slowvary(PowerSlowVaryParams(r=8.0, delta=0.0))
    for kind, domain in (("Z", set_from_spec("intervals:1-3,25-25,30-inf")), ("W", integer_grid(120)),
                         ("W_hat", integer_grid(120))):
        case = (kind, model, sqrt_dip_psi() if kind == "W_hat" else psi, domain, 100.0)
        shared = _warnings_of(lambda: _shared(*case))
        assert shared and shared == _warnings_of(lambda: _alone(*case))


@pytest.mark.filterwarnings("default::glspace.MomentInstabilityWarning")
def test_norm_on_a_set_and_a_grid_prints_the_warnings_it_printed(capsys, tmp_path):
    path = tmp_path / "s60.txt"
    np.savetxt(path, np.random.default_rng(60).standard_normal(60))
    code = main(["norm", "--model", f"empirical:{path}", "--psi", "power_slowvary(r=8, delta=0)",
                 "--set", "intervals:1-3,25-25,30-inf", "--grid", "integers:M=40", "--p-max", "100"])
    err = capsys.readouterr().err
    assert code == 0
    assert err.splitlines() == [
        f"gls: warning: plug-in moment at p={p} with n=60 is dominated by the sample maximum" for p in (25, 100, 40)
    ]


def test_norm_on_a_set_and_a_grid_is_one_search(capsys, monkeypatch):
    argv = ["norm", "--model", "gaussian", "--psi", "power_slowvary(r=2, delta=0.5)",
            "--set", "intervals:1-3,9-inf", "--grid", "geometric:D=2:M=8"]
    code, out = main(argv), capsys.readouterr().out
    calls = []
    real = norms.sup_rows
    monkeypatch.setattr(norms, "sup_rows", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert (main(argv), capsys.readouterr().out) == (code, out)
    assert calls == [1]
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5))
    restricted = gls_norm(gaussian_model(), psi, 200.0, set_from_spec("intervals:1-3,9-inf"))
    discrete = discrete_norm(gaussian_model(), psi, glspace.cli.grid_from_spec("geometric:D=2:M=8"))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(row["value"]) for row in rows] == [restricted.value, discrete.value]


def test_every_name_the_benchmark_tracer_patches_resolves():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for owner, names in (
        (norms, ("gls_norm", "discrete_norm", "_cellwise_full_norm", "_ratio_fn", "z_constant", "w_constant",
                 "w_hat_constant", "grid_refine_supremum")),
        (glspace.grids, ("sampled_min",)),
        (search, ("golden_section_max",)),
    ):
        for name in names:
            assert name in owner.__dict__, f"{owner.__name__}.{name}"
    # a one-argument pair, as the tracer's counting wrapper calls it
    num, den = norms._ratio_fn(gaussian_model(), psi_pool()[0])(np.array([1.0, 2.0]))
    assert num.shape == den.shape == (2,)
    before = {name: norms.__dict__[name] for name in ("gls_norm", "_ratio_fn", "sandwich_check_discrete")}
    Tracer().install(glspace).restore()
    assert before == {name: norms.__dict__[name] for name in before}


def test_a_constant_model_sandwich_is_exact():
    rep = sandwich_check_restricted(constant_model(2.0), psi_pool()[0], set_fixtures()[0])
    assert rep.inner_value == rep.full_value == rep.inner.value == rep.full.value


# The array calls of the W^ full norm's search (RowSupremum.calls) in the
# check of each sandwich model under sqrt_dip on integer_grid(256) to
# p_max 200: the scan, then one call a guessed round for the one or two
# brackets the envelope leaves.  When every round after the first aimed at
# the bracket's best point so far, the checks made 9, 13, 6, 11, 11 and 11
# calls.  Aimed at the parabola vertex of the inner point golden section
# keeps and its bracket neighbours, they make these, with the same bits.
# uniform01's moments round differently on NumPy's baseline loops, and its
# search takes one round more there, at both aims (14 calls before).
_W_HAT_CALLS = {"gaussian": {5}, "uniform01": {9, 10}, "exponential": {4}, "rademacher": {7}, "constant:2": {7},
                "constant:5.5": {7}}
_W_HAT_CALLS_AIMED_AT_THE_BEST_POINT = {
    "gaussian": 9, "uniform01": 13, "exponential": 6, "rademacher": 11, "constant:2": 11, "constant:5.5": 11,
}


def test_w_hat_checks_count_their_calls_and_take_fewer_rounds_than_when_aimed_at_the_best_point(monkeypatch):
    found, real = [], norms.sup_rows
    monkeypatch.setattr(norms, "sup_rows", lambda *a, **kw: found.append(real(*a, **kw)) or found[-1])
    models = [*_closed_form_pool(np.random.default_rng(0))[:4], constant_model(2.0), constant_model(5.5)]
    for model in models:
        found.clear()
        sandwich_check_discrete(model, sqrt_dip_psi(), integer_grid(256), 200.0, use_w_hat=True)
        (calls,) = [res.calls for res in found]
        assert calls in _W_HAT_CALLS[model.label]
        assert calls < _W_HAT_CALLS_AIMED_AT_THE_BEST_POINT[model.label]
