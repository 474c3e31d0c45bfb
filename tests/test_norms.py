"""Norm computations and the two-sided sandwich checks."""

import dataclasses
import math
import tracemalloc
import warnings
from itertools import count, takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    ClosedFormModel,
    DivergentMomentError,
    DomainError,
    EmpiricalModel,
    EquivalenceConstant,
    GeneratingFunction,
    GridSequence,
    GroupFunctionModel,
    NonMonotoneError,
    NormResult,
    PowerSlowVaryParams,
    RandomVariableModel,
    RestrictedSet,
    SandwichReport,
    TruncationError,
    algebra_check,
    constant_model,
    convolve,
    cyclic_group,
    default_p_max,
    dihedral_group,
    discrete_norm,
    exponential_model,
    gaussian_model,
    geometric_grid,
    gls_norm,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    rademacher_model,
    raw_power_slowvary,
    sandwich_check_discrete,
    sandwich_check_restricted,
    set_fixtures,
    set_from_spec,
    sqrt_dip_psi,
    symmetric_group,
    uniform01_model,
)
from glspace import norms, search
from glspace.norms import NormResult, _cellwise_full_norm, _ratio_fn, gls_norms
from glspace.search import grid_refine_supremum, sup_rows
from glspace.suites import psi_pool
from quadrature_models import DensityModel, ScaledModel


def root_psi():
    return make_power_slowvary(PowerSlowVaryParams(r=2.0))


def linear_psi():
    return make_power_slowvary(PowerSlowVaryParams(r=1.0))


def test_gaussian_root_norm_peaks_at_one():
    res = gls_norm(gaussian_model(), root_psi())
    assert res.value == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert res.arg_p == 1.0
    assert res.decreasing_at_hi


def test_uniform_root_norm():
    res = gls_norm(uniform01_model(), root_psi())
    assert res.value == pytest.approx(0.5, rel=1e-12)
    assert res.arg_p == 1.0


def test_natural_psi_norm_is_the_first_moment():
    g = gaussian_model()
    res = gls_norm(g, natural_psi(g))
    # the ratio is identically |f|_1 by construction
    assert res.value == pytest.approx(g.lp_norm(1.0), rel=1e-12)


@pytest.mark.parametrize(
    "make",
    [rademacher_model, uniform01_model, lambda: EmpiricalModel(np.random.default_rng(3).standard_normal(40))],
    ids=["rademacher", "uniform01", "sample"],
)
def test_the_models_own_natural_psi_notes_a_constant_ratio_and_keeps_every_other_field(make):
    # the same psi on a twin of the model is not the model's own: the ratio
    # is taken by two calls, and the edge evidence speaks.  Under its own
    # psi the ratio is |f|_1 at every p, so a scan row is read at its start
    # only, and the exact points as before: on [1, p_max] the value is |f|_1
    # exactly, at p = 1, where the twin's full search may end up 1 ulp above
    # it at a later p (not for rademacher, a constant |f| under a
    # nondecreasing psi, which reads its row start too).  Every other field
    # but the count is the twin's.  A grid is exact points only, evaluated
    # alike, so it keeps every field
    model = make()
    own, twin = natural_psi(model), natural_psi(make())
    p_max = default_p_max(model)
    m1 = model.lp_norm(1.0)
    for rset in (None, MIXED_SET):
        res, res_twin = gls_norm(model, own, p_max, rset), gls_norm(model, twin, p_max, rset)
        assert res.constant_ratio and not res_twin.constant_ratio
        assert res.diagnostics == "ratio constant under the model's own natural psi"
        assert res.value in (res_twin.value, np.nextafter(res_twin.value, -math.inf))
        if rset is None:
            assert (res.value, res.arg_p) == (m1, 1.0)
        moved = dict(value=res_twin.value, arg_p=res_twin.arg_p, n_evaluations=res_twin.n_evaluations)
        assert _fields(dataclasses.replace(res, constant_ratio=False, **moved)) == _fields(res_twin)
    res, res_twin = discrete_norm(model, own, integer_grid(10)), discrete_norm(model, twin, integer_grid(10))
    assert res.constant_ratio and res.diagnostics == "ratio constant under the model's own natural psi"
    assert _fields(dataclasses.replace(res, constant_ratio=False)) == _fields(res_twin)


def test_p_max_must_be_at_least_one():
    with pytest.raises(DomainError):
        gls_norm(gaussian_model(), root_psi(), p_max=0.5)


def test_discrete_norm_of_a_constant():
    res = discrete_norm(constant_model(5.0), root_psi(), integer_grid(10))
    assert res.value == 5.0
    assert res.arg_p == 1.0 and res.arg_index == 1
    assert res.truncation_p_max == 10.0


def test_discrete_norm_gaussian_on_integers():
    g = gaussian_model()
    res = discrete_norm(g, root_psi(), integer_grid(50))
    assert res.value == pytest.approx(g.lp_norm(1.0), rel=1e-13)
    assert res.arg_index == 1
    assert res.decreasing_at_hi


@pytest.mark.parametrize("delta, value", [(-700.0, "0"), (5000.0, "inf")])
def test_psi_out_of_range_in_the_window_names_the_first_scan_point(delta, value):
    # psi underflows (overflows) from p = 16.27 (1.17) on, where the moment
    # is finite: the norm is neither +inf nor the finite sup of a ratio 0
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=delta))
    xs = np.geomspace(1.0, 200.0, 512)
    with np.errstate(over="ignore"):
        vals = psi.evaluator(xs)
        with pytest.raises(DomainError) as exc:
            gls_norm(gaussian_model(), psi, 200.0)
    p = float(xs[np.argmax((vals <= 0.0) | (vals == math.inf))])
    assert str(exc.value) == (
        f"power_slowvary(r=2, delta={delta:g}): psi(p) = {value} at p={p!r}; psi must be finite and positive"
    )


def test_divergent_moments_give_infinite_norms():
    pareto = DensityModel(
        "pareto3", lambda x: 2.0 / x ** 3 if x >= 1.0 else 0.0, (1.0, np.inf)
    )
    res = gls_norm(pareto, root_psi(), p_max=10.0)
    assert math.isinf(res.value)
    assert "divergent" in res.diagnostics
    dres = discrete_norm(pareto, root_psi(), integer_grid(5))
    assert math.isinf(dres.value)


def test_homogeneity_of_all_three_norms():
    g = gaussian_model()
    psi = root_psi()
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    q = geometric_grid(2, 10)
    for alpha in (-2.0, 0.5, 3.0):
        s = ScaledModel(g, alpha)
        assert gls_norm(s, psi).value == pytest.approx(
            abs(alpha) * gls_norm(g, psi).value, rel=1e-12
        )
        assert gls_norm(s, psi, rset=S).value == pytest.approx(
            abs(alpha) * gls_norm(g, psi, rset=S).value, rel=1e-12
        )
        assert discrete_norm(s, psi, q).value == pytest.approx(
            abs(alpha) * discrete_norm(g, psi, q).value, rel=1e-12
        )


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 31), n=st.integers(60, 150))
def test_triangle_inequality_for_plugin_norms(seed, n):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n)
    g = rng.normal(size=n)
    psi = root_psi()
    nf = gls_norm(EmpiricalModel(f), psi, p_max=20.0).value
    ng = gls_norm(EmpiricalModel(g), psi, p_max=20.0).value
    nfg = gls_norm(EmpiricalModel(f + g), psi, p_max=20.0).value
    assert nfg <= (nf + ng) * (1.0 + 1e-9)


def test_restricted_sandwich_with_the_linear_gap():
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    rep = sandwich_check_restricted(gaussian_model(), linear_psi(), S)
    assert rep.ok
    assert rep.kind == "restricted"
    assert rep.window_p == 200.0
    assert rep.constant.value == 1.5
    assert rep.inner_value <= rep.full_value <= rep.bound * (1.0 + rep.slack)


def _report(inner, full, constant, kind="Z"):
    """A SandwichReport of the given values, windowed at P = 200."""
    norm = lambda v: NormResult(v, 1.0, 200.0, True, 1)
    return SandwichReport("m", "psi", "S", norm(full), norm(inner), EquivalenceConstant(kind, constant, 1.0))


def test_a_sandwich_report_reads_its_window_and_verdicts_off_its_numbers():
    rep = _report(1.0, 1.5, 2.0)
    assert (rep.kind, rep.window_p, rep.bound, rep.slack) == ("restricted", 200.0, 2.0, 1e-9)
    assert rep.left_ok and rep.right_ok and rep.ok
    assert [_report(1.0, 1.0, 1.0, kind).kind for kind in ("W", "W_hat")] == ["discrete", "discrete"]
    # each side holds within the relative slack 1e-9 and fails past it
    assert _report(1.0, 1.0 - 5e-10, 2.0).left_ok and not _report(1.0, 1.0 - 2e-9, 2.0).left_ok
    assert _report(1.0, 2.0 + 1e-9, 2.0).right_ok and not _report(1.0, 2.0 + 4e-9, 2.0).right_ok
    assert not _report(1.0, 0.5, 2.0).ok and not _report(1.0, 3.0, 2.0).ok
    # an infinite constant or norm leaves the right side not applicable
    assert _report(1.0, 5.0, math.inf).right_ok
    assert _report(1.0, math.inf, 2.0).right_ok and _report(math.inf, math.inf, 2.0).ok


def test_restricted_sandwich_on_a_bounded_window():
    B = RestrictedSet.from_intervals([(1.0, 2.0)])
    rep = sandwich_check_restricted(gaussian_model(), root_psi(), B, p_max=2.0)
    # window and set coincide, so the two norms are the same scan
    assert rep.ok and rep.constant.value == 1.0
    assert rep.inner_value == rep.full_value
    with pytest.raises(TruncationError):
        sandwich_check_restricted(gaussian_model(), root_psi(), B, p_max=200.0)


def test_discrete_sandwich_monotone_route():
    rep = sandwich_check_discrete(gaussian_model(), root_psi(), geometric_grid(2, 40))
    assert rep.ok
    assert rep.kind == "discrete"
    assert rep.window_p == 255.0  # first grid point at or past 200
    assert rep.constant.value == pytest.approx(math.sqrt(3.0), rel=1e-13)


def test_discrete_sandwich_dip_needs_the_cell_route():
    with pytest.raises(NonMonotoneError, match=r"^sqrt_dip is not nondecreasing on \[1, 200\]; the W bound does not apply"):
        sandwich_check_discrete(gaussian_model(), sqrt_dip_psi(), integer_grid(256))
    rep = sandwich_check_discrete(
        gaussian_model(), sqrt_dip_psi(), integer_grid(256), use_w_hat=True
    )
    assert rep.ok
    assert rep.constant.kind == "W_hat"
    # the dip hides full-norm mass between grid points
    assert rep.full_value > rep.inner_value


def test_discrete_sandwich_requires_a_long_enough_grid():
    with pytest.raises(TruncationError):
        sandwich_check_discrete(gaussian_model(), root_psi(), integer_grid(50))


def test_default_window():
    assert default_p_max(gaussian_model()) == 200.0
    assert default_p_max(EmpiricalModel(np.ones(1000))) == pytest.approx(
        5.0 * math.log(1000.0)
    )


def nan_above_50_psi():
    """sqrt(p) below p = 50 and NaN above it."""

    def evaluator(p):
        return np.where(np.asarray(p) > 50.0, np.nan, np.sqrt(p))

    return GeneratingFunction(evaluator, "nan_above_50")


def test_nan_ratio_raises_naming_p():
    # the ratio Gamma(p+1)^(1/p) / sqrt(p) increases, so a NaN must not
    # lose silently to the value at p = 1
    with pytest.raises(DomainError, match=r"NaN at p=50\.\d"):
        gls_norm(exponential_model(), nan_above_50_psi())
    with pytest.raises(DomainError, match=r"NaN at p=51\.0"):
        discrete_norm(exponential_model(), nan_above_50_psi(), integer_grid(60))
    with pytest.raises(DomainError, match=r"NaN at p=5[01]\.\d"):
        sandwich_check_discrete(exponential_model(), nan_above_50_psi(), integer_grid(60), p_max=55.0, use_w_hat=True)


def test_an_overflowing_ratio_raises_naming_p():
    # every moment of the constant 1e308 is finite, but psi falls below 1
    # and num / den overflows a float: an error, not a divergent moment
    model, psi = constant_model(1e308), make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=-5.0))
    with pytest.raises(DomainError, match=r"^the searched function overflows a float at p=1\.6"):
        gls_norm(model, psi)
    with pytest.raises(DomainError, match=r"^the searched function overflows a float at p=2\.0$"):
        discrete_norm(model, psi, integer_grid(5))
    # an infinite moment is still a value: the norm is +inf
    infinite = ClosedFormModel("infinite-past-3", lambda p: np.where(np.asarray(p) > 3.0, np.inf, np.sqrt(p)))
    res = gls_norm(infinite, root_psi(), p_max=10.0)
    assert res.value == math.inf and 3.0 < res.arg_p and "divergent" in res.diagnostics


def test_a_grid_set_without_a_generator_is_not_truncated():
    S = RestrictedSet.from_grid(GridSequence([1.0, 2.0, 3.0]))
    res = gls_norm(gaussian_model(), make_power_slowvary(PowerSlowVaryParams(r=4.0)), 50.0, rset=S)
    assert not res.truncated
    assert res.diagnostics == "domain ends within the window; nothing was truncated"


def test_a_grid_set_under_the_largest_p_max_takes_every_finite_point():
    # q(m) = 2^m - 1 overflows a float at m = 1024; the norm is the
    # discrete norm over q(1)..q(1023)
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0))
    res = gls_norm(gaussian_model(), psi, 1e308, rset=RestrictedSet.from_grid(geometric_grid(2, 3)))
    ref = discrete_norm(gaussian_model(), psi, geometric_grid(2, 1023))
    assert (res.value, res.arg_p, res.n_evaluations) == (ref.value, ref.arg_p, 1023)


def _per_segment_norm(model, psi, S, p_max=200.0):
    """gls_norm as a loop: grid_refine_supremum on each interval and a
    scalar ratio call on each point (a grid-backed set's grid values up to
    p_max, stored or not), the best value winning and ties
    going to the smallest p.  The edge evidence is True where the set goes
    no further than p_max, else that of an interval ending at p_max."""
    pair = _ratio_fn(model, psi)

    def ratio(p):
        num, den = pair(p)
        return num / den

    best_val, best_arg, edge = -math.inf, math.inf, S.sup_value <= p_max
    segments = S.segments
    if S.grid is not None:  # a grid-backed set goes on through its grid
        segments = [(q, q) for q in takewhile(lambda q: q <= p_max, map(S.grid.value_at, count(1)))]
    for a, b in segments:
        a, b = max(a, 1.0), min(b, p_max)
        if a > b:
            continue
        if a == b:
            val, arg = float(ratio(a)), a
        else:
            res = grid_refine_supremum(ratio, a, b)
            val, arg = res.value, res.arg
            if b == p_max:
                edge = edge or res.decreasing_at_hi
        if val > best_val or (val == best_val and arg < best_arg):
            best_val, best_arg = val, arg
    return best_val, best_arg, edge


MIXED_SET = RestrictedSet([(1.0, 1.5), (2.0, 2.0), (3.0, 4.5), (6.0, 6.0), (7.25, 7.25), (9.0, math.inf)])


@pytest.mark.parametrize("model", [gaussian_model(), exponential_model()], ids=lambda m: m.label)
@pytest.mark.parametrize("psi", [root_psi(), sqrt_dip_psi()], ids=lambda p: p.description)
def test_norm_over_a_set_equals_a_per_segment_search(model, psi):
    for S in set_fixtures() + [MIXED_SET, RestrictedSet.from_grid(integer_grid(40))]:
        for p_max in (200.0, 6.0):
            res = gls_norm(model, psi, p_max, rset=S)
            val, arg, edge = _per_segment_norm(model, psi, S, p_max)
            assert abs(res.value - val) <= 4 * np.spacing(val), (S.description, p_max)
            assert res.arg_p == arg, (S.description, p_max)
            assert res.decreasing_at_hi == edge, (S.description, p_max)


def _counting(model):
    """``model`` with its moment kernel, the unchecked _lp_norms that a norm
    search calls (lp_norm is its checked wrapper), wrapped to count the
    points asked for."""
    seen = [0]
    kernel = model._lp_norms

    def counted(q):
        seen[0] += np.size(q)
        return kernel(q)

    model._lp_norms = counted
    return model, seen


def pareto3_density():
    """Density 2/x^3 on [1, inf): moments diverge from p = 2."""
    return DensityModel("pareto3", lambda x: 2.0 / x**3, (1.0, math.inf))


def test_evaluation_counts_include_the_call_that_diverged():
    model, seen = _counting(pareto3_density())
    res = _cellwise_full_norm(model, sqrt_dip_psi(), integer_grid(5))
    assert math.isinf(res.value) and res.arg_p == 2.0
    assert res.n_evaluations == seen[0] == 4 * 64
    model, seen = _counting(pareto3_density())
    res = gls_norm(model, root_psi(), rset=set_from_spec("intervals:1-1.5,3-inf"))
    assert math.isinf(res.value) and res.arg_p == 3.0
    assert res.n_evaluations == seen[0] == 2 * 512


def test_evaluation_counts_are_the_points_seen():
    for S in (None, MIXED_SET, RestrictedSet.from_grid(integer_grid(40))):
        model, seen = _counting(gaussian_model())
        res = gls_norm(model, sqrt_dip_psi(), rset=S)
        assert res.n_evaluations == seen[0] > 0
        # a pruned search counts the points of both of its passes
        model, seen = _counting(EmpiricalModel(np.random.default_rng(2).normal(size=400)))
        res = gls_norm(model, root_psi(), default_p_max(model), rset=S)
        assert res.n_evaluations == seen[0] > 0
    model, seen = _counting(gaussian_model())
    assert discrete_norm(model, sqrt_dip_psi(), integer_grid(40)).n_evaluations == seen[0] == 40


def test_restricted_norm_ignores_earlier_set_queries():
    G = RestrictedSet.from_grid(integer_grid(5))
    before = gls_norm(exponential_model(), root_psi(), 200.0, rset=G)
    assert G.contains(100.0)
    after = gls_norm(exponential_model(), root_psi(), 200.0, rset=G)
    assert before == after
    # the norm reads the grid on to p_max = 200, and the set keeps its 5
    # stored points
    assert before.n_evaluations == 200 and len(G.segments) == 5
    assert before.value == pytest.approx(5.296261809217376, rel=1e-12)
    S = set_from_spec("grid:integers:M=5")
    rep = sandwich_check_restricted(exponential_model(), root_psi(), S)
    assert rep.window_p == 200.0
    assert rep.inner_value == pytest.approx(5.296261809217376, rel=1e-12)
    assert len(S.segments) == 5


@pytest.mark.parametrize("short, long, p_max, arg_p", [
    ("grid:geometric:D=2:M=3", "grid:geometric:D=2:M=8", 50.0, 31.0),
    ("grid:integers:M=10", "grid:integers:M=60", 50.0, 50.0),
])
def test_a_grid_set_is_read_past_its_stored_points(short, long, p_max, arg_p):
    # both sets are the grid's values up to p_max, so both norms are one
    # search; at M=3 the ratio rises past the stored q(3) = 7
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0))
    res = gls_norm(gaussian_model(), psi, p_max, rset=set_from_spec(short))
    assert res == gls_norm(gaussian_model(), psi, p_max, rset=set_from_spec(long))
    assert res.arg_p == arg_p
    # a grid that cannot reach p_max within its extension cap
    with pytest.raises(TruncationError, match="did not reach"):
        gls_norm(gaussian_model(), psi, 1e6, rset=set_from_spec("grid:integers:M=3"))


def test_ties_go_to_the_smallest_p():
    model = constant_model(3.0)
    psi = natural_psi(model)  # the ratio is exactly 3 everywhere
    for S in (None, MIXED_SET, RestrictedSet.from_grid(integer_grid(10))):
        res = gls_norm(model, psi, rset=S)
        assert (res.value, res.arg_p) == (3.0, 1.0)
    assert discrete_norm(model, psi, integer_grid(10)).arg_index == 1
    assert _cellwise_full_norm(model, psi, integer_grid(10)).arg_p == 1.0


# ---------------------------------------------------------------------------
# Several models in one search: gls_norms, as algebra_check calls it

# every group order from 1 to 24, non-abelian groups among them, and one
# of 128 elements, whose norms take the pruned scan (under a nondecreasing
# psi) and lockstep refinement
_BATCH_GROUPS = [*(cyclic_group(n) for n in range(1, 25)), dihedral_group(4), symmetric_group(3), dihedral_group(6),
                 symmetric_group(4), cyclic_group(128)]
# the suites' normalized pool, the algebra suite's raw members and sqrt_dip
_BATCH_PSIS = [
    *psi_pool(),
    *(raw_power_slowvary(PowerSlowVaryParams(r, d))
      for r, d in [(1.0, 0.5), (2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (0.5, 1.0)]),
    sqrt_dip_psi(),
]


def _group_values(rng, order: int, shape: str) -> np.ndarray:
    if shape == "zero":
        return np.zeros(order)
    if shape == "normal":
        return rng.standard_normal(order)
    if shape == "uniform":
        return rng.uniform(-1.0, 2.0, order)
    vals = rng.standard_normal(order)
    vals[rng.random(order) < 0.5] = 0.0
    return vals


def _algebra_models(G, f, g):
    """The models of f*g, f and g, in algebra_check's order."""
    return [GroupFunctionModel(G, convolve(G, f, g)), GroupFunctionModel(G, f), GroupFunctionModel(G, g)]


def _fields(res: NormResult) -> tuple:
    """Every field of a NormResult, its floats as their bits."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(res))


@st.composite
def _algebra_case(draw):
    G = draw(st.sampled_from(_BATCH_GROUPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = st.sampled_from(["normal", "uniform", "sparse", "zero"])
    f, g = _group_values(rng, G.order, draw(shapes)), _group_values(rng, G.order, draw(shapes))
    S = draw(st.one_of(st.none(), st.sampled_from(set_fixtures())))
    return G, f, g, draw(st.sampled_from(_BATCH_PSIS)), S


def _searched(call):
    """call()'s result, and whether its search refined in lockstep."""
    lockstep = []
    real = search._golden_lockstep

    def spy(*args, **kw):
        lockstep.append(True)
        return real(*args, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_golden_lockstep", spy)
        return call(), bool(lockstep)


def _same_but_the_route(shared: NormResult, shared_lockstep: bool, alone: NormResult, own_lockstep: bool):
    """``shared`` has every field of ``alone``.  Where the shared search
    went lockstep and the model's own search speculated (more than
    SCALAR_BRACKETS brackets in all, at most SCALAR_BRACKETS of the
    model's), the count may be lower: lockstep asks for no point off
    golden section's path, speculation for the points of its wrong guesses
    too."""
    if shared_lockstep and not own_lockstep:
        assert shared.n_evaluations <= alone.n_evaluations
        shared = dataclasses.replace(shared, n_evaluations=alone.n_evaluations)
    assert _fields(shared) == _fields(alone)


def _per_model_kernel(psi, models):
    """A stand-in for norms._stacked_ratio: each search's (num, den) from
    its model's own _ratio_fn pair, one call per search."""
    pairs = [_ratio_fn(model, psi) for model in models]

    def pair(p, at):
        got = [f(p[lo:hi]) for f, lo, hi in zip(pairs, at, at[1:]) if hi > lo]
        return tuple(np.concatenate(a) for a in zip(*got))

    return pair


def _per_model_ratios(call):
    """call() with every model's ratio its own _ratio_fn pair, in the same
    shared search."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(norms, "_stacked_ratio", _per_model_kernel)
        return call()


@settings(max_examples=60)
@given(case=_algebra_case())
def test_one_search_gives_every_model_its_one_model_result(case):
    G, f, g, psi, S = case
    models = _algebra_models(G, f, g)
    stacked = []
    real = norms._stacked_ratio

    def spy(psi, models):
        stacked.append(len(models))
        return real(psi, models)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(norms, "_stacked_ratio", spy)
        batched, lockstep = _searched(lambda: gls_norms(models, psi, 200.0, S))
    # the three ratios are one _stacked_ratio, and every field, the count
    # included, is the one the per-model ratios give; where some ratios
    # cannot rise and others can (g = 0 under a nondecreasing psi), the
    # shared search is given up and every model searches alone
    flat = {psi.nondecreasing and norms._abs_constant(model) for model in models}
    assert stacked == ([3] if len(flat) == 1 else [])
    per_model = _per_model_ratios(lambda: gls_norms(models, psi, 200.0, S))
    assert [_fields(r) for r in batched] == [_fields(r) for r in per_model]
    for res, model in zip(batched, models):
        _same_but_the_route(res, lockstep, *_searched(lambda: gls_norm(model, psi, 200.0, S)))


def test_the_route_counts_the_brackets_of_every_model(monkeypatch):
    # with room for 2 speculating brackets per search, the 2 + 2 + 1
    # brackets of the three models go lockstep together while each model
    # alone speculates; the bits stay.  The psi declares no envelope, so
    # no bracket at a row end is certified away
    monkeypatch.setattr(search, "SCALAR_BRACKETS", 2)
    G = dihedral_group(6)
    rng = np.random.default_rng(8)
    models = _algebra_models(G, rng.standard_normal(12), rng.standard_normal(12))
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0, delta=-0.1))
    assert psi.envelope is None
    batched, lockstep = _searched(lambda: gls_norms(models, psi, 30.0))
    alone = [_searched(lambda: gls_norm(m, psi, 30.0)) for m in models]
    assert lockstep and not any(own_lockstep for _, own_lockstep in alone)
    for res, own in zip(batched, alone):
        _same_but_the_route(res, lockstep, *own)
    assert sum(r.n_evaluations for r in batched) < sum(r.n_evaluations for r, _ in alone)


@pytest.mark.parametrize("cap", [2, 4])
def test_one_bracket_cap_counts_the_brackets_of_every_model(monkeypatch, cap):
    # the 1 + 2 + 1 brackets of these three models refine in guessed rounds
    # under a cap of 4; under 2 (or 3) they are more than the cap, so psi's
    # own envelope rules one out and the three left refine in lockstep
    # (under 3, in guessed rounds).  Each model alone, of at most 2
    # brackets, refines in guessed rounds; every model keeps its alone bits
    monkeypatch.setattr(search, "SCALAR_BRACKETS", cap)
    G = dihedral_group(6)
    rng = np.random.default_rng(6)
    models = _algebra_models(G, rng.standard_normal(12), rng.standard_normal(12))
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0, delta=0.0))
    batched, lockstep = _searched(lambda: gls_norms(models, psi, 30.0))
    alone = [_searched(lambda: gls_norm(m, psi, 30.0)) for m in models]
    assert lockstep == (cap < 4) and not any(own_lockstep for _, own_lockstep in alone)
    for res, own in zip(batched, alone):
        _same_but_the_route(res, lockstep, *own)


def _diverging_from(p0: float) -> ClosedFormModel:
    """|f|_p = sqrt(p) below p0; a DivergentMomentError naming the first p
    at or past p0 of a call."""

    def moments(p):
        past = np.atleast_1d(p) >= p0
        if past.any():
            raise DivergentMomentError(float(np.atleast_1d(p)[past][0]))
        return np.sqrt(p)

    return ClosedFormModel(f"diverging-from-{p0:g}", moments)


@pytest.mark.parametrize("at", [0, 1, 2])
def test_an_infinite_norm_in_one_search_is_the_one_model_result(at):
    models = [gaussian_model(), uniform01_model(), exponential_model()]
    models[at] = _diverging_from(3.0)
    for S in (None, MIXED_SET):
        batched = gls_norms(models, root_psi(), 200.0, S)
        assert math.isinf(batched[at].value)
        assert [_fields(r) for r in batched] == [_fields(gls_norm(m, root_psi(), 200.0, S)) for m in models]


@pytest.mark.parametrize(
    "psi", [nan_above_50_psi(), make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=-700.0))], ids=["nan", "underflow"]
)
def test_an_error_in_one_search_is_the_first_models_error(psi):
    G = dihedral_group(4)
    rng = np.random.default_rng(4)
    models = [gaussian_model(), *_algebra_models(G, rng.standard_normal(8), rng.standard_normal(8))]
    with pytest.raises(DomainError) as alone:
        gls_norm(models[0], psi)
    with pytest.raises(DomainError) as batched:
        gls_norms(models, psi)
    assert str(batched.value) == str(alone.value)
    # a model whose own search gets through still gets the error of the
    # first model that does not
    models[0] = _diverging_from(3.0)
    with pytest.raises(DomainError) as alone:
        gls_norm(models[1], psi)
    with pytest.raises(DomainError) as batched:
        gls_norms(models, psi)
    assert str(batched.value) == str(alone.value)


class _OwnRatio(RandomVariableModel):
    """The moments of ``model`` through a model that is not a power mean, so
    that its ratio keeps its own _ratio_fn pair in a shared search (plain
    power means of several models share one _stacked_ratio)."""

    def __init__(self, model):
        self.model, self.label = model, model.label

    def lp_norm(self, p):
        return self.model.lp_norm(p)


def test_a_search_that_recovers_from_an_error_counts_as_the_one_model_searches(monkeypatch):
    # g's ratio raises on its second array call, the first speculative
    # round: its own search goes on one bracket at a time and gets through.
    # The shared search would send the brackets of f*g and f that way too
    # and count other points for them, so it is given up for the three
    # one-model searches.  g's moments reach it through _OwnRatio: a power
    # mean's ratio is evaluated with the others' and never raises alone
    G = dihedral_group(6)
    rng = np.random.default_rng(6)
    models = _algebra_models(G, rng.standard_normal(12), rng.standard_normal(12))
    models[2] = _OwnRatio(models[2])
    psi = make_power_slowvary(PowerSlowVaryParams(r=4.0, delta=0.0))
    clean = [gls_norm(m, psi, 30.0) for m in models]
    real = norms._ratio_fn

    def failing_once(model, psi):
        pair = real(model, psi)
        if model is not models[2]:
            return pair
        arrays = [0]

        def second_array_call_raises(p):
            if isinstance(p, np.ndarray):
                arrays[0] += 1
                if arrays[0] == 2:
                    raise DomainError("no value in the first round")
            return pair(p)

        return second_array_call_raises

    monkeypatch.setattr(norms, "_ratio_fn", failing_once)
    alone = [gls_norm(m, psi, 30.0) for m in models]
    assert (alone[2].value, alone[2].arg_p) == (clean[2].value, clean[2].arg_p)
    assert alone[2].n_evaluations != clean[2].n_evaluations
    assert [_fields(r) for r in gls_norms(models, psi, 30.0)] == [_fields(r) for r in alone]


def test_algebra_check_searches_its_three_norms_at_once(monkeypatch):
    G = cyclic_group(12)
    rng = np.random.default_rng(12)
    f, g = rng.standard_normal(12), rng.standard_normal(12)
    psi = make_power_slowvary(PowerSlowVaryParams(r=3.0, delta=-1.0))
    alone = [gls_norm(m, psi) for m in _algebra_models(G, f, g)]
    searches = []

    def spy(f, xs, *args, **kw):
        searches.append(xs.shape[0])
        return sup_rows(f, xs, *args, **kw)

    monkeypatch.setattr(norms, "sup_rows", spy)
    rep = algebra_check(G, f, g, psi)
    assert searches == [3]
    assert (rep.conv_norm, rep.f_norm, rep.g_norm) == tuple(r.value for r in alone)


# ---------------------------------------------------------------------------
# The stacked ratio: power means of several models and one psi per array call


def _counted_psi(psi):
    """``psi`` with an evaluator that counts its calls."""
    calls = [0]

    def evaluator(p):
        calls[0] += 1
        return psi.evaluator(p)

    return dataclasses.replace(psi, evaluator=evaluator), calls


@pytest.mark.parametrize("S", [None, set_fixtures()[11], MIXED_SET], ids=["full", "with-a-point", "mixed"])
def test_a_shared_algebra_search_asks_psi_once_per_array_call(monkeypatch, S):
    G = cyclic_group(12)
    rng = np.random.default_rng(12)
    f, g = rng.standard_normal(12), rng.standard_normal(12)
    psi, calls = _counted_psi(make_power_slowvary(PowerSlowVaryParams(r=3.0, delta=-1.0)))
    # psi(1), the check's constant, is asked for once, on its first read
    psi.value_at_one, psi.value_at_one
    assert calls == [1]
    calls[0] = 0
    arrays = [0]
    for owner in (norms, search):
        real = owner._eval_parts

        def counted(parts, xs, rows, real=real):
            arrays[0] += xs.size > 0
            return real(parts, xs, rows)

        monkeypatch.setattr(owner, "_eval_parts", counted)
    rep = algebra_check(G, f, g, psi, S)
    assert calls[0] == arrays[0] > 1
    # each model alone asks psi once per array call of its own search
    calls[0] = arrays[0] = 0
    alone = [gls_norm(m, psi, 200.0, S) for m in _algebra_models(G, f, g)]
    assert calls[0] == arrays[0]
    assert (rep.conv_norm, rep.f_norm, rep.g_norm) == tuple(r.value for r in alone)


def test_equal_domains_share_read_only_scan_rows():
    norms._scan_rows.cache_clear()
    model = gaussian_model()
    for S in (None, MIXED_SET, set_fixtures()[4]):
        rows = norms.domain_search(model, 200.0, S).rows
        assert norms.domain_search(uniform01_model(), 200.0, S).rows is rows
        assert norms.domain_search(model, 200.0, RestrictedSet(list(S.segments)) if S else None).rows is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 1] = 2.0
        assert rows[0, 0] == 1.0 and np.all(np.diff(rows, axis=1) > 0.0)
    # one row per interval, the ends exact, the bits of one geomspace per
    # domain
    rows = norms.domain_search(model, 30.0, MIXED_SET).rows
    lo, hi = np.array([(1.0, 1.5), (3.0, 4.5), (9.0, 30.0)]).T
    expect = np.geomspace(lo, hi, norms._SCAN_POINTS, axis=1)
    expect[:, 0], expect[:, -1] = lo, hi
    assert rows.tobytes() == expect.tobytes()
    # the W^ cells of equal grids share theirs too: one row of _CELL_POINTS
    # evenly spaced points per cell, the ends exact, the bits of one
    # linspace per grid
    q = integer_grid(40)
    cells = norms._cell_search(model, q).rows
    assert norms._cell_search(uniform01_model(), integer_grid(40)).rows is cells
    with pytest.raises(ValueError, match="read-only"):
        cells[0, 1] = 2.0
    v = q.values
    expect = np.linspace(v[:-1], v[1:], norms._CELL_POINTS, axis=1)
    expect[:, 0], expect[:, -1] = v[:-1], v[1:]
    assert cells.tobytes() == expect.tobytes()
    # a grid of one point has no cell
    assert norms._cell_search(model, integer_grid(1)).rows.shape == (0, norms._CELL_POINTS)
    # a different p_max is a different domain; the memo stays bounded
    for p_max in np.linspace(2.0, 200.0, 100):
        norms.domain_search(model, float(p_max), S)
    info = norms._scan_rows.cache_info()
    assert info.currsize == info.maxsize <= 64


@pytest.mark.parametrize("G", [cyclic_group(24), symmetric_group(4), cyclic_group(512)], ids=lambda G: G.name)
def test_an_algebra_check_peaks_no_higher_than_with_per_model_ratios(G):
    rng = np.random.default_rng(G.order)
    f, g = rng.standard_normal(G.order), rng.standard_normal(G.order)
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5))
    models = _algebra_models(G, f, g)

    def peak(call):
        call()  # the scan row's memo entry and the models' states are made outside
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the search alone, and the whole check, whose convolution dominates
    # on a large group
    for call in (lambda: gls_norms(models, psi), lambda: algebra_check(G, f, g, psi)):
        assert peak(call) <= _per_model_ratios(lambda: peak(call))


def test_only_a_zero_model_is_noted_as_an_exact_zero():
    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.0))
    zero = gls_norm(constant_model(0.0), psi)
    assert (zero.value, zero.zero_model) == (0.0, True)
    assert zero.diagnostics == "f = 0 almost surely (|f|_1 = 0); norm is exactly 0"
    # a nonzero model whose ratio underflows to 0.0 everywhere: psi(1) =
    # ln^700(3), about 4e28, under |f| = 1e-300 (and no overflow up to 3)
    tiny = gls_norm(constant_model(1e-300), raw_power_slowvary(PowerSlowVaryParams(r=2.0, delta=700.0)), 3.0)
    assert (tiny.value, tiny.zero_model) == (0.0, False)
    assert "exactly 0" not in tiny.diagnostics


def test_a_norm_in_a_loop_shows_its_plugin_warning_once():
    # the search's repeat calls are quiet without a change to the warnings
    # filters, whose every change resets the record of the warnings already
    # shown: under the default filter, the second norm shows nothing new
    model = EmpiricalModel(np.random.default_rng(5).standard_normal(256))
    psi = sqrt_dip_psi()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("default")
        first, second = gls_norm(model, psi), gls_norm(model, psi)
    assert [str(w.message) for w in seen] == ["plug-in moment at p=200 with n=256 is dominated by the sample maximum"]
    assert first == second
