"""A norm search calls each model's moment kernel (_lp_norms) and psi's
evaluator (psi_values) on its own points, without the p checks of lp_norm
and psi_eval, and tests psi's values once per call.  The kernels give the
bits of their checked wrappers, and a psi that is 0, negative, +inf or NaN
somewhere raises through gls_norm the error of the checked path, naming
the same p."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    DomainError,
    EmpiricalModel,
    GeneratingFunction,
    GroupFunctionModel,
    PowerSlowVaryParams,
    constant_model,
    cyclic_group,
    dihedral_group,
    exponential_model,
    gaussian_model,
    gls_norm,
    make_power_slowvary,
    natural_psi,
    psi_eval,
    rademacher_model,
    raw_power_slowvary,
    sqrt_dip_psi,
    uniform01_model,
)
from glspace import norms
from glspace.generating import psi_values

pytestmark = pytest.mark.filterwarnings("ignore::glspace.MomentInstabilityWarning")

_SAMPLE = EmpiricalModel(np.random.default_rng(5).normal(size=300))
_GROUP = GroupFunctionModel(dihedral_group(6), np.random.default_rng(6).normal(size=12))
MODELS = {
    "gaussian": gaussian_model(),
    "uniform01": uniform01_model(),
    "exponential": exponential_model(),
    "constant": constant_model(-2.5),
    "rademacher": rademacher_model(),
    "empirical": _SAMPLE,
    "group": _GROUP,
    "group_256": GroupFunctionModel(cyclic_group(256), np.random.default_rng(7).normal(size=256)),
    "group_zero": GroupFunctionModel(dihedral_group(6), np.zeros(12)),
}
PSIS = {
    "power_slowvary": make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5)),
    "power_slowvary_negative_delta": make_power_slowvary(PowerSlowVaryParams(r=1.0, delta=-0.5)),
    "raw_power_slowvary": raw_power_slowvary(PowerSlowVaryParams(r=1.5, delta=1.0)),
    "sqrt_dip": sqrt_dip_psi(),
    "natural_gaussian": natural_psi(MODELS["gaussian"]),
    "natural_empirical": natural_psi(_SAMPLE),
    "natural_group": natural_psi(_GROUP),
}

# p in [1, 200], with 1, 2 (the power means' squaring case) and 200 drawn often
_P = st.one_of(st.floats(1.0, 200.0), st.sampled_from([1.0, 2.0, 200.0]))
_PS = st.lists(_P, min_size=1, max_size=40).map(np.array)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", MODELS)
@given(ps=_PS)
def test_the_moment_kernel_gives_the_bits_of_lp_norm(name, ps):
    model = MODELS[name]
    assert _same_bits(model._lp_norms(ps), model.lp_norm(ps))
    # a 2-d array too, as a scan array of rows
    rows = np.stack([ps, ps[::-1]])
    assert _same_bits(model._lp_norms(rows), model.lp_norm(rows))


@pytest.mark.parametrize("name", PSIS)
@given(ps=_PS)
def test_psi_values_gives_the_bits_of_psi_eval(name, ps):
    psi = PSIS[name]
    assert _same_bits(psi_values(psi, ps), psi_eval(psi, ps))


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("psi_name", PSIS)
@settings(max_examples=20)
@given(ps=_PS)
def test_the_ratio_pair_gives_the_bits_of_the_checked_path(model_name, psi_name, ps):
    model, psi = MODELS[model_name], PSIS[psi_name]
    num, den = norms._ratio_fn(model, psi)(ps)
    assert _same_bits(num, model.lp_norm(ps))
    if psi.source is model:
        # one moment serves both parts: den is num / |f|_1, as psi's own
        # evaluator divides
        assert _same_bits(den, model.lp_norm(ps) / model.lp_norm(1.0))
    else:
        assert _same_bits(den, psi_eval(psi, ps))


_BAD = {"zero": 0.0, "negative": -1.0, "inf": np.inf, "nan": np.nan}


def _spoiled(psi: GeneratingFunction, at: float, bad: float) -> GeneratingFunction:
    """``psi`` with the value ``bad`` at every p >= ``at``, its envelope
    kept, so that a pruned scan meets the bad values first where it runs,
    and its source dropped: a natural psi's values are its model's moments
    by declaration, which a search reads through the model's kernel."""
    evaluator = psi.evaluator

    def spoiled(p):
        out = np.array(evaluator(p), dtype=float)
        out[p >= at] = bad
        return out

    return dataclasses.replace(psi, evaluator=spoiled, description=f"spoiled {psi.description}", source=None)


# a model under its own natural psi never asks psi (the ratio is |f|_1), so
# the natural psi is the Gaussian's, under the other models
@pytest.mark.parametrize("model_name, psi_name", [
    (model, psi) for model in ("gaussian", "empirical", "group", "group_256")
    for psi in ("power_slowvary", "sqrt_dip", "natural_gaussian") if (model, psi) != ("gaussian", "natural_gaussian")
])
@pytest.mark.parametrize("how", _BAD)
@settings(max_examples=10, deadline=None)
@given(at=st.floats(1.0, 30.0))
def test_a_bad_psi_raises_the_checked_paths_error_naming_the_same_p(model_name, psi_name, how, at):
    model, psi = MODELS[model_name], _spoiled(PSIS[psi_name], at, _BAD[how])
    p_max = 30.0
    # the scan row, which the search's first call asks for whole: its first
    # p at or past ``at`` is the first bad one
    xs = norms.domain_search(model, p_max).rows[0]
    first = float(xs[np.argmax(xs >= at)])
    if how == "nan":
        expect = f"the searched function is NaN at p={first!r}"
    else:
        with pytest.raises(DomainError) as checked:
            psi_eval(psi, xs)
        expect = str(checked.value)
        assert f"at p={first!r};" in expect
    with pytest.raises(DomainError) as searched:
        gls_norm(model, psi, p_max)
    assert str(searched.value) == expect
