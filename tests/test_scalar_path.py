"""A scalar p reaches the moments and psi as a one-element array and comes
back as a float; it must give the bits of the same p in any array, and a
natural psi must cost one moment per p."""

import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glspace import (
    DomainError,
    EmpiricalModel,
    GroupFunctionModel,
    PowerSlowVaryParams,
    constant_model,
    default_p_max,
    dihedral_group,
    exponential_model,
    gaussian_model,
    gls_norm,
    make_power_slowvary,
    natural_psi,
    psi_eval,
    psi_from_spec,
    rademacher_model,
    raw_power_slowvary,
    sqrt_dip_psi,
    uniform01_model,
)
from glspace.cli import main
from glspace.norms import _ratio_fn

_D6 = dihedral_group(6)
_SAMPLE = EmpiricalModel(np.random.default_rng(5).normal(size=300))

MODELS = {
    "gaussian": gaussian_model(),
    "uniform01": uniform01_model(),
    "exponential": exponential_model(),
    "constant": constant_model(-2.5),
    "rademacher": rademacher_model(),
    "empirical": _SAMPLE,
    "group": GroupFunctionModel(_D6, np.random.default_rng(6).normal(size=12)),
    "group_zero": GroupFunctionModel(_D6, np.zeros(12)),
}

PSIS = {
    "power_slowvary": make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5)),
    "raw_power_slowvary": raw_power_slowvary(PowerSlowVaryParams(r=1.5, delta=1.0)),
    "sqrt_dip": sqrt_dip_psi(),
    "natural_gaussian": natural_psi(gaussian_model()),
    "natural_empirical": natural_psi(_SAMPLE),
}

_P = st.floats(1.0, 200.0)
# beyond p = 5 ln 300 the sample's plug-in moments warn; that is not under test
_quiet = pytest.mark.filterwarnings("ignore::glspace.MomentInstabilityWarning")


def _bits(x) -> str:
    return float(x).hex()


def _assert_one_path(fn, ps):
    """fn at each p as a float and as a 0-d array has the bits of its
    element of fn at the array of all of them."""
    in_array = fn(np.array(ps))
    for p, expect in zip(ps, in_array):
        as_float, as_0d = fn(p), fn(np.array(p))
        assert type(as_float) is float and type(as_0d) is float
        assert _bits(as_float) == _bits(as_0d) == _bits(expect), p


@_quiet
@pytest.mark.parametrize("name", MODELS)
@given(ps=st.lists(_P, min_size=1, max_size=8))
def test_moment_float_path_has_the_array_bits(name, ps):
    _assert_one_path(MODELS[name].lp_norm, ps)


@_quiet
@pytest.mark.parametrize("name", PSIS)
@given(ps=st.lists(_P, min_size=1, max_size=8))
def test_psi_float_path_has_the_array_bits(name, ps):
    psi = PSIS[name]
    _assert_one_path(lambda q: psi_eval(psi, q), ps)


@pytest.mark.parametrize("r, delta", [(1.0, -0.5), (2.0, 0.5), (1.0, 2.5)])
def test_psi_float_path_has_the_bits_of_a_long_array(r, delta):
    # NumPy may take a SIMD pow on an array and libm's on a float, and the
    # two differ in the last place for delta not in {0, 1}: for (r=1,
    # delta=-0.5) about one p in 20 did while a float reached the evaluator
    # as a float
    psi = make_power_slowvary(PowerSlowVaryParams(r=r, delta=delta))
    ps = np.random.default_rng(0).uniform(1.0, 200.0, 2000)
    in_array = psi_eval(psi, ps)
    assert [_bits(psi_eval(psi, p)) for p in ps.tolist()] == [_bits(v) for v in in_array]


@pytest.mark.parametrize("name", MODELS)
def test_float_moment_below_one_is_rejected_naming_p(name):
    with pytest.raises(DomainError, match=r"moments are defined for p >= 1, got 0\.75"):
        MODELS[name].lp_norm(0.75)


@pytest.mark.parametrize("name", PSIS)
def test_float_psi_below_one_is_rejected_naming_p(name):
    with pytest.raises(DomainError, match=r"defined for p >= 1, got 0\.75"):
        psi_eval(PSIS[name], 0.75)


@_quiet
@pytest.mark.parametrize("model", [gaussian_model(), _SAMPLE, MODELS["group"]], ids=["gaussian", "empirical", "group"])
def test_natural_ratio_takes_one_moment_per_p_with_the_two_call_bits(model, monkeypatch):
    psi = natural_psi(model)
    two_call = dataclasses.replace(psi, source=None)
    ps = np.geomspace(1.0, 200.0, 37)
    shared, separate = _ratio_fn(model, psi), _ratio_fn(model, two_call)
    for p in [*ps.tolist(), ps]:
        expect = model.lp_norm(p) / psi_eval(two_call, p)
        for pair in (shared, separate):
            num, den = pair(p)
            np.testing.assert_array_equal(num / den, expect)

    m1 = model.lp_norm(1.0)
    # the moments asked of the model, through lp_norm (psi's evaluator, |f|_1)
    # or its unchecked kernel _lp_norms (the search's points), counted at the
    # outer of the two where one calls the other
    calls, depth = [0], [0]

    def counting(real):
        def counted(self, p):
            calls[0] += np.size(p) * (depth[0] == 0)
            depth[0] += 1
            try:
                return real(self, p)
            finally:
                depth[0] -= 1

        return counted

    for name in ("lp_norm", "_lp_norms"):
        monkeypatch.setattr(type(model), name, counting(getattr(type(model), name)))
    res = gls_norm(model, psi, p_max=60.0)
    one_moment = calls[0]
    calls[0] = 0
    ref = gls_norm(model, two_call, p_max=60.0)
    # the model's own ratio is |f|_1 at every p: its norm reads the row's
    # first point and the last three, the edge evidence, and finds |f|_1
    # exactly at p = 1, where the two-call psi, whose source is not the
    # model, searches the row and may end up 1 ulp above it
    assert (res.value, res.arg_p, res.n_evaluations) == (m1, 1.0, 4)
    assert ref.value in (m1, np.nextafter(m1, np.inf)) and ref.decreasing_at_hi == res.decreasing_at_hi
    # |f|_1 once for the ratio, then one moment per point the ratio saw
    assert one_moment == res.n_evaluations + 1
    assert calls[0] == 2 * ref.n_evaluations


def test_norm_of_a_sample_under_its_own_natural_psi_reads_the_file_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.txt"
    path.write_text("\n".join(map(repr, np.random.default_rng(8).normal(size=400).tolist())))
    spec = f"empirical:{path}"
    reads = [0]
    from_file = EmpiricalModel.from_file.__func__

    def counted(cls, p):
        reads[0] += 1
        return from_file(cls, p)

    monkeypatch.setattr(EmpiricalModel, "from_file", classmethod(counted))
    assert main(["norm", "--model", spec, "--psi", f"natural:{spec}"]) == 0
    assert reads[0] == 1
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    # the psi's model is the norm's: its ratio is |f|_1 at every p, read at
    # the row start, p = 1, as for a model under its own natural psi; the
    # psi of a second object of the same values is a two-call route, which
    # searches the row
    model = EmpiricalModel.from_file(path)
    ref = gls_norm(model, natural_psi(model), default_p_max(model))
    assert row["psi"] == f"natural:{spec}"
    assert (float(row["value"]), float(row["arg_p"])) == (ref.value, ref.arg_p) == (model.lp_norm(1.0), 1.0)
    assert ref.n_evaluations == 4 < gls_norm(model, psi_from_spec(f"natural:{spec}"), default_p_max(model)).n_evaluations
