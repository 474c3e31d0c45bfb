"""A norm search reads a natural psi of another model through that model's
moment kernel, and raises the plug-in warnings itself: on each call that
reaches past every earlier call's largest p, the searched model's warning
before the ratio and psi's model's after it.  The lines are pinned as
literals, by model, domain and warnings filter.  A user model as psi's
source gives psi's own DomainError, naming the same p, or +inf where its
moment diverges."""

import warnings

import numpy as np
import pytest

from glspace import (
    DivergentMomentError,
    DomainError,
    MomentInstabilityWarning,
    RandomVariableModel,
    gaussian_model,
    gls_norm,
    natural_psi,
    set_from_spec,
)
from glspace.cli import main
from glspace.models import _check_p, _shaped

_SET = ("--set", "intervals:1-3,25-25,30-inf")
_GRID = ("--grid", "integers:M=40")
_DOMAINS = {"plain": (), "set": _SET, "grid": _GRID, "set-grid": (*_SET, *_GRID)}
# the p of each warning, in the order printed, with --p-max 100: the set's
# exact point 25 first, then its scan's last point, then the grid's search
_TOPS = {"plain": ["100"], "set": ["25", "100"], "grid": ["40"], "set-grid": ["25", "100", "40"]}


@pytest.fixture
def samples(tmp_path):
    """A 60-value and an 80-value sample file, as empirical model specs."""
    specs = []
    for n, scale in ((60, 1.0), (80, 1.3)):
        path = tmp_path / f"s{n}.txt"
        np.savetxt(path, scale * np.random.default_rng(n).standard_normal(n))
        specs.append(f"empirical:{path}")
    return specs


def _run(capsys, action, argv):
    """(exit code, stderr) of ``gls`` with MomentInstabilityWarning under
    the filter ``action``."""
    with warnings.catch_warnings():
        warnings.simplefilter(action, MomentInstabilityWarning)
        code = main(list(argv))
    return code, capsys.readouterr().err


def _line(p: str, n: int) -> str:
    return f"plug-in moment at p={p} with n={n} is dominated by the sample maximum"


@pytest.mark.parametrize("domain", _DOMAINS)
@pytest.mark.parametrize("action", ["default", "always"])
@pytest.mark.parametrize("case", ["gaussian", "constant:2.5", "sample"])
def test_the_rerouted_search_prints_the_same_warning_lines(capsys, samples, case, action, domain):
    s60, s80 = samples
    if case == "sample":
        # the model's line, then psi's model's, at every p
        model, psi, ns = s60, f"natural:{s80}", (60, 80)
    else:
        model, psi, ns = case, f"natural:{s60}", (60,)
    argv = ("norm", "--model", model, "--psi", psi, *_DOMAINS[domain], "--p-max", "100")
    code, err = _run(capsys, action, argv)
    assert code == 0
    assert err == "".join(f"gls: warning: {_line(p, n)}\n" for p in _TOPS[domain] for n in ns)


@pytest.mark.parametrize("domain", ["plain", "set-grid"])
@pytest.mark.parametrize("case", ["gaussian", "sample"])
def test_the_rerouted_search_raises_its_first_warning_as_an_error(capsys, samples, case, domain):
    s60, s80 = samples
    model, psi = (s60, f"natural:{s80}") if case == "sample" else (case, f"natural:{s60}")
    code, err = _run(capsys, "error", ("norm", "--model", model, "--psi", psi, *_DOMAINS[domain], "--p-max", "100"))
    assert code == 1
    assert err == f"gls: {_line(_TOPS[domain][0], 60)}\n"


class _InfPast30(RandomVariableModel):
    """|f|_p = 1 + ln p, and +inf past p = 30."""

    label = "inf-past-30"

    def lp_norm(self, p):
        q = _check_p(p)
        return _shaped(np.where(q > 30.0, np.inf, 1.0 + np.log(q)), q)


class _DivergesPast30(RandomVariableModel):
    """|f|_p = 1 + ln p, and a DivergentMomentError past p = 30."""

    label = "diverges-past-30"

    def lp_norm(self, p):
        q = _check_p(p)
        if (q > 30.0).any():
            raise DivergentMomentError(float(q[q > 30.0].flat[0]))
        return _shaped(1.0 + np.log(q), q)


# the first scan point past p = 30, on [1, 100] and on the set's row [30, 100]
@pytest.mark.parametrize("rset, p", [
    (None, "30.161438787847967"),
    (set_from_spec("intervals:1-3,25-25,30-inf"), "30.070766669224586"),
], ids=["plain", "set"])
def test_a_user_model_whose_moment_is_inf_as_psis_source_raises_psis_error(rset, p):
    with pytest.raises(DomainError) as exc:
        gls_norm(gaussian_model(), natural_psi(_InfPast30()), 100.0, rset)
    assert str(exc.value) == f"natural(inf-past-30): psi(p) = inf at p={p}; psi must be finite and positive"


def test_a_user_model_whose_moment_diverges_as_psis_source_gives_inf():
    res = gls_norm(gaussian_model(), natural_psi(_DivergesPast30()), 100.0)
    assert (res.value, res.arg_p, res.n_evaluations, res.decreasing_at_hi) == (np.inf, 30.161438787847967, 512, False)
    assert res.diagnostics == "divergent moment at p=30.1614; norm is +inf"
