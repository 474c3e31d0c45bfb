"""The chord bound of search._chord_gain, which both the pruning bound and
the end certificate read: over any part [lo, hi] of a cell [a, b] it is
at least ln f - ln f(a), and less ln(f(b) / f(a)) at least ln f - ln f(b),
for a power mean under a psi that promises a concave ln psi; and the
certificate built on it is one golden section cannot beat, where a
certificate with a wrong chord of ln psi or a wrong reach is not."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    EmpiricalModel,
    PowerSlowVaryParams,
    make_power_slowvary,
    raw_power_slowvary,
    set_from_spec,
)
from glspace import norms, search
from glspace.search import _CHORD_MARGIN, _chord_gain, golden_section_max

pytestmark = pytest.mark.filterwarnings("ignore::glspace.models.MomentInstabilityWarning")

# normalized and raw members of the power family with delta >= 0, every
# power-family psi that promises a concave ln psi
PSIS = [make(PowerSlowVaryParams(r, d)) for make in (make_power_slowvary, raw_power_slowvary)
        for r in (0.5, 1.0, 2.0, 4.0, 8.0) for d in (0.0, 0.5, 2.0)]
assert all(psi.envelope == (None, True) for psi in PSIS)

# points of each sub-interval at which ln f is evaluated
DENSE = 129


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(2, 300),
    scale=st.integers(-100, 100),
    psi=st.sampled_from(PSIS),
    a=st.floats(0.0, math.log(200.0)),
    width=st.floats(-12.0, 0.0),
    ends=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4),
)
def test_the_gain_bounds_ln_f_on_every_part_of_a_cell_from_either_end(seed, n, scale, psi, a, width, ends):
    # a cell [a, b] of [1, 200 e] from 1e-12 of a to a wide, and parts of it
    values = np.random.default_rng(seed).standard_normal(n) * 10.0**scale
    model = EmpiricalModel(values)
    a = math.exp(a)
    b = a * (1.0 + 10.0**width)
    lo = np.array([a + min(s, t) * (b - a) for s, t in ends])
    hi = np.array([a + max(s, t) * (b - a) for s, t in ends])
    (num_a, num_b), (den_a, den_b) = model.lp_norm(np.array([a, b])), psi(np.array([a, b]))
    d_num, d_den = math.log(num_b / num_a), math.log(den_b / den_a)
    dense = np.linspace(lo, hi, DENSE, axis=1)
    ln_f = np.log(model.lp_norm(dense) / psi(dense))
    # U - ln f(a) on each part: the pruning bound's arrays and the end
    # certificate's floats, which give the same value
    over = _chord_gain(np.full(lo.size, a), np.full(lo.size, b), np.full(lo.size, d_num), np.full(lo.size, d_den),
                       lo, hi)
    assert over.tolist() == [_chord_gain(a, b, d_num, d_den, x, y) for x, y in zip(lo.tolist(), hi.tolist())]
    # a peak at a, and a peak at b, where ln(f(b) / f(a)) = dL - dl
    assert (ln_f.max(axis=1) - math.log(num_a / den_a) <= over + _CHORD_MARGIN).all()
    assert (ln_f.max(axis=1) - math.log(num_b / den_b) <= over - (d_num - d_den) + _CHORD_MARGIN).all()


def _zeros_and_ones(n: int) -> np.ndarray:
    """n values, half of them 0 and half 1: |f|_p = 2^(-1/p), whose ratio
    to p^(1/r) peaks at p = r ln 2."""
    return np.r_[np.zeros(n // 2), np.ones(n - n // 2)]


def _beaten(certify, tol: float) -> int:
    """The brackets that ``certify`` (_certified's signature) leaves
    unrefined but golden section to ``tol`` beats, on the scan rows of
    gls_norm over [1, 3] and [9, 200] for a ratio that peaks at p = 9.02,
    inside the first cell [9, 9.0547] of the second row, nearer its left
    end: the scan peaks at p = 9, and only refinement finds the higher
    value."""
    model = EmpiricalModel(_zeros_and_ones(256))
    psi = make_power_slowvary(PowerSlowVaryParams(r=9.02 / math.log(2.0), delta=0.0))
    xs = norms.domain_search(model, 200.0, set_from_spec("intervals:1-3,9-inf")).rows
    pair = norms._ratio_fn(model, psi)
    num, den = pair(xs)
    ys = num / den
    r, i, il, ih, k, _ = search._brackets(xs, ys, None)
    count = 0
    for j in k[certify(xs, ys, num, den, r[k], i[k], tol)].tolist():
        row, lo, hi = r[j], il[j], ih[j]
        found = golden_section_max(lambda p: float(np.divide(*pair(p))), float(xs[row, lo]), float(xs[row, hi]), tol,
                                   f_lo=float(ys[row, lo]), f_hi=float(ys[row, hi]))
        count += found != (xs[row, i[j]], ys[row, i[j]])
    return count


# a stopping width wider than the first cell: golden section on [9, 9.0547]
# evaluates its first two points, 0.382 of the cell from either end, and stops
COARSE = 1.0


@pytest.mark.parametrize("tol", [search._REFINE_TOL, COARSE], ids=["refine-tol", "coarse"])
def test_the_certificate_leaves_no_bracket_golden_section_beats(tol):
    assert _beaten(search._certified, tol) == 0


def test_the_certificate_test_catches_a_den_chord_from_psi_b_alone():
    # the mutation dl = ln psi(b), not ln(psi(b) / psi(a)): psi(a) = 1 at
    # the start of each cell reads den as psi(b) alone
    def psi_b_alone(xs, ys, num, den, r, i, tol):
        den = den.copy()
        den[:, [0, -2]] = 1.0
        return search._certified(xs, ys, num, den, r, i, tol)

    assert _beaten(psi_b_alone, search._REFINE_TOL) > 0


def test_the_certificate_test_catches_a_reach_without_its_factor(monkeypatch):
    # the mutation that takes golden section's reach to be min(b - a, its
    # stopping width), not _REACH of it: golden section comes to 0.236 of it
    monkeypatch.setattr(search, "_REACH", 1.0)
    assert _beaten(search._certified, COARSE) > 0
