"""Power means, the power family psi and the closed-form moments against a
40-digit ``decimal`` reference.

The power mean's reference is ((1/n) sum a^p)^(1/p) evaluated in
``decimal`` from the exact values of the doubles a and p; models.power_mean
must stay within a few units in the last place of it, for a scalar p and
for an array of p, on the sample that takes the plain pow and on the one
whose large p skip the terms that underflow (models._row_powers).  The
psi reference is p^(1/r) ln^delta(2 + p), divided by ln^delta(3) for the
normalized member, by Decimal.ln and exp.  The closed forms' reference is
|f|_p at integer and half-integer arguments of Gamma, where Gamma is a
factorial or (2n)! sqrt(pi) / (4^n n!), with pi from the recipe of the
``decimal`` documentation.  search._CHORD_MARGIN's error budget takes
all three bounds."""

import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from glspace import (
    PowerSlowVaryParams,
    exponential_model,
    gaussian_model,
    make_power_slowvary,
    raw_power_slowvary,
    uniform01_model,
)
from glspace.models import PowerMeanState, power_mean

# the largest error allowed, in units in the last place of the reference
MAX_ULP = 4.0
P_SET = np.concatenate((np.geomspace(1.0, 200.0, 24), [1.5, 2.0, 3.0, 1e3, 5e3]))


def _abs_sample(n: int, seed: int) -> np.ndarray:
    """|normal| values with every 7th one set to 0.0."""
    values = np.abs(np.random.default_rng(seed).standard_normal(n))
    values[::7] = 0.0
    return values


def _reference(values: np.ndarray, p: float) -> Decimal:
    with localcontext(Context(prec=40)):
        q = Decimal(float(p))
        total = sum(Decimal(float(a)) ** q for a in values if a > 0.0)
        return (total / len(values)) ** (1 / q)


def _ulp_error(got: float, want: Decimal) -> float:
    with localcontext(Context(prec=40)):
        return float(abs(Decimal(got) - want) / Decimal(math.ulp(float(want))))


@pytest.mark.parametrize("n, seed", [(60, 1), (200, 2)])
def test_power_mean_is_within_a_few_ulp_of_the_decimal_reference(n, seed):
    values = _abs_sample(n, seed)
    state = PowerMeanState.of(values)
    if n >= 128:
        # the two largest p lie past zero_p: their terms below the cut skip pow
        assert state.zero_p < 1e3
    array = power_mean(state, P_SET)
    worst = 0.0
    for p, from_array in zip(P_SET.tolist(), array.tolist()):
        want = _reference(values, p)
        scalar = power_mean(state, p)
        assert scalar == from_array, p
        worst = max(worst, _ulp_error(scalar, want))
    assert worst <= MAX_ULP


# the largest error of the power family psi, in ulp of the reference; the
# largest seen on 800 p in [1, 1e3] under the parameters below was 4.4
PSI_MAX_ULP = 6.0
PSI_P = np.concatenate((np.geomspace(1.0, 1e3, 61), np.random.default_rng(5).uniform(1.0, 1e3, 60)))


def _psi_reference(p: float, r: float, delta: float, normalized: bool) -> Decimal:
    with localcontext(Context(prec=40)):
        q = Decimal(p)
        value = (q.ln() / Decimal(r)).exp()
        if delta:
            d = Decimal(delta)
            value *= (d * (2 + q).ln().ln()).exp()
            if normalized:
                value /= (d * Decimal(3).ln().ln()).exp()
        return value


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_power_family_psi_is_within_a_few_ulp_of_the_decimal_reference(r, delta):
    worst = 0.0
    for make, normalized in ((make_power_slowvary, True), (raw_power_slowvary, False)):
        psi = make(PowerSlowVaryParams(r, delta))
        for p, from_array in zip(PSI_P.tolist(), psi(PSI_P).tolist()):
            want = _psi_reference(p, r, delta, normalized)
            worst = max(worst, _ulp_error(from_array, want), _ulp_error(psi(p), want))
    assert worst <= PSI_MAX_ULP


# the largest error of the Gaussian, exponential and uniform01 moments, in
# ulp of the reference; the largest seen on the p below was 14.0
# (exponential, p = 643.5), 7.0 (gaussian, p = 549) and 0.67 (uniform01),
# also on NumPy's baseline loops
CLOSED_FORM_MAX_ULP = 20.0


def _pi() -> Decimal:
    """pi to the current precision: the recipe of the decimal documentation."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


with localcontext(Context(prec=40)):
    PI = _pi()
    SQRT_PI, LN_PI = PI.sqrt(), PI.ln()


def _ln_gamma_half(x2: int) -> Decimal:
    """ln Gamma(x2 / 2) for an integer x2 >= 2: (x2/2 - 1)! for an even x2,
    (2n)! sqrt(pi) / (4^n n!) with n = (x2 - 1) / 2 for an odd one."""
    if x2 % 2 == 0:
        return Decimal(math.factorial(x2 // 2 - 1)).ln()
    n = (x2 - 1) // 2
    return (Decimal(math.factorial(2 * n)) * SQRT_PI / (Decimal(4) ** n * math.factorial(n))).ln()


def _closed_form_reference(family: str, p2: int) -> Decimal:
    """|f|_p at p = p2 / 2, as exp(ln E|f|^p / p)."""
    with localcontext(Context(prec=40)):
        p = Decimal(p2) / 2
        if family == "gaussian":
            # 2^(p/2) Gamma((p + 1) / 2) / sqrt(pi)
            log_moment = p / 2 * Decimal(2).ln() + _ln_gamma_half(p2 // 2 + 1) - LN_PI / 2
        elif family == "exponential":
            log_moment = _ln_gamma_half(p2 + 2)  # Gamma(p + 1)
        else:
            log_moment = -(p + 1).ln()  # 1 / (p + 1)
        return (log_moment / p).exp()


# twice p: every integer p in [1, 1e3] for the Gaussian, whose Gamma((p + 1)
# / 2) is then at an integer or a half-integer, and every integer and
# half-integer p for the others
CLOSED_FORMS = {
    "gaussian": (gaussian_model, range(2, 2001, 2)),
    "exponential": (exponential_model, range(2, 2001)),
    "uniform01": (uniform01_model, range(2, 2001)),
}


@pytest.mark.parametrize("family", CLOSED_FORMS)
def test_closed_form_moments_are_within_a_few_ulp_of_the_decimal_reference(family):
    assert float(PI) == math.pi
    make, p2s = CLOSED_FORMS[family]
    model = make()
    ps = np.array(p2s) / 2.0
    worst = 0.0
    for p2, p, from_array in zip(p2s, ps.tolist(), model.lp_norm(ps).tolist()):
        want = _closed_form_reference(family, p2)
        scalar = model.lp_norm(p)
        assert scalar == from_array, p
        worst = max(worst, _ulp_error(scalar, want))
    assert worst <= CLOSED_FORM_MAX_ULP
