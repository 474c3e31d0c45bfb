"""Generating functions for Grand Lebesgue Space norms.

A generating function psi is a positive continuous function on [1, inf)
that sits in the denominator of the norm sup_p |f|_p / psi(p).  The
normalized members (psi(1) = 1, strictly increasing) form the classical
family; non-normalized and non-monotone evaluators are representable on
purpose, because the norm-equivalence machinery has variants that drop
each of those requirements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateModelError, DomainError
from .models import RandomVariableModel, _check_p, _shaped


@dataclass(frozen=True)
class GeneratingFunction:
    """Positive evaluator on [1, inf) with declared shape flags.

    nondecreasing is a promise made by the constructor that psi is
    nondecreasing on all of [1, inf); it is trusted, never checked.  Such
    a psi is its own lower envelope in a norm search's cell bounds (see
    search), and the Z/W gap analysis needs no more than that.
    log_concave, keyword-only, is a second such promise: ln psi is
    concave in p on [1, inf), so on a scan cell ln psi lies above its
    chord, which the cell bound then takes in place of psi at the cell's
    left end.  It is read only with nondecreasing: a concave ln psi that
    decreases somewhere decreases without bound, so such a psi has no
    finite norm to certify.  Only a constructor that knows its formula
    sets it, and it takes no part in equality or hashing.  lower,
    keyword-only, is a third: a lower envelope L of psi, an array function
    with L(p) <= psi(p) on [1, inf), bit for bit as computed, L
    nondecreasing and ln L concave.  A norm search bounds its cells with L
    in place of psi, to prune its scan and to rule out the refinement of
    a scan peak whose bound lies below the best value found (see search);
    a psi flagged nondecreasing needs none.  It takes no part in equality
    or hashing either.  value_at_one caches psi(1).
    """

    evaluator: Callable[[float | np.ndarray], float | np.ndarray]
    nondecreasing: bool
    value_at_one: float
    description: str = ""
    #: the model a natural psi is the moment ratio |f|_p / |f|_1 of
    source: Optional[RandomVariableModel] = field(default=None, compare=False, repr=False)
    #: ln psi is concave in p on [1, inf); trusted, never checked
    log_concave: bool = field(default=False, compare=False, kw_only=True)
    #: a lower envelope of psi, nondecreasing with ln concave; trusted, never checked
    lower: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False, repr=False, kw_only=True)

    def __call__(self, p):
        return psi_eval(self, p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GeneratingFunction({self.description or 'anonymous'})"


@dataclass(frozen=True)
class PowerSlowVaryParams:
    """Parameters of the power-times-slowly-varying family
    p^(1/r) * ln^delta(2 + p)."""

    r: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise DomainError(f"power exponent r must be positive, got {self.r}")
        if not math.isfinite(self.delta):
            raise DomainError(f"slowly varying exponent delta must be finite, got {self.delta}")


def psi_eval(psi: GeneratingFunction, p):
    """Evaluate psi at p (scalar or array), rejecting p < 1.  The evaluator
    always gets a float array, a scalar p as a one-element one (see
    models._shaped), so a scalar p gets the bits the same p gets inside an
    array; it is returned as a float.  A value that is not positive or is
    +inf (psi underflowed or overflowed) is a DomainError naming it and its
    p, the first such p of an array; a NaN is returned as it is, for the
    search to name."""
    q = _check_p(p, "generating functions")
    out = np.asarray(psi.evaluator(np.atleast_1d(q)), dtype=float)
    bad = (out <= 0.0) | (out == math.inf)
    if not bad.any():
        return _shaped(out, q)
    i = int(np.argmax(bad))
    raise DomainError(
        f"{psi.description}: psi(p) = {float(out.flat[i]):g} at p={float(q.flat[i])!r}; psi must be finite and positive"
    )


def _ln3_pow(delta: float) -> float:
    """ln^delta(3) in Python floats: inf where it overflows, 0.0 where it
    underflows, and no RuntimeWarning either way."""
    try:
        return math.log(3.0) ** delta
    except OverflowError:
        return math.inf


def _power_slowvary(params: PowerSlowVaryParams, scale: float, name: str) -> GeneratingFunction:
    """p^(1/r) * ln^delta(2+p) / scale.  For delta >= 0 both factors
    increase, so the nondecreasing flag is set; negative delta can bend
    the product downward and the flag is left unset.  For delta >= 0,
    ln psi = (1/r) ln p + delta ln ln(2+p) - ln scale is a sum of concave
    terms (ln ln(2+p) is concave: its second derivative is
    -(1 + ln(2+p)) / ((2+p) ln(2+p))^2), so log_concave is set too; for
    delta < 0 the middle term is convex and it is not.  DomainError
    when the scale or psi(1) = ln^delta(3) / scale is not finite and
    positive: a delta that large in magnitude leaves no usable psi."""
    r, delta = params.r, params.delta
    description = f"{name}(r={r:g}, delta={delta:g})"

    def check(what, value):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{description}: {what} = {value:g} is not finite and positive")

    check("scale", scale)
    check("psi(1)", _ln3_pow(delta) / scale)

    def evaluator(p):
        return np.power(p, 1.0 / r) * np.log(2.0 + p) ** delta / scale

    return GeneratingFunction(
        evaluator=evaluator,
        nondecreasing=delta >= 0.0,
        value_at_one=float(evaluator(1.0)),
        description=description,
        log_concave=delta >= 0.0,
    )


def make_power_slowvary(params: PowerSlowVaryParams) -> GeneratingFunction:
    """Normalized member of the family p^(1/r) * ln^delta(2+p): divided
    by its value ln^delta(3) at p = 1, so psi(1) = 1 exactly."""
    return _power_slowvary(params, _ln3_pow(params.delta), "power_slowvary")


def raw_power_slowvary(params: PowerSlowVaryParams) -> GeneratingFunction:
    """Non-normalized member p^(1/r) * ln^delta(2+p); its value at 1 is
    ln^delta(3).  Useful for the submultiplicativity bound that carries the
    factor psi(1).  Dividing by 1.0 is exact, so the values are the raw ones."""
    return _power_slowvary(params, 1.0, "raw_power_slowvary")


def natural_psi(model) -> GeneratingFunction:
    """The moment-ratio generating function psi_f(p) = |f|_p / |f|_1.

    By construction psi_f(1) = 1 exactly and the GLS ratio
    |f|_p / psi_f(p) is constant in p, which makes exact norm fixtures.
    Every model lives on a probability space, where |f|_p is nondecreasing
    in p (Lyapunov's inequality), so psi_f is nondecreasing by construction;
    it may be flat (identically 1 for a constant |f|).
    """
    m1 = float(model.lp_norm(1.0))
    if m1 == 0.0:
        raise DegenerateModelError(f"{model!r} is zero almost surely; |f|_1 = 0")

    def evaluator(p):
        return np.asarray(model.lp_norm(p), dtype=float) / m1

    return GeneratingFunction(
        evaluator=evaluator,
        nondecreasing=True,
        value_at_one=1.0,
        description=f"natural({getattr(model, 'label', 'model')})",
        source=model,
    )


def sqrt_dip_psi() -> GeneratingFunction:
    """Normalized but non-monotone fixture: sqrt(p) modulated by a
    squared-cosine ripple of unit period.

    At integer p the ripple factor equals its value at p = 1, so the
    function agrees with sqrt(p) on the integer grid while dipping by up
    to a factor 1.5 between integers.  Exercises the equivalence-constant
    variant that replaces the left grid value by a minimum over the cell.

    Its lower envelope is sqrt(p) / 1.5, the ripple at its least, and it
    holds bit for bit: the computed ripple factor 1 + 0.5 cos^2 is at
    least 1, and each later step rounds monotonically.
    """

    def evaluator(p):
        return np.sqrt(p) * (1.0 + 0.5 * np.cos(np.pi * np.asarray(p)) ** 2) / 1.5

    return GeneratingFunction(
        evaluator=evaluator,
        nondecreasing=False,
        value_at_one=float(evaluator(1.0)),
        description="sqrt_dip",
        lower=lambda p: np.sqrt(p) / 1.5,
    )
