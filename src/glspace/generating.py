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
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateModelError, DomainError
from .models import MomentInstabilityWarning


@dataclass(frozen=True)
class GeneratingFunction:
    """Positive evaluator on [1, inf) with declared shape flags.

    strictly_increasing is a promise made by the constructor, verified by
    sampling (psi_validate), never symbolically.  value_at_one caches
    psi(1); the function is *normalized* when that value is exactly 1.
    """

    evaluator: Callable[[float | np.ndarray], float | np.ndarray]
    strictly_increasing: bool
    value_at_one: float
    description: str = ""

    def __call__(self, p):
        return psi_eval(self, p)

    @property
    def normalized(self) -> bool:
        return self.value_at_one == 1.0

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


def psi_eval(psi: GeneratingFunction, p):
    """Evaluate psi at p (scalar or array), rejecting p < 1."""
    arr = np.asarray(p, dtype=float)
    # a 0-d array takes the float comparison: np.any costs microseconds per call
    if ((arr < 1.0).any() if arr.ndim else float(arr) < 1.0):
        raise DomainError(f"generating functions are defined for p >= 1, got {p}")
    out = psi.evaluator(arr if arr.ndim else float(arr))
    if arr.ndim:
        return np.asarray(out, dtype=float)
    return float(out)


def _power_slowvary(params: PowerSlowVaryParams, scale: float, name: str) -> GeneratingFunction:
    """p^(1/r) * ln^delta(2+p) / scale.  For delta >= 0 both factors
    increase, so the strictly-increasing flag is set; negative delta can
    bend the product downward and the flag is left unset."""
    r, delta = params.r, params.delta

    def evaluator(p):
        return np.power(p, 1.0 / r) * np.log(2.0 + p) ** delta / scale

    return GeneratingFunction(
        evaluator=evaluator,
        strictly_increasing=delta >= 0.0,
        value_at_one=float(evaluator(1.0)),
        description=f"{name}(r={r:g}, delta={delta:g})",
    )


def make_power_slowvary(params: PowerSlowVaryParams) -> GeneratingFunction:
    """Normalized member of the family p^(1/r) * ln^delta(2+p): divided
    by its value ln^delta(3) at p = 1, so psi(1) = 1 exactly."""
    return _power_slowvary(params, math.log(3.0) ** params.delta, "power_slowvary")


def raw_power_slowvary(params: PowerSlowVaryParams) -> GeneratingFunction:
    """Non-normalized member p^(1/r) * ln^delta(2+p); its value at 1 is
    ln^delta(3).  Useful for the submultiplicativity bound that carries the
    factor psi(1).  Dividing by 1.0 is exact, so the values are the raw ones."""
    return _power_slowvary(params, 1.0, "raw_power_slowvary")


_NATURAL_PROBE = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 50.0)


def natural_psi(model) -> GeneratingFunction:
    """The moment-ratio generating function psi_f(p) = |f|_p / |f|_1.

    By construction psi_f(1) = 1 exactly and the GLS ratio
    |f|_p / psi_f(p) is constant in p, which makes exact norm fixtures.
    Monotone (nondecreasing) on a probability space; the strict flag is
    set from a probe grid because a constant model yields psi_f == 1,
    which is monotone but not strictly so.
    """
    m1 = float(model.lp_norm(1.0))
    if m1 == 0.0:
        raise DegenerateModelError(f"{model!r} is zero almost surely; |f|_1 = 0")

    def evaluator(p):
        return np.asarray(model.lp_norm(p), dtype=float) / m1

    # the probe reaches past a small sample's stable p; the flag only
    # needs the order of the values, so the plug-in warning is not news
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MomentInstabilityWarning)
        probe = [float(evaluator(p)) for p in _NATURAL_PROBE]
    strict = all(a < b for a, b in zip(probe, probe[1:]))
    return GeneratingFunction(
        evaluator=evaluator,
        strictly_increasing=strict,
        value_at_one=1.0,
        description=f"natural({getattr(model, 'label', 'model')})",
    )


@dataclass(frozen=True)
class ValidationReport:
    """Sampled-grid validation of the generating-function axioms."""

    positive: bool
    monotone: bool
    strictly_monotone: bool
    value_at_one: float
    normalized_exactly: bool
    p_max: float
    grid_points: int
    failures: tuple[str, ...] = field(default=())

    @property
    def all_ok(self) -> bool:
        return self.positive and self.monotone and self.normalized_exactly


# geometric sample points of psi_validate on [1, p_max]
_VALIDATE_POINTS = 1000


def psi_validate(psi: GeneratingFunction, p_max: float = 100.0) -> ValidationReport:
    """Check positivity, monotonicity, and normalization on a dense grid.

    Monotonicity is sampled, not proved, on _VALIDATE_POINTS geometric
    points.  Normalization passes only at exact equality psi(1) == 1.
    """
    if not p_max > 1:
        raise DomainError("p_max must exceed 1")
    ps = np.geomspace(1.0, p_max, _VALIDATE_POINTS)
    ps[0] = 1.0
    vals = np.asarray(psi(ps), dtype=float)
    failures = []
    positive = bool(np.all(vals > 0))
    if not positive:
        failures.append("non-positive value on grid")
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs >= 0))
    strictly = bool(np.all(diffs > 0))
    if psi.strictly_increasing and not strictly:
        failures.append("declared strictly increasing but grid shows a non-increase")
    v1 = float(psi(1.0))
    normalized = v1 == 1.0
    if not normalized:
        failures.append(f"psi(1) = {v1!r} differs from 1 by {abs(v1 - 1.0):.3e}")
    return ValidationReport(
        positive=positive,
        monotone=monotone,
        strictly_monotone=strictly,
        value_at_one=v1,
        normalized_exactly=normalized,
        p_max=p_max,
        grid_points=_VALIDATE_POINTS,
        failures=tuple(failures),
    )


def sqrt_dip_psi() -> GeneratingFunction:
    """Normalized but non-monotone fixture: sqrt(p) modulated by a
    squared-cosine ripple of unit period.

    At integer p the ripple factor equals its value at p = 1, so the
    function agrees with sqrt(p) on the integer grid while dipping by up
    to a factor 1.5 between integers.  Exercises the equivalence-constant
    variant that replaces the left grid value by a minimum over the cell.
    """

    def evaluator(p):
        return np.sqrt(p) * (1.0 + 0.5 * np.cos(np.pi * np.asarray(p)) ** 2) / 1.5

    return GeneratingFunction(
        evaluator=evaluator,
        strictly_increasing=False,
        value_at_one=float(evaluator(1.0)),
        description="sqrt_dip",
    )
