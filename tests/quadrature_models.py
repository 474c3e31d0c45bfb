"""Moment models that only the tests build.

The package computes every moment by a closed form or as a power mean of
stored values.  These models give the tests a third backend and a
wrapper: a density whose moments come from adaptive quadrature (the twins
of the closed-form families, which cross-check them, and heavy-tailed
densities whose moments diverge), and a scaled model for homogeneity
checks.  They are built on the package's RandomVariableModel interface,
so the norm searches and sandwich checks take them as they take any model.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np
from scipy.integrate import IntegrationWarning, cumulative_trapezoid, quad

from glspace.errors import DivergentMomentError, UnsupportedBackendError
from glspace.models import RandomVariableModel, _check_p, _shaped, uniform_stream

# absolute and relative error targets of DensityModel's quadrature
_QUAD_EPSABS = 1e-10
_QUAD_EPSREL = 1e-8


class DensityModel(RandomVariableModel):
    """Model given by a density; moments by adaptive quadrature.

    Infinite supports are integrated through quad's internal substitution
    to a finite interval.  Sampling uses a tabulated inverse CDF and is
    only offered on finite supports, where the table is exact enough and
    consumes one uniform per draw (which keeps chunked generation
    deterministic); rejection samplers would not.
    """

    def __init__(self, label, density, support):
        self.label = label
        self.density = density
        self.support = (float(support[0]), float(support[1]))

    @cached_property
    def _probe(self):
        """(x, ln|x|, ln rho(x)) on the probe points |x| = e^t, t in [-30, 30],
        that lie in the support (finite ends included)."""
        a, b = self.support
        r = np.exp(np.linspace(-30.0, 30.0, 1201))
        xs = np.concatenate([-r[::-1], r, [x for x in (a, b) if math.isfinite(x) and x != 0.0]])
        xs = np.unique(xs[(xs >= a) & (xs <= b)])
        rho = np.array([self.density(float(x)) for x in xs])
        with np.errstate(divide="ignore", invalid="ignore"):
            return xs, np.log(np.abs(xs)), np.log(rho)

    def _log_moment(self, p: float) -> float:
        """ln E|f|^p by quadrature of exp(p ln|x| + ln rho(x) - c), then + c.

        c is the largest log-integrand on the probe points, so the scaled
        integrand peaks near 1 and neither |x|^p nor the moment overflows;
        the integral is split at that probe point so quad sees the peak.
        """
        a, b = self.support
        xs, log_x, log_rho = self._probe
        g = p * log_x + log_rho
        ok = np.flatnonzero(np.isfinite(g))
        if ok.size:
            k = ok[np.argmax(g[ok])]
            c, peak = float(g[k]), float(xs[k])
        else:
            c, peak = 0.0, a

        def integrand(x):
            rho = self.density(x)
            if rho <= 0.0 or x == 0.0:
                return 0.0
            return math.exp(p * math.log(abs(x)) + math.log(rho) - c)

        pieces = [(a, peak), (peak, b)] if a < peak < b else [(a, b)]
        total = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                for lo, hi in pieces:
                    total += quad(integrand, lo, hi, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=200)[0]
            except IntegrationWarning as exc:
                raise DivergentMomentError(p, f"quadrature did not converge at p={p}: {exc}") from exc
            except OverflowError as exc:
                raise DivergentMomentError(
                    p, f"{self.label}: moment integrand at p={p} peaks outside the probe range"
                ) from exc
        if not math.isfinite(total):
            raise DivergentMomentError(p)
        return math.log(total) + c if total > 0.0 else -math.inf

    def lp_norm(self, p):
        q = _check_p(p)
        return _shaped(np.array([math.exp(self._log_moment(x) / x) for x in q.ravel().tolist()]).reshape(q.shape), q)

    @cached_property
    def _icdf_table(self):
        """(cdf, x) on 16385 even points of the support, for np.interp."""
        a, b = self.support
        xs = np.linspace(a, b, 16385)
        pdf = np.array([self.density(x) for x in xs])
        cdf = np.concatenate([[0.0], cumulative_trapezoid(pdf, xs)])
        cdf /= cdf[-1]
        return cdf, xs

    def sample_values(self, n: int, seed: int) -> np.ndarray:
        if not (math.isfinite(self.support[0]) and math.isfinite(self.support[1])):
            raise UnsupportedBackendError(
                f"{self.label}: inverse-CDF sampling needs a finite support; "
                "use the matching closed-form family instead"
            )
        cdf, xs = self._icdf_table
        return np.interp(uniform_stream(seed, n), cdf, xs)


def gaussian_density_model() -> DensityModel:
    """Quadrature twin of gaussian_model, for backend cross-checks."""
    return DensityModel(
        "gaussian-density",
        lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
        (-np.inf, np.inf),
    )


def uniform01_density_model() -> DensityModel:
    return DensityModel("uniform01-density", lambda x: 1.0, (0.0, 1.0))


def exponential_density_model() -> DensityModel:
    return DensityModel("exponential-density", lambda x: math.exp(-x) if x >= 0 else 0.0, (0.0, np.inf))


class ScaledModel(RandomVariableModel):
    """|alpha * f|_p = |alpha| * |f|_p, for homogeneity checks."""

    def __init__(self, base: RandomVariableModel, alpha: float):
        self.base = base
        self.alpha = float(alpha)
        self.label = f"{base.label}*{alpha:g}"

    def lp_norm(self, p):
        return abs(self.alpha) * self.base.lp_norm(p)

    def sample_values(self, n: int, seed: int) -> np.ndarray:
        values = self.base.sample_values(n, seed)
        values *= self.alpha
        return values
