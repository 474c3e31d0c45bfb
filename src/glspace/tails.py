"""Tail bounds derived from discrete norms.

The transform

    h(x) = sup_m q(m) * (ln x - ln psi(q(m)))

turns the per-point moment bound |f|_{q(m)} <= N * psi(q(m)) into the
Chebyshev-Markov envelope P(|f| >= x) <= exp(-h(x / N)).  The envelope
is informative for x >= e * N and that threshold is enforced; the bound
is silent below it.

For nondecreasing psi the supremum sits at or before the first index
where psi(q(m)) crosses x: beyond the crossing every term is negative
and strictly decreasing, so enumeration stops five indices past it (the
margin absorbs non-strict plateaus).  The crossing must happen within
the materialized truncation M, otherwise the value would silently
depend on how far the grid happens to be materialized; that case is a
truncation error telling the caller to raise M.  Without monotonicity
nothing orders the terms, so all stored indices are enumerated and an
unresolved supremum (still rising at the end) is likewise an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NoFeasibleKError, TruncationError
from .generating import GeneratingFunction, psi_eval
from .grids import GridSequence
from .models import RandomVariableModel, SampleBatch, empirical_survival, sample
from .norms import discrete_norm

_CROSSING_MARGIN = 5
_DEFAULT_MEMBERSHIP_PROBES = 64


@dataclass(frozen=True)
class HTransformResult:
    value: float
    arg_index: int
    x: float
    n_terms: int

    def __float__(self) -> float:
        return self.value


def h_transform(q: GridSequence, psi: GeneratingFunction, x: float):
    """sup_m q(m) * (ln x - ln psi(q(m))) as an HTransformResult.

    Terms are evaluated in scalar arithmetic in index order, so the
    result is bit-identical to a naive full enumeration over the same
    indices (the cutoff never skips a candidate that could win).
    """
    if x < 1.0:
        raise DomainError(f"h is defined for x >= 1, got {x:g}")
    log_x = math.log(x)
    vals = np.asarray(psi_eval(psi, q.values), dtype=float)

    if psi.strictly_increasing:
        crossing = int(np.argmax(vals >= x)) + 1 if bool((vals >= x).any()) else 0
        if crossing == 0:
            raise TruncationError(
                f"psi(q(M)) = {vals[-1]:g} < x = {x:g} at the materialized truncation "
                f"M = {q.M}; raise M so the supremum is provably bracketed"
            )
        last = crossing + _CROSSING_MARGIN
        if q.generator is None:
            # past the crossing terms only fall, so clamping is safe
            last = min(last, q.M)
        best_val, best_m = -math.inf, 0
        for m in range(1, last + 1):
            if m <= q.M:
                qm, pv = float(q.values[m - 1]), float(vals[m - 1])
            else:
                qm = q.value_at(m)
                pv = float(psi_eval(psi, qm))
            term = qm * (log_x - math.log(pv))
            if term > best_val:
                best_val, best_m = term, m
        return HTransformResult(value=best_val, arg_index=best_m, x=x, n_terms=last)

    terms = [float(q.values[i]) * (log_x - math.log(float(vals[i]))) for i in range(q.M)]
    best_m = max(range(len(terms)), key=lambda i: (terms[i], -i)) + 1
    rising = len(terms) >= 2 and terms[-1] > terms[-2]
    if best_m >= len(terms) - 1 or rising:
        raise TruncationError(
            f"h({x:g}) supremum is unresolved at the end of {q.description}; increase M"
        )
    return HTransformResult(value=terms[best_m - 1], arg_index=best_m, x=x, n_terms=len(terms))


def quadratic_h_reference(x: float) -> float:
    """Continuous relaxation of h for the root-p family on q(m)=m:
    sup over real p of p*(ln x - ln sqrt(p)) = x^2/(2e), at p = x^2/e.
    The discrete supremum sits at a neighbouring integer, so
    h(x) <= x^2/(2e) with the gap shrinking as x grows."""
    return x * x / (2.0 * math.e)


@dataclass(frozen=True)
class TailEnvelope:
    """exp(-h(x / norm)) as a function of x, valid for x >= e * norm."""

    q: GridSequence
    psi: GeneratingFunction
    norm_value: float
    model_label: str = ""

    @property
    def domain_threshold(self) -> float:
        return math.e * self.norm_value

    def h_at(self, x: float) -> HTransformResult:
        return h_transform(self.q, self.psi, x / self.norm_value)

    def __call__(self, x: float) -> float:
        return tail_envelope(self, x)


def make_tail_envelope(model: RandomVariableModel, psi: GeneratingFunction, q: GridSequence) -> TailEnvelope:
    """Envelope with the discrete norm of the model plugged in."""
    N = discrete_norm(model, psi, q).value
    if not 0.0 < N < math.inf:
        raise DomainError(f"{model.label} has norm {N:g}; no usable tail envelope")
    return TailEnvelope(q=q, psi=psi, norm_value=N, model_label=model.label)


# multiples of the validity threshold e*N; modest enough that a stored
# 50-point grid brackets the h supremum for the bundled models
DEFAULT_PROBE_MULTIPLIERS = (1.05, 1.2, 1.4, 1.6, 1.8)


def default_probe_points(env: TailEnvelope) -> list:
    return [env.domain_threshold * c for c in DEFAULT_PROBE_MULTIPLIERS]


def tail_envelope(env: TailEnvelope, x: float) -> float:
    """Evaluate the envelope at x; the bound is undefined below e*norm."""
    if x < env.domain_threshold:
        raise DomainError(
            f"envelope holds for x >= e*norm = {env.domain_threshold:g}, got {x:g}"
        )
    return math.exp(-env.h_at(x).value)


@dataclass(frozen=True)
class TailRow:
    x: float
    empirical: float
    envelope: float
    slack: float
    in_domain: bool
    ok: bool


@dataclass(frozen=True)
class TailReport:
    rows: Tuple[TailRow, ...]
    norm_value: float
    threshold: float
    n: int
    seed: int

    @property
    def n_active(self) -> int:
        return sum(1 for r in self.rows if r.in_domain)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows if r.in_domain)


def _binomial_slack(envelope: float, n: int) -> float:
    # three standard deviations of the empirical frequency when the true
    # probability sits at the envelope, plus a one-count floor
    return 3.0 * math.sqrt(max(envelope * (1.0 - envelope), 0.0) / n) + 1.0 / n


def tail_check(
    model: RandomVariableModel,
    psi: GeneratingFunction,
    q: GridSequence,
    n: int = 200_000,
    seed: int = 0,
    x_grid: Sequence[float] = (),
) -> TailReport:
    """Empirical survival against the envelope at each probe point.

    Probes below the e*norm threshold are reported as out-of-domain, not
    judged.  The pass condition allows three standard deviations of
    sampling noise on top of the envelope, so a mathematically correct
    bound fails with probability well under 1e-3 per probe.
    """
    env = make_tail_envelope(model, psi, q)
    batch = sample(model, n, seed)
    rows = []
    for x in x_grid:
        x = float(x)
        emp = empirical_survival(batch, x)
        if x < env.domain_threshold:
            rows.append(TailRow(x=x, empirical=emp, envelope=math.nan, slack=math.nan, in_domain=False, ok=True))
            continue
        e_val = tail_envelope(env, x)
        slack = _binomial_slack(e_val, n)
        rows.append(TailRow(x=x, empirical=emp, envelope=e_val, slack=slack, in_domain=True, ok=emp <= e_val + slack))
    return TailReport(rows=tuple(rows), norm_value=env.norm_value, threshold=env.domain_threshold, n=n, seed=seed)


@dataclass(frozen=True)
class MembershipEstimate:
    """Smallest tested scale K whose envelope dominates the observed tail."""

    K_hat: float
    x_range_checked: Optional[Tuple[float, float]]
    violations: int
    K_grid: Tuple[float, ...]
    n: int


def membership_K_estimate(
    batch: SampleBatch,
    q: GridSequence,
    psi: GeneratingFunction,
    K_grid: Optional[Sequence[float]] = None,
    probes: int = _DEFAULT_MEMBERSHIP_PROBES,
) -> MembershipEstimate:
    """Estimate the norm scale K from tail data alone.

    Candidates are scanned in increasing order; K is accepted when the
    empirical survival stays at or below exp(-h(x/K)) plus sampling
    slack on a probe grid spanning [e*K, max|values|].  An empty probe
    range means the sample never reaches the envelope's domain, so the
    bound holds trivially (survival is 0 there) and K is accepted.  The
    default candidate grid spans the batch's own scale; callers with a
    computable discrete norm should pass a grid bracketing it.
    """
    absv = np.abs(batch.values)
    vmax = float(absv.max()) if absv.size else 0.0
    if K_grid is None:
        if vmax <= 0.0:
            raise DomainError("all-zero batch has no intrinsic scale; pass an explicit K_grid")
        vmin = float(absv[absv > 0].min())
        K_grid = np.geomspace(max(vmin, vmax * 1e-6), vmax, 32)
    ks = sorted(float(k) for k in K_grid)
    if not ks or ks[0] <= 0.0:
        raise DomainError("candidate K values must be positive")
    # largest x/K whose h supremum the stored grid provably brackets;
    # probes are capped there so a small candidate K is judged on the
    # part of the tail its envelope can actually be evaluated on
    psi_M = float(psi_eval(psi, q.values[-1]))
    if psi_M < math.e:
        raise TruncationError(
            f"psi(q(M)) = {psi_M:g} < e on {q.description}; the envelope domain "
            "is empty for every scale, raise M"
        )
    sorted_abs = np.sort(absv)

    def survival(x: float) -> float:
        return float(absv.size - np.searchsorted(sorted_abs, x, side="left")) / absv.size

    for K in ks:
        lo = math.e * K
        if lo > vmax:
            return MembershipEstimate(
                K_hat=K, x_range_checked=None, violations=0, K_grid=tuple(ks), n=batch.size
            )
        hi = max(lo, min(vmax, K * psi_M * (1.0 - 1e-9)))
        xs = np.geomspace(lo, hi, probes)
        for x in xs:
            e_val = math.exp(-h_transform(q, psi, float(x) / K).value)
            if survival(float(x)) > e_val + _binomial_slack(e_val, batch.size):
                break
        else:
            return MembershipEstimate(
                K_hat=K,
                x_range_checked=(float(lo), float(hi)),
                violations=0,
                K_grid=tuple(ks),
                n=batch.size,
            )
    raise NoFeasibleKError(
        f"no candidate K in [{ks[0]:g}, {ks[-1]:g}] dominates the observed tail (n={batch.size})"
    )
