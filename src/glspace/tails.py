"""Tail bounds derived from discrete norms.

The transform

    h(x) = max_m q(m) * (ln x - ln psi(q(m)))

is taken over the M stored grid points.  N, the discrete norm over the
same points, gives |f|_{q(m)} <= N * psi(q(m)) at each of them, so
Markov's inequality at each gives P(|f| >= x) <= (N psi(q(m)) / x)^q(m),
and the best of these M bounds is the Chebyshev-Markov envelope
P(|f| >= x) <= exp(-h(x / N)).  It holds at every x, whatever psi does
past q(M).  Where psi is nondecreasing, h(x) at x <= psi(q(M)) is also
the whole grid's (no later term is larger); elsewhere the envelope may
be looser than the whole grid's.  The envelope is informative for
x >= e * N and that threshold is enforced; the bound is silent below it.

h is evaluated for any number of x at once: one table of psi(q(m)) and
ln psi(q(m)) (one per h_transform call, one per envelope for all its
probes), one array of terms, the first maximum of each row.  The
logarithms are taken with math.log, one value at a time, so every term
has the bits of scalar arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NoFeasibleKError
from .generating import GeneratingFunction, psi_eval
from .grids import GridSequence
from .models import RandomVariableModel, SampleBatch, empirical_survival, sample
from .norms import discrete_norm

# probe points per candidate K in membership_K_estimate
_MEMBERSHIP_PROBES = 64


@dataclass(frozen=True)
class HTransformResult:
    value: float
    arg_index: int
    x: float
    n_terms: int

    def __float__(self) -> float:
        return self.value


class _HTable:
    """psi(q(m)) and ln psi(q(m)) on the stored grid, and h at many x."""

    def __init__(self, q: GridSequence, psi: GeneratingFunction):
        self.q = q
        self.psi_values = psi_eval(psi, q.values)
        # math.log, not np.log: NumPy's SIMD log differs from libm in the last place
        self.log_psi = np.array([math.log(v) for v in self.psi_values.tolist()])

    def __call__(self, xs: np.ndarray):
        """h at every x of ``xs``: (values, 1-based arg indices)."""
        log_x = np.array([math.log(x) for x in xs.tolist()])
        terms = self.q.values * (log_x[:, None] - self.log_psi)
        k = np.argmax(terms, axis=1)
        return terms[np.arange(xs.size), k], k + 1


def _check_h_domain(x: float) -> None:
    """DomainError unless x >= 1, where h is defined."""
    if not x >= 1.0:
        raise DomainError(f"h is defined for x >= 1, got {x:g}")


def h_transform(q: GridSequence, psi: GeneratingFunction, x: float):
    """sup_m q(m) * (ln x - ln psi(q(m))) over the stored grid, as an
    HTransformResult; bit-identical to a scalar enumeration of the M terms."""
    _check_h_domain(x)
    values, args = _HTable(q, psi)(np.array([x], dtype=float))
    return HTransformResult(value=float(values[0]), arg_index=int(args[0]), x=x, n_terms=q.M)


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

    @cached_property
    def _h_table(self) -> _HTable:
        """The h table of q and psi, built at the first probe and shared by
        every later one."""
        return _HTable(self.q, self.psi)

    def __call__(self, x: float) -> float:
        return tail_envelope(self, x)


def make_tail_envelope(model: RandomVariableModel, psi: GeneratingFunction, q: GridSequence) -> TailEnvelope:
    """Envelope with the discrete norm of the model plugged in."""
    N = discrete_norm(model, psi, q).value
    if not 0.0 < N < math.inf:
        raise DomainError(f"{model.label} has norm {N:g}; no usable tail envelope")
    return TailEnvelope(q=q, psi=psi, norm_value=N, model_label=model.label)


# multiples of the validity threshold e*N; modest enough that on a stored
# 50-point grid h under power_slowvary(r=2) is the whole grid's
DEFAULT_PROBE_MULTIPLIERS = (1.05, 1.2, 1.4, 1.6, 1.8)


def default_probe_points(env: TailEnvelope) -> list:
    return [env.domain_threshold * c for c in DEFAULT_PROBE_MULTIPLIERS]


def tail_envelope(env: TailEnvelope, x: float) -> float:
    """Evaluate the envelope at x; the bound is undefined below e*norm.
    h comes from the envelope's one table (TailEnvelope._h_table), with the
    bits of h_transform at x / norm."""
    if x < env.domain_threshold:
        raise DomainError(
            f"envelope holds for x >= e*norm = {env.domain_threshold:g}, got {x:g}"
        )
    y = x / env.norm_value
    _check_h_domain(y)
    return math.exp(-float(env._h_table(np.array([y], dtype=float))[0][0]))


@dataclass(frozen=True)
class TailRow:
    """One probe: the empirical survival at x against the envelope plus the
    sampling slack; a probe below e*N is out of the domain (envelope and
    slack NaN) and passes unjudged."""

    x: float
    empirical: float
    envelope: float
    slack: float
    in_domain: bool

    @property
    def ok(self) -> bool:
        return not self.in_domain or self.empirical <= self.envelope + self.slack


@dataclass(frozen=True)
class TailReport:
    rows: Tuple[TailRow, ...]
    norm_value: float
    batch: SampleBatch = field(compare=False, repr=False)

    @property
    def threshold(self) -> float:
        """e * N, below which a probe is out of the domain
        (TailEnvelope.domain_threshold)."""
        return math.e * self.norm_value

    @property
    def n_active(self) -> int:
        return sum(1 for r in self.rows if r.in_domain)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows if r.in_domain)


def _binomial_slack(envelope, n: int):
    # three standard deviations of the empirical frequency when the true
    # probability sits at the envelope (a float or an array), plus a one-count floor
    return 3.0 * np.sqrt(np.maximum(envelope * (1.0 - envelope), 0.0) / n) + 1.0 / n


def tail_check(
    model: RandomVariableModel,
    psi: GeneratingFunction,
    q: GridSequence,
    n: int = 200_000,
    seed: int = 0,
    x_grid: Optional[Sequence[float]] = None,
) -> TailReport:
    """Empirical survival against the envelope at each probe point.

    ``x_grid`` defaults to default_probe_points of the envelope; an empty
    list, or a NaN or infinite probe, is a DomainError.  Probes below the
    e*norm threshold are reported as out-of-domain, not judged.  The pass condition allows
    three standard deviations of sampling noise, plus one count, on top
    of the envelope.  If the true survival sat exactly at the envelope, a
    probe would fail with probability at most 4.1e-3: the exact binomial
    worst case over the envelope value, for n = 200,000 and n = 2^20
    alike, approached at an expected count of 0.315, where three counts
    fail.  At larger expected counts it falls slowly toward the normal
    1.35e-3 (2.2e-3 at 20, 1.5e-3 at 1000).  No level is stated for
    several probes together.  The report keeps the sample it judged.
    An ``n`` below 1 is a DomainError naming it.
    """
    if n < 1:
        raise DomainError(f"tail check needs a sample size n of at least 1, got n={n}")
    env = make_tail_envelope(model, psi, q)
    xs = default_probe_points(env) if x_grid is None else [float(x) for x in x_grid]
    if not xs:
        raise DomainError("tail check needs at least one probe point; x_grid (xs in a config file) is empty")
    for x in xs:
        if not math.isfinite(x):
            raise DomainError(f"tail probe points must be finite, got {x}")
    batch = sample(model, n, seed)
    rows = []
    for x in xs:
        emp = empirical_survival(batch, x)
        if x < env.domain_threshold:
            rows.append(TailRow(x=x, empirical=emp, envelope=math.nan, slack=math.nan, in_domain=False))
            continue
        e_val = tail_envelope(env, x)
        rows.append(TailRow(x=x, empirical=emp, envelope=e_val, slack=float(_binomial_slack(e_val, n)), in_domain=True))
    return TailReport(rows=tuple(rows), norm_value=env.norm_value, batch=batch)


@dataclass(frozen=True)
class MembershipEstimate:
    """Smallest tested scale K whose envelope dominates the observed tail."""

    K_hat: float
    x_range_checked: Optional[Tuple[float, float]]
    K_grid: Tuple[float, ...]
    n: int


def membership_K_estimate(
    batch: SampleBatch,
    q: GridSequence,
    psi: GeneratingFunction,
    K_grid: Optional[Sequence[float]] = None,
) -> MembershipEstimate:
    """Estimate the norm scale K from tail data alone.

    Candidates are scanned in increasing order; K is accepted when the
    empirical survival stays at or below exp(-h(x/K)) plus sampling
    slack on a probe grid spanning [e*K, max|values|], capped just below
    K * psi(q(M)) (a grid whose psi(q(M)) < e probes e*K alone).  All
    probes of a candidate are judged in one array call; a violation
    moves on to the next K.  An empty probe range means the sample never
    reaches the envelope's domain, so the bound holds trivially
    (survival is 0 there) and K is accepted.  An empty
    ``K_grid``, or a candidate that is not finite and positive, is a
    DomainError, which names the first such candidate.  The default
    candidate grid spans the batch's own scale; callers with a
    computable discrete norm should pass a grid bracketing it.
    """
    absv = batch.sorted_abs
    vmax = float(absv[-1]) if absv.size else 0.0
    if K_grid is None:
        if vmax <= 0.0:
            raise DomainError("all-zero batch has no intrinsic scale; pass an explicit K_grid")
        vmin = float(absv[np.searchsorted(absv, 0.0, side="right")])
        K_grid = np.geomspace(max(vmin, vmax * 1e-6), vmax, 32)
    ks = [float(k) for k in K_grid]
    if not ks:
        raise DomainError("K_grid is empty; at least one candidate K is needed")
    for k in ks:
        if not math.isfinite(k):
            raise DomainError(f"candidate K values must be finite, got {k}")
        if k <= 0.0:
            raise DomainError(f"candidate K values must be positive, got {k}")
    ks.sort()
    # probes stop just below x/K = psi(q(M)): up to there h of a
    # nondecreasing psi is the whole grid's, so a small candidate K is
    # judged where its envelope is the paper's, not a looser one
    table = _HTable(q, psi)
    psi_M = float(table.psi_values[-1])
    for K in ks:
        lo = math.e * K
        if lo > vmax:
            return MembershipEstimate(K_hat=K, x_range_checked=None, K_grid=tuple(ks), n=batch.size)
        hi = max(lo, min(vmax, K * psi_M * (1.0 - 1e-9)))
        # a range of one point is judged at that point once
        xs = np.geomspace(lo, hi, _MEMBERSHIP_PROBES) if hi > lo else np.array([lo])
        h, _ = table(xs / K)
        # math.exp, not np.exp: NumPy's SIMD exp differs from libm in the last place
        e_val = np.array([math.exp(-v) for v in h.tolist()])
        if not (empirical_survival(batch, xs) > e_val + _binomial_slack(e_val, batch.size)).any():
            return MembershipEstimate(
                K_hat=K, x_range_checked=(float(lo), float(hi)), K_grid=tuple(ks), n=batch.size
            )
    raise NoFeasibleKError(
        f"no candidate K in [{ks[0]:g}, {ks[-1]:g}] dominates the observed tail (n={batch.size})"
    )
