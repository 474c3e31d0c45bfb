"""Randomized verification suites behind the ``verify`` command.

Each suite draws its cases from a single numpy Generator seeded with the
configured seed, so a (suite, seed) pair always produces the same cases,
the same numbers and therefore the same CSV bytes.  Rows carry enough
values (inner norm, full norm, constant, bound) that every reported
inequality can be re-audited from the CSV alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .generating import (
    PowerSlowVaryParams,
    make_power_slowvary,
    natural_psi,
    raw_power_slowvary,
    sqrt_dip_psi,
)
from .grids import RestrictedSet, geometric_grid, integer_grid
from .groups import (
    YoungTriple,
    algebra_check,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    young_check,
)
from .models import (
    _check_seed,
    constant_model,
    exponential_model,
    gaussian_model,
    rademacher_model,
    uniform01_model,
)
from .norms import sandwich_check_discrete, sandwich_check_restricted
from .tails import tail_check

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "set_fixtures",
    "psi_pool",
    "grid_pool",
    "sandwich_suite",
    "tails_suite",
    "young_suite",
    "algebra_suite",
    "run_suite",
]

SUITE_NAMES = ("sandwich", "tails", "young", "algebra")

SANDWICH_HEADER = (
    "case_id", "model", "psi", "set_or_grid",
    "restricted_or_discrete", "full", "constant", "bound", "pass",
)
TAILS_HEADER = ("x", "empirical_survival", "envelope", "slack", "pass")
YOUNG_HEADER = ("case_id", "group", "p", "q", "r", "lhs", "rhs", "slack", "pass")
ALGEBRA_HEADER = (
    "case_id", "group", "psi",
    "conv_norm", "f_norm", "g_norm", "constant", "bound", "pass",
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    header: Tuple[str, ...]
    rows: Tuple[tuple, ...]

    @property
    def n_failures(self) -> int:
        """Rows whose pass flag, the last column, is false (an out-of-domain
        tail row passes)."""
        return sum(1 for row in self.rows if not row[-1])

    @property
    def ok(self) -> bool:
        return self.n_failures == 0

    @property
    def n_cases(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Case pools

def set_fixtures() -> list:
    """Interval fixtures whose equivalence constant is finite: every gap
    has finite endpoints and the final segment runs to infinity.  The
    endpoints sit on the 1e-4 lattice so a dense membership scan lands
    next to them."""
    specs = [
        [(1.0, math.inf)],
        [(1.0, 2.0), (3.0, math.inf)],
        [(1.0, 1.5), (2.0, math.inf)],
        [(1.0, 4.0), (6.0, math.inf)],
        [(1.0, 2.0), (2.5, 3.5), (5.0, math.inf)],
        [(1.0, 10.0), (12.0, math.inf)],
        [(1.0, 1.25), (1.75, 2.5), (4.0, math.inf)],
        [(1.0, 3.0), (3.25, 7.0), (9.0, math.inf)],
        [(1.0, 5.0), (7.5, math.inf)],
        [(1.0, 2.5), (6.0, math.inf)],
        [(1.0, 1.0), (2.0, math.inf)],
        [(1.0, 2.0), (4.0, 4.0), (8.0, math.inf)],
        [(1.0, 1.2), (1.4, 1.6), (1.8, math.inf)],
        [(1.0, 6.0), (6.5, 13.0), (20.0, math.inf)],
        [(1.0, 2.0), (2.0625, math.inf)],
        [(1.0, 50.0), (60.0, math.inf)],
        [(1.0, 1.5), (3.0, 4.5), (4.75, 9.0), (11.0, math.inf)],
        [(1.0, 20.0), (25.0, 40.0), (42.0, math.inf)],
        [(1.0, 7.0), (14.0, math.inf)],
        [(1.0, 2.0), (3.0, 5.0), (8.0, 13.0), (21.0, math.inf)],
    ]
    return [RestrictedSet.from_intervals(s) for s in specs]


def psi_pool() -> list:
    """Normalized, nondecreasing members of the power/slowly-varying family."""
    params = [
        (0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0),
        (1.0, 1.0), (2.0, 0.5), (3.0, 1.0), (1.5, 0.5), (1.0, 2.0),
    ]
    return [make_power_slowvary(PowerSlowVaryParams(r, d)) for r, d in params]


def grid_pool() -> list:
    return [
        geometric_grid(2, 40),
        geometric_grid(3, 30),
        geometric_grid(4, 25),
        integer_grid(256),
    ]


def _closed_form_pool(rng: np.random.Generator) -> list:
    consts = [constant_model(float(c)) for c in rng.uniform(0.5, 8.0, size=2)]
    return [
        gaussian_model(),
        uniform01_model(),
        exponential_model(),
        rademacher_model(),
        *consts,
    ]


def _group_pool() -> list:
    # orders 2..24, abelian and not
    groups = [cyclic_group(n) for n in range(2, 17)]
    groups += [dihedral_group(n) for n in range(3, 7)]
    groups += [symmetric_group(3), symmetric_group(4)]
    return groups


def _pick(rng: np.random.Generator, pool):
    return pool[int(rng.integers(len(pool)))]


# ---------------------------------------------------------------------------
# Suites

def sandwich_suite(
    seed: int,
    n_restricted: int = 50,
    n_discrete: int = 50,
) -> SuiteResult:
    """Randomized two-sided equivalence checks, restricted and discrete.

    Every fifth discrete case exercises the non-monotone fixture through
    the W^ route on the integer grid; the rest use nondecreasing psi over
    geometric or integer grids through W.
    """
    rng = np.random.default_rng(seed)
    models = _closed_form_pool(rng)
    psis = psi_pool()
    sets = set_fixtures()
    grids = grid_pool()
    dip = sqrt_dip_psi()
    dip_grid = integer_grid(256)

    rows = []

    def push(case_id, rep):
        rows.append((
            case_id,
            rep.model_label,
            rep.psi_description,
            rep.domain_description,
            rep.inner_value,
            rep.full_value,
            rep.constant.value,
            rep.bound,
            rep.ok,
        ))

    for i in range(n_restricted):
        model = _pick(rng, models)
        psi = _pick(rng, psis)
        S = _pick(rng, sets)
        push(f"sandwich-r{i:02d}", sandwich_check_restricted(model, psi, S))

    for i in range(n_discrete):
        model = _pick(rng, models)
        if i % 5 == 4:
            rep = sandwich_check_discrete(model, dip, dip_grid, use_w_hat=True)
        else:
            psi = _pick(rng, psis)
            q = _pick(rng, grids)
            rep = sandwich_check_discrete(model, psi, q)
        push(f"sandwich-d{i:02d}", rep)

    return SuiteResult("sandwich", SANDWICH_HEADER, tuple(rows))


def tails_suite(seed: int, n: int = 200_000) -> SuiteResult:
    """Monte Carlo check of the exp(-h(x/N)) envelope on one model.

    The model is the Gaussian with its own moment-ratio psi on the
    integer grid q(m) = m, M = 50.  Probe points below the e*N validity
    threshold are reported as out-of-domain rows and never count as
    failures.
    """
    model = gaussian_model()
    report = tail_check(model, natural_psi(model), integer_grid(50), n=n, seed=seed)
    rows = tuple((r.x, r.empirical, r.envelope, r.slack, r.ok) for r in report.rows)
    return SuiteResult("tails", TAILS_HEADER, rows)


def young_suite(seed: int, n_cases: int = 200) -> SuiteResult:
    """Convolution exponent inequality on random groups and functions."""
    rng = np.random.default_rng(seed)
    groups = _group_pool()
    rows = []
    for i in range(n_cases):
        G = _pick(rng, groups)
        f = _draw_function(rng, G.order)
        g = _draw_function(rng, G.order)
        triple = _draw_triple(rng)
        rep = young_check(G, f, g, triple)
        rows.append((
            f"young-{i:03d}", G.name,
            triple.p, triple.q, triple.r,
            rep.lhs, rep.rhs, rep.slack, rep.ok,
        ))
    return SuiteResult("young", YOUNG_HEADER, tuple(rows))


# algebra_suite: number of cases with normalized psi, then with raw psi
_ALGEBRA_NORMALIZED = 100
_ALGEBRA_UNNORMALIZED = 50


def algebra_suite(seed: int) -> SuiteResult:
    """Submultiplicativity of the norm under convolution.

    The first 100 cases use normalized psi (constant exactly 1), the
    other 50 non-normalized members whose value at 1 carries into the
    bound.
    Every fifth case restricts the domain to an interval fixture.
    """
    rng = np.random.default_rng(seed)
    groups = _group_pool()
    norm_psis = psi_pool()
    raw_psis = [
        raw_power_slowvary(PowerSlowVaryParams(r, d))
        for r, d in [(1.0, 0.5), (2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (0.5, 1.0)]
    ]
    sets = set_fixtures()
    rows = []
    for i in range(_ALGEBRA_NORMALIZED + _ALGEBRA_UNNORMALIZED):
        normalized = i < _ALGEBRA_NORMALIZED
        G = _pick(rng, groups)
        f = _draw_function(rng, G.order)
        g = _draw_function(rng, G.order)
        psi = _pick(rng, norm_psis if normalized else raw_psis)
        S = _pick(rng, sets) if i % 5 == 2 else None
        rep = algebra_check(G, f, g, psi, S)
        rows.append((
            f"algebra-{'n' if normalized else 'u'}{i:03d}", G.name, psi.description,
            rep.conv_norm, rep.f_norm, rep.g_norm, rep.constant, rep.bound, rep.ok,
        ))
    return SuiteResult("algebra", ALGEBRA_HEADER, tuple(rows))


def _draw_function(rng: np.random.Generator, order: int) -> np.ndarray:
    kind = int(rng.integers(3))
    if kind == 0:
        return rng.standard_normal(order)
    if kind == 1:
        return rng.uniform(-1.0, 2.0, size=order)
    vals = rng.standard_normal(order)
    vals[rng.random(order) < 0.5] = 0.0
    return vals


def _draw_triple(rng: np.random.Generator) -> YoungTriple:
    kind = int(rng.integers(4))
    if kind == 0:
        return YoungTriple(1.0, 1.0, 1.0)
    if kind == 1:
        # conjugate pair with r = inf
        p = float(rng.uniform(1.0, 3.0))
        qq = math.inf if p == 1.0 else p / (p - 1.0)
        return YoungTriple(p, qq, math.inf)
    if kind == 2:
        s = float(rng.uniform(1.0, 6.0))
        return YoungTriple(1.0, s, s)
    p = float(rng.uniform(1.0, 2.5))
    r = p / float(rng.uniform(1e-3, 1.0))  # any r >= p is admissible
    denom = 1.0 + 1.0 / r - 1.0 / p
    qq = math.inf if denom <= 1e-13 else 1.0 / denom
    return YoungTriple(p, qq, r)


def run_suite(name: str, seed: int, n: int = 200_000) -> SuiteResult:
    """Dispatch by suite name; ``n`` only matters for the tails suite.  A
    negative seed is a DomainError naming it (_check_seed)."""
    _check_seed(seed)
    if name == "sandwich":
        return sandwich_suite(seed)
    if name == "tails":
        return tails_suite(seed, n=n)
    if name == "young":
        return young_suite(seed)
    if name == "algebra":
        return algebra_suite(seed)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
