"""Finite groups with normalized Haar measure and convolution.

Groups are multiplication tables over element indices 0..n-1.  The
measure of each element is 1/n, so the L^p norms are normalized power
means and convolution carries the 1/n factor:

    (f * g)(x) = (1/n) * sum_y f(y) g(y^{-1} x)

In this convention Young's inequality |f*g|_r <= |f|_p |g|_q holds with
constant exactly 1 whenever 1 + 1/r = 1/p + 1/q (the measure is a
probability, so no volume factor survives), and the convolution identity
is n times the indicator of the group unit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError, GroupAxiomError, SizeMismatchError, SpecParseError
from .generating import GeneratingFunction
from .grids import RestrictedSet
from .models import PowerMeanModel, _check_finite, power_mean
from .norms import DEFAULT_P_MAX, gls_norms
from .norms import gls_norm  # noqa: F401  unused here; the benchmark tracer patches it

_EXHAUSTIVE_ASSOC_LIMIT = 128
_PRODUCT_ORDER_LIMIT = 10_000
_YOUNG_EXPONENT_TOL = 1e-12
# relative slack of the Young and algebra verdicts (YoungReport.slack, AlgebraReport.slack)
_YOUNG_SLACK = 1e-12
_ALGEBRA_SLACK = 1e-9


class FiniteGroup:
    """Multiplication-table group; axioms are verified on construction.

    Associativity is checked exhaustively up to order 128 and on a
    seeded batch of 1000 random triples beyond that.  Identity and
    inverses are always verified in full.
    """

    def __init__(self, name: str, mul, labels=None):
        table = np.asarray(mul, dtype=np.intp)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupAxiomError(f"{name}: multiplication table must be square")
        n = table.shape[0]
        if n < 1 or table.min() < 0 or table.max() >= n:
            raise GroupAxiomError(f"{name}: table entries must index elements 0..{n - 1}")
        self.name = name
        self.mul = table
        self.order = n
        self.labels = tuple(labels) if labels is not None else tuple(str(k) for k in range(n))
        if len(self.labels) != n:
            raise GroupAxiomError(f"{name}: {len(self.labels)} labels for {n} elements")

        idx = np.arange(n)
        ident = [e for e in range(n) if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx)]
        if len(ident) != 1:
            raise GroupAxiomError(f"{name}: expected exactly one identity, found {len(ident)}")
        self.identity = ident[0]

        inv = np.full(n, -1, dtype=np.intp)
        for y in range(n):
            hits = np.nonzero(table[y] == self.identity)[0]
            if hits.size != 1 or table[hits[0], y] != self.identity:
                raise GroupAxiomError(f"{name}: element {y} has no two-sided inverse")
            inv[y] = hits[0]
        self.inv = inv

        if n <= _EXHAUSTIVE_ASSOC_LIMIT:
            if not np.array_equal(table[table], table[:, table]):
                raise GroupAxiomError(f"{name}: multiplication is not associative")
        else:
            rng = np.random.default_rng(n)
            a, b, c = rng.integers(0, n, size=(3, 1000))
            if not np.array_equal(table[table[a, b], c], table[a, table[b, c]]):
                raise GroupAxiomError(f"{name}: associativity spot check failed")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup({self.name}, order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise DomainError("cyclic groups need n >= 1")
    a = np.arange(n)
    return FiniteGroup(f"cyclic:{n}", (a[:, None] + a[None, :]) % n)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n; rotations first, then flips.

    Element a + n*b encodes r^a s^b; the defining relation s r = r^-1 s
    gives (r^a s^b)(r^c s^d) = r^(a + c*(-1)^b) s^(b+d).
    """
    if n < 1:
        raise DomainError("dihedral groups need n >= 1")
    mul = np.empty((2 * n, 2 * n), dtype=np.intp)
    for a in range(n):
        for b in (0, 1):
            for c in range(n):
                for d in (0, 1):
                    rot = (a + (c if b == 0 else -c)) % n
                    mul[a + n * b, c + n * d] = rot + n * ((b + d) % 2)
    labels = [f"r{a}" for a in range(n)] + [f"r{a}s" for a in range(n)]
    return FiniteGroup(f"dihedral:{n}", mul, labels)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of {0..n-1} in lexicographic order, n <= 5."""
    if not 1 <= n <= 5:
        raise DomainError("symmetric groups are supported for 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    m = len(perms)
    mul = np.empty((m, m), dtype=np.intp)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            mul[a, b] = index[tuple(pa[pb[i]] for i in range(n))]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(f"symmetric:{n}", mul, labels)


def product_group(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Direct product; index i*|H| + j for the pair (i, j)."""
    n, m = G.order, H.order
    if n * m > _PRODUCT_ORDER_LIMIT:
        raise DomainError(f"product of orders {n} and {m} exceeds the limit {_PRODUCT_ORDER_LIMIT}")
    gi, hj = np.divmod(np.arange(n * m), m)
    mul = G.mul[np.ix_(gi, gi)] * m + H.mul[np.ix_(hj, hj)]
    labels = [f"({G.labels[i]},{H.labels[j]})" for i in range(n) for j in range(m)]
    return FiniteGroup(f"product:{G.name}x{H.name}", mul, labels)


def make_group(spec: str) -> FiniteGroup:
    """Build a group from its CLI specifier.

    Grammar: "cyclic:<n>", "dihedral:<n>", "symmetric:<n>",
    "product:<spec>x<spec>".  Product operands may themselves be
    products; the splitting point is found by trying each 'x' until both
    halves parse.  When none does, the error names the spec and the
    operand error of the last split tried.
    """
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    if kind in ("cyclic", "dihedral", "symmetric"):
        try:
            n = int(rest)
        except ValueError:
            raise SpecParseError(f"bad group size in {spec!r}") from None
        maker = {"cyclic": cyclic_group, "dihedral": dihedral_group, "symmetric": symmetric_group}[kind]
        try:
            return maker(n)
        except DomainError as exc:
            raise SpecParseError(str(exc)) from exc
    if kind == "product":
        # the last operand error, appended to the message when no split parses
        why = ""
        for i, ch in enumerate(rest):
            if ch != "x":
                continue
            try:
                return product_group(make_group(rest[:i]), make_group(rest[i + 1 :]))
            except SpecParseError as exc:
                why = f": {exc}"
            except DomainError as exc:
                raise SpecParseError(str(exc)) from exc
        raise SpecParseError(f"cannot split product operands in {spec!r}{why}")
    raise SpecParseError(f"unknown group kind {kind!r} in {spec!r}")


# ---------------------------------------------------------------------------
# Functions on a group

def _sized_values(G: FiniteGroup, f) -> np.ndarray:
    """``f`` as a flat float array, or SizeMismatchError when it has not one
    value per element of G."""
    arr = np.asarray(f, dtype=float).ravel()
    if arr.size != G.order:
        raise SizeMismatchError(f"function has {arr.size} values on a group of order {G.order}")
    return arr


def _check_values(G: FiniteGroup, f, label: Optional[str] = None) -> np.ndarray:
    """``f`` as a flat float array, or SizeMismatchError when it has not one
    value per element of G, or DomainError naming its first non-finite one.
    A GroupFunctionModel on G gives its values, checked when it was built."""
    if isinstance(f, GroupFunctionModel) and f.group is G:
        return f.values
    return _check_finite(_sized_values(G, f), label or f"function on {G.name}")


def unit_function(G: FiniteGroup) -> np.ndarray:
    """Convolution identity: n at the group unit, 0 elsewhere."""
    u = np.zeros(G.order)
    u[G.identity] = float(G.order)
    return u


def convolve(G: FiniteGroup, f, g) -> np.ndarray:
    """(f * g)(x) = (1/n) sum_y f(y) g(y^{-1} x), y in index order; f and
    g are arrays of values or GroupFunctionModels on G (_check_values)."""
    fv = _check_values(G, f)
    gv = _check_values(G, g)
    # A[y, x] = y^{-1} x
    A = G.mul[G.inv, :]
    return (fv[:, None] * gv[A]).sum(axis=0) / G.order


def group_lp_norm(G: FiniteGroup, f, p) -> float:
    """Normalized power mean ((1/n) sum |f|^p)^(1/p); p = inf gives max."""
    return power_mean(np.abs(_check_values(G, f)), p)


class GroupFunctionModel(PowerMeanModel):
    """A function on a finite group viewed through its moment map.

    The normalized measure is a probability, so the function is a random
    variable like a sample (the same power-mean moments, without the
    sample's plug-in warning) and all the norm machinery (restricted,
    discrete, sandwich) applies verbatim.
    """

    def __init__(self, group: FiniteGroup, values, label: Optional[str] = None):
        # PowerMeanModel checks the values are finite, naming the label
        label = label or f"fn-on-{group.name}"
        super().__init__(_sized_values(group, values), label)
        self.group = group

    def lp_norm(self, p):
        return power_mean(self._moments, p)


# ---------------------------------------------------------------------------
# Inequality checks

def _inv_exp(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


@dataclass(frozen=True)
class YoungTriple:
    """Exponents with 1 + 1/r = 1/p + 1/q, each in [1, inf]."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q), ("r", self.r)):
            if not (v >= 1.0):
                raise DomainError(f"exponent {name} must be >= 1, got {v}")
        gap = abs(1.0 + _inv_exp(self.r) - _inv_exp(self.p) - _inv_exp(self.q))
        if gap > _YOUNG_EXPONENT_TOL:
            raise DomainError(
                f"exponents ({self.p:g}, {self.q:g}, {self.r:g}) violate 1 + 1/r = 1/p + 1/q by {gap:.3g}"
            )


@dataclass(frozen=True)
class YoungReport:
    slack: ClassVar[float] = _YOUNG_SLACK

    triple: YoungTriple
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + self.slack) + 1e-300


def young_check(G: FiniteGroup, f, g, triple: YoungTriple) -> YoungReport:
    """|f*g|_r <= |f|_p |g|_q with constant 1 under normalized measure."""
    conv = convolve(G, f, g)
    lhs = group_lp_norm(G, conv, triple.r)
    rhs = group_lp_norm(G, f, triple.p) * group_lp_norm(G, g, triple.q)
    return YoungReport(triple=triple, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class AlgebraReport:
    """Submultiplicativity report; sup_values are the p -> infinity
    limits (max |f|, max |g|, max |f*g|), showing how far the truncated
    suprema sit from the untruncatable ceiling."""

    slack: ClassVar[float] = _ALGEBRA_SLACK

    conv_norm: float
    f_norm: float
    g_norm: float
    constant: float
    sup_values: tuple

    @property
    def bound(self) -> float:
        return self.constant * self.f_norm * self.g_norm

    @property
    def ok(self) -> bool:
        return self.conv_norm <= self.bound * (1.0 + self.slack) + 1e-300


def algebra_check(
    G: FiniteGroup,
    f,
    g,
    psi: GeneratingFunction,
    S: Optional[RestrictedSet] = None,
    p_max: float = DEFAULT_P_MAX,
) -> AlgebraReport:
    """Submultiplicativity of the norm under convolution.

    Chaining |f*g|_p <= |f|_p |g|_1 through the norm bounds at p and at
    1 gives conv_norm <= psi(1) * f_norm * g_norm over any admissible
    domain (it contains 1 by construction).  For normalized psi the
    constant is exactly 1; a non-normalized psi pays its value at 1.
    The three norms, of f*g, f and g, are one search (gls_norms): one
    scan call evaluates the rows of all three, and every refinement round
    serves all their brackets; each norm has the bits gls_norm gives it.
    """
    fm = GroupFunctionModel(G, f, label="f")
    gm = GroupFunctionModel(G, g, label="g")
    # each array's values are checked once, when its model is built
    cm = GroupFunctionModel(G, convolve(G, fm, gm), label="f*g")
    conv_norm, f_norm, g_norm = gls_norms([cm, fm, gm], psi, p_max, S)
    return AlgebraReport(
        conv_norm=conv_norm.value,
        f_norm=f_norm.value,
        g_norm=g_norm.value,
        constant=psi.value_at_one,
        sup_values=tuple(float(np.abs(m.values).max()) for m in (fm, gm, cm)),
    )
