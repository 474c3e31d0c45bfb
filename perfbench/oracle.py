"""Reference values the benchmark checks every operation against.

Everything here is written from the formulas, not from glspace: moment
maps of the built-in families, the power mean of a stored sample or group
function, the generating functions, and the maximum of |f|_p / psi(p)
over a dense grid of the operation's domain.  A grid maximum is a lower
bound of the true supremum, so a computed norm that falls below it by
more than the tolerance is a wrong answer.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.special import gammaln

# Relative amount by which a computed norm may fall below the grid maximum.
BELOW_GRID_RTOL = 1e-9
# Relative agreement required where the answer is known in closed form.
EXACT_RTOL = 1e-12

GRID_POINTS = 2048
# for a stored sample the grid costs n exponentials per point; its points
# are capped so that one check stays within this many
SAMPLE_GRID_ELEMENTS = 1 << 23
MIN_SAMPLE_GRID_POINTS = 128
# sqrt_dip ripples with unit period; sample each unit interval densely
RIPPLE_POINTS_PER_UNIT = 100
# p-chunk so that one chunk of a sample's powers stays within 2 MiB
_CHUNK_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# Moments


def closed_form_moment(label: str, p: np.ndarray) -> np.ndarray:
    """|f|_p of a built-in family, by its textbook formula."""
    p = np.asarray(p, dtype=float)
    if label == "gaussian":
        return np.exp(((p / 2.0) * math.log(2.0) + gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / p)
    if label == "uniform01":
        return np.exp(-np.log(p + 1.0) / p)
    if label == "exponential":
        return np.exp(gammaln(p + 1.0) / p)
    if label == "rademacher":
        return np.ones_like(p)
    if label.startswith("constant:"):
        return np.full_like(p, abs(float(label[len("constant:"):])))
    raise ValueError(f"no closed form for {label!r}")


def closed_form_l1(label: str) -> float:
    """|f|_1 of a built-in family."""
    exact = {"gaussian": math.sqrt(2.0 / math.pi), "uniform01": 0.5, "exponential": 1.0, "rademacher": 1.0}
    if label in exact:
        return exact[label]
    return abs(float(label[len("constant:"):]))


def power_mean(values: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(mean |v|^p)^(1/p) for each p, max-scaled, chunked over p."""
    a = np.abs(np.asarray(values, dtype=float))
    p = np.asarray(p, dtype=float)
    mx = float(a.max())
    if mx == 0.0:
        return np.zeros_like(p)
    with np.errstate(divide="ignore"):
        log_a = np.log(a / mx)
    out = np.empty(p.size)
    step = max(1, _CHUNK_ELEMENTS // a.size)
    for i in range(0, p.size, step):
        pc = p[i : i + step]
        out[i : i + step] = np.exp(pc[:, None] * log_a[None, :]).mean(axis=1) ** (1.0 / pc)
    return mx * out


# ---------------------------------------------------------------------------
# Generating functions

_PSV_RE = re.compile(r"^(raw_)?power_slowvary\(r=([^,]+), delta=([^)]+)\)$")


def psi_from_description(description: str, natural_moment=None):
    """Evaluator for a glspace psi label; ``natural_moment`` is the
    moment map a ``natural...`` psi divides by its value at 1."""
    m = _PSV_RE.match(description)
    if m:
        raw, r, delta = m.group(1), float(m.group(2)), float(m.group(3))
        scale = 1.0 if raw else math.log(3.0) ** delta
        return lambda p: np.power(p, 1.0 / r) * np.log(2.0 + p) ** delta / scale
    if description == "sqrt_dip":
        return lambda p: np.sqrt(p) * (1.0 + 0.5 * np.cos(np.pi * p) ** 2) / 1.5
    if description.startswith("natural") and natural_moment is not None:
        m1 = float(natural_moment(np.array([1.0]))[0])
        return lambda p: natural_moment(p) / m1
    raise ValueError(f"no reference evaluator for psi {description!r}")


# ---------------------------------------------------------------------------
# Domains


def sample_grid_points(n: int) -> int:
    """Grid size for a sample of n values."""
    return int(min(GRID_POINTS, max(MIN_SAMPLE_GRID_POINTS, SAMPLE_GRID_ELEMENTS // n)))


def dense_points(segments, points: int = GRID_POINTS, ripple: bool = False) -> np.ndarray:
    """Grid over a union of closed segments, ``points`` in total, shared
    by length on a log scale; degenerate segments are single points."""
    parts = []
    total_log = sum(math.log(b / a) for a, b in segments if b > a) or 1.0
    for a, b in segments:
        if b < a:
            continue
        if a == b:
            parts.append(np.array([a]))
            continue
        parts.append(np.geomspace(a, b, max(2, int(points * math.log(b / a) / total_log))))
        if ripple:
            parts.append(np.linspace(a, b, int(math.ceil((b - a) * RIPPLE_POINTS_PER_UNIT)) + 1))
    return np.unique(np.concatenate(parts))


def clip_segments(segments, p_max: float):
    """Segments of a set intersected with [1, p_max]."""
    return [(max(a, 1.0), min(b, p_max)) for a, b in segments if max(a, 1.0) <= min(b, p_max)]


def window_point(segments, p_max: float) -> float:
    """Smallest element of the set at or above p_max."""
    for a, b in segments:
        if b >= p_max:
            return max(a, p_max)
    return math.inf


def grid_max(moment, psi, ps: np.ndarray) -> float:
    """max over ps of moment(p) / psi(p)."""
    ps = np.asarray(ps, dtype=float)
    return float(np.max(moment(ps) / psi(ps)))


def below(value: float, reference: float) -> bool:
    """True when a computed norm falls below a grid maximum."""
    return value < reference * (1.0 - BELOW_GRID_RTOL)


def differs(value: float, reference: float, rtol: float = EXACT_RTOL) -> bool:
    return not abs(value - reference) <= rtol * abs(reference)
