"""Random variables exposed through their L^p moment interface.

Two backends: exact closed-form moment maps for the built-in families, and
stored values with power-mean moments (PowerMeanModel: empirical samples
here, functions on a finite group in groups).  All moments are taken on a
probability space, so |f|_p is nondecreasing in p; the norm machinery
leans on that.

Importing this module loads numpy and no SciPy.  gaussian_model and
exponential_model load scipy.special (gammaln, ndtri) when they build a
model, so a process pays for it once and only if it needs one of them;
the other closed-form families and the power means run on numpy alone.
No moment is computed by quadrature, so the package never imports SciPy's
integration routines.

A plug-in moment taken past its sample's stable_p warns, from one line
(EmpiricalModel._warn_past_stable) whoever asks: lp_norm on every call,
and a norm search for the moment kernels it calls (_lp_norms), which warn
of nothing themselves.  No state outside a call decides whether it warns.

Sampling is deterministic: a (seed, n) pair always regenerates the same
array.  Generation is defined chunkwise with a fixed chunk size and one
child RNG stream per chunk index, so chunks may be produced in any order
(or in parallel) and concatenated without changing a single bit.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DomainError,
    EmptyBatchError,
    UnsupportedBackendError,
)

SAMPLE_CHUNK = 65536
#: draws per block of the bootstrap's gather (its int64 indices: 64 KiB)
_GATHER_BLOCK = SAMPLE_CHUNK // 8
#: largest chunk x n temporary power_means builds for an array of p
_POWER_MEAN_BLOCK = 1 << 18


class MomentInstabilityWarning(UserWarning):
    """Plug-in moment of an empirical sample is dominated by its maximum."""


@dataclass(frozen=True)
class SampleBatch:
    """Deterministically regenerable sample: same (seed, size), same bits.
    The size is read off the values, never stored beside them."""

    values: np.ndarray
    seed: int

    @property
    def size(self) -> int:
        return len(self.values)

    @cached_property
    def sorted_abs(self) -> np.ndarray:
        """|values| in increasing order, sorted once per batch."""
        absv = np.abs(self.values)
        absv.sort()
        absv.flags.writeable = False  # shared by every caller
        return absv


def _check_p(p, what: str = "moments") -> np.ndarray:
    """``p`` as a float array, 0-d for a scalar p, or DomainError naming the
    first p below 1 or NaN and, in an array, its index."""
    q = np.asarray(p, dtype=float)
    ok = q >= 1.0
    if not ok.all():
        if not q.ndim:
            raise DomainError(f"{what} are defined for p >= 1, got {p}")
        i = int(np.argmin(ok))
        at = i if q.ndim == 1 else tuple(map(int, np.unravel_index(i, q.shape)))
        raise DomainError(f"{what} are defined for p >= 1, got p={float(q.flat[i])!r} at index {at}")
    return q


def _shaped(out, q: np.ndarray):
    """``out``, the values at the checked p ``q``, as a float array, or as a
    float for a scalar p (``q`` 0-d, ``out`` of one value).  A scalar p
    reaches a moment or psi as a one-element array, never as a float, whose
    scalar math may round differently (libm's pow against a SIMD pow)."""
    out = np.asarray(out, dtype=float)
    return out.item(0) if not q.ndim else out


def read_values(path) -> np.ndarray:
    """The whitespace-separated numbers of a text file, as a float array.

    Two paths, the same bits and the same errors.  np.loadtxt parses the
    path in C, 26% faster than the token parser on 2^16 values one a line
    (Python 3.11, NumPy 2.4, a 2-core x86-64 VM).  Its converter is
    PyOS_string_to_double, the one float() uses, so every value it accepts
    has float()'s bits, and it splits on the whitespace str.split() splits
    on.  It accepts a strict subset of what float() does, so on any
    ValueError or OSError (ragged lines, 1_000, a bad token, a missing
    file) the token parser reads the file, float() on each token of
    str.split(), and raises its own ValueError or OSError with its text.
    _loadtxt_rows says which files loadtxt reads, and with what bound on
    their rows."""
    path = Path(path)
    try:
        rows = _loadtxt_rows(path)
        if rows != 0:
            return np.loadtxt(path, dtype=float, comments=None, ndmin=2, max_rows=rows).ravel()
    except (ValueError, OSError):
        pass
    return np.array(path.read_text().split(), dtype=float)


#: a byte of ASCII text that is not whitespace to str.split() or loadtxt
_TOKEN_BYTE = re.compile(rb"[^\t-\r\x1c-\x1f ]")
#: bytes of a text that _loadtxt_rows tests at a time, in buffers it reuses
#: (64 KiB; fresh full-size masks cost more in page faults than in compares)
_ROWS_CHUNK = 1 << 16


def _loadtxt_rows(path: Path):
    """loadtxt's max_rows for ``path``, a bound on its rows, or None for no
    bound; 0 where the token parser alone reads it: a suffix loadtxt would
    decompress, text that is not ASCII (whose digits and whitespace only
    float() and str.split() know), and text without a token, of which
    loadtxt warns that it holds no data.

    Given a bound, loadtxt allocates its array once.  Grown 25% at a time
    instead, the array left about 1.5 MB of the heap free but resident:
    2.5% more peak RSS over a 20 s run of the norm benchmark, against
    0.5-0.9% with the bound.  loadtxt warns of each line without a token
    under a bound, so the bound, the count of line ends plus one, is given
    only where the byte before every line end lies past the space, as no
    whitespace does, and the text ends in a line end or such a byte; a
    file with a CR (every CRLF file), a line end first, or a space or tab
    before a line end gets none."""
    if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):
        return 0
    data = path.read_bytes()
    if not (data.isascii() and _TOKEN_BYTE.search(data)):
        return 0
    if b"\r" in data or data[0] == ord("\n") or not (data[-1] == ord("\n") or data[-1] > ord(" ")):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    ends, after_space = np.empty(_ROWS_CHUNK, dtype=bool), np.empty(_ROWS_CHUNK, dtype=bool)
    lines = 0
    # the line ends at chars[i:i + n] and the bytes before them, the first
    # byte being no line end
    for i in range(1, chars.size, _ROWS_CHUNK):
        n = min(_ROWS_CHUNK, chars.size - i)
        e, a = ends[:n], after_space[:n]
        np.equal(chars[i : i + n], ord("\n"), out=e)
        np.less_equal(chars[i - 1 : i - 1 + n], ord(" "), out=a)
        a &= e
        if a.any():
            return None
        lines += int(np.count_nonzero(e))
    return lines + 1


def _check_seed(seed: int) -> None:
    """DomainError naming a negative seed, which no numpy Generator takes."""
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")


def _check_finite(values: np.ndarray, label: str) -> np.ndarray:
    """``values`` unchanged, or DomainError naming the first non-finite one."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"{label}: value {float(values[i])} at index {i} is not finite")
    return values


class PowerMeanState(NamedTuple):
    """What power_mean reads of fixed nonnegative values: their maximum,
    the values divided by it (None when the maximum is 0), and zero_p, the
    p past which power_mean skips the terms that underflow (see _ZERO_EXP;
    inf for fewer than _ZERO_MIN_VALUES values)."""

    mx: float
    scaled: Optional[np.ndarray]
    zero_p: float

    @classmethod
    def of(cls, abs_values: np.ndarray) -> "PowerMeanState":
        mx = float(abs_values.max())
        if mx == 0.0:
            return cls(mx, None, math.inf)
        scaled = abs_values / mx
        if scaled.size < _ZERO_MIN_VALUES:
            return cls(mx, scaled, math.inf)
        # zero_p only decides when the skip pays, never a bit of the result,
        # so the share of values below the cut is read off a strided probe
        probe = scaled[:: max(1, scaled.size // _ZERO_PROBE)]
        probe = probe[probe > 0.0]
        k = probe.size // _ZERO_SHARE
        low = float(np.partition(probe, k)[k]) if probe.size else 1.0
        return cls(mx, scaled, _ZERO_EXP / math.log2(low) if low < 1.0 else math.inf)


# power_mean drops the terms a^p below 2^_ZERO_EXP: 26 binades under the
# smallest subnormal, 2^-1074, so they are exactly 0.0 however pow rounds,
# and a^p evaluated on them takes libm's slow underflow path (about 0.15 us
# a term against 3-4 ns).  The skip's mask, gather and scatter cost about
# 3 us a call plus 7 ns a value.  Timed on normal samples (Python 3.11,
# NumPy 2.4, median of 5-7 rounds), it breaks even when about one value in
# 14 is below the cut 2^(_ZERO_EXP / p) (2^10 and 2^16 values), costs 3.5x
# the plain pow when almost none is, and loses at 32 values even when all
# but one are.  So it runs for p past zero_p, where about 1/_ZERO_SHARE of
# the positive values are below the cut, on at least _ZERO_MIN_VALUES
# values, and below _ZERO_P_MAX: past that, the rounding of the cut,
# amplified p-fold, could eat the 26 binades
_ZERO_EXP = -1100.0
_ZERO_SHARE = 8
_ZERO_PROBE = 4096
_ZERO_MIN_VALUES = 128
_ZERO_P_MAX = 2.0**40


def _row_powers(scaled: np.ndarray, qs: np.ndarray, zero_p: float) -> np.ndarray:
    """scaled ** qs[:, None]; in the rows past zero_p (and below
    _ZERO_P_MAX) the terms below the cut, which are exactly 0.0, are set
    without a pow call, and the others go through the same operator."""
    skip = (zero_p < qs) & (qs < _ZERO_P_MAX)
    if not skip.any():
        return scaled ** qs[:, None]
    terms = np.zeros((qs.size, scaled.size))
    terms[~skip] = scaled ** qs[~skip, None]
    for i in np.flatnonzero(skip).tolist():
        keep = scaled >= 2.0 ** (_ZERO_EXP / qs[i])
        terms[i, keep] = scaled[keep] ** qs[i]
    return terms


def power_mean(abs_values, p):
    """Normalized power mean ((1/n) sum a^p)^(1/p) of nonnegative values.

    The values are scaled by their maximum first, so a large p cannot
    overflow, and p = inf gives the maximum exactly (the scaled mean is
    at least 1/n and its 0th power is 1).  ``abs_values`` is the array of
    values or its PowerMeanState, which a model computes once instead of
    on every call.  ``p`` is a scalar (returns a float) or an array
    (returns an array of its shape); either goes through power_means, a
    scalar as a one-element array.  The 1/p-th root is libm's pow
    (np.float_power; np.power may take a SIMD pow that differs from libm
    in the last place).  Terms that underflow to exactly 0.0 (see
    _ZERO_EXP) are not passed to pow; the others go through the same
    operator, and the sum runs over the same full-length array, so the
    skip leaves the bits as they are.
    """
    state = abs_values if isinstance(abs_values, PowerMeanState) else PowerMeanState.of(abs_values)
    q = _check_p(p)
    flat = q.ravel()
    return _shaped(power_means([state], flat, (0, flat.size)).reshape(q.shape), q)


def power_means(states, qs: np.ndarray, at) -> np.ndarray:
    """power_mean(states[k], qs[at[k]:at[k + 1]]) for every k, concatenated,
    each value with its bits: the mean of the powers state by state
    (_power_means_of), one 1/q-th root over all of ``qs``, then the scaling
    by each state's maximum.  The p of ``qs`` are checked already; values
    that are all zero give 0.0."""
    means = np.empty(qs.size)
    squares = np.count_nonzero(qs == 2.0) > 0
    for state, lo, hi in zip(states, at, at[1:]):
        _power_means_of(state, qs[lo:hi], means[lo:hi], squares)
    out = np.float_power(means, 1.0 / qs)
    for state, lo, hi in zip(states, at, at[1:]):
        out[lo:hi] *= state.mx
    return out


def _power_means_of(state: PowerMeanState, qs: np.ndarray, out: np.ndarray, squares: bool) -> None:
    """out[i] = the pairwise np.add.reduce of scaled ** qs[i] over the
    count of values (0.0 when they are all zero), in chunks of p whose
    chunk x n temporary stays within _POWER_MEAN_BLOCK elements.

    Every term goes through pow.  NumPy squares where the exponent 2
    reaches its loop as one scalar (a chunk of one p, or one too large to
    buffer) and takes pow where it buffers the exponents (three or more p
    on up to about a thousand values), and on AVX-512 loops the two differ
    in the last place for about one value in 20.  So where ``squares``
    says that some p is 2, the rows of p = 2 are taken again, every term
    against an array of exponents (past zero_p too, where the skip saved
    nothing then), and p = 2 has the same bits in any array."""
    mx, scaled, zero_p = state
    if scaled is None:
        out[:] = 0.0
        return
    step = max(1, _POWER_MEAN_BLOCK // scaled.size)
    for start in range(0, qs.size, step):
        chunk = qs[start : start + step]
        # one float comparison when no p can skip (as for fewer values than
        # _ZERO_MIN_VALUES, whose zero_p is inf), and one reduction when no p
        # of the chunk does
        if zero_p < _ZERO_P_MAX and zero_p < chunk.max():
            terms = _row_powers(scaled, chunk, zero_p)
        else:
            terms = scaled ** chunk[:, None]
        if squares:
            terms[chunk == 2.0] = scaled ** np.full(scaled.size, 2.0)
        np.add.reduce(terms, axis=1, out=out[start : start + step])
    out /= scaled.size


def _uniform_chunk(seed: int, chunk_index: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with one chunk's 53-bit uniforms (k + 1/2) 2^-53, k
    uniform in [0, 2^53), rounded to a double; returns ``out``.  They lie in
    (0, 1]: k + 1/2 rounds to even past 2^52, so k = 2^53 - 1 gives 1.0.

    random() takes k as the top 53 bits of each 64-bit draw, as a bounded
    integers(0, 2^53) draw does, and adding the half-ulp 2^-54 to k 2^-53
    rounds as k + 0.5 does, so the bits are those of
    (integers(0, 2**53) + 0.5) * 2**-53 without its temporaries."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    np.random.default_rng(ss).random(out=out)
    out += 2.0**-54
    return out


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """Uniforms for sample generation, chunk by chunk: chunk i is
    _uniform_chunk(seed, i, <its slice>), which depends on no other chunk,
    so the chunks may be produced in any order.  The array is fresh: the
    caller owns it and may transform it in place.  A negative seed is a
    DomainError naming it."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    _check_seed(seed)
    out = np.empty(n, dtype=np.float64)
    for ci, start in enumerate(range(0, n, SAMPLE_CHUNK)):
        _uniform_chunk(seed, ci, out[start : start + SAMPLE_CHUNK])
    return out


class RandomVariableModel:
    """Common interface: lp_norm and optional sampling."""

    label: str = "model"

    def lp_norm(self, p):
        raise NotImplementedError

    def _lp_norms(self, q: np.ndarray) -> np.ndarray:
        """|f|_p at every p of the float array ``q``, all of them at least 1
        already: the moment kernel that lp_norm wraps with its check of p,
        called directly where the points lie in [1, p_max] by construction
        (a norm search's).  Here lp_norm itself; the shipped backends take
        their moment map or power_means without a check, and warn of
        nothing (a search warns for its kernels: norms._search)."""
        return self.lp_norm(q)

    def sample_values(self, n: int, seed: int) -> np.ndarray:
        raise UnsupportedBackendError(f"{self.label} backend does not support sampling")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.label})"


class ClosedFormModel(RandomVariableModel):
    """Model whose moment map p -> |f|_p is an exact formula.

    ``moment_fn`` maps a float array of checked p, at least 1-d, to |f|_p
    at each.  ``transform`` maps a fresh array of uniforms to draws.  It
    owns that array and may overwrite it; the built-in families write their
    draws into it, so a sample allocates its output and nothing of its size
    beside it.  ``ess_sup``, keyword-only, is ess sup |f| as an exact
    float, or +inf, the default, for an |f| unbounded or not declared."""

    def __init__(self, label, moment_fn, transform=None, *, ess_sup=math.inf):
        self.label = label
        self._moment_fn = moment_fn
        self._transform = transform
        self.ess_sup = float(ess_sup)

    @cached_property
    def _mean_abs(self) -> float:
        """|f|_1 from the moment map, computed once per model and not
        through lp_norm."""
        return float(self._moment_fn(np.ones(1))[0])

    def lp_norm(self, p):
        q = _check_p(p)
        return _shaped(self._lp_norms(np.atleast_1d(q)), q)

    def _lp_norms(self, q: np.ndarray) -> np.ndarray:
        return self._moment_fn(q)

    def sample_values(self, n: int, seed: int) -> np.ndarray:
        if self._transform is None:
            raise UnsupportedBackendError(f"{self.label} has no sampler")
        return self._transform(uniform_stream(seed, n))


class PowerMeanModel(RandomVariableModel):
    """Finitely many stored values of equal weight: a sample under its
    empirical measure, or a function on a finite group under normalized
    Haar measure.  |f|_p is their normalized power mean: each subclass's
    lp_norm is power_mean(self._moments, p), EmpiricalModel's with a
    warning, and the unchecked kernel _lp_norms, quiet for every subclass,
    is power_means.  A norm search of several models takes their moments
    for all of them at once (power_means; see norms._stacks)."""

    #: what the values are, in the error an empty array raises
    what = "power-mean model"

    def __init__(self, values, label: str):
        vals = np.asarray(values, dtype=float).ravel()
        if vals.size == 0:
            raise EmptyBatchError(f"{self.what} needs at least one value")
        self.values = _check_finite(vals, label)
        self.label = label

    @cached_property
    def _moments(self) -> PowerMeanState:
        return PowerMeanState.of(np.abs(self.values))

    @property
    def ess_sup(self) -> float:
        """ess sup |f|, the largest |value|."""
        return self._moments.mx

    def _lp_norms(self, q: np.ndarray) -> np.ndarray:
        flat = q.ravel()
        return power_means([self._moments], flat, (0, flat.size)).reshape(q.shape)


class EmpiricalModel(PowerMeanModel):
    """Plug-in moments of a stored sample; sampling bootstraps from it."""

    what = "empirical model"

    def __init__(self, values, label="empirical"):
        super().__init__(values, label)
        #: beyond this p the plug-in moment is dominated by the sample
        #: maximum, and lp_norm and a norm search warn
        self.stable_p = 5.0 * math.log(max(self.values.size, 2))

    @classmethod
    def from_file(cls, path) -> "EmpiricalModel":
        return cls(read_values(path), label=f"empirical:{path}")

    def lp_norm(self, p):
        out = power_mean(self._moments, p)
        self._warn_past_stable(float(np.asarray(p).max(initial=1.0)))
        return out

    def _warn_past_stable(self, top: float) -> None:
        """The plug-in warning for a call whose largest p is ``top``.  It
        is raised from this line whoever warns (lp_norm, so psi_eval of a
        natural psi, and a norm search, which warns for its quiet moment
        kernels: norms._search), so the ``default`` filter shows each text
        once."""
        if top > self.stable_p:
            warnings.warn(
                f"plug-in moment at p={top:g} with n={self.values.size} is dominated by the sample maximum",
                MomentInstabilityWarning,
            )

    def sample_values(self, n: int, seed: int) -> np.ndarray:
        u = uniform_stream(seed, n)
        u *= self.values.size
        # gathered block by block into u, so the int64 indices take an
        # eighth of a chunk beside it; mode="clip" maps the index u * size
        # rounds up to, size, to size - 1
        for start in range(0, n, _GATHER_BLOCK):
            block = u[start : start + _GATHER_BLOCK]
            np.take(self.values, block.astype(np.int64), out=block, mode="clip")
        return u


# ---------------------------------------------------------------------------
# Built-in closed-form families

def _lgamma_over_p(x, p):
    """ln Gamma(x) / p by Stirling's series with each term divided by p,
    (x - 1/2) / p * ln x - x / p + ln(2 pi) / (2p): finite where ln Gamma(x)
    overflows (x past about 2.5e305), and there the first dropped term,
    1 / (12 x p), lies far below an ulp."""
    return (x - 0.5) / p * np.log(x) - x / p + 0.5 * math.log(2.0 * math.pi) / p


def _log_norm(log_moment, p, past_overflow):
    """ln |f|_p = log_moment / p.  Where the log-moment overflowed to +inf
    (p past about 5e305), although |f|_p is finite, past_overflow(p) gives
    the quotient with the division by p taken first; every finite quotient
    keeps its bits."""
    r = log_moment / p
    over = r == math.inf
    if over.any():
        r[over] = past_overflow(p[over])
    return r


def gaussian_model() -> ClosedFormModel:
    """Standard Gaussian: |f|_p = [2^(p/2) Gamma((p+1)/2) / sqrt(pi)]^(1/p)."""
    from scipy.special import gammaln, ndtri

    def past_overflow(p):
        return 0.5 * math.log(2.0) + _lgamma_over_p((p + 1.0) / 2.0, p) - 0.5 * math.log(math.pi) / p

    def moments(p):
        log_moment = (p / 2.0) * math.log(2.0) + gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
        return np.exp(_log_norm(log_moment, p, past_overflow))

    return ClosedFormModel("gaussian", moments, transform=lambda u: ndtri(u, out=u))


def uniform01_model() -> ClosedFormModel:
    """Uniform on [0,1]: |f|_p = (p+1)^(-1/p)."""

    def moments(p):
        return np.exp(-np.log(p + 1.0) / p)

    return ClosedFormModel("uniform01", moments, transform=lambda u: u, ess_sup=1.0)


def exponential_model() -> ClosedFormModel:
    """Exponential(1): |f|_p = Gamma(p+1)^(1/p)."""
    from scipy.special import gammaln

    def moments(p):
        return np.exp(_log_norm(gammaln(p + 1.0), p, lambda p: _lgamma_over_p(p + 1.0, p)))

    def transform(u):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        return np.negative(u, out=u)

    return ClosedFormModel("exponential", moments, transform=transform)


def constant_model(c: float) -> ClosedFormModel:
    """Constant |c|: every moment equals |c|.  A non-finite c is a
    DomainError naming it, as a non-finite sample value is."""
    a = abs(float(c))
    if not math.isfinite(a):
        raise DomainError(f"constant model: value {float(c)} is not finite")

    def moments(p):
        return np.full_like(p, a)

    def transform(u):
        u.fill(float(c))
        return u

    return ClosedFormModel(f"constant:{c:g}", moments, transform=transform, ess_sup=a)


def rademacher_model() -> ClosedFormModel:
    """Symmetric signs: |f|_p = 1 for every p."""

    def moments(p):
        return np.ones_like(p)

    def transform(u):
        negative = u < 0.5
        u.fill(1.0)
        u[negative] = -1.0
        return u

    return ClosedFormModel("rademacher", moments, transform=transform, ess_sup=1.0)


# ---------------------------------------------------------------------------
# Module-level operations

def sample(model: RandomVariableModel, n: int, seed: int) -> SampleBatch:
    """Deterministic sample of size n; chunk order cannot change the bits.
    A negative seed is a DomainError naming it, whatever n is."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    _check_seed(seed)
    values = model.sample_values(n, seed) if n > 0 else np.empty(0, dtype=float)
    return SampleBatch(values=values, seed=int(seed))


def empirical_survival(batch: SampleBatch, x):
    """Fraction of the batch with |value| >= x, for a scalar or an array x."""
    if batch.size == 0:
        raise EmptyBatchError("survival of an empty batch is undefined")
    count = batch.size - np.searchsorted(batch.sorted_abs, x, side="left")
    return count / batch.size if np.ndim(x) else float(count) / batch.size
