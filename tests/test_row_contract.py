"""The row contract of sup_rows, as one property over every route: guessed
rounds, lockstep, the rerun after an error, the end certificate, plateaus,
the bracket bound and the pruned scan, drawn through sup_rows' two facts,
``per_point`` and ``lower``.  Without an envelope, a row's value is the
largest of its scan values and of every point golden section evaluates
in its refined brackets, x1 and x2 included, ties going to the smallest
p.  A guessed round's points past its first wrong guess are not among
them: they are discarded, so that the result keeps golden section's
bits.  The end certificate keeps that contract row by row.  Where the
scan was pruned or a bracket ruled out under the envelope, it holds for
each search's largest row value."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import PowerSlowVaryParams, make_power_slowvary, psi_eval, raw_power_slowvary
from glspace import search
from glspace.models import PowerMeanState, power_mean
from glspace.search import INV_PHI, SCALAR_BRACKETS, _PLATEAU_ULP, golden_section_max, sup_rows


def _bumps(a, c, s, q, kink):
    """(num, den) of a sum of bumps, Lorentzian a / (1 + s (x - c)^2) or,
    with ``kink``, triangular a max(0, 1 - s |x - c|), the parameters of row
    r in a[r], c[r] and s[r], floored to multiples of 1/q when q is given:
    flat steps, plateaus and exact ties.  Only exactly rounded operations,
    so a point has the same bits alone or in an array."""

    def parts(x, row):
        out = np.zeros(x.size)
        for j in range(a.shape[1]):
            d = x - c[row, j]
            if kink:
                out = out + a[row, j] * np.maximum(0.0, 1.0 - s[row, j] * np.abs(d))
            else:
                out = out + a[row, j] / (1.0 + s[row, j] * d * d)
        if q is not None:
            out = np.floor(out * q) / q
        return out, np.ones_like(x)

    return parts


_DENSE = np.geomspace(1.0, 200.0, 2049)


@functools.cache
def _state(seed: int, size: int) -> PowerMeanState:
    return PowerMeanState.of(np.abs(np.random.default_rng(seed).standard_normal(size)))


def _moments(states, psi, owner):
    """(num, den) of |f_k|_p / psi(p), f_k the sample of search k =
    owner[row]: a p-norm on a probability space over a psi flagged
    nondecreasing and log_concave, which pruning and the end certificate
    need."""

    def parts(x, row):
        k = owner[row]
        num = np.empty(x.size)
        for j, state in enumerate(states):
            on = k == j
            if on.any():
                num[on] = power_mean(state, x[on])
        return num, psi_eval(psi, x)

    return parts


def _rows(draw, lo_range, n):
    """A scan array of 1-4 rows of ``n`` increasing points each, geometric
    or even, the rows' ends drawn: each row spans 1e-3 to 4 times its
    start, log-uniformly, so that narrow cells are as common as wide ones."""
    k = draw(st.integers(1, 4))
    lo = np.array(draw(st.lists(st.floats(*lo_range), min_size=k, max_size=k)))
    hi = lo * (1.0 + 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 0.6), min_size=k, max_size=k))))
    xs = (np.geomspace if draw(st.booleans()) else np.linspace)(lo, hi, n, axis=1)
    xs[:, 0], xs[:, -1] = lo, hi
    return xs


@st.composite
def _case(draw):
    """A scan array, its (num, den), the sup_rows keywords, the bracket cap
    (SCALAR_BRACKETS), whether errors fall off golden section's path,
    whether guesses go against their prediction, and each row's search."""
    if draw(st.booleans()):
        # bumps: guessed rounds or lockstep, plateaus and ties
        xs = _rows(draw, (0.5, 30.0), draw(st.integers(2, 40)))
        k, m = xs.shape[0], draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a, s = rng.uniform(0.1, 2.0, (k, m)), np.exp(rng.uniform(-3.0, 6.0, (k, m)))
        c = rng.uniform(xs[:, :1], xs[:, -1:], (k, m))
        aim = draw(st.sampled_from([None, 0, 1]))
        if aim is not None and xs.shape[1] >= 3:
            # a tall bump at x1 (or x2), the first inner points golden section
            # evaluates, of the bracket around scan point i: where it is a
            # kink, every later point of the path lies below it
            i = draw(st.integers(1, xs.shape[1] - 2))
            lo, hi = float(xs[0, i - 1]), float(xs[0, i + 1])
            c[0, 0] = (hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo))[aim]
            a[0, 0] = 10.0
        parts = _bumps(a, c, s, draw(st.sampled_from([None, None, 4.0, 64.0])), draw(st.booleans()))
        # no p-norm, so no envelope
        kw, group = {}, np.zeros(k, dtype=int)
    else:
        # moments over a power-family psi: the end certificate and pruning
        xs = _rows(draw, (1.0, 40.0), draw(st.sampled_from([3, 9, 65, 130])))
        k = xs.shape[0]
        n_search = draw(st.integers(1, k))
        owner = np.array(draw(st.lists(st.integers(0, n_search - 1), min_size=k, max_size=k)))
        states = [_state(draw(st.integers(0, 2**16)), draw(st.sampled_from([2, 5, 16]))) for _ in range(n_search)]
        make = draw(st.sampled_from([make_power_slowvary, raw_power_slowvary]))
        # r = 1 mostly peaks at p = 1, r = 8 and 32 often inside [1, 200]
        r, delta = draw(st.sampled_from([1.0, 8.0, 32.0, 32.0])), draw(st.sampled_from([0.0, 0.0, 0.5]))
        psi = make(PowerSlowVaryParams(r, delta))
        parts = _moments(states, psi, owner)
        # where the ratio peaks inside [1, 200], row 0 scaled so that the
        # peak lies at a fraction t of the way from its scan point ``start``
        # to ``stop``: at its first point, in its first or last cell near the
        # row's end, where a row-end scan peak is hardest to certify, or
        # anywhere inside, where the pruning bound is tightest
        start, stop = draw(st.sampled_from([(0, 0), (0, 1), (-1, -2), (0, -1)]))
        num, den = parts(_DENSE, np.zeros(_DENSE.size, dtype=int))
        peak = _DENSE[np.argmax(num / den)]
        scale = peak / (xs[0, start] + draw(st.floats(0.02, 0.98)) * (xs[0, stop] - xs[0, start]))
        if 1.0 < peak < _DENSE[-1] and xs[0, 0] * scale >= 1.0:
            xs[0] *= scale
        # no envelope; psi's own, most often with its concave chord (the end
        # certificate), or without it; or one declared: psi itself, or half
        # of it, both with the chord (the bumps draw no envelope)
        kw = {"lower": draw(st.sampled_from([
            None, (None, True), (None, True), (None, True), (None, False),
            (lambda p: psi_eval(psi, p), True), (lambda p: 0.5 * psi_eval(psi, p), True),
        ]))}
        group = np.zeros(k, dtype=int)
        if draw(st.booleans()):
            floor = [draw(st.sampled_from([-np.inf, -np.inf, 0.0, 0.5])) for _ in range(n_search)]
            kw.update(floor=floor, search=owner)
            group = owner
    kw["per_point"] = draw(st.booleans())
    cap = draw(st.sampled_from([SCALAR_BRACKETS, 2]))
    return xs, parts, kw, cap, draw(st.booleans()), draw(st.booleans()), group


def _contract(xs, parts):
    """Per row, the largest (value, -p) of its scan and of golden section's
    path in each refined bracket, with the set of every point on those
    paths and the number of brackets.  A bracket is refined unless its scan
    peak and both neighbours agree within _PLATEAU_ULP ulp; a peak the end
    certificate spares is refined here too, since the certificate promises
    that golden section would not beat it."""
    rows, n = xs.shape
    ys = np.array([[_at(parts, x, r) for x in xs[r].tolist()] for r in range(rows)])
    best, path, brackets = [], set(xs.ravel().tolist()), 0
    for r in range(rows):
        y = ys[r]
        top = max(zip(y.tolist(), (-xs[r]).tolist()))
        for i in range(n):
            il, ih = max(i - 1, 0), min(i + 1, n - 1)
            if y[i] < y[il] or y[i] < y[ih] or not xs[r, ih] > xs[r, il]:
                continue
            near = _PLATEAU_ULP * np.spacing(abs(y[i]))
            if y[i] - y[il] <= near and y[i] - y[ih] <= near:
                continue
            brackets += 1
            seen = []

            def f(x):
                seen.append(x)
                return _at(parts, x, r)

            golden_section_max(f, float(xs[r, il]), float(xs[r, ih]), f_lo=float(y[il]), f_hi=float(y[ih]))
            path.update(seen)
            top = max(top, *((_at(parts, x, r), -x) for x in seen))
        best.append(top)
    return best, path, brackets, ys


def _at(parts, x, row):
    """The ratio at the point x of row ``row``, alone."""
    num, den = parts(np.array([x]), np.array([row]))
    return float(num[0] / den[0])


def _nan_off(parts, path, asked):
    """``parts``, NaN at every point off ``path``; every point it is asked
    for goes into ``asked``."""

    def poisoned(x, row):
        asked.update(x.tolist())
        num, den = parts(x, row)
        return np.where(np.isin(x, list(path)), num, np.nan), den

    return poisoned


@settings(max_examples=200)
@given(case=_case())
def test_every_route_keeps_the_row_contract(case):
    xs, parts, kw, cap, off_path, contrary, group = case
    best, path, brackets, ys = _contract(xs, parts)
    asked = set()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "SCALAR_BRACKETS", cap)
        if contrary:
            # every guessed decision the opposite of the prediction: most
            # guesses wrong, and many points past them
            guess = search._guess_left
            m.setattr(search, "_guess_left", lambda x1, x2, target: not guess(x1, x2, target))
        res = sup_rows(_nan_off(parts, path, asked) if off_path else parts, xs, **kw)
    # an error off golden section's path (only a guessed round asks for
    # such a point) reruns every bracket refined, and changes no value; a
    # pruned scan refines only the brackets of the cells it keeps
    lower = kw.get("lower")
    refined = brackets - res.certified - res.ruled_out
    if not (off_path and asked - path):
        assert res.reran == 0
    elif kw["per_point"] and lower is not None:
        assert 0 < res.reran <= refined
    else:
        assert res.reran == refined
    got = list(zip(res.values.tolist(), (-res.args).tolist()))
    if lower is None or (res.pruned == 0 and res.ruled_out == 0):
        # the end certificate changes no row's value: only a pruned cell or
        # a bracket ruled out can
        assert got == best
    else:
        # pruned or ruled out: each search's largest row value and its
        # argument, above its floor; no row beats its full contract
        floors = kw.get("floor", [-np.inf] * (int(group.max()) + 1))
        for k in np.unique(group).tolist():
            mine = np.flatnonzero(group == k).tolist()
            top, want, floor = max(got[r] for r in mine), max(best[r] for r in mine), floors[k]
            assert top == want if want[0] > floor else top[0] <= floor
        assert all(g <= b for g, b in zip(got, best))
    if xs.shape[1] >= 3:
        assert res.decreasing_at_hi.tolist() == ((ys[:, -3] > ys[:, -2]) & (ys[:, -2] > ys[:, -1])).tolist()
