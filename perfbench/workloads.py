"""The four workloads: inputs, the call each op makes, and its check.

An op is one user-level call.  Each workload draws its inputs from the
run's seed in fixed-composition blocks, so every run executes the same
mix of op kinds in the same proportions and only the drawn parameters
change with the seed.  Inputs are drawn (and sample files written)
between ops, outside the timed region.  Each workload:

- ``setup_inputs(rng)``: the few seeded values the program-side set-up
  needs (constants of the constant models);
- ``setup(gl, inputs)``: program-side construction before the first op,
  timed as part of ``setup_s``;
- ``blocks(rng, env, workdir)``: an endless iterator of op blocks;
- ``execute(env, op)``: the timed call; returns an outcome that compares by value;
- ``check(env, op, outcome)``: the failures the oracle finds.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import oracle as ref

P_MAX = 200.0

# ---------------------------------------------------------------------------
# Shared helpers


def _cycle(rng: np.random.Generator, n: int):
    """Endless stream of indices 0..n-1: each pass is a fresh permutation,
    so every index recurs at the same rate in every run."""
    while True:
        yield from rng.permutation(n).tolist()


def _round_const(rng: np.random.Generator) -> float:
    # three decimals, so the model label ("constant:%g") names it exactly
    return round(float(rng.uniform(0.5, 8.0)), 3)


@dataclass
class Env:
    """Program objects built at set-up, plus the psi mapping that the
    traced phase uses to substitute counted evaluators."""

    gl: object
    pools: dict
    psi_map: Optional[dict] = None

    def psi(self, psi):
        return psi if self.psi_map is None else self.psi_map[id(psi)]


# ---------------------------------------------------------------------------
# sandwich


@dataclass(frozen=True)
class SandwichOp:
    kind: str  # "Z" restricted, "W" discrete, "W_hat" discrete with sqrt_dip
    model: int
    psi: int
    domain: int


class Sandwich:
    name = "sandwich"
    reference = "mixed"  # the reference kernel (reference.py)
    block_seconds = 2.6  # CPU time of a block of 60 ops, kernel included, at the usual speed
    # Per block of 60, the sandwich_suite mix: 30 restricted (Z), 24
    # discrete (W) and 6 discrete sqrt_dip cases (W^).  Every pool is
    # cycled per kind, so each block holds the same multiset of inputs:
    # each model 5 times in Z, 4 times in W and once in W^; each psi 3
    # times in Z; each grid 6 times in W.  Only the pairings, the W psi
    # (24 of a 10-cycle) and the sets (30 of a 20-cycle) shift between
    # blocks.  One W^ case per model matters most: they are 90% of the
    # block time and cost 0.23-0.53 s depending on the model.
    kinds = {"Z": 30, "W": 24, "W_hat": 6}

    def setup_inputs(self, rng):
        return {"constants": [_round_const(rng), _round_const(rng)]}

    def setup(self, gl, inputs):
        return {
            "models": [
                gl.gaussian_model(),
                gl.uniform01_model(),
                gl.exponential_model(),
                gl.rademacher_model(),
                *(gl.constant_model(c) for c in inputs["constants"]),
            ],
            "psis": gl.suites.psi_pool(),
            "sets": gl.set_fixtures(),
            "grids": gl.suites.grid_pool(),
            "dip": gl.sqrt_dip_psi(),
            "dip_grid": gl.integer_grid(256),
        }

    def traced_psis(self, pools):
        return pools["psis"] + [pools["dip"]]

    def blocks(self, rng, env, workdir):
        pools = env.pools
        n_models, n_psis = len(pools["models"]), len(pools["psis"])
        models = {kind: _cycle(rng, n_models) for kind in self.kinds}
        psis = {kind: _cycle(rng, n_psis) for kind in ("Z", "W")}
        domains = {"Z": _cycle(rng, len(pools["sets"])), "W": _cycle(rng, len(pools["grids"]))}
        while True:
            block = []
            for kind, count in self.kinds.items():
                for _ in range(count):
                    if kind == "W_hat":
                        block.append(SandwichOp(kind, next(models[kind]), -1, -1))
                    else:
                        block.append(SandwichOp(kind, next(models[kind]), next(psis[kind]), next(domains[kind])))
            yield [block[i] for i in rng.permutation(len(block))]

    def execute(self, env, op):
        norms, pools = env.gl.norms, env.pools
        model = pools["models"][op.model]
        if op.kind == "Z":
            rep = norms.sandwich_check_restricted(model, env.psi(pools["psis"][op.psi]),
                                                  pools["sets"][op.domain], p_max=P_MAX)
        elif op.kind == "W":
            rep = norms.sandwich_check_discrete(model, env.psi(pools["psis"][op.psi]),
                                                pools["grids"][op.domain], p_max=P_MAX)
        else:
            rep = norms.sandwich_check_discrete(model, env.psi(pools["dip"]), pools["dip_grid"],
                                                p_max=P_MAX, use_w_hat=True)
        return (rep.ok, rep.window_p, rep.inner_value, rep.full_value, rep.constant.value)

    def check(self, env, op, outcome):
        ok, window_p, inner, full, _ = outcome
        pools = env.pools
        label = pools["models"][op.model].label
        moment = lambda p: ref.closed_form_moment(label, p)
        errors = [] if ok else ["the report's own verdict is false"]
        if op.kind == "Z":
            psi = ref.psi_from_description(pools["psis"][op.psi].description)
            segments = pools["sets"][op.domain].segments
            P = ref.window_point(segments, P_MAX)
            inner_ref = ref.grid_max(moment, psi, ref.dense_points(ref.clip_segments(segments, P)))
            ripple = False
        else:
            if op.kind == "W":
                psi = ref.psi_from_description(pools["psis"][op.psi].description)
                q = pools["grids"][op.domain].values
            else:
                psi = ref.psi_from_description("sqrt_dip")
                q = pools["dip_grid"].values
            q = q[: int(np.searchsorted(q, P_MAX, side="left")) + 1]
            P = float(q[-1])
            inner_ref = ref.grid_max(moment, psi, q)
            ripple = op.kind == "W_hat"
        full_ref = ref.grid_max(moment, psi, ref.dense_points([(1.0, P)], ripple=ripple))
        if window_p != P:
            errors.append(f"window {window_p!r}, expected {P!r}")
        if ref.below(inner, inner_ref):
            errors.append(f"inner norm {inner!r} below the grid maximum {inner_ref!r}")
        if ref.below(full, full_ref):
            errors.append(f"full norm {full!r} below the grid maximum {full_ref!r}")
        return errors


# ---------------------------------------------------------------------------
# algebra


@dataclass(frozen=True, eq=False)
class AlgebraOp:
    group: int
    f: np.ndarray
    g: np.ndarray
    psi: int
    raw: bool
    set: Optional[int]


# (r, delta) of the non-normalized psi the algebra suite uses
RAW_PSI_PARAMS = ((1.0, 0.5), (2.0, 1.0), (1.0, 2.0), (3.0, 0.5), (0.5, 1.0))


class Algebra:
    name = "algebra"
    reference = "mixed"  # the reference kernel (reference.py)
    block_seconds = 5.4  # CPU time of a block of 126 ops, kernel included, at the usual speed
    # Per block of 126, the algebra_suite mix: 84 normalized and 42 raw
    # psi, every fifth op restricted to a set fixture.  Every pool is
    # cycled, so each block holds each of the 21 groups 6 times and each
    # function shape (normal, uniform, sparse) 42 times for f and for g.
    # Each block also holds one op whose g is all zero: its flat zero
    # ratio refines every scan point and costs about 0.8 s against 0.03 s
    # for a typical op.  The suite draws an all-zero function in about 1
    # op of 60 (sparse draws on small groups); here the rate is 1 in 126,
    # about half, so that a run holds well under 11 such ops and
    # op_tail_ref stays inside the restricted class.  ops_per_kref therefore
    # weights this plateau case about half as much as the suite does.
    block_size = 126

    def setup_inputs(self, rng):
        return {}

    def setup(self, gl, inputs):
        groups = [gl.cyclic_group(n) for n in range(2, 17)]
        groups += [gl.dihedral_group(n) for n in range(3, 7)]
        groups += [gl.symmetric_group(3), gl.symmetric_group(4)]
        return {
            "groups": groups,
            "psis": gl.suites.psi_pool(),
            "raw_psis": [gl.raw_power_slowvary(gl.PowerSlowVaryParams(r, d)) for r, d in RAW_PSI_PARAMS],
            "sets": gl.set_fixtures(),
        }

    def traced_psis(self, pools):
        return pools["psis"] + pools["raw_psis"]

    def blocks(self, rng, env, workdir):
        pools = env.pools
        groups = _cycle(rng, len(pools["groups"]))
        psis = {False: _cycle(rng, len(pools["psis"])), True: _cycle(rng, len(pools["raw_psis"]))}
        sets = _cycle(rng, len(pools["sets"]))
        shapes = {"f": _cycle(rng, 3), "g": _cycle(rng, 3)}
        while True:
            zero_at = int(rng.integers(self.block_size))
            block = []
            for i in range(self.block_size):
                group = next(groups)
                order = pools["groups"][group].order
                raw = i % 3 == 2
                S = next(sets) if i % 5 == 2 else None
                f = _group_function(rng, order, next(shapes["f"]))
                g = _group_function(rng, order, next(shapes["g"]))
                if i == zero_at:
                    g = np.zeros(order)
                block.append(AlgebraOp(group, f, g, next(psis[raw]), raw, S))
            yield block

    def _psi(self, pools, op):
        return (pools["raw_psis"] if op.raw else pools["psis"])[op.psi]

    def execute(self, env, op):
        pools = env.pools
        S = None if op.set is None else pools["sets"][op.set]
        rep = env.gl.groups.algebra_check(pools["groups"][op.group], op.f, op.g,
                                          env.psi(self._psi(pools, op)), S)
        return (rep.ok, rep.f_norm, rep.g_norm, rep.conv_norm, rep.constant)

    def check(self, env, op, outcome):
        ok, f_norm, g_norm, conv_norm, _ = outcome
        pools = env.pools
        G = pools["groups"][op.group]
        # (f*g)(x) = (1/n) sum_y f(y) g(y^-1 x)
        conv = np.array([
            sum(op.f[y] * op.g[G.mul[G.inv[y], x]] for y in range(G.order)) for x in range(G.order)
        ]) / G.order
        psi = ref.psi_from_description(self._psi(pools, op).description)
        segments = [(1.0, P_MAX)] if op.set is None else ref.clip_segments(pools["sets"][op.set].segments, P_MAX)
        ps = ref.dense_points(segments)
        errors = [] if ok else ["the report's own verdict is false"]
        for what, value, values in (("f", f_norm, op.f), ("g", g_norm, op.g), ("f*g", conv_norm, conv)):
            expect = ref.grid_max(lambda p: ref.power_mean(values, p), psi, ps)
            if ref.below(value, expect):
                errors.append(f"norm of {what} {value!r} below the grid maximum {expect!r}")
        return errors


def _group_function(rng, order: int, shape: int) -> np.ndarray:
    """The algebra suite's three function shapes: 0 normal, 1 uniform,
    2 sparse; a sparse draw that comes out all zero is drawn again."""
    if shape == 0:
        return rng.standard_normal(order)
    if shape == 1:
        return rng.uniform(-1.0, 2.0, size=order)
    while True:
        vals = rng.standard_normal(order)
        vals[rng.random(order) < 0.5] = 0.0
        if vals.any():
            return vals


# ---------------------------------------------------------------------------
# norm and tail: in-process CLI invocations


@dataclass(frozen=True)
class CliOp:
    kind: str
    argv: tuple
    model: str  # closed-form label, or the path of a sample file
    psi: Optional[str]  # power_slowvary spec, or None for the model's natural psi
    set_segments: Optional[tuple] = None
    grid_values: Optional[tuple] = None
    n: int = 0  # tail: sample size requested


def _run_cli(env, argv):
    out, err = io.StringIO(), io.StringIO()
    # a fresh warnings state per op, as in a new process: each invocation
    # prints its own MomentInstabilityWarning lines
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = env.gl.cli.main(list(argv))
    return code, out.getvalue()


def _rows(text: str):
    return list(csv.reader(io.StringIO(text)))[1:]


@functools.cache
def _sample_values(path: str) -> np.ndarray:
    return np.array(Path(path).read_text().split(), dtype=float)


def _moment_for(op: CliOp):
    if op.model.startswith("empirical:"):
        values = _sample_values(op.model[len("empirical:"):])
        return (lambda p: ref.power_mean(values, p)), float(np.mean(np.abs(values))), values.size
    label = op.model
    return (lambda p: ref.closed_form_moment(label, p)), ref.closed_form_l1(label), 0


def _psi_for(op: CliOp, moment):
    if op.psi is None:
        return ref.psi_from_description("natural", natural_moment=moment)
    return ref.psi_from_description(op.psi)


def _grid_values(spec: str) -> tuple:
    kind, *parts = spec.split(":")
    kv = dict(part.split("=") for part in parts)
    m = np.arange(1, int(kv["M"]) + 1, dtype=float)
    if kind == "integers":
        return tuple(m)
    D = float(kv["D"])
    return tuple(D**m - D + 1.0)


def _write_sample(rng, path: Path, n: int) -> None:
    kind = int(rng.integers(3))
    scale = float(rng.uniform(0.5, 3.0))
    if kind == 0:
        values = rng.standard_normal(n)
    elif kind == 1:
        values = rng.exponential(size=n)
    else:
        values = rng.uniform(-1.0, 2.0, size=n)
    path.write_text("\n".join(map(repr, (scale * values).tolist())) + "\n")


def _intervals(rng) -> tuple:
    a = round(float(rng.uniform(1.25, 8.0)), 2)
    b = round(a + float(rng.uniform(0.5, 10.0)), 2)
    return f"intervals:1-{a:g},{b:g}-inf", ((1.0, a), (b, math.inf))


CLOSED_FORM = ("gaussian", "uniform01", "exponential", "rademacher")


class Norm:
    name = "norm"
    reference = "mixed"  # the reference kernel (reference.py)
    block_seconds = 7.2  # CPU time of a block of 216 ops, kernel included, at the usual speed
    # One block shares its time out by a stated rule, not by where the
    # quantiles land.  Half goes to large samples (2^14..2^16 values),
    # because the workload exists to catch a power-mean kernel change
    # that helps tiny arrays but slows large ones: doubling the array work
    # of the empirical power mean lowers ops_per_kref by 35-37% and raises
    # op_tail_ref by 60-67%, past their 0.25 bounds.  The other half
    # is shared about equally among the other four classes the workload
    # covers: closed-form models (160 ops of 2-6 ms), small samples
    # (2^8..2^13, 36 ops of 3-75 ms), one natural:<model> op (0.6-0.75 s)
    # and one natural:empirical op at 2^8 (the plateau pathology, about
    # 1.1 s; 38 s at 2^16, so larger n is left out).  Each sample file is queried three times, plain, with
    # --set and with --grid, as a user asks several questions of one data
    # file.
    closed_form_flags = ("", "set", "grid", "set+grid")
    closed_form_ops = 160
    sample_flags = ("", "set", "grid")
    small_sizes = tuple(1 << e for e in range(8, 14))
    large_sizes = tuple(1 << e for e in range(14, 17))
    sweeps = 2
    natural_sample = 1 << 8
    grids = ("integers:M=50", "geometric:D=2:M=12", "geometric:D=3:M=8")
    closed_form_psis = tuple(f"power_slowvary(r={r:g}, delta={d:g})" for r in (0.5, 1, 2, 3, 4) for d in (0, 0.5, 1))
    sample_psis = tuple(f"power_slowvary(r={r:g}, delta={d:g})" for r in (1, 2, 3) for d in (0, 0.5))

    def setup_inputs(self, rng):
        return {}

    def setup(self, gl, inputs):
        return {}

    def traced_psis(self, pools):
        return []

    def _model(self, rng, stream):
        k = next(stream)
        return CLOSED_FORM[k] if k < len(CLOSED_FORM) else f"constant:{_round_const(rng):g}"

    def blocks(self, rng, env, workdir):
        models = _cycle(rng, len(CLOSED_FORM) + 1)
        natural_models = _cycle(rng, len(CLOSED_FORM) + 1)
        cf_psis = _cycle(rng, len(self.closed_form_psis))
        sample_psis = _cycle(rng, len(self.sample_psis))
        count = 0

        def sample_file(n):
            nonlocal count
            path = workdir / f"sample-{count}.txt"
            count += 1
            _write_sample(rng, path, n)
            return f"empirical:{path}"

        def samples(sizes):
            ops = []
            for _ in range(self.sweeps):
                for n in sizes:
                    model = sample_file(n)
                    ops += [self._op(rng, "empirical", model, self.sample_psis[next(sample_psis)], flags)
                            for flags in self.sample_flags]
            return ops

        while True:
            block = [self._op(rng, "closed_form", self._model(rng, models), self.closed_form_psis[next(cf_psis)],
                              self.closed_form_flags[i % len(self.closed_form_flags)])
                     for i in range(self.closed_form_ops)]
            block += samples(self.small_sizes)
            block += samples(self.large_sizes)
            block.append(self._op(rng, "natural", self._model(rng, natural_models), None, ""))
            block.append(self._op(rng, "natural_empirical", sample_file(self.natural_sample), None, ""))
            yield [block[i] for i in rng.permutation(len(block))]

    def _op(self, rng, kind, model, psi, flags) -> CliOp:
        psi_spec = psi if psi is not None else f"natural:{model}"
        argv = ["norm", "--model", model, "--psi", psi_spec]
        segments = grid = None
        if "set" in flags:
            spec, segments = _intervals(rng)
            argv += ["--set", spec]
        if "grid" in flags:
            spec = self.grids[int(rng.integers(len(self.grids)))]
            argv += ["--grid", spec]
            grid = _grid_values(spec)
        return CliOp(kind, tuple(argv), model, psi, segments, grid)

    def execute(self, env, op):
        return _run_cli(env, op.argv)

    def check(self, env, op, outcome):
        code, out = outcome
        if code != 0:
            return [f"exit code {code}"]
        moment, l1, n = _moment_for(op)
        psi = _psi_for(op, moment)
        p_max = P_MAX if n == 0 else min(P_MAX, max(5.0 * math.log(n), 1.0))
        points = ref.GRID_POINTS if n == 0 else ref.sample_grid_points(n)
        expected = (["full"] if op.set_segments is None and op.grid_values is None else []) \
            + (["restricted"] if op.set_segments is not None else []) \
            + (["discrete"] if op.grid_values is not None else [])
        rows = _rows(out)
        errors = []
        if [r[0] for r in rows] != expected:
            return [f"rows {[r[0] for r in rows]}, expected {expected}"]
        for row in rows:
            kind, value = row[0], float(row[5])
            if kind == "discrete":
                expect = ref.grid_max(moment, psi, np.array(op.grid_values))
            else:
                if ref.differs(float(row[4]), p_max):
                    errors.append(f"{kind} p_max {row[4]}, expected {p_max!r}")
                segments = [(1.0, p_max)] if kind == "full" else ref.clip_segments(op.set_segments, p_max)
                expect = ref.grid_max(moment, psi, ref.dense_points(segments, points))
            if ref.below(value, expect):
                errors.append(f"{kind} norm {value!r} below the grid maximum {expect!r}")
            if op.psi is None and ref.differs(value, l1):
                errors.append(f"natural-psi norm {value!r} differs from |f|_1 = {l1!r}")
        return errors


class Tail:
    name = "tail"
    reference = "arrays"  # the reference kernel (reference.py)
    block_seconds = 1.15  # CPU time of a block of 10 ops, kernel included, at the usual speed
    n = 1 << 20
    grids = ("integers:M=50", "geometric:D=2:M=20")
    # (model, psi, copies per block); None is the model's natural psi.
    # Cheapest first: exponential with power_slowvary (~77 ms), with
    # natural psi (~89 ms, twice, so the median falls inside this class),
    # gaussian with power_slowvary (~130 ms) and natural psi (~148 ms).
    configs = (
        ("exponential", "power_slowvary(r=1, delta=0)", 1),
        ("exponential", None, 2),
        ("gaussian", "power_slowvary(r=2, delta=0)", 1),
        ("gaussian", None, 1),
    )

    def setup_inputs(self, rng):
        return {}

    def setup(self, gl, inputs):
        return {}

    def traced_psis(self, pools):
        return []

    def blocks(self, rng, env, workdir):
        while True:
            block = []
            for model, psi, copies in self.configs:
                for grid in self.grids * copies:
                    argv = ["tail", "--model", model, "--grid", grid, "--n", str(self.n),
                            "--seed", str(int(rng.integers(1 << 31)))]
                    if psi is not None:
                        argv += ["--psi", psi]
                    block.append(CliOp("tail", tuple(argv), model, psi, grid_values=_grid_values(grid), n=self.n))
            yield [block[i] for i in rng.permutation(len(block))]

    def execute(self, env, op):
        return _run_cli(env, op.argv)

    def check(self, env, op, outcome):
        code, out = outcome
        if code != 0:
            return [f"exit code {code}"]
        moment, _, _ = _moment_for(op)
        N = ref.grid_max(moment, _psi_for(op, moment), np.array(op.grid_values))
        rows = _rows(out)
        errors = []
        # the first default probe sits at 1.05 * e * norm_value
        x1 = float(rows[0][0])
        if ref.differs(x1, math.e * N * 1.05):
            errors.append(f"first probe {x1!r} implies norm {x1 / (math.e * 1.05)!r}, expected {N!r}")
        k_hat, k_over_norm = float(rows[-1][1]), float(rows[-1][2])
        if rows[-1][0] != "K_hat" or not 0.25 <= k_over_norm <= 8.0 or ref.differs(k_hat / k_over_norm, N):
            errors.append(f"K_hat row {rows[-1]} does not bracket the norm {N!r}")
        if any(r[4] != "true" for r in rows):
            errors.append("a probe row failed")
        return errors


WORKLOADS = {w.name: w for w in (Sandwich(), Algebra(), Norm(), Tail())}
