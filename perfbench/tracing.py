"""Spans and counters around glspace's layers, installed from outside.

Only the traced phase of a ``--trace 1`` run installs these wrappers; the
end-to-end metrics always come from unwrapped code.  Calls that happen
once or a few times per search become spans (name, start, end, parent,
op id).  Calls that happen per moment or per psi evaluation -- about a
million per algebra run -- become counters with summed inclusive and self
time, so the trace stays small.  Self time is a call's duration minus the
durations of the wrapped calls it made; it is accumulated on one stack
shared by spans and counters, so the self times of all layers plus the
harness's own share add up to the op CPU time.
"""

from __future__ import annotations

import dataclasses
import json
from time import process_time

import numpy as np


class Stat:
    """Totals for one layer: calls, time, and what the layer worked on."""

    __slots__ = ("calls", "total", "self_time", "points", "scalar", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.points = 0  # p-values, scan points, terms: the layer's unit of work
        self.scalar = 0  # calls made with a scalar argument
        self.extra = 0  # bytes, cells, candidates: second unit of work

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        # a frame is [child_time, span_index]; the base frame catches
        # anything called between ops
        self.stack = [[0.0, -1]]
        self.spans = []  # [name, start, end, parent_span, op_id]
        self.stats: dict[str, Stat] = {}
        self.op_id = -1
        self.op_time = 0.0
        self.n_ops = 0
        # honest evaluation counts and refinement usefulness
        self.ratio_evals = 0
        self.reported_evals = 0
        self.sup_refines = 0
        self.useful_refines = 0
        self._sup_stack = []  # candidates (arg, value) of the open searches
        self.samples_requested = 0
        self.max_array_bytes = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- timing primitives -------------------------------------------------

    def _wrap(self, name, fn, after, span):
        """Wrap ``fn`` so that its time goes to the layer ``name``; a span
        is also recorded as (name, start, end, parent span, op id).
        ``after(args, kwargs, result, stat)`` may record what the call did."""
        st = self.stat(name)
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kw):
            frame = [0.0, stack[-1][1]]
            if span:
                rec = [name, 0.0, 0.0, frame[1], self.op_id]
                spans.append(rec)
                frame[1] = len(spans) - 1
            stack.append(frame)
            t0 = process_time()
            try:
                res = fn(*args, **kw)
            finally:
                t1 = process_time()
                dur = t1 - t0
                stack.pop()
                stack[-1][0] += dur
                st.calls += 1
                st.total += dur
                st.self_time += dur - frame[0]
                if span:
                    rec[1], rec[2] = t0, t1
            if after is not None:
                after(args, kw, res, st)
            return res

        return wrapper

    def counter(self, name, fn, after=None):
        """Wrap a call that happens per moment or psi evaluation: totals only."""
        return self._wrap(name, fn, after, span=False)

    def span(self, name, fn, after=None):
        """Wrap a call that happens a few times per search: totals and a span."""
        return self._wrap(name, fn, after, span=True)

    def run_op(self, op_id: int, fn):
        """Time one op as the root span ``bench.op``; returns (result, seconds)."""
        self.op_id = op_id
        root = self.span("bench.op", fn)
        t0 = process_time()
        res = root()
        dt = process_time() - t0
        self.op_time += dt
        self.n_ops += 1
        return res, dt

    # -- layer-specific wrappers ---------------------------------------------

    def _sup(self, fn):
        """grid_refine_supremum: scan points, and which refinement won."""
        tracer = self

        def inner(f, lo, hi, n_points=512, *a, **kw):
            tracer._sup_stack.append([])
            try:
                res = fn(f, lo, hi, n_points, *a, **kw)
            finally:
                cands = tracer._sup_stack.pop()
            st = tracer.stat("search.sup")
            st.points += 1 if hi == lo else max(int(n_points), 2)
            tracer.sup_refines += len(cands)
            if any(arg == res.arg and val == res.value for arg, val in cands):
                tracer.useful_refines += 1
            return res

        return self.span("search.sup", inner)

    def _refine(self, fn):
        """golden_section_max: count the evaluations it makes."""
        tracer = self
        st = self.stat("search.refine")

        def inner(f, lo, hi, *a, **kw):
            box = [0]

            def counted(x):
                box[0] += 1
                return f(x)

            arg, val = fn(counted, lo, hi, *a, **kw)
            st.points += box[0]
            if tracer._sup_stack:
                tracer._sup_stack[-1].append((float(arg), float(val)))
            return arg, val

        return self.counter("search.refine", inner)

    def _ratio_fn(self, fn):
        """norms._ratio_fn: count every ratio evaluation the norm makes."""
        tracer = self

        def make(model, psi):
            ratio = fn(model, psi)

            def counted(p):
                tracer.ratio_evals += int(np.size(p))
                return ratio(p)

            return counted

        return make

    def _array(self, n: int) -> int:
        """Computed size of an n-value float64 array; tracks the largest."""
        nbytes = 8 * n
        self.max_array_bytes = max(self.max_array_bytes, nbytes)
        return nbytes

    def _sample_points(self, args, kw, res, st):
        self._array(res.size)
        st.points += int(res.size)

    def _reported(self, args, kw, res, st):
        self.reported_evals += int(res.n_evaluations)

    def wrap_psi(self, psi):
        """A copy of ``psi`` whose evaluator is counted."""
        return dataclasses.replace(psi, evaluator=self.counter("generating.psi", psi.evaluator, _p_points))

    # -- installation ----------------------------------------------------------

    def install(self, gl) -> "Patches":
        """Patch glspace's modules and model classes; undo with .restore()."""
        cli, norms, search, grids, groups, models, tails, specs = (
            gl.cli, gl.norms, gl.search, gl.grids, gl.groups, gl.models, gl.tails, gl.specs,
        )
        patches = Patches()
        sp = self.span
        gls_norm = sp("norms.gls_norm", norms.gls_norm, after=self._reported)
        discrete = sp("norms.discrete", norms.discrete_norm)
        sample = self.counter("models.sample", models.sample, self._sample_points)
        envelope = sp("tails.make_envelope", tails.make_tail_envelope)
        natural = sp("generating.natural_psi", gl.generating.natural_psi)
        wrap_psi = self.wrap_psi

        def parse(fn):
            return sp("specs.parse", fn)

        def parse_psi(fn):
            parsed = parse(fn)
            return lambda spec: wrap_psi(parsed(spec))

        def h_points(args, kw, res, st):
            st.points += int(res.n_terms)

        def lp_points(args, kw, res, st):
            st.points += 1
            st.extra += self._array(np.asarray(args[1]).size)

        def membership_after(args, kw, res, st):
            st.points += list(res.K_grid).index(res.K_hat) + 1

        def w_hat_after(args, kw, res, st):
            st.points += args[0].M - 1

        for mod in (cli, norms, groups):
            patches.set(mod, "gls_norm", gls_norm)
        for mod in (cli, norms, tails):
            patches.set(mod, "discrete_norm", discrete)
        patches.set(cli, "main", sp("cli.main", cli.main))
        for fname in ("model_from_spec", "set_from_spec", "grid_from_spec"):
            patches.set(cli, fname, parse(getattr(cli, fname)))
        patches.set(cli, "psi_from_spec", parse_psi(cli.psi_from_spec))
        patches.set(cli, "natural_psi", lambda model: wrap_psi(natural(model)))
        patches.set(specs, "natural_psi", natural)
        patches.set(cli, "render_csv", sp("reporting.render", cli.render_csv))
        patches.set(cli, "sample", sample)
        patches.set(tails, "sample", sample)
        patches.set(cli, "make_tail_envelope", envelope)
        patches.set(tails, "make_tail_envelope", envelope)
        patches.set(cli, "tail_check", sp("tails.tail_check", cli.tail_check))
        patches.set(cli, "membership_K_estimate",
                    sp("tails.membership", cli.membership_K_estimate, after=membership_after))
        patches.set(tails, "h_transform", self.counter("tails.h", tails.h_transform, h_points))
        patches.set(norms, "grid_refine_supremum", self._sup(norms.grid_refine_supremum))
        patches.set(norms, "_ratio_fn", self._ratio_fn(norms._ratio_fn))
        patches.set(norms, "_cellwise_full_norm",
                    sp("norms.cellwise", norms._cellwise_full_norm, after=self._reported))
        for fname in ("sandwich_check_restricted", "sandwich_check_discrete"):
            patches.set(norms, fname, sp("norms.sandwich", getattr(norms, fname)))
        patches.set(norms, "z_constant", sp("grids.z", norms.z_constant))
        patches.set(norms, "w_constant", sp("grids.w", norms.w_constant))
        patches.set(norms, "w_hat_constant", sp("grids.w_hat", norms.w_hat_constant, after=w_hat_after))
        patches.set(search, "golden_section_max", self._refine(search.golden_section_max))
        patches.set(grids, "sampled_min", sp("search.min", grids.sampled_min))
        patches.set(groups, "group_lp_norm", self.counter("groups.lp_norm", groups.group_lp_norm, lp_points))
        patches.set(groups, "convolve", sp("groups.convolve", groups.convolve))
        patches.set(groups, "algebra_check", sp("groups.algebra_check", groups.algebra_check))

        def moment_points(model_bytes):
            def points(args, kw, res, st):
                n = int(np.size(args[1]))
                st.points += n
                st.scalar += np.ndim(args[1]) == 0
                if model_bytes:
                    st.extra += n * self._array(args[0].values.size)

            return points

        for cls, name, model_bytes in (
            (models.ClosedFormModel, "models.closed_form", False),
            (models.EmpiricalModel, "models.empirical", True),
            (groups.GroupFunctionModel, "models.group", False),
        ):
            patches.set(cls, "lp_norm", self.counter(name, cls.lp_norm, moment_points(model_bytes)))
        return patches

    # -- output ----------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics, per op of the traced phase, and the names of
        the ratios that do not apply: their layer was never called, so the
        denominator is 0.  Those read 1 (nothing wasted or undercounted),
        the ideal of every such ratio, and are printed as n/a."""
        ops = max(self.n_ops, 1)
        s = lambda name: self.stats.get(name, Stat())
        not_applicable = []

        def ratio(name, num, den):
            if den:
                return num / den
            not_applicable.append(name)
            return 1.0

        moments = [s("models.closed_form"), s("models.empirical"), s("models.group")]
        layer_self = sum(st.self_time for name, st in self.stats.items() if name != "bench.op")
        sample = s("models.sample")
        m = {
            "search.sup_calls": s("search.sup").calls / ops,
            "search.scan_points": s("search.sup").points / ops,
            "search.sup_self_s": s("search.sup").self_time / ops,
            "search.refine_calls": s("search.refine").calls / ops,
            "search.refine_evals": s("search.refine").points / ops,
            "search.refine_s": s("search.refine").total / ops,
            "search.refine_useful_ratio": ratio("search.refine_useful_ratio", self.useful_refines, self.sup_refines),
            "search.min_calls": s("search.min").calls / ops,
            "search.min_s": s("search.min").total / ops,
            "search.ratio_evals": self.ratio_evals / ops,
            "search.reported_evals": self.reported_evals / ops,
            "search.eval_undercount": ratio("search.eval_undercount", self.ratio_evals, self.reported_evals),
            "grids.z_s": s("grids.z").total / ops,
            "grids.w_s": s("grids.w").total / ops,
            "grids.w_hat_s": s("grids.w_hat").total / ops,
            "grids.w_hat_cells": s("grids.w_hat").points / ops,
            "norms.gls_norm_calls": s("norms.gls_norm").calls / ops,
            "norms.gls_norm_self_s": s("norms.gls_norm").self_time / ops,
            "norms.discrete_calls": s("norms.discrete").calls / ops,
            "norms.discrete_s": s("norms.discrete").total / ops,
            "norms.sandwich_self_s": s("norms.sandwich").self_time / ops,
            "norms.cellwise_s": s("norms.cellwise").total / ops,
            "groups.lp_norm_calls": s("groups.lp_norm").calls / ops,
            "groups.lp_norm_s": s("groups.lp_norm").total / ops,
            "groups.lp_norm_bytes": s("groups.lp_norm").extra / ops,
            "groups.convolve_s": s("groups.convolve").total / ops,
            "groups.algebra_self_s": s("groups.algebra_check").self_time / ops,
            "models.moment_calls": sum(st.calls for st in moments) / ops,
            "models.moment_points": sum(st.points for st in moments) / ops,
            "models.scalar_calls": sum(st.scalar for st in moments) / ops,
            "models.closed_form_s": s("models.closed_form").total / ops,
            "models.empirical_s": s("models.empirical").total / ops,
            "models.empirical_points": s("models.empirical").points / ops,
            "models.empirical_bytes": s("models.empirical").extra / ops,
            "models.max_array_bytes": float(self.max_array_bytes),
            "models.sample_s": sample.total / ops,
            "models.sample_values": sample.points / ops,
            "models.sample_useful_ratio": ratio("models.sample_useful_ratio", self.samples_requested, sample.points),
            "generating.psi_calls": s("generating.psi").calls / ops,
            "generating.psi_points": s("generating.psi").points / ops,
            "generating.psi_s": s("generating.psi").total / ops,
            "generating.natural_psi_s": s("generating.natural_psi").total / ops,
            "tails.h_calls": s("tails.h").calls / ops,
            "tails.h_terms": s("tails.h").points / ops,
            "tails.h_s": s("tails.h").total / ops,
            "tails.membership_s": s("tails.membership").total / ops,
            "tails.membership_candidates": s("tails.membership").points / ops,
            "tails.tail_check_self_s": s("tails.tail_check").self_time / ops,
            "specs.parse_s": s("specs.parse").self_time / ops,
            "reporting.render_s": s("reporting.render").total / ops,
            "cli.self_s": s("cli.main").self_time / ops,
            "trace.self_share": ratio("trace.self_share", layer_self, self.op_time),
        }
        return m, not_applicable

    def dump(self, path, extra: dict) -> None:
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "span_names": names,
            "spans": [[index[r[0]], r[1], r[2], r[3], r[4]] for r in self.spans],
            "stats": {name: st.as_dict() for name, st in sorted(self.stats.items())},
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _p_points(args, kw, res, st):
    st.points += int(np.size(args[0]))
    st.scalar += np.ndim(args[0]) == 0


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)
