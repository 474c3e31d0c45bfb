"""Parsers turning CLI/config specifier strings into library objects.

Grammar (also documented in the CLI help):

    model:  gaussian | uniform01 | exponential | rademacher
            | constant:<c> | empirical:<path>
    psi:    power_slowvary(r=<float>, delta=<float>) | natural:<model>
            | sqrt_dip
    grid:   geometric:D=<int>:M=<int> | integers:M=<int>
    set:    full | intervals:<a>-<b>,... (b may be inf) | grid:<grid>
    group:  cyclic:<n> | dihedral:<n> | symmetric:<n>
            | product:<group>x<group>

Every parse failure raises SpecParseError; the CLI maps that to exit
code 2 before any computation starts.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Optional

import numpy as np

from .errors import DomainError, GlsError, SizeMismatchError, SpecParseError
from .generating import (
    GeneratingFunction,
    PowerSlowVaryParams,
    make_power_slowvary,
    natural_psi,
    sqrt_dip_psi,
)
from .grids import GridSequence, RestrictedSet, geometric_grid, integer_grid
from .groups import FiniteGroup, make_group
from .models import (
    EmpiricalModel,
    RandomVariableModel,
    _check_finite,
    constant_model,
    exponential_model,
    gaussian_model,
    rademacher_model,
    read_values,
    uniform01_model,
)

__all__ = [
    "model_from_spec",
    "psi_from_spec",
    "natural_psi_from_spec",
    "grid_from_spec",
    "set_from_spec",
    "make_group",
    "load_group_function",
]


def _number(text: str, what: str, kind=float):
    """``text`` read as ``kind``, int or float."""
    try:
        return kind(text)
    except ValueError:
        raise SpecParseError(f"bad {what}: {text!r}") from None


def model_from_spec(spec: str) -> RandomVariableModel:
    s = spec.strip()
    if s == "gaussian":
        return gaussian_model()
    if s == "uniform01":
        return uniform01_model()
    if s == "exponential":
        return exponential_model()
    if s == "rademacher":
        return rademacher_model()
    if s.startswith("constant:"):
        return constant_model(_number(s[len("constant:"):], "constant value"))
    if s.startswith("empirical:"):
        path = s[len("empirical:"):]
        try:
            return EmpiricalModel.from_file(path)
        except (OSError, ValueError) as exc:
            raise SpecParseError(f"cannot load empirical sample {path!r}: {exc}") from exc
    raise SpecParseError(f"unknown model spec {spec!r}")


_PSV_RE = re.compile(r"^power_slowvary\s*\((?P<args>.*)\)\s*$")


def psi_from_spec(spec: str) -> GeneratingFunction:
    s = spec.strip()
    m = _PSV_RE.match(s)
    if m:
        args = m.group("args").strip()
        fields = _kv_fields(args.split(",") if args else [], spec)
        kv = {key: _number(val, f"value for {key!r}") for key, val in fields.items()}
        unknown = set(kv) - {"r", "delta"}
        if unknown:
            raise SpecParseError(f"unknown parameters {sorted(unknown)} in {spec!r}")
        if "r" not in kv:
            raise SpecParseError(f"power_slowvary needs r=<float> in {spec!r}")
        try:
            return make_power_slowvary(PowerSlowVaryParams(r=kv["r"], delta=kv.get("delta", 0.0)))
        except DomainError as exc:
            raise SpecParseError(str(exc)) from exc
    if s.startswith("natural:"):
        return natural_psi_from_spec(s[len("natural:"):])
    if s == "sqrt_dip":
        return sqrt_dip_psi()
    raise SpecParseError(f"unknown psi spec {spec!r}")


def natural_psi_from_spec(spec: str, model: Optional[RandomVariableModel] = None) -> GeneratingFunction:
    """The psi natural:<spec>, built on ``model`` when the caller already
    holds the model of ``spec`` (a sample file is then read once)."""
    try:
        psi = natural_psi(model if model is not None else model_from_spec(spec))
    except GlsError as exc:
        raise SpecParseError(f"cannot build natural psi from {spec!r}: {exc}") from exc
    return dataclasses.replace(psi, description=f"natural:{spec.strip()}")


def _kv_fields(parts, spec: str) -> dict:
    """The key=value parts of ``spec`` as a dict; a key may appear once."""
    kv = {}
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq:
            raise SpecParseError(f"expected key=value in {spec!r}, got {part!r}")
        key = key.strip()
        if key in kv:
            raise SpecParseError(f"repeated key {key!r} in {spec!r}")
        kv[key] = val.strip()
    return kv


def grid_from_spec(spec: str) -> GridSequence:
    s = spec.strip()
    if s.startswith("grid:"):
        s = s[len("grid:"):]
    kind, *parts = s.split(":")
    kv = _kv_fields(parts, spec)
    try:
        if kind == "geometric":
            if set(kv) != {"D", "M"}:
                raise SpecParseError(f"geometric grid needs D=<int>:M=<int>, got {spec!r}")
            return geometric_grid(_number(kv["D"], "D", int), _number(kv["M"], "M", int))
        if kind == "integers":
            if set(kv) != {"M"}:
                raise SpecParseError(f"integer grid needs M=<int>, got {spec!r}")
            return integer_grid(_number(kv["M"], "M", int))
    except DomainError as exc:
        raise SpecParseError(str(exc)) from exc
    raise SpecParseError(f"unknown grid spec {spec!r}")


def set_from_spec(spec: str) -> RestrictedSet:
    s = spec.strip()
    if s == "full":
        return RestrictedSet.full()
    if s.startswith("intervals:"):
        body = s[len("intervals:"):]
        intervals = []
        for token in body.split(","):
            token = token.strip()
            a_text, dash, b_text = token.partition("-")
            if not dash:
                raise SpecParseError(f"expected <a>-<b> in {spec!r}, got {token!r}")
            a = _number(a_text, "interval start")
            b = math.inf if b_text.strip() == "inf" else _number(b_text, "interval end")
            intervals.append((a, b))
        try:
            return RestrictedSet(intervals, description=s)
        except DomainError as exc:
            raise SpecParseError(str(exc)) from exc
    if s.startswith("grid:"):
        return RestrictedSet.from_grid(grid_from_spec(s))
    raise SpecParseError(f"unknown set spec {spec!r}")


def load_group_function(path, G: FiniteGroup) -> np.ndarray:
    """Read one value per line, ordered by element index (the order each
    constructor documents)."""
    try:
        values = _check_finite(read_values(path), str(path))
    except (OSError, ValueError) as exc:
        raise SpecParseError(f"cannot load group function {path!r}: {exc}") from exc
    if values.size != G.order:
        raise SizeMismatchError(
            f"{path}: {values.size} values for group {G.name} of order {G.order}"
        )
    return values
