"""Command-line front end.

Commands
--------
norm      compute the full, restricted or discrete norm of a model
verify    run a randomized verification suite, emit a CSV report
tail      compare empirical tails against the envelope, estimate K
convolve  convolve two function files over a finite group

Each command takes only the flags it reads (_COMMANDS), and --config: a
key=value file that may hold every command's keys, of which each command
reads its own, plus xs (the probe points of ``gls tail``, comma-separated),
which no flag sets; flags override file entries.  When the seed is absent
the GLS_DEFAULT_SEED environment variable is consulted, then 0.  Exit codes:
0 success, 1 violation or runtime failure, 2 parse/usage error.  Errors
and warnings print one ``gls: ...`` line each on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import DegenerateModelError, DomainError, GlsError, SpecParseError
from .generating import PowerSlowVaryParams, make_power_slowvary, natural_psi
from .grids import integer_grid
from .groups import algebra_check, convolve
from .models import sample  # noqa: F401  unused here; the benchmark tracer patches it
from .norms import DEFAULT_P_MAX, default_p_max, discrete_norm, domain_search, gls_norm, grid_search, sup_norms
from .reporting import render_csv
from .specs import (
    grid_from_spec,
    load_group_function,
    make_group,
    model_from_spec,
    natural_psi_from_spec,
    psi_from_spec,
    set_from_spec,
)
from .suites import SUITE_NAMES, TAILS_HEADER, run_suite
from .tails import make_tail_envelope  # noqa: F401  unused here; the benchmark tracer patches it
from .tails import membership_K_estimate, tail_check

# every flag's key (its destination; the flag is --key, "_" written "-")
# and help text
_FLAGS = {
    "model": "gaussian | uniform01 | exponential | rademacher | constant:<c> | empirical:<path>",
    "psi": "power_slowvary(r=..,delta=..) | natural:<model> | sqrt_dip",
    "set": "full | intervals:a-b,c-inf | grid:<grid>",
    "grid": "geometric:D=<int>:M=<int> | integers:M=<int>",
    "group": "cyclic:<n> | dihedral:<n> | symmetric:<n> | product:<g>x<g>",
    "p_max": "truncation point of continuous norm searches",
    "M": "grid length when a default grid is built",
    "seed": "RNG seed (default: $GLS_DEFAULT_SEED, then 0)",
    "n": "sample size for Monte Carlo commands",
    "suite": "sandwich | tails | young | algebra | all",
    "strict": "exit 1 when a printed norm is +inf",
    "out": "also write the CSV report to this path",
    "config": "key=value file of any command's flag keys, and xs=<x,...> (tail probe points); flags override it",
}
# each command's help text and the flags its cmd_* function reads, each
# command taking --config too
_COMMANDS = {
    "norm": ("compute norms of a model", ("model", "psi", "set", "grid", "p_max", "strict", "out")),
    "verify": ("run a verification suite", ("suite", "seed", "n", "out")),
    "tail": ("empirical tails against the envelope", ("model", "psi", "grid", "M", "seed", "n", "out")),
    "convolve": ("convolve two function files over a group", ("group", "psi", "p_max", "out")),
}
# the keys of a --config file: every command's, whichever command reads it,
# and xs (the probe points of gls tail, comma-separated), which no flag sets
_CONFIG_KEYS = (*(key for key in _FLAGS if key != "config"), "xs")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Each command takes
    only its own flags (_COMMANDS), so any other is a usage error.  Parsing
    leaves the parser as it was (each call fills a fresh namespace), the
    help text reads COLUMNS when it is printed, and each command's ``func``
    looks its helpers up when it runs, so patches of this module's names
    still act."""
    parser = argparse.ArgumentParser(
        prog="gls",
        description="Norms, equivalence constants and tail envelopes "
        "for generating-function weighted moment families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for key in (*keys, "config"):
            flag = {"action": "store_true", "default": None} if key == "strict" else {}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_FLAGS[key], **flag)
        p.set_defaults(func=globals()["cmd_" + name])
    sub.choices["convolve"].add_argument(
        "files", nargs=2, metavar="FILE", help="one value per line, ordered by element index"
    )
    return parser


# ---------------------------------------------------------------------------
# Configuration

def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecParseError(f"cannot read config {path!r}: {exc}") from exc
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not eq or key not in _CONFIG_KEYS:
            raise SpecParseError(f"{path}:{lineno}: expected <key>=<value> with a known key, got {raw!r}")
        cfg[key] = value.strip()
    return cfg


def merge_config(args: argparse.Namespace) -> dict:
    """File values, overridden by flags, with the seed falling back to
    GLS_DEFAULT_SEED and then 0; convolve's FILEs, which no file sets, are
    ``files``."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(_parse_config_file(args.config))
    for key in (*_CONFIG_KEYS, "files"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if "seed" not in cfg:
        cfg["seed"] = os.environ.get("GLS_DEFAULT_SEED", "0")
    return cfg


def _cfg_number(cfg: dict, key: str, default, kind=float):
    """cfg[key] read as ``kind``, int or float; ``default`` where unset."""
    if key not in cfg:
        return default
    try:
        return kind(str(cfg[key]))
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise SpecParseError(f"{key} must be {what}, got {cfg[key]!r}") from None


def _cfg_bool(cfg: dict, key: str) -> bool:
    val = cfg.get(key)
    if val is None:
        return False
    if isinstance(val, bool):
        return val
    text = str(val).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise SpecParseError(f"{key} must be a boolean, got {val!r}")


def _require(cfg: dict, key: str, command: str) -> str:
    if key not in cfg:
        raise SpecParseError(f"{command} needs --{key.replace('_', '-')}")
    return str(cfg[key])


def _emit(text: str, cfg: dict) -> None:
    sys.stdout.write(text)
    if cfg.get("out"):
        try:
            Path(str(cfg["out"])).write_text(text)
        except OSError as exc:
            raise SpecParseError(f"cannot write --out {cfg['out']}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Commands

_NORM_HEADER = ("kind", "model", "psi", "domain", "p_max", "value", "arg_p", "arg_index", "note")


def cmd_norm(cfg: dict) -> int:
    model_spec = _require(cfg, "model", "norm")
    model = model_from_spec(model_spec)
    psi_spec = _require(cfg, "psi", "norm")
    kind, _, rest = psi_spec.strip().partition(":")
    if kind == "natural" and rest.strip() == model_spec.strip():
        # the natural psi of --model itself: built on the same model, so the
        # ratio takes one moment per p
        psi = natural_psi_from_spec(rest, model)
    else:
        psi = psi_from_spec(psi_spec)
    rset = set_from_spec(str(cfg["set"])) if "set" in cfg else None
    grid = grid_from_spec(str(cfg["grid"])) if "grid" in cfg else None
    p_max = _cfg_number(cfg, "p_max", default_p_max(model))
    strict = _cfg_bool(cfg, "strict")

    rows = []
    if rset is None and grid is None:
        res = gls_norm(model, psi, p_max)
        rows.append(("full", model.label, psi.description, f"[1, {p_max:g}]",
                     p_max, res.value, res.arg_p, "", res.diagnostics))
    if rset is not None and grid is not None:
        # both norms in one search
        on_set, on_grid = sup_norms(psi, [domain_search(model, p_max, rset), grid_search(model, grid)])
    else:
        on_set = None if rset is None else gls_norm(model, psi, p_max, rset=rset)
        on_grid = None if grid is None else discrete_norm(model, psi, grid)
    if on_set is not None:
        rows.append(("restricted", model.label, psi.description, rset.description,
                     p_max, on_set.value, on_set.arg_p, "", on_set.diagnostics))
    if on_grid is not None:
        rows.append(("discrete", model.label, psi.description, grid.description,
                     on_grid.truncation_p_max, on_grid.value, on_grid.arg_p,
                     on_grid.arg_index if on_grid.arg_index is not None else "", on_grid.diagnostics))
    _emit(render_csv(_NORM_HEADER, rows), cfg)
    if strict and any(math.isinf(r[5]) for r in rows):
        return 1
    return 0


def cmd_verify(cfg: dict) -> int:
    suite = _require(cfg, "suite", "verify")
    if suite != "all" and suite not in SUITE_NAMES:
        raise SpecParseError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or all")
    seed = _cfg_number(cfg, "seed", 0, int)
    n = _cfg_number(cfg, "n", 200_000, int)

    if suite == "all":
        lines = []
        failures = 0
        for name in SUITE_NAMES:
            result = run_suite(name, seed, n=n)
            lines.append(render_csv(("suite",) + result.header,
                                    [(result.name,) + row for row in result.rows]))
            failures += result.n_failures
        _emit("".join(lines), cfg)
        return 0 if failures == 0 else 1

    result = run_suite(suite, seed, n=n)
    _emit(render_csv(result.header, result.rows), cfg)
    return 0 if result.ok else 1


def cmd_tail(cfg: dict) -> int:
    model = model_from_spec(_require(cfg, "model", "tail"))
    psi = psi_from_spec(str(cfg["psi"])) if "psi" in cfg else natural_psi(model)
    if "grid" in cfg:
        q = grid_from_spec(str(cfg["grid"]))
    else:
        q = integer_grid(_cfg_number(cfg, "M", 50, int))
    seed = _cfg_number(cfg, "seed", 0, int)
    n = _cfg_number(cfg, "n", 200_000, int)

    xs = None
    if "xs" in cfg:
        try:
            xs = [float(t) for t in str(cfg["xs"]).split(",") if t.strip()]
        except ValueError:
            raise SpecParseError(f"xs must be a comma-separated number list, got {cfg['xs']!r}") from None
        for x in xs:
            if not math.isfinite(x):
                raise SpecParseError(f"xs entries must be finite, got {x}")

    report = tail_check(model, psi, q, n=n, seed=seed, x_grid=xs)
    rows = [(r.x, r.empirical, r.envelope, r.slack, r.ok) for r in report.rows]

    # the K estimate gets a trailing row: its candidate grid brackets the
    # known norm, and the envelope column reports K / norm; the slack
    # column notes a K accepted without judging a single probe
    N = report.norm_value
    est = membership_K_estimate(report.batch, q, psi, K_grid=np.geomspace(N / 4.0, 8.0 * N, 32))
    note = "" if est.x_range_checked is not None else "unchecked: e*K exceeds the sample maximum"
    rows.append(("K_hat", est.K_hat, est.K_hat / N, note, True))

    _emit(render_csv(TAILS_HEADER, rows), cfg)
    return 0 if report.all_ok else 1


def cmd_convolve(cfg: dict) -> int:
    G = make_group(_require(cfg, "group", "convolve"))
    paths = cfg["files"]
    f = load_group_function(paths[0], G)
    g = load_group_function(paths[1], G)
    if "psi" in cfg:
        psi = psi_from_spec(str(cfg["psi"]))
    else:
        psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.0))
    p_max = _cfg_number(cfg, "p_max", DEFAULT_P_MAX)

    conv = convolve(G, f, g)
    lines = [render_csv(("element", "f", "g", "conv"),
                        [(G.labels[i], f[i], g[i], conv[i]) for i in range(G.order)])]
    rep = algebra_check(G, f, g, psi, p_max=p_max)
    lines.append(render_csv(
        ("psi", "norm_f", "norm_g", "norm_conv", "constant", "bound", "pass"),
        [(psi.description, rep.f_norm, rep.g_norm, rep.conv_norm, rep.constant, rep.bound, rep.ok)],
    ))
    _emit("".join(lines), cfg)
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------

def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one ``gls: warning:`` line, without the library source
    line that raised it."""
    print(f"gls: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
    except SpecParseError as exc:
        print(f"gls: {exc}", file=sys.stderr)
        return 2
    try:
        # NumPy's overflow warning is not reported: an overflow that matters
        # surfaces as an inf, which psi_eval and the searches name with its p
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            # the filters are left as they are (-W error, once per message)
            warnings.showwarning = _show_warning
            return int(args.func(cfg))
    except (SpecParseError, DomainError, DegenerateModelError) as exc:
        print(f"gls: {exc}", file=sys.stderr)
        return 2
    except (GlsError, Warning) as exc:
        # a Warning arrives here raised, as -W error asks
        print(f"gls: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
