#!/usr/bin/env python3
"""Paired A/B timing of a benchmark workload's ops, both sides in one process.

    python tools/ab_ops.py --base <git rev> --workload W --seed 7 --blocks 4 --rounds 7

W is one of perfbench's workloads: sandwich, algebra, norm or tail.  The
working tree's src/glspace is imported as ``glspace``, and src/glspace at
<rev> (``git archive``) is unpacked into a temporary directory and
imported as the package ``glspace_base``: the package imports itself by
relative imports only, so the two load side by side.  Each side builds its
pools from the same seeded inputs that ``perfbench/run.py --seed`` draws,
and the ops of ``--blocks`` blocks are drawn once and shared.  Every round
runs each op on both sides, in an order drawn at random per op, and times
each call in CPU time, so that both sides see the same drift of the host.

Prints each side's median over rounds of its CPU time, the median over
rounds of the paired ratio (working tree / base) with its range, and a
digest of each side's op outcomes (reprs, so a moved bit shows) and of
each op's stderr, so a moved, lost or added warning line shows too: what
a CLI op prints (perfbench runs gls in process, into a buffer of its own,
which a wrapper of each side's cli.main reads when the run ends) and the
warnings an op raises outside the CLI, as one line of category and text
(the file and line of the raising code differ between the sides).  Each
op starts from a fresh warnings state, as a CLI run does.  Then the
same per op kind (``op.kind``: Z / W / W_hat on sandwich, closed_form /
empirical / natural / natural_empirical on norm; an op without a kind, as
on algebra, counts under the workload's name): the op count, each side's
median CPU time a round and the paired ratio, so that a gain claimed on
one route shows whether the others stayed put.  Last, what each side's
memo of values at cached scan rows (norms._row_memo) holds after the run:
its entries, one per function and rows, and their megabytes.  Exits 1
when the digests differ, 0 otherwise.  perfbench/workloads.py is
imported, not changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent


def load(package: str, parent: Path):
    """Import ``package`` (and its cli) from the directory ``parent``."""
    sys.path.insert(0, str(parent))
    try:
        gl = importlib.import_module(package)
        importlib.import_module(f"{package}.cli")
    finally:
        sys.path.remove(str(parent))
    return gl


def unpack_base(rev: str, into: Path) -> None:
    """src/glspace at ``rev`` as the directory ``into``/glspace_base."""
    data = subprocess.run(["git", "archive", "--format=tar", rev, "src/glspace"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = into / "glspace_base" / Path(member.name).relative_to("src/glspace")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())


def outcome(workload, env, op):
    """The op's outcome, or the name and text of what it raised."""
    try:
        return workload.execute(env, op)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def keep_cli_stderr(gl) -> list:
    """Wrap ``gl``'s cli.main so that what each run wrote to stderr, the
    buffer perfbench redirects it into, is appended to the list returned."""
    printed, main = [], gl.cli.main

    def main_keeping_stderr(argv=None):
        try:
            return main(argv)
        finally:
            printed.append(sys.stderr.getvalue())

    gl.cli.main = main_keeping_stderr
    return printed


def show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one line of its category and text, without the file
    and line of the code that raised it."""
    print(f"{category.__name__}: {message}", file=sys.stderr)


def row_memo(gl) -> str:
    """The entries of ``gl``'s memo of values at cached scan rows and their
    megabytes; a side without that memo says so."""
    memo = getattr(gl.norms, "_row_memo", None)
    if memo is None:
        return "no row memo"
    values = [v for rows in memo.values() for v in rows.values()]
    return f"{len(values)} entries, {sum(v.nbytes for v in values) / 2**20:.2f} MB"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--blocks", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        unpack_base(args.base, tmp)
        sides = {"base": load("glspace_base", tmp), "head": load("glspace", ROOT / "src")}
        cli_stderr = {name: keep_cli_stderr(gl) for name, gl in sides.items()}
        # the seeds of perfbench/harness.py: set-up inputs, then the blocks
        setup_seq, input_seq = np.random.SeedSequence(args.seed).spawn(2)
        inputs = workload.setup_inputs(np.random.default_rng(setup_seq))
        envs = {name: workloads.Env(gl, workload.setup(gl, inputs)) for name, gl in sides.items()}
        workdir = tmp / "work"
        workdir.mkdir()
        blocks = workload.blocks(np.random.default_rng(input_seq), envs["head"], workdir)
        ops = [op for _ in range(args.blocks) for op in next(blocks)]

        kinds = [getattr(op, "kind", args.workload) for op in ops]
        order = np.random.default_rng(args.seed)
        # CPU time per side, op kind and round
        times = {name: {kind: [0.0] * args.rounds for kind in kinds} for name in sides}
        digests = {name: hashlib.sha256() for name in sides}
        for r in range(args.rounds):
            for op, kind in zip(ops, kinds):
                for name in ("base", "head") if order.random() < 0.5 else ("head", "base"):
                    cli_stderr[name].clear()
                    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()) as err:
                        warnings.showwarning = show_warning
                        t0 = process_time()
                        out = outcome(workload, envs[name], op)
                        times[name][kind][r] += process_time() - t0
                    if r == 0:
                        digests[name].update(repr((out, err.getvalue(), cli_stderr[name])).encode())

    def paired(per_round):
        """The median and range over rounds of the head/base ratio of the
        per-round times ``per_round[side]``."""
        r = [h / b for h, b in zip(per_round["head"], per_round["base"])]
        return f"median {statistics.median(r):.3f} (range {min(r):.3f}-{max(r):.3f})"

    total = {name: [sum(col) for col in zip(*times[name].values())] for name in sides}
    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} ops  {args.rounds} rounds  base {args.base}")
    for name in sides:
        print(f"{name}: median CPU {statistics.median(total[name]):.3f} s a round  digest {digests[name].hexdigest()[:16]}")
    print(f"paired ratio head/base: {paired(total)}")
    for kind in times["head"]:
        per_round = {name: times[name][kind] for name in sides}
        medians = "  ".join(f"{name} {statistics.median(per_round[name]):.4f} s" for name in sides)
        print(f"  kind {kind} ({kinds.count(kind)} ops): {medians}  head/base {paired(per_round)}")
    for name, gl in sides.items():
        print(f"{name} row memo: {row_memo(gl)}")
    same = digests["base"].digest() == digests["head"].digest()
    print("outcomes: identical" if same else "outcomes: DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
