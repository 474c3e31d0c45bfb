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
digest of each side's op outcomes (reprs, so a moved bit shows).  Exits 1
when the digests differ, 0 otherwise.  perfbench/workloads.py is imported,
not changed.
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
        # the seeds of perfbench/harness.py: set-up inputs, then the blocks
        setup_seq, input_seq = np.random.SeedSequence(args.seed).spawn(2)
        inputs = workload.setup_inputs(np.random.default_rng(setup_seq))
        envs = {name: workloads.Env(gl, workload.setup(gl, inputs)) for name, gl in sides.items()}
        workdir = tmp / "work"
        workdir.mkdir()
        blocks = workload.blocks(np.random.default_rng(input_seq), envs["head"], workdir)
        ops = [op for _ in range(args.blocks) for op in next(blocks)]

        order = np.random.default_rng(args.seed)
        times = {name: [0.0] * args.rounds for name in sides}
        digests = {name: hashlib.sha256() for name in sides}
        for r in range(args.rounds):
            for op in ops:
                for name in ("base", "head") if order.random() < 0.5 else ("head", "base"):
                    # a CLI op prints its own warnings; they are not compared
                    with contextlib.redirect_stderr(io.StringIO()):
                        t0 = process_time()
                        out = outcome(workload, envs[name], op)
                        times[name][r] += process_time() - t0
                    if r == 0:
                        digests[name].update(repr(out).encode())

    ratios = [h / b for h, b in zip(times["head"], times["base"])]
    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} ops  {args.rounds} rounds  base {args.base}")
    for name in sides:
        print(f"{name}: median CPU {statistics.median(times[name]):.3f} s a round  digest {digests[name].hexdigest()[:16]}")
    print(f"paired ratio head/base: median {statistics.median(ratios):.3f} (range {min(ratios):.3f}-{max(ratios):.3f})")
    same = digests["base"].digest() == digests["head"].digest()
    print("outcomes: identical" if same else "outcomes: DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
