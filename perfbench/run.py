#!/usr/bin/env python3
"""glspace benchmark: one closed-loop client driving the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload sandwich --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one op at a time, no threads.  Ops run in a fixed number of
blocks per workload, as many as take ``--seconds`` of CPU time at the
usual speed of the machine the benchmark was defined on, and a reference
kernel runs after each op (``reference.py``); every op's answer is then checked
against the benchmark's own reference values (``oracle.py``).  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` half of the blocks run
untraced and without the kernel, each block is replayed right after it with spans and counters
installed (``tracing.py``), and the JSON holds the per-layer metrics.  The spans and
counters are written to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent


def load_glspace():
    """Import glspace from this checkout's src/; returns (module, seconds)."""
    src = ROOT / "src"
    if not (src / "glspace" / "__init__.py").is_file():
        raise ImportError(f"no glspace sources under {src}")
    sys.path.insert(0, str(src))
    t0 = process_time()
    import glspace
    import glspace.cli  # noqa: F401  (the CLI is not imported by the package)

    dt = process_time() - t0
    if Path(glspace.__file__).resolve().parent != (src / "glspace").resolve():
        raise ImportError(f"glspace was imported from {glspace.__file__}, not {src}")
    return glspace, dt


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        gl, import_s = load_glspace()
    except ImportError as exc:
        print(f"perfbench: cannot import glspace: {exc}", file=sys.stderr)
        return 2
    import harness  # numpy and the benchmark's own modules load after glspace

    return harness.run(args, gl, import_s)


if __name__ == "__main__":
    sys.exit(main())
