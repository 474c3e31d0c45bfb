"""Fixed reference kernels that read the CPU's speed while ops run.

The VM the benchmark was defined on changes speed, by up to 2x, within a
second or over minutes, and CPU time follows the changes (the
hypervisor is not stealing time).  A raw op time therefore moves with the
host as much as with the program.  So after every op the benchmark runs a
kernel for a fixed share of the op's CPU time, and divides each op's CPU
time by the kernel's CPU time per call measured around it.  The
end-to-end timings are in units of one kernel call ("ref"): they move
when glspace does more or less work, not when the host changes speed.

The kernels do not call glspace, and each does the kind of work its
workloads do, because a change of host speed slows each kind by a
different amount:

- ``mixed``: scalar Python float arithmetic (the search and psi layers),
  numpy calls on tiny arrays one p at a time (group power means) and one
  numpy pass over a 2^15-value array (empirical moments); for sandwich,
  algebra and norm;
- ``arrays``: fresh normal draws and passes over arrays of 2^14 to 2^17
  values; for tail, whose ops sample and transform 2^20 values.

On the 2-core Xeon the benchmark was defined on, a ``mixed`` call takes
0.3-0.75 ms of CPU time and an ``arrays`` call 0.6-0.95 ms, 0.5 ms and
0.75 ms at the machine's usual speed.  Over 40 s runs in which the
host's speed drifted, dividing by the matching kernel
cut the spread of block times (coefficient of variation) from 12.5% to
5.0% on sandwich, 12.5% to 8.5% on algebra, 8.2% to 3.7% on norm and
6.7% to 2.0% on tail.

Set-up time is import work: unmarshalling modules, running their top
level and loading shared libraries, and it follows the host's speed
less than the kernels do.  Its reference is ``import_probe``: a fresh
interpreter importing a fixed set of standard-library modules that
glspace and its dependencies do not load.  Over eleven minutes in which
the host sped up by up to 30%, set-up time and this probe moved by 15%
and 17%, the ``mixed`` kernel by 25%.

Run as a script, this file prints the probe's CPU seconds.
"""

from __future__ import annotations

import importlib
import math
from time import process_time

import numpy as np

# share of each op's CPU time spent in the kernel right after it
SHARE = 0.2
# an op's speed is read from this many kernel calls, those nearest in
# time to the op's midpoint
NEAREST_CALLS = 32

_SMALL = np.linspace(0.1, 2.0, 16)
_MEDIUM = np.linspace(0.1, 2.0, 1 << 15)
_LARGE = np.linspace(0.1, 2.0, 1 << 17)
_PS = tuple(1.0 + 0.25 * k for k in range(24))
_RNG = np.random.default_rng(0)


def mixed() -> float:
    """One call of fixed work; returns a value so nothing is skipped."""
    acc = 0.0
    x = 0.5
    for _ in range(400):  # scalar float arithmetic and math calls
        x = 0.5 * (x + 2.0 / x)
        acc += math.log(1.0 + x) * math.exp(-x)
    for p in _PS:  # tiny-array power means, one p at a time
        acc += float(np.mean(np.abs(_SMALL) ** p) ** (1.0 / p))
    acc += float(np.mean(_MEDIUM**3.3) ** (1.0 / 3.3))  # one pass over a larger array
    return acc


def arrays() -> float:
    """One call of fixed work on large arrays: normal draws, a power sum
    over them and a pass over a 2^17-value array."""
    x = _RNG.standard_normal(1 << 14)
    return float(np.sum(np.abs(x) ** 1.7) + np.sum(np.log1p(_LARGE)))


KERNELS = {"mixed": mixed, "arrays": arrays}

# standard-library modules that glspace, numpy and scipy do not import;
# pyexpat, _sqlite3, _ssl and _multiprocessing are shared libraries
PROBE_MODULES = (
    "asyncio", "email.mime.multipart", "xml.dom.minidom", "http.server", "sqlite3", "ssl",
    "xmlrpc.client", "tarfile", "multiprocessing", "urllib.request", "doctest", "mailbox",
    "configparser",
)


def import_probe() -> float:
    """CPU seconds to import PROBE_MODULES; meaningful in a fresh
    interpreter only."""
    t0 = process_time()
    for name in PROBE_MODULES:
        importlib.import_module(name)
    return process_time() - t0


class Reference:
    """Runs a kernel after each op; keeps each op's midpoint and the start
    and duration of each kernel call, all in process CPU time."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.debt = 0.0
        self.mids = []
        self.calls = []

    def follow(self, op_seconds: float) -> None:
        """Run the kernel for SHARE of the op's time, carrying any
        overshoot over to the next op."""
        t0 = t = process_time()
        self.mids.append(t0 - op_seconds / 2)
        self.debt += SHARE * op_seconds
        while t - t0 < self.debt:
            self.kernel()
            t1 = process_time()
            self.calls.append((t, t1 - t))
            t = t1
        self.debt -= t - t0

    def seconds_per_call(self) -> list:
        """The kernel's CPU seconds per call around each op: the mean over
        the NEAREST_CALLS calls nearest in time to the op's midpoint.
        The host's speed can halve within a second, so the estimate is
        kept local in time rather than in ops: near a 0.4 s op, most of
        the calls are those that follow it."""
        starts = np.array([t for t, _ in self.calls])
        secs = np.array([d for _, d in self.calls])
        n = len(secs)
        if n < NEAREST_CALLS:
            raise RuntimeError(f"the reference kernel ran {n} times, fewer than {NEAREST_CALLS}")
        out = []
        for mid in self.mids:
            lo = hi = int(np.searchsorted(starts, mid))
            while hi - lo < NEAREST_CALLS:
                if hi == n or (lo > 0 and mid - starts[lo - 1] <= starts[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
            out.append(float(np.mean(secs[lo:hi])))
        return out


if __name__ == "__main__":
    print(import_probe())
