"""Measurement, checking and reporting for one benchmark run.

Imported by run.py only after glspace, so that the timed glspace import
also pays for numpy and scipy, as a user's first call does.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

import numpy as np

import workloads
from reference import KERNELS, Reference
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN = HERE / "run.py"

# set-up is timed in this process and in this many fresh interpreters,
# because the glspace import can only be timed once per process
SETUP_PROBES = 2
# CPU seconds of reference.import_probe at the usual speed of the machine
# the benchmark was defined on; setup_s is scaled to that speed
USUAL_IMPORT_PROBE_S = 0.105
# op_tail_ref is the highest percentile with MIN_BEYOND ops above it:
# the time of the (MIN_BEYOND + 1)-th slowest op
MIN_BEYOND = 10

# Measured with lscpu on the 2-core Xeon (KVM guest) the benchmark was
# defined on.  Array sizes are computed (n x 8 bytes), not measured.
MACHINE = {
    "l2_bytes_per_core": 2 << 20,
    "l2_bytes_total": 4 << 20,
    "l3_bytes_shared": 300 << 20,
    "ram_bytes": 7 << 30,
    "note": "Byte counts are computed from array sizes (n x 8 bytes per p point), "
    "not measured traffic. The largest arrays (a 2^20-value tail sample, 8 MiB; "
    "512 KiB per-p temporaries at n = 2^16) fit in the 300 MiB shared L3, so no "
    "workload meets the four-times-LLC size (1.2 GiB) a bandwidth measurement needs; "
    "no bandwidth figure is reported.",
}


class Raised:
    """Outcome of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def call(workload, env, op):
    try:
        return workload.execute(env, op)
    except Exception as exc:  # a failed op is counted, the run goes on
        return Raised(exc)


def run_plain(workload, env):
    def run(op):
        t0 = process_time()
        outcome = call(workload, env, op)
        return outcome, process_time() - t0

    return run


def replayer(gl, workload, pools, tracer, traced):
    """A function that runs a block's recorded ops again with the tracer
    installed, appending (op, outcome, seconds) to ``traced``.  Each block
    is replayed right after its untraced run, so that both see about the
    same CPU speed and their ratio is the tracing overhead."""
    psis = workload.traced_psis(pools)

    def replay(records):
        tracer.samples_requested += sum(getattr(op, "n", 0) for op, _, _ in records)
        patches = tracer.install(gl)
        try:
            env = workloads.Env(gl, pools, {id(p): tracer.wrap_psi(p) for p in psis})
            for op, _, _ in records:
                traced.append((op, *tracer.run_op(len(traced), lambda: call(workload, env, op))))
        finally:
            patches.restore()

    return replay


def block_count(workload, seconds: float) -> int:
    """The whole blocks that take about ``seconds`` of CPU time, kernel
    included, at the usual speed of the machine the benchmark was defined
    on.  The count is fixed rather than read from a clock, so every run of
    a workload holds the same number and mix of ops whatever the host's
    speed: op_tail_ref is the 11th-slowest op, and one block more or less
    moves it into another class of op (on norm, from one large-sample
    query to another that costs 20% more)."""
    return max(1, round(seconds / workload.block_seconds))


def measure(blocks, n_blocks, run, reference=None, after_block=None):
    """Run ``n_blocks`` blocks, and the reference kernel after each op;
    returns the (op, outcome, seconds) records and the index at which
    each block starts.  ``after_block(records)`` runs after each block,
    outside the op time."""
    records = []
    starts = []
    for _ in range(n_blocks):
        start = len(records)
        starts.append(start)
        for op in next(blocks):
            outcome, dt = run(op)
            records.append((op, outcome, dt))
            if reference is not None:
                reference.follow(dt)
        if after_block is not None:
            after_block(records[start:])
    return records, starts


def find_failures(workload, env, records):
    failures = []
    for i, (op, outcome, _) in enumerate(records):
        if isinstance(outcome, Raised):
            errors = [outcome.text]
        else:
            try:
                errors = workload.check(env, op, outcome)
            except Exception as exc:  # unreadable output is a failed op
                errors = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        if errors:
            failures.append((i, op, errors))
    return failures


def tail(sorted_values):
    """(percentile, value) of the op with MIN_BEYOND ops above it; the
    median when a run has too few ops."""
    n = len(sorted_values)
    if n <= 2 * MIN_BEYOND:
        return 50.0, statistics.median(sorted_values)
    rank = n - 1 - MIN_BEYOND
    return 100.0 * rank / (n - 1), sorted_values[rank]


def probe(cmd) -> str:
    """The last stdout line of a fresh interpreter running ``cmd``."""
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {cmd[0]} failed: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def setup_samples(args, first):
    """This process's set-up time plus SETUP_PROBES fresh interpreters,
    each set-up followed by one reference import probe."""
    samples = [first]
    imports = [float(probe([str(HERE / "reference.py")]))]
    for _ in range(SETUP_PROBES):
        samples.append(json.loads(probe([str(RUN), "--setup-probe", "--workload", args.workload,
                                         "--seed", str(args.seed)])))
        imports.append(float(probe([str(HERE / "reference.py")])))
    return samples, imports


def spec_metrics(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emit(correct, attempted, failed, values: dict, units: dict) -> None:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }))


def report_failures(failures, limit=20) -> None:
    for i, op, errors in failures[:limit]:
        print(f"  defect: op {i} {op}: {'; '.join(errors)}")
    if len(failures) > limit:
        print(f"  ... and {len(failures) - limit} more failed ops")


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<30} {'unit':<10} " + " ".join(f"{w:>12}" for w in results))
    for m in names:
        unit = next(iter(results.values()))["metrics"][m]["unit"]
        print(f"{m:<30} {unit:<10} " + " ".join(f"{r['metrics'][m]['value']:>12.6g}" for r in results.values()))
    if not args.trace:
        rates = " ".join(f"{r['failed'] / r['attempted']:>12.6g}" for r in results.values())
        print(f"{'error_rate':<30} {'1':<10} {rates}")
    print(json.dumps(results))
    return 0


def report_end_to_end(records, starts, reference, failures, setup, peak_rss_mb) -> None:
    times = [dt for _, _, dt in records]
    n = len(times)
    # Each op's CPU time in units of the reference kernel measured around
    # it ("ref"), so that a change of the host's speed cancels out.
    per_call = reference.seconds_per_call()
    refs = [dt / c for dt, c in zip(times, per_call)]
    bounds = starts + [n]
    # Every block has the same op mix, so the rate is read from the median
    # block; one block stretched by a stray op does not move it.
    block_refs = [sum(refs[a:b]) for a, b in zip(bounds, bounds[1:])]
    per_block = n / len(block_refs)
    q, tail_ref = tail(sorted(refs))
    _, tail_s = tail(sorted(times))
    # Set-up stays in seconds, scaled to the usual speed of the defining
    # machine by the import probes run beside it: between runs minutes
    # apart, raw set-up time moved by up to 40% with the host's speed.
    samples, imports = setup
    setup_cpu = statistics.median(s["setup_s"] for s in samples)
    import_cpu = statistics.median(imports)
    ref_s = statistics.median(per_call)
    values = {
        "ops_per_kref": 1e3 * per_block / statistics.median(block_refs),
        "op_p50_ref": statistics.median(refs),
        "op_tail_ref": tail_ref,
        "setup_s": setup_cpu * USUAL_IMPORT_PROBE_S / import_cpu,
        "peak_rss_mb": peak_rss_mb,
    }
    units = spec_metrics("end_to_end")
    notes = {
        "ops_per_kref": f"ops per 1000 kernel calls, median block of {per_block:g} ops",
        "op_p50_ref": "median op, in kernel calls",
        "op_tail_ref": f"p{q:.2f} of {n} ops, {min(MIN_BEYOND, n // 2)} beyond it",
        "setup_s": f"median of {len(samples)} set-ups, at {USUAL_IMPORT_PROBE_S:g} s per import probe",
    }
    for name, unit in units.items():
        print(f"  {name:<14} {values[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    print("  raw CPU time, for reading only (it moves with the host's speed):")
    print(f"  {'ops_per_s':<14} {n / sum(times):>14.6g} {'1/s':<6} mean over the run")
    print(f"  {'op_p50_ms':<14} {statistics.median(times) * 1e3:>14.6g} {'ms':<6}")
    print(f"  {'op_tail_ms':<14} {tail_s * 1e3:>14.6g} {'ms':<6} p{q:.2f}")
    print(f"  {'setup_cpu_s':<14} {setup_cpu:>14.6g} {'s':<6} median of {len(samples)} set-ups")
    print(f"  {'import_probe_s':<14} {import_cpu:>14.6g} {'s':<6} median of {len(imports)} import probes")
    print(f"  {'ref_ms':<14} {ref_s * 1e3:>14.6g} {'ms':<6} "
          f"kernel call, median over ops (quartiles {' '.join(f'{v * 1e3:.4g}' for v in statistics.quantiles(per_call, n=4))})")
    print(f"  {'error_rate':<14} {len(failures) / n:>14.6g} {'1':<6} {len(failures)} of {n} ops failed")
    emit(not failures, n, len(failures), values, units)


def report_layers(args, records, traced, tracer, failures, setup) -> None:
    untraced_s = sum(dt for _, _, dt in records)
    traced_s = sum(dt for _, _, dt in traced)
    values, not_applicable = tracer.layer_metrics()
    values["glspace.import_s"] = statistics.median(s["import_s"] for s in setup[0])
    values["trace.overhead"] = untraced_s / traced_s
    units = spec_metrics("per_layer")
    for name, unit in units.items():
        note = "  n/a: the layer is not called, 1 by convention" if name in not_applicable else ""
        print(f"  {name:<30} {values[name]:>14.6g} {unit}{note}")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path, {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(records),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "op_ids": "spans carry the index of the op in the replayed sequence",
        "metrics": {k: values[k] for k in units},
        "not_applicable": not_applicable,
        "machine": MACHINE,
    })
    print(f"  spans and counters written to {trace_path.relative_to(ROOT)}")
    emit(not failures, len(records), len(failures), values, units)


def run(args, gl, import_s: float) -> int:
    """One workload run, after the timed glspace import."""
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    setup_seq, input_seq = np.random.SeedSequence(args.seed).spawn(2)
    inputs = workload.setup_inputs(np.random.default_rng(setup_seq))
    t0 = process_time()
    pools = workload.setup(gl, inputs)
    first = {"import_s": import_s, "setup_s": import_s + process_time() - t0}
    if args.setup_probe:
        print(json.dumps(first))
        return 0
    setup = setup_samples(args, first)

    env = workloads.Env(gl, pools)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        blocks = workload.blocks(np.random.default_rng(input_seq), env, workdir)
        if args.trace:
            tracer, traced = Tracer(), []
            records, starts = measure(blocks, block_count(workload, args.seconds / 2), run_plain(workload, env),
                                      after_block=replayer(gl, workload, pools, tracer, traced))
        else:
            reference = Reference(KERNELS[workload.reference])
            records, starts = measure(blocks, block_count(workload, args.seconds), run_plain(workload, env),
                                      reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = find_failures(workload, env, records)
        if args.trace:
            bad = {i for i, _, _ in failures}
            failures += [(i, op, ["traced outcome differs from the untraced one"])
                         for i, (op, outcome, _) in enumerate(traced)
                         if i not in bad and outcome != records[i][1]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  ops {len(records)} in {len(starts)} blocks  "
          f"failed {len(failures)}  measured {sum(dt for _, _, dt in records):.3f} s  closed loop, 1 client")
    report_failures(failures)
    if args.trace:
        report_layers(args, records, traced, tracer, failures, setup)
    else:
        report_end_to_end(records, starts, reference, failures, setup, peak_rss_mb)
    return 0
