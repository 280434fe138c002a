"""The altchains benchmark: one workload per run, one JSON line of results.

Usage (from the root of a checkout):

    python3 bench/run.py --workload chains|sets|cli --seed N --seconds S --trace 0|1

A run draws the workload's job list from the seed and computes every expected
answer apart from the program, untimed.  It sets the workload up (a fresh
import of `altchains` plus building the program-side inputs) SETUP_REPEATS
times and once more after every round.  It then repeats the job list in whole
rounds for about S seconds, checking every output after its job.  Every job
and every set-up is followed by one timed run of `reference()`, a fixed block
of the benchmark's own code; each time is reported at reference speed, as
its ratio to that reference run times REFERENCE_S, and each job's time is the
median of those over the rounds (README.md says why).  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it alternates untraced and
traced rounds and prints the per-layer metrics.  Metric names and units are
read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle as o  # noqa: E402
from tracer import Tracer, merge  # noqa: E402
from workloads import PYCACHE_DIR, WORKLOADS, Context  # noqa: E402

SETUP_REPEATS = 10
# job_s.tail is the highest percentile with at least this many jobs above it.
TAIL_JOBS_BEYOND = 10
# The nominal time of one `reference()` run.  A time t measured next to a
# reference run that took r is reported as t * REFERENCE_S / r.
REFERENCE_S = 0.01

_REF_RNG = random.Random(0)
_REF_WIDE = _REF_RNG.sample(range(4500), 1500)
_REF_SMALL = _REF_RNG.sample(range(10**6), 90)
_REF_FLOATS = [_REF_RNG.random() for _ in range(10000)]


def reference() -> float:
    """Seconds taken by a fixed block of the benchmark's own code, which does
    the kinds of work the program does: big-integer products, a set of pair
    sums, a sort and an interpreted loop.  About 10 ms on the reference
    machine.  The program's changes cannot move it; the machine's speed does."""
    began = perf_counter()
    o.poly_counts(_REF_WIDE)
    o.naive_counts(_REF_SMALL)
    sorted(_REF_FLOATS)
    total = 0
    for i in range(10000):
        total += i % 7
    return perf_counter() - began


def at_reference_speed(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_S / reference_s


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the `end_to_end` or `per_layer` metrics, in order."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in config[kind]}


def layer_value(spans: dict, metric: str) -> float:
    """One per-layer metric from a round's span totals (0 if never called)."""
    if metric == "intset.hash_path.calls":
        return sum(spans.get(k, {}).get("hash_path", 0) for k in ("intset.sumset", "intset.diffset"))
    layer, field = metric.rsplit(".", 1)
    fields = spans.get(layer, {})
    if field.endswith("_s"):
        key = "self_ns" if field == "self_s" else field[:-2] + "_ns"
        return fields.get(key, 0) / 1e9
    return fields.get(field, 0)


def tail(values: list[float]) -> float:
    """The highest percentile that still has TAIL_JOBS_BEYOND values above it."""
    ordered = sorted(values)
    return ordered[len(ordered) - TAIL_JOBS_BEYOND - 1]


def plan(workload: str, seed: int, workdir: Path):
    """The workload's job list, drawn from the seed without the program."""
    return WORKLOADS[workload](random.Random(seed), workdir)


def set_up(jobs, workdir: Path):
    """Import `altchains` afresh and build every job's inputs with it."""
    for name in [n for n in sys.modules if n == "altchains" or n.startswith("altchains.")]:
        del sys.modules[name]
    ctx = Context(ac=importlib.import_module("altchains"), workdir=workdir)
    importlib.import_module("altchains.cli")
    return ctx, [job.build(ctx) for job in jobs]


def run_round(ctx: Context, jobs, calls, expected, tracer: Tracer | None):
    """Run every job once; return job times, reference times, verdicts and
    span totals.

    Nothing returned refers to the jobs, so the inputs of earlier set-ups are
    freed and do not add to the peak resident size."""
    gc.collect()
    ctx.traced = tracer is not None
    ctx.spans = {}
    if tracer is not None:
        tracer.reset()
        tracer.install()
    times, refs, verdicts = [], [], []
    try:
        for job, call, exp in zip(jobs, calls, expected):
            if tracer is not None:
                tracer.recording = True
            began = perf_counter()
            try:
                out = call()
            except Exception as exc:  # a crash fails the job's operations
                out = exc
            times.append(perf_counter() - began)
            if tracer is not None:
                tracer.recording = False
            refs.append(reference())
            if isinstance(out, Exception):
                print(f"job {job.label}: {type(out).__name__}: {out}", file=sys.stderr)
                got = [False] * job.ops
            else:
                try:
                    got = job.check(out, exp)
                except Exception as exc:  # malformed output fails too
                    print(f"check {job.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    got = [False] * job.ops
            verdicts.append(got)
    finally:
        if tracer is not None:
            tracer.uninstall()
    spans = tracer.snapshot() if tracer is not None else {}
    merge(spans, ctx.spans)
    return times, refs, verdicts, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "altchains" / "__init__.py").is_file():
        print(f"error: no altchains package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = HERE / "out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Byte code goes to and comes from the run's own directory, here and in
    # the CLI subprocesses (PYCACHE_DIR), so that every set-up after the first
    # imports from byte code, whatever the checkout holds and whether the
    # environment lets Python write byte code.
    sys.pycache_prefix = str(workdir / PYCACHE_DIR)
    sys.dont_write_bytecode = False
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    jobs = plan(args.workload, args.seed, workdir)
    expected = [job.expect() for job in jobs]
    setups = []
    ctx = calls = None

    def timed_set_up():
        nonlocal ctx, calls
        # Free the last set-up's inputs first, so that two sets of them never
        # add up in the peak resident size.
        ctx = calls = None
        gc.collect()
        began = perf_counter()
        ctx, calls = set_up(jobs, workdir)
        setups.append(at_reference_speed(perf_counter() - began, reference()))

    for _ in range(SETUP_REPEATS):
        timed_set_up()

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    began = perf_counter()
    deadline = began + args.seconds
    while True:
        use_tracer = tracer if (tracer is not None and len(plain) > len(traced)) else None
        (traced if use_tracer else plain).append(
            run_round(ctx, jobs, calls, expected, use_tracer))
        # Set up again between rounds, so that set-up is timed across the
        # run's slow and fast spells like the jobs are.
        timed_set_up()
        # Whole rounds only: stop when the next one would probably overrun.
        per_round = (perf_counter() - began) / (len(plain) + len(traced))
        if (plain and (tracer is None or traced)
                and perf_counter() + per_round > deadline):
            break

    attempted = failed = 0
    correct = True
    for _, _, verdicts, _ in plain + traced:
        for job, got in zip(jobs, verdicts):
            attempted += job.ops
            for i, ok in enumerate(got):
                if not ok:
                    failed += 1
                    correct = correct and i in job.known_faults

    def job_times(rounds):
        """Each job's median time over the rounds, at reference speed."""
        return [statistics.median(at_reference_speed(times[j], refs[j])
                                  for times, refs, _, _ in rounds)
                for j in range(len(jobs))]

    if tracer is None:
        per_job = job_times(plain)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_job),
            "job_s.p50": statistics.median(per_job),
            "job_s.tail": tail(per_job),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    else:
        spans = [s for _, _, _, s in traced]
        if not all(_same_counts(s, spans[0]) for s in spans):
            print("warning: per-layer counts differ between traced rounds", file=sys.stderr)
        # A round's self times are scaled by the median reference run in it.
        speed = [REFERENCE_S / statistics.median(refs) for _, refs, _, _ in traced]
        metrics = {}
        for name, unit in metric_units("per_layer").items():
            if name == "trace.overhead_ratio":
                value = sum(job_times(traced)) / sum(job_times(plain))
            elif unit == "s":
                value = statistics.median(layer_value(s, name) * k for s, k in zip(spans, speed))
            else:
                value = layer_value(spans[0], name)
            metrics[name] = {"value": value, "unit": unit}

    all_refs = [r for _, refs, _, _ in plain + traced for r in refs]
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds of "
          f"{len(jobs)} jobs; {failed} of {attempted} operations failed; round walls "
          f"{[round(sum(r[0]), 3) for r in plain + traced]} s; reference runs "
          f"{min(all_refs):.4f}-{max(all_refs):.4f} s, median {statistics.median(all_refs):.4f} s",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _same_counts(a: dict, b: dict) -> bool:
    def counts(spans):
        return {layer: {k: v for k, v in f.items() if not k.endswith("_ns")}
                for layer, f in spans.items()}
    return counts(a) == counts(b)


if __name__ == "__main__":
    raise SystemExit(main())
