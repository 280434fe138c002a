"""The three workloads: a fixed job list drawn from the seed, and its checks.

A workload function draws the job list once per process, without the
program.  A job is one user-level operation (one chain built and verified,
one set analysed, one CLI invocation).  `build` is the job's part of the
timed set-up: it makes the program-side inputs with a freshly imported
program and returns the timed call.  `expect` computes the answer apart from
the program, once per process; and `check` compares the two outside the
timer and returns one verdict per operation the job performs.  A job that
raises fails all its operations.

Inputs and expected answers are kept compactly (machine-integer arrays,
digests, first-period counts), so that the benchmark's own data adds little
to the peak resident size.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import oracle as o
from tracer import merge

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass
class Job:
    label: str
    ops: int
    build: Callable[["Context"], Callable[[], object]]
    expect: Callable[[], object]
    check: Callable[[object, object], list[bool]]
    # Operations that fail because of a named fault in the program (README).
    known_faults: frozenset = frozenset()


@dataclass
class Context:
    """What a workload's jobs share: the program, a work directory, and the
    per-layer totals that traced CLI subprocesses report back."""

    ac: object
    workdir: Path
    traced: bool = False
    spans: dict = field(default_factory=dict)


# ------------------------------------------------------------------ chains

M1_STEPS = (11, 41, 81, 121, 161)
M2_MS = (4, 8, 8, 12, 12, 16, 16)
M2_STEPS = (25, 75, 125)
# Method-3 lengths ending on each phase.  At lengths = 3 or 0 mod 4 the last
# sum-dominated member is in phase 3 and `growth_rates` returns a limit other
# than 2/5; their probes, like every length, do not depend on the seed.
M3_STEPS = (9, 10, 11, 12, 51, 52, 101, 102, 201, 202, 203, 204, 253, 254)


def _nathanson_params(rng: random.Random, m: int, ds) -> tuple[int, int, int]:
    """(m, d, k) with d drawn from `ds` and k from its valid range up to 6."""
    d = rng.choice(ds)
    return m, d, rng.randint(3 if 2 * d < m else 4, 6)


def _probes(rng: random.Random, steps: int, fixed: bool) -> tuple[int, int]:
    last = steps if steps % 2 else steps - 1
    return (5 if fixed else rng.randrange(5, last + 1, 2)), last


def _chain_job(method: int, params, steps: int, probes, rng=None) -> Job:
    """Build, profile and verify one chain.  With `rng`, also validate a copy
    in which one hole of a member is filled from the next member on."""
    if method == 1:
        period, inc = 2, o.m1_increment(o.CONWAY, params)
    elif method == 2:
        period, inc = 2, o.m2_increment(params[0])
    else:
        period, inc = 4, o.M3_INCREMENT
    limit = Fraction(inc[2], inc[3])
    filled = None
    if rng is not None:
        sets = list(o.chain_sets(method, params, steps))
        j = rng.randint(2, steps)
        prev = set(sets[j - 2])
        hole = rng.choice([v for v in range(min(prev), max(prev)) if v not in prev])
        filled = (j, hole, [array("q", s if i < j - 1 else (*s, hole))
                            for i, s in enumerate(sets)])

    def build(ctx: Context):
        ac = ctx.ac
        conway = ac.make_set(o.CONWAY)
        filled_chain = filled and [ac.make_set(s) for s in filled[2]]

        def run():
            nat = None
            if method == 1:
                chain = ac.generate_chain_m1(conway, params, steps)
            elif method == 2:
                nat = ac.build_base(*params)
                chain = ac.generate_chain_m2(nat, steps)
            else:
                chain = ac.generate_chain_m3(steps)
            return (chain, ac.validate_chain(chain), ac.growth_table(chain),
                    [ac.limiting_density(chain, p) for p in probes],
                    ac.verify_star_identities(nat, chain) if method == 2 else None,
                    filled and ac.validate_chain(ac.Chain.from_sets(filled_chain,
                                                                    ac.MethodTag.EXTERNAL)))
        return run

    def expect():
        first = o.first_period_counts(islice(o.chain_sets(method, params, steps), period))
        return o.chain_digest(o.chain_sets(method, params, steps)), first

    def check(out, exp):
        chain, report, rows, densities, star, filled_report = out
        digest, first = exp
        got = [chain.set_at(i).elements for i in range(1, len(chain) + 1)]
        verdicts = [o.chain_digest(got) == digest and not o.nesting_failures(got),
                    _rows_ok(rows, steps, first, inc),
                    report.ok is True]
        for (analytic, density), p in zip(densities, probes):
            card, diam = o.member_counts(first, inc, p)[2:]
            verdicts += [density == Fraction(card, diam), analytic == limit]
        if method == 2:
            verdicts.append(star.ok is True)
        if filled is not None:
            nesting = {f for f in filled_report.failures if f[1] != "alternation"}
            verdicts.append(nesting == {(filled[0], "no-filling-in", filled[1])})
        return verdicts

    # The analytic limits (operations 4, 6, ...) of the lengths that meet the
    # `growth_rates` fault; the observed densities are checked apart.
    fixed = method == 3 and steps % 4 in (0, 3)
    return Job(label=f"m{method} {params} x{steps}" + (" +fill" if filled else ""),
               ops=3 + 2 * len(probes) + (method == 2) + (filled is not None), build=build,
               expect=expect, check=check,
               known_faults=frozenset(4 + 2 * i for i in range(len(probes)) if fixed))


def _rows_ok(rows, steps: int, first, inc) -> bool:
    """Counts, alternation by index, step ratios and density of each row."""
    if len(rows) != steps:
        return False
    prev = None
    for i, row in enumerate(rows, start=1):
        s, d, c, diam = o.member_counts(first, inc, i)
        if (row.sum_card, row.diff_card, row.card, row.diameter) != (s, d, c, diam):
            return False
        if o.class_of(s, d) != ("MSTD" if i % 2 else "MDTS"):
            return False
        want_ratios = (None, None) if prev is None else (Fraction(c, prev[0]), Fraction(diam, prev[1]))
        if (row.card_ratio, row.diam_ratio) != want_ratios or row.density != Fraction(c, diam):
            return False
        prev = (c, diam)
    return True


def chains(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for n in o.admissible_moduli(o.CONWAY):
        for steps in M1_STEPS:
            fill = rng if steps == M1_STEPS[1] else None
            jobs.append(_chain_job(1, n, steps, _probes(rng, steps, False), fill))
    for m in M2_MS:
        params = _nathanson_params(rng, m, (m // 4, 3 * m // 4))
        for steps in M2_STEPS:
            fill = rng if steps == M2_STEPS[0] else None
            jobs.append(_chain_job(2, params, steps, _probes(rng, steps, False), fill))
    for steps in M3_STEPS:
        fixed = steps % 4 in (0, 3)
        fill = rng if steps in (101, 102) else None
        jobs.append(_chain_job(3, None, steps, _probes(rng, steps, fixed), fill))
    return jobs


# -------------------------------------------------------------------- sets

RANDOM_SIZES = (1000,) * 4 + (3000,) * 4 + (10000,) * 5 + (20000,)
INTERVALS = (1000, 2000, 4000, 6000, 8000, 10000)
PROGRESSIONS = ((1000, 3), (2000, 5), (3000, 2), (4000, 7), (5000, 3), (6000, 4))
# (m, d, k) of the bases; (4, 1, 3) builds the Conway set, whose admissible
# moduli are {17, 18, 20}.  They do not depend on the seed: a base's cost grows
# with m and k, and seeded parameters moved the median job from seed to seed.
NATHANSON_BASES = ((4, 1, 3), (4, 3, 4), (6, 1, 3), (6, 4, 5), (8, 2, 4), (8, 7, 6), (10, 3, 5),
                   (10, 8, 4), (12, 3, 6), (12, 9, 5), (14, 5, 4), (16, 13, 5), (18, 4, 6),
                   (20, 8, 6))
SIDON_SIZES = (100, 120, 140, 160, 180, 200, 220, 240, 260, 300)


def _set_job(label: str, values: list[int], counts: Callable) -> Job:
    """Profile and classify one set; `counts(values)` gives (|A+A|, |A-A|)."""
    values = array("q", values)

    def build(ctx: Context):
        ac = ctx.ac
        A = ac.make_set(values)
        return lambda: (ac.profile(A), ac.classify(A))

    def expect():
        return len(values), *counts(values), max(values) - min(values)

    return Job(label=label, ops=2, build=build, expect=expect, check=_profile_verdicts)


def _profile_verdicts(out, exp) -> list[bool]:
    p, cls = out[0], out[1]
    n, s, d, diam = exp
    return [(p.card, p.sum_card, p.diff_card, p.diameter) == (n, s, d, diam)
            and p.density == Fraction(n, diam),
            cls.value == o.class_of(s, d)]


def _nathanson_job(m: int, d: int, k: int) -> Job:
    def build(ctx: Context):
        ac = ctx.ac

        def run():
            A = ac.build_base(m, d, k).A
            return ac.profile(A), ac.classify(A), ac.search_moduli(A), A
        return run

    def expect():
        base = o.nathanson_base(m, d, k)
        moduli = o.admissible_moduli(base)
        if base == o.CONWAY and moduli != [17, 18, 20]:
            raise RuntimeError(f"naive search gives {moduli} for the Conway set")
        return (len(base), *o.naive_counts(base), base[-1]), moduli, base

    def check(out, exp):
        profile_exp, moduli, base = exp
        return _profile_verdicts(out, profile_exp) + [list(out[2]) == moduli, tuple(out[3]) == base]

    return Job(label=f"base {(m, d, k)}", ops=4, build=build, expect=expect, check=check)


def _off_centre(m: int) -> list[int]:
    return [d for d in range(1, m) if 2 * d != m]


def _next_prime(n: int) -> int:
    while any(n % q == 0 for q in range(2, int(n**0.5) + 1)):
        n += 1
    return n


def sets(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for n in RANDOM_SIZES:
        offset = rng.randint(-10**6, 10**6)
        values = [v + offset for v in rng.sample(range(3 * n), n)]
        jobs.append(_set_job(f"random {n}", values, o.poly_counts))
    for n in INTERVALS:
        lo = rng.randint(-10**6, 10**6)
        jobs.append(_set_job(f"interval {n}", list(range(lo, lo + n)),
                             lambda v: o.interval_counts(len(v))))
    for n, step in PROGRESSIONS:
        lo = rng.randint(-10**6, 10**6)
        jobs.append(_set_job(f"progression {n}x{step}", list(range(lo, lo + n * step, step)),
                             lambda v: o.interval_counts(len(v))))
    for params in NATHANSON_BASES:
        jobs.append(_nathanson_job(*params))
    for n in SIDON_SIZES:
        et = o.erdos_turan(_next_prime(n + n // 4))
        chosen = rng.sample(et, n)
        # Dilate past the bitset cut so the kernel takes its hash path.
        width = max(chosen) - min(chosen)
        factor = rng.randint(2**24 // width + 1, 2**25 // width + 1)
        shift = rng.randint(-2**30, 2**30)
        values = [factor * v + shift for v in chosen]
        jobs.append(_set_job(f"sidon {n}", values, lambda v: o.sidon_counts(len(v))))
    return jobs


# --------------------------------------------------------------------- cli

CLI_TABLES = ((1, "csv"), (1, "markdown"), (2, "csv"), (2, "markdown"), (3, "csv"), (3, "markdown"))
LITERAL_SIZES = (2000, 4000, 6000, 8000, 10000)
CHAIN_STEPS = {1: 151, 2: 151, 3: 201}
BROKEN_STEPS = 101
SUBPROCESS_TIMEOUT_S = 60
# Byte code of every process of a run, under its work directory.
PYCACHE_DIR = "pycache"


def _invoke(ctx: Context, argv: list[str]) -> subprocess.CompletedProcess:
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC),
           "PYTHONPYCACHEPREFIX": str(ctx.workdir / PYCACHE_DIR)}
    env.update({key: os.environ[key] for key in ("HOME", "LANG", "LC_ALL") if key in os.environ})
    if not ctx.traced:
        return subprocess.run([sys.executable, "-m", "altchains.cli", *argv], env=env,
                              cwd=ctx.workdir, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    spans_path = ctx.workdir / "spans.json"
    spans_path.unlink(missing_ok=True)
    began = perf_counter_ns()
    proc = subprocess.run([sys.executable, str(HERE / "cli_entry.py"), str(spans_path), *argv],
                          env=env, cwd=ctx.workdir, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    wall = perf_counter_ns() - began
    child = json.loads(spans_path.read_text())
    merge(ctx.spans, child["spans"])
    merge(ctx.spans, {"cli.process": {"startup_ns": wall - child["main_ns"] - child["tracer_ns"]}})
    return proc


def _cli_job(label: str, argv: list[str], expect, check) -> Job:
    return Job(label=label, ops=1, build=lambda ctx: lambda: _invoke(ctx, argv), expect=expect,
               check=lambda out, exp: [check(out, exp)])


def _chain_args(method: int, params) -> list[str]:
    if method == 1:
        return ["--set=" + ",".join(map(str, o.CONWAY)), "--n", str(params)]
    if method == 2:
        return [f"--{name}={value}" for name, value in zip("mdk", params)]
    return []


def _chain_file_ok(path: Path, digest: str) -> bool:
    """A header line, then exactly the expected members, properly nested."""
    lines = path.read_text().splitlines()
    got = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    return (lines[0].startswith("# method=") and o.chain_digest(got) == digest
            and not o.nesting_failures(got))


def _broken_ok(p, want) -> bool:
    """Exit 1, the removed element named at j and j+1, no other index."""
    j, x = want
    fails = {m.groups() for m in map(_FAIL_LINE.fullmatch, p.stdout.splitlines()) if m}
    return (p.returncode == 1
            and (str(j), "strict-inclusion", str(x)) in fails
            and (str(j + 1), "no-filling-in", str(x)) in fails
            and all(int(i) in (j, j + 1) for i, _, _ in fails))


def _csv_cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _markdown_cells(text: str) -> list[list[str]]:
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in text.splitlines()[2:]]


_FAIL_LINE = re.compile(r"FAIL index=(\d+) check=(\S+) witness=(.*)")


def _range_literal(rng: random.Random, size: int) -> tuple[str, list[int]]:
    """Four ranges and three single values, `size` elements in all."""
    cuts = sorted(rng.sample(range(1, size - 3), 3))
    lengths = [b - a for a, b in zip([0, *cuts], [*cuts, size - 3])]
    tokens, values, at = [], [], rng.randint(-10**5, 10**5)
    for length in lengths:
        tokens.append(f"{at}..{at + length - 1}")
        values.extend(range(at, at + length))
        at += length + rng.randint(2, length)
        tokens.append(str(at))
        values.append(at)
        at += rng.randint(2, 50)
    tokens.pop()
    values.pop()
    rng.shuffle(tokens)
    return ",".join(tokens), values


def cli(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    moduli = o.admissible_moduli(o.CONWAY)
    m = rng.choice((8, 12))
    params = {1: rng.choice(moduli), 2: _nathanson_params(rng, m, (m // 4, 3 * m // 4)), 3: None}
    for method in (1, 2, 3):
        steps = CHAIN_STEPS[method]
        out = workdir / f"chain{method}.txt"
        argv = ["chain", "--method", str(method), *_chain_args(method, params[method]),
                "--steps", str(steps), "--out", out.name]
        want = lambda method=method, steps=steps: o.chain_digest(
            o.chain_sets(method, params[method], steps))
        jobs.append(_cli_job(f"chain m{method}", argv, want,
                             lambda p, digest, out=out: p.returncode == 0
                             and _chain_file_ok(out, digest)))
        jobs.append(_cli_job(f"verify m{method}", ["verify", "--file", out.name],
                             lambda steps=steps: f"ok {steps} sets",
                             lambda p, want: p.returncode == 0 and p.stdout.strip() == want))
    # The broken files are written once, before any set-up.
    for method in (1, 2, 3):
        sets = list(o.chain_sets(method, params[method], BROKEN_STEPS))
        j = rng.randint(2, BROKEN_STEPS - 1)
        x = rng.choice(sets[j - 2][1:-1])
        broken = [sets[i] if i != j - 1 else tuple(v for v in sets[i] if v != x)
                  for i in range(len(sets))]
        head = f"# method=Method{method} base={','.join(map(str, sets[0]))}"
        if method == 1:
            head += f" n={params[1]}"
        path = workdir / f"broken{method}.txt"
        path.write_text("\n".join([head] + [",".join(map(str, s)) for s in broken]) + "\n")
        jobs.append(_cli_job(f"verify broken m{method}", ["verify", "--file", path.name],
                             lambda j=j, x=x: (j, x), _broken_ok))
    for number, fmt in CLI_TABLES:
        cells = _csv_cells if fmt == "csv" else _markdown_cells
        jobs.append(_cli_job(f"table {number} {fmt}",
                             ["table", "--paper", str(number), "--format", fmt],
                             lambda number=number: o.table_rows(number),
                             lambda p, rows, cells=cells: p.returncode == 0 and cells(p.stdout) == rows))
    bases = [o.CONWAY]
    for m in (8, 12, 16, 20):
        bases.append(o.nathanson_base(*_nathanson_params(rng, m, _off_centre(m))))
    for base in bases:
        jobs.append(_cli_job(f"search-modulus max={base[-1]}",
                             ["search-modulus", "--set=" + ",".join(map(str, base))],
                             lambda base=base: o.admissible_moduli(base),
                             lambda p, moduli: p.returncode == 0
                             and [int(v) for v in p.stdout.split()] == moduli))
    for verb in ("classify", "profile"):
        for size in LITERAL_SIZES * 2:
            literal, values = _range_literal(rng, size)
            values = array("q", values)

            def want(values=values):
                s, d = o.poly_counts(values)
                diam = max(values) - min(values)
                return {"class": o.class_of(s, d), "card": len(values), "sums": s, "diffs": d,
                        "diameter": diam, "density": o.format_3dp(Fraction(len(values), diam))}
            jobs.append(_cli_job(f"{verb} {size}", [verb, f"--set={literal}"], want,
                                 _classify_ok if verb == "classify" else _profile_ok))
    return jobs


def _classify_ok(p, want) -> bool:
    return p.returncode == 0 and p.stdout.split() == [want["class"], str(want["sums"]),
                                                       str(want["diffs"])]


def _profile_ok(p, want) -> bool:
    fields = dict(tok.split("=", 1) for tok in p.stdout.split() if "=" in tok)
    return p.returncode == 0 and fields == {
        "card": str(want["card"]), "sumcard": str(want["sums"]), "diffcard": str(want["diffs"]),
        "diameter": str(want["diameter"]), "density": want["density"]}


WORKLOADS = {"chains": chains, "sets": sets, "cli": cli}
