"""Tests of the benchmark itself: its checks flag wrong answers, and a quick
run of every workload completes with only the named faults failing.

Run with `python3 -m pytest -q bench` from the root of a checkout.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Replaces `name` in every altchains namespace that binds it, so the calls
# made through `from .intset import sumset` see the fault too.
PATCH_TEMPLATE = """
import sys
import altchains, altchains.cli

def _install(name, make):
    original = getattr(altchains, name)
    faulty = make(original)
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "altchains"]:
        if getattr(module, name, None) is original:
            setattr(module, name, faulty)
"""

DROP_ONE_SUM = """
def _drop_last(original):
    def sumset(A):
        full = original(A)
        return altchains.IntSet(full.elements[:-1]) if len(full) > 1 else full
    return sumset

_install("sumset", _drop_last)
"""

SKIP_NO_FILLING_IN = """
def _inclusion_only(original):
    def validate_chain(chain):
        report = original(chain)
        kept = [f for f in report.failures if f[1] != "no-filling-in"]
        return altchains.ValidationReport.from_failures(kept)
    return validate_chain

_install("validate_chain", _inclusion_only)
"""


# Shifts the observed density by one in the numerator, leaving the analytic
# limit as it was.
SHIFT_DENSITY = """
from fractions import Fraction

def _shifted(original):
    def limiting_density(chain, probe):
        analytic, density = original(chain, probe)
        return analytic, density + Fraction(1, density.denominator)
    return limiting_density

_install("limiting_density", _shifted)
"""


def apply_patch(body: str) -> None:
    namespace: dict = {}
    exec(PATCH_TEMPLATE + body, namespace)


def one_round(workload: str, tmp_path: Path, pick=lambda job: True):
    jobs = [job for job in run.plan(workload, 7, tmp_path) if pick(job)]
    ctx, calls = run.set_up(jobs, tmp_path)
    return ctx, jobs, calls, [job.expect() for job in jobs]


def verdicts(ctx, jobs, calls, expected):
    _, _, results, _ = run.run_round(ctx, jobs, calls, expected, None)
    return [(job.label, i, ok, i in job.known_faults)
            for job, got in zip(jobs, results) for i, ok in enumerate(got)]


def unexpected(results):
    return [r for r in results if not r[2] and not r[3]]


@pytest.fixture
def fresh_program():
    """Each test gets freshly imported altchains modules, patched or not."""
    yield
    for name in [n for n in sys.modules if n.split(".")[0] == "altchains"]:
        del sys.modules[name]


def test_sets_flags_a_dropped_sum(tmp_path, fresh_program):
    ctx, jobs, calls, expected = one_round("sets", tmp_path, lambda j: "random 1000" in j.label
                                    or "sidon 100" in j.label or "base" in j.label)
    assert unexpected(verdicts(ctx, jobs, calls, expected)) == []
    apply_patch(DROP_ONE_SUM)
    failed = unexpected(verdicts(ctx, jobs, calls, expected))
    assert {label for label, *_ in failed} >= {"random 1000", "sidon 100"}


def test_chains_flag_a_lax_validator(tmp_path, fresh_program):
    ctx, jobs, calls, expected = one_round("chains", tmp_path, lambda j: j.label.endswith("+fill"))
    assert {job.label[:2] for job in jobs} == {"m1", "m2", "m3"}
    assert unexpected(verdicts(ctx, jobs, calls, expected)) == []
    apply_patch(SKIP_NO_FILLING_IN)
    failed = unexpected(verdicts(ctx, jobs, calls, expected))
    # The filled-hole copy, validated last in each job, is what catches it.
    ops = {job.label: job.ops for job in jobs}
    assert len(failed) == len(jobs)
    assert all(index == ops[label] - 1 for label, index, *_ in failed)


def test_chains_flag_a_dropped_sum(tmp_path, fresh_program):
    ctx, jobs, calls, expected = one_round("chains", tmp_path, lambda j: "x" in j.label
                                    and int(j.label.split("x")[-1].split()[0]) < 60)
    apply_patch(DROP_ONE_SUM)
    failed = unexpected(verdicts(ctx, jobs, calls, expected))
    assert {label for label, index, *_ in failed if index == 1} == {job.label for job in jobs}


def test_method3_limit_fault_is_counted_not_hidden(tmp_path, fresh_program):
    ctx, jobs, calls, expected = one_round("chains", tmp_path, lambda j: j.label.startswith("m3"))
    results = verdicts(ctx, jobs, calls, expected)
    known = [r for r in results if r[3]]
    # Two analytic limits at each of lengths 11, 12, 51, 52, 203 and 204.
    assert len(known) == 12 and all(not ok for _, _, ok, _ in known)
    assert unexpected(results) == []


def test_known_fault_does_not_excuse_a_wrong_density(tmp_path, fresh_program):
    ctx, jobs, calls, expected = one_round("chains", tmp_path, lambda j: j.label.startswith("m3"))
    apply_patch(SHIFT_DENSITY)
    failed = unexpected(verdicts(ctx, jobs, calls, expected))
    # Every observed density fails, at the lengths with the known fault too.
    assert {(label, index) for label, index, *_ in failed} == {
        (job.label, 3 + 2 * i) for job in jobs for i in range(2)}


@pytest.mark.parametrize("patch, picked", [
    (DROP_ONE_SUM, ("classify", "profile", "search-modulus")),
    (SKIP_NO_FILLING_IN, ("verify broken",)),
])
def test_cli_flags_a_faulty_subprocess(tmp_path, monkeypatch, patch, picked):
    ctx, jobs, calls, expected = one_round("cli", tmp_path,
                                    lambda j: j.label.startswith(picked))
    assert unexpected(verdicts(ctx, jobs, calls, expected)) == []
    (tmp_path / "sitecustomize.py").write_text(PATCH_TEMPLATE + patch)
    monkeypatch.setattr(workloads, "SRC", f"{tmp_path}:{workloads.SRC}")
    failed = unexpected(verdicts(ctx, jobs, calls, expected))
    assert failed and {label.split()[0] for label, *_ in failed} <= set(" ".join(picked).split())
    if patch is SKIP_NO_FILLING_IN:
        assert len(failed) == 3


def test_oracle_counts_agree_with_the_double_loop():
    rng = random.Random(11)
    for _ in range(200):
        values = rng.sample(range(-60, 200), rng.randint(1, 70))
        assert oracle.poly_counts(values) == oracle.naive_counts(values)
    assert oracle.naive_counts(oracle.erdos_turan(31)) == oracle.sidon_counts(31)


def test_oracle_renders_table_1_densities_as_printed():
    assert [row[7] for row in oracle.table_rows(1)] == oracle.TABLE_1_DENSITY
    assert oracle.admissible_moduli(oracle.CONWAY) == [17, 18, 20]


@pytest.mark.parametrize("workload, trace", [("chains", 0), ("sets", 0), ("cli", 0), ("cli", 1)])
def test_quick_run_completes(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # Method-3 limits at lengths 11, 12, 51, 52, 203, 204, two probes each.
    assert result["failed"] == (12 * (2 if trace else 1) if workload == "chains" else 0)
    units = run.metric_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["cli.main.self_s"]["value"] > 0
        assert result["metrics"]["cli.parse_chain_text.bytes"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "bench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sets", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=bare)
    assert proc.returncode != 0 and proc.stdout == ""
