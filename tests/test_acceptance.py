"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Chains are cached across criteria so the later checks reuse the
chains generated by the earlier ones.
"""

import contextlib
import io
import random
import time
from fractions import Fraction
from functools import lru_cache

from altchains import (
    CONWAY_SET,
    SetClass,
    affine,
    analyze_modulus,
    build_base,
    check_interval_lemma,
    classify,
    delta_counts,
    diffset,
    generate_chain_m1,
    generate_chain_m2,
    generate_chain_m3,
    limiting_density,
    make_set,
    sumset,
    validate_chain,
    verify_star_identities,
)
from altchains.cli import main

from conftest import naive_diffset, naive_sumset, spot_check_no_fill

CONWAY_LITERAL = "0,2,3,4,7,11,12,14"

TABLE_1 = [
    (26, 25, 8, 14, "0.571"),
    (30, 33, 9, 17, "0.529"),
    (60, 59, 16, 31, "0.516"),
    (64, 67, 17, 34, "0.500"),
    (94, 93, 24, 48, "0.500"),
    (98, 101, 25, 51, "0.490"),
    (128, 127, 32, 65, "0.492"),
]
TABLE_2 = [
    (32, 31, 10, 16),
    (36, 37, 11, 20),
    (40, 39, 12, 24),
    (44, 45, 13, 28),
    (48, 47, 14, 32),
    (52, 53, 15, 36),
    (56, 55, 16, 40),
]
TABLE_3 = [
    (98, 97, 23, 56),
    (102, 103, 24, 60),
    (106, 105, 25, 64),
    (110, 111, 26, 65),
    (114, 113, 27, 66),
    (118, 119, 28, 70),
    (122, 121, 29, 74),
    (126, 127, 30, 75),
    (130, 129, 31, 76),
]

METHOD2_CASES = [
    (m, d, k)
    for m in (4, 8, 12, 16)
    for d in (m // 4, 3 * m // 4)
    for k in range(3 if d < m / 2 else 4, 7)
]


@contextlib.contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    """Print one ACCEPTANCE line per criterion; enforce the runtime budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num:02d} FAIL ({elapsed:.2f}s): {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {num:02d} FAIL ({elapsed:.2f}s): {label}")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeded the {budget}s budget")
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s): {label}")


def run_cli(args: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    assert code == 0, f"CLI {args} exited {code}"
    return buf.getvalue()


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


@lru_cache(maxsize=None)
def m1_chain_50(n: int):
    return generate_chain_m1(CONWAY_SET, n, 50)


@lru_cache(maxsize=None)
def m2_chain_25(m: int, d: int, k: int):
    return generate_chain_m2(build_base(m, d, k), 25)


@lru_cache(maxsize=None)
def m3_chain_104():
    return generate_chain_m3(104)


def test_criterion_01_table1_reproduction():
    with criterion(1, "Table 1 reproduction via `table --paper 1`", budget=1.0):
        rows = csv_rows(run_cli(["table", "--paper", "1", "--format", "csv"]))
        assert len(rows) == 7
        for row, (s, d, c, diam, density) in zip(rows, TABLE_1):
            assert [int(v) for v in row[1:5]] == [s, d, c, diam]
            assert row[7] == density


def test_criterion_02_table2_reproduction():
    with criterion(2, "Table 2 reproduction via `table --paper 2`", budget=1.0):
        rows = csv_rows(run_cli(["table", "--paper", "2", "--format", "csv"]))
        assert len(rows) == 7
        assert [tuple(int(v) for v in row[1:5]) for row in rows] == TABLE_2


def test_criterion_03_table3_reproduction():
    with criterion(3, "Table 3 reproduction via `table --paper 3`", budget=1.0):
        rows = csv_rows(run_cli(["table", "--paper", "3", "--format", "csv"]))
        assert len(rows) == 9
        assert [tuple(int(v) for v in row[1:5]) for row in rows] == TABLE_3


def test_criterion_04_modulus_search():
    with criterion(4, "modulus search finds exactly {17, 18, 20}"):
        out = run_cli(["search-modulus", "--set", CONWAY_LITERAL])
        assert out == "17 18 20\n"


def test_criterion_05_method1_identity_suite():
    with criterion(5, "method-1 step identities for n in {17, 18, 20}, 50 steps"):
        violations = []
        for n in (17, 18, 20):
            params = analyze_modulus(CONWAY_SET, n)
            chain = m1_chain_50(n)
            profiles = chain.profiles
            base_gap = profiles[0].sum_card - profiles[0].diff_card
            for i in range(1, len(profiles)):
                cur, prev = profiles[i], profiles[i - 1]
                position = i + 1
                if position % 2 == 0:
                    if cur.sum_card != prev.sum_card + params.x + 1:
                        violations.append((n, position, "sum-increment"))
                    if cur.diff_card != prev.diff_card + 2 * params.y:
                        violations.append((n, position, "diff-increment"))
                elif cur.sum_card - cur.diff_card != base_gap:
                    violations.append((n, position, "odd-gap"))
        assert violations == []


def test_criterion_06_method2_identity_suite():
    with criterion(
        6, f"method-2 identity suite over {len(METHOD2_CASES)} parameter sets", budget=10.0
    ):
        violations = []
        for m, d, k in METHOD2_CASES:
            params = build_base(m, d, k)
            chain = m2_chain_25(m, d, k)
            for i, p in enumerate(chain.profiles, start=1):
                want = SetClass.MSTD if i % 2 else SetClass.MDTS
                if p.set_class is not want:
                    violations.append((m, d, k, i, "alternation"))
                if i % 2 == 0 and not p.sum_card <= p.diff_card - m + 3:
                    violations.append((m, d, k, i, "mdts-bound"))
            cards = [p.card for p in chain.profiles]
            if cards != list(range(cards[0], cards[0] + 25)):
                violations.append((m, d, k, 0, "card-step"))
            report = verify_star_identities(params, chain)
            if not report.ok:
                violations.append((m, d, k, 0, report.failures))
        assert violations == []


def test_criterion_07_method3_suite():
    with criterion(7, "method-3 suite across blocks k <= 25 (104 sets)", budget=5.0):
        chain = m3_chain_104()
        violations = []
        for i, p in enumerate(chain.profiles, start=1):
            if i % 2:
                if p.set_class is not SetClass.MSTD or p.sum_card != p.diff_card + 1:
                    violations.append((i, "odd-parity"))
            else:
                if p.set_class is not SetClass.MDTS or p.diff_card != p.sum_card + 1:
                    violations.append((i, "even-parity"))
        for i in range(2, 105, 2):
            if delta_counts(i) != (4, 6):
                violations.append((i, "delta-counts"))
        for k in range(26):
            for phase in (1, 3):
                core = chain.set_at(4 * k + phase).without(5)
                if affine(core, -1, 8) != core:
                    violations.append((4 * k + phase, "core-symmetry"))
        assert violations == []


def test_criterion_08_interval_lemma_and_base_sweep():
    with criterion(8, "interval lemma sweep and exhaustive base construction"):
        for m in range(4, 21):
            for r in range(2, m - 2):
                assert check_interval_lemma(m, r), (m, r)
        for m in range(4, 17):
            for d in range(1, m):
                if 2 * d == m:
                    continue
                for k in range(3 if 2 * d < m else 4, 7):
                    assert classify(build_base(m, d, k).A) is SetClass.MSTD, (m, d, k)


def closed_form_gap(row: tuple, card_rate: int, diam_rate: int, hops: int) -> Fraction:
    """Signed gap density - card_rate/diam_rate for the member `hops` rate
    steps past the table row `row`, which carries (..., |A|, diam(A), ...)."""
    card, diam = row[2], row[3]
    return Fraction(card + card_rate * hops, diam + diam_rate * hops) - Fraction(
        card_rate, diam_rate
    )


def test_criterion_09_limiting_densities():
    with criterion(
        9,
        "density gaps equal their closed forms at probes {11, 51, 101}; "
        "within 0.01 at probe 101 (methods 1, 3) and 149 (method 2)",
    ):
        # Each MSTD member sits a whole number of rate steps past a Table row:
        #   method 1, position 2l+1:  (8+8l)/(14+17l) - 8/17 = 24/(17(14+17l))
        #   method 2, position 2r+1:  (10+2r)/(16+8r) - 1/4  = 3/(4r+8)
        #   method 3, position 4k+1:  (23+4k)/(56+10k) - 2/5 = +3/(280+50k)
        #   method 3, position 4k+3:  (25+4k)/(64+10k) - 2/5 = -3/(320+50k)
        # Method 2 converges slowest: its gap is exactly 1/100 at position 147
        # and first drops strictly below it at 149, so its chain runs to 149.
        cases = [
            (
                "method 1 (modulus 17)",
                generate_chain_m1(CONWAY_SET, 17, 101),
                Fraction(8, 17),
                lambda p: closed_form_gap(TABLE_1[0], 8, 17, (p - 1) // 2),
                (11, 51, 101),
            ),
            (
                "method 3",
                generate_chain_m3(101),
                Fraction(2, 5),
                lambda p: closed_form_gap(TABLE_3[(p - 1) % 4], 4, 10, (p - 1) // 4),
                (11, 51, 101),
            ),
            (
                "method 2 (minimal parameters)",
                generate_chain_m2(build_base(4, 1, 3), 149),
                Fraction(1, 4),
                lambda p: closed_form_gap(TABLE_2[0], 2, 8, (p - 1) // 2),
                (11, 51, 101, 147, 149),
            ),
        ]
        bound = Fraction(1, 100)
        gaps = {}
        for label, chain, expected_limit, expected_gap, probes in cases:
            for probe in probes:
                analytic, numeric = limiting_density(chain, probe)
                assert analytic == expected_limit, (label, analytic)
                gap = numeric - analytic
                assert gap == expected_gap(probe), (
                    f"{label}: density - limit at probe {probe} is {gap}, "
                    f"closed form gives {expected_gap(probe)}"
                )
                gaps[label, probe] = abs(gap)
            probe_gaps = [gaps[label, p] for p in (11, 51, 101)]
            assert probe_gaps[0] > probe_gaps[1] > probe_gaps[2], (
                f"{label}: not monotone {probe_gaps}"
            )
        for label in ("method 1 (modulus 17)", "method 3"):
            assert gaps[label, 101] < bound, (
                f"{label}: |density - limit| at probe 101 is {gaps[label, 101]}, "
                "not within 0.01"
            )
        method2 = "method 2 (minimal parameters)"
        assert gaps[method2, 147] == bound
        assert gaps[method2, 149] < bound, (
            f"{method2}: |density - limit| at probe 149 is {gaps[method2, 149]}, "
            "not within 0.01"
        )


def test_criterion_10_core_property_suite():
    with criterion(10, "core properties on 1000 random subsets of [0, 50]", budget=5.0):
        rng = random.Random(20250808)
        for _ in range(1000):
            values = frozenset(v for v in range(51) if rng.random() < 0.5)
            A = make_set(values)
            assert set(sumset(A)) == naive_sumset(values)
            assert set(diffset(A)) == naive_diffset(values)
            x = rng.choice([-3, -2, -1, 1, 2, 3])
            y = rng.randint(-50, 50)
            image = affine(A, x, y)
            assert len(sumset(image)) == len(sumset(A))
            assert len(diffset(image)) == len(diffset(A))
            if A:
                D = diffset(A)
                assert 0 in D and D == affine(D, -1, 0)
                a_star = rng.randint(-20, 120)
                symmetric = A.union(a_star - v for v in A)
                assert classify(symmetric) is SetClass.BALANCED


def test_criterion_11_no_filling_in():
    with criterion(11, "no-filling-in on every generated chain plus spot checks"):
        chains = [m1_chain_50(n) for n in (17, 18, 20)]
        chains += [m2_chain_25(m, d, k) for m, d, k in METHOD2_CASES]
        chains.append(m3_chain_104())
        for index, chain in enumerate(chains):
            report = validate_chain(chain)
            assert report.ok, (index, report.failures)
            assert spot_check_no_fill(chain, pairs=20, seed=index)
