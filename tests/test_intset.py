import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from altchains import (
    IntSet,
    SetClass,
    affine,
    classify,
    diffset,
    format_density,
    format_set_literal,
    interval,
    make_set,
    parse_set_literal,
    profile,
    residue_count,
    sumset,
)

import altchains.intset as intset_module
from conftest import naive_diffset, naive_sumset

subsets_of_0_50 = st.sets(st.integers(0, 50), max_size=51)


class TestMakeSet:
    def test_conway(self, conway):
        assert len(conway) == 8
        assert conway.min == 0 and conway.max == 14

    def test_empty(self):
        assert len(make_set([])) == 0
        assert not make_set([])

    def test_dedup_and_sort(self):
        assert make_set([3, 1, 1, 2]).elements == (1, 2, 3)

    def test_overflow_guard(self):
        make_set([2**62 - 1])
        with pytest.raises(ValueError, match=rf"\|{2**62}\| exceeds the safe element bound"):
            make_set([2**62])
        with pytest.raises(ValueError, match=rf"\|{-(2**62)}\| exceeds the safe element bound"):
            make_set([-(2**62)])

    def test_strictness_enforced_on_raw_tuples(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            IntSet((3, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            IntSet((1, 1))


class TestSumDiff:
    def test_small_interval(self):
        assert sumset(make_set([0, 1, 2])) == interval(0, 4)
        assert diffset(make_set([0, 1, 2])) == interval(-2, 2)

    def test_empty(self):
        assert sumset(IntSet()) == IntSet()
        assert diffset(IntSet()) == IntSet()

    def test_singleton(self):
        assert diffset(make_set([5])).elements == (0,)
        assert sumset(make_set([5])).elements == (10,)

    def test_conway_cardinalities(self, conway):
        assert len(sumset(conway)) == 26
        assert len(diffset(conway)) == 25

    def test_negative_elements(self):
        A = make_set([-10, -3, 4])
        assert set(sumset(A)) == naive_sumset(A)
        assert set(diffset(A)) == naive_diffset(A)

    def test_sparse_wide_sets_take_the_hash_path(self):
        A = make_set([0, 5, 2**40, 2**40 + 1, 2**60])
        assert set(sumset(A)) == naive_sumset(A)
        assert set(diffset(A)) == naive_diffset(A)

    def test_sumset_result_is_bound_checked_too(self):
        # elements near the cap are constructible, but their sums are not
        with pytest.raises(ValueError, match="exceeds the safe element bound"):
            sumset(make_set([0, 2**62 - 1]))

    def test_diffset_result_is_bound_checked_too(self):
        with pytest.raises(ValueError, match=rf"\|{-(2**63 - 2)}\| exceeds the safe element bound"):
            diffset(make_set([-(2**62 - 1), 2**62 - 1]))

    def test_bitset_result_is_bound_checked_too(self):
        # diameter 1, so the bitset path: its sums pass the cap as well
        with pytest.raises(ValueError, match=rf"\|{2**63 - 4}\| exceeds the safe element bound"):
            sumset(make_set([2**62 - 2, 2**62 - 1]))


class TestAffine:
    def test_direct(self):
        assert affine(make_set([0, 1, 2]), 2, 1).elements == (1, 3, 5)

    def test_identity(self, conway):
        assert affine(conway, 1, 0) == conway

    def test_invariance_conway(self, conway):
        image = affine(conway, -3, 7)
        assert len(sumset(image)) == 26
        assert len(diffset(image)) == 25

    def test_zero_dilation(self, conway):
        with pytest.raises(ValueError, match="dilation factor must be nonzero"):
            affine(conway, 0, 5)

    def test_overflow(self, conway):
        with pytest.raises(ValueError, match="exceeds the safe element bound"):
            affine(conway, 2**61, 0)


class TestClassify:
    def test_conway_is_mstd(self, conway):
        assert classify(conway) is SetClass.MSTD

    def test_interval_balanced(self):
        assert classify(make_set([0, 1, 2])) is SetClass.BALANCED

    def test_mdts(self):
        # A+A = {0,1,2,3,4,6} (6 values), A-A = [-3,3] (7 values)
        assert classify(make_set([0, 1, 3])) is SetClass.MDTS

    def test_empty_balanced(self):
        assert classify(IntSet()) is SetClass.BALANCED


class TestProfile:
    def test_conway(self, conway):
        p = profile(conway)
        assert (p.card, p.sum_card, p.diff_card, p.diameter) == (8, 26, 25, 14)
        assert p.density == Fraction(8, 14)
        assert format_density(p.density) == "0.571"

    def test_singleton_diameter_zero(self):
        p = profile(make_set([0]))
        assert (p.card, p.sum_card, p.diff_card, p.diameter) == (1, 1, 1, 0)
        assert p.density is None
        assert format_density(p.density) == "N/A"

    def test_method2_first_member(self):
        A = make_set([-1, 0, 2, 3, 4, 7, 11, 12, 14, 15])
        p = profile(A)
        assert (p.card, p.sum_card, p.diff_card, p.diameter) == (10, 32, 31, 16)
        assert format_density(p.density) == "0.625"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="cannot profile the empty set"):
            profile(IntSet())


class TestResidueCount:
    def test_conway_sumset(self, conway):
        assert residue_count(sumset(conway), 17) == 17

    def test_conway_diffset(self, conway):
        assert residue_count(diffset(conway), 17) == 17

    def test_wraparound(self):
        assert residue_count(make_set([-1, 16]), 17) == 1

    def test_bad_modulus(self, conway):
        with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
            residue_count(conway, 0)


class TestFormat3dp:
    """format_density renders every rational to 3 decimal places, and None as N/A."""

    @pytest.mark.parametrize(
        "num, den, text",
        [
            (8, 14, "0.571"),
            (7, 16, "0.438"),  # ties round up
            (17, 16, "1.063"),
            (1, 2, "0.500"),
            (0, 1, "0.000"),
            (2, 1, "2.000"),
        ],
    )
    def test_values(self, num, den, text):
        assert format_density(Fraction(num, den)) == text

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="only nonnegative values"):
            format_density(Fraction(-1, 2))


class TestSetLiterals:
    def test_plain(self):
        assert parse_set_literal("-7,0,5,8,15").elements == (-7, 0, 5, 8, 15)

    def test_whitespace(self):
        assert parse_set_literal(" -7 , 0 ,5 ") == make_set([-7, 0, 5])

    def test_range_token(self):
        assert parse_set_literal("1..5") == interval(1, 5)
        assert parse_set_literal("0..3,7").elements == (0, 1, 2, 3, 7)
        assert parse_set_literal("-3..-1") == interval(-3, -1)

    def test_empty(self):
        assert parse_set_literal("") == IntSet()
        assert parse_set_literal("   ") == IntSet()

    @pytest.mark.parametrize(
        "bad, fault",
        [
            ("a", "bad set-literal token 'a'"),
            ("1,,2", "bad set-literal token ''"),
            ("1..", r"bad set-literal token '1\.\.'"),
            ("5..3", r"range '5\.\.3' needs its start <= end"),
            ("1;2", "bad set-literal token '1;2'"),
            ("1.5", r"bad set-literal token '1\.5'"),
        ],
        ids=["a", "1,,2", "1..", "5..3", "1;2", "1.5"],
    )
    def test_malformed(self, bad, fault):
        with pytest.raises(ValueError, match=fault):
            parse_set_literal(bad)

    def test_absurd_range_rejected(self):
        with pytest.raises(ValueError, match="spans more than"):
            parse_set_literal(f"0..{2**40}")

    def test_total_size_capped(self, monkeypatch):
        monkeypatch.setattr(intset_module, "_RANGE_LIMIT", 100)
        assert len(parse_set_literal("0..49,100..149")) == 100
        # Each range fits on its own; together they pass the cap.
        with pytest.raises(ValueError, match="holds more than 100 values"):
            parse_set_literal("0..49,100..150")
        # Every value counts, whatever the token order and before duplicates
        # are dropped; 101 tokens are refused by their commas, before any
        # token is read.
        singles = ",".join(map(str, range(100)))
        for literal in ["-2,-1,0..98", "5,0..99", "0..99,5", "0,0..99", singles + ",100",
                        singles + ",x"]:
            with pytest.raises(ValueError, match="holds more than 100 values"):
                parse_set_literal(literal)
        assert len(parse_set_literal("0..98,5")) == 99
        assert len(parse_set_literal(singles)) == 100

    def test_format_roundtrip(self, conway):
        assert parse_set_literal(format_set_literal(conway)) == conway
        assert format_set_literal(IntSet()) == ""

    @given(st.sets(st.integers(-1000, 1000), max_size=30))
    def test_roundtrip_property(self, values):
        A = make_set(values)
        assert parse_set_literal(format_set_literal(A)) == A


# 2049 elements spaced 2**25 apart: a cheap set that takes the hash path.
WIDE_2049 = IntSet(tuple(range(0, 2049 * 2**25, 2**25)))


class TestHashPathBudget:
    @pytest.mark.parametrize("fn", [sumset, diffset, profile, classify])
    def test_refuses_over_budget(self, fn):
        with pytest.raises(ValueError, match="2049"):
            fn(WIDE_2049)

    def test_budget_edge(self, monkeypatch):
        monkeypatch.setattr(intset_module, "_PAIR_LIMIT", 100)
        ten = IntSet(WIDE_2049.elements[:10])
        # An arithmetic progression: 19 sums and 19 differences.
        assert len(sumset(ten)) == len(diffset(ten)) == 19
        with pytest.raises(ValueError, match="limit of 100"):
            sumset(IntSet(WIDE_2049.elements[:11]))

    def test_bitset_path_unlimited(self):
        # A dense set of more than 2048 elements takes the bitset path.
        assert len(sumset(interval(0, 2999))) == 5999


class TestBitsetWorkBound:
    def test_edge(self, monkeypatch):
        # interval(0, 9) is 10 shifts of a 10-bit mask; without 5, [0, 10]
        # is 10 shifts of an 11-bit mask.
        monkeypatch.setattr(intset_module, "_BITSET_WORK_LIMIT", 100)
        assert len(sumset(interval(0, 9))) == len(diffset(interval(0, 9))) == 19
        fault = (
            r"\|A\| = 10 is too large for a set of diameter 10: "
            r"\|A\|\*\(diameter\+1\) exceeds the limit of 100"
        )
        for fn in (sumset, diffset, profile, classify):
            with pytest.raises(ValueError, match=fault):
                fn(interval(0, 10).without(5))

    def test_hash_path_not_bounded(self, monkeypatch):
        # 9 pairs against a diameter of 200: hashed, though 3 * 201 > 100.
        monkeypatch.setattr(intset_module, "_BITSET_WORK_LIMIT", 100)
        assert len(sumset(make_set([0, 1, 200]))) == 6

    def test_default_limit(self):
        # |A| = 10**5 at span 4 * 10**5 is admitted, [0, 399999] is not;
        # only the path rule runs, so nothing is packed.
        wide = IntSet(tuple(range(0, 4 * 10**5, 4)))
        assert not intset_module._takes_hash_path(wide)
        assert not intset_module._takes_hash_path(interval(0, 199999))
        with pytest.raises(ValueError, match="exceeds the limit of 68719476736"):
            intset_module._takes_hash_path(interval(0, 399999))


# A copy of IntSet's element-by-element check: the reference for its C-level pass.
def reference_check(elements):
    prev = None
    for v in elements:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"set elements must be ints, got {v!r}")
        if abs(v) > 2**62 - 1:
            raise ValueError(f"|{v}| exceeds the safe element bound 2**62-1")
        if prev is not None and v <= prev:
            raise ValueError("elements must be strictly increasing")
        prev = v


class Tagged(int):
    """An int subclass: IntSet accepts it like a plain int."""


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


BOUND_EDGES = [2**62 - 1, 2**62, 2**62 + 1, -(2**62 - 1), -(2**62), -(2**62) - 1]
raw_elements = st.one_of(
    st.integers(-50, 50),
    st.sampled_from(BOUND_EDGES),
    st.booleans(),
    st.floats(allow_nan=True),
    st.integers(-50, 50).map(Tagged),
)
strict_runs = st.lists(st.integers(-2**62 + 1, 2**62 - 1), unique=True).map(sorted)
raw_tuples = st.one_of(
    st.lists(raw_elements, max_size=12),
    strict_runs,
    strict_runs.map(lambda v: v[::-1]),
    strict_runs.filter(bool).map(lambda v: v + v[-1:]),
    # a valid run with one element swapped for an arbitrary value
    st.tuples(strict_runs.filter(bool), st.integers(0, 10**6), raw_elements).map(
        lambda t: t[0][: t[1] % len(t[0])] + [t[2]] + t[0][t[1] % len(t[0]) + 1 :]
    ),
    # a valid run of plain ints and int subclasses
    strict_runs.map(lambda v: [Tagged(x) if x % 2 else x for x in v]),
).map(tuple)


class TestValidation:
    @given(raw_tuples)
    @settings(max_examples=400)
    def test_same_verdict_as_the_reference_loop(self, t):
        want = _outcome(reference_check, t)
        assert _outcome(IntSet, t) == want
        if want is None:
            assert IntSet(t).elements is t

    @pytest.mark.parametrize(
        "t",
        [(1, True), (0.0,), (2, 1), (1, 1), (2**62,), (-(2**62), 0), (0, 2**62, 2**62 + 1),
         (Tagged(1), Tagged(2)), (1, Tagged(1)), (0, 5, 3, 2**62)],
    )
    def test_examples(self, t):
        assert _outcome(IntSet, t) == _outcome(reference_check, t)

    @pytest.mark.parametrize(
        "make_raw",
        [lambda: [1, 2, 3], lambda: (x for x in (1, 2)), lambda: range(3)],
        ids=["list", "generator", "range"],
    )
    def test_only_tuples_are_stored(self, make_raw):
        raw = make_raw()
        with pytest.raises(TypeError, match=f"got {type(raw).__name__}; use make_set"):
            IntSet(raw)
        assert make_set(make_raw()) == IntSet(tuple(make_raw()))

    def test_tuples_of_int_subclasses_are_stored(self):
        t = (Tagged(1), 2, Tagged(3))
        assert IntSet(t).elements is t
        assert IntSet(t) == IntSet((1, 2, 3))


def _counts(A):
    return len(sumset(A)), len(diffset(A))


def _naive_counts(A):
    return len(naive_sumset(A)), len(naive_diffset(A))


@st.composite
def near_the_switch(draw):
    """A set with |A|^2 one above or one below its diameter, at any base."""
    n = draw(st.integers(2, 40))
    diameter = n * n + draw(st.sampled_from([-1, 1]))
    inner = draw(st.sets(st.integers(1, diameter - 1), min_size=n - 2, max_size=n - 2))
    base = draw(st.integers(-(10**9), 10**9))
    return make_set(base + v for v in {0, diameter, *inner})


class TestKernelPaths:
    """sumset and diffset against the double loop, on both kernel paths."""

    @given(near_the_switch())
    def test_at_the_switch(self, A):
        assert intset_module._takes_hash_path(A) == (len(A) ** 2 < A.diameter)
        assert sumset(A).elements == tuple(sorted(naive_sumset(A)))
        assert diffset(A).elements == tuple(sorted(naive_diffset(A)))

    def test_path_rule(self, monkeypatch):
        # Three elements: 9 pairs against diameters 8, 9 and 10.
        assert not intset_module._takes_hash_path(make_set([0, 1, 8]))
        assert not intset_module._takes_hash_path(make_set([0, 1, 9]))
        assert intset_module._takes_hash_path(make_set([0, 1, 10]))
        # Below the span cut a set past the pair budget packs, never refuses.
        monkeypatch.setattr(intset_module, "_PAIR_LIMIT", 100)
        A = IntSet(tuple(range(0, 11 * 10**5, 10**5)))
        assert not intset_module._takes_hash_path(A)
        assert _counts(A) == _naive_counts(A) == (21, 21)

    @given(st.sets(st.integers(-(10**12), 10**12), min_size=1, max_size=40))
    def test_sparse_sets_with_negative_bases(self, values):
        A = make_set(values)
        assert sumset(A).elements == tuple(sorted(naive_sumset(A)))
        assert diffset(A).elements == tuple(sorted(naive_diffset(A)))

    @given(st.integers(-(2**61) + 1, 2**61 - 1))
    def test_singletons(self, v):
        assert sumset(make_set([v])).elements == (2 * v,)
        assert diffset(make_set([v])).elements == (0,)

    @given(st.integers(-(10**6), 10**6), st.sets(st.integers(0, 2199), max_size=200))
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dense_sets(self, base, holes):
        A = make_set(base + v for v in range(2200) if v not in holes)
        assert len(A) >= 2000
        assert _counts(A) == _naive_counts(A)

    def test_diameter_at_the_span_cut_hashes(self, monkeypatch):
        # The method-2 first member dilated to a diameter of exactly 2**24:
        # ten elements, so it hashes and never packs a 2**24-bit mask.
        A = affine(make_set([-1, 0, 2, 3, 4, 7, 11, 12, 14, 15]), 2**20, 0)
        assert A.diameter == 2**24

        def refuse(*args):
            raise AssertionError("packed a bitset")

        monkeypatch.setattr(intset_module, "_packed", refuse)
        p = profile(A)
        assert (p.sum_card, p.diff_card) == _naive_counts(A) == (32, 31)

    @given(st.lists(st.integers(0, 5000)), st.integers(-100, 0))
    def test_packed_matches_the_or_loop(self, values, base):
        bits = 0
        for v in values:
            bits |= 1 << (v - base)
        assert intset_module._packed(values, base) == bits


class TestProperties:
    @given(subsets_of_0_50)
    def test_oracle_equivalence(self, values):
        A = make_set(values)
        assert set(sumset(A)) == naive_sumset(values)
        assert set(diffset(A)) == naive_diffset(values)

    @given(
        subsets_of_0_50,
        st.integers(-5, 5).filter(lambda x: x != 0),
        st.integers(-100, 100),
    )
    def test_affine_invariance(self, values, x, y):
        A = make_set(values)
        B = affine(A, x, y)
        assert len(B) == len(A)
        assert len(sumset(B)) == len(sumset(A))
        assert len(diffset(B)) == len(diffset(A))

    @given(subsets_of_0_50.filter(bool))
    def test_diffset_symmetric_with_zero(self, values):
        A = make_set(values)
        D = diffset(A)
        assert 0 in D
        assert D == affine(D, -1, 0)

    @given(subsets_of_0_50.filter(bool), st.integers(-20, 120))
    def test_symmetric_sets_are_balanced(self, values, a_star):
        A = make_set(values).union(a_star - v for v in values)
        assert affine(A, -1, A.min + A.max) == A
        assert classify(A) is SetClass.BALANCED

    @given(st.integers(1, 80))
    def test_interval_identities(self, k):
        I = interval(1, k)
        assert sumset(I) == interval(2, 2 * k)
        assert diffset(I) == interval(1 - k, k - 1)

    @given(subsets_of_0_50.filter(bool))
    @settings(max_examples=60)
    def test_cardinality_bounds(self, values):
        A = make_set(values)
        n = len(A)
        s, d = len(sumset(A)), len(diffset(A))
        assert d % 2 == 1
        assert 2 * n - 1 <= s <= n * (n + 1) // 2
        assert 2 * n - 1 <= d <= n * (n - 1) + 1


# Run apart from the test session, whose imported classes must stay in place.
REIMPORT_SCRIPT = """
import gc, sys, weakref
import altchains
old = weakref.ref(altchains.intset.IntSet)
for name in [n for n in sys.modules if n.split(".")[0] == "altchains"]:
    del sys.modules[name]
import altchains
gc.collect()
sys.exit(0 if old() is None else 1)
"""


def test_reimport_frees_previous_package():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", REIMPORT_SCRIPT], env=env, timeout=60)
    assert result.returncode == 0, "a fresh import keeps the previous altchains alive"
