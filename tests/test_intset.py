import copy
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
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

    def test_interval_bounded_as_a_range_token(self, monkeypatch):
        # interval follows the rule of an a..b token: hi - lo below the limit.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^interval \[0, 10000000000\] spans more than 16777216 values$"):
            interval(0, 10**10)
        assert time.perf_counter() - start < 1
        monkeypatch.setattr(intset_module, "_RANGE_LIMIT", 100)
        assert len(interval(-50, 49)) == 100 and interval(5, 4) == IntSet()
        with pytest.raises(ValueError, match=r"^interval \[-50, 50\] spans more than 100 values$"):
            interval(-50, 50)

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

    @given(st.lists(st.integers(0, 5000)), st.integers(-100, 0), st.integers(1, 20))
    def test_packed_matches_the_or_loop(self, values, base, width):
        bits = 0
        for v in values:
            bits |= 1 << width * (v - base)
        assert intset_module._packed(values, base, width) == bits

    @given(st.lists(st.integers(0, 5000), min_size=1), st.integers(-100, -1))
    def test_packed_takes_a_descending_iterator(self, values, base):
        # As chains._Masks packs a mirror: a map, falling, with duplicates.
        top = max(values)
        rising = sorted(values + values[:3])
        for b in (0, base):
            bits = 0
            for v in rising:
                bits |= 1 << (top - v - b)
            assert intset_module._packed(map(top.__sub__, rising), b) == bits


# Unions of short progressions, one per 2**25-wide slot: wide enough to hash,
# with many sums and differences that coincide.
progression_unions = st.lists(
    st.tuples(st.integers(0, 2**20), st.integers(1, 5), st.integers(1, 6)), min_size=2, max_size=6
).map(lambda blocks: make_set(
    slot * 2**25 + start + step * i
    for slot, (start, step, length) in enumerate(blocks) for i in range(length)))


class TestMergedHashPath:
    """The hash path's merged rows against the double loop; each set hashes."""

    def _hashed_exact(self, A):
        assert intset_module._takes_hash_path(A)
        _exact(A)

    def test_coinciding_sums(self):
        A = parse_set_literal("0..4,100000000..100000004,300000007")
        self._hashed_exact(A)
        assert (len(sumset(A)), len(diffset(A))) == (38, 47)

    @given(progression_unions, st.integers(-(10**12), 10**12))
    def test_progression_unions(self, A, shift):
        self._hashed_exact(affine(A, 1, shift))

    def test_one_and_two_values(self):
        # A singleton has diameter 0 and never hashes, so the merge itself
        # takes one value and no value.
        assert intset_module._merged([[7]]) == [7]
        assert intset_module._merged([[], []]) == []
        self._hashed_exact(make_set([-(2**40), 2**40]))

    def test_both_refused_past_the_element_bound(self):
        # Sums -2**62 and 2**62, and the difference 2**62.
        A = make_set([-(2**61), 2**61])
        assert intset_module._takes_hash_path(A)
        for kernel in (sumset, diffset):
            with pytest.raises(ValueError, match="exceeds the safe element bound"):
                kernel(A)

    def test_widest_pair_refused_with_its_message(self):
        A = make_set([-intset_module.SAFE_BOUND, intset_module.SAFE_BOUND])
        assert intset_module._takes_hash_path(A)
        fault = rf"^\|{-(2**63 - 2)}\| exceeds the safe element bound 2\*\*62-1$"
        for fn in (sumset, diffset, profile, classify):
            with pytest.raises(ValueError, match=fault):
                fn(A)

    @given(st.sets(st.integers(-intset_module.SAFE_BOUND, intset_module.SAFE_BOUND),
                   min_size=1, max_size=12))
    @example({-intset_module.SAFE_BOUND, intset_module.SAFE_BOUND})
    @example({-intset_module.SAFE_BOUND, -intset_module.SAFE_BOUND + 1, 0})
    def test_rows_at_any_element(self, values):
        # The rows hold every sum and difference of elements within the
        # bound, even those past it that the kernel then refuses.
        el = tuple(sorted(values))
        sums = [list(row) for row in intset_module._pair_rows(el, False)]
        diffs = [list(row) for row in intset_module._pair_rows(el, True)]
        assert sums == [[a + b for b in el[i:]] for i, a in enumerate(el)]
        assert diffs == [[b - a for b in el[i + 1 :]] for i, a in enumerate(el)]

    @given(st.integers(2**61 - 2**30, 2**61 + 2**30), st.sets(st.integers(1, 2**40), max_size=6),
           st.booleans())
    def test_near_the_element_bound(self, top, gaps, negate):
        # Sums near 2**62 in magnitude: beyond 2**62 - 1, _trusted refuses.
        A = make_set(top - g for g in {0, 2**25, *gaps})
        if negate:
            A = affine(A, -1, 0)
        assert intset_module._takes_hash_path(A)
        assert diffset(A).elements == tuple(sorted(naive_diffset(A)))
        want = tuple(sorted(naive_sumset(A)))
        if max(-want[0], want[-1]) > intset_module.SAFE_BOUND:
            with pytest.raises(ValueError, match="exceeds the safe element bound"):
                sumset(A)
        else:
            assert sumset(A).elements == want


def _checks(n, sums):
    """The shift counts k after which the bitset kernel may stop: 8, 16, 32, ...
    while shifts remain (k from each end for sums)."""
    k, out = 8, []
    while (2 * k < n) if sums else (k < n):
        out.append(k)
        k *= 2
    return out


def _window_at_check(offsets, k, sums):
    """The window (lo, hi) the check after k shifts reads, and the bits of it
    that those first shifts leave unset, found by the double loop."""
    n = len(offsets)
    if sums:
        outer = offsets[:k] + offsets[n - k :]
        found = {a + b for a in outer for b in offsets}
        lo, hi = 2 * offsets[k], 2 * offsets[n - 1 - k]
    else:
        found = {b - a for a in offsets[:k] for b in offsets if b >= a}
        lo, hi = 0, offsets[-1] - offsets[k]
    return lo, hi, set(range(lo, hi + 1)) - found


# Sets of 15 to 33 elements at the bitset kernel's checks.  "inside": the
# first k shifts leave exactly one bit of the window unset, at its edge, and
# a later shift sets it, so the kernel must not stop.  "outside": the window
# is full, so the kernel stops, and the value just past its edge is missing
# from the result.
STOP_CASES = [
    ("0..4,6..7,9,23..28,33", False, 8, "inside"),
    ("0..6,14,24..30", False, 8, "outside"),
    ("0..4,7,9..15,21,24,27", False, 8, "inside"),
    ("0..3,7..9,21,23,25..30,32", False, 8, "outside"),
    ("0,2..6,8,10,25,28..35", True, 8, "inside"),
    ("0..6,9..10,14,22,30..35", True, 8, "outside"),
    ("0..1,3,5..7,9,21..28,31,33", False, 8, "inside"),
    ("0,2,5..7,9..10,12,24,26,28..34", False, 8, "outside"),
    ("0,2,4,6,9,11,18,22,25,29,32,34,36,38,44,47,49", False, 16, "outside"),
    ("0..3,6..16,18..19,21,28,30,38,42,45,50,54,58..59,63,66..67,70", True, 8, "inside"),
    ("0,2,4,7,10,17,19,21,23,25,27,31,37,39..40,44,47,51..59,62..64,68,71", True, 8, "outside"),
    ("0..3,5..6,8..11,13,15..23,25..31,34..36,47", False, 8, "inside"),
    ("0,4,6,8,12,14..16,20,23..24,26,28,31..32,37..39,43,45..50,53,65..67,73,75", False, 8,
     "outside"),
    ("0,4..8,11,15,19..21,23,26,32..34,44..45,47..49,53,55,58,60,62,66,68..69,72,75", False, 16,
     "inside"),
    ("0..1,3..5,10,14..15,19,22,30..31,34..35,37,39,42,44..45,49,56,58,60,65,68,70,74..75,79,"
     "83,88", False, 16, "outside"),
    ("0..6,8..9,11,19..21,23,25..27,29,31,33..36,38..41,43..47", True, 8, "inside"),
    ("0,2,4,6,8..9,12,14..16,18..19,21..30,38,40,42,44..50", True, 8, "outside"),
    ("0..3,8,11..14,17,19..20,24,27..32,34..36,38,40,42,44..46,49,55..56,64", False, 8, "inside"),
    ("0..5,7..8,10,14..15,19,21..23,26,29..30,33,41..42,45..47,49..54,62,65", False, 8, "outside"),
    ("0..1,4,8..10,16,18..19,25..28,30..33,35..38,43..44,47..49,54,63..64,70,82,91", False, 16,
     "inside"),
    ("0,2..3,9,17,20..21,26,28..31,34,36..38,40,42..43,45..46,54..57,59,61,73,76,82,84,88",
     False, 16, "outside"),
    ("0..8,17..25,27..30,35..38,40,42..43,45..47,49", True, 8, "inside"),
    ("0..3,5..8,10,15,21..26,28..30,33,35..42,44,47..50", True, 8, "outside"),
    ("0..4,6,8,12,14..15,19..20,23..25,45..46,48..60,62..64", True, 16, "inside"),
    ("0..1,3,8,10,12..15,21,23..27,29,32,54,57..58,61,67,71,74..76,79,81..82,85,88,92,97", True,
     16, "outside"),
    ("0..5,7,10..13,15..18,20..28,32,34..37,45,47..48,50", False, 8, "inside"),
    ("0..5,10..11,13..16,22..27,29,33,36,39..44,47..48,51..52,59,65", False, 8, "outside"),
    ("0..2,7,10..11,14,16,20,22,27,35..36,38,40,51,55,58,64,66..67,71..74,76,82,84..88,98", False,
     16, "inside"),
    ("0,2,4,8..10,18,20,22..23,28..33,38..41,45,47,49,52..53,57..60,63,72,82..83", False, 16,
     "outside"),
    # No two elements adjacent, so 1 is no difference: the last check stops.
    (",".join(map(str, range(0, 64, 2))) + ",65", False, 32, "outside"),
]


def _stop_case_id(case):
    literal, sums, k, where = case
    return f"{'sums' if sums else 'diffs'}-{len(parse_set_literal(literal))}-k{k}-{where}"


def _exact(A):
    assert sumset(A).elements == tuple(sorted(naive_sumset(A)))
    assert diffset(A).elements == tuple(sorted(naive_diffset(A)))


# A dense set with holes: at least 150 of [0, 299], so |A|^2 > 50 * 299 and
# every dilation by g <= 50 takes the bitset path.
dense_with_holes = st.sets(st.integers(1, 298), max_size=150).map(
    lambda holes: IntSet(tuple(v for v in range(300) if v not in holes)))
# Translations: negative, and near +-2**61 so that sums pass the element bound.
translations = st.one_of(
    st.integers(-(10**9), -1),
    st.integers(2**61 - 20000, 2**61),
    st.integers(-(2**61) - 20000, -(2**61)),
)


class TestStoppingRules:
    """The bitset kernel's early stops and common step, against the double loop."""

    @pytest.mark.parametrize("case", STOP_CASES, ids=_stop_case_id)
    def test_at_each_check(self, case):
        literal, sums, k, where = case
        A = parse_set_literal(literal)
        assert A.min == 0 and gcd(*A.elements) == 1
        assert not intset_module._takes_hash_path(A)
        offsets = list(A.elements)
        # No earlier check stops the kernel.
        checks = _checks(len(A), sums)
        for j in checks[: checks.index(k)]:
            assert _window_at_check(offsets, j, sums)[2]
        lo, hi, unset = _window_at_check(offsets, k, sums)
        found = naive_sumset(A) if sums else naive_diffset(A)
        if where == "inside":
            assert unset in ({lo}, {hi}) and unset <= found
        else:
            assert not unset
            assert hi + 1 not in found or (sums and lo - 1 not in found)
        _exact(A)
        # The same case at a common step of 3 and a negative base.
        _exact(affine(A, 3, -(10**6)))

    def test_hole_in_the_middle(self):
        # 0..15 and 100..115 miss the sums 31..56 and 73..99.  The sums
        # window at k = 8 never fills; at k = 16 only 57+57 is left, and
        # 0+114 has set it.
        A = parse_set_literal("0..15,57,100..115")
        offsets = list(A.elements)
        assert [bool(_window_at_check(offsets, k, True)[2]) for k in (8, 16)] == [True, False]
        _exact(A)
        # The sums of 40..49 alone fill 80..98, so no check stops: all 42 shifts.
        B = parse_set_literal("0..15,40..49,100..115")
        offsets = list(B.elements)
        assert all(_window_at_check(offsets, k, True)[2] for k in _checks(len(B), True))
        _exact(B)

    @given(st.one_of(dense_with_holes, st.sampled_from(
        [parse_set_literal(case[0]) for case in STOP_CASES])), st.integers(2, 50), translations)
    @settings(max_examples=60, deadline=None)
    def test_common_step(self, S, g, c):
        A = affine(S, g, c)
        for kernel, naive in ((sumset, naive_sumset), (diffset, naive_diffset)):
            want = tuple(sorted(naive(A)))
            if max(-want[0], want[-1]) > intset_module.SAFE_BOUND:
                with pytest.raises(ValueError, match="exceeds the safe element bound"):
                    kernel(A)
            else:
                assert kernel(A).elements == want

    @given(st.integers(-(2**61) + 4, 2**61 - 4), st.integers(1, 4))
    # The top sum 2**62 passes the element bound; a fresh database may never draw it.
    @example(v=2**61 - 4, d=4)
    def test_two_elements(self, v, d):
        # Up to d = 4, |A|^2 is not below the diameter: the bitset path, at step d.
        A = make_set([v, v + d])
        assert not intset_module._takes_hash_path(A)
        if 2 * v + 2 * d > intset_module.SAFE_BOUND:
            with pytest.raises(ValueError, match="exceeds the safe element bound"):
                sumset(A)
        else:
            assert sumset(A).elements == (2 * v, 2 * v + d, 2 * v + 2 * d)
        assert diffset(A).elements == (-d, 0, d)

    @pytest.mark.parametrize(
        "make, counts",
        [
            (lambda: interval(0, 199999), (200000, 399999, 399999, 199999)),
            # Counts from the kernel that shifted once per element.
            (lambda: make_set(random.Random(19).sample(range(4 * 10**5), 10**5)),
             (100000, 799964, 799987, 399999)),
        ],
        ids=["interval", "random"],
    )
    def test_dense_sets_at_size(self, make, counts):
        # Both took 3.5 to 4.5 s with one shift per element on a 2-vCPU machine.
        A = make()
        start = time.perf_counter()
        p = profile(A)
        elapsed = time.perf_counter() - start
        assert (p.card, p.sum_card, p.diff_card, p.diameter) == counts
        assert elapsed < 1.5


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



# Sets for the pending-result tests.  Bitset path: up to 40 values of 0..60,
# dense enough to pack, at a common step g and any base, or near -+2**61, where the sums reach the
# element bound's edge.  Hash path: unions of short progressions, shifted; progressions dilated
# far apart, whose |A|(|A|+1)/2 pair sums take only 2|A| - 1 values; and values of both signs
# near -+(2**61 - 1), whose sums reach -+(2**62 - 2).
bitset_sets = st.builds(
    lambda values, g, base: make_set(base + g * v for v in values),
    st.sets(st.integers(0, 60), min_size=1, max_size=40),
    st.integers(1, 7),
    st.one_of(st.integers(-(10**6), 10**6), st.just(-(2**61) + 1),
              st.integers(2**61 - 10**4, 2**61 - 7 * 60 - 1)),
).filter(lambda A: not intset_module._takes_hash_path(A))
_EDGE = 2**61 - 1
hashed_sets = st.one_of(
    st.builds(lambda A, shift: affine(A, 1, shift),
              progression_unions, st.integers(-(10**12), 10**12)),
    st.builds(lambda length, step, shift: affine(interval(0, length - 1), step, shift),
              st.integers(2, 40), st.integers(2**25, 2**40), st.integers(-(10**15), 10**15)),
    st.builds(lambda low, high: make_set([*(g - _EDGE for g in low), *(_EDGE - g for g in high)]),
              st.sets(st.integers(0, 2**40), min_size=1, max_size=8),
              st.sets(st.integers(0, 2**40), min_size=1, max_size=8)),
)


def _is_pending(X):
    return type(X) is intset_module._Pending


class TestPendingResults:
    """A kernel result not yet unpacked behaves as the IntSet of the double
    loop's answer in every use; each use below starts from a fresh result."""

    def _like(self, kernel, naive, A):
        want = IntSet(tuple(sorted(naive(A))))
        # The kernel hands the same A the same result back, so each use asks
        # about an equal but distinct copy.
        fresh = lambda: kernel(IntSet(A.elements))  # noqa: E731
        assert _is_pending(fresh())
        # len and bool answer from the count and leave the result pending;
        # the elements read after them are the double loop's.
        X = fresh()
        assert len(X) == len(want) and bool(X)
        assert _is_pending(X)
        assert X.elements == want.elements and len(X) == len(want)
        assert list(fresh()) == list(want)
        assert fresh().elements == want.elements
        probes = {*want.elements[:3], *want.elements[-3:], want.min - 1, want.max + 1,
                  (want.min + want.max) // 2, (want.min + want.max) // 2 + 1}
        for v in probes:
            assert (v in fresh()) == (v in want)
        assert (fresh().min, fresh().max, fresh().diameter) == (want.min, want.max, want.diameter)
        mid = (want.min + want.max) // 2
        assert fresh().within(want.min, mid) == want.within(want.min, mid)
        assert fresh().without(want.max) == want.without(want.max)
        assert fresh().without(want.max + 1) == want
        assert fresh().union([want.max + 1]) == want.union([want.max + 1])
        assert fresh() == want and want == fresh() and fresh() == fresh()
        assert not (fresh() != want) and not (want != fresh())
        other = want.without(want.max)
        assert fresh() != other and other != fresh()
        assert hash(fresh()) == hash(want)
        assert repr(fresh()) == repr(want)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(fresh(), protocol)
            assert data == pickle.dumps(want, protocol)
            back = pickle.loads(data)
            assert type(back) is IntSet and back == want
        for copier in (copy.copy, copy.deepcopy):
            twin = copier(fresh())
            assert type(twin) is IntSet and twin == want
        # Once read, the result is a plain IntSet.
        X = fresh()
        X.elements
        assert type(X) is IntSet and X == want and len(X) == len(want)

    @given(bitset_sets)
    @settings(max_examples=40, deadline=None)
    def test_bitset_path(self, A):
        assert not intset_module._takes_hash_path(A)
        self._like(sumset, naive_sumset, A)
        self._like(diffset, naive_diffset, A)

    @given(hashed_sets)
    @settings(max_examples=60, deadline=None)
    def test_hash_path(self, A):
        assert intset_module._takes_hash_path(A)
        self._like(sumset, naive_sumset, A)
        self._like(diffset, naive_diffset, A)

    @pytest.mark.parametrize("v", [0, -5, 2**61 - 1, -(2**61) + 1])
    def test_singletons(self, v):
        A = make_set([v])
        self._like(sumset, naive_sumset, A)
        self._like(diffset, naive_diffset, A)
        assert diffset(A) == IntSet((0,)) and len(diffset(A)) == 1

    def test_conway_at_a_step_of_three(self, conway):
        A = affine(conway, 3, -7)
        assert len(sumset(A)) == 26 and len(diffset(A)) == 25
        self._like(sumset, naive_sumset, A)
        self._like(diffset, naive_diffset, A)

    def test_a_reader_between_the_two_stores_sees_the_tuple(self, conway):
        # The first read stores the tuple, then changes the class; a thread
        # that runs in between finds the tuple in the slot.
        X = sumset(IntSet(conway.elements))
        want = tuple(sorted(naive_sumset(conway)))
        intset_module._ELEMENTS.__set__(X, want)
        assert _is_pending(X)
        assert len(X) == 26 and X.elements == want and 29 not in X

    @pytest.mark.parametrize("values", [
        [2**61 - 1, 2**61, 2**61 + 1],  # bitset path
        [-(2**61) - 1, -(2**61), -(2**61) + 1],
        [2**61 - 2**40, 2**61],  # hash path
    ])
    def test_sum_past_the_bound_refused_at_the_call(self, values):
        # The message names the first sum past the bound, as the element
        # check does on the full tuple.
        A = make_set(values)
        with pytest.raises(ValueError) as want:
            intset_module._check_elements(sorted(naive_sumset(A)))
        with pytest.raises(ValueError) as got:
            sumset(A)
        assert str(got.value) == str(want.value)


def _unpacked_then_checked(A, diff):
    """The refusal the kernel once raised for a result past the element bound:
    every output made, on A's own path, then checked in rising order."""
    m = intset_module
    el = A.elements
    if m._takes_hash_path(A):
        if diff:
            outputs = m._mirrored(m._merged(m._pair_rows(el, True)))
        else:
            outputs = tuple(m._merged(m._pair_rows(el, False)))
    else:
        offsets, g = m._scaled_offsets(el)
        bits = m._packed(offsets, 0)
        if diff:
            outputs = m._mirrored(m._unpack(m._diff_mask(offsets, bits) >> 1, g, g))
        else:
            outputs = m._unpack(m._sum_mask(offsets, bits), 2 * el[0], g)
    m._check_elements(outputs)


# 2**61 + 2**61 = 2**62 is the first sum past the bound of a set around 2**61.
_NEAR_TOP = 2**61


class TestBoundRefusal:
    """A sum or difference past the element bound is refused with the message
    the full check of the outputs gives, without making them."""

    @pytest.mark.parametrize("A, diff, hashed", [
        # The CLI's literal 0..2046,4611686018427387000: 4194304 pairs.
        (make_set([*range(2047), 4611686018427387000]), False, True),
        (make_set([*range(-2046, 1), -4611686018427387000]), False, True),
        (affine(interval(-1500, 1500), 3, _NEAR_TOP), False, False),
        (affine(interval(-1500, 1500), 3, -_NEAR_TOP), False, False),
        (make_set([_NEAR_TOP - 2**40, *range(_NEAR_TOP - 10, _NEAR_TOP + 10)]), False, True),
        # A difference passes the bound only past the span cut, at -diameter.
        (make_set([-(2**62) + 1, *range(0, 2**40 * 2046, 2**40), 2**62 - 1]), True, True),
        (make_set([-(2**62) + 1, 2**62 - 1]), True, True),
    ])
    def test_message_as_after_unpacking(self, A, diff, hashed):
        assert intset_module._takes_hash_path(A) == hashed
        kernel = diffset if diff else sumset
        with pytest.raises(ValueError) as want:
            _unpacked_then_checked(A, diff)
        assert "exceeds the safe element bound 2**62-1" in str(want.value)
        for fn in (kernel, profile, classify):
            with pytest.raises(ValueError) as got:
                fn(A)
            assert str(got.value) == str(want.value)

    @given(st.sets(st.integers(-(2**20), 2**20), min_size=1, max_size=12),
           st.integers(1, 2**30), st.sampled_from([-1, 1]))
    @settings(max_examples=200, deadline=None)
    def test_least_sum_past_the_bound(self, offsets, step, sign):
        # Sets around +-2**61, on either path: the first sum past the bound
        # is wherever the offsets put it.
        A = make_set(sign * (_NEAR_TOP + step * v) for v in offsets)
        want = tuple(sorted(naive_sumset(A)))
        if want[0] >= -intset_module.SAFE_BOUND and want[-1] <= intset_module.SAFE_BOUND:
            assert sumset(A).elements == want
            return
        with pytest.raises(ValueError) as ref:
            intset_module._check_elements(want)
        with pytest.raises(ValueError) as got:
            sumset(A)
        assert str(got.value) == str(ref.value)

    def test_refused_without_making_the_sums(self):
        # Unpacking first took 0.44 s and 101 MB on a 2-vCPU machine.
        A = make_set([*range(2047), 4611686018427387000])
        assert intset_module._takes_hash_path(A)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"\|4611686018427387904\| exceeds"):
            sumset(A)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\|4611686018427387904\| exceeds"):
                profile(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 2**20


class TestCountsWithoutUnpacking:
    """profile and classify read only the counts: no element is created."""

    def _refuse(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(intset_module, name, refuse)

    @pytest.mark.parametrize("literal", [
        "0,2,3,4,7,11,12,14",
        "0..15,40..49,100..115",
        "-300..-200,0..2499,5000..7499",
    ])
    def test_bitset_path(self, literal, monkeypatch):
        A = parse_set_literal(literal)
        assert not intset_module._takes_hash_path(A)
        sums, diffs = _naive_counts(A)
        self._refuse(monkeypatch, "_unpack")
        assert classify(A) is profile(A).set_class
        p = profile(A)
        assert (p.sum_card, p.diff_card) == (sums, diffs)
        assert classify(affine(A, 5, 3)) is p.set_class

    @pytest.mark.parametrize("literal", [
        "0..4,100000000..100000004,300000007",
        "0,200000000,300000000,400000000,700000000,1100000000,1200000000,1400000000",
        "-700000000000000000,-500000000000000000,-400000000000000000,-300000000000000000,"
        "0,400000000000000000,500000000000000000,700000000000000000",
    ])
    def test_hash_path(self, literal, monkeypatch):
        A = parse_set_literal(literal)
        assert intset_module._takes_hash_path(A)
        sums, diffs = _naive_counts(A)
        self._refuse(monkeypatch, "_merged")
        p = profile(A)
        assert (p.card, p.sum_card, p.diff_card, p.diameter) == (len(A), sums, diffs, A.diameter)
        assert classify(A) is p.set_class

    def test_hash_path_at_size(self, monkeypatch):
        # A Sidon set (Erdos and Turan): its pair sums, and its positive
        # differences, are all distinct.
        A = make_set(2**20 * (2 * 1021 * i + i * i % 1021) for i in range(300))
        assert intset_module._takes_hash_path(A)
        self._refuse(monkeypatch, "_merged")
        p = profile(A)
        assert (p.sum_card, p.diff_card) == (300 * 301 // 2, 300 * 299 + 1)
        assert classify(A) is SetClass.MDTS

    def test_hash_path_at_the_pair_limit(self, monkeypatch):
        # |A| = 2048 is the largest set the hash path takes.  A Sidon set of
        # 2048 elements, diameter 2*2053*2047 below the span cut: counted
        # without a merge, every pair sum and positive difference distinct.
        A = make_set(2 * 2053 * k + k * k % 2053 for k in range(2048))
        assert len(A) ** 2 == intset_module._PAIR_LIMIT
        assert A.diameter < intset_module._BITSET_SPAN_LIMIT
        assert intset_module._takes_hash_path(A)
        self._refuse(monkeypatch, "_merged")
        p = profile(A)
        assert (p.sum_card, p.diff_card) == (2048 * 2049 // 2, 2048 * 2047 + 1) == (2098176, 4192257)
        assert classify(A) is SetClass.MDTS

    @pytest.mark.parametrize("count_first", [True, False])
    def test_hash_path_progression_at_the_pair_limit(self, count_first):
        # A 2048-term progression past the span cut: every sum and difference
        # repeats, and both read as their closed forms in either order.
        step = 2**25
        A = IntSet(tuple(i * step for i in range(2048)))
        assert intset_module._takes_hash_path(A) and A.diameter > intset_module._BITSET_SPAN_LIMIT
        S, D = sumset(A), diffset(A)
        if count_first:
            assert (len(S), len(D)) == (4095, 4095)
        assert S.elements == tuple(range(0, 4095 * step, step))
        assert D.elements == tuple(range(-2047 * step, 2048 * step, step))
        assert (len(S), len(D)) == (4095, 4095)

    def test_hash_path_diffset_mirror(self, monkeypatch):
        A = parse_set_literal("0..4,100000000..100000004,300000007")
        assert intset_module._takes_hash_path(A)
        self._refuse(monkeypatch, "_mirrored")
        p = profile(A)
        assert (p.sum_card, p.diff_card) == _naive_counts(A) == (38, 47)
        assert classify(A) is SetClass.MDTS


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
