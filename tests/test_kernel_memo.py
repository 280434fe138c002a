"""The kernel's memo of the last set it was handed, against the double loop.

sumset and diffset keep, for the last set A they did not refuse, the operands
both of them start from and the results they returned.  These tests ask about
the same objects, equal copies, fed-back results and refused sets in any
order, patch the public names the way the benchmark injects its faults, and
bound what the memo keeps alive.
"""

import random
import sys
import threading
import tracemalloc
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altchains
import altchains.intset as intset_module
from altchains import (
    Chain,
    IntSet,
    MethodTag,
    SetClass,
    affine,
    classify,
    diffset,
    growth_table,
    interval,
    make_set,
    profile,
    sumset,
)
from conftest import naive_diffset, naive_sumset

def _class(s, d):
    return SetClass.MSTD if s > d else SetClass.MDTS if d > s else SetClass.BALANCED


def _truth(values):
    """The rising elements of a set, or of its sums and differences."""
    return tuple(sorted(values))


# Sets the kernel refuses whatever it was asked before: past the hash path's
# pair budget, past the bitset path's work limit, and one whose sums (not its
# differences) pass the element bound.
REFUSED = [
    IntSet(tuple(range(0, 2049 * 2**25, 2**25))),
    IntSet(tuple(range(0, 4 * 10**5, 1))),
    make_set([2**61 - 3, 2**61 + 4]),
]

sets = st.one_of(
    st.just(IntSet()),
    st.integers(-(2**61), 2**61).map(lambda v: make_set([v])),
    # Dense, on the bitset path.
    st.builds(lambda values, base: make_set(base + v for v in values),
              st.sets(st.integers(0, 60), min_size=1, max_size=40),
              st.integers(-(10**6), 10**6)),
    # Dilated: the bitset path at a common step.
    st.builds(lambda values, g, base: affine(make_set(values), g, base),
              st.sets(st.integers(0, 30), min_size=2, max_size=20),
              st.integers(2, 10**4), st.integers(-(10**6), 10**6)),
    # Sparse below the cut, and past the 2**24 cut: the hash path.
    st.sets(st.integers(-(10**12), 10**12), min_size=2, max_size=12).map(make_set),
    st.builds(lambda values, shift: make_set(2**25 * v + shift for v in values),
              st.sets(st.integers(0, 100), min_size=2, max_size=10),
              st.integers(-(2**30), 2**30)),
    st.sampled_from(REFUSED),
)

# (operation, which object, as itself or as an equal copy, read the elements)
steps = st.tuples(
    st.sampled_from(["sumset", "diffset", "profile", "classify"]),
    st.integers(0, 10**6),
    st.booleans(),
    st.booleans(),
)


class TestDifferential:
    @given(st.lists(sets, min_size=1, max_size=4), st.lists(steps, min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_any_order_of_calls(self, pool, calls):
        # Each object the calls may ask about, with its true elements; a result
        # joins them, pending, and may come back as an input.
        objects = [(A, _truth(A.elements)) for A in pool]
        refusals: dict[tuple, str] = {}
        for op, pick, copy, read in calls:
            A, want = objects[pick % len(objects)]
            if copy:
                A = IntSet(want)
            before = intset_module._last
            try:
                out = getattr(intset_module, op)(A)
            except ValueError as e:
                # Refused the same way each time, and nothing is kept.
                assert refusals.setdefault((op, want), str(e)) == str(e)
                assert intset_module._last is before
                continue
            assert (op, want) not in refusals
            if not want:
                if op in ("sumset", "diffset"):
                    assert out == IntSet()
                else:
                    assert out is SetClass.BALANCED
                continue
            sums, diffs = _truth(naive_sumset(want)), _truth(naive_diffset(want))
            if op == "profile":
                assert (out.card, out.sum_card, out.diff_card, out.diameter) == (
                    len(want), len(sums), len(diffs), want[-1] - want[0])
            elif op == "classify":
                assert out is _class(len(sums), len(diffs))
            else:
                exact = sums if op == "sumset" else diffs
                assert len(out) == len(exact)
                if read:
                    assert out.elements == exact
                if len(exact) <= 400:
                    objects.append((out, exact))

    def test_the_same_set_gets_the_same_result(self, conway):
        A = IntSet(conway.elements)
        S, D = sumset(A), diffset(A)
        assert sumset(A) is S and diffset(A) is D
        # An equal copy is another set: its results are made afresh.
        B = IntSet(conway.elements)
        assert sumset(B) is not S and sumset(B) == S
        # Another set between two calls replaces the memo.
        sumset(A)
        assert sumset(A) is not S and sumset(A) == S

    def test_a_hash_path_count_is_taken_once(self, monkeypatch):
        A = make_set([0, 3, 10**9, 10**12 + 7, 5 * 10**12])
        assert intset_module._takes_hash_path(A)
        rows = []
        pair_rows = intset_module._pair_rows
        monkeypatch.setattr(intset_module, "_pair_rows",
                            lambda el, diff: rows.append(diff) or pair_rows(el, diff))
        p = profile(A)
        assert classify(A) is p.set_class
        assert (p.sum_card, p.diff_card) == (len(naive_sumset(A)), len(naive_diffset(A)))
        assert rows == [False, True]

    def test_the_bitset_operands_are_made_once(self, monkeypatch):
        A = make_set(random.Random(3).sample(range(3000), 1000))
        made = []
        scaled = intset_module._scaled_offsets
        monkeypatch.setattr(intset_module, "_scaled_offsets",
                            lambda el: made.append(len(el)) or scaled(el))
        p = profile(A)
        assert classify(A) is p.set_class
        assert (p.sum_card, p.diff_card) == (len(naive_sumset(A)), len(naive_diffset(A)))
        assert made == [1000]


def _patch_everywhere(monkeypatch, name, make):
    """Replace `name` in every altchains namespace that binds it, as the
    benchmark's fault injection does."""
    original = getattr(altchains, name)
    faulty = make(original)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "altchains" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, faulty)


def _drop_last(original):
    def dropped(A):
        full = original(A)
        return IntSet(full.elements[:-1]) if len(full) > 1 else full
    return dropped


class TestInjectedFaults:
    """A patched sumset or diffset shows in every count, though the memo
    already holds the set's true answer."""

    @pytest.mark.parametrize("name", ["sumset", "diffset"])
    def test_a_dropped_result_shows(self, conway, monkeypatch, name):
        A = IntSet(conway.elements)
        B = A.union([20])
        true = profile(A)
        assert (true.sum_card, true.diff_card) == (26, 25)
        assert classify(A) is SetClass.MSTD
        _patch_everywhere(monkeypatch, name, _drop_last)
        p = profile(A)
        want = (25, 25) if name == "sumset" else (26, 24)
        assert (p.sum_card, p.diff_card) == want
        assert classify(A) is _class(*want)
        row = growth_table(Chain.from_sets([A, B], MethodTag.EXTERNAL))[0]
        assert (row.sum_card, row.diff_card) == want
        monkeypatch.undo()
        assert profile(A) == true


class TestFootprint:
    def test_the_memo_keeps_one_set(self):
        rng = random.Random(11)
        # Each byte below 85 keeps its value: about 10**4 elements of 3*10**4.
        keep = bytes(int(b < 85) for b in range(256))

        def analyse():
            flags = rng.randbytes(3 * 10**4).translate(keep)
            A = IntSet(tuple(compress(range(3 * 10**4), flags)))
            profile(A)
            classify(A)

        analyse()  # the memo, and anything made once, before the count starts
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            analyse()
            one = tracemalloc.get_traced_memory()[0] - base
            for _ in range(49):
                analyse()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # One set's elements, scaled offsets and masks, replaced each time.
        assert 0 <= held < one + 2**16
        assert held < 2**21


class TestThreads:
    def test_threads_get_correct_counts(self):
        # More threads than cores, switching often: a thread that took another
        # set's memo, or its results, would count the wrong set.
        rng = random.Random(7)
        dense = make_set(rng.sample(range(6000), 2000))
        wide = make_set(2**25 * v for v in rng.sample(range(10**4), 40))
        dilated = affine(interval(0, 300).without(150), 7, -(10**6))
        want = {id(A): (len(naive_sumset(A)), len(naive_diffset(A)))
                for A in (dense, wide, dilated)}
        faults, done = [], []

        def work(order):
            for _ in range(100):
                for A in order:
                    p = profile(A)
                    got = (len(sumset(A)), len(diffset(A)))
                    if (p.sum_card, p.diff_card) != want[id(A)] or got != want[id(A)]:
                        faults.append((id(A), got))
            done.append(order)

        orders = [(dense, wide, dilated), (dilated, dense, wide), (wide, dilated, dense),
                  (dense, dilated, wide)]
        interval_s = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(order,)) for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval_s)
        assert not any(t.is_alive() for t in threads)
        assert len(done) == len(orders) and faults == []
