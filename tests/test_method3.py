import time

import pytest

import altchains.method3
from altchains import (
    SetClass,
    affine,
    delta_counts,
    generate_chain_m3,
    phase1_set,
    set_m3,
    sumset,
)
from conftest import naive_diffset, naive_sumset

# columns: sums, diffs, cardinality, diameter
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


def roster_phase1(k: int) -> list[int]:
    """Independent oracle: the phase-1 member written out block by block."""
    low = [5 * j + d for j in range(-k - 5, -2) for d in (1, 2)]  # -5k-24 .. -13
    high = [5 * j + d for j in range(4, k + 7) for d in (1, 2)]  # 21 .. 5k+32
    mid = [-8, -7, -4, -3, 0, 5, 8, 11, 12, 15, 16]
    return sorted(low + high + mid)


class TestIndexing:
    @pytest.mark.parametrize(
        "i, k, phase",
        [(1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 4), (5, 1, 1), (104, 25, 4)],
    )
    def test_decomposition(self, i, k, phase):
        # Phase p of block k adds p-1 elements to the block's phase-1 member.
        A, base = set(set_m3(i)), set(phase1_set(k))
        assert base <= A and len(A - base) == phase - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_m3(0)


class TestClosedForm:
    def test_first_member(self):
        A = set_m3(1)
        assert len(A) == 23
        assert (A.min, A.max, A.diameter) == (-24, 32, 56)

    def test_second_member(self):
        assert set_m3(2) == set_m3(1).union([36])

    def test_block_boundary(self):
        prev, cur = set_m3(4), set_m3(5)
        assert set(prev) < set(cur)
        assert set(cur) - set(prev) == {-29}
        assert (len(prev), len(cur)) == (26, 27)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_roster_oracle_agrees(self, k):
        assert list(phase1_set(k)) == roster_phase1(k)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_phase3_appends_symmetric_pair(self, k):
        assert set_m3(4 * k + 3) == set_m3(4 * k + 1).union([-5 * k - 28, 5 * k + 36])


class TestChain:
    def test_table_values(self):
        chain = generate_chain_m3(9)
        got = [(p.sum_card, p.diff_card, p.card, p.diameter) for p in chain.profiles]
        assert got == TABLE_3

    def test_single_step(self):
        chain = generate_chain_m3(1)
        assert [p.set_class for p in chain.profiles] == [SetClass.MSTD]

    def test_cards_step_by_one(self):
        chain = generate_chain_m3(9)
        assert [p.card for p in chain.profiles] == list(range(23, 32))

    def test_inclusion_through_blocks(self):
        sets = [set_m3(i) for i in range(1, 22)]
        for a, b in zip(sets, sets[1:]):
            assert set(a) < set(b)

    def test_parity_of_gap(self):
        chain = generate_chain_m3(12)
        for i, p in enumerate(chain.profiles, start=1):
            if i % 2:
                assert p.sum_card == p.diff_card + 1
            else:
                assert p.diff_card == p.sum_card + 1

    def test_diameter_growth_alternates(self):
        chain = generate_chain_m3(13)
        odd_diams = [chain.profiles[i].diameter for i in range(0, 13, 2)]
        deltas = [b - a for a, b in zip(odd_diams, odd_diams[1:])]
        assert deltas == [8, 2, 8, 2, 8, 2]
        assert sum(deltas) / len(deltas) == 5


class TestDeltaCounts:
    @pytest.mark.parametrize("i", [2, 4, 6, 8, 10, 102, 104])
    def test_four_sums_six_diffs(self, i):
        assert delta_counts(i) == (4, 6)

    def test_counts_gained_are_the_new_elements(self):
        # Each member contains the one before, so the counts' gain is the
        # number of sums and differences it adds.
        for i in (j for j in range(2, 61) if (j - 1) % 4 in (1, 3)):
            cur, prev = set_m3(i), set_m3(i - 1)
            new_sums = len(naive_sumset(cur) - naive_sumset(prev))
            new_diffs = len(naive_diffset(cur) - naive_diffset(prev))
            assert delta_counts(i) == (new_sums, new_diffs), i

    @pytest.mark.parametrize("i", [1, 3, 5, 7])
    def test_unsupported_phases(self, i):
        phase = (i - 1) % 4 + 1
        with pytest.raises(ValueError, match=f"phases 2 and 4; index {i} is phase {phase}"):
            delta_counts(i)


class TestCoreSymmetry:
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("phase", [1, 3])
    def test_core_symmetric_about_8(self, k, phase):
        A = set_m3(4 * k + phase)
        B = A.without(5)
        assert affine(B, -1, 8) == B

    def test_ten_is_the_fresh_sum_through_k25(self):
        for k in range(26):
            for phase in (1, 3):
                A = set_m3(4 * k + phase)
                B = A.without(5)
                assert 10 not in sumset(B), (k, phase)
                assert 10 in sumset(A), (k, phase)

    def test_core_misses_the_ten_makers(self):
        B = set_m3(1).without(5)
        assert all(v not in B for v in (-5, 2, 10, 17))


class TestSizeRefusal:
    """A block whose members could hold more than _RANGE_LIMIT elements is
    refused before any element is made."""

    @pytest.mark.parametrize("build", [
        lambda: phase1_set(2 * 10**8),
        lambda: set_m3(10**9),
        lambda: delta_counts(10**9),
        lambda: set_m3(10**30 + 2),
    ])
    def test_refused_at_once(self, build):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"holds members of more than 16777216 elements$"):
            build()
        assert time.perf_counter() - start < 1

    def test_largest_member_at_the_limit(self, monkeypatch):
        # Block 1's members hold 27..30 elements, block 2's 31..34.
        monkeypatch.setattr(altchains.method3, "_RANGE_LIMIT", 30)
        assert [len(set_m3(i)) for i in range(5, 9)] == [27, 28, 29, 30]
        assert delta_counts(8) == (4, 6)
        for i in (9, 12):
            with pytest.raises(ValueError, match="^block 2 holds members of more than 30 elements$"):
                set_m3(i)
