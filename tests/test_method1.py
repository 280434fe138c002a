import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import altchains.chains
import altchains.intset
import altchains.method1
from altchains import (
    CONWAY_SET,
    Chain,
    Method1Params,
    MethodTag,
    SetClass,
    affine,
    analyze_modulus,
    build_base,
    classify,
    generate_chain_m1,
    make_set,
    residue_count,
    search_moduli,
)

from conftest import naive_diffset, naive_sumset, valid_param_triples

# columns: sums, diffs, cardinality, diameter
TABLE_1 = [
    (26, 25, 8, 14),
    (30, 33, 9, 17),
    (60, 59, 16, 31),
    (64, 67, 17, 34),
    (94, 93, 24, 48),
    (98, 101, 25, 51),
    (128, 127, 32, 65),
]


class TestAnalyzeModulus:
    def test_conway_17(self, conway):
        p = analyze_modulus(conway, 17)
        assert (p.x, p.y) == (3, 4)
        assert (p.sum_residues, p.diff_residues) == (17, 17)
        assert p.cond1 and p.cond2
        assert p.valid

    def test_modulus_too_small(self, conway):
        with pytest.raises(ValueError, match=r"must exceed max\(base\) = 14, got 14"):
            analyze_modulus(conway, 14)

    def test_conway_19_fails_a_condition(self, conway):
        p = analyze_modulus(conway, 19)
        assert not (p.cond1 and p.cond2)
        assert not p.cond1  # 18 sum residues vs 17 diff residues

    def test_not_mstd(self):
        with pytest.raises(ValueError, match="sum-dominated"):
            analyze_modulus(make_set([0, 1, 2]), 10)

    def test_missing_zero(self, conway):
        with pytest.raises(ValueError, match="0 as its minimum"):
            analyze_modulus(affine(conway, 1, 1), 20)

    def test_negative_minimum_rejected(self, conway):
        with pytest.raises(ValueError, match="0 as its minimum"):
            analyze_modulus(affine(conway, 1, -2), 20)


class TestOneKernelPass:
    @pytest.fixture
    def sumset_calls(self, monkeypatch):
        calls = []
        for module in (altchains.method1, altchains.chains, altchains.intset):
            original = module.sumset
            def counted(A, original=original):
                calls.append(len(A))
                return original(A)
            monkeypatch.setattr(module, "sumset", counted)
        return calls

    def test_search_moduli(self, conway, sumset_calls):
        # One pass on A serves the MSTD check and all 14 candidates.
        assert search_moduli(conway) == [17, 18, 20]
        assert sumset_calls == [8]

    def test_analyze_modulus(self, conway, sumset_calls):
        analyze_modulus(conway, 17)
        assert sumset_calls == [8]

    def test_generate_chain(self, conway, sumset_calls):
        # The base's pass, then the chain seeding its first member.
        generate_chain_m1(conway, 17, 7)
        assert sumset_calls == [8, 8]

    def test_wide_base_is_merged_not_counted(self, monkeypatch):
        # On the hash path len() would count the pair sums through a set; the
        # base's sums and differences are read, so only their merge runs.
        def refuse(rows):
            raise AssertionError("a hash-path count ran")
        monkeypatch.setattr(altchains.intset, "_distinct", refuse)
        wide = affine(CONWAY_SET, 10**8, 0)
        assert search_moduli(wide) == [17 * 10**8, 18 * 10**8, 20 * 10**8]
        assert analyze_modulus(wide, 17 * 10**8).valid

    def test_wide_chain_counts_only_its_members(self, monkeypatch):
        # The chain's profiles count each member; the base adds no count.
        counts = []
        original = altchains.intset._distinct
        def counted(rows):
            counts.append(1)
            return original(rows)
        monkeypatch.setattr(altchains.intset, "_distinct", counted)
        chain = generate_chain_m1(affine(CONWAY_SET, 10**8, 0), 17 * 10**8, 3)
        built = len(counts)
        counts.clear()
        Chain.from_sets(chain.sets, MethodTag.METHOD1)
        assert built == len(counts) > 0

    def test_error_order(self):
        # A missing zero before a base that is not MSTD, before a small modulus.
        with pytest.raises(ValueError, match="0 as its minimum"):
            analyze_modulus(make_set([1, 2, 3]), 1)
        with pytest.raises(ValueError, match="sum-dominated"):
            analyze_modulus(make_set([0, 1, 2]), 1)
        with pytest.raises(ValueError, match="0 as its minimum"):
            search_moduli(make_set([1, 2, 3]))
        with pytest.raises(ValueError, match="sum-dominated"):
            search_moduli(make_set([0, 1, 2]))

    @pytest.mark.parametrize(
        "values", [(0, 2, 3, 4, 7, 11, 12, 14), (0, 1, 2, 4, 5, 9, 12, 13, 14)]
    )
    def test_params_match_naive(self, values):
        A = make_set(values)
        sums, diffs = naive_sumset(A), naive_diffset(A)
        for n in range(A.max + 1, 2 * A.max + 1):
            p = analyze_modulus(A, n)
            x = sum(1 for a in A if n + a not in sums)
            y = sum(1 for b in A if n - b not in diffs)
            want = (x, y, residue_count(make_set(sums), n), residue_count(make_set(diffs), n))
            assert (p.x, p.y, p.sum_residues, p.diff_residues) == want
            assert p.cond1 == (want[2] == want[3])
            assert p.cond2 == (2 * y - x - 1 > len(sums) - len(diffs))


def range_loop_moduli(A):
    """The modulus search as it was before it took its candidates from S-S:
    one evaluation for every n in (max A, 2 max A]."""
    sums, diffs = altchains.method1._base_counts(A)
    evaluate = altchains.method1._evaluate
    candidates = range(A.max + 1, 2 * A.max + 1)
    return [n for n in candidates if evaluate(A, n, sums, diffs).valid]


def window_params(A):
    """(n, Method1Params) for each n in (max A, 2 max A], built from the four
    counts the products give; they take the window's every modulus at once."""
    sums, diffs = altchains.method1._base_counts(A)
    counts = altchains.method1._window_counts(A, sums, diffs)
    gap = len(sums) - len(diffs)
    for n, (hits_s, hits_d, pairs_s, pairs_d) in enumerate(zip(*counts), A.max + 1):
        x, y = len(A) - hits_s, len(A) - hits_d
        rs, rd = len(sums) - pairs_s, len(diffs) - pairs_d
        yield n, Method1Params(x, y, rs, rd, rs == rd, 2 * y - x - 1 > gap)


@st.composite
def mstd_bases(draw):
    """MSTD sets with min 0: a Nathanson base, dilated, plus a few inner elements."""
    params = draw(st.sampled_from([(4, 1, 3), (4, 3, 4), (8, 2, 3), (8, 6, 5), (12, 9, 4)]))
    A = affine(build_base(*params).A, draw(st.integers(1, 4)), 0)
    A = A.union(draw(st.sets(st.integers(1, A.max - 1), max_size=4)))
    assume(classify(A) is SetClass.MSTD)
    return A


class TestSearchModuli:
    def test_conway(self, conway):
        assert search_moduli(conway) == [17, 18, 20]

    def test_matches_range_loop_on_every_base(self):
        bases = [CONWAY_SET] + [build_base(*p).A for p in valid_param_triples(16, 6)]
        for A in bases:
            assert search_moduli(A) == range_loop_moduli(A), A

    @given(mstd_bases())
    @settings(max_examples=60, deadline=None)
    def test_matches_range_loop(self, A):
        assert search_moduli(A) == range_loop_moduli(A)

    def test_dilated_conway_answers_at_once(self):
        # 1.4 * 10**9 moduli lie in (max A, 2 max A]; only S-S is tried.
        began = time.perf_counter()
        moduli = search_moduli(affine(CONWAY_SET, 10**8, 0))
        assert moduli == [17 * 10**8, 18 * 10**8, 20 * 10**8]
        assert time.perf_counter() - began < 1

    def test_sumset_refusal_names_the_sumset(self, monkeypatch):
        # The Conway set packs in 8 * 15 = 120 and its sums in 26 * 29 = 754.
        monkeypatch.setattr(altchains.intset, "_BITSET_WORK_LIMIT", 200)
        fault = r"^\|A\+A\| = 26 is too large for a set of diameter 28: \|A\+A\|\*"
        with pytest.raises(ValueError, match=fault):
            search_moduli(CONWAY_SET)

    def test_window_counts_give_evaluate_on_every_base(self):
        bases = [CONWAY_SET, make_set([0, 1, 2, 4, 5, 9, 12, 13, 14])]
        bases += [build_base(*p).A for p in valid_param_triples(16, 6)]
        for A in bases:
            sums, diffs = altchains.method1._base_counts(A)
            got = list(window_params(A))
            assert [n for n, _ in got] == list(range(A.max + 1, 2 * A.max + 1))
            for n, params in got:
                assert params == altchains.method1._evaluate(A, n, sums, diffs), (A, n)

    def test_counts_past_a_byte(self):
        # A slot of 8 bits would carry here: 200 elements of A reach A+A at once.
        A = build_base(100, 25, 4).A
        sums, diffs = altchains.method1._base_counts(A)
        assert max(map(max, altchains.method1._window_counts(A, sums, diffs))) > 255
        for n, params in window_params(A):
            assert params == altchains.method1._evaluate(A, n, sums, diffs), n

    @pytest.mark.parametrize("m", [100, 200])
    def test_products_match_range_loop(self, m, monkeypatch):
        # diffset runs once, on A: the products replace diffset(A+A) and the loop.
        calls = []
        original = altchains.method1.diffset
        monkeypatch.setattr(altchains.method1, "diffset", lambda A: calls.append(A) or original(A))
        A = build_base(m, m // 4, 4).A
        moduli = search_moduli(A)
        assert calls == [A]
        assert moduli == range_loop_moduli(A)

    def test_quadratic_search_answers_at_once(self):
        # Every n in (1800, 3600] took one pass over A, A+A and A-A: 2.7 s.
        began = time.perf_counter()
        moduli = search_moduli(build_base(400, 100, 4).A)
        assert len(moduli) == 997
        assert time.perf_counter() - began < 0.5

    def test_too_wide_for_the_products_takes_the_loop(self, monkeypatch):
        monkeypatch.setattr(altchains.method1, "_PRODUCT_BIT_LIMIT", 0)
        for A in (CONWAY_SET, build_base(20, 8, 6).A):
            assert altchains.method1._window_counts(A, *altchains.method1._base_counts(A)) is None
            assert search_moduli(A) == range_loop_moduli(A)

    def test_loop_work_refused_before_it_starts(self, monkeypatch):
        # 13 moduli of S-S in (14, 28], each a pass over 26 sums, 25
        # differences and twice the 8 elements: 13 * 67 = 871 steps.
        def refuse(*args):
            raise AssertionError("a modulus was evaluated")
        monkeypatch.setattr(altchains.method1, "_PRODUCT_BIT_LIMIT", 0)
        monkeypatch.setattr(altchains.method1, "_evaluate", refuse)
        monkeypatch.setattr(altchains.method1, "_SEARCH_WORK_LIMIT", 870)
        fault = (
            r"^searching 13 moduli over \|A\+A\| = 26 and \|A-A\| = 25 takes 871 steps, "
            r"past the limit of 870$"
        )
        with pytest.raises(ValueError, match=fault):
            search_moduli(CONWAY_SET)

    def test_range_is_capped_at_twice_max(self, conway):
        assert all(n <= 2 * conway.max for n in search_moduli(conway))

    def test_nine_element_base_fixture(self):
        # frozen from a brute-force run of both conditions over (14, 28]
        base = make_set([0, 1, 2, 4, 5, 9, 12, 13, 14])
        assert search_moduli(base) == [17, 18, 19, 20]


class TestGenerateChain:
    def test_table_values(self, conway):
        chain = generate_chain_m1(conway, 17, 7)
        got = [(p.sum_card, p.diff_card, p.card, p.diameter) for p in chain.profiles]
        assert got == TABLE_1

    def test_single_step(self, conway):
        chain = generate_chain_m1(conway, 17, 1)
        assert chain.sets == (conway,)

    def test_even_step_count(self, conway):
        chain = generate_chain_m1(conway, 17, 4)
        assert len(chain) == 4

    def test_alternation_with_n18(self, conway):
        chain = generate_chain_m1(conway, 18, 5)
        want = [SetClass.MSTD, SetClass.MDTS] * 2 + [SetClass.MSTD]
        assert [p.set_class for p in chain.profiles] == want

    def test_invalid_modulus_rejected(self, conway):
        with pytest.raises(ValueError, match="n=19: sumset has 18 residues mod n but diffset has 17"):
            generate_chain_m1(conway, 19, 5)
        with pytest.raises(ValueError, match="n=16: 2y-x-1 = 0 does not exceed the sum-difference gap"):
            generate_chain_m1(conway, 16, 5)

    def test_bad_steps(self, conway):
        with pytest.raises(ValueError):
            generate_chain_m1(conway, 17, 0)

    def test_structure(self, conway):
        chain = generate_chain_m1(conway, 17, 5)
        a1, a2, a3, a4, a5 = chain.sets
        assert a2 == a1.union([17])
        assert a3 == a1.union(a + 17 for a in a1)
        assert a4 == a3.union([34])
        assert a5 == a3.union(a + 34 for a in conway)


def per_index_counts(A, n, steps):
    """|A_i + A_i| and |A_i - A_i| for i = 1..steps in the chain of (A, n), by
    analyze_modulus's closed form, from the base's double-loop counts."""
    p = analyze_modulus(A, n)
    sums, diffs = len(naive_sumset(A)), len(naive_diffset(A))
    counts = []
    for i in range(1, steps + 1):
        if i % 2:
            counts.append((i * p.sum_residues + sums - p.sum_residues,
                           i * p.diff_residues + diffs - p.diff_residues))
        else:
            counts.append((counts[-1][0] + p.x + 1, counts[-1][1] + 2 * p.y))
    return counts


# The Conway set and the 28 bases build_base(m, d, k) with m in {4, 8, 12, 16},
# d in {m/4, 3m/4} and k from its least value to 6.
PER_INDEX_BASES = [CONWAY_SET] + [
    build_base(m, d, k).A
    for m in (4, 8, 12, 16)
    for d in (m // 4, 3 * m // 4)
    for k in range(3 if 2 * d < m else 4, 7)
]


class TestChainIdentities:
    def test_per_index_counts_on_every_admitted_modulus(self):
        assert len(PER_INDEX_BASES) == 29
        members = 0
        for A in PER_INDEX_BASES:
            for n in search_moduli(A):
                chain = generate_chain_m1(A, n, 41)
                got = [(p.sum_card, p.diff_card) for p in chain.profiles]
                assert got == per_index_counts(A, n, 41), (A, n)
                members += len(chain)
        assert members == 28372  # 692 admitted (base, n) pairs

    def test_per_index_counts_hold_for_every_modulus(self, conway):
        # Admissible or not: each n in (14, 42] copies the base around n.
        for n in range(conway.max + 1, 3 * conway.max + 1):
            members = [conway]
            for l in range(1, 11):
                members.append(members[-1].union([l * n]))
                members.append(members[-2].union(a + l * n for a in conway))
            chain = Chain.from_sets(members, MethodTag.EXTERNAL)
            got = [(p.sum_card, p.diff_card) for p in chain.profiles]
            assert got == per_index_counts(conway, n, 21), n

    @pytest.mark.parametrize("n", [17, 18, 20])
    def test_step_increments(self, conway, n):
        params = analyze_modulus(conway, n)
        chain = generate_chain_m1(conway, n, 20)
        profiles = chain.profiles
        base_gap = profiles[0].sum_card - profiles[0].diff_card
        for i in range(1, len(profiles)):
            cur, prev = profiles[i], profiles[i - 1]
            if (i + 1) % 2 == 0:  # even 1-based position: one element appended
                assert cur.sum_card == prev.sum_card + params.x + 1
                assert cur.diff_card == prev.diff_card + 2 * params.y
            else:  # odd position: a full copy of the base appended
                assert cur.sum_card - cur.diff_card == base_gap

    def test_growth_between_mstd_members(self, conway):
        chain = generate_chain_m1(conway, 17, 9)
        odd = [chain.profiles[i] for i in range(0, 9, 2)]
        for a, b in zip(odd, odd[1:]):
            assert b.card - a.card == len(conway)
            assert b.diameter - a.diameter == 17
