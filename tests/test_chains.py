from fractions import Fraction

import pytest

import altchains.chains

from altchains import (
    Chain,
    MethodTag,
    SetClass,
    affine,
    generate_chain_m1,
    generate_chain_m2,
    generate_chain_m3,
    growth_rates,
    growth_table,
    limiting_density,
    make_set,
    profile,
    validate_chain,
)
from altchains.cli import paper_chain

from conftest import spot_check_no_fill


@pytest.fixture
def m1_chain(conway):
    return generate_chain_m1(conway, 17, 7)


class TestChainContainer:
    def test_from_sets_populates_profiles_and_classes(self, m1_chain):
        assert len(m1_chain) == 7
        assert m1_chain.method_tag is MethodTag.METHOD1
        assert m1_chain.profiles[0].set_class is SetClass.MSTD
        assert m1_chain.profiles[0].sum_card == 26

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Chain.from_sets((), MethodTag.EXTERNAL)

    def test_empty_member_rejected(self, conway):
        with pytest.raises(ValueError, match="cannot profile the empty set"):
            Chain.from_sets((conway, make_set([])), MethodTag.EXTERNAL)

    def test_set_at_is_one_based(self, m1_chain, conway):
        assert m1_chain.set_at(1) == conway
        with pytest.raises(IndexError):
            m1_chain.set_at(0)
        with pytest.raises(IndexError):
            m1_chain.set_at(8)


class TestRebuildWork:
    """Chain.from_sets adds up, before computing any, the kernel work of the
    members it rebuilds (the first, each that does not append, and all of
    them past the masks' cut of 2**24) and the mask work of each appended
    element.  A hash-path pair costs 2**10 bitset work units."""

    LIMIT_MESSAGE = "rebuilding the chain's members from the kernel exceeds the work limit of {}"

    def _refused(self, members, limit, monkeypatch):
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", limit)
        with pytest.raises(ValueError, match=self.LIMIT_MESSAGE.format(limit)):
            Chain.from_sets(members, MethodTag.EXTERNAL)

    def test_appended_elements_are_charged_per_element(self, conway, monkeypatch):
        # Conway's set costs 8 * 15 = 120.  The other members append 32
        # elements in all, each shifting masks of hull 0..82: 32 * 83 = 2656.
        chain = generate_chain_m1(conway, 17, 9)
        assert sum(map(len, chain.appends[1:])) == 32 and chain.sets[-1].diameter == 82
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", 120 + 2656)
        assert Chain.from_sets(chain.sets, MethodTag.METHOD1).profiles == chain.profiles
        self._refused(chain.sets, 120 + 2655, monkeypatch)

    def test_long_append_refused_before_any_mask_work(self, monkeypatch):
        # {0} costs 1; then 0..N-1 appends N-1 elements to a hull of N bits,
        # which took quadratic time uncharged.
        n = 200_000
        members = [make_set([0]), make_set(range(n))]

        def no_mask_work(*args):
            raise AssertionError("mask work before the refusal")

        monkeypatch.setattr(altchains.chains._Masks, "advance", no_mask_work)
        self._refused(members, 1 + (n - 1) * n - 1, monkeypatch)
        monkeypatch.undo()
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", 1 + 999 * 1000)
        small = Chain.from_sets([make_set([0]), make_set(range(1000))], MethodTag.EXTERNAL)
        assert small.profiles[-1].sum_card == 1999

    def test_each_member_that_does_not_append_is_charged(self, monkeypatch):
        # 0..9 costs 10 * 10; 0..9 without 5 costs 9 * 10.
        full, holed = make_set(range(10)), make_set(set(range(10)) - {5})
        members = [full, holed, full, holed]
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", 380)
        assert len(Chain.from_sets(members, MethodTag.EXTERNAL)) == 4
        self._refused(members, 379, monkeypatch)

    def test_every_member_is_charged_past_the_bitset_cut(self, conway, monkeypatch):
        # Dilated past 2**24, each member takes the hash path: |A|^2 pairs
        # apiece, at 2**10 each.
        wide = [affine(s, 2**22, 0) for s in generate_chain_m1(conway, 17, 3).sets]
        assert [len(s) for s in wide] == [8, 9, 16]
        work = (64 + 81 + 256) * 2**10
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", work)
        assert len(Chain.from_sets(wide, MethodTag.EXTERNAL)) == 3
        self._refused(wide, work - 1, monkeypatch)

    def test_a_member_the_kernel_refuses_keeps_its_own_message(self, monkeypatch):
        # The count stops at 1..399999, whose own refusal is raised as before,
        # though the member after it would pass the limit.
        members = [make_set(range(1000)), make_set(range(1, 400000)), make_set(range(1000))]
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", 10**6)
        with pytest.raises(ValueError, match=r"\|A\| = 399999 is too large"):
            Chain.from_sets(members, MethodTag.EXTERNAL)
        self._refused(members, 10**6 - 1, monkeypatch)

    def test_a_refused_member_is_refused_before_any_profile(self, conway, monkeypatch):
        def no_profile(*args):
            raise AssertionError("a member was profiled before the refusal")

        monkeypatch.setattr(altchains.chains._Masks, "advance", no_profile)
        monkeypatch.setattr(altchains.chains._Kernel, "advance", no_profile)
        members = [make_set(range(1000)), make_set(range(1, 400000))]
        with pytest.raises(ValueError, match=r"\|A\| = 399999 is too large for a set of diameter 399998"):
            Chain.from_sets(members, MethodTag.EXTERNAL)
        # Past the masks' cut every member is rebuilt.  The 801-step dilated
        # Conway chain passes the work limit on the hash path long before
        # member 512, whose 2049 elements pack and pass the bitset work
        # bound; past a higher chain limit the kernel refuses that member.
        dilated = affine(conway, 10**8, 0)
        with pytest.raises(ValueError, match=self.LIMIT_MESSAGE.format(2**36)):
            generate_chain_m1(dilated, 17 * 10**8, 801)
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", 2**60)
        fault = (r"^\|A\| = 2049 is too large for a set of diameter 435200000000: "
                 r"\|A\|\*\(diameter\+1\) exceeds the limit of 68719476736$")
        with pytest.raises(ValueError, match=fault):
            generate_chain_m1(dilated, 17 * 10**8, 801)

    def test_appends_after_a_refused_member_are_not_charged(self, monkeypatch):
        # 0..999 costs 10**6, at the limit.  The kernel refuses 1..399999 by
        # itself, so what the member after it appends is never reached.
        members = [make_set(range(1000)), make_set(range(1, 400000)), make_set(range(1, 400010))]
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", 10**6)
        with pytest.raises(ValueError, match=r"\|A\| = 399999 is too large"):
            Chain.from_sets(members, MethodTag.EXTERNAL)

    def test_a_member_past_the_element_bound_keeps_its_own_message(self, monkeypatch):
        # The sum 2**61 + 2**61 passes the element bound; the count stops there.
        members = [make_set([2**61 - 1, 2**61]), make_set(range(1000))]
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", 10)
        with pytest.raises(ValueError, match=r"\|4611686018427387904\| exceeds the safe"):
            Chain.from_sets(members, MethodTag.EXTERNAL)


class TestValidateChain:
    def test_clean_chain(self, m1_chain):
        report = validate_chain(m1_chain)
        assert report.ok
        assert report.failures == ()

    def test_filling_in_detected(self):
        chain = Chain.from_sets(
            (make_set([0, 2]), make_set([0, 1, 2])), MethodTag.EXTERNAL
        )
        report = validate_chain(chain)
        assert not report.ok
        assert (2, "no-filling-in", 1) in report.failures

    def test_single_mstd_set_ok(self, conway):
        report = validate_chain(Chain.from_sets((conway,), MethodTag.EXTERNAL))
        assert report.ok

    def test_alternation_failure_carries_cardinality_pair(self):
        chain = Chain.from_sets((make_set([0, 1, 2]),), MethodTag.EXTERNAL)
        report = validate_chain(chain)
        assert (1, "alternation", (5, 5)) in report.failures

    def test_non_superset_detected(self, conway):
        chain = Chain.from_sets(
            (conway, conway.union([17]).without(7)), MethodTag.EXTERNAL
        )
        report = validate_chain(chain)
        assert any(check == "strict-inclusion" for _, check, _ in report.failures)

    def test_equal_members_detected(self, conway):
        chain = Chain.from_sets((conway, conway), MethodTag.EXTERNAL)
        report = validate_chain(chain)
        assert (2, "strict-inclusion", None) in report.failures

    @pytest.mark.parametrize("n", [17, 18, 20])
    def test_generated_chains_validate_and_spot_check(self, conway, n):
        chain = generate_chain_m1(conway, n, 15)
        assert validate_chain(chain).ok
        assert spot_check_no_fill(chain, pairs=20, seed=n)


class TestGrowthTable:
    def test_method1_second_row(self, m1_chain):
        row = growth_table(m1_chain)[1]
        assert row.card_ratio == Fraction(9, 8)
        assert row.diam_ratio == Fraction(17, 14)
        assert row.density == Fraction(9, 17)

    def test_method3_fourth_row(self):
        row = growth_table(generate_chain_m3(9))[3]
        assert row.density == Fraction(26, 65)
        assert row.diam_ratio == Fraction(65, 64)

    def test_first_row_has_no_ratios(self, m1_chain):
        row = growth_table(m1_chain)[0]
        assert row.card_ratio is None and row.diam_ratio is None

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_rows_are_member_profiles(self, number):
        chain = paper_chain(number)
        for row in growth_table(chain):
            p = profile(chain.set_at(row.index))
            assert (row.card, row.sum_card, row.diff_card, row.diameter) == (
                p.card, p.sum_card, p.diff_card, p.diameter)
            assert row.density == p.density


class TestGrowthRates:
    def test_method1(self, m1_chain):
        assert growth_rates(m1_chain) == (Fraction(8), Fraction(17))

    def test_method2(self, conway_params):
        chain = generate_chain_m2(conway_params, 7)
        assert growth_rates(chain) == (Fraction(2), Fraction(8))

    def test_method3(self):
        assert growth_rates(generate_chain_m3(9)) == (Fraction(2), Fraction(5))

    @pytest.mark.parametrize("n", [17, 18, 20])
    def test_method1_rates_equal_base_card_and_modulus(self, conway, n):
        chain = generate_chain_m1(conway, n, 9)
        assert growth_rates(chain) == (Fraction(len(conway)), Fraction(n))

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_method1_rates_for_nine_element_base(self, n):
        base = make_set([0, 1, 2, 4, 5, 9, 12, 13, 14])
        chain = generate_chain_m1(base, n, 9)
        assert growth_rates(chain) == (Fraction(9), Fraction(n))

    def test_needs_three_mstd_members(self, conway):
        chain = generate_chain_m1(conway, 17, 3)
        with pytest.raises(ValueError):
            growth_rates(chain)


class TestLimitingDensity:
    def test_method1_probe(self, conway):
        chain = generate_chain_m1(conway, 17, 21)
        analytic, numeric = limiting_density(chain, 21)
        assert analytic == Fraction(8, 17)
        assert numeric == Fraction(88, 184)

    def test_external_has_no_analytic_limit(self, m1_chain):
        external = Chain.from_sets(m1_chain.sets, MethodTag.EXTERNAL)
        analytic, numeric = limiting_density(external, 7)
        assert analytic is None
        assert numeric == Fraction(32, 65)

    def test_probe_must_be_odd(self, m1_chain):
        with pytest.raises(ValueError):
            limiting_density(m1_chain, 4)

    def test_probe_must_be_in_range(self, m1_chain):
        with pytest.raises(ValueError):
            limiting_density(m1_chain, 9)

    def test_mstd_members_that_do_not_grow_are_refused(self, conway):
        # The MSTD members are all Conway's set, so their diameters do not
        # grow and the construction has no limit to extrapolate.
        mdts = make_set([-7, 0, 5, 8, 15])
        members = [conway, mdts, conway, mdts, conway]
        chain = Chain.from_sets(members, MethodTag.METHOD1)
        assert [p.set_class for p in chain.profiles] == [SetClass.MSTD, SetClass.MDTS] * 2 + [SetClass.MSTD]
        fault = "^no analytic limit: the chain's MSTD members do not grow in diameter$"
        for probe in (1, 3, 5):
            with pytest.raises(ValueError, match=fault):
                limiting_density(chain, probe)
        external = Chain.from_sets(members, MethodTag.EXTERNAL)
        assert limiting_density(external, 5) == (None, Fraction(8, 14))

    def test_diameter_zero_probe_rejected(self):
        chain = Chain.from_sets((make_set([5]),), MethodTag.EXTERNAL)
        with pytest.raises(ValueError, match="density undefined at a diameter-0 probe"):
            limiting_density(chain, 1)

    def test_convergence_is_monotone(self, conway):
        chain = generate_chain_m1(conway, 17, 31)
        gaps = []
        for probe in (11, 21, 31):
            analytic, numeric = limiting_density(chain, probe)
            gaps.append(abs(numeric - analytic))
        assert gaps[0] > gaps[1] > gaps[2]
