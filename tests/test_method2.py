import pytest

import altchains.method2
from altchains import (
    Chain,
    MethodTag,
    SetClass,
    affine,
    build_base,
    generate_chain_m2,
    make_set,
    verify_star_identities,
)

# columns: sums, diffs, cardinality, diameter
TABLE_2 = [
    (32, 31, 10, 16),
    (36, 37, 11, 20),
    (40, 39, 12, 24),
    (44, 45, 13, 28),
    (48, 47, 14, 32),
    (52, 53, 15, 36),
    (56, 55, 16, 40),
]

# frozen from a brute-force run over the (m=8, d=2, k=3) chain
FIXTURE_8_2_3 = [
    (62, 61, 18, 32),
    (70, 75, 19, 40),
    (78, 77, 20, 48),
    (86, 91, 21, 56),
    (94, 93, 22, 64),
]


class TestBuildA1:
    def test_conway_params(self, conway_params):
        a1 = generate_chain_m2(conway_params, 1).set_at(1)
        assert a1 == make_set([-1, 0, 2, 3, 4, 7, 11, 12, 14, 15])

    def test_m_not_divisible_by_4(self):
        with pytest.raises(ValueError, match="m must be divisible by 4, got 6"):
            generate_chain_m2(build_base(6, 1, 3), 1)

    def test_d_outside_quarters(self):
        with pytest.raises(ValueError, match="d must be m/4 or 3m/4, got d=1 for m=8"):
            generate_chain_m2(build_base(8, 1, 3), 1)

    def test_self_check(self, conway_params, monkeypatch):
        # Only the low fringe -d attached: 29 sums and 29 differences.  (The
        # bare base would pass: every base has one more sum than differences.)
        monkeypatch.setattr(altchains.method2, "_first_member", lambda p: p.A.union([-p.d]))
        fault = r"first member for \(m=4, d=1, k=3\) has 29 sums vs 29 differences"
        with pytest.raises(RuntimeError, match=fault):
            generate_chain_m2(conway_params, 3)


class TestGenerateChain:
    def test_table_values(self, conway_params):
        chain = generate_chain_m2(conway_params, 7)
        got = [(p.sum_card, p.diff_card, p.card, p.diameter) for p in chain.profiles]
        assert got == TABLE_2

    def test_first_appends(self, conway_params):
        chain = generate_chain_m2(conway_params, 3)
        a1, a2, a3 = chain.sets
        assert a2 == a1.union([19])
        assert a3 == a2.union([-5])

    def test_append_schedule(self, conway_params):
        appends = generate_chain_m2(conway_params, 7).appends
        assert appends == (None, (19,), (-5,), (23,), (-9,), (27,), (-13,))

    def test_cardinality_grows_by_one(self, conway_params):
        chain = generate_chain_m2(conway_params, 12)
        cards = [p.card for p in chain.profiles]
        assert cards == list(range(10, 22))

    def test_m8_d2_fixture(self):
        chain = generate_chain_m2(build_base(8, 2, 3), 5)
        got = [(p.sum_card, p.diff_card, p.card, p.diameter) for p in chain.profiles]
        assert got == FIXTURE_8_2_3
        want = [SetClass.MSTD, SetClass.MDTS] * 2 + [SetClass.MSTD]
        assert [p.set_class for p in chain.profiles] == want

    def test_bad_steps(self, conway_params):
        with pytest.raises(ValueError):
            generate_chain_m2(conway_params, 0)

    def test_mdts_bound_on_even_members(self, conway_params):
        chain = generate_chain_m2(conway_params, 11)
        m = conway_params.m
        for i in range(1, len(chain), 2):  # 0-based even positions = even members
            p = chain.profiles[i]
            assert p.sum_card <= p.diff_card - m + 3

    def test_mstd_to_mstd_growth(self, conway_params):
        chain = generate_chain_m2(conway_params, 9)
        odd = [chain.profiles[i] for i in range(0, 9, 2)]
        for a, b in zip(odd, odd[1:]):
            assert b.card - a.card == 2
            assert b.diameter - a.diameter == 2 * conway_params.m
            assert b.sum_card - a.sum_card == 2 * conway_params.m


class TestStarIdentities:
    def test_paper_chain_clean(self, conway_params):
        chain = generate_chain_m2(conway_params, 7)
        report = verify_star_identities(conway_params, chain)
        assert report.ok
        assert report.failures == ()

    def test_star_state_and_symmetry(self, conway_params):
        m, d, k = conway_params.m, conway_params.d, conway_params.k
        a_star = (k + 1) * m - 2 * d
        chain = generate_chain_m2(conway_params, 9)
        for idx in range(1, 10, 2):
            star = chain.sets[idx - 1].without(m)
            assert m not in star
            assert affine(star, -1, a_star) == star

    def test_sweep_params(self):
        for m, d in [(8, 2), (8, 6), (12, 3), (12, 9)]:
            k = 3 if d < m / 2 else 4
            params = build_base(m, d, k)
            report = verify_star_identities(params, generate_chain_m2(params, 9))
            assert report.ok, (m, d, k, report.failures)

    def test_corrupted_chain_flagged(self, conway_params):
        # Remove the low fringe element -d from every member: the sum-side
        # coverage and the +1 offset break at the later MSTD positions.
        chain = generate_chain_m2(conway_params, 7)
        corrupted = Chain.from_sets(
            tuple(s.without(-conway_params.d) for s in chain.sets), MethodTag.METHOD2
        )
        report = verify_star_identities(conway_params, corrupted)
        assert not report.ok
        assert (3, "star-sum-cover", -1) in report.failures
        assert (3, "sum-card-offset", (38, 36)) in report.failures
        assert (5, "star-sum-cover", -1) in report.failures
        assert (5, "sum-card-offset", (47, 45)) in report.failures

    def test_corrupted_diff_side_flagged(self, conway_params):
        # Remove a mid element instead: the difference identities break too.
        chain = generate_chain_m2(conway_params, 5)
        corrupted = Chain.from_sets(
            tuple(s.without(7) for s in chain.sets), MethodTag.METHOD2
        )
        report = verify_star_identities(conway_params, corrupted)
        assert not report.ok
        failed_checks = {name for _, name, _ in report.failures}
        assert "diff-card-match" in failed_checks
        assert "star-diff-cover" in failed_checks
