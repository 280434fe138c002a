"""Differential tests: incremental chain profiles and checks against from-scratch ones.

`Chain.from_sets` finds once which members only append outside the previous
hull (`Chain.appends`).  The chain's profiles and `verify_star_identities`
grow such a member's sum and difference masks from the previous member's, and
`validate_chain` passes it.  Every test here compares that path with a
reference that does not use it: `profile()` per member, a naive pairwise chain
check, or the double-loop oracles in conftest.
"""

import altchains.chains as chains

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altchains import (
    CONWAY_SET,
    Chain,
    MethodTag,
    NathansonParams,
    affine,
    build_base,
    generate_chain_m1,
    generate_chain_m2,
    generate_chain_m3,
    make_set,
    profile,
    sumset,
    validate_chain,
    verify_star_identities,
)

from conftest import naive_diffset, naive_sumset

GENERATED = [
    pytest.param(lambda: generate_chain_m1(CONWAY_SET, 17, 251), id="m1-n17"),
    pytest.param(lambda: generate_chain_m1(CONWAY_SET, 20, 120), id="m1-n20"),
    pytest.param(lambda: generate_chain_m2(build_base(4, 1, 3), 251), id="m2-4-1-3"),
    pytest.param(lambda: generate_chain_m2(build_base(8, 6, 4), 120), id="m2-8-6-4"),
    pytest.param(lambda: generate_chain_m3(251), id="m3"),
]


def naive_failures(chain: Chain) -> list:
    """The chain checks from their definitions: double-loop counts, Python sets."""
    failures = []
    for i, member in enumerate(chain.sets, start=1):
        s, d = len(naive_sumset(member)), len(naive_diffset(member))
        if not (s > d if i % 2 else d > s):
            failures.append((i, "alternation", (s, d)))
    for i in range(1, len(chain.sets)):
        prev, cur = set(chain.sets[i - 1]), set(chain.sets[i])
        if not prev < cur:
            missing = sorted(prev - cur)
            failures.append((i + 1, "strict-inclusion", missing[0] if missing else None))
            continue
        lo, hi = min(prev), max(prev)
        filled = sorted(v for v in cur - prev if lo <= v <= hi)
        if filled:
            failures.append((i + 1, "no-filling-in", filled[0]))
    return failures


def naive_star_failures(m: int, chain: Chain) -> list:
    """The four symmetric-core identities from double-loop sums and differences."""
    failures = []
    for idx in range(1, len(chain) + 1, 2):
        member = chain.set_at(idx)
        star = sorted(set(member) - {m})
        sums, diffs = naive_sumset(star), naive_diffset(star)
        diff_gap = next((m - a for a in star if m - a not in diffs), None)
        sum_gap = next((m + a for a in star if m + a not in sums), None)
        if diff_gap is not None:
            failures.append((idx, "star-diff-cover", diff_gap))
        if sum_gap is not None:
            failures.append((idx, "star-sum-cover", sum_gap))
        full_sums, full_diffs = len(naive_sumset(member)), len(naive_diffset(member))
        if full_sums != len(sums) + 1:
            failures.append((idx, "sum-card-offset", (full_sums, len(sums))))
        if full_diffs != len(diffs):
            failures.append((idx, "diff-card-match", (full_diffs, len(diffs))))
    return failures


def assert_profiles_from_scratch(chain: Chain) -> None:
    assert chain.profiles == tuple(profile(s) for s in chain.sets)


def naive_appends(chain: Chain) -> list:
    """Per member, its new elements if it strictly contains the previous member
    and fills none of its holes; None for the first member and otherwise."""
    appends = [None]
    for prev, cur in zip(chain.sets, chain.sets[1:]):
        prev, cur = set(prev), set(cur)
        new = sorted(cur - prev)
        nested = prev < cur and not any(min(prev) <= v <= max(prev) for v in new)
        appends.append(tuple(new) if nested else None)
    return appends


@st.composite
def nested_chains(draw):
    """Member lists where each member appends below, above or both at once."""
    members = [sorted(draw(st.sets(st.integers(-25, 25), min_size=1, max_size=12)))]
    gaps = st.lists(st.integers(1, 9), max_size=3)
    for _ in range(draw(st.integers(0, 10))):
        below, above = draw(gaps), draw(gaps)
        if not below and not above:
            above = [draw(st.integers(1, 9))]
        cur = members[-1]
        low = [cur[0] - sum(below[: j + 1]) for j in range(len(below))]
        high = [cur[-1] + sum(above[: j + 1]) for j in range(len(above))]
        members.append(sorted(low) + cur + high)
    return members


def corrupt(draw, members: list) -> list:
    """Break a member list: remove an element, fill a hole, repeat or truncate."""
    members = [list(m) for m in members]
    kind = draw(st.sampled_from(["remove", "fill", "repeat", "single"]))
    i = draw(st.integers(0, len(members) - 1))
    if kind == "remove" and len(members[i]) > 1:
        members[i].remove(draw(st.sampled_from(members[i])))
    elif kind == "fill":
        holes = sorted(set(range(members[i][0], members[i][-1] + 1)) - set(members[i]))
        if holes:
            members[i] = sorted(members[i] + [draw(st.sampled_from(holes))])
    elif kind == "repeat":
        members.insert(i, list(members[i]))
    else:
        members = [members[i]]
    return members


class TestGeneratedChains:
    @pytest.mark.parametrize("build", GENERATED)
    def test_profiles_match_from_scratch(self, build):
        assert_profiles_from_scratch(build())

    @pytest.mark.parametrize("build", GENERATED)
    def test_clean_chains_validate(self, build):
        assert validate_chain(build()).failures == ()

    def test_kernel_seeds_only_members_that_do_not_append(self, monkeypatch):
        # The first member and the member with a filled hole come from the
        # kernel; every other member is grown from the one before it.
        sets = list(generate_chain_m3(40).sets)
        sets[20:] = [s.union([sets[19].min + 1]) for s in sets[20:]]
        seeded = []
        monkeypatch.setattr(chains, "sumset", lambda A: seeded.append(A) or sumset(A))
        Chain.from_sets(sets, MethodTag.EXTERNAL)
        assert seeded == [sets[0], sets[20]]

    def test_nesting_found_once(self, monkeypatch):
        # The generator hands the chain its appends, so no pair is compared;
        # profiling, validation and the star check all read chain.appends, and
        # the star check seeds only the first core from the kernel.
        calls, seeded = [], []
        appended = chains._appended
        monkeypatch.setattr(chains, "_appended", lambda *pair: calls.append(1) or appended(*pair))
        params = build_base(8, 2, 3)
        chain = generate_chain_m2(params, 41)
        monkeypatch.setattr(chains, "sumset", lambda A: seeded.append(A) or sumset(A))
        assert validate_chain(chain).ok
        assert verify_star_identities(params, chain).ok
        assert calls == []
        assert seeded == [chain.set_at(1).without(params.m)]


class TestNestedChains:
    @given(nested_chains())
    @settings(max_examples=150, deadline=None)
    def test_appends_below_and_above(self, members):
        chain = Chain.from_sets([make_set(m) for m in members], MethodTag.EXTERNAL)
        assert_profiles_from_scratch(chain)
        assert list(chain.appends) == naive_appends(chain)
        assert list(validate_chain(chain).failures) == naive_failures(chain)

    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def test_broken_chains_match_naive_check(self, data):
        members = corrupt(data.draw, data.draw(nested_chains()))
        chain = Chain.from_sets([make_set(m) for m in members], MethodTag.EXTERNAL)
        assert_profiles_from_scratch(chain)
        assert list(chain.appends) == naive_appends(chain)
        assert list(validate_chain(chain).failures) == naive_failures(chain)

    def test_each_break_reported(self):
        base = [[0, 2, 3], [-1, 0, 2, 3], [-1, 0, 2, 3, 7]]
        cases = {
            "removed": (base[:2] + [[-1, 2, 3, 7]], (3, "strict-inclusion", 0)),
            "filled": (base[:2] + [[-1, 0, 1, 2, 3, 7]], (3, "no-filling-in", 1)),
            "repeated": (base[:2] + [base[1]], (3, "strict-inclusion", None)),
        }
        for members, failure in cases.values():
            chain = Chain.from_sets([make_set(m) for m in members], MethodTag.EXTERNAL)
            failures = validate_chain(chain).failures
            assert failure in failures
            assert list(failures) == naive_failures(chain)
        single = Chain.from_sets([make_set(base[0])], MethodTag.EXTERNAL)
        assert list(validate_chain(single).failures) == naive_failures(single)


class TestStarIdentities:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_corrupted_method2_witnesses(self, data):
        m, d, k = data.draw(st.sampled_from([(4, 1, 3), (4, 3, 4), (8, 2, 3), (8, 6, 4)]))
        params = build_base(m, d, k)
        members = [list(s) for s in generate_chain_m2(params, data.draw(st.integers(1, 13))).sets]
        members = corrupt(data.draw, members)
        chain = Chain.from_sets([make_set(s) for s in members], MethodTag.METHOD2)
        assert list(verify_star_identities(params, chain).failures) == naive_star_failures(m, chain)

    def test_negative_mask_offset(self):
        # Every core lies above m, so the masks are compared at a negative
        # offset.  m-10 = 10-16 is covered, and m-16 is the first gap.
        params = build_base(4, 1, 3)
        chain = Chain.from_sets([make_set([10, 16, 30]), make_set([9, 10, 16, 30, 40])],
                                MethodTag.METHOD2)
        failures = verify_star_identities(params, chain).failures
        assert (1, "star-diff-cover", -12) in failures
        assert list(failures) == naive_star_failures(params.m, chain)

    def test_appended_m_stays_out_of_the_cores(self):
        # Member 2 appends m = 4 below the first hull: the core of member 3
        # is the first core plus 40 alone.
        params = build_base(4, 1, 3)
        members = [[10, 16, 30], [4, 10, 16, 30], [4, 10, 16, 30, 40]]
        chain = Chain.from_sets([make_set(s) for s in members], MethodTag.METHOD2)
        assert chain.appends == (None, (4,), (40,))
        failures = verify_star_identities(params, chain).failures
        assert list(failures) == naive_star_failures(params.m, chain)


class TestGrownAppends:
    """Generators hand their chain the appends `_grow` computed: the chain is the
    one `Chain.from_sets` derives from the same members, with no pair compared."""

    @pytest.mark.parametrize("build", [
        *GENERATED,
        *(pytest.param(lambda s=s: generate_chain_m1(CONWAY_SET, 18, s), id=f"m1-n18-{s}")
          for s in (1, 2, 7)),
        *(pytest.param(lambda s=s: generate_chain_m3(s), id=f"m3-{s}") for s in (1, 2, 7)),
        pytest.param(lambda: generate_chain_m1(affine(CONWAY_SET, 10**8, 0), 17 * 10**8, 7),
                     id="m1-wide"),
        *(pytest.param(lambda s=s: generate_chain_m2(build_base(8, 2, 3), s), id=f"m2-8-2-3-{s}")
          for s in (1, 2, 7)),
    ])
    def test_generated_equals_from_sets(self, build, monkeypatch):
        def refuse(*pair):
            raise AssertionError("a generated chain compared a pair of members")
        with monkeypatch.context() as patch:
            patch.setattr(chains, "_appended", refuse)
            chain = build()
        assert chain.appends == (None, *map(chains._appended, chain.sets, chain.sets[1:]))
        assert chain == Chain.from_sets(chain.sets, chain.method_tag)

    def test_empty_step_appends_none(self):
        chain = chains._grow(CONWAY_SET, [((20, 0),), (), ((60, 0),)], 4, MethodTag.EXTERNAL)
        assert chain.appends == (None, (20,), None, (60,))
        rebuilt = Chain.from_sets(chain.sets, MethodTag.EXTERNAL)
        assert chain == rebuilt
        failures = validate_chain(chain).failures
        assert (3, "strict-inclusion", None) in failures
        assert failures == validate_chain(rebuilt).failures


class TestWideHull:
    # Every member of the dilated 7-step method-2 chain spans more than 2**24,
    # so the kernel takes its hash path on each.  (At 2**20 the first member
    # spans exactly 2**24 and hashes too, since its 10**2 pairs are fewer than
    # its diameter: test_intset.py::test_diameter_at_the_span_cut_hashes.)
    SCALE = 2**21

    def test_dilated_chain_keeps_profiles(self):
        chain = generate_chain_m2(build_base(4, 1, 3), 7)
        wide = Chain.from_sets([affine(s, self.SCALE, 0) for s in chain.sets], MethodTag.METHOD2)
        assert wide.sets[0].diameter > 2**24
        assert [(p.card, p.sum_card, p.diff_card, p.diameter) for p in wide.profiles] == [
            (p.card, p.sum_card, p.diff_card, p.diameter * self.SCALE) for p in chain.profiles
        ]
        assert [p.set_class for p in wide.profiles] == [p.set_class for p in chain.profiles]
        assert validate_chain(wide).failures == validate_chain(chain).failures

    def test_dilated_star_witnesses(self):
        params = build_base(4, 1, 3)
        chain = generate_chain_m2(params, 7)
        broken = Chain.from_sets([s.without(-params.d) for s in chain.sets], MethodTag.METHOD2)
        wide = Chain.from_sets(
            [affine(s, self.SCALE, 0) for s in broken.sets], MethodTag.METHOD2
        )
        wide_params = NathansonParams(params.m * self.SCALE, params.d, params.k, params.A)
        scaled = [
            (i, name, w * self.SCALE if isinstance(w, int) else w)
            for i, name, w in verify_star_identities(params, broken).failures
        ]
        assert scaled
        assert list(verify_star_identities(wide_params, wide).failures) == scaled
