"""Differential tests: incremental chain profiles and checks against from-scratch ones.

`Chain.from_sets` finds once which members only append outside the previous
hull (`Chain.appends`).  The chain's profiles and `verify_star_identities`
grow such a member's sum and difference masks from the previous member's, and
`validate_chain` passes it.  Every test here compares that path with a
reference that does not use it: `profile()` per member, a naive pairwise chain
check, the double-loop oracles in conftest, or, for the work a chain is
priced at before it is profiled, the whole-chain check the one pass replaced.
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
    diffset,
    generate_chain_m1,
    generate_chain_m2,
    generate_chain_m3,
    make_set,
    profile,
    sumset,
    validate_chain,
    verify_star_identities,
)

from altchains.chains import _BITSET_SPAN_LIMIT
from altchains.intset import SAFE_BOUND, _takes_hash_path

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

    def test_cores_narrower_than_the_chain(self):
        # The star check anchors at the chain's hull.  Here every member has m
        # as its max, so each core, and the cores' hull, ends below it.
        params = build_base(4, 1, 3)
        members = [s.within(s.min, params.m) for s in generate_chain_m2(params, 7).sets]
        assert all(s.max == params.m for s in members)
        chain = Chain.from_sets(members, MethodTag.METHOD2)
        failures = verify_star_identities(params, chain).failures
        assert failures and list(failures) == naive_star_failures(params.m, chain)

    def test_chain_past_the_bitset_cut_with_narrow_cores(self):
        # m = 2**25 tops every member: the chain's hull passes 2**24, the
        # cores' hull does not.
        params = build_base(4, 1, 3)
        wide = NathansonParams(2**25, params.d, params.k, params.A)
        members = [s.union([wide.m]) for s in generate_chain_m2(params, 7).sets]
        chain = Chain.from_sets(members, MethodTag.METHOD2)
        failures = verify_star_identities(wide, chain).failures
        assert failures and list(failures) == naive_star_failures(wide.m, chain)

    def test_member_m_alone_has_an_empty_core(self):
        params = build_base(4, 1, 3)
        chain = Chain.from_sets([make_set([params.m])], MethodTag.METHOD2)
        failures = verify_star_identities(params, chain).failures
        assert failures == ((1, "diff-card-match", (1, 0)),)
        assert list(failures) == naive_star_failures(params.m, chain)


def reference_kernel_work(A):
    """The kernel's work on A, or None if it refuses A (the former _kernel_work):
    each of the |A|^2 hash-path pairs costs 2**10 bitset work units."""
    try:
        hashed = _takes_hash_path(A)
    except ValueError:
        return None
    if 2 * max(A.max, -A.min) > SAFE_BOUND or A.diameter > SAFE_BOUND:
        return None
    return len(A) * len(A) * 2**10 if hashed else len(A) * (A.diameter + 1)


def reference_accumulator(members, appends, limit):
    """The path and hull that _accumulator chose, then the whole-chain check
    it was followed by (the former _check_work): the kernel work of every
    rebuilt member up to the first the kernel refuses, plus the mask work of
    the appends before it in one lump; over `limit` the limit is named, and
    otherwise that member's own refusal is raised."""
    lo, hi = min(s.min for s in members), max(s.max for s in members)
    hull = hi - lo if hi - lo <= _BITSET_SPAN_LIMIT else None
    rebuilt = range(len(members)) if hull is None else [
        i for i, new in enumerate(appends) if new is None]
    total, stop = 0, len(members)
    for i in rebuilt:
        work = reference_kernel_work(members[i])
        if work is None:
            stop = i
            break
        total += work
    if hull is not None:
        total += (hull + 1) * sum(map(len, filter(None, appends[:stop])))
    if total > limit:
        raise ValueError(
            f"rebuilding the chain's members from the kernel exceeds the work limit of {limit}")
    if stop < len(members):
        sumset(members[stop])
        diffset(members[stop])
    return ("masks", lo, hi) if hull is not None else ("kernel",)


# Members the kernel refuses: by the bitset work, dense or dilated past
# 2**24, and by a sum past the element bound at either end.
REFUSED = [
    make_set(range(1, 400000)),
    make_set(range(0, 2049 * 2**14, 2**14)),
    make_set([2**61 - 1, 2**61]),
    make_set([-(2**61), 5]),
]
# Members that cost much without being refused.
HEAVY = [make_set(range(1000)), make_set(range(300000)), make_set([0]), make_set(range(0, 400000, 2))]


def outcome(price, *args):
    """What a pricing call gives: its result, or the type and message it raises."""
    try:
        return price(*args)
    except ValueError as e:
        return type(e), str(e)


@st.composite
def priced_members(draw):
    """Nested member lists, perhaps broken or repeated, perhaps dilated past
    the bitset cut, with perhaps a refused or a heavy member put in."""
    members = draw(nested_chains())
    if draw(st.booleans()):
        members = corrupt(draw, members)
    members = [make_set(m) for m in members]
    if draw(st.booleans()):
        members = [affine(s, 2**22, 0) for s in members]
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(REFUSED + HEAVY))
        members.insert(draw(st.integers(0, len(members))), extra)
    return members


def assert_priced_alike(members):
    """_accumulator and the whole-chain check agree on `members` at every
    limit next to a running total of the members priced in order."""
    appends = (None, *map(chains._appended, members, members[1:]))
    lo, hi = min(s.min for s in members), max(s.max for s in members)
    masks = hi - lo <= _BITSET_SPAN_LIMIT
    totals = [0]
    for s, new in zip(members, appends):
        work = (hi - lo + 1) * len(new) if masks and new is not None else reference_kernel_work(s)
        if work is None:
            break
        totals.append(totals[-1] + work)
    for limit in sorted({max(0, t + e) for t in totals for e in (-1, 0, 1)} | {1 << 36}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chains, "_BITSET_WORK_LIMIT", limit)
            got = outcome(chains._accumulator, members, appends)
        if not isinstance(got, tuple):
            got = ("masks", got.lo, got.hi) if isinstance(got, chains._Masks) else ("kernel",)
        assert got == outcome(reference_accumulator, members, appends, limit), limit


class TestPricing:
    """_accumulator prices the members in one pass, in order, and raises the
    first refusal it meets; the former whole-chain check gives the same
    answers: the same path and hull, or the same exception and message."""

    @given(priced_members())
    @settings(max_examples=300, deadline=None)
    def test_pass_matches_whole_chain_check(self, members):
        assert_priced_alike(members)

    @pytest.mark.parametrize("members", [
        # A hull of diameter 2**24 takes masks; one wider, the kernel.
        [make_set([1, 2**24]), make_set([0, 1, 2**24])],
        [make_set([1, 2**24 + 1]), make_set([0, 1, 2**24 + 1])],
        [make_set([0]), make_set(range(300000))],
        [make_set(range(1000)), make_set(range(1, 400000)), make_set(range(1000))],
        [make_set([2**61 - 1, 2**61]), make_set(range(1000))],
    ])
    def test_edge_cases_match_whole_chain_check(self, members):
        assert_priced_alike(members)


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
