"""Each generator against its construction written out from the definition.

The generators share one member loop (`chains._grow`) and differ only in
their first member and the period of appends they hand it, so an off-by-one
in a period shows here as a member that differs from the definition.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import altchains.chains
from altchains import (
    CONWAY_SET,
    MethodTag,
    build_base,
    generate_chain_m1,
    generate_chain_m2,
    generate_chain_m3,
    make_set,
    phase1_set,
    set_m3,
)
from altchains.chains import Chain, _appended, _grow
from altchains.nathanson import k_min

# The method-2 bases of the `chains` benchmark workload: m in M2_MS with
# d in {m/4, 3m/4}, at both ends of the k range it draws from.
M2_BASES = [
    (m, d, k)
    for m in (4, 8, 12, 16)
    for d in (m // 4, 3 * m // 4)
    for k in sorted({k_min(m, d), 6})
]


@pytest.mark.parametrize("n", [17, 18, 20])
def test_method1_matches_definition(n):
    # A_{2l} = A_{2l-1} union {l*n} and A_{2l+1} = A_{2l-1} union (A + l*n).
    steps = 201
    want = [CONWAY_SET]
    odd = CONWAY_SET
    for l in range(1, steps // 2 + 1):
        want.append(make_set([*odd, l * n]))
        odd = make_set([*odd, *(a + l * n for a in CONWAY_SET)])
        want.append(odd)
    assert generate_chain_m1(CONWAY_SET, n, steps).sets == tuple(want[:steps])


def test_method3_matches_closed_form():
    # 401 members: every phase, and 100 block boundaries.
    chain = generate_chain_m3(401)
    assert chain.sets == tuple(set_m3(i) for i in range(1, 402))


@pytest.mark.parametrize("m, d, k", M2_BASES)
def test_method2_matches_schedule(m, d, k):
    steps = 125
    params = build_base(m, d, k)
    # Round r appends (k+r+1)m - d, then -rm - d.
    schedule = [v for r in range(1, steps) for v in ((k + r + 1) * m - d, -r * m - d)]
    a1 = params.A.union([-d, (k + 1) * m - d])
    chain = generate_chain_m2(params, steps)
    assert chain.appends[1:] == tuple((v,) for v in schedule[: steps - 1])
    assert chain.sets == tuple(a1.union(schedule[:i]) for i in range(steps))


@pytest.mark.parametrize(
    "generate, first",
    [
        (lambda s: generate_chain_m1(CONWAY_SET, 17, s), CONWAY_SET),
        (
            lambda s: generate_chain_m2(build_base(4, 1, 3), s),
            make_set([-1, 0, 2, 3, 4, 7, 11, 12, 14, 15]),
        ),
        (generate_chain_m3, phase1_set(0)),
    ],
    ids=["method1", "method2", "method3"],
)
def test_zero_and_one_step(generate, first):
    assert generate(1).sets == (first,)
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        generate(0)


# The change in (|A+A|, |A-A|, |A|, diameter) over one period of each
# construction, from the first member on.
INCREMENTS = [
    *(pytest.param(lambda n=n: generate_chain_m1(CONWAY_SET, n, 401), 2, (2 * n, 2 * n, 8, n),
                   id=f"m1-n{n}") for n in (17, 18, 20)),
    *(pytest.param(lambda m=m, d=d, k=k: generate_chain_m2(build_base(m, d, k), 401), 2,
                   (2 * m, 2 * m, 2, 2 * m), id=f"m2-{m}-{d}-{k}")
      for m in (4, 8, 12, 16, 20) for d in (m // 4, 3 * m // 4) for k in range(k_min(m, d), 7)),
    pytest.param(lambda: generate_chain_m3(401), 4, (16, 16, 4, 10), id="m3"),
]


@pytest.mark.parametrize("generate, period, increment", INCREMENTS)
def test_per_period_increments(generate, period, increment):
    counts = [(p.sum_card, p.diff_card, p.card, p.diameter) for p in generate().profiles]
    for before, after in zip(counts, counts[period:]):
        assert tuple(b - a for a, b in zip(before, after)) == increment


class TestChainBound:
    def test_refused_before_building(self, monkeypatch):
        monkeypatch.setattr(altchains.chains, "_RANGE_LIMIT", 100)
        params = build_base(4, 1, 3)
        # Members of 10, 11, ..., 16 elements hold 91 together; an eighth
        # of 17 would pass 100.
        assert len(generate_chain_m2(params, 7)) == 7
        with pytest.raises(ValueError, match="more than 100 elements"):
            generate_chain_m2(params, 8)
        with pytest.raises(ValueError, match="a chain of 50 steps holds more than 100 elements"):
            generate_chain_m2(params, 50)

    def test_every_generator_is_bounded(self, monkeypatch):
        monkeypatch.setattr(altchains.chains, "_RANGE_LIMIT", 100)
        for generate in (lambda s: generate_chain_m1(CONWAY_SET, 17, s), generate_chain_m3):
            with pytest.raises(ValueError, match="more than 100 elements"):
                generate(1000)


class TestLastMemberCheck:
    """`_grow` checks only its last member; every member is a run of it."""

    @pytest.mark.parametrize(
        "appends",
        [
            [(2,)],  # inside the first member's hull
            [(10,), (7,)],  # inside the hull of member 2
            [(-10,), (-5,)],  # the same, below
            [(5,)],  # repeats an element of the first member
            [(9, 9)],  # repeats an element within a step
            [(9,), (9,)],  # repeats an earlier step's element
        ],
    )
    def test_bad_rule_raises(self, appends):
        period = [tuple((x, 0) for x in step) for step in appends]
        with pytest.raises(ValueError):
            _grow(make_set([0, 5]), period, len(appends) + 1, MethodTag.EXTERNAL)

    def test_members_are_runs(self):
        # Each step appends two elements on each side of the hull, unsorted,
        # from a period of one slot.
        first = make_set([0, 3])
        period = [((10, 10), (-10, -10), (11, 10), (-11, -10))]
        chain = _grow(first, period, 6, MethodTag.EXTERNAL)
        want = [first]
        for j in range(1, 6):
            want.append(make_set([*want[-1], 10 * j, -10 * j, 10 * j + 1, -10 * j - 1]))
        assert chain.sets == tuple(want)


class TestPeriod:
    """`_grow` against the running unions of its period written out in full."""

    slots = st.lists(st.tuples(st.integers(-30, 30), st.integers(-60, 60)), max_size=3)

    @example(first={0, 1}, period=[((5, 10),), ((-5, -10), (9, 10))], steps=30)
    @given(
        first=st.sets(st.integers(-5, 5), min_size=1),
        period=st.lists(slots.map(tuple), min_size=1, max_size=4),
        steps=st.integers(1, 30),
    )
    def test_matches_running_unions(self, first, period, steps):
        # Period t of the schedule moves each slot's elements t shifts.
        schedule = [[x + t * s for x, s in slot] for t in range(steps) for slot in period]
        members = [make_set(first)]
        for new in schedule[: steps - 1]:
            prev = members[-1]
            if len(set(new)) < len(new) or any(prev.min <= x <= prev.max for x in new):
                with pytest.raises(ValueError):
                    _grow(members[0], period, steps, MethodTag.EXTERNAL)
                return
            members.append(make_set([*prev, *new]))
        chain = _grow(members[0], period, steps, MethodTag.EXTERNAL)
        assert chain.sets == tuple(members)
        assert chain.appends == (None, *map(_appended, members, members[1:]))
        assert chain == Chain.from_sets(members, MethodTag.EXTERNAL)
