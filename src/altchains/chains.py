"""Method-agnostic chain container, validation and growth reporting.

A chain is a nested sequence of integer sets that is supposed to alternate
between sum-dominated (odd positions) and difference-dominated (even
positions), and to never fill a hole: once an integer between a set's min and
max is absent, it stays absent in every later set.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .intset import (
    _BITSET_SPAN_LIMIT,
    _BITSET_WORK_LIMIT,
    _RANGE_LIMIT,
    IntSet,
    SetClass,
    SumDiffProfile,
    _kernel_work,
    _packed,
    _Record,
    _trusted,
    diffset,
    sumset,
)

Witness = int | tuple[int, int] | None
Failure = tuple[int, str, Witness]
Appends = tuple[int, ...] | None
# One step's appends in the first period, each as (element, shift per period).
Slot = tuple[tuple[int, int], ...]

class MethodTag(enum.Enum):
    METHOD1 = "Method1"
    METHOD2 = "Method2"
    METHOD3 = "Method3"
    EXTERNAL = "External"


def _appended(prev: IntSet, cur: IntSet) -> Appends:
    """The elements `cur` adds outside the hull of `prev`, or None.

    Not None exactly when prev is a proper subset of cur and no element of cur
    falls inside [min(prev), max(prev)] without being in prev: then prev sits
    in cur as one contiguous run, and cur adds only elements below and above.
    """
    old, new, n = prev.elements, cur.elements, len(prev)
    i = bisect_left(new, old[0]) if old else 0
    if len(new) > n and new[i : i + n] == old:
        return new[:i] + new[i + n :]
    return None


class _Masks:
    """Sum and difference masks of a growing set, anchored at a fixed hull.

    For x in [lo, hi], bit x-lo of `elems` and bit hi-x of `mirror` mark x in
    the set; bit s-2lo of `sums` marks the sum s and bit t+(hi-lo) of `diffs`
    marks the difference t.  Moving to a set that adds known elements to the
    current one costs one shift-OR per mask for each of them, whatever the
    set's size; any other set takes its sums and differences from the kernel.
    """

    def __init__(self, lo: int, hi: int) -> None:
        self.lo, self.hi = lo, hi
        self.elems = self.mirror = self.sums = self.diffs = 0

    def advance(self, cur: IntSet, new: Sequence[int] | None) -> None:
        """Move to `cur` by adding `new` to the current set, or rebuild from `cur` if None."""
        lo, hi = self.lo, self.hi
        if new is None:
            self.elems = _packed(cur.elements, lo)
            self.mirror = _packed(map(hi.__sub__, cur.elements), 0)
            self.sums = _packed(sumset(cur).elements, 2 * lo)
            self.diffs = _packed(diffset(cur).elements, lo - hi)
            return
        elems, mirror, sums, diffs = self.elems, self.mirror, self.sums, self.diffs
        for x in new:
            up, down = x - lo, hi - x
            elems |= 1 << up
            mirror |= 1 << down
            sums |= elems << up
            diffs |= (mirror << up) | (elems << down)
        self.elems, self.mirror, self.sums, self.diffs = elems, mirror, sums, diffs

    def counts(self) -> tuple[int, int]:
        """|A+A| and |A-A| of the current set A."""
        return self.sums.bit_count(), self.diffs.bit_count()

    def first_missing_sum(self, m: int) -> int | None:
        """The first m+a, a rising through A, that is not in A+A; else None."""
        # m+a sits at bit j+k of `sums` when a is bit j of `elems`.
        k = m - self.lo
        sums = self.sums >> k if k >= 0 else self.sums << -k
        gaps = self.elems & ~sums
        return m + self.lo + (gaps & -gaps).bit_length() - 1 if gaps else None

    def first_missing_diff(self, m: int) -> int | None:
        """The first m-a, a rising through A, that is not in A-A; else None."""
        # m-a sits at bit j+k of `diffs` when a is bit j of `mirror`, so the
        # lowest a is the highest bit of the gaps.
        k = m - self.lo
        diffs = self.diffs >> k if k >= 0 else self.diffs << -k
        gaps = self.mirror & ~diffs
        return m - (self.hi - gaps.bit_length() + 1) if gaps else None


class _Kernel:
    """The `_Masks` interface, with each set's sums and differences computed
    afresh by the kernel: for hulls past the bitset cut, where it takes the hash
    path."""

    def advance(self, cur: IntSet, new: Sequence[int] | None) -> None:
        self.current, self.sums, self.diffs = cur, sumset(cur), diffset(cur)

    def counts(self) -> tuple[int, int]:
        return len(self.sums), len(self.diffs)

    def first_missing_sum(self, m: int) -> int | None:
        return next((m + a for a in self.current if m + a not in self.sums), None)

    def first_missing_diff(self, m: int) -> int | None:
        return next((m - a for a in self.current if m - a not in self.diffs), None)


def _accumulator(members: Sequence[IntSet], appends: Sequence[Appends]) -> _Masks | _Kernel:
    """Masks anchored at the hull of the nonempty `members`, or the kernel past
    the bitset cut, to profile them, or sets within their hull, in order.

    The members are priced first, in order.  One that appends k elements
    (`appends`, as _appended gives them) to masks of hull h costs k*(h+1),
    one shift-OR of each mask per element; any other, and every member past
    the bitset cut, costs the kernel's work.  The first member that the
    kernel refuses, or at which the running total passes _BITSET_WORK_LIMIT,
    raises that refusal.
    """
    lo, hi = min(s.min for s in members), max(s.max for s in members)
    masks = hi - lo <= _BITSET_SPAN_LIMIT
    total = 0
    for s, new in zip(members, appends):
        total += (hi - lo + 1) * len(new) if masks and new is not None else _kernel_work(s)
        if total > _BITSET_WORK_LIMIT:
            raise ValueError(
                f"rebuilding the chain's members from the kernel exceeds the work "
                f"limit of {_BITSET_WORK_LIMIT}"
            )
    return _Masks(lo, hi) if masks else _Kernel()


class Chain(_Record):
    """Indexed (1-based) sequence of sets with per-index profiles."""

    # `appends` holds what each member appends to the one before it, sorted
    # (_appended); None for the first member and every member that does not.
    __slots__ = ("sets", "method_tag", "profiles", "appends")

    @classmethod
    def from_sets(cls, sets: Iterable[IntSet], method_tag: MethodTag) -> Chain:
        """The chain of `sets`, comparing each member once with the one before
        to find what it appends.  Raises ValueError on no set, an empty set, or
        members whose profiles together pass the work limit."""
        members = tuple(sets)
        return cls._profiled(members, (None, *map(_appended, members, members[1:])), method_tag)

    @classmethod
    def _profiled(
        cls, members: tuple[IntSet, ...], appends: tuple[Appends, ...], method_tag: MethodTag
    ) -> Chain:
        """The chain of `members`, which append `appends` as _appended gives them."""
        if not members:
            raise ValueError("a chain needs at least one set")
        if not all(members):
            raise ValueError("cannot profile the empty set")
        # Each member's profile grows from the previous one's where it appends;
        # the kernel computes the others, and every member past the bitset cut.
        acc = _accumulator(members, appends)
        profiles = []
        for s, new in zip(members, appends):
            acc.advance(s, new)
            profiles.append(SumDiffProfile(len(s), *acc.counts(), s.diameter))
        return cls(members, method_tag, tuple(profiles), appends)

    def __len__(self) -> int:
        return len(self.sets)

    def set_at(self, index: int) -> IntSet:
        """The chain member at 1-based `index`."""
        if not 1 <= index <= len(self.sets):
            raise IndexError(f"chain index {index} outside 1..{len(self.sets)}")
        return self.sets[index - 1]


def _grow(first: IntSet, period: Sequence[Slot], steps: int, method_tag: MethodTag) -> Chain:
    """The `steps`-member chain from `first` that appends one `period` of slots
    after another.

    Step j (member j+1 is member j plus its appends) appends slot (j-1) mod p
    of the p in `period`, each element x of it with shift s moved to
    x + ((j-1) // p)*s.  Each step appends below and above the previous hull,
    so every member is one contiguous run of the last member and appends its
    step's new elements (None if there are none): only the last is built and
    checked, which raises ValueError on an append inside a hull or a repeated
    element.  Members that would hold more than _RANGE_LIMIT elements
    together, the bound set literals have, are refused before any is built.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    below: list[int] = []  # falling, as appended
    above: list[int] = []
    runs = [(0, 0)]  # (len(below), len(above)) at each member
    appends: list[Appends] = [None]
    size = total = len(first)
    for j in range(1, steps):
        t, r = divmod(j - 1, len(period))
        new = sorted(x + t * shift for x, shift in period[r])
        i = bisect_left(new, first.min)
        below.extend(reversed(new[:i]))
        above.extend(new[i:])
        runs.append((len(below), len(above)))
        appends.append(tuple(new) or None)
        size += len(new)
        total += size
        if total > _RANGE_LIMIT:
            raise ValueError(f"a chain of {steps} steps holds more than {_RANGE_LIMIT} elements")
    last = IntSet((*reversed(below), *first, *above)).elements
    k, n = len(below), len(first)
    members = tuple([_trusted(last[k - b : k + n + a]) for b, a in runs])
    return Chain._profiled(members, tuple(appends), method_tag)


class ValidationReport(_Record):
    """Verdict of a chain check; ok iff no failures were recorded."""

    __slots__ = ("failures",)

    @property
    def ok(self) -> bool:
        return not self.failures

    @classmethod
    def from_failures(cls, failures: Iterable[Failure]) -> ValidationReport:
        return cls(tuple(failures))


def validate_chain(chain: Chain) -> ValidationReport:
    """Check strict inclusion, no filling in, and MSTD/MDTS alternation."""
    # Checking consecutive pairs suffices for the full no-filling-in condition:
    # hulls are nested, so an element of a later set that fell inside the hull
    # of some earlier set also falls inside the hull of every set in between,
    # and would already have been flagged at the first pair it violates.
    failures: list[Failure] = []

    for i, p in enumerate(chain.profiles, start=1):
        want = SetClass.MSTD if i % 2 else SetClass.MDTS
        if p.set_class is not want:
            failures.append((i, "alternation", (p.sum_card, p.diff_card)))

    for i in range(1, len(chain.sets)):
        if chain.appends[i] is not None:
            continue
        prev, cur = chain.sets[i - 1], chain.sets[i]
        missing = [v for v in prev if v not in cur]
        if missing or len(cur) == len(prev):
            failures.append((i + 1, "strict-inclusion", missing[0] if missing else None))
            continue
        filled = [v for v in cur.within(prev.min, prev.max) if v not in prev]
        if filled:
            failures.append((i + 1, "no-filling-in", filled[0]))

    return ValidationReport.from_failures(failures)


class GrowthRow(SumDiffProfile):
    """One table row: a member's profile with its index and step ratios."""

    __slots__ = ("index", "card_ratio", "diam_ratio")


def growth_table(chain: Chain) -> tuple[GrowthRow, ...]:
    """Per-index growth rows with exact rational ratios (None on row 1)."""
    rows: list[GrowthRow] = []
    prev: SumDiffProfile | None = None
    for i, p in enumerate(chain.profiles, start=1):
        card_ratio = Fraction(p.card, prev.card) if prev else None
        diam_ratio = Fraction(p.diameter, prev.diameter) if prev and prev.diameter else None
        rows.append(
            GrowthRow(p.card, p.sum_card, p.diff_card, p.diameter, i, card_ratio, diam_ratio)
        )
        prev = p
    return tuple(rows)


def growth_rates(chain: Chain) -> tuple[Fraction, Fraction]:
    """Average cardinality and diameter deltas between consecutive MSTD sets."""
    positions = [i for i, p in enumerate(chain.profiles, start=1) if p.set_class is SetClass.MSTD]
    if len(positions) < 3:
        raise ValueError("growth rates need a chain with at least 3 MSTD sets")
    first, last = chain.profiles[positions[0] - 1], chain.profiles[positions[-1] - 1]
    hops = len(positions) - 1
    card_rate = Fraction(last.card - first.card, hops)
    diam_rate = Fraction(last.diameter - first.diameter, hops)
    return card_rate, diam_rate


def limiting_density(chain: Chain, probe_index: int) -> tuple[Fraction | None, Fraction]:
    """(analytic limit, observed density) at an odd probe position.

    The analytic limit is card_rate/diam_rate from growth_rates; it is None
    for External chains, which carry no construction to extrapolate.
    """
    if probe_index % 2 == 0 or probe_index < 1:
        raise ValueError(f"probe index must be odd and positive, got {probe_index}")
    if probe_index > len(chain.sets):
        raise ValueError(f"probe index {probe_index} beyond chain length {len(chain.sets)}")
    density = chain.profiles[probe_index - 1].density
    if density is None:
        raise ValueError("density undefined at a diameter-0 probe")
    analytic: Fraction | None = None
    if chain.method_tag is not MethodTag.EXTERNAL:
        card_rate, diam_rate = growth_rates(chain)
        analytic = card_rate / diam_rate
    return analytic, density
