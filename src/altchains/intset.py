"""Exact arithmetic on finite sets of integers.

The canonical representation is a strictly increasing tuple of ints.  Sumsets
and difference sets are computed by one of two kernels.  The bitset kernel
translates the set to start at offset 0, divides the offsets by their common
step, packs them into one Python int, and shifts/ORs it once per element, but
stops as soon as the shifts left to do can set no new bit (see _sum_mask and
_diff_mask).  The hash kernel serves sets so sparse that |A|^2 is below
their diameter.  It makes the sums a+b with a <= b (or the positive
differences) as rising rows of plain ints, one list per element
(_pair_rows).  It counts the rows' distinct values through a set, and
merges the rows as sorted runs, dropping repeats, only to list them.  The
naive double-loop enumeration lives in the test suite as an independent
oracle.

A result counts before it unpacks.  sumset and diffset return an IntSet
that holds the count, or on the hash path a function that takes it on the
first len(), and builds its tuple only when its elements are first read
(_Pending).  So len(sumset(A)) and len(diffset(A)), all that classify and
profile need, list no element on either path; every other use reads the
elements as before.

The kernel does each set's work once.  It keeps a memo of the last set A it
was handed and did not refuse (_Memo), picked by identity: on the bitset path
the scaled offsets, their step and their packed mask, which sumset and diffset
both start from; on either path the results it returned for A, so sumset(A)
twice in a row gives the same object, and a count one len() took serves the
next.  Only that one set is kept alive past its use, with what its results
hold, and a call about another set replaces it.  Each call still decides its
path and checks its limits and the element bound, and reads the memo once, so
threads that share the kernel each get their own set's answer.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import compress, islice, repeat
from math import gcd
from operator import lt, ne, neg

# Elements are capped so that a+b always fits a signed 64-bit word.
SAFE_BOUND = 2**62 - 1

# The hash path holds up to |A|^2/2 pair sums at once, so it takes no set
# with |A|^2 above this, i.e. |A| > 2048; such a set packs instead.
_PAIR_LIMIT = 1 << 22

# The bitset path shifts a (diameter+1)-bit mask up to |A| times; it stops
# early on dense sets, but a set with holes in the middle of A+A takes every
# shift, so it refuses more work than this.
_BITSET_WORK_LIMIT = 1 << 36

# What one of the |A|^2 pairs of the hash path costs in bitset work units.
# Counting sums and differences of random sets over 2**40 took 100-270 ns
# per |A|^2 at |A| = 300 to 2048, and of random sets that take every shift
# 0.08-0.10 ns per |A|*(diameter+1) at |A| = 2100 to 4000 (2 vCPUs); this
# price is the low end of their ratio.
_HASH_PAIR_COST = 1 << 10


class SetClass(enum.Enum):
    MSTD = "MSTD"
    MDTS = "MDTS"
    BALANCED = "Balanced"


# Stores an attribute past the __setattr__ that refuses.
_store = object.__setattr__


class _Record:
    """Immutable value with the fields named by the __slots__ of its class and
    of the records it extends, in that order.

    It is built from all its fields in that order, by position or by keyword.
    A record equals only a record of the same type with equal fields, hashes
    by its fields, prints as Name(field=value, ...), refuses assignment and
    deletion, and pickles and copies through its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        slots = [(c, f) for c in reversed(cls.__mro__) for f in vars(c).get("__slots__", ())]
        cls._fields = tuple(f for _, f in slots)
        # Each slot's own setter, which passes the __setattr__ that refuses.
        cls._setters = tuple(vars(c)[f].__set__ for c, f in slots)

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            # A field missing, unknown or given twice is refused before any is stored.
            given = dict(zip(fields, values))
            twice = [f for f in named if f in given or f not in fields]
            given.update(named)
            missing = [f for f in fields if f not in given]
            if len(values) > len(fields) or twice or missing:
                got = f"{len(values)} by position and {', '.join(named) or 'none'} by keyword"
                raise TypeError(f"{type(self).__qualname__} takes {', '.join(fields)}; got {got}")
            values = [given[f] for f in fields]
        for store, v in zip(self._setters, values):
            store(self, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values()


class IntSet(_Record):
    """Finite set of integers, stored sorted and deduplicated.

    It equals any IntSet with the same elements, a kernel result not yet
    unpacked too, and pickles and copies as an IntSet.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[int, ...] = ()) -> None:
        el = elements
        if type(el) is not tuple:
            raise TypeError(
                f"IntSet stores a tuple, got {type(el).__name__}; use make_set for other iterables"
            )
        # C-level pass for the common case: plain ints, strictly increasing,
        # whose extremes are in bounds.  Anything else (int subclasses too)
        # goes through the loop, which accepts or names the first fault.
        if el and not (
            set(map(type, el)) == {int}
            and -SAFE_BOUND <= el[0]
            and el[-1] <= SAFE_BOUND
            and all(map(lt, el, islice(el, 1, None)))
        ):
            _check_elements(el)
        _store(self, "elements", el)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSet):
            return NotImplemented
        return self.elements == other.elements

    __hash__ = _Record.__hash__

    def __reduce__(self) -> tuple[type, tuple]:
        return IntSet, (self.elements,)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self.elements, v)
        return i < len(self.elements) and self.elements[i] == v

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    @property
    def diameter(self) -> int:
        return self.elements[-1] - self.elements[0]

    def union(self, other: Iterable[int]) -> "IntSet":
        return make_set([*self.elements, *other])

    def without(self, v: int) -> "IntSet":
        if v not in self:
            return self
        i = bisect_left(self.elements, v)
        return IntSet(self.elements[:i] + self.elements[i + 1 :])

    def within(self, lo: int, hi: int) -> "IntSet":
        """Elements falling in the inclusive interval [lo, hi]."""
        i = bisect_left(self.elements, lo)
        j = bisect_right(self.elements, hi)
        return IntSet(self.elements[i:j])


# The slot itself, which _Pending's property of the same name hides.
_ELEMENTS = IntSet.elements


class _Pending(IntSet):
    """A kernel result whose elements are unpacked when first read.

    Its `elements` slot holds [count, unpack], where count is the number of
    elements or a function that returns it.  len() and bool() answer from the
    count; the first len() calls the function and keeps its answer.  The
    first read of .elements stores unpack()'s tuple in the slot, then makes
    the object a plain IntSet, so later reads are slot reads.  Another thread
    that finds a tuple there in between uses it.
    """

    __slots__ = ()

    @property
    def elements(self) -> tuple[int, ...]:
        state = _ELEMENTS.__get__(self)
        if type(state) is tuple:
            return state
        el = state[1]()
        _ELEMENTS.__set__(self, el)
        _store(self, "__class__", IntSet)
        return el

    def __len__(self) -> int:
        state = _ELEMENTS.__get__(self)
        if type(state) is tuple:
            return len(state)
        count = state[0]
        if type(count) is not int:
            count = state[0] = count()
        return count

    def __bool__(self) -> bool:
        # Only the results of nonempty sets are pending, and they are nonempty.
        return True


def _past_bound(v: int) -> ValueError:
    """The refusal of an element or kernel output v with |v| > SAFE_BOUND."""
    return ValueError(f"|{v}| exceeds the safe element bound 2**62-1")


def _check_elements(elements: Iterable[int]) -> None:
    """Raise on the first element that is not an int, out of bounds or out of order."""
    prev = None
    for v in elements:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"set elements must be ints, got {v!r}")
        if abs(v) > SAFE_BOUND:
            raise _past_bound(v)
        if prev is not None and v <= prev:
            raise ValueError("elements must be strictly increasing")
        prev = v


def _trusted(elements: tuple[int, ...]) -> IntSet:
    """IntSet of kernel output, which is strictly increasing ints by
    construction: only its extremes are checked against SAFE_BOUND."""
    if elements and (elements[0] < -SAFE_BOUND or elements[-1] > SAFE_BOUND):
        _check_elements(elements)
    result = object.__new__(IntSet)
    _store(result, "elements", elements)
    return result


def _deferred(count: int | Callable[[], int], unpack: Callable[[], tuple[int, ...]]) -> IntSet:
    """IntSet of the `count` kernel outputs unpack() returns, all within
    SAFE_BOUND, left pending; `count` may be a function that returns it."""
    result = object.__new__(_Pending)
    _ELEMENTS.__set__(result, [count, unpack])
    return result


def make_set(values: Iterable[int]) -> IntSet:
    """Deduplicate, sort and bound-check `values` into an IntSet."""
    return IntSet(tuple(sorted(set(values))))


def interval(lo: int, hi: int) -> IntSet:
    """The inclusive integer interval [lo, hi]; empty when lo > hi.  An
    interval of more than _RANGE_LIMIT values is refused, as an a..b literal
    token is."""
    if hi - lo >= _RANGE_LIMIT:
        raise ValueError(f"interval [{lo}, {hi}] spans more than {_RANGE_LIMIT} values")
    return IntSet(tuple(range(lo, hi + 1)))


# The smallest sum-dominated set by cardinality and diameter (Conway's).
CONWAY_SET = IntSet((0, 2, 3, 4, 7, 11, 12, 14))


def _packed(values: Iterable[int], base: int, width: int = 1) -> int:
    """Bitmask with bit width*(v-base) set for each v in `values` (all >= base):
    one bit per value, or with `width` > 1 a `width`-bit slot per value,
    holding 1, so that a product of two such masks counts in its slots.

    The bits are written as ASCII digits, least significant first, reversed
    once and parsed by int(..., 2): linear in the span, where OR-ing in
    1 << (v-base) per value would copy the growing mask each time.
    """
    offsets = list(map(base.__rsub__, values) if base else values)
    if not offsets:
        return 0
    if width > 1:
        offsets = list(map(width.__mul__, offsets))
    digits = bytearray(b"0") * (max(offsets) + 1)
    # Consume the map at C speed; each call sets the digit of one value.
    deque(map(digits.__setitem__, offsets, repeat(ord("1"))), maxlen=0)
    digits.reverse()
    return int(digits, 2)


# ASCII "0"/"1" to the bytes 0/1, for itertools.compress.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _unpack(mask: int, base: int, step: int = 1) -> tuple[int, ...]:
    """The values base+step*i, rising, for each set bit i of `mask`."""
    # bin(mask)[:1:-1] is the bit string least-significant-first.
    flags = bin(mask)[:1:-1].encode("ascii").translate(_DIGIT_FLAGS)
    return tuple(compress(range(base, base + step * len(flags), step), flags))


def _scaled_offsets(el: tuple[int, ...]) -> tuple[list[int], int]:
    """The offsets (a - min A)/g, rising, and g, the gcd of the a - min A.

    A singleton's gcd is 0; it takes the step 1.
    """
    lo = el[0]
    offsets = list(map(lo.__rsub__, el))
    g = gcd(*offsets) or 1
    if g > 1:
        offsets = list(map(g.__rfloordiv__, offsets))
    return offsets, g


# The bitset kernels test whether they may stop after 8, 16, 32, ... shifts
# (from each end, for sums): log2|A| tests of O(span) each.
_FIRST_CHECK = 8


def _sum_mask(offsets: list[int], bits: int) -> int:
    """The mask with bit s set for each sum s of two offsets, from `bits`,
    the mask of the offsets themselves.

    Shifts by the outermost offsets first, o[0], o[n-1], o[1], o[n-2], ...
    After k shifts from each end, every sum with a summand among those 2k
    offsets is set.  A sum still unset is o[i] + o[j] with k <= i, j <= n-1-k,
    so it lies in the window [2*o[k], 2*o[n-1-k]], and every bit the shifts
    left can set lies there too.  Once the mask has every bit of the window,
    those shifts can add nothing, so the mask is final and the loop stops:
    exact, not a guess.  Dense sets miss sums only near their ends (Martin
    and O'Bryant), so they fill the window after a few shifts; a set whose
    middle elements' own sums leave a hole in it never does, and takes all
    |A| shifts.
    """
    n = len(offsets)
    acc = 0
    done, k = 0, _FIRST_CHECK
    while 2 * k < n:
        for o in offsets[done:k]:
            acc |= bits << o
        for o in offsets[n - k : n - done]:
            acc |= bits << o
        lo, hi = 2 * offsets[k], 2 * offsets[n - 1 - k]
        window = (1 << (hi - lo + 1)) - 1
        if (acc >> lo) & window == window:
            return acc
        done, k = k, 2 * k
    for o in offsets[done : n - done]:
        acc |= bits << o
    return acc


def _diff_mask(offsets: list[int], bits: int) -> int:
    """The mask with bit d set for each difference d >= 0 of two offsets, from
    `bits`, the mask of the offsets themselves.

    Shifts right by the offsets in rising order.  After k shifts the ones
    left, by o[k] .. o[n-1], each set bits only in [0, span - o[k]]: the
    difference a - b with b >= o[k] is at most span - o[k].  Once that
    prefix of the mask is full, the mask is final and the loop stops.  The
    large differences, which need one element near each end, all come from
    the first shifts; a dense set's prefix is full soon after.
    """
    n, span = len(offsets), offsets[-1]
    acc = 0
    done, k = 0, _FIRST_CHECK
    while k < n:
        for o in offsets[done:k]:
            acc |= bits >> o
        prefix = (1 << (span - offsets[k] + 1)) - 1
        if acc & prefix == prefix:
            return acc
        done, k = k, 2 * k
    for o in offsets[done:]:
        acc |= bits >> o
    return acc


def _merged(rows: Iterable[Iterable[int]]) -> list[int]:
    """The distinct values of the rising `rows`, rising.

    list.sort merges the rows as runs rather than sorting from scratch; then
    each value equal to its successor is dropped.
    """
    values: list[int] = []
    for row in rows:
        values.extend(row)
    values.sort()
    distinct = list(compress(values, map(ne, values, islice(values, 1, None))))
    distinct += values[-1:]
    return distinct


def _distinct(rows: Iterable[Iterable[int]]) -> int:
    """The number of distinct values in `rows`."""
    seen: set[int] = set()
    for row in rows:
        seen.update(row)
    return len(seen)


def _pair_rows(el: tuple[int, ...], diff: bool) -> Iterator[list[int]]:
    """The rising rows of A's pair sums, a + A[i:] for each element a = A[i];
    with `diff`, of its positive differences, A[i+1:] - a."""
    if diff:
        # The row of a = el[i-1] takes el[i:].
        for i, a in enumerate(el, 1):
            yield [b - a for b in el[i:]]
    else:
        for i, a in enumerate(el):
            yield [a + b for b in el[i:]]


def _takes_hash_path(A: IntSet, name: str = "A") -> bool:
    """Whether the kernel takes the hash path, making A's pair sums and
    differences as plain rows, counted through a set and merged only when
    read, rather than packing a bitset.

    The rows win when the pairs number fewer than the diameter and fit
    _PAIR_LIMIT; every other set packs, and the bitset path refuses one whose
    work passes _BITSET_WORK_LIMIT.  The refusal calls A `name`.
    """
    n2 = len(A) * len(A)
    if n2 < A.diameter and n2 <= _PAIR_LIMIT:
        return True
    if len(A) * (A.diameter + 1) > _BITSET_WORK_LIMIT:
        raise ValueError(
            f"|{name}| = {len(A)} is too large for a set of diameter {A.diameter}: "
            f"|{name}|*(diameter+1) exceeds the limit of {_BITSET_WORK_LIMIT}"
        )
    return False


def _check_sums(el: tuple[int, ...]) -> None:
    """Raise as the element check on the sorted A+A of the nonempty A with
    elements `el` would, without making A+A: name its first sum past
    SAFE_BOUND, 2*min A if that is below -SAFE_BOUND, else the least sum above
    SAFE_BOUND, a + the least b with a + b > SAFE_BOUND, by one bisect per a."""
    if 2 * el[0] < -SAFE_BOUND:
        raise _past_bound(2 * el[0])
    if 2 * el[-1] > SAFE_BOUND:
        n = len(el)
        raise _past_bound(min(a + el[i] for a in el if (i := bisect_right(el, SAFE_BOUND - a)) < n))


def _kernel_work(A: IntSet) -> int:
    """The work of sumset(A) and of diffset(A) on nonempty A, in bitset work
    units: |A|*(diameter+1) on the bitset path, and _HASH_PAIR_COST for each
    of the |A|^2 pairs on the hash path.  On a set they refuse it raises
    their ValueError."""
    hashed = _takes_hash_path(A)
    # When every sum is within the element bound, every difference is too, as
    # the diameter is at most 2*max|a|.
    _check_sums(A.elements)
    return len(A) * len(A) * _HASH_PAIR_COST if hashed else len(A) * (A.diameter + 1)


class _Memo:
    """What the kernel has worked out for the set A: on the bitset path the
    scaled offsets, their step and their packed mask, from which both A+A and
    A-A start (`operands`); the sumset and diffset it returned for A, or None."""

    __slots__ = ("A", "_operands", "sums", "diffs")

    def __init__(self, A: IntSet) -> None:
        self.A = A
        self._operands = self.sums = self.diffs = None

    def operands(self) -> tuple[list[int], int, int]:
        """The offsets (a - min A)/g, rising, g, and their packed mask."""
        ops = self._operands
        if ops is None:
            offsets, g = _scaled_offsets(self.A.elements)
            ops = self._operands = offsets, g, _packed(offsets, 0)
        return ops


# The memo of the last nonempty set the kernel was handed and did not refuse.
# Identity, not equality, picks it, as comparing a pending result unpacks it.
# Each call reads it once and then works on that memo alone, so threads need
# no lock: two that race to replace it each keep their own, and at worst the
# next call makes a memo again.
_last: _Memo | None = None


def _memo(A: IntSet) -> _Memo:
    """The memo of A: the last one if it is A's, else a new one, which replaces it."""
    global _last
    memo = _last
    if memo is None or memo.A is not A:
        memo = _last = _Memo(A)
    return memo


def sumset(A: IntSet) -> IntSet:
    """The set {a+b : a, b in A}.  The same A twice in a row gets the same
    object back."""
    if not A:
        return IntSet()
    hashed = _takes_hash_path(A)
    el = A.elements
    _check_sums(el)
    memo = _memo(A)
    result = memo.sums
    if result is None:
        if hashed:
            # Counted through a set, merged only when the elements are read.
            count = lambda: _distinct(_pair_rows(el, False))
            unpack = lambda: tuple(_merged(_pair_rows(el, False)))
        else:
            offsets, g, bits = memo.operands()
            mask, base = _sum_mask(offsets, bits), 2 * el[0]
            count, unpack = mask.bit_count(), lambda: _unpack(mask, base, g)
        result = memo.sums = _deferred(count, unpack)
    return result


def _mirrored(positive: Sequence[int]) -> tuple[int, ...]:
    """The difference set, symmetric about 0, whose positive part is `positive`."""
    return (*map(neg, reversed(positive)), 0, *positive)


def diffset(A: IntSet) -> IntSet:
    """The set {a-b : a, b in A}; symmetric about 0.  The same A twice in a
    row gets the same object back."""
    if not A:
        return IntSet()
    hashed = _takes_hash_path(A)
    if A.diameter > SAFE_BOUND:
        raise _past_bound(-A.diameter)
    el = A.elements
    memo = _memo(A)
    result = memo.diffs
    if result is None:
        # Only the positive differences are found; the rest is their mirror.
        if hashed:
            count = lambda: 2 * _distinct(_pair_rows(el, True)) + 1
            unpack = lambda: _mirrored(_merged(_pair_rows(el, True)))
        else:
            offsets, g, bits = memo.operands()
            mask = _diff_mask(offsets, bits) >> 1
            count, unpack = 2 * mask.bit_count() + 1, lambda: _mirrored(_unpack(mask, g, g))
        result = memo.diffs = _deferred(count, unpack)
    return result


def affine(A: IntSet, x: int, y: int) -> IntSet:
    """The image {x*a + y : a in A}; cardinality-preserving for x != 0."""
    if x == 0:
        raise ValueError("dilation factor must be nonzero")
    return make_set(x * a + y for a in A.elements)


def classify(A: IntSet) -> SetClass:
    """MSTD, MDTS or Balanced by comparing |A+A| with |A-A|."""
    if not A:
        return SetClass.BALANCED
    return _class_from_counts(len(sumset(A)), len(diffset(A)))


def _class_from_counts(sum_card: int, diff_card: int) -> SetClass:
    if sum_card > diff_card:
        return SetClass.MSTD
    if diff_card > sum_card:
        return SetClass.MDTS
    return SetClass.BALANCED


class SumDiffProfile(_Record):
    """Cardinality statistics of a set together with its sumset and diffset."""

    __slots__ = ("card", "sum_card", "diff_card", "diameter")

    @property
    def density(self) -> Fraction | None:
        """card/diameter as an exact rational; None at diameter 0."""
        return Fraction(self.card, self.diameter) if self.diameter else None

    @property
    def set_class(self) -> SetClass:
        """MSTD, MDTS or Balanced by comparing |A+A| with |A-A|."""
        return _class_from_counts(self.sum_card, self.diff_card)


def profile(A: IntSet) -> SumDiffProfile:
    """Full profile of a nonempty set."""
    if not A:
        raise ValueError("cannot profile the empty set")
    return SumDiffProfile(len(A), len(sumset(A)), len(diffset(A)), A.diameter)


def residue_count(A: IntSet, n: int) -> int:
    """Number of distinct residues of A modulo n (mathematical modulus)."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    return len({v % n for v in A.elements})


def format_density(value: Fraction | None) -> str:
    """A nonnegative rational to 3 decimals, ties rounding up, or N/A when it is
    undefined (None): a density at diameter 0, or a ratio with no previous row."""
    if value is None:
        return "N/A"
    n, d = value.numerator, value.denominator
    if n < 0:
        raise ValueError("only nonnegative values are rendered")
    scaled = (2000 * n + d) // (2 * d)
    return f"{scaled // 1000}.{scaled % 1000:03d}"


# One value, or the inclusive range a..b.
_TOKEN = re.compile(r"(-?\d+)(?:\.\.(-?\d+))?")
# Plain comma-separated ASCII ints, as format_set_literal writes.
_PLAIN = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")
_RANGE_LIMIT = 1 << 24


def parse_set_literal(text: str) -> IntSet:
    """Parse `-7,0,5,8,15` style literals; `a..b` is the inclusive interval.

    A plain literal, as format_set_literal writes, is read by one split and
    an int per value, any other token by token, with the same result.
    """
    body = text.strip()
    if not body:
        return IntSet()
    # Every token holds at least one value, so count them before splitting.
    if body.count(",") >= _RANGE_LIMIT:
        raise ValueError(f"set literal holds more than {_RANGE_LIMIT} values")
    if _PLAIN.fullmatch(body):
        return make_set(map(int, body.split(",")))
    values: list[int] = []
    for token in body.split(","):
        tok = token.strip()
        m = _TOKEN.fullmatch(tok)
        if m is None:
            raise ValueError(f"bad set-literal token {tok!r}")
        if m[2] is None:
            values.append(int(tok))
            continue
        a, b = int(m[1]), int(m[2])
        if a > b:
            raise ValueError(f"range {tok!r} needs its start <= end")
        if b - a >= _RANGE_LIMIT:
            raise ValueError(f"range {tok!r} spans more than {_RANGE_LIMIT} values")
        if len(values) + b - a + 1 > _RANGE_LIMIT:
            raise ValueError(f"set literal holds more than {_RANGE_LIMIT} values")
        values.extend(range(a, b + 1))
    # Single values after the last range are counted here, before dedupe.
    if len(values) > _RANGE_LIMIT:
        raise ValueError(f"set literal holds more than {_RANGE_LIMIT} values")
    return make_set(values)


def format_set_literal(A: IntSet) -> str:
    """Canonical comma-separated rendering; inverse of parse_set_literal."""
    return ",".join(map(str, A.elements))
