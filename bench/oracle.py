"""Expected answers computed apart from the program under test.

Nothing here imports `altchains`.  The chain constructions are rebuilt from
their definitions, counts come from a naive double loop or from squaring the
set's indicator polynomial with Python integers, and the modulus search
evaluates the two admissibility conditions directly.
"""

from __future__ import annotations

import hashlib
from array import array
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Iterator

CONWAY = (0, 2, 3, 4, 7, 11, 12, 14)

# Growth tables as printed in the paper: (|A+A|, |A-A|, |A|, diam A), A1 first.
TABLE_1 = [(26, 25, 8, 14), (30, 33, 9, 17), (60, 59, 16, 31), (64, 67, 17, 34),
           (94, 93, 24, 48), (98, 101, 25, 51), (128, 127, 32, 65)]
TABLE_1_DENSITY = ["0.571", "0.529", "0.516", "0.500", "0.500", "0.490", "0.492"]
TABLE_2 = [(32, 31, 10, 16), (36, 37, 11, 20), (40, 39, 12, 24), (44, 45, 13, 28),
           (48, 47, 14, 32), (52, 53, 15, 36), (56, 55, 16, 40)]
TABLE_3 = [(98, 97, 23, 56), (102, 103, 24, 60), (106, 105, 25, 64), (110, 111, 26, 65),
           (114, 113, 27, 66), (118, 119, 28, 70), (122, 121, 29, 74), (126, 127, 30, 75),
           (130, 129, 31, 76)]
PAPER_TABLES = {1: TABLE_1, 2: TABLE_2, 3: TABLE_3}


# ----------------------------------------------------------------- counting

def naive_counts(values) -> tuple[int, int]:
    """(|A+A|, |A-A|) by the double loop; for small sets."""
    vals = list(values)
    return len({a + b for a in vals for b in vals}), len({a - b for a in vals for b in vals})


_ZERO_COUNTERS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def poly_counts(values) -> tuple[int, int]:
    """(|A+A|, |A-A|) from P(x)^2 and P(x)P(1/x), P the indicator polynomial.

    Each coefficient gets `width` bytes, enough to hold |A| representations,
    so a sum or difference is present iff its coefficient chunk is nonzero.
    """
    vals = sorted(set(values))
    lo, hi = vals[0], vals[-1]
    span = hi - lo
    width = next(w for w in (1, 2, 4, 8) if 256**w > len(vals))
    up, down = bytearray((span + 1) * width), bytearray((span + 1) * width)
    for v in vals:
        up[(v - lo) * width] = 1
        down[(hi - v) * width] = 1
    p = int.from_bytes(up, "little")
    q = int.from_bytes(down, "little")
    size = (2 * span + 1) * width

    def nonzero(poly: int) -> int:
        chunks = array(_ZERO_COUNTERS[width])
        if chunks.itemsize != width:
            raise RuntimeError(f"no {width}-byte array type on this platform")
        chunks.frombytes(poly.to_bytes(size, "little"))
        return len(chunks) - chunks.count(0)

    return nonzero(p * p), nonzero(p * q)


def interval_counts(n: int) -> tuple[int, int]:
    """An n-term arithmetic progression has 2n-1 sums and 2n-1 differences."""
    return 2 * n - 1, 2 * n - 1


def sidon_counts(n: int) -> tuple[int, int]:
    """A Sidon set of n elements: all pair sums and differences are distinct."""
    return n * (n + 1) // 2, n * (n - 1) + 1


def erdos_turan(p: int) -> list[int]:
    """The Sidon set {2pk + (k^2 mod p) : 0 <= k < p} for a prime p."""
    return [2 * p * k + (k * k) % p for k in range(p)]


def class_of(sums: int, diffs: int) -> str:
    if sums > diffs:
        return "MSTD"
    if diffs > sums:
        return "MDTS"
    return "Balanced"


def format_3dp(value: Fraction) -> str:
    """Three decimals, ties rounding up, via Decimal."""
    exact = Decimal(value.numerator) / Decimal(value.denominator)
    return str(exact.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


# ------------------------------------------------------------ constructions

def admissible_moduli(base) -> list[int]:
    """Moduli n in (max A, 2 max A] meeting both conditions of method 1.

    cond1: A+A and A-A meet the same number of residues mod n.
    cond2: 2y - x - 1 > |A+A| - |A-A|, where x counts a in A with n+a
    outside A+A and y counts b in A with n-b outside A-A.
    """
    A = sorted(base)
    sums = {a + b for a in A for b in A}
    diffs = {a - b for a in A for b in A}
    out = []
    for n in range(A[-1] + 1, 2 * A[-1] + 1):
        x = sum(1 for a in A if n + a not in sums)
        y = sum(1 for b in A if n - b not in diffs)
        cond1 = len({s % n for s in sums}) == len({d % n for d in diffs})
        if cond1 and 2 * y - x - 1 > len(sums) - len(diffs):
            out.append(n)
    return out


def m1_sets(base, n: int, steps: int) -> Iterator[tuple[int, ...]]:
    """Method 1: A_{2l} = A_{2l-1} + {ln}, A_{2l+1} = A_{2l-1} + (A + ln)."""
    cur = set(base)
    for i in range(1, steps + 1):
        l = i // 2
        if i % 2:
            cur |= {a + l * n for a in base}
            yield tuple(sorted(cur))
        else:
            yield tuple(sorted(cur | {l * n}))


def nathanson_base(m: int, d: int, k: int) -> tuple[int, ...]:
    """A = B + L + (a* - B) + {m}; B = [0, m-1] minus d, L = {jm - d}."""
    B = set(range(m)) - {d}
    L = {j * m - d for j in range(1, k + 1)}
    a_star = (k + 1) * m - 2 * d
    return tuple(sorted(B | L | {a_star - b for b in B} | {m}))


def m2_sets(m: int, d: int, k: int, steps: int) -> Iterator[tuple[int, ...]]:
    """Method 2: A1 = A + {-d, (k+1)m-d}; then (k+r+1)m-d and -rm-d by turns."""
    cur = set(nathanson_base(m, d, k)) | {-d, (k + 1) * m - d}
    for i in range(1, steps + 1):
        r = i // 2
        if i > 1:
            cur.add((k + r + 1) * m - d if i % 2 == 0 else -r * m - d)
        yield tuple(sorted(cur))


def m3_set(i: int) -> tuple[int, ...]:
    """Method 3, member i = 4k + phase, in the paper's closed form."""
    k, phase = (i - 1) // 4, (i - 1) % 4 + 1
    core = {-7, 0, 5, 8, 15} | {5 * l + e for l in range(-k - 5, k + 7) for e in (1, 2)}
    core -= {-9, 1, 2, 6, 7, 17}
    extra = {1: (), 2: (5 * k + 36,), 3: (-5 * k - 28, 5 * k + 36),
             4: (-5 * k - 28, 5 * k + 36, 5 * k + 37)}[phase]
    return tuple(sorted(core | set(extra)))


def chain_sets(method: int, params, steps: int) -> Iterator[tuple[int, ...]]:
    """The members of a chain, one at a time: method 1 on the Conway set with
    modulus `params`, method 2 with (m, d, k) = `params`, or method 3."""
    if method == 1:
        return m1_sets(CONWAY, params, steps)
    if method == 2:
        return m2_sets(*params, steps)
    return (m3_set(i) for i in range(1, steps + 1))


def chain_digest(members) -> str:
    """SHA-256 of the members written one a line as comma-separated values."""
    digest = hashlib.sha256()
    for s in members:
        digest.update(",".join(map(str, s)).encode() + b"\n")
    return digest.hexdigest()


# Per-period growth of (|A+A|, |A-A|, |A|, diam A); README derives each.
def m1_increment(base, n: int) -> tuple[int, int, int, int]:
    return 2 * n, 2 * n, len(base), n


def m2_increment(m: int) -> tuple[int, int, int, int]:
    return 2 * m, 2 * m, 2, 2 * m


M3_INCREMENT = (16, 16, 4, 10)


def first_period_counts(sets) -> list[tuple[int, int, int, int]]:
    """(|A+A|, |A-A|, |A|, diam) of each member of a chain's first period, by
    the double loop."""
    return [(*naive_counts(s), len(s), s[-1] - s[0]) for s in sets]


def member_counts(first, increment, i: int) -> tuple[int, int, int, int]:
    """(|A+A|, |A-A|, |A|, diam) of member i (1-based): its first-period
    counterpart's counts plus `increment` once per period."""
    q, r = divmod(i - 1, len(first))
    return tuple(f + q * inc for f, inc in zip(first[r], increment))


def nesting_failures(sets) -> list[tuple[int, str]]:
    """Strict inclusion and no filling in, checked on consecutive members."""
    bad = []
    for i in range(1, len(sets)):
        prev, cur = set(sets[i - 1]), set(sets[i])
        if not prev < cur:
            bad.append((i + 1, "strict-inclusion"))
            continue
        lo, hi = sets[i - 1][0], sets[i - 1][-1]
        if any(lo <= v <= hi for v in cur - prev):
            bad.append((i + 1, "no-filling-in"))
    return bad


def table_rows(number: int) -> list[list[str]]:
    """CSV cells of a paper table: ratios and densities rendered here."""
    rows, prev = [], None
    for i, (s, d, c, diam) in enumerate(PAPER_TABLES[number], start=1):
        card_ratio = "N/A" if prev is None else format_3dp(Fraction(c, prev[2]))
        diam_ratio = "N/A" if prev is None else format_3dp(Fraction(diam, prev[3]))
        rows.append([f"A{i}", str(s), str(d), str(c), str(diam), card_ratio, diam_ratio,
                     format_3dp(Fraction(c, diam))])
        prev = (s, d, c, diam)
    return rows
