"""Alternating chain built by copying the base set around a modulus.

With a sum-dominated base A (min 0) and a modulus n > max(A) satisfying the
two admissibility conditions, the chain alternates

    A_{2l}   = A_{2l-1} union {l*n}          (difference-dominated)
    A_{2l+1} = A_{2l-1} union (A + l*n)      (sum-dominated)

Each appended copy lands strictly above everything before it, so no hole is
ever filled.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence

from .chains import Chain, MethodTag, _grow
from .intset import IntSet, SetClass, _class_from_counts, diffset, residue_count, sumset
from .intset import _packed, _Record, _takes_hash_path

# The modulus search multiplies masks of up to this many bits; two such
# operands multiply in about 1.4 s (CPython's Karatsuba, 2 vCPUs), so the four
# products take about 5 s at most.  A base past it takes the candidate loop.
_PRODUCT_BIT_LIMIT = 1 << 22

# The candidate loop makes, per modulus tried, a pass over A+A, one over A-A
# and two over A; it refuses more such steps than this, which would take at
# least half a minute (100-170 ns a step on 2 vCPUs).
_SEARCH_WORK_LIMIT = 1 << 28


class Method1Params(_Record):
    """Counters behind the two admissibility conditions for (base, n).

    x counts a in base with n+a outside base+base; y counts b in base with
    n-b outside base-base.  cond1 asks for equal residue counts of sumset and
    diffset mod n; cond2 asks 2y-x-1 to beat the sum-difference gap.
    """

    __slots__ = ("x", "y", "sum_residues", "diff_residues", "cond1", "cond2")

    @property
    def valid(self) -> bool:
        return self.cond1 and self.cond2


def _base_counts(A: IntSet) -> tuple[IntSet, IntSet]:
    """A+A and A-A of a valid base; raises if A is not one."""
    if not A or A.min != 0:
        raise ValueError("base must contain 0 as its minimum element")
    sums, diffs = sumset(A), diffset(A)
    # The callers read the elements; a len() before that runs a second count.
    if _class_from_counts(len(sums.elements), len(diffs.elements)) is not SetClass.MSTD:
        raise ValueError("base must be sum-dominated")
    return sums, diffs


def _evaluate(A: IntSet, n: int, sums: IntSet, diffs: IntSet) -> Method1Params:
    """Both conditions of modulus n, from the base's sums and differences."""
    if n <= A.max:
        raise ValueError(f"modulus must exceed max(base) = {A.max}, got {n}")
    x = sum(1 for a in A if n + a not in sums)
    y = sum(1 for b in A if n - b not in diffs)
    sum_residues = residue_count(sums, n)
    diff_residues = residue_count(diffs, n)
    cond2 = 2 * y - x - 1 > len(sums) - len(diffs)
    return Method1Params(x, y, sum_residues, diff_residues, sum_residues == diff_residues, cond2)


def analyze_modulus(A: IntSet, n: int) -> Method1Params:
    """Evaluate both admissibility conditions of modulus n for base A.

    For every n > max A its counters give each member's counts in the chain
    of (A, n).  With R_S, R_D the residue counts of A+A and A-A mod n, and
    P_S = |A+A| - R_S, P_D = |A-A| - R_D:
    - |A_{2l+1} + A_{2l+1}| = (2l+1)*R_S + P_S and
      |A_{2l+1} - A_{2l+1}| = (2l+1)*R_D + P_D, as A_{2l+1} + A_{2l+1} is the
      union of A+A + jn for 0 <= j <= 2l and a residue class of A+A holds one
      sum or two, s and s+n (likewise for the differences, j from -l to l);
    - A_{2l} adds to A_{2l-1} the x+1 sums 2ln and a + (2l-1)n with n+a
      outside A+A, and the 2y differences +-(ln - b) with n-b outside A-A.
    """
    return _evaluate(A, n, *_base_counts(A))


def _convolution(f: Sequence[int], g: Sequence[int], width: int, lo: int, hi: int) -> list[int]:
    """For each k in [lo, hi], rising, the pairs of f x g that sum to k.

    f and g are rising and nonnegative.  Their masks hold a 1 in slot v for
    each element v, and a slot of `width` bits is the digit of X**v at
    X = 2**width.  Their product then holds the count for k in slot k.  No
    count exceeds min(|f|, |g|), so with `width` its bit length no slot
    carries into the next.
    """
    F = _packed(f, 0, width)
    product = F * F if f is g else F * _packed(g, 0, width)
    bits = width * (hi - lo + 1)
    digits = format((product >> width * lo) & ((1 << bits) - 1), f"0{bits}b")
    return [int(digits[i - width : i], 2) for i in range(bits, 0, -width)]


def _window_counts(
    A: IntSet, sums: IntSet, diffs: IntSet
) -> tuple[list[int], list[int], list[int], list[int]] | None:
    """#{a : n+a in S}, #{b : n-b in D}, #{s : s+n in S} and #{t : t+n in D}
    for each n in (M, 2M], rising, where M = max A, S = A+A and D = A-A; None
    if a product would take an operand past _PRODUCT_BIT_LIMIT bits.

    Each is a count of pairs with a given sum (_convolution), read at every n
    from one product:
    - s + n = t in S, with s < M < t, reads s + (2M - t) = 2M - n, and
      a + n = t in S reads a + (2M - t) = 2M - n;
    - as D = -D, t and t + n in D, with t < 0 < t + n, read (-t) + (t + n) = n,
      and n - b in D reads b + (n - b) = n, with n - b in D+ = D & (0, M].
    """
    M, s, d = A.max, sums.elements, diffs.elements
    low = s[: bisect_left(s, M)]
    top = [2 * M - t for t in reversed(s[bisect_right(s, M) :])]
    pos = d[bisect_right(d, 0) :]
    operands = ((A.elements, top), (low, top), (A.elements, pos), (pos, pos))
    pairs = [(f, g, min(len(f), len(g)).bit_length()) for f, g in operands]
    if max(w * (max(f[-1], g[-1]) + 1) for f, g, w in pairs) > _PRODUCT_BIT_LIMIT:
        return None
    hits_s, pairs_s = (_convolution(*p, 0, M - 1)[::-1] for p in pairs[:2])
    hits_d, pairs_d = (_convolution(*p, M + 1, 2 * M) for p in pairs[2:])
    return hits_s, hits_d, pairs_s, pairs_d


def search_moduli(A: IntSet) -> list[int]:
    """All admissible moduli in (max A, 2*max A], ascending.

    Let M = max A, S = A+A in [0, 2M] and D = A-A in [-M, M].  For n > M a
    residue class mod n holds at most two sums, s and s+n (s+2n > 2M), and
    likewise two differences.  So the residue counts are |S| - P_S(n) and
    |D| - P_D(n), with P_S(n) = #{s : s+n in S} and P_D(n) = #{t : t+n in D},
    and the first condition reads P_S(n) - P_D(n) = |S| - |D|.  The second
    needs x(n) = |A| - #{a : n+a in S} and y(n) = |A| - #{b : n-b in D}.

    When the kernel packs S as a bitset, the four counts come for every n at
    once from four big-int products (_window_counts).  When it would hash S
    (a sparse or wide base), or the products are too wide, each candidate is
    evaluated in turn.  As |S| > |D|, the first condition needs s and s+n in
    S, so only n in S-S is tried, however wide A; more than
    _SEARCH_WORK_LIMIT steps of that loop are refused before it starts.
    """
    sums, diffs = _base_counts(A)
    # A refusal of S here names A+A, not A.
    counts = None if _takes_hash_path(sums, "A+A") else _window_counts(A, sums, diffs)
    if counts is not None:
        gap = len(sums) - len(diffs)
        # 2y - x - 1 = |A| + #{a : n+a in S} - 2 #{b : n-b in D} - 1.
        return [
            n
            for n, (hits_s, hits_d, pairs_s, pairs_d) in enumerate(zip(*counts), A.max + 1)
            if pairs_s - pairs_d == gap and len(A) + hits_s - 2 * hits_d - 1 > gap
        ]
    candidates = diffset(sums).within(A.max + 1, 2 * A.max)
    work = len(candidates) * (len(sums) + len(diffs) + 2 * len(A))
    if work > _SEARCH_WORK_LIMIT:
        raise ValueError(
            f"searching {len(candidates)} moduli over |A+A| = {len(sums)} and "
            f"|A-A| = {len(diffs)} takes {work} steps, past the limit of {_SEARCH_WORK_LIMIT}"
        )
    return [n for n in candidates if _evaluate(A, n, sums, diffs).valid]


def generate_chain_m1(A: IntSet, n: int, steps: int) -> Chain:
    """Generate the first `steps` sets of the alternating chain for (A, n)."""
    params = analyze_modulus(A, n)
    if not params.cond1:
        raise ValueError(
            f"n={n}: sumset has {params.sum_residues} residues mod n but "
            f"diffset has {params.diff_residues}"
        )
    if not params.cond2:
        raise ValueError(
            f"n={n}: 2y-x-1 = {2 * params.y - params.x - 1} does not exceed "
            f"the sum-difference gap of the base"
        )
    # Member 2l appends l*n, and member 2l+1 the rest of A + l*n (min A is 0).
    period = (((n, n),), tuple((a + n, n) for a in A.elements[1:]))
    return _grow(A, period, steps, MethodTag.METHOD1)
