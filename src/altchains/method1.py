"""Alternating chain built by copying the base set around a modulus.

With a sum-dominated base A (min 0) and a modulus n > max(A) satisfying the
two admissibility conditions, the chain alternates

    A_{2l}   = A_{2l-1} union {l*n}          (difference-dominated)
    A_{2l+1} = A_{2l-1} union (A + l*n)      (sum-dominated)

Each appended copy lands strictly above everything before it, so no hole is
ever filled.
"""

from __future__ import annotations

from .chains import Chain, MethodTag, _grow
from .intset import IntSet, SetClass, _class_from_counts, diffset, residue_count, sumset
from .intset import _Record, _takes_hash_path


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
    """Evaluate both admissibility conditions of modulus n for base A."""
    return _evaluate(A, n, *_base_counts(A))


def search_moduli(A: IntSet) -> list[int]:
    """All admissible moduli in (max A, 2*max A], ascending.

    Let M = max A, S = A+A, D = A-A and n > M.  A residue class mod n holds
    at most two sums (s, s+n) and two differences, so the first condition
    reads |S| - #{s : s+n in S} = |D| - #{t : t+n in D}.  As |S| > |D| for an
    MSTD base, it needs s and s+n in S: only n in S-S is tried, however wide A.
    """
    sums, diffs = _base_counts(A)
    _takes_hash_path(sums, "A+A")  # a refusal of diffset(sums) names A+A, not A
    candidates = diffset(sums).within(A.max + 1, 2 * A.max)
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
    rest = A.elements[1:]
    def new_at(j: int) -> tuple[int, ...]:
        shift = (j + 1) // 2 * n
        return (shift,) if j % 2 else tuple(a + shift for a in rest)
    return _grow(A, new_at, steps, MethodTag.METHOD1)
