"""Base MSTD construction from a punctured interval and a symmetric frame.

Given m, d, k the pieces are

    B   = [0, m-1] minus {d}
    L   = {m-d, 2m-d, ..., km-d}
    a*  = (k+1)m - 2d
    A*  = B union L union (a* - B)      (symmetric about a*)
    A   = A* union {m}                  (sum-dominated)

Adding m breaks the symmetry by exactly one sum: 2m lands in A+A but not in
A*+A*, while every difference it creates was already present.
"""

from __future__ import annotations

from .intset import (
    _RANGE_LIMIT,
    IntSet,
    SetClass,
    _class_from_counts,
    _Record,
    affine,
    diffset,
    interval,
    make_set,
    sumset,
)


class NathansonParams(_Record):
    """Validated (m, d, k) with its base A; B, L, a* and A* derive from them."""

    __slots__ = ("m", "d", "k", "A")


def k_min(m: int, d: int) -> int:
    """The shortest ladder the construction allows: 3 when d < m/2, else 4."""
    return 3 if 2 * d < m else 4


def size_bound(m: int, k: int) -> int:
    """The most elements an (m, d, k) base holds: 2(m-1) + k + 1."""
    return 2 * (m - 1) + k + 1


def build_base(m: int, d: int, k: int) -> NathansonParams:
    """Construct and self-check the MSTD base set for (m, d, k); refuse,
    before building it, one that could hold more than _RANGE_LIMIT elements."""
    if m < 4:
        raise ValueError(f"m must be >= 4, got {m}")
    if not 1 <= d <= m - 1:
        raise ValueError(f"d must lie in [1, {m - 1}], got {d}")
    if 2 * d == m:
        raise ValueError(f"d = m/2 is excluded (d={d}, m={m})")
    least = k_min(m, d)
    if k < least:
        raise ValueError(f"k must be >= {least} when d {'<' if least == 3 else '>'} m/2, got {k}")
    if size_bound(m, k) > _RANGE_LIMIT:
        raise ValueError(f"a base for m={m}, k={k} could hold more than {_RANGE_LIMIT} elements")

    B = interval(0, m - 1).without(d)
    L = make_set(j * m - d for j in range(1, k + 1))
    a_star = (k + 1) * m - 2 * d
    # a* - B is the affine image of B under x=-1, y=a*: one arithmetic path.
    A_star = B.union(L).union(affine(B, -1, a_star))
    A = A_star.union([m])

    # The construction guarantees both facts; failing here means a bug above.
    S = sumset(A)
    if _class_from_counts(len(S), len(diffset(A))) is not SetClass.MSTD:
        raise RuntimeError(f"self-check failed: base for (m={m}, d={d}, k={k}) is not MSTD")
    if 2 * m not in S or 2 * m in sumset(A_star):
        raise RuntimeError(f"self-check failed: 2m not a fresh sum for (m={m}, d={d}, k={k})")

    return NathansonParams(m, d, k, A)


def check_interval_lemma(m: int, r: int) -> bool:
    """Whether [0,m-1] minus {r} has full interval sumset and diffset.

    B keeps 0 and m-1, so B+B lies in [0, 2m-2] and B-B in [-(m-1), m-1],
    each 2m-1 integers: they are full exactly when they count 2m-1."""
    if m < 4:
        raise ValueError(f"m must be >= 4, got {m}")
    if not 2 <= r <= m - 3:
        raise ValueError(f"r must lie in [2, {m - 3}], got {r}")
    B = interval(0, m - 1).without(r)
    return len(sumset(B)) == len(diffset(B)) == 2 * m - 1
