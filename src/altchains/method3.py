"""Closed-form alternating family with period-4 structure.

For block k >= 0 the four members are

    phase 1:  {-7,0,5,8,15} union (5*[-k-5, k+6] + {1,2}) minus the six
              excluded values {-9, 1, 2, 6, 7, 17}
    phase 2:  phase 1 union {5k+36}
    phase 3:  phase 1 union {-5k-28, 5k+36}
    phase 4:  phase 3 union {5k+37}

and phase 1 of block k+1 is phase 4 of block k union {-5k-29}.
Phases 1 and 3 are sum-dominated: removing 5 leaves a set symmetric about 8
whose sumset misses 10, and 5+5 restores exactly that one sum.  Phases 2 and
4 each add 4 new sums but 6 new differences.
"""

from __future__ import annotations

from .chains import Chain, MethodTag, _grow
from .intset import _RANGE_LIMIT, IntSet, diffset, make_set, sumset

CORE_ELEMENTS = (-7, 0, 5, 8, 15)
EXCLUDED = frozenset((-9, 1, 2, 6, 7, 17))
# What phases 2, 3, 4 of block k and phase 1 of block k+1 append, as
# (element at k = 0, shift per block).
_PERIOD = (((36, 5),), ((-28, -5),), ((37, 5),), ((-29, -5),))


def phase1_set(k: int) -> IntSet:
    """The block-k phase-1 member from its compact description.  A block
    whose members could hold more than _RANGE_LIMIT elements (its phase-4
    member holds 4k + 26) is refused before any is built."""
    if 4 * k + 26 > _RANGE_LIMIT:
        raise ValueError(f"block {k} holds members of more than {_RANGE_LIMIT} elements")
    prog = (5 * l + delta for l in range(-k - 5, k + 7) for delta in (1, 2))
    kept = set(CORE_ELEMENTS).union(prog).difference(EXCLUDED)
    return make_set(kept)


def set_m3(i: int) -> IntSet:
    """The chain member at 1-based position `i` in closed form."""
    if i < 1:
        raise ValueError(f"chain index must be >= 1, got {i}")
    k, r = divmod(i - 1, 4)
    return phase1_set(k).union(x + k * shift for slot in _PERIOD[:r] for x, shift in slot)


def generate_chain_m3(steps: int) -> Chain:
    """The first `steps` members of the closed-form chain."""
    return _grow(phase1_set(0), _PERIOD, steps, MethodTag.METHOD3)


def delta_counts(i: int) -> tuple[int, int]:
    """(new sums, new differences) contributed by a phase-2 or phase-4 member.

    Phases 1 and 3 grow by a symmetric pair and are accounted for by the
    symmetry argument instead, so they are rejected here.
    """
    phase = (i - 1) % 4 + 1
    if phase not in (2, 4):
        raise ValueError(
            f"delta counting applies to phases 2 and 4; index {i} is phase {phase}"
        )
    cur, prev = set_m3(i), set_m3(i - 1)
    # prev is a subset of cur, so its sums and differences are among cur's:
    # the new ones number exactly what the counts gain.
    return len(sumset(cur)) - len(sumset(prev)), len(diffset(cur)) - len(diffset(prev))
