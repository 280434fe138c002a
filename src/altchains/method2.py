"""Alternating chain with the minimal growth rate of one element per step.

Starting from a base construction with m divisible by 4 and d in {m/4, 3m/4},
the first chain member is A1 = A union {-d, (k+1)m-d}.  Each round r then
appends one element above and one below:

    A_{2r}   = A_{2r-1} union {(k+r+1)m - d}     (difference-dominated)
    A_{2r+1} = A_{2r}   union {-rm - d}          (sum-dominated)

Removing m from any odd-position member leaves a set symmetric about
a* = (k+1)m - 2d; the verifier checks the four coverage/cardinality
identities that the symmetry argument rests on.
"""

from __future__ import annotations

from .chains import Chain, MethodTag, ValidationReport, _accumulator, _grow
from .intset import IntSet, SumDiffProfile
from .nathanson import NathansonParams


def _first_member(params: NathansonParams) -> IntSet:
    """The base with its symmetric fringe pair attached."""
    m, d, k = params.m, params.d, params.k
    if m % 4 != 0:
        raise ValueError(f"m must be divisible by 4, got {m}")
    if d not in (m // 4, 3 * m // 4):
        raise ValueError(f"d must be m/4 or 3m/4, got d={d} for m={m}")
    return params.A.union([-d, (k + 1) * m - d])


def _check_first_member(params: NathansonParams, p: SumDiffProfile) -> None:
    # Guaranteed by construction; a failure means the formulas above are wrong.
    if p.sum_card != p.diff_card + 1:
        raise RuntimeError(
            f"self-check failed: first member for (m={params.m}, d={params.d}, "
            f"k={params.k}) has {p.sum_card} sums vs {p.diff_card} differences"
        )


def generate_chain_m2(params: NathansonParams, steps: int) -> Chain:
    """Generate the first `steps` sets of the one-element-per-step chain."""
    m, d, k = params.m, params.d, params.k
    # Round r appends (k+r+1)m - d above, then -rm - d below.
    period = ((((k + 2) * m - d, m),), ((-m - d, -m),))
    chain = _grow(_first_member(params), period, steps, MethodTag.METHOD2)
    # The chain has profiled the first member already; check it from there.
    _check_first_member(params, chain.profiles[0])
    return chain


def verify_star_identities(params: NathansonParams, chain: Chain) -> ValidationReport:
    """Check the four symmetric-core identities at every odd chain position.

    For each odd-position member A with core A* = A minus {m}:

      star-diff-cover:  m - A* is contained in A* - A*
      star-sum-cover:   m + A* is contained in A* + A*
      sum-card-offset:  |A+A| = |A*+A*| + 1
      diff-card-match:  |A-A| = |A*-A*|

    Witnesses are the first uncovered element (coverage checks) or the
    (observed, core) cardinality pair.  Each core is the last one plus what
    the two members since then append (chain.appends), minus m, so their sums
    and differences are kept as masks and only extended; a member that does
    not append rebuilds them.
    """
    m = params.m
    # The cores lie in the chain's hull, and its members have been priced.
    acc = _accumulator(chain.sets, chain.appends)
    failures = []
    for idx in range(1, len(chain.sets) + 1, 2):
        star = chain.sets[idx - 1].without(m)
        steps = chain.appends[idx - 2 : idx] if idx > 1 else (None,)
        acc.advance(star, None if None in steps else [x for step in steps for x in step if x != m])
        diff_gap, sum_gap = acc.first_missing_diff(m), acc.first_missing_sum(m)
        star_sums, star_diffs = acc.counts()
        if diff_gap is not None:
            failures.append((idx, "star-diff-cover", diff_gap))
        if sum_gap is not None:
            failures.append((idx, "star-sum-cover", sum_gap))
        p = chain.profiles[idx - 1]
        if p.sum_card != star_sums + 1:
            failures.append((idx, "sum-card-offset", (p.sum_card, star_sums)))
        if p.diff_card != star_diffs:
            failures.append((idx, "diff-card-match", (p.diff_card, star_diffs)))
    return ValidationReport.from_failures(failures)
