import random

import pytest

from altchains import CONWAY_SET, Chain, build_base


def naive_sumset(values) -> set[int]:
    """Independent double-loop oracle for {a+b : a, b in A}."""
    vals = list(values)
    return {a + b for a in vals for b in vals}


def naive_diffset(values) -> set[int]:
    """Independent double-loop oracle for {a-b : a, b in A}."""
    vals = list(values)
    return {a - b for a in vals for b in vals}


def valid_param_triples(max_m, max_k):
    """Every (m, d, k) that build_base accepts, up to max_m and max_k."""
    for m in range(4, max_m + 1):
        for d in range(1, m):
            if 2 * d == m:
                continue
            k_min = 3 if 2 * d < m else 4
            for k in range(k_min, max_k + 1):
                yield m, d, k


def spot_check_no_fill(chain: Chain, pairs: int = 20, seed: int = 0) -> bool:
    """Directly test (A_n minus A_k) against hull(A_k) on random index pairs."""
    rng = random.Random(seed)
    if len(chain) < 2:
        return True
    for _ in range(pairs):
        k = rng.randrange(1, len(chain))
        n = rng.randrange(k + 1, len(chain) + 1)
        early, late = chain.set_at(k), chain.set_at(n)
        fresh = set(late) - set(early)
        if any(early.min <= v <= early.max for v in fresh):
            return False
    return True


@pytest.fixture
def conway():
    return CONWAY_SET


@pytest.fixture
def conway_params():
    """The (m=4, d=1, k=3) base construction, whose A is the Conway set."""
    return build_base(4, 1, 3)
