import time

import pytest

import altchains.intset
import altchains.nathanson
from altchains import (
    SetClass,
    affine,
    build_base,
    check_interval_lemma,
    classify,
    interval,
    make_set,
    sumset,
)

from conftest import valid_param_triples


class TestBuildBase:
    def test_conway_derivation(self, conway, conway_params):
        p = conway_params
        assert (p.m, p.d, p.k) == (4, 1, 3)
        # B = {0, 2, 3}, L = {3, 7, 11} and a* = 14, so A* = B u L u (a* - B).
        assert p.A.without(p.m) == make_set([0, 2, 3, 7, 11, 12, 14])
        assert p.A == conway

    def test_d_half_m_rejected(self):
        with pytest.raises(ValueError, match=r"d = m/2 is excluded \(d=2, m=4\)"):
            build_base(4, 2, 3)

    def test_large_d_needs_larger_k(self):
        with pytest.raises(ValueError, match="k must be >= 4 when d > m/2, got 3"):
            build_base(8, 6, 3)
        build_base(8, 6, 4)

    @pytest.mark.parametrize(
        "m, d, k, fault",
        [
            (3, 1, 3, "m must be >= 4, got 3"),
            (4, 0, 3, r"d must lie in \[1, 3\], got 0"),
            (4, 4, 3, r"d must lie in \[1, 3\], got 4"),
            (5, 1, 2, "k must be >= 3 when d < m/2, got 2"),
        ],
        ids=["3-1-3", "4-0-3", "4-4-3", "5-1-2"],
    )
    def test_out_of_range(self, m, d, k, fault):
        with pytest.raises(ValueError, match=fault):
            build_base(m, d, k)

    def test_size_refused_before_building(self, monkeypatch):
        # (4, 1, 3) holds at most 2*3 + 3 + 1 = 10 elements (the Conway set
        # has 8); k = 4 could hold 11.
        monkeypatch.setattr(altchains.nathanson, "_RANGE_LIMIT", 10)
        built = []
        monkeypatch.setattr(
            altchains.nathanson, "interval", lambda *a: built.append(a) or interval(*a)
        )
        assert build_base(4, 1, 3).A == make_set([0, 2, 3, 4, 7, 11, 12, 14])
        assert built == [(0, 3)]
        built.clear()
        for m, d, k in [(4, 1, 4), (400, 100, 3), (4, 1, 1000)]:
            fault = f"a base for m={m}, k={k} could hold more than 10 elements"
            with pytest.raises(ValueError, match=fault):
                build_base(m, d, k)
        assert built == []
        # Parameter faults are still named first.
        with pytest.raises(ValueError, match="m must be >= 4, got 3"):
            build_base(3, 1, 10**9)
        with pytest.raises(ValueError, match="k must be >= 3 when d < m/2, got 2"):
            build_base(4 * 10**8, 10**8, 2)

    def test_self_check_mstd(self, monkeypatch):
        # a* - B built as B itself: the base is no longer sum-dominated.
        monkeypatch.setattr(altchains.nathanson, "affine", lambda B, x, y: B)
        fault = r"base for \(m=4, d=1, k=3\) is not MSTD"
        with pytest.raises(RuntimeError, match=fault):
            build_base(4, 1, 3)

    def test_self_check_fresh_sum(self, monkeypatch):
        # A ladder that holds m puts 2m = m + m in A*+A*.
        monkeypatch.setattr(
            altchains.nathanson, "make_set", lambda values: make_set([*values, 4])
        )
        fault = r"2m not a fresh sum for \(m=4, d=1, k=3\)"
        with pytest.raises(RuntimeError, match=fault):
            build_base(4, 1, 3)

    def test_two_m_is_a_fresh_sum(self, conway_params):
        p = conway_params
        assert 2 * p.m in sumset(p.A)
        assert 2 * p.m not in sumset(p.A.without(p.m))

    def test_one_kernel_pass_on_A(self, monkeypatch):
        # sumset(A) serves both the class check and the fresh-sum check;
        # the second call is sumset(A_star).
        calls = []
        for module in (altchains.nathanson, altchains.intset):
            original = module.sumset
            def counted(A, original=original):
                calls.append(len(A))
                return original(A)
            monkeypatch.setattr(module, "sumset", counted)
        build_base(4, 1, 3)
        assert calls == [8, 7]

    def test_sweep_mstd_and_symmetric(self):
        for m, d, k in valid_param_triples(16, 6):
            p = build_base(m, d, k)
            assert classify(p.A) is SetClass.MSTD, (m, d, k)
            # the frame A* = A minus m is a mirror image of itself about a*
            star = p.A.without(m)
            assert affine(star, -1, (k + 1) * m - 2 * d) == star, (m, d, k)


class TestIntervalLemma:
    def test_m5(self):
        assert check_interval_lemma(5, 2) is True

    def test_m20(self):
        assert check_interval_lemma(20, 10) is True

    def test_r_out_of_range(self):
        with pytest.raises(ValueError, match=r"r must lie in \[2, 1\], got 2"):
            check_interval_lemma(4, 2)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError, match="m must be >= 4, got 3"):
            check_interval_lemma(3, 2)

    def test_oversized_interval_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^interval \[0, 9999999999\] spans more than 16777216 values$"):
            check_interval_lemma(10**10, 5)
        assert time.perf_counter() - start < 1

    def test_answered_from_counts(self, monkeypatch):
        # B+B and B-B are counted, never listed.
        def refuse(*args):
            raise AssertionError("a kernel result was listed")

        monkeypatch.setattr(altchains.intset, "_unpack", refuse)
        assert check_interval_lemma(5000, 17) is True
        assert check_interval_lemma(262000, 131000) is True

    def test_lemma_statement_directly(self):
        # independent spot check of the identity the lemma asserts
        B = make_set(v for v in range(5) if v != 2)
        assert sumset(B) == interval(0, 8)

    @pytest.mark.parametrize("m", range(4, 13))
    def test_sweep(self, m):
        assert all(check_interval_lemma(m, r) for r in range(2, m - 2))
