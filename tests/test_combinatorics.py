import math
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksettrace import combinatorics as cb


class TestBinomLemma:
    def test_equality_cases(self):
        v = cb.check_binom_lemma(2, 3, 1)
        assert (v.lhs, v.rhs, v.holds) == (15, 15, True)
        v = cb.check_binom_lemma(3, 4, 3)
        assert (v.lhs, v.rhs, v.holds) == (220, 220, True)

    def test_strict_case(self):
        v = cb.check_binom_lemma(2, 5, 2)
        assert (v.lhs, v.rhs, v.holds) == (90, 210, True)

    def test_domain(self):
        with pytest.raises(ValueError):
            cb.check_binom_lemma(1, 3, 1)
        with pytest.raises(ValueError):
            cb.check_binom_lemma(2, 3, 3)


def brute_npk(sizes, k0):
    """Enumerate unions of parts over an explicit ground set."""
    parts = []
    start = 0
    for s in sizes:
        parts.append(frozenset(range(start, start + s)))
        start += s
    count = 0
    for rr in range(len(parts) + 1):
        for combo in combinations(parts, rr):
            if sum(len(p) for p in combo) == k0:
                count += 1
    return count


class TestNpk:
    def test_examples(self):
        assert cb.npk_count((2, 2), 2) == 2
        assert cb.npk_count((3, 2), 2) == 1
        assert cb.npk_count((3, 2), 5) == 1

    def test_k0_equals_u(self):
        for sizes in [(2, 2), (3, 4), (2, 2, 2, 3)]:
            assert cb.npk_count(sizes, sum(sizes)) == 1

    def test_matches_brute_force(self):
        for u in range(2, 11):
            for sizes in cb.partitions_with_min_part(u):
                for k0 in range(2, u + 1):
                    assert cb.npk_count(sizes, k0) == brute_npk(sizes, k0)

    def test_bound_values(self):
        assert cb.npk_bounds(6, 3) == (3, 2, Fraction(math.comb(6, 3), 5))
        assert cb.npk_bounds(5, 5)[2] == 1
        assert cb.npk_bounds(6, 4)[2] == 3

    def test_part_size_guard(self):
        for sizes in [(1, 3), ()]:
            with pytest.raises(ValueError, match="part"):
                cb.npk_count(sizes, 2)


class TestSigmaCycle:
    def test_examples(self):
        assert cb.sigma_cycle(4, 2, 2) == 2
        assert cb.sigma_cycle(6, 3, 2) == 0
        assert cb.sigma_cycle(6, 3, 3) == 2

    @pytest.mark.parametrize("count", [cb.sigma_cycle, cb.sigma_cycle_brute])
    @pytest.mark.parametrize("p", [0, 4, 6])
    def test_p_not_a_prime_divisor(self, count, p):
        # p = 0 divided by zero, and the enumeration counted p = 4 as 0
        with pytest.raises(ValueError, match="prime divisor of t=6"):
            count(6, 3, p)

    def test_bounds(self):
        for t in range(2, 21):
            for p in {q for q in (2, 3, 5, 7) if t % q == 0}:
                for k0 in range(1, t + 1):
                    val = cb.sigma_cycle(t, k0, p)
                    assert val <= math.comb(t // 2, k0 // 2)
                    if k0 < t:
                        assert val <= Fraction(math.comb(t, k0), t - 1)
                    else:
                        assert val <= 1


def brute_rotation_period(t, local):
    """The least divisor d of t whose shift maps the positions onto
    themselves, trying every divisor in increasing order."""
    pos = set(local)
    return next(d for d in range(1, t + 1)
                if t % d == 0 and {(x + d) % t for x in pos} == pos)


def brute_sigma_Sigma(cycle_lengths, rm, k0):
    spans = []
    start = 0
    for t in cycle_lengths:
        spans.append((start, t))
        start += t
    u = start
    count = 0
    for pts in combinations(range(u), k0):
        length = 1
        for s0, t in spans:
            local = [x - s0 for x in pts if s0 <= x < s0 + t]
            if local:
                length = math.lcm(length, brute_rotation_period(t, local))
        if rm % length == 0:
            count += 1
    return count


class TestSigmaSigma:
    def test_k0_one_is_zero(self):
        assert cb.sigma_Sigma([4, 3], 10, 1) == 0

    def test_single_4cycle_odd_rm(self):
        # the two rotation-invariant pairs {0,2},{1,3} have orbit length 2,
        # which does not divide an odd rm, so no 2-subset qualifies; the
        # per-cycle defective count is sigma_cycle(4,2,2) == 2
        assert cb.sigma_Sigma([4], 15, 2) == 0
        assert cb.sigma_cycle(4, 2, 2) == 2

    def test_random_structures(self):
        rng = random.Random(99)
        for _ in range(60):
            rm = rng.choice([6, 10, 12, 15, 20, 30])
            lengths = []
            u = 0
            while u < rng.randint(4, 12):
                t = rng.randint(2, 9)
                if rm % t != 0:
                    lengths.append(t)
                    u += t
            k0 = rng.randint(1, u)
            got = cb.sigma_Sigma(lengths, rm, k0)
            assert got == brute_sigma_Sigma(lengths, rm, k0)
            if k0 == 1:
                assert got == 0
            elif k0 == u:
                assert got <= 1
            else:
                assert got <= Fraction(math.comb(u, k0), u - 1)

    def test_rejects_dividing_length(self):
        with pytest.raises(ValueError):
            cb.sigma_Sigma([4, 5], 20, 2)


class TestInequalities:
    def test_z_a_example(self):
        v = cb.check_z_a(d=10, n=20, k=3)
        assert v.holds
        assert v.lhs == 120
        assert v.rhs == Fraction(1, 8) * 1140

    def test_z_a_grid(self):
        for n in range(4, 40, 3):
            for d in range(2, n):
                for k in range(2, d + 1):
                    assert cb.check_z_a(d=d, n=n, k=k).holds

    def test_z_b_grid(self):
        for n in range(3, 60, 2):
            for k in range(2, 2 * n // 3 + 1):
                assert cb.check_z_b(n=n, k=k).holds

    def test_zz_grid(self):
        for d in (5, 9, 20, 41):
            for k in range(1, d + 1):
                for t in (1, 2, 5):
                    a = Fraction(t, d - k + 1)
                    for bump in (Fraction(0), Fraction(1, 3), Fraction(2)):
                        assert cb.check_zz(d=d, k=k, t=t, a=a + bump).holds

    def test_simple(self):
        v = cb.check_simple(n=1000, r=1, s=Fraction(5, 8))
        assert v.holds
        with pytest.raises(ValueError):
            cb.check_simple(n=156, r=1, s=Fraction(5, 8))

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1)])
    def test_simple_s_range_is_check_s(self, s):
        # the s-range check is families.check_s, with its message
        with pytest.raises(ValueError, match="s must lie"):
            cb.check_simple(n=10**6, r=1, s=s)

    def test_simple_grid(self):
        for n in (500, 2000, 10**4, 10**6):
            for r in (1, 2, 3):
                for s in (Fraction(51, 100), Fraction(5, 8), Fraction(2, 3)):
                    p, q = s.numerator, s.denominator
                    if 12**q * (r * n) ** p > (n - 6) ** q:
                        continue  # hypothesis fails at this size
                    assert cb.check_simple(n=n, r=r, s=s).holds

    def test_ns(self):
        v = cb.check_ns_a(x=Fraction(13))
        assert v.holds
        for x in [Fraction(121, 10), Fraction(13), Fraction(50), Fraction(1000)]:
            assert cb.check_ns_a(x=x).holds
            assert cb.check_ns_b(x=x).holds
        with pytest.raises(ValueError):
            cb.check_ns_a(x=Fraction(12))

    def test_to_iv_encloses(self):
        # endpoints as exact rationals: a rounded point interval would miss x
        def exact(endpoint):
            man, exp = mpmath.mpf(endpoint).man_exp
            return man * Fraction(2) ** exp

        for x in (Fraction(2, 3), Fraction(17, 24), Fraction(1, 6), Fraction(1001, 7)):
            iv = cb._to_iv(x)
            assert exact(iv.a) <= x <= exact(iv.b)

    def test_eps(self):
        v = cb.check_eps(eps=Fraction(1, 10), p=Fraction(1, 100))
        assert v.holds
        assert cb.trial_count(Fraction(1, 10), Fraction(1, 100)) == 231

    def test_eps_grid(self):
        for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
            for p in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 250)):
                assert cb.check_eps(eps=eps, p=p).holds

    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
    )
    def test_eps_property(self, eps, p):
        N = cb.trial_count(eps, p)
        assert (1 - p) ** N <= eps
        # minimality is not claimed by the bound, only sufficiency
