import copy
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksettrace import perms
from ksettrace.perms import ALT, SYM, Permutation


def rand_perm(n, seed):
    return perms.random_element(SYM, n, random.Random(seed))


perm_strategy = st.integers(1, 12).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


class TestBasics:
    def test_identity_compose(self):
        p = Permutation([2, 0, 1, 4, 3])
        assert Permutation.identity(5) * p == p
        assert p * Permutation.identity(5) == p

    def test_inverse_law(self):
        p = rand_perm(9, 3)
        assert p * p.inverse() == Permutation.identity(9)
        assert p.inverse().inverse() == p

    def test_hand_composition(self):
        p = Permutation.from_cycles(3, [[0, 1, 2]])
        q = Permutation.from_cycles(3, [[0, 1]])
        # 0 -> q(1) = 0, 1 -> q(2) = 2, 2 -> q(0) = 1: the transposition (1 2)
        assert p * q == Permutation.from_cycles(3, [[1, 2]])

    def test_degree_mismatch(self):
        with pytest.raises(perms.DegreeMismatchError):
            Permutation.identity(3) * Permutation.identity(4)

    def test_not_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_empty_cycle_rejected(self):
        # parse refuses "()" first; a library caller reaches this check
        with pytest.raises(ValueError, match="empty cycle"):
            Permutation.from_cycles(3, [[0, 1], []])

    def test_bool_images_rejected(self):
        for images in [[True, False], [0, True]]:
            with pytest.raises(ValueError):
                Permutation(images)

    def test_pickle_and_copy(self):
        p = rand_perm(9, 4)
        p.cycles()  # fills the cache, which must not travel
        assert p.__reduce__() == (Permutation, (p.images,))
        for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert q == p and q is not p
            assert q.cycles() == p.cycles()


class TestPower:
    def test_power_zero(self):
        p = rand_perm(8, 1)
        assert p**0 == Permutation.identity(8)

    def test_cycle_order(self):
        c6 = Permutation.from_cycles(6, [list(range(6))])
        assert c6**6 == Permutation.identity(6)

    def test_mixed_type_power(self):
        # type (5,2) to the 5th: the 5-cycle dies, the 2-cycle survives
        p = Permutation.from_cycles(7, [[0, 1, 2, 3, 4], [5, 6]])
        assert (p**5) == Permutation.from_cycles(7, [[5, 6]])

    def test_huge_exponent(self):
        p = Permutation.from_cycles(9, [[0, 1, 2, 3, 4], [5, 6, 7]])
        e = 10**30
        assert p**e == p ** (e % 15)

    @given(perm_strategy, st.integers(-50, 50), st.integers(-50, 50))
    def test_power_additive(self, p, e1, e2):
        assert p ** (e1 + e2) == p**e1 * p**e2


class TestCyclesOrderParity:
    def test_identity_cycles(self):
        assert Permutation.identity(4).cycles() == [(0,), (1,), (2,), (3,)]

    def test_cycles_follow_images(self):
        p = Permutation.from_cycles(5, [[0, 1], [2, 3, 4]])
        assert p.cycles() == [(0, 1), (2, 3, 4)]

    def test_cycles_sorted_by_min(self):
        p = rand_perm(15, 7)
        mins = [c[0] for c in p.cycles()]
        assert mins == sorted(mins)
        assert all(c[0] == min(c) for c in p.cycles())

    def test_order_lcm(self):
        p = Permutation.from_cycles(13, [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9], [10, 11, 12]])
        assert p.order() == 12
        p2 = Permutation.from_cycles(7, [[0, 1, 2, 3, 4], [5, 6]])
        assert p2.order() == 10

    @given(perm_strategy)
    def test_order_is_minimal(self, p):
        o = p.order()
        assert p**o == Permutation.identity(p.n)
        for q in {2, 3, 5, 7, 11}:
            if o % q == 0:
                assert p ** (o // q) != Permutation.identity(p.n)

    @given(perm_strategy, st.integers(1, 40))
    def test_order_divides_equiv(self, p, t):
        # o(p) divides t iff every cycle length does
        assert (t % p.order() == 0) == all(t % len(c) == 0 for c in p.cycles())

    def test_parity(self):
        assert Permutation.identity(5).is_even()
        assert not Permutation.from_cycles(5, [[0, 1]]).is_even()
        assert Permutation.from_cycles(5, [[0, 1, 2]]).is_even()


class TestTextForms:
    def test_one_line_roundtrip(self):
        p = rand_perm(8, 5)
        text = "[" + ",".join(str(x + 1) for x in p.images) + "]"
        assert Permutation.parse(text) == p

    def test_cycle_roundtrip(self):
        p = rand_perm(8, 6)
        assert Permutation.parse(p.cycle_str(), n=8) == p

    def test_examples(self):
        assert Permutation.parse("[2,3,1]") == Permutation.from_cycles(3, [[0, 1, 2]])
        assert Permutation.parse("(1 2 3)(4)") == Permutation.from_cycles(4, [[0, 1, 2]])

    def test_malformed(self):
        for text in ["[2,2,1]", "(1 2", "[]", "1 2 3", "(0 1)"]:
            with pytest.raises(ValueError):
                Permutation.parse(text)


class TestSampling:
    def test_sym_uniform_chi_square(self):
        rng = random.Random(42)
        draws = 10**5
        counts = Counter(perms.random_element(SYM, 4, rng) for _ in range(draws))
        assert len(counts) == 24
        expected = draws / 24
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 23 dof: mean 23, sd sqrt(46); 4 sigma above the mean
        assert chi2 < 23 + 4 * math.sqrt(46)

    def test_alt_always_even(self):
        rng = random.Random(0)
        for _ in range(500):
            assert perms.random_element(ALT, 6, rng).is_even()

    def test_alt_uniform(self):
        rng = random.Random(7)
        draws = 6 * 10**4
        counts = Counter(perms.random_element(ALT, 4, rng) for _ in range(draws))
        assert len(counts) == 12
        expected = draws / 12
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 11 + 4 * math.sqrt(22)

    def test_degree_checked(self):
        for group, n in [(SYM, 0), (ALT, 1)]:
            with pytest.raises(ValueError):
                perms.random_element(group, n, random.Random(0))

    def test_reproducible(self):
        a = [perms.random_element(SYM, 10, random.Random(9)) for _ in range(20)]
        b = [perms.random_element(SYM, 10, random.Random(9)) for _ in range(20)]
        assert a == b

    def test_alt_parity_without_cycle_walk(self):
        # the parity comes from the swap count, so no cycles are walked
        rng = random.Random(4)
        for n in (2, 3, 4, 5, 8, 17, 200, 201):
            for _ in range(20):
                p = perms.random_element(ALT, n, rng)
                assert getattr(p, "_cycles", None) is None
                assert p.is_even()


def reference_random_element(group, n, rng):
    """The element drawn by `rng.shuffle` and fixed up by `is_even`, as the
    sampler was first written."""
    images = list(range(n))
    rng.shuffle(images)
    if group == ALT and not Permutation(images).is_even():
        images[0], images[1] = images[1], images[0]
    return Permutation(images)


class TestRandomElementStream:
    @pytest.mark.parametrize("group", [SYM, ALT])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 100, 200, 201])
    def test_matches_shuffle(self, group, n):
        # same elements and the same generator state after them
        for seed in range(60):
            a, b = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert perms.random_element(group, n, a) == reference_random_element(group, n, b)
            assert a.random() == b.random()

    def test_only_getrandbits_is_called(self):
        class BitsOnly:
            def __init__(self, seed):
                self.getrandbits = random.Random(seed).getrandbits

        for group in (SYM, ALT):
            assert perms.random_element(group, 50, BitsOnly(3)) == perms.random_element(
                group, 50, random.Random(3))


class TestCheckGroup:
    @pytest.mark.parametrize("group, n", [("Cyc", 5), (SYM, 0), (SYM, -1), (ALT, 1), (ALT, 0)])
    def test_refused_by_every_caller(self, group, n):
        for call in (lambda: perms.check_group(group, n),
                     lambda: perms.random_element(group, n, random.Random(0)),
                     lambda: next(perms.enumerate_group(group, n))):
            with pytest.raises(ValueError):
                call()

    def test_least_degrees_admitted(self):
        perms.check_group(SYM, 1)
        perms.check_group(ALT, 2)
        assert len(list(perms.enumerate_group(SYM, 1))) == 1
        assert len(list(perms.enumerate_group(ALT, 2))) == 1


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in perms.enumerate_group(SYM, 3)) == 6
        assert sum(1 for _ in perms.enumerate_group(ALT, 4)) == 12
        assert sum(1 for _ in perms.enumerate_group(SYM, 6)) == 720
        assert sum(1 for _ in perms.enumerate_group(ALT, 6)) == 360

    def test_distinct(self):
        elems = list(perms.enumerate_group(SYM, 5))
        assert len(set(elems)) == 120

    def test_guard(self):
        with pytest.raises(ValueError):
            next(perms.enumerate_group(SYM, 11))
