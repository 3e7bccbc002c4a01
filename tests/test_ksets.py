import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksettrace import algorithms, families, ksets, montecarlo, perms
from ksettrace.ksets import EXCEEDS_CAP
from ksettrace.perms import SYM, Permutation

from conftest import lay_type


def six_cycle():
    return Permutation.from_cycles(6, [list(range(6))])


def all_ksubsets(n, k):
    return map(frozenset, combinations(range(n), k))


def mask_points(mask, n):
    return frozenset(x for x in range(n) if mask >> x & 1)


class TestKSubset:
    """The boundary checks on frozenset points: `parse_ksubset` on text and
    `cycle_length_exact` on points."""

    def test_validation(self):
        for text in ["{3,1,3}", "{2,4,2}"]:
            with pytest.raises(ValueError, match="repeated"):
                ksets.parse_ksubset(text, 5)
        for text in ["{0,3}", "{1,6}", "{-1,2}"]:
            with pytest.raises(ValueError, match="outside 1..5"):
                ksets.parse_ksubset(text, 5)
        for text in ["{}", "{ }"]:
            with pytest.raises(ValueError, match="empty"):
                ksets.parse_ksubset(text, 5)
        for text in ["1,4", "{1,4", "1,4}", "{1;4}", "{1,,4}", "{a,2}", "{1.0}"]:
            with pytest.raises(ValueError, match="malformed"):
                ksets.parse_ksubset(text, 5)

    def test_non_integer_points_rejected(self):
        g = Permutation.identity(3)
        for points in [{False, True}, {0, True}, {0.0, 1}, {-1, 0}, {0, 3}]:
            with pytest.raises(ValueError):
                ksets.cycle_length_exact(frozenset(points), g)

    def test_text_roundtrip(self):
        gamma = frozenset({0, 3, 6})
        assert ksets.parse_ksubset("{1,4,7}", 8) == gamma
        assert ksets.parse_ksubset(" {7, 1,4} ", 8) == gamma
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(1, 12)
            gamma = ksets.random_ksubset(n, rng.randint(1, n), rng)
            text = "{" + ",".join(str(x + 1) for x in sorted(gamma)) + "}"
            assert ksets.parse_ksubset(text, n) == gamma


class TestImage:
    def test_identity(self):
        gamma = frozenset({0, 1})
        assert ksets.image(gamma, Permutation.identity(5)) == gamma

    def test_pointwise(self):
        gamma = frozenset({0, 3})
        assert ksets.image(gamma, six_cycle()) == frozenset({1, 4})

    def test_action_law(self):
        rng = random.Random(4)
        for _ in range(50):
            g = perms.random_element(SYM, 9, rng)
            gamma = ksets.random_ksubset(9, 4, rng)
            assert ksets.image(ksets.image(gamma, g), g.inverse()) == gamma


def trace(gamma, g, cap):
    """The slow reference engine: capped tracing through the action."""
    return algorithms.orbit_length(ksets.image, gamma, g, cap)


class TestTrace:
    def test_identity_cap_one(self):
        assert trace(frozenset({1, 2}), Permutation.identity(4), 1) == 1

    def test_antipodal_pair(self):
        assert trace(frozenset({0, 3}), six_cycle(), 10) == 3

    def test_exceeds_cap(self):
        # the pattern 110100 on a 6-cycle is aperiodic: true length 6 > cap 2
        out = trace(frozenset({0, 1, 3}), six_cycle(), 2)
        assert out is EXCEEDS_CAP

    def test_cap_exact_boundary(self):
        assert trace(frozenset({0, 1, 3}), six_cycle(), 6) == 6

    def test_cap_below_one_rejected(self):
        for cap in (0, -1):
            with pytest.raises(ValueError):
                trace(frozenset({0, 3}), six_cycle(), cap)


def rotation_period(t, positions):
    """`ksets._rotation_period` of the positions, given as a set."""
    return ksets._rotation_period(t, sum(1 << x for x in positions))


class TestRotationPeriod:
    def test_empty_and_full(self):
        assert rotation_period(6, set()) == 1
        assert rotation_period(6, set(range(6))) == 1

    def test_examples(self):
        assert rotation_period(4, {0, 2}) == 2
        assert rotation_period(6, {0, 1, 3}) == 6
        assert rotation_period(6, {0, 2, 4}) == 2

    def test_divides_and_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            t = rng.randint(1, 24)
            k = rng.randint(0, t)
            pos = set(rng.sample(range(t), k))
            d = rotation_period(t, pos)
            assert t % d == 0
            rotated = {(x + d) % t for x in pos}
            assert rotated == pos
            assert rotation_period(t, rotated) == d
            # and no smaller shift maps the set onto itself
            assert all({(x + e) % t for x in pos} != pos for e in range(1, d))


def brute_rotation_period(t, bits):
    """The least divisor d of t whose shift fixes the t-bit mask, trying
    every divisor in increasing order."""
    full = (1 << t) - 1
    return next(d for d in families.divisors(t)
                if ((bits << d) | (bits >> (t - d))) & full == bits)


def periodic_mask(t, d, rng):
    """A random t-bit mask fixed by the shift by d (d | t): a random d-bit
    pattern repeated t // d times."""
    pattern = rng.getrandbits(d)
    return sum(pattern << i for i in range(0, t, d))


class TestRotationPeriodDescent:
    def test_matches_all_divisors_brute_force(self):
        rng = random.Random(16)
        for t in range(1, 65):
            full = (1 << t) - 1
            masks = [0, full] + [rng.getrandbits(t) for _ in range(30)]
            for d in families.divisors(t):
                masks += [periodic_mask(t, d, rng) for _ in range(5)]
            for bits in masks:
                assert ksets._rotation_period(t, bits) == brute_rotation_period(t, bits), (t, bits)

    def test_empty_and_full_give_one(self):
        for t in range(1, 65):
            assert ksets._rotation_period(t, 0) == 1
            assert ksets._rotation_period(t, (1 << t) - 1) == 1

    def test_prime_cache_returns_tuples(self):
        for x in (1, 2, 12, 64, 97, 200):
            primes = families.prime_divisors(x)
            assert isinstance(primes, tuple)
            assert families.prime_divisors(x) is primes


class TestExactEngine:
    def test_identity(self):
        assert ksets.cycle_length_exact(frozenset({0, 4}), Permutation.identity(7)) == 1

    def test_lcm_across_cycles(self):
        g = Permutation.from_cycles(7, [[0, 1, 2, 3, 4], [5, 6]])
        assert ksets.cycle_length_exact(frozenset({0, 5}), g) == 10

    def test_divides_order(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(2, 25)
            g = perms.random_element(SYM, n, rng)
            gamma = ksets.random_ksubset(n, rng.randint(1, n), rng)
            assert g.order() % ksets.cycle_length_exact(gamma, g) == 0

    def test_orbit_invariance(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 20)
            g = perms.random_element(SYM, n, rng)
            gamma = ksets.random_ksubset(n, rng.randint(1, n), rng)
            assert ksets.cycle_length_exact(gamma, g) == ksets.cycle_length_exact(
                ksets.image(gamma, g), g
            )

    def test_agrees_with_trace(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 30)
            g = perms.random_element(SYM, n, rng)
            gamma = ksets.random_ksubset(n, rng.randint(1, max(1, n // 2)), rng)
            exact = ksets.cycle_length_exact(gamma, g)
            assert trace(gamma, g, g.order()) == exact


class TestRandomKSubset:
    def test_full_set(self):
        rng = random.Random(1)
        assert ksets.random_ksubset(5, 5, rng) == frozenset(range(5))

    def test_uniform_chi_square(self):
        rng = random.Random(12)
        draws = 10**5
        counts = Counter(ksets.random_ksubset(5, 2, rng) for _ in range(draws))
        assert len(counts) == 10
        expected = draws / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 9 + 4 * math.sqrt(18)

    def test_reproducible(self):
        a = [ksets.random_ksubset(12, 4, random.Random(3)) for _ in range(10)]
        b = [ksets.random_ksubset(12, 4, random.Random(3)) for _ in range(10)]
        assert a == b

    @pytest.mark.parametrize("n", [*range(1, 31), 84, 85, 86, 200, 201])
    def test_matches_rng_sample(self, n):
        # every k: the points and the generator state of CPython's
        # rng.sample(range(n), k), on its pool path and its set path
        # (at n = 200, k <= 21 takes the set and k >= 22 the pool)
        for k in range(1, n + 1):
            for seed in range(3):
                a, b = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert ksets.random_ksubset(n, k, a) == frozenset(b.sample(range(n), k))
                assert a.getstate() == b.getstate()

    def test_rejects_k_outside_range(self):
        rng = random.Random(1)
        for n, k in [(5, 0), (5, 6), (5, -1), (1, 2)]:
            with pytest.raises(ValueError):
                ksets.random_ksubset(n, k, rng)


class TestRandomKMask:
    @pytest.mark.parametrize("n, k", [(8, 2), (9, 3), (8, 4), (9, 4), (7, 6)])
    def test_uniform_chi_square(self, n, k):
        # every k-subset, on both sides of the switch at 3k = n
        rng = random.Random(21)
        cells = math.comb(n, k)
        draws = 400 * cells
        counts = Counter(ksets.random_kmask(n, k, rng) for _ in range(draws))
        assert all(m.bit_count() == k and m >> n == 0 for m in counts)
        assert len(counts) == cells
        expected = draws / cells
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        dof = cells - 1
        assert chi2 < dof + 4 * math.sqrt(2 * dof)

    @pytest.mark.parametrize("n, k", [(3, 1), (9, 3), (200, 2), (200, 5), (100, 33),
                                      # either side of sample's pool/set switch,
                                      # n <= 21 below k = 6, n <= 85 at k = 6
                                      (21, 2), (22, 2), (85, 6), (86, 6)])
    def test_sample_path_matches_random_ksubset(self, n, k):
        # for 3k <= n the mask holds the points of CPython's rng.sample, the
        # draw random_ksubset makes, and leaves the generator in the same
        # state; anchored on rng.sample itself, so the library's two draws
        # cannot drift together
        a, b = random.Random(8), random.Random(8)
        for _ in range(50):
            assert mask_points(ksets.random_kmask(n, k, a), n) == frozenset(b.sample(range(n), k))
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("n, k", [(3, 2), (6, 3), (8, 7), (13, 6), (200, 100), (201, 100)])
    def test_fixup_stream_matches_randrange(self, n, k):
        # for 3k > n the fix-up as first written, through rng.randrange:
        # same masks and the same generator state after them
        def reference(rng):
            mask = rng.getrandbits(n)
            count = mask.bit_count()
            while count < k:
                bit = 1 << rng.randrange(n)
                if not mask & bit:
                    mask |= bit
                    count += 1
            while count > k:
                bit = 1 << rng.randrange(n)
                if mask & bit:
                    mask ^= bit
                    count -= 1
            return mask

        for seed in range(60):
            a, b = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert ksets.random_kmask(n, k, a) == reference(b)
            assert a.random() == b.random()

    def test_full_set(self):
        rng = random.Random(1)
        assert ksets.random_kmask(5, 5, rng) == 0b11111

    def test_rejects_k_outside_range(self):
        rng = random.Random(1)
        for n, k in [(5, 0), (5, 6), (5, -1), (1, 2)]:
            with pytest.raises(ValueError):
                ksets.random_kmask(n, k, rng)


class TestCountBad:
    """The bad share of k-subsets (orbit length not r0*m for any r0 | r),
    1 - good_ksubset_fraction."""

    def test_six_cycle_pairs(self):
        bad = 1 - ksets.good_ksubset_fraction(six_cycle(), 2, 6, 1)
        # only the 3 antipodal pairs have orbit length 3 instead of 6
        assert bad == Fraction(3, 15)

    def test_counts_match_enumeration(self):
        rng = random.Random(8)
        lp = families.line_params(SYM, 10, families.TRANSPOSITION)
        for _ in range(10):
            g = perms.random_element(SYM, 10, rng)
            for k in (2, 3, 4):
                total = math.comb(10, k)
                bad = (1 - ksets.good_ksubset_fraction(g, k, lp.m, lp.r)) * total
                brute_bad = 0
                for gamma in all_ksubsets(10, k):
                    c = ksets.cycle_length_exact(gamma, g)
                    if not (c % lp.m == 0 and lp.r % (c // lp.m) == 0):
                        brute_bad += 1
                assert bad == brute_bad

    def test_mcyc_ceiling_line3_shape(self):
        # n=10 with a 7-cycle and a 3-cycle... 3 does not divide 14, so use
        # a 7-cycle with a 2-cycle and a fixed point (in N_good for m=7, r=2)
        lp = families.line_params(SYM, 10, families.TRANSPOSITION)
        assert lp.m == 7 and lp.r == 2
        g = Permutation.from_cycles(10, [list(range(7)), [7, 8]])
        assert families.in_Ngood(g, lp)
        for k in (2, 3, 4, 5):
            bad = 1 - ksets.good_ksubset_fraction(g, k, lp.m, lp.r)
            ceiling = math.sqrt(8 * k) * (3 * k / (4 * lp.m)) ** ((k + 1) // 2)
            assert bad <= ceiling

    def test_good_fraction_floor_small(self):
        # for elements of N_good the good fraction is at least 1 - 2/n on
        # exhaustive small cases
        rng = random.Random(13)
        for n, goal in [(8, families.TRANSPOSITION), (9, families.TRANSPOSITION)]:
            lp = families.line_params(SYM, n, goal)
            for _ in range(40):
                g = perms.random_element(SYM, n, rng)
                if not families.in_Ngood(g, lp):
                    continue
                for k in (2, 3):
                    assert ksets.good_ksubset_fraction(g, k, lp.m, lp.r) >= 1 - Fraction(2, n)


def reference_orbit_length_counts(g, k):
    """{orbit length: number of k-subsets} over every orbit length: the
    full-lcm DP that `ksets.orbit_length_counts` replaced, kept as its
    reference."""
    per_cycle = []
    for cyc in g.cycles():
        t = len(cyc)
        divs = families.divisors(t)
        at_most = {d: {} for d in divs}
        for d in divs:
            for j in range(0, t + 1):
                if j * d % t == 0:
                    at_most[d][j] = math.comb(d, j * d // t)
        exact = {d: {} for d in divs}
        for d in divs:
            for j, cnt in at_most[d].items():
                sub = sum(exact[e].get(j, 0) for e in divs if e < d and d % e == 0)
                if cnt - sub:
                    exact[d][j] = cnt - sub
        per_cycle.append(exact)
    state = {(0, 1): 1}
    for exact in per_cycle:
        nxt = {}
        for (used, cur_lcm), cnt in state.items():
            for d, by_j in exact.items():
                for j, ways in by_j.items():
                    if used + j > k:
                        continue
                    key = (used + j, math.lcm(cur_lcm, d) if j else cur_lcm)
                    nxt[key] = nxt.get(key, 0) + cnt * ways
        state = nxt
    out = {}
    for (used, length), cnt in state.items():
        if used == k:
            out[length] = out.get(length, 0) + cnt
    return out


def line_elements(data, line, ns):
    """A line's params at a drawn n, a uniform element of its group and a
    uniform element of N_good (where the accepted orbit lengths live)."""
    lp = families.line_params_by_line(line, data.draw(st.sampled_from(ns), label="n"))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    uniform = perms.random_element(lp.group, lp.n, rng)
    return lp, uniform, lay_type(montecarlo.sample_ngood(lp, rng), lp.n, rng)


def line_element(data, line, ns):
    """A line's params at a drawn n, and one of `line_elements`' two elements."""
    lp, uniform, ngood = line_elements(data, line, ns)
    return lp, ngood if data.draw(st.booleans(), label="ngood") else uniform


def admissible(line, ns):
    out = []
    for n in ns:
        try:
            families.line_params_by_line(line, n)
        except ValueError:
            continue
        out.append(n)
    return out


def small_ns(line):
    # line 8 needs 6 | n, so it takes n = 12, its smallest n >= 7
    return admissible(line, range(7, 11)) or [12]


class TestCountingKernel:
    @pytest.mark.parametrize("line", range(1, 10))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_enumeration(self, line, data):
        lp, g = line_element(data, line, small_ns(line))
        rm = lp.r * lp.m
        for k in range(1, lp.n + 1):
            brute = Counter(
                ksets.cycle_length_exact(gamma, g) for gamma in all_ksubsets(lp.n, k)
            )
            expected = {length: cnt for length, cnt in brute.items() if rm % length == 0}
            assert ksets.orbit_length_counts(g.cycle_type(), k, rm) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), line=st.integers(1, 9))
    def test_matches_full_lcm_dp(self, data, line):
        lp, g = line_element(data, line, admissible(line, range(7, 81)))
        k = data.draw(st.integers(1, lp.n), label="k")
        rm = data.draw(st.one_of(st.just(lp.r * lp.m), st.integers(1, 4 * lp.n)), label="rm")
        full = reference_orbit_length_counts(g, k)
        assert sum(full.values()) == math.comb(lp.n, k)
        expected = {length: cnt for length, cnt in full.items() if rm % length == 0}
        assert ksets.orbit_length_counts(g.cycle_type(), k, rm) == expected
        good = sum(
            cnt for length, cnt in full.items()
            if length % lp.m == 0 and lp.r % (length // lp.m) == 0
        )
        assert ksets.good_ksubset_fraction(g, k, lp.m, lp.r) == Fraction(good, math.comb(lp.n, k))


    @pytest.mark.parametrize("k", [0, 7, -1])
    def test_fraction_rejects_k_outside_range(self, k):
        # k = 7 on a degree-6 element ended in Fraction(0, 0)
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            ksets.good_ksubset_fraction(six_cycle(), k, 6, 1)

    @pytest.mark.parametrize("m, r", [(0, 1), (-6, 1), (6, 0), (-6, -1)])
    def test_rejects_m_or_r_below_one(self, m, r):
        # m <= 0 gave a pass fraction of 0
        with pytest.raises(ValueError, match="need m >= 1 and r >= 1"):
            ksets.good_ksubset_fraction(six_cycle(), 2, m, r)
        with pytest.raises(ValueError, match="need m >= 1 and r >= 1"):
            ksets.good_ksubset_count((6,), 2, m, r)

    @pytest.mark.parametrize("rm", [0, -6])
    def test_counts_reject_rm_below_one(self, rm):
        # rm = 0 counted every orbit length, though none divides 0 by the contract
        with pytest.raises(ValueError, match="need rm >= 1"):
            ksets.orbit_length_counts((3, 2, 1), 2, rm)

    @pytest.mark.parametrize("lengths", [(3, 0, 1), (0,), (2, -1, 3)])
    def test_counts_reject_cycle_lengths_below_one(self, lengths):
        # a 0-cycle was counted: (3, 0, 1) gave {3: 6}
        with pytest.raises(ValueError, match="cycle lengths must be positive"):
            ksets.orbit_length_counts(lengths, 3, 6)

    def test_invariant_subset_count_matches_enumeration(self):
        for t in range(1, 9):
            for d in families.divisors(t):
                for j in range(t + 1):
                    fixed = sum(
                        {(x + d) % t for x in pts} == set(pts)
                        for pts in combinations(range(t), j)
                    )
                    assert ksets.invariant_subset_count(t, j, d) == fixed, (t, j, d)


class TestPeriodCountCache:
    """`ksets._period_counts` is cached across calls, keyed by (t, gcd(t, rm))
    alone, so no table may carry state from the k or rm that built it."""

    def test_no_state_from_an_earlier_k_or_rm(self):
        n = 12
        g = Permutation.from_cycles(n, [list(range(6)), list(range(6, 10)), [10, 11]])
        # 6 and 18 have the same gcd on every cycle (6, 2, 2) but different
        # divisor sets; 12 has other gcds (6, 4, 2)
        rms = (6, 18, 12)
        assert [math.gcd(t, 6) for t in g.cycle_type()] == [math.gcd(t, 18) for t in g.cycle_type()]
        for ks in ((n // 2, 2), (2, n // 2)):
            ksets._period_counts.cache_clear()
            for k in ks:
                brute = Counter(ksets.cycle_length_exact(gamma, g) for gamma in all_ksubsets(n, k))
                full = reference_orbit_length_counts(g, k)
                assert full == dict(brute)
                for rm in rms:
                    expected = {length: cnt for length, cnt in full.items() if rm % length == 0}
                    assert ksets.orbit_length_counts(g.cycle_type(), k, rm) == expected, (k, rm)

    def test_tables_are_tuples(self):
        ksets.orbit_length_counts((6, 4, 2), 3, 12)
        for t, d in [(6, 6), (4, 4), (2, 2)]:
            table = ksets._period_counts(t, d)
            assert isinstance(table, tuple)
            for _, by_j in table:
                assert isinstance(by_j, tuple)
                assert all(isinstance(pair, tuple) for pair in by_j)

    def test_size_bounded_by_n(self):
        n = 10
        ksets._period_counts.cache_clear()
        for parts in families.partitions(n, range(1, n + 1)):
            for k in range(1, n + 1):
                for rm in range(1, n + 1):  # rm = d reaches every d | t
                    ksets.orbit_length_counts(parts, k, rm)
        pairs = sum(len(families.divisors(t)) for t in range(1, n + 1))
        assert 0 < ksets._period_counts.cache_info().currsize <= pairs


class TestFastPaths:
    """The cached cycles, the block layout and the unchecked constructors
    against the slow paths they replace, on every line."""

    @pytest.mark.parametrize("line", range(1, 10))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_profile_matches_fresh_walk(self, line, data):
        lp, *elements = line_elements(data, line, small_ns(line))
        rm = lp.r * lp.m
        for g in elements:
            fresh = Permutation(list(g.images))
            first = g.cycles()
            assert first == fresh.cycles()
            assert g.order() == fresh.order()
            assert g.is_even() == fresh.is_even()
            assert (rm % g.order() == 0) == all(rm % len(c) == 0 for c in fresh.cycles())
            first.append(first.pop(0)[::-1])
            assert g.cycles() == fresh.cycles()

    @pytest.mark.parametrize("line", range(1, 10))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_exact_matches_trace(self, line, data):
        lp, *elements = line_elements(data, line, small_ns(line))
        for g in elements:
            order = g.order()
            for k in range(1, lp.n + 1):
                for gamma in all_ksubsets(lp.n, k):
                    exact = ksets.cycle_length_exact(gamma, g)
                    assert exact == trace(gamma, g, order)

    @pytest.mark.parametrize("line", range(1, 10))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_layout_matches_permutation(self, line, data):
        # the harness's block layout of a drawn type against the exact
        # engine and capped tracing on the permutation with those blocks
        lp = families.line_params_by_line(
            line, data.draw(st.sampled_from(admissible(line, range(7, 31))), label="n"))
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        if data.draw(st.booleans(), label="ngood"):
            parts = montecarlo.sample_ngood(lp, rng)
        else:
            parts = montecarlo.sample_type(lp.group, lp.n, rng)
        points = iter(range(lp.n))
        g = Permutation.from_cycles(lp.n, [list(islice(points, t)) for t in parts])
        assert sorted(g.cycle_type()) == sorted(parts)
        for _ in range(5):
            # a k of either draw path, and k = n//2, where 3k > n
            for k in (rng.randint(1, lp.n), lp.n // 2):
                mask = ksets.random_kmask(lp.n, k, rng)
                gamma = mask_points(mask, lp.n)
                assert len(gamma) == k
                length = ksets.layout_orbit_length(mask, parts)
                assert length == ksets.cycle_length_exact(gamma, g) == trace(gamma, g, g.order())

    @pytest.mark.parametrize("line", range(1, 10))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_unchecked_outputs_pass_the_checks(self, line, data):
        lp, g, h = line_elements(data, line, small_ns(line))
        e = data.draw(st.integers(-2 * lp.n, 2 * lp.n), label="e")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        gamma = ksets.random_ksubset(lp.n, data.draw(st.integers(1, lp.n), label="k"), rng)
        for p in (g, h, g * h, h * g, g.inverse(), g**e, h**e):
            assert Permutation(p.images) == p
        for s in (gamma, ksets.image(gamma, g), ksets.image(gamma, h)):
            assert type(s) is frozenset and len(s) == len(gamma)
            assert all(type(x) is int and 0 <= x < lp.n for x in s)
            ksets.cycle_length_exact(s, g)  # raises on a point it rejects
