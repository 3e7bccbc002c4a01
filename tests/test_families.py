import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksettrace import families, montecarlo, perms
from ksettrace.combinatorics import partitions_with_min_part
from ksettrace.families import (
    FAMILY_N,
    FAMILY_OTHER,
    FAMILY_R,
    FAMILY_S0,
    FAMILY_S1MINUS,
    FAMILY_S1PLUS,
    FAMILY_SGE2,
    LONG_CYCLE,
    THREE_CYCLE,
    TRANSPOSITION,
    classify,
    divisor_profile,
    in_group,
    in_N,
    in_Ngood,
    line_params,
)
from ksettrace.perms import ALT, SYM, Permutation

from conftest import lay_type


def class_sum_rho(lp):
    """m * |N_good| / |G|, summing n!/z over every cycle type of degree n."""
    n, m, rm = lp.n, lp.m, lp.r * lp.m
    good = 0
    for parts in partitions_with_min_part(n, 1):
        if m not in parts or any(rm % t for t in parts):
            continue
        if lp.group == ALT and (n - len(parts)) % 2:
            continue
        z = math.prod(t ** parts.count(t) * math.factorial(parts.count(t))
                      for t in set(parts))
        good += math.factorial(n) // z
    group_order = math.factorial(n) // (2 if lp.group == ALT else 1)
    return Fraction(m * good, group_order)


def reference_delta_sigma(g, lp):
    """Delta (the points on g-cycles of length dividing rm) and Sigma (the
    rest), as point sets."""
    rm = lp.r * lp.m
    delta: set[int] = set()
    sigma: set[int] = set()
    for cyc in g.cycles():
        (delta if rm % len(cyc) == 0 else sigma).update(cyc)
    return frozenset(delta), frozenset(sigma)


def reference_classify(g, lp, s):
    """The element-level classifier that `classify_type` replaced: Delta as
    a point set, and a cycle s-large only if it lies inside Delta."""
    if not Fraction(1, 2) < s < 1:
        raise ValueError(f"s must lie in (1/2, 1), got {s}")
    if g.n != lp.n:
        raise ValueError(f"degree {g.n} does not match line degree {lp.n}")
    if lp.group == ALT and not g.is_even():
        raise ValueError("element lies outside the line's group")
    if any(len(c) == lp.m for c in g.cycles()):
        return FAMILY_N
    if g.order() % lp.m != 0:
        return FAMILY_OTHER
    p, q = s.numerator, s.denominator
    rn = lp.r * lp.n
    delta, _ = reference_delta_sigma(g, lp)
    v = len(delta)
    if v**q <= (4**q) * (rn**p):
        return FAMILY_R
    large = [len(c) for c in g.cycles() if set(c) <= delta and len(c) ** q >= rn**p]
    if not large:
        return FAMILY_S0
    if len(large) >= 2:
        return FAMILY_SGE2
    if (v - large[0]) ** q > (3**q) * (rn**p):
        return FAMILY_S1PLUS
    return FAMILY_S1MINUS


def rm_heavy_element(lp, rng):
    """An element of Sym(n) built from cycles whose length divides rm (but
    is not m), with the points left over closed into one more cycle: unlike
    uniform elements, these often fall in R and the S families."""
    rm, left, lengths = lp.r * lp.m, lp.n, []
    while left:
        t = rng.choice([d for d in families.divisors(rm) if d <= left and d != lp.m] + [left])
        lengths.append(t)
        left -= t
    return lay_type(lengths, lp.n, rng)


# every (line, n) with n <= 200
LINE_CELLS = [
    (line, n)
    for n in range(7, 201)
    for line, cond in [
        (1, True), (2, n % 2 == 1), (3, n % 2 == 0), (4, n % 2 == 1), (5, n % 2 == 0),
        (6, n % 6 in (2, 4)), (7, n % 6 in (3, 5)), (8, n % 6 == 0), (9, n % 6 == 1),
    ]
    if cond
]


class TestLineParams:
    def test_table_rows(self):
        lp = line_params(SYM, 9, TRANSPOSITION)
        assert (lp.line, lp.m, lp.r, lp.rho) == (2, 7, 2, Fraction(1))
        lp = line_params(SYM, 8, TRANSPOSITION)
        assert (lp.line, lp.m, lp.r, lp.rho) == (3, 5, 2, Fraction(2, 3))
        lp = line_params(ALT, 12, THREE_CYCLE)
        assert (lp.line, lp.m, lp.r, lp.rho) == (8, 7, 3, Fraction(7, 20))
        lp = line_params(ALT, 9, LONG_CYCLE)
        assert (lp.line, lp.m, lp.r, lp.rho) == (4, 9, 1, Fraction(2))
        lp = line_params(ALT, 8, LONG_CYCLE)
        assert (lp.line, lp.m, lp.r, lp.rho) == (5, 7, 1, Fraction(2))
        # rows whose leftover points admit more cycle types when 3 | n (line
        # 3), 5 | n (line 8) or n = 1 mod 5 (line 9)
        lp = line_params(SYM, 12, TRANSPOSITION)
        assert (lp.line, lp.m, lp.rho) == (3, 9, Fraction(1))
        lp = line_params(ALT, 30, THREE_CYCLE)
        assert (lp.line, lp.m, lp.rho) == (8, 25, Fraction(3, 4))
        lp = line_params(ALT, 31, THREE_CYCLE)
        assert (lp.line, lp.m, lp.rho) == (9, 25, Fraction(5, 8))
        lp = line_params(ALT, 7, THREE_CYCLE)  # m = 1
        assert (lp.line, lp.m, lp.rho) == (9, 1, Fraction(39, 280))
        assert line_params(SYM, 20, LONG_CYCLE).line == 1
        assert line_params(ALT, 8, THREE_CYCLE).line == 6
        assert line_params(ALT, 9, THREE_CYCLE).line == 7
        assert line_params(ALT, 13, THREE_CYCLE).line == 9
        # every row up to n = 40 carries the class-sum rho
        for n in range(7, 41):
            for group, goal in [
                (SYM, LONG_CYCLE), (SYM, TRANSPOSITION),
                (ALT, LONG_CYCLE), (ALT, THREE_CYCLE),
            ]:
                lp = line_params(group, n, goal)
                assert lp.rho == class_sum_rho(lp), (lp.line, n)

    def test_constructors_agree_with_line_cells(self):
        pair = {1: (SYM, LONG_CYCLE), 2: (SYM, TRANSPOSITION), 3: (SYM, TRANSPOSITION),
                4: (ALT, LONG_CYCLE), 5: (ALT, LONG_CYCLE)}
        cells = set(LINE_CELLS)
        for n in range(7, 201):
            for line in range(0, 11):
                if (line, n) in cells:
                    group, goal = pair.get(line, (ALT, THREE_CYCLE))
                    lp = families.line_params_by_line(line, n)
                    assert lp == line_params(group, n, goal)
                    assert lp.line == line
                else:
                    with pytest.raises(ValueError):
                        families.line_params_by_line(line, n)

    def test_accepted_lengths(self):
        # the test's acceptance rule: L = r0*m with r0 | r
        for n in range(7, 201):
            for group, goal in families.PAIRS:
                lp = line_params(group, n, goal)
                m, r = lp.m, lp.r
                want = {L for L in range(1, r * m + 1) if L % m == 0 and r % (L // m) == 0}
                assert families.accepted_lengths(m, r) == want, (lp.line, n)

    def test_incompatible(self):
        with pytest.raises(ValueError):
            line_params(ALT, 9, TRANSPOSITION)
        with pytest.raises(ValueError):
            line_params(SYM, 9, THREE_CYCLE)
        with pytest.raises(ValueError):
            line_params(SYM, 6, LONG_CYCLE)

    def test_rho_computed_when_read(self, monkeypatch):
        calls = []
        exact_rho = families.exact_rho

        def counting(*a):
            calls.append(a)
            return exact_rho(*a)

        monkeypatch.setattr(families, "exact_rho", counting)
        lp = line_params(SYM, 8, TRANSPOSITION)
        lp2 = families.line_params_by_line(9, 13)
        assert calls == []
        assert lp.rho == Fraction(2, 3)
        assert lp2.rho == class_sum_rho(lp2)
        assert calls == [(SYM, 8, 5, 2), (ALT, 13, 7, 3)]

    def test_rho_not_a_field(self):
        with pytest.raises(TypeError):
            families.LineParams(3, SYM, 8, 5, 2, Fraction(2, 3), "2-cycle")

    def test_m_range(self):
        for n in range(8, 40):
            for group, goal in [
                (SYM, LONG_CYCLE), (SYM, TRANSPOSITION),
                (ALT, LONG_CYCLE), (ALT, THREE_CYCLE),
            ]:
                lp = line_params(group, n, goal)
                assert n - 6 <= lp.m <= n


class TestDeltaSigma:
    """The reference's point-set Delta against the v that `classify_type`
    sums from the cycle type."""

    @staticmethod
    def split(g, lp):
        delta, sigma = reference_delta_sigma(g, lp)
        rm = lp.r * lp.m
        assert len(delta) == sum(t for t in g.cycle_type() if rm % t == 0)
        return len(delta), len(sigma)

    def test_all_dividing(self):
        lp = line_params(SYM, 12, LONG_CYCLE)  # m = 12, r = 1
        g = Permutation.from_cycles(12, [list(range(6)), list(range(6, 10)), [10, 11]])
        # lengths 6, 4, 2 all divide 12
        assert self.split(g, lp) == (12, 0)

    def test_type_643(self):
        lp = line_params(SYM, 13, LONG_CYCLE)
        g = Permutation.from_cycles(
            13, [list(range(6)), list(range(6, 10)), list(range(10, 13))]
        )
        # rm = 13: none of 6, 4, 3 divides it
        assert self.split(g, lp) == (0, 13)

    def test_none_dividing(self):
        lp = line_params(SYM, 13, TRANSPOSITION)  # m = 11, r = 2
        g = Permutation.from_cycles(13, [list(range(7)), list(range(7, 13))])
        assert self.split(g, lp) == (0, 13)

    def test_partition(self):
        rng = random.Random(6)
        lp = line_params(SYM, 20, TRANSPOSITION)
        for _ in range(50):
            g = perms.random_element(SYM, 20, rng)
            delta, sigma = reference_delta_sigma(g, lp)
            assert delta | sigma == frozenset(range(20))
            assert not delta & sigma
            self.split(g, lp)


class TestMembership:
    def test_n_cycle(self):
        lp = line_params(SYM, 9, LONG_CYCLE)
        g = Permutation.from_cycles(9, [list(range(9))])
        assert in_Ngood(g, lp)

    def test_line2_type_7_2(self):
        lp = line_params(SYM, 9, TRANSPOSITION)
        g = Permutation.from_cycles(9, [list(range(7)), [7, 8]])
        assert in_Ngood(g, lp)  # order 14 divides rm = 14
        g9 = Permutation.from_cycles(9, [list(range(9))])
        assert not in_N(g9, lp)  # no 7-cycle

    @pytest.mark.parametrize("line, n", [(1, 12), (2, 13), (3, 12), (4, 13), (6, 14), (9, 13)])
    def test_ngood_type_matches_in_ngood(self, line, n):
        # the type predicate agrees with the element test on every type of
        # the line's group, in either order
        lp = families.line_params_by_line(line, n)
        rng = random.Random(line)
        hits = 0
        for parts in families.partitions(n, range(1, n + 1)):
            g = lay_type(parts, n, rng)
            if in_group(g, lp.group):
                want = lp.m in g.cycle_type() and lp.r * lp.m % g.order() == 0
                assert in_Ngood(g, lp) == want
                hits += want
                assert families.is_ngood_type(parts, lp) == want
                assert families.is_ngood_type(parts[::-1], lp) == want
        assert hits

    def test_parity_enforced(self):
        lp = families.line_params_by_line(6, 8)  # Alt(8), m = 5
        g = Permutation.from_cycles(8, [[0, 1, 2, 3, 4]])  # 5-cycle, even
        assert in_N(g, lp)
        odd = Permutation.from_cycles(8, [[0, 1, 2, 3, 4], [5, 6]])
        assert not odd.is_even()
        assert not in_N(odd, lp)
        with pytest.raises(ValueError, match="outside"):
            classify(odd, lp, Fraction(5, 8))


class TestClassify:
    def test_N_precedence(self):
        lp = line_params(SYM, 12, TRANSPOSITION)  # m = 9
        g = Permutation.from_cycles(12, [list(range(9)), [9, 10]])
        for s in (Fraction(5, 8), Fraction(7, 10)):
            assert classify(g, lp, s) == FAMILY_N

    def test_R_example(self):
        lp = line_params(SYM, 12, LONG_CYCLE)
        g = Permutation.from_cycles(
            12, [list(range(6)), list(range(6, 10)), list(range(10, 12))]
        )
        # v = 12 <= 4 * 12^0.7 ~ 22.9
        assert classify(g, lp, Fraction(7, 10)) == FAMILY_R

    def test_Sge2_example(self):
        lp = line_params(SYM, 60, LONG_CYCLE)
        g = Permutation.from_cycles(
            60, [list(range(30)), list(range(30, 50)), list(range(50, 60))]
        )
        # s = 0.6: threshold 60^0.6 ~ 11.67; 30 and 20 are both s-large
        assert classify(g, lp, Fraction(3, 5)) == FAMILY_SGE2

    def test_Other(self):
        lp = line_params(SYM, 12, LONG_CYCLE)
        g = Permutation.from_cycles(12, [list(range(7))])  # order 7, 12 does not divide
        assert classify(g, lp, Fraction(5, 8)) == FAMILY_OTHER

    @staticmethod
    def _of_lengths(n, lengths):
        cycles, start = [], 0
        for t in lengths:
            cycles.append(list(range(start, start + t)))
            start += t
        assert start == n
        return Permutation.from_cycles(n, cycles)

    def test_S0_S1_constructions(self):
        lp = line_params(SYM, 200, LONG_CYCLE)  # m = 200, rm = 200
        s = Fraction(51, 100)  # threshold 200^0.51 ~ 14.9, R cutoff ~ 59.7
        # S1+: Delta = 100-cycle + six 8-cycles (v=148, v-100 ~ 48 > 3*thr)
        g = self._of_lengths(200, [100] + [8] * 6 + [3, 49])
        assert classify(g, lp, s) == FAMILY_S1PLUS
        # S1-: Delta = 100-cycle + five 8-cycles (v=140, v-100 = 40 <= 3*thr)
        g = self._of_lengths(200, [100] + [8] * 5 + [3, 57])
        assert classify(g, lp, s) == FAMILY_S1MINUS
        # S0: Delta = eight 8-cycles (v=64 > cutoff, all s-small);
        # the 75-cycle in Sigma supplies the factor 25 so that 200 | o(g)
        g = self._of_lengths(200, [8] * 8 + [75, 61])
        assert classify(g, lp, s) == FAMILY_S0
        # Sge2: two s-large cycles inside Delta
        g = self._of_lengths(200, [100, 40, 25, 20] + [5, 7, 3])
        assert classify(g, lp, s) == FAMILY_SGE2

    def test_exhaustive_partition_small(self):
        lp = line_params(SYM, 8, TRANSPOSITION)
        s = Fraction(5, 8)
        for g in perms.enumerate_group(SYM, 8):
            label = classify(g, lp, s)
            in_n = in_N(g, lp)
            other = g.order() % lp.m != 0 and not in_n
            assert (label == FAMILY_N) == in_n
            assert (label == FAMILY_OTHER) == other

    def test_fuzz_partition_large(self):
        rng = random.Random(17)
        for n in (50, 120, 200):
            lp = line_params(SYM, n, LONG_CYCLE)
            for _ in range(200):
                g = perms.random_element(SYM, n, rng)
                label = classify(g, lp, Fraction(5, 8))
                assert label in (
                    FAMILY_N, FAMILY_R, FAMILY_S0, FAMILY_S1PLUS,
                    FAMILY_S1MINUS, FAMILY_SGE2, FAMILY_OTHER,
                )
                if label not in (FAMILY_N, FAMILY_OTHER):
                    assert g.order() % lp.m == 0 and not in_N(g, lp)

    def test_s_validated(self):
        lp = line_params(SYM, 10, LONG_CYCLE)
        small = line_params(SYM, 7, TRANSPOSITION)
        g = Permutation.identity(10)
        for s, match in [
            (Fraction(1, 2), "s must lie in"),
            (0.7, "s must be a Fraction, got 0.7"),
            ("5/8", "s must be a Fraction, got '5/8'"),
        ]:
            with pytest.raises(ValueError, match=match):
                classify(g, lp, s)
            with pytest.raises(ValueError, match=match):
                families.classify_type([10], lp, s)
            with pytest.raises(ValueError, match=match):
                montecarlo.class_table(small, 2, s)
            with pytest.raises(ValueError, match=match):
                montecarlo.exact_conditional(small, 2, 4, s)
            # the element is checked first
            with pytest.raises(ValueError, match="degree"):
                classify(Permutation.identity(9), lp, s)


class TestClassifyMatchesPointSets:
    @pytest.mark.parametrize("line", [3, 5, 6])
    def test_every_element_n8(self, line):
        lp = families.line_params_by_line(line, 8)
        for g in perms.enumerate_group(lp.group, 8):
            for s in (Fraction(5, 8), Fraction(7, 10)):
                assert classify(g, lp, s) == reference_classify(g, lp, s)

    @settings(max_examples=200, deadline=None)
    @given(
        cell=st.sampled_from(LINE_CELLS),
        seed=st.integers(0, 2**32 - 1),
        s=st.sampled_from([Fraction(51, 100), Fraction(5, 8), Fraction(7, 10)]),
    )
    def test_drawn_elements(self, cell, seed, s):
        lp = families.line_params_by_line(*cell)
        rng = random.Random(seed)
        drawn = [
            perms.random_element(lp.group, lp.n, rng),
            lay_type(montecarlo.sample_ngood(lp, rng), lp.n, rng),
            rm_heavy_element(lp, rng),
        ]
        for g in drawn:
            if in_group(g, lp.group):
                assert classify(g, lp, s) == reference_classify(g, lp, s)


class TestDivisorProfile:
    def test_r2_example(self):
        lp = families.LineParams(2, SYM, 17, 15, 2, "2-cycle")
        prof = divisor_profile(lp)
        assert prof["large"] == {5, 6, 10}

    def test_r1_prime(self):
        lp = families.LineParams(1, SYM, 13, 13, 1, "n-cycle")
        assert divisor_profile(lp)["large"] == set()

    def test_r3_example(self):
        lp = families.LineParams(8, ALT, 38, 35, 3, "3-cycle")
        prof = divisor_profile(lp)
        assert prof["large"] == {15, 21}

    def test_sweep(self):
        for n in range(8, 2000):
            for group, goal in families.PAIRS:
                prof = divisor_profile(line_params(group, n, goal))
                assert prof["violations"] == [], (group, goal, n)
                assert len(prof["large"]) <= 3

    def test_violation_reported(self):
        # line 9 at n = 7 has m = 1, so rm = 3 is a large divisor off the table
        lp = families.LineParams(9, ALT, 7, 1, 3, "3-cycle")
        assert lp == line_params(ALT, 7, THREE_CYCLE)
        prof = divisor_profile(lp)
        assert prof["large"] == {3}
        assert prof["violations"] == [
            "unexpected large divisor 3 for r=3, m=1",
            "large divisor 3 exceeds 2m/3 for m=1",
        ]


class TestRhoOracle:
    def test_fast_lines(self):
        for line, n in [(1, 7), (2, 7), (3, 8), (4, 7), (5, 8), (6, 8)]:
            lp = families.line_params_by_line(line, n)
            assert families.rho_oracle(lp) == lp.rho
        # off the table: an even m, where Alt's parity filter bites, and
        # m <= n - m, where the leftover points may hold more m-cycles
        for group, n, m, r in [(ALT, 8, 6, 1), (ALT, 8, 4, 2), (SYM, 8, 3, 2)]:
            lp = families.LineParams(0, group, n, m, r, "")
            assert families.exact_rho(group, n, m, r) == families.rho_oracle(lp)

    def test_guard(self):
        lp = line_params(SYM, 10, LONG_CYCLE)
        with pytest.raises(ValueError):
            families.rho_oracle(lp)

    def test_exact_rho_rejects_unknown_group(self):
        with pytest.raises(ValueError, match="unknown group"):
            families.exact_rho("foo", 9, 9, 1)


class TestExtractTarget:
    def test_line2(self):
        lp = line_params(SYM, 9, TRANSPOSITION)
        g = Permutation.from_cycles(9, [list(range(7)), [7, 8]])
        x, kind = families.extract_target(g, lp)
        assert kind == "2-cycle"
        assert x == Permutation.from_cycles(9, [[7, 8]])

    def test_line3_identity(self):
        lp = line_params(SYM, 8, TRANSPOSITION)
        g = Permutation.from_cycles(8, [list(range(5))])  # three fixed points
        _, kind = families.extract_target(g, lp)
        assert kind == "identity"

    def test_line8(self):
        lp = line_params(ALT, 12, THREE_CYCLE)
        g = Permutation.from_cycles(12, [list(range(7)), [7, 8, 9]])
        if g.is_even():
            _, kind = families.extract_target(g, lp)
            assert kind == "3-cycle"

    def test_ngood_never_other(self):
        for line, n in [(2, 9), (3, 8), (6, 8)]:
            lp = families.line_params_by_line(line, n)
            for g in perms.enumerate_group(lp.group, n):
                if in_Ngood(g, lp):
                    _, kind = families.extract_target(g, lp)
                    assert kind in ("identity", "2-cycle", "3-cycle")


def composition_partitions(v):
    """Every partition of v, as the sorted compositions of v (2^(v-1) of them)."""
    out = set()
    for cuts in range(2 ** max(v - 1, 0)):
        parts, size = [], 1
        for i in range(v - 1):
            if cuts >> i & 1:
                parts.append(size)
                size = 0
            size += 1
        out.add(tuple(sorted(parts + [size])) if v else ())
    return out


def old_partitions_with_min_part(u, min_part):
    """combinatorics.partitions_with_min_part as it was written before it
    read families.partitions."""
    out = []

    def rec(remaining, smallest, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(smallest, remaining + 1):
            if remaining - part != 0 and remaining - part < smallest:
                continue
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(u, min_part, [])
    return out


class TestPartitions:
    # A000041: the number of partitions of v, v = 0..30
    COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
              385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604]

    def test_counts(self):
        for v, count in enumerate(self.COUNTS):
            assert sum(1 for _ in families.partitions(v, range(1, v + 1))) == count

    def test_all_partitions_in_lexicographic_order(self):
        for v in range(13):
            got = list(families.partitions(v, range(1, v + 1)))
            assert got == sorted(composition_partitions(v))

    def test_parts_dividing_rm(self):
        for v in range(13):
            every = sorted(composition_partitions(v))
            for rm in (1, 2, 6, 12, 30, 105):
                want = [p for p in every if all(rm % t == 0 for t in p)]
                assert list(families.partitions(v, families.divisors(rm))) == want

    def test_min_part_matches_old_recursion(self):
        for u in range(21):
            for min_part in (1, 2, 3):
                assert partitions_with_min_part(u, min_part) == old_partitions_with_min_part(u, min_part)

    def test_class_sizes_sum_to_group_order(self):
        for n in range(13):
            parts = families.partitions(n, range(1, n + 1))
            assert sum(Fraction(1, families.centralizer_order(p)) for p in parts) == 1


class TestDivisorArithmetic:
    def test_prime_divisors(self):
        for x in range(1, 300):
            primes = [p for p in range(2, x + 1) if x % p == 0 and all(p % q for q in range(2, p))]
            assert families.prime_divisors(x) == tuple(primes)
            assert families.divisors(x) == [d for d in range(1, x + 1) if x % d == 0]
        for bad in (families.prime_divisors, families.divisors):
            with pytest.raises(ValueError):
                bad(0)

    def test_prime_divisors_match_trial_division(self):
        def reference(x):  # strip each prime factor as trial division finds it
            out, d = [], 2
            while d * d <= x:
                if x % d == 0:
                    out.append(d)
                    while x % d == 0:
                        x //= d
                d += 1
            return tuple(out + [x] * (x > 1))

        for x in range(1, 10**4 + 1):
            assert families.prime_divisors(x) == reference(x), x
        for bad in (0, -1, -12):
            with pytest.raises(ValueError):
                families.prime_divisors(bad)

    def test_small(self):
        assert len(families.divisors(1)) == 1
        assert len(families.divisors(30)) == 8
        assert families.divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_d_rm_bound(self):
        for n in range(8, 500):
            for group, goal in families.PAIRS:
                lp = line_params(group, n, goal)
                assert len(families.divisors(lp.r * lp.m)) <= 2 * len(families.divisors(lp.m))
