import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksettrace
from ksettrace import bounds, combinatorics, families
from ksettrace.perms import SYM


class TestValidateParams:
    def test_theorem_parameters(self):
        rep = bounds.validate_params(4, Fraction(5, 8), Fraction(1, 24))
        assert rep["ok"]
        assert rep["ell"] == Fraction(7, 6)

    def test_boundary_s(self):
        rep = bounds.validate_params(4, Fraction(1, 2), Fraction(1, 24))
        assert not rep["ok"]
        assert any("s" in v for v in rep["violations"])

    def test_alternate_parameters(self):
        rep = bounds.validate_params(4, Fraction(17, 24), Fraction(1, 6))
        assert rep["ok"]
        # the eq-(4) minimum here is 2s - 2delta = 13/12 (not 7/6)
        assert rep["ell"] == Fraction(13, 12)

    def test_m_too_small(self):
        rep = bounds.validate_params(3, Fraction(5, 8), Fraction(1, 24))
        assert not rep["ok"]

    @pytest.mark.parametrize("M", [0, -1])
    def test_no_traced_point_rejected(self, M):
        with pytest.raises(ValueError, match="M >= 1"):
            bounds.validate_params(M, Fraction(5, 8), Fraction(1, 24))


class TestCDeltaSearch:
    def test_delta_one(self):
        val, arg = bounds.c_delta_search(Fraction(1), 10**6)
        assert 1 <= val <= 2

    def test_delta_sixth_below_paper_constant(self):
        val, arg = bounds.c_delta_search(Fraction(1, 6), 10**9)
        assert val <= 138.32
        assert val > 40  # the search does find large-ratio witnesses

    def test_monotone_in_delta(self):
        lo, _ = bounds.c_delta_search(Fraction(1, 24), 10**7)
        hi, _ = bounds.c_delta_search(Fraction(1, 6), 10**7)
        assert lo >= hi

    def test_is_lower_bound(self):
        val, arg = bounds.c_delta_search(Fraction(1, 6), 10**6)
        assert abs(len(families.divisors(arg)) / arg ** (1 / 6) - val) < 1e-9


class TestADelta:
    def test_limit(self):
        out = bounds.a_delta_eval(0.0, Fraction(17, 24), Fraction(1, 6))
        assert abs(out - 1.25) < 1e-12

    def test_negative_c_delta_rejected(self):
        # (5/4)(1 + 3c/q + (c/q)^2) at c = -5 gave 0.14475, below the c = 0 limit
        with pytest.raises(ValueError, match="c_delta >= 0"):
            bounds.a_delta_eval(-5, Fraction(17, 24), Fraction(1, 6))

    def test_regression_eq5_at_150(self):
        out = bounds.a_delta_eval(138.32, Fraction(17, 24), Fraction(1, 6))
        # pinned: (5/4)(1 + 3c/q + (c/q)^2) at q = 150^(13/24)
        assert abs(out - 140.63577073957444) < 1e-8


class TestBM:
    def test_degenerate(self):
        val = bounds.b_M_eval(4, Fraction(5, 8), Fraction(1, 24), 1, 0.0, 1.25)
        assert abs(val - ((33 / 8) ** 4 + 31**4)) < 1e-6

    def test_monotone_in_c(self):
        args = (4, Fraction(17, 24), Fraction(1, 6), 1)
        assert bounds.b_M_eval(*args, 100.0, 6.25) < bounds.b_M_eval(*args, 138.32, 6.25)

    @pytest.mark.parametrize("r, c, a", [(0, 1.0, 1.25), (-2, 1.0, 1.25),
                                         (1, -5.0, 1.25), (1, 1.0, -1.0)])
    def test_out_of_range_rejected(self, r, c, a):
        with pytest.raises(ValueError, match="need r >= 1"):
            bounds.b_M_eval(4, Fraction(5, 8), Fraction(1, 24), r, c, a)

    def test_regression_stated_inputs(self):
        # with M=4, s=17/24, delta=1/6, c=138.32, a=25/4, r=1 the formula
        # evaluates to ~1.1276e8; this pins the computed value
        val = bounds.b_M_eval(4, Fraction(17, 24), Fraction(1, 6), 1, 138.32, 6.25)
        assert abs(val - 112762003.022) < 1.0


class TestThreshold:
    def test_eps_scaling(self):
        ell = Fraction(7, 6)
        t1 = bounds.n_threshold(ell, 1e8, 1.0)
        t2 = bounds.n_threshold(ell, 1e8, 0.5)
        assert abs((t2 - t1) - math.log10(2 ** (1 / (7 / 6 - 1)))) < 1e-9

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_eps_outside_range_rejected(self, eps):
        with pytest.raises(ValueError, match="eps > 0"):
            bounds.n_threshold(Fraction(7, 6), 1e8, eps)
        with pytest.raises(ValueError, match="eps > 0"):
            bounds.n_satisfies(10**9, Fraction(5, 8), 1, Fraction(7, 6), 1e8, eps)

    def test_size_flag_is_check_simple_hypothesis(self):
        # one predicate, 12 (rn)^s + 6 <= n, behind both readers
        for s in (Fraction(51, 100), Fraction(5, 8), Fraction(2, 3)):
            for r in (1, 2, 3):
                for n in (6, 7, 156, 157, 500, 2000, 10**4):
                    size = bounds.n_satisfies(n, s, r, Fraction(7, 6), 1e8, 1.0)["size"]
                    assert size == combinatorics.size_hypothesis(n, r, s)
                    if size:
                        combinatorics.check_simple(n, r, s)
                    else:
                        with pytest.raises(ValueError, match="hypothesis"):
                            combinatorics.check_simple(n, r, s)

    def test_first_constraint_fails_small_n(self):
        flags = bounds.n_satisfies(156, Fraction(5, 8), 1, Fraction(7, 6), 1e8, 1.0)
        assert not flags["size"]  # 12 * 156^(5/8) + 6 > 156

    def test_constraints_hold_large_n(self):
        n = 10**9
        # threshold (10 b_M / eps)^(1/(ell-1)) = 10^6 here, well below n
        flags = bounds.n_satisfies(n, Fraction(5, 8), 1, Fraction(7, 6), 1e-1, 1.0)
        assert flags["size"] and flags["log"] and flags["threshold"]

    def test_monotone(self):
        ell, bm, eps, s, r = Fraction(7, 6), 1e4, 1.0, Fraction(5, 8), 1
        ok_seen = False
        prev = None
        for n in [10**3, 10**5, 10**7, 10**9, 10**11]:
            flags = bounds.n_satisfies(n, s, r, ell, bm, eps)
            all_ok = all(flags.values())
            if prev is not None and prev:
                assert all_ok
            prev = all_ok


class TestFamilyBounds:
    def test_values(self):
        line = families.line_params(SYM, 10**4, families.LONG_CYCLE)
        rep = bounds.family_bounds(
            10**4, 2, 4, Fraction(5, 8), 6.25, line
        )
        d = len(families.divisors(line.r * line.m))
        assert abs(rep.bounds["Sge2"] - d**2 / (10**4) ** 1.25) < 1e-12
        assert all(v > 0 for v in rep.bounds.values())

    def test_success_floor(self):
        line = families.line_params(SYM, 100, families.LONG_CYCLE)
        rep = bounds.family_bounds(100, 2, 4, Fraction(5, 8), 6.25, line)
        assert abs(rep.success_floor - 0.92236816) < 1e-9

    def test_mcyc_ceiling(self):
        line = families.LineParams(1, SYM, 150, 150, 1, "n-cycle")
        rep = bounds.family_bounds(150, 2, 4, Fraction(5, 8), 6.25, line)
        assert abs(rep.mcyc_ceiling - 0.04) < 1e-12

    def test_decreasing_in_n(self):
        prev = None
        for n in (10**3, 10**4, 10**5, 10**6):
            line = families.line_params(SYM, n, families.LONG_CYCLE)
            rep = bounds.family_bounds(n, 2, 4, Fraction(5, 8), 6.25, line)
            total = rep.bounds["R"] + rep.bounds["S1minus"]
            if prev is not None:
                assert total < prev
            prev = total


    def test_ell_one_cell(self):
        # (M, s, delta) = (4, 5/8, 1/8) has ell = 1, where the third
        # n-constraint's exponent 1/(ell-1) is undefined: it has no cutoff,
        # so its flag is False, and the ceilings need no ell
        ell = bounds.ell_value(4, Fraction(5, 8), Fraction(1, 8))
        assert ell == 1
        assert bounds.n_satisfies(100, Fraction(5, 8), 1, ell, 1.0, 1.0) == {
            "size": False, "log": True, "threshold": False}
        line = families.line_params(SYM, 100, families.LONG_CYCLE)
        rep = bounds.family_bounds(100, 2, 4, Fraction(5, 8), 6.25, line)
        assert rep.bounds == pytest.approx({
            "R": 0.289531494140625, "S0": 11.526502071313743,
            "S1plus": 15.987926216486814, "Sge2": 0.25614449047363874,
            "S1minus": 923.521,
        }, rel=1e-12)
        assert rep.mcyc_ceiling == pytest.approx(0.06, rel=1e-12)

    @pytest.mark.parametrize("ell", [Fraction(9, 10), Fraction(1), Fraction(7, 6),
                                     Fraction(3, 2)])
    def test_threshold_flag_matches_n_threshold(self, ell):
        # one cutoff rule: the flag holds exactly past n_threshold's cutoff,
        # and is False wherever n_threshold is None (ell <= 1); b_M = 1e6 and
        # eps = 0.1 put the cutoff at 10^(8/(ell-1)), far from both n
        log10_thr = bounds.n_threshold(ell, 1e6, 0.1)
        assert (log10_thr is None) == (ell <= 1)
        for n in (10**10, 10**60):
            flag = bounds.n_satisfies(n, Fraction(5, 8), 1, ell, 1e6, 0.1)["threshold"]
            assert flag == (log10_thr is not None and math.log10(n) > log10_thr)


class TestCeilingRelation:
    """The three readers of the family-ceiling table agree: at c_delta =
    d(rm)/(rm)^delta, the ceilings of `family_bounds` sum to at most
    b_M n^-ell on every line."""

    @settings(max_examples=25, deadline=None)
    @given(M=st.integers(4, 9), i=st.integers(1, 47), j=st.integers(1, 47))
    def test_ceilings_sum_below_b_M(self, M, i, j):
        # s and delta at i/48 and j/48 of their admissible windows
        s = Fraction(1, 2) + (Fraction(M - 1, M) - Fraction(1, 2)) * Fraction(i, 48)
        delta = min(1 - s, s / 3, s - Fraction(1, 2)) * Fraction(j, 48)
        rep = bounds.validate_params(M, s, delta)
        assert rep["ok"]  # the window forces ell > 1
        ell = rep["ell"]
        for line in families.LINES:
            for n0 in (7, 100, 10**4):
                n = next(x for x in range(n0, n0 + 6)
                         if x % families.LINES[line][2] in families.LINES[line][3])
                lp = families.line_params_by_line(line, n)
                rm = lp.r * lp.m
                c = len(families.divisors(rm)) / rm ** float(delta)
                a = bounds.a_delta_eval(c, s, delta)
                total = sum(bounds.family_bounds(n, 2, M, s, a, lp).bounds.values())
                b_M = bounds.b_M_eval(M, s, delta, lp.r, c, a)
                assert total <= b_M * n ** -float(ell) * (1 + 1e-9), (line, n)
        # at n = m = r = 1 every power of n and r is 1 and D = 1: the
        # ceilings are b_M's terms at c_delta = 1
        unit = families.LineParams(1, SYM, 1, 1, 1, "n-cycle")
        total = sum(bounds.family_bounds(1, 2, M, s, 6.25, unit).bounds.values())
        assert total == pytest.approx(bounds.b_M_eval(M, s, delta, 1, 1.0, 6.25), rel=1e-12)


class TestTrialCount:
    def test_examples(self):
        # eps just above 1/e, p = 1/2: N = ceil(~1.99998) = 2
        assert combinatorics.trial_count(Fraction(36788, 100000), Fraction(1, 2)) == 2
        assert combinatorics.trial_count(Fraction(5, 100), Fraction(1, 100)) == 300

    def test_recheck(self):
        for eps, p in [(Fraction(1, 20), Fraction(1, 100)), (Fraction(1, 2), Fraction(1, 3))]:
            N = combinatorics.trial_count(eps, p)
            assert (1 - p) ** N <= eps


class TestPrecision:
    def test_import_leaves_precision(self):
        src = str(Path(ksettrace.__file__).resolve().parents[1])
        code = "import mpmath, ksettrace, ksettrace.bounds, ksettrace.cli; print(mpmath.mp.dps)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.split() == ["15"]

    def test_verdicts_independent_of_caller_precision(self):
        def evaluate():
            s, delta = Fraction(5, 8), Fraction(1, 24)
            b_M = bounds.b_M_eval(4, s, delta, 3, 230.2706153357774, 239.38542257892908)
            verdicts = [
                check(x)
                for check in (combinatorics.check_ns_a, combinatorics.check_ns_b)
                for x in (Fraction(121, 10), Fraction(13), Fraction(1001, 7))
            ] + [
                combinatorics.check_eps(eps, p)
                for eps, p in [(Fraction(1, 10), Fraction(1, 100)),
                               (Fraction(36788, 100000), Fraction(1, 2))]
            ]
            return (b_M, bounds.n_threshold(Fraction(7, 6), b_M, 0.1),
                    [(v.holds, str(v.lhs), str(v.rhs)) for v in verdicts])

        results = []
        for dps in (15, 60):
            with mpmath.workdps(dps):
                results.append(evaluate())
                assert mpmath.mp.dps == dps
        assert results[0] == results[1]
