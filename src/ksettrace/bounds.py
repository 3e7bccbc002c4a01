"""Explicit-constant machinery: admissibility of (M, s, delta), the divisor
constant c_delta, the derived constants a_delta, ell, b_M, the three
n-constraints, and the per-family probability ceilings.

Each family that can fool the test (R, S0, S1+, S1-, S>=2) has a ceiling
coefficient * D^j / n^e at divisor count D = d(rm), written once in
`_ceilings`.  As D <= c_delta (rm)^delta <= c_delta r^delta n^delta, ell is
the least e - j delta (`ell_value`) and b_M the sum of the coefficients at
D = c_delta r^delta (`b_M_eval`); the ceilings at D = d(rm)
(`family_bounds`) sum to at most b_M n^-ell.
`n_satisfies` is the one predicate for the three n-constraints; its third
flag is False wherever `n_threshold`, that constraint's cutoff, is None.

Point evaluation is done in mpmath at 60 significant digits, set per call
by `mpmath.workdps`, so the caller's precision is left alone.  Certified
flags use `mpmath.iv`, which stays at 53 bits under `workdps` and rounds
outward; rationals enter it through `combinatorics._to_iv`, which encloses
them.  Rational quantities stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .combinatorics import _to_iv, size_hypothesis
from .families import (FAMILY_R, FAMILY_S0, FAMILY_S1MINUS, FAMILY_S1PLUS, FAMILY_SGE2,
                       LineParams, divisors)


@dataclass(frozen=True)
class FamilyBoundReport:
    """Per-family probability ceilings, the acceptance floor and the
    m-cycle ceiling at a concrete n."""

    bounds: dict
    success_floor: float
    mcyc_ceiling: float


def _ceilings(M: int, s: Fraction) -> dict:
    """family -> (coefficient, e, j): the family's probability ceiling is
    coefficient(r, a_delta) * D^j / n^e at divisor count D = d(rm).  The
    exponent e is exact; the coefficient takes r and a_delta as mpmath
    numbers.  R and S1- are met once per traced point, so they share the
    exponent `per_point`."""
    sm = _mpf(s)
    per_point = M * (1 - s)
    return {
        FAMILY_R: (lambda r, a: (mpmath.mpf(33) / 8) ** M, per_point, 0),
        FAMILY_S0: (lambda r, a: 72 * a * r ** (2 * sm), 3 - 2 * s, 2),
        FAMILY_S1PLUS: (lambda r, a: mpmath.mpf("6.24") * a, 1 + s, 3),
        FAMILY_SGE2: (lambda r, a: r ** (-2 * sm), 2 * s, 2),
        FAMILY_S1MINUS: (lambda r, a: (31 / r ** (1 - sm)) ** M, per_point, 0),
    }


def ell_value(M: int, s: Fraction, delta: Fraction) -> Fraction:
    """ell = min of e - j delta over the family ceilings, exact."""
    s, delta = Fraction(s), Fraction(delta)
    return min(e - j * delta for _, e, j in _ceilings(M, s).values())


def validate_params(M: int, s: Fraction, delta: Fraction) -> dict:
    """Check M >= 4, the (s, delta) window 0 < delta < min{1-s, s/3, s-1/2}
    with 1/2 < s < (M-1)/M, and ell > 1.  Violations are returned as data;
    M < 1, which traces no point, raises ValueError."""
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    s, delta = Fraction(s), Fraction(delta)
    violations = []
    if M < 4:
        violations.append(f"M = {M} < 4")
    if not Fraction(1, 2) < s:
        violations.append(f"s = {s} <= 1/2")
    if not s < Fraction(M - 1, M):
        violations.append(f"s = {s} >= (M-1)/M = {Fraction(M - 1, M)}")
    dmax = min(1 - s, s / 3, s - Fraction(1, 2))
    if not 0 < delta < dmax:
        violations.append(f"delta = {delta} outside (0, {dmax})")
    ell = ell_value(M, s, delta)
    if not ell > 1:
        violations.append(f"ell = {ell} <= 1")
    return {"ok": not violations, "violations": violations, "ell": ell}


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@mpmath.workdps(60)
def c_delta_search(delta: Fraction, x_limit: int = 10**9) -> tuple[float, int]:
    """Certified lower bound on sup d(x)/x^delta: the max of the ratio over
    integers up to x_limit with non-increasing prime-exponent signature
    (any x shares its divisor count with such a witness of equal or smaller
    size).  Returns (bound, argmax x); never claimed to be the supremum."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("need 0 < delta <= 1")
    if x_limit > 10**9:
        raise ValueError("x_limit capped at 1e9")
    d = _mpf(delta)
    best = (mpmath.mpf(1), 1)  # x = 1: d(1)/1 = 1

    def rec(i: int, x: int, dx: int, max_exp: int):
        nonlocal best
        ratio = dx / mpmath.mpf(x) ** d
        if ratio > best[0]:
            best = (ratio, x)
        if i >= len(_PRIMES):
            return
        p = _PRIMES[i]
        val = x
        for e in range(1, max_exp + 1):
            if val > x_limit // p:
                break
            val *= p
            rec(i + 1, val, dx * (e + 1), e)

    rec(0, 1, 1, 64)
    return float(best[0]), best[1]


@mpmath.workdps(60)
def a_delta_eval(c_delta: float, s: Fraction, delta: Fraction) -> float:
    """a_delta = (5/4)(1 + 3 c/q + (c/q)^2) with q = 150^(s-delta)."""
    s, delta = Fraction(s), Fraction(delta)
    if not s > delta or c_delta < 0:
        raise ValueError(f"need s > delta and c_delta >= 0, got s={s}, delta={delta}, c_delta={c_delta}")
    ratio = mpmath.mpf(c_delta) / mpmath.mpf(150) ** _mpf(s - delta)
    return float(mpmath.mpf(5) / 4 * (1 + 3 * ratio + ratio**2))


@mpmath.workdps(60)
def b_M_eval(M: int, s: Fraction, delta: Fraction, r: int, c_delta: float,
             a_delta: float) -> float:
    """b_M, the sum of the `_ceilings` coefficients at divisor count
    D = c_delta r^delta, in high precision."""
    if r < 1 or c_delta < 0 or a_delta < 0:
        raise ValueError(f"need r >= 1, c_delta >= 0 and a_delta >= 0, "
                         f"got r={r}, c_delta={c_delta}, a_delta={a_delta}")
    rr, a = mpmath.mpf(r), mpmath.mpf(a_delta)
    D = mpmath.mpf(c_delta) * rr ** _mpf(Fraction(delta))
    return float(sum(coef(rr, a) * D**j for coef, _, j in _ceilings(M, Fraction(s)).values()))


@mpmath.workdps(60)
def n_satisfies(n: int, s: Fraction, r: int, ell: Fraction, b_M: float, eps: float) -> dict:
    """Truth values of the three n-constraints: 12(rn)^s + 6 <= n,
    (rn)^s log n <= n, and n >= (10 b_M / eps)^(1/(ell-1)).

    The first is exact (integer cross-powers); the others use interval
    arithmetic so a True flag is certified.  The third is False wherever
    `n_threshold` is None.
    """
    threshold = False
    if _has_cutoff(ell, eps):
        base = 10 * mpmath.iv.mpf(mpmath.mpf(b_M)) / mpmath.iv.mpf(mpmath.mpf(eps))
        threshold = mpmath.iv.mpf(n).a >= (base ** (1 / _to_iv(Fraction(ell) - 1))).b
    s = Fraction(s)
    log_iv = mpmath.iv.mpf(r * n) ** _to_iv(s) * mpmath.iv.log(mpmath.iv.mpf(n))
    return {"size": size_hypothesis(n, r, s), "log": log_iv.b <= n, "threshold": threshold}


def _has_cutoff(ell: Fraction, eps: float) -> bool:
    """Check eps > 0; return whether 10 b_M n^(1-ell) <= eps has a cutoff: ell > 1."""
    if not eps > 0:
        raise ValueError(f"need eps > 0, got {eps}")
    return ell > 1


@mpmath.workdps(60)
def n_threshold(ell: Fraction, b_M: float, eps: float) -> float | None:
    """log10 of (10 b_M / eps)^(1/(ell-1)), the third constraint's cutoff;
    None when ell <= 1, where 10 b_M n^(1-ell) <= eps has no such cutoff.
    eps is checked either way."""
    if not _has_cutoff(ell, eps):
        return None
    val = (10 * mpmath.mpf(b_M) / mpmath.mpf(eps)) ** (1 / _mpf(Fraction(ell) - 1))
    return float(mpmath.log10(val))


@mpmath.workdps(60)
def family_bounds(n: int, k: int, M: int, s: Fraction, a_delta: float,
                  line: LineParams) -> FamilyBoundReport:
    """The five `_ceilings` at degree n and D = d(rm), plus the
    acceptance floor ((n-2)/n)^M and the bad-k-subset-proportion ceiling
    sqrt(8k) (3k/4m)^ceil(k/2).  The n-constraints are `n_satisfies`'s."""
    s = Fraction(s)
    r, m = line.r, line.m
    D = len(divisors(r * m))
    nn = mpmath.mpf(n)
    rr, a = mpmath.mpf(r), mpmath.mpf(a_delta)
    bounds_ = {fam: float(coef(rr, a) * D**j / nn ** _mpf(e))
               for fam, (coef, e, j) in _ceilings(M, s).items()}
    success_floor = float(((nn - 2) / nn) ** M)
    mcyc_ceiling = float(mpmath.sqrt(8 * k) * (mpmath.mpf(3 * k) / (4 * m)) ** ((k + 1) // 2))
    return FamilyBoundReport(bounds_, success_floor, mcyc_ceiling)
