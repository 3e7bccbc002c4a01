"""Exact counters and checkable inequalities for the cycle-structure analysis:
a binomial product inequality, counts of subset-unions of partition parts
(`npk_count(part_sizes, k0)`), rotation-defective subset counts on cycles,
and one checker per numeric lemma: exact rationals where possible, else
intervals that enclose each rational (`_to_iv`), so a True verdict is never
a float coincidence.  A partition or cycle type is passed as its list of
part or cycle lengths, the form the counting kernel
`ksets.orbit_length_counts` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import mpmath

from .families import check_s, partitions, prime_divisors
from .ksets import invariant_subset_count, orbit_length_counts


@dataclass(frozen=True)
class Verdict:
    """One checked inequality instance."""

    lemma_id: str
    lhs: object
    rhs: object
    holds: bool


def check_binom_lemma(a: int, c: int, ell: int) -> Verdict:
    """C(ca-1, a-1) * C(c, ell) <= C(ca, ell*a), exactly in big integers."""
    if a <= 1 or not 1 <= ell < c:
        raise ValueError(f"need a > 1 and 1 <= ell < c, got a={a}, c={c}, ell={ell}")
    lhs = math.comb(c * a - 1, a - 1) * math.comb(c, ell)
    rhs = math.comb(c * a, ell * a)
    return Verdict("binom", lhs, rhs, lhs <= rhs)


def npk_count(part_sizes: Sequence[int], k0: int) -> int:
    """Number of k0-subsets of a u-set that are unions of whole parts, for
    a partition of the u-set into parts of the given sizes, each >= 2.

    These are the k0-subsets of orbit length 1 under a permutation whose
    cycles are the parts, so `ksets.orbit_length_counts` counts them at rm = 1.
    """
    u = sum(part_sizes)
    if not part_sizes or any(p < 2 for p in part_sizes):
        raise ValueError("need at least one part, every part of size at least 2")
    if not 2 <= k0 <= u:
        raise ValueError(f"need 2 <= k0 <= u, got k0={k0}, u={u}")
    return orbit_length_counts(part_sizes, k0, 1).get(1, 0)


def npk_bounds(u: int, k0: int) -> tuple[int, int | None, Fraction]:
    """The three ceilings on npk_count: C(floor(u/2), floor(k0/2)); the
    refinement C((u-2)/2, (k0-1)/2) when k0 odd and u even; and 1 if k0 = u
    else C(u, k0)/(u-1) as an exact rational."""
    if not 2 <= k0 <= u:
        raise ValueError(f"need 2 <= k0 <= u, got k0={k0}, u={u}")
    b1 = math.comb(u // 2, k0 // 2)
    b2 = math.comb((u - 2) // 2, (k0 - 1) // 2) if (k0 % 2 == 1 and u % 2 == 0) else None
    b3 = Fraction(1) if k0 == u else Fraction(math.comb(u, k0), u - 1)
    return b1, b2, b3


def sigma_cycle(t: int, k0: int, p: int) -> int:
    """Number of k0-subsets of a t-cycle whose rotation period misses the
    p-part of t: C(t/p, k0/p) if p | k0, else 0.

    The qualifying subsets are exactly the unions of orbits of the
    order-p rotation subgroup, those of period dividing t/p, which
    `ksets.invariant_subset_count` counts.  Raises ValueError unless p is
    a prime divisor of t.
    """
    _check_prime_divisor(t, p)
    if not 0 < k0 <= t:
        raise ValueError(f"need 1 <= k0 <= t, got k0={k0}")
    return invariant_subset_count(t, k0, t // p)


def sigma_cycle_brute(t: int, k0: int, p: int) -> int:
    """Enumeration cross-check for sigma_cycle (t <= 20): count k0-subsets of
    Z_t fixed by rotation by t/p, i.e. with period dividing t/p."""
    _check_prime_divisor(t, p)
    if t > 20:
        raise ValueError("brute force limited to t <= 20")
    shift = t // p
    count = 0
    for pts in combinations(range(t), k0):
        sset = set(pts)
        if all((x + shift) % t in sset for x in pts):
            count += 1
    return count


def _check_prime_divisor(t: int, p: int) -> None:
    if t < 1 or p not in prime_divisors(t):
        raise ValueError(f"p={p} must be a prime divisor of t={t}")


def sigma_Sigma(cycle_lengths: Sequence[int], rm: int, k0: int) -> int:
    """Exact count of k0-subsets of the union of the given cycles whose
    orbit length under the underlying permutation divides rm.

    Every listed cycle length must NOT divide rm (these are the cycles
    outside Delta).  The sum over every L | rm of the counting kernel
    `ksets.orbit_length_counts`.
    """
    u = sum(cycle_lengths)
    if any(rm % t == 0 for t in cycle_lengths):
        raise ValueError("every cycle length must fail to divide rm")
    if not 1 <= k0 <= u:
        raise ValueError(f"need 1 <= k0 <= u, got k0={k0}, u={u}")
    return sum(orbit_length_counts(cycle_lengths, k0, rm).values())


def check_z_a(d: int, n: int, k: int) -> Verdict:
    """lem:Z-a: C(d,k) <= (d/n)^k C(n,k) for 2 <= k <= d < n."""
    if not 2 <= k <= d < n:
        raise ValueError("need 2 <= k <= d < n")
    lhs = Fraction(math.comb(d, k))
    rhs = Fraction(d, n) ** k * math.comb(n, k)
    return Verdict("lem:Z-a", lhs, rhs, lhs <= rhs)


def check_z_b(n: int, k: int) -> Verdict:
    """lem:Z-b: C(floor(n/2), floor(k/2)) < 2 C(n,k) (3k/4n)^ceil(k/2), 2 <= k <= 2n/3."""
    if not (2 <= k and 3 * k <= 2 * n):
        raise ValueError("need 2 <= k <= 2n/3")
    lhs = Fraction(math.comb(n // 2, k // 2))
    rhs = 2 * math.comb(n, k) * Fraction(3 * k, 4 * n) ** ((k + 1) // 2)
    return Verdict("lem:Z-b", lhs, rhs, lhs < rhs)


def check_zz(d: int, k: int, t: int, a: Fraction) -> Verdict:
    """lem:ZZ: (d+t)(d+t-1)...(d+t-k+1) < d(d-1)...(d-k+1) (1 + (1+a)^k t /
    (a(d-k+1))) for positive integers d, k, t with k <= d and t/(d-k+1) <= a."""
    a = Fraction(a)
    if not (d >= 1 and k >= 1 and t >= 1 and k <= d and a > 0):
        raise ValueError("need positive d, k, t with k <= d and a > 0")
    if Fraction(t, d - k + 1) > a:
        raise ValueError("need t/(d-k+1) <= a")
    lhs = Fraction(math.prod(range(d + t - k + 1, d + t + 1)))
    falling = math.prod(range(d - k + 1, d + 1))
    rhs = falling * (1 + (1 + a) ** k * t / (a * (d - k + 1)))
    return Verdict("lem:ZZ", lhs, rhs, lhs < rhs)


def check_simple(n: int, r: int, s: Fraction) -> Verdict:
    """lem:simple.  Hypothesis: 1/2 < s < 1 and 12 (rn)^s + 6 <= n (exact
    cross-power test).  Conclusions checked: (rn)^s/n < 1/12; n >= 156; the
    t-shift comparison 2(rn)^s - t > ((24-t)/12)(rn)^s, which reduces to
    (rn)^s > 12 and so holds for every t >= 1 at once; n >= 1746 when
    s = 2/3."""
    s = Fraction(s)
    check_s(s)
    if not size_hypothesis(n, r, s):
        raise ValueError(f"hypothesis 12(rn)^s + 6 <= n fails at n={n}, r={r}, s={s}")
    p, q = s.numerator, s.denominator
    rn = r * n
    lhs = 12**q * rn**p
    rhs = n**q
    holds = lhs < rhs and n >= 156
    # 2(rn)^s - t > ((24-t)/12)(rn)^s  <=>  (t/12)(rn)^s > t  <=>  (rn)^p > 12^q
    holds = holds and rn**p > 12**q
    if s == Fraction(2, 3):
        holds = holds and n >= 1746
    return Verdict("lem:simple", lhs, rhs, holds)


def size_hypothesis(n: int, r: int, s: Fraction) -> bool:
    """12 (rn)^s + 6 <= n, exactly: 12^q (rn)^p <= (n - 6)^q with s = p/q.
    The hypothesis of lem:simple and the first n-constraint of `bounds`."""
    p, q = s.numerator, s.denominator
    return n >= 6 and 12**q * (r * n) ** p <= (n - 6) ** q


def check_ns_a(x: Fraction) -> Verdict:
    """lem:ns-a: x 2^{-x} < 1/(4x) for x > 12, in interval arithmetic."""
    x = Fraction(x)
    if x <= 12:
        raise ValueError("need x > 12")
    xi = _to_iv(x)
    lhs = xi * (mpmath.iv.mpf(2) ** (-xi))
    rhs = 1 / (4 * xi)
    return Verdict("lem:ns-a", lhs, rhs, lhs.b < rhs.a)


def check_ns_b(x: Fraction) -> Verdict:
    """lem:ns-b: (11/12)^x < 5/x for x > 12, in interval arithmetic."""
    x = Fraction(x)
    if x <= 12:
        raise ValueError("need x > 12")
    xi = _to_iv(x)
    lhs = (mpmath.iv.mpf(11) / 12) ** xi
    rhs = 5 / xi
    return Verdict("lem:ns-b", lhs, rhs, lhs.b < rhs.a)


def check_eps(eps: Fraction, p: Fraction) -> Verdict:
    """lem:eps: (1-p)^N <= eps with N = ceil(ln(1/eps)/p)."""
    eps, p = Fraction(eps), Fraction(p)
    if not (0 < eps < 1 and 0 < p < 1):
        raise ValueError("need 0 < eps < 1 and 0 < p < 1")
    N = trial_count(eps, p)
    lhs = (1 - _to_iv(p)) ** N
    rhs = _to_iv(eps)
    return Verdict("lem:eps", lhs, rhs, lhs.b <= rhs.a or (1 - p) ** N <= eps)


@mpmath.workdps(60)
def trial_count(eps: Fraction, p: Fraction) -> int:
    """ceil(ln(1/eps)/p), certified by interval arithmetic at the boundary."""
    eps, p = Fraction(eps), Fraction(p)
    val = mpmath.iv.log(1 / _to_iv(eps)) / _to_iv(p)
    lo, hi = mpmath.ceil(val.a), mpmath.ceil(val.b)
    if lo != hi:
        raise ArithmeticError("interval too wide to certify the ceiling")
    return int(lo)


def _to_iv(x: Fraction):
    return mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator)


def partitions_with_min_part(u: int, min_part: int = 2) -> list[tuple[int, ...]]:
    """All partitions of u into parts >= min_part, non-decreasing order."""
    return list(partitions(u, range(min_part, u + 1)))
