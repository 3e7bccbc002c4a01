"""Parameter lines, element families, and exact small-n oracles.

For a group G in {Sym(n), Alt(n)} and a target cycle length m with parameter
r, elements split into: N (contains an m-cycle), the five families R, S0,
S1+, S1-, S>=2 partitioning {g outside N : m | o(g)}, and Other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as _itertools_permutations

from .perms import ALT, SYM, Permutation, check_group

LONG_CYCLE = "long-cycle"
TRANSPOSITION = "transposition"
THREE_CYCLE = "three-cycle"

FAMILY_N = "N"
FAMILY_R = "R"
FAMILY_S0 = "S0"
FAMILY_S1PLUS = "S1plus"
FAMILY_S1MINUS = "S1minus"
FAMILY_SGE2 = "Sge2"
FAMILY_OTHER = "Other"

ALL_FAMILIES = (
    FAMILY_N,
    FAMILY_R,
    FAMILY_S0,
    FAMILY_S1PLUS,
    FAMILY_S1MINUS,
    FAMILY_SGE2,
    FAMILY_OTHER,
)


@dataclass(frozen=True)
class LineParams:
    """One parameter line: group, degree, target cycle length m, multiplier r,
    and the element type obtained by powering.  The exact rational rho, with
    |N_good|/|G| = rho/m, is computed from these fields when read."""

    line: int
    group: str
    n: int
    m: int
    r: int
    target: str

    @property
    def rho(self) -> Fraction:
        """m * |N_good| / |G| by `exact_rho`, recomputed on every read."""
        return exact_rho(self.group, self.n, self.m, self.r)


# line -> (group, goal, modulus, residues of n, n - m, r, target); each
# (group, goal) pair splits the degrees n into its lines by residue class
LINES = {
    1: (SYM, LONG_CYCLE, 1, (0,), 0, 1, "n-cycle"),
    2: (SYM, TRANSPOSITION, 2, (1,), 2, 2, "2-cycle"),
    3: (SYM, TRANSPOSITION, 2, (0,), 3, 2, "2-cycle"),
    4: (ALT, LONG_CYCLE, 2, (1,), 0, 1, "n-cycle"),
    5: (ALT, LONG_CYCLE, 2, (0,), 1, 1, "(n-1)-cycle"),
    6: (ALT, THREE_CYCLE, 6, (2, 4), 3, 3, "3-cycle"),
    7: (ALT, THREE_CYCLE, 6, (3, 5), 4, 3, "3-cycle"),
    8: (ALT, THREE_CYCLE, 6, (0,), 5, 3, "3-cycle"),
    9: (ALT, THREE_CYCLE, 6, (1,), 6, 3, "3-cycle"),
}
PAIRS = tuple(dict.fromkeys(row[:2] for row in LINES.values()))  # each pair once


def line_params(group: str, n: int, goal: str) -> LineParams:
    """The row of `LINES` for (group, goal) whose congruence n meets.  Its
    rho is not computed here, only when `LineParams.rho` is read.

    Requires n >= 7, so the lines stay distinct.  m >= 2 on every row except
    line 9 at n = 7, where m = n - 6 = 1 and rho = 39/280 (an element
    "contains a 1-cycle" when it has a fixed point).
    """
    if n < 7:
        raise ValueError(f"need n >= 7, got {n}")
    for line, (row_group, row_goal, modulus, residues, gap, r, target) in LINES.items():
        if (row_group, row_goal) == (group, goal) and n % modulus in residues:
            return LineParams(line, group, n, n - gap, r, target)
    raise ValueError(f"incompatible group/goal pair ({group!r}, {goal!r})")


def ngood_types(group: str, n: int, m: int, r: int):
    """The cycle types of N_good, each once, as tuples `(*rest, m)`: m
    together with a partition `rest` of the other n - m points into parts
    dividing rm.  Alt keeps only the even types.  Each type of N_good arises
    once this way, also when m <= n - m.
    """
    check_group(group, n)
    for rest in partitions(n - m, divisors(r * m)):
        if group == SYM or (n - 1 - len(rest)) % 2 == 0:
            yield (*rest, m)


def exact_rho(group: str, n: int, m: int, r: int) -> Fraction:
    """rho = m * |N_good| / |G| by class sums.

    A type of `ngood_types` is hit by n!/z elements (`centralizer_order`),
    so rho is m times the sum of 1/z, doubled for Alt since |Alt(n)| = n!/2.
    """
    total = sum((Fraction(1, centralizer_order(t)) for t in ngood_types(group, n, m, r)),
                Fraction(0))
    return m * total * (2 if group == ALT else 1)


def line_params_by_line(line: int, n: int) -> LineParams:
    """Line number -> params, validating the line's n condition."""
    if line not in LINES:
        raise ValueError(f"line must be 1..9, got {line}")
    group, goal, modulus, residues = LINES[line][:4]
    if n % modulus not in residues:
        raise ValueError(f"n={n} does not satisfy line {line}'s congruence condition")
    return line_params(group, n, goal)


def in_group(g: Permutation, group: str) -> bool:
    return group == SYM or g.is_even()


def in_N(g: Permutation, params: LineParams) -> bool:
    """g lies in the group and contains an m-cycle."""
    if g.n != params.n:
        raise ValueError(f"degree {g.n} does not match line degree {params.n}")
    return in_group(g, params.group) and params.m in g.cycle_type()


def in_Ngood(g: Permutation, params: LineParams) -> bool:
    """in_N and o(g) divides rm, by `is_ngood_type` on g's cycle type."""
    return in_N(g, params) and is_ngood_type(g.cycle_type(), params)


def is_ngood_type(lengths, params: LineParams) -> bool:
    """Elements of the line's group with these cycle lengths lie in N_good:
    one length is m and every length divides rm, so o(g) divides rm."""
    rm = params.r * params.m
    return params.m in lengths and all(rm % t == 0 for t in lengths)


def classify(g: Permutation, params: LineParams, s: Fraction) -> str:
    """Family of g: `classify_type` of its cycle type, once g is known to
    lie in the line's group."""
    if g.n != params.n:
        raise ValueError(f"degree {g.n} does not match line degree {params.n}")
    if not in_group(g, params.group):
        raise ValueError("element lies outside the line's group")
    return classify_type(g.cycle_type(), params, s)


def classify_type(lengths, params: LineParams, s: Fraction) -> str:
    """Family (Table of families) of the line's group elements with these
    cycle lengths, in any order.

    Delta is the union of the cycles whose length divides rm, so v is the
    sum of those lengths.  Past R (v <= 4 (rn)^s), `split_s_large` of Delta
    at threshold (rn)^s decides.  Compared exactly via integer cross-powers.
    Checks s, then runs `_classify_type`.
    """
    check_s(s)
    return _classify_type(lengths, params, s)


def _classify_type(lengths, params: LineParams, s: Fraction) -> str:
    """`classify_type` without its check of s, for a caller that checked s
    once for many types."""
    m = params.m
    if m in lengths:
        return FAMILY_N
    if math.lcm(*lengths) % m != 0:
        return FAMILY_OTHER
    p, q = s.numerator, s.denominator
    rm = params.r * m
    delta = [t for t in lengths if rm % t == 0]
    v = sum(delta)
    rn = params.r * params.n
    # v <= 4 (rn)^s, exactly: v^q <= 4^q rn^p
    if v**q <= 4**q * rn**p:
        return FAMILY_R
    return split_s_large(delta, rn, s)


def split_s_large(lengths, base: int, s: Fraction) -> str:
    """S0, S>=2, S1+ or S1- for a union of cycles of these lengths, v in
    all, by its s-large cycles (length d >= base^s): none is S0, two or
    more S>=2, and one, C, is S1+ when v - |C| > 3 base^s, else S1-.
    Compared exactly via integer cross-powers."""
    p, q = s.numerator, s.denominator
    thr = base**p  # d >= base^s iff d^q >= base^p
    large = [t for t in lengths if t**q >= thr]
    if not large:
        return FAMILY_S0
    if len(large) >= 2:
        return FAMILY_SGE2
    if (sum(lengths) - large[0]) ** q > 3**q * thr:
        return FAMILY_S1PLUS
    return FAMILY_S1MINUS


def check_s(s: Fraction) -> None:
    """Raise ValueError unless s is a Fraction with 1/2 < s < 1, the
    exponent range of the s-large threshold (rn)^s: the threshold is
    compared by integer cross-powers of its numerator and denominator."""
    if not isinstance(s, Fraction):
        raise ValueError(f"s must be a Fraction, got {s!r}")
    p, q = s.numerator, s.denominator
    if not q < 2 * p < 2 * q:  # 1/2 < s < 1, in integers
        raise ValueError(f"s must lie in (1/2, 1), got {s}")


def divisor_profile(params: LineParams) -> dict:
    """The large divisors d of rm (d <= n, 2m/7 < d, d != m), and the
    `violations` of the closed list for the line's r: a large divisor off
    the list or above 2m/3, or more than three large divisors.  The list is
    empty when the profile fits the table.
    """
    m, r, n = params.m, params.r, params.n
    large = [d for d in divisors(r * m) if d <= n and 7 * d > 2 * m and d != m]
    allowed = {
        1: {Fraction(m, 3), Fraction(m, 2)},
        2: {Fraction(m, 3), Fraction(2 * m, 5), Fraction(2 * m, 3)},
        3: {Fraction(3 * m, 7), Fraction(3 * m, 5)},
    }[r]
    violations = []
    for d in large:
        if Fraction(d) not in allowed:
            violations.append(f"unexpected large divisor {d} for r={r}, m={m}")
        if 3 * d > 2 * m:
            violations.append(f"large divisor {d} exceeds 2m/3 for m={m}")
    if len(large) > 3:
        violations.append("more than three large divisors")
    return {"large": set(large), "violations": violations}


def rho_oracle(params: LineParams) -> Fraction:
    """Exact rho from full enumeration: m * |N_good| / |G|.  Needs n <= 9.

    The reference for `exact_rho`, so it shares no code with it or with
    `Permutation.cycles`: one walk over each image tuple of Sym(n) finds an
    m-cycle, stops at the first cycle length not dividing rm, and takes the
    parity from the number of cycles.
    """
    n, m, rm = params.n, params.m, params.r * params.m
    if n > 9:
        raise ValueError(f"rho_oracle limited to n <= 9, got {n}")
    good = 0
    for images in _itertools_permutations(range(n)):
        seen = [False] * n
        cycles = 0
        has_m = False
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = images[j]
                length += 1
            if rm % length != 0:
                break
            cycles += 1
            has_m = has_m or length == m
        else:
            if has_m and (params.group == SYM or (n - cycles) % 2 == 0):
                good += 1
    group_size = math.factorial(n) // (1 if params.group == SYM else 2)
    return Fraction(m * good, group_size)


def extract_target(g: Permutation, params: LineParams) -> tuple[Permutation, str]:
    """x = g^m, tagged with its kind: identity / 2-cycle / 3-cycle / other."""
    x = g ** params.m
    ct = [t for t in x.cycle_type() if t > 1]
    if not ct:
        kind = "identity"
    elif ct == [2]:
        kind = "2-cycle"
    elif ct == [3]:
        kind = "3-cycle"
    else:
        kind = "other"
    return x, kind


def divisors(x: int) -> list[int]:
    """The positive divisors of x, increasing."""
    if x < 1:
        raise ValueError("x must be positive")
    small, large = [], []
    i = 1
    while i * i <= x:
        if x % i == 0:
            small.append(i)
            if i != x // i:
                large.append(x // i)
        i += 1
    return small + large[::-1]


@functools.cache  # read per summed cycle type; rebuilding it cost 2.6% of perfbench `exact`
def accepted_lengths(m: int, r: int) -> frozenset[int]:
    """The orbit lengths the point-tracing test accepts: r0*m for each
    divisor r0 of r."""
    return frozenset(r0 * m for r0 in divisors(r))


@functools.cache  # read by every rotation-period search in `ksets`
def prime_divisors(x: int) -> tuple[int, ...]:
    """The distinct prime divisors of x, increasing, as a tuple no caller
    can change.  Read from `divisors(x)`: a divisor d > 1 that no smaller
    prime divisor divides is prime."""
    out: list[int] = []
    for d in divisors(x)[1:]:
        if all(d % p for p in out):
            out.append(d)
    return tuple(out)


def centralizer_order(parts) -> int:
    """z = prod t^c_t c_t! over the part sizes t of multiplicity c_t, so
    that n!/z permutations of S_n have the cycle type `parts`."""
    z = 1
    for t in set(parts):
        c = parts.count(t)
        z *= t**c * math.factorial(c)
    return z


def partitions(v: int, parts):
    """The partitions of v into sizes drawn from `parts`, as non-decreasing
    tuples in lexicographic order; lazy, so a caller may stop early.

    Iterative, so a deep partition such as the first one, all ones, is not
    passed up through v nested generators.
    """
    sizes = sorted({p for p in parts if 0 < p <= v})
    acc: list[int] = []
    at: list[int] = []  # index in sizes of each part in acc
    rest, i = v, 0
    while True:
        if rest == 0:
            yield tuple(acc)
        elif i < len(sizes) and sizes[i] <= rest:
            acc.append(sizes[i])
            at.append(i)
            rest -= sizes[i]
            continue
        if not acc:
            return
        rest += acc.pop()
        i = at.pop() + 1

