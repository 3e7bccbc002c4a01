"""The induced action of a degree-n permutation on k-element subsets.

A k-subset of {0..n-1} has two forms.  At the black-box oracle it is a
frozenset of k ints: `random_ksubset` draws one uniformly, `parse_ksubset`
reads the 1-based text form and `image` moves one pointwise.  In the
conditional harness it is an n-bit int mask, bit x set for point x:
`random_kmask` draws one uniformly, and the exact orbit-length engine,
`layout_orbit_length`, reads it.  Both draws read the generator through
`rng.getrandbits` alone; `_sample_mask` is the one home of CPython's
`rng.sample(range(n), k)` rule, which gives `random_ksubset`'s points and,
for 3k <= n, `random_kmask`'s mask.
The orbit-length engine, like the counting kernel, reads a cycle type as
its list of cycle lengths: it lays the cycles on 0..n-1 as consecutive
blocks in that order and takes the lcm of their rotation periods, each
found by shifting a block's bits and comparing; `cycle_length_exact`
relabels a permutation into that layout, and its slow reference is capped
tracing through `image`, `algorithms.orbit_length`.
One counting kernel, `orbit_length_counts`, counts k-subsets by orbit
length over the divisors of rm; the exact pass fraction pi_g
(`good_ksubset_fraction`), `combinatorics.sigma_Sigma` and, at rm = 1,
`combinatorics.npk_count(part_sizes, k0)` read it.
Its per-cycle period tables are cached across calls, keyed by (t, gcd(t, rm))
and built for every subset size, so the cache holds at most one table per
pair (t, d) with d | t <= n, whatever k and rm a sweep visits.  The tables
are built from `invariant_subset_count`, the one home of the number of
j-subsets of a t-cycle whose period divides d; `combinatorics.sigma_cycle`
reads it too.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .families import accepted_lengths, divisors, prime_divisors
from .perms import Permutation


class ExceedsCap:
    """Sentinel: the traced orbit is longer than the cap."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ExceedsCap"


EXCEEDS_CAP = ExceedsCap()


DEFAULT_ENUMERATION_BUDGET = 10**7


def parse_ksubset(text: str, n: int) -> frozenset[int]:
    """Parse the 1-based text form ``{1,4,7}`` of a nonempty subset of
    {1..n} into its 0-based frozenset."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"malformed subset {text!r}")
    if not body[1:-1].strip():
        raise ValueError("empty subset")
    try:
        vals = [int(tok) for tok in body[1:-1].split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed subset {text!r}") from exc
    if len(set(vals)) < len(vals):
        raise ValueError(f"repeated point in subset {text!r}")
    if not all(1 <= v <= n for v in vals):
        raise ValueError(f"subset {text!r} has points outside 1..{n}")
    return frozenset(v - 1 for v in vals)


def image(gamma: frozenset[int], g: Permutation) -> frozenset[int]:
    """Pointwise image of the subset."""
    return frozenset(map(g.images.__getitem__, gamma))


def _rotation_period(t: int, bits: int) -> int:
    """The least d | t with pos + d == pos mod t, for the set pos of
    positions on a t-cycle with t-bit mask `bits`; empty and full sets give 1.

    Found by prime descent from d = t, in O(number of prime factors of t)
    shift tests.  The shifts d | t that fix the mask are the multiples of
    its period, and each is a multiple of step = t // gcd(|pos|, t), since a
    d-periodic set spreads evenly over the t//d shift-classes.  So for each
    prime q of t // step, divide d by q while the shift by d/q still fixes
    the mask.
    """
    full = (1 << t) - 1
    step = t // math.gcd(bits.bit_count(), t)
    d = t
    for q in prime_divisors(t // step):
        while (d // step) % q == 0:
            s = d // q
            if ((bits << s) | (bits >> (t - s))) & full != bits:
                break
            d = s
    return d


def cycle_length_exact(gamma: frozenset[int], g: Permutation) -> int:
    """Orbit length of the subset under <g>.  Relabelling each point by its
    place in g's cycles laid end to end turns g into the block layout of
    `layout_orbit_length`, and orbit lengths do not change under relabelling."""
    if any(isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < g.n for x in gamma):
        raise ValueError(f"points {set(gamma)!r} are not integers in 0..{g.n - 1}")
    cycles = g.cycles()
    place = [0] * g.n
    for i, x in enumerate(chain.from_iterable(cycles)):
        place[x] = i
    return layout_orbit_length(sum(1 << place[p] for p in gamma), [len(c) for c in cycles])


def layout_orbit_length(mask: int, lengths: Sequence[int]) -> int:
    """Orbit length of the point set with mask `mask` (bit x for point x)
    under the permutation with the given cycle lengths whose cycles are laid
    on 0..n-1 as consecutive blocks in that order, each point mapped to the
    next one in its block: the lcm of the rotation periods of the blocks it
    meets."""
    result = 1
    for t in lengths:
        if not mask:
            break
        bits = mask & ((1 << t) - 1)
        if bits:
            result = math.lcm(result, _rotation_period(t, bits))
        mask >>= t
    return result


def _sample_mask(n: int, k: int, getrandbits) -> int:
    """The mask of the k points of CPython's `rng.sample(range(n), k)`,
    drawn through `getrandbits` alone with the same words: a pool of the
    unchosen points while n is at most `sample`'s set size, otherwise points
    redrawn until unchosen.  Each point is drawn as `rng.randrange` draws it,
    the rule and rng contract of `perms.random_element`."""
    mask = 0
    # `sample`'s switch: a pool list while it is smaller than a k-set
    setsize = 21 + 4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 21
    if n <= setsize:
        pool = list(range(n))
        for rest in range(n, n - k, -1):
            b = rest.bit_length()
            j = getrandbits(b)
            while j >= rest:
                j = getrandbits(b)
            mask |= 1 << pool[j]
            pool[j] = pool[rest - 1]
        return mask
    b = n.bit_length()
    for _ in range(k):
        x = getrandbits(b)
        while x >= n or mask >> x & 1:
            x = getrandbits(b)
        mask |= 1 << x
    return mask


def random_ksubset(n: int, k: int, rng) -> frozenset[int]:
    """Uniform k-subset of {0..n-1}: the points of CPython's
    `rng.sample(range(n), k)`, drawn through `rng.getrandbits` alone by
    `_sample_mask`, so seeded subsets and generator states equal that
    call's."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    mask = _sample_mask(n, k, rng.getrandbits)
    points = []
    while mask:
        x = mask.bit_length() - 1
        points.append(x)
        mask ^= 1 << x
    return frozenset(points)


def random_kmask(n: int, k: int, rng) -> int:
    """Uniform k-subset of {0..n-1} as an n-bit mask, bit x set for point x.

    The generator is read only through `rng.getrandbits`.  If 3k <= n this
    is `_sample_mask`, CPython's `rng.sample(range(n), k)`, the draw of
    `random_ksubset`, so seeded masks and generator states equal that
    call's.  Otherwise it starts from `rng.getrandbits(n)`, a fair coin per
    point, then sets uniformly drawn unset points, or clears uniformly drawn
    set points, until exactly k are set, each point drawn as `rng.randrange`
    draws it; near k = n/2 that takes O(sqrt n) draws instead of k.  The
    start is exchangeable and every fix-up step treats all points alike, so
    the law of the result is invariant under Sym(n); that group is
    transitive on k-subsets, so each is equally likely.  The two draws cost
    about the same near k = 0.35n, hence the switch at 3k = n.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    getrandbits = rng.getrandbits
    if 3 * k <= n:
        return _sample_mask(n, k, getrandbits)
    mask = getrandbits(n)
    count = mask.bit_count()
    # flip drawn points whose bit is `want`: unset ones while too few are
    # set, set ones while too many are
    want, step = (0, 1) if count < k else (1, -1)
    b = n.bit_length()
    while count != k:
        x = getrandbits(b)
        if x < n and mask >> x & 1 == want:
            mask ^= 1 << x
            count += step
    return mask


def good_ksubset_fraction(g: Permutation, k: int, m: int, r: int) -> Fraction:
    """Exact fraction of k-subsets with orbit length r0*m, r0 | r."""
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    return Fraction(good_ksubset_count(g.cycle_type(), k, m, r), math.comb(g.n, k))


def good_ksubset_count(cycle_lengths: Sequence[int], k: int, m: int, r: int) -> int:
    """Number of k-subsets with orbit length r0*m, r0 | r, for a permutation
    with the given cycle lengths; m and r must be positive."""
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    counts = orbit_length_counts(cycle_lengths, k, r * m)
    return sum(counts.get(length, 0) for length in accepted_lengths(m, r))


def orbit_length_counts(cycle_lengths: Sequence[int], k: int, rm: int) -> dict[int, int]:
    """{L: number of k-subsets with orbit length L} over the divisors L of rm,
    for a permutation with the given cycle lengths.  Subsets whose orbit
    length does not divide rm are not counted.

    The orbit length is the lcm of the rotation periods on the cycles, so it
    divides rm only if every period d divides gcd(t, rm); the DP over
    (points used, running lcm) therefore stays on the divisors of rm.  Each
    t-cycle's table comes from the cache of `_period_counts`.  Raises
    ValueError unless rm and every cycle length are positive; the table
    builder checks the length, so a cached table costs no check.
    """
    if rm < 1:
        raise ValueError(f"need rm >= 1, got rm={rm}")
    state: dict[tuple[int, int], int] = {(0, 1): 1}
    left = sum(cycle_lengths)
    for t in cycle_lengths:
        left -= t
        table = _period_counts(t, math.gcd(t, rm))
        nxt: dict[tuple[int, int], int] = {}
        for (used, cur), cnt in state.items():
            for d, by_j in table:
                length = cur * d // math.gcd(cur, d)
                for j, ways in by_j:
                    u = used + j
                    if u > k:
                        break
                    if u + left < k:  # too few points left to reach k
                        continue
                    key = (u, length)
                    nxt[key] = nxt.get(key, 0) + cnt * ways
        state = nxt
    return {length: cnt for (used, length), cnt in state.items() if used == k}


def invariant_subset_count(t: int, j: int, d: int) -> int:
    """Number of j-subsets of a t-cycle whose rotation period divides d, for
    d | t: the unions of c = j*d/t of the d orbits of the rotation by d, so
    C(d, c), or 0 unless t | j*d."""
    c, rest = divmod(j * d, t)
    return 0 if rest else math.comb(d, c)


@functools.cache  # depends on (t, g) alone, so one table serves every k and rm
def _period_counts(t: int, g: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """((d, ((j, count), ...)), ...) for each d | g: the number of j-subsets
    (j increasing) of a t-cycle with rotation period exactly d.  Tuples, so
    no caller can change the shared table.

    `invariant_subset_count` gives the j-subsets of period dividing d;
    subtracting the counts of the proper divisors of d leaves period exactly d.
    """
    if t < 1:
        raise ValueError(f"cycle lengths must be positive, got a cycle of length {t}")
    divs = divisors(g)
    exact: dict[int, dict[int, int]] = {}
    for d in divs:
        row = {j: invariant_subset_count(t, j, d) for j in range(0, t + 1, t // d)}
        for e in divs:
            if e >= d:
                break
            if d % e == 0:
                for j, ways in exact[e].items():
                    row[j] -= ways
        exact[d] = {j: ways for j, ways in row.items() if ways}
    return tuple((d, tuple(sorted(row.items()))) for d, row in exact.items() if row)
