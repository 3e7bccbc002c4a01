"""Experiment harness: Monte Carlo estimation of the acceptance/rejection
probabilities, an exact small-n conditional oracle over conjugacy classes,
exact small-v cycle-structure proportions, and CSV report emission.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
import random
from bisect import bisect
from collections import Counter
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterable, Iterator

from . import algorithms, families, ksets, perms
from .families import LineParams

WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell."""

    group: str
    n: int
    goal: str
    k: int
    M: int = 4
    s: Fraction = Fraction(5, 8)
    delta: Fraction = Fraction(1, 24)
    eps: float = 0.1
    mode: str = "conditional"  # conditional | findmcycle
    trials: int = 10**4
    seed: int = 0
    workers: int = 1
    condition: str = "none"  # none | ngood

    def line(self) -> LineParams:
        return families.line_params(self.group, self.n, self.goal)

    def config_hash(self) -> str:
        text = repr(tuple(str(v) if isinstance(v, Fraction) else v for v in astuple(self)))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def validate(self) -> None:
        """Raise ValueError on a bad value or combination of values: the
        line must exist, k, M, trials and workers lie in range, s in
        (1/2, 1), the detector's eps and M hold in findmcycle mode, and
        the ngood condition applies to conditional mode only."""
        self.line()
        families.check_s(self.s)
        if not 2 <= self.k <= self.n // 2:
            raise ValueError(f"need 2 <= k <= n/2, got k={self.k}, n={self.n}")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in ("conditional", "findmcycle"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "findmcycle":
            algorithms.check_detector_args(self.eps, self.M)
        if self.condition not in ("none", "ngood"):
            raise ValueError(f"unknown condition {self.condition!r}")
        if self.condition == "ngood" and self.mode != "conditional":
            raise ValueError(f"condition 'ngood' needs mode 'conditional', got {self.mode!r}")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (WILSON_Z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials**2))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass
class Estimate:
    successes: int
    trials: int

    @property
    def value(self) -> float:
        return self.successes / self.trials if self.trials else float("nan")

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    @property
    def half_width(self) -> float:
        lo, hi = self.ci
        return (hi - lo) / 2


@dataclass
class SummaryStats:
    """Tallies and derived estimates for one experiment cell."""

    config: ExperimentConfig
    contingency: dict = field(default_factory=dict)  # (family, accepted) -> count
    ngood_accepted: int = 0
    ngood_trials: int = 0
    good: int = 0
    bad: int = 0
    ugly: int = 0
    # Transcript.cost() summed over runs in findmcycle mode; in conditional
    # mode its elements, points_traced and early_rejections keys alone
    cost: Counter = field(default_factory=Counter)

    @property
    def trials(self) -> int:
        return sum(self.contingency.values()) or (self.good + self.bad + self.ugly)

    def _count(self, fams: Iterable[str], accepted: bool | None = None) -> int:
        fams = set(fams)
        return sum(
            c
            for (fam, acc), c in self.contingency.items()
            if fam in fams and (accepted is None or acc == accepted)
        )

    def accept_overall(self) -> Estimate:
        return Estimate(self._count(families.ALL_FAMILIES, True), self.trials)

    def n_given_accept(self) -> Estimate:
        return Estimate(
            self._count([families.FAMILY_N], True),
            self._count(families.ALL_FAMILIES, True),
        )

    def q_estimates(self) -> dict:
        """Per-family Prob(g in family and accepted)."""
        t = self.trials
        return {
            fam: Estimate(self._count([fam], True), t)
            for fam in families.ALL_FAMILIES
            if fam != families.FAMILY_N
        }


def _trial_rngs(config: ExperimentConfig) -> Iterator[random.Random]:
    """Each trial's random stream, in trial order: the trials split evenly
    over config.workers logical workers, the first ones taking one more, and
    worker w's trials share one stream seeded from sha256 of "seed:w"."""
    base, extra = divmod(config.trials, config.workers)
    for worker in range(config.workers):
        digest = hashlib.sha256(f"{config.seed}:{worker}".encode()).digest()
        rng = random.Random(int.from_bytes(digest[:16], "big"))
        for _ in range(base + (worker < extra)):
            yield rng


def sample_type(group: str, n: int, rng) -> list[int]:
    """Cycle lengths of a uniform element of Sym(n) or Alt(n), by Feller's
    coupling: the cycle through the first point not yet placed has a length
    uniform on 1..rest, where rest points remain.  Alt redraws the whole
    type until it is even, about 2 draws on average.

    Each length is drawn as `rng.randrange(rest) + 1` draws it (the rule and
    rng contract of `perms.random_element`), so seeded streams equal those
    of that call."""
    perms.check_group(group, n)
    getrandbits = rng.getrandbits
    while True:
        parts = []
        rest = n
        while rest:
            b = rest.bit_length()
            t = getrandbits(b)
            while t >= rest:
                t = getrandbits(b)
            parts.append(t + 1)
            rest -= t + 1
        if group == perms.SYM or (n - len(parts)) % 2 == 0:
            return parts


@functools.cache
def _ngood_table(group: str, n: int, m: int, r: int) -> tuple[tuple, tuple]:
    """The types of `families.ngood_types` and their cumulative 1/z weights,
    as immutable tuples, since every caller shares them."""
    types = tuple(families.ngood_types(group, n, m, r))
    # float weights: n!/z overflows a float once n > 170
    return types, tuple(accumulate(1 / families.centralizer_order(t) for t in types))


def sample_ngood(params: LineParams, rng) -> tuple[int, ...]:
    """Cycle lengths of a uniform element of N_good: a type of
    `families.ngood_types`, drawn with weight 1/z (its class holds n!/z
    elements) by one `rng.random()` against the cumulative weights, as
    `rng.choices(types, cum_weights=...)` draws it, so seeded streams equal
    that call's."""
    types, cum = _ngood_table(params.group, params.n, params.m, params.r)
    return types[bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)]


def run_conditional(config: ExperimentConfig) -> SummaryStats:
    """Draw cycle types of elements (uniform in G by `sample_type`, or
    uniform in N_good by `sample_ngood` when config.condition == 'ngood'),
    classify each, run the point-tracing test on uniform k-subsets (drawn
    as bit masks by `ksets.random_kmask`), and tally family-by-outcome
    counts.

    Every tally is a class function, so no permutation is built: the cycles
    are laid on 0..n-1 as consecutive blocks, and a uniform k-subset has
    the same orbit length law under that layout as under any element of
    the type.  Deterministic given (seed, workers): each logical worker
    owns a derived stream and the reduction is commutative counting.
    stats.cost counts the types drawn (`elements`), the k-subsets the test
    draws (`points_traced`) and the trials rejected at their first k-subset
    (`early_rejections`), under the keys of `Transcript.cost()`.

    An Other element's order is not a multiple of m, and every orbit length
    divides the order, so no orbit length of it is an accepted r0*m: its
    first mask is drawn, which keeps the stream, but its orbit length is
    never computed, and the trial counts one point traced and one early
    rejection.  Only an N element can lie in N_good.
    """
    config.validate()
    params = config.line()
    good_lengths = families.accepted_lengths(params.m, params.r)
    stats = SummaryStats(config)
    contingency = stats.contingency
    group, n, k, s = params.group, params.n, config.k, config.s
    ngood = config.condition == "ngood"
    classify_type, is_ngood_type = families.classify_type, families.is_ngood_type
    random_kmask, orbit_length = ksets.random_kmask, ksets.layout_orbit_length
    other, in_n = families.FAMILY_OTHER, families.FAMILY_N
    masks = range(1, config.M + 1)
    traced = early = 0
    for rng in _trial_rngs(config):
        parts = sample_ngood(params, rng) if ngood else sample_type(group, n, rng)
        fam = classify_type(parts, params, s)
        # same accept set as capped tracing: any orbit longer than rm
        # cannot equal r0*m, and the exact engine is far cheaper here;
        # no mask is drawn after the first rejected one
        accepted = True
        for i in masks:
            # drawn before the Other test, so an Other trial keeps the stream
            mask = random_kmask(n, k, rng)
            if fam == other or orbit_length(mask, parts) not in good_lengths:
                accepted = False
                early += i == 1
                break
        traced += i
        key = (fam, accepted)
        contingency[key] = contingency.get(key, 0) + 1
        if fam == in_n and is_ngood_type(parts, params):
            stats.ngood_trials += 1
            if accepted:
                stats.ngood_accepted += 1
    stats.cost.update(elements=config.trials, points_traced=traced, early_rejections=early)
    return stats


def run_findmcycle(config: ExperimentConfig) -> SummaryStats:
    """Repeat the full detection loop config.trials times; label each run
    good (returned element has an m-cycle), bad (it does not), or ugly
    (no element returned).  stats.cost sums each run's `Transcript.cost()`.
    The detector draws from all of G, so condition 'ngood' is refused."""
    config.validate()
    if config.condition != "none":
        raise ValueError(f"run_findmcycle takes condition 'none', got {config.condition!r}")
    params = config.line()
    oracle = algorithms.make_testbed_oracle(params, config.k)
    stats = SummaryStats(config)
    for rng in _trial_rngs(config):
        result, transcript = algorithms.find_m_cycle(params, config.eps, config.M, oracle, rng)
        stats.cost.update(transcript.cost())
        if result is algorithms.FAIL:
            stats.ugly += 1
        elif families.in_N(oracle.natural(result), params):
            stats.good += 1
        else:
            stats.bad += 1
    return stats


@dataclass(frozen=True)
class ExactConditional:
    """Exact rationals for one (n, k, line, M) cell."""

    accept: Fraction
    n_given_accept: Fraction
    p: Fraction
    p1: Fraction
    p2: Fraction
    q: Fraction
    q_by_family: dict


def class_table(params: LineParams, k: int, s: Fraction = Fraction(5, 8)) -> list[tuple]:
    """One row (parts, size, pi_g, family, in N_good) per cycle type of the
    line's group (the even ones for Alt): its class holds size = n!/z
    elements, and pi_g, the fraction of k-subsets with orbit length r0*m
    (r0 | r), the family (`families.classify_type`) and N_good membership
    (`families.is_ngood_type`) are class functions.  No row depends on M.

    At most `ksets.DEFAULT_ENUMERATION_BUDGET` // 10**3 types, read at each
    call: 10**4 classes, so n <= 32 for Sym and n <= 36 for Alt.
    """
    n, m, r = params.n, params.m, params.r
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    limit = ksets.DEFAULT_ENUMERATION_BUDGET // 10**3
    summed = (
        parts for parts in families.partitions(n, range(1, n + 1))
        if params.group == perms.SYM or (n - len(parts)) % 2 == 0
    )
    types = list(islice(summed, limit + 1))  # never lists more than needed to refuse
    if len(types) > limit:
        raise ValueError("cell too large for the exact oracle budget: "
                         f"more than {limit} conjugacy classes")
    fact = math.factorial(n)
    subsets = math.comb(n, k)
    return [(parts, fact // families.centralizer_order(parts),
             Fraction(ksets.good_ksubset_count(parts, k, m, r), subsets),
             families.classify_type(parts, params, s), families.is_ngood_type(parts, params))
            for parts in types]


def table_conditional(table: list[tuple], M: int) -> ExactConditional:
    """The exact rationals of a `class_table` at M traced points: a class of
    size n!/z and pass fraction pi_g holds size * pi_g^M accepted elements,
    and the class sizes sum to |G|."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got M={M}")
    group_order = 0
    ngood_size = 0
    ngood_accept = Fraction(0)
    accept_by_family: dict[str, Fraction] = {}

    for _, size, pi, fam, ngood in table:
        group_order += size
        mass = size * pi**M
        accept_by_family[fam] = accept_by_family.get(fam, Fraction(0)) + mass
        if ngood:
            ngood_size += size
            ngood_accept += mass

    accept_in_N = accept_by_family.pop(families.FAMILY_N, Fraction(0))
    accept_out_N = sum(accept_by_family.values(), Fraction(0))
    total_accept = accept_in_N + accept_out_N
    accept = total_accept / group_order
    p = 1 - accept
    # a class's rejected mass is its size less its accepted mass
    p1 = (ngood_size - ngood_accept) / ngood_size
    p2 = (group_order - total_accept - ngood_size + ngood_accept) / (group_order - ngood_size)
    q = accept_out_N / group_order
    q_by_family = {fam: val / group_order for fam, val in accept_by_family.items()}
    n_given_accept = accept_in_N / total_accept if total_accept else Fraction(0)
    return ExactConditional(accept, n_given_accept, p, p1, p2, q, q_by_family)


def exact_conditional(params: LineParams, k: int, M: int,
                      s: Fraction = Fraction(5, 8)) -> ExactConditional:
    """Exact acceptance probabilities at M traced points, summed over
    conjugacy classes: `table_conditional` of the line's `class_table`."""
    if not 1 <= k <= params.n or M < 1:
        raise ValueError(f"need 1 <= k <= n and M >= 1, got k={k}, n={params.n}, M={M}")
    return table_conditional(class_table(params, k, s), M)


def small_v_proportions(v: int, rm: int, s: Fraction,
                        n: int | None = None) -> tuple[Fraction, Fraction, Fraction]:
    """(P, P0, P1plus) for S_v: proportions of elements of order dividing rm
    (P), with additionally every cycle s-small (P0), or with exactly one
    s-large cycle whose length d satisfies n^s <= d < v - 3n^s (P1plus).

    The s-large threshold is n^s with n defaulting to v; each type is
    split by `families.split_s_large` (S0 or S1+).  Computed by summing 1/z
    over cycle types.
    """
    if v < 0:
        raise ValueError("v must be >= 0")
    if v > 12:
        raise ValueError("limited to v <= 12")
    s = Fraction(s)
    families.check_s(s)
    base = n if n is not None else v
    P = P0 = P1 = Fraction(0)
    for parts in families.partitions(v, families.divisors(rm)):
        weight = Fraction(1, families.centralizer_order(parts))
        P += weight
        family = families.split_s_large(parts, base, s)
        if family == families.FAMILY_S0:
            P0 += weight
        elif family == families.FAMILY_S1PLUS:
            P1 += weight
    return P, P0, P1


def p1plus_recursion(v: int, rm: int, s: Fraction) -> Fraction:
    """P1plus via the divisor recursion sum_{d in D1+(v)} (1/d) P0(v-d, rm)."""
    if v < 0:
        raise ValueError("v must be >= 0")
    s = Fraction(s)
    families.check_s(s)
    p_, q_ = s.numerator, s.denominator
    thr = v**p_
    total = Fraction(0)
    for d in families.divisors(rm):
        if d < v and d**q_ >= thr and (v - d) ** q_ > (3**q_) * thr:
            _, p0, _ = small_v_proportions(v - d, rm, s, n=v)
            total += Fraction(1, d) * p0
    return total


CSV_COLUMNS = [
    "config_hash",
    "line",
    "n",
    "k",
    "M",
    "s",
    "delta",
    "family",
    "accepted_count",
    "trial_count",
    "estimate",
    "ci_lo",
    "ci_hi",
    "bound_value",
    "bound_asserted",
]


def emit_report(stats: SummaryStats, bound_values: dict | None = None) -> str:
    """CSV text: one row per family with its acceptance tally, Wilson CI,
    and the matching analytic ceiling (if supplied) with its asserted flag."""
    config = stats.config
    params = config.line()
    bound_values = bound_values or {}
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    trials = stats.trials
    for fam in families.ALL_FAMILIES:
        acc = stats._count([fam], True)
        tot = stats._count([fam])
        if tot == 0 and fam not in bound_values:
            continue
        est = Estimate(acc, trials)  # q(fam)-style: joint with accept
        lo, hi = est.ci
        bound = bound_values.get(fam, {})
        writer.writerow(
            {
                "config_hash": config.config_hash(),
                "line": params.line,
                "n": config.n,
                "k": config.k,
                "M": config.M,
                "s": str(config.s),
                "delta": str(config.delta),
                "family": fam,
                "accepted_count": acc,
                "trial_count": trials,
                "estimate": f"{est.value:.8f}" if trials else "",
                "ci_lo": f"{lo:.8f}",
                "ci_hi": f"{hi:.8f}",
                "bound_value": bound.get("value", ""),
                "bound_asserted": bound.get("asserted", ""),
            }
        )
    return out.getvalue()


def parse_report(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))
