"""Experiment harness: Monte Carlo estimation of the acceptance/rejection
probabilities, an exact small-n conditional oracle over conjugacy classes,
exact small-v cycle-structure proportions, and CSV report emission.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import os
import random
import threading
from bisect import bisect
from collections import Counter
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterable

from . import algorithms, families, ksets, perms
from .families import LineParams

WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell.

    The trials split over `workers` logical workers, each with its own
    seeded stream, so the tallies depend on (seed, workers).  A harness
    runs the workers on min(workers, usable CPUs) processes
    (`process_count`), with the same tallies on any number of them."""

    group: str
    n: int
    goal: str
    k: int
    M: int = 4
    s: Fraction = Fraction(5, 8)
    eps: float = 0.1
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
        """Raise ValueError, naming the field, on a bad value or combination
        of values: n, k, M, trials, workers and seed must be ints and eps an
        int or float (none of them a bool), s a Fraction in (1/2, 1), the
        line must exist, and k, M, trials and workers lie in range.  Both
        harnesses need these; `validate_findmcycle` adds the detector's."""
        # another type would run a quietly different experiment or fail deep
        # inside: seed="7" hashes as seed=7, and trials=True runs one trial
        for name in ("n", "k", "M", "trials", "workers", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if isinstance(self.eps, bool) or not isinstance(self.eps, (int, float)):
            raise ValueError(f"eps must be an int or float, got {self.eps!r}")
        self.line()
        families.check_s(self.s)
        algorithms.check_k(self.k, self.n)
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.condition not in ("none", "ngood"):
            raise ValueError(f"unknown condition {self.condition!r}")

    def validate_findmcycle(self) -> None:
        """`validate`, then the detector's own checks: eps in (0, 1), M >= 4,
        and condition 'none', since the detector draws from all of G."""
        self.validate()
        algorithms.check_detector_args(self.eps, self.M)
        if self.condition != "none":
            raise ValueError("mode 'findmcycle' takes condition 'none', "
                             f"got condition {self.condition!r}")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got successes={successes}, trials={trials}")
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


def _worker_stream(config: ExperimentConfig, worker: int) -> tuple[random.Random, int]:
    """Logical worker `worker`'s random stream and its trial count: the
    trials split evenly over config.workers logical workers, the first ones
    taking one more, and a worker's trials share one stream, seeded from
    sha256 of "seed:worker"."""
    base, extra = divmod(config.trials, config.workers)
    digest = hashlib.sha256(f"{config.seed}:{worker}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big")), base + (worker < extra)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def process_count(config: ExperimentConfig) -> int:
    """The processes a harness call on config runs its logical workers on:
    min(config.workers, usable CPUs), or 1 in a daemonic process (a
    multiprocessing pool's worker, say), which may start no children."""
    count = min(config.workers, _usable_cpus())
    if count > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return 1
    return count


def _child_loop(conn, inherited) -> None:
    """A forked child's life: receive (fn, config, workers), send back
    [fn(config, w) for w in workers] or the exception it raised, and
    return at EOF, which comes when the parent closes its end or dies."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    for other in inherited:  # held here, they would keep EOF from their children
        other.close()
    while True:
        try:
            fn, config, workers = conn.recv()
        except EOFError:
            return
        try:
            out = [fn(config, w) for w in workers]
        except Exception as exc:  # sent to the caller, which raises it
            out = exc
        conn.send(out)


class _Children:
    """Persistent forked children that run shares of a call's logical
    workers, started on the first call that needs them (never at import)
    and reused by every later call.  A lock serialises calls.  A child is
    found dead only at its pipe: its share then runs in the caller.  A call
    in which a child died, or that raises, stops every child, since replies
    may still be in flight; the next call starts new ones.  A copy of the
    process made by `os.fork` forgets the original's children at once, so
    its exit leaves them running, and starts its own on its first call."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pid = None
        self._procs = []  # (process, our end of its pipe)

    def _forget(self) -> None:
        """Drop children this process did not start: close its copies of
        their pipes and take them off `multiprocessing`'s list of children,
        whose exit handler would otherwise SIGTERM them when this process
        exits."""
        from multiprocessing import process

        for proc, conn in self._procs:
            process._children.discard(proc)
            conn.close()
        self._procs, self._pid = [], os.getpid()

    def _stop(self) -> None:
        for proc, conn in self._procs:
            proc.kill()
            conn.close()
            proc.join()
        self._procs = []

    def map(self, fn, config: ExperimentConfig, processes: int) -> list:
        """[fn(config, w) for w in range(config.workers)]: worker w runs in
        the caller when w % processes == 0, else in child w % processes."""
        import multiprocessing

        shares = [range(j, config.workers, processes) for j in range(processes)]
        results = [None] * config.workers
        with self._lock:
            if self._pid is None:  # once, before the first children start
                os.register_at_fork(after_in_child=self._forget)
            if self._pid != os.getpid():  # first call, or a fork that ran no at-fork hook
                self._forget()
            ctx = multiprocessing.get_context("fork")
            while len(self._procs) < processes - 1:
                ours, theirs = ctx.Pipe()
                inherited = [conn for _, conn in self._procs] + [ours]
                proc = ctx.Process(target=_child_loop, args=(theirs, inherited), daemon=True)
                proc.start()
                theirs.close()
                self._procs.append((proc, ours))
            died = False
            try:
                for (_, conn), share in zip(self._procs, shares[1:]):
                    with contextlib.suppress(OSError):  # the recv below fails too
                        conn.send((fn, config, share))
                for w in shares[0]:
                    results[w] = fn(config, w)
                for (_, conn), share in zip(self._procs, shares[1:]):
                    try:
                        out = conn.recv()
                    except (EOFError, OSError):  # the child died
                        died = True
                        out = [fn(config, w) for w in share]
                    if isinstance(out, Exception):
                        raise out
                    for w, result in zip(share, out):
                        results[w] = result
            except BaseException:
                self._stop()
                raise
            if died:
                self._stop()
        return results


_CHILDREN = _Children()


def _map_workers(fn, config: ExperimentConfig) -> list:
    """[fn(config, w) for w in range(config.workers)], in worker order, run
    on `process_count(config)` processes: in the caller alone when that is
    1, else the caller runs its share while forked children run the rest."""
    processes = process_count(config)
    if processes == 1:
        return [fn(config, w) for w in range(config.workers)]
    return _CHILDREN.map(fn, config, processes)


def sample_type(group: str, n: int, rng) -> list[int]:
    """Cycle lengths of a uniform element of Sym(n) or Alt(n), by Feller's
    coupling: the cycle through the first point not yet placed has a length
    uniform on 1..rest, where rest points remain.  Alt redraws the whole
    type until it is even, about 2 draws on average.

    Each length is drawn as `rng.randrange(rest) + 1` draws it (the rule and
    rng contract of `perms.random_element`), so seeded streams equal those
    of that call.  Checks the group and degree, then runs `_sample_type`."""
    perms.check_group(group, n)
    return _sample_type(group, n, rng.getrandbits)


def _sample_type(group: str, n: int, getrandbits) -> list[int]:
    """`sample_type` without its check of the group and degree, reading
    the generator through its bound `getrandbits`, for a caller that checked
    them once for many draws."""
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


@functools.cache
def _ngood_outcomes(params: LineParams, k: int) -> tuple[int, tuple, tuple]:
    """(C, cum, counts) for one ngood cell: C = C(n, k), cum the cumulative
    weights of `_ngood_table`'s types, and counts[i] the count G of type
    i's k-subsets with an accepted orbit length, from the counting kernel
    `ksets.good_ksubset_count`, so pi_g = G / C.  Cached per (params, k),
    as `_ngood_table` is, so the kernel runs once per cell, not per call."""
    types, cum = _ngood_table(params.group, params.n, params.m, params.r)
    counts = tuple(ksets.good_ksubset_count(parts, k, params.m, params.r) for parts in types)
    return math.comb(params.n, k), cum, counts


def _conditional_tally(config: ExperimentConfig, worker: int) -> tuple:
    """Logical worker `worker`'s share of `run_conditional`: (contingency,
    N_good trials, N_good accepts, points traced, early rejections).

    `run_conditional` has checked s, and the line gives a valid group and
    degree, so the uniform trials call the unchecked `_sample_type` and
    `families._classify_type`.  An ngood trial reads its type's G from the
    cell's `_ngood_outcomes`, drawing its index with `sample_ngood`'s rule
    against the cached weights, and is tallied as (N, accepted) in N_good
    with no classify call: every N_good type is in N and in N_good."""
    params = config.line()
    n, k, M = params.n, config.k, config.M
    in_n = families.FAMILY_N
    rng, trials = _worker_stream(config, worker)
    getrandbits = rng.getrandbits
    points = range(1, M + 1)
    contingency = {}
    traced = early = 0
    if config.condition == "ngood":
        subsets, cum, counts = _ngood_outcomes(params, k)
        bits, total, last, random_ = subsets.bit_length(), cum[-1], len(cum) - 1, rng.random
        for _ in range(trials):
            passing = counts[bisect(cum, random_() * total, 0, last)]
            accepted = True
            if passing == subsets:  # pi_g = 1: every k-subset is accepted
                traced += M
            else:
                for i in points:
                    x = getrandbits(bits)
                    while x >= subsets:
                        x = getrandbits(bits)
                    if x >= passing:
                        accepted = False
                        early += i == 1
                        break
                traced += i
            key = (in_n, accepted)
            contingency[key] = contingency.get(key, 0) + 1
        return contingency, trials, contingency.get((in_n, True), 0), traced, early
    good_lengths = families.accepted_lengths(params.m, params.r)
    group, s = params.group, config.s
    classify_type, is_ngood_type = families._classify_type, families.is_ngood_type
    random_kmask, orbit_length = ksets.random_kmask, ksets.layout_orbit_length
    other = families.FAMILY_OTHER
    ngood_trials = ngood_accepted = 0
    for _ in range(trials):
        parts = _sample_type(group, n, getrandbits)
        fam = classify_type(parts, params, s)
        good = fam == in_n and is_ngood_type(parts, params)
        if fam == other:
            # no orbit length of an Other element is a multiple of m
            accepted = False
            traced += 1
            early += 1
        else:
            # same accept set as capped tracing: any orbit longer than rm
            # cannot equal r0*m, and the exact engine is far cheaper here;
            # no mask is drawn after the first rejected one
            accepted = True
            for i in points:
                if orbit_length(random_kmask(n, k, rng), parts) not in good_lengths:
                    accepted = False
                    early += i == 1
                    break
            traced += i
        key = (fam, accepted)
        contingency[key] = contingency.get(key, 0) + 1
        if good:
            ngood_trials += 1
            ngood_accepted += accepted
    return contingency, ngood_trials, ngood_accepted, traced, early


def run_conditional(config: ExperimentConfig) -> SummaryStats:
    """Draw cycle types of elements (uniform in G by `sample_type`, or
    uniform in N_good by `sample_ngood` when config.condition == 'ngood'),
    classify each uniform draw (an N_good type is always in N), run the
    point-tracing test on M uniform k-subsets, and tally family-by-outcome
    counts.

    Every tally is a class function, so no permutation is built: the cycles
    are laid on 0..n-1 as consecutive blocks, and a uniform k-subset has
    the same orbit length law under that layout as under any element of
    the type.  Deterministic given (seed, workers): each logical worker
    owns a derived stream (`_worker_stream`), and the workers' tallies are
    merged in worker order, so the result, the contingency's key order
    included, is the same on any number of processes.  The workers run on
    `process_count(config)` processes: min(workers, usable CPUs).
    The config is checked once per call (`ExperimentConfig.validate`), not
    per trial.  stats.cost counts the types drawn (`elements`), the points
    the test traces (`points_traced`; a point decided without drawing its
    subset counts as the black-box test would trace it) and the trials
    rejected at their first point (`early_rejections`), under the keys of
    `Transcript.cost()`.

    A uniform trial draws its k-subsets as bit masks (`ksets.random_kmask`)
    and reads their orbit lengths, drawing no mask after the first rejected
    one, unless its outcome is fixed: an Other element's order is not a
    multiple of m, and every orbit length divides the order, so no orbit
    length of it is an accepted r0*m.  Such a trial draws no k-subset and
    counts one point traced and one early rejection, what the black-box
    test pays to reject it at its first point.

    An ngood trial draws its type by `sample_ngood`'s rule and no k-subset.
    Every N_good type has an m-cycle and order dividing rm, so it is in N
    and in N_good, and its verdicts, like G, do not depend on s.  A point
    of a type with C = C(n, k) k-subsets, G of them accepted (each type's G
    read from `ksets.good_ksubset_count` once per (params, k) cell), passes
    with probability G/C, the law of a uniform k-subset's verdict, so each
    point takes one exact Bernoulli(G/C) draw, up to its first rejection:
    x < C is drawn by `rng.randrange(C)`'s rule (`getrandbits(C.bit_length())`,
    redrawn while x >= C), and the point passes when x < G.  A type with
    G = C (pi_g = 1, say a prime m with n - m < k < m) draws nothing and
    counts M points traced and no early rejection.  G >= 1 at
    2 <= k <= n/2, where k consecutive points of the m-cycle have orbit
    length m (when k < m); a G = 0 type would fail its first point.
    """
    config.validate()
    stats = SummaryStats(config)
    contingency = stats.contingency
    traced = early = 0
    for tally in _map_workers(_conditional_tally, config):
        for key, count in tally[0].items():
            contingency[key] = contingency.get(key, 0) + count
        stats.ngood_trials += tally[1]
        stats.ngood_accepted += tally[2]
        traced += tally[3]
        early += tally[4]
    stats.cost.update(elements=config.trials, points_traced=traced, early_rejections=early)
    return stats


def _findmcycle_tally(config: ExperimentConfig, worker: int) -> tuple:
    """Logical worker `worker`'s share of `run_findmcycle`: (good, bad,
    ugly, its runs' `Transcript.cost()` summed)."""
    params = config.line()
    oracle = algorithms.make_testbed_oracle(params, config.k)
    good = bad = ugly = 0
    cost = Counter()
    rng, trials = _worker_stream(config, worker)
    for _ in range(trials):
        result, transcript = algorithms.find_m_cycle(params, config.eps, config.M, oracle, rng)
        cost.update(transcript.cost())
        if result is algorithms.FAIL:
            ugly += 1
        elif families.in_N(oracle.natural(result), params):
            good += 1
        else:
            bad += 1
    return good, bad, ugly, cost


def run_findmcycle(config: ExperimentConfig) -> SummaryStats:
    """Repeat the full detection loop config.trials times; label each run
    good (returned element has an m-cycle), bad (it does not), or ugly
    (no element returned).  stats.cost sums each run's `Transcript.cost()`.
    The runs split over logical workers and processes as in
    `run_conditional`, with the same result on any number of processes.
    The config is checked by `ExperimentConfig.validate_findmcycle`, so a
    bad eps or M, or condition 'ngood' (the detector draws from all of G),
    is refused before any child starts."""
    config.validate_findmcycle()
    stats = SummaryStats(config)
    for good, bad, ugly, cost in _map_workers(_findmcycle_tally, config):
        stats.good += good
        stats.bad += bad
        stats.ugly += ugly
        stats.cost.update(cost)
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
    "family",
    "accepted_count",
    "trial_count",
    "estimate",
    "ci_lo",
    "ci_hi",
]


def emit_report(stats: SummaryStats) -> str:
    """CSV text: one row per family with a trial, giving its count of
    accepted trials, its joint Prob(g in family and accepted) over all
    trials, and that estimate's Wilson interval."""
    config = stats.config
    params = config.line()
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    trials = stats.trials
    for fam in families.ALL_FAMILIES:
        if not stats._count([fam]):
            continue
        est = Estimate(stats._count([fam], True), trials)
        lo, hi = est.ci
        writer.writerow(
            {
                "config_hash": config.config_hash(),
                "line": params.line,
                "n": config.n,
                "k": config.k,
                "M": config.M,
                "s": str(config.s),
                "family": fam,
                "accepted_count": est.successes,
                "trial_count": trials,
                "estimate": f"{est.value:.8f}",
                "ci_lo": f"{lo:.8f}",
                "ci_hi": f"{hi:.8f}",
            }
        )
    return out.getvalue()


def parse_report(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))
