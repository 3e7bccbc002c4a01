"""The benchmark's four workloads.

Each workload builds a fixed suite of calls into ksettrace's public API
from the seed, then repeats passes ("reps") over that suite, timing each
call on its own. Every rep does the same work, so a rep's outputs must
repeat exactly. Output checks, grading and digests run after the
timed calls, never inside them.

Vocabulary used in the reports:
  call  one timed API call: a run_conditional cell, a find_m_cycle run, an
        exact_conditional cell or one pi_g; `attempted`/`failed` count calls.
  op    the unit of work a call is made of: a trial (conditional), an
        element examined by the detector (detect), the call itself (exact).
  cell  the calls whose time per op is pooled; rates are geometric means
        over cells, so each cell counts alike.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

from ksettrace import algorithms, families, ksets, montecarlo, perms
from ksettrace.montecarlo import Estimate, ExperimentConfig

M = 4


def subseed(*parts) -> int:
    """A 64-bit seed derived from the parts; stable across runs and hosts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Call:
    cell: str
    ops: int
    seconds: float
    output: object = None
    error: str | None = None
    ref_s: float = 0.0  # the reference loop's time just before the call


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no library code.

    It does the kind of work the library is made of, at its sizes: shuffle
    200 points, walk the cycles of the shuffle, take images of a 100-subset
    and sort them. Timed beside each call, it tracks how fast this machine
    runs such code at that moment, on hosts whose speed drifts with their
    neighbours' load.
    """
    t0 = time.perf_counter()
    rng = random.Random(20121)
    images = list(range(200))
    for _ in range(16):
        rng.shuffle(images)
        seen = [False] * 200
        lengths = []
        for start in range(200):
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
                length += 1
            if length:
                lengths.append(length)
        subset = set(rng.sample(range(200), 100))
        image = tuple(sorted(images[x] for x in subset))
        subset.intersection_update(image)
    return time.perf_counter() - t0


class Meter:
    """Times calls one at a time, with only the call inside the timed
    interval. Between calls, about every REF_EVERY_S seconds of call time,
    it times the reference loop; each call carries the latest such time."""

    REF_EVERY_S = 0.05

    def __init__(self):
        self._ref_s = 0.0
        self._since_ref = math.inf

    def call(self, cell: str, fn, *args) -> Call:
        """`fn(*args)` as a Call; a raised exception becomes a failed call.
        The caller fills in the ops."""
        if self._since_ref >= self.REF_EVERY_S:
            self._ref_s = reference_loop()
            self._since_ref = 0.0
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing library call is a failed operation
            call = Call(cell, 0, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        else:
            call = Call(cell, 0, time.perf_counter() - t0, out)
        call.ref_s = self._ref_s
        self._since_ref += call.seconds
        return call


def _ok(calls):
    return [c for c in calls if c.error is None]


def median_seconds(reps) -> list[float]:
    """Median time of each call of the suite over the reps."""
    return [statistics.median(times) for times in zip(*([c.seconds for c in calls] for calls in reps))]


# --------------------------------------------------------------------------
# conditional-uniform / conditional-ngood


class Conditional:
    """`montecarlo.run_conditional` on Sym cells, M=4, workers=2.

    uniform: criterion 8's k=2 cells, where nearly every element is rejected
    at its first point, so sampling and classification dominate.
    ngood: k=n/2 cells conditioned on N_good, where all four points of each
    element are traced, so subset sampling and the exact orbit engine
    dominate.
    """

    WORKERS = 2

    def __init__(self, condition: str, cells, trials: int, calls: int, seed: int):
        self.condition = condition
        self.trials = trials  # per call
        self.calls = calls  # per cell; short calls keep the reference loop close
        self.seed = seed
        self.cells = []
        for goal, n, k in cells:
            lp = families.line_params(perms.SYM, n, goal)
            self.cells.append((f"line{lp.line}-n{n}-k{k}", goal, lp, k))

    def run_rep(self, meter: Meter) -> list[Call]:
        calls = []
        for i, (cell, goal, lp, k) in enumerate(self.cells):
            for j in range(self.calls):
                config = ExperimentConfig(
                    group=perms.SYM, n=lp.n, goal=goal, k=k, M=M,
                    trials=self.trials, seed=subseed(self.seed, i, j),
                    workers=self.WORKERS, condition=self.condition,
                )
                call = meter.call(cell, montecarlo.run_conditional, config)
                call.ops = self.trials if call.error is None else 0
                calls.append(call)
        return calls

    def _pooled(self, calls) -> Estimate:
        """Headline estimate over the given calls: P(N | accept) for the
        uniform stream, P(accept | N_good) for the conditioned one."""
        tables = [c.output.contingency for c in _ok(calls)]
        accepted = sum(v for t in tables for (_, acc), v in t.items() if acc)
        if self.condition == "ngood":
            return Estimate(accepted, sum(sum(t.values()) for t in tables))
        in_n = sum(t.get((families.FAMILY_N, True), 0) for t in tables)
        return Estimate(in_n, accepted)

    def check(self, calls) -> list[str]:
        failures = []
        for c in _ok(calls):
            total = sum(c.output.contingency.values())
            if total != self.trials:
                failures.append(f"{c.cell}: contingency total {total} != {self.trials} trials")
        for cell, _, lp, _ in self.cells:
            est = self._pooled([c for c in calls if c.cell == cell])
            if est.trials == 0:
                continue
            # a sampled estimate against a floor: allow three Wilson
            # half-widths, as criterion 6 does
            if self.condition == "ngood":
                floor = ((lp.n - 2) / lp.n) ** M  # criterion 6
            else:
                floor = 0.95  # criterion 8
            if est.value < floor - 3 * est.half_width:
                failures.append(
                    f"{cell}: estimate {est.value:.4f} (hw {est.half_width:.4f}) below floor {floor:.4f}"
                )
        return failures

    def digest(self, calls) -> str:
        return digest_of([
            [c.cell, sorted([f, a, v] for (f, a), v in c.output.contingency.items()),
             c.output.ngood_trials, c.output.ngood_accepted]
            if c.error is None else [c.cell, c.error]
            for c in calls
        ])

    def named(self, reps, ops_per_s: float) -> dict:
        est = self._pooled(reps[0])
        return {
            "trials_per_s": (ops_per_s, "1/s"),
            "ci_half_width": (est.half_width, "share"),
            "headline_estimate": (est.value, "share"),
            "headline_trials": (est.trials, "count"),
        }


def conditional_uniform(seed: int) -> Conditional:
    cells = [(families.LONG_CYCLE, 100, 2), (families.LONG_CYCLE, 200, 2),
             (families.TRANSPOSITION, 101, 2), (families.TRANSPOSITION, 201, 2)]
    return Conditional("none", cells, trials=500, calls=5, seed=seed)


def conditional_ngood(seed: int) -> Conditional:
    cells = [(families.LONG_CYCLE, 200, 100), (families.TRANSPOSITION, 201, 100)]
    return Conditional("ngood", cells, trials=250, calls=4, seed=seed)


# --------------------------------------------------------------------------
# detect


class CountingOracle(algorithms.GroupOracle):
    """Delegates to another oracle and counts each kind of oracle call."""

    def __init__(self, inner: algorithms.GroupOracle):
        self.inner = inner
        self.elements = 0
        self.points = 0
        self.acts = 0

    def random_element(self, rng):
        self.elements += 1
        return self.inner.random_element(rng)

    def random_point(self, rng):
        self.points += 1
        return self.inner.random_point(rng)

    def act(self, point, element):
        self.acts += 1
        return self.inner.act(point, element)

    def natural(self, element):
        return self.inner.natural(element)


def _matches(length, m: int, r: int) -> bool:
    return isinstance(length, int) and length % m == 0 and r % (length // m) == 0


class Detect:
    """`algorithms.find_m_cycle` through a counting testbed oracle, k=2,
    M=4, eps=0.2: line 1 (Sym(200), r=1) and line 6 (Alt(200), three-cycle,
    r=3). The only workload on the black-box `act` path (`ksets.image`)."""

    N_POINTS, K, EPS, RUNS_PER_CELL = 200, 2, 0.2, 8

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = []
        for line in (1, 6):
            lp = families.line_params_by_line(line, self.N_POINTS)
            self.cells.append((f"line{line}-n{lp.n}-k{self.K}", lp))

    def run_rep(self, meter: Meter) -> list[Call]:
        calls = []
        for cell, lp in self.cells:
            for j in range(self.RUNS_PER_CELL):
                oracle = CountingOracle(algorithms.make_testbed_oracle(lp, self.K))
                rng = random.Random(subseed(self.seed, lp.line, j))
                call = meter.call(cell, algorithms.find_m_cycle, lp, self.EPS, M, oracle, rng)
                call.ops = oracle.elements
                if call.error is None:
                    call.output = (lp, call.output[0], call.output[1], oracle)
                calls.append(call)
        return calls

    def check(self, calls) -> list[str]:
        failures = []
        for c in _ok(calls):
            failures += self._check_run(c.cell, *c.output)
        return failures

    def _check_run(self, cell, lp, result, transcript, oracle) -> list[str]:
        m, r = lp.m, lp.r
        budget = algorithms.trial_budget(lp.n, self.EPS)
        bad = []
        if oracle.elements > budget:
            bad.append(f"{oracle.elements} elements drawn > budget N={budget}")
        if oracle.acts > budget * M * r * m:
            bad.append(f"{oracle.acts} acts > N*M*rm = {budget * M * r * m}")
        if oracle.points > M * oracle.elements:
            bad.append(f"{oracle.points} points > M * elements")
        entries = transcript.entries
        if len(entries) != oracle.elements:
            bad.append(f"{len(entries)} transcript entries != {oracle.elements} elements")
        rejected = entries if result is algorithms.FAIL else entries[:-1]
        if any(e["outcome"] != algorithms.OUTCOME_UGLY_STEP for e in rejected):
            bad.append("a rejected element is not recorded as a rejection")
        if result is algorithms.FAIL:
            if len(entries) != budget:
                bad.append(f"Fail after {len(entries)} elements, not N={budget}")
        elif entries and not all(_matches(x, m, r) for x in entries[-1]["lengths"]):
            bad.append(f"accepted element has orbit lengths {entries[-1]['lengths']}")
        return [f"{cell}: {b}" for b in bad]

    @staticmethod
    def _missed(output) -> bool:
        lp, result, _, oracle = output
        return result is algorithms.FAIL or not families.in_N(oracle.natural(result), lp)

    def digest(self, calls) -> str:
        rows = []
        for c in calls:
            if c.error is not None:
                rows.append([c.cell, c.error])
                continue
            lp, result, transcript, oracle = c.output
            outcome = "fail" if result is algorithms.FAIL else (
                "bad" if self._missed(c.output) else "good")
            rows.append([c.cell, outcome, oracle.elements, oracle.points, oracle.acts,
                         None if result is algorithms.FAIL else list(result.images)])
        return digest_of(rows)

    def named(self, reps, ops_per_s: float) -> dict:
        runs = _ok(reps[0])
        ms = [t * 1e3 for c, t in zip(reps[0], median_seconds(reps)) if c.error is None]
        out = {
            "runs_per_s": (len(ms) / sum(ms) * 1e3, "1/s"),
            "elements_per_s": (ops_per_s, "1/s"),
            "runs": (len(runs), "count"),
            "acts_per_run": (statistics.fmean(c.output[3].acts for c in runs), "count"),
            "elements_per_run": (statistics.fmean(c.ops for c in runs), "count"),
            "miss_rate": (sum(map(self._missed, (c.output for c in runs))) / len(runs), "share"),
        }
        out.update(latency_percentiles("run_ms", ms, "ms"))
        return out


def latency_percentiles(prefix: str, values, unit: str) -> dict:
    """Median and the highest of p99/p95/p90/p75 with >= 10 samples beyond it."""
    out = {f"{prefix}_p50": (statistics.median(values), unit)}
    if len(values) >= 2:
        qs = statistics.quantiles(values, n=100)
        for p in (99, 95, 90, 75):
            if len(values) * (100 - p) / 100 >= 10:
                out[f"{prefix}_p{p}"] = (qs[p - 1], unit)
                break
    return out


# --------------------------------------------------------------------------
# exact


def _seed_gate_admits(n: int, k: int) -> bool:
    # exact_conditional's admission test at the seed commit, with its
    # default budget; the cell list stays fixed if the gate later changes
    return math.comb(n, k) * math.factorial(n) <= ksets.DEFAULT_ENUMERATION_BUDGET * 10**3


def _line_cells() -> list[tuple[int, int, int]]:
    cells = []
    for line in range(1, 10):
        for n in range(7, 12):
            try:
                families.line_params_by_line(line, n)
            except ValueError:  # n outside the line's congruence class
                continue
            cells += [(line, n, k) for k in range(2, n // 2 + 1) if _seed_gate_admits(n, k)]
    return cells


class Exact:
    """`montecarlo.exact_conditional` at M=4 on every (line, 7<=n<=11,
    2<=k<=n/2) cell the seed's gate admits, and `ksets.good_ksubset_fraction`
    (pi_g) on elements of lines 1, 3 and 6 at n=200 with k=2 and k=100.

    pi_g is a class function whose cost depends on g's cycle type and varies
    by two orders of magnitude between uniform elements. The cycle types are
    therefore fixed, those of the first PI_ELEMENTS uniform elements of a
    reference stream, and the seed draws CONJUGATES uniform elements of the
    line's group to relabel them with. Runs on different seeds then do
    comparable work, and pi must come out the same on every conjugate.
    """

    PI_LINES, PI_N, PI_KS, PI_ELEMENTS, CONJUGATES = (1, 3, 6), 200, (2, 100), 4, 4
    REFERENCE_SEED = 0
    CHECK_SAMPLES = 400

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = [(c, families.line_params_by_line(c[0], c[1])) for c in _line_cells()]
        ref = random.Random(self.REFERENCE_SEED)
        self.pi_inputs = []  # (cell, lp, k, reference index, g)
        for line in self.PI_LINES:
            lp = families.line_params_by_line(line, self.PI_N)
            elems = [perms.random_element(lp.group, lp.n, ref) for _ in range(self.PI_ELEMENTS)]
            rng = random.Random(subseed(seed, line))
            conj = []
            for _ in range(self.CONJUGATES):
                h = perms.random_element(lp.group, lp.n, rng)
                h_inv = h.inverse()
                conj += [(i, h_inv * g * h) for i, g in enumerate(elems)]
            for k in self.PI_KS:
                self.pi_inputs += [(f"pi-line{line}-k{k}", lp, k, i, g) for i, g in conj]

    def run_rep(self, meter: Meter) -> list[Call]:
        calls = []
        for (line, n, k), lp in self.cells:
            call = meter.call("exact-cells", montecarlo.exact_conditional, lp, k, M)
            call.ops = 1 if call.error is None else 0
            if call.error is None:
                call.output = ((line, n, k), call.output)
            calls.append(call)
        for cell, lp, k, i, g in self.pi_inputs:
            call = meter.call(cell, ksets.good_ksubset_fraction, g, k, lp.m, lp.r)
            call.ops = 1 if call.error is None else 0
            if call.error is None:
                call.output = ((lp.line, k, i), call.output, g)
            calls.append(call)
        return calls

    @staticmethod
    @functools.cache
    def exact_rho(lp) -> Fraction:
        """m * |N_good| / |G| by summing over cycle types, independently of
        exact_conditional."""
        from ksettrace.combinatorics import partitions_with_min_part

        n = lp.n
        group_order = math.factorial(n) // (1 if lp.group == perms.SYM else 2)
        good = 0
        for parts in partitions_with_min_part(n, 1):
            if lp.group == perms.ALT and (n - len(parts)) % 2:
                continue
            z = math.prod(t ** c * math.factorial(c)
                          for t, c in ((t, parts.count(t)) for t in set(parts)))
            cycles, start = [], 0
            for t in parts:
                cycles.append(list(range(start, start + t)))
                start += t
            if families.in_Ngood(perms.Permutation.from_cycles(n, cycles), lp):
                good += math.factorial(n) // z
        return Fraction(lp.m * good, group_order)

    def rho_table_mismatches(self) -> list[str]:
        """(line, n) pairs whose tabulated rho differs from the class-sum
        value: the disagreement acceptance criterion 1 records."""
        out = []
        for (line, n, _), lp in self.cells:
            tag = f"line{line}-n{n}"
            if tag not in out and self.exact_rho(lp) != lp.rho:
                out.append(tag)
        return out

    def check(self, calls) -> list[str]:
        failures = []
        pis = {}
        for c in _ok(calls):
            if c.cell == "exact-cells":
                (line, n, k), ex = c.output
                lp = families.line_params_by_line(line, n)
                rh, m = self.exact_rho(lp), lp.m
                # criterion 5's mixture identity, with rho from class sums
                if ex.p != rh / m * ex.p1 + (m - rh) / m * ex.p2:
                    failures.append(f"line{line}-n{n}-k{k}: mixture identity violated")
            else:
                key, pi, _ = c.output
                if not 0 <= pi <= 1:
                    failures.append(f"{c.cell} element {key[2]}: pi = {pi} outside [0, 1]")
                if pis.setdefault(key, pi) != pi:
                    failures.append(f"{c.cell} element {key[2]}: pi differs between conjugates")
        failures += self._check_pi_sampled(calls)
        return failures

    def _check_pi_sampled(self, calls) -> list[str]:
        """pi_g of the first conjugate of each reference element within 4
        Wilson half-widths of a sampled estimate from cycle_length_exact, an
        independent engine. The other conjugates must give the same pi."""
        failures = []
        checked = set()
        for j, c in enumerate(_ok(calls)):
            if c.cell == "exact-cells" or c.output[0] in checked:
                continue
            checked.add(c.output[0])
            (line, k, i), pi, g = c.output
            lp = families.line_params_by_line(line, self.PI_N)
            rng = random.Random(subseed(self.seed, "check", j))
            good = 0
            for _ in range(self.CHECK_SAMPLES):
                length = ksets.cycle_length_exact(ksets.random_ksubset(lp.n, k, rng), g)
                good += _matches(length, lp.m, lp.r)
            est = Estimate(good, self.CHECK_SAMPLES)
            if abs(est.value - float(pi)) > 4 * est.half_width:
                failures.append(f"{c.cell} element {i}: pi {float(pi):.4f} vs sampled "
                                f"{est.value:.4f} +- {est.half_width:.4f}")
        return failures

    def digest(self, calls) -> str:
        rows = []
        for c in calls:
            if c.error is not None:
                rows.append([c.cell, c.error])
            elif c.cell == "exact-cells":
                key, ex = c.output
                rows.append([list(key)] + [str(x) for x in (ex.accept, ex.n_given_accept,
                                                            ex.p, ex.p1, ex.p2, ex.q)]
                            + [sorted([f, str(v)] for f, v in ex.q_by_family.items())])
            else:
                key, pi, _ = c.output
                rows.append([list(key), str(pi)])
        return digest_of(rows)

    def named(self, reps, ops_per_s: float) -> dict:
        times = median_seconds(reps)
        cells = [t for c, t in zip(reps[0], times) if c.cell == "exact-cells"]
        pis = [t for c, t in zip(reps[0], times) if c.cell != "exact-cells"]
        return {
            "exact_cells_per_s": (len(cells) / sum(cells), "1/s"),
            "pi_per_s": (len(pis) / sum(pis), "1/s"),
            "exact_cells": (len(cells), "count"),
            "pi_elements": (len(pis), "count"),
        }


WORKLOADS = {
    "conditional-uniform": conditional_uniform,
    "conditional-ngood": conditional_ngood,
    "detect": Detect,
    "exact": Exact,
}
