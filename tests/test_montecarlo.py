import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ksettrace import algorithms, families, ksets, montecarlo, perms
from ksettrace.montecarlo import (
    ExactConditional,
    ExperimentConfig,
    class_table,
    exact_conditional,
    table_conditional,
    wilson_interval,
)
from ksettrace.perms import ALT, SYM

from conftest import lay_type


def cfg(**kw):
    base = dict(group=SYM, n=50, goal=families.LONG_CYCLE, k=3, trials=1000, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


class TestWilson:
    def test_bounds_in_unit_interval(self):
        for succ, tot in [(0, 10), (10, 10), (3, 7), (500, 1000)]:
            lo, hi = wilson_interval(succ, tot)
            assert 0 <= lo <= succ / tot <= hi <= 1

    def test_known_value(self):
        lo, hi = wilson_interval(50, 100)
        assert abs(lo - 0.40383) < 1e-4
        assert abs(hi - 0.59617) < 1e-4

    def test_extreme_rates_nonzero_width(self):
        lo, hi = wilson_interval(0, 500)
        assert lo == 0 and hi > 0

    @pytest.mark.parametrize("succ", [5, -1])
    def test_impossible_counts_rejected(self, succ):
        with pytest.raises(ValueError, match=f"successes={succ}, trials=3"):
            wilson_interval(succ, 3)
        with pytest.raises(ValueError, match="successes"):
            montecarlo.Estimate(succ, 3).ci

    def test_no_trials_gives_unit_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestRunConditional:
    def test_determinism_across_workers(self):
        a = montecarlo.run_conditional(cfg(workers=1))
        # same seed and worker count reproduce exactly
        b = montecarlo.run_conditional(cfg(workers=1))
        assert a.contingency == b.contingency

    def test_counts_sum(self):
        st = montecarlo.run_conditional(cfg(trials=500))
        assert sum(st.contingency.values()) == 500

    def test_M1_accepts_more(self):
        a = montecarlo.run_conditional(cfg(M=1, trials=4000, seed=3)).accept_overall()
        b = montecarlo.run_conditional(cfg(M=4, trials=4000, seed=3)).accept_overall()
        assert a.value > b.value

    def test_ngood_stream_floor(self):
        st = montecarlo.run_conditional(cfg(condition="ngood", trials=3000, seed=5))
        # the conditioned stream is all in N
        assert sum(c for (fam, _), c in st.contingency.items() if fam == families.FAMILY_N) == 3000
        est = st.accept_overall()
        floor = (48 / 50) ** 4
        assert est.value >= floor - 3 * est.half_width

    @pytest.mark.parametrize("line", range(1, 10))
    def test_ngood_results_do_not_depend_on_s(self, line):
        # every N_good type is in N whatever s is, so the ngood harness reads
        # no s: one k = 2 cell per line (all but lines 4 and 5 reject some
        # trials there)
        lp = first_admissible(line, 24)
        results = set()
        for s in (Fraction(5, 8), Fraction(2, 3), Fraction(7, 10)):
            st = montecarlo.run_conditional(cfg(group=lp.group, n=lp.n, goal=families.LINES[line][1],
                                                k=2, s=s, condition="ngood", trials=500, seed=line))
            results.add((tuple(st.contingency.items()), st.ngood_trials, st.ngood_accepted,
                         tuple(sorted(st.cost.items()))))
        assert len(results) == 1, results

    @pytest.mark.parametrize(
        "line, n, k, condition, contingency, ngood_trials, ngood_accepted, cost", [
            # uniform draws through the rng.sample mask path (3k <= n)
            pytest.param(1, 100, 2, "none", {("N", False): 1, ("N", True): 25, ("Other", False): 1889,
                                             ("R", False): 83, ("Sge2", False): 2}, 26, 25, (2077, 1973),
                         id="1-100-2-none"),
            # the 3k > n fix-up path, with Alt's type redraws
            pytest.param(4, 21, 10, "none", {("N", True): 198, ("Other", False): 1548, ("R", False): 252,
                                             ("R", True): 2}, 198, 198, (2610, 1792),
                         id="4-21-10-none"),
            # conditioned on N_good, with a few rejected trials
            pytest.param(2, 17, 8, "ngood", {("N", False): 3, ("N", True): 1997}, 2000, 1997, (7995, 1),
                         id="2-17-8-ngood"),
            pytest.param(6, 20, 3, "ngood", {("N", False): 5, ("N", True): 1995}, 2000, 1995, (7991, 2),
                         id="6-20-3-ngood"),
            # one of its three N_good types, (3, 15), accepts every 4-subset
            # and draws nothing; the other two take one verdict draw per point
            pytest.param(3, 18, 4, "ngood", {("N", False): 30, ("N", True): 1970}, 2000, 1970, (7952, 8),
                         id="3-18-4-ngood"),
        ])
    def test_seeded_outputs_pinned(self, line, n, k, condition, contingency,
                                   ngood_trials, ngood_accepted, cost):
        # the tallies move when the sampling stream changes; a cell with few
        # rejections can miss one change, so five cells on both draw paths
        # are pinned, with the cost counts (points traced, early rejections)
        group, goal = families.LINES[line][:2]
        st = montecarlo.run_conditional(cfg(group=group, n=n, goal=goal, k=k, condition=condition,
                                            trials=2000, seed=5, workers=2))
        assert st.contingency == contingency
        assert (st.ngood_trials, st.ngood_accepted) == (ngood_trials, ngood_accepted)
        points_traced, early_rejections = cost
        assert st.cost == Counter(elements=2000, points_traced=points_traced,
                                  early_rejections=early_rejections)

    @pytest.mark.parametrize("goal, n, seed", [
        (families.LONG_CYCLE, 9, 41),  # line 4
        (families.THREE_CYCLE, 8, 42),  # line 6
    ])
    def test_alt_matches_exact(self, goal, n, seed):
        # the Alt redraw of the type sampler against the exact class sum, at
        # criterion 5's tolerance of 4 Wilson half-widths
        lp = families.line_params(ALT, n, goal)
        ex = exact_conditional(lp, 2, 4)
        trials = 4 * 10**4
        st = montecarlo.run_conditional(
            cfg(group=ALT, n=n, goal=goal, k=2, trials=trials, seed=seed))
        acc = st.accept_overall()
        ngood_rejected = st.ngood_trials - st.ngood_accepted
        rest_rejected = (trials - st.ngood_trials) - (acc.successes - st.ngood_accepted)
        checks = [
            ("accept", ex.accept, acc),
            ("n_given_accept", ex.n_given_accept, st.n_given_accept()),
            ("p1", ex.p1, montecarlo.Estimate(ngood_rejected, st.ngood_trials)),
            ("p2", ex.p2, montecarlo.Estimate(rest_rejected, trials - st.ngood_trials)),
            ("q", ex.q, montecarlo.Estimate(
                acc.successes - st.n_given_accept().successes, trials)),
        ]
        for name, exact, est in checks:
            assert abs(est.value - float(exact)) <= 4 * est.half_width, (name, exact, est)

    def test_cost_counts_masks_at_M1(self):
        st = montecarlo.run_conditional(cfg(M=1, trials=600, seed=2))
        rejected = st.trials - st.accept_overall().successes
        assert st.cost == {"elements": 600, "points_traced": 600, "early_rejections": rejected}

    def test_cost_on_an_all_accepted_cell(self):
        # line 1 at k = n/2 conditioned on N_good: every trial traces all M masks
        st = montecarlo.run_conditional(cfg(n=200, k=100, condition="ngood", trials=300, seed=6))
        assert st.contingency == {(families.FAMILY_N, True): 300}
        assert st.cost == {"elements": 300, "points_traced": 4 * 300, "early_rejections": 0}


def trial_rngs(config):
    """Each trial's stream in trial order: worker after worker, a worker's
    trials all reading its one stream."""
    for worker in range(config.workers):
        rng, trials = montecarlo._worker_stream(config, worker)
        yield from [rng] * trials


def first_admissible(line, start):
    """The line's params at its least admissible n >= start."""
    n = start
    while True:
        try:
            return families.line_params_by_line(line, n)
        except ValueError:
            n += 1


def reference_conditional(config):
    """(contingency, ngood_trials, ngood_accepted, cost) of the conditional
    trial loop with no shortcut but the exact ones.  An Other trial draws
    no mask and counts one point traced and one early rejection.  In ngood
    mode a trial reads G, its type's count of accepted k-subsets, from the
    counting kernel: with G = 0 it is rejected at its first point and with
    G = C(n, k) accepted with M points traced, drawing nothing; otherwise
    each point passes when `rng.randrange(C) < G`.  Every mask a uniform
    trial draws has its orbit length computed, and `is_ngood_type` is asked
    of every trial."""
    params = config.line()
    n, k = params.n, config.k
    subsets = math.comb(n, k)
    good_lengths = families.accepted_lengths(params.m, params.r)
    good_subsets = {}  # the kernel's count per type, so a cell costs one call per type
    contingency = {}
    ngood_trials = ngood_accepted = traced = early = 0
    for rng in trial_rngs(config):
        if config.condition == "ngood":
            parts = montecarlo.sample_ngood(params, rng)
            if parts not in good_subsets:
                good_subsets[parts] = ksets.good_ksubset_count(parts, k, params.m, params.r)
            passing = good_subsets[parts]
        else:
            parts = montecarlo.sample_type(params.group, n, rng)
            passing = None
        fam = families.classify_type(parts, params, config.s)
        if fam == families.FAMILY_OTHER or passing == 0:
            # no mask drawn: exact by test_other_orbit_lengths_never_accepted
            # and TestForcedOutcomes
            accepted, i = False, 1
        elif passing == subsets:
            accepted, i = True, config.M
        else:
            accepted = True
            for i in range(1, config.M + 1):
                if passing is None:
                    passes = ksets.layout_orbit_length(ksets.random_kmask(n, k, rng), parts) in good_lengths
                else:
                    passes = rng.randrange(subsets) < passing
                if not passes:
                    accepted = False
                    break
        traced += i
        early += not accepted and i == 1
        contingency[fam, accepted] = contingency.get((fam, accepted), 0) + 1
        if families.is_ngood_type(parts, params):
            ngood_trials += 1
            ngood_accepted += accepted
    cost = Counter(elements=config.trials, points_traced=traced, early_rejections=early)
    return contingency, ngood_trials, ngood_accepted, cost


class TestOtherRejectedUnread:
    """`run_conditional` rejects an Other element at its first point without
    drawing a mask: exact, since no mask of it has an accepted orbit length,
    and checked against the reading loop on all nine lines."""

    @pytest.mark.parametrize("line", range(1, 10))
    def test_other_orbit_lengths_never_accepted(self, line):
        # no mask of either draw path has an accepted orbit length under an
        # Other type, at small n and at n >= 100
        rng = random.Random(line)
        for start in (12, 100):
            lp = first_admissible(line, start)
            good_lengths = families.accepted_lengths(lp.m, lp.r)
            others = 0
            while others < 40:
                parts = montecarlo.sample_type(lp.group, lp.n, rng)
                if families.classify_type(parts, lp, Fraction(5, 8)) != families.FAMILY_OTHER:
                    continue
                others += 1
                for k in (2, lp.n // 2):
                    for _ in range(5):
                        mask = ksets.random_kmask(lp.n, k, rng)
                        assert ksets.layout_orbit_length(mask, parts) not in good_lengths
        # and exactly: every Other class passes no k-subset at all
        lp = first_admissible(line, 8)
        for k in (2, 3, lp.n // 2):
            rows = [row for row in class_table(lp, k) if row[3] == families.FAMILY_OTHER]
            assert rows
            assert all(pi == 0 for _, _, pi, _, _ in rows)

    @pytest.mark.parametrize("condition", ["none", "ngood"])
    @pytest.mark.parametrize("line", range(1, 10))
    def test_tallies_match_the_reading_loop(self, line, condition):
        # same contingency, N_good tallies and cost as the loop that reads
        # every drawn mask's orbit length, on both mask draw paths and 1 or
        # 2 workers (on two processes where two CPUs are usable)
        for start in (24, 100):
            lp = first_admissible(line, start)
            # k=4 on line 3 at n=24 mixes types that draw masks with one
            # that accepts every 4-subset
            for k in (2, 4, lp.n // 2):
                for workers in (1, 2):
                    config = cfg(group=lp.group, n=lp.n, goal=families.LINES[line][1], k=k, condition=condition,
                                 trials=1000, seed=line, workers=workers)
                    st = montecarlo.run_conditional(config)
                    got = (st.contingency, st.ngood_trials, st.ngood_accepted, st.cost)
                    expected = reference_conditional(config)
                    assert got == expected, (lp.n, k, workers)
                    # the one-stream-after-another loop's key order, too
                    assert list(st.contingency) == list(expected[0]), (lp.n, k, workers)


def enumerated_verdicts(parts, k, good_lengths):
    """The verdicts of the k-subsets of the laid-out type, one per subset,
    by reading the orbit length of each."""
    return (ksets.layout_orbit_length(sum(points), parts) in good_lengths
            for points in itertools.combinations([1 << i for i in range(sum(parts))], k))


def enumerated_outcome(parts, k, good_lengths):
    """The outcome every k-subset of the laid-out type forces: True if all
    are accepted, False if none is, None once both kinds are seen."""
    seen = set()
    for verdict in enumerated_verdicts(parts, k, good_lengths):
        seen.add(verdict)
        if len(seen) == 2:
            return None
    return seen.pop()


def mask_ngood_accepts(params, k, M, trials, rng):
    """The N_good acceptances of `trials` ngood trials read the slow way:
    every trial draws up to M masks by `ksets.random_kmask` and reads each
    orbit length by `ksets.layout_orbit_length`, stopping at the first
    rejected one, with no shortcut for any type."""
    good_lengths = families.accepted_lengths(params.m, params.r)
    accepted = 0
    for _ in range(trials):
        parts = montecarlo.sample_ngood(params, rng)
        accepted += all(ksets.layout_orbit_length(ksets.random_kmask(params.n, k, rng), parts)
                        in good_lengths for _ in range(M))
    return accepted


class TestForcedOutcomes:
    """In ngood mode a trial reads its type's count G of accepted k-subsets,
    cached once per cell from the counting kernel; a type with G = C(n, k)
    (pi_g = 1) draws nothing, and the rest take one exact Bernoulli(G/C)
    draw per point in place of a mask.  No N_good type has G = 0 at
    2 <= k <= n/2, so the harness needs no rule for one."""

    @pytest.mark.parametrize("line", range(1, 10))
    def test_flags_match_enumeration(self, line):
        # the cached counts, which decide the no-draw outcomes, against all
        # k-subsets, from each line's least admissible n; k = n as well,
        # outside the harness's 2 <= k <= n/2, so a G = 0 type is seen too:
        # an n-cycle's one n-subset has orbit length 1.  Above C(18, 9)
        # subsets, at k = n/2 for n = 19 and 20, only the forced outcome is
        # checked, by an enumeration that stops once both verdicts are seen
        for n in range(7, 21):
            try:
                lp = families.line_params_by_line(line, n)
            except ValueError:
                continue
            good_lengths = families.accepted_lengths(lp.m, lp.r)
            types, cum = montecarlo._ngood_table(lp.group, n, lp.m, lp.r)
            assert set(types) == set(families.ngood_types(lp.group, n, lp.m, lp.r))
            for k in range(2, n // 2 + 1):  # the harness's range has no G = 0 type
                counts = montecarlo._ngood_outcomes(lp, k)[2]
                assert all(passing >= 1 for passing in counts), (n, k)
            for k in sorted({2, 3, 4, n // 2, n}):
                subsets, cum_k, counts = montecarlo._ngood_outcomes(lp, k)
                assert (subsets, cum_k, len(counts)) == (math.comb(n, k), cum, len(types))
                for parts, passing in zip(types, counts):
                    if subsets <= math.comb(18, 9):
                        assert passing == sum(enumerated_verdicts(parts, k, good_lengths)), (n, k, parts)
                    else:
                        forced = {subsets: True, 0: False}.get(passing)
                        assert forced == enumerated_outcome(parts, k, good_lengths), (n, k, parts)

    def test_all_accepted_cell_draws_no_mask(self, monkeypatch):
        # line 2 at n = 105: m = 103 is prime and n - m < k < m, so both
        # N_good types accept every 52-subset
        def no_mask(*args):
            raise AssertionError("a mask was drawn")

        monkeypatch.setattr(ksets, "random_kmask", no_mask)
        trials, M = 500, 4
        st = montecarlo.run_conditional(cfg(n=105, goal=families.TRANSPOSITION, k=52, M=M,
                                            condition="ngood", trials=trials, seed=8))
        assert st.contingency == {(families.FAMILY_N, True): trials}
        assert (st.ngood_trials, st.ngood_accepted) == (trials, trials)
        assert st.cost == Counter(elements=trials, points_traced=M * trials, early_rejections=0)

    def test_ngood_mode_draws_no_mask(self, monkeypatch):
        # line 1 at n = 24, k = 2: the n-cycle's type has pi_g = 22/23, so
        # its trials are decided by verdict draws, never by a mask
        def no_mask(*args):
            raise AssertionError("a k-subset was read")

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)  # a patch reaches no child
        monkeypatch.setattr(ksets, "random_kmask", no_mask)
        monkeypatch.setattr(ksets, "layout_orbit_length", no_mask)
        st = montecarlo.run_conditional(cfg(n=24, k=2, condition="ngood", trials=2000, seed=9))
        assert 0 < st.ngood_accepted < st.ngood_trials == 2000

    @pytest.mark.parametrize("line", range(1, 10))
    def test_verdicts_match_the_mask_path(self, line):
        # the verdict path's ngood acceptance against the old mask path's and
        # against the exact 1 - p1, each within 4 Wilson half-widths (for the
        # two estimates, of their difference)
        lp = first_admissible(line, 13)
        goal = families.LINES[line][1]
        trials, M = 4000, 4
        for k in (2, 3, lp.n // 2):
            exact = float(1 - exact_conditional(lp, k, M).p1)
            st = montecarlo.run_conditional(cfg(group=lp.group, n=lp.n, goal=goal, k=k, M=M,
                                                condition="ngood", trials=trials, seed=line))
            verdicts = montecarlo.Estimate(st.ngood_accepted, st.ngood_trials)
            masks = montecarlo.Estimate(
                mask_ngood_accepts(lp, k, M, trials, random.Random(100 + line)), trials)
            for est in (verdicts, masks):
                assert abs(est.value - exact) <= 4 * est.half_width, (lp.n, k, est, exact)
            assert (abs(verdicts.value - masks.value)
                    <= 4 * math.hypot(verdicts.half_width, masks.half_width)), (lp.n, k)

    @pytest.mark.parametrize("n, k", [(24, 2), (66, 33), (70, 35), (200, 100)])
    def test_verdict_stream_is_randrange(self, monkeypatch, n, k):
        # each verdict is rng.randrange(C) < G, with the generator left in
        # the same state, whether C needs at most 64 bits or more (line 1,
        # where the n-cycle's pi_g is 22/23 at n = 24, k = 2 and within
        # 10**-8 of 1 at k = n/2, so those cells' verdicts nearly all pass)
        config = cfg(n=n, k=k, condition="ngood", trials=300, seed=n)
        params = config.line()
        subsets, _, by_index = montecarlo._ngood_outcomes(params, k)
        types = montecarlo._ngood_table(params.group, n, params.m, params.r)[0]
        counts = dict(zip(types, by_index))
        assert any(0 < passing < subsets for passing in counts.values())
        ours, theirs = (montecarlo._worker_stream(config, 0)[0] for _ in range(2))
        monkeypatch.setattr(montecarlo, "_worker_stream", lambda config, worker: (ours, config.trials))
        _, _, accepted, _, _ = montecarlo._conditional_tally(config, 0)
        expected = verdicts = 0
        for _ in range(config.trials):
            passing = counts[montecarlo.sample_ngood(params, theirs)]
            accepted_here = passing == subsets
            if 0 < passing < subsets:
                for _ in range(config.M):
                    verdicts += 1
                    accepted_here = theirs.randrange(subsets) < passing
                    if not accepted_here:
                        break
            expected += accepted_here
        assert (subsets.bit_length() > 64) == (n >= 70)
        assert verdicts >= config.trials
        assert accepted == expected
        assert ours.getstate() == theirs.getstate()


class GetrandbitsOnly:
    """A generator that offers only getrandbits, read from a random.Random."""

    def __init__(self, rng):
        self.getrandbits = rng.getrandbits


class TestGetrandbitsContract:
    def test_uniform_draws_read_only_getrandbits(self, monkeypatch):
        # the mask draw on both of its paths, the type draw and the uniform
        # harness run through getrandbits alone, with the outputs of the
        # same seed's random.Random
        for n, k in [(100, 2), (40, 13), (85, 6), (200, 100), (9, 4)]:
            a, b = random.Random(n + k), random.Random(n + k)
            got = [ksets.random_kmask(n, k, GetrandbitsOnly(a)) for _ in range(30)]
            assert got == [ksets.random_kmask(n, k, b) for _ in range(30)]
        for group, n in [(SYM, 60), (ALT, 21)]:
            a, b = random.Random(n), random.Random(n)
            got = [montecarlo.sample_type(group, n, GetrandbitsOnly(a)) for _ in range(30)]
            assert got == [montecarlo.sample_type(group, n, b) for _ in range(30)]
        config = cfg(n=60, k=2, trials=400, seed=8, workers=2)
        expected = montecarlo.run_conditional(config)
        # in process, where a patch is seen: a forked child runs its own copy
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        streams, reads = montecarlo._worker_stream, Counter()

        def getrandbits_only(config, worker):
            rng, trials = streams(config, worker)
            only = GetrandbitsOnly(rng)

            def counted(k):
                reads[worker] += 1
                return rng.getrandbits(k)

            only.getrandbits = counted
            return only, trials

        monkeypatch.setattr(montecarlo, "_worker_stream", getrandbits_only)
        st = montecarlo.run_conditional(config)
        assert (st.contingency, st.ngood_trials, st.cost) == (
            expected.contingency, expected.ngood_trials, expected.cost)
        assert set(reads) == {0, 1}  # both workers drew from the patched streams

    def test_ksubset_draw_reads_only_getrandbits(self):
        # the oracle's point draw on both of sample's paths, with the points
        # of the same seed's rng.sample
        for n, k in [(200, 2), (200, 21), (200, 22), (21, 7), (30, 30), (9, 4)]:
            a, b = random.Random(n + k), random.Random(n + k)
            got = [ksets.random_ksubset(n, k, GetrandbitsOnly(a)) for _ in range(30)]
            assert got == [frozenset(b.sample(range(n), k)) for _ in range(30)]


class TestRunFindMCycle:
    def test_outcome_tally(self):
        st = montecarlo.run_findmcycle(cfg(n=30, k=2, trials=50, eps=0.2, seed=2))
        assert st.good + st.bad + st.ugly == 50
        assert st.good > 0

    @pytest.mark.parametrize("group, n, goal, k, seed, split", [
        (SYM, 12, families.LONG_CYCLE, 2, 1, (198, 2, 0)),
        (SYM, 30, families.LONG_CYCLE, 3, 3, (185, 15, 0)),
        (ALT, 13, families.THREE_CYCLE, 2, 4, (181, 0, 19)),
    ])
    def test_good_bad_ugly_split(self, group, n, goal, k, seed, split):
        # the harness labels the returned element from ground truth: good when
        # it has an m-cycle, bad when it has none, ugly when none is returned
        st = montecarlo.run_findmcycle(
            cfg(group=group, n=n, goal=goal, k=k, trials=200, eps=0.3, seed=seed))
        assert (st.good, st.bad, st.ugly) == split

    def test_determinism(self):
        a = montecarlo.run_findmcycle(cfg(n=20, k=2, trials=20, eps=0.3, seed=9))
        b = montecarlo.run_findmcycle(cfg(n=20, k=2, trials=20, eps=0.3, seed=9))
        assert (a.good, a.bad, a.ugly) == (b.good, b.bad, b.ugly)

    @pytest.mark.parametrize("group, n, goal, k, workers", [
        (SYM, 20, families.LONG_CYCLE, 2, 1),
        (SYM, 21, families.TRANSPOSITION, 3, 2),
        (ALT, 13, families.THREE_CYCLE, 2, 3),
    ])
    def test_cost_sums_transcripts(self, group, n, goal, k, workers):
        # the totals are the per-run Transcript.cost() summed, replayed on
        # each logical worker's stream, and stay within the trial budget
        config = cfg(group=group, n=n, goal=goal, k=k, trials=12, eps=0.3, seed=4,
                     workers=workers)
        st = montecarlo.run_findmcycle(config)
        lp = config.line()
        expected = Counter()
        for rng in trial_rngs(config):
            _, transcript = algorithms.find_m_cycle(
                lp, 0.3, config.M, algorithms.make_testbed_oracle(lp, k), rng)
            expected.update(transcript.cost())
        assert st.cost == expected
        assert st.cost["elements"] >= 12
        budget = algorithms.trial_budget(n, 0.3)
        assert st.cost["acts"] <= 12 * budget * config.M * lp.r * lp.m


    def test_ngood_condition_refused(self):
        # the detector draws from all of G, so it must not run a cell that
        # asks for N_good
        with pytest.raises(ValueError, match="condition 'none'"):
            montecarlo.run_findmcycle(
                cfg(n=20, k=2, trials=30, eps=0.3, seed=9, condition="ngood"))


class TestTrialRngs:
    def test_streams_pinned(self):
        # 7 trials over 3 workers split 3, 2, 2; each trial's stream is its
        # worker's, shared by that worker's trials in order.  The first
        # getrandbits(32) of each trial pins the seeding and the split.
        words = [rng.getrandbits(32) for rng in trial_rngs(cfg(trials=7, workers=3, seed=4))]
        assert words == [3945360103, 410998922, 440687906, 1140401488,
                         3521205676, 1195052910, 438311592]


def in_process_and_pooled(monkeypatch, run, config):
    """run(config) on the in-process path (one usable CPU) and on three
    processes' worth of CPUs, so that workers=3 runs two children."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    serial = run(config)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    pooled = run(config)
    return serial, pooled


def die_in_a_child(config, worker):
    """The worker's index, or, in a forked child, the death of that child."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return worker


def raise_in_a_child(config, worker):
    """The worker's index, or, in a forked child, a ValueError naming it."""
    if multiprocessing.parent_process() is not None:
        raise ValueError(f"worker {worker}")
    return worker


def running(pid):
    """Whether pid is a live process; a zombie, which has exited and waits
    only to be reaped, is not one."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestProcesses:
    """The logical workers run on min(workers, usable CPUs) processes with
    the tallies of the in-process path; a dead child's share runs in the
    caller, a call that met a dead child stops them all, and the children
    outlive neither a normal exit nor a killed parent."""

    @pytest.mark.parametrize("mode", ["none", "ngood", "findmcycle"])
    @pytest.mark.parametrize("line", range(1, 10))
    def test_pooled_equals_in_process(self, monkeypatch, line, mode):
        lp = first_admissible(line, 16)
        goal = families.LINES[line][1]
        if mode == "findmcycle":
            base = dict(k=2, trials=7, eps=0.3)
            run = montecarlo.run_findmcycle
        else:
            base = dict(condition=mode, k=3, trials=301)
            run = montecarlo.run_conditional
        for workers in (2, 3):
            config = cfg(group=lp.group, n=lp.n, goal=goal, seed=line, workers=workers, **base)
            serial, pooled = in_process_and_pooled(monkeypatch, run, config)
            assert montecarlo.process_count(config) == workers
            assert len(multiprocessing.active_children()) >= workers - 1
            assert pooled == serial
            assert list(pooled.contingency.items()) == list(serial.contingency.items())
            assert list(pooled.cost.items()) == list(serial.cost.items())

    def test_process_count(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        assert [montecarlo.process_count(cfg(workers=w)) for w in (1, 2, 5)] == [1, 2, 2]
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        assert montecarlo.process_count(cfg(workers=5)) == 1

    def test_daemonic_caller_runs_in_process(self, monkeypatch):
        # a multiprocessing pool's worker is daemonic and may start no child
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        config = cfg(n=40, k=2, trials=300, seed=2, workers=2)
        pooled = montecarlo.run_conditional(config)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        monkeypatch.setattr(montecarlo, "_CHILDREN", None)  # any use of the children fails
        assert montecarlo.process_count(config) == 1
        assert montecarlo.run_conditional(config) == pooled

    def test_killed_child_replaced(self, monkeypatch):
        # a child killed between two calls is found dead at its pipe: the
        # second call runs its share in the caller and stops the children,
        # the third starts a replacement, and each returns the in-process result
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        config = cfg(n=60, k=2, trials=600, seed=3, workers=2)
        first = montecarlo.run_conditional(config)
        (child, _), = montecarlo._CHILDREN._procs[:1]
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=10)
        assert child.exitcode == -signal.SIGKILL
        assert montecarlo.run_conditional(config) == first
        assert montecarlo._CHILDREN._procs == []
        assert montecarlo.run_conditional(config) == first
        (replacement, _), = montecarlo._CHILDREN._procs[:1]
        assert replacement.pid != child.pid and replacement.is_alive()
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        assert montecarlo.run_conditional(config) == first

    def test_child_dying_during_a_call(self):
        # the dead child's share runs in the caller, and the call returns
        config = cfg(trials=10, workers=3)
        assert montecarlo._CHILDREN.map(die_in_a_child, config, 3) == [0, 1, 2]
        assert montecarlo._CHILDREN.map(die_in_a_child, config, 3) == [0, 1, 2]

    def test_child_exception_raised_in_caller(self):
        # the children are stopped, as a reply may still be in flight, and
        # the next call starts new ones
        config = cfg(trials=10, workers=3)
        with pytest.raises(ValueError, match="worker 1"):
            montecarlo._CHILDREN.map(raise_in_a_child, config, 3)
        assert montecarlo._CHILDREN._procs == []
        assert montecarlo._CHILDREN.map(die_in_a_child, config, 3) == [0, 1, 2]

    def test_concurrent_calls_serialised(self, monkeypatch):
        # two threads share the children one call at a time, so each gets
        # its own cell's in-process result, never the other's reply
        configs = [cfg(n=60, k=2, trials=400, seed=seed, workers=2) for seed in (5, 6)]
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        serial = [montecarlo.run_conditional(config) for config in configs]
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        got = [[], []]

        def calls(i):
            got[i] = [montecarlo.run_conditional(configs[i]) for _ in range(10)]

        threads = [threading.Thread(target=calls, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert got == [[serial[0]] * 10, [serial[1]] * 10]

    @pytest.mark.parametrize("bad", [dict(eps=1.5), dict(M=3)])
    def test_detector_args_checked_before_any_child(self, monkeypatch, bad):
        # a findmcycle run checks eps and M before it reaches the children
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        config = cfg(n=40, k=2, trials=20, workers=2, **bad)
        before = {proc.pid for proc in multiprocessing.active_children()}
        monkeypatch.setattr(montecarlo, "_CHILDREN", None)  # any use of the children fails
        with pytest.raises(ValueError, match="eps must|M must"):
            montecarlo.run_findmcycle(config)
        assert {proc.pid for proc in multiprocessing.active_children()} == before

    def test_forked_copy_starts_its_own_children(self):
        # a copy made by os.fork after a pooled call starts children of its
        # own and gets the in-process result; the original keeps its children
        script = textwrap.dedent("""
            import os
            from ksettrace import montecarlo
            from ksettrace.montecarlo import ExperimentConfig
            config = ExperimentConfig(group="Sym", n=60, goal="long-cycle", k=2,
                                      trials=300, seed=1, workers=3)
            montecarlo._usable_cpus = lambda: 1
            serial = montecarlo.run_conditional(config)
            montecarlo._usable_cpus = lambda: 3
            ok = montecarlo.run_conditional(config) == serial
            ours = [proc.pid for proc, _ in montecarlo._CHILDREN._procs]
            pid = os.fork()
            if pid == 0:
                ok = montecarlo.run_conditional(config) == serial
                theirs = [proc.pid for proc, _ in montecarlo._CHILDREN._procs]
                os._exit(0 if ok and len(theirs) == 2 and not set(theirs) & set(ours) else 1)
            _, status = os.waitpid(pid, 0)
            print(ok, os.waitstatus_to_exitcode(status),
                  montecarlo.run_conditional(config) == serial,
                  [proc.pid for proc, _ in montecarlo._CHILDREN._procs] == ours, flush=True)
        """)
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "0", "True", "True"]

    def test_forked_copy_exit_leaves_the_children(self):
        # a copy made by os.fork after a pooled call, and exiting normally,
        # leaves the original's children running, and the original's next
        # call reuses them: the copy's multiprocessing exit handler would
        # otherwise SIGTERM every child on its inherited list
        script = textwrap.dedent("""
            import os, sys
            from ksettrace import montecarlo
            from ksettrace.montecarlo import ExperimentConfig
            config = ExperimentConfig(group="Sym", n=60, goal="long-cycle", k=2,
                                      trials=300, seed=1, workers=2)
            montecarlo._usable_cpus = lambda: 2
            first = montecarlo.run_conditional(config)
            children = [proc for proc, _ in montecarlo._CHILDREN._procs]
            pid = os.fork()
            if pid == 0:
                sys.exit(0)
            _, status = os.waitpid(pid, 0)
            for proc in children:
                proc.join(timeout=0.5)  # returns at once if the copy killed it
            print(os.waitstatus_to_exitcode(status), len(children),
                  all(proc.is_alive() for proc in children),
                  montecarlo.run_conditional(config) == first,
                  [proc.pid for proc, _ in montecarlo._CHILDREN._procs]
                  == [proc.pid for proc in children], flush=True)
        """)
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1", "True", "True", "True"], proc.stderr
        assert "can only join a child process" not in proc.stderr

    @pytest.mark.parametrize("ending", ["exit", "kill"])
    def test_no_child_outlives_its_parent(self, ending):
        # importing the library and the in-process path start no process and
        # leave multiprocessing unimported; the children end when the parent
        # exits, or is killed, at once
        script = textwrap.dedent(f"""
            import os, signal, sys
            from ksettrace import cli, montecarlo
            from ksettrace.montecarlo import ExperimentConfig
            config = ExperimentConfig(group="Sym", n=60, goal="long-cycle", k=2,
                                      trials=300, seed=1, workers=3)
            montecarlo._usable_cpus = lambda: 1
            montecarlo.run_conditional(config)
            print("multiprocessing" in sys.modules, flush=True)
            montecarlo._usable_cpus = lambda: 3
            montecarlo.run_conditional(config)
            import multiprocessing
            print(*[p.pid for p in multiprocessing.active_children()], flush=True)
            if {ending!r} == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
        """)
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == (0 if ending == "exit" else -signal.SIGKILL), proc.stderr
        imported, pids = proc.stdout.splitlines()
        assert imported == "False"
        pids = [int(pid) for pid in pids.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))


class TestSampleNgood:
    def test_membership(self):
        rng = random.Random(3)
        for line, n in [(1, 12), (2, 11), (3, 12), (6, 14), (8, 12)]:
            lp = families.line_params_by_line(line, n)
            for _ in range(30):
                g = lay_type(montecarlo.sample_ngood(lp, rng), lp.n, rng)
                assert families.in_Ngood(g, lp)

    @pytest.mark.parametrize(
        "line, n", [(1, 8), (2, 9), (3, 8), (4, 9), (5, 8), (6, 8), (7, 9), (9, 7)]
    )
    def test_uniform_over_ngood_small(self, line, n):
        # every line small enough to enumerate (line 8 starts at n = 12):
        # check uniformity by chi-square over the coarser statistic "cycle
        # type", and that ngood_types lists exactly the types found
        lp = families.line_params_by_line(line, n)
        type_counts = Counter()
        for g in perms.enumerate_group(lp.group, n):
            if families.in_Ngood(g, lp):
                type_counts[g.cycle_type()] += 1
        listed = [tuple(sorted(t, reverse=True))
                  for t in families.ngood_types(lp.group, n, lp.m, lp.r)]
        assert sorted(listed) == sorted(type_counts)  # each type once
        total = sum(type_counts.values())
        rng = random.Random(17)
        draws = 20000
        got = Counter(tuple(sorted(montecarlo.sample_ngood(lp, rng), reverse=True))
                      for _ in range(draws))
        assert set(got) <= set(type_counts)
        chi2 = 0.0
        for ct, cnt in type_counts.items():
            expected = draws * cnt / total
            chi2 += (got.get(ct, 0) - expected) ** 2 / expected
        dof = max(len(type_counts) - 1, 1)
        assert chi2 < dof + 4 * math.sqrt(2 * dof)


    @staticmethod
    def uncached_sample_ngood(lp, rng):
        # the draw before its table was cached: list the types and weigh
        # them afresh on every call
        types = list(families.ngood_types(lp.group, lp.n, lp.m, lp.r))
        (parts,) = rng.choices(types, [1 / families.centralizer_order(t) for t in types])
        return parts

    def test_cached_table_keeps_the_stream(self):
        cells = 0
        for line in range(1, 10):
            for n in range(7, 40):
                try:
                    lp = families.line_params_by_line(line, n)
                except ValueError:
                    continue
                cells += 1
                a, b = random.Random(n * 10 + line), random.Random(n * 10 + line)
                got = [montecarlo.sample_ngood(lp, a) for _ in range(50)]
                assert got == [self.uncached_sample_ngood(lp, b) for _ in range(50)]
                assert a.getstate() == b.getstate()
        assert cells == 132

    @pytest.mark.parametrize("line", range(1, 10))
    def test_table_types_are_n_and_ngood(self, line):
        # the fact the ngood loop relies on to tally every trial, with no
        # classify call, as (N, accepted) and in N_good
        for start in (24, 100):
            lp = first_admissible(line, start)
            types = montecarlo._ngood_table(lp.group, lp.n, lp.m, lp.r)[0]
            assert types
            for parts in types:
                assert families.classify_type(parts, lp, Fraction(5, 8)) == families.FAMILY_N
                assert families.is_ngood_type(parts, lp)


class TestSampleType:
    @pytest.mark.parametrize(
        "line, n", [(1, 8), (2, 9), (3, 8), (4, 9), (5, 8), (6, 8), (7, 9), (8, 12), (9, 7)]
    )
    def test_frequencies_match_class_sizes(self, line, n):
        # a type holds n!/z elements of Sym(n), so it has probability 1/z in
        # Sym and, when even, 2/z in Alt; line 8 starts at n = 12
        lp = families.line_params_by_line(line, n)
        weight = 2 if lp.group == ALT else 1
        expected_share = {
            parts: Fraction(weight, families.centralizer_order(parts))
            for parts in families.partitions(n, range(1, n + 1))
            if lp.group == SYM or (n - len(parts)) % 2 == 0
        }
        assert sum(expected_share.values()) == 1
        rng = random.Random(29)
        draws = 20000
        got = Counter(tuple(sorted(montecarlo.sample_type(lp.group, n, rng)))
                      for _ in range(draws))
        assert sum(got.values()) == draws
        assert set(got) <= set(expected_share)  # Alt draws only even types
        # chi-square, with the types expected fewer than 5 times pooled
        cells = []
        pooled = [0, 0.0]
        for parts, share in expected_share.items():
            expected = draws * float(share)
            if expected < 5:
                pooled[0] += got.get(parts, 0)
                pooled[1] += expected
            else:
                cells.append((got.get(parts, 0), expected))
        if pooled[1] > 0:
            cells.append(tuple(pooled))
        chi2 = sum((obs - exp) ** 2 / exp for obs, exp in cells)
        dof = max(len(cells) - 1, 1)
        assert chi2 < dof + 4 * math.sqrt(2 * dof)

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError, match="unknown group"):
            montecarlo.sample_type("Cyc", 8, random.Random(0))

    @pytest.mark.parametrize("group, n", [(SYM, -1), (SYM, 0), (ALT, 1)])
    def test_rejects_degree_outside_group(self, group, n):
        # n = -1 drew forever, n = 0 gave [] and Alt at n = 1 gave [1]
        with pytest.raises(ValueError, match="requires n >="):
            montecarlo.sample_type(group, n, random.Random(0))

    @pytest.mark.parametrize("group", [SYM, ALT])
    @pytest.mark.parametrize("n", [2, 7, 100, 200, 201])
    def test_stream_matches_randrange(self, group, n):
        # the Feller draw as first written, through rng.randrange: same
        # types and the same generator state after them
        def reference(rng):
            while True:
                parts, rest = [], n
                while rest:
                    t = rng.randrange(rest) + 1
                    parts.append(t)
                    rest -= t
                if group == SYM or (n - len(parts)) % 2 == 0:
                    return parts

        for seed in range(60):
            a, b = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert montecarlo.sample_type(group, n, a) == reference(b)
            assert a.random() == b.random()


def element_conditional(M, elements):
    """ExactConditional summed over the group's elements, given as a Counter
    of (pi_g, family, in N_good) triples, one count per element."""
    order = sum(elements.values())
    total = in_n = reject_ngood = reject_rest = Fraction(0)
    ngood = 0
    by_family: dict = {}
    for (pi, fam, good), count in elements.items():
        acc = count * pi**M
        total += acc
        by_family[fam] = by_family.get(fam, Fraction(0)) + acc
        if fam == families.FAMILY_N:
            in_n += acc
        if good:
            ngood += count
            reject_ngood += count - acc
        else:
            reject_rest += count - acc
    return ExactConditional(
        accept=total / order,
        n_given_accept=in_n / total,
        p=1 - total / order,
        p1=reject_ngood / ngood,
        p2=reject_rest / (order - ngood),
        q=(total - in_n) / order,
        q_by_family={
            fam: val / order for fam, val in by_family.items() if fam != families.FAMILY_N
        },
    )


class TestExactConditional:
    @pytest.mark.parametrize("k, M", [(0, 4), (8, 4), (2, 0), (2, -1)])
    def test_rejects_k_or_M_out_of_range(self, k, M):
        lp = families.line_params(SYM, 7, families.TRANSPOSITION)
        with pytest.raises(ValueError, match="need 1 <= k <= n and M >= 1"):
            exact_conditional(lp, k, M)

    def test_identity_line2_n7(self):
        lp = families.line_params(SYM, 7, families.TRANSPOSITION)
        ex = exact_conditional(lp, 2, 4)
        rho, m = lp.rho, lp.m
        assert ex.p == rho / m * ex.p1 + (m - rho) / Fraction(m) * ex.p2
        assert ex.q == sum(ex.q_by_family.values(), Fraction(0))
        assert 0 <= ex.accept <= 1

    def test_matches_brute_force_n6_free_line(self):
        # every field of the class sum against direct element enumeration;
        # lines 7 and 8 start at n = 9 in Alt and at n = 12, out of its reach
        s = Fraction(5, 8)
        for line, n in [(1, 7), (2, 7), (4, 7), (9, 7), (3, 8), (5, 8), (6, 8)]:
            lp = families.line_params_by_line(line, n)
            elements = [
                (g, families.classify(g, lp, s), families.in_Ngood(g, lp))
                for g in perms.enumerate_group(lp.group, n)
            ]
            for k in (2, 3):
                table = class_table(lp, k, s)
                passes = Counter((ksets.good_ksubset_fraction(g, k, lp.m, lp.r), fam, good)
                                 for g, fam, good in elements)
                for M in (1, 4, 8):  # one table serves every M
                    want = element_conditional(M, passes)
                    assert table_conditional(table, M) == want, (line, n, k, M)
                    assert exact_conditional(lp, k, M, s) == want, (line, n, k, M)

    def test_alt_group(self):
        lp = families.line_params(ALT, 8, families.THREE_CYCLE)
        ex = exact_conditional(lp, 2, 4)
        assert 0 <= ex.accept <= 1
        assert 0 <= ex.n_given_accept <= 1

    @pytest.mark.parametrize("line, n, k", [(3, 12, 6), (1, 20, 10)])
    def test_identity_beyond_old_gate(self, line, n, k):
        # cells the former C(n,k)*n! gate refused: 77 and 627 classes
        lp = families.line_params_by_line(line, n)
        ex = exact_conditional(lp, k, 4)
        m = lp.m
        assert ex.p == lp.rho / m * ex.p1 + (m - lp.rho) / Fraction(m) * ex.p2

    def test_prime_power_m_accept_implies_n(self):
        # for n >= 13, m > n/2; if m is a prime power, an orbit length that m
        # divides needs a rotation period that m divides, on a cycle of length
        # m itself, so P(N | accept) = 1 exactly
        cells = 0
        for line in families.LINES:
            for n in range(13, 19):
                try:
                    lp = families.line_params_by_line(line, n)
                except ValueError:
                    continue
                if len(families.prime_divisors(lp.m)) != 1:
                    continue
                for k in sorted({2, 3, n // 2}):
                    table = class_table(lp, k)
                    ex = table_conditional(table, 4)
                    assert ex == exact_conditional(lp, k, 4)
                    if ex.accept > 0:
                        assert ex.n_given_accept == 1, (line, n, k)
                        # every class that can pass lies in N, so this holds at every M
                        assert all(fam == families.FAMILY_N
                                   for _, _, pi, fam, _ in table if pi > 0), (line, n, k)
                        cells += 1
        assert cells == 51

    @pytest.mark.parametrize("line, n", [
        (1, 8), (2, 9), (3, 8), (4, 9), (5, 8), (6, 8), (7, 9), (8, 12), (9, 7)])
    def test_class_table_sizes(self, line, n):
        lp = families.line_params_by_line(line, n)
        table = class_table(lp, 2)
        order = math.factorial(n) // (1 if lp.group == SYM else 2)
        assert sum(size for _, size, _, _, _ in table) == order
        ngood = sum(size for _, size, _, _, good in table if good)
        assert Fraction(ngood, order) == families.exact_rho(lp.group, n, lp.m, lp.r) / lp.m
        for parts, size, _, _, _ in table:
            assert size == math.factorial(n) // families.centralizer_order(parts)

    def test_table_parts_check_their_argument(self):
        lp = families.line_params(SYM, 7, families.TRANSPOSITION)
        for k in (0, 8):
            with pytest.raises(ValueError, match="need 1 <= k <= n"):
                class_table(lp, k)
        table = class_table(lp, 2)
        for M in (0, -1):
            with pytest.raises(ValueError, match="M must be >= 1"):
                table_conditional(table, M)

    @pytest.mark.parametrize("line, n, k, want", [
        (3, 12, 6, {1: "b15b1e4acba252e5", 4: "2df66e48532ad34f", 8: "461cf3ae524fcab8"}),
        (1, 20, 10, {1: "42de4be71f6f3950", 4: "8c1d9718eaf45684", 8: "4e2da09191363a22"}),
        # every class passes all or none of its 7-subsets here, so M changes nothing
        (6, 14, 7, {1: "6b58b7105097aaf6", 4: "6b58b7105097aaf6", 8: "6b58b7105097aaf6"}),
    ])
    def test_fields_pinned_past_brute_force(self, line, n, k, want):
        # all seven fields, recorded before the class table was split from
        # exact_conditional, on cells too large to enumerate element by element
        lp = families.line_params_by_line(line, n)
        table = class_table(lp, k)
        for M, digest in want.items():
            ex = table_conditional(table, M)
            assert ex == exact_conditional(lp, k, M)
            fields = (ex.accept, ex.n_given_accept, ex.p, ex.p1, ex.p2, ex.q,
                      sorted(ex.q_by_family.items()))
            assert hashlib.sha256(repr(fields).encode()).hexdigest()[:16] == digest, M

    def test_gate_counts_classes(self, monkeypatch):
        lp = families.line_params_by_line(1, 7)  # 15 cycle types
        monkeypatch.setattr(ksets, "DEFAULT_ENUMERATION_BUDGET", 15 * 10**3)
        assert exact_conditional(lp, 2, 4).accept > 0
        monkeypatch.setattr(ksets, "DEFAULT_ENUMERATION_BUDGET", 14 * 10**3)
        with pytest.raises(ValueError, match="too large"):
            exact_conditional(lp, 2, 4)

    @pytest.mark.parametrize("line, n", [
        (1, 33),  # Sym(33): 10143 cycle types
        (4, 37),  # Alt(37): 10836 even cycle types
    ])
    def test_gate_refuses_past_limit(self, line, n):
        lp = families.line_params_by_line(line, n)
        with pytest.raises(ValueError, match="more than 10000 conjugacy classes"):
            exact_conditional(lp, 2, 4)


class TestSmallV:
    def test_v0(self):
        assert montecarlo.small_v_proportions(0, 12, Fraction(5, 8)) == (
            Fraction(1), Fraction(1), Fraction(0),
        )

    def test_v4_rm4(self):
        P, P0, P1 = montecarlo.small_v_proportions(4, 4, Fraction(5, 8))
        assert P == Fraction(16, 24)

    def test_p0_le_p(self):
        for v in range(0, 13):
            for rm in (12, 20, 30, 60):
                P, P0, P1 = montecarlo.small_v_proportions(v, rm, Fraction(2, 3))
                assert P0 <= P
                assert P1 <= P

    def test_matches_enumeration_small(self):
        # literal S_v enumeration for v <= 7
        for v in range(1, 8):
            for rm in (12, 30):
                P, P0, P1 = montecarlo.small_v_proportions(v, rm, Fraction(5, 8))
                count = sum(
                    1
                    for g in perms.enumerate_group(SYM, v)
                    if rm % g.order() == 0
                )
                assert P == Fraction(count, math.factorial(v))

    @pytest.mark.parametrize("s", [Fraction(5, 8), Fraction(2, 3), Fraction(9, 10)])
    def test_p0_p1plus_match_enumeration_small(self, s):
        # literal S_v enumeration for v <= 7, with the s-large rule written
        # here: d >= n^s iff d^q >= n^p, and v - d > 3 n^s iff
        # (v - d)^q > 3^q n^p, for s = p/q
        p, q = s.numerator, s.denominator
        for v in range(1, 8):
            for n in (None, 1, 2, 5, 8, 30):  # 8^(2/3) = 4 puts a length on the threshold
                n_p = (n if n is not None else v) ** p
                for rm in (12, 30, 60):
                    _, P0, P1 = montecarlo.small_v_proportions(v, rm, s, n)
                    zero = one = 0
                    for g in perms.enumerate_group(SYM, v):
                        if rm % g.order():
                            continue
                        large = [d for d in g.cycle_type() if d**q >= n_p]
                        zero += not large
                        one += len(large) == 1 and (v - large[0]) ** q > 3**q * n_p
                    assert (P0, P1) == (Fraction(zero, math.factorial(v)),
                                        Fraction(one, math.factorial(v))), (v, n, rm)

    @pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)])
    def test_s_outside_range_rejected(self, s):
        with pytest.raises(ValueError, match="s must lie"):
            montecarlo.small_v_proportions(6, 12, s)
        with pytest.raises(ValueError, match="s must lie"):
            montecarlo.p1plus_recursion(6, 12, s)

    def test_negative_v_rejected(self):
        # the recursion returned 0 where small_v_proportions raises
        for proportions in (montecarlo.small_v_proportions, montecarlo.p1plus_recursion):
            with pytest.raises(ValueError, match="v must be >= 0"):
                proportions(-1, 12, Fraction(5, 8))


class TestReport:
    def test_header_only_when_empty(self):
        st = montecarlo.SummaryStats(cfg(trials=1))
        text = montecarlo.emit_report(st)
        rows = montecarlo.parse_report(text)
        assert rows == []
        assert text.splitlines()[0].split(",") == montecarlo.CSV_COLUMNS

    def test_roundtrip(self):
        st = montecarlo.run_conditional(cfg(trials=300, seed=4))
        text = montecarlo.emit_report(st)
        rows = montecarlo.parse_report(text)
        assert rows
        for row in rows:
            assert set(row) == set(montecarlo.CSV_COLUMNS)
            assert int(row["trial_count"]) == 300


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(k=30).validate()  # k > n/2
        with pytest.raises(ValueError):
            cfg(trials=0).validate()

    @pytest.mark.parametrize("field, value", [("condition", "ngod")])
    def test_rejects_unknown_choice(self, field, value):
        with pytest.raises(ValueError, match=f"unknown {field}"):
            cfg(**{field: value}).validate()

    @pytest.mark.parametrize("kw", [
        dict(goal="no-such-goal"), dict(n=6), dict(s=Fraction(1, 2)), dict(s=Fraction(1)),
        dict(M=3), dict(eps=1.0),
        dict(s=0.7), dict(s="5/8"), dict(eps="0.2"), dict(eps=True),
    ])
    def test_rejects_bad_line_s_or_detector_args(self, kw):
        # M=3 and eps=1.0 fail the detector's checks alone (the conditional
        # harness runs any M >= 1 and reads no eps); a value of the wrong
        # type is refused by its field's name
        (name, value), = kw.items()
        config = cfg(**kw)
        with pytest.raises(ValueError):
            config.validate_findmcycle()
        right_type = type(value) is type(getattr(cfg(), name))
        if right_type and name in ("M", "eps"):
            assert config.validate() is None
        else:
            with pytest.raises(ValueError, match=None if right_type else f"^{name} must be"):
                config.validate()
        assert cfg().validate_findmcycle() is None

    @pytest.mark.parametrize("value", [True, 2.0, "7"])
    @pytest.mark.parametrize("field", ["n", "k", "M", "trials", "workers", "seed"])
    def test_rejects_non_int_fields(self, field, value):
        # a bool, float or str would run another experiment (seed="7" hashes
        # as seed=7, trials=True runs one trial) or fail deep inside
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}"):
            cfg(**{field: value}).validate()
        for run in (montecarlo.run_conditional, montecarlo.run_findmcycle):
            with pytest.raises(ValueError, match=f"^{field} must be an int"):
                run(cfg(**{"n": 30, "k": 2, "trials": 5, "eps": 0.2, field: value}))

    def test_ngood_needs_conditional_mode(self):
        assert cfg(condition="ngood").validate() is None
        with pytest.raises(ValueError, match="condition 'ngood'"):
            cfg(condition="ngood").validate_findmcycle()

    def test_hash_stable(self):
        assert cfg().config_hash() == cfg().config_hash()
        assert cfg(seed=2).config_hash() != cfg(seed=3).config_hash()
        assert cfg().config_hash() == "c4caf18b1e90"

    def test_hash_reads_every_field(self):
        other = dict(group=ALT, n=51, goal=families.TRANSPOSITION, k=4, M=5, s=Fraction(2, 3),
                     eps=0.2, trials=999, seed=2,
                     workers=2, condition="ngood")
        assert set(other) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        for name, value in other.items():
            assert cfg(**{name: value}).config_hash() != cfg().config_hash(), name
