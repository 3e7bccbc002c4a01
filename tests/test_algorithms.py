import math
import random

import pytest

from ksettrace import algorithms, families, ksets, perms
from ksettrace.algorithms import (
    FAIL,
    find_m_cycle,
    make_testbed_oracle,
    trace_cycle,
    trial_budget,
)
from ksettrace.perms import SYM, Permutation


def line1(n):
    return families.line_params(SYM, n, families.LONG_CYCLE)


def line_cells(n_max=30):
    """(params, k) for every line at each n <= n_max its congruence admits,
    with k = 2 and k = n // 2."""
    cells = []
    for line in families.LINES:
        for n in range(7, n_max + 1):
            try:
                params = families.line_params_by_line(line, n)
            except ValueError:
                continue
            cells += [(params, k) for k in sorted({2, n // 2})]
    return cells


class ReferenceOracle(algorithms.TestbedOracle):
    """The testbed oracle on sorted-tuple points, each moved by re-sorting
    its pointwise image; it shares no code with the frozenset path."""

    def random_point(self, rng):
        return tuple(sorted(rng.sample(range(self.params.n), self.k)))

    def act(self, point, element):
        return tuple(sorted(element.images[x] for x in point))


class CountingOracle(algorithms.GroupOracle):
    """Delegates to another oracle and counts its calls.  A trace is the run
    of acts that starts at a point drawn for the current element; it hit the
    cap if its last image is not its start."""

    def __init__(self, inner):
        self.inner = inner
        self.elements = self.points = self.acts = 0
        self.drawn = []
        self.traces = []  # per element, [start, acts, closed] per traced point

    def random_element(self, rng):
        self.elements += 1
        self.drawn = []
        self.traces.append([])
        return self.inner.random_element(rng)

    def random_point(self, rng):
        self.points += 1
        self.drawn.append(self.inner.random_point(rng))
        return self.drawn[-1]

    def act(self, point, element):
        self.acts += 1
        if any(point is p for p in self.drawn):
            self.traces[-1].append([point, 0, False])
        trace = self.traces[-1][-1]
        image = self.inner.act(point, element)
        trace[1] += 1
        trace[2] = image == trace[0]
        return image

    def totals(self):
        traces = [t for ts in self.traces for t in ts]
        return {
            "elements": self.elements,
            "points": self.points,
            "acts": self.acts,
            "points_traced": len(traces),
            "cap_hits": sum(not closed for _, _, closed in traces),
            "early_rejections": sum(len(ts) == 1 for ts in self.traces),
        }


class TestTestbedOracle:
    def test_action_laws(self):
        params = line1(12)
        oracle = make_testbed_oracle(params, 3)
        rng = random.Random(0)
        for _ in range(30):
            g = oracle.random_element(rng)
            h = oracle.random_element(rng)
            pt = oracle.random_point(rng)
            assert oracle.act(oracle.act(pt, g), h) == oracle.act(pt, g * h)

    def test_k_guard(self):
        with pytest.raises(ValueError):
            make_testbed_oracle(line1(10), 6)
        with pytest.raises(ValueError):
            make_testbed_oracle(line1(10), 1)

    def test_degree_mismatch(self):
        oracle = make_testbed_oracle(line1(10), 2)
        pt = oracle.random_point(random.Random(0))
        for n in (9, 11):
            with pytest.raises(perms.DegreeMismatchError):
                oracle.act(pt, Permutation.identity(n))

    def test_remembered_element_alternated(self):
        # act keeps the last element it checked; alternating two elements of
        # one degree must give each its own image on every act
        rng = random.Random(9)
        for params, k in line_cells():
            oracle = make_testbed_oracle(params, k)
            g, h = oracle.random_element(rng), oracle.random_element(rng)
            pt = oracle.random_point(rng)
            for _ in range(4):
                for element in (g, h, h, g):
                    assert oracle.act(pt, element) == ksets.image(pt, element)
                pt = oracle.act(pt, g)

    def test_degree_mismatch_after_remembered_element(self):
        rng = random.Random(10)
        for params, k in line_cells():
            oracle = make_testbed_oracle(params, k)
            g = oracle.random_element(rng)
            pt = oracle.random_point(rng)
            assert oracle.act(pt, g) == ksets.image(pt, g)
            wrong = Permutation.identity(params.n + 1)
            for _ in range(2):
                with pytest.raises(perms.DegreeMismatchError):
                    oracle.act(pt, wrong)
            assert oracle.act(pt, g) == ksets.image(pt, g)

    def test_random_point_domain(self):
        rng = random.Random(5)
        for params, k in line_cells(16):
            oracle = make_testbed_oracle(params, k)
            for _ in range(20):
                pt = oracle.random_point(rng)
                assert isinstance(pt, frozenset) and len(pt) == k
                assert all(type(x) is int and 0 <= x < params.n for x in pt)

    def test_backdoor(self):
        oracle = make_testbed_oracle(line1(10), 2)
        g = oracle.random_element(random.Random(1))
        assert oracle.natural(g) is g

    def test_protocol_declares_every_call(self):
        # the detector's three calls and run_findmcycle's labelling call
        base = algorithms.GroupOracle()
        for name, args in [("random_element", (None,)), ("random_point", (None,)),
                           ("act", (None, None)), ("natural", (None,))]:
            with pytest.raises(NotImplementedError):
                getattr(base, name)(*args)


class TestTraceCycle:
    def test_ncycle_accepted_mostly(self):
        params = line1(30)
        oracle = make_testbed_oracle(params, 3)
        g = Permutation.from_cycles(30, [list(range(30))])
        rng = random.Random(42)
        accepted = sum(
            trace_cycle(g, params, 4, oracle, rng).accepted for _ in range(300)
        )
        floor = (28 / 30) ** 4
        assert accepted / 300 >= floor - 3 * math.sqrt(floor * (1 - floor) / 300)

    def test_order_coprime_rejected(self):
        params = line1(10)  # m = 10
        oracle = make_testbed_oracle(params, 2)
        g = Permutation.from_cycles(10, [list(range(9))])  # 9-cycle
        rng = random.Random(1)
        for _ in range(20):
            assert not trace_cycle(g, params, 4, oracle, rng).accepted

    def test_identity_rejected(self):
        params = line1(10)
        oracle = make_testbed_oracle(params, 2)
        rng = random.Random(2)
        out = trace_cycle(Permutation.identity(10), params, 4, oracle, rng)
        assert not out.accepted
        assert out.per_point[0][1] == 1

    def test_accept_implies_m_divides_order(self):
        rng = random.Random(3)
        params = families.line_params(SYM, 14, families.TRANSPOSITION)
        oracle = make_testbed_oracle(params, 3)
        for _ in range(400):
            g = oracle.random_element(rng)
            if trace_cycle(g, params, 4, oracle, rng).accepted:
                assert g.order() % params.m == 0

    def test_matched_r0_divides_r(self):
        params = families.line_params(SYM, 11, families.TRANSPOSITION)  # m=9, r=2
        oracle = make_testbed_oracle(params, 2)
        g = Permutation.from_cycles(11, [list(range(9)), [9, 10]])
        rng = random.Random(4)
        out = trace_cycle(g, params, 4, oracle, rng)
        for _, length, matched in out.per_point:
            if matched is not None:
                assert length == matched * params.m
                assert params.r % matched == 0


class TestFindMCycle:
    def test_trivial_group_fails_after_N(self, monkeypatch):
        # every element is the identity, so each first point has orbit length 1
        params = line1(10)
        oracle = make_testbed_oracle(params, 2)
        monkeypatch.setattr(oracle, "random_element", lambda rng: Permutation.identity(10))
        rng = random.Random(0)
        result, transcript = find_m_cycle(params, 0.5, 4, oracle, rng)
        assert result is FAIL
        n = trial_budget(10, 0.5)
        assert len(transcript.entries) == n
        assert transcript.cost() == {
            "elements": n, "points": 4 * n, "acts": n, "points_traced": n,
            "cap_hits": 0, "early_rejections": n,
        }

    def test_budget_formula(self):
        assert trial_budget(50, 0.1) == math.ceil(250 * math.log(20))
        assert trial_budget(50, 0.1) == 749

    def test_finds_ncycle(self):
        params = line1(20)
        oracle = make_testbed_oracle(params, 2)
        rng = random.Random(7)
        result, transcript = find_m_cycle(params, 0.2, 4, oracle, rng)
        assert result is not FAIL
        # transcript outcome lines are well formed
        assert transcript.entries[-1]["outcome"] == algorithms.OUTCOME_GOOD
        for line in transcript.lines():
            assert line.count(",") >= 2

    def test_determinism(self):
        params = line1(25)
        oracle = make_testbed_oracle(params, 2)
        r1, t1 = find_m_cycle(params, 0.2, 4, oracle, random.Random(11))
        r2, t2 = find_m_cycle(params, 0.2, 4, oracle, random.Random(11))
        assert r1 == r2
        assert t1.lines() == t2.lines()

    def test_eps_validated(self):
        oracle = make_testbed_oracle(line1(10), 2)
        with pytest.raises(ValueError):
            find_m_cycle(line1(10), 1.5, 4, oracle, random.Random(0))
        with pytest.raises(ValueError):
            find_m_cycle(line1(10), 0.1, 3, oracle, random.Random(0))


class TestFastPathMatchesReference:
    """The frozenset oracle and ksets.image against the sorted-tuple
    reference, on all nine lines."""

    def test_act_matches_image(self):
        rng = random.Random(12)
        for params, k in line_cells():
            oracle = make_testbed_oracle(params, k)
            reference = ReferenceOracle(params, k)
            for _ in range(10):
                g = oracle.random_element(rng)
                pt = oracle.random_point(rng)
                ref = tuple(sorted(pt))
                for _ in range(5):
                    assert ksets.image(pt, g) == oracle.act(pt, g)
                    ref, pt = reference.act(ref, g), oracle.act(pt, g)
                    assert frozenset(ref) == pt

    def test_find_m_cycle_matches(self):
        cells = line_cells()
        for params, k in cells:
            ns = [p.n for p, _ in cells if p.line == params.line]
            if params.n not in (ns[0], ns[-1]):
                continue
            for seed in range(2):
                fast = find_m_cycle(params, 0.2, 4, make_testbed_oracle(params, k),
                                    random.Random(seed))
                slow = find_m_cycle(params, 0.2, 4, ReferenceOracle(params, k),
                                    random.Random(seed))
                assert fast[0] == slow[0]
                assert fast[1].lines() == slow[1].lines()


class TestTranscriptCost:
    def test_matches_counting_oracle(self):
        for params, k in line_cells(24)[::3]:
            budget = trial_budget(params.n, 0.2)
            for seed in range(2):
                oracle = CountingOracle(make_testbed_oracle(params, k))
                _, transcript = find_m_cycle(params, 0.2, 4, oracle, random.Random(seed))
                assert transcript.cap == params.r * params.m
                assert transcript.cost() == oracle.totals()
                assert oracle.acts <= budget * 4 * transcript.cap


    def test_cap_required(self):
        # cost() prices a cap hit at the cap, so a transcript needs one
        with pytest.raises(TypeError):
            algorithms.Transcript()


def reference_orbit_length(act, point, element, cap):
    """The capped tracer as first written, a while loop over the images."""
    cur = act(point, element)
    t = 1
    while cur != point:
        if t >= cap:
            return ksets.EXCEEDS_CAP
        cur = act(cur, element)
        t += 1
    return t


class TestOrbitLengthCap:
    @pytest.mark.parametrize("cap", [1, 2, 5, 12])
    def test_cap_boundary(self, cap):
        # the point 0 under x -> x + 1 mod L has orbit length L
        for length in (cap - 1, cap, cap + 1):
            if length < 1:
                continue
            counts = []
            results = []
            for tracer in (algorithms.orbit_length, reference_orbit_length):
                acts = 0

                def act(x, L):
                    nonlocal acts
                    acts += 1
                    return (x + 1) % L

                results.append(tracer(act, 0, length, cap))
                counts.append(acts)
            assert results[0] == results[1]
            assert counts[0] == counts[1] == min(length, cap)
            assert (results[0] is ksets.EXCEEDS_CAP) == (length > cap)
            transcript = algorithms.Transcript(cap=cap)
            transcript.add(algorithms.OUTCOME_UGLY_STEP, [results[0]])
            assert transcript.cost()["acts"] == counts[0]
