"""Black-box m-cycle detection: trace a few random points of an implicit
permutation domain and test their orbit lengths.

The group is reached only through an oracle (random elements, random points,
an action map); the testbed instantiation uses the k-subset action of
Sym(n)/Alt(n), with frozenset points, and carries an inspection backdoor for
experiment labelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from . import ksets, perms
from .families import LineParams, accepted_lengths


class GroupOracle:
    """Abstract black-box group action: opaque elements, opaque points.

    Elements support no arithmetic; the only capabilities the algorithms
    use are drawing uniform random elements and points, and applying an
    element to a point.  `natural` is a labelling backdoor for experiments.
    """

    def random_element(self, rng) -> Any:
        raise NotImplementedError

    def random_point(self, rng) -> Any:
        raise NotImplementedError

    def act(self, point: Any, element: Any) -> Any:
        raise NotImplementedError

    def natural(self, element: Any) -> perms.Permutation:
        """The degree-n permutation behind `element`, for labelling an
        experiment's outcome only (`montecarlo.run_findmcycle` reads it);
        the algorithms never call it."""
        raise NotImplementedError


class TestbedOracle(GroupOracle):
    """Oracle realized by Sym(n) or Alt(n) acting on k-subsets.

    Points are frozensets of k ints in 0..n-1, drawn by
    ``ksets.random_ksubset``.  ``act`` is ``ksets.image`` with a degree
    check that only the oracle can make, since a point does not carry n;
    the detector reads points only through ``act`` and ``!=``.  The detector
    applies one element many times in a row, so ``act`` checks an element
    once and keeps it, by identity, with its image map until another comes:
    permutations are immutable, and the kept reference stops the element's
    id being reused.

    ``natural(element)`` exposes the underlying degree-n permutation; it is
    for experiment labelling only and is never read by the algorithms here.
    """

    def __init__(self, params: LineParams, k: int):
        n = params.n
        check_k(k, n)
        self.params = params
        self.n = n
        self.k = k
        # (element, its images.__getitem__) for the last element act checked,
        # one attribute so the check and the map always belong together
        self._checked: tuple = (None, None)

    def random_element(self, rng) -> perms.Permutation:
        return perms.random_element(self.params.group, self.n, rng)

    def random_point(self, rng) -> frozenset[int]:
        return ksets.random_ksubset(self.n, self.k, rng)

    def act(self, point: frozenset[int], element: perms.Permutation) -> frozenset[int]:
        checked, image_of = self._checked
        if element is not checked:
            images = element.images
            if len(images) != self.n:
                raise perms.DegreeMismatchError(
                    f"point degree {self.n} does not match permutation degree {len(images)}"
                )
            image_of = images.__getitem__
            self._checked = (element, image_of)
        return frozenset(map(image_of, point))

    def natural(self, element: perms.Permutation) -> perms.Permutation:
        return element


@dataclass(frozen=True)
class TraceOutcome:
    """Result of tracing M random points under one element."""

    accepted: bool
    per_point: tuple[tuple[Any, object, int | None], ...]


FAIL = "Fail"

OUTCOME_GOOD = "good"
OUTCOME_UGLY_STEP = "ugly-step"


@dataclass
class Transcript:
    """Per-trial record of a detection run, traced with orbit cap ``cap``."""

    cap: int
    entries: list[dict] = field(default_factory=list)

    def add(self, outcome: str, lengths: list) -> None:
        self.entries.append({"outcome": outcome, "lengths": lengths})

    def lines(self) -> list[str]:
        """Line-record form: trial number (the entry's position, from 1),
        outcome, per-point orbit lengths."""
        return [
            "{}, {}, {}".format(i, e["outcome"], " ".join(str(x) for x in e["lengths"]))
            for i, e in enumerate(self.entries, 1)
        ]

    def cost(self) -> dict[str, int]:
        """The run's oracle calls and tracing totals, read from the entries.

        Each element draws one point per entry of its lengths; a traced point
        costs its orbit length in acts, or ``cap`` when it exceeded the cap.
        An early rejection is an element rejected at its first point.
        """
        traced = [[x for x in e["lengths"] if x != "-"] for e in self.entries]
        flat = [x for xs in traced for x in xs]
        return {
            "elements": len(self.entries),
            "points": sum(len(e["lengths"]) for e in self.entries),
            "acts": sum(self.cap if x is ksets.EXCEEDS_CAP else x for x in flat),
            "points_traced": len(flat),
            "cap_hits": sum(x is ksets.EXCEEDS_CAP for x in flat),
            "early_rejections": sum(
                e["outcome"] == OUTCOME_UGLY_STEP and len(xs) == 1
                for e, xs in zip(self.entries, traced)
            ),
        }


def orbit_length(act: Callable[[Any, Any], Any], point, element, cap: int):
    """Smallest t >= 1 with point fixed by element^t, found by applying
    ``act(point, element)`` at most cap times; EXCEEDS_CAP if t > cap."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    cur = point
    for t in range(1, cap + 1):
        cur = act(cur, element)
        if cur == point:
            return t
    return ksets.EXCEEDS_CAP


def trace_cycle(
    element,
    params: LineParams,
    M: int,
    oracle: GroupOracle,
    rng,
) -> TraceOutcome:
    """Sample M independent uniform points; accept iff every orbit length
    under the element equals r0*m for some divisor r0 of r.

    Orbits are traced with cap rm: any longer orbit cannot equal r0*m,
    so exceeding the cap already forces rejection.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    m, r = params.m, params.r
    cap = r * m
    good_lengths = accepted_lengths(m, r)
    points = [oracle.random_point(rng) for _ in range(M)]
    per_point = []
    accepted = True
    for pt in points:
        if not accepted:
            per_point.append((pt, None, None))
            continue
        length = orbit_length(oracle.act, pt, element, cap)
        matched = length // m if length in good_lengths else None
        per_point.append((pt, length, matched))
        if matched is None:
            accepted = False
    return TraceOutcome(accepted, tuple(per_point))


def trial_budget(n: int, eps: float) -> int:
    """N = ceil(5 n ln(2/eps)), the maximum number of elements inspected."""
    return math.ceil(5 * n * math.log(2 / eps))


def check_k(k: int, n: int) -> None:
    """The testbed's k-subset size check: 2 <= k <= n/2."""
    if not 2 <= k <= n // 2:
        raise ValueError(f"need 2 <= k <= n/2, got k={k}, n={n}")


def check_detector_args(eps: float, M: int) -> None:
    """`find_m_cycle`'s own checks: eps in (0, 1) and M >= 4."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if M < 4:
        raise ValueError("M must be at least 4")


def find_m_cycle(
    params: LineParams,
    eps: float,
    M: int,
    oracle: GroupOracle,
    rng,
):
    """Draw up to N = ceil(5 n ln(2/eps)) random elements, returning the first
    accepted by trace_cycle, else FAIL.

    The accepted trial is recorded "good" in the transcript, the rejected
    ones "ugly-step"; the transcript keeps the tracing cap rm, so its
    ``cost()`` can count acts.  Returns (element or FAIL, Transcript).
    """
    check_detector_args(eps, M)
    N = trial_budget(params.n, eps)
    transcript = Transcript(cap=params.r * params.m)
    for _ in range(N):
        g = oracle.random_element(rng)
        outcome = trace_cycle(g, params, M, oracle, rng)
        lengths = [
            length if length is not None else "-" for _, length, _ in outcome.per_point
        ]
        if outcome.accepted:
            transcript.add(OUTCOME_GOOD, lengths)
            return g, transcript
        transcript.add(OUTCOME_UGLY_STEP, lengths)
    return FAIL, transcript


def make_testbed_oracle(params: LineParams, k: int) -> TestbedOracle:
    """Oracle whose elements are natural permutations and points are k-subsets."""
    return TestbedOracle(params, k)
