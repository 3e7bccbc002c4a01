"""Which ksettrace functions the traced run wraps, and the per-layer metrics
derived from one traced rep.

Layers are the modules perms, families, ksets, algorithms and montecarlo.
The wrapped functions are the calls between them that the workloads
exercise; every span is named `<module>.<function>`.
"""

from __future__ import annotations

import statistics

from ksettrace import algorithms, families, ksets, montecarlo, perms

LAYERS = ("perms", "families", "ksets", "algorithms", "montecarlo")

TRACED = (
    ("perms.random_element", perms, "random_element"),
    ("perms.cycles", perms.Permutation, "cycles"),
    ("families.classify", families, "classify"),
    ("families.in_N", families, "in_N"),
    ("ksets.random_ksubset", ksets, "random_ksubset"),
    ("ksets.cycle_length_exact", ksets, "cycle_length_exact"),
    ("ksets.image", ksets, "image"),
    ("ksets.good_ksubset_fraction", ksets, "good_ksubset_fraction"),
    ("algorithms.find_m_cycle", algorithms, "find_m_cycle"),
    ("algorithms.trace_cycle", algorithms, "trace_cycle"),
    ("montecarlo.run_conditional", montecarlo, "run_conditional"),
    ("montecarlo.sample_ngood", montecarlo, "sample_ngood"),
    ("montecarlo.exact_conditional", montecarlo, "exact_conditional"),
)


def _trace_outcome(tracer, outcome) -> None:
    """Tally one algorithms.trace_cycle result."""
    traced = [length for _, length, _ in outcome.per_point if length is not None]
    counts = tracer.counts
    counts["algorithms.points_traced"] += len(traced)
    counts["algorithms.cap_hits"] += sum(length is ksets.EXCEEDS_CAP for length in traced)
    if outcome.accepted:
        counts["algorithms.accepted"] += 1
    elif len(traced) == 1:
        counts["algorithms.early_rejections"] += 1


def span_targets():
    return [(name, owner, attr, _trace_outcome if name == "algorithms.trace_cycle" else None)
            for name, owner, attr in TRACED]


# sample_ngood builds one candidate Permutation per attempt, directly in its
# own frame; counting those constructions gives its attempts
COUNTERS = (
    ("montecarlo.sample_ngood.attempts", perms.Permutation, "__init__", "montecarlo.sample_ngood"),
)

UNITS = {"calls": "count", "self_s": "s", "errors": "count"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _ in TRACED:
        for field, unit in UNITS.items():
            units[f"{name}.{field}"] = unit
    units.update({
        "perms.cycles.per_trial": "count",
        "montecarlo.orbit_checks_per_trial": "count",
        "montecarlo.sample_ngood.attempts": "count",
        "montecarlo.sample_ngood.accept_ratio": "share",
        "algorithms.oracle.random_element": "count",
        "algorithms.oracle.random_point": "count",
        "algorithms.oracle.act": "count",
        "algorithms.points_traced": "count",
        "algorithms.early_rejections": "count",
        "algorithms.cap_hits": "count",
        "algorithms.accept_ratio": "share",
    })
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
    units.update({
        "trace.untraced_rep_s": "s",
        "trace.traced_rep_s": "s",
        "trace.overhead": "share",
    })
    return units


def rep_metrics(spans: dict, counts: dict, calls, oracles) -> dict:
    """Per-layer values of one traced rep: span calls and self time, event
    counts, and the calls made through the rep's counting oracles."""
    out = {}
    for name, _, _ in TRACED:
        n_calls, self_s = spans.get(name, (0, 0.0))
        out[f"{name}.calls"] = n_calls
        out[f"{name}.self_s"] = self_s
    ops = sum(c.ops for c in calls) or 1
    out["perms.cycles.per_trial"] = out["perms.cycles.calls"] / ops
    out["montecarlo.orbit_checks_per_trial"] = out["ksets.cycle_length_exact.calls"] / ops
    attempts = counts.get("montecarlo.sample_ngood.attempts", 0)
    out["montecarlo.sample_ngood.attempts"] = attempts
    out["montecarlo.sample_ngood.accept_ratio"] = (
        out["montecarlo.sample_ngood.calls"] / attempts if attempts else 0.0)
    for kind, attr in (("random_element", "elements"), ("random_point", "points"),
                       ("act", "acts")):
        out[f"algorithms.oracle.{kind}"] = sum(getattr(o, attr) for o in oracles)
    for key in ("points_traced", "early_rejections", "cap_hits"):
        out[f"algorithms.{key}"] = counts.get(f"algorithms.{key}", 0)
    traces = out["algorithms.trace_cycle.calls"]
    out["algorithms.accept_ratio"] = (
        counts.get("algorithms.accepted", 0) / traces if traces else 0.0)
    rep_s = sum(c.seconds for c in calls)
    for layer in LAYERS:
        own = sum(out[f"{name}.self_s"] for name, _, _ in TRACED if name.startswith(layer + "."))
        out[f"{layer}.self_share"] = own / rep_s if rep_s else 0.0
    return out


def run_metrics(per_rep: list[dict], errors, untraced_s: list[float],
                traced_s: list[float]) -> dict:
    """Medians over the traced reps, error totals over the run, and the
    tracing overhead: median traced over median untraced rep time, minus 1."""
    out = {name: statistics.median_low(r[name] for r in per_rep) for name in per_rep[0]}
    for name, _, _ in TRACED:
        out[f"{name}.errors"] = errors.get(name, 0)
    untraced, traced = statistics.median(untraced_s), statistics.median(traced_s)
    out["trace.untraced_rep_s"] = untraced
    out["trace.traced_rep_s"] = traced
    out["trace.overhead"] = traced / untraced - 1
    return out
