"""Command-line front end.

Subcommands: trace, classify, find-mcycle, experiment, verify, bounds,
oracle.  Options may come from a JSON config file (--config); flags override
file values, unknown keys are rejected, and every output starts with the
effective configuration.  Stochastic subcommands require an explicit --seed.

Exit codes: 0 success, 1 a verification/bound check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import algorithms, bounds, combinatorics, families, ksets, montecarlo, perms

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def _group(text: str) -> str:
    table = {"sym": perms.SYM, "alt": perms.ALT}
    if text.lower() not in table:
        raise UsageError(f"group must be sym or alt, got {text!r}")
    return table[text.lower()]


def _load_config(path: str, allowed: set[str]) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return data


def _merge(args: argparse.Namespace, keys: set[str]) -> dict:
    """Config file values, overridden by explicitly given flags."""
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_load_config(args.config, keys))
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            merged[key] = val
    return merged


def _echo(merged: dict, out) -> None:
    print("# config: " + json.dumps(merged, sort_keys=True, default=str), file=out)


def _require_seed(merged: dict) -> int:
    if merged.get("seed") is None:
        raise UsageError("--seed is required for stochastic commands")
    return int(merged["seed"])


def _line_from(merged: dict) -> families.LineParams:
    for key in ("group", "n", "goal"):
        if key not in merged:
            raise UsageError(f"missing required option --{key}")
    return families.line_params(_group(str(merged["group"])), int(merged["n"]), str(merged["goal"]))


def cmd_trace(args, out) -> int:
    keys = {"group", "n", "goal", "perm", "subset", "cap"}
    merged = _merge(args, keys)
    if "n" not in merged:
        raise UsageError("missing required option --n")
    n = int(merged["n"])
    if "perm" not in merged or "subset" not in merged:
        raise UsageError("--perm and --subset are required")
    if "cap" in merged:
        cap = int(merged["cap"])
    else:
        # default cap rm comes from the parameter line
        params = _line_from(merged)
        cap = params.r * params.m
    g = perms.Permutation.parse(str(merged["perm"]), n=n)
    gamma = ksets.KSubset.parse(str(merged["subset"]), n=n)
    _echo(merged, out)
    traced = algorithms.orbit_length(ksets.image, gamma, g, cap)
    exact = ksets.cycle_length_exact(gamma, g)
    print(f"traced: {traced}", file=out)
    print(f"exact: {exact}", file=out)
    return EXIT_OK


def cmd_classify(args, out) -> int:
    keys = {"group", "n", "goal", "perm", "s"}
    merged = _merge(args, keys)
    params = _line_from(merged)
    if "perm" not in merged:
        raise UsageError("--perm is required")
    g = perms.Permutation.parse(str(merged["perm"]), n=params.n)
    s = _parse_fraction(str(merged.get("s", "5/8")))
    _echo(merged, out)
    label = families.classify(g, params, s)
    print(f"line: {params.line}  family: {label}", file=out)
    return EXIT_OK


def cmd_find_mcycle(args, out) -> int:
    keys = {"group", "n", "goal", "k", "eps", "M", "seed"}
    merged = _merge(args, keys)
    params = _line_from(merged)
    seed = _require_seed(merged)
    k = int(merged.get("k", 2))
    eps = float(merged.get("eps", 0.1))
    M = int(merged.get("M", 4))
    _echo(merged, out)
    oracle = algorithms.make_testbed_oracle(params, k)
    rng = random.Random(seed)
    result, transcript = algorithms.find_m_cycle(params, eps, M, oracle, rng)
    for line in transcript.lines():
        print(line, file=out)
    if result is algorithms.FAIL:
        print("result: Fail", file=out)
    else:
        print(f"result: {result.cycle_str()}", file=out)
    return EXIT_OK


def cmd_experiment(args, out) -> int:
    keys = {
        "group", "n", "goal", "k", "M", "s", "delta", "eps",
        "mode", "trials", "seed", "workers", "condition",
    }
    merged = _merge(args, keys)
    _line_from(merged)
    seed = _require_seed(merged)
    config = montecarlo.ExperimentConfig(
        group=_group(str(merged["group"])),
        n=int(merged["n"]),
        goal=str(merged["goal"]),
        k=int(merged.get("k", 2)),
        M=int(merged.get("M", 4)),
        s=_parse_fraction(str(merged.get("s", "5/8"))),
        delta=_parse_fraction(str(merged.get("delta", "1/24"))),
        eps=float(merged.get("eps", 0.1)),
        mode=str(merged.get("mode", "conditional")),
        trials=int(merged.get("trials", 10000)),
        seed=seed,
        workers=int(merged.get("workers", 1)),
        condition=str(merged.get("condition", "none")),
    )
    _echo(merged, out)
    if config.mode == "conditional":
        stats = montecarlo.run_conditional(config)
        print(montecarlo.emit_report(stats), file=out, end="")
        est = stats.n_given_accept()
        if est.trials:
            print(f"# P(m-cycle | accept) = {est.value:.6f} ci={est.ci}", file=out)
    elif config.mode == "findmcycle":
        stats = montecarlo.run_findmcycle(config)
        t = config.trials
        print(f"good: {stats.good}/{t}  bad: {stats.bad}/{t}  ugly: {stats.ugly}/{t}", file=out)
        print(f"ugly ci: {montecarlo.wilson_interval(stats.ugly, t)}", file=out)
    else:
        raise UsageError(f"unknown experiment mode {config.mode!r}")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    keys = {"suite"}
    merged = _merge(args, keys)
    suite = str(merged.get("suite", "all"))
    _echo(merged, out)
    failures = 0
    rows = 0

    def emit(verdict, *argvals):
        nonlocal failures, rows
        rows += 1
        print(
            f"{verdict.lemma_id}, {', '.join(map(str, argvals))}, "
            f"{verdict.lhs}, {verdict.rhs}, {verdict.holds}",
            file=out,
        )
        if not verdict.holds:
            failures += 1

    if suite in ("binom", "all"):
        for a in range(2, 7):
            for c in range(2, 9):
                for ell in range(1, c):
                    emit(combinatorics.check_binom_lemma(a, c, ell), a, c, ell)
    if suite in ("npk", "all"):
        for u in range(2, 13):
            for sizes in combinatorics.partitions_with_min_part(u):
                P = combinatorics.SetPartition(sizes)
                for k0 in range(2, u + 1):
                    cnt = combinatorics.npk_count(P, k0)
                    b1, b2, b3 = combinatorics.npk_bounds(u, k0)
                    ok = cnt <= b1 and cnt <= b3 and (b2 is None or cnt <= b2)
                    emit(combinatorics.Verdict("npk", cnt, (b1, b2, b3), ok), sizes, k0)
    if suite in ("sigma", "all"):
        for t in range(2, 21):
            for p in families.prime_divisors(t):
                for k0 in range(1, t + 1):
                    closed = combinatorics.sigma_cycle(t, k0, p)
                    brute = combinatorics.sigma_cycle_brute(t, k0, p)
                    emit(combinatorics.Verdict("sigma", closed, brute, closed == brute), t, k0, p)
    if suite in ("divisors", "all"):
        for line in range(1, 10):
            n0 = {1: 8, 2: 9, 3: 8, 4: 9, 5: 8, 6: 8, 7: 9, 8: 12, 9: 13}[line]
            for n in range(n0, 10**4, 1 if line == 1 else (2 if line in (2, 3, 4, 5) else 6)):
                try:
                    lp = families.line_params_by_line(line, n)
                except ValueError:
                    continue
                prof = families.divisor_profile(lp)
                emit(
                    combinatorics.Verdict("divisor-profile", sorted(prof["large"]), "table", True),
                    line, n,
                )
                if lp.m > 10**4:
                    break
    print(f"# checked {rows} instances, {failures} failures", file=out)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_bounds(args, out) -> int:
    keys = {"M", "s", "delta", "cdelta", "adelta", "r", "eps"}
    merged = _merge(args, keys)
    M = int(merged.get("M", 4))
    s = _parse_fraction(str(merged.get("s", "5/8")))
    delta = _parse_fraction(str(merged.get("delta", "1/24")))
    r = int(merged.get("r", 1))
    eps = float(merged.get("eps", 1.0))
    _echo(merged, out)
    report = bounds.validate_params(M, s, delta)
    print(f"admissible: {report['ok']}  ell: {report['ell']}", file=out)
    for v in report["violations"]:
        print(f"violation: {v}", file=out)
    if "cdelta" in merged:
        c_delta = float(merged["cdelta"])
    else:
        c_delta, arg = bounds.c_delta_search(delta, 10**7)
        print(f"c_delta lower bound: {c_delta} at x={arg}", file=out)
    if "adelta" in merged:
        a_delta = float(Fraction(str(merged["adelta"])))
    else:
        a_delta = bounds.a_delta_eval(c_delta, s, delta)["value"]
    b_M = bounds.b_M_eval(M, s, delta, r, c_delta, a_delta)
    print(f"c_delta: {c_delta}", file=out)
    print(f"a_delta: {a_delta}", file=out)
    print(f"b_M: {b_M}", file=out)
    if report["ell"] > 1:
        log10_thr = bounds.n_threshold(report["ell"], b_M, eps)
        print(f"log10 n-threshold: {log10_thr}", file=out)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_oracle(args, out) -> int:
    keys = {"group", "n", "goal", "k", "M", "what"}
    merged = _merge(args, keys)
    params = _line_from(merged)
    what = str(merged.get("what", "rho"))
    _echo(merged, out)
    if what == "rho":
        rho = families.rho_oracle(params)
        agrees = rho == params.rho
        print(f"line {params.line}: rho_oracle = {rho}, table rho = {params.rho}, agree = {agrees}", file=out)
        return EXIT_OK if agrees else EXIT_CHECK_FAILED
    if what == "conditional":
        k = int(merged.get("k", 2))
        M = int(merged.get("M", 4))
        ex = montecarlo.exact_conditional(params, k, M)
        print(f"accept: {ex.accept}", file=out)
        print(f"P(m-cycle | accept): {ex.n_given_accept}", file=out)
        print(f"p: {ex.p}  p1: {ex.p1}  p2: {ex.p2}  q: {ex.q}", file=out)
        return EXIT_OK
    raise UsageError(f"unknown oracle target {what!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksettrace",
        description="Detect m-cycles in Sn/An from the action on k-subsets; "
        "exact oracles, bound reports, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--output", help="write results to this path instead of stdout")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
        return p

    line_flags = {
        "--group": {"help": "sym or alt"},
        "--n": {"type": int},
        "--goal": {"help": "long-cycle, transposition, or three-cycle"},
    }
    add("trace", cmd_trace, {**line_flags, "--perm": {}, "--subset": {}, "--cap": {"type": int}})
    add("classify", cmd_classify, {**line_flags, "--perm": {}, "--s": {}})
    add(
        "find-mcycle",
        cmd_find_mcycle,
        {**line_flags, "--k": {"type": int}, "--eps": {"type": float},
         "--M": {"type": int}, "--seed": {"type": int}},
    )
    add(
        "experiment",
        cmd_experiment,
        {**line_flags, "--k": {"type": int}, "--M": {"type": int}, "--s": {},
         "--delta": {}, "--eps": {"type": float}, "--mode": {},
         "--trials": {"type": int}, "--seed": {"type": int},
         "--workers": {"type": int}, "--condition": {}},
    )
    add("verify", cmd_verify, {"--suite": {}})
    add(
        "bounds",
        cmd_bounds,
        {"--M": {"type": int}, "--s": {}, "--delta": {}, "--cdelta": {"type": float},
         "--adelta": {}, "--r": {"type": int}, "--eps": {"type": float}},
    )
    add("oracle", cmd_oracle, {**line_flags, "--k": {"type": int}, "--M": {"type": int}, "--what": {}})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "output", None):
            with open(args.output, "w") as fh:
                return args.func(args, fh)
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
