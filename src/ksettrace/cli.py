"""Command-line front end.

Subcommands: trace, classify, find-mcycle, experiment, verify, bounds,
oracle.  `OPTIONS` declares each option's converter once, `COMMANDS` the
options each subcommand takes.  Options may come from a JSON config file
(--config); flags override file values, unknown keys are rejected, and a
file value is read as its flag's text would be, so a value of the wrong type
(``"trials": 2.9``, ``"seed": true``) is a usage error.  Every output starts
with the converted configuration.  Stochastic subcommands require --seed;
find-mcycle and experiment follow their `# cost:` line with a `# wall:`
line, the library call's wall time (experiment's also gives the processes
it ran on), the one line a seed does not fix.

Exit codes: 0 success; 1 a verification/bound check failed, or the command
failed after reading its input (an internal fault such as a
``DegreeMismatchError``); 2 usage error: bad flags or option values, or an
unreadable --config or unwritable --output file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import algorithms, bounds, combinatorics, families, ksets, montecarlo, perms

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _reading_input():
    """Report a ValueError raised while a command turns its options into
    library objects as a usage error; one raised later is a fault of the
    run itself."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _group(text: str) -> str:
    return {"sym": perms.SYM, "alt": perms.ALT}[text.lower()]


# option name -> converter from the flag's text, or the tuple of allowed values
OPTIONS = {
    "group": _group, "n": int, "goal": str, "perm": str, "subset": str, "cap": int,
    "k": int, "M": int, "s": Fraction, "delta": Fraction, "eps": float, "seed": int,
    "trials": int, "workers": int, "r": int, "cdelta": float,
    "adelta": lambda text: float(Fraction(text)),
    "mode": ("conditional", "findmcycle"),
    "condition": ("none", "ngood"),
    "suite": ("all", "binom", "npk", "sigma", "divisors"),
    "what": ("rho", "conditional"),
}
HELP = {"group": "sym or alt", "goal": "long-cycle, transposition, or three-cycle"}
LINE = ("group", "n", "goal")


def _convert(name: str, text: str):
    conv = OPTIONS[name]
    if isinstance(conv, tuple):
        if text not in conv:
            raise UsageError(f"--{name} must be one of {', '.join(conv)}; got {text!r}")
        return text
    try:
        return conv(text)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad value for --{name}: {text!r}") from exc


def _load_config(path: str, allowed: tuple[str, ...]) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(data) - set(allowed)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return data


def _require(opts: dict, names) -> None:
    for name in names:
        if name not in opts:
            raise UsageError(f"missing required option --{name}")


def _options(args: argparse.Namespace) -> dict:
    """The command's options: config file values overridden by the flags
    given, each converted once from its text, the required ones checked."""
    _, required, optional = COMMANDS[args.command]
    names = required + optional
    given = _load_config(args.config, names) if args.config else {}
    given.update({name: getattr(args, name) for name in names if getattr(args, name) is not None})
    opts = {name: _convert(name, str(value)) for name, value in given.items()}
    _require(opts, required)
    return opts


def _line(opts: dict) -> families.LineParams:
    with _reading_input():
        return families.line_params(opts["group"], opts["n"], opts["goal"])


def _wall_line(seconds: float, per: str, count: int, **extra) -> str:
    """The `# wall:` line: the library call's wall time in seconds, and in
    microseconds per unit of its work, then the `extra` fields.  Unlike
    `# cost:` it is not seeded."""
    return "# wall: " + json.dumps({"seconds": seconds, per: seconds * 1e6 / count, **extra})


def cmd_trace(opts: dict, out) -> int:
    n = opts["n"]
    with _reading_input():  # orbit_length raises only on its cap
        g = perms.Permutation.parse(opts["perm"], n=n)
        gamma = ksets.parse_ksubset(opts["subset"], n)
        traced = algorithms.orbit_length(ksets.image, gamma, g, opts["cap"])
    exact = ksets.cycle_length_exact(gamma, g)
    print(f"traced: {traced}", file=out)
    print(f"exact: {exact}", file=out)
    return EXIT_OK


def cmd_classify(opts: dict, out) -> int:
    params = _line(opts)
    with _reading_input():  # classify raises only on its arguments
        g = perms.Permutation.parse(opts["perm"], n=params.n)
        label = families.classify(g, params, opts.get("s", Fraction(5, 8)))
    print(f"line: {params.line}  family: {label}", file=out)
    return EXIT_OK


def cmd_find_mcycle(opts: dict, out) -> int:
    params = _line(opts)
    eps, M = opts.get("eps", 0.1), opts.get("M", 4)
    with _reading_input():
        oracle = algorithms.make_testbed_oracle(params, opts.get("k", 2))
        algorithms.check_detector_args(eps, M)
    rng = random.Random(opts["seed"])
    t0 = time.perf_counter()
    result, transcript = algorithms.find_m_cycle(params, eps, M, oracle, rng)
    seconds = time.perf_counter() - t0
    for line in transcript.lines():
        print(line, file=out)
    cost = transcript.cost()
    print("# cost: " + json.dumps(cost), file=out)
    print(_wall_line(seconds, "us_per_element", cost["elements"]), file=out)
    if result is algorithms.FAIL:
        print("result: Fail", file=out)
    else:
        print(f"result: {result.cycle_str()}", file=out)
    return EXIT_OK


def cmd_experiment(opts: dict, out) -> int:
    config = montecarlo.ExperimentConfig(**{"k": 2, **opts})
    with _reading_input():
        config.validate()
    conditional = config.mode == "conditional"
    run = montecarlo.run_conditional if conditional else montecarlo.run_findmcycle
    t0 = time.perf_counter()
    stats = run(config)
    seconds = time.perf_counter() - t0
    if conditional:
        print(montecarlo.emit_report(stats), file=out, end="")
        est = stats.n_given_accept()
        if est.trials:
            print(f"# P(m-cycle | accept) = {est.value:.6f} ci={est.ci}", file=out)
    else:
        t = config.trials
        print(f"good: {stats.good}/{t}  bad: {stats.bad}/{t}  ugly: {stats.ugly}/{t}", file=out)
        print(f"ugly ci: {montecarlo.wilson_interval(stats.ugly, t)}", file=out)
    print("# cost: " + json.dumps(stats.cost), file=out)
    print(_wall_line(seconds, "us_per_trial", config.trials,
                     processes=montecarlo.process_count(config)), file=out)
    return EXIT_OK


def cmd_verify(opts: dict, out) -> int:
    """The lemma suite, one row per checked instance: the one home of its
    grids, which acceptance criterion 4 runs as `--suite all`."""
    suite = opts.get("suite", "all")
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
                for k0 in range(2, u + 1):
                    cnt = combinatorics.npk_count(sizes, k0)
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
        rng = random.Random(4)
        for _ in range(10**3):
            rm = rng.choice([6, 10, 12, 15, 20, 30, 42])
            lengths, u = [], 0
            target = rng.randint(4, 14)
            while u < target:
                t = rng.randint(2, 11)
                if rm % t != 0:
                    lengths.append(t)
                    u += t
            k0 = rng.randint(1, u)
            got = combinatorics.sigma_Sigma(lengths, rm, k0)
            cap = 0 if k0 == 1 else (1 if k0 == u else Fraction(math.comb(u, k0), u - 1))
            emit(combinatorics.Verdict("sigma-Sigma", got, cap, got <= cap), lengths, rm, k0)
    if suite in ("divisors", "all"):
        for n in range(8, 10**4 + 7):  # every line up to m = 10^4, as m >= n - 6
            for group, goal in families.PAIRS:
                lp = families.line_params(group, n, goal)
                prof = families.divisor_profile(lp)
                holds = not prof["violations"]
                emit(combinatorics.Verdict("divisor-profile", sorted(prof["large"]), "table", holds),
                     lp.line, n)
    print(f"# checked {rows} instances, {failures} failures", file=out)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_bounds(opts: dict, out) -> int:
    M = opts.get("M", 4)
    s = opts.get("s", Fraction(5, 8))
    delta = opts.get("delta", Fraction(1, 24))
    with _reading_input():  # every value is computed before any is printed
        report = bounds.validate_params(M, s, delta)
        if "cdelta" in opts:
            c_delta, arg = opts["cdelta"], None
        else:
            c_delta, arg = bounds.c_delta_search(delta, 10**7)
        a_delta = opts["adelta"] if "adelta" in opts else bounds.a_delta_eval(c_delta, s, delta)
        b_M = bounds.b_M_eval(M, s, delta, opts.get("r", 1), c_delta, a_delta)
        ell = report["ell"]
        log10_thr = bounds.n_threshold(ell, b_M, opts.get("eps", 1.0))
    print(f"admissible: {report['ok']}  ell: {ell}", file=out)
    for v in report["violations"]:
        print(f"violation: {v}", file=out)
    if arg is not None:
        print(f"c_delta lower bound: {c_delta} at x={arg}", file=out)
    print(f"c_delta: {c_delta}", file=out)
    print(f"a_delta: {a_delta}", file=out)
    print(f"b_M: {b_M}", file=out)
    if log10_thr is not None:
        print(f"log10 n-threshold: {log10_thr}", file=out)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_oracle(opts: dict, out) -> int:
    params = _line(opts)
    if opts.get("what", "rho") == "rho":
        with _reading_input():  # rho_oracle raises only past its n <= 9 limit
            rho = families.rho_oracle(params)
        table = params.rho
        print(f"line {params.line}: rho_oracle = {rho}, table rho = {table}, agree = {rho == table}", file=out)
        return EXIT_OK if rho == table else EXIT_CHECK_FAILED
    with _reading_input():  # exact_conditional raises only on its arguments
        ex = montecarlo.exact_conditional(params, opts.get("k", 2), opts.get("M", 4))
    print(f"accept: {ex.accept}", file=out)
    print(f"P(m-cycle | accept): {ex.n_given_accept}", file=out)
    print(f"p: {ex.p}  p1: {ex.p1}  p2: {ex.p2}  q: {ex.q}", file=out)
    return EXIT_OK


# subcommand -> (function, required options, optional options)
COMMANDS = {
    "trace": (cmd_trace, ("n", "perm", "subset", "cap"), ()),
    "classify": (cmd_classify, (*LINE, "perm"), ("s",)),
    "find-mcycle": (cmd_find_mcycle, (*LINE, "seed"), ("k", "eps", "M")),
    "experiment": (cmd_experiment, (*LINE, "seed"),
                   ("k", "M", "s", "delta", "eps", "mode", "trials", "workers", "condition")),
    "verify": (cmd_verify, (), ("suite",)),
    "bounds": (cmd_bounds, (), ("M", "s", "delta", "cdelta", "adelta", "r", "eps")),
    "oracle": (cmd_oracle, LINE, ("k", "M", "what")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksettrace",
        description="Detect m-cycles in Sn/An from the action on k-subsets; "
        "exact oracles, bound reports, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, required, optional) in COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--output", help="write results to this path instead of stdout")
        for name in required + optional:
            conv = OPTIONS[name]
            p.add_argument(f"--{name}", help=", ".join(conv) if isinstance(conv, tuple) else HELP.get(name))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        opts = _options(args)
        with _open_output(args.output) as out:
            print("# config: " + json.dumps(opts, sort_keys=True, default=str), file=out)
            return COMMANDS[args.command][0](opts, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def _open_output(path: str | None):
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write output {path}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
