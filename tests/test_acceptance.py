"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line (bypassing capture) and then
asserts, so the verdict for all ten criteria is visible in any run.

Criterion 1 compares the rho of every instantiable small line with full
enumeration; rho is m * |N_good| / |G|, which for Alt(n) counts against
n!/2 (so lines 4 and 5 have rho = 2).  Criterion 9's reference constants
(b_M > 2e8, log10 n-threshold 112.5 +/- 1) are those of the largest r in
the table, r = 3; at r = 1 the same formula gives 1.1276e8 and 108.63.
"""

import contextlib
import io
import random
from fractions import Fraction

from ksettrace import algorithms, bounds, cli, families, ksets, montecarlo, perms
from ksettrace.montecarlo import Estimate, ExperimentConfig
from ksettrace.perms import SYM

from conftest import VERDICTS


def _report(idx: int, ok: bool, detail: str) -> None:
    line = f"criterion {idx:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    VERDICTS.append(line)


def test_criterion_01_rho_reproduction():
    cells = [
        (1, 7), (1, 8), (1, 9),
        (2, 7), (2, 9),
        (3, 8),
        (4, 7), (4, 9),
        (5, 8),
        (6, 8),
        (7, 9),
    ]
    mismatches = []
    for line, n in cells:
        lp = families.line_params_by_line(line, n)
        got = families.rho_oracle(lp)
        if got != lp.rho:
            mismatches.append(f"line {line} n={n}: table {lp.rho}, enumeration {got}")
    ok = not mismatches
    detail = "rho matches enumeration on all instantiable lines" if ok else "; ".join(mismatches)
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_02_powering_yield():
    lp = families.line_params(SYM, 8, families.TRANSPOSITION)
    total = hits = 0
    for g in perms.enumerate_group(SYM, 8):
        if not families.in_Ngood(g, lp):
            continue
        total += 1
        _, kind = families.extract_target(g, lp)
        if kind == "2-cycle":
            hits += 1
    frac = Fraction(hits, total)
    ok = frac == Fraction(3, 4)
    detail = f"2-cycle yield over N_good is {hits}/{total} = {frac}"
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_03_dual_engines():
    rng = random.Random(20260823)
    mismatches = 0
    for _ in range(10**4):
        n = rng.randint(2, 40)
        g = perms.random_element(SYM, n, rng)
        k = rng.randint(1, max(1, n // 2))
        gamma = ksets.random_ksubset(n, k, rng)
        traced = algorithms.orbit_length(ksets.image, gamma, g, g.order())
        if traced != ksets.cycle_length_exact(gamma, g):
            mismatches += 1
    ok = mismatches == 0
    detail = f"{mismatches} mismatches over 10^4 random instances, n <= 40"
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_04_lemma_suite():
    # the suite's grids live in one place, `ksettrace verify`
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "all"])
    rows = out.getvalue().splitlines()
    last = rows[-1] if rows else "no output"
    ok = code == 0 and last == "# checked 42093 instances, 0 failures"
    failed = [row for row in rows if row.endswith(", False")]
    detail = f"ksettrace verify --suite all: {last}" if ok else "; ".join(failed[:5] or [last])
    _report(4, ok, detail)
    assert ok, detail


def _mc_vs_exact(group, n, goal, k, trials, seed):
    lp = families.line_params(group, n, goal)
    ex = montecarlo.exact_conditional(lp, k, 4)
    rho, m = lp.rho, lp.m
    if ex.p != rho / m * ex.p1 + (m - rho) / Fraction(m) * ex.p2:
        return [f"n={n}: mixture identity violated"]
    st = montecarlo.run_conditional(
        ExperimentConfig(group=group, n=n, goal=goal, k=k, trials=trials, seed=seed)
    )
    acc = st.accept_overall()
    checks = [
        ("p", ex.p, Estimate(trials - acc.successes, trials)),
        ("p1", ex.p1, Estimate(st.ngood_trials - st.ngood_accepted, st.ngood_trials)),
        ("p2", ex.p2,
         Estimate((st.trials - st.ngood_trials) - (acc.successes - st.ngood_accepted),
                  st.trials - st.ngood_trials)),
        ("q", ex.q,
         Estimate(acc.successes - st.n_given_accept().successes, trials)),
    ]
    bad = []
    for name, exact, est in checks:
        if abs(est.value - float(exact)) > 4 * est.half_width:
            bad.append(f"n={n} {name}: exact {float(exact):.5f}, mc {est.value:.5f}")
    return bad


def test_criterion_05_exact_vs_mc():
    bad = _mc_vs_exact(SYM, 7, families.TRANSPOSITION, 2, 10**5, 51)
    bad += _mc_vs_exact(SYM, 8, families.TRANSPOSITION, 2, 10**5, 52)
    ok = not bad
    detail = ("p, p1, p2, q within 4 Wilson half-widths at both cells"
              if ok else "; ".join(bad))
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_06_acceptance_floor():
    bad = []
    for n in (50, 100, 200):
        for k in (2, n // 4, n // 2):
            st = montecarlo.run_conditional(
                ExperimentConfig(group=SYM, n=n, goal=families.LONG_CYCLE, k=k,
                                 trials=2 * 10**4, seed=600 + n + k,
                                 condition="ngood")
            )
            est = st.accept_overall()
            floor = ((n - 2) / n) ** 4
            if est.value < floor - 3 * est.half_width:
                bad.append(f"n={n} k={k}: {est.value:.4f} < floor {floor:.4f}")
    ok = not bad
    detail = ("conditioned acceptance meets ((n-2)/n)^4 floor on all 9 cells"
              if ok else "; ".join(bad))
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_07_fail_rate():
    st = montecarlo.run_findmcycle(
        ExperimentConfig(group=SYM, n=60, goal=families.LONG_CYCLE, k=2,
                         trials=500, eps=0.2, seed=7)
    )
    est = Estimate(st.ugly, 500)
    ceiling = 0.1 + 3 * est.half_width
    ok = est.value <= ceiling
    detail = f"Fail rate {est.value:.4f} vs ceiling {ceiling:.4f} (eps/2 = 0.1)"
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_08_conditional_regression():
    # the transposition goal needs odd n, so 101/201 stand in for 100/200 there
    bad = []
    for goal, ns in ((families.LONG_CYCLE, (100, 200)),
                     (families.TRANSPOSITION, (101, 201))):
        for n in ns:
            for k in (2, 5, n // 2):
                c = ExperimentConfig(group=SYM, n=n, goal=goal, k=k,
                                     trials=10**5, seed=800 + n + k)
                st = montecarlo.run_conditional(c)
                est = st.n_given_accept()
                if est.value <= 0.95:
                    bad.append(f"{goal} n={n} k={k}: {est.value:.4f}")
    # determinism of the emitted report under a fixed seed
    c = ExperimentConfig(group=SYM, n=100, goal=families.LONG_CYCLE, k=2,
                         trials=2000, seed=808)
    r1 = montecarlo.emit_report(montecarlo.run_conditional(c))
    r2 = montecarlo.emit_report(montecarlo.run_conditional(c))
    if r1 != r2:
        bad.append("report not deterministic under fixed seed")
    ok = not bad
    detail = ("Prob(N | accept) > 0.95 on all 12 cells, reports deterministic"
              if ok else "; ".join(bad))
    _report(8, ok, detail)
    assert ok, detail


def test_criterion_09_constants():
    # b_M grows with r, so the one constant that serves every line is taken
    # at the largest r in the table (r = 3, lines 6-9)
    r = max(families.line_params_by_line(line, n).r
            for line, n in ((1, 8), (2, 9), (3, 8), (4, 9), (5, 8),
                            (6, 8), (7, 9), (8, 12), (9, 13)))
    bval = bounds.b_M_eval(4, Fraction(17, 24), Fraction(1, 6), r, 138.32, 6.25)
    ell = bounds.ell_value(4, Fraction(17, 24), Fraction(1, 6))
    log_thr = bounds.n_threshold(ell, bval, 1.0)
    ell_main = bounds.validate_params(4, Fraction(5, 8), Fraction(1, 24))["ell"]
    clauses = [
        (bval > 2e8, f"b_M = {bval:.6g} (required > 2e8)"),
        (abs(log_thr - 112.5) <= 1.0, f"log10 threshold = {log_thr:.4f} (required 112.5 +/- 1)"),
        (ell_main == Fraction(7, 6), f"ell(4, 5/8, 1/24) = {ell_main}"),
    ]
    ok = all(c for c, _ in clauses)
    detail = "; ".join(msg for _, msg in clauses)
    _report(9, ok, detail)
    assert ok, detail


def test_criterion_10_p1plus_recursion():
    bad = []
    for v in range(0, 13):
        for rm in (12, 20, 30, 60):
            for s in (Fraction(5, 8), Fraction(2, 3), Fraction(7, 10)):
                _, _, p1 = montecarlo.small_v_proportions(v, rm, s)
                rec = montecarlo.p1plus_recursion(v, rm, s)
                if p1 != rec:
                    bad.append(f"(v={v}, rm={rm}, s={s})")
    ok = not bad
    detail = ("recursion equals enumeration for all v <= 12 cells"
              if ok else "; ".join(bad[:5]))
    _report(10, ok, detail)
    assert ok, detail
