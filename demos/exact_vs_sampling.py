# Exact conditional acceptance vs Monte Carlo, at a size where both work.
#
# At n = 8 the full conjugacy-class sum gives the acceptance probability of
# the four-point tracing test as an exact rational.  Seeded sampling runs
# over 20 seeds should give Wilson 95% intervals that cover that value about
# 19 times in 20 (a single interval misses it 5% of the time), and their
# pooled estimate should lie within 4 Wilson half-widths of it.

from ksettrace import families, montecarlo
from ksettrace.montecarlo import ExperimentConfig
from ksettrace.perms import SYM

SEEDS = range(11, 31)
TRIALS = 20_000  # per seed

params = families.line_params(SYM, 8, families.TRANSPOSITION)
exact = montecarlo.exact_conditional(params, k=2, M=4)
value = float(exact.accept)

print(f"line {params.line}: {params.group}({params.n}), m = {params.m}, "
      f"r = {params.r}")
print(f"exact Prob(accept)        = {exact.accept} = {value:.6f}")
print(f"exact Prob(N | accept)    = {float(exact.n_given_accept):.6f}")
print(f"exact Prob(reject|N_good) = {float(exact.p1):.6f}")

covered = accepted = 0
for seed in SEEDS:
    config = ExperimentConfig(group=SYM, n=8, goal=families.TRANSPOSITION,
                              k=2, M=4, trials=TRIALS, seed=seed)
    est = montecarlo.run_conditional(config).accept_overall()
    lo, hi = est.ci
    covered += lo <= value <= hi
    accepted += est.successes
    print(f"seed {seed}: sampled Prob(accept) = {est.value:.6f}  "
          f"(Wilson 95% interval [{lo:.6f}, {hi:.6f}], "
          f"covers: {lo <= value <= hi})")

pooled = montecarlo.Estimate(accepted, TRIALS * len(SEEDS))
z = (pooled.value - value) / pooled.half_width
print(f"intervals covering the exact value: {covered} of {len(SEEDS)}")
print(f"pooled Prob(accept) over {pooled.trials} trials = {pooled.value:.6f}, "
      f"{z:+.2f} Wilson half-widths from exact")
print(f"pooled estimate within 4 Wilson half-widths: {abs(z) <= 4}")
