# Census of the rejection families at n = 200.
#
# Elements whose order is a multiple of m but which carry no m-cycle are the
# ones a tracing test can wrongly accept.  They split into five families by
# the size of Delta(g) (the union of cycles of length dividing r*m) and the
# number of s-large cycles inside it.  This script samples random elements,
# classifies each, and compares the observed family masses with the analytic
# ceilings.

import random
from fractions import Fraction

from ksettrace import bounds, families, perms
from ksettrace.perms import SYM

n, trials = 200, 50_000
params = families.line_params(SYM, n, families.LONG_CYCLE)
s = Fraction(5, 8)

rng = random.Random(7)
counts = {fam: 0 for fam in families.ALL_FAMILIES}
for _ in range(trials):
    g = perms.random_element(SYM, n, rng)
    counts[families.classify(g, params, s)] += 1

report = bounds.family_bounds(n, 2, 4, s, 6.25, params)

print(f"{trials} uniform elements of Sym({n}), goal {params.target}")
print(f"{'family':>8} {'observed':>10} {'ceiling':>12}")
for fam in families.ALL_FAMILIES:
    ceiling = report.bounds.get(fam)
    shown = f"{ceiling:.3e}" if ceiling is not None else "-"
    print(f"{fam:>8} {counts[fam] / trials:>10.5f} {shown:>12}")
print(f"exact Prob(N_good) = rho/m = {params.rho}/{params.m} "
      f"= {float(params.rho / params.m):.5f}")
