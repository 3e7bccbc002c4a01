from ksettrace.perms import Permutation

VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(VERDICTS):
            terminalreporter.write_line(line)


def lay_type(parts, n, rng) -> Permutation:
    """An element with the cycle lengths `parts`, its cycles laid on
    consecutive slices of an rng-shuffled 0..n-1, so that a drawn cycle type
    becomes an arbitrarily labelled permutation."""
    pts = list(range(n))
    rng.shuffle(pts)
    cycles, start = [], 0
    for t in parts:
        cycles.append(pts[start:start + t])
        start += t
    return Permutation.from_cycles(n, cycles)
