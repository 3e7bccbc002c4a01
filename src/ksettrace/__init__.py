"""Detection of m-cycles in Sn/An from their black-box actions on k-subsets,
with exact combinatorial oracles, explicit probability bounds, and a
Monte Carlo experiment harness."""

from .families import LineParams, line_params
from .ksets import EXCEEDS_CAP, cycle_length_exact
from .perms import ALT, SYM, Permutation

__all__ = [
    "Permutation",
    "LineParams",
    "line_params",
    "cycle_length_exact",
    "EXCEEDS_CAP",
    "SYM",
    "ALT",
]

__version__ = "0.1.0"
