"""Reference values the benchmark checks answers against.

Exact values come from the paper's worked examples (two-point distance 1,
Fig. 1 distance sqrt 2, chain distances that sum their lengths) and from
counting (universal calculus dimensions N(N-1)^r).  Fig. 5 values come
from `ncgeom.distance.oracle_distance`, the brute-force grid search, and
the grid calculus dimensions are pinned exact results.  `selftest.py`
recomputes every entry; the benchmark itself never runs the oracle.
"""

import math

EXACT_TOL = 1e-6  # distances known in closed form
ORACLE_TOL = 2e-3  # agreement with the brute-force oracle, as in tests/
CERT_TOL = 1e-6  # upper_bound - value <= CERT_TOL * (1 + upper_bound)
NORM_TOL = 1e-9  # commutator_norm(optimizer) <= 1 + NORM_TOL
LADDER_TOL = 1e-9
ENERGY_DRIFT_TOL = 1e-10
MOMENTUM_DRIFT_TOL = 1e-13
ORDER_TOL = 0.2

# The paper's Fig. 1 and Fig. 5 digraphs, 0-based points.
FIG1_ARROWS = [(0, 1), (1, 2), (0, 3), (3, 2)]
FIG5_ARROWS = [(0, 1), (1, 2), (0, 5), (1, 4), (2, 3), (5, 4), (4, 3)]

TWO_POINT = 1.0
FIG1 = math.sqrt(2.0)

# Oracle values on pairs of the Fig. 5 digraph.
FIG5_ORACLE = {(2, 5): 2.0000000000000004, (0, 3): 2.14524276599385}


def universal_dims(n: int, cap: int) -> list[int]:
    return [n * (n - 1) ** r for r in range(cap + 1)]


def chain_dims(n: int) -> list[int]:
    """Oriented chain 0 -> 1 -> ... -> n-1: no two-arrow path survives."""
    return [n, n - 1, 0]


FIG1_DIMS = [4, 4, 1, 0]

# Bidirected r x c grids at degree cap 6; every degree is truncated.
BIGRID_DIMS = {
    (2, 2): [4, 8, 12, 16, 20, 24, 28],
    (2, 3): [6, 14, 22, 30, 38, 46, 54],
    (3, 3): [9, 24, 40, 56, 72, 88, 104],
}
