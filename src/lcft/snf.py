"""Invariant factors of full-rank two-column integer lattices.

Every group presented in this package has two generators: the Galois
group, with relations (f, -s) and (0, e), and the norm quotient, with
relations (f, d1), (0, d2) and (0, q-1). So the Smith form reduces to
its two determinantal divisors.
"""

from __future__ import annotations

import math
from itertools import combinations


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nontrivial invariant factors (> 1) of the cokernel Z^2 / rowspan.

    d1 is the gcd of all entries and d1 * d2 the gcd of all 2x2 minors.
    A lattice of rank below 2 (an infinite cokernel) raises ValueError.
    """
    d1 = math.gcd(*(x for row in rows for x in row))
    minors = (a * d - b * c for (a, b), (c, d) in combinations(rows, 2))
    d12 = math.gcd(*minors)
    if d12 == 0:
        raise ValueError("relation lattice has rank below 2")
    return [d for d in (d1, d12 // d1) if d > 1]
