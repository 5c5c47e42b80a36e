"""The benchmark's workloads: fixed descriptor lists and their check settings.

A descriptor is ``(p, t, f, e, u0)``. The lists never depend on the seed;
the seed only drives the property suite's sampling, as ``lcft check
--seed`` does.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    descriptors: tuple
    precision: int
    samples: int


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


SWEEP_MAX_SIZE = 16


def small_descriptors() -> tuple:
    """Every admissible (p, t, f, e) with p^(t*f) <= SWEEP_MAX_SIZE, u0 in
    {1, g}. Admissible means e | p^t - 1 (which makes e tame) and e*f <= 64.
    """
    out = []
    for p in filter(_is_prime, range(2, SWEEP_MAX_SIZE + 1)):
        for t in range(1, SWEEP_MAX_SIZE.bit_length()):
            for f in range(1, SWEEP_MAX_SIZE.bit_length()):
                if p ** (t * f) > SWEEP_MAX_SIZE:
                    continue
                q = p**t
                for e in range(1, q):
                    if (q - 1) % e == 0 and e * f <= 64:
                        out += [(p, t, f, e, "1"), (p, t, f, e, "g")]
    return tuple(out)


# The acceptance matrix (MATRIX_PARAMS in tests/conftest.py), copied so that
# an edit to the test fixtures cannot silently change the benchmark.
MATRIX = (
    (3, 1, 2, 1, "1"),
    (5, 1, 1, 2, "1"),
    (5, 1, 1, 4, "1"),
    (2, 2, 3, 3, "g"),
    (2, 2, 3, 3, "1"),
    (7, 1, 2, 6, "1"),
    (3, 1, 2, 2, "1"),
    (3, 1, 2, 2, "g"),
)

# (2, 20, 1, 3, "g") is deliberately absent: check_totally_ramified_laws
# rebuilds the norm group once per unit of k*, 2^20 - 1 times, so one
# check run takes minutes (see README.md).
HIGH_DEGREE = (
    (2, 6, 1, 63, "1"),
    (59, 1, 1, 58, "g"),
    (2, 10, 2, 31, "g"),
)

WORKLOADS = {w.name: w for w in (
    Workload(
        "matrix",
        "acceptance matrix at precision 32: series convolution dominates, "
        "set-up is milliseconds",
        MATRIX, precision=32, samples=100),
    Workload(
        "high_degree",
        "Galois groups of order 58 to 63: group action, norm groups and "
        "Brauer checks dominate; the 2^20 tower dominates set-up",
        HIGH_DEGREE, precision=8, samples=10),
    Workload(
        "sweep_small",
        "all 78 admissible descriptors with p^(t*f) <= 16: fixed "
        "per-call and per-descriptor costs dominate",
        small_descriptors(), precision=8, samples=10),
)}
