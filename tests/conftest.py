import random
import warnings

import pytest

from lcft.extension import DEGREE_CAP, GaloisElement, TameAbelianExtension
from lcft.ffield import is_prime, prime_factors
from lcft.reciprocity import BaseFieldClass
from lcft.series import LaurentSeries

# Hypothesis reports a falsifying example through hypothesis.extra._patching,
# whose import (libcst, then mypy_extensions) warns that
# mypy_extensions.TypedDict is deprecated. Under ``-W error``, which the
# command line applies after any ini filter, that warning would turn the
# report into a pytest INTERNALERROR and lose the example. Import it once
# here, with only that warning ignored.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "mypy_extensions.TypedDict is deprecated",
            DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

# the standing verification matrix: one extension per interesting shape
MATRIX_PARAMS = {
    "unram_f2": (3, 1, 2, 1, "1"),
    "ram_e2": (5, 1, 1, 2, "1"),
    "ram_e4": (5, 1, 1, 4, "1"),
    "mixed_c9": (2, 2, 3, 3, "g"),
    "split_c3c3": (2, 2, 3, 3, "1"),
    "deg12": (7, 1, 2, 6, "1"),
    "mixed_e2_split": (3, 1, 2, 2, "1"),
    "mixed_e2_cyclic": (3, 1, 2, 2, "g"),
}


def tower_shapes(min_size, max_size):
    """Every tower shape (p, t, f), p prime, with
    min_size < p^(t*f) <= max_size, ordered by p, then t, then f."""
    out = []
    for p in filter(is_prime, range(2, max_size + 1)):
        t = 1
        while p**t <= max_size:
            f = 1
            while p ** (t * f) <= max_size:
                if p ** (t * f) > min_size:
                    out.append((p, t, f))
                f += 1
            t += 1
    return out


def admissible_ramifications(p, t, f):
    """Every admissible e over the shape (p, t, f), in increasing order:
    e | p^t - 1 (which makes e tame) and e*f <= DEGREE_CAP."""
    return [e for e in range(1, DEGREE_CAP // f + 1) if (p**t - 1) % e == 0]


def admissible_descriptors(max_size):
    """Every admissible (p, t, f, e, u0) with p^(t*f) <= max_size and u0 in
    {1, g}: p prime, e | p^t - 1 and e*f <= DEGREE_CAP."""
    return [(p, t, f, e, u0) for p, t, f in tower_shapes(0, max_size)
            for e in admissible_ramifications(p, t, f)
            for u0 in ("1", "g")]


# Source of peak_kib() for a probe run in a child process: the process
# image's peak RSS (VmHWM) in KiB. ru_maxrss would not do: it carries the
# parent's peak across fork and exec, so under a large pytest process it
# hides the child's growth.
PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
"""


def _poly_rem(a, mod, p):
    """a mod the monic ``mod``, coefficient lists lowest degree first."""
    a = list(a)
    n = len(mod) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % p
        if c:
            for j, mj in enumerate(mod):
                a[i - n + j] = (a[i - n + j] - c * mj) % p
    del a[n:]
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def poly_powmod(a, k, mod, p):
    """a^k mod the monic ``mod`` by right-to-left square and multiply on
    coefficient lists: a full base square on every bit and a full product
    on every 1 bit, trailing zeros trimmed.

    The reference for ``ffield._x_power``: another bit order, another
    product and no bitmasks at p = 2.
    """
    result = [1]
    base = _poly_rem(a, mod, p)
    while k:
        if k & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        k >>= 1
    return result


def reference_modulus(p, t, f):
    """The modulus search on ``poly_powmod``: the first candidate from the
    seeded stream, constant term nonzero, on which x has order p^n - 1."""
    n = t * f
    order = p**n - 1
    rng = random.Random(f"field-tower-{p}-{t}-{f}")
    while True:
        coeffs = [rng.randrange(p) for _ in range(n)] + [1]
        if coeffs[0] == 0 or poly_powmod([0, 1], order, coeffs, p) != [1]:
            continue
        if all(poly_powmod([0, 1], order // r, coeffs, p) != [1]
               for r in prime_factors(order)):
            return tuple(coeffs)


def make_series(tower, symbol, valuation, coeffs, precision=0):
    """A series from ints and FieldElements, padded with zeros to precision.

    The library constructor takes generator logs; this maps each
    coefficient to its log (None for zero) before calling it.
    """
    logs = [(tower.from_int(c) if isinstance(c, int) else c).log
            for c in coeffs]
    logs += [None] * (precision - len(logs))
    return LaurentSeries(tower, symbol, valuation, logs)


def binary_power(x, k):
    """x^k by repeated squaring over all of |k|, the inverse first for k < 0.

    The reference for ``LaurentSeries.__pow__``: every window product, with
    no cut of the exponent.
    """
    if k == 0:
        return LaurentSeries.one(x.tower, x.symbol, x.precision)
    base = x if k > 0 else x.inverse()
    k = abs(k)
    result = None
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def class_inverse(b):
    """The class of 1/(u * t^v): valuation -v and the unit's log negated."""
    return BaseFieldClass(b.tower, -b.valuation, -b.unit_log)


def field_element_closed_form(ext, b):
    """The closed form on FieldElement powers of m = (q^i - 1)/e.

    The reference for ``reciprocity_map``, which computes the same scale
    on generator logs: here m is the whole integer and c is built from
    field elements, the sign included. A negative valuation goes through
    the inverse class and the inverse pair g ** -1, a route the library's
    closed form does not take.
    """
    if b.valuation < 0:
        return field_element_closed_form(ext, class_inverse(b)) ** -1
    q, e = ext.q, ext.e
    m = (q**b.valuation - 1) // e
    c = ext.u0**m * b.unit ** (-((q - 1) // e))
    if (e - 1) * m % 2:
        c = -c
    return GaloisElement(ext, b.valuation, c.log)


def subfield_units(tower):
    """All of k*, as FieldElement powers of the subfield generator."""
    gk = tower.subfield_generator()
    return [gk**j for j in range(tower.subfield_units)]


def galois_element(ext, a, c):
    """The pair (a, c) for a scale c given as an int or FieldElement."""
    if isinstance(c, int):
        c = ext.tower.from_int(c)
    return GaloisElement(ext, a, c.log)


@pytest.fixture(scope="session")
def matrix():
    return {name: TameAbelianExtension.from_parameters(*params)
            for name, params in MATRIX_PARAMS.items()}


@pytest.fixture()
def rng():
    return random.Random(20260808)
