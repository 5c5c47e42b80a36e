"""Field and series laws as property tests over small towers.

Examples are derandomized so the suite draws the same ones on every run.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import make_series  # noqa: E402
from lcft.ffield import FieldElement, FieldTower  # noqa: E402
from lcft.series import LaurentSeries  # noqa: E402

# p = 2 over F_2 (order 1) and with a Frobenius of order 3; p odd, f = 2.
# The series kernels add through the addition table on those four and
# through the Zech loop on F_512, past SUMS_MAX_SIZE
TOWERS = [FieldTower(*params) for params in
          ((2, 1, 1), (2, 1, 3), (3, 1, 2), (5, 1, 1), (2, 9, 1))]

laws = settings(derandomize=True, deadline=None, database=None,
                max_examples=60)


@st.composite
def elements(draw, tower, nonzero=False):
    k = draw(st.integers(1 if nonzero else 0, tower.order))
    return FieldElement(tower, k - 1) if k else tower.zero()


@st.composite
def element_triples(draw):
    tower = draw(st.sampled_from(TOWERS))
    return tuple(draw(elements(tower)) for _ in range(3))


@st.composite
def series(draw, tower):
    lead = draw(elements(tower, nonzero=True))
    rest = draw(st.lists(elements(tower), max_size=9))
    return make_series(tower, "t", draw(st.integers(-4, 4)), [lead] + rest)


@st.composite
def series_triples(draw):
    tower = draw(st.sampled_from(TOWERS))
    return tuple(draw(series(tower)) for _ in range(3))


def _same_window(x, y):
    return x.valuation == y.valuation and x.coeffs == y.coeffs


@laws
@given(element_triples())
def test_field_associativity_and_distributivity(xyz):
    x, y, z = xyz
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z


@laws
@given(st.sampled_from(TOWERS).flatmap(lambda T: elements(T, nonzero=True)))
def test_field_inverse(x):
    assert x * x ** -1 == x.tower.one()


@laws
@given(element_triples(), st.integers(0, 6))
def test_frobenius_is_a_ring_hom(xyz, j):
    x, y, _ = xyz
    assert (x + y).frobenius(j) == x.frobenius(j) + y.frobenius(j)
    assert (x * y).frobenius(j) == x.frobenius(j) * y.frobenius(j)


@laws
@given(series_triples())
def test_series_associativity(abc):
    a, b, c = abc
    assert _same_window((a * b) * c, a * (b * c))


@laws
@given(series_triples())
def test_series_distributivity(abc):
    a, b, c = abc
    # equal on the window both sides know (sums of unequal windows truncate)
    assert a * (b + c) == a * b + a * c


@laws
@given(st.sampled_from(TOWERS).flatmap(series))
def test_series_inverse(a):
    one = LaurentSeries.one(a.tower, "t", a.precision)
    assert _same_window(a * a.inverse(), one)
