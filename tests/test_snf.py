import math

import pytest

from lcft.snf import invariant_factors


def test_known_diagonalizations():
    assert invariant_factors([[2, 0], [0, 3]]) == [6]
    assert invariant_factors([[3, 0], [0, 3]]) == [3, 3]
    assert invariant_factors([[2, 1], [0, 2]]) == [4]
    assert invariant_factors([[1, 0], [0, 4]]) == [4]
    assert invariant_factors([[0, 3], [3, 1], [0, 3]]) == [9]
    assert invariant_factors([[4, 0], [0, 1]]) == [4]
    assert invariant_factors([[1, 0], [0, 1]]) == []


def test_rank_below_two_is_rejected():
    with pytest.raises(ValueError):
        invariant_factors([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        invariant_factors([[2, 0], [0, 0]])


def test_divisibility_chain_and_determinant(rng):
    for _ in range(200):
        m = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
        (a, b), (c, d) = m
        det = a * d - b * c
        if det == 0:
            with pytest.raises(ValueError):
                invariant_factors(m)
            continue
        factors = invariant_factors(m)
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0
        assert math.prod(factors) == abs(det)
