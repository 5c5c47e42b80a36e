from fractions import Fraction

import pytest

from conftest import binary_power, make_series
from lcft import checks, reciprocity, series
from lcft.extension import TameAbelianExtension
from lcft.ffield import SUMS_MAX_SIZE, FieldTower
from lcft.series import LaurentSeries, _convolve, _square, _square_plan


@pytest.fixture(scope="module")
def f5():
    return FieldTower(5, 1, 1)


@pytest.fixture(scope="module")
def f3():
    return FieldTower(3, 1, 1)


# F_2 (order 1, where 1 + 1 = 0 makes zech[0] = -1), F_3, F_5, F_2^6,
# F_7^2 and F_3^2 as a degree-2 extension of F_3, which the kernels add
# by the addition table; F_2^9 and F_3^6, past SUMS_MAX_SIZE, which they
# add by the Zech loop
KERNEL_TOWERS = [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 6, 1), (7, 2, 1),
                 (3, 1, 2), (2, 9, 1), (3, 6, 1)]


@pytest.fixture(scope="module")
def kernel_towers():
    towers = [FieldTower(*params) for params in KERNEL_TOWERS]
    # both kernel loops run under every test that takes these towers
    assert {t.size <= SUMS_MAX_SIZE for t in towers} == {True, False}
    return towers


def _random_series(tower, rng, valuation, precision, density=0.7):
    coeffs = [tower.generator_power(rng.randrange(tower.order))
              if rng.random() < density else tower.zero()
              for _ in range(precision)]
    coeffs[0] = tower.generator_power(rng.randrange(tower.order))
    return make_series(tower, "t", valuation, coeffs)


def _same_window(x, y):
    """Strict equality: same valuation and the same retained coefficients."""
    return x.valuation == y.valuation and x.coeffs == y.coeffs


def _schoolbook_product(a, b):
    """Independent convolution oracle over the common window."""
    n = min(a.precision, b.precision)
    zero = a.tower.zero()
    out = [zero] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return make_series(a.tower, a.symbol, a.valuation + b.valuation, out)


def _recurrence_inverse(a):
    """Independent inverse oracle: b_j = -(a_1 b_(j-1) + ... + a_j b_0) / a_0."""
    c = a.coeffs
    out = [c[0] ** -1]
    for j in range(1, len(c)):
        acc = a.tower.zero()
        for k in range(1, j + 1):
            acc = acc + c[k] * out[j - k]
        out.append(-(acc * c[0] ** -1))
    return make_series(a.tower, a.symbol, -a.valuation, out)


def _head_monomial(tower, rng, valuation, n, tail):
    """A window of n + tail terms whose first n hold only the lead: one
    term on an n-term common window, with nonzero terms past it."""
    x = _random_series(tower, rng, valuation, n + tail, 0.0)
    logs = list(x.logs)
    logs[n:] = [rng.randrange(tower.order) for _ in range(tail)]
    return LaurentSeries(tower, "t", valuation, logs)


def test_a_product_is_one_window_in_either_order(rng, monkeypatch):
    # ``*`` walks the terms of the factor with more zeros, whichever side
    # it is on; a field sum does not depend on its order, so a * b and
    # b * a keep the same window, equal to the schoolbook product. A
    # factor with one term on the common window scales the other window
    # by that term and makes no kernel call.
    convolve = series._convolve
    walked = []

    def counted(terms, *rest):
        walked.append(len(terms))
        return convolve(terms, *rest)

    monkeypatch.setattr(series, "_convolve", counted)
    one_term = 0
    for params in [(2, 3, 1), (3, 1, 2), (7, 1, 1)]:
        tower = FieldTower(*params)
        for n in (1, 2, 8, 32):
            for v in (-5, -2, 0, 3):
                dense = _random_series(tower, rng, v, n, 1.0)
                # None holes in the window the one-term factors scale
                gappy = _random_series(tower, rng, v - 1, n, 0.3)
                factors = [
                    _random_series(tower, rng, 1 - v, n, 0.2),   # sparse
                    _random_series(tower, rng, v + 1, n, 0.0),   # monomial
                    _random_series(tower, rng, -v, 1, 0.0),      # one term
                    _head_monomial(tower, rng, v - 2, n, 3),
                ]
                for x in factors:
                    for other in (dense, gappy):
                        walked.clear()
                        xy, yx = x * other, other * x
                        assert (xy.valuation, xy.logs, xy.precision) == \
                            (yx.valuation, yx.logs, yx.precision), \
                            (params, n, v)
                        assert _same_window(xy,
                                            _schoolbook_product(x, other))
                        # both orders walk the sparser factor's nonzero
                        # terms on the common window, unless it has one
                        m = min(x.precision, other.precision)
                        nonzero = min(m - x.logs[:m].count(None),
                                      m - other.logs[:m].count(None))
                        if nonzero == 1:
                            one_term += 1
                            assert walked == [], (params, n, v)
                        else:
                            assert walked == [nonzero, nonzero], \
                                (params, n, v)
    # at least the three one-term factors against both windows, and the
    # sparse factor at n = 1, on every tower and valuation
    assert one_term >= 3 * 4 * 4 * 3 * 2 + 3 * 4 * 2


def test_one_is_neutral(f5):
    a = make_series(f5, "t", -1, [2, 1, 3], 8)
    assert a * LaurentSeries.one(f5, "t", 8) == a


def test_uniformizer_times_inverse(f5):
    t = LaurentSeries.uniformizer(f5, "t", 8)
    prod = t * t.inverse()
    assert prod == LaurentSeries.one(f5, "t", 8)
    assert prod.valuation == 0


def test_product_against_schoolbook_example(f5):
    one = LaurentSeries.one(f5, "t", 8)
    t = LaurentSeries.uniformizer(f5, "t", 8)
    prod = (one + t) * (one - t)
    assert prod == make_series(f5, "t", 0, [1, 0, 4], 8)


def test_product_against_schoolbook_random(kernel_towers, rng):
    # sparse to dense operands, unequal windows, negative valuations
    for tower in kernel_towers:
        for _ in range(60):
            a = _random_series(tower, rng, rng.randrange(-5, 4),
                               rng.randrange(1, 13), rng.random())
            b = _random_series(tower, rng, rng.randrange(-5, 4),
                               rng.randrange(1, 13), rng.random())
            prod = a * b
            assert _same_window(prod, _schoolbook_product(a, b)), tower
            assert prod.valuation == a.valuation + b.valuation, tower
            assert prod.precision == min(a.precision, b.precision), tower


def test_product_cancellation(kernel_towers, rng):
    for tower in kernel_towers:
        one = LaurentSeries.one(tower, "t", 8)
        t = LaurentSeries.uniformizer(tower, "t", 8)
        # (1 + t)(1 - t) = 1 - t^2: the t coefficient cancels to zero
        prod = (one + t) * (one - t)
        assert prod.coeffs[1] == tower.zero(), tower
        assert _same_window(prod, _schoolbook_product(one + t, one - t))
        # a times its inverse: every coefficient past the lead cancels
        for _ in range(10):
            a = _random_series(tower, rng, rng.randrange(-3, 3), 8)
            b = _recurrence_inverse(a)
            assert _same_window(a * b, one), tower
            assert _same_window(b * a, one), tower


def test_inverse_against_recurrence(kernel_towers, rng):
    for tower in kernel_towers:
        for _ in range(40):
            n = rng.randrange(1, 13)
            a = _random_series(tower, rng, rng.randrange(-5, 4), n,
                               rng.random())
            inv = a.inverse()
            assert _same_window(inv, _recurrence_inverse(a)), tower
            assert _same_window(a * inv, LaurentSeries.one(tower, "t", n))


def test_division(f5, rng):
    for _ in range(50):
        a = _random_series(f5, rng, rng.randrange(-2, 3), 8)
        b = _random_series(f5, rng, rng.randrange(-2, 3), 8)
        assert (a / b) * b == a
    for end in (-2, 0, 5):
        with pytest.raises(ZeroDivisionError):
            a / LaurentSeries(f5, "t", end, ())


def test_symbol_and_field_mismatch(f5, f3):
    a = LaurentSeries.one(f5, "t", 4)
    with pytest.raises(ValueError):
        a * LaurentSeries.one(f5, "alpha", 4)
    with pytest.raises(ValueError):
        a + LaurentSeries.one(f3, "t", 4)


def test_shift_and_monomial_refuse_a_non_integer_exponent(f5):
    # the constructor leaves the valuation unchecked; the two public ways
    # to give a series a valuation take it as an index, so that
    # class_of_series never passes on a valuation of 1.5
    t = LaurentSeries.uniformizer(f5, "t", 4)
    for n in (0.5, 2.0, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError, match="as an integer"):
            t.shift(n)
        with pytest.raises(TypeError, match="as an integer"):
            LaurentSeries.monomial(f5, "t", f5.one(), n, 4)
    assert t.shift(2) == LaurentSeries.monomial(f5, "t", f5.one(), 3, 4)


def test_zero_semantics(f5):
    z = LaurentSeries(f5, "t", 10, ())     # O(t^10), at a's window end
    a = make_series(f5, "t", 2, [1, 1], 8)
    assert z.is_zero()
    assert (a + z) == a
    # a zero inside a's window cuts the sum there: O(t^5) + a
    assert (a + LaurentSeries(f5, "t", 5, ())) == a.truncate(3)
    assert (a * z).is_zero()
    assert (a - a).is_zero()          # cancels to the honest zero O(t^10)
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    with pytest.raises(ValueError):
        z.residue()


def test_sqrt_first_order_in_f3(f3):
    # first-order oracle: the linear coefficient a1 satisfies 2*a1 = 1 mod 3
    sols = [a for a in range(3) if (2 * a) % 3 == 1]
    assert sols == [2]
    w = make_series(f3, "t", 0, [1, 1], 8)
    r = w.nth_root(2)
    assert r.coeffs[0] == f3.one()
    assert r.coeffs[1] == f3.from_int(2)
    assert r * r == w


def test_cube_root_first_order_in_f4():
    f4 = FieldTower(2, 2, 1)
    # char 2: the first-order equation reads 3*a1 = a1 = 1
    w = make_series(f4, "t", 0, [1, 1], 8)
    r = w.nth_root(3)
    assert r.coeffs[0] == f4.one()
    assert r.coeffs[1] == f4.one()
    assert r**3 == w


def test_root_of_one(f5):
    one = LaurentSeries.one(f5, "t", 8)
    for e in (1, 2, 4):
        assert one.nth_root(e) == one


def test_root_preconditions(f5, f3):
    w = make_series(f3, "t", 0, [1, 1], 8)
    with pytest.raises(ValueError):
        w.nth_root(3)                     # wild: 3 | p
    t = LaurentSeries.uniformizer(f5, "t", 8)
    with pytest.raises(ValueError):
        t.nth_root(2)                     # odd valuation
    two = LaurentSeries.constant(f5, "t", f5.from_int(2), 8)
    with pytest.raises(ValueError):
        two.nth_root(2)                   # 2 is not a square mod 5


def test_root_round_trip_random(f5, rng):
    for _ in range(100):
        e = rng.choice((1, 2, 4))
        lead = f5.generator_power(rng.randrange(f5.order)) ** e
        coeffs = [lead] + [f5.generator_power(rng.randrange(f5.order))
                           if rng.random() < 0.8 else f5.zero()
                           for _ in range(31)]
        w = make_series(f5, "t", e * rng.randrange(-2, 3), coeffs)
        r = w.nth_root(e)
        assert r**e == w
        # deterministic tie-break: smallest generator exponent
        assert r.leading_coefficient == lead.nth_roots(e)[0]


def _newton_root_full_derivative(w, e):
    """nth_root as it read before the derivative was cut to the window of
    the correction: each step divides by e * x^(e-1) on the whole window."""
    tower = w.tower

    def pad(x, window):
        return LaurentSeries(tower, x.symbol, x.valuation,
                             x.logs + (None,) * (window - len(x.logs)))

    unit_part = w._scaled(-w.logs[0]).shift(-w.valuation)
    n = len(w.logs)
    x = LaurentSeries.one(tower, w.symbol, 1)
    window = 1
    while window < n:
        window = min(2 * window, n)
        x = pad(x, window)
        fx = x**e - unit_part.truncate(window)
        if not fx.is_zero():
            x = x - fx / (x ** (e - 1) * tower.from_int(e))
            x = pad(x, window)
    root_lead = w.leading_coefficient.nth_roots(e)[0]
    return (x * root_lead).shift(w.valuation // e)


# towers with e | q - 1 for several e each, p = 2 and odd p
ROOT_TOWERS = {(5, 1, 1): (2, 4), (7, 1, 1): (2, 3, 6), (13, 1, 1): (4, 12),
               (2, 2, 1): (3,), (2, 4, 1): (3, 5, 15), (2, 6, 1): (7, 9, 63),
               (3, 2, 1): (2, 4, 8), (3, 1, 2): (2, 4)}


def test_root_matches_the_full_derivative_newton_loop(rng):
    checked = 0
    for params, degrees in ROOT_TOWERS.items():
        tower = FieldTower(*params)
        # 36 random windows, then p^s - 1, p^s and p^s + 1 for every power
        # p <= p^s <= 32 of p, where the 1-unit exponent p^s steps, at
        # each degree
        cases = [(rng.choice(degrees), rng.randrange(1, 40))
                 for _ in range(36)]
        ps = tower.p
        while ps <= 32:
            cases += [(e, n) for n in (ps - 1, ps, ps + 1) for e in degrees]
            ps *= tower.p
        for e, window in cases:
            w = _random_series(tower, rng, e * rng.randrange(-2, 3), window,
                               density=rng.choice((0.2, 0.7, 1.0)))
            w = LaurentSeries(tower, "t", w.valuation,
                              ((e * rng.randrange(tower.order)) % tower.order,)
                              + w.logs[1:])
            got = w.nth_root(e)
            want = _newton_root_full_derivative(w, e)
            assert (got.valuation, got.logs) == (want.valuation, want.logs), \
                (params, e, window)
            checked += 1
    # the edge windows: 6 * 2 + 3 * 3 + 3 * 2 + 15 * 1 + 15 * 3 + 15 * 3
    # + 9 * 3 + 9 * 2
    assert checked == 8 * 36 + 177


def test_root_takes_one_inverse(matrix, rng, monkeypatch):
    """For e > 1 the root is one power of the inverse of the 1-unit part:
    exactly one series inverse per root, on any root degree of the matrix
    towers."""
    towers = {(ext.p, ext.t, ext.f): ext.tower for ext in matrix.values()}
    cases = []
    for tower in towers.values():
        for e in range(2, tower.order + 1):
            if tower.order % e == 0:
                x = _random_series(tower, rng, rng.randrange(-2, 3), 32)
                cases.append((e, x, x**e))
    # the divisors e > 1 of |l*| = 8, 4, 63 and 48
    assert len(cases) == 3 + 2 + 5 + 9

    inverse = LaurentSeries.inverse
    inverted = []

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(LaurentSeries, "inverse", counted)
    for e, x, w in cases:
        r = w.nth_root(e)
        # one inverse, of the 1-unit part (lead 1, log 0)
        assert [y.logs[0] for y in inverted] == [0], (x, e)
        inverted.clear()
        assert r**e == w, (x, e)
        assert r.leading_coefficient == w.leading_coefficient.nth_roots(e)[0]


def test_residue(f5, rng):
    one = LaurentSeries.one(f5, "t", 8)
    t = LaurentSeries.uniformizer(f5, "t", 8)
    assert (one + t).residue() == f5.one()
    s = make_series(f5, "t", 0, [2, 1, 1], 8)
    assert s.residue() == f5.from_int(2)
    assert ((one + t) / (one + t * f5.from_int(4))).residue() == f5.one()
    with pytest.raises(ValueError):
        t.residue()
    for _ in range(50):
        a = _random_series(f5, rng, 0, 8)
        b = _random_series(f5, rng, 0, 8)
        assert (a * b).residue() == a.residue() * b.residue()


def test_powers(f5):
    t = LaurentSeries.uniformizer(f5, "t", 8)
    a = LaurentSeries.one(f5, "t", 8) + t
    assert a**0 == LaurentSeries.one(f5, "t", 8)
    assert a**3 == a * a * a
    assert a**-2 == (a * a).inverse()
    assert (t**5).valuation == 5


def _unit_exponent(p, n):
    """The least power of p that is at least n."""
    period = 1
    while period < n:
        period *= p
    return period


# p = 2 and odd p, each at windows n = p^s and p^s + 1
POWER_WINDOWS = {(2, 3, 1): (2, 3, 4, 5, 8, 9), (3, 2, 1): (3, 4, 9, 10),
                 (5, 1, 1): (5, 6, 25, 26)}


def test_power_cut_to_the_unit_exponent_matches_the_binary_loop(rng):
    checked = 0
    for params, windows in POWER_WINDOWS.items():
        tower = FieldTower(*params)
        for n in windows:
            ps = _unit_exponent(tower.p, n)
            exponents = [0, 1, -1, ps - 1, ps, ps + 1, 2**10 - 1,
                         -(ps - 1), -ps, -(ps + 1), -(2**10 - 1)]
            exponents += [rng.randrange(2, 10**6) for _ in range(3)]
            exponents += [-rng.randrange(2, 10**6) for _ in range(2)]
            dense = _random_series(tower, rng, rng.randrange(-3, 4), n, 1.0)
            sparse = _random_series(tower, rng, rng.randrange(-3, 4), n, 0.2)
            # a nonzero last term keeps the sparse series off the monomials
            sparse = LaurentSeries(tower, "t", sparse.valuation,
                                   sparse.logs[:-1] + (rng.randrange(
                                       tower.order),))
            mono = _random_series(tower, rng, rng.randrange(-3, 4), n, 0.0)
            assert mono.logs.count(None) == n - 1
            for x in (dense, sparse, mono):
                for k in exponents:
                    got, want = x**k, binary_power(x, k)
                    assert (got.valuation, got.logs) == \
                        (want.valuation, want.logs), (params, n, x, k)
                    checked += 1
    assert checked == 14 * 3 * 16


# how many of those products are squarings, and how many p-th powers are
# spreads, keyed by (params, n, k)
POWER_SQUARES = {((2, 3, 1), 8, 1023): 0, ((2, 3, 1), 8, -1023): 0,
                 ((2, 3, 1), 8, 1024): 0, ((2, 3, 1), 8, 9): 0,
                 ((2, 3, 1), 8, 5): 0, ((2, 3, 1), 9, 1023): 0,
                 ((5, 1, 1), 8, 1023): 3, ((5, 1, 1), 32, 25): 0,
                 ((5, 1, 1), 32, 53): 2}
POWER_SPREADS = {((2, 3, 1), 8, 1023): 2, ((2, 3, 1), 8, -1023): 2,
                 ((2, 3, 1), 8, 1024): 0, ((2, 3, 1), 8, 9): 0,
                 ((2, 3, 1), 8, 5): 2, ((2, 3, 1), 9, 1023): 3,
                 ((5, 1, 1), 8, 1023): 1, ((5, 1, 1), 32, 25): 2,
                 ((5, 1, 1), 32, 53): 2}


@pytest.mark.parametrize("params, n, k, products", [
    # 1023 mod 8 = 7 = 111_2: the digit power is x itself, 2 spreads and
    # 2 products
    ((2, 3, 1), 8, 1023, 2),
    ((2, 3, 1), 8, -1023, 2),    # the inverse first, then the same cut
    ((2, 3, 1), 8, 1024, 0),     # a multiple of 8 leaves only c^k X^(vk)
    ((2, 3, 1), 8, 9, 0),        # 9 mod 8 = 1 = 1_2: the base itself
    # below the 1-unit exponent, no cut: 5 = 101_2, 2 spreads, 1 product
    ((2, 3, 1), 8, 5, 1),
    # n = 9 needs 16: 1023 mod 16 = 15 = 1111_2, 3 spreads, 3 products
    ((2, 3, 1), 9, 1023, 3),
    # 25 >= 8: 1023 mod 25 = 23 = 43_5. x^4 takes 2 squarings and x^3 a
    # squaring and a product; then 1 spread and 1 product
    ((5, 1, 1), 8, 1023, 5),
    # 125 >= 32: 25 = 100_5 is p^2, 2 spreads of x and no product
    ((5, 1, 1), 32, 25, 0),
    # 53 = 203_5, a zero digit: x^2 takes a squaring and x^3 a squaring
    # and a product; then 2 spreads and 1 product, none for the 0
    ((5, 1, 1), 32, 53, 4),
])
def test_power_makes_products_only_for_the_cut_exponent(params, n, k,
                                                        products, rng,
                                                        monkeypatch):
    tower = FieldTower(*params)
    x = _random_series(tower, rng, 1, n, 1.0)
    mono = _random_series(tower, rng, 1, n, 0.0)
    want = binary_power(x, k)
    mul, spread = LaurentSeries.__mul__, series._spread
    calls = []
    squares = []
    spreads = []

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    def counted_square(logs, step, *rest):
        calls.append(logs)
        squares.append(step)
        return _square(logs, step, *rest)

    def counted_spread(logs, *rest):
        spreads.append(logs)
        return spread(logs, *rest)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    monkeypatch.setattr(series, "_square", counted_square)
    monkeypatch.setattr(series, "_spread", counted_spread)
    assert x**k == want
    assert len(calls) == products
    # every squaring runs the square kernel, untwisted
    assert squares == [0] * POWER_SQUARES[params, n, k]
    # each p-th power of Horner's rule is one spread, with no kernel call
    assert len(spreads) == POWER_SPREADS[params, n, k]
    # a monomial's 1-unit part is 1: its power takes no product at all
    del calls[:], spreads[:]
    mono**k
    assert calls == [] and spreads == []


def _twisted(x, step):
    """x', the coefficient of X^j scaled by g^(step*j), term by term."""
    m = x.tower.order
    return LaurentSeries(x.tower, x.symbol, x.valuation, [
        None if L is None else (L + step * (x.valuation + j)) % m
        for j, L in enumerate(x.logs)])


def _product_cancellations(x, y, prod):
    """Coefficients of the product x * y that are zero although two or more
    nonzero terms meet there."""
    n = min(len(x.logs), len(y.logs))
    lead = prod.valuation - (x.valuation + y.valuation)
    full = [None] * lead + list(prod.logs)
    return sum(full[k] is None
               and sum(x.logs[i] is not None and y.logs[k - i] is not None
                       for i in range(k + 1)) >= 2
               for k in range(n))


# p = 2 with zeta of order 3 and 15, odd p with zeta of order 4 and 6
# (where zeta^3 = -1 gives pairs of weight 1 + zeta^(3d) = 0); F_2^9 and
# F_3^6 run the Zech loop, the others the addition table
@pytest.mark.parametrize("params", [(2, 2, 3, 3, "g"), (2, 4, 1, 15, "1"),
                                    (5, 1, 1, 4, "1"), (7, 1, 2, 6, "1"),
                                    (2, 9, 1, 7, "g"), (3, 6, 1, 4, "1")])
def test_twisted_square_matches_the_product(params, rng):
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    tower = ext.tower
    zeta = ext.inertia_generator()
    signs = sorted({tower.one().log, tower.minus_one().log})
    cancelled = {}
    for c in range(ext.e):
        h = zeta ** c          # h^0 is the identity: the step-0 square
        step = h.c_log
        cancelled[c] = 0
        for n in (1, 2, 3, 7, 8, 32):
            for v in range(-3, 4):
                dense = [rng.randrange(tower.order) if rng.random() < 0.8
                         else None for _ in range(n)]
                # +-1 terms between None holes, so that the sums cancel
                sparse = [[rng.choice(signs) if rng.random() < 0.4 else None
                           for _ in range(n)] for _ in range(3)]
                windows = [
                    LaurentSeries(tower, "alpha", v, dense),
                    *(LaurentSeries(tower, "alpha", v, w) for w in sparse),
                    LaurentSeries(tower, "alpha", v, [None] * n),  # O(X^(v+n))
                ]
                for x in windows:
                    twin, image = _twisted(x, step), h.apply(x)
                    assert (twin.valuation, twin.logs) == \
                        (image.valuation, image.logs)
                    # the twists run the kernel of the norm's inertia
                    # doublings; h^0 is the step-0 square, which ``**``
                    # runs at odd p
                    got = LaurentSeries(
                        tower, "alpha", 2 * x.valuation,
                        _square(x.logs, step, x.valuation, tower,
                                _square_plan(step, len(x.logs), tower)))
                    want = x * twin
                    assert (got.valuation, got.logs, got.precision) == \
                        (want.valuation, want.logs, want.precision), \
                        (params, c, n, v, x)
                    if x.logs:
                        cancelled[c] += _product_cancellations(x, twin, want)
    # every twist meets at least 30 cancellations at this seed
    assert min(cancelled.values()) >= 25, cancelled


@pytest.mark.parametrize("shape", [(2, 1, 1), (3, 1, 1), (2, 6, 1),
                                   (7, 2, 1), (3, 1, 2), (2, 8, 1)])
def test_both_kernel_loops_agree_below_the_bound(shape, rng):
    # the same calls through the addition table and, with _sums set to
    # None, through the Zech loop: terms of _convolve up
    # to 2 * order (the crossed product's wrapped terms), outputs that
    # start filled, squares twisted at negative valuations
    tower = FieldTower(*shape)
    order = tower.order
    assert tower._sums == ()
    cases = []
    for _ in range(60):
        n = rng.randrange(1, 17)
        density = rng.random()
        src = [rng.randrange(order) if rng.random() < density else None
               for _ in range(n)]
        terms = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        terms = [(i, rng.randrange(2 * order)) for i in terms]
        out = [rng.randrange(order) if rng.random() < density else None
               for _ in range(n)]
        step, v = rng.randrange(-order, 2 * order), rng.randrange(-9, 9)
        cases.append((terms, src, out, step, v))

    def run():
        got = []
        for terms, src, out, step, v in cases:
            got.append(_convolve(terms, src, list(out), 0, 0, len(src),
                                 tower))
            got.append(_square(src, step, v, tower,
                               _square_plan(step, len(src), tower)))
        return got

    table = run()
    assert tower._sums
    tower._sums = None
    assert run() == table


def test_no_square_is_untwisted_in_characteristic_two(matrix, monkeypatch):
    """At p = 2 ``**`` spreads its squares and the norm twists every
    doubling by a nonzero step, so the matrix suite never calls the square
    kernel at step 0 there."""
    calls = []

    def recorded(logs, step, valuation, tower, plan):
        calls.append((tower.p, step % tower.order))
        return _square(logs, step, valuation, tower, plan)

    monkeypatch.setattr(series, "_square", recorded)
    monkeypatch.setattr(reciprocity, "_square", recorded)
    for ext in matrix.values():
        assert all(r.passed for r in checks.run_checks(ext, 20, 1))
    # the suite squares at p = 2 (the norms) and at step 0 (odd-p powers)
    assert any(p == 2 for p, _ in calls) and (3, 0) in calls
    assert (2, 0) not in calls


def test_nth_root_of_degree_one_is_the_series_itself(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(LaurentSeries, "__mul__",
                        lambda self, other: calls.append(other))
    monkeypatch.setattr(series, "_square",
                        lambda logs, *rest: calls.append(logs))
    for params in [(2, 3, 1), (5, 1, 1), (7, 2, 1)]:
        tower = FieldTower(*params)
        for n in (1, 2, 8, 32):
            for v in range(-3, 4):
                x = _random_series(tower, rng, v, n, 0.6)
                root = x.nth_root(1)
                assert (root.valuation, root.logs, root.precision) == \
                    (x.valuation, x.logs, x.precision)
        # the argument checks still run first
        for zero in (LaurentSeries(tower, "t", 0, ()),
                     LaurentSeries(tower, "t", 2, [None] * 4)):
            with pytest.raises(ValueError):
                zero.nth_root(1)
    assert calls == []


def test_truncate_and_str(f5):
    a = make_series(f5, "t", -1, [1, 2, 3, 4], 8)
    b = a.truncate(2)
    assert b.precision == 2
    assert b != a            # a shorter window is another series
    assert (b - a).is_zero()  # that agrees with a on the common window
    assert "O(t^" in str(a)


# -- log-native addition, negation and the constructor --------------------

def _expected(tower, start, elems):
    """(valuation, logs) of a window of FieldElements, leading zeros dropped:
    a window of zeros is the honest zero, at the window's end."""
    lead = 0
    while lead < len(elems) and not elems[lead]:
        lead += 1
    return start + lead, tuple(c.log for c in elems[lead:])


def _window(x, start, stop):
    """x's coefficients of X^start .. X^(stop - 1), zero below its valuation."""
    zero = x.tower.zero()
    return [x.coeffs[n - x.valuation] if n >= x.valuation else zero
            for n in range(start, stop)]


def _reference_sum(a, b, sign=1):
    """Coefficientwise FieldElement a + b (a - b for sign = -1)."""
    start = min(a.valuation, b.valuation)
    stop = min(a.valuation + a.precision, b.valuation + b.precision)
    return _expected(a.tower, start,
                     [x + y if sign > 0 else x - y
                      for x, y in zip(_window(a, start, stop),
                                      _window(b, start, stop))])


def _strict(x):
    return x.valuation, x.logs


def test_sum_against_reference(kernel_towers, rng):
    # overlapping and disjoint windows, sparse to dense operands
    for tower in kernel_towers:
        for _ in range(80):
            a = _random_series(tower, rng, rng.randrange(-6, 6),
                               rng.randrange(1, 10), rng.random())
            b = _random_series(tower, rng, rng.randrange(-6, 6),
                               rng.randrange(1, 10), rng.random())
            assert _strict(a + b) == _reference_sum(a, b), tower
            assert _strict(b + a) == _reference_sum(a, b), tower
            assert _strict(a - b) == _reference_sum(a, b, -1), tower
            want_neg = _expected(tower, a.valuation, [-c for c in a.coeffs])
            assert _strict(-a) == want_neg, tower


def test_difference_takes_no_negation(kernel_towers, rng, monkeypatch):
    # a - b is one kernel pass at the log of -1: no -b is built first
    cases = []
    for tower in kernel_towers:
        for _ in range(40):
            a, b = (_random_series(tower, rng, rng.randrange(-6, 6),
                                   rng.randrange(1, 10), rng.random())
                    for _ in range(2))
            cases.append((a, b, _reference_sum(a, b, -1)))
        # a zero at a's window end: 0 - a = -a and a - 0 = a
        past = LaurentSeries(tower, "t", a.valuation + a.precision, ())
        cases.append((past, a, _strict(-a)))
        cases.append((a, past, _strict(a)))

    def refuse(self):
        raise AssertionError("a difference negated its operand")

    monkeypatch.setattr(LaurentSeries, "__neg__", refuse)
    for a, b, want in cases:
        assert _strict(a - b) == want, a.tower


def test_minus_one_log_is_the_tables_minus_one(kernel_towers):
    for tower in kernel_towers:
        assert tower.minus_one_log == tower.minus_one().log, tower
        assert (-tower.one()).log == tower.minus_one_log, tower
        if tower.p == 2:
            assert tower.minus_one_log == 0, tower


def test_sum_disjoint_windows(kernel_towers):
    for tower in kernel_towers:
        a = make_series(tower, "t", 0, [1, 1, 1], 3)
        b = make_series(tower, "t", 5, [1, 1], 2)
        # b starts past a's window: the sum is a's window unchanged
        assert _strict(a + b) == _strict(a) == _reference_sum(a, b)
        # a starts below b: b's window ends first, at X^7
        c = make_series(tower, "t", -4, [1, 0, 1], 12)
        assert _strict(c + b) == _reference_sum(c, b), tower
        assert (c + b).precision == 11, tower


def test_sum_leading_cancellation(kernel_towers, rng):
    for tower in kernel_towers:
        shifted = 0
        for _ in range(20):
            a = _random_series(tower, rng, rng.randrange(-3, 3), 8)
            # b agrees with -a on its first k terms, so a + b starts at
            # X^(v + k) or later
            k = rng.randrange(1, 8)
            tail = [tower.generator_power(rng.randrange(tower.order))
                    for _ in range(8 - k)]
            b = make_series(tower, "t", a.valuation,
                            [-c for c in a.coeffs[:k]] + tail)
            total = a + b
            assert _strict(total) == _reference_sum(a, b), tower
            assert total.valuation >= a.valuation + k, tower
            # a cancelled lead leaves the end of the window where it was
            assert total.valuation + total.precision == a.valuation + 8
            shifted += not total.is_zero()
        assert shifted, tower       # some sums keep a shifted lead


def test_sum_cancels_to_the_honest_zero(kernel_towers, rng):
    for tower in kernel_towers:
        for _ in range(10):
            a = _random_series(tower, rng, rng.randrange(-3, 3),
                               rng.randrange(1, 10), rng.random())
            end = a.valuation + a.precision
            for total in (a - a, a + (-a), (-a) + a):
                # O(X^end): nothing is known past the operands' window
                assert total.is_zero(), tower
                assert _strict(total) == (end, ()), tower
                assert total == LaurentSeries(tower, "t", 0, ()), tower


def test_constructor_strips_leading_zeros():
    tower = FieldTower(7, 1, 1)
    x = LaurentSeries(tower, "t", 3, [None, None, 4, None])
    assert x.valuation == 5
    assert x.logs == (4, None)
    assert x.coeffs == (tower.generator_power(4), tower.zero())


def test_constructor_all_none_is_the_honest_zero():
    tower = FieldTower(7, 1, 1)
    for logs in ([None], [None, None, None], ()):
        x = LaurentSeries(tower, "t", -2, logs)
        assert x.is_zero()
        assert x.valuation == -2 + len(logs)      # O(t^(v + N))
        assert x.logs == ()
        assert x == LaurentSeries(tower, "t", 5, ())


def test_constructor_stores_a_tuple():
    tower = FieldTower(7, 1, 1)
    logs = [0, None, 5]
    x = LaurentSeries(tower, "t", 0, logs)
    assert type(x.logs) is tuple and x.logs == (0, None, 5)
    logs[2] = 1                 # the caller's list is not aliased
    assert x.logs == (0, None, 5)
    y = LaurentSeries(tower, "t", 0, [None, 2, 3])
    assert type(y.logs) is tuple and y.logs == (2, 3)


def test_constructor_reproduces_logs(kernel_towers, rng):
    for tower in kernel_towers:
        for _ in range(20):
            x = _random_series(tower, rng, rng.randrange(-5, 5),
                               rng.randrange(1, 10), rng.random())
            for y in (x, -x, x.inverse(), x - x):
                again = make_series(tower, "t", y.valuation, y.coeffs)
                assert _strict(again) == _strict(y), tower


def test_equal_series_hash_equal(f5):
    a = make_series(f5, "t", 0, [1, 2, 3], 3)
    b = make_series(f5, "t", 0, [1], 1)
    assert a != b                # strict: the prefix drops two known terms
    assert len({a, b}) == 2
    assert (a - b).is_zero()     # the comparison on the common window
    c = make_series(f5, "t", 0, [1, 2, 3], 3)
    assert a == c and hash(a) == hash(c)


def test_equality_reads_valuation_and_whole_window(kernel_towers, rng):
    for tower in kernel_towers:
        for _ in range(60):
            a = _random_series(tower, rng, rng.randrange(-3, 3),
                               rng.randrange(1, 8), rng.random())
            n = len(a.logs)
            last = rng.randrange(tower.order)
            # a copy, a prefix, a longer window, a changed last term, a
            # shift and an independent draw, each nonzero
            for b in (LaurentSeries(tower, "t", a.valuation, list(a.logs)),
                      a.truncate(rng.randrange(1, n + 1)),
                      LaurentSeries(tower, "t", a.valuation,
                                    a.logs + (rng.choice((None, last)),)),
                      LaurentSeries(tower, "t", a.valuation,
                                    a.logs[:-1] + (last,)),
                      a.shift(rng.randrange(-1, 2)),
                      _random_series(tower, rng, a.valuation, n,
                                     rng.random())):
                same = (a.valuation, a.logs) == (b.valuation, b.logs)
                assert (a == b) == (b == a) == same, (tower, a, b)
                assert (a != b) != same
                if same:
                    assert hash(a) == hash(b)
                    assert len({a, b}) == 1


def _honest_zero(tower, end):
    return LaurentSeries(tower, "t", end, ())


def test_honest_zero_sum_and_difference(kernel_towers, rng):
    for tower in kernel_towers:
        for _ in range(40):
            end = rng.randrange(-4, 6)
            o = _honest_zero(tower, end)
            s = _random_series(tower, rng, rng.randrange(-6, 6),
                               rng.randrange(1, 10), rng.random())
            # the terms of s from X^end on are dropped: O(X^end) when s
            # starts there, else s's window cut at X^end
            for total, want in ((o + s, _reference_sum(o, s)),
                                (s + o, _reference_sum(o, s)),
                                (o - s, _reference_sum(o, s, -1)),
                                (s - o, _reference_sum(s, o, -1))):
                assert _strict(total) == want, tower
                assert total.valuation + total.precision == \
                    min(end, s.valuation + s.precision), tower
            if s.valuation >= end:
                assert _strict(o + s) == (end, ()), tower
            # a zero at or past the end of s is the identity of + and -,
            # and 0 - s = -s
            past = _honest_zero(tower, s.valuation + s.precision
                                + rng.randrange(3))
            assert _strict(s + past) == _strict(past + s) == _strict(s)
            assert _strict(past - s) == _strict(-s), tower
            assert _strict(s - past) == _strict(s), tower
            assert _strict(o + _honest_zero(tower, end + 3)) == (end, ())
            assert _strict(-o) == (end, ()), tower
            assert _strict(o - o) == (end, ()), tower


def test_honest_zero_product_shift_and_power(kernel_towers, rng):
    for tower in kernel_towers:
        for _ in range(40):
            end = rng.randrange(-4, 6)
            o = _honest_zero(tower, end)
            s = _random_series(tower, rng, rng.randrange(-6, 6),
                               rng.randrange(1, 10), rng.random())
            # O(X^N) * s = O(X^(N + v(s))), in either order
            assert _strict(o * s) == _strict(s * o) == \
                (end + s.valuation, ()), tower
            assert _strict(o / s) == (end - s.valuation, ()), tower
            assert _strict(o * _honest_zero(tower, 2)) == (end + 2, ())
            assert _strict(o * tower.generator()) == (end, ()), tower
            k = rng.randrange(-3, 4)
            assert _strict(o.shift(k)) == (end + k, ()), tower
            assert _strict(o ** 3) == (3 * end, ()), tower
            assert _strict(o.truncate(2)) == (end, ()), tower
            # a zero scalar keeps the window's end: s * 0 = O(X^(v + n))
            assert _strict(o * tower.zero()) == (end, ()), tower
            assert _strict(s * tower.zero()) == \
                (s.valuation + s.precision, ()), tower


def test_every_zero_equals_every_zero_and_hashes_alike(f5):
    zeros = [_honest_zero(f5, -3), _honest_zero(f5, 0), _honest_zero(f5, 7),
             make_series(f5, "t", 2, [1, 2]) - make_series(f5, "t", 2, [1, 2]),
             make_series(f5, "t", -1, [3, 4]) * f5.zero()]
    for a in zeros:
        for b in zeros:
            assert a == b
            assert hash(a) == hash(b)
    assert len(set(zeros)) == 1
    one = LaurentSeries.one(f5, "t", 4)
    assert all(z != one for z in zeros)
    assert str(_honest_zero(f5, 7)) == "O(t^7)"
