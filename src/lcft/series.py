"""Truncated Laurent series over a finite field in a named uniformizer.

A series carries an exact integer valuation and a window of retained
coefficients; ``precision`` is the number of retained terms, so the series
is known modulo X^(valuation + precision). The tame constructions in this
package only ever divide by units or exact monomials, which keeps the
window a bookkeeping device rather than an error bound.

The exact zero is a distinct value with an infinite-valuation sentinel; a
sum whose retained coefficients all cancel collapses to it.

``FieldElement`` is the public face of every coefficient, but the hot
kernels (multiply, inverse, and the Galois action in ``extension.py``) work
on raw generator logs and read the tower's ``order`` and ``_zech`` table
directly: a product of coefficients adds logs mod ``order``, a sum is one
Zech lookup, and only the finished window is wrapped back into elements.
"""

from __future__ import annotations

import math

from .ffield import FieldElement, FieldTower

INFINITE = math.inf

DEFAULT_PRECISION = 32


def _convolve_at(terms, logs, k, order, zech):
    """Log of the sum of g^(a + logs[k - i]) over (i, a) in ``terms``, i <= k.

    ``terms`` lists (index, log) of nonzero coefficients by increasing
    index; a log of None is zero. The result is None when the sum is zero,
    and is not reduced mod ``order``.
    """
    acc = None
    for i, a in terms:
        if i > k:
            break
        b = logs[k - i]
        if b is not None:
            if acc is None:
                acc = a + b
            else:
                z = zech[(a + b - acc) % order]
                acc = None if z < 0 else acc + z
    return acc


def _pad(series, precision):
    """Extend the retained window with zeros (truncation as a polynomial)."""
    missing = precision - len(series.coeffs)
    if missing <= 0 or series.is_zero():
        return series
    zero = series.tower.zero()
    return LaurentSeries(series.tower, series.symbol, series.valuation,
                         list(series.coeffs) + [zero] * missing)


class LaurentSeries:
    """c_v X^v + c_(v+1) X^(v+1) + ... + O(X^(v+N)) over a tower field.

    Immutable value: ``coeffs`` is a tuple of FieldElement of length N with
    ``coeffs[0]`` nonzero, except for the exact zero (valuation = inf,
    empty coeffs). Arithmetic requires matching tower and symbol; two
    series compare equal when they agree on their common window.
    """

    __slots__ = ("tower", "symbol", "valuation", "coeffs")

    def __init__(self, tower: FieldTower, symbol: str, valuation, coeffs):
        coeffs = list(coeffs)
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        if lead == len(coeffs):
            valuation = INFINITE
            coeffs = []
        else:
            valuation += lead
            coeffs = coeffs[lead:]
        self.tower = tower
        self.symbol = symbol
        self.valuation = valuation
        self.coeffs = tuple(coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_logs(cls, tower, symbol, valuation, logs):
        """Series from generator logs (None for zero), reduced mod order."""
        m = tower.order
        return cls(tower, symbol, valuation,
                   [FieldElement(tower, None if L is None else L % m)
                    for L in logs])

    @classmethod
    def zero(cls, tower, symbol):
        return cls(tower, symbol, INFINITE, [])

    @classmethod
    def constant(cls, tower, symbol, value, precision=DEFAULT_PRECISION):
        if isinstance(value, int):
            value = tower.from_int(value)
        if not value:
            return cls.zero(tower, symbol)
        return cls(tower, symbol, 0,
                   [value] + [tower.zero()] * (precision - 1))

    @classmethod
    def one(cls, tower, symbol, precision=DEFAULT_PRECISION):
        return cls.constant(tower, symbol, tower.one(), precision)

    @classmethod
    def uniformizer(cls, tower, symbol, precision=DEFAULT_PRECISION):
        return cls.monomial(tower, symbol, tower.one(), 1, precision)

    @classmethod
    def monomial(cls, tower, symbol, value, exponent,
                 precision=DEFAULT_PRECISION):
        if isinstance(value, int):
            value = tower.from_int(value)
        if not value:
            return cls.zero(tower, symbol)
        return cls(tower, symbol, exponent,
                   [value] + [tower.zero()] * (precision - 1))

    @classmethod
    def from_coeffs(cls, tower, symbol, valuation, coeffs,
                    precision=DEFAULT_PRECISION):
        """Series from explicit coefficients, padded with zeros to precision."""
        coeffs = [tower.from_int(c) if isinstance(c, int) else c
                  for c in coeffs]
        if len(coeffs) < precision:
            coeffs += [tower.zero()] * (precision - len(coeffs))
        return cls(tower, symbol, valuation, coeffs)

    # -- basic views -------------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("the zero series has no leading coefficient")
        return self.coeffs[0]

    def coefficient(self, exponent: int) -> FieldElement:
        """Coefficient of X^exponent (must lie inside the known window)."""
        if self.is_zero():
            return self.tower.zero()
        idx = exponent - self.valuation
        if idx < 0:
            return self.tower.zero()
        if idx >= len(self.coeffs):
            raise ValueError(f"X^{exponent} is beyond the retained window")
        return self.coeffs[idx]

    def residue(self) -> FieldElement:
        """Residue class mod the uniformizer; defined for units only."""
        if self.is_zero() or self.valuation != 0:
            raise ValueError("residue requires a unit (valuation 0)")
        return self.coeffs[0]

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*{self.symbol}^{self.valuation + j}")
        parts.append(f"O({self.symbol}^{self.valuation + len(self.coeffs)})")
        return " + ".join(parts)

    __repr__ = __str__

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.tower is not other.tower or self.symbol != other.symbol:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.valuation != other.valuation:
            return False
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n] == other.coeffs[:n]

    def __hash__(self):
        return hash((id(self.tower), self.symbol, self.valuation, self.coeffs))

    def _check_compatible(self, other):
        if not isinstance(other, LaurentSeries):
            raise TypeError("expected a LaurentSeries")
        if self.tower is not other.tower:
            raise ValueError("series over different coefficient fields")
        if self.symbol != other.symbol:
            raise ValueError(
                f"uniformizer mismatch: {self.symbol!r} vs {other.symbol!r}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        start = min(self.valuation, other.valuation)
        stop = min(self.valuation + len(self.coeffs),
                   other.valuation + len(other.coeffs))
        zero = self.tower.zero()
        out = []
        for n in range(start, stop):
            a = self.coeffs[n - self.valuation] \
                if 0 <= n - self.valuation < len(self.coeffs) else zero
            b = other.coeffs[n - other.valuation] \
                if 0 <= n - other.valuation < len(other.coeffs) else zero
            out.append(a + b)
        return LaurentSeries(self.tower, self.symbol, start, out)

    def __neg__(self):
        return LaurentSeries(self.tower, self.symbol, self.valuation,
                             [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = LaurentSeries.constant(
                self.tower, self.symbol, other,
                max(len(self.coeffs), 1))
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self.tower, self.symbol)
        tower = self.tower
        n = min(len(self.coeffs), len(other.coeffs))
        terms = [(i, c.log) for i, c in enumerate(self.coeffs[:n])
                 if c.log is not None]
        logs = [c.log for c in other.coeffs[:n]]
        return LaurentSeries._from_logs(
            tower, self.symbol, self.valuation + other.valuation,
            [_convolve_at(terms, logs, k, tower.order, tower._zech)
             for k in range(n)])

    __rmul__ = __mul__

    def inverse(self) -> "LaurentSeries":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        tower = self.tower
        m = tower.order
        lead = self.coeffs[0].log
        # out[j] = -(c_1 out[j-1] + ... + c_j out[0]) / c_0; negation adds
        # m/2 to a log in odd characteristic and is the identity for p = 2
        neg_lead_inv = -lead + (0 if tower.p == 2 else m // 2)
        terms = [(k, c.log) for k, c in enumerate(self.coeffs)
                 if k and c.log is not None]
        out = [-lead % m]
        for j in range(1, len(self.coeffs)):
            acc = _convolve_at(terms, out, j, m, tower._zech)
            out.append(None if acc is None else (acc + neg_lead_inv) % m)
        return LaurentSeries._from_logs(tower, self.symbol, -self.valuation,
                                        out)

    def __truediv__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = LaurentSeries.constant(
                self.tower, self.symbol, other, max(len(self.coeffs), 1))
        self._check_compatible(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero series")
        return self * other.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("series powers must be integers")
        if self.is_zero():
            if k <= 0:
                raise ZeroDivisionError("nonpositive power of the zero series")
            return self
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = LaurentSeries.one(self.tower, self.symbol, len(self.coeffs))
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by X^n (exact)."""
        if self.is_zero():
            return self
        return LaurentSeries(self.tower, self.symbol,
                             self.valuation + n, self.coeffs)

    def truncate(self, precision: int) -> "LaurentSeries":
        """Shrink the retained window to at most ``precision`` terms."""
        if precision < 1:
            raise ValueError("precision must be positive")
        if self.is_zero() or len(self.coeffs) <= precision:
            return self
        return LaurentSeries(self.tower, self.symbol, self.valuation,
                             self.coeffs[:precision])

    def split_unit(self):
        """Write a unit u as (u0, u1) with u0 constant and u1 = 1 mod X.

        u0 is the leading coefficient (the constant representative of the
        residue class) and u1 = u / u0.
        """
        if self.is_zero() or self.valuation != 0:
            raise ValueError("split_unit requires a unit (valuation 0)")
        u0 = self.coeffs[0]
        return u0, self * u0.inverse()

    def nth_root(self, e: int) -> "LaurentSeries":
        """An e-th root with the deterministic leading-coefficient choice.

        Requires gcd(e, p) = 1 (wild degrees rejected), e | valuation, and
        the leading coefficient an e-th power. Among the e valid lifts the
        one whose leading coefficient has the smallest generator exponent
        is returned; the unit part is lifted by Newton iteration from its
        residue, which is exact on the retained window.
        """
        if e < 1:
            raise ValueError("root degree must be positive")
        if math.gcd(e, self.tower.p) != 1:
            raise ValueError(
                "root degree divisible by the residue characteristic "
                "(wildly ramified case is not supported)")
        if self.is_zero():
            raise ValueError("cannot extract a root of the zero series")
        if self.valuation % e != 0:
            raise ValueError("valuation is not divisible by the root degree")
        lead_roots = self.coeffs[0].nth_roots(e)
        if not lead_roots:
            raise ValueError(
                "leading coefficient is not an e-th power in the field")
        root_lead = lead_roots[0]
        # 1-unit part: w / (lc * X^v), then Newton for x^e = w1 from x = 1,
        # doubling the working window each step
        unit_part = LaurentSeries(
            self.tower, self.symbol, 0,
            [c * self.coeffs[0].inverse() for c in self.coeffs])
        n = len(self.coeffs)
        e_const = self.tower.from_int(e)
        if not e_const:
            raise ValueError("root degree vanishes in the field")
        x = LaurentSeries(self.tower, self.symbol, 0, [self.tower.one()])
        window = 1
        while window < n:
            window = min(2 * window, n)
            x = _pad(x, window)
            fx = x**e - unit_part.truncate(window)
            if not fx.is_zero():
                x = x - fx / (e_const * x ** (e - 1))
                x = _pad(x, window)
        assert (x**e - unit_part).is_zero(), "Newton lift failed to converge"
        return (x * root_lead).shift(self.valuation // e)
