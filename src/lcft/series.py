"""Truncated Laurent series over a finite field in a named uniformizer.

A series carries an exact integer valuation and a window of retained
coefficients; ``precision`` is the number of retained terms, so the series
is known modulo X^(valuation + precision). The tame constructions in this
package only ever divide by units or exact monomials, which keeps the
window a bookkeeping device rather than an error bound.

Powers and roots rest on two facts of characteristic p. The p-th power
is a spread, (sum of a_i X^i)^p = sum of a_i^p X^(ip), exact on the
window (``_spread``). And the 1-units of an n-term window form a group of
exponent p^s, the least power of p with p^s >= n (``_unit_exponent``).
``**`` cuts its exponent mod p^s and runs Horner's rule on its base-p
digits, so each p-th power is a spread and only the digit powers make
products. Since a tame root degree e is prime to p, ``nth_root`` takes
the e-th root of a 1-unit w1 as one inverse and one power,
(w1^(-1))^(-e^(-1) mod p^s), with no iteration.

Every series is known only modulo X^end, and so is every zero: a
window whose coefficients all cancel is the honest zero O(X^end). It
keeps the end of the window as its valuation and retains no terms, so
the terms past that end stay unknown; there is no exact zero. Every zero
is ``is_zero()`` and equals every other zero. Two nonzero series are
equal only on the same valuation and the same whole window, so a
truncation is a different series; ``(a - b).is_zero()`` is the
comparison on the common window.

The window is stored as generator logs: ``logs`` holds ints reduced mod
the tower's ``order``, with None for a zero coefficient. Every operation
here, ``embed``/``project`` and the Galois action in ``extension.py`` read
and write those logs directly: a product of coefficients adds logs, a sum
is one table lookup, and a negation adds the tower's ``minus_one_log``
(order/2 for odd p, 0 for p = 2). Every sum here runs in one of two
kernels: ``_convolve`` for two different
windows, and ``_square`` for x * x', where x' scales the coefficient of
X^j by g^(step*j). A sum a + g^s * b is ``_convolve`` of b with the
one-term window of g^s into a's copy of the window, with s = 0 for ``+``
and s = log(-1) for ``-``. The second kernel runs with step = 0 in the
squarings that build the digit powers of ``**`` (odd p only), and
straight on the log windows of ``reciprocity.norm`` in each doubling step
of its inertia stages, whose Galois image x' is such a scale. One loop
visits each pair of terms once, the middle term of an even slot being
the pair at distance 0, so it makes about half the steps; step 0 is
no special case. The p-th powers of ``**`` make no kernel steps at
all: ``_spread`` moves each log, and neither does a product one of whose
factors has a single nonzero term on the common window, which scales the
other window by that term's log, as ``**`` treats a monomial.

A kernel step adds one term g^c, c a sum of two or three logs, to a
slot's accumulator. On a tower of at most ``ffield.SUMS_MAX_SIZE``
elements it is one read of the tower's addition table,
``acc = sums[acc][c]``, whose row ``order`` is the zero accumulator and
whose value ``order`` is zero; there is no subtraction, ``% order`` or
branch on zero in the step, and the window keeps None for zero. Above
that bound, where the table would grow as |l|^2, a step reads the Zech
table ``_zech``: acc + zech[(c - acc) % order], with None as the zero
accumulator. The table is built on the first kernel call, so a tower
that no kernel reads costs nothing more to set up.

The one constructor, ``LaurentSeries(tower, symbol, valuation, logs)``,
takes such a window; ``one``, ``uniformizer``, ``monomial`` and
``constant`` are shorthands for it. ``FieldElement`` stays the public
type of a coefficient: ``coeffs`` is the window as elements, and the
other coefficient views also build elements on demand.
"""

from __future__ import annotations

import math

from .ffield import FieldElement, FieldTower

DEFAULT_PRECISION = 32


def _convolve(terms, src, out, offset, start, stop, tower):
    """Add into ``out[offset + k]``, for k in [start, stop), the sum of

        g^(a + src[k - i]) over (i, a) in ``terms`` with i <= k,

    on generator logs: each slot of ``out`` holds a log reduced mod the
    tower's ``order`` or None for zero, and afterwards holds the log of
    its old value plus that sum (None when they cancel). ``terms`` lists (index,
    log) of nonzero coefficients by increasing index; a log of None in
    ``src`` is zero. ``src`` may be ``out`` itself, as long as every index
    read is already filled (the inverse's recurrence). This is one of the
    two kernels, for two different windows: ``+`` and ``-`` (with one
    term, the monomial g^s), ``*`` on two series of two or more terms each
    on the common window (walking the factor with more zeros),
    ``inverse``, the norm's Frobenius stage and its
    y * h(P_c) steps (``reciprocity.norm``, on each stage's log window)
    and the crossed-product slots of ``brauer`` run it. The other,
    ``_square``, takes a window times itself or times its own inertia
    image (the squarings of ``**`` and the doublings of the norm's
    inertia stages).

    Both read the tower's tables once a call. On a tower with an addition
    table ``_sums`` (at most ``ffield.SUMS_MAX_SIZE`` elements) a step is
    one lookup, ``acc = sums[acc][a + b]``, with the accumulator held as a
    log or ``order`` for zero; each log of ``terms`` must then lie in
    [0, 2 * order). Above that bound a step is a Zech lookup,
    log(g^acc + g^(a+b)) = acc + zech[(a + b - acc) % order].
    """
    sums = tower._sums
    if sums is not None:
        if not sums:
            sums = tower._addition_table()
        zero = tower.order
        for k in range(start, stop):
            pos = offset + k
            acc = out[pos]
            if acc is None:
                acc = zero
            for i, a in terms:
                if i > k:
                    break
                b = src[k - i]
                if b is not None:
                    acc = sums[acc][a + b]
            out[pos] = None if acc == zero else acc
        return out
    order, zech = tower.order, tower._zech
    for k in range(start, stop):
        pos = offset + k
        acc = out[pos]
        for i, a in terms:
            if i > k:
                break
            b = src[k - i]
            if b is not None:
                if acc is None:
                    acc = a + b
                else:
                    z = zech[(a + b - acc) % order]
                    acc = None if z < 0 else acc + z
        out[pos] = None if acc is None else acc % order
    return out


def _square(logs, step, valuation, tower, plan):
    """The window of x * x', where x = sum of a_j X^(v+j) and x' scales
    the coefficient of X^(v+j) by g^(step*(v+j)):

        out[k] = sum of g^(a_i + a_j + step*(v+j)) over i + j = k,

    on generator logs, for ``logs`` = (a_0, ..., a_(n-1)) with None for
    zero and v = ``valuation``; ``out`` has n slots, None where a sum is
    zero. The twist is by the exponent v + j, as in the Galois image
    (``extension.twist_logs``), so the caller adds only 2v to the
    valuation. One loop visits each pair i <= j once. For i < j the pairs
    (i, j) and (j, i) fold into one term,
    g^(a_i + a_j + step*(v+i)) * (1 + g^(step*(j - i))), whose weight
    log(1 + g^(step*(j - i))) is one Zech lookup per distance (a negative
    entry is a weight of zero, and the pair drops out). The middle term
    of an even slot is the pair (k/2, k/2) at distance 0, met once with
    weight log 1 = 0: g^(2a_(k/2) + step*(v+k/2)). So a square makes about
    half the steps of ``_convolve`` on the same window. Slot k meets only
    distances of k's parity and has a middle term only when k is even, so
    where every odd distance weighs zero, as under a twist by -1 (the
    norm's stages of degree 2), the odd slots are empty and are skipped.
    Step 0 needs no code of its own: every weight past distance 0 is
    log 2, read once per pair; in characteristic 2, where 2 = 0, those
    weights are all zero and only the middle terms stay (the odd slots
    are skipped). The squarings of ``LaurentSeries.__pow__`` run it
    at step 0, for odd p only: every p-th power there, the square at
    p = 2 included, is a ``_spread``. Each doubling of an inertia stage
    of ``reciprocity.norm`` runs it on that stage's window in X = alpha^d
    at step d * log c, the log of a p-th root of unity, which is never 0.
    The weights and the slot range depend only on the step and n, and
    ``plan`` is that pair, built by ``_square_plan``: the norm keeps one
    per extension, inertia step and window length
    (``reciprocity._square_weights``), and the squarings of ``**`` build
    theirs each call. A step is one lookup in the addition table,
    ``acc = sums[acc][a + b + w]``, on a tower that has one, and a Zech
    lookup above ``ffield.SUMS_MAX_SIZE``, as in ``_convolve``.
    """
    order = tower.order
    n = len(logs)
    out = [None] * n
    step %= order
    # the lower index i of a pair (i, k - i) has 2i <= k < n: twist it
    terms = [(i, (a + step * (valuation + i)) % order)
             for i, a in enumerate(logs[:(n + 1) // 2]) if a is not None]
    weights, slots = plan
    sums = tower._sums
    if sums is not None:
        if not sums:
            sums = tower._addition_table()
        for k in slots:
            acc = order
            for i, a in terms:
                j = k - i
                if j < i:
                    break
                b = logs[j]
                if b is not None:
                    w = weights[j - i]
                    if w >= 0:
                        acc = sums[acc][a + b + w]
            if acc != order:
                out[k] = acc
        return out
    zech = tower._zech
    for k in slots:
        acc = None
        for i, a in terms:
            j = k - i
            if j < i:
                break
            b = logs[j]
            if b is not None:
                w = weights[j - i]
                if w >= 0:
                    if acc is None:
                        acc = a + b + w
                    else:
                        z = zech[(a + b + w - acc) % order]
                        acc = None if z < 0 else acc + z
        if acc is not None:
            out[k] = acc % order
    return out


def _square_plan(step, n, tower):
    """The pair (weights, slots) of ``_square`` at this step on n slots:
    the Zech weight log(1 + g^(step*d)) of each distance d < n (0 at
    d = 0), and the slots the loop visits, only the even ones when every
    odd distance weighs zero. It reads only the step, n and the tower, so
    ``reciprocity.norm`` builds it once per extension, inertia step and
    window length (``reciprocity._square_weights``)."""
    order, zech = tower.order, tower._zech
    weights = [0] + [zech[step * d % order] for d in range(1, n)]
    if all(w < 0 for w in weights[1::2]):
        return weights, range(0, n, 2)
    return weights, range(n)


def _spread(logs, p, order):
    """The window of x^p for x = sum of a_i X^(v+i), which starts at
    X^(pv): in characteristic p, x^p = sum of a_i^p X^(p(v+i)), so the log
    a_i moves to index p*i as p*a_i, exact on the window. The n slots
    keep n terms, those at i < n/p. No coefficient meets another, so it
    makes no kernel step."""
    n = len(logs)
    out = [None] * n
    out[::p] = [None if a is None else a * p % order
                for a in logs[:-(-n // p)]]
    return out


def _square_and_multiply(x, d):
    """x^d for d >= 1 over the bits of d, each squaring one ``_square`` at
    step 0: the digit powers of ``LaurentSeries.__pow__``."""
    result = None
    while True:
        if d & 1:
            result = x if result is None else result * x
        d >>= 1
        if not d:
            return result
        x = LaurentSeries(x.tower, x.symbol, 2 * x.valuation,
                          _square(x.logs, 0, x.valuation, x.tower,
                                  _square_plan(0, len(x.logs), x.tower)))


def _unit_exponent(p, n):
    """The least power p^s of p with p^s >= n: the exponent of the group
    of 1-units on an n-term window (see ``LaurentSeries.__pow__``)."""
    period = 1
    while period < n:
        period *= p
    return period


class LaurentSeries:
    """c_v X^v + c_(v+1) X^(v+1) + ... + O(X^(v+N)) over a tower field.

    Immutable value, built from generator logs (None for a zero
    coefficient) of X^valuation onwards. Each log must already be reduced
    into [0, order) for the tower's ``order``: the constructor does not
    check this, since it runs on every series operation, and an unreduced
    log breaks ``==``, ``hash`` and ``coeffs``. The constructor drops
    leading Nones, raising the valuation to match, so the stored ``logs``
    is a tuple with ``logs[0]`` not None, or empty. An all-None window of
    N terms from X^v is the honest zero O(X^(v+N)): valuation v + N and
    no logs, so ``valuation + precision`` is the end of every window and
    every valuation is an int. ``coeffs`` is the FieldElement view of the
    same window.

    Arithmetic requires matching tower and symbol and keeps the honest
    end: a sum keeps the common window of its operands, so
    O(X^N) + s drops the terms of s from X^N on, and
    O(X^N) * s = O(X^(N + v(s))). Two nonzero series compare equal when
    they share the valuation and the whole ``logs`` tuple, and ``hash``
    reads the same key; every zero equals every zero and no nonzero
    series. ``(a - b).is_zero()`` is the comparison on the common window
    that also lets O(X^N) agree with a series of valuation at least N.
    """

    __slots__ = ("tower", "symbol", "valuation", "logs")

    def __init__(self, tower: FieldTower, symbol: str, valuation, logs):
        lead = 0
        while lead < len(logs) and logs[lead] is None:
            lead += 1
        self.tower = tower
        self.symbol = symbol
        # an all-None window keeps its end: O(X^(valuation + len(logs)))
        self.valuation = valuation + lead
        self.logs = tuple(logs[lead:]) if lead else tuple(logs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, tower, symbol, value, precision):
        return cls.monomial(tower, symbol, value, 0, precision)

    @classmethod
    def one(cls, tower, symbol, precision):
        return cls(tower, symbol, 0, (0,) + (None,) * (precision - 1))

    @classmethod
    def uniformizer(cls, tower, symbol, precision):
        return cls(tower, symbol, 1, (0,) + (None,) * (precision - 1))

    @classmethod
    def monomial(cls, tower, symbol, value, exponent, precision):
        if not isinstance(value, FieldElement):
            raise TypeError("a monomial's coefficient is a FieldElement")
        if value.tower is not tower:
            raise ValueError("coefficient belongs to a different tower")
        return cls(tower, symbol, exponent,
                   (value.log,) + (None,) * (precision - 1))

    # -- basic views -------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The retained window as FieldElements (built on each access)."""
        return tuple(FieldElement(self.tower, L) for L in self.logs)

    @property
    def precision(self) -> int:
        return len(self.logs)

    def is_zero(self) -> bool:
        return not self.logs

    @property
    def leading_coefficient(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("the zero series has no leading coefficient")
        return FieldElement(self.tower, self.logs[0])

    def residue(self) -> FieldElement:
        """Residue class mod the uniformizer; defined for units only."""
        if self.is_zero() or self.valuation != 0:
            raise ValueError("residue requires a unit (valuation 0)")
        return FieldElement(self.tower, self.logs[0])

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*{self.symbol}^{self.valuation + j}")
        parts.append(f"O({self.symbol}^{self.valuation + len(self.logs)})")
        return " + ".join(parts)

    __repr__ = __str__

    def _key(self):
        # every zero O(X^N) is one value, whatever its N
        return (id(self.tower), self.symbol,
                self.valuation if self.logs else None, self.logs)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _check_compatible(self, other):
        if not isinstance(other, LaurentSeries):
            raise TypeError("expected a LaurentSeries")
        if self.tower is not other.tower:
            raise ValueError("series over different coefficient fields")
        if self.symbol != other.symbol:
            raise ValueError(
                f"uniformizer mismatch: {self.symbol!r} vs {other.symbol!r}")

    def _scaled(self, shift):
        """Every coefficient multiplied by g^shift."""
        m = self.tower.order
        return LaurentSeries(
            self.tower, self.symbol, self.valuation,
            [None if L is None else (L + shift) % m for L in self.logs])

    # -- arithmetic --------------------------------------------------------

    def _plus_scaled(self, other, shift):
        """self + g^shift * other on the common window (``+`` at shift 0,
        ``-`` at the log of -1): ``_convolve`` of other with the one-term
        window (0, shift) of g^shift, into self's copy of the window."""
        self._check_compatible(other)
        va, vb = self.valuation, other.valuation
        a = self.logs
        start = min(va, vb)
        stop = min(va + len(a), vb + len(other.logs))
        out = [None] * (stop - start)
        if stop > va:
            out[va - start:] = a[:stop - va]
        tower = self.tower
        return LaurentSeries(
            tower, self.symbol, start,
            _convolve(((0, shift),), other.logs, out, vb - start, 0,
                      stop - vb, tower))

    def __add__(self, other):
        return self._plus_scaled(other, 0)

    def __sub__(self, other):
        return self._plus_scaled(other, self.tower.minus_one_log)

    def __neg__(self):
        return self._scaled(self.tower.minus_one_log)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.tower is not self.tower:
                raise ValueError("scalar belongs to a different tower")
            if other.log is None:
                # the honest zero over the window: O(X^(v + n))
                return LaurentSeries(self.tower, self.symbol,
                                     self.valuation + len(self.logs), ())
            return self._scaled(other.log)
        self._check_compatible(other)
        tower = self.tower
        a, b = self.logs, other.logs
        n = min(len(a), len(b))
        # a field sum does not depend on its order, so the kernel walks
        # the terms of the factor with more zeros: a step per nonzero term
        zeros, b_zeros = a[:n].count(None), b[:n].count(None)
        if b_zeros > zeros:
            a, b, zeros = b, a, b_zeros
        if zeros == n - 1:
            # one term on the window, the lead a[0]: the product is the
            # other window scaled by it, with no kernel step
            order, lead = tower.order, a[0]
            return LaurentSeries(
                tower, self.symbol, self.valuation + other.valuation,
                [None if x is None else (x + lead) % order for x in b[:n]])
        terms = [(i, x) for i, x in enumerate(a[:n]) if x is not None]
        return LaurentSeries(
            tower, self.symbol, self.valuation + other.valuation,
            _convolve(terms, b, [None] * n, 0, 0, n, tower))

    def inverse(self) -> "LaurentSeries":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        tower = self.tower
        m = tower.order
        lead = self.logs[0]
        # out[j] = -(c_1 out[j-1] + ... + c_j out[0]) / c_0
        neg_lead_inv = tower.minus_one_log - lead
        terms = [(k, (a + neg_lead_inv) % m) for k, a in enumerate(self.logs)
                 if k and a is not None]
        out = [-lead % m] + [None] * (len(self.logs) - 1)
        return LaurentSeries(
            tower, self.symbol, -self.valuation,
            _convolve(terms, out, out, 0, 1, len(self.logs), tower))

    def __truediv__(self, other):
        self._check_compatible(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero series")
        return self * other.inverse()

    def __pow__(self, k: int):
        """The k-th power on the window, with k cut to the 1-unit exponent.

        Write the base as c * X^v * (1 + y) with v(y) >= 1, keeping n
        terms, and let p^s be the least power of p with p^s >= n. In
        characteristic p, (1 + y)^(p^s) = 1 + y^(p^s), which is 1 modulo
        X^n: the 1-units of an n-term window form a group of exponent
        p^s. So the power is c^k * X^(vk) * (1 + y)^(k mod p^s), exact on
        the window and equal term for term to the product of k copies of
        the base; a monomial (y = 0) needs no product at all. Negative k
        inverts the base first.

        The cut exponent r runs Horner's rule on its base-p digits, the
        most significant first: acc <- acc^p * x^d. Each acc^p is a
        ``_spread``, exact and free of kernel steps, and each distinct
        nonzero digit power x^d is built once by ``_square_and_multiply``.
        At p = 2 the only digit power is x itself, so this is the binary
        method with free squarings; when p >= n, r is one digit, whose
        power is square-and-multiply on r.
        """
        if not isinstance(k, int):
            raise TypeError("series powers must be integers")
        if self.is_zero():
            if k <= 0:
                raise ZeroDivisionError("nonpositive power of the zero series")
            # O(X^N)^k = O(X^(kN))
            return LaurentSeries(self.tower, self.symbol, self.valuation * k,
                                 ())
        tower = self.tower
        n = len(self.logs)
        if k == 0:
            return LaurentSeries.one(tower, self.symbol, n)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        lead, v = base.logs[0], base.valuation
        p = tower.p
        period = 1
        if base.logs.count(None) < n - 1:
            period = _unit_exponent(p, n)
        r = k % period
        cut = k - r
        if not r:
            return LaurentSeries(tower, self.symbol, v * k,
                                 (lead * k % tower.order,) + (None,) * (n - 1))
        digits = []
        while r:
            r, d = divmod(r, p)
            digits.append(d)
        powers = {}
        result = None
        for d in reversed(digits):
            if result is not None:
                result = LaurentSeries(tower, self.symbol,
                                       p * result.valuation,
                                       _spread(result.logs, p, tower.order))
            if d:
                if d not in powers:
                    powers[d] = _square_and_multiply(base, d)
                result = powers[d] if result is None else result * powers[d]
        if not cut:
            return result
        return result._scaled(lead * cut).shift(v * cut)

    # -- structure ---------------------------------------------------------

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by X^n (exact; O(X^N) becomes O(X^(N + n)))."""
        return LaurentSeries(self.tower, self.symbol, self.valuation + n,
                             self.logs)

    def truncate(self, precision: int) -> "LaurentSeries":
        """Shrink the retained window to at most ``precision`` terms."""
        if precision < 1:
            raise ValueError("precision must be positive")
        if self.is_zero() or len(self.logs) <= precision:
            return self
        return LaurentSeries(self.tower, self.symbol, self.valuation,
                             self.logs[:precision])

    def nth_root(self, e: int) -> "LaurentSeries":
        """An e-th root with the deterministic leading-coefficient choice.

        Requires gcd(e, p) = 1 (wild degrees rejected), e | valuation, and
        the leading coefficient an e-th power. Among the e valid lifts the
        one whose leading coefficient has the smallest generator exponent
        is returned. The 1-unit part w1 has a unique e-th root on the
        window: the 1-units of n terms form a group of exponent p^s (see
        ``__pow__``), and p^s is prime to e, so the root is the power
        w1^(e^(-1) mod p^s). It is taken as (w1^(-1))^(-e^(-1) mod p^s),
        one inverse and one power, since that exponent has few distinct
        base-p digits: tameness gives e | p^o - 1 for some o, and then
        -1/e = c(1 + p^o + p^(2o) + ...) in the p-adic integers, with
        c = (p^o - 1)/e, so its digits repeat c's o digits and ``**``
        builds at most o digit powers. Both routes are exact on the
        window: the inverse of the unique e-th root of w1 is the unique
        e-th root of w1^(-1), so they give the same window term for term.
        For e = 1 the root is the series itself, returned with no product.
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
        if e == 1:
            # the lead is its own root and the unit part needs no lift
            return self
        lead_roots = self.leading_coefficient.nth_roots(e)
        if not lead_roots:
            raise ValueError(
                "leading coefficient is not an e-th power in the field")
        # 1-unit part: w / (lc * X^v)
        unit_part = self._scaled(-self.logs[0]).shift(-self.valuation)
        period = _unit_exponent(self.tower.p, len(self.logs))
        x = unit_part.inverse() ** (-pow(e, -1, period) % period)
        return (x * lead_roots[0]).shift(self.valuation // e)
