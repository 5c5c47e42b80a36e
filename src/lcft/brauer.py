"""Characters, Hasse invariants and cyclic algebra verification.

The Hasse invariant of the cyclic algebra attached to a character chi and
a base-field class b is defined through the reciprocity map as
chi(theta(b)); its claimed properties (bilinearity, the valuation formula
on unramified extensions, vanishing exactly on norms) are verified
against the independent machinery of the reciprocity module, and the
defining relations of the algebra itself are checked on an explicit
crossed-product model.

The Galois group has the presentation <sigma, zeta | zeta^e, sigma^f =
zeta^s>, with sigma the residue-Frobenius lift, zeta the inertia
generator and s their relation exponent. A character is therefore the
pair (chi(sigma), chi(zeta)) and is evaluated in closed form, so
non-cyclic abelian groups are handled the same way as cyclic ones.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .extension import (BASE_SYMBOL, EXT_SYMBOL, GaloisElement,
                        TameAbelianExtension, per_extension, twist_logs)
from .reciprocity import (BaseFieldClass, norm, random_base_unit_series,
                          random_logs, reciprocity_map, random_unit_series)
from .series import LaurentSeries, _convolve


_BROKEN_RELATIONS = "(x, y) breaks e*y = 0 or f*x = s*y mod 1"

# The crossed product's alpha-window: its relations hold term by term on any
# window, so a longer one only checks the same identities at more cost.
ALGEBRA_PRECISION = 8


class Character:
    """A homomorphism from the Galois group to Q/Z.

    Given by x = chi(sigma) and y = chi(zeta) mod 1, which must satisfy
    the group relations e*y = 0 and f*x = s*y in Q/Z. The relations put x
    and y in (1/n)Z for n = e*f, so a character is built from the integer
    numerators ``Character(ext, xn, yn)``, x = xn/n and y = yn/n, kept
    mod n; the relations e*yn = 0 and f*xn = s*yn mod n are checked on
    them. ``chi(g)`` is the one read of a value. Its tables, the scale
    of each sigma^a and the n values i/n, are built once per extension,
    in its memo (``_character_tables``), and shared by all its
    characters.
    """

    def __init__(self, ext: TameAbelianExtension, xn: int, yn: int):
        n = ext.degree
        # index, not int: a Fraction numerator is refused, never truncated
        xn, yn = operator.index(xn) % n, operator.index(yn) % n
        s = ext.frobenius_relation_exponent()
        if ext.e * yn % n or (ext.f * xn - s * yn) % n:
            raise ValueError(_BROKEN_RELATIONS)
        self.ext = ext
        self._xn, self._yn = xn, yn
        self._sigma_scales, self._values = _character_tables(ext)

    def __call__(self, g: GaloisElement) -> Fraction:
        """a*x + j*y for g = sigma^a zeta^j, with j read off g's scale log:
        sigma^a scales alpha by c(sigma)^((q^a - 1)/(q - 1)), read from
        the extension's table, and zeta^j by the root of unity of log
        j*|l*|/e. The value is the table's Fraction i/n, not a new one.
        """
        if g.ext is not self.ext:
            raise ValueError("element of a different extension")
        ext = self.ext
        m = ext.tower.order
        j = (g.c_log - self._sigma_scales[g.a]) % m // (m // ext.e)
        return self._values[(g.a * self._xn + j * self._yn) % ext.degree]

    def __add__(self, other: "Character") -> "Character":
        if other.ext is not self.ext:
            raise ValueError("characters of different extensions")
        return Character(self.ext, self._xn + other._xn, self._yn + other._yn)

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return (self.ext is other.ext
                and (self._xn, self._yn) == (other._xn, other._yn))

    def __hash__(self):
        return hash((id(self.ext), self._xn, self._yn))

    def is_faithful(self) -> bool:
        # the image of a character is cyclic of order order()
        return self.order() == self.ext.degree

    def order(self) -> int:
        n = self.ext.degree
        return math.lcm(n // math.gcd(self._xn, n), n // math.gcd(self._yn, n))


@per_extension
def _character_tables(ext: TameAbelianExtension) -> tuple:
    """The tables of ``Character.__call__`` on one extension, built once
    per extension: for each a < f, the log of
    c(sigma)^((q^a - 1)/(q - 1)) mod |l*|, the alpha-scale of sigma^a;
    and the n = e*f values i/n for i < n, as Fractions."""
    q, m, n = ext.q, ext.tower.order, ext.degree
    sigma_log = ext.residue_frobenius_lift().c_log
    return (tuple(sigma_log * ((q**a - 1) // (q - 1)) % m
                  for a in range(ext.f)),
            tuple(Fraction(i, n) for i in range(n)))


def character_group(ext: TameAbelianExtension) -> list:
    """All e*f characters of the Galois group, in a deterministic order.

    The pairs are y = j/e and x = (s*y + m)/f for j < e and m < f: every
    solution of e*y = 0 and f*x = s*y in Q/Z, each once. Over n = e*f
    their numerators are y*n = j*f and x*n = s*j + m*e.
    """
    s = ext.frobenius_relation_exponent()
    return [Character(ext, s * j + m * ext.e, j * ext.f)
            for j in range(ext.e) for m in range(ext.f)]


def hasse_invariant(chi: Character, b: BaseFieldClass) -> Fraction:
    """Invariant of the cyclic algebra (chi, b): chi(theta(b)) in Q/Z."""
    return chi(reciprocity_map(chi.ext, b))


def exponent_of(sigma: GaloisElement, target: GaloisElement) -> int:
    """The least r >= 0 with sigma^r == target, in at most |G| steps."""
    g = sigma.ext.identity()
    for r in range(sigma.ext.degree):
        if g == target:
            return r
        g = g * sigma
    raise ArithmeticError(f"{target} is not a power of {sigma}")


def frobenius_exponent(sigma: GaloisElement) -> int:
    """The exponent r with sigma^r equal to the reciprocity image of t.

    This resolves the generator comparison behind the invariant
    computation for the algebra built on the class of the base
    uniformizer. The returned r satisfies the residue identity
    sigma^r(alpha)/alpha = ((-1)^(e-1) u0)^((q-1)/e).

    r is coprime to e*f exactly when the class of t generates the norm
    quotient (true for unramified and for mixed cyclic extensions; a
    totally ramified extension can send t to a non-generator, e.g. to the
    identity when t is itself a norm).
    """
    ext = sigma.ext
    r = exponent_of(sigma,
                    reciprocity_map(ext, BaseFieldClass(ext.tower, 1, 0)))
    # -u0 serves for (-1)^(e-1) u0 at every e: for odd e at odd p the
    # exponent (q-1)/e is even, and at p = 2, -1 = 1
    if (sigma**r).c != (-ext.u0) ** ((ext.q - 1) // ext.e):
        raise ArithmeticError(
            "resolved exponent violates the residue identity")
    return r


class CrossedProduct:
    """The algebra with basis v^0 .. v^(n-1) over L, v^n = b, v a = s(a) v.

    Elements are tuples of n slots, each a Laurent series in alpha or None
    for an empty slot, which ``zero()`` has in every place and
    ``random_element`` draws. ``multiply`` builds each output slot on
    generator logs with one accumulator: every term x_i sigma^i(y_j) is
    convolved straight into it, with sigma^i applied to the part of y_j
    it reads by ``twist_logs``, as ``GaloisElement.apply`` does, and b, an
    embedded monomial, is a valuation shift plus one log offset. The slot keeps
    exactly the window of the term-by-term series sum. Under the honest
    zero that window is known before any step runs: it starts at the
    least valuation of the slot's terms and ends at the least of their
    ends, where a term keeps the shorter window of its two factors, and
    at most len(b) terms when it wraps. So each term is convolved only
    over the part that lands in the window, and a term that starts at or
    past its end costs nothing.
    """

    def __init__(self, sigma: GaloisElement, b: BaseFieldClass):
        ext = sigma.ext
        if sigma.order() != ext.degree:
            raise ValueError("sigma must generate the full cyclic group")
        self.ext = ext
        self.n = ext.degree
        b_t = LaurentSeries.monomial(b.tower, BASE_SYMBOL, b.unit,
                                     b.valuation, ALGEBRA_PRECISION)
        self.b_series = ext.embed(b_t)  # refuses a class over another tower
        # b is a monomial, so a product with it is a truncation to its
        # window, a scale by its coefficient and a shift by its valuation
        b_logs = self.b_series.logs
        if b_logs.count(None) != len(b_logs) - 1:
            raise ArithmeticError("b must embed as a monomial")
        self.sigma_powers = [sigma**i for i in range(self.n)]

    # -- element constructors ------------------------------------------------

    def zero(self) -> tuple:
        return (None,) * self.n

    def scalar(self, a: LaurentSeries) -> tuple:
        out = list(self.zero())
        out[0] = a
        return tuple(out)

    def one(self) -> tuple:
        return self.scalar(LaurentSeries.one(self.ext.tower, EXT_SYMBOL,
                                             ALGEBRA_PRECISION))

    def v(self) -> tuple:
        out = list(self.zero())
        if self.n == 1:
            # v = b itself in the degenerate rank-1 algebra
            out[0] = self.b_series
            return tuple(out)
        out[1] = LaurentSeries.one(self.ext.tower, EXT_SYMBOL,
                                   ALGEBRA_PRECISION)
        return tuple(out)

    def random_element(self, rng) -> tuple:
        """A dense element: each slot empty (None) with probability 1/2."""
        out = [None if rng.random() < 0.5 else self._random_slot(rng)
               for _ in range(self.n)]
        if all(x is None or x.is_zero() for x in out):
            out[0] = LaurentSeries.one(self.ext.tower, EXT_SYMBOL,
                                       ALGEBRA_PRECISION)
        return tuple(out)

    def random_sparse(self, rng) -> tuple:
        """A sparse element: the slots of two draws below n filled, one
        slot when they coincide, and ``one()`` if every filled slot is
        zero. A product with it pairs at most two slots per slot of the
        other factor."""
        out = list(self.zero())
        for i in sorted({rng.randrange(self.n), rng.randrange(self.n)}):
            out[i] = self._random_slot(rng)
        if all(x is None or x.is_zero() for x in out):
            return self.one()
        return tuple(out)

    def _random_slot(self, rng) -> LaurentSeries:
        """A random window of ALGEBRA_PRECISION terms at valuation -2..2."""
        logs = random_logs(self.ext.tower, rng, ALGEBRA_PRECISION)
        return LaurentSeries(self.ext.tower, EXT_SYMBOL, rng.randrange(-2, 3),
                             logs)

    # -- ring operations -----------------------------------------------------

    def multiply(self, x: tuple, y: tuple) -> tuple:
        """Slot k is the sum of x_i sigma^i(y_j) over i + j = k, plus b
        times the sum over i + j = k + n.

        The first pass walks the pairs of slots that are not empty (None)
        and files each under its slot, with the pair's valuation
        v(x_i) + v(y_j) (plus v(b) when it wraps) and its term count, the
        shorter window (at most len(b) when it wraps). The slot's window
        is [min v, min(v + count)) over its pairs, so it is fixed before
        any step runs. The second pass convolves each pair into the
        slot's one accumulator, only over the terms that land in that
        window. A slot that no pair reaches is empty (None).
        """
        tower = self.ext.tower
        n = self.n
        powers = self.sigma_powers
        b = self.b_series
        vb, lb, b_lead = b.valuation, len(b.logs), b.logs[0]
        ys = [(j, yj.valuation, yj.logs, len(yj.logs))
              for j, yj in enumerate(y) if yj is not None]
        start, stop = [math.inf] * n, [math.inf] * n
        slots = [[] for _ in range(n)]
        terms = [None] * n
        for i, a in enumerate(x):
            if a is None:
                continue
            va, la = a.valuation, len(a.logs)
            low = [(ii, L) for ii, L in enumerate(a.logs) if L is not None]
            # b is a monomial: a wrapped pair adds its lead log to x_i's
            terms[i] = low, [(ii, L + b_lead) for ii, L in low]
            for j, vy, logs, ly in ys:
                k = i + j
                v = va + vy
                count = la if la < ly else ly
                wrapped = k >= n
                if wrapped:
                    k -= n
                    v += vb
                    if count > lb:
                        count = lb
                # a pair from the slot's current end on can neither land
                # in its window nor move it; as i grows, every pair of
                # slot k that does not wrap is filed before those that do
                if v >= stop[k]:
                    continue
                if v < start[k]:
                    start[k] = v
                if v + count < stop[k]:
                    stop[k] = v + count
                slots[k].append((v, i, wrapped, vy, logs))
        out = []
        for lo, hi, pairs in zip(start, stop, slots):
            if not pairs:
                out.append(None)
                continue
            acc = [None] * (hi - lo)
            for v, i, wrapped, vy, logs in pairs:
                width = hi - v
                if width <= 0:
                    continue
                _convolve(terms[i][wrapped],
                          twist_logs(logs[:width], powers[i], vy), acc,
                          v - lo, 0, width, tower)
            # a window that cancels is the honest zero O(alpha^hi)
            out.append(LaurentSeries(tower, EXT_SYMBOL, lo, acc))
        return tuple(out)

    def power(self, x: tuple, k: int) -> tuple:
        """x^k for k >= 0 by binary powering, most significant bit first:
        a square per bit after the leading one and a product with x per
        set bit, at most 2 * k.bit_length() multiplies. x^0 is ``one()``
        and x^1 is x itself."""
        k = operator.index(k)
        if k < 0:
            raise ValueError(f"exponent must be >= 0, not {k}")
        if k == 0:
            return self.one()
        out = x
        for bit in bin(k)[3:]:
            out = self.multiply(out, out)
            if bit == "1":
                out = self.multiply(out, x)
        return out

    def equal(self, x: tuple, y: tuple) -> bool:
        """Slot-wise agreement on the common window: O(alpha^E) agrees with
        any slot of valuation at least E, and an empty slot (None) with
        exactly the slots that are None or a zero series.

        This is the one comparison on the common window, not ``==``: a
        slot's window depends on the order of the products, so (xy)z and
        x(yz) can keep different windows of the same element. Two slots
        that are ``==`` skip the subtraction: they have one valuation and
        one ``logs``, so they agree term by term (or both are zero)."""
        for a, b in zip(x, y):
            if a is None or b is None:
                # beside an empty slot, the other slot itself is the difference
                d = b if a is None else a
            elif a == b:
                continue
            else:
                d = a - b
            if d is not None and not d.is_zero():
                return False
        return True

    def commutes(self, x: tuple, y: tuple) -> bool:
        return self.equal(self.multiply(x, y), self.multiply(y, x))


def cyclic_algebra_check(sigma: GaloisElement, b: BaseFieldClass, rng,
                         samples: int) -> list:
    """Verify the defining relations of the crossed product on samples.

    Checks associativity on random triples, the twisted commutation rule
    v a = sigma(a) v, centrality of v^n = b, that a scalar commutes
    with everything precisely when it lies in the base field, and for
    n > 1 that (beta v)^n = beta sigma(beta) ... sigma^(n-1)(beta) v^n =
    N(beta) b for a random unit beta. Returns the failure messages (empty
    when all hold).

    The last law reads the norm past its lead: the left side is products
    in the algebra alone, the right side ``reciprocity.norm``, embedded,
    on the algebra's whole window. beta is a unit, as ``norm`` refuses
    zero.

    A triple is a dense x (``random_element``) with a sparse y and z
    (``random_sparse``, one or two slots each), so each of its four
    products pairs at most about 2n slots, not the n^2/4 of two dense
    elements. The products still sum several pairs into one slot, up to
    two in xy and up to four in x(yz), and still wrap past v^n = b: the
    paths that fix a slot's window before accumulating its pairs run as
    before.
    """
    alg = CrossedProduct(sigma, b)
    ext = sigma.ext
    window = ALGEBRA_PRECISION
    failures = []

    vv = alg.v()
    v_n = alg.power(vv, alg.n)
    if not alg.equal(v_n, alg.scalar(alg.b_series)):
        failures.append("v^n differs from b")

    for k in range(samples):
        x = alg.random_element(rng)
        y = alg.random_sparse(rng)
        z = alg.random_sparse(rng)
        if not alg.equal(alg.multiply(alg.multiply(x, y), z),
                         alg.multiply(x, alg.multiply(y, z))):
            failures.append(f"associativity failed on sample {k}")
        a = random_unit_series(
            ext, rng, valuation=rng.randrange(-2, 3)).truncate(window)
        if not alg.equal(alg.multiply(vv, alg.scalar(a)),
                         alg.multiply(alg.scalar(sigma.apply(a)), vv)):
            failures.append(f"twist rule failed on sample {k}")
        if not alg.commutes(v_n, x):
            failures.append(f"v^n is not central against sample {k}")

    # center audit: scalars commute with v exactly when they lie in K;
    # and for n > 1, (beta v)^n = N(beta) b
    for k in range(max(1, samples // 4)):
        base = random_base_unit_series(
            ext, rng, valuation=rng.randrange(-2, 3)).truncate(window)
        emb = ext.embed(base).truncate(window)
        if not alg.commutes(alg.scalar(emb), vv):
            failures.append(f"embedded base scalar fails to commute ({k})")
        lam = random_unit_series(
            ext, rng, valuation=rng.randrange(-2, 3)).truncate(window)
        fixed = sigma.apply(lam) == lam
        is_central = alg.commutes(alg.scalar(lam), vv)
        if is_central != fixed:
            failures.append(f"centrality mismatch for scalar sample {k}")
        if is_central and not ext.is_base_member(lam):
            failures.append(
                f"central scalar outside the base field on sample {k}")
        if alg.n > 1:
            beta = random_unit_series(
                ext, rng, valuation=rng.randrange(-2, 3)).truncate(window)
            x = (None, beta) + (None,) * (alg.n - 2)
            if not alg.equal(alg.power(x, alg.n), alg.scalar(
                    ext.embed(norm(ext, beta)) * alg.b_series)):
                failures.append(f"(beta v)^n != N(beta) b on sample {k}")
    return failures
