"""Exact arithmetic in a residue-field pair k inside l.

A ``FieldTower`` models the field l = F_(p^(t*f)) together with its
distinguished subfield k = F_(p^t): k is recovered as the fixed field of
the q-power Frobenius (q = p^t), so no compatible-embedding machinery is
needed. The whole field is built once from a monic modulus m over F_p,
chosen deterministically from (p, t, f) so runs reproduce. A modulus is
accepted when the class of x has order p^(t*f) - 1 modulo m; that alone
proves m irreducible, since every nonzero residue is then a power of x.
That search and the coefficient view compute x^k mod m with one routine,
``_x_power``. On a prime field (t*f = 1) the modulus is x + c0, so x is
the constant g = -c0 mod p and x^k is ``pow(g, k, p)``. Otherwise it is a
ladder left to right over the bits of k, a squaring per bit and a times-x
shift per 1 bit, on a bitmask at p = 2 and a list at odd p.

Internally every nonzero element is stored as its discrete logarithm with
respect to a fixed multiplicative generator; addition goes through a
precomputed Zech-logarithm table. This keeps every field operation O(1)
after an O(field size) table build, which the size cap p^(t*f) <= 2^20
makes affordable. Coefficient vectors over F_p remain the construction
surface; a coefficient view is computed on demand as x^log, and printing
asks for one only for elements of F_p.

A tower keeps two tables, log and Zech, stored by how they are read. The
log table, which only element construction reads, is ``array('i')``:
4 bytes a slot, 4 MB at the cap. The Zech table is read by every
addition and series product, so its storage follows its size. Below
``ZECH_ARRAY_MIN`` entries it is a list: such a table stays in cache,
where CPython's specialised list indexing beats an array's. From there on
it is an ``array('i')`` too: a list of separate ints would take about
36 MB at the cap, and its random lookups miss cache more often than the
packed array's. Readers index either kind the same way. The exponential
table exists only during the build, which writes the Zech table over it.

The tables are built on one of three routes, chosen by (p, t*f). Each
walks the powers of the generator, writes the log table and leaves, in
slot k of the exponential table, the index of 1 + g^k in the log table:

- p = 2: the packed int is the bitmask of the coefficients, and the
  walk's per-entry work runs in the C runtime. The powers of the
  generator are walked on 32-bit lanes of one big int, 2^ceil(n/2)
  powers a step; a step is one shift and one masked XOR for every lane,
  and its bytes land in the exponential table as a strided slice. Only
  the log scatter is a Python loop. 1 + g^k flips the constant bit of
  g^k, so each chunk of the table is flipped as one int.
- odd p, t*f = 1: l = F_p and the generator is the int g. One loop,
  v = v * g % p over v = g^k, writes log[v] and, in slot k of the
  exponential table, the index of 1 + v (0 at v = -1).
- odd p, t*f >= 2: a digit vector is stepped one power at a time; each
  step writes log[g^k] and the index of 1 + g^k, which is g^k with its
  constant digit raised by one mod p.

One gather then ends every route: a chunk of the exponential table at a
time is looked up in the log table with ``itemgetter``, and the Zech
logs are written back over the chunk.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from array import array
from operator import itemgetter

SIZE_CAP = 2**20

# Zech tables with at least this many entries are stored as array('i').
# Measured on a kernel step under random access (Python 3.11): the list
# is faster up to 2^15 entries, the two tie near 2^16, and the array is
# faster from about 78,000 entries (5^7) up to the cap.
ZECH_ARRAY_MIN = 2**16
# every route's Zech logs are gathered this many entries at a time, so
# no tuple or list of the whole table exists at once; 2^10 keeps a
# chunk's temporaries (its int objects above all) under the peak RSS of
# each cap build
_ZECH_CHUNK = 2**10


def parse_int(text: str) -> int:
    """The integer written in ``text``: ASCII digits, a sign allowed first.

    ``int()`` alone also reads "1_3" as 13 and the digits of other
    scripts, such as the Arabic-Indic three "\u0663", as their values;
    both raise ValueError here. Whitespace around the digits is ignored,
    as ``int()`` ignores it.
    """
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n <= 2^20 here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """n is its only prime factor (n < 2 has none)."""
    return prime_factors(n) == [n]


def _times_mod2(a, b, mask, n):
    """a*b over F_2 modulo the degree-n modulus ``mask``, all bitmasks."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= mask
    return out


def _lane_ones(lanes):
    """The int with bit 0 of each of ``lanes`` 32-bit lanes set."""
    return ((1 << 32 * lanes) - 1) // 0xFFFFFFFF


def _x_power(k, modulus, p):
    """x^k modulo the monic ``modulus``, packed base p as in the tables.

    On a prime field the modulus is x + c0, so x is the constant -c0 and
    x^k is ``pow(-c0, k, p)``: about 2 microseconds for a 20-bit k.
    Otherwise left to right over the bits of k: one squaring a bit, then a
    times-x shift on each 1 bit, with x^n = -(lower part of the modulus).
    At p = 2 the polynomial is its bitmask, as in the table walk; odd p
    squares a coefficient list and folds the shift into the square's
    reduction.
    """
    n = len(modulus) - 1
    if n == 1:
        return pow(-modulus[0] % p, k, p)
    if p == 2:
        mask = sum(c << i for i, c in enumerate(modulus))
        v = 1
        for bit in bin(k)[2:]:
            v = _times_mod2(v, v, mask, n)
            if bit == "1":
                v <<= 1
                if v >> n:
                    v ^= mask
        return v
    red = [(-c) % p for c in modulus[:-1]]
    v = [1] + [0] * (n - 1)
    for bit in bin(k)[2:]:
        sq = [0] * (2 * n - 1)
        for i, a in enumerate(v):
            if a:
                for j, b in enumerate(v, i):
                    sq[j] += a * b
        if bit == "1":
            sq.insert(0, 0)
        # fold every term of degree n and up into the lower ones, top first
        for i in range(len(sq) - 1 - n, -1, -1):
            c = sq.pop() % p
            if c:
                for j, r in enumerate(red, i):
                    sq[j] += c * r
        v = [c % p for c in sq]
    packed = 0
    for c in reversed(v):
        packed = packed * p + c
    return packed


def _x_is_primitive(mod, p, order_factors, order):
    """Does the class of x have order exactly ``order`` = p^n - 1 mod m?

    Then every nonzero residue mod m is a power of x, hence a unit, so
    F_p[x]/(m) is a field and m is irreducible: no separate
    irreducibility test is needed. Each power is one ``_x_power`` call.
    """
    return _x_power(order, mod, p) == 1 and all(
        _x_power(order // r, mod, p) != 1 for r in order_factors)


def check_tower_shape(p: int, t: int, f: int) -> None:
    """Refuse (p, t, f) unless it names a tower under the size cap."""
    if t < 1 or f < 1:
        raise ValueError("t and f must be positive")
    # the cap comes first, so trial division only sees p <= 2^20
    if p > 1 and (t * f >= SIZE_CAP.bit_length() or p ** (t * f) > SIZE_CAP):
        raise ValueError(f"field size {p}^{t * f} exceeds the cap 2^20")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


class FieldTower:
    """The field l = F_(p^(t*f)) with distinguished subfield k = F_(p^t).

    The modulus is a monic polynomial of degree t*f over F_p such that the
    class of x has order p^(t*f) - 1, which makes it irreducible and x a
    generator of l*; it is found by a seeded random search so a tower
    built from the same (p, t, f) is always identical.

    ``FieldElement`` is the public face of its elements. A Laurent series
    (``series.py``) stores its coefficients as bare generator logs instead:
    its operations read ``order``, ``_zech`` (the Zech table) and
    ``minus_one_log`` directly, and ``embed``, ``project`` and the Galois
    action (``extension.py``) scale and offset those logs using ``order``,
    ``q`` and ``subfield_norm_exponent``.
    """

    def __init__(self, p: int, t: int, f: int):
        check_tower_shape(p, t, f)
        self.p = p
        self.t = t
        self.f = f
        self.degree = t * f
        self.size = p ** self.degree
        self.order = self.size - 1            # |l*|, always >= 1
        self.q = p**t                          # |k|
        self.subfield_units = self.q - 1       # |k*|
        # norm exponent onto k: x |-> x^((q^f-1)/(q-1))
        self.subfield_norm_exponent = self.order // self.subfield_units
        # -1 is the one element of order 2 in the cyclic l* when |l*| is
        # even (odd p); at p = 2, |l*| is odd and -1 = 1
        self.minus_one_log = 0 if self.order % 2 else self.order // 2
        self.modulus = self._find_modulus()
        self._build_tables()

    def _find_modulus(self):
        """The first monic candidate of a stream seeded by (p, t, f) whose
        constant term is nonzero and on which x is primitive.

        Each coefficient is ``rng.randrange(p)``'s own draw, written out:
        ``getrandbits(p.bit_length())`` until the value falls below p, so
        the stream is randrange's without its argument handling and every
        modulus is the one ``randrange`` picked. On a prime field a
        candidate costs one ``pow`` call, plus one per prime factor of
        p - 1 once x^(p - 1) = 1. The search takes about 12 microseconds
        at p = 13, most of it seeding the generator with its string, and
        40 at the prime cap 1048573; degree 2 at p = 3 takes about 40, the
        cap towers (2, 10, 2) 0.6 ms and (3, 12, 1) 22 ms.
        """
        rng = random.Random(f"field-tower-{self.p}-{self.t}-{self.f}")
        p, n = self.p, self.degree
        bits, width = rng.getrandbits, p.bit_length()
        order_factors = prime_factors(self.order)
        while True:
            coeffs = []
            for _ in range(n):
                c = bits(width)
                while c >= p:
                    c = bits(width)
                coeffs.append(c)
            coeffs.append(1)
            if coeffs[0] == 0:
                continue
            if _x_is_primitive(coeffs, p, order_factors, self.order):
                return tuple(coeffs)

    def _build_tables(self):
        # Each route walks the powers g^k of g, the class of x, packed
        # base p (digit i is the coefficient of x^i), and writes log, their
        # inverse, -1 at 0. When a walk ends, exp[k] holds the slot of
        # 1 + g^k in log, which is 0 where 1 + g^k = 0; one gather then
        # turns each slot into zech[k] = log(1 + g^k), a chunk of exp at a
        # time written back over it, so the tower keeps two tables. log is
        # array('i'), which only the cold constructors read; the Zech table
        # is a list below ZECH_ARRAY_MIN entries.
        p, n, size, order = self.p, self.degree, self.size, self.order
        log = array("i", [-1]) * size
        if p == 2:
            # the packed int is the bitmask of the coefficients: times x
            # is a shift, and a carry out of degree n is cancelled by the
            # modulus. The walk runs on 2^ceil(n/2) lanes of 32 bits in
            # one int, lane j at g^(j*stride + s) on step s: a step is one
            # shift and one masked XOR for every lane, and its lanes land
            # in exp[s::stride].
            endian = sys.byteorder
            mask = sum(c << i for i, c in enumerate(self.modulus))
            stride = 1 << n // 2
            lanes = size // stride
            ones = _lane_ones(lanes)
            hop = 2                             # g^stride = x^(2^(n//2))
            for _ in range(n // 2):
                hop = _times_mod2(hop, hop, mask, n)
            v = start = 1                       # lane j starts at g^(j*stride)
            for j in range(1, lanes):
                start = _times_mod2(start, hop, mask, n)
                v |= start << 32 * j
            # lanes * stride = size slots, one more than there are powers:
            # the last, g^order = 1, is cut in place after the gather, so
            # no copy of a whole table is made
            exp = array("i", [0]) * size
            for s in range(stride):
                exp[s::stride] = array("i", v.to_bytes(4 * lanes, endian))
                v <<= 1
                v ^= (v >> n & ones) * mask
            for k, v in zip(range(order), exp):
                log[v] = k
            # 1 + g^k flips the constant bit of g^k: a chunk of exp at a
            # time is flipped as one int
            chunk = min(size, _ZECH_CHUNK)
            ones = _lane_ones(chunk)
            for lo in range(0, size, chunk):
                v = int.from_bytes(exp[lo:lo + chunk], endian) ^ ones
                exp[lo:lo + chunk] = array("i", v.to_bytes(4 * chunk, endian))
        elif n == 1:
            # l = F_p and g is the constant -c0 of the modulus x + c0: one
            # walk of ints mod p writes log and, in exp[k], g^k + 1, except
            # at g^k = -1, whose 1 + g^k = 0 sits in slot 0
            g = -self.modulus[0] % p
            exp = array("i", [0]) * order
            v = 1
            for k in range(order):
                log[v] = k
                exp[k] = v + 1
                v = v * g % p
            exp[self.minus_one_log] = 0
        else:
            # odd p has at most 12 digits under the cap; times x uses
            # x^n = -(lower part of the modulus). The digits of the next
            # power are written from the top down, so the packed int is
            # accumulated in the same pass, and its slot is the packed int
            # with the constant digit d raised by one mod p
            exp = array("i", [0]) * order
            poly = [1] + [0] * (n - 1)
            top = n - 1
            red = [(-c) % p for c in self.modulus[:-1]]
            bump = [1] * (p - 1) + [1 - p]     # (d + 1) % p - d
            packed, slot = 1, 2
            for k in range(order):
                log[packed] = k
                exp[k] = slot
                carry = poly[top]
                packed = 0
                for i in range(top, 0, -1):
                    d = (poly[i - 1] + carry * red[i]) % p
                    poly[i] = d
                    packed = packed * p + d
                d = (carry * red[0]) % p
                poly[0] = d
                packed = packed * p + d
                slot = packed + bump[d]
        # every chunk holds at least two entries, so itemgetter returns a
        # tuple: at p = 2 the chunks divide the size, 2 at F_2, and at odd
        # p the order, and so every chunk, is even. log[0] == -1 marks
        # 1 + g^k = 0.
        for lo in range(0, len(exp), _ZECH_CHUNK):
            exp[lo:lo + _ZECH_CHUNK] = array(
                "i", itemgetter(*exp[lo:lo + _ZECH_CHUNK])(log))
        del exp[order:]
        self._log = log
        self._zech = exp if order >= ZECH_ARRAY_MIN else exp.tolist()

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, None)

    def one(self) -> "FieldElement":
        return FieldElement(self, 0)

    def generator(self) -> "FieldElement":
        return FieldElement(self, 1 % self.order)

    def generator_power(self, k: int) -> "FieldElement":
        # index, as in ``**``: a float or Fraction log is never stored
        return FieldElement(self, operator.index(k) % self.order)

    def from_int(self, c: int) -> "FieldElement":
        """Constant from the prime field (c reduced mod p)."""
        c %= self.p
        if c == 0:
            return self.zero()
        return FieldElement(self, self._log[c])

    def minus_one(self) -> "FieldElement":
        """-1 looked up in the log table as the constant p - 1; a second
        route to the log that ``minus_one_log`` reads off |l*|."""
        return self.from_int(self.p - 1)

    def element(self, coeffs) -> "FieldElement":
        """Element from a coefficient vector over F_p, lowest degree first."""
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("coefficient vector longer than the degree")
        packed = 0
        for i, c in enumerate(coeffs):
            packed += (c % self.p) * self.p**i
        if packed == 0:
            return self.zero()
        return FieldElement(self, self._log[packed])

    def subfield_generator(self) -> "FieldElement":
        """A fixed generator of k*: the norm of the stored generator."""
        return self.generator().norm_to_subfield()

    def parse(self, text: str) -> "FieldElement":
        """Parse "g^k", "g", an integer, or a comma-separated coefficient
        list; an integer c is the one-entry list [c], which is c mod p."""
        text = text.strip()
        if text == "g":
            return self.generator()
        try:
            if text.startswith("g^"):
                return self.generator_power(parse_int(text[2:]))
            coeffs = [parse_int(c) for c in text.split(",")]
        except ValueError:
            raise ValueError(
                f"field element {text!r} is none of g^k, g, an integer or a "
                "comma-separated coefficient list") from None
        return self.element(coeffs)

    def modulus_str(self) -> str:
        return ",".join(str(c) for c in self.modulus)

    def __repr__(self):
        return f"FieldTower(p={self.p}, t={self.t}, f={self.f})"


class FieldElement:
    """An element of the tower field, stored as a generator exponent.

    ``log`` is None for zero. Arithmetic partners must be elements of the
    very same tower object.
    """

    __slots__ = ("tower", "log")

    def __init__(self, tower: FieldTower, log):
        self.tower = tower
        self.log = log

    # -- views ---------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficient vector over F_p, lowest degree first.

        Computed on each call as x^log modulo the modulus by
        ``_x_power``. On a prime field that is one ``pow``: about 1
        microsecond at p = 13 and 3 at the prime cap 1048573. Otherwise it
        is the ladder, one squaring per bit of the log: about 50
        microseconds at the cap tower (2, 10, 2), 0.2 ms at (3, 12, 1) and
        under 10 on small towers. No hot path reads it.
        """
        tower = self.tower
        if self.log is None:
            return (0,) * tower.degree
        packed = _x_power(self.log, tower.modulus, tower.p)
        return tuple(packed // tower.p**i % tower.p
                     for i in range(tower.degree))

    def __str__(self):
        if self.log is None:
            return "0"
        # F_p* is the subgroup of order p - 1 of the cyclic l*, so only
        # its elements print as a constant, and only they need a view
        if self.log % (self.tower.order // (self.tower.p - 1)) == 0:
            return str(self.coeffs[0])
        if self.log == 1:
            return "g"
        return f"g^{self.log}"

    __repr__ = __str__

    def __bool__(self):
        return self.log is not None

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.tower is other.tower and self.log == other.log

    def __hash__(self):
        return hash((id(self.tower), self.log))

    def _coerce(self, other):
        """The partner element; None means 'not our type'."""
        if isinstance(other, FieldElement):
            if other.tower is not self.tower:
                raise ValueError("elements belong to different towers")
            return other
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.log is None:
            return other
        if other.log is None:
            return self
        m = self.tower.order
        z = self.tower._zech[(other.log - self.log) % m]
        if z == -1:
            return self.tower.zero()
        return FieldElement(self.tower, (self.log + z) % m)

    def __neg__(self):
        if self.log is None:
            return self
        return FieldElement(self.tower, (self.log + self.tower.minus_one_log)
                            % self.tower.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.log is None or other.log is None:
            return self.tower.zero()
        return FieldElement(self.tower,
                            (self.log + other.log) % self.tower.order)

    def __pow__(self, k: int):
        # index, not int: a float or Fraction exponent is refused
        k = operator.index(k)
        if self.log is None:
            if k == 0:
                return self.tower.one()
            if k < 0:
                raise ZeroDivisionError("negative power of zero")
            return self
        return FieldElement(self.tower, (self.log * k) % self.tower.order)

    # -- tower structure -----------------------------------------------------

    def frobenius(self, j: int) -> "FieldElement":
        """The j-fold q-power Frobenius x^(q^j); depends on j only mod f."""
        if self.log is None:
            return self
        m = self.tower.order
        return FieldElement(
            self.tower,
            (self.log * pow(self.tower.q, j % self.tower.f, m)) % m)

    def in_subfield(self) -> bool:
        """True when the element lies in k, i.e. is fixed by x -> x^q."""
        if self.log is None:
            return True
        return self.log % self.tower.subfield_norm_exponent == 0

    def norm_to_subfield(self) -> "FieldElement":
        """Multiplicative norm from l down to k: x^((q^f-1)/(q-1))."""
        if self.log is None:
            raise ZeroDivisionError("norm of zero to the subfield")
        return self ** self.tower.subfield_norm_exponent

    def nth_roots(self, e: int) -> tuple:
        """All c with c^e = self, smallest generator exponent first.

        Empty when self is not an e-th power; otherwise the count is
        gcd(e, |l*|). Requires gcd(e, p) = 1 and self != 0.
        """
        if e < 1:
            raise ValueError("root degree must be positive")
        if math.gcd(e, self.tower.p) != 1:
            raise ValueError("root degree shares a factor with p")
        if self.log is None:
            raise ZeroDivisionError("cannot extract roots of zero")
        m = self.tower.order
        d = math.gcd(e, m)
        if self.log % d != 0:
            return ()
        step = m // d
        y0 = (self.log // d) * pow(e // d, -1, step) % step
        logs = sorted((y0 + i * step) % m for i in range(d))
        return tuple(FieldElement(self.tower, L) for L in logs)

    def subfield_log(self) -> int:
        """Discrete log w.r.t. the subfield generator (element must be in k*)."""
        if self.log is None or not self.in_subfield():
            raise ValueError("element is not a unit of the subfield")
        return ((self.log // self.tower.subfield_norm_exponent)
                % self.tower.subfield_units)
