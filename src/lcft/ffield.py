"""Exact arithmetic in a residue-field pair k inside l.

A ``FieldTower`` models the field l = F_(p^(t*f)) together with its
distinguished subfield k = F_(p^t): k is recovered as the fixed field of
the q-power Frobenius (q = p^t), so no compatible-embedding machinery is
needed. The whole field is built once from a monic modulus m over F_p,
chosen deterministically from (p, t, f) so runs reproduce. A modulus is
accepted when the class of x has order p^(t*f) - 1 modulo m; that alone
proves m irreducible, since every nonzero residue is then a power of x.
That search, the coefficient view and the p = 2 table walk's lane hop
compute x^k mod m with one routine, ``_x_power``. On a prime field
(t*f = 1) the modulus is x + c0, so x is the constant g = -c0 mod p and
x^k is ``pow(g, k, p)``. Otherwise it is a ladder left to right over the
bits of k, a squaring per bit and a times-x shift per 1 bit, on a
bitmask at p = 2 and a list at odd p.

Internally every nonzero element is stored as its discrete logarithm with
respect to a fixed multiplicative generator; addition goes through a
precomputed Zech-logarithm table. This keeps every field operation O(1)
after an O(field size) table build, which the size cap p^(t*f) <= 2^20
makes affordable. Coefficient vectors over F_p remain the construction
surface: ``element`` sums its digit terms c * g^i, each a constant's log
plus i, through the Zech table, g being the class of x. A coefficient
view is computed on demand as x^log, and printing asks for one only for
elements of F_p.

A tower keeps the Zech table and log[:p], the logs of F_p's constants,
which ``from_int`` reads; on a prime field that is the whole log table.
Both are ``array('i')``, 4 bytes a slot and 4 MB at the cap, where a list
of separate ints would take about 36 MB. The Zech table is read by every
field addition, and by every series kernel step on a tower of more than
``SUMS_MAX_SIZE`` elements. A tower of at most ``SUMS_MAX_SIZE`` elements
derives one more table from the Zech table when a series kernel first
reads it: the addition table ``_sums``, whose entry [a][c] is
log(g^a + g^c), so that a kernel step is one lookup. Its rows are lists
of ints: bytes rows would be smaller, but a kernel step reads them no
faster (measured at ``SUMS_MAX_SIZE``).

The tables are built on one of three routes, chosen by (p, t*f). Each
is one walk over the powers of the generator:

- p = 2: the packed int is the bitmask of the coefficients. The powers
  of the generator are walked on 32-bit lanes of one big int,
  2^ceil(n/2) powers a step; a step is one shift and one masked XOR for
  every lane. x and 1 + x = x ^ 1 share x >> 1, and one more shift and
  mask give that of every lane. The first power g^k of such a pair to
  arrive files k under x >> 1 in a half-size table; when its partner
  g^m arrives, the walk writes zech[k] = m and zech[m] = k. No log or
  exponential table is built.
- odd p, t*f = 1: l = F_p and the generator is the int g. One loop,
  v = v * g % p over v = g^k, writes log[v] and, in slot k of the
  exponential table, the index of 1 + v (0 at v = -1).
- odd p, t*f >= 2: a digit vector is stepped one power at a time; each
  step writes log[g^k] and, in slot k of the exponential table, the
  index of 1 + g^k, which is g^k with its constant digit raised by one
  mod p.

The two odd-p routes end with one gather: a chunk of the exponential
table at a time is looked up in the log table with ``itemgetter``, and
the Zech logs are written back over the chunk. Then log is cut in place
to its first p entries. The exponential table exists only during the
build.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from array import array
from operator import itemgetter

SIZE_CAP = 2**20

# Towers with at most this many elements also keep ``_sums``, the
# addition table of the series kernels: |l*| + 1 rows of 3 * |l*| ints,
# built on the first kernel call. Measured on Python 3.11.7 and 3.13.0
# (the table's size by tracemalloc, times as the min of alternated runs):
# - At F_256 the table takes 1.5 MB and 2.7-2.8 ms to build on either
#   version; at 2^9 elements 6.0 MB and 11-16 ms, at 2^10 24 MB and 55 ms.
# - run_checks on (2,8,1,3,"g") at precision 32 with 100 samples took
#   7-13 % less time with the table on 3.11.7 and 21 % less on 3.13.0;
#   on (2,9,1,7,"g") the build cost about what the table saved (-1 to
#   +16 %). At precision 8 with 10 samples the build outweighs the
#   saving on every tower tried, F_256 included (+23 to +36 %, 3 ms).
# - The rows are lists of ints, not bytes. Bytes rows take 0.2 MB at
#   F_256, but a kernel step read them no faster: kernel time against the
#   Zech loop on F_49, F_64 and F_256, three runs each, was -21 to -25 %
#   with int rows and -17 to -24 % with bytes rows on 3.11.7, and -32 to
#   -37 % against -28 to -31 % on 3.13.0.
SUMS_MAX_SIZE = 2**8
# the odd-p gather looks up this many slots of the exponential table at a
# time, so no tuple of the whole table exists at once; 2^10 keeps a
# chunk's temporaries (its int objects above all) under the peak RSS of
# each odd-p cap build (measured on Python 3.11)
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


def check_tower_shape(p: int, t: int, f: int) -> tuple:
    """Refuse (p, t, f) unless it names a tower under the cap; return ints."""
    p, t, f = operator.index(p), operator.index(t), operator.index(f)
    if t < 1 or f < 1:
        raise ValueError("t and f must be positive")
    # the cap comes first, so trial division only sees p <= 2^20
    if p > 1 and (t * f >= SIZE_CAP.bit_length() or p ** (t * f) > SIZE_CAP):
        raise ValueError(f"field size {p}^{t * f} exceeds the cap 2^20")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p, t, f


class FieldTower:
    """The field l = F_(p^(t*f)) with distinguished subfield k = F_(p^t).

    The modulus is a monic polynomial of degree t*f over F_p such that the
    class of x has order p^(t*f) - 1, which makes it irreducible and x a
    generator of l*; it is found by a seeded random search so a tower
    built from the same (p, t, f) is always identical.

    Two tables are built with the tower: ``_zech``, the Zech logarithm
    log(1 + g^k) of every generator power (-1 where 1 + g^k = 0), and
    ``_log``, the logs of F_p's p constants (-1 at 0). Every other element
    is reached from those: ``element`` adds its digit terms through the
    Zech table. A tower of at most ``SUMS_MAX_SIZE`` elements derives a
    third from ``_zech`` when a series kernel first runs on it, the
    addition table ``_sums`` (``_addition_table``), which is the empty
    tuple until then; above that bound ``_sums`` is None.

    ``FieldElement`` is the public face of its elements. A Laurent series
    (``series.py``) stores its coefficients as bare generator logs instead:
    its operations read ``order``, ``_zech`` (the Zech table) and
    ``minus_one_log`` directly, and ``embed``, ``project`` and the Galois
    action (``extension.py``) scale and offset those logs using ``order``,
    ``q`` and ``subfield_norm_exponent``.
    """

    def __init__(self, p: int, t: int, f: int):
        p, t, f = check_tower_shape(p, t, f)
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
        # None: the kernels add through the Zech table; (): an addition
        # table not built yet. A plain attribute, so the instance keeps
        # its inline attribute values, which CPython 3.11 reads faster
        # than a materialised __dict__
        self._sums = None if self.size > SUMS_MAX_SIZE else ()

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
        # Each route is one walk over the powers g^k of g, the class of x,
        # packed base p (digit i is the coefficient of x^i). At p = 2 the
        # walk writes the Zech table itself. At odd p it writes log[g^k]
        # = k (log is -1 at 0) and, in exp[k], the slot of 1 + g^k in
        # log, which is 0 where 1 + g^k = 0; then the gather turns each
        # slot into zech[k] = log(1 + g^k), a chunk of exp at a time
        # written back over it, and log is cut to its first p entries,
        # the logs of F_p's constants. So the tower keeps two array('i')
        # tables: the Zech table, and log[:p], which only the cold
        # constructors read.
        p, n, size, order = self.p, self.degree, self.size, self.order
        if p == 2:
            # the packed int is the bitmask of the coefficients: times x
            # is a shift, and a carry out of degree n is cancelled by the
            # modulus. The walk runs on 2^ceil(n/2) lanes of 32 bits in
            # one int, lane j at g^(j*stride + s) on step s: a step is one
            # shift and one masked XOR for every lane. x and 1 + x = x ^ 1
            # share x >> 1, which one more shift gives for every lane: the
            # first of the pair to arrive files its k under x >> 1 in
            # pair, and the second writes both Zech entries. Only g^0 = 1
            # has no partner, so zech[0] keeps its -1: 1 + 1 = 0
            endian = sys.byteorder
            mask = sum(c << i for i, c in enumerate(self.modulus))
            stride = 1 << n // 2
            lanes = size // stride
            ones = ((1 << 32 * lanes) - 1) // 0xFFFFFFFF  # each lane's bit 0
            low31 = ones * 0x7FFFFFFF                      # each lane's x >> 1
            hop = _x_power(stride, self.modulus, 2)  # g^stride
            v = start = 1                       # lane j starts at g^(j*stride)
            for j in range(1, lanes):
                start = _times_mod2(start, hop, mask, n)
                v |= start << 32 * j
            zech = array("i", [-1]) * order
            # the loop reads and writes both tables through memoryviews,
            # whose item access is faster than an array's (3.10 to 3.13)
            slots = memoryview(zech)
            pair = memoryview(array("i", [-1]) * (size >> 1))
            # lanes * stride = size slots, one more than there are powers:
            # the last, g^order = 1, is cut by the range of k
            for s in range(stride):
                halves = memoryview(
                    (v >> 1 & low31).to_bytes(4 * lanes, endian)).cast("i")
                for k, h in zip(range(s, order, stride), halves):
                    m = pair[h]
                    if m < 0:
                        pair[h] = k
                    else:
                        slots[k] = m
                        slots[m] = k
                v <<= 1
                v ^= (v >> n & ones) * mask
            log = array("i", [-1, 0])           # 0 has no log, 1 = g^0
        else:
            log = array("i", [-1]) * size
            exp = array("i", [0]) * order
            if n == 1:
                # l = F_p and g is the constant -c0 of the modulus x + c0:
                # one walk of ints mod p writes log and, in exp[k],
                # g^k + 1, except at g^k = -1, whose 1 + g^k = 0 sits in
                # slot 0
                g = -self.modulus[0] % p
                v = 1
                for k in range(order):
                    log[v] = k
                    exp[k] = v + 1
                    v = v * g % p
                exp[self.minus_one_log] = 0
            else:
                # odd p has at most 12 digits under the cap; times x uses
                # x^n = -(lower part of the modulus). The digits of the
                # next power are written from the top down, so the packed
                # int is accumulated in the same pass, and its slot is the
                # packed int with the constant digit d raised by one mod p
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
            # the order is even, so every chunk holds at least two
            # entries and itemgetter returns a tuple. log[0] == -1 marks
            # 1 + g^k = 0.
            for lo in range(0, order, _ZECH_CHUNK):
                exp[lo:lo + _ZECH_CHUNK] = array(
                    "i", itemgetter(*exp[lo:lo + _ZECH_CHUNK])(log))
            zech = exp
            # in place: on a prime field size = p and nothing is cut
            del log[p:]
        self._log = log
        self._zech = zech

    def _addition_table(self):
        """Build ``_sums``, the addition table of the series kernels, keep
        it on the tower and return it; a kernel calls this the first time
        it finds ``_sums`` empty.

        ``_sums[a][c]`` is log(g^a + g^c) for a < |l*| and c < 3 * |l*|,
        with |l*| (``order``) standing for zero; the extra row |l*| is the
        zero accumulator, whose entry c is c mod |l*|. A kernel step adds
        g^c to an accumulator of log a as ``acc = sums[acc][c]``, where c
        is a sum of two or three logs, so the row repeats its first |l*|
        entries three times. The table is read off ``_zech`` when the
        first kernel runs, not built with the tower: a tower that no
        kernel reads costs no build, and a change to ``_zech`` made right
        after ``_build_tables`` reaches the kernels.
        """
        order, zech = self.order, self._zech
        # wrap[a + z] is (a + z) mod order for z < order; a Zech log of
        # -1, the sum 0, becomes 2 * order, where wrap reads zero
        wrap = list(range(order)) * 2 + [order] * order
        shifted = [2 * order if z < 0 else z for z in zech]
        rows = []
        for a in range(order):
            # entry c of the rotation is the Zech log of g^(c - a)
            rotated = shifted[order - a:] + shifted[:order - a]
            rows.append([wrap[a + z] for z in rotated] * 3)
        rows.append(list(range(order)) * 3)
        self._sums = rows
        return rows

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
        """Element from a coefficient vector over F_p, lowest degree first.

        The sum of the digit terms c_i * g^i, g being the class of x: each
        term's log is that of the constant c_i, read from ``_log``, plus i,
        and the terms are added through the Zech table, so no table maps a
        vector to its log. Cold: parsing and tests build elements this
        way, no hot path does.
        """
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("coefficient vector longer than the degree")
        out = self.zero()
        for i, c in enumerate(coeffs):
            out += self.from_int(c) * self.generator_power(i)
        return out

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
