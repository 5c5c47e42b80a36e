"""Tame abelian extensions of a Laurent series field, as explicit data.

The base field is K = k((t)) and the extension is presented canonically as
L = l((alpha)) with alpha^e = u0 * t for a constant unit u0 of l. In the
tame case every 1-unit is an e-th power, so any extension with invariants
(e, f) arises this way, and the Galois action on alpha is exactly linear.

A Galois element is the pair (a, c): it raises residue coefficients to the
q^a power and scales alpha by c, subject to the membership constraint
c^e = u0^(q^a - 1) obtained by applying the map to alpha^e = u0 * t. The
pair is stored as (a, log c), a generator log as in a series window, so
the constraint is the congruence e * log c = (q^a - 1) * log u0 modulo
|l*|. Every element is checked against it on construction, products and
powers included; g^n = (n*a, c^((Q^n - 1)/(Q - 1))) for Q = q^a is one
closed form, negative n and the inverse g^-1 included. The group law, the
ramification filtration and the invariant factors come from these pairs.
"""

from __future__ import annotations

import functools
import math
import operator

from .ffield import FieldElement, FieldTower, check_tower_shape
from .series import DEFAULT_PRECISION, LaurentSeries
from .snf import invariant_factors

DEGREE_CAP = 64
# The most terms a window keeps. Work grows about as precision squared:
# ``lcft check`` with 100 samples on (1048573, 1, 1, 4, "1"), the slowest
# descriptor per term, took 14 s at 128 and 38 s at 256 (Python 3.11 on a
# shared 2-vCPU host), so 128 keeps it inside a quarter of a minute.
PRECISION_CAP = 128

BASE_SYMBOL = "t"
EXT_SYMBOL = "alpha"


def twist_logs(logs, g, start, stride=1):
    """A window's image under g = (a, c), which sends lam to lam^(q^a)
    and alpha to c * alpha, on generator logs.

    ``logs`` holds the coefficients of X^start, X^(start + 1), ... (None
    for zero) in X = alpha^stride, the uniformizer of the subfield
    l((alpha^stride)) that a window in alpha^stride lies in. The term
    lam * X^n goes to lam^(q^a) * c^(stride*n) * X^n, so its log becomes
    (log lam * q^a + log c * stride * n) mod |l*|, with q^a read from
    ``g.frob``. The one formula of the action: ``GaloisElement.apply``
    and the crossed-product slots run it at stride 1, and the norm's
    stages at the stride of the field each stage's product lies in.
    """
    frob, c_log, order = g.frob, g.c_log * stride, g.ext.tower.order
    return [None if L is None else (L * frob + c_log * n) % order
            for n, L in enumerate(logs, start)]


def per_extension(build):
    """``build(ext, *args)``, run once per extension and argument tuple.

    The value is kept in the extension's one ``_memo`` dict, keyed on
    ``build`` and the arguments, so it lives and dies with the extension.
    Nothing is keyed by ``id``: CPython reuses an id once its object is
    freed, so an id-keyed table could hand a new extension a dropped
    one's tables. Every table an oracle keeps per extension is built
    this way.
    """
    @functools.wraps(build)
    def memo(ext, *args):
        key = (build, *args)
        try:
            return ext._memo[key]
        except KeyError:
            value = ext._memo[key] = build(ext, *args)
            return value
    return memo


def _check_integers(p, q, f, e, precision):
    """Refuse a descriptor on what its integers alone decide: tameness
    (p does not divide e), existence (e divides q - 1), the degree cap
    and the precision cap; return (e, precision) as ints."""
    e, precision = operator.index(e), operator.index(precision)
    if e < 1:
        raise ValueError("ramification index must be positive")
    if math.gcd(e, p) != 1:
        raise ValueError(
            f"e = {e} is divisible by p = {p}: wildly ramified "
            "extensions are out of scope")
    if (q - 1) % e != 0:
        raise ValueError(
            f"e = {e} does not divide |k*| = {q - 1}: no tame "
            "abelian extension with this ramification exists over K")
    if e * f > DEGREE_CAP:
        raise ValueError(f"degree e*f = {e * f} exceeds the cap {DEGREE_CAP}")
    if precision < 1:
        raise ValueError("precision must be positive")
    if precision > PRECISION_CAP:
        raise ValueError(
            f"precision {precision} exceeds the cap {PRECISION_CAP}")
    return e, precision


class TameAbelianExtension:
    """L = l((alpha)) over K = k((t)) with alpha^e = u0 * t.

    Rejects wild input (p | e) and input with no tame abelian extension of
    the requested shape (e not dividing q - 1). Immutable after
    construction but for ``_memo``, the one dict of ``per_extension``:
    the Galois group, its distinguished generators and their relation
    exponent, the norm's stage plan and the Zech weights of its twisted
    squares, the norm-group presentation, the congruence search's
    probe-residue table and the characters' value tables are each built
    once there, by their own builders. u0 is a ``FieldElement``;
    ``from_parameters`` parses it from text.
    """

    def __init__(self, tower: FieldTower, e: int, u0: FieldElement,
                 precision: int):
        if not isinstance(u0, FieldElement):
            raise TypeError("u0 must be a FieldElement of the tower; "
                            "from_parameters parses text")
        if u0.tower is not tower:
            raise ValueError("u0 must live in the given tower")
        if not u0:
            raise ValueError("u0 must be a unit")
        e, precision = _check_integers(tower.p, tower.q, tower.f, e, precision)
        self.tower = tower
        self.e = e
        self.u0 = u0
        self.precision = precision
        self._memo = {}

    @classmethod
    def from_parameters(cls, p, t, f, e, u0="1",
                        precision=DEFAULT_PRECISION):
        """The extension of a descriptor, with u0 written as text ("g^k",
        "g", a bare integer or a coefficient list), as in a config file."""
        p, t, f = check_tower_shape(p, t, f)
        # refused on its integers before the tables are built: at the
        # size cap the build takes seconds and tens of MB
        _check_integers(p, p**t, f, e, precision)
        tower = FieldTower(p, t, f)
        return cls(tower, e, tower.parse(u0), precision)

    # -- convenience views ---------------------------------------------------

    @property
    def p(self):
        return self.tower.p

    @property
    def t(self):
        return self.tower.t

    @property
    def f(self):
        return self.tower.f

    @property
    def q(self):
        return self.tower.q

    @property
    def degree(self):
        return self.e * self.tower.f

    def descriptor(self) -> dict:
        return {
            "p": self.p, "t": self.t, "f": self.f, "e": self.e,
            "u0": str(self.u0), "precision": self.precision,
        }

    def __repr__(self):
        return (f"TameAbelianExtension(p={self.p}, t={self.t}, f={self.f}, "
                f"e={self.e}, u0={self.u0})")

    # -- series constructors and the K <-> L change of presentation ----------

    def uniformizer(self) -> LaurentSeries:
        """The distinguished uniformizer alpha of L."""
        return LaurentSeries.uniformizer(self.tower, EXT_SYMBOL,
                                         self.precision)

    def base_uniformizer(self) -> LaurentSeries:
        """The uniformizer t of K."""
        return LaurentSeries.uniformizer(self.tower, BASE_SYMBOL,
                                         self.precision)

    def constant(self, value) -> LaurentSeries:
        return LaurentSeries.constant(self.tower, EXT_SYMBOL, value,
                                      self.precision)

    def embed(self, x: LaurentSeries) -> LaurentSeries:
        """Re-express a K-series in L via t = u0^(-1) * alpha^e. Exact."""
        if x.symbol != BASE_SYMBOL:
            raise ValueError("embed expects a series in the base uniformizer")
        if x.tower is not self.tower:
            raise ValueError("series belongs to a different tower")
        # lam * t^n = lam * u0^(-n) * alpha^(e*n), on generator logs;
        # O(t^N) (no logs) embeds as O(alpha^(eN)) through the same loop
        m = self.tower.order
        norm_exp = self.tower.subfield_norm_exponent
        step = self.u0.log
        u0_pow = -step * x.valuation
        out = [None] * (self.e * len(x.logs))
        for j, lam in enumerate(x.logs):
            if lam is not None:
                if lam % norm_exp:
                    raise ValueError(
                        "base-field series has a coefficient outside k")
                out[j * self.e] = (lam + u0_pow) % m
            u0_pow -= step
        return LaurentSeries(self.tower, EXT_SYMBOL, self.e * x.valuation,
                             out)

    def project(self, x: LaurentSeries) -> LaurentSeries:
        """Re-express an L-series lying in K as a series in t.

        Audits membership: every retained exponent must be divisible by e
        and every coefficient must land in k after the u0-twist.
        """
        if x.symbol != EXT_SYMBOL:
            raise ValueError("project expects a series in alpha")
        if x.tower is not self.tower:
            raise ValueError("series belongs to a different tower")
        # O(alpha^N) (no logs) projects to O(t^ceil(N/e)) through the same
        # window arithmetic
        e = self.e
        m = self.tower.order
        norm_exp = self.tower.subfield_norm_exponent
        step = self.u0.log
        start = -((-x.valuation) // e)
        stop = (x.valuation + len(x.logs) - 1) // e
        out = [None] * (stop + 1 - start)
        for j, lam in enumerate(x.logs):
            if lam is None:
                continue
            n = x.valuation + j
            if n % e != 0:
                raise ValueError(
                    f"series is not in the base field: alpha^{n} term")
            lam_t = (lam + step * (n // e)) % m
            if lam_t % norm_exp:
                raise ValueError(
                    f"series is not in the base field: coefficient of "
                    f"alpha^{n} lies outside k")
            out[n // e - start] = lam_t
        return LaurentSeries(self.tower, BASE_SYMBOL, start, out)

    def is_base_member(self, x: LaurentSeries) -> bool:
        try:
            self.project(x)
        except ValueError:
            return False
        return True

    # -- the Galois group ------------------------------------------------------

    def identity(self) -> "GaloisElement":
        return GaloisElement(self, 0, 0)

    def _least_scale_log(self, a: int) -> int:
        """The least log c of a pair (a, c): ((q^a - 1)/e * log u0) mod
        |l*|/e.

        The pairs with first entry a solve e * log c = (q^a - 1) * log u0
        modulo |l*|. Tameness puts e | q - 1, which divides both q^a - 1
        and |l*|, so the congruence divides through by e: its e solutions
        are this one plus the multiples of |l*|/e.
        """
        tower = self.tower
        return ((tower.q**a - 1) // self.e * self.u0.log
                % (tower.order // self.e))

    @per_extension
    def galois_group(self) -> tuple:
        """All e*f elements (a, c), sorted by (a, generator exponent of c):
        for each a, the least log c plus each multiple of |l*|/e."""
        step = self.tower.order // self.e
        return tuple(
            GaloisElement(self, a, self._least_scale_log(a) + i * step)
            for a in range(self.f) for i in range(self.e))

    def inertia_generator(self) -> "GaloisElement":
        """(0, zeta_e) for the fixed primitive e-th root of unity."""
        return GaloisElement(self, 0, self.tower.order // self.e)

    @per_extension
    def residue_frobenius_lift(self) -> "GaloisElement":
        """The lift of residue Frobenius with the smallest-log alpha scale."""
        a = 1 % self.f
        return GaloisElement(self, a, self._least_scale_log(a))

    def frobenius_element(self) -> "GaloisElement":
        """The canonical Frobenius; only unramified extensions have one."""
        if self.e != 1:
            raise ValueError(
                "the canonical Frobenius needs an unramified extension")
        return self.residue_frobenius_lift()

    def ramification_group(self, i: int) -> tuple:
        """G_i in lower numbering, from the closed form for tame pairs.

        G_(-1) is everything, G_0 the inertia (a = 0), G_i trivial for
        i >= 1; see ramification_group_direct for the definition-level
        computation used to audit this.
        """
        if i < -1:
            raise ValueError("ramification index starts at -1")
        if i == -1:
            return self.galois_group()
        if i == 0:
            return tuple(g for g in self.galois_group() if g.a == 0)
        return (self.identity(),)

    def ramification_group_direct(self, i: int) -> tuple:
        """G_i from the definition: min valuation of g(z) - z over O_L.

        A pair moves the monomial lam * alpha^n to
        frobenius^a(lam) * c^n * alpha^n, so membership in G_i only
        depends on the retained exponents n <= i, and testing the
        coefficient condition on lam in {1, generator} is exhaustive.
        """
        if i < -1:
            raise ValueError("ramification index starts at -1")
        gen = self.tower.generator()
        probes = (self.tower.one(), gen)
        out = []
        for g in self.galois_group():
            ok = True
            for n in range(0, i + 1):
                cn = g.c ** n
                if any(lam.frobenius(g.a) * cn != lam for lam in probes):
                    ok = False
                    break
            if ok:
                out.append(g)
        return tuple(out)

    @per_extension
    def frobenius_relation_exponent(self) -> int:
        """The s with sigma^f = zeta^s for the distinguished generators.

        sigma is the smallest residue-Frobenius lift and zeta the inertia
        generator; together they generate the group with relation lattice
        spanned by (f, -s) and (0, e).
        """
        w = self.residue_frobenius_lift() ** self.f
        step = self.tower.order // self.e
        if w.a or w.c_log % step:
            raise ArithmeticError("sigma^f must land in inertia")
        return (w.c_log // step) % self.e

    def structure(self) -> tuple:
        """Invariant factors of the Galois group (trivial factors dropped)."""
        s = self.frobenius_relation_exponent()
        return tuple(invariant_factors([[self.f, -s], [0, self.e]]))

    def is_cyclic(self) -> bool:
        return len(self.structure()) <= 1


class GaloisElement:
    """The automorphism sending alpha to c * alpha and lam to lam^(q^a).

    Stored as (a, log c), ints (``operator.index``) with a reduced mod f
    and log c mod |l*|; ``c`` is a view that builds the FieldElement on
    each access, as ``LaurentSeries.coeffs`` does. There is one
    constructor and it always checks membership, so every element,
    including each product, inverse and power, satisfies
    c^e = u0^(q^a - 1). The check's q^a mod |l*| is kept as ``frob``, for
    products, powers (the inverse among them, with no group product), the
    action, the norm and the algebra.
    """

    __slots__ = ("ext", "a", "c_log", "frob")

    def __init__(self, ext: TameAbelianExtension, a: int, c_log: int):
        tower = ext.tower
        m = tower.order
        a = operator.index(a) % tower.f
        c_log = operator.index(c_log) % m
        frob = pow(tower.q, a, m)
        # c^e = u0^(q^a - 1), on generator logs
        if (ext.e * c_log - (frob - 1) * ext.u0.log) % m:
            raise ValueError(
                "pair fails the membership constraint c^e = u0^(q^a - 1)")
        self.ext = ext
        self.a = a
        self.c_log = c_log
        self.frob = frob

    @property
    def c(self) -> FieldElement:
        """The alpha scale (built on each access)."""
        return FieldElement(self.ext.tower, self.c_log)

    def __repr__(self):
        return f"({self.a}, {self.c})"

    def __eq__(self, other):
        if not isinstance(other, GaloisElement):
            return NotImplemented
        return (self.ext is other.ext and self.a == other.a
                and self.c_log == other.c_log)

    def __hash__(self):
        return hash((id(self.ext), self.a, self.c_log))

    def __mul__(self, other: "GaloisElement") -> "GaloisElement":
        """Composition self after other: (a + a', c'^(q^a) * c)."""
        if not isinstance(other, GaloisElement):
            return NotImplemented
        if other.ext is not self.ext:
            raise ValueError("elements of different extensions")
        return GaloisElement(self.ext, self.a + other.a,
                             other.c_log * self.frob + self.c_log)

    def __pow__(self, n: int) -> "GaloisElement":
        """(n*a, c^((Q^n - 1)/(Q - 1))) for Q = q^a, by the group law.

        On logs the scale is log c times the geometric sum, mod |l*|: n
        for a = 0, else read off Q^n mod |l*| * (Q - 1), as Q - 1 divides
        Q^n - 1. Q is ``frob`` (q^a < |l*| for 0 < a < f) and prime to
        that modulus, so a negative n takes the same line: the sum at a
        negative exponent, with no inverse and no group product.
        """
        n = operator.index(n)
        big_q = self.frob
        if self.a:
            total = ((pow(big_q, n, self.ext.tower.order * (big_q - 1)) - 1)
                     // (big_q - 1))
        else:
            total = n
        return GaloisElement(self.ext, n * self.a, self.c_log * total)

    def is_identity(self) -> bool:
        return self.a == 0 and self.c_log == 0

    def order(self) -> int:
        """r * |l*| / gcd(log c', |l*|), where r = f / gcd(a, f) and
        (0, c') = self^r.

        self^k has first entry k*a mod f, which is 0 exactly when r | k,
        and self^(r*k) = (0, c'^k): the order is r times the order of c'
        in l*.
        """
        m = self.ext.tower.order
        r = self.ext.f // math.gcd(self.a, self.ext.f)
        return r * m // math.gcd((self ** r).c_log, m)

    def apply(self, beta: LaurentSeries) -> LaurentSeries:
        """Action on a series in alpha; valuation is preserved."""
        if beta.symbol != EXT_SYMBOL:
            raise ValueError("the Galois action acts on series in alpha")
        if beta.tower is not self.ext.tower:
            raise ValueError("series belongs to a different tower")
        return LaurentSeries(
            beta.tower, EXT_SYMBOL, beta.valuation,
            twist_logs(beta.logs, self, beta.valuation))
