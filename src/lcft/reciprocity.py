"""The explicit local reciprocity map and its independent oracles.

Three routes to the same Galois element are implemented and kept apart so
they can check each other:

* ``reciprocity_map``: a closed form for the pair (a, c) of the image of
  the class u * t^i, derived by evaluating the defining congruence at
  beta = alpha and beta = a residue generator. The same formula covers
  every valuation, negative ones included.
* ``reciprocity_search``: evaluates the congruence right-hand side as an
  exact series quotient at two probes, on one embedding of pi and u per
  call, and looks the pair of residues up in a table of the whole Galois
  group, built once per extension with the probes by applying each
  element to both; exactly one may match.
* ``norm_group``: the exact norm image inside Z x k* with its Smith-form
  presentation, giving kernel/cokernel facts (coset representatives, and
  through ``is_norm`` which classes are norms) without reference to
  either formula. Its ``norm`` multiplies Galois conjugates, grouped by
  transitivity of the norm down a tower of fixed fields: one stage per
  prime p of e, smallest first, each mapping l((alpha^d)) onto
  l((alpha^(dp))), then the Frobenius stage from the inertia field
  M = l((alpha^e)) to K. Each stage is a cyclic product of order m = p
  or f along a doubling chain over the bits of m,
  floor(log2 m) + popcount(m) - 1 series products rather than m - 1, on
  the window of the field its factor lies in: ceil(n/d) terms in
  alpha^d, and ceil(n/e) in the Frobenius stage. After an inertia stage
  the terms off its fixed field must be zero (an ArithmeticError naming
  the stage) and are dropped; the result is audited to lie in K.

Every table an oracle keeps per extension (the search's probe table, the
norm's stage plan and the Zech weights of its twisted squares, the norm
group) is the value of a builder under ``extension.per_extension``, built
on first use into the extension's one memo.

Base-field classes are reduced pairs (valuation, unit residue), written
``BaseFieldClass(tower, v, unit_log)`` with ``b.unit`` a view; 1-units are
discarded throughout because they are norms in the tame case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .extension import (BASE_SYMBOL, EXT_SYMBOL, GaloisElement,
                        TameAbelianExtension, per_extension, twist_logs)
from .ffield import FieldElement, FieldTower, prime_factors
from .series import LaurentSeries, _convolve, _square, _square_plan
from .snf import invariant_factors


# not frozen: a frozen __init__ costs 1 us more, 2^20 - 1 times in a k* walk
@dataclass(unsafe_hash=True, slots=True)
class BaseFieldClass:
    """The class of u * t^valuation modulo 1-units, on the log of u.

    ``unit`` is a view, as ``GaloisElement.c`` is. The one constructor
    checks on ints that u is nonzero and in k (its log a multiple of
    |l*|/|k*|) and reduces the log mod |l*|.
    """

    tower: FieldTower
    valuation: int
    unit_log: int

    def __post_init__(self):
        if self.unit_log is None:
            raise ValueError("unit residue must be nonzero")
        if self.unit_log % self.tower.subfield_norm_exponent:
            raise ValueError("unit residue must lie in the base residue field")
        self.unit_log %= self.tower.order

    @property
    def unit(self) -> FieldElement:
        return FieldElement(self.tower, self.unit_log)

    def __mul__(self, other: "BaseFieldClass") -> "BaseFieldClass":
        if other.tower is not self.tower:
            raise ValueError("classes over different towers")
        return BaseFieldClass(self.tower, self.valuation + other.valuation,
                              self.unit_log + other.unit_log)

    def __repr__(self):
        return f"[v={self.valuation}, u={self.unit}]"


def class_of_series(b: LaurentSeries) -> BaseFieldClass:
    """Reduce a nonzero K-series to its (valuation, unit residue) class,
    over the series' own tower (``reciprocity_map`` refuses another)."""
    if b.symbol != BASE_SYMBOL:
        raise ValueError("expected a series in the base uniformizer")
    if b.is_zero():
        raise ValueError("the zero series has no class")
    return BaseFieldClass(b.tower, b.valuation, b.logs[0])


def _sign_constant(ext: TameAbelianExtension) -> FieldElement:
    """(-1)^(e-1) as an element of k."""
    if (ext.e - 1) % 2 == 0:
        return ext.tower.one()
    return ext.tower.minus_one()


def reciprocity_map(ext: TameAbelianExtension,
                    b: BaseFieldClass) -> GaloisElement:
    """Closed-form image of a base-field class under local reciprocity.

    The pair is a = i mod f and
        c = (-1)^((e-1)m) * u0^m * ubar^(-(q-1)/e),  m = (q^i-1)/e,
    which for i >= 0 is the exact residue of the defining congruence at
    beta = alpha; the membership constraint is re-checked on construction.

    It runs on generator logs, modulo |l*|:
        log c = m * log u0 - ((q-1)/e) * log ubar  (+ log(-1) for the sign),
    with m taken from q^i mod e*|l*|, which fixes m modulo |l*| without
    the integer q^i. q is prime to e*|l*|, so the same power serves a
    negative i, where q^i = 1 mod e still holds. As m(i + j) = m(i) +
    q^i * m(j) is the group law's rule for scales, theta(b^-1) =
    theta(b)^-1 follows from the formula, with no inverse taken. The sign
    needs m's parity, and the reduction keeps it: for odd p,
    |l*| = p^(tf) - 1 is even, and for p = 2 the log of -1 is 0. That log
    is the tower's ``minus_one_log``, read off |l*|; the search's
    ``_sign_constant`` takes -1 from the log table instead.
    """
    if b.tower is not ext.tower:
        raise ValueError("class over a different tower")
    q, e = ext.q, ext.e
    order = ext.tower.order
    m = (pow(q, b.valuation, e * order) - 1) // e
    c_log = m * ext.u0.log - (q - 1) // e * b.unit_log
    if (e - 1) * m % 2:
        c_log += ext.tower.minus_one_log
    return GaloisElement(ext, b.valuation, c_log)


def reciprocity_of_series(ext: TameAbelianExtension,
                          b: LaurentSeries) -> GaloisElement:
    """Reciprocity image of a full K-series; its 1-unit part is dropped."""
    return reciprocity_map(ext, class_of_series(b))


def congruence_inputs(ext: TameAbelianExtension, pi: LaurentSeries,
                      u: LaurentSeries, i: int, window: int) -> tuple:
    """The pair ((-1)^(e-1) pi, u), both embedded in L on ``window``
    terms, after checking that i >= 0, pi is a uniformizer and u a unit
    of K: the inputs of ``congruence_rhs`` for the class u * pi^i.

    Only the first ceil(window/e) terms of pi and u are embedded, since
    t = u0^(-1) alpha^e puts t-term j at alpha-term j*e; ``embed`` audits
    each of their coefficients to lie in k. Two ``embed`` calls, whatever
    the number of probes the pair serves.
    """
    if i < 0:
        raise ValueError("the congruence form needs a nonnegative exponent")
    if pi.symbol != BASE_SYMBOL or u.symbol != BASE_SYMBOL:
        raise ValueError("pi and u must be series in the base uniformizer")
    if pi.is_zero() or pi.valuation != 1:
        raise ValueError("pi must be a uniformizer of the base field")
    if u.is_zero() or u.valuation != 0:
        raise ValueError("u must be a unit of the base field")
    read = -(-window // ext.e)  # the t-terms j with j*e < window
    signed_pi = ext.embed(pi.truncate(read)).truncate(window) \
        * _sign_constant(ext)
    unit = ext.embed(u.truncate(read)).truncate(window)
    return signed_pi, unit


def congruence_rhs(ext: TameAbelianExtension, signed_pi: LaurentSeries,
                   unit: LaurentSeries, i: int,
                   beta: LaurentSeries) -> FieldElement:
    """Residue of beta^(q^i-1) / (((-1)^(e-1) pi)^(q^i-1)v * u^((q-1)v)).

    Here v is the base-field valuation of beta, so both exponents are
    integers because e divides q - 1. ``signed_pi`` and ``unit`` are the
    pair of ``congruence_inputs`` for (pi, u, i), embedded on beta's
    window of n terms, on which everything is exact. The quotient is
    always a unit; a nonzero valuation signals an internal error.

    The powers reduce their exponents modulo the 1-unit exponent of the
    window (``LaurentSeries.__pow__``), which leaves every retained term
    unchanged. When beta is a unit (v = 0, the search's omega probe) both
    exponents are 0 and the quotient is the numerator itself: no
    denominator is built or divided by.
    """
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    q, e = ext.q, ext.e
    v_l = beta.valuation
    num = beta ** (q**i - 1)
    exp_pi, rem1 = divmod((q**i - 1) * v_l, e)
    exp_u, rem2 = divmod((q - 1) * v_l, e)
    if rem1 or rem2:
        raise ArithmeticError("tameness makes these exponents integral")
    if exp_pi or exp_u:
        quotient = num / (signed_pi**exp_pi * unit**exp_u)
    else:
        # a unit beta (the omega probe): the denominator is exactly 1
        quotient = num
    if quotient.is_zero() or quotient.valuation != 0:
        raise ArithmeticError(
            "congruence quotient is not a unit: internal error")
    return quotient.residue()


def reciprocity_search(ext: TameAbelianExtension, pi: LaurentSeries,
                       u: LaurentSeries, i: int) -> GaloisElement:
    """Resolve the class of u * pi^i by a lookup in the group's probe table.

    The congruence residues at beta = alpha and at a residue-field
    generator pin the pair (a, c) completely in the tame case; exactly one
    group element may match. The group is scanned once per extension into
    a probe-residue table (``_probe_table``), which also holds the two
    probe series. Both probes keep the extension's window, so each call
    checks and embeds pi and u once (``congruence_inputs``, two ``embed``
    calls), evaluates ``congruence_rhs`` at both probes on that one
    embedding and looks the pair of residues up.
    """
    alpha, omega, table = _probe_table(ext)
    signed_pi, unit = congruence_inputs(ext, pi, u, i, alpha.precision)
    want = (congruence_rhs(ext, signed_pi, unit, i, alpha),
            congruence_rhs(ext, signed_pi, unit, i, omega))
    matches = table.get(want, ())
    if len(matches) != 1:
        raise ArithmeticError(
            f"congruence search found {len(matches)} matches; "
            "the tame rigidity argument guarantees exactly one")
    return matches[0]


@per_extension
def _probe_table(ext: TameAbelianExtension) -> tuple:
    """The probes alpha and omega, a residue-field generator, with every
    group element g keyed on the residues of g(alpha) / alpha and
    g(omega) / omega, each an exact series quotient; a key lists the
    elements that share it. Built once per extension by scanning the
    whole group, as (alpha, omega, table); ``norm_group`` builds its own
    alpha and omega.
    """
    alpha = ext.uniformizer()
    omega = ext.constant(ext.tower.generator())
    table = {}
    for g in ext.galois_group():
        key = ((g.apply(alpha) / alpha).residue(),
               (g.apply(omega) / omega).residue())
        table.setdefault(key, []).append(g)
    return alpha, omega, table


def norm(ext: TameAbelianExtension, beta: LaurentSeries) -> LaurentSeries:
    """Norm to the base field: the product of all Galois conjugates.

    The product runs down a tower of fixed fields, by transitivity of the
    norm, N_(L/K) = N_(M/K) o N_(L/M), with M = L^I the inertia field
    (Serre, *Local Fields*). N_(L/M) is taken one prime p of e at a time,
    smallest first: with d the product of the primes already taken, a
    stage maps L_d = l((alpha^d)) onto L_(dp) = l((alpha^(dp))), its
    group the cyclic Gal(L_d/L_(dp)), generated by h = zeta^(e/(dp)). The
    last stage, N_(M/K), is the product over sigma^j for j < f, which
    represent the cosets of I and act on M = l((alpha^e)) as its cyclic
    group. Each stage's cyclic product P_m = y * h(y) * ... * h^(m-1)(y),
    of order m = p or f, is built over the bits of m from the top, as
    Itoh and Tsujii chain Frobenius products in finite fields:
    P_2c = P_c * h^c(P_c), and P_(c+1) = y * h(P_c) on each 1 bit. Each
    step joins two disjoint runs of exponents, j < c and c <= j < 2c (or
    j = 0 and 1 <= j <= c), so a stage makes
    floor(log2 m) + popcount(m) - 1 series products instead of m - 1.
    Products of unit windows are exact modulo the window, so the
    regrouping gives the flat product of all e*f conjugates bit for bit.
    The plan of stages and its powers h^c (``_norm_plan``), and the
    weights of each twisted square per step and window length
    (``_square_weights``), are built once per extension.

    Every stage runs on the window of the field that holds its factor:
    y lies in L_d, whose terms sit at the powers of alpha^d, so its window
    is the every-d-th term of beta's n terms, ceil(n/d) logs in
    X = alpha^d, with the valuation a plain int in X. The lead of a
    product of units never cancels, so every step keeps all the window's
    terms. In an inertia stage h^c = (0, c) fixes the residue field and
    scales X by c^d, so each doubling step P_c * h^c(P_c) is one
    ``_square`` twisted by d * log c: it visits each pair of terms once
    and builds no image. The Frobenius stage's powers also move the
    coefficients by lam -> lam^(q^c), so P_c and sigma^c(P_c) are not one
    window under a scale; those steps, like every y * h(P_c) step, twist
    the window by ``twist_logs`` at stride d and run ``_convolve``. After
    an inertia stage its product lies in L_(dp): the stage checks that
    every term off the p-th slots is zero, raising ArithmeticError naming
    the stage if one is not, and keeps every p-th term, the window in
    alpha^(dp). The Frobenius stage so runs on ceil(n/e) terms, not n. No
    series is built until the end.

    The result is spread back to beta's window in alpha, audited to lie
    in K (``ext.project``) and returned as a series in t; its
    t-valuation is f times the alpha-valuation of beta.
    """
    if beta.symbol != EXT_SYMBOL:
        raise ValueError("the norm takes a series in alpha")
    if beta.tower is not ext.tower:
        raise ValueError("series belongs to a different tower")
    if beta.is_zero():
        raise ValueError("the norm of zero is not defined here")
    tower = ext.tower
    v, logs = beta.valuation, beta.logs
    for stride, keep, h, steps in _norm_plan(ext):
        n = len(logs)
        y, v_y = logs, v
        for g, one_bit in steps:
            if g.a == 0:
                # h^c only scales X = alpha^stride: a twisted square
                step = g.c_log * stride
                logs = _square(logs, step, v, tower,
                               _square_weights(ext, step, n))
            else:
                terms = [(i, a) for i, a in enumerate(logs) if a is not None]
                logs = _convolve(terms, twist_logs(logs, g, v, stride),
                                 [None] * n, 0, 0, n, tower)
            v *= 2
            if one_bit:
                y_terms = [(i, a) for i, a in enumerate(y) if a is not None]
                logs = _convolve(y_terms, twist_logs(logs, h, v, stride),
                                 [None] * n, 0, 0, n, tower)
                v += v_y
        if keep > 1:
            # the product lies in l((alpha^(stride*keep))); v is a multiple
            # of keep, so its terms sit at the slots i = 0 mod keep, and
            # every other slot must be zero
            kept = logs[::keep]
            if logs.count(None) - kept.count(None) != n - len(kept):
                i = next(i for i, a in enumerate(logs)
                         if a is not None and i % keep)
                raise ArithmeticError(
                    f"norm stage of degree {keep} in alpha^{stride}: "
                    f"term alpha^{stride * (v + i)} off the fixed field "
                    f"l((alpha^{stride * keep}))")
            logs = kept
            v //= keep
    # the window in alpha^e, spread back to beta's n terms in alpha
    window = [None] * len(beta.logs)
    window[::ext.e] = logs
    try:
        out = ext.project(LaurentSeries(tower, EXT_SYMBOL, ext.e * v,
                                        window))
    except ValueError as exc:
        raise ArithmeticError(
            f"norm image failed the base-membership audit: {exc}") from exc
    if out.valuation != ext.f * beta.valuation:
        raise ArithmeticError(
            f"norm has valuation {out.valuation}, not f * v(beta)")
    return out


@per_extension
def _norm_plan(ext: TameAbelianExtension) -> tuple:
    """The stages of ``norm``, with the Galois powers each applies.

    One tuple (stride, keep, h, steps) per stage: the stage's window is in
    alpha^stride, it keeps every keep-th term of its product, and h
    generates its cyclic group, of order m. First one stage per prime p of
    e, counted with multiplicity and smallest first, with stride d the
    product of the primes before it, keep = m = p and h = zeta^(e/(dp));
    then the Frobenius stage, with stride e, keep 1, the residue
    Frobenius lift as h and m = f. ``steps`` has one pair (h^c, bit) for
    each bit of m below the leading one, where c is the prefix of m read
    before that bit. Built once per extension, so a norm makes no group
    products; an inertia step's square weights (h^c = (0, c)) come from
    ``_square_weights``.
    """
    e, zeta = ext.e, ext.inertia_generator()
    stages = []
    d = 1
    for p in prime_factors(e):
        while e % (d * p) == 0:
            stages.append((d, p, zeta ** (e // (d * p)), p))
            d *= p
    stages.append((e, 1, ext.residue_frobenius_lift(), ext.f))
    return tuple(
        (stride, keep, h,
         tuple((h ** (m >> (k + 1)), bool(m >> k & 1))
               for k in reversed(range(m.bit_length() - 1))))
        for stride, keep, h, m in stages)


@per_extension
def _square_weights(ext: TameAbelianExtension, step: int, n: int) -> tuple:
    """The ``_square_plan`` of a twisted square of the norm at this step on
    a window of n terms, built once per extension, step and n."""
    return _square_plan(step, n, ext.tower)


@dataclass(frozen=True)
class NormGroupPresentation:
    """K*/N(L*) as the cokernel of the norm image inside Z x k*.

    Plain data; ``is_norm`` answers membership. The unit coordinate is
    the discrete log with respect to ``subfield_generator``.
    ``generator_rows`` are the classes of the norms of alpha and of a
    residue generator; ``relation_matrix`` adds the ambient relation
    (0, q-1), and its Smith form gives the quotient's invariant factors.
    """

    subfield_generator: FieldElement
    generator_rows: tuple
    relation_matrix: tuple
    invariant_factors: tuple
    coset_representatives: tuple
    quotient_order: int


@per_extension
def norm_group(ext: TameAbelianExtension) -> NormGroupPresentation:
    """Smith-form presentation of K* modulo the norm image.

    Generated by the classes of N(alpha) and N(omega) for a residue
    generator omega; 1-units contribute nothing because they are norms.
    The quotient order must come out as e*f. Built once per extension.
    """
    tower = ext.tower
    gen = tower.generator()
    gk = tower.subfield_generator()
    big_q = tower.subfield_units

    alpha_norm = norm(ext, ext.uniformizer())
    d1 = alpha_norm.leading_coefficient.subfield_log()
    omega_norm = norm(ext, ext.constant(gen))
    d2 = omega_norm.leading_coefficient.subfield_log()

    rows = [[ext.f, d1], [0, d2], [0, big_q]]
    factors = tuple(invariant_factors(rows))
    order = math.prod(factors)
    if order != ext.degree:
        raise ArithmeticError(
            f"norm quotient has order {order}, expected {ext.degree}")

    d = math.gcd(d2, big_q)
    if ext.f * d != ext.degree:
        raise ArithmeticError(f"norm group has {ext.f * d} coset "
                              f"representatives, expected {ext.degree}")
    reps = tuple(BaseFieldClass(tower, i, gk.log * j)
                 for i in range(ext.f) for j in range(d))
    return NormGroupPresentation(
        subfield_generator=gk,
        generator_rows=((ext.f, d1), (0, d2)),
        relation_matrix=tuple(tuple(r) for r in rows),
        invariant_factors=factors,
        coset_representatives=reps,
        quotient_order=order)


def is_norm(ext: TameAbelianExtension, b: BaseFieldClass) -> bool:
    """Norm-group membership of a class (v, u), the one route to it:
    solves m * (f, d1) + n * (0, d2) = (v, log u) modulo (0, q - 1) on
    ``norm_group``'s generator rows, with log u on k's generator."""
    if b.tower is not ext.tower:
        raise ValueError("class over a different tower")
    (f, d1), (_, d2) = norm_group(ext).generator_rows
    if b.valuation % f:
        return False
    big_q = ext.q - 1
    rem = (b.unit_log // b.tower.subfield_norm_exponent
           - b.valuation // f * d1) % big_q
    return rem % math.gcd(d2, big_q) == 0


def _below(rng, n: int) -> int:
    """A uniform draw from range(n), the same draw as ``rng.randrange(n)``.

    It calls ``rng.getrandbits(n.bit_length())`` until the value falls
    below n. That is the rejection rule of ``random.Random.randrange``,
    so a seed gives the same stream draw for draw, without randrange's
    argument handling. Raises ValueError for n < 1, where no draw exists
    (and ``getrandbits(0)``, always 0, would loop for ever at n = 0).
    """
    if n < 1:
        raise ValueError(f"no draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_logs(tower, rng, count: int) -> list:
    """Logs of ``count`` uniform random elements of l (None for zero).

    Each is a draw r = ``_below(rng, |l|)``, read as zero for r = 0 and
    as the log r - 1 otherwise; the loop inlines ``_below``. The one
    sampler of series windows: ``random_unit_series``, the crossed
    product's random elements and the root-extraction check all draw
    through it.
    """
    size = tower.size
    if size < 1:
        raise ValueError(f"no draw below {size}")
    k = size.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= size:
            r = bits(k)
        out.append(r - 1 if r else None)
    return out


def random_unit_series(ext: TameAbelianExtension, rng,
                       valuation: int = 0) -> LaurentSeries:
    """A random L-series with unit leading coefficient, at ext precision."""
    tower = ext.tower
    logs = [_below(rng, tower.order)]
    logs += random_logs(tower, rng, ext.precision - 1)
    return LaurentSeries(tower, EXT_SYMBOL, valuation, logs)


def random_base_unit_series(ext: TameAbelianExtension, rng,
                            valuation: int = 0) -> LaurentSeries:
    """A random unit of K: coefficients drawn from the subfield k.

    Each coefficient is a draw j below |k*| + 1: j = |k*| is zero (one
    for the leading coefficient, which must be a unit) and any other j is
    the j-th power of k's generator.
    """
    tower = ext.tower
    gk = tower.subfield_norm_exponent    # the log of k's generator
    units = tower.subfield_units
    logs = [None if j == units else gk * j % tower.order
            for j in [_below(rng, units + 1)
                      for _ in range(ext.precision)]]
    if logs[0] is None:
        logs[0] = 0
    return LaurentSeries(tower, BASE_SYMBOL, valuation, logs)
