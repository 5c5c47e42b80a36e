"""Property suite for one extension: every library-level invariant.

Each check returns its findings ``(failures, detail)``: the list of
failure messages, empty when its laws hold, and the detail of a pass ("",
or "skipped: why" for a law that does not apply). ``run_checks`` runs the
whole suite from one table, which names each check's result, each sampled
check on its own stream drawn from the seed and that name, and builds
every ``CheckResult``. The CLI ``check`` command runs the suite, and each
acceptance criterion in ``tests/test_acceptance.py`` runs one of these
checks, so each criterion has one implementation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import brauer, reciprocity as rc
from .extension import BASE_SYMBOL, EXT_SYMBOL, TameAbelianExtension
from .series import LaurentSeries


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        # a law that does not apply passes with the detail "skipped: why"
        if self.passed and self.detail.startswith("skipped: "):
            return f"SKIP {self.name}: {self.detail.removeprefix('skipped: ')}"
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}" + (
            f": {self.detail}" if self.detail and not self.passed else "")


def check_group_axioms(ext: TameAbelianExtension) -> tuple[list[str], str]:
    """Exhaustive closure, identity, inverses, commutativity, size.

    The products run over unordered pairs {g, h}, h = g included: g * h is
    tested for closure and h * g against it, n(n + 1) products for n
    elements. That still decides every ordered pair: h * g either equals
    g * h, a tested member, or fails commutativity."""
    group = ext.galois_group()
    failures = []
    if len(group) != ext.degree:
        failures.append(f"group size {len(group)} != {ext.degree}")
    members = set(group)
    ident = ext.identity()
    for k, g in enumerate(group):
        if g * ident != g:
            failures.append(f"identity fails on {g}")
        if not (g * g ** -1).is_identity():
            failures.append(f"inverse fails on {g}")
        for h in group[k:]:
            gh = g * h
            if gh not in members:
                failures.append(f"not closed: {g} * {h}")
            if gh != h * g:
                failures.append(f"not commutative: {g}, {h}")
    return failures, f"{len(group)} elements, {len(group)**2} pairs"


def check_action_is_ring_hom(ext, rng, samples) -> tuple[list[str], str]:
    """apply respects + and * and fixes the embedded base field.

    On the same draws, two series laws under the strict ``==``: x times
    its inverse is 1 on x's whole window (an inverse at a lead other than
    1 included), and ``project`` takes the embedded base unit back to the
    drawn series, window end included."""
    failures = []
    t_emb = ext.embed(ext.base_uniformizer())
    one = LaurentSeries.one(ext.tower, EXT_SYMBOL, ext.precision)
    for n in range(samples):
        g = rng.choice(ext.galois_group())
        x = rc.random_unit_series(ext, rng, rng.randrange(-2, 3))
        y = rc.random_unit_series(ext, rng, rng.randrange(-2, 3))
        if g.apply(x * y) != g.apply(x) * g.apply(y):
            failures.append(f"multiplicativity fails for {g}")
        if g.apply(x + y) != g.apply(x) + g.apply(y):
            failures.append(f"additivity fails for {g}")
        if g.apply(t_emb) != t_emb:
            failures.append(f"{g} moves the base uniformizer")
        if x * x.inverse() != one:
            failures.append(f"x * x^-1 != 1 on sample {n}")
        base = rc.random_base_unit_series(ext, rng)
        emb = ext.embed(base)
        if g.apply(emb) != emb:
            failures.append(f"{g} moves an embedded base unit")
        try:
            round_trip = ext.project(emb) == base
        except ValueError:      # the membership audit refused emb
            round_trip = False
        if not round_trip:
            failures.append(f"project(embed(b)) != b on sample {n}")
    return failures, ""


def check_inertia_pairs(ext) -> tuple[list[str], str]:
    """g -> c is injective on inertia; inertia moves alpha to order 1."""
    failures = []
    inertia = ext.ramification_group(0)
    if len(inertia) != ext.e:
        failures.append(f"|G_0| = {len(inertia)} != e = {ext.e}")
    seen = {}
    alpha = ext.uniformizer()
    for g in inertia:
        if g.c in seen:
            failures.append(f"c map not injective: {g} vs {seen[g.c]}")
        seen[g.c] = g
        diff = g.apply(alpha) - alpha
        if not g.is_identity():
            if diff.is_zero() or diff.valuation != 1:
                failures.append(f"{g} should move alpha at valuation 1")
        if not g.is_identity() and (g.c - ext.tower.one()) == ext.tower.zero():
            failures.append(f"inertia element {g} has trivial residue pair")
    return failures, ""


def check_ramification_filtration(ext, rng, samples) -> tuple[list[str], str]:
    """Closed form vs direct definition for i in {-1, 0, 1, 2} + audits."""
    failures = []
    for i in (-1, 0, 1, 2):
        closed = set(ext.ramification_group(i))
        direct = set(ext.ramification_group_direct(i))
        if closed != direct:
            failures.append(f"G_{i}: closed form and definition disagree")
    if len(ext.ramification_group(0)) != ext.e:
        failures.append("|G_0| != e")
    if ext.ramification_group(1) != (ext.identity(),):
        failures.append("G_1 is not trivial")
    # sampled integral elements never contradict membership
    groups = [(i, set(ext.ramification_group(i))) for i in (-1, 0, 1)]
    for _ in range(samples):
        z = rc.random_unit_series(ext, rng, valuation=rng.randrange(0, 3))
        for g in ext.galois_group():
            diff = g.apply(z) - z
            v = diff.valuation if not diff.is_zero() else math.inf
            for i, g_i in groups:
                if g in g_i and v < i + 1:
                    failures.append(
                        f"{g} in G_{i} but moves a sample at valuation {v}")
    return failures, ""


def check_structure(ext) -> tuple[list[str], str]:
    failures = []
    factors = ext.structure()
    prod = math.prod(factors)
    if prod != ext.degree:
        failures.append(f"invariant factor product {prod} != {ext.degree}")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            failures.append("factors not in divisibility order")
    orders = sorted(g.order() for g in ext.galois_group())
    if factors and max(orders) != max(factors):
        failures.append("group exponent disagrees with largest factor")
    return failures, f"factors {list(factors)}"


def oracle_table(ext) -> list:
    """The closed form and the congruence search on every coset
    representative, at its valuation v and at v + f and v + 2f.

    One row (b, closed form at v, mismatches) per representative b, each
    mismatch as ``"{b_i}: closed {g} vs search {h}"``. The representatives
    have valuations 0..f-1, so when f = 1 they alone never leave
    m = (q^i - 1)/e = 0, where the sign (-1)^((e-1)m) of both oracles is 1;
    a period of valuations reaches it.
    """
    t = ext.base_uniformizer()
    rows = []
    for rep in rc.norm_group(ext).coset_representatives:
        u = LaurentSeries.constant(ext.tower, BASE_SYMBOL, rep.unit,
                                   ext.precision)
        found, mismatches = [], []
        for i in range(rep.valuation, rep.valuation + 3 * ext.f, ext.f):
            b = rc.BaseFieldClass(ext.tower, i, rep.unit_log)
            closed = rc.reciprocity_map(ext, b)
            searched = rc.reciprocity_search(ext, t, u, i)
            found.append(closed)
            if closed != searched:
                mismatches.append(f"{b}: closed {closed} vs search {searched}")
        rows.append((rep, found[0], mismatches))
    return rows


def check_oracle_agreement(ext) -> tuple[list[str], str]:
    """Closed form equals congruence search on every row of
    ``oracle_table``."""
    rows = oracle_table(ext)
    failures = [m for _, _, mismatches in rows for m in mismatches]
    return failures, f"{len(rows)} classes at v, v+f, v+2f"


def check_reciprocity_homomorphism(ext) -> tuple[list[str], str]:
    """theta(b1 * b2) = theta(b1) * theta(b2) on every pair of coset
    representatives: each representative is mapped once, then each
    unordered pair {b1, b2}, b2 = b1 included, maps only b1 * b2, so
    r + r(r + 1)/2 maps for r representatives. That decides every ordered
    pair: b2 * b1 is the class b1 * b2, as a class product adds integers,
    and g2 * g1 = g1 * g2 is decided by ``check_group_axioms``."""
    failures = []
    reps = rc.norm_group(ext).coset_representatives
    mapped = [(b, rc.reciprocity_map(ext, b)) for b in reps]
    for k, (b1, g1) in enumerate(mapped):
        for b2, g2 in mapped[k:]:
            if rc.reciprocity_map(ext, b1 * b2) != g1 * g2:
                failures.append(f"hom fails at {b1}, {b2}")
    return failures, ""


def check_kernel_and_bijection(ext, rng, samples) -> tuple[list[str], str]:
    """theta kills norms; theta is a bijection from classes to the group."""
    failures = []
    for n in range(samples):
        beta = rc.random_unit_series(ext, rng,
                                     valuation=rng.randrange(-3, 4))
        nb = rc.norm(ext, beta)
        if not rc.reciprocity_of_series(ext, nb).is_identity():
            failures.append(f"theta(N(beta)) != 1 on sample {n}")
    pres = rc.norm_group(ext)
    if pres.quotient_order != ext.degree:
        failures.append(f"|K*/N| = {pres.quotient_order} != {ext.degree}")
    images = {rc.reciprocity_map(ext, b) for b in pres.coset_representatives}
    if len(images) != ext.degree or images != set(ext.galois_group()):
        failures.append("theta on coset representatives is not a bijection")
    return failures, f"{samples} norms"


def check_uniformizer_independence(ext, rng, samples) -> tuple[list[str], str]:
    """Searching with pi' = w*t and u' = u*w^(-i) resolves the same element.

    Blind spot: at a representative of valuation i = 0 the sampled search
    reads neither pi' nor w. There u' = u*w^0 = u, and the congruence
    raises pi' to the power (q^0 - 1)*v = 0 at both probes, so each sample
    repeats the search with pi = t and finds its element. Every
    representative of an f = 1 extension has valuation 0, so there the
    check is vacuous; only representatives of nonzero valuation test
    anything.
    """
    failures = []
    reps = rc.norm_group(ext).coset_representatives
    t = ext.base_uniformizer()
    # the search with pi = t does not depend on the sample: once per class
    units = [LaurentSeries.constant(ext.tower, BASE_SYMBOL, b.unit,
                                    ext.precision) for b in reps]
    found = [rc.reciprocity_search(ext, t, u1, b.valuation)
             for b, u1 in zip(reps, units)]
    valuations = {b.valuation for b in reps}
    for n in range(samples):
        w = rc.random_base_unit_series(ext, rng)
        pi2 = w * t
        # w^(-i) once per distinct valuation i of the representatives
        scales = {i: w ** -i for i in valuations}
        for b, u1, g1 in zip(reps, units, found):
            u2 = u1 * scales[b.valuation]
            g2 = rc.reciprocity_search(ext, pi2, u2, b.valuation)
            if g1 != g2:
                failures.append(f"sample {n}, {b}: {g1} vs {g2}")
    return failures, ""


def check_unramified_law(ext, rng, samples) -> tuple[list[str], str]:
    """e = 1: theta(b) = Frob^v(b) for every class, including 1-unit tails."""
    if ext.e != 1:
        return [], "skipped: e > 1"
    failures = []
    frob = ext.frobenius_element()
    step = ext.tower.subfield_norm_exponent
    for i in range(-ext.f, 2 * ext.f + 1):
        frob_i = frob**i
        # all of k*: the logs of its units are the multiples of |l*|/|k*|
        for u_log in range(0, ext.tower.order, step):
            b = rc.BaseFieldClass(ext.tower, i, u_log)
            if rc.reciprocity_map(ext, b) != frob_i:
                failures.append(f"theta(({i}, {b.unit})) != Frob^{i}")
    for n in range(samples):
        b = rc.random_base_unit_series(ext, rng,
                                       valuation=rng.randrange(-3, 4))
        if rc.reciprocity_of_series(ext, b) != frob**b.valuation:
            failures.append(f"series sample {n} violates the law")
    return failures, ""


def check_totally_ramified_laws(ext) -> tuple[list[str], str]:
    """f = 1: unit formula c = u^(-(q-1)/e) and the closed norm criterion."""
    if ext.f != 1:
        return [], "skipped: f > 1"
    failures = []
    m = ext.tower.order
    exp = (ext.q - 1) // ext.e
    # all of k*, on logs: c = u^(-exp), and u is a norm iff u^exp = 1
    for u_log in range(0, m, ext.tower.subfield_norm_exponent):
        b = rc.BaseFieldClass(ext.tower, 0, u_log)
        if rc.reciprocity_map(ext, b).c_log != -exp * u_log % m:
            failures.append(f"unit formula fails at {b.unit}")
        if rc.is_norm(ext, b) != (exp * u_log % m == 0):
            failures.append(f"norm criterion fails at {b.unit}")
    return failures, ""


def check_power_law(ext) -> tuple[list[str], str]:
    """theta((i, 1)) telescopes to theta((1, 1))^i for |i| <= 2ef.

    The power is the group's geometric sum (``GaloisElement.__pow__``),
    at a negative exponent for i < 0: a route that ``reciprocity_map``,
    which reads q^i off modulo e*|l*|, does not share."""
    failures = []
    tower = ext.tower
    base = rc.reciprocity_map(ext, rc.BaseFieldClass(tower, 1, 0))
    for i in range(-2 * ext.degree, 2 * ext.degree + 1):
        if rc.reciprocity_map(ext, rc.BaseFieldClass(tower, i, 0)) != base**i:
            failures.append(f"power law fails at i = {i}")
    return failures, ""


def check_norm_congruences(ext, rng, unit_samples,
                           uniformizer_samples) -> tuple[list[str], str]:
    """Residue identities satisfied by norms, checked on random samples.

    For a unit u of L: the residue of N(u) equals the residue norm of
    ubar raised to the e-th power. For a uniformizer w * alpha: the
    residue of N(pi_L) / ((-1)^(e-1) t)^f equals the residue norm of the
    unit pi_L^e / t.
    """
    failures = []
    for n in range(unit_samples):
        u = rc.random_unit_series(ext, rng)
        lhs = rc.norm(ext, u).residue()
        rhs = u.residue().norm_to_subfield() ** ext.e
        if lhs != rhs:
            failures.append(f"unit sample {n}: N(u) residue {lhs} != {rhs} "
                            f"for u = {u}")
    sign = ext.tower.one() if ext.e % 2 else ext.tower.minus_one()
    t_emb = ext.embed(ext.base_uniformizer())
    for n in range(uniformizer_samples):
        w = rc.random_unit_series(ext, rng)
        pi_l = w * ext.uniformizer()
        u_series = pi_l**ext.e / t_emb
        if u_series.valuation != 0:
            failures.append(f"uniformizer sample {n}: pi_L^e / t has "
                            f"valuation {u_series.valuation} for w = {w}")
            continue
        lhs = (rc.norm(ext, pi_l)
               / (ext.base_uniformizer() * sign) ** ext.f).residue()
        rhs = u_series.residue().norm_to_subfield()
        if lhs != rhs:
            failures.append(
                f"uniformizer sample {n}: {lhs} != {rhs} for w = {w}")
    return failures, f"{unit_samples}+{uniformizer_samples} samples"


def check_root_extraction(ext, rng, samples) -> tuple[list[str], str]:
    """nth_root inverts e-th powers on eligible random series, exactly:
    r^e == w holds only on w's whole window, so a short root fails."""
    failures = []
    tower = ext.tower
    e = ext.e
    for n in range(samples):
        # a random unit with its lead raised to the e-th power, so that the
        # lead has e-th roots, at a valuation divisible by e
        logs = rc.random_unit_series(ext, rng).logs
        w = LaurentSeries(tower, EXT_SYMBOL, e * rng.randrange(-2, 3),
                          (logs[0] * e % tower.order, *logs[1:]))
        r = w.nth_root(e)
        if r**e != w:
            failures.append(f"root sample {n}: r^e != w")
        if r.leading_coefficient != w.leading_coefficient.nth_roots(e)[0]:
            failures.append(f"root sample {n}: tie-break not deterministic")
    return failures, f"{samples} roots"


def check_hasse_layer(ext, rng, samples) -> tuple[list[str], str]:
    """The size of the character group, bilinearity, the inflation law,
    is_norm's invariance under N(alpha)^k off valuation 0, the faithful
    kernel and the algebra relations."""
    failures = []
    chars = brauer.character_group(ext)
    if len(set(chars)) != ext.degree:
        failures.append("character group has fewer than ef distinct "
                        "characters")
    pres = rc.norm_group(ext)
    reps = pres.coset_representatives
    for n in range(samples):
        c1, c2 = rng.choice(chars), rng.choice(chars)
        b1, b2 = rng.choice(reps), rng.choice(reps)
        h11 = brauer.hasse_invariant(c1, b1)
        if brauer.hasse_invariant(c1, b1 * b2) != (
                h11 + brauer.hasse_invariant(c1, b2)) % 1:
            failures.append(
                f"bilinearity fails in the class slot on sample {n}")
        if brauer.hasse_invariant(c1 + c2, b1) != (
                h11 + brauer.hasse_invariant(c2, b1)) % 1:
            failures.append(
                f"bilinearity fails in the character slot on sample {n}")
    # the inflation law: a chi trivial on inertia factors through
    # Gal(K_f/K), so its invariant is v(b) * chi(lift) for the Frobenius
    # lift (for e = 1, the unramified formula)
    lift, zeta = ext.residue_frobenius_lift(), ext.inertia_generator()
    # per representative: is it a norm, and does theta(b) generate?
    rep_facts = [(b, rc.is_norm(ext, b),
                  rc.reciprocity_map(ext, b).order() == ext.degree)
                 for b in reps]
    # b * N(alpha)^k is b's class modulo norms, at valuation v + k*f:
    # is_norm must read the norm group's row (f, d1) off valuation 0
    (f, d1), _ = pres.generator_rows
    d1_log = d1 * pres.subfield_generator.log
    for b, b_is_norm, _ in rep_facts:
        for k in (-2, -1, 1, 2):
            shifted = b * rc.BaseFieldClass(ext.tower, k * f, k * d1_log)
            if rc.is_norm(ext, shifted) != b_is_norm:
                failures.append(f"is_norm moves under N(alpha)^{k} at {b}")
    for chi in chars:
        # chi at every representative, each evaluated once for all loops
        row = [brauer.hasse_invariant(chi, b) for b in reps]
        inflated = chi(lift) if chi(zeta) == 0 else None
        for b, inv in zip(reps, row):
            if ext.degree % inv.denominator:
                failures.append(f"invariant order does not divide ef at {b}")
            if inflated is not None and inv != (b.valuation * inflated) % 1:
                failures.append(f"inflation law fails at {b}")
        if not chi.is_faithful():
            continue
        for (b, b_is_norm, generates), inv in zip(rep_facts, row):
            if (inv == 0) != b_is_norm:
                failures.append(f"faithful kernel mismatch at {b}")
            if generates and inv.denominator != ext.degree:
                failures.append("invariant of a generator not of order ef")
    if ext.is_cyclic():
        sigma = next(g for g in ext.galois_group()
                     if g.order() == ext.degree)
        t_class = rc.BaseFieldClass(ext.tower, 1, 0)
        r = brauer.frobenius_exponent(sigma)
        theta_t = rc.reciprocity_map(ext, t_class)
        if sigma**r != theta_t:
            failures.append("frobenius exponent inconsistent with theta")
        if theta_t.order() == ext.degree and math.gcd(r, ext.degree) != 1:
            failures.append("exponent not coprime although t generates")
        # eta-version: a generator-unit class always resolves coprimally
        if ext.f == 1 and ext.degree > 1:
            gk = ext.tower.subfield_generator()
            r_eta = brauer.exponent_of(sigma, rc.reciprocity_map(
                ext, rc.BaseFieldClass(ext.tower, 0, gk.log)))
            if math.gcd(r_eta, ext.degree) != 1:
                failures.append("unit-class exponent not coprime")
        failures.extend(brauer.cyclic_algebra_check(
            sigma, t_class, rng, samples=samples)[:3])
    return failures, ""


def run_checks(ext: TameAbelianExtension, samples: int, seed: int) -> list:
    """The full per-extension suite, one row of its table per check, and
    one ``CheckResult`` per row.

    A row is (result name, check, sample counts); the table is the one
    list of result names. A check with sample counts draws from its own
    stream, ``random.Random(f"{seed}:{name}")``: a string seed is stable
    across processes and Python versions, unlike ``hash()``. So a check's
    samples depend only on the seed and its name, and
    ``check_X(ext, random.Random(f"{seed}:{name}"), *counts)`` replays
    check X alone, returning its findings ``(failures, detail)``. The table
    is built on each call, so it reads the module's ``check_*`` names as
    they stand when it runs.

    A result passes when its check found no failure. A failed result's
    detail joins the first three failures with "; ", and a passed one's is
    the check's pass detail. A ValueError or ArithmeticError raised inside
    a check is that check's one failure, "raised <Type>: <message>", and
    the later checks still run. Any other exception, an AssertionError
    included, propagates.
    """
    small = max(10, samples // 10)
    table = (
        ("group-axioms", check_group_axioms, ()),
        ("galois-action-ring-hom", check_action_is_ring_hom, (small,)),
        ("inertia-pair-injectivity", check_inertia_pairs, ()),
        ("ramification-filtration", check_ramification_filtration, (small,)),
        ("abelian-structure", check_structure, ()),
        ("oracle-agreement", check_oracle_agreement, ()),
        ("reciprocity-homomorphism", check_reciprocity_homomorphism, ()),
        ("kernel-and-bijection", check_kernel_and_bijection,
         (max(samples, 200),)),
        ("uniformizer-independence", check_uniformizer_independence, (small,)),
        ("unramified-law", check_unramified_law, (small,)),
        ("totally-ramified-laws", check_totally_ramified_laws, ()),
        ("reciprocity-power-law", check_power_law, ()),
        ("norm-congruences", check_norm_congruences, (samples, small)),
        ("hensel-root-extraction", check_root_extraction, (samples,)),
        ("hasse-layer", check_hasse_layer, (samples,)),
    )
    results = []
    for name, check, counts in table:
        stream = (random.Random(f"{seed}:{name}"),) if counts else ()
        try:
            failures, detail = check(ext, *stream, *counts)
        except (ValueError, ArithmeticError) as exc:
            failures = [f"raised {type(exc).__name__}: {exc}"]
        results.append(CheckResult(name, not failures,
                                   "; ".join(failures[:3]) if failures
                                   else detail))
    return results
