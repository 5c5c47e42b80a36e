import math
from fractions import Fraction
from itertools import product

import pytest

from conftest import galois_element, make_series
from lcft.cli import build_extension
from lcft.extension import GaloisElement, TameAbelianExtension
from lcft.ffield import FieldTower
from lcft.reciprocity import random_unit_series
from lcft.series import LaurentSeries


# the benchmark's high-degree descriptors: groups of order 63, 58 and 62
HIGH_DEGREE_PARAMS = [(2, 6, 1, 63, "1"), (59, 1, 1, 58, "g"),
                      (2, 10, 2, 31, "g")]


def test_construction_examples(matrix):
    assert matrix["unram_f2"].degree == 2
    assert matrix["ram_e2"].degree == 2
    assert matrix["mixed_c9"].degree == 9


def test_u0_is_a_field_element_and_text_goes_through_from_parameters():
    tower = TameAbelianExtension.from_parameters(2, 2, 3, 3, "g").tower
    for u0 in (1, "g"):
        with pytest.raises(TypeError, match="FieldElement"):
            TameAbelianExtension(tower, 3, u0, 8)
    for text in ("g^5", "g", "3", "1,0,1"):
        ext = TameAbelianExtension.from_parameters(2, 2, 3, 3, text)
        assert ext.u0 == ext.tower.parse(text), text


def test_construction_rejections():
    with pytest.raises(ValueError, match="wild"):
        TameAbelianExtension.from_parameters(2, 1, 1, 2, "1")
    with pytest.raises(ValueError, match="does not divide"):
        TameAbelianExtension.from_parameters(5, 1, 1, 3, "1")
    with pytest.raises(ValueError, match="cap"):
        TameAbelianExtension.from_parameters(3, 4, 1, 80, "1", 16)
    with pytest.raises(ValueError, match="unit"):
        TameAbelianExtension.from_parameters(5, 1, 1, 2, "0")


def test_construction_refuses_a_non_integer_descriptor(monkeypatch):
    # a float precision once reached the first series as a list length
    tower = FieldTower(5, 1, 1)
    for cast in (float, Fraction):
        with pytest.raises(TypeError, match="as an integer"):
            TameAbelianExtension(tower, cast(2), tower.one(), 8)
        with pytest.raises(TypeError, match="as an integer"):
            TameAbelianExtension(tower, 2, tower.one(), cast(8))

    # from_parameters refuses each slot before the tables are built
    def refuse(*args, **kwargs):
        raise AssertionError("tables built for a refused descriptor")

    monkeypatch.setattr(FieldTower, "_build_tables", refuse)
    for slot in range(5):
        for cast in (float, Fraction):
            p, t, f, e, precision = [cast(x) if i == slot else x
                                     for i, x in enumerate((5, 1, 1, 4, 8))]
            with pytest.raises(TypeError, match="as an integer"):
                TameAbelianExtension.from_parameters(p, t, f, e, "1",
                                                     precision=precision)


def test_group_sizes_and_layout(matrix):
    for name, ext in matrix.items():
        group = ext.galois_group()
        assert len(group) == ext.degree, name
        per_a = {}
        for g in group:
            per_a[g.a] = per_a.get(g.a, 0) + 1
            assert g.c ** ext.e == ext.u0.frobenius(g.a) * ext.u0 ** -1
        assert all(count == ext.e for count in per_a.values())


def test_small_group_example(matrix):
    ext = matrix["ram_e2"]
    pairs = sorted((g.a, g.c.coeffs[0]) for g in ext.galois_group())
    assert pairs == [(0, 1), (0, 4)]   # solve c^2 = 1 in F_5


def test_trivial_group():
    ext = TameAbelianExtension.from_parameters(3, 1, 1, 1, "1")
    assert [g.is_identity() for g in ext.galois_group()] == [True]


def test_membership_invariant_rejected():
    ext = TameAbelianExtension.from_parameters(5, 1, 1, 2, "1")
    with pytest.raises(ValueError, match="membership"):
        galois_element(ext, 0, 2)      # 2^2 = 4 != 1


def test_constructor_accepts_exactly_the_members(matrix):
    # the int test on logs against the FieldElement form of c^e = u0^(q^a-1)
    for name in ("mixed_c9", "deg12", "mixed_e2_cyclic"):
        ext = matrix[name]
        tower = ext.tower
        accepted = 0
        for a in range(ext.f):
            rhs = ext.u0.frobenius(a) * ext.u0 ** -1
            for c_log in range(tower.order):
                member = tower.generator_power(c_log) ** ext.e == rhs
                try:
                    g = GaloisElement(ext, a, c_log)
                except ValueError as exc:
                    assert not member, (name, a, c_log)
                    assert "membership" in str(exc)
                else:
                    assert member, (name, a, c_log)
                    assert (g.a, g.c_log) == (a, c_log)
                    accepted += 1
        assert accepted == ext.degree, name


def test_products_recheck_membership(matrix):
    # an element that bypassed the constructor is caught by the next product
    ext = matrix["mixed_c9"]
    corrupt = object.__new__(GaloisElement)
    corrupt.ext, corrupt.a, corrupt.c_log, corrupt.frob = ext, 0, 1, 1
    with pytest.raises(ValueError):
        GaloisElement(ext, 0, 1)
    with pytest.raises(ValueError, match="membership"):
        corrupt * ext.identity()
    with pytest.raises(ValueError, match="membership"):
        ext.identity() * corrupt


def test_galois_element_rejects_bad_scales(matrix):
    # on F_5 with e = 2 and u0 = 1 the members are c = +-1, logs 0 and 2
    ext = matrix["ram_e2"]
    for c_log in (1, 3, 5, -1):
        with pytest.raises(ValueError, match="membership"):
            GaloisElement(ext, 0, c_log)
    assert [GaloisElement(ext, 0, c_log).c_log for c_log in (0, 2, 4)] \
        == [0, 2, 0]
    # nor is an element built from a non-integer a or log c, though it
    # would pass the membership test
    for x in (0.0, 2.0, Fraction(0), Fraction(2)):
        with pytest.raises(TypeError, match="as an integer"):
            GaloisElement(ext, x, 0)
        with pytest.raises(TypeError, match="as an integer"):
            GaloisElement(ext, 0, x)
    # nor is a power taken at a non-integer exponent, a = 0 or not
    for g in matrix["mixed_c9"].galois_group():
        for n in (0.5, 2.0, Fraction(1, 2)):
            with pytest.raises(TypeError, match="as an integer"):
                g ** n


def test_products_inverses_powers_are_members(matrix):
    # the group law builds every product, inverse and power through the
    # checking constructor; each result must be a member of the group and
    # carry its own twist q^a mod |l*|
    for name, ext in matrix.items():
        group = ext.galois_group()
        for g in group:
            derived = [g * h for h in group]
            derived += [g**k for k in range(-2, ext.degree + 2)]
            for x in derived:
                assert GaloisElement(ext, x.a, x.c_log) == x, (name, x)
                assert x in group, (name, x)
                assert x.frob == pow(ext.q, x.a, ext.tower.order), (name, x)


def test_power_matches_repeated_products_with_fewest_muls(matrix,
                                                          monkeypatch):
    # g**n is one closed form on the pair, with no group product: it
    # equals n-fold multiplication by g, and for n < 0 by the h in the
    # group with g * h = identity, found by a scan rather than a power
    calls = 0
    mul = GaloisElement.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    exts = dict(matrix)
    for params in HIGH_DEGREE_PARAMS:
        exts[params] = TameAbelianExtension.from_parameters(*params, 8)
    for name, ext in exts.items():
        group = ext.galois_group()
        span = range(-2 * ext.degree - 1, 2 * ext.degree + 2)
        for g in group:
            h = next(x for x in group if (g * x).is_identity())
            want = {0: ext.identity()}
            for k in range(1, span.stop):
                want[k] = want[k - 1] * g
                want[-k] = want[-k + 1] * h
            monkeypatch.setattr(GaloisElement, "__mul__", counting_mul)
            calls = 0
            for n in span:
                assert g**n == want[n], (name, g, n)
            assert calls == 0, (name, g, calls)
            monkeypatch.undo()


def test_compose_identity_and_inertia(matrix):
    ext = matrix["mixed_c9"]
    ident = ext.identity()
    for g in ext.galois_group():
        assert ident * g == g
        assert g * ident == g
    zeta = ext.inertia_generator()
    zs = [g for g in ext.galois_group() if g.a == 0]
    for g in zs:
        for h in zs:
            assert (g * h).a == 0
            assert (g * h).c == g.c * h.c      # inertia is the root group


def test_group_axioms_exhaustive(matrix):
    for name, ext in matrix.items():
        group = ext.galois_group()
        members = set(group)
        for g in group:
            assert (g * g ** -1).is_identity()
            for h in group:
                assert g * h == h * g, (name, g, h)
                assert g * h in members


def test_order_nine_generator_iterated(matrix):
    # iterate compose as the oracle for the element order
    ext = matrix["mixed_c9"]
    sigma = ext.residue_frobenius_lift()
    g = sigma
    n = 1
    while not g.is_identity():
        g = g * sigma
        n += 1
    assert n == 9
    # and the residue norm of c has order 3 in l*
    assert sigma.c.norm_to_subfield().log % (ext.tower.order // 3) == 0
    assert sigma.c.norm_to_subfield() != ext.tower.one()


def test_apply_examples(matrix):
    ext = matrix["mixed_c9"]
    alpha = ext.uniformizer()
    for g in ext.galois_group():
        assert g.apply(alpha) == ext.constant(g.c) * alpha
        assert g.apply(alpha).valuation == alpha.valuation
    # constants move by residue Frobenius
    lam = ext.tower.generator()
    g1 = next(g for g in ext.galois_group() if g.a == 1)
    assert g1.apply(ext.constant(lam)) == ext.constant(lam.frobenius(1))
    # the embedded base field is fixed
    t_emb = ext.embed(ext.base_uniformizer())
    for g in ext.galois_group():
        assert g.apply(t_emb) == t_emb


def test_apply_is_ring_hom(matrix, rng):
    for name, ext in matrix.items():
        for _ in range(10):
            g = rng.choice(ext.galois_group())
            x = random_unit_series(ext, rng, rng.randrange(-2, 3))
            y = random_unit_series(ext, rng, rng.randrange(-2, 3))
            assert g.apply(x * y) == g.apply(x) * g.apply(y), name
            assert g.apply(x + y) == g.apply(x) + g.apply(y), name


def test_apply_against_coefficientwise_reference(matrix, rng):
    # g(sum lam_j alpha^(v+j)) = sum lam_j^(q^a) c^(v+j) alpha^(v+j)
    for name in ("mixed_c9", "deg12"):
        ext = matrix[name]
        tower = ext.tower
        for g in ext.galois_group():
            for _ in range(3):
                lead = tower.generator_power(rng.randrange(tower.order))
                density = rng.random()
                rest = [tower.generator_power(rng.randrange(tower.order))
                        if rng.random() < density else tower.zero()
                        for _ in range(rng.randrange(0, 12))]
                v = rng.randrange(-6, 6)
                beta = make_series(tower, "alpha", v, [lead] + rest)
                want = [lam.frobenius(g.a) * g.c ** (v + j)
                        for j, lam in enumerate(beta.coeffs)]
                got = g.apply(beta)
                assert got.valuation == v, name
                assert got.coeffs == tuple(want), (name, g)


def test_inertia_moves_integral_elements_by_one(matrix, rng):
    for ext in matrix.values():
        for g in ext.ramification_group(0):
            if g.is_identity():
                continue
            for _ in range(5):
                beta = random_unit_series(ext, rng, rng.randrange(0, 3))
                diff = g.apply(beta) - beta
                assert diff.is_zero() or diff.valuation >= 1


def test_inertia_pair_map_injective(matrix):
    for ext in matrix.values():
        cs = [g.c for g in ext.ramification_group(0)]
        assert len(set(cs)) == len(cs) == ext.e


def test_ramification_sizes(matrix):
    for name, ext in matrix.items():
        assert len(ext.ramification_group(-1)) == ext.degree
        assert len(ext.ramification_group(0)) == ext.e, name
        assert ext.ramification_group(1) == (ext.identity(),)
        assert ext.ramification_group(2) == (ext.identity(),)


def test_ramification_closed_vs_direct(matrix):
    for name, ext in matrix.items():
        for i in (-1, 0, 1, 2):
            closed = set(ext.ramification_group(i))
            direct = set(ext.ramification_group_direct(i))
            assert closed == direct, (name, i)


def test_structure_examples(matrix):
    assert TameAbelianExtension.from_parameters(
        3, 1, 4, 1, "1").structure() == (4,)
    assert matrix["split_c3c3"].structure() == (3, 3)
    assert matrix["mixed_c9"].structure() == (9,)
    assert matrix["deg12"].structure() == (2, 6)
    assert matrix["mixed_e2_split"].structure() == (2, 2)
    assert matrix["mixed_e2_cyclic"].structure() == (4,)
    assert TameAbelianExtension.from_parameters(
        3, 1, 1, 1, "1").structure() == ()


def test_structure_against_order_statistics(matrix):
    # independent oracle: element orders of the abstract product group
    exts = dict(matrix)
    for params in HIGH_DEGREE_PARAMS:
        exts[params] = TameAbelianExtension.from_parameters(*params, 8)
    for name, ext in exts.items():
        factors = ext.structure()
        expected = sorted(
            _lcm_of_orders(combo, factors)
            for combo in product(*(range(d) for d in factors)))
        got = sorted(g.order() for g in ext.galois_group())
        assert got == expected, name


def _lcm_of_orders(combo, factors):
    out = 1
    for val, d in zip(combo, factors):
        order = d // math.gcd(val, d)
        out = out * order // math.gcd(out, order)
    return out


def test_embed_project_round_trip(matrix, rng):
    for ext in matrix.values():
        x = make_series(ext.tower, "t", -2, [1, 0, 1, 2, 0, 1],
                        ext.precision)
        assert ext.project(ext.embed(x)) == x
        emb = ext.embed(x)
        assert emb.valuation == -2 * ext.e
        assert ext.is_base_member(emb)


def _random_base_series(ext, rng):
    """A random K-series: a unit lead, then subfield elements or zeros.

    k* is walked as the logs of its units, the multiples of |l*|/|k*|.
    """
    tower = ext.tower
    units = range(0, tower.order, tower.subfield_norm_exponent)
    density = rng.random()
    logs = [rng.choice(units)] + [
        rng.choice(units) if rng.random() < density else None
        for _ in range(rng.randrange(0, 10))]
    return LaurentSeries(tower, "t", rng.randrange(-4, 4), logs)


def test_embed_project_against_reference(matrix, rng):
    # embed: lam * t^n = lam * u0^(-n) * alpha^(e*n), on FieldElements;
    # the extra extensions have l = F_2, F_3, F_2^6 and F_7^2
    extra = {params: TameAbelianExtension.from_parameters(*params)
             for params in [(2, 1, 1, 1, "1"), (3, 1, 1, 2, "g"),
                            (2, 6, 1, 7, "g"), (7, 2, 1, 4, "g")]}
    for name, ext in list(matrix.items()) + list(extra.items()):
        tower = ext.tower
        for _ in range(20):
            x = _random_base_series(ext, rng)
            want = [tower.zero()] * (ext.e * x.precision)
            for j, lam in enumerate(x.coeffs):
                want[j * ext.e] = lam * ext.u0 ** (-(x.valuation + j))
            emb = ext.embed(x)
            assert emb.valuation == ext.e * x.valuation, name
            assert emb.logs == tuple(c.log for c in want), name
            back = ext.project(emb)
            assert (back.valuation, back.logs) == (x.valuation, x.logs), name


def test_embed_project_and_apply_keep_the_honest_end(matrix):
    # O(t^N) embeds as O(alpha^(eN)), O(alpha^M) projects to
    # O(t^ceil(M/e)) and the Galois action keeps O(alpha^M), each through
    # the general window arithmetic
    for name, ext in matrix.items():
        tower, e = ext.tower, ext.e
        for n in range(-3, 4):
            emb = ext.embed(LaurentSeries(tower, "t", n, ()))
            assert (emb.valuation, emb.logs) == (e * n, ()), name
            back = ext.project(emb)
            assert (back.valuation, back.logs) == (n, ()), name
            for m in range(e * n, e * n + e):
                o = LaurentSeries(tower, "alpha", m, ())
                proj = ext.project(o)
                assert (proj.valuation, proj.logs) == (-(-m // e), ()), name
                for g in ext.galois_group()[:3]:
                    moved = g.apply(o)
                    assert (moved.valuation, moved.logs) == (m, ()), name


def test_no_zero_takes_a_non_integer_valuation(matrix, rng):
    # every zero is some O(X^N): scaling by 0, embed, project, the Galois
    # action, sums, differences and products of zeros keep an int end
    for name, ext in matrix.items():
        tower = ext.tower
        for _ in range(20):
            x = _random_base_series(ext, rng)
            y = random_unit_series(ext, rng, valuation=rng.randrange(-3, 4))
            zero_t = x * tower.zero()
            zero_a = y * tower.zero()
            assert (zero_t.valuation, zero_t.logs) == \
                (x.valuation + x.precision, ()), name
            assert (zero_a.valuation, zero_a.logs) == \
                (y.valuation + y.precision, ()), name
            got = [zero_t, zero_a, ext.embed(zero_t), ext.project(zero_a),
                   ext.project(ext.embed(zero_t)), zero_t + x, x - zero_t,
                   zero_a - zero_a, zero_a * y, y * zero_a, zero_a * zero_a,
                   zero_t * tower.zero(), zero_a ** 3]
            got += [g.apply(zero_a) for g in ext.galois_group()[:3]]
            for z in got:
                assert type(z.valuation) is int, (name, z)


def test_project_rejects_non_members(matrix):
    ext = matrix["mixed_c9"]
    with pytest.raises(ValueError, match="not in the base field"):
        ext.project(ext.uniformizer())     # alpha itself is not in K
    bad = ext.constant(ext.tower.generator())
    with pytest.raises(ValueError, match="not in the base field"):
        ext.project(bad)                    # generator residue outside k
    assert not ext.is_base_member(bad)


def test_embed_requires_subfield_coefficients(matrix):
    ext = matrix["mixed_c9"]
    bad = LaurentSeries.constant(ext.tower, "t", ext.tower.generator(), 4)
    with pytest.raises(ValueError, match="outside k"):
        ext.embed(bad)


def test_frobenius_element_only_unramified(matrix):
    frob = matrix["unram_f2"].frobenius_element()
    assert frob.a == 1
    with pytest.raises(ValueError):
        matrix["ram_e2"].frobenius_element()


def test_descriptor_round_trip(matrix):
    for ext in matrix.values():
        d = ext.descriptor()
        again = build_extension(d)
        assert again.descriptor() == d
        assert again.tower.modulus == ext.tower.modulus
        assert again.u0.coeffs == ext.u0.coeffs
