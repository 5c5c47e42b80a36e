import math
from collections import Counter
from fractions import Fraction

import pytest

from lcft import brauer
from lcft import reciprocity as rc
from lcft.extension import TameAbelianExtension
from lcft.series import LaurentSeries

from conftest import MATRIX_PARAMS, galois_element


def _pi_class(ext):
    return rc.BaseFieldClass(ext.tower, 1, 0)


def _from_generator(ext, sigma, numerator=1):
    """The character with value numerator/n on a full-order generator."""
    n = ext.degree
    if sigma.order() != n:
        raise ValueError("sigma does not generate the Galois group")
    value = Fraction(numerator, n) % 1
    (chi,) = [chi for chi in brauer.character_group(ext)
              if chi(sigma) == value]
    return chi


def _is_trivial(chi):
    return chi.order() == 1


def _reference_table(chi):
    """chi on every element, from a walk over sigma^mm zeta^nn, with
    chi(sigma) and chi(zeta) pinned to the numerators chi was built on."""
    ext = chi.ext
    sigma = ext.residue_frobenius_lift()
    zeta = ext.inertia_generator()
    x, y = chi(sigma), chi(zeta)
    assert (x, y) == (Fraction(chi._xn, ext.degree),
                      Fraction(chi._yn, ext.degree))
    values = {}
    g_row = ext.identity()
    for mm in range(ext.f):
        g = g_row
        for nn in range(ext.e):
            values[g] = (mm * x + nn * y) % 1
            g = g * zeta
        g_row = g_row * sigma
    assert len(values) == ext.degree
    return values


REFERENCE_EXTENSIONS = {
    **MATRIX_PARAMS,
    "ram_e58": (59, 1, 1, 58, "g"),
    "ram_e63": (2, 6, 1, 63, "1"),
    # u0 = g^5 puts the scale of sigma^2 past one step of zeta's scale,
    # so a closed form that drops the sigma^a offset reads the wrong j
    "mixed_c9_g5": (2, 2, 3, 3, "g^5"),
}


@pytest.mark.parametrize("name", REFERENCE_EXTENSIONS)
def test_character_closed_form_against_reference(name, matrix):
    ext = matrix.get(name) or TameAbelianExtension.from_parameters(
        *REFERENCE_EXTENSIONS[name], precision=8)
    group = ext.galois_group()
    for chi in brauer.character_group(ext):
        want = _reference_table(chi)
        for g in group:
            assert chi(g) == want[g], (name, chi._xn, chi._yn, g)
        # the image is cyclic: its order is the largest denominator
        assert chi.order() == max(v.denominator for v in want.values())


def test_character_rejects_a_non_homomorphism(matrix):
    # numerators over n = e*f: chi(sigma) = xn/n and chi(zeta) = yn/n
    ext = matrix["ram_e4"]                   # n = 4
    s = ext.frobenius_relation_exponent()
    with pytest.raises(ValueError):          # 1 * (1/4) != s * 0
        brauer.Character(ext, 1, 0)
    brauer.Character(ext, s, 1)              # both relations hold
    ext = matrix["mixed_c9"]                 # n = 9
    s = ext.frobenius_relation_exponent()
    with pytest.raises(ValueError):          # 3 * (1/9) != 0
        brauer.Character(ext, 0, 1)
    with pytest.raises(ValueError):          # 3 * (1/9) != s * 0
        brauer.Character(ext, 1, 0)
    brauer.Character(ext, s, 3)              # y = 1/3, x = s*y/3


def test_character_group_sizes_and_additivity(matrix):
    for name, ext in matrix.items():
        chars = brauer.character_group(ext)
        assert len(chars) == ext.degree
        assert len(set(chars)) == ext.degree
        group = ext.galois_group()
        for chi in chars:
            assert chi(ext.identity()) == 0
            for g in group:
                for h in group:
                    assert chi(g * h) == (chi(g) + chi(h)) % 1


def test_equal_characters_hash_equal_across_routes(matrix):
    # the sum and the numerator form, off by multiples of n, of one character
    for name, ext in matrix.items():
        chars = brauer.character_group(ext)
        n = ext.degree
        for c1 in chars:
            for c2 in chars[:4]:
                total = c1 + c2
                again = brauer.Character(
                    ext, c1._xn + c2._xn + n, c1._yn + c2._yn - 2 * n)
                assert total == again, name
                assert hash(total) == hash(again), name


def test_value_types_take_only_their_own_operands(matrix):
    # no int is lifted, no Fraction numerator accepted, no scalar division
    ext = matrix["mixed_c9"]
    tower = ext.tower
    one = tower.one()
    series = ext.base_uniformizer()
    with pytest.raises(TypeError):
        one + 1
    with pytest.raises(TypeError):
        2 * one
    with pytest.raises(TypeError):
        series * 2
    with pytest.raises(TypeError):
        2 * series
    with pytest.raises(TypeError):
        series / one
    with pytest.raises(TypeError):
        LaurentSeries.monomial(tower, "t", 1, 0, 4)
    with pytest.raises(TypeError):
        brauer.Character(ext, Fraction(1, 2), 0)
    # x ** -1 is the one inverse, and zero's powers keep their contract
    with pytest.raises(ZeroDivisionError):
        tower.zero() ** -1
    assert tower.zero() ** 0 == one


def test_faithful_character_counts(matrix):
    for name, ext in matrix.items():
        chars = brauer.character_group(ext)
        n_faithful = sum(1 for chi in chars if chi.is_faithful())
        if ext.is_cyclic():
            n = ext.degree
            expected = sum(1 for k in range(1, n + 1)
                           if math.gcd(k, n) == 1)
        else:
            expected = 0
        assert n_faithful == expected, name


def test_from_generator_examples(matrix):
    ext = matrix["mixed_c9"]
    sigma = ext.residue_frobenius_lift()
    chi = _from_generator(ext, sigma)
    assert chi(sigma) == Fraction(1, 9)
    assert chi(sigma**3) == Fraction(1, 3)    # additivity
    assert chi.is_faithful()
    trivial = _from_generator(ext, sigma, 0)
    assert _is_trivial(trivial)
    # faithful iff gcd(k, n) = 1
    assert not _from_generator(ext, sigma, 3).is_faithful()
    with pytest.raises(ValueError):
        _from_generator(ext, sigma**3)


def test_two_element_character(matrix):
    ext = matrix["unram_f2"]
    frob = ext.frobenius_element()
    chi = _from_generator(ext, frob)
    assert chi(frob) == Fraction(1, 2)        # the only nontrivial value


def test_hasse_invariant_examples(matrix):
    ext = matrix["unram_f2"]
    chi = _from_generator(ext, ext.frobenius_element())
    assert brauer.hasse_invariant(chi, _pi_class(ext)) == Fraction(1, 2)
    trivial = _from_generator(ext, ext.frobenius_element(), 0)
    assert brauer.hasse_invariant(trivial, _pi_class(ext)) == 0
    # norms land at 0 under any faithful character
    for b in rc.norm_group(ext).coset_representatives:
        assert (brauer.hasse_invariant(chi, b) == 0) == rc.is_norm(ext, b)


def test_unramified_invariant_formula(matrix, rng):
    ext = matrix["unram_f2"]
    frob = ext.frobenius_element()
    chars = brauer.character_group(ext)
    gk = ext.tower.subfield_generator()
    for chi in chars:
        for i in range(-3, 4):
            for j in range(ext.tower.subfield_units):
                b = rc.BaseFieldClass(ext.tower, i, (gk**j).log)
                assert brauer.hasse_invariant(chi, b) == \
                    (i * chi(frob)) % 1


def test_bilinearity(matrix, rng):
    for name, ext in matrix.items():
        chars = brauer.character_group(ext)
        reps = rc.norm_group(ext).coset_representatives
        for _ in range(25):
            c1, c2 = rng.choice(chars), rng.choice(chars)
            b1, b2 = rng.choice(reps), rng.choice(reps)
            assert brauer.hasse_invariant(c1, b1 * b2) == (
                brauer.hasse_invariant(c1, b1)
                + brauer.hasse_invariant(c1, b2)) % 1, name
            assert brauer.hasse_invariant(c1 + c2, b1) == (
                brauer.hasse_invariant(c1, b1)
                + brauer.hasse_invariant(c2, b1)) % 1, name


def test_faithful_invariant_has_full_order(matrix):
    for name, ext in matrix.items():
        if not ext.is_cyclic() or ext.degree == 1:
            continue
        chi = next(c for c in brauer.character_group(ext) if c.is_faithful())
        reps = rc.norm_group(ext).coset_representatives
        generator_b = next(
            b for b in reps
            if rc.reciprocity_map(ext, b).order() == ext.degree)
        inv = brauer.hasse_invariant(chi, generator_b)
        assert inv.denominator == ext.degree, name


def test_frobenius_exponent_unramified(matrix):
    ext = matrix["unram_f2"]
    assert brauer.frobenius_exponent(ext.frobenius_element()) == 1


def test_frobenius_exponent_mixed_generates(matrix):
    for name in ("mixed_c9", "mixed_e2_cyclic"):
        ext = matrix[name]
        sigma = next(g for g in ext.galois_group()
                     if g.order() == ext.degree)
        r = brauer.frobenius_exponent(sigma)
        assert sigma**r == rc.reciprocity_map(ext, _pi_class(ext))
        # the class of t generates here, so the exponent is a unit mod ef
        assert math.gcd(r, ext.degree) == 1, name


def test_frobenius_exponent_ramified_non_generator(matrix):
    # t is itself a norm for this extension, so its image is the identity
    ext = matrix["ram_e2"]
    sigma = galois_element(ext, 0, 4)
    r = brauer.frobenius_exponent(sigma)
    assert r == 0
    assert (sigma**r).is_identity()
    # the criterion residue ((-1)^(e-1) u0)^((q-1)/e) = 1 pins r mod 2
    crit = (ext.tower.minus_one() * ext.u0) ** ((ext.q - 1) // ext.e)
    assert crit == ext.tower.one()


def test_generator_unit_exponent_is_coprime_when_ramified(matrix):
    # the class of a residue generator always generates the quotient
    # of a totally ramified extension, so its exponent is invertible
    for name in ("ram_e2", "ram_e4"):
        ext = matrix[name]
        sigma = next(g for g in ext.galois_group()
                     if g.order() == ext.degree)
        gk = ext.tower.subfield_generator()
        target = rc.reciprocity_map(ext, rc.BaseFieldClass(ext.tower, 0, gk.log))
        r = brauer.exponent_of(sigma, target)
        assert sigma**r == target
        assert math.gcd(r, ext.degree) == 1, name


def test_cyclic_spec_requires_generator(matrix):
    ext = matrix["split_c3c3"]
    some = ext.galois_group()[1]
    with pytest.raises(ValueError):
        brauer.CrossedProduct(some, _pi_class(ext))


def test_crossed_product_square_example(matrix):
    # (delta v)^2 = delta sigma(delta) v^2 = -t * t for the quadratic case
    ext = matrix["ram_e2"]
    sigma = galois_element(ext, 0, 4)
    alg = brauer.CrossedProduct(sigma, _pi_class(ext))
    alpha = LaurentSeries.uniformizer(ext.tower, "alpha", 8)
    delta_v = alg.multiply(alg.scalar(alpha), alg.v())
    square = alg.multiply(delta_v, delta_v)
    t_emb = ext.embed(LaurentSeries.uniformizer(ext.tower, "t", 8))
    assert alg.equal(square,
                     alg.scalar(t_emb * t_emb * ext.tower.minus_one()))


def test_crossed_product_rank_one():
    from lcft.extension import TameAbelianExtension
    ext = TameAbelianExtension.from_parameters(3, 1, 1, 1, "1")
    alg = brauer.CrossedProduct(ext.identity(), _pi_class(ext))
    assert alg.equal(alg.power(alg.v(), 1), alg.scalar(alg.b_series))


CYCLIC_MATRIX = ("ram_e2", "ram_e4", "mixed_c9", "mixed_e2_cyclic",
                 "unram_f2")


def _algebra(ext):
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    return brauer.CrossedProduct(sigma, _pi_class(ext))


def test_crossed_product_power_is_repeated_multiplication(matrix, rng):
    for name in CYCLIC_MATRIX:
        alg = _algebra(matrix[name])
        for x in (alg.v(), alg.random_element(rng)):
            want = alg.one()
            for k in range(2 * alg.n + 2):
                assert alg.equal(alg.power(x, k), want), (name, k)
                want = alg.multiply(want, x)


def test_crossed_product_power_squares(matrix, rng, monkeypatch):
    multiply = brauer.CrossedProduct.multiply
    calls = []

    def counted(alg, x, y):
        calls.append(None)
        return multiply(alg, x, y)

    monkeypatch.setattr(brauer.CrossedProduct, "multiply", counted)
    for name in CYCLIC_MATRIX:
        alg = _algebra(matrix[name])
        x = alg.random_element(rng)
        for k in (*range(1, 2 * alg.n + 2), 1000):
            calls.clear()
            alg.power(x, k)
            assert len(calls) <= 2 * k.bit_length(), (name, k, len(calls))


def test_crossed_product_power_refuses_negative_and_inexact_exponents():
    alg = _algebra(TameAbelianExtension.from_parameters(5, 1, 1, 4, "1"))
    for k in (-1, -3):
        with pytest.raises(ValueError):
            alg.power(alg.v(), k)
    with pytest.raises(TypeError):
        alg.power(alg.v(), 1.0)


def test_cyclic_algebra_check(matrix, rng):
    for name in CYCLIC_MATRIX:
        ext = matrix[name]
        sigma = next(g for g in ext.galois_group()
                     if g.order() == ext.degree)
        failures = brauer.cyclic_algebra_check(sigma, _pi_class(ext), rng,
                                               samples=20)
        assert failures == [], (name, failures[:3])


def test_cyclic_algebra_check_pairs_linearly_in_the_rank(rng, monkeypatch):
    # x is dense and y, z have one or two slots, so a product pairs at most
    # 4n slots (x times yz, of up to four slots), where a dense y or z
    # pairs about n^2/4. A slot still sums several pairs: that is the path
    # on which the seed-1803 triple below failed.
    ext = TameAbelianExtension.from_parameters(59, 1, 1, 58, "g",
                                               precision=8)
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    multiply, convolve = brauer.CrossedProduct.multiply, brauer._convolve
    products, accumulators = [], []

    def counted_multiply(alg, x, y):
        products.append(Counter())
        return multiply(alg, x, y)

    def counted_convolve(terms, src, out, *window):
        products[-1][id(out)] += 1
        accumulators.append(out)    # alive, so no two share an id
        return convolve(terms, src, out, *window)

    monkeypatch.setattr(brauer.CrossedProduct, "multiply", counted_multiply)
    monkeypatch.setattr(brauer, "_convolve", counted_convolve)
    assert brauer.cyclic_algebra_check(sigma, _pi_class(ext), rng,
                                       samples=10) == []
    n = ext.degree
    assert max(sum(slots.values()) for slots in products) <= 4 * n
    # a slot of x(yz) sums up to four pairs
    assert max(max(slots.values(), default=0) for slots in products) >= 3


@pytest.mark.parametrize("params", [
    (3, 1, 1, 1, "1"),       # rank 1: one slot
    (3, 1, 1, 2, "g"),       # rank 2: the two draws often coincide
    (59, 1, 1, 58, "g"),     # rank 58
])
def test_random_sparse_fills_one_or_two_slots(params, rng, monkeypatch):
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    alg = brauer.CrossedProduct(sigma, _pi_class(ext))
    filled = Counter()
    for _ in range(100):
        state = rng.getstate()
        x = alg.random_sparse(rng)
        filled[sum(s is not None for s in x)] += 1
        assert not alg.equal(x, alg.zero())
        # the same draws from the same state
        rng.setstate(state)
        assert alg.random_sparse(rng) == x
    assert set(filled) == ({1} if alg.n == 1 else {1, 2})
    # every filled slot zero: the element falls back to one()
    monkeypatch.setattr(brauer, "random_logs",
                        lambda tower, rng, count: [None] * count)
    assert alg.random_sparse(rng) == alg.one()


# sample 82 of ``cyclic_algebra_check`` in ``lcft check --seed 1803`` on
# (5,1,1,4,"1"): each slot as (valuation, logs), None for an empty slot
SEED_1803_TRIPLE = (
    ((0, (0, 2, 1, 2, 1, None, 2, 0)), None, None,
     (-1, (2, 1, 2, 2, None, 2, 0, None))),
    ((5, (1,)), (-2, (0, 3, None, None, 3, 2, 1, 0)), None, None),
    ((-1, (3, 2, 1, 2, 0, 3, None, 1)), None, None,
     (2, (0, 2, 1, 1, 0, None, None, 3))),
)


def test_associativity_on_the_seed_1803_triple(matrix):
    # slot 3 of (xy)z cancels on its whole window: it is O(alpha^4), and
    # an empty slot there would claim terms nobody computed
    ext = matrix["ram_e4"]
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    alg = brauer.CrossedProduct(sigma, _pi_class(ext))
    x, y, z = (tuple(None if s is None
                     else LaurentSeries(ext.tower, "alpha", *s)
                     for s in element)
               for element in SEED_1803_TRIPLE)
    xy_z = alg.multiply(alg.multiply(x, y), z)
    x_yz = alg.multiply(x, alg.multiply(y, z))
    assert alg.equal(xy_z, x_yz)
    assert (xy_z[3].valuation, xy_z[3].logs) == (4, ())
    for got, want in ((xy_z, _reference_multiply(alg, _reference_multiply(
            alg, x, y), z)), (x_yz, _reference_multiply(
            alg, x, _reference_multiply(alg, y, z)))):
        assert _slots(got) == _slots(want)


def test_crossed_product_equal_is_agreement_on_the_common_window(matrix):
    ext = matrix["ram_e4"]
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    alg = brauer.CrossedProduct(sigma, _pi_class(ext))
    rest = alg.zero()[1:]

    def slot0(valuation, logs):
        return (LaurentSeries(ext.tower, "alpha", valuation, logs), *rest)

    # O(alpha^4) agrees with an empty slot and with any slot of
    # valuation >= 4, in either order, but not with one of valuation 3
    assert alg.equal(slot0(4, ()), alg.zero())
    assert alg.equal(alg.zero(), slot0(4, ()))
    for v in (4, 5, 9):
        assert alg.equal(slot0(4, ()), slot0(v, (0, 1)))
        assert alg.equal(slot0(v, (0, 1)), slot0(4, ()))
    assert not alg.equal(slot0(4, ()), slot0(3, (0, 1)))
    # nonzero slots: same valuation and the same common window
    assert alg.equal(slot0(0, (1, 2, 3)), slot0(0, (1, 2)))
    assert not alg.equal(slot0(0, (1, 2, 3)), slot0(0, (1, 3)))
    assert not alg.equal(slot0(0, (1, 2)), slot0(1, (1, 2)))
    # an empty slot agrees with exactly the zero slots, in either order
    assert not alg.equal(slot0(0, (1,)), alg.zero())
    assert not alg.equal(alg.zero(), slot0(0, (1,)))
    assert alg.equal(alg.zero(), alg.zero())


def test_an_empty_slot_is_none(matrix, rng):
    ext = matrix["ram_e4"]
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    alg = brauer.CrossedProduct(sigma, _pi_class(ext))
    assert alg.zero() == (None,) * alg.n
    assert alg.one()[1:] == (None,) * (alg.n - 1)
    state = rng.getstate()
    x = alg.random_element(rng)
    # each slot is drawn empty (None) or a series
    assert None in x and any(s is not None for s in x)
    assert alg.multiply(alg.zero(), x) == alg.zero()
    assert alg.multiply(x, alg.zero()) == alg.zero()
    # the draws: one random() per slot, then a window and a valuation only
    # where the slot is not empty
    rng.setstate(state)
    for s in x:
        empty = rng.random() < 0.5
        assert empty == (s is None)
        if not empty:
            rc.random_logs(ext.tower, rng, brauer.ALGEBRA_PRECISION)
            rng.randrange(-2, 3)


def _slots(element):
    """Each slot of a crossed-product element as (valuation, logs), None
    for an empty slot: the strict comparison of two products."""
    return [None if s is None else (s.valuation, s.logs) for s in element]


def _reference_multiply(alg, x, y):
    """The term-by-term product, pair by pair: each wrapped term is
    multiplied by b alone. Series sums keep the honest end, so this order
    and the slot-wise one give the same windows. A slot that no pair of
    nonempty slots reaches stays empty (None)."""
    out = list(alg.zero())
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a is None or b is None:
                continue
            term = a * alg.sigma_powers[i].apply(b)
            if i + j >= alg.n:
                term = term * alg.b_series
            k = (i + j) % alg.n
            out[k] = term if out[k] is None else out[k] + term
    return tuple(out)


def _count_kernel_steps(monkeypatch):
    """Make ``brauer._convolve`` count its steps: one per term (i, a) of
    ``terms`` with i <= k, at each output index k it fills."""
    steps = [0]
    convolve = brauer._convolve

    def counted(terms, src, out, offset, start, stop, tower):
        steps[0] += sum(1 for k in range(start, stop)
                        for i, _ in terms if i <= k)
        return convolve(terms, src, out, offset, start, stop, tower)

    monkeypatch.setattr(brauer, "_convolve", counted)
    return steps


def _window_steps(alg, x, y, want, outcomes):
    """The kernel steps of convolving each pair only over the final window,
    with ``want`` the reference product: a pair (i, j) of nonzero slots,
    of valuation v = v(x_i) + v(y_j) (plus v(b) when i + j wraps), into a
    slot whose window ends at E makes one step per nonzero term of x_i of
    index <= k, for each k < E - v. Adds each pair's outcome to
    ``outcomes``."""
    steps = 0
    for i, a in enumerate(x):
        if a is None or not a.logs:
            continue
        indices = [ii for ii, L in enumerate(a.logs) if L is not None]
        for j, b in enumerate(y):
            if b is None or not b.logs:
                continue
            wrapped = i + j >= alg.n
            v = a.valuation + b.valuation
            if wrapped:
                v += alg.b_series.valuation
            slot = want[(i + j) % alg.n]
            width = slot.valuation + slot.precision - v
            if wrapped:
                outcomes["wrapped pair past the window" if width <= 0 else
                         "wrapped pair in the window"] += 1
            if 0 < width < min(a.precision, b.precision):
                outcomes["pair cut by the window"] += 1
            steps += sum(1 for k in range(width) for ii in indices
                         if ii <= k)
    return steps


def _dense_element(alg, rng):
    """An element with every slot a random window of ALGEBRA_PRECISION
    terms at valuation -2..2: ``random_element`` with no slot left zero."""
    tower = alg.ext.tower
    out = []
    for _ in range(alg.n):
        logs = rc.random_logs(tower, rng, brauer.ALGEBRA_PRECISION)
        out.append(LaurentSeries(tower, "alpha", rng.randrange(-2, 3), logs))
    return tuple(out)


def _multiply_counting_steps(alg, x, y, steps, outcomes):
    """``alg.multiply(x, y)``, after checking it against the reference and
    that its kernel steps are those of ``_window_steps``."""
    before = steps[0]
    got = alg.multiply(x, y)
    want = _reference_multiply(alg, x, y)
    assert _slots(got) == _slots(want)
    assert steps[0] - before == _window_steps(alg, x, y, want, outcomes)
    return got


OUTCOMES = ("wrapped pair past the window", "wrapped pair in the window",
            "pair cut by the window")

# the kernel steps of each case below, pinned: a change that convolves
# terms outside a slot's window, or drops terms inside it, moves them
REFERENCE_STEPS = {
    (2, 1, 4, 1, "1"): 3836,
    (3, 1, 2, 2, "g"): 4284,
    (2, 6, 1, 9, "g"): 13141,
    (59, 1, 1, 58, "g"): 236821,
}


@pytest.mark.parametrize("params", [
    (2, 1, 4, 1, "1"),       # over F_2, unramified of degree 4
    (3, 1, 2, 2, "g"),       # over F_3, cyclic of order 4
    (2, 6, 1, 9, "g"),       # over F_2^6, totally ramified of degree 9
    (59, 1, 1, 58, "g"),     # over F_59, totally ramified of degree 58
])
def test_crossed_product_multiply_against_reference(params, rng,
                                                    monkeypatch):
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    gk = ext.tower.subfield_generator()
    steps = _count_kernel_steps(monkeypatch)
    outcomes = Counter()
    for sample in range(7):
        # the last class lies past every window of two dense elements, so
        # all their wrapped pairs fall past the window even when e = 1
        last = sample == 6
        b = rc.BaseFieldClass(ext.tower, 16 if last else rng.randrange(-1, 3),
                              gk.log * rng.randrange(ext.q - 1))
        alg = brauer.CrossedProduct(sigma, b)
        x = (alg.random_element(rng) if sample % 2 == 0 and not last
             else _dense_element(alg, rng))
        y = (alg.random_element(rng) if sample % 3 == 0 and not last
             else _dense_element(alg, rng))
        for left, right in ((x, y), (y, x), (alg.v(), x), (x, alg.one())):
            _multiply_counting_steps(alg, left, right, steps, outcomes)
    assert steps[0] == REFERENCE_STEPS[params]
    assert all(outcomes[o] for o in OUTCOMES), outcomes


def test_dense_product_skips_every_wrapped_sum(rng, monkeypatch):
    # b = t embeds as alpha^58, far past the 8-term windows at valuations
    # -4..4: every wrapped pair falls past its slot's window and makes no
    # kernel step
    ext = TameAbelianExtension.from_parameters(59, 1, 1, 58, "g",
                                               precision=8)
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    alg = brauer.CrossedProduct(sigma, _pi_class(ext))
    x = _dense_element(alg, rng)
    y = _dense_element(alg, rng)
    steps = _count_kernel_steps(monkeypatch)
    outcomes = Counter()
    got = _multiply_counting_steps(alg, x, y, steps, outcomes)
    assert outcomes["wrapped pair past the window"] == \
        alg.n * (alg.n - 1) // 2
    assert outcomes["wrapped pair in the window"] == 0
    assert steps[0] == 24374
    want, _ = _slotwise_multiply(alg, x, y)
    assert _slots(got) == _slots(want)


def _slotwise_multiply(alg, x, y):
    """The slot-wise series loop that the pair-major ``multiply`` replaced:
    per slot, the low sum, then the wrapped sum times b, in series
    arithmetic, which keeps the honest end of every sum.

    Returns the product and the number of sums, low, wrapped or final, of
    two nonzero series that cancel on their whole window. Only empty
    slots (None) are skipped: an honest zero O(alpha^N) in a slot still
    bounds the windows of its products.
    """
    terms = [(i, a) for i, a in enumerate(x) if a is not None]
    out = []
    hits = 0

    def add(acc, term):
        nonlocal hits
        if acc is None:
            return term
        total = acc + term
        hits += total.is_zero() and not acc.is_zero() and not term.is_zero()
        return total

    for k in range(alg.n):
        low = wrapped = None
        for i, a in terms:
            b = y[k - i]     # j = k - i, or k - i + n when i > k
            if b is None:
                continue
            term = a * alg.sigma_powers[i].apply(b)
            if i <= k:
                low = add(low, term)
            else:
                wrapped = add(wrapped, term)
        if wrapped is not None:
            low = add(low, wrapped * alg.b_series)
        out.append(low)
    return tuple(out), hits


def _short_series(ext, rng, width):
    """A series with a window of ``width`` terms, coefficients in k."""
    tower = ext.tower
    step = tower.subfield_norm_exponent
    logs = [step * rng.randrange(tower.subfield_units)]
    logs += [None if rng.random() < 0.3 else
             step * rng.randrange(tower.subfield_units)
             for _ in range(width - 1)]
    return LaurentSeries(tower, "alpha", rng.randrange(-1, 2), logs)


def _cancelling_pairs(alg, rng):
    """Elements whose products cancel often: windows of 1-2 terms with
    coefficients in k, and a slot repeated with alternating signs against
    ones (every term of a slot then agrees with the last but for its sign
    and window, so each second partial sum cancels on its window). Last,
    honest zeros O(alpha^N) in every third slot against ones."""
    ext = alg.ext
    for _ in range(max(4, 240 // alg.n)):
        yield tuple(None if rng.random() < 0.3 else
                    _short_series(ext, rng, rng.randrange(1, 3))
                    for _ in range(alg.n)), \
            tuple(None if rng.random() < 0.3 else
                  _short_series(ext, rng, rng.randrange(1, 3))
                  for _ in range(alg.n))
    a = _short_series(ext, rng, rng.randrange(2, 4))
    signed = tuple(-a if i % 2 else a for i in range(alg.n))
    ones = tuple(LaurentSeries.one(ext.tower, "alpha", rng.randrange(1, 4))
                 for _ in range(alg.n))
    yield signed, ones
    yield ones, signed
    yield tuple(LaurentSeries(ext.tower, "alpha", rng.randrange(-1, 3), ())
                if i % 3 == 0 else _short_series(ext, rng, rng.randrange(1, 4))
                for i in range(alg.n)), ones


@pytest.mark.parametrize("params", [
    *(MATRIX_PARAMS[name] for name in (
        "unram_f2", "ram_e2", "ram_e4", "mixed_c9", "mixed_e2_cyclic")),
    (3, 1, 1, 2, "g"),       # over F_3, windows of 1-2 terms cancel often
    (59, 1, 1, 58, "g"),     # the largest algebra of the benchmark
])
def test_crossed_product_multiply_matches_slotwise_loop(params, rng,
                                                      monkeypatch):
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    sigma = next(g for g in ext.galois_group() if g.order() == ext.degree)
    gk = ext.tower.subfield_generator()
    steps = _count_kernel_steps(monkeypatch)
    hits = honest = 0
    outcomes = Counter()
    for b_val in range(-1, 3):
        b = rc.BaseFieldClass(ext.tower, b_val,
                              gk.log * rng.randrange(ext.q - 1))
        alg = brauer.CrossedProduct(sigma, b)
        pairs = [*_cancelling_pairs(alg, rng),
                 (alg.random_element(rng), alg.random_element(rng))]
        # a product's cancelled slots are honest zeros: feed some back in
        pairs += [(alg.multiply(x, y), y) for x, y in pairs[:2]]
        for x, y in pairs:
            got = _multiply_counting_steps(alg, x, y, steps, outcomes)
            want, cancelled = _slotwise_multiply(alg, x, y)
            hits += cancelled
            honest += sum(a is not None and not a.logs for a in x)
            assert _slots(got) == _slots(want), b_val
    # every case must exercise whole-window cancellation and honest zeros
    assert hits >= 10, hits
    assert honest >= 4, honest
    assert all(outcomes[o] for o in OUTCOMES), outcomes


def test_cached_generators_keep_character_arithmetic(matrix):
    for name, ext in matrix.items():
        sigma = ext.residue_frobenius_lift()
        s = ext.frobenius_relation_exponent()
        # computed once per extension: repeated calls return the same data
        assert ext.residue_frobenius_lift() is sigma
        assert ext.frobenius_relation_exponent() == s
        assert ext.structure() == ext.structure()
        # and it is what a fresh extension computes on its first call
        fresh = TameAbelianExtension(ext.tower, ext.e, ext.u0, ext.precision)
        lift = fresh.residue_frobenius_lift()
        assert (lift.a, lift.c_log) == (sigma.a, sigma.c_log), name
        assert fresh.frobenius_relation_exponent() == s, name
        assert fresh.structure() == ext.structure(), name
        chars = brauer.character_group(ext)
        group = ext.galois_group()
        zeta = ext.inertia_generator()
        for c1 in chars[:4]:
            for c2 in chars:
                total = c1 + c2
                assert (total(sigma), total(zeta)) == (
                    (c1(sigma) + c2(sigma)) % 1,
                    (c1(zeta) + c2(zeta)) % 1), name
                for g in group:
                    assert total(g) == (c1(g) + c2(g)) % 1, (name, g)
