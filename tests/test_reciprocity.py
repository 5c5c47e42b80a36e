import gc
import random
import re
import signal
import types

import pytest

from conftest import (MATRIX_PARAMS, binary_power, class_inverse,
                      field_element_closed_form, subfield_units)
from lcft import brauer, checks, reciprocity as rc
from lcft.extension import GaloisElement, TameAbelianExtension
from lcft.ffield import FieldTower
from lcft.series import LaurentSeries


def _const(ext, value):
    return LaurentSeries.constant(ext.tower, "t", value, ext.precision)


def _rhs(ext, pi, u, i, beta):
    """The congruence residue at beta of the class u * pi^i: its inputs
    checked and embedded on beta's window, then the quotient at beta."""
    signed_pi, unit = rc.congruence_inputs(ext, pi, u, i, beta.precision)
    return rc.congruence_rhs(ext, signed_pi, unit, i, beta)


def test_class_validation(matrix):
    ext = matrix["mixed_c9"]
    with pytest.raises(ValueError):
        rc.BaseFieldClass(ext.tower, 0, ext.tower.zero().log)
    with pytest.raises(ValueError):
        rc.BaseFieldClass(ext.tower, 0, ext.tower.generator().log)  # not in k
    b = rc.BaseFieldClass(ext.tower, 2, ext.tower.subfield_generator().log)
    assert (b * class_inverse(b)) == rc.BaseFieldClass(ext.tower, 0, 0)


def test_a_class_over_another_tower_is_refused(matrix):
    # the unit 2 of F_5, but in the tower of another extension over F_5
    ext = matrix["ram_e4"]
    other = matrix["ram_e2"].tower
    assert other is not ext.tower
    for v in (1, -1):
        b = rc.BaseFieldClass(other, v, other.from_int(2).log)
        with pytest.raises(ValueError, match="different tower"):
            rc.reciprocity_map(ext, b)
        with pytest.raises(ValueError, match="different tower"):
            rc.is_norm(ext, b)
        for chi in brauer.character_group(ext):
            with pytest.raises(ValueError, match="different tower"):
                brauer.hasse_invariant(chi, b)
        sigma = ext.inertia_generator()
        with pytest.raises(ValueError, match="different tower"):
            brauer.CrossedProduct(sigma, b)
        own = rc.BaseFieldClass(ext.tower, v, ext.tower.from_int(2).log)
        assert own != b
        for left, right in ((own, b), (b, own)):
            with pytest.raises(ValueError, match="different towers"):
                left * right


def test_closed_form_unramified_frobenius(matrix):
    ext = matrix["unram_f2"]
    got = rc.reciprocity_map(ext, rc.BaseFieldClass(ext.tower, 1, 0))
    assert got == ext.frobenius_element()


def test_closed_form_ramified_unit(matrix):
    # c = 2^(-(5-1)/2) = 4; cross-checked against the search oracle below
    ext = matrix["ram_e2"]
    got = rc.reciprocity_map(ext, rc.BaseFieldClass(ext.tower, 0, ext.tower.from_int(2).log))
    assert (got.a, got.c) == (0, ext.tower.from_int(4))
    searched = rc.reciprocity_search(
        ext, ext.base_uniformizer(), _const(ext, ext.tower.from_int(2)), 0)
    assert searched == got


def test_closed_form_mixed_uniformizer(matrix):
    ext = matrix["mixed_c9"]
    got = rc.reciprocity_map(ext, rc.BaseFieldClass(ext.tower, 1, 0))
    assert got.a == 1 and got.c == ext.tower.generator()
    searched = rc.reciprocity_search(
        ext, ext.base_uniformizer(), _const(ext, ext.tower.one()), 1)
    assert searched == got


def test_uniformizer_class_is_a_norm_in_ram_e2(matrix):
    # N(2*delta) = t exactly, so theta(t) must be the identity
    ext = matrix["ram_e2"]
    witness = ext.constant(ext.tower.from_int(2)) * ext.uniformizer()
    # 32 alpha-terms make a norm of 16 t-terms
    assert rc.norm(ext, witness) == \
        LaurentSeries.uniformizer(ext.tower, "t", 16)
    assert rc.reciprocity_map(
        ext, rc.BaseFieldClass(ext.tower, 1, 0)).is_identity()


def test_congruence_rhs_examples(matrix):
    ext = matrix["mixed_c9"]
    t = ext.base_uniformizer()
    one = _const(ext, ext.tower.one())
    alpha = ext.uniformizer()
    omega = ext.constant(ext.tower.generator())
    # i = 0 and u = 1 is the trivial class
    assert _rhs(ext, t, one, 0, alpha) == ext.tower.one()
    assert _rhs(ext, t, one, 0, omega) == ext.tower.one()
    # a unit probe sees the Frobenius power
    g = ext.tower.generator()
    assert _rhs(ext, t, one, 1, omega) == g ** (ext.q - 1)
    # the alpha probe sees u0^((q-1)/e)
    assert _rhs(ext, t, one, 1, alpha) == g
    with pytest.raises(ValueError):
        _rhs(ext, one, one, 1, alpha)    # pi not a uniformizer


def test_search_matches_closed_form_on_all_classes(matrix):
    for name, ext in matrix.items():
        t = ext.base_uniformizer()
        for b in rc.norm_group(ext).coset_representatives:
            closed = rc.reciprocity_map(ext, b)
            searched = rc.reciprocity_search(
                ext, t, _const(ext, b.unit), b.valuation)
            assert closed == searched, (name, b)


def test_search_builds_no_probe_series_after_the_first(monkeypatch):
    # alpha and omega come with the cached probe table: once the table is
    # built, a search makes neither probe series again
    built = []
    for name in ("uniformizer", "constant"):
        def counted(self, *args, _name=name,
                    _method=getattr(TameAbelianExtension, name)):
            built.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(TameAbelianExtension, name, counted)
    for params in MATRIX_PARAMS.values():
        ext = TameAbelianExtension.from_parameters(*params, precision=8)
        t = ext.base_uniformizer()
        reps = rc.norm_group(ext).coset_representatives
        units = [_const(ext, b.unit) for b in reps]
        rc.reciprocity_search(ext, t, units[0], reps[0].valuation)
        built.clear()
        for b, u in zip(reps, units):
            rc.reciprocity_search(ext, t, u, b.valuation)
        assert built == [], params


def test_search_embeds_pi_and_u_once_per_call(monkeypatch):
    # both probes keep the extension's window, so a search checks and
    # embeds pi and u once and evaluates both probes on that embedding
    embed = TameAbelianExtension.embed
    calls = []

    def counted(self, x):
        calls.append(x.symbol)
        return embed(self, x)

    monkeypatch.setattr(TameAbelianExtension, "embed", counted)
    for params in MATRIX_PARAMS.values():
        ext = TameAbelianExtension.from_parameters(*params, precision=8)
        t = ext.base_uniformizer()
        rc.reciprocity_search(ext, t, _const(ext, ext.tower.one()), 0)
        searches = 0
        calls.clear()
        for rep in rc.norm_group(ext).coset_representatives:
            u = _const(ext, rep.unit)
            for i in range(rep.valuation, rep.valuation + 3 * ext.f, ext.f):
                assert rc.reciprocity_search(ext, t, u, i) == \
                    rc.reciprocity_map(ext, rc.BaseFieldClass(
                        ext.tower, i, rep.unit_log)), (params, rep, i)
                searches += 1
        assert calls == ["t", "t"] * searches, params


# each oracle's entry points in lcft.reciprocity
ORACLES = {
    "closed form": ("reciprocity_map",),
    "search": ("reciprocity_search", "_probe_table", "congruence_inputs",
               "congruence_rhs"),
    "norm group": ("norm_group", "norm", "is_norm"),
}


def _classes(ext, low):
    """Every class u * t^v with u in k*, for v from ``low`` to 2f."""
    gk_log = ext.tower.subfield_norm_exponent
    return [rc.BaseFieldClass(ext.tower, v, gk_log * j)
            for v in range(low, 2 * ext.f + 1)
            for j in range(ext.tower.subfield_units)]


def _answers(oracle, ext):
    """One oracle's answer on each class, keyed on (v, unit log): the pair
    (a, log c) of its image, or for the norm group whether it is a norm."""
    if oracle == "closed form":
        return {(b.valuation, b.unit_log): rc.reciprocity_map(ext, b)
                for b in _classes(ext, -ext.f)}
    if oracle == "search":
        t = ext.base_uniformizer()
        return {(b.valuation, b.unit_log):
                rc.reciprocity_search(ext, t, _const(ext, b.unit),
                                      b.valuation)
                for b in _classes(ext, 0)}
    return {(b.valuation, b.unit_log): rc.is_norm(ext, b)
            for b in _classes(ext, -ext.f)}


def test_each_oracle_runs_with_the_other_two_disabled(monkeypatch):
    # the closed form, the search and the norm group stay independent:
    # each answers on its own fresh extensions, so no cache carries over,
    # while every entry point of the other two raises
    def disabled(entry):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{entry} was called")
        return refuse

    answers = {}
    for oracle in ORACLES:
        with monkeypatch.context() as patch:
            for other, entries in ORACLES.items():
                if other != oracle:
                    for entry in entries:
                        patch.setattr(rc, entry, disabled(entry))
            answers[oracle] = {
                name: _answers(oracle,
                               TameAbelianExtension.from_parameters(*params))
                for name, params in MATRIX_PARAMS.items()}
    # the three agree: the search with the closed form on v >= 0, and the
    # norms are exactly the classes the closed form sends to the identity
    for name in MATRIX_PARAMS:
        closed = {key: (g.a, g.c_log)
                  for key, g in answers["closed form"][name].items()}
        searched = answers["search"][name]
        assert searched.keys() == {key for key in closed if key[0] >= 0}
        for key, g in searched.items():
            assert (g.a, g.c_log) == closed[key], (name, key)
        norms = answers["norm group"][name]
        assert norms.keys() == closed.keys()
        for key, pair in closed.items():
            assert norms[key] == (pair == (0, 0)), (name, key)


@pytest.mark.parametrize("params", [
    *MATRIX_PARAMS.values(),
    (2, 6, 1, 63, "1"),
    (59, 1, 1, 58, "g"),
    (2, 10, 2, 31, "g"),         # q^i up to 1024^125
    (2, 1, 1, 1, "1"),           # |l*| = 1
])
def test_closed_form_on_logs_matches_the_field_element_powers(params, rng):
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    gk = ext.tower.subfield_generator()
    units = ext.q - 1
    js = range(units) if units <= 200 else rng.sample(range(units), 200)
    reach = 2 * ext.degree + 1
    for j in js:
        u = gk**j
        for i in range(-reach, reach + 1):
            b = rc.BaseFieldClass(ext.tower, i, u.log)
            got = rc.reciprocity_map(ext, b)
            want = field_element_closed_form(ext, b)
            assert (got.a, got.c_log) == (want.a, want.c_log), (params, b)


@pytest.mark.parametrize("params", [
    *MATRIX_PARAMS.values(),
    (2, 6, 1, 63, "1"),
    (59, 1, 1, 58, "g"),
    (2, 10, 2, 31, "g"),
])
def test_negative_valuations_take_no_inverse(params, rng, monkeypatch):
    # the closed form covers i < 0 itself; the reference takes inverse
    # pairs, so its expectations are computed before negative powers of a
    # pair are disabled
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    units = ext.q - 1
    js = range(units) if units <= 64 else rng.sample(range(units), 64)
    gk_log = ext.tower.subfield_generator().log
    classes = [rc.BaseFieldClass(ext.tower, i, gk_log * j)
               for i in range(-3 * ext.f - 2, 0) for j in js]
    want = [field_element_closed_form(ext, b) for b in classes]

    power = GaloisElement.__pow__

    def refuse(self, n):
        if n < 0:
            raise AssertionError("an inverse was taken")
        return power(self, n)

    monkeypatch.setattr(GaloisElement, "__pow__", refuse)
    for b, expected in zip(classes, want):
        assert rc.reciprocity_map(ext, b) == expected, (params, b)


def test_negative_valuation_through_inverse(matrix):
    for ext in matrix.values():
        gk = ext.tower.subfield_generator()
        b = rc.BaseFieldClass(ext.tower, -3, gk.log)
        image = rc.reciprocity_map(ext, b)
        assert (image * rc.reciprocity_map(ext, class_inverse(b))) \
            .is_identity()
        # multiplying back to valuation 0 recovers the unit image
        shift = rc.BaseFieldClass(ext.tower, 3, 0)
        combined = rc.reciprocity_map(ext, b * shift)
        assert combined == image * rc.reciprocity_map(ext, shift)


def test_inverse_class_equals_large_power(matrix):
    # b^(ef) is always a norm, so the inverse class and the (ef-1)-th
    # power class share the same image
    for ext in matrix.values():
        n = ext.degree
        gk = ext.tower.subfield_generator()
        for b in (rc.BaseFieldClass(ext.tower, 1, 0),
                  rc.BaseFieldClass(ext.tower, 0, gk.log),
                  rc.BaseFieldClass(ext.tower, -2, gk.log)):
            power = b
            for _ in range(n - 2):
                power = power * b
            assert rc.reciprocity_map(ext, class_inverse(b)) == \
                rc.reciprocity_map(ext, power)


def test_reciprocity_of_series(matrix):
    ext = matrix["ram_e2"]
    t = ext.base_uniformizer()
    one = LaurentSeries.one(ext.tower, "t", ext.precision)
    # 1-units are norms: they map to the identity
    assert rc.reciprocity_of_series(ext, one + t).is_identity()
    # (2 + t) * t reduces to the class (1, 2)
    b_series = (_const(ext, ext.tower.from_int(2)) + t) * t
    assert rc.reciprocity_of_series(ext, b_series) == rc.reciprocity_map(
        ext, rc.BaseFieldClass(ext.tower, 1, ext.tower.from_int(2).log))
    ext2 = matrix["unram_f2"]
    assert rc.reciprocity_of_series(
        ext2, ext2.base_uniformizer()) == ext2.frobenius_element()
    for end in (0, 3):
        with pytest.raises(ValueError):
            rc.reciprocity_of_series(ext, LaurentSeries(ext.tower, "t", end,
                                                        ()))


def test_norm_examples(matrix):
    # totally ramified quadratic: N(delta) = -t = 4t, on 16 t-terms
    ext = matrix["ram_e2"]
    assert rc.norm(ext, ext.uniformizer()) == \
        LaurentSeries.monomial(ext.tower, "t", ext.tower.from_int(4), 1, 16)
    # unramified residue norm: N(omega) = omega^((9-1)/(3-1)) = omega^4
    ext = matrix["unram_f2"]
    omega = ext.tower.generator()
    assert rc.norm(ext, ext.constant(omega)) == \
        _const(ext, omega**4)
    assert rc.norm(ext, ext.constant(ext.tower.one())) == \
        LaurentSeries.one(ext.tower, "t", ext.precision)


def test_norm_valuation_and_membership(matrix, rng):
    for name, ext in matrix.items():
        for _ in range(10):
            beta = rc.random_unit_series(ext, rng, rng.randrange(-2, 3))
            nb = rc.norm(ext, beta)
            assert nb.valuation == ext.f * beta.valuation, name
            assert ext.is_base_member(ext.embed(nb))


def _flat_norm(ext, beta):
    """The flat product of all e*f conjugates that ``norm`` regroups.

    Also returns how many coefficients, over all its products, are zero
    although two or more nonzero terms of the convolution meet there.
    """
    prod = None
    cancelled = 0
    for g in ext.galois_group():
        img = g.apply(beta)
        if prod is None:
            prod = img
            continue
        out = prod * img
        for k, c in enumerate(out.logs):
            if c is None:
                terms = sum(prod.logs[i] is not None
                            and img.logs[k - i] is not None
                            for i in range(k + 1))
                cancelled += terms >= 2
        prod = out
    return ext.project(prod), cancelled


def _sparse_unit(ext, rng, valuation):
    """alpha^valuation times a unit whose window is mostly zeros, with
    every nonzero coefficient 1 or -1, so that convolution sums cancel."""
    tower = ext.tower
    signs = sorted({tower.one().log, tower.minus_one().log})
    logs = [rng.choice(signs)]
    logs += [rng.choice(signs) if rng.random() < 0.2 else None
             for _ in range(ext.precision - 1)]
    return LaurentSeries(tower, "alpha", valuation, logs)


@pytest.mark.parametrize("params, precision", [
    *((params, 32) for params in MATRIX_PARAMS.values()),
    ((2, 6, 1, 63, "1"), 8),     # characteristic 2, e = 3 * 3 * 7
    ((2, 10, 2, 31, "g"), 8),    # composite f over a 2^20 tower
    ((59, 1, 1, 58, "g"), 8),    # 29 = 0b11101: a zero between the ones
    # stages with repeated and mixed primes: e = 12 = 2^2 * 3 makes a
    # window of 32, then 16, then 8 terms, and e = 63 = 3^2 * 7 one of
    # 32, 11 and 4, and the Frobenius stage 3 and 1 terms
    ((13, 1, 1, 12, "g"), 32),
    ((2, 6, 1, 63, "1"), 32),
])
def test_norm_chain_matches_the_flat_product(params, precision, rng):
    ext = TameAbelianExtension.from_parameters(*params, precision=precision)
    cancelled = 0
    for n in range(16):
        v = n % 7 - 3
        beta = (rc.random_unit_series(ext, rng, v) if n < 8
                else _sparse_unit(ext, rng, v))
        got = rc.norm(ext, beta)
        want, hits = _flat_norm(ext, beta)
        assert (got.valuation, got.logs, got.precision) == \
            (want.valuation, want.logs, want.precision), (params, n)
        cancelled += hits
    # every case meets at least 83 cancellations at this seed
    assert cancelled >= 50, params


@pytest.mark.parametrize("pair", [
    # one order of l* on both sides, and inertia stages at the same steps
    # over different Zech weights: |l*| = 63 and e = 7, steps 9 and 27
    ((2, 6, 1, 7, "1"), (2, 3, 2, 7, "1")),
    # |l*| = 48: e = 3, step 16, and e = 6, steps 24 and 16
    ((7, 2, 1, 3, "1"), (7, 1, 2, 3, "1")),
    ((7, 2, 1, 6, "1"), (7, 1, 2, 6, "1")),
])
def test_a_norm_after_a_dropped_tower_matches_the_flat_product(pair, rng):
    # the square weights of the norm's stages live on the extension.
    # CPython gives a new object the id of a freed one, so weights cached
    # by id(tower) would reach a later tower, whose Zech table differs.
    # Each round builds one extension right after the last was dropped;
    # over 40 rounds a tower here takes the id of a tower of the other
    # descriptor several times, though how often depends on the allocator.
    # The objects alive before the test are frozen out of the collections,
    # which then scan only the test's own
    gc.freeze()
    try:
        for k in range(40):
            ext = TameAbelianExtension.from_parameters(*pair[k % 2],
                                                       precision=8)
            beta = (rc.random_unit_series(ext, rng, 1) if k % 4 < 2
                    else _sparse_unit(ext, rng, -1))
            got = rc.norm(ext, beta)
            want, _ = _flat_norm(ext, beta)
            assert (got.valuation, got.logs) == \
                (want.valuation, want.logs), (pair, k)
            del ext, beta, got, want
            gc.collect()
    finally:
        gc.unfreeze()


def _primes_with_multiplicity(n):
    """The prime factors of n, each as often as it divides n, smallest
    first."""
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


# of a norm's products, the inertia stages' floor(log2 p) doublings are
# twisted squares: e = 58 = 2 * 29 makes 1 + 4 squares and 0 + 3 y-steps
NORM_SQUARES = {(7, 1, 2, 6, "1"): 2, (2, 2, 3, 3, "g"): 1,
                (5, 1, 1, 4, "1"): 2, (2, 6, 1, 63, "1"): 4,
                (59, 1, 1, 58, "g"): 5, (2, 10, 2, 31, "g"): 4}


# the window of each kernel call of a norm at precision 8, in order
NORM_WINDOWS = {
    # e = 2 * 3 on 8 and then 4 terms, f = 0b10 on ceil(8/6) = 2
    (7, 1, 2, 6, "1"): [8, 4, 4, 2],
    # e = 0b11 on 8 terms, f = 0b11 on ceil(8/3) = 3
    (2, 2, 3, 3, "g"): [8, 8, 3, 3],
    (5, 1, 1, 4, "1"): [8, 4],                      # e = 2 * 2
    (2, 6, 1, 63, "1"): [8, 8, 3, 3, 1, 1, 1, 1],   # e = 3 * 3 * 7
    (59, 1, 1, 58, "g"): [8] + [4] * 7,             # e = 2 * 29
    (2, 10, 2, 31, "g"): [8] * 8 + [1],             # e = 31, f = 0b10
}


@pytest.mark.parametrize("params, products", [
    ((7, 1, 2, 6, "1"), 4),      # e = 2 * 3: 1 + 2, f = 0b10: 1
    ((2, 2, 3, 3, "g"), 4),      # e = f = 0b11: 1 + 2 - 1 each
    ((5, 1, 1, 4, "1"), 2),      # e = 2 * 2: 1 + 1
    ((2, 6, 1, 63, "1"), 8),     # e = 3 * 3 * 7: 2 + 2 + 4
    ((59, 1, 1, 58, "g"), 8),    # e = 2 * 29, 29 = 0b11101: 1 + 7
    ((2, 10, 2, 31, "g"), 9),    # e = 0b11111: 4 + 5 - 1, f = 0b10: 1
])
def test_norm_makes_one_product_per_coset_step(params, products,
                                                monkeypatch, rng):
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    beta = rc.random_unit_series(ext, rng, 1)
    # norm runs the kernels on logs: one call per product of its stages,
    # each on the window of the field its factor lies in
    convolve, square = rc._convolve, rc._square
    calls = []
    square_steps = []

    def counted(terms, src, out, *args):
        calls.append(src)
        return convolve(terms, src, out, *args)

    def counted_square(logs, step, *args):
        calls.append(logs)
        square_steps.append(step % ext.tower.order)
        return square(logs, step, *args)

    monkeypatch.setattr(rc, "_convolve", counted)
    monkeypatch.setattr(rc, "_square", counted_square)
    rc.norm(ext, beta)
    # floor(log2 m) + popcount(m) - 1 for each prime m = p of e and for
    # m = f, not e*f - 1
    assert len(calls) == products
    assert [len(w) for w in calls] == NORM_WINDOWS[params]
    # the squares twist X = alpha^d by the p-th roots of unity g^(c|l*|/p)
    # of each prime stage's chain; the Frobenius doublings and the
    # y-steps are plain products
    order = ext.tower.order
    primes = _primes_with_multiplicity(ext.e)
    assert square_steps == [(p >> (k + 1)) * order // p for p in primes
                            for k in reversed(range(p.bit_length() - 1))]
    assert len(square_steps) == NORM_SQUARES[params]


# the group powers the first norm builds: each prime stage's generator
# h and its powers h^c, and the Frobenius stage's sigma^c
NORM_POWERS = {(7, 1, 2, 6, "1"): 2 + 2 + 1,       # e = 2 * 3, f = 2
               (2, 6, 1, 63, "1"): 2 + 2 + 3}      # e = 3 * 3 * 7, f = 1


@pytest.mark.parametrize("params", [(7, 1, 2, 6, "1"), (2, 6, 1, 63, "1")])
def test_norm_builds_its_galois_powers_once(params, monkeypatch, rng):
    # the stage plan's generators h and powers h^c are group powers,
    # built in closed form; a later norm makes neither a power nor a
    # product of group elements
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    calls = []

    def counted(method):
        def wrapper(self, other):
            calls.append(other)
            return method(self, other)
        return wrapper

    for name in ("__mul__", "__pow__"):
        monkeypatch.setattr(GaloisElement, name,
                            counted(getattr(GaloisElement, name)))
    first = rc.norm(ext, rc.random_unit_series(ext, rng, 1))
    assert len(calls) == NORM_POWERS[params], \
        "the first norm builds the plan's powers"
    calls.clear()
    second = rc.norm(ext, rc.random_unit_series(ext, rng, 1))
    assert calls == []
    assert first.valuation == second.valuation == ext.f


@pytest.mark.parametrize("call, stage", [
    (1, "degree 2 in alpha^1: term alpha^3 off the fixed field "
        "l((alpha^2))"),
    (2, "degree 2 in alpha^2: term alpha^6 off the fixed field "
        "l((alpha^4))"),
])
def test_a_stage_product_off_its_fixed_field_raises(call, stage,
                                                     monkeypatch, rng):
    # e = 4 = 2 * 2 runs one twisted square per stage; a nonzero term in
    # slot 1 of the n-th one lies off the field the stage maps onto
    ext = TameAbelianExtension.from_parameters(5, 1, 1, 4, "1",
                                               precision=8)
    beta = rc.random_unit_series(ext, rng, 1)
    square = rc._square
    calls = []

    def stray(logs, *args):
        out = square(logs, *args)
        calls.append(logs)
        if len(calls) == call:
            out[1] = 0
        return out

    monkeypatch.setattr(rc, "_square", stray)
    with pytest.raises(ArithmeticError,
                       match=re.escape(f"norm stage of {stage}")):
        rc.norm(ext, beta)


def _full_embed_rhs(ext, pi, u, i, beta):
    """congruence_rhs with all of pi and u embedded and signed before the
    cut to beta's window, and every power over its whole exponent."""
    q, e = ext.q, ext.e
    v_l = beta.valuation
    window = max(beta.precision, 1)
    sign = ext.tower.one() if (e - 1) % 2 == 0 else ext.tower.minus_one()
    signed_pi = (ext.embed(pi) * sign).truncate(window)
    den = (binary_power(signed_pi, (q**i - 1) * v_l // e)
           * binary_power(ext.embed(u).truncate(window), (q - 1) * v_l // e))
    quotient = binary_power(beta, q**i - 1) / den
    assert quotient.valuation == 0
    return quotient.residue()


@pytest.mark.parametrize("params, precision", [
    *((params, 32) for params in MATRIX_PARAMS.values()),
    ((2, 6, 1, 63, "1"), 8),
    ((59, 1, 1, 58, "g"), 8),
    ((2, 10, 2, 31, "g"), 8),
])
def test_congruence_rhs_matches_the_full_embed(params, precision, rng,
                                               monkeypatch):
    ext = TameAbelianExtension.from_parameters(*params, precision=precision)
    t = ext.base_uniformizer()
    embed = TameAbelianExtension.embed
    read = []

    def recorded(self, x):
        read.append(x.precision)
        return embed(self, x)

    checked = 0
    for n in range(4):
        pi = rc.random_base_unit_series(ext, rng) * t
        u = (rc.random_base_unit_series(ext, rng) if n % 2
             else _const(ext, ext.tower.subfield_generator()))
        betas = [ext.uniformizer(), ext.constant(ext.tower.generator()),
                 rc.random_unit_series(ext, rng, rng.randrange(-2, 3)),
                 _sparse_unit(ext, rng, rng.randrange(-2, 3))]
        for beta in betas:
            for i in range(3):
                want = _full_embed_rhs(ext, pi, u, i, beta)
                with monkeypatch.context() as m:
                    m.setattr(TameAbelianExtension, "embed", recorded)
                    got = _rhs(ext, pi, u, i, beta)
                assert got == want, (params, n, i, beta)
                checked += 1
    assert checked == 4 * 4 * 3
    # only the t-terms that reach beta's window are embedded
    assert max(read) == -(-precision // ext.e)


# the benchmark's high_degree descriptors, at their precision 8
HIGH_DEGREE_PARAMS = [(2, 6, 1, 63, "1"), (59, 1, 1, 58, "g"),
                      (2, 10, 2, 31, "g")]


@pytest.mark.parametrize("params, precision", [
    *((params, 32) for params in MATRIX_PARAMS.values()),
    *((params, 8) for params in HIGH_DEGREE_PARAMS),
])
def test_omega_probe_is_the_numerator(params, precision, monkeypatch):
    ext = TameAbelianExtension.from_parameters(*params, precision=precision)
    t = ext.base_uniformizer()
    omega = ext.constant(ext.tower.generator())
    inverses = []
    inverse = LaurentSeries.inverse

    def counted(self):
        inverses.append(self)
        return inverse(self)

    checked = 0
    # every class the search resolves against the probe table, over a
    # period of valuations, as check_oracle_agreement asks for them
    for rep in rc.norm_group(ext).coset_representatives:
        u = _const(ext, rep.unit)
        for i in range(rep.valuation, rep.valuation + 3 * ext.f, ext.f):
            want = _full_embed_rhs(ext, t, u, i, omega)
            with monkeypatch.context() as m:
                m.setattr(LaurentSeries, "inverse", counted)
                got = _rhs(ext, t, u, i, omega)
            assert got == want, (params, rep, i)
            checked += 1
    assert checked == 3 * ext.degree
    # omega is a unit: no denominator is inverted
    assert inverses == []
    # u is still embedded, so a coefficient outside k still raises
    if ext.f > 1:
        outside = _const(ext, ext.tower.generator())
        with pytest.raises(ValueError, match="outside k"):
            _rhs(ext, t, outside, 0, omega)


def test_norm_group_presentations(matrix):
    expected = {
        "unram_f2": (2,),
        "ram_e2": (2,),
        "ram_e4": (4,),
        "mixed_c9": (9,),
        "split_c3c3": (3, 3),
        "deg12": (2, 6),
        "mixed_e2_split": (2, 2),
        "mixed_e2_cyclic": (4,),
    }
    for name, ext in matrix.items():
        pres = rc.norm_group(ext)
        assert pres.quotient_order == ext.degree, name
        assert pres.invariant_factors == expected[name], name
        assert len(pres.coset_representatives) == ext.degree
        assert len(set(pres.coset_representatives)) == ext.degree
        # presentation matches the Galois group structure exactly
        assert pres.invariant_factors == ext.structure(), name


def test_norm_group_membership(matrix):
    ext = matrix["ram_e2"]
    four = rc.BaseFieldClass(ext.tower, 0, ext.tower.from_int(4).log)
    two = rc.BaseFieldClass(ext.tower, 0, ext.tower.from_int(2).log)
    assert rc.is_norm(ext, four)
    assert not rc.is_norm(ext, two)
    assert rc.is_norm(ext, rc.BaseFieldClass(ext.tower, 0, 0))
    # norms of random elements are always members
    for name, ext in matrix.items():
        alpha_norm = rc.norm(ext, ext.uniformizer())
        assert rc.is_norm(ext, rc.class_of_series(alpha_norm)), name


def test_totally_ramified_norm_criterion(matrix):
    for name in ("ram_e2", "ram_e4"):
        ext = matrix[name]
        exp = (ext.q - 1) // ext.e
        for u in subfield_units(ext.tower):
            closed = u**exp == ext.tower.one()
            assert rc.is_norm(ext, rc.BaseFieldClass(ext.tower, 0, u.log)) \
                == closed, \
                (name, u)


def test_kernel_on_random_norms(matrix, rng):
    for name, ext in matrix.items():
        for _ in range(25):
            beta = rc.random_unit_series(ext, rng, rng.randrange(-3, 4))
            nb = rc.norm(ext, beta)
            assert rc.reciprocity_of_series(ext, nb).is_identity(), name


def test_homomorphism_and_bijection(matrix):
    for name, ext in matrix.items():
        reps = rc.norm_group(ext).coset_representatives
        for b1 in reps:
            for b2 in reps:
                assert rc.reciprocity_map(ext, b1 * b2) == \
                    rc.reciprocity_map(ext, b1) * rc.reciprocity_map(ext, b2)
        images = {rc.reciprocity_map(ext, b) for b in reps}
        assert images == set(ext.galois_group()), name


def test_uniformizer_independence(matrix, rng):
    for name, ext in matrix.items():
        t = ext.base_uniformizer()
        reps = rc.norm_group(ext).coset_representatives
        for _ in range(3):
            w = rc.random_base_unit_series(ext, rng)
            pi2 = w * t
            for b in reps:
                u1 = _const(ext, b.unit)
                u2 = u1 * w ** (-b.valuation)
                assert rc.reciprocity_search(ext, t, u1, b.valuation) == \
                    rc.reciprocity_search(ext, pi2, u2, b.valuation), \
                    (name, b)


def test_unramified_specialization(matrix):
    ext = matrix["unram_f2"]
    frob = ext.frobenius_element()
    for i in range(-2, 5):
        for u in subfield_units(ext.tower):
            assert rc.reciprocity_map(
                ext, rc.BaseFieldClass(ext.tower, i, u.log)) == frob**i


def test_totally_ramified_unit_formula(matrix):
    for name in ("ram_e2", "ram_e4"):
        ext = matrix[name]
        exp = (ext.q - 1) // ext.e
        for u in subfield_units(ext.tower):
            g = rc.reciprocity_map(ext, rc.BaseFieldClass(ext.tower, 0, u.log))
            assert g.a == 0 and g.c == u ** (-exp), name


def test_power_law(matrix):
    for ext in matrix.values():
        base = rc.reciprocity_map(ext, rc.BaseFieldClass(ext.tower, 1, 0))
        for i in range(2 * ext.degree + 1):
            assert rc.reciprocity_map(
                ext, rc.BaseFieldClass(ext.tower, i, 0)) == base**i


def test_norm_congruence_reports(matrix, rng):
    for name, ext in matrix.items():
        result = checks.check_norm_congruences(ext, rng, 25, 5)
        assert result.passed, (name, result.detail)


def test_norm_group_is_built_once_per_extension(monkeypatch):
    # a fresh extension: a cached session fixture would hide the first build
    ext = TameAbelianExtension.from_parameters(5, 1, 1, 4, "1")
    norm = rc.norm
    calls = []

    def counted(ext, beta):
        calls.append(beta)
        return norm(ext, beta)

    monkeypatch.setattr(rc, "norm", counted)
    assert checks.check_totally_ramified_laws(ext).passed
    # N(alpha) and N(omega), once, for all four units of k*
    assert len(calls) == 2
    assert rc.norm_group(ext) is rc.norm_group(ext)
    assert len(calls) == 2


def test_search_table_built_once_per_extension(monkeypatch):
    # a fresh extension: a cached session fixture would hide the first scan
    ext = TameAbelianExtension.from_parameters(2, 2, 3, 3, "g")
    t = ext.base_uniformizer()
    one = _const(ext, ext.tower.one())
    apply = GaloisElement.apply
    calls = []

    def counted(self, beta):
        calls.append(self)
        return apply(self, beta)

    monkeypatch.setattr(GaloisElement, "apply", counted)
    first = rc.reciprocity_search(ext, t, one, 1)
    # the first call scans the group once: each element meets both probes
    assert len(calls) == 2 * ext.degree
    calls.clear()
    second = rc.reciprocity_search(ext, t, one, 2)
    assert calls == []
    pi_class = rc.BaseFieldClass(ext.tower, 1, 0)
    assert first == rc.reciprocity_map(ext, pi_class)
    assert second == first * first


def _memo_tables(ext, beta_logs):
    """The group, the norm's stage plan and the square weights of its
    inertia steps on windows of 1 to 8 terms, as plain data (each Galois
    element as its pair (a, log c)), and the logs of one norm."""
    group = [(g.a, g.c_log) for g in ext.galois_group()]
    plan, weights = [], []
    for stride, keep, h, steps in rc._norm_plan(ext):
        plan.append((stride, keep, (h.a, h.c_log),
                     [((g.a, g.c_log), bit) for g, bit in steps]))
        weights += [rc._square_weights(ext, g.c_log * stride, n)
                    for g, _ in steps if g.a == 0 for n in range(1, 9)]
    beta = LaurentSeries(ext.tower, "alpha", 1, beta_logs)
    return group, plan, weights, rc.norm(ext, beta).logs


def test_two_extensions_over_one_tower_keep_their_own_tables(rng):
    # the memo is the extension's, not the tower's: u0 = 1 and u0 = g
    # share the tower object, and each must see what it sees alone
    tower = FieldTower(2, 2, 3)
    shared = [TameAbelianExtension(tower, 3, tower.parse(u0), 8)
              for u0 in ("1", "g")]
    beta_logs = [0] + rc.random_logs(tower, rng, 7)
    # interleaved: each table of one extension is built between the
    # other's
    tables = [_memo_tables(ext, beta_logs) for ext in shared + shared]
    for ext, u0, got in zip(shared + shared, ("1", "g") * 2, tables):
        alone = TameAbelianExtension.from_parameters(2, 2, 3, 3, u0,
                                                     precision=8)
        assert got == _memo_tables(alone, beta_logs), u0
    # the two groups differ, so a table shared between them would show
    assert tables[0][0] != tables[1][0]


def test_a_second_check_pass_adds_no_memo_entry():
    ext = TameAbelianExtension.from_parameters(7, 1, 2, 6, "1",
                                               precision=8)
    assert all(r.passed for r in checks.run_checks(ext, 10, 1))
    first = dict(ext._memo)
    assert all(r.passed for r in checks.run_checks(ext, 10, 2))
    assert ext._memo.keys() == first.keys()
    assert all(ext._memo[key] is value for key, value in first.items())


def test_search_audit_rejects_a_shared_probe_key(monkeypatch):
    # with a trivial action every element lands on the key (1, 1)
    ext = TameAbelianExtension.from_parameters(5, 1, 1, 4, "1")
    monkeypatch.setattr(GaloisElement, "apply", lambda self, beta: beta)
    t, two = ext.base_uniformizer(), ext.tower.from_int(2)
    with pytest.raises(ArithmeticError, match="found 4 matches"):
        rc.reciprocity_search(ext, t, _const(ext, ext.tower.one()), 0)
    with pytest.raises(ArithmeticError, match="found 0 matches"):
        rc.reciprocity_search(ext, t, _const(ext, two), 0)


def test_sampler_rejects_an_empty_range():
    def hang(signum, frame):
        raise TimeoutError("the sampler loops on an empty range")

    # getrandbits(0) is always 0, so an unguarded loop never ends at n = 0
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for n in (0, -1):
            with pytest.raises(ValueError):
                rc._below(random.Random(1), n)
            with pytest.raises(ValueError):
                rc.random_logs(types.SimpleNamespace(size=n),
                               random.Random(1), 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# sizes of l and draws below |k*| + 1 across the workloads, and the cap
STREAM_SIZES = (2, 3, 4, 5, 9, 16, 49, 59, 64, 2**20)


@pytest.mark.parametrize("n", STREAM_SIZES)
def test_sampler_draws_the_randrange_stream(n):
    ours, theirs = random.Random(n), random.Random(n)
    assert [rc._below(ours, n) for _ in range(2000)] == \
        [theirs.randrange(n) for _ in range(2000)]


def test_sampler_stream_on_the_matrix_towers(matrix):
    for name, ext in matrix.items():
        tower = ext.tower
        n = tower.subfield_units + 1
        ours, theirs = random.Random(name), random.Random(name)
        assert [rc._below(ours, n) for _ in range(2000)] == \
            [theirs.randrange(n) for _ in range(2000)], name
        # a window's logs: draw r below |l|, zero for r = 0, else log r - 1
        want = [theirs.randrange(tower.size) for _ in range(2000)]
        assert rc.random_logs(tower, ours, 2000) == \
            [r - 1 if r else None for r in want], name
        r = theirs.randrange(tower.size)
        assert rc.random_logs(tower, ours, 1) == [r - 1 if r else None], name


def test_sampler_stream_is_pinned():
    # literal draws, so the stream does not rest on the interpreter's
    # randrange
    for n, want in ((9, [8, 4, 8, 6, 1, 2, 0, 7]),
                    (2**20, [627133, 807851, 163617, 311523, 12204, 959342,
                             41771, 319924])):
        rng = random.Random(1803)
        assert [rc._below(rng, n) for _ in range(8)] == want, n
