import ast
import pathlib
import random
from fractions import Fraction

import pytest

from conftest import MATRIX_PARAMS, admissible_descriptors
from lcft import brauer, checks, reciprocity as rc, series
from lcft.extension import TameAbelianExtension
from lcft.ffield import FieldElement, FieldTower
from lcft.series import LaurentSeries


def test_root_extraction_rejects_a_truncated_root(matrix, rng, monkeypatch):
    nth_root = LaurentSeries.nth_root

    def truncated(self, e):
        r = nth_root(self, e)
        return LaurentSeries(r.tower, r.symbol, r.valuation, r.logs[:-1])

    monkeypatch.setattr(LaurentSeries, "nth_root", truncated)
    result = checks.check_root_extraction(matrix["ram_e2"], rng, 5)
    assert not result.passed
    assert "r^e != w" in result.detail


def _sign_descriptors():
    """The benchmark's descriptors where the search's sign can show: p odd,
    e even and (q - 1)/e odd, so that (-1)^((e-1)m) = -1 for
    m = (q^i - 1)/e at some i. The benchmark runs the acceptance matrix,
    (2,6,1,63,"1"), (59,1,1,58,"g"), (2,10,2,31,"g") and every admissible
    (p, t, f, e) with p^(t*f) <= 16, u0 in {1, g}."""
    every = [*MATRIX_PARAMS.values(), (2, 6, 1, 63, "1"),
             (59, 1, 1, 58, "g"), (2, 10, 2, 31, "g"),
             *admissible_descriptors(16)]
    return sorted({(p, t, f, e, u0) for p, t, f, e, u0 in every
                   if p % 2 and e % 2 == 0 and (p**t - 1) // e % 2})


def test_oracle_agreement_rejects_the_other_search_sign(monkeypatch):
    # 22 distinct descriptors, 25 of the benchmark's 89 counting repeats;
    # on 20 of them the representatives alone (valuations 0..f-1) never
    # reach a valuation where the sign is -1
    descriptors = _sign_descriptors()
    assert len(descriptors) == 22
    exts = [TameAbelianExtension.from_parameters(*d, precision=8)
            for d in descriptors]
    for d, ext in zip(descriptors, exts):
        result = checks.check_oracle_agreement(ext)
        assert result.passed, d
        assert result.detail.endswith("classes at v, v+f, v+2f"), d
    sign = rc._sign_constant
    monkeypatch.setattr(rc, "_sign_constant", lambda ext: -sign(ext))
    for d, ext in zip(descriptors, exts):
        result = checks.check_oracle_agreement(ext)
        assert not result.passed, d
        assert "closed" in result.detail, d


def _lead_only(series):
    """``series`` with every term past its leading one set to zero."""
    return LaurentSeries(series.tower, series.symbol, series.valuation,
                         series.logs[:1] + (None,) * (len(series.logs) - 1))


def _term_changed(series, k, change):
    """``series`` with the log of term k (None for zero) replaced by
    change(tower, log); k = -1 is the last term of the window."""
    logs = list(series.logs)
    logs[k] = change(series.tower, logs[k])
    return LaurentSeries(series.tower, series.symbol, series.valuation, logs)


def _plus_one(tower, log):
    return (FieldElement(tower, log) + tower.one()).log


def _next_log(tower, log):
    return 0 if log is None else (log + 1) % tower.order


def _zech_swapped(build):
    """Two Zech entries swapped, those of 1 + g and 1 + g^2, on every
    tower with more than 8 entries."""
    def mutant(tower):
        build(tower)
        zech = tower._zech
        if tower.order > 8:
            zech[1], zech[2] = zech[2], zech[1]
    return mutant


def _zech_one_off(build):
    """The Zech entry of 1 + g one log off, where 1 + g is nonzero."""
    def mutant(tower):
        build(tower)
        zech = tower._zech
        if tower.order > 1 and zech[1] >= 0:
            zech[1] = (zech[1] + 1) % tower.order
    return mutant


def _last_slot_from_the_lead(convolve):
    """``_convolve`` with its last output slot filled from the lead term
    only."""
    def mutant(terms, src, out, offset, start, stop, tower):
        if stop > start:
            convolve(terms, src, out, offset, start, stop - 1, tower)
            start, terms = stop - 1, terms[:1]
        return convolve(terms, src, out, offset, start, stop, tower)
    return mutant


def _last_slot_plus_one(square):
    """``_square`` with 1 added to the log of its last slot, where that
    slot is nonzero."""
    def mutant(logs, step, valuation, tower):
        out = square(logs, step, valuation, tower)
        if out and out[-1] is not None:
            out[-1] = (out[-1] + 1) % tower.order
        return out
    return mutant


def _characters_collapsed(character_group):
    """``character_group`` with x*n = s*j + m // e for s*j + m*e: for
    m < e the f characters of one j collapse to one."""
    def mutant(ext):
        s = ext.frobenius_relation_exponent()
        return [brauer.Character(ext, s * j + m // ext.e, j * ext.f)
                for j in range(ext.e) for m in range(ext.f)]
    return mutant


def _uncaught(item):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}")


# one library function per row and its mutant, with how run_checks catches
# the mutant on the matrix: a failed result, a raise, or both. A kernel
# that modules import by name is patched in each of them.
MUTANTS = [
    pytest.param(rc, "norm",
                 lambda norm: lambda ext, beta: _lead_only(norm(ext, beta)),
                 {"fails"}, id="norm-keeps-its-lead-only",
                 marks=_uncaught("3, norm witnesses")),
    pytest.param(rc, "norm",
                 lambda norm: lambda ext, beta: _term_changed(
                     norm(ext, beta), 1, _plus_one),
                 {"fails"}, id="norm-adds-one-past-its-lead",
                 marks=_uncaught("3, norm witnesses")),
    pytest.param(brauer, "hasse_invariant",
                 lambda inv: lambda chi, b: -inv(chi, b) % 1,
                 {"fails"}, id="hasse-invariant-negated"),
    pytest.param(rc, "is_norm",
                 lambda is_norm: lambda ext, b: is_norm(
                     ext, rc.BaseFieldClass(b.tower, 0, b.unit_log)),
                 {"fails"}, id="is-norm-ignores-the-valuation"),
    # collapses the characters of 5 of the 8 matrix extensions, e.g. of
    # (2,2,3,3,*) from 9 to 3; caught by hasse-layer's size law alone
    pytest.param(brauer, "character_group", _characters_collapsed,
                 {"fails"}, id="character-group-m-over-e"),
    pytest.param(rc, "_sign_constant",
                 lambda sign: lambda ext: ext.tower.one(),
                 {"fails"}, id="search-sign-dropped"),
    pytest.param(TameAbelianExtension, "embed",
                 lambda embed: lambda self, x: _term_changed(
                     embed(self, x), -1, _next_log),
                 {"fails", "raises"}, id="embed-changes-its-last-term"),
    pytest.param(LaurentSeries, "nth_root",
                 lambda root: lambda self, e: _term_changed(
                     root(self, e), -1, _next_log),
                 {"fails"}, id="nth-root-changes-its-last-term"),
    # the substrate all three oracles share (ROADMAP item 11): the Zech
    # table and the two series kernels. Caught on 3, 8, 8 and 7 of the 8
    # matrix extensions, before and after the norm's windows shrank; the
    # swap touches only the 3 towers of more than 8 entries.
    pytest.param(FieldTower, "_build_tables", _zech_swapped,
                 {"raises"}, id="zech-entries-swapped"),
    pytest.param(FieldTower, "_build_tables", _zech_one_off,
                 {"fails", "raises"}, id="zech-entry-one-log-off"),
    pytest.param((series, rc, brauer), "_convolve", _last_slot_from_the_lead,
                 {"fails", "raises"}, id="convolve-last-slot-from-the-lead"),
    pytest.param((series, rc), "_square", _last_slot_plus_one,
                 {"fails", "raises"}, id="square-adds-one-to-its-last-slot"),
]


@pytest.mark.parametrize("owner, name, mutate, ways", MUTANTS)
def test_run_checks_catches_the_mutant_on_the_matrix(monkeypatch, owner,
                                                     name, mutate, ways):
    for site in owner if isinstance(owner, tuple) else (owner,):
        monkeypatch.setattr(site, name, mutate(getattr(site, name)))
    caught = set()
    for params in MATRIX_PARAMS.values():
        # a fresh extension: a cached norm group would hide a norm mutant
        ext = TameAbelianExtension.from_parameters(*params, precision=32)
        try:
            if not all(r.passed for r in checks.run_checks(ext, 100, 1)):
                caught.add("fails")
        except (ArithmeticError, AssertionError, ValueError):
            caught.add("raises")
    assert caught == ways


def test_the_library_holds_no_assert_statement():
    # python -O drops asserts and the code under ``__debug__``, and nothing
    # else, so with neither in the library it runs alike with and without
    # -O, and a check the catalog counts on cannot vanish
    source = pathlib.Path(checks.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(source.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


@pytest.mark.parametrize("descriptors, precision, samples, seed", [
    # the whole suite past the matrix: every admissible descriptor with
    # p^(t*f) <= 16, at precision 8 with 10 samples
    pytest.param(admissible_descriptors(16), 8, 10, 1, id="1"),
    pytest.param(admissible_descriptors(16), 8, 10, 1803, id="1803"),
    # the acceptance matrix as ``lcft check`` runs it by default. At seed
    # 1803, (5,1,1,4,"1")'s hasse-layer once failed "associativity failed
    # on sample 82", when a crossed-product slot whose window cancelled
    # became the exact zero (test_brauer.py pins that triple)
    pytest.param(list(MATRIX_PARAMS.values()), 32, 100, 1, id="matrix-1"),
    pytest.param(list(MATRIX_PARAMS.values()), 32, 100, 1803,
                 id="matrix-1803"),
])
def test_run_checks_passes_on_every_small_admissible_descriptor(
        descriptors, precision, samples, seed):
    assert len(descriptors) in (78, 8)      # the sweep, or the matrix
    failed = []
    for d in descriptors:
        ext = TameAbelianExtension.from_parameters(*d, precision=precision)
        failed += [(d, r.line())
                   for r in checks.run_checks(ext, samples, seed)
                   if not r.passed]
    assert failed == []


def test_hasse_layer_rejects_vanishing_invariants(matrix, rng, monkeypatch):
    # every invariant 0 puts non-norms in the kernel of a faithful character
    monkeypatch.setattr(brauer, "hasse_invariant", lambda chi, b: Fraction(0))
    result = checks.check_hasse_layer(matrix["ram_e4"], rng, 5)
    assert not result.passed
    assert "faithful kernel mismatch" in result.detail



def test_hasse_layer_names_the_sample_that_breaks_bilinearity(
        matrix, rng, monkeypatch):
    hasse_invariant = brauer.hasse_invariant
    calls = []

    def broken(chi, b):
        # the second of sample 3's five calls is chi_1 at b_1 * b_2
        calls.append(b)
        h = hasse_invariant(chi, b)
        return (h + Fraction(1, 2)) % 1 if len(calls) == 5 * 3 + 2 else h

    monkeypatch.setattr(brauer, "hasse_invariant", broken)
    result = checks.check_hasse_layer(matrix["deg12"], rng, 5)
    assert not result.passed
    assert result.detail == "bilinearity fails in the class slot on sample 3"


def test_hasse_layer_evaluates_each_table_pair_once(matrix, rng,
                                                    monkeypatch):
    hasse_invariant = brauer.hasse_invariant
    pairs = []

    def recorded(chi, b):
        pairs.append((chi, b))
        return hasse_invariant(chi, b)

    monkeypatch.setattr(brauer, "hasse_invariant", recorded)
    samples = 20
    for name in ("unram_f2", "deg12", "mixed_c9"):
        ext = matrix[name]
        pairs.clear()
        result = checks.check_hasse_layer(ext, rng, samples)
        assert result.passed, (name, result.detail)
        # five per bilinearity sample; then every (character,
        # representative) pair once, for the order, unramified-formula
        # and kernel loops alike
        table = pairs[5 * samples:]
        assert len(table) == ext.degree ** 2, name
        assert len(set(table)) == ext.degree ** 2, name


def test_uniformizer_independence_searches_each_class_once_per_sample(
        matrix, rng, monkeypatch):
    search = rc.reciprocity_search
    calls = []

    def counted(ext, pi, u, i):
        calls.append(i)
        return search(ext, pi, u, i)

    monkeypatch.setattr(rc, "reciprocity_search", counted)
    samples = 4
    for name in ("unram_f2", "ram_e4", "mixed_c9", "deg12"):
        ext = matrix[name]
        reps = rc.norm_group(ext).coset_representatives
        calls.clear()
        result = checks.check_uniformizer_independence(ext, rng, samples)
        assert result.passed, (name, result.detail)
        # one search with pi = t per class, then one per sample and class
        assert len(calls) == len(reps) * (samples + 1), name


def test_uniformizer_independence_reports_each_sample_and_class(
        matrix, rng, monkeypatch):
    ext = matrix["mixed_c9"]
    reps = rc.norm_group(ext).coset_representatives
    search = rc.reciprocity_search
    calls = []

    def broken_after_the_reference(ext, pi, u, i):
        # the searches with pi' = w*t all resolve to the identity
        calls.append(i)
        if len(calls) > len(reps):
            return ext.identity()
        return search(ext, pi, u, i)

    monkeypatch.setattr(rc, "reciprocity_search", broken_after_the_reference)
    result = checks.check_uniformizer_independence(ext, rng, 3)
    expected = [f"sample {n}, {b}: {rc.reciprocity_map(ext, b)} vs "
                f"{ext.identity()}"
                for n in range(3) for b in reps
                if rc.reciprocity_map(ext, b) != ext.identity()]
    assert not result.passed
    assert result.detail == "; ".join(expected[:3])


@pytest.mark.parametrize("params", [
    (2, 6, 1, 3, "g"), (2, 10, 1, 3, "g"),     # totally ramified, |k*| = 63, 1023
    (2, 6, 2, 1, "1"), (2, 10, 2, 1, "1"),     # unramified, |k*| = 7, 31
])
def test_the_k_star_walks_build_no_field_elements(params, monkeypatch):
    # the walks over k* run on unit logs; field elements would cost one
    # object or more per unit, 2^20 - 1 units at the cap
    ext = TameAbelianExtension.from_parameters(*params, precision=8)
    ext.galois_group()
    rc.norm_group(ext)
    init = FieldElement.__init__
    built = []

    def counted(self, tower, log):
        built.append(log)
        init(self, tower, log)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    results = [checks.check_totally_ramified_laws(ext),
               checks.check_unramified_law(ext, random.Random(1), 10)]
    assert [r.passed for r in results] == [True, True]
    # one of the two checks is skipped, the other walks all of k*
    assert sum(r.detail.startswith("skipped") for r in results) == 1
    assert built == []
