import ast
import inspect
import pathlib
import random
from fractions import Fraction

import pytest

from conftest import (MATRIX_PARAMS, admissible_descriptors,
                      admissible_ramifications, tower_shapes)
from lcft import brauer, checks, reciprocity as rc, series
from lcft.extension import GaloisElement, TameAbelianExtension
from lcft.ffield import FieldElement, FieldTower, is_prime
from lcft.series import LaurentSeries


def test_root_extraction_rejects_a_truncated_root(matrix, rng, monkeypatch):
    nth_root = LaurentSeries.nth_root

    def truncated(self, e):
        r = nth_root(self, e)
        return LaurentSeries(r.tower, r.symbol, r.valuation, r.logs[:-1])

    monkeypatch.setattr(LaurentSeries, "nth_root", truncated)
    failures, _ = checks.check_root_extraction(matrix["ram_e2"], rng, 5)
    assert any("r^e != w" in failure for failure in failures)


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
        failures, detail = checks.check_oracle_agreement(ext)
        assert failures == [], d
        assert detail.endswith("classes at v, v+f, v+2f"), d
    sign = rc._sign_constant
    monkeypatch.setattr(rc, "_sign_constant", lambda ext: -sign(ext))
    for d, ext in zip(descriptors, exts):
        failures, _ = checks.check_oracle_agreement(ext)
        assert any("closed" in failure for failure in failures), d


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
    def mutant(logs, step, valuation, tower, plan):
        out = square(logs, step, valuation, tower, plan)
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


def _one_term_longer(series):
    """``series`` with one more zero term at the end of its window."""
    return LaurentSeries(series.tower, series.symbol, series.valuation,
                         series.logs + (None,))


def _lead_added(inverse):
    """``inverse`` with minus_one_log + lead for minus_one_log - lead: each
    step of its recurrence multiplies by c_0 where it should divide. That
    is the inverse of the series with c_0 kept and every later c_k scaled
    by c_0^2, which is how the mutant is written here."""
    def mutant(self):
        if self.is_zero():
            return inverse(self)
        lead, order = self.logs[0], self.tower.order
        scaled = [lead] + [None if a is None else (a + 2 * lead) % order
                           for a in self.logs[1:]]
        return inverse(LaurentSeries(self.tower, self.symbol,
                                     self.valuation, scaled))
    return mutant


def _valuation_term_moved(change):
    """``is_norm`` with change(v, f) * d1 in place of its term
    v // f * d1, written as a wrapper: the true ``is_norm`` with the unit
    log shifted by (v // f - change(v, f)) * d1 on k's generator."""
    def wrap(is_norm):
        def mutant(ext, b):
            (f, d1), _ = rc.norm_group(ext).generator_rows
            shift = (b.valuation // f - change(b.valuation, f)) * d1
            return is_norm(ext, rc.BaseFieldClass(
                b.tower, b.valuation,
                b.unit_log + shift * b.tower.subfield_norm_exponent))
        return mutant
    return wrap


# one library function per row and its mutant, with how run_checks catches
# the mutant on the matrix: a failed result, a raise, or both. A function
# that modules import by name is patched in each of them.
MUTANTS = [
    # caught by the crossed product's law (beta v)^n = N(beta) b, which
    # reads the norm on the algebra's whole window
    pytest.param((rc, brauer), "norm",
                 lambda norm: lambda ext, beta: _lead_only(norm(ext, beta)),
                 {"fails"}, id="norm-keeps-its-lead-only"),
    pytest.param((rc, brauer), "norm",
                 lambda norm: lambda ext, beta: _term_changed(
                     norm(ext, beta), 1, _plus_one),
                 {"fails"}, id="norm-adds-one-past-its-lead"),
    pytest.param(brauer, "hasse_invariant",
                 lambda inv: lambda chi, b: -inv(chi, b) % 1,
                 {"fails"}, id="hasse-invariant-negated"),
    pytest.param(rc, "is_norm",
                 lambda is_norm: lambda ext, b: is_norm(
                     ext, rc.BaseFieldClass(b.tower, 0, b.unit_log)),
                 {"fails"}, id="is-norm-ignores-the-valuation"),
    # ROADMAP item 15's last blind spot, is_norm off valuation 0: caught
    # by hasse-layer's law is_norm(b * N(alpha)^k) == is_norm(b)
    pytest.param(rc, "is_norm",
                 _valuation_term_moved(lambda v, f: -(v // f)),
                 {"fails"}, id="is-norm-valuation-term-sign-flipped"),
    pytest.param(rc, "is_norm", _valuation_term_moved(lambda v, f: v * f),
                 {"fails"}, id="is-norm-v-times-f-for-v-over-f"),
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
    # ROADMAP item 15's two series blind spots, caught by the laws in
    # galois-action-ring-hom's sample loop: a window one term too long
    # in project, and an inverse that is right only at lead 1
    pytest.param(TameAbelianExtension, "project",
                 lambda project: lambda self, x: _one_term_longer(
                     project(self, x)),
                 {"fails"}, id="project-window-one-term-longer"),
    pytest.param(LaurentSeries, "inverse", _lead_added,
                 {"fails"}, id="inverse-minus-one-log-plus-lead"),
    pytest.param(LaurentSeries, "nth_root",
                 lambda root: lambda self, e: _term_changed(
                     root(self, e), -1, _next_log),
                 {"fails"}, id="nth-root-changes-its-last-term"),
    # the substrate all three oracles share (ROADMAP item 11): the Zech
    # table and the two series kernels. Caught on 3, 8, 8 and 7 of the 8
    # matrix extensions, before and after the norm's windows shrank; the
    # swap touches only the 3 towers of more than 8 entries.
    pytest.param(FieldTower, "_build_tables", _zech_swapped,
                 {"fails", "raises"}, id="zech-entries-swapped"),
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
        # run_checks turns a ValueError or ArithmeticError inside a check
        # into that check's failure, "raised <Type>: ..."
        caught.update("raises" if r.detail.startswith("raised ") else "fails"
                      for r in checks.run_checks(ext, 100, 1) if not r.passed)
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


def _library_offences(path):
    """``id(`` outside ``__hash__`` and ``LaurentSeries._key``, and, outside
    ``extension.py``, an attribute written on an extension (a target
    ``ext.x`` or ``<...>.ext.x``, or ``setattr`` on one) or any touch of
    the extension's memo, as ``file:line``."""
    found = []

    def on_extension(node):
        return (isinstance(node, ast.Name) and node.id == "ext"
                or isinstance(node, ast.Attribute) and node.attr == "ext")

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = (*scope, child.name) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef)) else scope
            here = f"{path.name}:{getattr(child, 'lineno', '?')}"
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "id"
                    and scope[-1:] != ("__hash__",)
                    and scope[-2:] != ("LaurentSeries", "_key")):
                found.append(here)
            if path.name != "extension.py" and (
                    isinstance(child, ast.Attribute)
                    and (child.attr == "_memo"
                         or isinstance(child.ctx, ast.Store)
                         and on_extension(child.value))
                    or isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "setattr"
                    and on_extension(child.args[0])):
                found.append(here)
            walk(child, inner)

    walk(ast.parse(path.read_text()), ())
    return found


def test_the_library_keys_nothing_by_id_and_writes_no_extension():
    # CPython reuses a freed object's id, so a table keyed by id can hand
    # a new object a dropped one's entry; an extension's tables live in
    # its own memo, which only ``extension.per_extension`` writes
    source = pathlib.Path(checks.__file__).parent
    assert [spot for path in sorted(source.glob("*.py"))
            for spot in _library_offences(path)] == []


def test_the_library_guard_sees_each_offence(tmp_path):
    # the guard above, on a module that breaks each rule once
    module = tmp_path / "brauer.py"
    module.write_text(
        "class C:\n"
        "    def __hash__(self):\n"
        "        return id(self)\n"
        "    def key(self):\n"
        "        return id(self)\n"
        "def build(ext, g):\n"
        "    ext._tables = 1\n"
        "    g.ext.cache = 2\n"
        "    setattr(ext, 'x', 3)\n"
        "    return ext._memo\n")
    assert _library_offences(module) == [
        f"brauer.py:{line}" for line in (5, 7, 8, 9, 10)]


@pytest.mark.parametrize("descriptors, precision, samples, seed", [
    # the whole suite past the matrix: every admissible descriptor with
    # p^(t*f) <= 16, at precision 8 with 10 samples
    pytest.param(admissible_descriptors(16), 8, 10, 1, id="1"),
    pytest.param(admissible_descriptors(16), 8, 10, 1803, id="1803"),
    # the acceptance matrix as ``lcft check`` runs it by default. At seed
    # 1803, (5,1,1,4,"1")'s hasse-layer once failed "associativity failed
    # on sample 82", when a crossed-product slot whose window cancelled
    # became the exact zero. Each check now has its own stream, so this
    # row no longer draws that triple; test_brauer.py pins it
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


def _stratified_draw(seed, per_cell):
    """Descriptors drawn from the admissible space with
    16 < p^(t*f) <= 2^16, per_cell of them in each cell that has a shape.

    A cell is a class of p crossed with a class of e. The classes of p:
    2; the odd primes below 2^8; the primes from 2^8 to 2^15; the primes
    above 2^15, near the size bound. Past 2^8 every shape is a prime
    field, t*f = 1. The classes of e, the first that applies: e = 1;
    e*f > 32, near the degree cap of 64; e prime; e composite. A draw
    takes t*f uniformly among the values its cell reaches, then a shape
    of that t*f, then an e of the cell on that shape, each uniformly, and
    u0 = g^j for j uniform below e."""
    rng = random.Random(f"stratified-draw-{seed}")
    cells = {}
    for p, t, f in tower_shapes(16, 2**16):
        for e in admissible_ramifications(p, t, f):
            e_class = (0 if e == 1 else 1 if e * f > 32
                       else 2 if is_prime(e) else 3)
            cell = ((p > 2) + (p > 2**8) + (p > 2**15), e_class)
            cells.setdefault(cell, []).append((p, t, f, e))
    drawn = []
    for cell in sorted(cells):
        rows = cells[cell]
        for _ in range(per_cell):
            n = rng.choice(sorted({t * f for _, t, f, _ in rows}))
            shape = rng.choice(sorted({(p, t, f) for p, t, f, _ in rows
                                       if t * f == n}))
            e = rng.choice([row[3] for row in rows if row[:3] == shape])
            drawn.append((*shape, e, f"g^{rng.randrange(e)}"))
    return drawn


def test_run_checks_passes_on_a_stratified_draw_above_size_16():
    # ROADMAP item 23 up to p^(t*f) = 2^16: the whole suite at precision
    # 8 with 10 samples on two draws from each of the 16 cells. It took
    # 7.3 s on a 2-vCPU host (Python 3.11), 0.85 s of it on each of the
    # two degree-1 prime fields near 2^16; seeds 2 to 4 took 4.8-7.2 s
    seed = 1
    descriptors = _stratified_draw(seed, 2)
    assert len(descriptors) == 32
    failed = []
    for d in descriptors:
        try:
            ext = TameAbelianExtension.from_parameters(*d, precision=8)
            results = checks.run_checks(ext, 10, seed)
        except Exception as exc:
            pytest.fail(f"{d} at seed {seed} raised {exc!r}")
        failed += [(d, seed, r.line()) for r in results if not r.passed]
    assert failed == []


def _record_streams(patch, ext, samples, seed):
    """run_checks(ext, samples, seed) with each check wrapped so that it
    files its stream's state on entry and on exit, in call order; returns
    those states keyed by the name that run_checks gives the check's
    result, for the checks that take a stream."""
    calls = []
    for attr, check in list(vars(checks).items()):
        if attr.startswith("check_"):
            sampled = "rng" in inspect.signature(check).parameters

            def recorded(ext, *args, check=check, sampled=sampled):
                rng = args[0] if sampled else None
                calls.append([rng and rng.getstate()])
                findings = check(ext, *args)
                calls[-1].append(rng and rng.getstate())
                return findings
            patch.setattr(checks, attr, recorded)
    results = checks.run_checks(ext, samples, seed)
    assert len(calls) == len(results)
    return {r.name: tuple(states) for r, states in zip(results, calls)
            if states[0] is not None}


def test_each_sampled_check_draws_from_its_own_named_stream(matrix,
                                                            monkeypatch):
    entries = _record_streams(monkeypatch, matrix["mixed_c9"], 10, 7)
    assert len(entries) == 8
    for name, (entry, _) in entries.items():
        assert entry == random.Random(f"7:{name}").getstate(), name


def test_extra_draws_in_one_check_move_no_other_stream(matrix, monkeypatch):
    # the first sampled check draws twice its samples: with one stream for
    # the suite, every later check's samples would move
    ext = matrix["mixed_c9"]
    with monkeypatch.context() as patch:
        plain = _record_streams(patch, ext, 10, 7)
    ring_hom = checks.check_action_is_ring_hom
    monkeypatch.setattr(checks, "check_action_is_ring_hom",
                        lambda ext, rng, samples: ring_hom(ext, rng,
                                                           2 * samples))
    moved = _record_streams(monkeypatch, ext, 10, 7)
    assert moved.keys() == plain.keys()
    assert {name for name in plain if moved[name] != plain[name]} == {
        "galois-action-ring-hom"}


def test_a_failed_assertion_inside_a_check_stops_the_suite(matrix,
                                                           monkeypatch):
    # only ValueError and ArithmeticError become a check's failure
    def asserting(ext):
        raise AssertionError("raised by the test")

    monkeypatch.setattr(checks, "check_structure", asserting)
    with pytest.raises(AssertionError, match="raised by the test"):
        checks.run_checks(matrix["ram_e2"], 10, 1)


def test_hasse_layer_rejects_vanishing_invariants(matrix, rng, monkeypatch):
    # every invariant 0 puts non-norms in the kernel of a faithful character
    monkeypatch.setattr(brauer, "hasse_invariant", lambda chi, b: Fraction(0))
    failures, _ = checks.check_hasse_layer(matrix["ram_e4"], rng, 5)
    assert any("faithful kernel mismatch" in failure for failure in failures)



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
    failures, _ = checks.check_hasse_layer(matrix["deg12"], rng, 5)
    assert failures == ["bilinearity fails in the class slot on sample 3"]


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
        failures, _ = checks.check_hasse_layer(ext, rng, samples)
        assert failures == [], name
        # five per bilinearity sample; then every (character,
        # representative) pair once, for the order, unramified-formula
        # and kernel loops alike
        table = pairs[5 * samples:]
        assert len(table) == ext.degree ** 2, name
        assert len(set(table)) == ext.degree ** 2, name


def test_homomorphism_maps_each_representative_once(matrix, monkeypatch):
    reciprocity_map = rc.reciprocity_map
    calls = []

    def counted(ext, b):
        calls.append(b)
        return reciprocity_map(ext, b)

    monkeypatch.setattr(rc, "reciprocity_map", counted)
    for name, ext in matrix.items():
        r = len(rc.norm_group(ext).coset_representatives)
        calls.clear()
        failures, _ = checks.check_reciprocity_homomorphism(ext)
        assert failures == [], name
        # each representative once, then b1 * b2 for each unordered pair
        assert len(calls) == r + r * (r + 1) // 2, name


def _galois_mul_patched(monkeypatch, product):
    """``GaloisElement.__mul__`` through product(g, h, true g * h); returns
    the list of (g, h) it was called on."""
    mul = GaloisElement.__mul__
    calls = []

    def patched(g, h):
        calls.append((g, h))
        return product(g, h, mul(g, h))

    monkeypatch.setattr(GaloisElement, "__mul__", patched)
    return calls


def test_group_axioms_multiplies_each_unordered_pair_once(matrix,
                                                          monkeypatch):
    calls = _galois_mul_patched(monkeypatch, lambda g, h, gh: gh)
    for name, ext in matrix.items():
        n = ext.degree
        calls.clear()
        failures, detail = checks.check_group_axioms(ext)
        assert failures == [], name
        assert detail == f"{n} elements, {n * n} pairs"
        # g * h and h * g per unordered pair, then g * 1 and g * g^-1
        assert len(calls) == n * (n + 1) + 2 * n, name
        # every ordered pair is multiplied
        pairs = set(calls)
        assert all((g, h) in pairs for g in ext.galois_group()
                   for h in ext.galois_group()), name


@pytest.mark.parametrize("order", ["g, h", "h, g"])
def test_group_axioms_catches_one_noncommuting_ordered_pair(matrix,
                                                            monkeypatch,
                                                            order):
    ext = matrix["deg12"]
    group = ext.galois_group()
    g, h = group[2], group[7]
    if order == "h, g":
        g, h = h, g
    zeta = ext.inertia_generator()
    mul = GaloisElement.__mul__
    # g * h moved by zeta, still a member: only commutativity can fail
    _galois_mul_patched(monkeypatch, lambda x, y, xy: (
        mul(xy, zeta) if (x, y) == (g, h) else xy))
    failures, _ = checks.check_group_axioms(ext)
    assert any("not commutative" in failure for failure in failures), (
        order, failures)


def test_group_axioms_catches_a_nonmember_the_closure_test_skips(
        matrix, monkeypatch):
    ext = matrix["deg12"]
    group = ext.galois_group()
    g, h = group[2], group[7]
    # h * g: the order that the pair loop compares, never tests for closure
    outsider = object.__new__(GaloisElement)
    outsider.ext, outsider.a, outsider.c_log, outsider.frob = (
        ext, 0, 1, 1)
    assert outsider not in set(group)
    _galois_mul_patched(monkeypatch, lambda x, y, xy: (
        outsider if (x, y) == (h, g) else xy))
    failures, _ = checks.check_group_axioms(ext)
    assert failures == [f"not commutative: {g}, {h}"]


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
        failures, _ = checks.check_uniformizer_independence(ext, rng,
                                                            samples)
        assert failures == [], name
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
    failures, _ = checks.check_uniformizer_independence(ext, rng, 3)
    expected = [f"sample {n}, {b}: {rc.reciprocity_map(ext, b)} vs "
                f"{ext.identity()}"
                for n in range(3) for b in reps
                if rc.reciprocity_map(ext, b) != ext.identity()]
    assert expected
    assert failures == expected


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
    findings = [checks.check_totally_ramified_laws(ext),
                checks.check_unramified_law(ext, random.Random(1), 10)]
    assert [failures for failures, _ in findings] == [[], []]
    # one of the two checks is skipped, the other walks all of k*
    assert sum(detail.startswith("skipped") for _, detail in findings) == 1
    assert built == []
