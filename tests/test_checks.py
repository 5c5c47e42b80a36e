from fractions import Fraction

from lcft import brauer, checks, reciprocity as rc
from lcft.series import LaurentSeries


def test_root_extraction_rejects_a_truncated_root(matrix, rng, monkeypatch):
    nth_root = LaurentSeries.nth_root

    def truncated(self, e):
        r = nth_root(self, e)
        return LaurentSeries(r.tower, r.symbol, r.valuation, r.logs[:-1])

    monkeypatch.setattr(LaurentSeries, "nth_root", truncated)
    result = checks.check_root_extraction(matrix["ram_e2"], rng, 5)
    assert not result.passed
    assert "precision 31 != 32" in result.detail


def test_oracle_agreement_rejects_the_other_search_sign(matrix,
                                                        monkeypatch):
    # (7,1,2,6,"1") and (3,1,2,2,"g"): both have e even, so sign = -1
    names = ("deg12", "mixed_e2_cyclic")
    assert all(checks.check_oracle_agreement(matrix[n]).passed
               for n in names)
    sign = rc._sign_constant
    monkeypatch.setattr(rc, "_sign_constant", lambda ext: -sign(ext))
    for name in names:
        result = checks.check_oracle_agreement(matrix[name])
        assert not result.passed, name
        assert "closed" in result.detail, name


def test_hasse_layer_rejects_vanishing_invariants(matrix, rng, monkeypatch):
    # every invariant 0 puts non-norms in the kernel of a faithful character
    monkeypatch.setattr(brauer, "hasse_invariant", lambda chi, b: Fraction(0))
    result = checks.check_hasse_layer(matrix["ram_e4"], rng, 5)
    assert not result.passed
    assert "faithful kernel mismatch" in result.detail



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
        # representative) pair once for the order and kernel loops, and
        # once more for the unramified formula when e = 1
        table = pairs[5 * samples:]
        assert len(table) == (1 + (ext.e == 1)) * ext.degree ** 2, name
        assert len(set(table[-ext.degree ** 2:])) == ext.degree ** 2, name


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
