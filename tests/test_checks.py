from fractions import Fraction

from lcft import brauer, checks
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
