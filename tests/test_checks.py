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
