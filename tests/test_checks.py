from lcft import checks
from lcft.series import LaurentSeries


def test_root_extraction_rejects_a_truncated_root(matrix, rng, monkeypatch):
    nth_root = LaurentSeries.nth_root

    def truncated(self, e):
        r = nth_root(self, e)
        return LaurentSeries(r.tower, r.symbol, r.valuation, r.coeffs[:-1])

    monkeypatch.setattr(LaurentSeries, "nth_root", truncated)
    result = checks.check_root_extraction(matrix["ram_e2"], rng, 5)
    assert not result.passed
    assert "precision 31 != 32" in result.detail
