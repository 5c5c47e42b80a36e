"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines. Each
criterion runs the ``lcft.checks`` function that ``lcft check`` runs, on
a chosen set of extensions with fixed sample counts and seed; the stated
wall-clock budgets are asserted where the criterion carries one.
"""

import random
import time

from lcft import checks
from lcft.extension import TameAbelianExtension


def _assert_criterion(label, budget, exts, check, *args):
    """Run ``check(ext, *args)`` on every extension within the budget."""
    start = time.perf_counter()
    try:
        for name, ext in exts.items():
            result = check(ext, *args)
            assert result.passed, (name, result.detail)
    except Exception:
        print(f"FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"{label} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS {label} ({elapsed:.2f}s)")


def _rng():
    return random.Random(0xACCE97)


def test_criterion_01_oracle_equivalence(matrix):
    _assert_criterion("criterion-01 closed form = congruence search", 10.0,
                      matrix, checks.check_oracle_agreement)


def test_criterion_02_kernel_and_isomorphism(matrix):
    _assert_criterion("criterion-02 kernel and isomorphism", 10.0, matrix,
                      checks.check_kernel_and_bijection, _rng(), 200)


def test_criterion_03_unramified_law():
    unramified = {params: TameAbelianExtension.from_parameters(*params)
                  for params in ((3, 1, 2, 1, "1"), (2, 2, 3, 1, "1"),
                                 (7, 1, 2, 1, "1"))}
    _assert_criterion("criterion-03 unramified law theta(b) = Frob^v(b)",
                      None, unramified, checks.check_unramified_law,
                      _rng(), 25)


def test_criterion_04_totally_ramified_norm_criterion(matrix):
    _assert_criterion("criterion-04 totally ramified norm criterion", None,
                      {name: matrix[name] for name in ("ram_e2", "ram_e4")},
                      checks.check_totally_ramified_laws)


def test_criterion_05_norm_congruences(matrix):
    _assert_criterion("criterion-05 norm congruence identities", None,
                      matrix, checks.check_norm_congruences, _rng(), 100, 10)


def test_criterion_06_ramification_filtration(matrix):
    _assert_criterion("criterion-06 ramification filtration", None, matrix,
                      checks.check_ramification_filtration, _rng(), 10)


def test_criterion_07_group_axioms_exhaustive(matrix):
    _assert_criterion("criterion-07 pair-group axioms, all pairs", None,
                      matrix, checks.check_group_axioms)


def test_criterion_08_uniformizer_independence(matrix):
    _assert_criterion("criterion-08 uniformizer independence", None, matrix,
                      checks.check_uniformizer_independence, _rng(), 10)


def test_criterion_09_hasse_invariant_layer(matrix):
    _assert_criterion("criterion-09 hasse invariant layer", 20.0, matrix,
                      checks.check_hasse_layer, _rng(), 100)


def test_criterion_10_hensel_root_extraction(matrix):
    _assert_criterion("criterion-10 e-th root extraction at precision 32",
                      None, matrix, checks.check_root_extraction, _rng(), 100)
