"""Acceptance gate: every numbered criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion check.  The checks are the same functions the scenario runner uses,
at default resolutions.
"""

import time

import pytest

from bergsmooth.scenarios import (
    ScenarioConfig,
    check_conj_annulus,
    check_conj_disk,
    check_decomposition,
    check_duality,
    check_ftc,
    check_hardy,
    check_partial_smoothing,
    check_product_bound,
    check_reproduction,
)

_T0 = time.perf_counter()


@pytest.fixture(scope="module")
def cfg():
    return ScenarioConfig(scenario="ftc")


def _grade(checks):
    for c in checks:
        print(c.summary_line())
    failed = [c for c in checks if not c.passed]
    assert not failed, "; ".join(c.summary_line() for c in failed)


def test_criterion_1_flow_reproduction(cfg):
    checks, _ = check_ftc(cfg)
    _grade(checks)


def test_criterion_2_hardy_bounds(cfg):
    checks, _ = check_hardy(cfg)
    _grade(checks)


def test_criterion_3_reproduction_identity(cfg):
    checks, _ = check_reproduction(cfg)
    _grade(checks)


def test_criterion_4_decomposition(cfg):
    checks, _ = check_decomposition(cfg)
    _grade(checks)


def test_criterion_5_disk_conjugate_smoothing(cfg):
    checks, _ = check_conj_disk(cfg)
    _grade(checks)


def test_criterion_6_annulus_conjugate_smoothing(cfg):
    checks, _ = check_conj_annulus(cfg)
    _grade(checks)


def test_criterion_7_partial_smoothing(cfg):
    checks, _ = check_partial_smoothing(cfg)
    _grade(checks)


def test_criterion_8_duality(cfg):
    checks, _ = check_duality(cfg)
    _grade(checks)


def test_criterion_9_product_bound(cfg):
    checks, _ = check_product_bound(cfg)
    _grade(checks)


@pytest.mark.parametrize("seed", [906978376, 1417112032, 1498377115])
def test_criterion_9_no_rounding_failure(seed):
    # seeds where the two sides, rounded from different factors, differed by an ulp
    checks, _ = check_product_bound(ScenarioConfig(scenario="conj-smoothing", seed=seed))
    _grade(checks)


def test_total_runtime_target():
    elapsed = time.perf_counter() - _T0
    print(f"[INFO] acceptance suite runtime so far: {elapsed:.1f}s (target < 300s)")
    assert elapsed < 300.0
