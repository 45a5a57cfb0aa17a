"""Acceptance suite: every exit criterion at its stated tolerance.

The criteria are implemented once in :mod:`spintomo.selftest` (shared with
``spintomo selftest``); here each one becomes a pytest case that prints its
pass/fail line and asserts both the verdict and the runtime budget.
"""

import pytest

from spintomo.selftest import CRITERIA, WALL_CLOCK_BUDGET_SECONDS


def _result(report, index):
    result = report.results[index - 1]
    assert result.index == index
    print(result.line())
    return result


def _assert_passed(result):
    assert result.passed, result.details
    if result.budget_seconds is not None:
        assert result.seconds < result.budget_seconds, (
            f"criterion {result.index} took {result.seconds:.2f} s, "
            f"budget {result.budget_seconds} s")


def test_criterion_01_frame_completeness_and_normalization(selftest_report):
    result = _result(selftest_report, 1)
    _assert_passed(result)
    assert result.details["max_completeness_defect"] <= 1e-12
    assert result.details["max_normalization_defect"] <= 1e-12


def test_criterion_02_two_qubit_reconstruction(selftest_report):
    result = _result(selftest_report, 2)
    _assert_passed(result)
    assert result.details["max_frobenius_residual"] <= 1e-8
    assert result.details["n_states"] == 100


def test_criterion_03_qudit_reconstruction(selftest_report):
    result = _result(selftest_report, 3)
    _assert_passed(result)
    assert result.details["max_frobenius_residual"] <= 1e-8
    if result.details["selected"] == "dual_frame":
        # the explicit candidate missed, so the report must name the culprits
        assert result.details["failing_entries_enumerated"]
        assert result.details["explicit_best_residual"] > 1e-6


def test_criterion_04_werner_qudit_closed_forms(selftest_report):
    result = _result(selftest_report, 4)
    _assert_passed(result)
    assert result.details["max_closed_form_dev"] <= 1e-10
    assert result.details["max_beta0_dev"] <= 1e-12


def test_criterion_05_kernel_intertwining(selftest_report):
    result = _result(selftest_report, 5)
    _assert_passed(result)
    assert result.details["max_residual_qudit_to_pair"] <= 1e-8
    assert result.details["max_residual_pair_to_qudit"] <= 1e-8


def test_criterion_06_closed_form_kernel_crosscheck(selftest_report):
    result = _result(selftest_report, 6)
    _assert_passed(result)
    assert result.details["agrees"] or result.details["discrepancy_report_emitted"]


def test_criterion_07_correlation_equivalence(selftest_report):
    result = _result(selftest_report, 7)
    _assert_passed(result)
    assert result.details["max_pairwise_deviation"] <= 1e-8


def test_criterion_08_werner_correlations(selftest_report):
    result = _result(selftest_report, 8)
    _assert_passed(result)
    assert result.details["max_zz_dev"] <= 1e-12
    assert result.details["max_tensor_dev"] <= 1e-12


def test_criterion_09_bell_bounds(selftest_report):
    result = _result(selftest_report, 9)
    _assert_passed(result)
    assert result.details["max_werner_dev"] <= 1e-3
    assert result.details["max_product_chsh"] <= 2 + 1e-6
    assert result.details["werner1_chsh"] > 2


def test_criterion_10_steering_report(selftest_report):
    result = _result(selftest_report, 10)
    _assert_passed(result)
    assert result.details["max_lhs_dev"] <= 1e-10
    assert result.details["max_grid_dev"] <= 1e-3
    assert result.details["report_complete"]


def test_criterion_11_no_signaling_and_third_angle(selftest_report):
    result = _result(selftest_report, 11)
    _assert_passed(result)
    assert result.details["max_marginal_variation"] <= 1e-12
    assert result.details["max_third_angle_variation"] <= 1e-12


def test_criterion_12_wall_clock(selftest_report):
    result = _result(selftest_report, 12)
    _assert_passed(result)
    assert selftest_report.wall_clock_seconds < WALL_CLOCK_BUDGET_SECONDS


def test_criteria_run_in_index_order():
    # @_criterion appends each criterion where it is defined
    assert [fn.index for fn in CRITERIA] == list(range(1, 12))
