"""Acceptance gate: every release criterion, one pass line each.

The module-scoped fixture executes the built-in acceptance batch once; each
test then reports a single criterion so `pytest -v` shows one verdict line per
criterion. `simrun acceptance` prints the same lines from the command line.
"""

from dataclasses import replace

import pytest

from dualitysim import acceptance
from dualitysim.acceptance import REPLICATE_SEED, _replicate_errors, run_acceptance


@pytest.fixture(scope="module")
def report():
    return run_acceptance()


def _check(report, number):
    criterion = report.criteria[number - 1]
    assert criterion.number == number
    print(criterion.line())
    assert criterion.passed, criterion.detail


def test_the_gate_covers_all_nine_criteria(report):
    assert [c.number for c in report.criteria] == list(range(1, 10))
    assert report.all_passed, report.summary_line()


def test_criterion_1_predictor_posterior_curve(report):
    _check(report, 1)


def test_criterion_2_tv_and_delta_identities(report):
    _check(report, 2)


def test_criterion_3_extremal_region_beats_the_noise_threshold(report):
    _check(report, 3)


def test_criterion_4_consistency_margin_of_the_switch_refusal(report):
    _check(report, 4)


def test_criterion_5_eraser_subsets_fringes_and_tagged_flats(report):
    _check(report, 5)


def test_criterion_6_policies_separate_and_classifier_is_reliable(report):
    _check(report, 6)


def test_criterion_7_interference_sampler_passes_ks(report):
    _check(report, 7)


def test_criterion_8_reports_reproduce_byte_for_byte(report):
    _check(report, 8)


def test_criterion_9_idler_delay_never_alters_the_pattern(report):
    _check(report, 9)


def test_replicate_errors_come_from_the_shipped_classifier(monkeypatch):
    """Criterion 6 counts the sign errors of ``classify_pattern`` itself: a
    classifier with its log-likelihood ratio negated gets every replicate wrong."""
    assert _replicate_errors(60, 50, REPLICATE_SEED) == 0
    classify = acceptance.classify_pattern

    def negated(samples, cfg):
        result = classify(samples, cfg)
        return replace(result, log_likelihood_ratio=-result.log_likelihood_ratio)

    monkeypatch.setattr(acceptance, "classify_pattern", negated)
    assert _replicate_errors(60, 50, REPLICATE_SEED) == 100
