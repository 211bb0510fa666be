"""Posteriors, the interval-mass functional, classification, and sample sizing."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from dualitysim.optics import (
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    ValidationError,
)
from dualitysim.stats import (
    DENSITY_FLOOR_FRACTION,
    VERDICT_LLR_THRESHOLD,
    FeasibilityReport,
    PosteriorCurve,
    PosteriorMode,
    Verdict,
    approx_posterior,
    bhattacharyya_coefficient,
    classify_pattern,
    contradiction_margin,
    delta_of_interval_set,
    exact_posterior,
    optimal_interval_set,
    required_sample_size,
    tv_distance,
    tv_distance_empirical,
)

DEFAULT = OpticsConfig()
ODD = OpticsConfig(screen_halfwidth_m=0.5e-3)
A = DEFAULT.fringe_scale_m

# frozen quad oracles for the 10/7-period window
ODD_TV = 0.38852533314495435
ODD_RHO = 0.8677279098347191


def x_values():
    lo, hi = DEFAULT.window
    return st.floats(min_value=lo, max_value=hi, exclude_max=True, allow_nan=False)


@st.composite
def interval_sets(draw, max_intervals=4):
    lo, hi = DEFAULT.window
    k = draw(st.integers(1, max_intervals))
    pts = sorted(
        draw(
            st.lists(
                st.floats(min_value=lo, max_value=hi, allow_nan=False),
                min_size=2 * k,
                max_size=2 * k,
                unique=True,
            )
        )
    )
    return IntervalSet.from_pairs(list(zip(pts[0::2], pts[1::2])), window=DEFAULT.window)


class TestPosteriors:
    def test_dark_fringe_pins_the_record(self):
        dark = A / 2 - 1e-15
        assert float(np.asarray(exact_posterior(dark, DEFAULT))) == pytest.approx(1.0, abs=1e-9)
        assert float(np.asarray(approx_posterior(dark, DEFAULT))) == pytest.approx(1.0, abs=1e-9)

    def test_bright_fringe_posterior_is_one_third(self):
        assert float(np.asarray(exact_posterior(0.0, DEFAULT))) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert float(np.asarray(approx_posterior(0.0, DEFAULT))) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(x=x_values())
    def test_approx_equals_exact_on_integer_windows(self, x):
        # on integer-fringe windows the flat-pattern shortcut is the exact posterior
        assert float(np.asarray(approx_posterior(x, DEFAULT))) == pytest.approx(
            float(np.asarray(exact_posterior(x, DEFAULT))), abs=1e-12
        )

    @given(x=x_values())
    def test_approx_posterior_bounds(self, x):
        value = float(np.asarray(approx_posterior(x, DEFAULT)))
        assert 1.0 / 3.0 - 1e-12 <= value <= 1.0

    def test_curve_object_dispatches_modes(self):
        exact_curve = PosteriorCurve(DEFAULT, PosteriorMode.EXACT)
        approx_curve = PosteriorCurve(DEFAULT, PosteriorMode.APPROXIMATE)
        xs = np.linspace(-3e-4, 3e-4, 7)
        np.testing.assert_allclose(np.asarray(exact_curve(xs)), np.asarray(exact_posterior(xs, DEFAULT)))
        np.testing.assert_allclose(np.asarray(approx_curve(xs)), np.asarray(approx_posterior(xs, DEFAULT)))

    def test_posterior_outside_window_fails(self):
        with pytest.raises(Exception):
            exact_posterior(1.0, DEFAULT)


class TestDeltaFunctional:
    def test_trivial_sets_have_unit_delta(self):
        assert delta_of_interval_set(IntervalSet.empty(), DEFAULT) == 1.0
        assert delta_of_interval_set(IntervalSet.full_window(DEFAULT), DEFAULT) == 1.0

    def test_optimal_set_is_the_bright_half_period(self):
        star = optimal_interval_set(DEFAULT)
        assert len(star.intervals) == 1
        lo, hi = star.intervals[0]
        assert lo == pytest.approx(-A / 4, rel=1e-12)
        assert hi == pytest.approx(A / 4, rel=1e-12)

    def test_minimum_delta_is_one_minus_tv(self):
        star = optimal_interval_set(DEFAULT)
        assert delta_of_interval_set(star, DEFAULT) == pytest.approx(1.0 - 1.0 / math.pi, abs=1e-12)

    @given(iset=interval_sets())
    @settings(max_examples=60)
    def test_complement_additivity(self, iset):
        comp = iset.complement(DEFAULT.window)
        total = delta_of_interval_set(iset, DEFAULT) + delta_of_interval_set(comp, DEFAULT)
        assert total == pytest.approx(2.0, abs=1e-9)

    @given(iset=interval_sets())
    @settings(max_examples=60)
    def test_optimal_set_is_minimal(self, iset):
        floor = delta_of_interval_set(optimal_interval_set(DEFAULT), DEFAULT)
        assert delta_of_interval_set(iset, DEFAULT) >= floor - 1e-12

    def test_odd_window_minimum_matches_its_tv(self):
        star = optimal_interval_set(ODD)
        assert delta_of_interval_set(star, ODD) == pytest.approx(1.0 - ODD_TV, abs=1e-11)


class TestTvDistance:
    def test_default_equals_one_over_pi(self):
        assert tv_distance(DEFAULT) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_matches_quadrature(self):
        wave = PatternDistribution(PatternKind.WAVE, DEFAULT)
        level = 1.0 / DEFAULT.window_width_m
        lo, hi = DEFAULT.window
        integral, _ = quad(
            lambda x: abs(float(np.asarray(wave.density(x))) - level),
            lo,
            hi,
            points=[-A / 4, A / 4],
            epsabs=1e-14,
        )
        assert tv_distance(DEFAULT) == pytest.approx(0.5 * integral, abs=1e-10)

    def test_odd_window_frozen_oracle(self):
        assert tv_distance(ODD) == pytest.approx(ODD_TV, abs=1e-11)

    def test_envelope_branch(self):
        cfg = OpticsConfig(envelope_enabled=True)
        value = tv_distance(cfg)
        assert 0.1 < value < 1.0
        star = optimal_interval_set(cfg)
        assert delta_of_interval_set(star, cfg) == pytest.approx(1.0 - value, abs=1e-7)


class TestFeasibility:
    def test_margin_equals_tv_at_the_optimum(self):
        report = contradiction_margin(optimal_interval_set(DEFAULT), DEFAULT)
        assert isinstance(report, FeasibilityReport)
        assert not report.feasible_under_outcome_i
        assert report.margin == pytest.approx(tv_distance(DEFAULT), abs=1e-12)
        assert report.delta_value == pytest.approx(1.0 - 1.0 / math.pi, abs=1e-12)

    def test_trivial_sets_are_feasible(self):
        for iset in (IntervalSet.empty(), IntervalSet.full_window(DEFAULT)):
            report = contradiction_margin(iset, DEFAULT)
            assert report.feasible_under_outcome_i
            assert report.margin == pytest.approx(0.0, abs=1e-12)

    def test_report_consistency_is_enforced(self):
        good = contradiction_margin(optimal_interval_set(DEFAULT), DEFAULT)
        with pytest.raises(ValidationError):
            FeasibilityReport(
                interval_set=good.interval_set,
                delta_value=good.delta_value,
                tv_value=good.tv_value,
                margin=good.margin + 0.5,
                feasible_under_outcome_i=good.feasible_under_outcome_i,
            )

    def test_json_dict_round_trips_fields(self):
        report = contradiction_margin(optimal_interval_set(DEFAULT), DEFAULT, marker="outcome_i_infeasible")
        doc = report.to_json_dict()
        assert doc["feasible_under_outcome_i"] is False
        assert doc["marker"] == "outcome_i_infeasible"
        assert doc["interval_set"] == [list(p) for p in report.interval_set]


class TestClassifier:
    def test_wave_samples_classify_wave(self):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT)
        x = np.asarray(dist.sample(np.random.default_rng(0), 10_000))
        result = classify_pattern(x, DEFAULT)
        assert result.verdict is Verdict.WAVE
        assert result.log_likelihood_ratio > VERDICT_LLR_THRESHOLD

    def test_particle_samples_classify_particle(self):
        dist = PatternDistribution(PatternKind.PARTICLE, DEFAULT)
        x = np.asarray(dist.sample(np.random.default_rng(0), 10_000))
        result = classify_pattern(x, DEFAULT)
        assert result.verdict is Verdict.PARTICLE
        assert result.log_likelihood_ratio < -VERDICT_LLR_THRESHOLD

    @given(x=x_values())
    @settings(max_examples=100)
    def test_single_sample_never_reaches_a_verdict(self, x):
        # per-sample contributions are clipped to the verdict threshold
        result = classify_pattern(np.array([x]), DEFAULT)
        assert result.verdict is Verdict.INDETERMINATE
        assert abs(result.log_likelihood_ratio) <= VERDICT_LLR_THRESHOLD

    def test_single_dark_sample_is_indeterminate(self):
        dark = np.array([A / 2 - 1e-13])
        result = classify_pattern(dark, DEFAULT)
        assert result.verdict is Verdict.INDETERMINATE
        assert result.log_likelihood_ratio == pytest.approx(-VERDICT_LLR_THRESHOLD)

    def test_anti_fringe_subset_with_matching_phase(self):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT, phase_offset_rad=0.5 * math.pi)
        x = np.asarray(dist.sample(np.random.default_rng(1), 5000))
        assert classify_pattern(x, DEFAULT, phase_offset_rad=0.5 * math.pi).verdict is Verdict.WAVE

    def test_truncated_classification_on_a_carved_region(self):
        # structureless samples restricted to the bright half still classify structureless
        region = optimal_interval_set(DEFAULT)
        dist = PatternDistribution(PatternKind.PARTICLE, DEFAULT)
        rng = np.random.default_rng(2)
        x = np.asarray(dist.sample(rng, 40_000))
        inside = x[np.asarray(region.contains(x))]
        result = classify_pattern(inside, DEFAULT, restrict_to=region)
        assert result.verdict is Verdict.PARTICLE

    def test_restriction_rejects_outside_samples(self):
        region = optimal_interval_set(DEFAULT)
        with pytest.raises(ValidationError):
            classify_pattern(np.array([0.3e-3]), DEFAULT, restrict_to=region)

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValidationError):
            classify_pattern(np.array([]), DEFAULT)


class TestSampleSizing:
    def test_bhattacharyya_closed_form(self):
        rho = bhattacharyya_coefficient(DEFAULT)
        assert rho == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, abs=1e-12)

    def test_bhattacharyya_matches_quadrature(self):
        wave = PatternDistribution(PatternKind.WAVE, DEFAULT)
        level = 1.0 / DEFAULT.window_width_m
        integral, _ = quad(
            lambda x: math.sqrt(float(np.asarray(wave.density(x))) * level),
            *DEFAULT.window,
            epsabs=1e-14,
        )
        assert bhattacharyya_coefficient(DEFAULT) == pytest.approx(integral, abs=1e-10)

    def test_odd_window_frozen_oracle(self):
        assert bhattacharyya_coefficient(ODD) == pytest.approx(ODD_RHO, abs=1e-10)

    @pytest.mark.parametrize("halfwidth", [0.8e-3, 20.29 * 0.35e-3, 1e-4, 1e-6])
    def test_closed_form_matches_piecewise_quadrature(self, halfwidth):
        cfg = OpticsConfig(screen_halfwidth_m=halfwidth)
        wave = PatternDistribution(PatternKind.WAVE, cfg)
        lo, hi = cfg.window
        level = 1.0 / cfg.window_width_m
        # split at the dark fringes, where the integrand has kinks
        darks = [(j + 0.5) * A for j in range(math.floor(lo / A) - 1, math.ceil(hi / A) + 1)]
        edges = [lo, *(x for x in darks if lo < x < hi), hi]
        pieces = [
            quad(lambda x: math.sqrt(float(np.asarray(wave.density(x))) * level), p, q, epsabs=0.0, epsrel=1e-13)[0]
            for p, q in zip(edges, edges[1:])
        ]
        assert bhattacharyya_coefficient(cfg) == pytest.approx(math.fsum(pieces), rel=1e-12)

    @pytest.mark.parametrize("target,expected", [(1e-3, 60), (0.25, 7)])
    def test_required_sample_size(self, target, expected):
        plan = required_sample_size(target, DEFAULT)
        assert plan.n_samples == expected
        rho = plan.bhattacharyya
        assert 0.5 * rho**plan.n_samples <= target
        assert 0.5 * rho ** (plan.n_samples - 1) > target

    def test_required_sample_size_is_monotone(self):
        sizes = [required_sample_size(t, DEFAULT).n_samples for t in (0.25, 0.1, 0.01, 1e-3, 1e-6)]
        assert sizes == sorted(sizes)

    def test_required_sample_size_on_a_narrow_window(self):
        # 2/7 of a fringe, where a numeric integral's fringe-unit bounds once
        # landed an ulp outside the window and raised DomainError
        plan = required_sample_size(1e-3, OpticsConfig(screen_halfwidth_m=1e-4))
        assert 0.999 < plan.bhattacharyya < 1.0
        assert 0.5 * plan.bhattacharyya**plan.n_samples <= 1e-3

    @pytest.mark.parametrize("target", [0.0, 0.5, 1.0, -0.1])
    def test_target_domain(self, target):
        with pytest.raises(ValidationError):
            required_sample_size(target, DEFAULT)


class TestEmpiricalTv:
    def test_opposite_laws_show_the_analytic_gap(self):
        wave = PatternDistribution(PatternKind.WAVE, DEFAULT)
        particle = PatternDistribution(PatternKind.PARTICLE, DEFAULT)
        rng = np.random.default_rng(9)
        w = np.asarray(wave.sample(rng, 200_000))
        p = np.asarray(particle.sample(rng, 200_000))
        est = tv_distance_empirical(p, w, DEFAULT)
        assert est == pytest.approx(1.0 / math.pi, abs=0.02)

    def test_same_law_estimate_is_small(self):
        particle = PatternDistribution(PatternKind.PARTICLE, DEFAULT)
        rng = np.random.default_rng(10)
        a = np.asarray(particle.sample(rng, 100_000))
        b = np.asarray(particle.sample(rng, 100_000))
        # the histogram estimator is positively biased, so small but not zero
        assert tv_distance_empirical(a, b, DEFAULT) < 0.05


def test_importing_the_package_loads_no_scipy():
    """scipy serves only the enveloped law's root search, imported on use."""
    import dualitysim

    src = os.path.dirname(os.path.dirname(os.path.abspath(dualitysim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dualitysim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
