"""Posteriors, the interval-mass functional, classification, and sample sizing."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from dualitysim.cli import canonical_json
from dualitysim.optics import (
    DomainError,
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    ValidationError,
    particle_density,
    wave_density,
)
from dualitysim.stats import (
    DENSITY_FLOOR_FRACTION,
    VERDICT_LLR_THRESHOLD,
    FeasibilityReport,
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


#: (tv_distance, rho, required_sample_size(1e-3) and the sha256 of the repr of
#: the optimal interval set's pairs) on integer, non-integer and tiny windows,
#: recorded while the uniform law still had its own code path. The TV values
#: are those of the closed form per cell; ``EDGE_FORM_TV`` keeps the earlier ones
UNIFORM_PLANS = {
    "default": (0.35e-3, 0.3183098861837907, 0.9003163161571061, 60, "2c3fc5229940b70f01c2b07f413788464d7e01bf024fcf02e55e2ae905fcc498"),
    "odd": (0.5e-3, 0.38852533314495324, 0.8677279098347189, 44, "e4370a523cce510a27763f50a1b6e73f05875115389aa34b545b9153be202993"),
    "m20_29": (20.29 * 0.35e-3, 0.31597702378365733, 0.9013998256543322, 60, "9f0e7ea0cf30cdfdd18d93dcd51beeac882f8e8018530e4d229d79dd1f2ab317"),
    "m50_29": (50.29 * 0.35e-3, 0.31737721979617667, 0.900750958275395, 60, "44c116d6a95a75782e22bcdeddbe2e4e11fc905e341ca2b45d3f0a0b48761f78"),
    "hw1e-4": (1e-4, 0.02617364703112287, 0.999531717336379, 13268, "e9b2dbb3c987385af37c3bd89518eba8c78f49e6f2e257d280dcc181630a3c98"),
    "hw5e-8": (5e-8, 6.46056550021456e-09, 0.9999999999999999, 55976213432615692, "f12f4599e3c64f6754e19332675641d2dc7a8d224bbd15ffcea100cd45f6f159"),
}


@pytest.mark.parametrize("name", sorted(UNIFORM_PLANS))
def test_uniform_planning_values_are_pinned(name):
    halfwidth, tv, rho, n, pieces = UNIFORM_PLANS[name]
    cfg = OpticsConfig(screen_halfwidth_m=halfwidth)
    assert tv_distance(cfg) == tv
    assert bhattacharyya_coefficient(cfg) == rho
    assert required_sample_size(1e-3, cfg).n_samples == n
    pairs = [tuple(pair) for pair in optimal_interval_set(cfg).intervals.tolist()]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == pieces


#: a paraxial geometry of 1e-8 m fringes, whose 0.1 m halfwidth spans 2e7 of them
WIDE = dict(wavelength_m=700e-9, slit_separation_m=70.0, slit_screen_distance_m=1.0)


@pytest.mark.parametrize("m", [1, 1e3, 2e5, 2e7])
def test_tv_on_integer_windows_is_one_over_pi_to_two_ulp(m):
    """The interval-edge form this replaced was off by 1.5e-14 at m = 1e3,
    6.8e-13 at 2e5 and 3.0e-11 at 2e6."""
    a = OpticsConfig(**WIDE).fringe_scale_m
    cfg = OpticsConfig(**WIDE, screen_halfwidth_m=m * a / 2)
    assert cfg.is_integer_fringe_window() and round(cfg.fringe_count) == m
    assert abs(tv_distance(cfg) - 1.0 / math.pi) <= 2 * np.spacing(1.0 / math.pi)


#: TV as the interval-edge form gave it, the CDFs of both laws differenced at
#: every sign boundary of the two densities, on the pinned and golden windows
EDGE_FORM_TV = {
    "default": 0.31830988618379064,
    "odd": 0.38852533314495347,
    "m20_29": 0.31597702378365694,
    "m50_29": 0.317377219796176,
    "hw1e-4": 0.026173647031122793,
    "hw5e-8": 6.460565402099938e-09,
    "m2_29": 0.2956211749864276,
    "envelope-m1": 0.31286454531730323,
    "envelope-m400": 0.9219264264628142,
    "envelope-m4000": 0.9679680119210349,
    "envelope-narrow": 0.9765260468889051,
    "envelope-m8000": 0.9769769218740048,
}


#: enveloped geometries from one fringe to about 8,000: the default window,
#: two wide windows, a narrow envelope whose lobes span about four fringes,
#: and a wide window of 8,000 fringes
ENVELOPES = {
    "m1": OpticsConfig(envelope_enabled=True),
    "m400": OpticsConfig(slit_separation_m=1.4e-3, screen_halfwidth_m=0.1, envelope_enabled=True),
    "m4000": OpticsConfig(slit_separation_m=14e-3, screen_halfwidth_m=0.1, envelope_enabled=True),
    "narrow": OpticsConfig(71.2e-9, 8.32e-3, 0.997, 33.7e-3, envelope_enabled=True),
    "m8000": OpticsConfig(slit_separation_m=28e-3, screen_halfwidth_m=0.1, envelope_enabled=True),
}


@pytest.mark.parametrize("name", sorted(EDGE_FORM_TV))
def test_tv_agrees_with_the_interval_edge_form(name):
    if name.startswith("envelope-"):
        cfg = ENVELOPES[name.removeprefix("envelope-")]
    else:
        cfg = OpticsConfig(screen_halfwidth_m=UNIFORM_PLANS[name][0] if name in UNIFORM_PLANS else 0.8e-3)
    assert tv_distance(cfg) == pytest.approx(EDGE_FORM_TV[name], rel=0.0, abs=1e-13)


def _cells(cfg: OpticsConfig) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The particle law's cell edges and levels, the wave law's c and pi / a."""
    xs, cdf = PatternDistribution(PatternKind.PARTICLE, cfg)._cell_table
    wave = PatternDistribution(PatternKind.WAVE, cfg)
    return xs, np.diff(cdf) / np.diff(xs), wave._wave_norm, math.pi / cfg.fringe_scale_m


class TestEnvelopePlanning:
    """The enveloped law is constant on each cell of its CDF table, and the
    planning calls take its crossings and integrals cell by cell in closed form."""

    @pytest.mark.parametrize("name", ["m1", "m400", "m4000", "narrow"])
    def test_crossings_match_a_dense_scan(self, name):
        cfg = ENVELOPES[name]
        wave = PatternDistribution(PatternKind.WAVE, cfg)
        particle = PatternDistribution(PatternKind.PARTICLE, cfg)
        diff = lambda x: wave.density(x) - particle.density(x)
        # the bright intervals' ends, less the window's edges, are the sign boundaries
        bounds = optimal_interval_set(cfg).intervals.ravel()
        assert np.all(bounds[1:] > bounds[:-1]) and cfg.window[0] <= bounds[0] and bounds[-1] <= cfg.window[1]
        got = bounds[(bounds > cfg.window[0]) & (bounds < cfg.window[1])]
        # every scan cell holds an odd number of boundaries exactly where the
        # scan changes sign; pieces narrower than a scan cell come in pairs
        grid = np.linspace(*cfg.window, 1_000_001)
        signs = np.sign(diff(grid))
        per_cell = np.bincount(np.searchsorted(grid, got), minlength=grid.size)[1:]
        np.testing.assert_array_equal(per_cell % 2 == 1, signs[1:] != signs[:-1])
        # the difference changes sign across each boundary. One ulp resolves it
        # on one fringe; on wide windows the computed wave density is rounded
        # by about as much as one step between floats moves it, and the
        # uniform law's closed-form crossings miss one ulp there too
        step = np.spacing(np.abs(got)) * (1 if name == "m1" else 4)
        below, above = diff(np.maximum(got - step, cfg.window[0])), diff(np.minimum(got + step, cfg.window[1]))
        assert np.all((np.sign(below) * np.sign(above) < 0) | (diff(got) == 0.0))

    def test_tv_matches_quadrature_over_the_cells(self):
        cfg = ENVELOPES["m1"]
        xs, levels, c, k = _cells(cfg)
        bounds = [x for pair in optimal_interval_set(cfg) for x in pair]
        pieces = [
            quad(lambda x: abs(c * math.cos(k * x) ** 2 - h), lo, hi, points=[b for b in bounds if lo < b < hi] or None)[0]
            for lo, hi, h in zip(xs[:-1].tolist(), xs[1:].tolist(), levels.tolist())
        ]
        assert tv_distance(cfg) == pytest.approx(0.5 * math.fsum(pieces), abs=1e-10)

    @pytest.mark.parametrize("name", ["m1", "m400"])
    def test_coefficient_matches_quadrature_over_the_cells(self, name):
        cfg = ENVELOPES[name]
        xs, levels, c, k = _cells(cfg)
        pieces = [
            quad(lambda x: math.sqrt(c * h) * abs(math.cos(k * x)), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi, h in zip(xs[:-1].tolist(), xs[1:].tolist(), levels.tolist())
        ]
        assert bhattacharyya_coefficient(cfg) == pytest.approx(math.fsum(pieces), rel=1e-12)

    def test_planning_on_the_narrow_envelope_is_bounded(self):
        cfg = ENVELOPES["narrow"]
        tracemalloc.start()
        try:
            tv_distance(cfg)
            optimal_interval_set(cfg)
            required_sample_size(1e-3, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_coefficient_on_eight_thousand_fringes_is_fast(self):
        cfg = ENVELOPES["m8000"]
        assert 7999 < cfg.fringe_count < 8001
        times = []
        for _ in range(3):
            start = time.perf_counter()
            bhattacharyya_coefficient(cfg)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.2


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
        doc = json.loads(canonical_json(report))
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

    def test_envelope_coefficient_is_pinned(self):
        cfg = OpticsConfig(envelope_enabled=True)
        rho = bhattacharyya_coefficient(cfg)
        assert type(rho) is float
        assert rho == 0.903120947006553
        assert required_sample_size(1e-3, cfg).n_samples == 61

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

    def test_coefficient_that_rounds_to_one_is_refused(self):
        # log(rho) = 0 there; this once raised ZeroDivisionError
        cfg = OpticsConfig(screen_halfwidth_m=1.09e-9)
        assert bhattacharyya_coefficient(cfg) == 1.0
        with pytest.raises(ValidationError, match="rounds to 1"):
            required_sample_size(1e-3, cfg)

    @pytest.mark.parametrize("halfwidth", [5e-8, 1e-9])
    def test_coefficient_one_ulp_below_one_still_plans(self, halfwidth):
        cfg = OpticsConfig(screen_halfwidth_m=halfwidth)
        plan = required_sample_size(1e-3, cfg)
        assert plan.bhattacharyya == 1.0 - 2.0**-53
        assert 5e16 < plan.n_samples < 6e16

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


#: the text each refusal carries
_OUT_OF_WINDOW = {
    DomainError: "lies outside the screen window",
    ValidationError: "samples must lie inside the screen window",
}


@pytest.mark.parametrize("x", [math.nan, [0.0, math.nan, 1e-4]], ids=["scalar", "array"])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda x: classify_pattern(x, DEFAULT), DomainError),
        (lambda x: wave_density(x, DEFAULT), DomainError),
        (lambda x: particle_density(x, DEFAULT), DomainError),
        (lambda x: PatternDistribution(PatternKind.WAVE, DEFAULT).cdf(x), DomainError),
        (lambda x: approx_posterior(x, DEFAULT), DomainError),
        (lambda x: exact_posterior(x, DEFAULT), DomainError),
        (lambda x: tv_distance_empirical(x, [0.0, 1e-4], DEFAULT), ValidationError),
        (lambda x: tv_distance_empirical([0.0, 1e-4], x, DEFAULT), ValidationError),
    ],
    ids=["classify", "wave_density", "particle_density", "cdf", "approx_posterior", "exact_posterior", "tv_p", "tv_q"],
)
def test_a_nan_screen_coordinate_is_refused(call, error, x):
    """NaN lies in no window: it is refused as an out-of-window coordinate,
    not carried into a NaN density, an indeterminate verdict or a histogram."""
    with pytest.raises(error, match=_OUT_OF_WINDOW[error]):
        call(x)


def _run_in_fresh_interpreter(*args: str) -> str:
    """stdout of ``python *args`` in a new process that imports this checkout."""
    import dualitysim

    src = os.path.dirname(os.path.dirname(os.path.abspath(dualitysim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_package_loads_no_scipy():
    """The run time is numpy-only: scipy serves the tests as an oracle, nothing else.
    Nor does the package root load the command line or the acceptance gate."""
    code = (
        "import sys, dualitysim; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "[m for m in ('dualitysim.cli', 'dualitysim.acceptance') if m in sys.modules])"
    )
    assert _run_in_fresh_interpreter("-c", code) == "[] []"


def test_the_module_entry_point_runs_without_a_warning():
    """``python -m dualitysim.cli`` finds no half-imported ``cli`` in sys.modules."""
    assert "simrun" in _run_in_fresh_interpreter("-W", "error::RuntimeWarning", "-m", "dualitysim.cli", "--help")


def test_envelope_planning_and_runs_need_no_scipy():
    """With scipy made unimportable, the envelope's planning calls and
    runners on the enveloped law still complete."""
    code = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from dualitysim import (
    ObservationSchedule, OpticsConfig, Protocol, ProtocolConfig, RecordingRule, RenderingModel, RenderingPolicy,
    bhattacharyya_coefficient, contradiction_margin, optimal_interval_set, required_sample_size,
    run_protocol, tv_distance,
)
cfg = OpticsConfig(envelope_enabled=True)
tv_distance(cfg)
contradiction_margin(optimal_interval_set(cfg), cfg)
bhattacharyya_coefficient(cfg)
required_sample_size(1e-3, cfg)
render = RenderingModel(RenderingPolicy.RENDER_AT_AVAILABILITY)
run_protocol(ProtocolConfig(protocol=Protocol.PREDICTOR, model=render, n_pairs=2000, seed=1, optics=cfg))
run_protocol(ProtocolConfig(
    protocol=Protocol.PERISHABLE_MEDIA, model=render, n_pairs=2000, seed=1, optics=cfg,
    observation_schedule=ObservationSchedule.AT_T0, recording_rule=RecordingRule.PERMANENT_ONLY,
))
print("ok")
"""
    assert _run_in_fresh_interpreter("-c", code) == "ok"


@pytest.mark.parametrize("envelope", [False, True], ids=["uniform", "envelope"])
def test_planning_on_twenty_million_fringes_fits_in_three_gigabytes(envelope):
    """With the address space capped at 3 GB, TV takes under 50 ms on 2e7
    fringes, and the optimal interval set and a predictor run, which reports
    the TV, complete. Regions held as Python tuples ran out of memory here."""
    pytest.importorskip("resource")
    code = f"""
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from dualitysim import OpticsConfig, Protocol, ProtocolConfig, optimal_interval_set, run_protocol, tv_distance
cfg = OpticsConfig(**{WIDE!r}, screen_halfwidth_m=0.1, envelope_enabled={envelope})
assert round(cfg.fringe_count) == 20_000_000
times = []
for _ in range(3):
    start = time.perf_counter()
    tv_distance(cfg)
    times.append(time.perf_counter() - start)
assert min(times) < 0.05, times
assert len(optimal_interval_set(cfg)) >= 20_000_000
run_protocol(ProtocolConfig(protocol=Protocol.PREDICTOR, optics=cfg, n_pairs=2000, seed=1))
print("ok")
"""
    assert _run_in_fresh_interpreter("-c", code) == "ok"
