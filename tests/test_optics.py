"""Geometry, pattern laws, the inverse-CDF sampler, and binning utilities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid, quad

from dualitysim.numerics import invert_monotone
from dualitysim.optics import (
    _GUIDE_BUCKETS,
    _PPF_BLOCK,
    BINS_PER_FRINGE,
    SAMPLER_CDF_TOL,
    _cumulative_trapezoid,
    DomainError,
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    ValidationError,
    fringe_aligned_edges,
    fringe_visibility,
    particle_density,
    wave_density,
)
from dualitysim.stats import bhattacharyya_coefficient

DEFAULT = OpticsConfig()
# 10/7 fringe periods: a window that cuts a fringe
ODD = OpticsConfig(screen_halfwidth_m=0.5e-3)

WINDOW_LO, WINDOW_HI = DEFAULT.window

# quad oracles for the 10/7-period window, frozen
ODD_WAVE_NORM = 2555.030355368258
ODD_ANTI_NORM = 1643.0742631793723
ODD_CDF_AT_130UM = 0.7969496817354272


def x_values():
    return st.floats(min_value=WINDOW_LO, max_value=WINDOW_HI, exclude_max=True, allow_nan=False)


class TestOpticsConfig:
    def test_default_geometry(self):
        assert DEFAULT.fringe_scale_m == pytest.approx(0.7e-3, rel=1e-12)
        assert DEFAULT.window == (-0.35e-3, 0.35e-3)
        assert DEFAULT.fringe_count == pytest.approx(1.0, abs=1e-12)
        assert DEFAULT.is_integer_fringe_window()

    def test_odd_window_is_not_integer(self):
        assert not ODD.is_integer_fringe_window()
        with pytest.raises(ValidationError):
            ODD.require_integer_fringe_window()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wavelength_m": 0.0},
            {"wavelength_m": -1e-9},
            {"slit_separation_m": math.nan},
            {"slit_screen_distance_m": math.inf},
            {"screen_halfwidth_m": 0.0},
            {"slit_width_m": 2e-3},  # wider than the slit separation
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError):
            OpticsConfig(**kwargs)

    def test_warns_outside_small_angle_regime(self):
        with pytest.warns(UserWarning):
            OpticsConfig(screen_halfwidth_m=0.2)

    def test_effective_slit_width_defaults_to_quarter_separation(self):
        assert DEFAULT.effective_slit_width_m == pytest.approx(DEFAULT.slit_separation_m / 4)
        assert OpticsConfig(slit_width_m=1e-4).effective_slit_width_m == 1e-4


class TestWaveDensity:
    def test_integer_window_norm_is_closed_form(self):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT)
        assert dist._wave_norm == pytest.approx(2.0 / DEFAULT.window_width_m, rel=1e-14)

    def test_odd_window_norm_matches_quadrature(self):
        dist = PatternDistribution(PatternKind.WAVE, ODD)
        assert dist._wave_norm == pytest.approx(ODD_WAVE_NORM, rel=1e-11)
        anti = PatternDistribution(PatternKind.WAVE, ODD, phase_offset_rad=0.5 * math.pi)
        assert anti._wave_norm == pytest.approx(ODD_ANTI_NORM, rel=1e-11)

    @pytest.mark.parametrize("cfg", [DEFAULT, ODD])
    def test_density_integrates_to_one(self, cfg):
        total, err = quad(lambda x: float(np.asarray(wave_density(x, cfg))), *cfg.window, epsabs=1e-14)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_dark_fringe_is_zero_bright_is_peak(self):
        a = DEFAULT.fringe_scale_m
        assert float(np.asarray(wave_density(0.0, DEFAULT))) == pytest.approx(2.0 / DEFAULT.window_width_m)
        dark = float(np.asarray(wave_density(a / 2 - 1e-12, DEFAULT)))
        assert dark < 1e-7 / DEFAULT.window_width_m

    @given(x=x_values())
    def test_anti_fringe_complement_is_flat(self, x):
        # the two eraser-port laws sum to twice the uniform level
        total = float(np.asarray(wave_density(x, DEFAULT))) + float(
            np.asarray(wave_density(x, DEFAULT, phase_offset_rad=0.5 * math.pi))
        )
        assert total == pytest.approx(2.0 / DEFAULT.window_width_m, rel=1e-9)

    def test_rejects_out_of_window(self):
        with pytest.raises(DomainError):
            wave_density(WINDOW_HI * 1.01, DEFAULT)


class TestParticleDensity:
    def test_uniform_level(self):
        xs = np.linspace(WINDOW_LO, WINDOW_HI, 101)
        np.testing.assert_allclose(np.asarray(particle_density(xs, DEFAULT)), 1.0 / DEFAULT.window_width_m)

    def test_envelope_integrates_to_one_and_is_not_flat(self):
        # a wide slit puts the first diffraction zero near the window edge
        cfg = OpticsConfig(envelope_enabled=True, slit_width_m=0.9e-3)
        dist = PatternDistribution(PatternKind.PARTICLE, cfg)
        xs = np.linspace(*cfg.window, 20001)
        dens = np.asarray(dist.density(xs))
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)
        assert dens.max() > 1.5 * dens.min()

    def test_envelope_density_is_the_slope_of_its_cdf(self):
        """The density is constant on each cell of the table that ``cdf``
        and ``ppf`` interpolate: the cell's CDF increment over its width. A
        node takes the level of the cell above it, the last node the last's."""
        cfg = OpticsConfig(envelope_enabled=True, slit_width_m=0.9e-3)
        dist = PatternDistribution(PatternKind.PARTICLE, cfg)
        xs, cdf = dist._cell_table
        slopes = np.diff(cdf) / np.diff(xs)
        np.testing.assert_array_equal(dist.density(0.5 * (xs[:-1] + xs[1:])), slopes)
        np.testing.assert_array_equal(dist.density(xs), np.append(slopes, slopes[-1]))
        np.testing.assert_array_equal(dist.cdf(xs), cdf)

    def test_envelope_cdf_integrates_as_scipy_does(self):
        """The numpy running trapezoid gives scipy's bits on the default
        envelope grid and on random grids."""
        cfg = OpticsConfig(envelope_enabled=True)
        xs, _ = PatternDistribution(PatternKind.PARTICLE, cfg)._cell_table
        scale = cfg.wavelength_m * cfg.slit_screen_distance_m / cfg.effective_slit_width_m
        half = 0.5 * cfg.slit_separation_m
        grids = [(np.sinc((xs - half) / scale) ** 2 + np.sinc((xs + half) / scale) ** 2, xs)]
        rng = np.random.default_rng(12)
        for _ in range(200):
            size = int(rng.integers(2, 2000))
            grids.append((rng.random(size) * 10.0 ** rng.uniform(-3, 3), np.sort(rng.uniform(-1.0, 1.0, size))))
        for y, x in grids:
            want = cumulative_trapezoid(y, x, initial=0.0)
            np.testing.assert_array_equal(_cumulative_trapezoid(y, x).view(np.int64), want.view(np.int64))

    def test_default_slit_width_keeps_the_envelope_gentle(self):
        cfg = OpticsConfig(envelope_enabled=True)
        dist = PatternDistribution(PatternKind.PARTICLE, cfg)
        xs = np.linspace(*cfg.window, 2001)
        dens = np.asarray(dist.density(xs))
        assert dens.max() < 1.1 * dens.min()


class TestCdf:
    @pytest.mark.parametrize("kind", [PatternKind.WAVE, PatternKind.PARTICLE])
    @pytest.mark.parametrize("cfg", [DEFAULT, ODD])
    def test_boundary_values(self, kind, cfg):
        dist = PatternDistribution(kind, cfg)
        lo, hi = cfg.window
        assert float(np.asarray(dist.cdf(lo))) == 0.0
        assert float(np.asarray(dist.cdf(hi))) == pytest.approx(1.0, abs=1e-12)

    def test_wave_cdf_matches_quadrature_on_odd_window(self):
        dist = PatternDistribution(PatternKind.WAVE, ODD)
        assert float(np.asarray(dist.cdf(1.3e-4))) == pytest.approx(ODD_CDF_AT_130UM, abs=1e-12)

    def test_monotone(self):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT, phase_offset_rad=1.1)
        xs = np.linspace(WINDOW_LO, WINDOW_HI, 4001)
        cs = np.asarray(dist.cdf(xs))
        assert np.all(np.diff(cs) >= 0)

    def test_derivative_recovers_density(self):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT)
        xs = np.linspace(WINDOW_LO * 0.98, WINDOW_HI * 0.98, 301)
        h = 1e-9
        numeric = (np.asarray(dist.cdf(xs + h)) - np.asarray(dist.cdf(xs - h))) / (2 * h)
        np.testing.assert_allclose(numeric, np.asarray(dist.density(xs)), rtol=1e-4, atol=1e-3 / DEFAULT.window_width_m)


class TestSampler:
    @pytest.mark.parametrize("cfg", [DEFAULT, ODD])
    @pytest.mark.parametrize(
        "kind,phase",
        [
            (PatternKind.WAVE, 0.0),
            (PatternKind.WAVE, 0.5 * math.pi),
            (PatternKind.PARTICLE, 0.0),
        ],
    )
    def test_quantile_inverts_cdf(self, cfg, kind, phase):
        dist = PatternDistribution(kind, cfg, phase_offset_rad=phase)
        u = np.random.default_rng(5).random(20000)
        x = np.asarray(dist.ppf(u))
        lo, hi = cfg.window
        assert np.all((x >= lo) & (x <= hi))
        assert np.max(np.abs(np.asarray(dist.cdf(x)) - u)) <= 1e-12

    @given(u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200)
    def test_quantile_inverts_cdf_pointwise(self, u):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT)
        x = float(np.asarray(dist.ppf(u)))
        assert WINDOW_LO <= x <= WINDOW_HI
        assert abs(float(np.asarray(dist.cdf(x))) - u) <= 1e-12

    def test_quantile_endpoints(self):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT)
        assert float(np.asarray(dist.ppf(0.0))) == WINDOW_LO
        assert float(np.asarray(dist.ppf(1.0))) == WINDOW_HI
        with pytest.raises(ValidationError):
            dist.ppf(1.5)

    @pytest.mark.parametrize("kind", list(PatternKind))
    @pytest.mark.parametrize("u", [math.nan, np.array([0.25, math.nan]), np.array([[0.5], [math.nan]])])
    def test_nan_levels_are_rejected(self, kind, u):
        dist = PatternDistribution(kind, DEFAULT)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            dist.ppf(u)

    @pytest.mark.parametrize(
        "cfg,kind",
        [
            (DEFAULT, PatternKind.WAVE),
            (ODD, PatternKind.WAVE),
            (OpticsConfig(envelope_enabled=True), PatternKind.PARTICLE),
        ],
    )
    def test_samples_pass_ks(self, cfg, kind):
        dist = PatternDistribution(kind, cfg)
        n = 200_000
        rng = np.random.default_rng(17)
        x = np.sort(np.asarray(dist.sample(rng, n)))
        c = np.asarray(dist.cdf(x))
        i = np.arange(1, n + 1)
        d = max(float(np.max(i / n - c)), float(np.max(c - (i - 1) / n)))
        critical = math.sqrt(0.5 * math.log(2 / 0.001)) / math.sqrt(n)
        assert d < critical

    def test_sampling_is_deterministic_under_seed(self):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT)
        a = np.asarray(dist.sample(np.random.default_rng(3), 1000))
        b = np.asarray(dist.sample(np.random.default_rng(3), 1000))
        np.testing.assert_array_equal(a, b)


def _reference_start(dist: PatternDistribution, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton bracket cell and start point as the sampler found them before
    the cell index: one binary search and one ``np.interp`` over all of ``u``."""
    xs, cs = dist._quantile_table
    cell = np.clip(np.searchsorted(cs, u, side="right") - 1, 0, len(xs) - 2)
    return cell, np.interp(u, cs, xs)


def _reference_ppf(dist: PatternDistribution, u) -> np.ndarray:
    """Wave sampler the cell index and blocking replaced, kept as their oracle."""
    arr = np.asarray(u, dtype=float)
    xs, _ = dist._quantile_table
    flat = np.atleast_1d(arr).ravel()
    cell, x0 = _reference_start(dist, flat)
    out = invert_monotone(
        dist._cdf_raw, flat, lo=xs[cell], hi=xs[cell + 1], tol=SAMPLER_CDF_TOL, fprime=dist._density_raw, x0=x0
    )
    return np.asarray(out).reshape(arr.shape)


def _assert_same_start(dist: PatternDistribution, u: np.ndarray) -> None:
    cell, x0 = dist._start_points(u)
    want_cell, want_x0 = _reference_start(dist, u)
    np.testing.assert_array_equal(cell, want_cell)
    np.testing.assert_array_equal(x0.view(np.int64), want_x0.view(np.int64))


def _assert_same_bits(dist: PatternDistribution, u) -> None:
    """ppf and the reference give the same output bits, or both raise."""
    outcomes = []
    for sampler in (PatternDistribution.ppf, _reference_ppf):
        try:
            outcomes.append(np.asarray(sampler(dist, u), dtype=float).view(np.int64))
        except ArithmeticError:
            outcomes.append(ArithmeticError)
    np.testing.assert_array_equal(*outcomes)


#: integer, non-integer and sub-fringe windows, the envelope, and tiny
#: windows with a dark fringe at their centre at phase pi/2
BIT_LAWS = {
    "m1": DEFAULT,
    "m2_29": OpticsConfig(screen_halfwidth_m=0.8e-3),
    "m20_29": OpticsConfig(screen_halfwidth_m=20.29 * 0.35e-3),
    "envelope": OpticsConfig(envelope_enabled=True),
    "hw1e-4": OpticsConfig(screen_halfwidth_m=1e-4),
    "hw1e-6": OpticsConfig(screen_halfwidth_m=1e-6),
    "hw1e-7": OpticsConfig(screen_halfwidth_m=1e-7),
    "hw5e-8": OpticsConfig(screen_halfwidth_m=5e-8),
    "hw1e-9": OpticsConfig(screen_halfwidth_m=1e-9),
}
#: laws whose every table level inverts without error: all of them
SORTED_LAWS = sorted(BIT_LAWS)
BIT_PHASES = [0.0, 0.5 * math.pi, 2.0713]


def _table_levels(dist: PatternDistribution) -> np.ndarray:
    """Every CDF node, every cell-index bucket edge and both its neighbours,
    and the ends of [0, 1]."""
    _, cs = dist._quantile_table
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    below = np.nextafter(edges[1:], 0.0)
    above = np.nextafter(edges[:-1], 1.0)
    return np.concatenate((cs, edges, below, above, [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0)]))


class TestWaveLawOnEveryWindow:
    """One closed form serves every window, down to a nanometre."""

    @pytest.mark.parametrize("phase", BIT_PHASES)
    @pytest.mark.parametrize("name", SORTED_LAWS)
    def test_quantile_table_is_sorted(self, name, phase):
        _, cs = PatternDistribution(PatternKind.WAVE, BIT_LAWS[name], phase)._quantile_table
        assert np.all(np.diff(cs) >= 0.0)

    @given(
        halfwidth=st.floats(math.log(1e-9), math.log(0.1)).map(lambda t: min(math.exp(t), 0.1)),
        phase=st.one_of(st.just(0.5 * math.pi), st.floats(-10.0, 10.0)),
    )
    @example(halfwidth=1e-9, phase=0.5 * math.pi)
    @example(halfwidth=5e-8, phase=0.5 * math.pi)
    @example(halfwidth=0.1, phase=0.0)
    @settings(max_examples=60, deadline=None)
    def test_sorted_table_tight_inverse_and_coefficient(self, halfwidth, phase):
        cfg = OpticsConfig(screen_halfwidth_m=halfwidth)
        dist = PatternDistribution(PatternKind.WAVE, cfg, phase)
        _, cs = dist._quantile_table
        assert np.all(np.diff(cs) >= 0.0)
        u = np.concatenate((np.random.default_rng(6).random(4000), [0.0, 1.0]))
        assert np.max(np.abs(np.asarray(dist.cdf(dist.ppf(u))) - u)) <= SAMPLER_CDF_TOL
        assert 0.0 < bhattacharyya_coefficient(cfg) <= 1.0


class TestSamplerBits:
    """The indexed, blocked wave sampler returns the reference's bits."""

    @pytest.mark.parametrize("phase", BIT_PHASES)
    @pytest.mark.parametrize("name", sorted(BIT_LAWS))
    def test_start_points_at_every_table_level(self, name, phase):
        dist = PatternDistribution(PatternKind.WAVE, BIT_LAWS[name], phase)
        _assert_same_start(dist, _table_levels(dist))

    def test_start_points_on_ties_and_infinite_slopes(self):
        """np.interp's special cases: a level on a node (where the slope may be
        infinite) maps to the node, and 1.0 to the last node even when the
        table reaches 1 a node early."""
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT)
        xs = np.linspace(WINDOW_LO, WINDOW_HI, len(dist._quantile_table[0]))
        cs = np.sort(np.random.default_rng(8).random(xs.size))
        cs[:4] = [0.0, 5e-324, 1e-323, 1e-323]
        cs[100:103] = cs[100]
        cs[-2:] = 1.0
        dist.__dict__["_quantile_table"] = (xs, cs)
        _assert_same_start(dist, np.concatenate((_table_levels(dist), np.random.default_rng(9).random(1000))))

    @pytest.mark.parametrize("phase", BIT_PHASES)
    @pytest.mark.parametrize("name", SORTED_LAWS)
    def test_every_table_level(self, name, phase):
        dist = PatternDistribution(PatternKind.WAVE, BIT_LAWS[name], phase)
        _assert_same_bits(dist, _table_levels(dist))

    @given(
        name=st.sampled_from(sorted(BIT_LAWS)),
        phase=st.one_of(st.sampled_from(BIT_PHASES), st.floats(-10.0, 10.0)),
        size=st.sampled_from([None, 0, 1, 2, _PPF_BLOCK - 1, _PPF_BLOCK, _PPF_BLOCK + 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bits_match_the_reference(self, name, phase, size, seed):
        dist = PatternDistribution(PatternKind.WAVE, BIT_LAWS[name], phase)
        rng = np.random.default_rng(seed)
        pool = np.concatenate((_table_levels(dist), rng.random(_PPF_BLOCK)))
        _assert_same_bits(dist, rng.choice(pool, size=size))


@st.composite
def interval_sets(draw, max_intervals=4):
    k = draw(st.integers(1, max_intervals))
    pts = draw(
        st.lists(
            st.floats(min_value=WINDOW_LO, max_value=WINDOW_HI, allow_nan=False),
            min_size=2 * k,
            max_size=2 * k,
            unique=True,
        )
    )
    pts = sorted(pts)
    pairs = list(zip(pts[0::2], pts[1::2]))
    return IntervalSet.from_pairs(pairs, window=DEFAULT.window)


class TestIntervalSet:
    def test_from_pairs_sorts_and_validates(self):
        iset = IntervalSet.from_pairs([(1e-4, 2e-4), (-2e-4, -1e-4)], window=DEFAULT.window)
        assert iset.intervals == ((-2e-4, -1e-4), (1e-4, 2e-4))
        assert iset.measure == pytest.approx(2e-4)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(2e-4, 1e-4)],  # reversed
            [(0.0, 0.0)],  # empty interval
            [(-1e-4, 1e-4), (0.0, 2e-4)],  # overlap
            [(0.0, 4e-4)],  # beyond the window
        ],
    )
    def test_rejects_malformed(self, pairs):
        with pytest.raises(ValidationError):
            IntervalSet.from_pairs(pairs, window=DEFAULT.window)

    def test_half_open_membership(self):
        iset = IntervalSet.from_pairs([(0.0, 1e-4)])
        inside = np.asarray(iset.contains(np.array([0.0, 5e-5, 1e-4])))
        np.testing.assert_array_equal(inside, [True, True, False])

    @given(iset=interval_sets())
    def test_complement_partitions_the_window(self, iset):
        comp = iset.complement(DEFAULT.window)
        assert iset.measure + comp.measure == pytest.approx(DEFAULT.window_width_m, rel=1e-12)

    @given(iset=interval_sets(), x=x_values())
    @settings(max_examples=200)
    def test_membership_is_exclusive(self, iset, x):
        comp = iset.complement(DEFAULT.window)
        assert bool(iset.contains(x)) != bool(comp.contains(x))

    def test_empty_and_full(self):
        assert not IntervalSet.empty()
        assert IntervalSet.empty().measure == 0.0
        full = IntervalSet.full_window(DEFAULT)
        assert full.measure == pytest.approx(DEFAULT.window_width_m)
        assert full.complement(DEFAULT.window) == IntervalSet.empty()


class TestBinning:
    def test_default_window_gets_fifty_bins(self):
        edges = fringe_aligned_edges(DEFAULT)
        assert edges.size == BINS_PER_FRINGE + 1
        assert edges[0] == WINDOW_LO and edges[-1] == WINDOW_HI

    def test_bin_count_is_capped(self):
        wide = OpticsConfig(screen_halfwidth_m=7e-3)  # 20 periods
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            edges = fringe_aligned_edges(wide)
        assert edges.size - 1 == 500

    def test_visibility_of_pure_patterns(self):
        # bin masses from the analytic CDF, not sampled counts
        edges = fringe_aligned_edges(DEFAULT)
        wave = PatternDistribution(PatternKind.WAVE, DEFAULT)
        masses = np.diff(np.asarray(wave.cdf(edges)))
        counts = np.round(masses * 1e9).astype(np.int64)
        assert fringe_visibility(counts, edges, DEFAULT) > 0.99
        flat = np.full(edges.size - 1, 1000, dtype=np.int64)
        assert fringe_visibility(flat, edges, DEFAULT) == pytest.approx(0.0, abs=1e-12)

    def test_visibility_validation(self):
        edges = fringe_aligned_edges(DEFAULT)
        with pytest.raises(ValidationError):
            fringe_visibility(np.zeros(edges.size - 1, dtype=np.int64), edges, DEFAULT)
        with pytest.raises(ValidationError):
            fringe_visibility(np.full(5, 7), np.linspace(WINDOW_LO, WINDOW_HI, 6), DEFAULT)
