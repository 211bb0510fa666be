"""Runner behavior: validation, the event log, coincidence sorting, verdicts."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualitysim.models import Medium, RenderingModel, RenderingPolicy
from dualitysim.optics import IntervalSet, OpticsConfig, ValidationError
from dualitysim.protocols import (
    DELTA_T_FAST,
    DELTA_T_SLOW,
    EVENT_LOG_COLUMNS,
    PAIR_SPACING_FACTOR,
    _CSV_BLOCK_ROWS,
    DetectNoRecordVariant,
    EventLog,
    ObservationSchedule,
    OutcomeHypothesis,
    PairingMode,
    Protocol,
    ProtocolConfig,
    RecordingRule,
    RunResult,
    SwitchStage,
    SwitchStrategy,
    _match_structured,
    coincidence_match,
    run_delayed_choice,
    run_detect_no_record,
    run_double_slit,
    run_macroscopic_erasure,
    run_perishable_media,
    run_predictor,
    run_protocol,
    run_quantum_eraser,
    run_switch_experiment,
)
from dualitysim.stats import FeasibilityReport, Verdict, optimal_interval_set, tv_distance

COLLAPSE = RenderingModel(RenderingPolicy.COLLAPSE_AT_DETECTION)
RENDER = RenderingModel(RenderingPolicy.RENDER_AT_AVAILABILITY)
OPTICS = OpticsConfig()
A = OPTICS.fringe_scale_m


def switch_d(strategy, hypothesis, **kw):
    return ProtocolConfig(
        protocol=Protocol.SWITCH_EXPERIMENT,
        switch_stage=SwitchStage.D,
        strategy=strategy,
        outcome_hypothesis=hypothesis,
        observation_schedule=ObservationSchedule.AT_T0,
        **kw,
    )


class TestConfigValidation:
    def test_window_must_leave_one_pair_in_flight(self):
        with pytest.raises(ValidationError, match="one pair in flight"):
            ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, delta_t_s=1e-9, coincidence_window_s=1e-9)

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_pairs": 0},
            {"n_pairs": True},
            {"n_pairs": 10.0},
            {"seed": -1},
            {"seed": 2**64},
            {"delta_t_s": 0.0},
            {"delta_t_s": math.inf},
            {"coincidence_window_s": 0.0},
            {"destruction_prob": 1.5},
            {"choice_record_prob": -0.1},
            {"erasure_delay_s": 0.0},
            {"ttl_s": 0.0},
            {"noise_threshold": 0.0},
            {"noise_threshold": 1.0001},
        ],
    )
    def test_rejects_out_of_range_fields(self, kw):
        with pytest.raises(ValidationError):
            ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, **kw)

    def test_infinite_ttl_is_allowed(self):
        cfg = ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, ttl_s=math.inf)
        assert math.isinf(cfg.ttl_s)

    def test_exact_half_needs_even_pair_count(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(
                protocol=Protocol.MACROSCOPIC_ERASURE,
                pairing_mode=PairingMode.EXACT_HALF_SUBSET,
                n_pairs=101,
            )
        ProtocolConfig(
            protocol=Protocol.MACROSCOPIC_ERASURE,
            pairing_mode=PairingMode.EXACT_HALF_SUBSET,
            n_pairs=100,
        )

    def test_stage_d_needs_strategy_hypothesis_and_live_observation(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(
                protocol=Protocol.SWITCH_EXPERIMENT,
                switch_stage=SwitchStage.D,
                observation_schedule=ObservationSchedule.AT_T0,
            )
        with pytest.raises(ValidationError, match="at_t0"):
            ProtocolConfig(
                protocol=Protocol.SWITCH_EXPERIMENT,
                switch_stage=SwitchStage.D,
                strategy=SwitchStrategy.always_off(),
                outcome_hypothesis=OutcomeHypothesis.I,
            )

    def test_early_stages_reject_stage_d_parameters(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(
                protocol=Protocol.SWITCH_EXPERIMENT,
                switch_stage=SwitchStage.A,
                strategy=SwitchStrategy.always_off(),
            )
        with pytest.raises(ValidationError, match="after_delta_t"):
            ProtocolConfig(
                protocol=Protocol.SWITCH_EXPERIMENT,
                switch_stage=SwitchStage.B,
                observation_schedule=ObservationSchedule.AT_T0,
            )

    def test_strategy_is_switch_only(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, strategy=SwitchStrategy.always_on())
        with pytest.raises(ValidationError):
            ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, outcome_hypothesis=OutcomeHypothesis.II)

    def test_schedule_constraints_per_protocol(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(protocol=Protocol.PREDICTOR, observation_schedule=ObservationSchedule.AT_T0)
        with pytest.raises(ValidationError):
            ProtocolConfig(protocol=Protocol.PERISHABLE_MEDIA)  # defaults to after_delta_t

    def test_rule_intervals_is_perishable_only(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, rule_intervals=IntervalSet.empty())

    def test_rule_intervals_outside_the_window_fail_at_construction(self):
        with pytest.raises(ValidationError, match="leaves the screen window"):
            ProtocolConfig(
                protocol=Protocol.PERISHABLE_MEDIA,
                observation_schedule=ObservationSchedule.AT_T0,
                rule_intervals=IntervalSet.from_pairs([(0.0, 1.0)]),
            )

    @pytest.mark.parametrize(
        "strategy",
        [SwitchStrategy.strategy_1(IntervalSet.from_pairs([(0.0, 1.0)])), SwitchStrategy.custom([0.0, 1.0], [True])],
        ids=["strategy_1", "custom"],
    )
    def test_strategy_regions_outside_the_window_fail_at_construction(self, strategy):
        with pytest.raises(ValidationError, match="leaves the screen window"):
            ProtocolConfig(
                protocol=Protocol.SWITCH_EXPERIMENT,
                switch_stage=SwitchStage.D,
                observation_schedule=ObservationSchedule.AT_T0,
                strategy=strategy,
                outcome_hypothesis=OutcomeHypothesis.I,
            )


class TestSwitchStrategy:
    def test_parameter_pairing_is_enforced(self):
        with pytest.raises(ValidationError):
            SwitchStrategy(kind=SwitchStrategy.always_off().kind, intervals=IntervalSet.empty())
        with pytest.raises(ValidationError):
            SwitchStrategy.custom([0.0, 1e-4, 2e-4], [True])
        with pytest.raises(ValidationError):
            SwitchStrategy.custom([0.0, 0.0], [True])

    def test_named_kinds_reduce_to_regions(self):
        assert not SwitchStrategy.always_off().activation_region(OPTICS)
        full = SwitchStrategy.always_on().activation_region(OPTICS)
        assert full.measure == pytest.approx(OPTICS.window_width_m)
        star = optimal_interval_set(OPTICS)
        assert SwitchStrategy.strategy_1(star).activation_region(OPTICS).intervals == star.intervals

    def test_custom_table_merges_adjacent_active_bins(self):
        region = SwitchStrategy.custom([-A / 4, 0.0, A / 4], [True, True]).activation_region(OPTICS)
        assert region.intervals == ((-A / 4, A / 4),)
        split = SwitchStrategy.custom([-3e-4, -1e-4, 1e-4, 3e-4], [True, False, True]).activation_region(OPTICS)
        assert len(split.intervals) == 2

    def test_table_outside_the_window_fails_at_region_time(self):
        bad = SwitchStrategy.custom([0.0, 1.0], [True])
        with pytest.raises(ValidationError):
            bad.activation_region(OPTICS)


class TestCoincidence:
    def test_matches_at_the_expected_lag(self):
        signals = [0.0, 1.0, 2.0]
        detectors = [0.5, 1.5, 2.5]
        records, summary = coincidence_match(signals, detectors, 0.2, expected_lag_s=0.5)
        assert summary.matched == 3
        assert summary.unmatched_signals == summary.unmatched_detectors == 0
        assert summary.ambiguities == 0
        assert [r.lag_s for r in records] == [0.5, 0.5, 0.5]
        assert [r.signal_index for r in records] == [0, 1, 2]

    def test_window_boundary_is_exclusive(self):
        _, summary = coincidence_match([0.0], [0.2], 0.2)
        assert summary.matched == 0
        assert summary.unmatched_signals == 1
        assert summary.unmatched_detectors == 1

    def test_zero_window_matches_nothing(self):
        _, summary = coincidence_match([0.0, 1.0], [0.0, 1.0], 0.0)
        assert summary.matched == 0

    def test_negative_window_is_rejected(self):
        with pytest.raises(ValidationError):
            coincidence_match([0.0], [0.0], -1.0)

    def test_two_candidates_count_one_ambiguity_and_take_the_nearest(self):
        records, summary = coincidence_match([-0.05, 0.06], [0.0], 0.1)
        assert summary.ambiguities == 1
        assert summary.matched == 1
        assert records[0].signal_index == 0

    def test_greedy_consumes_signals_in_detector_time_order(self):
        records, summary = coincidence_match([0.0, 0.03], [0.01, 0.02], 0.1)
        assert summary.matched == 2
        assert {r.signal_index for r in records} == {0, 1}
        assert summary.ambiguities == 1

    @given(
        s=st.lists(st.floats(0, 100, allow_nan=False), min_size=0, max_size=12),
        d=st.lists(st.floats(0, 100, allow_nan=False), min_size=0, max_size=12),
        window=st.floats(0.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_bookkeeping_is_conserved(self, s, d, window):
        records, summary = coincidence_match(s, d, window)
        assert summary.matched == len(records)
        assert summary.matched + summary.unmatched_signals == len(s)
        assert summary.matched + summary.unmatched_detectors == len(d)
        assert len({r.signal_index for r in records}) == len(records)
        assert len({r.detector_index for r in records}) == len(records)
        for r in records:
            assert abs(r.lag_s) < window

    def test_structured_fast_path_agrees_with_greedy(self):
        rng = np.random.default_rng(3)
        t_signal = np.arange(200) * 1.0
        lag = rng.uniform(-0.3, 0.3, size=200)
        t_detector = t_signal + lag
        t_detector[::7] = np.nan  # some idlers never register
        fast = _match_structured(t_signal, t_detector, 0.4, 0.0)
        _, slow = coincidence_match(t_signal, t_detector[~np.isnan(t_detector)], 0.4)
        assert fast == slow


#: float cells the CSV form must print exactly as the reference does
_EDGE_FLOATS = np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.5e-8, 0.1, -1.7976931348623157e308]
)


def _reference_csv(log: EventLog) -> bytes:
    """Whole-column formatter the streaming writer replaced, kept as its oracle."""
    columns = []
    for name in EVENT_LOG_COLUMNS:
        col = getattr(log, name)
        if col.dtype == np.float64:
            text = np.char.mod("%.17g", col)
            text = np.where(np.isnan(col), "", text)
        else:
            text = col.astype(str)
        columns.append(text)
    rows = [",".join(EVENT_LOG_COLUMNS)] + [",".join(parts) for parts in zip(*columns)]
    return ("\n".join(rows) + "\n").encode()


@st.composite
def event_logs(draw):
    """Logs of the documented dtypes holding edge values, with row counts on
    both sides of the CSV block size and columns that repeat (or sign-flip
    the zeros of) an earlier column."""
    edge = _CSV_BLOCK_ROWS
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from([edge - 1, edge, edge + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log = EventLog.blank(n)
    log.pair_id[:] = np.arange(n) + draw(st.integers(0, 2**63 - 1 - n))
    floats: list[np.ndarray] = []
    for name in EVENT_LOG_COLUMNS[1:]:
        col = getattr(log, name)
        if col.dtype != np.float64:
            col[:] = rng.integers(-128, 128, n, dtype=np.int8)
            continue
        mode = draw(st.sampled_from(["blank", "mixed", "copy", "flipped_zeros"] if floats else ["blank", "mixed"]))
        if mode == "mixed":
            scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
            col[:] = np.where(rng.random(n) < 0.5, rng.choice(_EDGE_FLOATS, n), scaled)
        elif mode == "copy":
            col[:] = floats[draw(st.integers(0, len(floats) - 1))]
        elif mode == "flipped_zeros":
            source = floats[draw(st.integers(0, len(floats) - 1))]
            col[:] = np.where(source == 0.0, -source, source)
        floats.append(col)
    return log


class TestEventLog:
    def test_timestamps_follow_the_pair_spacing(self):
        cfg = ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=16, seed=5, delta_t_s=2.0, coincidence_window_s=0.5)
        run = run_double_slit(cfg)
        log = run.events
        assert len(log) == 16
        np.testing.assert_allclose(log.t_created_s, np.arange(16) * PAIR_SPACING_FACTOR * 2.0)
        np.testing.assert_array_equal(log.t_signal_impact_s, log.t_created_s)

    def test_digest_is_reproducible_and_seed_sensitive(self):
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=500, seed=7)
        assert run_quantum_eraser(cfg).event_digest == run_quantum_eraser(cfg).event_digest
        other = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=500, seed=8)
        assert run_quantum_eraser(cfg).event_digest != run_quantum_eraser(other).event_digest

    def test_digest_sees_single_value_changes(self):
        run = run_double_slit(ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=64, seed=1))
        before = run.events.digest()
        run.events.signal_x_m[0] += 1e-9
        assert run.events.digest() != before

    def test_csv_round_trip(self, tmp_path):
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=80, seed=11)
        log = run_quantum_eraser(cfg).events
        path = tmp_path / "events.csv"
        log.to_csv(path)
        back = np.genfromtxt(path, delimiter=",", names=True)
        assert back.dtype.names == EVENT_LOG_COLUMNS
        for name in EVENT_LOG_COLUMNS:
            np.testing.assert_array_equal(
                np.asarray(back[name], dtype=float),
                getattr(log, name).astype(float),
                err_msg=name,
            )

    @given(log=event_logs())
    @settings(max_examples=25, deadline=None)
    def test_csv_bytes_match_the_reference_formatter(self, log):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.csv"
            log.to_csv(path)
            assert path.read_bytes() == _reference_csv(log)

    def test_iter_events_reconstructs_the_story(self):
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=200, seed=13)
        run = run_quantum_eraser(cfg)
        events = list(run.events.iter_events())
        assert len(events) == 200
        for ev in events:
            assert ev.detector in {"D1", "D2", "D3", "D4"}
            if ev.detector in {"D3", "D4"}:
                # reflected at the idler's first splitter, slit-tagged record kept
                assert ev.idler_route[0].endswith("reflect")
                assert ev.availability.recorded
                assert ev.availability.medium is Medium.PERSISTENT
                assert ev.detector == ("D3" if ev.slit == 1 else "D4")
            else:
                assert any(leg.startswith("bs_c:port") for leg in ev.idler_route)
                assert ev.erased
                assert not ev.availability.recorded

    def test_subset_counts_partition_the_pairs(self):
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=3000, seed=17)
        run = run_quantum_eraser(cfg)
        assert sum(s.count for s in run.subsets.values()) == 3000
        assert run.pooled.count == 3000
        for s in run.subsets.values():
            assert s.histogram_counts.sum() == s.count


class TestDoubleSlit:
    @pytest.mark.parametrize("model", [COLLAPSE, RENDER], ids=["collapse", "render"])
    def test_recording_detectors_flatten_the_screen(self, model):
        cfg = ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=20_000, seed=21, model=model)
        run = run_double_slit(cfg)
        assert run.subsets["screen"].verdict is Verdict.PARTICLE
        assert run.subsets["screen"].visibility < 0.2

    @pytest.mark.parametrize("model", [COLLAPSE, RENDER], ids=["collapse", "render"])
    def test_no_detectors_means_fringes(self, model):
        cfg = ProtocolConfig(
            protocol=Protocol.DOUBLE_SLIT, n_pairs=20_000, seed=22, model=model, detectors_recording=False
        )
        run = run_double_slit(cfg)
        assert run.subsets["screen"].verdict is Verdict.WAVE
        assert run.subsets["screen"].visibility > 0.9


class TestDelayedChoice:
    @pytest.mark.parametrize("model", [COLLAPSE, RENDER], ids=["collapse", "render"])
    def test_subsets_follow_the_late_choice(self, model):
        cfg = ProtocolConfig(protocol=Protocol.DELAYED_CHOICE, n_pairs=40_000, seed=23, model=model)
        run = run_delayed_choice(cfg)
        assert run.subsets["recorded"].verdict is Verdict.PARTICLE
        assert run.subsets["unrecorded"].verdict is Verdict.WAVE
        assert run.empirical_tv == pytest.approx(tv_distance(cfg.optics), abs=0.06)

    def test_choice_probability_moves_the_split(self):
        cfg = ProtocolConfig(protocol=Protocol.DELAYED_CHOICE, n_pairs=30_000, seed=24, choice_record_prob=0.2)
        run = run_delayed_choice(cfg)
        assert run.subsets["recorded"].count == pytest.approx(6000, abs=400)


@pytest.fixture(scope="module")
def eraser_run():
    cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=60_000, seed=25)
    return run_quantum_eraser(cfg)


class TestQuantumEraser:
    def test_eraser_ports_show_complementary_fringes(self, eraser_run):
        assert eraser_run.subsets["D1"].verdict is Verdict.WAVE
        assert eraser_run.subsets["D2"].verdict is Verdict.WAVE
        assert eraser_run.subsets["D1"].visibility > 0.9
        assert eraser_run.subsets["D2"].visibility > 0.9

    def test_which_way_ports_are_flat_and_slit_pure(self, eraser_run):
        for key, slit in (("D3", 1), ("D4", 2)):
            subset = eraser_run.subsets[key]
            assert subset.verdict is Verdict.PARTICLE
            assert subset.visibility < 0.25
            other = subset.slit_counts[1] if slit == 1 else subset.slit_counts[0]
            assert other == 0
            assert subset.slit_counts[slit - 1] == subset.count

    def test_pooled_screen_is_flat(self, eraser_run):
        assert eraser_run.pooled.verdict is Verdict.PARTICLE
        assert eraser_run.pooled.visibility < 0.15

    def test_occupancy_is_quarter_per_detector(self, eraser_run):
        for key in ("D1", "D2", "D3", "D4"):
            assert eraser_run.subsets[key].count == pytest.approx(15_000, abs=1000)

    def test_all_idlers_match_in_coincidence(self, eraser_run):
        assert eraser_run.coincidences.matched == 60_000
        assert eraser_run.coincidences.unmatched_signals == 0
        assert eraser_run.coincidences.ambiguities == 0

    @pytest.mark.parametrize("model", [COLLAPSE, RENDER], ids=["collapse", "render"])
    @pytest.mark.parametrize("halfwidth", [1e-6, 1e-7, 5e-8, 1e-9])
    def test_tiny_windows_complete(self, halfwidth, model):
        optics = OpticsConfig(screen_halfwidth_m=halfwidth)
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, model=model, n_pairs=4_000, seed=26, optics=optics)
        run = run_protocol(cfg)
        assert isinstance(run, RunResult)
        assert run.coincidences.matched == 4_000


class TestDetectNoRecord:
    def verdicts(self, variant, model, n=24_000, seed=27):
        cfg = ProtocolConfig(protocol=Protocol.DETECT_NO_RECORD, variant=variant, model=model, n_pairs=n, seed=seed)
        return run_detect_no_record(cfg)

    @pytest.mark.parametrize("variant", list(DetectNoRecordVariant))
    def test_policies_disagree_when_nothing_objective_survives(self, variant):
        collapse = self.verdicts(variant, COLLAPSE)
        render = self.verdicts(variant, RENDER)
        if variant is DetectNoRecordVariant.WHICH_WAY_CHANNELS_OFF:
            assert collapse.subsets["unsorted"].verdict is Verdict.PARTICLE
            assert render.subsets["unsorted"].verdict is Verdict.WAVE
        else:
            assert collapse.subsets["screen"].verdict is Verdict.PARTICLE
            assert render.subsets["screen"].verdict is Verdict.WAVE

    def test_dead_channels_leave_no_detector_event(self):
        run = self.verdicts(DetectNoRecordVariant.WHICH_WAY_CHANNELS_OFF, COLLAPSE)
        unsorted = run.events.detector == 0
        assert unsorted.any()
        assert np.isnan(run.events.t_detector_s[unsorted]).all()
        assert run.coincidences.matched == int((~unsorted).sum())
        assert run.coincidences.unmatched_detectors == 0

    def test_eraser_ports_keep_their_fringes_with_channels_off(self):
        run = self.verdicts(DetectNoRecordVariant.WHICH_WAY_CHANNELS_OFF, RENDER)
        assert run.subsets["D1"].verdict is Verdict.WAVE
        assert run.subsets["D2"].verdict is Verdict.WAVE


class TestMacroscopicErasure:
    def test_policy_table_after_the_delay(self):
        base = dict(protocol=Protocol.MACROSCOPIC_ERASURE, n_pairs=40_000, seed=29)
        collapse = run_macroscopic_erasure(ProtocolConfig(model=COLLAPSE, **base))
        render = run_macroscopic_erasure(ProtocolConfig(model=RENDER, **base))
        assert collapse.subsets["destroyed"].verdict is Verdict.PARTICLE
        assert collapse.subsets["surviving"].verdict is Verdict.PARTICLE
        assert render.subsets["destroyed"].verdict is Verdict.WAVE
        assert render.subsets["surviving"].verdict is Verdict.PARTICLE
        assert render.empirical_tv == pytest.approx(tv_distance(OPTICS), abs=0.06)

    def test_observing_before_destruction_keeps_both_flat(self):
        cfg = ProtocolConfig(
            protocol=Protocol.MACROSCOPIC_ERASURE,
            n_pairs=30_000,
            seed=30,
            model=RENDER,
            observation_schedule=ObservationSchedule.AT_T0,
        )
        run = run_macroscopic_erasure(cfg)
        assert run.subsets["destroyed"].verdict is Verdict.PARTICLE
        assert run.subsets["surviving"].verdict is Verdict.PARTICLE

    def test_exact_half_destroys_precisely_half(self):
        cfg = ProtocolConfig(
            protocol=Protocol.MACROSCOPIC_ERASURE,
            n_pairs=10_000,
            seed=31,
            pairing_mode=PairingMode.EXACT_HALF_SUBSET,
        )
        run = run_macroscopic_erasure(cfg)
        assert run.subsets["destroyed"].count == 5000
        assert run.subsets["surviving"].count == 5000


class TestPredictor:
    def test_controller_accuracy_tracks_the_overlap_bound(self):
        cfg = ProtocolConfig(protocol=Protocol.PREDICTOR, n_pairs=150_000, seed=33)
        run = run_predictor(cfg)
        stats = run.predictor
        assert stats.accuracy_expected == pytest.approx(0.5 * (1 + 1 / math.pi), abs=1e-12)
        assert stats.accuracy_empirical == pytest.approx(stats.accuracy_expected, abs=0.01)
        assert stats.max_abs_deviation_curve < 0.05
        assert stats.dark_fringe_min_empirical > 0.97
        assert run.subsets["recorded"].verdict is Verdict.PARTICLE
        assert run.subsets["erased"].verdict is Verdict.WAVE

    def test_posterior_bins_partition_the_screen(self):
        cfg = ProtocolConfig(protocol=Protocol.PREDICTOR, n_pairs=5000, seed=34)
        stats = run_predictor(cfg).predictor
        assert stats.bin_counts.sum() == 5000
        assert stats.bin_edges[0] == OPTICS.window[0]
        assert stats.bin_edges[-1] == OPTICS.window[1]
        filled = stats.bin_counts > 0
        assert np.all(stats.empirical_posterior[filled] >= 0)
        assert np.isnan(stats.empirical_posterior[~filled]).all()


class TestSwitchEarlyStages:
    @pytest.mark.parametrize("stage", [SwitchStage.A, SwitchStage.B, SwitchStage.C])
    def test_every_early_stage_shows_fringes(self, stage):
        cfg = ProtocolConfig(protocol=Protocol.SWITCH_EXPERIMENT, switch_stage=stage, n_pairs=20_000, seed=35)
        run = run_switch_experiment(cfg)
        assert run.subsets["screen"].verdict is Verdict.WAVE

    def test_idler_delay_enters_timestamps_only(self):
        runs = {}
        for delta in (DELTA_T_FAST, DELTA_T_SLOW):
            cfg = ProtocolConfig(
                protocol=Protocol.SWITCH_EXPERIMENT,
                switch_stage=SwitchStage.B,
                n_pairs=25_000,
                seed=36,
                delta_t_s=delta,
                coincidence_window_s=delta / 10,
            )
            runs[delta] = run_switch_experiment(cfg)
        fast, slow = runs[DELTA_T_FAST], runs[DELTA_T_SLOW]
        np.testing.assert_array_equal(fast.events.signal_x_m, slow.events.signal_x_m)
        np.testing.assert_array_equal(
            fast.subsets["screen"].histogram_counts, slow.subsets["screen"].histogram_counts
        )
        assert not np.array_equal(fast.events.t_created_s, slow.events.t_created_s)


class TestSwitchStageD:
    def test_outcome_i_on_the_extremal_region_is_refused(self):
        cfg = switch_d(SwitchStrategy.strategy_1(optimal_interval_set(OPTICS)), OutcomeHypothesis.I, n_pairs=1000)
        result = run_switch_experiment(cfg)
        assert isinstance(result, FeasibilityReport)
        assert not result.feasible_under_outcome_i
        assert result.marker == "outcome_i_infeasible"
        assert result.margin == pytest.approx(tv_distance(OPTICS), abs=1e-12)

    @pytest.mark.parametrize("strategy,on_key_verdict", [
        (SwitchStrategy.always_off(), None),
        (SwitchStrategy.always_on(), Verdict.PARTICLE),
    ])
    def test_degenerate_strategies_are_feasible(self, strategy, on_key_verdict):
        cfg = switch_d(strategy, OutcomeHypothesis.I, n_pairs=20_000, seed=37)
        run = run_switch_experiment(cfg)
        assert isinstance(run, RunResult)
        assert run.feasibility.feasible_under_outcome_i
        assert run.feasibility.margin == pytest.approx(0.0, abs=1e-12)
        if on_key_verdict is None:
            assert run.subsets["switch_on"].count == 0
            assert run.subsets["switch_on"].verdict is Verdict.INDETERMINATE
            assert run.subsets["switch_off"].verdict is Verdict.WAVE
        else:
            assert run.subsets["switch_on"].count == 20_000
            assert run.subsets["switch_on"].verdict is on_key_verdict

    def test_outcome_i_below_noise_floor_proceeds_with_a_flag(self):
        cfg = switch_d(
            SwitchStrategy.strategy_1(optimal_interval_set(OPTICS)),
            OutcomeHypothesis.I,
            n_pairs=30_000,
            seed=38,
            noise_threshold=0.5,
        )
        run = run_switch_experiment(cfg)
        assert isinstance(run, RunResult)
        assert "statistically_indistinguishable_from_consistency" in run.markers
        assert not run.feasibility.feasible_under_outcome_i
        # mixture weight P_p(I) / (P_p(I) + P_w(I^c)) with delta = 0.6817
        weight = 0.5 / (1.0 - 1.0 / math.pi)
        assert run.subsets["switch_on"].count == pytest.approx(30_000 * weight, abs=500)
        assert run.subsets["switch_on"].verdict is Verdict.PARTICLE
        assert run.subsets["switch_off"].verdict is Verdict.WAVE

    def test_outcome_ii_renders_on_availability(self):
        strategy = SwitchStrategy.custom([-3e-4, -1e-4, 1e-4, 3e-4], [True, False, True])
        cfg = switch_d(strategy, OutcomeHypothesis.II, n_pairs=20_000, seed=39)
        run = run_switch_experiment(cfg)
        assert run.markers == ("rendered_on_availability_at_t0",)
        assert run.pooled.verdict is Verdict.PARTICLE
        region = strategy.activation_region(OPTICS)
        expected = 20_000 * region.measure / OPTICS.window_width_m
        assert run.subsets["switch_on"].count == pytest.approx(expected, abs=400)
        assert run.subsets["switch_on"].verdict is Verdict.PARTICLE

    def test_outcome_iii_keeps_fringes_despite_recordability(self):
        cfg = switch_d(
            SwitchStrategy.strategy_1(optimal_interval_set(OPTICS)),
            OutcomeHypothesis.III,
            n_pairs=20_000,
            seed=40,
        )
        run = run_switch_experiment(cfg)
        assert run.markers == ("interference_with_recordable_which_way",)
        assert run.pooled.verdict is Verdict.WAVE

    def test_outcome_iv_returns_a_discontinuity_and_no_pattern(self):
        cfg = switch_d(SwitchStrategy.always_on(), OutcomeHypothesis.IV, n_pairs=500, seed=41)
        run = run_switch_experiment(cfg)
        assert run.markers == ("discontinuity",)
        assert run.subsets == {}
        assert run.pooled is None
        assert np.isnan(run.events.signal_x_m).all()
        assert run.event_digest


class TestPerishableMedia:
    def test_objective_perishable_records_flatten_everything(self):
        cfg = ProtocolConfig(
            protocol=Protocol.PERISHABLE_MEDIA,
            observation_schedule=ObservationSchedule.AT_T0,
            n_pairs=40_000,
            seed=43,
        )
        run = run_perishable_media(cfg)
        assert run.markers == ("branch_a",)
        assert run.subsets["recorded"].verdict is Verdict.PARTICLE
        assert run.subsets["perished"].verdict is Verdict.PARTICLE
        assert run.subsets["recorded"].count == pytest.approx(20_000, abs=600)
        for ev in list(run.events.iter_events())[:50]:
            medium = ev.availability.medium
            if ev.erased:
                assert medium is Medium.PERISHABLE
                assert ev.availability.ttl_s == pytest.approx(cfg.ttl_s)
            else:
                assert medium is Medium.PERSISTENT

    def test_permanent_only_accounting_is_refused_on_the_extremal_rule(self):
        cfg = ProtocolConfig(
            protocol=Protocol.PERISHABLE_MEDIA,
            observation_schedule=ObservationSchedule.AT_T0,
            recording_rule=RecordingRule.PERMANENT_ONLY,
            n_pairs=1000,
            seed=44,
        )
        result = run_perishable_media(cfg)
        assert isinstance(result, FeasibilityReport)
        assert result.marker == "intent_adjustment_required"
        assert result.delta_value == pytest.approx(1.0 - 1.0 / math.pi, abs=1e-12)

    def test_permanent_only_with_a_full_window_rule_completes(self):
        cfg = ProtocolConfig(
            protocol=Protocol.PERISHABLE_MEDIA,
            observation_schedule=ObservationSchedule.AT_T0,
            recording_rule=RecordingRule.PERMANENT_ONLY,
            rule_intervals=IntervalSet.full_window(OPTICS),
            n_pairs=20_000,
            seed=45,
        )
        run = run_perishable_media(cfg)
        assert isinstance(run, RunResult)
        assert run.markers == ("branch_b",)
        assert run.feasibility.feasible_under_outcome_i
        assert run.subsets["recorded"].count == 20_000
        assert run.subsets["recorded"].verdict is Verdict.PARTICLE

    def test_permanent_only_below_noise_floor_flags_the_run(self):
        cfg = ProtocolConfig(
            protocol=Protocol.PERISHABLE_MEDIA,
            observation_schedule=ObservationSchedule.AT_T0,
            recording_rule=RecordingRule.PERMANENT_ONLY,
            noise_threshold=0.5,
            n_pairs=20_000,
            seed=46,
        )
        run = run_perishable_media(cfg)
        assert isinstance(run, RunResult)
        assert run.markers == ("branch_b", "statistically_indistinguishable_from_consistency")


class TestDispatch:
    def test_run_protocol_routes_by_enum(self):
        cfg = ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=100, seed=47)
        run = run_protocol(cfg)
        assert isinstance(run, RunResult)
        assert run.protocol is Protocol.DOUBLE_SLIT

    def test_runners_refuse_foreign_configs(self):
        cfg = ProtocolConfig(protocol=Protocol.PREDICTOR, n_pairs=100, seed=48)
        with pytest.raises(ValidationError):
            run_double_slit(cfg)
