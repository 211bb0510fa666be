"""Runner behavior: validation, the event log, coincidence sorting, verdicts."""

import copy
import gc
import hashlib
import io
import math
import pickle
import tempfile
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualitysim import protocols
from dualitysim.models import Medium, RenderingModel, RenderingPolicy
from dualitysim.optics import (
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    ValidationError,
    fringe_aligned_edges,
)
from dualitysim.protocols import (
    DELTA_T_FAST,
    DELTA_T_SLOW,
    EVENT_LOG_COLUMNS,
    PAIR_SPACING_FACTOR,
    _BLOCK_ROWS,
    _MEDIUM_CODES,
    CoincidenceSummary,
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
    _render,
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
from dualitysim.stats import FeasibilityReport, Verdict, llr_terms, optimal_interval_set, tv_distance

from test_golden import matrix
from test_models import AvailabilityRecord, which_way_available

COLLAPSE = RenderingModel(RenderingPolicy.COLLAPSE_AT_DETECTION)
RENDER = RenderingModel(RenderingPolicy.RENDER_AT_AVAILABILITY)
OPTICS = OpticsConfig()
A = OPTICS.fringe_scale_m


def _availability_records(log: EventLog) -> list[AvailabilityRecord]:
    """Each pair's availability record, read from the log's columns: NaN
    times are absent, and a perishable record's lifetime runs from its
    detection to its expiry, forever when it never expires."""
    medium_of = {code: medium for medium, code in _MEDIUM_CODES.items()}

    def time(x: float) -> float | None:
        return None if math.isnan(x) else x

    records = []
    columns = (log.detected, log.recorded, log.medium, log.detected_at_s, log.erased_at_s, log.expires_at_s,
               log.observation_time_s)
    for detected, recorded, code, detected_at, erased_at, expires_at, observed in zip(*(c.tolist() for c in columns)):
        medium = medium_of[code]
        ttl = None
        if medium is Medium.PERISHABLE:
            ttl = math.inf if math.isnan(expires_at) else expires_at - detected_at
        records.append(AvailabilityRecord(
            detected=bool(detected),
            recorded=bool(recorded),
            medium=medium,
            detected_at=time(detected_at),
            erased_at=time(erased_at),
            ttl_s=ttl,
            observation_time=observed,
        ))
    return records


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

    @pytest.mark.parametrize(
        "kw",
        [
            dict(protocol=Protocol.DOUBLE_SLIT, n_pairs=2000, delta_t_s=1e305, coincidence_window_s=1e304),
            dict(protocol=Protocol.MACROSCOPIC_ERASURE, n_pairs=1000, delta_t_s=1e300, erasure_delay_s=1.7976931348623157e308),
        ],
        ids=["pair-spacing", "erasure-delay"],
    )
    def test_timestamps_that_overflow_are_refused(self, kw):
        with pytest.raises(ValidationError, match="timestamps overflow"):
            ProtocolConfig(**kw)

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

    @pytest.mark.parametrize(
        "edges,activate",
        [
            ([-1e-4, 0.0, math.nan], [True, False]),
            ([-1e-4, 0.0, math.inf], [True, False]),
            ([-math.inf, 0.0, 1e-4], [False, True]),
        ],
    )
    def test_custom_table_edges_are_finite(self, edges, activate):
        """Even an edge that bounds only inactive cells, which no region reads."""
        with pytest.raises(ValidationError, match="table_edges must be finite"):
            SwitchStrategy.custom(edges, activate)

    def test_named_kinds_reduce_to_regions(self):
        assert not SwitchStrategy.always_off().activation_region(OPTICS)
        full = SwitchStrategy.always_on().activation_region(OPTICS)
        assert full.measure == pytest.approx(OPTICS.window_width_m)
        star = optimal_interval_set(OPTICS)
        assert SwitchStrategy.strategy_1(star).activation_region(OPTICS) == star

    def test_custom_table_merges_adjacent_active_bins(self):
        region = SwitchStrategy.custom([-A / 4, 0.0, A / 4], [True, True]).activation_region(OPTICS)
        assert region.intervals.tolist() == [[-A / 4, A / 4]]
        split = SwitchStrategy.custom([-3e-4, -1e-4, 1e-4, 3e-4], [True, False, True]).activation_region(OPTICS)
        assert len(split.intervals) == 2

    @given(activate=st.lists(st.booleans(), min_size=1, max_size=12))
    def test_custom_table_region_matches_the_merge_loop(self, activate):
        edges = np.linspace(*OPTICS.window, len(activate) + 1).tolist()
        pairs = []  # the loop the run-edge form replaced
        for lo, hi, active in zip(edges, edges[1:], activate):
            if active and pairs and pairs[-1][1] == lo:
                pairs[-1] = (pairs[-1][0], hi)
            elif active:
                pairs.append((lo, hi))
        region = SwitchStrategy.custom(edges, activate).activation_region(OPTICS)
        assert region.intervals.tolist() == [list(pair) for pair in pairs]

    def test_table_outside_the_window_fails_at_region_time(self):
        bad = SwitchStrategy.custom([0.0, 1.0], [True])
        with pytest.raises(ValidationError):
            bad.activation_region(OPTICS)


def _reference_match(signal_times, detector_times, window_s, expected_lag_s=0.0):
    """The greedy matcher's loop over numpy scalars, kept as the oracle of the list-based loop."""
    s = np.asarray(signal_times, dtype=float).ravel()
    d = np.asarray(detector_times, dtype=float).ravel()
    s_order = np.argsort(s, kind="stable")
    s_sorted = s[s_order]
    used = np.zeros(s.size, dtype=bool)
    matched = ambiguities = 0
    for det_idx in np.argsort(d, kind="stable"):
        target = d[det_idx] - expected_lag_s
        pos = int(np.searchsorted(s_sorted, target))
        best = -1
        best_gap = math.inf
        candidates = 0
        j = pos - 1
        while j >= 0 and target - s_sorted[j] < window_s:
            if not used[j]:
                candidates += 1
                gap = target - s_sorted[j]
                if gap < best_gap:
                    best, best_gap = j, gap
            j -= 1
        j = pos
        while j < s_sorted.size and s_sorted[j] - target < window_s:
            if not used[j]:
                candidates += 1
                gap = s_sorted[j] - target
                if gap < best_gap:
                    best, best_gap = j, gap
            j += 1
        if candidates >= 2:
            ambiguities += 1
        if best >= 0:
            used[best] = True
            matched += 1
    return CoincidenceSummary(
        matched=matched,
        unmatched_signals=int(s.size - matched),
        unmatched_detectors=int(d.size - matched),
        ambiguities=ambiguities,
    )


def _typed_fields(obj) -> list[tuple[str, str, str]]:
    """(name, type, repr) of each field: repr tells -0.0 from 0.0 and matches NaN with NaN."""
    return [(f.name, type(getattr(obj, f.name)).__name__, repr(getattr(obj, f.name))) for f in fields(obj)]


#: times on a quarter-unit grid, so that gaps of exactly a window (0.25, 0.5, 1) occur
_MATCH_GRID = [k * 0.25 for k in range(-8, 9)]
_MATCH_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0]


@st.composite
def match_inputs(draw):
    window = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 4.0))
    lag = draw(st.sampled_from([0.0, 0.5, -0.25]) | st.floats(-2.0, 2.0))
    time = st.sampled_from(_MATCH_GRID + _MATCH_SPECIAL) | st.floats(-3.0, 3.0) | st.floats()
    signals = draw(st.lists(time, max_size=12))
    # detector times also on the grid shifted by the lag, so lags of exactly the window occur
    detectors = draw(st.lists(time | st.sampled_from([t + lag for t in _MATCH_GRID]), max_size=12))
    return signals, detectors, window, lag


@st.composite
def aligned_streams(draw):
    """Pair-aligned streams as a runner makes them: signal times three units
    apart, each detector time its pair's signal time plus the lag. A few rows
    then take a shorter step (a repeat at zero), an offset idler or a silent
    one (NaN), and the rows may be shuffled out of time order. Steps, offsets
    and windows share a quarter-unit grid, so gaps of exactly a window occur."""
    n = draw(st.integers(0, 8))
    steps, offsets = [3.0] * n, [0.0] * n
    quarters = [k * 0.25 for k in range(9)]
    rows = st.lists(st.integers(0, n - 1), max_size=3) if n else st.just([])
    for i in draw(rows):
        steps[i] = draw(st.sampled_from(quarters) | st.floats(0.0, 3.0))
    for i in draw(rows):
        offsets[i] = draw(st.sampled_from([q - 1.0 for q in quarters]) | st.floats(-1.0, 1.0))
    for i in draw(rows):
        offsets[i] = math.nan
    window = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0))
    lag = draw(st.sampled_from([0.0, 0.5, -0.25, 1e-8]) | st.floats(-2.0, 2.0))
    signals = np.cumsum(steps).tolist()
    if draw(st.booleans()):
        signals = draw(st.permutations(signals))
    return signals, [t + lag + dt for t, dt in zip(signals, offsets)], window, lag


class TestCoincidence:
    @given(case=match_inputs())
    @settings(max_examples=300, deadline=None)
    def test_list_loop_matches_the_numpy_scalar_loop(self, case):
        signals, detectors, window, lag = case
        summary = coincidence_match(signals, detectors, window, expected_lag_s=lag)
        with np.errstate(invalid="ignore"):  # inf - inf on numpy scalars
            want = _reference_match(signals, detectors, window, expected_lag_s=lag)
        assert _typed_fields(summary) == _typed_fields(want)

    def test_list_loop_matches_the_numpy_scalar_loop_on_a_crowded_stream(self):
        rng = np.random.default_rng(5)
        signals = np.sort(rng.uniform(0.0, 50.0, 2000))
        detectors = signals + 0.5 + rng.normal(0.0, 0.05, 2000)
        detectors[::9] = np.nan
        got = coincidence_match(signals, detectors, 0.08, expected_lag_s=0.5)
        want = _reference_match(signals, detectors, 0.08, expected_lag_s=0.5)
        assert _typed_fields(got) == _typed_fields(want)
        assert got.ambiguities > 0

    def test_matches_at_the_expected_lag(self):
        signals = [0.0, 1.0, 2.0]
        detectors = [0.5, 1.5, 2.5]
        summary = coincidence_match(signals, detectors, 0.2, expected_lag_s=0.5)
        assert summary.matched == 3
        assert summary.unmatched_signals == summary.unmatched_detectors == 0
        assert summary.ambiguities == 0

    def test_window_boundary_is_exclusive(self):
        summary = coincidence_match([0.0], [0.2], 0.2)
        assert summary.matched == 0
        assert summary.unmatched_signals == 1
        assert summary.unmatched_detectors == 1

    def test_zero_window_matches_nothing(self):
        summary = coincidence_match([0.0, 1.0], [0.0, 1.0], 0.0)
        assert summary.matched == 0

    def test_negative_window_is_rejected(self):
        with pytest.raises(ValidationError):
            coincidence_match([0.0], [0.0], -1.0)

    def test_nan_window_is_rejected(self):
        with pytest.raises(ValidationError):
            coincidence_match([0.0], [1e-9], math.nan)

    def test_two_candidates_count_one_ambiguity_and_take_the_nearest(self):
        # the first detector event takes -0.05, the nearer one, which leaves
        # 0.06 in the second's window; taking 0.06 would leave it no match
        summary = coincidence_match([-0.05, 0.06], [0.0, 0.11], 0.1)
        assert summary.ambiguities == 1
        assert summary.matched == 2

    def test_greedy_consumes_signals_in_detector_time_order(self):
        summary = coincidence_match([0.0, 0.03], [0.01, 0.02], 0.1)
        assert summary.matched == 2
        assert summary.ambiguities == 1

    @given(
        s=st.lists(st.floats(0, 100, allow_nan=False), min_size=0, max_size=12),
        d=st.lists(st.floats(0, 100, allow_nan=False), min_size=0, max_size=12),
        window=st.floats(0.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_bookkeeping_is_conserved(self, s, d, window):
        summary = coincidence_match(s, d, window)
        assert summary.matched + summary.unmatched_signals == len(s)
        assert summary.matched + summary.unmatched_detectors == len(d)
        assert summary.matched <= min(len(s), len(d))

    def test_structured_fast_path_agrees_with_greedy(self):
        rng = np.random.default_rng(3)
        t_signal = np.arange(200) * 1.0
        lag = rng.uniform(-0.3, 0.3, size=200)
        t_detector = t_signal + lag
        t_detector[::7] = np.nan  # some idlers never register
        fast = _match_structured(t_signal, t_detector, 0.4, 0.0)
        slow = coincidence_match(t_signal, t_detector[~np.isnan(t_detector)], 0.4)
        assert fast == slow

    @given(case=st.one_of(aligned_streams(), match_inputs()))
    @example(case=([0.0, 0.5], [0.0, math.nan], 1.0, 0.0))  # the next signal in the window
    @example(case=([0.0, 0.5], [math.nan, 0.5], 1.0, 0.0))  # the previous signal in the window
    @example(case=([0.0, 10.0, 20.0, 0.5], [0.0, math.nan, math.nan, 50.0], 1.0, 0.0))  # falling signal times
    @settings(max_examples=500, deadline=None)
    def test_structured_summary_matches_the_greedy_matcher(self, case):
        signals, detectors, window, lag = case
        n = min(len(signals), len(detectors))  # a runner's streams are pair-aligned
        t_signal, t_detector = np.array(signals[:n], dtype=float), np.array(detectors[:n], dtype=float)
        with np.errstate(invalid="ignore"):  # inf - inf
            got = _match_structured(t_signal, t_detector, window, lag)
            want = coincidence_match(t_signal, t_detector[~np.isnan(t_detector)], window, expected_lag_s=lag)
        assert _typed_fields(got) == _typed_fields(want)

    @pytest.mark.parametrize(
        "window_s, silent",
        [(1e-9, slice(0)), (0.8e-8, slice(0)), (1e-9, slice(None, None, 2)), (1e-9, slice(_BLOCK_ROWS, None))],
        ids=["default", "wide-window", "every-other-silent", "silent-after-one-block"],
    )
    def test_runner_streams_skip_the_greedy_loop(self, monkeypatch, window_s, silent):
        """The streams the eraser bench makes (with the which-way channels
        off, some idlers register nowhere) are summarised without the loop."""
        n = 3 * _BLOCK_ROWS + 5
        t_signal = np.arange(n, dtype=np.float64) * (PAIR_SPACING_FACTOR * DELTA_T_FAST)
        t_detector = t_signal + DELTA_T_FAST
        t_detector[silent] = np.nan
        want = coincidence_match(t_signal, t_detector[~np.isnan(t_detector)], window_s, DELTA_T_FAST)
        monkeypatch.setattr(protocols, "coincidence_match", None)  # calling it fails the test
        assert _match_structured(t_signal, t_detector, window_s, DELTA_T_FAST) == want
        assert want.matched == np.count_nonzero(~np.isnan(t_detector))


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


def _reference_digest(log: EventLog) -> str:
    """The v2 digest from whole columns, kept as the oracle of the sealed
    records, the fill records and the reused ones: a column's record is the
    sha256 over the sha256s of its bytes cut every ``_BLOCK_ROWS`` rows. It
    reads every column as an attribute, so it expands every fill."""
    h = hashlib.sha256(b"dualitysim-event-log-v2\x00")
    h.update(len(log).to_bytes(8, "little"))
    for name in EVENT_LOG_COLUMNS:
        col = np.ascontiguousarray(getattr(log, name))
        raw, step = col.tobytes(), _BLOCK_ROWS * col.itemsize
        blocks = b"".join(hashlib.sha256(raw[start : start + step]).digest() for start in range(0, len(raw), step))
        h.update(name.encode() + b"\x00" + col.dtype.str.encode() + b"\x00")
        h.update(hashlib.sha256(blocks).digest())
    return h.hexdigest()


#: row counts of the digest checks: empty, one row, the block edges and several blocks
DIGEST_SIZES = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5)


@st.composite
def event_logs(draw, n: int | None = None):
    """Logs of the documented dtypes holding edge values, with ``n`` rows or
    row counts on both sides of the block size; columns that stay fills
    (blank or given), columns given an earlier column's array, and columns
    that repeat (or sign-flip the zeros of) an earlier column."""
    edge = _BLOCK_ROWS
    if n is None:
        n = draw(st.one_of(st.integers(0, 40), st.sampled_from([edge - 1, edge, edge + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    if draw(st.booleans()):  # else the row index stays a fill
        columns["pair_id"] = np.arange(n) + draw(st.integers(0, 2**63 - 1 - n))
    arrays: dict[type, list[np.ndarray]] = {np.float64: [], np.int8: []}
    for name in EVENT_LOG_COLUMNS[1:]:
        dtype = protocols._COLUMNS[name][0]
        earlier = arrays[dtype]
        modes = ["blank", "fill", "array"] + (["shared", "copy"] if earlier else [])
        if dtype == np.float64 and earlier:
            modes.append("flipped_zeros")
        mode = draw(st.sampled_from(modes))
        if mode == "blank":
            continue
        if mode == "fill":
            columns[name] = rng.choice(_EDGE_FLOATS) if dtype == np.float64 else rng.integers(-128, 128)
            continue
        if mode == "array" and dtype == np.float64:
            scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
            col = np.where(rng.random(n) < 0.5, rng.choice(_EDGE_FLOATS, n), scaled)
        elif mode == "array":
            col = rng.integers(-128, 128, n, dtype=np.int8)
        elif mode == "shared":
            col = earlier[draw(st.integers(0, len(earlier) - 1))]
        elif mode == "copy":
            col = earlier[draw(st.integers(0, len(earlier) - 1))].copy()
        else:
            source = earlier[draw(st.integers(0, len(earlier) - 1))]
            col = np.where(source == 0.0, -source, source)
        columns[name] = col
        earlier.append(col)
    return EventLog(n, columns)


#: the float64 time columns a run may hold as rules
_TIME_COLUMNS = ("t_created_s", "t_signal_impact_s", "t_detector_s", "detected_at_s", "erased_at_s", "expires_at_s",
                 "observation_time_s")


@st.composite
def rules(draw):
    """(n, a rule, two columns to hold it, a third column for the rule with
    one more offset): a positive step and up to three offsets of many
    significant bits, so that the sums round, on row counts on both sides
    of the block size."""
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])))
    step = draw(st.floats(1e-12, 1e3, exclude_min=True))
    offset = st.floats(-1e3, 1e3).map(lambda x: x * (1 + 2**-40) + 2**-30)
    offsets = draw(st.lists(offset, max_size=3))
    names = draw(st.lists(st.sampled_from(_TIME_COLUMNS), min_size=3, max_size=3, unique=True))
    return n, protocols._Rule(step, tuple(offsets)), names[:2], {names[2]: protocols._Rule(step, (*offsets, draw(offset)))}


def _fills(log: EventLog) -> set[str]:
    """The names of the columns ``log`` holds as fills."""
    return {name for name in EVENT_LOG_COLUMNS if not isinstance(log._cols[name], np.ndarray)}


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
        log = run_double_slit(ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=64, seed=1)).events
        changed = log.signal_x_m.copy()
        changed[0] += 1e-9
        columns = {name: log._cols[name] for name in EVENT_LOG_COLUMNS if log._cols[name] is not None}
        assert EventLog(len(log), columns).digest() == log.digest()
        assert EventLog(len(log), {**columns, "signal_x_m": changed}).digest() != log.digest()

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

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_digest_matches_the_reference_digest(self, data):
        for n in (None,) + DIGEST_SIZES:
            log = data.draw(event_logs(n))
            fills = _fills(log)
            digest = log.digest()
            assert _fills(log) == fills  # the records leave fills unexpanded
            assert digest == _reference_digest(log)

    @pytest.mark.parametrize("n", DIGEST_SIZES)
    def test_a_fill_and_its_array_give_one_digest(self, n):
        fills = EventLog(n, {"erased": 1, "t_detector_s": -0.0})
        arrays = EventLog(
            n,
            {
                "erased": np.ones(n, dtype=np.int8),
                "t_detector_s": np.full(n, -0.0),
                "pair_id": np.arange(n),
                "signal_x_m": np.full(n, np.nan),
            },
        )
        assert _fills(fills) == set(EVENT_LOG_COLUMNS)
        assert fills.digest() == arrays.digest() == _reference_digest(fills)

    def test_a_shared_buffer_and_its_copy_give_one_digest(self):
        n = 2 * _BLOCK_ROWS + 3
        times = np.random.default_rng(4).random(n)
        names = ("t_created_s", "t_signal_impact_s", "erased_at_s")
        shared = EventLog(n, dict.fromkeys(names, times))  # one object under three names
        copied = EventLog(n, {name: times.copy() for name in names})
        assert all(shared._cols[name] is times for name in names)
        assert all(type(shared._records[name]) is bytes for name in names)
        assert len({id(shared._records[name]) for name in names}) == 1  # hashed once
        assert len({id(copied._records[name]) for name in names}) == 3
        assert shared.digest() == copied.digest() == _reference_digest(copied)

    @given(case=rules(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_a_rule_gives_the_digest_and_csv_of_its_rows(self, case, seed):
        """A rule held by two columns gives the digest, the CSV bytes and
        the pickled digest of the same log built from its rows, and expands
        once, read-only; a third column holds the rule with one more offset."""
        n, rule, names, other = case
        x = np.random.default_rng(seed).random(n)
        held = EventLog(n, {"signal_x_m": x, **dict.fromkeys(names, rule), **other})
        rows = EventLog(n, {"signal_x_m": x, **{name: r.rows(0, n) for name, r in {**dict.fromkeys(names, rule), **other}.items()}})
        assert all(held._cols[name] == rule for name in names)
        assert held.digest() == rows.digest() == _reference_digest(rows)
        with tempfile.TemporaryDirectory() as tmp:
            held.to_csv(Path(tmp) / "held.csv")
            rows.to_csv(Path(tmp) / "rows.csv")
            csv = (Path(tmp) / "held.csv").read_bytes()
            assert csv == (Path(tmp) / "rows.csv").read_bytes() == _reference_csv(held)
        copied = pickle.loads(pickle.dumps(held))
        assert all(copied._cols[name] == rule for name in names)
        assert copied.digest() == held.digest()
        expanded = getattr(held, names[0])
        assert expanded is getattr(held, names[1])
        assert expanded.tobytes() == rule.rows(0, n).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            expanded[:1] = 1.0
        assert held.digest() == rows.digest()  # reading leaves the rule held

    def test_rules_are_equal_on_their_bits(self):
        """Rules are keyed on their numbers' bits and dtype, not on ``==``."""
        rule = protocols._Rule
        assert rule(1.5, (0.25,)) == rule(1.5, (0.25,)) and hash(rule(1.5, (0.25,))) == hash(rule(1.5, (0.25,)))
        assert rule(1.5, (0.0,)) != rule(1.5, (-0.0,))
        assert rule(1.5, (math.nan,)) == rule(1.5, (math.nan,))
        assert rule(1.0) != rule(1, dtype=np.int64)
        assert rule(5e-324) != rule(1, dtype=np.int64)  # the same eight bytes
        log = EventLog(3, {"t_created_s": rule(1.0, (-0.0,)), "t_detector_s": rule(1.0, (0.0,))})
        assert log.t_created_s is not log.t_detector_s
        # the row index and a float rule of the same numbers are two columns
        log = EventLog(3, {"t_created_s": rule(1.0)})
        assert log.t_created_s.dtype == np.float64 and log.pair_id.dtype == np.int64

    def test_given_arrays_and_their_bases_are_read_only(self):
        buf = np.linspace(0.0, 1.0, 9).copy()  # owns its memory
        x = buf[:8]
        ids = np.arange(8)
        log = EventLog(8, {"signal_x_m": x, "detector": ids})
        ids[0] = 5  # converted to int8: the caller's array stays its own
        assert log.detector[0] == 0
        for sealed in (log.signal_x_m, x, buf, log.detector, log.bs_a, log.pair_id):
            with pytest.raises(ValueError, match="read-only"):
                sealed[0] = 1
        assert log.digest() == _reference_digest(log)

    def test_assigning_any_name_raises(self):
        log = EventLog(4)
        fills = _fills(log)
        for name in EVENT_LOG_COLUMNS + ("no_such_column", "events"):
            for value in (1, np.ones(4)):
                with pytest.raises(AttributeError):
                    setattr(log, name, value)
        assert _fills(log) == fills
        assert log.digest() == EventLog(4).digest()

    def test_construction_checks_each_column(self):
        with pytest.raises(ValueError, match="no_such_column"):
            EventLog(4, {"no_such_column": 1})
        with pytest.raises(ValueError, match="'slit'"):
            EventLog(4, {"slit": np.ones(3)})
        with pytest.raises(ValueError, match="'slit'"):
            EventLog(4, {"slit": np.ones((4, 1))})
        log = EventLog(4, {"erased": 1.0, "t_detector_s": 2, "detector": np.int64(3)})
        assert type(log._cols["erased"]) is np.int8 and type(log._cols["detector"]) is np.int8
        assert type(log._cols["t_detector_s"]) is np.float64
        assert log.erased.dtype == np.int8 and log.t_detector_s.tolist() == [2.0] * 4

    def test_every_run_digests_the_bytes_it_leaves(self):
        """Every runner's log digests the bytes of its columns as read."""
        for name, cfg in matrix().items():
            run = run_protocol(replace(cfg, n_pairs=2 * _BLOCK_ROWS + 4))
            if isinstance(run, RunResult):
                assert run.event_digest == _reference_digest(run.events), name

    def test_reading_every_column_keeps_the_fills_and_the_digest(self):
        """Reading all columns expands no fill's record: the digest hashes
        no expanded fill, and the set of fills does not change."""
        run = run_quantum_eraser(ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=2 * _BLOCK_ROWS + 3, seed=5))
        log = run.events
        fills = _fills(log)
        assert fills  # the eraser's log keeps fills
        for name in EVENT_LOG_COLUMNS:
            assert len(getattr(log, name)) == len(log)
        assert log.digest() == run.event_digest
        assert _fills(log) == fills
        for other in (pickle.loads(pickle.dumps(log)), copy.deepcopy(log)):
            assert _fills(other) == fills and other.digest() == run.event_digest

    def test_a_pickled_or_copied_run_keeps_its_log_and_digest(self):
        run = run_quantum_eraser(ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=_BLOCK_ROWS + 3, seed=5))
        fills = _fills(run.events)
        for other in (pickle.loads(pickle.dumps(run)), copy.deepcopy(run)):
            assert _fills(other.events) == fills  # fills stay unexpanded
            for name in EVENT_LOG_COLUMNS:
                np.testing.assert_array_equal(getattr(other.events, name), getattr(run.events, name), err_msg=name)
            assert other.event_digest == other.events.digest() == run.event_digest
            assert other.events.t_created_s is other.events.t_signal_impact_s
            with pytest.raises(ValueError, match="read-only"):
                other.events.signal_x_m[0] = 1.0  # still read-only

    def test_columns_are_fills_until_read(self):
        log = EventLog(5, {"erased": 1})
        assert isinstance(log._cols["erased"], np.int8)
        np.testing.assert_array_equal(log.pair_id, np.arange(5))
        assert log.erased.dtype == np.int8 and log.erased.tolist() == [1] * 5
        assert log.erased is log.erased  # expanded once
        with pytest.raises(ValueError, match="read-only"):
            log.erased[0] = 0
        assert isinstance(log._cols["erased"], np.int8)  # still a fill
        assert np.isnan(log.signal_x_m).all() and log.bs_a.tolist() == [-1] * 5
        with pytest.raises(AttributeError):
            log.no_such_column

    def test_runs_keep_constant_columns_as_fills(self):
        log = run_double_slit(ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=64, seed=1)).events
        for name in ("pair_id", "bs_a", "bs_b", "bs_c", "detector", "t_detector_s", "detected", "erased_at_s"):
            assert not isinstance(log._cols[name], np.ndarray), name

    def test_an_array_shared_by_two_columns_is_read_only(self):
        log = run_double_slit(ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=64, seed=1)).events
        assert log.t_signal_impact_s is log.t_created_s
        with pytest.raises(ValueError, match="read-only"):
            log.t_signal_impact_s[0] = 1.0
        x = log.signal_x_m.copy()
        built = EventLog(64, {"signal_x_m": x, "erased_at_s": x})  # one array under two names
        assert built.erased_at_s is built.signal_x_m is x
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0

    def test_double_slit_memory_per_pair(self):
        """Bytes per pair that tracemalloc counts (numpy reports its buffers
        to it, so the figure does not depend on the process's heap layout):
        the log a 200,000-pair run keeps, and the run's peak."""
        n = 200_000
        cfg = ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=n, seed=3)
        run_double_slit(replace(cfg, n_pairs=1000))  # law caches and the pool exist before counting
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run = run_double_slit(cfg)
            current, peak = tracemalloc.get_traced_memory()
            run.events = None
            gc.collect()
            held = current - tracemalloc.get_traced_memory()[0]
        finally:
            if started:
                tracemalloc.stop()
        assert held / n <= 32
        assert (peak - base) / n <= 64

    @given(log=event_logs())
    @settings(max_examples=25, deadline=None)
    def test_csv_bytes_match_the_reference_formatter(self, log):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.csv"
            log.to_csv(path)
            assert path.read_bytes() == _reference_csv(log)

    @pytest.mark.parametrize(
        "make",
        [
            # the row index crosses from 5 to 6 digits inside block 6 (rows 98,304 to 100,000)
            lambda: EventLog(100_001),
            lambda: EventLog(0),
            lambda: EventLog(1),
            lambda: EventLog(1, {"t_created_s": [-0.0], "slit": [-1], "signal_x_m": [1e17], "erased": [-128]}),
            lambda: EventLog(
                14,
                {
                    "pair_id": [-(2**63), 2**63 - 1, -1, 0, 1, -9, 9, 10, -10, -9999, 10_000, -(10**18), 10**18, 7],
                    "t_created_s": np.linspace(-1.0, 1.0, 14),
                },
            ),
            # every column a fill, the row index too, across a block edge
            lambda: EventLog(
                _BLOCK_ROWS + 3,
                {
                    name: fill
                    for name, fill in zip(
                        EVENT_LOG_COLUMNS,
                        [-7, -0.0, -1, np.inf, -np.inf, -128, 127, 0, 4, 5e-324, 2, -1, 1, 3, 0.1, np.nan, -1.5e-8, 1e300],
                    )
                },
            ),
        ],
        ids=["blank-100001", "blank-0", "blank-1", "one-row", "extreme-pair-ids", "all-fills"],
    )
    def test_csv_slot_layout_matches_the_reference_formatter(self, make, tmp_path):
        log = make()
        path = tmp_path / "events.csv"
        log.to_csv(path)
        assert path.read_bytes() == _reference_csv(log)

    def test_log_columns_tell_each_pairs_story(self):
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=200, seed=13)
        log = run_quantum_eraser(cfg).events
        records = _availability_records(log)
        assert len(records) == 200
        for i, rec in enumerate(records):
            slit, detector = int(log.slit[i]), int(log.detector[i])
            first_splitter = log.bs_a[i] if slit == 1 else log.bs_b[i]
            assert (log.bs_b[i] if slit == 1 else log.bs_a[i]) == -1  # the other slit's splitter
            assert detector in {1, 2, 3, 4}
            if detector in {3, 4}:
                # reflected at the idler's first splitter, slit-tagged record kept
                assert first_splitter == 1
                assert log.bs_c[i] == -1
                assert rec.recorded
                assert rec.medium is Medium.PERSISTENT
                assert detector == (3 if slit == 1 else 4)
            else:
                # transmitted, then out of an eraser port
                assert first_splitter == 0
                assert log.bs_c[i] == detector - 1
                assert log.erased[i]
                assert not rec.recorded

    def test_subset_counts_partition_the_pairs(self):
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=3000, seed=17)
        run = run_quantum_eraser(cfg)
        assert sum(s.count for s in run.subsets.values()) == 3000
        assert run.pooled.count == 3000
        for s in run.subsets.values():
            assert s.histogram.sum() == s.count
            assert s.histogram.size == run.bin_edges.size - 1


def _csv_cells(values) -> bytes:
    """The events.csv cells of one column, one per line."""
    values = np.asarray(values)
    fh = io.BytesIO()
    protocols._write_csv_rows(fh, [values], values.size)
    return fh.getvalue()


def _printf_cells(values) -> bytes:
    """The reference: ``b"%.17g" % x`` per float cell (NaN empty), ``b"%d"`` per integer."""
    values = np.asarray(values)
    if values.dtype != np.float64:
        return b"".join(b"%d\n" % v for v in values.tolist())
    return b"".join(b"\n" if x != x else b"%.17g\n" % x for x in values.tolist())


def _assert_cells_match_printf(values) -> None:
    got, want = _csv_cells(values).split(b"\n"), _printf_cells(values).split(b"\n")
    wrong = [(x, g, w) for x, g, w in zip(np.asarray(values).tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]
    assert len(got) == len(want)


#: exact ties at the 17th significant digit, a * 2**-j with a odd and a * 5**j
#: of 18 digits, from 1000000000000000.25 down to 2**-25 = 2.98023223876953125e-08
_TIES = [math.ldexp(-(-(10**17) // 5**j) | 1, -j) for j in range(2, 26)]


class TestCsvFloatCells:
    """events.csv float cells against ``b"%.17g" % x``, the bytes they must equal."""

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_csv_cells_of_raw_bit_patterns(self, bits):
        _assert_cells_match_printf(np.array(bits, dtype=np.uint64).view(np.float64))

    @given(
        sign=st.integers(0, 1),
        exponent=st.integers(1000, 1080),  # binary exponents around the exact range: 1.2e-7 .. 2.9e17
        fraction=st.integers(0, 2**52 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_csv_cells_across_the_exact_range(self, sign, exponent, fraction):
        bits = np.array([sign << 63 | exponent << 52 | fraction], dtype=np.uint64)
        _assert_cells_match_printf(bits.view(np.float64))

    def test_csv_cells_of_many_values(self):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
        _assert_cells_match_printf(bits.view(np.float64))
        _assert_cells_match_printf(10.0 ** rng.uniform(-8, 18, 100_000) * rng.choice([-1.0, 1.0], 100_000))

    def test_csv_cells_next_to_powers_of_ten(self):
        """10**k and its neighbours for every k a float reaches; a value just
        below a power of ten that rounds up to it (1e-14 is one) checks that
        the exact path never meets a carry to an 18th digit."""
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        near = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
        _assert_cells_match_printf(np.concatenate([near, -near]))
        assert Decimal(1e-14) < Decimal("1e-14") and b"%.17g" % 1e-14 == b"1e-14"

    def test_csv_cells_round_ties_half_to_even(self):
        for x in _TIES:
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, x
        assert _TIES[-1] == 2.0**-25
        _assert_cells_match_printf(np.array(_TIES + [-t for t in _TIES]))

    def test_csv_cells_of_special_values(self):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0), 5e-324, -5e-324]
        values += [2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308, 1e17, 1e-6]
        # row 66 of an eraser's t_detector_s: its exponent is -7; taken at -6, its mantissa rounds to 1e-06
        values += [9.9999999999999995e-07]
        assert _csv_cells(values) == _printf_cells(values)
        assert _csv_cells([np.copysign(np.nan, -1.0), -0.0]) == b"\n-0\n"
        assert _csv_cells([9.9999999999999995e-07]) == b"9.9999999999999995e-07\n"

    def test_csv_cells_of_integers(self):
        assert _csv_cells(np.arange(-128, 128, dtype=np.int8)) == _printf_cells(np.arange(-128, 128))
        wide = np.array([0, -1, 7, 10**16, -(10**18), 2**63 - 1, -(2**63)], dtype=np.int64)
        assert _csv_cells(wide) == _printf_cells(wide)


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

    @pytest.mark.parametrize(
        "fringes,d1",
        [(1, 0.999), (4.29, 0.942), (10, 0.997), (20.29, None), (50.29, None), (200, None)],
    )
    def test_visibility_is_none_where_the_smoothing_spans_a_quarter_fringe(self, fringes, d1):
        """Windows of 1 and 10 fringes fold onto one period. The others are
        smoothed over nbins // 20 bins: 10 bins of about 50 per fringe at 4.29
        fringes, but 25 of 24.6 per fringe at 20.29, where D1 read 0.055
        against a flat D3's 0.045, and more past that."""
        optics = OpticsConfig(screen_halfwidth_m=fringes * A / 2)
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=200_000, seed=1, optics=optics)
        run = run_quantum_eraser(cfg)
        if d1 is None:
            assert all(s.visibility is None for s in (*run.subsets.values(), run.pooled))
        else:
            assert run.subsets["D1"].visibility == pytest.approx(d1, abs=5e-4)
            assert run.subsets["D3"].visibility < 0.1

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

    @pytest.mark.parametrize("variant", list(DetectNoRecordVariant))
    def test_every_unrecorded_pair_is_erased(self, variant):
        """``erased`` means one thing in every variant: no which-way record
        survives, whether or not a which-way detector fired."""
        log = self.verdicts(variant, COLLAPSE, n=2_000).events
        assert log.detected.any()
        assert not log.recorded.any()
        assert log.erased.tolist() == [1] * 2_000

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
        run = run_predictor(cfg)
        stats, counts = run.predictor, run.pooled.histogram
        assert counts.sum() == 5000
        assert run.bin_edges[0] == OPTICS.window[0]
        assert run.bin_edges[-1] == OPTICS.window[1]
        filled = counts > 0
        assert np.all(stats.empirical_posterior[filled] >= 0)
        assert np.isnan(stats.empirical_posterior[~filled]).all()

    def test_posterior_bins_are_the_screen_histograms(self):
        cfg = ProtocolConfig(protocol=Protocol.PREDICTOR, n_pairs=5000, seed=34)
        run = run_predictor(cfg)
        x, recorded = run.events.signal_x_m, run.events.recorded.astype(bool)
        edges, total = run.bin_edges, run.pooled.histogram
        np.testing.assert_array_equal(edges, fringe_aligned_edges(cfg.optics))
        np.testing.assert_array_equal(total, np.histogram(x, bins=edges)[0])
        hits = run.subsets["recorded"].histogram
        np.testing.assert_array_equal(hits, np.histogram(x[recorded], bins=edges)[0])
        filled = total > 0
        share = hits[filled] / total[filled]
        np.testing.assert_array_equal(run.predictor.empirical_posterior[filled], share)


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
        np.testing.assert_array_equal(fast.subsets["screen"].histogram, slow.subsets["screen"].histogram)
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
        log = run.events
        for erased, rec in zip(log.erased[:50].tolist(), _availability_records(log)[:50]):
            if erased:
                assert rec.medium is Medium.PERISHABLE
                assert rec.ttl_s == pytest.approx(cfg.ttl_s)
            else:
                assert rec.medium is Medium.PERSISTENT

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


class TestSharedPipeline:
    @pytest.mark.parametrize("model", [COLLAPSE, RENDER], ids=["collapse", "render"])
    def test_render_reads_availability_as_the_record_does(self, model, monkeypatch):
        """The vector availability mask agrees lane by lane with
        ``which_way_available`` on a hand-built log that holds every medium,
        live and dead perishable records among them."""
        n = 8
        cfg = ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=n, model=model, delta_t_s=1.0, coincidence_window_s=0.1)
        log = protocols._Rows(protocols._Run(cfg, Protocol.DOUBLE_SLIT), 0, n)  # one chunk's rows
        times = np.arange(n, dtype=float)
        log.t_created_s = log.t_signal_impact_s = times
        media = [Medium.PERISHABLE, Medium.PERISHABLE, Medium.PERISHABLE, Medium.PERSISTENT,
                 Medium.PERSISTENT, Medium.VOLATILE, Medium.NONE, Medium.NONE]
        log.medium = [_MEDIUM_CODES[m] for m in media]
        log.detected = [1, 1, 1, 1, 1, 1, 1, 0]
        log.recorded = [1, 1, 1, 1, 1, 0, 0, 0]
        log.detected_at_s = np.where(log.detected == 1, times, np.nan)
        # lane 0 lives past the observation, lane 1 expires before it, lane 2 never expires;
        # lane 4's persistent record is erased before the observation
        log.expires_at_s = np.concatenate((times[:3] + [5.0, 0.5, np.nan], np.full(n - 3, np.nan)))
        log.erased_at_s = np.where(times == 4, times + 0.5, np.nan)
        real, masks = protocols.available_mask, []

        def spy(*args):
            masks.append(real(*args))
            return masks[-1]

        monkeypatch.setattr(protocols, "available_mask", spy)
        _render(log, protocols._Rule(1.0))  # the creation times' rule: the idler resolves at creation
        expected = [which_way_available(rec, model) for rec in _availability_records(log)]
        assert masks[0].tolist() == expected
        if model is RENDER:
            assert expected == [True, False, True, True, False, False, False, False]

    @pytest.mark.parametrize(
        "cfg, empty",
        [
            (ProtocolConfig(protocol=Protocol.DELAYED_CHOICE, choice_record_prob=0.0), "recorded"),
            (ProtocolConfig(protocol=Protocol.DELAYED_CHOICE, choice_record_prob=1.0), "unrecorded"),
            (ProtocolConfig(protocol=Protocol.MACROSCOPIC_ERASURE, destruction_prob=0.0), "destroyed"),
            (ProtocolConfig(protocol=Protocol.MACROSCOPIC_ERASURE, destruction_prob=1.0), "surviving"),
        ],
        ids=["choice-0", "choice-1", "destruction-0", "destruction-1"],
    )
    def test_an_empty_side_of_a_split_completes_without_a_distance(self, cfg, empty):
        run = run_protocol(replace(cfg, n_pairs=2000, seed=49))
        assert isinstance(run, RunResult)
        assert run.empirical_tv is None
        side = run.subsets[empty]
        assert (side.count, side.verdict, side.visibility) == (0, Verdict.INDETERMINATE, None)
        assert sum(s.count for s in run.subsets.values()) == run.pooled.count == 2000


def _traced_peak_per_pair(cfg: ProtocolConfig) -> float:
    """Bytes per pair of the tracemalloc peak of ``run_protocol(cfg)`` above
    what was held before it (numpy reports its buffers to tracemalloc, so the
    figure does not depend on the process's heap layout)."""
    run_protocol(replace(cfg, n_pairs=1000))  # law caches and the pool exist before counting
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_protocol(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return (peak - base) / cfg.n_pairs


#: tracemalloc peaks of 200,000-pair runs in bytes per pair, the higher of
#: the two policies, as measured with boolean-mask gathers and scatters on
#: the per-pair path (x86-64, numpy 2.4); the eraser's varies by 4% with when
#: the pool hashes the log
_MASKED_PATH_PEAKS = {"double_slit": 51.03, "quantum_eraser": 91.32, "switch_d_i_empty": 91.51}


class TestPerPairKernels:
    """The branch-free per-pair passes against the boolean-mask and
    ``np.where`` forms they replaced."""

    @pytest.mark.parametrize("n", [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
    @pytest.mark.parametrize("lanes", ["none", "all", "random"])
    @pytest.mark.parametrize("out", ["column", "rows"])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_nan_except_matches_where(self, n, lanes, out, layout):
        """In place into a whole column, or into rows of a longer one as a
        chunk's ``column`` hands them out, leaving the other rows alone."""
        rng = np.random.default_rng(n)
        mask = {"none": np.zeros(n, bool), "all": np.ones(n, bool), "random": rng.random(n) < 0.5}[lanes]
        values = rng.standard_normal(2 * n)[::2] if layout == "strided" else rng.standard_normal(n)
        pad = 7 if out == "rows" else 0
        column = rng.standard_normal(n + 2 * pad)
        want = column.copy()
        want[pad : pad + n] = np.where(mask, values, np.nan)
        protocols._nan_except(column[pad : pad + n], mask, values)
        assert column.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "not-kept"])
    def test_eraser_routing_matches_the_select_reference(self, kept):
        """The eraser bench's columns (kept: the quantum eraser; not kept:
        detect-no-record without a coincidence counter) over three chunks."""
        n = 4 * _BLOCK_ROWS + 7
        assert -(-n // protocols._chunk_rows(n)) == 3
        if kept:
            cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=n, seed=50)
        else:
            cfg = ProtocolConfig(protocol=Protocol.DETECT_NO_RECORD, n_pairs=n, seed=50,
                                 variant=DetectNoRecordVariant.NO_COINCIDENCE_COUNTER)
        log = run_protocol(cfg).events
        # the same draws, taken in sequence and routed by np.where
        ref = np.random.default_rng(cfg.seed)
        s1 = ref.random(n) < 0.5
        w = ref.random(n) < 0.5
        port = (ref.random(n) < 0.5).astype(np.int8)
        unused = np.int8(-1)
        want = {
            "slit": np.where(s1, np.int8(1), np.int8(2)),
            "bs_a": np.where(s1, w, unused),
            "bs_b": np.where(s1, unused, w),
            "bs_c": np.where(w, unused, port),
            "detector": np.where(w, np.where(s1, np.int8(3), np.int8(4)), port + 1),
            "detected": w,
            "detected_at_s": np.where(w, log.t_detector_s, np.nan),
            "erased": ~w if kept else np.ones(n, bool),  # every pair without a record
            "recorded": w if kept else np.zeros(n, bool),
            "medium": np.where(w, np.int8(2), np.int8(0)) if kept else np.zeros(n, np.int8),
        }
        for name, column in want.items():
            dtype = protocols._COLUMNS[name][0]
            assert getattr(log, name).tobytes() == np.asarray(column, dtype=dtype).tobytes(), name

    def test_float_selects_match_the_select_reference(self):
        erasure = run_macroscopic_erasure(ProtocolConfig(protocol=Protocol.MACROSCOPIC_ERASURE, n_pairs=40_000, seed=51))
        log = erasure.events
        want = np.where(log.erased == 1, log.t_signal_impact_s + erasure.config.erasure_delay_s, np.nan)
        assert log.erased_at_s.tobytes() == want.tobytes()
        cfg = ProtocolConfig(protocol=Protocol.PERISHABLE_MEDIA, observation_schedule=ObservationSchedule.AT_T0,
                             n_pairs=40_000, seed=52)
        log = run_perishable_media(cfg).events
        copied = log.erased == 0
        assert log.expires_at_s.tobytes() == np.where(copied, np.nan, log.t_signal_impact_s + cfg.ttl_s).tobytes()
        assert log.medium.tolist() == np.where(copied, 2, 3).tolist()

    @pytest.mark.parametrize("protocol", [Protocol.DELAYED_CHOICE, Protocol.QUANTUM_ERASER])
    def test_slit_counts_match_the_boolean_index_reference(self, protocol):
        run = run_protocol(ProtocolConfig(protocol=protocol, n_pairs=3 * _BLOCK_ROWS + 5, seed=53))
        log = run.events
        masks = {"pooled": np.ones(len(log), bool), "recorded": log.detected == 1, "unrecorded": log.detected == 0}
        masks.update({f"D{k}": log.detector == k for k in range(1, 5)})
        subsets = {"pooled": run.pooled, **run.subsets}
        for key, subset in subsets.items():
            slits = log.slit[masks[key]]
            assert subset.slit_counts == (np.count_nonzero(slits == 1), np.count_nonzero(slits == 2)), key
        assert run.pooled.slit_counts[0] > 0 and run.pooled.slit_counts[1] > 0

    @pytest.mark.parametrize("name", sorted(_MASKED_PATH_PEAKS))
    def test_peak_memory_stays_within_the_masked_paths(self, name):
        n = 200_000
        cfgs = {
            "double_slit": ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=n, seed=3),
            "quantum_eraser": ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=n, seed=3),
            "switch_d_i_empty": switch_d(SwitchStrategy.strategy_1(IntervalSet.empty()), OutcomeHypothesis.I,
                                         n_pairs=n, seed=3),
        }
        for model in (COLLAPSE, RENDER):
            assert _traced_peak_per_pair(replace(cfgs[name], model=model)) <= 1.05 * _MASKED_PATH_PEAKS[name]


class TestChunks:
    """Runs render in fixed chunks of rows; each chunk draws its rows of the
    run's variate streams by PCG64's ``advance``."""

    @pytest.mark.parametrize("n", [1, 2, _BLOCK_ROWS, _BLOCK_ROWS + 1, 10**5, 10**6, 2 * 10**6])
    def test_chunk_rows_are_whole_blocks(self, n):
        rows = protocols._chunk_rows(n)
        assert rows % _BLOCK_ROWS == 0 and 2 * _BLOCK_ROWS <= rows <= 2**17
        if n <= _BLOCK_ROWS:
            assert rows >= n  # one chunk
        if n >= 10**5:
            assert -(-n // rows) >= 4  # enough chunks for both workers of a two-CPU pool

    @pytest.mark.parametrize("n", [1, 7, _BLOCK_ROWS + 3, 5 * _BLOCK_ROWS + 1])
    def test_chunk_draws_equal_the_sequential_stream(self, n):
        """Every draw kind: ``random`` streams before and after a whole
        ``permutation``, each read in chunks, and the permutation itself."""
        seed = 2**63 + 12
        ref = np.random.default_rng(seed)
        before = [ref.random(n) for _ in range(2)]
        permutation = ref.permutation(n)
        after = [ref.random(n) for _ in range(2)]
        streams = protocols._Streams(seed, n)
        step = max(1, n // 3)

        def chunked(k: int) -> np.ndarray:
            return np.concatenate(
                [streams.generator(k, start).random(min(step, n - start)) for start in range(0, n, step)]
            )

        for k, want in enumerate(before):
            assert chunked(k).tobytes() == want.tobytes(), k
        assert streams.permutation(2).tolist() == permutation.tolist()
        for j, want in enumerate(after):
            assert chunked(2 + j).tobytes() == want.tobytes(), j

    def test_chunked_half_erasure_draws_the_sequential_permutation(self):
        n = 2 * protocols._chunk_rows(10**5) + 10
        cfg = ProtocolConfig(protocol=Protocol.MACROSCOPIC_ERASURE, n_pairs=n, seed=54,
                             pairing_mode=PairingMode.EXACT_HALF_SUBSET)
        log = run_protocol(cfg).events
        ref = np.random.default_rng(cfg.seed)
        slit = np.where(ref.random(n) < 0.5, 1, 2)
        destroyed = ref.permutation(n) < n // 2
        assert log.slit.tolist() == slit.tolist()
        assert log.erased.tolist() == destroyed.astype(int).tolist()

    @pytest.mark.parametrize(
        "cfg",
        [
            switch_d(SwitchStrategy.strategy_1(optimal_interval_set(OpticsConfig())), OutcomeHypothesis.I, n_pairs=50_000),
            ProtocolConfig(protocol=Protocol.PERISHABLE_MEDIA, observation_schedule=ObservationSchedule.AT_T0,
                           recording_rule=RecordingRule.PERMANENT_ONLY, n_pairs=50_000),
        ],
        ids=["switch_d_i", "perishable_b"],
    )
    def test_a_refused_run_draws_no_chunk(self, cfg, monkeypatch):
        drawn = []
        real = protocols._Streams.generator
        monkeypatch.setattr(protocols._Streams, "generator", lambda self, *a: drawn.append(a) or real(self, *a))
        assert isinstance(run_protocol(cfg), FeasibilityReport)
        assert drawn == []

    @pytest.mark.parametrize(
        "name", ["quantum_eraser-render", "perishable-a-collapse", "predictor-collapse", "switch-d-ii-collapse", "switch-d-iii-render"]
    )
    def test_a_chunked_llr_adds_the_chunk_sums_in_order(self, name):
        """Each subset's LLR is its chunks' ``np.sum`` of classifier terms,
        added in chunk order; the pooled screen's too. Recomputed here from
        the finished log, a chunk at a time."""
        n = 3 * protocols._chunk_rows(10**5) + 5
        run = run_protocol(replace(matrix()[name], n_pairs=n))
        log, optics = run.events, run.config.optics
        wave = {phase: PatternDistribution(PatternKind.WAVE, optics, phase) for phase in (0.0, protocols._D2_PHASE)}
        particle = PatternDistribution(PatternKind.PARTICLE, optics)
        # a perishable record was copied, or a predictor pair recorded, where no record is erased
        masks = {f"D{k}": log.detector == k for k in range(1, 5)}
        masks.update(recorded=log.erased == 0, perished=log.erased == 1, erased=log.erased == 1)
        # a switched-on pair is detected, so its record is kept
        masks.update(switch_on=log.erased == 0, switch_off=log.erased == 1)
        star = optimal_interval_set(optics)
        regions = {"recorded": star, "perished": star.complement(optics.window)}
        if run.config.strategy is not None:
            on = run.config.strategy.activation_region(optics)
            regions.update(switch_on=on, switch_off=on.complement(optics.window))
        step = protocols._chunk_rows(n)
        for key, subset in {"pooled": run.pooled, **run.subsets}.items():
            region = regions.get(key) if name.startswith(("perishable", "switch")) else None
            terms = llr_terms(wave[protocols._D2_PHASE if key == "D2" else 0.0], particle, region)
            llr = None
            for start in range(0, n, step):
                x = log.signal_x_m[start : start + step]
                if key != "pooled":
                    x = x[masks[key][start : start + step]]
                part = float(np.sum(terms(x))) if x.size else 0.0
                llr = part if llr is None else llr + part
            assert subset.log_likelihood_ratio == llr, key

    @pytest.mark.parametrize(
        "name, rules",
        [
            ("double_slit-recording-collapse", {"detected_at_s": (), "observation_time_s": ("dt",)}),
            ("double_slit-at_t0-render", {"detected_at_s": (), "observation_time_s": ()}),
            ("delayed_choice-render", {"t_detector_s": ("dt",), "observation_time_s": ("dt", "dt")}),
            ("quantum_eraser-collapse", {"t_detector_s": ("dt",), "observation_time_s": ("dt", "dt")}),
            ("quantum_eraser-at_t0-render", {"t_detector_s": ("dt",), "observation_time_s": ()}),
            ("detect_no_record-which_way_channels_off-render", {"observation_time_s": ("dt", "dt")}),
            ("detect_no_record-unplugged_detectors-collapse", {"detected_at_s": (), "observation_time_s": ("dt",)}),
            ("macroscopic_erasure-coin-render", {"detected_at_s": (), "observation_time_s": ("erasure", "dt")}),
            ("predictor-collapse", {"t_detector_s": ("dt",), "observation_time_s": ("dt", "dt")}),
            ("switch-a-slow-render", {"observation_time_s": ("dt", "dt")}),
            ("switch-d-ii-collapse", {"t_detector_s": ("dt",), "observation_time_s": ()}),
            ("switch-d-iv-render", {"observation_time_s": ()}),
            ("perishable-a-render", {"detected_at_s": (), "observation_time_s": ()}),
        ],
    )
    def test_time_columns_a_runner_derives_alike_hold_one_rule(self, name, rules):
        """Per runner, the time columns held as rules of the row index, with
        the offsets added to the creation times: the impact times are the
        creation times, and every other time column is an array or a fill.
        Over chunks that end in a partial one."""
        n = 3 * protocols._chunk_rows(10**5) + 5
        cfg = replace(matrix()[name], n_pairs=n)
        log = run_protocol(cfg).events
        offsets = {"dt": cfg.delta_t_s, "erasure": cfg.erasure_delay_s}
        step = PAIR_SPACING_FACTOR * cfg.delta_t_s
        want = {"t_created_s": (), "t_signal_impact_s": (), **rules}
        for column in _TIME_COLUMNS:
            held = log._cols[column]
            got = held if isinstance(held, protocols._Rule) else None
            rule = protocols._Rule(step, tuple(offsets[k] for k in want[column])) if column in want else None
            assert got == rule, column

    def test_a_chunked_eraser_log_holds_two_float_arrays(self):
        """Of a three-chunk eraser log's float64 columns, only the impacts and
        the masked detection times are arrays; the record flags share the
        detection flags' buffer."""
        n = 2 * protocols._chunk_rows(10**5) + 5
        log = run_quantum_eraser(ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=n, seed=4)).events
        arrays = {name: held for name, held in log._cols.items() if isinstance(held, np.ndarray)}
        assert {name for name, held in arrays.items() if held.dtype == np.float64} == {"signal_x_m", "detected_at_s"}
        # eight int8 buffers: slit, the three splitters, detector, erased, medium, and the detection and record flags
        assert sum(held.nbytes for held in {id(held): held for held in arrays.values()}.values()) == n * (2 * 8 + 8)
        assert log.recorded is log.detected
        assert not np.shares_memory(log.erased, log.detected)

    def test_a_chunk_writes_each_array_column_once(self):
        rows = protocols._Rows(protocols._Run(ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=4), Protocol.DOUBLE_SLIT), 0, 4)
        rows.erased = 1
        rows.erased = np.ones(4)  # a fill may become an array
        with pytest.raises(RuntimeError, match="once"):
            rows.erased = np.zeros(4)
        with pytest.raises(RuntimeError, match="once"):
            rows.erased = 0


class TestDispatch:
    def test_run_protocol_routes_by_enum(self):
        cfg = ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=100, seed=47)
        run = run_protocol(cfg)
        assert isinstance(run, RunResult)
        assert run.config is cfg

    def test_runners_refuse_foreign_configs(self):
        cfg = ProtocolConfig(protocol=Protocol.PREDICTOR, n_pairs=100, seed=48)
        with pytest.raises(ValidationError):
            run_double_slit(cfg)
