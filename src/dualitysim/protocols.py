"""Monte Carlo runners for the bench protocols.

Every runner draws whole per-pair variate arrays up front in a fixed,
documented order (row i belongs to pair i), so results are independent of
execution order and thread count: identical config and seed reproduce
identical event logs, digests, and reports. Pair i is created at
``t = i * 1.5 * delta_t_s`` (one pair in flight per interval), the signal
impact is at creation (transit treated as zero), and the idler resolves a
fixed ``delta_t_s`` later.

One pipeline renders every run: (1) record each pair's which-way fate in the
event log; (2) observation time: the impact under ``AT_T0``, else
``delta_t_s`` after the fate resolves; (3) availability query at that time
(at the impact under the impact-time horizon); (4) law per group: the
structureless law where which-way is available, else the interference law at
the pair's fringe phase; (5) ``ppf`` of the pair's ``u_x``; (6) assemble:
classify the subsets and the pooled screen, digest the log. Switch stage d
and perishable media fix the law from an interval rule instead (steps 3-4)
and record after sampling.

=====================  ==========================================
protocol               draw order
=====================  ==========================================
double_slit            u_slit, u_x
delayed_choice         u_slit, u_choice, u_x
quantum_eraser         u_slit, u_route, u_port, u_x
detect_no_record       u_slit[, u_route, u_port], u_x
macroscopic_erasure    u_slit, destruction draw, u_x
predictor              u_slit, u_record, u_x
switch_experiment      u_slit, u_component (stage d only), u_x
perishable_media       u_slit, u_component, u_x
=====================  ==========================================
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .models import (
    AvailabilityRecord,
    Medium,
    RenderingModel,
    RenderingPolicy,
    availability_query_time,
    available_mask,
)
from .numerics import submit
from .optics import (
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    ValidationError,
    fringe_aligned_edges,
    fringe_visibility,
)
from .stats import (
    FeasibilityReport,
    Verdict,
    classify_pattern,
    contradiction_margin,
    optimal_interval_set,
    tv_distance_empirical,
)

#: named pair-separation presets: effectively instantaneous, and leisurely
DELTA_T_FAST = 1e-8
DELTA_T_SLOW = 60.0
#: pair i is created at i * PAIR_SPACING_FACTOR * delta_t_s
PAIR_SPACING_FACTOR = 1.5


class Protocol(Enum):
    DOUBLE_SLIT = "double_slit"
    DELAYED_CHOICE = "delayed_choice"
    QUANTUM_ERASER = "quantum_eraser"
    DETECT_NO_RECORD = "detect_no_record"
    MACROSCOPIC_ERASURE = "macroscopic_erasure"
    PREDICTOR = "predictor"
    SWITCH_EXPERIMENT = "switch_experiment"
    PERISHABLE_MEDIA = "perishable_media"


class PairingMode(Enum):
    INDEPENDENT_COIN_FLIPS = "independent_coin_flips"
    EXACT_HALF_SUBSET = "exact_half_subset"


class ObservationSchedule(Enum):
    AT_T0 = "at_t0"
    AFTER_DELTA_T = "after_delta_t"


class SwitchStage(Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"


class OutcomeHypothesis(Enum):
    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"


class StrategyKind(Enum):
    ALWAYS_OFF = "always_off"
    ALWAYS_ON = "always_on"
    STRATEGY_1 = "strategy_1"
    CUSTOM = "custom"


class DetectNoRecordVariant(Enum):
    UNPLUGGED_DETECTORS = "unplugged_detectors"
    NO_COINCIDENCE_COUNTER = "no_coincidence_counter"
    WHICH_WAY_CHANNELS_OFF = "which_way_channels_off"


class RecordingRule(Enum):
    PERISHABLE_IS_OBJECTIVE = "perishable_is_objective"
    PERMANENT_ONLY = "permanent_only"


@dataclass(frozen=True)
class SwitchStrategy:
    """Per-pair switch decision computed from the observed impact coordinate.

    All kinds reduce to an activation region on the screen: the switch is on
    exactly when the impact lands inside it (decisions may in principle use
    the full observation history; every named kind here is stateless).
    """

    kind: StrategyKind
    intervals: IntervalSet | None = None
    table_edges: tuple[float, ...] | None = None
    table_activate: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind is StrategyKind.STRATEGY_1:
            if self.intervals is None:
                raise ValidationError("strategy_1 requires an interval set (possibly empty)")
        elif self.kind is StrategyKind.CUSTOM:
            if self.table_edges is None or self.table_activate is None:
                raise ValidationError("custom strategy requires table_edges and table_activate")
            if len(self.table_edges) != len(self.table_activate) + 1:
                raise ValidationError("custom strategy needs len(table_edges) == len(table_activate) + 1")
            if any(b >= c for b, c in zip(self.table_edges, self.table_edges[1:])):
                raise ValidationError("custom strategy table_edges must be strictly increasing")
        elif self.intervals is not None or self.table_edges is not None or self.table_activate is not None:
            raise ValidationError(f"strategy kind {self.kind.value} takes no parameters")

    @classmethod
    def always_off(cls) -> "SwitchStrategy":
        return cls(StrategyKind.ALWAYS_OFF)

    @classmethod
    def always_on(cls) -> "SwitchStrategy":
        return cls(StrategyKind.ALWAYS_ON)

    @classmethod
    def strategy_1(cls, intervals: IntervalSet) -> "SwitchStrategy":
        return cls(StrategyKind.STRATEGY_1, intervals=intervals)

    @classmethod
    def custom(cls, edges: Sequence[float], activate: Sequence[bool]) -> "SwitchStrategy":
        return cls(
            StrategyKind.CUSTOM,
            table_edges=tuple(float(e) for e in edges),
            table_activate=tuple(bool(b) for b in activate),
        )

    def activation_region(self, cfg: OpticsConfig) -> IntervalSet:
        if self.kind is StrategyKind.ALWAYS_OFF:
            return IntervalSet.empty()
        if self.kind is StrategyKind.ALWAYS_ON:
            return IntervalSet.full_window(cfg)
        if self.kind is StrategyKind.STRATEGY_1:
            return IntervalSet.from_pairs(self.intervals.intervals, window=cfg.window)
        pairs: list[tuple[float, float]] = []
        for lo, hi, active in zip(self.table_edges, self.table_edges[1:], self.table_activate):
            if not active:
                continue
            if pairs and pairs[-1][1] == lo:
                pairs[-1] = (pairs[-1][0], hi)
            else:
                pairs.append((lo, hi))
        return IntervalSet.from_pairs(pairs, window=cfg.window)


def _default_model() -> RenderingModel:
    return RenderingModel(RenderingPolicy.COLLAPSE_AT_DETECTION)


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one run needs; validated on construction."""

    protocol: Protocol
    optics: OpticsConfig = field(default_factory=OpticsConfig)
    model: RenderingModel = field(default_factory=_default_model)
    n_pairs: int = 100_000
    delta_t_s: float = DELTA_T_FAST
    coincidence_window_s: float = 1e-9
    observation_schedule: ObservationSchedule = ObservationSchedule.AFTER_DELTA_T
    seed: int = 0
    # double slit
    detectors_recording: bool = True
    # delayed choice
    choice_record_prob: float = 0.5
    # detect-no-record
    variant: DetectNoRecordVariant = DetectNoRecordVariant.UNPLUGGED_DETECTORS
    # macroscopic erasure
    destruction_prob: float = 0.5
    pairing_mode: PairingMode = PairingMode.INDEPENDENT_COIN_FLIPS
    erasure_delay_s: float = 60.0
    # switch experiment
    switch_stage: SwitchStage = SwitchStage.A
    strategy: SwitchStrategy | None = None
    outcome_hypothesis: OutcomeHypothesis | None = None
    noise_threshold: float = 0.9
    # perishable media
    ttl_s: float = 60.0
    recording_rule: RecordingRule = RecordingRule.PERISHABLE_IS_OBJECTIVE
    rule_intervals: IntervalSet | None = None

    def __post_init__(self) -> None:
        if isinstance(self.n_pairs, bool) or not isinstance(self.n_pairs, int) or self.n_pairs < 1:
            raise ValidationError(f"n_pairs must be a positive integer, got {self.n_pairs!r}")
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool) and 0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (math.isfinite(self.delta_t_s) and self.delta_t_s > 0):
            raise ValidationError(f"delta_t_s must be positive, got {self.delta_t_s!r}")
        if not (0.0 < self.coincidence_window_s < self.delta_t_s):
            raise ValidationError(
                "coincidence_window_s must satisfy 0 < window < delta_t_s "
                f"(one pair in flight per interval); got window={self.coincidence_window_s!r}, "
                f"delta_t_s={self.delta_t_s!r}"
            )
        if not (0.0 <= self.destruction_prob <= 1.0):
            raise ValidationError(f"destruction_prob must lie in [0, 1], got {self.destruction_prob!r}")
        if not (0.0 <= self.choice_record_prob <= 1.0):
            raise ValidationError(f"choice_record_prob must lie in [0, 1], got {self.choice_record_prob!r}")
        if not (math.isfinite(self.erasure_delay_s) and self.erasure_delay_s > 0):
            raise ValidationError(f"erasure_delay_s must be positive, got {self.erasure_delay_s!r}")
        if not self.ttl_s > 0:
            raise ValidationError(f"ttl_s must be positive (math.inf allowed), got {self.ttl_s!r}")
        if not (0.0 < self.noise_threshold <= 1.0):
            raise ValidationError(f"noise_threshold must lie in (0, 1], got {self.noise_threshold!r}")
        if (
            self.protocol is Protocol.MACROSCOPIC_ERASURE
            and self.pairing_mode is PairingMode.EXACT_HALF_SUBSET
            and self.n_pairs % 2
        ):
            raise ValidationError("pairing_mode=exact_half_subset requires an even n_pairs")
        if self.protocol is Protocol.SWITCH_EXPERIMENT:
            if self.switch_stage is SwitchStage.D:
                if self.strategy is None or self.outcome_hypothesis is None:
                    raise ValidationError("switch stage d requires both strategy and outcome_hypothesis")
                if self.observation_schedule is not ObservationSchedule.AT_T0:
                    raise ValidationError("switch stage d observes each impact live: observation_schedule must be at_t0")
            else:
                if self.strategy is not None or self.outcome_hypothesis is not None:
                    raise ValidationError("switch stages a-c take no strategy or outcome_hypothesis")
                if self.observation_schedule is not ObservationSchedule.AFTER_DELTA_T:
                    raise ValidationError("switch stages a-c observe after the idler resolves: observation_schedule must be after_delta_t")
        else:
            if self.strategy is not None or self.outcome_hypothesis is not None:
                raise ValidationError("strategy/outcome_hypothesis are only meaningful for the switch_experiment protocol")
        if self.protocol is Protocol.PREDICTOR and self.observation_schedule is not ObservationSchedule.AFTER_DELTA_T:
            raise ValidationError("predictor runs observe the pattern after the record resolves: observation_schedule must be after_delta_t")
        if self.protocol is Protocol.PERISHABLE_MEDIA and self.observation_schedule is not ObservationSchedule.AT_T0:
            raise ValidationError("perishable-media runs apply the recording rule live: observation_schedule must be at_t0")
        if self.rule_intervals is not None and self.protocol is not Protocol.PERISHABLE_MEDIA:
            raise ValidationError("rule_intervals is only meaningful for the perishable_media protocol")
        # the screen regions must lie in the window, as parse_manifest checks
        if self.rule_intervals is not None:
            IntervalSet.from_pairs(self.rule_intervals.intervals, window=self.optics.window)
        if self.strategy is not None:
            self.strategy.activation_region(self.optics)


# -- event log ------------------------------------------------------------------

_MEDIUM_CODES = {Medium.NONE: 0, Medium.VOLATILE: 1, Medium.PERSISTENT: 2, Medium.PERISHABLE: 3}
_MEDIUM_FROM_CODE = {v: k for k, v in _MEDIUM_CODES.items()}
_DETECTOR_NAMES = {0: None, 1: "D1", 2: "D2", 3: "D3", 4: "D4"}


@dataclass(frozen=True)
class PhotonPairEvent:
    """One pair's full story, materialized from the columnar log on demand."""

    pair_id: int
    t_created: float
    slit: int
    t_signal_impact: float
    signal_x: float
    idler_route: tuple[str, ...]
    detector: str | None
    t_detector: float | None
    erased: bool
    availability: AvailabilityRecord


@dataclass
class EventLog:
    """Columnar per-pair event log; one row per generated pair.

    The digest is a SHA-256 over the raw column bytes in the documented
    column order, so it is identical for identical runs regardless of how
    the work was scheduled.
    """

    pair_id: np.ndarray
    t_created_s: np.ndarray
    slit: np.ndarray
    t_signal_impact_s: np.ndarray
    signal_x_m: np.ndarray
    bs_a: np.ndarray
    bs_b: np.ndarray
    bs_c: np.ndarray
    detector: np.ndarray
    t_detector_s: np.ndarray
    erased: np.ndarray
    detected: np.ndarray
    recorded: np.ndarray
    medium: np.ndarray
    detected_at_s: np.ndarray
    erased_at_s: np.ndarray
    expires_at_s: np.ndarray
    observation_time_s: np.ndarray

    @classmethod
    def blank(cls, n: int) -> "EventLog":
        f8 = lambda fill: np.full(n, fill, dtype=np.float64)
        i8 = lambda fill: np.full(n, fill, dtype=np.int8)
        return cls(
            pair_id=np.arange(n, dtype=np.int64),
            t_created_s=f8(0.0),
            slit=i8(0),
            t_signal_impact_s=f8(0.0),
            signal_x_m=f8(np.nan),
            bs_a=i8(-1),
            bs_b=i8(-1),
            bs_c=i8(-1),
            detector=i8(0),
            t_detector_s=f8(np.nan),
            erased=i8(0),
            detected=i8(0),
            recorded=i8(0),
            medium=i8(0),
            detected_at_s=f8(np.nan),
            erased_at_s=f8(np.nan),
            expires_at_s=f8(np.nan),
            observation_time_s=f8(np.nan),
        )

    def __len__(self) -> int:
        return int(self.pair_id.size)

    def digest(self) -> str:
        h = hashlib.sha256(b"dualitysim-event-log-v1\x00")
        h.update(",".join(EVENT_LOG_COLUMNS).encode())
        for name in EVENT_LOG_COLUMNS:
            col = np.ascontiguousarray(getattr(self, name))
            h.update(name.encode())
            h.update(col.dtype.str.encode())
            h.update(col)
        return h.hexdigest()

    def to_csv(self, path) -> None:
        """Write the documented CSV form: header row, one row per pair, empty
        cells for not-applicable timestamps, -1 route codes for unused splitters.

        Rows are formatted and written in blocks of ``_CSV_BLOCK_ROWS``, so
        memory stays bounded by one block whatever the log's length. The
        output bytes are pinned by ``tests/test_golden.py``."""
        columns = [getattr(self, name) for name in EVENT_LOG_COLUMNS]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(EVENT_LOG_COLUMNS) + "\n")
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                fh.write(_csv_block([col[start : start + _CSV_BLOCK_ROWS] for col in columns]))

    def iter_events(self) -> Iterator[PhotonPairEvent]:
        route_names = {0: "transmit", 1: "reflect"}
        for i in range(len(self)):
            route = []
            if self.bs_a[i] >= 0:
                route.append(f"bs_a:{route_names[int(self.bs_a[i])]}")
            if self.bs_b[i] >= 0:
                route.append(f"bs_b:{route_names[int(self.bs_b[i])]}")
            if self.bs_c[i] >= 0:
                route.append(f"bs_c:port{int(self.bs_c[i]) + 1}")
            medium = _MEDIUM_FROM_CODE[int(self.medium[i])]
            detected_at = None if np.isnan(self.detected_at_s[i]) else float(self.detected_at_s[i])
            expires = self.expires_at_s[i]
            ttl = None
            if medium is Medium.PERISHABLE and detected_at is not None and not np.isnan(expires):
                ttl = float(expires) - detected_at
            elif medium is Medium.PERISHABLE:
                ttl = math.inf
            rec = AvailabilityRecord(
                detected=bool(self.detected[i]),
                recorded=bool(self.recorded[i]),
                medium=medium,
                detected_at=detected_at,
                erased_at=None if np.isnan(self.erased_at_s[i]) else float(self.erased_at_s[i]),
                ttl_s=ttl,
                observation_time=float(self.observation_time_s[i]),
            )
            yield PhotonPairEvent(
                pair_id=int(self.pair_id[i]),
                t_created=float(self.t_created_s[i]),
                slit=int(self.slit[i]),
                t_signal_impact=float(self.t_signal_impact_s[i]),
                signal_x=float(self.signal_x_m[i]),
                idler_route=tuple(route),
                detector=_DETECTOR_NAMES[int(self.detector[i])],
                t_detector=None if np.isnan(self.t_detector_s[i]) else float(self.t_detector_s[i]),
                erased=bool(self.erased[i]),
                availability=rec,
            )


#: column order of the digest and the CSV form
EVENT_LOG_COLUMNS = tuple(f.name for f in fields(EventLog))

#: rows per block of ``EventLog.to_csv``: the cell strings of one block are
#: all that is held in memory at once
_CSV_BLOCK_ROWS = 16384


def _csv_block(columns: list[np.ndarray]) -> str:
    """CSV rows of one block of column slices, each row newline-terminated.

    Float64 cells print as ``%.17g`` (round-trips float64), NaN as an empty
    cell; other columns print as integers. A slice whose dtype and bytes
    equal an earlier slice's reuses that slice's text (the impact time is the
    creation time in every runner). Bytes, not float ``==``, decide equality,
    so ``-0.0`` never borrows the text of ``0.0``.
    """
    cells: list[list[str]] = []
    seen: dict[tuple[str, bytes], list[str]] = {}
    for col in columns:
        key = (col.dtype.str, col.tobytes())
        text = seen.get(key)
        if text is None:
            if col.dtype != np.float64:
                text = list(map(str, col.tolist()))
            else:
                nan = np.isnan(col)
                if nan.all():
                    text = [""] * col.size
                elif nan.any():
                    filled = np.full(col.size, "", dtype=object)
                    filled[~nan] = list(map("%.17g".__mod__, col[~nan].tolist()))
                    text = filled.tolist()
                else:
                    text = list(map("%.17g".__mod__, col.tolist()))
            seen[key] = text
        cells.append(text)
    return "\n".join(map(",".join, zip(*cells))) + "\n"


# -- coincidence matching --------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceRecord:
    signal_index: int
    detector_index: int
    signal_time: float
    detector_time: float
    lag_s: float


@dataclass(frozen=True)
class CoincidenceSummary:
    matched: int
    unmatched_signals: int
    unmatched_detectors: int
    ambiguities: int

    def to_json_dict(self) -> dict:
        return {
            "matched": self.matched,
            "unmatched_signals": self.unmatched_signals,
            "unmatched_detectors": self.unmatched_detectors,
            "ambiguities": self.ambiguities,
        }


def coincidence_match(
    signal_times,
    detector_times,
    window_s: float,
    expected_lag_s: float = 0.0,
) -> tuple[list[CoincidenceRecord], CoincidenceSummary]:
    """Greedy nearest-in-time matching of detector events to signal events.

    A detector event at t matches the nearest unmatched signal event s with
    |t - s - expected_lag_s| strictly below the window (so a zero window
    matches nothing). A detector event seeing two or more unmatched in-window
    candidates counts one ambiguity; it still takes the nearest.
    """
    if window_s < 0:
        raise ValidationError(f"coincidence window must be nonnegative, got {window_s!r}")
    s = np.asarray(signal_times, dtype=float).ravel()
    d = np.asarray(detector_times, dtype=float).ravel()
    # the loop runs on Python floats and ints: numpy scalars cost a
    # conversion on every comparison
    order = np.argsort(s, kind="stable")
    s_sorted = s[order].tolist()
    s_order = order.tolist()
    d_times = d.tolist()
    window, lag = float(window_s), float(expected_lag_s)
    n_s = len(s_sorted)
    used = [False] * n_s
    records: list[CoincidenceRecord] = []
    ambiguities = 0
    for det_idx in np.argsort(d, kind="stable").tolist():
        t_det = d_times[det_idx]
        target = t_det - lag
        pos = bisect_left(s_sorted, target)
        best = -1
        best_gap = math.inf
        candidates = 0
        j = pos - 1
        while j >= 0 and target - s_sorted[j] < window:
            if not used[j]:
                candidates += 1
                gap = target - s_sorted[j]
                if gap < best_gap:
                    best, best_gap = j, gap
            j -= 1
        j = pos
        while j < n_s and s_sorted[j] - target < window:
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
            t_sig = s_sorted[best]
            records.append(
                CoincidenceRecord(
                    signal_index=s_order[best],
                    detector_index=det_idx,
                    signal_time=t_sig,
                    detector_time=t_det,
                    lag_s=t_det - t_sig,
                )
            )
    summary = CoincidenceSummary(
        matched=len(records),
        unmatched_signals=int(s.size - len(records)),
        unmatched_detectors=int(d.size - len(records)),
        ambiguities=ambiguities,
    )
    return records, summary


def _match_structured(
    t_signal: np.ndarray,
    t_detector: np.ndarray,
    window_s: float,
    expected_lag_s: float,
) -> CoincidenceSummary:
    """Coincidence summary for runner-generated, pair-aligned event streams.

    Uses the O(n) aligned fast path when the stream provably has at most one
    in-window candidate per detector event, else falls back to the greedy
    matcher.
    """
    has_det = ~np.isnan(t_detector)
    d = t_detector[has_det]
    if d.size == 0:
        return CoincidenceSummary(0, int(t_signal.size), 0, 0)
    lags = d - t_signal[has_det] - expected_lag_s
    spacing_ok = t_signal.size < 2 or float(np.min(np.diff(t_signal))) >= 2.0 * window_s
    if spacing_ok and bool(np.all(np.abs(lags) < window_s)):
        return CoincidenceSummary(int(d.size), int(t_signal.size - d.size), 0, 0)
    _, summary = coincidence_match(t_signal, d, window_s, expected_lag_s)
    return summary


# -- results ----------------------------------------------------------------------


@dataclass
class SubsetResult:
    key: str
    count: int
    verdict: Verdict
    log_likelihood_ratio: float
    visibility: float | None
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    slit_counts: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "verdict": self.verdict.value,
            "log_likelihood_ratio": self.log_likelihood_ratio,
            "visibility": self.visibility,
            "slit_counts": list(self.slit_counts),
            "histogram": {
                "edges": [float(e) for e in self.histogram_edges],
                "counts": [int(c) for c in self.histogram_counts],
            },
        }


@dataclass
class PredictorStats:
    """Per-bin record-posterior calibration and controller accuracy."""

    bin_edges: np.ndarray
    bin_counts: np.ndarray
    empirical_posterior: np.ndarray  # NaN where a bin is empty
    curve_at_centers: np.ndarray
    exact_bin_posterior: np.ndarray
    max_abs_deviation_curve: float
    max_abs_deviation_exact: float
    dark_fringe_min_empirical: float
    accuracy_empirical: float
    accuracy_expected: float

    def to_json_dict(self) -> dict:
        def clean(arr):
            return [None if (isinstance(v, float) and math.isnan(v)) else float(v) for v in arr.tolist()]

        return {
            "bin_edges": [float(e) for e in self.bin_edges],
            "bin_counts": [int(c) for c in self.bin_counts],
            "empirical_posterior": clean(self.empirical_posterior),
            "curve_at_centers": [float(v) for v in self.curve_at_centers],
            "exact_bin_posterior": [float(v) for v in self.exact_bin_posterior],
            "max_abs_deviation_curve": self.max_abs_deviation_curve,
            "max_abs_deviation_exact": self.max_abs_deviation_exact,
            "dark_fringe_min_empirical": self.dark_fringe_min_empirical,
            "accuracy_empirical": self.accuracy_empirical,
            "accuracy_expected": self.accuracy_expected,
        }


@dataclass
class RunResult:
    protocol: Protocol
    seed: int
    n_pairs: int
    config: "ProtocolConfig"
    subsets: dict[str, SubsetResult]
    pooled: SubsetResult | None
    coincidences: CoincidenceSummary | None
    predictor: PredictorStats | None
    feasibility: FeasibilityReport | None
    empirical_tv: float | None
    markers: tuple[str, ...]
    warnings: tuple[str, ...]
    event_digest: str
    events: EventLog | None

    def to_json_dict(self) -> dict:
        return {
            "protocol": self.protocol.value,
            "seed": self.seed,
            "n_pairs": self.n_pairs,
            "config": config_to_json_dict(self.config),
            "subsets": {k: v.to_json_dict() for k, v in sorted(self.subsets.items())},
            "pooled": self.pooled.to_json_dict() if self.pooled else None,
            "coincidences": self.coincidences.to_json_dict() if self.coincidences else None,
            "predictor": self.predictor.to_json_dict() if self.predictor else None,
            "feasibility": self.feasibility.to_json_dict() if self.feasibility else None,
            "empirical_tv": self.empirical_tv,
            "markers": list(self.markers),
            "warnings": list(self.warnings),
            "event_digest": self.event_digest,
        }


def config_to_json_dict(cfg: ProtocolConfig) -> dict:
    """Stable JSON echo of a run configuration, in the manifest's form: enums
    as their values, tuples and interval sets as lists, nested configs as
    objects (``canonical_json`` writes an infinite ``ttl_s`` as "inf")."""
    return _echo(cfg)


def _echo(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, IntervalSet)):
        return [_echo(item) for item in value]
    if is_dataclass(value):
        # a strategy echoes only the parameters its kind takes
        omit_none = isinstance(value, SwitchStrategy)
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: _echo(item) for name, item in items if not (omit_none and item is None)}
    return value


# -- shared runner plumbing --------------------------------------------------------


def _truncated_quantile(dist: PatternDistribution, region: IntervalSet, u: np.ndarray) -> np.ndarray:
    """Sample the law conditioned on the region via stretched quantiles."""
    if not region:
        raise ValidationError("cannot sample a law truncated to an empty region")
    arr = np.asarray(region.intervals, dtype=float)
    c_lo = np.asarray(dist.cdf(arr[:, 0]), dtype=float)
    c_hi = np.asarray(dist.cdf(arr[:, 1]), dtype=float)
    masses = c_hi - c_lo
    total = float(masses.sum())
    if not total > 0:
        raise ValidationError("truncation region carries zero probability mass")
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    s = u * total
    j = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, masses.size - 1)
    u_full = np.clip(c_lo[j] + (s - cum[j]), 0.0, 1.0)
    x = np.asarray(dist.ppf(u_full), dtype=float)
    # keep samples inside their half-open interval despite the 1e-12 inversion slack
    hi_in = np.nextafter(arr[j, 1], arr[j, 0])
    return np.clip(x, arr[j, 0], hi_in)


def _subset_result(
    key: str,
    x: np.ndarray,
    mask: np.ndarray,
    slit: np.ndarray,
    cfg: ProtocolConfig,
    edges: np.ndarray,
    phase_offset_rad: float = 0.0,
    region: IntervalSet | None = None,
) -> SubsetResult:
    samples = x[mask]
    counts, _ = np.histogram(samples, bins=edges)
    if samples.size:
        restrict = None
        if region is not None and region.measure < cfg.optics.window_width_m:
            restrict = region
        cls = classify_pattern(samples, cfg.optics, phase_offset_rad=phase_offset_rad, restrict_to=restrict)
        verdict, llr = cls.verdict, cls.log_likelihood_ratio
        visibility = fringe_visibility(counts, edges, cfg.optics)
    else:
        verdict, llr, visibility = Verdict.INDETERMINATE, 0.0, None
    sl = slit[mask]
    return SubsetResult(
        key=key,
        count=int(samples.size),
        verdict=verdict,
        log_likelihood_ratio=float(llr),
        visibility=visibility,
        histogram_counts=counts,
        histogram_edges=edges,
        slit_counts=(int(np.count_nonzero(sl == 1)), int(np.count_nonzero(sl == 2))),
    )


def _assemble(
    cfg: ProtocolConfig,
    log: EventLog,
    x: np.ndarray,
    partition: list[tuple[str, np.ndarray, float, IntervalSet | None]],
    coincidences: CoincidenceSummary | None = None,
    predictor: PredictorStats | None = None,
    feasibility: FeasibilityReport | None = None,
    empirical_tv: float | None = None,
    markers: tuple[str, ...] = (),
    warnings_: tuple[str, ...] = (),
) -> RunResult:
    """Classify each subset of the partition and the pooled screen (none for an
    empty partition), then digest the log into a RunResult. Nothing writes
    the log from here on, so it is hashed on the pool while the subsets classify."""
    digest = submit(log.digest)
    edges = fringe_aligned_edges(cfg.optics)
    subsets = {
        key: _subset_result(key, x, mask, log.slit, cfg, edges, phase, region)
        for key, mask, phase, region in partition
    }
    pooled = _subset_result("pooled", x, np.ones(len(log), dtype=bool), log.slit, cfg, edges) if partition else None
    if coincidences is not None and coincidences.matched:
        mismatch = (coincidences.unmatched_detectors + coincidences.ambiguities) / max(
            1, coincidences.matched + coincidences.unmatched_detectors
        )
        if mismatch > 0.01:
            warnings_ = warnings_ + (
                f"coincidence mismatch rate {mismatch:.3f} exceeds 1%: timing structure violated",
            )
    return RunResult(
        protocol=cfg.protocol,
        seed=cfg.seed,
        n_pairs=cfg.n_pairs,
        config=cfg,
        subsets=subsets,
        pooled=pooled,
        coincidences=coincidences,
        predictor=predictor,
        feasibility=feasibility,
        empirical_tv=empirical_tv,
        markers=markers,
        warnings=warnings_,
        event_digest=digest.result(),
        events=log,
    )


def _draw_slit(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.where(rng.random(n) < 0.5, 1, 2).astype(np.int8)


def _base_log(cfg: ProtocolConfig, slit: np.ndarray) -> EventLog:
    n = cfg.n_pairs
    log = EventLog.blank(n)
    log.t_created_s[:] = np.arange(n, dtype=np.float64) * (PAIR_SPACING_FACTOR * cfg.delta_t_s)
    log.slit[:] = slit
    log.t_signal_impact_s[:] = log.t_created_s
    return log


def _record(log: EventLog, mask: np.ndarray, at: np.ndarray) -> None:
    """Pairs in ``mask`` are detected at ``at`` and written to a persistent
    which-way record; the rest leave no which-way trace (erased)."""
    log.detected[:] = mask
    log.recorded[:] = mask
    log.medium[:] = np.where(mask, _MEDIUM_CODES[Medium.PERSISTENT], _MEDIUM_CODES[Medium.NONE])
    log.detected_at_s[:] = np.where(mask, at, np.nan)
    log.erased[:] = ~mask


def _render(
    cfg: ProtocolConfig,
    log: EventLog,
    u_x: np.ndarray,
    resolved_at: np.ndarray,
    phases: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Pipeline steps 2-5 (see the module docstring) for pairs whose fate
    resolves at ``resolved_at``; fills ``observation_time_s`` and
    ``signal_x_m`` and returns the impacts."""
    if cfg.observation_schedule is ObservationSchedule.AT_T0:
        log.observation_time_s[:] = log.t_signal_impact_s
    else:
        np.add(resolved_at, cfg.delta_t_s, out=log.observation_time_s)
    del resolved_at  # a temporary from the caller must not live through sampling
    at = availability_query_time(cfg.model, log.t_signal_impact_s, log.observation_time_s)
    avail = available_mask(
        cfg.model.policy,
        log.detected,
        log.recorded,
        log.medium == _MEDIUM_CODES[Medium.PERSISTENT],
        log.erased_at_s,
        log.expires_at_s,
        at,
    )
    wave = ~avail
    groups = [(avail, PatternKind.PARTICLE, 0.0)]
    if np.ndim(phases) == 0:
        groups.append((wave, PatternKind.WAVE, float(phases)))
    else:
        groups += [(wave & (phases == p), PatternKind.WAVE, float(p)) for p in np.unique(phases[wave])]
    x = log.signal_x_m
    for mask, kind, phase in groups:
        if mask.any():
            x[mask] = PatternDistribution(kind, cfg.optics, phase).ppf(u_x[mask])
    return x


def _delta_normalized_impacts(
    cfg: ProtocolConfig,
    region: IntervalSet,
    u_component: np.ndarray,
    u_x: np.ndarray,
    refusal_marker: str,
) -> tuple[np.ndarray | None, FeasibilityReport, tuple[str, ...]]:
    """(impacts, feasibility, markers) when the structureless law holds exactly
    on ``region``, a rule that implies total probability delta(region).

    Below the noise threshold the impacts are None and the report carries
    ``refusal_marker``. Otherwise each pair draws one of the two laws truncated
    to the region (structureless) or its complement (interference), weighted
    by their masses, and a deviation from unit mass that noise hides is flagged.
    """
    optics = cfg.optics
    feasibility = contradiction_margin(region, optics)
    markers: tuple[str, ...] = ()
    if not feasibility.feasible_under_outcome_i:
        if feasibility.delta_value < cfg.noise_threshold:
            return None, replace(feasibility, marker=refusal_marker), ()
        markers = ("statistically_indistinguishable_from_consistency",)
    particle = PatternDistribution(PatternKind.PARTICLE, optics)
    wave = PatternDistribution(PatternKind.WAVE, optics)
    complement = region.complement(optics.window)
    p_in = particle.mass(region)
    w_out = wave.mass(complement)
    weight = p_in / (p_in + w_out) if (p_in + w_out) > 0 else 0.0
    from_particle = u_component < weight
    x = np.empty(cfg.n_pairs, dtype=np.float64)
    if from_particle.any():
        x[from_particle] = _truncated_quantile(particle, region, u_x[from_particle])
    if (~from_particle).any():
        x[~from_particle] = _truncated_quantile(wave, complement, u_x[~from_particle])
    return x, feasibility, markers


def _generator(cfg: ProtocolConfig, expected: Protocol) -> np.random.Generator:
    """The run's seeded generator, for a config meant for this runner."""
    if cfg.protocol is not expected:
        raise ValidationError(f"config.protocol is {cfg.protocol.value}, expected {expected.value}")
    return np.random.default_rng(cfg.seed)


def _subset_tv(x: np.ndarray, mask_a: np.ndarray, mask_b: np.ndarray, cfg: ProtocolConfig) -> float | None:
    if mask_a.any() and mask_b.any():
        return tv_distance_empirical(x[mask_a], x[mask_b], cfg.optics)
    return None


# -- protocol runners ---------------------------------------------------------------


def run_double_slit(cfg: ProtocolConfig) -> RunResult:
    """Plain two-slit run; slit detectors either record persistently or are absent.

    Draw order: u_slit, u_x.
    """
    rng = _generator(cfg, Protocol.DOUBLE_SLIT)
    n = cfg.n_pairs
    log = _base_log(cfg, _draw_slit(rng, n))
    u_x = rng.random(n)
    _record(log, np.full(n, cfg.detectors_recording), log.t_signal_impact_s)
    x = _render(cfg, log, u_x, log.t_signal_impact_s)
    return _assemble(cfg, log, x, [("screen", np.ones(n, dtype=bool), 0.0, None)])


def run_delayed_choice(cfg: ProtocolConfig) -> RunResult:
    """Record/erase decided per pair while the signal is in flight.

    Draw order: u_slit, u_choice, u_x.
    """
    rng = _generator(cfg, Protocol.DELAYED_CHOICE)
    n = cfg.n_pairs
    log = _base_log(cfg, _draw_slit(rng, n))
    chose_record = rng.random(n) < cfg.choice_record_prob
    u_x = rng.random(n)
    log.t_detector_s[:] = log.t_created_s + cfg.delta_t_s
    _record(log, chose_record, log.t_detector_s)
    x = _render(cfg, log, u_x, log.t_detector_s)
    return _assemble(
        cfg,
        log,
        x,
        [
            ("recorded", chose_record, 0.0, None),
            ("unrecorded", ~chose_record, 0.0, None),
        ],
        empirical_tv=_subset_tv(x, chose_record, ~chose_record, cfg),
    )


def _eraser_bench(cfg: ProtocolConfig, rng: np.random.Generator) -> tuple[EventLog, np.ndarray, np.ndarray, np.ndarray]:
    """Eraser-bench routing: (log, to_which_way, u_x, fringe phases, pi/2 on D2).

    Reflected idlers head to the slit-tagged detectors (slit 1 -> D3, slit 2
    -> D4), transmitted idlers merge and exit one of two ports (0 -> D1, 1 ->
    D2), all registering ``delta_t_s`` after creation. Draw order: u_slit,
    u_route, u_port, u_x.
    """
    n = cfg.n_pairs
    slit = _draw_slit(rng, n)
    to_which_way = rng.random(n) < 0.5
    port = (rng.random(n) < 0.5).astype(np.int8)
    u_x = rng.random(n)
    log = _base_log(cfg, slit)
    log.t_detector_s[:] = log.t_created_s + cfg.delta_t_s
    s1 = slit == 1
    log.bs_a[s1] = to_which_way[s1]
    log.bs_b[~s1] = to_which_way[~s1]
    log.bs_c[~to_which_way] = port[~to_which_way]
    log.detector[:] = np.where(to_which_way, np.where(s1, 3, 4), port + 1)
    return log, to_which_way, u_x, np.where(log.detector == 2, 0.5 * np.pi, 0.0)


def run_quantum_eraser(cfg: ProtocolConfig) -> RunResult:
    """Four-detector eraser bench with coincidence sorting.

    Reflected idlers land on the slit-tagged detectors and write a persistent
    which-way record; transmitted idlers merge, lose the tag, and exit to the
    two eraser ports, whose coincidence subsets carry complementary fringe
    phases (0 and pi/2) so the pooled screen marginal stays flat.
    Draw order: u_slit, u_route, u_port, u_x.
    """
    log, to_which_way, u_x, phases = _eraser_bench(cfg, _generator(cfg, Protocol.QUANTUM_ERASER))
    _record(log, to_which_way, log.t_detector_s)
    x = _render(cfg, log, u_x, log.t_detector_s, phases)
    summary = _match_structured(log.t_signal_impact_s, log.t_detector_s, cfg.coincidence_window_s, cfg.delta_t_s)
    detector = log.detector
    partition = [
        ("D1", detector == 1, 0.0, None),
        ("D2", detector == 2, 0.5 * np.pi, None),
        ("D3", detector == 3, 0.0, None),
        ("D4", detector == 4, 0.0, None),
    ]
    return _assemble(cfg, log, x, partition, coincidences=summary)


def run_detect_no_record(cfg: ProtocolConfig) -> RunResult:
    """Which-way detectors fire but nothing objective survives.

    Three variants: bare slit detectors with their outputs unplugged; the full
    eraser bench with the coincidence counter removed (no sorting possible);
    or the eraser bench with the slit-tagged channels turned off. In each
    case the two policies part ways: detection alone selects the
    structureless law under COLLAPSE_AT_DETECTION, while absence of any live
    objective record keeps the interference law under RENDER_AT_AVAILABILITY.
    Draw order: u_slit[, u_route, u_port], u_x.
    """
    rng = _generator(cfg, Protocol.DETECT_NO_RECORD)
    n = cfg.n_pairs
    screen = [("screen", np.ones(n, dtype=bool), 0.0, None)]
    if cfg.variant is DetectNoRecordVariant.UNPLUGGED_DETECTORS:
        log = _base_log(cfg, _draw_slit(rng, n))
        u_x = rng.random(n)
        log.detected[:] = 1
        log.detected_at_s[:] = log.t_signal_impact_s
        log.erased[:] = 1
        x = _render(cfg, log, u_x, log.t_signal_impact_s)
        return _assemble(cfg, log, x, screen)
    log, to_which_way, u_x, phases = _eraser_bench(cfg, rng)
    log.detected[:] = to_which_way
    log.detected_at_s[:] = np.where(to_which_way, log.t_detector_s, np.nan)
    log.erased[:] = ~to_which_way
    if cfg.variant is DetectNoRecordVariant.NO_COINCIDENCE_COUNTER:
        # detectors all fire but nothing can be sorted or kept
        if cfg.model.policy is RenderingPolicy.RENDER_AT_AVAILABILITY:
            phases = 0.0  # nothing sortable survives: the plain interference law
        x = _render(cfg, log, u_x, log.t_detector_s, phases)
        return _assemble(cfg, log, x, screen)
    # WHICH_WAY_CHANNELS_OFF: slit-tagged channels dead, those idlers register
    # nowhere; the pair still resolves delta_t_s after creation
    x = _render(cfg, log, u_x, log.t_detector_s, phases)
    log.detector[to_which_way] = 0
    log.t_detector_s[to_which_way] = np.nan
    detector = log.detector
    partition = [
        ("D1", detector == 1, 0.0, None),
        ("D2", detector == 2, 0.5 * np.pi, None),
        ("unsorted", detector == 0, 0.0, None),
    ]
    summary = _match_structured(log.t_signal_impact_s, log.t_detector_s, cfg.coincidence_window_s, cfg.delta_t_s)
    return _assemble(cfg, log, x, partition, coincidences=summary)


def run_macroscopic_erasure(cfg: ProtocolConfig) -> RunResult:
    """Persistent which-way records, half destroyed at a macroscopic delay.

    Destruction is an independent coin per pair (probability
    ``destruction_prob``) or an exact uniformly chosen half when
    ``pairing_mode`` asks for it. Draw order: u_slit, destruction draw, u_x.
    """
    rng = _generator(cfg, Protocol.MACROSCOPIC_ERASURE)
    n = cfg.n_pairs
    log = _base_log(cfg, _draw_slit(rng, n))
    if cfg.pairing_mode is PairingMode.EXACT_HALF_SUBSET:
        destroyed = rng.permutation(n) < n // 2
    else:
        destroyed = rng.random(n) < cfg.destruction_prob
    u_x = rng.random(n)
    _record(log, np.ones(n, dtype=bool), log.t_signal_impact_s)
    log.erased[:] = destroyed
    log.erased_at_s[:] = np.where(destroyed, log.t_signal_impact_s + cfg.erasure_delay_s, np.nan)
    x = _render(cfg, log, u_x, log.t_signal_impact_s + cfg.erasure_delay_s)
    return _assemble(
        cfg,
        log,
        x,
        [
            ("destroyed", destroyed, 0.0, None),
            ("surviving", ~destroyed, 0.0, None),
        ],
        empirical_tv=_subset_tv(x, ~destroyed, destroyed, cfg),
    )


def run_predictor(cfg: ProtocolConfig) -> RunResult:
    """An in-simulation controller predicts the record bit from each impact.

    Half the pairs carry a persistent which-way record (R=1, structureless
    law), half are erased (R=0, interference law). The controller reads each
    impact coordinate as it lands — a read, not an observation — and predicts
    R=1 when the flat-pattern posterior exceeds one half. Draw order: u_slit,
    u_record, u_x.
    """
    rng = _generator(cfg, Protocol.PREDICTOR)
    n = cfg.n_pairs
    log = _base_log(cfg, _draw_slit(rng, n))
    recorded = rng.random(n) < 0.5
    u_x = rng.random(n)
    log.t_detector_s[:] = log.t_created_s + cfg.delta_t_s
    _record(log, recorded, log.t_detector_s)
    x = _render(cfg, log, u_x, log.t_detector_s)
    return _assemble(
        cfg,
        log,
        x,
        [
            ("recorded", recorded, 0.0, None),
            ("erased", ~recorded, 0.0, None),
        ],
        predictor=_predictor_stats(cfg, x, recorded),
        empirical_tv=_subset_tv(x, recorded, ~recorded, cfg),
    )


def _predictor_stats(cfg: ProtocolConfig, x: np.ndarray, recorded: np.ndarray) -> PredictorStats:
    # imported at call time, so a wrapper on ``stats.tv_distance`` (perfbench tracing) sees these calls
    from .stats import approx_posterior, tv_distance

    optics = cfg.optics
    edges = fringe_aligned_edges(optics)
    centers = 0.5 * (edges[:-1] + edges[1:])
    total, _ = np.histogram(x, bins=edges)
    hits, _ = np.histogram(x[recorded], bins=edges)
    with np.errstate(invalid="ignore", divide="ignore"):
        empirical = np.where(total > 0, hits / np.maximum(total, 1), np.nan)
    curve = np.asarray(approx_posterior(centers, optics), dtype=float)
    wave = PatternDistribution(PatternKind.WAVE, optics)
    particle = PatternDistribution(PatternKind.PARTICLE, optics)
    p_mass = np.asarray(particle.cdf(edges[1:]), dtype=float) - np.asarray(particle.cdf(edges[:-1]), dtype=float)
    w_mass = np.asarray(wave.cdf(edges[1:]), dtype=float) - np.asarray(wave.cdf(edges[:-1]), dtype=float)
    exact_bin = p_mass / (p_mass + w_mass)
    filled = total > 0
    dev_curve = float(np.max(np.abs(empirical[filled] - curve[filled]))) if filled.any() else math.nan
    dev_exact = float(np.max(np.abs(empirical[filled] - exact_bin[filled]))) if filled.any() else math.nan
    a = optics.fringe_scale_m
    dark = np.abs(np.cos(np.pi * centers / a)) < 0.05
    dark_filled = dark & filled
    dark_min = float(np.min(empirical[dark_filled])) if dark_filled.any() else math.nan
    prediction = np.asarray(approx_posterior(x, optics), dtype=float) > 0.5
    accuracy = float(np.mean(prediction == recorded))
    expected = 0.5 * (1.0 + tv_distance(optics))
    return PredictorStats(
        bin_edges=edges,
        bin_counts=total,
        empirical_posterior=empirical,
        curve_at_centers=curve,
        exact_bin_posterior=exact_bin,
        max_abs_deviation_curve=dev_curve,
        max_abs_deviation_exact=dev_exact,
        dark_fringe_min_empirical=dark_min,
        accuracy_empirical=accuracy,
        accuracy_expected=expected,
    )


def run_switch_experiment(cfg: ProtocolConfig) -> RunResult | FeasibilityReport:
    """Staged bench where a switch decides, per pair, whether which-way is kept.

    Stages a-c never make which-way data available (splitters transparent, or
    the switch stays off), so every impact draws the interference law no
    matter how large the idler delay is; the delay enters timestamps only.
    Stage d observes every impact live at T=0 and needs an outcome hypothesis:

    * ``ii`` — every impact draws the structureless law regardless of the
      strategy (rendering follows availability at T=0);
    * ``iii`` — every impact draws the interference law even though which-way
      data remains recordable (flagged);
    * ``iv`` — no sampling law at all; the run returns a discontinuity marker;
    * ``i`` — the law follows the eventual switch position. The strategy's
      activation region I then implies total probability delta(I); the run
      refuses (returning the feasibility report) when delta falls below the
      noise threshold, and otherwise samples the delta-normalized law,
      flagging any statistically invisible deviation from unit mass.

    Draw order: u_slit, u_component (stage d only), u_x.
    """
    rng = _generator(cfg, Protocol.SWITCH_EXPERIMENT)
    n = cfg.n_pairs
    slit = _draw_slit(rng, n)

    if cfg.switch_stage is not SwitchStage.D:
        u_x = rng.random(n)
        log = _base_log(cfg, slit)
        log.erased[:] = 1
        x = _render(cfg, log, u_x, log.t_created_s + cfg.delta_t_s)
        return _assemble(cfg, log, x, [("screen", np.ones(n, dtype=bool), 0.0, None)])

    optics = cfg.optics
    region = cfg.strategy.activation_region(optics)
    hypothesis = cfg.outcome_hypothesis
    feasibility: FeasibilityReport | None = None
    u_component = rng.random(n)
    u_x = rng.random(n)
    # the event log is built after sampling so its columns do not add to the sampler's peak memory
    if hypothesis is OutcomeHypothesis.IV:
        log = _base_log(cfg, slit)
        log.observation_time_s[:] = log.t_signal_impact_s
        return _assemble(cfg, log, log.signal_x_m, [], markers=("discontinuity",))
    if hypothesis is OutcomeHypothesis.I:
        x, feasibility, markers = _delta_normalized_impacts(cfg, region, u_component, u_x, "outcome_i_infeasible")
        if x is None:
            return feasibility
    elif hypothesis is OutcomeHypothesis.II:
        markers = ("rendered_on_availability_at_t0",)
        x = np.asarray(PatternDistribution(PatternKind.PARTICLE, optics).ppf(u_x), dtype=np.float64)
    else:  # OutcomeHypothesis.III
        markers = ("interference_with_recordable_which_way",)
        x = np.asarray(PatternDistribution(PatternKind.WAVE, optics).ppf(u_x), dtype=np.float64)
    switch_on = region.contains(x)

    log = _base_log(cfg, slit)
    log.t_detector_s[:] = log.t_created_s + cfg.delta_t_s
    _record(log, switch_on, log.t_detector_s)
    log.observation_time_s[:] = log.t_signal_impact_s
    log.signal_x_m[:] = x
    complement = region.complement(optics.window)
    partition = [
        ("switch_on", switch_on, 0.0, region if region else None),
        ("switch_off", ~switch_on, 0.0, complement if complement else None),
    ]
    return _assemble(cfg, log, x, partition, feasibility=feasibility, markers=markers)


def run_perishable_media(cfg: ProtocolConfig) -> RunResult | FeasibilityReport:
    """Which-way lands on decaying media; impacts in a chosen region get copied
    to permanent storage before the decay, the rest are allowed to perish.

    Under the default semantics an unexpired perishable record is objective,
    so at the live observation every impact draws the structureless law and
    both the copied and the perishing subsets classify as such (branch a).
    Under ``PERMANENT_ONLY`` semantics only the permanent copy counts; the
    copy-iff-in-region rule then implies total probability delta(region), and
    the run refuses with an intent-adjustment marker when that is below the
    noise threshold (branch b). Draw order: u_slit, u_component, u_x.
    """
    rng = _generator(cfg, Protocol.PERISHABLE_MEDIA)
    optics = cfg.optics
    region = cfg.rule_intervals if cfg.rule_intervals is not None else optimal_interval_set(optics)
    region = IntervalSet.from_pairs(region.intervals, window=optics.window)
    n = cfg.n_pairs
    slit = _draw_slit(rng, n)
    u_component = rng.random(n)
    u_x = rng.random(n)

    feasibility: FeasibilityReport | None = None
    if cfg.recording_rule is RecordingRule.PERMANENT_ONLY:
        x, feasibility, markers = _delta_normalized_impacts(cfg, region, u_component, u_x, "intent_adjustment_required")
        if x is None:
            return feasibility
        markers = ("branch_b",) + markers
    else:
        markers = ("branch_a",)
        x = np.asarray(PatternDistribution(PatternKind.PARTICLE, optics).ppf(u_x), dtype=np.float64)

    copied = region.contains(x)
    log = _base_log(cfg, slit)
    _record(log, np.ones(n, dtype=bool), log.t_signal_impact_s)
    log.medium[~copied] = _MEDIUM_CODES[Medium.PERISHABLE]
    log.expires_at_s[:] = np.where(copied, np.nan, log.t_signal_impact_s + cfg.ttl_s)
    log.erased[:] = ~copied
    log.observation_time_s[:] = log.t_signal_impact_s
    log.signal_x_m[:] = x
    complement = region.complement(optics.window)
    partition = [
        ("recorded", copied, 0.0, region if region else None),
        ("perished", ~copied, 0.0, complement if complement else None),
    ]
    return _assemble(cfg, log, x, partition, feasibility=feasibility, markers=markers)


_RUNNERS = {
    Protocol.DOUBLE_SLIT: run_double_slit,
    Protocol.DELAYED_CHOICE: run_delayed_choice,
    Protocol.QUANTUM_ERASER: run_quantum_eraser,
    Protocol.DETECT_NO_RECORD: run_detect_no_record,
    Protocol.MACROSCOPIC_ERASURE: run_macroscopic_erasure,
    Protocol.PREDICTOR: run_predictor,
    Protocol.SWITCH_EXPERIMENT: run_switch_experiment,
    Protocol.PERISHABLE_MEDIA: run_perishable_media,
}


def run_protocol(cfg: ProtocolConfig) -> RunResult | FeasibilityReport:
    """Dispatch a validated config to its runner."""
    return _RUNNERS[cfg.protocol](cfg)
