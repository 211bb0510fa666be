"""Monte Carlo runners for the bench protocols.

Every runner draws its per-pair variates as ``n``-long streams in a fixed,
documented order (row i of each belongs to pair i). A run renders in fixed
chunks of rows, one task per chunk on the shared pool; stream k starts at
output ``k n`` of ``PCG64(seed)``, so a chunk draws its own rows of it with
the bits of the sequential draws. Results are independent of execution order
and thread count: identical config and seed reproduce identical event logs,
digests, and reports. Pair i is created at
``t = i * 1.5 * delta_t_s`` (one pair in flight per interval), the signal
impact is at creation (transit treated as zero), and the idler resolves a
fixed ``delta_t_s`` later.

One pipeline renders every run; a runner supplies only its own draws,
which-way routing and subset names. (1) record each pair's which-way fate in
the event log; (2) observation time: the impact under ``AT_T0``, else
``delta_t_s`` after the fate resolves; (3) availability query at that time
(at the impact under the impact-time horizon); (4) law per group: the
structureless law where which-way is available, else the interference law at
the pair's fringe phase; (5) ``ppf`` of the pair's ``u_x``, the run's last
draw; (6) tally: histogram and classify the subsets and the pooled screen,
and hash the log's rows. The run then merges its chunks and digests the log.
Switch stage d and perishable media share one sampling path instead: an
interval rule fixes the law (steps 3-4) and the which-way fate is routed
after sampling. Stage d hypothesis iv samples nothing and draws only
``u_slit``.

=====================  ==========================================
protocol               draw order
=====================  ==========================================
double_slit            u_slit, u_x
delayed_choice         u_slit, u_choice, u_x
quantum_eraser         u_slit, u_route, u_port, u_x
detect_no_record       u_slit[, u_route, u_port], u_x
macroscopic_erasure    u_slit, destruction draw, u_x
predictor              u_slit, u_record, u_x
switch_experiment      u_slit[, u_component (stage d)], u_x
                       u_slit (stage d, hypothesis iv)
perishable_media       u_slit, u_component, u_x
=====================  ==========================================
"""

from __future__ import annotations

import hashlib
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache, partial, reduce
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .models import (
    Medium,
    OBJECTIVE_MEDIA,
    RenderingModel,
    RenderingPolicy,
    availability_query_time,
    available_mask,
)
from .numerics import map_blocks
from .optics import (
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    ValidationError,
    fringe_aligned_edges,
    fringe_visibility,
)
# classify_pattern and tv_distance_empirical are not called here (chunks sum
# llr_terms and merge histograms); the benchmark tracer patches protocols' names
from .stats import (  # noqa: F401
    FeasibilityReport,
    Verdict,
    classify_pattern,
    contradiction_margin,
    llr_terms,
    optimal_interval_set,
    tv_distance_empirical,
    tv_of_counts,
    verdict_of,
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
            if not all(map(math.isfinite, self.table_edges)):
                raise ValidationError("custom strategy table_edges must be finite")
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
        if self.kind is StrategyKind.STRATEGY_1:
            return IntervalSet.from_pairs(self.intervals.intervals, window=cfg.window)
        if self.kind is StrategyKind.CUSTOM:
            edges, activate = self.table_edges, self.table_activate
        else:  # always_off and always_on: a table of one cell, the window
            edges, activate = cfg.window, (self.kind is StrategyKind.ALWAYS_ON,)
        # a run of active cells is one interval, between the edges where activity changes
        active = np.concatenate(([False], activate, [False]))
        edges = np.asarray(edges)[np.flatnonzero(active[1:] != active[:-1])]
        return IntervalSet.from_pairs(edges.reshape(-1, 2), window=cfg.window)


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

    @staticmethod
    def check_seed(seed) -> None:
        """Raises ValidationError unless ``seed`` is an integer that PCG64 takes."""
        if not (isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64):
            raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")

    def __post_init__(self) -> None:
        if isinstance(self.n_pairs, bool) or not isinstance(self.n_pairs, int) or self.n_pairs < 1:
            raise ValidationError(f"n_pairs must be a positive integer, got {self.n_pairs!r}")
        self.check_seed(self.seed)
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
        # the latest time a run forms: the last pair's creation, its fate
        # (the idler, or the erasure) and the observation delta_t_s after it
        created = (self.n_pairs - 1) * (PAIR_SPACING_FACTOR * self.delta_t_s)
        erased = self.protocol is Protocol.MACROSCOPIC_ERASURE
        if not math.isfinite(created + (self.erasure_delay_s if erased else self.delta_t_s) + self.delta_t_s):
            raise ValidationError(
                "the run's timestamps overflow: lower n_pairs, delta_t_s"
                + (" or erasure_delay_s" if erased else "")
            )
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


@dataclass(frozen=True)
class _Rule:
    """A column held as a rule of the row index, as ``pair_id`` (``i * 1``)
    and a run's timestamps are: row i holds ``i * step``, then each offset
    added in turn, in ``dtype``. Equal rules have equal dtypes and bits."""

    step: float = field(compare=False)
    offsets: tuple[float, ...] = field(default=(), compare=False)
    dtype: type = np.float64
    bits: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", np.array((self.step, *self.offsets), dtype=self.dtype).tobytes())

    def plus(self, offset: float) -> "_Rule":
        return replace(self, offsets=(*self.offsets, offset))

    def rows(self, start: int, stop: int) -> np.ndarray:
        col = np.arange(start, stop, dtype=self.dtype)
        col *= self.dtype(self.step)
        for offset in self.offsets:
            col += self.dtype(offset)
        return col


#: the log's columns in digest and CSV order, each with its dtype and the fill
#: or rule of a blank log
_COLUMNS: dict[str, tuple[type, float | _Rule]] = {
    "pair_id": (np.int64, _Rule(1, dtype=np.int64)),
    "t_created_s": (np.float64, 0.0),
    "slit": (np.int8, 0),
    "t_signal_impact_s": (np.float64, 0.0),
    "signal_x_m": (np.float64, np.nan),
    "bs_a": (np.int8, -1),
    "bs_b": (np.int8, -1),
    "bs_c": (np.int8, -1),
    "detector": (np.int8, 0),
    "t_detector_s": (np.float64, np.nan),
    "erased": (np.int8, 0),
    "detected": (np.int8, 0),
    "recorded": (np.int8, 0),
    "medium": (np.int8, 0),
    "detected_at_s": (np.float64, np.nan),
    "erased_at_s": (np.float64, np.nan),
    "expires_at_s": (np.float64, np.nan),
    "observation_time_s": (np.float64, np.nan),
}

#: column order of the digest and the CSV form
EVENT_LOG_COLUMNS = tuple(_COLUMNS)

#: rows per block of the digest and of ``EventLog.to_csv``: the cells of one
#: block are all the CSV writer holds in memory at once
_BLOCK_ROWS = 16384


def _hold(dtype: type, value):
    """A fill (one value) or a rule as a ``dtype`` column holds it; None for an array."""
    if isinstance(value, _Rule):
        return replace(value, dtype=dtype)
    return np.asarray(value, dtype=dtype)[()] if np.ndim(value) == 0 else None


#: each column as a blank log holds it
_BLANK = {name: _hold(dtype, fill) for name, (dtype, fill) in _COLUMNS.items()}


def _rows_of(held, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of a column held as an array (a view), a rule or a fill."""
    if isinstance(held, np.ndarray):
        return held[start:stop]
    if isinstance(held, _Rule):
        return held.rows(start, stop)
    return np.full(stop - start, held, dtype=held.dtype)


def _hash_list(block_hashes: Iterable[bytes]) -> bytes:
    """A column's digest record: the sha256 over its blocks' sha256s."""
    h = hashlib.sha256()
    for block_hash in block_hashes:
        h.update(block_hash)
    return h.digest()


def _block_hashes(col: np.ndarray) -> list[bytes]:
    """The sha256s of a contiguous array's ``_BLOCK_ROWS``-row blocks."""
    return [hashlib.sha256(col[start : start + _BLOCK_ROWS]).digest() for start in range(0, col.size, _BLOCK_ROWS)]


@lru_cache(maxsize=64)
def _fill_record(dtype: str, value: bytes, n: int) -> bytes:
    """The record of ``n`` rows holding the one value whose bytes as
    ``dtype`` are ``value``: a full block is hashed once for all."""
    full, rest = divmod(n, _BLOCK_ROWS)
    block = np.full(min(n, _BLOCK_ROWS), np.frombuffer(value, dtype=dtype)[0], dtype=dtype)
    hashes = [hashlib.sha256(block).digest()] * full
    if rest:
        hashes.append(hashlib.sha256(block[:rest]).digest())
    return _hash_list(hashes)


@lru_cache(maxsize=64)
def _rule_record(rule: _Rule, n: int) -> bytes:
    """The record of ``n`` rows of ``rule``, hashed a block at a time, once
    per rule and ``n`` in a process."""
    return _hash_list(
        hashlib.sha256(rule.rows(start, min(start + _BLOCK_ROWS, n))).digest() for start in range(0, n, _BLOCK_ROWS)
    )


class EventLog:
    """Columnar per-pair event log; one row per generated pair, built once
    and read-only afterwards.

    ``columns`` maps a column name to an array of the log's length, to one
    fill value for every row, or to a ``_Rule``. A column not given holds
    its blank fill, ``pair_id``'s being the row index, so ``EventLog(n)`` is
    the blank log. Every given array, and any array it is a view of, becomes
    read-only (for a slice ``buf[:n]`` of an array that owns its memory, all
    of ``buf``), and its digest record is hashed at once. ``records`` may
    give a column's ``_BLOCK_ROWS``-row blocks' hashes in row order, as a
    run's chunks hash them; the record then joins those hashes. Columns
    given the same array object share it and its record. Reading a fill or
    a rule expands it to a read-only array on first use, one per equal rule;
    the column stays unexpanded and keeps its record. ``digest`` joins the
    records (``dualitysim-event-log-v2``, laid out in the README); a column
    gets the same record held as a fill, a rule or an array.
    """

    __slots__ = ("_n", "_cols", "_records", "_expanded")

    def __init__(self, n: int, columns: dict | None = None, records: dict[str, Sequence[bytes]] | None = None) -> None:
        self._n = n = int(n)
        # _cols: column name -> its array, or its fill or rule unexpanded; _records:
        # column name of an array -> its record; _expanded: fill name, or rule -> its array
        self._cols = dict(_BLANK)
        self._records, self._expanded = {}, {}
        given = {}  # (id of a given array, dtype) -> (its column, its record)
        for name, value in (columns or {}).items():
            if name not in _COLUMNS:
                raise ValueError(f"an event log has no column {name!r}")
            dtype = _COLUMNS[name][0]
            held = _hold(dtype, value)
            if held is not None:
                self._cols[name] = held
                continue
            key = (id(value), dtype)
            if key not in given:
                col = np.ascontiguousarray(value, dtype=dtype)
                if col.shape != (n,):
                    raise ValueError(f"column {name!r} needs shape ({n},), got {col.shape}")
                base = col
                while isinstance(base, np.ndarray):
                    base.flags.writeable = False
                    base = base.base
                block_hashes = (records or {}).get(name)
                given[key] = col, _hash_list(_block_hashes(col) if block_hashes is None else block_hashes)
            self._cols[name], self._records[name] = given[key]

    def __reduce__(self) -> tuple:
        # a copy is built from the columns as held, and hashes its arrays anew
        return type(self), (self._n, self._cols)

    def __getattr__(self, name: str) -> np.ndarray:
        # reached for every column: none is a slot
        if name not in _COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        held = self._cols[name]
        if isinstance(held, np.ndarray):
            return held
        key = held if isinstance(held, _Rule) else name
        if key not in self._expanded:
            col = _rows_of(held, 0, self._n)
            col.flags.writeable = False
            # two threads expanding at once both return the array stored first
            self._expanded.setdefault(key, col)
        return self._expanded[key]

    def _record(self, name: str) -> bytes:
        """Column ``name``'s digest record."""
        held = self._cols[name]
        if isinstance(held, _Rule):
            return _rule_record(held, self._n)
        if not isinstance(held, np.ndarray):
            return _fill_record(held.dtype.str, held.tobytes(), self._n)
        return self._records[name]

    def __len__(self) -> int:
        return self._n

    def digest(self) -> str:
        """The sha256 over a header, the row count and each column's name,
        dtype and record, in ``EVENT_LOG_COLUMNS`` order."""
        h = hashlib.sha256(b"dualitysim-event-log-v2\x00")
        h.update(self._n.to_bytes(8, "little"))
        for name, (dtype, _) in _COLUMNS.items():
            h.update(b"%s\x00%s\x00" % (name.encode(), np.dtype(dtype).str.encode()))
            h.update(self._record(name))
        return h.hexdigest()

    def to_csv(self, path) -> None:
        """Write the documented CSV form: header row, one row per pair, empty
        cells for not-applicable timestamps, -1 route codes for unused splitters.
        The output bytes are pinned by ``tests/test_golden.py``."""
        with open(path, "wb") as fh:
            fh.write(",".join(EVENT_LOG_COLUMNS).encode() + b"\n")
            _write_csv_rows(fh, [self._cols[name] for name in EVENT_LOG_COLUMNS], self._n)


def _write_csv_rows(fh, columns: Sequence, n: int) -> None:
    """Write ``n`` CSV rows to ``fh`` from columns as an ``EventLog`` holds
    them (arrays, fills, rules): float64 cells as ``"%.17g" % x``
    (round-trips float64), NaN as an empty cell, integers as ``"%d"``. Rows
    go out in blocks of ``_BLOCK_ROWS`` through one row buffer, so memory
    stays bounded whatever ``n``. The buffer is tiled from one row: each
    fill's text, a NUL slot per array or rule column (24 bytes for float64,
    4 for int8, the longest value's width for int64), commas and a newline.
    A block formats the array columns and the block's rows of each rule into
    their slots, copies the slot of an earlier column holding the same array
    or an equal rule (the impact time is the creation time in every runner),
    and one boolean index drops the NULs.
    """
    # formatted: (slot, array or rule, the slot it is formatted in); first: id of an array, or rule -> its first slot
    row, formatted, first = bytearray(), [], {}
    for held in columns:
        varies = isinstance(held, (np.ndarray, _Rule))
        if not varies:
            text = b"" if held != held else b"%.17g" % held if held.dtype == np.float64 else b"%d" % held
        elif held.dtype == np.int64:
            # a rule's first and last rows are its extremes
            ends = held if isinstance(held, np.ndarray) else np.r_[held.rows(0, min(n, 1)), held.rows(max(n - 1, 0), n)]
            text = b"\0" * max(len(str(ends.min(initial=0))), len(str(ends.max(initial=0))))
        else:
            text = b"\0" * (24 if held.dtype == np.float64 else 4)
        slot = slice(len(row), len(row) + len(text))
        row += text + b","
        if varies:
            formatted.append((slot, held, first.setdefault(held if isinstance(held, _Rule) else id(held), slot)))
    row[-1] = ord("\n")
    buf = np.tile(np.frombuffer(row, dtype=np.uint8), (min(n, _BLOCK_ROWS), 1))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows = buf[: stop - start]
        for slot, held, source in formatted:
            col = _rows_of(held, start, stop)
            if source is not slot:
                rows[:, slot] = rows[:, source]
            elif col.dtype == np.float64:
                _float_cells(col, rows[:, slot])
            elif col.dtype == np.int8:
                rows[:, slot].view(np.uint32)[:, 0] = np.take(_INT8_CELLS, col.view(np.uint8))
            else:  # int64: the digits right-aligned, leading zeros blanked, a minus sign first
                cells = rows[:, slot]
                cells[:] = _digits20(np.abs(col).view(np.uint64))[:, 20 - cells.shape[1] :]  # -2**63 reads as 2**63
                cells[:, :-1][np.logical_and.accumulate(cells[:, :-1] == ord("0"), axis=1)] = 0
                cells[col < 0, 0] = ord("-")
        fh.write(rows[rows != 0])


#: the text of every int8, NUL-padded to four bytes held as one uint32,
#: indexed by the value's byte
_INT8_CELLS = np.array(
    [b"%d" % v for v in np.arange(256, dtype=np.uint8).view(np.int8).tolist()], dtype="S4"
).view(np.uint32)
#: "%04d" of 0..9999, the four ASCII digits held as one uint32
_DIGIT_QUADS = (
    (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
)


def _digits20(values: np.ndarray) -> np.ndarray:
    """The 20 decimal digits of every nonnegative integer in ``values``,
    leading zeros included: (n, 20) ASCII bytes, four digits per
    ``_DIGIT_QUADS`` lookup."""
    quads = np.empty((values.size, 5), dtype=np.intp)
    rest = values
    for j, place in enumerate((10**16, 10**12, 10**8, 10**4)):
        quads[:, j] = rest // place
        rest = rest % place
    quads[:, 4] = rest
    return np.take(_DIGIT_QUADS, quads).view(np.uint8)


#: 10**0, ..., 10**22: the powers of ten a float64 holds exactly
_POW10 = np.array([float(10**k) for k in range(23)])
#: decimal exponents of the exact path: 10**(16 - e) is one of ``_POW10``
_EXACT_EXPONENTS = (-6, 16)


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``hi + lo == a`` exactly, each half of 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**k`` exactly, as ``hi + lo`` with ``hi`` the rounded product
    (Dekker's product, exact in round-to-nearest without an FMA)."""
    hi = a * _POW10[k]
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


#: in a layout, mantissa digit j stands as ``_MANTISSA[j]``; a lane's layout
#: source is its 17 mantissa digits followed by ``_LAYOUT_CONSTANTS``
_MANTISSA = "ABCDEFGHIJKLMNOPQ"
_LAYOUT_CONSTANTS = "\0.e+-0123456789"


def _g_layout(exponent: int, significant: int) -> str:
    """``"%.17g"`` of a positive value whose 17-digit mantissa has decimal
    exponent ``exponent`` and ``significant`` digits left once trailing zeros
    go, mantissa digits written as in ``_MANTISSA``. As C99 gives ``%g``:
    fixed notation when -4 <= exponent < 17, else ``d.ddde+XX``; trailing
    zeros and a bare point dropped."""
    d = _MANTISSA
    if not -4 <= exponent < 17:
        return d[0] + ("." + d[1:significant] if significant > 1 else "") + "e%+03d" % exponent
    if exponent < 0:
        return "0." + "0" * (-exponent - 1) + d[:significant]
    whole, fraction = d[: exponent + 1], d[exponent + 1 : significant]
    return whole + ("." + fraction if fraction else "")


def _layout_table() -> np.ndarray:
    """Row ``(exponent + 6) * 17 + significant - 1``: that ``_g_layout`` as
    indices into a lane's layout source, NUL-padded to 23 bytes."""
    source = np.frombuffer((_MANTISSA + _LAYOUT_CONSTANTS).encode(), dtype=np.uint8)
    index_of = np.zeros(128, dtype=np.intp)
    index_of[source] = np.arange(source.size)
    lo_e, hi_e = _EXACT_EXPONENTS
    text = "".join(_g_layout(e, s).ljust(23, "\0") for e in range(lo_e, hi_e + 1) for s in range(1, 18))
    return index_of[np.frombuffer(text.encode(), dtype=np.uint8)].reshape(-1, 23)


_LAYOUTS = _layout_table()


def _float_cells(col: np.ndarray, cells: np.ndarray) -> None:
    """The bytes of ``"%.17g" % x`` for every x in ``col``, NaN as an empty
    cell, written into the (n, 24) bytes ``cells``, NUL-padded.

    Finite x whose decimal exponent e lies in -6..16 take an exact path: the
    product |x| * 10**(16 - e) is formed exactly as ``hi + lo``, which also
    settles e where ``log10`` misjudged it, and rounded half-to-even to the
    17-digit mantissa. Zeros and infinities are laid out directly; every
    other value (subnormal, below 1e-6, from 1e17) is formatted per cell.
    """
    a = np.abs(col)
    cells[:, 0] = np.where(np.signbit(col) & (a == a), ord("-"), 0)
    cells[:, 1:] = 0
    cells[a == 0.0, 1] = ord("0")
    cells[a == np.inf, 1:4] = np.frombuffer(b"inf", dtype=np.uint8)
    lanes = np.flatnonzero((a >= 1e-6) & (a < 1e17))
    lo_e, hi_e = _EXACT_EXPONENTS
    a_lanes = a[lanes]
    e = np.clip(np.floor(np.log10(a_lanes)).astype(np.int64), lo_e, hi_e)
    hi, lo = _times_pow10(a_lanes, 16 - e)
    # e is right when 10**16 <= hi + lo < 10**17; test the exact sum, not its rounding
    e_true = e - ((hi < 1e16) | ((hi == 1e16) & (lo < 0.0))) + ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0)))
    moved = np.flatnonzero(e_true != e)
    if moved.size:
        inside = (e_true >= lo_e) & (e_true <= hi_e)
        redo = moved[inside[moved]]
        e[redo] = e_true[redo]
        hi[redo], lo[redo] = _times_pow10(a_lanes[redo], 16 - e[redo])
        lanes, e, hi, lo = lanes[inside], e[inside], hi[inside], lo[inside]
    # hi >= 10**16 is an even integer, so rounding lo half-to-even rounds
    # hi + lo so. It never carries to 10**17: no float in [1e-6, 1e17) lies
    # within 5e-18 (relative) below a power of ten
    mantissa = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    m = lanes.size
    source = np.empty((m, 17 + len(_LAYOUT_CONSTANTS)), dtype=np.uint8)
    source[:, :17] = _digits20(mantissa)[:, 3:]
    source[:, 17:] = np.frombuffer(_LAYOUT_CONSTANTS.encode(), dtype=np.uint8)
    significant = 17 - np.argmax(source[:, 16::-1] != ord("0"), axis=1)
    layout = np.take(_LAYOUTS, (e - lo_e) * 17 + significant - 1, axis=0)
    layout += np.arange(0, source.size, source.shape[1])[:, None]
    cells[lanes, 1:] = np.take(source, layout)
    rest = (a > 0.0) & (a < np.inf)
    rest[lanes] = False
    rest = np.flatnonzero(rest)
    text = [b"%.17g" % x for x in col[rest].tolist()]
    cells[rest] = np.array(text, dtype="S24").view(np.uint8).reshape(rest.size, 24)


# -- coincidence matching --------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceSummary:
    matched: int
    unmatched_signals: int
    unmatched_detectors: int
    ambiguities: int


def coincidence_match(
    signal_times,
    detector_times,
    window_s: float,
    expected_lag_s: float = 0.0,
) -> CoincidenceSummary:
    """Greedy nearest-in-time matching of detector events to signal events.

    A detector event at t matches the nearest unmatched signal event s with
    |t - s - expected_lag_s| strictly below the window (so a zero window
    matches nothing). A detector event seeing two or more unmatched in-window
    candidates counts one ambiguity; it still takes the nearest.
    """
    if not window_s >= 0:  # NaN fails it
        raise ValidationError(f"coincidence window must be nonnegative, got {window_s!r}")
    s = np.asarray(signal_times, dtype=float).ravel()
    d = np.asarray(detector_times, dtype=float).ravel()
    # the loop runs on Python floats and ints: numpy scalars cost a
    # conversion on every comparison
    s_sorted = np.sort(s).tolist()
    window, lag = float(window_s), float(expected_lag_s)
    n_s = len(s_sorted)
    used = [False] * n_s
    matched = ambiguities = 0
    for t_det in np.sort(d).tolist():
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
            matched += 1
    return CoincidenceSummary(matched, s.size - matched, d.size - matched, ambiguities)


def _match_structured(
    t_signal,
    t_detector,
    window_s: float,
    expected_lag_s: float,
    n: int | None = None,
) -> CoincidenceSummary:
    """The summary :func:`coincidence_match` gives for a runner's event
    streams: row i holds pair i's signal time and its detector time, NaN for
    an idler that registers nowhere; ``n`` rows (``t_signal``'s length by
    default) of columns as a log holds them, expanded whole only for the
    greedy loop.

    When the signal times rise and no detector event's window holds the
    signal of the row before or after its own, each window holds at most its
    own row's signal, which no other window holds. Every detector event whose
    window holds its own signal then matches it, none is ambiguous, and the
    summary needs no greedy loop. The windows are tested with the loop's own
    float comparisons for the side each neighbour lies on (an own signal in
    the window on either side is ``|s - target| < window``), a block of rows
    at a time so that no temporary has the streams' length. Any other stream
    runs the greedy loop.
    """
    n = t_signal.size if n is None else n
    matched = n_d = 0
    for start in range(0, n, _BLOCK_ROWS):
        # the block's rows and the next block's first row
        stop = min(start + _BLOCK_ROWS + 1, n)
        s, d = _rows_of(t_signal, start, stop), _rows_of(t_detector, start, stop)
        target, silent = d - expected_lag_s, np.isnan(d)
        # the signals rise, s[i + 1] lies outside row i's window and s[i]
        # outside row i + 1's
        clear = (s[1:] >= s[:-1]) & ((s[1:] - target[:-1] >= window_s) | silent[:-1])
        clear &= (target[1:] - s[:-1] >= window_s) | silent[1:]
        if not clear.all():
            d = _rows_of(t_detector, 0, n)
            return coincidence_match(_rows_of(t_signal, 0, n), np.compress(~np.isnan(d), d), window_s, expected_lag_s)
        matched += int(np.count_nonzero(np.abs(s[:_BLOCK_ROWS] - target[:_BLOCK_ROWS]) < window_s))
        n_d += int(np.count_nonzero(~silent[:_BLOCK_ROWS]))
    return CoincidenceSummary(matched, n - matched, n_d - matched, 0)


# -- results ----------------------------------------------------------------------


@dataclass
class SubsetResult:
    """A screen's impacts; ``histogram`` counts them in the run's ``bin_edges``."""

    count: int
    verdict: Verdict
    log_likelihood_ratio: float
    visibility: float | None
    histogram: np.ndarray
    slit_counts: tuple[int, int]


@dataclass
class PredictorStats:
    """Per-bin record-posterior calibration and controller accuracy, on the
    run's ``bin_edges``; the pooled screen's histogram counts each bin's
    impacts."""

    empirical_posterior: np.ndarray  # NaN where a bin is empty
    curve_at_centers: np.ndarray
    exact_bin_posterior: np.ndarray
    max_abs_deviation_curve: float
    max_abs_deviation_exact: float
    dark_fringe_min_empirical: float
    accuracy_empirical: float
    accuracy_expected: float


@dataclass
class RunResult:
    """A completed run. Each fact is held once: the protocol, seed and pair
    count in ``config``, and the bin edges of every histogram in
    ``bin_edges`` (``fringe_aligned_edges(config.optics)``, or None for a
    run without screens)."""

    config: "ProtocolConfig"
    bin_edges: np.ndarray | None
    subsets: dict[str, SubsetResult]
    pooled: SubsetResult | None
    coincidences: CoincidenceSummary | None
    predictor: PredictorStats | None
    feasibility: FeasibilityReport | None
    empirical_tv: float | None
    markers: tuple[str, ...]
    warnings: tuple[str, ...]
    event_digest: str
    events: EventLog | None = field(metadata={"report": False})


# -- shared runner plumbing --------------------------------------------------------

#: fringe phase of the eraser's D2 port; every other subset and port carries 0
_D2_PHASE = 0.5 * np.pi
#: medium codes of OBJECTIVE_MEDIA, whose live records make which-way available
_OBJECTIVE_CODES = [_MEDIUM_CODES[medium] for medium in OBJECTIVE_MEDIA]

# The per-pair masks (slit, route, record, availability, subset) are coin
# flips, on which numpy takes boolean-mask indexing and ``np.where`` branch by
# branch: several times slower than ``np.compress`` for a gather, integer
# indices from ``np.flatnonzero`` for a scatter, and arithmetic for an int8
# select, which give the same values. A mask spans one chunk's rows.


def _nan_except(out: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
    """``out[:] = np.where(mask, values, np.nan)`` for float64 ``out`` and
    ``values`` of the mask's length."""
    out.fill(np.nan)
    lanes = np.flatnonzero(mask)
    out[lanes] = values[lanes]


def _chunk_rows(n: int) -> int:
    """Rows per chunk of an ``n``-pair run: about an eighth of the run, as a
    whole number of ``_BLOCK_ROWS`` from two blocks to eight (2**17 rows).
    A run of at most ``_BLOCK_ROWS`` pairs is one chunk, and a 1e5-pair run
    four, so both workers of a two-CPU pool stay busy."""
    return _BLOCK_ROWS * min(max(-(-n // (8 * _BLOCK_ROWS)), 2), 8)


class _Streams:
    """A run's variate streams, addressed by position.

    Stream k, the k-th ``n``-length ``random`` draw of the runner's
    documented order, starts at output ``k n`` of ``PCG64(seed)``, so that
    any rows of it can be drawn on their own by ``advance`` (one output per
    float64), with the bits of the sequential ``default_rng(seed)`` draws. A
    permutation is drawn whole; the streams after it start at the state it
    leaves.
    """

    def __init__(self, seed: int, n: int) -> None:
        self._n = n
        # (index of the first stream that starts here, PCG64 state)
        self._bases = [(0, np.random.PCG64(seed).state)]

    def generator(self, k: int, offset: int = 0) -> np.random.Generator:
        """A generator at output ``offset`` of stream ``k``."""
        first, state = next(base for base in reversed(self._bases) if base[0] <= k)
        bits = np.random.PCG64()
        bits.state = state
        bits.advance((k - first) * self._n + offset)
        return np.random.Generator(bits)

    def permutation(self, k: int) -> np.ndarray:
        """``permutation(n)`` drawn after ``k`` streams; stream ``k`` and the
        ones after it start at the state it leaves."""
        rng = self.generator(k)
        out = rng.permutation(self._n)
        self._bases.append((k, rng.bit_generator.state))
        return out


class _Chunk(NamedTuple):
    """What one chunk task hands back to its run: its fills and rules, the
    names of its array columns, ``{id of a column's buffer: its rows' block hashes}``,
    its screens' tallies (see ``_Screens.tally``) and the counts the runner
    put in its ``tally``."""

    fills: dict
    arrays: frozenset
    hashes: dict
    tallies: list | None
    counts: dict


class _Run:
    """One run while its chunks render: the config, the variate streams, the
    laws and the log's array columns.

    The laws and their tables are built here, on the run thread, before any
    chunk starts, so chunk tasks only read them. The array columns are
    allocated on the run thread too (see ``render``); every chunk writes its
    own rows of them.
    """

    def __init__(self, cfg: ProtocolConfig, expected: Protocol, phases: tuple[float, ...] = (0.0,)) -> None:
        if cfg.protocol is not expected:
            raise ValidationError(f"config.protocol is {cfg.protocol.value}, expected {expected.value}")
        self.cfg, self.n = cfg, cfg.n_pairs
        self.streams = _Streams(cfg.seed, cfg.n_pairs)
        #: (kind, fringe phase) -> law; pipeline step 4 picks among them
        self.laws = {(PatternKind.PARTICLE, 0.0): PatternDistribution(PatternKind.PARTICLE, cfg.optics).prepared()}
        for phase in phases:
            self.laws[PatternKind.WAVE, phase] = PatternDistribution(PatternKind.WAVE, cfg.optics, phase).prepared()
        #: counts the chunks put in ``tally``, summed once the run is rendered
        self.tally: dict[str, int] = {}
        self._arrays: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def array(self, name: str, like: str | None = None) -> np.ndarray:
        """Column ``name``'s array of every row, allocated on first use, or
        column ``like``'s when given: the two columns are then one buffer."""
        with self._lock:
            if name not in self._arrays:
                self._arrays[name] = self._arrays[like] if like else np.empty(self.n, _COLUMNS[name][0])
            return self._arrays[name]

    def render(
        self,
        rows: Callable[["_Rows"], tuple[np.ndarray | None, dict[str, np.ndarray] | None]],
        keys: tuple[str, ...] | None = None,
        regions: dict[str, IntervalSet] | None = None,
        tv: tuple[str, str] | None = None,
        coincidences: bool = False,
        feasibility: FeasibilityReport | None = None,
        markers: tuple[str, ...] = (),
    ) -> RunResult:
        """Run ``rows`` on every chunk and merge the chunks into a RunResult.

        ``rows(chunk)`` writes the chunk's log rows and returns its impacts
        and ``{key: mask}`` of its subsets. ``keys`` names the subsets (by
        default one "screen" subset of every pair, which is the pooled
        screen; none at all for ``()``, which also skips the pooled screen
        and takes no impacts); an interval-rule subset is classified on its
        region in ``regions``. ``tv`` names the two subsets whose empirical
        TV distance is reported when both are nonempty, and ``coincidences``
        asks for the coincidence summary of the finished timing columns.

        ``rows`` first runs here on zero rows, which allocates every array
        column on this thread, so that no pool worker's malloc arena holds a
        log. Then each chunk is one task on the shared pool (a single chunk
        runs on this thread): it tallies its subsets' counts, histogram and
        slit counts and the sum of their classifier terms, then hashes the
        digest blocks of its rows of the array columns. The tallies merge
        exactly, except that a subset's log-likelihood ratio is the sum of
        the chunks' sums, added in chunk order.
        """
        cfg, n = self.cfg, self.n
        screens = None if keys == () else _Screens(self.laws, keys or (), regions or {})
        rows(_Rows(self, 0, 0))
        chunks = map_blocks(partial(self._chunk, rows, screens), n, _chunk_rows(n))
        log = self._log(chunks)
        results: dict[str, SubsetResult] = {}
        pooled = None
        if screens is not None:
            # one list of chunk tallies per screen, the pooled one first
            merged = [_merge(tallies, screens.edges, cfg.optics) for tallies in zip(*(c.tallies for c in chunks))]
            pooled = merged[0]
            results = dict(zip(keys, merged[1:])) if keys else {"screen": pooled}
        empirical_tv = None
        if tv is not None and all(results[key].count for key in tv):
            empirical_tv = tv_of_counts(*(results[key].histogram for key in tv))
        summary = None
        warnings_: tuple[str, ...] = ()
        if coincidences:
            window, lag = cfg.coincidence_window_s, cfg.delta_t_s
            summary = _match_structured(log._cols["t_signal_impact_s"], log._cols["t_detector_s"], window, lag, n)
            if summary.matched:
                mismatch = (summary.unmatched_detectors + summary.ambiguities) / max(
                    1, summary.matched + summary.unmatched_detectors
                )
                if mismatch > 0.01:
                    warnings_ = (f"coincidence mismatch rate {mismatch:.3f} exceeds 1%: timing structure violated",)
        for c in chunks:
            for key, count in c.counts.items():
                self.tally[key] = self.tally.get(key, 0) + count
        return RunResult(
            config=cfg,
            bin_edges=None if screens is None else screens.edges,
            subsets=results,
            pooled=pooled,
            coincidences=summary,
            predictor=None,
            feasibility=feasibility,
            empirical_tv=empirical_tv,
            markers=markers,
            warnings=warnings_,
            event_digest=log.digest(),
            events=log,
        )

    def _chunk(self, rows, screens: "_Screens | None", block: slice) -> _Chunk:
        """One chunk's task: its rows, its tallies, and the hashes of its
        rows' blocks."""
        c = _Rows(self, block.start, min(block.stop, self.n))
        x, masks = rows(c)
        tallies = None if screens is None else screens.tally(x, c.slit, masks)
        fills, arrays, hashes = c.seal()
        return _Chunk(fills, arrays, hashes, tallies, c.tally)

    def _log(self, chunks: list[_Chunk]) -> EventLog:
        """The run's log from its chunks: a column is a fill or a rule every
        chunk holds, or an array whose record joins the chunks' block hashes."""

        def layout(c: _Chunk) -> tuple:
            return c.arrays, {name: held if isinstance(held, _Rule) else held.tobytes() for name, held in c.fills.items()}

        first = chunks[0]
        if any(layout(c) != layout(first) for c in chunks[1:]):
            raise RuntimeError("chunks disagree on the log's fills or rules")
        arrays = {name: self._arrays[name] for name in first.arrays}
        # chunk starts are whole blocks, so the chunks' block hashes are the column's
        records = {name: list(chain.from_iterable(c.hashes[id(col)] for c in chunks)) for name, col in arrays.items()}
        return EventLog(self.n, {**first.fills, **arrays}, records)


class _Rows:
    """Rows ``[start, stop)`` of a run: what one chunk task reads and writes.

    Columns read as on an ``EventLog`` of these rows. Assigning an array
    copies it into the run's column at these rows; assigning a scalar or a
    ``_Rule`` holds it, the same in every chunk. ``column`` hands out these
    rows of a column to write in place, or makes a column share another's buffer. A
    chunk writes a column's array once. ``random()`` draws these rows of the
    run's next variate stream. Counts put in ``tally`` are summed over the
    chunks.
    """

    def __init__(self, run: _Run, start: int, stop: int) -> None:
        # _cols: column name -> these rows as written, or a fill or rule
        self.__dict__.update(run=run, cfg=run.cfg, start=start, stop=stop, tally={}, _cols={}, _drawn=0)

    def random(self) -> np.ndarray:
        """These rows of the run's next stream of uniform variates."""
        k = self.skip()
        return self.run.streams.generator(k, self.start).random(self.stop - self.start)

    def skip(self) -> int:
        """Pass over the run's next stream, which these rows do not read;
        returns its index."""
        k = self._drawn
        self.__dict__["_drawn"] = k + 1
        return k

    def column(self, name: str, like: str | None = None) -> np.ndarray:
        """These rows of column ``name``, for the caller to write in place.
        With ``like``, an array column of the same dtype written already,
        ``name`` is that column's buffer, as a log shares one, and its rows
        are returned as they are."""
        if isinstance(self._cols.get(name), np.ndarray):
            raise RuntimeError(f"a chunk writes column {name!r} once")
        view = self._cols[name] = self.run.array(name, like)[self.start : self.stop]
        return view

    def _held(self, name: str) -> np.ndarray | np.generic | _Rule:
        """Column ``name`` as held: these rows, or its fill or rule unexpanded."""
        return self._cols.get(name, _BLANK[name])

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        held = self._held(name)
        return held if isinstance(held, np.ndarray) else _rows_of(held, self.start, self.stop)

    def __setattr__(self, name: str, value) -> None:
        if name not in _COLUMNS:
            raise AttributeError(f"an event log has no column {name!r}")
        held = _hold(_COLUMNS[name][0], value)
        if held is not None:
            if isinstance(self._cols.get(name), np.ndarray):
                raise RuntimeError(f"a chunk writes column {name!r} once")
            self._cols[name] = held
            return
        if np.shape(value) != (self.stop - self.start,):
            raise ValueError(f"column {name!r} needs shape ({self.stop - self.start},), got {np.shape(value)}")
        self.column(name)[...] = value

    def seal(self) -> tuple[dict, frozenset, dict]:
        """(fills and rules, names of array columns, {id of a column's
        buffer: the block hashes of these rows}), hashed once per buffer."""
        fills = {name: held for name, held in self._cols.items() if not isinstance(held, np.ndarray)}
        arrays = frozenset(self._cols.keys() - fills.keys())
        hashes = {}
        for name in arrays:
            key = id(self.run._arrays[name])
            if key not in hashes:
                hashes[key] = _block_hashes(self._cols[name])
        return fills, arrays, hashes


class _Screens:
    """How a chunk tallies its impacts: the pooled screen, then each subset
    in ``keys`` on its own classifier.

    A subset whose law is the pooled screen's (fringe phase 0, no region)
    sums the pooled terms its mask selects, which gives the bits of
    classifying it apart. Any other subset's terms are set up in a chunk
    that has samples for it, as classifying them would be, from their share
    of the pooled (elementwise) wave density.
    """

    def __init__(self, laws: dict, keys: tuple[str, ...], regions: dict[str, IntervalSet]) -> None:
        self.laws = laws
        self.particle = laws[PatternKind.PARTICLE, 0.0]
        optics = self.particle.config
        self.edges = fringe_aligned_edges(optics)
        self.pooled = llr_terms(laws[PatternKind.WAVE, 0.0], self.particle)
        self.subsets = []
        for key in keys:
            region = regions.get(key)
            # an empty or full-window region restricts nothing
            restrict = region if region and region.measure < optics.window_width_m else None
            self.subsets.append((key, _D2_PHASE if key == "D2" else 0.0, restrict))

    def tally(self, x: np.ndarray, slit: np.ndarray, masks: dict[str, np.ndarray] | None) -> list[tuple]:
        """Per screen, the pooled one first: (count, histogram counts, slit
        counts, sum of the classifier terms) of this chunk's impacts. When
        the subsets partition the impacts, as every runner's do, the pooled
        histogram and slit counts are their sums."""
        # raised as the classifier raises for an impact off the screen
        self.particle._check_domain(x)
        wave = self.laws[PatternKind.WAVE, 0.0]._density_raw(x)
        restricted = any(restrict is not None for *_, restrict in self.subsets)
        pooled = self.pooled(x, density=wave.copy() if restricted else wave)
        in_slit = (slit == 1, slit == 2)
        out = []
        covered = np.zeros(x.size, dtype=bool)
        for key, phase, restrict in self.subsets:
            mask = masks[key]
            covered |= mask
            samples = np.compress(mask, x)
            if restrict is not None and samples.size and not np.all(restrict.contains(samples)):
                raise ValidationError("restricted classification requires all samples inside the region")
            if not phase and restrict is None:
                llr = np.sum(np.compress(mask, pooled))
            elif samples.size:
                terms = llr_terms(self.laws[PatternKind.WAVE, phase], self.particle, restrict)
                llr = np.sum(terms(samples, density=None if phase else np.compress(mask, wave)))
            else:
                llr = 0.0
            counts, _ = np.histogram(samples, self.edges)
            slits = tuple(int(np.count_nonzero(mask & flags)) for flags in in_slit)
            out.append((samples.size, counts, slits, float(llr)))
        # the masks cover every impact and their counts add up to them: no two overlap
        if out and sum(t[0] for t in out) == x.size and covered.all():
            counts = reduce(np.add, (t[1] for t in out))
            slits = tuple(sum(t[2][k] for t in out) for k in (0, 1))
        else:
            counts, _ = np.histogram(x, self.edges)
            slits = tuple(int(np.count_nonzero(flags)) for flags in in_slit)
        return [(x.size, counts, slits, float(np.sum(pooled))), *out]


def _merge(tallies: list[tuple], edges: np.ndarray, optics: OpticsConfig) -> SubsetResult:
    """One screen's result from its chunk tallies, in chunk order."""
    count = sum(t[0] for t in tallies)
    counts = tallies[0][1].copy()
    for t in tallies[1:]:
        counts += t[1]
    llr = tallies[0][3]
    for t in tallies[1:]:
        llr += t[3]  # in chunk order, one float at a time
    if not count:
        llr = 0.0
    return SubsetResult(
        count=count,
        verdict=verdict_of(llr) if count else Verdict.INDETERMINATE,
        log_likelihood_ratio=llr,
        visibility=fringe_visibility(counts, edges, optics) if count else None,
        histogram=counts,
        slit_counts=(sum(t[2][0] for t in tallies), sum(t[2][1] for t in tallies)),
    )


def _base_log(c: _Rows, idler: bool = False) -> None:
    """Draws u_slit, the run's first stream, and writes the pairs' slits and
    their creation and impact times, one rule; with ``idler``, each idler
    also registers ``delta_t_s`` after its pair's creation."""
    np.subtract(np.int8(2), c.random() < 0.5, out=c.column("slit"), dtype=np.int8)
    created = c.t_created_s = c.t_signal_impact_s = _Rule(PAIR_SPACING_FACTOR * c.cfg.delta_t_s)
    if idler:
        c.t_detector_s = created.plus(c.cfg.delta_t_s)


def _record(c: _Rows, mask: np.ndarray | bool, at: _Rule | None = None, kept: bool = True) -> None:
    """Pairs in ``mask`` are detected at the times of rule ``at`` and, when
    ``kept``, written to a persistent which-way record; every pair left with
    no which-way record is erased. A scalar ``mask`` holds for every pair,
    detected at impact, and leaves fills in the log, the detection times
    being the impact times' rule."""
    flag = np.asarray(mask, dtype=np.int8)
    c.detected = flag
    if flag.ndim:
        _nan_except(c.column("detected_at_s"), mask, at.rows(c.start, c.stop))
    else:
        c.detected_at_s = c._held("t_signal_impact_s") if mask else np.nan
    c.erased = 1 - flag if kept else 1
    if kept:
        if flag.ndim:
            c.column("recorded", like="detected")  # the same flags
        else:
            c.recorded = flag
        c.medium = flag * np.int8(_MEDIUM_CODES[Medium.PERSISTENT])  # Medium.NONE's code is 0


def _render(c: _Rows, resolved_at: _Rule, d2: np.ndarray | None = None) -> np.ndarray:
    """Pipeline steps 2-5 (see the module docstring) for pairs whose fate
    resolves at the times of rule ``resolved_at``; draws the run's last
    variate, u_x, sets ``observation_time_s`` and ``signal_x_m`` and returns
    the impacts. The record columns reach the availability query as held,
    fills unexpanded. Wave pairs in the ``d2`` mask take the fringe phase
    ``_D2_PHASE``, the others phase 0."""
    cfg = c.cfg
    u_x = c.random()
    at_t0 = cfg.observation_schedule is ObservationSchedule.AT_T0
    c.observation_time_s = c._held("t_signal_impact_s") if at_t0 else resolved_at.plus(cfg.delta_t_s)
    # only the time column the query reads is expanded; collapse_at_detection reads none, only the shape
    name = availability_query_time(cfg.model, "t_signal_impact_s", "observation_time_s")
    at = np.broadcast_to(np.nan, u_x.shape) if cfg.model.policy is RenderingPolicy.COLLAPSE_AT_DETECTION else getattr(c, name)
    avail = available_mask(
        cfg.model.policy,
        c._held("detected"),
        c._held("recorded"),
        reduce(np.logical_or, [c._held("medium") == code for code in _OBJECTIVE_CODES]),
        c._held("erased_at_s"),
        c._held("expires_at_s"),
        at,
    )
    wave = ~avail
    groups = [(avail, PatternKind.PARTICLE, 0.0)]
    if d2 is None:
        groups.append((wave, PatternKind.WAVE, 0.0))
    else:
        groups += [(wave & ~d2, PatternKind.WAVE, 0.0), (wave & d2, PatternKind.WAVE, _D2_PHASE)]
    x = c.column("signal_x_m")  # the groups cover every pair
    for mask, kind, phase in groups:
        law = c.run.laws[kind, phase]
        if mask.all():
            law.quantiles(u_x, out=x)
        elif mask.any():
            x[np.flatnonzero(mask)] = law.quantiles(np.compress(mask, u_x))
    return x


def _truncated_sampler(dist: PatternDistribution, region: IntervalSet) -> Callable[[np.ndarray], np.ndarray]:
    """The law conditioned on the region, sampled via stretched quantiles;
    the intervals' masses are taken here, and the sampler runs on the
    calling thread."""
    lo, hi = region.intervals.T
    c_lo = dist.cdf(lo)
    masses = dist.cdf(hi) - c_lo
    total = float(masses.sum())
    if not total > 0:
        raise ValidationError("truncation region carries zero probability mass")
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    # keep samples inside their half-open interval despite the 1e-12 inversion slack
    hi_in = np.nextafter(hi, lo)

    def sample(u: np.ndarray) -> np.ndarray:
        s = u * total
        j = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, masses.size - 1)
        u_full = np.clip(c_lo[j] + (s - cum[j]), 0.0, 1.0)
        return np.clip(dist.quantiles(u_full), lo[j], hi_in[j])

    return sample


def _run_interval_rule(
    run: _Run,
    region: IntervalSet,
    law: PatternKind | None,
    markers: tuple[str, ...],
    refusal_marker: str,
    keys: tuple[str, str],
    route: Callable[[_Rows, np.ndarray], None],
    idler: bool = False,
) -> RunResult | FeasibilityReport:
    """Switch stage d and perishable media: an interval rule on ``region``
    fixes the law instead of pipeline steps 3-4.

    Draws u_component, then u_x. With a fixed ``law`` every pair draws it.
    Otherwise the structureless law must hold exactly on the region, a rule
    that implies total probability delta(region): below the noise threshold
    the run refuses with a report carrying ``refusal_marker``, before any
    variate is drawn; above it each pair draws one of the two laws truncated
    to the region (structureless) or its complement (interference), weighted
    by their masses, and a deviation from unit mass that noise hides is
    flagged. ``route(chunk, inside)`` then records the which-way fate of the
    pairs whose impact lands in the region; ``keys`` name the subsets inside
    and outside it.
    """
    cfg, optics = run.cfg, run.cfg.optics
    feasibility: FeasibilityReport | None = None
    complement = region.complement(optics.window)
    if law is None:
        feasibility = contradiction_margin(region, optics)
        if not feasibility.feasible_under_outcome_i:
            if feasibility.delta_value < cfg.noise_threshold:
                return replace(feasibility, marker=refusal_marker)
            markers += ("statistically_indistinguishable_from_consistency",)
        particle, wave = run.laws[PatternKind.PARTICLE, 0.0], run.laws[PatternKind.WAVE, 0.0]
        p_in = particle.mass(region)
        w_out = wave.mass(complement)
        weight = p_in / (p_in + w_out) if (p_in + w_out) > 0 else 0.0
        # a part no pair can draw (u < 0, u >= 1) is never built
        parts = [(True, _truncated_sampler(particle, region))] if weight > 0.0 else []
        if weight < 1.0:
            parts.append((False, _truncated_sampler(wave, complement)))

    inner, outer = keys

    def rows(c: _Rows) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        _base_log(c, idler)
        x = c.column("signal_x_m")
        if law is None:
            from_particle = c.random() < weight
            u_x = c.random()
            for side, sample in parts:
                mask = from_particle if side else ~from_particle
                if mask.any():
                    x[np.flatnonzero(mask)] = sample(np.compress(mask, u_x))
        else:
            c.skip()  # u_component: a fixed law reads none
            run.laws[law, 0.0].quantiles(c.random(), out=x)
        inside = region.contains(x)
        route(c, inside)
        c.observation_time_s = c._held("t_signal_impact_s")
        return x, {inner: inside, outer: ~inside}

    return run.render(rows, keys, {inner: region, outer: complement}, feasibility=feasibility, markers=markers)


# -- protocol runners ---------------------------------------------------------------


def run_double_slit(cfg: ProtocolConfig) -> RunResult:
    """Plain two-slit run; slit detectors either record persistently or are absent.

    Draw order: u_slit, u_x.
    """

    def rows(c: _Rows) -> tuple[np.ndarray, None]:
        _base_log(c)
        _record(c, cfg.detectors_recording)
        return _render(c, c._held("t_signal_impact_s")), None

    return _Run(cfg, Protocol.DOUBLE_SLIT).render(rows)


def run_delayed_choice(cfg: ProtocolConfig) -> RunResult:
    """Record/erase decided per pair while the signal is in flight.

    Draw order: u_slit, u_choice, u_x.
    """

    def rows(c: _Rows) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        _base_log(c, idler=True)
        chose_record = c.random() < cfg.choice_record_prob
        _record(c, chose_record, c._held("t_detector_s"))
        x = _render(c, c._held("t_detector_s"))
        return x, {"recorded": chose_record, "unrecorded": ~chose_record}

    run = _Run(cfg, Protocol.DELAYED_CHOICE)
    return run.render(rows, ("recorded", "unrecorded"), tv=("recorded", "unrecorded"))


def _eraser_bench(c: _Rows, kept: bool, idler: bool = True) -> tuple[np.ndarray, np.ndarray, _Rule]:
    """Eraser-bench routing of a chunk's pairs: (to_which_way, detector, the
    rule of the idlers' registration times); the caller writes the detector
    column, and without ``idler`` the registration times too.

    Reflected idlers head to the slit-tagged detectors (slit 1 -> D3, slit 2
    -> D4), which detect them and, when ``kept``, write a persistent record;
    transmitted idlers merge and exit one of two ports (0 -> D1, 1 -> D2,
    which carries ``_D2_PHASE``), all registering ``delta_t_s`` after
    creation. Draw order: u_slit, u_route, u_port.
    """
    _base_log(c, idler)
    to_which_way = c.random() < 0.5
    port = (c.random() < 0.5).astype(np.int8)
    registered = c._held("t_detector_s") if idler else c._held("t_created_s").plus(c.cfg.delta_t_s)
    # int8 selects by arithmetic: a splitter an idler skips reads -1, and
    # slit is 1 or 2, so 2 - slit flags slit 1
    slit = c.slit
    w, s1 = to_which_way.view(np.int8), 2 - slit
    c.bs_a = s1 * (w + 1) - 1
    c.bs_b = (1 - s1) * (w + 1) - 1
    c.bs_c = (1 - w) * (port + 1) - 1
    _record(c, to_which_way, registered, kept)
    return to_which_way, w * (slit + 2) + (1 - w) * (port + 1), registered


def run_quantum_eraser(cfg: ProtocolConfig) -> RunResult:
    """Four-detector eraser bench with coincidence sorting.

    Reflected idlers land on the slit-tagged detectors and write a persistent
    which-way record; transmitted idlers merge, lose the tag, and exit to the
    two eraser ports, whose coincidence subsets carry complementary fringe
    phases (0 and pi/2) so the pooled screen marginal stays flat.
    Draw order: u_slit, u_route, u_port, u_x.
    """
    def rows(c: _Rows) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        _, detector, registered = _eraser_bench(c, kept=True)
        c.detector = detector
        return _render(c, registered, detector == 2), {f"D{k}": detector == k for k in range(1, 5)}

    run = _Run(cfg, Protocol.QUANTUM_ERASER, (0.0, _D2_PHASE))
    return run.render(rows, ("D1", "D2", "D3", "D4"), coincidences=True)


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
    if cfg.variant is DetectNoRecordVariant.UNPLUGGED_DETECTORS:

        def unplugged(c: _Rows) -> tuple[np.ndarray, None]:
            _base_log(c)
            _record(c, True, kept=False)  # the unplugged outputs keep nothing
            return _render(c, c._held("t_signal_impact_s")), None

        return _Run(cfg, Protocol.DETECT_NO_RECORD).render(unplugged)
    run = _Run(cfg, Protocol.DETECT_NO_RECORD, (0.0, _D2_PHASE))
    if cfg.variant is DetectNoRecordVariant.NO_COINCIDENCE_COUNTER:

        def no_counter(c: _Rows) -> tuple[np.ndarray, None]:
            # detectors all fire but nothing can be sorted or kept
            _, detector, registered = _eraser_bench(c, kept=False)
            c.detector = detector
            # under RENDER_AT_AVAILABILITY nothing sortable survives: the plain interference law
            d2 = None if cfg.model.policy is RenderingPolicy.RENDER_AT_AVAILABILITY else detector == 2
            return _render(c, registered, d2), None

        return run.render(no_counter)
    # WHICH_WAY_CHANNELS_OFF: slit-tagged channels dead, those idlers register
    # nowhere; the pair still resolves delta_t_s after creation

    def channels_off(c: _Rows) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        to_which_way, detector, registered = _eraser_bench(c, kept=False, idler=False)
        x = _render(c, registered, detector == 2)
        c.detector = detector = detector * ~to_which_way
        _nan_except(c.column("t_detector_s"), ~to_which_way, registered.rows(c.start, c.stop))
        return x, {"D1": detector == 1, "D2": detector == 2, "unsorted": detector == 0}

    return run.render(channels_off, ("D1", "D2", "unsorted"), coincidences=True)


def run_macroscopic_erasure(cfg: ProtocolConfig) -> RunResult:
    """Persistent which-way records, half destroyed at a macroscopic delay.

    Destruction is an independent coin per pair (probability
    ``destruction_prob``) or an exact uniformly chosen half when
    ``pairing_mode`` asks for it, drawn whole as ``permutation(n)`` before
    any chunk. Draw order: u_slit, destruction draw, u_x.
    """
    run = _Run(cfg, Protocol.MACROSCOPIC_ERASURE)
    n = cfg.n_pairs
    half = run.streams.permutation(1) < n // 2 if cfg.pairing_mode is PairingMode.EXACT_HALF_SUBSET else None

    def rows(c: _Rows) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        _base_log(c)
        destroyed = c.random() < cfg.destruction_prob if half is None else half[c.start : c.stop]
        _record(c, True)
        erasure = c._held("t_signal_impact_s").plus(cfg.erasure_delay_s)
        c.erased = destroyed
        _nan_except(c.column("erased_at_s"), destroyed, erasure.rows(c.start, c.stop))
        return _render(c, erasure), {"destroyed": destroyed, "surviving": ~destroyed}

    return run.render(rows, ("destroyed", "surviving"), tv=("surviving", "destroyed"))


def run_predictor(cfg: ProtocolConfig) -> RunResult:
    """An in-simulation controller predicts the record bit from each impact.

    Half the pairs carry a persistent which-way record (R=1, structureless
    law), half are erased (R=0, interference law). The controller reads each
    impact coordinate as it lands — a read, not an observation — and predicts
    R=1 when the flat-pattern posterior exceeds one half. Draw order: u_slit,
    u_record, u_x.
    """
    from .stats import approx_posterior

    def rows(c: _Rows) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        _base_log(c, idler=True)
        recorded = c.random() < 0.5
        _record(c, recorded, c._held("t_detector_s"))
        x = _render(c, c._held("t_detector_s"))
        c.tally["correct"] = int(np.count_nonzero((approx_posterior(x, cfg.optics) > 0.5) == recorded))
        return x, {"recorded": recorded, "erased": ~recorded}

    run = _Run(cfg, Protocol.PREDICTOR)
    result = run.render(rows, ("recorded", "erased"), tv=("recorded", "erased"))
    result.predictor = _predictor_stats(run, result)
    return result


def _predictor_stats(run: _Run, result: RunResult) -> PredictorStats:
    """Calibration on the pooled screen's bins: the recorded share of each
    bin's impacts, from the histograms ``result`` already holds, and the
    controller's accuracy from the right predictions the chunks counted."""
    # imported at call time, so a wrapper on ``stats.tv_distance`` (perfbench tracing) sees these calls
    from .stats import approx_posterior, tv_distance

    cfg, optics = run.cfg, run.cfg.optics
    edges, total = result.bin_edges, result.pooled.histogram
    hits = result.subsets["recorded"].histogram
    centers = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        empirical = np.where(total > 0, hits / np.maximum(total, 1), np.nan)
    curve = np.asarray(approx_posterior(centers, optics), dtype=float)
    wave, particle = run.laws[PatternKind.WAVE, 0.0], run.laws[PatternKind.PARTICLE, 0.0]
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
    # the mean of the 0/1 hits, which np.mean sums exactly before dividing
    accuracy = run.tally["correct"] / cfg.n_pairs
    expected = 0.5 * (1.0 + tv_distance(optics))
    return PredictorStats(
        empirical_posterior=empirical,
        curve_at_centers=curve,
        exact_bin_posterior=exact_bin,
        max_abs_deviation_curve=dev_curve,
        max_abs_deviation_exact=dev_exact,
        dark_fringe_min_empirical=dark_min,
        accuracy_empirical=accuracy,
        accuracy_expected=expected,
    )


#: stage d hypotheses that fix the law, with the marker their runs carry
_FIXED_LAWS = {
    OutcomeHypothesis.II: (PatternKind.PARTICLE, ("rendered_on_availability_at_t0",)),
    OutcomeHypothesis.III: (PatternKind.WAVE, ("interference_with_recordable_which_way",)),
}


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

    Draw order: u_slit, u_x (stages a-c); u_slit, u_component, u_x (stage d,
    hypotheses i-iii); u_slit (stage d, hypothesis iv).
    """
    run = _Run(cfg, Protocol.SWITCH_EXPERIMENT)
    if cfg.switch_stage is not SwitchStage.D:

        def stages_a_to_c(c: _Rows) -> tuple[np.ndarray, None]:
            # the idler resolves the pair but registers nowhere
            _base_log(c)
            c.erased = 1
            return _render(c, c._held("t_created_s").plus(cfg.delta_t_s)), None

        return run.render(stages_a_to_c)
    if cfg.outcome_hypothesis is OutcomeHypothesis.IV:

        def discontinuity(c: _Rows) -> tuple[None, None]:
            _base_log(c)
            c.observation_time_s = c._held("t_signal_impact_s")
            return None, None

        return run.render(discontinuity, (), markers=("discontinuity",))
    law, markers = _FIXED_LAWS.get(cfg.outcome_hypothesis, (None, ()))
    return _run_interval_rule(
        run,
        cfg.strategy.activation_region(cfg.optics),
        law,
        markers,
        "outcome_i_infeasible",
        ("switch_on", "switch_off"),
        lambda c, switch_on: _record(c, switch_on, c._held("t_detector_s")),
        idler=True,
    )


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
    run = _Run(cfg, Protocol.PERISHABLE_MEDIA)
    region = cfg.rule_intervals if cfg.rule_intervals is not None else optimal_interval_set(cfg.optics)
    if cfg.recording_rule is RecordingRule.PERMANENT_ONLY:
        law, markers = None, ("branch_b",)
    else:
        law, markers = PatternKind.PARTICLE, ("branch_a",)

    def route(c: _Rows, copied: np.ndarray) -> None:
        _record(c, True)
        # a copy is persistent, whose code is one below the perishable one
        c.medium = _MEDIUM_CODES[Medium.PERISHABLE] - copied.view(np.int8)
        _nan_except(c.column("expires_at_s"), ~copied, c.t_signal_impact_s + cfg.ttl_s)
        c.erased = ~copied

    return _run_interval_rule(run, region, law, markers, "intent_adjustment_required", ("recorded", "perished"), route)


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
