"""Monte Carlo runners for the bench protocols.

Every runner draws whole per-pair variate arrays up front in a fixed,
documented order (row i belongs to pair i), so results are independent of
execution order and thread count: identical config and seed reproduce
identical event logs, digests, and reports. Pair i is created at
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
draw; (6) assemble: classify the subsets and the pooled screen, digest the
log. Switch stage d and perishable media share one sampling path instead: an
interval rule fixes the law (steps 3-4) and the log is recorded after
sampling. Stage d hypothesis iv samples nothing and draws only ``u_slit``.

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
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from .models import (
    Medium,
    OBJECTIVE_MEDIA,
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


#: the log's columns in digest and CSV order, each with its dtype and the fill
#: of a blank log (``None``: the row index)
_COLUMNS: dict[str, tuple[type, float | None]] = {
    "pair_id": (np.int64, None),
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


def _fill_rows(name: str, fill: float | None, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of column ``name`` held as ``fill``."""
    dtype = _COLUMNS[name][0]
    if fill is None:
        return np.arange(start, stop, dtype=dtype)
    return np.full(stop - start, fill, dtype=dtype)


class EventLog:
    """Columnar per-pair event log; one row per generated pair.

    A column is held either as an array of the log's length or as one fill
    value for every row: a blank log holds only fills, ``pair_id``'s being the
    row index. Reading a column as an attribute expands its fill to an array
    on first use; assigning a scalar to a column stores a fill. An array that
    two columns share (the creation times are the impact times) is made
    read-only, so an in-place write cannot change two columns at once.

    The digest is a SHA-256 over the raw column bytes in the documented
    column order, so it is identical for identical runs regardless of how
    the work was scheduled or whether a column is held as a fill.
    """

    def __init__(self, n: int) -> None:
        self.__dict__.update(_n=int(n), _fills={name: fill for name, (_, fill) in _COLUMNS.items()})

    @classmethod
    def blank(cls, n: int) -> "EventLog":
        """A log of ``n`` rows whose every column holds its blank fill."""
        return cls(n)

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for a column held as a fill: an array is an instance attribute
        if name not in _COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        held = self._held(name)
        if isinstance(held, np.ndarray):  # another thread expanded it meanwhile
            return held
        # two threads expanding at once both return the array stored first
        col = self.__dict__.setdefault(name, _fill_rows(name, held, 0, self._n))
        self._fills.pop(name, None)
        return col

    def __setattr__(self, name: str, value) -> None:
        if name not in _COLUMNS:
            raise AttributeError(f"an event log has no column {name!r}")
        dtype = _COLUMNS[name][0]
        if np.ndim(value) == 0:
            self._fills[name] = np.asarray(value, dtype=dtype)[()]
            self.__dict__.pop(name, None)
            return
        col = np.ascontiguousarray(value, dtype=dtype)
        if col.shape != (self._n,):
            raise ValueError(f"column {name!r} needs shape ({self._n},), got {col.shape}")
        for other_name, other in self.__dict__.items():
            if other_name != name and isinstance(other, np.ndarray) and np.may_share_memory(col, other):
                col.flags.writeable = other.flags.writeable = False
        self.__dict__[name] = col
        self._fills.pop(name, None)

    def _held(self, name: str) -> np.ndarray | np.generic | None:
        """Column ``name`` as held: its array, or its fill unexpanded."""
        try:
            return self._fills[name]
        except KeyError:  # an array: expanding stores it before dropping the fill
            return self.__dict__[name]

    def _blocks(self, name: str) -> Iterator[np.ndarray]:
        """Column ``name`` in slices of ``_BLOCK_ROWS`` rows. A fill is read
        from one reused block, the row index from ``arange`` per block."""
        held, n = self._held(name), self._n
        if not isinstance(held, np.ndarray) and held is not None:
            block = _fill_rows(name, held, 0, min(_BLOCK_ROWS, n))
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            if isinstance(held, np.ndarray):
                yield held[start:stop]
            elif held is None:
                yield _fill_rows(name, None, start, stop)
            else:
                yield block[: stop - start]

    def __len__(self) -> int:
        return self._n

    def digest(self) -> str:
        h = hashlib.sha256(b"dualitysim-event-log-v1\x00")
        h.update(",".join(EVENT_LOG_COLUMNS).encode())
        for name, (dtype, _) in _COLUMNS.items():
            h.update(name.encode())
            h.update(np.dtype(dtype).str.encode())
            for block in self._blocks(name):
                h.update(block)
        return h.hexdigest()

    def to_csv(self, path) -> None:
        """Write the documented CSV form: header row, one row per pair, empty
        cells for not-applicable timestamps, -1 route codes for unused splitters.

        Rows are formatted and written in blocks of ``_BLOCK_ROWS``, so
        memory stays bounded by one block whatever the log's length. The
        output bytes are pinned by ``tests/test_golden.py``."""
        with open(path, "wb") as fh:
            fh.write(",".join(EVENT_LOG_COLUMNS).encode() + b"\n")
            for columns in zip(*map(self._blocks, EVENT_LOG_COLUMNS)):
                fh.write(_csv_block(columns))


def _csv_block(columns: Sequence[np.ndarray]) -> bytes:
    """CSV rows of one block of column slices, each row newline-terminated.

    Float64 cells print as the bytes of ``"%.17g" % x`` (round-trips
    float64), NaN as an empty cell; other columns print as integers. Each
    column becomes an array of NUL-padded cells, cut to the bytes some cell
    uses; the rows are laid out with their separators and the padding is
    dropped. A slice whose dtype and bytes equal an earlier slice's reuses
    that slice's cells (the impact time is the creation time in every
    runner). Bytes, not float ``==``, decide equality, so ``-0.0`` never
    borrows the cells of ``0.0``.
    """
    n = columns[0].size
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    parts: list[np.ndarray] = []
    seen: dict[tuple[str, bytes], np.ndarray] = {}
    for col in columns:
        key = (col.dtype.str, col.tobytes())
        cells = seen.get(key)
        if cells is None:
            if col.dtype == np.float64:
                cells = _float_cells(col)
            elif col.dtype == np.int8:
                cells = np.take(_INT8_CELLS, col.view(np.uint8)).view(np.uint8).reshape(n, 4)
            else:  # int64, which numpy's cast to bytes writes as "%d"
                cells = col.astype("S20").view(np.uint8).reshape(n, 20)
            used = np.flatnonzero(cells.any(axis=0))
            cells = seen[key] = cells[:, used[0] : used[-1] + 1] if used.size else cells[:, :0]
        parts += [cells, comma]
    parts[-1] = np.full((n, 1), ord("\n"), dtype=np.uint8)
    rows = np.concatenate(parts, axis=1)
    return rows[rows != 0].tobytes()


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


def _float_cells(col: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.17g" % x`` for every x in ``col``, NaN as an empty
    cell: (n, 24) bytes, NUL-padded.

    Finite x whose decimal exponent e lies in -6..16 take an exact path: the
    product |x| * 10**(16 - e) is formed exactly as ``hi + lo``, which also
    settles e where ``log10`` misjudged it, and rounded half-to-even to the
    17-digit mantissa. Zeros and infinities are laid out directly; every
    other value (subnormal, below 1e-6, from 1e17) is formatted per cell.
    """
    n = col.size
    cells = np.zeros((n, 24), dtype=np.uint8)
    a = np.abs(col)
    cells[:, 0] = np.where(np.signbit(col) & (a == a), ord("-"), 0)
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
    if rest.size:
        text = [b"%.17g" % x for x in col[rest].tolist()]
        cells[rest] = np.array(text, dtype="S24").view(np.uint8).reshape(rest.size, 24)
    return cells


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
    t_signal: np.ndarray,
    t_detector: np.ndarray,
    window_s: float,
    expected_lag_s: float,
) -> CoincidenceSummary:
    """The summary :func:`coincidence_match` gives for a runner's event
    streams: row i holds pair i's signal time and its detector time, NaN for
    an idler that registers nowhere.

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
    matched = 0
    for start in range(0, t_signal.size, _BLOCK_ROWS):
        # the block's rows and the next block's first row
        s = t_signal[start : start + _BLOCK_ROWS + 1]
        d = t_detector[start : start + _BLOCK_ROWS + 1]
        target, silent = d - expected_lag_s, np.isnan(d)
        # the signals rise, s[i + 1] lies outside row i's window and s[i]
        # outside row i + 1's
        clear = (s[1:] >= s[:-1]) & ((s[1:] - target[:-1] >= window_s) | silent[:-1])
        clear &= (target[1:] - s[:-1] >= window_s) | silent[1:]
        if not clear.all():
            registered = np.compress(~np.isnan(t_detector), t_detector)
            return coincidence_match(t_signal, registered, window_s, expected_lag_s)
        matched += int(np.count_nonzero(np.abs(s[:_BLOCK_ROWS] - target[:_BLOCK_ROWS]) < window_s))
    n_d = int(np.count_nonzero(~np.isnan(t_detector)))
    return CoincidenceSummary(matched, t_signal.size - matched, n_d - matched, 0)


# -- results ----------------------------------------------------------------------


@dataclass(frozen=True)
class Histogram:
    """``counts`` of impacts in the bins between consecutive ``edges``."""

    edges: np.ndarray
    counts: np.ndarray


@dataclass
class SubsetResult:
    count: int
    verdict: Verdict
    log_likelihood_ratio: float
    visibility: float | None
    histogram: Histogram
    slit_counts: tuple[int, int]


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
    events: EventLog | None = field(metadata={"report": False})


# -- shared runner plumbing --------------------------------------------------------

#: fringe phase of the eraser's D2 port; every other subset and port carries 0
_D2_PHASE = 0.5 * np.pi
#: medium codes of OBJECTIVE_MEDIA, whose live records make which-way available
_OBJECTIVE_CODES = [_MEDIUM_CODES[medium] for medium in OBJECTIVE_MEDIA]

# The per-pair masks (slit, route, record, availability, subset) are coin
# flips, on which numpy takes boolean-mask indexing and ``np.where`` branch by
# branch: several times slower than ``np.compress`` for a gather, block-wise
# integer indices for a scatter, and arithmetic for an int8 select, which give
# the same values.


def _lanes(mask: np.ndarray) -> Iterator[np.ndarray]:
    """The indices of the true lanes of ``mask``, one ``_BLOCK_ROWS`` block
    at a time, so no index array of the whole length exists."""
    for start in range(0, mask.size, _BLOCK_ROWS):
        lanes = np.flatnonzero(mask[start : start + _BLOCK_ROWS])
        lanes += start
        yield lanes


def _scatter(out: np.ndarray, mask: np.ndarray, values) -> None:
    """``out[mask] = values``, ``values`` a scalar or one value per true lane
    of ``mask``."""
    many, done = np.ndim(values) > 0, 0
    for lanes in _lanes(mask):
        out[lanes] = values[done : done + lanes.size] if many else values
        done += lanes.size


def _nan_except(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.where(mask, values, np.nan)`` for float64 ``values`` of the
    mask's length."""
    out = np.full(mask.size, np.nan)
    for lanes in _lanes(mask):
        out[lanes] = values[lanes]
    return out


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
    mask: np.ndarray | None,
    slit: np.ndarray,
    cfg: ProtocolConfig,
    edges: np.ndarray,
    region: IntervalSet | None = None,
) -> SubsetResult:
    """Classify and histogram the impacts in ``mask`` (every impact for
    ``None``); ``key`` names the subset."""
    samples = x if mask is None else np.compress(mask, x)
    counts, _ = np.histogram(samples, bins=edges)
    if samples.size:
        # an empty or full-window region restricts nothing
        restrict = region if region and region.measure < cfg.optics.window_width_m else None
        phase = _D2_PHASE if key == "D2" else 0.0
        cls = classify_pattern(samples, cfg.optics, phase_offset_rad=phase, restrict_to=restrict)
        verdict, llr = cls.verdict, cls.log_likelihood_ratio
        visibility = fringe_visibility(counts, edges, cfg.optics)
    else:
        verdict, llr, visibility = Verdict.INDETERMINATE, 0.0, None
    in_slit = ((slit == k) if mask is None else mask & (slit == k) for k in (1, 2))
    return SubsetResult(
        count=int(samples.size),
        verdict=verdict,
        log_likelihood_ratio=float(llr),
        visibility=visibility,
        histogram=Histogram(edges, counts),
        slit_counts=tuple(int(np.count_nonzero(flags)) for flags in in_slit),
    )


def _assemble(
    cfg: ProtocolConfig,
    log: EventLog,
    x: np.ndarray,
    subsets: dict[str, np.ndarray] | None = None,
    regions: dict[str, IntervalSet] | None = None,
    tv: tuple[str, str] | None = None,
    coincidences: CoincidenceSummary | None = None,
    feasibility: FeasibilityReport | None = None,
    markers: tuple[str, ...] = (),
) -> RunResult:
    """Classify each subset ``{key: mask}`` (by default one "screen" subset of
    every pair) and the pooled screen (none when ``subsets`` is empty), then
    digest the log into a RunResult. An interval-rule subset is classified on
    its region in ``regions``; ``tv`` names the two subsets whose empirical TV
    distance is reported when both are nonempty. Nothing writes the log from
    here on, so it is hashed on the pool while the subsets classify."""
    digest = submit(log.digest)
    edges = fringe_aligned_edges(cfg.optics)
    pooled = _subset_result("pooled", x, None, log.slit, cfg, edges) if subsets is None or subsets else None
    if subsets is None:  # the screen subset holds every pair: it is the pooled screen
        results = {"screen": pooled}
    else:
        regions = regions or {}
        results = {k: _subset_result(k, x, mask, log.slit, cfg, edges, regions.get(k)) for k, mask in subsets.items()}
    empirical_tv = None
    if tv is not None and all(results[key].count for key in tv):
        empirical_tv = tv_distance_empirical(*(np.compress(subsets[key], x) for key in tv), cfg.optics)
    warnings_: tuple[str, ...] = ()
    if coincidences is not None and coincidences.matched:
        mismatch = (coincidences.unmatched_detectors + coincidences.ambiguities) / max(
            1, coincidences.matched + coincidences.unmatched_detectors
        )
        if mismatch > 0.01:
            warnings_ = (f"coincidence mismatch rate {mismatch:.3f} exceeds 1%: timing structure violated",)
    return RunResult(
        protocol=cfg.protocol,
        seed=cfg.seed,
        n_pairs=cfg.n_pairs,
        config=cfg,
        subsets=results,
        pooled=pooled,
        coincidences=coincidences,
        predictor=None,
        feasibility=feasibility,
        empirical_tv=empirical_tv,
        markers=markers,
        warnings=warnings_,
        event_digest=digest.result(),
        events=log,
    )


def _draws(cfg: ProtocolConfig, expected: Protocol) -> tuple[np.random.Generator, np.ndarray]:
    """The run's seeded generator and its first draw, each pair's slit
    (``u_slit``), for a config meant for this runner."""
    if cfg.protocol is not expected:
        raise ValidationError(f"config.protocol is {cfg.protocol.value}, expected {expected.value}")
    rng = np.random.default_rng(cfg.seed)
    return rng, np.subtract(np.int8(2), rng.random(cfg.n_pairs) < 0.5, dtype=np.int8)


def _base_log(cfg: ProtocolConfig, slit: np.ndarray, idler: bool = False) -> EventLog:
    """A log of the pairs' creation, slit and impact times, the impact times
    being the creation times' array; with ``idler``, each idler also
    registers ``delta_t_s`` after its pair's creation."""
    log = EventLog(cfg.n_pairs)
    created = np.arange(cfg.n_pairs, dtype=np.float64) * (PAIR_SPACING_FACTOR * cfg.delta_t_s)
    log.t_created_s = log.t_signal_impact_s = created
    log.slit = slit
    if idler:
        log.t_detector_s = created + cfg.delta_t_s
    return log


def _record(log: EventLog, mask: np.ndarray | bool, at: np.ndarray, kept: bool = True) -> None:
    """Pairs in ``mask`` are detected at ``at`` and, when ``kept``, written to
    a persistent which-way record; the rest leave no which-way trace (erased).
    A scalar ``mask`` holds for every pair and leaves fills in the log."""
    flag = np.asarray(mask, dtype=np.int8)
    log.detected = flag
    log.detected_at_s = _nan_except(mask, at) if flag.ndim else (at if mask else np.nan)
    log.erased = 1 - flag
    if kept:
        log.recorded = flag
        log.medium = flag * np.int8(_MEDIUM_CODES[Medium.PERSISTENT])  # Medium.NONE's code is 0


def _render(
    cfg: ProtocolConfig,
    log: EventLog,
    rng: np.random.Generator,
    resolved_at: np.ndarray,
    d2: np.ndarray | None = None,
) -> np.ndarray:
    """Pipeline steps 2-5 (see the module docstring) for pairs whose fate
    resolves at ``resolved_at``; draws the run's last variate, u_x, sets
    ``observation_time_s`` and ``signal_x_m`` and returns the impacts. The
    record columns reach the availability query as held, fills unexpanded.
    Wave pairs in the ``d2`` mask take the fringe phase ``_D2_PHASE``, the
    others phase 0."""
    u_x = rng.random(cfg.n_pairs)
    if cfg.observation_schedule is ObservationSchedule.AT_T0:
        log.observation_time_s = log.t_signal_impact_s
    else:
        log.observation_time_s = resolved_at + cfg.delta_t_s
    del resolved_at  # a temporary from the caller must not live through sampling
    at = availability_query_time(cfg.model, log.t_signal_impact_s, log.observation_time_s)
    medium = log._held("medium")
    avail = available_mask(
        cfg.model.policy,
        log._held("detected"),
        log._held("recorded"),
        reduce(np.logical_or, [medium == code for code in _OBJECTIVE_CODES]),
        log._held("erased_at_s"),
        log._held("expires_at_s"),
        at,
    )
    wave = ~avail
    groups = [(avail, PatternKind.PARTICLE, 0.0)]
    if d2 is None:
        groups.append((wave, PatternKind.WAVE, 0.0))
    else:
        groups += [(wave & ~d2, PatternKind.WAVE, 0.0), (wave & d2, PatternKind.WAVE, _D2_PHASE)]
    x = np.empty(cfg.n_pairs)  # the groups cover every pair
    for mask, kind, phase in groups:
        if mask.any():
            _scatter(x, mask, PatternDistribution(kind, cfg.optics, phase).ppf(np.compress(mask, u_x)))
    log.signal_x_m = x
    return x


def _run_interval_rule(
    cfg: ProtocolConfig,
    rng: np.random.Generator,
    slit: np.ndarray,
    region: IntervalSet,
    law: PatternKind | None,
    markers: tuple[str, ...],
    refusal_marker: str,
    keys: tuple[str, str],
    route: Callable[[EventLog, np.ndarray], None],
    idler: bool = False,
) -> RunResult | FeasibilityReport:
    """Switch stage d and perishable media: an interval rule on ``region``
    fixes the law instead of pipeline steps 3-4, and the log is recorded
    after sampling, so its columns do not add to the sampler's peak memory.

    Draws u_component, then u_x. With a fixed ``law`` every pair draws it.
    Otherwise the structureless law must hold exactly on the region, a rule
    that implies total probability delta(region): below the noise threshold
    the run refuses with a report carrying ``refusal_marker``; above it each
    pair draws one of the two laws truncated to the region (structureless) or
    its complement (interference), weighted by their masses, and a deviation
    from unit mass that noise hides is flagged. ``route(log, inside)`` then
    records the which-way fate of the pairs whose impact lands in the region;
    ``keys`` name the subsets inside and outside it.
    """
    optics = cfg.optics
    u_component = rng.random(cfg.n_pairs)
    u_x = rng.random(cfg.n_pairs)
    feasibility: FeasibilityReport | None = None
    complement = region.complement(optics.window)
    if law is not None:
        del u_component
        x = np.asarray(PatternDistribution(law, optics).ppf(u_x), dtype=np.float64)
    else:
        feasibility = contradiction_margin(region, optics)
        if not feasibility.feasible_under_outcome_i:
            if feasibility.delta_value < cfg.noise_threshold:
                return replace(feasibility, marker=refusal_marker)
            markers += ("statistically_indistinguishable_from_consistency",)
        particle = PatternDistribution(PatternKind.PARTICLE, optics)
        wave = PatternDistribution(PatternKind.WAVE, optics)
        p_in = particle.mass(region)
        w_out = wave.mass(complement)
        weight = p_in / (p_in + w_out) if (p_in + w_out) > 0 else 0.0
        from_particle = u_component < weight
        x = np.empty(cfg.n_pairs, dtype=np.float64)
        for mask, dist, part in ((from_particle, particle, region), (~from_particle, wave, complement)):
            if mask.any():
                _scatter(x, mask, _truncated_quantile(dist, part, np.compress(mask, u_x)))
    inside = region.contains(x)
    log = _base_log(cfg, slit, idler)
    route(log, inside)
    log.observation_time_s = log.t_signal_impact_s
    log.signal_x_m = x
    inner, outer = keys
    subsets, regions = {inner: inside, outer: ~inside}, {inner: region, outer: complement}
    return _assemble(cfg, log, x, subsets, regions, feasibility=feasibility, markers=markers)


# -- protocol runners ---------------------------------------------------------------


def run_double_slit(cfg: ProtocolConfig) -> RunResult:
    """Plain two-slit run; slit detectors either record persistently or are absent.

    Draw order: u_slit, u_x.
    """
    rng, slit = _draws(cfg, Protocol.DOUBLE_SLIT)
    log = _base_log(cfg, slit)
    _record(log, cfg.detectors_recording, log.t_signal_impact_s)
    return _assemble(cfg, log, _render(cfg, log, rng, log.t_signal_impact_s))


def run_delayed_choice(cfg: ProtocolConfig) -> RunResult:
    """Record/erase decided per pair while the signal is in flight.

    Draw order: u_slit, u_choice, u_x.
    """
    rng, slit = _draws(cfg, Protocol.DELAYED_CHOICE)
    log = _base_log(cfg, slit, idler=True)
    chose_record = rng.random(cfg.n_pairs) < cfg.choice_record_prob
    _record(log, chose_record, log.t_detector_s)
    x = _render(cfg, log, rng, log.t_detector_s)
    subsets = {"recorded": chose_record, "unrecorded": ~chose_record}
    return _assemble(cfg, log, x, subsets, tv=("recorded", "unrecorded"))


def _eraser_bench(
    cfg: ProtocolConfig, rng: np.random.Generator, slit: np.ndarray, kept: bool
) -> tuple[EventLog, np.ndarray]:
    """Eraser-bench routing: (log, to_which_way).

    Reflected idlers head to the slit-tagged detectors (slit 1 -> D3, slit 2
    -> D4), which detect them and, when ``kept``, write a persistent record;
    transmitted idlers merge and exit one of two ports (0 -> D1, 1 -> D2,
    which carries ``_D2_PHASE``), all registering ``delta_t_s`` after
    creation. Draw order after u_slit: u_route, u_port.
    """
    to_which_way = rng.random(cfg.n_pairs) < 0.5
    port = (rng.random(cfg.n_pairs) < 0.5).astype(np.int8)
    log = _base_log(cfg, slit, idler=True)
    # int8 selects by arithmetic: a splitter an idler skips reads -1, and
    # slit is 1 or 2, so 2 - slit flags slit 1
    w, s1 = to_which_way.view(np.int8), 2 - slit
    log.bs_a = s1 * (w + 1) - 1
    log.bs_b = (1 - s1) * (w + 1) - 1
    log.bs_c = (1 - w) * (port + 1) - 1
    log.detector = w * (slit + 2) + (1 - w) * (port + 1)
    _record(log, to_which_way, log.t_detector_s, kept)
    return log, to_which_way


def run_quantum_eraser(cfg: ProtocolConfig) -> RunResult:
    """Four-detector eraser bench with coincidence sorting.

    Reflected idlers land on the slit-tagged detectors and write a persistent
    which-way record; transmitted idlers merge, lose the tag, and exit to the
    two eraser ports, whose coincidence subsets carry complementary fringe
    phases (0 and pi/2) so the pooled screen marginal stays flat.
    Draw order: u_slit, u_route, u_port, u_x.
    """
    rng, slit = _draws(cfg, Protocol.QUANTUM_ERASER)
    log, _ = _eraser_bench(cfg, rng, slit, kept=True)
    x = _render(cfg, log, rng, log.t_detector_s, log.detector == 2)
    summary = _match_structured(log.t_signal_impact_s, log.t_detector_s, cfg.coincidence_window_s, cfg.delta_t_s)
    d = log.detector
    return _assemble(cfg, log, x, {"D1": d == 1, "D2": d == 2, "D3": d == 3, "D4": d == 4}, coincidences=summary)


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
    rng, slit = _draws(cfg, Protocol.DETECT_NO_RECORD)
    if cfg.variant is DetectNoRecordVariant.UNPLUGGED_DETECTORS:
        log = _base_log(cfg, slit)
        _record(log, True, log.t_signal_impact_s, kept=False)
        log.erased = 1  # the unplugged outputs keep nothing
        return _assemble(cfg, log, _render(cfg, log, rng, log.t_signal_impact_s))
    log, to_which_way = _eraser_bench(cfg, rng, slit, kept=False)
    d2 = log.detector == 2
    if cfg.variant is DetectNoRecordVariant.NO_COINCIDENCE_COUNTER:
        # detectors all fire but nothing can be sorted or kept
        if cfg.model.policy is RenderingPolicy.RENDER_AT_AVAILABILITY:
            d2 = None  # nothing sortable survives: the plain interference law
        return _assemble(cfg, log, _render(cfg, log, rng, log.t_detector_s, d2))
    # WHICH_WAY_CHANNELS_OFF: slit-tagged channels dead, those idlers register
    # nowhere; the pair still resolves delta_t_s after creation
    x = _render(cfg, log, rng, log.t_detector_s, d2)
    log.detector *= ~to_which_way
    _scatter(log.t_detector_s, to_which_way, np.nan)
    summary = _match_structured(log.t_signal_impact_s, log.t_detector_s, cfg.coincidence_window_s, cfg.delta_t_s)
    d = log.detector
    return _assemble(cfg, log, x, {"D1": d == 1, "D2": d == 2, "unsorted": d == 0}, coincidences=summary)


def run_macroscopic_erasure(cfg: ProtocolConfig) -> RunResult:
    """Persistent which-way records, half destroyed at a macroscopic delay.

    Destruction is an independent coin per pair (probability
    ``destruction_prob``) or an exact uniformly chosen half when
    ``pairing_mode`` asks for it. Draw order: u_slit, destruction draw, u_x.
    """
    rng, slit = _draws(cfg, Protocol.MACROSCOPIC_ERASURE)
    n = cfg.n_pairs
    log = _base_log(cfg, slit)
    if cfg.pairing_mode is PairingMode.EXACT_HALF_SUBSET:
        destroyed = rng.permutation(n) < n // 2
    else:
        destroyed = rng.random(n) < cfg.destruction_prob
    _record(log, True, log.t_signal_impact_s)
    log.erased = destroyed
    log.erased_at_s = _nan_except(destroyed, log.t_signal_impact_s + cfg.erasure_delay_s)
    x = _render(cfg, log, rng, log.t_signal_impact_s + cfg.erasure_delay_s)
    subsets = {"destroyed": destroyed, "surviving": ~destroyed}
    return _assemble(cfg, log, x, subsets, tv=("surviving", "destroyed"))


def run_predictor(cfg: ProtocolConfig) -> RunResult:
    """An in-simulation controller predicts the record bit from each impact.

    Half the pairs carry a persistent which-way record (R=1, structureless
    law), half are erased (R=0, interference law). The controller reads each
    impact coordinate as it lands — a read, not an observation — and predicts
    R=1 when the flat-pattern posterior exceeds one half. Draw order: u_slit,
    u_record, u_x.
    """
    rng, slit = _draws(cfg, Protocol.PREDICTOR)
    log = _base_log(cfg, slit, idler=True)
    recorded = rng.random(cfg.n_pairs) < 0.5
    _record(log, recorded, log.t_detector_s)
    x = _render(cfg, log, rng, log.t_detector_s)
    result = _assemble(cfg, log, x, {"recorded": recorded, "erased": ~recorded}, tv=("recorded", "erased"))
    result.predictor = _predictor_stats(cfg, x, recorded, result)
    return result


def _predictor_stats(cfg: ProtocolConfig, x: np.ndarray, recorded: np.ndarray, result: RunResult) -> PredictorStats:
    """Calibration on the pooled screen's bins: the recorded share of each
    bin's impacts, from the histograms ``result`` already holds."""
    # imported at call time, so a wrapper on ``stats.tv_distance`` (perfbench tracing) sees these calls
    from .stats import approx_posterior, tv_distance

    optics = cfg.optics
    edges, total = result.pooled.histogram.edges, result.pooled.histogram.counts
    hits = result.subsets["recorded"].histogram.counts
    centers = 0.5 * (edges[:-1] + edges[1:])
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
    rng, slit = _draws(cfg, Protocol.SWITCH_EXPERIMENT)
    if cfg.switch_stage is not SwitchStage.D:
        log = _base_log(cfg, slit, idler=True)
        log.erased = 1
        x = _render(cfg, log, rng, log.t_detector_s)
        log.t_detector_s = np.nan  # the idler resolves the pair but registers nowhere
        return _assemble(cfg, log, x)
    if cfg.outcome_hypothesis is OutcomeHypothesis.IV:
        log = _base_log(cfg, slit)
        log.observation_time_s = log.t_signal_impact_s
        return _assemble(cfg, log, log.signal_x_m, {}, markers=("discontinuity",))
    law, markers = _FIXED_LAWS.get(cfg.outcome_hypothesis, (None, ()))
    return _run_interval_rule(
        cfg,
        rng,
        slit,
        cfg.strategy.activation_region(cfg.optics),
        law,
        markers,
        "outcome_i_infeasible",
        ("switch_on", "switch_off"),
        lambda log, switch_on: _record(log, switch_on, log.t_detector_s),
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
    rng, slit = _draws(cfg, Protocol.PERISHABLE_MEDIA)
    rule = cfg.rule_intervals if cfg.rule_intervals is not None else optimal_interval_set(cfg.optics)
    region = IntervalSet.from_pairs(rule.intervals, window=cfg.optics.window)
    if cfg.recording_rule is RecordingRule.PERMANENT_ONLY:
        law, markers = None, ("branch_b",)
    else:
        law, markers = PatternKind.PARTICLE, ("branch_a",)

    def route(log: EventLog, copied: np.ndarray) -> None:
        _record(log, True, log.t_signal_impact_s)
        # a copy is persistent, whose code is one below the perishable one
        log.medium = _MEDIUM_CODES[Medium.PERISHABLE] - copied.view(np.int8)
        log.expires_at_s = _nan_except(~copied, log.t_signal_impact_s + cfg.ttl_s)
        log.erased = ~copied

    return _run_interval_rule(
        cfg, rng, slit, region, law, markers, "intent_adjustment_required", ("recorded", "perished"), route
    )


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
