"""Rendering policies and which-way availability bookkeeping.

Two policies decide which screen law a pair draws from. Under
``COLLAPSE_AT_DETECTION`` the mere firing of a which-way detector selects the
structureless law, whatever happens to the data afterwards. Under
``RENDER_AT_AVAILABILITY`` the structureless law is selected only if a
which-way record exists on an objective medium, unerased and unexpired, at the
query time; data that was detected but never written anywhere objective
(medium NONE), or held only in a subjective sense (VOLATILE), never counts.
Reads by in-simulation controllers are not observations and never enter this
logic; only the scheduled observation time does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .optics import ValidationError


class RenderingPolicy(Enum):
    COLLAPSE_AT_DETECTION = "collapse_at_detection"
    RENDER_AT_AVAILABILITY = "render_at_availability"


class AvailabilityHorizon(Enum):
    """When availability is evaluated under RENDER_AT_AVAILABILITY."""

    AT_IMPACT_TIME = "at_impact_time"
    AT_OBSERVATION_TIME = "at_observation_time"


@dataclass(frozen=True)
class RenderingModel:
    policy: RenderingPolicy
    availability_horizon: AvailabilityHorizon = AvailabilityHorizon.AT_OBSERVATION_TIME


class Medium(Enum):
    NONE = "none"
    VOLATILE = "volatile"
    PERSISTENT = "persistent"
    PERISHABLE = "perishable"


#: media whose contents count as objectively available (while alive)
OBJECTIVE_MEDIA = frozenset({Medium.PERSISTENT, Medium.PERISHABLE})


@dataclass(frozen=True)
class AvailabilityRecord:
    """Fate of one pair's which-way data.

    ``detected``: a which-way detector fired. ``recorded``: the outcome was
    written to an objective medium. ``erased_at``/``ttl_s`` bound the record's
    lifetime; ``observation_time`` is when the experimenter looks.
    """

    detected: bool
    recorded: bool
    medium: Medium = Medium.NONE
    detected_at: float | None = None
    erased_at: float | None = None
    ttl_s: float | None = None
    observation_time: float = 0.0

    def __post_init__(self) -> None:
        if self.recorded and not self.detected:
            raise ValidationError("recorded which-way data implies a detection (recorded => detected)")
        if self.recorded and self.medium not in OBJECTIVE_MEDIA:
            raise ValidationError(
                f"recorded=True requires an objective medium, got medium={self.medium.value}"
            )
        if self.medium is Medium.PERISHABLE:
            if self.ttl_s is None or not (self.ttl_s > 0):
                raise ValidationError("a perishable medium requires ttl_s > 0")
            if self.detected_at is None:
                raise ValidationError("a perishable medium requires detected_at (expiry = detected_at + ttl_s)")
        if (
            self.erased_at is not None
            and self.detected_at is not None
            and self.erased_at < self.detected_at
        ):
            raise ValidationError("erased_at must not precede detected_at")

    @property
    def expires_at(self) -> float | None:
        if self.medium is Medium.PERISHABLE:
            expiry = self.detected_at + self.ttl_s
            return expiry if math.isfinite(expiry) else None
        return None


def which_way_available(rec: AvailabilityRecord, model: RenderingModel, at: float | None = None) -> bool:
    """Whether which-way data selects the structureless law at time ``at``.

    ``at`` defaults to the record's observation time. COLLAPSE_AT_DETECTION
    answers from the detection flag alone; RENDER_AT_AVAILABILITY demands a
    live objective record at ``at``.
    """
    query_time = rec.observation_time if at is None else at
    if model.policy is RenderingPolicy.COLLAPSE_AT_DETECTION:
        return bool(rec.detected)
    if not rec.recorded or rec.medium not in OBJECTIVE_MEDIA:
        return False
    if rec.erased_at is not None and query_time >= rec.erased_at:
        return False
    expiry = rec.expires_at
    if expiry is not None and query_time >= expiry:
        return False
    return True


def available_mask(
    policy: RenderingPolicy,
    detected: np.ndarray,
    recorded: np.ndarray,
    objective: np.ndarray,
    erased_at: np.ndarray,
    expires_at: np.ndarray,
    at: np.ndarray | float,
) -> np.ndarray:
    """Vector form of :func:`which_way_available` over parallel record columns.

    ``erased_at``/``expires_at`` use NaN for "never"; ``objective`` flags media
    in :data:`OBJECTIVE_MEDIA`. Any of them may be a scalar that holds for
    every lane; the mask has the inputs' broadcast shape under both policies.
    """
    shape = np.broadcast_shapes(*map(np.shape, (detected, recorded, objective, erased_at, expires_at, at)))
    if policy is RenderingPolicy.COLLAPSE_AT_DETECTION:
        return np.broadcast_to(np.asarray(detected, dtype=bool), shape).copy()
    at = np.asarray(at, dtype=float)
    ok = np.broadcast_to(np.asarray(recorded, dtype=bool) & np.asarray(objective, dtype=bool), shape).copy()
    ok &= ~(np.isfinite(erased_at) & (at >= erased_at))
    ok &= ~(np.isfinite(expires_at) & (at >= expires_at))
    return ok


def availability_query_time(model: RenderingModel, impact_time, observation_time):
    """The time at which a protocol should evaluate availability."""
    if (
        model.policy is RenderingPolicy.RENDER_AT_AVAILABILITY
        and model.availability_horizon is AvailabilityHorizon.AT_IMPACT_TIME
    ):
        return impact_time
    return observation_time
