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

from dataclasses import dataclass
from enum import Enum

import numpy as np


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


def available_mask(
    policy: RenderingPolicy,
    detected: np.ndarray,
    recorded: np.ndarray,
    objective: np.ndarray,
    erased_at: np.ndarray,
    expires_at: np.ndarray,
    at: np.ndarray | float,
) -> np.ndarray:
    """Whether each lane's which-way data selects the structureless law at
    time ``at``, over parallel record columns.

    COLLAPSE_AT_DETECTION answers from ``detected`` alone;
    RENDER_AT_AVAILABILITY demands a record on an objective medium that is
    neither erased nor expired at ``at``. ``erased_at``/``expires_at`` use
    NaN for "never"; ``objective`` flags media in :data:`OBJECTIVE_MEDIA`.
    Any of them may be a scalar that holds for every lane; the mask has the
    inputs' broadcast shape under both policies.
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
