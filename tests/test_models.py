"""Availability records and the two rendering policies."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualitysim.models import (
    AvailabilityHorizon,
    AvailabilityRecord,
    Medium,
    OBJECTIVE_MEDIA,
    RenderingModel,
    RenderingPolicy,
    availability_query_time,
    available_mask,
    which_way_available,
)
from dualitysim.optics import ValidationError

COLLAPSE = RenderingModel(RenderingPolicy.COLLAPSE_AT_DETECTION)
RENDER = RenderingModel(RenderingPolicy.RENDER_AT_AVAILABILITY)


def persistent(**kw):
    base = dict(detected=True, recorded=True, medium=Medium.PERSISTENT, detected_at=0.0, observation_time=10.0)
    base.update(kw)
    return AvailabilityRecord(**base)


class TestAvailabilityRecord:
    def test_objective_media(self):
        assert Medium.PERSISTENT in OBJECTIVE_MEDIA
        assert Medium.PERISHABLE in OBJECTIVE_MEDIA
        assert Medium.VOLATILE not in OBJECTIVE_MEDIA

    def test_recorded_requires_detection(self):
        with pytest.raises(ValidationError):
            AvailabilityRecord(detected=False, recorded=True, medium=Medium.PERSISTENT)

    def test_recorded_requires_objective_medium(self):
        with pytest.raises(ValidationError):
            AvailabilityRecord(detected=True, recorded=True, medium=Medium.VOLATILE)

    def test_perishable_needs_ttl_and_timestamp(self):
        with pytest.raises(ValidationError):
            AvailabilityRecord(detected=True, recorded=True, medium=Medium.PERISHABLE, detected_at=0.0)
        rec = AvailabilityRecord(detected=True, recorded=True, medium=Medium.PERISHABLE, detected_at=1.0, ttl_s=5.0)
        assert rec.expires_at == 6.0

    def test_infinite_ttl_never_expires(self):
        rec = AvailabilityRecord(
            detected=True, recorded=True, medium=Medium.PERISHABLE, detected_at=1.0, ttl_s=math.inf
        )
        assert rec.expires_at is None
        assert which_way_available(rec, RENDER, at=1e12)

    def test_erasure_cannot_precede_detection(self):
        with pytest.raises(ValidationError):
            persistent(erased_at=-1.0)


class TestWhichWayAvailable:
    def test_collapse_needs_only_detection(self):
        rec = AvailabilityRecord(detected=True, recorded=False, medium=Medium.NONE)
        assert which_way_available(rec, COLLAPSE)
        assert not which_way_available(AvailabilityRecord(detected=False, recorded=False), COLLAPSE)

    def test_render_needs_live_objective_record(self):
        assert which_way_available(persistent(), RENDER)
        unrecorded = AvailabilityRecord(detected=True, recorded=False, medium=Medium.NONE, observation_time=10.0)
        assert not which_way_available(unrecorded, RENDER)

    def test_erased_record_is_gone_at_the_erasure_instant(self):
        rec = persistent(erased_at=5.0)
        assert which_way_available(rec, RENDER, at=4.999)
        assert not which_way_available(rec, RENDER, at=5.0)
        assert not which_way_available(rec, RENDER, at=6.0)
        # collapse never un-detects
        assert which_way_available(rec, COLLAPSE, at=6.0)

    def test_perishable_expiry_boundary(self):
        rec = AvailabilityRecord(
            detected=True, recorded=True, medium=Medium.PERISHABLE, detected_at=0.0, ttl_s=2.0
        )
        assert which_way_available(rec, RENDER, at=1.999)
        assert not which_way_available(rec, RENDER, at=2.0)

    def test_default_query_time_is_the_observation_time(self):
        rec = persistent(erased_at=5.0, observation_time=7.0)
        assert not which_way_available(rec, RENDER)
        assert which_way_available(rec, RENDER, at=0.0)


class TestAvailabilityQueryTime:
    def test_horizons(self):
        at_impact = RenderingModel(RenderingPolicy.RENDER_AT_AVAILABILITY, AvailabilityHorizon.AT_IMPACT_TIME)
        assert availability_query_time(at_impact, 1.0, 9.0) == 1.0
        assert availability_query_time(RENDER, 1.0, 9.0) == 9.0
        # the collapse policy ignores the horizon entirely
        assert availability_query_time(COLLAPSE, 1.0, 9.0) == 9.0


record_strategy = st.builds(
    dict,
    detected=st.booleans(),
    recorded=st.booleans(),
    objective=st.booleans(),
    erased_at=st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    expires_at=st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    at=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@given(rows=st.lists(record_strategy, min_size=1, max_size=12), policy=st.sampled_from(list(RenderingPolicy)))
def test_available_mask_matches_scalar_logic(rows, policy):
    """The vectorized mask agrees with the one-record definition, row by row."""
    detected = np.array([r["detected"] for r in rows])
    recorded = np.array([r["recorded"] and r["detected"] and r["objective"] for r in rows])
    objective = np.array([r["objective"] for r in rows])
    erased_at = np.array([math.nan if r["erased_at"] is None else r["erased_at"] for r in rows])
    expires_at = np.array([math.nan if r["expires_at"] is None else r["expires_at"] for r in rows])
    at = np.array([r["at"] for r in rows])
    got = available_mask(policy, detected, recorded, objective, erased_at, expires_at, at)
    for i, r in enumerate(rows):
        if policy is RenderingPolicy.COLLAPSE_AT_DETECTION:
            want = detected[i]
        else:
            want = bool(recorded[i]) and bool(objective[i])
            if not math.isnan(erased_at[i]) and at[i] >= erased_at[i]:
                want = False
            if not math.isnan(expires_at[i]) and at[i] >= expires_at[i]:
                want = False
        assert bool(got[i]) == bool(want)


@given(
    row=record_strategy,
    n=st.integers(1, 4),
    as_array=st.lists(st.booleans(), min_size=6, max_size=6),
    model=st.sampled_from([COLLAPSE, RENDER]),
)
def test_available_mask_broadcasts_scalar_columns(row, n, as_array, model):
    """Each record column may be one scalar for every lane or an array; under
    both policies the mask has the inputs' broadcast shape and agrees with
    ``which_way_available`` on the one record they describe."""
    recorded = row["recorded"] and row["detected"] and row["objective"]
    perishable = row["objective"] and row["expires_at"] is not None
    medium = Medium.PERISHABLE if perishable else Medium.PERSISTENT if row["objective"] else Medium.NONE
    rec = AvailabilityRecord(
        detected=row["detected"],
        recorded=recorded,
        medium=medium,
        detected_at=-1.0,
        erased_at=row["erased_at"],
        ttl_s=row["expires_at"] + 1.0 if perishable else None,
    )
    columns = [
        row["detected"],
        recorded,
        row["objective"],
        math.nan if row["erased_at"] is None else row["erased_at"],
        rec.expires_at if perishable else math.nan,
        row["at"],
    ]
    args = [np.full(n, value) if array else value for value, array in zip(columns, as_array)]
    got = available_mask(model.policy, *args)
    assert got.shape == ((n,) if any(as_array) else ())
    assert got.dtype == bool
    assert (got == which_way_available(rec, model, at=row["at"])).all()
