"""Manifest schema, canonical serialization, report emission, CLI exit codes."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualitysim import protocols
from dualitysim.cli import (
    ManifestError,
    ManifestRun,
    RunManifest,
    ascii_histogram,
    canonical_json,
    execute_manifest,
    main,
    parse_manifest,
    serialize_manifest,
)
from dualitysim.models import AvailabilityHorizon, RenderingModel, RenderingPolicy
from dualitysim.optics import IntervalSet, OpticsConfig, ValidationError, fringe_aligned_edges
from dualitysim.protocols import (
    DetectNoRecordVariant,
    ObservationSchedule,
    OutcomeHypothesis,
    PairingMode,
    Protocol,
    ProtocolConfig,
    RecordingRule,
    SwitchStage,
    SwitchStrategy,
    run_protocol,
)

MINIMAL = '{"runs": [{"name": "only", "protocol": "double_slit"}]}'


def manifest_doc(*run_objs, **top):
    doc = {"runs": list(run_objs)}
    doc.update(top)
    return json.dumps(doc)


class TestParsing:
    def test_minimal_manifest_defaults(self):
        m = parse_manifest(MINIMAL)
        assert m.out_dir == "runs"
        assert m.formats == frozenset({"json"})
        assert m.seed_override is None
        assert m.name is None
        run = m.runs[0]
        assert run.name == "only"
        assert run.config.protocol is Protocol.DOUBLE_SLIT
        assert run.config.seed == 0

    def test_null_values_mean_absent(self):
        m = parse_manifest(manifest_doc({"name": "a", "protocol": "double_slit", "seed": None, "optics": None}))
        assert m.runs[0].config.seed == 0

    @pytest.mark.parametrize(
        "text,needle",
        [
            (manifest_doc({"name": "a", "protocol": "double_slit"}, bogus=1), "manifest.bogus: unknown key"),
            (manifest_doc({"name": "a", "protocol": "double_slit", "bogus": 1}), "runs[0].bogus: unknown key"),
            (
                manifest_doc({"name": "a", "protocol": "double_slit", "optics": {"bogus": 1}}),
                "runs[0].optics.bogus: unknown key",
            ),
            (
                manifest_doc({"name": "a", "protocol": "double_slit", "model": {"policy": "collapse_at_detection", "bogus": 1}}),
                "runs[0].model.bogus: unknown key",
            ),
            (
                manifest_doc(
                    {
                        "name": "a",
                        "protocol": "switch_experiment",
                        "switch_stage": "d",
                        "observation_schedule": "at_t0",
                        "outcome_hypothesis": "ii",
                        "strategy": {"kind": "always_on", "bogus": 1},
                    }
                ),
                "runs[0].strategy.bogus: unknown key",
            ),
        ],
    )
    def test_unknown_keys_name_their_full_path(self, text, needle):
        with pytest.raises(ManifestError) as err:
            parse_manifest(text)
        assert needle in str(err.value)

    def test_unknown_enum_value_lists_the_choices(self):
        with pytest.raises(ManifestError) as err:
            parse_manifest(manifest_doc({"name": "a", "protocol": "quux"}))
        message = str(err.value)
        assert "runs[0].protocol" in message
        assert "'double_slit'" in message and "'quantum_eraser'" in message

    def test_duplicate_run_names_are_rejected(self):
        text = manifest_doc(
            {"name": "same", "protocol": "double_slit"},
            {"name": "same", "protocol": "predictor"},
        )
        with pytest.raises(ManifestError, match="repeats"):
            parse_manifest(text)

    @pytest.mark.parametrize("text", ["{}", '{"runs": []}', '{"runs": 3}', "[1, 2]", "not json"])
    def test_a_nonempty_run_list_is_required(self, text):
        with pytest.raises(ManifestError):
            parse_manifest(text)

    def test_run_names_are_path_safe(self):
        with pytest.raises(ManifestError, match="name"):
            parse_manifest(manifest_doc({"name": "has space", "protocol": "double_slit"}))

    def test_ttl_accepts_the_inf_sentinel(self):
        text = manifest_doc(
            {"name": "p", "protocol": "perishable_media", "observation_schedule": "at_t0", "ttl_s": "inf"}
        )
        cfg = parse_manifest(text).runs[0].config
        assert math.isinf(cfg.ttl_s)

    def test_only_ttl_accepts_inf(self):
        text = manifest_doc({"name": "a", "protocol": "double_slit", "delta_t_s": "inf"})
        with pytest.raises(ManifestError, match="delta_t_s"):
            parse_manifest(text)

    def test_rule_intervals_parse_into_an_interval_set(self):
        text = manifest_doc(
            {
                "name": "p",
                "protocol": "perishable_media",
                "observation_schedule": "at_t0",
                "rule_intervals": [[-1.75e-4, 1.75e-4]],
            }
        )
        cfg = parse_manifest(text).runs[0].config
        assert cfg.rule_intervals.intervals.tolist() == [[-1.75e-4, 1.75e-4]]

    def test_rule_intervals_outside_the_window_fail_at_parse_time(self):
        text = manifest_doc(
            {
                "name": "p",
                "protocol": "perishable_media",
                "observation_schedule": "at_t0",
                "rule_intervals": [[-1.0, 1.0]],
            }
        )
        with pytest.raises(ManifestError, match="rule_intervals"):
            parse_manifest(text)

    def test_strategy_intervals_are_checked_against_the_run_optics(self):
        text = manifest_doc(
            {
                "name": "s",
                "protocol": "switch_experiment",
                "switch_stage": "d",
                "observation_schedule": "at_t0",
                "outcome_hypothesis": "i",
                "strategy": {"kind": "strategy_1", "intervals": [[-1.0, 1.0]]},
            }
        )
        with pytest.raises(ManifestError, match="strategy.intervals"):
            parse_manifest(text)

    def test_config_invariants_surface_with_the_run_path(self):
        text = manifest_doc(
            {"name": "a", "protocol": "double_slit", "delta_t_s": 1e-9, "coincidence_window_s": 1e-9}
        )
        with pytest.raises(ManifestError, match=r"runs\[0\]"):
            parse_manifest(text)

    def test_the_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("A manifest is a JSON object:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        m = parse_manifest(example)
        assert [run.name for run in m.runs] == ["eraser", "erasure-render"]
        assert m.runs[0].config.model.policy is RenderingPolicy.RENDER_AT_AVAILABILITY
        assert m.formats == frozenset({"json", "ascii"})

    def test_ascii_histogram_alias(self):
        m = parse_manifest(manifest_doc({"name": "a", "protocol": "double_slit"}, formats=["ascii-histogram"]))
        assert m.formats == frozenset({"ascii"})
        with pytest.raises(ManifestError, match="formats"):
            parse_manifest(manifest_doc({"name": "a", "protocol": "double_slit"}, formats=["svg"]))



PROTOCOL_CHOICES = (
    "'double_slit', 'delayed_choice', 'quantum_eraser', 'detect_no_record', "
    "'macroscopic_erasure', 'predictor', 'switch_experiment', 'perishable_media'"
)
RUN_KEYS = (
    "choice_record_prob, coincidence_window_s, delta_t_s, destruction_prob, detectors_recording, "
    "erasure_delay_s, model, n_pairs, name, noise_threshold, observation_schedule, optics, "
    "outcome_hypothesis, pairing_mode, protocol, recording_rule, rule_intervals, seed, strategy, "
    "switch_stage, ttl_s, variant"
)
PLAIN = {"name": "a", "protocol": "double_slit"}
PERISHABLE = {"name": "p", "protocol": "perishable_media", "observation_schedule": "at_t0"}
STAGE_D = {
    "name": "s",
    "protocol": "switch_experiment",
    "switch_stage": "d",
    "observation_schedule": "at_t0",
    "outcome_hypothesis": "ii",
}


def one_run(base, **keys):
    return {"runs": [{**base, **keys}]}


def stage_d(**strategy):
    return one_run(STAGE_D, strategy=strategy)


#: (case, manifest document, exact error text), one fault per document
ERROR_TEXTS = [
    ("int-string", one_run(PLAIN, n_pairs="10"), "runs[0].n_pairs: expected an integer, got '10'"),
    ("int-float", one_run(PLAIN, seed=1.5), "runs[0].seed: expected an integer, got 1.5"),
    ("int-bool", one_run(PLAIN, n_pairs=True), "runs[0].n_pairs: expected an integer, got True"),
    ("float-string", one_run(PLAIN, delta_t_s="x"), "runs[0].delta_t_s: expected a number, got 'x'"),
    (
        "float-bool",
        one_run(STAGE_D, noise_threshold=True, strategy={"kind": "always_on"}),
        "runs[0].noise_threshold: expected a number, got True",
    ),
    (
        "float-optics",
        one_run(PLAIN, optics={"wavelength_m": "7e-7"}),
        "runs[0].optics.wavelength_m: expected a number, got '7e-7'",
    ),
    ("bool-int", one_run(PLAIN, detectors_recording=1), "runs[0].detectors_recording: expected true or false, got 1"),
    (
        "bool-optics",
        one_run(PLAIN, optics={"envelope_enabled": "yes"}),
        "runs[0].optics.envelope_enabled: expected true or false, got 'yes'",
    ),
    ("enum-protocol", one_run(PLAIN, protocol="quux"), f"runs[0].protocol: 'quux' is not one of: {PROTOCOL_CHOICES}"),
    (
        "enum-run",
        one_run(PLAIN, variant="x"),
        "runs[0].variant: 'x' is not one of: 'unplugged_detectors', 'no_coincidence_counter', 'which_way_channels_off'",
    ),
    (
        "enum-policy",
        one_run(PLAIN, model={"policy": "x"}),
        "runs[0].model.policy: 'x' is not one of: 'collapse_at_detection', 'render_at_availability'",
    ),
    (
        "enum-horizon",
        one_run(PLAIN, model={"policy": "collapse_at_detection", "availability_horizon": 3}),
        "runs[0].model.availability_horizon: 3 is not one of: 'at_impact_time', 'at_observation_time'",
    ),
    (
        "enum-kind",
        stage_d(kind="x"),
        "runs[0].strategy.kind: 'x' is not one of: 'always_off', 'always_on', 'strategy_1', 'custom'",
    ),
    ("inf-delta_t_s", one_run(PLAIN, delta_t_s="inf"), "runs[0].delta_t_s: expected a number, got 'inf'"),
    (
        "inf-slit_width_m",
        one_run(PLAIN, optics={"slit_width_m": "inf"}),
        "runs[0].optics.slit_width_m: expected a number, got 'inf'",
    ),
    (
        "inf-table_edges",
        stage_d(kind="custom", table_edges=[0.0, "inf"], table_activate=[True]),
        "runs[0].strategy.table_edges[1]: expected a number, got 'inf'",
    ),
    ("ttl-not-a-number", one_run(PERISHABLE, ttl_s="forever"), "runs[0].ttl_s: expected a number, got 'forever'"),
    ("null-protocol", one_run(PLAIN, protocol=None), f"runs[0].protocol: None is not one of: {PROTOCOL_CHOICES}"),
    (
        "null-policy",
        one_run(PLAIN, model={"policy": None}),
        "runs[0].model.policy: None is not one of: 'collapse_at_detection', 'render_at_availability'",
    ),
    (
        "null-kind",
        stage_d(kind=None),
        "runs[0].strategy.kind: None is not one of: 'always_off', 'always_on', 'strategy_1', 'custom'",
    ),
    (
        "unknown-top",
        {**one_run(PLAIN), "bogus": 1},
        "manifest.bogus: unknown key (allowed: formats, name, out_dir, runs, seed)",
    ),
    ("unknown-run", one_run(PLAIN, bogus=1), f"runs[0].bogus: unknown key (allowed: {RUN_KEYS})"),
    (
        "unknown-optics",
        one_run(PLAIN, optics={"bogus": 1}),
        "runs[0].optics.bogus: unknown key (allowed: envelope_enabled, screen_halfwidth_m, "
        "slit_screen_distance_m, slit_separation_m, slit_width_m, wavelength_m)",
    ),
    (
        "unknown-model",
        one_run(PLAIN, model={"policy": "collapse_at_detection", "bogus": 1}),
        "runs[0].model.bogus: unknown key (allowed: availability_horizon, policy)",
    ),
    (
        "unknown-strategy",
        stage_d(kind="always_on", bogus=1),
        "runs[0].strategy.bogus: unknown key (allowed: intervals, kind, table_activate, table_edges)",
    ),
    ("required-name", {"runs": [{"protocol": "double_slit"}]}, "runs[0].name: required"),
    ("required-protocol", {"runs": [{"name": "a"}]}, "runs[0].protocol: required"),
    (
        "required-policy",
        one_run(PLAIN, model={"availability_horizon": "at_impact_time"}),
        "runs[0].model.policy: required",
    ),
    ("required-kind", stage_d(intervals=[[0.0, 1e-4]]), "runs[0].strategy.kind: required"),
    ("name-type", one_run(PLAIN, name=3), "runs[0].name: expected a string, got int"),
    ("name-pattern", one_run(PLAIN, name="has space"), "runs[0].name: 'has space' must match ^[A-Za-z0-9._-]+$"),
    ("run-not-object", {"runs": [3]}, "runs[0]: expected an object, got int"),
    ("optics-not-object", one_run(PLAIN, optics=3), "runs[0].optics: expected an object, got int"),
    ("model-not-object", one_run(PLAIN, model="collapse_at_detection"), "runs[0].model: expected an object, got str"),
    ("strategy-not-object", one_run(STAGE_D, strategy=[]), "runs[0].strategy: expected an object, got list"),
    (
        "table_edges-not-list",
        stage_d(kind="custom", table_edges="x", table_activate=[True]),
        "runs[0].strategy.table_edges: expected a list of numbers",
    ),
    (
        "table_edges-item",
        stage_d(kind="custom", table_edges=[0.0, "x"], table_activate=[True]),
        "runs[0].strategy.table_edges[1]: expected a number, got 'x'",
    ),
    (
        "table_activate-not-list",
        stage_d(kind="custom", table_edges=[0.0, 1e-4], table_activate=1),
        "runs[0].strategy.table_activate: expected a list of booleans",
    ),
    (
        "table_activate-item",
        stage_d(kind="custom", table_edges=[0.0, 1e-4], table_activate=[1]),
        "runs[0].strategy.table_activate[0]: expected true or false, got 1",
    ),
    # the interval shape errors name their path once (the parent printed it twice)
    (
        "rule_intervals-not-list",
        one_run(PERISHABLE, rule_intervals=5),
        "runs[0].rule_intervals: expected a list of [lo, hi] pairs",
    ),
    (
        "rule_intervals-short-pair",
        one_run(PERISHABLE, rule_intervals=[[0.0]]),
        "runs[0].rule_intervals[0]: expected a [lo, hi] pair",
    ),
    (
        "rule_intervals-not-a-number",
        one_run(PERISHABLE, rule_intervals=[[0.0, "x"]]),
        "runs[0].rule_intervals[0][1]: expected a number, got 'x'",
    ),
    (
        "rule_intervals-empty-interval",
        one_run(PERISHABLE, rule_intervals=[[1e-4, 0.0]]),
        "runs[0].rule_intervals: interval must have finite lo < hi, got (0.0001, 0.0)",
    ),
    (
        "rule_intervals-overlap",
        one_run(PERISHABLE, rule_intervals=[[0.0, 1e-4], [5e-5, 2e-4]]),
        "runs[0].rule_intervals: intervals overlap near x=5e-05; they must be disjoint",
    ),
    (
        "rule_intervals-out-of-window",
        one_run(PERISHABLE, rule_intervals=[[-1.0, 1.0]]),
        "runs[0].rule_intervals: interval (-1.0, 1.0) leaves the screen window [-0.00035, 0.00035]",
    ),
    (
        "strategy.intervals-not-list",
        stage_d(kind="strategy_1", intervals={"lo": 0}),
        "runs[0].strategy.intervals: expected a list of [lo, hi] pairs",
    ),
    (
        "strategy.intervals-short-pair",
        stage_d(kind="strategy_1", intervals=[[0.0, 1e-4, 2e-4]]),
        "runs[0].strategy.intervals[0]: expected a [lo, hi] pair",
    ),
    (
        "strategy.intervals-not-a-number",
        stage_d(kind="strategy_1", intervals=[[None, 1e-4]]),
        "runs[0].strategy.intervals[0][0]: expected a number, got None",
    ),
    (
        "strategy.intervals-overlap",
        stage_d(kind="strategy_1", intervals=[[0.0, 1e-4], [5e-5, 2e-4]]),
        "runs[0].strategy.intervals: intervals overlap near x=5e-05; they must be disjoint",
    ),
    (
        "strategy.intervals-out-of-window",
        stage_d(kind="strategy_1", intervals=[[-1.0, 1.0]]),
        "runs[0].strategy.intervals: interval (-1.0, 1.0) leaves the screen window [-0.00035, 0.00035]",
    ),
    (
        "constructor-optics",
        one_run(PLAIN, optics={"slit_width_m": 2e-3}),
        "runs[0].optics: slit_width_m must be positive and smaller than slit_separation_m, got 0.002",
    ),
    (
        "constructor-optics-negative",
        one_run(PLAIN, optics={"wavelength_m": -1.0}),
        "runs[0].optics: wavelength_m must be a positive finite number, got -1.0",
    ),
    (
        "constructor-strategy-lengths",
        stage_d(kind="custom", table_edges=[0.0, 1e-4], table_activate=[True, False]),
        "runs[0].strategy: custom strategy needs len(table_edges) == len(table_activate) + 1",
    ),
    # JSON's NaN and -Infinity parse as floats; an edge that bounds only
    # inactive cells is read by no region, and its report would not parse back
    (
        "constructor-strategy-nan-edge",
        stage_d(kind="custom", table_edges=[-1e-4, 0.0, math.nan], table_activate=[True, False]),
        "runs[0].strategy: custom strategy table_edges must be finite",
    ),
    (
        "constructor-strategy-infinite-edge",
        stage_d(kind="custom", table_edges=[-math.inf, -1e-4, 0.0], table_activate=[False, True]),
        "runs[0].strategy: custom strategy table_edges must be finite",
    ),
    (
        "constructor-strategy-params",
        stage_d(kind="always_on", intervals=[[0.0, 1e-4]]),
        "runs[0].strategy: strategy kind always_on takes no parameters",
    ),
    (
        "constructor-strategy-missing",
        stage_d(kind="strategy_1"),
        "runs[0].strategy: strategy_1 requires an interval set (possibly empty)",
    ),
    (
        "constructor-run-window",
        one_run(PLAIN, delta_t_s=1e-9, coincidence_window_s=1e-9),
        "runs[0]: coincidence_window_s must satisfy 0 < window < delta_t_s (one pair in flight per interval); "
        "got window=1e-09, delta_t_s=1e-09",
    ),
    ("constructor-run-n_pairs", one_run(PLAIN, n_pairs=0), "runs[0]: n_pairs must be a positive integer, got 0"),
    ("constructor-run-stage-d", one_run(STAGE_D), "runs[0]: switch stage d requires both strategy and outcome_hypothesis"),
    (
        "constructor-run-rule_intervals",
        one_run(PLAIN, rule_intervals=[[0.0, 1e-4]]),
        "runs[0]: rule_intervals is only meaningful for the perishable_media protocol",
    ),
    ("manifest-formats-not-list", {**one_run(PLAIN), "formats": "json"}, "manifest.formats: expected a list"),
    (
        "manifest-formats-item",
        {**one_run(PLAIN), "formats": ["svg"]},
        "manifest.formats[0]: 'svg' is not one of: 'json', 'csv', 'ascii' (or 'ascii-histogram')",
    ),
    ("manifest-out_dir", {**one_run(PLAIN), "out_dir": 3}, "manifest.out_dir: expected a string, got int"),
    ("manifest-seed", {**one_run(PLAIN), "seed": "x"}, "manifest.seed: expected an integer, got 'x'"),
    (
        "manifest-seed-negative",
        {**one_run(PLAIN), "seed": -1},
        "manifest.seed: seed must be an integer in [0, 2**64), got -1",
    ),
    (
        "manifest-seed-too-large",
        {**one_run(PLAIN), "seed": 2**64},
        "manifest.seed: seed must be an integer in [0, 2**64), got 18446744073709551616",
    ),
    ("manifest-name", {**one_run(PLAIN), "name": 3}, "manifest.name: expected a string, got int"),
    ("manifest-runs", {"runs": []}, "manifest.runs: a nonempty list of runs is required"),
    ("manifest-not-object", [1, 2], "manifest: expected an object, got list"),
    ("manifest-duplicate", {"runs": [PLAIN, PLAIN]}, "manifest.runs: run names must be unique, 'a' repeats"),
]


class TestErrorTexts:
    @pytest.mark.parametrize("doc,text", [case[1:] for case in ERROR_TEXTS], ids=[case[0] for case in ERROR_TEXTS])
    def test_single_fault_texts_are_pinned(self, doc, text):
        with pytest.raises(ManifestError) as err:
            parse_manifest(json.dumps(doc))
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "faults,reported",
        [
            ({"seed": "x", "n_pairs": "y"}, "n_pairs"),
            ({"variant": "x", "destruction_prob": "y"}, "variant"),
            ({"ttl_s": "x", "optics": {"wavelength_m": "y"}}, "optics.wavelength_m"),
            ({"rule_intervals": 5, "model": {"policy": "x"}}, "model.policy"),
        ],
    )
    def test_the_first_bad_field_in_field_order_is_reported(self, faults, reported):
        """Several bad fields: the error names the first in ProtocolConfig field order."""
        with pytest.raises(ManifestError) as err:
            parse_manifest(json.dumps(one_run(PLAIN, **faults)))
        assert str(err.value).startswith(f"runs[0].{reported}: ")


GRID = st.integers(-349, 349).map(lambda k: k * 1e-6)


@st.composite
def grid_interval_pairs(draw, max_pairs=2):
    k = draw(st.integers(1, max_pairs))
    pts = sorted(draw(st.lists(st.integers(-349, 349), min_size=2 * k, max_size=2 * k, unique=True)))
    return [(lo * 1e-6, hi * 1e-6) for lo, hi in zip(pts[0::2], pts[1::2])]


@st.composite
def strategies_(draw):
    which = draw(st.integers(0, 3))
    if which == 0:
        return SwitchStrategy.always_off()
    if which == 1:
        return SwitchStrategy.always_on()
    if which == 2:
        return SwitchStrategy.strategy_1(IntervalSet.from_pairs(draw(grid_interval_pairs())))
    edges = sorted(draw(st.lists(st.integers(-349, 349), min_size=2, max_size=5, unique=True)))
    activate = draw(st.lists(st.booleans(), min_size=len(edges) - 1, max_size=len(edges) - 1))
    return SwitchStrategy.custom([e * 1e-6 for e in edges], activate)


@st.composite
def optics_configs(draw):
    separation = draw(st.floats(1e-4, 1e-2))
    return OpticsConfig(
        wavelength_m=draw(st.floats(4e-7, 1e-6)),
        slit_separation_m=separation,
        slit_screen_distance_m=draw(st.floats(0.5, 2.0)),
        screen_halfwidth_m=draw(st.floats(1e-4, 1e-3)),
        envelope_enabled=draw(st.booleans()),
        slit_width_m=draw(st.one_of(st.none(), st.floats(0.05, 0.5).map(lambda f: f * separation))),
    )


@st.composite
def run_configs(draw):
    protocol = draw(st.sampled_from(list(Protocol)))
    kwargs = {
        "protocol": protocol,
        "n_pairs": draw(st.integers(1, 10_000)),
        "seed": draw(st.integers(0, 2**63)),
        "model": RenderingModel(
            draw(st.sampled_from(list(RenderingPolicy))),
            draw(st.sampled_from(list(AvailabilityHorizon))),
        ),
    }
    if draw(st.booleans()):
        kwargs["optics"] = draw(optics_configs())
    if protocol is Protocol.DELAYED_CHOICE:
        kwargs["choice_record_prob"] = draw(st.floats(0, 1, allow_nan=False))
    elif protocol is Protocol.DETECT_NO_RECORD:
        kwargs["variant"] = draw(st.sampled_from(list(DetectNoRecordVariant)))
    elif protocol is Protocol.MACROSCOPIC_ERASURE:
        kwargs["pairing_mode"] = draw(st.sampled_from(list(PairingMode)))
        if kwargs["pairing_mode"] is PairingMode.EXACT_HALF_SUBSET and kwargs["n_pairs"] % 2:
            kwargs["n_pairs"] += 1
        kwargs["destruction_prob"] = draw(st.floats(0, 1, allow_nan=False))
        kwargs["erasure_delay_s"] = draw(st.floats(1e-3, 1e4, allow_nan=False))
    elif protocol is Protocol.SWITCH_EXPERIMENT:
        stage = draw(st.sampled_from(list(SwitchStage)))
        kwargs["switch_stage"] = stage
        if stage is SwitchStage.D:
            kwargs["observation_schedule"] = ObservationSchedule.AT_T0
            kwargs["strategy"] = draw(strategies_())
            kwargs["outcome_hypothesis"] = draw(st.sampled_from(list(OutcomeHypothesis)))
            kwargs["noise_threshold"] = draw(st.floats(0.1, 1.0, allow_nan=False))
            kwargs.pop("optics", None)  # strategy grids assume the default window
    elif protocol is Protocol.PERISHABLE_MEDIA:
        kwargs["observation_schedule"] = ObservationSchedule.AT_T0
        kwargs["recording_rule"] = draw(st.sampled_from(list(RecordingRule)))
        kwargs["ttl_s"] = draw(st.sampled_from([1e-3, 60.0, math.inf]))
        if draw(st.booleans()):
            kwargs["rule_intervals"] = IntervalSet.from_pairs(draw(grid_interval_pairs()))
            kwargs.pop("optics", None)
    return ProtocolConfig(**kwargs)


@st.composite
def manifests(draw):
    configs = draw(st.lists(run_configs(), min_size=1, max_size=3))
    runs = tuple(ManifestRun(name=f"run{i}", config=cfg) for i, cfg in enumerate(configs))
    formats = frozenset(draw(st.sets(st.sampled_from(["json", "csv", "ascii"]), min_size=1)))
    return RunManifest(
        runs=runs,
        out_dir="out",
        formats=formats,
        seed_override=draw(st.one_of(st.none(), st.integers(0, 2**32))),
        name=draw(st.one_of(st.none(), st.just("suite"))),
    )


#: a manifest with the rare draws in it: every optics field, ttl_s = inf, a custom table
RARE_DRAWS = RunManifest(
    runs=(
        ManifestRun(
            "optics",
            ProtocolConfig(
                protocol=Protocol.DOUBLE_SLIT,
                optics=OpticsConfig(6.5e-7, 2e-3, 1.5, 4e-4, envelope_enabled=True, slit_width_m=3e-4),
            ),
        ),
        ManifestRun(
            "forever",
            ProtocolConfig(
                protocol=Protocol.PERISHABLE_MEDIA,
                observation_schedule=ObservationSchedule.AT_T0,
                ttl_s=math.inf,
                rule_intervals=IntervalSet.from_pairs([(-1e-4, 0.0), (5e-5, 2e-4)]),
            ),
        ),
        ManifestRun(
            "table",
            ProtocolConfig(
                protocol=Protocol.SWITCH_EXPERIMENT,
                switch_stage=SwitchStage.D,
                observation_schedule=ObservationSchedule.AT_T0,
                strategy=SwitchStrategy.custom([-2e-4, 0.0, 1e-4, 3e-4], [True, False, True]),
                outcome_hypothesis=OutcomeHypothesis.III,
            ),
        ),
    ),
    out_dir="out",
    formats=frozenset({"json", "csv"}),
    seed_override=5,
    name="rare",
)


class TestRoundTrip:
    @given(manifest=manifests())
    @example(manifest=RARE_DRAWS)
    @settings(max_examples=40, deadline=None)
    def test_serialize_then_parse_is_identity(self, manifest):
        assert parse_manifest(serialize_manifest(manifest)) == manifest

    def test_canonical_json_is_stable_and_total(self):
        doc = {"b": float("nan"), "a": [float("inf"), -float("inf"), 1.25]}
        text = canonical_json(doc)
        assert text == canonical_json(doc)
        assert json.loads(text) == {"a": ["inf", "-inf", 1.25], "b": None}
        assert text.endswith("\n")
        edge = {
            "scalars": [np.float32(0.5), np.int64(-3), np.bool_(True), np.float64("nan")],
            "negative_zero": -0.0,
            "array": np.array([1.0, np.nan, np.inf]),
            "nested": ((1, (2.5, "x")), ()),
            "intervals": IntervalSet.from_pairs([(-1e-4, 0.0), (1e-4, 2e-4)]),
            "enum": Protocol.PREDICTOR,
            "strategy": SwitchStrategy.always_on(),
        }
        text = canonical_json(edge)
        assert json.loads(text) == {
            "scalars": [0.5, -3, True, None],
            "negative_zero": -0.0,
            "array": [1.0, None, "inf"],
            "nested": [[1, [2.5, "x"]], []],
            "intervals": [[-1e-4, 0.0], [1e-4, 2e-4]],
            "enum": "predictor",
            "strategy": {"kind": "always_on"},
        }
        assert '"negative_zero": -0.0' in text
        assert '"scalars": [\n    0.5,\n    -3,\n    true,\n    null\n  ]' in text
        run = run_protocol(ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=200))
        report = json.loads(canonical_json(run))
        assert run.events is not None and "events" not in report
        assert report["event_digest"] == run.event_digest
        assert report["bin_edges"] == fringe_aligned_edges(run.config.optics).tolist()
        assert report["pooled"]["histogram"] == run.pooled.histogram.tolist()


def quick_manifest(tmp_path, sub="a"):
    return RunManifest(
        runs=(
            ManifestRun("flat", ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=2000, seed=1)),
            ManifestRun(
                "fringes",
                ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=2000, seed=2, detectors_recording=False),
            ),
            ManifestRun(
                "refused",
                ProtocolConfig(
                    protocol=Protocol.SWITCH_EXPERIMENT,
                    switch_stage=SwitchStage.D,
                    observation_schedule=ObservationSchedule.AT_T0,
                    strategy=SwitchStrategy.strategy_1(IntervalSet.from_pairs([(-1.75e-4, 1.75e-4)])),
                    outcome_hypothesis=OutcomeHypothesis.I,
                    n_pairs=1000,
                    seed=3,
                ),
            ),
        ),
        out_dir=str(tmp_path / sub),
        formats=frozenset({"json", "csv", "ascii"}),
    )


class TestExecution:
    def test_reports_and_statuses(self, tmp_path):
        manifest = quick_manifest(tmp_path)
        code, summary, outcomes = execute_manifest(manifest)
        assert code == 0
        by_name = {row["name"]: row for row in summary["runs"]}
        assert by_name["flat"]["status"] == "completed"
        assert by_name["flat"]["verdicts"] == {"screen": "particle", "pooled": "particle"}
        assert by_name["fringes"]["verdicts"]["screen"] == "wave"
        assert by_name["refused"]["status"] == "refused"
        assert by_name["refused"]["feasibility"]["marker"] == "outcome_i_infeasible"
        out = tmp_path / "a"
        assert (out / "summary.json").exists()
        for name in ("flat", "fringes", "refused"):
            assert (out / f"{name}.json").exists()
        # refusals produce no pattern, hence no histogram or event files
        assert (out / "flat.hist.txt").exists()
        assert (out / "flat.events.csv").exists()
        assert not (out / "refused.hist.txt").exists()
        assert not (out / "refused.events.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        first = quick_manifest(tmp_path, "one")
        second = replace(first, out_dir=str(tmp_path / "two"))
        execute_manifest(first)
        execute_manifest(second)
        # summary.json too: it must not name the directory it was written to
        for name in ("flat", "fringes", "refused", "summary"):
            a = (tmp_path / "one" / f"{name}.json").read_bytes()
            b = (tmp_path / "two" / f"{name}.json").read_bytes()
            assert a == b, name

    def test_thread_pool_does_not_change_results(self, tmp_path):
        """Every written file, events.csv included, is the same bytes
        whether the runs go one at a time or on three threads."""
        serial = quick_manifest(tmp_path, "serial")
        threaded = replace(serial, out_dir=str(tmp_path / "threaded"))
        assert serial.formats == {"json", "csv", "ascii"}
        execute_manifest(serial, jobs=1)
        execute_manifest(threaded, jobs=3)
        written = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "threaded").iterdir())
        assert {"flat.events.csv", "fringes.events.csv", "flat.hist.txt", "summary.json"} <= set(written)
        for name in written:
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "threaded" / name).read_bytes(), name

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_bad_job_count_is_refused_before_anything_is_written(self, tmp_path, jobs):
        manifest = quick_manifest(tmp_path, "never")
        with pytest.raises(ManifestError, match="jobs must be at least 1"):
            execute_manifest(manifest, jobs=jobs)
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
    def test_bad_seed_override_fails_at_construction(self, tmp_path, seed):
        with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            replace(quick_manifest(tmp_path, "never"), seed_override=seed)
        with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            RunManifest(runs=quick_manifest(tmp_path).runs, out_dir=str(tmp_path / "never"), seed_override=seed)
        assert not (tmp_path / "never").exists()

    def test_seed_override_pins_every_run(self, tmp_path):
        manifest = replace(quick_manifest(tmp_path, "seeded"), seed_override=99)
        _, summary, _ = execute_manifest(manifest)
        for name in ("flat", "fringes"):
            report = json.loads((tmp_path / "seeded" / f"{name}.json").read_text())
            assert report["config"]["seed"] == 99
            assert "seed" not in report

    @pytest.fixture
    def failing_switch(self, monkeypatch):
        """A stage-d config whose runner raises after the config validated."""

        def explode(cfg):
            raise ValidationError("raised mid-run")

        monkeypatch.setitem(protocols._RUNNERS, Protocol.SWITCH_EXPERIMENT, explode)
        return ProtocolConfig(
            protocol=Protocol.SWITCH_EXPERIMENT,
            switch_stage=SwitchStage.D,
            observation_schedule=ObservationSchedule.AT_T0,
            strategy=SwitchStrategy.custom([0.0, 1e-4], [True]),
            outcome_hypothesis=OutcomeHypothesis.II,
            n_pairs=100,
        )

    def test_one_bad_run_does_not_poison_the_rest(self, tmp_path, failing_switch):
        manifest = RunManifest(
            runs=(
                ManifestRun("good", ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=500)),
                ManifestRun("bad", failing_switch),
            ),
            out_dir=str(tmp_path / "mixed"),
        )
        code, summary, outcomes = execute_manifest(manifest)
        assert code == 1
        by_name = {row["name"]: row for row in summary["runs"]}
        assert by_name["good"]["status"] == "completed"
        assert by_name["bad"]["status"] == "error"
        assert "ValidationError" in by_name["bad"]["error"]
        assert outcomes["bad"] is None
        report = json.loads((tmp_path / "mixed" / "bad.json").read_text())
        assert report["status"] == "error"

    def test_error_reports_do_not_depend_on_where_they_run(self, tmp_path, failing_switch, capsys):
        """The report keeps the one-line "Type: message"; the traceback, with
        its paths and line numbers, goes to stderr under verbose only."""
        manifest = RunManifest(runs=(ManifestRun("bad", failing_switch),), out_dir=str(tmp_path / "one"))
        execute_manifest(manifest)
        assert "Traceback" not in capsys.readouterr().err
        execute_manifest(replace(manifest, out_dir=str(tmp_path / "deeper" / "two")), verbose=True)
        assert "Traceback" in capsys.readouterr().err
        for name in ("bad", "summary"):
            assert (tmp_path / "one" / f"{name}.json").read_bytes() == (
                tmp_path / "deeper" / "two" / f"{name}.json"
            ).read_bytes(), name
        report = json.loads((tmp_path / "one" / "bad.json").read_text())
        assert report["error"] == "dualitysim.optics.ValidationError: raised mid-run"

    def test_events_are_dropped_unless_requested(self, tmp_path):
        manifest = RunManifest(
            runs=(ManifestRun("flat", ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=200)),),
            out_dir=str(tmp_path / "ev"),
        )
        _, _, outcomes = execute_manifest(manifest)
        assert outcomes["flat"].events is None


class TestAsciiHistogram:
    def test_lines_fit_the_width(self):
        cfg = ProtocolConfig(protocol=Protocol.QUANTUM_ERASER, n_pairs=5000, seed=55)
        text = ascii_histogram(run_protocol(cfg))
        lines = text.splitlines()
        assert all(len(line) <= 80 for line in lines)
        assert any(line.startswith("subset D1:") for line in lines)
        assert any("#" in line for line in lines)

    def test_empty_subset_is_labelled(self):
        cfg = ProtocolConfig(
            protocol=Protocol.SWITCH_EXPERIMENT,
            switch_stage=SwitchStage.D,
            observation_schedule=ObservationSchedule.AT_T0,
            strategy=SwitchStrategy.always_on(),
            outcome_hypothesis=OutcomeHypothesis.I,
            n_pairs=300,
            seed=56,
        )
        text = ascii_histogram(run_protocol(cfg))
        assert "(no samples)" in text


class TestMain:
    def test_missing_manifest_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_invalid_manifest_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"runs": []}')
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize(
        "seed,flags",
        [(-1, []), (None, ["--seed", "-1"]), (None, ["--seed", str(2**64), "--jobs", "2"])],
        ids=["manifest", "flag", "flag-jobs"],
    )
    def test_seed_override_out_of_range_is_a_config_error(self, tmp_path, capsys, seed, flags):
        path = tmp_path / "m.json"
        path.write_text(manifest_doc({"name": "only", "protocol": "double_slit", "n_pairs": 100}, seed=seed))
        out = tmp_path / "never"
        assert main(["run", str(path), "--out", str(out), *flags]) == 2
        where = "manifest.seed" if seed is not None else "--seed"
        assert capsys.readouterr().err.startswith(f"error: {where}: seed must be an integer in [0, 2**64), got ")
        assert not out.exists()

    def test_bad_format_flag(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(manifest_doc({"name": "only", "protocol": "double_slit", "n_pairs": 100}))
        assert main(["run", str(path), "--formats", "svg", "--out", str(tmp_path / "o")]) == 2

    def test_happy_path_prints_statuses(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(manifest_doc({"name": "only", "protocol": "double_slit", "n_pairs": 500}))
        out = tmp_path / "reports"
        assert main(["run", str(path), "--out", str(out), "--seed", "7"]) == 0
        captured = capsys.readouterr().out
        assert "completed" in captured and "only" in captured
        report = json.loads((out / "only.json").read_text())
        assert report["config"]["seed"] == 7

    @pytest.mark.parametrize("command", ["run", "acceptance"])
    def test_jobs_below_one_is_refused_before_any_output(self, tmp_path, capsys, command):
        path = tmp_path / "m.json"
        path.write_text(manifest_doc({"name": "only", "protocol": "double_slit", "n_pairs": 100}))
        out = tmp_path / "never"
        argv = [command, str(path)] if command == "run" else [command]
        assert main([*argv, "--out", str(out), "--jobs", "0"]) == 2
        assert "error: --jobs must be at least 1, got 0\n" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
