"""Manifest schema, canonical serialization, report emission, CLI exit codes."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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
from dualitysim.optics import IntervalSet, OpticsConfig, ValidationError
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
        assert cfg.rule_intervals.intervals == ((-1.75e-4, 1.75e-4),)

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

    def test_ascii_histogram_alias(self):
        m = parse_manifest(manifest_doc({"name": "a", "protocol": "double_slit"}, formats=["ascii-histogram"]))
        assert m.formats == frozenset({"ascii"})
        with pytest.raises(ManifestError, match="formats"):
            parse_manifest(manifest_doc({"name": "a", "protocol": "double_slit"}, formats=["svg"]))


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
        kwargs["optics"] = OpticsConfig(screen_halfwidth_m=5e-4)
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


class TestRoundTrip:
    @given(manifest=manifests())
    @settings(max_examples=40, deadline=None)
    def test_serialize_then_parse_is_identity(self, manifest):
        assert parse_manifest(serialize_manifest(manifest)) == manifest

    def test_canonical_json_is_stable_and_total(self):
        doc = {"b": float("nan"), "a": [float("inf"), -float("inf"), 1.25]}
        text = canonical_json(doc)
        assert text == canonical_json(doc)
        assert json.loads(text) == {"a": ["inf", "-inf", 1.25], "b": None}
        assert text.endswith("\n")


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
        serial = quick_manifest(tmp_path, "serial")
        threaded = replace(serial, out_dir=str(tmp_path / "threaded"))
        _, s1, _ = execute_manifest(serial, jobs=1)
        _, s2, _ = execute_manifest(threaded, jobs=3)
        digests1 = {r["name"]: r["event_digest"] for r in s1["runs"]}
        digests2 = {r["name"]: r["event_digest"] for r in s2["runs"]}
        assert digests1 == digests2

    def test_seed_override_pins_every_run(self, tmp_path):
        manifest = replace(quick_manifest(tmp_path, "seeded"), seed_override=99)
        _, summary, _ = execute_manifest(manifest)
        for name in ("flat", "fringes"):
            report = json.loads((tmp_path / "seeded" / f"{name}.json").read_text())
            assert report["config"]["seed"] == 99
            assert report["seed"] == 99

    def test_one_bad_run_does_not_poison_the_rest(self, tmp_path, monkeypatch):
        def explode(cfg):
            raise ValidationError("raised mid-run")

        # the switch runner fails after the config validated
        monkeypatch.setitem(protocols._RUNNERS, Protocol.SWITCH_EXPERIMENT, explode)
        bad = ProtocolConfig(
            protocol=Protocol.SWITCH_EXPERIMENT,
            switch_stage=SwitchStage.D,
            observation_schedule=ObservationSchedule.AT_T0,
            strategy=SwitchStrategy.custom([0.0, 1e-4], [True]),
            outcome_hypothesis=OutcomeHypothesis.II,
            n_pairs=100,
        )
        manifest = RunManifest(
            runs=(
                ManifestRun("good", ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=500)),
                ManifestRun("bad", bad),
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

    def test_events_are_dropped_unless_requested(self, tmp_path):
        manifest = RunManifest(
            runs=(ManifestRun("flat", ProtocolConfig(protocol=Protocol.DOUBLE_SLIT, n_pairs=200)),),
            out_dir=str(tmp_path / "ev"),
        )
        _, _, outcomes = execute_manifest(manifest)
        assert outcomes["flat"].events is None
        _, _, outcomes = execute_manifest(manifest, keep_events=True)
        assert len(outcomes["flat"].events) == 200


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

    def test_bad_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
