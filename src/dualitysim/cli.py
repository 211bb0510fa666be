"""Manifest ingestion, batch execution, and report emission.

A manifest is a JSON document:

    {
      "name": "demo batch",            // optional
      "out_dir": "runs",               // optional, default "runs"
      "formats": ["json", "csv", "ascii"],  // optional, default ["json"]
      "seed": 7,                       // optional global seed override
      "runs": [
        {"name": "plain", "protocol": "double_slit", "n_pairs": 100000,
         "seed": 1,
         "optics": {"wavelength_m": 7e-7},
         "model": {"policy": "collapse_at_detection"}}
      ]
    }

Unknown keys are rejected with the dotted path to the offending key. Every
run writes ``<name>.json`` (plus ``<name>.events.csv`` and ``<name>.hist.txt``
when requested) into the output directory, followed by one ``summary.json``;
reports use sorted keys so identical runs diff as identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .models import AvailabilityHorizon, RenderingModel, RenderingPolicy
from .optics import IntervalSet, OpticsConfig, ValidationError
from .protocols import (
    DetectNoRecordVariant,
    ObservationSchedule,
    OutcomeHypothesis,
    PairingMode,
    Protocol,
    ProtocolConfig,
    RecordingRule,
    RunResult,
    SwitchStage,
    SwitchStrategy,
    config_to_json_dict,
    run_protocol,
)
from .stats import FeasibilityReport

REPORT_FORMATS = ("json", "csv", "ascii")
_RUN_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class ManifestError(ValidationError):
    """Raised for any schema or invariant violation in a manifest document."""


@dataclass(frozen=True)
class ManifestRun:
    name: str
    config: ProtocolConfig


@dataclass(frozen=True)
class RunManifest:
    runs: tuple[ManifestRun, ...]
    out_dir: str = "runs"
    formats: frozenset = frozenset({"json"})
    seed_override: int | None = None
    name: str | None = None


# -- schema helpers ---------------------------------------------------------------


def _expect_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ManifestError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ManifestError(f"{path}.{key}: unknown key (allowed: {', '.join(sorted(allowed))})")


def _string(obj: dict, key: str, path: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ManifestError(f"{path}.{key}: expected a string, got {type(value).__name__}")
    return value


def _float_value(value: Any, path: str, allow_inf: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        if allow_inf and value == "inf":
            return math.inf
        raise ManifestError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _int_value(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifestError(f"{path}: expected an integer, got {value!r}")
    return value


def _bool_value(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ManifestError(f"{path}: expected true or false, got {value!r}")
    return value


def _enum_value(value: Any, enum_cls, path: str):
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(repr(e.value) for e in enum_cls)
        raise ManifestError(f"{path}: {value!r} is not one of: {valid}") from None


def _pairs_value(value: Any, path: str) -> list[tuple[float, float]]:
    if not isinstance(value, list):
        raise ManifestError(f"{path}: expected a list of [lo, hi] pairs")
    pairs = []
    for i, item in enumerate(value):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ManifestError(f"{path}[{i}]: expected a [lo, hi] pair")
        pairs.append((_float_value(item[0], f"{path}[{i}][0]"), _float_value(item[1], f"{path}[{i}][1]")))
    return pairs


_OPTICS_KEYS = {
    "wavelength_m",
    "slit_separation_m",
    "slit_screen_distance_m",
    "screen_halfwidth_m",
    "envelope_enabled",
    "slit_width_m",
}
_MODEL_KEYS = {"policy", "availability_horizon"}
_STRATEGY_KEYS = {"kind", "intervals", "table_edges", "table_activate"}
_RUN_KEYS = {
    "name",
    "protocol",
    "optics",
    "model",
    "seed",
    "n_pairs",
    "delta_t_s",
    "coincidence_window_s",
    "observation_schedule",
    "detectors_recording",
    "choice_record_prob",
    "variant",
    "destruction_prob",
    "pairing_mode",
    "erasure_delay_s",
    "switch_stage",
    "strategy",
    "outcome_hypothesis",
    "noise_threshold",
    "ttl_s",
    "recording_rule",
    "rule_intervals",
}
_TOP_KEYS = {"name", "out_dir", "formats", "seed", "runs"}


def _parse_optics(obj: Any, path: str) -> OpticsConfig:
    data = _expect_mapping(obj, path)
    _reject_unknown(data, _OPTICS_KEYS, path)
    kwargs = {}
    for key in ("wavelength_m", "slit_separation_m", "slit_screen_distance_m", "screen_halfwidth_m", "slit_width_m"):
        if key in data and data[key] is not None:
            kwargs[key] = _float_value(data[key], f"{path}.{key}")
    if "envelope_enabled" in data and data["envelope_enabled"] is not None:
        kwargs["envelope_enabled"] = _bool_value(data["envelope_enabled"], f"{path}.envelope_enabled")
    try:
        return OpticsConfig(**kwargs)
    except ValidationError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def _parse_model(obj: Any, path: str) -> RenderingModel:
    data = _expect_mapping(obj, path)
    _reject_unknown(data, _MODEL_KEYS, path)
    if "policy" not in data:
        raise ManifestError(f"{path}.policy: required")
    policy = _enum_value(data["policy"], RenderingPolicy, f"{path}.policy")
    horizon = AvailabilityHorizon.AT_OBSERVATION_TIME
    if "availability_horizon" in data and data["availability_horizon"] is not None:
        horizon = _enum_value(data["availability_horizon"], AvailabilityHorizon, f"{path}.availability_horizon")
    return RenderingModel(policy, horizon)


def _parse_strategy(obj: Any, path: str, window: tuple[float, float]) -> SwitchStrategy:
    data = _expect_mapping(obj, path)
    _reject_unknown(data, _STRATEGY_KEYS, path)
    if "kind" not in data:
        raise ManifestError(f"{path}.kind: required")
    from .protocols import StrategyKind

    kind = _enum_value(data["kind"], StrategyKind, f"{path}.kind")
    intervals = None
    if data.get("intervals") is not None:
        try:
            intervals = IntervalSet.from_pairs(_pairs_value(data["intervals"], f"{path}.intervals"), window=window)
        except ValidationError as exc:
            raise ManifestError(f"{path}.intervals: {exc}") from None
    edges = activate = None
    if data.get("table_edges") is not None:
        raw = data["table_edges"]
        if not isinstance(raw, list):
            raise ManifestError(f"{path}.table_edges: expected a list of numbers")
        edges = tuple(_float_value(v, f"{path}.table_edges[{i}]") for i, v in enumerate(raw))
    if data.get("table_activate") is not None:
        raw = data["table_activate"]
        if not isinstance(raw, list):
            raise ManifestError(f"{path}.table_activate: expected a list of booleans")
        activate = tuple(_bool_value(v, f"{path}.table_activate[{i}]") for i, v in enumerate(raw))
    try:
        return SwitchStrategy(kind, intervals=intervals, table_edges=edges, table_activate=activate)
    except ValidationError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def _parse_run(obj: Any, index: int) -> ManifestRun:
    path = f"runs[{index}]"
    data = _expect_mapping(obj, path)
    _reject_unknown(data, _RUN_KEYS, path)
    for key in ("name", "protocol"):
        if key not in data:
            raise ManifestError(f"{path}.{key}: required")
    name = _string(data, "name", path)
    if not _RUN_NAME_RE.match(name):
        raise ManifestError(f"{path}.name: {name!r} must match {_RUN_NAME_RE.pattern}")
    kwargs: dict[str, Any] = {"protocol": _enum_value(data["protocol"], Protocol, f"{path}.protocol")}
    optics = OpticsConfig()
    if data.get("optics") is not None:
        optics = _parse_optics(data["optics"], f"{path}.optics")
    kwargs["optics"] = optics
    if data.get("model") is not None:
        kwargs["model"] = _parse_model(data["model"], f"{path}.model")
    int_keys = ("seed", "n_pairs")
    float_keys = (
        "delta_t_s",
        "coincidence_window_s",
        "choice_record_prob",
        "destruction_prob",
        "erasure_delay_s",
        "noise_threshold",
    )
    enum_keys = {
        "observation_schedule": ObservationSchedule,
        "variant": DetectNoRecordVariant,
        "pairing_mode": PairingMode,
        "switch_stage": SwitchStage,
        "outcome_hypothesis": OutcomeHypothesis,
        "recording_rule": RecordingRule,
    }
    for key in int_keys:
        if data.get(key) is not None:
            kwargs[key] = _int_value(data[key], f"{path}.{key}")
    for key in float_keys:
        if data.get(key) is not None:
            kwargs[key] = _float_value(data[key], f"{path}.{key}")
    if data.get("ttl_s") is not None:
        kwargs["ttl_s"] = _float_value(data["ttl_s"], f"{path}.ttl_s", allow_inf=True)
    if data.get("detectors_recording") is not None:
        kwargs["detectors_recording"] = _bool_value(data["detectors_recording"], f"{path}.detectors_recording")
    for key, enum_cls in enum_keys.items():
        if data.get(key) is not None:
            kwargs[key] = _enum_value(data[key], enum_cls, f"{path}.{key}")
    if data.get("strategy") is not None:
        kwargs["strategy"] = _parse_strategy(data["strategy"], f"{path}.strategy", optics.window)
    if data.get("rule_intervals") is not None:
        try:
            kwargs["rule_intervals"] = IntervalSet.from_pairs(
                _pairs_value(data["rule_intervals"], f"{path}.rule_intervals"), window=optics.window
            )
        except ValidationError as exc:
            raise ManifestError(f"{path}.rule_intervals: {exc}") from None
    try:
        config = ProtocolConfig(**kwargs)
    except ValidationError as exc:
        raise ManifestError(f"{path}: {exc}") from None
    return ManifestRun(name=name, config=config)


def parse_manifest(text: str) -> RunManifest:
    """Parse and fully validate a JSON manifest document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    data = _expect_mapping(doc, "manifest")
    _reject_unknown(data, _TOP_KEYS, "manifest")
    if "runs" not in data or not isinstance(data["runs"], list) or not data["runs"]:
        raise ManifestError("manifest.runs: a nonempty list of runs is required")
    runs = tuple(_parse_run(obj, i) for i, obj in enumerate(data["runs"]))
    names = [r.name for r in runs]
    if len(set(names)) != len(names):
        dupe = next(n for n in names if names.count(n) > 1)
        raise ManifestError(f"manifest.runs: run names must be unique, {dupe!r} repeats")
    out_dir = "runs"
    if data.get("out_dir") is not None:
        out_dir = _string(data, "out_dir", "manifest")
    formats = frozenset({"json"})
    if data.get("formats") is not None:
        if not isinstance(data["formats"], list):
            raise ManifestError("manifest.formats: expected a list")
        formats = frozenset(_normalize_format(v, f"manifest.formats[{i}]") for i, v in enumerate(data["formats"]))
    seed = None
    if data.get("seed") is not None:
        seed = _int_value(data["seed"], "manifest.seed")
    name = None
    if data.get("name") is not None:
        name = _string(data, "name", "manifest")
    return RunManifest(runs=runs, out_dir=out_dir, formats=formats, seed_override=seed, name=name)


def _normalize_format(value: Any, path: str) -> str:
    if value == "ascii-histogram":
        value = "ascii"
    if value not in REPORT_FORMATS:
        raise ManifestError(f"{path}: {value!r} is not one of: 'json', 'csv', 'ascii' (or 'ascii-histogram')")
    return value


def serialize_manifest(manifest: RunManifest) -> str:
    """Canonical JSON for a manifest; parse_manifest round-trips it."""
    doc = {
        "name": manifest.name,
        "out_dir": manifest.out_dir,
        "formats": sorted(manifest.formats),
        "seed": manifest.seed_override,
        "runs": [{"name": run.name, **config_to_json_dict(run.config)} for run in manifest.runs],
    }
    return canonical_json(doc)


# -- report emission ----------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    if isinstance(obj, np.generic):
        return _sanitize(obj.item())
    return obj


def canonical_json(obj) -> str:
    """Sorted-key JSON with NaN mapped to null; identical inputs give identical bytes."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def ascii_histogram(result: RunResult, width: int = 80) -> str:
    """Fixed-width text histograms for the pooled screen and each subset."""
    lines = [
        f"protocol {result.protocol.value}  n_pairs={result.n_pairs}  seed={result.seed}",
    ]
    blocks = []
    if result.pooled is not None:
        blocks.append(result.pooled)
    blocks.extend(result.subsets[key] for key in sorted(result.subsets))
    for subset in blocks:
        vis = "n/a" if subset.visibility is None else f"{subset.visibility:.4f}"
        lines.append("")
        lines.append(
            f"subset {subset.key}: count={subset.count} verdict={subset.verdict.value} visibility={vis}"
        )
        counts = subset.histogram_counts
        edges = subset.histogram_edges
        if subset.count == 0:
            lines.append("  (no samples)")
            continue
        peak = max(1, int(counts.max()))
        count_w = len(str(peak))
        bar_w = max(10, width - 24 - count_w)
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            bar = "#" * int(round(bar_w * c / peak))
            lines.append(f"  [{lo * 1e3:+8.4f},{hi * 1e3:+8.4f}) {bar.ljust(bar_w)} {int(c):>{count_w}}")
        lines.append(f"  (x in millimeters, {counts.size} bins)")
    return "\n".join(lines) + "\n"


def _run_report(name: str, config: ProtocolConfig, outcome, error: str | None) -> dict:
    if error is not None:
        return {"name": name, "status": "error", "error": error, "config": config_to_json_dict(config)}
    if isinstance(outcome, FeasibilityReport):
        return {
            "name": name,
            "status": "refused",
            "config": config_to_json_dict(config),
            "feasibility": outcome.to_json_dict(),
        }
    report = outcome.to_json_dict()
    report["name"] = name
    report["status"] = "completed"
    return report


def execute_manifest(
    manifest: RunManifest,
    jobs: int = 1,
    verbose: bool = False,
    keep_events: bool = False,
):
    """Run every entry, write per-run reports plus summary.json.

    Returns (exit_code, summary_dict, outcomes) where outcomes maps run name
    to the RunResult/FeasibilityReport (None for an errored run). Individual
    run failures are isolated: siblings still execute and write their files.
    """
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if jobs < 1:
        raise ManifestError(f"jobs must be at least 1, got {jobs}")

    def one(entry: ManifestRun):
        config = entry.config
        if manifest.seed_override is not None:
            config = replace(config, seed=manifest.seed_override)
        outcome, error = None, None
        try:
            outcome = run_protocol(config)
        except Exception:
            error = traceback.format_exc(limit=10)
        report = _run_report(entry.name, config, outcome, error)
        (out / f"{entry.name}.json").write_text(canonical_json(report))
        if isinstance(outcome, RunResult):
            if "csv" in manifest.formats and outcome.events is not None:
                outcome.events.to_csv(out / f"{entry.name}.events.csv")
            if "ascii" in manifest.formats:
                (out / f"{entry.name}.hist.txt").write_text(ascii_histogram(outcome))
            if not keep_events:
                outcome.events = None
        if verbose:
            print(f"[{report['status']}] {entry.name}", file=sys.stderr)
        return entry.name, report, outcome

    if jobs == 1:
        rows = [one(entry) for entry in manifest.runs]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(one, manifest.runs))

    summary_runs = []
    outcomes: dict[str, RunResult | FeasibilityReport | None] = {}
    for name, report, outcome in rows:
        outcomes[name] = outcome
        entry = {
            "name": name,
            "status": report["status"],
            "protocol": report["config"]["protocol"],
            "report_path": f"{name}.json",
            "verdicts": None,
            "event_digest": None,
            "markers": report.get("markers", []),
            "feasibility": report.get("feasibility"),
        }
        if report["status"] == "completed":
            entry["verdicts"] = {key: sub["verdict"] for key, sub in report["subsets"].items()}
            if report.get("pooled"):
                entry["verdicts"]["pooled"] = report["pooled"]["verdict"]
            entry["event_digest"] = report["event_digest"]
        if report["status"] == "error":
            entry["error"] = report["error"]
        summary_runs.append(entry)
    summary = {
        "manifest_name": manifest.name,
        "formats": sorted(manifest.formats),
        "seed_override": manifest.seed_override,
        "runs": summary_runs,
    }
    (out / "summary.json").write_text(canonical_json(summary))
    exit_code = 1 if any(r["status"] == "error" for r in summary_runs) else 0
    return exit_code, summary, outcomes


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simrun",
        description="Deterministic Monte Carlo runs of two-slit which-way protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a JSON manifest of protocol runs")
    run_p.add_argument("manifest", help="path to the manifest JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override every run's seed")
    run_p.add_argument("--out", default=None, help="output directory (overrides manifest out_dir)")
    run_p.add_argument(
        "--formats",
        default=None,
        help="comma-separated subset of json,csv,ascii (overrides manifest formats)",
    )
    run_p.add_argument("--jobs", type=int, default=1, help="run up to this many entries concurrently")
    run_p.add_argument("--verbose", action="store_true", help="print per-run progress to stderr")
    acc_p = sub.add_parser("acceptance", help="run the built-in acceptance manifest and criteria")
    acc_p.add_argument("--out", default=None, help="directory for acceptance artifacts (default: temporary)")
    acc_p.add_argument("--jobs", type=int, default=1, help="concurrency for manifest execution")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "run":
        try:
            text = Path(args.manifest).read_text()
        except OSError as exc:
            print(f"error: cannot read manifest: {exc}", file=sys.stderr)
            return 2
        try:
            manifest = parse_manifest(text)
            if args.out is not None:
                manifest = replace(manifest, out_dir=args.out)
            if args.seed is not None:
                manifest = replace(manifest, seed_override=args.seed)
            if args.formats is not None:
                formats = frozenset(
                    _normalize_format(token.strip(), "--formats") for token in args.formats.split(",") if token.strip()
                )
                if not formats:
                    raise ManifestError("--formats: at least one format is required")
                manifest = replace(manifest, formats=formats)
            if args.jobs < 1:
                raise ManifestError(f"--jobs must be at least 1, got {args.jobs}")
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            exit_code, summary, _ = execute_manifest(manifest, jobs=args.jobs, verbose=args.verbose)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for row in summary["runs"]:
            print(f"{row['status']:>9}  {row['name']}  ({row['protocol']})")
        print(f"reports written to {Path(manifest.out_dir).resolve()}")
        return exit_code
    # acceptance
    from .acceptance import run_acceptance

    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    report = run_acceptance(out_dir=args.out, jobs=args.jobs)
    for criterion in report.criteria:
        print(criterion.line())
    print(report.summary_line())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
