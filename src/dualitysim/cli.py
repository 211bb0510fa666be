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

A run's keys are its ``name`` and the ``ProtocolConfig`` field names;
``optics``, ``model`` and ``strategy`` take the fields of their dataclasses. A
null means the default, and only ``ttl_s`` accepts ``"inf"``. Unknown keys
are rejected with the dotted path to the offending key. Every
run writes ``<name>.json`` (plus ``<name>.events.csv`` and ``<name>.hist.txt``
when requested) into the output directory, followed by one ``summary.json``;
reports use sorted keys so identical runs diff as identical bytes. A run that
raises reports the one-line ``Type: message``; ``verbose`` prints its
traceback to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .optics import IntervalSet, OpticsConfig, ValidationError
from .protocols import ProtocolConfig, RunResult, SwitchStrategy, run_protocol
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


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ManifestError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _run_name(value: Any, path: str) -> None:
    if not _RUN_NAME_RE.match(_string(value, path)):
        raise ManifestError(f"{path}: {value!r} must match {_RUN_NAME_RE.pattern}")


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


# -- config codec: a config's manifest form is its dataclass fields ----------------

#: the one field whose number may be written as the string "inf"
_INF_FIELD = "ttl_s"
#: what a list of each item type holds, for "expected a list of ..." errors
_LIST_OF = {float: "numbers", bool: "booleans", tuple[float, float]: "[lo, hi] pairs"}


@functools.cache
def _field_types(cls) -> dict[str, tuple[Any, bool]]:
    """Field name -> (annotation without its ``| None``, required), in field order."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        typ = hints[f.name]
        if type(None) in get_args(typ):
            typ = get_args(typ)[0]
        out[f.name] = (typ, f.default is MISSING and f.default_factory is MISSING)
    return out


def _decode(value: Any, typ, path: str, window: tuple[float, float], allow_inf: bool = False):
    """The manifest value at ``path`` as an instance of the annotation ``typ``."""
    if typ is bool:
        return _bool_value(value, path)
    if typ is int:
        return _int_value(value, path)
    if typ is float:
        return _float_value(value, path, allow_inf)
    if isinstance(typ, type) and issubclass(typ, Enum):
        return _enum_value(value, typ, path)
    if typ is IntervalSet:
        pairs = _decode(value, _field_types(IntervalSet)["intervals"][0], path, window)
        try:
            return IntervalSet.from_pairs(pairs, window=window)
        except ValidationError as exc:
            raise ManifestError(f"{path}: {exc}") from None
    if get_origin(typ) is tuple:
        args = get_args(typ)
        if args[-1] is Ellipsis:
            if not isinstance(value, list):
                raise ManifestError(f"{path}: expected a list of {_LIST_OF[args[0]]}")
            args = args[:1] * len(value)
        elif not (isinstance(value, list) and len(value) == len(args)):
            raise ManifestError(f"{path}: expected a [lo, hi] pair")
        return tuple(_decode(v, t, f"{path}[{i}]", window) for i, (v, t) in enumerate(zip(value, args)))
    return _decode_object(value, typ, path, window)


def _decode_object(obj: Any, cls, path: str, window: tuple[float, float], checks: dict | None = None):
    """A config dataclass from its JSON object: a null or absent key means the
    default, a field without one is required. ``checks`` maps required keys
    that are not fields to their validators, which run before any field."""
    data = _expect_mapping(obj, path)
    spec = _field_types(cls)
    checks = checks or {}
    _reject_unknown(data, {*checks, *spec}, path)
    for key in [*checks, *(key for key, (_, required) in spec.items() if required)]:
        if key not in data:
            raise ManifestError(f"{path}.{key}: required")
    for key, check in checks.items():
        check(data[key], f"{path}.{key}")
    kwargs = {}
    for key, (typ, required) in spec.items():
        if data.get(key) is None and not required:
            continue
        kwargs[key] = value = _decode(data[key], typ, f"{path}.{key}", window, allow_inf=key == _INF_FIELD)
        if isinstance(value, OpticsConfig):
            window = value.window  # the run's screen regions must lie in its own window
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def _parse_run(obj: Any, index: int) -> ManifestRun:
    path = f"runs[{index}]"
    config = _decode_object(obj, ProtocolConfig, path, OpticsConfig().window, checks={"name": _run_name})
    return ManifestRun(name=obj["name"], config=config)


def parse_manifest(text: str) -> RunManifest:
    """Parse and fully validate a JSON manifest document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    data = _expect_mapping(doc, "manifest")
    _reject_unknown(data, {"name", "out_dir", "formats", "seed", "runs"}, "manifest")
    if "runs" not in data or not isinstance(data["runs"], list) or not data["runs"]:
        raise ManifestError("manifest.runs: a nonempty list of runs is required")
    runs = tuple(_parse_run(obj, i) for i, obj in enumerate(data["runs"]))
    names = [r.name for r in runs]
    if len(set(names)) != len(names):
        dupe = next(n for n in names if names.count(n) > 1)
        raise ManifestError(f"manifest.runs: run names must be unique, {dupe!r} repeats")

    def optional(key, decode, default=None):
        return default if data.get(key) is None else decode(data[key], f"manifest.{key}")

    return RunManifest(
        runs=runs,
        out_dir=optional("out_dir", _string, "runs"),
        formats=optional("formats", _formats, frozenset({"json"})),
        seed_override=optional("seed", _int_value),
        name=optional("name", _string),
    )


def _formats(value: Any, path: str) -> frozenset:
    if not isinstance(value, list):
        raise ManifestError(f"{path}: expected a list")
    return frozenset(_normalize_format(v, f"{path}[{i}]") for i, v in enumerate(value))


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
        "runs": [{"name": run.name, **_json_form(run.config)} for run in manifest.runs],
    }
    return canonical_json(doc)


# -- report emission: a report is its result's fields -------------------------------

#: characters per line of a text histogram
_HISTOGRAM_WIDTH = 80


def _json_form(obj):
    """``obj`` in JSON values. A dataclass is the object of its fields, less
    those with ``metadata={"report": False}``, and a strategy lists only the
    parameters its kind takes. An enum is its value; a tuple, interval set or
    array is a list; a numpy scalar is its item; NaN is null and an infinity
    is "inf" or "-inf"."""
    # scalars first: they are nearly all of a report's values
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, dict):
        return {key: _json_form(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple, IntervalSet)):
        return [_json_form(value) for value in obj]
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj):
        omit_none = isinstance(obj, SwitchStrategy)
        items = ((f.name, getattr(obj, f.name)) for f in fields(obj) if f.metadata.get("report", True))
        return {name: _json_form(value) for name, value in items if not (omit_none and value is None)}
    return obj


def canonical_json(obj) -> str:
    """Sorted-key JSON of ``obj``'s JSON form; identical inputs give identical bytes."""
    return json.dumps(_json_form(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def ascii_histogram(result: RunResult) -> str:
    """Fixed-width text histograms for the pooled screen and each subset."""
    lines = [
        f"protocol {result.protocol.value}  n_pairs={result.n_pairs}  seed={result.seed}",
    ]
    blocks = [] if result.pooled is None else [("pooled", result.pooled)]
    blocks += sorted(result.subsets.items())
    for key, subset in blocks:
        vis = "n/a" if subset.visibility is None else f"{subset.visibility:.4f}"
        lines.append("")
        lines.append(f"subset {key}: count={subset.count} verdict={subset.verdict.value} visibility={vis}")
        counts, edges = subset.histogram.counts, subset.histogram.edges
        if subset.count == 0:
            lines.append("  (no samples)")
            continue
        peak = max(1, int(counts.max()))
        count_w = len(str(peak))
        bar_w = max(10, _HISTOGRAM_WIDTH - 24 - count_w)
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            bar = "#" * int(round(bar_w * c / peak))
            lines.append(f"  [{lo * 1e3:+8.4f},{hi * 1e3:+8.4f}) {bar.ljust(bar_w)} {int(c):>{count_w}}")
        lines.append(f"  (x in millimeters, {counts.size} bins)")
    return "\n".join(lines) + "\n"


def _run_report(name: str, config: ProtocolConfig, outcome, error: str | None) -> dict:
    """A run's report in JSON form: a completed run's result fields, else its
    config with the refusal or the error."""
    if error is not None:
        return _json_form({"name": name, "status": "error", "error": error, "config": config})
    if isinstance(outcome, FeasibilityReport):
        return _json_form({"name": name, "status": "refused", "config": config, "feasibility": outcome})
    return {**_json_form(outcome), "name": name, "status": "completed"}


def execute_manifest(manifest: RunManifest, jobs: int = 1, verbose: bool = False):
    """Run every entry, write per-run reports plus summary.json.

    Returns (exit_code, summary_dict, outcomes) where outcomes maps run name
    to the RunResult/FeasibilityReport (None for an errored run). A RunResult
    comes without its event log; ``run_protocol`` returns one that keeps it.
    Individual run failures are isolated: siblings still execute and write
    their files.
    """
    if jobs < 1:
        raise ManifestError(f"jobs must be at least 1, got {jobs}")
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one(entry: ManifestRun):
        config = entry.config
        if manifest.seed_override is not None:
            config = replace(config, seed=manifest.seed_override)
        outcome, error = None, None
        try:
            outcome = run_protocol(config)
        except Exception as exc:
            # the report keeps "Type: message" only, so its bytes do not depend
            # on where the source lives; the traceback goes to stderr
            error = "".join(traceback.format_exception_only(exc)).rstrip("\n")
            if verbose:
                traceback.print_exc(limit=10)
        report = _run_report(entry.name, config, outcome, error)
        (out / f"{entry.name}.json").write_text(canonical_json(report))
        if isinstance(outcome, RunResult):
            if "csv" in manifest.formats and outcome.events is not None:
                outcome.events.to_csv(out / f"{entry.name}.events.csv")
            if "ascii" in manifest.formats:
                (out / f"{entry.name}.hist.txt").write_text(ascii_histogram(outcome))
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
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
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

    report = run_acceptance(out_dir=args.out, jobs=args.jobs)
    for criterion in report.criteria:
        print(criterion.line())
    print(report.summary_line())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
