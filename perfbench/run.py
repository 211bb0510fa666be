"""Cold-process benchmark of ``simrun`` batches.

    python3 perfbench/run.py --workload protocols_1e6 --seed 1 --seconds 30 --trace 0

Run from the repository root. Each iteration is a fresh interpreter
(``child.py``) that imports ``dualitysim`` from ``./src``, parses the
workload's generated manifest and runs it through ``execute_manifest``, one
child at a time. The last line of standard output is the result object:

* ``--trace 0``: the end-to-end metrics, measured with tracing off. Batches
  repeat until the next one would pass ``--seconds``; the remaining time
  takes extra set-up samples (import plus ``parse_manifest`` only).
* ``--trace 1``: an untraced, a traced and another untraced batch; the
  per-layer metrics come from the traced one's spans, and its time minus the
  mean of the untraced ones is the tracing overhead.

Every iteration's outputs are checked (see ``check.py``). The line before the
result holds the detail: environment, batch-time quantiles, each entry's
event digest and report sha256s, problems found and the trace report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
#: a whole invocation must end well within three minutes
TIME_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 5

END_TO_END = {
    "pairs_per_s": "pairs/s",
    "batch_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

#: per-layer metric -> unit; "<span>.s" is summed span time, "<span>.self_s"
#: excludes time covered by child spans, "<span>.failed" counts raising calls
PER_LAYER = {
    "optics.ppf.s": "s",
    "optics.ppf.lanes": "count",
    "optics.ppf.failed": "count",
    "optics.law_instances": "count",
    "numerics.invert_monotone.s": "s",
    "numerics.invert_monotone.f_calls": "count",
    "numerics.invert_monotone.lane_evals": "count",
    "numerics.invert_monotone.failed": "count",
    "numerics.adaptive_simpson.s": "s",
    "numerics.adaptive_simpson.evals": "count",
    "stats.classify_pattern.s": "s",
    "stats.classify_pattern.samples": "count",
    "stats.tv_distance_empirical.s": "s",
    "stats.tv_distance.s": "s",
    "stats.optimal_interval_set.s": "s",
    "stats.required_sample_size.s": "s",
    "stats.required_sample_size.failed": "count",
    "stats.contradiction_margin.s": "s",
    "models.available_mask.s": "s",
    "models.available_mask.lanes": "count",
    "protocols.run_protocol.s": "s",
    "protocols.run_protocol.self_s": "s",
    "protocols.run_protocol.failed": "count",
    "protocols.EventLog.digest.s": "s",
    "protocols.EventLog.digest.bytes": "bytes",
    "protocols.EventLog.to_csv.s": "s",
    "protocols.EventLog.to_csv.bytes": "bytes",
    "protocols.EventLog.to_csv.rows": "count",
    "protocols.coincidence_match.s": "s",
    "protocols.coincidence_match.events": "count",
    "cli.parse_manifest.s": "s",
    "cli.canonical_json.s": "s",
    "cli.ascii_histogram.s": "s",
    "cli.execute_manifest.self_s": "s",
    "cli.concurrency": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.missing_hooks": "count",
}

#: spans whose time counts as batch work done by a worker (for cli.concurrency)
_WORKER_SPANS = ("protocols.run_protocol", "protocols.EventLog.to_csv", "cli.canonical_json", "cli.ascii_histogram")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- children ---------------------------------------------------------------------


class Runner:
    """Starts one child interpreter at a time inside a work directory."""

    def __init__(self, root: Path, work: Path, spec: dict, started: float):
        self.root = root
        self.work = work
        self.spec_path = work / "spec.json"
        self.spec_path.write_text(json.dumps(spec))
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def child(self, mode: str, trace: bool) -> dict:
        remaining = TIME_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 1.0:
            raise BenchError(f"no time left for another {mode} child")
        out = self.work / "reports"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(self.spec_path), str(out), mode, "1" if trace else "0"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish within {remaining:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = time.perf_counter() - t0
        if mode == "batch":
            summary = json.loads((out / "summary.json").read_text())
            result["outcomes"] = check.outcomes(summary, result.pop("plans"))
            result["files"] = check.hash_outputs(out)
            if trace:
                result["trace"] = json.loads((self.work / "spans.json").read_text())
            shutil.rmtree(out)
        return result


# -- statistics -------------------------------------------------------------------


def quantile_summary(values: list[float]) -> dict:
    """Median, quartiles, the highest percentile with >= 10 samples beyond it, count and samples."""
    out = {"n": len(values), "median": statistics.median(values), "q1": None, "q3": None, "tail": None,
           "samples": values}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - pct / 100) >= 10:
            out["tail"] = {"percentile": pct, "value": statistics.quantiles(values, n=1000)[int(pct * 10) - 1]}
            break
    return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cursor = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_metrics(traced: dict, untraced_batch_s: float) -> dict:
    """Per-layer metrics from one traced batch's spans and counters."""
    spans, counters = traced["trace"]["spans"], traced["trace"]["counters"]
    window = (traced["batch_start"], traced["batch_end"])
    values = {name: 0 for name in PER_LAYER}
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    for span in spans:
        name, duration = span["name"], span["end"] - span["start"]
        values[f"{name}.s"] = values.get(f"{name}.s", 0.0) + duration
        values[f"{name}.failed"] = values.get(f"{name}.failed", 0) + int(span["failed"])
        for key, amount in span["counts"].items():
            values[f"{name}.{key}"] = values.get(f"{name}.{key}", 0) + amount
        covered = _union_length([
            (max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children.get(span["id"], [])
        ])
        values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + duration - covered
    values.update(counters)
    batch_s = traced["batch_s"]
    layer_spans = [
        (max(s["start"], window[0]), min(s["end"], window[1]))
        for s in spans
        if s["name"] not in ("cli.execute_manifest", "cli.parse_manifest")
    ]
    values["cli.concurrency"] = sum(values.get(f"{name}.s", 0.0) for name in _WORKER_SPANS) / batch_s
    values["trace.coverage"] = _union_length(layer_spans) / batch_s
    values["trace.overhead_s"] = batch_s - untraced_batch_s
    values["trace.missing_hooks"] = len(traced["trace"]["missing"])
    return {name: values[name] for name in PER_LAYER}


# -- environment ------------------------------------------------------------------


def _git_commit(root: Path) -> str:
    """Commit of a checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, child_env: dict, args, iterations: int) -> dict:
    return {
        **{k: child_env[k] for k in ("python", "numpy", "scipy", "dualitysim")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "iterations": iterations,
    }


# -- one benchmark run ------------------------------------------------------------


def completed_pairs(spec: dict, outcomes: dict) -> int:
    return sum(
        run["n_pairs"] for run in spec["manifest"]["runs"] if outcomes[run["name"]]["status"] == "completed"
    )


def run(args) -> tuple[dict, dict]:
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "dualitysim" / "__init__.py").is_file():
        raise BenchError(f"no dualitysim sources under {root / 'src'}; run from the repository root")
    spec = workloads.build(args.workload, args.seed, args.scale)
    spec["plan_target_error"] = workloads.PLAN_TARGET_ERROR
    expected = check.load_expected(args.workload)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, spec, started)
        deadline = started + args.seconds
        iterations: list[dict] = []
        setups = [runner.child("setup", trace=False)["setup_s"]]
        if args.trace:
            for traced in (False, True, False):
                iterations.append(runner.child("batch", trace=traced))
        else:
            while True:
                iterations.append(runner.child("batch", trace=False))
                if time.perf_counter() + iterations[-1]["wall_s"] > deadline:
                    break
            setups += [it["setup_s"] for it in iterations]
            probe_s = min(it["wall_s"] - it["batch_s"] for it in iterations)
            while len(setups) < MIN_SETUP_SAMPLES or time.perf_counter() + probe_s <= deadline:
                setups.append(runner.child("setup", trace=False)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = check.Tally()
    for i, it in enumerate(iterations):
        label = f"iteration {i}" + (" (traced)" if it.get("trace") else "")
        check.check_iteration(expected, it["outcomes"], label, tally, check_verdicts=args.scale == 1.0)
        if i:
            check.check_repeatable(iterations[0], it, label, tally, traced="trace" in it)
    batch_times = [it["batch_s"] for it in iterations if "trace" not in it]

    detail = {
        "env": environment(root, iterations[0]["env"], args, len(iterations)),
        "batch_s": quantile_summary(batch_times),
        "setup_s": quantile_summary(setups),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known_failures": tally.known_failures,
        "failed_share_incl_known": (tally.failed + tally.known_failures) / tally.attempted,
        "problems": tally.problems,
        "entries": {
            name: {**{k: v for k, v in outcome.items() if k != "value"},
                   "sha256": {f: h for f, h in iterations[0]["files"].items() if f.split(".", 1)[0] == name}}
            for name, outcome in iterations[0]["outcomes"].items()
        },
        "summary_sha256": iterations[0]["files"].get("summary.json"),
    }
    if args.trace:
        metrics = layer_metrics(iterations[1], statistics.mean(batch_times))
        detail["trace"] = {
            "overhead_s": metrics["trace.overhead_s"],
            "coverage": metrics["trace.coverage"],
            "missing_hooks": iterations[1]["trace"]["missing"],
            "spans": len(iterations[1]["trace"]["spans"]),
        }
        units = PER_LAYER
    else:
        batch_s = statistics.median(batch_times)
        metrics = {
            "pairs_per_s": completed_pairs(spec, iterations[0]["outcomes"]) / batch_s,
            "batch_s": batch_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
            "ok_share": (tally.attempted - tally.failed - tally.known_failures) / tally.attempted,
        }
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every n_pairs (smoke runs); subset verdicts are checked only at 1")
    args = parser.parse_args(argv)
    try:
        detail, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    detail_path = Path.cwd() / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
