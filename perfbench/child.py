"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py SPEC.json OUT_DIR {setup|batch} {0|1}

Imports ``dualitysim`` from ``./src``, parses the manifest in SPEC.json
(set-up), then in ``batch`` mode runs the planning calls and
``execute_manifest`` into OUT_DIR (the batch). With tracing on, spans from
``tracing.Tracer`` are written to OUT_DIR/../spans.json. The last line of
standard output is one JSON object with the timings and outcomes.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path


def _plan_value(value) -> object:
    """A JSON form of a planning result, compared across iterations."""
    if hasattr(value, "intervals"):
        return [list(pair) for pair in value.intervals]
    if hasattr(value, "n_samples"):
        return [value.n_samples, repr(value.bhattacharyya)]
    return repr(value)


def run_plans(stats, optics_cls, plans: list[dict], target_error: float) -> list[dict]:
    outcomes = []
    for plan in plans:
        fn = getattr(stats, plan["call"])
        try:
            optics = optics_cls(**plan["optics"])
            value = fn(target_error, optics) if plan["call"] == "required_sample_size" else fn(optics)
        except Exception as exc:  # a planning call that raises is an outcome to report
            outcomes.append({"name": plan["name"], "status": "error", "error_type": type(exc).__name__})
        else:
            outcomes.append({"name": plan["name"], "status": "ok", "value": _plan_value(value)})
    return outcomes


def main(argv: list[str]) -> int:
    spec_path, out_dir, mode, trace = argv[0], Path(argv[1]), argv[2], argv[3] == "1"
    spec = json.loads(Path(spec_path).read_text())
    manifest_text = json.dumps(spec["manifest"])
    src = Path("src").resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import dualitysim
    from dualitysim import cli

    if not Path(dualitysim.__file__).resolve().is_relative_to(src):
        print(f"dualitysim was imported from {dualitysim.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from dualitysim import optics, protocols, stats
        from tracing import Tracer

        tracer = Tracer({})
        tracer.install({"cli": cli, "protocols": protocols, "optics": optics, "stats": stats})
    manifest = cli.parse_manifest(manifest_text)
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s}
    if mode == "batch":
        manifest = replace(manifest, out_dir=str(out_dir))
        if tracer is not None:
            tracer.run_names.update({id(run.config): run.name for run in manifest.runs})
        t1 = time.perf_counter()
        plans = run_plans(dualitysim.stats, dualitysim.OpticsConfig, spec["plans"], spec["plan_target_error"])
        cli.execute_manifest(manifest, jobs=spec["jobs"])
        t2 = time.perf_counter()
        result.update(
            batch_s=t2 - t1,
            batch_start=t1,
            batch_end=t2,
            plans=plans,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            (out_dir.parent / "spans.json").write_text(json.dumps(
                {"spans": tracer.spans, "counters": tracer.final_counters(), "missing": tracer.missing}
            ))
    import numpy
    import scipy

    result["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dualitysim": getattr(dualitysim, "__version__", "unknown"),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
