"""In-memory span recorder installed around dualitysim's public call sites.

Wrappers replace the names that callers bind (``cli.run_protocol``,
``protocols.classify_pattern``, ``PatternDistribution.ppf``, ...), so nothing
under ``src/`` changes. Each span records name, start, end, parent span and
run id, plus counts taken at the same boundary. Spans stay in memory until
the batch ends and the child writes them out. A hook whose target no longer
exists is listed in ``Tracer.missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from typing import Any, Callable

import numpy as np

_clock = time.perf_counter


def _size(value: Any) -> int:
    return int(np.size(value))


class Tracer:
    def __init__(self, run_names: dict[int, str]):
        #: id(ProtocolConfig) -> manifest entry name, to tag spans with a run id
        self.run_names = run_names
        self.spans: list[dict] = []
        self._all_counts: list[dict[str, int]] = []
        self._call_counters: list[tuple[str, itertools.count]] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn: Callable, *, counts: Callable | None = None, run_of: Callable | None = None,
             after: Callable | None = None, root: bool = False) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``counts(args, kwargs)`` returns counts known at entry; ``after(args,
        kwargs, result)`` returns counts known at exit; ``run_of(args, kwargs)``
        names the run this and later spans on the thread belong to.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (None if root else self._root)
            if run_of is not None:
                self._local.run = run_of(args, kwargs)
            with self._lock:
                span_id = len(self.spans)
                record = {"id": span_id, "name": name, "parent": parent,
                          "run": getattr(self._local, "run", None), "thread": threading.get_ident(),
                          "counts": counts(args, kwargs) if counts else {}, "failed": False}
                self.spans.append(record)
            if root:
                self._root = span_id
            stack.append(span_id)
            record["start"] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record["failed"] = True
                raise
            finally:
                record["end"] = _clock()
                stack.pop()
            if after is not None:
                record["counts"].update(after(args, kwargs, result))
            return result

        return wrapper

    def _local_run(self) -> str | None:
        return getattr(self._local, "run", None)

    def _thread_counts(self) -> dict[str, int]:
        """This thread's lane counters; kept per thread so counting takes no lock."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._all_counts.append(counts)
        return counts

    def final_counters(self) -> dict[str, int]:
        """Sum every counter; read once, after the batch (reading advances the call counters)."""
        total: dict[str, int] = {}
        pairs = [(key, next(calls)) for key, calls in self._call_counters]
        pairs += [pair for counts in self._all_counts for pair in counts.items()]
        for key, amount in pairs:
            total[key] = total.get(key, 0) + amount
        return total

    def counted(self, key: str, fn: Callable, lanes_key: str | None = None) -> Callable:
        """Wrap a callable so each call bumps ``key`` (and ``lanes_key`` by its first argument's size).

        Calls are counted with ``itertools.count``, whose ``next`` is atomic and
        cheap: quadrature integrands are called millions of times per batch.
        """
        calls = itertools.count()
        with self._lock:
            self._call_counters.append((key, calls))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(calls)
            if lanes_key is not None:
                counts = self._thread_counts()
                counts[lanes_key] = counts.get(lanes_key, 0) + _size(args[0])
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, modules: dict[str, Any]) -> None:
        cli, protocols, optics, stats = modules["cli"], modules["protocols"], modules["optics"], modules["stats"]
        law = getattr(optics, "PatternDistribution", None)
        log = getattr(protocols, "EventLog", None)

        def with_f_counter(name: str, fn: Callable, f_key: str, lanes_key: str | None) -> Callable:
            # count evaluations of the callable passed as the first argument
            def call(f, *args, **kwargs):
                return fn(self.counted(f_key, f, lanes_key), *args, **kwargs)

            return self.span(name, functools.wraps(fn)(call))

        def csv_bytes(args, kwargs, _result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            return {"bytes": os.path.getsize(path)}

        def log_bytes(args, _kwargs):
            cols = [getattr(args[0], name) for name in getattr(protocols, "EVENT_LOG_COLUMNS", ())]
            return {"bytes": int(sum(col.nbytes for col in cols))}

        def is_summary(args):
            return isinstance(args[0], dict) and "manifest_name" in args[0]

        hooks = [
            (cli, "cli", "parse_manifest", lambda f: self.span("cli.parse_manifest", f)),
            (cli, "cli", "execute_manifest", lambda f: self.span("cli.execute_manifest", f, root=True)),
            (cli, "cli", "run_protocol", lambda f: self.span(
                "protocols.run_protocol", f, run_of=lambda a, k: self.run_names.get(id(a[0]))
            )),
            (cli, "cli", "canonical_json", lambda f: self.span(
                "cli.canonical_json", f, run_of=lambda a, k: "summary" if is_summary(a) else self._local_run()
            )),
            (cli, "cli", "ascii_histogram", lambda f: self.span("cli.ascii_histogram", f)),
            (log, "protocols.EventLog", "digest", lambda f: self.span(
                "protocols.EventLog.digest", f, counts=log_bytes
            )),
            (log, "protocols.EventLog", "to_csv", lambda f: self.span(
                "protocols.EventLog.to_csv", f, counts=lambda a, k: {"rows": len(a[0])}, after=csv_bytes
            )),
            (protocols, "protocols", "coincidence_match", lambda f: self.span(
                "protocols.coincidence_match", f, counts=lambda a, k: {"events": _size(a[1])}
            )),
            (protocols, "protocols", "available_mask", lambda f: self.span(
                "models.available_mask", f, counts=lambda a, k: {"lanes": _size(a[-1])}
            )),
            (protocols, "protocols", "classify_pattern", lambda f: self.span(
                "stats.classify_pattern", f, counts=lambda a, k: {"samples": _size(a[0])}
            )),
            (protocols, "protocols", "tv_distance_empirical", lambda f: self.span("stats.tv_distance_empirical", f)),
            (protocols, "protocols", "contradiction_margin", lambda f: self.span("stats.contradiction_margin", f)),
            (stats, "stats", "tv_distance", lambda f: self.span("stats.tv_distance", f)),
            (stats, "stats", "optimal_interval_set", lambda f: self.span("stats.optimal_interval_set", f)),
            (stats, "stats", "required_sample_size", lambda f: self.span("stats.required_sample_size", f)),
            (law, "optics.PatternDistribution", "ppf", lambda f: self.span(
                "optics.ppf", f, counts=lambda a, k: {"lanes": _size(a[1] if len(a) > 1 else k["u"])}
            )),
            (law, "optics.PatternDistribution", "__init__", lambda f: self.counted("optics.law_instances", f)),
            (optics, "optics", "invert_monotone", lambda f: with_f_counter(
                "numerics.invert_monotone", f, "numerics.invert_monotone.f_calls",
                "numerics.invert_monotone.lane_evals",
            )),
            (optics, "optics", "adaptive_simpson", lambda f: with_f_counter(
                "numerics.adaptive_simpson", f, "numerics.adaptive_simpson.evals", None
            )),
            (stats, "stats", "adaptive_simpson", lambda f: with_f_counter(
                "numerics.adaptive_simpson", f, "numerics.adaptive_simpson.evals", None
            )),
        ]
        for owner, owner_label, attr, make in hooks:
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{owner_label}.{attr}")
                continue
            setattr(owner, attr, make(original))
