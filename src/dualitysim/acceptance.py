"""Built-in acceptance manifest and its pass/fail criteria.

``run_acceptance`` executes the manifest (plus determinism re-executions)
and evaluates nine numbered criteria, each reported as one PASS/FAIL line.
All runs are seeded, so the whole suite is reproducible bit for bit.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cli import ManifestRun, RunManifest, execute_manifest
from .models import RenderingModel, RenderingPolicy
from .numerics import adaptive_simpson
from .optics import (
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    particle_density,
    wave_density,
)
from .protocols import (
    DELTA_T_FAST,
    DELTA_T_SLOW,
    ObservationSchedule,
    OutcomeHypothesis,
    Protocol,
    ProtocolConfig,
    RunResult,
    SwitchStage,
    SwitchStrategy,
    run_protocol,
)
from .stats import (
    FeasibilityReport,
    Verdict,
    classify_pattern,
    delta_of_interval_set,
    optimal_interval_set,
    required_sample_size,
    tv_distance,
)

#: fixed seed of the deterministic 1000-replicate classifier validation
REPLICATE_SEED = 424242


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.title} ({self.detail})"


@dataclass
class AcceptanceReport:
    criteria: list[CriterionResult]
    artifacts_dir: str | None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def summary_line(self) -> str:
        n_pass = sum(c.passed for c in self.criteria)
        return f"{n_pass}/{len(self.criteria)} acceptance criteria passed"


def builtin_manifest(out_dir: str = "acceptance-runs"):
    """The acceptance batch: every criterion's simulated inputs in one manifest."""
    collapse = RenderingModel(RenderingPolicy.COLLAPSE_AT_DETECTION)
    render = RenderingModel(RenderingPolicy.RENDER_AT_AVAILABILITY)
    optics = OpticsConfig()
    runs = [
        ManifestRun(name, ProtocolConfig(protocol=protocol, model=model, n_pairs=n_pairs, seed=seed))
        for name, protocol, model, n_pairs, seed in (
            ("predictor_main", Protocol.PREDICTOR, collapse, 1_000_000, 101),
            ("eraser_main", Protocol.QUANTUM_ERASER, collapse, 400_000, 102),
            ("dnr_collapse", Protocol.DETECT_NO_RECORD, collapse, 100_000, 103),
            ("dnr_render", Protocol.DETECT_NO_RECORD, render, 100_000, 103),
            ("macro_collapse", Protocol.MACROSCOPIC_ERASURE, collapse, 100_000, 104),
            ("macro_render", Protocol.MACROSCOPIC_ERASURE, render, 100_000, 104),
        )
    ]
    # the stage-d runs differ only in size, seed and the switch's interval set
    stage_d = dict(
        protocol=Protocol.SWITCH_EXPERIMENT,
        model=collapse,
        switch_stage=SwitchStage.D,
        observation_schedule=ObservationSchedule.AT_T0,
        outcome_hypothesis=OutcomeHypothesis.I,
    )
    for name, n_pairs, seed, iset in (
        ("switch_refused", 10_000, 106, optimal_interval_set(optics)),
        ("switch_empty", 20_000, 107, IntervalSet.empty()),
        ("switch_full", 20_000, 108, IntervalSet.full_window(optics)),
    ):
        strategy = SwitchStrategy.strategy_1(iset)
        runs.append(ManifestRun(name, ProtocolConfig(n_pairs=n_pairs, seed=seed, strategy=strategy, **stage_d)))
    for stage in (SwitchStage.A, SwitchStage.B, SwitchStage.C):
        for tag, dt in (("fast", DELTA_T_FAST), ("slow", DELTA_T_SLOW)):
            runs.append(
                ManifestRun(
                    f"switch_{stage.value}_{tag}",
                    ProtocolConfig(
                        protocol=Protocol.SWITCH_EXPERIMENT,
                        model=collapse,
                        n_pairs=100_000,
                        seed=105,
                        switch_stage=stage,
                        delta_t_s=dt,
                    ),
                )
            )
    return RunManifest(runs=tuple(runs), out_dir=out_dir, formats=frozenset({"json"}), name="acceptance suite")


def _criterion_1(outcomes) -> CriterionResult:
    stats = outcomes["predictor_main"].predictor
    ok = stats.max_abs_deviation_curve <= 0.02 and stats.dark_fringe_min_empirical >= 0.99
    detail = (
        f"max |empirical - curve| = {stats.max_abs_deviation_curve:.4f} <= 0.02; "
        f"dark-bin min = {stats.dark_fringe_min_empirical:.4f} >= 0.99"
    )
    return CriterionResult(1, "record posterior tracks 1/(1+2cos^2) in every a/50 bin", ok, detail)


def _criterion_2() -> CriterionResult:
    optics = OpticsConfig()
    tv = tv_distance(optics)
    # independent quadrature of |w - p|, split at the density crossings: the optimal set's ends
    lo, hi = optics.window
    star = optimal_interval_set(optics)
    crossings = [lo, *(x for x in star.intervals.ravel().tolist() if lo < x < hi), hi]
    integrand = lambda x: np.abs(wave_density(x, optics) - particle_density(x, optics))
    quad = 0.5 * sum(
        adaptive_simpson(integrand, p, q, tol=1e-12) for p, q in zip(crossings, crossings[1:])
    )
    d_star = delta_of_interval_set(star, optics)
    d_empty = delta_of_interval_set(IntervalSet.empty(), optics)
    d_full = delta_of_interval_set(IntervalSet.full_window(optics), optics)
    rng = np.random.default_rng(2024)
    worst_pair = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        points = np.sort(rng.uniform(lo, hi, size=2 * k))
        iset = IntervalSet.from_pairs(points.reshape(-1, 2), window=optics.window)
        total = delta_of_interval_set(iset, optics) + delta_of_interval_set(iset.complement(optics.window), optics)
        worst_pair = max(worst_pair, abs(total - 2.0))
    checks = [
        abs(tv - 1.0 / math.pi) <= 1e-9,
        abs(tv - quad) <= 1e-9,
        abs(d_star - (1.0 - 1.0 / math.pi)) <= 1e-9,
        d_empty == 1.0,
        d_full == 1.0,
        worst_pair <= 1e-9,
    ]
    detail = (
        f"|TV - 1/pi| = {abs(tv - 1 / math.pi):.2e}; |TV - quadrature| = {abs(tv - quad):.2e}; "
        f"|delta(I*) - (1 - 1/pi)| = {abs(d_star - (1 - 1 / math.pi)):.2e}; "
        f"delta(empty) = {d_empty}; delta(window) = {d_full}; "
        f"worst |delta(I)+delta(Ic)-2| over 100 random sets = {worst_pair:.2e}"
    )
    return CriterionResult(2, "total-variation and delta identities hold to 1e-9", all(checks), detail)


def _criterion_3() -> CriterionResult:
    optics = OpticsConfig()
    tv = tv_distance(optics)
    d_star = delta_of_interval_set(optimal_interval_set(optics), optics)
    ok = abs(d_star - 0.6817) <= 1e-4 and d_star < 0.9 and abs(tv - 0.3183) <= 1e-4 and tv > 0.1
    detail = f"delta(I*) = {d_star:.6f} < 0.9; TV = {tv:.6f} > 0.1"
    return CriterionResult(3, "optimal interval set crosses the noise threshold", ok, detail)


def _criterion_4(outcomes) -> CriterionResult:
    refused = outcomes["switch_refused"]
    tv = tv_distance(OpticsConfig())
    checks = []
    if isinstance(refused, FeasibilityReport):
        checks.append(not refused.feasible_under_outcome_i)
        checks.append(abs(refused.margin - tv) <= 1e-9)
        margin_txt = f"margin = {refused.margin:.9f} (= TV within {abs(refused.margin - tv):.1e})"
    else:
        checks.append(False)
        margin_txt = "run unexpectedly completed"
    empty_ok = isinstance(outcomes["switch_empty"], RunResult)
    full_ok = isinstance(outcomes["switch_full"], RunResult)
    checks += [empty_ok, full_ok]
    detail = (
        f"Strategy1(I*) refused, {margin_txt}; "
        f"Strategy1(empty) completed = {empty_ok}; Strategy1(window) completed = {full_ok}"
    )
    return CriterionResult(4, "outcome-(i) consistency fails exactly by the TV margin", all(checks), detail)


def _criterion_5(outcomes) -> CriterionResult:
    res = outcomes["eraser_main"]
    subs = res.subsets
    n = res.config.n_pairs
    sigma = math.sqrt(n * 0.25 * 0.75)
    occupancy_ok = all(abs(subs[k].count - n / 4) <= 3 * sigma for k in ("D1", "D2", "D3", "D4"))
    purity_ok = subs["D3"].slit_counts[1] == 0 and subs["D4"].slit_counts[0] == 0
    checks = [
        subs["D1"].visibility > 0.9,
        subs["D2"].visibility > 0.9,
        subs["D3"].visibility < 0.1,
        subs["D4"].visibility < 0.1,
        purity_ok,
        res.pooled.visibility < 0.05,
        occupancy_ok,
    ]
    detail = (
        f"visibility D1 = {subs['D1'].visibility:.3f}, D2 = {subs['D2'].visibility:.3f} (> 0.9); "
        f"D3 = {subs['D3'].visibility:.3f}, D4 = {subs['D4'].visibility:.3f} (< 0.1); "
        f"slit purity = {purity_ok}; pooled visibility = {res.pooled.visibility:.4f} < 0.05; "
        f"occupancy within 3 sigma = {occupancy_ok}"
    )
    return CriterionResult(5, "eraser subsets split into fringes and tagged flats", all(checks), detail)


def _replicate_errors(n_samples: int, replicates_per_law: int, seed: int) -> int:
    """Sign errors of ``classify_pattern``'s LLR over seeded replicates of each law."""
    optics = OpticsConfig()
    rng = np.random.default_rng(seed)
    errors = 0
    for kind, wrong_sign in ((PatternKind.WAVE, np.less_equal), (PatternKind.PARTICLE, np.greater)):
        draws = np.asarray(PatternDistribution(kind, optics).ppf(rng.random((replicates_per_law, n_samples))))
        llrs = [classify_pattern(row, optics).log_likelihood_ratio for row in draws]
        errors += int(np.sum(wrong_sign(llrs, 0.0)))
    return errors


def _criterion_6(outcomes) -> CriterionResult:
    table = {
        ("dnr_collapse", "screen"): Verdict.PARTICLE,
        ("dnr_render", "screen"): Verdict.WAVE,
        ("macro_collapse", "destroyed"): Verdict.PARTICLE,
        ("macro_render", "destroyed"): Verdict.WAVE,
    }
    verdict_ok = True
    got = []
    for (run, key), want in table.items():
        verdict = outcomes[run].subsets[key].verdict
        got.append(f"{run}[{key}] = {verdict.value}")
        verdict_ok = verdict_ok and verdict is want
    plan = required_sample_size(1e-3, OpticsConfig())
    errors = _replicate_errors(plan.n_samples, 500, REPLICATE_SEED)
    rate = errors / 1000.0
    ok = verdict_ok and plan.n_samples <= 100 and rate < 1e-3
    detail = (
        "; ".join(got)
        + f"; required n = {plan.n_samples} <= 100; replicate error rate = {errors}/1000 < 1e-3"
    )
    return CriterionResult(6, "rendering models separate and the classifier is reliable", ok, detail)


def _criterion_7() -> CriterionResult:
    optics = OpticsConfig()
    wave = PatternDistribution(PatternKind.WAVE, optics)
    n = 100_000
    critical = math.sqrt(0.5 * math.log(2.0 / 0.001)) / math.sqrt(n)
    passes = 0
    worst = 0.0
    for seed in range(100):
        u = np.random.default_rng(seed).random(n)
        x = np.sort(np.asarray(wave.ppf(u)))
        c = np.asarray(wave.cdf(x))
        i = np.arange(1, n + 1)
        d = max(float(np.max(i / n - c)), float(np.max(c - (i - 1) / n)))
        worst = max(worst, d)
        passes += d < critical
    ok = passes >= 99
    detail = f"{passes}/100 seeded runs below critical {critical:.6f} (worst D = {worst:.6f})"
    return CriterionResult(7, "sampled interference law passes the KS test", ok, detail)


def _compare_trees(dir_a: Path, dir_b: Path) -> tuple[bool, str]:
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return False, "file sets differ"
    for name in names_a:
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            return False, f"{name} differs"
    return True, f"{len(names_a)} files byte-identical"


def _criterion_8(base_dir: Path, summary: dict, jobs: int) -> CriterionResult:
    repeat_dir = base_dir.parent / (base_dir.name + "-repeat")
    threads_dir = base_dir.parent / (base_dir.name + "-threads")
    code_r, _, _ = execute_manifest(builtin_manifest(str(repeat_dir)), jobs=jobs)
    code_t, summary_t, _ = execute_manifest(builtin_manifest(str(threads_dir)), jobs=max(4, jobs))
    identical, why = _compare_trees(base_dir, repeat_dir)
    digests_base = {r["name"]: r["event_digest"] for r in summary["runs"]}
    digests_threads = {r["name"]: r["event_digest"] for r in summary_t["runs"]}
    digests_ok = digests_base == digests_threads
    ok = code_r == 0 and code_t == 0 and identical and digests_ok
    detail = f"re-execution: {why}; event digests invariant across thread counts = {digests_ok}"
    return CriterionResult(8, "same seed reproduces reports byte for byte", ok, detail)


def _criterion_9(outcomes, manifest) -> CriterionResult:
    configs = {run.name: run.config for run in manifest.runs}
    verdicts_ok = True
    for stage in ("a", "b", "c"):
        for tag in ("fast", "slow"):
            verdicts_ok = verdicts_ok and outcomes[f"switch_{stage}_{tag}"].subsets["screen"].verdict is Verdict.WAVE
    equal_ok = True
    for stage in ("a", "b", "c"):
        fast = run_protocol(configs[f"switch_{stage}_fast"])
        slow = run_protocol(configs[f"switch_{stage}_slow"])
        equal_ok = equal_ok and np.array_equal(fast.events.signal_x_m, slow.events.signal_x_m)
        equal_ok = equal_ok and np.array_equal(fast.subsets["screen"].histogram, slow.subsets["screen"].histogram)
    ok = verdicts_ok and equal_ok
    detail = (
        f"all six stage runs verdict wave = {verdicts_ok}; "
        f"seed-matched impact arrays identical across presets = {equal_ok}"
    )
    return CriterionResult(9, "idler delay never leaks into the screen law", ok, detail)


def run_acceptance(out_dir: str | None = None, jobs: int = 1) -> AcceptanceReport:
    """Execute the built-in manifest and evaluate all nine criteria."""
    cleanup = None
    if out_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="acceptance-")
        out_dir = cleanup.name
    base = Path(out_dir) / "baseline"
    try:
        manifest = builtin_manifest(str(base))
        code, summary, outcomes = execute_manifest(manifest, jobs=jobs)
        if code != 0:
            failed = [r["name"] for r in summary["runs"] if r["status"] == "error"]
            criteria = [
                CriterionResult(0, "manifest execution", False, f"runs errored: {', '.join(failed)}")
            ]
            return AcceptanceReport(criteria, None if cleanup else str(out_dir))
        criteria = [
            _criterion_1(outcomes),
            _criterion_2(),
            _criterion_3(),
            _criterion_4(outcomes),
            _criterion_5(outcomes),
            _criterion_6(outcomes),
            _criterion_7(),
            _criterion_8(base, summary, jobs),
            _criterion_9(outcomes, manifest),
        ]
        return AcceptanceReport(criteria, None if cleanup else str(out_dir))
    finally:
        if cleanup is not None:
            cleanup.cleanup()
