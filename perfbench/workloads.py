"""Workload manifests for the simrun batch benchmark.

Each workload is a manifest document for ``dualitysim.cli.parse_manifest``
plus, for the geometry study, a list of planning calls. Everything is derived
from the workload seed: the same seed gives the same manifest bytes. The
program under test only ever sees the generated manifest.

This module imports nothing from ``dualitysim`` so the parent process stays
light; manifests are plain JSON.
"""

from __future__ import annotations

import random

#: default fringe period a = wavelength * distance / separation = 0.7 mm
FRINGE_M = 700e-9 * 1.0 / 1e-3
#: default screen halfwidth: one fringe period inside the window
HALF_FRINGE_M = 0.5 * FRINGE_M
#: the bright-fringe half period where the wave law exceeds the uniform law (I*)
I_STAR = [[-0.25 * FRINGE_M, 0.25 * FRINGE_M]]

POLICIES = ("collapse_at_detection", "render_at_availability")
SHORT_POLICY = {"collapse_at_detection": "collapse", "render_at_availability": "render"}

#: planning call target error, as in the README quick start
PLAN_TARGET_ERROR = 1e-3

WORKLOADS = ("protocols_1e6", "csv_export", "odd_geometry")


def _protocol_variants() -> list[tuple[str, dict]]:
    """Every protocol on the default window: runner variants as manifest keys."""
    stage_d = {"protocol": "switch_experiment", "switch_stage": "d", "observation_schedule": "at_t0"}
    return [
        ("double_slit", {"protocol": "double_slit"}),
        ("delayed_choice", {"protocol": "delayed_choice"}),
        ("quantum_eraser", {"protocol": "quantum_eraser"}),
        ("dnr_unplugged", {"protocol": "detect_no_record", "variant": "unplugged_detectors"}),
        ("dnr_no_counter", {"protocol": "detect_no_record", "variant": "no_coincidence_counter"}),
        ("dnr_channels_off", {"protocol": "detect_no_record", "variant": "which_way_channels_off"}),
        ("macroscopic_erasure", {"protocol": "macroscopic_erasure"}),
        ("predictor", {"protocol": "predictor"}),
        ("switch_a", {"protocol": "switch_experiment", "switch_stage": "a"}),
        ("switch_d_ii", {**stage_d, "outcome_hypothesis": "ii",
                         "strategy": {"kind": "strategy_1", "intervals": I_STAR}}),
        ("switch_d_iii", {**stage_d, "outcome_hypothesis": "iii",
                          "strategy": {"kind": "strategy_1", "intervals": I_STAR}}),
        ("switch_d_i_empty", {**stage_d, "outcome_hypothesis": "i",
                              "strategy": {"kind": "strategy_1", "intervals": []}}),
        ("switch_d_i_istar", {**stage_d, "outcome_hypothesis": "i",
                              "strategy": {"kind": "strategy_1", "intervals": I_STAR}}),
        ("perishable_a", {"protocol": "perishable_media", "observation_schedule": "at_t0",
                          "recording_rule": "perishable_is_objective"}),
        ("perishable_b", {"protocol": "perishable_media", "observation_schedule": "at_t0",
                          "recording_rule": "permanent_only"}),
    ]


#: odd_geometry: name -> optics overrides (non-integer windows, envelope, tiny windows)
GEOMETRIES = (
    ("m20_29", {"screen_halfwidth_m": 20.29 * HALF_FRINGE_M}),
    ("m50_29", {"screen_halfwidth_m": 50.29 * HALF_FRINGE_M}),
    ("envelope", {"envelope_enabled": True}),
    ("hw1e-4", {"screen_halfwidth_m": 1e-4}),
    ("hw5e-8", {"screen_halfwidth_m": 5e-8}),
)


PLANNING_CALLS = ("tv_distance", "optimal_interval_set", "required_sample_size")
#: required_sample_size on the wide non-integer windows integrates the
#: Bhattacharyya coefficient in pure Python for 6 s (m = 20.29) and 20 s
#: (m = 50.29); with them one batch filled a whole run and its time spread by a
#: quarter between runs, so they are left out of the batch
_SKIPPED_PLANS = {("required_sample_size", "m20_29"), ("required_sample_size", "m50_29")}


def _entry_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(f"perfbench:{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


def _with_seeds(runs: list[dict], seed: int) -> list[dict]:
    for run, entry_seed in zip(runs, _entry_seeds(seed, len(runs))):
        run["seed"] = entry_seed
    return runs


def build(workload: str, seed: int, scale: float = 1.0) -> dict:
    """Return {"manifest": <document>, "jobs": k, "plans": [...]} for a workload.

    ``scale`` multiplies every n_pairs (smoke runs use a small scale).
    """

    def n(pairs: float) -> int:
        return max(2, int(round(pairs * scale)) // 2 * 2)

    plans: list[dict] = []
    if workload == "protocols_1e6":
        runs = [
            {"name": f"{name}-{SHORT_POLICY[policy]}", **keys, "n_pairs": n(1e6), "model": {"policy": policy}}
            for name, keys in _protocol_variants()
            for policy in POLICIES
        ]
        formats, jobs = ["json", "ascii"], 1
    elif workload == "csv_export":
        runs = [
            {"name": f"{protocol}-{SHORT_POLICY[policy]}", "protocol": protocol, "n_pairs": n(1e5),
             "model": {"policy": policy}}
            for protocol in ("quantum_eraser", "delayed_choice")
            for policy in POLICIES
        ]
        formats, jobs = ["json", "csv", "ascii"], 2
    elif workload == "odd_geometry":
        runs = []
        render = {"policy": "render_at_availability"}
        for geo, optics in GEOMETRIES:
            for call in PLANNING_CALLS:
                if (call, geo) not in _SKIPPED_PLANS:
                    plans.append({"name": f"{call}-{geo}", "call": call, "optics": optics})
            for protocol in ("quantum_eraser", "predictor"):
                runs.append({"name": f"{protocol}-{geo}", "protocol": protocol, "n_pairs": n(1e5),
                             "optics": dict(optics), "model": render})
        runs.append({"name": "quantum_eraser-greedy", "protocol": "quantum_eraser", "n_pairs": n(5e4),
                     "delta_t_s": 1e-8, "coincidence_window_s": 0.8e-8, "model": render})
        formats, jobs = ["json", "ascii"], 1
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    manifest = {"name": workload, "out_dir": "reports", "formats": formats, "runs": _with_seeds(runs, seed)}
    return {"manifest": manifest, "jobs": jobs, "plans": plans}
