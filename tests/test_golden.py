"""Golden outputs: event digests and report hashes pinned across versions.

Every case of a small branch matrix (n = 2,000, both rendering policies) is
run and its event digest and the sha256 of its canonical report are compared
with recorded values; a refusal pins the sha256 of its FeasibilityReport JSON
instead. The acceptance manifest's event digests, some events.csv files and
every file that execute_manifest writes for a small batch are pinned as well.
A pinned value may move only with a CHANGES.md entry that says why.
"""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from dualitysim import protocols
from dualitysim.acceptance import builtin_manifest
from dualitysim.cli import REPORT_FORMATS, ManifestRun, RunManifest, canonical_json, execute_manifest
from dualitysim.models import AvailabilityHorizon, RenderingModel, RenderingPolicy
from dualitysim.optics import IntervalSet, OpticsConfig, ValidationError, fringe_aligned_edges
from dualitysim.protocols import (
    DELTA_T_SLOW,
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
    run_protocol,
)
from dualitysim.stats import optimal_interval_set

N = 2_000
POLICIES = {"collapse": RenderingPolicy.COLLAPSE_AT_DETECTION, "render": RenderingPolicy.RENDER_AT_AVAILABILITY}


def _cases() -> dict[str, dict]:
    """Branch matrix: case name -> ProtocolConfig keyword arguments (policy aside)."""
    optics = OpticsConfig()
    star = optimal_interval_set(optics)
    half = IntervalSet.from_pairs([(0.0, optics.screen_halfwidth_m)])
    d = dict(switch_stage=SwitchStage.D, observation_schedule=ObservationSchedule.AT_T0)
    at_t0 = dict(observation_schedule=ObservationSchedule.AT_T0)
    cases = {
        "double_slit-recording": dict(protocol=Protocol.DOUBLE_SLIT),
        "double_slit-not_recording": dict(protocol=Protocol.DOUBLE_SLIT, detectors_recording=False),
        "double_slit-at_t0": dict(protocol=Protocol.DOUBLE_SLIT, **at_t0),
        "delayed_choice": dict(protocol=Protocol.DELAYED_CHOICE, choice_record_prob=0.3),
        "delayed_choice-at_t0": dict(protocol=Protocol.DELAYED_CHOICE, **at_t0),
        "quantum_eraser": dict(protocol=Protocol.QUANTUM_ERASER),
        "quantum_eraser-at_t0": dict(protocol=Protocol.QUANTUM_ERASER, **at_t0),
        "quantum_eraser-greedy": dict(protocol=Protocol.QUANTUM_ERASER, coincidence_window_s=0.8e-8),
        "quantum_eraser-m2_29": dict(protocol=Protocol.QUANTUM_ERASER, optics=OpticsConfig(screen_halfwidth_m=0.8e-3)),
        "quantum_eraser-envelope": dict(protocol=Protocol.QUANTUM_ERASER, optics=OpticsConfig(envelope_enabled=True)),
        "macroscopic_erasure-coin": dict(protocol=Protocol.MACROSCOPIC_ERASURE, destruction_prob=0.3),
        "macroscopic_erasure-half": dict(protocol=Protocol.MACROSCOPIC_ERASURE, pairing_mode=PairingMode.EXACT_HALF_SUBSET),
        "macroscopic_erasure-at_t0": dict(protocol=Protocol.MACROSCOPIC_ERASURE, **at_t0),
        "predictor": dict(protocol=Protocol.PREDICTOR),
        "predictor-m2_29": dict(protocol=Protocol.PREDICTOR, optics=OpticsConfig(screen_halfwidth_m=0.8e-3)),
        "switch-a": dict(protocol=Protocol.SWITCH_EXPERIMENT),
        "switch-a-slow": dict(protocol=Protocol.SWITCH_EXPERIMENT, delta_t_s=DELTA_T_SLOW, coincidence_window_s=1.0),
        "switch-d-i-empty": dict(
            protocol=Protocol.SWITCH_EXPERIMENT, strategy=SwitchStrategy.always_off(), outcome_hypothesis=OutcomeHypothesis.I, **d
        ),
        "switch-d-i-full": dict(
            protocol=Protocol.SWITCH_EXPERIMENT, strategy=SwitchStrategy.always_on(), outcome_hypothesis=OutcomeHypothesis.I, **d
        ),
        "switch-d-i-refused": dict(
            protocol=Protocol.SWITCH_EXPERIMENT, strategy=SwitchStrategy.strategy_1(star), outcome_hypothesis=OutcomeHypothesis.I, **d
        ),
        "switch-d-i-indistinguishable": dict(
            protocol=Protocol.SWITCH_EXPERIMENT,
            strategy=SwitchStrategy.strategy_1(star),
            outcome_hypothesis=OutcomeHypothesis.I,
            noise_threshold=0.5,
            **d,
        ),
        "switch-d-i-custom": dict(
            protocol=Protocol.SWITCH_EXPERIMENT,
            strategy=SwitchStrategy.custom([-0.35e-3, -0.1e-3, 0.1e-3, 0.35e-3], [True, False, True]),
            outcome_hypothesis=OutcomeHypothesis.I,
            noise_threshold=0.5,
            **d,
        ),
        "switch-d-ii": dict(
            protocol=Protocol.SWITCH_EXPERIMENT, strategy=SwitchStrategy.strategy_1(half), outcome_hypothesis=OutcomeHypothesis.II, **d
        ),
        "switch-d-iii": dict(
            protocol=Protocol.SWITCH_EXPERIMENT, strategy=SwitchStrategy.strategy_1(half), outcome_hypothesis=OutcomeHypothesis.III, **d
        ),
        "switch-d-iv": dict(
            protocol=Protocol.SWITCH_EXPERIMENT, strategy=SwitchStrategy.strategy_1(star), outcome_hypothesis=OutcomeHypothesis.IV, **d
        ),
        "perishable-a": dict(protocol=Protocol.PERISHABLE_MEDIA, **at_t0),
        "perishable-a-short_ttl": dict(protocol=Protocol.PERISHABLE_MEDIA, ttl_s=1e-9, rule_intervals=half, **at_t0),
        "perishable-b-refused": dict(protocol=Protocol.PERISHABLE_MEDIA, recording_rule=RecordingRule.PERMANENT_ONLY, **at_t0),
        "perishable-b-indistinguishable": dict(
            protocol=Protocol.PERISHABLE_MEDIA, recording_rule=RecordingRule.PERMANENT_ONLY, noise_threshold=0.5, **at_t0
        ),
        "perishable-b-empty": dict(
            protocol=Protocol.PERISHABLE_MEDIA,
            recording_rule=RecordingRule.PERMANENT_ONLY,
            rule_intervals=IntervalSet.empty(),
            **at_t0,
        ),
    }
    for variant in DetectNoRecordVariant:
        cases[f"detect_no_record-{variant.value}"] = dict(protocol=Protocol.DETECT_NO_RECORD, variant=variant)
    return cases


def matrix() -> dict[str, ProtocolConfig]:
    """Every case under both policies; render-policy cases of macroscopic
    erasure and delayed choice also run at the impact-time horizon."""
    out = {}
    for name, kwargs in _cases().items():
        for tag, policy in POLICIES.items():
            out[f"{name}-{tag}"] = ProtocolConfig(model=RenderingModel(policy), n_pairs=N, seed=11, **kwargs)
    impact = RenderingModel(RenderingPolicy.RENDER_AT_AVAILABILITY, AvailabilityHorizon.AT_IMPACT_TIME)
    for name in ("macroscopic_erasure-coin", "delayed_choice"):
        out[f"{name}-render-at_impact"] = replace(out[f"{name}-render"], model=impact)
    return out


def fingerprint(outcome) -> tuple[str | None, str]:
    """(event digest or None for a refusal, sha256 of the canonical report)."""
    text = canonical_json(outcome)
    digest = outcome.event_digest if isinstance(outcome, RunResult) else None
    return digest, hashlib.sha256(text.encode()).hexdigest()


GOLDEN: dict[str, tuple[str | None, str]] = {
    "delayed_choice-at_t0-collapse": (
        "2cae31d13df658fb9830f403f03e507c915875bcc04405a041c015822209f035",
        "df161bcf76dcb60695c8c75d5c5e85f03b4a2f502419b89cce7c39a146d2ec64",
    ),
    "delayed_choice-at_t0-render": (
        "2cae31d13df658fb9830f403f03e507c915875bcc04405a041c015822209f035",
        "bcda75ac12eb046751b368385734a270c89f6afc2694cf8067755983dc6eacf2",
    ),
    "delayed_choice-collapse": (
        "ecd5cf6e95268e766523b24db35da2ea867bcdddda7a8bfb0103227113bf5aa6",
        "534ea2ca7599ff86ee90ee7e8c0c8af3704a52cb66d0dfc0f772b651fcecd4e6",
    ),
    "delayed_choice-render": (
        "ecd5cf6e95268e766523b24db35da2ea867bcdddda7a8bfb0103227113bf5aa6",
        "c2ac9fb25d813bbfe5202f5bec3f133b2f24f76f409883dff89b86fff20c9b0b",
    ),
    "delayed_choice-render-at_impact": (
        "ecd5cf6e95268e766523b24db35da2ea867bcdddda7a8bfb0103227113bf5aa6",
        "396b3169c7397f1a9516033eb8751f26d90f6414c7f7a3ddacf8c65601ffecbf",
    ),
    "detect_no_record-no_coincidence_counter-collapse": (
        "716ab4bdde5a8126268b296d466199ae6250aec3201504fe5027d2f2e6229e1b",
        "f783521bef63453c89e5f9b7d6a314bfaa64aa4db5b79863c41dd85a90dadd02",
    ),
    "detect_no_record-no_coincidence_counter-render": (
        "914835b07680bf3d0414a3a0212dd7dea9b7da936cc2fd508d8e4523d640c017",
        "8e4d2faf553b98f8fe373f394ffc9c2002f11afb65ce72f28384d6da8d16a539",
    ),
    "detect_no_record-unplugged_detectors-collapse": (
        "bbc03729e85dedb67b4711cf52dce80615080a563aee0b48698f602a099cf2bc",
        "6a1b05307e3dae381487413038f6677ed11160a83786cea846be97ad6bc72ab8",
    ),
    "detect_no_record-unplugged_detectors-render": (
        "58e32690674bf448e4b2467fc4b727b4045da568a3741a845b5e2847f489ebd4",
        "abe3d0bafcca9b8d4e0511c8e7239912bdd1da3f29df20b176878ba407d0549f",
    ),
    "detect_no_record-which_way_channels_off-collapse": (
        "8f85ad2b13eda309515a1bc0f6031981ccb926f3ab60da289ff558a3ea8c4d7a",
        "c87cbd692c34e4c51eaf25f49279b90d8eda1119b9b9b41366b22fe2f39b7b3a",
    ),
    "detect_no_record-which_way_channels_off-render": (
        "a915aa2a1aef85065148703d4e4cde3fdbdb90707d97ada45d82df36e01f3469",
        "3db61221f2e72aa85d117ac8aa1ee05d9794cecda198437fdeb26cae2a0138d5",
    ),
    "double_slit-at_t0-collapse": (
        "1b3fd3c6aa5d14607841960c589c0c6d5062b8830962d26232b04d6101f6ea63",
        "e276164087657bf79468814b74f4b6d0c778048e1bb21ec9c8365bc139acc640",
    ),
    "double_slit-at_t0-render": (
        "1b3fd3c6aa5d14607841960c589c0c6d5062b8830962d26232b04d6101f6ea63",
        "32cedce6c3e83da16b7f014e9e40d56c6bb74f0015167e2157820179ccb93ab2",
    ),
    "double_slit-not_recording-collapse": (
        "905c98ba37aeea91bf969c6c63be62c5031d6cfbfba0ce4131d502bf4f2c7b69",
        "a0060e5833772d3892a31567111383bcb955067045727387aa831b38e7e1e8f8",
    ),
    "double_slit-not_recording-render": (
        "905c98ba37aeea91bf969c6c63be62c5031d6cfbfba0ce4131d502bf4f2c7b69",
        "2dbf5a6ffa464a3ac1bd955b4574fefb2491246a9d01de00a4673423e41cc31c",
    ),
    "double_slit-recording-collapse": (
        "52d4574c9246f3de60fa1b56a82702026c9e3d130878fb59a22e72770631b15f",
        "38698e508821bd10e2c2a38af4d925903b1b13b44769aa7be54c01ea7b82cfcd",
    ),
    "double_slit-recording-render": (
        "52d4574c9246f3de60fa1b56a82702026c9e3d130878fb59a22e72770631b15f",
        "023cc66c49ae76c8695d7b0c8390c27401f0de73a3868a96ad55947cca01b109",
    ),
    "macroscopic_erasure-at_t0-collapse": (
        "0a1503558c99b0e54a5f21e80738f91e4f158860b5173dc22d120e397781f5f5",
        "a87f8c07e4f2c5b8853d59a70a15c5de2df996a9480149a25bad9e0dd3ef6753",
    ),
    "macroscopic_erasure-at_t0-render": (
        "0a1503558c99b0e54a5f21e80738f91e4f158860b5173dc22d120e397781f5f5",
        "9e2ab6921b6c061a167390a8da795651ad57e44d17278c75cd75cfc36f397bb1",
    ),
    "macroscopic_erasure-coin-collapse": (
        "aec015ff20fea07c19805463b93f323f93d87b5a1850dc65409aef284e63d2fa",
        "5d215fe7a3e75044c667b723cf4c9d3db7e716fa2dfb7725db59f3c439465497",
    ),
    "macroscopic_erasure-coin-render": (
        "ec8f3defe00ea36207e9e66a47b83ff20b6f951bdb8189d8dd0074fa1bf62530",
        "adf2c90ac6e61a22e247e28aec67b1eb3bba29dda73a22c774e68a573539aefb",
    ),
    "macroscopic_erasure-coin-render-at_impact": (
        "aec015ff20fea07c19805463b93f323f93d87b5a1850dc65409aef284e63d2fa",
        "5ca6bdfb3b690007e584a5a0bd57fbb1581e6ef86919857ba703369f9241ddd4",
    ),
    "macroscopic_erasure-half-collapse": (
        "9050b9d601ff45dd0a3cdb0bcdb750877013a391d4556bc7fd3577a3d59f6bd9",
        "d63c13376d29dedf011332d9b1264988314f30610951c2c76b72916e2b0abe4d",
    ),
    "macroscopic_erasure-half-render": (
        "4c2345f59593b7da510a73527e98673898e4569e296adb8210a76095550d22d8",
        "3ff8501df2100242df6b7ef399f1807f9c703e9b065f39ff842aa47aae840bc0",
    ),
    "perishable-a-collapse": (
        "80624c71f64d2888928b643e1d73227ad16b45bdef2ac6ff621927767b56b478",
        "c3c0823743f397225e68df2da73e4cdfca3bf2e43640707f520e5c277f283070",
    ),
    "perishable-a-render": (
        "80624c71f64d2888928b643e1d73227ad16b45bdef2ac6ff621927767b56b478",
        "416af9c03139ad3ef37d6f0c6c488636d68bdc95d408f21e4c811e6a2da215f6",
    ),
    "perishable-a-short_ttl-collapse": (
        "96c80a561663217f9c5cae961b432b6d9fc41d4fe9285165f194c899862e75cc",
        "76eb98b1f9d490a1af28409ebdaa90d2587e0969cfa737d099d1b312fb915447",
    ),
    "perishable-a-short_ttl-render": (
        "96c80a561663217f9c5cae961b432b6d9fc41d4fe9285165f194c899862e75cc",
        "666538c98c1bbc7a4ed8d4411924200f748c528dd80d1084586bad36f89c555a",
    ),
    "perishable-b-empty-collapse": (
        "64203e09b372f50cea2bbed3ce6bd6f166feb6dee920af8402c1773738730d3c",
        "4446cad73f21746cf2c079c9486ec184273b89d4200fd5ebbeac9741de9ba48d",
    ),
    "perishable-b-empty-render": (
        "64203e09b372f50cea2bbed3ce6bd6f166feb6dee920af8402c1773738730d3c",
        "911c1dfa09f07718f1b8ac8efe7584cea5c7b5e0af83c002d28ccfa7cd8ee3ae",
    ),
    "perishable-b-indistinguishable-collapse": (
        "ea201b213add5a945f690bc50dccc4507c94e3d9084be1c0b3e0a4c1cee7d290",
        "8181429522a99f14fa976a428c233f850ea4cecfe0569025feb1ca5951b60999",
    ),
    "perishable-b-indistinguishable-render": (
        "ea201b213add5a945f690bc50dccc4507c94e3d9084be1c0b3e0a4c1cee7d290",
        "e2733ca4ad00a8c6c60aee7ea62e1273078794803366d0b82c7a53f918304757",
    ),
    "perishable-b-refused-collapse": (
        None,
        "7d2182c6a220bb070d81bcd62fd8d9917a0d40fb92f67b57e90a9a0b761ecd80",
    ),
    "perishable-b-refused-render": (
        None,
        "7d2182c6a220bb070d81bcd62fd8d9917a0d40fb92f67b57e90a9a0b761ecd80",
    ),
    "predictor-collapse": (
        "4b162fd8aac55d105aed6e883ce860f4a9293047e9c7b71d3ecc811c5a6c20e2",
        "aa67bef8caf523aecd54f1cec80d58680c45c7457f9ecefab3b419270c658d41",
    ),
    "predictor-m2_29-collapse": (
        "b7f65e0889b27a2ce3e58e3b3cc82569a63ded1c25737f0ac3bf7327d0273f6d",
        "5a5d052b1c5eded9eb3c239a92f1b4970f1a47f56a87e4d9d39efc8aadca8261",
    ),
    "predictor-m2_29-render": (
        "b7f65e0889b27a2ce3e58e3b3cc82569a63ded1c25737f0ac3bf7327d0273f6d",
        "04cb71203c82c36eafff56a88fb24790605937a0ab2e02abfb665ae981b2df20",
    ),
    "predictor-render": (
        "4b162fd8aac55d105aed6e883ce860f4a9293047e9c7b71d3ecc811c5a6c20e2",
        "940c679c6d10cc373856a6676c75c2fa1df42478fb8f0d1e10aecbd6c32bf25a",
    ),
    "quantum_eraser-at_t0-collapse": (
        "43ad87d919b6ce1f3acdd41ce3cc87bed3db683de57be94a3e87f23c558cb892",
        "d7bfeb1b39ca3768908a05ec7d5d85434ab797a1bd72988564c35309674fb5a9",
    ),
    "quantum_eraser-at_t0-render": (
        "43ad87d919b6ce1f3acdd41ce3cc87bed3db683de57be94a3e87f23c558cb892",
        "6fe8f913bf3dc1a7cb33f67ae4fd8f91f3138de7bd6de8339c61ad057d608f4c",
    ),
    "quantum_eraser-collapse": (
        "adb06b674503c09eac73288d0e677ad010804af3a33a05b563381e3a906b7a5c",
        "59cc6e8a245dd17a1dcedac87f58b3ec32e5fccd404968bb4a70df7a14d16eac",
    ),
    "quantum_eraser-envelope-collapse": (
        "8bdf93a5d463360222d4dfab5c4821babfa6ea878b6dba1cb2c456d7939fad99",
        "f527bc2c2004b5b5d2bb0fa0e60c6849a8a7e2985ed31c6376773da68bc72521",
    ),
    "quantum_eraser-envelope-render": (
        "8bdf93a5d463360222d4dfab5c4821babfa6ea878b6dba1cb2c456d7939fad99",
        "959442b2c34c13c17bcc128b0c09cd633e901cdc90030f3e61e689166207bd16",
    ),
    "quantum_eraser-greedy-collapse": (
        "adb06b674503c09eac73288d0e677ad010804af3a33a05b563381e3a906b7a5c",
        "8ed72a2e35dd3e65b689532e06734cb66fe9a3a92b6c9fdf13d7567ea369aedb",
    ),
    "quantum_eraser-greedy-render": (
        "adb06b674503c09eac73288d0e677ad010804af3a33a05b563381e3a906b7a5c",
        "9569e024abd009863095c162e3f226fa9d5eed9c4127a79318ba94f8dfbb7bf6",
    ),
    "quantum_eraser-m2_29-collapse": (
        "6de39050fe241537a4469e7bf2760690ec74d3c229beffbbbb654d364530971a",
        "5abfbe614bf3add4b362b922f983d1145fbe380f08ca7f16de71d7d53544b61d",
    ),
    "quantum_eraser-m2_29-render": (
        "6de39050fe241537a4469e7bf2760690ec74d3c229beffbbbb654d364530971a",
        "6c624dc68aff905fa83ced9abe447219db08f257d4f657fb314b0c1707755ab0",
    ),
    "quantum_eraser-render": (
        "adb06b674503c09eac73288d0e677ad010804af3a33a05b563381e3a906b7a5c",
        "7ae30015c2a41442c3203b6f29c3b18252c7fbded48f8ae6ea4a932230864cac",
    ),
    "switch-a-collapse": (
        "180e77ead1bfca87bf75954b3501b6b8b32ba902188e52899ef72b876d75a0ba",
        "c9f8fd54c0a774a31a72da898928267a34123af5951d86a3883fdd779ad0b767",
    ),
    "switch-a-render": (
        "180e77ead1bfca87bf75954b3501b6b8b32ba902188e52899ef72b876d75a0ba",
        "3632e3f8df43e740e88ae4ce963724f1c52729f34f996332639a7ce7fd798b66",
    ),
    "switch-a-slow-collapse": (
        "f14b3c0062abdcdeaf5cfea43c4c32b8826b920214a25347e85c4d710d0c8aec",
        "d3934f9e854c2e52ab2ef4159b64354eabba3192dc72e4787fa0f91384e0ad1a",
    ),
    "switch-a-slow-render": (
        "f14b3c0062abdcdeaf5cfea43c4c32b8826b920214a25347e85c4d710d0c8aec",
        "bf4a56e58ba755580c8cb0aef81972afa7a4d9ad5b188a19dd26aa016fd9d993",
    ),
    "switch-d-i-custom-collapse": (
        "83f80c523bf4914d81016fa3e7ef3edafa070f252efeaa5ad2545bcfe6eff06d",
        "cb40d5b128923470685afebb738b4bec35d8cdbd1375397b6627f12c301b5cf8",
    ),
    "switch-d-i-custom-render": (
        "83f80c523bf4914d81016fa3e7ef3edafa070f252efeaa5ad2545bcfe6eff06d",
        "a664f5ac37e744b08e292efe24a67bae7178ac7354088be3e4f1a8af0de5c695",
    ),
    "switch-d-i-empty-collapse": (
        "914ab095691f40b9aa4fa4197c28d7bf556ff704a5c64cd91c3300c19c25042e",
        "28c08f891532dd3bd758444936725878531443faa6040821691ecf5f51a8f974",
    ),
    "switch-d-i-empty-render": (
        "914ab095691f40b9aa4fa4197c28d7bf556ff704a5c64cd91c3300c19c25042e",
        "cf4defa102379872d290414bca93dfcbc9d90bf4ada8e40de054078858695934",
    ),
    "switch-d-i-full-collapse": (
        "9244f70432cab49a960c3c05baf8208d7b9f0790a4e8c74704a3e61afa5ebe14",
        "84815b064329ffd1099ba56cf775870397da063b4ab5f12328f07ba6c5ce2d14",
    ),
    "switch-d-i-full-render": (
        "9244f70432cab49a960c3c05baf8208d7b9f0790a4e8c74704a3e61afa5ebe14",
        "86c5d74b3a55a1665be388e6ec35c43b3e22de964dd9a4294164ccba5cb06256",
    ),
    "switch-d-i-indistinguishable-collapse": (
        "d701af500ec2ae00ae4588e5acef5d5a417f20905723d9bbf169f87b9b15f6b8",
        "0ad6c9cd2ae646a003f5376146394e00cd7966fb063d10b2a5fad33448303154",
    ),
    "switch-d-i-indistinguishable-render": (
        "d701af500ec2ae00ae4588e5acef5d5a417f20905723d9bbf169f87b9b15f6b8",
        "11b530aed67325320796cc671bcb200b465786079ddb54b1837cb13242964459",
    ),
    "switch-d-i-refused-collapse": (
        None,
        "785dcda3191a8796d79b5d877dbacfe0a2918e4e5ba5e1f47205113e8bd5f7af",
    ),
    "switch-d-i-refused-render": (
        None,
        "785dcda3191a8796d79b5d877dbacfe0a2918e4e5ba5e1f47205113e8bd5f7af",
    ),
    "switch-d-ii-collapse": (
        "665188c9a64d8dd7ceb4a8058cec262771433cca6994d5f6291ed45dff81fbf5",
        "6282a1c4aae5782bb37f6b6fba070616f7c51923b1902fb7a5ac5a2c6449971e",
    ),
    "switch-d-ii-render": (
        "665188c9a64d8dd7ceb4a8058cec262771433cca6994d5f6291ed45dff81fbf5",
        "8ed9bbe2aaece852848c9963d28f3c2ee6cd31f07be4c42e00e69750374d5d4e",
    ),
    "switch-d-iii-collapse": (
        "ef675ce9948066bb0d0a98e96223d0b2b115a6d7e32180cb7fdffecbaaaa7312",
        "dba1a803c86f641baa15a013a7b36d76825dafb979ccc00e26d7966004d27fab",
    ),
    "switch-d-iii-render": (
        "ef675ce9948066bb0d0a98e96223d0b2b115a6d7e32180cb7fdffecbaaaa7312",
        "a6b150859a143edcf5060bbcd96b4340283e610333c723b6677553144e32db51",
    ),
    "switch-d-iv-collapse": (
        "88831b0157d5b9f6cb33536d88c519e7f6c2ab3f1fc6bf6a229f8238fb52c8d5",
        "5df0aa74f55112cea31e3a401ef1acfec5584bd3156f1f01de3d07ceff20ca66",
    ),
    "switch-d-iv-render": (
        "88831b0157d5b9f6cb33536d88c519e7f6c2ab3f1fc6bf6a229f8238fb52c8d5",
        "0ed94fd56c7216078c20b87aff7e05dc991ac033dc2ef2c0ed1f37479529fad5",
    ),
}

MANIFEST_DIGESTS: dict[str, str | None] = {
    "dnr_collapse": "3d8d17f9fe5c16475c61232865fcd37af4ff00f563e2d31d652b2bcf113d7c8f",
    "dnr_render": "fab4ac3bf15c3a16fa5d6eaabdbcdf7847ff7d05ac12743228cd0bc6d604b031",
    "eraser_main": "5d798cd69ddbf52fa4fb1448ea05999da50661e9c1ca3357f6e0d89f08a7d03b",
    "macro_collapse": "365c745352b1ef649e57ef9348d00e3052fe69a1033c785cc901399e16595370",
    "macro_render": "22847aa318daefe8739d1b2edbcb9a5a697a55bc1ae0b969a5900f985d497b48",
    "predictor_main": "cf8cb064a2fba8aca93bfe2599ea3e0d060f0b230ca6bb5f8e86b0804d3fd415",
    "switch_a_fast": "65a433bf637b08b00cd60665ff2856d03332210e35275df9ef80127fc1387353",
    "switch_a_slow": "4094cec98b39e6ec6514c98d697c44806ad949cca15d4f5ab40d0477a3937cb6",
    "switch_b_fast": "65a433bf637b08b00cd60665ff2856d03332210e35275df9ef80127fc1387353",
    "switch_b_slow": "4094cec98b39e6ec6514c98d697c44806ad949cca15d4f5ab40d0477a3937cb6",
    "switch_c_fast": "65a433bf637b08b00cd60665ff2856d03332210e35275df9ef80127fc1387353",
    "switch_c_slow": "4094cec98b39e6ec6514c98d697c44806ad949cca15d4f5ab40d0477a3937cb6",
    "switch_empty": "c7bcc5db4d83824a224621c0d3e4fbb446f99abbaf7fc4edf961e0810a57c457",
    "switch_full": "a556bcabac8f6d77dd2a810bd16915be1e8aa6583eea77a7a3d4ae77ea0e092c",
    "switch_refused": None,
}


MATRIX = matrix()


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_branch_matrix_matches_pinned_outputs(name):
    digest, report_sha = fingerprint(run_protocol(MATRIX[name]))
    want_digest, want_sha = GOLDEN[name]
    assert digest == want_digest, "event digest moved"
    assert report_sha == want_sha, "report bytes moved"


def test_matrix_covers_every_pinned_case():
    assert sorted(MATRIX) == sorted(GOLDEN)


def _walk(value, path=()):
    """(path, value) of ``value`` and of everything it holds, keys in the paths."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _walk(item, (*path, key))


def test_completed_reports_write_each_fact_once():
    """A report's bin edges sit once, at the top, and are the config's; the
    predictor keeps no second copy of the pooled histogram; the protocol,
    seed and pair count are the config's only."""
    for name, cfg in MATRIX.items():
        outcome = run_protocol(cfg)
        if not isinstance(outcome, RunResult):
            continue
        report = json.loads(canonical_json(outcome))
        screens = [report["pooled"], *report["subsets"].values()] if report["pooled"] else []
        edges = fringe_aligned_edges(cfg.optics).tolist() if screens else None
        assert report["bin_edges"] == edges, name
        for path, value in _walk(report):
            if path != ("bin_edges",):
                assert edges is None or value != edges, (name, path)
            if path and path[-1] in ("protocol", "seed", "n_pairs"):
                assert path[:-1] == ("config",), (name, path)
        assert not any(key.startswith("bin_") for key in report["predictor"] or {}), name
        assert all(len(screen["histogram"]) == len(edges) - 1 for screen in screens), name


def test_acceptance_manifest_event_digests_are_pinned():
    found = {}
    for run in builtin_manifest().runs:
        outcome = run_protocol(run.config)
        found[run.name] = outcome.event_digest if isinstance(outcome, RunResult) else None
    assert found == MANIFEST_DIGESTS


#: rows of the chunk-boundary pins: three full chunks of 32,768 rows and a
#: partial fourth (an even count, as exact_half_subset pairing needs)
CHUNK_N = 3 * 32768 + 6

#: event digests of the branch matrix at CHUNK_N pairs (None for a refusal),
#: recorded before runs were split into chunks: no digest depends on them
CHUNK_GOLDEN: dict[str, str | None] = {
    "delayed_choice-at_t0-collapse": "93b85b11840867e4c61f2d032c93220a01d8601ba7f4ebb8db2f129952c1a30a",
    "delayed_choice-at_t0-render": "93b85b11840867e4c61f2d032c93220a01d8601ba7f4ebb8db2f129952c1a30a",
    "delayed_choice-collapse": "d0939d7e1453b6ad03caf09b0ccffca74477f44b0267e235fc0b25a435a43360",
    "delayed_choice-render": "d0939d7e1453b6ad03caf09b0ccffca74477f44b0267e235fc0b25a435a43360",
    "delayed_choice-render-at_impact": "d0939d7e1453b6ad03caf09b0ccffca74477f44b0267e235fc0b25a435a43360",
    "detect_no_record-no_coincidence_counter-collapse": "530c2a5e05c94a7c91648162cfad1bb87915dd8a7c5bea25a2246d4c908b4b90",
    "detect_no_record-no_coincidence_counter-render": "9a9d6516c6626ad89da00c64b9a5e364894d66c5d074288dc4bba2e8cab65891",
    "detect_no_record-unplugged_detectors-collapse": "5cf9ea6b7c73f6c8fc2f8e51b5ed8b990a16a67d1c7fbe5147ba7240cdd218c4",
    "detect_no_record-unplugged_detectors-render": "614fa531047fbd162c7f9590267bea723f5fcef24730941784dbd27383d1a14d",
    "detect_no_record-which_way_channels_off-collapse": "0db61d61f985d06b4b5bc4fd76f13a73820fa0c206297f8fac6e28db4136cc78",
    "detect_no_record-which_way_channels_off-render": "57f006156f12bfab946719ec3d93ea198e0978afdb149964ad7dcfaf69e86611",
    "double_slit-at_t0-collapse": "a6b9eec1b1fd68e3895ccffb9b6639a4e67082947284ffffe1120aed2eec5612",
    "double_slit-at_t0-render": "a6b9eec1b1fd68e3895ccffb9b6639a4e67082947284ffffe1120aed2eec5612",
    "double_slit-not_recording-collapse": "4af6422b14c1800e823a99664aefadfa98623c15dd5baeef3231be3f5661f32a",
    "double_slit-not_recording-render": "4af6422b14c1800e823a99664aefadfa98623c15dd5baeef3231be3f5661f32a",
    "double_slit-recording-collapse": "74755a69f0e7009d518c1e3639f6c63cc45480c9dc67cc1f9c2c4aefbac86777",
    "double_slit-recording-render": "74755a69f0e7009d518c1e3639f6c63cc45480c9dc67cc1f9c2c4aefbac86777",
    "macroscopic_erasure-at_t0-collapse": "c8129c4de11f98e3ec3514ec64d01c949c0f3041e3421f29ff527795cec774ad",
    "macroscopic_erasure-at_t0-render": "c8129c4de11f98e3ec3514ec64d01c949c0f3041e3421f29ff527795cec774ad",
    "macroscopic_erasure-coin-collapse": "44c5a55d9662a091e3058b56cc8a921fe9d5735bfb2ad6e5805f96c5217ed1e0",
    "macroscopic_erasure-coin-render": "219b28fd7f4b19724d32f7c33c54457bd6118fc5a163663b139f3cfd484308a0",
    "macroscopic_erasure-coin-render-at_impact": "44c5a55d9662a091e3058b56cc8a921fe9d5735bfb2ad6e5805f96c5217ed1e0",
    "macroscopic_erasure-half-collapse": "07b1cf922695077e540f728e1629fefc98bf5f9c7af496663736284efaf2c4c3",
    "macroscopic_erasure-half-render": "d7670f519df8850edde7b87e470bd429f3a13b2cf6d8ec692a82c3700ad627f2",
    "perishable-a-collapse": "f743fb25fba8fb20395f141a657e99db9822dda23469d5d441d884239ec4d3de",
    "perishable-a-render": "f743fb25fba8fb20395f141a657e99db9822dda23469d5d441d884239ec4d3de",
    "perishable-a-short_ttl-collapse": "18ef2d70d03b2a1a49c6fa99efff70698d7a1957f47d912e3842b9366f12016d",
    "perishable-a-short_ttl-render": "18ef2d70d03b2a1a49c6fa99efff70698d7a1957f47d912e3842b9366f12016d",
    "perishable-b-empty-collapse": "3d172ec5a187bba321bd76eaac4929366832ab91c0f99bf9850a82ae40304869",
    "perishable-b-empty-render": "3d172ec5a187bba321bd76eaac4929366832ab91c0f99bf9850a82ae40304869",
    "perishable-b-indistinguishable-collapse": "a0a38619517f1a954b6ba04ce9435dd143a3ce7f6937df8c4c25e2dcc5d563b7",
    "perishable-b-indistinguishable-render": "a0a38619517f1a954b6ba04ce9435dd143a3ce7f6937df8c4c25e2dcc5d563b7",
    "perishable-b-refused-collapse": None,
    "perishable-b-refused-render": None,
    "predictor-collapse": "ecc7116fcef726eb2aab043d49712fe683aa94212f1b091b558cc380616f4462",
    "predictor-m2_29-collapse": "f70438096da639d1a48b35de928ac8f366dbd25ee7cfffd43387d793f8693b55",
    "predictor-m2_29-render": "f70438096da639d1a48b35de928ac8f366dbd25ee7cfffd43387d793f8693b55",
    "predictor-render": "ecc7116fcef726eb2aab043d49712fe683aa94212f1b091b558cc380616f4462",
    "quantum_eraser-at_t0-collapse": "e6b98eb95c08de8e47474b376fa37abf9e7635f716d28185e0bcf4082bbc3b35",
    "quantum_eraser-at_t0-render": "e6b98eb95c08de8e47474b376fa37abf9e7635f716d28185e0bcf4082bbc3b35",
    "quantum_eraser-collapse": "2c0791633b3c31be819b3f1cb96fbfed803d3cf1185ab17b126e8e8869f2a2f9",
    "quantum_eraser-envelope-collapse": "112a7ebbeb394b70e3af38eee287d49a93c218ebc65b2275e8075a4a322c828a",
    "quantum_eraser-envelope-render": "112a7ebbeb394b70e3af38eee287d49a93c218ebc65b2275e8075a4a322c828a",
    "quantum_eraser-greedy-collapse": "2c0791633b3c31be819b3f1cb96fbfed803d3cf1185ab17b126e8e8869f2a2f9",
    "quantum_eraser-greedy-render": "2c0791633b3c31be819b3f1cb96fbfed803d3cf1185ab17b126e8e8869f2a2f9",
    "quantum_eraser-m2_29-collapse": "ce14f8fac50127bbd01f376aee2bc093844450afc619e0e57b9ce570b127a2e5",
    "quantum_eraser-m2_29-render": "ce14f8fac50127bbd01f376aee2bc093844450afc619e0e57b9ce570b127a2e5",
    "quantum_eraser-render": "2c0791633b3c31be819b3f1cb96fbfed803d3cf1185ab17b126e8e8869f2a2f9",
    "switch-a-collapse": "45e613e6d963b5bcbf557e5cfd6e15688a5470f7380493b360107a3b4a45800c",
    "switch-a-render": "45e613e6d963b5bcbf557e5cfd6e15688a5470f7380493b360107a3b4a45800c",
    "switch-a-slow-collapse": "f12ead0aeb250eee656e9c210f9bf76f66940d197c59e1bdedb382bd4cc933de",
    "switch-a-slow-render": "f12ead0aeb250eee656e9c210f9bf76f66940d197c59e1bdedb382bd4cc933de",
    "switch-d-i-custom-collapse": "65f46bb136bb8e2a3c50c6f5591b753b5d81e8d1852753fdcf1e9c735380a822",
    "switch-d-i-custom-render": "65f46bb136bb8e2a3c50c6f5591b753b5d81e8d1852753fdcf1e9c735380a822",
    "switch-d-i-empty-collapse": "50faf2e46721b9087a6d4fd47796382f94848411c662ca27fe83406735dc5666",
    "switch-d-i-empty-render": "50faf2e46721b9087a6d4fd47796382f94848411c662ca27fe83406735dc5666",
    "switch-d-i-full-collapse": "eb83e86063f24e01381fc7ab0ce75ba0cee67add77416a158ecbd84baaac83fe",
    "switch-d-i-full-render": "eb83e86063f24e01381fc7ab0ce75ba0cee67add77416a158ecbd84baaac83fe",
    "switch-d-i-indistinguishable-collapse": "3cf11c9c70ea1a39a63d515c81485c95639adc6b578198d28660e5774f11d104",
    "switch-d-i-indistinguishable-render": "3cf11c9c70ea1a39a63d515c81485c95639adc6b578198d28660e5774f11d104",
    "switch-d-i-refused-collapse": None,
    "switch-d-i-refused-render": None,
    "switch-d-ii-collapse": "c825be841d0e4d13d9062e950d595d294e6ed1e69a7fffcd99cda268a7e59d4f",
    "switch-d-ii-render": "c825be841d0e4d13d9062e950d595d294e6ed1e69a7fffcd99cda268a7e59d4f",
    "switch-d-iii-collapse": "175fd45689547fdec9dcaf346c5844c43a26929bec80bf60ce779adcea5e2dc4",
    "switch-d-iii-render": "175fd45689547fdec9dcaf346c5844c43a26929bec80bf60ce779adcea5e2dc4",
    "switch-d-iv-collapse": "7cb4a7bc2e8f1ca66fa8df17e13c25208931e98206d109994fcd2ecdda4f2edd",
    "switch-d-iv-render": "7cb4a7bc2e8f1ca66fa8df17e13c25208931e98206d109994fcd2ecdda4f2edd",
}


def test_chunk_boundary_pins_span_a_partial_last_chunk():
    rows = protocols._chunk_rows(CHUNK_N)
    assert CHUNK_N // rows == 3 and 0 < CHUNK_N % rows < protocols._BLOCK_ROWS
    assert sorted(CHUNK_GOLDEN) == sorted(MATRIX)


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_chunk_boundary_digests_are_pinned(name):
    outcome = run_protocol(replace(MATRIX[name], n_pairs=CHUNK_N))
    assert (outcome.event_digest if isinstance(outcome, RunResult) else None) == CHUNK_GOLDEN[name]


def csv_cases() -> dict[str, ProtocolConfig]:
    """events.csv pins: NaN idler columns (double slit), route codes (eraser),
    erasure times, a stage-d custom strategy, perishable expiry (finite and
    infinite TTL), and row counts on either side of the writer's block size."""
    cases = {
        name: MATRIX[name]
        for name in (
            "double_slit-recording-collapse",
            "quantum_eraser-render",
            "macroscopic_erasure-coin-render",
            "switch-d-i-custom-collapse",
            "perishable-a-collapse",
        )
    }
    cases["perishable-a-inf_ttl"] = replace(MATRIX["perishable-a-collapse"], ttl_s=math.inf)
    for n in (1, 16_384, 32_769):
        cases[f"quantum_eraser-render-n{n}"] = replace(MATRIX["quantum_eraser-render"], n_pairs=n)
    return cases


CSV_GOLDEN: dict[str, str] = {
    "double_slit-recording-collapse": "0990d6b52c929c3d2a1ee88923c6b40f47d6cfbd1c9747abaedd210be192124e",
    "macroscopic_erasure-coin-render": "ba4c23b3ebd7cd1e6105b5a0ed1f5a6edbb70ae06f40c6632538af3c98da8c86",
    "perishable-a-collapse": "057bd9c26f644d97dcdef96e8cd0caf6953ac7e8adeb8d980398abb532e6238d",
    "perishable-a-inf_ttl": "82c8efb079b5dfd2229ba8e3aca0b0e22ad52848a0139c5892bfccc5d128a496",
    "quantum_eraser-render": "bbe45ad8cb155b2522aa1d0f497d759e8855082aece128b3dfdaa488b04e382e",
    "quantum_eraser-render-n1": "5ecc692a3c20fb77352d122271fdbd9da28939f65a3dd704edccf88f766ca537",
    "quantum_eraser-render-n16384": "1b0e6c3d8980fc2a94e6f05e912e91b2cc4edbd3ca6b0893335b0d660a717df5",
    "quantum_eraser-render-n32769": "b5e3916afcd6b110e7cfc2444e9289783b8c4628bbf8f3ce99dc72ff6e61abd2",
    "switch-d-i-custom-collapse": "25fb74496221cc8066837ff2230d2c76219c84ae172e012770fa5298538ec1c1",
}

CSV_CASES = csv_cases()


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_events_csv_bytes_are_pinned(name, tmp_path):
    path = tmp_path / "events.csv"
    run_protocol(CSV_CASES[name]).events.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_GOLDEN[name]


def cli_manifest(out_dir) -> RunManifest:
    """A small batch covering every report shape: completed runs (subsets and
    pooled screen, coincidences, predictor statistics, a stage-d feasibility
    report with a parameter-free strategy, an infinite TTL, no subsets at
    all), a refused switch run and a run whose runner raises."""
    return RunManifest(
        runs=(
            ManifestRun("eraser", MATRIX["quantum_eraser-render"]),
            ManifestRun("predictor", replace(MATRIX["predictor-collapse"], n_pairs=300)),  # empty bins: NaN posteriors
            ManifestRun("custom", MATRIX["switch-d-i-custom-collapse"]),
            ManifestRun("empty", MATRIX["switch-d-i-empty-render"]),
            ManifestRun("discontinuity", MATRIX["switch-d-iv-collapse"]),
            ManifestRun("perishable_inf", replace(MATRIX["perishable-a-collapse"], ttl_s=math.inf)),
            ManifestRun("refused", MATRIX["switch-d-i-refused-collapse"]),
            ManifestRun("bad", MATRIX["detect_no_record-unplugged_detectors-render"]),
        ),
        out_dir=str(out_dir),
        formats=frozenset(REPORT_FORMATS),
        name="cli pins",
    )


CLI_GOLDEN: dict[str, str] = {
    "bad.json": "788526873d465a5077000b8c75dbfb217303bfcea3040ce2cee08499b0bb4efd",
    "custom.events.csv": "25fb74496221cc8066837ff2230d2c76219c84ae172e012770fa5298538ec1c1",
    "custom.hist.txt": "2f789858dedbae087be649e7f0c0713db7c8cb620e46ebf9f2783a00691fe925",
    "custom.json": "cac5ab065fa827f676432e46b40ddc91ef560af2f762e377d61fcd0552257cd4",
    "discontinuity.events.csv": "a18e37dac3bea4fc25b03d77eb98705135cac4c7f47deeb0da80d940840daa28",
    "discontinuity.hist.txt": "1508eca17867e7d510d0519d4353950491644988d7fb51fbab65e03a0f541719",
    "discontinuity.json": "312ec84ebba4cab494b01809b83b8583ebcc8be6d843723787f42ed15f2beadd",
    "empty.events.csv": "1bf9f16865d791f7efb0804c43ff249446cdd40e0fd01fcf908d012923d2fad2",
    "empty.hist.txt": "cab52e860366f0d85fc3147f91a8a1175b41a606b8e4cd122690aab4844a4166",
    "empty.json": "30d6d4b88851faee7f7c2ac807b8e38c4995d30cd576b2d0418737ea50ba4e48",
    "eraser.events.csv": "bbe45ad8cb155b2522aa1d0f497d759e8855082aece128b3dfdaa488b04e382e",
    "eraser.hist.txt": "afade8ad2177dbd77caf50cfddb346b5d91db558be3b80223e98049df7979ecf",
    "eraser.json": "725552301ae2c5a2fb8a8feb7870afcbc9c15fd778aa08ede2931825b48e5dad",
    "perishable_inf.events.csv": "82c8efb079b5dfd2229ba8e3aca0b0e22ad52848a0139c5892bfccc5d128a496",
    "perishable_inf.hist.txt": "3af9e57dfb5eaf14deabacd388044db3da96d7a2721a4b214d8c124ad9fec32a",
    "perishable_inf.json": "ebe00efbf3d5fb60e9032f9c876c2c7c9a13189d0caac4848bc30ba2c0d50fff",
    "predictor.events.csv": "111a7d14f351f17076764b89802143a9f21221eddd402b956716b69666da44f9",
    "predictor.hist.txt": "2a77ce15c6efb0af6515a7676b2c721d70854b6143f7c38007b93ed7ad31b783",
    "predictor.json": "96af12c4c2dafe92c14705aa80d16f8867a5e221c659bf7aa3c3b265a3e8ffc0",
    "refused.json": "6c223cbf9d1d29945dedd4a880471928a6d0fadf873d8c560371114e54a72503",
    "summary.json": "dc83167ab7980c724ac86f721802115ca5496f3568920109f177b4d6b67709a1",
}


def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch):
    """sha256 of every file execute_manifest writes: per-run reports, event
    logs and text histograms, and summary.json."""

    def explode(cfg):
        raise ValidationError("raised mid-run")

    monkeypatch.setitem(protocols._RUNNERS, Protocol.DETECT_NO_RECORD, explode)
    code, _, _ = execute_manifest(cli_manifest(tmp_path))
    assert code == 1
    found = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}
    assert found == CLI_GOLDEN
