"""Golden outputs: event digests and report hashes pinned across versions.

Every case of a small branch matrix (n = 2,000, both rendering policies) is
run and its event digest and the sha256 of its canonical report are compared
with recorded values; a refusal pins the sha256 of its FeasibilityReport JSON
instead. The acceptance manifest's event digests, some events.csv files and
every file that execute_manifest writes for a small batch are pinned as well.
A pinned value may move only with a CHANGES.md entry that says why.
"""

import hashlib
import math
from dataclasses import replace

import pytest

from dualitysim import protocols
from dualitysim.acceptance import builtin_manifest
from dualitysim.cli import REPORT_FORMATS, ManifestRun, RunManifest, canonical_json, execute_manifest
from dualitysim.models import AvailabilityHorizon, RenderingModel, RenderingPolicy
from dualitysim.optics import IntervalSet, OpticsConfig, ValidationError
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
        "b95048d0eda532b9a3bb55073a9cea96bc827da68a22b2a46803146d07b5a61d",
    ),
    "delayed_choice-at_t0-render": (
        "2cae31d13df658fb9830f403f03e507c915875bcc04405a041c015822209f035",
        "cba3bc35d933d00eb43f05287ff3137eb4e2608bde2f57c37cd7c719bacd41bf",
    ),
    "delayed_choice-collapse": (
        "ecd5cf6e95268e766523b24db35da2ea867bcdddda7a8bfb0103227113bf5aa6",
        "94aa8d36dd0101ce46c3ab7a987d5abbc37ad1489b4cce6814bd9afda078b91e",
    ),
    "delayed_choice-render": (
        "ecd5cf6e95268e766523b24db35da2ea867bcdddda7a8bfb0103227113bf5aa6",
        "11fb415165b2d2a8a634b6797bdd338b1afaf483fd75adbe767df14c214b1412",
    ),
    "delayed_choice-render-at_impact": (
        "ecd5cf6e95268e766523b24db35da2ea867bcdddda7a8bfb0103227113bf5aa6",
        "ff4824c8dd08649327319df787bc42c1522887f16beb4191fdcbbd99b51fa863",
    ),
    "detect_no_record-no_coincidence_counter-collapse": (
        "716ab4bdde5a8126268b296d466199ae6250aec3201504fe5027d2f2e6229e1b",
        "4b41ab98a36d5e06074e106b9b5574e0b8be9e58453cebe6220cb0239b647bdc",
    ),
    "detect_no_record-no_coincidence_counter-render": (
        "914835b07680bf3d0414a3a0212dd7dea9b7da936cc2fd508d8e4523d640c017",
        "06fac062e0ad637044f233ce16acb04cd73bfe9bf8d1081a1fcb54a2d801dd62",
    ),
    "detect_no_record-unplugged_detectors-collapse": (
        "bbc03729e85dedb67b4711cf52dce80615080a563aee0b48698f602a099cf2bc",
        "f8e2b1642d003b34ff806c74f75319617322e7980d2c11807ca2f91aa46f3924",
    ),
    "detect_no_record-unplugged_detectors-render": (
        "58e32690674bf448e4b2467fc4b727b4045da568a3741a845b5e2847f489ebd4",
        "f8a95b1550c3187ea4cf49dd8e685cc6405850c50e143003c6c0b029e23b6406",
    ),
    "detect_no_record-which_way_channels_off-collapse": (
        "8f85ad2b13eda309515a1bc0f6031981ccb926f3ab60da289ff558a3ea8c4d7a",
        "969abac50de02993463208338667481e667a02a41db20968394df37a699d7b1a",
    ),
    "detect_no_record-which_way_channels_off-render": (
        "a915aa2a1aef85065148703d4e4cde3fdbdb90707d97ada45d82df36e01f3469",
        "274e486dd1a33966eb664bf8ab3cd092752e7e6310e27cb81bc99d971535882f",
    ),
    "double_slit-at_t0-collapse": (
        "1b3fd3c6aa5d14607841960c589c0c6d5062b8830962d26232b04d6101f6ea63",
        "37effc9ff53590f65190d75d069fe6b60fc67ce7142d8c13ab8e096a04d61aeb",
    ),
    "double_slit-at_t0-render": (
        "1b3fd3c6aa5d14607841960c589c0c6d5062b8830962d26232b04d6101f6ea63",
        "5f45b812ed53faa4b66447f9756b0b643cb39541d6c9907308fcbe2909b6cc38",
    ),
    "double_slit-not_recording-collapse": (
        "905c98ba37aeea91bf969c6c63be62c5031d6cfbfba0ce4131d502bf4f2c7b69",
        "2906c265ad1a680699d4b06ed8d6c4389ea5768206361de6717a6b10a906505e",
    ),
    "double_slit-not_recording-render": (
        "905c98ba37aeea91bf969c6c63be62c5031d6cfbfba0ce4131d502bf4f2c7b69",
        "929d44dfb9200f76ea995d306bc9725511cfec27550495f8213dbcf57ef92893",
    ),
    "double_slit-recording-collapse": (
        "52d4574c9246f3de60fa1b56a82702026c9e3d130878fb59a22e72770631b15f",
        "d05b6236b35fb6d92fbe61c1faf09bac038084aee704219743d2b2f6d61e5155",
    ),
    "double_slit-recording-render": (
        "52d4574c9246f3de60fa1b56a82702026c9e3d130878fb59a22e72770631b15f",
        "f0fceb002ba50f76d422ac2c947dd1b9dac9d403bd026365c56c14ebdaed99f3",
    ),
    "macroscopic_erasure-at_t0-collapse": (
        "0a1503558c99b0e54a5f21e80738f91e4f158860b5173dc22d120e397781f5f5",
        "4a7cce0b45ec37a5cf371972a5046568f80f368c060e7069d501dd88c71bcccd",
    ),
    "macroscopic_erasure-at_t0-render": (
        "0a1503558c99b0e54a5f21e80738f91e4f158860b5173dc22d120e397781f5f5",
        "6d823a755611a02b07c6e2eef3abf691fb66e2aec19bbc319d25042d5d891f2f",
    ),
    "macroscopic_erasure-coin-collapse": (
        "aec015ff20fea07c19805463b93f323f93d87b5a1850dc65409aef284e63d2fa",
        "4c8a433f05c36216cb8baa379f2c4c3d0c0141748f9ffec1a2d8e65129531ae6",
    ),
    "macroscopic_erasure-coin-render": (
        "ec8f3defe00ea36207e9e66a47b83ff20b6f951bdb8189d8dd0074fa1bf62530",
        "43a0627e23005b3a80c3861853a4b1b8caf298817a8a4cfc4fe937bf7f232812",
    ),
    "macroscopic_erasure-coin-render-at_impact": (
        "aec015ff20fea07c19805463b93f323f93d87b5a1850dc65409aef284e63d2fa",
        "3a9dfabbd0bd8b8ad15191fe6909593b5b627fd4913000bfa17fa7c1d5f4f968",
    ),
    "macroscopic_erasure-half-collapse": (
        "9050b9d601ff45dd0a3cdb0bcdb750877013a391d4556bc7fd3577a3d59f6bd9",
        "1e0d86201d570f80f6cca979a2f751cd00628c38e93a991043be036c803e015e",
    ),
    "macroscopic_erasure-half-render": (
        "4c2345f59593b7da510a73527e98673898e4569e296adb8210a76095550d22d8",
        "c0a26d7bf0d891afd04f94a68d209fac3f6cbe577f8840ebfe1ab6fe03abdcee",
    ),
    "perishable-a-collapse": (
        "80624c71f64d2888928b643e1d73227ad16b45bdef2ac6ff621927767b56b478",
        "d34469e4c8273d7eaff9fae158cfdc2a77494c20b6fe8a006b069ab02ae1d8dc",
    ),
    "perishable-a-render": (
        "80624c71f64d2888928b643e1d73227ad16b45bdef2ac6ff621927767b56b478",
        "860912673cc19a90f5075f935ea8760f776f127034c2fd591f90fd33bd9d8950",
    ),
    "perishable-a-short_ttl-collapse": (
        "96c80a561663217f9c5cae961b432b6d9fc41d4fe9285165f194c899862e75cc",
        "d37e8216b03aff8ffd54525574f08821d9cf9f49983f10bd8e41f15a68e12aed",
    ),
    "perishable-a-short_ttl-render": (
        "96c80a561663217f9c5cae961b432b6d9fc41d4fe9285165f194c899862e75cc",
        "a9fcb5a17a44f73df66d272620db1991ae6ac6c378e4f911e1595b441aeda533",
    ),
    "perishable-b-empty-collapse": (
        "64203e09b372f50cea2bbed3ce6bd6f166feb6dee920af8402c1773738730d3c",
        "c8459e5d2847a3add97423d49b588926ef4de16162f9ee2d946fa4d673f06d60",
    ),
    "perishable-b-empty-render": (
        "64203e09b372f50cea2bbed3ce6bd6f166feb6dee920af8402c1773738730d3c",
        "21a8e7bd2801e6b952497728838364ece9d9e05e4219a8e8685f632c674b928c",
    ),
    "perishable-b-indistinguishable-collapse": (
        "ea201b213add5a945f690bc50dccc4507c94e3d9084be1c0b3e0a4c1cee7d290",
        "d44d1177437071f411292fee8a75cae5f9b05d906fa265ffb748ab6fb679d684",
    ),
    "perishable-b-indistinguishable-render": (
        "ea201b213add5a945f690bc50dccc4507c94e3d9084be1c0b3e0a4c1cee7d290",
        "d904b3c09a09ebe1aa6cd4b9fd5aeb274e399766dacbc45e5f85247ae08c164b",
    ),
    "perishable-b-refused-collapse": (
        None,
        "7a5ca1cccdded24fb82c61a0c11ada7b224f371980107bf8682156f1eeca2cc5",
    ),
    "perishable-b-refused-render": (
        None,
        "7a5ca1cccdded24fb82c61a0c11ada7b224f371980107bf8682156f1eeca2cc5",
    ),
    "predictor-collapse": (
        "4b162fd8aac55d105aed6e883ce860f4a9293047e9c7b71d3ecc811c5a6c20e2",
        "e8705148e92a632b5a6040505a6db347a69200a7059469c53b341e239abda4b2",
    ),
    "predictor-m2_29-collapse": (
        "b7f65e0889b27a2ce3e58e3b3cc82569a63ded1c25737f0ac3bf7327d0273f6d",
        "4c355760aea99eda00d15d45746b5f822f219eb8fac7cc9d9c8eee6f429ce42d",
    ),
    "predictor-m2_29-render": (
        "b7f65e0889b27a2ce3e58e3b3cc82569a63ded1c25737f0ac3bf7327d0273f6d",
        "a6754d29fef467ee457c47403938c1a571ee779d9db04e319585540ea07b05a9",
    ),
    "predictor-render": (
        "4b162fd8aac55d105aed6e883ce860f4a9293047e9c7b71d3ecc811c5a6c20e2",
        "789343f51566ab71ec10d9030eb76a10e674671beeccf56991d7f14e713303c2",
    ),
    "quantum_eraser-at_t0-collapse": (
        "43ad87d919b6ce1f3acdd41ce3cc87bed3db683de57be94a3e87f23c558cb892",
        "a7645e2b4595d563e674a5fe6ea9aeac509c8b8b03a77a92780dfdf7ca8b9058",
    ),
    "quantum_eraser-at_t0-render": (
        "43ad87d919b6ce1f3acdd41ce3cc87bed3db683de57be94a3e87f23c558cb892",
        "76851bb8eb8e9070b3c7c73b109d1ace68a7a90af2d4f58e90d89520b80dc795",
    ),
    "quantum_eraser-collapse": (
        "adb06b674503c09eac73288d0e677ad010804af3a33a05b563381e3a906b7a5c",
        "b2cf9ba01f21d35ea0a84e70276650897d8ed0a8d7a8f8f9a95d9ee9149289f2",
    ),
    "quantum_eraser-envelope-collapse": (
        "8bdf93a5d463360222d4dfab5c4821babfa6ea878b6dba1cb2c456d7939fad99",
        "221091b1d0d44f49b5eab2228d59d65c3a8059c537631988f1f5fe2e50d16c91",
    ),
    "quantum_eraser-envelope-render": (
        "8bdf93a5d463360222d4dfab5c4821babfa6ea878b6dba1cb2c456d7939fad99",
        "ef1cbbfa0186a66b4a66d17807c424b58c9714dcffd7f2f09a20c30ba00da54d",
    ),
    "quantum_eraser-greedy-collapse": (
        "adb06b674503c09eac73288d0e677ad010804af3a33a05b563381e3a906b7a5c",
        "e7a6e9d1fa199372ea9c947301ab9c0390305088b3fab0e4c7a00e3ea1e426f8",
    ),
    "quantum_eraser-greedy-render": (
        "adb06b674503c09eac73288d0e677ad010804af3a33a05b563381e3a906b7a5c",
        "99a12aeed0a54cea8aaf257389c8f7425560804a218bd3192cd2062ee046d346",
    ),
    "quantum_eraser-m2_29-collapse": (
        "6de39050fe241537a4469e7bf2760690ec74d3c229beffbbbb654d364530971a",
        "1f70500939dc55385cda89a7e93bdace95daaed736b3753b3c04c7144c8bb00f",
    ),
    "quantum_eraser-m2_29-render": (
        "6de39050fe241537a4469e7bf2760690ec74d3c229beffbbbb654d364530971a",
        "8e5188a4c08b292f2141cfa6f365fdb1a8eaf4c9c45c5803b021960d069c5aeb",
    ),
    "quantum_eraser-render": (
        "adb06b674503c09eac73288d0e677ad010804af3a33a05b563381e3a906b7a5c",
        "b249666d4aee3415bc6eabde1617d57ddc1081316457249a26b9f250fbd144b7",
    ),
    "switch-a-collapse": (
        "180e77ead1bfca87bf75954b3501b6b8b32ba902188e52899ef72b876d75a0ba",
        "928bc876b66556886698d6cc4781f04566b191eb51bf13adea8886b94f3d4efa",
    ),
    "switch-a-render": (
        "180e77ead1bfca87bf75954b3501b6b8b32ba902188e52899ef72b876d75a0ba",
        "4dab269033801762c856faf7849640027b9b99f6a0e520adc604849bdc16ac9d",
    ),
    "switch-a-slow-collapse": (
        "f14b3c0062abdcdeaf5cfea43c4c32b8826b920214a25347e85c4d710d0c8aec",
        "c904867d4fc5106fe4a6df7ef76884196c385b1c2a93f0c4b8d49d59aebe60ec",
    ),
    "switch-a-slow-render": (
        "f14b3c0062abdcdeaf5cfea43c4c32b8826b920214a25347e85c4d710d0c8aec",
        "dec3e9e308722f635a61b5c9a1374d0145ee2efb99c471067de4c815e4d56f10",
    ),
    "switch-d-i-custom-collapse": (
        "83f80c523bf4914d81016fa3e7ef3edafa070f252efeaa5ad2545bcfe6eff06d",
        "f468c53dd921c74bcfb9593d3694fd4c889db1ab5159877c63d0fee7cf6b4a33",
    ),
    "switch-d-i-custom-render": (
        "83f80c523bf4914d81016fa3e7ef3edafa070f252efeaa5ad2545bcfe6eff06d",
        "d9ccdae9a7d60ba6fe5db78e61b0ee71091a0fe8da9d88fd073a8dda440d9eaa",
    ),
    "switch-d-i-empty-collapse": (
        "914ab095691f40b9aa4fa4197c28d7bf556ff704a5c64cd91c3300c19c25042e",
        "a9c15fff2e02247e6d8607480a4058448ab039088b0c902e469a45d924c41d12",
    ),
    "switch-d-i-empty-render": (
        "914ab095691f40b9aa4fa4197c28d7bf556ff704a5c64cd91c3300c19c25042e",
        "5618bd1f952dbe5c756dc503c71093f414c1c9835a9f3094aebaf85d51645c61",
    ),
    "switch-d-i-full-collapse": (
        "9244f70432cab49a960c3c05baf8208d7b9f0790a4e8c74704a3e61afa5ebe14",
        "ee947513a9051f320c51f40b4b2c7583443d3643529d02a2417a64ea143829d6",
    ),
    "switch-d-i-full-render": (
        "9244f70432cab49a960c3c05baf8208d7b9f0790a4e8c74704a3e61afa5ebe14",
        "062e62c39511822def0833ba5136942e3dfe2d7a5e55e252df80158da1fb0da4",
    ),
    "switch-d-i-indistinguishable-collapse": (
        "d701af500ec2ae00ae4588e5acef5d5a417f20905723d9bbf169f87b9b15f6b8",
        "4f160ff20f5ebd5b646aa7442fb7df50b75aac845abae13be03c3e1e35fe699e",
    ),
    "switch-d-i-indistinguishable-render": (
        "d701af500ec2ae00ae4588e5acef5d5a417f20905723d9bbf169f87b9b15f6b8",
        "7f4157c8fd1f845d654ac8ae34780486c361478fa9b8c8fa8cfc7e340c4f5f1f",
    ),
    "switch-d-i-refused-collapse": (
        None,
        "8d1f02055dcf66db9c4954b61fb5d949bc28cf300d803c4099a4cae0d10c8cde",
    ),
    "switch-d-i-refused-render": (
        None,
        "8d1f02055dcf66db9c4954b61fb5d949bc28cf300d803c4099a4cae0d10c8cde",
    ),
    "switch-d-ii-collapse": (
        "665188c9a64d8dd7ceb4a8058cec262771433cca6994d5f6291ed45dff81fbf5",
        "e018c6e2dada00f6bc9032abe7794343df2bc56f96788cda05bef079fd3f4744",
    ),
    "switch-d-ii-render": (
        "665188c9a64d8dd7ceb4a8058cec262771433cca6994d5f6291ed45dff81fbf5",
        "870c924005fbfb602c3edd0be7fef6c4d335683060968707c3bfb06ce1354bfa",
    ),
    "switch-d-iii-collapse": (
        "ef675ce9948066bb0d0a98e96223d0b2b115a6d7e32180cb7fdffecbaaaa7312",
        "176ccf5b2da0bc6d914a7d0fa1084d5ef9546754775a6115c7e3b4f77107fc1a",
    ),
    "switch-d-iii-render": (
        "ef675ce9948066bb0d0a98e96223d0b2b115a6d7e32180cb7fdffecbaaaa7312",
        "87f3a52f90ab0ab51017bd95a0e713ef4436fd026723818eac28160549bf9c42",
    ),
    "switch-d-iv-collapse": (
        "88831b0157d5b9f6cb33536d88c519e7f6c2ab3f1fc6bf6a229f8238fb52c8d5",
        "8bfe2e48a677d9f0dba342d470f50a34011c8fed840bec99256b289643e2e00c",
    ),
    "switch-d-iv-render": (
        "88831b0157d5b9f6cb33536d88c519e7f6c2ab3f1fc6bf6a229f8238fb52c8d5",
        "abf116f0bcdf3e614e09f760a59156ccc2fc2996a7265516c3453f0d989bfa9a",
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
    "custom.json": "65fbc549c5092c93c9f88c5e3e9e73c3068003ab92ef13c32f9cf07bd052ee6c",
    "discontinuity.events.csv": "a18e37dac3bea4fc25b03d77eb98705135cac4c7f47deeb0da80d940840daa28",
    "discontinuity.hist.txt": "1508eca17867e7d510d0519d4353950491644988d7fb51fbab65e03a0f541719",
    "discontinuity.json": "3072f0b136cca5325e4ebe23f6a03964feed15140fa0789e3b077b588fcdadeb",
    "empty.events.csv": "1bf9f16865d791f7efb0804c43ff249446cdd40e0fd01fcf908d012923d2fad2",
    "empty.hist.txt": "cab52e860366f0d85fc3147f91a8a1175b41a606b8e4cd122690aab4844a4166",
    "empty.json": "27b35725d5343350eeb65a6ea6b4aec2bba8e16468b57780f436949f5698005b",
    "eraser.events.csv": "bbe45ad8cb155b2522aa1d0f497d759e8855082aece128b3dfdaa488b04e382e",
    "eraser.hist.txt": "afade8ad2177dbd77caf50cfddb346b5d91db558be3b80223e98049df7979ecf",
    "eraser.json": "80987858e7bbc7f688f7deece15cb700e3616a42a594b6445c97cb2fa555927e",
    "perishable_inf.events.csv": "82c8efb079b5dfd2229ba8e3aca0b0e22ad52848a0139c5892bfccc5d128a496",
    "perishable_inf.hist.txt": "3af9e57dfb5eaf14deabacd388044db3da96d7a2721a4b214d8c124ad9fec32a",
    "perishable_inf.json": "6c0ca6126ad3a19b58d0a720210ec19a8d1b674e1539f6e7a6620842778ec1dd",
    "predictor.events.csv": "111a7d14f351f17076764b89802143a9f21221eddd402b956716b69666da44f9",
    "predictor.hist.txt": "2a77ce15c6efb0af6515a7676b2c721d70854b6143f7c38007b93ed7ad31b783",
    "predictor.json": "2d1c310b7d78d7fc185cac1a4b02feb9edde2a1f34fcf22a0fbfec37608bec36",
    "refused.json": "08d6e9e527e6394e8c838b0a415db76536fb999d1bfb20590ed6311b1b0dab8a",
    "summary.json": "d4d4469a73790a45dbc26f7ebd256b358eb57ec272636318868037db2e3a95aa",
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
