"""Golden outputs: event digests and report hashes pinned across versions.

Every case of a small branch matrix (n = 2,000, both rendering policies) is
run and its event digest and the sha256 of its canonical report are compared
with recorded values; a refusal pins the sha256 of its FeasibilityReport JSON
instead. The acceptance manifest's event digests are pinned as well. A pinned
value may move only with a CHANGES.md entry that says why.
"""

import hashlib
import math
from dataclasses import replace

import pytest

from dualitysim.acceptance import builtin_manifest
from dualitysim.cli import canonical_json
from dualitysim.models import AvailabilityHorizon, RenderingModel, RenderingPolicy
from dualitysim.optics import IntervalSet, OpticsConfig
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
    text = canonical_json(outcome.to_json_dict())
    digest = outcome.event_digest if isinstance(outcome, RunResult) else None
    return digest, hashlib.sha256(text.encode()).hexdigest()


GOLDEN: dict[str, tuple[str | None, str]] = {
    "delayed_choice-at_t0-collapse": (
        "7a4214bf814099d01d774e6b81bdf541310fb01ca711aee8943ec981a1419682",
        "cfca5f8e0c8f020c166b5763902b63e87e300d1b722e4f291caacdfd94566ca9",
    ),
    "delayed_choice-at_t0-render": (
        "7a4214bf814099d01d774e6b81bdf541310fb01ca711aee8943ec981a1419682",
        "51bbce8031fab36d050822df9bc9ce3c64b3b9d3dc49714005dce3fa375fd0c5",
    ),
    "delayed_choice-collapse": (
        "ccbdc9a6bacc10354544c5470e6a896c5dfea949564871f44e77c8377ab28a68",
        "518e4ad3022d414a29930714cd30cbd0c3001105cfe6e3d28f38529501741cfb",
    ),
    "delayed_choice-render": (
        "ccbdc9a6bacc10354544c5470e6a896c5dfea949564871f44e77c8377ab28a68",
        "586814adee6c2314c5b918a7d88258c56aa9763d17a214d91e3e3ba81821f95d",
    ),
    "delayed_choice-render-at_impact": (
        "ccbdc9a6bacc10354544c5470e6a896c5dfea949564871f44e77c8377ab28a68",
        "57acbefb7244fcc701df19173bc6883e1c6f1b51d4785ed4fb0d7a6b28930d2d",
    ),
    "detect_no_record-no_coincidence_counter-collapse": (
        "140ef7bbc705a1187e84bb42c297d11620585aa7250093c0c771ce1ccd85bebf",
        "1c4086a14b717dc9ba1b957438739fd9d06088305b259097bfc26c3539011f6f",
    ),
    "detect_no_record-no_coincidence_counter-render": (
        "9928ebfee4b5ff75de8cff25c526a36a7c04b0e032223db8e464510f33047726",
        "669eaadb9805fc7d65e26e7f30b67abf5b3ee9eacd9990a0c17e1fc1de520c3a",
    ),
    "detect_no_record-unplugged_detectors-collapse": (
        "82adb9265ef249c658bf5606f677f4a008abeb0081612442c8c37d71042841f6",
        "27885f68d41aac2d1af0e257ac04c04867479c4b4899277a69e43b9625ae4299",
    ),
    "detect_no_record-unplugged_detectors-render": (
        "1c7cfa0d3d3e64d1cb717cde48300dc0c8f7ea6e93681b7ee402967bdc806bda",
        "256229087dde7b849001869e0f0467a4f12c8f3f76acd9b99bf8ebc2fde1d30e",
    ),
    "detect_no_record-which_way_channels_off-collapse": (
        "c36908644ff1160934571a5ef44b30f262df4afa395e2233d8c7dcfbf70090c4",
        "ecd81cef8cdbfcdbeca2a9e62adb3b5b253ae2e9d4bdbc5b2b60cb7937390113",
    ),
    "detect_no_record-which_way_channels_off-render": (
        "b1842f54e6ceef2a5efd08344ff3207843231d211bc9db7509edce1068facca0",
        "cc921b15de0abfb5d84535cac34aa5664291b26d83984dea00c5145588d98624",
    ),
    "double_slit-at_t0-collapse": (
        "2899777b6bc9765c05b080fb311a1dd2e0322ce57b412903c105f3338050c357",
        "82db24a8b27fa3251274c0d59f4a5fca501756e63833ba1024b9822b91c4c768",
    ),
    "double_slit-at_t0-render": (
        "2899777b6bc9765c05b080fb311a1dd2e0322ce57b412903c105f3338050c357",
        "1adc538c10e51d8a942a5e2cebbe798fe9ae990db23d4761e725805f07c16b48",
    ),
    "double_slit-not_recording-collapse": (
        "c2c535a57d07d94876128181e4c52b19370d5fc60b3eda120cdfd2f4741722dd",
        "cd6ecb46d8ef0dbe228895e8cb4943108943823ef9cd92b9a5392dbd2ff390dc",
    ),
    "double_slit-not_recording-render": (
        "c2c535a57d07d94876128181e4c52b19370d5fc60b3eda120cdfd2f4741722dd",
        "841c6edf0efbed85ff1101ee37e464e488f6a2c64058784858a8f6d4e1ef7a41",
    ),
    "double_slit-recording-collapse": (
        "390e4f63066e0be317380e77bc73fbaf0e8e8d5e83c62d4f53c290a8ff203e34",
        "a7110de07aad99bca89fce15a2c7e6d5d2cf91f2e97403e718dc81ce0a6d7cd1",
    ),
    "double_slit-recording-render": (
        "390e4f63066e0be317380e77bc73fbaf0e8e8d5e83c62d4f53c290a8ff203e34",
        "c9c07ddda264cc88ba0ff494d65d81c6eca6d313d0275ae71ba971344447d123",
    ),
    "macroscopic_erasure-at_t0-collapse": (
        "c7dba11f6d4112b7bb249c045e6613e260d102ce1270741fa764b004927d6c6b",
        "8991d63ed6fa5378ad7c40dfbdf449f3a9d68e78f1e95d56120918e357241ff0",
    ),
    "macroscopic_erasure-at_t0-render": (
        "c7dba11f6d4112b7bb249c045e6613e260d102ce1270741fa764b004927d6c6b",
        "d5f413482ca868a63816803227c656e9035d0635be65f494f1eff54626f7f14b",
    ),
    "macroscopic_erasure-coin-collapse": (
        "9c0477c36192b2a7c691858701e25399dd64be42135d65abc0b3c0b28c84adf4",
        "beac9cd456bdd65450603c1139d906774081b6c5bf5940ea4c1a598ed12c72e4",
    ),
    "macroscopic_erasure-coin-render": (
        "589802075ea813a658a1cf94e55564c57fff7f2ee8724ff25b171ed745dbf498",
        "d30322522d3dcfc3df93c8ce76e79159bbf48c6c11c6388199ea86ab925570cc",
    ),
    "macroscopic_erasure-coin-render-at_impact": (
        "9c0477c36192b2a7c691858701e25399dd64be42135d65abc0b3c0b28c84adf4",
        "8648f01989a31a4361608f017aaf6bb347b86fad96f9d04a943ccf94febbceab",
    ),
    "macroscopic_erasure-half-collapse": (
        "f73475ed6123bdb679977810a058799be58245e178bd6c0c7685d45a7eb9ded4",
        "b5d7a42663f3852e7e0425595ccaadc48251b0d1c58f4274232059ecf97a491e",
    ),
    "macroscopic_erasure-half-render": (
        "f9894fba4d2913f8ef47dd7edf37ac1ea4675a9a5cde0c723ad851b80b14386d",
        "d3faf291bdba306723f894827ce98e608b07c709b164af3a695eb7a9003bf8c9",
    ),
    "perishable-a-collapse": (
        "36ee50c19bbcf935fbe42df9de7e178000f52a74c658142812bb9e0a2ca8df00",
        "4fd911571f375ebff5bbc5de0229b6965017fdae4caee46c694f725f7cb78326",
    ),
    "perishable-a-render": (
        "36ee50c19bbcf935fbe42df9de7e178000f52a74c658142812bb9e0a2ca8df00",
        "7b87f07663ae56b0e35ce0512c73927c42e918b807dd529499a1d96f892109d4",
    ),
    "perishable-a-short_ttl-collapse": (
        "c3ba90fa25752c87cd47422be78a5ce3a6034707d175c12c9f397d1876f9c6e3",
        "7dcc19515034fe8adff277b0b7d0e5a54564e807576274f532f238ebd7ddf06c",
    ),
    "perishable-a-short_ttl-render": (
        "c3ba90fa25752c87cd47422be78a5ce3a6034707d175c12c9f397d1876f9c6e3",
        "2268012d02dbee942848cb4bc744e48c17c2a90c606fed0de863f6fa27243867",
    ),
    "perishable-b-empty-collapse": (
        "d88a22953ac809a1554fc918d8a08dc7455cd28b656a7107c9ac3a368f83c047",
        "1cc794cdd01e94057ba6b70c8aa0249e11a6aec9a9728b3033d58d6cda58bc9b",
    ),
    "perishable-b-empty-render": (
        "d88a22953ac809a1554fc918d8a08dc7455cd28b656a7107c9ac3a368f83c047",
        "4ba94a27898dcc26505eb3aa9a0f4361b551cbc9cdc2f08aa51d7ef124b55aa2",
    ),
    "perishable-b-indistinguishable-collapse": (
        "ece39e0b414809240f2be18df0c5c8cd5645ca0e406a8d90bf43edba18cb21aa",
        "12746d1d79b48d6842032d67a63fd7027489e1a3783b2150d2aaf8ba252918f7",
    ),
    "perishable-b-indistinguishable-render": (
        "ece39e0b414809240f2be18df0c5c8cd5645ca0e406a8d90bf43edba18cb21aa",
        "41892333d9b107a1bc6f0bab20e6a110c393b1f18f388d11663edbcb12fe361e",
    ),
    "perishable-b-refused-collapse": (
        None,
        "b6e326abed606f099b6c6f20cabcc8a6d994b00dae5641301f19fcd067de3c77",
    ),
    "perishable-b-refused-render": (
        None,
        "b6e326abed606f099b6c6f20cabcc8a6d994b00dae5641301f19fcd067de3c77",
    ),
    "predictor-collapse": (
        "a9e3720a7d72f7a752218c0691d50c9947495f0f3c712c414639bf8e01dea467",
        "4f73ea540edf1584645874e0a0446ae9a5517b30dc639a8684e2e0e2ac5c9e1f",
    ),
    "predictor-m2_29-collapse": (
        "613d82bc5541b018ccb4221fd5cc6bccdbe9f7c543d1e43762f63026daba2713",
        "14391b487101d5ade82fb342609ca17c1911c89f9d932c6a74c537866127df1c",
    ),
    "predictor-m2_29-render": (
        "613d82bc5541b018ccb4221fd5cc6bccdbe9f7c543d1e43762f63026daba2713",
        "ebdfa251113b5ce2569c4119f423afa625aac13a21d35d291867955999aabf98",
    ),
    "predictor-render": (
        "a9e3720a7d72f7a752218c0691d50c9947495f0f3c712c414639bf8e01dea467",
        "8f9e8cb842aa44909a73c56d485b3d80c19d5d52580a6ccd2f86e1361a8b6ec8",
    ),
    "quantum_eraser-at_t0-collapse": (
        "61c39e8352347a1dc47407706999fc50e748ab91e8fa187ffd1444071ad81742",
        "6083ea48bee69813e78b2fd07d945dfbdf614e8f0408acac1155f1ee18f83ee5",
    ),
    "quantum_eraser-at_t0-render": (
        "61c39e8352347a1dc47407706999fc50e748ab91e8fa187ffd1444071ad81742",
        "9bb78d2acfc930278b9eeb1d79e2a6505766797ec73b038af4e9f0b4307bb63a",
    ),
    "quantum_eraser-collapse": (
        "b9b2ef41823e3d51b846fda8059ece406de654e4867fff5c8695d39c3f62d5ed",
        "ca98b04b4c3a14da4a67b78eb496b64d3a3d3654ea295b32cbd9890d81f30b7a",
    ),
    "quantum_eraser-envelope-collapse": (
        "2f276a90b83970a1bc536513e333e34838d7ec43731edff243ed71e641557e35",
        "f05af63a4c0f0063bda467b215afbb181d3a6861da4c0a2500587aa1c42c64bb",
    ),
    "quantum_eraser-envelope-render": (
        "2f276a90b83970a1bc536513e333e34838d7ec43731edff243ed71e641557e35",
        "195fea35a1c60a4ebe5e66ea27caafa8b1d5e20a3a4267bedfca135983b9c005",
    ),
    "quantum_eraser-greedy-collapse": (
        "b9b2ef41823e3d51b846fda8059ece406de654e4867fff5c8695d39c3f62d5ed",
        "f000d9863a83e59581c4f0a5d1a6612eaea8b089a7686f24c3dd6b3ccf887498",
    ),
    "quantum_eraser-greedy-render": (
        "b9b2ef41823e3d51b846fda8059ece406de654e4867fff5c8695d39c3f62d5ed",
        "6d7615c6e2f619f9402790e56e526657f6175dd0d3532181d22f727391e05491",
    ),
    "quantum_eraser-m2_29-collapse": (
        "48f1553cf4bb3c20f0308b45447656524e854369dbb75ef6c0316a26bee0e359",
        "edc68eb2a7e91408cf3d118cdc85e35e4051c9ba78bc750450d3d882e7c55f62",
    ),
    "quantum_eraser-m2_29-render": (
        "48f1553cf4bb3c20f0308b45447656524e854369dbb75ef6c0316a26bee0e359",
        "ee82a3d6031e20ed9be133ef7925503271ef417b225c4c98eb52c0a1f31d89a4",
    ),
    "quantum_eraser-render": (
        "b9b2ef41823e3d51b846fda8059ece406de654e4867fff5c8695d39c3f62d5ed",
        "8ce0dd7b2c20381d96120005bfe2684c4e0ae42d4e31906658fe2af946bdd5d1",
    ),
    "switch-a-collapse": (
        "7b86229abc1ae8d93721eaa500a168b2d1cce4379d2b35a5c64533d0bd5ed37b",
        "a7967391e8885b8ac6c02e1ff68207ffa4423caa7965e8d7416d6b568f65d44f",
    ),
    "switch-a-render": (
        "7b86229abc1ae8d93721eaa500a168b2d1cce4379d2b35a5c64533d0bd5ed37b",
        "32473965a437f2f2f4e746b1bbaf87149a2c5ef27b3ec2353a846de3b211ae06",
    ),
    "switch-a-slow-collapse": (
        "ae79cc03f419e057295f9373a4b6fbb2ab113cb492059f2e61e4070795cf4195",
        "f8a7e9517d1724627e1f0d7020b9c906d8f2fa0dcf9ce759f0d637b98ff2525d",
    ),
    "switch-a-slow-render": (
        "ae79cc03f419e057295f9373a4b6fbb2ab113cb492059f2e61e4070795cf4195",
        "2613f8869ceefbc922c433b085c59af40972e7d3cc50f7a47f6276710b97237c",
    ),
    "switch-d-i-custom-collapse": (
        "31cacd49f1a4f3dd8f428f2ae1cc5827629b24ad4093c2a57e75bf6500363b4c",
        "ebd16f3ba1ce22f80a493721da0a0f09f186b923ca26b1a7faf6a5bd95735bb0",
    ),
    "switch-d-i-custom-render": (
        "31cacd49f1a4f3dd8f428f2ae1cc5827629b24ad4093c2a57e75bf6500363b4c",
        "3b7770642b92b80a121b1b8c51022ab3bc734c0b693afa485443308221757008",
    ),
    "switch-d-i-empty-collapse": (
        "c8ae4cb15467893faaf6376f3575cbbc6378c61312cd4a262be37799a04b3c21",
        "574be6cbb284ad8cabf3cb6a5c7d99c76a62c367ddec2edbe2ee15c294787dc9",
    ),
    "switch-d-i-empty-render": (
        "c8ae4cb15467893faaf6376f3575cbbc6378c61312cd4a262be37799a04b3c21",
        "9fb02d60be6b9f5e418c651cf74c694630ecd8e3115691335fcefe4388fc7ba6",
    ),
    "switch-d-i-full-collapse": (
        "f1a4b5f0ada9355b338a0b25b5786e85c2cd2794731a953db7c9b75462fb925c",
        "be5ad9e2639859edf57ce352d4ff245d09db3b75d54761d3ab305ebce29ca174",
    ),
    "switch-d-i-full-render": (
        "f1a4b5f0ada9355b338a0b25b5786e85c2cd2794731a953db7c9b75462fb925c",
        "28918cde157066ba44aad5d07de118f336a7a5fa60141526998beba7893b8319",
    ),
    "switch-d-i-indistinguishable-collapse": (
        "d26af0c78fbb7e3dddbf9974114302d622f40fc85ebd551ffaf10d4b43c5459d",
        "7d69a10a2a8d0197a21b6dc69350aa63d551865d9c695b1dce5403cc88c5c66a",
    ),
    "switch-d-i-indistinguishable-render": (
        "d26af0c78fbb7e3dddbf9974114302d622f40fc85ebd551ffaf10d4b43c5459d",
        "4aa72d32dfc481943f5f2ebe98fa590dd5aac2d09409d207af6453280555a642",
    ),
    "switch-d-i-refused-collapse": (
        None,
        "1c497ce182bb39dceb1540c4e732604c209f2bb9a3bb33e87ba2a478b80ef720",
    ),
    "switch-d-i-refused-render": (
        None,
        "1c497ce182bb39dceb1540c4e732604c209f2bb9a3bb33e87ba2a478b80ef720",
    ),
    "switch-d-ii-collapse": (
        "fbb19d93b463343ca46f12604f90119ea63a6298a4b09e21138143a513897ad3",
        "cdd7fe721d114b8fde793ed6da7b760965353d4becd287329e32eee6afb0f5e0",
    ),
    "switch-d-ii-render": (
        "fbb19d93b463343ca46f12604f90119ea63a6298a4b09e21138143a513897ad3",
        "3f343500d9d97dc808b9bdc4c1a252f1b4b0bbf8a0cdf539836a5c51ca0bc3ed",
    ),
    "switch-d-iii-collapse": (
        "69e2d5a9a93f508b5a051017a0aece5703f679e4086615fc379ea7bb7bd0fa9b",
        "c6f499b8557219da85f6f1f98cbd662a9a5bc016f5223e80437c3d28f2fc7c81",
    ),
    "switch-d-iii-render": (
        "69e2d5a9a93f508b5a051017a0aece5703f679e4086615fc379ea7bb7bd0fa9b",
        "08aaefe5bfd9c541c5b7f06c86ee1a3f8dc38b33001fe4f928f8f2bacca98387",
    ),
    "switch-d-iv-collapse": (
        "708f394cff759d3a00fb8e8ee5d4ab05262c6aad32a70136a159e8bac16492e9",
        "17266e1d478a05985ce406567e8ba6e3e3a688ae89a1dd960224bf00414032cf",
    ),
    "switch-d-iv-render": (
        "708f394cff759d3a00fb8e8ee5d4ab05262c6aad32a70136a159e8bac16492e9",
        "49d61a6bf891a47fd0f54aee4380f27fa9959095da8a34e654a24c920018a909",
    ),
}

MANIFEST_DIGESTS: dict[str, str | None] = {
    "dnr_collapse": "f2cac148442bbe40974e1f13fb4beb7beafbda870bcbd604ae230c765236d902",
    "dnr_render": "044b5dd9379edacb0e3e43b183f61172c4db2a6787bf0d85d2224903377bfe32",
    "eraser_main": "41b1ea1e332f07483490d71e3b2df28833ed545f6f8c2611debdf9629f9a8c16",
    "macro_collapse": "db0f66e8c16b3d33f24071eb98b9495a61d91c0a5e662f6c0197d7852dd06973",
    "macro_render": "9260522ba8c470ad9dd870c91a713dca41799a4db8d1e59536afe888b92ce41a",
    "predictor_main": "278caeabd25dce14a764ee2bb98ca6746574ef6666aa1ff13c7d5d8f80b001f0",
    "switch_a_fast": "e13ca9591ccc84acfbc1a203972912cbf3732d0bdeba8c3ecd3f4396430f0031",
    "switch_a_slow": "02b2ca223e230c73ebe873aa4d0553dac3dc2e219aa6d04ca723f658a10d767d",
    "switch_b_fast": "e13ca9591ccc84acfbc1a203972912cbf3732d0bdeba8c3ecd3f4396430f0031",
    "switch_b_slow": "02b2ca223e230c73ebe873aa4d0553dac3dc2e219aa6d04ca723f658a10d767d",
    "switch_c_fast": "e13ca9591ccc84acfbc1a203972912cbf3732d0bdeba8c3ecd3f4396430f0031",
    "switch_c_slow": "02b2ca223e230c73ebe873aa4d0553dac3dc2e219aa6d04ca723f658a10d767d",
    "switch_empty": "f34206daf039584949e6244842ab8708e4e7297857a22a2e33f6a862ae6a5903",
    "switch_full": "2240f938187f77c4f36fbd9c241a2ae7c2779606708f574ec3bffd6ea11d6080",
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
    "macroscopic_erasure-coin-render": "4a8d6c10e6f8bd2c2663b4663596e7c4498e1c3b689768092eb4c2d84fc79f87",
    "perishable-a-collapse": "057bd9c26f644d97dcdef96e8cd0caf6953ac7e8adeb8d980398abb532e6238d",
    "perishable-a-inf_ttl": "82c8efb079b5dfd2229ba8e3aca0b0e22ad52848a0139c5892bfccc5d128a496",
    "quantum_eraser-render": "7d59e44a54cf7ffc416d93497ae7896aab3d89fa9dcb66e60ac644bc35a0d9a5",
    "quantum_eraser-render-n1": "5ecc692a3c20fb77352d122271fdbd9da28939f65a3dd704edccf88f766ca537",
    "quantum_eraser-render-n16384": "6f960a42a4863baf62d0cc94fe8fdb1be6d2e194617a4d2bfc58faf0ad4584ff",
    "quantum_eraser-render-n32769": "6921b6f93dc293169be195dcb1cf1c84235d32818f29eb2d7ab7490048a66e38",
    "switch-d-i-custom-collapse": "9b1c6f647454b9bc4793f0f90f2e34f3cc82b24bfcc6ed9e10cea5fd71fa62da",
}

CSV_CASES = csv_cases()


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_events_csv_bytes_are_pinned(name, tmp_path):
    path = tmp_path / "events.csv"
    run_protocol(CSV_CASES[name]).events.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_GOLDEN[name]
