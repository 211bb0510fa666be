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
        "1d67d38a33342e2e2e4c3a509ceff41cfb1bf4fa9791254e15f97d6522dc50ff",
        "9b798953b2d91483fd0bd773f376e66180ca3efa1baa8eccf022b0a98a275968",
    ),
    "delayed_choice-at_t0-render": (
        "1d67d38a33342e2e2e4c3a509ceff41cfb1bf4fa9791254e15f97d6522dc50ff",
        "34278bcc135d94575a9ec263ba99ea4fea78bc9cc45c41737d8f7dc52ed8180a",
    ),
    "delayed_choice-collapse": (
        "355be6e2497810287e6f4848803ab986b1e8e256efb21c69c663f2e6cd07558f",
        "c191692028db055902f10de83d780df30b7c1c40436fac48295272e9df4ad7c7",
    ),
    "delayed_choice-render": (
        "355be6e2497810287e6f4848803ab986b1e8e256efb21c69c663f2e6cd07558f",
        "cccfe09a69c085ce152795351bd515fe5f5f3bfc95c8437a5c54e4d6255c6826",
    ),
    "delayed_choice-render-at_impact": (
        "355be6e2497810287e6f4848803ab986b1e8e256efb21c69c663f2e6cd07558f",
        "3a4fe67c7db376a908a61917acc9d909dc1bdfa1fe4a63a2a62d7f5baa905dd9",
    ),
    "detect_no_record-no_coincidence_counter-collapse": (
        "96d3cfe8a6a190675b3e0d142366448d29eec2dcd79e264f0d14d1a8ba8ea571",
        "68b409a8b2338d1f629a4a1eb717fd5bfc8599a8dc48dc1a6efb63ac6fc0ca52",
    ),
    "detect_no_record-no_coincidence_counter-render": (
        "6f632effde87e04975bb7a456d889e538526f8cb683bdf9dfbdc7f10e36fb5a8",
        "d15d5dde752a0efb1e899ccea2201e8fb84edb37bab8fdb227741a257a3c7c84",
    ),
    "detect_no_record-unplugged_detectors-collapse": (
        "82adb9265ef249c658bf5606f677f4a008abeb0081612442c8c37d71042841f6",
        "27885f68d41aac2d1af0e257ac04c04867479c4b4899277a69e43b9625ae4299",
    ),
    "detect_no_record-unplugged_detectors-render": (
        "e68ff12b8232a2507b274f68f336219a4365a2bb03a45eb595dc92239151d535",
        "546d59758a3720111e7301ae9befa7a7b8f9938c16c2ee9d257386040e6aaa43",
    ),
    "detect_no_record-which_way_channels_off-collapse": (
        "9a2fbe7be45a14ba521abb8d5230c2faa6a22d2079992ede5be1674995d936cd",
        "43bc3b16acf1a30d49aba0691a1cd91494872878d9b67ec2080f233c132636e6",
    ),
    "detect_no_record-which_way_channels_off-render": (
        "c10184f38e5300a4edb74a29697bcb25e163d20bcd8ffd723dc45bec0db32221",
        "2066b073ee20a0944c68f599d3f61594172c2bf1aabc529f3c2bf1bec95c270f",
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
        "4858c7c4b3ff9e08ef0943a1edb23cc60cdb1135cfac747dbb1bb052f0431760",
        "77ef73c0c37056df320d1929714b72e3796b49f1dc8cebb73b0591977b08f945",
    ),
    "double_slit-not_recording-render": (
        "4858c7c4b3ff9e08ef0943a1edb23cc60cdb1135cfac747dbb1bb052f0431760",
        "33cfec1df3792f140253324b43a4e886d65124bd585bc55f51dc7d9e980e7b5f",
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
        "376b5de5fab3e2a4f5f163cce4a31e6233af78e2fd69b11d2dd93c0864eff736",
    ),
    "macroscopic_erasure-at_t0-render": (
        "c7dba11f6d4112b7bb249c045e6613e260d102ce1270741fa764b004927d6c6b",
        "c917ae8d658ddb301de132238050dc8468ef6c297ec15c299840682b3c3a30f4",
    ),
    "macroscopic_erasure-coin-collapse": (
        "9c0477c36192b2a7c691858701e25399dd64be42135d65abc0b3c0b28c84adf4",
        "25d322308cc3b6e05d14b65b6235ed5d564459f0cc72adf2a35dc4bc9f896d84",
    ),
    "macroscopic_erasure-coin-render": (
        "f8dc985cc954d9b101443571876dd3d1513b8527f81c839fc12c853a595305b0",
        "b6821c32f0a8ebd87c2e5a0553b41c0f622c789014de41f735c43f4f2a4949bf",
    ),
    "macroscopic_erasure-coin-render-at_impact": (
        "9c0477c36192b2a7c691858701e25399dd64be42135d65abc0b3c0b28c84adf4",
        "abddcebdbd425da6624726a3aca85b7f84ea19e720d7da08462be75efd01f6f1",
    ),
    "macroscopic_erasure-half-collapse": (
        "f73475ed6123bdb679977810a058799be58245e178bd6c0c7685d45a7eb9ded4",
        "8d5a0116779c2abee661b65300171d5b19e8b11616f9b4ab681e6d0cb7777edc",
    ),
    "macroscopic_erasure-half-render": (
        "6cbfb5813e711c91e61a39052e29494e27ae35e1719b95ec94a1182416355190",
        "6e8f9d0fa82bc5faffc75087d778c8a18a614686d63cd361f13c8bf67266dfa0",
    ),
    "perishable-a-collapse": (
        "36ee50c19bbcf935fbe42df9de7e178000f52a74c658142812bb9e0a2ca8df00",
        "2d694ab37c2f71e0212f1c5d190e5e18b582f3eb84cc74d7ea0a64bac6389460",
    ),
    "perishable-a-render": (
        "36ee50c19bbcf935fbe42df9de7e178000f52a74c658142812bb9e0a2ca8df00",
        "77d67b05533184bcb3cebb8d22712e9fdcb2b1a194584cc70203e5ffe8bfa93a",
    ),
    "perishable-a-short_ttl-collapse": (
        "c3ba90fa25752c87cd47422be78a5ce3a6034707d175c12c9f397d1876f9c6e3",
        "1490fca5e8fbe8beb9086acbef9649a0ed456f92e39bc75f6a9977e0b95ac751",
    ),
    "perishable-a-short_ttl-render": (
        "c3ba90fa25752c87cd47422be78a5ce3a6034707d175c12c9f397d1876f9c6e3",
        "9e39fdb15170a767cc5d066b2c8d3eb9a05251ae95f60bd601e0ce0bf22dedec",
    ),
    "perishable-b-empty-collapse": (
        "300001e4ce4ff330f4f0cfb4c5b6344713052950a7df319b4677f2a4fbd4902b",
        "e08e8a039f8ec2e5f5cb8a3153fb4337aa7892a1973a75f3790cbac915b46ed3",
    ),
    "perishable-b-empty-render": (
        "300001e4ce4ff330f4f0cfb4c5b6344713052950a7df319b4677f2a4fbd4902b",
        "1d18bacfd995715e4bf610f7cb8c770c4779089bc4a8b85657c14352d89be131",
    ),
    "perishable-b-indistinguishable-collapse": (
        "09864db5cce6c1858a0cf8f2a3d139ff414f813be6e030e229eb73815867b6f7",
        "07e5ee665250a5f5bdfa2be470c8fd96600b9545b666722e428757adade7c10c",
    ),
    "perishable-b-indistinguishable-render": (
        "09864db5cce6c1858a0cf8f2a3d139ff414f813be6e030e229eb73815867b6f7",
        "6583bf9b3f92f0983f1cb43ba9a505ac841ff1c5105278652c975fec44a091cf",
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
        "3eb9497b9155251a862f69fdc0478e3ec759f2358dfd381f668e85c583b26d31",
        "63266711ca3213d20cd7cdcdd6b4510bd85a443c5b405f6f110ad47a8ce7c901",
    ),
    "predictor-m2_29-collapse": (
        "30706ca0cac8f79b73f4c180536886de2a6fe35e711225a5416133c414ded13d",
        "359673ffd1b886495c626a86226d6c4a62d1b26ebb1566393f0ccf5d03c457e0",
    ),
    "predictor-m2_29-render": (
        "30706ca0cac8f79b73f4c180536886de2a6fe35e711225a5416133c414ded13d",
        "e59ea01b30c10bbe4579f83a23a2d355a7565f694b04ee37c55fe5e57adf3506",
    ),
    "predictor-render": (
        "3eb9497b9155251a862f69fdc0478e3ec759f2358dfd381f668e85c583b26d31",
        "b0e8fa239cbc618157811e687f230056714130e185e06d4617c83d8eb02f1e67",
    ),
    "quantum_eraser-at_t0-collapse": (
        "56365269ea7ceb42a8bf096d76a6768b3392b64282af678e62b1907d0948323e",
        "a79e4d9bbd94c79bfb5a4d88bd331c82ed60518a1814ad35d55003d48c11cf8c",
    ),
    "quantum_eraser-at_t0-render": (
        "56365269ea7ceb42a8bf096d76a6768b3392b64282af678e62b1907d0948323e",
        "49ba7dd71fa1df6401258dc6fc1209b93378de8e40b8fb65dce60b73b03b04df",
    ),
    "quantum_eraser-collapse": (
        "f3f6b9832210fec611eac6ddd312591719485d13e4eb0ad2763ab45c1d73a187",
        "d13d5d965ca2bfb389796841b37e81f7f5613e80e86d4f78403be1232dee6df6",
    ),
    "quantum_eraser-envelope-collapse": (
        "25c9f39fa714d316ccce8d4630713131972e1e354d1735ad351d2bb0d1420ebd",
        "c7c40cd00e47b5fbcc442fe008df2f5f537c24e9c1ab7347f62be418ba2eaeff",
    ),
    "quantum_eraser-envelope-render": (
        "25c9f39fa714d316ccce8d4630713131972e1e354d1735ad351d2bb0d1420ebd",
        "99fc131d605c5fba7135ab60f8adf787457eef871c0ea3d01fd54979d4327016",
    ),
    "quantum_eraser-greedy-collapse": (
        "f3f6b9832210fec611eac6ddd312591719485d13e4eb0ad2763ab45c1d73a187",
        "4d927cb30293de5fb75a8a015151c69797101f18309f92113711325c75350e25",
    ),
    "quantum_eraser-greedy-render": (
        "f3f6b9832210fec611eac6ddd312591719485d13e4eb0ad2763ab45c1d73a187",
        "18d22c4d04f73d6099933cdc991169c64a5b858a2a9fbd3e63bd9a2d1831bd42",
    ),
    "quantum_eraser-m2_29-collapse": (
        "9e0cbf26c43bbb8d0a4dd330b33f316c063b626380fc0022e93dbc4fcb58762b",
        "96f76e0dd8300c4c69b327e1e10d5e4031d30f84db94f84fc54d21449f17f1cc",
    ),
    "quantum_eraser-m2_29-render": (
        "9e0cbf26c43bbb8d0a4dd330b33f316c063b626380fc0022e93dbc4fcb58762b",
        "6080286e7f7c879d365ddd7ed8270a8679df6dece9efce3da80ca3dfb22c7789",
    ),
    "quantum_eraser-render": (
        "f3f6b9832210fec611eac6ddd312591719485d13e4eb0ad2763ab45c1d73a187",
        "cefb51d8145c502fa03d3432501162015d76e2fc081d7e065f6fc8a96fe78b8a",
    ),
    "switch-a-collapse": (
        "aa70673de4b2e882b24f2d3d8918d761d1556ab2df9f241ae2442cf164beb225",
        "b900a9b1ce8a7a0f1c6d407c739a2f7b23b133b41b6feecdff66eaeaff616cc6",
    ),
    "switch-a-render": (
        "aa70673de4b2e882b24f2d3d8918d761d1556ab2df9f241ae2442cf164beb225",
        "3fe2c35382df5fdc45825fb9612ee42643b84c006bf08c201bcccc57edeef3a5",
    ),
    "switch-a-slow-collapse": (
        "742ecd0c48563777c283bd410c4437aa3b85a5571111ff10ab4e5d029dbdcef3",
        "32dc94574e21226fed5dd84d67d34f264a609b83a6b1f5788c3f8b681107711c",
    ),
    "switch-a-slow-render": (
        "742ecd0c48563777c283bd410c4437aa3b85a5571111ff10ab4e5d029dbdcef3",
        "cb2635f69c6350fd47e4586589e5bfa1a183e8545677e2967fae7e56fc25369a",
    ),
    "switch-d-i-custom-collapse": (
        "a15e76296ef249c7ea7e23771cc12b5aa438dd630a5321d3bdfa3ba25b41890d",
        "4490fff6a822a78cafb3afcc3a461712ebcf1386af764f7a274e50924b2e9a5a",
    ),
    "switch-d-i-custom-render": (
        "a15e76296ef249c7ea7e23771cc12b5aa438dd630a5321d3bdfa3ba25b41890d",
        "4a44b56d81b87fd3ac4b482288142e7f1b70731953ec1f400d67d9e04f38cf15",
    ),
    "switch-d-i-empty-collapse": (
        "f8cd168c3a9fb5add075853d6a482ef6565f5d017e095f4dff33c40b388fe712",
        "fda2dbdd5762e666352927ab453b769c3db4c50497eacaffeaace5446c9a9404",
    ),
    "switch-d-i-empty-render": (
        "f8cd168c3a9fb5add075853d6a482ef6565f5d017e095f4dff33c40b388fe712",
        "4547be4cb1c9d60e574b064f95925cc12b99e26eac7e2319601eb7aa974cfbfa",
    ),
    "switch-d-i-full-collapse": (
        "f1a4b5f0ada9355b338a0b25b5786e85c2cd2794731a953db7c9b75462fb925c",
        "616c67db6bce368fce794545188a152ec554c6c9738ff7280c2cc7992fb5dc83",
    ),
    "switch-d-i-full-render": (
        "f1a4b5f0ada9355b338a0b25b5786e85c2cd2794731a953db7c9b75462fb925c",
        "9165f16db10b2e821cef064689679325fa2b05863a1ca24002559dd9c03659ef",
    ),
    "switch-d-i-indistinguishable-collapse": (
        "5ef2e8006b3cc819ac760d8de5d2c8d37b38783b59bd15825835a87ec58abe87",
        "031b8864daced90aaa547177b9ba2493138e779b05ec5c42d0cc1e3cb821cd75",
    ),
    "switch-d-i-indistinguishable-render": (
        "5ef2e8006b3cc819ac760d8de5d2c8d37b38783b59bd15825835a87ec58abe87",
        "95a38e88c84bdc44f815bd66a4c1c61b5ae7b72c08eba053d5857a56db872c32",
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
        "fbb19d93b463343ca46f12604f90119ea63a6298a4b09e21138143a513897ad3",
        "cf2e2cd49b0db130d017e52d1753b690206467e13a8ba1290f8597dc83220560",
    ),
    "switch-d-ii-render": (
        "fbb19d93b463343ca46f12604f90119ea63a6298a4b09e21138143a513897ad3",
        "bd47289df8163d3891de75421054352fde7b55fb574b770c56147963c61ecd8f",
    ),
    "switch-d-iii-collapse": (
        "b336fb3fa08f40517a39fc139a436013a01d04c8e75423223206fa5891091716",
        "0d5a41dcd901f65ee3ceee952ff3a0321cc93ff5882930492c44e3e2129ec958",
    ),
    "switch-d-iii-render": (
        "b336fb3fa08f40517a39fc139a436013a01d04c8e75423223206fa5891091716",
        "38cc8e059893f5f27a0b562dd274c65c8681d1eaa5e801839cc575cfc72c98df",
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
    "dnr_render": "0fcb8d4beef8aaf163888f5ec9466fb3bb9e20aac0deac21f368ab6e4e7e3b43",
    "eraser_main": "b46e1cd6d844e8654208fcf6c025065dde8b854b2494c300affff71d8719b95c",
    "macro_collapse": "db0f66e8c16b3d33f24071eb98b9495a61d91c0a5e662f6c0197d7852dd06973",
    "macro_render": "946705208a2486789a2cf1b49892141a54e5afbf6bd184343086c971bc9e94a9",
    "predictor_main": "9c67f42db083d5775c193a7bfc2e6a44c573cda9d84fff2b89284815aefb927b",
    "switch_a_fast": "8eda19e617d9fa1c815ea7f24d0321b93a6ed8bf31d9214864aa194964a30845",
    "switch_a_slow": "c96733279c3ace7c3f61e98556df2f3c6ae0074652eb6dadbe4221c2bf564d8b",
    "switch_b_fast": "8eda19e617d9fa1c815ea7f24d0321b93a6ed8bf31d9214864aa194964a30845",
    "switch_b_slow": "c96733279c3ace7c3f61e98556df2f3c6ae0074652eb6dadbe4221c2bf564d8b",
    "switch_c_fast": "8eda19e617d9fa1c815ea7f24d0321b93a6ed8bf31d9214864aa194964a30845",
    "switch_c_slow": "c96733279c3ace7c3f61e98556df2f3c6ae0074652eb6dadbe4221c2bf564d8b",
    "switch_empty": "384ae2ffdffde672fb45977dd525903dc08468f1cc610390fc428e4d0209fd9b",
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
    "macroscopic_erasure-coin-render": "8f04bccad6d7b81f2c20adffa2d5490f8a25d0e86e19c966a330d0aa5ff5bb1f",
    "perishable-a-collapse": "057bd9c26f644d97dcdef96e8cd0caf6953ac7e8adeb8d980398abb532e6238d",
    "perishable-a-inf_ttl": "82c8efb079b5dfd2229ba8e3aca0b0e22ad52848a0139c5892bfccc5d128a496",
    "quantum_eraser-render": "675306a9f9e5a50944945e8e6f6240c980445c60b1062a5a5c41e04ada46db5f",
    "quantum_eraser-render-n1": "5ecc692a3c20fb77352d122271fdbd9da28939f65a3dd704edccf88f766ca537",
    "quantum_eraser-render-n16384": "c3d8b7fdc7dd32cdab7aa6cc6a1c83c04cb24b62630f9e795c5894c245bab0a0",
    "quantum_eraser-render-n32769": "9a1f3e32200bd372df35591d8b959a4f4a5099caad39c51b6d4798d286add016",
    "switch-d-i-custom-collapse": "b6d2cb36d5896924ef030db80332a5c459be35705b294a4b491c73a8399fa5c5",
}

CSV_CASES = csv_cases()


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_events_csv_bytes_are_pinned(name, tmp_path):
    path = tmp_path / "events.csv"
    run_protocol(CSV_CASES[name]).events.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_GOLDEN[name]
