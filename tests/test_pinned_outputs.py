"""Byte-for-byte pins of the genome stream, small training runs and the
detect/eval path.

The genome and training sha256 values were recorded before the batched
evaluator and the constructor-based mutation moves went in, so any
change to the RNG calls of a move, to a candidate's epsilon arithmetic
or to tie-breaking in the search shows up here as a different hash. The
bias-1 and all-pass detect/eval values were recorded before frames
became one window stack, and the shared-size values before detections
became arrays, so a change to scan margins, NMS order, the CSV row
order or text, or the bias sweep shows up the same way. A change that
alters outputs on purpose re-records them and says so.
"""

import hashlib
import random

import pytest

from boostdet.cli import main
from boostdet.dataset import write_annotations
from boostdet.evalkit import GroundTruthFrame
from boostdet.features import FeatureKind
from boostdet.learner import LearnerConfig, mutate, random_feature
from boostdet.modelio import dump_model, save_model
from boostdet.pgm import save_pgm
from boostdet.pipeline import train_detector
from boostdet.synthetic import frame_sequence, training_samples

GENOME_SHA256 = {
    FeatureKind.HAAR:
        "233caf150e522dd92b94654ac89ec4ae9a11405091b018d912c7df43f510897b",
    FeatureKind.CONTROL_POINTS:
        "c33770dda8bf338f639750b496582cdc6b9bb1fdee55a54ec30fb864abf98db4",
    FeatureKind.SYMMETRIC_HAAR:
        "5463cf3c78c2176fcbcf57879b2a0c05d11611d170ea2154d513c0c6cc0ab626",
    FeatureKind.CHAIN:
        "2d46aa5c30160a3c69e55211b32f87d282cf4c5b15eaeed2f858e511933e3445",
}

TRAIN_SHA256 = {
    FeatureKind.HAAR:
        "fa750fb55420aa437f40e1ab5911584d02295e4450c0ada979d7cfadc1044fda",
    FeatureKind.CONTROL_POINTS:
        "c6e96b82d6ad6c4f4cc12ebfb0dcd11ad023f01e6b9559da02c6eb5dd9a1abb8",
    FeatureKind.SYMMETRIC_HAAR:
        "135da32676a3fe654f27936c09831565ee6471ab6b01e462ff22eed0ca743a46",
    FeatureKind.CHAIN:
        "19af012325b28ec56c2f33f46343720e04e67c5ab93f6c0feb1083e05fb1d9d2",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def genome_text(family: FeatureKind, draws: int = 200) -> str:
    """``repr`` of a chain of draws: every tenth fresh, the rest mutations."""
    rng = random.Random(2009)
    feature = random_feature(family, rng)
    lines = [repr(feature)]
    for i in range(1, draws):
        feature = random_feature(family, rng) if i % 10 == 0 else mutate(feature, rng)
        lines.append(repr(feature))
    return "\n".join(lines) + "\n"


def train_text(family: FeatureKind) -> str:
    """Model file, per-round CSV and search ticks of a 3-round run."""
    ticks = []
    result = train_detector(
        training_samples(20, 40, seed=7), 3,
        LearnerConfig(family=family, population_size=20, generations=5),
        progress=lambda t, gen, best, mean: ticks.append(f"{t},{gen},{best!r},{mean!r}\n"))
    rounds = [f"{r.t},{r.epsilon!r},{r.beta!r},{r.alpha!r},{r.bound!r},{r.train_error!r}\n"
              for r in result.rounds]
    return dump_model(result.model) + "".join(rounds) + "".join(ticks)


@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda k: k.value)
def test_genome_stream_is_pinned(family):
    assert _sha256(genome_text(family)) == GENOME_SHA256[family]


@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda k: k.value)
def test_training_run_is_pinned(family):
    assert _sha256(train_text(family)) == TRAIN_SHA256[family]


# detect CSV, ROC CSV and PR CSV per family and case
DETECT_EVAL_SHA256 = {
    (FeatureKind.HAAR, "bias-1"): [
        "b5ef9a856a5d88b4f5fe80c0d4e72dd33608b63723dda66d9773aa568d3cbc1b",
        "e9897ac8c8c0825ef8faa3dca5819cb0313bd6f791896f80f7810e70aa42c9e7",
        "dd40b8b09b23a1298cdc2e747daeef97ebb73f902b670a4466371d54acbcde59",
    ],
    (FeatureKind.HAAR, "all-pass"): [
        "d98770e5ddeb8f59e550d582cf1165348850d5da5739303a5f60c66267d3cea6",
        "07083b79dd9ec9b58862c8d53077b391514f400061229f2e584b7f196068c217",
        "b0b4bda373bf0e8ef8f7895c5e62adcc002287ea978cae4c850f33ab09f2acc1",
    ],
    (FeatureKind.HAAR, "shared-size"): [
        "e43e2269e8b64a8b709badd37fc90edb11452c235f94fb99203c1184c82c67a9",
        "78bae9585832c53b785ddb00a3a6ea324d31bbdaf7f39f239fb0cabfa2643829",
        "ca402b4dad3a4cf91855826fb4574c3b9fa1aa64c2ee244baafb6b2e3c7e10ec",
    ],
    (FeatureKind.CONTROL_POINTS, "bias-1"): [
        "dbbc07ff4ded912e464a9e019261ff03880b0f77e6fdf559f55d9d4c822ae6f9",
        "5a1697c39375942012e0229dd76c14b20ab2d87c9c8a4c012f4e1be4b5692574",
        "a638e5b4fe1aab7ca909ef88b85a9e74b409d5e2a480b777a58a9a3f4d8e11d0",
    ],
    (FeatureKind.CONTROL_POINTS, "all-pass"): [
        "2b2f0352ce86def8a53bc8b9585114ac596022a46512d3ca74e52bb8da38b995",
        "55e2e52cd9e2c05a60ca6c1e2fc7e98bfa844262a9937a0b0f8677fa7e33b0e2",
        "3973811fbe6d2f5b3871fed1d949e66611627e039869885727cf8fc036d7c4b0",
    ],
    (FeatureKind.CONTROL_POINTS, "shared-size"): [
        "627747d1e0ab6331a0a8b1ba12de4ac014431d692cbb022bccb8288b12ed71b2",
        "1d6d794abac1aa7ba92e541d4c2ebc45895a92fac01e619800d6aad902afe092",
        "1539b907feb46f1bddffb113491bffdc55e72f5b4dc9c00cb0a183b00ba8b5f7",
    ],
    (FeatureKind.SYMMETRIC_HAAR, "bias-1"): [
        "6bab6d442ee30817cb4604a354117f72ba316f3a7d6c68c71baff94ca2acdbd9",
        "85c30db8baa2fc6298ee11a134010d4a4b8bbf97503a9200e138366aee476841",
        "0831d4002f04d91b2224e2667c9e656e1c253a3bfc507343a37493a106e76590",
    ],
    (FeatureKind.SYMMETRIC_HAAR, "all-pass"): [
        "a350e361e1b978bef0911a4f2259e09aea539e25bd7e3d014159584d479a4fa1",
        "2708cc2c59c45b27ab2b07b251c14c8123726358f999ec6b1d2c91daf999c2f7",
        "41d9ceb31ad5b8c289e5135350330b2e8f7c09280eb21231b7bce3c9499550dc",
    ],
    (FeatureKind.SYMMETRIC_HAAR, "shared-size"): [
        "03c372b7c53f0fc5aed4c6c9291d4b1a5c899c052333e70dfc572f5a3574f3c8",
        "d38eb72075216b8fcd5730aca4a476d078ae771e5dc268b9ec9a3d3e6dd10a6a",
        "ba337f9f63a8bf17d757dbe15b8fe17364773d0611f0717529a7b85e538ba652",
    ],
    (FeatureKind.CHAIN, "bias-1"): [
        "7245b349d4e4f3e461c2acbf0aeafb323e07bae3728ebb0f88fa6c2e73dd867c",
        "2a2512f74253500544fd4f3ae8e7fa3280c3fb6a4a615a393c699391f2c4cc39",
        "444ac035296e86364ddd529ca4494feaad85c304654175b2fd01743df328da94",
    ],
    (FeatureKind.CHAIN, "all-pass"): [
        "845a21cf08a5461e2dc4338fcd37f5ad491859c11d08c83ab0b84b75555aaffe",
        "757e21ae3a5ecf719dcd91808e363041c03a6c3b88177ccf21c6a962e83ffc89",
        "95cba66d70f6f6084285eaf56d1b95b117e521db213ef7117dcdf5e97e53ae0b",
    ],
    (FeatureKind.CHAIN, "shared-size"): [
        "0e71e3675df2df1a4d534829379b7d8eb1bdee2e391744036927e933774512e7",
        "201c69a462254dc7c8088026e9dbf3270cc29ed9c6d9155ee2a123ffcedb2a10",
        "b8f057ed7484f516d61901503420695bf4914a042efc8bae6cb1bb4b4c4aca64",
    ],
}


@pytest.fixture(scope="module")
def detect_dir(tmp_path_factory):
    """Frames and annotations, laid out as ``boostdet synth`` lays them out.

    ``frames`` holds four 96x72 frames; ``small`` holds two 56x42 frames.
    """
    root = tmp_path_factory.mktemp("detect")
    for sub, n, w, h in (("frames", 4, 96, 72), ("small", 2, 56, 42)):
        (root / sub).mkdir()
        truths = []
        for i, (frame, boxes) in enumerate(frame_sequence(n, seed=11, frame_w=w, frame_h=h)):
            name = f"frame_{i:04d}.pgm"
            save_pgm(frame, str(root / sub / name))
            truths.append(GroundTruthFrame(frame_id=name, boxes=tuple(boxes)))
        write_annotations(truths, str(root / f"{sub}.txt"))
    return root


# case -> (frame directory, all-pass bias?, further detect flags). At scale
# factor 1.01 the levels (40, 30, 2) and (40, 30, 3) of a 56x42 frame share
# a window size, and NMS at IoU 1.0 drops only the second level's copies of
# the first level's boxes, so the kept rows of the two levels interleave by
# box and the CSV pins that rows go out by level, not by box.
DETECT_CASES = {
    "bias-1": ("frames", False, []),
    "all-pass": ("frames", True, []),
    "shared-size": ("small", True, ["--scale-factor", "1.01", "--nms-iou", "1.0"]),
}


def detect_eval_texts(root, tmp_path, family: FeatureKind, case: str) -> list[str]:
    """Text of the detect, ROC and PR CSVs of a tiny model over ``root``'s frames."""
    frames, all_pass, flags = DETECT_CASES[case]
    model = train_detector(training_samples(10, 20, seed=5), 4,
                           LearnerConfig(family=family, population_size=12,
                                         generations=3, seed=1)).model
    model_path = tmp_path / "model.txt"
    save_model(model, str(model_path))
    # margins are at least -sum(alpha), so the all-pass bias keeps every window
    bias = -sum(st.alpha for st in model.stages) - 1.0 if all_pass else -1.0
    paths = [tmp_path / name for name in ("dets.csv", "roc.csv", "pr.csv")]
    assert main(["detect", "--model", str(model_path), "--frames", str(root / frames),
                 "--out", str(paths[0]), "--bias", repr(bias)] + flags) == 0
    assert main(["eval", "--detections", str(paths[0]),
                 "--annotations", str(root / f"{frames}.txt"),
                 "--roc-out", str(paths[1]), "--pr-out", str(paths[2])]) == 0
    return [p.read_text(encoding="utf-8") for p in paths]


@pytest.mark.parametrize("case", list(DETECT_CASES))
@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda k: k.value)
def test_detect_and_eval_are_pinned(detect_dir, tmp_path, family, case):
    texts = detect_eval_texts(detect_dir, tmp_path, family, case)
    assert [_sha256(t) for t in texts] == DETECT_EVAL_SHA256[(family, case)]
