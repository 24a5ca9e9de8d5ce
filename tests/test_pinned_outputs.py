"""Byte-for-byte pins of the genome stream and of small training runs.

The sha256 values were recorded before the batched evaluator and the
constructor-based mutation moves went in, so any change to the RNG calls
of a move, to a candidate's epsilon arithmetic or to tie-breaking in the
search shows up here as a different hash. A change that alters outputs
on purpose re-records them and says so.
"""

import hashlib
import random

import pytest

from boostdet.features import FeatureKind
from boostdet.learner import LearnerConfig, mutate, random_feature
from boostdet.modelio import dump_model
from boostdet.pipeline import train_detector
from boostdet.synthetic import training_samples

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
