import pathlib
import random

import numpy as np
import pytest

from boostdet.boosting import LabeledSample, StrongClassifier, vote
from boostdet.detector import Detections
from boostdet.features import CANONICAL_H, CANONICAL_W
from boostdet.imaging import GrayImage, Rect, WindowStack, build_integral, rect_rows


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_image(rng, width, height, lo=0, hi=256) -> GrayImage:
    return GrayImage(rng.integers(lo, hi, (height, width)).astype(np.uint8))


def rand_window(rng, lo=0, hi=256) -> GrayImage:
    return rand_image(rng, CANONICAL_W, CANONICAL_H, lo, hi)


def row_level(windows: int) -> WindowStack:
    """One row of ``windows`` canonical windows at stride 1, a pyramid level of a random frame."""
    frame = rand_image(np.random.default_rng(windows), CANONICAL_W + windows - 1, CANONICAL_H)
    return build_integral(frame).level(CANONICAL_W, CANONICAL_H, 1)


def constant_image(width: int, height: int, value: int) -> GrayImage:
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


def record(dets) -> Detections:
    """``dets``, a sequence of ``Detection``, as one ``Detections`` record."""
    return Detections(rect_rows([d.box for d in dets]), [d.margin for d in dets])


def records(detections) -> dict[str, Detections]:
    """A frame id -> ``Detection`` list mapping as one record per frame, in its order."""
    return {fid: record(dets) for fid, dets in detections.items()}


def score(model: StrongClassifier, sample: LabeledSample) -> float:
    """The vote margin of one crop."""
    return float(vote(model, WindowStack.from_images([sample.window]))[0])


def classify(model: StrongClassifier, sample: LabeledSample, bias: float = 0.0) -> int:
    """+1 iff the margin strictly exceeds ``bias``; ties reject."""
    return 1 if score(model, sample) > bias else -1


def rand_rect(rng, width, height) -> Rect:
    w = int(rng.integers(1, width + 1))
    h = int(rng.integers(1, height + 1))
    return Rect(x=int(rng.integers(0, width - w + 1)),
                y=int(rng.integers(0, height - h + 1)), w=w, h=h)


def py_rng(seed: int) -> random.Random:
    return random.Random(seed)


FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "boostbench" / "fixtures"


def fixture_model_text(family: str) -> str:
    """The frozen 50-stage desk model of ``family`` ("haar", "cp", ...)."""
    return (FIXTURE_DIR / f"{family}.model.txt").read_text(encoding="utf-8")
