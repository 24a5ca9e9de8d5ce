import random

import numpy as np
import pytest

from boostdet.detector import Detections
from boostdet.features import CANONICAL_H, CANONICAL_W
from boostdet.imaging import GrayImage, Rect


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_image(rng, width, height, lo=0, hi=256) -> GrayImage:
    return GrayImage.from_array(rng.integers(lo, hi, (height, width)).astype(np.uint8))


def rand_window(rng, lo=0, hi=256) -> GrayImage:
    return rand_image(rng, CANONICAL_W, CANONICAL_H, lo, hi)


def rand_rect(rng, width, height) -> Rect:
    w = int(rng.integers(1, width + 1))
    h = int(rng.integers(1, height + 1))
    return Rect(x=int(rng.integers(0, width - w + 1)),
                y=int(rng.integers(0, height - h + 1)), w=w, h=h)


def py_rng(seed: int) -> random.Random:
    return random.Random(seed)


def as_detections(dets) -> Detections:
    """The ``Detections`` holding the rows of a list of ``Detection``."""
    return Detections(np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets],
                               dtype=np.int64).reshape(-1, 4),
                      np.array([d.margin for d in dets], dtype=np.float64))
