import pathlib
import random

import numpy as np
import pytest

from boostdet.features import CANONICAL_H, CANONICAL_W
from boostdet.imaging import GrayImage, Rect


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_image(rng, width, height, lo=0, hi=256) -> GrayImage:
    return GrayImage(rng.integers(lo, hi, (height, width)).astype(np.uint8))


def rand_window(rng, lo=0, hi=256) -> GrayImage:
    return rand_image(rng, CANONICAL_W, CANONICAL_H, lo, hi)


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
