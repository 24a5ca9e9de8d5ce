"""Seeded desk-scale synthetic data: vehicle-like targets on textured noise.

A target is a bright horizontally-symmetric body block over a dark
underside bar, with jittered geometry, per-sample contrast and a little
salt noise, so no single weak feature separates the classes perfectly.
Negatives mix pure textured noise with "confuser" crops that contain
bright/dark blocks in non-vehicle arrangements. Frames plant rescaled
targets on plain textured noise at known boxes, which become the ground
truth for evaluation runs. Planted boxes share no pixel, so any two have
an IoU of 0.
"""

from __future__ import annotations

import os

import numpy as np

from .boosting import LabeledSample
from .dataset import write_annotations
from .evalkit import GroundTruthFrame
from .features import CANONICAL_H, CANONICAL_W
from .imaging import GrayImage, Rect, extract_window
from .pgm import save_pgm

NOISE_LO, NOISE_HI = 40, 216
SALT_FRACTION = 0.03
CONFUSER_FRACTION = 0.4


def _salted(px: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    mask = rng.random(px.shape) < SALT_FRACTION
    return np.where(mask, rng.integers(0, 256, px.shape), px)


def target_window(rng: np.random.Generator) -> GrayImage:
    """One canonical positive crop: bright body over dark bar.

    Geometry, contrast and registration (a rigid +-2px shift, as if the
    crop were cut slightly off target) all jitter per sample, and a
    little salt noise lands everywhere, so no single weak feature can
    separate the classes on its own.
    """
    px = rng.integers(NOISE_LO, NOISE_HI, (CANONICAL_H, CANONICAL_W))
    dx = int(rng.integers(-2, 3))
    dy = int(rng.integers(-2, 3))
    x0 = int(rng.integers(3, 9))
    xl = max(0, x0 + dx)
    xr = min(CANONICAL_W, CANONICAL_W - x0 + dx)
    y0 = max(0, int(rng.integers(2, 7)) + dy)
    y1 = int(rng.integers(11, 16)) + dy
    bar_end = min(CANONICAL_H, y1 + int(rng.integers(4, 8)))
    body = int(rng.integers(170, 226))
    bar = int(rng.integers(8, 60))
    px[y0:y1, xl:xr] = body + rng.integers(-12, 13, (y1 - y0, xr - xl))
    px[y1:bar_end, xl:xr] = bar + rng.integers(-8, 9, (bar_end - y1, xr - xl))
    px = _salted(px, rng)
    return GrayImage(np.clip(px, 0, 255).astype(np.uint8))


def _paint_block(px: np.ndarray, rng: np.random.Generator) -> None:
    h_img, w_img = px.shape
    w = int(rng.integers(6, min(27, w_img)))
    h = int(rng.integers(4, min(17, h_img)))
    x = int(rng.integers(0, w_img - w + 1))
    y = int(rng.integers(0, h_img - h + 1))
    value = int(rng.integers(170, 226)) if rng.random() < 0.5 else int(rng.integers(8, 60))
    px[y:y + h, x:x + w] = value + rng.integers(-10, 11, (h, w))


def noise_window(rng: np.random.Generator) -> GrayImage:
    """One canonical negative crop; a fraction carries confuser blocks."""
    px = rng.integers(NOISE_LO, NOISE_HI, (CANONICAL_H, CANONICAL_W))
    if rng.random() < CONFUSER_FRACTION:
        for _ in range(int(rng.integers(1, 3))):
            _paint_block(px, rng)
    return GrayImage(np.clip(px, 0, 255).astype(np.uint8))


def training_samples(n_pos: int, n_neg: int, seed: int) -> list[LabeledSample]:
    """Positive and negative canonical crops, positives first."""
    rng = np.random.default_rng([seed, 1])
    samples = [LabeledSample(target_window(rng), 1) for _ in range(n_pos)]
    samples += [LabeledSample(noise_window(rng), -1) for _ in range(n_neg)]
    return samples


def make_frame(rng: np.random.Generator, frame_w: int = 128,
               frame_h: int = 96) -> tuple[GrayImage, list[Rect]]:
    """A noise frame with 1-2 planted, non-overlapping targets of 1.0-1.6x canonical size."""
    px = rng.integers(NOISE_LO, NOISE_HI, (frame_h, frame_w)).astype(np.uint8)
    boxes: list[Rect] = []
    n_targets = int(rng.integers(1, 3))
    for _ in range(n_targets):
        for _attempt in range(20):
            s = rng.uniform(1.0, 1.6)
            w = int(round(CANONICAL_W * s))
            h = int(round(CANONICAL_H * s))
            if w > frame_w or h > frame_h:
                continue
            x = int(rng.integers(0, frame_w - w + 1))
            y = int(rng.integers(0, frame_h - h + 1))
            box = Rect(x=x, y=y, w=w, h=h)
            # redrawn while it shares a pixel with a box already planted
            if any(x < ox + ow and ox < x + w and y < oy + oh and oy < y + h
                   for ox, oy, ow, oh in boxes):
                continue
            pattern = target_window(rng)
            scaled = extract_window(pattern, Rect(0, 0, CANONICAL_W, CANONICAL_H), w, h)
            px[y:y + h, x:x + w] = scaled.pixels
            boxes.append(box)
            break
    return GrayImage(px), boxes


def frame_sequence(n_frames: int, seed: int, frame_w: int = 128,
                   frame_h: int = 96) -> list[tuple[GrayImage, list[Rect]]]:
    rng = np.random.default_rng([seed, 2])
    return [make_frame(rng, frame_w, frame_h) for _ in range(n_frames)]


def write_dataset(out_dir: str, n_pos: int, n_neg: int, n_frames: int, seed: int,
                  frame_w: int = 128, frame_h: int = 96) -> None:
    """Write pos/, neg/, frames/ PGM crops and annotations.txt under out_dir.

    The crops are the windows of ``training_samples(n_pos, n_neg, seed)``.

    Frame ids in the annotation file are the bare .pgm file names, the
    same ids the detect command derives from a frame directory.
    """
    pos_dir = os.path.join(out_dir, "pos")
    neg_dir = os.path.join(out_dir, "neg")
    frames_dir = os.path.join(out_dir, "frames")
    for d in (pos_dir, neg_dir, frames_dir):
        os.makedirs(d, exist_ok=True)

    samples = training_samples(n_pos, n_neg, seed)
    for i, s in enumerate(samples[:n_pos]):
        save_pgm(s.window, os.path.join(pos_dir, f"pos_{i:04d}.pgm"))
    for i, s in enumerate(samples[n_pos:]):
        save_pgm(s.window, os.path.join(neg_dir, f"neg_{i:04d}.pgm"))

    truths = []
    for i, (frame, boxes) in enumerate(frame_sequence(n_frames, seed, frame_w, frame_h)):
        name = f"frame_{i:04d}.pgm"
        save_pgm(frame, os.path.join(frames_dir, name))
        truths.append(GroundTruthFrame(frame_id=name, boxes=tuple(boxes)))
    write_annotations(truths, os.path.join(out_dir, "annotations.txt"))
