"""Annotation files, dataset manifests and training-crop ingestion.

Annotation grammar, one box per line, '#' starts a comment:

    frame_path x y w h
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .evalkit import GroundTruthFrame
from .imaging import Rect


class AnnotationError(ValueError):
    """Malformed annotation line; the message names the line number."""


def parse_annotations(path) -> list[GroundTruthFrame]:
    """Ground-truth boxes grouped by frame, in first-seen frame order."""
    boxes_by_frame: dict[str, list[Rect]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise AnnotationError(
                    f"{path}:{lineno}: expected 'frame_path x y w h', got {raw.strip()!r}")
            frame_id = parts[0]
            try:
                x, y, w, h = (int(p) for p in parts[1:])
            except ValueError:
                raise AnnotationError(
                    f"{path}:{lineno}: box coordinates must be integers") from None
            try:
                rect = Rect(x=x, y=y, w=w, h=h)
            except ValueError as exc:
                raise AnnotationError(f"{path}:{lineno}: {exc}") from None
            boxes_by_frame.setdefault(frame_id, []).append(rect)
    return [GroundTruthFrame(frame_id=fid, boxes=tuple(bx))
            for fid, bx in boxes_by_frame.items()]


def write_annotations(frames: list[GroundTruthFrame], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in frames:
            for b in frame.boxes:
                fh.write(f"{frame.frame_id} {b.x} {b.y} {b.w} {b.h}\n")


def list_pgm_files(directory) -> list[str]:
    """Sorted .pgm paths directly inside ``directory``."""
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".pgm"))
    return [os.path.join(directory, n) for n in names]


@dataclass(frozen=True)
class DatasetManifest:
    """Paths of positive and negative training crops."""

    positives: tuple[str, ...]
    negatives: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "positives", tuple(self.positives))
        object.__setattr__(self, "negatives", tuple(self.negatives))
        for path in (*self.positives, *self.negatives):
            if not os.path.isfile(path):
                raise FileNotFoundError(f"manifest references missing file {path}")

    @classmethod
    def from_dirs(cls, pos_dir: str, neg_dir: str) -> "DatasetManifest":
        return cls(positives=tuple(list_pgm_files(pos_dir)),
                   negatives=tuple(list_pgm_files(neg_dir)))
