"""Multi-scale sliding-window detection with greedy overlap suppression.

The pyramid grows the window instead of shrinking the frame, so one
``WindowStack`` per frame (``imaging.build_integral``: its pixels and
integral tables) serves every level and feature geometry stays integer.
Each level is that stack's strided view ``WindowStack.level``, built once
per stack and kept there, so the models scanned through one caller's
stack share its views and ``sigma``. Its margins come from
``boosting.vote``, the same vote that ``score`` and ``classify`` apply to
a single crop. The model keeps its vote plan and each level's scaled
geometry, so frames of one size scale it once.

Detections leave ``scan`` as one ``Detections`` record: an int64
``(n, 4)`` array of ``(x, y, w, h)`` boxes and a float64 ``(n,)`` array
of margins, in scan order. It is a sequence of ``Detection`` values, but
a ``Detection`` and its ``Rect`` are built only for the rows a caller
indexes or iterates. ``nms`` and the evaluation read the arrays, and take
any other sequence of ``Detection`` once, through ``Detections.of``. A
record holds only boxes that ``imaging.rect_problem`` accepts, as a
``Rect`` does, so nothing downstream checks a box again.

``nms`` is greedy suppression in suppress-forward form, the vectorised
greedy NMS of the DPM release code (Felzenszwalb et al., TPAMI 2010):
boxes are taken in ``margin_order`` (descending margin, ties in input
order), and each box still alive is kept and removes every later box it
overlaps at or above the threshold in one array expression. Its
``corner_iou`` divides the same integers as ``iou``, all exact in float64,
and both Python and numpy round that division correctly, so it keeps
exactly what the loop over kept boxes keeps. ``evalkit`` matches
detections to truth boxes with the same order and the same IoU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boosting import StrongClassifier, vote
from .features import CANONICAL_H, CANONICAL_W
from .imaging import (MAX_COORD, GrayImage, Rect, WindowStack, build_integral, rect_rows,
                      rect_rows_problem)


@dataclass(frozen=True)
class Detection:
    """A positively classified window and its vote margin."""

    box: Rect
    margin: float


class Detections(Sequence[Detection]):
    """Detections as arrays: ``boxes`` (n, 4) int64 rows ``(x, y, w, h)``
    and ``margins`` (n,) float64, both read-only copies of the inputs.

    As a sequence, ``len``, iteration and an integer index give
    ``Detection`` values with Python ints and floats, built on access; a
    slice, an index array or a boolean mask gives another ``Detections``.
    ``==`` compares row by row with another ``Detections`` or with any
    sequence of ``Detection``. Boxes that are not integers of shape
    (n, 4), a box that ``imaging.rect_rows_problem`` rejects, or a margin
    count other than n raise ValueError.
    """

    __slots__ = ("boxes", "margins")
    __hash__ = None

    def __init__(self, boxes, margins):
        boxes = np.asarray(boxes)
        margins = np.asarray(margins)
        if boxes.ndim != 2 or boxes.shape[1] != 4:
            raise ValueError(f"boxes must have shape (n, 4), got {boxes.shape}")
        if boxes.size and boxes.dtype.kind not in "iu":
            raise ValueError(f"boxes must be integers, got dtype {boxes.dtype}")
        if margins.shape != (len(boxes),):
            raise ValueError(f"{len(boxes)} boxes need margins of shape ({len(boxes)},), "
                             f"got {margins.shape}")
        if margins.size and margins.dtype.kind not in "iuf":
            raise ValueError(f"margins must be real numbers, got dtype {margins.dtype}")
        problem = rect_rows_problem(boxes)
        if problem is not None:
            raise ValueError(problem)
        boxes = boxes.astype(np.int64)
        margins = margins.astype(np.float64)
        boxes.flags.writeable = False
        margins.flags.writeable = False
        self.boxes = boxes
        self.margins = margins

    def __len__(self) -> int:
        return len(self.margins)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            x, y, w, h = self.boxes[key].tolist()
            return Detection(Rect(x, y, w, h), self.margins[key].item())
        return Detections(self.boxes[key], self.margins[key])

    def __iter__(self):
        for (x, y, w, h), margin in zip(self.boxes.tolist(), self.margins.tolist()):
            yield Detection(Rect(x, y, w, h), margin)

    @classmethod
    def of(cls, detections: Sequence[Detection]) -> Detections:
        """``detections`` as a record: a ``Detections`` as it is, any other
        sequence of ``Detection`` converted once, its boxes by ``rect_rows``.
        """
        if isinstance(detections, Detections):
            return detections
        return cls(rect_rows([d.box for d in detections]), [d.margin for d in detections])

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Detections(boxes={self.boxes!r}, margins={self.margins!r})"


@dataclass(frozen=True)
class ScanConfig:
    scale_factor: float = 1.25
    stride: int = 2
    min_window_w: int = CANONICAL_W
    bias: float = 0.0

    def __post_init__(self):
        # larger values overflow the pyramid's float and int64 arithmetic
        if not 1.0 < self.scale_factor < MAX_COORD:
            raise ValueError(f"scale_factor must lie in (1, {MAX_COORD}), "
                             f"got {self.scale_factor}")
        for name in ("stride", "min_window_w"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.stride < MAX_COORD:
            raise ValueError(f"stride must lie in [1, {MAX_COORD}), got {self.stride}")
        if self.min_window_w < 1:
            raise ValueError(f"min_window_w must be >= 1, got {self.min_window_w}")
        if math.isnan(self.bias):
            raise ValueError("bias must not be NaN")


def iou(a: Rect, b: Rect) -> float:
    """Intersection-over-union of two rectangles."""
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def box_corners(boxes: np.ndarray) -> np.ndarray:
    """(5, n) int64 rows x0, y0, x1, y1 and area of (n, 4) rows ``(x, y, w, h)``."""
    x0, y0, w, h = boxes.T
    return np.stack([x0, y0, x0 + w, y0 + h, w * h])


def corner_iou(a, b) -> np.ndarray:
    """IoU of ``box_corners`` columns ``a`` and ``b``, broadcast together.

    It divides the integers that ``iou`` divides, so each value equals
    ``iou``'s for the same two boxes.
    """
    ax0, ay0, ax1, ay1, a_area = a
    bx0, by0, bx1, by1, b_area = b
    ix = np.maximum(0, np.minimum(ax1, bx1) - np.maximum(ax0, bx0))
    iy = np.maximum(0, np.minimum(ay1, by1) - np.maximum(ay0, by0))
    inter = ix * iy
    return inter / (a_area + b_area - inter)


def margin_order(margins: np.ndarray) -> np.ndarray:
    """Row indices by descending margin, ties in input order."""
    return np.lexsort((np.arange(len(margins)), -margins))


def pyramid_levels(frame_w: int, frame_h: int, cfg: ScanConfig) -> list[tuple[int, int, int]]:
    """(window_w, window_h, stride) per level, largest window still fitting.

    Level k rounds the sizes scaled by ``scale_factor ** k``. A factor
    close to 1 rounds consecutive powers to the same level; it is kept
    once, so no level is scanned twice, and the powers that provably
    repeat it are skipped, so the walk takes a few steps per level.
    """
    levels = []
    log_factor = math.log(cfg.scale_factor)
    k = 0
    while True:
        factor = cfg.scale_factor ** k
        w = int(round(CANONICAL_W * factor))
        h = int(round(CANONICAL_H * factor))
        if w > frame_w or h > frame_h:
            break
        stride = max(1, int(round(cfg.stride * factor)))
        level = (w, h, stride)
        if w >= cfg.min_window_w and (not levels or level != levels[-1]):
            levels.append(level)
        # every factor below ``change`` rounds to this level, so the powers
        # before ``skip_to`` repeat it: the 1e-13 taken off log(change) is
        # far wider than the rounding error of log, / and **
        change = min((w + 0.5) / CANONICAL_W, (h + 0.5) / CANONICAL_H,
                     (stride + 0.5) / cfg.stride)
        skip_to = math.floor((math.log(change) - 1e-13) / log_factor)
        k = max(k + 1, skip_to)
    return levels


def scan(model: StrongClassifier, frame: GrayImage, cfg: ScanConfig = ScanConfig(),
         ii: WindowStack | None = None) -> Detections:
    """All windows whose vote margin exceeds ``cfg.bias``, as one record.

    Output order is deterministic: pyramid level, then row, then column.
    Frames smaller than the canonical window yield nothing. The frame's
    ``build_integral`` stack may be passed as ``ii`` to avoid recomputation;
    the scan then reads only that stack, and a stack of another size, or
    of other pixels, raises ValueError.
    """
    if ii is None:
        ii = build_integral(frame)
    elif (ii.w, ii.h) != (frame.width, frame.height):
        raise ValueError(f"integral image is {ii.w}x{ii.h}, "
                         f"frame is {frame.width}x{frame.height}")
    elif not np.array_equal(ii.pixels, frame.pixels):
        raise ValueError("integral image is of other pixels than the frame")
    boxes = [np.empty((0, 4), dtype=np.int64)]
    margins = [np.empty(0)]
    for win_w, win_h, stride in pyramid_levels(frame.width, frame.height, cfg):
        level = vote(model, ii.level(win_w, win_h, stride))
        iy, ix = np.nonzero(level > cfg.bias)
        boxes.append(np.column_stack((ix * stride, iy * stride,
                                      np.full_like(ix, win_w), np.full_like(ix, win_h))))
        margins.append(level[iy, ix])
    return Detections(np.concatenate(boxes), np.concatenate(margins))


def check_iou_threshold(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless 0 < value <= 1 (NaN fails)."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def check_margins(detections: Detections, source: str = "detections") -> None:
    """Raise ValueError naming the first detection with a NaN margin.

    A NaN compares false with everything, so it has no place in a margin
    order; +-inf are accepted, because their order is well defined.
    """
    bad = np.flatnonzero(np.isnan(detections.margins))
    if bad.size:
        raise ValueError(f"{source}[{bad[0]}] has a NaN margin: {detections[int(bad[0])]}")


def _kept_rows(dets: Detections, overlap_threshold: float) -> np.ndarray:
    """Row indices that greedy suppression keeps, in margin order."""
    order = margin_order(dets.margins)
    # one column per live box, in margin order: row index, then its corners
    live = np.vstack([order, box_corners(dets.boxes)[:, order]])
    kept = []
    while live.shape[1]:
        i, *keep = live[:, 0].tolist()
        kept.append(i)
        live = live[:, 1:]
        live = live[:, corner_iou(keep, live[1:]) < overlap_threshold]
    return np.array(kept, dtype=np.intp)


def nms(detections: Sequence[Detection], overlap_threshold: float = 0.5,
        input_order: bool = False) -> Detections:
    """Greedy suppression: higher margins win, ties keep input order.

    Suppress-forward form: in margin order, each box still alive is kept
    and removes every later box whose IoU with it is at least
    ``overlap_threshold``, so a box is kept exactly when no box kept
    before it overlaps it that much. The live boxes are compacted after
    every keep, so memory stays O(n). The kept rows come back as a
    ``Detections``, in margin order, or with ``input_order`` in the order
    of the input. A NaN margin raises ValueError.
    """
    check_iou_threshold("overlap_threshold", overlap_threshold)
    dets = Detections.of(detections)
    check_margins(dets)
    kept = _kept_rows(dets, overlap_threshold)
    if input_order:
        kept.sort()
    return dets[kept]
