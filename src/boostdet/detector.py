"""Multi-scale sliding-window detection with greedy overlap suppression.

The pyramid grows the window instead of shrinking the frame, so one
``WindowStack`` per frame (``imaging.build_integral``: its pixels and
integral tables) serves every level and feature geometry stays integer.
Each level is that stack's strided view ``WindowStack.level``, built once
per stack and kept there, so the models scanned through one caller's
stack share its views and ``sigma``. Its margins come from
``boosting.vote``, which also scores a single window
(``WindowStack.window``). The model keeps its vote plan and each level's
scaled geometry, so frames of one size scale it once.

Detections leave ``scan`` as one ``Detections`` record: an int64
``(n, 4)`` array of ``(x, y, w, h)`` boxes and a float64 ``(n,)`` array
of margins, in scan order. ``nms`` and the evaluation take records and
read their arrays. A record holds only boxes that ``imaging.rect_problem``
accepts, as a ``Rect`` does, and no NaN margin, so nothing downstream
checks a row again.

``nms`` is greedy suppression in suppress-forward form, the vectorised
greedy NMS of the DPM release code (Felzenszwalb et al., TPAMI 2010):
boxes are taken in ``margin_order`` (descending margin, ties in input
order), and each box still alive is kept and removes every later box it
overlaps at or above the threshold. The live boxes are resolved in blocks
of the top ``NMS_BLOCK``: one IoU matrix among the block's boxes, walked
greedily in Python, then one matrix of the block's keeps against the rest
of the live boxes, whose survivors are compacted once. So memory stays
O(NMS_BLOCK * n). Corners and areas are float64, exact because offsets
and extents lie below ``MAX_COORD`` = 2**26, and ``corner_iou`` divides
the same integers as ``iou``; both Python and numpy round that division
correctly, so ``nms`` keeps exactly what the loop over kept boxes keeps.
``evalkit`` matches detections to truth boxes with the same order and the
same IoU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boosting import StrongClassifier, vote
from .features import CANONICAL_H, CANONICAL_W
from .imaging import MAX_COORD, GrayImage, Rect, WindowStack, build_integral, rect_rows_problem

# live boxes ``nms`` resolves against each other at once: of 4 to 32, the
# fastest on all-pass scans of 128x96 frames and near it at bias -1
NMS_BLOCK = 8


@dataclass(frozen=True)
class Detection:
    """A positively classified window and its vote margin."""

    box: Rect
    margin: float


class Detections:
    """Detections as arrays: ``boxes`` (n, 4) int64 rows ``(x, y, w, h)``
    and ``margins`` (n,) float64, both read-only copies of the inputs.

    A slice, an index array or a boolean mask gives another ``Detections``
    of copies of the selected rows, which are not checked again; any other
    index (an integer, ``None``, a 2-d index array) raises IndexError.
    Boxes that are not integers of shape (n, 4), a box that
    ``imaging.rect_rows_problem`` rejects, a margin count other than n or
    a NaN margin raise ValueError; a NaN has no place in a margin order,
    while +-inf are accepted, because their order is well defined.
    Iteration gives ``Detection`` values with Python ints and floats; it
    and ``Detection`` stay only for ``boostbench``'s
    ``workloads.detections_text``, until the benchmark reads the arrays.
    """

    __slots__ = ("boxes", "margins")

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
        margins = margins.astype(np.float64)
        nan = np.flatnonzero(np.isnan(margins))
        if nan.size:
            raise ValueError(f"margins[{nan[0]}] is NaN")
        self._hold(boxes.astype(np.int64), margins)

    def _hold(self, boxes: np.ndarray, margins: np.ndarray) -> None:
        boxes.flags.writeable = False
        margins.flags.writeable = False
        self.boxes = boxes
        self.margins = margins

    def __len__(self) -> int:
        return len(self.margins)

    def __getitem__(self, key) -> Detections:
        margins = self.margins[key]
        if np.ndim(margins) != 1:
            raise IndexError(f"a Detections index must select rows, got {key!r}")
        # these rows passed ``__init__``'s checks already: copy them as they are
        rows = object.__new__(Detections)
        rows._hold(np.array(self.boxes[key]), np.array(margins))
        return rows

    def __iter__(self):
        for (x, y, w, h), margin in zip(self.boxes.tolist(), self.margins.tolist()):
            yield Detection(Rect(x, y, w, h), margin)

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
    """(5, n) float64 rows x0, y0, x1, y1 and area of (n, 4) rows ``(x, y, w, h)``.

    Every value is exact: offsets and extents lie below ``MAX_COORD`` =
    2**26, so x1 and y1 lie below 2**27 and an area below 2**52.
    """
    x0, y0, w, h = boxes.T.astype(np.float64)
    return np.stack([x0, y0, x0 + w, y0 + h, w * h])


def corner_iou(a, b) -> np.ndarray:
    """IoU of ``box_corners`` columns ``a`` and ``b``, broadcast together.

    It divides the integers that ``iou`` divides: an intersection lies
    below 2**52 and a union below 2**53, so both are exact in float64 and
    each quotient, correctly rounded, equals ``iou``'s for the same two
    boxes. The arithmetic runs in place on the arrays it makes.
    """
    ax0, ay0, ax1, ay1, a_area = a
    bx0, by0, bx1, by1, b_area = b
    inter = np.minimum(ax1, bx1)
    inter -= np.maximum(ax0, bx0)
    np.maximum(inter, 0.0, out=inter)
    iy = np.minimum(ay1, by1)
    iy -= np.maximum(ay0, by0)
    np.maximum(iy, 0.0, out=iy)
    inter *= iy
    union = np.add(a_area, b_area, out=iy)
    union -= inter
    inter /= union
    return inter


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


def _kept_rows(dets: Detections, overlap_threshold: float) -> np.ndarray:
    """Row indices that greedy suppression keeps, in margin order."""
    order = margin_order(dets.margins)
    # one column per live box, in margin order: row index, then its corners
    live = np.vstack([order, box_corners(dets.boxes[order])])
    kept = []
    while live.shape[1]:
        block, live = live[:, :NMS_BLOCK], live[:, NMS_BLOCK:]
        corners = block[1:]
        hits = (corner_iou(corners[:, :, None], corners[:, None, :])
                >= overlap_threshold).tolist()
        picks = []
        for j in range(block.shape[1]):
            if not any(hits[k][j] for k in picks):
                picks.append(j)
        keep = block[:, picks]
        kept += keep[0].tolist()
        clear = corner_iou(keep[1:, :, None], live[1:, None, :]).max(axis=0)
        live = live.compress(clear < overlap_threshold, axis=1)
    return np.array(kept, dtype=np.intp)


def nms(detections: Detections, overlap_threshold: float = 0.5,
        input_order: bool = False) -> Detections:
    """Greedy suppression: higher margins win, ties keep input order.

    Suppress-forward form: in margin order, each box still alive is kept
    and removes every later box whose IoU with it is at least
    ``overlap_threshold``, so a box is kept exactly when no box kept
    before it overlaps it that much. The top ``NMS_BLOCK`` live boxes are
    resolved among themselves, then their keeps suppress the rest and the
    live boxes are compacted, so memory stays O(NMS_BLOCK * n), never
    n x n. The kept rows of the record ``detections`` come back as a
    ``Detections``, in margin order, or with ``input_order`` in the order
    of the input.
    """
    check_iou_threshold("overlap_threshold", overlap_threshold)
    kept = _kept_rows(detections, overlap_threshold)
    if input_order:
        kept.sort()
    return detections[kept]
