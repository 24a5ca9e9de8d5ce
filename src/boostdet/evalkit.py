"""Ground-truth matching and ROC / Precision-Recall curve generation.

Matching is greedy one-to-one: detections claim truth boxes in descending
margin order, each taking the unclaimed box of highest IoU at or above
the threshold. Because a bias sweep only ever removes a suffix of the
margin-sorted detection list, the greedy claims are computed once per
frame, every frame's detections are ranked together by margin, and each
sweep point is one bisection into the cumulative claim counts.

Each entry point converts a frame's detections once, through
``Detections.of``, to the record that the claims and the sweep read.
``write_curves`` writes both curves as CSV for ``eval`` and the desk script.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .detector import Detection, Detections, check_iou_threshold, check_margins, iou
from .imaging import Rect


@dataclass(frozen=True)
class GroundTruthFrame:
    frame_id: str
    boxes: tuple[Rect, ...]

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class RocPoint:
    bias: float
    fp_per_frame: float
    tpr: float


@dataclass(frozen=True)
class PrPoint:
    bias: float
    recall: float
    precision: float


def _greedy_claims(dets: Sequence[Detection], boxes: Sequence[Rect],
                   iou_threshold: float) -> tuple[list[int], list[bool]]:
    """Margin order of the detections, and whether each in turn claims a box.

    Detections are processed in descending margin order (ties by input
    order); IoU ties between truth boxes go to the lower index.
    """
    check_iou_threshold("iou_threshold", iou_threshold)
    dets = Detections.of(dets)
    margins = dets.margins.tolist()
    det_boxes = [Rect(*row) for row in dets.boxes.tolist()]
    order = sorted(range(len(margins)), key=lambda i: (-margins[i], i))
    taken = [False] * len(boxes)
    claims = []
    for i in order:
        best_j, best_iou = -1, 0.0
        for j, box in enumerate(boxes):
            if not taken[j]:
                v = iou(det_boxes[i], box)
                if v > best_iou:
                    best_j, best_iou = j, v
        claimed = best_j >= 0 and best_iou >= iou_threshold
        if claimed:
            taken[best_j] = True
        claims.append(claimed)
    return order, claims


def match_frame(dets: Sequence[Detection], truth: GroundTruthFrame,
                iou_threshold: float = 0.5) -> MatchResult:
    """One-to-one greedy match of detections against one frame's truth.

    A NaN margin raises ValueError.
    """
    dets = Detections.of(dets)
    check_margins(dets)
    _, claims = _greedy_claims(dets, truth.boxes, iou_threshold)
    tp = sum(claims)
    return MatchResult(tp=tp, fp=len(dets) - tp, fn=len(truth.boxes) - tp)


def default_bias_sweep(detections: Mapping[str, Sequence[Detection]]) -> list[float]:
    """Descending unique margins wrapped in +/- infinity sentinels."""
    margins = sorted({m for dets in detections.values()
                      for m in Detections.of(dets).margins.tolist()}, reverse=True)
    return [math.inf] + margins + [-math.inf]


def _sweep(detections: Mapping[str, Sequence[Detection]],
           truths: Sequence[GroundTruthFrame], bias_sweep: Sequence[float] | None,
           iou_threshold: float) -> tuple[list[tuple[float, int, int]], int, int]:
    """(bias, tp, fp) per sweep point, the truth-box count and the frame count.

    Frames are the union of annotated frames and frames with detections;
    without any frame the sweep is empty. A NaN margin raises ValueError.
    """
    check_iou_threshold("iou_threshold", iou_threshold)
    truth_by_id = {t.frame_id: t.boxes for t in truths}
    frame_ids = sorted(set(truth_by_id) | set(detections))
    if not frame_ids:
        return [], 0, 0
    ranked = []
    for fid in frame_ids:
        dets = Detections.of(detections.get(fid, ()))
        check_margins(dets, f"detections[{fid!r}]")
        order, claims = _greedy_claims(dets, truth_by_id.get(fid, ()), iou_threshold)
        ranked += zip((-m for m in dets.margins[order].tolist()), claims)
    # negated margins ascend; the detections kept at a bias form a prefix
    ranked.sort()
    neg_margins = [m for m, _ in ranked]
    cum_tp = list(itertools.accumulate((c for _, c in ranked), initial=0))
    if bias_sweep is None:
        bias_sweep = default_bias_sweep(detections)
    points = []
    for bias in bias_sweep:
        kept = bisect.bisect_left(neg_margins, -bias)
        points.append((bias, cum_tp[kept], kept - cum_tp[kept]))
    return points, sum(map(len, truth_by_id.values())), len(frame_ids)


def roc_curve(detections: Mapping[str, Sequence[Detection]],
              truths: Sequence[GroundTruthFrame],
              bias_sweep: Sequence[float] | None = None,
              iou_threshold: float = 0.5) -> list[RocPoint]:
    """True-positive rate against false positives per frame, by descending bias."""
    points, total_truth, n_frames = _sweep(detections, truths, bias_sweep, iou_threshold)
    return [RocPoint(bias=bias, fp_per_frame=fp / n_frames,
                     tpr=tp / total_truth if total_truth else 0.0)
            for bias, tp, fp in points]


def pr_curve(detections: Mapping[str, Sequence[Detection]],
             truths: Sequence[GroundTruthFrame],
             bias_sweep: Sequence[float] | None = None,
             iou_threshold: float = 0.5) -> list[PrPoint]:
    """Precision and recall by descending bias.

    Precision of an empty detection set is 1 by convention, which keeps
    the curve total.
    """
    points, total_truth, _ = _sweep(detections, truths, bias_sweep, iou_threshold)
    return [PrPoint(bias=bias, recall=tp / total_truth if total_truth else 0.0,
                    precision=tp / (tp + fp) if tp + fp else 1.0)
            for bias, tp, fp in points]


def auc(points: Sequence[RocPoint]) -> float:
    """Trapezoidal area under tpr with the fp axis normalized to [0, 1].

    Expects points sorted by fp_per_frame (a roc_curve result qualifies).
    A degenerate curve that never produces a false positive scores its
    best tpr.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 curve points")
    max_fp = points[-1].fp_per_frame
    if max_fp == 0.0:
        return max(p.tpr for p in points)
    area = 0.0
    for a, b in zip(points, points[1:]):
        area += (b.fp_per_frame - a.fp_per_frame) / max_fp * (a.tpr + b.tpr) / 2.0
    return area


def write_curves(roc: Sequence[RocPoint], pr: Sequence[PrPoint], roc_path, pr_path) -> None:
    """Write ``roc`` and ``pr`` as CSVs, one row per point, floats as their ``repr``."""
    with open(roc_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bias,fp_per_frame,tpr\n")
        for p in roc:
            fh.write(f"{p.bias!r},{p.fp_per_frame!r},{p.tpr!r}\n")
    with open(pr_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bias,recall,precision\n")
        for p in pr:
            fh.write(f"{p.bias!r},{p.recall!r},{p.precision!r}\n")
