"""Ground-truth matching and ROC / Precision-Recall curve generation.

Matching is greedy one-to-one (PASCAL VOC, Everingham et al., IJCV 2010):
detections claim truth boxes in ``nms``'s margin order, each taking the
unclaimed box of highest ``corner_iou`` (one detections x truth matrix
per frame) at or above the threshold. A bias sweep only ever removes a
suffix of the margin-sorted detection list, so the greedy claims are
computed once per frame, every frame's detections are ranked together by
margin, and each sweep point is one search into the cumulative claims.

Every entry point takes each frame's detections as one ``Detections``
record, whose arrays the claims and the sweep read; a frame with truth
boxes but no detections reads an empty record. A record holds no NaN
margin, and truth boxes are ``Rect`` values, held to
``imaging.rect_problem`` as a record's rows are, so no row or box is
checked here.
``write_curves`` writes both curves as CSV for ``eval`` and the desk script.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .detector import Detections, box_corners, check_iou_threshold, corner_iou, margin_order
from .imaging import Rect, rect_rows

# the record of a frame with truth boxes but no detections
_NO_DETECTIONS = Detections(np.empty((0, 4), dtype=np.int64), np.empty(0))


@dataclass(frozen=True)
class GroundTruthFrame:
    """One frame's truth boxes, held as a tuple."""

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


def _greedy_claims(dets: Detections, boxes: Sequence[Rect],
                   iou_threshold: float) -> tuple[np.ndarray, list[bool]]:
    """Margin order of the detections, and whether each in turn claims a box.

    Detections are processed in descending margin order (ties by input
    order); IoU ties between truth boxes go to the lower index.
    """
    order = margin_order(dets.margins)
    ious = corner_iou(box_corners(dets.boxes)[:, order, None],
                      box_corners(rect_rows(boxes))[:, None, :])
    claims, taken = [False] * len(order), []
    # a row with no IoU at the threshold can never claim; walk the others
    hits = np.flatnonzero(ious.max(axis=1, initial=0.0) >= iou_threshold)
    for i, row in zip(hits.tolist(), ious[hits].tolist()):
        for j in taken:
            row[j] = 0.0
        best = max(row)
        if best >= iou_threshold:
            claims[i] = True
            taken.append(row.index(best))
    return order, claims


def match_frame(dets: Detections, truth: GroundTruthFrame,
                iou_threshold: float = 0.5) -> MatchResult:
    """One-to-one greedy match of a frame's record against its truth."""
    check_iou_threshold("iou_threshold", iou_threshold)
    tp = sum(_greedy_claims(dets, truth.boxes, iou_threshold)[1])
    return MatchResult(tp=tp, fp=len(dets) - tp, fn=len(truth.boxes) - tp)


def _sweep(detections: Mapping[str, Detections],
           truths: Sequence[GroundTruthFrame], bias_sweep: Sequence[float] | None,
           iou_threshold: float) -> tuple[list[tuple[float, int, int]], int, int]:
    """(bias, tp, fp) per sweep point, the truth-box count and the frame count.

    Frames are the union of annotated frames and frames with detections;
    without any frame the sweep is empty. Without ``bias_sweep`` the sweep
    is every distinct margin, descending, between +inf and -inf. A NaN
    bias, or a frame id repeated in ``truths``, raises ValueError.
    """
    check_iou_threshold("iou_threshold", iou_threshold)
    if bias_sweep is not None:
        bias_sweep = list(bias_sweep)
        bad = np.flatnonzero(np.isnan(np.array(bias_sweep, dtype=np.float64)))
        if bad.size:
            raise ValueError(f"bias_sweep[{bad[0]}] is NaN")
    truth_by_id = {}
    for t in truths:
        if t.frame_id in truth_by_id:
            raise ValueError(f"truths repeat frame_id {t.frame_id!r}")
        truth_by_id[t.frame_id] = t.boxes
    frame_ids = sorted(set(truth_by_id) | set(detections))
    if not frame_ids:
        return [], 0, 0
    margins, claims = [], []
    for fid in frame_ids:
        dets = detections.get(fid, _NO_DETECTIONS)
        order, frame_claims = _greedy_claims(dets, truth_by_id.get(fid, ()), iou_threshold)
        margins.append(dets.margins[order])
        claims += frame_claims
    if bias_sweep is None:
        # in the caller's order, which decides the signed zero a tie keeps
        distinct = {m for dets in detections.values() for m in dets.margins.tolist()}
        bias_sweep = [math.inf] + sorted(distinct, reverse=True) + [-math.inf]
    # negated margins ascend; the detections kept at a bias form a prefix
    neg_margins = -np.concatenate(margins)
    rank = np.argsort(neg_margins, kind="stable")
    cum_tp = [0] + np.cumsum(np.array(claims, dtype=bool)[rank]).tolist()
    kept = np.searchsorted(neg_margins[rank], -np.array(bias_sweep, dtype=np.float64), "left")
    points = [(bias, cum_tp[k], k - cum_tp[k]) for bias, k in zip(bias_sweep, kept.tolist())]
    return points, sum(map(len, truth_by_id.values())), len(frame_ids)


def roc_curve(detections: Mapping[str, Detections],
              truths: Sequence[GroundTruthFrame],
              bias_sweep: Sequence[float] | None = None,
              iou_threshold: float = 0.5) -> list[RocPoint]:
    """True-positive rate against false positives per frame, by descending bias."""
    points, total_truth, n_frames = _sweep(detections, truths, bias_sweep, iou_threshold)
    return [RocPoint(bias=bias, fp_per_frame=fp / n_frames,
                     tpr=tp / total_truth if total_truth else 0.0)
            for bias, tp, fp in points]


def pr_curve(detections: Mapping[str, Detections],
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
