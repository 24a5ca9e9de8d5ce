"""Independent reference implementations used as test oracles.

Everything here works straight off pixel arrays with plain Python loops
and never touches integral tables, so agreement with the library is
meaningful. Sums are exact integers, which makes the float arithmetic
bit-identical where the same formula is prescribed.
"""

from __future__ import annotations

import math

from boostdet.features import CANONICAL_H, CANONICAL_W, ChainFeature, Points
from boostdet.imaging import GrayImage, Rect, SIGMA_MIN


def scale_point(x: int, y: int, win: Rect) -> tuple[int, int]:
    """A canonical point in ``win`` (frame coordinates), offsets floor-scaled."""
    return win.x + x * win.w // CANONICAL_W, win.y + y * win.h // CANONICAL_H


def scale_rect(r: Rect, win: Rect) -> Rect:
    """A canonical rect in ``win``: offsets floor-scaled, extents floor-scaled
    and clamped to >= 1."""
    x, y = scale_point(r.x, r.y, win)
    return Rect(x, y, max(1, r.w * win.w // CANONICAL_W), max(1, r.h * win.h // CANONICAL_H))


def brute_rect_sum(img: GrayImage, r: Rect) -> int:
    total = 0
    for y in range(r.y, r.y + r.h):
        for x in range(r.x, r.x + r.w):
            total += int(img.pixels[y, x])
    return total


def brute_rect_sq_sum(img: GrayImage, r: Rect) -> int:
    total = 0
    for y in range(r.y, r.y + r.h):
        for x in range(r.x, r.x + r.w):
            total += int(img.pixels[y, x]) ** 2
    return total


def brute_std(img: GrayImage, win: Rect) -> float:
    """Clamped population std via the same E[p^2]-E[p]^2 formula."""
    area = win.w * win.h
    mean = brute_rect_sum(img, win) / area
    var = brute_rect_sq_sum(img, win) / area - mean * mean
    return max(SIGMA_MIN, math.sqrt(max(0.0, var)))


def two_pass_std(img: GrayImage, win: Rect) -> float:
    """Unclamped population std via explicit deviations (different route)."""
    area = win.w * win.h
    mean = brute_rect_sum(img, win) / area
    acc = 0.0
    for y in range(win.y, win.y + win.h):
        for x in range(win.x, win.x + win.w):
            d = int(img.pixels[y, x]) - mean
            acc += d * d
    return math.sqrt(acc / area)


def haar_rule(img: GrayImage, win: Rect, rect_a: Rect, rect_b: Rect,
              threshold: float) -> bool:
    """Normalized mean-difference rule, canonical-scale geometry."""
    abs_a = Rect(win.x + rect_a.x, win.y + rect_a.y, rect_a.w, rect_a.h)
    abs_b = Rect(win.x + rect_b.x, win.y + rect_b.y, rect_b.w, rect_b.h)
    ma = brute_rect_sum(img, abs_a) / abs_a.area
    mb = brute_rect_sum(img, abs_b) / abs_b.area
    return abs(ma - mb) / brute_std(img, win) > threshold


def points_rule(window: GrayImage, pos_points, neg_points, separation: int) -> bool:
    pos = [int(window.pixels[y, x]) for x, y in pos_points]
    neg = [int(window.pixels[y, x]) for x, y in neg_points]
    return (min(pos) - max(neg) > separation) or (min(neg) - max(pos) > separation)


def point_classes(feature) -> tuple[Points, Points]:
    """The pos and the neg points of a control-points feature, or of a chain
    feature as its own tags sort them."""
    if isinstance(feature, ChainFeature):
        return (tuple((x, y) for x, y, is_pos in feature.chain if is_pos),
                tuple((x, y) for x, y, is_pos in feature.chain if not is_pos))
    return feature.pos_points, feature.neg_points


def mirror_rect(r: Rect, window_w: int) -> Rect:
    """Reflect ``r`` across the vertical axis of a ``window_w`` wide window."""
    return Rect(x=window_w - r.x - r.w, y=r.y, w=r.w, h=r.h)


def symmetric_rule(img: GrayImage, win: Rect, f, condition5_literal: bool = False) -> bool:
    """The five conditions spelled out one by one, canonical scale."""
    sigma = brute_std(img, win)

    def normed_diff(a: Rect, b: Rect) -> float:
        abs_a = Rect(win.x + a.x, win.y + a.y, a.w, a.h)
        abs_b = Rect(win.x + b.x, win.y + b.y, b.w, b.h)
        return abs(brute_rect_sum(img, abs_a) / abs_a.area
                   - brute_rect_sum(img, abs_b) / abs_b.area) / sigma

    d1 = normed_diff(f.left_a, f.left_b)
    d2 = normed_diff(mirror_rect(f.left_a, CANONICAL_W), mirror_rect(f.left_b, CANONICAL_W))
    d3 = normed_diff(f.mid_a, f.mid_b)
    if not d1 > f.t_left:
        return False
    if not d2 > f.t_right:
        return False
    if not d3 > f.t_mid:
        return False
    if not abs(d1 - d2) < f.sym_tol:
        return False
    if condition5_literal:
        return abs(d1 - d2) - d3 > f.mid_margin
    return d3 - abs(d1 - d2) > f.mid_margin


def resample_index(i: int, src_extent: int, target_extent: int) -> int:
    return math.floor((i + 0.5) * src_extent / target_extent)


def iou(a: Rect, b: Rect) -> float:
    """Intersection-over-union of two rectangles: one division of Python ints."""
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def greedy_match(detections, boxes, iou_threshold: float) -> list[bool]:
    """Whether each ``Detection`` claims a truth box, in greedy matching.

    Detections are taken by descending margin, ties in input order; each
    claims the unclaimed box of highest IoU, the lowest index on a tie, if
    that IoU is at least ``iou_threshold``. The IoU is ``iou``, one
    division of Python ints. Claims come back in input order.
    """
    claims = [False] * len(detections)
    taken = set()
    for i in sorted(range(len(detections)), key=lambda i: (-detections[i].margin, i)):
        best_j, best = None, 0.0
        for j, truth in enumerate(boxes):
            v = iou(detections[i].box, truth)
            if j not in taken and v > best:
                best_j, best = j, v
        if best_j is not None and best >= iou_threshold:
            taken.add(best_j)
            claims[i] = True
    return claims
