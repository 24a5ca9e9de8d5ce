"""The four weak-feature families and the one evaluator that tests them.

All feature geometry lives in canonical-window coordinates (32 wide by
24 high). At evaluation time coordinates are scaled to the actual window
with floor rounding and extents clamped to >= 1, so every pyramid level
sees integer-only geometry.

``eval_batch`` is the only implementation of each family's rule. It runs
over a ``WindowStack``, any set of same-size windows that each carry a
view of their own integral tables: training crops stacked along one
axis, a pyramid level as a strided grid of views over the frame's
tables, or a single window sliced out of a frame. The scalar entry
points (``eval_haar``, ``eval_feature`` etc.) are one-window calls into
it, so every path performs the same IEEE operations in the same order.
The tables, rectangle sums and window sigma come from ``imaging``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imaging import (
    BoundsError,
    GrayImage,
    IntegralImage,
    Rect,
    corner_sum,
    mean_and_sigma,
    summed_area_tables,
)

CANONICAL_W = 32
CANONICAL_H = 24

MIN_CHAIN_LEN = 2
MAX_CHAIN_LEN = 12
MAX_CLASS_POINTS = 6


class FeatureKind(enum.Enum):
    HAAR = "haar"
    CONTROL_POINTS = "cp"
    SYMMETRIC_HAAR = "symhaar"
    CHAIN = "nconnex"


def _check_canonical_rect(r: Rect, half_width: bool = False) -> None:
    limit_w = CANONICAL_W // 2 if half_width else CANONICAL_W
    if not r.fits_in(limit_w, CANONICAL_H):
        zone = "left half of the canonical" if half_width else "canonical"
        raise ValueError(f"{r} exceeds the {zone} {CANONICAL_W}x{CANONICAL_H} window")


def _check_threshold(name: str, value: float) -> None:
    # NaN fails every comparison, so a plain `< 0` test would let it through
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_canonical_point(x: int, y: int) -> None:
    if not (0 <= x < CANONICAL_W and 0 <= y < CANONICAL_H):
        raise ValueError(f"point ({x}, {y}) outside canonical window")


@dataclass(frozen=True)
class HaarFeature:
    """Two rectangles compared by normalized mean difference.

    True iff |mean(rect_a) - mean(rect_b)| / sigma > threshold, where
    sigma is the clamped std dev of the whole window.
    """

    rect_a: Rect
    rect_b: Rect
    threshold: float

    def __post_init__(self):
        _check_canonical_rect(self.rect_a)
        _check_canonical_rect(self.rect_b)
        _check_threshold("threshold", self.threshold)


@dataclass(frozen=True)
class ControlPointsFeature:
    """Two point classes whose raw pixel values must separate by ``separation``."""

    pos_points: tuple[tuple[int, int], ...]
    neg_points: tuple[tuple[int, int], ...]
    separation: int

    def __post_init__(self):
        object.__setattr__(self, "pos_points", tuple(tuple(p) for p in self.pos_points))
        object.__setattr__(self, "neg_points", tuple(tuple(p) for p in self.neg_points))
        for cls_name, pts in (("pos", self.pos_points), ("neg", self.neg_points)):
            if not 1 <= len(pts) <= MAX_CLASS_POINTS:
                raise ValueError(f"{cls_name} class must hold 1..{MAX_CLASS_POINTS} points")
            if len(set(pts)) != len(pts):
                raise ValueError(f"duplicate point in {cls_name} class")
            for x, y in pts:
                _check_canonical_point(x, y)
        if not 1 <= self.separation <= 255:
            raise ValueError(f"separation must be in 1..255, got {self.separation}")


@dataclass(frozen=True)
class SymmetricHaarFeature:
    """Three paired-rectangle tests: left, its horizontal mirror, and middle.

    The left sub-feature is confined to the left half of the window; the
    right one is derived by mirroring. The middle rects must be centered
    within one pixel of the vertical axis. ``sym_tol`` bounds how far the
    left/right responses may drift apart, ``mid_margin`` is the dominance
    the middle response must show over that drift.
    """

    left_a: Rect
    left_b: Rect
    mid_a: Rect
    mid_b: Rect
    t_left: float
    t_right: float
    t_mid: float
    sym_tol: float
    mid_margin: float

    def __post_init__(self):
        _check_canonical_rect(self.left_a, half_width=True)
        _check_canonical_rect(self.left_b, half_width=True)
        for r in (self.mid_a, self.mid_b):
            _check_canonical_rect(r)
            # horizontal center within 1px of the axis: |x + w/2 - W/2| <= 1
            if not (CANONICAL_W - 2 <= 2 * r.x + r.w <= CANONICAL_W + 2):
                raise ValueError(f"middle rect {r} not centered on the window axis")
        for name in ("t_left", "t_right", "t_mid", "sym_tol", "mid_margin"):
            _check_threshold(name, getattr(self, name))


@dataclass(frozen=True)
class ChainFeature:
    """Control-points variant whose points form an 8-connected chain.

    ``chain`` is an ordered tuple of (x, y, is_pos) entries; consecutive
    points sit at Chebyshev distance exactly 1 and both classes are
    non-empty.
    """

    chain: tuple[tuple[int, int, bool], ...]
    separation: int

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple((x, y, bool(t)) for x, y, t in self.chain))
        pts = [(x, y) for x, y, _ in self.chain]
        if not validate_chain(pts):
            raise ValueError(f"invalid 8-connected chain: {pts}")
        tags = [t for _, _, t in self.chain]
        if not (any(tags) and not all(tags)):
            raise ValueError("chain needs at least one pos and one neg point")
        if not 1 <= self.separation <= 255:
            raise ValueError(f"separation must be in 1..255, got {self.separation}")

    @property
    def pos_points(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, y) for x, y, t in self.chain if t)

    @property
    def neg_points(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, y) for x, y, t in self.chain if not t)


Feature = Union[HaarFeature, ControlPointsFeature, SymmetricHaarFeature, ChainFeature]

_KIND_BY_TYPE = {
    HaarFeature: FeatureKind.HAAR,
    ControlPointsFeature: FeatureKind.CONTROL_POINTS,
    SymmetricHaarFeature: FeatureKind.SYMMETRIC_HAAR,
    ChainFeature: FeatureKind.CHAIN,
}


def kind_of(feature: Feature) -> FeatureKind:
    return _KIND_BY_TYPE[type(feature)]


def mirror_rect(r: Rect, window_w: int) -> Rect:
    """Reflect ``r`` across the vertical axis of a ``window_w`` wide window."""
    return Rect(x=window_w - r.x - r.w, y=r.y, w=r.w, h=r.h)


def validate_chain(points: Sequence[tuple[int, int]],
                   width: int = CANONICAL_W, height: int = CANONICAL_H) -> bool:
    """True iff ``points`` is a valid ordered 8-connected chain.

    Valid means 2..12 points, all distinct, all inside ``width`` x
    ``height``, and every consecutive pair at Chebyshev distance 1.
    """
    pts = [tuple(p) for p in points]
    if not MIN_CHAIN_LEN <= len(pts) <= MAX_CHAIN_LEN:
        return False
    if len(set(pts)) != len(pts):
        return False
    for x, y in pts:
        if not (0 <= x < width and 0 <= y < height):
            return False
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if max(abs(x1 - x0), abs(y1 - y0)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# geometry scaling: canonical coordinates -> a concrete window
# ---------------------------------------------------------------------------

def _local_rect(r: Rect, win_w: int, win_h: int) -> tuple[int, int, int, int]:
    # offsets scale with floor rounding, extents clamp to >= 1 (`or 1`
    # maps the only value below 1, zero, and is cheaper than max())
    x = (r.x * win_w) // CANONICAL_W
    y = (r.y * win_h) // CANONICAL_H
    w = (r.w * win_w) // CANONICAL_W or 1
    h = (r.h * win_h) // CANONICAL_H or 1
    if x + w > win_w or y + h > win_h:
        raise BoundsError(f"{r} scaled to {win_w}x{win_h} window leaks out of bounds")
    return x, y, w, h


def _local_points(points, win_w: int, win_h: int) -> tuple[list[int], list[int]]:
    # (columns, rows), offsets scale with floor rounding
    return ([(x * win_w) // CANONICAL_W for x, _ in points],
            [(y * win_h) // CANONICAL_H for _, y in points])


def scale_rect_to_window(r: Rect, win: Rect) -> Rect:
    """Map a canonical-coordinates rect into ``win`` (frame coordinates).

    Offsets scale with floor rounding, extents clamp to >= 1. Raises
    BoundsError if the result leaks out of the window, which can only
    happen when the window is smaller than the canonical one.
    """
    x, y, w, h = _local_rect(r, win.w, win.h)
    return Rect(x=win.x + x, y=win.y + y, w=w, h=h)


def scale_point_to_window(x: int, y: int, win: Rect) -> tuple[int, int]:
    """Map a canonical-coordinates point into ``win`` (frame coordinates)."""
    (px,), (py,) = _local_points([(x, y)], win.w, win.h)
    return win.x + px, win.y + py


# ---------------------------------------------------------------------------
# window sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowStack:
    """Same-size windows, each with views of its own integral tables.

    ``sums`` and ``squared_sums`` are int64 and shaped ``(..., h+1, w+1)``,
    ``pixels`` is int16 (safe for subtraction) and shaped ``(..., h, w)``.
    The leading axes index the windows: one axis for stacked crops, (row,
    column) for a pyramid level, none for a single window. ``sigma`` is
    the clamped whole-window std dev every feature normalizes by, shaped
    like the leading axes and derived once, on construction.
    """

    pixels: np.ndarray
    sums: np.ndarray
    squared_sums: np.ndarray
    sigma: np.ndarray = field(init=False)
    w: int = field(init=False)
    h: int = field(init=False)

    def __post_init__(self):
        lead, (h, w) = self.pixels.shape[:-2], self.pixels.shape[-2:]
        if (self.sums.shape != lead + (h + 1, w + 1)
                or self.squared_sums.shape != self.sums.shape):
            raise ValueError(f"window stack shapes disagree: pixels {self.pixels.shape}, "
                             f"tables {self.sums.shape} and {self.squared_sums.shape}")
        _, sigma = mean_and_sigma(self.sums, self.squared_sums, 0, 0, w, h)
        for arr in (self.pixels, self.sums, self.squared_sums, sigma):
            arr.setflags(write=False)
        for name, value in (("sigma", sigma), ("w", w), ("h", h)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        """The number of windows."""
        return np.size(self.sigma)

    @classmethod
    def from_images(cls, windows: Sequence[GrayImage]) -> "WindowStack":
        """Canonical crops stacked along one axis."""
        for w in windows:
            _require_canonical(w)
        px = np.stack([w.pixels for w in windows]).astype(np.int16)
        return cls(px, *summed_area_tables(px))

    @classmethod
    def from_level(cls, ii: IntegralImage, pixels: np.ndarray,
                   win_w: int, win_h: int, stride: int) -> "WindowStack":
        """Every ``win_w`` x ``win_h`` window of a frame on a ``stride`` grid.

        ``pixels`` is the frame as int16. Window (row, column) has its
        origin at (column * stride, row * stride); nothing is copied.
        """
        def grid(table: np.ndarray, h: int, w: int) -> np.ndarray:
            return sliding_window_view(table, (h, w))[::stride, ::stride]

        return cls(grid(pixels, win_h, win_w), grid(ii.sums, win_h + 1, win_w + 1),
                   grid(ii.squared_sums, win_h + 1, win_w + 1))

    @classmethod
    def from_window(cls, ii: IntegralImage, win: Rect,
                    raw: GrayImage | None = None) -> "WindowStack":
        """The single window ``win`` of a frame, with no leading axis.

        Pixels come from ``raw`` when given, else from the integral tables.
        """
        if not win.fits_in(ii.width, ii.height):
            raise BoundsError(f"{win} exceeds {ii.width}x{ii.height} image")
        rows = slice(win.y, win.y + win.h + 1)
        cols = slice(win.x, win.x + win.w + 1)
        sums = ii.sums[rows, cols]
        if raw is None:
            pixels = np.diff(np.diff(sums, axis=0), axis=1)
        else:
            pixels = raw.pixels[win.y:win.y + win.h, win.x:win.x + win.w]
        return cls(pixels.astype(np.int16), sums, ii.squared_sums[rows, cols])


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------

def _mean(stack: WindowStack, r: Rect) -> np.ndarray:
    x, y, w, h = _local_rect(r, stack.w, stack.h)
    return corner_sum(stack.sums, x, y, w, h) / (w * h)


def _normed_diff(stack: WindowStack, a: Rect, b: Rect) -> np.ndarray:
    return np.abs(_mean(stack, a) - _mean(stack, b)) / stack.sigma


def _symmetric_responses(f: SymmetricHaarFeature,
                         stack: WindowStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (_normed_diff(stack, f.left_a, f.left_b),
            _normed_diff(stack, mirror_rect(f.left_a, CANONICAL_W),
                         mirror_rect(f.left_b, CANONICAL_W)),
            _normed_diff(stack, f.mid_a, f.mid_b))


def _point_values(stack: WindowStack, points) -> np.ndarray:
    cols, rows = _local_points(points, stack.w, stack.h)
    return stack.pixels[..., np.array(rows), np.array(cols)]


def eval_batch(feature: Feature, stack: WindowStack) -> np.ndarray:
    """Evaluate ``feature`` on every window of ``stack``.

    The one implementation of each family's rule: returns booleans shaped
    like the stack's leading axes. Geometry is floor-scaled from the
    canonical window to the stack's window size.
    """
    if isinstance(feature, HaarFeature):
        return _normed_diff(stack, feature.rect_a, feature.rect_b) > feature.threshold
    if isinstance(feature, SymmetricHaarFeature):
        f = feature
        d_left, d_right, d_mid = _symmetric_responses(f, stack)
        ok = (d_left > f.t_left) & (d_right > f.t_right) & (d_mid > f.t_mid)
        drift = np.abs(d_left - d_right)
        return ok & (drift < f.sym_tol) & (d_mid - drift > f.mid_margin)
    if isinstance(feature, (ControlPointsFeature, ChainFeature)):
        pos = _point_values(stack, feature.pos_points)
        neg = _point_values(stack, feature.neg_points)
        min_pos, max_pos = pos.min(axis=-1), pos.max(axis=-1)
        min_neg, max_neg = neg.min(axis=-1), neg.max(axis=-1)
        return ((min_pos - max_neg > feature.separation)
                | (min_neg - max_pos > feature.separation))
    raise TypeError(f"not a feature: {feature!r}")


# ---------------------------------------------------------------------------
# one-window entry points
# ---------------------------------------------------------------------------

def _require_canonical(window: GrayImage) -> None:
    if window.width != CANONICAL_W or window.height != CANONICAL_H:
        raise ValueError(
            f"expected canonical {CANONICAL_W}x{CANONICAL_H} window, "
            f"got {window.width}x{window.height}"
        )


def eval_haar(f: HaarFeature, ii: IntegralImage, win: Rect) -> bool:
    """Normalized mean-difference rule, strict comparison."""
    return bool(eval_batch(f, WindowStack.from_window(ii, win)))


def eval_control_points(f: ControlPointsFeature, window: GrayImage) -> bool:
    """True iff one point class sits more than ``separation`` above the other.

    Reads raw pixel values of a canonical window, no normalization.
    """
    return bool(eval_batch(f, WindowStack.from_images([window]))[0])


def eval_chain(f: ChainFeature, window: GrayImage) -> bool:
    """Control-points rule applied to the chain's pos/neg tagged points."""
    return bool(eval_batch(f, WindowStack.from_images([window]))[0])


def symmetric_diffs(f: SymmetricHaarFeature, ii: IntegralImage,
                    win: Rect) -> tuple[float, float, float]:
    """Normalized responses of the left, mirrored-right and middle pairs."""
    stack = WindowStack.from_window(ii, win)
    return tuple(float(d) for d in _symmetric_responses(f, stack))


def eval_symmetric_haar(f: SymmetricHaarFeature, ii: IntegralImage, win: Rect) -> bool:
    """All five conditions of the symmetric three-pair test.

    The left, right and middle responses must each clear their threshold,
    left and right must agree within ``sym_tol``, and the middle response
    must exceed the left/right drift by more than ``mid_margin``.
    """
    return bool(eval_batch(f, WindowStack.from_window(ii, win)))


def eval_feature(feature: Feature, ii: IntegralImage, raw: GrayImage, win: Rect) -> bool:
    """Family dispatch over one window of a frame.

    Area-based families read the integral image; point-based families
    read ``raw`` pixels at scaled point positions.
    """
    return bool(eval_batch(feature, WindowStack.from_window(ii, win, raw)))
