"""The four weak-feature families and the one evaluator that tests them.

All feature geometry lives in canonical-window coordinates (32 wide by
24 high). At evaluation time coordinates are scaled to the actual window
with floor rounding and extents clamped to >= 1, so every pyramid level
sees integer-only geometry.

``FeatureBatch.fired`` is the only implementation of each family's rule.
A ``FeatureBatch`` holds P features of one family as canonical arrays and
scores them on an ``imaging.WindowStack``, any set of same-size windows
that each carry their own pixels and integral tables: training crops
stacked along one axis, a pyramid level as a strided grid of views into a
frame's stack, or a single window sliced out of one. Area families read
the tables and point families the pixels of the same stack, all P at a
time. Geometry is scaled once per window size (``GEOMETRY_MEMO``) and
kept in the form the evaluator reads: each rect's corners and area, each
point's column and row.
``eval_features`` and its one-feature call ``eval_batch`` build a batch
per call; one window is scored as ``eval_batch(f, frame.window(win))``, so
every path performs the same IEEE operations in the same order. The
stacks, rectangle sums and window sigma come from ``imaging``;
``WindowStack`` is re-exported here.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, Union

import numpy as np

from .imaging import BoundsError, Rect, WindowStack, corner_sum, integers, rect_problem

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


def _rects_from_tuples(feature, *names: str) -> None:
    # a rect field may be given as its (x, y, w, h) tuple
    for name in names:
        r = getattr(feature, name)
        if type(r) is tuple:
            object.__setattr__(feature, name, Rect(*r))


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
        _check(self)
        _rects_from_tuples(self, "rect_a", "rect_b")


@dataclass(frozen=True)
class ControlPointsFeature:
    """Two point classes whose raw pixel values must separate by ``separation``."""

    pos_points: tuple[tuple[int, int], ...]
    neg_points: tuple[tuple[int, int], ...]
    separation: int

    def __post_init__(self):
        object.__setattr__(self, "pos_points", tuple(tuple(p) for p in self.pos_points))
        object.__setattr__(self, "neg_points", tuple(tuple(p) for p in self.neg_points))
        _check(self)


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
        _check(self)
        _rects_from_tuples(self, "left_a", "left_b", "mid_a", "mid_b")


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
        _check(self)

    @property
    def pos_points(self) -> tuple[tuple[int, int], ...]:
        return _chain_class(self.chain, True)

    @property
    def neg_points(self) -> tuple[tuple[int, int], ...]:
        return _chain_class(self.chain, False)


def _chain_class(chain: tuple[tuple[int, int, bool], ...],
                 positive: bool) -> tuple[tuple[int, int], ...]:
    # the points of a chain whose tag is ``positive``
    return tuple((x, y) for x, y, t in chain if bool(t) is positive)


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
    n = len(points)
    if not MIN_CHAIN_LEN <= n <= MAX_CHAIN_LEN or len(set(map(tuple, points))) != n:
        return False
    px, py = points[0]
    if not _pixel(px, py, width, height):
        return False
    # the points are distinct, so Chebyshev distance 1 from the previous
    # point is a step of at most 1 along each axis
    for x, y in points[1:]:
        if not (_pixel(x, y, width, height) and -1 <= x - px <= 1 and -1 <= y - py <= 1):
            return False
        px, py = x, y
    return True


def _pixel(x, y, width: int, height: int) -> bool:
    # integer coordinates inside the window; the evaluator reads points as
    # int64 indices, which would truncate a float
    return (type(x) is type(y) is int or integers(x, y)) and 0 <= x < width and 0 <= y < height


# ---------------------------------------------------------------------------
# validity: one rule per constructor field
# ---------------------------------------------------------------------------
# A rule returns what is wrong with its field's value, or None; a rect
# field's value may be a ``Rect`` or its (x, y, w, h) tuple. A genome is
# valid iff every field passes its own rule, and no rule reads another
# field. ``__post_init__`` raises the first problem found, and the
# learner checks only the field a move changes, and builds no object.

Rule = Callable[[Any], Union[str, None]]


def _rect_within(limit_w: int, zone: str, centered: bool = False) -> Rule:
    def problem(r) -> str | None:
        if type(r) is tuple:
            x, y, w, h = r
            no_rect = rect_problem(x, y, w, h)
            if no_rect is not None:
                return f"{no_rect}, got {r}"
        else:  # a Rect, which checked itself
            x, y, w, h = r.x, r.y, r.w, r.h
        if x + w > limit_w or y + h > CANONICAL_H:
            return f"{Rect(x, y, w, h)} exceeds the {zone} {CANONICAL_W}x{CANONICAL_H} window"
        # horizontal center within 1px of the axis: |x + w/2 - W/2| <= 1
        if centered and not CANONICAL_W - 2 <= 2 * x + w <= CANONICAL_W + 2:
            return f"middle rect {Rect(x, y, w, h)} not centered on the window axis"
        return None
    return problem


_canonical_rect = _rect_within(CANONICAL_W, "canonical")
_left_rect = _rect_within(CANONICAL_W // 2, "left half of the canonical")
_mid_rect = _rect_within(CANONICAL_W, "canonical", centered=True)


def _threshold(name: str) -> Rule:
    def problem(value: float) -> str | None:
        # NaN fails every comparison, so a plain `< 0` test would let it through
        if not (math.isfinite(value) and value >= 0):
            return f"{name} must be finite and >= 0, got {value}"
        return None
    return problem


def _point_class(name: str) -> Rule:
    def problem(points: tuple[tuple[int, int], ...]) -> str | None:
        if not 1 <= len(points) <= MAX_CLASS_POINTS:
            return f"{name} class must hold 1..{MAX_CLASS_POINTS} points"
        if len(set(points)) != len(points):
            return f"duplicate point in {name} class"
        for x, y in points:
            if not _pixel(x, y, CANONICAL_W, CANONICAL_H):
                return f"point ({x}, {y}) is not a pixel of the canonical window"
        return None
    return problem


def _chain(chain: tuple[tuple[int, int, bool], ...]) -> str | None:
    pts = [(x, y) for x, y, _ in chain]
    if not validate_chain(pts):
        return f"invalid 8-connected chain: {pts}"
    tags = [t for _, _, t in chain]
    if not (any(tags) and not all(tags)):
        return "chain needs at least one pos and one neg point"
    return None


def _separation(value: int) -> str | None:
    if not 1 <= value <= 255:
        return f"separation must be in 1..255, got {value}"
    return None


# each family's rules, in constructor order
FIELD_RULES: dict[type, tuple[Rule, ...]] = {
    HaarFeature: (_canonical_rect, _canonical_rect, _threshold("threshold")),
    ControlPointsFeature: (_point_class("pos"), _point_class("neg"), _separation),
    SymmetricHaarFeature: (_left_rect, _left_rect, _mid_rect, _mid_rect,
                           *map(_threshold, ("t_left", "t_right", "t_mid", "sym_tol",
                                             "mid_margin"))),
    ChainFeature: (_chain, _separation),
}

_FIELD_VALUES = {family: operator.attrgetter(*(f.name for f in dataclasses.fields(family)))
                 for family in FIELD_RULES}


def field_values(feature: Feature) -> tuple:
    """The fields of ``feature``, in constructor order."""
    return _FIELD_VALUES[type(feature)](feature)


def _check(feature: Feature) -> None:
    for rule, value in zip(FIELD_RULES[type(feature)], field_values(feature)):
        problem = rule(value)
        if problem is not None:
            raise ValueError(problem)


# ---------------------------------------------------------------------------
# geometry scaling: canonical coordinates -> a concrete window
# ---------------------------------------------------------------------------

def _local_rects(coords: np.ndarray, win_w: int, win_h: int) -> tuple[np.ndarray, ...]:
    # (n, 4) canonical rows -> corner arrays x0, y0, x1, y1 and float64
    # areas: offsets scale with floor rounding, extents clamp to >= 1
    x, y, w, h = coords.T
    x0, y0 = x * win_w // CANONICAL_W, y * win_h // CANONICAL_H
    w = np.maximum(w * win_w // CANONICAL_W, 1)
    h = np.maximum(h * win_h // CANONICAL_H, 1)
    x1, y1 = x0 + w, y0 + h
    leaks = (x1 > win_w) | (y1 > win_h)
    if leaks.any():
        raise BoundsError(f"{Rect(*coords[leaks.argmax()].tolist())} scaled to "
                          f"{win_w}x{win_h} window leaks out of bounds")
    return x0, y0, x1, y1, (w * h).astype(np.float64)


def _local_points(points: np.ndarray, win_w: int,
                  win_h: int) -> tuple[np.ndarray, np.ndarray]:
    # (columns, rows) of an (..., 2) array of points, floor-scaled
    return (points[..., 0] * win_w // CANONICAL_W,
            points[..., 1] * win_h // CANONICAL_H)


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------

GEOMETRY_MEMO = 32  # window sizes a FeatureBatch keeps geometry for, oldest out first


def _rect_pair(genomes: Sequence[tuple], a: int, b: int) -> np.ndarray:
    # (2P, 4) int64 rows (x, y, w, h): rect field a of every genome, then
    # rect field b; a field is a Rect or its (x, y, w, h) tuple
    rects = [g[a] for g in genomes] + [g[b] for g in genomes]
    coords = itertools.chain.from_iterable(
        r if type(r) is tuple else (r.x, r.y, r.w, r.h) for r in rects)
    return np.fromiter(coords, np.int64, count=4 * len(rects)).reshape(-1, 4)


def _padded(classes: list[tuple[tuple[int, int], ...]]) -> np.ndarray:
    # (P, k, 2) int64: repeating a class's first point changes neither
    # extreme, so classes padded to the longest are read in one gather
    longest = max(map(len, classes))
    padded = itertools.chain.from_iterable(
        points + (points[0],) * (longest - len(points)) for points in classes)
    return np.fromiter(itertools.chain.from_iterable(padded), np.int64,
                       count=2 * longest * len(classes)).reshape(len(classes), longest, 2)


def _normed_diffs(stack: WindowStack, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray,
                  y1: np.ndarray, area: np.ndarray) -> np.ndarray:
    # |mean(a[k]) - mean(b[k])| / sigma, (*lead, P), from 2P rects a then
    # b; sums and areas are integers exact in float64, so dividing by the
    # float64 areas gives the quotients of the integers
    mean, p = corner_sum(stack.sums, x0, y0, x1, y1) / area, len(area) // 2
    diff = mean[..., :p] - mean[..., p:]
    del mean
    np.abs(diff, out=diff)
    diff /= stack.sigma[..., None]
    return diff


def _point_extremes(stack: WindowStack, cols: np.ndarray, rows: np.ndarray) -> tuple:
    # min and max pixel of each of P point classes, both (*lead, P)
    values = stack.pixels[..., rows, cols]
    return values.min(axis=-1), values.max(axis=-1)


class FeatureBatch:
    """P features of one family as canonical arrays: int64 ``(2P, 4)`` per
    rect pair, int64 padded ``(P, k, 2)`` per point class, float64 ``(P,)``
    per threshold, int16 separations, each filled in one pass over the
    features' constructor fields. ``FeatureBatch(features)`` reads the
    fields of built features; ``from_fields`` takes the fields themselves,
    as the learner holds its genomes, so no ``Feature`` is built. Geometry
    scaled to a window size is kept, read-only, for the last
    ``GEOMETRY_MEMO`` sizes, but not a size it leaks out of (BoundsError).
    """

    def __init__(self, features: Sequence[Feature]):
        families = {type(f) for f in features}
        if len(families) != 1:
            names = ", ".join(sorted(t.__name__ for t in families))
            raise ValueError(f"expected features of one family, got [{names}]")
        family = families.pop()
        if family not in FIELD_RULES:
            raise TypeError(f"not a feature: {features[0]!r}")
        self._fill(family, [field_values(f) for f in features])

    @classmethod
    def from_fields(cls, family: type, genomes: Sequence[tuple]) -> "FeatureBatch":
        """A batch of P ``family`` features, each given as its constructor
        fields (``field_values``) that passed their ``FIELD_RULES``, so no
        ``Feature`` is built; a rect field may be a Rect or an (x, y, w, h) tuple.
        """
        batch = cls.__new__(cls)
        batch._fill(family, genomes)
        return batch

    def _fill(self, family: type, genomes: Sequence[tuple]) -> None:
        # each array is filled in one pass over the fields
        if family is HaarFeature:
            groups, limits = (_rect_pair(genomes, 0, 1),), (2,)
        elif family is SymmetricHaarFeature:
            left = _rect_pair(genomes, 0, 1)
            x, y, w, h = left.T  # mirror_rect on every row
            groups = (left, np.stack([CANONICAL_W - x - w, y, w, h], axis=1),
                      _rect_pair(genomes, 2, 3))
            limits = (4, 5, 6, 7, 8)
        elif family is ControlPointsFeature:
            groups = (_padded([g[0] for g in genomes]), _padded([g[1] for g in genomes]))
            limits = (2,)
        else:  # ChainFeature
            groups = tuple(_padded([_chain_class(g[0], positive) for g in genomes])
                           for positive in (True, False))
            limits = (1,)
        # a point family's one limit is its int16 separation, the rest are thresholds
        dtype = np.int16 if family in (ControlPointsFeature, ChainFeature) else np.float64
        self.family = family
        self._groups = groups
        self._limits = tuple(np.fromiter((g[i] for g in genomes), dtype, count=len(genomes))
                             for i in limits)
        self._scaled: dict[tuple[int, int], tuple] = {}

    def responses(self, stack: WindowStack) -> Iterable:
        """Per rect pair |mean(a) - mean(b)| / sigma, per point class (min,
        max) pixel, each ``(*lead, P)`` and gathered only when drawn."""
        point = self.family in (ControlPointsFeature, ChainFeature)
        key = (stack.w, stack.h)
        if key not in self._scaled:
            scale = _local_points if point else _local_rects
            scaled = tuple(scale(group, *key) for group in self._groups)
            for a in itertools.chain.from_iterable(scaled):
                a.setflags(write=False)
            if len(self._scaled) >= GEOMETRY_MEMO:
                del self._scaled[next(iter(self._scaled))]
            self._scaled[key] = scaled
        read = _point_extremes if point else _normed_diffs
        return (read(stack, *geometry) for geometry in self._scaled[key])

    def fired(self, stack: WindowStack) -> np.ndarray:
        """Booleans shaped ``(P, *lead)``: row k says where feature k fires."""
        if self.family is HaarFeature:
            fired = next(self.responses(stack)) > self._limits[0]
        elif self.family is SymmetricHaarFeature:
            responses = self.responses(stack)
            t_left, t_right, t_mid, sym_tol, mid_margin = self._limits
            d_left, d_right = next(responses), next(responses)
            fired = (d_left > t_left) & (d_right > t_right)
            # the drift |d_left - d_right| takes d_left's buffer, and d_right
            # is freed before the middle pair is gathered
            drift = np.subtract(d_left, d_right, out=d_left)
            del d_left, d_right
            np.abs(drift, out=drift)
            fired &= drift < sym_tol
            d_mid = next(responses)
            fired &= d_mid > t_mid
            d_mid -= drift
            fired &= d_mid > mid_margin
        else:
            (min_pos, max_pos), (min_neg, max_neg) = self.responses(stack)
            (separation,) = self._limits  # int16: uint8 + separation cannot wrap
            fired = (min_pos > max_neg + separation) | (min_neg > max_pos + separation)
        return np.moveaxis(fired, -1, 0)


def eval_features(features: Sequence[Feature], stack: WindowStack) -> np.ndarray:
    """``FeatureBatch(features).fired(stack)``, built for this one call: row
    k is bit-equal to ``eval_batch(features[k], stack)``, for far less cost.
    """
    return FeatureBatch(features).fired(stack)


def eval_batch(feature: Feature, stack: WindowStack) -> np.ndarray:
    """Evaluate ``feature`` on every window of ``stack``.

    The one-feature call of ``eval_features``: returns booleans shaped
    like the stack's leading axes.
    """
    return eval_features([feature], stack)[0]

