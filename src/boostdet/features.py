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
point's row and column. Every gather reads the stack's ``imaging`` grids
at each cell's index, one fancy index per corner or point class; on a
phase level, which ``detector.scan`` votes through phase copies of the
frame, that index is split by the level's stride, so such geometry is kept
per window size and stride.
A batch is built one way, ``FeatureBatch(family, genomes)``, from each
feature's constructor fields: the learner's genomes, a model's stages
through ``field_values``, or one feature. ``eval_batch(f, stack)`` is the
one-feature call, a batch of one built for that call; one window is
scored as ``eval_batch(f, frame.window(win))``, so every path performs
the same IEEE operations in the same order. The stacks, rectangle sums
and window sigma come from ``imaging``.

Each feature class names its own family as ``kind``, and
``FEATURE_TYPES`` is the one table from a ``FeatureKind`` to its class.
Each field is declared once, as ``name: Slot = _field(key, rule)``; the
slot is ``Rect``, ``float``, ``int``, ``Points`` or ``Chain``. ``FIELDS``
holds them; ``FIELD_RULES``, ``field_values``, ``__post_init__``, the
batch's scalar arrays and ``modelio.LAYOUT`` are read from it.
A rect field holds a ``Rect`` or the ``(x, y, w, h)`` tuple a mutation
leaves; both unpack as ``x, y, w, h``, so every reader takes either.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import (Any, Callable, ClassVar, Iterable, NamedTuple, Sequence, Union, get_args,
                    get_type_hints)

import numpy as np

from .imaging import BoundsError, Rect, WindowStack, integers, rect_problem, rect_rows

CANONICAL_W = 32
CANONICAL_H = 24

MIN_CHAIN_LEN = 2
MAX_CHAIN_LEN = 12
MAX_CLASS_POINTS = 6

# the slots of a point class and of a chain of (x, y, is_pos) entries
Points = tuple[tuple[int, int], ...]
Chain = tuple[tuple[int, int, bool], ...]


class FeatureKind(enum.Enum):
    HAAR = "haar"
    CONTROL_POINTS = "cp"
    SYMMETRIC_HAAR = "symhaar"
    CHAIN = "nconnex"


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
        x, y, w, h = r
        no_rect = rect_problem(x, y, w, h)
        if no_rect is not None:
            return f"{no_rect}, got {r}"
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
    def problem(points: Points) -> str | None:
        if not 1 <= len(points) <= MAX_CLASS_POINTS:
            return f"{name} class must hold 1..{MAX_CLASS_POINTS} points"
        if len(set(points)) != len(points):
            return f"duplicate point in {name} class"
        for x, y in points:
            if not _pixel(x, y, CANONICAL_W, CANONICAL_H):
                return f"point ({x}, {y}) is not a pixel of the canonical window"
        return None
    return problem


def _chain(chain: Chain) -> str | None:
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


def _field(key: str, rule: Rule) -> Any:
    # a constructor field with its model-file key and its rule
    return dataclasses.field(metadata={"key": key, "rule": rule})


def _init_fields(feature: Feature) -> None:
    # every family's __post_init__: point fields are made tuples, then each
    # field passes its rule in constructor order, and a rect tuple that
    # passed is made a Rect (a Rect is left as built)
    made, checks = _INIT[type(feature)]
    for name, make in made:
        object.__setattr__(feature, name, make(getattr(feature, name)))
    for name, rule, rect in checks:
        value = getattr(feature, name)
        problem = rule(value)
        if problem is not None:
            raise ValueError(problem)
        if rect and not isinstance(value, Rect):
            object.__setattr__(feature, name, Rect(*value))


@dataclass(frozen=True)
class HaarFeature:
    """Two rectangles compared by normalized mean difference.

    True iff |mean(rect_a) - mean(rect_b)| / sigma > threshold, where
    sigma is the clamped std dev of the whole window.
    """

    kind: ClassVar[FeatureKind] = FeatureKind.HAAR
    rect_a: Rect = _field("a", _canonical_rect)
    rect_b: Rect = _field("b", _canonical_rect)
    threshold: float = _field("t", _threshold("threshold"))
    __post_init__ = _init_fields


@dataclass(frozen=True)
class ControlPointsFeature:
    """Two point classes whose raw pixel values must separate by ``separation``."""

    kind: ClassVar[FeatureKind] = FeatureKind.CONTROL_POINTS
    pos_points: Points = _field("pos", _point_class("pos"))
    neg_points: Points = _field("neg", _point_class("neg"))
    separation: int = _field("v", _separation)
    __post_init__ = _init_fields


@dataclass(frozen=True)
class SymmetricHaarFeature:
    """Three paired-rectangle tests: left, its horizontal mirror, and middle.

    The left sub-feature is confined to the left half of the window; the
    right one is derived by mirroring. The middle rects must be centered
    within one pixel of the vertical axis. ``sym_tol`` bounds how far the
    left/right responses may drift apart, ``mid_margin`` is the dominance
    the middle response must show over that drift.
    """

    kind: ClassVar[FeatureKind] = FeatureKind.SYMMETRIC_HAAR
    left_a: Rect = _field("la", _left_rect)
    left_b: Rect = _field("lb", _left_rect)
    mid_a: Rect = _field("ma", _mid_rect)
    mid_b: Rect = _field("mb", _mid_rect)
    t_left: float = _field("t1", _threshold("t_left"))
    t_right: float = _field("t2", _threshold("t_right"))
    t_mid: float = _field("t3", _threshold("t_mid"))
    sym_tol: float = _field("td1", _threshold("sym_tol"))
    mid_margin: float = _field("td2", _threshold("mid_margin"))
    __post_init__ = _init_fields


@dataclass(frozen=True)
class ChainFeature:
    """Control-points variant whose points form an 8-connected chain.

    ``chain`` is an ordered tuple of (x, y, is_pos) entries; consecutive
    points sit at Chebyshev distance exactly 1 and both classes are
    non-empty.
    """

    kind: ClassVar[FeatureKind] = FeatureKind.CHAIN
    chain: Chain = _field("chain", _chain)
    separation: int = _field("v", _separation)
    __post_init__ = _init_fields


def _chain_class(chain: Chain, positive: bool) -> Points:
    # the points of a chain whose tag is ``positive``
    return tuple((x, y) for x, y, t in chain if bool(t) is positive)


Feature = Union[HaarFeature, ControlPointsFeature, SymmetricHaarFeature, ChainFeature]

# the class of each family
FEATURE_TYPES: dict[FeatureKind, type] = {family.kind: family for family in get_args(Feature)}

# one constructor field; its slot is its annotation
FieldSpec = NamedTuple("FieldSpec", [("name", str), ("key", str), ("slot", Any), ("rule", Rule)])

# each family's fields, in constructor order
FIELDS: dict[type, tuple[FieldSpec, ...]] = {
    family: tuple(FieldSpec(f.name, f.metadata["key"], get_type_hints(family)[f.name],
                            f.metadata["rule"]) for f in dataclasses.fields(family))
    for family in FEATURE_TYPES.values()}

# each family's rules, in constructor order
FIELD_RULES: dict[type, tuple[Rule, ...]] = {
    family: tuple(spec.rule for spec in specs) for family, specs in FIELDS.items()}

_FIELD_VALUES = {family: operator.attrgetter(*(spec.name for spec in specs))
                 for family, specs in FIELDS.items()}

# what __post_init__ makes of a point slot given as any iterable
_MAKE = {Points: lambda points: tuple(tuple(p) for p in points),
         Chain: lambda chain: tuple((x, y, bool(t)) for x, y, t in chain)}
_INIT = {family: (tuple((s.name, _MAKE[s.slot]) for s in specs if s.slot in _MAKE),
                  tuple((s.name, s.rule, s.slot is Rect) for s in specs))
         for family, specs in FIELDS.items()}


def field_values(feature: Feature) -> tuple:
    """The fields of ``feature``, in constructor order."""
    return _FIELD_VALUES[type(feature)](feature)


# ---------------------------------------------------------------------------
# geometry scaling: canonical coordinates -> a concrete window
# ---------------------------------------------------------------------------

def _local_rects(coords: np.ndarray, win_w: int, win_h: int, grids) -> tuple[np.ndarray, ...]:
    # (n, 4) canonical rows -> corner arrays x0, y0, x1, y1 and float64
    # areas: offsets scale with floor rounding, extents clamp to >= 1. On
    # phase ``grids``, the ``index`` arrays of the corners bottom right,
    # top right, bottom left and top left take the place of x0..y1
    x, y, w, h = coords.T
    x0, y0 = x * win_w // CANONICAL_W, y * win_h // CANONICAL_H
    w = np.maximum(w * win_w // CANONICAL_W, 1)
    h = np.maximum(h * win_h // CANONICAL_H, 1)
    x1, y1 = x0 + w, y0 + h
    leaks = (x1 > win_w) | (y1 > win_h)
    if leaks.any():
        raise BoundsError(f"{Rect(*coords[leaks.argmax()].tolist())} scaled to "
                          f"{win_w}x{win_h} window leaks out of bounds")
    area = (w * h).astype(np.float64)
    if grids.stride == 1:
        return x0, y0, x1, y1, area
    return (*itertools.chain.from_iterable(grids.index(cy, cx) for cy, cx in
                                           ((y1, x1), (y0, x1), (y1, x0), (y0, x0))), area)


def _local_points(points: np.ndarray, win_w: int, win_h: int, grids) -> tuple[np.ndarray, ...]:
    # the ``grids.index`` arrays of an (..., 2) array of points, floor-scaled
    return grids.index(points[..., 1] * win_h // CANONICAL_H,
                       points[..., 0] * win_w // CANONICAL_W)


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------

GEOMETRY_MEMO = 32  # window sizes a FeatureBatch keeps geometry for, oldest out first

# the dtype each scalar slot is read into
_LIMIT_DTYPES = {float: np.float64, int: np.int16}

# by ndim, the axes that move an array's last axis first (``np.moveaxis(a, -1, 0)``),
# and its first axis last
_LAST_AXIS_FIRST = {n: (n - 1, *range(n - 1)) for n in range(1, 65)}
_FIRST_AXIS_LAST = {n: (*range(1, n), 0) for n in range(1, 65)}


def _rect_pair(genomes: Sequence[tuple], a: int, b: int) -> np.ndarray:
    # (2P, 4) int64 rows (x, y, w, h): rect field a of every genome, then b
    return rect_rows([g[a] for g in genomes] + [g[b] for g in genomes])


def _padded(classes: list[Points]) -> np.ndarray:
    # (P, k, 2) int64: repeating a class's first point changes neither
    # extreme, so classes padded to the longest are read in one gather
    longest = max(map(len, classes))
    padded = itertools.chain.from_iterable(
        points + (points[0],) * (longest - len(points)) for points in classes)
    return np.fromiter(itertools.chain.from_iterable(padded), np.int64,
                       count=2 * longest * len(classes)).reshape(len(classes), longest, 2)


def _normed_diffs(grids, sigma: np.ndarray, geometry: tuple[np.ndarray, ...]) -> np.ndarray:
    # |mean(a[k]) - mean(b[k])| / sigma, (*lead, P), from 2P rects a then
    # b, whose corners and areas ``_local_rects`` gives for ``grids``; sums
    # and areas are integers exact in float64, so dividing by the float64
    # areas gives the quotients of the integers
    if grids.stride == 1:
        x0, y0, x1, y1, area = geometry
        corners = ((y1, x1), (y0, x1), (y1, x0), (y0, x0))
    else:  # each corner's phase, row offset and column offset
        area, corners = geometry[-1], tuple(geometry[i:i + 3] for i in range(0, 12, 3))
    total = grids.corner_sums(corners)
    mean, p = total.transpose(_FIRST_AXIS_LAST[total.ndim]) / area, len(area) // 2
    del total
    diff = mean[..., :p] - mean[..., p:]
    del mean
    np.abs(diff, out=diff)
    diff /= sigma[..., None]
    return diff


def _point_extremes(grids, index: tuple[np.ndarray, ...]) -> tuple:
    # min and max pixel of each of P point classes, both (*lead, P), whose
    # points are at the ``_local_points`` index into ``grids``
    values = grids.pixels[index]
    last = _FIRST_AXIS_LAST[values.ndim - 1]
    return values.min(axis=1).transpose(last), values.max(axis=1).transpose(last)


class FeatureBatch:
    """P features of one family as canonical arrays: int64 ``(2P, 4)`` per
    rect pair, int64 padded ``(P, k, 2)`` per point class, float64 ``(P,)``
    per threshold, int16 separations, each filled in one pass over the
    genomes. ``FeatureBatch(family, genomes)`` takes each feature as its
    constructor fields (``field_values``) that passed their ``FIELD_RULES``,
    so no ``Feature`` is built; a rect field may be a Rect or an
    (x, y, w, h) tuple. Geometry scaled to a window size (and, for a
    phase level, split by its stride) is kept, read-only, for the last
    ``GEOMETRY_MEMO`` sizes, but not a size it leaks out of (BoundsError).
    """

    def __init__(self, family: type, genomes: Sequence[tuple]):
        if family is HaarFeature:
            groups = (_rect_pair(genomes, 0, 1),)
        elif family is SymmetricHaarFeature:
            left = _rect_pair(genomes, 0, 1)
            x, y, w, h = left.T  # each left rect mirrored across the window's axis
            groups = (left, np.stack([CANONICAL_W - x - w, y, w, h], axis=1),
                      _rect_pair(genomes, 2, 3))
        elif family is ControlPointsFeature:
            groups = (_padded([g[0] for g in genomes]), _padded([g[1] for g in genomes]))
        else:  # ChainFeature
            groups = tuple(_padded([_chain_class(g[0], positive) for g in genomes])
                           for positive in (True, False))
        self.family = family
        self._groups = groups
        # one array per scalar field, in constructor order
        self._limits = tuple(
            np.fromiter((g[i] for g in genomes), _LIMIT_DTYPES[spec.slot], count=len(genomes))
            for i, spec in enumerate(FIELDS[family]) if spec.slot in _LIMIT_DTYPES)
        self._scaled: dict[tuple[int, ...], tuple] = {}

    def responses(self, stack: WindowStack) -> Iterable:
        """Per rect pair |mean(a) - mean(b)| / sigma, per point class (min,
        max) pixel, each ``(*lead, P)`` and gathered only when drawn."""
        point = self.family in (ControlPointsFeature, ChainFeature)
        grids = stack._gather_grids()
        # a phase level's geometry is split by its stride
        key = (stack.w, stack.h) if grids.stride == 1 else (stack.w, stack.h, grids.stride)
        if key not in self._scaled:
            scale = _local_points if point else _local_rects
            scaled = tuple(scale(group, stack.w, stack.h, grids) for group in self._groups)
            for a in itertools.chain.from_iterable(scaled):
                a.setflags(write=False)
            if len(self._scaled) >= GEOMETRY_MEMO:
                del self._scaled[next(iter(self._scaled))]
            self._scaled[key] = scaled
        if point:
            return (_point_extremes(grids, index) for index in self._scaled[key])
        return (_normed_diffs(grids, stack.sigma, geometry) for geometry in self._scaled[key])

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
        return fired.transpose(_LAST_AXIS_FIRST[fired.ndim])


def eval_batch(feature: Feature, stack: WindowStack) -> np.ndarray:
    """Evaluate ``feature`` on every window of ``stack``: booleans shaped
    like the stack's leading axes, from a ``FeatureBatch`` of one."""
    return FeatureBatch(type(feature), [field_values(feature)]).fired(stack)[0]

