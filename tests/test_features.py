import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostdet.boosting import LabeledSample
from boostdet.features import (
    CANONICAL_H,
    CANONICAL_W,
    ChainFeature,
    ControlPointsFeature,
    FeatureBatch,
    FeatureKind,
    GEOMETRY_MEMO,
    HaarFeature,
    SymmetricHaarFeature,
    eval_batch,
    field_values,
    validate_chain,
)
from boostdet.imaging import BoundsError, GrayImage, Rect, WindowStack, build_integral
from boostdet.learner import random_feature
from conftest import batch_of, constant_image, rand_image, rand_window
from oracles import (brute_rect_sum, brute_std, haar_rule, mirror_rect, point_classes,
                     points_rule, scale_rect, symmetric_rule)

FULL = Rect(0, 0, CANONICAL_W, CANONICAL_H)


def fires(feature, img: GrayImage, win: Rect = FULL) -> bool:
    """``feature`` on the window ``win`` of ``img``, through the batch evaluator."""
    return bool(eval_batch(feature, build_integral(img).window(win)))


def diffs(f: SymmetricHaarFeature, img: GrayImage) -> tuple[float, float, float]:
    """The left, mirrored-right and middle responses on the whole of ``img``."""
    return tuple(float(d[0]) for d in batch_of([f]).responses(build_integral(img)))


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_haar_feature_rejects_out_of_window():
    with pytest.raises(ValueError):
        HaarFeature(rect_a=Rect(30, 0, 4, 4), rect_b=Rect(0, 0, 1, 1), threshold=0.5)
    with pytest.raises(ValueError):
        HaarFeature(rect_a=Rect(0, 0, 1, 1), rect_b=Rect(0, 0, 1, 1), threshold=-0.1)


def test_rect_fields_take_xywh_tuples():
    # as the point families take lists, the rect families take plain tuples,
    # checked by the same rule and stored as Rects
    f = HaarFeature(rect_a=(0, 0, 4, 4), rect_b=Rect(4, 0, 4, 4), threshold=0.5)
    assert f == HaarFeature(rect_a=Rect(0, 0, 4, 4), rect_b=Rect(4, 0, 4, 4), threshold=0.5)
    assert type(f.rect_a) is Rect
    for bad, message in (((30, 0, 4, 4), "exceeds the canonical"),
                         ((-1, 0, 4, 4), "offsets must be >= 0"),
                         ((0, 0, 0, 4), "extents must be >= 1")):
        with pytest.raises(ValueError, match=message):
            HaarFeature(rect_a=bad, rect_b=Rect(0, 0, 1, 1), threshold=0.5)
    with pytest.raises(ValueError, match="not centered"):
        SymmetricHaarFeature(Rect(0, 0, 8, 8), Rect(8, 0, 8, 8), (0, 0, 8, 8),
                             Rect(12, 8, 8, 8), 1.0, 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: HaarFeature((30, 0, 4, 4), Rect(0, 0, 1, 1), -1.0), "exceeds the canonical"),
    (lambda: HaarFeature(Rect(0, 0, 1, 1), (0, 0, 0, 4), float("nan")), "extents must be >= 1"),
    (lambda: ControlPointsFeature((), ((0, 0), (0, 0)), 0), "pos class must hold"),
    (lambda: ControlPointsFeature(((0, 0),), ((0, 0), (0, 0)), 0), "duplicate point in neg"),
    (lambda: SymmetricHaarFeature(Rect(0, 0, 8, 8), Rect(8, 0, 8, 8), Rect(0, 0, 8, 8),
                                  (0, 0, 0, 1), 1.0, -1.0, 1.0, 1.0, float("inf")),
     "middle rect .* not centered"),
    (lambda: SymmetricHaarFeature(Rect(0, 0, 8, 8), Rect(8, 0, 8, 8), Rect(12, 0, 8, 8),
                                  Rect(12, 8, 8, 8), 1.0, -1.0, 1.0, 1.0, float("inf")),
     "^t_right must be"),
    (lambda: ChainFeature(((0, 0, True), (1, 1, True)), 300), "at least one pos and one neg"),
])
def test_the_first_bad_field_in_constructor_order_is_named(make, message):
    # each feature has two bad fields; the earlier one's rule speaks
    with pytest.raises(ValueError, match=message):
        make()


def test_point_fields_are_made_tuples_before_their_rule_runs():
    # a list is unhashable, so the duplicate test would raise TypeError on one
    with pytest.raises(ValueError, match="duplicate point in pos class"):
        ControlPointsFeature([[1, 2], [1, 2]], [[0, 0]], 10)
    f = ControlPointsFeature([[1, 2]], [[0, 0], [3, 4]], 10)
    assert f.pos_points == ((1, 2),) and f.neg_points == ((0, 0), (3, 4))
    # the chain rule reads its value twice, which an iterator would not survive
    f = ChainFeature(iter([[0, 0, 1], [1, 1, 0]]), 10)
    assert f.chain == ((0, 0, True), (1, 1, False))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_thresholds_must_be_finite_and_non_negative(bad):
    # NaN passes a plain `< 0` check, and a NaN threshold never fires
    with pytest.raises(ValueError, match="threshold"):
        HaarFeature(rect_a=Rect(0, 0, 1, 1), rect_b=Rect(0, 0, 1, 1), threshold=bad)
    good = dict(left_a=Rect(0, 0, 8, 8), left_b=Rect(8, 0, 8, 8),
                mid_a=Rect(12, 0, 8, 8), mid_b=Rect(12, 8, 8, 8),
                t_left=1.0, t_right=1.0, t_mid=1.0, sym_tol=1.0, mid_margin=1.0)
    SymmetricHaarFeature(**good)
    for name in ("t_left", "t_right", "t_mid", "sym_tol", "mid_margin"):
        with pytest.raises(ValueError, match=name):
            SymmetricHaarFeature(**{**good, name: bad})


def test_control_points_class_rules():
    with pytest.raises(ValueError):
        ControlPointsFeature(pos_points=(), neg_points=((0, 0),), separation=10)
    with pytest.raises(ValueError):
        ControlPointsFeature(pos_points=((1, 1), (1, 1)), neg_points=((0, 0),),
                             separation=10)
    with pytest.raises(ValueError):
        ControlPointsFeature(pos_points=tuple((i, 0) for i in range(7)),
                             neg_points=((0, 1),), separation=10)


def test_symmetric_feature_zone_rules():
    ok_left = Rect(0, 0, 8, 8)
    mid = Rect(12, 0, 8, 8)
    with pytest.raises(ValueError):  # left rect leaking past the half line
        SymmetricHaarFeature(left_a=Rect(10, 0, 8, 4), left_b=ok_left,
                             mid_a=mid, mid_b=mid, t_left=1, t_right=1, t_mid=1,
                             sym_tol=1, mid_margin=1)
    with pytest.raises(ValueError):  # middle rect off the axis
        SymmetricHaarFeature(left_a=ok_left, left_b=ok_left,
                             mid_a=Rect(0, 0, 8, 8), mid_b=mid,
                             t_left=1, t_right=1, t_mid=1, sym_tol=1, mid_margin=1)


def test_chain_feature_rules():
    with pytest.raises(ValueError):  # distance 2 jump
        ChainFeature(chain=((0, 0, True), (2, 0, False)), separation=10)
    with pytest.raises(ValueError):  # one class empty
        ChainFeature(chain=((0, 0, True), (1, 0, True)), separation=10)
    f = ChainFeature(chain=((0, 0, True), (1, 1, False)), separation=10)
    assert point_classes(f) == (((0, 0),), ((1, 1),))


@pytest.mark.parametrize("point", [(1.5, 2), (1, 2.0), (True, 2), (1, np.float64(2)),
                                   (1, np.True_), ("1", 2)])
def test_a_point_of_floats_or_bools_is_refused(point):
    # the evaluator reads points as int64 indices, which would truncate a float
    with pytest.raises(ValueError, match="not a pixel"):
        ControlPointsFeature(pos_points=(point,), neg_points=((0, 0),), separation=10)
    x, y = point
    with pytest.raises(ValueError, match="invalid 8-connected chain"):
        ChainFeature(chain=((x, y, True), (2, 2, False)), separation=10)
    assert not validate_chain([(2, 2), point])


def test_numpy_integer_points_make_a_feature():
    f = ControlPointsFeature(pos_points=((np.int64(1), np.uint8(2)),), neg_points=((0, 0),),
                             separation=10)
    assert batch_of([f])._groups[0].tolist() == [[[1, 2]]]
    f = ChainFeature(chain=((np.int16(1), 2, True), (2, np.int32(2), False)), separation=10)
    assert point_classes(f)[1] == ((2, 2),)


# ---------------------------------------------------------------------------
# mirror_rect / validate_chain
# ---------------------------------------------------------------------------

def test_mirror_rect_examples():
    assert mirror_rect(Rect(2, 0, 4, 2), 24).x == 18
    assert mirror_rect(Rect(10, 3, 4, 2), 24) == Rect(10, 3, 4, 2)


def test_mirror_rect_involution(rng):
    for _ in range(1000):
        w = int(rng.integers(1, 33))
        r = Rect(x=int(rng.integers(0, 33 - w)), y=int(rng.integers(0, 24)),
                 w=w, h=int(rng.integers(1, 24)))
        assert mirror_rect(mirror_rect(r, 32), 32) == r


def test_validate_chain_examples():
    assert validate_chain([(0, 0), (1, 1), (2, 1)])
    assert not validate_chain([(0, 0), (2, 0)])
    snake = [(x, 0) for x in range(13)]
    assert not validate_chain(snake)
    assert validate_chain(snake[:12])
    assert not validate_chain([(0, 0)])
    assert not validate_chain([(0, 0), (1, 0), (0, 0)])
    assert not validate_chain([(0, 0), (-1, 1)])


def test_chain_constraint_shrinks_search_space():
    # desk-scale reduction: ordered 3-point arrangements on a 5x5 grid
    cells = list(itertools.product(range(5), range(5)))
    triples = list(itertools.permutations(cells, 3))
    unconstrained = len(triples)
    chains = sum(1 for t in triples if validate_chain(t, width=5, height=5))
    assert unconstrained == 13800
    assert chains == 768
    assert chains < unconstrained


# ---------------------------------------------------------------------------
# Haar evaluation
# ---------------------------------------------------------------------------

def test_eval_haar_constant_window_is_false():
    img = constant_image(CANONICAL_W, CANONICAL_H, 90)
    f = HaarFeature(rect_a=Rect(0, 0, 8, 8), rect_b=Rect(8, 8, 8, 8), threshold=0.0)
    assert fires(f, img) is False


def test_eval_haar_matches_pixel_oracle(rng):
    py = random.Random(7)
    for _ in range(1000):
        img = rand_window(rng)
        f = random_feature(FeatureKind.HAAR, py)
        assert fires(f, img) == haar_rule(img, FULL, f.rect_a, f.rect_b, f.threshold)


def test_eval_haar_planted_contrast(rng):
    px = np.full((CANONICAL_H, CANONICAL_W), 128, dtype=np.uint8)
    px[0:8, 0:8] = 255
    px[8:16, 8:16] = 0
    f = HaarFeature(rect_a=Rect(0, 0, 8, 8), rect_b=Rect(8, 8, 8, 8), threshold=1.0)
    assert fires(f, GrayImage(px)) is True


def test_eval_haar_additive_shift_invariant(rng):
    py = random.Random(21)
    for _ in range(200):
        base = rand_window(rng, lo=50, hi=206)
        c = int(rng.integers(-50, 51))
        shifted = GrayImage((base.pixels.astype(np.int16) + c).astype(np.uint8))
        f = random_feature(FeatureKind.HAAR, py)
        assert fires(f, base) == fires(f, shifted)


@given(seed=st.integers(0, 2 ** 32 - 1), a=st.integers(1, 3), b=st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_eval_haar_affine_invariant(seed, a, b):
    rng = np.random.default_rng(seed)
    base = rand_window(rng, lo=5, hi=80)
    mapped = GrayImage((base.pixels.astype(np.int32) * a + b).astype(np.uint8))
    f = random_feature(FeatureKind.HAAR, random.Random(seed))
    sigma = max(1.0, np.std(base.pixels.astype(np.float64)))
    ma = abs(np.mean(base.pixels[f.rect_a.y:f.rect_a.y + f.rect_a.h,
                                 f.rect_a.x:f.rect_a.x + f.rect_a.w], dtype=np.float64)
             - np.mean(base.pixels[f.rect_b.y:f.rect_b.y + f.rect_b.h,
                                   f.rect_b.x:f.rect_b.x + f.rect_b.w], dtype=np.float64))
    ratio = ma / sigma
    # stay away from the decision edge where float rounding could flip
    if abs(ratio - f.threshold) < 1e-6 or np.std(base.pixels) < 1.5:
        return
    assert fires(f, base) == fires(f, mapped)


# ---------------------------------------------------------------------------
# control points / chain evaluation
# ---------------------------------------------------------------------------

def _uniform_window(value):
    return constant_image(CANONICAL_W, CANONICAL_H, value)


def test_control_points_separated_true():
    px = np.full((CANONICAL_H, CANONICAL_W), 128, dtype=np.uint8)
    px[0, 0] = px[0, 1] = 200
    px[5, 5] = px[5, 6] = 50
    f = ControlPointsFeature(pos_points=((0, 0), (1, 0)), neg_points=((5, 5), (6, 5)),
                             separation=100)
    assert fires(f, GrayImage(px)) is True


def test_control_points_equal_values_false():
    f = ControlPointsFeature(pos_points=((0, 0),), neg_points=((1, 1),), separation=1)
    assert fires(f, _uniform_window(128)) is False


def test_control_points_second_clause():
    px = np.full((CANONICAL_H, CANONICAL_W), 128, dtype=np.uint8)
    px[0, 0] = 50
    px[5, 5] = 200
    f = ControlPointsFeature(pos_points=((0, 0),), neg_points=((5, 5),), separation=100)
    assert fires(f, GrayImage(px)) is True


def test_control_points_matches_oracle(rng):
    py = random.Random(11)
    for _ in range(1000):
        img = rand_window(rng)
        f = random_feature(FeatureKind.CONTROL_POINTS, py)
        assert fires(f, img) == points_rule(
            img, f.pos_points, f.neg_points, f.separation)


def test_control_points_rejects_non_canonical():
    # a training window of another size never reaches the evaluator
    with pytest.raises(ValueError, match="canonical"):
        LabeledSample(constant_image(8, 8, 0), 1)


@given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_point_families_shift_invariant(seed, c):
    rng = np.random.default_rng(seed)
    base = rand_window(rng, lo=50, hi=206)
    shifted = GrayImage((base.pixels.astype(np.int16) + c).astype(np.uint8))
    py = random.Random(seed)
    cp = random_feature(FeatureKind.CONTROL_POINTS, py)
    ch = random_feature(FeatureKind.CHAIN, py)
    assert fires(cp, base) == fires(cp, shifted)
    assert fires(ch, base) == fires(ch, shifted)


def test_chain_trivial_cases():
    px = np.full((CANONICAL_H, CANONICAL_W), 128, dtype=np.uint8)
    px[0, 0] = 200
    px[1, 1] = 50
    f = ChainFeature(chain=((0, 0, True), (1, 1, False)), separation=100)
    assert fires(f, GrayImage(px)) is True
    assert fires(f, _uniform_window(70)) is False


def test_chain_matches_control_points_oracle(rng):
    py = random.Random(13)
    for _ in range(1000):
        img = rand_window(rng)
        f = random_feature(FeatureKind.CHAIN, py)
        assert fires(f, img) == points_rule(img, *point_classes(f), f.separation)


def _extreme_point_features() -> dict[str, list]:
    """cp and nconnex features on three chained points, both class orders,
    at separations 1, 254 and 255."""
    features = {"cp": [], "nconnex": []}
    for pos_first in (True, False):
        tags = (pos_first, pos_first, not pos_first)
        chain = tuple((x, y, t) for (x, y), t in zip(((3, 4), (4, 4), (5, 5)), tags))
        for separation in (1, 254, 255):
            f = ChainFeature(chain=chain, separation=separation)
            features["nconnex"].append(f)
            features["cp"].append(ControlPointsFeature(*point_classes(f), separation))
    return features


@pytest.mark.parametrize("path", ["crops", "level", "window"])
def test_point_rule_is_exact_at_the_uint8_extremes(path):
    rng = np.random.default_rng(71)
    frame = GrayImage(rng.choice(np.array([0, 1, 254, 255], np.uint8), (48, 64)))
    origins = [(x, y) for y in range(48 - CANONICAL_H + 1) for x in range(64 - CANONICAL_W + 1)]
    crops = [GrayImage(frame.pixels[y:y + CANONICAL_H, x:x + CANONICAL_W]) for x, y in origins]
    # every value pattern of the three points occurs, so each class order
    # meets 0 against 255 and 254 against 255, where uint8 differences wrap
    assert len({(c.pixels[4, 3], c.pixels[4, 4], c.pixels[5, 5]) for c in crops}) == 4 ** 3
    ii = build_integral(frame)
    for family, features in _extreme_point_features().items():
        want = np.array([[points_rule(c, *point_classes(f), f.separation)
                          for c in crops] for f in features])
        if path == "crops":
            got = batch_of(features).fired(WindowStack.from_images(crops))
        elif path == "level":
            level = ii.level(CANONICAL_W, CANONICAL_H, 1)
            got = batch_of(features).fired(level).reshape(len(features), -1)
        else:
            got = np.array([batch_of(features).fired(ii.window(Rect(x, y, CANONICAL_W,
                                                                     CANONICAL_H)))
                            for x, y in origins]).T
        assert want.any() and not want.all()
        assert np.array_equal(got, want), family


# ---------------------------------------------------------------------------
# symmetric Haar evaluation
# ---------------------------------------------------------------------------

def _mirror_image(img: GrayImage) -> GrayImage:
    return GrayImage(np.fliplr(img.pixels).copy())


def _self_mirror_feature(py: random.Random) -> SymmetricHaarFeature:
    """Random symmetric feature whose middle rects are their own mirror."""
    while True:
        f = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
        w_a = int(py.randrange(1, CANONICAL_W // 2) * 2)
        w_b = int(py.randrange(1, CANONICAL_W // 2) * 2)
        mid_a = Rect((CANONICAL_W - w_a) // 2, f.mid_a.y, w_a, f.mid_a.h)
        mid_b = Rect((CANONICAL_W - w_b) // 2, f.mid_b.y, w_b, f.mid_b.h)
        try:
            return SymmetricHaarFeature(
                left_a=f.left_a, left_b=f.left_b, mid_a=mid_a, mid_b=mid_b,
                t_left=f.t_left, t_right=f.t_right, t_mid=f.t_mid,
                sym_tol=f.sym_tol, mid_margin=f.mid_margin)
        except ValueError:
            continue


def test_symmetric_window_gives_equal_left_right(rng):
    py = random.Random(3)
    half = rng.integers(0, 256, (CANONICAL_H, CANONICAL_W // 2)).astype(np.uint8)
    img = GrayImage(np.hstack([half, np.fliplr(half)]))
    f = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
    d1, d2, _ = diffs(f, img)
    assert d1 == d2


def test_symmetric_constant_window_false():
    py = random.Random(5)
    img = constant_image(CANONICAL_W, CANONICAL_H, 100)
    for _ in range(20):
        f = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
        if f.t_left > 0 and f.t_right > 0 and f.t_mid > 0:
            assert fires(f, img) is False


def test_symmetric_matches_condition_oracle(rng):
    py = random.Random(17)
    for _ in range(1000):
        img = rand_window(rng)
        f = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
        assert fires(f, img) == symmetric_rule(img, FULL, f)


def test_symmetric_condition5_literal_flips():
    # drift > middle response: the literal form fires, the prose form cannot
    px = np.full((CANONICAL_H, CANONICAL_W), 128, dtype=np.uint8)
    px[:, 0:4] = 255
    px[:, 4:8] = 0
    px[:, 24:28] = 160  # mirrored zone: weaker contrast than the left
    px[:, 28:32] = 96
    px[0:12, 12:20] = 136  # middle: weakest contrast
    px[12:24, 12:20] = 120
    img = GrayImage(px)
    probe = SymmetricHaarFeature(
        left_a=Rect(0, 0, 4, 24), left_b=Rect(4, 0, 4, 24),
        mid_a=Rect(12, 0, 8, 12), mid_b=Rect(12, 12, 8, 12),
        t_left=0.0, t_right=0.0, t_mid=0.0, sym_tol=1.0, mid_margin=0.0)
    d1, d2, d3 = diffs(probe, img)
    drift = abs(d1 - d2)
    assert min(d1, d2, d3) > 0 and drift > d3
    f = SymmetricHaarFeature(
        left_a=probe.left_a, left_b=probe.left_b, mid_a=probe.mid_a, mid_b=probe.mid_b,
        t_left=d1 / 2, t_right=d2 / 2, t_mid=d3 / 2,
        sym_tol=2 * drift + 1, mid_margin=(drift - d3) / 2)
    assert fires(f, img) is False
    assert symmetric_rule(img, FULL, f, condition5_literal=True) is True
    assert symmetric_rule(img, FULL, f, condition5_literal=False) is False


def test_mirror_window_swaps_left_right(rng):
    py = random.Random(19)
    for _ in range(300):
        img = rand_window(rng)
        mirrored = _mirror_image(img)
        f = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
        d1, d2, _ = diffs(f, img)
        m1, m2, _ = diffs(f, mirrored)
        assert abs(d1 - m2) < 1e-9 and abs(d2 - m1) < 1e-9


def test_mirror_window_evaluation_equal_for_self_mirror_mid(rng):
    py = random.Random(23)
    for _ in range(300):
        img = rand_window(rng)
        f = _self_mirror_feature(py)
        assert fires(f, img) == fires(f, _mirror_image(img))


# ---------------------------------------------------------------------------
# dispatch and batch equivalence
# ---------------------------------------------------------------------------

def test_dispatch_matches_family_ops(rng):
    # one evaluator, each family routed to its own rule
    py = random.Random(29)
    for _ in range(100):
        img = rand_window(rng)
        fh = random_feature(FeatureKind.HAAR, py)
        fc = random_feature(FeatureKind.CONTROL_POINTS, py)
        fs = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
        fn = random_feature(FeatureKind.CHAIN, py)
        assert fires(fh, img) == haar_rule(img, FULL, fh.rect_a, fh.rect_b, fh.threshold)
        assert fires(fc, img) == points_rule(img, fc.pos_points, fc.neg_points,
                                             fc.separation)
        assert fires(fs, img) == symmetric_rule(img, FULL, fs)
        assert fires(fn, img) == points_rule(img, *point_classes(fn), fn.separation)


def test_batch_matches_scalar_all_families(rng):
    py = random.Random(31)
    windows = [rand_window(rng) for _ in range(64)]
    stack = WindowStack.from_images(windows)
    for family in FeatureKind:
        for _ in range(50):
            f = random_feature(family, py)
            batch = eval_batch(f, stack)
            scalar = np.array([fires(f, w) for w in windows])
            assert np.array_equal(batch, scalar)


def _stacks(rng):
    """A crop stack, a scaled pyramid level and a single window."""
    frame = rand_image(rng, 128, 96)
    ii = build_integral(frame)
    return {
        "crops": WindowStack.from_images([rand_window(rng) for _ in range(40)]),
        "level": ii.level(45, 34, 3),
        "window": ii.window(Rect(17, 9, 51, 38)),
    }


@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda k: k.value)
def test_eval_features_rows_match_eval_batch(rng, family):
    py = random.Random(41)
    features = [random_feature(family, py) for _ in range(30)]
    if family in (FeatureKind.CONTROL_POINTS, FeatureKind.CHAIN):
        # the padding path: classes of several lengths in one call
        assert len({len(point_classes(f)[0]) for f in features}) > 1
        assert len({len(point_classes(f)[1]) for f in features}) > 1
    for name, stack in _stacks(rng).items():
        batch = batch_of(features).fired(stack)
        assert batch.shape == (len(features),) + stack.sigma.shape, name
        for f, row in zip(features, batch):
            single = eval_batch(f, stack)
            assert row.dtype == single.dtype == np.bool_
            assert np.array_equal(row, single), name


@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda k: k.value)
def test_feature_batch_memo_is_read_only_and_bounded(rng, family):
    py = random.Random(59)
    features = [random_feature(family, py) for _ in range(5)]
    batch = batch_of(features)
    frame = build_integral(rand_image(rng, 96, 72))
    sizes = [(CANONICAL_W + k, CANONICAL_H + k) for k in range(GEOMETRY_MEMO + 5)]
    for w, h in sizes:
        level = frame.level(w, h, 4)
        assert np.array_equal(batch.fired(level), batch_of(features).fired(level))
        assert len(batch._scaled) <= GEOMETRY_MEMO
    assert list(batch._scaled) == sizes[-GEOMETRY_MEMO:]
    for geometry in batch._scaled.values():
        for arrays in geometry:
            assert not any(a.flags.writeable for a in arrays)


def test_feature_batch_keeps_no_geometry_that_leaks():
    # floor scaling fits every rect into a window of 1x1 or more, so only
    # an empty window makes the geometry leak
    with np.errstate(invalid="ignore"):  # its sigma divides by a zero area
        empty = WindowStack(np.zeros((0, 0), np.uint8), np.zeros((1, 1), np.int64),
                            np.zeros((1, 1), np.int64))
    batch = batch_of([random_feature(FeatureKind.HAAR, random.Random(61))])
    for _ in range(2):
        with pytest.raises(BoundsError, match="leaks out of bounds"):
            batch.fired(empty)
        assert batch._scaled == {}


@pytest.mark.parametrize("family", [FeatureKind.HAAR, FeatureKind.SYMMETRIC_HAAR],
                         ids=lambda k: k.value)
def test_feature_batch_rect_geometry_is_the_feature_fields(family):
    py = random.Random(71)
    features = [random_feature(family, py) for _ in range(7)]
    batch = batch_of(features)
    if family is FeatureKind.HAAR:
        groups = [[f.rect_a for f in features] + [f.rect_b for f in features]]
    else:
        left = [f.left_a for f in features] + [f.left_b for f in features]
        groups = [left, [mirror_rect(r, CANONICAL_W) for r in left],
                  [f.mid_a for f in features] + [f.mid_b for f in features]]
    assert len(batch._groups) == len(groups)
    for coords, rects in zip(batch._groups, groups):
        assert coords.dtype == np.int64
        assert coords.tolist() == [[r.x, r.y, r.w, r.h] for r in rects]
    # a window size keeps each rect's scaled corners and float64 area
    win = Rect(0, 0, 45, 37)
    batch.fired(build_integral(rand_image(np.random.default_rng(5), win.w, win.h)))
    for (x0, y0, x1, y1, area), rects in zip(batch._scaled[(win.w, win.h)], groups):
        local = [scale_rect(r, win) for r in rects]
        assert area.dtype == np.float64
        assert [x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist(), area.tolist()] == [
            [r.x for r in local], [r.y for r in local], [r.x + r.w for r in local],
            [r.y + r.h for r in local], [float(r.area) for r in local]]


def test_window_outside_image_is_bounds_error(rng):
    # a slice of the tables would silently truncate such a window
    img = rand_window(rng)
    ii = build_integral(img)
    py = random.Random(37)
    fh = random_feature(FeatureKind.HAAR, py)
    fs = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
    for win in (Rect(1, 0, CANONICAL_W, CANONICAL_H), Rect(0, 0, CANONICAL_W, CANONICAL_H + 1),
                Rect(CANONICAL_W, 0, 1, 1)):
        with pytest.raises(BoundsError):
            fires(fh, img, win)
        with pytest.raises(BoundsError):
            next(batch_of([fs]).responses(ii.window(win)))
        for family in FeatureKind:
            with pytest.raises(BoundsError):
                fires(random_feature(family, py), img, win)


def _haar_response(rect_a: Rect, rect_b: Rect, frame: GrayImage, win: Rect) -> float:
    (d,) = batch_of([HaarFeature(rect_a, rect_b, 0.0)]).responses(
        build_integral(frame).window(win))
    return float(d[0])


def _oracle_response(rect_a: Rect, rect_b: Rect, frame: GrayImage, win: Rect) -> float:
    # rects already in frame coordinates
    return abs(brute_rect_sum(frame, rect_a) / rect_a.area
               - brute_rect_sum(frame, rect_b) / rect_b.area) / brute_std(frame, win)


def test_scale_rect_identity_at_canonical(rng):
    # at the canonical size a rect keeps its extents and moves with the window
    frame = rand_image(rng, 64, 64)
    r, other = Rect(3, 5, 7, 9), Rect(20, 10, 6, 4)
    for win in (FULL, Rect(10, 20, CANONICAL_W, CANONICAL_H)):
        shifted = [Rect(win.x + q.x, win.y + q.y, q.w, q.h) for q in (r, other)]
        assert scale_rect(r, win) == shifted[0]
        assert _haar_response(r, other, frame, win) == _oracle_response(*shifted, frame, win)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_scale_rect_always_fits(seed):
    rng = random.Random(seed)
    w = rng.randint(1, CANONICAL_W)
    h = rng.randint(1, CANONICAL_H)
    r = Rect(x=rng.randint(0, CANONICAL_W - w), y=rng.randint(0, CANONICAL_H - h),
             w=w, h=h)
    win = Rect(x=rng.randint(0, 50), y=rng.randint(0, 50),
               w=rng.randint(CANONICAL_W, 200), h=rng.randint(CANONICAL_H, 150))
    scaled = scale_rect(r, win)
    assert scaled.x >= win.x and scaled.y >= win.y
    assert scaled.x + scaled.w <= win.x + win.w
    assert scaled.y + scaled.h <= win.y + win.h
    # the evaluator scales to the same rect: no BoundsError, the oracle's response
    frame = rand_image(np.random.default_rng(seed), win.x + win.w, win.y + win.h)
    assert _haar_response(r, r, frame, win) == 0.0
    assert (_haar_response(r, FULL, frame, win)
            == _oracle_response(scaled, scale_rect(FULL, win), frame, win))


@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda k: k.value)
def test_batch_from_fields_is_the_batch_of_the_features(rng, family):
    py = random.Random(83)
    features = [random_feature(family, py) for _ in range(9)]
    if family is FeatureKind.CONTROL_POINTS:  # classes of 1 and 6 points
        features.append(ControlPointsFeature(pos_points=((3, 4),),
                                             neg_points=tuple((i, 5) for i in range(6)),
                                             separation=7))
    # every other genome holds its rects as (x, y, w, h) tuples, as a nudge leaves them
    genomes = [tuple((v.x, v.y, v.w, v.h) if k % 2 and isinstance(v, Rect) else v for v in g)
               for k, g in enumerate(map(field_values, features))]
    if family in (FeatureKind.HAAR, FeatureKind.SYMMETRIC_HAAR):
        assert any(type(v) is tuple for g in genomes for v in g)
    else:
        assert len({len(points) for f in features for points in point_classes(f)}) > 1
    cls = type(features[0])
    want = FeatureBatch(cls, [field_values(f) for f in features])
    got = FeatureBatch(cls, genomes)
    assert got.family is want.family
    assert len(got._groups) == len(want._groups) and len(got._limits) == len(want._limits)
    for a, b in zip(got._groups + got._limits, want._groups + want._limits):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    assert all(g.dtype == np.int64 for g in got._groups)
    point = family in (FeatureKind.CONTROL_POINTS, FeatureKind.CHAIN)
    assert all(t.dtype == (np.int16 if point else np.float64) for t in got._limits)
    stack = WindowStack.from_images([rand_window(rng) for _ in range(20)])
    assert np.array_equal(got.fired(stack), want.fired(stack))
