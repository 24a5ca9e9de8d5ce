import math
import random
import tracemalloc
from dataclasses import astuple, replace

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostdet import imaging
from boostdet.boosting import Stage, StrongClassifier, WeakClassifier, vote
from boostdet.detector import (
    NMS_BLOCK,
    Detection,
    Detections,
    ScanConfig,
    box_corners,
    corner_iou,
    iou,
    nms,
    pyramid_levels,
    scan,
)
from boostdet.features import (
    CANONICAL_H,
    CANONICAL_W,
    ChainFeature,
    ControlPointsFeature,
    FeatureKind,
    GEOMETRY_MEMO,
    HaarFeature,
    eval_batch,
    kind_of,
)
from boostdet.imaging import LEVEL_MEMO, MAX_COORD, GrayImage, Rect, build_integral, rect_rows
from boostdet.learner import LearnerConfig, random_feature
from boostdet.modelio import parse_model
from boostdet.pipeline import train_detector
from boostdet.synthetic import frame_sequence, training_samples
from conftest import constant_image, fixture_model_text, rand_image, record
from oracles import brute_rect_sum, brute_std, mirror_rect, points_rule, scale_point, scale_rect


def random_model(py: random.Random, n_stages: int = 5) -> StrongClassifier:
    stages = []
    for _ in range(n_stages):
        fam = py.choice(list(FeatureKind))
        stages.append(Stage(alpha=py.uniform(0.05, 2.0),
                            weak=WeakClassifier(random_feature(fam, py),
                                                py.choice((-1, 1)))))
    return StrongClassifier(stages=tuple(stages))


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(scale_factor=1.0)
    with pytest.raises(ValueError):
        ScanConfig(stride=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale_factor"):
            ScanConfig(scale_factor=bad)
    with pytest.raises(ValueError, match="min_window_w"):
        ScanConfig(min_window_w=0)
    for name, bad in (("stride", 2.5), ("stride", True), ("stride", 2.0),
                      ("min_window_w", float("nan")), ("min_window_w", 24.0),
                      ("min_window_w", False)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ScanConfig(**{name: bad})
    with pytest.raises(ValueError, match="bias"):
        ScanConfig(bias=float("nan"))
    assert ScanConfig(bias=float("-inf")).bias == float("-inf")


def test_iou_basics():
    a = Rect(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Rect(20, 20, 5, 5)) == 0.0
    assert iou(a, Rect(5, 0, 10, 10)) == pytest.approx(50 / 150)


def test_pyramid_levels_growth():
    levels = pyramid_levels(128, 96, ScanConfig())
    assert levels[0][:2] == (CANONICAL_W, CANONICAL_H)
    widths = [w for w, _, _ in levels]
    assert widths == sorted(widths)
    assert all(w <= 128 and h <= 96 for w, h, _ in levels)
    assert pyramid_levels(31, 100, ScanConfig()) == []
    # min window filter drops the small levels
    filtered = pyramid_levels(128, 96, ScanConfig(min_window_w=40))
    assert all(w >= 40 for w, _, _ in filtered)


def test_pyramid_levels_are_distinct():
    # factors near 1 round consecutive powers to the same window size
    levels = pyramid_levels(128, 96, ScanConfig(scale_factor=1.01))
    assert len(levels) == 117
    assert levels == sorted(set(levels))
    assert levels[:2] == [(32, 24, 2), (33, 24, 2)]
    assert len(pyramid_levels(128, 96, ScanConfig())) == 7


def _every_power_levels(frame_w, frame_h, cfg):
    # the walk over every power of the factor, as it stood before skipping
    levels = []
    k = 0
    while True:
        factor = cfg.scale_factor ** k
        w = int(round(CANONICAL_W * factor))
        h = int(round(CANONICAL_H * factor))
        if w > frame_w or h > frame_h:
            break
        level = (w, h, max(1, int(round(cfg.stride * factor))))
        if w >= cfg.min_window_w and (not levels or level != levels[-1]):
            levels.append(level)
        k += 1
    return levels


@pytest.mark.parametrize("scale_factor", [1.00001, 1.0001, 1.01, 1.1, 1.25, 1.5, 2.0])
def test_pyramid_levels_match_every_power_walk(scale_factor):
    for frame_w, frame_h in [(128, 96), (32, 24), (45, 200), (320, 50), (64, 48)]:
        for stride, min_w in [(2, CANONICAL_W), (1, CANONICAL_W), (5, 40), (3, 1)]:
            cfg = ScanConfig(scale_factor=scale_factor, stride=stride, min_window_w=min_w)
            assert (pyramid_levels(frame_w, frame_h, cfg)
                    == _every_power_levels(frame_w, frame_h, cfg))


def test_pyramid_levels_skip_repeated_powers():
    # the every-power walk takes about a million steps here
    levels = pyramid_levels(128, 96, ScanConfig(scale_factor=1.000001))
    assert len(levels) == 175
    assert levels == sorted(set(levels))
    assert levels[0] == (32, 24, 2) and levels[-1][0] == 128


def test_scan_small_frame_is_empty(rng):
    model = random_model(random.Random(3))
    frame = rand_image(rng, CANONICAL_W - 1, CANONICAL_H * 2)
    assert len(scan(model, frame)) == 0


def test_scan_constant_frame_all_below_bias(rng):
    f = HaarFeature(rect_a=Rect(0, 0, 8, 8), rect_b=Rect(8, 0, 8, 8), threshold=0.5)
    model = StrongClassifier(stages=(Stage(1.0, WeakClassifier(f, 1)),))
    frame = constant_image(64, 48, 120)
    assert len(scan(model, frame, ScanConfig(bias=0.0))) == 0


def test_scan_matches_per_window_reference(rng):
    py = random.Random(5)
    frame = rand_image(rng, 52, 40)
    ii = build_integral(frame)
    model = random_model(py, n_stages=6)
    cfg = ScanConfig(scale_factor=1.25, stride=3, bias=float("-inf"))
    got = scan(model, frame, cfg)

    expected = []
    for win_w, win_h, stride in pyramid_levels(frame.width, frame.height, cfg):
        for y in range(0, frame.height - win_h + 1, stride):
            for x in range(0, frame.width - win_w + 1, stride):
                win = Rect(x, y, win_w, win_h)
                margin = 0.0
                for st_ in model.stages:
                    fired = eval_batch(st_.weak.feature, ii.window(win))
                    margin += st_.alpha * (st_.weak.polarity if fired
                                           else -st_.weak.polarity)
                expected.append(Detection(box=win, margin=margin))

    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.box == e.box
        assert g.margin == e.margin


def _oracle_fires(feature, frame: GrayImage, win: Rect) -> bool:
    """``feature`` on ``win`` from the pixel-loop oracles, scaled geometry."""
    if isinstance(feature, (ControlPointsFeature, ChainFeature)):
        crop = GrayImage(
            frame.pixels[win.y:win.y + win.h, win.x:win.x + win.w])
        local = Rect(0, 0, win.w, win.h)
        return points_rule(crop,
                           [scale_point(x, y, local) for x, y in feature.pos_points],
                           [scale_point(x, y, local) for x, y in feature.neg_points],
                           feature.separation)
    sigma = brute_std(frame, win)

    def normed_diff(a: Rect, b: Rect) -> float:
        sa, sb = scale_rect(a, win), scale_rect(b, win)
        return abs(brute_rect_sum(frame, sa) / sa.area
                   - brute_rect_sum(frame, sb) / sb.area) / sigma

    if isinstance(feature, HaarFeature):
        return normed_diff(feature.rect_a, feature.rect_b) > feature.threshold
    f = feature
    d1 = normed_diff(f.left_a, f.left_b)
    # the right pair mirrors on the canonical window, then scales
    d2 = normed_diff(mirror_rect(f.left_a, CANONICAL_W), mirror_rect(f.left_b, CANONICAL_W))
    d3 = normed_diff(f.mid_a, f.mid_b)
    return (d1 > f.t_left and d2 > f.t_right and d3 > f.t_mid
            and abs(d1 - d2) < f.sym_tol and d3 - abs(d1 - d2) > f.mid_margin)


def _firing_feature(family: FeatureKind, py: random.Random):
    """A random feature with thresholds low enough to fire on noise."""
    f = random_feature(family, py)
    if family is FeatureKind.HAAR:
        return replace(f, threshold=py.uniform(0.0, 0.5))
    if family is FeatureKind.SYMMETRIC_HAAR:
        return replace(f, t_left=0.0, t_right=0.0, t_mid=0.0,
                       sym_tol=py.uniform(0.5, 4.0), mid_margin=0.0)
    return replace(f, separation=py.randint(1, 40))


def test_scan_matches_oracle_at_scaled_levels(rng):
    frame = rand_image(rng, 52, 40)
    cfg = ScanConfig(scale_factor=1.25, stride=3, bias=float("-inf"))
    levels = pyramid_levels(frame.width, frame.height, cfg)
    assert [(w, h) for w, h, _ in levels] == [(32, 24), (40, 30), (50, 38)]
    py = random.Random(43)
    stages = [Stage(alpha=py.uniform(0.05, 2.0),
                    weak=WeakClassifier(_firing_feature(family, py), py.choice((-1, 1))))
              for family in FeatureKind for _ in range(3)]
    model = StrongClassifier(stages=tuple(stages))

    expected = []
    fired_on_scaled = {family: set() for family in FeatureKind}
    for win_w, win_h, stride in levels:
        for y in range(0, frame.height - win_h + 1, stride):
            for x in range(0, frame.width - win_w + 1, stride):
                win = Rect(x, y, win_w, win_h)
                margin = 0.0
                for st_ in model.stages:
                    fired = _oracle_fires(st_.weak.feature, frame, win)
                    if win_w != CANONICAL_W:
                        fired_on_scaled[kind_of(st_.weak.feature)].add(fired)
                    pol = st_.weak.polarity
                    margin += st_.alpha * (pol if fired else -pol)
                expected.append((win, margin))
    # every family both fires and stays quiet on the scaled levels, so a
    # wrong rule or wrong geometry shows in the margins
    assert all(seen == {True, False} for seen in fired_on_scaled.values())

    assert [(d.box, d.margin) for d in scan(model, frame, cfg)] == expected


def test_scan_boxes_in_bounds(rng):
    frame = rand_image(rng, 87, 63)
    model = random_model(random.Random(7), n_stages=4)
    for d in scan(model, frame, ScanConfig(bias=float("-inf"))):
        assert d.box.fits_in(frame.width, frame.height)


def test_scan_is_deterministic(rng):
    frame = rand_image(rng, 96, 72)
    model = random_model(random.Random(11), n_stages=4)
    cfg = ScanConfig(bias=-10.0)
    assert list(scan(model, frame, cfg)) == list(scan(model, frame, cfg))


def test_scan_rejects_integral_of_another_size(rng):
    frame = rand_image(rng, 52, 40)
    model = random_model(random.Random(13), n_stages=4)
    cfg = ScanConfig(bias=float("-inf"))
    assert list(scan(model, frame, cfg, ii=build_integral(frame))) == list(scan(model, frame, cfg))
    for w, h in ((40, 30), (52, 41), (60, 40)):
        with pytest.raises(ValueError, match=f"integral image is {w}x{h}, frame is 52x40"):
            scan(model, frame, cfg, ii=build_integral(rand_image(rng, w, h)))


def test_scan_rejects_integral_of_another_frame():
    model = random_model(random.Random(13), n_stages=4)
    (frame0, _), (frame1, _) = frame_sequence(2, seed=99)
    cfg = ScanConfig(bias=-1.0)
    with pytest.raises(ValueError, match="other pixels than the frame"):
        scan(model, frame0, cfg, ii=build_integral(frame1))
    assert (list(scan(model, frame0, cfg, ii=build_integral(frame0)))
            == list(scan(model, frame0, cfg)))


def test_scan_bias_monotone(rng):
    frame = rand_image(rng, 80, 60)
    model = random_model(random.Random(13), n_stages=4)
    low = {(d.box, d.margin) for d in scan(model, frame, ScanConfig(bias=-5.0))}
    high = {(d.box, d.margin) for d in scan(model, frame, ScanConfig(bias=1.0))}
    assert high <= low


def test_scan_emits_in_level_row_col_order(rng):
    frame = rand_image(rng, 70, 50)
    model = random_model(random.Random(17), n_stages=3)
    dets = scan(model, frame, ScanConfig(bias=float("-inf")))
    keys = [(d.box.w, d.box.y, d.box.x) for d in dets]
    assert keys == sorted(keys)


def test_detection_on_planted_target():
    samples = training_samples(60, 120, seed=21)
    result = train_detector(samples, 12, LearnerConfig(
        family=FeatureKind.HAAR, population_size=40, generations=10, seed=5))
    frame, boxes = frame_sequence(1, seed=33)[0]
    dets = nms(scan(result.model, frame, ScanConfig(bias=0.0)))
    assert any(iou(d.box, b) >= 0.5 for d in dets for b in boxes)


def test_nms_single_and_disjoint():
    d1 = Detection(Rect(0, 0, 10, 10), 1.0)
    d2 = Detection(Rect(50, 50, 10, 10), 0.5)
    assert list(nms(record([d1]))) == [d1]
    assert list(nms(record([d1, d2]))) == [d1, d2]


def test_nms_identical_boxes_keeps_higher_margin():
    weak = Detection(Rect(4, 4, 10, 10), 0.5)
    strong = Detection(Rect(4, 4, 10, 10), 2.0)
    assert list(nms(record([weak, strong]))) == [strong]


def test_nms_tie_prefers_scan_order():
    first = Detection(Rect(0, 0, 10, 10), 1.0)
    second = Detection(Rect(1, 0, 10, 10), 1.0)
    assert list(nms(record([first, second]))) == [first]


@given(seed=st.integers(0, 2 ** 32 - 1), thr=st.floats(0.1, 0.9))
@settings(max_examples=100, deadline=None)
def test_nms_output_properties(seed, thr):
    py = random.Random(seed)
    dets = []
    for _ in range(py.randint(0, 25)):
        w = py.randint(1, 30)
        h = py.randint(1, 30)
        dets.append(Detection(Rect(py.randint(0, 40), py.randint(0, 40), w, h),
                              py.uniform(-3, 3)))
    kept = list(nms(record(dets), overlap_threshold=thr))
    assert all(d in dets for d in kept)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert iou(a.box, b.box) < thr
    # anything dropped overlaps something kept with at least the threshold
    for d in dets:
        if d not in kept:
            assert any(iou(d.box, k.box) >= thr for k in kept)


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -0.5, 1.5, float("inf")])
def test_nms_rejects_threshold_outside_unit_interval(bad):
    disjoint = record([Detection(Rect(0, 0, 10, 10), 1.0), Detection(Rect(50, 50, 10, 10), 0.5)])
    with pytest.raises(ValueError, match="overlap_threshold"):
        nms(disjoint, overlap_threshold=bad)
    assert list(nms(disjoint, overlap_threshold=1.0)) == list(disjoint)


def _loop_nms(detections, overlap_threshold):
    # reference: greedy NMS as a loop over the boxes kept so far
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].margin, i))
    kept = []
    for i in order:
        d = detections[i]
        if all(iou(d.box, k.box) < overlap_threshold for k in kept):
            kept.append(d)
    return kept


_nms_box = st.builds(Rect, st.integers(0, 30), st.integers(0, 30),
                     st.integers(1, 20), st.integers(1, 20))
# few distinct margins, so ties are common, and both signed zeros
_nms_margin = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, math.inf, -math.inf])
# IoUs of small boxes hit these exactly
_nms_threshold = (st.floats(0.0, 1.0, exclude_min=True)
                  | st.sampled_from([1.0, 0.5, 1 / 3, 0.25, 5e-324]))


def test_nms_signed_zero_margins_tie():
    # equal rows, so only the sign of the kept zero shows which one was kept
    dets = [Detection(Rect(0, 0, 10, 10), 0.0), Detection(Rect(0, 0, 10, 10), -0.0)]
    kept = nms(record(dets))
    assert len(kept) == 1 and math.copysign(1.0, kept.margins[0]) == 1.0
    assert math.copysign(1.0, nms(record(dets[::-1])).margins[0]) == -1.0


def test_nms_rejects_nan_margin():
    # the record itself refuses the NaN, before nms sees it
    dets = [Detection(Rect(0, 0, 10, 10), 1.0), Detection(Rect(50, 50, 10, 10), math.nan)]
    with pytest.raises(ValueError, match=r"^margins\[1\] is NaN$"):
        nms(record(dets))


def test_nms_orders_infinite_margins():
    low = Detection(Rect(0, 0, 10, 10), -math.inf)
    high = Detection(Rect(1, 0, 10, 10), math.inf)
    apart = Detection(Rect(50, 50, 10, 10), 0.0)
    assert list(nms(record([low, apart, high]))) == [high, apart]


@pytest.mark.parametrize("box", [(MAX_COORD, 0, 1, 1), (0, 0, 1, MAX_COORD),
                                 (2 ** 64, 0, 1, 1)])
def test_nms_rejects_boxes_beyond_exact_iou(box):
    # the Rect itself refuses the box, before nms sees it
    with pytest.raises(ValueError, match="must lie below"):
        nms(record([Detection(Rect(0, 0, 10, 10), 1.0), Detection(Rect(*box), 0.5)]))
    edge = Detection(Rect(MAX_COORD - 1, 0, MAX_COORD - 1, MAX_COORD - 1), 0.5)
    assert list(nms(record([edge, edge]))) == [edge]


def test_nms_memory_stays_linear():
    # 6,400 overlapping boxes on a 2-pixel grid: an n x n float IoU
    # matrix alone would be 330 MB
    dets = record([Detection(Rect(2 * (i % 80), 2 * (i // 80), 16, 12), float(i % 7))
                   for i in range(6400)])
    tracemalloc.start()
    try:
        kept = nms(dets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 1 < len(kept) < len(dets)
    assert peak < 4 * 2 ** 20


@given(boxes=st.lists(_nms_box, min_size=1, max_size=12),
       picks=st.lists(st.tuples(st.integers(0, 11), _nms_margin), max_size=80),
       thr=_nms_threshold)
@settings(max_examples=300, deadline=None)
def test_nms_matches_loop_over_kept_boxes(boxes, picks, thr):
    # drawing from a few boxes makes duplicates common
    dets = [Detection(boxes[i % len(boxes)], m) for i, m in picks]
    _assert_nms_keeps_the_loop_rows(dets, thr)


@given(boxes=st.lists(_nms_box, min_size=1, max_size=12),
       picks=st.lists(st.tuples(st.integers(0, 11), _nms_margin), max_size=80),
       thr=_nms_threshold)
@settings(max_examples=300, deadline=None)
def test_nms_on_arrays_keeps_the_loop_rows(boxes, picks, thr):
    # a record built straight from int32 box rows and a margin list, not
    # through ``record``: the stored copies are int64 and float64 all the same
    dets = [Detection(boxes[i % len(boxes)], m) for i, m in picks]
    form = Detections(np.array([astuple(d.box) for d in dets], dtype=np.int32).reshape(-1, 4),
                      [d.margin for d in dets])
    _assert_nms_keeps_the_loop_rows(dets, thr, form)


def _assert_nms_keeps_the_loop_rows(dets, thr, form=None):
    want = _loop_nms(dets, thr)
    form = record(dets) if form is None else form
    got = nms(form, overlap_threshold=thr)
    assert isinstance(got, Detections)
    # equal rows in the same order; the signed zeros must agree too
    assert list(got) == want
    assert [math.copysign(1.0, m) for m in got.margins] == [
        math.copysign(1.0, d.margin) for d in want]
    # in input order, the same rows sorted by their input positions
    position = {id(d): i for i, d in enumerate(dets)}
    in_input_order = sorted(want, key=lambda d: position[id(d)])
    assert list(nms(form, overlap_threshold=thr, input_order=True)) == in_input_order


# margins with many ties and both signed zeros
_TIED_MARGINS = (-1.5, -0.0, 0.0, 0.5, 2.0)


@pytest.fixture(scope="module")
def frame_windows():
    """Every window an all-pass scan of a 128x96 frame reports, in scan order."""
    return [Rect(x, y, w, h) for w, h, stride in pyramid_levels(128, 96, ScanConfig())
            for y in range(0, 96 - h + 1, stride) for x in range(0, 128 - w + 1, stride)]


@pytest.mark.parametrize("thr", [0.5, 1 / 3, 1.0, 5e-324])
def test_nms_is_exact_on_every_window_of_a_frame(frame_windows, thr):
    py = random.Random(41)
    dets = [Detection(box, py.choice(_TIED_MARGINS)) for box in frame_windows]
    assert len(dets) >= 4000
    _assert_nms_keeps_the_loop_rows(dets, thr)


@pytest.mark.parametrize("n", [NMS_BLOCK - 1, NMS_BLOCK, NMS_BLOCK + 1, 2 * NMS_BLOCK])
@pytest.mark.parametrize("thr", [0.5, 1 / 3, 1.0, 5e-324])
def test_nms_is_exact_around_the_block_size(n, thr):
    # boxes crowded into a small square, so most pairs overlap and some repeat
    py = random.Random(n)
    for _ in range(40):
        dets = [Detection(Rect(py.randint(0, 6), py.randint(0, 6), py.randint(1, 6),
                               py.randint(1, 6)), py.choice(_TIED_MARGINS)) for _ in range(n)]
        _assert_nms_keeps_the_loop_rows(dets, thr)


_far_box = st.builds(Rect, st.integers(0, MAX_COORD - 1), st.integers(0, MAX_COORD - 1),
                     st.integers(1, MAX_COORD - 1), st.integers(1, MAX_COORD - 1))
# boxes near one another, so that most pairs overlap
_near_box = st.builds(Rect, st.integers(MAX_COORD - 40, MAX_COORD - 1),
                      st.integers(0, 40), st.integers(1, MAX_COORD - 1), st.integers(1, 40))


@given(dets=st.lists(_far_box | _near_box, min_size=1, max_size=6),
       truth=st.lists(_far_box | _near_box, max_size=6))
@settings(max_examples=300, deadline=None)
def test_corner_iou_is_iou_bit_for_bit(dets, truth):
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64).tolist()

    # one keep against the live rows, as in nms
    rows = box_corners(rect_rows(dets))
    got = corner_iou(rows[:, :1, None], rows[:, None, :])
    assert bits(got) == bits([[iou(dets[0], b) for b in dets]])
    # detections x truth, as in the evaluation's matching
    got = corner_iou(rows[:, :, None], box_corners(rect_rows(truth))[:, None, :])
    assert bits(got) == bits(np.reshape([[iou(d, t) for t in truth] for d in dets],
                                        (len(dets), len(truth))))


def test_indexing_detections_checks_no_row_again(rng, monkeypatch):
    dets = scan(random_model(random.Random(23), n_stages=3), rand_image(rng, 60, 44),
                ScanConfig(bias=float("-inf")))
    calls = []
    monkeypatch.setattr("boostdet.detector.rect_rows_problem", calls.append)
    rows = list(dets)
    picks = [dets[1:7:2], dets[np.array([4, 0, 4])], dets[dets.margins > 0], dets[...],
             nms(dets)]
    assert calls == []
    assert [list(p) for p in picks[:3]] == [rows[1:7:2], [rows[4], rows[0], rows[4]],
                                            [d for d in rows if d.margin > 0]]
    for picked in picks:
        # read-only copies, never views of the source record
        for array, source in ((picked.boxes, dets.boxes), (picked.margins, dets.margins)):
            assert not array.flags.writeable and not np.shares_memory(array, source)
        assert picked.boxes.dtype == np.int64 and picked.margins.dtype == np.float64
    for bad in (None, np.zeros((2, 2), dtype=np.intp), (Ellipsis, None)):
        with pytest.raises(IndexError, match="must select rows"):
            dets[bad]


def _scan_reference(model, frame, cfg):
    """``scan`` as a list of ``Detection``, one window at a time."""
    ii = build_integral(frame)
    out = []
    for win_w, win_h, stride in pyramid_levels(frame.width, frame.height, cfg):
        for y in range(0, frame.height - win_h + 1, stride):
            for x in range(0, frame.width - win_w + 1, stride):
                win = Rect(x, y, win_w, win_h)
                margin = float(vote(model, ii.window(win)))
                if margin > cfg.bias:
                    out.append(Detection(box=win, margin=margin))
    return out


def test_scan_returns_detections_equal_to_the_list(rng):
    frame = rand_image(rng, 70, 50)
    model = random_model(random.Random(19), n_stages=5)
    for bias in (float("-inf"), -1.0, 0.5):
        cfg = ScanConfig(bias=bias)
        got = scan(model, frame, cfg)
        want = _scan_reference(model, frame, cfg)
        assert isinstance(got, Detections)
        assert list(got) == want and len(got) == len(want) > 0
        # values of Python types, as a list of Detection holds them
        d = next(iter(got))
        assert type(d.margin) is float and all(type(v) is int for v in astuple(d.box))


def test_detections_index_and_slice(rng):
    dets = scan(random_model(random.Random(23), n_stages=3), rand_image(rng, 60, 44),
                ScanConfig(bias=float("-inf")))
    rows = list(dets)
    assert isinstance(dets[1:7:2], Detections) and list(dets[1:7:2]) == rows[1:7:2]
    picks = np.array([5, 0, 5, len(rows) - 1])
    assert isinstance(dets[picks], Detections)
    assert list(dets[picks]) == [rows[i] for i in picks]
    mask = dets.margins > 0
    assert list(dets[mask]) == [d for d in rows if d.margin > 0]
    assert list(dets[np.array([], dtype=np.intp)]) == []
    assert list(dets[:0]) == []
    # a record is not a list of rows: an integer selects no row axis
    for key in (0, len(rows)):
        with pytest.raises(IndexError):
            dets[key]


def test_detections_arrays_are_read_only_copies():
    boxes = np.array([[0, 0, 10, 10], [5, 5, 10, 10]])
    margins = np.array([1.0, 2.0])
    dets = Detections(boxes, margins)
    boxes[0, 0] = 7
    margins[0] = -1.0
    assert list(dets)[0] == Detection(Rect(0, 0, 10, 10), 1.0)
    assert dets.boxes.dtype == np.int64 and dets.margins.dtype == np.float64
    for array in (dets.boxes, dets.margins):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 3


@pytest.mark.parametrize("boxes, margins, message", [
    (np.zeros((2, 3), dtype=np.int64), [1.0, 2.0], r"shape \(n, 4\)"),
    (np.zeros(4, dtype=np.int64), [1.0], r"shape \(n, 4\)"),
    (np.zeros((1, 2, 4), dtype=np.int64), [1.0], r"shape \(n, 4\)"),
    ([[0, 0, 1, 1], [0, 0, 1, 1]], [1.0], "margins of shape"),
    ([[0, 0, 1, 1]], [1.0, 2.0], "margins of shape"),
    ([[0, 0, 1, 1]], [[1.0]], "margins of shape"),
    ([[0, 0, 1.5, 1]], [1.0], "integers"),
    ([[0, 0, 1, 1]], ["1.0"], "real numbers"),
    ([[0, 0, 1, 1], [-1, 0, 1, 1]], [1.0, 2.0], r"boxes\[1\]"),
    ([[0, 0, 1, 0]], [1.0], r"boxes\[0\]"),
    # two NaN rows: the first is named
    ([[0, 0, 1, 1]] * 4, [1.0, 0.5, math.nan, math.nan], r"^margins\[2\] is NaN$"),
])
def test_detections_reject_malformed_arrays(boxes, margins, message):
    with pytest.raises(ValueError, match=message):
        Detections(boxes, margins)


def test_nms_rejects_nan_margin_in_arrays():
    # the record itself refuses the NaN, before nms sees it
    boxes = np.array([[0, 0, 10, 10], [50, 50, 10, 10], [9, 9, 10, 10], [3, 3, 10, 10]])
    with pytest.raises(ValueError, match=r"^margins\[2\] is NaN$"):
        nms(Detections(boxes, np.array([1.0, 0.5, math.nan, math.nan], dtype=np.float32)))


def test_nms_rejects_array_boxes_beyond_exact_iou():
    dets = record([Detection(Rect(0, 0, 10, 10), 1.0), Detection(Rect(0, 0, 1, 1), 0.5)])
    # the record itself refuses the box, before nms sees it
    with pytest.raises(ValueError, match="must lie below"):
        nms(Detections(np.array([[0, 0, 10, 10], [MAX_COORD, 0, 1, 1]]), [1.0, 0.5]))
    assert list(nms(dets)) == list(dets)


def test_scan_config_bounds_pyramid_arithmetic(rng):
    for bad in (dict(scale_factor=float(MAX_COORD)), dict(scale_factor=1e308),
                dict(stride=MAX_COORD), dict(stride=10 ** 400)):
        with pytest.raises(ValueError, match="must lie in"):
            ScanConfig(**bad)
    # the largest accepted values still scan: one origin per level
    frame = rand_image(rng, 52, 40)
    model = random_model(random.Random(29), n_stages=2)
    cfg = ScanConfig(scale_factor=MAX_COORD - 1.0, stride=MAX_COORD - 1,
                     bias=float("-inf"))
    assert list(scan(model, frame, cfg)) == _scan_reference(model, frame, cfg)
    assert len(scan(model, frame, cfg)) == 1


def test_scan_keeps_no_state_between_frame_sizes(rng):
    # one model object over 128x96, then 100x80, then 128x96 again: its
    # kept plan and per-size geometry must give what fresh models give
    first = frame_sequence(1, seed=99)[0][0]
    frames = (first, rand_image(rng, 100, 80), first)
    cfg = ScanConfig(bias=-1.0)
    found = 0
    for family in ("haar", "cp", "symhaar", "nconnex"):
        text = fixture_model_text(family)
        model = parse_model(text)
        for frame in frames:
            got = scan(model, frame, cfg)
            want = scan(parse_model(text), frame, cfg)
            assert np.array_equal(got.boxes, want.boxes), family
            assert np.array_equal(got.margins, want.margins), family
            found += len(got)
    assert found > 0


def test_models_sharing_a_stack_scan_as_with_their_own(rng):
    # the four models read each level's views and sigma from one stack,
    # kept there by the first model that scans the level
    cfg = ScanConfig(bias=-1.0)
    found = 0
    for frame in (frame_sequence(1, seed=99)[0][0], rand_image(rng, 100, 80)):
        ii = build_integral(frame)
        for family in ("haar", "cp", "symhaar", "nconnex"):
            model = parse_model(fixture_model_text(family))
            got = scan(model, frame, cfg, ii=ii)
            want = scan(model, frame, cfg, ii=build_integral(frame))
            assert np.array_equal(got.boxes, want.boxes), family
            assert np.array_equal(got.margins, want.margins), family
            found += len(got)
        assert len(ii._levels) == len(pyramid_levels(frame.width, frame.height, cfg))
    assert found > 0


def test_models_sharing_a_stack_share_its_first_levels(monkeypatch, rng):
    # 69 levels: the first LEVEL_MEMO are built once for all four models,
    # the other 37 once per model, so 32 + 4 * 37 = 180 builds, not 4 * 69
    calls = []
    real = imaging.sliding_window_view
    monkeypatch.setattr(imaging, "sliding_window_view",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    frame = rand_image(rng, 128, 96)
    cfg = ScanConfig(scale_factor=1.02, bias=-1.0)
    levels = len(pyramid_levels(frame.width, frame.height, cfg))
    assert levels == 69
    ii = build_integral(frame)
    for family in ("haar", "cp", "symhaar", "nconnex"):
        scan(parse_model(fixture_model_text(family)), frame, cfg, ii=ii)
    assert len(calls) == 3 * 180  # pixels and both tables per level
    assert len(ii._levels) == LEVEL_MEMO


def test_scan_geometry_memo_stays_bounded(rng):
    py = random.Random(67)
    model = StrongClassifier(stages=tuple(
        Stage(alpha=0.5 + k, weak=WeakClassifier(random_feature(kind, py), 1))
        for k, kind in enumerate(FeatureKind)))
    frame = rand_image(rng, 96, 72)
    sizes = set()
    for factor in (1.01, 1.02, 1.05, 1.1, 1.25):
        cfg = ScanConfig(scale_factor=factor, bias=-math.inf)
        dets = scan(model, frame, cfg)
        sizes |= {(w, h) for w, h, _ in pyramid_levels(frame.width, frame.height, cfg)}
        assert all(len(batch._scaled) <= GEOMETRY_MEMO for batch, _, _ in model._plan)
        # evicted and rebuilt geometry scores as a fresh model does
        fresh = StrongClassifier(stages=model.stages)
        assert np.array_equal(dets.margins, scan(fresh, frame, cfg).margins)
    assert len(sizes) > GEOMETRY_MEMO


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# tracemalloc peak of scanning a random 512x512 frame with a freshly parsed
# symhaar fixture model (tables included), measured with the uint32 plain
# table and the in-place rectangle responses
SYMHAAR_512_PEAK = 35_963_429


def test_scan_peak_memory_on_a_large_frame():
    frame = rand_image(np.random.default_rng(1234), 512, 512)
    model = parse_model(fixture_model_text("symhaar"))
    assert _traced_peak(lambda: scan(model, frame)) <= 1.1 * SYMHAAR_512_PEAK


# peak of one chunk's ``fired`` on the largest level of a 512x512 frame, in
# units of P features x windows x 8 bytes: a uint32 gather of the 2P rects
# is one unit, the float64 means two and each pair's response one
CHUNK_PEAK_UNITS = {"haar": 3.5, "symhaar": 4.5}


@pytest.mark.parametrize("family", sorted(CHUNK_PEAK_UNITS))
def test_area_chunk_peak_in_feature_window_units(family):
    ii = build_integral(rand_image(np.random.default_rng(1234), 512, 512))
    level = ii.level(CANONICAL_W, CANONICAL_H, 2)
    model = parse_model(fixture_model_text(family))
    vote(model, ii.window(Rect(0, 0, CANONICAL_W, CANONICAL_H)))  # plan and geometry
    batch, fired_vote, _ = model._plan[0]
    unit = len(fired_vote) * level.sigma.size * 8
    assert _traced_peak(lambda: batch.fired(level)) <= CHUNK_PEAK_UNITS[family] * unit


def test_vote_buffer_is_not_the_largest_temporary():
    # on the largest level of a 512x512 frame the rectangle gather of one
    # chunk must stay the peak: the vote adds only its running margins
    ii = build_integral(rand_image(np.random.default_rng(1234), 512, 512))
    level = ii.level(CANONICAL_W, CANONICAL_H, 2)
    model = parse_model(fixture_model_text("symhaar"))
    vote(model, ii.window(Rect(0, 0, CANONICAL_W, CANONICAL_H)))  # plan and geometry
    batch, fired_vote, _ = model._plan[0]
    assert len(fired_vote) == 16
    gather_peak = _traced_peak(lambda: batch.fired(level))
    vote_peak = _traced_peak(lambda: vote(model, level))
    assert vote_peak <= gather_peak + 2 * level.sigma.nbytes


def test_scan_keeps_only_level_sigmas_on_the_callers_stack():
    frame = rand_image(np.random.default_rng(1234), 512, 512)
    model = parse_model(fixture_model_text("symhaar"))
    scan(model, frame)  # plan and geometry, which the model keeps
    tracemalloc.start()
    try:
        ii = build_integral(frame)
        built, _ = tracemalloc.get_traced_memory()
        scan(model, frame, ii=ii)
        retained = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    tables = ii.pixels.nbytes + ii.sums.nbytes + ii.squared_sums.nbytes
    sigmas = sum(level.sigma.nbytes for level in ii._levels.values())
    # beyond the sigmas, only each level's array objects and views
    assert retained <= sigmas + 8192 * len(ii._levels)
    assert retained <= 0.5 * tables
