import bisect
import itertools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostdet import evalkit
from boostdet.dataset import AnnotationError, parse_annotations
from boostdet.detector import Detection, Detections
from boostdet.evalkit import (
    GroundTruthFrame,
    MatchResult,
    PrPoint,
    RocPoint,
    _greedy_claims,
    auc,
    match_frame,
    pr_curve,
    roc_curve,
)
from boostdet.imaging import MAX_COORD, Rect
from conftest import record, records
from oracles import greedy_match

BOX = Rect(10, 10, 20, 20)


def det(x, y, w, h, margin=1.0):
    return Detection(Rect(x, y, w, h), margin)


def truth(*boxes, frame_id="f0"):
    return GroundTruthFrame(frame_id=frame_id, boxes=tuple(boxes))


def test_match_perfect():
    assert match_frame(record([det(10, 10, 20, 20)]), truth(BOX)) == MatchResult(1, 0, 0)


def test_match_disjoint():
    assert match_frame(record([det(50, 50, 5, 5)]), truth(BOX)) == MatchResult(0, 1, 1)


def test_match_one_to_one():
    two = [det(10, 10, 20, 20, margin=2.0), det(11, 10, 20, 20, margin=1.0)]
    assert match_frame(record(two), truth(BOX)) == MatchResult(1, 1, 0)


def test_match_prefers_higher_margin():
    # the stronger detection claims the box even if listed second
    dets = [det(11, 10, 20, 20, margin=0.5), det(10, 10, 20, 20, margin=5.0)]
    result = match_frame(record(dets), truth(BOX))
    assert result == MatchResult(1, 1, 0)


def test_match_empty_inputs():
    assert match_frame(record([]), truth(BOX)) == MatchResult(0, 0, 1)
    assert match_frame(record([det(0, 0, 4, 4)]), truth()) == MatchResult(0, 1, 0)
    assert match_frame(record([]), truth()) == MatchResult(0, 0, 0)


def _random_case(py: random.Random):
    dets = [det(py.randint(0, 50), py.randint(0, 50), py.randint(4, 30),
                py.randint(4, 30), margin=py.uniform(-2, 2))
            for _ in range(py.randint(0, 12))]
    boxes = [Rect(py.randint(0, 50), py.randint(0, 50), py.randint(4, 30),
                  py.randint(4, 30)) for _ in range(py.randint(0, 6))]
    return dets, boxes


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_match_cardinalities(seed):
    py = random.Random(seed)
    dets, boxes = _random_case(py)
    r = match_frame(record(dets), truth(*boxes))
    assert r.tp <= min(len(dets), len(boxes))
    assert r.tp + r.fn == len(boxes)
    assert r.tp + r.fp == len(dets)


def test_match_scale_invariance():
    py = random.Random(77)
    for _ in range(200):
        dets, boxes = _random_case(py)
        scaled_dets = [Detection(Rect(d.box.x * 2, d.box.y * 2, d.box.w * 2,
                                      d.box.h * 2), d.margin) for d in dets]
        scaled_boxes = [Rect(b.x * 2, b.y * 2, b.w * 2, b.h * 2) for b in boxes]
        assert match_frame(record(dets), truth(*boxes)) == match_frame(
            record(scaled_dets), truth(*scaled_boxes))


def _curve_fixture(py: random.Random, n_frames: int = 6):
    detections = {}
    truths = []
    for i in range(n_frames):
        fid = f"frame{i}"
        dets, boxes = _random_case(py)
        detections[fid] = dets
        truths.append(GroundTruthFrame(frame_id=fid, boxes=tuple(boxes)))
    return detections, truths


def test_roc_sentinel_points():
    py = random.Random(5)
    detections, truths = _curve_fixture(py)
    points = roc_curve(records(detections), truths)
    assert points[0].tpr == 0.0 and points[0].fp_per_frame == 0.0
    # the lowest bias keeps every detection
    total = sum(len(v) for v in detections.values())
    last = points[-1]
    tp = sum(match_frame(record(detections[t.frame_id]), t).tp for t in truths)
    assert last.fp_per_frame == pytest.approx((total - tp) / len(truths))


def test_roc_matches_brute_force_recount():
    py = random.Random(9)
    detections, truths = _curve_fixture(py, n_frames=5)
    points = roc_curve(records(detections), truths)
    total_truth = sum(len(t.boxes) for t in truths)
    for p in points:
        tp = fp = 0
        for t in truths:
            kept = [d for d in detections[t.frame_id] if d.margin > p.bias]
            r = match_frame(record(kept), t)
            tp += r.tp
            fp += r.fp
        assert p.tpr == pytest.approx(tp / total_truth if total_truth else 0.0)
        assert p.fp_per_frame == pytest.approx(fp / len(truths))


def test_roc_monotone_as_bias_drops():
    py = random.Random(13)
    for _ in range(30):
        detections, truths = _curve_fixture(py, n_frames=4)
        points = roc_curve(records(detections), truths)
        for a, b in zip(points, points[1:]):
            assert b.bias <= a.bias or math.isinf(a.bias)
            assert b.tpr >= a.tpr - 1e-15
            assert b.fp_per_frame >= a.fp_per_frame - 1e-15


def test_pr_conventions():
    detections = {"f0": record([det(10, 10, 20, 20, margin=1.0)])}
    truths = [truth(BOX)]
    points = pr_curve(detections, truths)
    assert points[0].recall == 0.0 and points[0].precision == 1.0  # nothing kept
    assert points[-1].recall == 1.0 and points[-1].precision == 1.0


def test_pr_example_eight_two_two():
    # 10 truths in one frame, 8 hit, 2 missed, 2 false alarms
    boxes = [Rect(i * 40, 0, 20, 20) for i in range(10)]
    dets = [det(i * 40, 0, 20, 20, margin=2.0) for i in range(8)]
    dets += [det(i * 40, 500, 20, 20, margin=1.5) for i in range(2)]
    points = pr_curve({"f0": record(dets)}, [truth(*boxes)], bias_sweep=[0.0])
    assert points[0].precision == pytest.approx(0.8)
    assert points[0].recall == pytest.approx(0.8)


def test_pr_all_points_in_unit_square():
    py = random.Random(17)
    detections, truths = _curve_fixture(py)
    for p in pr_curve(records(detections), truths):
        assert 0.0 <= p.recall <= 1.0
        assert 0.0 <= p.precision <= 1.0


def test_auc_triangle_and_rectangle():
    tri = [RocPoint(bias=1.0, fp_per_frame=0.0, tpr=0.0),
           RocPoint(bias=0.0, fp_per_frame=1.0, tpr=1.0)]
    assert auc(tri) == pytest.approx(0.5)
    rect = [RocPoint(bias=1.0, fp_per_frame=0.0, tpr=1.0),
            RocPoint(bias=0.0, fp_per_frame=2.0, tpr=1.0)]
    assert auc(rect) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        auc(tri[:1])


def test_auc_matches_riemann_oracle():
    import numpy as np

    py = random.Random(23)
    for _ in range(30):
        gaps = [py.uniform(0.1, 1.0) for _ in range(7)]
        xs = [0.0]
        for g in gaps:
            xs.append(xs[-1] + g)
        ys = sorted(py.uniform(0, 1) for _ in range(8))
        points = [RocPoint(bias=-i, fp_per_frame=x, tpr=y)
                  for i, (x, y) in enumerate(zip(xs, ys))]
        got = auc(points)
        # fine midpoint rectangle sum over the same piecewise-linear curve,
        # normalized the same way (x axis scaled to [0, 1])
        steps = 2_000_000
        max_x = xs[-1]
        grid = (np.arange(steps) + 0.5) / steps * max_x
        total = float(np.interp(grid, xs, ys).sum()) / steps
        assert got == pytest.approx(total, abs=1e-6)


def test_auc_zero_fp_curve_degenerates_to_best_tpr():
    points = [RocPoint(bias=1.0, fp_per_frame=0.0, tpr=0.2),
              RocPoint(bias=0.0, fp_per_frame=0.0, tpr=0.9)]
    assert auc(points) == pytest.approx(0.9)


def test_default_sweep_has_sentinels():
    detections = {"f0": record([det(0, 0, 5, 5, margin=1.0), det(0, 0, 5, 5, margin=2.0)])}
    sweep = [p.bias for p in roc_curve(detections, [])]
    assert sweep[0] == math.inf and sweep[-1] == -math.inf
    assert sweep[1:-1] == [2.0, 1.0]


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -0.5, 1.5, float("inf")])
def test_iou_threshold_outside_unit_interval_is_rejected(bad):
    with pytest.raises(ValueError, match="iou_threshold"):
        match_frame(record([det(10, 10, 20, 20)]), truth(BOX), iou_threshold=bad)
    with pytest.raises(ValueError, match="iou_threshold"):
        roc_curve({"f0": record([det(10, 10, 20, 20)])}, [truth(BOX)], iou_threshold=bad)
    with pytest.raises(ValueError, match="iou_threshold"):
        pr_curve({}, [], iou_threshold=bad)
    assert (match_frame(record([det(10, 10, 20, 20)]), truth(BOX), iou_threshold=1.0)
            == MatchResult(1, 0, 0))


def test_curves_reject_nan_margin():
    dets = records({"f0": [det(10, 10, 20, 20)],
                    "f1": [det(10, 10, 20, 20), det(0, 0, 5, 5, math.nan)]})
    for curve in (roc_curve, pr_curve):
        with pytest.raises(ValueError,
                           match=r"detections\['f1'\]\[1\] has a NaN margin: Detection\("):
            curve(dets, [truth(BOX)])


def test_match_rejects_nan_margin():
    # with the NaN first, the greedy order would give tp=1; reversed, tp=2
    t = truth(Rect(0, 0, 10, 10), Rect(3, 0, 10, 10))
    dets = [det(1, 0, 10, 10, math.nan), det(0, 0, 8, 10, 1.0)]
    assert match_frame(record(dets[1:]), t) == MatchResult(1, 0, 1)
    for order in (dets, dets[::-1]):
        with pytest.raises(ValueError, match="has a NaN margin"):
            match_frame(record(order), t)


def test_curves_accept_infinite_margins():
    # +inf clears every finite bias and -inf none, as the sweep's sentinels do
    dets = {"f0": record([det(10, 10, 20, 20, math.inf), det(60, 60, 5, 5, -math.inf)])}
    assert roc_curve(dets, [truth(BOX)], bias_sweep=[1.0, -1.0]) == [
        RocPoint(1.0, 0.0, 1.0), RocPoint(-1.0, 0.0, 1.0)]
    assert [(p.recall, p.precision) for p in pr_curve(dets, [truth(BOX)])] == [
        (0.0, 1.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0)]


def _per_frame_sweep(detections, truths, bias_sweep, iou_threshold):
    """The sweep as a per-frame bisection summed over frames at every bias."""
    truth_by_id = {t.frame_id: t.boxes for t in truths}
    frame_ids = sorted(set(truth_by_id) | set(detections))
    frames = []
    for fid in frame_ids:
        dets = detections.get(fid, record([]))
        order, claims = _greedy_claims(dets, truth_by_id.get(fid, ()), iou_threshold)
        frames.append(([-dets[i].margin for i in order],
                       list(itertools.accumulate(claims, initial=0))))
    total_truth = sum(len(truth_by_id.get(fid, ())) for fid in frame_ids)
    if not frame_ids:
        return [], total_truth, 0
    if bias_sweep is None:
        margins = {m for dets in detections.values() for m in dets.margins.tolist()}
        bias_sweep = [math.inf] + sorted(margins, reverse=True) + [-math.inf]
    points = []
    for bias in bias_sweep:
        tp = fp = 0
        for neg_margins, cum_tp in frames:
            kept = bisect.bisect_left(neg_margins, -bias)
            tp += cum_tp[kept]
            fp += kept - cum_tp[kept]
        points.append((bias, tp, fp))
    return points, total_truth, len(frame_ids)


_small_box = st.builds(Rect, st.integers(0, 12), st.integers(0, 12),
                       st.integers(1, 10), st.integers(1, 10))
# few distinct margins, so ties across and within frames are common
_margin = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.5]) | st.floats(-5, 5)
_frame_ids = st.sampled_from(["a", "b", "c", "d"])


@given(detections=st.dictionaries(_frame_ids, st.lists(
           st.builds(Detection, _small_box, _margin), max_size=8), max_size=4),
       truths=st.lists(st.builds(GroundTruthFrame, _frame_ids,
                                 st.lists(_small_box, max_size=4)), max_size=4,
                       unique_by=lambda t: t.frame_id),
       bias_sweep=st.none() | st.lists(
           _margin | st.sampled_from([math.inf, -math.inf]), max_size=8),
       iou_threshold=st.sampled_from([0.1, 0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_curves_match_per_frame_sweep(detections, truths, bias_sweep, iou_threshold):
    detections = records(detections)
    got = (roc_curve(detections, truths, bias_sweep, iou_threshold),
           pr_curve(detections, truths, bias_sweep, iou_threshold))
    with mock.patch.object(evalkit, "_sweep", _per_frame_sweep):
        want = (roc_curve(detections, truths, bias_sweep, iou_threshold),
                pr_curve(detections, truths, bias_sweep, iou_threshold))
    # repr, because a NaN bias is never equal to itself
    assert repr(got) == repr(want)


def test_arrays_with_nan_margin_are_rejected():
    dets = {"f0": record([det(10, 10, 20, 20)]),
            "f1": record([det(10, 10, 20, 20), det(0, 0, 5, 5, math.nan)])}
    for curve in (roc_curve, pr_curve):
        with pytest.raises(ValueError,
                           match=r"detections\['f1'\]\[1\] has a NaN margin: Detection\("):
            curve(dets, [truth(BOX)])
    t = truth(Rect(0, 0, 10, 10), Rect(3, 0, 10, 10))
    for order in ([det(1, 0, 10, 10, math.nan), det(0, 0, 8, 10, 1.0)],
                  [det(0, 0, 8, 10, 1.0), det(1, 0, 10, 10, math.nan)]):
        with pytest.raises(ValueError, match="has a NaN margin"):
            match_frame(record(order), t)


# few boxes, so equal boxes and IoU ties between truth boxes are common:
# (1, 0, 4, 4) overlaps (0, 0, 4, 4) and (2, 0, 4, 4) equally
_tie_box = st.sampled_from([Rect(0, 0, 4, 4), Rect(2, 0, 4, 4), Rect(1, 0, 4, 4),
                            Rect(0, 2, 4, 4), Rect(1, 1, 2, 2)]) | _small_box
# few margins, both signed zeros among them
_tie_margin = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
_tie_frame_ids = st.sampled_from(["a", "b"])


def _reference_curves(detections, truths, bias_sweep, iou_threshold):
    """Both curves recounted at every bias by ``oracles.greedy_match``."""
    truth_by_id = {t.frame_id: t.boxes for t in truths}
    frame_ids = sorted(set(truth_by_id) | set(detections))
    if bias_sweep is None:
        margins = {d.margin for dets in detections.values() for d in dets}
        bias_sweep = [math.inf] + sorted(margins, reverse=True) + [-math.inf]
    total_truth = sum(map(len, truth_by_id.values()))
    roc, pr = [], []
    for bias in bias_sweep if frame_ids else ():
        tp = fp = 0
        for fid in frame_ids:
            kept = [d for d in detections.get(fid, ()) if d.margin > bias]
            claims = greedy_match(kept, truth_by_id.get(fid, ()), iou_threshold)
            tp += sum(claims)
            fp += len(claims) - sum(claims)
        tpr = tp / total_truth if total_truth else 0.0
        roc.append(RocPoint(bias, fp / len(frame_ids), tpr))
        pr.append(PrPoint(bias, tpr, tp / (tp + fp) if tp + fp else 1.0))
    return roc, pr


def test_match_breaks_iou_ties_by_lower_truth_index():
    # the first detection overlaps both truths by 0.6; the box it takes
    # decides whether the second, equal to (0, 0, 4, 4), finds a match
    dets = [det(1, 0, 4, 4, margin=2.0), det(0, 0, 4, 4, margin=0.5)]
    left, right = Rect(0, 0, 4, 4), Rect(2, 0, 4, 4)
    assert match_frame(record(dets), truth(left, right)) == MatchResult(1, 1, 1)
    assert match_frame(record(dets), truth(right, left)) == MatchResult(2, 0, 0)


def test_match_takes_equal_margins_in_input_order():
    # the same pair as above, with margins that tie (both signed zeros)
    dets = [det(1, 0, 4, 4, margin=0.0), det(0, 0, 4, 4, margin=-0.0)]
    boxes = Rect(0, 0, 4, 4), Rect(2, 0, 4, 4)
    assert match_frame(record(dets), truth(*boxes)) == MatchResult(1, 1, 1)
    assert match_frame(record(dets[::-1]), truth(*boxes)) == MatchResult(2, 0, 0)


@example(detections={"a": [Detection(Rect(1, 0, 4, 4), 2.0), Detection(Rect(0, 0, 4, 4), 0.5)]},
         truths=[GroundTruthFrame("a", (Rect(0, 0, 4, 4), Rect(2, 0, 4, 4)))],
         bias_sweep=None, iou_threshold=0.5)
@example(detections={"a": [Detection(Rect(1, 0, 4, 4), 0.0), Detection(Rect(0, 0, 4, 4), -0.0)]},
         truths=[GroundTruthFrame("a", (Rect(0, 0, 4, 4), Rect(2, 0, 4, 4)))],
         bias_sweep=[1.0, -0.0, -1.0], iou_threshold=0.5)
@given(detections=st.dictionaries(_tie_frame_ids, st.lists(
           st.builds(Detection, _tie_box, _tie_margin), max_size=8), max_size=2),
       truths=st.lists(st.builds(GroundTruthFrame, _tie_frame_ids,
                                 st.lists(_tie_box, max_size=4)), max_size=2,
                       unique_by=lambda t: t.frame_id),
       bias_sweep=st.none() | st.lists(
           _tie_margin | st.sampled_from([math.inf, -math.inf]), max_size=6),
       iou_threshold=st.sampled_from([5e-324, 0.1, 0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_matching_and_curves_match_greedy_reference(detections, truths, bias_sweep,
                                                    iou_threshold):
    for t in truths:
        dets = detections.get(t.frame_id, [])
        claims = greedy_match(dets, t.boxes, iou_threshold)
        tp = sum(claims)
        assert (match_frame(record(dets), t, iou_threshold)
                == MatchResult(tp, len(claims) - tp, len(t.boxes) - tp))
    want_roc, want_pr = _reference_curves(detections, truths, bias_sweep, iou_threshold)
    # repr, so a bias keeps its sign and type, and every count is a Python int
    given = records(detections)
    assert repr(roc_curve(given, truths, bias_sweep, iou_threshold)) == repr(want_roc)
    assert repr(pr_curve(given, truths, bias_sweep, iou_threshold)) == repr(want_pr)


@pytest.mark.parametrize("curve", [roc_curve, pr_curve])
def test_nan_bias_is_rejected_by_index(curve):
    dets = {"f0": record([det(10, 10, 20, 20)])}
    with pytest.raises(ValueError, match=r"bias_sweep\[2\] is NaN"):
        curve(dets, [truth(BOX)], bias_sweep=[1.0, math.inf, math.nan, -math.inf])
    with pytest.raises(ValueError, match=r"bias_sweep\[0\] is NaN"):
        curve({}, [], bias_sweep=[math.nan])
    # the infinities stay valid: nothing kept, then everything
    assert [p.bias for p in curve(dets, [truth(BOX)], [math.inf, -math.inf])] == [
        math.inf, -math.inf]


@pytest.mark.parametrize("curve", [roc_curve, pr_curve])
def test_repeated_truth_frame_id_is_rejected(curve):
    hit, far = Rect(10, 10, 20, 20), Rect(100, 100, 20, 20)
    with pytest.raises(ValueError, match="truths repeat frame_id 'a'"):
        curve({"a": record([det(10, 10, 20, 20)])},
              [truth(hit, frame_id="a"), truth(far, frame_id="a")])
    # both boxes in one record: one of two truths is found
    assert roc_curve({"a": record([det(10, 10, 20, 20)])}, [truth(hit, far, frame_id="a")],
                     [0.0]) == [RocPoint(0.0, 0.0, 0.5)]


@pytest.mark.parametrize("value", [MAX_COORD, 10 ** 30], ids=["2^26", "10^30"])
@pytest.mark.parametrize("field", range(4), ids=list("xywh"))
def test_truth_boxes_are_held_to_the_detection_bound(tmp_path, field, value):
    edge = [MAX_COORD - 1] * 4
    beyond = edge[:field] + [value] + edge[field + 1:]
    frame = GroundTruthFrame("f0", (Rect(*edge),))
    assert match_frame(record([Detection(Rect(*edge), 1.0)]), frame) == MatchResult(1, 0, 0)
    with pytest.raises(ValueError, match="must lie below"):
        GroundTruthFrame("f0", (Rect(*edge), Rect(*beyond)))
    path = tmp_path / "annotations.txt"
    lines = [f"f0 {' '.join(map(str, box))}\n" for box in (edge, beyond)]
    path.write_text("# frame x y w h\n" + lines[0])
    assert parse_annotations(path) == [frame]
    path.write_text("# frame x y w h\n" + "".join(lines))
    with pytest.raises(AnnotationError, match=rf"{re.escape(str(path))}:3: .*must lie below"):
        parse_annotations(path)


def test_evaluation_rejects_record_boxes_beyond_exact_iou():
    # the record itself refuses the box, before the evaluation sees it
    def far():
        return Detections(np.array([[10, 10, 20, 20], [MAX_COORD, 0, 1, 1]]), [1.0, 0.5])
    for evaluate in (lambda: match_frame(far(), truth(BOX)),
                     lambda: roc_curve({"f0": far()}, [truth(BOX)]),
                     lambda: pr_curve({"f0": far()}, [truth(BOX)])):
        with pytest.raises(ValueError, match="must lie below"):
            evaluate()


def test_each_frame_is_checked_once_and_no_rect_is_built():
    frame_records = {f"f{i}": record([det(10 + i, 10, 20, 20, 1.0), det(0, i, 20, 20, 0.5)])
                     for i in range(3)}
    truths = [truth(BOX, frame_id=f"f{i}") for i in range(4)]
    for evaluate, frames in ((lambda: roc_curve(frame_records, truths), 4),
                             (lambda: pr_curve(frame_records, truths, [0.75]), 4),
                             (lambda: match_frame(frame_records["f1"], truths[1]), 1)):
        with (mock.patch.object(Detections, "__init__", autospec=True,
                                side_effect=Detections.__init__) as build,
              mock.patch.object(evalkit, "check_margins",
                                side_effect=evalkit.check_margins) as margins,
              mock.patch.object(Rect, "__post_init__", autospec=True,
                                side_effect=Rect.__post_init__) as rect):
            evaluate()
        # the caller's records are read as they are: none is built or converted
        assert build.call_count == 0
        assert margins.call_count == frames
        assert rect.call_count == 0
