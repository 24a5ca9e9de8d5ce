"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime cap is asserted here.
"""

import itertools
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from boostdet.boosting import (
    LabeledSample,
    Stage,
    StrongClassifier,
    WeakClassifier,
    WeightDistribution,
    alpha,
    beta,
    update_weights,
    weak_predictions,
)
from boostdet.cli import main
from boostdet.detector import Detection, ScanConfig, nms, scan
from boostdet.evalkit import GroundTruthFrame, MatchResult, auc, match_frame, pr_curve, roc_curve
from boostdet.features import (
    CANONICAL_H,
    CANONICAL_W,
    FeatureBatch,
    FeatureKind,
    eval_batch,
    validate_chain,
)
from boostdet.imaging import GrayImage, Rect, WindowStack, build_integral, corner_sum
from boostdet.learner import LearnerConfig, derive_seed, random_feature, search_best
from boostdet.modelio import dump_model, parse_model
from boostdet.pipeline import train_detector
from boostdet.synthetic import frame_sequence, training_samples, write_dataset
from conftest import rand_image, rand_window, record, records, score
from oracles import haar_rule, point_classes, points_rule, symmetric_rule

FULL = Rect(0, 0, CANONICAL_W, CANONICAL_H)
DATA_SEED = 7
FRAME_SEED = 99
TRAIN_SEED = 3


def report(criterion: int, detail: str) -> None:
    print(f"[ACCEPTANCE {criterion}] PASS  {detail}")


# --------------------------------------------------------------------------
# 1. integral-image oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_1_integral_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(20):
        img = rand_image(rng, 64, 64)
        ii = build_integral(img)
        px = img.pixels.astype(np.int64)
        for _ in range(1000):
            w = int(rng.integers(1, 65))
            h = int(rng.integers(1, 65))
            r = Rect(x=int(rng.integers(0, 65 - w)), y=int(rng.integers(0, 65 - h)),
                     w=w, h=h)
            brute = int(px[r.y:r.y + r.h, r.x:r.x + r.w].sum())
            assert int(corner_sum(ii.window(r).sums, 0, 0, r.w, r.h)) == brute
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, f"{checked} rects on 20 images, exact integer equality, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. feature oracle equivalence, all four families
# --------------------------------------------------------------------------

def test_criterion_2_feature_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1002)
    py = random.Random(2002)
    for _ in range(1000):
        img = rand_window(rng)
        win = build_integral(img).window(FULL)
        fh = random_feature(FeatureKind.HAAR, py)
        assert eval_batch(fh, win) == haar_rule(img, FULL, fh.rect_a, fh.rect_b,
                                                fh.threshold)
        fc = random_feature(FeatureKind.CONTROL_POINTS, py)
        assert eval_batch(fc, win) == points_rule(
            img, fc.pos_points, fc.neg_points, fc.separation)
        fs = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
        assert eval_batch(fs, win) == symmetric_rule(img, FULL, fs)
        fn = random_feature(FeatureKind.CHAIN, py)
        assert eval_batch(fn, win) == points_rule(img, *point_classes(fn), fn.separation)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(2, f"4 families x 1000 pairs, boolean-exact vs pixel loops, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 3. AdaBoost algebra on a 200-sample set, 50 rounds, per family
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def samples200():
    return training_samples(100, 100, seed=11)


@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda f: f.value)
def test_criterion_3_adaboost_algebra(family, samples200):
    started = time.monotonic()
    samples = samples200
    config = LearnerConfig(family=family, seed=TRAIN_SEED)
    result = train_detector(samples, 50, config)
    assert result.model is not None

    stack = WindowStack.from_images([s.window for s in samples])
    labels = np.array([s.label for s in samples])

    def learner(stack, labels, dist, t):
        cfg = replace(config, seed=derive_seed(config.seed, t))
        return search_best(dist, stack, labels, cfg).weak

    # replay the exact loop to observe every distribution
    dist = WeightDistribution.uniform(len(samples))
    replayed = []
    for t in range(1, len(result.rounds) + 1):
        weak = learner(stack, labels, dist, t)
        fired = eval_batch(weak.feature, stack)
        preds = np.where(fired, weak.polarity, -weak.polarity)
        eps = float(dist.weights[preds != labels].sum())
        assert eps < 0.5
        if eps == 0.0:
            replayed.append(alpha(beta(1e-6)))
            break
        b = beta(eps)
        replayed.append(alpha(b))
        dist = update_weights(dist, preds == labels, b)
        # (a) normalization and (b) post-update half error, every round
        assert abs(float(dist.weights.sum()) - 1.0) <= 1e-12
        half = float(dist.weights[weak_predictions(weak, stack) != labels].sum())
        assert abs(half - 0.5) <= 1e-12

    for stage, a in zip(result.model.stages, replayed):
        assert stage.alpha == pytest.approx(a, abs=1e-12)

    # (c) the error bound holds in every logged round, (d) error hits zero
    for row in result.rounds:
        assert row.train_error <= row.bound + 1e-12
    zero_round = next((r.t for r in result.rounds if r.train_error == 0.0), None)
    assert zero_round is not None and zero_round <= 50

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(3, f"{family.value}: {len(result.rounds)} rounds, sum=1 and half-error "
              f"at 1e-12, bound held, zero train error at round {zero_round}, "
              f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. mirror-symmetry property of the symmetric family
# --------------------------------------------------------------------------

def symmetric_responses(f, img: GrayImage) -> list[float]:
    """The left, mirrored-right and middle responses of ``f`` on the window ``img``."""
    return [float(d[0]) for d in FeatureBatch([f]).responses(build_integral(img))]


def test_criterion_4_symmetry_property():
    started = time.monotonic()
    rng = np.random.default_rng(1004)
    py = random.Random(2004)
    eval_checked = 0
    for _ in range(1000):
        img = rand_window(rng)
        mirrored = GrayImage(np.fliplr(img.pixels).copy())
        f = random_feature(FeatureKind.SYMMETRIC_HAAR, py)
        d1, d2, _ = symmetric_responses(f, img)
        m1, m2, _ = symmetric_responses(f, mirrored)
        assert abs(d1 - m2) <= 1e-9
        assert abs(d2 - m1) <= 1e-9
        # self-mirror middle rects make the whole evaluation mirror-stable
        w_mid = int(py.randrange(1, CANONICAL_W // 2)) * 2
        mid = Rect((CANONICAL_W - w_mid) // 2, f.mid_a.y, w_mid, f.mid_a.h)
        g = replace(f, mid_a=mid, mid_b=mid)
        if (eval_batch(g, build_integral(img).window(FULL))
                == eval_batch(g, build_integral(mirrored).window(FULL))):
            eval_checked += 1
        else:
            raise AssertionError("mirror evaluation mismatch")
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(4, f"1000 windows, diffs swap within 1e-9, {eval_checked} mirror-stable "
              f"evaluations, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 5. chain constraint shrinks the search space (desk analogue)
# --------------------------------------------------------------------------

def test_criterion_5_search_space_reduction():
    started = time.monotonic()
    cells = list(itertools.product(range(5), range(5)))
    triples = list(itertools.permutations(cells, 3))
    chains = sum(1 for t in triples if validate_chain(t, width=5, height=5))
    # frozen brute-force fixtures for the 5x5 / 3-point case
    assert len(triples) == 13800
    assert chains == 768
    assert chains < len(triples)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(5, f"768 valid ordered chains < 13800 unconstrained triples, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 6. end-to-end desk-scale detection, all four families
# --------------------------------------------------------------------------

def test_criterion_6_end_to_end_detection():
    started = time.monotonic()
    samples = training_samples(100, 200, seed=DATA_SEED)
    frames = frame_sequence(200, seed=FRAME_SEED)
    truths = [GroundTruthFrame(frame_id=f"frame{i:04d}", boxes=tuple(b))
              for i, (_, b) in enumerate(frames)]
    cfg = ScanConfig(bias=-1.0)
    aucs = {}
    for family in FeatureKind:
        result = train_detector(samples, 50, LearnerConfig(family=family,
                                                           seed=TRAIN_SEED))
        assert result.model is not None
        assert result.rounds[0].epsilon <= 0.3  # round-1 search quality
        detections = {}
        for i, (frame, _) in enumerate(frames):
            detections[f"frame{i:04d}"] = nms(scan(result.model, frame, cfg))
        roc = roc_curve(detections, truths)
        pr = pr_curve(detections, truths)
        value = auc(roc)
        aucs[family.value] = value
        assert value > 0.9
        for a, b in zip(roc, roc[1:]):
            assert b.tpr >= a.tpr - 1e-15
            assert b.fp_per_frame >= a.fp_per_frame - 1e-15
        for p in pr:
            assert 0.0 <= p.recall <= 1.0 and 0.0 <= p.precision <= 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    ordering = sorted(aucs, key=aucs.get, reverse=True)
    report(6, "AUCs " + ", ".join(f"{k}={v:.4f}" for k, v in aucs.items())
           + f"; informational ordering {ordering}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 7. cmd_train determinism across runs and worker counts
# --------------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    data = tmp_path / "data"
    write_dataset(str(data), n_pos=30, n_neg=60, n_frames=1, seed=5)
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"model_{name}.txt"
        rc = main(["train", "--family", "cp",
                   "--positives", str(data / "pos"), "--negatives", str(data / "neg"),
                   "--rounds", "6", "--population", "40", "--generations", "8",
                   "--seed", "17", "--out", str(out), "--workers", workers])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    report(7, "train twice and with --workers 1 vs 8: byte-identical model files")


# --------------------------------------------------------------------------
# 8. model round-trip preserves predictions, all families
# --------------------------------------------------------------------------

def test_criterion_8_model_round_trip():
    rng = np.random.default_rng(1008)
    py = random.Random(2008)
    windows = [LabeledSample(rand_window(rng), 1) for _ in range(100)]
    for family in FeatureKind:
        stages = tuple(Stage(alpha=py.uniform(0.001, 4.0),
                             weak=WeakClassifier(random_feature(family, py),
                                                 py.choice((-1, 1))))
                       for _ in range(10))
        model = StrongClassifier(stages=stages)
        back = parse_model(dump_model(model))
        assert back == model
        for s in windows:
            assert score(back, s) == score(model, s)
    report(8, "save/load reproduces scores exactly on 100 windows, 4 families")


# --------------------------------------------------------------------------
# 9. evaluation arithmetic on a hand-enumerated 10-frame fixture
# --------------------------------------------------------------------------

def _d(x, y, w=40, h=40, margin=1.0):
    return Detection(Rect(x, y, w, h), margin)


def test_criterion_9_evaluation_arithmetic():
    box = lambda x: Rect(x, 0, 40, 40)
    fixture = {
        "f0": ([_d(0, 0, margin=5.0)], [box(0)], MatchResult(1, 0, 0)),
        "f1": ([_d(10, 0, margin=4.0)], [box(0)], MatchResult(1, 0, 0)),  # IoU 0.6
        "f2": ([_d(200, 0, margin=3.0)], [box(0)], MatchResult(0, 1, 1)),
        "f3": ([_d(0, 0, margin=5.0), _d(2, 0, margin=4.0)], [box(0)],
               MatchResult(1, 1, 0)),
        "f4": ([_d(0, 0, margin=2.0)], [box(0), box(100)], MatchResult(1, 0, 1)),
        "f5": ([_d(0, 0, margin=1.0)], [], MatchResult(0, 1, 0)),
        "f6": ([], [box(0)], MatchResult(0, 0, 1)),
        "f7": ([_d(0, 0, margin=3.0), _d(100, 0, margin=2.0), _d(200, 0, margin=1.0)],
               [box(0), box(100), box(200)], MatchResult(3, 0, 0)),
        "f8": ([_d(20, 0, margin=2.0)], [box(0)], MatchResult(0, 1, 1)),  # IoU 1/3
        "f9": ([_d(0, 0, margin=3.0), _d(100, 0, margin=2.5), _d(300, 0, margin=0.5)],
               [box(0), box(100)], MatchResult(2, 1, 0)),
    }
    detections = {}
    truths = []
    tp = fp = fn = 0
    for fid, (dets, boxes, expected) in fixture.items():
        got = match_frame(record(dets), GroundTruthFrame(frame_id=fid, boxes=tuple(boxes)))
        assert got == expected, fid
        detections[fid] = dets
        truths.append(GroundTruthFrame(frame_id=fid, boxes=tuple(boxes)))
        tp += expected.tp
        fp += expected.fp
        fn += expected.fn
    assert (tp, fp, fn) == (9, 5, 4)

    roc = roc_curve(records(detections), truths, bias_sweep=[-math.inf])
    assert roc[0].tpr == pytest.approx(9 / 13)
    assert roc[0].fp_per_frame == pytest.approx(5 / 10)

    # the 8-hits / 2-extras / 2-missed arrangement from the examples
    boxes10 = [Rect(i * 100, 0, 40, 40) for i in range(10)]
    dets8 = [_d(i * 100, 0, margin=2.0) for i in range(8)]
    dets8 += [_d(i * 100, 500, margin=1.5) for i in range(2)]
    pr = pr_curve({"g": record(dets8)}, [GroundTruthFrame(frame_id="g", boxes=tuple(boxes10))],
                  bias_sweep=[0.0])
    assert pr[0].precision == pytest.approx(0.8)
    assert pr[0].recall == pytest.approx(0.8)
    report(9, "10-frame fixture tp/fp/fn = 9/5/4 exact; precision=recall=0.8 check")
