import copy
import math
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostdet import boosting
from boostdet.boosting import (
    VOTE_BUDGET,
    VOTE_CHUNK,
    LabeledSample,
    Stage,
    StrongClassifier,
    WeakClassifier,
    WeightDistribution,
    alpha,
    beta,
    train,
    update_weights,
    vote,
    weak_predictions,
)
from boostdet.features import (
    CANONICAL_H,
    CANONICAL_W,
    ControlPointsFeature,
    FeatureBatch,
    FeatureKind,
    eval_batch,
)
from boostdet.imaging import GrayImage, Rect, WindowStack, build_integral
from boostdet.learner import LearnerConfig, derive_seed, random_feature, search_best
from boostdet.modelio import dump_model, parse_model
from boostdet.pipeline import train_detector
from boostdet.synthetic import training_samples
from conftest import (classify, constant_image, fixture_model_text, rand_image, rand_window,
                      row_level, score)

PROBE = ControlPointsFeature(pos_points=((0, 0),), neg_points=((1, 1),), separation=100)


def probe_window(fires: bool) -> GrayImage:
    px = np.full((CANONICAL_H, CANONICAL_W), 128, dtype=np.uint8)
    if fires:
        px[0, 0] = 255
        px[1, 1] = 0
    return GrayImage(px)


def probe_sample(fires: bool, label: int) -> LabeledSample:
    return LabeledSample(probe_window(fires), label)


def predictions(h: WeakClassifier, samples) -> np.ndarray:
    """``weak_predictions`` over the crop stack of ``samples``."""
    return weak_predictions(h, WindowStack.from_images([s.window for s in samples]))


def weighted_error(h: WeakClassifier, dist: WeightDistribution, samples) -> float:
    """Sum of the weights of the samples ``h`` misclassifies."""
    labels = np.array([s.label for s in samples])
    return float(dist.weights[predictions(h, samples) != labels].sum())


def test_labeled_sample_validation(rng):
    with pytest.raises(ValueError):
        LabeledSample(constant_image(8, 8, 0), 1)
    with pytest.raises(ValueError):
        LabeledSample(rand_window(rng), 0)


def test_weight_distribution_invariants():
    with pytest.raises(ValueError):
        WeightDistribution(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        WeightDistribution(np.array([1.5, -0.5]))
    for bad in (np.nan, np.inf):
        # NaN fails both the sign and the sum test, so only a finiteness check catches it
        with pytest.raises(ValueError, match="finite"):
            WeightDistribution(np.array([bad, 1.0]))
    d = WeightDistribution.uniform(4)
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_weak_predict_definitions():
    plus = WeakClassifier(feature=PROBE, polarity=1)
    minus = WeakClassifier(feature=PROBE, polarity=-1)
    firing_then_quiet = [probe_sample(True, 1), probe_sample(False, 1)]
    assert predictions(plus, firing_then_quiet).tolist() == [1, -1]
    assert predictions(minus, firing_then_quiet).tolist() == [-1, 1]


def test_weak_predict_sign_symmetry(rng):
    py = random.Random(41)
    for _ in range(100):
        f = random_feature(FeatureKind.HAAR, py)
        s = [LabeledSample(rand_window(rng), 1)]
        assert np.array_equal(predictions(WeakClassifier(f, -1), s),
                              -predictions(WeakClassifier(f, 1), s))


def test_weighted_error_cases():
    h = WeakClassifier(feature=PROBE, polarity=1)
    all_right = [probe_sample(True, 1), probe_sample(False, -1)]
    all_wrong = [probe_sample(True, -1), probe_sample(False, 1)]
    assert weighted_error(h, WeightDistribution.uniform(2), all_right) == 0.0
    assert weighted_error(h, WeightDistribution.uniform(2), all_wrong) == 1.0
    quarter = [probe_sample(True, 1), probe_sample(True, 1),
               probe_sample(True, 1), probe_sample(True, -1)]
    assert weighted_error(h, WeightDistribution.uniform(4), quarter) == pytest.approx(0.25)
    # outcomes for two samples cannot update three weights
    correct = predictions(h, all_right) == [s.label for s in all_right]
    with pytest.raises(ValueError, match="2 outcomes for 3 weights"):
        update_weights(WeightDistribution.uniform(3), correct, 0.5)


def test_beta_values():
    assert beta(0.25) == pytest.approx(1 / 3, rel=1e-15)
    assert beta(0.4999) == pytest.approx(0.4999 / 0.5001, rel=1e-15)
    assert beta(1e-6) == pytest.approx(1.000001000001e-06, rel=1e-9)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            beta(bad)


def test_alpha_values():
    assert alpha(1 / 3) == pytest.approx(math.log(3), rel=1e-15)
    assert alpha(0.999999) == pytest.approx(1e-6, rel=1e-3)
    for bad in (0.0, 1.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            alpha(bad)


def test_alpha_beta_identity(rng):
    for _ in range(100):
        eps = float(rng.uniform(1e-6, 0.4999))
        assert alpha(beta(eps)) == pytest.approx(math.log((1 - eps) / eps), abs=1e-12)


def test_update_weights_frozen_example():
    d = WeightDistribution.uniform(4)
    correct = [True, True, True, False]
    out = update_weights(d, correct, 1 / 3)
    assert np.allclose(out.weights, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-15)


def test_update_weights_all_correct_is_identity():
    d = WeightDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
    out = update_weights(d, [True] * 4, 0.25)
    assert np.allclose(out.weights, d.weights, atol=1e-15)


def test_update_weights_literal_variant_zeroes_mistakes():
    d = WeightDistribution.uniform(4)
    out = update_weights(d, [True, False, True, True], 0.5, literal_zero_update=True)
    assert out.weights[1] == 0.0
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="vanished"):
        update_weights(d, [False] * 4, 0.5, literal_zero_update=True)


def test_update_weights_half_error_property(rng):
    # after the update, the same mistake set carries exactly half the mass
    for _ in range(200):
        n = int(rng.integers(2, 40))
        raw = rng.random(n) + 1e-9
        d = WeightDistribution(raw / raw.sum())
        mistakes = rng.random(n) < 0.4
        if not mistakes.any() or mistakes.all():
            continue
        eps = float(d.weights[mistakes].sum())
        if not 0 < eps < 0.5:
            continue
        out = update_weights(d, ~mistakes, beta(eps))
        assert float(out.weights[mistakes].sum()) == pytest.approx(0.5, abs=1e-12)


def _const_learner(weak: WeakClassifier):
    return lambda stack, labels, dist, t: weak


def test_train_perfect_learner_stops_with_one_stage():
    samples = [probe_sample(True, 1), probe_sample(True, 1),
               probe_sample(False, -1), probe_sample(False, -1)]
    result = train(samples, 10, _const_learner(WeakClassifier(PROBE, 1)))
    assert result.model is not None and len(result.model.stages) == 1
    assert "perfect" in result.stop_reason
    assert result.rounds[0].epsilon == 0.0
    assert result.rounds[0].train_error == 0.0
    assert result.rounds[0].alpha == pytest.approx(math.log((1 - 1e-6) / 1e-6), rel=1e-12)


def test_train_coin_flip_learner_keeps_nothing():
    # the probe fires on one sample of each class: epsilon is exactly 1/2
    samples = [probe_sample(True, 1), probe_sample(False, 1),
               probe_sample(True, -1), probe_sample(False, -1)]
    result = train(samples, 5, _const_learner(WeakClassifier(PROBE, 1)))
    assert result.model is None
    assert result.rounds == []
    assert ">= 0.5" in result.stop_reason


def test_train_validates_inputs():
    samples = [probe_sample(True, 1), probe_sample(False, -1)]
    with pytest.raises(ValueError):
        train(samples, 0, _const_learner(WeakClassifier(PROBE, 1)))
    with pytest.raises(ValueError):
        train([probe_sample(True, 1)], 3, _const_learner(WeakClassifier(PROBE, 1)))


def test_train_hands_learner_its_stack_and_labels():
    samples = [probe_sample(True, 1), probe_sample(False, 1),
               probe_sample(True, -1), probe_sample(False, -1)]
    seen = []

    def learner(stack, labels, dist, t):
        seen.append((stack, labels, dist, t))
        return WeakClassifier(PROBE, 1)

    train(samples, 3, learner)
    assert len(seen) == 1  # epsilon 1/2 ends training after the first call
    stack, labels, dist, t = seen[0]
    assert t == 1 and len(stack) == len(samples)
    assert labels.tolist() == [1, 1, -1, -1]
    assert eval_batch(PROBE, stack).tolist() == [True, False, True, False]
    assert dist.weights.tolist() == [0.25] * 4


def test_train_detector_builds_the_stack_once(monkeypatch):
    samples = training_samples(10, 10, seed=3)
    built = []
    from_images = WindowStack.from_images.__func__

    def counting(cls, windows):
        built.append(len(windows))
        return from_images(cls, windows)

    monkeypatch.setattr(WindowStack, "from_images", classmethod(counting))
    result = train_detector(samples, 3, LearnerConfig(
        family=FeatureKind.HAAR, population_size=20, generations=3, seed=2))
    assert len(result.rounds) > 1
    assert built == [len(samples)]


def _search_learner(config: LearnerConfig):
    def learner(stack, labels, dist, t):
        cfg = replace(config, seed=derive_seed(config.seed, t))
        return search_best(dist, stack, labels, cfg).weak
    return learner


def test_train_replay_matches_and_keeps_invariants():
    samples = training_samples(30, 30, seed=5)
    stack = WindowStack.from_images([s.window for s in samples])
    labels = np.array([s.label for s in samples])
    config = LearnerConfig(family=FeatureKind.CHAIN, population_size=40,
                           generations=8, seed=2)
    learner = _search_learner(config)
    rounds = 8
    result = train(samples, rounds, learner)

    # replay the loop with the public pieces and compare trajectories
    dist = WeightDistribution.uniform(len(samples))
    replayed_alphas = []
    for t in range(1, len(result.rounds) + 1):
        weak = learner(stack, labels, dist, t)
        fired = eval_batch(weak.feature, stack)
        preds = np.where(fired, weak.polarity, -weak.polarity)
        eps = float(dist.weights[preds != labels].sum())
        assert weighted_error(weak, dist, samples) == pytest.approx(eps, abs=1e-12)
        if eps == 0.0 or eps >= 0.5:
            break
        b = beta(eps)
        replayed_alphas.append(alpha(b))
        dist = update_weights(dist, preds == labels, b)
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert weighted_error(weak, dist, samples) == pytest.approx(0.5, abs=1e-12)
    for got, expected in zip(result.model.stages, replayed_alphas):
        assert got.alpha == pytest.approx(expected, abs=1e-12)


def test_train_error_bounded_every_round():
    samples = training_samples(30, 30, seed=9)
    config = LearnerConfig(family=FeatureKind.CHAIN, population_size=40,
                           generations=8, seed=4)
    result = train_detector(samples, 10, config)
    assert result.rounds
    for row in result.rounds:
        assert row.train_error <= row.bound + 1e-12
        assert row.alpha > 0.0


def test_score_and_classify():
    firing = probe_sample(True, 1)
    one = StrongClassifier(stages=(Stage(2.0, WeakClassifier(PROBE, 1)),))
    assert score(one, firing) == 2.0
    assert classify(one, firing) == 1
    opposing = StrongClassifier(stages=(
        Stage(1.5, WeakClassifier(PROBE, 1)), Stage(1.5, WeakClassifier(PROBE, -1))))
    assert score(opposing, firing) == 0.0
    assert classify(opposing, firing) == -1  # tie rejects
    assert classify(one, firing, bias=1.9) == 1
    assert classify(one, firing, bias=2.0) == -1


def test_score_matches_direct_sum(rng):
    py = random.Random(43)
    for _ in range(100):
        stages = []
        for _ in range(py.randint(1, 6)):
            fam = py.choice(list(FeatureKind))
            stages.append(Stage(alpha=py.uniform(0.01, 3.0),
                                weak=WeakClassifier(random_feature(fam, py),
                                                    py.choice((-1, 1)))))
        model = StrongClassifier(stages=tuple(stages))
        sample = LabeledSample(rand_window(rng), 1)
        expected = sum(st.alpha * int(predictions(st.weak, [sample])[0])
                       for st in model.stages)
        assert score(model, sample) == expected


def test_classify_monotone_in_bias(rng):
    py = random.Random(47)
    sample = LabeledSample(rand_window(rng), 1)
    model = StrongClassifier(stages=(
        Stage(1.0, WeakClassifier(random_feature(FeatureKind.HAAR, py), 1)),))
    labels = [classify(model, sample, bias) for bias in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    # once it flips to -1 it stays -1
    assert labels == sorted(labels, reverse=True)


def test_training_is_deterministic():
    samples = training_samples(20, 30, seed=3)
    config = LearnerConfig(family=FeatureKind.HAAR, population_size=30,
                           generations=6, seed=8)
    a = train_detector(samples, 4, config)
    b = train_detector(samples, 4, config)
    assert a.model == b.model
    assert a.rounds == b.rounds


def test_train_error_matches_classify():
    # train keeps its own running margins; every round's train_error must
    # agree with classify on the model cut to that round, the last included
    samples = training_samples(20, 30, seed=5)
    result = train_detector(samples, 6, LearnerConfig(
        family=FeatureKind.HAAR, population_size=30, generations=6, seed=2))
    assert len(result.rounds) == len(result.model.stages) > 1
    for t, row in enumerate(result.rounds, start=1):
        model = StrongClassifier(stages=result.model.stages[:t])
        wrong = sum(classify(model, s) != s.label for s in samples)
        assert row.train_error == wrong / len(samples)


def _stage_by_stage(model: StrongClassifier, stack: WindowStack) -> np.ndarray:
    margins = np.zeros(stack.sigma.shape)
    for st in model.stages:
        margins += st.alpha * weak_predictions(st.weak, stack)
    return margins


@pytest.mark.parametrize("families", [
    "mixed",                                       # short runs of every family
    [FeatureKind.SYMMETRIC_HAAR] * 40,             # three chunks of one family
    [FeatureKind.HAAR] * 20 + [FeatureKind.CHAIN] * 3 + [FeatureKind.HAAR] * 17,
], ids=["mixed", "symhaar40", "runs"])
def test_vote_matches_stage_by_stage_sum(rng, families):
    py = random.Random(47)
    if families == "mixed":
        families = [py.choice(list(FeatureKind)) for _ in range(24)]
    model = StrongClassifier(stages=tuple(
        Stage(alpha=py.uniform(0.05, 2.0),
              weak=WeakClassifier(random_feature(kind, py), py.choice((-1, 1))))
        for kind in families))
    assert len(model.stages) > VOTE_CHUNK
    frame = rand_image(rng, 96, 72)
    stacks = [WindowStack.from_images([rand_window(rng) for _ in range(30)]),
              build_integral(frame).level(40, 30, 2)]
    for stack in stacks:
        # bit-for-bit: the same additions in the same order
        assert np.array_equal(vote(model, stack), _stage_by_stage(model, stack))


def _vote_stacks():
    """A crop stack, a scaled pyramid level and a single window (no leading axis)."""
    rng = np.random.default_rng(53)
    ii = build_integral(rand_image(rng, 96, 72))
    return {
        "crops": WindowStack.from_images([rand_window(rng) for _ in range(12)]),
        "level": ii.level(45, 34, 3),
        "window": ii.window(Rect(7, 5, 51, 38)),
    }


_VOTE_STACKS = _vote_stacks()


@st.composite
def _models(draw):
    # runs of one family, some longer than VOTE_CHUNK, cut to 1-40 stages
    runs = draw(st.lists(st.tuples(st.sampled_from(list(FeatureKind)),
                                   st.integers(1, 2 * VOTE_CHUNK + 3)), min_size=1, max_size=5))
    kinds = [kind for kind, n in runs for _ in range(n)][:40]
    py = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = len(kinds)
    alphas = draw(st.lists(st.floats(1e-12, 1e3), min_size=n, max_size=n))
    polarities = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return StrongClassifier(stages=tuple(
        Stage(alpha=a, weak=WeakClassifier(random_feature(kind, py), p))
        for kind, a, p in zip(kinds, alphas, polarities)))


@given(model=_models())
@settings(max_examples=60, deadline=None)
def test_vote_plan_matches_stage_by_stage_sum(model):
    # one plan serves every stack shape; alphas twelve orders of magnitude
    # apart make any reordering or pairwise summation show in the last bits
    for name, stack in _VOTE_STACKS.items():
        got = vote(model, stack)
        assert got.shape == stack.sigma.shape, name
        assert np.array_equal(got, _stage_by_stage(model, stack)), name


@st.composite
def _extreme_models(draw):
    # runs longer than VOTE_CHUNK, with the smallest subnormal, tiny and
    # huge alphas, so margins lose low bits and overflow to +-inf
    runs = draw(st.lists(st.tuples(st.sampled_from(list(FeatureKind)),
                                   st.integers(VOTE_CHUNK + 1, 2 * VOTE_CHUNK + 3)),
                         min_size=1, max_size=2))
    kinds = [kind for kind, n in runs for _ in range(n)]
    py = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = len(kinds)
    alphas = draw(st.lists(st.sampled_from((5e-324, 1e-300, 1e306, 1.7e308)),
                           min_size=n, max_size=n))
    polarities = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return StrongClassifier(stages=tuple(
        Stage(alpha=a, weak=WeakClassifier(random_feature(kind, py), p))
        for kind, a, p in zip(kinds, alphas, polarities)))


@given(model=_extreme_models())
@settings(max_examples=30, deadline=None)
def test_vote_at_extreme_alphas_matches_stage_by_stage_sum_to_the_byte(model):
    # +alpha and -alpha are selected by exact signs: every margin keeps its
    # bits, compared as bytes, so infinities, a NaN or a signed zero count;
    # a level voted through phase copies votes as the plain level
    ii = build_integral(rand_image(np.random.default_rng(53), 96, 72))
    level = ii.level(45, 34, 3)
    stacks = {**_VOTE_STACKS, "phase level": ii._phase_level(45, 34, 3, ii._phase_copies(3))}
    for budget in (0, VOTE_BUDGET):  # the chunk plan, then the run plan
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            patch.setattr(boosting, "VOTE_BUDGET", budget)
            for name, stack in stacks.items():
                want = _stage_by_stage(model, level if name == "phase level" else stack)
                assert vote(model, stack).tobytes() == want.tobytes(), (name, budget)


@given(model=_models())
@settings(max_examples=20, deadline=None)
def test_vote_at_the_budget_edge_matches_stage_by_stage_sum(model):
    # the largest stack that votes whole runs, and one window more, which
    # votes in chunks; both give the stage-by-stage sum bit for bit
    runs = [len(run) for run in model._runs]
    longest = max(runs)
    chunks = [min(VOTE_CHUNK, n - i) for n in runs for i in range(0, n, VOTE_CHUNK)]
    built = []

    class CountingBatch(FeatureBatch):
        def __init__(self, family, genomes):
            built.append(len(genomes))
            super().__init__(family, genomes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boosting, "FeatureBatch", CountingBatch)
        for windows, batches in ((VOTE_BUDGET // longest, runs),
                                 (VOTE_BUDGET // longest + 1, chunks)):
            stack = row_level(windows)
            assert len(stack) == windows
            built.clear()
            assert np.array_equal(vote(model, stack), _stage_by_stage(model, stack))
            assert built == batches


def test_model_with_a_plan_is_a_plain_value(rng):
    text = fixture_model_text("symhaar")
    model = parse_model(text)
    stack = WindowStack.from_images([rand_window(rng) for _ in range(20)])
    margins = vote(model, stack)  # builds and keeps the plan
    fresh = parse_model(text)
    assert model == fresh and hash(model) == hash(fresh)
    assert dump_model(model) == dump_model(fresh)
    assert b"FeatureBatch" not in pickle.dumps(model)
    for other in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert other == model and hash(other) == hash(model)
        assert np.array_equal(vote(other, stack), margins)
    haar = parse_model(fixture_model_text("haar"))
    for stages in (model.stages[:7], haar.stages):
        swapped = replace(model, stages=stages)
        assert np.array_equal(vote(swapped, stack), _stage_by_stage(swapped, stack))
    assert np.array_equal(vote(replace(model, stages=haar.stages), stack), vote(haar, stack))
    assert np.array_equal(vote(model, stack), margins)


@pytest.mark.parametrize("family", ["haar", "cp", "symhaar", "nconnex"])
def test_score_builds_each_batch_once(monkeypatch, rng, family):
    built = []

    class CountingBatch(FeatureBatch):
        def __init__(self, family, genomes):
            built.append(len(genomes))
            super().__init__(family, genomes)

    monkeypatch.setattr(boosting, "FeatureBatch", CountingBatch)
    model = parse_model(fixture_model_text(family))
    samples = [LabeledSample(rand_window(rng), 1) for _ in range(10)]
    scores = [score(model, s) for s in samples]
    # the fixtures are 50 stages of one family: one window votes the whole
    # run in one batch, a stack above the budget in chunks of 16, 16, 16 and 2
    assert built == [50]
    for s, got in zip(samples, scores):
        assert got == float(_stage_by_stage(model, WindowStack.from_images([s.window]))[0])
    large = WindowStack.from_images([rand_window(rng) for _ in range(VOTE_BUDGET // 50 + 1)])
    margins = vote(model, large)
    assert built == [50] + [VOTE_CHUNK] * 3 + [2]
    assert np.array_equal(margins, _stage_by_stage(model, large))
