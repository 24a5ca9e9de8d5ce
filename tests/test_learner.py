import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostdet import learner
from boostdet.boosting import LabeledSample, WeightDistribution
from boostdet.features import (
    CANONICAL_H,
    CANONICAL_W,
    ChainFeature,
    ControlPointsFeature,
    FeatureKind,
    HaarFeature,
    SymmetricHaarFeature,
    eval_batch,
    validate_chain,
)
from boostdet.imaging import Rect, WindowStack
from boostdet.learner import (
    Candidate,
    LearnerConfig,
    derive_seed,
    mutate,
    random_feature,
    search_best,
)
from boostdet.synthetic import training_samples
from conftest import rand_window

FAMILY_TYPES = {
    FeatureKind.HAAR: HaarFeature,
    FeatureKind.CONTROL_POINTS: ControlPointsFeature,
    FeatureKind.SYMMETRIC_HAAR: SymmetricHaarFeature,
    FeatureKind.CHAIN: ChainFeature,
}


@pytest.mark.parametrize("family", list(FeatureKind))
def test_random_feature_respects_invariants(family):
    # constructors validate, so surviving 10000 draws is the assertion
    py = random.Random(101)
    for _ in range(10000):
        f = random_feature(family, py)
        assert isinstance(f, FAMILY_TYPES[family])
        if family is FeatureKind.CHAIN:
            assert validate_chain([(x, y) for x, y, _ in f.chain])
        if family is FeatureKind.SYMMETRIC_HAAR:
            assert f.left_a.x + f.left_a.w <= CANONICAL_W // 2
            assert f.left_b.x + f.left_b.w <= CANONICAL_W // 2


def test_random_feature_is_deterministic():
    for family in FeatureKind:
        assert (random_feature(family, random.Random(7))
                == random_feature(family, random.Random(7)))


def test_mutate_is_deterministic():
    for family in FeatureKind:
        f = random_feature(family, random.Random(3))
        assert mutate(f, random.Random(9)) == mutate(f, random.Random(9))


@pytest.mark.parametrize("family", list(FeatureKind))
def test_mutate_preserves_invariants(family):
    py = random.Random(103)
    f = random_feature(family, py)
    for i in range(25000):
        f = mutate(f, py)
        assert isinstance(f, FAMILY_TYPES[family])
        if i % 500 == 0 and family is FeatureKind.CHAIN:
            assert validate_chain([(x, y) for x, y, _ in f.chain])
        if i % 1000 == 0:
            f = random_feature(family, py)  # restart so the walk covers more space


def test_mutate_changes_or_returns_valid(rng):
    py = random.Random(107)
    changed = 0
    f = random_feature(FeatureKind.CHAIN, py)
    for _ in range(200):
        g = mutate(f, py)
        if g != f:
            changed += 1
        f = g
    assert changed > 100  # moves almost always land


def test_mutate_redraws_only_invalid_genomes(monkeypatch):
    f = random_feature(FeatureKind.HAAR, random.Random(3))

    def invalid(genome, rng):
        return 2, -1.0  # a negative threshold, which its field rule rejects

    monkeypatch.setitem(learner._MOVES, HaarFeature, invalid)
    assert mutate(f, random.Random(9)) == f  # every retry invalid: the input comes back

    def out_of_range(genome, rng):
        raise IndexError("move indexed out of range")

    # no move can index out of range, so one that does is a defect to surface
    monkeypatch.setitem(learner._MOVES, HaarFeature, out_of_range)
    with pytest.raises(IndexError, match="out of range"):
        mutate(f, random.Random(9))


# reference: the construct-and-catch mutation of the earlier learner, each
# move building its Feature and an invalid one re-drawn on ValueError

def _ref_nudged_rect(r, rng):
    coords = [r.x, r.y, r.w, r.h]
    coords[rng.choice((0, 1, 2, 3))] += rng.choice((-1, 1))
    return Rect(*coords)


def _ref_mutate_haar(f, rng):
    move = rng.randrange(3)
    if move == 0:
        return HaarFeature(rect_a=_ref_nudged_rect(f.rect_a, rng), rect_b=f.rect_b,
                           threshold=f.threshold)
    if move == 1:
        return HaarFeature(rect_a=f.rect_a, rect_b=_ref_nudged_rect(f.rect_b, rng),
                           threshold=f.threshold)
    return HaarFeature(rect_a=f.rect_a, rect_b=f.rect_b,
                       threshold=f.threshold * rng.choice((0.9, 1.1)))


def _ref_mutate_control_points(f, rng):
    pos, neg = list(f.pos_points), list(f.neg_points)
    sep = f.separation
    move = rng.randrange(4)
    side = rng.choice((pos, neg))
    if move == 0:
        i = rng.randrange(len(side))
        dx, dy = rng.choice(learner._NEIGHBORS)
        side[i] = (side[i][0] + dx, side[i][1] + dy)
    elif move == 1:
        side.append((rng.randint(0, CANONICAL_W - 1), rng.randint(0, CANONICAL_H - 1)))
    elif move == 2:
        side.pop(rng.randrange(len(side)))
    else:
        sep = min(255, max(1, sep + rng.choice((-1, 1)) * rng.randint(1, 8)))
    return ControlPointsFeature(pos_points=tuple(pos), neg_points=tuple(neg),
                                separation=sep)


def _ref_mutate_symmetric(f, rng):
    fields = [f.left_a, f.left_b, f.mid_a, f.mid_b,
              f.t_left, f.t_right, f.t_mid, f.sym_tol, f.mid_margin]
    if rng.randrange(2) == 0:
        which = rng.choice((0, 1, 2, 3))
        fields[which] = _ref_nudged_rect(fields[which], rng)
    else:
        fields[rng.choice((4, 5, 6, 7, 8))] *= rng.choice((0.9, 1.1))
    return SymmetricHaarFeature(*fields)


def _ref_mutate_chain(f, rng):
    chain = list(f.chain)
    sep = f.separation
    move = rng.randrange(5)
    if move == 0:
        end = rng.choice((0, len(chain) - 1))
        anchor = chain[1] if end == 0 else chain[-2]
        occupied = {(x, y) for x, y, _ in chain}
        options = [(anchor[0] + dx, anchor[1] + dy) for dx, dy in learner._NEIGHBORS
                   if (anchor[0] + dx, anchor[1] + dy) not in occupied]
        nx, ny = rng.choice(options) if options else chain[end][:2]
        chain[end] = (nx, ny, chain[end][2])
    elif move == 1:
        end = rng.choice((0, len(chain) - 1))
        ax, ay, _ = chain[end]
        occupied = {(x, y) for x, y, _ in chain}
        options = [(ax + dx, ay + dy) for dx, dy in learner._NEIGHBORS
                   if (ax + dx, ay + dy) not in occupied]
        if options:
            nx, ny = rng.choice(options)
            new_pt = (nx, ny, rng.random() < 0.5)
            chain = [new_pt] + chain if end == 0 else chain + [new_pt]
    elif move == 2:
        chain.pop(rng.choice((0, len(chain) - 1)))
    elif move == 3:
        i = rng.randrange(len(chain))
        x, y, t = chain[i]
        chain[i] = (x, y, not t)
    else:
        sep = min(255, max(1, sep + rng.choice((-1, 1)) * rng.randint(1, 8)))
    return ChainFeature(chain=tuple(chain), separation=sep)


_REF_MUTATORS = {
    HaarFeature: _ref_mutate_haar,
    ControlPointsFeature: _ref_mutate_control_points,
    SymmetricHaarFeature: _ref_mutate_symmetric,
    ChainFeature: _ref_mutate_chain,
}


def _ref_mutate(feature, rng):
    mutator = _REF_MUTATORS[type(feature)]
    for _ in range(25):
        try:
            return mutator(feature, rng)
        except ValueError:
            continue
    return feature


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(list(FeatureKind)), seed=st.integers(0, 2**64 - 1),
       children=st.lists(st.integers(1, 3), min_size=1, max_size=40))
def test_mutate_matches_construct_and_catch_reference(family, seed, children):
    # a walk of children, each 1-3 moves; the walk reaches long chains,
    # full point classes and rects at the window's edges
    feature = random_feature(family, random.Random(seed))
    want_rng, got_rng = random.Random(seed + 1), random.Random(seed + 1)
    want = feature
    for moves in children:
        for _ in range(moves):
            want = _ref_mutate(want, want_rng)
        feature = mutate(feature, got_rng, moves)
        assert feature == want
        assert type(feature) is type(want)
        assert got_rng.getstate() == want_rng.getstate()


def _uniform(samples):
    return WeightDistribution.uniform(len(samples))


def _stack_labels(samples):
    """The crop stack and label vector that ``boosting.train`` hands the learner."""
    return (WindowStack.from_images([s.window for s in samples]),
            np.array([s.label for s in samples]))


@pytest.fixture(scope="module")
def small_set():
    return training_samples(30, 60, seed=5)


def test_result_not_worse_than_initial_population(small_set):
    config = LearnerConfig(family=FeatureKind.CHAIN, population_size=50,
                           generations=12, seed=11)
    dist = _uniform(small_set)
    best = search_best(dist, *_stack_labels(small_set), config)
    # the initial genomes are reconstructible from the per-candidate streams
    initial = [random_feature(config.family, random.Random(derive_seed(config.seed, i)))
               for i in range(config.population_size)]
    stack, labels = _stack_labels(small_set)
    initial_eps = []
    for f in initial:
        fired = eval_batch(f, stack)
        eps_plus = float(dist.weights[np.where(fired, 1, -1) != labels].sum())
        eps_minus = float(dist.weights[np.where(fired, 1, -1) == labels].sum())
        initial_eps.append(min(eps_plus, eps_minus))
    assert best.epsilon <= min(initial_eps) + 1e-15


def test_best_so_far_is_monotone(small_set):
    history = []
    config = LearnerConfig(family=FeatureKind.SYMMETRIC_HAAR, population_size=40,
                           generations=15, seed=13)
    search_best(_uniform(small_set), *_stack_labels(small_set), config,
                progress=lambda gen, best, mean: history.append((gen, best, mean)))
    bests = [b for _, b, _ in history]
    assert bests == sorted(bests, reverse=True) or all(
        b2 <= b1 + 1e-15 for b1, b2 in zip(bests, bests[1:]))
    assert len(history) >= 2


def test_epsilon_never_exceeds_half(rng):
    # adversarial labels: windows are pure noise, labels random
    windows = [rand_window(rng) for _ in range(40)]
    labels = [1 if rng.random() < 0.5 else -1 for _ in range(40)]
    labels[0], labels[1] = 1, -1
    samples = [LabeledSample(w, label) for w, label in zip(windows, labels)]
    for family in FeatureKind:
        config = LearnerConfig(family=family, population_size=20, generations=3,
                               seed=17)
        best = search_best(_uniform(samples), *_stack_labels(samples), config)
        assert best.epsilon <= 0.5 + 1e-12


def test_search_is_deterministic_and_worker_independent(small_set):
    base = LearnerConfig(family=FeatureKind.CONTROL_POINTS, population_size=40,
                         generations=8, seed=23)
    one = search_best(_uniform(small_set), *_stack_labels(small_set), base)
    two = search_best(_uniform(small_set), *_stack_labels(small_set), base)
    eight = search_best(_uniform(small_set), *_stack_labels(small_set),
                        replace(base, parallel_workers=8))
    assert one == two == eight


@pytest.mark.parametrize("family", list(FeatureKind))
def test_search_draws_from_config_family(small_set, family):
    # the family comes from the config alone: there is no second copy to disagree
    config = LearnerConfig(family=family, population_size=8, generations=2, seed=29)
    best = search_best(_uniform(small_set), *_stack_labels(small_set), config)
    assert isinstance(best.weak.feature, FAMILY_TYPES[family])


def test_search_builds_one_weak_classifier_and_one_candidate(monkeypatch, small_set):
    # every other candidate stays a plain (epsilon, id, feature, polarity) row
    built = []

    class CountingWeak(learner.WeakClassifier):
        def __post_init__(self):
            built.append("weak")
            super().__post_init__()

    class CountingCandidate(learner.Candidate):
        def __post_init__(self):
            built.append("candidate")
            super().__post_init__()

    monkeypatch.setattr(learner, "WeakClassifier", CountingWeak)
    monkeypatch.setattr(learner, "Candidate", CountingCandidate)
    config = LearnerConfig(family=FeatureKind.SYMMETRIC_HAAR, population_size=20,
                           generations=6, seed=31)
    best = search_best(_uniform(small_set), *_stack_labels(small_set), config)
    assert sorted(built) == ["candidate", "weak"]
    assert isinstance(best, CountingCandidate) and isinstance(best.weak, CountingWeak)


@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda k: k.value)
def test_search_builds_a_feature_per_fresh_draw_and_one_for_the_winner(monkeypatch, small_set,
                                                                       family):
    # mutated children stay genomes: only random_feature's draws and the
    # winner go through the constructor's full check
    built, drawn, children = [], [], []
    cls = FAMILY_TYPES[family]
    post_init, draw, mutated = cls.__post_init__, learner.random_feature, learner._mutated

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_draw(*args):
        drawn.append(args)
        return draw(*args)

    def counting_mutated(*args):
        children.append(args)
        return mutated(*args)

    monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    monkeypatch.setattr(learner, "random_feature", counting_draw)
    monkeypatch.setattr(learner, "_mutated", counting_mutated)
    config = LearnerConfig(family=family, population_size=20, generations=6, seed=31)
    best = search_best(_uniform(small_set), *_stack_labels(small_set), config)
    assert children and len(drawn) > config.population_size
    assert len(built) == len(drawn) + 1
    assert best.weak.feature is built[-1]


_SELECTED = (0, 1, 7, 8, 9, 128, 129, 300)


class _FiredBatch:
    """Stands in for FeatureBatch: ``fired`` returns the masks it was given."""

    masks = None

    def __init__(self, family, genomes):
        pass

    def fired(self, stack):
        return self.masks


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), skew=st.floats(0.0, 40.0),
       order=st.permutations(_SELECTED))
def test_score_errors_are_the_row_sums_bit_for_bit(seed, skew, order):
    # rows selecting 0, 1, 7, 8, 9, 128, 129 and all 300 windows, the
    # block edges of numpy's pairwise sum, under weights spread over up
    # to ~70 orders of magnitude
    rng = np.random.default_rng(seed)
    weights = np.exp(rng.normal(0.0, skew, 300))
    weights /= weights.sum()
    masks = np.zeros((len(order), 300), bool)
    for row, count in zip(masks, order):
        row[rng.choice(300, count, replace=False)] = True
    want = [(float(weights[m].sum()), float(weights[~m].sum())) for m in masks]
    got = list(learner._errors(masks, weights))
    assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]
    # every label -1: a window counts as a mistake exactly where it fires
    with mock.patch.object(_FiredBatch, "masks", masks), \
            mock.patch.object(learner, "FeatureBatch", _FiredBatch):
        rows = learner._score(range(len(masks)), HaarFeature, [()] * len(masks), None,
                              weights, np.full(300, -1))
    assert [(eps.hex(), polarity) for eps, _, _, polarity in rows] == [
        (minus.hex(), -1) if minus < plus else (plus.hex(), 1) for plus, minus in want]


def test_search_rejects_mismatched_lengths(small_set):
    config = LearnerConfig(family=FeatureKind.HAAR, population_size=4, generations=1)
    stack, labels = _stack_labels(small_set)
    with pytest.raises(ValueError, match="must match"):
        search_best(_uniform(small_set[1:]), stack, labels, config)
    with pytest.raises(ValueError, match="must match"):
        search_best(_uniform(small_set), stack, labels[1:], config)


def test_candidate_validation():
    with pytest.raises(ValueError):
        Candidate(weak=None, epsilon=1.5)


def test_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(family=FeatureKind.HAAR, population_size=1)
    with pytest.raises(ValueError):
        LearnerConfig(family=FeatureKind.HAAR, generations=0)
    with pytest.raises(ValueError, match="parallel_workers"):
        LearnerConfig(family=FeatureKind.HAAR, parallel_workers=0)
    for stall_limit in (0, -1):
        with pytest.raises(ValueError, match="stall_limit"):
            LearnerConfig(family=FeatureKind.HAAR, stall_limit=stall_limit)
    for family in ("haar", None, HaarFeature):
        with pytest.raises(ValueError, match="family must be a FeatureKind"):
            LearnerConfig(family=family)
    # a float count used to pass the range checks and die inside search_best
    for name in ("population_size", "generations", "stall_limit", "seed",
                 "parallel_workers"):
        for value in (2.5, 8.0, "8", True, None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                LearnerConfig(family=FeatureKind.HAAR, **{name: value})


def test_derive_seed_distinct():
    seeds = {derive_seed(42, n) for n in range(1000)}
    assert len(seeds) == 1000
