"""Evolutionary weak-learner search over one feature family.

A mu+lambda loop: keep the best quarter of the population, refill with
mutated elites plus a trickle of fresh random genomes, stop on stall or
generation budget. Every genome is drawn from its own RNG stream derived
from (seed, candidate index). A genome is a feature's constructor fields
(``features.field_values``). A fresh one is drawn by ``random_feature``,
which builds and checks a ``Feature``; a mutated child takes its moves on
its parent's fields, each proposal checked by the one field rule it
changes (``features.FIELD_RULES``), and is never built. The initial
population and each generation's offspring are scored by one
``FeatureBatch.from_fields`` on the calling thread, read straight from
the genomes, into plain ``(epsilon, id, genome, polarity)`` rows. Each
candidate's two errors are summed over consecutive slices of one masked
weight array, which hold the same values in the same order as the
candidate's own row, so they round as a one-feature evaluation does. Only
the winner becomes a ``Feature`` (with the constructor's full check), a
``WeakClassifier`` and a ``Candidate``. ``mutate`` is the same moves on a
``Feature``. The symmetric moves read their field indices from ``features.FIELDS``.

``search_best`` takes only what the search reads: the distribution, the
window stack with its labels (built once by ``boosting.train``) and the
config, whose ``family`` is the family every genome, the initial
population's included, is drawn from; its class comes from
``features.FEATURE_TYPES``. A rect field is read by unpacking, whether
it holds a ``Rect`` or the ``(x, y, w, h)`` tuple a nudge leaves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .boosting import WeakClassifier, WeightDistribution
from .features import (
    CANONICAL_H,
    CANONICAL_W,
    FEATURE_TYPES,
    FIELD_RULES,
    FIELDS,
    MAX_CHAIN_LEN,
    MAX_CLASS_POINTS,
    MIN_CHAIN_LEN,
    ChainFeature,
    ControlPointsFeature,
    Feature,
    FeatureBatch,
    FeatureKind,
    HaarFeature,
    SymmetricHaarFeature,
    eval_batch,  # noqa: F401  boostbench/tracing.py wraps learner.eval_batch
    field_values,
)
from .imaging import Rect, WindowStack

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# beyond these ranges the features are constant on 8-bit data
HAAR_THRESHOLD_MAX = 8.0
SEPARATION_MAX = 128
SYM_TOL_MAX = 4.0
MID_MARGIN_MAX = 4.0
# the symmetric family must clear three thresholds at once, so its
# per-pair thresholds start low and let mutation push them up
SYM_THRESHOLD_MAX = 2.0
# a mutated child takes between lo and hi random moves (inclusive)
MUTATIONS_PER_CHILD = (1, 3)

_NEIGHBORS = [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]


def derive_seed(seed: int, n: int) -> int:
    """Decorrelated 64-bit stream id for sub-stream ``n`` of ``seed``."""
    return (seed ^ ((n * _GAMMA) & _MASK64)) & _MASK64


@dataclass(frozen=True)
class LearnerConfig:
    family: FeatureKind
    population_size: int = 100
    generations: int = 30
    stall_limit: int = 8
    seed: int = 0
    # accepted for compatibility: scoring always runs on the calling
    # thread, so neither output nor speed depends on the value
    parallel_workers: int = 1

    def __post_init__(self):
        if not isinstance(self.family, FeatureKind):
            raise ValueError(f"family must be a FeatureKind, got {self.family!r}")
        for name in ("population_size", "generations", "stall_limit", "seed",
                     "parallel_workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be >= 1")
        if self.parallel_workers < 1:
            raise ValueError("parallel_workers must be >= 1")


@dataclass(frozen=True)
class Candidate:
    """A weak classifier and its weighted error under the search distribution."""

    weak: WeakClassifier
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")


# ---------------------------------------------------------------------------
# random genomes
# ---------------------------------------------------------------------------

def _random_rect(rng: random.Random, max_w: int = CANONICAL_W) -> Rect:
    w = rng.randint(1, max_w)
    h = rng.randint(1, CANONICAL_H)
    return Rect(x=rng.randint(0, max_w - w), y=rng.randint(0, CANONICAL_H - h), w=w, h=h)


def _random_mid_rect(rng: random.Random) -> Rect:
    # center within 1px of the axis: CANONICAL_W - 2 <= 2x + w <= CANONICAL_W + 2
    w = rng.randint(1, CANONICAL_W)
    lo = max(0, -(-(CANONICAL_W - 2 - w) // 2))
    hi = min(CANONICAL_W - w, (CANONICAL_W + 2 - w) // 2)
    h = rng.randint(1, CANONICAL_H)
    return Rect(x=rng.randint(lo, hi), y=rng.randint(0, CANONICAL_H - h), w=w, h=h)


def _random_points(rng: random.Random, count: int) -> tuple[tuple[int, int], ...]:
    cells = rng.sample(range(CANONICAL_W * CANONICAL_H), count)
    return tuple((c % CANONICAL_W, c // CANONICAL_W) for c in cells)


def _random_chain(rng: random.Random) -> ChainFeature:
    length = rng.randint(MIN_CHAIN_LEN, MAX_CHAIN_LEN)
    for _ in range(100):
        x = rng.randint(0, CANONICAL_W - 1)
        y = rng.randint(0, CANONICAL_H - 1)
        pts = [(x, y)]
        while len(pts) < length:
            cx, cy = pts[-1]
            options = [(cx + dx, cy + dy) for dx, dy in _NEIGHBORS
                       if 0 <= cx + dx < CANONICAL_W and 0 <= cy + dy < CANONICAL_H
                       and (cx + dx, cy + dy) not in pts]
            if not options:
                break
            pts.append(rng.choice(options))
        if len(pts) == length:
            tags = [rng.random() < 0.5 for _ in pts]
            if all(tags) or not any(tags):
                tags[rng.randrange(length)] = not tags[0]
            return ChainFeature(chain=tuple((px, py, t) for (px, py), t in zip(pts, tags)),
                                separation=rng.randint(1, SEPARATION_MAX))
    raise RuntimeError("could not grow a chain (should not happen on a 32x24 grid)")


def random_feature(family: FeatureKind, rng: random.Random) -> Feature:
    """Draw a feature satisfying all invariants of ``family``."""
    if family is FeatureKind.HAAR:
        return HaarFeature(rect_a=_random_rect(rng), rect_b=_random_rect(rng),
                           threshold=rng.uniform(0.0, HAAR_THRESHOLD_MAX))
    if family is FeatureKind.CONTROL_POINTS:
        return ControlPointsFeature(
            pos_points=_random_points(rng, rng.randint(1, MAX_CLASS_POINTS)),
            neg_points=_random_points(rng, rng.randint(1, MAX_CLASS_POINTS)),
            separation=rng.randint(1, SEPARATION_MAX))
    if family is FeatureKind.SYMMETRIC_HAAR:
        sym_tol = 0.0
        while sym_tol == 0.0:
            sym_tol = rng.uniform(0.0, SYM_TOL_MAX)
        return SymmetricHaarFeature(
            left_a=_random_rect(rng, max_w=CANONICAL_W // 2),
            left_b=_random_rect(rng, max_w=CANONICAL_W // 2),
            mid_a=_random_mid_rect(rng), mid_b=_random_mid_rect(rng),
            t_left=rng.uniform(0.0, SYM_THRESHOLD_MAX),
            t_right=rng.uniform(0.0, SYM_THRESHOLD_MAX),
            t_mid=rng.uniform(0.0, SYM_THRESHOLD_MAX),
            sym_tol=sym_tol, mid_margin=rng.uniform(0.0, MID_MARGIN_MAX))
    if family is FeatureKind.CHAIN:
        return _random_chain(rng)
    raise ValueError(f"unknown family {family}")


# ---------------------------------------------------------------------------
# mutation moves
# ---------------------------------------------------------------------------

_MAX_MUTATE_TRIES = 25
# the field indices of the symmetric family's rects and of its thresholds
_SYM_RECTS, _SYM_THRESHOLDS = (tuple(i for i, s in enumerate(FIELDS[SymmetricHaarFeature])
                                     if s.slot is slot) for slot in (Rect, float))

# A move proposes (field index, value) for one field of a genome held as
# its constructor fields; ``_mutated`` keeps the proposal only if that
# field's rule in ``features.FIELD_RULES`` passes. A nudged rect is an
# (x, y, w, h) tuple, which ``FeatureBatch.from_fields`` reads as it is
# and a constructor makes a Rect.


def _nudged_rect(r: Rect | tuple[int, int, int, int],
                 rng: random.Random) -> tuple[int, int, int, int]:
    coords = list(r)
    coords[rng.choice((0, 1, 2, 3))] += rng.choice((-1, 1))
    return tuple(coords)


def _nudged_separation(sep: int, rng: random.Random) -> int:
    return min(255, max(1, sep + rng.choice((-1, 1)) * rng.randint(1, 8)))


def _move_haar(g: list, rng: random.Random) -> tuple[int, Any]:
    move = rng.randrange(3)  # nudge rect_a, nudge rect_b or scale the threshold
    if move < 2:
        return move, _nudged_rect(g[move], rng)
    return 2, g[2] * rng.choice((0.9, 1.1))


def _move_control_points(g: list, rng: random.Random) -> tuple[int, Any]:
    move = rng.randrange(4)
    side = rng.choice((0, 1))  # the pos or the neg class
    points = list(g[side])
    if move == 0:
        i = rng.randrange(len(points))
        dx, dy = rng.choice(_NEIGHBORS)
        points[i] = (points[i][0] + dx, points[i][1] + dy)
    elif move == 1:
        points.append((rng.randint(0, CANONICAL_W - 1), rng.randint(0, CANONICAL_H - 1)))
    elif move == 2:
        points.pop(rng.randrange(len(points)))
    else:
        return 2, _nudged_separation(g[2], rng)
    return side, tuple(points)


def _move_symmetric(g: list, rng: random.Random) -> tuple[int, Any]:
    if rng.randrange(2) == 0:
        which = rng.choice(_SYM_RECTS)
        return which, _nudged_rect(g[which], rng)
    which = rng.choice(_SYM_THRESHOLDS)
    return which, g[which] * rng.choice((0.9, 1.1))


def _move_chain(g: list, rng: random.Random) -> tuple[int, Any]:
    chain = list(g[0])
    move = rng.randrange(5)
    if move == 0:  # move an endpoint next to its neighbor
        end = rng.choice((0, len(chain) - 1))
        anchor = chain[1] if end == 0 else chain[-2]
        occupied = {(x, y) for x, y, _ in chain}
        options = [(anchor[0] + dx, anchor[1] + dy) for dx, dy in _NEIGHBORS
                   if (anchor[0] + dx, anchor[1] + dy) not in occupied]
        nx, ny = rng.choice(options) if options else chain[end][:2]
        chain[end] = (nx, ny, chain[end][2])
    elif move == 1:  # extend at an end
        end = rng.choice((0, len(chain) - 1))
        ax, ay, _ = chain[end]
        occupied = {(x, y) for x, y, _ in chain}
        options = [(ax + dx, ay + dy) for dx, dy in _NEIGHBORS
                   if (ax + dx, ay + dy) not in occupied]
        if options:
            nx, ny = rng.choice(options)
            new_pt = (nx, ny, rng.random() < 0.5)
            chain = [new_pt] + chain if end == 0 else chain + [new_pt]
    elif move == 2:  # shrink at an end
        chain.pop(rng.choice((0, len(chain) - 1)))
    elif move == 3:  # retag one point
        i = rng.randrange(len(chain))
        x, y, t = chain[i]
        chain[i] = (x, y, not t)
    else:
        return 1, _nudged_separation(g[1], rng)
    return 0, tuple(chain)


_MOVES: dict[type, Callable[[list, random.Random], tuple[int, Any]]] = {
    HaarFeature: _move_haar,
    ControlPointsFeature: _move_control_points,
    SymmetricHaarFeature: _move_symmetric,
    ChainFeature: _move_chain,
}


def _mutated(family: type, genome: tuple, rng: random.Random, moves: int) -> tuple:
    # ``moves`` moves on a genome held as its constructor fields; the
    # genome itself comes back when no move landed
    move, rules = _MOVES[family], FIELD_RULES[family]
    child = list(genome)
    landed = False
    for _ in range(moves):
        for _ in range(_MAX_MUTATE_TRIES):
            i, value = move(child, rng)
            if rules[i](value) is None:
                child[i] = value
                landed = True
                break
    return tuple(child) if landed else genome


def mutate(feature: Feature, rng: random.Random, moves: int = 1) -> Feature:
    """``moves`` random moves on ``feature``, one after another.

    An invalid proposal is re-drawn; a move whose every retry is invalid
    leaves the genome as it was. The child is built once, after the last
    move, and the input itself comes back when no move landed.
    """
    genome = field_values(feature)
    child = _mutated(type(feature), genome, rng, moves)
    return feature if child is genome else type(feature)(*child)


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------

# (epsilon, id, genome, polarity): rows sort by error, then by id; ids are
# unique, so a genome is never compared
Row = tuple[float, int, tuple, int]


def _score(ids: Sequence[int], family: type, genomes: Sequence[tuple], stack: WindowStack,
           weights: np.ndarray, labels: np.ndarray) -> list[Row]:
    """One row per genome, all genomes evaluated by one batch."""
    mistakes = FeatureBatch.from_fields(family, genomes).fired(stack) != (labels == 1)
    return [(eps_minus, cid, genome, -1) if eps_minus < eps_plus
            else (eps_plus, cid, genome, 1)
            for cid, genome, (eps_plus, eps_minus)
            in zip(ids, genomes, _errors(mistakes, weights))]


def _errors(mistakes: np.ndarray, weights: np.ndarray) -> Iterator[tuple[float, float]]:
    """Per row of ``mistakes``, the weight it gets wrong and the weight it
    gets right, each as ``float(weights[row_mask].sum())`` would round it.

    Row k's selected weights are one contiguous slice of one masked
    array, the same values in the same order as ``weights[row_mask]``, so
    numpy's pairwise sum adds them the same way; ``np.add.reduceat`` and a
    matrix product would not.
    """
    every = np.broadcast_to(weights, mistakes.shape)
    wrong, right = every[mistakes], every[~mistakes]
    ends = np.cumsum(np.count_nonzero(mistakes, axis=1)).tolist()
    n = mistakes.shape[1]
    total = np.add.reduce  # what ndarray.sum calls, less its Python wrapper
    start = 0
    for k, end in enumerate(ends):
        yield float(total(wrong[start:end])), float(total(right[k * n - start:(k + 1) * n - end]))
        start = end


def search_best(dist: WeightDistribution, stack: WindowStack, labels: np.ndarray,
                config: LearnerConfig,
                progress: Callable[[int, float, float], None] | None = None) -> Candidate:
    """Best weak classifier of ``config.family`` on ``stack`` under ``dist``.

    ``labels`` holds the -1/+1 label of each window of ``stack``. Both
    polarities are scored for every genome, so the returned error never
    exceeds 0.5. ``progress`` receives (generation, best_epsilon,
    mean_epsilon) once per generation.
    """
    if not len(dist) == len(stack) == len(labels):
        raise ValueError(f"{len(dist)} weights, {len(stack)} windows and "
                         f"{len(labels)} labels must match")
    weights = dist.weights

    # every candidate gets a unique id; its RNG stream derives from the id,
    # and ties in epsilon resolve by id, so the search is reproducible
    def stream(candidate_id: int) -> random.Random:
        return random.Random(derive_seed(config.seed, candidate_id))

    size, family = config.population_size, FEATURE_TYPES[config.family]
    initial = [field_values(random_feature(config.family, stream(cid))) for cid in range(size)]
    population = _score(range(size), family, initial, stack, weights, labels)
    next_id = size

    elite_n = max(1, size // 4)
    fresh_n = max(1, round(size * 0.10))
    child_n = size - elite_n

    def report(generation: int, best_eps: float) -> None:
        if progress is not None:
            progress(generation, best_eps, sum(row[0] for row in population) / size)

    best = min(population)
    report(0, best[0])
    stall = 0

    for gen in range(1, config.generations + 1):
        if best[0] == 0.0 or stall >= config.stall_limit:
            break

        population.sort()
        elites = population[:elite_n]

        ids = range(next_id, next_id + child_n)
        next_id += child_n
        offspring: list[tuple] = []
        for k, cid in enumerate(ids):
            rng = stream(cid)
            if k < fresh_n:
                offspring.append(field_values(random_feature(config.family, rng)))
            else:
                parent = elites[(k - fresh_n) % elite_n][2]
                offspring.append(_mutated(family, parent, rng,
                                          rng.randint(*MUTATIONS_PER_CHILD)))

        population = elites + _score(ids, family, offspring, stack, weights, labels)

        gen_best = min(population)
        if gen_best[0] < best[0]:
            best = gen_best
            stall = 0
        else:
            stall += 1
        report(gen, best[0])

    # the winner is the one genome the search builds, with every check
    epsilon, _, genome, polarity = best
    return Candidate(weak=WeakClassifier(feature=family(*genome), polarity=polarity),
                     epsilon=epsilon)
