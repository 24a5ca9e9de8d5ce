"""Evolutionary weak-learner search over one feature family.

A mu+lambda loop: keep the best quarter of the population, refill with
mutated elites plus a trickle of fresh random genomes, stop on stall or
generation budget. Every genome is drawn from its own RNG stream derived
from (seed, candidate index): one ``random.Random`` per search, reseeded
for each candidate by the C ``seed`` that ``Random.seed`` calls after its
type checks (its ``gauss_next`` reset matters only to ``gauss``, which
the search never calls), which gives the state a new ``Random`` of that
seed starts in. The draws call ``getrandbits`` and ``random`` directly, as
CPython's ``randint``, ``randrange``, ``choice`` and ``uniform`` do, so
they read the stream those methods read. A genome is a feature's
constructor fields (``features.field_values``). A fresh one is drawn by
``random_feature``, which builds and checks a ``Feature``; a mutated
child takes its moves on its parent's fields, each proposal checked by
the one field rule it changes (``features.FIELD_RULES``), and is never
built. The initial population and each generation's offspring are scored
by one ``FeatureBatch(family, genomes)`` on the calling thread, read
straight from the genomes, into plain ``(epsilon, id, genome, polarity)``
rows. One boolean compaction per generation puts each candidate's wrong
weights before its right ones, each part in window order, and two masked
reductions sum every candidate's two parts: numpy passes each row's part,
one contiguous run, whole to the pairwise loop that sums its own masked
row, so the errors round as a one-feature evaluation does. Only the
winner becomes a ``Feature`` (with the constructor's full check), a
``WeakClassifier`` and a ``Candidate``. ``mutate`` is the same moves on a
``Feature``. The symmetric moves read their field indices from
``features.FIELDS``.

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
from typing import Any, Callable, Sequence

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
# direct draws
# ---------------------------------------------------------------------------

# CPython's ``Random.randrange(n)``, ``randint(a, b)``, ``choice(seq)`` and
# ``uniform(a, b)``: the same ``getrandbits`` and ``random`` calls in the
# same order (``_randbelow_with_getrandbits``: k = n.bit_length() bits,
# redrawn while r >= n), without the Python frames in between


def _randbelow(rng: random.Random, n: int) -> int:
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _randint(rng: random.Random, a: int, b: int) -> int:
    return a + _randbelow(rng, b - a + 1)


def _choice(rng: random.Random, seq: Sequence):
    return seq[_randbelow(rng, len(seq))]


def _uniform(rng: random.Random, a: float, b: float) -> float:
    return a + (b - a) * rng.random()


# ---------------------------------------------------------------------------
# random genomes
# ---------------------------------------------------------------------------

def _random_rect(rng: random.Random, max_w: int = CANONICAL_W) -> Rect:
    w = _randint(rng, 1, max_w)
    h = _randint(rng, 1, CANONICAL_H)
    return Rect(x=_randint(rng, 0, max_w - w), y=_randint(rng, 0, CANONICAL_H - h), w=w, h=h)


def _random_mid_rect(rng: random.Random) -> Rect:
    # center within 1px of the axis: CANONICAL_W - 2 <= 2x + w <= CANONICAL_W + 2
    w = _randint(rng, 1, CANONICAL_W)
    lo = max(0, -(-(CANONICAL_W - 2 - w) // 2))
    hi = min(CANONICAL_W - w, (CANONICAL_W + 2 - w) // 2)
    h = _randint(rng, 1, CANONICAL_H)
    return Rect(x=_randint(rng, lo, hi), y=_randint(rng, 0, CANONICAL_H - h), w=w, h=h)


def _random_points(rng: random.Random, count: int) -> tuple[tuple[int, int], ...]:
    cells = rng.sample(range(CANONICAL_W * CANONICAL_H), count)
    return tuple((c % CANONICAL_W, c // CANONICAL_W) for c in cells)


def _random_chain(rng: random.Random) -> ChainFeature:
    length = _randint(rng, MIN_CHAIN_LEN, MAX_CHAIN_LEN)
    for _ in range(100):
        x = _randint(rng, 0, CANONICAL_W - 1)
        y = _randint(rng, 0, CANONICAL_H - 1)
        pts = [(x, y)]
        while len(pts) < length:
            cx, cy = pts[-1]
            options = [(cx + dx, cy + dy) for dx, dy in _NEIGHBORS
                       if 0 <= cx + dx < CANONICAL_W and 0 <= cy + dy < CANONICAL_H
                       and (cx + dx, cy + dy) not in pts]
            if not options:
                break
            pts.append(_choice(rng, options))
        if len(pts) == length:
            tags = [rng.random() < 0.5 for _ in pts]
            if all(tags) or not any(tags):
                tags[_randbelow(rng, length)] = not tags[0]
            return ChainFeature(chain=tuple((px, py, t) for (px, py), t in zip(pts, tags)),
                                separation=_randint(rng, 1, SEPARATION_MAX))
    raise RuntimeError("could not grow a chain (should not happen on a 32x24 grid)")


def random_feature(family: FeatureKind, rng: random.Random) -> Feature:
    """Draw a feature satisfying all invariants of ``family``."""
    if family is FeatureKind.HAAR:
        return HaarFeature(rect_a=_random_rect(rng), rect_b=_random_rect(rng),
                           threshold=_uniform(rng, 0.0, HAAR_THRESHOLD_MAX))
    if family is FeatureKind.CONTROL_POINTS:
        return ControlPointsFeature(
            pos_points=_random_points(rng, _randint(rng, 1, MAX_CLASS_POINTS)),
            neg_points=_random_points(rng, _randint(rng, 1, MAX_CLASS_POINTS)),
            separation=_randint(rng, 1, SEPARATION_MAX))
    if family is FeatureKind.SYMMETRIC_HAAR:
        sym_tol = 0.0
        while sym_tol == 0.0:
            sym_tol = _uniform(rng, 0.0, SYM_TOL_MAX)
        return SymmetricHaarFeature(
            left_a=_random_rect(rng, max_w=CANONICAL_W // 2),
            left_b=_random_rect(rng, max_w=CANONICAL_W // 2),
            mid_a=_random_mid_rect(rng), mid_b=_random_mid_rect(rng),
            t_left=_uniform(rng, 0.0, SYM_THRESHOLD_MAX),
            t_right=_uniform(rng, 0.0, SYM_THRESHOLD_MAX),
            t_mid=_uniform(rng, 0.0, SYM_THRESHOLD_MAX),
            sym_tol=sym_tol, mid_margin=_uniform(rng, 0.0, MID_MARGIN_MAX))
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
# (x, y, w, h) tuple, which ``FeatureBatch`` reads as it is
# and a constructor makes a Rect.


def _nudged_rect(r: Rect | tuple[int, int, int, int],
                 rng: random.Random) -> tuple[int, int, int, int]:
    coords = list(r)
    coords[_choice(rng, (0, 1, 2, 3))] += _choice(rng, (-1, 1))
    return tuple(coords)


def _nudged_separation(sep: int, rng: random.Random) -> int:
    return min(255, max(1, sep + _choice(rng, (-1, 1)) * _randint(rng, 1, 8)))


def _move_haar(g: list, rng: random.Random) -> tuple[int, Any]:
    move = _randbelow(rng, 3)  # nudge rect_a, nudge rect_b or scale the threshold
    if move < 2:
        return move, _nudged_rect(g[move], rng)
    return 2, g[2] * _choice(rng, (0.9, 1.1))


def _move_control_points(g: list, rng: random.Random) -> tuple[int, Any]:
    move = _randbelow(rng, 4)
    side = _choice(rng, (0, 1))  # the pos or the neg class
    points = list(g[side])
    if move == 0:
        i = _randbelow(rng, len(points))
        dx, dy = _choice(rng, _NEIGHBORS)
        points[i] = (points[i][0] + dx, points[i][1] + dy)
    elif move == 1:
        points.append((_randint(rng, 0, CANONICAL_W - 1), _randint(rng, 0, CANONICAL_H - 1)))
    elif move == 2:
        points.pop(_randbelow(rng, len(points)))
    else:
        return 2, _nudged_separation(g[2], rng)
    return side, tuple(points)


def _move_symmetric(g: list, rng: random.Random) -> tuple[int, Any]:
    if _randbelow(rng, 2) == 0:
        which = _choice(rng, _SYM_RECTS)
        return which, _nudged_rect(g[which], rng)
    which = _choice(rng, _SYM_THRESHOLDS)
    return which, g[which] * _choice(rng, (0.9, 1.1))


def _free_neighbors(chain: list, entry: tuple) -> list[tuple[int, int]]:
    # the 8-neighbors of a chain entry that hold no point of ``chain``, in _NEIGHBORS order
    occupied = {(x, y) for x, y, _ in chain}
    x, y, _ = entry
    return [(x + dx, y + dy) for dx, dy in _NEIGHBORS if (x + dx, y + dy) not in occupied]


def _move_chain(g: list, rng: random.Random) -> tuple[int, Any]:
    chain = list(g[0])
    move = _randbelow(rng, 5)
    if move == 0:  # move an endpoint next to its neighbor
        end = _choice(rng, (0, len(chain) - 1))
        options = _free_neighbors(chain, chain[1] if end == 0 else chain[-2])
        nx, ny = _choice(rng, options) if options else chain[end][:2]
        chain[end] = (nx, ny, chain[end][2])
    elif move == 1:  # extend at an end
        end = _choice(rng, (0, len(chain) - 1))
        options = _free_neighbors(chain, chain[end])
        if options:
            nx, ny = _choice(rng, options)
            new_pt = (nx, ny, rng.random() < 0.5)
            chain = [new_pt] + chain if end == 0 else chain + [new_pt]
    elif move == 2:  # shrink at an end
        chain.pop(_choice(rng, (0, len(chain) - 1)))
    elif move == 3:  # retag one point
        i = _randbelow(rng, len(chain))
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
    mistakes = FeatureBatch(family, genomes).fired(stack) != (labels == 1)
    return [(eps_minus, cid, genome, -1) if eps_minus < eps_plus
            else (eps_plus, cid, genome, 1)
            for cid, genome, (eps_plus, eps_minus)
            in zip(ids, genomes, _errors(mistakes, weights))]


def _errors(mistakes: np.ndarray, weights: np.ndarray) -> list[tuple[float, float]]:
    """Per row of ``mistakes``, the weight it gets wrong and the weight it
    gets right, each as ``float(weights[row_mask].sum())`` would round it.

    One boolean compaction of the weights under a ``(P, 2, N)`` mask,
    each row's mistakes then its hits, orders each row's weights wrong
    first, then right, each part in window order: row k's first ``m_k``
    entries are the same values in the same order as
    ``weights[row_mask]``, and the rest as ``weights[~row_mask]``. Two
    masked reductions, under ``wrong`` (a row's first ``m_k`` entries)
    and its complement, then sum every row's two parts: numpy's masked
    loop hands each row's part, one contiguous run, whole to the same
    pairwise inner loop that ``weights[row_mask].sum()`` runs, from the
    same 0.0 start. ``np.add.reduceat`` adds a segment sequentially and a
    matrix product in its own order, so neither would keep the bits.
    """
    rows, width = mistakes.shape
    sides = np.empty((rows, 2, width), bool)
    sides[:, 0] = mistakes
    np.logical_not(mistakes, out=sides[:, 1])
    parted = np.broadcast_to(weights, sides.shape)[sides].reshape(rows, width)
    wrong = np.arange(width) < np.count_nonzero(mistakes, axis=1)[:, None]
    return list(zip(np.add.reduce(parted, axis=1, where=wrong).tolist(),
                    np.add.reduce(parted, axis=1, where=~wrong).tolist()))


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
    # and ties in epsilon resolve by id, so the search is reproducible. One
    # Random serves every candidate: reseeding it gives the MT state a new
    # Random(seed) would start from. ``reseed`` is the C seed that
    # Random.seed calls after its type checks, without their frame
    shared = random.Random(0)
    reseed = super(random.Random, shared).seed

    def stream(candidate_id: int) -> random.Random:
        reseed(derive_seed(config.seed, candidate_id))
        return shared

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
                                          _randint(rng, *MUTATIONS_PER_CHILD)))

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
