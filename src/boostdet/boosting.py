"""AdaBoost training loop, weight bookkeeping and the strong-classifier vote.

The update multiplies correctly classified weights by beta = e/(1-e) and
renormalizes, which is the standard discrete update and makes the
weighted error of the round's weak classifier exactly 1/2 under the next
distribution. ``train(..., literal_zero_update=True)`` zeroes misclassified
weights instead (a destructive variant kept for study, off by default).

A weak classifier with zero error is kept with its error floored at
EPS_MIN before computing its vote weight, then training stops; a round
whose error reaches 1/2 stops training without keeping the classifier.

``train`` builds the crop ``WindowStack`` and label vector once and hands
both, with the current distribution and the round number, to the weak
learner, so the learner searches the same stack that scores its answer.

``weak_predictions`` (+/-polarity per window of a ``WindowStack``) and
``vote`` (stage-ordered sum of alpha * prediction) are the one prediction
and vote path: training uses the first, ``detector.scan`` votes each
pyramid level with the second, and a single window (``WindowStack.window``)
is voted the same way. A model keeps two vote plans, each built the
first time ``vote`` needs it: one ``FeatureBatch`` per VOTE_CHUNK
same-family stages at most, and one per same-family run, each built from
the run's class and its stages' ``features.field_values``. ``vote`` picks
a plan by window count: the whole runs when the stack's windows times
the model's longest run are at most VOTE_BUDGET stage-window
evaluations, the chunks otherwise, so a small pyramid level or a single
window costs one call per run and no call evaluates more pairs than a
chunk on a 2,048-window level. Either way it selects a batch's stage
votes in one ``np.where`` and adds their rows to the margins one stage
at a time (the pairwise order of ``sum`` or ``np.add.reduce`` moves
bits), so both plans give the same margins, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .features import CANONICAL_H, CANONICAL_W, Feature, FeatureBatch, eval_batch, field_values
from .imaging import (
    GrayImage,
    WindowStack,
    build_integral,  # noqa: F401  boostbench/tracing.py wraps boosting.build_integral
)

EPS_MIN = 1e-6
# most same-family stages ``vote`` evaluates in one call on a large stack
VOTE_CHUNK = 16
# most stage-window evaluations of a whole-run call: a chunk on 2,048 windows
VOTE_BUDGET = VOTE_CHUNK * 2048

# a vote plan: (batch, +alpha*polarity, -alpha*polarity) per batch, in stage order
VotePlan = tuple[tuple[FeatureBatch, np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class LabeledSample:
    """A canonical training window and its -1/+1 label."""

    window: GrayImage
    label: int

    def __post_init__(self):
        if (self.window.width, self.window.height) != (CANONICAL_W, CANONICAL_H):
            raise ValueError("sample window must be canonical size")
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")


@dataclass(frozen=True)
class WeightDistribution:
    """Per-sample weights, non-negative and summing to 1 within 1e-12."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, n: int) -> "WeightDistribution":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class WeakClassifier:
    """A feature plus the polarity mapping its boolean output to a label."""

    feature: Feature
    polarity: int

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be -1 or +1, got {self.polarity}")


@dataclass(frozen=True)
class Stage:
    alpha: float
    weak: WeakClassifier

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"stage weight must be finite and positive, got {self.alpha}")


@dataclass(frozen=True)
class StrongClassifier:
    """Weighted vote over weak classifiers, all defined on the canonical window."""

    stages: tuple[Stage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if len(self.stages) < 1:
            raise ValueError("a trained model holds at least one stage")

    @functools.cached_property
    def _runs(self) -> tuple[tuple[Stage, ...], ...]:
        # the maximal runs of same-family stages, in stage order
        return tuple(tuple(run) for _, run in
                     itertools.groupby(self.stages, key=lambda st: type(st.weak.feature)))

    @functools.cached_property
    def _longest_run(self) -> int:
        return max(map(len, self._runs))

    def _batches(self, size: int) -> VotePlan:
        # one batch per ``size`` stages of a run at most
        plan = []
        for run in self._runs:
            family = type(run[0].weak.feature)
            for chunk in (run[i:i + size] for i in range(0, len(run), size)):
                fired_vote = np.array([st.alpha * st.weak.polarity for st in chunk])
                batch = FeatureBatch(family, [field_values(st.weak.feature) for st in chunk])
                plan.append((batch, fired_vote, -fired_vote))
        return tuple(plan)

    @functools.cached_property
    def _plan(self) -> VotePlan:
        return self._batches(VOTE_CHUNK)  # chunks of at most VOTE_CHUNK stages

    @functools.cached_property
    def _run_plan(self) -> VotePlan:
        return self._batches(self._longest_run)  # one batch per run

    def __getstate__(self):
        return {"stages": self.stages}  # copies and pickles leave the plans out


def weak_predictions(h: WeakClassifier, stack: WindowStack) -> np.ndarray:
    """polarity where the feature fires, -polarity elsewhere, per window."""
    return np.where(eval_batch(h.feature, stack), h.polarity, -h.polarity)


def vote(model: StrongClassifier, stack: WindowStack) -> np.ndarray:
    """Vote margin per window: sum of alpha * prediction in stage order.

    A stack whose windows times the model's longest run are at most
    ``VOTE_BUDGET`` is voted one same-family run per batch, a larger one
    ``VOTE_CHUNK`` stages per batch. Each batch's K stage votes are
    selected in one ``np.where`` into a ``(K, *lead)`` array, whose rows
    are then added one stage at a time.
    """
    margins = np.zeros(stack.sigma.shape)
    per_stage = (-1,) + (1,) * margins.ndim
    whole_runs = margins.size * model._longest_run <= VOTE_BUDGET
    for batch, fired_vote, quiet_vote in (model._run_plan if whole_runs else model._plan):
        votes = np.where(batch.fired(stack), fired_vote.reshape(per_stage),
                         quiet_vote.reshape(per_stage))
        for row in votes:
            margins += row
        del votes, row  # the last row keeps the chunk's votes alive
    return margins


def beta(error: float) -> float:
    """Reweighting factor error/(1-error), defined on 0 < error < 1/2."""
    if not 0.0 < error < 0.5:
        raise ValueError(f"error must lie in (0, 0.5), got {error}")
    return error / (1.0 - error)


def alpha(beta_value: float) -> float:
    """Vote weight ln(1/beta), positive for any beta in (0, 1)."""
    if not 0.0 < beta_value < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta_value}")
    return math.log(1.0 / beta_value)


def update_weights(dist: WeightDistribution, correct: Sequence[bool], beta_value: float,
                   literal_zero_update: bool = False) -> WeightDistribution:
    """Scale correct weights by beta (misclassified stay), then renormalize.

    With ``literal_zero_update`` the misclassified weights are zeroed
    instead, which collapses the distribution onto the easy examples.
    """
    if not 0.0 < beta_value < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta_value}")
    mask = np.asarray(correct, dtype=bool)
    if len(mask) != len(dist):
        raise ValueError(f"{len(mask)} outcomes for {len(dist)} weights")
    if literal_zero_update:
        scaled = np.where(mask, dist.weights * beta_value, 0.0)
    else:
        scaled = np.where(mask, dist.weights * beta_value, dist.weights)
    z = scaled.sum()
    if z <= 0:
        raise ValueError("all weights vanished during the update")
    return WeightDistribution(scaled / z)


@dataclass(frozen=True)
class RoundLog:
    t: int
    epsilon: float
    beta: float
    alpha: float
    bound: float
    train_error: float


@dataclass
class TrainResult:
    model: StrongClassifier | None
    rounds: list[RoundLog] = field(default_factory=list)
    stop_reason: str = "completed"


# (crop stack, labels, current distribution, round number) -> weak classifier
WeakLearner = Callable[[WindowStack, np.ndarray, WeightDistribution, int], WeakClassifier]


def train(samples: Sequence[LabeledSample], rounds: int, learner: WeakLearner,
          literal_zero_update: bool = False) -> TrainResult:
    """Run up to ``rounds`` boosting rounds over ``samples``.

    Each round asks ``learner`` for a weak classifier on the crop stack
    and labels under the current distribution, re-derives its weighted
    error, and either keeps it with vote weight ln((1-e)/e) or stops: error
    zero keeps the stage (with the error floored at EPS_MIN) and ends
    training, error at or above 1/2 ends training without keeping the
    stage. The per-round log carries
    epsilon, beta, alpha, the running product of 2*sqrt(e(1-e)) and the
    empirical training error of the model so far.
    """
    labels = np.array([s.label for s in samples])
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not ((labels == 1).any() and (labels == -1).any()):
        raise ValueError("need at least one sample of each class")

    labels.setflags(write=False)  # shared with the learner, like the stack
    stack = WindowStack.from_images([s.window for s in samples])
    dist = WeightDistribution.uniform(len(samples))
    stages: list[Stage] = []
    rows: list[RoundLog] = []
    margins = np.zeros(len(samples))
    bound = 1.0
    stop_reason = "completed"

    for t in range(1, rounds + 1):
        weak = learner(stack, labels, dist, t)
        preds = weak_predictions(weak, stack)
        mistakes = preds != labels
        eps = float(dist.weights[mistakes].sum())

        if eps >= 0.5:
            stop_reason = f"stopped at round {t}: weak classifier error {eps:.6g} >= 0.5"
            break

        # the floor only matters for a perfect classifier; real errors
        # below EPS_MIN keep their exact beta so the half-error property
        # of the updated distribution holds every continuing round
        if eps == 0.0:
            eps_eff = EPS_MIN
            stop_reason = f"stopped at round {t}: perfect weak classifier"
        else:
            eps_eff = eps
        b = beta(eps_eff)
        a = alpha(b)
        stages.append(Stage(alpha=a, weak=weak))
        bound *= 2.0 * math.sqrt(eps_eff * (1.0 - eps_eff))

        margins += a * preds
        train_error = float(np.mean(np.where(margins > 0, 1, -1) != labels))
        rows.append(RoundLog(t=t, epsilon=eps, beta=b, alpha=a,
                             bound=bound, train_error=train_error))

        if eps == 0.0:
            break
        dist = update_weights(dist, ~mistakes, b, literal_zero_update)

    model = StrongClassifier(stages=tuple(stages)) if stages else None
    return TrainResult(model=model, rounds=rows, stop_reason=stop_reason)

