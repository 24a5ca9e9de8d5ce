"""Glue binding the boosting loop to the evolutionary weak learner.

``train_detector`` runs ``boosting.train`` with ``learner.search_best``
as its weak learner and passes ``literal_zero_update`` straight through
to ``train``. Both are called through this module's names, so a wrapper
installed on ``pipeline.search_best`` or ``pipeline.train`` sees every
call that ``train_detector`` makes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from .boosting import LabeledSample, TrainResult, train
from .learner import LearnerConfig, derive_seed, search_best


def train_detector(samples: Sequence[LabeledSample], rounds: int,
                   learner_config: LearnerConfig,
                   literal_zero_update: bool = False,
                   progress: Callable[[int, int, float, float], None] | None = None,
                   ) -> TrainResult:
    """Boost ``rounds`` weak classifiers found by the evolutionary search.

    ``train`` builds the sample stack once and passes it to every round's
    search; each round searches under a seed derived from (base seed,
    round), so the whole run is reproducible from the config alone.
    ``progress`` receives (round, generation, best_epsilon, mean_epsilon)
    ticks from inside the search.
    """
    def learner(stack, labels, dist, t):
        sink = None
        if progress is not None:
            sink = lambda gen, best, mean: progress(t, gen, best, mean)
        cfg = replace(learner_config, seed=derive_seed(learner_config.seed, t))
        return search_best(dist, stack, labels, cfg, progress=sink).weak

    return train(samples, rounds, learner, literal_zero_update)
