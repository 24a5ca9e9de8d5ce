#!/usr/bin/env python3
"""Regenerate the benchmark's model fixtures and fingerprints.

    python3 boostbench/make_fixtures.py            # fingerprints only
    python3 boostbench/make_fixtures.py --models   # retrain the models too

``--models`` retrains the four 50-stage desk models with the settings of
acceptance criterion 6 (100 positive and 200 negative crops from seed 7,
search seed 3, default learner settings, one worker) and writes them to
``fixtures/``. Then the sha256 of every fixture, and of every recorded
output of one pass of each workload on the default seed, in full and in
tiny sizes, are written to ``fingerprints.json``. Run it only when a
change alters the outputs on purpose, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def train_models() -> None:
    from boostdet.features import FeatureKind
    from boostdet.learner import LearnerConfig
    from boostdet.modelio import dump_model
    from boostdet.pipeline import train_detector
    from boostdet.synthetic import training_samples

    import workloads

    samples = training_samples(workloads.N_POSITIVES, workloads.N_NEGATIVES,
                               seed=workloads.CROPS_SEED)
    for kind in FeatureKind:
        result = train_detector(samples, 50, LearnerConfig(family=kind,
                                                           seed=workloads.SEARCH_SEED))
        path = os.path.join(workloads.FIXTURE_DIR, f"{kind.value}.model.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dump_model(result.model))
        print(f"wrote {path} ({len(result.model.stages)} stages)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--models", action="store_true",
                        help="retrain the four desk models before fingerprinting")
    args = parser.parse_args(argv)
    if not run.import_program():
        return 2
    import workloads

    if args.models:
        train_models()
    fixtures = {}
    for family in workloads.FAMILIES:
        name = f"{family}.model.txt"
        fixtures[name] = workloads.sha256(workloads.read_fixture(family).encode("utf-8"))
    outputs = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for sizes in (workloads.FULL, workloads.TINY):
        hashes = {}
        for name in run.WORKLOAD_NAMES:
            # one pass on the default seed, with nothing to compare against
            result = workloads.run_workload(name, workloads.DEFAULT_SEED, 1e-9, False, sizes,
                                            run.OUT_DIR, fixtures, None)
            if result.ledger.failed:
                print("\n".join(result.ledger.failures), file=sys.stderr)
                return 1
            hashes.update({n: result.ledger.hashes[n] for n in result.ledger.recorded})
        outputs[sizes.mode] = hashes
    with open(workloads.FINGERPRINT_FILE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"fixtures": fixtures, "outputs": outputs}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.FINGERPRINT_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
