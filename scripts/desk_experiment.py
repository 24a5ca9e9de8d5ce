#!/usr/bin/env python3
"""Desk-scale end-to-end comparison of the four weak-feature families.

Generates a seeded synthetic dataset, trains one boosted detector per
family, sweeps it over the frame sequence and prints ROC AUC, the
operating point at 0.5 FP/frame, and scan throughput. Curves are written
as CSVs next to the chosen output directory.
"""

import argparse
import os
import sys
import time

from boostdet.detector import ScanConfig, nms, scan
from boostdet.evalkit import GroundTruthFrame, auc, pr_curve, roc_curve, write_curves
from boostdet.features import FeatureKind
from boostdet.learner import LearnerConfig
from boostdet.pipeline import train_detector
from boostdet.synthetic import frame_sequence, training_samples


def run(args) -> int:
    samples = training_samples(args.positives, args.negatives, seed=args.data_seed)
    frames = frame_sequence(args.frames, seed=args.frame_seed)
    truths = [GroundTruthFrame(frame_id=f"frame{i:04d}", boxes=tuple(b))
              for i, (_, b) in enumerate(frames)]
    total_targets = sum(len(t.boxes) for t in truths)
    print(f"dataset: {args.positives} pos / {args.negatives} neg crops, "
          f"{args.frames} frames, {total_targets} planted targets")

    os.makedirs(args.out, exist_ok=True)
    cfg = ScanConfig(bias=args.bias)
    rows = []
    for family in FeatureKind:
        t0 = time.monotonic()
        result = train_detector(
            samples, args.rounds,
            LearnerConfig(family=family, seed=args.train_seed))
        train_s = time.monotonic() - t0
        if result.model is None:
            print(f"{family.value}: no stages kept ({result.stop_reason})")
            continue

        t0 = time.monotonic()
        detections = {}
        for i, (frame, _) in enumerate(frames):
            detections[f"frame{i:04d}"] = nms(scan(result.model, frame, cfg))
        scan_s = time.monotonic() - t0

        roc = roc_curve(detections, truths)
        pr = pr_curve(detections, truths)
        write_curves(roc, pr, os.path.join(args.out, f"roc_{family.value}.csv"),
                     os.path.join(args.out, f"pr_{family.value}.csv"))

        tpr_at_half = max((p.tpr for p in roc if p.fp_per_frame <= 0.5), default=0.0)
        rows.append((family.value, auc(roc), tpr_at_half,
                     result.rounds[-1].train_error, train_s,
                     args.frames / scan_s))

    print()
    print(f"{'family':10s} {'auc':>8s} {'tpr@0.5fp':>10s} {'train_err':>10s} "
          f"{'train_s':>8s} {'frames/s':>9s}")
    for family, a, tpr, err, train_s, fps in sorted(rows, key=lambda r: -r[1]):
        print(f"{family:10s} {a:8.4f} {tpr:10.3f} {err:10.4f} "
              f"{train_s:8.1f} {fps:9.1f}")
    print("\n(ordering is informational; desk-scale synthetic data)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="desk_results")
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--positives", type=int, default=100)
    parser.add_argument("--negatives", type=int, default=200)
    parser.add_argument("--frames", type=int, default=200)
    parser.add_argument("--bias", type=float, default=-1.0)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--frame-seed", type=int, default=99)
    parser.add_argument("--train-seed", type=int, default=3)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
