"""Command-line entry points: train, detect, eval, synth.

Exit codes: 0 success, 1 usage error, 2 data error. A count flag out of
range or not an integer is a usage error naming the flag, raised by its
``_int_from`` type as argparse parses it, before any file is read. A
float flag takes a negative value in any form ``repr`` writes
(``--bias -1e-05``, ``--bias -inf``), not only the ``-1`` and ``-1.5``
that argparse alone tells from an option.

``detect`` writes, per frame, the rows NMS keeps in scan order (pyramid
level, then row, then column): ``nms(..., input_order=True)`` sorts the
kept rows by their positions in the scan's ``Detections``. A sort on the
box values would not do, because two levels can share a window size and
differ only in stride. Margins are formatted from Python floats
(``.tolist()``), whose ``repr`` round-trips, since NumPy 2 writes the
``repr`` of a ``numpy.float64`` as ``np.float64(...)``. Each frame's rows
are written once it is scanned, to a new file beside ``--out`` that
replaces ``--out`` only when every frame is done, so a failed run leaves
``--out`` as it was and nothing else behind.

``eval`` reads the CSV back as one ``Detections`` record per frame, with
no ``Detection`` per row. Its numbers must be in the form ``detect``
writes them, ``dataset.INT_FORM`` and ``FLOAT_FORM``: one compiled
pattern checks a row's five at once, and only a row it refuses goes
through ``dataset.read_int`` and ``read_float``, for the message. Any
other form, and a box that ``imaging.rect_problem`` rejects, is an error
naming its file and line. Rows split from the right, so a frame id may
contain commas.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import stat
import sys

from .boosting import LabeledSample
from .dataset import (FLOAT_FORM, INT_FORM, AnnotationError, list_pgm_files, parse_annotations,
                      read_float, read_int, read_text)
from .detector import Detections, ScanConfig, check_iou_threshold, nms, scan
from .evalkit import auc, pr_curve, roc_curve, write_curves
from .features import FeatureKind
from .imaging import rect_problem
from .learner import LearnerConfig
from .modelio import ModelFormatError, load_model, save_model
from .pgm import PgmError, load_pgm
from .pipeline import train_detector
from .synthetic import write_dataset

FAMILIES = [k.value for k in FeatureKind]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token starting with "-" is an option unless this matches it;
        # argparse's own pattern takes "-1" and "-.5" but not "-1e9" or "-inf",
        # which a float flag such as --bias must also accept
        self._negative_number_matcher = re.compile(r"-(\d+|\d*\.\d+)(e[-+]?\d+)?$|-inf$")

    def error(self, message):
        raise UsageError(message)


def _int_from(least: int):
    """An argparse type: an integer of at least ``least``."""
    def check(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    check.__name__ = "int"  # so a non-integer reads "invalid int value: 'abc'"
    return check


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="boostdet",
                     description="Boosted sliding-window object detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a boosted detector")
    p_train.add_argument("--family", required=True, choices=FAMILIES)
    p_train.add_argument("--positives", required=True, help="dir of canonical positive crops")
    p_train.add_argument("--negatives", required=True, help="dir of canonical negative crops")
    p_train.add_argument("--rounds", type=_int_from(1), required=True)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--log", help="per-round CSV log (default: <out>.log.csv)")
    p_train.add_argument("--learner-log",
                         help="optional per-generation search progress CSV")
    p_train.add_argument("--population", type=_int_from(2), default=100)
    p_train.add_argument("--generations", type=_int_from(1), default=30)
    p_train.add_argument("--stall-limit", type=_int_from(1), default=8)
    p_train.add_argument("--workers", type=_int_from(1), default=1,
                         help="accepted for compatibility; neither output nor speed "
                              "depends on the value")
    p_train.add_argument("--literal-zero-update", action="store_true",
                         help="zero misclassified weights in the update (study variant)")

    p_detect = sub.add_parser("detect", help="run a model over frames")
    p_detect.add_argument("--model", required=True)
    p_detect.add_argument("--frames", required=True, help="dir of .pgm frames")
    p_detect.add_argument("--out", required=True, help="detections CSV to write")
    p_detect.add_argument("--scale-factor", type=float, default=1.25)
    p_detect.add_argument("--stride", type=int, default=2)
    p_detect.add_argument("--min-window-w", type=int, default=32)
    p_detect.add_argument("--bias", type=float, default=0.0)
    p_detect.add_argument("--nms-iou", type=float, default=0.5)
    p_detect.add_argument("--workers", type=_int_from(1), default=1,
                          help="accepted for compatibility; neither output nor speed "
                               "depends on the value")

    p_eval = sub.add_parser("eval", help="score detections against ground truth")
    p_eval.add_argument("--detections", required=True, help="CSV from the detect command")
    p_eval.add_argument("--annotations", required=True, help="'frame x y w h' ground truth")
    p_eval.add_argument("--roc-out", default="roc.csv")
    p_eval.add_argument("--pr-out", default="pr.csv")
    p_eval.add_argument("--iou", type=float, default=0.5)

    p_synth = sub.add_parser("synth", help="generate a synthetic desk-scale dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--positives", type=_int_from(1), default=100)
    p_synth.add_argument("--negatives", type=_int_from(1), default=200)
    p_synth.add_argument("--frames", type=_int_from(1), default=200)
    p_synth.add_argument("--seed", type=_int_from(0), default=0)
    p_synth.add_argument("--frame-width", type=_int_from(1), default=128)
    p_synth.add_argument("--frame-height", type=_int_from(1), default=96)
    return parser


def cmd_train(args) -> int:
    samples = []
    for directory, label, kind in ((args.positives, 1, "positive"),
                                   (args.negatives, -1, "negative")):
        paths = list_pgm_files(directory)
        if not paths:
            raise ValueError(f"no {kind} crops found in {directory}")
        for path in paths:
            try:
                samples.append(LabeledSample(load_pgm(path), label))
            except PgmError:
                raise  # load_pgm has named the path already
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None

    learner_config = LearnerConfig(
        family=FeatureKind(args.family), population_size=args.population,
        generations=args.generations, stall_limit=args.stall_limit,
        seed=args.seed, parallel_workers=args.workers)

    progress = None
    learner_log = None
    if args.learner_log:
        learner_log = open(args.learner_log, "w", encoding="utf-8", newline="\n")
        learner_log.write("round,generation,best_epsilon,mean_epsilon\n")

        def progress(t, gen, best, mean):
            learner_log.write(f"{t},{gen},{best!r},{mean!r}\n")

    try:
        result = train_detector(samples, args.rounds, learner_config,
                                literal_zero_update=args.literal_zero_update,
                                progress=progress)
    finally:
        if learner_log is not None:
            learner_log.close()

    log_path = args.log or f"{args.out}.log.csv"
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,epsilon,beta,alpha,bound,train_error\n")
        for r in result.rounds:
            fh.write(f"{r.t},{r.epsilon!r},{r.beta!r},{r.alpha!r},"
                     f"{r.bound!r},{r.train_error!r}\n")

    if result.model is None:
        print(f"training kept no stages ({result.stop_reason})", file=sys.stderr)
        return 2
    save_model(result.model, args.out)
    last = result.rounds[-1]
    print(f"trained {len(result.model.stages)} stages "
          f"(final train_error={last.train_error!r}, bound={last.bound!r})")
    if result.stop_reason != "completed":
        print(result.stop_reason)
    return 0


def cmd_detect(args) -> int:
    model = load_model(args.model)
    cfg = ScanConfig(scale_factor=args.scale_factor, stride=args.stride,
                     min_window_w=args.min_window_w, bias=args.bias)
    check_iou_threshold("--nms-iou", args.nms_iou)
    paths = list_pgm_files(args.frames)
    tmp = f"{args.out}.{os.urandom(4).hex()}.tmp"
    # 0o666 less the umask, the mode ``open(args.out, "w")`` creates a file with
    # (``tempfile`` makes 0o600); an existing ``--out`` keeps its own mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            if os.path.exists(args.out):
                os.chmod(tmp, stat.S_IMODE(os.stat(args.out).st_mode))
            fh.write("frame_id,x,y,w,h,margin\n")
            for path in paths:
                frame = load_pgm(path)
                # rows go out in scan order, not in the margin order nms ranks by
                kept = nms(scan(model, frame, cfg), overlap_threshold=args.nms_iou,
                           input_order=True)
                frame_id = os.path.basename(path)
                fh.writelines(f"{frame_id},{x},{y},{w},{h},{margin!r}\n" for (x, y, w, h), margin
                              in zip(kept.boxes.tolist(), kept.margins.tolist()))
        os.replace(tmp, args.out)
    except BaseException:
        os.unlink(tmp)
        raise
    return 0


# the five numbers after a row's frame id, each in read_int's or read_float's form
_ROW_NUMBERS = re.compile(",".join([f"(?:{INT_FORM})"] * 4 + [f"(?:{FLOAT_FORM})"]))


def parse_detections_csv(path) -> dict[str, Detections]:
    """Read a detect-command CSV back into one ``Detections`` per frame.

    Lines end as in a text-mode file. Anything malformed, bytes that are
    not UTF-8 and boxes ``imaging.rect_problem`` rejects included, raises
    ValueError naming the file and line.
    """
    lines = read_text(path).split("\n")
    header = lines[0].strip()
    if header != "frame_id,x,y,w,h,margin":
        raise ValueError(f"{path}:1: unexpected header {header!r}")
    rows: dict[str, tuple[list[list[int]], list[float]]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.rsplit(",", 5)
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        try:
            if _ROW_NUMBERS.fullmatch(line, len(parts[0]) + 1) is None:
                # the reader of the first field out of form names it
                for p in parts[1:5]:
                    read_int(p)
                read_float(parts[5])
            # int() of a number in form still refuses more digits than
            # sys.get_int_max_str_digits()
            box = [int(p) for p in parts[1:5]]
            margin = float(parts[5])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        problem = rect_problem(*box)
        if problem is not None:
            raise ValueError(f"{path}:{lineno}: {problem}, got {','.join(parts[1:5])}")
        if not math.isfinite(margin):
            raise ValueError(f"{path}:{lineno}: margin must be finite, got {parts[5]!r}")
        boxes, margins = rows.setdefault(parts[0], ([], []))
        boxes.append(box)
        margins.append(margin)
    return {fid: Detections(boxes, margins) for fid, (boxes, margins) in rows.items()}


def cmd_eval(args) -> int:
    check_iou_threshold("--iou", args.iou)
    detections = parse_detections_csv(args.detections)
    truths = parse_annotations(args.annotations)
    roc = roc_curve(detections, truths, iou_threshold=args.iou)
    pr = pr_curve(detections, truths, iou_threshold=args.iou)
    write_curves(roc, pr, args.roc_out, args.pr_out)
    print(f"roc_auc {auc(roc)!r}" if len(roc) >= 2 else "roc_auc nan")
    return 0


def cmd_synth(args) -> int:
    write_dataset(args.out, args.positives, args.negatives, args.frames,
                  args.seed, args.frame_width, args.frame_height)
    print(f"wrote dataset under {args.out}")
    return 0


_COMMANDS = {"train": cmd_train, "detect": cmd_detect,
             "eval": cmd_eval, "synth": cmd_synth}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PgmError, AnnotationError, ModelFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
