"""Annotation files, the sorted ``.pgm`` listing of a directory,
``read_text``, the UTF-8 reading that every text reader shares, and
``read_int`` and ``read_float``, the number reading they share.

A number is read only in the form the package writes it: an integer as
``str`` writes one, in ASCII ``0|-?[1-9][0-9]*``, and a float as
``repr`` writes one, so ``032``, ``-0``, ``+1``, ``1_0``, ``.5``,
``1E5`` and non-ASCII digits are refused, while ``inf`` and ``nan`` are
read, for the caller's own check.

Annotation grammar, one box per line, '#' starts a comment:

    frame_path x y w h      (integers ``imaging.rect_problem`` accepts, else
                             an ``AnnotationError`` names path:line)
"""

from __future__ import annotations

import io
import os
import re

from .evalkit import GroundTruthFrame
from .imaging import Rect


class AnnotationError(ValueError):
    """Malformed annotation line; the message names the line number."""


def read_text(path, error: type[ValueError] = ValueError) -> str:
    """The UTF-8 text of ``path``, its lines ended as in a text-mode file.

    A byte that is not UTF-8 raises ``error`` naming the file and line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).read()
        lineno = before.count("\n") + 1
        raise error(f"{path}:{lineno}: not UTF-8 text "
                    f"({exc.reason} at byte {exc.start})") from None
    return io.StringIO(text, newline=None).read()


def _number(form: str, convert, name: str):
    # ``convert`` of text in ``form`` only: int() and float() alone also take
    # "+1", "032", "-0", "1_0", ".5", "1E5", "Infinity" and non-ASCII digits
    match = re.compile(form).fullmatch

    def read(text: str):
        if match(text) is None:
            raise ValueError(f"{text!r:.200} is not {name} in the form boostdet writes")
        return convert(text)
    return read


# str's form of an int; repr's of a float ("-0.5", "1e-05", "inf", "nan"),
# whose fraction and exponent may be left out
read_int = _number(r"0|-?[1-9][0-9]*", int, "an integer")
read_float = _number(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?(e[-+][0-9]+)?|-?inf|nan", float, "a float")


def parse_annotations(path) -> list[GroundTruthFrame]:
    """Ground-truth boxes grouped by frame, in first-seen frame order."""
    boxes_by_frame: dict[str, list[Rect]] = {}
    for lineno, raw in enumerate(read_text(path, AnnotationError).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise AnnotationError(
                f"{path}:{lineno}: expected 'frame_path x y w h', got {raw.strip()!r}")
        frame_id = parts[0]
        try:
            x, y, w, h = map(read_int, parts[1:])
        except ValueError as exc:
            raise AnnotationError(
                f"{path}:{lineno}: box coordinates must be integers: {exc}") from None
        try:
            rect = Rect(x=x, y=y, w=w, h=h)
        except ValueError as exc:
            raise AnnotationError(f"{path}:{lineno}: {exc}") from None
        boxes_by_frame.setdefault(frame_id, []).append(rect)
    return [GroundTruthFrame(frame_id=fid, boxes=tuple(bx))
            for fid, bx in boxes_by_frame.items()]


def write_annotations(frames: list[GroundTruthFrame], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in frames:
            for b in frame.boxes:
                fh.write(f"{frame.frame_id} {b.x} {b.y} {b.w} {b.h}\n")


def list_pgm_files(directory) -> list[str]:
    """Sorted .pgm paths directly inside ``directory``."""
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".pgm"))
    return [os.path.join(directory, n) for n in names]

