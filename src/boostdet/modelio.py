"""Versioned text format for trained models.

One stage per line, fields named, floats printed with repr so a
save/load round trip reproduces predictions exactly. The format is
line-oriented and human-diffable; parse errors name their line.
``LAYOUT`` defines each family's stage fields once, for the writer and
the reader alike, and the reader rejects a missing, unknown or repeated key.
A feature names its family as ``kind``, and the reader builds the class
``features.FEATURE_TYPES`` holds for the stage's family.
"""

from __future__ import annotations

from .boosting import Stage, StrongClassifier, WeakClassifier
from .dataset import read_text
from .features import CANONICAL_H, CANONICAL_W, FEATURE_TYPES, FeatureKind
from .imaging import Rect

FORMAT_VERSION = 1
MAGIC = "boostdet-model"


class ModelFormatError(ValueError):
    """Malformed model file; the message names the offending line."""


def _rect_str(r: Rect) -> str:
    return f"{r.x},{r.y},{r.w},{r.h}"


def _parse_rect(text: str) -> Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"rect needs 4 comma-separated integers, got {text!r}")
    x, y, w, h = (int(p) for p in parts)
    return Rect(x=x, y=y, w=w, h=h)


def _points_str(points) -> str:
    return ";".join(f"{x}:{y}" for x, y in points)


def _parse_points(text: str) -> tuple[tuple[int, int], ...]:
    points = []
    for item in text.split(";"):
        try:
            x, y = item.split(":")
            points.append((int(x), int(y)))
        except ValueError:
            raise ValueError(f"bad point {item!r}") from None
    return tuple(points)


def _chain_str(chain) -> str:
    return ";".join(f"{x}:{y}:{'+' if t else '-'}" for x, y, t in chain)


def _parse_chain(text: str) -> tuple[tuple[int, int, bool], ...]:
    chain = []
    for item in text.split(";"):
        parts = item.split(":")
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise ValueError(f"bad chain point {item!r}")
        try:
            chain.append((int(parts[0]), int(parts[1]), parts[2] == "+"))
        except ValueError:
            raise ValueError(f"bad chain point {item!r}") from None
    return tuple(chain)


# (write, read) pair per field type; a reader raises ValueError on bad text
_RECT = (_rect_str, _parse_rect)
_FLOAT = (repr, float)
_INT = (str, int)
_POINTS = (_points_str, _parse_points)
_CHAIN = (_chain_str, _parse_chain)

# the model-file layout of each family: in file order, (key, attribute,
# codec) for every field of a stage line after the common
# family/polarity/alpha keys
LAYOUT = {
    FeatureKind.HAAR: (
        ("a", "rect_a", _RECT), ("b", "rect_b", _RECT), ("t", "threshold", _FLOAT)),
    FeatureKind.CONTROL_POINTS: (
        ("pos", "pos_points", _POINTS), ("neg", "neg_points", _POINTS),
        ("v", "separation", _INT)),
    FeatureKind.SYMMETRIC_HAAR: (
        ("la", "left_a", _RECT), ("lb", "left_b", _RECT),
        ("ma", "mid_a", _RECT), ("mb", "mid_b", _RECT),
        ("t1", "t_left", _FLOAT), ("t2", "t_right", _FLOAT), ("t3", "t_mid", _FLOAT),
        ("td1", "sym_tol", _FLOAT), ("td2", "mid_margin", _FLOAT)),
    FeatureKind.CHAIN: (("chain", "chain", _CHAIN), ("v", "separation", _INT)),
}
_COMMON_KEYS = ("family", "polarity", "alpha")


def dump_model(model: StrongClassifier) -> str:
    lines = [f"{MAGIC} format={FORMAT_VERSION}",
             f"canonical {CANONICAL_W} {CANONICAL_H}",
             f"stages {len(model.stages)}"]
    for stage in model.stages:
        feature = stage.weak.feature
        fields = [("family", feature.kind.value), ("polarity", str(stage.weak.polarity)),
                  ("alpha", repr(stage.alpha))]
        fields += [(key, write(getattr(feature, attr)))
                   for key, attr, (write, _) in LAYOUT[feature.kind]]
        lines.append("stage " + " ".join(f"{k}={v}" for k, v in fields))
    return "\n".join(lines) + "\n"


def save_model(model: StrongClassifier, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_model(model))


def _parse_stage(line: str, where: str) -> Stage:
    fields: dict[str, str] = {}
    for tok in line.split()[1:]:
        if "=" not in tok:
            raise ModelFormatError(f"{where}: expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key in fields:
            raise ModelFormatError(f"{where}: repeated key {key!r}")
        fields[key] = value
    if "family" not in fields:
        raise ModelFormatError(f"{where}: missing field 'family'")
    try:
        kind = FeatureKind(fields["family"])
    except ValueError:
        raise ModelFormatError(f"{where}: unknown family {fields['family']!r}") from None
    layout = LAYOUT[kind]
    keys = _COMMON_KEYS + tuple(key for key, _, _ in layout)
    for key in keys:
        if key not in fields:
            raise ModelFormatError(f"{where}: missing field {key!r}")
    for key in fields:
        if key not in keys:
            raise ModelFormatError(f"{where}: unknown key {key!r} for family {kind.value}")
    try:
        feature = FEATURE_TYPES[kind](**{attr: read(fields[key])
                                         for key, attr, (_, read) in layout})
        weak = WeakClassifier(feature=feature, polarity=int(fields["polarity"]))
        return Stage(alpha=float(fields["alpha"]), weak=weak)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def _header_number(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: bad header number: {exc}") from None


def parse_model(text: str, source: str = "<model>") -> StrongClassifier:
    if not text:
        raise ModelFormatError(f"{source}:1: empty model file")
    # not splitlines(), which also breaks at "\x0c", "\x85", "\u2028", ...
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].split()
    if len(header) != 2 or header[0] != MAGIC or not header[1].startswith("format="):
        raise ModelFormatError(f"{source}:1: not a {MAGIC} file")
    version = header[1].removeprefix("format=")
    if version != str(FORMAT_VERSION):
        raise ModelFormatError(f"{source}:1: unsupported format version {version!r}")
    if len(lines) < 3:
        raise ModelFormatError(f"{source}: truncated header")
    canon = lines[1].split()
    if len(canon) != 3 or canon[0] != "canonical":
        raise ModelFormatError(f"{source}:2: expected 'canonical W H'")
    count_line = lines[2].split()
    if len(count_line) != 2 or count_line[0] != "stages":
        raise ModelFormatError(f"{source}:3: expected 'stages N'")
    canonical_w, canonical_h = (_header_number(v, f"{source}:2") for v in canon[1:])
    n_stages = _header_number(count_line[1], f"{source}:3")
    if n_stages < 1:
        raise ModelFormatError(
            f"{source}:3: a model holds at least one stage, header declares {n_stages}")
    if (canonical_w, canonical_h) != (CANONICAL_W, CANONICAL_H):
        raise ModelFormatError(
            f"{source}:2: model uses a {canonical_w}x{canonical_h} window, "
            f"this build evaluates {CANONICAL_W}x{CANONICAL_H}")

    stages = []
    for offset, line in enumerate(lines[3:], start=4):
        if not line.strip():
            continue
        if not line.startswith("stage "):
            raise ModelFormatError(f"{source}:{offset}: expected a stage line")
        stages.append(_parse_stage(line, f"{source}:{offset}"))
    if len(stages) != n_stages:
        raise ModelFormatError(
            f"{source}:3: header declares {n_stages} stages, found {len(stages)}")
    return StrongClassifier(stages=tuple(stages))


def load_model(path) -> StrongClassifier:
    return parse_model(read_text(path, ModelFormatError), source=str(path))
