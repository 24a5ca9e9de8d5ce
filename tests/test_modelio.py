import dataclasses
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostdet.boosting import LabeledSample, Stage, StrongClassifier, WeakClassifier
from boostdet.features import FEATURE_TYPES, FIELD_RULES, FIELDS, FeatureKind, field_values
from boostdet.learner import random_feature
from boostdet.modelio import (
    CODECS,
    LAYOUT,
    ModelFormatError,
    dump_model,
    load_model,
    parse_model,
    save_model,
)
from conftest import fixture_model_text, rand_window, score


def mixed_model(py: random.Random, stages_per_family: int = 2) -> StrongClassifier:
    stages = []
    for family in FeatureKind:
        for _ in range(stages_per_family):
            stages.append(Stage(alpha=py.uniform(0.001, 5.0),
                                weak=WeakClassifier(random_feature(family, py),
                                                    py.choice((-1, 1)))))
    return StrongClassifier(stages=tuple(stages))


def test_round_trip_is_identity():
    model = mixed_model(random.Random(3))
    assert parse_model(dump_model(model)) == model


def test_round_trip_preserves_predictions(rng):
    model = mixed_model(random.Random(5))
    back = parse_model(dump_model(model))
    for _ in range(100):
        sample = LabeledSample(rand_window(rng), 1)
        assert score(model, sample) == score(back, sample)


def test_file_round_trip(tmp_path):
    model = mixed_model(random.Random(7))
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert load_model(path) == model
    # a second save is byte-identical
    text = path.read_bytes()
    save_model(model, path)
    assert path.read_bytes() == text


def test_dump_is_versioned_text():
    model = mixed_model(random.Random(9), stages_per_family=1)
    text = dump_model(model)
    lines = text.splitlines()
    assert lines[0] == "boostdet-model format=1"
    assert lines[1] == "canonical 32 24"
    assert lines[2] == "stages 4"
    assert all(line.startswith("stage family=") for line in lines[3:])


@pytest.mark.parametrize("mangle, pattern", [
    (lambda t: "not-a-model\n" + t, ":1"),
    (lambda t: t.replace("format=1", "format=9"), "version"),
    (lambda t: t.replace("stages 4", "stages 7"), "declares 7"),
    (lambda t: t.replace("polarity=", "polarit="), "polarity"),
    (lambda t: t.replace("family=haar", "family=zzz"), "zzz"),
])
def test_parse_errors_name_the_problem(mangle, pattern):
    model = mixed_model(random.Random(11), stages_per_family=1)
    broken = mangle(dump_model(model))
    with pytest.raises(ModelFormatError, match=pattern):
        parse_model(broken)


def test_parse_error_names_line_number():
    model = mixed_model(random.Random(13), stages_per_family=1)
    lines = dump_model(model).splitlines()
    lines[5] = lines[5].replace("alpha=", "alpha=oops")
    with pytest.raises(ModelFormatError, match=":6"):
        parse_model("\n".join(lines) + "\n", source="m")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_threshold_names_line(bad):
    # a NaN threshold would parse into a stage that never fires
    model = mixed_model(random.Random(15), stages_per_family=1)
    lines = dump_model(model).splitlines()
    haar = next(i for i, line in enumerate(lines) if "family=haar" in line)
    fields = [f"t={bad}" if tok.startswith("t=") else tok for tok in lines[haar].split()]
    lines[haar] = " ".join(fields)
    with pytest.raises(ModelFormatError, match=rf"m:{haar + 1}: threshold must be finite"):
        parse_model("\n".join(lines) + "\n", source="m")


def _replace_stage_line(text: str, index: int, line: str) -> str:
    lines = text.splitlines()
    lines[3 + index] = line
    return "\n".join(lines) + "\n"


def test_zero_stages_names_line():
    text = "boostdet-model format=1\ncanonical 32 24\nstages 0\n"
    with pytest.raises(ModelFormatError, match=r"m:3: .*at least one stage"):
        parse_model(text, source="m")


@pytest.mark.parametrize("line, value", [(2, "canonical 3x 24"), (2, "canonical 32 2.5"),
                                         (3, "stages four")])
def test_bad_header_number_names_line(line, value):
    lines = dump_model(mixed_model(random.Random(17), stages_per_family=1)).splitlines()
    lines[line - 1] = value
    with pytest.raises(ModelFormatError, match=rf"^m:{line}: bad header number"):
        parse_model("\n".join(lines) + "\n", source="m")


@pytest.mark.parametrize("declared", [3, 7])
def test_stage_count_mismatch_names_line(declared):
    text = dump_model(mixed_model(random.Random(19), stages_per_family=1))
    pattern = rf"^m:3: header declares {declared} stages, found 4"
    with pytest.raises(ModelFormatError, match=pattern):
        parse_model(text.replace("stages 4", f"stages {declared}"), source="m")


@pytest.mark.parametrize("family", list(FeatureKind), ids=lambda f: f.value)
def test_repeated_key_names_line_and_key(family):
    model = mixed_model(random.Random(17), stages_per_family=1)
    text = dump_model(model)
    index = list(FeatureKind).index(family)
    line = text.splitlines()[3 + index]
    last = line.split()[-1]
    broken = _replace_stage_line(text, index, f"{line} {last}")
    key = last.split("=")[0]
    with pytest.raises(ModelFormatError, match=rf"m:{4 + index}: repeated key '{key}'"):
        parse_model(broken, source="m")


@pytest.mark.parametrize("extra", ["junk=5", "t1=0.5", "chain=0:0:+"])
def test_unknown_key_names_line_and_key(extra):
    # the last two are valid keys of other families, not of haar
    model = mixed_model(random.Random(19), stages_per_family=1)
    text = dump_model(model)
    line = text.splitlines()[3]
    assert "family=haar" in line
    broken = _replace_stage_line(text, 0, f"{line} {extra}")
    key = extra.split("=")[0]
    with pytest.raises(ModelFormatError, match=rf"m:4: unknown key '{key}'"):
        parse_model(broken, source="m")


def test_layout_matches_feature_fields():
    # one class per family, each naming its own family
    assert set(FEATURE_TYPES) == set(FeatureKind) == set(LAYOUT)
    types = list(FEATURE_TYPES.values())
    assert len(set(types)) == len(types) and set(types) == set(FIELD_RULES)
    assert all(FEATURE_TYPES[k].kind is k for k in FeatureKind)
    # every field of every feature type is written, under a distinct key
    for kind, layout in LAYOUT.items():
        feature_type = FEATURE_TYPES[kind]
        attrs = [attr for _, attr, _ in layout]
        assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(feature_type))
        keys = [key for key, _, _ in layout]
        assert len(set(keys)) == len(keys)
        assert not set(keys) & {"family", "polarity", "alpha"}
    # every field declares a key, a rule and a slot with a codec, in
    # constructor order, and the layout and the rules are read from them
    for family, specs in FIELDS.items():
        assert [spec.name for spec in specs] == [f.name for f in dataclasses.fields(family)]
        for spec in specs:
            assert isinstance(spec.key, str) and spec.key and callable(spec.rule)
            assert spec.slot in CODECS
        assert LAYOUT[family.kind] == tuple((spec.key, spec.name, CODECS[spec.slot])
                                            for spec in specs)
        assert FIELD_RULES[family] == tuple(spec.rule for spec in specs)
        feature = random_feature(family.kind, random.Random(3))
        assert field_values(feature) == tuple(getattr(feature, spec.name) for spec in specs)


_ONE_STAGE = {"haar": "a=0,0,1,4 b=1,0,1,4 t=0.5", "cp": "pos=1:2 neg=3:4 v=3",
              "nconnex": "chain=1:2:+;2:2:- v=3"}


@pytest.mark.parametrize("family, old, new", [
    ("haar", "a=0,0,1,4", "a=0,0,1_0,4"), ("haar", "a=0,0,1,4", "a=0,0,+1,4"),
    ("haar", "polarity=1", "polarity=+1"), ("cp", "v=3", "v=\u0663"), ("cp", "v=3", "v=+3"),
    ("cp", "pos=1:2", "pos=1:\uff12"), ("nconnex", "chain=1:2:+", "chain=1:+2:+"),
    ("nconnex", "v=3", "v=0_3"), ("haar", "canonical 32 24", "canonical 32 +24"),
    ("haar", "canonical 32 24", "canonical 3_2 24"), ("haar", "stages 1", "stages \u0661"),
])
def test_integers_are_read_as_written(family, old, new):
    # int() alone takes a sign, underscores and non-ASCII digits, none of
    # which dump_model writes; a model holding one is refused by line
    text = ("boostdet-model format=1\ncanonical 32 24\nstages 1\n"
            f"stage family={family} polarity=1 alpha=0.5 {_ONE_STAGE[family]}\n")
    assert parse_model(text).stages
    line = next(i for i, row in enumerate(text.split("\n"), start=1) if old in row)
    with pytest.raises(ModelFormatError, match=rf"^m:{line}: "):
        parse_model(text.replace(old, new), source="m")


def _with_field(family: str, key: str, value: str) -> tuple[str, int]:
    """A valid dump whose ``family`` stage line has ``key=value``, and that line's number."""
    lines = dump_model(mixed_model(random.Random(29), stages_per_family=1)).split("\n")
    line = next(i for i, row in enumerate(lines) if f"family={family} " in row)
    lines[line] = " ".join(f"{key}={value}" if tok.startswith(f"{key}=") else tok
                           for tok in lines[line].split())
    return "\n".join(lines), line + 1


@pytest.mark.parametrize("family, key, value", [
    ("haar", "t", "1_0.5"), ("haar", "t", "\u0663.5"), ("haar", "t", "+0.5"),
    ("haar", "t", ".5"), ("haar", "t", "5."), ("haar", "t", "1E5"), ("haar", "t", "01.5"),
    ("haar", "t", "Infinity"), ("haar", "t", "-nan"), ("haar", "t", "+inf"),
    ("haar", "alpha", "+0.5"), ("cp", "alpha", "1_0.5"), ("symhaar", "t1", "\u0663.5"),
    ("symhaar", "td2", "1e+0_5"), ("nconnex", "alpha", "NaN"),
])
def test_floats_are_read_as_repr_writes_them(family, key, value):
    # float() alone takes each of these; dump_model writes none of them
    text, line = _with_field(family, key, "0.5")
    assert parse_model(text).stages
    with pytest.raises(ModelFormatError, match=rf"^m:{line}: .* is not a float in the form"):
        parse_model(_with_field(family, key, value)[0], source="m")


@pytest.mark.parametrize("family, key, value, message", [
    ("haar", "alpha", "inf", "stage weight must be finite"),
    ("cp", "alpha", "nan", "stage weight must be finite"),
    ("haar", "t", "-inf", "threshold must be finite"),
    ("symhaar", "t1", "nan", "t_left must be finite"),
    ("symhaar", "td2", "inf", "mid_margin must be finite"),
])
def test_infinite_and_nan_floats_reach_their_field_rule(family, key, value, message):
    text, line = _with_field(family, key, value)
    with pytest.raises(ModelFormatError, match=rf"^m:{line}: {message}"):
        parse_model(text, source="m")


_NOT_AN_INTEGER = "is not an integer in the form"


@pytest.mark.parametrize("family, old, new, message", [
    ("haar", "canonical 32 24", "canonical 032 024", _NOT_AN_INTEGER),
    ("haar", "stages 1", "stages 01", _NOT_AN_INTEGER),
    ("haar", "a=0,0,1,4", "a=00,0,1,4", _NOT_AN_INTEGER),
    ("haar", "a=0,0,1,4", "a=-0,0,1,4", _NOT_AN_INTEGER),
    ("haar", "polarity=1", "polarity=01", _NOT_AN_INTEGER),
    ("haar", "polarity=1", "polarity=-01", _NOT_AN_INTEGER),
    ("cp", "v=3", "v=03", _NOT_AN_INTEGER), ("cp", "pos=1:2", "pos=1:-0", "bad point"),
    ("nconnex", "chain=1:2:+", "chain=01:2:+", "bad chain point"),
])
def test_integers_take_no_leading_zero_and_no_minus_zero(family, old, new, message):
    text = ("boostdet-model format=1\ncanonical 32 24\nstages 1\n"
            f"stage family={family} polarity=1 alpha=0.5 {_ONE_STAGE[family]}\n")
    assert parse_model(text).stages
    line = next(i for i, row in enumerate(text.split("\n"), start=1) if old in row)
    with pytest.raises(ModelFormatError, match=rf"^m:{line}: .*{message}"):
        parse_model(text.replace(old, new), source="m")


@pytest.mark.parametrize("family", ["haar", "cp", "symhaar", "nconnex"])
def test_fixture_models_load_and_dump_as_written(family):
    text = fixture_model_text(family)
    model = parse_model(text)
    assert len(model.stages) == 50
    assert dump_model(model) == text


_VALID_DUMPS = [dump_model(mixed_model(random.Random(seed), stages_per_family=1))
                for seed in (21, 23)]
_HEADER = _VALID_DUMPS[0].splitlines()[:2]
_STAGE_LINES = [line for text in _VALID_DUMPS for line in text.splitlines()[3:]]


@st.composite
def _mutated_dump(draw):
    # valid stage lines under a matching count, then up to four edits
    stages = draw(st.lists(st.sampled_from(_STAGE_LINES), max_size=6))
    text = "\n".join([*_HEADER, f"stages {len(stages)}", *stages]) + "\n"
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("number", "insert", "delete", "replace", "duplicate")))
        # a number op picks a line first, so the three header lines are hit often
        lines = text.split("\n")
        row = draw(st.integers(0, len(lines) - 1))
        numbers = list(re.finditer(r"-?\d+(\.\d+)?(e[-+]?\d+)?", lines[row]))
        if op == "number" and numbers:
            m = draw(st.sampled_from(numbers))
            value = draw(st.sampled_from(("0", "-1", "1", "2", "nan", "inf", "1e999", "")))
            lines[row] = lines[row][:m.start()] + value + lines[row][m.end():]
            text = "\n".join(lines)
        elif op == "insert":
            text = text[:i] + draw(st.text(max_size=8)) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 12)):]
        elif op == "replace":
            text = text[:i] + draw(st.sampled_from("0-1.,;:=+ \nxe")) + text[i + 1:]
        else:
            j = draw(st.integers(i, min(len(text), i + 40)))
            text = text[:j] + text[i:j] + text[j:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _mutated_dump()))
@example("boostdet-model format=1\ncanonical 32 24\nstages 0\n")
def test_parse_model_fuzz_only_raises_model_format_error(text):
    try:
        model = parse_model(text, source="fuzz")
    except ModelFormatError:
        return
    assert isinstance(model, StrongClassifier) and model.stages


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"], ids=lambda c: f"U+{ord(c):04X}")
def test_lines_break_only_at_newline(char):
    # str.splitlines() also breaks at these characters, which pushed every
    # later line number one too far
    lines = dump_model(mixed_model(random.Random(21), stages_per_family=1)).split("\n")
    haar = lines[3]
    assert "family=haar" in haar
    bad = " ".join("t=-1" if tok.startswith("t=") else tok for tok in haar.split())
    text = "\n".join(lines[:2] + ["stages 2", f"{haar} {char}", bad]) + "\n"
    with pytest.raises(ModelFormatError, match=r"^m:5: threshold must be"):
        parse_model(text, source="m")
