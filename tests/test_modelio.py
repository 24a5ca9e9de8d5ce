import random

import pytest

from boostdet.boosting import LabeledSample, Stage, StrongClassifier, WeakClassifier, score
from boostdet.features import FeatureKind
from boostdet.learner import random_feature
from boostdet.modelio import (
    ModelFormatError,
    dump_model,
    load_model,
    parse_model,
    save_model,
)
from conftest import rand_window


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
