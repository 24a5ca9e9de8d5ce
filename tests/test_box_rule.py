"""One box rule at every entry point.

``imaging.rect_problem`` states what a box is: offsets >= 0, extents >= 1,
all four below ``MAX_COORD``. A ``Rect``, a ``Detections`` row, a
detections-CSV row and an annotation line accept exactly the boxes it
accepts, and the two file readers name ``path:line`` when they refuse one.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from boostdet.cli import parse_detections_csv
from boostdet.dataset import AnnotationError, parse_annotations
from boostdet.detector import Detections
from boostdet.evalkit import GroundTruthFrame
from boostdet.imaging import MAX_COORD, Rect, rect_problem, rect_rows, rect_rows_problem

COORDS = st.sampled_from([-1, 0, 1, MAX_COORD - 1, MAX_COORD, 2 ** 63, 10 ** 30])


def is_box(x, y, w, h) -> bool:
    return 0 <= x < MAX_COORD and 0 <= y < MAX_COORD and 1 <= w < MAX_COORD and 1 <= h < MAX_COORD


@pytest.fixture(scope="module")
def box_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boxes")


@given(box=st.tuples(COORDS, COORDS, COORDS, COORDS))
@example(box=(0, 0, 1, 1))
@example(box=(MAX_COORD - 1,) * 4)
@example(box=(MAX_COORD, 0, 1, 1))
@example(box=(0, 0, 1, 2 ** 63))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_entry_point_accepts_the_same_boxes(box_dir, box):
    accepted = is_box(*box)
    assert (rect_problem(*box) is None) == accepted

    if accepted:
        assert rect_rows([Rect(*box)]).tolist() == [list(box)]
        assert Detections([box], [0.0]).boxes.tolist() == [list(box)]
    else:
        with pytest.raises(ValueError):
            Rect(*box)
        with pytest.raises(ValueError):
            Detections([box], [0.0])

    text = " ".join(map(str, box))
    csv = box_dir / "dets.csv"
    csv.write_text(f"frame_id,x,y,w,h,margin\nf0,{text.replace(' ', ',')},0.5\n")
    notes = box_dir / "annotations.txt"
    notes.write_text(f"f0 {text}\n")
    if accepted:
        assert parse_detections_csv(csv)["f0"].boxes.tolist() == [list(box)]
        assert parse_annotations(notes) == [GroundTruthFrame("f0", (Rect(*box),))]
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(str(csv))}:2: "):
            parse_detections_csv(csv)
        with pytest.raises(AnnotationError, match=rf"^{re.escape(str(notes))}:1: "):
            parse_annotations(notes)


def test_rows_problem_names_the_first_bad_row():
    rows = rect_rows([Rect(0, 0, 1, 1), Rect(MAX_COORD - 1, 2, 3, 4)])
    assert rows.dtype == np.int64 and rows.tolist() == [[0, 0, 1, 1], [MAX_COORD - 1, 2, 3, 4]]
    assert rect_rows_problem(rows) is None
    assert rect_rows(()).shape == (0, 4) and rect_rows_problem(rect_rows(())) is None
    bad = np.array([[0, 0, 1, 1], [0, 0, 0, 1], [MAX_COORD, 0, 1, 1]])
    assert rect_rows_problem(bad) == "boxes[1] = [0, 0, 0, 1]: rect extents must be >= 1"
    assert rect_rows_problem(bad[::2]) == (f"boxes[1] = [{MAX_COORD}, 0, 1, 1]: rect offsets "
                                           f"and extents must lie below {MAX_COORD}")


@pytest.mark.parametrize("box", [(0.5, 0, 1.5, 1), (0, 0, 2.0, 1), (True, 0, 1, 1),
                                 (0, 0, 1, np.True_), (0, float("nan"), 1, 1),
                                 (0, 0, np.float64(3), 1), ("0", 0, 1, 1)])
def test_a_box_of_floats_or_bools_is_refused(box):
    # rect_rows would truncate a float, and a bool would be read as 0 or 1
    assert rect_problem(*box) == "rect offsets and extents must be integers, not bool or float"
    with pytest.raises(ValueError, match="must be integers"):
        Rect(*box)


def test_numpy_integers_make_a_box():
    box = Rect(np.int64(1), np.int32(2), np.uint16(3), 4)
    assert rect_rows([box]).tolist() == [[1, 2, 3, 4]]


@pytest.mark.filterwarnings("error")
def test_a_box_of_narrow_numpy_integers_does_not_wrap():
    # uint8 fields would wrap 250 + 10 to 4 and 10 * 30 to 44, with a
    # RuntimeWarning; the box holds them as ints
    box = Rect(np.uint8(250), np.uint8(0), np.uint8(10), np.uint8(30))
    assert all(type(v) is int for v in (box.x, box.y, box.w, box.h))
    assert not box.fits_in(255, 255)
    assert box.fits_in(260, 30)
    assert box.area == 300
    assert box == Rect(250, 0, 10, 30) and hash(box) == hash(Rect(250, 0, 10, 30))
