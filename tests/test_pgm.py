import tracemalloc

import numpy as np
import pytest

from boostdet.imaging import MAX_PIXELS
from boostdet.pgm import HEADER_BYTES, PgmError, load_pgm, parse_pgm, save_pgm
from conftest import rand_image


def test_parse_minimal_p5():
    data = b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40])
    img = parse_pgm(data)
    assert (img.width, img.height) == (2, 2)
    assert img.pixels[0, 0] == 10 and img.pixels[1, 1] == 40


def test_parse_with_comments_and_whitespace():
    data = b"P5 # binary graymap\n# a comment line\n 2\t1 \n255 " + bytes([7, 9])
    img = parse_pgm(data)
    assert img.pixels[0, 0] == 7 and img.pixels[0, 1] == 9


def test_ascii_pgm_rejected():
    with pytest.raises(PgmError, match="P2"):
        parse_pgm(b"P2\n2 2\n255\n1 2 3 4\n")


def test_wrong_maxval_rejected():
    with pytest.raises(PgmError, match="maxval"):
        parse_pgm(b"P5\n2 2\n128\n" + bytes(4))


def test_truncated_payload_names_byte():
    with pytest.raises(PgmError, match="byte"):
        parse_pgm(b"P5\n2 2\n255\n" + bytes(3))


def test_parsed_pixels_are_a_view_of_the_payload():
    data = b"P5\n3 2\n255\n" + bytes(range(6))
    img = parse_pgm(data)
    assert np.shares_memory(img.pixels, np.frombuffer(data, np.uint8))
    assert not img.pixels.flags.writeable
    assert img.pixels.tolist() == [[0, 1, 2], [3, 4, 5]]


def test_frame_past_the_pixel_limit_is_rejected_before_its_payload():
    # no payload at all: the header alone decides
    with pytest.raises(PgmError, match=f"{4097 * 4112} pixels, more than the {MAX_PIXELS}"):
        parse_pgm(b"P5\n4097 4112\n255\n")


def test_garbage_header_errors():
    with pytest.raises(PgmError):
        parse_pgm(b"P5\nxx 2\n255\n" + bytes(4))
    with pytest.raises(PgmError):
        parse_pgm(b"P5\n2")
    with pytest.raises(PgmError):
        parse_pgm(b"P5\n0 2\n255\n")


def test_save_load_round_trip(tmp_path, rng):
    img = rand_image(rng, 13, 7)
    path = tmp_path / "img.pgm"
    save_pgm(img, path)
    back = load_pgm(path)
    assert np.array_equal(back.pixels, img.pixels)


def test_load_names_file_in_error(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(PgmError, match="bad.pgm"):
        load_pgm(path)


def test_load_rejects_an_over_limit_header_before_reading_the_payload(tmp_path):
    path = tmp_path / "huge.pgm"
    header = b"P5\n4200 4200\n255\n"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(len(header) + 4200 * 4200)  # a sparse 17.6 MB file
    tracemalloc.start()
    try:
        with pytest.raises(PgmError, match=f"huge.pgm: a 4200x4200 frame has {4200 * 4200}"):
            load_pgm(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("size", [(3, 2), (MAX_PIXELS + 1, 1), (4200, 4200)],
                         ids=["accepted", "wide", "square"])
def test_load_answers_as_parse_around_the_first_read(tmp_path, size):
    # a comment moves the header's end across the first read, so the last
    # tokens are cut at every offset; over-limit frames carry no payload
    width, height = size
    tail = f"\n{width} {height}\n255\n".encode("ascii")
    payload = bytes(range(width * height)) if width * height < 256 else b""
    path = tmp_path / "frame.pgm"
    for end in range(HEADER_BYTES - 16, HEADER_BYTES + 4):
        data = b"P5\n#" + b"x" * (end - 4 - len(tail)) + tail + payload
        path.write_bytes(data)
        try:
            want = parse_pgm(data)
        except PgmError as exc:
            with pytest.raises(PgmError) as got:
                load_pgm(path)
            assert str(got.value) == f"{path}: {exc}"
        else:
            assert np.array_equal(load_pgm(path).pixels, want.pixels)
