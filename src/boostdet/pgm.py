"""Binary PGM (P5, maxval 255) reading and writing.

The reader is strict: anything off-grammar raises PgmError with the byte
offset where parsing gave up, as does a frame past ``imaging.MAX_PIXELS``.
``load_pgm`` checks that limit on a first read of ``HEADER_BYTES``, before
it reads the payload; a header longer than that is checked on the whole
file, as ``parse_pgm`` does. A frame's pixels are a view of the bytes.
"""

from __future__ import annotations

import numpy as np

from .imaging import GrayImage, check_pixel_count

HEADER_BYTES = 4096  # what ``load_pgm`` reads first, to check a frame's size


class PgmError(ValueError):
    """Malformed PGM payload; the message carries the byte offset."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        return int(token), pos
    except ValueError:
        raise PgmError(f"expected integer {what} near byte {pos}, got {token!r}") from None


def _header(data: bytes) -> tuple[int, int, int]:
    """Width, height and the offset of the payload, from a header that
    ``data`` holds whole, with the whitespace after maxval."""
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"unsupported format {magic!r} at byte 0, only binary P5 is accepted")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"invalid image extents {width}x{height} (header ends at byte {pos})")
    if maxval != 255:
        raise PgmError(f"maxval must be 255, got {maxval} (header ends at byte {pos})")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise PgmError(f"expected single whitespace after maxval at byte {pos}")
    return width, height, pos + 1


def parse_pgm(data: bytes) -> GrayImage:
    width, height, pos = _header(data)
    expected = width * height
    check_pixel_count(width, height, PgmError)
    if len(data) - pos < expected:
        raise PgmError(
            f"truncated pixel payload at byte {len(data)}: "
            f"expected {expected} bytes, got {len(data) - pos}")
    return GrayImage(np.frombuffer(data, np.uint8, expected, pos).reshape(height, width))


def load_pgm(path) -> GrayImage:
    """``parse_pgm`` of the file at ``path``, with errors naming it.

    A header that ends within the first ``HEADER_BYTES`` has its pixel
    count checked before the rest is read; every token of such a header
    ends inside that read, so it parses as in the whole file. Any other
    header is checked by ``parse_pgm`` on the whole file.
    """
    try:
        with open(path, "rb") as fh:
            try:
                width, height, _ = _header(fh.read(HEADER_BYTES))
            except PgmError:
                pass
            else:
                check_pixel_count(width, height, PgmError)
            fh.seek(0)
            data = fh.read()
        return parse_pgm(data)
    except PgmError as exc:
        raise PgmError(f"{path}: {exc}") from None


def save_pgm(img: GrayImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(img.pixels.tobytes())
