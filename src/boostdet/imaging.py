"""Boxes, grayscale rasters, integral images and window stacks.

``rect_problem`` is the one box rule: integer offsets >= 0 and extents >= 1,
all four below ``MAX_COORD``. A ``Rect`` runs it when built, and
``rect_rows_problem`` on the (n, 4) int rows ``(x, y, w, h)`` that
``rect_rows`` makes of Rects and the detector and evaluation read, so no
other module checks a box. A ``Rect`` unpacks as ``x, y, w, h``, the same
as its ``(x, y, w, h)`` tuple, so a reader takes either form one way.

Everything here is integer-exact where the contract says so, and
rectangle sums are recovered with four lookups, bit-equal to a direct
pixel loop. The plain summed-area table is uint32 and ``corner_sum``
subtracts its corners mod 2**32, which gives the exact sum of any
rectangle whose true sum is below 2**32. That holds for every rectangle
of a frame of at most ``MAX_PIXELS`` = (2**32 - 1) // 255 = 16,843,009
pixels (4096x4096 fits), and ``summed_area_tables`` rejects larger
frames. The squared table is int64, which holds the squared sums of any
such frame.

``summed_area_tables``, ``corner_sum`` and ``mean_and_sigma`` are the one
copy of the table arithmetic; they take any leading axes. A
``WindowStack`` carries the pixels and both tables of a set of same-size
windows: ``build_integral`` makes one around a frame's own uint8 array,
not a copy, and a pyramid level (``WindowStack.level``) or a single window
(``WindowStack.window``) is a view into it, so the point families and the
area families always read the same image. A frame's stack keeps the first
LEVEL_MEMO levels it built, so the models scanned through one stack build
each of those levels, and its ``sigma``, once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Flat windows would otherwise divide by zero during normalization; with
# the floor they behave as unnormalized.
SIGMA_MIN = 1.0
MAX_PIXELS = (2 ** 32 - 1) // 255  # pixels per table whose 8-bit sums fit uint32
LEVEL_MEMO = 32  # pyramid levels a WindowStack keeps, the first it builds
# Box offsets and extents stay below this, so every area, and any two
# areas summed, lies below 2**53 and converts to float64 exactly. Every
# rect of a frame of at most MAX_PIXELS pixels lies below it.
MAX_COORD = 2 ** 26


class BoundsError(ValueError):
    """A rectangle or window does not fit inside its image."""


def integers(*values) -> bool:
    """True iff every value is an ``int`` or a numpy integer, and none is a bool."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


def rect_problem(x: int, y: int, w: int, h: int) -> str | None:
    """What keeps offsets x, y and extents w, h from making a ``Rect``, or None.

    They must be integers (``int`` or a numpy integer; not ``bool``), since a
    float would be truncated when the box becomes a row of ``rect_rows``.
    """
    # four Python ints, the common case, skip the slower isinstance tests
    if not (type(x) is type(y) is type(w) is type(h) is int) and not integers(x, y, w, h):
        return "rect offsets and extents must be integers, not bool or float"
    if 0 <= x < MAX_COORD and 0 <= y < MAX_COORD and 1 <= w < MAX_COORD and 1 <= h < MAX_COORD:
        return None
    if x < 0 or y < 0:
        return "rect offsets must be >= 0"
    if w < 1 or h < 1:
        return "rect extents must be >= 1"
    return f"rect offsets and extents must lie below {MAX_COORD}"


def rect_rows_problem(rows: np.ndarray) -> str | None:
    """``rect_problem`` of the first (n, 4) integer row ``(x, y, w, h)`` it rejects, or None."""
    bad = np.flatnonzero(~((rows >= (0, 0, 1, 1)) & (rows < MAX_COORD)).all(axis=1))
    if not bad.size:
        return None
    row = rows[bad[0]].tolist()
    return f"boxes[{bad[0]}] = {row}: {rect_problem(*row)}"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: offsets x, y and extents w, h (pixels), held to ``rect_problem``."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        problem = rect_problem(self.x, self.y, self.w, self.h)
        if problem is not None:
            raise ValueError(f"{problem}, got {self}")
        # numpy integers become ints, so the box's own sums cannot wrap
        if not (type(self.x) is type(self.y) is type(self.w) is type(self.h) is int):
            for name in ("x", "y", "w", "h"):
                object.__setattr__(self, name, int(getattr(self, name)))

    def __iter__(self):
        # x, y, w, h: a Rect unpacks as its (x, y, w, h) tuple does
        return iter((self.x, self.y, self.w, self.h))

    @property
    def area(self) -> int:
        return self.w * self.h

    def fits_in(self, width: int, height: int) -> bool:
        return self.x + self.w <= width and self.y + self.h <= height


def rect_rows(rects: Sequence[Rect]) -> np.ndarray:
    """``rects`` as (n, 4) int64 rows ``(x, y, w, h)``, filled straight from the fields."""
    return np.fromiter(itertools.chain.from_iterable(rects), dtype=np.int64,
                       count=4 * len(rects)).reshape(-1, 4)


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale raster: ``pixels``, one read-only (height, width) uint8
    array. Other arrays of whole numbers in [0, 255] are converted once."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ValueError(f"pixels must be a non-empty 2-d grid, got shape {px.shape}")
        if px.dtype != np.uint8 and not np.isin(px, np.arange(256)).all():
            raise ValueError("pixel values must be whole numbers in [0, 255]")
        px = px.astype(np.uint8, copy=False)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def check_pixel_count(w: int, h: int, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the limit if a ``w`` x ``h`` frame has more than ``MAX_PIXELS``."""
    if w * h > MAX_PIXELS:
        raise error(f"a {w}x{h} frame has {w * h} pixels, more than the "
                    f"{MAX_PIXELS} whose rectangle sums a uint32 table holds exactly")


def summed_area_tables(pixels: np.ndarray, order: str = "C") -> tuple[np.ndarray, np.ndarray]:
    """Plain uint32 and squared int64 tables over the last two axes, zero first row/column.

    ``pixels`` hold values in [0, 255]. A table over more than
    ``MAX_PIXELS`` pixels raises ValueError, before anything is allocated.
    ``order`` is the memory layout of the tables, as for ``np.zeros``.
    """
    h, w = pixels.shape[-2:]
    check_pixel_count(w, h)
    shape = pixels.shape[:-2] + (h + 1, w + 1)
    sums = np.zeros(shape, dtype=np.uint32, order=order)
    sq = np.zeros(shape, dtype=np.int64, order=order)
    np.cumsum(np.cumsum(pixels, axis=-2, dtype=np.uint32), axis=-1, out=sums[..., 1:, 1:])
    np.cumsum(np.cumsum(np.square(pixels, dtype=np.int64), axis=-2), axis=-1,
              out=sq[..., 1:, 1:])
    return sums, sq


def corner_sum(table: np.ndarray, x0: int | np.ndarray, y0: int | np.ndarray,
               x1: int | np.ndarray, y1: int | np.ndarray) -> np.ndarray:
    """Exact sum over the rect with corners (x0, y0) and (x1, y1), x1 and y1
    excluded, of every table in a stack.

    The corners are ints or equal-length index arrays; arrays sum every
    rect in one gather and add their axis last. On a uint32 table the
    subtractions wrap mod 2**32, which leaves every sum of a frame of at
    most ``MAX_PIXELS`` pixels exact.
    """
    # the first gather is updated in place, so at most two are alive: a
    # fancy gather is already fresh, an int lookup is a view and is copied
    total = table[..., y1, x1]
    if not isinstance(x1, np.ndarray):
        total = np.array(total)
    total -= table[..., y0, x1]
    total -= table[..., y1, x0]
    total += table[..., y0, x0]
    return total


def mean_and_sigma(sums: np.ndarray, squared_sums: np.ndarray, x: int, y: int,
                   w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std dev of the rect, std clamped to SIGMA_MIN.

    Variance is E[p^2] - E[p]^2; the tiny negative residue float division
    can leave on flat windows is clamped at zero before the square root.
    """
    area = w * h
    mean = corner_sum(sums, x, y, x + w, y + h) / area
    var = corner_sum(squared_sums, x, y, x + w, y + h) / area - mean * mean
    return mean, np.maximum(SIGMA_MIN, np.sqrt(np.maximum(0.0, var)))


def window_grid(table: np.ndarray, h: int, w: int, stride: int) -> np.ndarray:
    """Read-only view of every ``h`` x ``w`` window of the 2-d ``table`` on a
    ``stride`` grid, shaped (rows, columns, h, w): in one strided view, the
    shape, strides and values of ``sliding_window_view(table, (h, w))[::stride, ::stride]``.
    A window larger than the table, or a stride below 1, raises ValueError.
    """
    rows, cols = table.shape
    if h > rows or w > cols:
        raise ValueError(f"a {w}x{h} window is larger than the {cols}x{rows} table")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    row_step, col_step = table.strides
    return as_strided(table, ((rows - h) // stride + 1, (cols - w) // stride + 1, h, w),
                      (row_step * stride, col_step * stride, row_step, col_step),
                      writeable=False)


@dataclass(frozen=True)
class WindowStack:
    """Same-size windows, each with views of its own integral tables.

    ``sums`` (uint32, summed mod 2**32) and ``squared_sums`` (int64) are
    shaped ``(..., h+1, w+1)`` (``sums[..., y, x]`` adds up the pixels
    above and left of (x, y)); a table covers at most ``MAX_PIXELS``
    pixels, the limit within which ``corner_sum`` is exact.
    ``pixels`` is uint8, shaped ``(..., h, w)``, and a frame's is its image's array.
    The leading axes index the windows: none for a frame or a single
    window, one axis for stacked crops, (row, column) for a pyramid level.
    ``sigma`` is the clamped whole-window std dev every feature normalizes
    by, shaped like the leading axes and derived once, on construction.
    """

    pixels: np.ndarray
    sums: np.ndarray
    squared_sums: np.ndarray
    sigma: np.ndarray = field(init=False)
    w: int = field(init=False)
    h: int = field(init=False)

    def __post_init__(self):
        lead, (h, w) = self.pixels.shape[:-2], self.pixels.shape[-2:]
        if (self.sums.shape != lead + (h + 1, w + 1)
                or self.squared_sums.shape != self.sums.shape):
            raise ValueError(f"window stack shapes disagree: pixels {self.pixels.shape}, "
                             f"tables {self.sums.shape} and {self.squared_sums.shape}")
        _, sigma = mean_and_sigma(self.sums, self.squared_sums, 0, 0, w, h)
        for arr in (self.pixels, self.sums, self.squared_sums, sigma):
            arr.setflags(write=False)
        for name, value in (("sigma", sigma), ("w", w), ("h", h)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        """The number of windows."""
        return np.size(self.sigma)

    @classmethod
    def from_images(cls, windows: Sequence[GrayImage]) -> "WindowStack":
        """Same-size images stacked along one axis.

        The pixels, stacked straight into one uint8 buffer, and the tables are
        Fortran-ordered, image axis innermost, so reading one table cell or
        pixel of every image copies a contiguous run.
        """
        stacked = np.empty((len(windows),) + windows[0].pixels.shape, np.uint8, order="F")
        np.stack([w.pixels for w in windows], out=stacked)
        return cls(stacked, *summed_area_tables(stacked, order="F"))

    @functools.cached_property
    def _levels(self) -> dict[tuple[int, int, int], "WindowStack"]:
        return {}  # filled by ``level``

    def level(self, win_w: int, win_h: int, stride: int) -> "WindowStack":
        """Every ``win_w`` x ``win_h`` window of this frame on a ``stride`` grid.

        Window (row, column) has its origin at (column * stride,
        row * stride); the tables and pixels are views, not copies. The
        first ``LEVEL_MEMO`` levels built are kept on this stack and later
        ones are built on every call, so every model scanned through it
        shares one build of each kept level, however many levels a frame
        has; beyond this stack's arrays, a kept level holds only its
        ``sigma``.
        """
        key = (win_w, win_h, stride)
        level = self._levels.get(key)
        if level is None:
            level = WindowStack(window_grid(self.pixels, win_h, win_w, stride),
                                window_grid(self.sums, win_h + 1, win_w + 1, stride),
                                window_grid(self.squared_sums, win_h + 1, win_w + 1, stride))
            if len(self._levels) < LEVEL_MEMO:
                self._levels[key] = level
        return level

    def window(self, win: Rect) -> "WindowStack":
        """The single window ``win`` of this frame, with no leading axis."""
        if not win.fits_in(self.w, self.h):
            raise BoundsError(f"{win} exceeds {self.w}x{self.h} image")
        rows = slice(win.y, win.y + win.h + 1)
        cols = slice(win.x, win.x + win.w + 1)
        return WindowStack(self.pixels[win.y:win.y + win.h, win.x:win.x + win.w],
                           self.sums[rows, cols], self.squared_sums[rows, cols])


def build_integral(img: GrayImage) -> WindowStack:
    """The frame ``img`` as one window: its own pixels and both summed-area tables.

    Pure: the same image always yields identical arrays. A frame of more
    than ``MAX_PIXELS`` pixels raises ValueError, before anything is
    allocated.
    """
    return WindowStack(img.pixels, *summed_area_tables(img.pixels))


def extract_window(img: GrayImage, win: Rect, target_w: int, target_h: int) -> GrayImage:
    """Nearest-neighbor resample of ``win`` to ``target_w`` x ``target_h``.

    Source index for output index i is floor((i + 0.5) * src / target),
    evaluated in integer arithmetic so the mapping is exact.
    """
    if not win.fits_in(img.width, img.height):
        raise BoundsError(f"{win} exceeds {img.width}x{img.height} image")
    if target_w < 1 or target_h < 1:
        raise ValueError("target extents must be >= 1")
    xi = (2 * np.arange(target_w) + 1) * win.w // (2 * target_w)
    yi = (2 * np.arange(target_h) + 1) * win.h // (2 * target_h)
    return GrayImage(img.pixels[np.ix_(win.y + yi, win.x + xi)])
