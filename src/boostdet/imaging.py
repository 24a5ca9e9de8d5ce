"""Grayscale rasters, integral images and per-window statistics.

Everything here is integer-exact where the contract says so: integral
tables are int64 (large enough for 4096x4096 frames of squared 8-bit
values) and rectangle sums are recovered with four lookups, bit-equal
to a direct pixel loop.

``summed_area_tables``, ``corner_sum`` and ``mean_and_sigma`` are the one
copy of the table arithmetic; they take any leading axes, so a frame, a
crop stack and a pyramid level (``features.WindowStack``) share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Flat windows would otherwise divide by zero during normalization; with
# the floor they behave as unnormalized.
SIGMA_MIN = 1.0


class BoundsError(ValueError):
    """A rectangle or window does not fit inside its image."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: offsets x, y and extents w, h (pixels)."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rect offsets must be >= 0, got {self}")
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect extents must be >= 1, got {self}")

    @property
    def area(self) -> int:
        return self.w * self.h

    def fits_in(self, width: int, height: int) -> bool:
        return self.x + self.w <= width and self.y + self.h <= height


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale raster. ``pixels`` is a read-only (height, width) array."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image extents must be >= 1, got {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width):
            raise ValueError(
                f"pixel grid {self.pixels.shape} does not match {self.width}x{self.height}"
            )
        if self.pixels.dtype != np.uint8:
            arr = np.asarray(self.pixels)
            if arr.min(initial=0) < 0 or arr.max(initial=0) > 255:
                raise ValueError("pixel values must lie in [0, 255]")
            object.__setattr__(self, "pixels", arr.astype(np.uint8))
        self.pixels.setflags(write=False)

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)

    @classmethod
    def constant(cls, width: int, height: int, value: int) -> "GrayImage":
        return cls.from_array(np.full((height, width), value, dtype=np.uint8))

    def pixel(self, x: int, y: int) -> int:
        return int(self.pixels[y, x])


@dataclass(frozen=True)
class IntegralImage:
    """Summed-area tables (plain and squared) with a zero border row/column.

    ``sums[y][x]`` holds the sum of all pixels strictly above and left of
    (x, y), so any rectangle sum is four lookups.
    """

    width: int
    height: int
    sums: np.ndarray
    squared_sums: np.ndarray

    def __post_init__(self):
        expected = (self.height + 1, self.width + 1)
        if self.sums.shape != expected or self.squared_sums.shape != expected:
            raise ValueError("integral tables must be (height+1, width+1)")
        self.sums.setflags(write=False)
        self.squared_sums.setflags(write=False)


@dataclass(frozen=True)
class WindowStats:
    """Mean and clamped population standard deviation of a window."""

    mean: float
    std_dev: float


def summed_area_tables(pixels: np.ndarray, order: str = "C") -> tuple[np.ndarray, np.ndarray]:
    """Plain and squared int64 tables over the last two axes, zero first row/column.

    ``order`` is the memory layout of the tables, as for ``np.zeros``.
    """
    px = pixels.astype(np.int64)
    shape = px.shape[:-2] + (px.shape[-2] + 1, px.shape[-1] + 1)
    sums = np.zeros(shape, dtype=np.int64, order=order)
    sq = np.zeros_like(sums)
    for values, table in ((px, sums), (px * px, sq)):
        np.cumsum(np.cumsum(values, axis=-2), axis=-1, out=table[..., 1:, 1:])
    return sums, sq


def corner_sum(table: np.ndarray, x: int | np.ndarray, y: int | np.ndarray,
               w: int | np.ndarray, h: int | np.ndarray) -> np.ndarray:
    """Exact sum over the rect (x, y, w, h) of every table in a stack.

    ``x``, ``y``, ``w`` and ``h`` are ints or equal-length index arrays;
    arrays sum every rect in one gather and add their axis last.
    """
    # one copy, then updated in place: at most two gathers are alive
    total = np.array(table[..., y + h, x + w])
    total -= table[..., y, x + w]
    total -= table[..., y + h, x]
    total += table[..., y, x]
    return total


def mean_and_sigma(sums: np.ndarray, squared_sums: np.ndarray, x: int, y: int,
                   w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std dev of the rect, std clamped to SIGMA_MIN.

    Variance is E[p^2] - E[p]^2; the tiny negative residue float division
    can leave on flat windows is clamped at zero before the square root.
    """
    area = w * h
    mean = corner_sum(sums, x, y, w, h) / area
    var = corner_sum(squared_sums, x, y, w, h) / area - mean * mean
    return mean, np.maximum(SIGMA_MIN, np.sqrt(np.maximum(0.0, var)))


def build_integral(img: GrayImage) -> IntegralImage:
    """Build plain and squared summed-area tables for ``img``.

    Pure: the same image always yields identical tables.
    """
    sums, sq = summed_area_tables(img.pixels)
    return IntegralImage(width=img.width, height=img.height, sums=sums, squared_sums=sq)


def _check_rect(ii: IntegralImage, r: Rect) -> None:
    if not r.fits_in(ii.width, ii.height):
        raise BoundsError(f"{r} exceeds {ii.width}x{ii.height} image")


def rect_sum(ii: IntegralImage, r: Rect) -> int:
    """Exact pixel sum inside ``r`` via four table lookups."""
    _check_rect(ii, r)
    return int(corner_sum(ii.sums, r.x, r.y, r.w, r.h))


def rect_sum_squared(ii: IntegralImage, r: Rect) -> int:
    """Exact sum of squared pixels inside ``r``."""
    _check_rect(ii, r)
    return int(corner_sum(ii.squared_sums, r.x, r.y, r.w, r.h))


def window_stats(ii: IntegralImage, win: Rect) -> WindowStats:
    """Mean and population std dev of ``win``, std clamped to SIGMA_MIN."""
    _check_rect(ii, win)
    mean, sigma = mean_and_sigma(ii.sums, ii.squared_sums, win.x, win.y, win.w, win.h)
    return WindowStats(mean=float(mean), std_dev=float(sigma))


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
    out = img.pixels[np.ix_(win.y + yi, win.x + xi)]
    return GrayImage(width=target_w, height=target_h, pixels=out)
