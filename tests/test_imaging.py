import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from boostdet.imaging import (
    LEVEL_MEMO,
    MAX_PIXELS,
    SIGMA_MIN,
    BoundsError,
    GrayImage,
    Rect,
    WindowStack,
    build_integral,
    corner_sum,
    extract_window,
    mean_and_sigma,
    summed_area_tables,
    window_grid,
)
from conftest import constant_image, rand_image, rand_rect
from oracles import brute_rect_sum, resample_index, two_pass_std


def window_sum(ii: WindowStack, r: Rect, squared: bool = False) -> int:
    """Sum over ``r`` from the tables of the window ``r``, which checks its bounds."""
    win = ii.window(r)
    return int(corner_sum(win.squared_sums if squared else win.sums, 0, 0, r.w, r.h))


def window_stats(img: GrayImage, r: Rect) -> tuple[float, float]:
    """Mean and clamped std dev of the window ``r`` of ``img``."""
    win = build_integral(img).window(r)
    mean, sigma = mean_and_sigma(win.sums, win.squared_sums, 0, 0, r.w, r.h)
    return float(mean), float(sigma)


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(-1, 0, 1, 1)
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 1)
    assert Rect(0, 0, 3, 4).area == 12


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.array([[300, 0]]))
    img = GrayImage(np.array([[7]], dtype=np.uint8))
    assert img.pixels[0, 0] == 7
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1  # read-only after construction


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 3.7, 0.5, -1, 256, 1e300],
                         ids=["nan", "inf", "-inf", "3.7", "0.5", "-1", "256", "1e300"])
def test_gray_image_rejects_values_that_are_not_8_bit_whole_numbers(value):
    with pytest.raises(ValueError, match="whole numbers in \\[0, 255\\]"):
        GrayImage(np.array([[7, value]]))


@pytest.mark.parametrize("value, pixel", [(True, 1), (3.0, 3), (255.0, 255), (np.int64(0), 0)],
                         ids=["True", "3.0", "255.0", "int64-0"])
def test_gray_image_converts_whole_numbers_once(value, pixel):
    img = GrayImage(np.array([[value]]))
    assert img.pixels.dtype == np.uint8 and img.pixels[0, 0] == pixel
    assert (img.width, img.height) == (1, 1)


def test_frame_stack_holds_the_images_own_array(rng):
    img = rand_image(rng, 9, 5)
    assert np.shares_memory(build_integral(img).pixels, img.pixels)


def test_crop_stack_is_one_fortran_ordered_uint8_buffer(rng):
    crops = [rand_image(rng, 6, 4) for _ in range(3)]
    stack = WindowStack.from_images(crops)
    assert stack.pixels.dtype == np.uint8 and stack.pixels.flags.f_contiguous
    assert stack.sums.flags.f_contiguous and stack.squared_sums.flags.f_contiguous
    assert np.array_equal(stack.pixels, np.stack([c.pixels for c in crops]))


def test_integral_2x2_corners():
    img = GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))
    ii = build_integral(img)
    assert ii.sums[2, 2] == 10
    assert ii.squared_sums[2, 2] == 30
    assert ii.sums[0, :].sum() == 0 and ii.sums[:, 0].sum() == 0


def test_integral_zero_image():
    ii = build_integral(constant_image(5, 4, 0))
    assert not ii.sums.any()
    assert not ii.squared_sums.any()


def test_integral_monotone_axes(rng):
    ii = build_integral(rand_image(rng, 17, 9))
    assert (np.diff(ii.sums, axis=0) >= 0).all()
    assert (np.diff(ii.sums, axis=1) >= 0).all()


def test_integral_is_pure(rng):
    img = rand_image(rng, 12, 8)
    a, b = build_integral(img), build_integral(img)
    assert np.array_equal(a.sums, b.sums)
    assert np.array_equal(a.squared_sums, b.squared_sums)


def test_int64_capacity_for_worst_case():
    # the squared table (int64) of an all-255 frame at the pixel limit, or
    # of a 4096x4096 one, stays in range; the plain table is uint32
    assert 4096 * 4096 * 255 ** 2 < 2 ** 63
    assert MAX_PIXELS * 255 ** 2 < 2 ** 63


def test_pixel_limit_is_the_uint32_capacity():
    assert MAX_PIXELS == 16_843_009
    assert MAX_PIXELS * 255 <= 2 ** 32 - 1 < (MAX_PIXELS + 1) * 255
    assert 4096 * 4096 <= MAX_PIXELS


@pytest.mark.parametrize("shape", [(1, MAX_PIXELS + 1), (4105, 4104), (3, 2, 4105, 4104)])
def test_frame_past_the_pixel_limit_is_rejected_before_any_allocation(shape):
    # a broadcast view: the pixels themselves take no memory
    pixels = np.broadcast_to(np.uint8(255), shape)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than the {MAX_PIXELS} "):
            summed_area_tables(pixels)
        if len(shape) == 2:
            with pytest.raises(ValueError, match=str(MAX_PIXELS)):
                build_integral(GrayImage(pixels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_corner_sum_on_wrapping_uint32_tables_is_exact(data):
    # A window of a large frame's table: each cell is the window's own
    # summed-area table plus what lies above its row and left of its
    # column, all mod 2**32, so cells sit anywhere up to 2**32 and the
    # subtractions wrap. A cell of ``px`` may stand for a block of pixels,
    # so rectangle sums reach up to 2**32 - 1; each stays exact.
    w = data.draw(st.integers(1, 8))
    h = data.draw(st.integers(1, 8))
    cell = st.integers(0, 255) | st.integers(0, (2 ** 32 - 1) // (w * h))
    px = np.array(data.draw(st.lists(cell, min_size=w * h, max_size=w * h)),
                  dtype=np.int64).reshape(h, w)
    near_top = st.integers(2 ** 32 - 2 ** 20, 2 ** 32 - 1) | st.integers(0, 2 ** 32 - 1)
    above = np.array(data.draw(st.lists(near_top, min_size=h + 1, max_size=h + 1)))
    left = np.array(data.draw(st.lists(near_top, min_size=w + 1, max_size=w + 1)))
    own = np.zeros((h + 1, w + 1), dtype=np.int64)
    own[1:, 1:] = px.cumsum(axis=0).cumsum(axis=1)
    table = ((own + above[:, None] + left[None, :]) % 2 ** 32).astype(np.uint32)
    x0 = data.draw(st.integers(0, w - 1))
    y0 = data.draw(st.integers(0, h - 1))
    x1 = data.draw(st.integers(x0 + 1, w))
    y1 = data.draw(st.integers(y0 + 1, h))
    exact = sum(int(v) for v in px[y0:y1, x0:x1].ravel())
    assert int(corner_sum(table, x0, y0, x1, y1)) == exact
    # the index-array path, on this rect and the whole window
    rects = [np.array([a, b]) for a, b in ((x0, 0), (y0, 0), (x1, w), (y1, h))]
    sums = corner_sum(table, *rects)
    assert sums.dtype == np.uint32
    assert sums.tolist() == [exact, sum(int(v) for v in px.ravel())]


def test_rect_sum_constant():
    ii = build_integral(constant_image(10, 10, 5))
    assert window_sum(ii, Rect(2, 3, 3, 4)) == 60


def test_rect_sum_single_pixel():
    ii = build_integral(GrayImage(np.array([[7]], dtype=np.uint8)))
    assert window_sum(ii, Rect(0, 0, 1, 1)) == 7


def test_rect_sum_out_of_bounds_names_rect():
    ii = build_integral(constant_image(4, 4, 1))
    with pytest.raises(BoundsError, match="Rect"):
        window_sum(ii, Rect(2, 2, 3, 1))


def test_rect_sum_matches_bruteforce(rng):
    img = rand_image(rng, 64, 64)
    ii = build_integral(img)
    for _ in range(1000):
        r = rand_rect(rng, 64, 64)
        assert window_sum(ii, r) == brute_rect_sum(img, r)


def test_rect_sum_monotone_under_growth(rng):
    img = rand_image(rng, 32, 32)
    ii = build_integral(img)
    for _ in range(200):
        r = rand_rect(rng, 31, 31)
        grown = Rect(r.x, r.y, r.w + 1, r.h + 1)
        assert window_sum(ii, grown) >= window_sum(ii, r)


def test_window_stats_constant_clamps():
    mean, std_dev = window_stats(constant_image(8, 8, 42), Rect(0, 0, 8, 8))
    assert mean == 42.0
    assert std_dev == SIGMA_MIN


def test_window_stats_two_pixel_extremes():
    img = GrayImage(np.array([[0, 255]], dtype=np.uint8))
    mean, std_dev = window_stats(img, Rect(0, 0, 2, 1))
    assert mean == 127.5
    assert std_dev == 127.5


def test_window_stats_matches_two_pass(rng):
    for _ in range(50):
        img = rand_image(rng, 24, 24)
        _, std_dev = window_stats(img, Rect(0, 0, 24, 24))
        assert abs(std_dev - two_pass_std(img, Rect(0, 0, 24, 24))) < 1e-9


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_window_stats_bounds(data):
    w = data.draw(st.integers(1, 12))
    h = data.draw(st.integers(1, 12))
    values = data.draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h))
    img = GrayImage(np.array(values, dtype=np.uint8).reshape(h, w))
    mean, std_dev = window_stats(img, Rect(0, 0, w, h))
    assert SIGMA_MIN <= std_dev <= 127.5
    assert 0.0 <= mean <= 255.0


def test_level_is_built_once_and_the_memo_stays_bounded(rng):
    ii = build_integral(rand_image(rng, 80, 60))
    assert ii.level(32, 24, 2) is ii.level(32, 24, 2)
    keys = [(8 + k, 6, 1 + k % 3) for k in range(LEVEL_MEMO + 5)]
    for key in keys:
        ii.level(*key)
        assert len(ii._levels) <= LEVEL_MEMO
    assert list(ii._levels) == [(32, 24, 2)] + keys[:LEVEL_MEMO - 1]
    # a kept level is built as a stack with no memo builds it
    rebuilt = ii.level(*keys[0])
    fresh = WindowStack(ii.pixels, ii.sums, ii.squared_sums).level(*keys[0])
    for name in ("pixels", "sums", "squared_sums", "sigma"):
        assert np.array_equal(getattr(rebuilt, name), getattr(fresh, name)), name


def test_levels_past_the_memo_are_built_on_every_call(rng):
    ii = build_integral(rand_image(rng, 80, 60))
    keys = [(8 + k, 6, 1 + k % 3) for k in range(LEVEL_MEMO + 5)]
    for key in keys:
        ii.level(*key)
    late = keys[-1]
    assert ii.level(*late) is not ii.level(*late)
    assert ii.level(*keys[0]) is ii.level(*keys[0])
    fresh = WindowStack(ii.pixels, ii.sums, ii.squared_sums).level(*late)
    for name in ("pixels", "sums", "squared_sums", "sigma"):
        assert np.array_equal(getattr(ii.level(*late), name), getattr(fresh, name)), name


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_level_views_are_sliding_window_views(data):
    # random frames, windows and strides, a window as large as the frame
    # among them: each view has the values, shape and strides of the
    # sliced sliding_window_view, and stays read-only
    frame_w, frame_h = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 30))
    whole = data.draw(st.booleans())
    win_w = frame_w if whole else data.draw(st.integers(1, frame_w))
    win_h = frame_h if whole else data.draw(st.integers(1, frame_h))
    stride = data.draw(st.integers(1, 12))
    ii = build_integral(rand_image(np.random.default_rng(frame_w * 31 + frame_h), frame_w,
                                   frame_h))
    level = ii.level(win_w, win_h, stride)
    for name, h, w in (("pixels", win_h, win_w), ("sums", win_h + 1, win_w + 1),
                       ("squared_sums", win_h + 1, win_w + 1)):
        table = getattr(ii, name)
        want = sliding_window_view(table, (h, w))[::stride, ::stride]
        for got in (getattr(level, name), window_grid(table, h, w, stride)):
            assert got.shape == want.shape and got.strides == want.strides, name
            assert np.array_equal(got, want), name
            assert not got.flags.writeable, name
    assert level.sigma.shape == level.pixels.shape[:2]


def test_a_level_window_larger_than_the_frame_or_a_stride_below_1_is_refused(rng):
    ii = build_integral(rand_image(rng, 40, 30))
    ii.level(40, 30, 1)
    for win_w, win_h in ((41, 30), (40, 31), (41, 31)):
        with pytest.raises(ValueError, match="larger than"):
            ii.level(win_w, win_h, 1)
    with pytest.raises(ValueError, match="larger than"):
        window_grid(ii.pixels, 31, 40, 2)
    for stride in (0, -1):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            ii.level(32, 24, stride)


def test_extract_window_identity(rng):
    img = rand_image(rng, 10, 6)
    out = extract_window(img, Rect(0, 0, 10, 6), 10, 6)
    assert np.array_equal(out.pixels, img.pixels)


def test_extract_window_upsample_blocks():
    img = GrayImage(np.array([[0, 255], [255, 0]], dtype=np.uint8))
    out = extract_window(img, Rect(0, 0, 2, 2), 4, 4)
    expected = np.array([[0, 0, 255, 255],
                         [0, 0, 255, 255],
                         [255, 255, 0, 0],
                         [255, 255, 0, 0]], dtype=np.uint8)
    assert np.array_equal(out.pixels, expected)


def test_extract_window_matches_index_oracle(rng):
    img = rand_image(rng, 40, 30)
    win = Rect(3, 5, 33, 22)
    out = extract_window(img, win, 13, 7)
    for j in range(7):
        for i in range(13):
            sx = win.x + resample_index(i, win.w, 13)
            sy = win.y + resample_index(j, win.h, 7)
            assert out.pixels[j, i] == img.pixels[sy, sx]


def test_extract_window_out_of_bounds():
    img = constant_image(8, 8, 1)
    with pytest.raises(BoundsError):
        extract_window(img, Rect(4, 4, 8, 8), 4, 4)
    with pytest.raises(ValueError):
        extract_window(img, Rect(0, 0, 4, 4), 0, 2)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_recovery_property(seed):
    rng = np.random.default_rng(seed)
    w = int(rng.integers(1, 20))
    h = int(rng.integers(1, 20))
    img = rand_image(rng, w, h)
    ii = build_integral(img)
    r = rand_rect(rng, w, h)
    assert window_sum(ii, r) == brute_rect_sum(img, r)
    assert window_sum(ii, r, squared=True) == sum(
        int(v) ** 2 for v in img.pixels[r.y:r.y + r.h, r.x:r.x + r.w].ravel())
