import itertools

import numpy as np

from boostdet.pgm import load_pgm
from boostdet.synthetic import frame_sequence, training_samples, write_dataset
from oracles import iou


def test_written_crops_are_the_training_samples(tmp_path):
    write_dataset(str(tmp_path), n_pos=3, n_neg=4, n_frames=1, seed=13)
    samples = training_samples(3, 4, seed=13)
    written = ([tmp_path / "pos" / f"pos_{i:04d}.pgm" for i in range(3)]
               + [tmp_path / "neg" / f"neg_{i:04d}.pgm" for i in range(4)])
    assert len(list((tmp_path / "pos").iterdir())) == 3
    assert len(list((tmp_path / "neg").iterdir())) == 4
    for path, sample in zip(written, samples):
        assert np.array_equal(load_pgm(path).pixels, sample.window.pixels)
    assert [s.label for s in samples] == [1] * 3 + [-1] * 4


def test_planted_boxes_do_not_overlap():
    pairs = 0
    for seed, size in itertools.product((0, 3, 99), ((128, 96), (96, 72), (72, 54))):
        for _, boxes in frame_sequence(20, seed, *size):
            for a, b in itertools.combinations(boxes, 2):
                assert iou(a, b) == 0.0, (seed, size, a, b)
                pairs += 1
    assert pairs > 0
