import numpy as np

from boostdet.pgm import load_pgm
from boostdet.synthetic import training_samples, write_dataset


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
