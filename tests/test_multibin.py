import math

import numpy as np
import pytest

from ellipose.errors import InvalidDims
from ellipose.geometry import (
    Ellipse,
    FrameTransform,
    canonicalize,
    crop_transform,
    wrap_angle_half_pi,
)
from ellipose.multibin import (
    MultibinConfig,
    MultibinPrediction,
    decode_prediction,
    perfect_prediction,
    target_bin,
)

CFG = MultibinConfig(n_bins=8, overlap_fraction=0.1)


def make_prediction(center, dims, scores, corrections):
    return MultibinPrediction(center, dims, np.asarray(scores, float), corrections)


class TestDecode:
    def test_inverse_of_encode(self, rng):
        T = FrameTransform(np.eye(3))
        for _ in range(1000):
            theta = rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2)
            gt = canonicalize(Ellipse(rng.uniform(0, 224, 2), (40.0, 20.0), theta))
            p = perfect_prediction(gt, CFG)
            out = decode_prediction(p, CFG, T)
            assert abs(wrap_angle_half_pi(out.angle - gt.angle)) < 1e-9
            assert np.allclose(out.center, gt.center, atol=1e-9)
            assert np.allclose(out.axes, gt.axes, rtol=1e-9)

    def test_uniform_scores_lowest_index(self):
        corr = np.tile([1.0, 0.0], (8, 1))
        p = make_prediction((10, 10), (5, 3), np.zeros(8), corr)
        out = decode_prediction(p, CFG, FrameTransform(np.eye(3)))
        assert abs(wrap_angle_half_pi(out.angle - CFG.bin_center(0))) < 1e-12

    def test_crop_scaling(self):
        T = crop_transform((0, 0, 4, 2), 64.0)  # uniform scale 16
        gt_crop = canonicalize(Ellipse((32.0, 32.0), (16.0, 8.0), 0.4))
        p = perfect_prediction(gt_crop, CFG)
        out = decode_prediction(p, CFG, T)
        assert np.allclose(out.axes, gt_crop.axes / 16.0, rtol=1e-9)

    def test_invalid_dims(self):
        corr = np.tile([1.0, 0.0], (8, 1))
        p = make_prediction((0, 0), (5.0, -1.0), np.zeros(8), corr)
        with pytest.raises(InvalidDims):
            decode_prediction(p, CFG, FrameTransform(np.eye(3)))

    def test_correction_renormalized(self):
        # scaling a correction pair must not change the decoded angle
        gt = canonicalize(Ellipse((10, 10), (6, 3), 0.3))
        p = perfect_prediction(gt, CFG)
        scaled = MultibinPrediction(p.center, p.dims, p.bin_scores, p.corrections * 7.5)
        a = decode_prediction(p, CFG, FrameTransform(np.eye(3)))
        b = decode_prediction(scaled, CFG, FrameTransform(np.eye(3)))
        assert abs(wrap_angle_half_pi(a.angle - b.angle)) < 1e-12


@pytest.mark.parametrize("n_bins", [1, 2.5, 8.0, True, "8"])
def test_config_bin_count_must_be_an_int_of_at_least_two(n_bins):
    with pytest.raises(ValueError, match="n_bins must be an int >= 2"):
        MultibinConfig(n_bins=n_bins)


def test_target_bin_nearest_center():
    assert target_bin(CFG.bin_center(5), CFG) == 5
    # exact boundary between 3 and 4: lowest index wins
    assert target_bin(0.0, CFG) == 3
