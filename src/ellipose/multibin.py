"""Bin-coded ellipse parameterization of a learned detection head.

The orientation angle is discretized into overlapping bins over
(-pi/2, pi/2]; a raw prediction carries per-bin scores plus per-bin
(cos, sin) corrections applied to the bin mid-angle.  This module holds
the parameterization and the decoding of a prediction back to an
image-frame ellipse; the head itself is trained elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDims
from .geometry import (
    Ellipse,
    FrameTransform,
    _check_int,
    _freeze,
    canonicalize,
    transform_ellipse,
    wrap_angle_half_pi,
)


@dataclass(frozen=True)
class MultibinConfig:
    """Bin layout: ``n_bins`` equal nominal widths over (-pi/2, pi/2], each
    widened by ``overlap_fraction`` of the nominal width on both sides."""

    n_bins: int = 8
    overlap_fraction: float = 0.1

    def __post_init__(self):
        _check_int("n_bins", self.n_bins, 2)
        if not 0.0 <= self.overlap_fraction < 0.5:
            raise ValueError("overlap_fraction must be in [0, 0.5)")

    def bin_center(self, i: int) -> float:
        return -0.5 * math.pi + (i + 0.5) * (math.pi / self.n_bins)


@dataclass(frozen=True, eq=False)
class MultibinPrediction:
    """Raw head outputs for one detection, in crop-frame pixels."""

    center: np.ndarray          # (2,)
    dims: np.ndarray            # (2,) semi-axes (a, b)
    bin_scores: np.ndarray      # (n_bins,) pre-softmax
    corrections: np.ndarray     # (n_bins, 2) raw (cos, sin) pairs

    def __post_init__(self):
        n = len(self.bin_scores)
        for name, shape in (("center", (2,)), ("dims", (2,)), ("bin_scores", (n,)),
                            ("corrections", (n, 2))):
            object.__setattr__(self, name, _freeze(getattr(self, name), shape))


def target_bin(theta: float, cfg: MultibinConfig) -> int:
    """Classification label: the bin whose mid-angle is nearest theta
    (lowest index on ties)."""
    theta = wrap_angle_half_pi(theta)
    d = [abs(wrap_angle_half_pi(theta - cfg.bin_center(i))) for i in range(cfg.n_bins)]
    return int(np.argmin(d))


def decode_prediction(
    p: MultibinPrediction, cfg: MultibinConfig, crop_T: FrameTransform
) -> Ellipse:
    """Raw head outputs -> canonical image-frame ellipse.

    The winning bin is the score argmax (lowest index on ties); the
    correction pair is re-normalized (atan2) before being added to the bin
    mid-angle; the crop-frame ellipse is mapped back through the inverse of
    ``crop_T``.
    """
    if p.bin_scores.shape[0] != cfg.n_bins:
        raise ValueError("prediction bin count does not match config")
    if p.dims[0] <= 0.0 or p.dims[1] <= 0.0:
        raise InvalidDims(f"decoded dims {tuple(p.dims)} must be positive")
    i = int(np.argmax(p.bin_scores))
    cos_d, sin_d = p.corrections[i]
    theta = wrap_angle_half_pi(cfg.bin_center(i) + math.atan2(sin_d, cos_d))
    return transform_ellipse(Ellipse(p.center, p.dims, theta), crop_T.inverse())


def perfect_prediction(gt: Ellipse, cfg: MultibinConfig) -> MultibinPrediction:
    """Prediction that decodes exactly to ``gt`` (given in the crop frame):
    exact center/dims, exact per-bin corrections, a one-hot-ish score on the
    nearest-center bin (every other bin 30 below it)."""
    gt = canonicalize(gt)
    scores = np.full(cfg.n_bins, -30.0)
    scores[target_bin(gt.angle, cfg)] = 0.0
    corr = np.zeros((cfg.n_bins, 2))
    for i in range(cfg.n_bins):
        r = wrap_angle_half_pi(gt.angle - cfg.bin_center(i))
        corr[i] = (math.cos(r), math.sin(r))
    return MultibinPrediction(gt.center, gt.axes, scores, corr)
