"""Bin-coded ellipse parameterization for learned detection heads.

The orientation angle is discretized into overlapping bins over
(-pi/2, pi/2]; a raw prediction carries per-bin scores plus per-bin
(cos, sin) corrections applied to the bin mid-angle.  This module holds
the encoding, the decoding back to an image-frame ellipse, the training
loss and its analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidDims
from .geometry import (
    Ellipse,
    FrameTransform,
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
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if not 0.0 <= self.overlap_fraction < 0.5:
            raise ValueError("overlap_fraction must be in [0, 0.5)")

    @property
    def width(self) -> float:
        return math.pi / self.n_bins

    @property
    def half_width_widened(self) -> float:
        return (0.5 + self.overlap_fraction) * self.width

    def bin_center(self, i: int) -> float:
        return -0.5 * math.pi + (i + 0.5) * self.width


@dataclass(frozen=True)
class BinEncoding:
    """Bins overlapping a ground-truth angle and the residual to each
    bin's mid-angle (1 or 2 entries)."""

    bins: tuple
    residuals: tuple

    def __post_init__(self):
        if not 1 <= len(self.bins) <= 2 or len(self.bins) != len(self.residuals):
            raise ValueError("encoding must cover 1 or 2 bins")


@dataclass(frozen=True, eq=False)
class MultibinPrediction:
    """Raw head outputs for one detection, in crop-frame pixels."""

    center: np.ndarray          # (2,)
    dims: np.ndarray            # (2,) semi-axes (a, b)
    bin_scores: np.ndarray      # (n_bins,) pre-softmax
    corrections: np.ndarray     # (n_bins, 2) raw (cos, sin) pairs

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        dims = np.array(self.dims, dtype=float)
        scores = np.array(self.bin_scores, dtype=float)
        corr = np.array(self.corrections, dtype=float)
        if center.shape != (2,) or dims.shape != (2,):
            raise ValueError("center and dims must be 2-vectors")
        if corr.shape != (scores.shape[0], 2):
            raise ValueError("corrections must be (n_bins, 2)")
        for a in (center, dims, scores, corr):
            a.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "bin_scores", scores)
        object.__setattr__(self, "corrections", corr)


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.01
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    l_center: float
    l_dim: float
    l_bin: float
    l_correction: float
    total: float


@dataclass(frozen=True, eq=False)
class LossGradients:
    """Per-sample analytic gradients, one block per loss term:
    d l_center/d center, d l_dim/d dims, d l_bin/d bin_scores and
    d l_correction/d corrections (raw, pre-normalization pairs).
    Batch-mean factors are included."""

    center: np.ndarray
    dims: np.ndarray
    bin_scores: np.ndarray
    corrections: np.ndarray


def encode_angle(theta: float, cfg: MultibinConfig) -> BinEncoding:
    """Bins overlapping ``theta`` (wrapped into (-pi/2, pi/2]) and the
    residual theta - mid_angle for each, wrapped with pi-periodicity."""
    theta = wrap_angle_half_pi(theta)
    hw = cfg.half_width_widened
    bins = []
    residuals = []
    for i in range(cfg.n_bins):
        r = wrap_angle_half_pi(theta - cfg.bin_center(i))
        if abs(r) <= hw + 1e-12:
            bins.append(i)
            residuals.append(r)
    return BinEncoding(tuple(bins), tuple(residuals))


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
    crop_ellipse = Ellipse(p.center, p.dims, theta)
    return canonicalize(transform_ellipse(crop_ellipse, crop_T.inverse()))


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    m = scores.max()
    z = scores - m
    return z - math.log(np.exp(z).sum())


def multibin_loss(batch, cfg: MultibinConfig, w: LossWeights = LossWeights()) -> LossBreakdown:
    """Batch loss over (prediction, ground-truth crop-frame ellipse) pairs.

    center/dims terms are batch means of squared L2 distances; the bin term
    is mean softmax cross-entropy against the nearest-center bin; the
    correction term averages -cos(residual - predicted correction) over the
    bins overlapping each ground-truth angle.
    """
    batch = list(batch)
    if not batch:
        raise EmptyBatch("loss over an empty batch")
    n = len(batch)
    l_center = l_dim = l_bin = l_corr = 0.0
    for p, gt in batch:
        gt = canonicalize(gt)
        l_center += float(np.sum((gt.center - p.center) ** 2))
        l_dim += float(np.sum((gt.axes - p.dims) ** 2))
        log_p = _log_softmax(p.bin_scores)
        l_bin += -float(log_p[target_bin(gt.angle, cfg)])
        enc = encode_angle(gt.angle, cfg)
        s = 0.0
        for i, r in zip(enc.bins, enc.residuals):
            u, v = p.corrections[i]
            rho = math.hypot(u, v)
            if rho < 1e-12:
                continue  # zero pair carries no angle; contributes nothing
            s += (math.cos(r) * u + math.sin(r) * v) / rho
        l_corr += -s / len(enc.bins)
    l_center /= n
    l_dim /= n
    l_bin /= n
    l_corr /= n
    total = w.alpha * (l_center + l_dim) + (l_bin + w.beta * l_corr)
    return LossBreakdown(l_center, l_dim, l_bin, l_corr, total)


def multibin_loss_gradients(batch, cfg: MultibinConfig, w: LossWeights = LossWeights()):
    """Analytic per-sample gradients of the individual loss terms."""
    batch = list(batch)
    if not batch:
        raise EmptyBatch("gradients over an empty batch")
    n = len(batch)
    out = []
    for p, gt in batch:
        gt = canonicalize(gt)
        g_center = 2.0 * (p.center - gt.center) / n
        g_dims = 2.0 * (p.dims - gt.axes) / n
        log_p = _log_softmax(p.bin_scores)
        soft = np.exp(log_p)
        tgt = target_bin(gt.angle, cfg)
        g_scores = soft / n
        g_scores[tgt] -= 1.0 / n
        g_corr = np.zeros_like(p.corrections)
        enc = encode_angle(gt.angle, cfg)
        for i, r in zip(enc.bins, enc.residuals):
            u, v = p.corrections[i]
            rho = math.hypot(u, v)
            if rho < 1e-12:
                continue
            cr, sr = math.cos(r), math.sin(r)
            dot = cr * u + sr * v
            scale = -1.0 / (len(enc.bins) * n)
            g_corr[i, 0] = scale * (cr / rho - dot * u / rho**3)
            g_corr[i, 1] = scale * (sr / rho - dot * v / rho**3)
        out.append(LossGradients(g_center, g_dims, g_scores, g_corr))
    return out


def perfect_prediction(
    gt: Ellipse, cfg: MultibinConfig, score_margin: float = 30.0
) -> MultibinPrediction:
    """Prediction that decodes exactly to ``gt`` (given in the crop frame):
    exact center/dims, exact per-bin corrections, a one-hot-ish score on the
    nearest-center bin."""
    gt = canonicalize(gt)
    scores = np.full(cfg.n_bins, -score_margin)
    scores[target_bin(gt.angle, cfg)] = 0.0
    corr = np.zeros((cfg.n_bins, 2))
    for i in range(cfg.n_bins):
        r = wrap_angle_half_pi(gt.angle - cfg.bin_center(i))
        corr[i] = (math.cos(r), math.sin(r))
    return MultibinPrediction(gt.center, gt.axes, scores, corr)
