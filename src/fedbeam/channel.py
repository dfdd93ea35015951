"""Beam codebooks and beam-pair metrics for an analog-beamforming OFDM link.

A transmit/receive beam pair (i, j) scores the received power summed over
subcarriers,

    y[i, j] = sum_n |w_j^H H_n f_i|^2,

and the optimal pair is the argmax of that matrix. Beam-pair labels are
flattened transmit-major: label = i * C_r + j, matching row-major storage
of the power matrix. All tie-breaks go to the lowest flat index.

The two headline metrics work on a whole test set at once: an (N, C) score
matrix (model probabilities or any other per-pair scores), the N labels or
the (N, C) powers from Dataset.powers(), and K_max. Each returns its curve
for K = 1..K_max as an array, from one ranking of every row.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MetricUnavailableError

__all__ = [
    "BeamCodebook",
    "ChannelSet",
    "dft_codebook",
    "beam_powers",
    "optimal_beam",
    "topk_accuracy",
    "throughput_ratio",
]

def dft_codebook(antennas, beams):
    """DFT beams for a uniform linear array.

    Beam i has element m equal to (1/sqrt(antennas)) * exp(-2j*pi*m*i/beams),
    so every beam has unit norm. Returns an array of shape (beams, antennas).
    """
    if antennas < 1 or beams < 1:
        raise ValueError(f"antennas and beams must be >= 1, got {antennas}, {beams}")
    m = np.arange(antennas)
    i = np.arange(beams)
    phase = -2j * np.pi * np.outer(i, m) / beams
    return np.exp(phase) / np.sqrt(antennas)


@dataclass(frozen=True)
class BeamCodebook:
    """Fixed transmit/receive beam sets: tx is (C_t, N_t), rx is (C_r, N_r)."""

    tx: np.ndarray
    rx: np.ndarray

    def __post_init__(self):
        for name, vecs in (("tx", self.tx), ("rx", self.rx)):
            if vecs.ndim != 2 or vecs.shape[0] < 1:
                raise ValueError(f"{name} codebook must be a nonempty 2-D array")
            norms = np.linalg.norm(vecs, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-6):
                worst = int(np.argmax(np.abs(norms - 1.0)))
                raise ValueError(
                    f"{name} beam {worst} has norm {norms[worst]:.8f}, expected 1"
                )

    @classmethod
    def dft(cls, n_t, n_r, c_t, c_r):
        return cls(tx=dft_codebook(n_t, c_t), rx=dft_codebook(n_r, c_r))

    @property
    def n_pairs(self):
        return self.tx.shape[0] * self.rx.shape[0]


@dataclass(frozen=True)
class ChannelSet:
    """Per-subcarrier channel matrices, shape (N_c, N_r, N_t)."""

    h: np.ndarray

    def __post_init__(self):
        if self.h.ndim != 3 or min(self.h.shape) < 1:
            raise ValueError(f"channel array must be (N_c, N_r, N_t), got {self.h.shape}")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("channel entries must be finite")


def beam_powers(ch, cb):
    """Per-pair received power summed over subcarriers, shape (C_t, C_r)."""
    n_c, n_r, n_t = ch.h.shape
    if cb.rx.shape[1] != n_r or cb.tx.shape[1] != n_t:
        raise ValueError(
            f"codebook antennas ({cb.rx.shape[1]} rx, {cb.tx.shape[1]} tx) do not "
            f"match channel shape ({n_r} rx, {n_t} tx)"
        )
    # gains[n, j, i] = w_j^H H_n f_i
    gains = cb.rx.conj() @ ch.h @ cb.tx.T
    return np.sum(np.abs(gains) ** 2, axis=0).T


def optimal_beam(y):
    """Flat transmit-major label of the strongest pair; ties to lowest index."""
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("power matrix is empty")
    return int(np.argmax(y))


def _ranked(probs, rows, k_max, what):
    """Checked (N, C) scores -> the k_max best class indices per row, best
    first, ties to the lowest index."""
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ValueError(f"scores must be an (N, C) array, got shape {probs.shape}")
    n, n_classes = probs.shape
    if len(rows) != n:
        raise ValueError(f"got {n} score rows for {len(rows)} {what}")
    if n == 0:
        raise ValueError("need at least one sample")
    if not 1 <= k_max <= n_classes:
        raise ValueError(f"k_max must be in [1, {n_classes}], got {k_max}")
    return np.argsort(-probs, axis=1, kind="stable")[:, :k_max]


def topk_accuracy(probs, labels, k_max):
    """Top-K accuracy for K = 1..k_max: the fraction of samples whose label
    is among the K highest scores of its row of the (N, C) score matrix."""
    labels = np.asarray(labels)
    order = _ranked(probs, labels, k_max, "labels")
    hits_at_rank = np.sum(order == labels[:, None], axis=0)
    return np.cumsum(hits_at_rank) / len(labels)


def throughput_ratio(probs, powers, k_max):
    """Achievable-rate fraction of the top-K sets against the optimum, K = 1..k_max.

    For each K, sums log2(1 + y) of the strongest pair among each sample's
    K highest scores and divides by the same sum over each sample's true
    optimum. `powers` is the (N, C) matrix from Dataset.powers(); None
    (some sample has no powers) raises MetricUnavailableError.
    """
    if powers is None:
        raise MetricUnavailableError(
            "throughput ratio needs per-sample beam powers; a sample has none"
        )
    powers = np.asarray(powers, dtype=np.float64)
    order = _ranked(probs, powers, k_max, "power rows")
    if powers.shape != np.shape(probs):
        raise ValueError(f"powers shape {powers.shape} does not match scores {np.shape(probs)}")
    best_in_set = np.maximum.accumulate(np.take_along_axis(powers, order, axis=1), axis=1)
    denom = np.sum(np.log2(1.0 + powers.max(axis=1)))
    if denom == 0.0:
        # All-zero powers: any predicted set achieves the (zero) optimum.
        return np.ones(k_max)
    return np.sum(np.log2(1.0 + best_in_set), axis=0) / denom
