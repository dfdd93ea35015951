"""Centralized training reference, K-sweep evaluation, confidence intervals.

evaluate() runs the eval-mode forward over the test set through
fedavg.predict_proba, nn.EVAL_BATCH samples per nn.forward call (or takes
the probabilities of one the caller already ran), and reports, for every
K up to K_max, the top-K accuracy and (when per-sample beam powers are
available) the throughput ratio of the best pair inside the predicted set
against the true optimum, both from channel.topk_accuracy/throughput_ratio
over the (N, C) probability matrix. Both curves are non-decreasing in K
and reach 1.0 at K = C_t * C_r. train_centralized runs each Adam epoch
through fedavg._train_epoch, the mini-batch loop of FedAvg's local rounds.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .channel import throughput_ratio, topk_accuracy
from .errors import IntegrityError, require_int, require_real
from .fedavg import _train_epoch, predict_proba, preprocess_dataset

__all__ = [
    "CentralTrainConfig",
    "EvalReport",
    "train_centralized",
    "evaluate",
    "monte_carlo",
    "REFERENCE_RESULTS",
]

# Published reference points for the two architectures this package is
# benchmarked against (centralized training on the ray-traced benchmark);
# kept as static constants for report context only.
REFERENCE_RESULTS = {
    "compact_2d": {
        "top10_accuracy": 0.9117,
        "top10_accuracy_ci95": 0.0028,
        "top10_throughput_ratio": 0.9478,
        "top10_throughput_ratio_ci95": 0.0061,
        "flops": 1.72e6,
        "params": 7462,
    },
    "baseline_3d": {
        "top10_accuracy": 0.8392,
        "top10_accuracy_ci95": 0.0093,
        "top10_throughput_ratio": 0.8615,
        "top10_throughput_ratio_ci95": 0.0082,
        "flops": 179.01e6,
        "params": 403677,
    },
}


@dataclass
class CentralTrainConfig:
    epochs: int = 20
    batch_size: int = 16
    lr: float = 1e-3
    lr_drop_factor: float = 0.1
    lr_drop_epoch: int = 10  # epochs after this 0-based index use lr * factor
    seed: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 2), ("lr_drop_epoch", 0), ("seed", 0)):
            require_int(name, getattr(self, name), least)
        require_real("lr", self.lr)
        require_real("lr_drop_factor", self.lr_drop_factor)


def train_centralized(cfg, spec, ds_train, grid, log_every=None):
    """Adam training with per-epoch reshuffling and a stepped LR drop.

    Deterministic per cfg.seed (one derived stream for the weight init, one
    for the shuffles). Non-finite loss aborts with the epoch/batch indices.
    Returns (theta, bn_state).
    """
    if len(ds_train) == 0:
        raise ValueError("training dataset is empty")
    inputs, labels = preprocess_dataset(ds_train, grid)
    init_seq, shuffle_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    theta, bn_state = nn.init_params(spec, init_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    adam = nn.AdamState.zeros(theta.shape[0])

    def step(theta, grad):
        nonlocal adam
        adam, theta = nn.adam_step(adam, theta, grad, lr)
        return theta

    for epoch in range(cfg.epochs):
        lr = cfg.lr * (cfg.lr_drop_factor if epoch >= cfg.lr_drop_epoch else 1.0)
        order = shuffle_rng.permutation(len(labels))
        theta, losses = _train_epoch(spec, theta, bn_state, inputs, labels, order, cfg.batch_size, step,
                                     lambda b: f"training diverged at epoch {epoch}, batch {b}")
        if log_every and (epoch + 1) % log_every == 0:
            print(f"epoch {epoch + 1}/{cfg.epochs}: mean loss {sum(losses) / len(losses):.4f}")
    return theta, bn_state


@dataclass
class EvalReport:
    """Per-K metric curves plus model complexity for one evaluation pass."""

    k_values: np.ndarray
    accuracy: np.ndarray
    throughput: np.ndarray | None
    param_count: int
    flops: int
    n_samples: int
    seeds: dict = field(default_factory=dict)
    ci95: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.accuracy) < 0):
            raise ValueError("accuracy must be non-decreasing in K")
        if self.throughput is not None and np.any(np.diff(self.throughput) < -1e-12):
            raise ValueError("throughput ratio must be non-decreasing in K")

    def accuracy_at(self, k):
        return float(self.accuracy[k - 1])

    def throughput_at(self, k):
        if self.throughput is None:
            return None
        return float(self.throughput[k - 1])

    def to_dict(self):
        return {
            "k": [int(k) for k in self.k_values],
            "accuracy": [float(a) for a in self.accuracy],
            "throughput_ratio": None if self.throughput is None
            else [float(r) for r in self.throughput],
            "param_count": int(self.param_count),
            "flops": int(self.flops),
            "n_samples": int(self.n_samples),
            "seeds": self.seeds,
            "ci95": self.ci95,
            "reference": REFERENCE_RESULTS,
        }

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)

    def write_sweep_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["k", "accuracy", "throughput_ratio"])
            for i, k in enumerate(self.k_values):
                ratio = "NA" if self.throughput is None else f"{self.throughput[i]:.6f}"
                w.writerow([int(k), f"{self.accuracy[i]:.6f}", ratio])


def evaluate(theta, bn_state, spec, ds_test, grid, k_max=None, test_tensors=None, probs=None):
    """Accuracy and throughput-ratio curves for K = 1..k_max.

    The throughput curve is None when any test sample lacks beam powers.
    test_tensors, when given, is preprocess_dataset(ds_test, grid) made by
    the caller, and saves rasterizing the test set again. probs, when
    given, is predict_proba of (theta, bn_state) over the test set made by
    the caller (the last round eval of run_federated), and saves the
    forward pass. A model whose class count is not the test set's number of
    beam pairs raises IntegrityError before either.
    """
    if len(ds_test) == 0:
        raise ValueError("test dataset is empty")
    n_classes = spec.n_classes
    if n_classes != ds_test.meta.n_pairs:
        raise IntegrityError(f"model has {n_classes} classes, dataset has "
                             f"{ds_test.meta.n_pairs} beam pairs")
    k_max = n_classes if k_max is None else min(k_max, n_classes)
    labels = ds_test.labels()
    if probs is None:
        inputs, _ = preprocess_dataset(ds_test, grid) if test_tensors is None else test_tensors
        probs = predict_proba(spec, theta, bn_state, inputs)
    powers = ds_test.powers()
    return EvalReport(
        k_values=np.arange(1, k_max + 1),
        accuracy=topk_accuracy(probs, labels, k_max),
        throughput=None if powers is None else throughput_ratio(probs, powers, k_max),
        param_count=nn.count_params(spec),
        flops=nn.count_flops(spec),
        n_samples=len(ds_test),
    )


def _t975(nu):
    """Two-sided 95% Student-t quantile t_{0.975, nu} for integer nu >= 1.

    Bisects theta = atan(t / sqrt(nu)) on (0, pi/2) until the midpoint stops
    moving, against the closed-form A(t|nu) = P(|T| <= t) of Abramowitz &
    Stegun 26.7.3 (odd nu) and 26.7.4 (even nu), a finite series in cos^2.
    """
    odd = nu % 2
    j = np.arange(1, nu // 2)
    ratios = (2 * j - 1 + odd) / (2 * j + odd)

    def inside(theta):
        c, s = math.cos(theta), math.sin(theta)
        series = 1.0 + float(np.sum(np.cumprod(ratios * (c * c))))
        if not odd:
            return s * series
        return 2.0 / math.pi * (theta + (s * c * series if nu > 1 else 0.0))

    lo, hi = 0.0, math.pi / 2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if inside(mid) < 0.95:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(nu) * math.tan(mid)


def monte_carlo(run, n_runs=10, base_seed=0):
    """Mean and 95% Student-t half-width per metric over independent runs.

    `run` maps a seed to a dict of scalar metrics; run i gets base_seed + i.
    Returns {metric: (mean, half_width)}.
    """
    if n_runs < 2:
        raise ValueError("need at least two runs for a confidence interval")
    results = [run(base_seed + i) for i in range(n_runs)]
    metrics = {}
    for key in results[0]:
        values = np.array([r[key] for r in results], dtype=np.float64)
        mean = float(np.mean(values))
        sd = float(np.std(values, ddof=1))
        half = float(_t975(n_runs - 1) * sd / np.sqrt(n_runs))
        metrics[key] = (mean, half)
    return metrics
