"""Federated averaging over simulated vehicles.

Each aggregation round: every vehicle copies the broadcast model, runs N_v
local epochs of mini-batch SGD on its own partition (step size decaying as
rho_0 * exp(-lambda * t) over its cumulative step count t), and uploads the
parameter delta g_v. The server applies

    theta <- theta + (mu / V) * sum_v g_v

summing in ascending vehicle order so results are bit-reproducible, then
broadcasts. Every aggregation moves |theta| float32 values down to each
vehicle and V * |theta| up, which the round log tracks exactly. After each
aggregation the round log also records top-1 and top-K test accuracy and the
top-K throughput ratio, read off the channel.topk_accuracy and
channel.throughput_ratio curves of one (N, C) probability matrix.

Batch-norm running statistics ride along with the broadcast model and are
combined by unweighted averaging across clients, as the deltas are.
partition_uniform sizes differ by up to one sample, and neither average
weights a client by its local dataset size.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .channel import topk_accuracy, throughput_ratio
from .errors import NumericError
from .preprocess import lidar_to_grid

__all__ = [
    "FedConfig",
    "ClientState",
    "RoundLog",
    "client_rngs",
    "local_round",
    "aggregate",
    "run_federated",
    "rounds_to_accuracy",
    "write_round_csv",
    "preprocess_dataset",
]

# Eval-mode forward batch. Per scene, the forward pass costs about half as much
# at 16 scenes as at 256; the batching moves eval-mode outputs only by rounding.
EVAL_BATCH = 16


@dataclass
class FedConfig:
    vehicles: int = 5
    local_epochs: int = 1
    max_rounds: int = 40
    server_lr: float = 0.2
    local_lr: float = 0.2
    lr_decay: float = 0.001
    batch_size: int = 16
    partition_seed: int = 0
    init_seed: int = 0
    shuffle_seed: int = 0
    target_accuracy: float | None = None
    accuracy_top_k: int = 10

    def __post_init__(self):
        if self.vehicles < 1:
            raise ValueError("need at least one vehicle")
        if self.local_epochs < 1:
            raise ValueError("need at least one local epoch per round")
        if self.max_rounds < 1:
            raise ValueError("need at least one round")
        if self.server_lr <= 0 or self.local_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2 (batch statistics)")


@dataclass
class ClientState:
    """One vehicle: its partition view, local parameters and RNG stream."""

    vid: int
    indices: np.ndarray
    theta: np.ndarray | None = None
    bn_state: nn.BatchNormState | None = None
    step_count: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError(f"vehicle {self.vid} has an empty local dataset")


@dataclass
class RoundLog:
    round_index: int
    top1_accuracy: float
    topk_accuracy: float
    throughput_ratio: float | None
    o_ul: int
    o_dl: int
    wall_ms: float


def client_rngs(shuffle_seed, vehicles):
    """Independent, reproducible per-vehicle RNG streams."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(shuffle_seed).spawn(vehicles)]


def preprocess_dataset(ds, grid):
    """Every sample's occupancy grid, codes kept raw, as one (N, 1, H, W)
    float32 array, plus the labels."""
    inputs = np.empty((len(ds), 1) + grid.shape, dtype=np.float32)
    for k, sample in enumerate(ds.samples):
        inputs[k, 0] = lidar_to_grid(sample, grid)
    return inputs, ds.labels()


def _epoch_batches(order, batch_size):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def local_round(client, global_theta, global_bn, spec, inputs, labels, cfg):
    """N_v local epochs of mini-batch SGD; returns the parameter delta.

    Refreshes the client's model from the broadcast state, shuffles its
    local indices once per epoch from its own RNG stream (short final batch
    kept), and steps with rho_t = local_lr * exp(-lr_decay * t).
    """
    client.theta = global_theta.copy()
    client.bn_state = global_bn.copy()
    for _ in range(cfg.local_epochs):
        order = client.rng.permutation(len(client.indices))
        for batch_order in _epoch_batches(order, cfg.batch_size):
            idx = client.indices[batch_order]
            loss, grad = nn.loss_and_grad(
                spec, client.theta, client.bn_state, inputs[idx], labels[idx]
            )
            if not np.isfinite(loss):
                raise NumericError(
                    f"vehicle {client.vid}: non-finite loss at local step {client.step_count}"
                )
            rho = float(cfg.local_lr * np.exp(-cfg.lr_decay * client.step_count))
            client.theta = nn.sgd_step(client.theta, grad, rho)
            client.step_count += 1
    return client.theta - global_theta


def aggregate(theta_prev, deltas, mu):
    """theta + (mu/V) * sum of deltas, summed in list (vehicle-id) order."""
    if not deltas:
        raise ValueError("need at least one delta")
    total = np.zeros_like(theta_prev)
    for g in deltas:
        if g.shape != theta_prev.shape:
            raise ValueError(f"delta shape {g.shape} does not match theta {theta_prev.shape}")
        total += g
    return theta_prev + (mu / len(deltas)) * total


def _evaluate_round(spec, theta, bn_state, test_inputs, test_labels, test_powers, k):
    """Top-1 and top-k accuracy and the top-k throughput ratio (None without powers)."""
    probs = predict_proba(spec, theta, bn_state, test_inputs)
    acc = topk_accuracy(probs, test_labels, k)
    ratio = None if test_powers is None else float(throughput_ratio(probs, test_powers, k)[k - 1])
    return float(acc[0]), float(acc[k - 1]), ratio


def predict_proba(spec, theta, bn_state, inputs):
    """Eval-mode class probabilities over a whole dataset, in sample order."""
    chunks = [
        nn.forward(spec, theta, bn_state, inputs[s : s + EVAL_BATCH], mode="eval")
        for s in range(0, len(inputs), EVAL_BATCH)
    ]
    return np.concatenate(chunks, axis=0)


def run_federated(cfg, ds_train, ds_test, spec, grid):
    """Algorithm loop: local epochs, delta upload, aggregate, broadcast, eval.

    Stops after cfg.max_rounds or once post-aggregation top-K test accuracy
    reaches cfg.target_accuracy. Returns (theta, bn_state, [RoundLog]).
    Deterministic for fixed config and seeds; clients own disjoint RNG
    streams, so any scheduling/parallelization of the local rounds would
    produce the same deltas.
    """
    from .dataset import partition_uniform  # local import to avoid a cycle

    if len(ds_test) == 0:
        raise ValueError("test dataset is empty")
    train_inputs, train_labels = preprocess_dataset(ds_train, grid)
    test_inputs, test_labels = preprocess_dataset(ds_test, grid)
    test_powers = ds_test.powers()

    parts = partition_uniform(ds_train, cfg.vehicles, cfg.partition_seed)
    rngs = client_rngs(cfg.shuffle_seed, cfg.vehicles)
    clients = [ClientState(vid=v, indices=parts[v], rng=rngs[v]) for v in range(cfg.vehicles)]

    theta, bn_state = nn.init_params(spec, cfg.init_seed)
    n_params = theta.shape[0]
    k = min(cfg.accuracy_top_k, spec.n_classes)
    o_ul = o_dl = 0
    logs = []

    for round_index in range(1, cfg.max_rounds + 1):
        t0 = time.perf_counter()
        deltas = [
            local_round(c, theta, bn_state, spec, train_inputs, train_labels, cfg)
            for c in clients
        ]
        theta = aggregate(theta, deltas, cfg.server_lr)
        if not np.all(np.isfinite(theta)):
            raise NumericError(f"non-finite parameters after aggregation round {round_index}")
        bn_state = nn.BatchNormState.average([c.bn_state for c in clients])
        o_dl += n_params
        o_ul += cfg.vehicles * n_params

        top1, acc, ratio = _evaluate_round(
            spec, theta, bn_state, test_inputs, test_labels, test_powers, k
        )
        logs.append(RoundLog(
            round_index=round_index,
            top1_accuracy=top1,
            topk_accuracy=acc,
            throughput_ratio=ratio,
            o_ul=o_ul,
            o_dl=o_dl,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        ))
        if cfg.target_accuracy is not None and acc > cfg.target_accuracy:
            break

    return theta, bn_state, logs


def rounds_to_accuracy(logs, threshold):
    """Smallest aggregation round whose top-K accuracy exceeds threshold,
    or None when never reached."""
    if not logs:
        raise ValueError("no round logs")
    for entry in logs:
        if entry.topk_accuracy > threshold:
            return entry.round_index
    return None


def write_round_csv(logs, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["round", "top1_acc", "topK_acc", "throughput_ratio",
                    "o_ul_float32", "o_dl_float32", "wall_ms"])
        for entry in logs:
            ratio = "NA" if entry.throughput_ratio is None else f"{entry.throughput_ratio:.6f}"
            w.writerow([
                entry.round_index,
                f"{entry.top1_accuracy:.6f}",
                f"{entry.topk_accuracy:.6f}",
                ratio,
                entry.o_ul,
                entry.o_dl,
                f"{entry.wall_ms:.3f}",
            ])
