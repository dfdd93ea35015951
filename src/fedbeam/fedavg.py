"""Federated averaging over simulated vehicles.

Each aggregation round: every vehicle starts from the broadcast model, runs
N_v local epochs of mini-batch SGD on its own partition (step size decaying
as rho_0 * exp(-lambda * t) over its cumulative step count t), and uploads
the parameter delta g_v. The server applies

    theta <- theta + (mu / V) * sum_v g_v

summing in ascending vehicle order so results are bit-reproducible, then
broadcasts. Every aggregation moves |theta| float32 values down to each
vehicle and V * |theta| up, which the round log tracks exactly as O_DL and
O_UL. Those counters cover theta only: the batch-norm running statistics
travel too, 2 * sum(out_channels) floats each way per vehicle (60 at the
default architecture), and are not counted. After each
aggregation the round log also records top-1 and top-K test accuracy and the
top-K throughput ratio, read off the channel.topk_accuracy and
channel.throughput_ratio curves of one (N, C) probability matrix.

Batch-norm running statistics ride along with the broadcast model and are
combined by unweighted averaging across clients, as the deltas are.
partition_uniform sizes differ by up to one sample, and neither average
weights a client by its local dataset size.

The vehicles' local rounds run side by side, as do the eval-mode forward
calls over nn.EVAL_BATCH slices, nn.forward's own eval batching, on one
thread per CPU in the process's affinity mask (`taskset` restricts them).
The results do not depend on that count: each vehicle has its own RNG
stream, the deltas are summed in vehicle order, and every eval slice
writes its own rows. Each local epoch is one _train_epoch, the
mini-batch loop that evaluation.train_centralized runs its Adam epochs
through as well; those stay sequential, each step needing the last.
"""

import csv
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .channel import topk_accuracy, throughput_ratio
from .dataset import partition_uniform
from .errors import NumericError, is_finite_real, require_int, require_real
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
        for name, least in (("vehicles", 1), ("local_epochs", 1), ("max_rounds", 1),
                            ("batch_size", 2), ("partition_seed", 0), ("init_seed", 0),
                            ("shuffle_seed", 0), ("accuracy_top_k", 1)):
            require_int(name, getattr(self, name), least)
        require_real("server_lr", self.server_lr)
        require_real("local_lr", self.local_lr)
        require_real("lr_decay", self.lr_decay, strict=False)
        if self.target_accuracy is not None and not is_finite_real(self.target_accuracy):
            raise ValueError(f"target_accuracy must be null or a finite number, got {self.target_accuracy!r}")


@dataclass
class ClientState:
    """One vehicle: its partition view, RNG stream and SGD step count."""

    vid: int
    indices: np.ndarray
    rng: np.random.Generator
    step_count: int = 0

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
    int8 array, plus the labels.

    The codes {0, 1, -1, -2} are exact in every float type, so nn.forward's
    copy of a batch into its buffer of theta's dtype is the only cast.
    """
    inputs = np.empty((len(ds), 1) + grid.shape, dtype=np.int8)
    for k, sample in enumerate(ds.samples):
        inputs[k, 0] = lidar_to_grid(sample, grid)
    return inputs, ds.labels()


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _on_all_cpus(fn, items):
    """[fn(item) for item in items], run by the calling thread and one
    worker thread per further CPU in the affinity mask, each taking the
    next untaken item. Returns the results in item order and re-raises the
    first exception in item order; no worker outlives the call.

    Items are taken in order and a failure stops the taking, so every item
    before a failed one has run: the exception raised is the one a plain
    loop would raise.
    """
    items = list(items)
    results = [None] * len(items)
    errors = [None] * len(items)
    lock = threading.Lock()
    taken, stop = 0, False

    def lane():
        nonlocal taken, stop
        while True:
            with lock:
                i = taken
                if stop or i == len(items):
                    return
                taken += 1
            try:
                results[i] = fn(items[i])
            except BaseException as e:
                errors[i] = e
                stop = True

    workers = [threading.Thread(target=lane) for _ in range(min(_cpu_count(), len(items)) - 1)]
    for t in workers:
        t.start()
    try:
        lane()
    finally:
        stop = True  # the caller's lane is done: take no more items
        for t in workers:
            t.join()
        _wait_exited(workers)
    for e in errors:
        if e is not None:
            raise e
    return results


def _wait_exited(threads):
    """Wait until the OS threads of joined threads are gone as well.

    Thread.join returns once a thread's Python side is done, a moment
    before its OS thread runs its exit handlers, and glibc hands a thread's
    malloc arena back for reuse only in those handlers. A worker started in
    that moment gets a new arena, and every arena keeps its own freed
    buffers, so the process would grow by a lane's working set each time
    the timing fell that way. Linux lists a live thread under
    /proc/self/task; where there is no such directory, this returns at once.
    An exit takes microseconds; the one-second limit only guards the loop.
    """
    deadline = time.monotonic() + 1.0
    for t in threads:
        task = f"/proc/self/task/{t.native_id}"
        while os.path.exists(task) and time.monotonic() < deadline:
            time.sleep(0)


def _train_epoch(spec, theta, bn_state, inputs, labels, order, batch_size, step, diverged):
    """One epoch of mini-batch steps over the samples in `order`, short final
    batch kept: theta = step(theta, grad) per batch, with bn_state's running
    statistics updated in place. A non-finite loss at batch b raises
    NumericError(diverged(b)). Returns (theta, the per-batch losses)."""
    losses = []
    for b, start in enumerate(range(0, len(order), batch_size)):
        idx = order[start : start + batch_size]
        loss, grad = nn.loss_and_grad(spec, theta, bn_state, inputs[idx], labels[idx])
        if not np.isfinite(loss):
            raise NumericError(diverged(b))
        theta = step(theta, grad)
        losses.append(loss)
    return theta, losses


def local_round(client, global_theta, global_bn, spec, inputs, labels, cfg):
    """N_v local epochs of mini-batch SGD from the broadcast state, the client's
    indices reshuffled each epoch from its own RNG stream, with rho_t = local_lr *
    exp(-lr_decay * t). Returns (delta, the vehicle's copy of global_bn, trained)."""
    bn_state = global_bn.copy()

    def sgd(theta, grad):
        theta = nn.sgd_step(theta, grad, cfg.local_lr * np.exp(-cfg.lr_decay * client.step_count))
        client.step_count += 1
        return theta

    def diverged(_):
        return f"vehicle {client.vid}: non-finite loss at local step {client.step_count}"

    theta = global_theta
    for _ in range(cfg.local_epochs):
        order = client.indices[client.rng.permutation(len(client.indices))]
        theta, _ = _train_epoch(spec, theta, bn_state, inputs, labels, order,
                                cfg.batch_size, sgd, diverged)
    return theta - global_theta, bn_state


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


def predict_proba(spec, theta, bn_state, inputs):
    """Eval-mode class probabilities over a whole dataset, in sample order:
    nn.forward of every nn.EVAL_BATCH slice, the slices run on every CPU,
    each into its own rows. Equal to one nn.forward of all the inputs."""
    b = nn.EVAL_BATCH
    probs = np.empty((len(inputs), spec.n_classes), dtype=theta.dtype)

    def fill(s):
        probs[s : s + b] = nn.forward(spec, theta, bn_state, inputs[s : s + b], mode="eval")

    _on_all_cpus(fill, range(0, len(inputs), b))
    return probs


def run_federated(cfg, ds_train, ds_test, spec, grid):
    """Algorithm loop: local epochs, delta upload, aggregate, broadcast, eval.

    Stops after cfg.max_rounds or once post-aggregation top-K test accuracy
    reaches cfg.target_accuracy. Returns (theta, bn_state, [RoundLog],
    probs), where probs is the final model's eval-mode (N, C) probability
    matrix over the test set, from the last round's eval, which evaluate()
    takes in place of a forward pass of its own. Deterministic for fixed
    config and seeds: clients own disjoint RNG streams, so running the
    local rounds side by side on every CPU gives the deltas of a
    sequential run, and a failing vehicle raises what the sequential run
    would (the lowest vehicle id's error).
    """
    if len(ds_test) == 0:
        raise ValueError("test dataset is empty")
    train_inputs, train_labels = preprocess_dataset(ds_train, grid)
    test_inputs, test_labels = preprocess_dataset(ds_test, grid)
    test_powers = ds_test.powers()

    parts = partition_uniform(len(ds_train), cfg.vehicles, cfg.partition_seed)
    rngs = client_rngs(cfg.shuffle_seed, cfg.vehicles)
    clients = [ClientState(vid=v, indices=parts[v], rng=rngs[v]) for v in range(cfg.vehicles)]

    theta, bn_state = nn.init_params(spec, cfg.init_seed)
    n_params = theta.shape[0]
    k = min(cfg.accuracy_top_k, spec.n_classes)
    o_ul = o_dl = 0
    logs = []

    for round_index in range(1, cfg.max_rounds + 1):
        t0 = time.perf_counter()
        deltas, bn_states = zip(*_on_all_cpus(
            lambda c: local_round(c, theta, bn_state, spec, train_inputs, train_labels, cfg), clients
        ))
        theta = aggregate(theta, deltas, cfg.server_lr)
        if not np.all(np.isfinite(theta)):
            raise NumericError(f"non-finite parameters after aggregation round {round_index}")
        bn_state = nn.BatchNormState.average(bn_states)
        o_dl += n_params
        o_ul += cfg.vehicles * n_params

        probs = predict_proba(spec, theta, bn_state, test_inputs)
        acc = topk_accuracy(probs, test_labels, k)
        ratio = None if test_powers is None else float(throughput_ratio(probs, test_powers, k)[k - 1])
        logs.append(RoundLog(
            round_index=round_index,
            top1_accuracy=float(acc[0]),
            topk_accuracy=float(acc[k - 1]),
            throughput_ratio=ratio,
            o_ul=o_ul,
            o_dl=o_dl,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        ))
        if cfg.target_accuracy is not None and logs[-1].topk_accuracy > cfg.target_accuracy:
            break

    return theta, bn_state, logs, probs


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
