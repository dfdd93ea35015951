"""The three workloads: what each sets up, runs per round and checks.

All three use the desk-scale world: the default SynthConfig (64 beam
pairs), default_grid() (20x200 cells), default_architecture and B=16.
Every `fedbeam` command runs in this process through `fedbeam.cli.main`.
An operation is one command; it fails when its exit code is not 0 or
when its outputs differ from the first round's outputs, which the final
check verifies against computations made apart from the program.
"""

import contextlib
import io
import json
import os
import statistics
import time
import traceback

import numpy as np

import fedbeam as fb
from fedbeam import cli, fedavg, nn

from checks import (
    check_rasterization,
    check_report,
    check_rounds,
    check_scenes,
    param_count,
    require,
    rounds_without_wall,
)

N_TRAIN = 1000          # training scenes of fedavg and central
N_TEST = 600            # test scenes of fedavg and central
VEHICLES = 5
FED_ROUNDS = 2          # FedAvg aggregation rounds per `fedbeam train`
# mu = 1 is FedAvg as McMahan et al. state it (the server takes the mean
# client model); the package default 0.2 leaves two rounds far from
# converged, and top-10 accuracy then swings with the seed
SERVER_LR = 1.0
CENTRAL_EPOCHS = 2      # Adam epochs per `fedbeam train`: rate 3e-3, then 3e-4 for the
CENTRAL_LR = 3e-3       # second (the default 1e-3 leaves two epochs far from converged)
CKPT_TRAIN, CKPT_TEST = 600, 50   # scenes the checkpoint for `scenes` is trained on (2 epochs)
SCENE_SET = 600         # scenes written by `fedbeam synth` and read by `fedbeam eval`
SCENE_SEED_OFFSET = 100  # keeps the scene set apart from the checkpoint's data
K_MAX = 64              # the whole K-sweep: every curve must reach 1 at K = 64
# set-ups per run, spread over it; the set-up commands give the figures
# the rounds do not (synth on fedavg/central, train on scenes), and three
# samples a run left those figures twice as spread as the rounds' ones
SETUP_REPEATS = 5
# `fedbeam eval` runs this many times after each `fedbeam train`: one eval
# takes a sixth of a train, and a single sample per round left too few in
# a run for a steady rate
EVAL_REPEATS = 3
RASTER_STRIDE = 16      # every 16th test scene is rasterized by the own loop
# default_architecture written out apart from the program, for the |theta|
# check: (out channels, kernel, stride, padding) per conv
ARCH = dict(input_shape=(20, 200), convs=[(5, 3, s, 1) for s in (1, 2, 1, 2, 2, 2)],
            hidden=16, n_classes=64)


def rate(scenes, times):
    """Scenes per second over all runs of a command: the work done over the
    time it took. On a shared host this is steadier than the median of the
    per-run rates, which jumps between the host's fast and slow stretches."""
    return scenes * len(times) / sum(times)


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class Commands:
    """Runs `fedbeam` commands in-process; under tracing, each is a root span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.roots = []   # (phase, span index) of every traced command

    def run(self, argv):
        """(exit code, wall seconds, stderr) of one command; an exception
        that escapes the command counts as exit code -1."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    rc = cli.main(argv)
                else:
                    self.roots.append((self.tracer.phase, len(self.tracer.spans)))
                    rc = self.tracer.span("cli." + argv[0], cli.main, argv)
            except Exception:  # the benchmark must go on and report the failure
                traceback.print_exc()
                rc = -1
        return rc, time.perf_counter() - t0, err.getvalue().strip()

    def must(self, argv):
        rc, secs, err = self.run(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {rc}: {err}")
        return secs


def warm_up(seed):
    """BLAS thread start-up and first-call costs, paid before any timing."""
    spec = nn.default_architecture(n_classes=64)
    theta, bn = nn.init_params(spec, seed)
    rng = np.random.default_rng(seed)
    batch = rng.integers(-2, 2, size=(256, 1, 20, 200)).astype(np.float32)
    labels = rng.integers(0, 64, size=256)
    for _ in range(8):
        nn.loss_and_grad(spec, theta, bn, batch[:16], labels[:16])
    nn.forward(spec, theta, bn, batch, mode="eval")


class Workload:
    """Set-up, op rounds and final check; subclasses fill in the specifics.

    Subclasses define build(d) (one set-up repetition into directory d),
    operations() (the round: (name, argv, output files) per command),
    final_check() and metrics(), plus the files the traced run reads:
    train_file/test_file (fill-in runs and standalone kernels) and
    main_file/main_count (bytes per scene).
    """

    def __init__(self, work, seed, commands):
        self.work = work
        self.seed = seed
        self.cmd = commands
        self.out = os.path.join(work, "ops")
        os.makedirs(os.path.join(self.out, "eval"))
        self.data = None
        self.ops = None
        self.setup_times = []
        self.reference = {}         # op name -> output bytes of its first run
        self.op_times = {}          # op name -> [seconds]
        self.last_error = None

    def setup(self, rep):
        d = os.path.join(self.work, f"setup{rep}")
        os.makedirs(d)
        t0 = time.perf_counter()
        warm_up(self.seed)
        self.build(d)
        self.setup_times.append(time.perf_counter() - t0)
        if self.data is None:
            self.data = d       # the rounds read the first repetition's files

    def run_round(self):
        """One round of the workload's operations; returns (attempted, failed)."""
        if self.ops is None:
            self.ops = self.operations()
        failed = 0
        for name, argv, outputs in self.ops:
            rc, secs, err = self.cmd.run(argv)
            self.op_times.setdefault(name, []).append(secs)
            if rc == 0:
                snap = {p: self.normalize(p, read_bytes(p)) for p in outputs}
                if self.reference.setdefault(name, snap) == snap:
                    continue
                err = f"{name}: outputs differ from its first run"
            failed += 1
            self.last_error = f"{name} exited {rc}: {err}" if rc else err
        return len(self.ops), failed

    @property
    def train_file(self):
        return os.path.join(self.data, "train.fbds")

    @staticmethod
    def normalize(path, data):
        return rounds_without_wall(data) if path.endswith("rounds.csv") else data

    def check_setup_repeats(self, names):
        """Every set-up repetition wrote byte-identical files."""
        for name in names:
            first = read_bytes(os.path.join(self.work, "setup0", name))
            for rep in range(1, SETUP_REPEATS):
                other = read_bytes(os.path.join(self.work, f"setup{rep}", name))
                require(other == first, f"set-up repetition {rep} wrote a different {name}")

    def check_model(self, ckpt, fbds, reports, n_scenes):
        """The reports' K-curves against the own loop over the checkpoint's
        probabilities, and preprocess_dataset against the own binning loop."""
        meta, scenes = check_scenes(fbds, n_scenes)
        spec, theta, bn = nn.load_checkpoint(ckpt)
        inputs, _ = fedavg.preprocess_dataset(fb.load_dataset(fbds), fb.default_grid())
        probs = fedavg.predict_proba(spec, theta, bn, inputs).tolist()
        labels = [s["label"] for s in scenes]
        powers = [s["powers"] for s in scenes]
        n_params = param_count(**ARCH)
        for path in reports:
            rep = check_report(path, probs, labels, powers, K_MAX, 10 / meta["n_pairs"])
            require(rep["param_count"] == n_params, f"{path}: |theta| {rep['param_count']} != {n_params}")
        check_rasterization(inputs, scenes, meta["area"], ARCH["input_shape"], RASTER_STRIDE)
        return rep


def synth_config(path, seed, n_train, n_test):
    write_json(path, {"version": 1, "seed": seed,
                      "dataset": {"synthetic": {"n_train": n_train, "n_test": n_test}}})


def train_config(path, seed, mode, data_dir):
    write_json(path, {
        "version": 1, "seed": seed, "mode": mode, "k_max": K_MAX,
        "dataset": {"train_file": os.path.join(data_dir, "train.fbds"),
                    "test_file": os.path.join(data_dir, "test.fbds")},
        "federated": {"vehicles": VEHICLES, "max_rounds": FED_ROUNDS, "local_epochs": 1,
                      "server_lr": SERVER_LR, "batch_size": 16, "accuracy_top_k": 10},
        "central": {"epochs": CENTRAL_EPOCHS, "lr": CENTRAL_LR, "lr_drop_epoch": 1,
                    "batch_size": 16}})


class Training(Workload):
    """`fedbeam train`, then `fedbeam eval` of its checkpoint on the test file."""

    mode = None

    def __init__(self, *args):
        super().__init__(*args)
        self.synth_times = []

    def build(self, d):
        synth_config(os.path.join(d, "synth.json"), self.seed, N_TRAIN, N_TEST)
        self.synth_times.append(self.cmd.must(["synth", "--config", os.path.join(d, "synth.json"),
                                               "--out", d]))

    @property
    def test_file(self):
        return os.path.join(self.data, "test.fbds")

    main_file = Workload.train_file
    main_count = N_TRAIN

    def operations(self):
        out = self.out
        cfg = os.path.join(out, "train.json")
        train_config(cfg, self.seed, self.mode, self.data)
        written = ["model.fbnn", "report.json", "sweep.csv"]
        if self.mode == "federated":
            written.append("rounds.csv")
        evaluation = ("eval", ["eval", "--checkpoint", os.path.join(out, "model.fbnn"),
                               "--dataset", self.test_file, "--k-max", str(K_MAX),
                               "--out", os.path.join(out, "eval")],
                      [os.path.join(out, "eval", f) for f in ("report.json", "sweep.csv")])
        return [("train", ["train", "--config", cfg, "--out", out],
                 [os.path.join(out, f) for f in written])] + [evaluation] * EVAL_REPEATS

    def final_check(self):
        self.check_setup_repeats(["train.fbds", "test.fbds"])
        check_scenes(self.train_file, N_TRAIN)
        out = self.out
        rep = self.check_model(os.path.join(out, "model.fbnn"), self.test_file,
                               [os.path.join(out, "report.json"),
                                os.path.join(out, "eval", "report.json")], N_TEST)
        values = {"top10_accuracy": rep["accuracy"][9],
                  "throughput_ratio_top10": rep["throughput_ratio"][9]}
        if self.mode == "federated":
            o_ul = check_rounds(os.path.join(out, "rounds.csv"), FED_ROUNDS, VEHICLES,
                                param_count(**ARCH))
            values["uplink_bytes"] = 4 * o_ul
        else:
            # central training uploads the training scenes themselves
            values["uplink_bytes"] = os.path.getsize(self.train_file)
        return values

    def metrics(self):
        return {
            "train_s": statistics.median(self.op_times["train"]),
            "synth_scenes_per_s": rate(N_TRAIN + N_TEST, self.synth_times),
            "eval_scenes_per_s": rate(N_TEST, self.op_times["eval"]),
        }


class FedAvg(Training):
    mode = "federated"


class Central(Training):
    mode = "central"


class Scenes(Workload):
    """`fedbeam synth` of a scene set, then `fedbeam eval` of a trained
    checkpoint over the written file: no backward pass, writes and reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.train_times = []

    def build(self, d):
        synth_config(os.path.join(d, "synth.json"), self.seed, CKPT_TRAIN, CKPT_TEST)
        self.cmd.must(["synth", "--config", os.path.join(d, "synth.json"), "--out", d])
        train_config(os.path.join(d, "train.json"), self.seed, "central", d)
        self.train_times.append(self.cmd.must(["train", "--config", os.path.join(d, "train.json"),
                                               "--out", d]))

    @property
    def test_file(self):
        return os.path.join(self.out, "train.fbds")

    main_file = test_file
    main_count = SCENE_SET

    def operations(self):
        out = self.out
        cfg = os.path.join(out, "scenes.json")
        synth_config(cfg, self.seed + SCENE_SEED_OFFSET, SCENE_SET, 0)
        return [
            ("synth", ["synth", "--config", cfg, "--out", out], [self.test_file]),
            ("eval", ["eval", "--checkpoint", os.path.join(self.data, "model.fbnn"),
                      "--dataset", self.test_file, "--k-max", str(K_MAX),
                      "--out", os.path.join(out, "eval")],
             [os.path.join(out, "eval", f) for f in ("report.json", "sweep.csv")]),
        ]

    def final_check(self):
        self.check_setup_repeats(["train.fbds", "test.fbds", "model.fbnn"])
        rep = self.check_model(os.path.join(self.data, "model.fbnn"), self.test_file,
                               [os.path.join(self.out, "eval", "report.json")], SCENE_SET)
        return {"top10_accuracy": rep["accuracy"][9],
                "throughput_ratio_top10": rep["throughput_ratio"][9],
                # the checkpoint was trained centrally: its training scenes went up
                "uplink_bytes": os.path.getsize(self.train_file)}

    def metrics(self):
        return {
            "train_s": statistics.median(self.train_times),
            "synth_scenes_per_s": rate(SCENE_SET, self.op_times["synth"]),
            "eval_scenes_per_s": rate(SCENE_SET, self.op_times["eval"]),
        }


WORKLOADS = {"fedavg": FedAvg, "central": Central, "scenes": Scenes}

