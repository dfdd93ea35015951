"""Run flow, environment record, per-layer metrics and the result line."""

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np

import fedbeam as fb
from fedbeam import cli, nn

from checks import CheckFailed
from spans import SpanIndex, Tracer
from workloads import SERVER_LR, SETUP_REPEATS, VEHICLES, WORKLOADS, Commands

MODULES = ("cli", "dataset", "channel", "preprocess", "nn", "fedavg", "evaluation")


def blas_info():
    """Version string and threads in use of the OpenBLAS that numpy's wheel
    ships, or ("unknown", None) for another BLAS."""
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                           "numpy.libs", "libscipy_openblas*")):
        lib = ctypes.CDLL(lib_path)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        if get_threads and get_config:
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            get_config.restype, get_config.argtypes = ctypes.c_char_p, []
            return get_config().decode(), get_threads()
    return "unknown", None


def environment(nproc):
    libc = ctypes.CDLL(None)
    libc.sysconf.restype, libc.sysconf.argtypes = ctypes.c_long, [ctypes.c_int]
    # glibc _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {name: libc.sysconf(code) for name, code in (("l1d", 188), ("l2", 191), ("l3", 194))}
    blas, threads = blas_info()
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas, "blas_threads_set": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas_threads_in_effect": threads, "cache_bytes": caches,
            "machine": platform.machine()}


def kernel_timings(spec, theta, bn, inputs, labels):
    """Median times of warm standalone nn kernels on real input tensors."""
    def step(b):
        return lambda: nn.loss_and_grad(spec, theta, bn.copy(), inputs[:b], labels[:b])

    def fwd(b):
        return lambda: nn.forward(spec, theta, bn, inputs[:b], mode="eval")

    out = {}
    for name, fn, reps in (("step_b16", step(16), 21), ("step_b256", step(256), 5),
                           ("forward_b16", fwd(16), 21), ("forward_b256", fwd(256), 5)):
        fn(), fn()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
    flops = nn.count_flops(spec)
    return {
        "nn.step_b16.ms": 1e3 * out["step_b16"],
        "nn.step_b256.ms": 1e3 * out["step_b256"],
        "nn.forward_b16.ms": 1e3 * out["forward_b16"],
        "nn.forward_b256.ms": 1e3 * out["forward_b256"],
        # the training step is counted as three forward passes (computed, not measured)
        "nn.step_b16.gflop_per_s": 3 * 16 * flops / out["step_b16"] / 1e9,
        "nn.forward_b256.gflop_per_s": 256 * flops / out["forward_b256"] / 1e9,
    }


def fill_in(tracer, index, wl, spec, grid):
    """Run, traced, the layers the workload's own commands never reached:
    one FedAvg round or one Adam epoch on the workload's own files."""
    have = {s[0] for s in index.spans}
    train_ds = fb.load_dataset(wl.train_file)
    test_ds = fb.load_dataset(wl.test_file)
    tracer.phase = "fill-in"
    tracer.install()
    try:
        if "fedavg.local_round" not in have:
            fed = fb.FedConfig(vehicles=VEHICLES, max_rounds=1, server_lr=SERVER_LR,
                               accuracy_top_k=10, partition_seed=wl.seed, init_seed=wl.seed,
                               shuffle_seed=wl.seed)
            cli.run_federated(fed, train_ds, test_ds, spec, grid)
        if "evaluation.train_centralized" not in have:
            cli.train_centralized(fb.CentralTrainConfig(epochs=1, seed=wl.seed), spec, train_ds, grid)
    finally:
        tracer.remove()


class LayerMetrics:
    """Per-layer figures from the spans. A figure comes from the traced
    rounds when their commands reached the layer, else from set-up, else
    from the fill-in run."""

    def __init__(self, index, traced_rounds):
        self.ix = index
        self.rounds = traced_rounds

    def phase_of(self, name):
        for phase in ("rounds", "setup", "fill-in"):
            if self.ix.select(name, phase):
                return phase
        raise KeyError(f"no span {name} in any phase")

    def per_call(self, name, self_only=False, per_tag=False):
        """Milliseconds per call, or per tagged unit (scenes) with per_tag."""
        idx = self.ix.select(name, self.phase_of(name))
        denom = sum(self.ix.spans[i][4] for i in idx) if per_tag else len(idx)
        return 1e3 * self.ix.total(idx, self_only) / denom

    def summed_per(self, names, per):
        phase = self.phase_of(per)
        total = sum(self.ix.total(self.ix.select(n, phase)) for n in names)
        return 1e3 * total / len(self.ix.select(per, phase))

    def raster_counts(self):
        idx = self.ix.select("preprocess.lidar_to_grid", "rounds")
        distinct = {}
        for i in idx:
            distinct.setdefault(self.ix.root[i], set()).add(self.ix.spans[i][4])
        return len(idx) / self.rounds, sum(map(len, distinct.values())) / len(idx)

    def table(self):
        calls, useful = self.raster_counts()
        return {
            "dataset.generate_synthetic.ms_per_scene": self.per_call("dataset.generate_synthetic", per_tag=True),
            "dataset.geometry.ms_per_scene": self.per_call("dataset.synthesize_scene", self_only=True),
            "dataset.save_dataset.ms": self.per_call("dataset.save_dataset"),
            "dataset.load_dataset.ms": self.per_call("dataset.load_dataset"),
            "channel.beam_powers.ms_per_call": self.per_call("channel.beam_powers"),
            "channel.round_metrics.ms": self.summed_per(
                ["channel.topk_accuracy", "channel.throughput_ratio"], "fedavg.round_eval"),
            "preprocess.lidar_to_grid.ms_per_scene": self.per_call("preprocess.lidar_to_grid"),
            "preprocess.lidar_to_grid.calls": calls,
            "preprocess.useful_ratio": useful,
            "nn.forward.train.ms": self.per_call("nn.forward.train"),
            "nn.backward.ms": self.per_call("nn.loss_and_grad", self_only=True),
            "nn.sgd_step.ms": self.per_call("nn.sgd_step"),
            "nn.adam_step.ms": self.per_call("nn.adam_step"),
            "nn.forward.eval.ms_per_scene": self.per_call("nn.forward.eval", per_tag=True),
            "fedavg.local_round.ms": self.per_call("fedavg.local_round"),
            "fedavg.aggregate.ms": self.summed_per(["fedavg.aggregate", "nn.bn_average"],
                                                   "fedavg.aggregate"),
            "fedavg.round_eval.ms": self.per_call("fedavg.round_eval"),
            "fedavg.preprocess_dataset.ms": self.per_call("fedavg.preprocess_dataset"),
            "evaluation.evaluate.ms": self.per_call("evaluation.evaluate"),
            "evaluation.train_centralized.ms": self.per_call("evaluation.train_centralized"),
        }


def declared_units(root, key):
    """{metric: unit} as BENCHMARK.json declares them for `key`."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def with_units(values, units):
    """Every declared metric that has a value, in declaration order."""
    return {k: {"value": float(values[k]), "unit": u} for k, u in units.items() if k in values}


def run_rounds(wl, until, trace, traced, counts, round_walls, last):
    """Whole rounds, at least one, until the run's rounds have taken about
    `until` seconds in all: the stretch stops at the round boundary nearest
    to `until`, so that the rounds of a run take `--seconds` on average
    however many stretches they are split into. Under --trace 1 rounds go
    untraced and traced in the order U T T U U T T U ..., so that neither
    side always runs first, and the `last` stretch stops with as many of
    each."""
    while True:
        n = len(round_walls[False]) + len(round_walls[True])
        on = bool(trace) and n % 4 in (1, 2)
        traced(on, "rounds")
        t0 = time.perf_counter()
        attempted, failed = wl.run_round()
        round_walls[on].append(time.perf_counter() - t0)
        traced(False)
        counts["attempted"] += attempted
        counts["failed"] += failed
        balanced = not (trace and last) or len(round_walls[False]) == len(round_walls[True])
        done = sum(round_walls[False]) + sum(round_walls[True])
        if done + done / (n + 1) / 2 >= until and balanced:
            return


def run(args, root, nproc):
    env = environment(nproc)
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    work = os.path.join(root, ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    tracer = Tracer(fb) if args.trace else None
    commands = Commands(None)
    wl = WORKLOADS[args.workload](work, args.seed, commands)

    def traced(on, phase=None):
        if on:
            tracer.phase = phase
            tracer.install()
            commands.tracer = tracer
        elif commands.tracer is not None:
            tracer.remove()
            commands.tracer = None

    # The set-up repetitions are spread over the run (before, between and
    # after equal stretches of rounds) so that their figures, like the
    # rounds' figures, sample the whole run rather than its first seconds.
    counts = {"attempted": 0, "failed": 0}
    round_walls = {False: [], True: []}
    for rep in range(SETUP_REPEATS):
        traced(args.trace, "setup")
        wl.setup(rep)
        traced(False)
        if rep < SETUP_REPEATS - 1:
            run_rounds(wl, args.seconds * (rep + 1) / (SETUP_REPEATS - 1), args.trace,
                       traced, counts, round_walls, last=rep == SETUP_REPEATS - 2)
    attempted, failed = counts["attempted"], counts["failed"]

    correct = failed == 0
    try:
        outputs = wl.final_check()
    except CheckFailed as e:
        print(f"check failed: {e}", flush=True)
        correct, failed, outputs = False, attempted, None
    if wl.last_error:
        print(f"operation failed: {wl.last_error}", flush=True)

    if args.trace:
        metrics = layer_metrics(tracer, commands, wl, round_walls)
        tracer.write(os.path.join(root, ".bench_work",
                                  f"trace-{args.workload}-seed{args.seed}.json"), env)
        if metrics.pop("_gap_s") > 1e-6:
            print("check failed: module self times do not add up to command wall time", flush=True)
            correct = False
        result = with_units(metrics, declared_units(root, "per_layer"))
    else:
        values = dict(wl.metrics())
        values["setup_s"] = statistics.median(wl.setup_times)
        if outputs:
            values.update(outputs)
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = with_units(values, declared_units(root, "end_to_end"))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def layer_metrics(tracer, commands, wl, round_walls):
    spec = nn.default_architecture(n_classes=64)
    grid = fb.default_grid()
    index = SpanIndex(tracer.spans)
    fill_in(tracer, index, wl, spec, grid)
    index = SpanIndex(tracer.spans)
    values = LayerMetrics(index, len(round_walls[True])).table()

    test_ds = fb.load_dataset(wl.test_file)
    inputs, labels = fb.fedavg.preprocess_dataset(test_ds, grid)
    theta, bn = nn.init_params(spec, wl.seed)
    values.update(kernel_timings(spec, theta, bn, inputs, labels))
    values["dataset.fbds_bytes_per_scene"] = os.path.getsize(wl.main_file) / wl.main_count

    untraced = statistics.median(round_walls[False])
    values["trace.overhead_pct"] = 100 * (statistics.median(round_walls[True]) - untraced) / untraced
    roots = [i for phase, i in commands.roots if phase == "rounds"]
    self_times, gap = index.module_self_times(roots)
    total = sum(self_times.values())
    for module in MODULES:
        values[f"selftime.{module}.pct"] = 100 * self_times.get(module, 0.0) / total
    values["_gap_s"] = gap
    return values
