"""Experiment runner: synth, train, eval and flops subcommands.

Configuration is a single versioned JSON document, parsed once into the
objects the commands run on. Every subcommand validates its inputs before
writing any file, and two invocations with the same config and seeds emit
identical artifacts (rounds.csv wall-time column aside). Exit codes: 0
success, 2 config error, 3 data error or out of memory, 4 numeric
divergence.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import fedavg, nn
from .dataset import (
    SynthConfig,
    generate_synthetic,
    ingest_external,
    load_dataset,
    save_dataset,
)
from .errors import FedBeamError, NumericError, require_int, require_keys
from .evaluation import (
    REFERENCE_RESULTS,
    CentralTrainConfig,
    evaluate,
    monte_carlo,
    train_centralized,
)
from .fedavg import FedConfig, run_federated, write_round_csv
from .preprocess import GridConfig, default_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

CONFIG_VERSION = 1
CONFIG_KEYS = ("version", "dataset", "grid", "architecture", "mode", "seed", "central", "federated",
               "k_max", "n_runs", "output_dir")


class ConfigError(Exception):
    """Invalid experiment config; message starts with the offending field path."""


class DataSource(NamedTuple):
    """The dataset key (synthetic, train_file or train_ingest) and the loader
    arguments of each set: SynthConfig and count, path, or directory and spec."""

    kind: str
    train: tuple
    test: tuple


@dataclass
class ExperimentConfig:
    dataset: DataSource
    grid: GridConfig
    architecture: nn.ArchitectureSpec | None  # None: the default, sized by grid and data
    mode: str
    central: CentralTrainConfig
    federated: FedConfig
    k_max: int
    n_runs: int
    seed: int
    output_dir: str | None


def _require(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


@contextmanager
def _field(path):
    """Turn a ValueError, TypeError or KeyError raised while building the
    value at path into a ConfigError that names path."""
    try:
        yield
    except (TypeError, KeyError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def _object(raw, key):
    value = raw.get(key, {})
    _require(isinstance(value, dict), key, "must be an object")
    return dict(value)


def _path(value, path, test=os.path.exists, problem="path does not exist"):
    _require(isinstance(value, str), path, f"must be a path string, got {value!r}")
    _require(test(value), path, f"{problem}: {value}")


def _parse_dataset(ds):
    """DataSource of the dataset section, its files checked to exist."""
    _require(isinstance(ds, dict), "dataset", "must be an object")
    sources = [k for k in ("synthetic", "train_file", "train_ingest") if k in ds]
    _require(len(sources) == 1,
             "dataset", f"exactly one of synthetic/train_file/train_ingest required, got {sources}")
    kind = sources[0]
    with _field("dataset"):
        require_keys(ds, (kind,) if kind == "synthetic" else (kind, kind.replace("train", "test")))
    if kind == "synthetic":
        synth = ds["synthetic"]
        _require(isinstance(synth, dict), "dataset.synthetic", "must be an object")
        _require("n_train" in synth, "dataset.synthetic.n_train", "required")
        counts = synth["n_train"], synth.get("n_test", 0)
        for name, n in zip(("n_train", "n_test"), counts):
            with _field(f"dataset.synthetic.{name}"):
                require_int(name, n, 0)
        with _field("dataset.synthetic"):  # JSON lists become tuples
            config = SynthConfig(**{k: tuple(v) if isinstance(v, list) else v
                                    for k, v in synth.items() if k not in ("n_train", "n_test")})
        return DataSource(kind, (config, counts[0]), (config, counts[1]))
    pair = []
    for key in (kind, kind.replace("train", "test")):
        _require(key in ds, f"dataset.{key}", f"required with {kind} source")
        entry = ds[key]
        if kind == "train_file":
            _path(entry, f"dataset.{key}")
            pair.append((entry,))
            continue
        _require(isinstance(entry, dict) and "directory" in entry,
                 f"dataset.{key}", "must be an object with a 'directory'")
        with _field(f"dataset.{key}"):
            require_keys(entry, ("directory", "spec"))
        _path(entry["directory"], f"dataset.{key}.directory", os.path.isdir, "not a directory")
        if "spec" in entry:
            _path(entry["spec"], f"dataset.{key}.spec")
        pair.append((entry["directory"], entry.get("spec")))
    return DataSource(kind, *pair)


def _read_config(path):
    """The config document's top-level object, its version checked."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON in {path}: {e}") from e

    _require(isinstance(raw, dict), "config", "top level must be an object")
    _require(raw.get("version") == CONFIG_VERSION,
             "version", f"must be {CONFIG_VERSION}, got {raw.get('version')!r}")
    return raw


def _parse_grid(raw):
    grid_raw = raw.get("grid", "default")
    with _field("grid"):
        return default_grid() if grid_raw == "default" else GridConfig.from_dict(grid_raw)


def load_experiment_config(path, seed_override=None):
    """Parse and fully validate an experiment config document."""
    raw = _read_config(path)
    with _field("config"):
        require_keys(raw, CONFIG_KEYS)
    dataset = _parse_dataset(raw.get("dataset"))
    grid = _parse_grid(raw)
    arch = raw.get("architecture", "default")
    with _field("architecture"):
        spec = None if arch == "default" else nn.ArchitectureSpec.from_dict(arch)

    mode = raw.get("mode", "central")
    _require(mode in ("central", "federated"), "mode", f"must be central or federated, got {mode!r}")

    seed = raw.get("seed", 0) if seed_override is None else seed_override
    with _field("seed"):
        # the test set is generated with seed + 1, stored as a u64
        require_int("seed", seed, 0, 0xFFFFFFFFFFFFFFFF - 1)

    central_raw = _object(raw, "central")
    central_raw.setdefault("seed", seed)
    with _field("central"):
        central = CentralTrainConfig(**central_raw)

    fed_raw = _object(raw, "federated")
    fed_raw.setdefault("partition_seed", seed + 10)
    fed_raw.setdefault("init_seed", seed + 11)
    fed_raw.setdefault("shuffle_seed", seed + 12)
    with _field("federated"):
        federated = FedConfig(**fed_raw)

    k_max, n_runs = raw.get("k_max", 10), raw.get("n_runs", 1)
    for name, value in (("k_max", k_max), ("n_runs", n_runs)):
        with _field(name):
            require_int(name, value, 1)
    _require(not (n_runs > 1 and mode == "federated"),
             "n_runs", "multi-run confidence intervals are central-mode only")
    output_dir = raw.get("output_dir")
    _require(output_dir is None or isinstance(output_dir, str),
             "output_dir", f"must be a path string, got {output_dir!r}")

    return ExperimentConfig(
        dataset=dataset, grid=grid, architecture=spec, mode=mode, central=central,
        federated=federated, k_max=k_max, n_runs=n_runs, seed=seed,
        output_dir=output_dir,
    )


def _resolve_out(cfg_out, flag_out):
    out = flag_out or cfg_out
    _require(out, "output_dir", "required (set in config or pass --out)")
    _require(os.path.isdir(out), "output_dir", f"no such directory: {out}")
    return out


def _load_datasets(cfg):
    kind, train, test = cfg.dataset
    if kind == "synthetic":
        with _field("dataset.synthetic"):
            return (generate_synthetic(*train, seed=cfg.seed),
                    generate_synthetic(*test, seed=cfg.seed + 1))
    if kind == "train_file":
        return load_dataset(*train), load_dataset(*test)
    return ingest_external(*train), ingest_external(*test)


def _resolve_spec(cfg, n_classes):
    spec = cfg.architecture
    if spec is None:
        return nn.default_architecture(input_shape=cfg.grid.shape, n_classes=n_classes)
    _require(spec.input_shape == cfg.grid.shape, "architecture.input_shape",
             f"{spec.input_shape} does not match grid {cfg.grid.shape}")
    _require(spec.n_classes == n_classes, "architecture.n_classes",
             f"{spec.n_classes} does not match dataset beam pairs {n_classes}")
    return spec


def _label_entropy_bits(ds):
    if len(ds) == 0:
        return 0.0
    counts = np.bincount(ds.labels(), minlength=ds.meta.n_pairs)
    p = counts[counts > 0] / len(ds)
    return float(-(p * np.log2(p)).sum())


def cmd_synth(args):
    cfg = load_experiment_config(args.config, args.seed)
    _require(cfg.dataset.kind == "synthetic", "dataset", "synth needs a synthetic dataset source")
    out = _resolve_out(cfg.output_dir, args.out)
    train, test = _load_datasets(cfg)
    train_path = os.path.join(out, "train.fbds")
    save_dataset(train, train_path)
    print(f"wrote {train_path}: {len(train)} samples, "
          f"label entropy {_label_entropy_bits(train):.3f} bits")
    if len(test):
        test_path = os.path.join(out, "test.fbds")
        save_dataset(test, test_path)
        print(f"wrote {test_path}: {len(test)} samples, "
              f"label entropy {_label_entropy_bits(test):.3f} bits")
    return EXIT_OK


def _report_paths(out):
    return (os.path.join(out, "report.json"), os.path.join(out, "sweep.csv"),
            os.path.join(out, "model.fbnn"), os.path.join(out, "rounds.csv"))


def cmd_train(args):
    cfg = load_experiment_config(args.config, args.seed)
    out = _resolve_out(cfg.output_dir, args.out)
    train, test = _load_datasets(cfg)
    if len(train) == 0:
        raise ConfigError("dataset: training set is empty")
    if len(test) == 0:
        raise ConfigError("dataset: test set is empty (needed for evaluation)")
    codebooks = [(ds.meta.c_t, ds.meta.c_r) for ds in (train, test)]
    if codebooks[0] != codebooks[1]:
        raise ConfigError(f"dataset: test set codebook (c_t, c_r) = {codebooks[1]} "
                          f"does not match the training set's {codebooks[0]}")
    spec = _resolve_spec(cfg, train.meta.n_pairs)
    report_path, sweep_path, ckpt_path, rounds_path = _report_paths(out)

    if cfg.mode == "central":
        # the test set is rasterized once, for the report and every confidence run
        test_tensors = fedavg.preprocess_dataset(test, cfg.grid)
        theta, bn_state = train_centralized(cfg.central, spec, train, cfg.grid)
        report = evaluate(theta, bn_state, spec, test, cfg.grid, cfg.k_max, test_tensors)
        report.seeds = {"base": cfg.seed, "central": cfg.central.seed}
        if cfg.n_runs > 1:
            k = min(cfg.k_max, spec.n_classes)

            def one_run(seed):
                rep = report  # the reported run, when it trained this seed
                if seed != cfg.central.seed:
                    t, b = train_centralized(replace(cfg.central, seed=seed), spec, train, cfg.grid)
                    rep = evaluate(t, b, spec, test, cfg.grid, cfg.k_max, test_tensors)
                metrics = {f"top{k}_accuracy": rep.accuracy_at(k)}
                if rep.throughput is not None:
                    metrics[f"top{k}_throughput_ratio"] = rep.throughput_at(k)
                return metrics

            report.ci95 = {
                name: {"mean": mean, "half_width": half}
                for name, (mean, half) in monte_carlo(
                    one_run, n_runs=cfg.n_runs, base_seed=cfg.seed
                ).items()
            }
    else:
        theta, bn_state, logs, probs = run_federated(cfg.federated, train, test, spec, cfg.grid)
        write_round_csv(logs, rounds_path)
        # the last round's eval already ran the final model over the test set
        report = evaluate(theta, bn_state, spec, test, cfg.grid, cfg.k_max, probs=probs)
        report.seeds = {
            "base": cfg.seed,
            "partition": cfg.federated.partition_seed,
            "init": cfg.federated.init_seed,
            "shuffle": cfg.federated.shuffle_seed,
        }
        print(f"federated: {len(logs)} rounds, final top-K accuracy "
              f"{logs[-1].topk_accuracy:.4f}, O_DL {logs[-1].o_dl}, O_UL {logs[-1].o_ul}")

    nn.save_checkpoint(spec, theta, bn_state, ckpt_path)
    report.to_json(report_path)
    report.write_sweep_csv(sweep_path)
    print(f"wrote {ckpt_path}, {report_path}, {sweep_path}")
    return EXIT_OK


def _grid_for(meta, spec):
    """Reconstruct the rasterization grid from dataset bounds + model input."""
    x_min, x_max, y_min, y_max = meta.area
    try:
        return GridConfig(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max,
                          cells_x=spec.input_shape[0], cells_y=spec.input_shape[1])
    except ValueError as e:
        raise ConfigError(
            f"grid: cannot infer a square-cell grid from dataset area {meta.area} and "
            f"model input {spec.input_shape} ({e}); pass --config with an explicit grid"
        ) from e


def cmd_eval(args):
    with _field("k_max"):
        require_int("k_max", args.k_max, 1)
    _path(args.checkpoint, "checkpoint")
    _path(args.dataset, "dataset")
    out = _resolve_out(None, args.out)
    spec, theta, bn_state = nn.load_checkpoint(args.checkpoint)
    if args.config:  # only the grid is read, and checked before any data
        grid = _parse_grid(_read_config(args.config))
        _require(grid.shape == spec.input_shape, "grid",
                 f"{grid.shape} does not match the checkpoint's input_shape {spec.input_shape}")
    ds = load_dataset(args.dataset)
    if not args.config:
        grid = _grid_for(ds.meta, spec)
    report = evaluate(theta, bn_state, spec, ds, grid, args.k_max)
    report.to_json(os.path.join(out, "report.json"))
    report.write_sweep_csv(os.path.join(out, "sweep.csv"))
    k = int(report.k_values[-1])
    ratio = report.throughput_at(k)
    print(f"evaluated {len(ds)} samples: top-{k} accuracy {report.accuracy_at(k):.4f}, "
          f"throughput ratio {'NA' if ratio is None else f'{ratio:.4f}'}")
    return EXIT_OK


def cmd_flops(args):
    if args.spec:
        try:
            with open(args.spec) as f:
                spec = nn.ArchitectureSpec.from_dict(json.load(f))
        except OSError as e:
            raise ConfigError(f"spec: cannot read {args.spec}: {e}") from e
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"spec: invalid architecture JSON: {e}") from e
    else:
        spec = nn.default_architecture()
    params = nn.count_params(spec)
    flops = nn.count_flops(spec)
    ref = REFERENCE_RESULTS["compact_2d"]
    base = REFERENCE_RESULTS["baseline_3d"]
    print(f"parameters: {params}")
    print(f"flops:      {flops}")
    print(f"reference compact design: {ref['params']} parameters, {ref['flops']:.3g} flops")
    print(f"reference 3d baseline:    {base['params']} parameters, {base['flops']:.4g} flops")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedbeam",
        description="LIDAR-aided beam selection experiments (synthetic scenes, "
                    "centralized or federated training, beam-search metrics)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="experiment config JSON")
        p.add_argument("--out", help="output directory (must exist)")
        p.add_argument("--seed", type=int, help="override the config base seed")

    p_synth = sub.add_parser("synth", help="generate and save a synthetic dataset")
    common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train centrally or federated, then evaluate")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--k-max", type=int, default=10)
    p_eval.add_argument("--config", help="optional config supplying the grid")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_flops = sub.add_parser("flops", help="print parameter and FLOP counts")
    p_flops.add_argument("--spec", help="architecture JSON (default architecture if omitted)")
    p_flops.set_defaults(func=cmd_flops)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as e:
        print(f"error: numeric divergence: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FedBeamError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
