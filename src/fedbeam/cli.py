"""Experiment runner: synth, train, eval and flops subcommands.

Configuration is a single versioned JSON document. Every subcommand
validates its inputs before writing any file, and two invocations with the
same config and seeds emit identical artifacts (rounds.csv wall-time column
aside). Exit codes: 0 success, 2 config error, 3 data error, 4 numeric
divergence.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import fedavg, nn
from .dataset import (
    SynthConfig,
    generate_synthetic,
    ingest_external,
    load_dataset,
    save_dataset,
)
from .errors import FedBeamError, NumericError
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


class ConfigError(Exception):
    """Invalid experiment config; message starts with the offending field path."""


@dataclass
class ExperimentConfig:
    dataset: dict
    grid: GridConfig
    architecture: dict | str
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


def _int(value, path, minimum=None):
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: must be an integer, got {value!r}") from None
    _require(minimum is None or n >= minimum, path, f"must be >= {minimum}")
    return n


def _object(raw, key):
    value = raw.get(key, {})
    _require(isinstance(value, dict), key, "must be an object")
    return dict(value)


def _path(value, path, test=os.path.exists, problem="path does not exist"):
    _require(isinstance(value, str), path, f"must be a path string, got {value!r}")
    _require(test(value), path, f"{problem}: {value}")


def _build_synth(synth):
    """SynthConfig from the dataset.synthetic object, lists as tuples."""
    kwargs = {k: tuple(v) if isinstance(v, list) else v
              for k, v in synth.items() if k not in ("n_train", "n_test")}
    try:
        return SynthConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"dataset.synthetic: {e}") from e


def load_experiment_config(path, seed_override=None):
    """Parse and fully validate an experiment config document."""
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

    ds = raw.get("dataset")
    _require(isinstance(ds, dict), "dataset", "must be an object")
    sources = [k for k in ("synthetic", "train_file", "train_ingest") if k in ds]
    _require(len(sources) == 1,
             "dataset", f"exactly one of synthetic/train_file/train_ingest required, got {sources}")
    if "synthetic" in ds:
        synth = ds["synthetic"]
        _require(isinstance(synth, dict), "dataset.synthetic", "must be an object")
        _require("n_train" in synth, "dataset.synthetic.n_train", "required")
        _int(synth["n_train"], "dataset.synthetic.n_train", 0)
        _int(synth.get("n_test", 0), "dataset.synthetic.n_test", 0)
        _build_synth(synth)
    if "train_file" in ds:
        for key in ("train_file", "test_file"):
            _require(key in ds, f"dataset.{key}", "required with train_file source")
            _path(ds[key], f"dataset.{key}")
    if "train_ingest" in ds:
        for key in ("train_ingest", "test_ingest"):
            _require(key in ds, f"dataset.{key}", "required with train_ingest source")
            entry = ds[key]
            _require(isinstance(entry, dict) and "directory" in entry,
                     f"dataset.{key}", "must be an object with a 'directory'")
            _path(entry["directory"], f"dataset.{key}.directory", os.path.isdir, "not a directory")
            if "spec" in entry:
                _path(entry["spec"], f"dataset.{key}.spec")

    grid_raw = raw.get("grid", "default")
    if grid_raw == "default":
        grid = default_grid()
    else:
        try:
            grid = GridConfig.from_dict(grid_raw)
        except (TypeError, KeyError, ValueError) as e:
            raise ConfigError(f"grid: {e}") from e

    arch = raw.get("architecture", "default")
    if arch != "default":
        try:
            nn.ArchitectureSpec.from_dict(arch)
        except (TypeError, KeyError, ValueError) as e:
            raise ConfigError(f"architecture: {e}") from e

    mode = raw.get("mode", "central")
    _require(mode in ("central", "federated"), "mode", f"must be central or federated, got {mode!r}")

    seed = _int(raw.get("seed", 0), "seed") if seed_override is None else int(seed_override)

    central_raw = _object(raw, "central")
    central_raw.setdefault("seed", seed)
    try:
        central = CentralTrainConfig(**central_raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"central: {e}") from e

    fed_raw = _object(raw, "federated")
    fed_raw.setdefault("partition_seed", seed + 10)
    fed_raw.setdefault("init_seed", seed + 11)
    fed_raw.setdefault("shuffle_seed", seed + 12)
    try:
        federated = FedConfig(**fed_raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"federated: {e}") from e

    k_max = _int(raw.get("k_max", 10), "k_max", 1)
    n_runs = _int(raw.get("n_runs", 1), "n_runs", 1)
    _require(not (n_runs > 1 and mode == "federated"),
             "n_runs", "multi-run confidence intervals are central-mode only")
    output_dir = raw.get("output_dir")
    _require(output_dir is None or isinstance(output_dir, str),
             "output_dir", f"must be a path string, got {output_dir!r}")

    return ExperimentConfig(
        dataset=ds, grid=grid, architecture=arch, mode=mode, central=central,
        federated=federated, k_max=k_max, n_runs=n_runs, seed=seed,
        output_dir=output_dir,
    )


def _resolve_out(cfg_out, flag_out, needed=True):
    out = flag_out or cfg_out
    if needed and not out:
        raise ConfigError("output_dir: required (set in config or pass --out)")
    if out and not os.path.isdir(out):
        raise ConfigError(f"output_dir: no such directory: {out}")
    return out


def _load_datasets(cfg):
    ds = cfg.dataset
    if "synthetic" in ds:
        synth = _build_synth(ds["synthetic"])
        try:
            train = generate_synthetic(synth, int(ds["synthetic"]["n_train"]), seed=cfg.seed)
            test = generate_synthetic(synth, int(ds["synthetic"].get("n_test", 0)), seed=cfg.seed + 1)
        except ValueError as e:
            raise ConfigError(f"dataset.synthetic: {e}") from e
        return train, test
    if "train_file" in ds:
        return load_dataset(ds["train_file"]), load_dataset(ds["test_file"])
    train = ingest_external(ds["train_ingest"]["directory"], ds["train_ingest"].get("spec"))
    test = ingest_external(ds["test_ingest"]["directory"], ds["test_ingest"].get("spec"))
    return train, test


def _resolve_spec(cfg, n_classes):
    if cfg.architecture == "default":
        return nn.default_architecture(input_shape=cfg.grid.shape, n_classes=n_classes)
    spec = nn.ArchitectureSpec.from_dict(cfg.architecture)
    if spec.input_shape != cfg.grid.shape:
        raise ConfigError(
            f"architecture.input_shape: {spec.input_shape} does not match grid {cfg.grid.shape}"
        )
    if spec.n_classes != n_classes:
        raise ConfigError(
            f"architecture.n_classes: {spec.n_classes} does not match dataset beam pairs {n_classes}"
        )
    return spec


def _label_entropy_bits(ds):
    if len(ds) == 0:
        return 0.0
    counts = np.bincount(ds.labels(), minlength=ds.meta.n_pairs)
    p = counts[counts > 0] / len(ds)
    return float(-(p * np.log2(p)).sum())


def cmd_synth(args):
    cfg = load_experiment_config(args.config, args.seed)
    _require("synthetic" in cfg.dataset, "dataset", "synth needs a synthetic dataset source")
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
    spec = _resolve_spec(cfg, train.meta.n_pairs)
    report_path, sweep_path, ckpt_path, rounds_path = _report_paths(out)
    # the test set is rasterized once, for every eval of this command
    test_tensors = fedavg.preprocess_dataset(test, cfg.grid)

    if cfg.mode == "central":
        theta, bn_state = train_centralized(cfg.central, spec, train, cfg.grid)
        report = evaluate(theta, bn_state, spec, test, cfg.grid, cfg.k_max, test_tensors)
        report.seeds = {"base": cfg.seed, "central": cfg.central.seed}
        if cfg.n_runs > 1:
            k = min(cfg.k_max, spec.n_classes)

            def one_run(seed):
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
        theta, bn_state, logs, probs = run_federated(cfg.federated, train, test, spec, cfg.grid, test_tensors)
        write_round_csv(logs, rounds_path)
        # the last round's eval already ran the final model over the test set
        report = evaluate(theta, bn_state, spec, test, cfg.grid, cfg.k_max, test_tensors, probs)
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
    if not os.path.exists(args.checkpoint):
        raise ConfigError(f"checkpoint: path does not exist: {args.checkpoint}")
    if not os.path.exists(args.dataset):
        raise ConfigError(f"dataset: path does not exist: {args.dataset}")
    out = _resolve_out(None, args.out)
    spec, theta, bn_state = nn.load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    if args.config:
        grid = load_experiment_config(args.config).grid
    else:
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


if __name__ == "__main__":
    sys.exit(main())
