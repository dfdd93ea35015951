import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbeam import cli, evaluation, fedavg
from fedbeam.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from fedbeam.dataset import (
    Dataset,
    Sample,
    SynthConfig,
    export_exchange,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from fedbeam.errors import (
    FedBeamError,
    FormatError,
    IngestError,
    IntegrityError,
    MetricUnavailableError,
    NumericError,
)
from fedbeam.evaluation import CentralTrainConfig, evaluate, train_centralized
from fedbeam.nn import ArchitectureSpec, count_flops, count_params, default_architecture
from fedbeam.preprocess import GridConfig

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
GOLDEN_FBDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "synth_no_obstacles.fbds")
T975_2 = 4.302652729749462  # t_{0.975, 2} from SciPy 1.17.1
CONV = {"in_channels": 1, "out_channels": 1, "kernel": [1, 1], "stride": 1, "padding": 0}
INT_FIELDS = ["seed", "k_max", "n_runs", "dataset.synthetic.n_train", "dataset.synthetic.n_test"]


def micro_config(mode="central", n_train=40, n_test=12, **extra):
    cfg = {
        "version": 1,
        "dataset": {
            "synthetic": {
                "n_train": n_train,
                "n_test": n_test,
                "area": [0.0, 3.0, 0.0, 15.0],
                "obstacles": 2,
                "obstacle_size_x": [0.5, 1.0],
                "obstacle_size_y": [0.5, 2.0],
                "n_t": 4, "n_r": 2, "n_c": 4, "c_t": 4, "c_r": 2,
            }
        },
        "grid": {"x_min": 0.0, "x_max": 3.0, "y_min": 0.0, "y_max": 15.0,
                 "cells_x": 6, "cells_y": 30},
        "architecture": {
            "input_shape": [6, 30],
            "convs": [
                {"in_channels": 1, "out_channels": 2, "kernel": [3, 3], "stride": 2, "padding": 1},
                {"in_channels": 2, "out_channels": 2, "kernel": [3, 3], "stride": 2, "padding": 1},
            ],
            "hidden": 6,
            "n_classes": 8,
        },
        "mode": mode,
        "central": {"epochs": 2, "batch_size": 8},
        "federated": {"vehicles": 2, "local_epochs": 1, "max_rounds": 2,
                      "batch_size": 8, "accuracy_top_k": 3},
        "k_max": 4,
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def write_micro_set(path, n, c_r, powers=True, seed=0):
    """A micro-config synthetic set of n scenes with c_t * c_r = 4 * c_r beam
    pairs, saved with or without its beam powers."""
    synth = micro_config()["dataset"]["synthetic"]
    cfg = SynthConfig(**{k: tuple(v) if isinstance(v, list) else v
                         for k, v in synth.items() if k not in ("n_train", "n_test")} | {"c_r": c_r})
    ds = generate_synthetic(cfg, n, seed=seed)
    if not powers:
        ds = Dataset(meta=ds.meta, samples=[Sample(s.cloud, s.vehicle_pos, s.bs_pos, s.label, None)
                                            for s in ds.samples])
    save_dataset(ds, path)
    return str(path)


def forbidden(*args, **kwargs):
    raise AssertionError("reached")


class TestSynth:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, micro_config())
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "label entropy" in captured
        train = load_dataset(out / "train.fbds")
        test = load_dataset(out / "test.fbds")
        assert len(train) == 40
        assert len(test) == 12

    def test_empty_dataset_is_valid(self, tmp_path):
        cfg_path = write_config(tmp_path, micro_config(n_train=0, n_test=0))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert len(load_dataset(out / "train.fbds")) == 0
        assert not (out / "test.fbds").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, micro_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        assert main(["synth", "--config", cfg_path, "--out", str(out1)]) == EXIT_OK
        assert main(["synth", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "train.fbds").read_bytes() == (out2 / "train.fbds").read_bytes()
        assert (out1 / "test.fbds").read_bytes() == (out2 / "test.fbds").read_bytes()

    def test_missing_output_dir_names_path(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, micro_config())
        missing = str(tmp_path / "nope")
        assert main(["synth", "--config", cfg_path, "--out", missing]) == EXIT_CONFIG
        assert missing in capsys.readouterr().err


class TestTrain:
    def test_central_smoke_writes_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, micro_config())
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["k"] == [1, 2, 3, 4]
        assert all(a <= b for a, b in zip(report["accuracy"], report["accuracy"][1:]))
        assert (out / "model.fbnn").exists()
        assert (out / "sweep.csv").exists()

    def test_federated_smoke_writes_rounds_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, micro_config(mode="federated"))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        lines = (out / "rounds.csv").read_text().splitlines()
        assert lines[0].startswith("round,")
        assert len(lines) == 3  # header + 2 rounds

    def test_federated_last_round_matches_report(self, tmp_path):
        # k_max equals accuracy_top_k, so the last round and the final report
        # score the same model at the same K.
        cfg_path = write_config(tmp_path, micro_config(mode="federated", k_max=3))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        last = (out / "rounds.csv").read_text().splitlines()[-1].split(",")
        report = json.loads((out / "report.json").read_text())
        assert last[2] == f"{report['accuracy'][2]:.6f}"
        assert last[3] == f"{report['throughput_ratio'][2]:.6f}"

    @pytest.mark.parametrize("mode, extra, train_passes", [
        ("federated", {}, 1),
        ("central", {"n_runs": 2}, 2),  # the reported run, reused as confidence run 0, and run 1
    ])
    def test_test_set_rasterized_once(self, tmp_path, monkeypatch, mode, extra, train_passes):
        # the round evals, the final report and the confidence runs share one
        # rasterized test set (40 train and 12 test scenes)
        calls = []
        rasterize = fedavg.lidar_to_grid
        monkeypatch.setattr(fedavg, "lidar_to_grid", lambda s, g: calls.append(s) or rasterize(s, g))
        cfg_path = write_config(tmp_path, micro_config(mode=mode, **extra))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert len(calls) == 40 * train_passes + 12

    def test_federated_final_model_forwarded_once(self, tmp_path, monkeypatch):
        # the last round's eval hands its probabilities to the final report,
        # which still equals `fedbeam eval` of the checkpoint on the test file
        calls = []
        for module in (fedavg, evaluation):
            monkeypatch.setattr(module, "predict_proba",
                                lambda *a, predict=module.predict_proba: calls.append(a) or predict(*a))
        cfg = micro_config(mode="federated")
        data = tmp_path / "data"
        data.mkdir()
        assert main(["synth", "--config", write_config(tmp_path, cfg), "--out", str(data)]) == EXIT_OK
        cfg["dataset"] = {"train_file": str(data / "train.fbds"), "test_file": str(data / "test.fbds")}
        cfg_path = write_config(tmp_path, cfg, "files.json")
        out, eval_out = tmp_path / "out", tmp_path / "eval_out"
        out.mkdir()
        eval_out.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert len(calls) == cfg["federated"]["max_rounds"]
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"), "--dataset", str(data / "test.fbds"),
                     "--config", cfg_path, "--k-max", str(cfg["k_max"]), "--out", str(eval_out)]) == EXIT_OK
        train_report = json.loads((out / "report.json").read_text())
        eval_report = json.loads((eval_out / "report.json").read_text())
        assert train_report.pop("seeds") and not eval_report.pop("seeds")
        assert train_report == eval_report
        assert (out / "sweep.csv").read_bytes() == (eval_out / "sweep.csv").read_bytes()

    def test_central_n_runs_confidence_intervals(self, tmp_path):
        cfg = micro_config(n_runs=3)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        ci95 = json.loads((out / "report.json").read_text())["ci95"]
        assert sorted(ci95) == ["top4_accuracy", "top4_throughput_ratio"]

        # run i trains with seed base + i on the same files
        spec = ArchitectureSpec.from_dict(cfg["architecture"])
        grid = GridConfig.from_dict(cfg["grid"])
        train, test = load_dataset(out / "train.fbds"), load_dataset(out / "test.fbds")
        runs = []
        for seed in range(cfg["seed"], cfg["seed"] + 3):
            theta, bn = train_centralized(CentralTrainConfig(**cfg["central"], seed=seed),
                                          spec, train, grid)
            rep = evaluate(theta, bn, spec, test, grid, 4)
            runs.append((rep.accuracy_at(4), rep.throughput_at(4)))
        for name, values in zip(["top4_accuracy", "top4_throughput_ratio"], zip(*runs)):
            sd = np.std(values, ddof=1)
            assert sd > 0
            assert ci95[name]["mean"] == pytest.approx(np.mean(values), rel=1e-12)
            assert ci95[name]["half_width"] == pytest.approx(T975_2 * sd / np.sqrt(3), rel=1e-12)

    def test_identical_runs_identical_reports(self, tmp_path):
        cfg_path = write_config(tmp_path, micro_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out1)]) == EXIT_OK
        assert main(["train", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "model.fbnn").read_bytes() == (out2 / "model.fbnn").read_bytes()

    def test_invalid_config_field_exit_2(self, tmp_path, capsys):
        bad = micro_config()
        bad["dataset"]["synthetic"]["n_train"] = -5
        cfg_path = write_config(tmp_path, bad)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert "dataset.synthetic.n_train" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # validated before writing anything

    @pytest.mark.parametrize("path, value, field", [
        ("dataset.synthetic.n_train", None, "dataset.synthetic.n_train"),
        ("k_max", None, "k_max"),
        ("federated", [1], "federated"),
        ("dataset.synthetic.n_train", "abc", "dataset.synthetic.n_train"),
        ("seed", "x", "seed"),
        ("central", "x", "central"),
        ("federated.reset_schedule_each_round", True, "federated"),  # removed option
        ("dataset", {"train_file": None, "test_file": None}, "dataset.train_file"),
        ("dataset", {"train_file": 0, "test_file": 0}, "dataset.train_file"),  # not stdin
        ("dataset", {"train_ingest": {"directory": None}, "test_ingest": {"directory": None}},
         "dataset.train_ingest.directory"),
        ("dataset", {"train_ingest": {"directory": ".", "spec": None},
                     "test_ingest": {"directory": "."}}, "dataset.train_ingest.spec"),
        ("output_dir", [1], "output_dir"),
        ("federated.vehicles", 2.5, "federated"),  # was a raw TypeError in training
        ("federated.partition_seed", True, "federated"),
        ("federated.accuracy_top_k", 0, "federated"),  # was exit 3 after a whole round
        ("central.epochs", 1.5, "central"),  # was a raw TypeError in training
        ("central.seed", "3", "central"),
        ("federated.target_accuracy", "x", "federated"),  # was a raw TypeError after round 1
        ("federated.target_accuracy", True, "federated"),
        ("federated.target_accuracy", float("nan"), "federated"),
        ("architecture.input_shape", [math.inf, 30], "architecture"),  # was a raw OverflowError
        ("architecture.hidden", 2.5, "architecture"),
        ("architecture.n_classes", True, "architecture"),
        ("federated.lr_decay", "x", "federated"),  # was a raw TypeError
        ("federated.lr_decay", -0.5, "federated"),
        ("federated.server_lr", float("nan"), "federated"),  # trained, then exit 4
        ("federated.local_lr", math.inf, "federated"),
        ("federated.local_lr", True, "federated"),
        ("central.lr", float("nan"), "central"),  # trained, then exit 4
        ("central.lr", "0.1", "central"),
        ("central.lr_drop_factor", "x", "central"),  # was accepted
        ("central.lr_drop_factor", 0, "central"),
        ("grid.cells_x", 6.0, "grid"),  # was accepted (train: exit 3 from the input_shape)
        ("grid.cells_x", True, "grid"),  # was accepted
        ("grid.x_min", float("nan"), "grid"),  # was exit 3 from rasterization
        ("dataset.synthetic.n_train", 4.7, "dataset.synthetic.n_train"),  # wrote 4 scenes
        ("dataset.synthetic.n_train", True, "dataset.synthetic.n_train"),
        ("dataset.synthetic.n_train", "4", "dataset.synthetic.n_train"),
        ("seed", "3", "seed"),  # was read as 3
        ("seed", 2.9, "seed"),
        ("k_max", True, "k_max"),
        ("k_max", 10.9, "k_max"),
        ("n_runs", 1.9, "n_runs"),
    ])
    def test_mistyped_field_exit_2(self, tmp_path, capsys, path, value, field):
        bad = micro_config()
        *parents, key = path.split(".")
        node = bad
        for name in parents:
            node = node[name]
        node[key] = value
        cfg_path = write_config(tmp_path, bad)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert list(out.iterdir()) == []

    # magnitudes stay small, so a field that wrongly accepts a value only
    # generates a few scenes before the test fails
    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(INT_FIELDS), value=st.one_of(
        st.floats(-50, 50), st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(),
        st.integers(-2**70, -1), st.none(), st.integers(-50, 50).map(str),
        st.floats(-50, 50).map(str), st.lists(st.integers(0, 9), max_size=2)))
    def test_integer_field_rejects_non_integer(self, path, value):
        """Each integer field takes only a JSON integer at or above its
        minimum, and names itself when it gets anything else."""
        bad = micro_config()
        *parents, key = path.split(".")
        node = bad
        for name in parents:
            node = node[name]
        node[key] = value
        with tempfile.TemporaryDirectory() as d:
            cfg_path = os.path.join(d, "config.json")
            with open(cfg_path, "w") as f:
                json.dump(bad, f)
            out = os.path.join(d, "out")
            os.mkdir(out)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["synth", "--config", cfg_path, "--out", out]) == EXIT_CONFIG
            assert err.getvalue().startswith(f"error: {path}: ")
            assert os.listdir(out) == []

    def test_negative_seed_flag_names_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--config", write_config(tmp_path, micro_config()),
                     "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: seed: ")  # was "central: seed"
        assert list(out.iterdir()) == []

    def test_seed_bound_leaves_room_for_test_seed(self, tmp_path, capsys, monkeypatch):
        """The test set is generated with seed + 1, a u64 in .fbds: 2**64 - 1
        exits 2 naming seed before any scene is generated (it generated the
        whole train set, then named dataset.synthetic), and 2**64 - 2 runs."""
        calls = []
        generate = cli.generate_synthetic
        monkeypatch.setattr(cli, "generate_synthetic", lambda *a, **k: calls.append(k) or generate(*a, **k))
        out = tmp_path / "out"
        out.mkdir()
        cfg_path = write_config(tmp_path, micro_config(seed=2**64 - 1))
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: seed: ")
        assert calls == [] and list(out.iterdir()) == []
        cfg_path = write_config(tmp_path, micro_config(seed=2**64 - 2))
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert calls == [{"seed": 2**64 - 2}, {"seed": 2**64 - 1}]
        assert load_dataset(out / "test.fbds").meta.seed == 2**64 - 1

    @pytest.mark.parametrize("key, value", [
        ("max_retries", 0),  # was a raw RuntimeError from the retry loop
        ("obstacles", 2.5),  # was a raw TypeError from range()
        ("n_t", 2.0),  # was a raw TypeError from the codebook
        ("bs_pos", [1, 2]),  # was a raw IndexError
        ("obstacle_size_x", [3, 1]),  # was a data error from the RNG (exit 3)
        ("obstacle_size_x", [1]),  # was accepted
        ("c_t", 70000),  # was a data error from the .fbds meta block (exit 3)
        # one box covers the whole street, so every vehicle draw lands inside it;
        # was a raw RuntimeError from the retry loop
        ("max_retries", {"obstacles": 1, "obstacle_size_x": [3, 3], "obstacle_size_y": [15, 15]}),
        ("area", [-1e308, 1e308, 0, 100]),  # width overflows: was a raw OverflowError from the RNG
        ("area", [0, 10, -1e308, 1e308]),  # length overflows: likewise
        ("area", [0, 10**400, 0, 100]),  # was a raw OverflowError from the finiteness check
        # beyond float32, the type .fbds stores them as: each exited 2 only after
        # drawing scenes, as "cloud (or bs_pos) holds non-finite coordinates"
        ("area", [0, 1e39, 0, 100]),
        ("vehicle_height", 1e39),
        ("bs_pos", [-1e39, 50, 5]),
    ])
    def test_synthetic_value_exit_2(self, tmp_path, capsys, key, value):
        """value sets key, or is a dict of several fields whose error names key."""
        bad = micro_config()
        bad["dataset"]["synthetic"].update(value if isinstance(value, dict) else {key: value})
        cfg_path = write_config(tmp_path, bad)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: dataset.synthetic: {key} ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["subcarrier_spacing_hz", "los_gain", "reflection_gain",
                                     "reflection_falloff_m"])
    def test_removed_synthetic_field_exit_2(self, tmp_path, capsys, key):
        """The channel constants are not config fields: naming one is a
        config error (Python's message names the field at its end)."""
        bad = micro_config()
        bad["dataset"]["synthetic"][key] = 1.0
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "--config", write_config(tmp_path, bad), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: dataset.synthetic: ") and f"keyword argument '{key}'" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("mode", ["central", "federated"])
    def test_codebook_mismatch_exit_2_before_training(self, tmp_path, capsys, monkeypatch, mode):
        # an 8-pair training set with a 16-pair test set: was exit 0 without
        # test powers, and exit 3 after all the training with them
        monkeypatch.setattr(cli, "train_centralized", forbidden)
        monkeypatch.setattr(cli, "run_federated", forbidden)
        cfg = micro_config(mode)
        cfg["dataset"] = {"train_file": write_micro_set(tmp_path / "train.fbds", 20, 2),
                          "test_file": write_micro_set(tmp_path / "test.fbds", 6, 4, seed=1)}
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "error: dataset: test set codebook (c_t, c_r) = (4, 4) does not match the training set's (4, 2)")
        assert list(out.iterdir()) == []

    def test_mistyped_exchange_meta_exit_3(self, tmp_path, capsys):
        exch = tmp_path / "exch"
        export_exchange(load_dataset(GOLDEN_FBDS), exch)
        meta = json.loads((exch / "meta.json").read_text())
        meta["seed"] = "x"  # was a raw TypeError from DatasetMeta
        (exch / "meta.json").write_text(json.dumps(meta))
        cfg = micro_config()
        cfg["dataset"] = {"train_ingest": {"directory": str(exch)},
                          "test_ingest": {"directory": str(exch)}}
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_DATA
        assert "meta.json: seed must be an integer" in capsys.readouterr().err

    def test_architecture_grid_mismatch_exit_2(self, tmp_path, capsys):
        bad = micro_config()
        bad["architecture"]["input_shape"] = [10, 10]
        cfg_path = write_config(tmp_path, bad)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert "input_shape" in capsys.readouterr().err

    def test_unknown_mode_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path, micro_config(mode="hybrid"))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG


class TestEval:
    def _train(self, tmp_path):
        cfg_path = write_config(tmp_path, micro_config())
        out = tmp_path / "train_out"
        out.mkdir()
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        return cfg_path, out

    def test_matches_training_report(self, tmp_path):
        cfg_path, out = self._train(tmp_path)
        eval_out = tmp_path / "eval_out"
        eval_out.mkdir()
        code = main(["eval", "--checkpoint", str(out / "model.fbnn"),
                     "--dataset", str(out / "test.fbds"),
                     "--k-max", "4", "--out", str(eval_out)])
        assert code == EXIT_OK
        assert (eval_out / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()
        train_report = json.loads((out / "report.json").read_text())
        eval_report = json.loads((eval_out / "report.json").read_text())
        assert eval_report["accuracy"] == train_report["accuracy"]
        assert eval_report["throughput_ratio"] == train_report["throughput_ratio"]

    def test_k_max_one_single_row(self, tmp_path):
        cfg_path, out = self._train(tmp_path)
        eval_out = tmp_path / "eval_out"
        eval_out.mkdir()
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"),
                     "--dataset", str(out / "test.fbds"),
                     "--k-max", "1", "--out", str(eval_out)]) == EXIT_OK
        lines = (eval_out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_dataset_without_powers_reports_na(self, tmp_path, capsys):
        cfg_path, out = self._train(tmp_path)
        test = load_dataset(out / "test.fbds")
        stripped = Dataset(
            meta=test.meta,
            samples=[Sample(cloud=s.cloud, vehicle_pos=s.vehicle_pos, bs_pos=s.bs_pos,
                            label=s.label, powers=None) for s in test.samples],
        )
        bare = tmp_path / "bare.fbds"
        save_dataset(stripped, bare)
        eval_out = tmp_path / "eval_out"
        eval_out.mkdir()
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"),
                     "--dataset", str(bare), "--k-max", "4",
                     "--out", str(eval_out)]) == EXIT_OK
        assert "NA" in capsys.readouterr().out
        assert ",NA" in (eval_out / "sweep.csv").read_text()

    def test_workers_flag_is_unknown(self, tmp_path, capsys):
        cfg_path, out = self._train(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(out / "model.fbnn"),
                  "--dataset", str(out / "test.fbds"), "--out", str(out), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_k_max_below_one_exit_2_before_reading(self, tmp_path, capsys, k_max):
        # unreadable files: reaching either would exit 3 (was exit 3 after the forward pass)
        (tmp_path / "model.fbnn").write_bytes(b"garbage")
        (tmp_path / "test.fbds").write_bytes(b"garbage")
        assert main(["eval", "--checkpoint", str(tmp_path / "model.fbnn"),
                     "--dataset", str(tmp_path / "test.fbds"), "--k-max", k_max,
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: k_max: ")

    def test_wrong_checkpoint_path_exit_2(self, tmp_path):
        cfg_path, out = self._train(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path / "none.fbnn"),
                     "--dataset", str(out / "test.fbds"),
                     "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize("spec", [
        [],
        {"input_shape": None, "convs": [], "hidden": None, "n_classes": 5},
        {"input_shape": [2, 5], "convs": 5, "hidden": None, "n_classes": 5},
        # non-integer fields; an infinite one was a raw OverflowError from int()
        {"input_shape": [math.inf, 5], "convs": [], "hidden": None, "n_classes": 5},
        {"input_shape": [2, 5], "convs": [], "hidden": 2.5, "n_classes": 5},
        {"input_shape": [2, 5], "convs": [], "hidden": None, "n_classes": math.inf},
        {"input_shape": [2, 5], "convs": [CONV | {"kernel": [1, math.inf]}], "hidden": None, "n_classes": 5},
        {"input_shape": [2, 5], "convs": [CONV | {"out_channels": 1.0}], "hidden": None, "n_classes": 5},
        {"input_shape": [2, 5], "convs": [CONV | {"stride": True}], "hidden": None, "n_classes": 5},
        {"input_shape": [2, 5], "convs": [CONV | {"padding": "0"}], "hidden": None, "n_classes": 5},
    ])
    def test_malformed_checkpoint_spec_exit_3(self, tmp_path, capsys, spec):
        text = json.dumps(spec).encode()
        ckpt = tmp_path / "model.fbnn"
        ckpt.write_bytes(b"FBNN" + struct.pack("<II", 1, len(text)) + text)
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", GOLDEN_FBDS,
                     "--out", str(tmp_path)]) == EXIT_DATA
        assert "checkpoint spec JSON is invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("powers", [True, False])
    def test_class_count_mismatch_exit_3_before_forward(self, tmp_path, capsys, monkeypatch, powers):
        # an 8-class checkpoint on a 16-pair set: was exit 0 with top-K
        # accuracy 0.0 without powers, and exit 3 after the forward pass with them
        cfg_path, out = self._train(tmp_path)
        monkeypatch.setattr(evaluation, "preprocess_dataset", forbidden)
        monkeypatch.setattr(evaluation, "predict_proba", forbidden)
        eval_out = tmp_path / "eval_out"
        eval_out.mkdir()
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"),
                     "--dataset", write_micro_set(tmp_path / "wide.fbds", 6, 4, powers),
                     "--out", str(eval_out)]) == EXIT_DATA
        assert "model has 8 classes, dataset has 16 beam pairs" in capsys.readouterr().err
        assert list(eval_out.iterdir()) == []

    def test_config_supplies_only_the_grid(self, tmp_path):
        # training files that no longer exist: was exit 2 naming dataset.train_file
        cfg_path, out = self._train(tmp_path)
        cfg = micro_config()
        cfg["dataset"] = {"train_file": str(tmp_path / "gone.fbds"), "test_file": str(tmp_path / "gone.fbds")}
        eval_out = tmp_path / "eval_out"
        eval_out.mkdir()
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"), "--dataset", str(out / "test.fbds"),
                     "--k-max", "4", "--config", write_config(tmp_path, cfg, "eval.json"),
                     "--out", str(eval_out)]) == EXIT_OK
        assert (eval_out / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("grid, version", [({"cells_x": 6}, 1), ("default", 2)])
    def test_config_bad_grid_or_version_exit_2(self, tmp_path, capsys, grid, version):
        cfg_path, out = self._train(tmp_path)
        cfg = micro_config(version=version, grid=grid)
        eval_out = tmp_path / "eval_out"
        eval_out.mkdir()
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"), "--dataset", str(out / "test.fbds"),
                     "--config", write_config(tmp_path, cfg, "eval.json"),
                     "--out", str(eval_out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: grid: " if version == 1 else "error: version: ")
        assert list(eval_out.iterdir()) == []

    def test_config_grid_shape_mismatch_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        # a 6x30 checkpoint with a 3x15 grid: was a whole rasterization, then
        # exit 3 from nn.forward naming neither the grid nor the checkpoint
        cfg_path, out = self._train(tmp_path)
        grid = {"x_min": 0, "x_max": 3, "y_min": 0, "y_max": 15, "cells_x": 3, "cells_y": 15}
        monkeypatch.setattr(cli, "load_dataset", forbidden)
        eval_out = tmp_path / "eval_out"
        eval_out.mkdir()
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"), "--dataset", str(out / "test.fbds"),
                     "--config", write_config(tmp_path, micro_config(grid=grid), "eval.json"),
                     "--out", str(eval_out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: grid: (3, 15) does not match the checkpoint's input_shape (6, 30)\n")
        assert list(eval_out.iterdir()) == []

    def test_corrupt_dataset_exit_3(self, tmp_path):
        cfg_path, out = self._train(tmp_path)
        bad = tmp_path / "bad.fbds"
        bad.write_bytes(b"FBDSgarbage")
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"),
                     "--dataset", str(bad), "--out", str(out)]) == EXIT_DATA


EXIT_CASES = [(FormatError, 3), (IntegrityError, 3), (IngestError, 3), (MetricUnavailableError, 3),
              (NumericError, 4), (cli.ConfigError, 2), (ValueError, 3), (OSError, 3), (MemoryError, 3)]


class TestExitCodes:
    @pytest.mark.parametrize("error, code", EXIT_CASES, ids=[e.__name__ for e, _ in EXIT_CASES])
    def test_error_maps_to_documented_exit_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_flops", fail)
        assert main(["flops"]) == code
        assert capsys.readouterr().err.startswith("error: ")

    def test_every_package_error_is_covered(self):
        def subclasses(cls):
            return {c for s in cls.__subclasses__() for c in (s, *subclasses(s))}

        assert subclasses(FedBeamError) <= {e for e, _ in EXIT_CASES}


def _rounds_without_wall(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


class TestCpuCount:
    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs at least 2 CPUs in the affinity mask")
    def test_one_cpu_and_every_cpu_give_identical_artifacts(self, tmp_path):
        """A federated run pinned to one CPU (its vehicles and eval batches
        then run one after another) writes the same artifacts as one on
        every CPU."""
        cfg = micro_config(mode="federated", n_test=40)
        cfg["federated"]["vehicles"] = 3
        cfg_path = write_config(tmp_path, cfg)
        one, every = tmp_path / "one", tmp_path / "every"
        one.mkdir()
        every.mkdir()
        code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "from fedbeam.cli import main; sys.exit(main(sys.argv[1:]))")
        result = subprocess.run([sys.executable, "-c", code, "train", "--config", cfg_path, "--out", str(one)],
                                env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr
        assert main(["train", "--config", cfg_path, "--out", str(every)]) == EXIT_OK
        for name in ("model.fbnn", "report.json", "sweep.csv"):
            assert (one / name).read_bytes() == (every / name).read_bytes(), name
        assert _rounds_without_wall(one / "rounds.csv") == _rounds_without_wall(every / "rounds.csv")


class TestNumpyOnly:
    def test_cli_runs_without_scipy(self):
        code = ("import sys; sys.modules['scipy'] = None; import fedbeam, fedbeam.cli; "
                "sys.exit(fedbeam.cli.main(['flops']))")
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "parameters:" in result.stdout


class TestFlops:
    def test_default_prints_counts_and_references(self, capsys):
        assert main(["flops"]) == EXIT_OK
        out = capsys.readouterr().out
        spec = default_architecture()
        assert str(count_params(spec)) in out
        assert str(count_flops(spec)) in out
        assert "7462" in out
        assert "1.72e+06" in out

    def test_micro_spec_counts(self, tmp_path, capsys):
        spec = {"input_shape": [2, 5], "convs": [], "hidden": None, "n_classes": 5}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["flops", "--spec", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "parameters: 55" in out
        assert "flops:      100" in out

    def test_overflowing_spec_field_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"input_shape": [1e400, 5], "convs": [], "hidden": null, "n_classes": 5}')
        assert main(["flops", "--spec", str(path)]) == EXIT_CONFIG
        assert "input_shape must be an integer" in capsys.readouterr().err

    def test_invalid_spec_json_exit_2(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        assert main(["flops", "--spec", str(path)]) == EXIT_CONFIG
