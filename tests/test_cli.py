import json

import pytest

from fedbeam.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from fedbeam.dataset import Dataset, Sample, load_dataset
from fedbeam.nn import count_flops, count_params, default_architecture


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
        from fedbeam.dataset import save_dataset

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

    def test_wrong_checkpoint_path_exit_2(self, tmp_path):
        cfg_path, out = self._train(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path / "none.fbnn"),
                     "--dataset", str(out / "test.fbds"),
                     "--out", str(out)]) == EXIT_CONFIG

    def test_corrupt_dataset_exit_3(self, tmp_path):
        cfg_path, out = self._train(tmp_path)
        bad = tmp_path / "bad.fbds"
        bad.write_bytes(b"FBDSgarbage")
        assert main(["eval", "--checkpoint", str(out / "model.fbnn"),
                     "--dataset", str(bad), "--out", str(out)]) == EXIT_DATA


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

    def test_invalid_spec_json_exit_2(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        assert main(["flops", "--spec", str(path)]) == EXIT_CONFIG
