import numpy as np
import pytest
from conftest import micro_world

from fedbeam.dataset import Dataset, Sample, partition_uniform
from fedbeam.fedavg import (
    ClientState,
    FedConfig,
    RoundLog,
    aggregate,
    client_rngs,
    local_round,
    preprocess_dataset,
    rounds_to_accuracy,
    run_federated,
    write_round_csv,
)
from fedbeam.nn import ArchitectureSpec, count_params, init_params, loss_and_grad, sgd_step


class TestFedConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FedConfig(vehicles=0)
        with pytest.raises(ValueError):
            FedConfig(batch_size=1)
        with pytest.raises(ValueError):
            FedConfig(server_lr=0.0)


class TestLocalRound:
    def test_zero_gradient_model_returns_zero_delta(self):
        # single-class head: softmax output is identically 1, loss 0, grad 0
        spec = ArchitectureSpec((2, 3), (), hidden=None, n_classes=1)
        theta, bn = init_params(spec, seed=0)
        inputs = np.random.default_rng(0).standard_normal((8, 1, 2, 3)).astype(np.float32)
        labels = np.zeros(8, dtype=int)
        client = ClientState(vid=0, indices=np.arange(8), rng=np.random.default_rng(1))
        cfg = FedConfig(vehicles=1, local_epochs=2, batch_size=4)
        delta = local_round(client, theta, bn, spec, inputs, labels, cfg)
        np.testing.assert_array_equal(delta, np.zeros_like(theta))

    def test_single_batch_is_one_sgd_step(self):
        _, grid, spec, train, _ = micro_world(n_train=8)
        inputs, labels = preprocess_dataset(train, grid)
        theta, bn = init_params(spec, seed=1)
        cfg = FedConfig(vehicles=1, local_epochs=1, batch_size=8, local_lr=0.2)
        client = ClientState(vid=0, indices=np.arange(8), rng=np.random.default_rng(3))
        delta = local_round(client, theta, bn.copy(), spec, inputs, labels, cfg)
        # |D_v| = batch: exactly one step at rho_0, so g = -rho_0 * grad
        order = np.random.default_rng(3).permutation(8)
        _, grad = loss_and_grad(spec, theta, bn.copy(), inputs[order], labels[order])
        np.testing.assert_array_equal(delta, sgd_step(theta, grad, 0.2) - theta)

    def test_bit_identical_reruns(self):
        _, grid, spec, train, _ = micro_world(n_train=12)
        inputs, labels = preprocess_dataset(train, grid)
        theta, bn = init_params(spec, seed=1)
        cfg = FedConfig(vehicles=1, local_epochs=3, batch_size=4)
        deltas = []
        for _ in range(2):
            client = ClientState(vid=0, indices=np.arange(12), rng=np.random.default_rng(9))
            deltas.append(local_round(client, theta, bn.copy(), spec, inputs, labels, cfg))
        np.testing.assert_array_equal(deltas[0], deltas[1])

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ClientState(vid=0, indices=np.array([], dtype=int))


class TestAggregate:
    def test_hand_arithmetic(self):
        out = aggregate(np.array([0.0]), [np.array([2.0]), np.array([4.0])], mu=0.5)
        np.testing.assert_allclose(out, [1.5])

    def test_zero_deltas_fixed_point(self):
        theta = np.array([1.0, 2.0])
        out = aggregate(theta, [np.zeros(2)] * 3, mu=0.7)
        np.testing.assert_array_equal(out, theta)

    def test_single_vehicle_full_rate_collapses(self):
        theta = np.array([1.0, -1.0])
        g = np.array([0.25, 0.5])
        np.testing.assert_array_equal(aggregate(theta, [g], mu=1.0), theta + g)

    def test_linear_in_each_delta_and_mu(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(5)
        g1, g2 = rng.standard_normal(5), rng.standard_normal(5)
        base = aggregate(theta, [g1, g2], mu=0.4) - theta
        scaled = aggregate(theta, [2.0 * g1, g2], mu=0.4) - theta
        np.testing.assert_allclose(scaled - base, 0.4 / 2 * g1, atol=1e-12)
        np.testing.assert_allclose(aggregate(theta, [g1, g2], mu=0.8) - theta, 2 * base, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate(np.zeros(3), [np.zeros(2)], mu=1.0)


class TestDegenerateEquivalence:
    def test_v1_matches_centralized_sgd(self):
        """V=1, mu=1, N_v=1 is plain mini-batch SGD with the same stream."""
        _, grid, spec, train, test = micro_world()
        cfg = FedConfig(vehicles=1, local_epochs=1, max_rounds=5, server_lr=1.0,
                        partition_seed=11, init_seed=12, shuffle_seed=13,
                        batch_size=8, accuracy_top_k=3)
        inputs, labels = preprocess_dataset(train, grid)

        # reference: one continuous SGD stream, reshuffled each epoch
        indices = partition_uniform(train, 1, cfg.partition_seed)[0]
        rng = client_rngs(cfg.shuffle_seed, 1)[0]
        theta_ref, bn_ref = init_params(spec, cfg.init_seed)
        step = 0
        per_round_ref = []
        for _ in range(cfg.max_rounds):
            order = rng.permutation(len(indices))
            for start in range(0, len(order), cfg.batch_size):
                idx = indices[order[start : start + cfg.batch_size]]
                _, grad = loss_and_grad(spec, theta_ref, bn_ref, inputs[idx], labels[idx])
                theta_ref = sgd_step(theta_ref, grad, cfg.local_lr * np.exp(-cfg.lr_decay * step))
                step += 1
            per_round_ref.append(theta_ref.copy())

        # federated path, driven round by round with the same components
        client = ClientState(vid=0, indices=indices, rng=client_rngs(cfg.shuffle_seed, 1)[0])
        theta_fed, bn_fed = init_params(spec, cfg.init_seed)
        for r in range(cfg.max_rounds):
            delta = local_round(client, theta_fed, bn_fed, spec, inputs, labels, cfg)
            theta_fed = aggregate(theta_fed, [delta], cfg.server_lr)
            bn_fed = client.bn_state
            np.testing.assert_allclose(theta_fed, per_round_ref[r], atol=1e-6,
                                       err_msg=f"trajectories diverged at round {r + 1}")

        theta_run, _, logs = run_federated(cfg, train, test, spec, grid)
        np.testing.assert_allclose(theta_run, theta_ref, atol=1e-6)
        assert len(logs) == cfg.max_rounds

    def test_equal_clients_match_single_client(self):
        """Identical partitions and streams make every delta equal, so the
        mu=1 average reproduces the single-vehicle update exactly."""
        _, grid, spec, train, _ = micro_world(n_train=24)
        inputs, labels = preprocess_dataset(train, grid)
        theta, bn = init_params(spec, seed=3)
        cfg = FedConfig(vehicles=5, local_epochs=1, batch_size=8, server_lr=1.0)
        indices = np.arange(24)
        deltas = []
        for v in range(5):
            client = ClientState(vid=v, indices=indices, rng=np.random.default_rng(77))
            deltas.append(local_round(client, theta, bn.copy(), spec, inputs, labels, cfg))
        for g in deltas[1:]:
            np.testing.assert_array_equal(deltas[0], g)
        solo = aggregate(theta, deltas[:1], mu=1.0)
        averaged = aggregate(theta, deltas, mu=1.0)
        np.testing.assert_allclose(averaged, solo, atol=1e-7)


class TestRunFederated:
    def test_deterministic_logs_and_theta(self):
        _, grid, spec, train, test = micro_world(n_train=30, n_test=8)
        cfg = FedConfig(vehicles=3, local_epochs=1, max_rounds=3, batch_size=8,
                        partition_seed=1, init_seed=2, shuffle_seed=3, accuracy_top_k=2)
        t1, _, logs1 = run_federated(cfg, train, test, spec, grid)
        t2, _, logs2 = run_federated(cfg, train, test, spec, grid)
        np.testing.assert_array_equal(t1, t2)
        for a, b in zip(logs1, logs2):
            assert (a.round_index, a.top1_accuracy, a.topk_accuracy, a.throughput_ratio,
                    a.o_ul, a.o_dl) == (b.round_index, b.top1_accuracy, b.topk_accuracy,
                                        b.throughput_ratio, b.o_ul, b.o_dl)

    def test_empty_test_set_rejected(self):
        _, grid, spec, train, test = micro_world(n_train=30, n_test=8)
        cfg = FedConfig(vehicles=3, max_rounds=1, batch_size=8, accuracy_top_k=2)
        with pytest.raises(ValueError, match="test dataset is empty"):
            run_federated(cfg, train, Dataset(meta=test.meta, samples=[]), spec, grid)

    def test_overhead_counters_exact(self):
        _, grid, spec, train, test = micro_world(n_train=40, n_test=8)
        n_params = count_params(spec)
        for vehicles, rounds in ((3, 4), (5, 2)):
            cfg = FedConfig(vehicles=vehicles, local_epochs=1, max_rounds=rounds,
                            batch_size=8, accuracy_top_k=2)
            _, _, logs = run_federated(cfg, train, test, spec, grid)
            assert logs[-1].o_dl == rounds * n_params
            assert logs[-1].o_ul == vehicles * rounds * n_params
            for n, entry in enumerate(logs, start=1):
                assert entry.o_dl == n * n_params
                assert entry.o_ul == vehicles * n * n_params

    def test_early_stop_on_target(self):
        _, grid, spec, train, test = micro_world(n_train=30, n_test=8)
        cfg = FedConfig(vehicles=2, local_epochs=1, max_rounds=10, batch_size=8,
                        target_accuracy=0.0, accuracy_top_k=spec.n_classes)
        _, _, logs = run_federated(cfg, train, test, spec, grid)
        assert len(logs) == 1  # top-(all classes) accuracy 1.0 > 0.0 after round 1

    def test_missing_powers_marks_ratio_unavailable(self, tmp_path):
        _, grid, spec, train, test = micro_world(n_train=30, n_test=6)
        stripped = Dataset(
            meta=test.meta,
            samples=[Sample(cloud=s.cloud, vehicle_pos=s.vehicle_pos, bs_pos=s.bs_pos,
                            label=s.label, powers=None) for s in test.samples],
        )
        cfg = FedConfig(vehicles=2, local_epochs=1, max_rounds=1, batch_size=8)
        _, _, logs = run_federated(cfg, train, stripped, spec, grid)
        assert logs[0].throughput_ratio is None
        path = tmp_path / "rounds.csv"
        write_round_csv(logs, path)
        assert "NA" in path.read_text().splitlines()[1]


class TestRoundsToAccuracy:
    def _logs(self, accs):
        return [RoundLog(round_index=i + 1, top1_accuracy=0.0, topk_accuracy=a,
                         throughput_ratio=None, o_ul=0, o_dl=0, wall_ms=0.0)
                for i, a in enumerate(accs)]

    def test_first_crossing(self):
        assert rounds_to_accuracy(self._logs([0.5, 0.89, 0.91]), 0.88) == 2

    def test_never_reached(self):
        assert rounds_to_accuracy(self._logs([0.5, 0.6, 0.7]), 0.88) is None

    def test_strictly_greater(self):
        assert rounds_to_accuracy(self._logs([0.88, 0.881]), 0.88) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rounds_to_accuracy([], 0.5)


class TestCsv:
    def test_columns_and_values(self, tmp_path):
        logs = [RoundLog(1, 0.5, 0.75, 0.9, 100, 20, 12.5)]
        path = tmp_path / "rounds.csv"
        write_round_csv(logs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,top1_acc,topK_acc,throughput_ratio,o_ul_float32,o_dl_float32,wall_ms"
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert float(fields[1]) == 0.5
        assert float(fields[3]) == 0.9
        assert fields[4] == "100"
