import inspect
import logging

import numpy as np
import pytest
from conftest import micro_world

from fedbeam.dataset import Dataset, Sample, SynthConfig, generate_synthetic
from fedbeam.errors import NumericError
from fedbeam.evaluation import (
    REFERENCE_RESULTS,
    CentralTrainConfig,
    _t975,
    evaluate,
    monte_carlo,
    train_centralized,
)
from fedbeam.fedavg import preprocess_dataset
from fedbeam.nn import AdamState, ArchitectureSpec, ConvSpec, adam_step, init_params, loss_and_grad
from fedbeam.preprocess import GridConfig


class TestCentralTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CentralTrainConfig(epochs=0)
        with pytest.raises(ValueError):
            CentralTrainConfig(batch_size=1)


class TestTrainCentralized:
    def test_empty_dataset_rejected(self):
        _, grid, spec, train, _ = micro_world(n_train=4)
        empty = Dataset(meta=train.meta, samples=[])
        with pytest.raises(ValueError, match="empty"):
            train_centralized(CentralTrainConfig(epochs=1), spec, empty, grid)

    def test_beats_uniform_loss(self):
        _, grid, spec, train, _ = micro_world(n_train=64)
        cfg = CentralTrainConfig(epochs=5, batch_size=16, lr=1e-3, lr_drop_epoch=3, seed=0)
        theta, bn = train_centralized(cfg, spec, train, grid)
        from fedbeam.fedavg import predict_proba, preprocess_dataset

        inputs, labels = preprocess_dataset(train, grid)
        probs = predict_proba(spec, theta, bn, inputs)
        loss = -np.mean(np.log(probs[np.arange(len(labels)), labels]))
        assert loss < np.log(spec.n_classes)

    def test_deterministic_per_seed(self):
        _, grid, spec, train, _ = micro_world(n_train=24)
        cfg = CentralTrainConfig(epochs=2, batch_size=8, seed=7)
        t1, _ = train_centralized(cfg, spec, train, grid)
        t2, _ = train_centralized(cfg, spec, train, grid)
        np.testing.assert_array_equal(t1, t2)
        t3, _ = train_centralized(CentralTrainConfig(epochs=2, batch_size=8, seed=8),
                                  spec, train, grid)
        assert np.any(t1 != t3)

    def test_matches_independent_adam_loop(self, caplog):
        """Adam over per-epoch reshuffles with the stepped rate, the short
        final batch kept (20 scenes at batch 8: 8, 8, 4), bit for bit."""
        _, grid, spec, train, _ = micro_world(n_train=20)
        cfg = CentralTrainConfig(epochs=4, batch_size=8, lr=3e-3, lr_drop_factor=0.5, lr_drop_epoch=2, seed=9)
        inputs, labels = preprocess_dataset(train, grid)
        init_seq, shuffle_seq = np.random.SeedSequence(cfg.seed).spawn(2)
        theta, bn = init_params(spec, init_seq)
        rng = np.random.default_rng(shuffle_seq)
        adam = AdamState.zeros(theta.shape[0])
        mean_losses = []
        for epoch in range(cfg.epochs):
            lr = cfg.lr * (cfg.lr_drop_factor if epoch >= cfg.lr_drop_epoch else 1.0)
            order = rng.permutation(len(labels))
            losses = []
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grad = loss_and_grad(spec, theta, bn, inputs[idx], labels[idx])
                adam, theta = adam_step(adam, theta, grad, lr)
                losses.append(loss)
            mean_losses.append(sum(losses) / len(losses))

        with caplog.at_level(logging.INFO, logger="fedbeam.evaluation"):
            theta_c, bn_c = train_centralized(cfg, spec, train, grid)
        np.testing.assert_array_equal(theta_c, theta)
        np.testing.assert_array_equal(bn_c.stat_vector(), bn.stat_vector())
        assert adam.t == 12  # three batches an epoch: the short one is kept
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("fedbeam.evaluation", logging.INFO, f"epoch {e + 1}/4: mean loss {loss:.4f}")
            for e, loss in enumerate(mean_losses)
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_reports_epoch_and_batch(self):
        _, grid, spec, train, _ = micro_world(n_train=24)
        cfg = CentralTrainConfig(epochs=3, batch_size=8, lr=1e12, seed=0)
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train_centralized(cfg, spec, train, grid)


class TestEvaluate:
    def test_exhaustive_k_is_perfect(self):
        _, grid, spec, train, test = micro_world(n_train=16, n_test=10)
        theta, bn = init_params(spec, seed=0)
        report = evaluate(theta, bn, spec, test, grid)  # k_max defaults to all pairs
        assert report.accuracy_at(spec.n_classes) == 1.0
        assert report.throughput_at(spec.n_classes) == pytest.approx(1.0)

    def test_monotone_in_k(self):
        _, grid, spec, _, test = micro_world(n_test=30)
        theta, bn = init_params(spec, seed=3)
        report = evaluate(theta, bn, spec, test, grid)
        assert np.all(np.diff(report.accuracy) >= 0)
        assert np.all(np.diff(report.throughput) >= -1e-12)

    def test_untrained_model_hits_random_rate(self):
        # inputs from real scenes, labels drawn uniformly at random: any
        # fixed scorer has hit probability K / n_classes per sample
        synth = SynthConfig(area=(0.0, 5.0, 0.0, 25.0), obstacles=2,
                            obstacle_size_x=(0.5, 1.5), obstacle_size_y=(1.0, 3.0),
                            n_t=8, n_r=4, n_c=4, c_t=32, c_r=8)
        grid = GridConfig(x_min=0, x_max=5, y_min=0, y_max=25, cells_x=10, cells_y=50)
        base = generate_synthetic(synth, 1000, seed=21)
        rng = np.random.default_rng(22)
        shuffled = Dataset(
            meta=base.meta,
            samples=[Sample(cloud=s.cloud, vehicle_pos=s.vehicle_pos, bs_pos=s.bs_pos,
                            label=int(rng.integers(0, 256)), powers=None)
                     for s in base.samples],
        )
        spec = ArchitectureSpec(
            input_shape=grid.shape,
            convs=(ConvSpec(1, 3, (3, 3), 2, 1), ConvSpec(3, 3, (3, 3), 2, 1)),
            hidden=8,
            n_classes=256,
        )
        theta, bn = init_params(spec, seed=23)
        report = evaluate(theta, bn, spec, shuffled, grid, k_max=10)
        p = 10 / 256
        se = np.sqrt(p * (1 - p) / len(shuffled))
        assert abs(report.accuracy_at(10) - p) <= 3 * se
        assert report.throughput is None  # labels only, no powers

    def test_deterministic(self):
        _, grid, spec, _, test = micro_world(n_test=12)
        theta, bn = init_params(spec, seed=1)
        r1 = evaluate(theta, bn, spec, test, grid)
        r2 = evaluate(theta, bn, spec, test, grid)
        np.testing.assert_array_equal(r1.accuracy, r2.accuracy)
        np.testing.assert_array_equal(r1.throughput, r2.throughput)

    def test_report_serialization(self, tmp_path):
        _, grid, spec, _, test = micro_world(n_test=8)
        theta, bn = init_params(spec, seed=1)
        report = evaluate(theta, bn, spec, test, grid, k_max=4)
        report.to_json(tmp_path / "report.json")
        report.write_sweep_csv(tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k,accuracy,throughput_ratio"
        assert len(lines) == 5
        text = (tmp_path / "report.json").read_text()
        assert '"reference"' in text

    def test_reference_constants(self):
        assert REFERENCE_RESULTS["compact_2d"]["params"] == 7462
        assert REFERENCE_RESULTS["compact_2d"]["flops"] == pytest.approx(1.72e6)
        assert REFERENCE_RESULTS["compact_2d"]["top10_accuracy"] == pytest.approx(0.9117)
        assert REFERENCE_RESULTS["baseline_3d"]["params"] == 403677


T975_NU = [*range(1, 121), 200, 500, 1000, 10000]
T975_SCIPY = [
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
    1.983731002955606, 1.9834952585628793, 1.9832641447734565, 1.9830375264837259,
    1.9828152737950475, 1.9825972617655006, 1.9823833701756908, 1.982173483307727,
    1.9819674897364825, 1.981765282132372, 1.9815667570749007, 1.9813718148763053,
    1.981180359414661, 1.9809922979758567, 1.9808075411039094, 1.9806260024590894,
    1.9804475986834025, 1.980272249272974, 1.9800998764569397, 1.9799304050824402,
    1.9718962236339088, 1.9647198374673676, 1.9623390808264083, 1.960201239890626,
]


class TestStudentT:
    def test_matches_scipy_table(self):
        """t_{0.975, nu} for every nu in T975_NU, made with SciPy 1.17.1 by

        python -c "from scipy import stats; print([float(stats.t.ppf(0.975, v))
            for v in [*range(1, 121), 200, 500, 1000, 10000]])"
        """
        got = [_t975(nu) for nu in T975_NU]
        np.testing.assert_allclose(got, T975_SCIPY, rtol=1e-12, atol=0)


class TestMonteCarlo:
    def test_identical_runs_have_zero_width(self):
        metrics = monte_carlo(lambda seed: {"acc": 0.75}, n_runs=5)
        mean, half = metrics["acc"]
        assert mean == 0.75
        assert half == 0.0

    def test_hand_t_interval(self):
        values = iter([0.90, 0.92])
        metrics = monte_carlo(lambda seed: {"acc": next(values)}, n_runs=2)
        mean, half = metrics["acc"]
        assert mean == pytest.approx(0.91)
        assert half == pytest.approx(0.12706, rel=1e-3)

    def test_default_run_count_is_ten(self):
        assert inspect.signature(monte_carlo).parameters["n_runs"].default == 10

    def test_seeds_passed_in_sequence(self):
        seen = []
        monte_carlo(lambda seed: (seen.append(seed), {"x": float(seed)})[1],
                    n_runs=3, base_seed=40)
        assert seen == [40, 41, 42]

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            monte_carlo(lambda seed: {"x": 0.0}, n_runs=1)
