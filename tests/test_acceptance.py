"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines while they execute. The desk-scale benchmark (64 beam pairs, 2000
train / 500 test synthetic scenes) comes from session fixtures shared with
the unit tests.
"""

import os
import time

import numpy as np
import pytest
from conftest import draw_gradient_check_case, micro_world

from fedbeam.channel import BeamCodebook, ChannelSet, beam_powers, beam_powers_naive
from fedbeam.dataset import partition_uniform
from fedbeam.evaluation import (
    REFERENCE_RESULTS,
    CentralTrainConfig,
    evaluate,
    train_centralized,
)
from fedbeam.fedavg import (
    ClientState,
    FedConfig,
    aggregate,
    client_rngs,
    local_round,
    preprocess_dataset,
    run_federated,
)
from fedbeam.nn import (
    ArchitectureSpec,
    ConvSpec,
    count_flops,
    count_params,
    default_architecture,
    forward,
    init_params,
    loss_and_grad,
    sgd_step,
)
from fedbeam.preprocess import default_grid

RANDOM_TOP5_RATE = 5 / 64  # analytic random baseline on the benchmark


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


@pytest.fixture(scope="session")
def benchmark_spec(synth_config):
    return default_architecture(input_shape=default_grid().shape,
                                n_classes=synth_config.c_t * synth_config.c_r)


@pytest.fixture(scope="session")
def central_results(synthetic_train, synthetic_test, benchmark_spec):
    """Centralized reference runs for three seeds, shared by two criteria."""
    grid = default_grid()
    results = []
    t0 = time.perf_counter()
    for seed in range(3):
        cfg = CentralTrainConfig(epochs=12, batch_size=16, lr=1e-3,
                                 lr_drop_epoch=8, seed=seed)
        theta, bn = train_centralized(cfg, benchmark_spec, synthetic_train, grid)
        rep = evaluate(theta, bn, benchmark_spec, synthetic_test, grid, k_max=5)
        results.append(rep.accuracy_at(5))
    return results, time.perf_counter() - t0


class TestGradientOracle:
    """Analytic gradients vs float64 central differences (h=1e-5)."""

    def test_gradient_matches_finite_differences(self):
        t0 = time.perf_counter()
        h = 1e-5
        worst = 0.0
        for seed in range(5):
            spec, theta, bn, batch, labels = draw_gradient_check_case(500 + seed)
            n = len(labels)
            _, analytic = loss_and_grad(spec, theta, bn.copy(), batch, labels,
                                        update_stats=False)

            def loss_at(t):
                probs, _ = forward(spec, t, bn.copy(), batch, mode="train",
                                   update_stats=False)
                return float(-np.mean(np.log(probs[np.arange(n), labels])))

            numeric = np.zeros_like(theta)
            for i in range(theta.shape[0]):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (loss_at(up) - loss_at(down)) / (2 * h)
            # denominator floored above the ~1e-11 finite-difference noise
            # (conv biases feeding batch norm have exactly zero gradient)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            rel = np.abs(analytic - numeric) / denom
            worst = max(worst, float(rel.max()))
            assert rel.max() < 1e-4, f"seed {seed}: max relative error {rel.max():.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report("gradient oracle", f"5 micro-architectures, worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestBeamPowerOracle:
    """Vectorized power computation vs an independent triple-loop."""

    def test_matches_naive_on_100_instances(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            n_t = int(rng.integers(1, 9))
            n_r = int(rng.integers(1, 5))
            n_c = int(rng.integers(1, 9))
            c_t = int(rng.integers(1, 9))
            c_r = int(rng.integers(1, 5))
            h = rng.standard_normal((n_c, n_r, n_t)) + 1j * rng.standard_normal((n_c, n_r, n_t))
            cb = BeamCodebook.dft(n_t, n_r, c_t, c_r)
            ch = ChannelSet(h=h)
            fast = beam_powers(ch, cb)
            slow = beam_powers_naive(ch, cb)
            scale = np.maximum(np.abs(slow), 1e-300)
            worst = max(worst, float((np.abs(fast - slow) / scale).max()))
            np.testing.assert_allclose(fast, slow, rtol=1e-10)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report("beam power oracle", f"100 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestDegenerateEquivalence:
    """V=1, mu=1, N_v=1 federated equals centralized mini-batch SGD.

    The comparison runs in float64: the delta-then-add composition
    theta + (theta' - theta) differs from theta' by one float32 ULP, and
    625 benchmark SGD steps amplify that past the 1e-6 tolerance, so
    float32 noise would mask the algebraic property under test (the
    packaged float32 loop is checked bit-for-bit in the unit suite).
    """

    def test_five_rounds_match(self, synthetic_train, benchmark_spec):
        t0 = time.perf_counter()
        grid = default_grid()
        cfg = FedConfig(vehicles=1, local_epochs=1, max_rounds=5, server_lr=1.0,
                        batch_size=16, partition_seed=31, init_seed=32,
                        shuffle_seed=33, accuracy_top_k=5)
        inputs, labels = preprocess_dataset(synthetic_train, grid)
        indices = partition_uniform(synthetic_train, 1, cfg.partition_seed)[0]
        theta0, bn0 = init_params(benchmark_spec, cfg.init_seed)
        theta0 = theta0.astype(np.float64)

        # centralized reference: one continuous SGD stream over the same data
        rng = client_rngs(cfg.shuffle_seed, 1)[0]
        theta_ref = theta0.copy()
        bn_ref = bn0.copy()
        step = 0
        per_round = []
        for _ in range(cfg.max_rounds):
            order = rng.permutation(len(indices))
            for start in range(0, len(order), cfg.batch_size):
                idx = indices[order[start : start + cfg.batch_size]]
                _, grad = loss_and_grad(benchmark_spec, theta_ref, bn_ref,
                                        inputs[idx], labels[idx])
                rho = float(cfg.local_lr * np.exp(-cfg.lr_decay * step))
                theta_ref = sgd_step(theta_ref, grad, rho)
                step += 1
            per_round.append(theta_ref.copy())

        # federated trajectory through the aggregation components
        client = ClientState(vid=0, indices=indices, rng=client_rngs(cfg.shuffle_seed, 1)[0])
        theta_fed = theta0.copy()
        bn_fed = bn0.copy()
        worst = 0.0
        for r in range(cfg.max_rounds):
            delta = local_round(client, theta_fed, bn_fed, benchmark_spec,
                                inputs, labels, cfg)
            theta_fed = aggregate(theta_fed, [delta], cfg.server_lr)
            bn_fed = client.bn_state
            diff = float(np.abs(theta_fed - per_round[r]).max())
            worst = max(worst, diff)
            assert diff <= 1e-6, f"round {r + 1}: max coordinate gap {diff:.2e}"

        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report("fedavg degenerate equivalence",
               f"5 rounds x 125 batches, worst coordinate gap {worst:.2e}, {elapsed:.1f}s")


class TestOverheadBookkeeping:
    """O_DL = N_a * |theta| and O_UL = V * N_a * |theta|, exactly."""

    @pytest.mark.parametrize("vehicles,rounds", [(5, 19), (10, 31), (20, 81)])
    def test_counters(self, vehicles, rounds):
        _, grid, spec, train, test = micro_world(n_train=40, n_test=8)
        n_params = count_params(spec)
        cfg = FedConfig(vehicles=vehicles, local_epochs=1, max_rounds=rounds,
                        batch_size=2, accuracy_top_k=2)
        _, _, logs = run_federated(cfg, train, test, spec, grid)
        assert len(logs) == rounds
        for n, entry in enumerate(logs, start=1):
            assert entry.o_dl == n * n_params
            assert entry.o_ul == vehicles * n * n_params
        report("overhead bookkeeping",
               f"V={vehicles}, N_a={rounds}: O_DL={rounds}|theta|, O_UL={vehicles * rounds}|theta|")


class TestLearnability:
    """Centralized training beats 3x the analytic random top-5 baseline."""

    def test_three_seeds_within_budget(self, central_results):
        accs, elapsed = central_results
        threshold = 3 * RANDOM_TOP5_RATE
        for seed, acc in enumerate(accs):
            assert acc >= threshold, f"seed {seed}: top-5 {acc:.3f} < {threshold:.3f}"
        assert elapsed < 600.0, f"3-seed training took {elapsed:.0f}s"
        report("desk-scale learnability",
               f"top-5 per seed {['%.3f' % a for a in accs]} vs threshold {threshold:.3f}, "
               f"{elapsed:.0f}s total")


class TestFederatedGap:
    """V=5, N_v=1: 40 rounds of FedAvg stays within 10 points of centralized."""

    def test_gap(self, synthetic_train, synthetic_test, benchmark_spec, central_results):
        accs, _ = central_results
        central_top5 = float(np.mean(accs))
        cfg = FedConfig(vehicles=5, local_epochs=1, max_rounds=40, batch_size=16,
                        partition_seed=41, init_seed=42, shuffle_seed=43,
                        accuracy_top_k=5)
        _, _, logs = run_federated(cfg, synthetic_train, synthetic_test,
                                   benchmark_spec, default_grid())
        fed_top5 = logs[-1].topk_accuracy
        # directional reading: federated may not degrade more than 10 points
        assert fed_top5 >= central_top5 - 0.10, (
            f"federated {fed_top5:.3f} vs centralized {central_top5:.3f}"
        )
        report("federated-vs-centralized gap",
               f"federated top-5 {fed_top5:.3f} vs centralized {central_top5:.3f} "
               f"(gap {central_top5 - fed_top5:+.3f})")


class TestMetricMonotonicity:
    """accuracy[K] and R[K] non-decreasing, both 1.0 at K = C_t * C_r."""

    def test_over_random_models(self):
        _, grid, spec, _, test = micro_world(n_test=24)
        n_pairs = spec.n_classes
        for seed in range(5):
            theta, bn = init_params(spec, seed=seed)
            rep = evaluate(theta, bn, spec, test, grid, k_max=n_pairs)
            assert np.all(np.diff(rep.accuracy) >= 0)
            assert np.all(np.diff(rep.throughput) >= -1e-12)
            assert rep.accuracy_at(n_pairs) == 1.0
            assert rep.throughput_at(n_pairs) == pytest.approx(1.0)
        report("metric monotonicity", f"5 random models, K=1..{n_pairs}")


class TestComplexityAccounting:
    """Exact counts on three micro specs; default reported vs references."""

    def test_counts(self):
        linear_only = ArchitectureSpec((2, 5), (), None, 5)
        assert count_params(linear_only) == 55
        assert count_flops(linear_only) == 100

        conv_block = ArchitectureSpec((4, 4), (ConvSpec(1, 2, (3, 3), 1, 1),), None, None)
        assert count_params(conv_block) == 26
        assert count_flops(conv_block) == 576

        two_linear = ArchitectureSpec((2, 3), (), 4, 2)
        assert count_params(two_linear) == 38  # (6*4 + 4) + (4*2 + 2)
        assert count_flops(two_linear) == 64  # 2*6*4 + 2*4*2

        spec = default_architecture()
        params = count_params(spec)
        flops = count_flops(spec)
        ref = REFERENCE_RESULTS["compact_2d"]
        report("complexity accounting",
               f"default architecture: {params} parameters vs reference {ref['params']}, "
               f"{flops} flops vs reference {ref['flops']:.3g}")


EXTERNAL_DATA_ENV = "FEDBEAM_EXTERNAL_DATA"


class TestExternalBenchmark:
    """Optional: only runs when ray-traced benchmark data has been ingested."""

    def test_external_targets(self):
        root = os.environ.get(EXTERNAL_DATA_ENV)
        if not root:
            pytest.skip(
                f"external benchmark data not present (set {EXTERNAL_DATA_ENV} to a "
                "directory holding train/ and test/ exchange layouts to enable)"
            )
        from fedbeam.dataset import ingest_external

        train = ingest_external(os.path.join(root, "train"))
        test = ingest_external(os.path.join(root, "test"))
        grid = default_grid()
        spec = default_architecture(input_shape=grid.shape, n_classes=train.meta.n_pairs)
        cfg = CentralTrainConfig(epochs=20, batch_size=16, lr=1e-3, lr_drop_epoch=10, seed=0)
        theta, bn = train_centralized(cfg, spec, train, grid)
        rep = evaluate(theta, bn, spec, test, grid, k_max=10)
        assert rep.accuracy_at(10) >= 0.88
        assert rep.throughput_at(10) >= 0.91
        report("external benchmark", f"top-10 {rep.accuracy_at(10):.4f}, "
                                     f"R {rep.throughput_at(10):.4f}")
