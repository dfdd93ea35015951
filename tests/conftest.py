import numpy as np
import pytest

from fedbeam.dataset import SynthConfig, generate_synthetic
from fedbeam.nn import ArchitectureSpec, ConvSpec, count_params, forward, init_params
from fedbeam.preprocess import GridConfig

# Desk-scale benchmark shared across test modules: 64 beam pairs,
# 2000 train / 500 test scenes from the default generator config.
TRAIN_SEED = 1001
TEST_SEED = 2002


def beam_powers_naive(ch, cb):
    """Triple-loop oracle for channel.beam_powers; kept independent on purpose."""
    n_c = ch.h.shape[0]
    c_t, c_r = cb.tx.shape[0], cb.rx.shape[0]
    y = np.zeros((c_t, c_r))
    for i in range(c_t):
        for j in range(c_r):
            total = 0.0
            for n in range(n_c):
                g = np.vdot(cb.rx[j], ch.h[n] @ cb.tx[i])
                total += abs(g) ** 2
            y[i, j] = total
    return y


def micro_world(n_train=60, n_test=16, obstacles=2):
    """Small street, small grid, small model: fast end-to-end runs."""
    synth = SynthConfig(area=(0.0, 3.0, 0.0, 15.0), obstacles=obstacles,
                        obstacle_size_x=(0.5, 1.0), obstacle_size_y=(0.5, 2.0),
                        n_t=4, n_r=2, n_c=4, c_t=4, c_r=2)
    grid = GridConfig(x_min=0, x_max=3, y_min=0, y_max=15, cells_x=6, cells_y=30)
    spec = ArchitectureSpec(
        input_shape=grid.shape,
        convs=(ConvSpec(1, 2, (3, 3), 2, 1), ConvSpec(2, 2, (3, 3), 2, 1)),
        hidden=6,
        n_classes=synth.c_t * synth.c_r,
    )
    train = generate_synthetic(synth, n_train, seed=5)
    test = generate_synthetic(synth, n_test, seed=6)
    return synth, grid, spec, train, test


def random_micro_spec(rng):
    """Small random architecture fragment for gradient checking."""
    while True:
        try:
            convs = []
            prev = 1
            for _ in range(int(rng.integers(0, 3))):
                out = int(rng.integers(1, 4))
                k = int(rng.integers(1, 4))
                # padding <= (k-1)//2: bias-only padded positions make a
                # near-constant channel whose batch-norm curvature breaks FD
                pad = int(rng.integers(0, (k - 1) // 2 + 1))
                convs.append(ConvSpec(prev, out, (k, k), int(rng.choice([1, 2])), pad))
                prev = out
            return ArchitectureSpec(
                input_shape=(int(rng.integers(4, 7)), int(rng.integers(4, 8))),
                convs=tuple(convs),
                hidden=int(rng.integers(2, 6)) if rng.random() < 0.7 else None,
                n_classes=int(rng.integers(2, 5)),
            )
        except ValueError:
            continue


def draw_gradient_check_case(seed, max_inv=5.0):
    """Random (spec, theta, bn, batch, labels) with bounded BN curvature.

    Channels whose batch standard deviation falls below 1/max_inv are
    resampled: their normalization curvature makes h=1e-5 central
    differences carry truncation error above the 1e-4 relative budget,
    which says nothing about the analytic gradient under test.
    """
    rng = np.random.default_rng(seed)
    while True:
        spec = random_micro_spec(rng)
        if not spec.convs:  # always exercise the conv/BN/PReLU backward
            continue
        theta = rng.normal(0.0, 0.5, count_params(spec))
        _, bn = init_params(spec, seed=seed)
        batch = rng.standard_normal((4, 1, *spec.input_shape))
        labels = rng.integers(0, spec.n_classes, size=4)
        _, cache = forward(spec, theta, bn.copy(), batch, mode="train", update_stats=False)
        if all(float(c["inv"].max()) <= max_inv for c in cache["convs"]):
            return spec, theta, bn, batch, labels


@pytest.fixture(scope="session")
def synth_config():
    return SynthConfig()


@pytest.fixture(scope="session")
def synthetic_train(synth_config):
    return generate_synthetic(synth_config, 2000, seed=TRAIN_SEED)


@pytest.fixture(scope="session")
def synthetic_test(synth_config):
    return generate_synthetic(synth_config, 500, seed=TEST_SEED)
