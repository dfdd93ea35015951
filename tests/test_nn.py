import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from conftest import (
    conv_backward_naive,
    conv_forward_naive,
    draw_gradient_check_case,
    forward_eval_unfolded,
    forward_train_reference,
    loss_and_grad_reference,
    pad,
    random_micro_spec,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedbeam.dataset import SynthConfig, generate_synthetic
from fedbeam.errors import FormatError, IntegrityError, NumericError
from fedbeam.fedavg import predict_proba, preprocess_dataset
from fedbeam.nn import (
    BN_EPS,
    EVAL_BATCH,
    AdamState,
    ArchitectureSpec,
    BatchNormState,
    ConvSpec,
    _conv_backward,
    _conv_forward,
    adam_step,
    build_layout,
    count_flops,
    count_params,
    default_architecture,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    sgd_step,
)
from fedbeam.preprocess import default_grid


def micro_spec():
    return ArchitectureSpec(
        input_shape=(4, 5),
        convs=(ConvSpec(1, 2, (3, 3), 1, 1), ConvSpec(2, 2, (2, 2), 2, 0)),
        hidden=4,
        n_classes=3,
    )


def numeric_gradient(spec, theta, bn_state, batch, labels, h=1e-5):
    """Central finite differences of the train-mode cross-entropy."""
    n = len(labels)

    def loss_at(t):
        probs, _ = forward(spec, t, bn_state.copy(), batch, mode="train")
        return float(-np.mean(np.log(probs[np.arange(n), labels])))

    grad = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (loss_at(up) - loss_at(down)) / (2 * h)
    return grad


class TestSpecValidation:
    def test_channel_chain_checked(self):
        with pytest.raises(ValueError, match="in_channels"):
            ArchitectureSpec((8, 8), (ConvSpec(1, 2), ConvSpec(3, 2)), 4, 2)

    def test_stride_restricted(self):
        with pytest.raises(ValueError, match="stride"):
            ConvSpec(1, 2, (3, 3), 3, 1)

    def test_over_shrinking_rejected(self):
        with pytest.raises(ValueError, match="shrinks"):
            ArchitectureSpec((2, 2), (ConvSpec(1, 1, (3, 3), 1, 0),), None, 2)

    def test_json_round_trip(self):
        spec = micro_spec()
        assert ArchitectureSpec.from_dict(asdict(spec)) == spec

    def test_default_shape_contract(self):
        spec = default_architecture()
        assert len(spec.convs) == 6
        assert all(c.stride in (1, 2) for c in spec.convs)
        # feature bottleneck: <= 4% of the input pixels reach the linear head
        assert spec.flat_features <= 0.04 * 20 * 200


class TestCounting:
    def test_single_linear(self):
        spec = ArchitectureSpec((2, 5), (), None, 5)  # flat 10 -> 5 classes
        assert count_params(spec) == 55
        assert count_flops(spec) == 100

    def test_conv_block_with_bn_prelu(self):
        spec = ArchitectureSpec((4, 4), (ConvSpec(1, 2, (3, 3), 1, 1),), None, None)
        assert count_params(spec) == 26  # 18 + 2 + 4 + 2
        assert count_flops(spec) == 576  # 2 * 4*4*2*1*9

    def test_two_linear_micro(self):
        spec = ArchitectureSpec((2, 3), (), 4, 2)  # 6 -> 4 -> 2
        assert count_params(spec) == (6 * 4 + 4) + (4 * 2 + 2)
        assert count_flops(spec) == 2 * 6 * 4 + 2 * 4 * 2

    def test_default_near_reference_budget(self):
        spec = default_architecture()
        assert count_params(spec) == 7738
        assert abs(count_params(spec) - 7462) / 7462 < 0.20
        # same order of magnitude as the 1.72e6 reference FLOP count
        assert 0.5 < count_flops(spec) / 1.72e6 < 2.0

    def test_param_count_matches_init_length(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            spec = random_micro_spec(rng)
            theta, _ = init_params(spec, seed=1)
            assert theta.shape[0] == count_params(spec)


class TestInit:
    def test_deterministic(self):
        spec = micro_spec()
        t1, _ = init_params(spec, seed=5)
        t2, _ = init_params(spec, seed=5)
        np.testing.assert_array_equal(t1, t2)

    def test_seeds_differ(self):
        spec = micro_spec()
        t1, _ = init_params(spec, seed=5)
        t2, _ = init_params(spec, seed=6)
        assert np.any(t1 != t2)

    def test_bn_scales_start_at_one(self):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=0)
        layout = build_layout(spec)
        for k in range(len(spec.convs)):
            np.testing.assert_array_equal(layout.view(theta, f"bn{k}.scale"), 1.0)
            np.testing.assert_array_equal(layout.view(theta, f"prelu{k}.slope"), 0.25)
            np.testing.assert_array_equal(bn.means[k], 0.0)
            np.testing.assert_array_equal(bn.variances[k], 1.0)


class TestForward:
    def test_rows_are_probabilities(self):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=0)
        x = np.random.default_rng(1).standard_normal((5, 1, 4, 5)).astype(np.float32)
        probs = forward(spec, theta, bn, x, mode="eval")
        assert probs.shape == (5, 3)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_params_give_uniform(self):
        spec = micro_spec()
        theta = np.zeros(count_params(spec), dtype=np.float32)
        _, bn = init_params(spec, seed=0)
        x = np.zeros((3, 1, 4, 5), dtype=np.float32)
        probs = forward(spec, theta, bn, x, mode="eval")
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-7)

    def test_hand_computed_micro_logits(self):
        # 1x1 conv with identity-like params on a 2x2 input, fresh BN stats
        spec = ArchitectureSpec((2, 2), (ConvSpec(1, 1, (1, 1), 1, 0),), None, 2)
        layout = build_layout(spec)
        theta = np.zeros(layout.total, dtype=np.float64)
        layout.view(theta, "conv0.weight")[...] = 1.0
        layout.view(theta, "bn0.scale")[...] = 1.0
        layout.view(theta, "prelu0.slope")[...] = 0.25
        w2 = layout.view(theta, "linear2.weight")
        w2[0, 0] = 1.0
        w2[1, 1] = 1.0
        layout.view(theta, "linear2.bias")[...] = [0.1, -0.1]
        _, bn = init_params(spec, seed=0)

        x = np.array([[[[1.0, -2.0], [0.5, 0.0]]]])
        c = 1.0 / np.sqrt(1.0 + BN_EPS)  # eval-mode BN with mean 0, var 1
        act = np.array([1.0 * c, 0.25 * -2.0 * c, 0.5 * c, 0.0])
        logits = np.array([act[0] + 0.1, act[1] - 0.1])
        expected = np.exp(logits) / np.exp(logits).sum()
        probs = forward(spec, theta, bn, x, mode="eval")
        np.testing.assert_allclose(probs[0], expected, atol=1e-6)

    def test_train_mode_needs_batch_of_two(self):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=0)
        x = np.zeros((1, 1, 4, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="at least 2"):
            forward(spec, theta, bn, x, mode="train")

    def test_shape_mismatch_rejected(self):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=0)
        with pytest.raises(ValueError, match="batch shape"):
            forward(spec, theta, bn, np.zeros((2, 1, 5, 5), dtype=np.float32))

    def test_eval_deterministic_and_pure(self):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=0)
        x = np.random.default_rng(2).standard_normal((4, 1, 4, 5)).astype(np.float32)
        before = bn.stat_vector().copy()
        p1 = forward(spec, theta, bn, x, mode="eval")
        p2 = forward(spec, theta, bn, x, mode="eval")
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(bn.stat_vector(), before)

    def test_train_mode_updates_running_stats(self):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=0)
        x = np.random.default_rng(3).standard_normal((4, 1, 4, 5)).astype(np.float32)
        before = bn.stat_vector().copy()
        forward(spec, theta, bn, x, mode="train")
        assert np.any(bn.stat_vector() != before)


def trained_bn_case(spec, seed, dtype):
    """theta in dtype with random BN scale/shift and conv biases, PReLU
    slopes spread over [-0.5, 1.5] in every layer (negative, below and above
    1), and running statistics moved off (0, 1) by a few train-mode
    forwards, so every term of the batch-norm fold is non-trivial."""
    rng = np.random.default_rng(seed)
    layout = build_layout(spec)
    theta, bn = init_params(spec, seed=seed)
    theta = theta.astype(dtype)
    for k, conv in enumerate(spec.convs):
        for seg, lo, hi in ((f"conv{k}.bias", -0.3, 0.3), (f"bn{k}.scale", 0.5, 2.0),
                            (f"bn{k}.shift", -0.5, 0.5)):
            view = layout.view(theta, seg)
            view[...] = rng.uniform(lo, hi, view.shape)
        layout.view(theta, f"prelu{k}.slope")[...] = np.linspace(-0.5, 1.5, conv.out_channels)
    layout.view(theta, "linear2.weight")[...] *= 4.0  # spread the logits
    for _ in range(3):
        forward(spec, theta, bn, rng.standard_normal((8, 1, *spec.input_shape)), mode="train")
    return theta, bn, rng


def topk_sets(probs, k):
    return [set(row) for row in np.argsort(-probs, axis=1, kind="stable")[:, :k]]


class TestFoldedEval:
    """Eval mode folds batch norm into the conv weights; the unfolded
    forward in conftest is the oracle."""

    def test_float64_default_arch_matches_unfolded(self):
        spec = default_architecture(n_classes=64)
        theta, bn, rng = trained_bn_case(spec, 11, np.float64)
        assert all(np.abs(m).max() > 1e-3 for m in bn.means)
        assert all(np.abs(v - 1).max() > 1e-3 for v in bn.variances)
        x = rng.integers(-2, 2, (16, 1, *spec.input_shape)).astype(np.float32)
        np.testing.assert_allclose(forward(spec, theta, bn, x, mode="eval"),
                                   forward_eval_unfolded(spec, theta, bn, x), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("batch", [16, 256])
    def test_float32_default_arch_same_topk(self, batch):
        spec = default_architecture(n_classes=64)
        theta, bn, rng = trained_bn_case(spec, 12, np.float32)
        x = rng.integers(-2, 2, (batch, 1, *spec.input_shape)).astype(np.float32)
        folded = forward(spec, theta, bn, x, mode="eval")
        oracle = forward_eval_unfolded(spec, theta, bn, x)
        assert folded.dtype == np.float32
        # the folded weights round differently; in the smallest probabilities
        # (below 1e-3) that reaches 1.2e-5 relative, 6e-9 absolute
        np.testing.assert_allclose(folded, oracle, rtol=1e-5, atol=1e-8)
        for k in (1, 5, 10):
            assert topk_sets(folded, k) == topk_sets(oracle, k)

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    def test_micro_arch_without_hidden_layer(self, dtype, rtol):
        # a padding=0 conv and no hidden layer: the fold meets the head directly
        spec = ArchitectureSpec((6, 7), (ConvSpec(1, 3, (3, 3), 1, 1), ConvSpec(3, 2, (2, 3), 2, 0)),
                                None, 5)
        theta, bn, rng = trained_bn_case(spec, 13, dtype)
        x = rng.standard_normal((9, 1, 6, 7))
        np.testing.assert_allclose(forward(spec, theta, bn, x, mode="eval"),
                                   forward_eval_unfolded(spec, theta, bn, x), rtol=rtol, atol=0)

    def test_eval_runs_by_eval_batch(self):
        # eval forward runs EVAL_BATCH samples at a time, so a batch equals
        # its slices to the bit, predict_proba (which hands the slices to
        # the CPU lanes) equals one forward, and a large batch holds one
        # slice's buffers at a time (32 MB at B=256 when run whole)
        spec = default_architecture(n_classes=64)
        theta, bn, rng = trained_bn_case(spec, 15, np.float32)
        x = rng.standard_normal((256, 1, *spec.input_shape)).astype(np.float32)
        for batch in (1, EVAL_BATCH, EVAL_BATCH + 1, 53, 256):
            sliced = [forward(spec, theta, bn, x[s : min(s + EVAL_BATCH, batch)], mode="eval")
                      for s in range(0, batch, EVAL_BATCH)]
            np.testing.assert_array_equal(forward(spec, theta, bn, x[:batch], mode="eval"),
                                          np.concatenate(sliced))
        np.testing.assert_array_equal(predict_proba(spec, theta, bn, x), forward(spec, theta, bn, x, mode="eval"))
        tracemalloc.start()
        try:
            forward(spec, theta, bn, x, mode="eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_eval_leaves_theta_untouched(self):
        spec = micro_spec()
        theta, bn, rng = trained_bn_case(spec, 14, np.float32)
        before = theta.copy()
        forward(spec, theta, bn, rng.standard_normal((3, 1, 4, 5)), mode="eval")
        np.testing.assert_array_equal(theta, before)


class TestLoss:
    def test_uniform_predictions_give_log_n(self):
        spec = ArchitectureSpec((2, 2), (), None, 7)
        theta = np.zeros(count_params(spec), dtype=np.float32)
        _, bn = init_params(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((6, 1, 2, 2)).astype(np.float32)
        loss, _ = loss_and_grad(spec, theta, bn, x, np.zeros(6, dtype=int))
        assert loss == pytest.approx(np.log(7), rel=1e-6)

    def test_single_sample_definition(self):
        spec = ArchitectureSpec((1, 2), (), None, 2)
        layout = build_layout(spec)
        theta = np.zeros(layout.total, dtype=np.float64)
        layout.view(theta, "linear2.bias")[...] = [2.0, 0.0]
        _, bn = init_params(spec, seed=0)
        x = np.zeros((2, 1, 1, 2))
        p = np.exp(2.0) / (np.exp(2.0) + 1.0)
        loss, _ = loss_and_grad(spec, theta, bn, x, [0, 0])
        assert loss == pytest.approx(-np.log(p), rel=1e-9)

    def test_label_out_of_range(self):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=0)
        x = np.zeros((2, 1, 4, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            loss_and_grad(spec, theta, bn, x, [0, 3])


class TestGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_finite_differences(self, seed):
        spec, theta, bn, batch, labels = draw_gradient_check_case(100 + seed)
        _, analytic = loss_and_grad(spec, theta, bn.copy(), batch, labels)
        numeric = numeric_gradient(spec, theta, bn, batch, labels)
        # floor the denominator above the ~1e-11 finite-difference noise:
        # conv biases feeding batch norm have exactly zero gradient
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < 1e-4

    def test_full_default_stack_spot_check(self):
        # a narrow default-style stack in float64, spot-checked on 60 coords
        spec = ArchitectureSpec(
            (6, 10),
            (ConvSpec(1, 2, (3, 3), 1, 1), ConvSpec(2, 2, (3, 3), 2, 1),
             ConvSpec(2, 2, (3, 3), 2, 1)),
            hidden=4,
            n_classes=4,
        )
        rng = np.random.default_rng(9)
        theta = rng.normal(0.0, 0.5, count_params(spec))
        _, bn = init_params(spec, seed=0)
        batch = rng.standard_normal((4, 1, 6, 10))
        labels = rng.integers(0, 4, size=4)
        _, analytic = loss_and_grad(spec, theta, bn.copy(), batch, labels)

        def loss_at(t):
            probs, _ = forward(spec, t, bn.copy(), batch, mode="train")
            return float(-np.mean(np.log(probs[np.arange(4), labels])))

        coords = rng.choice(theta.shape[0], size=60, replace=False)
        h = 1e-5
        for i in coords:
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd = (loss_at(up) - loss_at(down)) / (2 * h)
            denom = max(abs(analytic[i]), abs(fd), 1e-6)
            assert abs(analytic[i] - fd) / denom < 1e-4


def segment_gaps(spec, grad, oracle):
    """{segment: |grad - oracle| / |oracle|}. A conv bias feeds batch norm,
    so its exact gradient is 0 and both sides hold only rounding: its gap is
    taken against the norm of the whole oracle gradient instead."""
    layout = build_layout(spec)
    whole = np.linalg.norm(oracle)
    gaps = {}
    for name, _, _ in layout.entries:
        diff = np.linalg.norm(layout.view(grad, name) - layout.view(oracle, name))
        noise_only = name.startswith("conv") and name.endswith(".bias")
        gaps[name] = diff / (whole if noise_only else np.linalg.norm(layout.view(oracle, name)))
    return gaps


class TestTrainStep:
    """The train step against conftest's reference: the forward with
    np.where PReLU bit for bit, and the backward with one weight-gradient
    GEMM per conv and the sum(z - mu) term up to summation order."""

    SPECS = {
        "default": default_architecture(n_classes=64),
        "micro": ArchitectureSpec((6, 7), (ConvSpec(1, 3, (3, 3), 1, 1), ConvSpec(3, 4, (2, 3), 2, 0)), 5, 5),
    }

    def case(self, arch, dtype, seed=21):
        spec = self.SPECS[arch]
        theta, bn, rng = trained_bn_case(spec, seed, dtype)  # slopes over [-0.5, 1.5]
        x = rng.integers(-2, 2, (16, 1, *spec.input_shape)).astype(np.float32)
        return spec, theta, bn, x, rng.integers(0, spec.n_classes, 16)

    @pytest.mark.parametrize("arch", ["default", "micro"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_bit_equal(self, arch, dtype):
        spec, theta, bn, x, _ = self.case(arch, dtype)
        bn_ref = bn.copy()
        probs, cache = forward(spec, theta, bn, x, mode="train")
        probs_ref, cache_ref = forward_train_reference(spec, theta, bn_ref, x)
        np.testing.assert_array_equal(probs, probs_ref)
        np.testing.assert_array_equal(bn.stat_vector(), bn_ref.stat_vector())
        for c, c_ref in zip(cache["convs"], cache_ref["convs"]):
            for key in ("inv", "xhat", "bn_out"):
                np.testing.assert_array_equal(c[key], c_ref[key])

    @pytest.mark.parametrize("arch", ["default", "micro"])
    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-10), (np.float32, 1e-4)])
    def test_gradient_matches_reference(self, arch, dtype, bound):
        spec, theta, bn, x, labels = self.case(arch, dtype)
        bn_ref = bn.copy()
        loss, grad = loss_and_grad(spec, theta, bn, x, labels)
        loss_ref, grad_ref = loss_and_grad_reference(spec, theta, bn_ref, x, labels)
        assert grad.dtype == dtype
        assert loss == loss_ref
        np.testing.assert_array_equal(bn.stat_vector(), bn_ref.stat_vector())
        gaps = segment_gaps(spec, grad, grad_ref)
        assert max(gaps.values()) <= bound, gaps

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 3), o=st.integers(1, 3), b=st.integers(1, 3), kh=st.integers(1, 3),
           kw=st.integers(1, 3), stride=st.integers(1, 2), padding=st.integers(0, 2),
           h=st.integers(1, 7), w=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_conv_backward_matches_loop(self, c, o, b, kh, kw, stride, padding, h, w, seed):
        """_conv_forward and _conv_backward against the one-position-at-a-time
        loops, in float64."""
        assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
        conv = ConvSpec(c, o, (kh, kw), stride, padding)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c, b, h, w))
        weight = rng.standard_normal((o, c, kh, kw))
        bias = rng.standard_normal(o)
        out, cols = _conv_forward(pad(x, padding), weight, bias, conv)
        np.testing.assert_allclose(out, conv_forward_naive(x, weight, bias, conv), rtol=1e-12, atol=1e-12)
        dout = rng.standard_normal(out.shape)
        dw, db, dx = _conv_backward(dout, cols, weight, conv, x.shape)
        dw_ref, db_ref, dx_ref = conv_backward_naive(dout, x, weight, conv)
        np.testing.assert_allclose(dw, dw_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db, db_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-12, atol=1e-12)
        assert _conv_backward(dout, cols, weight, conv, x.shape, need_dx=False)[2] is None


class TestInt8Input:
    """fedavg.preprocess_dataset's int8 codes go into nn.forward and
    loss_and_grad as they are: the copy into the first padded buffer is the
    only cast, so every output equals that of the input cast to theta's
    dtype, to the bit."""

    @pytest.fixture(scope="class")
    def codes(self):
        inputs, labels = preprocess_dataset(generate_synthetic(SynthConfig(), 37, seed=23), default_grid())
        assert inputs.dtype == np.int8
        return inputs, labels

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [16, 37])
    def test_eval_forward_bit_equal(self, codes, dtype, batch):
        spec = default_architecture(n_classes=64)
        theta, bn, _ = trained_bn_case(spec, 24, dtype)
        x = codes[0][:batch]
        probs = forward(spec, theta, bn, x, mode="eval")
        assert probs.dtype == dtype
        np.testing.assert_array_equal(probs, forward(spec, theta, bn, x.astype(dtype), mode="eval"))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_grad_bit_equal(self, codes, dtype):
        spec = default_architecture(n_classes=64)
        theta, bn, _ = trained_bn_case(spec, 25, dtype)
        x, labels = codes[0][:16], codes[1][:16]
        before, bn_cast = bn.stat_vector().copy(), bn.copy()
        loss, grad = loss_and_grad(spec, theta, bn, x, labels)
        loss_cast, grad_cast = loss_and_grad(spec, theta, bn_cast, x.astype(dtype), labels)
        assert loss == loss_cast
        assert grad.dtype == dtype
        np.testing.assert_array_equal(grad, grad_cast)
        assert np.any(bn.stat_vector() != before)
        np.testing.assert_array_equal(bn.stat_vector(), bn_cast.stat_vector())


class TestOptimizers:
    def test_sgd_examples(self):
        np.testing.assert_allclose(sgd_step(np.array([1.0]), np.array([0.5]), 0.2), [0.9])
        theta = np.array([1.0, -2.0])
        np.testing.assert_array_equal(sgd_step(theta, np.zeros(2), 0.1), theta)
        g = np.array([0.3, -0.3])
        two = sgd_step(sgd_step(theta, g, 0.1), g, 0.1)
        np.testing.assert_allclose(two, theta - 0.2 * g, rtol=1e-7)

    @pytest.mark.parametrize("step", [
        pytest.param(lambda theta, grad: sgd_step(theta, grad, 0.1), id="sgd"),
        pytest.param(lambda theta, grad: adam_step(AdamState.zeros(2, dtype=np.float64), theta, grad, 1e-3),
                     id="adam"),
    ])
    @pytest.mark.parametrize("grad, error, message", [
        pytest.param([1.0, np.nan], NumericError, r"^non-finite gradient \(1 entries\)$", id="non-finite"),
        pytest.param([1.0, 2.0, 3.0], ValueError, r"^theta has shape \(2,\), grad \(3,\)$", id="shape"),
    ])
    def test_step_rejects_bad_gradient(self, step, grad, error, message):
        # both step rules share one gradient check and its messages
        with pytest.raises(error, match=message):
            step(np.array([1.0, -2.0]), np.array(grad))

    def test_adam_first_step(self):
        state = AdamState.zeros(1, dtype=np.float64)
        state, theta = adam_step(state, np.zeros(1), np.array([0.1]), lr=1e-3)
        # bias-corrected first step: lr * g / (|g| + eps)
        assert theta[0] == pytest.approx(-9.9999990e-4, rel=1e-6)
        assert state.t == 1

    def test_adam_zero_gradient_fixed_point(self):
        state = AdamState.zeros(3, dtype=np.float64)
        theta = np.array([1.0, -1.0, 2.0])
        _, theta2 = adam_step(state, theta, np.zeros(3), lr=1e-3)
        np.testing.assert_array_equal(theta2, theta)

    def test_adam_constant_gradient_limit(self):
        state = AdamState.zeros(1, dtype=np.float64)
        theta = np.zeros(1)
        g = np.array([0.37])
        lr = 1e-3
        last = None
        for _ in range(300):
            state, new_theta = adam_step(state, theta, g, lr)
            last = theta[0] - new_theta[0]
            theta = new_theta
        assert last == pytest.approx(lr, rel=0.02)


class TestCheckpoint:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=4)
        x = np.random.default_rng(0).standard_normal((3, 1, 4, 5)).astype(np.float32)
        forward(spec, theta, bn, x, mode="train")  # make stats non-trivial
        path = tmp_path / "model.fbnn"
        save_checkpoint(spec, theta, bn, path)
        spec2, theta2, bn2 = load_checkpoint(path)
        assert spec2 == spec
        np.testing.assert_array_equal(theta2, theta)
        p1 = forward(spec, theta, bn, x, mode="eval")
        p2 = forward(spec2, theta2, bn2, x, mode="eval")
        np.testing.assert_array_equal(p1, p2)

    def test_truncated_checkpoint(self, tmp_path):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=4)
        path = tmp_path / "model.fbnn"
        save_checkpoint(spec, theta, bn, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(IntegrityError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.fbnn"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_every_prefix_is_format_or_integrity_error(self, tmp_path):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=4)
        path = tmp_path / "model.fbnn"
        save_checkpoint(spec, theta, bn, path)
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            # the header is the magic and the version, 8 bytes
            with pytest.raises(FormatError if n < 8 else IntegrityError):
                load_checkpoint(path)

    def test_param_count_mismatch(self, tmp_path):
        spec = micro_spec()
        theta, bn = init_params(spec, seed=4)
        with pytest.raises(IntegrityError, match="entries"):
            save_checkpoint(spec, theta[:-1], bn, tmp_path / "x.fbnn")
