import math
import re

import numpy as np
import pytest

from fedbeam.channel import (
    BeamCodebook,
    ChannelSet,
    beam_powers,
    beam_powers_naive,
    dft_codebook,
    optimal_beam,
    throughput_ratio,
    topk,
    topk_accuracy,
)
from fedbeam.errors import MetricUnavailableError


def random_instance(rng, n_t=None, n_r=None, n_c=None, c_t=None, c_r=None):
    n_t = n_t or rng.integers(1, 9)
    n_r = n_r or rng.integers(1, 5)
    n_c = n_c or rng.integers(1, 9)
    c_t = c_t or rng.integers(1, 9)
    c_r = c_r or rng.integers(1, 5)
    h = rng.standard_normal((n_c, n_r, n_t)) + 1j * rng.standard_normal((n_c, n_r, n_t))
    cb = BeamCodebook.dft(n_t, n_r, c_t, c_r)
    return ChannelSet(h=h), cb


class TestDftCodebook:
    def test_single_antenna_beams_are_all_one(self):
        cb = dft_codebook(1, 4)
        assert cb.shape == (4, 1)
        np.testing.assert_allclose(cb, np.ones((4, 1)), atol=1e-12)

    def test_two_antenna_second_beam(self):
        cb = dft_codebook(2, 2)
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        np.testing.assert_allclose(cb[1], expected, atol=1e-12)

    @pytest.mark.parametrize("antennas,beams", [(1, 1), (4, 4), (8, 16), (3, 7)])
    def test_unit_norm(self, antennas, beams):
        cb = dft_codebook(antennas, beams)
        np.testing.assert_allclose(np.linalg.norm(cb, axis=1), 1.0, atol=1e-12)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            dft_codebook(0, 4)
        with pytest.raises(ValueError):
            dft_codebook(4, 0)


class TestCodebookValidation:
    def test_non_unit_norm_rejected(self):
        bad = np.array([[2.0 + 0j]])
        good = dft_codebook(1, 1)
        with pytest.raises(ValueError, match="norm"):
            BeamCodebook(tx=bad, rx=good)


class TestBeamPowers:
    def test_scalar_case(self):
        ch = ChannelSet(h=np.array([[[2.0 + 0j]]]))
        cb = BeamCodebook(tx=np.array([[1.0 + 0j]]), rx=np.array([[1.0 + 0j]]))
        y = beam_powers(ch, cb)
        np.testing.assert_allclose(y, [[4.0]])

    def test_hand_complex_case(self):
        # H = [1, j], f = (1, -j)/sqrt(2), w = [1] -> w^H H f = sqrt(2), y = 2
        ch = ChannelSet(h=np.array([[[1.0, 1.0j]]]))
        cb = BeamCodebook(
            tx=np.array([[1.0, -1.0j]]) / np.sqrt(2),
            rx=np.array([[1.0 + 0j]]),
        )
        np.testing.assert_allclose(beam_powers(ch, cb), [[2.0]], atol=1e-12)
        np.testing.assert_allclose(beam_powers_naive(ch, cb), [[2.0]], atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ch, cb = random_instance(rng)
            fast = beam_powers(ch, cb)
            slow = beam_powers_naive(ch, cb)
            np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_shape_mismatch_rejected(self):
        ch, _ = random_instance(np.random.default_rng(0), n_t=4, n_r=2)
        cb = BeamCodebook.dft(3, 2, 4, 2)
        with pytest.raises(ValueError, match="match"):
            beam_powers(ch, cb)

    def test_channel_scaling_leaves_argmax_alone(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ch, cb = random_instance(rng)
            c = complex(rng.standard_normal(), rng.standard_normal())
            scaled = ChannelSet(h=c * ch.h)
            y = beam_powers(ch, cb)
            y2 = beam_powers(scaled, cb)
            np.testing.assert_allclose(y2, abs(c) ** 2 * y, rtol=1e-9, atol=1e-12)
            if not np.allclose(y, y.flat[0]):
                assert optimal_beam(y) == optimal_beam(y2)


class TestOptimalBeam:
    def test_inspection(self):
        assert optimal_beam(np.array([[1.0, 2.0], [3.0, 0.0]])) == 2

    def test_all_equal_breaks_to_zero(self):
        assert optimal_beam(np.ones((3, 3))) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_beam(np.zeros((0, 0)))


class TestTopk:
    def test_basic(self):
        np.testing.assert_array_equal(topk(np.array([0.1, 0.5, 0.4]), 2), [1, 2])

    def test_full_set_sorts_descending(self):
        scores = np.array([0.3, 0.9, 0.1, 0.5])
        np.testing.assert_array_equal(topk(scores, 4), [1, 3, 0, 2])

    def test_tie_break_to_lower_index(self):
        np.testing.assert_array_equal(topk(np.array([0.5, 0.5]), 1), [0])

    def test_prefix_monotone(self):
        rng = np.random.default_rng(3)
        scores = rng.choice([0.1, 0.2, 0.3], size=12)  # force ties
        for k in range(1, 12):
            np.testing.assert_array_equal(topk(scores, k), topk(scores, k + 1)[:k])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            topk(np.array([1.0, 2.0]), 0)
        with pytest.raises(ValueError):
            topk(np.array([1.0, 2.0]), 3)


def ranked_loop(row, k):
    """The k best classes of one score row, best first, ties to the lower index."""
    return sorted(range(len(row)), key=lambda c: (-row[c], c))[:k]


def topk_accuracy_loop(predictions, labels):
    """Per-sample-list oracle: fraction of samples whose label is in its set."""
    if len(predictions) != len(labels):
        raise ValueError(f"got {len(predictions)} prediction sets for {len(labels)} labels")
    hits = sum(1 for s, b in zip(predictions, labels) if b in s)
    return hits / len(labels)


def throughput_ratio_loop(power_rows, predictions):
    """Per-sample-list oracle: summed log2(1 + best power in the set) over the
    same sum for each sample's optimum; None rows make the metric unavailable."""
    num = den = 0.0
    for y, s in zip(power_rows, predictions):
        if y is None:
            raise MetricUnavailableError("a sample has no powers")
        flat = [float(v) for v in np.asarray(y).reshape(-1)]
        num += math.log2(1.0 + max(flat[c] for c in s))
        den += math.log2(1.0 + max(flat))
    return 1.0 if den == 0.0 else num / den


def oracle_curves(probs, labels, powers, k_max):
    acc, ratio = [], []
    for k in range(1, k_max + 1):
        sets = [ranked_loop(row, k) for row in probs.tolist()]
        acc.append(topk_accuracy_loop(sets, labels.tolist()))
        ratio.append(throughput_ratio_loop(list(powers), sets))
    return acc, ratio


class TestAccuracy:
    def test_exhaustive_set_is_perfect(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 8, size=20)
        probs = rng.standard_normal((20, 8))
        assert topk_accuracy(probs, labels, 8)[-1] == 1.0

    def test_random_scorer_rate(self):
        # K=10 of 256 labels: hit rate should be ~10/256
        rng = np.random.default_rng(0)
        n = 4000
        labels = rng.integers(0, 256, size=n)
        acc = topk_accuracy(rng.standard_normal((n, 256)), labels, 10)[9]
        p = 10 / 256
        se = np.sqrt(p * (1 - p) / n)
        assert abs(acc - p) < 4 * se

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="score rows"):
            topk_accuracy(np.zeros((1, 2)), [0, 1], 1)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 16, size=50)
        accs = topk_accuracy(rng.standard_normal((50, 16)), labels, 16)
        assert accs.shape == (16,)
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0

    def test_ties_go_to_lower_index(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.2, 0.4, 0.4]])
        np.testing.assert_array_equal(topk_accuracy(probs, [0, 1], 2), [1.0, 1.0])


class TestThroughputRatio:
    def test_optimal_sets_give_one(self):
        rng = np.random.default_rng(2)
        powers = rng.uniform(0, 5, size=(10, 8))
        np.testing.assert_allclose(throughput_ratio(powers, powers, 8), 1.0, rtol=1e-12)

    def test_hand_arithmetic(self):
        # optimum power 3, best-in-set power 1 -> log2(2)/log2(4) = 0.5
        ratio = throughput_ratio(np.array([[0.0, 1.0]]), np.array([[3.0, 1.0]]), 2)
        np.testing.assert_allclose(ratio, [0.5, 1.0])

    def test_missing_powers_is_unavailable(self):
        with pytest.raises(MetricUnavailableError):
            throughput_ratio(np.zeros((1, 2)), None, 1)

    def test_all_zero_powers_give_one(self):
        ratio = throughput_ratio(np.array([[0.2, 0.8], [0.9, 0.1]]), np.zeros((2, 2)), 2)
        np.testing.assert_array_equal(ratio, [1.0, 1.0])

    def test_monotone_in_k_and_bounded(self):
        rng = np.random.default_rng(4)
        powers = rng.uniform(0, 5, size=(30, 8))
        ratios = throughput_ratio(rng.standard_normal((30, 8)), powers, 8)
        assert ratios.shape == (8,)
        assert np.all((ratios >= 0.0) & (ratios <= 1.0 + 1e-12))
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0)


class TestCurvesMatchLoopOracles:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_cases_with_forced_ties(self, seed):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(1, 40)), int(rng.integers(1, 20))
        probs = rng.choice([0.1, 0.2, 0.3], size=(n, c)) if seed % 2 else rng.random((n, c))
        labels = rng.integers(0, c, size=n)
        powers = rng.choice([0.0, 1.0, 2.5, rng.uniform(0, 9)], size=(n, c))
        for k_max in sorted({1, max(1, c // 2), c}):
            want_acc, want_ratio = oracle_curves(probs, labels, powers, k_max)
            assert topk_accuracy(probs, labels, k_max).tolist() == want_acc
            np.testing.assert_allclose(throughput_ratio(probs, powers, k_max), want_ratio,
                                       rtol=0, atol=1e-12)

    def test_missing_powers_unavailable_in_both(self):
        probs = np.ones((2, 3))
        with pytest.raises(MetricUnavailableError):
            throughput_ratio_loop([np.ones(3), None], [[0], [0]])
        with pytest.raises(MetricUnavailableError):
            throughput_ratio(probs, None, 2)

    @pytest.mark.parametrize("probs,rows,k_max,match", [
        (np.zeros((2, 3)), np.zeros(3), 1, "score rows"),
        (np.zeros((0, 3)), np.zeros(0), 1, "at least one"),
        (np.zeros((2, 3)), np.zeros(2), 0, "k_max"),
        (np.zeros((2, 3)), np.zeros(2), 4, "k_max"),
        (np.zeros(3), np.zeros(3), 1, "(N, C)"),
    ])
    def test_invalid_input_rejected(self, probs, rows, k_max, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            topk_accuracy(probs, rows.astype(int), k_max)
        with pytest.raises(ValueError, match=re.escape(match)):
            throughput_ratio(probs, np.zeros((len(rows), 3)), k_max)

    def test_powers_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            throughput_ratio(np.zeros((2, 3)), np.zeros((2, 4)), 1)
