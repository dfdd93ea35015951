import json
import logging
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbeam.channel import dft_codebook
from fedbeam.dataset import (
    Dataset,
    DatasetMeta,
    IngestSpec,
    Sample,
    SynthConfig,
    export_exchange,
    generate_synthetic,
    ingest_external,
    load_dataset,
    partition_uniform,
    save_dataset,
    synthesize_scene,
)
from fedbeam.errors import FormatError, IngestError, IntegrityError


def small_meta(c_t=2, c_r=2):
    return DatasetMeta(c_t=c_t, c_r=c_r, n_t=4, n_r=2, n_c=3,
                       area=(0.0, 10.0, 0.0, 100.0), seed=7)


def one_sample(n_pairs=4, with_powers=True, rng=None):
    rng = rng or np.random.default_rng(0)
    powers = rng.uniform(0, 5, n_pairs).astype(np.float32) if with_powers else None
    label = int(np.argmax(powers)) if with_powers else int(rng.integers(n_pairs))
    return Sample(
        cloud=rng.uniform(0, 10, (int(rng.integers(0, 5)), 3)),
        vehicle_pos=rng.uniform(0, 10, 3),
        bs_pos=rng.uniform(0, 10, 3),
        label=label,
        powers=powers,
    )


class TestSampleInvariants:
    def test_label_must_be_argmax_of_powers(self):
        with pytest.raises(ValueError, match="argmax"):
            Sample(cloud=np.zeros((0, 3)), vehicle_pos=np.zeros(3), bs_pos=np.zeros(3),
                   label=0, powers=np.array([1.0, 2.0]))

    def test_negative_powers_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Sample(cloud=np.zeros((0, 3)), vehicle_pos=np.zeros(3), bs_pos=np.zeros(3),
                   label=0, powers=np.array([1.0, -2.0]))

    def test_non_finite_position_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Sample(cloud=np.zeros((0, 3)), vehicle_pos=[0, np.nan, 0], bs_pos=np.zeros(3), label=0)

    def test_label_range_checked_by_dataset(self):
        s = Sample(cloud=np.zeros((0, 3)), vehicle_pos=np.zeros(3), bs_pos=np.zeros(3), label=99)
        with pytest.raises(ValueError, match="label 99"):
            Dataset(meta=small_meta(), samples=[s])


class TestPowers:
    def test_stacks_rows_as_float64(self):
        rng = np.random.default_rng(1)
        samples = [one_sample(rng=rng) for _ in range(3)]
        powers = Dataset(meta=small_meta(), samples=samples).powers()
        assert powers.dtype == np.float64 and powers.shape == (3, 4)
        np.testing.assert_array_equal(powers, np.stack([s.powers for s in samples]))

    def test_one_missing_row_makes_none(self):
        rng = np.random.default_rng(2)
        samples = [one_sample(rng=rng), one_sample(with_powers=False, rng=rng)]
        assert Dataset(meta=small_meta(), samples=samples).powers() is None

    def test_empty_dataset_gives_empty_matrix(self):
        assert Dataset(meta=small_meta(), samples=[]).powers().shape == (0, 4)


class TestRoundTrip:
    def test_empty_dataset(self, tmp_path):
        ds = Dataset(meta=small_meta(), samples=[])
        path = tmp_path / "empty.fbds"
        save_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_single_sample_every_field(self, tmp_path):
        s = Sample(
            cloud=np.array([[1.5, 2.5, 0.25], [3.0, 4.0, 1.0]], dtype=np.float32),
            vehicle_pos=np.array([1.0, 2.0, 1.6], dtype=np.float32),
            bs_pos=np.array([0.0, 50.0, 5.0], dtype=np.float32),
            label=3,
            powers=np.array([0.1, 0.2, 0.3, 0.9], dtype=np.float32),
        )
        ds = Dataset(meta=small_meta(), samples=[s])
        path = tmp_path / "one.fbds"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back == ds
        np.testing.assert_array_equal(back.samples[0].powers, s.powers)

    def test_truncated_file_names_sample_index(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(meta=small_meta(), samples=[one_sample(rng=rng) for _ in range(5)])
        path = tmp_path / "full.fbds"
        save_dataset(ds, path)
        data = path.read_bytes()
        # header is 50 bytes; each sample here is fixed-size given its cloud
        sizes = [4 + 12 * len(s.cloud) + 12 + 12 + 3 + 16 for s in ds.samples]
        cut = 50 + sum(sizes[:3]) + 5  # a few bytes into sample 3
        trunc = tmp_path / "trunc.fbds"
        trunc.write_bytes(data[:cut])
        with pytest.raises(IntegrityError, match="sample 3"):
            load_dataset(trunc)

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "bad.fbds"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = Dataset(meta=small_meta(), samples=[one_sample()])
        path = tmp_path / "d.fbds"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(IntegrityError, match="trailing"):
            load_dataset(path)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_roundtrip_property(self, data):
        c_t = data.draw(st.integers(1, 4), label="c_t")
        c_r = data.draw(st.integers(1, 3), label="c_r")
        meta = DatasetMeta(
            c_t=c_t, c_r=c_r,
            n_t=data.draw(st.integers(1, 8)),
            n_r=data.draw(st.integers(1, 4)),
            n_c=data.draw(st.integers(1, 8)),
            area=tuple(data.draw(st.lists(
                st.floats(-1e4, 1e4, allow_nan=False, width=32), min_size=4, max_size=4))),
            seed=data.draw(st.integers(0, 2**64 - 1)),
        )
        coord = st.floats(-1e5, 1e5, allow_nan=False, width=32)
        samples = []
        for _ in range(data.draw(st.integers(0, 4), label="n_samples")):
            n_points = data.draw(st.integers(0, 5))
            cloud = np.array(
                data.draw(st.lists(st.tuples(coord, coord, coord),
                                   min_size=n_points, max_size=n_points)),
                dtype=np.float32,
            ).reshape(-1, 3)
            with_powers = data.draw(st.booleans())
            if with_powers:
                powers = np.array(
                    data.draw(st.lists(st.floats(0, 1e6, allow_nan=False, width=32),
                                       min_size=c_t * c_r, max_size=c_t * c_r)),
                    dtype=np.float32,
                )
                label = int(np.argmax(powers))
            else:
                powers = None
                label = data.draw(st.integers(0, c_t * c_r - 1))
            samples.append(Sample(
                cloud=cloud,
                vehicle_pos=np.array(data.draw(st.tuples(coord, coord, coord)), dtype=np.float32),
                bs_pos=np.array(data.draw(st.tuples(coord, coord, coord)), dtype=np.float32),
                label=label,
                powers=powers,
            ))
        ds = Dataset(meta=meta, samples=samples)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "p.fbds")
            save_dataset(ds, path)
            assert load_dataset(path) == ds


class TestPartition:
    def test_even_split(self):
        ds = Dataset(meta=small_meta(), samples=[])
        ds.samples = [None] * 11000  # partition only needs the length
        p = partition_uniform(ds, 5, seed=0)
        assert [len(a) for a in p] == [2200] * 5

    def test_single_vehicle_gets_permutation(self):
        ds = Dataset(meta=small_meta(), samples=[one_sample() for _ in range(10)])
        p = partition_uniform(ds, 1, seed=3)
        assert sorted(p[0].tolist()) == list(range(10))

    def test_remainder_sizes_and_reproducibility(self):
        ds = Dataset(meta=small_meta(), samples=[one_sample() for _ in range(10)])
        p1 = partition_uniform(ds, 3, seed=42)
        p2 = partition_uniform(ds, 3, seed=42)
        assert [len(a) for a in p1] == [4, 3, 3]
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)
        flat = np.concatenate(p1)
        assert sorted(flat.tolist()) == list(range(10))

    def test_too_many_vehicles_rejected(self):
        ds = Dataset(meta=small_meta(), samples=[one_sample()])
        with pytest.raises(ValueError):
            partition_uniform(ds, 2, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 60), v_frac=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_disjoint_and_covering(self, n, v_frac, seed):
        v = max(1, int(round(v_frac * n)))
        ds = Dataset(meta=small_meta(), samples=[])
        ds.samples = [None] * n
        p = partition_uniform(ds, v, seed)
        flat = np.concatenate(p)
        assert len(flat) == n
        assert len(set(flat.tolist())) == n
        sizes = [len(a) for a in p]
        assert max(sizes) - min(sizes) <= 1


class TestSynthetic:
    def test_deterministic_byte_identical(self, tmp_path):
        cfg = SynthConfig(obstacles=3)
        a = generate_synthetic(cfg, 20, seed=9)
        b = generate_synthetic(cfg, 20, seed=9)
        pa, pb = tmp_path / "a.fbds", tmp_path / "b.fbds"
        save_dataset(a, pa)
        save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        cfg = SynthConfig(obstacles=3)
        a = generate_synthetic(cfg, 10, seed=1)
        b = generate_synthetic(cfg, 10, seed=2)
        assert a != b

    def test_label_is_argmax_of_powers(self):
        ds = generate_synthetic(SynthConfig(), 50, seed=5)
        for s in ds.samples:
            assert s.label == int(np.argmax(s.powers))

    def test_no_obstacles_means_empty_clouds(self):
        ds = generate_synthetic(SynthConfig(obstacles=0), 20, seed=0)
        assert all(len(s.cloud) == 0 for s in ds.samples)

    def test_pure_los_label_matches_geometric_prediction(self):
        cfg = SynthConfig(obstacles=0)
        ds = generate_synthetic(cfg, 50, seed=11)
        f = dft_codebook(cfg.n_t, cfg.c_t)
        w = dft_codebook(cfg.n_r, cfg.c_r)
        bs = np.asarray(cfg.bs_pos)
        for s in ds.samples:
            d = s.vehicle_pos.astype(np.float64) - bs
            sy = d[1] / np.linalg.norm(d)
            a_t = np.exp(1j * np.pi * np.arange(cfg.n_t) * sy) / np.sqrt(cfg.n_t)
            a_r = np.exp(1j * np.pi * np.arange(cfg.n_r) * sy) / np.sqrt(cfg.n_r)
            tx_scores = np.abs(f.conj() @ a_t)
            rx_scores = np.abs(w.conj() @ a_r)
            # skip knife-edge ties between adjacent beams
            if np.ptp(np.sort(tx_scores)[-2:]) < 1e-9 or np.ptp(np.sort(rx_scores)[-2:]) < 1e-9:
                continue
            predicted = int(np.argmax(tx_scores)) * cfg.c_r + int(np.argmax(rx_scores))
            assert s.label == predicted

    def test_boresight_vehicle_hits_broadside_beam(self):
        cfg = SynthConfig(obstacles=0)
        # boresight of a ULA along y: vehicle at the BS's own y coordinate
        s = synthesize_scene(cfg, (5.0, cfg.bs_pos[1]), [])
        f = dft_codebook(cfg.n_t, cfg.c_t)
        d = s.vehicle_pos.astype(np.float64) - np.asarray(cfg.bs_pos)
        sy = d[1] / np.linalg.norm(d)
        a_t = np.exp(1j * np.pi * np.arange(cfg.n_t) * sy) / np.sqrt(cfg.n_t)
        nearest = int(np.argmax(np.abs(f.conj() @ a_t)))
        assert s.label // cfg.c_r == nearest
        assert nearest == 0  # broadside aligns with the zero-phase beam

    def test_default_config_label_histogram_non_degenerate(self, synthetic_train):
        counts = np.bincount(synthetic_train.labels(),
                             minlength=synthetic_train.meta.n_pairs)
        assert counts.max() / len(synthetic_train) <= 0.30

    def test_obstructed_scenes_have_points(self):
        ds = generate_synthetic(SynthConfig(), 30, seed=3)
        assert sum(len(s.cloud) for s in ds.samples) > 0


class TestIngest:
    def test_exploded_save_round_trips(self, tmp_path):
        ds = generate_synthetic(SynthConfig(obstacles=2), 12, seed=4)
        spec = export_exchange(ds, tmp_path / "exch")
        back = ingest_external(tmp_path / "exch", spec)
        assert back == ds

    def test_spec_loadable_from_json(self, tmp_path):
        ds = generate_synthetic(SynthConfig(obstacles=2), 3, seed=4)
        export_exchange(ds, tmp_path / "exch")
        back = ingest_external(tmp_path / "exch", tmp_path / "exch" / "ingest.json")
        assert back == ds

    def _write_minimal(self, d, n, n_pairs, powers=None, labels=None):
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, "meta.json"), "w") as f:
            json.dump({"c_t": 2, "c_r": 2, "n_t": 4, "n_r": 2, "n_c": 3,
                       "area": [0, 10, 0, 100], "seed": 0}, f)
        for k in range(n):
            np.save(os.path.join(d, f"cloud_{k:06d}.npy"), np.zeros((0, 3), np.float32))
        np.save(os.path.join(d, "vehicle_pos.npy"), np.ones((n, 3), np.float32))
        np.save(os.path.join(d, "bs_pos.npy"), np.zeros(3, np.float32))
        if powers is not None:
            np.save(os.path.join(d, "powers.npy"), powers)
        if labels is not None:
            np.save(os.path.join(d, "labels.npy"), labels)

    def test_label_recomputed_from_powers(self, tmp_path):
        d = str(tmp_path / "x")
        powers = np.array([[0.1, 0.9, 0.2, 0.3]], dtype=np.float32)
        self._write_minimal(d, 1, 4, powers=powers, labels=np.array([-1]))
        ds = ingest_external(d)
        assert ds.samples[0].label == 1
        np.testing.assert_array_equal(ds.samples[0].powers, powers[0])

    def test_label_only_has_no_powers(self, tmp_path):
        d = str(tmp_path / "x")
        self._write_minimal(d, 2, 4, labels=np.array([3, 0]))
        ds = ingest_external(d)
        assert [s.label for s in ds.samples] == [3, 0]
        assert all(s.powers is None for s in ds.samples)

    def test_samples_without_either_are_skipped_and_counted(self, tmp_path, caplog):
        d = str(tmp_path / "x")
        powers = np.full((3, 4), np.nan, dtype=np.float32)
        powers[0] = [0.1, 0.2, 0.3, 0.4]
        self._write_minimal(d, 3, 4, powers=powers, labels=np.array([-1, 2, -1]))
        with caplog.at_level(logging.WARNING, logger="fedbeam.dataset"):
            ds = ingest_external(d)
        assert len(ds) == 2
        assert "skipped 1 of 3" in caplog.text

    def test_missing_arrays_listed(self, tmp_path):
        d = str(tmp_path / "x")
        self._write_minimal(d, 1, 4, labels=np.array([0]))
        os.remove(os.path.join(d, "vehicle_pos.npy"))
        with pytest.raises(IngestError, match="vehicle_pos"):
            ingest_external(d)

    def test_neither_powers_nor_labels_rejected(self, tmp_path):
        d = str(tmp_path / "x")
        self._write_minimal(d, 1, 4)
        with pytest.raises(IngestError, match="at least one"):
            ingest_external(d)
