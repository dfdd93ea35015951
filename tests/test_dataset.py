import json
import logging
import os
import re
import struct
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    blocked_naive,
    draw_scenes_naive,
    face_points_naive,
    load_dataset_naive,
    reflection_hits_naive,
)
from fedbeam import dataset
from fedbeam.channel import dft_codebook
from fedbeam.dataset import (
    MAX_CLOUD_POINTS,
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
from fedbeam.errors import FormatError, IngestError, IntegrityError, is_float32


# Golden files written by the per-box geometry code before the one-pass clip
# replaced it; regenerating each must reproduce it byte for byte. Never remake
# them: a mismatch means a scene's bytes moved.
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_CASES = [
    ("synth_default.fbds", {}, 16, 2021),
    ("synth_12_obstacles.fbds", {"obstacles": 12, "point_spacing": 0.7}, 8, 2022),
    ("synth_no_obstacles.fbds", {"obstacles": 0}, 4, 2023),
]


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

    @pytest.mark.parametrize("field", ["vehicle_pos", "bs_pos"])
    def test_empty_cloud_fault_names_its_field(self, field):
        # an empty cloud counts no faults, not the next field's
        kwargs = {"vehicle_pos": np.zeros(3), "bs_pos": np.zeros(3), field: [np.inf, 0, 0]}
        with pytest.raises(ValueError, match=f"^{field} holds non-finite coordinates$"):
            Sample(cloud=np.zeros((0, 3)), label=0, **kwargs)

    def test_cloud_fault_comes_first(self):
        with pytest.raises(ValueError, match="^cloud holds non-finite"):
            Sample(cloud=[[0, 0, np.nan]], vehicle_pos=[np.nan] * 3, bs_pos=np.zeros(3), label=0,
                   powers=[-1.0])

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="label must be nonnegative, got -1"):
            Sample(cloud=np.zeros((0, 3)), vehicle_pos=np.zeros(3), bs_pos=np.zeros(3), label=-1)

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


@st.composite
def sample_lists(draw):
    """A meta block and a few Samples of random counts (empty clouds
    included), coordinates, powers and labels, some without powers."""
    c_t = draw(st.integers(1, 4), label="c_t")
    c_r = draw(st.integers(1, 3), label="c_r")
    meta = DatasetMeta(
        c_t=c_t, c_r=c_r,
        n_t=draw(st.integers(1, 8)),
        n_r=draw(st.integers(1, 4)),
        n_c=draw(st.integers(1, 8)),
        area=tuple(draw(st.lists(
            st.floats(-1e4, 1e4, allow_nan=False, width=32), min_size=4, max_size=4))),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    coord = st.floats(-1e5, 1e5, allow_nan=False, width=32)
    samples = []
    for _ in range(draw(st.integers(0, 4), label="n_samples")):
        n_points = draw(st.integers(0, 5))
        cloud = np.array(
            draw(st.lists(st.tuples(coord, coord, coord), min_size=n_points, max_size=n_points)),
            dtype=np.float32,
        ).reshape(-1, 3)
        if draw(st.booleans()):
            powers = np.array(
                draw(st.lists(st.floats(0, 1e6, allow_nan=False, width=32),
                              min_size=c_t * c_r, max_size=c_t * c_r)),
                dtype=np.float32,
            )
            label = int(np.argmax(powers))
        else:
            powers = None
            label = draw(st.integers(0, c_t * c_r - 1))
        samples.append(Sample(
            cloud=cloud,
            vehicle_pos=np.array(draw(st.tuples(coord, coord, coord)), dtype=np.float32),
            bs_pos=np.array(draw(st.tuples(coord, coord, coord)), dtype=np.float32),
            label=label,
            powers=powers,
        ))
    return meta, samples


@st.composite
def datasets(draw):
    """A small Dataset of random counts, coordinates, powers and labels."""
    return Dataset(*draw(sample_lists()))


def fbds_records(data):
    """Byte offsets of each record's fields in a well-formed .fbds file:
    dicts of count, cloud, vehicle, bs, label, flag and powers (None when
    the flag is 0), plus n_points and n_pairs."""
    c_t, c_r = struct.unpack_from("<2H", data, 8)
    (count,) = struct.unpack_from("<Q", data, 42)
    records, at = [], 50
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, at)
        rec = {"count": at, "n_points": n, "n_pairs": c_t * c_r, "cloud": at + 4}
        rec["vehicle"] = rec["cloud"] + 12 * n
        rec["bs"] = rec["vehicle"] + 12
        rec["label"] = rec["bs"] + 12
        rec["flag"] = rec["label"] + 2
        rec["powers"] = rec["flag"] + 1 if data[rec["flag"]] else None
        at = rec["flag"] + 1 + (4 * c_t * c_r if data[rec["flag"]] else 0)
        records.append(rec)
    return records


def corrupt(data, buf):
    """Apply one to three drawn corruptions to the .fbds bytes in buf: byte
    flips, non-finite floats, negative powers, labels, flags and point counts
    over MAX_CLOUD_POINTS written into a record, trailing bytes, or a cut."""
    records = fbds_records(bytes(buf))

    def put(fmt, at, value):
        if at is not None and at + struct.calcsize(fmt) <= len(buf):
            struct.pack_into(fmt, buf, at, value)

    for _ in range(data.draw(st.integers(1, 3), label="n_corruptions")):
        kind = data.draw(st.sampled_from(
            ["flip", "nonfinite", "negative_power", "label", "flag", "points", "trailing", "cut"]))
        if kind == "flip" and buf:
            at = data.draw(st.integers(0, len(buf) - 1))
            buf[at] ^= data.draw(st.integers(1, 255))
        elif kind == "trailing":
            buf.extend(data.draw(st.binary(min_size=1, max_size=8)))
        elif kind == "cut":
            del buf[data.draw(st.integers(0, len(buf))):]
        elif records:
            rec = data.draw(st.sampled_from(records))
            if kind == "nonfinite":
                # cloud, vehicle and BS floats are contiguous
                floats = [rec["cloud"] + 4 * i for i in range(3 * rec["n_points"] + 6)]
                if rec["powers"] is not None:
                    floats += [rec["powers"] + 4 * i for i in range(rec["n_pairs"])]
                put("<f", data.draw(st.sampled_from(floats)), data.draw(st.sampled_from([np.nan, np.inf, -np.inf])))
            elif kind == "negative_power" and rec["powers"] is not None:
                i = data.draw(st.integers(0, rec["n_pairs"] - 1))
                put("<f", rec["powers"] + 4 * i, data.draw(st.floats(-1e6, -2.0**-100, width=32)))
            elif kind == "label":
                put("<H", rec["label"], data.draw(st.integers(0, 2**16 - 1)))
            elif kind == "flag":
                put("<B", rec["flag"], data.draw(st.integers(0, 255)))
            elif kind == "points":
                put("<I", rec["count"], data.draw(st.integers(MAX_CLOUD_POINTS + 1, 2**32 - 1)))


def load_outcome(loader, path):
    """The Dataset that loader reads from path, or its error's (class, message)."""
    try:
        return loader(path)
    except (FormatError, IntegrityError) as e:
        return type(e), str(e)


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

    def test_label_above_u16_rejected_before_writing(self, tmp_path):
        # 300 x 300 beam pairs is a legal meta, but the label field is u16
        s = Sample(cloud=np.zeros((0, 3)), vehicle_pos=np.zeros(3), bs_pos=np.zeros(3),
                   label=70000)
        ds = Dataset(meta=small_meta(c_t=300, c_r=300), samples=[s])
        path = tmp_path / "wide.fbds"
        with pytest.raises(ValueError, match="label 70000 exceeds the u16 label limit 65535"):
            save_dataset(ds, path)
        assert not path.exists()

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

    def test_every_prefix_is_format_or_integrity_error(self, tmp_path):
        path = tmp_path / "prefix.fbds"
        for name, *_ in GOLDEN_CASES:
            with open(os.path.join(GOLDEN_DIR, name), "rb") as f:
                data = f.read()
            for n in range(len(data)):
                path.write_bytes(data[:n])
                got = load_outcome(load_dataset, path)
                # the header (magic, version, meta block) is the first 50 bytes
                assert got[0] is (FormatError if n < 50 else IntegrityError), (name, n)
                assert got == load_outcome(load_dataset_naive, path), (name, n)

    @settings(max_examples=30, deadline=None)
    @given(ds=datasets())
    def test_roundtrip_property(self, ds):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "p.fbds")
            save_dataset(ds, path)
            assert load_dataset(path) == ds

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupted_files_match_oracle(self, data):
        """A damaged file loads as the record-by-record oracle loads it, or
        fails with the same class and message. The one difference allowed:
        a powers flag of 2-255, which the oracle reads as 1."""
        source = data.draw(st.sampled_from([None] + [c[0] for c in GOLDEN_CASES]), label="source")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.fbds")
            if source is None:
                save_dataset(data.draw(datasets(), label="dataset"), path)
            else:
                path = os.path.join(GOLDEN_DIR, source)
            with open(path, "rb") as f:
                buf = bytearray(f.read())
            corrupt(data, buf)
            path = os.path.join(d, "c.fbds")
            with open(path, "wb") as f:
                f.write(buf)
            got = load_outcome(load_dataset, path)
            flag = (re.fullmatch(r"sample (\d+) has powers flag (\d+), expected 0 or 1 \(byte offset (\d+)\)",
                                 got[1]) if isinstance(got, tuple) else None)
            if flag is None:
                assert got == load_outcome(load_dataset_naive, path)
                return
            k, value, at = map(int, flag.groups())
            assert got[0] is IntegrityError and value == buf[at] and value >= 2
            # the oracle meets no fault before that byte
            with open(path, "wb") as f:
                f.write(buf[: at - 2])
            assert load_outcome(load_dataset_naive, path) == (
                IntegrityError, f"file truncated while reading label/powers flag of sample {k} (byte offset {at - 2})")

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_powers_flag_other_than_0_or_1_rejected(self, tmp_path, flag):
        with open(os.path.join(GOLDEN_DIR, "synth_default.fbds"), "rb") as f:
            buf = bytearray(f.read())
        at = fbds_records(buf)[0]["flag"]
        assert buf[at] == 1
        buf[at] = flag
        path = tmp_path / "flag.fbds"
        path.write_bytes(buf)
        with pytest.raises(IntegrityError, match=re.escape(
                f"sample 0 has powers flag {flag}, expected 0 or 1 (byte offset {at})")):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["vehicle", "bs"])
    def test_empty_cloud_fault_names_its_field(self, tmp_path, field):
        with open(os.path.join(GOLDEN_DIR, "synth_no_obstacles.fbds"), "rb") as f:
            buf = bytearray(f.read())
        rec = fbds_records(buf)[2]
        assert rec["n_points"] == 0
        struct.pack_into("<f", buf, rec[field], np.nan)  # x, the float right after the cloud
        path = tmp_path / "nan.fbds"
        path.write_bytes(buf)
        name = {"vehicle": "vehicle_pos", "bs": "bs_pos"}[field]
        with pytest.raises(IntegrityError, match=f"^sample 2 violates invariants: {name} holds non-finite"):
            load_dataset(path)
        assert load_outcome(load_dataset_naive, path) == load_outcome(load_dataset, path)

    def test_earlier_invariant_beats_later_truncation(self, tmp_path):
        with open(os.path.join(GOLDEN_DIR, "synth_default.fbds"), "rb") as f:
            buf = bytearray(f.read())
        records = fbds_records(buf)
        struct.pack_into("<f", buf, records[1]["powers"], -1.0)
        path = tmp_path / "both.fbds"
        path.write_bytes(buf[: records[3]["cloud"] + 5])
        with pytest.raises(IntegrityError, match="^sample 1 violates invariants: powers must be finite"):
            load_dataset(path)
        # a trailing byte comes after every sample's invariants too
        path.write_bytes(buf + b"x")
        with pytest.raises(IntegrityError, match="^sample 1 violates invariants"):
            load_dataset(path)

    @pytest.mark.parametrize("name", [c[0] for c in GOLDEN_CASES])
    def test_load_then_save_reproduces_golden_bytes(self, tmp_path, name):
        golden = os.path.join(GOLDEN_DIR, name)
        path = tmp_path / name
        save_dataset(load_dataset(golden), path)
        with open(golden, "rb") as f:
            assert path.read_bytes() == f.read()

    def test_loaded_arrays_are_float32_writable_and_disjoint(self):
        ds = load_dataset(os.path.join(GOLDEN_DIR, "synth_12_obstacles.fbds"))
        arrays = [a for s in ds.samples for a in (s.cloud, s.vehicle_pos, s.bs_pos, s.powers)]
        assert all(a.dtype == np.float32 and a.flags.writeable for a in arrays)
        assert [a.shape for a in arrays[1:4]] == [(3,), (3,), (ds.meta.n_pairs,)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])

    def test_huge_declared_count_fails_in_small_memory(self, tmp_path):
        ds = Dataset(meta=small_meta(), samples=[one_sample()])
        path = tmp_path / "huge.fbds"
        save_dataset(ds, path)
        buf = bytearray(path.read_bytes())
        struct.pack_into("<Q", buf, 42, 2**60)  # the sample count ends the 50-byte header
        path.write_bytes(buf)
        tracemalloc.start()
        try:
            with pytest.raises(IntegrityError, match="point count of sample 1"):
                load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10


class TestColumns:
    @settings(max_examples=60, deadline=None)
    @given(case=sample_lists())
    def test_samples_round_trip_through_columns(self, case):
        meta, samples = case
        ds = Dataset(meta, samples)
        assert len(ds) == len(ds.samples) == len(samples)
        for got, want in zip(ds.samples, samples):
            assert type(got.label) is int and got.label == want.label
            assert (got.powers is None) == (want.powers is None)
            for name in ("cloud", "vehicle_pos", "bs_pos", "powers"):
                a, b = getattr(got, name), getattr(want, name)
                if b is not None:
                    assert a.dtype == np.float32 and a.shape == b.shape and a.tobytes() == b.tobytes()
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.fbds")
            save_dataset(ds, path)
            assert load_dataset_naive(path) == ds
        # the same floats, one point moved from one scene to the next
        floats, n_points, *rest = ds.columns
        donors = np.flatnonzero(n_points)
        if len(n_points) > 1 and len(donors):
            moved = n_points.copy()
            moved[donors[0]] -= 1
            moved[(donors[0] + 1) % len(moved)] += 1
            other = Dataset._from_columns(meta, floats, moved, *rest)
            assert other != ds and ds != other

    def test_samples_are_built_once(self):
        ds = load_dataset(os.path.join(GOLDEN_DIR, "synth_no_obstacles.fbds"))
        first = ds.samples
        assert ds.samples is first
        assert len({id(s) for s in first}) == len(ds)

    @pytest.mark.parametrize("powers, label, message", [
        (None, 4, "sample 1: label 4 >= C_t*C_r = 4"),
        ([1.0, 0.0, 0.0], 0, "sample 1: powers length 3 != 4"),
    ])
    def test_contradiction_of_meta_names_first_sample(self, powers, label, message):
        bad = Sample(cloud=np.zeros((0, 3)), vehicle_pos=np.zeros(3), bs_pos=np.zeros(3),
                     label=label, powers=powers)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(small_meta(), [one_sample(), bad, one_sample(n_pairs=5)])


class TestPartition:
    def test_even_split(self):
        p = partition_uniform(11000, 5, seed=0)
        assert [len(a) for a in p] == [2200] * 5

    def test_single_vehicle_gets_permutation(self):
        p = partition_uniform(10, 1, seed=3)
        assert sorted(p[0].tolist()) == list(range(10))

    def test_remainder_sizes_and_reproducibility(self):
        p1 = partition_uniform(10, 3, seed=42)
        p2 = partition_uniform(10, 3, seed=42)
        assert [len(a) for a in p1] == [4, 3, 3]
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)
        flat = np.concatenate(p1)
        assert sorted(flat.tolist()) == list(range(10))

    def test_too_many_vehicles_rejected(self):
        with pytest.raises(ValueError):
            partition_uniform(1, 2, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 60), v_frac=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_disjoint_and_covering(self, n, v_frac, seed):
        v = max(1, int(round(v_frac * n)))
        p = partition_uniform(n, v, seed)
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

    @pytest.mark.parametrize("area", [(-1e308, 1e308, 0, 100), (0, 10, -1e308, 1e308)])
    def test_area_extent_must_be_finite(self, area):
        # both bounds are finite, but x_max - x_min or y_max - y_min is inf
        with pytest.raises(ValueError, match="area width and length must be finite"):
            SynthConfig(area=area)

    @pytest.mark.parametrize("overrides, field", [
        ({"area": (0, 1e39, 0, 100)}, "area"),
        ({"area": (-3.5e38, 10, 0, 100)}, "area"),
        ({"bs_pos": (-1e39, 50, 5)}, "bs_pos"),
        ({"vehicle_height": 1e39}, "vehicle_height"),
    ])
    def test_values_beyond_float32_rejected(self, overrides, field):
        # each is stored as float32, where it would become inf
        with pytest.raises(ValueError, match=f"^{field} must stay finite as float32"):
            SynthConfig(**overrides)

    @pytest.mark.parametrize("area", [(1e8, 1e8 + 1, 0, 100), (0, 1e-46, 0, 100), (0, 10, 0, 0)])
    def test_area_degenerate_as_float32_rejected(self, area):
        # the first two have width in float64 and none in the float32 .fbds stores
        with pytest.raises(ValueError, match="^area box is degenerate as float32"):
            SynthConfig(area=area)

    def test_meta_area_beyond_float32_rejected(self):
        with pytest.raises(ValueError, match="^area must stay finite as float32"):
            DatasetMeta(1, 1, 1, 1, 1, (0, 1e39, 0, 1), 0)

    def test_float32_bound_matches_the_cast(self):
        edge = 2.0**128 - 2.0**103
        for v in (edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf), float(np.finfo(np.float32).max)):
            with np.errstate(over="ignore"):
                fits = bool(np.isfinite(np.float32(v)))
            assert is_float32(v) == is_float32(-v) == fits, v

    def test_street_wide_boxes_in_a_rounding_area(self):
        # 0.4 - (0.4 - 0.1) rounds below 0.1: a box clamped to the street's width
        # was a raw "high - low < 0" from Generator.uniform; it now spans the street
        cfg = SynthConfig(area=(0.1, 0.4, 0.0, 100.0), obstacle_size_x=(1.0, 3.0))
        positions, boxes = dataset._draw_scenes(cfg, 20, np.random.default_rng(0))
        assert np.allclose(boxes[..., :2], (0.1, 0.4), rtol=0, atol=1e-15)
        assert len(generate_synthetic(cfg, 5, seed=0)) == 5

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

    def test_mixed_powers_round_trip(self, tmp_path):
        ds = generate_synthetic(SynthConfig(obstacles=2), 6, seed=4)
        mixed = Dataset(ds.meta, [Sample(s.cloud, s.vehicle_pos, s.bs_pos, s.label, s.powers if k % 2 else None)
                                  for k, s in enumerate(ds.samples)])
        export_exchange(mixed, tmp_path / "exch")
        rows = np.load(tmp_path / "exch" / "powers.npy")
        assert np.isnan(rows[::2]).all() and not np.isnan(rows[1::2]).any()
        back = ingest_external(tmp_path / "exch")
        assert back == mixed
        assert back.powers() is None and back.columns.has_powers.tolist() == [False, True] * 3

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

    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (6,)])
    def test_cloud_not_p_by_3_rejected(self, tmp_path, shape):
        # (3, 2) and (6,) loaded as 2 points; (2, 2) was numpy's raw reshape error
        d = str(tmp_path / "x")
        self._write_minimal(d, 2, 4, labels=np.array([0, 1]))
        np.save(os.path.join(d, "cloud_000001.npy"), np.zeros(shape, np.float32))
        with pytest.raises(IngestError, match=re.escape(f"cloud_000001.npy has shape {shape}, expected (P, 3)")):
            ingest_external(d)

    def test_cloud_over_max_points_rejected(self, tmp_path):
        d = str(tmp_path / "x")
        self._write_minimal(d, 1, 4, labels=np.array([0]))
        np.save(os.path.join(d, "cloud_000000.npy"), np.zeros((3, 3), np.float32))
        with mock.patch.object(dataset, "MAX_CLOUD_POINTS", 2):
            with pytest.raises(IngestError, match=re.escape("has shape (3, 3), expected (P, 3) with P <= 2")):
                ingest_external(d)

    def test_invariant_fault_names_sample_and_file(self, tmp_path):
        d = str(tmp_path / "x")
        self._write_minimal(d, 3, 4, labels=np.array([0, -1, 2]))
        vehicle = np.ones((3, 3), np.float32)
        vehicle[2, 1] = np.nan
        np.save(os.path.join(d, "vehicle_pos.npy"), vehicle)
        with pytest.raises(IngestError, match=re.escape(
                "sample 2 (cloud_000002.npy) violates invariants: vehicle_pos holds non-finite coordinates")):
            ingest_external(d)

    def test_label_is_argmax_of_float32_powers(self, tmp_path):
        # one float32 value: the float64 argmax 1 contradicted the stored row
        d = str(tmp_path / "x")
        self._write_minimal(d, 1, 4, powers=np.array([[0.1, 0.1 + 1e-12, 0.0, 0.0]]))
        assert ingest_external(d).labels().tolist() == [0]

    @pytest.mark.parametrize("key, value", [
        ("seed", "x"),  # was a raw TypeError from the u64 comparison
        ("seed", -1),
        ("seed", 2**64),
        ("seed", 1.5),
        ("area", [0, 3, 0]),
        ("area", [0, "3", 0, 15]),
        ("area", [0, 3, 0, float("inf")]),
        ("area", 5),  # was a raw TypeError from len()
    ])
    def test_mistyped_meta_json_rejected(self, tmp_path, key, value):
        d = tmp_path / "exch"
        export_exchange(load_dataset(os.path.join(GOLDEN_DIR, "synth_no_obstacles.fbds")), d)
        meta = json.loads((d / "meta.json").read_text())
        meta[key] = value
        (d / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IngestError, match=f"meta file .*meta.json: {key} "):
            ingest_external(d)

    def test_meta_json_must_be_an_object(self, tmp_path):
        d = tmp_path / "exch"
        export_exchange(load_dataset(os.path.join(GOLDEN_DIR, "synth_no_obstacles.fbds")), d)
        (d / "meta.json").write_text("[1, 2]")
        with pytest.raises(IngestError, match="JSON object"):
            ingest_external(d)

    @pytest.mark.parametrize("text", [
        '{"cloud": 5}',  # was a raw TypeError from os.path.join
        '{"powers": ["powers.npy"]}',
        '["meta.json"]',  # was read as the default spec
    ])
    def test_malformed_ingest_json_rejected(self, tmp_path, text):
        d = tmp_path / "exch"
        export_exchange(load_dataset(os.path.join(GOLDEN_DIR, "synth_no_obstacles.fbds")), d)
        (d / "ingest.json").write_text(text)
        with pytest.raises(IngestError, match="ingest spec"):
            ingest_external(d, d / "ingest.json")

    @pytest.mark.parametrize("key, value, message", [
        ("powers", np.array([["a", "b", "c", "d"]]), "powers must hold real numbers"),  # was a raw TypeError
        ("labels", np.array([2.5]), "labels must hold integers"),  # was truncated to label 2
    ])
    def test_mistyped_array_rejected(self, tmp_path, key, value, message):
        d = str(tmp_path / "x")
        self._write_minimal(d, 1, 4, **{key: value})
        with pytest.raises(IngestError, match=message):
            ingest_external(d)


class TestGoldenFiles:
    @pytest.mark.parametrize("name,overrides,n,seed", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_regenerated_bytes_match(self, tmp_path, name, overrides, n, seed):
        path = tmp_path / name
        save_dataset(generate_synthetic(SynthConfig(**overrides), n, seed), path)
        with open(os.path.join(GOLDEN_DIR, name), "rb") as f:
            golden = f.read()
        assert path.read_bytes() == golden


# Coordinates on a 0.1 m lattice or free, each maybe nudged by the sizes the
# geometry's thresholds decide: the 1e-9 face shrink, the 1e-12 overlap and
# the 1e-15 parallel and reflection tests. Segment endpoints and reflection
# endpoints are often taken from the drawn boxes' own edges, so they land on
# faces, face lines and corners, just inside or outside the shrunk faces.
NUDGES = [0.0, 0.0, 0.0, 1e-9, -1e-9, 1e-9 + 1e-13, 1e-9 - 1e-13, 1e-9 + 3e-12,
          1e-12, -1e-15, 3e-16]
free = st.one_of(st.builds(lambda k: 0.1 * k, st.integers(-40, 40)), st.floats(-5.0, 5.0, allow_nan=False))
size = st.one_of(st.sampled_from([0.3, 0.5, 0.6, 0.7, 0.9, 1.0, 1.4, 2.1, 1e-9, 3e-9]), st.floats(0.05, 4.0))


@st.composite
def box_arrays(draw, max_boxes=5):
    rows = []
    for _ in range(draw(st.integers(0, max_boxes))):
        x0, y0 = draw(free), draw(free)
        rows.append((x0, x0 + draw(size), y0, y0 + draw(size)))
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def draw_coord(draw, boxes, axis):
    """A coordinate along axis: free, or a box edge on that axis, plus a nudge."""
    if len(boxes) and draw(st.booleans()):
        base = draw(st.sampled_from(list(boxes[:, 2 * axis : 2 * axis + 2].ravel())))
    else:
        base = draw(free)
    return base + draw(st.sampled_from(NUDGES))


@st.composite
def clip_cases(draw):
    boxes = draw(box_arrays())
    origins, targets = [], []
    for _ in range(draw(st.integers(1, 12))):
        ox, oy = draw_coord(draw, boxes, 0), draw_coord(draw, boxes, 1)
        kind = draw(st.sampled_from(["free", "zero", "along_x", "along_y"]))
        tx = ox if kind in ("zero", "along_y") else draw_coord(draw, boxes, 0)
        ty = oy if kind in ("zero", "along_x") else draw_coord(draw, boxes, 1)
        origins.append((ox, oy))
        targets.append((tx, ty))
    return boxes, np.array(origins), np.array(targets)


@st.composite
def reflection_cases(draw):
    boxes = draw(box_arrays())
    src = np.array([draw_coord(draw, boxes, 0), draw_coord(draw, boxes, 1)])
    dst = np.array([draw_coord(draw, boxes, 0), draw_coord(draw, boxes, 1)])
    return boxes, src, dst


@st.composite
def draw_configs(draw):
    """Synth configs whose draws reach every branch: integer or float bounds,
    boxes wider than the area, areas small enough that the BS or the vehicle
    often lands in a box, so attempts are rejected and scenes exhaust, and
    areas far from the origin, where draws round onto box faces."""
    def number(lo, hi):
        return draw(st.one_of(st.integers(int(lo), int(hi)), st.floats(lo, hi, allow_nan=False)))

    x0 = number(-20, 20) + draw(st.sampled_from([0, 0, 0, 2.0**50]))
    y0 = number(-20, 20) + draw(st.sampled_from([0, 0, 0, 2.0**50]))
    area = (x0, x0 + number(1, 30), y0, y0 + number(1, 30))
    sizes = []
    for _ in range(2):
        lo = draw(st.one_of(st.integers(1, 10), st.floats(0.01, 10.0)))
        sizes.append((lo, lo + number(0, 5)))
    bs = tuple(draw(st.one_of(st.sampled_from(area[a : a + 2]), st.just(number(-5, 5) + area[a]))) for a in (0, 2))
    cfg = SynthConfig(bs_pos=(*bs, 5.0), obstacles=draw(st.integers(0, 12)),
                      obstacle_size_x=sizes[0], obstacle_size_y=sizes[1],
                      max_retries=draw(st.integers(1, 5)))
    # SynthConfig rejects a far area, whose width is 0 in the float32 that .fbds
    # stores. The draws read the float64 bounds, and they round onto a box face
    # anywhere, only far more rarely: set the area past the check, so that the
    # oracle still meets such draws often
    object.__setattr__(cfg, "area", area)
    return cfg


def blocked_per_segment(origins, targets, boxes):
    return np.array([blocked_naive(o, t[None], boxes)[0] for o, t in zip(origins, targets)], dtype=bool)


BOX = np.array([[0.0, 2.0, 0.0, 1.0]])


class TestGeometryOracles:
    """The one-pass scene geometry against the per-box loops it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(case=clip_cases(), pairs=st.integers(1, 40))
    def test_clip_matches_per_box_loop(self, case, pairs):
        boxes, origins, targets = case
        # a small block size splits the rows at every possible place
        with mock.patch.object(dataset, "_CLIP_PAIRS", pairs):
            got = dataset._blocked(origins, targets, boxes)
        assert np.array_equal(got, blocked_per_segment(origins, targets, boxes))

    @pytest.mark.parametrize("origin, target, boxes, expected", [
        ((-1.0, 0.5), (0.0, 0.5), BOX, False),  # ends on a face
        ((-1.0, 0.5), (5e-10, 0.5), BOX, False),  # ends inside the face shrink
        ((-1.0, 0.0), (3.0, 0.0), BOX, False),  # runs along a face line
        ((-1.0, 1.0), (1.0, -1.0), BOX, False),  # grazes a corner
        ((-1.0, -1.0), (1.0, 1.0), BOX, True),  # through a corner into the box
        ((-1.0, 0.5), (3.0, 0.5), BOX, True),  # parallel to x, through the box
        ((1.0, -1.0), (1.0, 3.0), BOX, True),  # parallel to y, through the box
        ((-1.0, 1.5), (3.0, 1.5), BOX, False),  # parallel to x, beside the box
        ((1.0, 0.5), (1.0, 0.5), BOX, True),  # zero length, inside
        ((3.0, 0.5), (3.0, 0.5), BOX, False),  # zero length, outside
        ((1e-9 - 2e-16, 0.5), (1e-9 + 3e-16, 0.5), BOX, False),  # shorter than the parallel test
        ((-1.0, 0.5), (1e-9 + 1e-13, 0.5), BOX, False),  # overlap below 1e-12
        ((-1.0, 0.5), (3.0, 0.5), np.zeros((0, 4)), False),  # no boxes
    ])
    def test_grazing_segments(self, origin, target, boxes, expected):
        origins, targets = np.array([origin]), np.array([target])
        assert dataset._blocked(origins, targets, boxes)[0] == expected
        assert blocked_per_segment(origins, targets, boxes)[0] == expected

    @settings(max_examples=300, deadline=None)
    @given(boxes=box_arrays(max_boxes=6),
           spacing=st.one_of(st.sampled_from([0.25, 0.3, 0.5, 0.7, 1.0]), st.floats(0.05, 3.0)))
    def test_perimeter_points_match_per_face_loop(self, boxes, spacing):
        got = dataset._perimeter_points(dataset._faces(boxes), spacing)
        want = np.concatenate([face_points_naive(b, spacing) for b in boxes] + [np.zeros((0, 2))])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(case=reflection_cases())
    def test_reflection_hits_match_per_face_loop(self, case):
        boxes, src, dst = case
        got = dataset._reflection_hits(dataset._faces(boxes), src, dst)
        want = reflection_hits_naive(boxes, src, dst)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("src, dst, expected", [
        ((-3e-16, 0.2), (-3e-16, 0.8), [[2.0, 0.5]]),  # both within 1e-15 of the x0 line
        ((-3.0, 0.5), (-1e-17, 0.5), [[2.0, 0.5]]),  # t rounds to 1 on the x0 face
        ((-1.0, 0.0), (-1.0, 2.0), [[0.0, 1.0], [2.0, 1.0]]),  # bounce at a face end
        ((0.0, 0.5), (-1.0, 0.5), [[2.0, 0.5]]),  # src on the x0 line
        ((-1.0, 0.5), (-1.0, 0.5), [[0.0, 0.5], [2.0, 0.5]]),  # src == dst
    ])
    def test_reflection_edge_cases(self, src, dst, expected):
        src, dst = np.array(src), np.array(dst)
        got = dataset._reflection_hits(dataset._faces(BOX), src, dst)
        assert got.tolist() == expected
        assert reflection_hits_naive(BOX, src, dst).tolist() == expected

    @settings(max_examples=400, deadline=None)
    @given(cfg=draw_configs(), n=st.integers(0, 16), seed=st.integers(0, 2**32), doubles=st.integers(1, 80))
    def test_draws_match_scalar_retry_loop(self, cfg, n, seed, doubles):
        # a small block size splits the attempts at every possible place
        with mock.patch.object(dataset, "_DRAW_DOUBLES", doubles):
            try:
                got = dataset._draw_scenes(cfg, n, np.random.default_rng(seed))
            except ValueError as e:
                got = str(e)
        try:
            want = draw_scenes_naive(cfg, n, np.random.default_rng(seed))
        except ValueError as e:
            want = str(e)
        # the loop's clamp can round x1 - (x1 - x0) below x0, which Generator.uniform
        # refuses; test_street_wide_boxes_in_a_rounding_area covers that case
        assume(want != "high - low < 0")
        if isinstance(want, str):
            assert got == want
        else:
            assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]

    def test_clip_memory_is_bounded(self):
        # 150 boxes at 0.05 m spacing: ~37k segments x 150 boxes per scene
        cfg = SynthConfig(obstacles=150, point_spacing=0.05, area=(0, 200, 0, 1000),
                          bs_pos=(-20, 500, 5))
        tracemalloc.start()
        try:
            generate_synthetic(cfg, 3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_draw_memory_is_bounded(self):
        # 3000 boxes a scene: 15002 uniforms an attempt, 4 attempts a block
        cfg = SynthConfig(obstacles=3000, area=(0, 10000, 0, 10000), bs_pos=(-20, 5000, 5))
        tracemalloc.start()
        try:
            positions, boxes = dataset._draw_scenes(cfg, 64, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the outputs take 6 MiB; drawing every attempt at once would add 7 MiB more
        assert peak - positions.nbytes - boxes.nbytes < 3 * 2**20
