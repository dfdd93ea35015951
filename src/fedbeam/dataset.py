"""Canonical sample storage, partitioning, synthetic scenes, external ingestion.

A Sample bundles one scene: the LIDAR point cloud, vehicle and base-station
positions, the optimal beam-pair label, and (optionally) the full per-pair
power matrix it was derived from. Datasets serialize to a little-endian
binary layout (magic "FBDS") that round-trips float32 payloads bit-exactly.

The synthetic generator stands in for ray-traced scene data: axis-aligned
obstacle boxes on a street, 2-D ray-cast visibility for the point cloud, and
a geometric multipath channel (line of sight plus one specular reflection
per obstacle face) evaluated against DFT codebooks to label each scene.
"""

import glob
import json
import logging
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .channel import BeamCodebook, ChannelSet, beam_powers, optimal_beam
from .errors import FormatError, IngestError, IntegrityError

__all__ = [
    "Sample",
    "DatasetMeta",
    "Dataset",
    "SynthConfig",
    "save_dataset",
    "load_dataset",
    "partition_uniform",
    "generate_synthetic",
    "synthesize_scene",
    "ingest_external",
    "export_exchange",
    "IngestSpec",
]

log = logging.getLogger(__name__)

MAX_CLOUD_POINTS = 2**20
SPEED_OF_LIGHT = 299_792_458.0

_MAGIC = b"FBDS"
_VERSION = 1


def _f32(a, shape=None):
    out = np.ascontiguousarray(np.asarray(a, dtype=np.float32))
    if shape is not None:
        out = out.reshape(shape)
    return out


@dataclass(eq=False)
class Sample:
    """One scene: cloud (P, 3), positions (3,), label, optional power vector."""

    cloud: np.ndarray
    vehicle_pos: np.ndarray
    bs_pos: np.ndarray
    label: int
    powers: np.ndarray | None = None

    def __post_init__(self):
        self.cloud = _f32(self.cloud).reshape(-1, 3)
        self.vehicle_pos = _f32(self.vehicle_pos, (3,))
        self.bs_pos = _f32(self.bs_pos, (3,))
        self.label = int(self.label)
        if len(self.cloud) > MAX_CLOUD_POINTS:
            raise ValueError(f"cloud has {len(self.cloud)} points, max {MAX_CLOUD_POINTS}")
        for name, arr in (("cloud", self.cloud), ("vehicle_pos", self.vehicle_pos), ("bs_pos", self.bs_pos)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} holds non-finite coordinates")
        if self.label < 0:
            raise ValueError(f"label must be nonnegative, got {self.label}")
        if self.powers is not None:
            self.powers = _f32(self.powers).reshape(-1)
            if not np.all(np.isfinite(self.powers)) or np.any(self.powers < 0):
                raise ValueError("powers must be finite and nonnegative")
            if self.label != int(np.argmax(self.powers)):
                raise ValueError(
                    f"label {self.label} is not the argmax of powers "
                    f"({int(np.argmax(self.powers))} under lowest-index tie-break)"
                )

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        if self.label != other.label:
            return False
        if (self.powers is None) != (other.powers is None):
            return False
        return (
            np.array_equal(self.cloud, other.cloud)
            and np.array_equal(self.vehicle_pos, other.vehicle_pos)
            and np.array_equal(self.bs_pos, other.bs_pos)
            and (self.powers is None or np.array_equal(self.powers, other.powers))
        )

    def power_matrix(self, meta):
        """Powers reshaped to (C_t, C_r), or None."""
        if self.powers is None:
            return None
        return self.powers.reshape(meta.c_t, meta.c_r)


@dataclass(frozen=True)
class DatasetMeta:
    """Codebook/antenna/subcarrier counts plus the scene bounding box."""

    c_t: int
    c_r: int
    n_t: int
    n_r: int
    n_c: int
    area: tuple
    seed: int

    def __post_init__(self):
        for name in ("c_t", "c_r", "n_t", "n_r", "n_c"):
            v = getattr(self, name)
            if not 1 <= v <= 0xFFFF:
                raise ValueError(f"{name}={v} out of range [1, 65535]")
        if len(self.area) != 4:
            raise ValueError("area must be (x_min, x_max, y_min, y_max)")
        # area is stored as float32 on disk; coerce now so round-trips are exact
        object.__setattr__(self, "area", tuple(float(np.float32(a)) for a in self.area))
        if not 0 <= self.seed <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("seed must fit in u64")

    @property
    def n_pairs(self):
        return self.c_t * self.c_r


@dataclass(eq=False)
class Dataset:
    """Immutable-by-convention list of samples sharing one meta block."""

    meta: DatasetMeta
    samples: list = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self):
        for k, s in enumerate(self.samples):
            if s.label >= self.meta.n_pairs:
                raise ValueError(
                    f"sample {k}: label {s.label} >= C_t*C_r = {self.meta.n_pairs}"
                )
            if s.powers is not None and s.powers.shape != (self.meta.n_pairs,):
                raise ValueError(
                    f"sample {k}: powers length {s.powers.shape[0]} != {self.meta.n_pairs}"
                )

    def __len__(self):
        return len(self.samples)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.meta == other.meta and self.samples == other.samples

    def labels(self):
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def powers(self):
        """(N, C_t*C_r) float64 power matrix, or None when any sample lacks powers."""
        if any(s.powers is None for s in self.samples):
            return None
        rows = np.array([s.powers for s in self.samples], dtype=np.float64)
        return rows.reshape(-1, self.meta.n_pairs)


# ---------------------------------------------------------------------------
# Binary serialization


def save_dataset(ds, path):
    """Write the canonical little-endian layout; see load_dataset."""
    ds.validate()
    m = ds.meta
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<5H", m.c_t, m.c_r, m.n_t, m.n_r, m.n_c))
        f.write(np.asarray(m.area, dtype="<f4").tobytes())
        f.write(struct.pack("<QQ", m.seed, len(ds.samples)))
        for s in ds.samples:
            f.write(struct.pack("<I", len(s.cloud)))
            f.write(s.cloud.astype("<f4").tobytes())
            f.write(s.vehicle_pos.astype("<f4").tobytes())
            f.write(s.bs_pos.astype("<f4").tobytes())
            f.write(struct.pack("<HB", s.label, 0 if s.powers is None else 1))
            if s.powers is not None:
                f.write(s.powers.astype("<f4").tobytes())


class _Reader:
    def __init__(self, data):
        self.data = data
        self.offset = 0

    def take(self, n, what, sample=None):
        if self.offset + n > len(self.data):
            if sample is None:
                raise FormatError(f"file truncated while reading {what}", self.offset)
            raise IntegrityError(
                f"file truncated while reading {what} of sample {sample} "
                f"(byte offset {self.offset})"
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt, what, sample=None):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what, sample))

    def floats(self, count, what, sample=None):
        raw = self.take(4 * count, what, sample)
        return np.frombuffer(raw, dtype="<f4").copy()


def load_dataset(path):
    """Read a file written by save_dataset; bit-exact on float32 payloads."""
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}", 0)
    (version,) = r.unpack("<I", "version")
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    c_t, c_r, n_t, n_r, n_c = r.unpack("<5H", "meta counts")
    area = tuple(float(v) for v in r.floats(4, "area box"))
    seed, count = r.unpack("<QQ", "seed/sample count")
    try:
        meta = DatasetMeta(c_t=c_t, c_r=c_r, n_t=n_t, n_r=n_r, n_c=n_c, area=area, seed=seed)
    except ValueError as e:
        raise FormatError(f"invalid meta block: {e}", 8) from e

    samples = []
    for k in range(count):
        (n_points,) = r.unpack("<I", "point count", sample=k)
        if n_points > MAX_CLOUD_POINTS:
            raise IntegrityError(f"sample {k} declares {n_points} points, max {MAX_CLOUD_POINTS}")
        cloud = r.floats(3 * n_points, "point cloud", sample=k).reshape(-1, 3)
        vehicle = r.floats(3, "vehicle position", sample=k)
        bs = r.floats(3, "BS position", sample=k)
        label, flag = r.unpack("<HB", "label/powers flag", sample=k)
        powers = r.floats(meta.n_pairs, "powers", sample=k) if flag else None
        try:
            samples.append(Sample(cloud=cloud, vehicle_pos=vehicle, bs_pos=bs, label=label, powers=powers))
        except ValueError as e:
            raise IntegrityError(f"sample {k} violates invariants: {e}") from e

    if r.offset != len(data):
        raise IntegrityError(
            f"{len(data) - r.offset} trailing bytes after the declared {count} samples "
            f"(byte offset {r.offset})"
        )
    try:
        return Dataset(meta=meta, samples=samples)
    except ValueError as e:
        raise IntegrityError(f"dataset contradicts its meta block: {e}") from e


# ---------------------------------------------------------------------------
# Partitioning


def partition_uniform(ds, v, seed):
    """Uniform-random disjoint split into v local datasets: a list of v
    index arrays, slices of one permutation of range(N).

    The first (N mod v) vehicles receive one extra sample, so sizes differ by
    at most one. Deterministic for a fixed (dataset size, v, seed).
    """
    n = len(ds)
    if v < 1:
        raise ValueError(f"need at least one vehicle, got {v}")
    if v > n:
        raise ValueError(f"cannot split {n} samples across {v} vehicles")
    return np.array_split(np.random.default_rng(seed).permutation(n), v)


# ---------------------------------------------------------------------------
# Synthetic scenes


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the geometric scene/channel generator.

    The base station sits off-street so vehicle bearings spread across the
    whole codebook instead of piling into the endfire beams; both arrays are
    uniform linear arrays oriented along the street (y) axis.
    """

    area: tuple = (0.0, 10.0, 0.0, 100.0)
    bs_pos: tuple = (-20.0, 50.0, 5.0)
    vehicle_height: float = 1.6
    obstacles: int = 6
    obstacle_size_x: tuple = (1.0, 3.0)
    obstacle_size_y: tuple = (2.0, 6.0)
    obstacle_height: tuple = (1.0, 3.0)
    point_spacing: float = 0.5
    n_t: int = 16
    n_r: int = 4
    n_c: int = 16
    c_t: int = 16
    c_r: int = 4
    subcarrier_spacing_hz: float = 120e3
    los_gain: float = 1.0
    reflection_gain: float = 0.3
    reflection_falloff_m: float = 50.0
    max_retries: int = 100

    def __post_init__(self):
        x0, x1, y0, y1 = self.area
        if x1 <= x0 or y1 <= y0:
            raise ValueError("area box is degenerate")
        if self.obstacles < 0:
            raise ValueError("obstacle count must be >= 0")
        for name in ("n_t", "n_r", "n_c", "c_t", "c_r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.point_spacing <= 0:
            raise ValueError("point_spacing must be positive")

    def meta(self, seed):
        return DatasetMeta(
            c_t=self.c_t, c_r=self.c_r, n_t=self.n_t, n_r=self.n_r, n_c=self.n_c,
            area=self.area, seed=seed,
        )

    def codebook(self):
        return BeamCodebook.dft(self.n_t, self.n_r, self.c_t, self.c_r)


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned box footprint [x0, x1] x [y0, y1] with a height."""

    x0: float
    x1: float
    y0: float
    y1: float
    height: float

    def contains(self, x, y):
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def _crosses_interior(origin, targets, box, shrink=1e-9):
    """For segments origin -> targets[k]: does any cross the open box interior?

    Liang-Barsky clipping against the box shrunk by `shrink`, so segments
    that merely touch a face (e.g. end on it) do not count as blocked.
    """
    targets = np.atleast_2d(targets)
    d = targets - origin
    t0 = np.zeros(len(targets))
    t1 = np.ones(len(targets))
    alive = np.ones(len(targets), dtype=bool)
    bounds = ((box.x0 + shrink, box.x1 - shrink), (box.y0 + shrink, box.y1 - shrink))
    for axis, (lo, hi) in enumerate(bounds):
        p = origin[axis]
        dd = d[:, axis]
        parallel = np.abs(dd) < 1e-15
        alive &= ~(parallel & ((p < lo) | (p > hi)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - p) / dd
            tb = (hi - p) / dd
        tlo = np.where(parallel, 0.0, np.minimum(ta, tb))
        thi = np.where(parallel, 1.0, np.maximum(ta, tb))
        t0 = np.maximum(t0, tlo)
        t1 = np.minimum(t1, thi)
    return alive & (t1 - t0 > 1e-12)


def _blocked(origin, targets, obstacles, shrink=1e-9):
    targets = np.atleast_2d(targets)
    mask = np.zeros(len(targets), dtype=bool)
    for box in obstacles:
        mask |= _crosses_interior(origin, targets, box, shrink)
    return mask


def _face_points(box, spacing):
    """Perimeter sample points (n, 2) at roughly `spacing` along each face."""
    pts = []
    for x, ylo, yhi in ((box.x0, box.y0, box.y1), (box.x1, box.y0, box.y1)):
        ys = ylo + spacing * np.arange(int(math.floor((yhi - ylo) / spacing)) + 1)
        pts.append(np.column_stack([np.full_like(ys, x), ys]))
    for y, xlo, xhi in ((box.y0, box.x0, box.x1), (box.y1, box.x0, box.x1)):
        xs = xlo + spacing * np.arange(int(math.floor((xhi - xlo) / spacing)) + 1)
        pts.append(np.column_stack([xs, np.full_like(xs, y)]))
    return np.concatenate(pts, axis=0)


def _reflection_point(face_axis, face_coord, lo, hi, src, dst):
    """Specular image-method bounce point on one obstacle face, or None.

    face_axis 0 means a face of constant x; lo..hi is the face extent along
    the other axis. Both endpoints must sit on the open outer side.
    """
    a = face_axis
    b = 1 - a
    side_src = src[a] - face_coord
    side_dst = dst[a] - face_coord
    if side_src == 0.0 or side_dst == 0.0 or (side_src > 0) != (side_dst > 0):
        return None
    mirror = src.copy()
    mirror[a] = 2.0 * face_coord - src[a]
    denom = dst[a] - mirror[a]
    if abs(denom) < 1e-15:
        return None
    t = (face_coord - mirror[a]) / denom
    if not 0.0 < t < 1.0:
        return None
    hit_b = mirror[b] + t * (dst[b] - mirror[b])
    if not lo <= hit_b <= hi:
        return None
    point = np.empty(2)
    point[a] = face_coord
    point[b] = hit_b
    return point


def _scene_paths(cfg, vehicle_xy, obstacles):
    """Propagation paths as (gain, length_3d, s_tx, s_rx) tuples.

    s_* is the y-component of the 3-D unit direction (departure at the BS,
    arrival at the vehicle), i.e. the spatial frequency seen by a ULA laid
    along the y axis with half-wavelength element spacing.
    """
    bs = np.asarray(cfg.bs_pos, dtype=np.float64)
    veh = np.array([vehicle_xy[0], vehicle_xy[1], cfg.vehicle_height])
    dz = veh[2] - bs[2]
    paths = []

    if not _blocked(bs[:2], veh[None, :2], obstacles)[0]:
        d = veh - bs
        length = float(np.linalg.norm(d))
        s = d[1] / length
        paths.append((cfg.los_gain, length, s, s))

    for box in obstacles:
        faces = (
            (0, box.x0, box.y0, box.y1),
            (0, box.x1, box.y0, box.y1),
            (1, box.y0, box.x0, box.x1),
            (1, box.y1, box.x0, box.x1),
        )
        for axis, coord, lo, hi in faces:
            hit = _reflection_point(axis, coord, lo, hi, bs[:2], veh[:2])
            if hit is None:
                continue
            if _blocked(bs[:2], hit[None, :], obstacles)[0]:
                continue
            if _blocked(hit, veh[None, :2], obstacles)[0]:
                continue
            leg1 = float(np.linalg.norm(hit - bs[:2]))
            leg2 = float(np.linalg.norm(veh[:2] - hit))
            if leg1 < 1e-9 or leg2 < 1e-9:
                continue
            flat_len = leg1 + leg2
            length = math.hypot(flat_len, dz)
            # unfolded path: horizontal speed is flat_len/length of the 3-D rate
            s_t = (hit[1] - bs[1]) / leg1 * (flat_len / length)
            s_r = (veh[1] - hit[1]) / leg2 * (flat_len / length)
            gain = cfg.reflection_gain / (1.0 + length / cfg.reflection_falloff_m)
            paths.append((gain, length, s_t, s_r))
    return paths


def _paths_to_channel(cfg, paths):
    h = np.zeros((cfg.n_c, cfg.n_r, cfg.n_t), dtype=np.complex128)
    n_idx = np.arange(1, cfg.n_c + 1)
    m_t = np.arange(cfg.n_t)
    m_r = np.arange(cfg.n_r)
    for gain, length, s_t, s_r in paths:
        tau = length / SPEED_OF_LIGHT
        a_t = np.exp(1j * np.pi * m_t * s_t) / math.sqrt(cfg.n_t)
        a_r = np.exp(1j * np.pi * m_r * s_r) / math.sqrt(cfg.n_r)
        carrier = np.exp(-2j * np.pi * n_idx * tau * cfg.subcarrier_spacing_hz)
        h += gain * carrier[:, None, None] * np.outer(a_r, a_t.conj())[None, :, :]
    return ChannelSet(h=h)


def _visible_cloud(cfg, vehicle_xy, obstacles):
    if not obstacles:
        return np.zeros((0, 3), dtype=np.float32)
    candidates = np.concatenate([_face_points(b, cfg.point_spacing) for b in obstacles], axis=0)
    visible = ~_blocked(np.asarray(vehicle_xy, dtype=np.float64), candidates, obstacles)
    kept = candidates[visible]
    z = np.full((len(kept), 1), cfg.vehicle_height)
    return np.hstack([kept, z]).astype(np.float32)


def synthesize_scene(cfg, vehicle_xy, obstacles, codebook=None):
    """Build one Sample from a fixed vehicle position and obstacle layout."""
    if codebook is None:
        codebook = cfg.codebook()
    cloud = _visible_cloud(cfg, vehicle_xy, obstacles)
    ch = _paths_to_channel(cfg, _scene_paths(cfg, vehicle_xy, obstacles))
    y = beam_powers(ch, codebook).astype(np.float32)
    label = optimal_beam(y)
    vehicle = np.array([vehicle_xy[0], vehicle_xy[1], cfg.vehicle_height], dtype=np.float32)
    return Sample(
        cloud=cloud,
        vehicle_pos=vehicle,
        bs_pos=np.asarray(cfg.bs_pos, dtype=np.float32),
        label=label,
        powers=y.reshape(-1),
    )


def _draw_obstacles(cfg, rng):
    x0_area, x1_area, y0_area, y1_area = cfg.area
    boxes = []
    for _ in range(cfg.obstacles):
        sx = rng.uniform(*cfg.obstacle_size_x)
        sy = rng.uniform(*cfg.obstacle_size_y)
        sx = min(sx, x1_area - x0_area)
        sy = min(sy, y1_area - y0_area)
        x0 = rng.uniform(x0_area, x1_area - sx)
        y0 = rng.uniform(y0_area, y1_area - sy)
        h = rng.uniform(*cfg.obstacle_height)
        boxes.append(Obstacle(x0=x0, x1=x0 + sx, y0=y0, y1=y0 + sy, height=h))
    return boxes


def generate_synthetic(cfg, n, seed):
    """Generate n labelled scenes; byte-identical for fixed (cfg, n, seed)."""
    rng = np.random.default_rng(seed)
    codebook = cfg.codebook()
    x0, x1, y0, y1 = cfg.area
    samples = []
    for k in range(n):
        for _ in range(cfg.max_retries):
            vehicle_xy = (rng.uniform(x0, x1), rng.uniform(y0, y1))
            obstacles = _draw_obstacles(cfg, rng)
            bs_clear = not any(b.contains(cfg.bs_pos[0], cfg.bs_pos[1]) for b in obstacles)
            veh_clear = not any(b.contains(*vehicle_xy) for b in obstacles)
            if bs_clear and veh_clear:
                break
        else:
            raise RuntimeError(
                f"scene {k}: no valid geometry after {cfg.max_retries} retries "
                "(BS or vehicle keeps landing inside an obstacle)"
            )
        samples.append(synthesize_scene(cfg, vehicle_xy, obstacles, codebook))
    return Dataset(meta=cfg.meta(seed), samples=samples)


# ---------------------------------------------------------------------------
# External ingestion (exchange layout)


@dataclass(frozen=True)
class IngestSpec:
    """Maps exchange-layout file patterns to dataset fields.

    `cloud` is a glob matched per sample (lexicographic order defines sample
    order); the remaining entries are single stacked arrays. `powers` rows of
    all NaN and negative `labels` entries mean "missing for this sample".
    """

    meta: str = "meta.json"
    cloud: str = "cloud_*.npy"
    vehicle_pos: str = "vehicle_pos.npy"
    bs_pos: str = "bs_pos.npy"
    powers: str | None = "powers.npy"
    labels: str | None = "labels.npy"

    @classmethod
    def from_json(cls, path):
        with open(path) as f:
            d = json.load(f)
        kwargs = {k: d[k] for k in ("meta", "cloud", "vehicle_pos", "bs_pos", "powers", "labels") if k in d}
        return cls(**kwargs)

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump(
                {
                    "meta": self.meta,
                    "cloud": self.cloud,
                    "vehicle_pos": self.vehicle_pos,
                    "bs_pos": self.bs_pos,
                    "powers": self.powers,
                    "labels": self.labels,
                },
                f,
                indent=2,
            )


def _load_meta_json(path):
    with open(path) as f:
        d = json.load(f)
    missing = [k for k in ("c_t", "c_r", "n_t", "n_r", "n_c", "area", "seed") if k not in d]
    if missing:
        raise IngestError(f"meta file {path} is missing fields: {', '.join(missing)}")
    return DatasetMeta(
        c_t=d["c_t"], c_r=d["c_r"], n_t=d["n_t"], n_r=d["n_r"], n_c=d["n_c"],
        area=tuple(d["area"]), seed=d["seed"],
    )


def ingest_external(directory, spec=None):
    """Build a Dataset from an exchange-layout directory.

    Samples with neither powers nor a label are skipped; the count is
    reported through the module logger. When powers are present, the label
    is (re)computed as their argmax so the Sample invariant always holds.
    """
    if spec is None:
        spec = IngestSpec()
    elif isinstance(spec, (str, os.PathLike)):
        spec = IngestSpec.from_json(spec)

    def path_of(pattern):
        return os.path.join(directory, pattern)

    missing = []
    meta_path = path_of(spec.meta)
    if not os.path.exists(meta_path):
        missing.append(spec.meta)
    cloud_files = sorted(glob.glob(path_of(spec.cloud)))
    if not cloud_files:
        missing.append(spec.cloud)
    for pattern in (spec.vehicle_pos, spec.bs_pos):
        if not os.path.exists(path_of(pattern)):
            missing.append(pattern)
    if missing:
        raise IngestError(f"missing required arrays: {', '.join(missing)}")

    meta = _load_meta_json(meta_path)
    vehicle = np.load(path_of(spec.vehicle_pos))
    bs = np.load(path_of(spec.bs_pos))
    n = len(cloud_files)
    if vehicle.shape not in ((n, 3),):
        raise IngestError(f"vehicle_pos has shape {vehicle.shape}, expected ({n}, 3)")
    if bs.shape == (3,):
        bs = np.broadcast_to(bs, (n, 3))
    elif bs.shape != (n, 3):
        raise IngestError(f"bs_pos has shape {bs.shape}, expected ({n}, 3) or (3,)")

    powers = None
    if spec.powers and os.path.exists(path_of(spec.powers)):
        powers = np.load(path_of(spec.powers))
        if powers.shape != (n, meta.n_pairs):
            raise IngestError(f"powers has shape {powers.shape}, expected ({n}, {meta.n_pairs})")
    labels = None
    if spec.labels and os.path.exists(path_of(spec.labels)):
        labels = np.load(path_of(spec.labels))
        if labels.shape != (n,):
            raise IngestError(f"labels has shape {labels.shape}, expected ({n},)")
    if powers is None and labels is None:
        raise IngestError(
            f"missing required arrays: {spec.powers}, {spec.labels} (need at least one)"
        )

    samples = []
    skipped = 0
    for k, cloud_file in enumerate(cloud_files):
        row = None
        if powers is not None and not np.all(np.isnan(powers[k])):
            row = powers[k]
        label = None
        if row is not None:
            label = int(np.argmax(row))
        elif labels is not None and labels[k] >= 0:
            label = int(labels[k])
        if label is None:
            skipped += 1
            continue
        samples.append(
            Sample(
                cloud=np.load(cloud_file),
                vehicle_pos=vehicle[k],
                bs_pos=bs[k],
                label=label,
                powers=row,
            )
        )
    if skipped:
        log.warning("ingest_external: skipped %d of %d samples lacking both powers and label", skipped, n)
    return Dataset(meta=meta, samples=samples)


def export_exchange(ds, directory):
    """Explode a Dataset into the exchange layout understood by ingest_external."""
    os.makedirs(directory, exist_ok=True)
    m = ds.meta
    with open(os.path.join(directory, "meta.json"), "w") as f:
        json.dump(
            {"c_t": m.c_t, "c_r": m.c_r, "n_t": m.n_t, "n_r": m.n_r, "n_c": m.n_c,
             "area": list(m.area), "seed": m.seed},
            f,
            indent=2,
        )
    width = max(6, len(str(max(len(ds) - 1, 0))))
    for k, s in enumerate(ds.samples):
        np.save(os.path.join(directory, f"cloud_{k:0{width}d}.npy"), s.cloud)
    np.save(os.path.join(directory, "vehicle_pos.npy"),
            np.stack([s.vehicle_pos for s in ds.samples]) if ds.samples else np.zeros((0, 3), np.float32))
    np.save(os.path.join(directory, "bs_pos.npy"),
            np.stack([s.bs_pos for s in ds.samples]) if ds.samples else np.zeros((0, 3), np.float32))
    np.save(os.path.join(directory, "labels.npy"), ds.labels())
    if any(s.powers is not None for s in ds.samples):
        rows = np.full((len(ds), m.n_pairs), np.nan, dtype=np.float32)
        for k, s in enumerate(ds.samples):
            if s.powers is not None:
                rows[k] = s.powers
        np.save(os.path.join(directory, "powers.npy"), rows)
    spec = IngestSpec()
    spec.to_json(os.path.join(directory, "ingest.json"))
    return spec
