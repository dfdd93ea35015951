"""Canonical sample storage, partitioning, synthetic scenes, external ingestion.

A Dataset holds its scenes as Columns: `floats` (each scene's cloud xyz,
then its vehicle and BS positions, scene after scene, in float32),
`n_points`, `labels` and `has_powers` (one entry per scene), and `powers`
(the float32 power rows of the scenes that have them, in scene order). A
Sample is one scene: Dataset(meta, samples) packs Samples, and `ds.samples`
holds one Sample view of the columns per scene, built on first use and kept
for the Dataset's life. Datasets serialize to a little-endian binary layout
(magic "FBDS") that round-trips float32 payloads bit-exactly. The reader
gathers the columns in one pass over the records and checks every sample's
invariants at once with the function that checks a single Sample.

The synthetic generator stands in for ray-traced scene data: axis-aligned
obstacle boxes on a street, 2-D ray-cast visibility for the point cloud, and
a geometric multipath channel (line of sight plus one specular reflection
per obstacle face) evaluated against DFT codebooks to label each scene.
Each scene's geometry is one array pass: all 4n faces, perimeter points and
reflection hits at once, then a single Liang-Barsky clip of every segment
(vehicle to point, BS to vehicle, BS to hit, hit to vehicle) against every
box, taken in row blocks of _CLIP_PAIRS segment-box pairs to bound memory.
The random draws of every scene's attempts (vehicle position and obstacle
boxes, rejected while the BS or the vehicle lands in a box) are one array
pass per block of _DRAW_DOUBLES uniforms. They read the generator's stream
in the order of one scalar draw after another, so every seed gives the same
scenes and the same .fbds bytes; each accepted scene's geometry is then
built by synthesize_scene as before.
"""

import functools
import glob
import json
import logging
import math
import os
import struct
from collections import namedtuple
from dataclasses import asdict, dataclass, fields

import numpy as np

from .channel import BeamCodebook, ChannelSet, beam_powers, optimal_beam
from .errors import BoundedReader, FormatError, IngestError, IntegrityError, is_finite_real, is_float32, require_int

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
# the synthetic channel: subcarrier spacing, line-of-sight path gain, and a
# reflected path's gain REFLECTION_GAIN / (1 + length / REFLECTION_FALLOFF_M)
SUBCARRIER_SPACING_HZ = 120e3
LOS_GAIN = 1.0
REFLECTION_GAIN = 0.3
REFLECTION_FALLOFF_M = 50.0

_MAGIC = b"FBDS"
_VERSION = 1


_COORDS = ("cloud", "vehicle_pos", "bs_pos")


def _ends(n_points):
    """Where each scene's 3 * n_points cloud and 6 position floats end."""
    return np.cumsum(3 * np.asarray(n_points, dtype=np.int64) + 6)


def _pack(scenes):
    """The floats column of (cloud, vehicle_pos, bs_pos) triples."""
    return np.concatenate([np.empty(0, np.float32)] + [np.ravel(a) for scene in scenes for a in scene],
                          dtype=np.float32)


def _first_violation(floats, n_points, labels, has_powers, powers):
    """(k, message) for the first sample that breaks a Sample invariant, or None.

    The arguments are a Dataset's columns. Each check runs over every sample
    at once. A sample's non-finite floats are counted as the difference of
    one cumulative sum at its bounds, so an empty cloud counts 0. The
    message is that of the sample's first failing check, in the order:
    cloud, vehicle and BS finite, label nonnegative, powers finite and
    nonnegative, label the first argmax of the powers.
    """
    faults = np.zeros((6, len(labels)), dtype=bool)
    nonfinite = ~np.isfinite(floats)
    if nonfinite.any():
        cloud_end = _ends(n_points) - 6
        starts = cloud_end - 3 * np.asarray(n_points, dtype=np.int64)
        seen = np.concatenate(([0], np.cumsum(nonfinite)))
        faults[:3] = np.diff(seen[np.stack([starts, cloud_end, cloud_end + 3, cloud_end + 6])], axis=0) > 0
    faults[3] = labels < 0
    faults[4, has_powers] = ~(np.isfinite(powers) & (powers >= 0)).all(axis=1)
    best = powers.argmax(axis=1)
    faults[5, has_powers] = best != labels[has_powers]
    failing = faults.any(axis=0)
    if not failing.any():
        return None
    k = int(failing.argmax())
    check = int(faults[:, k].argmax())
    if check < 3:
        return k, f"{_COORDS[check]} holds non-finite coordinates"
    if check == 3:
        return k, f"label must be nonnegative, got {labels[k]}"
    if check == 4:
        return k, "powers must be finite and nonnegative"
    best_k = best[np.count_nonzero(has_powers[:k])]
    return k, f"label {labels[k]} is not the argmax of powers ({best_k} under lowest-index tie-break)"


@dataclass(eq=False)
class Sample:
    """One scene: cloud (P, 3), positions (3,), label, optional power vector."""

    cloud: np.ndarray
    vehicle_pos: np.ndarray
    bs_pos: np.ndarray
    label: int
    powers: np.ndarray | None = None

    def __post_init__(self):
        self.cloud = np.ascontiguousarray(self.cloud, dtype=np.float32).reshape(-1, 3)
        self.vehicle_pos = np.ascontiguousarray(self.vehicle_pos, dtype=np.float32).reshape(3)
        self.bs_pos = np.ascontiguousarray(self.bs_pos, dtype=np.float32).reshape(3)
        self.label = int(self.label)
        if len(self.cloud) > MAX_CLOUD_POINTS:
            raise ValueError(f"cloud has {len(self.cloud)} points, max {MAX_CLOUD_POINTS}")
        has_powers = self.powers is not None
        if has_powers:
            self.powers = np.ascontiguousarray(self.powers, dtype=np.float32).reshape(-1)
        violation = _first_violation(
            _pack([(self.cloud, self.vehicle_pos, self.bs_pos)]), [len(self.cloud)], np.array([self.label]),
            np.array([has_powers]), self.powers.reshape(1, -1) if has_powers else np.empty((0, 1), np.float32),
        )
        if violation is not None:
            raise ValueError(violation[1])

    @classmethod
    def _checked(cls, cloud, vehicle_pos, bs_pos, label, powers):
        """A Sample of float32 arrays whose invariants a Dataset has already
        checked: assigns them as they are, with no copy and no check."""
        s = cls.__new__(cls)
        s.cloud, s.vehicle_pos, s.bs_pos, s.label, s.powers = cloud, vehicle_pos, bs_pos, label, powers
        return s


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
            require_int(name, getattr(self, name), 1, 0xFFFF)
        if not (isinstance(self.area, (tuple, list, np.ndarray)) and len(self.area) == 4
                and all(map(is_finite_real, self.area))):
            raise ValueError(f"area must be 4 finite numbers (x_min, x_max, y_min, y_max), "
                             f"got {self.area!r}")
        if not all(map(is_float32, self.area)):
            raise ValueError(f"area must stay finite as float32, as .fbds stores it, got {self.area!r}")
        # area is stored as float32 on disk; coerce now so round-trips are exact
        object.__setattr__(self, "area", tuple(float(np.float32(a)) for a in self.area))
        require_int("seed", self.seed, 0, 0xFFFFFFFFFFFFFFFF)

    @property
    def n_pairs(self):
        return self.c_t * self.c_r


Columns = namedtuple("Columns", "floats n_points labels has_powers powers")


def _check_against(meta, labels, widths):
    """ValueError for the first sample whose label is C_t*C_r or more, or
    whose power row is not C_t*C_r wide."""
    bad = (labels >= meta.n_pairs) | (widths != meta.n_pairs)
    if bad.any():
        k = int(bad.argmax())
        if labels[k] >= meta.n_pairs:
            raise ValueError(f"sample {k}: label {labels[k]} >= C_t*C_r = {meta.n_pairs}")
        raise ValueError(f"sample {k}: powers length {widths[k]} != {meta.n_pairs}")


class Dataset:
    """Immutable-by-convention scenes sharing one meta block, as Columns.
    load_dataset and ingest_external hand over columns they have checked."""

    def __init__(self, meta, samples=()):
        samples = list(samples)
        labels = np.array([s.label for s in samples], dtype=np.int64)
        _check_against(meta, labels, np.array([meta.n_pairs if s.powers is None else len(s.powers)
                                               for s in samples], dtype=np.int64))
        rows = [s.powers for s in samples if s.powers is not None]
        self.meta = meta
        self.columns = Columns(
            _pack((s.cloud, s.vehicle_pos, s.bs_pos) for s in samples),
            np.array([len(s.cloud) for s in samples], dtype=np.int64), labels,
            np.array([s.powers is not None for s in samples], dtype=bool),
            np.array(rows, dtype=np.float32).reshape(-1, meta.n_pairs),
        )

    @classmethod
    def _from_columns(cls, meta, *columns):
        ds = cls.__new__(cls)
        ds.meta, ds.columns = meta, Columns(*columns)
        _check_against(meta, ds.columns.labels, meta.n_pairs)
        return ds

    def __len__(self):
        return len(self.columns.labels)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.meta == other.meta and all(map(np.array_equal, self.columns, other.columns))

    def labels(self):
        return self.columns.labels.copy()

    def powers(self):
        """(N, C_t*C_r) float64 power matrix, or None when any sample lacks powers."""
        return self.columns.powers.astype(np.float64) if self.columns.has_powers.all() else None

    @functools.cached_property
    def samples(self):
        """One Sample per scene, views of the columns. Built once: each scene
        keeps one object, and one id, for the Dataset's life."""
        floats, n_points, labels, has_powers, powers = self.columns
        rows = iter(powers)
        return [Sample._checked(floats[e - 6 - 3 * n : e - 6].reshape(-1, 3), floats[e - 6 : e - 3],
                                floats[e - 3 : e], label, next(rows) if flag else None)
                for n, e, label, flag in zip(n_points.tolist(), _ends(n_points).tolist(), labels.tolist(),
                                             has_powers.tolist())]


# ---------------------------------------------------------------------------
# Binary serialization

_POINT_COUNT = struct.Struct("<I")
_LABEL_FLAG = struct.Struct("<HB")


def save_dataset(ds, path):
    """Write the canonical little-endian layout; see load_dataset. Each
    record's bytes are slices of ds's columns."""
    floats, n_points, labels, has_powers, powers = ds.columns
    top = labels.max(initial=0)
    if top > 0xFFFF:
        raise ValueError(f"label {top} exceeds the u16 label limit 65535 of the .fbds format")
    floats, rows = floats.astype("<f4", copy=False), iter(powers.astype("<f4", copy=False))
    records = []
    for n, e, label, flag in zip(n_points.tolist(), _ends(n_points).tolist(), labels.tolist(), has_powers.tolist()):
        records += (_POINT_COUNT.pack(n), floats[e - 6 - 3 * n : e].tobytes(), _LABEL_FLAG.pack(label, flag))
        if flag:
            records.append(next(rows).tobytes())
    m = ds.meta
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<5H", m.c_t, m.c_r, m.n_t, m.n_r, m.n_c))
        f.write(np.asarray(m.area, dtype="<f4").tobytes())
        f.write(struct.pack("<QQ", m.seed, len(ds)))
        f.write(b"".join(records))


def _short_record(r, k, at, n_points):
    """The truncation error for sample k's record, whose cloud starts at byte at."""
    for what, size in (("point cloud", 12 * n_points), ("vehicle position", 12), ("BS position", 12)):
        if at + size > len(r.data):
            return r.truncated(f"{what} of sample {k}", at)
        at += size
    return r.truncated(f"label/powers flag of sample {k}", at)


def load_dataset(path):
    """Read a file written by save_dataset; bit-exact on float32 payloads.

    One pass over the records reads the point counts, labels and powers
    flags and stops at the first record that is truncated, declares more
    than MAX_CLOUD_POINTS points or has a flag other than 0 or 1. The
    records read so far are then checked as arrays, and the earliest
    failing sample decides the error: an invariant of a sample before the
    bad record, else the record's own fault. Trailing bytes come next, then
    contradictions of the meta block.
    """
    r = BoundedReader(path, _MAGIC, _VERSION)
    c_t, c_r, n_t, n_r, n_c = r.unpack("<5H", "meta counts")
    area = tuple(float(v) for v in r.floats(4, "area box"))
    seed, count = r.unpack("<QQ", "seed/sample count")
    try:
        meta = DatasetMeta(c_t=c_t, c_r=c_r, n_t=n_t, n_r=n_r, n_c=n_c, area=area, seed=seed)
    except ValueError as e:
        raise FormatError(f"invalid meta block: {e}", 8) from e
    r.header = False

    data, end, pos = r.data, len(r.data), r.offset
    view = memoryview(data)
    power_bytes = 4 * meta.n_pairs
    float_runs, power_runs, n_points, labels, flags = [], [], [], [], []
    fault = None
    for k in range(count):
        if pos + 4 > end:
            fault = r.truncated(f"point count of sample {k}", pos)
            break
        (n,) = _POINT_COUNT.unpack_from(data, pos)
        if n > MAX_CLOUD_POINTS:
            fault = IntegrityError(f"sample {k} declares {n} points, max {MAX_CLOUD_POINTS}")
            break
        at = pos + 4 + 12 * n + 24  # the label/flag field
        if at + 3 > end:
            fault = _short_record(r, k, pos + 4, n)
            break
        label, flag = _LABEL_FLAG.unpack_from(data, at)
        if flag > 1:
            fault = IntegrityError(f"sample {k} has powers flag {flag}, expected 0 or 1 (byte offset {at + 2})")
            break
        next_pos = at + 3 + power_bytes * flag
        if next_pos > end:
            fault = r.truncated(f"powers of sample {k}", at + 3)
            break
        float_runs.append(view[pos + 4 : at])
        if flag:
            power_runs.append(view[at + 3 : next_pos])
        n_points.append(n)
        labels.append(label)
        flags.append(flag)
        pos = next_pos

    powers = np.frombuffer(bytearray().join(power_runs), dtype="<f4").astype(np.float32, copy=False)
    columns = (np.frombuffer(bytearray().join(float_runs), dtype="<f4").astype(np.float32, copy=False),
               np.array(n_points, dtype=np.int64), np.array(labels, dtype=np.int64), np.array(flags, dtype=bool),
               powers.reshape(-1, meta.n_pairs))
    violation = _first_violation(*columns)
    if violation is not None:
        raise IntegrityError(f"sample {violation[0]} violates invariants: {violation[1]}")
    if fault is not None:
        raise fault
    r.offset = pos
    r.finish(f"the declared {count} samples")
    try:
        return Dataset._from_columns(meta, *columns)
    except ValueError as e:
        raise IntegrityError(f"dataset contradicts its meta block: {e}") from e


# ---------------------------------------------------------------------------
# Partitioning


def partition_uniform(n, v, seed):
    """Uniform-random disjoint split of n samples into v local datasets: a
    list of v index arrays, slices of one permutation of range(n).

    The first (n mod v) vehicles receive one extra sample, so sizes differ by
    at most one. Deterministic for a fixed (n, v, seed).
    """
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
    point_spacing: float = 0.5
    n_t: int = 16
    n_r: int = 4
    n_c: int = 16
    c_t: int = 16
    c_r: int = 4
    max_retries: int = 100

    def __post_init__(self):
        require_int("obstacles", self.obstacles, 0)
        require_int("max_retries", self.max_retries, 1)
        ranges = ("obstacle_size_x", "obstacle_size_y")
        for name, count in (("area", 4), ("bs_pos", 3), *((r, 2) for r in ranges)):
            v = getattr(self, name)
            if not (isinstance(v, (tuple, list, np.ndarray)) and len(v) == count
                    and all(map(is_finite_real, v))):
                raise ValueError(f"{name} must hold {count} finite numbers, got {v!r}")
        for name in ("vehicle_height", "point_spacing"):
            if not is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        # every sample stores these as float32
        if not all(map(is_float32, self.bs_pos)):
            raise ValueError(f"bs_pos must stay finite as float32, got {self.bs_pos!r}")
        if not is_float32(self.vehicle_height):
            raise ValueError(f"vehicle_height must stay finite as float32, got {self.vehicle_height!r}")
        x0, x1, y0, y1 = self.area
        if not (math.isfinite(float(x1) - float(x0)) and math.isfinite(float(y1) - float(y0))):
            raise ValueError(f"area width and length must be finite, got {self.area!r}")
        for name in ranges:
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must satisfy 0 < low <= high, got ({lo}, {hi})")
        if self.point_spacing <= 0:
            raise ValueError("point_spacing must be positive")
        # u16 antenna and codebook counts; the area as .fbds stores it, in float32
        x0, x1, y0, y1 = self.meta(0).area
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"area box is degenerate as float32, got {self.area!r}")

    def meta(self, seed):
        return DatasetMeta(
            c_t=self.c_t, c_r=self.c_r, n_t=self.n_t, n_r=self.n_r, n_c=self.n_c,
            area=self.area, seed=seed,
        )

    def codebook(self):
        return BeamCodebook.dft(self.n_t, self.n_r, self.c_t, self.c_r)


# Segment-box pairs clipped per block in _blocked: bounds its temporaries
# (a few MiB) however many boxes and perimeter points a scene has.
_CLIP_PAIRS = 2**16
_FACE_SHRINK = 1e-9  # metres _blocked takes off every side of a box


def _blocked(origins, targets, boxes):
    """For segments origins[k] -> targets[k]: does any cross the open interior
    of any of the (n, 4) boxes (rows x0, x1, y0, y1)?

    Liang-Barsky clipping against each box shrunk by _FACE_SHRINK, so segments
    that merely touch a face (e.g. end on it) do not count as blocked. Every
    segment meets every box in one broadcast, taken in row blocks of about
    _CLIP_PAIRS segment-box pairs.
    """
    mask = np.zeros(len(origins), dtype=bool)
    if len(boxes) == 0:
        return mask
    d = targets - origins
    e = _FACE_SHRINK
    bounds = ((boxes[:, 0] + e, boxes[:, 1] - e), (boxes[:, 2] + e, boxes[:, 3] - e))
    rows = max(1, _CLIP_PAIRS // len(boxes))
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, len(origins), rows):
            t0, t1, alive = 0.0, 1.0, True
            for axis, (lo, hi) in enumerate(bounds):
                p = origins[s : s + rows, axis, None]
                dd = d[s : s + rows, axis, None]
                parallel = np.abs(dd) < 1e-15
                alive = alive & ~(parallel & ((p < lo) | (p > hi)))
                ta = (lo - p) / dd
                tb = (hi - p) / dd
                t0 = np.maximum(t0, np.where(parallel, 0.0, np.minimum(ta, tb)))
                t1 = np.minimum(t1, np.where(parallel, 1.0, np.maximum(ta, tb)))
            mask[s : s + rows] = (alive & (t1 - t0 > 1e-12)).any(axis=1)
    return mask


def _faces(boxes):
    """The 4n box faces as arrays (axis, coord, lo, hi), box by box in the
    order x0, x1, y0, y1. Axis 0 means a face of constant x; lo..hi is its
    extent along the other axis."""
    return (np.tile([0, 0, 1, 1], len(boxes)), boxes.reshape(-1),
            boxes[:, [2, 2, 0, 0]].reshape(-1), boxes[:, [3, 3, 1, 1]].reshape(-1))


def _perimeter_points(faces, spacing):
    """Sample points (P, 2) at lo + spacing * k, k = 0..floor((hi - lo) / spacing),
    along every face in turn."""
    axis, coord, lo, hi = faces
    counts = np.floor((hi - lo) / spacing).astype(np.int64) + 1
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    along = np.repeat(lo, counts) + spacing * k
    fixed = np.repeat(coord, counts)
    x_face = np.repeat(axis == 0, counts)
    return np.column_stack([np.where(x_face, fixed, along), np.where(x_face, along, fixed)])


def _reflection_hits(faces, src, dst):
    """Specular image-method bounce points (H, 2) from src to dst, in face order.

    A face reflects when both endpoints sit strictly on the same side of its
    line and the bounce point, where the mirror image of src sees dst, lies
    within the face's extent.
    """
    axis, coord, lo, hi = faces
    src_a, src_b, dst_a, dst_b = src[axis], src[1 - axis], dst[axis], dst[1 - axis]
    side_src = src_a - coord
    side_dst = dst_a - coord
    mirror_a = 2.0 * coord - src_a
    denom = dst_a - mirror_a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (coord - mirror_a) / denom
        hit_b = src_b + t * (dst_b - src_b)
    ok = ((side_src != 0.0) & (side_dst != 0.0) & ((side_src > 0) == (side_dst > 0))
          & ~(np.abs(denom) < 1e-15) & (0.0 < t) & (t < 1.0) & (lo <= hit_b) & (hit_b <= hi))
    x_face = axis[ok] == 0
    return np.column_stack([np.where(x_face, coord[ok], hit_b[ok]), np.where(x_face, hit_b[ok], coord[ok])])


def _scene_geometry(cfg, vehicle_xy, boxes):
    """Visible point cloud (P, 3) float32 and propagation paths as
    (gain, length_3d, s_tx, s_rx) tuples: line of sight, then one bounce per
    unblocked reflecting face.

    s_* is the y-component of the 3-D unit direction (departure at the BS,
    arrival at the vehicle), i.e. the spatial frequency seen by a ULA laid
    along the y axis with half-wavelength element spacing.
    """
    bs = np.asarray(cfg.bs_pos, dtype=np.float64)
    veh = np.array([vehicle_xy[0], vehicle_xy[1], cfg.vehicle_height])
    faces = _faces(boxes)
    points = _perimeter_points(faces, cfg.point_spacing)
    hits = _reflection_hits(faces, bs[:2], veh[:2])
    n_p, n_h = len(points), len(hits)
    # one clip: vehicle -> each point, BS -> vehicle, BS -> each hit, each hit -> vehicle
    origins = np.empty((n_p + 1 + 2 * n_h, 2))
    targets = np.empty_like(origins)
    origins[:n_p] = veh[:2]
    origins[n_p : n_p + 1 + n_h] = bs[:2]
    origins[n_p + 1 + n_h :] = hits
    targets[:n_p] = points
    targets[n_p] = veh[:2]
    targets[n_p + 1 : n_p + 1 + n_h] = hits
    targets[n_p + 1 + n_h :] = veh[:2]
    blocked = _blocked(origins, targets, boxes)
    kept = points[~blocked[:n_p]]
    cloud = np.column_stack([kept, np.full(len(kept), cfg.vehicle_height)]).astype(np.float32)

    dz = veh[2] - bs[2]
    paths = []
    if not blocked[n_p]:
        d = veh - bs
        length = float(np.linalg.norm(d))
        s = d[1] / length
        paths.append((LOS_GAIN, length, s, s))
    clear = ~(blocked[n_p + 1 : n_p + 1 + n_h] | blocked[n_p + 1 + n_h :])
    for hit in hits[clear]:
        leg1 = float(np.linalg.norm(hit - bs[:2]))
        leg2 = float(np.linalg.norm(veh[:2] - hit))
        if leg1 < 1e-9 or leg2 < 1e-9:
            continue
        flat_len = leg1 + leg2
        length = math.hypot(flat_len, dz)
        # unfolded path: horizontal speed is flat_len/length of the 3-D rate
        s_t = (hit[1] - bs[1]) / leg1 * (flat_len / length)
        s_r = (veh[1] - hit[1]) / leg2 * (flat_len / length)
        gain = REFLECTION_GAIN / (1.0 + length / REFLECTION_FALLOFF_M)
        paths.append((gain, length, s_t, s_r))
    return cloud, paths


def _paths_to_channel(cfg, paths):
    h = np.zeros((cfg.n_c, cfg.n_r, cfg.n_t), dtype=np.complex128)
    n_idx = np.arange(1, cfg.n_c + 1)
    m_t = np.arange(cfg.n_t)
    m_r = np.arange(cfg.n_r)
    for gain, length, s_t, s_r in paths:
        tau = length / SPEED_OF_LIGHT
        a_t = np.exp(1j * np.pi * m_t * s_t) / math.sqrt(cfg.n_t)
        a_r = np.exp(1j * np.pi * m_r * s_r) / math.sqrt(cfg.n_r)
        carrier = np.exp(-2j * np.pi * n_idx * tau * SUBCARRIER_SPACING_HZ)
        h += gain * carrier[:, None, None] * np.outer(a_r, a_t.conj())[None, :, :]
    return ChannelSet(h=h)


def synthesize_scene(cfg, vehicle_xy, boxes, codebook=None):
    """Build one Sample from a fixed vehicle position and obstacle footprints,
    an (n, 4) array of rows x0, x1, y0, y1 (or [] for none)."""
    if codebook is None:
        codebook = cfg.codebook()
    cloud, paths = _scene_geometry(cfg, vehicle_xy, np.asarray(boxes, dtype=np.float64).reshape(-1, 4))
    ch = _paths_to_channel(cfg, paths)
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


# Uniforms drawn per block in _draw_scenes: bounds its temporaries (about
# 2 MiB) however many obstacles a scene has.
_DRAW_DOUBLES = 2**16


def _draw_scenes(cfg, n, rng):
    """Vehicle positions (n, 2) and obstacle footprints (n, obstacles, 4), rows
    x0, x1, y0, y1, of n scenes whose attempts read rng in blocks of about
    _DRAW_DOUBLES uniforms.

    An attempt is one row of uniforms: vehicle x and y, then per obstacle
    size x, size y, x0, y0 and a draw nothing uses, kept so every seed keeps
    its scenes. Each value is low + (high - low) * u with float bounds, what
    Generator.uniform computes, so the rows give the scenes of one scalar
    draw after another. An attempt is rejected when the BS or the vehicle
    lies in a box, faces included; max_retries rejections in a row exhaust
    the scene. A box clamped to the area's width starts at x1 - (x1 - x0),
    which can round an ulp below x0.
    """
    x0_area, x1_area, y0_area, y1_area = map(float, cfg.area)
    area_lo, area_hi = np.array([x0_area, y0_area]), np.array([x1_area, y1_area])
    (sx_lo, sx_hi), (sy_lo, sy_hi) = (map(float, r) for r in (cfg.obstacle_size_x, cfg.obstacle_size_y))
    bs_x, bs_y = float(cfg.bs_pos[0]), float(cfg.bs_pos[1])
    cols = 2 + 5 * cfg.obstacles
    positions = np.empty((n, 2))
    boxes = np.empty((n, cfg.obstacles, 4))
    done = retries = 0
    while done < n:
        u = rng.random((min(n - done, max(1, _DRAW_DOUBLES // cols)), cols))
        vehicle = area_lo + (area_hi - area_lo) * u[:, :2]
        o = u[:, 2:].reshape(len(u), cfg.obstacles, 5)
        sx = np.minimum(sx_lo + (sx_hi - sx_lo) * o[..., 0], x1_area - x0_area)
        sy = np.minimum(sy_lo + (sy_hi - sy_lo) * o[..., 1], y1_area - y0_area)
        x0 = x0_area + (x1_area - sx - x0_area) * o[..., 2]
        y0 = y0_area + (y1_area - sy - y0_area) * o[..., 3]
        x1, y1 = x0 + sx, y0 + sy
        vx, vy = vehicle[:, :1], vehicle[:, 1:]
        rejected = (((x0 <= bs_x) & (bs_x <= x1) & (y0 <= bs_y) & (bs_y <= y1))
                    | ((x0 <= vx) & (vx <= x1) & (y0 <= vy) & (vy <= y1))).any(axis=1)
        kept = []
        for row, bad in enumerate(rejected.tolist()):
            if not bad:
                kept.append(row)
                retries = 0
            else:
                retries += 1
                if retries == cfg.max_retries:
                    raise ValueError(
                        f"max_retries {cfg.max_retries} exhausted at scene {done + len(kept)}: "
                        "the BS or vehicle keeps landing inside an obstacle"
                    )
        positions[done : done + len(kept)] = vehicle[kept]
        boxes[done : done + len(kept)] = np.stack([x0[kept], x1[kept], y0[kept], y1[kept]], axis=-1)
        done += len(kept)
    return positions, boxes


def generate_synthetic(cfg, n, seed):
    """Generate n labelled scenes; byte-identical for fixed (cfg, n, seed)."""
    codebook = cfg.codebook()
    positions, boxes = _draw_scenes(cfg, n, np.random.default_rng(seed))
    samples = [synthesize_scene(cfg, (x, y), b, codebook) for (x, y), b in zip(positions.tolist(), boxes)]
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, str) or (value is None and f.name in ("powers", "labels"))):
                raise IngestError(f"ingest spec {f.name} must be a file pattern string, got {value!r}")

    @classmethod
    def from_json(cls, path):
        with open(path) as f:
            d = json.load(f)
        if not isinstance(d, dict):
            raise IngestError(f"ingest spec {path} must hold a JSON object")
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2)


def _load_meta_json(path):
    with open(path) as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise IngestError(f"meta file {path} must hold a JSON object")
    names = [f.name for f in fields(DatasetMeta)]
    missing = [k for k in names if k not in d]
    if missing:
        raise IngestError(f"meta file {path} is missing fields: {', '.join(missing)}")
    try:
        return DatasetMeta(**{k: d[k] for k in names})
    except ValueError as e:
        raise IngestError(f"meta file {path}: {e}") from e


def _load_array(path, name, kinds="iuf"):
    """np.load of one exchange array; IngestError unless it is an array whose
    dtype kind is in kinds (integers and floats by default)."""
    arr = np.load(path)
    if not isinstance(arr, np.ndarray) or arr.dtype.kind not in kinds:
        expected = "integers" if kinds == "iu" else "real numbers"
        raise IngestError(f"{name} must hold {expected}, got {getattr(arr, 'dtype', type(arr).__name__)}")
    return arr


def ingest_external(directory, spec=None):
    """Build a Dataset from an exchange-layout directory.

    Samples with neither powers nor a label are skipped; the count is
    reported through the module logger. When powers are present, the label
    is (re)computed as the argmax of their float32 rows, so the Sample
    invariant always holds. A cloud file must hold a (P, 3) array with P at
    most MAX_CLOUD_POINTS. The samples are checked as columns, with the one
    function that checks a Sample; the first failing one decides the error.
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
    vehicle = _load_array(path_of(spec.vehicle_pos), "vehicle_pos")
    bs = _load_array(path_of(spec.bs_pos), "bs_pos")
    n = len(cloud_files)
    if vehicle.shape not in ((n, 3),):
        raise IngestError(f"vehicle_pos has shape {vehicle.shape}, expected ({n}, 3)")
    if bs.shape == (3,):
        bs = np.broadcast_to(bs, (n, 3))
    elif bs.shape != (n, 3):
        raise IngestError(f"bs_pos has shape {bs.shape}, expected ({n}, 3) or (3,)")

    if not any(p and os.path.exists(path_of(p)) for p in (spec.powers, spec.labels)):
        raise IngestError(f"missing required arrays: {spec.powers}, {spec.labels} (need at least one)")
    has_powers = np.zeros(n, dtype=bool)
    rows = np.empty((0, meta.n_pairs), dtype=np.float32)
    if spec.powers and os.path.exists(path_of(spec.powers)):
        powers = _load_array(path_of(spec.powers), "powers")
        if powers.shape != (n, meta.n_pairs):
            raise IngestError(f"powers has shape {powers.shape}, expected ({n}, {meta.n_pairs})")
        has_powers = ~np.isnan(powers).all(axis=1)
        rows = powers[has_powers].astype(np.float32)
    labels = np.full(n, -1)
    if spec.labels and os.path.exists(path_of(spec.labels)):
        labels = _load_array(path_of(spec.labels), "labels", "iu")
        if labels.shape != (n,):
            raise IngestError(f"labels has shape {labels.shape}, expected ({n},)")

    kept = np.flatnonzero(has_powers | (labels >= 0))
    if len(kept) < n:
        log.warning("ingest_external: skipped %d of %d samples lacking both powers and label", n - len(kept), n)
    label_column = labels.astype(np.int64)
    label_column[labels > np.iinfo(np.int64).max] = np.iinfo(np.int64).max  # out of range either way
    label_column[has_powers] = rows.argmax(axis=1)
    clouds = []
    for k in kept.tolist():
        cloud = _load_array(cloud_files[k], os.path.basename(cloud_files[k]))
        if cloud.ndim != 2 or cloud.shape[1] != 3 or len(cloud) > MAX_CLOUD_POINTS:
            raise IngestError(f"cloud file {cloud_files[k]} has shape {cloud.shape}, "
                              f"expected (P, 3) with P <= {MAX_CLOUD_POINTS}")
        clouds.append(cloud)
    columns = (_pack(zip(clouds, vehicle[kept], bs[kept])), np.array([len(c) for c in clouds], dtype=np.int64),
               label_column[kept], has_powers[kept], rows)
    violation = _first_violation(*columns)
    if violation is not None:
        k = kept[violation[0]]
        raise IngestError(f"sample {k} ({os.path.basename(cloud_files[k])}) violates invariants: {violation[1]}")
    return Dataset._from_columns(meta, *columns)


def export_exchange(ds, directory):
    """Explode a Dataset into the exchange layout understood by ingest_external."""
    os.makedirs(directory, exist_ok=True)
    floats, n_points, labels, has_powers, powers = ds.columns
    with open(os.path.join(directory, "meta.json"), "w") as f:
        json.dump(asdict(ds.meta), f, indent=2)
    width = max(6, len(str(max(len(ds) - 1, 0))))
    for k, s in enumerate(ds.samples):
        np.save(os.path.join(directory, f"cloud_{k:0{width}d}.npy"), s.cloud)
    ends = _ends(n_points)[:, None]
    np.save(os.path.join(directory, "vehicle_pos.npy"), floats[ends - [6, 5, 4]])
    np.save(os.path.join(directory, "bs_pos.npy"), floats[ends - [3, 2, 1]])
    np.save(os.path.join(directory, "labels.npy"), labels)
    if has_powers.any():
        rows = np.full((len(ds), ds.meta.n_pairs), np.nan, dtype=np.float32)
        rows[has_powers] = powers
        np.save(os.path.join(directory, "powers.npy"), rows)
    spec = IngestSpec()
    spec.to_json(os.path.join(directory, "ingest.json"))
    return spec
