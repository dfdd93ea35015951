import math

import numpy as np
import pytest

from fedbeam.dataset import MAX_CLOUD_POINTS, Dataset, DatasetMeta, Sample, SynthConfig, generate_synthetic
from fedbeam.errors import BoundedReader, FormatError, IntegrityError
from fedbeam.nn import (
    BN_EPS,
    BN_MOMENTUM,
    ArchitectureSpec,
    ConvSpec,
    _conv_backward,
    _conv_forward,
    build_layout,
    count_params,
    forward,
    init_params,
)
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


# Per-box scene-geometry loops: oracles for the one-pass versions in
# fedbeam.dataset, with the same float operations. A box is a row
# (x0, x1, y0, y1).


def crosses_interior_naive(origin, targets, box, shrink=1e-9):
    """For segments origin -> targets[k]: does any cross the open box interior?"""
    x0, x1, y0, y1 = box
    targets = np.atleast_2d(targets)
    d = targets - origin
    t0 = np.zeros(len(targets))
    t1 = np.ones(len(targets))
    alive = np.ones(len(targets), dtype=bool)
    bounds = ((x0 + shrink, x1 - shrink), (y0 + shrink, y1 - shrink))
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


def blocked_naive(origin, targets, boxes, shrink=1e-9):
    targets = np.atleast_2d(targets)
    mask = np.zeros(len(targets), dtype=bool)
    for box in boxes:
        mask |= crosses_interior_naive(origin, targets, box, shrink)
    return mask


def face_points_naive(box, spacing):
    """Perimeter sample points (n, 2) of one box, faces x0, x1, y0, y1."""
    bx0, bx1, by0, by1 = box
    pts = []
    for x, ylo, yhi in ((bx0, by0, by1), (bx1, by0, by1)):
        ys = ylo + spacing * np.arange(int(math.floor((yhi - ylo) / spacing)) + 1)
        pts.append(np.column_stack([np.full_like(ys, x), ys]))
    for y, xlo, xhi in ((by0, bx0, bx1), (by1, bx0, bx1)):
        xs = xlo + spacing * np.arange(int(math.floor((xhi - xlo) / spacing)) + 1)
        pts.append(np.column_stack([xs, np.full_like(xs, y)]))
    return np.concatenate(pts, axis=0)


def reflection_point_naive(face_axis, face_coord, lo, hi, src, dst):
    """Specular image-method bounce point on one face, or None."""
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


def reflection_hits_naive(boxes, src, dst):
    """Bounce points (H, 2) over all faces, box by box, faces x0, x1, y0, y1."""
    hits = []
    for x0, x1, y0, y1 in boxes:
        for axis, coord, lo, hi in ((0, x0, y0, y1), (0, x1, y0, y1), (1, y0, x0, x1), (1, y1, x0, x1)):
            hit = reflection_point_naive(axis, coord, lo, hi, src, dst)
            if hit is not None:
                hits.append(hit)
    return np.array(hits, dtype=np.float64).reshape(-1, 2)


def draw_obstacles_naive(cfg, rng):
    """(n, 4) obstacle footprints, rows x0, x1, y0, y1."""
    x0_area, x1_area, y0_area, y1_area = cfg.area
    boxes = []
    for _ in range(cfg.obstacles):
        sx = rng.uniform(*cfg.obstacle_size_x)
        sy = rng.uniform(*cfg.obstacle_size_y)
        sx = min(sx, x1_area - x0_area)
        sy = min(sy, y1_area - y0_area)
        x0 = rng.uniform(x0_area, x1_area - sx)
        y0 = rng.uniform(y0_area, y1_area - sy)
        rng.random()  # the draw nothing uses
        boxes.append((x0, x0 + sx, y0, y0 + sy))
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def inside_naive(boxes, x, y):
    """Does any box footprint contain (x, y), faces included?"""
    return bool(np.any((boxes[:, 0] <= x) & (x <= boxes[:, 1]) & (boxes[:, 2] <= y) & (y <= boxes[:, 3])))


def draw_scenes_naive(cfg, n, rng):
    """Scalar-draw retry loop oracle for dataset._draw_scenes: positions (n, 2)
    and boxes (n, obstacles, 4)."""
    x0, x1, y0, y1 = cfg.area
    positions, scenes = [], []
    for k in range(n):
        for _ in range(cfg.max_retries):
            vehicle_xy = (rng.uniform(x0, x1), rng.uniform(y0, y1))
            boxes = draw_obstacles_naive(cfg, rng)
            if not (inside_naive(boxes, cfg.bs_pos[0], cfg.bs_pos[1]) or inside_naive(boxes, *vehicle_xy)):
                break
        else:
            raise ValueError(
                f"max_retries {cfg.max_retries} exhausted at scene {k}: "
                "the BS or vehicle keeps landing inside an obstacle"
            )
        positions.append(vehicle_xy)
        scenes.append(boxes)
    return np.array(positions).reshape(n, 2), np.array(scenes).reshape(n, cfg.obstacles, 4)


def sample_violation_naive(cloud, vehicle, bs, powers, label):
    """The message of the first Sample invariant one record breaks, or None:
    the checks one field after another, in Sample's order."""
    for name, arr in (("cloud", cloud), ("vehicle_pos", vehicle), ("bs_pos", bs)):
        if not np.all(np.isfinite(arr)):
            return f"{name} holds non-finite coordinates"
    if powers is not None:
        if not np.all(np.isfinite(powers)) or np.any(powers < 0):
            return "powers must be finite and nonnegative"
        if label != int(np.argmax(powers)):
            return (f"label {label} is not the argmax of powers "
                    f"({int(np.argmax(powers))} under lowest-index tie-break)")
    return None


def load_dataset_naive(path):
    """Record-by-record oracle for dataset.load_dataset: six bounded reads and
    the Sample checks per record, so the first bad record decides the error.
    Any powers flag other than 0 means powers follow."""
    r = BoundedReader(path, b"FBDS", 1)
    c_t, c_r, n_t, n_r, n_c = r.unpack("<5H", "meta counts")
    area = tuple(float(v) for v in r.floats(4, "area box"))
    seed, count = r.unpack("<QQ", "seed/sample count")
    try:
        meta = DatasetMeta(c_t=c_t, c_r=c_r, n_t=n_t, n_r=n_r, n_c=n_c, area=area, seed=seed)
    except ValueError as e:
        raise FormatError(f"invalid meta block: {e}", 8) from e
    r.header = False

    records = []
    for k in range(count):
        (n_points,) = r.unpack("<I", f"point count of sample {k}")
        if n_points > MAX_CLOUD_POINTS:
            raise IntegrityError(f"sample {k} declares {n_points} points, max {MAX_CLOUD_POINTS}")
        cloud = r.floats(3 * n_points, f"point cloud of sample {k}").reshape(-1, 3)
        vehicle = r.floats(3, f"vehicle position of sample {k}")
        bs = r.floats(3, f"BS position of sample {k}")
        label, flag = r.unpack("<HB", f"label/powers flag of sample {k}")
        powers = r.floats(meta.n_pairs, f"powers of sample {k}") if flag else None
        violation = sample_violation_naive(cloud, vehicle, bs, powers, label)
        if violation is not None:
            raise IntegrityError(f"sample {k} violates invariants: {violation}")
        records.append((cloud, vehicle, bs, label, powers))

    r.finish(f"the declared {count} samples")
    try:
        return Dataset(meta=meta, samples=[Sample(*rec) for rec in records])
    except ValueError as e:
        raise IntegrityError(f"dataset contradicts its meta block: {e}") from e


def pad(x, p):
    """(C, B, H, W) activations zero-padded by p on each side, as
    nn._conv_forward reads them."""
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def forward_eval_unfolded(spec, theta, bn_state, batch):
    """Eval-mode forward with batch norm kept as its own pass after each
    conv (running statistics), then np.where PReLU: the oracle for the
    folded eval path of nn.forward, with the same float operations the
    unfolded path used."""
    layout = build_layout(spec)
    dtype = theta.dtype
    x = np.asarray(batch).astype(dtype, copy=False).transpose(1, 0, 2, 3)
    for k, conv in enumerate(spec.convs):
        z, _ = _conv_forward(pad(x, conv.padding), layout.view(theta, f"conv{k}.weight"),
                             layout.view(theta, f"conv{k}.bias"), conv)
        z -= bn_state.means[k].astype(dtype)[:, None, None, None]
        z *= (1.0 / np.sqrt(bn_state.variances[k].astype(dtype) + BN_EPS))[:, None, None, None]
        bn_out = layout.view(theta, f"bn{k}.scale")[:, None, None, None] * z
        bn_out += layout.view(theta, f"bn{k}.shift")[:, None, None, None]
        slope = layout.view(theta, f"prelu{k}.slope")[:, None, None, None]
        x = np.where(bn_out > 0, bn_out, slope * bn_out)
    h = x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)
    if spec.hidden is not None:
        h = np.maximum(h @ layout.view(theta, "linear1.weight").T + layout.view(theta, "linear1.bias"), 0)
    logits = h @ layout.view(theta, "linear2.weight").T + layout.view(theta, "linear2.bias")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward_train_reference(spec, theta, bn_state, batch, update_stats=True):
    """Train-mode forward with np.where PReLU: the oracle for the where-free
    train path of nn.forward, bit for bit. Returns (probs, cache), the cache
    holding what loss_and_grad_reference reads."""
    layout = build_layout(spec)
    dtype = theta.dtype
    x = np.asarray(batch).astype(dtype, copy=False).transpose(1, 0, 2, 3)
    convs = []
    for k, conv in enumerate(spec.convs):
        in_shape = x.shape
        z, cols = _conv_forward(pad(x, conv.padding), layout.view(theta, f"conv{k}.weight"),
                                layout.view(theta, f"conv{k}.bias"), conv)
        m = z.shape[1] * z.shape[2] * z.shape[3]
        mu = z.mean(axis=(1, 2, 3))
        z -= mu[:, None, None, None]
        var = np.einsum("cbij,cbij->c", z, z) / m
        if update_stats:
            bn_state.means[k] = (BN_MOMENTUM * bn_state.means[k] + (1 - BN_MOMENTUM) * mu).astype(
                bn_state.means[k].dtype)
            bn_state.variances[k] = (BN_MOMENTUM * bn_state.variances[k] + (1 - BN_MOMENTUM) * var).astype(
                bn_state.variances[k].dtype)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        z *= inv[:, None, None, None]
        bn_out = layout.view(theta, f"bn{k}.scale")[:, None, None, None] * z
        bn_out += layout.view(theta, f"bn{k}.shift")[:, None, None, None]
        x = np.where(bn_out > 0, bn_out, layout.view(theta, f"prelu{k}.slope")[:, None, None, None] * bn_out)
        convs.append({"conv": conv, "in_shape": in_shape, "cols": cols, "inv": inv, "xhat": z, "bn_out": bn_out})
    flat = x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)
    cache = {"convs": convs, "flat_in": flat, "conv_out_shape": x.shape}
    h = flat
    if spec.hidden is not None:
        cache["linear1_pre"] = h @ layout.view(theta, "linear1.weight").T + layout.view(theta, "linear1.bias")
        h = np.maximum(cache["linear1_pre"], 0)
    cache["head_in"] = h
    logits = h @ layout.view(theta, "linear2.weight").T + layout.view(theta, "linear2.bias")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True), cache


def loss_and_grad_reference(spec, theta, bn_state, batch, labels, update_stats=True):
    """nn.loss_and_grad with the backward it had before the train step was
    sped up: np.where PReLU, one (O, B*oh*ow) @ (B*oh*ow, K) GEMM for each
    conv weight gradient, and the batch-norm mean gradient with its
    dvar * sum(z - mu) term, which is 0 in exact arithmetic."""
    layout = build_layout(spec)
    labels = np.asarray(labels, dtype=np.int64)
    probs, cache = forward_train_reference(spec, theta, bn_state, batch, update_stats)
    n = len(labels)
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), labels], np.finfo(probs.dtype).tiny))))
    grad = np.zeros_like(theta)
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    h = cache["head_in"]
    layout.view(grad, "linear2.weight")[...] = dlogits.T @ h
    layout.view(grad, "linear2.bias")[...] = dlogits.sum(axis=0)
    dflat = dlogits @ layout.view(theta, "linear2.weight")
    if spec.hidden is not None:
        dpre = dflat * (cache["linear1_pre"] > 0)
        layout.view(grad, "linear1.weight")[...] = dpre.T @ cache["flat_in"]
        layout.view(grad, "linear1.bias")[...] = dpre.sum(axis=0)
        dflat = dpre @ layout.view(theta, "linear1.weight")
    c_out, b_out, h_out, w_out = cache["conv_out_shape"]
    dx = dflat.reshape(b_out, c_out, h_out, w_out).transpose(1, 0, 2, 3)
    for k in range(len(spec.convs) - 1, -1, -1):
        c = cache["convs"][k]
        conv = c["conv"]
        gamma = layout.view(theta, f"bn{k}.scale")
        slope = layout.view(theta, f"prelu{k}.slope")
        bn_out = c["bn_out"]
        layout.view(grad, f"prelu{k}.slope")[...] = np.einsum("cbij,cbij->c", dx, np.minimum(bn_out, 0))
        dbn = dx * np.where(bn_out > 0, 1.0, slope[:, None, None, None])
        xhat, inv = c["xhat"], c["inv"]
        sum_dbn = dbn.sum(axis=(1, 2, 3))
        sum_dbn_xhat = np.einsum("cbij,cbij->c", dbn, xhat)
        layout.view(grad, f"bn{k}.scale")[...] = sum_dbn_xhat
        layout.view(grad, f"bn{k}.shift")[...] = sum_dbn
        m = xhat.shape[1] * xhat.shape[2] * xhat.shape[3]
        dvar = -0.5 * inv**2 * (gamma * sum_dbn_xhat)
        sum_zc = xhat.sum(axis=(1, 2, 3)) / inv
        dmu = -inv * (gamma * sum_dbn) + dvar * (-2.0 / m) * sum_zc
        dbn *= (gamma * inv)[:, None, None, None]
        dbn += ((2.0 / m) * dvar / inv)[:, None, None, None] * xhat
        dbn += (dmu / m)[:, None, None, None]

        # the bias and input gradients of _conv_backward are unchanged
        w = layout.view(theta, f"conv{k}.weight")
        _, db, dx = _conv_backward(dbn, c["cols"], w, conv, c["in_shape"], need_dx=k > 0)
        layout.view(grad, f"conv{k}.weight")[...] = (dbn.reshape(w.shape[0], -1) @ c["cols"].T).reshape(w.shape)
        layout.view(grad, f"conv{k}.bias")[...] = db
    return loss, grad


def conv_forward_naive(x, w, b, conv):
    """(O, B, oh, ow) output of a (C, B, H, W) convolution, one output
    position at a time: the oracle for nn._conv_forward."""
    c, bsz, h, wd = x.shape
    p, s = conv.padding, conv.stride
    kh, kw = conv.kernel
    xp = np.zeros((c, bsz, h + 2 * p, wd + 2 * p))
    xp[:, :, p : p + h, p : p + wd] = x
    out = np.empty((w.shape[0], bsz, (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1))
    for i in range(out.shape[2]):
        for j in range(out.shape[3]):
            window = xp[:, :, i * s : i * s + kh, j * s : j * s + kw]
            out[:, :, i, j] = np.einsum("ocuv,cbuv->ob", w, window) + b[:, None]
    return out


def conv_backward_naive(dout, x, w, conv):
    """(dw, db, dx) of a (C, B, H, W) convolution, one output position at a
    time: the oracle for nn._conv_backward."""
    c, bsz, h, wd = x.shape
    p, s = conv.padding, conv.stride
    kh, kw = conv.kernel
    xp = np.zeros((c, bsz, h + 2 * p, wd + 2 * p))
    xp[:, :, p : p + h, p : p + wd] = x
    dw = np.zeros(w.shape)
    dxp = np.zeros(xp.shape)
    for i in range(dout.shape[2]):
        for j in range(dout.shape[3]):
            window = (slice(None), slice(None), slice(i * s, i * s + kh), slice(j * s, j * s + kw))
            dw += np.einsum("ob,cbuv->ocuv", dout[:, :, i, j], xp[window])
            dxp[window] += np.einsum("ocuv,ob->cbuv", w, dout[:, :, i, j])
    return dw, dout.sum(axis=(1, 2, 3)), dxp[:, :, p : p + h, p : p + wd]


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
        _, cache = forward(spec, theta, bn.copy(), batch, mode="train")
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
