"""Compact convolutional beam classifier with hand-derived gradients.

The production architecture is 6 convolutions (each followed by batch norm
and PReLU) feeding two linear layers (ReLU after the first, softmax at the
output), with strides of 1 or 2 to downscale the occupancy grid. The layer
list is data-driven, so test-only micro architectures (fewer convolutions,
or a single linear layer) are valid as well.

Parameters live in one flat float32 vector with a layout table mapping
segments to layers; gradients are exact analytic derivatives of the
empirical cross-entropy, including the path through the batch statistics
of batch norm. No autodiff framework is involved, which keeps the trainable
state small enough to ship around in a federated setting.
"""

import json
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, IntegrityError, NumericError

__all__ = [
    "ConvSpec",
    "ArchitectureSpec",
    "default_architecture",
    "ParamLayout",
    "BatchNormState",
    "count_params",
    "count_flops",
    "init_params",
    "forward",
    "loss_and_grad",
    "sgd_step",
    "AdamState",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

_CKPT_MAGIC = b"FBNN"
_CKPT_VERSION = 1

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
PRELU_INIT = 0.25


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel: tuple = (3, 3)
    stride: int = 1
    padding: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kernel", tuple(int(k) for k in self.kernel))
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if len(self.kernel) != 2 or min(self.kernel) < 1:
            raise ValueError(f"kernel must be (kh, kw) >= 1, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Declarative layer list for a single-channel 2-D input.

    convs may be empty and hidden/n_classes may be None for test-only
    fragments; forward() requires n_classes.
    """

    input_shape: tuple
    convs: tuple = ()
    hidden: int | None = None
    n_classes: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "convs", tuple(self.convs))
        if len(self.input_shape) != 2 or min(self.input_shape) < 1:
            raise ValueError(f"input_shape must be (H, W) >= 1, got {self.input_shape}")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError("hidden width must be >= 1")
        if self.n_classes is not None and self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        self.feature_shapes()  # raises if the chain is inconsistent

    def feature_shapes(self):
        """(channels, H, W) after the input and after each convolution."""
        shapes = [(1, *self.input_shape)]
        for k, conv in enumerate(self.convs):
            c, h, w = shapes[-1]
            if conv.in_channels != c:
                raise ValueError(
                    f"conv {k}: in_channels={conv.in_channels} but previous layer emits {c}"
                )
            kh, kw = conv.kernel
            out_h = (h + 2 * conv.padding - kh) // conv.stride + 1
            out_w = (w + 2 * conv.padding - kw) // conv.stride + 1
            if out_h < 1 or out_w < 1:
                raise ValueError(f"conv {k} shrinks the feature map to {out_h}x{out_w}")
            shapes.append((conv.out_channels, out_h, out_w))
        return shapes

    @property
    def flat_features(self):
        c, h, w = self.feature_shapes()[-1]
        return c * h * w

    def to_dict(self):
        return {
            "input_shape": list(self.input_shape),
            "convs": [
                {
                    "in_channels": c.in_channels,
                    "out_channels": c.out_channels,
                    "kernel": list(c.kernel),
                    "stride": c.stride,
                    "padding": c.padding,
                }
                for c in self.convs
            ],
            "hidden": self.hidden,
            "n_classes": self.n_classes,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            input_shape=tuple(d["input_shape"]),
            convs=tuple(
                ConvSpec(
                    in_channels=c["in_channels"],
                    out_channels=c["out_channels"],
                    kernel=tuple(c["kernel"]),
                    stride=c["stride"],
                    padding=c["padding"],
                )
                for c in d["convs"]
            ),
            hidden=d.get("hidden"),
            n_classes=d.get("n_classes"),
        )


def default_architecture(input_shape=(20, 200), n_classes=256):
    """Production spec: 6 convs of 5 channels (3x3, strides 1,2,1,2,2,2),
    hidden width 16. Lands near the 7.5k-parameter design point."""
    channels = (5, 5, 5, 5, 5, 5)
    strides = (1, 2, 1, 2, 2, 2)
    convs = []
    prev = 1
    for ch, s in zip(channels, strides):
        convs.append(ConvSpec(in_channels=prev, out_channels=ch, kernel=(3, 3), stride=s, padding=1))
        prev = ch
    return ArchitectureSpec(input_shape=input_shape, convs=tuple(convs), hidden=16, n_classes=n_classes)


# ---------------------------------------------------------------------------
# Parameter layout and accounting


class ParamLayout:
    """Maps named segments (conv0.weight, bn0.scale, ...) into the flat vector."""

    def __init__(self, entries):
        self.entries = tuple(entries)
        self._index = {}
        total = 0
        for name, offset, shape in self.entries:
            size = 1
            for d in shape:
                size *= d
            self._index[name] = (offset, size, shape)
            total = max(total, offset + size)
        self.total = total

    def view(self, theta, name):
        offset, size, shape = self._index[name]
        return theta[offset : offset + size].reshape(shape)

    def names(self):
        return [n for n, _, _ in self.entries]


@lru_cache(maxsize=128)
def build_layout(spec):
    entries = []
    offset = 0

    def add(name, shape):
        nonlocal offset
        entries.append((name, offset, tuple(shape)))
        offset += int(np.prod(shape))

    for k, conv in enumerate(spec.convs):
        kh, kw = conv.kernel
        add(f"conv{k}.weight", (conv.out_channels, conv.in_channels, kh, kw))
        add(f"conv{k}.bias", (conv.out_channels,))
        add(f"bn{k}.scale", (conv.out_channels,))
        add(f"bn{k}.shift", (conv.out_channels,))
        add(f"prelu{k}.slope", (conv.out_channels,))
    flat = spec.flat_features
    if spec.hidden is not None:
        add("linear1.weight", (spec.hidden, flat))
        add("linear1.bias", (spec.hidden,))
        flat = spec.hidden
    if spec.n_classes is not None:
        add("linear2.weight", (spec.n_classes, flat))
        add("linear2.bias", (spec.n_classes,))
    return ParamLayout(entries)


def count_params(spec):
    """Trainable scalars: conv + bias, 2 per BN channel, 1 per PReLU channel,
    linear + bias."""
    return build_layout(spec).total


def count_flops(spec):
    """Forward FLOPs at 2 per multiply-accumulate, conv and linear layers
    only (normalization, activations and softmax excluded)."""
    shapes = spec.feature_shapes()
    flops = 0
    for conv, (_, out_h, out_w) in zip(spec.convs, shapes[1:]):
        kh, kw = conv.kernel
        flops += 2 * out_h * out_w * conv.out_channels * conv.in_channels * kh * kw
    flat = spec.flat_features
    if spec.hidden is not None:
        flops += 2 * flat * spec.hidden
        flat = spec.hidden
    if spec.n_classes is not None:
        flops += 2 * flat * spec.n_classes
    return flops


# ---------------------------------------------------------------------------
# State


@dataclass
class BatchNormState:
    """Per-conv running statistics used by eval-mode forward passes."""

    means: list
    variances: list
    momentum: float = BN_MOMENTUM
    eps: float = BN_EPS

    def __post_init__(self):
        for v in self.variances:
            if np.any(v < 0):
                raise ValueError("running variance must be nonnegative")

    def copy(self):
        return BatchNormState(
            means=[m.copy() for m in self.means],
            variances=[v.copy() for v in self.variances],
            momentum=self.momentum,
            eps=self.eps,
        )

    def stat_vector(self):
        parts = self.means + self.variances
        if not parts:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate([p.astype(np.float32) for p in parts])

    @classmethod
    def average(cls, states):
        """Unweighted mean across clients, whatever their local dataset sizes."""
        if not states:
            raise ValueError("need at least one state")
        first = states[0]
        return cls(
            means=[np.mean([s.means[k] for s in states], axis=0) for k in range(len(first.means))],
            variances=[np.mean([s.variances[k] for s in states], axis=0) for k in range(len(first.variances))],
            momentum=first.momentum,
            eps=first.eps,
        )


def init_params(spec, seed):
    """Glorot-uniform weights, zero biases, BN scale 1 / shift 0, PReLU 0.25.

    Returns (theta float32, BatchNormState with mean 0 / variance 1).
    """
    layout = build_layout(spec)
    theta = np.zeros(layout.total, dtype=np.float32)
    rng = np.random.default_rng(seed)

    for k, conv in enumerate(spec.convs):
        kh, kw = conv.kernel
        fan_in = conv.in_channels * kh * kw
        fan_out = conv.out_channels * kh * kw
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = layout.view(theta, f"conv{k}.weight")
        w[...] = rng.uniform(-a, a, size=w.shape)
        layout.view(theta, f"bn{k}.scale")[...] = 1.0
        layout.view(theta, f"prelu{k}.slope")[...] = PRELU_INIT
    shapes = [("linear1", spec.hidden), ("linear2", spec.n_classes)]
    for name, width in shapes:
        if width is None:
            continue
        try:
            w = layout.view(theta, f"{name}.weight")
        except KeyError:
            continue
        fan_out, fan_in = w.shape
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-a, a, size=w.shape)

    bn = BatchNormState(
        means=[np.zeros(c.out_channels, dtype=np.float32) for c in spec.convs],
        variances=[np.ones(c.out_channels, dtype=np.float32) for c in spec.convs],
    )
    return theta, bn


# ---------------------------------------------------------------------------
# Forward / backward primitives


def _conv_forward(x, w, b, conv):
    """im2col convolution in channels-first layout.

    Activations travel as (C, B, H, W): the column matrix (C*kh*kw, B*oh*ow)
    then fills with one plain block copy per kernel offset and the matmul
    output (O, B*oh*ow) reshapes to the next layer's layout without a
    transpose. Returns (out, cols).
    """
    c, bsz, h, wd = x.shape
    p = conv.padding
    s = conv.stride
    kh, kw = conv.kernel
    n_out = w.shape[0]
    out_h = (h + 2 * p - kh) // s + 1
    out_w = (wd + 2 * p - kw) // s + 1
    if p:
        xp = np.zeros((c, bsz, h + 2 * p, wd + 2 * p), dtype=x.dtype)
        xp[:, :, p : p + h, p : p + wd] = x
    else:
        xp = x
    cols = np.empty((c, kh, kw, bsz, out_h, out_w), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = xp[:, :, u : u + s * out_h : s, v : v + s * out_w : s]
    cols = cols.reshape(c * kh * kw, bsz * out_h * out_w)
    out = w.reshape(n_out, -1) @ cols
    out += b[:, None]
    return out.reshape(n_out, bsz, out_h, out_w), cols


def _conv_backward(dout, cols, w, conv, in_shape, need_dx=True):
    n_out, bsz, out_h, out_w = dout.shape
    dmat = dout.reshape(n_out, -1)
    db = dmat.sum(axis=1)
    dw = (dmat @ cols.T).reshape(w.shape)
    if not need_dx:  # first layer: nothing upstream consumes the input grad
        return dw, db, None
    dcols = w.reshape(n_out, -1).T @ dmat

    c, _, h, wd = in_shape
    p = conv.padding
    s = conv.stride
    kh, kw = conv.kernel
    dcols = dcols.reshape(c, kh, kw, bsz, out_h, out_w)
    dxp = np.zeros((c, bsz, h + 2 * p, wd + 2 * p), dtype=dout.dtype)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u : u + s * out_h : s, v : v + s * out_w : s] += dcols[:, u, v]
    dx = dxp[:, :, p : p + h, p : p + wd] if p else dxp
    return dw, db, dx


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(spec, theta, bn_state, batch, mode="eval", update_stats=True):
    """Class probabilities for a batch of shape (B, 1, H, W).

    Train mode normalizes with batch statistics (needs B >= 2) and, unless
    update_stats is False, folds them into the running statistics; it also
    returns the cache needed by the backward pass. Eval mode uses the
    running statistics and is a pure function of (theta, bn_state, batch).
    """
    if spec.n_classes is None:
        raise ValueError("spec has no output layer (n_classes is None)")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    batch = np.asarray(batch)
    expected = (1, *spec.input_shape)
    if batch.ndim != 4 or batch.shape[1:] != expected:
        raise ValueError(f"batch shape {batch.shape} does not match (B, {expected[0]}, {expected[1]}, {expected[2]})")
    if mode == "train" and batch.shape[0] < 2:
        raise ValueError("train mode needs a batch of at least 2 for batch statistics")

    layout = build_layout(spec)
    if theta.shape != (layout.total,):
        raise ValueError(f"theta has {theta.shape[0]} entries, spec needs {layout.total}")
    dtype = theta.dtype
    # channels-first internal layout: (C, B, H, W)
    x = batch.astype(dtype, copy=False).transpose(1, 0, 2, 3)
    cache = {"layout": layout, "convs": [], "mode": mode}

    for k, conv in enumerate(spec.convs):
        w = layout.view(theta, f"conv{k}.weight")
        b = layout.view(theta, f"conv{k}.bias")
        gamma = layout.view(theta, f"bn{k}.scale")
        beta = layout.view(theta, f"bn{k}.shift")
        slope = layout.view(theta, f"prelu{k}.slope")

        in_shape = x.shape
        z, cols = _conv_forward(x, w, b, conv)

        m = z.shape[1] * z.shape[2] * z.shape[3]
        if mode == "train":
            mu = z.mean(axis=(1, 2, 3))
            z -= mu[:, None, None, None]
            var = np.einsum("cbij,cbij->c", z, z) / m
            if update_stats:
                mom = bn_state.momentum
                bn_state.means[k] = (mom * bn_state.means[k] + (1 - mom) * mu).astype(
                    bn_state.means[k].dtype
                )
                bn_state.variances[k] = (mom * bn_state.variances[k] + (1 - mom) * var).astype(
                    bn_state.variances[k].dtype
                )
        else:
            mu = bn_state.means[k].astype(dtype)
            var = bn_state.variances[k].astype(dtype)
            z -= mu[:, None, None, None]
        inv = 1.0 / np.sqrt(var + bn_state.eps)
        z *= inv[:, None, None, None]
        xhat = z  # normalized activations; z is consumed in place
        bn_out = gamma[:, None, None, None] * xhat
        bn_out += beta[:, None, None, None]

        act = np.where(bn_out > 0, bn_out, slope[:, None, None, None] * bn_out)
        if mode == "train":
            cache["convs"].append(
                {"conv": conv, "in_shape": in_shape, "cols": cols,
                 "inv": inv, "xhat": xhat, "bn_out": bn_out}
            )
        x = act

    # flatten keeps (C, H, W) ordering per sample, matching the layout table
    flat = x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)
    cache["flat_in"] = flat
    cache["conv_out_shape"] = x.shape
    h = flat
    if spec.hidden is not None:
        w1 = layout.view(theta, "linear1.weight")
        b1 = layout.view(theta, "linear1.bias")
        pre = h @ w1.T + b1
        h = np.maximum(pre, 0)
        cache["linear1_pre"] = pre
        cache["linear1_out"] = h
    w2 = layout.view(theta, "linear2.weight")
    b2 = layout.view(theta, "linear2.bias")
    logits = h @ w2.T + b2
    probs = _softmax(logits)
    cache["head_in"] = h
    cache["probs"] = probs

    if mode == "train":
        return probs, cache
    return probs


def loss_and_grad(spec, theta, bn_state, batch, labels, update_stats=True):
    """Mean cross-entropy over the batch and its exact gradient in theta.

    The backward pass differentiates through the batch-norm batch statistics
    (mean and variance), PReLU slopes and both linear layers; it is the
    quantity certified by the finite-difference oracle in the test suite.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    batch = np.asarray(batch)
    if len(labels) != batch.shape[0]:
        raise ValueError(f"{len(labels)} labels for a batch of {batch.shape[0]}")
    if spec.n_classes is None:
        raise ValueError("spec has no output layer (n_classes is None)")
    if np.any(labels < 0) or np.any(labels >= spec.n_classes):
        bad = labels[(labels < 0) | (labels >= spec.n_classes)][0]
        raise ValueError(f"label {bad} out of range [0, {spec.n_classes})")

    probs, cache = forward(spec, theta, bn_state, batch, mode="train", update_stats=update_stats)
    layout = cache["layout"]
    n = batch.shape[0]
    eps_floor = np.finfo(probs.dtype).tiny
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), labels], eps_floor))))

    grad = np.zeros_like(theta)
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    h = cache["head_in"]
    w2 = layout.view(theta, "linear2.weight")
    layout.view(grad, "linear2.weight")[...] = dlogits.T @ h
    layout.view(grad, "linear2.bias")[...] = dlogits.sum(axis=0)
    dh = dlogits @ w2

    if spec.hidden is not None:
        pre = cache["linear1_pre"]
        dpre = dh * (pre > 0)
        w1 = layout.view(theta, "linear1.weight")
        layout.view(grad, "linear1.weight")[...] = dpre.T @ cache["flat_in"]
        layout.view(grad, "linear1.bias")[...] = dpre.sum(axis=0)
        dflat = dpre @ w1
    else:
        dflat = dh

    c_out, b_out, h_out, w_out = cache["conv_out_shape"]
    dx = dflat.reshape(b_out, c_out, h_out, w_out).transpose(1, 0, 2, 3)
    for k in range(len(spec.convs) - 1, -1, -1):
        c = cache["convs"][k]
        conv = c["conv"]
        gamma = layout.view(theta, f"bn{k}.scale")
        slope = layout.view(theta, f"prelu{k}.slope")

        # PReLU: d/dslope = x on the negative side, so min(x, 0) selects it
        bn_out = c["bn_out"]
        neg_part = np.minimum(bn_out, 0)
        layout.view(grad, f"prelu{k}.slope")[...] = np.einsum("cbij,cbij->c", dx, neg_part)
        dbn = dx * np.where(bn_out > 0, 1.0, slope[:, None, None, None])

        # batch-norm backward through the batch statistics, in terms of xhat
        # (zc = xhat/inv); dxhat = gamma*dbn, so its sums reuse dbn's sums
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
        dz = dbn  # accumulated in place

        w = layout.view(theta, f"conv{k}.weight")
        dw, db, dx = _conv_backward(dz, c["cols"], w, conv, c["in_shape"], need_dx=k > 0)
        layout.view(grad, f"conv{k}.weight")[...] = dw
        layout.view(grad, f"conv{k}.bias")[...] = db

    return loss, grad


# ---------------------------------------------------------------------------
# Optimizers


def sgd_step(theta, grad, lr):
    """theta - lr * grad; rejects non-finite gradients. Keeps theta's dtype."""
    if theta.shape != grad.shape:
        raise ValueError(f"theta has shape {theta.shape}, grad {grad.shape}")
    lr = float(lr)  # weak scalar: float32 parameters stay float32
    if lr <= 0:
        raise ValueError(f"step size must be positive, got {lr}")
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite gradient ({np.count_nonzero(~np.isfinite(grad))} entries)")
    return theta - lr * grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, n, dtype=np.float32):
        return cls(m=np.zeros(n, dtype=dtype), v=np.zeros(n, dtype=dtype))


def adam_step(state, theta, grad, lr):
    """One bias-corrected Adam update; returns (new state, new theta)."""
    if theta.shape != grad.shape:
        raise ValueError(f"theta has shape {theta.shape}, grad {grad.shape}")
    lr = float(lr)
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite gradient ({np.count_nonzero(~np.isfinite(grad))} entries)")
    t = state.t + 1
    m = state.beta1 * state.m + (1 - state.beta1) * grad
    v = state.beta2 * state.v + (1 - state.beta2) * grad**2
    m_hat = m / (1 - state.beta1**t)
    v_hat = v / (1 - state.beta2**t)
    new_theta = theta - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamState(m=m, v=v, t=t, beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return new_state, new_theta


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(spec, theta, bn_state, path):
    """Write spec + parameters + BN running stats; float32 payload is exact."""
    layout = build_layout(spec)
    if theta.shape != (layout.total,):
        raise IntegrityError(f"theta has {theta.shape[0]} entries, spec needs {layout.total}")
    spec_json = json.dumps(spec.to_dict(), sort_keys=True).encode("utf-8")
    stats = bn_state.stat_vector()
    if stats.shape[0] != 2 * sum(c.out_channels for c in spec.convs):
        raise IntegrityError("BN state does not match the spec's conv channels")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", _CKPT_VERSION))
        f.write(struct.pack("<I", len(spec_json)))
        f.write(spec_json)
        f.write(struct.pack("<Q", layout.total))
        f.write(theta.astype("<f4").tobytes())
        f.write(struct.pack("<Q", stats.shape[0] // 2))
        f.write(stats.astype("<f4").tobytes())


def _spec_mismatch(expected, found):
    for k, (a, b) in enumerate(zip(expected.convs, found.convs)):
        if a != b:
            return f"conv {k}: expected {a}, checkpoint has {b}"
    if len(expected.convs) != len(found.convs):
        return f"expected {len(expected.convs)} conv layers, checkpoint has {len(found.convs)}"
    if expected.input_shape != found.input_shape:
        return f"input {expected.input_shape} vs checkpoint {found.input_shape}"
    if expected.hidden != found.hidden:
        return f"linear1: expected hidden={expected.hidden}, checkpoint has {found.hidden}"
    if expected.n_classes != found.n_classes:
        return f"linear2: expected n_classes={expected.n_classes}, checkpoint has {found.n_classes}"
    return None


def load_checkpoint(path, expect_spec=None):
    """Read a checkpoint; returns (spec, theta, bn_state).

    With expect_spec given, an incompatible checkpoint raises IntegrityError
    naming the first mismatching layer.
    """
    with open(path, "rb") as f:
        data = f.read()

    def take(offset, n, what):
        if offset + n > len(data):
            raise IntegrityError(f"checkpoint truncated while reading {what} (byte offset {offset})")
        return data[offset : offset + n], offset + n

    chunk, off = take(0, 4, "magic")
    if chunk != _CKPT_MAGIC:
        raise FormatError(f"bad magic {chunk!r}, expected {_CKPT_MAGIC!r}", 0)
    chunk, off = take(off, 4, "version")
    (version,) = struct.unpack("<I", chunk)
    if version != _CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", 4)
    chunk, off = take(off, 4, "spec length")
    (spec_len,) = struct.unpack("<I", chunk)
    chunk, off = take(off, spec_len, "spec JSON")
    try:
        spec = ArchitectureSpec.from_dict(json.loads(chunk.decode("utf-8")))
    except (ValueError, KeyError) as e:
        raise IntegrityError(f"checkpoint spec JSON is invalid: {e}") from e

    if expect_spec is not None:
        mismatch = _spec_mismatch(expect_spec, spec)
        if mismatch:
            raise IntegrityError(f"checkpoint does not match the expected architecture: {mismatch}")

    layout = build_layout(spec)
    chunk, off = take(off, 8, "param count")
    (n_params,) = struct.unpack("<Q", chunk)
    if n_params != layout.total:
        raise IntegrityError(
            f"checkpoint declares {n_params} parameters but its spec needs {layout.total}"
        )
    chunk, off = take(off, 4 * n_params, "parameters")
    theta = np.frombuffer(chunk, dtype="<f4").copy()
    chunk, off = take(off, 8, "BN stat count")
    (n_stats,) = struct.unpack("<Q", chunk)
    expected_stats = sum(c.out_channels for c in spec.convs)
    if n_stats != expected_stats:
        raise IntegrityError(f"checkpoint has {n_stats} BN channels, spec needs {expected_stats}")
    chunk, off = take(off, 4 * 2 * n_stats, "BN statistics")
    stats = np.frombuffer(chunk, dtype="<f4").copy()
    if off != len(data):
        raise IntegrityError(f"{len(data) - off} trailing bytes in checkpoint")

    means, variances = [], []
    cursor = 0
    for c in spec.convs:
        means.append(stats[cursor : cursor + c.out_channels].copy())
        cursor += c.out_channels
    for c in spec.convs:
        variances.append(stats[cursor : cursor + c.out_channels].copy())
        cursor += c.out_channels
    bn = BatchNormState(means=means, variances=variances)
    return spec, theta, bn
