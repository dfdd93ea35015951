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

Train and eval run their convs through one loop, _conv_stack: conv, a
normalize step, then PReLU written straight into the next conv's padded
input. In eval mode batch norm reads the running statistics, a fixed
per-channel affine map, so forward folds it into each conv's weights and
bias once per call and the step is the identity; in train mode the step
is batch norm with batch statistics, caching what the backward needs. The
loop allocates the next padded buffer once normalize has returned, by when
eval has freed the conv's column matrix, and frees the conv output right
after its PReLU: an eval layer holds its input and output with either its
column matrix or the next padded buffer, and no output outlives its layer.
Eval runs the stack over EVAL_BATCH samples at a time: a large batch
holds one slice's activations and column matrices at a time, and its
probabilities equal those of its slices evaluated one by one, to the
bit. PReLU runs without np.where in both directions: max(x, s*x) (min
above a slope of 1) forward, and the slope product overwritten with the
incoming gradient where x > 0 backward.

Every conv GEMM (output, weight gradient, input gradient) runs once per
sample. At the default architecture each product is at most 5x45x1000,
under OpenBLAS's threading cutoff (M*N*K <= 262144), so it runs in the
calling thread: fedavg runs vehicles and eval batches on every CPU, and
those threads would otherwise queue on one BLAS pool. The weight gradient
is also several times faster this way than as one long-inner-dimension
product. A step keeps its memory small, since each such thread holds its
own freed buffers: the backward rebuilds conv0's column matrix from the
batch and drops each layer's cache once it has used it.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundedReader, IntegrityError, NumericError, require_int, require_keys

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
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Eval-mode forward slice. predict_proba over 600 default scenes (batch norm
# folded, 2 CPUs, best of 8 in each of two sweeps) took 168/157, 148/156,
# 193/195, 226/234 and 342/348 ms at B = 8, 16, 32, 64 and 256.
EVAL_BATCH = 16


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel: tuple = (3, 3)
    stride: int = 1
    padding: int = 1

    def __post_init__(self):
        require_int("in_channels", self.in_channels, 1)
        require_int("out_channels", self.out_channels, 1)
        if len(self.kernel) != 2:
            raise ValueError(f"kernel must be (kh, kw), got {self.kernel!r}")
        for k in self.kernel:
            require_int("kernel", k, 1)
        object.__setattr__(self, "kernel", tuple(int(k) for k in self.kernel))
        require_int("stride", self.stride, 1, 2)
        require_int("padding", self.padding, 0)


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
        if len(self.input_shape) != 2:
            raise ValueError(f"input_shape must be (H, W), got {self.input_shape!r}")
        for v in self.input_shape:
            require_int("input_shape", v, 1)
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "convs", tuple(self.convs))
        if self.hidden is not None:
            require_int("hidden", self.hidden, 1)
        if self.n_classes is not None:
            require_int("n_classes", self.n_classes, 1)
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

    @classmethod
    def from_dict(cls, d):
        require_keys(d, ("input_shape", "convs", "hidden", "n_classes"))
        for k, c in enumerate(d["convs"]):
            require_keys(c, ("in_channels", "out_channels", "kernel", "stride", "padding"), f"conv {k}")
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
    """Maps a spec's named segments (conv0.weight, bn0.scale, ...) into the
    flat vector. entries holds (name, offset, shape) in layer order, which is
    also the .fbnn parameter order."""

    def __init__(self, spec):
        self._index = {}
        self.total = 0
        for k, conv in enumerate(spec.convs):
            self._add(f"conv{k}.weight", (conv.out_channels, conv.in_channels, *conv.kernel))
            self._add(f"conv{k}.bias", (conv.out_channels,))
            self._add(f"bn{k}.scale", (conv.out_channels,))
            self._add(f"bn{k}.shift", (conv.out_channels,))
            self._add(f"prelu{k}.slope", (conv.out_channels,))
        flat = spec.flat_features
        if spec.hidden is not None:
            self._add("linear1.weight", (spec.hidden, flat))
            self._add("linear1.bias", (spec.hidden,))
            flat = spec.hidden
        if spec.n_classes is not None:
            self._add("linear2.weight", (spec.n_classes, flat))
            self._add("linear2.bias", (spec.n_classes,))
        self.entries = tuple((name, offset, shape) for name, (offset, _, shape) in self._index.items())

    def _add(self, name, shape):
        size = math.prod(shape)
        self._index[name] = (self.total, size, shape)
        self.total += size

    def view(self, theta, name):
        offset, size, shape = self._index[name]
        return theta[offset : offset + size].reshape(shape)


@lru_cache(maxsize=128)
def build_layout(spec):
    return ParamLayout(spec)


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

    def __post_init__(self):
        for v in self.variances:
            if np.any(v < 0):
                raise ValueError("running variance must be nonnegative")

    def copy(self):
        return BatchNormState(
            means=[m.copy() for m in self.means],
            variances=[v.copy() for v in self.variances],
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
        w = layout.view(theta, f"{name}.weight")
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


def _padded(c, bsz, h, w, p, dtype):
    """A zeroed (C, B, H+2p, W+2p) buffer and its (C, B, H, W) interior."""
    xp = np.zeros((c, bsz, h + 2 * p, w + 2 * p), dtype=dtype)
    return xp, xp[:, :, p : p + h, p : p + w]


def _im2col(xp, conv):
    """Column matrix (C*kh*kw, B*oh*ow) of zero-padded (C, B, H+2p, W+2p)
    activations, filled with one plain block copy per kernel offset, and
    the output (oh, ow)."""
    c, bsz, hp, wp = xp.shape
    s = conv.stride
    kh, kw = conv.kernel
    out_h = (hp - kh) // s + 1
    out_w = (wp - kw) // s + 1
    cols = np.empty((c, kh, kw, bsz, out_h, out_w), dtype=xp.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = xp[:, :, u : u + s * out_h : s, v : v + s * out_w : s]
    return cols.reshape(c * kh * kw, bsz * out_h * out_w), (out_h, out_w)


def _conv_forward(xp, w, b, conv):
    """im2col convolution in channels-first layout, of (C, B, H, W)
    activations zero-padded by conv.padding on each side.

    Activations travel as (C, B, H, W), so the GEMM output (O, B*oh*ow)
    is the next layer's layout without a transpose. The GEMM runs per
    sample: each product stays under OpenBLAS's threading cutoff and runs
    in the calling thread. Returns (out, cols).
    """
    bsz = xp.shape[1]
    cols, (out_h, out_w) = _im2col(xp, conv)
    n_out = w.shape[0]
    out = np.empty((n_out, bsz, out_h * out_w), dtype=xp.dtype)
    np.matmul(w.reshape(n_out, -1), cols.reshape(-1, bsz, out_h * out_w).transpose(1, 0, 2),
              out=out.transpose(1, 0, 2))
    out += b[:, None, None]
    return out.reshape(n_out, bsz, out_h, out_w), cols


def _conv_backward(dout, cols, w, conv, in_shape, need_dx=True):
    n_out, bsz, out_h, out_w = dout.shape
    dmat = dout.reshape(n_out, -1)
    db = dmat.sum(axis=1)
    # dw as B per-sample GEMMs summed over the batch: OpenBLAS runs the
    # single (O, B*oh*ow) @ (B*oh*ow, K) product of the wide layers 3-4x
    # slower than the same FLOPs split per sample
    dw = np.matmul(dout.reshape(n_out, bsz, -1).transpose(1, 0, 2),
                   cols.reshape(-1, bsz, out_h * out_w).transpose(1, 2, 0)).sum(axis=0).reshape(w.shape)
    if not need_dx:  # first layer: nothing upstream consumes the input grad
        return dw, db, None
    c, _, h, wd = in_shape
    s = conv.stride
    kh, kw = conv.kernel
    dcols = np.empty((c, kh, kw, bsz, out_h, out_w), dtype=dout.dtype)
    np.matmul(w.reshape(n_out, -1).T, dout.reshape(n_out, bsz, -1).transpose(1, 0, 2),
              out=dcols.reshape(-1, bsz, out_h * out_w).transpose(1, 0, 2))
    dxp, dx = _padded(c, bsz, h, wd, conv.padding, dout.dtype)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u : u + s * out_h : s, v : v + s * out_w : s] += dcols[:, u, v]
    return dw, db, dx


def _prelu(x, slope, out):
    """PReLU of (C, B, H, W) activations into out, one channel block at a
    time: max(x, s*x) for a slope s <= 1 and min(x, s*x) above. Both are
    exact, and about twice as fast as a masked multiply or np.where."""
    for c, s in enumerate(slope):
        (np.maximum if s <= 1 else np.minimum)(x[c], s * x[c], out=out[c])
    return out


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _head(spec, theta, layout, flat):
    """linear1 and ReLU (when the spec has a hidden layer), then linear2 and
    softmax, over flattened conv features. Returns (probs, linear1's
    pre-activation or None, linear2's input)."""
    h, pre = flat, None
    if spec.hidden is not None:
        pre = h @ layout.view(theta, "linear1.weight").T + layout.view(theta, "linear1.bias")
        h = np.maximum(pre, 0)
    logits = h @ layout.view(theta, "linear2.weight").T + layout.view(theta, "linear2.bias")
    return _softmax(logits), pre, h


def _conv_stack(spec, theta, layout, batch, weights, normalize):
    """Run the conv layers over a (B, 1, H, W) batch; return the last PReLU
    output as (B, C*H*W), in the layout table's per-sample (C, H, W) order.

    Conv k runs with weights[k] = (w, b), and normalize(k, z, cols, xp) maps
    its output z (given its column matrix and padded input) to the PReLU
    input. The allocation order is the one the module docstring states.
    """
    pads = [conv.padding for conv in spec.convs] + [0]
    xp, x = _padded(1, len(batch), *spec.input_shape, pads[0], theta.dtype)
    x[...] = batch.transpose(1, 0, 2, 3)
    for k, (conv, (w, b)) in enumerate(zip(spec.convs, weights)):
        z = normalize(k, *_conv_forward(xp, w, b, conv), xp)
        xp, x = _padded(*z.shape, pads[k + 1], theta.dtype)
        _prelu(z, layout.view(theta, f"prelu{k}.slope"), out=x)
        del z  # freed before the next conv runs
    return x.transpose(1, 0, 2, 3).reshape(len(batch), -1)


def forward(spec, theta, bn_state, batch, mode="eval"):
    """Class probabilities for a batch of shape (B, 1, H, W).

    The batch may be of any real dtype whose values are exact in theta's
    dtype (fedavg.preprocess_dataset's int8 codes are): its copy into the
    first conv's padded buffer of theta's dtype is the only cast, so the
    result equals that of batch.astype(theta.dtype) to the bit.

    Train mode normalizes with batch statistics (needs B >= 2) and folds
    them into the running statistics; it also returns the cache needed by
    the backward pass. Eval mode uses the running statistics, folded into
    the conv weights on every call, runs EVAL_BATCH samples at a time, and
    is a pure function of (theta, bn_state, batch).
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

    if mode == "eval":
        # running-stat BN is a fixed per-channel affine map, so it folds
        # into the conv: w' = w*scale, b' = (b - mu)*scale + beta
        folded = []
        for k in range(len(spec.convs)):
            inv = 1.0 / np.sqrt(bn_state.variances[k].astype(dtype) + BN_EPS)
            scale = layout.view(theta, f"bn{k}.scale") * inv
            b = layout.view(theta, f"conv{k}.bias")
            folded.append((layout.view(theta, f"conv{k}.weight") * scale[:, None, None, None],
                           (b - bn_state.means[k].astype(dtype)) * scale + layout.view(theta, f"bn{k}.shift")))
        probs = np.empty((batch.shape[0], spec.n_classes), dtype=dtype)
        for s in range(0, batch.shape[0], EVAL_BATCH):
            flat = _conv_stack(spec, theta, layout, batch[s : s + EVAL_BATCH], folded, lambda k, z, cols, xp: z)
            probs[s : s + EVAL_BATCH] = _head(spec, theta, layout, flat)[0]
            del flat  # a slice's buffers are freed before the next one runs
        return probs

    cache = {"convs": []}

    def batch_norm(k, z, cols, xp):
        """Normalize z in place with its batch statistics, fold them into
        the running statistics, and cache what the backward needs."""
        # conv0's cols are kh*kw shifted copies of the one-channel batch, so
        # the backward rebuilds them from it rather than hold them all step
        entry = {"cols": cols} if k else {"xp": xp}
        m = z.shape[1] * z.shape[2] * z.shape[3]
        mu = z.mean(axis=(1, 2, 3))
        z -= mu[:, None, None, None]
        var = np.einsum("cbij,cbij->c", z, z) / m
        bn_state.means[k] = (BN_MOMENTUM * bn_state.means[k] + (1 - BN_MOMENTUM) * mu).astype(
            bn_state.means[k].dtype
        )
        bn_state.variances[k] = (BN_MOMENTUM * bn_state.variances[k] + (1 - BN_MOMENTUM) * var).astype(
            bn_state.variances[k].dtype
        )
        inv = 1.0 / np.sqrt(var + BN_EPS)
        z *= inv[:, None, None, None]
        xhat = z  # normalized activations; z is consumed in place
        bn_out = layout.view(theta, f"bn{k}.scale")[:, None, None, None] * xhat
        bn_out += layout.view(theta, f"bn{k}.shift")[:, None, None, None]
        entry.update(inv=inv, xhat=xhat, bn_out=bn_out)
        cache["convs"].append(entry)
        return bn_out

    weights = [(layout.view(theta, f"conv{k}.weight"), layout.view(theta, f"conv{k}.bias"))
               for k in range(len(spec.convs))]
    cache["flat_in"] = _conv_stack(spec, theta, layout, batch, weights, batch_norm)
    probs, cache["linear1_pre"], cache["head_in"] = _head(spec, theta, layout, cache["flat_in"])
    return probs, cache


def loss_and_grad(spec, theta, bn_state, batch, labels):
    """Mean cross-entropy over the batch and its exact gradient in theta.

    The backward pass differentiates through the batch-norm batch statistics
    (mean and variance), PReLU slopes and both linear layers; it is the
    quantity certified by the finite-difference oracle in the test suite.
    The batch takes any real dtype whose values are exact in theta's dtype,
    as in forward; the loss, gradient and running statistics then equal
    those of batch.astype(theta.dtype) to the bit.
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

    probs, cache = forward(spec, theta, bn_state, batch, mode="train")
    layout = build_layout(spec)
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

    dx = dflat.reshape(n, *spec.feature_shapes()[-1]).transpose(1, 0, 2, 3)
    for k in range(len(spec.convs) - 1, -1, -1):
        c = cache["convs"].pop()  # each layer's cache is freed once used
        conv = spec.convs[k]
        gamma = layout.view(theta, f"bn{k}.scale")
        slope = layout.view(theta, f"prelu{k}.slope")

        # PReLU: d/dslope = x on the negative side, so min(x, 0) selects it;
        # d/dx is the slope there and 1 where x > 0. dbn is made C-ordered
        # (dx may be a transposed view), which fixes the order of every
        # reduction below
        bn_out = c["bn_out"]
        neg_part = np.minimum(bn_out, 0)
        layout.view(grad, f"prelu{k}.slope")[...] = np.einsum("cbij,cbij->c", dx, neg_part)
        dbn = np.multiply(dx, slope[:, None, None, None], order="C")
        np.copyto(dbn, dx, where=bn_out > 0)

        # batch-norm backward through the batch statistics, in terms of xhat
        # (zc = xhat/inv); dxhat = gamma*dbn, so its sums reuse dbn's sums.
        # dmu has no dvar term: it carries sum(zc), which is 0 exactly
        xhat, inv = c["xhat"], c["inv"]
        sum_dbn = dbn.sum(axis=(1, 2, 3))
        sum_dbn_xhat = np.einsum("cbij,cbij->c", dbn, xhat)
        layout.view(grad, f"bn{k}.scale")[...] = sum_dbn_xhat
        layout.view(grad, f"bn{k}.shift")[...] = sum_dbn
        m = xhat.shape[1] * xhat.shape[2] * xhat.shape[3]
        dvar = -0.5 * inv**2 * (gamma * sum_dbn_xhat)
        dmu = -inv * (gamma * sum_dbn)
        dbn *= (gamma * inv)[:, None, None, None]
        dbn += np.multiply(((2.0 / m) * dvar / inv)[:, None, None, None], xhat, out=neg_part)
        dbn += (dmu / m)[:, None, None, None]
        dz = dbn  # accumulated in place

        w = layout.view(theta, f"conv{k}.weight")
        # conv k's input is conv k-1's PReLU output, of that layer's bn_out shape
        cols = c["cols"] if k else _im2col(c["xp"], conv)[0]
        in_shape = cache["convs"][-1]["bn_out"].shape if k else None
        dw, db, dx = _conv_backward(dz, cols, w, conv, in_shape, need_dx=k > 0)
        layout.view(grad, f"conv{k}.weight")[...] = dw
        layout.view(grad, f"conv{k}.bias")[...] = db

    return loss, grad


# ---------------------------------------------------------------------------
# Optimizers


def _check_grad(theta, grad):
    if theta.shape != grad.shape:
        raise ValueError(f"theta has shape {theta.shape}, grad {grad.shape}")
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite gradient ({np.count_nonzero(~np.isfinite(grad))} entries)")


def sgd_step(theta, grad, lr):
    """theta - lr * grad; rejects non-finite gradients. Keeps theta's dtype."""
    _check_grad(theta, grad)
    lr = float(lr)  # weak scalar: float32 parameters stay float32
    if lr <= 0:
        raise ValueError(f"step size must be positive, got {lr}")
    return theta - lr * grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n, dtype=np.float32):
        return cls(m=np.zeros(n, dtype=dtype), v=np.zeros(n, dtype=dtype))


def adam_step(state, theta, grad, lr):
    """One bias-corrected Adam update; returns (new state, new theta)."""
    _check_grad(theta, grad)
    lr = float(lr)
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grad**2
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    new_theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m=m, v=v, t=t), new_theta


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(spec, theta, bn_state, path):
    """Write spec + parameters + BN running stats; float32 payload is exact."""
    layout = build_layout(spec)
    if theta.shape != (layout.total,):
        raise IntegrityError(f"theta has {theta.shape[0]} entries, spec needs {layout.total}")
    spec_json = json.dumps(asdict(spec), sort_keys=True).encode("utf-8")
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


def load_checkpoint(path):
    """Read a checkpoint; returns (spec, theta, bn_state)."""
    r = BoundedReader(path, _CKPT_MAGIC, _CKPT_VERSION)
    r.header = False
    (spec_len,) = r.unpack("<I", "spec length")
    spec_json = r.take(spec_len, "spec JSON")
    try:
        spec = ArchitectureSpec.from_dict(json.loads(spec_json.decode("utf-8")))
    except (ValueError, KeyError, TypeError) as e:
        raise IntegrityError(f"checkpoint spec JSON is invalid: {e}") from e

    layout = build_layout(spec)
    (n_params,) = r.unpack("<Q", "param count")
    if n_params != layout.total:
        raise IntegrityError(
            f"checkpoint declares {n_params} parameters but its spec needs {layout.total}"
        )
    theta = r.floats(n_params, "parameters")
    (n_stats,) = r.unpack("<Q", "BN stat count")
    widths = [c.out_channels for c in spec.convs]
    if n_stats != sum(widths):
        raise IntegrityError(f"checkpoint has {n_stats} BN channels, spec needs {sum(widths)}")
    stats = r.floats(2 * n_stats, "BN statistics")
    r.finish("checkpoint")

    # means of every conv, then variances of every conv
    parts = np.split(stats, np.cumsum(widths + widths)[:-1])
    bn = BatchNormState(means=parts[: len(widths)], variances=parts[len(widths) : 2 * len(widths)])
    return spec, theta, bn
