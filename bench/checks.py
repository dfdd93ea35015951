"""Output checks computed apart from the program.

Each check raises CheckFailed with a message naming what disagreed. The
reference computations here are deliberately plain loops: they share no
code with fedbeam's vectorized paths.
"""

import csv
import json
import math
import struct


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_fbds(path):
    """Independent reader of the `.fbds` layout (see the README's format).

    Returns (meta dict, [scene dict]); each scene holds its points as
    (x, y) pairs, the vehicle and BS (x, y), the label and the powers.
    """
    with open(path, "rb") as f:
        data = f.read()
    require(data[:4] == b"FBDS", f"{path}: bad magic")
    version, = struct.unpack_from("<I", data, 4)
    require(version == 1, f"{path}: version {version}")
    c_t, c_r, n_t, n_r, n_c = struct.unpack_from("<5H", data, 8)
    area = struct.unpack_from("<4f", data, 18)
    _, count = struct.unpack_from("<QQ", data, 34)   # seed, scene count
    off = 50
    n_pairs = c_t * c_r
    scenes = []
    for _ in range(count):
        n_points, = struct.unpack_from("<I", data, off)
        off += 4
        xyz = struct.unpack_from(f"<{3 * n_points}f", data, off)
        off += 12 * n_points
        vehicle = struct.unpack_from("<3f", data, off)
        bs = struct.unpack_from("<3f", data, off + 12)
        label, flag = struct.unpack_from("<HB", data, off + 24)
        off += 27
        powers = None
        if flag:
            powers = struct.unpack_from(f"<{n_pairs}f", data, off)
            off += 4 * n_pairs
        scenes.append({"points": list(zip(xyz[0::3], xyz[1::3])), "vehicle": vehicle[:2],
                       "bs": bs[:2], "label": label, "powers": powers})
    require(off == len(data), f"{path}: {len(data) - off} trailing bytes")
    meta = {"n_pairs": n_pairs, "area": area, "count": count}
    return meta, scenes


def check_scenes(path, expect_count):
    """Scene count, and every label is the first argmax of its powers."""
    meta, scenes = read_fbds(path)
    require(meta["count"] == expect_count, f"{path}: {meta['count']} scenes, expected {expect_count}")
    for k, s in enumerate(scenes):
        p = s["powers"]
        require(p is not None, f"{path}: scene {k} has no powers")
        best = max(range(len(p)), key=lambda c: (p[c], -c))
        require(s["label"] == best, f"{path}: scene {k} label {s['label']} is not argmax {best}")
    return meta, scenes


def param_count(input_shape, convs, hidden, n_classes):
    """|theta| from the architecture: conv weight + bias, BN scale + shift and
    one PReLU slope per channel, then the two linear layers."""
    h, w = input_shape
    channels = 1
    total = 0
    for out, kernel, stride, pad in convs:
        total += out * channels * kernel * kernel + 4 * out
        h = (h + 2 * pad - kernel) // stride + 1
        w = (w + 2 * pad - kernel) // stride + 1
        channels = out
    flat = channels * h * w
    return total + hidden * flat + hidden + n_classes * hidden + n_classes


def k_curves(probs, labels, powers, k_max):
    """Per-sample loop: top-K accuracy and throughput ratio for K = 1..k_max,
    ranking classes by probability with ties to the lowest index."""
    n = len(labels)
    hits = [0] * k_max
    num = [0.0] * k_max
    den = 0.0
    for row, label, pw in zip(probs, labels, powers):
        ranked = sorted(range(len(row)), key=lambda c: (-row[c], c))
        den += math.log2(1.0 + max(pw))
        best = 0.0
        for k in range(k_max):
            c = ranked[k]
            best = max(best, pw[c])
            num[k] += math.log2(1.0 + best)
            if c == label:
                for j in range(k, k_max):
                    hits[j] += 1
    return [h / n for h in hits], [x / den for x in num]


def check_report(path, probs, labels, powers, k_max, chance):
    """report.json against the recomputed curves and the metrics' properties."""
    with open(path) as f:
        rep = json.load(f)
    acc, ratio = rep["accuracy"], rep["throughput_ratio"]
    require(rep["k"] == list(range(1, k_max + 1)), f"{path}: K values {rep['k'][:3]}...")
    ref_acc, ref_ratio = k_curves(probs, labels, powers, k_max)
    require(acc == ref_acc, f"{path}: accuracy curve differs from the recomputed one")
    worst = max(abs(a - b) for a, b in zip(ratio, ref_ratio))
    require(worst < 1e-5, f"{path}: throughput curve off by {worst:.3g}")
    require(all(b >= a for a, b in zip(acc, acc[1:])), f"{path}: accuracy decreases in K")
    require(all(b >= a - 1e-12 for a, b in zip(ratio, ratio[1:])), f"{path}: throughput decreases in K")
    require(acc[-1] == 1.0 and abs(ratio[-1] - 1.0) < 1e-6, f"{path}: curves do not reach 1 at K={k_max}")
    require(acc[9] >= 2 * chance, f"{path}: top-10 accuracy {acc[9]:.3f} is not well above {chance:.3f}")
    require(rep["n_samples"] == len(labels), f"{path}: n_samples {rep['n_samples']}")
    return rep


def check_rounds(path, rounds, vehicles, n_params):
    """rounds.csv: O_DL = r|theta| and O_UL = V r |theta| on every row."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    require(len(rows) == rounds, f"{path}: {len(rows)} rounds, expected {rounds}")
    for r, row in enumerate(rows, start=1):
        require(int(row["round"]) == r, f"{path}: row {r} is round {row['round']}")
        require(int(row["o_dl_float32"]) == r * n_params, f"{path}: round {r} O_DL {row['o_dl_float32']}")
        require(int(row["o_ul_float32"]) == vehicles * r * n_params,
                f"{path}: round {r} O_UL {row['o_ul_float32']}")
    return int(rows[-1]["o_ul_float32"])


def rounds_without_wall(data):
    """rounds.csv bytes with the wall_ms column removed."""
    return [line.rsplit(b",", 1)[0] for line in data.splitlines()]


def rasterize(scene, box, cells):
    """Own binning loop: occupied cells 1, then the BS cell -2, then the
    vehicle cell -1 (vehicle > BS > occupied); upper box edges fall into
    the last cell and points outside the box are dropped."""
    x_min, x_max, y_min, y_max = box
    nx, ny = cells
    dx, dy = (x_max - x_min) / nx, (y_max - y_min) / ny

    def cell(x, y):
        ix = nx - 1 if x == x_max else math.floor((x - x_min) / dx)
        iy = ny - 1 if y == y_max else math.floor((y - y_min) / dy)
        return ix, iy

    def inside(x, y):
        return x_min <= x <= x_max and y_min <= y <= y_max

    grid = [[0] * ny for _ in range(nx)]
    for x, y in scene["points"]:
        if inside(x, y):
            ix, iy = cell(x, y)
            grid[ix][iy] = 1
    for code, (x, y) in ((-2, scene["bs"]), (-1, scene["vehicle"])):
        if inside(x, y):
            ix, iy = cell(x, y)
            grid[ix][iy] = code
    return grid


def check_rasterization(inputs, scenes, box, cells, stride):
    """preprocess_dataset's tensors against the own loop on every stride-th scene."""
    for k in range(0, len(scenes), stride):
        ref = rasterize(scenes[k], box, cells)
        got = inputs[k][0].tolist()
        require(got == ref, f"scene {k}: occupancy grid differs from the reference binning")
