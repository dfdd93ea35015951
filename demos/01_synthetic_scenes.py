"""Walk through the synthetic scene generator.

Each scene drops a vehicle and a handful of box obstacles onto a street,
ray-casts which obstacle faces the vehicle's LIDAR can see, and labels the
scene with the strongest beam pair of a geometric multipath channel
(line of sight plus one specular bounce per visible face).
"""

import numpy as np

from fedbeam.dataset import SynthConfig, generate_synthetic
from fedbeam.preprocess import default_grid, lidar_to_grid

cfg = SynthConfig()
print("generator defaults:")
print(f"  street box       : {cfg.area} m")
print(f"  base station     : {cfg.bs_pos} (off-street so bearings spread over the codebook)")
print(f"  obstacles        : {cfg.obstacles} boxes per scene")
print(f"  beams            : {cfg.c_t} tx x {cfg.c_r} rx = {cfg.c_t * cfg.c_r} pairs")
print(f"  antennas         : {cfg.n_t} tx, {cfg.n_r} rx, {cfg.n_c} subcarriers")

print("\ngenerating 500 scenes (seed 7)...")
ds = generate_synthetic(cfg, 500, seed=7)

labels = ds.labels()
counts = np.bincount(labels, minlength=ds.meta.n_pairs)
used = np.nonzero(counts)[0]
print(f"labels in use: {len(used)} of {ds.meta.n_pairs}")
print(f"most common label: {counts.argmax()} ({counts.max() / len(ds):.1%} of scenes)")
print("top five labels:")
for lab in np.argsort(-counts)[:5]:
    tx, rx = divmod(int(lab), cfg.c_r)
    print(f"  pair (tx {tx:2d}, rx {rx}) = label {lab:3d}: {counts[lab] / len(ds):6.1%}")

cloud_sizes = np.array([len(s.cloud) for s in ds.samples])
print(f"\npoint-cloud sizes: min {cloud_sizes.min()}, median {int(np.median(cloud_sizes))}, "
      f"max {cloud_sizes.max()}")

# render one scene's occupancy grid; the vehicle is 'V', occupied cells '#'
sample = ds.samples[int(np.argmax(cloud_sizes))]
cells = lidar_to_grid(sample, default_grid())  # (20, 200) int8 codes
glyphs = {0: ".", 1: "#", -1: "V", -2: "B"}
print(f"\nbusiest scene (label {sample.label}, {len(sample.cloud)} points), "
      "0.5 m cells, street left-to-right (every 2nd column):")
for row in cells[:, ::2]:
    print("  " + "".join(glyphs[int(v)] for v in row))
