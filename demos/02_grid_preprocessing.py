"""Quantization rules of the occupancy-grid preprocessing, shown one by one.

The grid drops the z axis, bins points into square cells, then overwrites
the base-station cell with -2 and the vehicle cell with -1. Points on the
upper box edge clamp into the last cell; points outside are dropped.
lidar_to_grid returns the (cells_x, cells_y) int8 code array itself.
"""

import numpy as np

from fedbeam.dataset import Dataset, DatasetMeta, Sample
from fedbeam.fedavg import preprocess_dataset
from fedbeam.preprocess import GridConfig, lidar_to_grid

cfg = GridConfig(x_min=0, x_max=10, y_min=0, y_max=10, cells_x=10, cells_y=10)
print(f"grid: {cfg.cells_x} x {cfg.cells_y} cells of {cfg.dx} m over a 10 m box")


def sample(cloud, vehicle, bs=(50.0, 50.0, 5.0)):
    return Sample(cloud=np.asarray(cloud, dtype=np.float32).reshape(-1, 3),
                  vehicle_pos=vehicle, bs_pos=bs, label=0)


def scene(cloud, vehicle, bs=(50.0, 50.0, 5.0)):
    return lidar_to_grid(sample(cloud, vehicle, bs), cfg)


print("\n1. edge handling: points at 9.999, 10.0 (edge) and 10.5 (outside)")
g = scene([[9.999, 0, 0], [10.0, 0, 0], [10.5, 0, 0]], vehicle=(5.0, 5.0, 1.6))
print(f"   cell (9, 0) = {g[9, 0]}  (both in-box points land here)")
print(f"   occupied cells = {np.count_nonzero(g == 1)}  (the 10.5 point was dropped)")

print("\n2. marker precedence: vehicle > base station > obstacle")
g = scene([[2.2, 7.3, 0.0]], vehicle=(2.4, 7.4, 1.6), bs=(2.3, 7.1, 5.0))
print(f"   cell holding all three = {g[2, 7]}  (vehicle wins)")

print("\n3. height is discarded: z only affects nothing")
g_low = scene([[4.0, 4.0, 0.1]], vehicle=(1.0, 1.0, 1.6))
g_high = scene([[4.0, 4.0, 99.0]], vehicle=(1.0, 1.0, 1.6))
print(f"   grids identical: {np.array_equal(g_low, g_high)}")

print("\n4. duplicating points changes nothing (occupancy, not density)")
pts = np.array([[3.0, 3.0, 0.0], [6.0, 6.0, 0.0]])
g1 = scene(pts, vehicle=(1.0, 1.0, 1.6))
g2 = scene(np.vstack([pts] * 5), vehicle=(1.0, 1.0, 1.6))
print(f"   grids identical: {np.array_equal(g1, g2)}")

print("\n5. whole-cell translations shift the grid exactly")
base_pts = np.array([[2.0, 2.0, 0.0], [2.0, 3.0, 0.0]])
vehicle = np.array([1.2, 5.0, 1.6])
shift = np.array([3 * cfg.dx, 0.0, 0.0])
g0 = scene(base_pts, vehicle=vehicle)
g1 = scene(base_pts + shift, vehicle=vehicle + shift)
print(f"   rolled match: {np.array_equal(np.roll(g0, 3, axis=0), g1)}")

print("\n6. the network input is the raw code grid, one channel")
meta = DatasetMeta(c_t=1, c_r=1, n_t=1, n_r=1, n_c=1, area=(0.0, 10.0, 0.0, 10.0), seed=0)
x, _ = preprocess_dataset(Dataset(meta=meta, samples=[sample(base_pts, vehicle)]), cfg)
print(f"   tensor shape {x.shape}, dtype {x.dtype}, values {sorted(set(x.ravel().tolist()))}")
print(f"   equals the code grid: {np.array_equal(x[0, 0], g0)}")
