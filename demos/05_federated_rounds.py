"""Federated averaging across simulated vehicles, with overhead accounting.

Vehicles never upload their LIDAR scans: each one trains locally and sends
only its parameter delta, so every aggregation round costs exactly |theta|
float32 values downlink and V * |theta| uplink. The second part measures
how the data each vehicle collects affects the rounds needed to hit a
target accuracy (reported over seeds, not asserted: it is statistical).
"""

import numpy as np

from fedbeam.dataset import SynthConfig, generate_synthetic
from fedbeam.fedavg import FedConfig, rounds_to_accuracy, run_federated
from fedbeam.nn import ArchitectureSpec, ConvSpec, count_params
from fedbeam.preprocess import GridConfig

synth = SynthConfig(area=(0.0, 5.0, 0.0, 40.0), obstacles=3,
                    obstacle_size_x=(0.5, 1.5), obstacle_size_y=(1.0, 4.0),
                    n_t=8, n_r=2, n_c=8, c_t=8, c_r=2)
grid = GridConfig(x_min=0, x_max=5, y_min=0, y_max=40, cells_x=10, cells_y=80)
spec = ArchitectureSpec(
    input_shape=grid.shape,
    convs=(ConvSpec(1, 4, (3, 3), 2, 1), ConvSpec(4, 4, (3, 3), 2, 1),
           ConvSpec(4, 4, (3, 3), 2, 1)),
    hidden=12,
    n_classes=synth.c_t * synth.c_r,
)
print(f"small-street setup: {synth.c_t * synth.c_r} beam pairs, "
      f"{count_params(spec)} trainable parameters")

train = generate_synthetic(synth, 240, seed=21)
test = generate_synthetic(synth, 80, seed=22)

cfg = FedConfig(vehicles=3, local_epochs=1, max_rounds=12, batch_size=8,
                accuracy_top_k=3, partition_seed=1, init_seed=2, shuffle_seed=3)
print(f"\n{cfg.vehicles} vehicles, {cfg.local_epochs} local epoch(s) per round, "
      f"server rate {cfg.server_lr}, local rate {cfg.local_lr} decaying by {cfg.lr_decay}/step")
theta, bn_state, logs, _ = run_federated(cfg, train, test, spec, grid)

print("\nround | top-1  | top-3  |   R    |   O_DL    |   O_UL")
for e in logs:
    print(f"  {e.round_index:3d} | {e.top1_accuracy:.3f}  | {e.topk_accuracy:.3f}  "
          f"| {e.throughput_ratio:.3f}  | {e.o_dl:9d} | {e.o_ul:9d}")
n = count_params(spec)
print(f"\nafter {len(logs)} rounds the counters are exactly "
      f"{len(logs)}*|theta|={len(logs) * n} down and "
      f"{cfg.vehicles}*{len(logs)}*|theta|={cfg.vehicles * len(logs) * n} up.")

print("\n--- data volume vs rounds-to-accuracy (5 seeds, reported) ---")
target = 0.72
print(f"target: top-3 accuracy > {target:.0%}; same vehicles, half vs full data")
header = "seed | 120 scenes | 240 scenes"
print(header)
for seed in range(5):
    cells = []
    for n_train in (120, 240):
        sub = generate_synthetic(synth, n_train, seed=100 + seed)
        run_cfg = FedConfig(vehicles=3, local_epochs=1, max_rounds=10, batch_size=8,
                            accuracy_top_k=3, target_accuracy=target,
                            partition_seed=seed, init_seed=seed, shuffle_seed=seed)
        _, _, sub_logs, _ = run_federated(run_cfg, sub, test, spec, grid)
        reached = rounds_to_accuracy(sub_logs, target)
        cells.append("not reached" if reached is None else f"round {reached}")
    print(f"  {seed}  | {cells[0]:>10} | {cells[1]:>10}")
print("more local data per vehicle should not hurt; expect the full-data")
print("column to reach the target at least as often as the half-data one.")
