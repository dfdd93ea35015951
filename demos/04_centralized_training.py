"""Train the compact classifier centrally on a small synthetic benchmark.

Runs in a minute or two on a laptop: 1500 training scenes, 64 beam pairs,
Adam with a stepped learning-rate drop, then a K-sweep evaluation report.
Each epoch's mean loss comes from train_centralized's INFO log, turned on
below with logging.basicConfig.
"""

import logging
import time

from fedbeam.dataset import SynthConfig, generate_synthetic
from fedbeam.evaluation import CentralTrainConfig, evaluate, train_centralized
from fedbeam.nn import count_flops, count_params, default_architecture
from fedbeam.preprocess import default_grid

logging.basicConfig(level=logging.INFO, format="%(message)s")
synth = SynthConfig()
print("generating 1500 train / 300 test scenes...")
train = generate_synthetic(synth, 1500, seed=11)
test = generate_synthetic(synth, 300, seed=12)

grid = default_grid()
spec = default_architecture(input_shape=grid.shape, n_classes=synth.c_t * synth.c_r)
print(f"model: {count_params(spec)} parameters, {count_flops(spec)} forward flops, "
      f"{spec.flat_features} features at the linear head")

cfg = CentralTrainConfig(epochs=10, batch_size=16, lr=1e-3, lr_drop_epoch=6, seed=0)
print(f"\ntraining: {cfg.epochs} epochs, batch {cfg.batch_size}, Adam lr {cfg.lr} "
      f"(x{cfg.lr_drop_factor} after epoch {cfg.lr_drop_epoch})")
t0 = time.time()
theta, bn_state = train_centralized(cfg, spec, train, grid)
print(f"trained in {time.time() - t0:.0f}s")

report = evaluate(theta, bn_state, spec, test, grid, k_max=10)
print("\nK-sweep on the held-out scenes:")
print("   K | top-K accuracy | throughput ratio")
for i, k in enumerate(report.k_values):
    print(f"  {k:2d} |     {report.accuracy[i]:6.3f}     |     {report.throughput[i]:6.3f}")
print("\nan exhaustive sweep would test all 64 pairs; the curves show how few")
print("candidates the classifier needs before the link is near-optimal.")
