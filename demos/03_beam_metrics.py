"""Codebooks, beam-pair powers, and the two headline metrics.

For a pure line-of-sight scene the power matrix is rank one, so the best
pair factorizes into the best transmit beam times the best receive beam;
top-K accuracy and the throughput ratio then quantify how much search
effort a predictor saves.
"""

import numpy as np

from fedbeam.channel import throughput_ratio, topk_accuracy
from fedbeam.dataset import Dataset, SynthConfig, synthesize_scene

cfg = SynthConfig(obstacles=0)
cb = cfg.codebook()
meta = cfg.meta(seed=0)
print(f"DFT codebooks: {cfg.c_t} tx beams on {cfg.n_t} antennas, "
      f"{cfg.c_r} rx beams on {cfg.n_r} antennas")
print(f"tx beam norms: {np.linalg.norm(cb.tx, axis=1).round(6)[:4]} ...")

print("\npure line-of-sight scene, vehicle at three spots along the street:")
for y in (10.0, 50.0, 90.0):
    s = synthesize_scene(cfg, (5.0, y), [], cb)
    tx, rx = divmod(s.label, cfg.c_r)
    print(f"  vehicle y={y:5.1f} m -> label {s.label:3d} (tx beam {tx:2d}, rx beam {rx}), "
          f"peak power {s.powers.max():.2f}")

print("\nbeam-sweep view of the y=10 scene (rows: tx beams, columns: rx beams):")
y_mat = synthesize_scene(cfg, (5.0, 10.0), [], cb).powers.reshape(cfg.c_t, cfg.c_r)
norm = y_mat / y_mat.max()
for i, row in enumerate(norm):
    bar = "".join(" .:-=+*#"[min(int(v * 7.999), 7)] for v in row)
    print(f"  tx {i:2d} |{bar}|")

print("\nmetrics on 400 synthetic scenes, oracle scorer vs random scorer:")
scenes = [synthesize_scene(cfg, (rng_x, rng_y), [], cb)
          for rng_x, rng_y in np.random.default_rng(0).uniform((0, 0), (10, 100), (400, 2))]
ds = Dataset(meta=meta, samples=scenes)
labels, powers = ds.labels(), ds.powers()
# One (N, C) score matrix per scorer gives its whole K curve.
random_scores = np.random.default_rng(1).standard_normal(powers.shape)
k_max = powers.shape[1]
o_acc, o_r = topk_accuracy(powers, labels, k_max), throughput_ratio(powers, powers, k_max)
r_acc, r_r = (topk_accuracy(random_scores, labels, k_max),
              throughput_ratio(random_scores, powers, k_max))
print("   K | oracle acc | oracle R | random acc | random R")
for k in (1, 2, 4, 8, 16, 64):
    print(f"  {k:2d} |   {o_acc[k - 1]:7.3f}  |  {o_r[k - 1]:6.3f}  "
          f"|   {r_acc[k - 1]:7.3f}  |  {r_r[k - 1]:6.3f}")
print("the oracle scorer ranks by true power, so it is perfect at every K;")
print("a random scorer needs K near the full codebook to catch up.")
