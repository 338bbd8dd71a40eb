"""Train a switch-routed autoencoder and watch it send cheap frames down
the cheap path.

The model is a dense autoencoder with a block inserted after the first
layer: a multiplicative mask on the activation, a tiny regressor (the
switch) that predicts how far the lightweight decoder will land from the
full one, and the lightweight decoder itself, a shallow two-layer stand-in
for the remaining layers trained by imitation. At inference the switch's prediction
against a threshold decides which decoder runs.

Runtime: a couple of minutes on a desktop CPU.
"""

import numpy as np

from switchpass import data as dat
from switchpass import evaluation as ev
from switchpass import nn, routing, training
from switchpass.autograd import Tensor

# A reduced copy of the default configuration so the demo stays snappy.
cfg = training.TrainConfig(epochs=200, seed=7)
cfg.data.n_easy = 900
cfg.data.n_hard = 600

print("training", cfg.epochs, "epochs on",
      cfg.data.n_easy + cfg.data.n_hard, "frames ...")
result = training.train(cfg)
model, ds = result.model, result.dataset
print(f"reconstruction loss: {result.metrics[0]['l_recon']:.4f} (epoch 1) -> "
      f"{result.metrics[-1]['l_recon']:.4f} (epoch {cfg.epochs})")

# Calibrate the routing threshold so the default share (~60%) of the
# calibration split goes light.
fraction = routing.DEFAULT_TARGET_LIGHT_FRACTION
preds = model.switch_predictions(Tensor(dat.frames_to_matrix(ds.calibrate)))
tau = routing.calibrate_threshold(preds, fraction)
print(f"\ncalibrated threshold tau = {tau:.4f} ({fraction:.0%} light on the calibration split)")

report = ev.routing_stats(model, ds.test, tau)
print("\nrouting on the held-out test split:")
for tag in sorted(report.light_fraction):
    slot = report.counts[tag]
    print(f"  {tag:5s}: {slot['light']:4d} light / {slot['full']:4d} full "
          f"({100 * report.light_fraction[tag]:.1f}% light)")

print("\nper-frame compute (multiply-accumulates):")
print(f"  full pass only : {report.macs_full_only}")
print(f"  light pass only: {report.macs_light_only}")
print(f"  mixed (actual) : {report.expected_macs_mixed:.0f}  "
      f"({report.macs_full_only / report.expected_macs_mixed:.2f}x cheaper than full)")
print(f"  bare decoders  : suffix {nn.mac_count(model.suffix)} vs "
      f"light {nn.mac_count(model.light)} "
      f"({nn.mac_count(model.suffix) / nn.mac_count(model.light):.1f}x)")

parity = ev.quality_parity(model, ds.test, tau)
hard = [f for f in ds.test if f.difficulty == dat.HARD]
parity_hard = ev.quality_parity(model, hard, tau)
print("\nreconstruction quality (MSE, test split):")
print(f"  full  : {parity.mse_full:.5f}")
print(f"  light : {parity.mse_light:.5f}")
print(f"  mixed : {parity.mse_mixed:.5f}  "
      f"({100 * (parity.mse_mixed / parity.mse_full - 1):+.2f}% vs full)")
print(f"  on hard frames alone, light-only degrades "
      f"{parity_hard.mse_light / parity_hard.mse_full:.2f}x vs full:")
print("  the mixed pass keeps quality because hard frames stay on the full path.")

# What the switch actually predicts per class.
print("\nswitch predictions (distance between passes) by difficulty:")
for tag in (dat.EASY, dat.HARD):
    frames = [f for f in ds.test if f.difficulty == tag]
    p = model.switch_predictions(Tensor(dat.frames_to_matrix(frames)))
    print(f"  {tag:5s}: median {np.median(p):.3f}  (p10 {np.percentile(p, 10):.3f}, "
          f"p90 {np.percentile(p, 90):.3f})")
