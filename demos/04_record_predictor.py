"""
Predicting the record bit from a single impact coordinate
=========================================================

Half the pairs carry a persistent which-way record (flat law), half are
erased (interference law). The posterior that a given impact came from a
recorded pair is 1/(1 + 2 cos^2(pi x / a)) on an integer-period window:
1/3 at a bright fringe, 1 at a dark fringe. A controller thresholding that
posterior at 1/2 can reach accuracy (1 + TV)/2 and no more.
"""

import numpy as np

from dualitysim import OpticsConfig, Protocol, ProtocolConfig, approx_posterior, run_predictor, tv_distance

cfg = OpticsConfig()
a = cfg.fringe_scale_m

print("posterior along one period:")
for frac in (0.0, 0.25, 0.4, 0.5):
    x = frac * a
    print(f"  x = {frac:4.2f} a: P(recorded | x) = {float(np.asarray(approx_posterior(x, cfg))):.4f}")

run = run_predictor(ProtocolConfig(protocol=Protocol.PREDICTOR, n_pairs=400_000, seed=11))
stats = run.predictor

print(f"\n{run.bin_edges.size - 1} fringe-aligned bins, {run.config.n_pairs} pairs")
print(f"max |empirical - posterior curve|  = {stats.max_abs_deviation_curve:.4f}")
print(f"empirical posterior at dark bins  >= {stats.dark_fringe_min_empirical:.4f}")
print(f"controller accuracy                = {stats.accuracy_empirical:.4f}")
print(f"theoretical ceiling (1 + TV) / 2   = {stats.accuracy_expected:.4f}")
print(f"TV distance between the two laws   = {tv_distance(cfg):.4f}")
