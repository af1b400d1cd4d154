"""From analytic ladders to embedded prompts.

Generates the labeled dataset (one example set per density, one example per
collision stage, with jittered timing measurements), corrupts a copy of the
labels, fits the feature scaler, and shows how a prompt is assembled and
embedded.
"""

import numpy as np

from icl_csma.analytic_model import NetworkParams
from icl_csma.prompt_pipeline import (
    build_prompt,
    corrupt_thresholds,
    embed,
    fit_scaler,
    generate_dataset,
)

params = NetworkParams()
densities = [2, 3, 4, 5, 6]
dataset = generate_dataset(densities, k_max=8, cap=32768, params=params,
                           jitter_pct=0.05, seed=7)

by_density = {examples.density: examples for examples in dataset}
print("dataset:", sum(len(s.labels) for s in dataset), "examples;", "labels per density:")
for n in densities:
    print(f"  N={n}: {by_density[n].labels.tolist()}")
print()

corrupted = corrupt_thresholds(by_density[4].labels, b_pct=40.0,
                               rng=np.random.default_rng(3), cap=32768)
print("40% errors on density 4:",
      by_density[4].labels.tolist(), "->", corrupted.tolist())
print()

scaler = fit_scaler(dataset)
print("scaler shift:", np.round(scaler.shift, 2))
print("scaler scale:", np.round(scaler.scale, 2))
print()

prompt = build_prompt(by_density[5], query_stage=3, scaler=scaler)
embedded = embed(prompt)
print("prompt for density 5, querying stage 3:")
print("  embedding shape:", embedded.matrix.shape,
      "(9 stage-indicator rows + 3 timing rows + 1 label row, M+1 columns)")
print("  label row:", embedded.matrix[-1].astype(int),
      "<- query label slot is held out as 0")
print("  held-out label:", embedded.query_label)
