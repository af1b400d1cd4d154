"""Train the one-layer attention optimizer and inspect what it learned.

Full-batch gradient descent from Q = 0 for a fixed 10,000 updates at step
size 0.05 (ramped up linearly over the first 20) over prompts with sampled
stage compositions.  After training, the query column puts almost
all of its attention on the in-context example of its own collision stage,
so the prediction reproduces that stage's threshold.
"""

import numpy as np

from icl_csma import experiment_harness as eh
from icl_csma.analytic_model import design_ladder
from icl_csma.prompt_pipeline import generate_dataset

config = eh.ExperimentConfig()
print(f"training on densities {config.train_densities}, K={config.k_max}, "
      f"M={config.n_stages}, eta={config.step_size}, "
      f"{config.max_rounds} steps")

model, trace, _ = eh.cmd_train(config)
losses = trace.losses
marks = [0, 10, 100, 1000, 5000, len(losses) - 1]
print("loss trace:", {t: f"{losses[t]:.3e}" for t in marks})
print(f"final/initial loss ratio: {losses[-1] / losses[0]:.2e}")
print()

dataset = generate_dataset(config.train_densities, config.k_max, config.cap,
                           config.params, config.jitter_pct, config.master_seed)
print(f"{'N':>3} {'min attn mass':>14}  predicted vs optimal thresholds")
for n, examples in zip(config.train_densities, dataset):
    (preds,), masses = eh.predict_thresholds(model, examples, [examples.labels],
                                             config.k_max)
    optimal = design_ladder(n, config.params, config.k_max, config.cap)[0].thresholds
    rounded = [round(p) for p in preds]
    print(f"{n:3d} {min(masses):14.4f}  {rounded}")
    print(f"{'':18}  {list(optimal)}")
print()
print("attention matrix diagonal (stage-indicator block):")
print(np.round(np.diag(model.params.q_matrix)[:config.n_stages], 3))
