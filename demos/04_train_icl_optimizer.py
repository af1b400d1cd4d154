"""Train the one-layer attention optimizer and inspect what it learned.

Full-batch normalized gradient descent from Q = 0 at step size 0.05 over
prompts with sampled stage compositions, until every prompt puts 0.99 of its
attention on its query's stage (a handful of updates).  After training, the
query column puts almost all of its attention on the in-context example of
its own collision stage, so the prediction reproduces that stage's threshold.
"""

import numpy as np

from icl_csma import experiment_harness as eh
from icl_csma.analytic_model import design_ladder
from icl_csma.prompt_pipeline import generate_dataset

config = eh.ExperimentConfig()
print(f"training on densities {config.train_densities}, K={config.k_max}, "
      f"M={config.n_stages}, eta={config.step_size}, "
      f"at most {config.max_rounds} steps")

model, trace, _ = eh.cmd_train(config)
losses = trace.losses
print(f"stopped after {len(trace.step_norms)} updates: {trace.stop_reason}")
marks = sorted({t for t in (0, 1, 2, 3, 10, 100, 1000) if t < len(losses)} | {len(losses) - 1})
print("loss trace:", {t: f"{losses[t]:.3e}" for t in marks})
print("batch query-stage mass:", {t: f"{trace.query_masses[t]:.4f}" for t in marks})
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
