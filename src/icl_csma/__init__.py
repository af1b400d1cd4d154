"""In-context contention-window optimization for saturated NP-CSMA.

Subpackages:

- ``analytic_model``: saturation throughput model, fixed-point solver, and
  optimal-ladder synthesis.
- ``mac_simulator``: slotted discrete-event DCF simulator (the empirical
  ground truth for the analytic model).
- ``prompt_pipeline``: dataset generation (one ``DensityExamples`` array set
  per density), label corruption, feature normalization, and prompt
  embedding.
- ``icl_transformer``: one-layer masked softmax attention, closed-form
  gradient, gradient-descent training, and model persistence.
- ``experiment_harness``: seeded experiment commands emitting CSV reports;
  ``cli`` exposes them as the ``icl-csma`` command.
"""

from .analytic_model import (
    BackoffLadder,
    FixedPointResult,
    NetworkParams,
    collision_prob,
    mismatch_loss,
    optimize_tau,
    solve_ladder,
    solve_tau,
    throughput,
)
from .mac_simulator import SimConfig, SimResult, run, run_all
from .prompt_pipeline import (
    DensityExamples,
    EmbeddedPrompt,
    FeatureScaler,
    build_prompt,
    corrupt_thresholds,
    embed,
    fit_scaler,
    generate_dataset,
    sample_training_prompts,
)
from .icl_transformer import (
    AttentionReport,
    TrainTrace,
    TrainedModel,
    TransformerParams,
    attention,
    gradient,
    load_model,
    loss,
    predict,
    round_threshold,
    save_model,
    train,
)
from .experiment_harness import ExperimentConfig, Report, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
