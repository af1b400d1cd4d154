import pytest

from icl_csma import experiment_harness as eh
from icl_csma.analytic_model import NetworkParams


@pytest.fixture(scope="session")
def table1():
    return NetworkParams()


@pytest.fixture(scope="session")
def default_config():
    return eh.ExperimentConfig()


@pytest.fixture(scope="session")
def trained(default_config):
    """One full training run shared by the fidelity / generalization tests."""
    model, trace, _ = eh.cmd_train(default_config)
    return default_config, model, trace


@pytest.fixture()
def tiny_config():
    """Small, fast configuration for harness round-trip tests."""
    return eh.ExperimentConfig(
        train_densities=(2, 3), test_densities=(20, 40), k_max=2,
        max_rounds=60, reps_per_query=2, sim_horizon_slots=20_000,
        sim_seeds=1, validate_densities=(1, 2), b_pct_sweep=(0.0, 40.0),
        n_est=5)
