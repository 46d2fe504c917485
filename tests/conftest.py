import logging

import numpy as np
import pytest

from fixflow import kernels, trainer

# Pinned seeds for the bundled task and its train/eval draws; the whole
# suite, including acceptance, is deterministic given these.
TASK_SEED = 7
TRAIN_DRAW = 701
EVAL_DRAW = 702
INIT_SEED = 1
TRAIN_SEED = 3


@pytest.fixture(scope="session")
def jet_train_data():
    return trainer.synthetic_task(seed=TASK_SEED, n_samples=2000, sample_seed=TRAIN_DRAW)


@pytest.fixture(scope="session")
def jet_eval_data():
    return trainer.synthetic_task(seed=TASK_SEED, n_samples=1000, sample_seed=EVAL_DRAW)


@pytest.fixture(scope="session")
def jet_init_model():
    return trainer.build_classifier(16, [64, 32, 32], 5, seed=INIT_SEED)


@pytest.fixture(scope="session")
def jet_float_model(jet_init_model, jet_train_data):
    cfg = trainer.TrainingConfig(epochs=100, seed=TRAIN_SEED, learning_rate=0.01)
    model, _ = trainer.train(jet_init_model, jet_train_data, cfg)
    return model


class _StepLog(logging.Handler):
    """Collects the choice of each step a plan runs from the kernels' DEBUG log."""

    DTYPES = {"int64": np.int64, "object": object, "float64": np.float64}

    def __init__(self, calls):
        super().__init__(logging.DEBUG)
        self.calls = calls

    def emit(self, record):
        layer, dtype, branch, origin = record.args
        self.calls.append({"layer": layer, "dtype": self.DTYPES[dtype], "branch": branch,
                           "proven": origin == "proven from the spec",
                           "loop": branch in (kernels.EXACT, kernels.CLAMP)})


@pytest.fixture()
def mac_calls():
    """A list that gets, per step a plan runs, what its DEBUG log line records:
    the layer, the dtype, the branch, whether the spec proved the choice, and
    ``loop``, whether a sum ran the blocked loop."""
    calls, logger = [], logging.getLogger("fixflow.kernels")
    handler, level, propagate = _StepLog(calls), logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    logger.propagate = False
    yield calls
    logger.removeHandler(handler)
    logger.setLevel(level)
    logger.propagate = propagate
