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


@pytest.fixture()
def mac_calls(monkeypatch):
    """A list that gets, per ``kernels._mac`` call, the dtype it chose and whether its blocked loop ran."""
    calls, current = [], []
    mac, pick, shift_round = kernels._mac, kernels.int_dtype, kernels.shift_round

    def spy_mac(*args):
        current.append({"dtype": None, "loop": False})
        try:
            return mac(*args)
        finally:
            calls.append(current.pop())

    def spy_pick(*bounds):
        dtype = pick(*bounds)
        if current:
            current[-1]["dtype"] = dtype
        return dtype

    def spy_shift_round(*args):
        if current:
            current[-1]["loop"] = True
        return shift_round(*args)

    monkeypatch.setattr(kernels, "_mac", spy_mac)
    monkeypatch.setattr(kernels, "int_dtype", spy_pick)
    monkeypatch.setattr(kernels, "shift_round", spy_shift_round)
    return calls

