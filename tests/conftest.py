import math

import numpy as np
import pytest
from hypothesis import settings

from debias_forge.classifier import Featurizer
from debias_forge.synthgen import SynthConfig, gen_dataset, inject_bias, make_eval_suite

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# fuzz failure in CI reruns the same way anywhere; without it, each run
# explores new ones
settings.register_profile("ci", derandomize=True)


TINY = SynthConfig(
    num_labels=3,
    train_size=800,
    test_size=200,
    vocab_size=60,
    tokens_per_segment=4,
    seed=11,
)


@pytest.fixture(scope="session")
def tiny_cfg():
    return TINY


@pytest.fixture(scope="session")
def tiny_clean():
    return gen_dataset(TINY)


@pytest.fixture(scope="session")
def tiny_train(tiny_clean):
    return inject_bias(tiny_clean, m=0.9, rho=0.3, seed=TINY.seed)


@pytest.fixture(scope="session")
def tiny_suite():
    return make_eval_suite(TINY)


def nearest_rank_percentiles(values, levels=(0, 25, 50, 75, 100)):
    """The nearest-rank percentiles of values: per level p, the ceil(p/100 * n)-th
    smallest value (the smallest for p = 0)."""
    s = np.sort(np.asarray(values, dtype=np.float64))
    return tuple(float(s[max(1, math.ceil(p / 100.0 * s.size)) - 1]) for p in levels)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


@pytest.fixture()
def featurized(monkeypatch):
    """The number of examples of each Featurizer.matrix call, in call order."""
    lengths = []
    matrix = Featurizer.matrix

    def counting(self, examples):
        lengths.append(len(examples))
        return matrix(self, examples)

    monkeypatch.setattr(Featurizer, "matrix", counting)
    return lengths


# collected by the acceptance tests; echoed after the run so the per-criterion
# verdicts survive output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
