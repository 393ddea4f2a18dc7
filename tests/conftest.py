from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from privmarket import sim
from privmarket.model import ModelParams


@pytest.fixture
def default_params() -> ModelParams:
    """Equal priors, theta0 = 0.7, alpha = 0.25, eps = 0.1, N = 250."""
    return ModelParams(prior_w1=0.5, theta0=0.7, alpha=0.25, epsilon=0.1, population=250)


@pytest.fixture
def trial_forks(monkeypatch):
    """The trial processes `sim._run_trials` forks, listed as they start; they still run for real."""
    started = []

    class Listed(sim._TrialChild):
        def __init__(self, *task):
            super().__init__(*task)  # returns in the parent only
            started.append(self)

    monkeypatch.setattr(sim, "_TrialChild", Listed)
    return started


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_params(**kwargs) -> ModelParams:
    base = dict(prior_w1=0.5, theta0=0.7, alpha=0.25, epsilon=0.1, population=250)
    base.update(kwargs)
    return ModelParams(**base)
