from __future__ import annotations

import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from privmarket.model import ModelParams


@pytest.fixture
def default_params() -> ModelParams:
    """Equal priors, theta0 = 0.7, alpha = 0.25, eps = 0.1, N = 250."""
    return ModelParams(prior_w1=0.5, theta0=0.7, alpha=0.25, epsilon=0.1, population=250)


@pytest.fixture
def trial_forks(monkeypatch):
    """The trial processes `sim._run_trials` forks, listed as they start; they still run for real."""
    ctx = multiprocessing.get_context("fork")
    started = []

    class Listed(ctx.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(ctx, "Process", Listed)
    return started


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_params(**kwargs) -> ModelParams:
    base = dict(prior_w1=0.5, theta0=0.7, alpha=0.25, epsilon=0.1, population=250)
    base.update(kwargs)
    return ModelParams(**base)
