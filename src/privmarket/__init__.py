"""Privacy-preserving data-collection market over a social learning graph.

Library layout:

* `model`     - market parameters, cost functions, signal sampling
* `graph`     - social graph generation, ingestion, degree statistics
* `strategy`  - equilibrium reporting strategies and privacy levels
* `mechanism` - peer-prediction payment constants
* `analytics` - closed-form moments, accuracy and payment bounds
* `sim`       - Monte Carlo engine and sweeps
* `config`/`cli` - run configuration and the command-line front end
"""

__version__ = "0.1.0"

from .model import ModelParams, CostFunction, quadratic_cost, theta1  # noqa: F401
from .graph import Graph, DegreeDistribution  # noqa: F401
from .strategy import (  # noqa: F401
    bar_A,
    build_mv_strategy,
    equal_priors_tau,
    solve_xi,
    upsilon,
)
from .mechanism import (  # noqa: F401
    MechanismConfig,
    design_Z,
    design_Z0_Z1,
)
from .analytics import (  # noqa: F401
    Prediction,
    ReportLaw,
    ReportMoments,
    bhattacharyya,
    expected_total_payment,
    mv_moments_equal_priors,
    nd_moments,
    payment_bound,
    predict,
    std_normal_cdf,
)
