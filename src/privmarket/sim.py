"""Monte Carlo engine.

A trial draws the world state and the private signals on a fixed graph
with the model's samplers, counts each user's friends holding signal 1,
and draws each user's whole move from one uniform: the law of her
group-signal sum's side of her band given her degree and that count
(`ReportLaw.side_table`; the per-edge flips never enter a report
otherwise), split by what the profile's `ReportLaw` has her report there
(randomize inside her band, report the group majority outside it;
`ReportLaw.cut_table`), takes four cells of her unit interval, so one
threshold table indexed by (degree, friends' ones, own signal) gives her
report and whether she pays for being in her band.  Every user is paid
through the peer mechanism, and the collector's MAP rule, the majority
under equal priors, runs on the report sum.  The closed forms read the
same law, so simulation and analytics describe one profile.  Trials run
in blocks whose size depends only on the graph; block b owns the stream
(master seed, trial tag, b), so results are byte-identical across runs
and across worker counts.  A block's friends' counts are taken at once:
its trials are packed as lanes of 64-bit words (bytes while the largest
degree fits in one), one row of words per user, and the friends' rows
gathered for all users are summed into one prefix sum, which each user
differences across her run of friends; no count can exceed the largest
degree, so no lane overflows and the differences are exact.  Per-trial
payments and privacy costs are integer counts times constants, and
aggregation over the trial-indexed arrays uses exactly-rounded summation.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analytics
from . import config as configmod
from .analytics import Prediction, ReportLaw, graph_report_moments
from .graph import Graph
from .mechanism import MechanismConfig
from .model import (
    TAG_TRIAL, ModelParams, ParameterError, sample_private_signals, sample_world, substream,
)

__all__ = [
    "TrialResult",
    "Estimate",
    "SimResult",
    "NormalityReport",
    "SweepRow",
    "ZeroVarianceError",
    "map_estimate",
    "run_trial",
    "run_experiment",
    "normality_probe",
    "sweep",
    "simresult_csv",
    "sweep_csv",
    "run_manifest",
    "CSV_HEADER",
]

ND_PROFILE = "nd"


class ZeroVarianceError(RuntimeError):
    """The report sum is degenerate; normality cannot be probed."""


def map_estimate(sum_reports, n: int) -> np.ndarray:
    """Collector's Gaussian MAP estimate of the world bit from the report sum.

    `sum_reports` is a sum or an array of sums; the estimates (0 or 1) have
    its shape.  Under equal priors the W = 0 sum law mirrors the W = 1 law
    with mean above n/2, so the MAP rule is the majority of the reports; an
    exact tie decides 0.
    """
    return (2 * np.asarray(sum_reports) > n).astype(np.int64)


@dataclass(frozen=True)
class TrialResult:
    w: int
    w_hat: int
    reports: np.ndarray
    payments: np.ndarray
    privacy_costs: np.ndarray
    sum_reports: int


# Trials per block: as many as keep block x (n + 2m) user and directed-edge
# cells within _BLOCK_CELLS, from 1 to _MAX_BLOCK.  A block's fixed cost (its
# stream and a few dozen array calls) is shared by its trials.  The cells do
# not cost alike: per trial a user holds about 50 bytes of arrays (two
# uniforms, her signal, table key, three table lookups, report and band
# flags), a directed edge one count lane of a gathered word and its share of
# the word's prefix sum (a byte while the largest degree is below 256).
# 2**18 cells is the measured knee of both benchmark graphs: from 2**18 to
# 2**20 neither the 250-node README graph nor a 3700-node collaboration graph
# runs more trials per second beyond run-to-run spread.  Both constants key
# the random stream, so changing them changes every simulated result.
_BLOCK_CELLS = 2**18
_MAX_BLOCK = 256


class _Engine:
    """A profile's report law, played on one graph in blocks of trials.

    Block b holds trials b*block .. b*block + block - 1, drawn as
    (block x n) arrays from the stream (master seed, trial tag, b).  The
    block size depends only on the graph, and every block draws all its
    rows, so a trial's outcome depends neither on the number of trials nor
    on the number of workers.
    """

    def __init__(
        self,
        graph: Graph,
        law: ReportLaw,
        mech: MechanismConfig,
        params: ModelParams,
    ):
        if graph.n != params.population:
            raise ParameterError(
                f"graph has {graph.n} nodes but params.population is {params.population}"
            )
        self.graph = graph
        self.law = law
        self.params = params
        self.mech = mech
        offset, below, at_most = law.side_table(graph.degrees)
        # Entry 2 * (offset[d] + a) + s of each table serves a user of degree
        # d, a of whose friends hold signal 1, with own signal s.
        self._below, self._at_most = np.repeat(below, 2), np.repeat(at_most, 2)
        self._cut = law.cut_table(below, at_most).ravel()
        self._row = (2 * offset[graph.degrees]).astype(np.int32)
        self._lane = np.min_scalar_type(graph.max_degree())  # holds any user's count
        cells = graph.n + 2 * graph.num_edges
        self.block = min(max(_BLOCK_CELLS // cells, 1), _MAX_BLOCK)

    def friends_ones(self, s: np.ndarray) -> np.ndarray:
        """Per user, how many of her friends hold private signal 1: (rows, n) in, int32 out.

        The rows are packed as lanes of the smallest unsigned type that holds
        the largest degree, a user's lanes padded to whole 64-bit words, so
        one gathered row of words per directed edge counts all rows at once.
        The gathered rows are summed in place into a prefix sum, and a
        user's counts are its difference across her run of received edges
        (`recv_starts`).  The prefix sum carries across lanes and wraps,
        but its differences are exact modulo 2**64, and a user's true word
        sum is below 2**64 with no carry between lanes, because no lane's
        count exceeds her degree.
        """
        rows, n = s.shape
        per_word = 8 // self._lane.itemsize
        lanes = np.zeros((n, -(-rows // per_word) * per_word), dtype=self._lane)
        lanes[:, :rows] = s.T
        words = lanes.view(np.uint64)
        send = self.graph.directed_send
        sums = np.empty((len(send) + 1, words.shape[1]), dtype=np.uint64)
        sums[0] = 0
        np.take(words, send, axis=0, out=sums[1:])
        np.cumsum(sums, axis=0, out=sums)
        counts = np.diff(sums[self.graph.recv_starts], axis=0)
        return counts.view(self._lane)[:, :rows].T.astype(np.int32)

    def play(self, rng: np.random.Generator, rows: int, force_w: int | None = None):
        """(w, reports, in band) of `rows` trials: shapes (rows,), (rows, n), (rows, n).

        A user's received bits enter her report only through the side of
        her band their sum falls on, and that side's law given her degree
        and her friends' signals (`side_table`), split by what she then
        reports (`cut_table`), takes four cells of her unit interval.  So
        one uniform per user draws her report and whether she sits in her
        band, instead of one flip per directed edge and a coin.
        """
        w = sample_world(rng, self.params, rows)
        if force_w is not None:
            w[:] = force_w
        s = sample_private_signals(rng, w, self.params)
        key = self.friends_ones(s)
        key *= 2
        key += s
        key += self._row
        u = rng.random(key.shape)
        reports = u >= self._cut.take(key)
        in_band = (u >= self._below.take(key)) & (u < self._at_most.take(key))
        return w, reports, in_band

    def stats(self, w, reports, in_band) -> np.ndarray:
        """Rows w, correct, payment, privacy cost, report sum, majority match; a column per trial.

        Payment and privacy cost are per user, and the integer rows are
        exact in float64.  All users participate under these profiles, so a
        1-reporter sees k1 - 1 other 1-reports and a 0-reporter sees k1;
        each total is an integer count times a constant.
        """
        n = self.graph.n
        k1 = reports.sum(axis=1)
        k0 = n - k1
        threshold = (n - 1) // 2 + 1
        majority1 = k1 - 1 >= threshold  # the others' majority seen by a 1-reporter
        majority0 = k1 >= threshold  # ... and by a 0-reporter
        payment = (self.mech.z1 * (k1 * majority1) + self.mech.z0 * (k0 * ~majority0)) / n
        privacy = self.law.band_cost * in_band.sum(axis=1) / n
        match = (k1 * (majority1 == w) + k0 * (majority0 == w)) / n
        w_hat = map_estimate(k1, n)
        return np.array([w, w_hat == w, payment, privacy, k1, match], dtype=float)

    def block_stats(self, master_seed: int, block: int) -> np.ndarray:
        return self.stats(*self.play(substream(master_seed, TAG_TRIAL, block), self.block))


def run_trial(
    rng: np.random.Generator,
    graph: Graph,
    law: ReportLaw,
    cfg: MechanismConfig,
    params: ModelParams,
) -> TrialResult:
    """Simulate one market round with every user playing `law`."""
    engine = _Engine(graph, law, cfg, params)
    (w,), (reports,), (in_band,) = engine.play(rng, 1)
    total = int(reports.sum())
    majority_others = (total - reports) >= (graph.n - 1) // 2 + 1
    payments = np.where(reports, cfg.z1 * majority_others, cfg.z0 * ~majority_others)
    return TrialResult(
        w=int(w), w_hat=int(map_estimate(total, graph.n)),
        reports=reports.astype(np.int64), payments=payments,
        privacy_costs=in_band * law.band_cost, sum_reports=total,
    )


@dataclass(frozen=True)
class Estimate:
    value: float
    se: float

    @property
    def ci_half(self) -> float:
        return 1.96 * self.se


@dataclass(frozen=True)
class SimResult:
    trials: int
    profile: str
    axis_value: float
    accuracy: Estimate
    avg_payment_per_user: Estimate
    avg_privacy_cost: Estimate
    empirical_mu1: Estimate
    empirical_kappa1: Estimate
    empirical_majority_match: Estimate
    analytic: Prediction  # of the realized graph the trials ran on
    nodes: int  # of the graph the trials ran on
    edges: int


_POOL_ENGINE = None


def _pool_init(engine, master_seed):
    global _POOL_ENGINE
    _POOL_ENGINE = (engine, master_seed)


def _pool_task(block):
    engine, master_seed = _POOL_ENGINE
    return block, engine.block_stats(master_seed, block)


def _mean_var(values: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased variance of at least two values, by exactly-rounded sums."""
    n = len(values)
    mean = math.fsum(values.tolist()) / n
    return mean, math.fsum(np.square(values - mean).tolist()) / (n - 1)


def _mean_se(values: np.ndarray) -> Estimate:
    mean, var = _mean_var(values)
    return Estimate(mean, math.sqrt(var / len(values)))


def _run_trials(engine: _Engine, master_seed: int, trials: int, workers: int) -> np.ndarray:
    """The rows of `engine.stats` for trials 0..trials-1.

    Blocks are the unit of work; at most one process per block is started.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    size = engine.block
    blocks = -(-trials // size)
    out = np.empty((6, blocks * size))
    processes = min(workers, blocks)
    if processes <= 1:
        for b in range(blocks):
            out[:, b * size:(b + 1) * size] = engine.block_stats(master_seed, b)
    else:
        chunk = max(1, blocks // (8 * processes))
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes, initializer=_pool_init, initargs=(engine, master_seed)) as pool:
            for b, stats in pool.imap_unordered(_pool_task, range(blocks), chunksize=chunk):
                out[:, b * size:(b + 1) * size] = stats
    return out[:, :trials]


def _build_experiment(config, graph_stream_index: int = 0, built=None):
    """Graph, report law, mechanism and realized-graph predictions from a RunConfig.

    `built` is a (graph, degree law) pair from `config.build_graph`; when
    given, the graph is not built again.
    """
    graph, _ = built or configmod.build_graph(config, graph_stream_index)
    params = configmod.params_for_graph(config, graph)
    if not params.equal_priors:
        raise NotImplementedError(
            "experiments need equal priors: the majority-accuracy closed form "
            "(and hence the payment constants) has no general-priors form"
        )
    if config.sim.profile == ND_PROFILE:
        law = analytics.nd_report_law(params)
    else:
        law = analytics.mv_report_law(params)
    analytic = analytics.predict(
        params, graph.n, *graph_report_moments(graph, law), config.mechanism.payment_scale
    )
    engine = _Engine(graph, law, MechanismConfig(z0=analytic.z0, z1=analytic.z1), params)
    return params, graph, engine, analytic


def run_experiment(
    config, trials: int | None = None, workers: int | None = None,
    axis_value: float = float("nan"), graph_stream_index: int = 0, built=None,
) -> SimResult:
    """Run the configured experiment and attach analytic predictions.

    The graph is drawn once from its own stream, or taken from `built` (see
    `_build_experiment`); trials on it are parallelizable and
    order-independent.
    """
    trials = config.sim.trials if trials is None else int(trials)
    workers = config.sim.workers if workers is None else int(workers)
    if trials < 2:
        raise ValueError("need at least 2 trials")
    params, graph, engine, analytic = _build_experiment(config, graph_stream_index, built)
    w, correct, paid, cost, sums, matched = _run_trials(engine, config.sim.seed, trials, workers)
    accuracy = _mean_se(correct)
    payment = _mean_se(paid)
    privacy = _mean_se(cost)
    match = _mean_se(matched)
    n = graph.n
    sums_w1 = sums[w == 1]
    if len(sums_w1) >= 2:
        mu1_est = _mean_se(sums_w1 / n)
        var_sum = _mean_var(sums_w1)[1]
        kappa1_est = Estimate(var_sum / n, var_sum / n * math.sqrt(2.0 / (len(sums_w1) - 1)))
    else:
        mu1_est = Estimate(float("nan"), float("nan"))
        kappa1_est = Estimate(float("nan"), float("nan"))

    return SimResult(
        trials=trials,
        profile=config.sim.profile,
        axis_value=axis_value,
        accuracy=accuracy,
        avg_payment_per_user=payment,
        avg_privacy_cost=privacy,
        empirical_mu1=mu1_est,
        empirical_kappa1=kappa1_est,
        empirical_majority_match=match,
        analytic=analytic,
        nodes=graph.n,
        edges=graph.num_edges,
    )


@dataclass(frozen=True)
class NormalityReport:
    n: int
    trials_per_state: int
    ks_statistic: dict[int, float]
    mu_used: float
    kappa_used: float
    asymptotic: bool  # large-population claim applies
    threshold: float
    passed: bool | None  # None when the asymptotic claim is not made


def _ks_statistic(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance of `sample` from the standard normal."""
    cdf = np.array([analytics.std_normal_cdf(x) for x in np.sort(sample).tolist()])
    n = len(cdf)
    i = np.arange(1.0, n + 1.0)
    return float(max((i / n - cdf).max(), (cdf - (i - 1.0) / n).max()))


_KS_THRESHOLD = 0.05
_ASYMPTOTIC_MIN_N = 500  # populations from which the normality claim is made


def normality_probe(config, trials: int) -> NormalityReport:
    """Kolmogorov-Smirnov distance of the normalized report sum per world state.

    The sum is normalized by the realized-graph mean and exact-pair variance
    coefficient.  A degenerate profile, whose report sum never varies,
    raises ZeroVarianceError.
    """
    params, graph, engine, analytic = _build_experiment(config)
    per_state = trials // 2
    if per_state < 10:
        raise ValueError("need at least 20 trials")
    mu, kappa = analytic.mu1, analytic.kappa1
    ks: dict[int, float] = {}
    blocks = -(-per_state // engine.block)
    for w in (0, 1):
        sums = np.concatenate([
            engine.play(substream(config.sim.seed, TAG_TRIAL, w * blocks + b), engine.block,
                        force_w=w)[1].sum(axis=1)
            for b in range(blocks)
        ])[:per_state]
        if sums.max() - sums.min() == 0.0:
            raise ZeroVarianceError("report sum is constant; degenerate strategy profile")
        mean_w = mu * graph.n if w == 1 else (1.0 - mu) * graph.n
        scale = math.sqrt(graph.n * kappa)
        ks[w] = _ks_statistic((sums - mean_w) / scale)
    asymptotic = graph.n >= _ASYMPTOTIC_MIN_N
    passed = (max(ks.values()) < _KS_THRESHOLD) if asymptotic else None
    return NormalityReport(
        n=graph.n, trials_per_state=per_state, ks_statistic=ks,
        mu_used=mu, kappa_used=kappa, asymptotic=asymptotic,
        threshold=_KS_THRESHOLD, passed=passed,
    )


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    result: SimResult


def sweep(config, axis: str, values: Sequence[float], trials: int | None = None,
          workers: int | None = None) -> list[SweepRow]:
    """One experiment per grid value; deterministic given the master seed.

    A generated graph is drawn per grid point, from the stream of its
    index; an edge list is ingested once and shared, since no axis changes it.
    An axis outside `config.SWEEP_AXES` raises ConfigError before any trial.
    """
    built = configmod.build_graph(config) if config.graph.kind == configmod.EDGE_LIST else None
    rows = []
    for idx, value in enumerate(values):
        sub = configmod.override_axis(config, axis, value)
        result = run_experiment(
            sub, trials=trials, workers=workers, axis_value=float(value),
            graph_stream_index=idx, built=built,
        )
        rows.append(SweepRow(axis=axis, value=float(value), result=result))
    return rows


CSV_HEADER = (
    "axis_value,accuracy,accuracy_ci,avg_payment,payment_ci,avg_privacy_cost,cost_ci,"
    "analytic_mu1,analytic_beta,analytic_payment,bhattacharyya"
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _result_row(r: SimResult) -> str:
    a = r.analytic
    cells = [
        r.axis_value,
        r.accuracy.value, r.accuracy.ci_half,
        r.avg_payment_per_user.value, r.avg_payment_per_user.ci_half,
        r.avg_privacy_cost.value, r.avg_privacy_cost.ci_half,
        a.mu1, a.beta, a.payment_per_user, a.bhattacharyya,
    ]
    return ",".join(_fmt(c) for c in cells)


def simresult_csv(result: SimResult) -> str:
    return CSV_HEADER + "\n" + _result_row(result) + "\n"


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    return CSV_HEADER + "\n" + "\n".join(_result_row(r.result) for r in rows) + "\n"


def run_manifest(config, trials: int, workers: int, extra: dict | None = None) -> str:
    """JSON record of the run: full config text, seed and code version."""
    from . import __version__

    payload = {
        "config": configmod.serialize_config(config),
        "seed": config.sim.seed,
        "trials": trials,
        "workers": workers,
        "version": __version__,
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
