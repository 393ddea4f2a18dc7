"""Monte Carlo engine.

A trial draws the world state on a fixed graph with the model's sampler,
then one raw 64-bit word per user (`model.sample_signals_and_moves`):
its high 31 bits give her private signal and its low 31 bits her move, a
uniform integer below 2**31.  It counts each user's friends holding
signal 1, and plays her whole move: the law of her group-signal sum's
side of her band given her degree and that count
(`ReportLaw.side_table`; the per-edge flips never enter a report
otherwise), split by what the profile's `ReportLaw` has her report there
(randomize inside her band, report the group majority outside it;
`ReportLaw.cut_table`), takes four cells of her unit interval, so one
threshold table indexed by (degree, friends' ones, own signal) gives her
report and whether she pays for being in her band.  The tables hold
those cells' ends on the move's 2**-31 grid (`model.fixed_point`), as
uint32s: each cell's law is exact to 2**-32, and probabilities 0 and 1,
so an empty band, stay exact.  Every user is paid through the peer
mechanism, and the collector's MAP rule, the majority under equal
priors, runs on the report sum.  The closed forms read the same law, so
simulation and analytics describe one profile.  Trials run in blocks
whose size depends only on the graph; block b owns the stream
(master seed, trial tag, b), so results are byte-identical across runs
and across worker counts.  A block's friends' counts are taken at once:
its trials are packed as lanes of 64-bit words (bytes while the largest
degree fits in one), one row of words per user, and the friends' rows
gathered for all users are summed into one prefix sum, which each user
differences across her run of friends; no count can exceed the largest
degree, so no lane overflows and the differences are exact.

The draw (world bits, signals, friends' counts, table keys and moves)
reads only the graph, the seed and the model's population, prior and
theta0, so laws that differ only in epsilon, alpha or profile share it:
every run, sweep and normality probe reaches trials through one path,
`_run_trials`, which draws each block once and plays every grid point's
tables on it, at three 4-byte table lookups and three integer comparisons
per user-trial and law; the table keys are C-ordered `np.intp`, the index
array numpy's gather reads fastest.  A sweep plays each run of
consecutive grid points that share a graph section (any epsilon or alpha
sweep) on one graph and one draw per block; an avg_degree point builds
its own graph.  A trial's statistics (correct estimate, payment, majority
match, report sum, privacy cost) depend only on its world bit and
1-report count, or on its in-band count, so each block is tallied where
it is drawn into histograms of those counts, and a run keeps 3·(n + 1)
integers per law: the 1-report counts by world bit and the in-band
counts.  Each statistic is evaluated once per possible count, and its
mean and variance are exactly-rounded count-weighted sums
(`analytics.weighted_fsum`), equal to `math.fsum` over one value per
trial.  Nothing is stored per trial, and a block allocates no (block x n)
array but its raw words: a tally draws and plays every block in one
workspace (`_Engine.workspace`).
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import analytics
from . import config as configmod
from .analytics import Prediction, ReportLaw, graph_report_moments
from .graph import Graph
from .mechanism import MechanismConfig
from .model import (
    TAG_TRIAL, ModelParams, ParameterError, fixed_point, sample_signals_and_moves, sample_world,
    substream,
)

__all__ = [
    "Estimate",
    "SimResult",
    "NormalityReport",
    "ZeroVarianceError",
    "map_estimate",
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


# Trials per block: as many as keep block x (n + 2m) user and directed-edge
# cells within _BLOCK_CELLS, from 1 to _MAX_BLOCK.  A block's fixed cost (its
# stream and a few dozen array calls) is shared by its trials.  The cells do
# not cost alike.  Per trial the block's workspace holds about 20 bytes a
# user, whatever the number of laws on the draw: her signal, 4-byte move and
# 8-byte table key, the 4-byte lookup that every table lookup of every law
# writes, and her report, in-band and not-above flags; her fresh 8-byte raw
# word adds 8 while it is split.  A directed edge holds one count lane of a
# gathered word and a user three (a byte while the largest degree is below
# 256).  A run keeps 3·(n + 1) integers per law, whatever its number of
# blocks.  2**18 cells is the measured knee of both benchmark graphs: from
# 2**18 to 2**20 neither the 250-node README graph nor a 3700-node
# collaboration graph runs more trials per second beyond run-to-run spread.
# Both constants key the random stream, so changing them changes every
# simulated result; the number of laws on a draw does not enter the block size.
_BLOCK_CELLS = 2**18
_MAX_BLOCK = 256

# Model parameters a draw reads: laws that share a draw must agree on them.
_DRAW_FIELDS = ("population", "prior_w1", "theta0")


class _Point:
    """One grid point on a shared draw: its report law as threshold tables, and its payments.

    Entry 2 * (offset[d] + a) + s of each table serves a user of degree d,
    a of whose friends hold signal 1, with own signal s (offset from
    `ReportLaw.side_table`).
    """

    def __init__(self, law: ReportLaw, mech: MechanismConfig, n: int, below, at_most):
        self.law = law
        self.mech = mech
        self.n = n
        # one rounding for every table, so below <= cut <= at_most still holds
        self._below = fixed_point(np.repeat(below, 2))
        self._at_most = fixed_point(np.repeat(at_most, 2))
        self._cut = fixed_point(law.cut_table(below, at_most).ravel())

    def play(self, key: np.ndarray, move: np.ndarray, work: SimpleNamespace):
        """(reports, in band) of the users drawn with table keys `key` and moves `move`.

        A user's received bits enter her report only through the side of
        her band their sum falls on, and that side's law given her degree
        and her friends' signals (`side_table`), split by what she then
        reports (`cut_table`), takes four cells of her unit interval.  So
        one move per user, a uniform 31-bit integer, draws her report and
        whether she sits in her band, instead of one flip per directed edge
        and a coin.  The tables hold the cells' ends as `fixed_point`
        uint32s, so each cell's law is exact to 2**-32, and a cell of
        width 0 (an empty band) stays empty.  A law costs three 4-byte
        table lookups and three comparisons per user-trial, written into
        the first len(key) rows of `work` (`_Engine.workspace`); the lookups
        clip, as a take in numpy's default mode copies its `out=` first.
        """
        lookup, reports, in_band, not_above = (
            a[:len(key)] for a in (work.lookup, work.reports, work.in_band, work.not_above))
        np.greater_equal(move, self._cut.take(key, out=lookup, mode="clip"), out=reports)
        np.greater_equal(move, self._below.take(key, out=lookup, mode="clip"), out=in_band)
        np.less(move, self._at_most.take(key, out=lookup, mode="clip"), out=not_above)
        in_band &= not_above
        return reports, in_band

    def report_stats(self, w, k1):
        """(correct, payment, majority match) of trials with world bits `w` and `k1` 1-reports.

        Payment is per user.  All users participate under these profiles,
        so a 1-reporter sees k1 - 1 other 1-reports and a 0-reporter sees
        k1; each total is an integer count times a constant.
        """
        n = self.n
        k0 = n - k1
        threshold = (n - 1) // 2 + 1
        majority1 = k1 - 1 >= threshold  # the others' majority seen by a 1-reporter
        majority0 = k1 >= threshold  # ... and by a 0-reporter
        correct = (map_estimate(k1, n) == w).astype(float)
        paid = (self.mech.z1 * (k1 * majority1) + self.mech.z0 * (k0 * ~majority0)) / n
        matched = (k1 * (majority1 == w) + k0 * (majority0 == w)) / n
        return correct, paid, matched

    def privacy_cost(self, band):
        """Per-user privacy cost of trials with `band` users in their band."""
        return self.law.band_cost * band / self.n


class _Engine:
    """The report laws of grid points that share one draw, played on one graph in blocks of trials.

    Block b holds trials b*block .. b*block + block - 1, drawn as
    (block x n) arrays from the stream (master seed, trial tag, b).  The
    draw (world bits, private signals, friends' counts, table keys and one
    move per user) reads only the graph and `_DRAW_FIELDS`, so it is
    made once per block and every law in `points` is played on it.  The
    block size depends only on the graph, and every block draws all its
    rows, so a trial's outcome depends neither on the number of trials, nor
    on the number of workers, nor on which other laws share its draw.
    """

    def __init__(
        self,
        graph: Graph,
        laws: Sequence[ReportLaw],
        mechs: Sequence[MechanismConfig],
        params: ModelParams,
    ):
        if graph.n != params.population:
            raise ParameterError(
                f"graph has {graph.n} nodes but params.population is {params.population}"
            )
        for i, law in enumerate(laws):
            for field in _DRAW_FIELDS:
                if getattr(law.params, field) != getattr(params, field):
                    raise ParameterError(
                        f"law {i} has {field} = {getattr(law.params, field)} but the draw has "
                        f"{getattr(params, field)}: laws on one draw must share {field}"
                    )
        self.graph = graph
        self.params = params
        self.points = []
        for law, mech in zip(laws, mechs, strict=True):
            # the offsets depend on the degrees alone, so every law keys alike
            offset, below, at_most = law.side_table(graph.degrees)
            self.points.append(_Point(law, mech, graph.n, below, at_most))
        self._row = (2 * offset[graph.degrees]).astype(np.intp)
        self._lane = np.min_scalar_type(graph.max_degree())  # holds any user's count
        self._total = np.min_scalar_type(graph.n)  # holds any trial's count of users
        cells = graph.n + 2 * graph.num_edges
        self.block = min(max(_BLOCK_CELLS // cells, 1), _MAX_BLOCK)

    def workspace(self, rows: int) -> SimpleNamespace:
        """The arrays `draw`, `friends_ones` and `_Point.play` write a block of `rows` trials into.

        `tally` allocates one and draws every block in it, so a block
        allocates only its raw words (`random_raw` takes no `out=`) and
        arrays of one value per trial.  The prefix sum's leading row and
        the lanes past `rows` are never written: they stay 0.
        """
        n, words = self.graph.n, -(-rows * self._lane.itemsize // 8)
        shape = (rows, n)
        return SimpleNamespace(
            signal=np.empty(shape, np.int8), move=np.empty(shape, np.uint32),
            key=np.empty(shape, np.intp), lookup=np.empty(shape, np.uint32),
            reports=np.empty(shape, bool), in_band=np.empty(shape, bool),
            not_above=np.empty(shape, bool), count=np.empty(rows, self._total),
            lanes=np.zeros((n, words * 8 // self._lane.itemsize), self._lane),
            sums=np.zeros((len(self.graph.directed_send) + 1, words), np.uint64),
            ends=np.empty((n + 1, words), np.uint64), counts=np.empty((n, words), np.uint64),
        )

    def friends_ones(self, s: np.ndarray, work: SimpleNamespace) -> np.ndarray:
        """Per user, how many of her friends hold private signal 1: (rows, n) in, intp out.

        The rows are packed as lanes of the smallest unsigned type that holds
        the largest degree, a user's lanes padded to whole 64-bit words, so
        one gathered row of words per directed edge counts all rows at once.
        The gathered rows are summed in place into a prefix sum, and a
        user's counts are its difference across her run of received edges
        (`recv_starts`).  The prefix sum carries across lanes and wraps,
        but its differences are exact modulo 2**64, and a user's true word
        sum is below 2**64 with no carry between lanes, because no lane's
        count exceeds her degree.  Every step writes into `work`, a
        workspace of `len(s)` rows; the counts come out as its C-ordered
        `np.intp` keys, which `draw` turns into table keys in place.
        """
        work.lanes[:, :len(s)] = s.T
        sums = work.sums
        np.take(work.lanes.view(np.uint64), self.graph.directed_send, axis=0, out=sums[1:],
                mode="clip")
        np.cumsum(sums, axis=0, out=sums)
        ends = np.take(sums, self.graph.recv_starts, axis=0, out=work.ends, mode="clip")
        counts = np.subtract(ends[1:], ends[:-1], out=work.counts)
        np.copyto(work.key, counts.view(self._lane)[:, :len(s)].T)
        return work.key

    def draw(self, rng: np.random.Generator, work: SimpleNamespace):
        """(w, key, move) of one trial per row of `work`: shapes (rows,), (rows, n), (rows, n).

        Each user's table key is 2 * (offset[d] + a) + s for her degree d,
        friends' ones a and own signal s; her signal and her uint32 move
        come from one raw 64-bit word (`model.sample_signals_and_moves`).
        The keys and moves are `work`'s arrays (`workspace`), and the keys
        are C-ordered `np.intp`: numpy's take copies any other index array
        to a temporary intp one.
        """
        w = sample_world(rng, self.params, len(work.key))
        s, move = sample_signals_and_moves(rng, w, self.params, (work.signal, work.move))
        key = self.friends_ones(s, work)
        key *= 2
        key += s
        key += self._row
        return w, key, move

    def tally(self, master_seed: int, trials: int, blocks) -> np.ndarray:
        """(points, 3, n + 1) int64 histograms of the trials below `trials` in `blocks`.

        hist[i, w, k] counts the trials with world bit w and k 1-reports
        under law i, hist[i, 2, k] those with k users in their band.  Block
        b is drawn in full from the stream (master seed, trial tag, b), so
        no draw depends on `trials`; only the trials below it are played,
        on the leading rows of the one workspace every block is drawn in.
        """
        n = self.graph.n
        hist = np.zeros((len(self.points), 3, n + 1), dtype=np.int64)
        work = self.workspace(self.block)
        for b in blocks:
            w, key, move = self.draw(substream(master_seed, TAG_TRIAL, b), work)
            rows = min(self.block, trials - b * self.block)
            w, key, move, count = w[:rows], key[:rows], move[:rows], work.count[:rows]
            for point, h in zip(self.points, hist):
                reports, in_band = point.play(key, move, work)
                k1 = reports.sum(axis=1, dtype=self._total, out=count)  # narrow sums add faster
                h[:2] += np.bincount(w * (n + 1) + k1, minlength=2 * (n + 1)).reshape(2, n + 1)
                h[2] += np.bincount(in_band.sum(axis=1, dtype=self._total, out=count),
                                    minlength=n + 1)
        return hist


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


def _pool_init(engine, master_seed, trials):
    global _POOL_ENGINE
    _POOL_ENGINE = (engine, master_seed, trials)


def _pool_task(blocks):
    engine, master_seed, trials = _POOL_ENGINE
    return engine.tally(master_seed, trials, blocks)


def _mean_var(values: np.ndarray, counts: np.ndarray) -> tuple[float, float, int]:
    """(mean, v, e): mean and unbiased variance v * 4**e of counts[i] copies of values[i].

    At least two copies in all.  The deviations are scaled by 2**-e, which
    brings the largest below 1, before they are squared, so payments near
    the float range do not overflow; a power of two scales exactly, so
    v * 4**e is the unscaled variance bit for bit wherever both squares
    stay in the normal float range.
    Both sums are exactly rounded (`analytics.weighted_fsum`), equal to
    `math.fsum` over the expanded list.
    """
    n = int(counts.sum())
    mean = analytics.weighted_fsum(values, counts) / n
    deviations = values - mean
    e = int(np.frexp(np.abs(deviations).max())[1])
    return mean, analytics.weighted_fsum(np.square(np.ldexp(deviations, -e)), counts) / (n - 1), e


def _mean_se(values: np.ndarray, counts: np.ndarray) -> Estimate:
    mean, var, e = _mean_var(values, counts)
    return Estimate(mean, math.ldexp(math.sqrt(var / int(counts.sum())), e))


def _run_trials(engine: _Engine, master_seed: int, trials: int, workers: int) -> np.ndarray:
    """The `_Engine.tally` of trials 0..trials-1: (points, 3, n + 1) int64 histograms.

    Blocks are the unit of work; at most one process per block is started.
    Each pool task tallies one run of consecutive blocks, and the run's
    histograms are the sum of its tasks', which no order of completion
    changes.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    blocks = -(-trials // engine.block)
    processes = min(workers, blocks)
    if processes <= 1:
        return engine.tally(master_seed, trials, range(blocks))
    chunk = max(1, blocks // (8 * processes))
    tasks = [range(blocks)[start:start + chunk] for start in range(0, blocks, chunk)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes, initializer=_pool_init, initargs=(engine, master_seed, trials)) as pool:
        return sum(pool.imap_unordered(_pool_task, tasks))


def _build_experiment(configs):
    """Graph, engine and realized-graph predictions of RunConfigs that share one draw.

    The graph is built once, from the first config.  Each config adds its
    report law and payment constants to the engine; they must agree on the
    graph section, `sim.seed` and the draw's model parameters.
    """
    first = configs[0]
    for config in configs[1:]:
        if config.graph != first.graph or config.sim.seed != first.sim.seed:
            raise ValueError("experiments on one draw need one graph section and one sim.seed")
    graph, _ = configmod.build_graph(first)
    laws, mechs, predictions = [], [], []
    for config in configs:
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
        laws.append(law)
        mechs.append(MechanismConfig(z0=analytic.z0, z1=analytic.z1))
        predictions.append(analytic)
    engine = _Engine(graph, laws, mechs, laws[0].params)
    return graph, engine, predictions


def _sim_result(config, axis_value: float, point: _Point, hist: np.ndarray,
                analytic: Prediction, graph: Graph) -> SimResult:
    """A SimResult from one law's `_Engine.tally` histograms over a whole run.

    A trial's statistics depend only on its world bit and 1-report count,
    or on its in-band count, so they are evaluated once per possible value
    and weighted by the run's histogram of those counts.
    """
    n = graph.n
    k = np.arange(n + 1)  # every possible 1-report or in-band count
    by_w, band = hist[:2], hist[2]
    correct, paid, matched = point.report_stats(np.array([[0], [1]]), k)  # paid reads k alone
    sums_w1 = by_w[1]  # how many W = 1 trials have each report sum
    trials_w1 = int(sums_w1.sum())
    if trials_w1 >= 2:
        mu1_est = _mean_se(k / n, sums_w1)
        _, var, e = _mean_var(k, sums_w1)
        var_sum = math.ldexp(var, 2 * e)
        kappa1_est = Estimate(var_sum / n, var_sum / n * math.sqrt(2.0 / (trials_w1 - 1)))
    else:
        mu1_est = Estimate(float("nan"), float("nan"))
        kappa1_est = Estimate(float("nan"), float("nan"))
    return SimResult(
        trials=int(band.sum()),
        profile=config.sim.profile,
        axis_value=axis_value,
        accuracy=_mean_se(correct, by_w),
        avg_payment_per_user=_mean_se(paid, by_w.sum(axis=0)),
        avg_privacy_cost=_mean_se(point.privacy_cost(k), band),
        empirical_mu1=mu1_est,
        empirical_kappa1=kappa1_est,
        empirical_majority_match=_mean_se(matched, by_w),
        analytic=analytic,
        nodes=graph.n,
        edges=graph.num_edges,
    )


def run_experiment(
    configs, trials: int | None = None, workers: int | None = None,
    axis_values: Sequence[float] | None = None,
) -> list[SimResult]:
    """Run configured experiments that share one draw; one SimResult each, with predictions.

    The configs differ only in what a law reads (`model.epsilon`,
    `model.alpha`, `sim.profile`, the payment scale): the graph is built
    once, and each block of trials is drawn once and played under every
    config's law.  A config's result is byte-identical
    to the one it gets on its own.  Trials and workers default to the first
    config's; trials are parallelizable and order-independent, and one pool
    serves every config.
    """
    first = configs[0]
    trials = first.sim.trials if trials is None else int(trials)
    workers = first.sim.workers if workers is None else int(workers)
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if axis_values is None:
        axis_values = [float("nan")] * len(configs)
    graph, engine, predictions = _build_experiment(configs)
    hists = _run_trials(engine, first.sim.seed, trials, workers)
    return [
        _sim_result(config, value, point, hist, analytic, graph)
        for config, value, point, hist, analytic
        in zip(configs, axis_values, engine.points, hists, predictions, strict=True)
    ]


@dataclass(frozen=True)
class NormalityReport:
    n: int
    trials_per_state: dict[int, int]
    ks_statistic: dict[int, float]
    mu_used: float
    kappa_used: float
    asymptotic: bool  # large-population claim applies
    threshold: float
    passed: bool | None  # None when the asymptotic claim is not made


def _ks_statistic(values: np.ndarray, counts: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance from the standard normal of counts[i] copies of values[i].

    `values` must be ascending.  The empirical CDF steps only at values
    drawn, so the distance is read at each one's first and last copy, with
    one CDF call per value drawn instead of one per copy.
    """
    drawn = counts > 0
    values, counts = values[drawn], counts[drawn]
    cdf = np.array([analytics.std_normal_cdf(x) for x in values.tolist()])
    n = int(counts.sum())
    last = np.cumsum(counts)  # rank of each value's last copy
    return float(max((last / n - cdf).max(), (cdf - (last - counts) / n).max()))


_KS_THRESHOLD = 0.05
_ASYMPTOTIC_MIN_N = 500  # populations from which the normality claim is made


def normality_probe(config, trials: int) -> NormalityReport:
    """Kolmogorov-Smirnov distance of the normalized report sum per world state.

    The probe reads the trials `simulate` runs on the same config (the
    first `trials` of them, at `sim.workers`) as their histogram of report
    sums by the drawn world bit; a state drawn fewer than 10 times raises
    ValueError.  Each state's sums are normalized by the realized-graph
    mean and exact-pair variance coefficient.  A degenerate profile, whose
    report sum never varies, raises ZeroVarianceError.
    """
    graph, engine, (analytic,) = _build_experiment([config])
    by_w = _run_trials(engine, config.sim.seed, trials, config.sim.workers)[0, :2]
    per_state = {state: int(by_w[state].sum()) for state in (0, 1)}
    if min(per_state.values()) < 10:
        raise ValueError(f"need at least 10 trials in each world state, got {per_state}")
    mu, kappa = analytic.mu1, analytic.kappa1
    scale = math.sqrt(graph.n * kappa)
    k = np.arange(graph.n + 1)
    ks: dict[int, float] = {}
    for state in (0, 1):
        if np.count_nonzero(by_w[state]) == 1:
            raise ZeroVarianceError("report sum is constant; degenerate strategy profile")
        mean = mu * graph.n if state == 1 else (1.0 - mu) * graph.n
        ks[state] = _ks_statistic((k - mean) / scale, by_w[state])
    asymptotic = graph.n >= _ASYMPTOTIC_MIN_N
    passed = (max(ks.values()) < _KS_THRESHOLD) if asymptotic else None
    return NormalityReport(
        n=graph.n, trials_per_state=per_state, ks_statistic=ks,
        mu_used=mu, kappa_used=kappa, asymptotic=asymptotic,
        threshold=_KS_THRESHOLD, passed=passed,
    )


def sweep(config, axis: str, values: Sequence[float], trials: int | None = None,
          workers: int | None = None) -> list[SimResult]:
    """One SimResult per grid value, its `axis_value` the value; deterministic given the seed.

    Consecutive grid points with one graph section are one
    `run_experiment` group: the graph is built (or the edge list ingested)
    once and every point is played on one shared draw per block.  So an
    epsilon or alpha sweep on any graph kind plays one graph and one draw,
    and each avg_degree point builds its own graph.  Every graph comes
    from the same stream, so each row is the one its point gets from
    `run_experiment` on its own.  An axis outside `config.SWEEP_AXES`
    raises ConfigError before any trial.
    """
    points = [(configmod.override_axis(config, axis, value), float(value)) for value in values]
    results = []
    for _, group in itertools.groupby(points, key=lambda point: point[0].graph):
        subs, group_values = zip(*group)
        results += run_experiment(subs, trials=trials, workers=workers,
                                  axis_values=group_values)
    return results


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


def sweep_csv(results: Sequence[SimResult]) -> str:
    return CSV_HEADER + "\n" + "\n".join(_result_row(r) for r in results) + "\n"


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
