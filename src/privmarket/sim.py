"""Monte Carlo engine: `sweep(config)`, the run every `simulate` makes, and the normality probe.

A trial draws a world bit, then one raw 64-bit word per user, which gives
her private signal and her move (`model.sample_signals_and_moves`).  Her
report, and whether she sits in her band, are read from threshold tables
of her grid point's `ReportLaw` (`_Point.play`), keyed by her degree, her
friends' count of signal 1 and her own signal (`_Engine.table_keys`).  The
closed forms read the same law, so simulation and analytics describe one
profile.  Every run reaches its trials through `_run_trials`: blocks of
trials, each drawn from its own stream, are played in passes by
`_Engine.tally` in one or more processes and tallied into one int64 count
record per law, from which each statistic is evaluated once per count
(`_sim_result`).  So results are byte-identical across runs and worker
counts, and nothing is stored per trial.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import analytics
from . import config as configmod
from .analytics import Prediction, ReportLaw, graph_report_moments
from .graph import Graph
from .mechanism import MechanismConfig
from .model import (
    TAG_TRIAL, ParameterError, fixed_point, sample_signals_and_moves, sample_world, substream,
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
# not cost alike.  Per trial a block holds about 20 bytes a user, whatever
# the number of laws on the draw: in the workspace her signal, 4-byte move,
# the 4-byte lookup that every table lookup of every law writes, and her
# report, in-band and not-above flags; beside it one 8-byte word, her fresh
# raw word while it is split, then her table key in its place.  A directed
# edge holds one count lane of a gathered word and a user three (a byte
# while the largest degree is below 128).  A run keeps one `_Engine.record`
# per law, whatever its number of blocks.  2**18 cells is the measured knee
# of both benchmark graphs: from 2**18 to 2**20 neither the 250-node README
# graph nor a 3700-node collaboration graph runs more trials per second
# beyond run-to-run spread.
# Both constants key the random stream, so changing them changes every
# simulated result; the number of laws on a draw does not enter the block size.
_BLOCK_CELLS = 2**18
_MAX_BLOCK = 256
# Blocks per pass: a pass draws consecutive blocks into one workspace, each
# from its own stream into its own rows, then counts friends, keys, plays
# and tallies all its rows at once.  Gathering a directed edge's row of
# count lanes costs about the same whether the row holds one 64-bit word or
# two, and a row of many words slows the prefix sum, so a pass holds the
# fewest whole blocks whose lanes fill _PASS_WORDS words of a row: two
# blocks of 8 byte lanes on the collaboration graph, one block on the
# README graph, whose block already fills 26 words.  It holds no more than
# _PASS_CELLS cells, which bounds the workspace of a graph whose block is
# one trial.  The pass size keys nothing: a block draws the same bits in
# any pass, so changing these constants moves only speed and memory.
_PASS_WORDS = 2
_PASS_CELLS = 2**22

# Model parameters a draw reads: laws that share a draw must agree on them.
_DRAW_FIELDS = ("population", "prior_w1", "theta0")


class _Point:
    """One grid point on a shared draw: its report law as threshold tables, and its payments.

    Entry 2 * (offset[d] + a) + s of each table serves a user of degree d,
    a of whose friends hold signal 1, with own signal s (offset from
    `ReportLaw.side_table`).
    """

    def __init__(self, law: ReportLaw, mech: MechanismConfig, below, at_most):
        self.law = law
        self.mech = mech
        self.n = law.params.population
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
        the first len(key) rows of `work` (`_Engine.workspace`).  The lookups
        wrap: a take in numpy's default mode copies its `out=` first, and
        one that clips clamps every index, while every key `table_keys`
        makes is already in range.
        """
        lookup, reports, in_band, not_above = (
            a[:len(key)] for a in (work.lookup, work.reports, work.in_band, work.not_above))
        np.greater_equal(move, self._cut.take(key, out=lookup, mode="wrap"), out=reports)
        np.greater_equal(move, self._below.take(key, out=lookup, mode="wrap"), out=in_band)
        np.less(move, self._at_most.take(key, out=lookup, mode="wrap"), out=not_above)
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
    Blocks are drawn and played `pass_blocks` at a time (a pass, sized by
    `_PASS_WORDS` and `_PASS_CELLS`), which changes no trial's bits.
    """

    def __init__(self, graph: Graph, laws: Sequence[ReportLaw], mechs: Sequence[MechanismConfig]):
        params = laws[0].params
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
            self.points.append(_Point(law, mech, below, at_most))
        self._row = (2 * offset[graph.degrees]).astype(np.intp)
        self._lane = np.min_scalar_type(2 * graph.max_degree() + 1)  # holds any user's 2a + s
        self._total = np.min_scalar_type(graph.n)  # holds any trial's count of users
        # a run's counts per law, all int64: `_run_trials` adds records as int64 arrays
        self.record = np.dtype([("reports", np.int64, (2, graph.n + 1)),
                                ("band", np.int64, (graph.n + 1,))])
        cells = graph.n + 2 * graph.num_edges
        self.block = min(max(_BLOCK_CELLS // cells, 1), _MAX_BLOCK)
        self.pass_blocks = max(1, min(-(-_PASS_WORDS * 8 // (self.block * self._lane.itemsize)),
                                      _PASS_CELLS // (self.block * cells)))

    def workspace(self, block: int, blocks: int = 1) -> SimpleNamespace:
        """The arrays `draw`, `table_keys` and `_Point.play` write `blocks` blocks of `block` trials into.

        `tally` allocates one pass's workspace and draws every pass in it,
        so a pass allocates only its raw words (`random_raw` takes no
        `out=`), then its table keys in their place (`table_keys`), and
        arrays of one value per trial.  The prefix sum's leading
        row is never written: it stays 0.  A pass of fewer blocks uses the
        leading rows; the lanes past them keep an earlier pass's signals,
        whose counts are gathered with the rest but never read.
        """
        rows = block * blocks
        n, words = self.graph.n, -(-rows * self._lane.itemsize // 8)
        shape = (rows, n)
        return SimpleNamespace(
            block=block, signal=np.empty(shape, np.int8), move=np.empty(shape, np.uint32),
            lookup=np.empty(shape, np.uint32),
            reports=np.empty(shape, bool), in_band=np.empty(shape, bool),
            not_above=np.empty(shape, bool), count=np.empty(rows, self._total),
            lanes=np.zeros((n, words * 8 // self._lane.itemsize), self._lane),
            sums=np.zeros((len(self.graph.directed_send) + 1, words), np.uint64),
            ends=np.empty((n + 1, words), np.uint64), counts=np.empty((n, words), np.uint64),
        )

    def table_keys(self, s: np.ndarray, work: SimpleNamespace) -> np.ndarray:
        """Per user, her table key 2 * (offset[d] + a) + s: (rows, n) signals in, intp keys out.

        d is her degree, a how many of her friends hold signal 1 and s her
        own signal.  The rows are packed as lanes of the smallest unsigned
        type that holds 2 * d_max + 1 for the largest degree d_max, a
        user's lanes padded to whole 64-bit words, so one gathered row of
        words per directed edge counts all rows at once.  The gathered rows
        are summed in place into a prefix sum, and a user's counts are its
        difference across her run of received edges (`recv_starts`).  The
        prefix sum carries across lanes and wraps, but its differences are
        exact modulo 2**64, and a user's true word sum is below 2**64 with
        no carry between lanes, because no lane's count exceeds her degree.
        That count is at most d_max, so each lane's top bit is clear: one
        shift of the words and an or with her signal lanes make each lane
        2a + s without a carry, and one widening add of 2 * offset[d]
        turns the lanes into keys.  Both gathers wrap, which never copies `out=` and
        skips the clamp; every index is in range by construction.  Every
        step but the last writes into `work`, a workspace of at least
        `len(s)` rows, whose lanes past them are gathered but not read.  The
        keys come out as a new C-ordered `np.intp` array: `draw` calls this
        once the pass's raw words are dropped, so the keys take their memory.
        """
        work.lanes[:, :len(s)] = s.T
        sums = work.sums
        np.take(work.lanes.view(np.uint64), self.graph.directed_send, axis=0, out=sums[1:],
                mode="wrap")
        np.cumsum(sums, axis=0, out=sums)
        ends = np.take(sums, self.graph.recv_starts, axis=0, out=work.ends, mode="wrap")
        counts = np.subtract(ends[1:], ends[:-1], out=work.counts)
        counts <<= 1
        counts |= work.lanes.view(np.uint64)
        key = np.empty(s.shape, np.intp)
        return np.add(counts.view(self._lane)[:, :len(s)].T, self._row, out=key)

    def draw(self, rngs: Sequence[np.random.Generator], work: SimpleNamespace):
        """(w, key, move) of one block of `work.block` trials per generator; moves in `work`'s rows.

        Block i of the pass fills rows i*block .. (i+1)*block - 1: its world
        bits, then its users' raw 64-bit words (`model.sample_signals_and_moves`),
        both from `rngs[i]` alone, so a block draws the same bits whichever
        pass it is in.  Friends' counts and table keys are then taken at
        once over all the pass's rows (`table_keys`).  The moves are a view
        of `work`'s array (`workspace`), and the keys are a C-ordered
        `np.intp` array of their own: numpy's take copies any other index
        array to a temporary intp one.
        """
        block, rows = work.block, len(rngs) * work.block
        s, move = work.signal[:rows], work.move[:rows]
        w = np.empty(rows, np.int64)
        for i, rng in enumerate(rngs):
            mine = slice(i * block, (i + 1) * block)
            w[mine] = sample_world(rng, self.params, block)
            sample_signals_and_moves(rng, w[mine], self.params, (s[mine], move[mine]))
        return w, self.table_keys(s, work), move

    def tally(self, master_seed: int, trials: int, blocks: range) -> np.ndarray:
        """One `record` per law of the trials below `trials` in the consecutive `blocks`, filled by name.

        Block b is drawn in full from the stream (master seed, trial tag, b),
        so no draw depends on `trials`.  The blocks are drawn `pass_blocks`
        at a time into the one workspace of the tally, and each pass's
        trials below `trials` are played and counted at once, on its
        leading rows.  Where the passes start does not change a bit.  A pass
        holds its raw words or its table keys, never both: the words are
        dropped once split, before `table_keys` allocates the keys, and
        each pass releases its keys and world bits before the next pass
        draws, so one block-sized chunk of memory serves both in turn.
        """
        n = self.graph.n
        record = np.zeros(len(self.points), self.record)
        fields = list(zip(self.points, record["reports"].reshape(len(record), -1), record["band"]))
        work = self.workspace(self.block, min(self.pass_blocks, len(blocks)))
        for start in range(0, len(blocks), self.pass_blocks):
            group = blocks[start:start + self.pass_blocks]
            w, key, move = self.draw([substream(master_seed, TAG_TRIAL, b) for b in group], work)
            rows = min(len(w), trials - group[0] * self.block)
            w, key, move, count = w[:rows], key[:rows], move[:rows], work.count[:rows]
            for point, reports_by_w, band in fields:  # reports flat: w * (n + 1) + k
                reports, in_band = point.play(key, move, work)
                k1 = reports.sum(axis=1, dtype=self._total, out=count)  # narrow sums add faster
                reports_by_w += np.bincount(w * (n + 1) + k1, minlength=2 * (n + 1))
                band += np.bincount(in_band.sum(axis=1, dtype=self._total, out=count),
                                    minlength=n + 1)
            del w, key  # the pass's own arrays: the next pass draws where they were
        return record


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


def _child_tally(send, engine: _Engine, master_seed: int, trials: int, blocks: range) -> None:
    """A forked child of `_run_trials`: write its task's reply to the binary file `send`, then close it.

    The reply is a tag byte and its payload: b"r" and the task's record as
    raw int64 bytes, or b"e" and the text of the exception its tally
    raised, so the parent names it and the child prints no traceback of
    its own.
    """
    try:
        reply = b"r" + engine.tally(master_seed, trials, blocks).tobytes()
    except BaseException as exc:  # every failure is the parent's to report
        reply = b"e" + f"{type(exc).__name__}: {exc}".encode(errors="replace")
    send.write(reply)
    send.close()


class _TrialChild:
    """A child process, forked on creation, that tallies one task of `_run_trials` into a pipe.

    The child writes its reply through `_child_tally` and leaves by
    `os._exit`, so it runs none of the parent's exit handlers and flushes
    none of its buffers: code 0 once the reply is written, 1 if that
    raised.  The parent reads the reply to EOF and reaps the child
    (`wait`), and `close` kills and reaps a child it never waited for.
    """

    def __init__(self, engine: _Engine, master_seed: int, trials: int, blocks: range):
        read, write = os.pipe()
        self.pipe, self.code = open(read, "rb"), None
        with open(write, "wb") as send:
            self.pid = os.fork()
            if self.pid == 0:
                code = 1
                try:
                    self.pipe.close()  # the parent's end: a write to a dead parent fails, not blocks
                    _child_tally(send, engine, master_seed, trials, blocks)
                    code = 0
                finally:
                    os._exit(code)

    def wait(self) -> tuple[bytes, int]:
        """The child's reply, read to EOF, and its exit code once it is reaped."""
        reply = self.pipe.read()
        self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return reply, self.code

    def close(self) -> None:
        self.pipe.close()
        if self.code is None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


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
    """The `_Engine.tally` of trials 0..trials-1: one `_Engine.record` per law.

    Passes are the unit of work; at most one process per pass works.  Each
    process gets one task, a contiguous run of whole passes (the last one
    may be short and end on a partial block), tallied in one workspace and
    returned as one record per law, so a process pays the allocation and
    the transfer once.  The parent forks a child for each task but the
    first (`_TrialChild`), before it allocates its own workspace, tallies
    the first task itself, then reads each child's raw record bytes from
    its pipe, whose size `engine.record` fixes, and reaps it.  A child
    whose tally raised, that exits non-zero or that sends no whole record
    fails the run with RuntimeError naming it: a run never returns partial
    records, and no child outlives it.  The run's records are the sum of
    its tasks', taken over their int64 views, which no order of completion
    changes.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    blocks = -(-trials // engine.block)
    passes = -(-blocks // engine.pass_blocks)
    processes = min(workers, passes)
    ends = [engine.pass_blocks * -(-passes * i // processes) for i in range(processes + 1)]
    tasks = [range(blocks)[start:end] for start, end in itertools.pairwise(ends)]
    children = []
    try:
        for task in tasks[1:]:
            children.append(_TrialChild(engine, master_seed, trials, task))
        total = engine.tally(master_seed, trials, tasks[0]).view(np.int64)
        for i, child in enumerate(children, start=1):
            reply, code = child.wait()
            name = f"trial process {i} of {processes} (blocks {tasks[i].start}..{tasks[i].stop - 1})"
            if reply[:1] == b"e":
                raise RuntimeError(f"{name} failed: {reply[1:].decode(errors='replace')}")
            if reply[:1] != b"r" or len(reply) != 1 + total.nbytes:
                raise RuntimeError(f"{name} exited with code {code} and sent no record")
            if code != 0:
                raise RuntimeError(f"{name} exited with code {code}")
            total += np.frombuffer(reply, np.int64, offset=1)
        return total.view(engine.record)
    finally:
        for child in children:
            child.close()


def _build_experiment(configs):
    """Graph, engine and realized-graph predictions of RunConfigs that share one draw.

    The graph is built once, from the first config.  Each config adds its
    report law and payment constants to the engine; they must agree on the
    graph section, the sim section but `sim.profile` and the draw's model
    parameters.
    """
    first = configs[0]
    for config in configs:
        if (config.graph, replace(config.sim, profile=first.sim.profile)) != (first.graph, first.sim):
            raise ValueError("experiments on one draw need one graph section and sim sections "
                             "that differ only in sim.profile")
        if not configmod.model_params(config).equal_priors:  # refused before the graph build
            raise NotImplementedError(
                f"simulate: model.prior_w1 = {config.model.prior_w1!r}, but experiments need equal "
                "priors (0.5), which the majority-accuracy closed form behind the payments assumes")
    graph, _ = configmod.build_graph(first)
    laws, mechs, predictions = [], [], []
    for config in configs:
        params = configmod.params_for_graph(config, graph)
        if config.sim.profile == ND_PROFILE:
            law = analytics.nd_report_law(params)
        else:
            law = analytics.mv_report_law(params)
        analytic = analytics.predict(
            params, *graph_report_moments(graph, law), config.mechanism.payment_scale)
        laws.append(law)
        mechs.append(MechanismConfig(z0=analytic.z0, z1=analytic.z1))
        predictions.append(analytic)
    engine = _Engine(graph, laws, mechs)
    return graph, engine, predictions


def _sim_result(config, point: _Point, record, analytic: Prediction, graph: Graph) -> SimResult:
    """A SimResult from one law's `_Engine.record` over a whole run.

    A trial's statistics depend only on its world bit and 1-report count,
    or on its in-band count, so they are evaluated once per possible value
    and weighted by the record's `reports` or `band` counts.
    """
    n = graph.n
    k = np.arange(n + 1)  # every possible 1-report or in-band count
    reports, band = record["reports"], record["band"]
    correct, paid, matched = point.report_stats(np.array([[0], [1]]), k)  # paid reads k alone
    trials_w1 = int(reports[1].sum())
    if trials_w1 >= 2:
        mu1_est = _mean_se(k / n, reports[1])
        _, var, e = _mean_var(k, reports[1])
        var_sum = math.ldexp(var, 2 * e)
        kappa1_est = Estimate(var_sum / n, var_sum / n * math.sqrt(2.0 / (trials_w1 - 1)))
    else:
        mu1_est = Estimate(float("nan"), float("nan"))
        kappa1_est = Estimate(float("nan"), float("nan"))
    return SimResult(
        trials=int(band.sum()),
        profile=config.sim.profile,
        axis_value=configmod.axis_value(config),
        accuracy=_mean_se(correct, reports),
        avg_payment_per_user=_mean_se(paid, reports.sum(axis=0)),
        avg_privacy_cost=_mean_se(point.privacy_cost(k), band),
        empirical_mu1=mu1_est,
        empirical_kappa1=kappa1_est,
        empirical_majority_match=_mean_se(matched, reports),
        analytic=analytic,
        nodes=graph.n,
        edges=graph.num_edges,
    )


def run_experiment(configs) -> list[SimResult]:
    """Run configured experiments that share one draw; one SimResult each, with predictions.

    The configs differ only in what a law reads (`model.epsilon`,
    `model.alpha`, `sim.profile`, the payment scale): the graph is built
    once, and each block of trials is drawn once and played under every
    config's law.  A config's result is byte-identical to the one it gets
    on its own, and its `axis_value` is the config's value on its sweep
    axis (`config.axis_value`).  Trials, workers and seed are the configs'
    common `sim` section; trials are parallelizable and order-independent,
    and one set of trial processes serves every config.
    """
    settings = configs[0].sim
    if settings.trials < 2:
        raise ValueError("need at least 2 trials")
    graph, engine, predictions = _build_experiment(configs)
    records = _run_trials(engine, settings.seed, settings.trials, settings.workers)
    return [
        _sim_result(config, point, record, analytic, graph)
        for config, point, record, analytic
        in zip(configs, engine.points, records, predictions, strict=True)
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


def normality_probe(config) -> NormalityReport:
    """Kolmogorov-Smirnov distance of the normalized report sum per world state.

    The probe reads the trials `simulate` runs on the same config (its
    `sim.trials`, at `sim.workers`) as their record's report sums
    by drawn world bit (`reports`); a state drawn fewer than 10 times raises
    ValueError.  Each state's sums are normalized by the realized-graph
    mean and exact-pair variance coefficient.  A degenerate profile, whose
    report sum never varies, raises ZeroVarianceError.  The probe reads one
    point: a swept config raises ConfigError naming `sweep.axis` (probe each
    grid point's `config.override_axis` instead).
    """
    if config.sweep.axis:
        raise configmod.ConfigError(
            f"sweep.axis = {config.sweep.axis!r}: normality_probe reads one point, not a grid; "
            "probe each point's config (config.override_axis) instead")
    graph, engine, (analytic,) = _build_experiment([config])
    settings = config.sim
    (reports,) = _run_trials(engine, settings.seed, settings.trials, settings.workers)["reports"]
    per_state = {state: int(reports[state].sum()) for state in (0, 1)}
    if min(per_state.values()) < 10:
        raise ValueError(f"need at least 10 trials in each world state, got {per_state}")
    mu, kappa = analytic.mu1, analytic.kappa1
    scale = math.sqrt(graph.n * kappa)
    k = np.arange(graph.n + 1)
    ks: dict[int, float] = {}
    for state in (0, 1):
        if np.count_nonzero(reports[state]) == 1:
            raise ZeroVarianceError("report sum is constant; degenerate strategy profile")
        mean = mu * graph.n if state == 1 else (1.0 - mu) * graph.n
        ks[state] = _ks_statistic((k - mean) / scale, reports[state])
    asymptotic = graph.n >= _ASYMPTOTIC_MIN_N
    passed = (max(ks.values()) < _KS_THRESHOLD) if asymptotic else None
    return NormalityReport(
        n=graph.n, trials_per_state=per_state, ks_statistic=ks,
        mu_used=mu, kappa_used=kappa, asymptotic=asymptotic,
        threshold=_KS_THRESHOLD, passed=passed,
    )


def sweep(config) -> list[SimResult]:
    """The run `simulate` makes: one SimResult per grid point, deterministic given the seed.

    The grid is `sweep.values` along `sweep.axis`, or the one point at
    `graph.avg_degree` when unswept.  Consecutive grid points with one
    graph section are one `run_experiment` group: the graph is built (or
    the edge list ingested) once and every point is played on one shared
    draw per block.  So an epsilon or alpha sweep on any graph kind plays
    one graph and one draw, and each avg_degree point builds its own
    graph.  Every graph comes from the same stream, so each row is the one
    its point gets from `run_experiment` on its own.  An axis outside
    `config.SWEEP_AXES` raises ConfigError before any trial.
    """
    axis = config.sweep.axis
    points = ([configmod.override_axis(config, axis, v) for v in configmod.sweep_values(config)]
              if axis else [config])
    results = []
    for _, group in itertools.groupby(points, key=lambda point: point.graph):
        results += run_experiment(list(group))
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
    return sweep_csv([result])


def sweep_csv(results: Sequence[SimResult]) -> str:
    return CSV_HEADER + "\n" + "\n".join(_result_row(r) for r in results) + "\n"


def run_manifest(config, results: Sequence[SimResult]) -> str:
    """JSON record of the run `sweep(config)` made: config text, seed, trials, workers, version.

    A sweep adds its grid and an unswept run its `nodes`; an edge list adds `nodes` and `edges`.
    """
    import json  # only the manifest writes JSON

    from . import __version__

    payload = {
        "config": configmod.serialize_config(config),
        "seed": config.sim.seed,
        "trials": config.sim.trials,
        "workers": config.sim.workers,
        "version": __version__,
    }
    if config.sweep.axis:
        payload.update(sweep_axis=config.sweep.axis, sweep_values=configmod.sweep_values(config))
    else:
        payload.update(nodes=results[0].nodes)
    if config.graph.kind == configmod.EDGE_LIST:
        payload.update(nodes=results[0].nodes, edges=results[0].edges)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
