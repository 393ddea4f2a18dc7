from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from privmarket.graph import Graph
from privmarket.model import (
    FIXED_ONE,
    CostFunctionError,
    EPSILON_MAX,
    ParameterError,
    audit_cost_function,
    fixed_point,
    linear_capped_cost,
    quadratic_cost,
    sample_signals_and_moves,
    sample_world,
    substream,
    table_cost,
    theta1,
)

from conftest import make_params
from oracles import sample_group_signals, signals_and_moves


class TestTheta1:
    def test_zero_noise_keeps_quality(self):
        assert theta1(0.7, 0.0) == pytest.approx(0.7, abs=1e-15)

    def test_hand_evaluated_values(self):
        assert theta1(0.7, 0.25) == pytest.approx(0.6, abs=1e-12)
        assert theta1(0.6, 0.1) == pytest.approx(0.58, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            theta1(0.5, 0.1)
        with pytest.raises(ParameterError):
            theta1(0.7, 0.5)
        with pytest.raises(ParameterError):
            theta1(1.0, 0.1)

    def test_strictly_decreasing_in_alpha(self):
        alphas = np.linspace(0.0, 0.45, 19)
        values = [theta1(0.8, a) for a in alphas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_approaches_half_from_above(self):
        assert 0.5 < theta1(0.5 + 1e-9, 0.4) < 0.5 + 1e-9


class TestParams:
    def test_boundary_values_rejected(self):
        for bad in (
            dict(theta0=0.5),
            dict(alpha=0.5),
            dict(prior_w1=0.0),
            dict(prior_w1=1.0),
            dict(epsilon=-0.1),
            dict(epsilon=EPSILON_MAX + 1e-9),
            dict(epsilon=float("nan")),
            dict(population=1),
        ):
            with pytest.raises(ParameterError):
                make_params(**bad)
        assert make_params(epsilon=EPSILON_MAX).epsilon == EPSILON_MAX

    def test_theta1_in_range(self):
        p = make_params(theta0=0.9, alpha=0.3)
        assert 0.5 < p.theta1 <= p.theta0


class TestCostFunctions:
    def test_quadratic_audit_passes(self):
        audit_cost_function(quadratic_cost())
        audit_cost_function(linear_capped_cost())

    def test_table_cost_interpolates(self):
        cost = table_cost([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert cost.value(0.5) == pytest.approx(0.5)
        assert cost.value(1.5) == pytest.approx(2.5)
        assert cost.derivative(1.5) == pytest.approx(3.0)

    def test_nonconvex_table_rejected(self):
        with pytest.raises(CostFunctionError):
            table_cost([0.0, 1.0, 2.0], [0.0, 2.0, 2.5])

    def test_negative_or_decreasing_rejected(self):
        from privmarket.model import CostFunction

        with pytest.raises(CostFunctionError):
            audit_cost_function(CostFunction(value=lambda z: z - 1.0, derivative=lambda z: 1.0))
        with pytest.raises(CostFunctionError):
            audit_cost_function(CostFunction(value=lambda z: -z, derivative=lambda z: -1.0))

    @pytest.mark.parametrize("zetas, values, message", [
        ([0.0, 1.0], [0.0, float("nan")], "must be finite"),
        ([0.0, float("inf")], [0.0, 1.0], "must be finite"),
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "repeats zeta = 1"),
    ])
    def test_nonfinite_or_repeated_table_rejected(self, zetas, values, message):
        # NaN compares false with everything, and a zero-width segment has
        # an infinite slope: neither may slip through the shape checks
        with pytest.raises(CostFunctionError, match=message):
            table_cost(zetas, values)

    def test_nonfinite_cost_fails_the_audit(self):
        from privmarket.model import CostFunction

        for cost in (CostFunction(value=lambda z: z, derivative=lambda z: float("inf")),
                     CostFunction(value=lambda z: float("nan") if z > 5 else z,
                                  derivative=lambda z: 1.0)):
            with pytest.raises(CostFunctionError, match="not finite"):
                audit_cost_function(cost)


def _bit(graph: Graph, bits: np.ndarray, i: int, j: int) -> int:
    """The group-signal bit user i received from friend j."""
    start = graph.recv_starts[i]
    pos = int(np.searchsorted(graph.neighbors(i), j))
    assert pos < graph.degrees[i] and graph.directed_send[start + pos] == j
    return int(bits[start + pos])


class TestSampling:
    def test_degenerate_priors(self):
        rng = substream(7, 0, 0)
        hi = make_params(prior_w1=1.0 - 1e-15)
        lo = make_params(prior_w1=1e-15)
        assert all(sample_world(rng, hi) == 1 for _ in range(50))
        assert all(sample_world(rng, lo) == 0 for _ in range(50))

    def test_world_frequency(self):
        rng = substream(7, 0, 1)
        params = make_params()
        draws = 100_000
        mean = np.mean([sample_world(rng, params) for _ in range(draws)])
        se = math.sqrt(0.25 / draws)
        assert abs(mean - 0.5) < 3 * se

    def test_private_signal_quality(self):
        params = make_params(population=100_000)
        rng = substream(7, 1, 0)
        s = signals_and_moves(rng, 1, params)[0]
        se = math.sqrt(0.7 * 0.3 / params.population)
        assert abs(s.mean() - 0.7) < 3 * se

    def test_private_signal_noiseless_limit(self):
        params = make_params(theta0=1.0 - 1e-12, population=1000)
        rng = substream(7, 1, 1)
        assert np.all(signals_and_moves(rng, 1, params)[0] == 1)
        assert np.all(signals_and_moves(rng, 0, params)[0] == 0)

    def test_private_signals_conditionally_independent(self):
        params = make_params(population=2)
        rng = substream(7, 1, 2)
        draws = 40_000
        pairs = np.array([signals_and_moves(rng, 1, params)[0] for _ in range(draws)])
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(draws)

    def test_group_signals_noiseless(self):
        graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
        rng = substream(7, 2, 0)
        s = np.array([1, 0, 1], dtype=np.int8)
        bits = sample_group_signals(rng, graph, s, alpha=0.0)
        assert np.array_equal(bits, s[graph.directed_send])
        for i, j in ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)):
            assert _bit(graph, bits, i, j) == s[j]

    def test_group_signal_flip_rate(self):
        graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
        rng = substream(7, 2, 1)
        s = np.array([1, 0, 1], dtype=np.int8)
        draws = 100_000
        flips = np.zeros(6)
        for _ in range(draws):
            bits = sample_group_signals(rng, graph, s, alpha=0.25)
            flips += bits != s[graph.directed_send]
        rates = flips / draws
        se = math.sqrt(0.25 * 0.75 / draws)
        assert np.all(np.abs(rates - 0.25) < 3 * se)

    def test_directions_independent(self):
        # chi-squared independence of the two directed copies on one edge
        graph = Graph(2, [(0, 1)])
        rng = substream(7, 2, 2)
        s = np.array([1, 1], dtype=np.int8)
        draws = 50_000
        counts = np.zeros((2, 2))
        for _ in range(draws):
            bits = sample_group_signals(rng, graph, s, alpha=0.25)
            counts[_bit(graph, bits, 0, 1), _bit(graph, bits, 1, 0)] += 1
        _, p_value, _, _ = chi2_contingency(counts)
        assert p_value > 0.01

    def test_same_seed_same_realization(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        params = make_params(population=4)

        def realize(rng):
            w = sample_world(rng, params)
            s = signals_and_moves(rng, w, params)[0]
            return w, s, sample_group_signals(rng, graph, s, params.alpha)

        (wa, sa, ca), (wb, sb, cb) = realize(substream(99, 5, 3)), realize(substream(99, 5, 3))
        assert wa == wb
        assert np.array_equal(sa, sb)
        assert np.array_equal(ca, cb)

    def test_leading_trial_axis(self):
        # one row per world bit; noiseless signals and links copy it through
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        params = make_params(theta0=1.0 - 1e-12, alpha=0.0, population=4)
        w = np.array([1, 0, 0, 1])
        rng = substream(7, 2, 3)
        s = signals_and_moves(rng, w, params)[0]
        assert np.array_equal(s, np.repeat(w[:, None], 4, axis=1))
        bits = sample_group_signals(rng, graph, s, alpha=0.0)
        assert np.array_equal(bits, s[:, graph.directed_send])
        with pytest.raises(ParameterError):
            sample_group_signals(rng, graph, np.zeros((4, 5), dtype=np.int8), alpha=0.0)

    def test_one_row_draws_the_single_trial_stream(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        params = make_params(population=4)
        a, b = substream(99, 5, 4), substream(99, 5, 4)
        w = sample_world(a, params)
        (w_row,) = sample_world(b, params, 1)
        assert w == w_row
        s, moves = signals_and_moves(a, w, params)
        s_rows, move_rows = signals_and_moves(b, [w_row], params)
        assert np.array_equal(s_rows, s[None])
        assert np.array_equal(move_rows, moves[None])
        bits = sample_group_signals(a, graph, s, params.alpha)
        assert np.array_equal(sample_group_signals(b, graph, s_rows, params.alpha), bits[None])

    @pytest.mark.parametrize("theta0", [0.7, 0.55, 1.0 - 1e-12])
    def test_signal_and_move_split_one_raw_word(self, theta0):
        # the high 31 bits against round(theta0 * 2**31) give the signal,
        # the low 31 bits the move; Python integers have no byte order
        params = make_params(theta0=theta0, population=300)
        w = np.array([1, 0, 1])
        # the caller's buffers are filled whole, whatever they held
        out = (np.full((3, 300), 7, np.int8), np.full((3, 300), 2**32 - 1, np.uint32))
        s, moves = sample_signals_and_moves(substream(99, 5, 5), w, params, out)
        assert s is out[0] and moves is out[1]
        rng = substream(99, 5, 5)
        words = [[int(rng.bit_generator.random_raw()) for _ in range(300)] for _ in w]
        threshold = round(theta0 * 2**31)
        assert s.dtype == np.int8 and moves.dtype == np.uint32
        assert s.tolist() == [[int((x >> 33) < threshold) ^ int(wb == 0) for x in row]
                              for wb, row in zip(w, words)]
        assert moves.tolist() == [[x & (2**31 - 1) for x in row] for row in words]

    def test_moves_are_uniform_below_two_to_the_31(self):
        params = make_params(population=100_000)
        _, moves = signals_and_moves(substream(7, 1, 3), 1, params)
        assert int(moves.max()) < FIXED_ONE
        u = moves / FIXED_ONE
        assert abs(u.mean() - 0.5) < 3 * math.sqrt(1.0 / 12.0 / len(u))
        # the top bit of the move is a fair coin, independent of the signal bits
        assert abs((moves >> 30).mean() - 0.5) < 3 * math.sqrt(0.25 / len(u))

    def test_streams_differ_by_index(self):
        a = substream(99, 5, 0).random(8)
        b = substream(99, 5, 1).random(8)
        assert not np.allclose(a, b)


class TestFixedPoint:
    def test_exact_at_zero_and_one(self):
        got = fixed_point([0.0, 1.0])
        assert got.dtype == np.uint32
        assert got.tolist() == [0, FIXED_ONE]

    def test_monotone_and_within_half_a_step(self):
        p = np.sort(np.concatenate([
            np.random.default_rng(3).random(10_000), [0.5, 2.0**-32, 2.0**-31, 1.0 - 2.0**-33],
        ]))
        got = fixed_point(p)
        assert np.all(np.diff(got.astype(np.int64)) >= 0)
        assert np.abs(got / FIXED_ONE - p).max() <= 2.0**-32

    def test_keeps_shape(self):
        assert fixed_point(np.zeros((3, 2))).shape == (3, 2)
