from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket.graph import (
    DegreeDistribution,
    Graph,
    GraphFormatError,
    PairingError,
    binomial_pmf,
    check_sparsity,
    generate_configuration_model,
    generate_erdos_renyi,
    ingest_edge_list,
)
from privmarket.model import substream

from oracles import (edge_list_text, graph_arrays_loop, has_edge, ingest_counts_loop, point_mass,
                     truncated_poisson_mean)


def _assert_graph_matches(graph: Graph, ref: dict) -> None:
    """`graph` carries the reference's edges, CSR view, degrees and neighbor lists."""
    assert np.array_equal(graph.edges(), ref["edges"])
    assert graph.edges().shape == ref["edges"].shape
    for name in ("directed_send", "recv_starts", "degrees"):
        assert np.array_equal(getattr(graph, name), ref[name]), name
        assert getattr(graph, name).dtype == np.int64, name
    for i in range(graph.n):
        assert np.array_equal(graph.neighbors(i), ref["neighbors"][i])


# Node ids: a dense small range, so lines repeat, reverse and self-loop
# often, plus sparse and negative ids anywhere in the 64-bit range.
_IDS = st.one_of(st.integers(-3, 12), st.integers(-(2**63), 2**63 - 1))
_SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])
# Lines that `str.splitlines`, `strip` and `split` read but a C parse may
# not: signs, leading zeros past 18 digits, non-ASCII blanks, a comment in
# non-ASCII text, and comments that a vertical tab or a carriage return
# breaks before an edge.
_ODD_EDGE_LINES = st.sampled_from([
    "+5 -0", "0000000000000000000003 4", f"{2**63 - 1} {-(2**63)}",
    "5\u3000 6", "8\xa09", "7\x1f8", "# na\u00efve", "  9 10  ",
    "# x\x0b11 12", "# y\r13 14",
])
# Lines the format rejects, each naming its line: an inline comment, one or
# three ids, non-integer ids (among them ids `int` takes: an underscore and
# non-ASCII digits), ids outside 64 bits, a form feed (which
# `str.splitlines` breaks at) and a stray carriage return.
_BAD_LINES = st.sampled_from([
    "0 1 # x", "0 1 2", "7", "0 x", "1.0 2", "0x1 2", "1e3 2", "+-5 1", "5- 1",
    "1_000 7", "\u0661 \u0662", "20 \uff13\uff10",
    f"{2**63} 0", f"0 {-(2**63) - 1}", "3\x0c4", "3\r4",
])


class TestGraphBasics:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_deduplicates_and_sorts(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1)])
        assert g.num_edges == 2
        assert list(g.neighbors(1)) == [0, 2]

    def test_handshake_identity(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        assert g.degrees.sum() == 2 * g.num_edges

    def test_out_of_range_names_first_bad_edge(self):
        with pytest.raises(ValueError, match=r"^edge \(1, 5\) out of range for n=3$"):
            Graph(3, [(0, 1), (1, 5), (2, 2), (-1, 0)])
        with pytest.raises(ValueError, match=r"^self-loop at node 2$"):
            Graph(3, np.array([(0, 1), (2, 2), (1, 5)]))

    @given(
        n=st.integers(1, 12),
        raw=st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)), max_size=50),
        valid=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_set_and_loop_reference(self, n, raw, valid):
        # Half the draws fold the edges into a valid list; the rest keep
        # their self-loops and out-of-range ids, so the errors are compared.
        edges = [(u % n, v % n) for u, v in raw if u % n != v % n] if valid else raw
        try:
            ref = graph_arrays_loop(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                Graph(n, edges)
            return
        graph = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        _assert_graph_matches(graph, ref)
        assert graph == Graph(n, edges)
        pairs = set(map(tuple, ref["edges"].tolist()))
        for u in range(n):
            for v in range(n):
                assert has_edge(graph, u, v) == ((min(u, v), max(u, v)) in pairs)


class TestConfigurationModel:
    def test_point_mass_zero_is_edgeless(self):
        g = generate_configuration_model(substream(5, 4, 0), point_mass(0), 10)
        assert g.num_edges == 0

    def test_point_mass_one_gives_perfect_matching(self):
        g = generate_configuration_model(substream(5, 4, 1), point_mass(1), 4)
        assert g.num_edges == 2
        assert np.all(g.degrees == 1)

    def test_degrees_match_draw(self):
        dist = DegreeDistribution([0.0, 1 / 3, 1 / 3, 1 / 3])
        for k in range(5):
            g = generate_configuration_model(substream(5, 4, 2 + k), dist, 30)
            assert g.degrees.sum() == 2 * g.num_edges
            assert set(np.unique(g.degrees)) <= {1, 2, 3}

    def test_gapped_law_draw_is_pinned(self):
        # degrees are drawn as indices into the mass vector; on a law with
        # gaps this is the draw from the listed degrees [1, 2, 4] alone
        dist = DegreeDistribution([0.0, 0.3, 0.4, 0.0, 0.3])
        g = generate_configuration_model(np.random.default_rng(2024), dist, 24)
        assert g.degrees.tolist() == [2, 1, 2, 4, 4, 1, 1, 1, 1, 1, 2, 2,
                                      1, 2, 1, 2, 4, 4, 2, 2, 1, 2, 1, 4]
        assert g.num_edges == 24
        assert g.edges()[:6].tolist() == [[0, 13], [0, 21], [1, 2], [2, 13], [3, 4], [3, 17]]

    def test_truncated_poisson_mean_degree(self):
        dist = DegreeDistribution.poisson_truncated(4.0, 20)
        g = generate_configuration_model(substream(5, 4, 50), dist, 1000)
        expected = truncated_poisson_mean(4.0, 20)
        # mean of 1000 iid truncated-Poisson draws (parity redraws perturb one)
        se = math.sqrt(dist.second_moment() - dist.mean() ** 2) / math.sqrt(1000)
        assert abs(g.degrees.mean() - expected) < 3 * se

    def test_marginal_matches_distribution(self):
        dist = DegreeDistribution([0.0, 0.5, 0.5])
        draws = 400
        counts = np.zeros(6)
        for k in range(draws):
            g = generate_configuration_model(substream(11, 4, k), dist, 6)
            counts += g.degrees == 1
        se = math.sqrt(0.25 / draws)
        for node_rate in counts / draws:
            assert abs(node_rate - 0.5) < 3 * se

    def test_impossible_pairing_reported(self):
        with pytest.raises(PairingError):
            generate_configuration_model(
                substream(5, 4, 99), point_mass(5), 4
            )


class TestErdosRenyi:
    def test_extremes(self):
        rng = substream(6, 4, 0)
        assert generate_erdos_renyi(rng, 20, 0.0).num_edges == 0
        assert generate_erdos_renyi(rng, 20, 19.0).num_edges == 20 * 19 // 2

    def test_edge_count_near_mean(self):
        g = generate_erdos_renyi(substream(6, 4, 1), 250, 4.0)
        mean = 250 * 4 / 2
        p = 4.0 / 249
        se = math.sqrt(math.comb(250, 2) * p * (1 - p))
        assert abs(g.num_edges - mean) < 3 * se

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            generate_erdos_renyi(substream(6, 4, 2), 10, 10.0)


class TestIngest:
    def test_duplicate_collapse(self):
        res = ingest_edge_list("0 1\n1 0\n")
        assert res.graph.n == 2
        assert res.graph.num_edges == 1

    def test_comments_self_loops_and_ids(self):
        text = "# a comment\n5 5\n10 20\n20 10\n30 10\n"
        res = ingest_edge_list(text)
        assert res.self_loops_dropped == 1
        assert res.graph.n == 4  # ids 5, 10, 20, 30
        assert res.graph.num_edges == 2
        assert res.id_map[5] == 0

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            ingest_edge_list("0 1\n0 x\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            ingest_edge_list("0 1 2\n")
        # ids Python's `int` reads as 10 and 30: only ASCII digits after a sign
        with pytest.raises(GraphFormatError, match="^line 1: non-integer node id in '1_0 2'$"):
            ingest_edge_list("1_0 2\n2 3\n")
        with pytest.raises(GraphFormatError, match="^line 2: non-integer node id in '20 \uff13\uff10'$"):
            ingest_edge_list("10 20\n20 \uff13\uff10\n")

    def test_empty_input_rejected(self):
        with pytest.raises(GraphFormatError):
            ingest_edge_list("# nothing here\n")

    def test_id_outside_int64_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            ingest_edge_list(f"0 1\n# ok\n1 {2**63}\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            ingest_edge_list(f"0 1\n{-(2**63) - 1} 0\n")
        extremes = ingest_edge_list(f"{2**63 - 1} {-(2**63)}\n")
        assert extremes.id_map == {-(2**63): 0, 2**63 - 1: 1}

    @given(
        lines=st.lists(
            st.one_of(
                st.tuples(_IDS, _SEPARATORS, _IDS).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
                st.sampled_from(["# comment", "", "   ", "#3 4", "  # 5 6", "\t#\t7"]),
                _ODD_EDGE_LINES,
            ),
            max_size=60,
        ),
        echoes=st.lists(st.tuples(st.integers(0, 59), st.booleans()), max_size=20),
        bad=st.none() | st.tuples(st.integers(0, 80), _BAD_LINES),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_set_and_loop_reference(self, lines, echoes, bad, newline):
        # Echo some edge lines again, reversed or as they were.
        edge_lines = [ln.split() for ln in lines if ln.strip() and not ln.strip().startswith("#")]
        for k, reverse in echoes:
            if edge_lines:
                u, v = edge_lines[k % len(edge_lines)]
                lines.append(f"{v} {u}" if reverse else f"{u} {v}")
        if bad is not None:
            lines.insert(bad[0] % (len(lines) + 1), bad[1])
        text = newline.join(lines) + newline
        ref = ingest_counts_loop(text)
        if ref is None:
            with pytest.raises(GraphFormatError, match="empty input"):
                ingest_edge_list(text)
            return
        if "error" in ref:
            with pytest.raises(GraphFormatError) as info:
                ingest_edge_list(text)
            assert str(info.value) == ref["error"]
            return
        res = ingest_edge_list(text)
        assert res.graph.n == ref["n"]
        _assert_graph_matches(res.graph, graph_arrays_loop(ref["n"], ref["edges"]))
        assert res.id_map == ref["id_map"]
        for key in ("self_loops_dropped", "duplicates_dropped", "lines_read"):
            assert getattr(res, key) == ref[key], key

    def test_roundtrip_idempotent(self):
        res = ingest_edge_list("3 7\n7 9\n9 3\n1 3\n")
        text = edge_list_text(res.graph)
        again = ingest_edge_list(text)
        assert again.graph == res.graph
        assert edge_list_text(again.graph) == text

    @given(
        edges=st.sets(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_idempotent_random(self, edges):
        text = "\n".join(f"{u} {v}" for u, v in edges) + "\n"
        res = ingest_edge_list(text)
        assert res.graph.degrees.sum() == 2 * res.graph.num_edges
        again = ingest_edge_list(edge_list_text(res.graph))
        assert again.graph == res.graph


class TestSparsity:
    def test_edgeless_ratio_is_zero(self):
        g = Graph(10, [])
        rep = check_sparsity(g)
        assert rep.ratio == 0.0

    def test_star_graph_ratio(self):
        g = Graph(16, [(0, i) for i in range(1, 16)])
        rep = check_sparsity(g)
        assert rep.d_max == 15
        assert rep.n_quarter_root == pytest.approx(2.0)
        assert rep.ratio == pytest.approx(7.5)

    def test_report_fields_always_populated(self):
        g = generate_erdos_renyi(substream(6, 4, 3), 250, 4.0)
        rep = check_sparsity(g)
        assert rep.moment_2_5 > 0


class TestDegreeMoments:
    """Empirical degree moments, read from `DegreeDistribution.from_graph`."""

    def test_four_cycle(self):
        m = DegreeDistribution.from_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert m.mean() == pytest.approx(2.0)
        assert m.second_moment() == pytest.approx(4.0)
        assert m.mass[0] == 0.0

    def test_path_on_three(self):
        m = DegreeDistribution.from_graph(Graph(3, [(0, 1), (1, 2)]))
        assert m.mean() == pytest.approx(4.0 / 3.0)
        assert m.second_moment() == pytest.approx(2.0)
        assert m.mass[0] == 0.0

    def test_edgeless(self):
        m = DegreeDistribution.from_graph(Graph(5, []))
        assert m.mass.tolist() == [1.0]
        assert m.mean() == 0.0 and m.second_moment() == 0.0 and m.d_max == 0


class TestDegreeDistribution:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DegreeDistribution([0.5, 0.49])


def _assert_matches_scipy(mass: np.ndarray, reference: np.ndarray) -> None:
    """1e-12 relative wherever the reference mass exceeds 1e-16."""
    assert len(mass) == len(reference)
    carried = reference > 1e-16
    rel = np.abs(mass[carried] - reference[carried]) / reference[carried]
    assert rel.max() <= 1e-12
    assert np.all(mass[~carried] <= 1e-15)
    assert abs(mass.sum() - 1.0) <= 1e-12


class TestPmfHelpers:
    @pytest.mark.parametrize("n", [249, 999, 19_999])
    @pytest.mark.parametrize("p_kind", ["mean4", "0.37", "0.5", "0.9"])
    def test_binomial_matches_scipy(self, n, p_kind):
        from scipy.stats import binom

        p = 4.0 / n if p_kind == "mean4" else float(p_kind)
        dist = DegreeDistribution.binomial(n, p)
        assert len(dist.mass) == n + 1
        _assert_matches_scipy(dist.mass, binom.pmf(np.arange(n + 1), n, p))

    @pytest.mark.parametrize("mean, d_max", [(0.5, 20), (30.0, 120), (30.0, 25), (4.0, 16)])
    def test_poisson_truncated_matches_scipy(self, mean, d_max):
        from scipy.stats import poisson

        reference = poisson.pmf(np.arange(d_max + 1), mean)
        dist = DegreeDistribution.poisson_truncated(mean, d_max)
        _assert_matches_scipy(dist.mass, reference / reference.sum())

    @pytest.mark.parametrize("n", [0, 1, 249])
    def test_binomial_extremes_are_point_masses(self, n):
        assert DegreeDistribution.binomial(n, 0.0).mass[0] == 1.0
        assert DegreeDistribution.binomial(n, 1.0).mass[n] == 1.0
        assert DegreeDistribution.binomial(n, 0.0).d_max == 0
        assert DegreeDistribution.binomial(n, 1.0).d_max == n

    def test_poisson_zero_mean_is_point_mass(self):
        assert DegreeDistribution.poisson_truncated(0.0, 5).mass[0] == 1.0

    def test_invalid_arguments_rejected(self):
        for args in ((-1, 0.5), (5, -0.1), (5, 1.5)):
            with pytest.raises(ValueError):
                binomial_pmf(*args)
        with pytest.raises(ValueError):
            DegreeDistribution.poisson_truncated(-1.0, 5)
        with pytest.raises(ValueError):
            DegreeDistribution.poisson_truncated(2.0, -1)
