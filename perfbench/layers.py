"""Per-layer metrics: what each one measures, and how it is computed from spans.

Layers are privmarket's modules.  Each entry names the end-to-end metric
it should move and on which workload, and the workload where its share is
close to zero, so that a later change can say beforehand which numbers
should move and which should not.
"""

from __future__ import annotations

from collections import defaultdict

# name: (unit, better, end-to-end metric it should move, on, ~0 share on)
LAYER_METRICS = {
    "cli.import_s": ("s", "lower", "setup_s", "all; largest share on readme-er250", "-"),
    "config.load_s": ("s", "lower", "setup_s", "all (small)", "-"),
    "graph.build_s": ("s", "lower", "setup_s", "collab-eps-sweep",
                      "readme-er250 after the import"),
    "graph.build_calls": ("count", "lower", "setup_s",
                          "collab-eps-sweep (3 per run: one per epsilon, one CLI re-ingest)", "-"),
    "analytics.degree_law_s": ("s", "lower", "setup_s, analytics_s", "readme-er250",
                               "collab-eps-sweep (smaller law)"),
    "analytics.degree_law_calls": ("count", "lower", "setup_s, analytics_s", "all", "-"),
    "analytics.degree_law_support": ("count", "lower", "setup_s, analytics_s",
                                     "readme-er250 (207 degrees)", "-"),
    "analytics.graph_moments_s": ("s", "lower", "setup_s", "collab-eps-sweep",
                                  "readme-er250"),
    "analytics.graph_pairs": ("count", "lower", "setup_s", "collab-eps-sweep",
                              "readme-er250"),
    "strategy.build_s": ("s", "lower", "setup_s", "collab-eps-sweep", "readme-er250"),
    "strategy.build_calls": ("count", "lower", "setup_s", "collab-eps-sweep", "-"),
    "strategy.cells": ("count", "lower", "setup_s", "collab-eps-sweep", "-"),
    "sim.trial_phase_s": ("s", "lower", "trials_per_s, wall_s",
                          "readme-er250, collab-eps-sweep", "-"),
    "sim.us_per_trial": ("us", "lower", "trials_per_s", "readme-er250 (fixed cost per trial)", "-"),
    "sim.ns_per_user_trial": ("ns", "lower", "trials_per_s", "collab-eps-sweep (cost per user)",
                              "-"),
    "sim.scaling_eff": ("ratio", "higher", "trials_per_s", "readme-er250, collab-eps-sweep",
                        "-"),
    "sim.output_s": ("s", "lower", "wall_s", "all (small)", "-"),
    "trace.overhead_s": ("s", "lower", "-", "all", "-"),
    "check.payment_gap_se": ("se", "lower", "-", "all (diagnostic)", "-"),
    "graph.nodes": ("count", "lower", "-", "workload descriptor", "-"),
    "graph.edges": ("count", "lower", "-", "workload descriptor", "-"),
    "graph.d_max": ("count", "lower", "-", "workload descriptor", "-"),
    "graph.triangles": ("count", "lower", "-", "workload descriptor", "-"),
    "graph.open_wedges": ("count", "lower", "-", "workload descriptor", "-"),
}

TIME_UNITS = ("s", "us", "ns")
GRAPH_DESCRIPTORS = ("nodes", "edges", "d_max", "triangles", "open_wedges")

# Spans whose self time is a layer metric, "<span>_s".  The span around
# run_experiment is named sim.trial_phase: its self time is the engine,
# the trials and the aggregation.
TIMED_SPANS = ("cli.import", "config.load", "graph.build", "analytics.degree_law",
               "analytics.graph_moments", "strategy.build", "sim.trial_phase", "sim.output")


def self_times(spans: list) -> dict[str, float]:
    """Per span name: total duration minus the time covered by direct children.

    Spans are properly nested, so the children of one span never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[i]
    return dict(totals)


def graph_stats(n: int, edges) -> dict:
    """Exact structure counts of a realized graph from its (E, 2) edge array."""
    import numpy as np
    import scipy.sparse as sp

    adj = sp.coo_matrix(
        (np.ones(2 * len(edges), dtype=np.int64),
         (np.concatenate([edges[:, 0], edges[:, 1]]), np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    ).tocsr()
    triangles = int((adj @ adj).multiply(adj).sum()) // 6
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
    wedges = int((deg * (deg - 1) // 2).sum())
    return {
        "nodes": n,
        "edges": len(edges),
        "d_max": int(deg.max()) if n else 0,
        "triangles": triangles,
        "open_wedges": wedges - 3 * triangles,
    }


def layer_values(trace: dict, graphs, trials_total: int) -> dict[str, float]:
    """Self times, counts and descriptors of one traced run.

    `graphs` holds, as trace_cli.py saved them, the node count "<key>_n"
    and edge array "<key>_edges" of the first graph built (key "built") and
    of the graph of each graph-moment call (keys "moments<i>").
    """
    stats = {key[:-2]: graph_stats(int(graphs[key]), graphs[key[:-2] + "_edges"])
             for key in graphs if key.endswith("_n")}
    selfs = self_times(trace["spans"])
    out: dict[str, float] = {}
    for span in TIMED_SPANS:
        out[span + "_s"] = selfs.get(span, 0.0)
    counts = trace["counts"]
    out["graph.build_calls"] = counts.get("graph.build_calls", 0)
    out["analytics.degree_law_calls"] = counts.get("analytics.degree_law_calls", 0)
    out["analytics.degree_law_support"] = counts["analytics.degree_law_support"]
    out["analytics.graph_pairs"] = sum(
        g["edges"] + g["open_wedges"] for key, g in stats.items() if key.startswith("moments"))
    out["strategy.build_calls"] = counts.get("strategy.build_calls", 0)
    out["strategy.cells"] = counts.get("strategy.cells", 0)
    graph = stats.get("built") or dict.fromkeys(GRAPH_DESCRIPTORS, 0)  # no graph was built
    for key in GRAPH_DESCRIPTORS:
        out["graph." + key] = graph[key]
    trial = out["sim.trial_phase_s"]
    out["sim.us_per_trial"] = trial / trials_total * 1e6
    out["sim.ns_per_user_trial"] = trial / (trials_total * max(graph["nodes"], 1)) * 1e9
    return out
