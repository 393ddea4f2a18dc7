"""Run one privmarket CLI command in this process, with a span around each layer.

Usage: python3 trace_cli.py SPANS_JSON <privmarket CLI arguments...>

Each traced function is wrapped at the attribute its caller looks up, so
the program runs unchanged apart from the wrappers.  Spans
(name, start, end, parent) are kept in memory and written to SPANS_JSON,
with the exit code and call counts, once the command returns; a command
that fails still writes the spans up to its failure.  The edge arrays of
the built graphs go to SPANS_JSON with `.npz` appended; their structure
counts are computed by the caller, after this process has exited.  The
import of `privmarket.cli` is timed first, in this fresh process, so lazy
imports are charged to the layer that triggers them.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.graphs: list = []  # (graph, degree law) from each graph build
        self.moment_graphs: list = []  # graph argument of each graph-moment call
        self.law_support = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Replace module.attr by a spanned call; note(args, result) records counts."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            self.counts[name + "_calls"] = self.counts.get(name + "_calls", 0) + 1
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if note is not None:
                note(args, result)
            return result

        setattr(module, attr, traced)

    # Notes run after the span closes and keep only references or small
    # integers; the graphs are written out after the command returns.
    def note_graph(self, args, result) -> None:
        self.graphs.append(result)

    def note_law(self, args, result) -> None:
        dist = args[1]
        self.law_support = max(self.law_support, int((dist.mass > 0).sum()))

    def note_moments(self, args, result) -> None:
        self.moment_graphs.append(args[0])

    def note_strategy(self, args, result) -> None:
        self.counts["strategy.cells"] = self.counts.get("strategy.cells", 0) + int(args[0]) + 1


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    index = tracer.open("cli.import")
    import privmarket.cli as cli
    tracer.close(index)

    from privmarket import analytics, config, sim, strategy

    tracer.wrap(cli, "parse_config", "config.load")
    tracer.wrap(cli, "apply_overrides", "config.load")
    tracer.wrap(config, "build_graph", "graph.build", tracer.note_graph)
    tracer.wrap(cli, "build_graph", "graph.build", tracer.note_graph)
    tracer.wrap(analytics, "mv_moments_equal_priors", "analytics.degree_law", tracer.note_law)
    tracer.wrap(analytics, "nd_moments", "analytics.degree_law", tracer.note_law)
    tracer.wrap(sim, "graph_report_moments", "analytics.graph_moments", tracer.note_moments)
    tracer.wrap(strategy, "build_mv_strategy", "strategy.build", tracer.note_strategy)
    tracer.wrap(sim, "run_experiment", "sim.trial_phase")
    for attr in ("simresult_csv", "sweep_csv", "run_manifest"):
        tracer.wrap(sim, attr, "sim.output")

    index = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(index)

    import numpy as np

    graphs = {f"moments{i}": g for i, g in enumerate(tracer.moment_graphs)}
    if tracer.graphs:
        graphs["built"] = tracer.graphs[0][0]
    np.savez(out_path + ".npz", **{f"{key}_n": g.n for key, g in graphs.items()},
             **{f"{key}_edges": g.edges() for key, g in graphs.items()})
    payload = {
        "exit_code": code,
        "spans": tracer.spans,
        "counts": dict(tracer.counts, **{"analytics.degree_law_support": tracer.law_support}),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
