"""privmarket benchmark: time to solution, setup and trial throughput per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run from a checkout of the repository.  Each measurement starts the CLI
in a fresh process (`from privmarket.cli import main`, as the installed
entry point does) on the checkout's `src/`, so imports are included.

A run measures in cycles; cycle j uses a config with its own `sim.seed`
(workloads.sim_seed), so one run samples several graph draws.

--trace 0 runs three commands per cycle until the time is spent:
`simulate` as configured (wall_s, peak_rss_mb), `simulate --trials 2`
(setup_s) and `analytics` (analytics_s); a command shorter than
MIN_STEP_S repeats within a cycle.  It reports their medians and
trials_per_s = trials / median over cycles of (wall - setup), both runs
of a cycle having the same config.

--trace 1 runs `simulate` of each cycle under trace_cli.py at 1 and at 2
workers and once untraced; the three CSVs must match.  It reports the
per-layer metrics of layers.py from the runs at the workload's own
worker count.

Every command's outputs are checked (see `Checker`).  A command that
exits non-zero or fails a check counts in `failed`; failed / attempted is
failed_frac.  `correct` is false only when the program wrote a wrong output.
Metrics come from successful commands only.  When a metric has none (every
cycle's graph could not be built, say), the run reports no result and
exits with status 1.  The last line of stdout is the JSON result; a
fuller report, with sample counts, workload descriptors and machine facts,
goes to .perfbench_work/report-*.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENTRY = "import sys; from privmarket.cli import main; sys.exit(main())"
TRACER = HERE / "trace_cli.py"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "analytics_s": "s",
    "peak_rss_mb": "MB",
}
PAYMENT_GAP_LIMIT = 5.0  # |avg_payment - analytic_payment| in standard errors
MIN_CYCLES = 2  # of the end-to-end commands, whatever --seconds says
MIN_STEP_S = 2.0  # an end-to-end command shorter than this repeats within a cycle
COMMAND_TIMEOUT_S = 150.0
HARD_LIMIT_S = 170.0  # no command of one invocation runs past this
SMOKE_SECONDS = 1


@dataclass(frozen=True)
class Run:
    """One CLI process: exit code, wall time, peak RSS and its output directory."""

    code: int
    wall_s: float
    rss_mb: float
    out: Path
    stderr: str


def run_cli(cwd: Path, label: str, args: list[str], timeout: float,
            spans: Path | None = None) -> Run:
    """Start the CLI in a new process group, wait for it with wait4, time it.

    ru_maxrss from wait4 is the peak of the process and of the descendants
    it reaped (Linux accounts both), so forked pool workers are included
    as a maximum, not as a sum.  A command still running after `timeout`
    seconds, or when this process is interrupted, is killed with its group.
    """
    out = cwd / label
    out.mkdir()
    env = dict(os.environ)
    env.pop("PRIVMARKET_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    head = [sys.executable, str(TRACER), str(spans)] if spans else [sys.executable, "-c", ENTRY]
    cmd = head + args + ["--out", str(out)]
    with open(cwd / (label + ".err"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers left behind by a killed run
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024.0, out, stderr)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Checker:
    """Output checks on every command; counts attempts, failures and wrong outputs."""

    def __init__(self, csv_header: str, rows: int):
        self.header = csv_header
        self.rows = rows
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures where the program wrote a wrong output
        self.gap_se = 0.0
        self.notes: list[str] = []
        self.reference_csv: dict[int, str] = {}  # per cycle: its first full-trial CSV

    def _fail(self, label: str, reason: str, wrong: bool) -> bool:
        self.failed += 1
        self.wrong += wrong
        self.notes.append(f"{label}: {reason}")
        return False

    def simulate(self, run: Run, label: str, cycle: int, full: bool) -> bool:
        """Exit status, header, row count, finite cells; payment gap and equality on full runs.

        Every full run of a cycle (at any worker count) must write the same CSV.
        """
        self.attempted += 1
        if run.code != 0:
            return self._fail(label, f"exit {run.code}: {run.stderr.strip()[-300:]}", False)
        path = run.out / "results.csv"
        if not path.is_file():
            return self._fail(label, "no results.csv", True)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        if not lines or lines[0] != self.header:
            return self._fail(label, "results.csv header differs from CSV_HEADER", True)
        if len(lines) - 1 != self.rows:
            return self._fail(label, f"{len(lines) - 1} rows, expected {self.rows}", True)
        columns = self.header.split(",")
        gaps = []
        for line in lines[1:]:
            try:
                cells = [float(c) for c in line.split(",")]
            except ValueError:
                cells = []
            if len(cells) != len(columns) or not all(math.isfinite(c) for c in cells):
                return self._fail(label, f"bad row {line!r}", True)
            row = dict(zip(columns, cells))
            se = row["payment_ci"] / 1.96
            diff = abs(row["avg_payment"] - row["analytic_payment"])
            gaps.append(diff / se if se > 0 else (0.0 if diff == 0 else math.inf))
        if not full:
            return True
        self.gap_se = max(self.gap_se, *gaps)
        if max(gaps) > PAYMENT_GAP_LIMIT:
            return self._fail(label, f"payment gap {max(gaps):.2f} se > {PAYMENT_GAP_LIMIT}", True)
        if self.reference_csv.setdefault(cycle, text) != text:
            return self._fail(label, "results.csv differs from the first run of this config", True)
        return True

    def analytics(self, run: Run, label: str) -> bool:
        self.attempted += 1
        if run.code != 0:
            return self._fail(label, f"exit {run.code}: {run.stderr.strip()[-300:]}", False)
        path = run.out / "analytics.txt"
        if not path.is_file():
            return self._fail(label, "no analytics.txt", True)
        pairs = [line.split(" = ", 1) for line in path.read_text().splitlines()]
        if any(len(pair) != 2 for pair in pairs):
            return self._fail(label, "analytics.txt has a line that is not 'key = value'", True)
        values = dict(pairs)
        if "expected_payment_per_user" not in values:
            return self._fail(label, "analytics.txt lacks expected_payment_per_user", True)
        for key, value in values.items():
            try:
                number = float(value)
            except ValueError:
                continue
            if not math.isfinite(number):
                return self._fail(label, f"{key} = {value}", True)
        return True


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


class Bench:
    """One workload at one seed: its inputs, its commands and their samples."""

    def __init__(self, workload, seed: int, seconds: float, smoke: bool, csv_header: str):
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        now = time.perf_counter()
        self.deadline = now + seconds
        self.hard_deadline = now + HARD_LIMIT_S
        self.dir = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        (self.dir / "inputs").mkdir(parents=True)
        self.graph_keys = workload.graph_keys(seed, self.dir / "inputs", smoke)
        self.trials = (workload.smoke_trials if smoke else workload.trials) * workload.rows
        self.check = Checker(csv_header, workload.rows)
        self._count = 0

    def config(self, cycle: int) -> Path:
        from workloads import sim_seed

        path = self.dir / f"run-{cycle}.cfg"
        if not path.exists():
            path.write_text(self.w.config_text(self.graph_keys, sim_seed(self.seed, cycle),
                                               self.smoke))
        return path

    def cli(self, command: str, cycle: int, *extra: str,
            spans: Path | None = None) -> tuple[Run, str]:
        self._count += 1
        label = f"{self._count:03d}-c{cycle}-{command}"
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        return run_cli(self.dir, label, [command, "--config", str(self.config(cycle)), *extra],
                       timeout, spans), label

    def _more_cycles(self, done: int, started: float) -> bool:
        """At least one cycle; then another only if one more fits."""
        now = time.perf_counter()
        if now >= self.hard_deadline:
            return False
        return done == 0 or now + (now - started) / done <= self.deadline

    def warm_up(self) -> None:
        """Compile the package's bytecode once; users do not pay that on every run."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import privmarket.cli"], cwd=self.dir, env=env,
                       check=True, timeout=COMMAND_TIMEOUT_S)

    def end_to_end(self) -> tuple[dict, dict]:
        """Cycle full run, setup run and analytics until none of them fits any more.

        The first MIN_CYCLES cycles always run; after them each command
        starts only if its last duration still fits before the deadline.
        A command shorter than MIN_STEP_S runs that many times over in a
        cycle, so that short commands get more samples.
        """
        samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        steps = (("wall_s", ("simulate",)), ("setup_s", ("simulate", "--trials", "2")),
                 ("analytics_s", ("analytics",)))
        last: dict[str, float] = {}
        diffs = []  # wall - setup per cycle, both runs successful
        cycle = 0
        while time.perf_counter() < self.hard_deadline:
            ran = 0
            wall = None
            for name, args in steps:
                reps = math.ceil(MIN_STEP_S / last[name]) if name in last else 1
                for _ in range(reps):
                    left = min(self.deadline, self.hard_deadline) - time.perf_counter()
                    if cycle >= MIN_CYCLES and last[name] > left:
                        break
                    run, label = self.cli(args[0], cycle, *args[1:])
                    ran += 1
                    last[name] = run.wall_s
                    if name == "analytics_s":
                        ok = self.check.analytics(run, label)
                    else:
                        ok = self.check.simulate(run, label, cycle, full=name == "wall_s")
                    if not ok:
                        continue
                    samples[name].append(run.wall_s)
                    if name == "wall_s":
                        samples["peak_rss_mb"].append(run.rss_mb)
                        wall = run.wall_s
                    elif name == "setup_s" and wall is not None:
                        diffs.append(wall - run.wall_s)
                        wall = None
            if not ran:
                break
            cycle += 1
        values = {name: median(samples[name]) for name in END_TO_END}
        values["trials_per_s"] = self.trials / median(diffs) if diffs else math.nan
        samples["trials_per_s"] = diffs
        counts = {name: len(xs) for name, xs in samples.items()}
        return values, {"counts": counts, "samples": samples}

    def per_layer(self) -> tuple[dict, dict]:
        from layers import LAYER_METRICS, TIME_UNITS, TIMED_SPANS, layer_values

        other = 1 if self.w.workers != 1 else 2
        traced: dict[int, list] = {self.w.workers: [], other: []}
        traced_wall, untraced_wall, layer_sums = [], [], []
        started = time.perf_counter()
        cycle = 0
        while self._more_cycles(cycle, started):
            runs = {}
            for workers in (self.w.workers, other):
                spans = self.dir / f"spans-{self._count + 1:03d}.json"
                run, label = self.cli("simulate", cycle, "--workers", str(workers), spans=spans)
                if self.check.simulate(run, label, cycle, full=True):
                    runs[workers] = run
                    traced[workers].append(layer_values(
                        json.loads(spans.read_text()), _load_arrays(str(spans) + ".npz"),
                        self.trials))
            run, label = self.cli("simulate", cycle)
            if self.check.simulate(run, label, cycle, full=True) and self.w.workers in runs:
                traced_wall.append(runs[self.w.workers].wall_s)
                untraced_wall.append(run.wall_s)
                layer_sums.append(sum(traced[self.w.workers][-1][s + "_s"] for s in TIMED_SPANS))
            cycle += 1
        main = traced[self.w.workers]
        # Times are medians over cycles; counts are those of the first good cycle.
        values = {name: median([v[name] for v in main]) if LAYER_METRICS[name][0] in TIME_UNITS
                  else main[0][name] for name in (main[0] if main else ())}
        one, two = traced[1], traced[2]
        values["sim.scaling_eff"] = (
            median([v["sim.trial_phase_s"] for v in one])
            / (2.0 * median([v["sim.trial_phase_s"] for v in two])) if one and two else math.nan)
        values["trace.overhead_s"] = median(traced_wall) - median(untraced_wall)
        values["check.payment_gap_se"] = self.check.gap_se
        detail = {"cycles": cycle, "traced_wall_s": traced_wall,
                  "untraced_wall_s": untraced_wall, "layer_self_sum_s": layer_sums,
                  "traced": {str(k): v for k, v in traced.items()}}
        return values, detail

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _load_arrays(path: str) -> dict:
    import numpy as np

    with np.load(path) as arrays:
        return {key: arrays[key] for key in arrays.files}


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    for pkg in ("numpy", "scipy"):
        facts[pkg] = importlib.metadata.version(pkg)
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        key = "SC_" + name
        if key in os.sysconf_names:
            facts[name.lower()] = os.sysconf(key)
    return facts


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool,
                 csv_header: str) -> dict | None:
    """Measure one workload; None when some metric has no successful sample."""
    from layers import LAYER_METRICS

    bench = Bench(workload, seed, seconds, smoke, csv_header)
    try:
        bench.warm_up()
        if trace:
            values, detail = bench.per_layer()
            units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        else:
            values, detail = bench.end_to_end()
            units = END_TO_END
    finally:
        bench.cleanup()
    check = bench.check
    metrics = {name: {"value": values.get(name, math.nan), "unit": unit}
               for name, unit in units.items()}
    unmeasured = [name for name, metric in metrics.items() if not math.isfinite(metric["value"])]
    result = {"correct": check.wrong == 0, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "trials_total": bench.trials, "result": result, "detail": detail,
        "failed_frac": check.failed / max(check.attempted, 1),
        "payment_gap_se": check.gap_se, "failures": check.notes, "unmeasured": unmeasured,
        "rss_note": "ru_maxrss from wait4: the CLI process and its reaped pool workers, as a max",
        "machine": machine_facts(),
    }
    path = WORK / f"report-{workload.name}-s{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    counts = detail.get("counts", {})
    for name, metric in metrics.items():
        n = counts.get(name, len(detail.get("traced_wall_s", ())))
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}  (n={n})")
    print(f"{workload.name} failed_frac = {report['failed_frac']:.4g} fraction  "
          f"({check.failed}/{check.attempted})")
    if trace:
        print(f"{workload.name} layer self times sum to {median(detail['layer_self_sum_s']):.4g} s "
              f"of traced wall {median(detail['traced_wall_s']):.4g} s")
    for note in check.notes:
        print(f"{workload.name} NOTE {note}")
    if unmeasured:
        print(f"{workload.name}: no successful command measured {', '.join(unmeasured)}",
              file=sys.stderr)
        return None
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_cli, which kills the command


def smoke_check(result: dict, trace: bool) -> None:
    from layers import LAYER_METRICS
    from workloads import WORKLOADS

    expected = ({k: v[0] for k, v in LAYER_METRICS.items()} if trace else END_TO_END)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if listed != expected:
        raise SystemExit(f"BENCHMARK.json metrics differ from the benchmark's: {listed} != {expected}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name, unit in expected.items():
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != unit or not math.isfinite(metric["value"]):
            raise SystemExit(f"smoke: metric {name} missing or not finite: {metric}")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"smoke: checks failed: {result}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, tiny sizes, both modes; assert every metric")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (SRC / "privmarket" / "cli.py").is_file():
        print(f"perfbench: no privmarket sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from privmarket.sim import CSV_HEADER
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    modes = (False, True) if args.smoke else (bool(args.trace),)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in modes:
            result = run_workload(WORKLOADS[name], args.seed, seconds, trace, args.smoke,
                                  CSV_HEADER)
            if result is None:
                return 1
            if args.smoke:
                smoke_check(result, trace)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else name + "/"
            total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    if args.smoke:
        print("smoke: every metric printed with its unit")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
