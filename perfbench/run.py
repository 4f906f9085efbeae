"""Benchmark of the cluster-reduce package, run from the repository root.

    python3 perfbench/run.py --workload ladder|symbolic|numeric \\
        --seed N --seconds S --trace 0|1

Workloads (one process generates the load, closed loop, one case at a time):

* ladder   -- ``run_pipeline`` with default settings on somos5, c7-pair,
              somos5-2periodic and the Fordy-Marsh period-1 quivers
              N = 6..9, each case in a fresh child killed at its budget;
* symbolic -- period, cluster map, invariance, Poisson discovery, Casimir
              and null submersions, reduced maps, flags and chained
              reductions of the same seven quivers, plus the symbolic
              global-period certificates of c7-pair;
* numeric  -- Newton searches for period-1 and period-2 points of the
              reduced maps of dimension <= 3, at 64 and 128 digits, and
              the Somos-5 closed-form checks.

Passes repeat while the next one is expected to end within --seconds (at
least one pass).  Case and set-up times are read from a work clock
(``speed.py``): wall time corrected for the host's momentary speed, which
on a shared host swings by up to 2x for seconds to minutes.  The seed
reaches the package only as ``WorkflowConfig.seed``/``seed=`` arguments
and as generated sample points.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (cases that raised, reported a pipeline error or failed an
output check) and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` a traced run gives the per-layer ones
and writes its spans to ``perfbench/results/``.  The line before it holds
diagnostics: the seed, case times and statuses, timed-out cases, and the
host-speed probe at the start and end of the run and its median over the
run.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("ladder", "symbolic", "numeric")
# Set-ups per run; setup_s is their median.  The numeric set-up derives
# reduced maps and costs about a second, the others a fraction of that.
SETUP_REPEATS = {"ladder": 9, "symbolic": 9, "numeric": 5}
# In-process cases still running this long after the start are stopped and
# count as timed out, so that a run ends within three minutes even when a
# change makes a symbolic computation blow up.
RUN_LIMIT_S = 150.0


def import_package():
    """Import cluster_reduce from this checkout's src/, nowhere else."""
    init = SRC / "cluster_reduce" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source {init} not found")
    sys.path.insert(0, str(SRC))
    import cluster_reduce

    if Path(cluster_reduce.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported cluster_reduce from {cluster_reduce.__file__}")
    return cluster_reduce


def host_probe() -> float:
    """Median of 50 work-clock probes: the host's speed right now."""
    return statistics.median(speed.probe() for _ in range(50))


def setup_once(workload: str, clock):
    """Import the package and build the workload's inputs; returns (s, cr, inputs)."""
    import workloads

    begin = clock.read()
    cr = import_package()
    inputs = workloads.setup(cr, workload)
    return clock.read() - begin, cr, inputs


def setup_in_child(workload: str) -> float:
    out = subprocess.run([sys.executable, str(Path(__file__)), "--setup-only",
                          "--workload", workload], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def percentile_note(times: list[float]) -> dict:
    """The times, and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    note = {"count": n, "times_s": times, "percentile": None}
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        note.update(percentile=q, seconds=sorted(times)[(q * n) // 100])
    return note


class Runner:
    """Passes of one workload: a closed loop, one case at a time."""

    def __init__(self, workload: str, seed: int, seconds: float, cr, inputs, deadline: float,
                 clock, setups: list[float], setup_repeats: int):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.cr = cr
        self.inputs = inputs
        self.ctx = workloads.Context(seed, deadline, clock)
        self.setups = setups
        self.setup_repeats = setup_repeats

    def sample_setup(self) -> None:
        """One more set-up in a fresh child, while fewer than asked for are done.

        Called between passes (between ladder cases), so that the set-ups
        are spread over the run rather than bunched at its start.
        """
        if len(self.setups) < self.setup_repeats:
            self.setups.append(setup_in_child(self.workload))

    def one_pass(self, tracer=None) -> tuple[list, list]:
        """Case results of one pass, and the trace dumps of ladder children."""
        if self.workload == "ladder":
            return self.wl.ladder_pass(Path(__file__), self.seed, trace=tracer is not None,
                                       between=self.sample_setup)
        self.ctx.tracer = tracer
        body = self.wl.symbolic_pass if self.workload == "symbolic" else self.wl.numeric_pass
        return body(self.cr, self.inputs, self.ctx), []

    def passes(self, seconds: float, tracer=None) -> list[tuple[list, list]]:
        """Passes while the next one should end within ``seconds``; at least one."""
        begin = time.perf_counter()
        done, lengths = [], []
        while True:
            start = time.perf_counter()
            done.append(self.one_pass(tracer))
            lengths.append(time.perf_counter() - start)
            self.sample_setup()
            end = time.perf_counter() + statistics.median(lengths)
            if end - begin > seconds or end > self.ctx.deadline:
                return done


def pass_time(results) -> float:
    """A pass's time: the sum of its case times, timed-out cases at their charge."""
    return sum(r["seconds"] for r in results)


def summarize(passes) -> dict:
    """Attempted, failed and timed-out counts, and per-case medians over passes."""
    flat = [r for results, _ in passes for r in results]
    by_case: dict = {}
    for r in flat:
        entry = by_case.setdefault(r["case"], {"seconds": [], "status": []})
        entry["seconds"].append(r["seconds"])
        entry["status"].append(r["status"])
    failed = sum(r["status"] in ("error", "wrong") for r in flat)
    timed_out = sum(r["status"] == "timeout" for r in flat)
    return {
        "attempted": len(flat),
        "failed": failed,
        "timed_out": timed_out,
        "failed_share": (failed + timed_out) / len(flat),
        "problems": sorted({f"{r['case']}: {r['status']}: {r['detail']}"
                            for r in flat if r["status"] != "ok"}),
        "open_at_kill": {r["case"]: r["open"] for r in flat if "open" in r},
        "cases": {case: {"median_s": statistics.median(e["seconds"]),
                         "status": sorted(set(e["status"]))}
                  for case, e in by_case.items()},
        "passes": percentile_note([pass_time(results) for results, _ in passes]),
    }


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    passes = runner.passes(runner.seconds)
    while len(runner.setups) < runner.setup_repeats:
        runner.sample_setup()
    info = summarize(passes)
    who = resource.RUSAGE_CHILDREN if runner.workload == "ladder" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(runner.setups), "s"),
        "pass_s": (statistics.median(pass_time(r) for r, _ in passes), "s"),
        "slowest_case_s": (statistics.median(max(c["seconds"] for c in r) for r, _ in passes),
                           "s"),
        "completed_share": ((info["attempted"] - info["failed"] - info["timed_out"])
                            / info["attempted"], "share"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, info


def traced(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run, and the tracing overhead.

    The overhead compares traced with untraced passes of the same run: for
    the ladder, the cases that finished when traced are run again untraced.
    """
    import tracing

    if runner.workload == "ladder":
        traced_runs = [runner.one_pass(tracer=True)]
        finished = [r for r in traced_runs[0][0] if r["status"] != "timeout"]
        plain_runs = [runner.wl.ladder_pass(Path(__file__), runner.seed, trace=False,
                                            only=[r["case"] for r in finished])]
        with_trace = pass_time(finished)
        base = pass_time(plain_runs[0][0])
    else:
        plain_runs = runner.passes(runner.seconds / 2)
        tracer = tracing.Tracer(runner.workload)
        tracer.install(runner.cr)
        traced_runs = runner.passes(runner.seconds / 2, tracer)
        traced_runs[-1] = (traced_runs[-1][0], [tracer.dump()])
        base = statistics.median(pass_time(r) for r, _ in plain_runs)
        with_trace = statistics.median(pass_time(r) for r, _ in traced_runs)
    dumps = [d for _, ds in traced_runs for d in ds]
    totals, counters = tracing.merge(dumps)
    metrics = tracing.layer_metrics(totals, counters, len(traced_runs))
    metrics["trace.overhead_share"] = (with_trace / base - 1 if base else 0.0, "share")
    info = summarize(plain_runs + traced_runs)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{runner.workload}-seed{runner.seed}.json"
    path.write_text(json.dumps({
        "workload": runner.workload, "seed": runner.seed,
        "layers": {name: {"calls": c, "inclusive_s": incl, "self_s": own}
                   for name, (c, incl, own) in sorted(totals.items())},
        "counters": counters, "dumps": dumps,
    }))
    info["trace_file"] = str(path.relative_to(HERE.parent))
    return metrics, info


def main(argv=None) -> int:
    clock = speed.WorkClock().start()
    try:
        return measure(clock, argv)
    finally:
        clock.stop()


def measure(clock, argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--case", help=argparse.SUPPRESS)  # a ladder child
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.case:
        import workloads

        workloads.child_main(import_package(), clock, args.case, args.seed, bool(args.trace))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        print(setup_once(args.workload, clock)[0])
        return 0
    # Turn SIGTERM into SystemExit, so that a running ladder child is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.perf_counter() + RUN_LIMIT_S
    probe_start = host_probe()
    first, cr, inputs = setup_once(args.workload, clock)
    # A traced run takes no extra set-ups: its metrics are per layer only.
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    runner = Runner(args.workload, args.seed, args.seconds, cr, inputs, deadline, clock,
                    [first], repeats)
    metrics, info = traced(runner) if args.trace else end_to_end(runner)
    diagnostics = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "setups_s": runner.setups,
                   "host_probe_s": {"start": probe_start, "end": host_probe(),
                                    "run_median": statistics.median(clock.probes)},
                   **info, **runner.ctx.extras}
    print(json.dumps(diagnostics))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
