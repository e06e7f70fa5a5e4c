"""hamgame's benchmark: one workload in one process, end to end or traced.

    python3 bench/run.py --workload {orbit,recorded,cloud} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The benchmark imports hamgame from `src/`,
makes the workload's inputs from the seed, runs whole rounds of the
workload's operations for S seconds and checks the first round's outputs
(later rounds must reproduce them bit for bit).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: with `--trace 0` the end-to-end metrics, with `--trace 1` the
per-layer metrics of a run whose later rounds are traced.  See
bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_out"
SETUP_PROBES = 7  # set-up is timed in this many fresh processes; the median is reported
MIN_ROUNDS = 3  # traced runs time at least this many rounds untraced, then traced


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_hamgame():
    """hamgame from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hamgame" / "__init__.py").is_file():
        raise SystemExit(f"error: no hamgame package under {src}")
    sys.path.insert(0, str(src))
    hg = importlib.import_module("hamgame")
    importlib.import_module("hamgame.cli")
    if Path(hg.__file__).resolve().parent != (src / "hamgame").resolve():
        raise SystemExit(f"error: imported hamgame from {hg.__file__}, not from {src}")
    return hg


def set_up(args, workdir):
    """Everything a run does before its first round: the span of setup_s."""
    hg = import_hamgame()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return hg, WORKLOADS[args.workload](hg, args.seed, ROOT, workdir)


def time_setup(args):
    """Median wall time from process start to the end of set-up, over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SystemExit("error: set-up probe failed")
        times.append(ready - start)
    return statistics.median(times)


def run_rounds(workload, checks, seconds, first=None, min_rounds=1):
    """Whole rounds until `seconds` of wall time have passed; checks excluded."""
    rounds, deadline = [], perf_counter() + seconds
    while len(rounds) < min_rounds or perf_counter() < deadline:
        r = workload.round()
        rounds.append(r)
        if first is None:
            start = perf_counter()
            workload.check(r.outputs, checks)
            first = workload.digest(r.outputs)
            deadline += perf_counter() - start
        else:
            checks.true("deterministic_rounds", workload.digest(r.outputs) == first)
        r.outputs = None  # checked; holding every round's outputs would inflate peak_rss_mb
    return rounds, first


def end_to_end(args, workload, checks):
    setup_s = time_setup(args)
    rounds, _ = run_rounds(workload, checks, args.seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    rates = [r.steps / r.seconds for r in rounds]
    q1, q2, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    print(f"{len(rounds)} rounds; steps/s per round: quartiles {q1:.6g} {q2:.6g} {q3:.6g}", file=sys.stderr)
    metrics = {
        "steps_per_s": (sum(r.steps for r in rounds) / sum(r.seconds for r in rounds), "steps/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return rounds, metrics


# per-layer metrics read from the span totals, named <layer>.<field>
SPAN_METRICS = (
    "regularizers.block_choice.calls", "regularizers.block_choice.self_s",
    "regularizers.project_simplex.self_s", "regularizers.choice_map.calls",
    "regularizers.conjugate_value.calls", "regularizers.conjugate_value.self_s",
    "regularizers.h_value.calls", "regularizers.h_value.self_s",
    "regularizers.fenchel_coupling.self_s", "regularizers.bregman_distance.self_s",
    "dynamics.simulate.calls", "dynamics.simulate.self_s",
    "dynamics.payoff.calls", "dynamics.payoff.self_s",
    "dynamics.kernel.calls", "dynamics.kernel.self_s",
    "hamiltonian.energy.calls", "hamiltonian.energy.self_s",
    "analysis.build_report.self_s", "analysis.fenchel_bregman_series.s",
    "analysis.volume_ratio.self_s", "fileio.load_game_file.s",
    "fileio.csv_write.s", "fileio.csv_read.s", "cli.main.self_s", "games.self_s",
)
FIELDS = {"calls": (0, "count"), "self_s": (1, "s"), "s": (2, "s")}  # index into span totals


def per_layer(args, hg, workload, checks, workdir):
    """One traced set-up; a third of the time untraced rounds, then traced rounds.

    Each metric is its median over the traced rounds plus the traced
    set-up's share, so layers that set-up calls show what moves setup_s.
    """
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    (workdir / "traced-setup").mkdir()
    tracer.install(hg)
    try:
        WORKLOADS[args.workload](hg, args.seed, ROOT, workdir / "traced-setup")
        setup = tracer.collect()
    finally:
        tracer.uninstall()

    start = perf_counter()
    plain, first = run_rounds(workload, checks, args.seconds / 3, min_rounds=MIN_ROUNDS)
    traced, per_round = [], []
    tracer.install(hg)
    try:
        while len(traced) < MIN_ROUNDS or perf_counter() - start < args.seconds:
            traced += run_rounds(workload, checks, 0.0, first)[0]
            per_round.append(tracer.collect())
            tracer.keep_spans = False  # the first traced round's spans are written out
    finally:
        tracer.uninstall()
    tracer.dump(WORK / f"trace-{args.workload}.json", workload=args.workload, seed=args.seed)

    def value(read):
        return statistics.median(read(*r) for r in per_round) + read(*setup)

    def span_total(layer, index):
        return value(lambda totals, counts: totals.get(layer, (0, 0.0, 0.0))[index])

    def counter(name):
        return value(lambda totals, counts: counts.get(name, 0))

    metrics = {}
    for name in SPAN_METRICS:
        layer, _, field = name.rpartition(".")
        index, unit = FIELDS[field]
        metrics[name] = (span_total(layer, index), unit)
    metrics.update({
        "regularizers.block_choice.per_step": (
            metrics["regularizers.block_choice.calls"][0] / traced[0].steps, "ratio"),
        "hamiltonian.energy.per_snapshot": (
            metrics["hamiltonian.energy.calls"][0] / traced[0].snapshots, "ratio"),
        "dynamics.snapshots": (counter("dynamics.snapshots"), "count"),
        "fileio.csv_bytes": (counter("fileio.csv_bytes"), "bytes"),
        "trace.overhead": (  # the first round warms caches, so it is left out
            statistics.median(r.seconds for r in traced) / statistics.median(r.seconds for r in plain[1:]),
            "ratio"),
    })
    return plain + traced, metrics


def main(argv=None):
    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        hg, workload = set_up(args, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        from workloads import Checks

        checks = Checks()
        if args.trace:
            rounds, metrics = per_layer(args, hg, workload, checks, workdir)
        else:
            rounds, metrics = end_to_end(args, workload, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in checks.lines():
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
