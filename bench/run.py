"""nedmsim benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {cli_rerun,fit_study,simulate} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout, by absolute
path, in this process and in every child. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs each of the workload's units once
untraced and once traced (the difference is ``trace.overhead_frac``), then
the layer probes, writes the spans to ``.bench_work/trace/`` and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the workload's own figures, the machine and the output digest, and
is also written to ``.bench_work/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common

SETUP_TRIALS = 5


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "loadavg_at_start": list(os.getloadavg()),
        "workers": common.WORKERS,
    }


def setup_in_child(name: str, seed: int, workdir) -> float:
    """One set-up trial in a fresh interpreter, timed by the child from
    before the benchmark's workload modules (and so numpy) are imported."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--workdir", str(workdir)],
        env=common.child_env(), capture_output=True, text=True,
        timeout=common.CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up trial failed: {proc.stderr[-400:]}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def repeat_units(workload, seconds: float):
    """Yield the workload's units in turn until ``seconds`` have passed,
    and every unit at least once, so each run checks the same operations."""
    units = workload.units()
    deadline = time.perf_counter() + seconds
    for k, unit in enumerate(itertools.cycle(units)):
        yield k, unit
        if k + 1 >= len(units) and time.perf_counter() >= deadline:
            return


def drive(workload, seconds: float) -> None:
    """Run whole units, untraced, for ``seconds``."""
    for _, unit in repeat_units(workload, seconds):
        unit(None)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_run(wl, seconds: float, seed: int, run_id: str, rundir) -> tuple[dict, dict]:
    """Per-layer metrics, the tracing overhead and the span file."""
    import layers
    from spans import Tracer, instrument

    tracer = Tracer(run_id)

    def timed(unit, traced: bool) -> list[float]:
        done = len(wl.op_times)
        if traced:
            # children of an out-of-process workload are not instrumented;
            # only the benchmark's own span around each call is recorded
            with instrument(tracer) if wl.in_process else contextlib.nullcontext():
                unit(tracer)
        else:
            unit(None)
        return wl.op_times[done:]

    # each unit runs once untraced and once traced, in alternating order,
    # so both sides hold the same work and a slow drift in machine speed
    # cancels out of the overhead
    untraced, traced, ratios = [], [], []
    for k, unit in repeat_units(wl, seconds):
        if k % 2:
            t, u = timed(unit, True), timed(unit, False)
        else:
            u, t = timed(unit, False), timed(unit, True)
        untraced += u
        traced += t
        ratios.append(sum(t) / sum(u))
    values = layers.measure(seed, rundir / "layers", tracer)
    values["trace.overhead_frac"] = common.median(ratios) - 1.0
    trace_dir = common.WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{run_id}.jsonl")
    metrics = {k: (values[k], unit) for k, (unit, _) in layers.METRICS.items()}
    extra = {
        "untraced_op_p50_s": common.median(untraced),
        "traced_op_p50_s": common.median(traced),
        "trace_file": f".bench_work/trace/{run_id}.jsonl",
    }
    return metrics, extra


def run(args) -> int:
    import workloads

    machine = machine_info()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    rundir = common.WORK / "runs" / run_id
    rundir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, rundir)
        wl.setup()
        loaded = sys.modules.get("nedmsim")
        if loaded is not None and common.SRC not in Path(loaded.__file__).resolve().parents:
            raise RuntimeError(f"imported nedmsim from {loaded.__file__}, not from {common.SRC}")
        if args.trace == 1:
            metrics, extra = traced_run(wl, args.seconds, args.seed, run_id, rundir)
        else:
            # the runner's own set-up above wrote the bytecode caches the
            # trials then read, as a user's second start would
            setup_host = common.HostSpeed()
            setup = []
            for _ in range(SETUP_TRIALS):
                setup_host.sample(5)
                setup.append(setup_in_child(args.workload, args.seed, rundir / "probe"))
            drive(wl, args.seconds)
            metrics = {
                "setup_s": (common.trimmed_mean(setup) * setup_host.scale(), "s"),
                "op_s": (common.trimmed_mean(wl.op_times) * wl.host.scale(), "s"),
                "peak_rss_mb": (peak_rss_mb(wl), "MB"),
            }
            # the unscaled figures, and the factors that scale them
            extra = {
                "host_scale": wl.host.scale(),
                "setup_host_scale": setup_host.scale(),
                "measured_setup_s": common.trimmed_mean(setup),
                "measured_op_s": common.trimmed_mean(wl.op_times),
                "setup_samples_s": setup,
                "op_tail_s": common.tail(wl.op_times),
                "ops": len(wl.op_times),
                "probe_samples_s": wl.host.samples,
            }
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    tally = wl.tally
    correct = wl.outputs.mismatches == 0 and tally.mismatches == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "nondeterministic_outputs": wl.outputs.mismatches,
        "nondeterministic_verdicts": tally.mismatches,
        "output_digest": wl.outputs.digest(),
        **extra,
        **wl.detail(),
        "op_samples_s": wl.op_times,
    }
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(
        json.dumps({**report, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_rerun", "fit_study", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    package = common.SRC / "nedmsim" / "__init__.py"
    if not package.is_file():
        print(f"error: no nedmsim package at {package}; run from a full checkout",
              file=sys.stderr)
        return 2
    # before numpy loads, so its thread pools see the pins
    os.environ.update(common.PINNED_ENV)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(common.SRC))
    return setup_probe(args) if args.setup_probe else run(args)


if __name__ == "__main__":
    sys.exit(main())
