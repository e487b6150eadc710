"""Per-layer metrics, measured from the benchmark's side of each module.

Every traced run measures the same list of layer probes on inputs from its
seed, so each per-layer metric exists on every workload. Times come from
direct timing of the public functions; call counts and self times come
from the spans of ``spans.instrument``. Names are ``<module>.<metric>``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
import inputs
import workloads
from spans import Tracer, instrument

# name -> (unit, better)
METRICS = {
    "import.interpreter_s": ("s", "lower"),
    "import.nedmsim_s": ("s", "lower"),
    "import.cli_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    "import.numpy_s": ("s", "lower"),
    **{f"cli.main_s.{c}": ("s", "lower") for c in workloads.COMMANDS},
    "config.load_config_s": ("s", "lower"),
    "inference.log_likelihood_us": ("us", "lower"),
    "inference.ll_calls.fit": ("count", "lower"),
    "inference.ll_calls.bound": ("count", "lower"),
    "inference.fit_s": ("s", "lower"),
    "inference.upper_bound_s": ("s", "lower"),
    "inference.optimizer_self_share": ("ratio", "lower"),
    "inference.nonconverged": ("count", "lower"),
    "inference.campaign_estimator_s": ("s", "lower"),
    "ensemble.quantum_s.w1": ("s", "lower"),
    "ensemble.quantum_s.w2": ("s", "lower"),
    "ensemble.stochastic_s.w1": ("s", "lower"),
    "ensemble.stochastic_s.w2": ("s", "lower"),
    "ensemble.scaling_eff": ("ratio", "higher"),
    "ensemble.blocks": ("count", "lower"),
    "streams.substream_us": ("us", "lower"),
    "comagnetometer.run_campaign_s": ("s", "lower"),
    "comagnetometer.cycle_self_us": ("us", "lower"),
    "formats.render_csv_s": ("s", "lower"),
    "formats.atomic_write_s": ("s", "lower"),
    "formats.bytes_written": ("bytes", "lower"),
    "formats.parse_csv_s": ("s", "lower"),
    "weak_measurement.flip_probability_us": ("us", "lower"),
    "weak_measurement.quadrature_us": ("us", "lower"),
    "weak_measurement.quadrature_cold_s": ("s", "lower"),
    "weak_measurement.oracle_max_abs_diff": ("abs", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

ENSEMBLE_TRIALS = 1 << 22
REPEATS = 3


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_us(fn, calls: int = 2000) -> float:
    """Median over three batches of the mean time per call, in microseconds."""
    def batch():
        for _ in range(calls):
            fn()
    return _median_time(batch) / calls * 1e6


def _median_s(spans) -> float:
    return statistics.median(s.duration_ns for s in spans) / 1e9


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of nedmsim, nedmsim.cli, and of scipy and numpy
    where they are first pulled in (a numpy module loaded by scipy counts
    as scipy)."""
    # -X importtime prints each module after its children, two spaces of
    # indent per level; rebuild the tree, then walk it from the roots
    pending: list[tuple[int, str, int, list]] = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        level = len(m.group(3)) // 2
        children = []
        while pending and pending[-1][0] == level + 1:
            children.append(pending.pop())
        pending.append((level, m.group(4), int(m.group(2)), children))

    totals = {"nedmsim": 0, "nedmsim.cli": 0, "scipy": 0, "numpy": 0}

    def walk(node, owner):
        _, name, cumulative, children = node
        top = name.split(".")[0]
        if name in ("nedmsim", "nedmsim.cli"):
            totals[name] += cumulative
        if owner is None and top in ("scipy", "numpy"):
            totals[top] += cumulative
            owner = top
        for child in children:
            walk(child, owner)

    for root in pending:
        walk(root, None)
    return {k: v / 1e6 for k, v in totals.items()}


def _import_layers() -> dict[str, float]:
    env = common.child_env()

    def interpreter():
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=common.CHILD_TIMEOUT_S)

    samples = []
    for _ in range(REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import nedmsim.cli"],
            env=env, capture_output=True, text=True, check=True,
            timeout=common.CHILD_TIMEOUT_S,
        )
        samples.append(parse_importtime(proc.stderr))
    return {
        "import.interpreter_s": _median_time(interpreter),
        "import.nedmsim_s": statistics.median(s["nedmsim"] for s in samples),
        "import.cli_s": statistics.median(s["nedmsim.cli"] for s in samples),
        "import.scipy_s": statistics.median(s["scipy"] for s in samples),
        "import.numpy_s": statistics.median(s["numpy"] for s in samples),
    }


def _cli_layers(seed: int, workdir: Path, tracer: Tracer) -> dict[str, float]:
    """``nedmsim.cli.main(argv)`` in this process, after import, under the
    tracer. Its spans give the command times and those of the config
    reader and the ``formats`` writers it calls. Exit codes are checked by
    the ``cli_rerun`` workload, not here."""
    _, argv = workloads.prepare_cli(seed, workdir)
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with instrument(tracer):
            # through the module so the wrapped main is the one called
            import nedmsim.cli as cli

            for name in workloads.COMMANDS:
                before = len(tracer.named("cli.main"))
                for _ in range(REPEATS):
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(list(argv[name]))
                spans = tracer.named("cli.main")[before:]
                out[f"cli.main_s.{name}"] = _median_s(spans)
    finally:
        os.chdir(cwd)
    out["config.load_config_s"] = _median_s(tracer.named("config.load_config"))
    return out


def _inference_layers(seed: int, tracer: Tracer) -> dict[str, float]:
    from nedmsim.inference import FlipDataset, SearchBox, log_likelihood

    study = inputs.fit_study_inputs(seed)

    def dataset(d):
        return FlipDataset(xi=d["xi"], trials=d["trials"], flips=d["flips"])

    interior = [dataset(d) for d in study["interior"][:2]]
    zero = [(dataset(d), d["delta_hi"]) for d in (study["zero"][0], study["zero"][-1])]
    box = SearchBox(**study["box"])
    truth = study["interior"][0]
    out = {
        "inference.log_likelihood_us": _per_call_us(
            lambda: log_likelihood(truth["dn_true"], truth["delta_true"], interior[0])
        ),
    }
    nonconverged = 0
    with instrument(tracer):
        # through the module so the wrapped functions are the ones called
        import nedmsim.inference as inf

        for ds in interior:
            nonconverged += not inf.fit(ds, box, interval_cl=inputs.THREE_SIGMA_CL).converged
        for ds, delta_hi in zero:
            inf.upper_bound(ds, cl=0.95, delta_bounds=(0.0, delta_hi))
    fits = tracer.named("inference.fit")[-len(interior):]
    bounds = tracer.named("inference.upper_bound")[-len(zero):]

    def ll_calls(spans):
        return statistics.mean(s.agg.get("inference.log_likelihood", (0, 0))[0] for s in spans)

    both = fits + bounds
    out.update({
        "inference.ll_calls.fit": ll_calls(fits),
        "inference.ll_calls.bound": ll_calls(bounds),
        "inference.fit_s": _median_s(fits),
        "inference.upper_bound_s": _median_s(bounds),
        "inference.optimizer_self_share": sum(s.self_ns for s in both)
        / sum(s.duration_ns for s in both),
        "inference.nonconverged": nonconverged,
    })
    return out


_COLD_QUADRATURE = """
import sys, time
from nedmsim.weak_measurement import DipoleState, QuadratureSpec, flip_probability_quadrature
dn, delta, xi, nodes = sys.argv[1:5]
state, spec = DipoleState(float(dn), float(delta)), QuadratureSpec(node_count=int(nodes))
t0 = time.perf_counter()
flip_probability_quadrature(state, float(xi), spec)
print(time.perf_counter() - t0)
"""


def _simulation_layers(seed: int, workdir: Path, tracer: Tracer) -> dict[str, float]:
    from nedmsim.comagnetometer import CampaignConfig
    from nedmsim.ensemble import simulate_quantum, simulate_stochastic
    from nedmsim.formats import CYCLES_HEADER, cycles_to_rows
    from nedmsim.streams import DOMAIN_CYCLE, substream
    from nedmsim.weak_measurement import (
        DipoleState,
        QuadratureSpec,
        flip_probability,
        flip_probability_quadrature,
        required_node_count,
    )

    sim = inputs.simulate_inputs(seed, 1)
    xi = sim["xi"]
    signal = DipoleState(sim["dn_signal"], sim["delta"])
    null = DipoleState(0.0, sim["delta"])
    out = {}
    for w, label in ((1, "w1"), (common.WORKERS, "w2")):
        out[f"ensemble.quantum_s.{label}"] = _median_time(
            lambda: simulate_quantum(signal, xi, ENSEMBLE_TRIALS, 1, workers=w))
        out[f"ensemble.stochastic_s.{label}"] = _median_time(
            lambda: simulate_stochastic(null, xi, ENSEMBLE_TRIALS, 1, workers=w))
    out["ensemble.scaling_eff"] = (
        out["ensemble.quantum_s.w1"] / out["ensemble.quantum_s.w2"]
        + out["ensemble.stochastic_s.w1"] / out["ensemble.stochastic_s.w2"]
    ) / 4.0
    out["streams.substream_us"] = _per_call_us(lambda: substream(seed, DOMAIN_CYCLE, 7))
    out["weak_measurement.flip_probability_us"] = _per_call_us(
        lambda: flip_probability(signal, xi))

    scan = sim["scans"][0]
    state = DipoleState(scan["dn"], scan["delta"])
    xis = [float(x) for x in scan["xi"]]
    nodes = max(200, required_node_count(xis[-1], scan["delta"]))
    spec = QuadratureSpec(node_count=nodes)
    # the first quadrature in a fresh interpreter, as a CLI scan pays it:
    # computing the nodes and weights, and any lazy set-up behind them
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_QUADRATURE, repr(scan["dn"]), repr(scan["delta"]),
         repr(xis[-1]), str(nodes)],
        env=common.child_env(), capture_output=True, text=True, check=True,
        timeout=common.CHILD_TIMEOUT_S,
    )
    out["weak_measurement.quadrature_cold_s"] = float(proc.stdout.split()[-1])

    def quadrature_scan():
        for x in xis:
            flip_probability_quadrature(state, x, spec)
    out["weak_measurement.quadrature_us"] = _median_time(quadrature_scan) / len(xis) * 1e6
    out["weak_measurement.oracle_max_abs_diff"] = max(
        abs(flip_probability(state, x) - flip_probability_quadrature(state, x, spec)) for x in xis
    )

    config = CampaignConfig(cycles=workloads.Simulate.CAMPAIGN_CYCLES, **sim["campaign"])
    path = workdir / "cycles.csv"
    with instrument(tracer):
        import nedmsim.comagnetometer as comag
        import nedmsim.ensemble as ens
        import nedmsim.formats as fmt
        import nedmsim.inference as inf

        calls_before = tracer.calls.get("streams.substream", 0)
        ens.simulate_quantum(signal, xi, ENSEMBLE_TRIALS, 1, workers=common.WORKERS)
        blocks = tracer.calls.get("streams.substream", 0) - calls_before
        records = comag.run_campaign(config)
        inf.campaign_estimator(records, config)
        text = fmt.render_csv(CYCLES_HEADER, cycles_to_rows(records))
        fmt.atomic_write_text(str(path), text)
        fmt.parse_csv(text, CYCLES_HEADER)

    def last(name):
        return tracer.named(name)[-1]

    campaign = last("comagnetometer.run_campaign")
    out.update({
        "ensemble.blocks": blocks,
        "comagnetometer.run_campaign_s": campaign.duration_ns / 1e9,
        "comagnetometer.cycle_self_us": campaign.self_ns / 1e3 / config.cycles,
        "inference.campaign_estimator_s": last("inference.campaign_estimator").duration_ns / 1e9,
        "formats.render_csv_s": last("formats.render_csv").duration_ns / 1e9,
        "formats.atomic_write_s": last("formats.atomic_write_text").duration_ns / 1e9,
        "formats.bytes_written": path.stat().st_size,
        "formats.parse_csv_s": last("formats.parse_csv").duration_ns / 1e9,
    })
    return out


def measure(seed: int, workdir: Path, tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = _import_layers()
    out.update(_cli_layers(seed, workdir, tracer))
    out.update(_inference_layers(seed, tracer))
    out.update(_simulation_layers(seed, workdir, tracer))
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite layer metrics: {bad}")
    return out
