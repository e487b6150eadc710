"""The three workloads, each with its set-up, its unit of work and its checks.

* ``cli_rerun``: each subcommand in a fresh interpreter, then ``rerun`` on
  its manifest, one call at a time (a closed loop with one client). Import
  dominates, so this is where cold start and CLI plumbing show.
* ``fit_study``: in-process fits of criterion-5 interior datasets at 3 sigma
  beside one-sided bounds on criterion-6 zero-flip designs. The optimizer
  does nearly all the work; two-sided intervals on peaked likelihoods run
  next to bound scans on flat, boundary ones.
* ``simulate``: in-process batches of the simulation kernels: quantum
  ensembles at d_n = 0 (p exactly 0) and d_n != 0, the stochastic ensemble,
  a drifting campaign with estimator and CSV write, and closed-form-vs-oracle
  scans over xi*delta in [1e-2, 100]. The optimizer is idle here.

A unit is the smallest piece the measuring loop completes before it looks
at the clock: a command with its rerun, a whole study pass, or one batch.
Every operation's output is checked; a failed check is counted, not
raised. Units repeat identical inputs, so every repeated output must
reproduce the bytes and the check verdicts of its first occurrence, and
each distinct operation counts once in ``attempted``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import common
import inputs

COMMANDS = ("transition", "contrast", "scan", "campaign", "fit", "bound")

# files each command writes besides stdout, relative to the working directory
CLI_FILES = {
    "transition": (),
    "contrast": (),
    "scan": ("scan.csv",),
    "campaign": ("cycles.csv", "cycles.summary.json"),
    "fit": (),
    "bound": (),
}


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def prepare_cli(seed: int, workdir: Path) -> tuple[dict, dict]:
    """Write the CLI input files; return (inputs, argv per command).

    Paths are relative to ``workdir`` so manifests and outputs do not
    depend on where the checkout lives.
    """
    inp = inputs.cli_inputs(seed)
    camp = inp["campaign"]
    (workdir / "campaign.ini").write_text(
        "[campaign]\n"
        f"true_dn_e_cm = {camp['true_dn']!r}\n"
        f"cycles = {camp['cycles']}\n"
        f"seed = {camp['seed']}\n"
    )
    (workdir / "fit.csv").write_text(inputs.flips_csv(inp["fit"]))
    (workdir / "bound.csv").write_text(inputs.flips_csv(inp["bound"]))
    t, c, s = inp["transition"], inp["contrast"], inp["scan"]
    argv = {
        "transition": ["transition", "--dn", repr(t["dn"]), "--delta", repr(t["delta"]),
                       "--xi", repr(t["xi"]), "--check-oracle"],
        "contrast": ["contrast", "--dn", repr(c["dn"]), "--delta", repr(c["delta"]),
                     "--xi", repr(c["xi"]), "--trials", str(c["trials"]), "--seed", str(c["seed"])],
        "scan": ["scan", "--dn", repr(s["dn"]), "--delta", repr(s["delta"]),
                 "--xi-min", repr(s["xi_min"]), "--xi-max", repr(s["xi_max"]),
                 "--points", str(s["points"]), "--log", "--out", "scan.csv"],
        "campaign": ["campaign", "--config", "campaign.ini", "--out", "cycles.csv"],
        "fit": ["fit", "--data", "fit.csv"],
        "bound": ["bound", "--data", "bound.csv", "--cl", "0.95"],
    }
    for name in argv:
        argv[name] += ["--manifest-out", f"m-{name}.json"]
    return inp, argv


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_cli_output(name: str, inp: dict, stdout: bytes, files: dict) -> dict[str, bool]:
    """Checks on one first-run output, parsed with the standard library only."""
    try:
        if name == "transition":
            t = inp["transition"]
            rec = json.loads(stdout)
            p = inputs.flip_probability(t["dn"], t["delta"], t["xi"]).item()
            return {
                "closed_form": _close(rec["p"], p, 1e-12),
                "oracle_1e-10": rec["abs_diff"] <= 1e-10,
            }
        if name == "contrast":
            c = inp["contrast"]
            rows = {r.split(",")[0]: r.split(",") for r in stdout.decode().splitlines()[1:]}
            n = c["trials"]
            expected = inputs.stochastic_fraction(c["dn"], c["delta"], c["xi"])
            sd = math.sqrt(n * expected * (1.0 - expected))
            return {
                "quantum_null_exactly_0": int(rows["quantum"][2]) == 0,
                "stochastic_within_5sd": abs(int(rows["stochastic"][2]) - n * expected) <= 5 * sd,
            }
        if name == "scan":
            s = inp["scan"]
            lines = files["scan.csv"].decode().splitlines()
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            return {
                "points": len(rows) == s["points"],
                "closed_form": all(
                    _close(r[1], inputs.flip_probability(s["dn"], s["delta"], r[0]).item(), 1e-12)
                    for r in rows
                ),
                "oracle_1e-10": all(r[3] <= 1e-10 for r in rows),
            }
        if name == "campaign":
            camp = inp["campaign"]
            summary = json.loads(files["cycles.summary.json"])
            return {
                "within_5se": abs(summary["dn_hat"] - camp["true_dn"])
                <= 5.0 * summary["standard_error"],
                "pairs": summary["n_pairs"] == camp["cycles"] // 2,
                "rows": len(files["cycles.csv"].splitlines()) == camp["cycles"] + 1,
            }
        if name == "fit":
            rep = json.loads(stdout)
            lo, hi = rep["dn_interval"]
            return {"converged": rep["converged"] is True, "interval": lo <= rep["dn_hat"] <= hi}
        if name == "bound":
            rep = json.loads(stdout)
            return {"bound_in_range": 0.0 < rep["upper_bound"] < rep["dn_max"]}
    except (ValueError, KeyError, IndexError) as exc:
        return {f"parse ({type(exc).__name__})": False}
    raise ValueError(f"unknown command {name}")


class CliRerun:
    name = "cli_rerun"
    in_process = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tally = common.Tally()
        self.outputs = common.Outputs()
        self.op_times: list[float] = []
        self.by_command: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.host = common.HostSpeed()
        self.env = common.child_env()

    def _call(self, args) -> tuple[subprocess.CompletedProcess, float]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nedmsim.cli", *args],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            timeout=common.CHILD_TIMEOUT_S,
        )
        return proc, time.perf_counter() - t0

    def setup(self) -> None:
        self.inp, self.argv = prepare_cli(self.seed, self.workdir)
        proc, _ = self._call(["--version"])
        if proc.returncode != 0:
            raise RuntimeError(f"nedmsim.cli does not start: {proc.stderr.decode()[-400:]}")

    def units(self):
        return [lambda tracer, c=c: self.command_pair(c, tracer) for c in COMMANDS]

    def _timed_call(self, label, args, tracer):
        # a call takes over a second, so three probes keep the sample count up
        self.host.sample(3)
        with _span(tracer, f"bench.cli.{label}"):
            proc, dt = self._call(args)
        self.op_times.append(dt)
        self.by_command[label.split(".")[0]].append(dt)
        return proc

    def _read(self, rel: str) -> bytes | None:
        path = self.workdir / rel
        return path.read_bytes() if path.exists() else None

    def command_pair(self, name: str, tracer=None) -> None:
        tracked = (*CLI_FILES[name], f"m-{name}.json")
        # a command that fails must not be credited with an earlier run's files
        for rel in tracked:
            (self.workdir / rel).unlink(missing_ok=True)
        first = self._timed_call(name, self.argv[name], tracer)
        files = {rel: self._read(rel) for rel in tracked}
        checks = {"exit_0": first.returncode == 0}
        if first.returncode == 0:
            checks.update(check_cli_output(name, self.inp, first.stdout, files))
        self.tally.op(name, checks)
        self.outputs.record(f"{name}:exit", str(first.returncode).encode())
        self.outputs.record(f"{name}:stdout", first.stdout)
        for rel, blob in files.items():
            if blob is not None:
                self.outputs.record(f"{name}:{rel}", blob)

        # the rerun must recreate every output, so remove them first
        for rel in CLI_FILES[name]:
            (self.workdir / rel).unlink(missing_ok=True)
        again = self._timed_call(f"{name}.rerun", ["rerun", f"m-{name}.json"], tracer)
        same = {"exit_code": again.returncode == first.returncode,
                "stdout_identical": again.stdout == first.stdout}
        for rel in tracked:
            same[f"{rel}_identical"] = self._read(rel) == files[rel]
        self.tally.op(f"{name}.rerun", same)

    def detail(self) -> dict:
        return {
            "cli_cold_p50_s": common.median(self.op_times),
            "cli_cold_tail_s": common.tail(self.op_times),
            "calls": len(self.op_times),
            "per_command_p50_s": {
                c: common.median(v) for c, v in self.by_command.items() if v
            },
        }


class FitStudy:
    name = "fit_study"
    in_process = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tally = common.Tally()
        self.outputs = common.Outputs()
        self.op_times: list[float] = []  # one per study pass
        self.fit_times: list[float] = []
        self.bound_times: list[float] = []
        self.host = common.HostSpeed()

    def setup(self) -> None:
        from nedmsim.inference import FlipDataset, SearchBox, fit

        inp = inputs.fit_study_inputs(self.seed)
        self.inp = inp

        def dataset(d):
            return FlipDataset(xi=d["xi"], trials=d["trials"], flips=d["flips"])

        self.interior = [dataset(d) for d in inp["interior"]]
        self.zero = [dataset(d) for d in inp["zero"]]
        self.box = SearchBox(**inp["box"])
        fit(self.interior[0], self.box, interval_cl=inputs.THREE_SIGMA_CL)

    def units(self):
        return [self.study_pass]

    def study_pass(self, tracer=None) -> None:
        from nedmsim.inference import NonConvergenceError, fit, upper_bound

        box = self.box
        pass_s = 0.0
        for i, ds in enumerate(self.interior):
            self.host.sample()
            with _span(tracer, "bench.fit_study.fit"):
                t0 = time.perf_counter()
                r = fit(ds, box, interval_cl=inputs.THREE_SIGMA_CL)
                dt = time.perf_counter() - t0
            self.fit_times.append(dt)
            pass_s += dt
            self.tally.op("fit", {
                "converged": r.converged,
                "in_box": box.dn_min <= r.dn_hat <= box.dn_max
                and box.delta_min <= r.delta_hat <= box.delta_max,
                "dn_interval": r.dn_interval[0] <= r.dn_hat <= r.dn_interval[1],
                "delta_interval": r.delta_interval[0] <= r.delta_hat <= r.delta_interval[1],
            }, item=str(i))
            self.outputs.record(f"fit{i}", repr((
                r.dn_hat, r.delta_hat, r.max_log_likelihood, r.dn_interval, r.delta_interval,
            )).encode())

        dn_max = 0.5 * math.pi / self.inp["xi_max"]
        bounds = []
        for j, (ds, design) in enumerate(zip(self.zero, self.inp["zero"])):
            self.host.sample()
            with _span(tracer, "bench.fit_study.bound"):
                t0 = time.perf_counter()
                try:
                    b = upper_bound(ds, cl=0.95, delta_bounds=(0.0, design["delta_hi"]))
                except NonConvergenceError:
                    b = math.nan
                dt = time.perf_counter() - t0
            self.bound_times.append(dt)
            pass_s += dt
            bounds.append(b)
            self.outputs.record(f"bound{j}", repr(b).encode())

        # designs come as 4 delta ceilings at 8e6 total trials, then the same
        # 4 at 8e8: criterion 6 wants every bound to shrink with 100x trials
        # and to move by less than 10% across the delta ceilings
        half = len(bounds) // 2
        for j, b in enumerate(bounds):
            group = bounds[:half] if j < half else bounds[half:]
            finite = [g for g in group if math.isfinite(g)]
            checks = {
                "converged": math.isfinite(b),
                "in_range": 0.0 < b < dn_max,
                "delta_insensitive": bool(finite) and b <= 1.10 * min(finite),
            }
            if j >= half:
                checks["shrinks_with_trials"] = b < bounds[j - half]
            self.tally.op("bound", checks, item=str(j))
        self.op_times.append(pass_s)

    def detail(self) -> dict:
        return {
            "fit_p50_s": common.median(self.fit_times),
            "bound_p50_s": common.median(self.bound_times),
            "study_s": common.median(self.op_times),
            "study_passes": len(self.op_times),
            "call_tail_s": common.tail(self.fit_times + self.bound_times),
        }


class Simulate:
    name = "simulate"
    in_process = True

    QUANTUM_TRIALS = 1 << 24
    STOCHASTIC_TRIALS = 1 << 22
    CAMPAIGN_CYCLES = 4000
    SCANS = 25

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tally = common.Tally()
        self.outputs = common.Outputs()
        self.op_times: list[float] = []
        self.parts: dict[str, list[float]] = {
            "quantum_null": [], "quantum_signal": [], "stochastic": [], "campaign": [], "scan": [],
        }
        self.host = common.HostSpeed()

    def setup(self) -> None:
        from nedmsim.comagnetometer import CampaignConfig, run_campaign
        from nedmsim.ensemble import simulate_quantum, simulate_stochastic
        from nedmsim.weak_measurement import (
            DipoleState,
            QuadratureSpec,
            flip_probability_quadrature,
            required_node_count,
        )

        inp = inputs.simulate_inputs(self.seed, self.SCANS)
        self.inp = inp
        self.null = DipoleState(0.0, inp["delta"])
        self.signal = DipoleState(inp["dn_signal"], inp["delta"])
        self.campaign = CampaignConfig(cycles=self.CAMPAIGN_CYCLES, **inp["campaign"])
        self.scans = []
        for s in inp["scans"]:
            state = DipoleState(s["dn"], s["delta"])
            # the CLI's node rule: the default 200 nodes, raised for the
            # largest xi*delta of the scan
            worst = float(max(abs(s["xi"][0]), abs(s["xi"][-1])))
            spec = QuadratureSpec(node_count=max(200, required_node_count(worst, s["delta"])))
            self.scans.append((state, [float(x) for x in s["xi"]], spec))
        # warm-up: thread pool, Philox, Hermite nodes of each node count used
        xi = inp["xi"]
        simulate_quantum(self.signal, xi, 2 * inputs.BLOCK_TRIALS, 0, workers=common.WORKERS)
        simulate_stochastic(self.null, xi, 2 * inputs.BLOCK_TRIALS, 0, workers=common.WORKERS)
        run_campaign(CampaignConfig(cycles=4, **inp["campaign"]))
        for state, xis, spec in self.scans:
            flip_probability_quadrature(state, xis[0], spec)

    def units(self):
        return [self.batch]

    def _timed(self, part, fn):
        self.host.sample()
        t0 = time.perf_counter()
        out = fn()
        self.parts[part].append(time.perf_counter() - t0)
        return out

    def batch(self, tracer=None) -> None:
        from nedmsim.comagnetometer import run_campaign
        from nedmsim.ensemble import simulate_quantum, simulate_stochastic
        from nedmsim.formats import CYCLES_HEADER, atomic_write_text, cycles_to_rows, render_csv
        from nedmsim.inference import campaign_estimator
        from nedmsim.weak_measurement import flip_probability, flip_probability_quadrature

        inp = self.inp
        xi, seed, w = inp["xi"], inp["ensemble_seed"], common.WORKERS
        with _span(tracer, "bench.simulate.batch"):
            q0 = self._timed("quantum_null", lambda: simulate_quantum(
                self.null, xi, self.QUANTUM_TRIALS, seed, workers=w))
            self.tally.op("quantum_null", {"flips_exactly_0": q0.flips == 0})

            q1 = self._timed("quantum_signal", lambda: simulate_quantum(
                self.signal, xi, self.QUANTUM_TRIALS, seed, workers=w))
            p = inputs.flip_probability(self.signal.d_n, self.signal.delta, xi).item()
            n = self.QUANTUM_TRIALS
            self.tally.op("quantum_signal", {
                "within_5sd": abs(q1.flips - n * p) <= 5.0 * math.sqrt(n * p * (1 - p)),
            })

            st = self._timed("stochastic", lambda: simulate_stochastic(
                self.null, xi, self.STOCHASTIC_TRIALS, seed, workers=w))
            f = inputs.stochastic_fraction(0.0, self.null.delta, xi)
            n = self.STOCHASTIC_TRIALS
            self.tally.op("stochastic", {
                "within_5sd": abs(st.flips - n * f) <= 5.0 * math.sqrt(n * f * (1 - f)),
            })

            path = self.workdir / "cycles.csv"

            def campaign():
                records = run_campaign(self.campaign)
                try:
                    est = campaign_estimator(records, self.campaign)
                except ValueError as exc:  # no usable polarity pair
                    est = exc
                text = render_csv(CYCLES_HEADER, cycles_to_rows(records))
                atomic_write_text(str(path), text)
                return est, text

            est, text = self._timed("campaign", campaign)
            if isinstance(est, ValueError):
                checks = {"estimate": False}
                estimate = repr(est)
            else:
                true_dn = self.campaign.true_dn
                checks = {
                    "within_5se": abs(est.dn_hat - true_dn) <= 5.0 * est.standard_error,
                    "pairs": est.n_pairs == self.CAMPAIGN_CYCLES // 2,
                }
                estimate = repr((est.dn_hat, est.standard_error, est.n_pairs))
            checks["csv_written"] = path.read_bytes() == text.encode()
            self.tally.op("campaign", checks)

            def scan():
                return [
                    (flip_probability(state, x), flip_probability_quadrature(state, x, spec))
                    for state, xis, spec in self.scans
                    for x in xis
                ]

            scan_out = self._timed("scan", scan)
            for k, (pc, pq) in enumerate(scan_out):
                self.tally.op("oracle_point", {"abs_diff_1e-10": abs(pc - pq) <= 1e-10},
                              item=str(k))
            # the batch's own time: the probes between its parts are left out
            self.op_times.append(sum(times[-1] for times in self.parts.values()))

        self.outputs.record("flips", repr((q0.flips, q1.flips, st.flips)).encode())
        self.outputs.record("cycles.csv", text.encode())
        self.outputs.record("estimate", estimate.encode())
        self.outputs.record("scan", repr(scan_out).encode())

    def detail(self) -> dict:
        med = {k: common.median(v) for k, v in self.parts.items()}
        q = self.QUANTUM_TRIALS / 1e6
        points = sum(len(xis) for _, xis, _ in self.scans)
        return {
            "quantum_mtrials_per_s": 2 * q / (med["quantum_null"] + med["quantum_signal"]),
            "quantum_null_mtrials_per_s": q / med["quantum_null"],
            "quantum_signal_mtrials_per_s": q / med["quantum_signal"],
            "stochastic_mtrials_per_s": self.STOCHASTIC_TRIALS / 1e6 / med["stochastic"],
            "campaign_cycles_per_s": self.CAMPAIGN_CYCLES / med["campaign"],
            "oracle_points_per_s": points / med["scan"],
            "batches": len(self.op_times),
        }


WORKLOADS = {w.name: w for w in (CliRerun, FitStudy, Simulate)}
