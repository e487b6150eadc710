"""Command-line surface tying the simulation and inference together.

Subcommands: ``transition`` (closed-form flip probability), ``contrast``
(quantum vs stochastic counting run), ``scan`` (P-vs-xi table with the
quadrature oracle), ``campaign`` (polarity-alternating campaign from a
config file), ``fit`` / ``bound`` (likelihood estimation on flip tables),
and ``rerun`` (re-execute a recorded run).

Every command resolves its arguments, defaults included, into a manifest
(command name, full configuration, seed, output paths, artifact version).
Nothing time- or host-dependent enters any output, so rerunning from the
manifest reproduces every byte. The ``NEDMSIM_THREADS`` environment
variable sets the worker count for ensemble commands; results are
identical at any thread count.

Exit codes: 0 success, 2 usage/config error (a malformed manifest
included), 3 I/O error, 4 non-convergence. Any other exception is a bug
and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .comagnetometer import CampaignConfig, run_campaign
from .config import ConfigError, InferenceSettings, load_config
from .ensemble import expected_stochastic_fraction, simulate_quantum, simulate_stochastic
from .formats import (
    CONTRAST_HEADER,
    CYCLES_HEADER,
    FLIPS_HEADER,
    SCAN_HEADER,
    SCHEMA_CONTRAST_CSV,
    SCHEMA_CYCLES_CSV,
    SCHEMA_MANIFEST_JSON,
    SCHEMA_SCAN_CSV,
    SCHEMA_SUMMARY_JSON,
    atomic_write_text,
    cycles_to_rows,
    parse_csv,
    render_csv,
    render_json,
    rows_to_flip_dataset,
)
from .inference import (
    BOUND_DELTA_WIDTHS,
    FIT_DELTA_WIDTHS,
    FlipDataset,
    NonConvergenceError,
    SearchBox,
    campaign_estimator,
    fit,
    search_ceilings,
    upper_bound,
)
from .quantities import PhysicalConstants, PulseProfile, UnitSystem, xi_from_pulse
from .weak_measurement import (
    DipoleState,
    QuadratureSpec,
    flip_probability,
    flip_probability_quadrature,
    required_node_count,
)

THREADS_ENV = "NEDMSIM_THREADS"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NONCONVERGENCE = 4


def _workers() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        value = int(raw, 10)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {value}")
    return value


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def _read_flip_dataset(path: str) -> FlipDataset:
    with open(path, "r", encoding="utf-8") as handle:
        rows = parse_csv(handle.read(), FLIPS_HEADER)
    if not rows:
        raise ValueError(f"flip dataset {path} contains no data rows")
    return rows_to_flip_dataset(rows)


def _dataset_to_cfg(dataset: FlipDataset) -> dict:
    return {
        "xi": [float(x) for x in dataset.xi],
        "trials": [int(n) for n in dataset.trials],
        "flips": [int(k) for k in dataset.flips],
    }


# ---------------------------------------------------------------------------
# transition


def _resolve_transition(args) -> dict:
    if args.xi is not None:
        xi = args.xi
        pulse_integral = None
    else:
        pulse_integral = args.pulse_integral
        xi = xi_from_pulse(PulseProfile(pulse_integral), UnitSystem())
    return {
        "dn": args.dn,
        "delta": args.delta,
        "xi": xi,
        "pulse_integral": pulse_integral,
        "check_oracle": bool(args.check_oracle),
        "nodes": args.nodes,
        "outputs": {"report": args.out, "manifest": args.manifest_out},
    }


def _execute_transition(cfg: dict) -> int:
    state = DipoleState(d_n=cfg["dn"], delta=cfg["delta"])
    xi = cfg["xi"]
    record = {
        "schema": SCHEMA_SUMMARY_JSON,
        "command": "transition",
        "dn": state.d_n,
        "delta": state.delta,
        "xi": xi,
        "p": flip_probability(state, xi),
    }
    if cfg.get("pulse_integral") is not None:
        record["pulse_integral"] = cfg["pulse_integral"]
    if cfg["check_oracle"]:
        nodes = max(cfg["nodes"], required_node_count(xi, state.delta))
        p_quad = flip_probability_quadrature(state, xi, QuadratureSpec(node_count=nodes))
        record["p_quadrature"] = p_quad
        record["abs_diff"] = abs(record["p"] - p_quad)
        record["nodes"] = nodes
    _emit(render_json(record), cfg["outputs"].get("report"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# contrast


def _resolve_contrast(args) -> dict:
    return {
        "dn": args.dn,
        "delta": args.delta,
        "xi": args.xi,
        "trials": args.trials,
        "seed": args.seed,
        "outputs": {"table": args.out, "manifest": args.manifest_out},
    }


def _execute_contrast(cfg: dict) -> int:
    state = DipoleState(d_n=cfg["dn"], delta=cfg["delta"])
    xi, trials, seed = cfg["xi"], cfg["trials"], cfg["seed"]
    workers = _workers()
    quantum = simulate_quantum(state, xi, trials, seed, workers=workers)
    stochastic = simulate_stochastic(state, xi, trials, seed, workers=workers)
    rows = [
        ["quantum", trials, quantum.flips, quantum.fraction, flip_probability(state, xi)],
        [
            "stochastic",
            trials,
            stochastic.flips,
            stochastic.fraction,
            expected_stochastic_fraction(state, xi),
        ],
    ]
    _emit(render_csv(CONTRAST_HEADER, rows), cfg["outputs"].get("table"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _resolve_scan(args) -> dict:
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if args.xi_max < args.xi_min:
        raise ValueError("--xi-max must be >= --xi-min")
    if args.log and args.xi_min <= 0:
        raise ValueError("--log spacing requires --xi-min > 0")
    return {
        "dn": args.dn,
        "delta": args.delta,
        "xi_min": args.xi_min,
        "xi_max": args.xi_max,
        "points": args.points,
        "spacing": "log" if args.log else "linear",
        "nodes": args.nodes,
        "outputs": {"table": args.out, "manifest": args.manifest_out},
    }


def _execute_scan(cfg: dict) -> int:
    state = DipoleState(d_n=cfg["dn"], delta=cfg["delta"])
    if cfg["points"] == 1:
        xis = np.array([cfg["xi_min"]])
    elif cfg["spacing"] == "log":
        xis = np.geomspace(cfg["xi_min"], cfg["xi_max"], cfg["points"])
    else:
        xis = np.linspace(cfg["xi_min"], cfg["xi_max"], cfg["points"])
    worst_scale = max(abs(cfg["xi_min"]), abs(cfg["xi_max"]))
    nodes = max(cfg["nodes"], required_node_count(worst_scale, state.delta))
    spec = QuadratureSpec(node_count=nodes)
    rows = []
    for xi in xis:
        p_closed = flip_probability(state, float(xi))
        p_quad = flip_probability_quadrature(state, float(xi), spec)
        rows.append([float(xi), p_closed, p_quad, abs(p_closed - p_quad)])
    _emit(render_csv(SCAN_HEADER, rows), cfg["outputs"]["table"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# campaign


def _resolve_campaign(args) -> dict:
    resolved = load_config(args.config)
    summary_out = args.summary_out or os.path.splitext(args.out)[0] + ".summary.json"
    return {
        "campaign": asdict(resolved.campaign),
        "units": asdict(resolved.units),
        "constants": asdict(resolved.constants),
        "outputs": {
            "cycles": args.out,
            "summary": summary_out,
            "manifest": args.manifest_out,
        },
    }


def _execute_campaign(cfg: dict) -> int:
    campaign = CampaignConfig(**cfg["campaign"])
    units = UnitSystem(**cfg["units"])
    constants = PhysicalConstants(**cfg["constants"])
    records = run_campaign(campaign, constants=constants, units=units)
    estimate = campaign_estimator(records, campaign, constants=constants, units=units)
    atomic_write_text(
        cfg["outputs"]["cycles"], render_csv(CYCLES_HEADER, cycles_to_rows(records))
    )
    summary = {
        "schema": SCHEMA_SUMMARY_JSON,
        "command": "campaign",
        "dn_hat": estimate.dn_hat,
        "standard_error": estimate.standard_error,
        "n_pairs": estimate.n_pairs,
        "degenerate": estimate.degenerate,
        "seed": campaign.seed,
        "cycles": campaign.cycles,
        "manifest": _manifest("campaign", cfg),
    }
    atomic_write_text(cfg["outputs"]["summary"], render_json(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit / bound


def _search_settings(args, dataset: FlipDataset, delta_widths: float) -> dict:
    """Inference settings of a fit or bound, keyed as in [inference].

    A flag (its dest is the setting's key) overrides the config file,
    which overrides the library defaults; ceilings set by neither are
    derived from the dataset.
    """
    settings = asdict(load_config(args.config).inference if args.config else InferenceSettings())
    for key, value in vars(args).items():
        if key in settings and value is not None:
            settings[key] = value
    dn_ceiling, delta_ceiling = search_ceilings(dataset, delta_widths)
    if settings["dn_max_e_cm"] is None:
        settings["dn_max_e_cm"] = dn_ceiling
    if settings["delta_max_e_cm"] is None:
        settings["delta_max_e_cm"] = delta_ceiling
    return settings


def _resolve_fit(args) -> dict:
    dataset = _read_flip_dataset(args.data)
    settings = _search_settings(args, dataset, FIT_DELTA_WIDTHS)
    return {
        "dataset": _dataset_to_cfg(dataset),
        "search": {
            "dn_min": settings["dn_min_e_cm"],
            "dn_max": settings["dn_max_e_cm"],
            "delta_min": settings["delta_min_e_cm"],
            "delta_max": settings["delta_max_e_cm"],
            "grid_points": settings["grid_points"],
            "resolution": settings["resolution"],
        },
        "cl": settings["cl"],
        "outputs": {"report": args.out, "manifest": args.manifest_out},
    }


def _execute_fit(cfg: dict) -> int:
    dataset = FlipDataset(**cfg["dataset"])
    search = SearchBox(**cfg["search"])
    result = fit(dataset, search, interval_cl=cfg["cl"])
    report = {
        "schema": SCHEMA_SUMMARY_JSON,
        "command": "fit",
        "dn_hat": result.dn_hat,
        "delta_hat": result.delta_hat,
        "max_log_likelihood": result.max_log_likelihood,
        "dn_interval": list(result.dn_interval),
        "delta_interval": list(result.delta_interval),
        "interval_cl": result.interval_cl,
        "converged": result.converged,
        "message": result.message,
    }
    _emit(render_json(report), cfg["outputs"].get("report"))
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _resolve_bound(args) -> dict:
    dataset = _read_flip_dataset(args.data)
    settings = _search_settings(args, dataset, BOUND_DELTA_WIDTHS)
    return {
        "dataset": _dataset_to_cfg(dataset),
        "cl": settings["cl"],
        "delta_min": settings["delta_min_e_cm"],
        "delta_max": settings["delta_max_e_cm"],
        "dn_max": settings["dn_max_e_cm"],
        "resolution": settings["resolution"],
        "outputs": {"report": args.out, "manifest": args.manifest_out},
    }


def _execute_bound(cfg: dict) -> int:
    dataset = FlipDataset(**cfg["dataset"])
    bound = upper_bound(
        dataset,
        cl=cfg["cl"],
        delta_bounds=(cfg["delta_min"], cfg["delta_max"]),
        dn_max=cfg["dn_max"],
        resolution=cfg["resolution"],
    )
    report = {
        "schema": SCHEMA_SUMMARY_JSON,
        "command": "bound",
        "upper_bound": bound,
        "cl": cfg["cl"],
        "delta_bounds": [cfg["delta_min"], cfg["delta_max"]],
        "dn_max": cfg["dn_max"],
    }
    _emit(render_json(report), cfg["outputs"].get("report"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# command table, manifests and rerun


class Command(NamedTuple):
    """How one subcommand runs: arguments -> manifest config -> outputs."""

    resolve: Callable[[argparse.Namespace], dict]
    execute: Callable[[dict], int]
    formats: dict  # output name -> format version written there


COMMANDS = {
    "transition": Command(
        _resolve_transition, _execute_transition, {"report": SCHEMA_SUMMARY_JSON}
    ),
    "contrast": Command(_resolve_contrast, _execute_contrast, {"table": SCHEMA_CONTRAST_CSV}),
    "scan": Command(_resolve_scan, _execute_scan, {"table": SCHEMA_SCAN_CSV}),
    "campaign": Command(
        _resolve_campaign,
        _execute_campaign,
        {"cycles": SCHEMA_CYCLES_CSV, "summary": SCHEMA_SUMMARY_JSON},
    ),
    "fit": Command(_resolve_fit, _execute_fit, {"report": SCHEMA_SUMMARY_JSON}),
    "bound": Command(_resolve_bound, _execute_bound, {"report": SCHEMA_SUMMARY_JSON}),
}


def _manifest(command: str, cfg: dict) -> dict:
    return {
        "schema": SCHEMA_MANIFEST_JSON,
        "artifact_version": __version__,
        "command": command,
        "formats": COMMANDS[command].formats,
        "config": cfg,
    }


def _run(command: str, cfg: dict) -> int:
    """Execute a resolved run, then write its manifest.

    A run that did not converge (exit 4) still gets its manifest, so it can
    be rerun; a run rejected while executing (exit 2 or 3) leaves none.
    """
    path = cfg["outputs"].get("manifest")
    try:
        code = COMMANDS[command].execute(cfg)
    except NonConvergenceError:
        _write_manifest(path, command, cfg)
        raise
    _write_manifest(path, command, cfg)
    return code


def _write_manifest(path: str | None, command: str, cfg: dict) -> None:
    if path:
        atomic_write_text(path, render_json(_manifest(command, cfg)))


def _rerun(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != SCHEMA_MANIFEST_JSON:
        raise ValueError(f"not a manifest: schema {schema!r}")
    # keys missing from the manifest, or not taken by its command, raise here
    try:
        command = manifest["command"]
        if command not in COMMANDS:
            raise ValueError(f"manifest names unknown command {command!r}")
        return _run(command, manifest["config"])
    except KeyError as exc:
        raise ValueError(f"malformed manifest {path}: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed manifest {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# parser


def _add_state(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dn", type=float, required=True, help="dipole expectation, e.cm")
    p.add_argument("--delta", type=float, required=True, help="dipole uncertainty, e.cm")


def _add_outputs(p: argparse.ArgumentParser, **out) -> None:
    p.add_argument("--out", **out)
    p.add_argument("--manifest-out", help="write the run manifest here")


def _add_search(p: argparse.ArgumentParser, cl_help: str) -> None:
    p.add_argument("--data", required=True, help="flip-count CSV (xi,trials,flips)")
    p.add_argument("--config", help="INI config providing [inference] defaults")
    # each dest is the [inference] key the flag overrides
    p.add_argument("--cl", type=float, help=cl_help)
    p.add_argument("--dn-max", dest="dn_max_e_cm", type=float, help="dipole search ceiling")
    p.add_argument("--delta-min", dest="delta_min_e_cm", type=float)
    p.add_argument("--delta-max", dest="delta_max_e_cm", type=float, help="delta profiling ceiling")
    p.add_argument("--resolution", type=float, help="relative refinement stop")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nedmsim",
        description="Spin-flip statistics and bound-setting for dipole searches.",
    )
    parser.add_argument("--version", action="version", version=f"nedmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transition", help="closed-form flip probability")
    _add_state(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--xi", type=float, help="kick parameter, rad per e.cm")
    group.add_argument(
        "--pulse-integral",
        type=float,
        help="field-time integral, (V/cm)*s; converted to xi with default units",
    )
    p.add_argument("--check-oracle", action="store_true", help="also run the quadrature oracle")
    p.add_argument(
        "--nodes", type=int, default=QuadratureSpec.node_count, help="quadrature nodes (auto-raised if low)"
    )
    _add_outputs(p, help="write the JSON record here instead of stdout")

    p = sub.add_parser("contrast", help="quantum vs stochastic counting run")
    _add_state(p)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_outputs(p, help="write the CSV table here instead of stdout")

    p = sub.add_parser("scan", help="P vs xi table with quadrature oracle")
    _add_state(p)
    p.add_argument("--xi-min", type=float, required=True)
    p.add_argument("--xi-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true", help="log-spaced xi grid")
    p.add_argument("--nodes", type=int, default=QuadratureSpec.node_count)
    _add_outputs(p, required=True, help="output CSV path")

    p = sub.add_parser("campaign", help="simulate a comagnetometer campaign")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--summary-out", help="summary JSON path (default: <out>.summary.json)")
    _add_outputs(p, required=True, help="cycle table CSV path")

    p = sub.add_parser("fit", help="joint (dn, delta) likelihood fit")
    _add_search(p, cl_help="interval confidence level")
    p.add_argument("--dn-min", dest="dn_min_e_cm", type=float)
    p.add_argument("--grid", dest="grid_points", type=int, help="coarse grid points per axis")
    _add_outputs(p, help="write the JSON report here instead of stdout")

    p = sub.add_parser("bound", help="profile-likelihood upper bound on dn")
    _add_search(p, cl_help="one-sided confidence level")
    _add_outputs(p, help="write the JSON report here instead of stdout")

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest", help="manifest JSON written by a previous run")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # where (xi delta)^2 overflows to inf the closed form's envelope is
        # exactly 0, so numpy's overflow warning would be stray stderr output
        with np.errstate(over="ignore"):
            if args.command == "rerun":
                return _rerun(args.manifest)
            return _run(args.command, COMMANDS[args.command].resolve(args))
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
