"""Command-line surface tying the simulation and inference together.

Subcommands: ``transition`` (closed-form flip probability), ``contrast``
(quantum vs stochastic counting run), ``scan`` (P-vs-xi table with the
quadrature oracle), ``campaign`` (polarity-alternating campaign from a
config file), ``fit`` / ``bound`` (likelihood estimation on flip tables),
and ``rerun`` (re-execute a recorded run).

Every command resolves its arguments, defaults included, into a manifest
(command name, full configuration, seed, output paths, artifact version).
Nothing time- or host-dependent enters any output, so rerunning from the
manifest under the artifact version that wrote it reproduces every byte;
under another, ``rerun`` says so on stderr. The ``NEDMSIM_THREADS``
environment variable is validated for ensemble commands but has no
effect: each ensemble count is one draw, and no command starts a thread.

Exit codes: 0 success, 2 usage/config error (a malformed manifest
included), 3 I/O error, 4 non-convergence. Any other exception is a bug
and propagates, on a rerun too: there only a ``KeyError`` or ``TypeError``
raised while the manifest is read and checked means a malformed manifest.
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
from .comagnetometer import (
    CampaignConfig,
    campaign_estimator,
    run_campaign,
)
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
    atomic_write_texts,
    column_rows,
    csv_lines,
    cycles_to_rows,
    parse_csv,
    render_csv,
    render_json,
)
from .inference import (
    BOUND_DELTA_WIDTHS,
    FIT_DELTA_WIDTHS,
    FlipDataset,
    NonConvergenceError,
    SearchBox,
    fit,
    search_ceilings,
    upper_bound,
)
from .quantities import (
    INT,
    REAL,
    REAL_OR_NULL,
    PhysicalConstants,
    PulseProfile,
    UnitSystem,
    _finite_real,
    check_kinds,
    field_kinds,
    xi_from_pulse,
)
from .weak_measurement import (
    DipoleState,
    flip_probability,
    flip_probability_quadrature,
    required_node_count,
)

THREADS_ENV = "NEDMSIM_THREADS"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NONCONVERGENCE = 4

# Most points a scan may have: its xi grid and table are held in memory.
SCAN_POINTS_MAX = 2**20


def _workers() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        value = int(raw, 10)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {value}")
    return value


def _read_flip_dataset(path: str) -> FlipDataset:
    with open(path, "r", encoding="utf-8") as handle:
        rows = parse_csv(handle.read(), FLIPS_HEADER)
    if not rows:
        raise ValueError(f"flip dataset {path} contains no data rows")
    return FlipDataset(*zip(*rows))


# Kinds of config value beside those of quantities: a test, and what a value
# of the kind must be. Each Command's kinds give the kind a fresh run writes
# at each config key. An empty path would name the working directory's parent.
BOOL = (lambda v: type(v) is bool, "true or false")
PATH = (lambda v: type(v) is str and v != "", "a path")
PATH_OR_NULL = (lambda v: v is None or PATH[0](v), "a path or null")
REALS = (lambda v: type(v) is list and all(map(_finite_real, v)), "a list of finite numbers")
SPACING = (lambda v: v in ("log", "linear"), "'log' or 'linear'")


def _config(values: dict, kinds: dict) -> dict:
    """The config of a fresh run: each key of kinds from values.

    A nested table is read from its own table in values where there is one,
    as campaign's sections are, and else from values itself.
    """
    return {key: _config(values.get(key, values), kind) if isinstance(kind, dict)
            else values[key] for key, kind in kinds.items()}


# ---------------------------------------------------------------------------
# transition


def _resolve_transition(args) -> dict:
    values = vars(args)
    if args.pulse_integral is not None:  # --xi and --pulse-integral exclude each other
        values["xi"] = xi_from_pulse(PulseProfile(args.pulse_integral), UnitSystem())
    return values


def _check_transition(cfg: dict, name: Callable[[str], str]) -> None:
    """Raise ValueError, naming the keys, unless xi is that of a set pulse_integral."""
    pulse_integral = cfg["pulse_integral"]
    if pulse_integral is not None:
        xi = xi_from_pulse(PulseProfile(pulse_integral), UnitSystem())
        if cfg["xi"] != xi:
            raise ValueError(f"{name('xi')} must be {xi!r}, the xi of {name('pulse_integral')}")


def _execute_transition(cfg: dict) -> tuple[dict, int]:
    state = DipoleState(d_n=cfg["dn"], delta=cfg["delta"])
    xi = cfg["xi"]
    record = {"dn": state.d_n, "delta": state.delta, "xi": xi, "p": flip_probability(state, xi)}
    if cfg.get("pulse_integral") is not None:
        record["pulse_integral"] = cfg["pulse_integral"]
    if cfg["check_oracle"]:
        p_quad = flip_probability_quadrature(state, xi)
        record["p_quadrature"] = p_quad
        record["abs_diff"] = abs(record["p"] - p_quad)
        record["nodes"] = required_node_count(xi, state.delta)
    return {"report": record}, EXIT_OK


# ---------------------------------------------------------------------------
# contrast


def _execute_contrast(cfg: dict) -> tuple[dict, int]:
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
    return {"table": render_csv(CONTRAST_HEADER, rows)}, EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _check_scan(cfg: dict, name: Callable[[str], str]) -> None:
    """Raise ValueError, naming the key, unless points and the xi range fit."""
    points = cfg["points"]
    if points < 1:
        raise ValueError(f"{name('points')} must be >= 1")
    if points > SCAN_POINTS_MAX:
        raise ValueError(f"{name('points')} must be <= {SCAN_POINTS_MAX}")
    if cfg["xi_max"] < cfg["xi_min"]:
        raise ValueError(f"{name('xi_max')} must be >= {name('xi_min')}")
    if cfg["spacing"] == "log" and cfg["xi_min"] <= 0:
        raise ValueError(f"log spacing requires {name('xi_min')} > 0")


def _execute_scan(cfg: dict) -> tuple[dict, int]:
    state = DipoleState(d_n=cfg["dn"], delta=cfg["delta"])
    spaced = np.geomspace if cfg["spacing"] == "log" else np.linspace
    xis = spaced(cfg["xi_min"], cfg["xi_max"], cfg["points"])
    # one array call per column, each equal to its float calls byte for
    # byte: a scan past the node ceiling is refused before any point is
    # evaluated
    p_quads = flip_probability_quadrature(state, xis)
    p = flip_probability(state, xis)
    rows = column_rows([xis, p, p_quads, np.abs(p - p_quads)])
    return {"table": csv_lines(SCAN_HEADER, rows)}, EXIT_OK


# ---------------------------------------------------------------------------
# campaign


def _resolve_campaign(args) -> dict:
    resolved = load_config(args.config)
    sections = {key: asdict(getattr(resolved, key)) for key in ("campaign", "units", "constants")}
    summary = args.summary or os.path.splitext(args.cycles)[0] + ".summary.json"
    return {**vars(args), **sections, "summary": summary}


def _execute_campaign(cfg: dict) -> tuple[dict, int]:
    campaign = CampaignConfig(**cfg["campaign"])
    units = UnitSystem(**cfg["units"])
    table = run_campaign(campaign, PhysicalConstants(**cfg["constants"]), units)
    estimate = campaign_estimator(table, campaign, units)
    summary = {**asdict(estimate), "seed": campaign.seed, "cycles": campaign.cycles,
               "manifest": _manifest("campaign", cfg)}
    return {"cycles": csv_lines(CYCLES_HEADER, cycles_to_rows(table)), "summary": summary}, EXIT_OK


# ---------------------------------------------------------------------------
# fit / bound


def _search_settings(delta_widths: float) -> Callable[[argparse.Namespace], dict]:
    """Resolve a fit or bound, each [inference] setting under its field name.

    A flag overrides the config file, which overrides the library
    defaults; ceilings set by neither are derived from the dataset. bound
    takes five of the keys, those in its kinds: upper_bound searches from
    d_n = 0 on a 48-point grid, whatever grid_points and dn_min are set.
    """

    def resolve(args) -> dict:
        dataset = _read_flip_dataset(args.data)
        settings = load_config(args.config).inference if args.config else InferenceSettings()
        values = {**vars(args), "xi": dataset.xi.tolist(), "trials": dataset.trials.tolist(),
                  "flips": dataset.flips.tolist()}
        for key, value in asdict(settings).items():
            if values.get(key) is None:
                values[key] = value
        dn_ceiling, delta_ceiling = search_ceilings(dataset, delta_widths)
        if values["dn_max"] is None:
            values["dn_max"] = dn_ceiling
        if values["delta_max"] is None:
            values["delta_max"] = delta_ceiling
        return values

    return resolve


def _execute_fit(cfg: dict) -> tuple[dict, int]:
    dataset = FlipDataset(**cfg["dataset"])
    result = fit(dataset, SearchBox(**cfg["search"]), interval_cl=cfg["cl"])
    return {"report": asdict(result)}, EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _execute_bound(cfg: dict) -> tuple[dict, int]:
    dataset = FlipDataset(**cfg["dataset"])
    bound = upper_bound(
        dataset,
        cl=cfg["cl"],
        delta_bounds=(cfg["delta_min"], cfg["delta_max"]),
        dn_max=cfg["dn_max"],
        resolution=cfg["resolution"],
    )
    report = {"upper_bound": bound, "cl": cfg["cl"],
              "delta_bounds": [cfg["delta_min"], cfg["delta_max"]], "dn_max": cfg["dn_max"]}
    return {"report": report}, EXIT_OK


# ---------------------------------------------------------------------------
# command table, manifests and rerun


# flags not named after their config key
_FLAGS = {"grid_points": "--grid", "report": "--out", "table": "--out", "cycles": "--out",
          "summary": "--summary-out", "manifest": "--manifest-out"}


def _flag(key: str) -> str:
    # a nested key, such as fit's search.dn_max, is set by its last part's flag
    key = key.rsplit(".", 1)[-1]
    return _FLAGS.get(key, "--" + key.replace("_", "-"))


class Command(NamedTuple):
    """How one subcommand runs: arguments -> manifest config -> outputs.

    ``kinds`` lists every config key once: a fresh run's config is built
    from it. It and ``check(cfg, name)``, which holds the rules between
    values, refuse a config that no fresh run resolves to, naming each key
    through ``name``: as a flag on a fresh run, as a manifest key on a rerun.
    ``execute(cfg)`` writes nothing: it returns its outputs, each name of
    ``formats`` mapped to a JSON record (a dict) or to a table's text (or
    its lines, where the output's path cannot be null), and its exit code.
    """

    resolve: Callable[[argparse.Namespace], dict]  # flat values, keyed as in kinds
    execute: Callable[[dict], tuple[dict, int]]
    formats: dict  # output name -> format version written there
    kinds: dict  # config key -> kind, or a nested table of them
    check: Callable[[dict, Callable[[str], str]], None] = lambda cfg, name: None


_STATE = {"dn": REAL, "delta": REAL}
_DATASET = {"xi": REALS, "trials": REALS, "flips": REALS}  # FlipDataset checks the counts
_REPORT = {"report": PATH_OR_NULL, "manifest": PATH_OR_NULL}

COMMANDS = {
    "transition": Command(
        _resolve_transition, _execute_transition, {"report": SCHEMA_SUMMARY_JSON},
        {**_STATE, "xi": REAL, "pulse_integral": REAL_OR_NULL, "check_oracle": BOOL,
         "outputs": _REPORT},
        _check_transition,
    ),
    "contrast": Command(
        vars, _execute_contrast, {"table": SCHEMA_CONTRAST_CSV},
        {**_STATE, "xi": REAL, "trials": INT, "seed": INT,
         "outputs": {"table": PATH_OR_NULL, "manifest": PATH_OR_NULL}},
    ),
    "scan": Command(
        vars, _execute_scan, {"table": SCHEMA_SCAN_CSV},
        {**_STATE, "xi_min": REAL, "xi_max": REAL, "points": INT, "spacing": SPACING,
         "outputs": {"table": PATH, "manifest": PATH_OR_NULL}},
        _check_scan,
    ),
    "campaign": Command(
        _resolve_campaign, _execute_campaign,
        {"cycles": SCHEMA_CYCLES_CSV, "summary": SCHEMA_SUMMARY_JSON},
        {"campaign": field_kinds(CampaignConfig), "units": field_kinds(UnitSystem),
         "constants": field_kinds(PhysicalConstants),
         "outputs": {"cycles": PATH, "summary": PATH, "manifest": PATH_OR_NULL}},
    ),
    "fit": Command(
        _search_settings(FIT_DELTA_WIDTHS), _execute_fit, {"report": SCHEMA_SUMMARY_JSON},
        {"dataset": _DATASET, "cl": REAL, "outputs": _REPORT,
         "search": field_kinds(SearchBox)},
    ),
    "bound": Command(
        _search_settings(BOUND_DELTA_WIDTHS), _execute_bound, {"report": SCHEMA_SUMMARY_JSON},
        {"dataset": _DATASET, "cl": REAL, "delta_min": REAL, "delta_max": REAL,
         "dn_max": REAL, "resolution": REAL, "outputs": _REPORT},
    ),
}


def _manifest(command: str, cfg: dict) -> dict:
    return {
        "schema": SCHEMA_MANIFEST_JSON,
        "artifact_version": __version__,
        "command": command,
        "formats": COMMANDS[command].formats,
        "config": cfg,
    }


def _check(command: str, cfg: dict, name: Callable[[str], str]) -> None:
    """Refuse a config that no fresh run of command resolves to."""
    check_kinds(cfg, COMMANDS[command].kinds, name)
    # two outputs on one file: the later write would silently replace the earlier
    written = {}  # absolute path -> the output key that names it
    for key, path in cfg["outputs"].items():
        other = key if path is None else written.setdefault(os.path.abspath(path), key)
        if other != key:
            raise ValueError(f"{name('outputs.' + other)} and {name('outputs.' + key)} "
                             f"both name {path!r}")
    COMMANDS[command].check(cfg, name)


def _run(command: str, cfg: dict) -> int:
    """Execute a checked run, then write its outputs and its manifest.

    The executor computes every output first. The manifest and each output
    with a path are written together, none renamed into place until all
    are written; then each output with a null path goes to stdout. A run
    that did not converge (exit 4) still gets its manifest, so it can be
    rerun; a run rejected while checked, executed or written (exit 2 or 3)
    leaves no file.
    """
    formats, paths = COMMANDS[command].formats, cfg["outputs"]
    files = {} if paths["manifest"] is None else {  # path -> its text, or its lines
        paths["manifest"]: render_json(_manifest(command, cfg))}
    try:
        outputs, code = COMMANDS[command].execute(cfg)
    except NonConvergenceError:
        atomic_write_texts(files)
        raise
    printed = []
    for name, schema in formats.items():
        text = outputs[name]
        if isinstance(text, dict):  # a JSON record, under its format and command
            text = render_json({"schema": schema, "command": command, **text})
        if paths[name] is None:
            printed.append(text)
        else:
            files[paths[name]] = text
    atomic_write_texts(files)
    sys.stdout.writelines(printed)
    return code


def _rerun(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != SCHEMA_MANIFEST_JSON:
        raise ValueError(f"not a manifest: schema {schema!r}")
    # keys missing from the manifest, or not taken by its command, raise
    # while it is checked; what execute raises propagates as on a fresh run
    try:
        command, cfg = manifest["command"], manifest["config"]
        if command not in COMMANDS:
            raise ValueError(f"manifest names unknown command {command!r}")
        _check(command, cfg, lambda key: "config." + key)
    except KeyError as exc:
        raise ValueError(f"malformed manifest {path}: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed manifest {path}: {exc}") from exc
    # bytes are reproduced under the version that wrote the manifest; say when
    # another one runs, without changing what the rerun writes or exits with
    written = manifest.get("artifact_version", "unknown")
    if written != __version__ or manifest.get("formats") != COMMANDS[command].formats:
        print(f"note: {path} was written by nedmsim {written}, this is nedmsim {__version__}; "
              "where versions or formats differ, outputs may too (CHANGES.md lists what moved)",
              file=sys.stderr)
    return _run(command, cfg)


# ---------------------------------------------------------------------------
# parser


def _add_state(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dn", type=float, required=True, help="dipole expectation, e.cm")
    p.add_argument("--delta", type=float, required=True, help="dipole uncertainty, e.cm")


def _add_outputs(p: argparse.ArgumentParser, dest: str, **out) -> None:
    p.add_argument("--out", dest=dest, metavar="OUT", **out)
    p.add_argument("--manifest-out", dest="manifest", metavar="MANIFEST_OUT",
                   help="write the run manifest here")


def _add_search(p: argparse.ArgumentParser, cl_help: str) -> None:
    p.add_argument("--data", required=True, help="flip-count CSV (xi,trials,flips)")
    p.add_argument("--config", help="INI config providing [inference] defaults")
    # each dest is the InferenceSettings field the flag overrides
    p.add_argument("--cl", type=float, help=cl_help)
    p.add_argument("--dn-max", type=float, help="dipole search ceiling")
    p.add_argument("--delta-min", type=float)
    p.add_argument("--delta-max", type=float, help="delta profiling ceiling")
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
    _add_outputs(p, "report", help="write the JSON record here instead of stdout")

    p = sub.add_parser("contrast", help="quantum vs stochastic counting run")
    _add_state(p)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_outputs(p, "table", help="write the CSV table here instead of stdout")

    p = sub.add_parser("scan", help="P vs xi table with quadrature oracle")
    _add_state(p)
    p.add_argument("--xi-min", type=float, required=True)
    p.add_argument("--xi-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", dest="spacing", action="store_const", const="log",
                   default="linear", help="log-spaced xi grid")
    _add_outputs(p, "table", required=True, help="output CSV path")

    p = sub.add_parser("campaign", help="simulate a comagnetometer campaign")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--summary-out", dest="summary", metavar="SUMMARY_OUT",
                   help="summary JSON path (default: <out>.summary.json)")
    _add_outputs(p, "cycles", required=True, help="cycle table CSV path")

    p = sub.add_parser("fit", help="joint (dn, delta) likelihood fit")
    _add_search(p, cl_help="interval confidence level")
    p.add_argument("--dn-min", type=float)
    p.add_argument("--grid", dest="grid_points", type=int, help="coarse grid points per axis")
    _add_outputs(p, "report", help="write the JSON report here instead of stdout")

    p = sub.add_parser("bound", help="profile-likelihood upper bound on dn")
    _add_search(p, cl_help="one-sided confidence level")
    _add_outputs(p, "report", help="write the JSON report here instead of stdout")

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
            command = COMMANDS[args.command]
            cfg = _config(command.resolve(args), command.kinds)
            _check(args.command, cfg, _flag)
            # an output on the run's own input would replace what it read
            for flag in ("data", "config"):
                source = getattr(args, flag, None)
                for key, path in cfg["outputs"].items():
                    if source and path and os.path.abspath(path) == os.path.abspath(source):
                        raise ValueError(f"{_flag(key)} and --{flag} both name {path!r}")
            return _run(args.command, cfg)
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
