"""CLI surface: commands, exit codes, formats, manifests, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nedmsim
from nedmsim.cli import main
from nedmsim.formats import (
    CONTRAST_HEADER,
    FLIPS_HEADER,
    SCAN_HEADER,
    parse_csv,
    render_csv,
)
from nedmsim.weak_measurement import NODE_COUNT_MAX, required_node_count

NOISELESS_INI = """\
[campaign]
true_dn_e_cm = 5e-21
cycles = 4
seed = 11
counting_mode = expected
"""


def write_flip_csv(path, points):
    rows = [[float(x), int(n), int(k)] for x, n, k in points]
    path.write_text(render_csv(FLIPS_HEADER, rows))


def zero_flip_points():
    xis = np.geomspace(1e19, 1e21, 8)
    weights = (1e21 / xis) ** 2
    trials = np.maximum(1, np.round(8e6 * weights / weights.sum())).astype(int)
    return [(x, int(n), 0) for x, n in zip(xis, trials)]


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_transition_cp_null(capsys):
    assert run_cli("transition", "--dn", "0", "--delta", "1e-15", "--xi", "1e13") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["p"] == 0.0


def test_transition_overflowing_envelope_is_quiet():
    # xi*delta = 1e350 overflows; the envelope is exactly 0 and numpy's
    # overflow warning is not printed
    proc = subprocess.run(
        [sys.executable, "-m", "nedmsim.cli", "transition",
         "--dn", "0", "--delta", "1e150", "--xi", "1e200"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(nedmsim.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["p"] == 0.0


def test_transition_zero_delta(capsys):
    assert run_cli("transition", "--dn", "1e-26", "--delta", "0", "--xi", "1e13") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["p"] == pytest.approx(math.sin(1e-13) ** 2, rel=1e-12)


def test_transition_oracle_flag(capsys):
    assert (
        run_cli(
            "transition", "--dn", "1e-26", "--delta", "1e-15", "--xi", "1e13",
            "--check-oracle",
        )
        == 0
    )
    record = json.loads(capsys.readouterr().out)
    assert record["abs_diff"] <= 1e-10
    assert record["p_quadrature"] == pytest.approx(record["p"], abs=1e-10)


def test_transition_pulse_integral(capsys):
    assert run_cli("transition", "--dn", "1e-26", "--delta", "0", "--pulse-integral", "1e6") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["xi"] > 0
    assert record["pulse_integral"] == 1e6


def test_transition_malformed_number_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("transition", "--dn", "1e-26ecm", "--delta", "0", "--xi", "1e13")
    assert err.value.code == 2


def test_contrast_null_dipole(capsys):
    assert (
        run_cli(
            "contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14",
            "--trials", "100000", "--seed", "3",
        )
        == 0
    )
    rows = parse_csv(capsys.readouterr().out, CONTRAST_HEADER)
    table = {row[0]: row for row in rows}
    assert table["quantum"][2] == 0
    assert table["stochastic"][2] > 0
    assert table["stochastic"][4] == pytest.approx(0.009900663346622374, rel=1e-12)


def test_contrast_zero_trials_exits_2(capsys):
    assert (
        run_cli("contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14", "--trials", "0") == 2
    )
    assert "trials" in capsys.readouterr().err


def test_contrast_same_seed_identical(capsys):
    args = ("contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14",
            "--trials", "50000", "--seed", "8")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first


def test_scan_single_point(tmp_path):
    out = tmp_path / "scan.csv"
    assert (
        run_cli(
            "scan", "--dn", "3e-22", "--delta", "1e-21", "--xi-min", "1e20",
            "--xi-max", "1e20", "--points", "1", "--out", out,
        )
        == 0
    )
    rows = parse_csv(out.read_text(), SCAN_HEADER)
    assert len(rows) == 1


def test_scan_table_properties(tmp_path):
    out = tmp_path / "scan.csv"
    assert (
        run_cli(
            "scan", "--dn", "3e-22", "--delta", "2e-21", "--xi-min", "1e19",
            "--xi-max", "2e21", "--points", "40", "--log", "--out", out,
        )
        == 0
    )
    rows = parse_csv(out.read_text(), SCAN_HEADER)
    xis = [row[0] for row in rows]
    assert xis == sorted(xis)
    for xi, p_closed, p_quad, diff in rows:
        assert diff <= 1e-10
        assert p_closed <= math.exp(-((xi * 2e-21) ** 2)) * (1 + 1e-12)
    # emitted bytes round-trip through parse/render
    assert render_csv(SCAN_HEADER, rows) == out.read_text()


def test_scan_unwritable_path_exits_3(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "scan.csv"
    manifest = tmp_path / "m.json"
    assert (
        run_cli(
            "scan", "--dn", "0", "--delta", "0", "--xi-min", "1", "--xi-max", "2",
            "--points", "2", "--out", out, "--manifest-out", manifest,
        )
        == 3
    )
    # a run that failed while executing leaves no manifest to rerun
    assert not manifest.exists()


def test_campaign_noiseless_round_trip(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(NOISELESS_INI)
    out = tmp_path / "cycles.csv"
    assert run_cli("campaign", "--config", cfg, "--out", out) == 0
    summary = json.loads((tmp_path / "cycles.summary.json").read_text())
    assert summary["dn_hat"] == pytest.approx(5e-21, rel=1e-10)
    assert summary["degenerate"] is True
    assert summary["seed"] == 11
    assert summary["manifest"]["command"] == "campaign"


def test_campaign_counting_noise_estimate_within_errors(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[campaign]\ntrue_dn_e_cm = 2e-26\ncycles = 10000\nseed = 19\n"
    )
    out = tmp_path / "cycles.csv"
    assert run_cli("campaign", "--config", cfg, "--out", out) == 0
    summary = json.loads((tmp_path / "cycles.summary.json").read_text())
    assert summary["standard_error"] > 0
    assert abs(summary["dn_hat"] - 2e-26) < 4.0 * summary["standard_error"]


def test_campaign_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[campaign]\ncycles = 4\nbogus_key = 1\n")
    out = tmp_path / "cycles.csv"
    assert run_cli("campaign", "--config", cfg, "--out", out) == 2
    assert "campaign.bogus_key" in capsys.readouterr().err


def test_campaign_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[campaign]\ntrue_dn_e_cm = 2e-21\ncycles = 6\nseed = 5\n")
    out = tmp_path / "cycles.csv"
    manifest = tmp_path / "run.manifest.json"
    assert run_cli("campaign", "--config", cfg, "--out", out, "--manifest-out", manifest) == 0
    cycles_0 = out.read_bytes()
    summary_0 = (tmp_path / "cycles.summary.json").read_bytes()
    manifest_0 = manifest.read_bytes()
    cfg.unlink()  # manifest alone must reproduce everything
    out.unlink()
    assert run_cli("rerun", manifest) == 0
    assert out.read_bytes() == cycles_0
    assert (tmp_path / "cycles.summary.json").read_bytes() == summary_0
    assert manifest.read_bytes() == manifest_0


def test_fit_command_reports(tmp_path, capsys):
    xis = np.array([0.25, 0.5, 0.75, 1.0]) * 1e21
    pts = []
    rng = np.random.default_rng(4)
    for x in xis:
        p = math.sin(3e-22 * x) ** 2 * math.exp(-((x * 1e-21) ** 2))
        pts.append((x, 10**6, int(rng.binomial(10**6, p))))
    data = tmp_path / "flips.csv"
    write_flip_csv(data, pts)
    assert run_cli("fit", "--data", data) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert report["dn_interval"][0] <= report["dn_hat"] <= report["dn_interval"][1]
    assert report["dn_hat"] == pytest.approx(3e-22, rel=0.2)


# tests/test_pinned_edges.py's interior_dataset(0.3, 0.0): a valid table on
# which a search step once took delta below 0, so fit and bound exited 2
INTERIOR_POINTS = [
    (k * 1.25e20, 10**6, flips)
    for k, flips in enumerate(
        [1376, 5554, 12611, 22204, 35019, 49721, 67151, 87514], start=1
    )
]


@pytest.mark.parametrize(
    "argv", [["fit"], ["bound", "--resolution", "1e-5"]], ids=["fit", "bound"]
)
def test_interior_table_at_default_ceilings_exits_0(tmp_path, capsys, argv):
    data = tmp_path / "flips.csv"
    write_flip_csv(data, INTERIOR_POINTS)
    assert run_cli(*argv, "--data", data) == 0
    report = json.loads(capsys.readouterr().out)
    if argv[0] == "fit":
        assert report["converged"] is True
        assert report["delta_hat"] >= 0.0
        assert report["dn_hat"] == pytest.approx(0.3e-21, rel=0.05)
    else:
        assert 0.3e-21 < report["upper_bound"] < report["dn_max"]


def test_bound_unconverged_maximum_exits_4(tmp_path, capsys):
    # tests/test_pinned_edges.py's interior_dataset(0.3, 1.0): below double
    # precision the maximum cannot converge, and bound must say so as fit does
    flips = [1394, 5326, 11082, 17436, 23623, 28345, 31368, 32106]
    data = tmp_path / "flips.csv"
    write_flip_csv(data, [(k * 1.25e20, 10**6, f) for k, f in enumerate(flips, start=1)])
    assert run_cli("fit", "--data", data, "--resolution", "1e-17") == 4
    capsys.readouterr()
    assert run_cli("bound", "--data", data, "--resolution", "1e-17") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zoom steps" in captured.err


def test_fit_single_xi_exits_2(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    write_flip_csv(data, [(1e21, 100, 1), (1e21, 100, 2)])
    assert run_cli("fit", "--data", data) == 2
    assert "distinct xi" in capsys.readouterr().err


def test_fit_all_zero_exits_4(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    write_flip_csv(data, [(1e20, 1000, 0), (1e21, 1000, 0)])
    manifest = tmp_path / "m.json"
    assert run_cli("fit", "--data", data, "--manifest-out", manifest) == 4
    assert json.loads(manifest.read_text())["command"] == "fit"
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is False
    assert report["dn_hat"] == 0.0


def test_fit_scale_covariance_via_cli(tmp_path, capsys):
    rng = np.random.default_rng(12)
    xis = np.array([0.25, 0.5, 0.75, 1.0]) * 1e21
    pts = []
    for x in xis:
        p = math.sin(3e-22 * x) ** 2 * math.exp(-((x * 1e-21) ** 2))
        pts.append((x, 10**6, int(rng.binomial(10**6, p))))
    data = tmp_path / "a.csv"
    write_flip_csv(data, pts)
    assert run_cli("fit", "--data", data) == 0
    base = json.loads(capsys.readouterr().out)
    s = 100.0
    data_s = tmp_path / "b.csv"
    write_flip_csv(data_s, [(x / s, n, k) for x, n, k in pts])
    assert run_cli("fit", "--data", data_s) == 0
    scaled = json.loads(capsys.readouterr().out)
    # xi -> xi/s rescales both estimates by s (search boxes are data-derived)
    assert scaled["dn_hat"] == pytest.approx(s * base["dn_hat"], rel=1e-5)
    assert scaled["delta_hat"] == pytest.approx(s * base["delta_hat"], rel=1e-5)


def test_bound_zero_flip_finite(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    write_flip_csv(data, zero_flip_points())
    assert run_cli("bound", "--data", data, "--cl", "0.95") == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["upper_bound"] < math.inf


def test_bound_nested_cls(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    write_flip_csv(data, zero_flip_points())
    bounds = []
    for cl in (0.5, 0.95):
        assert run_cli("bound", "--data", data, "--cl", cl) == 0
        bounds.append(json.loads(capsys.readouterr().out)["upper_bound"])
    assert bounds[0] <= bounds[1]


def test_bound_reads_inference_config_defaults(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    write_flip_csv(data, zero_flip_points())
    cfg = tmp_path / "inf.ini"
    cfg.write_text("[inference]\ncl = 0.9\ndelta_max_e_cm = 1e-21\n")
    assert run_cli("bound", "--data", data, "--config", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cl"] == 0.9
    assert report["delta_bounds"][1] == 1e-21
    # an explicit flag overrides the config file
    assert run_cli("bound", "--data", data, "--config", cfg, "--cl", "0.95") == 0
    assert json.loads(capsys.readouterr().out)["cl"] == 0.95


def test_bound_nonconvergence_exits_4(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    write_flip_csv(data, zero_flip_points())
    manifest = tmp_path / "m.json"
    assert run_cli("bound", "--data", data, "--dn-max", "1e-40", "--manifest-out", manifest) == 4
    assert "dn_max" in capsys.readouterr().err
    # a non-converged run keeps its manifest, so it can be rerun
    assert json.loads(manifest.read_text())["command"] == "bound"


def test_missing_data_file_exits_3(tmp_path, capsys):
    assert run_cli("fit", "--data", tmp_path / "nope.csv") == 3


def test_bad_dataset_header_exits_2(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    data.write_text("a,b,c\n1,2,3\n")
    assert run_cli("fit", "--data", data) == 2


@pytest.mark.parametrize("command", ["fit", "bound"])
def test_short_dataset_row_exits_2(tmp_path, capsys, command):
    data = tmp_path / "flips.csv"
    data.write_text("xi,trials,flips\n1e21,100\n")
    assert run_cli(command, "--data", data) == 2
    assert "CSV line 2 has 2 cells, expected 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, nodes",
    [
        (("transition", "--dn", "1e-26", "--delta", "1e-15", "--pulse-integral", "1e6",
          "--check-oracle"), 8771505),
        (("scan", "--dn", "0", "--delta", "1e-15", "--xi-min", "1e13", "--xi-max", "1e18",
          "--points", "2"), required_node_count(1e18, 1e-15)),
    ],
)
def test_oracle_above_node_ceiling_exits_2(tmp_path, capsys, monkeypatch, argv, nodes):
    def refuse(n):
        raise AssertionError(f"built a {n}-node rule above the ceiling")

    monkeypatch.setattr("nedmsim.weak_measurement._hermite_nodes", refuse)
    manifest = tmp_path / "m.json"
    assert run_cli(*argv, "--out", tmp_path / "out", "--manifest-out", manifest) == 2
    err = capsys.readouterr().err
    assert f"node_count = {nodes} exceeds" in err and f"{NODE_COUNT_MAX} nodes" in err
    assert not manifest.exists()


def test_cli_import_loads_no_scipy(tmp_path):
    package_root = str(Path(nedmsim.__file__).resolve().parents[1])
    pythonpath = [package_root]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    code = (
        "import sys, nedmsim, nedmsim.cli; print(nedmsim.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
    )
    assert proc.returncode == 0, proc.stderr
    imported_from, scipy_modules = proc.stdout.splitlines()
    assert Path(imported_from).resolve() == Path(nedmsim.__file__).resolve()
    assert scipy_modules == "[]"


def test_threads_env_does_not_change_bytes(tmp_path, capsys, monkeypatch):
    args = ("contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14",
            "--trials", str(3 * 65536 + 17), "--seed", "21")
    monkeypatch.setenv("NEDMSIM_THREADS", "1")
    assert run_cli(*args) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("NEDMSIM_THREADS", "4")
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == serial


def test_threads_env_validated(capsys, monkeypatch):
    monkeypatch.setenv("NEDMSIM_THREADS", "zero")
    assert run_cli("contrast", "--dn", "0", "--delta", "0", "--xi", "1", "--trials", "10") == 2


def test_manifest_rerun_stdout_command(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    args = ("transition", "--dn", "1e-26", "--delta", "1e-15", "--xi", "1e13",
            "--check-oracle", "--manifest-out", manifest)
    assert run_cli(*args) == 0
    original = capsys.readouterr().out
    assert run_cli("rerun", manifest) == 0
    assert capsys.readouterr().out == original


def test_rerun_rejects_non_manifest(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"schema": "other", "command": "fit"}))
    assert run_cli("rerun", bad) == 2


def test_rerun_manifest_missing_key_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    assert run_cli("transition", "--dn", "1e-26", "--delta", "0", "--xi", "1e13",
                   "--manifest-out", manifest) == 0
    recorded = json.loads(manifest.read_text())
    del recorded["config"]["outputs"]
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "'outputs'" in err


def test_rerun_manifest_unexpected_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(NOISELESS_INI)
    manifest = tmp_path / "m.json"
    assert run_cli("campaign", "--config", cfg, "--out", tmp_path / "cycles.csv",
                   "--manifest-out", manifest) == 0
    recorded = json.loads(manifest.read_text())
    recorded["config"]["campaign"]["bogus_key"] = 1
    manifest.write_text(json.dumps(recorded))
    assert run_cli("rerun", manifest) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "bogus_key" in err


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_internal_key_and_type_errors_propagate(tmp_path, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("internal")

    monkeypatch.setattr("nedmsim.cli.upper_bound", broken)
    data = tmp_path / "flips.csv"
    write_flip_csv(data, zero_flip_points())
    with pytest.raises(error):
        run_cli("bound", "--data", data)


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "nedmsim.__version__"}
