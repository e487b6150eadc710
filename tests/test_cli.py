"""CLI surface: commands, exit codes, formats, manifests, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nedmsim
from nedmsim.cli import main
from nedmsim.comagnetometer import (
    CAMPAIGN_BLOCK,
    COUNTING_MODES,
    campaign_estimator,
    run_campaign,
)
from nedmsim.config import parse_config_text
from nedmsim.formats import (
    CONTRAST_HEADER,
    CYCLES_HEADER,
    FLIPS_HEADER,
    SCAN_HEADER,
    cycles_to_rows,
    parse_csv,
    render_csv,
)
from nedmsim.cli import SCAN_POINTS_MAX
from nedmsim.inference import GRID_POINTS_MAX, FlipDataset
from nedmsim.weak_measurement import (
    NODE_COUNT_MAX,
    DipoleState,
    flip_probability,
    flip_probability_quadrature,
    required_node_count,
)

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


@pytest.mark.parametrize(
    "argv",
    [
        ("transition", "--dn", "1e300", "--delta", "0", "--xi", "1e300"),
        ("contrast", "--dn", "1e300", "--delta", "0", "--xi", "1e300", "--trials", "10"),
        ("scan", "--dn", "1e300", "--delta", "0", "--xi-min", "0", "--xi-max", "1e300",
         "--points", "2", "--out", "scan.csv"),
    ],
)
def test_overflowing_phase_exits_2_quietly(tmp_path, argv):
    # d_n*xi = 1e600 is beyond the double range although each factor is not
    proc = subprocess.run(
        [sys.executable, "-m", "nedmsim.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(nedmsim.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: xi and the phase d_n*xi must be finite (d_n = 1e+300)\n"
    assert not (tmp_path / "scan.csv").exists()


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


def test_contrast_trials_beyond_int64_exits_2(capsys):
    args = ("contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14")
    assert run_cli(*args, "--trials", str(2**63)) == 2
    assert capsys.readouterr().err == (
        "error: trials must lie in [1, 2**63 - 1], got 9223372036854775808\n"
    )


@pytest.mark.parametrize(
    "delta, xi, trials",
    [("1e300", "1e300", 1_000_000), ("1e150", "1e50", 10)],
    ids=["product_overflows", "square_overflows"],
)
def test_contrast_overflowing_spread_saturates(capsys, delta, xi, trials):
    # xi*delta = 1e600, or a finite 1e200 whose square overflows: every
    # per-neutron phase is fully randomized, so the stochastic fraction is
    # 1/2 and its count is Binomial(trials, 1/2)
    args = ("contrast", "--dn", "0", "--delta", delta, "--xi", xi, "--trials", trials)
    assert run_cli(*args) == 0
    table = {row[0]: row for row in parse_csv(capsys.readouterr().out, CONTRAST_HEADER)}
    assert table["quantum"][2] == 0
    assert table["stochastic"][4] == 0.5
    assert abs(table["stochastic"][2] - trials / 2) <= 5.0 * math.sqrt(trials / 4)


def test_contrast_largest_int64_trials_is_one_draw(capsys):
    args = ("contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14")
    start = time.perf_counter()
    assert run_cli(*args, "--trials", str(2**63 - 1)) == 0
    assert time.perf_counter() - start < 1.0
    table = {row[0]: row for row in parse_csv(capsys.readouterr().out, CONTRAST_HEADER)}
    assert table["quantum"][2] == 0
    assert table["stochastic"][3] == pytest.approx(table["stochastic"][4], rel=1e-6)


@pytest.mark.parametrize(
    "argv",
    [
        ("transition", "--dn", "0", "--delta", "1e300", "--xi", "1e300", "--check-oracle"),
        ("scan", "--dn", "0", "--delta", "1e300", "--xi-min", "0", "--xi-max", "1e300",
         "--points", "2"),
    ],
    ids=["transition", "scan"],
)
def test_oracle_with_infinite_spread_exits_2(tmp_path, capsys, argv):
    # no quadrature rule samples xi*delta = inf
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "error: xi*delta must be finite for the quadrature oracle, got inf\n"
    )
    assert not (tmp_path / "out").exists()


def test_contrast_same_seed_identical(capsys):
    args = ("contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14",
            "--trials", "50000", "--seed", "8")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first


def test_scan_single_point(tmp_path):
    # one point is --xi-min, whatever --xi-max and the spacing
    out = tmp_path / "scan.csv"
    for xi_max, spacing in (("1e20", ()), ("3e21", ()), ("3e21", ("--log",))):
        assert (
            run_cli(
                "scan", "--dn", "3e-22", "--delta", "1e-21", "--xi-min", "1e20",
                "--xi-max", xi_max, "--points", "1", *spacing, "--out", out,
            )
            == 0
        )
        rows = parse_csv(out.read_text(), SCAN_HEADER)
        assert len(rows) == 1
        assert rows[0][0] == 1e20


def test_scan_table_properties(tmp_path):
    # 4097 points cross a 4096-row slice of the streamed rows
    for points in (40, 4097):
        out = tmp_path / f"scan{points}.csv"
        assert (
            run_cli(
                "scan", "--dn", "3e-22", "--delta", "2e-21", "--xi-min", "1e19",
                "--xi-max", "2e21", "--points", points, "--log", "--out", out,
            )
            == 0
        )
        rows = parse_csv(out.read_text(), SCAN_HEADER)
        assert len(rows) == points
        xis = [row[0] for row in rows]
        assert xis == sorted(xis)
        for xi, p_closed, p_quad, diff in rows:
            assert diff <= 1e-10
            assert p_closed <= math.exp(-((xi * 2e-21) ** 2)) * (1 + 1e-12)
        # emitted bytes round-trip through parse/render
        assert render_csv(SCAN_HEADER, rows) == out.read_text()


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


def test_campaign_overflowing_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[campaign]\nb_nominal_tesla = 1e300\ncycles = 2\n")
    assert run_cli("campaign", "--config", cfg, "--out", tmp_path / "cycles.csv") == 2
    err = capsys.readouterr().err
    assert "b_nominal and b_drift_sd" in err and "math domain error" not in err


def test_campaign_huge_free_time_exits_0(tmp_path):
    # the ratio variance's (2 pi t)**2 raised OverflowError: exit 1, a traceback
    cfg = tmp_path / "c.ini"
    cfg.write_text("[campaign]\nfree_time_s = 1e160\ncycles = 8\nseed = 2\n")
    assert run_cli("campaign", "--config", cfg, "--out", tmp_path / "cycles.csv") == 0
    summary = json.loads((tmp_path / "cycles.summary.json").read_text())
    assert summary["n_pairs"] == 4 and 0.0 < summary["standard_error"] < math.inf


def test_campaign_huge_field_standard_error_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[campaign]\ne_field_v_per_cm = 1e300\ncycles = 8\nseed = 2\n")
    assert run_cli("campaign", "--config", cfg, "--out", tmp_path / "cycles.csv") == 2
    assert capsys.readouterr().err == (
        "error: standard error 0.0 is not positive and finite: "
        "e_magnitude or free_time is too small or too large\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.ini"]


@pytest.mark.parametrize("neutrons", [10_000, 2**62 + 1])
@pytest.mark.parametrize("mode", COUNTING_MODES)
def test_campaign_command_matches_library_without_records(tmp_path, mode, neutrons):
    # two blocks, so the table's columns are concatenated; near 2**63
    # neutrons, counts summed as int64 would round otherwise
    ini = (f"[campaign]\ntrue_dn_e_cm = 3e-22\nb_drift_sd_tesla = 1e-10\nvisibility = 0.8\n"
           f"cycles = {CAMPAIGN_BLOCK + 4}\nneutrons_per_cycle = {neutrons}\nseed = 17\n"
           f"counting_mode = {mode}\n")
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini)
    config = parse_config_text(ini).campaign
    table = run_campaign(config)
    expected_csv = render_csv(CYCLES_HEADER, cycles_to_rows(table))
    estimate = campaign_estimator(table, config)
    out = tmp_path / "cycles.csv"
    assert run_cli("campaign", "--config", cfg, "--out", out) == 0
    assert out.read_text() == expected_csv
    summary = json.loads((tmp_path / "cycles.summary.json").read_text())
    assert [summary[key] for key in ("dn_hat", "standard_error", "n_pairs", "degenerate")] == [
        estimate.dn_hat, estimate.standard_error, estimate.n_pairs, estimate.degenerate]
    assert nedmsim.inference.campaign_estimator is nedmsim.comagnetometer.campaign_estimator


def test_scan_and_campaign_write_their_tables_without_render_csv(tmp_path, monkeypatch):
    # both stream csv_lines to the file; neither builds the whole table's text
    def no_text(*args):
        raise AssertionError("the table was rendered as one string")

    monkeypatch.setattr("nedmsim.cli.render_csv", no_text)
    scan = tmp_path / "scan.csv"
    assert run_cli("scan", "--dn", "3e-22", "--delta", "2e-21", "--xi-min", "1e19",
                   "--xi-max", "2e21", "--points", "5000", "--out", scan) == 0
    assert len(parse_csv(scan.read_text(), SCAN_HEADER)) == 5000
    cfg = tmp_path / "c.ini"
    cfg.write_text(NOISELESS_INI)
    cycles = tmp_path / "cycles.csv"
    assert run_cli("campaign", "--config", cfg, "--out", cycles) == 0
    assert len(parse_csv(cycles.read_text(), CYCLES_HEADER)) == 4


# the Ramsey phase overflows above about 9.343e297 T; at this seed the first
# drift past it is cycle 6491, in the second block. With no fringe contrast
# no pair has phase sensitivity, so the estimator would refuse every pair too
LATE_OVERFLOW_INI = """\
[campaign]
b_nominal_tesla = 9.31e297
b_drift_sd_tesla = 9.34e294
visibility = 0
cycles = 12288
seed = 2
"""


def test_campaign_late_block_phase_error_writes_nothing(tmp_path, capsys):
    config = parse_config_text(LATE_OVERFLOW_INI).campaign
    first_block = dataclasses.replace(config, cycles=CAMPAIGN_BLOCK)
    with pytest.raises(ValueError, match="no usable polarity"):
        campaign_estimator(run_campaign(first_block), first_block)
    cfg = tmp_path / "c.ini"
    cfg.write_text(LATE_OVERFLOW_INI)
    out, manifest = tmp_path / "cycles.csv", tmp_path / "run.manifest.json"
    assert run_cli("campaign", "--config", cfg, "--out", out, "--manifest-out", manifest) == 2
    err = capsys.readouterr().err
    assert "error: cycle 6491: the Ramsey phase is not finite" in err
    assert "usable" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.ini"]


def rerun_edited_campaign(tmp_path, capsys, field, value) -> str:
    """Rerun a fresh campaign's manifest with one field edited; its stderr."""
    cfg = tmp_path / "c.ini"
    cfg.write_text(NOISELESS_INI)
    manifest = tmp_path / "m.json"
    out = tmp_path / "cycles.csv"
    assert run_cli("campaign", "--config", cfg, "--out", out, "--manifest-out", manifest) == 0
    out.unlink()
    recorded = json.loads(manifest.read_text())
    recorded["config"]["campaign"][field] = value
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("neutrons_per_cycle", 10000.5),
        ("neutrons_per_cycle", True),
        ("cycles", 4.0),
        ("cycles", 2**50),
        ("seed", 1.5),
    ],
)
def test_campaign_rerun_refuses_edited_counts(tmp_path, capsys, field, value):
    assert field in rerun_edited_campaign(tmp_path, capsys, field, value)


@pytest.mark.parametrize(
    "field, value",
    [("b_nominal", True), ("b_nominal", "1e-6"), ("visibility", False), ("true_dn", None)],
)
def test_campaign_rerun_refuses_edited_reals(tmp_path, capsys, field, value):
    # true would have rerun at 1 T with exit 0, and a string failed with a
    # Python TypeError text
    err = rerun_edited_campaign(tmp_path, capsys, field, value)
    assert err == f"error: config.campaign.{field} must be a finite number, got {value!r}\n"


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


# SHA-256 of the exact stdout of each report: a changed field, key or last
# bit fails here, as does a field added to FitResult, which fit's report is
REPORT_CASES = {
    "transition": (("transition", "--dn", "3e-22", "--delta", "1e-21",
                    "--pulse-integral", "2e6", "--check-oracle"), 0,
                   "1b1f53e4f36e570c93e2575642cac682eaca7ffcaf4f19c009edebbd1bd657f1"),
    "contrast": (("contrast", "--dn", "1e-22", "--delta", "1e-21", "--xi", "1e21",
                  "--trials", "1000", "--seed", "7"), 0,
                 "aa7baebd4d0e94ada126f05a64f987b27e388be9f3bdbf7e6d877bc52e9607f5"),
    "fit": (("fit", "--data", "interior.csv"), 0,
            "796b43276da97e073b4f4343caa499536647ea65a52934c3fcd18c624d826869"),
    "fit-zero-flips": (("fit", "--data", "zero.csv"), 4,
                       "2bc587fc336f351c8d5ce89b876525e16e9707bfaf19c3a57260e03866612af2"),
    "bound": (("bound", "--data", "interior.csv", "--resolution", "1e-5"), 0,
              "241abeaf6d03aae7c258934a5a3e305e1c0e3c2ddb20eb60d6488fda5308e02f"),
    "bound-zero-flips": (("bound", "--data", "design.csv", "--cl", "0.95"), 0,
                         "82e25738a42d8bca02eaf4938c0685608fc0de903356d0d253e78c0e73bf6d8b"),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_bytes(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    write_flip_csv(tmp_path / "interior.csv", INTERIOR_POINTS)
    write_flip_csv(tmp_path / "zero.csv", [(1e20, 1000, 0), (1e21, 1000, 0)])
    write_flip_csv(tmp_path / "design.csv", zero_flip_points())
    argv, code, digest = REPORT_CASES[case]
    assert run_cli(*argv) == code
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


def test_missing_data_file_exits_3(tmp_path, capsys):
    assert run_cli("fit", "--data", tmp_path / "nope.csv") == 3


def test_bad_dataset_header_exits_2(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    data.write_text("a,b,c\n1,2,3\n")
    assert run_cli("fit", "--data", data) == 2


@pytest.mark.parametrize("command", ["fit", "bound"])
def test_dataset_without_rows_exits_2(tmp_path, capsys, command):
    data = tmp_path / "flips.csv"
    data.write_text("xi,trials,flips\n")
    assert run_cli(command, "--data", data) == 2
    assert capsys.readouterr().err == f"error: flip dataset {data} contains no data rows\n"


@pytest.mark.parametrize("command", ["fit", "bound"])
def test_short_dataset_row_exits_2(tmp_path, capsys, command):
    data = tmp_path / "flips.csv"
    data.write_text("xi,trials,flips\n1e21,100\n")
    assert run_cli(command, "--data", data) == 2
    assert "CSV line 2 has 2 cells, expected 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "bound"])
@pytest.mark.parametrize(
    "row, error",
    [
        ("1e20,100.7,3.9", "trials must be integers in the int64 range, got 100.7"),
        ("1e20,inf,0", "trials must be integers in the int64 range, got inf"),
        ("1e20,1e30,0", "trials must be integers in the int64 range, got 1e+30"),
    ],
)
def test_non_integer_dataset_counts_exit_2(tmp_path, capsys, command, row, error):
    data = tmp_path / "flips.csv"
    data.write_text(f"xi,trials,flips\n1e21,100,0\n{row}\n")
    assert run_cli(command, "--data", data) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("command", ["fit", "bound"])
def test_dataset_xi_beyond_the_double_range_exits_2(tmp_path, capsys, command):
    # bad file input exits 2, as a nan xi does; no OverflowError escapes
    data = tmp_path / "flips.csv"
    data.write_text(f"xi,trials,flips\n{10**400},10,0\n1e20,10,1\n")
    assert run_cli(command, "--data", data) == 2
    assert capsys.readouterr().err == "error: xi must lie in the double range\n"


def test_flip_file_cells_reach_the_manifest_unchanged(tmp_path, capsys):
    # an integral float and the largest int64 share the trials column, and
    # each keeps its exact value; a negative and a subnormal xi pass as written
    data = tmp_path / "flips.csv"
    data.write_text("xi,trials,flips\n1e21,1e3,0\n-2e20,9223372036854775807,0\n5e-324,7,0\n")
    manifest, report = tmp_path / "m.json", tmp_path / "r.json"
    assert run_cli("bound", "--data", data, "--manifest-out", manifest, "--out", report) == 0
    recorded = json.loads(manifest.read_text())["config"]["dataset"]
    assert recorded == {"xi": [1e21, -2e20, 5e-324], "trials": [1000, 2**63 - 1, 7],
                        "flips": [0, 0, 0]}
    assert all(type(n) is int for n in recorded["trials"] + recorded["flips"])
    dataset = FlipDataset(*zip(*parse_csv(data.read_text(), FLIPS_HEADER)))
    assert recorded == {"xi": dataset.xi.tolist(), "trials": dataset.trials.tolist(),
                        "flips": dataset.flips.tolist()}
    written = report.read_bytes()
    assert run_cli("rerun", manifest) == 0
    assert report.read_bytes() == written


def test_rerun_manifest_with_non_integer_trials_exits_2(tmp_path, capsys):
    data = tmp_path / "flips.csv"
    write_flip_csv(data, zero_flip_points())
    manifest = tmp_path / "m.json"
    assert run_cli("bound", "--data", data, "--manifest-out", manifest) == 0
    recorded = json.loads(manifest.read_text())
    recorded["config"]["dataset"]["trials"][0] += 0.5
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert "trials must be integers in the int64 range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, nodes",
    [
        # xi*delta = 8.8e5: 2^20 panels of 24 nodes
        (("transition", "--dn", "1e-26", "--delta", "1e-15", "--pulse-integral", "1e6",
          "--check-oracle"), 25_165_824),
        # xi*delta = 1e5, beyond the ~33,600 that NODE_COUNT_MAX nodes sample
        (("scan", "--dn", "0", "--delta", "1e-15", "--xi-min", "1e13", "--xi-max", "1e20",
          "--points", "2"), 2_359_296),
    ],
    # the ids are the names these cases had when the oracle was a Gauss-Hermite
    # rule and each id carried that rule's node count; they are kept stable
    ids=["argv0-8771505", "argv1-10011"],
)
def test_oracle_above_node_ceiling_exits_2(tmp_path, capsys, monkeypatch, argv, nodes):
    def refuse(panels):
        raise AssertionError(f"built a {panels}-panel rule above the ceiling")

    monkeypatch.setattr("nedmsim.weak_measurement._panel_rule", refuse)
    manifest = tmp_path / "m.json"
    assert run_cli(*argv, "--out", tmp_path / "out", "--manifest-out", manifest) == 2
    err = capsys.readouterr().err
    assert f"node_count = {nodes} exceeds" in err and f"{NODE_COUNT_MAX} nodes" in err
    assert not manifest.exists()


def test_scan_across_former_aliasing_band(tmp_path):
    # xi*delta from 10 to 66: a single rule sized for the largest point once
    # reported 0.32 against a closed-form 0 at xi*delta = 52.7
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--dn", "1e-22", "--delta", "1e-21", "--xi-min", "1e19",
                   "--xi-max", "6.6e22", "--points", "40", "--log", "--out", out) == 0
    rows = parse_csv(out.read_text(), SCAN_HEADER)
    assert len(rows) == 40
    assert max(row[3] for row in rows) <= 1e-10


def test_oracle_runs_no_eigensolve(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert run_cli("scan", "--dn", "3e-14", "--delta", "1e-13", "--xi-min", "1e11",
                   "--xi-max", "1e15", "--points", "50", "--log",
                   "--out", tmp_path / "scan.csv") == 0
    assert run_cli("transition", "--dn", "1e-26", "--delta", "1e-15", "--xi", "1e16",
                   "--check-oracle") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["nodes"] == required_node_count(1e16, 1e-15)
    assert record["abs_diff"] <= 1e-10


def test_transition_reports_the_nodes_the_oracle_evaluates(capsys, monkeypatch):
    # at xi = 0 with delta > 0 the smallest rule still runs: 3 panels of 24
    assert run_cli("transition", "--dn", "1e-26", "--delta", "1e-15", "--xi", "0",
                   "--check-oracle") == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 72

    def refuse(panels):
        raise AssertionError(f"built a {panels}-panel rule for a point evaluation")

    # at delta = 0 the oracle is a point evaluation and builds no rule
    monkeypatch.setattr("nedmsim.weak_measurement._panel_rule", refuse)
    assert run_cli("transition", "--dn", "1e-26", "--delta", "0", "--xi", "1e13",
                   "--check-oracle") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["nodes"] == 0
    assert record["p_quadrature"] == pytest.approx(record["p"], rel=1e-15)


ORACLE_RUNS = {
    # xi*delta = 10 needs 288 nodes, more than the old --nodes default of 200
    "transition": ("transition", "--dn", "1e-26", "--delta", "1e-15", "--xi", "1e16",
                   "--check-oracle"),
    # xi*delta from 10 to 66, across the band a single rule once aliased; in
    # 0.9.0 its CSV was the same at every --nodes value
    "scan": ("scan", "--dn", "1e-22", "--delta", "1e-21", "--xi-min", "1e19",
             "--xi-max", "6.6e22", "--points", "40", "--log"),
}
ALIASING_BAND_SCAN_DIGEST = "1925990e9568719620240404846129524edb657236af10cddd8b431b360415a5"


@pytest.mark.parametrize("nodes", [2, 200, 200000])
@pytest.mark.parametrize("command", sorted(ORACLE_RUNS))
def test_manifest_with_nodes_key_reruns_to_fresh_bytes(tmp_path, capsys, command, nodes):
    # manifests written before 0.10.0 record "nodes", the most nodes a point
    # could use; it never changed an output, and rerun ignores it
    out, manifest = tmp_path / "out", tmp_path / "m.json"
    assert run_cli(*ORACLE_RUNS[command], "--out", out, "--manifest-out", manifest) == 0
    fresh = out.read_bytes()
    if command == "scan":
        assert hashlib.sha256(fresh).hexdigest() == ALIASING_BAND_SCAN_DIGEST
    recorded = json.loads(manifest.read_text())
    assert "nodes" not in recorded["config"]
    recorded["config"]["nodes"] = nodes
    manifest.write_text(json.dumps(recorded))
    out.unlink()
    assert run_cli("rerun", manifest) == 0
    assert out.read_bytes() == fresh


@pytest.mark.parametrize("command", sorted(ORACLE_RUNS))
def test_nodes_flag_is_refused(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as err:
        run_cli(*ORACLE_RUNS[command], "--nodes", "200", "--out", tmp_path / "out")
    assert err.value.code == 2
    assert "unrecognized arguments: --nodes 200" in capsys.readouterr().err


@pytest.mark.parametrize(
    "points, message",
    [
        (0, "--points must be >= 1"),
        (SCAN_POINTS_MAX + 1, f"--points must be <= {SCAN_POINTS_MAX}"),
        # numpy failed to allocate the grid and exited 1 with a traceback
        (10**12, f"--points must be <= {SCAN_POINTS_MAX}"),
    ],
)
def test_scan_points_out_of_range_exits_2(tmp_path, capsys, points, message):
    out, manifest = tmp_path / "scan.csv", tmp_path / "m.json"
    assert run_cli("scan", "--dn", "0", "--delta", "1e-15", "--xi-min", "1e13",
                   "--xi-max", "1e14", "--points", points, "--out", out,
                   "--manifest-out", manifest) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not manifest.exists()


SCAN_ARGV = ("scan", "--dn", "3e-22", "--delta", "1e-21", "--xi-min", "1e19",
             "--xi-max", "1e22", "--points", "3", "--log")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("points", 0, "config.points must be >= 1"),
        ("points", 10**12, f"config.points must be <= {SCAN_POINTS_MAX}"),
        ("points", 1000.5, "config.points must be an int, got 1000.5"),
        ("points", True, "config.points must be an int, got True"),
        ("xi_min", 1e23, "config.xi_max must be >= config.xi_min"),
        ("spacing", "cubic", "config.spacing must be 'log' or 'linear', got 'cubic'"),
        ("xi_min", 0.0, "log spacing requires config.xi_min > 0"),
        ("dn", True, "config.dn must be a finite number, got True"),
        ("delta", "1e-21", "config.delta must be a finite number, got '1e-21'"),
    ],
)
def test_scan_rerun_checks_the_manifest(tmp_path, capsys, key, value, message):
    # each value reran unchecked: 10**12 points exited 1 with numpy's memory
    # error, 0 points wrote a header-only table, xi_min > xi_max a descending
    # one, and "cubic" a linear one
    out, manifest = tmp_path / "scan.csv", tmp_path / "m.json"
    assert run_cli(*SCAN_ARGV, "--out", out, "--manifest-out", manifest) == 0
    out.unlink()
    recorded = json.loads(manifest.read_text())
    recorded["config"][key] = value
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


TRANSITION_ARGV = ("transition", "--dn", "1e-26", "--delta", "1e-15", "--xi", "1e13")
CONTRAST_ARGV = ("contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14",
                 "--trials", "1000", "--seed", "3")


@pytest.mark.parametrize(
    "argv, key, value, message",
    [
        # reran with exit 0 and p computed at d_n = 1
        (TRANSITION_ARGV, "dn", True, "config.dn must be a finite number, got True"),
        # exited 2 with the Python text "must be real number, not str"
        (TRANSITION_ARGV, "delta", "1e-15", "config.delta must be a finite number, got '1e-15'"),
        # ran the oracle
        (TRANSITION_ARGV, "check_oracle", "no",
         "config.check_oracle must be true or false, got 'no'"),
        ((*TRANSITION_ARGV[:5], "--pulse-integral", "1e6"), "xi", 1e13,
         "config.xi must be 8.77149470541207e+20, the xi of config.pulse_integral"),
        # reran with exit 0 and wrote 1000.7 in the trials column
        (CONTRAST_ARGV, "trials", 1000.7, "config.trials must be an int, got 1000.7"),
        (CONTRAST_ARGV, "seed", 1.5, "config.seed must be an int, got 1.5"),
        (CONTRAST_ARGV, "xi", None, "config.xi must be a finite number, got None"),
    ],
    ids=["transition-dn-true", "transition-delta-str", "transition-check-oracle-str",
         "transition-xi-not-of-pulse", "contrast-trials-float", "contrast-seed-float",
         "contrast-xi-null"],
)
def test_rerun_checks_transition_and_contrast_manifests(tmp_path, capsys, argv, key, value,
                                                        message):
    out, manifest = tmp_path / "out", tmp_path / "m.json"
    assert run_cli(*argv, "--out", out, "--manifest-out", manifest) == 0
    out.unlink()
    recorded = json.loads(manifest.read_text())
    recorded["config"][key] = value
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def fresh_argv(tmp_path, command):
    """Inputs of a fit, bound or campaign that exits 0, written to tmp_path."""
    if command == "campaign":
        cfg = tmp_path / "c.ini"
        cfg.write_text(NOISELESS_INI)
        return ("campaign", "--config", cfg)
    data = tmp_path / "flips.csv"
    write_flip_csv(data, INTERIOR_POINTS[::2] if command == "fit" else zero_flip_points())
    return (command, "--data", data)


@pytest.mark.parametrize(
    "command, flag",
    [("transition", "--out"), ("contrast", "--out"), ("scan", "--out"), ("campaign", "--out"),
     ("campaign", "--summary-out"), ("fit", "--out"), ("bound", "--out")],
    ids=["transition", "contrast", "scan", "campaign-out", "campaign-summary-out", "fit", "bound"],
)
def test_unwritable_output_exits_3_and_leaves_no_manifest(tmp_path, capsys, command, flag):
    fixed = {"transition": TRANSITION_ARGV, "contrast": CONTRAST_ARGV, "scan": SCAN_ARGV}
    argv = fixed.get(command) or fresh_argv(tmp_path, command)
    outputs = {"--out": tmp_path / "out", flag: tmp_path / "missing-dir" / "out"}
    manifest = tmp_path / "m.json"
    assert run_cli(*argv, *[a for pair in outputs.items() for a in pair],
                   "--manifest-out", manifest) == 3
    assert "No such file or directory" in capsys.readouterr().err
    # no file is renamed into place until all are written, so a run whose
    # output failed has no manifest to rerun
    assert not manifest.exists()


def test_unwritable_output_leaves_none_of_the_runs_files(tmp_path, monkeypatch, capsys):
    # the summary's directory is missing: the cycle table, written first, is
    # never renamed into place, and no temporary file is left
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(NOISELESS_INI)
    assert run_cli("campaign", "--config", "c.ini", "--out", "cy.csv",
                   "--summary-out", "nope/s.json", "--manifest-out", "m.json") == 3
    assert "No such file or directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.ini"]
    # a summary path that is a directory fails at its rename: the cycle table,
    # already renamed, is removed again
    (tmp_path / "s.json").mkdir()
    assert run_cli("campaign", "--config", "c.ini", "--out", "cy.csv",
                   "--summary-out", "s.json", "--manifest-out", "m.json") == 3
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "s.json"]
    assert list((tmp_path / "s.json").iterdir()) == []
    # a report bound for stdout is printed only once the manifest is written
    assert run_cli(*TRANSITION_ARGV, "--manifest-out", "nope/m.json") == 3
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "s.json"]


@pytest.mark.parametrize(
    "argv, flag, source",
    [
        (("fit", "--data", "d.csv"), "--out", "--data"),
        (("bound", "--data", "d.csv"), "--out", "--data"),
        (("fit", "--data", "d.csv", "--config", "c.ini"), "--out", "--config"),
        (("campaign", "--config", "c.ini"), "--out", "--config"),
        (("campaign", "--config", "c.ini", "--out", "cycles.csv"), "--summary-out", "--config"),
    ],
    ids=["fit-data", "bound-data", "fit-config", "campaign-config-out",
         "campaign-config-summary-out"],
)
def test_an_output_on_the_runs_input_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                                argv, flag, source):
    # fit --data d.csv --out d.csv replaced the flip table with the report, and
    # campaign --out c.ini replaced the INI with the cycle table
    monkeypatch.chdir(tmp_path)
    write_flip_csv(tmp_path / "d.csv", INTERIOR_POINTS)
    (tmp_path / "c.ini").write_text(NOISELESS_INI if argv[0] == "campaign" else "[inference]\n")
    inputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    target = argv[argv.index(source) + 1]
    assert run_cli(*argv, flag, target, "--manifest-out", "m.json") == 2
    assert capsys.readouterr() == ("", f"error: {flag} and {source} both name {target!r}\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == inputs


FIT_XI = [k * 1.25e20 for k in (1, 3, 5, 7)]


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        # reran with exit 0: a null dn_max is upper_bound's derived ceiling,
        # and numpy took true as 1 and "1e20" as 1e20
        ("bound", "dn_max", None, "config.dn_max must be a finite number, got None"),
        ("bound", "dn_max", True, "config.dn_max must be a finite number, got True"),
        ("fit", "dataset.xi", [True, *FIT_XI[1:]],
         f"config.dataset.xi must be a list of finite numbers, got {[True, *FIT_XI[1:]]!r}"),
        ("fit", "dataset.xi", ["1e20", *FIT_XI[1:]],
         f"config.dataset.xi must be a list of finite numbers, got {['1e20', *FIT_XI[1:]]!r}"),
        ("fit", "dataset.flips", [True, 12611, 35019, 67151],
         "config.dataset.flips must be a list of finite numbers, got [True, 12611, 35019, 67151]"),
        ("campaign", "units.geometric_factor", True,
         "config.units.geometric_factor must be a finite number, got True"),
        # exited 2 with a Python error text
        ("bound", "cl", "0.95", "config.cl must be a finite number, got '0.95'"),
        ("fit", "search.grid_points", 4.5, "config.search.grid_points must be an int, got 4.5"),
        ("bound", "delta_max", "1", "config.delta_max must be a finite number, got '1'"),
        ("campaign", "units.geometric_factor", "0.5",
         "config.units.geometric_factor must be a finite number, got '0.5'"),
        ("campaign", "constants.mu_n", None, "config.constants.mu_n must be a finite number, got None"),
        ("campaign", "outputs.summary", ["x"], "config.outputs.summary must be a path, got ['x']"),
    ],
    ids=["bound-dn-max-null", "bound-dn-max-true", "fit-xi-true", "fit-xi-str", "fit-flips-true",
         "campaign-geometric-factor-true", "bound-cl-str", "fit-grid-points-float",
         "bound-delta-max-str", "campaign-geometric-factor-str", "campaign-mu-n-null",
         "campaign-summary-list"],
)
def test_rerun_checks_fit_bound_and_campaign_manifests(tmp_path, capsys, command, key, value,
                                                       message):
    out, summary, manifest = tmp_path / "out", tmp_path / "out.summary.json", tmp_path / "m.json"
    assert run_cli(*fresh_argv(tmp_path, command), "--out", out, "--manifest-out", manifest) == 0
    out.unlink()
    summary.unlink(missing_ok=True)
    recorded = json.loads(manifest.read_text())
    *tables, leaf = key.split(".")
    table = recorded["config"]
    for part in tables:
        table = table[part]
    table[leaf] = value
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("command, table", [("fit", "dataset"), ("fit", "search"),
                                            ("bound", "dataset")])
def test_rerun_refuses_unknown_keys_in_nested_tables(tmp_path, capsys, command, table):
    # fit and bound pass these tables to the library as keywords
    out, manifest = tmp_path / "out", tmp_path / "m.json"
    assert run_cli(*fresh_argv(tmp_path, command), "--out", out, "--manifest-out", manifest) == 0
    out.unlink()
    recorded = json.loads(manifest.read_text())
    recorded["config"][table]["weights"] = [1.0]
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr().err == f"error: config.{table} has an unknown key 'weights'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # the nested search.dn_max is set by --dn-max; SearchBox's own check
        # would name the field, dn_max, not the flag
        (("fit", "--dn-max", "inf"), "--dn-max must be a finite number, got inf"),
        (("fit", "--dn-min", "nan"), "--dn-min must be a finite number, got nan"),
        (("bound", "--delta-max", "inf"), "--delta-max must be a finite number, got inf"),
        (("bound", "--cl", "nan"), "--cl must be a finite number, got nan"),
        # a finite --cl outside (0, 1) is refused by fit, which names its keyword
        (("fit", "--cl", "1.5"), "interval_cl must lie in (0, 1)"),
    ],
    ids=["fit-dn-max-inf", "fit-dn-min-nan", "bound-delta-max-inf", "bound-cl-nan",
         "fit-cl-1.5"],
)
def test_fit_and_bound_flags_are_named_in_errors(tmp_path, capsys, argv, message):
    data, manifest = tmp_path / "flips.csv", tmp_path / "m.json"
    write_flip_csv(data, INTERIOR_POINTS)
    assert run_cli(*argv, "--data", data, "--manifest-out", manifest) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not manifest.exists()


@pytest.mark.parametrize("command, key", [("fit", ("search", "dn_max")), ("bound", ("dn_max",))],
                         ids=["fit", "bound"])
def test_dn_max_whose_phase_overflows_exits_2_fresh_and_on_rerun(tmp_path, capsys, command, key):
    # fit exited 0 with a NaN max_log_likelihood and numpy's warning, and
    # bound exited 4 saying the statistic stayed below the threshold
    data, manifest, out = tmp_path / "flips.csv", tmp_path / "m.json", tmp_path / "out.json"
    write_flip_csv(data, [(1e20, 1000, 10), (2e20, 1000, 30)])
    error = "error: xi and the phase d_n*xi must be finite (d_n = 1e+300)\n"
    assert run_cli(command, "--data", data, "--dn-max", "1e300", "--out", out,
                   "--manifest-out", manifest) == 2
    assert capsys.readouterr() == ("", error)
    assert not out.exists() and not manifest.exists()
    assert run_cli(command, "--data", data, "--out", out, "--manifest-out", manifest) == 0
    out.unlink()
    recorded = json.loads(manifest.read_text())
    table = recorded["config"]
    for part in key[:-1]:
        table = table[part]
    table[key[-1]] = 1e300
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr() == ("", error)
    assert not out.exists()


GRID_ERROR = f"error: grid_points must lie in [4, {GRID_POINTS_MAX}]\n"


def test_fit_grid_above_the_ceiling_exits_2_by_flag_config_and_rerun(tmp_path, capsys):
    # SearchBox refuses the value before any grid is built; 10**6 points
    # asked numpy for 29 TiB
    data, manifest = tmp_path / "flips.csv", tmp_path / "m.json"
    write_flip_csv(data, INTERIOR_POINTS)
    above = GRID_POINTS_MAX + 1
    assert run_cli("fit", "--data", data, "--grid", above, "--manifest-out", manifest) == 2
    assert capsys.readouterr() == ("", GRID_ERROR)
    assert not manifest.exists()
    ini = tmp_path / "inf.ini"
    ini.write_text(f"[inference]\ngrid_points = {above}\n")
    assert run_cli("fit", "--data", data, "--config", ini, "--manifest-out", manifest) == 2
    assert capsys.readouterr() == ("", GRID_ERROR)
    assert not manifest.exists()
    assert run_cli("fit", "--data", data, "--manifest-out", manifest) == 0
    recorded = json.loads(manifest.read_text())
    recorded["config"]["search"]["grid_points"] = above
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr() == ("", GRID_ERROR)


def test_campaign_neutrons_above_int64_exit_2_fresh_and_on_rerun(tmp_path, capsys):
    # numpy's count draw exited 1 with "Python int too large to convert to C long"
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"{NOISELESS_INI}neutrons_per_cycle = {2**63}\n")
    out = tmp_path / "cycles.csv"
    assert run_cli("campaign", "--config", cfg, "--out", out) == 2
    assert "neutrons_per_cycle must lie in [1, 2**63 - 1]" in capsys.readouterr().err
    assert not out.exists()
    err = rerun_edited_campaign(tmp_path, capsys, "neutrons_per_cycle", 2**63)
    assert err == "error: neutrons_per_cycle must lie in [1, 2**63 - 1]\n"


@pytest.mark.parametrize("mode", ["binomial", "poisson", "expected"])
def test_campaign_at_the_int64_neutron_limit_exits_0_or_2(tmp_path, capsys, mode):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[campaign]\ncycles = 2\nneutrons_per_cycle = {2**63 - 1}\n"
                   f"counting_mode = {mode}\n")
    assert run_cli("campaign", "--config", cfg, "--out", tmp_path / "cycles.csv") in (0, 2)


def test_campaign_poisson_mean_limit_fresh_and_on_rerun(tmp_path, capsys):
    # numpy's own refusal, "lam value too large", named no field
    largest = 9223372006484771328
    cfg, manifest = tmp_path / "c.ini", tmp_path / "m.json"
    outputs = [tmp_path / "cycles.csv", tmp_path / "cycles.summary.json"]
    ini = "[campaign]\ncycles = 2\ncounting_mode = poisson\nneutrons_per_cycle = {}\n"
    cfg.write_text(ini.format(largest))
    assert run_cli("campaign", "--config", cfg, "--out", outputs[0],
                   "--manifest-out", manifest) == 0
    fresh = [path.read_bytes() for path in outputs]
    for path in outputs:
        path.unlink()
    assert run_cli("rerun", manifest) == 0
    assert [path.read_bytes() for path in outputs] == fresh
    for path in outputs:
        path.unlink()
    capsys.readouterr()

    cfg.write_text(ini.format(largest + 1))
    assert run_cli("campaign", "--config", cfg, "--out", outputs[0]) == 2
    assert "neutrons_per_cycle" in capsys.readouterr().err
    recorded = json.loads(manifest.read_text())
    recorded["config"]["campaign"]["neutrons_per_cycle"] = largest + 1
    manifest.write_text(json.dumps(recorded))
    assert run_cli("rerun", manifest) == 2
    assert "neutrons_per_cycle" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--xi-min", "1e22", "--xi-max", "1e19"), "--xi-max must be >= --xi-min"),
        (("--xi-min", "0", "--xi-max", "1e19", "--log"), "log spacing requires --xi-min > 0"),
        (("--xi-min", "1e19", "--xi-max", "inf"), "--xi-max must be a finite number, got inf"),
    ],
)
def test_scan_flags_are_checked_like_the_manifest(tmp_path, capsys, flags, message):
    out, manifest = tmp_path / "scan.csv", tmp_path / "m.json"
    assert run_cli("scan", "--dn", "0", "--delta", "1e-21", *flags, "--points", "3",
                   "--out", out, "--manifest-out", manifest) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not manifest.exists()


def test_scan_closed_column_is_the_scalar_closed_form(tmp_path):
    # p_closed is flip_probability at each float xi, byte for byte, and so
    # the array closed form over the grid: every square is a multiplication
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--dn", "3e-22", "--delta", "1e-21", "--xi-min", "1e19",
                   "--xi-max", "1e22", "--points", "500", "--log", "--out", out) == 0
    xis, p_closed, p_quad, _ = zip(*parse_csv(out.read_text(), SCAN_HEADER))
    state = DipoleState(3e-22, 1e-21)
    assert list(p_closed) == [flip_probability(state, x) for x in xis]
    assert list(p_quad) == [flip_probability_quadrature(state, x) for x in xis]
    assert flip_probability(state, np.array(xis)).tolist() == list(p_closed)


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


def test_rerun_manifest_of_unknown_command_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        {"schema": "nedmsim.manifest-json/1", "command": "simulate", "config": {}}
    ))
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr().err == "error: manifest names unknown command 'simulate'\n"


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
    assert err == "error: config.campaign has an unknown key 'bogus_key'\n"


def test_rerun_manifest_missing_campaign_key_exits_2(tmp_path, capsys):
    # reran with exit 0 at the field's default, which the recorded run need not have used
    cfg, out, manifest = tmp_path / "c.ini", tmp_path / "cycles.csv", tmp_path / "m.json"
    cfg.write_text(NOISELESS_INI)
    assert run_cli("campaign", "--config", cfg, "--out", out, "--manifest-out", manifest) == 0
    out.unlink()
    recorded = json.loads(manifest.read_text())
    del recorded["config"]["campaign"]["visibility"]
    manifest.write_text(json.dumps(recorded))
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr().err == (
        f"error: malformed manifest {manifest}: missing key 'visibility'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_internal_key_and_type_errors_propagate(tmp_path, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("internal")

    monkeypatch.setattr("nedmsim.cli.upper_bound", broken)
    data = tmp_path / "flips.csv"
    write_flip_csv(data, zero_flip_points())
    with pytest.raises(error):
        run_cli("bound", "--data", data)


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_internal_key_and_type_errors_propagate_on_rerun(tmp_path, monkeypatch, error):
    # a rerun once reported these as "malformed manifest ...: internal", exit 2
    data, manifest = tmp_path / "flips.csv", tmp_path / "m.json"
    write_flip_csv(data, zero_flip_points())
    assert run_cli("bound", "--data", data, "--manifest-out", manifest) == 0

    def broken(*args, **kwargs):
        raise error("internal")

    monkeypatch.setattr("nedmsim.cli.upper_bound", broken)
    with pytest.raises(error):
        run_cli("rerun", manifest)


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "nedmsim.__version__"}


@pytest.mark.parametrize(
    "argv, second",
    [
        (("transition", "--dn", "0", "--delta", "0", "--xi", "1e13"), "--manifest-out"),
        (("campaign", "--config", "c.ini"), "--summary-out"),
    ],
    ids=["transition", "campaign"],
)
def test_two_outputs_on_one_file_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys,
                                                          argv, second):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(NOISELESS_INI)
    # one file, spelled two ways
    assert run_cli(*argv, "--out", "a.out", second, "sub/../a.out") == 2
    assert capsys.readouterr().err == f"error: --out and {second} both name 'sub/../a.out'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


def test_rerun_of_two_outputs_on_one_file_exits_2_and_writes_nothing(tmp_path, capsys):
    report, manifest = tmp_path / "r.json", tmp_path / "m.json"
    assert run_cli("transition", "--dn", "1e-26", "--delta", "0", "--xi", "1e13",
                   "--out", report, "--manifest-out", manifest) == 0
    recorded = json.loads(manifest.read_text())
    recorded["config"]["outputs"]["report"] = str(manifest)
    manifest.write_text(json.dumps(recorded))
    report.unlink()
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr().err == (
        f"error: config.outputs.manifest and config.outputs.report both name {str(manifest)!r}\n"
    )
    assert json.loads(manifest.read_text()) == recorded
    assert not report.exists()


@pytest.mark.parametrize(
    "argv, flag, kind",
    [
        (TRANSITION_ARGV, "--out", "a path or null"),
        (TRANSITION_ARGV, "--manifest-out", "a path or null"),
        (("campaign", "--config", "c.ini"), "--out", "a path"),
    ],
    ids=["transition-out", "transition-manifest-out", "campaign-out"],
)
def test_an_empty_output_path_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                         argv, flag, kind):
    # --out "" aimed a temporary file at the parent directory and exited 3;
    # --manifest-out "" exited 0 and wrote no manifest
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(NOISELESS_INI)
    assert run_cli(*argv, flag, "") == 2
    assert capsys.readouterr() == ("", f"error: {flag} must be {kind}, got ''\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


@pytest.mark.parametrize("key", ["report", "manifest"])
def test_rerun_of_an_empty_output_path_exits_2_and_writes_nothing(tmp_path, capsys, key):
    report, manifest = tmp_path / "r.json", tmp_path / "m.json"
    assert run_cli(*TRANSITION_ARGV, "--out", report, "--manifest-out", manifest) == 0
    recorded = json.loads(manifest.read_text())
    recorded["config"]["outputs"][key] = ""
    manifest.write_text(json.dumps(recorded))
    report.unlink()
    capsys.readouterr()
    assert run_cli("rerun", manifest) == 2
    assert capsys.readouterr() == (
        "", f"error: config.outputs.{key} must be a path or null, got ''\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


# each subcommand's flags, as its --help lists them
FLAGS = {
    "transition": "--dn --delta --xi --pulse-integral --check-oracle --out --manifest-out",
    "contrast": "--dn --delta --xi --trials --seed --out --manifest-out",
    "scan": "--dn --delta --xi-min --xi-max --points --log --out --manifest-out",
    "campaign": "--config --summary-out --out --manifest-out",
    "fit": "--data --config --cl --dn-max --delta-min --delta-max --resolution --dn-min --grid "
           "--out --manifest-out",
    "bound": "--data --config --cl --dn-max --delta-min --delta-max --resolution "
             "--out --manifest-out",
    "rerun": "",
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_subcommand_takes_exactly_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", *FLAGS[command].split()}
