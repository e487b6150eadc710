"""Golden manifests: the resolved configuration each command records.

``rerun`` executes a manifest's ``config`` as written, so its layout and
its resolved defaults are a file format: a manifest written by an older
release must keep rerunning. Each case runs one command through ``main()``
on fixed inputs and pins the manifest it writes, field for field.
"""

import json

import pytest

import nedmsim
from nedmsim.cli import main
from nedmsim.formats import FLIPS_HEADER, render_csv

INTERIOR = [
    (2.5e20, 1000000, 41345),
    (5e20, 1000000, 133720),
    (7.5e20, 1000000, 216090),
    (1e21, 1000000, 248871),
]
ZERO = [(1e19, 400000, 0), (1e20, 200000, 0), (1e21, 100000, 0)]

CAMPAIGN_INI = """\
[campaign]
true_dn_e_cm = 2e-21
cycles = 4
seed = 5
b_drift_sd_tesla = 1e-12

[units]
geometric_factor = 0.5
"""

INFERENCE_INI = """\
[inference]
dn_max_e_cm = 2e-21
delta_min_e_cm = 1e-24
grid_points = 20
resolution = 1e-6
cl = 0.68
"""

SUMMARY = "nedmsim.summary-json/1"
INTERIOR_CFG = {
    "xi": [2.5e20, 5e20, 7.5e20, 1e21],
    "trials": [1000000] * 4,
    "flips": [41345, 133720, 216090, 248871],
}
ZERO_CFG = {"xi": [1e19, 1e20, 1e21], "trials": [400000, 200000, 100000], "flips": [0, 0, 0]}
# half a flip oscillation at the largest xi, 0.5*pi/1e21
DN_CEILING = 1.5707963267948965e-21

CASES = {
    "transition": (
        ["transition", "--dn", "1e-22", "--delta", "1e-22", "--pulse-integral", "1e6",
         "--check-oracle"],
        0,
        {"report": SUMMARY},
        {
            "dn": 1e-22,
            "delta": 1e-22,
            "xi": 8.77149470541207e20,
            "pulse_integral": 1e6,
            "check_oracle": True,
            "outputs": {"report": None},
        },
    ),
    "contrast": (
        ["contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14", "--trials", "1000",
         "--seed", "3", "--out", "contrast.csv"],
        0,
        {"table": "nedmsim.contrast-csv/1"},
        {
            "dn": 0.0,
            "delta": 1e-15,
            "xi": 1e14,
            "trials": 1000,
            "seed": 3,
            "outputs": {"table": "contrast.csv"},
        },
    ),
    "scan": (
        ["scan", "--dn", "3e-22", "--delta", "1e-21", "--xi-min", "1e19", "--xi-max", "1e21",
         "--points", "5", "--log", "--out", "scan.csv"],
        0,
        {"table": "nedmsim.scan-csv/1"},
        {
            "dn": 3e-22,
            "delta": 1e-21,
            "xi_min": 1e19,
            "xi_max": 1e21,
            "points": 5,
            "spacing": "log",
            "outputs": {"table": "scan.csv"},
        },
    ),
    "campaign": (
        ["campaign", "--config", "campaign.ini", "--out", "cycles.csv"],
        0,
        {"cycles": "nedmsim.cycles-csv/1", "summary": SUMMARY},
        {
            "campaign": {
                "true_dn": 2e-21,
                "b_nominal": 1e-6,
                "b_drift_sd": 1e-12,
                "e_magnitude": 1e4,
                "free_time": 105.0,
                "neutrons_per_cycle": 10000,
                "cycles": 4,
                "visibility": 1.0,
                "delta_r_sys": 0.0,
                "f_hg_noise_sd": 0.0,
                "seed": 5,
                "counting_mode": "binomial",
            },
            "units": {"phase_per_edm_field_time": 1519267448809510.5, "geometric_factor": 0.5},
            "constants": {
                "gamma_n": -183247171.0,
                "gamma_hg": 47690098.26888387,
                "mu_n": 91623585.5,
            },
            "outputs": {"cycles": "cycles.csv", "summary": "cycles.summary.json"},
        },
    ),
    "fit_flags": (
        ["fit", "--data", "interior.csv", "--dn-min", "1e-23", "--dn-max", "1e-21",
         "--delta-min", "1e-24", "--delta-max", "4e-21", "--grid", "16",
         "--resolution", "1e-6", "--cl", "0.9", "--out", "fit.json"],
        0,
        {"report": SUMMARY},
        {
            "dataset": INTERIOR_CFG,
            "search": {
                "dn_min": 1e-23,
                "dn_max": 1e-21,
                "delta_min": 1e-24,
                "delta_max": 4e-21,
                "grid_points": 16,
                "resolution": 1e-6,
            },
            "cl": 0.9,
            "outputs": {"report": "fit.json"},
        },
    ),
    "fit_config": (
        ["fit", "--data", "interior.csv", "--config", "inference.ini"],
        0,
        {"report": SUMMARY},
        {
            "dataset": INTERIOR_CFG,
            "search": {
                "dn_min": 0.0,
                "dn_max": 2e-21,
                "delta_min": 1e-24,
                "delta_max": 5e-21,
                "grid_points": 20,
                "resolution": 1e-6,
            },
            "cl": 0.68,
            "outputs": {"report": None},
        },
    ),
    "fit_defaults": (
        ["fit", "--data", "interior.csv"],
        0,
        {"report": SUMMARY},
        {
            "dataset": INTERIOR_CFG,
            "search": {
                "dn_min": 0.0,
                "dn_max": DN_CEILING,
                "delta_min": 0.0,
                "delta_max": 5e-21,
                "grid_points": 48,
                "resolution": 1e-7,
            },
            "cl": 0.95,
            "outputs": {"report": None},
        },
    ),
    "bound_flags": (
        ["bound", "--data", "zero.csv", "--cl", "0.9", "--delta-min", "1e-24",
         "--delta-max", "2e-21", "--dn-max", "1e-19", "--resolution", "1e-6",
         "--out", "bound.json"],
        0,
        {"report": SUMMARY},
        {
            "dataset": ZERO_CFG,
            "cl": 0.9,
            "delta_min": 1e-24,
            "delta_max": 2e-21,
            "dn_max": 1e-19,
            "resolution": 1e-6,
            "outputs": {"report": "bound.json"},
        },
    ),
    "bound_config": (
        ["bound", "--data", "zero.csv", "--config", "inference.ini"],
        0,
        {"report": SUMMARY},
        {
            "dataset": ZERO_CFG,
            "cl": 0.68,
            "delta_min": 1e-24,
            "delta_max": 1e-21,
            "dn_max": 2e-21,
            "resolution": 1e-6,
            "outputs": {"report": None},
        },
    ),
    "bound_defaults": (
        ["bound", "--data", "zero.csv"],
        0,
        {"report": SUMMARY},
        {
            "dataset": ZERO_CFG,
            "cl": 0.95,
            "delta_min": 0.0,
            "delta_max": 1e-21,
            "dn_max": DN_CEILING,
            "resolution": 1e-7,
            "outputs": {"report": None},
        },
    ),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "interior.csv").write_text(render_csv(FLIPS_HEADER, [list(p) for p in INTERIOR]))
    (tmp_path / "zero.csv").write_text(render_csv(FLIPS_HEADER, [list(p) for p in ZERO]))
    (tmp_path / "campaign.ini").write_text(CAMPAIGN_INI)
    (tmp_path / "inference.ini").write_text(INFERENCE_INI)
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_manifest_config_is_pinned(case, workdir, capsys):
    argv, exit_code, formats, config = CASES[case]
    manifest_path = f"{case}.manifest.json"
    assert main([*argv, "--manifest-out", manifest_path]) == exit_code
    capsys.readouterr()
    manifest = json.loads((workdir / manifest_path).read_text())
    expected_config = dict(config, outputs=dict(config["outputs"], manifest=manifest_path))
    assert manifest == {
        "schema": "nedmsim.manifest-json/1",
        "artifact_version": nedmsim.__version__,
        "command": argv[0],
        "formats": formats,
        "config": expected_config,
    }


def rerun(workdir, capsys, manifest):
    """Exit code, stdout, stderr and every file's bytes after rerunning manifest."""
    (workdir / "rerun.json").write_text(json.dumps(manifest))
    code = main(["rerun", "rerun.json"])
    out, err = capsys.readouterr()
    return code, out, err, {path.name: path.read_bytes() for path in workdir.iterdir()}


def fresh_manifest(case, workdir, capsys):
    argv, exit_code, _, _ = CASES[case]
    assert main([*argv, "--manifest-out", "rerun.json"]) == exit_code
    capsys.readouterr()
    return json.loads((workdir / "rerun.json").read_text())


def version_note(written):
    return (f"note: rerun.json was written by nedmsim {written}, this is nedmsim "
            f"{nedmsim.__version__}; where versions or formats differ, outputs may too "
            "(CHANGES.md lists what moved)\n")


@pytest.mark.parametrize("case", ["campaign", "fit_defaults"])
@pytest.mark.parametrize("edit", [{"artifact_version": "0.12.0"},
                                  {"formats": {"table": "nedmsim.scan-csv/0"}}])
def test_rerun_of_an_edited_golden_manifest_notes_it_and_writes_the_same_bytes(
        case, edit, workdir, capsys):
    manifest = fresh_manifest(case, workdir, capsys)
    same_version = rerun(workdir, capsys, manifest)
    code, out, err, files = rerun(workdir, capsys, {**manifest, **edit})
    assert err == version_note(edit.get("artifact_version", nedmsim.__version__))
    assert (code, out, files) == (same_version[0], same_version[1], same_version[3])


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_version_rerun_writes_nothing_to_stderr(case, workdir, capsys):
    assert rerun(workdir, capsys, fresh_manifest(case, workdir, capsys))[2] == ""


def test_rerun_of_a_manifest_without_artifact_version_gets_the_note(workdir, capsys):
    manifest = fresh_manifest("scan", workdir, capsys)
    del manifest["artifact_version"]
    code, _, err, _ = rerun(workdir, capsys, manifest)
    assert (code, err) == (0, version_note("unknown"))
