"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nedmsim
from nedmsim.comagnetometer import CampaignConfig, campaign_estimator, run_campaign
from nedmsim.ensemble import (
    expected_stochastic_fraction,
    simulate_quantum,
    simulate_stochastic,
)
from nedmsim.inference import FlipDataset, SearchBox, fit, upper_bound
from nedmsim.quantities import PhysicalConstants, UnitSystem
from nedmsim.spin_dynamics import (
    RamseyConfig,
    ramsey_phase,
    ramsey_up_probability_spinor,
    up_probability,
)
from nedmsim.streams import substream
from nedmsim.weak_measurement import (
    DipoleState,
    QuadratureSpec,
    flip_probability,
    flip_probability_quadrature,
)

XI_REF = 1e13
THREE_SIGMA_CL = 0.9973002039367398
# Criterion 9's children run from a temporary directory, where a relative
# PYTHONPATH entry such as ``src`` resolves to nothing; the absolute
# directory holding the imported package makes them run the code under test.
PACKAGE_ROOT = str(Path(nedmsim.__file__).resolve().parents[1])


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_oracle_agreement():
    start = time.perf_counter()
    spec = QuadratureSpec(node_count=200)
    worst = 0.0
    for dn_xi in (0.0, 0.01, 0.3, 1.0, 3.0):
        for delta_xi in (0.0, 0.01, 0.3, 1.0, 3.0, 5.0):
            state = DipoleState(dn_xi / XI_REF, delta_xi / XI_REF)
            diff = abs(
                flip_probability(state, XI_REF)
                - flip_probability_quadrature(state, XI_REF, spec)
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 60.0,
        f"max |closed - quadrature| = {worst:.3e} over the 5x6 grid "
        f"(tolerance 1e-10), {elapsed:.1f}s",
    )


def test_criterion_2_cp_null():
    start = time.perf_counter()
    closed_ok = True
    for delta in (0.0, 1e-16, 1e-15):
        for xi in np.geomspace(1e10, 1e16, 13):  # six decades
            closed_ok &= flip_probability(DipoleState(0.0, delta), float(xi)) == 0.0
    flips = 0
    for seed, delta in enumerate((0.0, 1e-16, 1e-15)):
        run = simulate_quantum(DipoleState(0.0, delta), 1e14, 10_000_000, seed=seed)
        flips += run.flips
    elapsed = time.perf_counter() - start
    _report(
        2,
        closed_ok and flips == 0 and elapsed < 60.0,
        f"closed form identically zero: {closed_ok}; quantum flips over "
        f"3x1e7 trials: {flips}; {elapsed:.1f}s",
    )


def test_criterion_3_model_contrast():
    start = time.perf_counter()
    xi, trials = 1e14, 10**6
    state = DipoleState(0.0, 0.1 / xi)  # xi*delta = 0.1
    expected = expected_stochastic_fraction(state, xi)
    assert expected == pytest.approx(0.5 * (1.0 - math.exp(-0.02)), rel=1e-12)
    quantum = simulate_quantum(state, xi, trials, seed=1)
    stochastic = simulate_stochastic(state, xi, trials, seed=1)
    se = math.sqrt(expected * (1.0 - expected) / trials)
    within = abs(stochastic.fraction - expected) <= 5.0 * se
    pooled = (quantum.flips + stochastic.flips) / (2.0 * trials)
    z = (stochastic.fraction - quantum.fraction) / math.sqrt(
        pooled * (1.0 - pooled) * 2.0 / trials
    )
    elapsed = time.perf_counter() - start
    _report(
        3,
        quantum.flips == 0 and within and z > 5.0 and elapsed < 30.0,
        f"quantum flips = {quantum.flips}, stochastic fraction = "
        f"{stochastic.fraction:.4e} (expected {expected:.4e}), separation "
        f"z = {z:.1f} sigma; {elapsed:.1f}s",
    )


def test_criterion_4_scale_invariance():
    rng = np.random.default_rng(2024)
    count = 10_000
    dn_xi = rng.uniform(0.0, 3.0, count)
    delta_xi = rng.uniform(0.0, 3.0, count)
    xi = 10.0 ** rng.uniform(10.0, 16.0, count)
    s = 10.0 ** rng.uniform(-10.0, 10.0, count)
    worst = 0.0
    for i in range(count):
        base = flip_probability(
            DipoleState(dn_xi[i] / xi[i], delta_xi[i] / xi[i]), xi[i]
        )
        scaled = flip_probability(
            DipoleState(s[i] * dn_xi[i] / xi[i], s[i] * delta_xi[i] / xi[i]),
            xi[i] / s[i],
        )
        if base > 0.0:
            worst = max(worst, abs(scaled - base) / base)
        else:
            worst = max(worst, abs(scaled - base))
    _report(
        4,
        worst <= 1e-12,
        f"max relative mismatch {worst:.3e} over {count} tuples, "
        f"s in [1e-10, 1e10] (tolerance 1e-12)",
    )


def test_criterion_5_joint_fit_recovery():
    start = time.perf_counter()
    xi_max = 1e21
    dn_true, delta_true = 0.3 / xi_max, 1.0 / xi_max
    xis = xi_max * np.arange(1, 9) / 8.0
    trials = 10**6
    box = SearchBox(dn_max=1.0 / xi_max, delta_max=3.0 / xi_max)
    state = DipoleState(dn_true, delta_true)
    p_true = flip_probability(state, xis)
    hits = 0
    seeds = 100
    for seed in range(seeds):
        rng = substream(20_250_815, 9, seed)
        flips = rng.binomial(trials, p_true)
        dataset = FlipDataset(xi=xis, trials=np.full(8, trials), flips=flips)
        result = fit(dataset, box, interval_cl=THREE_SIGMA_CL)
        if (
            result.dn_interval[0] <= dn_true <= result.dn_interval[1]
            and result.delta_interval[0] <= delta_true <= result.delta_interval[1]
        ):
            hits += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        hits >= 90 and elapsed < 600.0,
        f"both parameters inside their 3-sigma profile intervals in "
        f"{hits}/{seeds} seeds (need >= 90); {elapsed:.1f}s",
    )


def _zero_flip_dataset(xi_max: float, total_trials: float, seed: int) -> FlipDataset:
    """Zero-flip data generated by the quantum model at dn = 0."""
    xis = np.geomspace(xi_max / 100.0, xi_max, 8)
    weights = (xi_max / xis) ** 2
    trials = np.maximum(1, np.round(total_trials * weights / weights.sum())).astype(np.int64)
    flips = []
    for i, (x, n) in enumerate(zip(xis, trials)):
        run = simulate_quantum(
            DipoleState(0.0, 0.3 / xi_max), float(x), int(min(n, 10_000)), seed=seed + i
        )
        assert run.flips == 0  # the generator cannot produce flips at dn = 0
        flips.append(0)
    return FlipDataset(xi=xis, trials=trials, flips=np.asarray(flips, dtype=np.int64))


def test_criterion_6_bound_scaling_and_insensitivity():
    start = time.perf_counter()
    xi_max = 1e21
    seeds = 50

    def median_bound(total_trials: float, delta_hi: float) -> float:
        cache: dict[tuple, float] = {}
        values = []
        for seed in range(seeds):
            dataset = _zero_flip_dataset(xi_max, total_trials, seed=1000 * seed)
            key = (tuple(dataset.trials), tuple(dataset.flips))
            if key not in cache:
                cache[key] = upper_bound(
                    dataset, cl=0.95, delta_bounds=(0.0, delta_hi)
                )
            values.append(cache[key])
        return float(np.median(values))

    bound_small = median_bound(8e6, 1.0 / xi_max)
    bound_large = median_bound(8e8, 1.0 / xi_max)
    finite = 0.0 < bound_large < bound_small < math.inf
    medians = {
        mult: median_bound(8e6, mult / xi_max) for mult in (0.01, 0.1, 1.0)
    }
    spread = max(medians.values()) / min(medians.values())
    elapsed = time.perf_counter() - start
    _report(
        6,
        finite and spread < 1.10,
        f"CL-95 bound finite and shrinking: {bound_small:.3e} -> "
        f"{bound_large:.3e} e.cm at 100x trials; delta-profile spread over "
        f"two decades {100 * (spread - 1):.1f}% (< 10%); {elapsed:.1f}s",
    )


def test_criterion_7_comagnetometer_round_trip():
    start = time.perf_counter()
    # noiseless round trip
    noiseless = CampaignConfig(true_dn=5e-21, cycles=4, counting_mode="expected", seed=1)
    est0 = campaign_estimator(run_campaign(noiseless), noiseless)
    rel_err = abs(est0.dn_hat - noiseless.true_dn) / noiseless.true_dn
    # counting noise only: reported SE scales as 1/sqrt(cycles) over 1e2 -> 1e4
    small = CampaignConfig(true_dn=0.0, cycles=100, seed=7)
    large = CampaignConfig(true_dn=0.0, cycles=10_000, seed=7)
    se_small = campaign_estimator(run_campaign(small), small).standard_error
    est_large = campaign_estimator(run_campaign(large), large)
    se_ratio = se_small / est_large.standard_error
    null_ok = abs(est_large.dn_hat) < 4.0 * est_large.standard_error
    # mercury cancellation under a common-mode field shift (independent
    # seeds, so agreement is statistical rather than bitwise)
    constants = PhysicalConstants()
    shift = 100.0 * math.pi / (constants.mu_n * small.free_time)  # integer fringes
    shifted = CampaignConfig(true_dn=0.0, cycles=400, seed=1007, b_nominal=1e-6 + shift)
    base = CampaignConfig(true_dn=0.0, cycles=400, seed=7)
    est_a = campaign_estimator(run_campaign(base), base)
    est_b = campaign_estimator(run_campaign(shifted), shifted)
    pull = abs(est_a.dn_hat - est_b.dn_hat) / math.hypot(
        est_a.standard_error, est_b.standard_error
    )
    # and exactly, without counting noise
    exact_a = CampaignConfig(true_dn=5e-21, cycles=4, counting_mode="expected", seed=1)
    exact_b = CampaignConfig(
        true_dn=5e-21, cycles=4, counting_mode="expected", seed=1, b_nominal=1.5e-6
    )
    cancel_rel = abs(
        campaign_estimator(run_campaign(exact_a), exact_a).dn_hat
        - campaign_estimator(run_campaign(exact_b), exact_b).dn_hat
    ) / 5e-21
    elapsed = time.perf_counter() - start
    _report(
        7,
        rel_err <= 1e-10
        and 7.5 <= se_ratio <= 12.5
        and null_ok
        and pull < 5.0
        and cancel_rel < 1e-9,
        f"noiseless relative error {rel_err:.2e} (<= 1e-10); SE ratio over "
        f"1e2->1e4 cycles {se_ratio:.2f} (10 +/- 25%); null estimate within "
        f"4 SE: {null_ok}; common-mode shift pull {pull:.2f} sigma, noiseless "
        f"shift mismatch {cancel_rel:.2e}; {elapsed:.1f}s",
    )


def test_criterion_8_ramsey_consistency():
    units = UnitSystem()
    constants = PhysicalConstants()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(1000):
        config = RamseyConfig(
            b_field=rng.uniform(0.5e-6, 2e-6),
            e_field=rng.choice([-1.0, 1.0]) * rng.uniform(1e3, 2e4),
            free_time=rng.uniform(10.0, 200.0),
        )
        phi = ramsey_phase(config, rng.uniform(0.0, 1e-20), units, constants)
        diff = abs(ramsey_up_probability_spinor(phi) - up_probability(phi, 1.0))
        worst = max(worst, diff)
    _report(
        8,
        worst <= 1e-10,
        f"max |spinor pipeline - (1 + cos phi)/2| = {worst:.3e} over 1000 "
        f"random configurations (tolerance 1e-10)",
    )


def _run_cli(args, workdir, threads="1"):
    pythonpath = [PACKAGE_ROOT]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, NEDMSIM_THREADS=threads, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run(
        [sys.executable, "-m", "nedmsim.cli", *map(str, args)],
        capture_output=True,
        cwd=workdir,
        env=env,
    )
    return proc


def _stderr(proc) -> str:
    return proc.stderr.decode(errors="replace").strip()


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "campaign.ini"
    config.write_text("[campaign]\ntrue_dn_e_cm = 2e-21\ncycles = 6\nseed = 5\n")
    flips = tmp_path / "flips.csv"
    xis = np.geomspace(1e19, 1e21, 6)
    weights = (1e21 / xis) ** 2
    trials = np.maximum(1, np.round(1e6 * weights / weights.sum())).astype(int)
    rows = "\n".join(f"{float(x)!r},{int(n)},0" for x, n in zip(xis, trials))
    flips.write_text("xi,trials,flips\n" + rows + "\n")

    commands = {
        "transition": ["transition", "--dn", "1e-26", "--delta", "1e-15", "--xi", "1e13",
                       "--check-oracle", "--manifest-out", tmp_path / "m-transition.json"],
        "contrast": ["contrast", "--dn", "0", "--delta", "1e-15", "--xi", "1e14",
                     "--trials", str(2 * 65536 + 5), "--seed", "3",
                     "--manifest-out", tmp_path / "m-contrast.json"],
        "scan": ["scan", "--dn", "3e-22", "--delta", "1e-21", "--xi-min", "1e19",
                 "--xi-max", "1e21", "--points", "25", "--log",
                 "--out", tmp_path / "scan.csv", "--manifest-out", tmp_path / "m-scan.json"],
        "campaign": ["campaign", "--config", config, "--out", tmp_path / "cycles.csv",
                     "--manifest-out", tmp_path / "m-campaign.json"],
        "fit": ["fit", "--data", flips, "--manifest-out", tmp_path / "m-fit.json"],
        "bound": ["bound", "--data", flips, "--cl", "0.95",
                  "--manifest-out", tmp_path / "m-bound.json"],
    }
    tracked_files = {
        "scan": [tmp_path / "scan.csv"],
        "campaign": [tmp_path / "cycles.csv", tmp_path / "cycles.summary.json"],
    }

    # fit on the all-zero table does not converge: exit 4, as documented.
    expected_exit = {"fit": 4}

    all_ok = True
    details = []
    for name, args in commands.items():
        manifest = tmp_path / f"m-{name}.json"
        first = _run_cli(args, tmp_path, threads="1")
        expected = expected_exit.get(name, 0)
        if first.returncode != expected or not manifest.exists():
            all_ok = False
            details.append(
                f"{name}: exit {first.returncode} (expected {expected}), "
                f"manifest {'written' if manifest.exists() else 'missing'}; "
                f"stderr: {_stderr(first)}"
            )
            continue
        baseline_files = {p: p.read_bytes() for p in tracked_files.get(name, [])}
        for threads in ("1", "4"):
            rerun = _run_cli(["rerun", manifest], tmp_path, threads=threads)
            same = rerun.stdout == first.stdout and rerun.returncode == first.returncode
            for p, blob in baseline_files.items():
                same &= p.read_bytes() == blob
            if not same:
                all_ok = False
                details.append(f"{name}@threads={threads}; stderr: {_stderr(rerun)}")
    elapsed = time.perf_counter() - start
    _report(
        9,
        all_ok,
        "manifest reruns byte-identical at thread counts 1 and 4 for all "
        f"six commands; {elapsed:.1f}s"
        + (f" (failures: {' | '.join(details)})" if details else ""),
    )
