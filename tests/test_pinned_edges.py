"""Fit intervals and upper bounds pinned to values computed by nedmsim 0.3.0.

``pinned_edges.json`` holds, for a grid of fixed-seed flip tables, the
estimates and interval edges of ``fit`` at 3 sigma and 95%, and
``upper_bound`` at CL 0.9 and 0.95. The values were written by the
scalar-profile, 60-step-bisection optimizer of that version from the
builders below.

The optimizer may reach its values differently, but only within the
declared search resolution. Every edge and bound must stay within the
resolution times its axis width of the pinned value (``dn_max`` for a
bound). Of the estimates, ``dn_hat`` must stay within resolution times
the d_n width and ``max_log_likelihood`` within 1e-13 relative.
``delta_hat`` must stay within resolution times the delta width, or else
the likelihood must not tell the two apart: the log likelihood at the new
``dn_hat`` and the pinned ``delta_hat`` must be within 1e-13 relative of
the new maximum.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nedmsim.inference import (
    BOUND_DELTA_WIDTHS,
    FIT_DELTA_WIDTHS,
    RESOLUTION_DEFAULT,
    FlipDataset,
    SearchBox,
    fit,
    log_likelihood,
    search_ceilings,
    upper_bound,
)
from nedmsim.streams import substream
from nedmsim.weak_measurement import DipoleState, flip_probability

XI_MAX = 1e21
# relative agreement of log likelihoods of a few 1e6 summed over 8 points
LL_RTOL = 1e-13
THREE_SIGMA_CL = 0.9973002039367398
FIT_CLS = {"3sigma": THREE_SIGMA_CL, "95": 0.95}
BOUND_CLS = {"90": 0.9, "95": 0.95}
DN_XI = (0.0, 0.01, 0.3, 0.9)
DELTA_XI = (0.0, 0.3, 1.0, 2.5)
ZERO_FLIP_TRIALS = {"8e6": 8e6, "8e8": 8e8}
ZERO_FLIP_DELTA_WIDTHS = (0.01, 0.1, 1.0)

PINNED = json.loads((Path(__file__).parent / "pinned_edges.json").read_text())


def interior_dataset(dn_xi: float, delta_xi: float) -> FlipDataset:
    """Criterion 5's design (8 linear xi, 1e6 trials) at one grid truth."""
    xis = XI_MAX * np.arange(1, 9) / 8.0
    state = DipoleState(dn_xi / XI_MAX, delta_xi / XI_MAX)
    index = DN_XI.index(dn_xi) * len(DELTA_XI) + DELTA_XI.index(delta_xi)
    flips = substream(20_261_018, 9, index).binomial(10**6, flip_probability(state, xis))
    return FlipDataset(xi=xis, trials=np.full(8, 10**6), flips=flips)


def zero_flip_dataset(total_trials: float) -> FlipDataset:
    """Criterion 6's design: two log decades, equal dipole sensitivity."""
    xis = np.geomspace(XI_MAX / 100.0, XI_MAX, 8)
    weights = (XI_MAX / xis) ** 2
    trials = np.maximum(1, np.round(total_trials * weights / weights.sum())).astype(np.int64)
    return FlipDataset(xi=xis, trials=trials, flips=np.zeros(8, dtype=np.int64))


def fit_cases() -> dict[str, FlipDataset]:
    cases = {
        f"dn{dn}_delta{de}": interior_dataset(dn, de) for dn in DN_XI for de in DELTA_XI
    }
    for name, total in ZERO_FLIP_TRIALS.items():
        cases[f"zero_flip_{name}"] = zero_flip_dataset(total)
    return cases


def bound_cases() -> dict[str, tuple[FlipDataset, tuple[float, float]]]:
    """Each case's dataset and its delta profiling range."""
    cases = {}
    for name, dataset in fit_cases().items():
        if name.startswith("zero_flip"):
            continue
        _, delta_ceiling = search_ceilings(dataset, BOUND_DELTA_WIDTHS)
        cases[name] = (dataset, (0.0, delta_ceiling))
    for name, total in ZERO_FLIP_TRIALS.items():
        for widths in ZERO_FLIP_DELTA_WIDTHS:
            cases[f"zero_flip_{name}_delta{widths}"] = (
                zero_flip_dataset(total),
                (0.0, widths / XI_MAX),
            )
    return cases


FIT_BOX = SearchBox(dn_max=1.0 / XI_MAX, delta_max=3.0 / XI_MAX)
FIT_CASES = fit_cases()
BOUND_CASES = bound_cases()


def compute_fit(dataset: FlipDataset) -> dict:
    out = {}
    for label, cl in FIT_CLS.items():
        r = fit(dataset, FIT_BOX, interval_cl=cl)
        out[label] = {
            "dn_hat": r.dn_hat,
            "delta_hat": r.delta_hat,
            "max_log_likelihood": r.max_log_likelihood,
            "dn_interval": list(r.dn_interval),
            "delta_interval": list(r.delta_interval),
        }
    return out


def compute_bound(dataset: FlipDataset, delta_bounds: tuple[float, float]) -> dict:
    return {
        label: upper_bound(dataset, cl=cl, delta_bounds=delta_bounds)
        for label, cl in BOUND_CLS.items()
    }


def test_pinned_cases_cover_the_grid():
    assert sorted(PINNED["fit"]) == sorted(FIT_CASES)
    assert sorted(PINNED["bound"]) == sorted(BOUND_CASES)


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_fit_matches_pinned(name):
    now = compute_fit(FIT_CASES[name])
    dn_tol = FIT_BOX.resolution * (FIT_BOX.dn_max - FIT_BOX.dn_min)
    de_tol = FIT_BOX.resolution * (FIT_BOX.delta_max - FIT_BOX.delta_min)
    for label, pinned in PINNED["fit"][name].items():
        got = now[label]
        ll_hat = got["max_log_likelihood"]
        assert abs(got["dn_hat"] - pinned["dn_hat"]) <= dn_tol, (label, "dn_hat")
        assert ll_hat == pytest.approx(pinned["max_log_likelihood"], rel=LL_RTOL, abs=0.0)
        if abs(got["delta_hat"] - pinned["delta_hat"]) > de_tol:
            at_pinned_delta = log_likelihood(got["dn_hat"], pinned["delta_hat"], FIT_CASES[name])
            assert at_pinned_delta == pytest.approx(ll_hat, rel=LL_RTOL, abs=0.0), (
                label, "delta_hat", got["delta_hat"], pinned["delta_hat"],
            )
        for key, tol in (("dn_interval", dn_tol), ("delta_interval", de_tol)):
            diff = np.abs(np.subtract(got[key], pinned[key]))
            assert np.all(diff <= tol), (label, key, got[key], pinned[key])


@pytest.mark.parametrize("name", sorted(FIT_CASES))
@pytest.mark.parametrize("box", ["pinned", "default"])
def test_fit_converges_on_every_table_with_flips(name, box):
    # the default box is the fit command's: search_ceilings with five widths
    dataset = FIT_CASES[name]
    if box == "pinned":
        search = FIT_BOX
    else:
        dn_max, delta_max = search_ceilings(dataset, FIT_DELTA_WIDTHS)
        search = SearchBox(dn_max=dn_max, delta_max=delta_max)
    result = fit(dataset, search)
    assert result.converged == bool(np.any(dataset.flips > 0)), result.message
    assert search.delta_min <= result.delta_hat <= search.delta_max


@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_bound_matches_pinned(name):
    dataset, delta_bounds = BOUND_CASES[name]
    now = compute_bound(dataset, delta_bounds)
    dn_max, _ = search_ceilings(dataset, BOUND_DELTA_WIDTHS)
    for label, pinned in PINNED["bound"][name].items():
        assert abs(now[label] - pinned) <= RESOLUTION_DEFAULT * dn_max, (
            label, now[label], pinned,
        )
