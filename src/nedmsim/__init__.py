"""Spin-flip statistics and bound-setting for dipole-moment searches.

The package splits into value-level physics (quantities, spin_dynamics,
weak_measurement), Monte Carlo machinery (streams, ensemble, and
comagnetometer with its campaign estimator), flip-count inference
(inference), and the file/CLI surface (formats, config, cli).
"""

__version__ = "0.15.0"

from .comagnetometer import (
    CampaignConfig,
    CampaignEstimate,
    CycleTable,
    campaign_estimator,
    extract_dn_pair,
    run_campaign,
)
from .ensemble import (
    EnsembleRun,
    expected_stochastic_fraction,
    simulate_quantum,
    simulate_stochastic,
)
from .inference import (
    FitResult,
    FlipDataset,
    NonConvergenceError,
    SearchBox,
    fit,
    log_likelihood,
    upper_bound,
)
from .quantities import (
    PhysicalConstants,
    PulseProfile,
    UnitSystem,
    xi_from_pulse,
)
from .spin_dynamics import (
    RamseyConfig,
    Spinor,
    asymmetry,
    ramsey_phase,
    ramsey_up_probability_spinor,
    rotate,
    up_probability,
)
from .weak_measurement import (
    DipoleState,
    QuadratureSpec,
    flip_probability,
    flip_probability_quadrature,
)

__all__ = [
    "__version__",
    "CampaignConfig",
    "CampaignEstimate",
    "CycleTable",
    "DipoleState",
    "EnsembleRun",
    "FitResult",
    "FlipDataset",
    "NonConvergenceError",
    "PhysicalConstants",
    "PulseProfile",
    "QuadratureSpec",
    "RamseyConfig",
    "SearchBox",
    "Spinor",
    "UnitSystem",
    "asymmetry",
    "campaign_estimator",
    "expected_stochastic_fraction",
    "extract_dn_pair",
    "fit",
    "flip_probability",
    "flip_probability_quadrature",
    "log_likelihood",
    "ramsey_phase",
    "ramsey_up_probability_spinor",
    "rotate",
    "run_campaign",
    "simulate_quantum",
    "simulate_stochastic",
    "up_probability",
    "upper_bound",
    "xi_from_pulse",
]
