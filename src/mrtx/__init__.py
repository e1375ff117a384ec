"""Causal excursion effect estimation for micro-randomized trials.

``__all__`` is the public API, the names the README's "Public API" section
lists. Every other name is internal: importable from its own module, with no
promise that it keeps its name or signature.
"""

from .centering import CenteringModel, fit_centering, orthogonality_residual
from .data import MrtDataset, Schema, from_columns, load_csv
from .estimators import (
    EstimatorConfig,
    FitResult,
    closed_form_gaps,
    fit,
    with_variance_mode,
)
from .replication import run_table
from .simulation import DgmSpec, McArm, McReport, gen_panel, run_monte_carlo

__version__ = "0.1.0"

__all__ = [
    # data
    "Schema", "MrtDataset", "load_csv", "from_columns",
    # estimation
    "EstimatorConfig", "FitResult", "fit", "with_variance_mode",
    # centering
    "fit_centering", "CenteringModel", "orthogonality_residual",
    # population gaps, simulation and the published tables
    "closed_form_gaps", "DgmSpec", "McArm", "McReport", "gen_panel",
    "run_monte_carlo", "run_table",
]
