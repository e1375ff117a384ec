"""Causal excursion effect estimation for micro-randomized trials."""

from .centering import (
    CenteringModel,
    fit_centering,
    orthogonality_residual,
)
from .data import (
    MrtDataset,
    Schema,
    from_columns,
    load_csv,
    to_csv,
)
from .estimators import (
    EstimatorConfig,
    FitResult,
    closed_form_gaps,
    fit,
    wls_solve,
    with_variance_mode,
)
from .replication import run_table
from .simulation import (
    DgmSpec,
    McArm,
    McReport,
    compute_metrics,
    gen_ar_errors,
    gen_panel,
    run_monte_carlo,
)
from .variance import (
    SandwichParts,
    confidence_intervals,
    plain_sandwich,
    stacked_sandwich,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
