"""Causal excursion effect estimation for micro-randomized trials."""

from .centering import (
    CenteringModel,
    centering_from_rows,
    fit_centering,
    naive_centerings,
    orthogonality_residual,
)
from .data import (
    FeatureSpec,
    MrtDataset,
    from_columns,
    load_csv,
    moderator_schema,
    to_csv,
)
from .estimators import (
    EstimatorConfig,
    FitResult,
    closed_form_gaps,
    fit,
    fit_a2emee,
    fit_a2wcls,
    fit_a2wcls_lagged,
    fit_emee,
    fit_lin_per_time,
    fit_unadjusted_per_time,
    fit_wcls,
    fit_wcls_per_time,
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
    true_beta0,
)
from .variance import (
    SandwichParts,
    StackedParts,
    confidence_intervals,
    plain_sandwich,
    stacked_sandwich,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
