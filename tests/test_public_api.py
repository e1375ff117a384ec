import mrtx

# The package's public surface. A name added to or removed from
# ``mrtx/__init__.py`` must be added to or removed from this list as well.
PUBLIC = {
    # submodules bound by the package's own imports
    "centering", "data", "errors", "estimators", "replication", "simulation", "variance",
    # data
    "FeatureSpec", "MrtDataset", "from_columns", "load_csv", "moderator_schema", "to_csv",
    # centering
    "CenteringModel", "centering_from_rows", "fit_centering", "naive_centerings",
    "orthogonality_residual",
    # estimators
    "EstimatorConfig", "FitResult", "closed_form_gaps", "fit", "fit_a2emee", "fit_a2wcls",
    "fit_a2wcls_lagged", "fit_emee", "fit_lin_per_time", "fit_unadjusted_per_time",
    "fit_wcls", "fit_wcls_per_time", "wls_solve", "with_variance_mode",
    # variance
    "SandwichParts", "StackedParts", "confidence_intervals", "plain_sandwich",
    "stacked_sandwich",
    # simulation and replication
    "DgmSpec", "McArm", "McReport", "compute_metrics", "gen_ar_errors", "gen_panel",
    "run_monte_carlo", "true_beta0", "run_table",
}


def test_public_surface_is_pinned():
    assert set(mrtx.__all__) == PUBLIC
