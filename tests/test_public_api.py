import mrtx

# The package's public surface. A name added to or removed from
# ``mrtx/__init__.py`` must be added to or removed from this list as well.
PUBLIC = {
    # submodules bound by the package's own imports
    "centering", "data", "errors", "estimators", "replication", "simulation", "variance",
    # data
    "MrtDataset", "Schema", "from_columns", "load_csv", "to_csv",
    # centering
    "CenteringModel", "fit_centering", "orthogonality_residual",
    # estimators
    "EstimatorConfig", "FitResult", "closed_form_gaps", "fit", "wls_solve",
    "with_variance_mode",
    # variance
    "SandwichParts", "confidence_intervals", "plain_sandwich",
    "stacked_sandwich",
    # simulation and replication
    "DgmSpec", "McArm", "McReport", "compute_metrics", "gen_ar_errors", "gen_panel",
    "run_monte_carlo", "run_table",
}


def test_public_surface_is_pinned():
    assert set(mrtx.__all__) == PUBLIC
