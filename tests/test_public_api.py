import re
from pathlib import Path

import pytest

import mrtx

# The package's public surface. A name added to or removed from
# ``mrtx/__init__.py``'s ``__all__`` must be added to or removed from this list
# as well, and from the README's "Public API" section.
PUBLIC = {
    # data
    "Schema", "MrtDataset", "load_csv", "from_columns",
    # estimation
    "EstimatorConfig", "FitResult", "fit", "with_variance_mode",
    # centering
    "fit_centering", "CenteringModel", "orthogonality_residual",
    # population gaps, simulation and the published tables
    "closed_form_gaps", "DgmSpec", "McArm", "McReport", "gen_panel",
    "run_monte_carlo", "run_table",
}


def test_public_surface_is_pinned():
    assert set(mrtx.__all__) == PUBLIC and len(mrtx.__all__) == len(PUBLIC)
    assert all(hasattr(mrtx, name) for name in PUBLIC) and not hasattr(mrtx, "to_csv")


@pytest.mark.parametrize("module, name", [
    ("estimators", "wls_solve"), ("variance", "wls_solve"), ("variance", "SandwichParts"),
    ("variance", "plain_sandwich"), ("variance", "stacked_sandwich"),
    ("variance", "confidence_intervals"), ("simulation", "compute_metrics"),
    ("simulation", "gen_ar_errors")])
def test_internals_stay_in_their_modules(module, name):
    # importable where they are defined (the benchmark's tracer wraps such module
    # attributes), but not re-exported by the package
    assert hasattr(getattr(mrtx, module), name)
    assert not hasattr(mrtx, name)


def test_readme_lists_the_public_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`", section, flags=re.M) == list(mrtx.__all__)
