"""Metamorphic invariances of the pooled and binary fits.

Each property transforms a generated panel's columns, refits, and checks the
result against the untransformed fit at 1e-10 relative (to the largest entry
of the compared block):

* an affine auxiliary ``z -> 2.5 z + 3`` leaves ``beta0`` and its variance
  alone: ``z`` enters as a control (whose span the map keeps) and as a
  centered auxiliary (whose centering absorbs the shift and whose slope
  absorbs the scale). A2-EMEE holds this only to its solver tolerance, a
  known shortfall that ``test_affine_auxiliary_a2emee`` pins;
* ``y -> 4 y`` scales every continuous-outcome coefficient by 4 and the
  variance by 16;
* relabelling subjects so that their row order reverses changes nothing;
* duplicating every subject keeps the estimates and the variance ``V`` of the
  averaged estimating equations, so the SE, ``sqrt(V / N)``, falls by
  ``sqrt(2)`` under ``plain_sandwich`` and ``stacked``. ``stacked_small_sample``
  is the exception by design: its leverage correction and its t reference
  depend on N, so a duplicated panel is a different small sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtx.data import from_columns
from mrtx.estimators import VARIANCE_MODES, EstimatorConfig, fit, with_variance_mode
from mrtx.simulation import DgmSpec, gen_panel

# method -> (design kind, beta0, subjects range); timevarying_j3 has q = 2
# moderators, and lagged_eq12 panels are built at lag 2
CASES = {
    "wcls": ("nonmoderator_robust", -0.1, (30, 80)),
    "a2wcls": ("timevarying_j3", (-0.1, 0.02), (30, 80)),
    "a2wcls_lagged": ("lagged_eq12", -0.1, (30, 80)),
    "emee": ("binary_demo", 0.2, (150, 300)),
    "a2emee": ("binary_demo", 0.2, (150, 300)),
}
CONTINUOUS = ("wcls", "a2wcls", "a2wcls_lagged")
SETTINGS = settings(derandomize=True, deadline=None, max_examples=6)


def _modes(method):
    return VARIANCE_MODES if method in CONTINUOUS else ("plain_sandwich",)


def _panel(method, draw):
    kind, beta0, (lo, hi) = CASES[method]
    n = draw(st.integers(lo, hi))
    horizon = draw(st.integers(6, 10))
    seed = draw(st.integers(0, 2**31 - 1))
    # the two kinds without a moderation term refuse a beta1 they would not read
    beta1 = 0.0 if kind in ("nonmoderator_robust", "binary_demo") else 0.5
    return gen_panel(DgmSpec(kind=kind, n=n, horizon=horizon, beta0=beta0,
                             beta1=beta1, seed=seed))


def _rebuild(ds, **changed):
    cols = {k: np.asarray(v) for k, v in ds.columns.items()}
    cols.update(changed)
    return from_columns(cols, ds.schema, lag=ds.lag)


def _fits(ds, method):
    res = fit(ds, EstimatorConfig(method=method, lag=ds.lag))
    return {m: with_variance_mode(res, m) for m in _modes(method)}


def _close(actual, desired):
    actual, desired = np.asarray(actual), np.asarray(desired)
    assert np.abs(actual - desired).max() <= 1e-10 * np.abs(desired).max()


def _assert_affine_invariant(ds, method):
    moved = _rebuild(ds, z=2.5 * np.asarray(ds.columns["z"]) + 3.0)
    base, new = _fits(ds, method), _fits(moved, method)
    for mode in base:
        _close(new[mode].beta0, base[mode].beta0)
        _close(new[mode].vcov_beta0, base[mode].vcov_beta0)


@pytest.mark.parametrize("method", [m for m in CASES if m != "a2emee"])
@SETTINGS
@given(data=st.data())
def test_affine_auxiliary(method, data):
    _assert_affine_invariant(_panel(method, data.draw), method)


@pytest.mark.xfail(strict=True, reason="a2emee stops within its 1e-10 equation "
                   "tolerance, not at the root")
def test_affine_auxiliary_a2emee():
    # A2-EMEE's Newton solves stop once the equation norm is at most 1e-10. On
    # this panel the second pass stops at 6.1e-11 and the third takes no step,
    # while under the affine map the second pass steps on to 3e-16: beta0 moves
    # by 5.8e-10 relative (6e-16 with a 1e-13 tolerance)
    ds = gen_panel(DgmSpec(kind="binary_demo", n=165, horizon=6, beta0=0.2, seed=0))
    _assert_affine_invariant(ds, "a2emee")


@pytest.mark.parametrize("method", CONTINUOUS)
@SETTINGS
@given(data=st.data())
def test_outcome_scale(method, data):
    ds = _panel(method, data.draw)
    scaled = _rebuild(ds, y=4.0 * np.asarray(ds.columns["y"]))
    base, new = _fits(ds, method), _fits(scaled, method)
    for mode in base:
        _close(new[mode].estimates, 4.0 * base[mode].estimates)
        _close(new[mode].vcov, 16.0 * base[mode].vcov)


@pytest.mark.parametrize("method", CASES)
@SETTINGS
@given(data=st.data())
def test_reversed_subject_order(method, data):
    ds = _panel(method, data.draw)
    ids = np.asarray(ds.columns["subject_id"])
    reversed_ds = _rebuild(ds, subject_id=ids.max() - ids)
    np.testing.assert_array_equal(reversed_ds.per_subject(reversed_ds.y)[::-1],
                                  ds.per_subject(ds.y))
    base, new = _fits(ds, method), _fits(reversed_ds, method)
    for mode in base:
        _close(new[mode].estimates, base[mode].estimates)
        _close(new[mode].vcov, base[mode].vcov)
        assert new[mode].n_iter == base[mode].n_iter


@pytest.mark.parametrize("method", CASES)
@SETTINGS
@given(data=st.data())
def test_duplicated_subjects(method, data):
    ds = _panel(method, data.draw)
    cols = {k: np.asarray(v) for k, v in ds.columns.items()}
    ids = cols["subject_id"]
    doubled = {k: np.concatenate([v, v]) for k, v in cols.items()}
    doubled["subject_id"] = np.concatenate([ids, ids + ids.max() + 1])
    dup = from_columns(doubled, ds.schema, lag=ds.lag)
    assert dup.n_subjects == 2 * ds.n_subjects
    base, new = _fits(ds, method), _fits(dup, method)
    for mode in base:
        _close(new[mode].beta0, base[mode].beta0)
        if mode != "stacked_small_sample":
            _close(np.sqrt(2.0) * new[mode].se, base[mode].se)
