"""Every fit is a total function: a finite result or a typed error.

A derandomized property over small panels of any method, lag, variance mode
and centering kind, with columns scaled up to 1e300 and randomization
probabilities down to 1e-300 and up to 1 - 1e-15. Each panel is built with ``from_columns`` and
fitted, and the fit is re-read under every variance mode through
``with_variance_mode``. Every step either returns a result whose estimates,
vcov, SEs, intervals and p-values are all finite, or raises an
``MrtxError``. No step may emit a numpy warning on the way to either.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mrtx import errors
from mrtx.centering import CENTERING_KINDS
from mrtx.data import Schema, from_columns
from mrtx.estimators import (
    ADJUSTED,
    METHODS,
    PER_TIME,
    PROXIMAL,
    VARIANCE_MODES,
    _BINARY,
    EstimatorConfig,
    fit,
    with_variance_mode,
)

from conftest import panel_from_arrays

SETTINGS = settings(derandomize=True, deadline=None, max_examples=800)
_EDGES = (100, 200, 250, 280, 300)    # decimal exponents near float64's overflow
_SUMMARIES = ("estimates", "vcov", "se_all", "ci_lo_all", "ci_hi_all", "p_value_all")


@st.composite
def cases(draw):
    """``(columns, schema, config, t)`` for one fit; the config is one that
    ``EstimatorConfig`` accepts, so every draw reaches ``from_columns`` and ``fit``."""
    method = draw(st.sampled_from(METHODS))
    lag = 1 if method in PROXIMAL else draw(st.integers(2 if method == "a2wcls_lagged" else 1, 3))
    n, horizon = draw(st.integers(1, 11)), draw(st.integers(lag, 7))
    mode = "plain_sandwich" if method in _BINARY else draw(st.sampled_from(VARIANCE_MODES))
    stacked_adjusted = method in ADJUSTED and mode != "plain_sandwich"
    kind = ("orthogonal" if method == "a2emee" or stacked_adjusted
            else draw(st.sampled_from(CENTERING_KINDS)))
    schema = Schema(moderators=draw(st.sampled_from([(), ("m",)])),
                    aux=draw(st.sampled_from([(), ("z",), ("z", "w")])),
                    controls=draw(st.sampled_from([(), ("z",), ("w",), ("z", "w", "m")])),
                    ptilde=draw(st.sampled_from([None, "pt"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = n * horizon

    # a decimal exponent on a grid at the overflow edges or anywhere up to 300
    exponents = st.sampled_from(_EDGES) | st.integers(1, 300)

    def scaled():    # half the columns on the unit scale
        return rng.standard_normal(rows) * (10.0 ** draw(exponents) if draw(st.booleans()) else 1.0)

    p = rng.uniform(0.05, 0.95, rows)
    p_floor = draw(st.none() | exponents)
    if p_floor is not None:      # about half the rows get a p near 10**-p_floor
        p = np.where(rng.random(rows) < 0.5, rng.uniform(1, 10, rows) * 10.0 ** -p_floor, p)
    if draw(st.booleans()):      # and some a p next to 1, a weight near 1e15
        p = np.where(rng.random(rows) < 0.3, 1.0 - 1e-15, p)
    a = (rng.random(rows) < draw(st.floats(0.05, 0.95))).astype(float)
    y = (rng.random(rows) < 0.5).astype(float) if method in _BINARY else scaled()
    columns = {"subject_id": np.repeat(np.arange(1, n + 1), horizon),
               "t": np.tile(np.arange(1, horizon + 1), n), "a": a, "p": p, "y": y,
               "z": scaled(), "w": scaled(), "m": scaled(),
               "pt": rng.uniform(0.001, 0.999, rows)}
    config = EstimatorConfig(method=method, lag=lag, variance_mode=mode, centering_kind=kind)
    t = draw(st.integers(1, horizon)) if method in PER_TIME else None
    return columns, schema, config, t


def _rng_column(scale, seed=3):
    return np.random.default_rng(seed).standard_normal(24) * scale


_MOSTLY_TREATED = np.ones(24)
_MOSTLY_TREATED[::5] = 0.0


@SETTINGS
@given(cases())
# a control near 1e200 overflows its centered spread
@example((panel_from_arrays(8, 3, z=_rng_column(1e200)), Schema(aux=("z",), controls=("z",)),
          EstimatorConfig(method="wcls_per_time"), 1))
# p near 1e-300 and an auxiliary near 1e250: the weighted auxiliary norm leaves float64
@example((panel_from_arrays(8, 3, p=np.full(24, 1e-300), z=_rng_column(1e250)),
          Schema(aux=("z",)), EstimatorConfig(method="a2wcls"), None))
# a subnormal p would overflow the weight p_tilde / p
@example((panel_from_arrays(8, 3, a=_MOSTLY_TREATED, p=np.full(24, 1e-320)),
          Schema(aux=("z",)), EstimatorConfig(method="a2wcls"), None))
def test_fit_is_finite_or_typed_error(case):
    columns, schema, config, t = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = fit(from_columns(columns, schema, lag=config.lag), config, t=t)
        except errors.MrtxError:
            return
        results = [res]
        for mode in VARIANCE_MODES:
            try:
                results.append(with_variance_mode(res, mode))
            except errors.MrtxError:
                pass
        for r in results:
            for name in _SUMMARIES:
                assert np.isfinite(getattr(r, name)).all(), (r.config, name)
