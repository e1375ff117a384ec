"""Population-variance probe of the lagged benchmark table (``tab2``).

One fit on a very large panel gives the population sandwich ``V`` of the
``beta0`` intercept, and ``sqrt(V / 250)`` is the standard error at the table's
N = 250; the population relative efficiency is ``V_wcls / V_a2``. Three arms
are fitted on each ``lagged_eq12`` panel (N = 40 000, T = 30, seeds 11-13):

* ``wcls``: the table's baseline arm;
* ``shipped``: the table's ``a2wcls_lagged`` arm, with its centering model;
* ``wm-only``: ``a2wcls_lagged``'s lagged working models without the centered
  auxiliary, through the private pooled fit with no centering model.

``V`` is averaged over the three seeds. Run from the repository root:

    PYTHONPATH=src python3 docs/lagged_gap_probe.py

It takes about 0.6 CPU s per design and seed. See ``docs/decisions.md``.
"""

import numpy as np

from mrtx import EstimatorConfig, fit
from mrtx.estimators import _fit_pooled
from mrtx.simulation import DgmSpec, gen_panel

N, T, SEEDS, TABLE_N = 40_000, 30, (11, 12, 13), 250
WCLS = EstimatorConfig(method="wcls", lag=2)
SHIPPED = EstimatorConfig(method="a2wcls_lagged", lag=2, variance_mode="stacked")
PUBLISHED = {0.2: (0.030, 0.028, 1.141), 0.5: (0.032, 0.029, 1.161),
             0.8: (0.033, 0.031, 1.168)}


def population_variances(beta1: float) -> np.ndarray:
    """Seed-averaged population variance of ``beta0`` for wcls, shipped, wm-only."""
    out = []
    for seed in SEEDS:
        ds = gen_panel(DgmSpec(kind="lagged_eq12", n=N, horizon=T, beta0=-0.1,
                               beta1=beta1, seed=seed))
        fits = (fit(ds, WCLS), fit(ds, SHIPPED),
                _fit_pooled(ds, EstimatorConfig(method="a2wcls_lagged", lag=2), None, True))
        out.append([f.vcov_beta0[0, 0] for f in fits])
    return np.mean(out, axis=0)


def main():
    print("beta1 | wcls SE: published / population "
          "| a2 SE: published / shipped / wm-only "
          "| a2 mre: published / shipped / wm-only")
    for beta1, (se_w, se_a, mre) in PUBLISHED.items():
        v_w, v_s, v_m = population_variances(beta1)
        se = np.sqrt(np.array([v_w, v_s, v_m]) / TABLE_N)
        print(f"{beta1} | {se_w:.3f} / {se[0]:.4f} | {se_a:.3f} / {se[1]:.4f} / {se[2]:.4f}"
              f" | {mre:.3f} / {v_w / v_s:.3f} / {v_w / v_m:.3f}")


if __name__ == "__main__":
    main()
