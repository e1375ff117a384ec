"""Command-line front end.

Verbs:

* ``fit``: run one estimator on a long-format CSV and write a coefficient
  report (text + CSV);
* ``simulate``: run a seeded Monte Carlo for a design described in a
  key-value config file, writing the summary table and replicate-level CSV;
* ``replicate``: re-run one of the pre-registered benchmark tables and
  print published values beside reproduced values with per-cell pass/fail;
* ``gaps``: evaluate the closed-form per-time variance-comparison terms.

Every library error maps to a distinct exit code (printed by ``--help``);
argparse usage errors exit 2. Errors print a single-line diagnostic, never a
stack trace.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys

import numpy as np

from . import errors
from .centering import CENTERING_KINDS
from .data import Schema, load_csv
from .estimators import (
    ADJUSTED,
    EstimatorConfig,
    METHODS,
    VARIANCE_MODES,
    closed_form_gaps,
    fit as run_fit,
)
from .replication import TABLES, run_table
from .simulation import DgmSpec, McArm, run_monte_carlo

# every error the library raises: the MrtxError subclasses but the two bases
_ERROR_CLASSES = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.MrtxError)
                  and cls not in (errors.MrtxError, errors.DataError)]


def _exit_code_map() -> str:
    lines = ["exit codes:", "  0  success", "  2  usage error"]
    for cls in sorted(_ERROR_CLASSES, key=lambda c: c.exit_code):
        lines.append(f"  {cls.exit_code:<3}{cls.__name__}")
    return "\n".join(lines)


def _csv_list(text: str) -> list[str]:
    return [c.strip() for c in text.split(",") if c.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _write_csv(path, rows: list[dict]) -> None:
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                             for k, v in row.items()})


_DEFAULT_METHODS = {"lagged_eq12": ("wcls", "a2wcls_lagged"),
                    "binary_demo": ("emee", "a2emee")}
_CONFIG_KEYS = ("kind", "n", "horizon", "beta0", "beta1", "eta", "seed", "methods", "variance")


def _parse_dgm_config(path, seed_override=None) -> tuple[DgmSpec, list[McArm]]:
    """Parse the documented ``key = value`` config format into a design and its arms.

    Recognized keys: kind, n, horizon, beta0 (scalar or comma pair), beta1,
    eta (comma pair), seed, methods (comma list), variance. A ``#`` at the
    start of a line or after whitespace starts a comment. This checks keys,
    numbers and the variance mode; ``DgmSpec``, ``EstimatorConfig`` (at
    ``spec.lag``) and ``run_monte_carlo`` check the design, arms and run.
    """
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = re.sub(r"\s#.*", "", line).strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise errors.ConfigParse(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise errors.ConfigParse(f"{path}:{lineno}: unknown key {key!r}")
                if key in values:
                    raise errors.ConfigParse(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise errors.ConfigParse(f"cannot read config {path}: {exc}") from None
    for key in ("kind", "n", "horizon"):
        if key not in values:
            raise errors.ConfigParse(f"config is missing required key {key!r}")
    try:
        beta0 = tuple(float(v) for v in values.get("beta0", "-0.1").split(","))
        spec = DgmSpec(
            kind=values["kind"], n=int(values["n"]), horizon=int(values["horizon"]),
            beta0=beta0[0] if len(beta0) == 1 else beta0,
            beta1=float(values.get("beta1", "0.0")),
            eta=tuple(float(v) for v in values.get("eta", "-0.8,0.8").split(",")),
            seed=seed_override if seed_override is not None else int(values.get("seed", "0")),
        )
    except (ValueError, TypeError) as exc:
        raise errors.ConfigParse(f"bad config value: {exc}") from None
    methods = _csv_list(values.get("methods", "")) or _DEFAULT_METHODS.get(
        spec.kind, ("wcls", "a2wcls"))
    variance = values.get("variance", "plain_sandwich")
    if variance not in VARIANCE_MODES:
        raise errors.ConfigParse(f"unknown variance mode {variance!r}")
    # every arm takes the design's lag; only the adjusted fits take a stacked variance
    arms = []
    for m in methods:
        try:
            arms.append(McArm(m, EstimatorConfig(
                method=m, lag=spec.lag,
                variance_mode=variance if m in ADJUSTED else "plain_sandwich")))
        except errors.DimensionMismatch as exc:
            raise errors.ConfigParse(f"method {m!r} does not fit the {spec.kind} "
                                     f"design: {exc}") from None
    return spec, arms


def cmd_fit(args) -> int:
    schema = Schema(
        moderators=_csv_list(args.moderators or ""),
        aux=_csv_list(args.aux or ""),
        controls=_csv_list(args.controls or ""),
        ptilde=args.ptilde_col,
    )
    ds = load_csv(args.data, schema, lag=args.lag)
    config = EstimatorConfig(method=args.method, lag=args.lag,
                             variance_mode=args.variance,
                             ci_level=args.ci_level,
                             centering_kind=args.centering)
    result = run_fit(ds, config, t=args.t)
    text = result.report_text()
    print(text, end="")
    if args.out:
        with open(args.out + ".txt", "w") as fh:
            fh.write(text)
        _write_csv(args.out + ".csv", result.coefficient_rows())
        print(f"wrote {args.out}.txt and {args.out}.csv")
    return 0


def cmd_simulate(args) -> int:
    spec, arms = _parse_dgm_config(args.config, seed_override=args.seed)
    report = run_monte_carlo(spec, arms, args.replicates, workers=args.workers)
    text = report.to_text()
    print(text, end="")
    if args.out:
        with open(args.out + ".txt", "w") as fh:
            fh.write(text)
        _write_csv(args.out + "_metrics.csv", report.rows)
        _write_csv(args.out + "_replicates.csv", report.replicate_csv_rows())
        print(f"wrote {args.out}.txt, {args.out}_metrics.csv, {args.out}_replicates.csv")
    return 0


def cmd_replicate(args) -> int:
    report = run_table(args.table, replicates=args.replicates, seed=args.seed,
                       workers=args.workers)
    text = report.to_text()
    print(text, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if report.ok else 1


def cmd_gaps(args) -> int:
    alpha1 = np.array([float(v) for v in _csv_list(args.alpha1)])
    beta1 = np.array([float(v) for v in _csv_list(args.beta1)])
    sigma = np.array([float(v) for v in _csv_list(args.sigma)])
    d = alpha1.shape[0]
    if d and sigma.size != d * d:
        raise ValueError(f"--sigma needs {d * d} value(s), the {d}x{d} matrix row by row, "
                         f"to match --alpha1; got {sigma.size}")
    gaps = closed_form_gaps(args.p, alpha1, beta1, sigma.reshape(d, d) if d else sigma)
    print(f"controls-vs-unadjusted meat gap: {gaps['gap_wcls_vs_u']:+.6f} "
          f"({'adjustment helps' if gaps['gap_wcls_vs_u'] < 0 else 'adjustment hurts or neutral'})")
    print(f"interacted-vs-unadjusted variance gain: {gaps['gap_lin_vs_u']:+.6f} (gain)")
    print(f"interacted-vs-controls variance gain: {gaps['gap_lin_vs_wcls']:+.6f} (gain)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrtx",
        description="Causal excursion effect estimation for micro-randomized trials.",
        epilog=_exit_code_map(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_fit = sub.add_parser("fit", help="fit one estimator on a CSV panel")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--method", required=True, choices=METHODS)
    p_fit.add_argument("--moderators", default="")
    p_fit.add_argument("--aux", default="")
    p_fit.add_argument("--controls", default="")
    p_fit.add_argument("--ptilde-col", dest="ptilde_col", default=None)
    p_fit.add_argument("--lag", type=int, default=1)
    p_fit.add_argument("--t", type=int, default=None,
                       help="decision index for per-time methods")
    p_fit.add_argument("--variance", default="plain_sandwich", choices=VARIANCE_MODES)
    p_fit.add_argument("--centering", default="orthogonal", choices=CENTERING_KINDS)
    p_fit.add_argument("--ci-level", dest="ci_level", type=float, default=0.95)
    p_fit.add_argument("--out", default=None, help="output path prefix")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo for a config file")
    p_sim.add_argument("--config", required=True,
                       help="key = value file; keys: " + ", ".join(_CONFIG_KEYS))
    p_sim.add_argument("--replicates", type=_positive_int, required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--workers", type=_positive_int, default=1)
    p_sim.add_argument("--out", default=None, help="output path prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("replicate", help="re-run a pre-registered benchmark table")
    p_rep.add_argument("--table", required=True, choices=TABLES)
    p_rep.add_argument("--replicates", type=_positive_int, default=1000)
    p_rep.add_argument("--seed", type=int, default=20240901)
    p_rep.add_argument("--workers", type=_positive_int, default=1)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_replicate)

    p_gap = sub.add_parser("gaps", help="closed-form per-time variance comparisons")
    p_gap.add_argument("--p", type=float, required=True)
    p_gap.add_argument("--alpha1", required=True)
    p_gap.add_argument("--beta1", required=True)
    p_gap.add_argument("--sigma", required=True)
    p_gap.set_defaults(func=cmd_gaps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.MrtxError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return type(exc).exit_code
    except ValueError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
