"""Pre-registered benchmark table replications.

Each table in ``TABLES`` is a tuple of :class:`Run` literals: the design, the
estimator arms, the published reference cells, and the tolerance for every
gated cell, so "what the benchmark ran" is auditable data. ``run_table``
executes the Monte Carlo and returns a comparison with per-cell pass/fail
flags; cells whose reference value is itself a demonstration of bias are
gated on matching the published (biased) value, flagged ``expected-bias``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import UnknownTable
from .estimators import EstimatorConfig
from .simulation import DgmSpec, McArm, McReport, run_monte_carlo


@dataclass(frozen=True)
class Cell:
    """One gated comparison between a published value and the reproduction."""

    arm: str                  # label of the McArm whose report row is read
    row: str
    key: str                  # key into the McReport row
    published: float | None
    tol: float | None         # None: report-only cell
    lo: float | None = None   # used instead of published/tol for range gates
    hi: float | None = None
    note: str = ""
    coef: int | None = None   # per-coefficient cell on beta0[coef]; else beta0[0]

    @property
    def metric(self) -> str:
        return self.key if self.coef is None else f"{self.key}[{self.coef}]"

    def gate(self, report: McReport) -> CellResult:
        value = float(report.row(self.arm, f"beta0[{self.coef or 0}]")[self.key])
        if self.lo is not None:
            return CellResult(self, value, bool(self.lo <= value <= self.hi))
        if self.tol is None:
            return CellResult(self, value, None)
        return CellResult(self, value, bool(abs(value - self.published) <= self.tol))


@dataclass
class CellResult:
    cell: Cell
    value: float
    ok: bool | None           # None for report-only cells


@dataclass
class TableReport:
    name: str
    reports: list[McReport]
    cells: list[CellResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells if c.ok is not None)

    def to_text(self) -> str:
        lines = [f"table: {self.name}", ""]
        for rep in self.reports:
            lines.append(rep.to_text())
        lines.append(f"{'cell':<44}{'published':>12}{'reproduced':>12}{'status':>16}")
        for res in self.cells:
            cell = res.cell
            pub = "-" if cell.published is None else f"{cell.published:.3f}"
            if res.ok is None:
                status = "report-only"
            else:
                status = "pass" if res.ok else "FAIL"
                if cell.note:
                    status += f" ({cell.note})"
            lines.append(f"{cell.row + ' ' + cell.metric:<44}{pub:>12}"
                         f"{res.value:>12.3f}{status:>16}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Run:
    """One Monte Carlo design of a table and the cells gated on its report.

    ``dgm.n``/``dgm.horizon`` are the published sizes, which ``run_table``'s
    overrides replace; ``dgm.seed`` is the offset from the table seed.
    """

    dgm: DgmSpec
    arms: tuple[McArm, ...]
    cells: tuple[Cell, ...]


_WCLS = McArm("wcls", EstimatorConfig(method="wcls"))
_A2 = McArm("a2wcls", EstimatorConfig(method="a2wcls"))
_LAGGED = (McArm("wcls", EstimatorConfig(method="wcls", lag=2)),
           McArm("a2wcls_lagged", EstimatorConfig(method="a2wcls_lagged", lag=2,
                                                  variance_mode="stacked")))
_CP = (None, None, 0.93, 0.96)   # nominal 95% coverage gate

TABLES: dict[str, tuple[Run, ...]] = {
    "tab2": tuple(
        Run(DgmSpec(kind="lagged_eq12", n=250, horizon=30, beta0=-0.1, beta1=b1, seed=i),
            _LAGGED,
            (Cell("wcls", f"beta1={b1} wcls", "est_mean", -0.100, 0.005),
             Cell("wcls", f"beta1={b1} wcls", "se_mean", se_w, 0.002),
             Cell("wcls", f"beta1={b1} wcls", "cp", *_CP),
             Cell("a2wcls_lagged", f"beta1={b1} a2wcls", "est_mean", -0.100, 0.005),
             Cell("a2wcls_lagged", f"beta1={b1} a2wcls", "se_mean", se_a, 0.002),
             Cell("a2wcls_lagged", f"beta1={b1} a2wcls", "mre", mre, 0.03),
             Cell("a2wcls_lagged", f"beta1={b1} a2wcls", "cp", *_CP)))
        for i, (b1, se_w, se_a, mre) in enumerate(((0.2, 0.030, 0.028, 1.141),
                                                    (0.5, 0.032, 0.029, 1.161),
                                                    (0.8, 0.033, 0.031, 1.168)))),
    "tabfour": tuple(
        Run(DgmSpec(kind="proximal_j2", n=250, horizon=30, beta0=-0.2, beta1=b1, seed=i),
            (_WCLS, _A2),
            # a gain frequency printed as 100% rounds from >= 0.995
            (Cell("a2wcls", f"beta11={b1} a2wcls", "est_mean", -0.200, 0.005),
             Cell("a2wcls", f"beta11={b1} a2wcls", "se_mean", 0.027, 0.002),
             Cell("a2wcls", f"beta11={b1} a2wcls", "mre", 1.195, 0.03),
             Cell("a2wcls", f"beta11={b1} a2wcls", "re_gain_pct", None, None, 0.995, 1.0),
             Cell("wcls", f"beta11={b1} wcls", "se_mean", 0.029, None)))
        for i, b1 in enumerate((0.2, 0.5, 0.8))),
    "timevarying": (
        Run(DgmSpec(kind="timevarying_j3", n=250, horizon=30, beta0=(-0.2, 0.02), beta1=0.2),
            (_WCLS, McArm("a2wcls", EstimatorConfig(method="a2wcls", variance_mode="stacked"))),
            (Cell("a2wcls", "a2wcls", "mre", 1.262, 0.04, coef=0),
             Cell("a2wcls", "a2wcls", "mre", 1.254, 0.04, coef=1),
             Cell("a2wcls", "a2wcls", "cp", *_CP, coef=0),
             Cell("a2wcls", "a2wcls", "cp", *_CP, coef=1),
             Cell("wcls", "wcls", "cp", *_CP, coef=0),
             Cell("wcls", "wcls", "cp", *_CP, coef=1))),),
    "robust": (
        Run(DgmSpec(kind="nonmoderator_robust", n=250, horizon=30, beta0=-0.2, beta1=0.0),
            (_WCLS, _A2),
            (Cell("a2wcls", "a2wcls", "est_mean", -0.200, 0.005),
             Cell("a2wcls", "a2wcls", "mre", 1.000, 0.01),
             Cell("wcls", "wcls", "est_mean", -0.200, 0.005))),),
    "centerby-mean": tuple(
        Run(DgmSpec(kind="centerbias_j1", n=250, horizon=30, beta0=-0.2, beta1=b1, seed=i),
            (_WCLS,
             McArm("mean_centered",
                   EstimatorConfig(method="a2wcls", centering_kind="global_mean")),
             _A2),
            (Cell("mean_centered", f"beta11={b1} mean_centered", "est_mean", est, tol,
                  note="expected-bias"),
             *extra,
             Cell("a2wcls", f"beta11={b1} a2wcls", "est_mean", -0.200, 0.005)))
        for i, (b1, est, tol, extra) in enumerate((
            (0.2, -0.205, 0.012, ()),
            (0.5, -0.217, 0.012, ()),
            (0.8, -0.227, 0.01, (Cell("mean_centered", "beta11=0.8 mean_centered", "cp",
                                      None, None, 0.0, 0.90, note="expected-bias"),))))),
    # efficiency stability across sample sizes and horizons; frequencies
    # printed as 100% round from >= 0.995
    "moreTN": tuple(
        Run(DgmSpec(kind="lagged_eq12", n=nn, horizon=tt, beta0=-0.1, beta1=0.5,
                    seed=10 * i + j),
            _LAGGED,
            (Cell("a2wcls_lagged", f"N={nn},T={tt} a2", "mre",
                  None, None, 1.164 - 0.03, 1.172 + 0.03),
             Cell("a2wcls_lagged", f"N={nn},T={tt} a2", "re_gain_pct",
                  None, None, gain_lo, 1.0)))
        for i, (nn, gain_lo) in enumerate(((100, 0.98), (250, 0.995), (500, 0.995)))
        for j, tt in enumerate((30, 50, 100))),
}


def run_table(name: str, replicates: int = 1000, seed: int = 20240901,
              n: int | None = None, horizon: int | None = None,
              workers: int = 1) -> TableReport:
    """Run one pre-registered benchmark table and gate it cell by cell."""
    if name not in TABLES:
        raise UnknownTable(f"unknown table {name!r}; choose from {', '.join(TABLES)}")
    reports: list[McReport] = []
    cells: list[CellResult] = []
    for run in TABLES[name]:
        spec = replace(run.dgm, n=n or run.dgm.n, horizon=horizon or run.dgm.horizon,
                       seed=seed + run.dgm.seed)
        report = run_monte_carlo(spec, list(run.arms), replicates, workers=workers)
        reports.append(report)
        cells += [cell.gate(report) for cell in run.cells]
    return TableReport(name=name, reports=reports, cells=cells)
