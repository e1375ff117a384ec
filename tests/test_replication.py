import math

import pytest

from mrtx import errors
from mrtx.replication import TABLES, run_table


@pytest.mark.parametrize("name", list(TABLES))
def test_cells_read_their_runs_arms(name):
    names = []
    for run in TABLES[name]:
        labels = {arm.label for arm in run.arms}
        for cell in run.cells:
            assert cell.arm in labels, f"{cell.row} {cell.metric} reads {cell.arm!r}"
            names.append(f"{cell.row} {cell.metric}")
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", list(TABLES))
def test_every_table_runs_at_small_size(name):
    report = run_table(name, replicates=4, seed=11, n=40, horizon=8)
    runs = TABLES[name]
    assert len(report.reports) == len(runs)
    for run, rep in zip(runs, report.reports):
        assert (rep.spec.n, rep.spec.horizon) == (40, 8)
        assert rep.spec.seed == 11 + run.dgm.seed
        assert rep.labels == tuple(arm.label for arm in run.arms)
    assert [res.cell for res in report.cells] == [c for run in runs for c in run.cells]
    assert all(math.isfinite(res.value) for res in report.cells)
    text = report.to_text()
    assert text.startswith(f"table: {name}\n")
    for res in report.cells:
        assert f"{res.cell.row} {res.cell.metric}" in text


def test_zero_size_is_refused_not_replaced_by_the_published_size():
    with pytest.raises(errors.ConfigParse, match="n and horizon must be >= 1"):
        run_table("robust", replicates=1, n=0, horizon=0)


def test_unknown_table_rejected():
    with pytest.raises(errors.UnknownTable, match="choose from tab2, tabfour"):
        run_table("nope", replicates=4)
