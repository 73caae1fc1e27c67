"""scripts/danckwerts_error_study.py: each row is `danckwerts_error` at its
length, printed with %.17g, next to gamma/mu with its sign."""

import csv
import importlib.util
from pathlib import Path

import pytest

from coltrans import ProblemData, SmoothFn, TransportParams, TruncationPolicy, danckwerts_error
from coltrans.exitflux import N_GRID

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "danckwerts_error_study.py"


def load_study():
    """scripts/danckwerts_error_study.py as a module."""
    spec = importlib.util.spec_from_file_location("danckwerts_error_study", SCRIPT)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    return study


@pytest.mark.parametrize("gamma, level", [(0.2, 2.0), (-0.2, -2.0)])
def test_rows_are_the_outlet_gap_and_the_signed_level(tmp_path, capsys, gamma, level):
    out = tmp_path / "gap.csv"
    assert load_study().main(["--doublings", "1", "--time", "2", "--gamma", str(gamma),
                              "--out", str(out)]) == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    data = ProblemData(params=TransportParams(R=1.0, D=1.0, v=1.0, mu=0.1, gamma=gamma,
                                              ell=2.0),
                       phi=SmoothFn.constant(0.0), g=SmoothFn.constant(1.0))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["ell"]) for row in rows] == [2.0, 4.0]
    for row in rows:
        gap = danckwerts_error(data, 2.0, float(row["ell"]), policy=TruncationPolicy(),
                               n_grid=N_GRID)
        assert row["E_D"] == "%.17g" % gap
        assert float(row["gamma_over_mu"]) == level
