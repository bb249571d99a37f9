"""Golden reports: every key of the CLI's JSON output for the case-study commands.

``golden/cli_reports.json`` holds the argv, exit code and parsed JSON report
of each command.  Strings, bools, ints, nulls and exit codes must match
exactly.  Floats must match to 1e-9 relative, with the same floor of 1 that
the solver's own relative checks use, so a load of 4e-11 t may come back as
0.  The four KKT residuals of a report whose ``satisfied`` flag is true only
need to stay inside the bounds that ``satisfied`` applies, since SciPy
releases may move them in the last bits.
"""

import json
import math
from pathlib import Path

import pytest

from shipload.cli import main
from shipload.solver import DEFAULT_KKT_TOLERANCE

CASES = json.loads((Path(__file__).parent / "golden" / "cli_reports.json").read_text())
RESIDUALS = (
    "stationarity_residual",
    "complementarity_residual",
    "primal_feasibility",
    "dual_feasibility",
)


def assert_matches(actual, expected, path="report"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert type(actual) is float, path
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{path}: {actual!r} != {expected!r}"
        )


def assert_kkt_within_tolerance(kkt, report):
    """The bounds of ``KktReport.satisfied`` at the default tolerance."""
    tol = DEFAULT_KKT_TOLERANCE
    rate_scale = max(1.0, *(load["freight_rate"] for load in report["loads"]))
    assert kkt["satisfied"] is True
    assert kkt["stationarity_residual"] <= tol * rate_scale
    assert kkt["complementarity_residual"] <= tol * max(1.0, abs(report["revenue"]))
    assert kkt["primal_feasibility"] <= tol
    assert kkt["dual_feasibility"] >= -tol


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"][:-2]) for c in CASES])
def test_report_matches_golden(capsys, case):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit_code"]
    report = json.loads(out)
    expected = case["report"]
    if expected.get("kkt", {}).get("satisfied"):
        assert list(report["kkt"]) == list(expected["kkt"])
        assert_kkt_within_tolerance(report["kkt"], report)
        expected, report = (
            {**r, "kkt": {k: v for k, v in r["kkt"].items() if k not in RESIDUALS}}
            for r in (expected, report)
        )
    assert_matches(report, expected)
