"""Smoke test of the benchmark itself, on a tiny case list.

Every workload runs one pass untraced and one pair traced; each must emit
exactly the metric names BENCHMARK.json lists and fail no case.  The golden
checks must also reject a wrong answer, so a pass cannot succeed by
comparing nothing.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "series": ["wedge/N2/degL2", "sym/N2/degL2", "dual/N2/degL2"],
    "grid": ["prop-3.1/1,1,1,1/k0", "prop-3.2/1,1,1,1/k3",
             "prop-3.3-plus/1,1,1/ks/k1", "prop-3.3-plain/1,1,1/ks1,2"],
    "sweep": ["N3n2m2/wedge/0@G2", "N3n2m2/sym/2@G1",
              "N3n2m2/dual/1@G1,2@G2"],
}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    golden = workloads.load_golden(workload)
    assert set(TINY[workload]) <= set(golden)
    result = run.run_workload(workload, seed=1, seconds=0, trace=trace,
                              only=TINY[workload], min_passes=1, min_pairs=1)
    listed = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= len(TINY[workload]) * (2 if trace else 1)
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())


def test_checks_reject_wrong_answers():
    series = workloads.load_golden("series")["wedge/N2/degL2"]
    assert workloads.check_series(series, series) == ""
    wrong = dict(series, stdout=series["stdout"].replace('"1"', '"2"', 1))
    assert workloads.check_series(wrong, series)
    assert workloads.check_series(dict(series, exit=1), series)

    grid = workloads.load_golden("grid")["prop-3.1/1,1,1,1/k0"]
    assert workloads.check_grid(grid, grid) == ""
    assert workloads.check_grid(dict(grid, summands=grid["summands"] + 1),
                                grid)

    sweep = workloads.load_golden("sweep")["N3n2m2/sym/2@G1"]
    assert workloads.check_sweep(sweep, sweep) == ""
    assert workloads.check_sweep(dict(sweep, chi=sweep["chi"] + 1), sweep)
