"""The BENCH collector's parsing of run output and junit XML."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_collect.py"
_spec = importlib.util.spec_from_file_location("bench_collect", _PATH)
bench_collect = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_collect)


def test_parse_run_output_takes_the_last_line():
    stdout = (
        "workload radial seed 1 trace 0: 14.2 s wall\n"
        "metric op_p50_s = 0.4 s\n"
        '{"correct": true, "attempted": 30, "failed": 0, '
        '"metrics": {"op_p50_s": {"value": 0.4, "unit": "s"}}}\n\n'
    )
    out = bench_collect.parse_run_output(stdout)
    assert out["correct"] is True and out["attempted"] == 30
    assert out["metrics"]["op_p50_s"] == {"value": 0.4, "unit": "s"}


@pytest.mark.parametrize("stdout", ["", "\n\n", "metric op_p50_s = 0.4 s\n", "[1, 2]\n"])
def test_parse_run_output_rejects_a_missing_result(stdout):
    with pytest.raises(ValueError):
        bench_collect.parse_run_output(stdout)


def test_parse_junit_keys_criteria_by_number():
    xml = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" tests="4">
 <testcase classname="tests.test_acceptance" name="test_criterion_11_tube_family_contract" time="7.5"/>
 <testcase classname="tests.test_acceptance" name="test_criterion_02_beck_dichotomy" time="25.25">
  <failure message="assert False">trace</failure>
 </testcase>
 <testcase classname="tests.test_acceptance" name="test_criterion_03_dimension_calibration" time="0.0">
  <skipped message="no gmtlab on PATH"/>
 </testcase>
 <testcase classname="tests.test_acceptance" name="test_helper" time="0.1"/>
</testsuite></testsuites>"""
    out = bench_collect.parse_junit(xml)
    assert list(out) == [2, 3, 11]
    assert out[2] == {"test": "test_criterion_02_beck_dichotomy", "time_s": 25.25,
                      "outcome": "failed"}
    assert out[3]["outcome"] == "skipped"
    assert out[11]["time_s"] == 7.5 and out[11]["outcome"] == "passed"


def test_run_seconds_comes_from_the_benchmark(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 7, "workloads": []}')
    assert bench_collect.run_seconds(str(tmp_path)) == 7.0
