"""The BENCH collector: parsing of run output and junit XML, and the
paired baseline runs' order and statistics."""

import importlib.util
import subprocess
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


def test_pair_schedule_alternates_order_and_gives_each_seed_both():
    got = bench_collect.pair_schedule(6, seeds=(1, 2))
    assert got == [(1, True), (1, False), (2, True), (2, False), (1, True), (1, False)]
    firsts = [first for _, first in bench_collect.pair_schedule(10)]
    assert sum(firsts) == 5


def test_paired_stats_on_synthetic_runs():
    """Ratios current / baseline are 0.5, 0.6, 0.7, 0.8 and 1.2: the
    current side wins four pairs of five where lower is better."""
    base = [1.0, 1.0, 1.0, 1.0, 1.0]
    cur = [0.5, 0.6, 0.7, 0.8, 1.2]
    out = bench_collect.paired_stats(cur, base, "lower")
    assert out["pairs"] == 5 and out["wins"] == 4
    assert out["ratio"]["median"] == pytest.approx(0.7)
    # statistics.quantiles' exclusive method: positions 1.5 and 4.5 of 5
    assert out["ratio"]["q1"] == pytest.approx(0.55)
    assert out["ratio"]["q3"] == pytest.approx(1.0)
    assert out["baseline"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert out["medians_apart"] is True
    higher = bench_collect.paired_stats(cur, base, "higher")
    assert higher["wins"] == 1 and higher["ratio"] == out["ratio"]


def test_paired_stats_medians_within_the_baseline_spread():
    """Three wins of four, but medians 1.025 and 1.05 lie within the
    baseline's quartiles 0.85 and 1.175."""
    out = bench_collect.paired_stats([1.0, 1.1, 0.9, 1.05], [0.8, 1.2, 1.0, 1.1], "lower")
    assert out["wins"] == 3
    assert out["medians_apart"] is False


def test_paired_stats_skips_missing_values_and_ties():
    out = bench_collect.paired_stats([None, 2.0, 3.0], [1.0, 2.0, 0.0], "higher")
    assert out["pairs"] == 3
    assert out["wins"] == 1                         # 3.0 over 0.0; 2.0 ties
    assert out["ratio"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert bench_collect.paired_stats([None], [None], "lower")["ratio"] is None
    with pytest.raises(ValueError):
        bench_collect.paired_stats([1.0], [1.0], "faster")


def test_summarize_pairs_reads_each_side_of_each_pair():
    def run(op, rss):
        return {"metrics": {"op_p50_s": {"value": op, "unit": "s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    pairs = [{"current": run(0.3, 50.0), "baseline": run(0.4, 50.0)},
             {"current": run(0.2, 51.0), "baseline": run(0.4, 50.0)},
             {"current": {"error": "no result"}, "baseline": run(0.4, 50.0)}]
    out = bench_collect.summarize_pairs(pairs, {"op_p50_s": "lower", "peak_rss_mb": "lower"})
    assert out["op_p50_s"]["wins"] == 2 and out["op_p50_s"]["pairs"] == 3
    assert out["op_p50_s"]["ratio"]["median"] == pytest.approx(0.625)
    assert out["peak_rss_mb"]["wins"] == 0
    assert out["peak_rss_mb"]["current"]["median"] == 50.5


def test_summarize_by_seed_keeps_each_seed_apart():
    """Seed 1 runs at 0.4 s a pair and seed 2 at 0.8 s, each 0.5x on the
    current side: pooled, the baseline's quartiles span both seeds; per
    seed they are flat, and each seed's figures are summarize_pairs' over
    its own pairs."""
    def run(op):
        return {"metrics": {"op_p50_s": {"value": op, "unit": "s"}}}

    pairs = [{"seed": seed, "current": run(base / 2), "baseline": run(base)}
             for seed, base in ((1, 0.4), (1, 0.4), (2, 0.8), (2, 0.8), (1, 0.4))]
    better = {"op_p50_s": "lower"}
    pooled = bench_collect.summarize_pairs(pairs, better)["op_p50_s"]
    assert pooled["baseline"]["q3"] - pooled["baseline"]["q1"] == pytest.approx(0.4)
    out = bench_collect.summarize_by_seed(pairs, better)
    assert list(out) == ["1", "2"]
    assert out["1"] == bench_collect.summarize_pairs([p for p in pairs if p["seed"] == 1],
                                                     better)
    one, two = out["1"]["op_p50_s"], out["2"]["op_p50_s"]
    assert (one["pairs"], two["pairs"]) == (3, 2)
    assert one["baseline"] == {"median": 0.4, "q1": 0.4, "q3": 0.4}
    assert two["current"]["median"] == pytest.approx(0.4)
    assert one["ratio"]["median"] == two["ratio"]["median"] == pytest.approx(0.5)
    assert one["wins"] == 3 and two["wins"] == 2
    assert bench_collect.summarize_by_seed([], better) == {}


def test_clone_rev_checks_out_the_revision(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)

    git("init", "-q")
    for text in ("one", "two"):
        (repo / "f.txt").write_text(text)
        git("add", "f.txt")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", text)
    sha = bench_collect.clone_rev(str(repo), "HEAD~1", str(tmp_path / "old"))
    assert (tmp_path / "old" / "f.txt").read_text() == "one"
    assert sha == bench_collect._git(str(repo), "rev-parse", "HEAD~1")
    with pytest.raises(ValueError):
        bench_collect.clone_rev(str(repo), "no-such-rev", str(tmp_path / "none"))


def test_environment_records_an_absent_package_as_null(monkeypatch, tmp_path):
    """scipy serves only the tests' oracles, so a run without it records
    its version as null rather than failing or writing an empty string."""
    import importlib.metadata
    import json

    real = importlib.metadata.version

    def version(dist):
        if dist == "scipy":
            raise importlib.metadata.PackageNotFoundError(dist)
        return real(dist)

    monkeypatch.setattr(importlib.metadata, "version", version)
    env = bench_collect.environment(str(tmp_path))
    assert env["scipy"] is None
    assert env["numpy"] == real("numpy")
    assert json.loads(json.dumps(env))["scipy"] is None


def _junit(times: dict, failed=()) -> str:
    """A junit report of acceptance criteria with the given times."""
    cases = "".join(
        f'<testcase classname="tests.test_acceptance" name="test_criterion_{n:02d}_x" '
        f'time="{t}">' + ('<failure message="no"/>' if n in failed else "") + "</testcase>"
        for n, t in times.items())
    return f'<testsuites><testsuite name="pytest">{cases}</testsuite></testsuites>'


def test_run_acceptance_pairs_alternates_the_sides(monkeypatch):
    calls = []

    def run_acceptance(root):
        calls.append(root)
        return {"returncode": 0, "criteria": {}}

    monkeypatch.setattr(bench_collect, "run_acceptance", run_acceptance)
    done = bench_collect.run_acceptance_pairs("cur", "base")
    assert calls == ["cur", "base", "base", "cur"]
    assert [(p["pair"], p["current_first"]) for p in done] == [(0, True), (1, False)]
    assert all(p["current"]["criteria"] == {} for p in done)


def test_summarize_acceptance_pairs_each_criterion_on_synthetic_junit():
    """Criterion 1 takes 20 and 30 s on the current side against 25 and
    25 s; criterion 4 fails once on the baseline, which leaves one ratio;
    criterion 5 runs only on the current side."""
    def side(times, failed=()):
        return {"returncode": 0, "criteria": bench_collect.parse_junit(_junit(times, failed))}

    pairs = [
        {"current": side({1: 20.0, 4: 8.0, 5: 1.0}), "baseline": side({1: 25.0, 4: 10.0})},
        {"current": side({1: 30.0, 4: 9.0, 5: 1.0}),
         "baseline": side({1: 25.0, 4: 12.0}, failed={4})},
    ]
    out = bench_collect.summarize_acceptance(pairs)
    assert list(out) == ["1", "4", "5"]
    one = out["1"]
    assert one["pairs"] == 2 and one["wins"] == 1 and one["better"] == "lower"
    assert one["ratio"]["median"] == pytest.approx(1.0)
    assert one["baseline"]["median"] == 25.0
    assert out["4"]["ratio"] == {"median": 0.8, "q1": 0.8, "q3": 0.8}
    assert out["4"]["wins"] == 1
    assert out["5"]["ratio"] is None and out["5"]["wins"] == 0
