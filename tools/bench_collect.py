"""Collect one point of the BENCH trajectory into a JSON file.

    python3 tools/bench_collect.py --out BENCH_2.json
    python3 tools/bench_collect.py --root /path/to/other/checkout --out BENCH_1.json

Runs bench/run.py of the checkout at --root (default: this repository) for
the four workloads untraced on seeds 1 and 2, then once traced per
workload on seed 1, then `pytest tests/test_acceptance.py --junitxml` for
the time of each acceptance criterion. Each run lasts the `run_seconds` of
that checkout's BENCHMARK.json. Records the git sha (with a hash of the
code's diff from it when the tracked files differ), nproc and the Python, numpy
and scipy versions next to the results. Runs go one at a time, so each has
the machine to itself. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

WORKLOADS = ("lines", "spread", "radial", "cli")
SEEDS = (1, 2)
TRACE_SEED = 1
_CRITERION = re.compile(r"test_criterion_(\d+)_")


def parse_run_output(stdout: str) -> dict:
    """The result object bench/run.py prints as its last line."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"last line is not a run result: {lines[-1][:80]!r}")
    return result


def parse_junit(xml_text: str) -> dict:
    """Per-criterion time and outcome from a pytest junit XML report,
    keyed by criterion number."""
    criteria = {}
    for case in ET.fromstring(xml_text).iter("testcase"):
        m = _CRITERION.match(case.get("name", ""))
        if m is None:
            continue
        outcome = "passed"
        for tag in ("failure", "error", "skipped"):
            if case.find(tag) is not None:
                outcome = "failed" if tag == "failure" else tag
                break
        criteria[int(m.group(1))] = {
            "test": case.get("name"),
            "time_s": float(case.get("time", "nan")),
            "outcome": outcome,
        }
    return dict(sorted(criteria.items()))


def _git(root: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def environment(root: str) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return ""

    # A dirty tree is named by the sha256 of its diff from HEAD, the output of
    #   git diff HEAD --binary -- . ':(exclude)BENCH_*.json' ':(exclude)*.md' | sha256sum
    # BENCH files and documents are left out: the file being written, and
    # notes quoting it, cannot change the hash, and they run no code.
    diff = subprocess.run(
        ["git", "-C", root, "diff", "HEAD", "--binary", "--", ".",
         ":(exclude)BENCH_*.json", ":(exclude)*.md"],
        capture_output=True).stdout
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(diff),
        "git_diff_sha256": hashlib.sha256(diff).hexdigest() if diff else "",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def run_seconds(root: str) -> float:
    """The run length the checkout's benchmark declares."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def run_workload(root: str, workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    entry = {"workload": workload, "seed": seed, "trace": trace,
             "returncode": proc.returncode}
    try:
        entry.update(parse_run_output(proc.stdout))
    except ValueError as exc:
        entry["error"] = f"{exc}; stderr: {proc.stderr[-400:]}"
    return entry


def run_acceptance(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        xml_path = os.path.join(tmp, "acceptance.xml")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_acceptance.py", f"--junitxml={xml_path}"],
            cwd=root, env=env, capture_output=True, text=True)
        xml_text = ""
        if os.path.isfile(xml_path):
            with open(xml_path, encoding="utf-8") as fh:
                xml_text = fh.read()
    return {"returncode": proc.returncode,
            "criteria": parse_junit(xml_text) if xml_text else {}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose bench/ and tests/ to run")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    seconds = run_seconds(root)

    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            runs.append(run_workload(root, workload, seed, 0, seconds))
            print(f"{workload} seed {seed}: exit {runs[-1]['returncode']}", file=sys.stderr)
    for workload in WORKLOADS:
        runs.append(run_workload(root, workload, TRACE_SEED, 1, seconds))
        print(f"{workload} traced: exit {runs[-1]['returncode']}", file=sys.stderr)
    acceptance = run_acceptance(root)
    print(f"acceptance: exit {acceptance['returncode']}", file=sys.stderr)

    out = {"environment": environment(root), "run_seconds": seconds,
           "runs": runs, "acceptance": acceptance}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    failed = [r for r in runs if r["returncode"] != 0 or "error" in r]
    return 1 if failed or acceptance["returncode"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
