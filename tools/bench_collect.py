"""Collect one point of the BENCH trajectory into a JSON file.

    python3 tools/bench_collect.py --out BENCH_2.json
    python3 tools/bench_collect.py --root /path/to/other/checkout --out BENCH_1.json
    python3 tools/bench_collect.py --baseline HEAD~1 --pairs 10 --out BENCH_7.json

Runs bench/run.py of the checkout at --root (default: this repository) for
the four workloads untraced on seeds 1 and 2, then once traced per
workload on seed 1, then `pytest tests/test_acceptance.py --junitxml` for
the time of each acceptance criterion. Each run lasts the `run_seconds` of
that checkout's BENCHMARK.json. Records the git sha (with a hash of the
code's diff from it when the tracked files differ), nproc and the Python, numpy
and scipy versions (null for a package that is not installed) next to the
results. Runs go one at a time, so each has
the machine to itself. Standard library only.

With --baseline, the revision is cloned into a temporary directory and
each workload then runs in --pairs alternating pairs of untraced runs,
one on each side, for the same run length. The current side runs first
in every other pair, and each seed gets both orders. For each end-to-end
metric the file records both sides' median and quartiles, the median and
quartiles of the per-pair ratio current / baseline, and the pairs the
current side won: a drift in the host's speed moves both runs of a pair,
so the ratios hold across files where absolute numbers do not. The same
figures are recorded over all pairs and over each seed's pairs alone.
The acceptance gate then runs in two pairs, one in each order, and each
criterion's passing times get the same paired figures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
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
    def version(dist: str):
        """The installed version, or None (JSON null) when it is absent:
        scipy is needed only by the tests' oracles."""
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

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


def pair_schedule(pairs: int, seeds=SEEDS) -> list:
    """(seed, current_first) of each pair: the order flips every pair and
    the seed every two pairs, so each seed runs in both orders."""
    return [(seeds[(k // 2) % len(seeds)], k % 2 == 0) for k in range(pairs)]


def _spread(values: list) -> dict:
    """Median and quartiles, by the method of statistics.quantiles."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def paired_stats(current: list, baseline: list, better: str) -> dict:
    """Both sides' spread, the per-pair ratio current / baseline, the pairs
    the current side won (a tie wins nothing) and whether the medians lie
    further apart than the baseline's interquartile range, for one metric
    whose `better` is "lower" or "higher". A pair missing a value counts
    in `pairs` but gives no ratio and no win, as does a zero baseline for
    the ratio."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")
    both = [(c, b) for c, b in zip(current, baseline) if c is not None and b is not None]
    ratios = [c / b for c, b in both if b != 0]
    wins = sum(1 for c, b in both if (c < b if better == "lower" else c > b))
    out = {"pairs": len(current), "wins": wins, "better": better}
    for name, values in (("current", [c for c, _ in both]),
                         ("baseline", [b for _, b in both]), ("ratio", ratios)):
        out[name] = _spread(values) if values else None
    cur, base = out["current"], out["baseline"]
    out["medians_apart"] = (cur is not None and abs(cur["median"] - base["median"])
                            > base["q3"] - base["q1"])
    return out


def _metric_values(entries: list, name: str) -> list:
    return [e.get("metrics", {}).get(name, {}).get("value") for e in entries]


def summarize_pairs(pairs: list, better: dict) -> dict:
    """Paired statistics of every end-to-end metric over a workload's
    pairs, each a dict holding a "current" and a "baseline" run entry."""
    cur = [p["current"] for p in pairs]
    base = [p["baseline"] for p in pairs]
    return {name: paired_stats(_metric_values(cur, name), _metric_values(base, name), way)
            for name, way in better.items()}


def summarize_by_seed(pairs: list, better: dict) -> dict:
    """summarize_pairs over each seed's pairs alone, keyed by the seed as a
    string: the seeds' items run at different speeds, so the pooled
    quartiles mix seed-to-seed and host noise."""
    seeds = sorted({p["seed"] for p in pairs})
    return {str(seed): summarize_pairs([p for p in pairs if p["seed"] == seed], better)
            for seed in seeds}


def clone_rev(root: str, rev: str, dest: str) -> str:
    """A `git clone` of root at rev in dest; returns the commit sha."""
    sha = _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    if not sha:
        raise ValueError(f"no commit {rev!r} in {root}")
    subprocess.run(["git", "clone", "-q", "--no-checkout", root, dest], check=True)
    subprocess.run(["git", "-C", dest, "checkout", "-q", sha], check=True)
    return sha


def _run_pair(entry: dict, root: str, base_root: str, run) -> dict:
    """entry with run(checkout) of each side added under "current" and
    "baseline", in the order entry["current_first"] gives."""
    sides = [("current", root), ("baseline", base_root)]
    for side, where in sides if entry["current_first"] else sides[::-1]:
        entry[side] = run(where)
    return entry


def run_pairs(root: str, base_root: str, pairs: int, seconds: float) -> dict:
    """Alternating current and baseline runs of every workload."""
    out = {}
    for workload in WORKLOADS:
        done = []
        for k, (seed, current_first) in enumerate(pair_schedule(pairs)):
            entry = _run_pair({"pair": k, "seed": seed, "current_first": current_first},
                              root, base_root,
                              lambda where: run_workload(where, workload, seed, 0, seconds))
            done.append(entry)
            print(f"{workload} pair {k}: exit {entry['current']['returncode']}, "
                  f"{entry['baseline']['returncode']}", file=sys.stderr)
        out[workload] = done
    return out


def run_acceptance_pairs(root: str, base_root: str) -> list:
    """Two pairs of current and baseline runs of the acceptance gate, one in
    each order: a gate run takes about a minute per side."""
    done = []
    for k in range(2):
        done.append(_run_pair({"pair": k, "current_first": k % 2 == 0},
                              root, base_root, run_acceptance))
        print(f"acceptance pair {k}: exit {done[-1]['current']['returncode']}, "
              f"{done[-1]['baseline']['returncode']}", file=sys.stderr)
    return done


def summarize_acceptance(pairs: list) -> dict:
    """paired_stats of each criterion's time over the acceptance pairs,
    keyed by the criterion number as a string. A time counts only where
    the criterion passed, so a failed or skipped run gives no ratio."""
    def times(side: str, number: int) -> list:
        out = []
        for p in pairs:
            case = p[side]["criteria"].get(number, {})
            out.append(case.get("time_s") if case.get("outcome") == "passed" else None)
        return out

    numbers = sorted({n for p in pairs for side in ("current", "baseline")
                      for n in p[side]["criteria"]})
    return {str(n): paired_stats(times("current", n), times("baseline", n), "lower")
            for n in numbers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose bench/ and tests/ to run")
    p.add_argument("--baseline", help="git revision of --root to run in pairs against")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
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
    failed = [r for r in runs if r["returncode"] != 0 or "error" in r]
    if args.baseline:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        with tempfile.TemporaryDirectory() as tmp:
            base_root = os.path.join(tmp, "baseline")
            sha = clone_rev(root, args.baseline, base_root)
            paired = run_pairs(root, base_root, args.pairs, seconds)
            gate = run_acceptance_pairs(root, base_root)
        out["baseline"] = {"rev": args.baseline, "git_sha": sha, "pairs": args.pairs}
        out["paired"] = {w: {"metrics": summarize_pairs(done, better),
                             "by_seed": summarize_by_seed(done, better), "runs": done}
                         for w, done in paired.items()}
        out["paired_acceptance"] = {"criteria": summarize_acceptance(gate), "runs": gate}
        failed += [e[side] for done in paired.values() for e in done
                   for side in ("current", "baseline")
                   if e[side]["returncode"] != 0 or "error" in e[side]]
        failed += [e["current"] for e in gate if e["current"]["returncode"] != 0]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 1 if failed or acceptance["returncode"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
