"""Closed-loop runner shared by the workloads: set-up timing, the timed
loop of whole rounds, failure accounting and the summary statistics.

A workload provides `setup()`, `warm_up()`, `round()` (the ops of one
round, each an `Op`) and `peak_rss_mb()`. One caller runs the ops one
after another; the next op starts only when the previous one returned.
Only the op's call is timed. Its check runs after the clock stops.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

# set-ups per run; setup_s is their median
SETUP_REPEATS = 3


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # returns the list of problems found in the result, empty when correct
    check: Callable[[object], list]


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)  # ops that completed and passed
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # (label, message) per bad check
    errors: list = field(default_factory=list)  # (label, message) per raised op
    rounds: int = 0

    @property
    def correct(self) -> bool:
        """True when no completed op returned a wrong result."""
        return not self.problems


def run_closed_loop(workload, seconds: float, clock=time.perf_counter) -> RunResult:
    """Set the workload up SETUP_REPEATS times, then run whole rounds of
    its ops until `seconds` of loop time have passed.

    An op that raises counts as failed and the loop goes on; so does an
    op whose check reports a problem, which also makes the run incorrect.
    """
    res = RunResult()
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        workload.setup()
        workload.warm_up()
        res.setup_s.append(clock() - t0)
    start = clock()
    while True:
        for op in workload.round():
            res.attempted += 1
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # a failed op is counted, not fatal
                res.failed += 1
                res.errors.append((op.label, repr(exc)))
                continue
            elapsed = clock() - t0
            try:
                problems = op.check(result)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {exc!r}"]
            if problems:
                res.failed += 1
                res.problems.extend((op.label, p) for p in problems)
            else:
                res.op_s.append(elapsed)
        res.rounds += 1
        if clock() - start >= seconds:
            return res


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple:
    """(q1, median, q3) with the same method as statistics.quantiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(res: RunResult, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run, as name -> (value, unit)."""
    done = len(res.op_s)
    return {
        "setup_s": (median(res.setup_s), "s"),
        "throughput_ops_s": (done / sum(res.op_s) if done else 0.0, "1/s"),
        "op_p50_s": (median(res.op_s) if done else None, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def describe(res: RunResult) -> list:
    """Human-readable lines: sample counts and the per-op distribution."""
    lines = [
        f"ops attempted {res.attempted}, failed {res.failed}, "
        f"completed {len(res.op_s)} in {res.rounds} round(s)",
        "setup samples " + ", ".join(f"{v:.4f}" for v in res.setup_s) + " s",
    ]
    if res.op_s:
        q1, q2, q3 = quartiles(res.op_s)
        lines.append(
            f"op wall time n={len(res.op_s)}: min {min(res.op_s):.4f} q1 {q1:.4f} "
            f"p50 {q2:.4f} q3 {q3:.4f} max {max(res.op_s):.4f} s"
        )
    for label, msg in res.errors[:5]:
        lines.append(f"op {label} raised {msg}")
    for label, msg in res.problems[:5]:
        lines.append(f"op {label} check failed: {msg}")
    return lines
