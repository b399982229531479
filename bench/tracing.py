"""Per-layer tracing from outside the library.

The tracer replaces gmtlab functions with timing wrappers at run time,
in every gmtlab module that holds them, so calls made through names bound
with `from .x import y` are traced too. Each call records a span
(name, start, end, parent) in memory; the spans are written out when the
run ends. A layer's self time is its spans' time minus their children's.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

# (module, function) pairs the traced run wraps; "Class.method" for methods
LAYERS = (
    ("incidence", "spanned_lines"),
    ("incidence", "beck_analyze"),
    ("incidence", "LineSet.from_lines"),
    ("incidence", "incidence_count"),
    ("generators", "gen_random_delta_s_set"),
    ("generators", "gen_planted_collinear"),
    ("dyadic", "count_cells"),
    ("covering", "box_dimension"),
    ("covering", "hausdorff_content"),
    ("covering", "frostman_extract"),
    ("covering", "verify_delta_s_set"),
    ("covering", "circle_box_dimension"),
    ("measures", "ball_masses_at_support"),
    ("measures", "frostman_fit"),
    ("measures", "radial_pushforward"),
    ("tubes", "uniform_tube_family"),
    ("tubes", "containment_multiplicity"),
    ("tubes", "heaviest_tube"),
    ("tubes", "tube_mass_exponent"),
    ("tubes", "verify_tube_set"),
    ("experiments", "furstenberg_count"),
    ("experiments", "radial_dimension_profile"),
)

COUNTS = (
    "incidence.pairs_keyed",
    "incidence.lines_spanned",
    "incidence.lines_supplied",
    "incidence.lines_kept",
    "covering.cells_counted",
    "covering.ball_centres",
    "tubes.probes",
    "tubes.family_size",
    "experiments.union_cells",
)

# README § Command line, by command name
CLI_COMMANDS = ("generate", "dimension", "incidence", "beck", "tubes",
                "furstenberg", "project", "ortho", "audit-constants")
IMPORTED = ("gmtlab.cli", "scipy.signal", "scipy.spatial", "scipy.stats")

COUNTER_SPAN = "trace.counter"


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, fn in LAYERS:
        out.append((f"{mod}.{fn}.self_s", "s"))
        out.append((f"{mod}.{fn}.calls", "count"))
    out.extend((name, "count") for name in COUNTS)
    for cmd in CLI_COMMANDS:
        out.append((f"cli.{cmd}.wall_s", "s"))
        out.append((f"cli.{cmd}.compute_s", "s"))
    out.append(("cli.startup_s", "s"))
    out.extend((f"cli.importtime.{mod}_s", "s") for mod in IMPORTED)
    return out


def per_layer_values(tracer: "Tracer", extra: dict) -> dict:
    """Every per-layer metric as name -> (value, unit): self times and
    calls from the tracer's spans, its counts, and the workload's own
    figures in `extra`. A layer the workload never calls reads 0."""
    spans = tracer.self_times()
    measured = dict(tracer.counts)
    for mod, fn in LAYERS:
        self_s, calls = spans.get(f"{mod}.{fn}", (0.0, 0))
        measured[f"{mod}.{fn}.self_s"] = self_s
        measured[f"{mod}.{fn}.calls"] = calls
    measured.update(extra)
    return {name: (measured.get(name, 0), unit) for name, unit in per_layer_metrics()}


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _ball_centres(p) -> int:
    """Ball queries verify_delta_s_set makes on p: every point plus every
    occupied dyadic square, at each level from 0 to the set's resolution."""
    pts = p.points.tolist()
    top = min(20, int(math.floor(math.log2(1.0 / p.delta) + 1e-9)))
    total = 0
    for lv in range(top + 1):
        side = 2.0 ** -lv
        total += len(pts) + len({(math.floor(x / side), math.floor(y / side))
                                 for x, y in pts})
    return total


def _count_spanned(counts, args, kwargs, result):
    n = len(_first_arg(args, kwargs))
    counts["incidence.pairs_keyed"] += n * (n - 1) // 2
    counts["incidence.lines_spanned"] += len(result)


def _count_from_lines(counts, args, kwargs, result):
    # args[0] is the class
    lines = args[1] if len(args) > 1 else kwargs["lines"]
    counts["incidence.lines_supplied"] += len(lines)
    counts["incidence.lines_kept"] += len(result)


def _count_cells(counts, args, kwargs, result):
    counts["covering.cells_counted"] += int(result)


def _count_ball_centres(counts, args, kwargs, result):
    counts["covering.ball_centres"] += _ball_centres(_first_arg(args, kwargs))


def _count_probe(counts, args, kwargs, result):
    counts["tubes.probes"] += 1
    counts["tubes.family_size"] = max(counts["tubes.family_size"],
                                      len(_first_arg(args, kwargs)))


def _count_union(counts, args, kwargs, result):
    counts["experiments.union_cells"] += int(result["count"])


COUNTERS = {
    "incidence.spanned_lines": _count_spanned,
    "incidence.LineSet.from_lines": _count_from_lines,
    "dyadic.count_cells": _count_cells,
    "covering.verify_delta_s_set": _count_ball_centres,
    "tubes.containment_multiplicity": _count_probe,
    "experiments.furstenberg_count": _count_union,
}


class Tracer:
    """Records spans around wrapped functions. Single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in COUNTS}
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn, counter=None):
        """A function that runs fn inside a span called name, then runs
        counter(counts, args, kwargs, result) inside a counter span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                t0 = clock()
                counter(self.counts, args, kwargs, result)
                spans.append([COUNTER_SPAN, t0, clock(), span[3]])
            return result

        return traced

    def install(self, package: str = "gmtlab") -> None:
        """Wrap every LAYERS function wherever a module of the package
        holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for mod_name, fn_name in LAYERS:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules[f"{package}.{mod_name}"]
            counter = COUNTERS.get(name)
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(home, cls_name)
                static = inspect.getattr_static(cls, meth)
                if not isinstance(static, classmethod):
                    raise TypeError(f"{name} is not a classmethod")
                traced = self.wrap(name, static.__func__, counter)
                setattr(cls, meth, classmethod(traced))
                self._restore.append((cls, meth, static))
                continue
            original = getattr(home, fn_name)
            traced = self.wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self) -> dict:
        """name -> [self seconds, calls] over every recorded span."""
        out: dict = {}
        for name, start, end, parent in self.spans:
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += end - start
            entry[1] += 1
            if parent >= 0:
                out.setdefault(self.spans[parent][0], [0.0, 0])[0] -= end - start
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")
