"""Command-line surface: generation, dimension estimation, incidence and
line statistics, tube families, union tube counting, projection
experiments, and the bootstrap constant schedule.

Every run writes a JSON report envelope plus CSV sidecars into --out.
Exit codes: 0 success, 2 bad input or configuration, 3 a computed result
failed its own invariant (including a report missing a required key).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import io as gio
from .covering import box_dimension
from .errors import ConfigInvalid, InvariantViolation, PreconditionError
from .generators import (
    RNG_ALGORITHM,
    cantor_middle_thirds,
    circle_set,
    four_corner_product,
    gen_grid,
    gen_ifs,
    gen_planted_collinear,
    gen_random_delta_s_set,
    segment_set,
)
from .geometry import Line
from .incidence import LineSet, beck_analyze, incidence_count, spanned_lines
from .experiments import (
    ExperimentSpec,
    Target,
    erdos_beck_profile,
    furstenberg_count,
    line_set_dimension,
    orthogonal_exceptional_profile,
    radial_dimension_profile,
)
from .tubes import (
    bootstrap_schedule,
    containment_multiplicity,
    sample_probe_tubes,
    uniform_tube_family,
)

SCHEMA_VERSION = "2.0.0"

# Keys each command's results must carry; _emit refuses (exit 3) a report
# missing any of them.
_REQUIRED_RESULTS = {
    "generate": ("n_points", "delta", "points_csv"),
    "dimension": ("slope", "level_range", "counts"),
    "incidence": ("n_points", "n_lines", "incidence_count", "cs_bound"),
    "beck": ("n_points", "max_collinear", "spanned_line_count",
             "dichotomy_verdict"),
    "tubes": ("family_size", "scale", "multiplicity"),
    "furstenberg": ("count", "wolff_floor", "ratio"),
    "project": ("target",),
    "ortho": ("n_exceptional", "measured_dim", "sigma"),
    "audit-constants": ("eta", "kappa", "log2_r0", "log2_r1", "log2_r2",
                        "log2_k_prime"),
}


def _echo_config(args, extra: dict) -> dict:
    cfg = {
        "seed": int(args.seed),
        "rng": RNG_ALGORITHM,
        "out": args.out,
    }
    cfg.update(extra)
    return cfg


def _emit(args, command: str, config: dict, results: dict,
          warnings: list, t0: float, sidecars=()) -> None:
    """Check the results, then write each sidecar (write, path, *data) as
    write(path, *data) and the report, so a refused report writes nothing."""
    missing = [k for k in _REQUIRED_RESULTS[command] if k not in results]
    if missing:
        raise InvariantViolation(
            f"{command} report is missing result keys {missing}"
        )
    os.makedirs(args.out, exist_ok=True)
    for write, sidecar, *data in sidecars:
        write(sidecar, *data)
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "timing": {"elapsed_seconds": time.perf_counter() - t0},
        "results": results,
        "warnings": [str(w) for w in warnings],
    }
    path = os.path.join(args.out, f"{command}-report.json")
    gio.write_json(path, envelope)
    print(f"{command}: report written to {path}")


def _read_points(args, attr: str = "input"):
    path = getattr(args, attr.replace("-", "_"))
    return gio.read_points_csv(path, delta=getattr(args, "delta", None))


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    kind = args.kind
    if kind == "cantor3":
        ds = gen_ifs(cantor_middle_thirds(), args.delta)
    elif kind == "fourcorner":
        ds = gen_ifs(four_corner_product(), args.delta)
    elif kind == "random":
        if args.s is None:
            raise ConfigInvalid("--kind random needs --s")
        ds = gen_random_delta_s_set(args.s, args.delta, args.seed)
    elif kind == "grid":
        ds = gen_grid(args.m)
    elif kind == "segment":
        ds = segment_set(args.n)
    elif kind == "circle":
        ds = circle_set(args.n)
    elif kind == "planted":
        ds = gen_planted_collinear(args.n, args.k, args.seed)
    else:
        raise ConfigInvalid(f"unknown kind {kind!r}")
    pts_path = os.path.join(args.out, "points.csv")
    config = _echo_config(args, {
        "kind": kind, "delta": args.delta, "s": args.s,
        "n": args.n, "m": args.m, "k": args.k,
    })
    results = {
        "n_points": len(ds), "delta": ds.delta, "label": ds.label,
        "points_csv": pts_path, "meta": ds.meta,
    }
    _emit(args, "generate", config, results, [], t0,
          [(gio.write_points_csv, pts_path, ds)])
    return 0


def cmd_dimension(args) -> int:
    t0 = time.perf_counter()
    ds = _read_points(args)
    est = box_dimension(ds, args.level_min, args.level_max)
    lv_path = os.path.join(args.out, "levels.csv")
    config = _echo_config(args, {
        "input": args.input, "level_min": args.level_min,
        "level_max": args.level_max, "delta": ds.delta,
    })
    results = {
        "slope": est.slope, "intercept": est.intercept,
        "r_squared": est.r_squared,
        "level_range": list(est.level_range),
        "counts": [[int(l), int(c)] for l, c in est.counts],
        "levels_csv": lv_path,
    }
    _emit(args, "dimension", config, results, [], t0,
          [(gio.write_levels_csv, lv_path, est.counts)])
    return 0


def cmd_incidence(args) -> int:
    t0 = time.perf_counter()
    ds = _read_points(args)
    if args.lines:
        ls = LineSet.from_lines([
            Line.from_angle_offset(a, o) for a, o in gio.read_lines_csv(args.lines)
        ])
    else:
        ls = spanned_lines(ds)
    report = incidence_count(ds, ls, eps=args.eps)
    config = _echo_config(args, {
        "input": args.input, "lines": args.lines, "eps": args.eps,
        "delta": ds.delta,
    })
    _emit(args, "incidence", config, report.as_json(), report.warnings, t0)
    return 0


def cmd_beck(args) -> int:
    t0 = time.perf_counter()
    ds = _read_points(args)
    report = beck_analyze(ds, c_threshold=args.c)
    config = _echo_config(args, {"input": args.input, "c": args.c,
                                 "delta": ds.delta})
    _emit(args, "beck", config, report.as_json(), [], t0)
    return 0


def cmd_tubes(args) -> int:
    t0 = time.perf_counter()
    fam = uniform_tube_family(args.r)
    angles, offsets = sample_probe_tubes(args.r, args.probes, args.seed)
    mults = np.array([
        containment_multiplicity(fam, angles[i], offsets[i])
        for i in range(args.probes)
    ])
    tubes_path = os.path.join(args.out, "tubes.csv")
    config = _echo_config(args, {
        "r": args.r, "probes": args.probes,
    })
    results = {
        "family_size": len(fam),
        "scale": fam.scale,
        "width": fam.width,
        "size_bounds": [0.25 / args.r ** 2, 16.0 / args.r ** 2],
        "multiplicity": {
            "min": int(mults.min()), "max": int(mults.max()),
            "mean": float(mults.mean()),
        },
        "tubes_csv": tubes_path,
    }
    _emit(args, "tubes", config, results, [], t0,
          [(gio.write_tubes_csv, tubes_path, fam.angles, fam.offsets, fam.width)])
    return 0


def cmd_furstenberg(args) -> int:
    t0 = time.perf_counter()
    out = furstenberg_count(args.sigma, args.s, args.delta, args.seed)
    warnings = out.pop("warnings")
    config = _echo_config(args, {
        "sigma": args.sigma, "s": args.s, "delta": args.delta,
    })
    _emit(args, "furstenberg", config, out, warnings, t0)
    return 0


def cmd_project(args) -> int:
    t0 = time.perf_counter()
    target = Target.parse(args.target)
    x_set = _read_points(args, "x-input")
    config = _echo_config(args, {
        "target": target.value, "x_input": args.x_input,
        "y_input": args.y_input, "x_sample": args.x_sample,
        "level_min": args.level_min, "level_max": args.level_max,
        "t": args.t,
    })
    warnings: list = []
    sidecars = []
    if target in (Target.KAUFMAN11, Target.FALCONER12):
        y_set = gio.read_points_csv(args.y_input) if args.y_input else x_set
        spec = ExperimentSpec(
            x_set, y_set, x_sample=args.x_sample,
            scale_levels=(args.level_min, args.level_max), target=target,
        )
        res = radial_dimension_profile(spec)
        table_path = os.path.join(args.out, "per_x.csv")
        sidecars.append((gio.write_profile_csv, table_path, res.per_x_table))
        results = {"target": target.value, **res.as_json(),
                   "per_x_csv": table_path}
        warnings = results.pop("warnings")
    elif target is Target.BECKCOR13:
        est = line_set_dimension(x_set)
        results = {
            "target": target.value, "measured": est.slope,
            "level_range": list(est.level_range),
            "counts": [[int(l), int(c)] for l, c in est.counts],
        }
    else:
        out = erdos_beck_profile(x_set, args.t)
        warnings = out.pop("warnings")
        results = {"target": target.value, **out}
    _emit(args, "project", config, results, warnings, t0, sidecars)
    return 0


def cmd_ortho(args) -> int:
    t0 = time.perf_counter()
    ds = _read_points(args)
    out = orthogonal_exceptional_profile(ds, args.sigma)
    dir_path = os.path.join(args.out, "exceptional.csv")
    exc = out.pop("exceptional_directions")
    dims = out.pop("projection_dims")
    config = _echo_config(args, {"input": args.input, "sigma": args.sigma,
                                 "delta": ds.delta})
    results = {**out, "exceptional_csv": dir_path}
    _emit(args, "ortho", config, results, [], t0,
          [(gio.write_angles_csv, dir_path, exc, dims[dims < args.sigma])])
    return 0


def cmd_audit_constants(args) -> int:
    t0 = time.perf_counter()
    sched = bootstrap_schedule(
        args.sigma, args.s, args.eps,
        k_constant=args.k_constant, frostman_constant=args.frostman_constant,
    )
    config = _echo_config(args, {
        "sigma": args.sigma, "s": args.s, "eps": args.eps,
        "k_constant": args.k_constant,
        "frostman_constant": args.frostman_constant,
    })
    _emit(args, "audit-constants", config, sched, [], t0)
    return 0


def _int_from(low: int):
    """argparse type: an integer no smaller than low, so that a bad count
    or seed exits 2 at the parser."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gmtlab",
        description="Discretized radial projections, incidences, and tubes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=_int_from(0), default=0)

    g = sub.add_parser("generate", help="emit a point-set CSV")
    g.add_argument("--kind", required=True,
                   choices=["cantor3", "fourcorner", "random", "grid",
                            "segment", "circle", "planted"])
    g.add_argument("--delta", type=float, default=2.0 ** -8)
    g.add_argument("--s", type=float, default=None)
    g.add_argument("--n", type=int, default=256)
    g.add_argument("--m", type=int, default=16)
    g.add_argument("--k", type=int, default=0)
    common(g)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("dimension", help="box dimension of a point CSV")
    d.add_argument("--input", required=True)
    d.add_argument("--delta", type=float, default=None)
    d.add_argument("--level-min", type=int, default=2)
    d.add_argument("--level-max", type=int, default=8)
    common(d)
    d.set_defaults(func=cmd_dimension)

    i = sub.add_parser("incidence", help="point-line incidence statistics")
    i.add_argument("--input", required=True)
    i.add_argument("--delta", type=float, default=None)
    i.add_argument("--lines", default=None,
                   help="optional angle,offset CSV; spanned lines otherwise")
    i.add_argument("--eps", type=float, default=None)
    common(i)
    i.set_defaults(func=cmd_incidence)

    b = sub.add_parser("beck", help="spanned-line dichotomy statistics")
    b.add_argument("--input", required=True)
    b.add_argument("--delta", type=float, default=None)
    b.add_argument("--c", type=float, default=64.0)
    common(b)
    b.set_defaults(func=cmd_beck)

    t = sub.add_parser("tubes", help="uniform tube family and probe stats")
    t.add_argument("--r", type=float, required=True)
    t.add_argument("--probes", type=_int_from(1), default=1000)
    common(t)
    t.set_defaults(func=cmd_tubes)

    f = sub.add_parser("furstenberg", help="union tube covering count")
    f.add_argument("--sigma", type=float, required=True)
    f.add_argument("--s", type=float, required=True)
    f.add_argument("--delta", type=float, default=2.0 ** -10)
    common(f)
    f.set_defaults(func=cmd_furstenberg)

    pr = sub.add_parser("project", help="projection experiments")
    pr.add_argument("--target", required=True)
    pr.add_argument("--x-input", required=True)
    pr.add_argument("--y-input", default=None)
    pr.add_argument("--x-sample", type=int, default=32)
    pr.add_argument("--level-min", type=int, default=2)
    pr.add_argument("--level-max", type=int, default=8)
    pr.add_argument("--t", type=float, default=0.05,
                    help="line-removal hypothesis for erdosbeck")
    common(pr)
    pr.set_defaults(func=cmd_project)

    o = sub.add_parser("ortho", help="exceptional projection directions")
    o.add_argument("--input", required=True)
    o.add_argument("--delta", type=float, default=None)
    o.add_argument("--sigma", type=float, required=True)
    common(o)
    o.set_defaults(func=cmd_ortho)

    a = sub.add_parser("audit-constants", help="bootstrap constant schedule")
    a.add_argument("--sigma", type=float, required=True)
    a.add_argument("--s", type=float, required=True)
    a.add_argument("--eps", type=float, required=True)
    a.add_argument("--k-constant", type=float, default=1.0)
    a.add_argument("--frostman-constant", type=float, default=1.0)
    common(a)
    a.set_defaults(func=cmd_audit_constants)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
