"""The four benchmark workloads.

Each workload derives its inputs from the run's seed with the standard
library's `random`, hands gmtlab only those inputs, and checks every
result against `oracles` or against a property the method must have.
A round is a fixed list of ops; the harness repeats whole rounds, so a
run's make-up never depends on how far the clock got. Library functions
are looked up on the `gmtlab` package at call time, which lets the traced
run substitute its wrappers.

What each workload is for, and the layer metrics it should move, is
recorded in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gmtlab as gm

import oracles
from harness import Op
from tracing import IMPORTED


def _rel_close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _process_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _InProcess:
    """Shared shape of the workloads that call gmtlab in this process:
    a pool of seeded items, one op per item per round, and per-item
    oracle values computed on first use (outside the timed region)."""

    name = ""
    pool = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list = []
        self._expected: dict = {}

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def setup(self) -> None:
        self._expected = {}
        self.items = [self.make_item(i) for i in range(self.pool)]

    def warm_up(self) -> None:
        self.run_item(self.items[0])

    def round(self) -> list:
        return [
            Op(f"{self.name}[{i}]",
               lambda item=item: self.run_item(item),
               lambda out, i=i: self.check_item(i, out))
            for i, item in enumerate(self.items)
        ]

    def expected(self, i: int) -> dict:
        if i not in self._expected:
            self._expected[i] = self.oracle(self.items[i])
        return self._expected[i]

    def peak_rss_mb(self) -> float:
        return _process_rss_mb()

    def layer_metrics(self, res) -> dict:
        return {}


class LinesWorkload(_InProcess):
    """512-point sets on the 2^-16 lattice: Beck's dichotomy, supplied-line
    dedupe and incidence counting on the float and exact paths."""

    name = "lines"
    pool = 8
    planted = 2          # the last `planted` items of the pool
    n = 512
    k = 16
    grid = 1 << 16
    prime = 65521        # largest prime below 2^16
    subset = 32          # supplied lines join pairs of this many points
    draws = 400          # supplied lines, drawn with repeats
    line_tol = 1e-9      # gmtlab's line-equality tolerance

    def make_item(self, i: int) -> dict:
        rng = self.rng(i)
        pitch = 1.0 / self.grid
        if i < self.pool - self.planted:
            ints = oracles.parabola_points(self.n, self.prime, rng)
            ds = gm.DiscreteSet([(x * pitch, y * pitch) for x, y in ints], pitch,
                                label=f"parabola-{i}")
        else:
            ds = gm.gen_planted_collinear(self.n, self.k, rng.randrange(1 << 31))
            ints = oracles.lattice_coords(ds.points.tolist(), pitch)
        sub = rng.sample(range(self.n), self.subset)
        pairs = [tuple(rng.sample(sub, 2)) for _ in range(self.draws)]
        pts = ds.points.tolist()
        lines = [gm.Line.through(gm.Point(*pts[a]), gm.Point(*pts[b])) for a, b in pairs]
        sub_ds = gm.DiscreteSet([pts[j] for j in sub], pitch, label=f"subset-{i}")
        return {"planted": i >= self.pool - self.planted, "ds": ds, "ints": ints,
                "sub": sub, "pairs": pairs, "lines": lines, "sub_ds": sub_ds}

    def run_item(self, item: dict) -> tuple:
        beck = gm.beck_analyze(item["ds"])
        supplied = gm.LineSet.from_lines(item["lines"])
        spanned = gm.spanned_lines(item["sub_ds"])
        return (beck, supplied, spanned,
                gm.incidence_count(item["ds"], supplied),
                gm.incidence_count(item["ds"], spanned))

    def oracle(self, item: dict) -> dict:
        ints = item["ints"]
        drawn = {oracles.reduced_triple(ints[a], ints[b]) for a, b in item["pairs"]}
        sub_lines = oracles.line_census([ints[j] for j in item["sub"]])
        if item["planted"]:
            # n-k points on y = 1/2; any other line holds at most k+1 points
            on_line = sum(1 for _, y in ints if y == self.grid // 2)
            if on_line <= self.k + 1:
                raise ValueError(f"only {on_line} points on the planted line")
            max_collinear = on_line
        else:
            max_collinear = 2
        return {
            "max_collinear": max_collinear,
            "kept": len(drawn),
            "near": oracles.near_incidences(ints, 1.0 / self.grid, drawn, self.line_tol),
            "sub_lines": len(sub_lines),
            "exact": oracles.exact_incidences(ints, sub_lines),
        }

    def check_item(self, i: int, out: tuple) -> list:
        beck, supplied, spanned, near, exact = out
        exp = self.expected(i)
        bad = []
        if beck.max_collinear != exp["max_collinear"]:
            bad.append(f"max collinear {beck.max_collinear}, expected {exp['max_collinear']}")
        if not self.items[i]["planted"]:
            if beck.spanned_line_count != self.n * (self.n - 1) // 2:
                bad.append(f"{beck.spanned_line_count} spanned lines in general position")
            if beck.dichotomy_verdict != "ManyLines":
                bad.append(f"verdict {beck.dichotomy_verdict} in general position")
        if len(supplied) != exp["kept"]:
            bad.append(f"kept {len(supplied)} supplied lines, expected {exp['kept']}")
        if len(spanned) != exp["sub_lines"]:
            bad.append(f"{len(spanned)} lines spanned by the subset, expected {exp['sub_lines']}")
        if near.incidence_count != exp["near"]:
            bad.append(f"float-path incidences {near.incidence_count}, expected {exp['near']}")
        if exact.incidence_count != exp["exact"]:
            bad.append(f"exact-path incidences {exact.incidence_count}, expected {exp['exact']}")
        return bad


def _check_witness(bad: list, label: str, ds, ints_cells: int, chk, s: float) -> None:
    """Recount the worst ball of a spread-set check by brute force."""
    r = 2.0 ** -chk.witness_level
    inside = oracles.points_in_ball(ds.points.tolist(), (chk.witness.x, chk.witness.y), r)
    ratio = inside / (r ** s * ints_cells)
    if not _rel_close(ratio, chk.worst_ratio, 1e-12):
        bad.append(f"{label}: witness ball ratio {chk.worst_ratio!r}, recount {ratio!r}")
    if not (chk.passed and chk.worst_ratio <= chk.constant):
        bad.append(f"{label}: worst ratio {chk.worst_ratio:.3f} fails constant {chk.constant}")


def _check_fit_witness(bad: list, label: str, measure, fit, tol: float) -> None:
    """The fitted Frostman constant is the mass of the reported witness
    ball over r^exponent, unless it was clamped up to 1."""
    centre, r = fit.worst_witness
    mass = oracles.ball_mass(measure.support.points.tolist(), measure.weights.tolist(),
                             (centre.x, centre.y), r, tol)
    ratio = mass / r ** fit.exponent
    if fit.constant > 1.0 and not _rel_close(ratio, fit.constant):
        bad.append(f"{label}: Frostman constant {fit.constant!r}, witness recount {ratio!r}")
    if fit.constant == 1.0 and ratio > 1.0 + 1e-9:
        bad.append(f"{label}: Frostman witness ratio {ratio!r} above the clamped constant 1")


class SpreadWorkload(_InProcess):
    """Seeded (delta, s)-sets: dyadic cell counting, ball queries, Frostman
    extraction, and the FFT path of ball masses."""

    name = "spread"
    pool = 4
    s = 1.5
    level = 9            # delta = 2^-9
    rho_level = 7        # frostman_extract scale
    constant = 16.0
    dim_levels = (2, 9)
    fit_levels = (2, 8)
    content_floor = 2.0 ** -6

    def make_item(self, i: int) -> dict:
        ds = gm.gen_random_delta_s_set(self.s, 2.0 ** -self.level,
                                       self.rng(i).randrange(1 << 31))
        return {"ds": ds, "measure": gm.WeightedMeasure.uniform(ds)}

    def run_item(self, item: dict) -> tuple:
        ds = item["ds"]
        dim = gm.box_dimension(ds, *self.dim_levels)
        content = gm.hausdorff_content(ds, self.s)
        chk = gm.verify_delta_s_set(ds, self.s, self.constant)
        ext = gm.frostman_extract(ds, self.s, 2.0 ** -self.rho_level)
        ext_chk = gm.verify_delta_s_set(ext, self.s, self.constant)
        fit = gm.frostman_fit(item["measure"], *self.fit_levels)
        return dim, content, chk, ext, ext_chk, fit

    def oracle(self, item: dict) -> dict:
        ints = oracles.lattice_coords(item["ds"].points.tolist(), 2.0 ** -self.level)
        counts = {lv: oracles.occupied_cells(ints, self.level - lv)
                  for lv in range(self.level + 1)}
        return {"ints": ints, "counts": counts,
                "content": min(c * 2.0 ** (-lv * self.s) for lv, c in counts.items())}

    def check_item(self, i: int, out: tuple) -> list:
        dim, content, chk, ext, ext_chk, fit = out
        exp = self.expected(i)
        ds = self.items[i]["ds"]
        bad = []
        want = tuple((lv, exp["counts"][lv]) for lv in range(self.dim_levels[0],
                                                              self.dim_levels[1] + 1))
        if tuple((int(lv), int(c)) for lv, c in dim.counts) != want:
            bad.append(f"covering numbers {dim.counts}, recount {want}")
        if not _rel_close(content, exp["content"], 1e-12):
            bad.append(f"content {content!r}, recount {exp['content']!r}")
        _check_witness(bad, "set", ds, exp["counts"][self.level], chk, self.s)
        # the extract: a subset, one point per rho-cell, above the content floor
        source = set(map(tuple, ds.points.tolist()))
        ext_pts = ext.points.tolist()
        if not all(tuple(p) in source for p in ext_pts):
            bad.append("extract is not a subset of the set")
        ext_ints = oracles.lattice_coords(ext_pts, 2.0 ** -self.level)
        cells = oracles.occupied_cells(ext_ints, self.level - self.rho_level)
        if cells != len(ext_pts):
            bad.append(f"{len(ext_pts)} extract points in {cells} rho-cells")
        floor = self.content_floor * exp["content"] * 2.0 ** (self.rho_level * self.s)
        if len(ext_pts) < floor:
            bad.append(f"extract of {len(ext_pts)} points below the content floor {floor:.1f}")
        _check_witness(bad, "extract", ext, cells, ext_chk, self.s)
        _check_fit_witness(bad, "uniform", self.items[i]["measure"], fit, 0.0)
        return bad


class RadialWorkload(_InProcess):
    """Radial-projection experiments: tube containment, pencil union
    counting, direction-set profiles and the two-route exponent pair, with
    ball masses on the tree path."""

    name = "radial"
    pool = 3
    r = 2.0 ** -8        # tube family scale
    probes = 48
    checked_probes = 2   # probes recounted over the whole family
    contain_tol = 1e-12
    fur = (0.5, 1.0, 2.0 ** -10)   # sigma, s, delta of furstenberg_count
    x_set = (0.4, 2.0 ** -12)      # s, delta of the centre pool
    y_set = (1.5, 2.0 ** -10)      # s, delta of the projected set
    x_sample = 16
    scale_levels = (2, 8)
    z_set = (1.5, 2.0 ** -7)       # s, delta of the two-route set
    z_levels = (2, 7)
    tube_tol = 1e-12
    ball_tol = 1e-12

    def setup(self) -> None:
        self.family = gm.uniform_tube_family(self.r)
        super().setup()

    def make_item(self, i: int) -> dict:
        rng = self.rng(i)
        lim = 1.0 - 2.0 * self.r
        probes = [(rng.uniform(0.0, math.pi), rng.uniform(-lim, lim))
                  for _ in range(self.probes)]
        x = gm.gen_random_delta_s_set(*self.x_set, rng.randrange(1 << 31))
        y = gm.gen_random_delta_s_set(*self.y_set, rng.randrange(1 << 31))
        z = gm.gen_random_delta_s_set(*self.z_set, rng.randrange(1 << 31))
        # a centre below the unit square, so no support point is near it
        centre = gm.Point(rng.uniform(0.0, 1.0), rng.uniform(-0.6, -0.3))
        return {
            "probes": probes,
            "fur_seed": rng.randrange(1 << 31),
            "spec": gm.ExperimentSpec(x, y, x_sample=self.x_sample,
                                      scale_levels=self.scale_levels,
                                      target=gm.Target.FALCONER12),
            "z": gm.WeightedMeasure.uniform(z),
            "centre": centre,
        }

    def run_item(self, item: dict) -> tuple:
        mults = [gm.containment_multiplicity(self.family, t, d) for t, d in item["probes"]]
        fur = gm.furstenberg_count(*self.fur, item["fur_seed"])
        profile = gm.radial_dimension_profile(item["spec"])
        z, centre = item["z"], item["centre"]
        tube_exp = gm.tube_mass_exponent(z, centre, *self.z_levels)
        circle = gm.radial_pushforward(z, centre).as_circle_measure()
        fit = gm.frostman_fit(circle, *self.z_levels)
        return mults, fur, profile, tube_exp, circle, fit

    def _family_members(self):
        """(angle, offset) of every family member, converted in chunks."""
        fam, chunk = self.family, 1 << 16
        for s in range(0, len(fam), chunk):
            yield from zip(fam.angles[s:s + chunk].tolist(),
                           fam.offsets[s:s + chunk].tolist())

    def oracle(self, item: dict) -> dict:
        half = self.family.width / 2.0
        contained = [
            oracles.containment_count(self._family_members(), half, t, d, self.r / 2.0,
                                      self.contain_tol)
            for t, d in item["probes"][:self.checked_probes]
        ]
        z = item["z"]
        pts, w = z.support.points.tolist(), z.weights.tolist()
        c = (item["centre"].x, item["centre"].y)
        levels, masses = [], []
        for lv in range(self.z_levels[0], self.z_levels[1] + 1):
            m = oracles.heaviest_tube_mass(pts, w, c, 2.0 ** -lv, self.tube_tol)
            if m > 0:
                levels.append(lv)
                masses.append(m)
        return {"contained": contained,
                "tube_exp": -oracles.log2_slope(levels, masses)}

    def check_item(self, i: int, out: tuple) -> list:
        mults, fur, profile, tube_exp, circle, fit = out
        exp = self.expected(i)
        bad = []
        if min(mults) < 1:
            bad.append(f"a probe has multiplicity {min(mults)}")
        if mults[:self.checked_probes] != exp["contained"]:
            bad.append(f"multiplicities {mults[:self.checked_probes]}, "
                       f"recount {exp['contained']}")
        sigma, _, delta = self.fur
        lo = 2.0 ** -6 * delta ** (-2.0 * sigma)
        hi = fur["n_points"] * fur["mean_pencil_size"]
        if not (lo <= fur["count"] <= hi):
            bad.append(f"union count {fur['count']} outside [{lo}, {hi}]")
        best = max(s for _, s in profile.per_x_table)
        if profile.best_dimension.slope != best:
            bad.append(f"best slope {profile.best_dimension.slope!r}, table max {best!r}")
        if not _rel_close(tube_exp, exp["tube_exp"]):
            bad.append(f"tube mass exponent {tube_exp!r}, recount {exp['tube_exp']!r}")
        _check_fit_witness(bad, "circle", circle, fit, self.ball_tol)
        return bad


def _read_rows(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:] if row]


class CliWorkload:
    """README § Command line, one command per op, each in a fresh
    `python -m gmtlab.cli` process. The set-up runs the generate commands
    whose CSVs later commands read, then the tubes command as the warm-up
    op, since `incidence --lines` reads its tubes/tubes.csv."""

    name = "cli"
    fc_pitch = 2.0 ** -8

    def __init__(self, seed: int, src: str, workdir: str):
        rng = random.Random(f"cli:{seed}")
        rnd, pl, tubes, fur = (rng.randrange(1 << 20) for _ in range(4))
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.records: list = []  # (command, wall s, compute s) in the timed loop
        self._expected: dict = {}
        c = _CliChecks(self)
        self.commands = [
            (["generate", "--kind", "fourcorner", "--delta", "0.00390625", "--out", "fc"],
             c.fourcorner),
            (["generate", "--kind", "random", "--s", "0.8", "--delta", "0.0078125",
              "--seed", str(rnd), "--out", "rnd"], c.random),
            (["generate", "--kind", "planted", "--n", "512", "--k", "16",
              "--seed", str(pl), "--out", "pl"], c.planted),
            (["dimension", "--input", "fc/points.csv", "--level-min", "2",
              "--level-max", "8", "--out", "dim"], c.dimension),
            (["incidence", "--input", "fc/points.csv", "--out", "inc"], c.census),
            (["incidence", "--input", "fc/points.csv", "--lines", "tubes/tubes.csv",
              "--out", "inc2"], c.supplied),
            (["beck", "--input", "pl/points.csv", "--out", "beck"], c.beck),
            (["tubes", "--r", "0.0625", "--probes", "1000", "--seed", str(tubes),
              "--out", "tubes"], c.tubes),
            (["furstenberg", "--sigma", "0.5", "--s", "1.0", "--delta", "0.0009765625",
              "--seed", str(fur), "--out", "fur"], c.furstenberg),
            (["project", "--target", "kaufman11", "--x-input", "fc/points.csv",
              "--x-sample", "32", "--level-min", "0", "--level-max", "8",
              "--out", "proj"], c.kaufman),
            (["project", "--target", "beckcor13", "--x-input", "rnd/points.csv",
              "--out", "lines"], c.beckcor),
            (["ortho", "--input", "fc/points.csv", "--sigma", "0.8", "--out", "ortho"],
             c.ortho),
            (["audit-constants", "--sigma", "0.5", "--s", "1.0", "--eps", "0.01",
              "--out", "sched"], c.audit),
        ]

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def invoke(self, args: list) -> dict:
        """Run one command; return its exit code, stderr tail and report."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gmtlab.cli", *args],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=150)
        wall = time.perf_counter() - t0
        report = None
        if proc.returncode == 0:
            out_dir = args[args.index("--out") + 1]
            with open(self.path(out_dir, f"{args[0]}-report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            self.records.append((args[0], wall, report["timing"]["elapsed_seconds"]))
        return {"args": args, "code": proc.returncode, "stderr": proc.stderr[-400:],
                "report": report}

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self._expected = {}
        for args, _ in self.commands:
            if args[0] == "generate":
                self._must(self.invoke(args))

    def warm_up(self) -> None:
        self._must(self.invoke(next(a for a, _ in self.commands if a[0] == "tubes")))
        self.records = []

    @staticmethod
    def _must(out: dict) -> None:
        if out["code"] != 0:
            raise RuntimeError(f"set-up command {out['args']} exited {out['code']}: "
                               f"{out['stderr']}")

    def round(self) -> list:
        return [
            Op(" ".join(args[:1] + args[1:3]),
               lambda args=args: self.invoke(args),
               lambda out, check=check: self._run_check(out, check))
            for args, check in self.commands
        ]

    @staticmethod
    def _run_check(out: dict, check) -> list:
        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['stderr']}"]
        return check(out["report"]["results"])

    def expected(self, key: str, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def layer_metrics(self, res) -> dict:
        """Per-command wall and compute seconds per round, the mean start-up
        cost per command, and cumulative import times of gmtlab.cli."""
        rounds = max(1, res.rounds)
        out = {}
        for cmd in {a[0] for a, _ in self.commands}:
            out[f"cli.{cmd}.wall_s"] = sum(w for c, w, _ in self.records if c == cmd) / rounds
            out[f"cli.{cmd}.compute_s"] = sum(e for c, _, e in self.records if c == cmd) / rounds
        if self.records:
            out["cli.startup_s"] = statistics.fmean(w - e for _, w, e in self.records)
        samples = [self._import_times() for _ in range(3)]
        for mod in samples[0]:
            out[f"cli.importtime.{mod}_s"] = statistics.median(s[mod] for s in samples)
        return out

    def _import_times(self) -> dict:
        """Cumulative seconds per module from one `-X importtime` run."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gmtlab.cli"],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=60)
        found = {mod: 0.0 for mod in IMPORTED}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]] = int(parts[1]) / 1e6
        return found


class _CliChecks:
    """Checks of each README command's report against recounts made here."""

    def __init__(self, wl: CliWorkload):
        self.wl = wl

    def _points(self, name: str) -> list:
        return _read_rows(self.wl.path(name, "points.csv"))

    def _fc_ints(self) -> list:
        return self.wl.expected("fc", lambda: oracles.lattice_coords(
            self._points("fc"), self.wl.fc_pitch))

    def fourcorner(self, res: dict) -> list:
        bad = []
        if res["n_points"] != 256:
            bad.append(f"four-corner set has {res['n_points']} points, expected 256")
        if set(self._fc_ints()) != oracles.four_corner_lattice(4):
            bad.append("four-corner points differ from the depth-4 orbit")
        return bad

    def random(self, res: dict) -> list:
        pts = self._points("rnd")
        ints = oracles.lattice_coords(pts, res["delta"])
        if res["n_points"] != len(ints) or len(set(ints)) != len(ints):
            return [f"{res['n_points']} points reported, {len(set(ints))} distinct in the CSV"]
        return []

    def planted(self, res: dict) -> list:
        on_line = sum(1 for _, y in self._points("pl") if y == 0.5)
        if res["n_points"] != 512 or on_line != 496:
            return [f"planted set: {res['n_points']} points, {on_line} on y = 1/2"]
        return []

    def dimension(self, res: dict) -> list:
        ints = self._fc_ints()
        want = [[lv, oracles.occupied_cells(ints, 8 - lv)] for lv in range(2, 9)]
        bad = []
        if res["counts"] != want:
            bad.append(f"covering numbers {res['counts']}, recount {want}")
        if abs(res["slope"] - 1.0) > 0.05:
            bad.append(f"four-corner slope {res['slope']!r} not within 0.05 of 1")
        return bad

    def census(self, res: dict) -> list:
        lines = self.wl.expected("census", lambda: oracles.line_census(self._fc_ints()))
        want = (len(lines), sum(lines.values()))
        got = (res["n_lines"], res["incidence_count"])
        return [] if got == want else [f"(lines, incidences) {got}, recount {want}"]

    def supplied(self, res: dict) -> list:
        def count():
            rows = _read_rows(self.wl.path("tubes", "tubes.csv"))
            pts = [(x * self.wl.fc_pitch, y * self.wl.fc_pitch) for x, y in self._fc_ints()]
            near = 0
            for a, off, _ in rows:
                nx, ny = -math.sin(a), math.cos(a)
                near += sum(1 for x, y in pts if abs(x * nx + y * ny - off) <= 1e-9)
            return len({(a, off) for a, off, _ in rows}), near
        want = self.wl.expected("supplied", count)
        got = (res["n_lines"], res["incidence_count"])
        return [] if got == want else [f"(lines kept, incidences) {got}, recount {want}"]

    def beck(self, res: dict) -> list:
        return [] if res["max_collinear"] == 496 else [
            f"planted max collinear {res['max_collinear']}, expected 496"]

    def tubes(self, res: dict) -> list:
        bad = []
        if res["multiplicity"]["min"] < 1:
            bad.append(f"a probe has multiplicity {res['multiplicity']['min']}")
        rows = len(_read_rows(self.wl.path("tubes", "tubes.csv")))
        if rows != res["family_size"]:
            bad.append(f"family size {res['family_size']}, {rows} CSV rows")
        return bad

    def furstenberg(self, res: dict) -> list:
        lo = 2.0 ** -6 * res["wolff_floor"]
        hi = res["n_points"] * res["mean_pencil_size"]
        if res["wolff_floor"] != 2.0 ** 10 or not (lo <= res["count"] <= hi):
            return [f"union count {res['count']} outside [{lo}, {hi}]"]
        return []

    def kaufman(self, res: dict) -> list:
        best = max(row["slope"] for row in res["per_x_table"])
        return [] if res["best_dimension"] == best else [
            f"best slope {res['best_dimension']!r}, table max {best!r}"]

    def beckcor(self, res: dict) -> list:
        levels = [lv for lv, _ in res["counts"]]
        counts = [c for _, c in res["counts"]]
        bad = []
        if counts != sorted(counts):
            bad.append(f"covering numbers {counts} decrease with the level")
        if not _rel_close(res["measured"], oracles.log2_slope(levels, counts)):
            bad.append(f"slope {res['measured']!r} does not fit counts {counts}")
        return bad

    def ortho(self, res: dict) -> list:
        rows = len(_read_rows(self.wl.path("ortho", "exceptional.csv")))
        if rows != res["n_exceptional"] or rows > res["direction_count"]:
            return [f"{res['n_exceptional']} exceptional directions, {rows} CSV rows"]
        return []

    def audit(self, res: dict) -> list:
        want = oracles.bootstrap_closed_form(0.5, 1.0, 0.01)
        return [f"{k} {res[k]!r}, closed form {v!r}" for k, v in want.items()
                if not _rel_close(res[k], v, 1e-12)]


def make(name: str, seed: int, src: str, workdir: str):
    if name == "cli":
        return CliWorkload(seed, src, workdir)
    classes = {cls.name: cls for cls in (LinesWorkload, SpreadWorkload, RadialWorkload)}
    return classes[name](seed)


NAMES = ("lines", "spread", "radial", "cli")
