"""Import hygiene: the package loads numpy only and imports no scipy
anywhere, so ball masses, spread-set and separation checks and radial
profiles all run on numpy alone (scipy serves only the tests' oracles).
The CLI checks its reports in plain Python, so no validator package is
loaded either."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "gmtlab"


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import gmtlab.cli; "
         "top = {m.split('.')[0] for m in set(sys.modules) - before}; "
         "print(sorted(top - set(sys.stdlib_module_names)))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # scipy, a JSON-schema validator and its helpers (referencing, rpds,
    # attrs) would all show up here
    assert proc.stdout.strip() == "['gmtlab', 'numpy']"


def test_ball_masses_and_radial_profile_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG.parent), env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import gmtlab as gm",
        "from gmtlab import dyadic",
        "real, answered = dyadic.lattice_disc_sums, []",
        "def spy(*args):",
        "    sums = real(*args)",
        "    answered.extend(s is not None for s in sums)",
        "    return sums",
        "dyadic.lattice_disc_sums = spy",
        "real_max, tabled = dyadic._disc_max, []",
        "def table_spy(*args):",
        "    tabled.append(args[2])",
        "    return real_max(*args)",
        "dyadic._disc_max = table_spy",
        "ds = gm.gen_random_delta_s_set(1.0, 2.0 ** -9, 0)",
        "c = np.random.default_rng(0).integers(1, 1000, len(ds))",
        "m = gm.WeightedMeasure(ds, c)",
        "gm.frostman_fit(m, 1, 8)",
        # priced: the sweep
        "assert answered and not any(answered) and not tabled, (answered, tabled)",
        "answered.clear()",
        "grid = gm.gen_random_delta_s_set(2.0, 2.0 ** -6, 0)",
        "gm.frostman_fit(gm.WeightedMeasure.uniform(grid), 1, 5)",
        # the full grid: the FFT
        "assert answered and all(answered) and not tabled, (answered, tabled)",
        "answered.clear()",
        "spread = gm.gen_random_delta_s_set(1.5, 2.0 ** -9, 0)",
        "gm.frostman_fit(gm.WeightedMeasure.uniform(spread), 2, 8)",
        # a sparse lattice: the table route at every radius
        "assert len(tabled) == 7 and not answered, (answered, tabled)",
        "gm.mass_shell_decompose(m, 0.125, 2.0, 64.0)",
        "x = gm.gen_random_delta_s_set(0.4, 2.0 ** -10, 1)",
        "y = gm.gen_random_delta_s_set(1.5, 2.0 ** -8, 2)",
        "gm.radial_dimension_profile(gm.ExperimentSpec(x, y, x_sample=4))",
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _scipy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] == "scipy" for n in names):
            yield node


def test_no_scipy_import_in_the_package():
    """Not at module level and not inside a function body either."""
    modules = sorted(PKG.glob("*.py"))
    assert modules
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{node.lineno}" for node in _scipy_imports(tree)]
    assert offenders == []


def test_spread_and_separation_checks_load_no_scipy():
    """verify_delta_s_set on a lattice set, an off-lattice set and a set
    whose points share delta-cells; the separation check of an off-grid
    DiscreteSet; and thin_tube_audit's support gap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG.parent), env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import gmtlab as gm",
        "ds = gm.gen_random_delta_s_set(1.5, 2.0 ** -7, 0)",
        "gm.verify_delta_s_set(ds, 1.5, 16.0)",
        "gm.verify_delta_s_set(gm.frostman_extract(ds, 1.5, 2.0 ** -5), 1.5, 16.0)",
        "rng = np.random.default_rng(0)",
        "ticks = np.arange(0.0, 0.5, 0.55 * 2.0 ** -4)",
        "grid = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)",
        "shared = gm.DiscreteSet(grid + rng.uniform(0.0, 1e-3, grid.shape), 2.0 ** -4)",
        "assert gm.count_cells(shared.points, shared.delta) < len(shared)",
        "gm.verify_delta_s_set(shared, 1.0, 16.0)",
        "seg = gm.segment_set(257)",
        "gm.DiscreteSet(seg.points, seg.delta)",
        "gm.DiscreteSet(seg.points[:, ::-1], seg.delta)",
        "mu = gm.WeightedMeasure.uniform(gm.DiscreteSet([(0.1, 0.1), (0.2, 0.1)], 2.0 ** -4))",
        "nu = gm.WeightedMeasure.uniform(gm.DiscreteSet([(0.9, 0.9), (0.9, 0.7)], 2.0 ** -4))",
        "gm.thin_tube_audit(mu, nu, 0.5)",
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_PUBLIC = [
    "AllCollinear", "AllMassAtCenter", "Ball", "BeckReport", "CollinearX",
    "ConfigInvalid", "DegeneratePair", "DeltaSCheck", "DimensionEstimate",
    "DirectionMeasure", "DiscreteSet", "EmptyInput", "ExperimentResult",
    "ExperimentSpec", "FrostmanFit", "FuRenInstance", "GmtlabError",
    "IfsSystem", "IncidenceReport", "InvariantViolation", "Line", "LineSet",
    "LowDimY", "Point", "PreconditionError", "ScaleRangeTooNarrow",
    "SeparationViolated", "Target", "ThinTubeAudit", "TooFewPoints",
    "TooManyPoints", "Tube", "TubeFamily", "WeightedMeasure", "ball_mass",
    "beck_analyze", "bootstrap_schedule", "box_dimension",
    "cantor_middle_thirds", "cell_indices", "circle_box_dimension",
    "circle_covering_number", "circle_set", "containment_multiplicity",
    "count_cells", "covering_number", "energy", "erdos_beck_profile",
    "fit_log2_slope", "four_corner_product", "frostman_extract",
    "frostman_fit", "fu_ren_audit", "furstenberg_count", "gen_grid",
    "gen_ifs", "gen_planted_collinear", "gen_random_delta_s_set",
    "hausdorff_content", "heaviest_tube", "incidence_count", "is_dyadic",
    "level_of", "line_distance", "line_set_dimension",
    "mass_shell_decompose", "orthogonal_exceptional_profile",
    "per_scale_counts", "radial_dimension_profile", "radial_pushforward",
    "rich_lines", "sample_probe_tubes", "segment_set", "spanned_lines",
    "thin_tube_audit", "tube_mass", "tube_mass_exponent",
    "uniform_tube_family", "verify_delta_s_set", "verify_tube_set",
    "weak_dirac_stat",
]


def test_public_names_are_pinned():
    """The export list is spelled out here, so any change to the public
    surface shows in a diff; every listed name resolves."""
    import gmtlab

    assert sorted(gmtlab.__all__) == _PUBLIC
    assert len(set(gmtlab.__all__)) == len(gmtlab.__all__)
    missing = [name for name in _PUBLIC if not hasattr(gmtlab, name)]
    assert missing == []


# public attributes, methods and fields of each exported class, counted
# over the classes of its MRO that gmtlab defines; a class left out has none
_CLASS_ATTRS = {
    "Ball": ["center", "radius"],
    "BeckReport": [
        "as_json", "c_threshold", "connected_pair_profile",
        "dichotomy_verdict", "erdos_beck_ratio", "max_collinear", "n_points",
        "spanned_line_count"],
    "DeltaSCheck": [
        "constant", "passed", "s", "witness", "witness_level", "worst_ratio"],
    "DimensionEstimate": [
        "counts", "intercept", "level_range", "r_squared", "slope"],
    "DirectionMeasure": [
        "angles", "as_circle_measure", "center", "counts", "leaked",
        "leaked_mass", "masses", "to_circle_set", "total", "total_mass"],
    "DiscreteSet": ["check", "delta", "label", "meta", "points"],
    "ExperimentResult": [
        "as_json", "best_dimension", "best_x", "margin", "per_x_table",
        "predicted_lower_bound", "warnings"],
    "ExperimentSpec": ["scale_levels", "target", "x_sample", "x_set", "y_set"],
    "FrostmanFit": ["constant", "exponent", "worst_witness"],
    "FuRenInstance": [
        "eta", "p_x", "p_y", "r", "s", "sigma", "t", "tube_map", "zeta"],
    "IfsSystem": ["depth", "label", "maps"],
    "IncidenceReport": [
        "as_json", "cs_bound", "eps", "eps_bound", "incidence_count",
        "n_lines", "n_points", "rich_profile", "warnings"],
    "Line": [
        "anchor", "angle", "direction", "distance_to_point",
        "from_angle_offset", "normal", "offset", "through"],
    "LineSet": [
        "angle_offset_arrays", "angles", "denominator", "exact", "from_lines",
        "offsets", "point_counts", "triples"],
    "Point": ["distance_to", "x", "y"],
    "Target": ["BECKCOR13", "ERDOSBECK", "FALCONER12", "KAUFMAN11", "parse"],
    "ThinTubeAudit": [
        "as_json", "c_mass", "g_indicator", "k_constant", "passed", "sigma",
        "widths_tested", "witness_x", "worst_ratio", "worst_tube"],
    "Tube": ["axis", "width"],
    "TubeFamily": [
        "angles", "direction_net_step", "label", "offsets", "scale", "width"],
    "WeightedMeasure": ["counts", "support", "total", "uniform", "weights"],
}


def _public_attrs(cls):
    names = set()
    for k in cls.__mro__:
        if k.__module__.startswith("gmtlab"):
            names.update(vars(k))
            names.update(vars(k).get("__annotations__", {}))
    return sorted(n for n in names if not n.startswith("_"))


def test_public_class_attributes_are_pinned():
    """The accessors of each exported class are spelled out here too, so an
    added or removed method, property or field shows in a diff."""
    import gmtlab

    classes = {name: getattr(gmtlab, name) for name in gmtlab.__all__
               if inspect.isclass(getattr(gmtlab, name))}
    assert set(_CLASS_ATTRS) <= set(classes)
    got = {name: _public_attrs(cls) for name, cls in classes.items()}
    assert got == {name: _CLASS_ATTRS.get(name, []) for name in classes}
