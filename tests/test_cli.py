"""Command-line surface: report envelopes, exit codes, and reruns.

Most commands run in-process through main() for speed; one test drives
the installed console script end to end through a real subprocess.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from gmtlab.cli import SCHEMA_VERSION, main
from gmtlab.io import read_json


def _run(args):
    return main(args)


def _report(out_dir, command):
    return read_json(os.path.join(out_dir, f"{command}-report.json"))


@pytest.fixture()
def gen_dir(tmp_path):
    """A generated point CSV most commands can consume."""
    out = str(tmp_path / "gen")
    rc = _run(["generate", "--kind", "grid", "--m", "9", "--out", out])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_generate_envelope_fields(self, gen_dir):
        rep = _report(gen_dir, "generate")
        assert rep["schema_version"] == SCHEMA_VERSION
        assert rep["command"] == "generate"
        assert rep["config"]["rng"] == "numpy-pcg64"
        assert rep["config"]["seed"] == 0
        assert "elapsed_seconds" in rep["timing"]
        assert rep["results"]["n_points"] == 81
        assert os.path.exists(rep["results"]["points_csv"])

    def test_dimension_report(self, gen_dir, tmp_path):
        out = str(tmp_path / "dim")
        rc = _run(["dimension", "--input", os.path.join(gen_dir, "points.csv"),
                   "--level-min", "0", "--level-max", "3", "--out", out])
        assert rc == 0
        rep = _report(out, "dimension")
        # 9x9 grid with spacing 1/8: each level-l row of cells touches the
        # 2**l + 1 columns holding multiples of 1/8, boundary included
        assert rep["results"]["counts"] == [
            [l, (2 ** l + 1) ** 2] for l in range(4)
        ]
        assert 1.0 < rep["results"]["slope"] < 2.0
        assert os.path.exists(rep["results"]["levels_csv"])

    def test_incidence_report(self, tmp_path):
        gen = str(tmp_path / "g3")
        _run(["generate", "--kind", "grid", "--m", "3", "--out", gen])
        out = str(tmp_path / "inc")
        rc = _run(["incidence", "--input", os.path.join(gen, "points.csv"),
                   "--out", out])
        assert rc == 0
        rep = _report(out, "incidence")
        assert rep["results"]["incidence_count"] == 48
        assert rep["results"]["n_lines"] == 20

    def test_beck_report(self, gen_dir, tmp_path):
        out = str(tmp_path / "beck")
        rc = _run(["beck", "--input", os.path.join(gen_dir, "points.csv"),
                   "--out", out])
        assert rc == 0
        rep = _report(out, "beck")
        assert rep["results"]["max_collinear"] == 9
        assert rep["results"]["dichotomy_verdict"] in ("RichLine", "ManyLines", "Both")

    def test_tubes_report(self, tmp_path):
        out = str(tmp_path / "tubes")
        rc = _run(["tubes", "--r", str(2.0 ** -3), "--probes", "64",
                   "--seed", "5", "--out", out])
        assert rc == 0
        rep = _report(out, "tubes")
        assert rep["results"]["family_size"] == 924
        assert 1 <= rep["results"]["multiplicity"]["min"]
        assert rep["results"]["multiplicity"]["max"] <= 50

    def test_furstenberg_report(self, tmp_path):
        out = str(tmp_path / "fur")
        rc = _run(["furstenberg", "--sigma", "0.5", "--s", "1.0",
                   "--delta", str(2.0 ** -6), "--seed", "3", "--out", out])
        assert rc == 0
        rep = _report(out, "furstenberg")
        assert rep["results"]["ratio"] == pytest.approx(
            rep["results"]["count"] / rep["results"]["wolff_floor"]
        )

    def test_project_beckcor_report(self, gen_dir, tmp_path):
        out = str(tmp_path / "proj")
        rc = _run(["project", "--target", "beckcor13",
                   "--x-input", os.path.join(gen_dir, "points.csv"),
                   "--out", out])
        assert rc == 0
        rep = _report(out, "project")
        assert rep["results"]["target"] == "beckcor13"
        assert rep["results"]["measured"] > 0.0

    def test_project_radial_writes_per_x_table(self, tmp_path):
        gen = str(tmp_path / "fc")
        _run(["generate", "--kind", "fourcorner", "--delta", str(4.0 ** -4),
              "--out", gen])
        out = str(tmp_path / "proj")
        rc = _run(["project", "--target", "kaufman11",
                   "--x-input", os.path.join(gen, "points.csv"),
                   "--x-sample", "4", "--level-min", "0", "--level-max", "8",
                   "--out", out])
        assert rc == 0
        rep = _report(out, "project")
        assert os.path.exists(rep["results"]["per_x_csv"])
        assert len(rep["results"]["per_x_table"]) == 4

    def test_ortho_report(self, tmp_path):
        gen = str(tmp_path / "seg")
        _run(["generate", "--kind", "segment", "--n", "256", "--out", gen])
        out = str(tmp_path / "ortho")
        rc = _run(["ortho", "--input", os.path.join(gen, "points.csv"),
                   "--sigma", "0.5", "--out", out])
        assert rc == 0
        rep = _report(out, "ortho")
        assert rep["results"]["n_exceptional"] == 1
        assert os.path.exists(rep["results"]["exceptional_csv"])

    def test_audit_constants_report(self, tmp_path):
        out = str(tmp_path / "audit")
        rc = _run(["audit-constants", "--sigma", "0.5", "--s", "1.0",
                   "--eps", "0.01", "--out", out])
        assert rc == 0
        rep = _report(out, "audit-constants")
        assert rep["results"]["log2_r1"] == -2068.0
        # underflowed raw values serialize as null, never as Infinity
        assert "Infinity" not in open(
            os.path.join(out, "audit-constants-report.json")
        ).read()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path):
        rc = _run(["generate", "--kind", "random",
                   "--out", str(tmp_path / "x")])  # random needs --s
        assert rc == 2

    def test_precondition_violation_is_2(self, tmp_path):
        rc = _run(["furstenberg", "--sigma", "1.5", "--s", "1.0",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_invalid_input_data_is_3(self, tmp_path):
        path = str(tmp_path / "dup.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n0.5,0.5\n0.5,0.5\n0.25,0.75\n")
        rc = _run(["dimension", "--input", path, "--delta", str(2.0 ** -4),
                   "--level-min", "0", "--level-max", "4",
                   "--out", str(tmp_path / "x")])
        assert rc == 3

    _BAD_FILES = {
        "missing-lines": None,
        "missing-input": None,
        "malformed-lines": "angle,offset,width\n0.5,oops,0.1\n",
        "non-finite-lines": "angle,offset,width\nnan,0.25,0.1\n",
        "malformed-input": "x,y\n0.5,0.25\n0.75\n",
    }

    @pytest.mark.parametrize("case", list(_BAD_FILES))
    def test_unreadable_input_file_is_2(self, case, gen_dir, tmp_path, capsys):
        points = os.path.join(gen_dir, "points.csv")
        path = str(tmp_path / "input.csv")
        if self._BAD_FILES[case] is not None:
            with open(path, "w") as fh:
                fh.write(self._BAD_FILES[case])
        if case.endswith("-lines"):
            args = ["incidence", "--input", points, "--lines", path]
        else:
            args = ["dimension", "--input", path, "--delta", "0.0625"]
        assert _run(args + ["--out", str(tmp_path / "x")]) == 2
        assert repr(path) in capsys.readouterr().err

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            _run(["dimension"])
        assert exc.value.code == 2

    def test_unknown_target_is_2(self, gen_dir, tmp_path):
        rc = _run(["project", "--target", "mystery",
                   "--x-input", os.path.join(gen_dir, "points.csv"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestReruns:
    def test_same_seed_byte_identical_csv(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            rc = _run(["generate", "--kind", "random", "--s", "0.8",
                       "--delta", str(2.0 ** -7), "--seed", "5", "--out", out])
            assert rc == 0
        csv_a = open(os.path.join(a, "points.csv"), "rb").read()
        csv_b = open(os.path.join(b, "points.csv"), "rb").read()
        assert csv_a == csv_b

    def test_same_seed_reports_match_excluding_timing(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            rc = _run(["furstenberg", "--sigma", "0.4", "--s", "1.0",
                       "--delta", str(2.0 ** -6), "--seed", "9", "--out", out])
            assert rc == 0
        ra, rb = _report(a, "furstenberg"), _report(b, "furstenberg")
        for r in (ra, rb):
            r.pop("timing")
            r["config"].pop("out")
        assert ra == rb

    def test_different_seed_changes_results(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        _run(["generate", "--kind", "random", "--s", "1.2",
              "--delta", str(2.0 ** -7), "--seed", "1", "--out", a])
        _run(["generate", "--kind", "random", "--s", "1.2",
              "--delta", str(2.0 ** -7), "--seed", "2", "--out", b])
        assert (open(os.path.join(a, "points.csv")).read()
                != open(os.path.join(b, "points.csv")).read())


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("gmtlab") is None,
                    reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    out = str(tmp_path / "cli")
    proc = subprocess.run(
        ["gmtlab", "generate", "--kind", "circle", "--n", "64", "--out", out],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "report written" in proc.stdout
    rep = _report(out, "generate")
    assert rep["results"]["n_points"] == 64


def test_module_entry_point_matches(tmp_path):
    out = str(tmp_path / "m")
    proc = subprocess.run(
        [sys.executable, "-m", "gmtlab.cli", "audit-constants",
         "--sigma", "0.3", "--s", "0.8", "--eps", "0.02", "--out", out],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rep = _report(out, "audit-constants")
    assert rep["results"]["eta"] > 0.0

