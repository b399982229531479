"""The README output manifest: the commands it finds, their run order, and
what its digests see."""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "readme_outputs", _ROOT / "tools" / "readme_outputs.py")
readme_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(readme_outputs)


def _commands():
    return readme_outputs.readme_commands((_ROOT / "README.md").read_text())


def test_finds_the_13_readme_commands_with_continuations_joined():
    commands = _commands()
    assert len(commands) == 13
    assert all(args.count("--out") == 1 for args in commands)
    proj = [args for args in commands if args[:3] == ["project", "--target", "kaufman11"]]
    assert proj == [["project", "--target", "kaufman11", "--x-input", "fc/points.csv",
                     "--x-sample", "32", "--level-min", "0", "--level-max", "8",
                     "--out", "proj"]]


def test_producers_run_first():
    order = readme_outputs.run_order(_commands())
    outs = [args[args.index("--out") + 1] for args in order]
    for k, args in enumerate(order):
        for word in args:
            if "/" in word:
                assert outs.index(word.split("/")[0]) < k
    # the incidence count against tubes/tubes.csv alone moves, to just
    # after tubes
    assert outs.index("inc2") == outs.index("tubes") + 1
    assert ([a for a in order if a[-1] != "inc2"]
            == [a for a in _commands() if a[-1] != "inc2"])


def _write_outputs(root, timing, csv_text):
    (root / "gen").mkdir(parents=True)
    report = {"command": "generate", "timing": {"elapsed_seconds": timing},
              "results": {"n_points": 2}}
    (root / "gen" / "generate-report.json").write_text(json.dumps(report))
    (root / "gen" / "points.csv").write_text(csv_text)
    exits = [(["generate", "--kind", "grid", "--out", "gen"], 0)]
    return readme_outputs.manifest(str(root), exits)


def test_manifest_drops_timing_and_sees_every_csv_byte(tmp_path):
    base = _write_outputs(tmp_path / "a", 0.25, "x,y\n0.0,0.5\n")
    assert _write_outputs(tmp_path / "b", 7.5, "x,y\n0.0,0.5\n") == base
    assert _write_outputs(tmp_path / "c", 0.25, "x,y\n0.0,0.6\n") != base
    assert base.splitlines()[0] == "exit 0  generate --kind grid --out gen"
    assert [ln.split("  ")[1] for ln in base.splitlines()[1:]] == [
        "gen/generate-report.json", "gen/points.csv"]
