"""CSV and JSON emission: roundtrips, sidecars, and strict-JSON safety."""

import json
import math
import warnings

import numpy as np
import pytest

from gmtlab.errors import ConfigInvalid, InvariantViolation
from gmtlab.generators import gen_random_delta_s_set
from gmtlab.io import (
    json_safe,
    read_json,
    read_lines_csv,
    read_points_csv,
    sidecar_path,
    write_angles_csv,
    write_json,
    write_levels_csv,
    write_points_csv,
    write_rows,
)


def test_sidecar_path():
    assert sidecar_path("out/points.csv") == "out/points.meta.json"
    assert sidecar_path("weird.dat") == "weird.dat.meta.json"


class TestJsonSafe:
    def test_non_finite_becomes_null(self):
        out = json_safe({"a": float("inf"), "b": float("nan"), "c": 1.5})
        assert out["a"] is None and out["b"] is None and out["c"] == 1.5

    def test_ndarray_becomes_list(self):
        out = json_safe({"v": np.arange(3), "m": np.eye(2)})
        assert out["v"] == [0, 1, 2]
        assert out["m"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_numpy_scalars(self):
        out = json_safe({"i": np.int64(7), "f": np.float64(0.5)})
        assert out["i"] == 7 and isinstance(out["i"], int)
        assert out["f"] == 0.5

    def test_nested_lists(self):
        out = json_safe([1, [np.float64("inf"), {"x": np.float32(2.0)}]])
        assert out == [1, [None, {"x": 2.0}]]


def test_write_json_is_strict_and_sorted(tmp_path):
    path = str(tmp_path / "r.json")
    write_json(path, {"b": 2, "a": float("nan")})
    text = open(path).read()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": None, "b": 2}
    assert read_json(path) == {"a": None, "b": 2}


class TestPointsCsv:
    def test_roundtrip_with_sidecar(self, tmp_path):
        ds = gen_random_delta_s_set(0.8, 2.0 ** -6, seed=4)
        path = str(tmp_path / "pts.csv")
        write_points_csv(path, ds)
        back = read_points_csv(path)
        assert back.delta == ds.delta
        assert np.array_equal(back.points, ds.points)
        assert back.label == ds.label

    def test_explicit_delta_without_sidecar(self, tmp_path):
        path = str(tmp_path / "bare.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n0.25,0.5\n0.75,0.5\n")
        back = read_points_csv(path, delta=0.125)
        assert len(back) == 2
        assert back.delta == 0.125

    def test_missing_delta_rejected(self, tmp_path):
        path = str(tmp_path / "bare.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n0.25,0.5\n")
        with pytest.raises(ConfigInvalid):
            read_points_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("u,v\n0.25,0.5\n")
        with pytest.raises(ConfigInvalid):
            read_points_csv(path, delta=0.25)

    def test_duplicate_rows_fail_validation(self, tmp_path):
        path = str(tmp_path / "dup.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n0.5,0.5\n0.5,0.5\n")
        with pytest.raises(InvariantViolation):
            read_points_csv(path, delta=0.125)

    def test_write_is_byte_stable(self, tmp_path):
        ds = gen_random_delta_s_set(1.0, 2.0 ** -6, seed=9)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_points_csv(p1, ds)
        write_points_csv(p2, ds)
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_write_rows_and_levels(tmp_path):
    lv_path = str(tmp_path / "levels.csv")
    write_levels_csv(lv_path, [(2, 4), (3, 8)])
    assert open(lv_path).read() == "level,count\n2,4\n3,8\n"

    rows_path = str(tmp_path / "rows.csv")
    write_rows(rows_path, ["k"], ([str(i)] for i in range(3)))
    assert open(rows_path).read().splitlines()[0] == "k"


def test_write_angles_csv_with_dims(tmp_path):
    path = str(tmp_path / "ang.csv")
    write_angles_csv(path, [0.5, math.pi], [1.0, 0.0])
    lines = open(path).read().splitlines()
    assert lines[0] == "angle,projection_dim"
    assert len(lines) == 3
    assert float(lines[2].split(",")[0]) == pytest.approx(math.pi)


@pytest.mark.parametrize("body", ["", "\n", "\n# no lines\n"])
def test_read_lines_csv_without_rows_is_empty(tmp_path, body):
    """A line CSV of a header and no rows gives an empty (0, 2) array,
    with no loadtxt warning; rows after the header still parse."""
    path = tmp_path / "lines.csv"
    path.write_text("angle,offset,width\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = read_lines_csv(str(path))
    assert rows.shape == (0, 2) and rows.dtype == float
    path.write_text("angle,offset,width\n" + body + "0.5,0.25,0.1\n")
    assert read_lines_csv(str(path)).tolist() == [[0.5, 0.25]]
