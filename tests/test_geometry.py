"""Line chart conventions and the primitive shapes.

These tests pin the canonical parametrization: angle in [0, pi), anchor
perpendicular to the direction, offset measured along the +90-degree
normal.  Everything downstream keys lines by this chart, so the sign
conventions here are load-bearing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.errors import DegeneratePair, InvariantViolation
from gmtlab.geometry import (
    LINE_EQ_TOL,
    Ball,
    Line,
    Point,
    Tube,
    count_near_lines,
    line_distance,
    line_residuals,
)

finite_coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
unit_coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# chart conventions
# ---------------------------------------------------------------------------


class TestLineChart:
    def test_vertical_offset_sign(self):
        """Angle pi/2 with offset 0.5 is the vertical line x = -0.5.

        The normal at angle pi/2 is (-1, 0), so positive offsets move the
        line toward negative x.  This sign is the one every consumer of
        (angle, offset) pairs relies on.
        """
        ln = Line.from_angle_offset(math.pi / 2.0, 0.5)
        assert ln.angle == math.pi / 2
        assert ln.anchor.x == pytest.approx(-0.5, abs=1e-15)
        assert ln.anchor.y == pytest.approx(0.0, abs=1e-15)
        assert ln.distance_to_point(Point(-0.5, 3.7)) < 1e-12

    def test_horizontal_line(self):
        ln = Line.from_angle_offset(0.0, 0.25)
        assert ln.distance_to_point(Point(5.0, 0.25)) < 1e-12
        assert ln.offset() == pytest.approx(0.25)

    def test_angle_plus_pi_flips_offset(self):
        a = Line.from_angle_offset(0.3, 0.7)
        b = Line.from_angle_offset(0.3 + math.pi, -0.7)
        assert line_distance(a, b) < LINE_EQ_TOL
        assert a.angle == pytest.approx(b.angle, abs=1e-12)

    def test_through_is_order_symmetric(self):
        p, q = Point(0.1, 0.9), Point(0.8, -0.3)
        assert Line.through(p, q) == Line.through(q, p)

    def test_through_rejects_coincident_points(self):
        with pytest.raises(DegeneratePair):
            Line.through(Point(0.5, 0.5), Point(0.5, 0.5))

    def test_anchor_perpendicularity_is_enforced(self):
        with pytest.raises(InvariantViolation):
            Line(0.0, Point(1.0, 1.0))  # anchor not on the normal axis

    def test_distance_to_point(self):
        # the x-axis, probed at (3, 4)
        assert Line.from_angle_offset(0.0, 0.0).distance_to_point(
            Point(3.0, 4.0)
        ) == pytest.approx(4.0)

    @given(theta=st.floats(0.0, 3.1, exclude_max=True), d=unit_coord)
    @settings(max_examples=60, deadline=None)
    def test_offset_view_inverts_construction(self, theta, d):
        ln = Line.from_angle_offset(theta, d)
        assert ln.offset() == pytest.approx(d, abs=1e-9)
        ex, ey = ln.direction()
        assert ln.anchor.x * ex + ln.anchor.y * ey == pytest.approx(0.0, abs=1e-9)

    @given(ax=unit_coord, ay=unit_coord, bx=unit_coord, by=unit_coord)
    @settings(max_examples=60, deadline=None)
    def test_through_hits_both_points(self, ax, ay, bx, by):
        p, q = Point(ax, ay), Point(bx, by)
        if p.distance_to(q) < 1e-6:
            return
        ln = Line.through(p, q)
        assert ln.distance_to_point(p) < 1e-9
        assert ln.distance_to_point(q) < 1e-9


class TestLineMetric:
    def test_identity(self):
        ln = Line.from_angle_offset(1.2, 0.4)
        assert line_distance(ln, ln) == 0.0

    @given(
        t1=st.floats(0.0, 3.1), d1=unit_coord,
        t2=st.floats(0.0, 3.1), d2=unit_coord,
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_positivity(self, t1, d1, t2, d2):
        a = Line.from_angle_offset(t1, d1)
        b = Line.from_angle_offset(t2, d2)
        assert line_distance(a, b) == pytest.approx(line_distance(b, a))
        assert line_distance(a, b) >= 0.0

    def test_projective_wraparound(self):
        """Angles 0.001 and pi - 0.001 are close in the projective metric."""
        a = Line.from_angle_offset(0.001, 0.0)
        b = Line.from_angle_offset(math.pi - 0.001, 0.0)
        assert line_distance(a, b) < 0.01

    def test_equality_tolerance(self):
        a = Line.from_angle_offset(0.5, 0.25)
        b = Line.from_angle_offset(0.5 + LINE_EQ_TOL / 10.0, 0.25)
        assert line_distance(a, b) < LINE_EQ_TOL


# ---------------------------------------------------------------------------
# rigid motion sanity
# ---------------------------------------------------------------------------


def test_rigid_motion_preserves_line_point_distances():
    """Rotate a 3-4-5 right triangle; line-to-vertex distances must not move."""
    tri = [Point(0.0, 0.0), Point(3.0, 0.0), Point(0.0, 4.0)]
    base = Line.through(tri[1], tri[2])
    d0 = base.distance_to_point(tri[0])
    assert d0 == pytest.approx(12.0 / 5.0)  # altitude onto the hypotenuse

    phi = 0.83
    c, s = math.cos(phi), math.sin(phi)
    moved = [Point(c * p.x - s * p.y + 0.2, s * p.x + c * p.y - 0.6) for p in tri]
    mbase = Line.through(moved[1], moved[2])
    assert mbase.distance_to_point(moved[0]) == pytest.approx(d0, abs=1e-12)


# ---------------------------------------------------------------------------
# tubes and balls
# ---------------------------------------------------------------------------


class TestShapes:
    def test_tube_width_domain(self):
        with pytest.raises(InvariantViolation):
            Tube(Line.from_angle_offset(0.0, 0.0), 0.0)
        with pytest.raises(InvariantViolation):
            Tube(Line.from_angle_offset(0.0, 0.0), 4.5)

    def test_ball(self):
        with pytest.raises(InvariantViolation):
            Ball(Point(0.0, 0.0), 0.0)

    def test_point_rejects_non_finite(self):
        with pytest.raises(InvariantViolation):
            Point(float("nan"), 0.0)
        with pytest.raises(InvariantViolation):
            Point(0.0, float("inf"))


def test_line_metric_triangle_inequality_on_seeded_sample(rng):
    """Triangle inequality for the angle+anchor metric, sampled densely."""
    thetas = rng.uniform(0.0, math.pi, size=30)
    offs = rng.uniform(-1.0, 1.0, size=30)
    lines = [Line.from_angle_offset(t, d) for t, d in zip(thetas, offs)]
    for i in range(0, 30, 3):
        a, b, c = lines[i], lines[(i + 7) % 30], lines[(i + 13) % 30]
        assert line_distance(a, c) <= (
            line_distance(a, b) + line_distance(b, c) + 1e-12
        )


def test_numpy_inputs_coerce():
    """Constructors accept numpy scalars without losing precision."""
    ln = Line.from_angle_offset(np.float64(0.25), np.float64(-0.125))
    assert ln.offset() == pytest.approx(-0.125)


# ---------------------------------------------------------------------------
# point-to-line residual kernel against the inline forms it replaced
# ---------------------------------------------------------------------------


def _residuals_tube_oracle(pts, tube):
    """Former inline form in tube_mass and the thin-tube shrink step."""
    n = tube.axis.normal()
    off = tube.axis.offset()
    return np.abs(pts[:, 0] * n[0] + pts[:, 1] * n[1] - off)


def _residuals_family_oracle(pts, angles, offsets):
    """Former inline form in fu_ren_audit and _count_on_lines_float."""
    return np.abs(pts[:, 0][:, None] * (-np.sin(angles))[None, :]
                  + pts[:, 1][:, None] * np.cos(angles)[None, :]
                  - offsets[None, :])


def _residuals_point_oracle(x, y, angles, offsets):
    """Former inline form in FuRenInstance: one point, many lines."""
    return np.abs(-x * np.sin(angles) + y * np.cos(angles) - offsets)


def _residuals_line_oracle(pts, angle, offset):
    """Former inline form in erdos_beck_profile: one line, many points."""
    n_vec = (-math.sin(angle), math.cos(angle))
    return np.abs(pts[:, 0] * n_vec[0] + pts[:, 1] * n_vec[1] - offset)


def _residuals_through_oracle(pts, through, angles):
    """Former inline form in heaviest_tube: axes through one point."""
    dx = pts[:, 0] - through[0]
    dy = pts[:, 1] - through[1]
    return np.abs(dx[:, None] * (-np.sin(angles))[None, :]
                  + dy[:, None] * np.cos(angles)[None, :])


@given(
    pts=st.lists(st.tuples(unit_coord, unit_coord), min_size=1, max_size=12),
    lines=st.lists(st.tuples(st.floats(0.0, math.pi, exclude_max=True), unit_coord),
                   min_size=1, max_size=6),
    width=st.floats(1e-6, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_line_residuals_match_inline_oracles(pts, lines, width):
    pts = np.array(pts)
    ang = np.array([t for t, _ in lines])
    off = np.array([d for _, d in lines])
    got = line_residuals(pts, ang, off)
    assert got.shape == (len(pts), len(lines))
    assert np.array_equal(got, _residuals_family_oracle(pts, ang, off))
    for j, (t, d) in enumerate(lines):
        assert np.array_equal(got[:, j], _residuals_line_oracle(pts, ang[j], off[j]))
        tube = Tube(Line.from_angle_offset(t, d), width)
        assert np.array_equal(
            line_residuals(pts, tube.axis.angle, tube.axis.offset())[:, 0],
            _residuals_tube_oracle(pts, tube),
        )
    for i, (x, y) in enumerate(pts):
        assert np.array_equal(line_residuals(pts[i], ang, off)[0],
                              _residuals_point_oracle(x, y, ang, off))
        assert np.array_equal(line_residuals(pts - pts[i], ang, np.zeros(ang.size)),
                              _residuals_through_oracle(pts, pts[i], ang))


@given(theta_p=st.floats(0.0, math.pi, exclude_max=True), d_p=unit_coord,
       lines=st.lists(st.tuples(st.floats(0.0, math.pi, exclude_max=True), unit_coord),
                      min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_line_residuals_match_mid_chord_form(theta_p, d_p, lines):
    """containment_multiplicity's former prefilter |d_p cos(dtheta) - d| is
    the residual of the probe's mid-chord point by a trig identity; the two
    agree far inside the prefilter's 1e-9 slack."""
    th = np.array([t for t, _ in lines])
    off = np.array([d for _, d in lines])
    old = np.abs(d_p * np.cos(theta_p - th) - off)
    mid = d_p * np.array([-math.sin(theta_p), math.cos(theta_p)])
    assert np.allclose(line_residuals(mid, th, off)[0], old, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("level", [2, 4, 6])
@pytest.mark.parametrize("angle", [0.0, math.pi / 2.0])
def test_line_residuals_lattice_points_at_half_width(level, angle):
    """Lattice points exactly width/2 from an axis-parallel dyadic tube
    axis: the kernel and the former inline form agree bit for bit and both
    keep the points in the closed tube."""
    width = 2.0 ** -level
    along = np.tile(np.arange(-32, 33) * 2.0 ** -5, 2)
    for axis_off in (0.0, 0.25, -0.5):
        tube = Tube(Line.from_angle_offset(angle, axis_off), width)
        across = np.repeat([axis_off - width / 2.0, axis_off + width / 2.0], 65)
        if angle == 0.0:
            pts = np.column_stack((along, across))    # axis y = offset
        else:
            pts = np.column_stack((-across, along))   # axis x = -offset
        got = line_residuals(pts, tube.axis.angle, tube.axis.offset())[:, 0]
        assert np.array_equal(got, _residuals_tube_oracle(pts, tube))
        assert np.all(got <= width / 2.0 + 1e-12)


@pytest.mark.parametrize("n, m", [(0, 3), (5, 0), (700, 1), (5000, 1000)])
def test_count_near_lines_matches_the_whole_residual_matrix(n, m):
    """(1 << 22) // 1000 points per block, so 5000 points take two."""
    rng = np.random.default_rng(n + m)
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    angles, offsets = rng.uniform(0.0, math.pi, m), rng.uniform(-1.0, 1.0, m)
    want = (_residuals_family_oracle(pts, angles, offsets) <= 0.05).sum(axis=0)
    got = count_near_lines(pts, angles, offsets, 0.05)
    assert got.dtype == np.int64 and np.array_equal(got, want)
