"""Primitive plane objects: points, lines, tubes, balls.

Lines are stored in a canonical chart: a direction angle in [0, pi) plus
the anchor (the point of the line closest to the origin).  The distance
between two lines is the projective angle between their directions (at
most pi/2) plus the Euclidean distance between their anchors.  A tube of
width w is the closed w/2-neighborhood of its axis line, so a "delta
tube" is a Tube with width delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, InvariantViolation

# Tolerance for treating two lines as equal (canonical-chart distance).
LINE_EQ_TOL = 1e-9
# Points closer than this cannot span a line.
PAIR_TOL = 1e-12


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvariantViolation(f"{name} has non-finite coordinate {v!r}")


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite("Point", self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _canonical_angle(theta: float) -> float:
    """Reduce a direction angle mod pi into [0, pi)."""
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    # collapse values that landed a rounding error away from pi
    if math.pi - t < 1e-12:
        t = 0.0
    return t


@dataclass(frozen=True)
class Line:
    """A full line, canonically parametrized.

    angle: direction angle in [0, pi).
    anchor: the point of the line closest to the origin; it is always
        perpendicular to the direction (anchor . direction == 0).
    """

    angle: float
    anchor: Point

    def __post_init__(self) -> None:
        _require_finite("Line", self.angle, self.anchor.x, self.anchor.y)
        if not (0.0 <= self.angle < math.pi):
            raise InvariantViolation(f"line angle {self.angle!r} outside [0, pi)")
        ex, ey = self.direction()
        dot = self.anchor.x * ex + self.anchor.y * ey
        scale = max(1.0, abs(self.anchor.x), abs(self.anchor.y))
        if abs(dot) > 1e-9 * scale:
            raise InvariantViolation(
                f"anchor {self.anchor} not perpendicular to direction (dot={dot:.3e})"
            )

    # -- construction -------------------------------------------------

    @staticmethod
    def from_angle_offset(angle: float, offset: float) -> "Line":
        """Line with direction `angle` at signed normal offset `offset`.

        The offset is measured along the normal obtained by rotating the
        direction +90 degrees, so (angle, offset) and (angle+pi, -offset)
        describe the same line and canonicalize identically.
        """
        t = math.fmod(angle, 2.0 * math.pi)
        if t < 0.0:
            t += 2.0 * math.pi
        # a hair below 2*pi is a full turn: no direction flip, no offset flip
        if 2.0 * math.pi - t < 1e-12:
            t = 0.0
        if t >= math.pi - 1e-12:
            # flip the direction sign; the normal flips with it
            t = _canonical_angle(t - math.pi)
            offset = -offset
        nx, ny = -math.sin(t), math.cos(t)
        return Line(t, Point(offset * nx, offset * ny))

    @staticmethod
    def through(p: Point, q: Point) -> "Line":
        """The unique line through two distinct points.

        Symmetric under argument swap: the pair is ordered internally so
        both call orders produce bit-identical results.
        """
        if p.distance_to(q) <= PAIR_TOL:
            raise DegeneratePair(f"points {p} and {q} are closer than {PAIR_TOL}")
        a, b = ((p, q) if (p.x, p.y) <= (q.x, q.y) else (q, p))
        dx, dy = b.x - a.x, b.y - a.y
        if dy < 0.0 or (dy == 0.0 and dx < 0.0):
            dx, dy = -dx, -dy
        theta = math.atan2(dy, dx)  # in [0, pi) after the sign fix above
        if theta >= math.pi:
            theta -= math.pi
        norm = math.hypot(dx, dy)
        ex, ey = dx / norm, dy / norm
        t = a.x * ex + a.y * ey
        foot = Point(a.x - t * ex, a.y - t * ey)
        return Line(_canonical_angle(theta), foot)

    # -- derived views -------------------------------------------------

    def direction(self) -> tuple[float, float]:
        return (math.cos(self.angle), math.sin(self.angle))

    def normal(self) -> tuple[float, float]:
        return (-math.sin(self.angle), math.cos(self.angle))

    def offset(self) -> float:
        """Signed distance of the line from the origin along its normal."""
        nx, ny = self.normal()
        return self.anchor.x * nx + self.anchor.y * ny

    def distance_to_point(self, p: Point) -> float:
        nx, ny = self.normal()
        return abs((p.x - self.anchor.x) * nx + (p.y - self.anchor.y) * ny)


def line_distance(l1: Line, l2: Line) -> float:
    """Projective angle between directions plus anchor distance."""
    d = abs(l1.angle - l2.angle)
    d = min(d, math.pi - d)
    return d + l1.anchor.distance_to(l2.anchor)


def line_residuals(points, angles, offsets) -> np.ndarray:
    """Distances |x * -sin(angle) + y * cos(angle) - offset| from n points
    to m lines given in the angle/offset chart, as an (n, m) array."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ang = np.asarray(angles, dtype=float).reshape(-1)
    res = pts[:, 0][:, None] * (-np.sin(ang))[None, :]
    res += pts[:, 1][:, None] * np.cos(ang)[None, :]
    res -= np.asarray(offsets, dtype=float).reshape(-1)[None, :]
    return np.abs(res, out=res)


def count_near_lines(points: np.ndarray, angles, offsets, tol: float) -> np.ndarray:
    """Points of an (n, 2) array within tol of each of m lines: the sums of
    line_residuals(points, angles, offsets) <= tol, taken (1 << 22) // m
    points at a time so that about 2^22 residuals are held at once."""
    counts = np.zeros(np.size(angles), dtype=np.int64)
    block = max(1, (1 << 22) // max(1, counts.size))
    for s in range(0, points.shape[0], block):
        counts += (line_residuals(points[s:s + block], angles, offsets) <= tol).sum(axis=0)
    return counts


@dataclass(frozen=True)
class Tube:
    """Closed width/2-neighborhood of a line."""

    axis: Line
    width: float

    def __post_init__(self) -> None:
        _require_finite("Tube", self.width)
        if not (0.0 < self.width <= 4.0):
            raise InvariantViolation(f"tube width {self.width!r} outside (0, 4]")


@dataclass(frozen=True)
class Ball:
    """Closed disc."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        _require_finite("Ball", self.radius)
        if self.radius <= 0.0:
            raise InvariantViolation(f"ball radius {self.radius!r} must be positive")
