"""Weighted point measures: ball and tube mass, growth-exponent fits,
pairwise-distance energy, direction pushforwards, and mass shells."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .covering import _check_level_window, fit_log2_slope
from .dyadic import ball_max, ball_sums
from .errors import (
    AllMassAtCenter,
    InvariantViolation,
    PreconditionError,
)
from .generators import DiscreteSet
from .geometry import Ball, Point, Tube, line_residuals

BALL_TOL = 1e-12


@dataclass
class WeightedMeasure:
    """Probability measure carried by the points of a DiscreteSet: point i
    has mass counts[i] / total, its non-negative integer multiplicity over
    their sum. Every mass reported is an exact integer sum of counts
    divided once by the total, on every route."""

    support: DiscreteSet
    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.dtype.kind not in "iu":
            raise PreconditionError(f"counts must be integers, not {c.dtype}")
        c = c.astype(np.int64, copy=False).reshape(-1)
        if c.shape[0] != len(self.support):
            raise PreconditionError(
                f"{c.shape[0]} counts for {len(self.support)} support points"
            )
        # a float sum of non-negative integers is exact below 2^53, and a
        # sum that rounds is at least 2^53
        total = float(c.sum(dtype=np.float64))
        if not 1.0 <= total < 2.0 ** 53 or c.min() < 0:
            raise PreconditionError("counts must be non-negative and total in [1, 2^53)")
        self.counts, self.total = c, int(total)

    @classmethod
    def uniform(cls, support: DiscreteSet) -> "WeightedMeasure":
        return cls(support, np.ones(len(support), dtype=np.int64))

    @property
    def weights(self) -> np.ndarray:
        """Each point's mass, counts / total."""
        return self.counts / self.total

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class FrostmanFit:
    """Fitted uniform ball-growth bound mass(B(x,r)) <= constant * r^exponent."""

    exponent: float
    constant: float
    worst_witness: tuple  # (Point, radius)

    def __post_init__(self):
        if not (0.0 <= self.exponent <= 2.0):
            raise InvariantViolation(f"exponent {self.exponent!r} outside [0, 2]")
        if self.constant < 1.0:
            raise InvariantViolation(f"constant {self.constant!r} below 1")


@dataclass
class MassShells:
    """Dyadic bands of ball mass: index j holds points y whose r-ball mass
    sits in (2^{-j-1} * constant * r^exponent, 2^{-j} * constant * r^exponent]."""

    shells: dict
    radius: float
    constant: float
    exponent: float
    tail_index: Optional[int] = None

    def as_json(self) -> dict:
        return {
            "radius": self.radius,
            "constant": self.constant,
            "exponent": self.exponent,
            "tail_index": self.tail_index,
            "shells": {str(j): np.asarray(ix).tolist() for j, ix in self.shells.items()},
        }


@dataclass
class DirectionMeasure:
    """Atomic measure on the circle of directions seen from a center point:
    the atom at angles[i] carries counts[i] of the source measure's total,
    and `leaked` counts lie too near the center to have a direction."""

    angles: np.ndarray  # sorted, in [0, 2*pi)
    counts: np.ndarray
    leaked: int
    total: int
    center: Point

    def __len__(self) -> int:
        return int(self.angles.size)

    @property
    def masses(self) -> np.ndarray:
        return self.counts / self.total

    @property
    def leaked_mass(self) -> float:
        return self.leaked / self.total

    @property
    def total_mass(self) -> float:
        return int(self.counts.sum()) / self.total

    def to_circle_set(self) -> DiscreteSet:
        """Embed the atoms on the unit circle for covering analysis."""
        pts = np.column_stack((np.cos(self.angles), np.sin(self.angles)))
        if self.angles.size > 1:
            gaps = np.diff(self.angles)
            wrap = 2.0 * math.pi - (self.angles[-1] - self.angles[0])
            gap = float(min(gaps.min(), wrap)) if wrap > 0 else float(gaps.min())
            sep = max(2.0 * math.sin(max(gap, 1e-18) / 2.0), 2.0 ** -20)
        else:
            sep = 0.25
        return DiscreteSet(
            pts, min(0.25, sep), label="directions", check=False,
            meta={"generator": "radial_pushforward", "seed": None, "params": {}},
        )

    def as_circle_measure(self) -> WeightedMeasure:
        """Atoms embedded on the unit circle with their counts, so renormalized
        to total mass 1 over the counts kept."""
        return WeightedMeasure(self.to_circle_set(), self.counts)


def ball_mass(m: WeightedMeasure, b: Ball) -> float:
    """Mass of the points with dx*dx + dy*dy <= (r + BALL_TOL)**2."""
    dx = m.support.points[:, 0] - b.center.x
    dy = m.support.points[:, 1] - b.center.y
    bound = (b.radius + BALL_TOL) * (b.radius + BALL_TOL)
    return int(m.counts[dx * dx + dy * dy <= bound].sum()) / m.total


def tube_mass(m: WeightedMeasure, t: Tube) -> float:
    """Mass inside the closed tube."""
    dist = line_residuals(m.support.points, t.axis.angle, t.axis.offset())[:, 0]
    return int(m.counts[dist <= t.width / 2.0 + BALL_TOL].sum()) / m.total


def ball_masses_at_support(m: WeightedMeasure, radii) -> list:
    """For each radius, the array of closed-ball masses centered at every
    support point.

    A ball holds the points with dx*dx + dy*dy <= (r + BALL_TOL)**2, and
    its mass is the count it holds over the total: dyadic.ball_sums of the
    counts on the dyadic delta-lattice, by FFT or by sweep, the same
    masses as ball_mass's either way."""
    radii = [float(r) for r in radii]
    if not all(0.0 < r < math.inf for r in radii):
        raise PreconditionError("radii must be positive and finite")
    pts = m.support.points
    sums = ball_sums(pts, m.counts, pts, [r + BALL_TOL for r in radii], m.support.delta)
    return [s / m.total for s in sums]


def frostman_fit(m: WeightedMeasure, level_min: int, level_max: int) -> FrostmanFit:
    """Fit the growth exponent of the worst-case ball mass across dyadic radii.

    At each dyadic radius the maximum of ball_mass over support centers is
    taken; the exponent is the least-squares slope of log2 max-mass against
    log2 radius, clamped to [0, 2]. The constant is the worst mass / r^exponent
    over all tested centers and radii, clamped up to 1.

    The maxima are dyadic.ball_max's, each the largest closed-ball count
    (as in ball_masses_at_support) and the first support index that holds
    it, over the total; on a dyadic delta-lattice it counts exactly only
    the balls a summed-area bound cannot rule out.

    Ties: masses are exact counts over the total, so equal balls tie
    exactly. The witness is the lowest support index of the largest ball
    at the largest radius of the worst ratio, as a smaller radius replaces
    it only on a strictly larger one; clamped at 1, it is the heaviest
    largest ball.
    """
    _check_level_window(level_min, level_max, m.support.delta)
    levels = list(range(level_min, level_max + 1))
    radii = [2.0 ** -lv for lv in levels]
    pts = m.support.points
    per_level = ball_max(pts, m.counts, pts, [r + BALL_TOL for r in radii], m.support.delta)
    maxima = [top / m.total for top, _ in per_level]
    logr = np.array([-float(lv) for lv in levels])
    slope, _, _ = fit_log2_slope(logr, np.maximum(maxima, 1e-300))
    exponent = min(2.0, max(0.0, slope))
    constant = 1.0
    worst = (Point(*pts[per_level[0][1]]), radii[0])
    for r, mass, (_, j) in zip(radii, maxima, per_level):
        ratio = mass / r ** exponent
        if ratio > constant:
            constant = ratio
            worst = (Point(*pts[j]), r)
    return FrostmanFit(exponent, constant, worst)


def energy(m: WeightedMeasure, sigma: float) -> float:
    """Double sum of w_i * w_j * |p_i - p_j|^(-sigma) over distinct pairs."""
    if not (0.0 < sigma < 2.0):
        raise PreconditionError(f"sigma {sigma!r} outside (0, 2)")
    pts = m.support.points
    w = m.weights
    n = len(m)
    if n < 2:
        return 0.0
    block = max(1, (1 << 22) // n)
    acc = 0.0
    with np.errstate(divide="ignore"):
        for i0 in range(0, n, block):
            i1 = min(n, i0 + block)
            dx = pts[i0:i1, 0, None] - pts[:, 0]
            dy = pts[i0:i1, 1, None] - pts[:, 1]
            d = np.sqrt(dx * dx + dy * dy)
            rows = np.arange(i0, i1)
            d[rows - i0, rows] = np.inf  # exclude the diagonal
            acc += float((w[i0:i1, None] * w[None, :] * d ** -sigma).sum())
    return acc


def radial_pushforward(m: WeightedMeasure, x: Point) -> DirectionMeasure:
    """Push the measure to the circle of directions seen from x.

    Support points closer to x than twice the support resolution are dropped
    and their mass reported as leaked, never silently renormalized.
    """
    pts = m.support.points
    c = m.counts
    dx = pts[:, 0] - x.x
    dy = pts[:, 1] - x.y
    dist = np.hypot(dx, dy)
    cutoff = 2.0 * m.support.delta
    near = dist < cutoff * (1.0 - 1e-12)
    leaked = int(c[near].sum())
    keep = (c > 0) & ~near
    if not np.any(keep):
        raise AllMassAtCenter(
            f"every positive-mass point is within {cutoff!r} of the center"
        )
    angles = np.arctan2(dy[keep], dx[keep]) % (2.0 * math.pi)
    uniq, inv = np.unique(angles, return_inverse=True)
    # float sums of counts are exact below 2^53
    counts = np.bincount(inv, c[keep], minlength=uniq.size).astype(np.int64)
    if int(counts.sum()) + leaked != m.total:
        raise InvariantViolation("direction counts plus leaked counts are not the total")
    return DirectionMeasure(uniq, counts, leaked, m.total, x)


def mass_shell_decompose(m: WeightedMeasure, r: float, t: float, c: float) -> MassShells:
    """Partition support points by the dyadic band of their r-ball mass.

    Point y lands in shell j when 2^{-j-1}*c*r^t < mass(B(y,r)) <= 2^{-j}*c*r^t.
    Shells deeper than 4*log2(1/r) are merged into a single tail shell.
    """
    if not (m.support.delta * (1.0 - 1e-12) <= r < math.inf):
        raise PreconditionError(f"radius {r!r} is not finite or below support resolution")
    if not (1.0 < t <= 2.0):
        raise PreconditionError(f"exponent t {t!r} outside (1, 2]")
    if not (1.0 <= c < math.inf):
        raise PreconditionError(f"constant c {c!r} must be finite and at least 1")
    masses = ball_masses_at_support(m, [r])[0]
    top = c * r ** t
    occupied = np.nonzero(masses > 0)[0]
    if occupied.size and float(masses[occupied].max()) > top * (1.0 + 1e-12):
        raise PreconditionError(
            "constant c too small: a ball mass exceeds c * r^t, shell index "
            "would be negative"
        )
    tail_cut = 4.0 * math.log2(1.0 / r)
    tail_index = int(math.floor(tail_cut)) + 1
    shells: dict = {}
    js = np.floor(np.log2(top / masses[occupied])).astype(np.int64)
    js = np.maximum(js, 0)  # boundary mass == c * r^t sits in shell 0
    merged = np.where(js > tail_cut, tail_index, js)
    for j in np.unique(merged):
        shells[int(j)] = occupied[merged == j]
    return MassShells(
        shells, float(r), float(c), float(t),
        tail_index=tail_index if tail_index in shells else None,
    )
