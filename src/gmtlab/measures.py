"""Weighted point measures: ball and tube mass, growth-exponent fits,
pairwise-distance energy, direction pushforwards, and mass shells."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import fftconvolve
from scipy.spatial import cKDTree, distance

from .covering import _check_level_window, fit_log2_slope
from .errors import (
    AllMassAtCenter,
    EmptyInput,
    InvariantViolation,
    PreconditionError,
)
from .generators import DiscreteSet
from .geometry import Ball, Point, Tube, line_residuals

WEIGHT_TOL = 1e-9
BALL_TOL = 1e-12

# grids larger than this (cells) fall back to the tree-based ball scan
_MAX_FFT_CELLS = 3 * 10 ** 7
# supports up to this size use the tree scan unconditionally
_SMALL_SUPPORT = 4096


@dataclass
class WeightedMeasure:
    """Probability measure carried by the points of a DiscreteSet."""

    support: DiscreteSet
    weights: np.ndarray
    require_probability: bool = True

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64)).reshape(-1)
        if w.shape[0] != len(self.support):
            raise PreconditionError(
                f"{w.shape[0]} weights for {len(self.support)} support points"
            )
        if not np.all(np.isfinite(w)):
            raise PreconditionError("weights must be finite")
        if np.any(w < 0):
            raise PreconditionError("weights must be nonnegative")
        if self.require_probability and abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise PreconditionError(f"weights sum to {w.sum()!r}, expected 1")
        self.weights = w

    @classmethod
    def uniform(cls, support: DiscreteSet) -> "WeightedMeasure":
        n = len(support)
        return cls(support, np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return len(self.support)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def restrict(self, indices, renormalize: bool = True) -> "WeightedMeasure":
        """Restriction to a subset of support indices."""
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.nonzero(idx)[0]
        if idx.size == 0:
            raise EmptyInput("restriction to empty index set")
        sub = self.support.subset(idx)
        w = self.weights[idx]
        if renormalize:
            total = float(w.sum())
            if total <= 0:
                raise EmptyInput("restriction carries no mass")
            return WeightedMeasure(sub, w / total)
        return WeightedMeasure(sub, w, require_probability=False)


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

    def occupied(self) -> list:
        return sorted(self.shells.keys())

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
    """Atomic measure on the circle of directions seen from a center point."""

    angles: np.ndarray  # sorted, in [0, 2*pi)
    masses: np.ndarray
    leaked_mass: float
    center: Point

    def __len__(self) -> int:
        return int(self.angles.size)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

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
        """Atoms embedded on the unit circle, renormalized to total mass 1."""
        total = self.total_mass
        if total <= 0:
            raise EmptyInput("direction measure carries no mass")
        return WeightedMeasure(self.to_circle_set(), self.masses / total)


def ball_mass(m: WeightedMeasure, b: Ball) -> float:
    """Mass carried by the closed ball."""
    pts = m.support.points
    d = np.hypot(pts[:, 0] - b.center.x, pts[:, 1] - b.center.y)
    return float(m.weights[d <= b.radius + BALL_TOL].sum())


def tube_mass(m: WeightedMeasure, t: Tube, restrict_to=None) -> float:
    """Mass inside the closed tube, optionally restricted to support indices."""
    dist = line_residuals(m.support.points, t.axis.angle, t.axis.offset())[:, 0]
    mask = dist <= t.width / 2.0 + BALL_TOL
    if restrict_to is not None:
        keep = np.zeros(len(m), dtype=bool)
        keep[np.asarray(restrict_to, dtype=np.int64)] = True
        mask &= keep
    return float(m.weights[mask].sum())


def _lattice_pitch(m: WeightedMeasure) -> Optional[float]:
    """Pitch of the origin-anchored lattice holding every support point, if any."""
    h = m.support.delta
    q = m.support.points / h
    if np.max(np.abs(q - np.round(q))) < 1e-6:
        return h
    return None


def _ball_masses_fft(m: WeightedMeasure, radii) -> Optional[list]:
    """Per-radius arrays of ball mass at every support point, via convolution
    of lattice cell masses with a disc stencil. None if the support is not
    lattice-aligned or the lattice is too large."""
    h = _lattice_pitch(m)
    if h is None:
        return None
    idx = np.round(m.support.points / h).astype(np.int64)
    lo = idx.min(axis=0)
    idx = idx - lo
    shape = idx.max(axis=0) + 1
    qmax = int(math.floor(max(radii) / h * (1.0 + 1e-9)))
    if (shape[0] + 2 * qmax) * (shape[1] + 2 * qmax) > _MAX_FFT_CELLS:
        return None
    grid = np.zeros((int(shape[0]), int(shape[1])))
    np.add.at(grid, (idx[:, 0], idx[:, 1]), m.weights)
    out = []
    for r in radii:
        q = int(math.floor(r / h * (1.0 + 1e-9)))
        span = np.arange(-q, q + 1)
        kern = (span[:, None] ** 2 + span[None, :] ** 2) <= (r / h) ** 2 * (1.0 + 1e-9)
        conv = fftconvolve(grid, kern.astype(np.float64), mode="same")
        out.append(np.maximum(conv[idx[:, 0], idx[:, 1]], 0.0))
    return out


def _ball_masses_tree(m: WeightedMeasure, radii) -> list:
    pts = m.support.points
    tree = cKDTree(pts)
    w = m.weights
    out = []
    for r in radii:
        hoods = tree.query_ball_point(pts, r + BALL_TOL)
        out.append(np.array([w[ix].sum() for ix in hoods]))
    return out


def ball_masses_at_support(m: WeightedMeasure, radii) -> list:
    """For each radius, the array of closed-ball masses centered at every
    support point."""
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise PreconditionError("radii must be positive")
    if len(m) > _SMALL_SUPPORT:
        res = _ball_masses_fft(m, radii)
        if res is not None:
            return res
    return _ball_masses_tree(m, radii)


def frostman_fit(m: WeightedMeasure, level_min: int, level_max: int) -> FrostmanFit:
    """Fit the growth exponent of the worst-case ball mass across dyadic radii.

    At each dyadic radius the maximum of ball_mass over support centers is
    taken; the exponent is the least-squares slope of log2 max-mass against
    log2 radius, clamped to [0, 2]. The constant is the worst mass / r^exponent
    over all tested centers and radii, clamped up to 1.
    """
    _check_level_window(level_min, level_max, m.support.delta)
    levels = list(range(level_min, level_max + 1))
    radii = [2.0 ** -lv for lv in levels]
    per_level = ball_masses_at_support(m, radii)
    maxima = []
    argmaxes = []
    for masses in per_level:
        j = int(np.argmax(masses))
        argmaxes.append(j)
        maxima.append(float(masses[j]))
    logr = np.array([-float(lv) for lv in levels])
    slope, _, _ = fit_log2_slope(logr, np.maximum(maxima, 1e-300))
    exponent = min(2.0, max(0.0, slope))
    constant = 1.0
    worst = (Point(*m.support.points[argmaxes[0]]), radii[0])
    for lv, r, masses in zip(levels, radii, per_level):
        ratios = masses / r ** exponent
        j = int(np.argmax(ratios))
        if ratios[j] > constant:
            constant = float(ratios[j])
            worst = (Point(*m.support.points[j]), r)
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
            d = distance.cdist(pts[i0:i1], pts)
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
    w = m.weights
    dx = pts[:, 0] - x.x
    dy = pts[:, 1] - x.y
    dist = np.hypot(dx, dy)
    cutoff = 2.0 * m.support.delta
    positive = w > 0
    near = dist < cutoff * (1.0 - 1e-12)
    leaked = float(w[near & positive].sum())
    keep = positive & ~near
    if not np.any(keep):
        raise AllMassAtCenter(
            f"every positive-mass point is within {cutoff!r} of the center"
        )
    angles = np.arctan2(dy[keep], dx[keep]) % (2.0 * math.pi)
    uniq, inv = np.unique(angles, return_inverse=True)
    masses = np.zeros(uniq.size)
    np.add.at(masses, inv, w[keep])
    out = DirectionMeasure(uniq, masses, leaked, x)
    if abs(out.total_mass + leaked - 1.0) > WEIGHT_TOL:
        raise InvariantViolation("direction mass plus leaked mass is not 1")
    return out


def mass_shell_decompose(m: WeightedMeasure, r: float, t: float, c: float) -> MassShells:
    """Partition support points by the dyadic band of their r-ball mass.

    Point y lands in shell j when 2^{-j-1}*c*r^t < mass(B(y,r)) <= 2^{-j}*c*r^t.
    Shells deeper than 4*log2(1/r) are merged into a single tail shell.
    """
    if r < m.support.delta * (1.0 - 1e-12):
        raise PreconditionError(f"radius {r!r} below support resolution")
    if not (1.0 < t <= 2.0):
        raise PreconditionError(f"exponent t {t!r} outside (1, 2]")
    if c < 1.0:
        raise PreconditionError(f"constant c {c!r} below 1")
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
