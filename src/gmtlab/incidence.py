"""Exact point-line incidence machinery: spanned lines with integer
canonical keys, incidence counting with proved upper bounds, rich lines,
the dyadic connected-pair profile, and the many-lines dichotomy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    AllCollinear,
    InvariantViolation,
    PreconditionError,
    TooFewPoints,
)
from .generators import DiscreteSet
from .geometry import LINE_EQ_TOL, Line, Point, line_residuals

# largest common denominator for the exact integer path
_DENOM_CAP = 1 << 21
# largest integer coordinate magnitude accepted on the exact path
_COORD_CAP = 1 << 23
# pair enumeration chunk (rows of the triple table per block)
_PAIR_CHUNK = 1 << 21


def _rationalize(points: np.ndarray) -> Optional[tuple[np.ndarray, int]]:
    """Integer coordinates on a common lattice, or None.

    Each float coordinate must round-trip exactly through a fraction with
    denominator at most the cap; the common denominator must stay small
    enough that downstream int64 arithmetic cannot overflow.
    """
    vals = np.unique(points)
    fracs = []
    den = 1
    for v in vals.tolist():
        f = Fraction(v).limit_denominator(_DENOM_CAP)
        if float(f) != v:
            return None
        fracs.append(f)
        den = den * f.denominator // math.gcd(den, f.denominator)
        if den > _DENOM_CAP:
            return None
    lut = np.array([f.numerator * (den // f.denominator) for f in fracs],
                   dtype=np.int64)
    if lut.size and np.max(np.abs(lut)) > _COORD_CAP:
        return None
    pos = np.searchsorted(vals, points.ravel())
    ints = lut[pos].reshape(points.shape)
    return ints, den


def _canonical_triples(ints: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """gcd-reduced sign-normalized (a, b, c) with a*x + b*y = c through
    integer points i and j."""
    a = ints[j, 1] - ints[i, 1]
    b = ints[i, 0] - ints[j, 0]
    c = a * ints[i, 0] + b * ints[i, 1]
    g = np.gcd(np.gcd(np.abs(a), np.abs(b)), np.abs(c))
    g = np.maximum(g, 1)
    a //= g
    b //= g
    c //= g
    flip = (a < 0) | ((a == 0) & (b < 0))
    sign = np.where(flip, -1, 1)
    return np.column_stack((a * sign, b * sign, c * sign))


def _spanned_exact(ints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique canonical triples and per-line point counts."""
    n = ints.shape[0]
    pieces = []
    counts_pieces = []
    ii, jj = np.triu_indices(n, 1)
    for s in range(0, ii.size, _PAIR_CHUNK):
        chunk = _canonical_triples(ints, ii[s:s + _PAIR_CHUNK], jj[s:s + _PAIR_CHUNK])
        uniq, cnt = np.unique(chunk, axis=0, return_counts=True)
        pieces.append(uniq)
        counts_pieces.append(cnt)
    allrows = np.concatenate(pieces)
    allcnt = np.concatenate(counts_pieces)
    triples, inv = np.unique(allrows, axis=0, return_inverse=True)
    pair_counts = np.zeros(triples.shape[0], dtype=np.int64)
    np.add.at(pair_counts, inv, allcnt)
    return triples, _points_on_lines(pair_counts)


def _points_on_lines(pair_counts: np.ndarray) -> np.ndarray:
    """Points k on each line from its pair count k*(k-1)/2; a count that is
    not a binomial coefficient means distinct lines were merged or one line
    was split."""
    k = ((1.0 + np.sqrt(1.0 + 8.0 * pair_counts.astype(np.float64))) / 2.0).astype(np.int64)
    if np.any(k * (k - 1) // 2 != pair_counts):
        raise InvariantViolation("pair count is not a binomial coefficient")
    return k


def _triple_to_angle_offset(triples: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (angle in [0, pi), signed offset) for integer lines
    a*x + b*y = c/den in real coordinates."""
    a = triples[:, 0].astype(np.float64)
    b = triples[:, 1].astype(np.float64)
    c = triples[:, 2].astype(np.float64) / den
    norm = np.hypot(a, b)
    theta = np.arctan2(-a, b)
    d = c / norm
    neg = theta < 0
    theta = np.where(neg, theta + math.pi, theta)
    d = np.where(neg, -d, d)
    hi = theta >= math.pi - 1e-12
    theta = np.where(hi, theta - math.pi, theta)
    d = np.where(hi, -d, d)
    return theta, d


@dataclass
class LineSet:
    """Deduplicated family of lines, either spanned by a point set (with
    exact integer keys and per-line point counts) or supplied directly."""

    provenance: str  # "spanned" | "supplied"
    triples: Optional[np.ndarray] = None       # (m, 3) int64, exact mode
    denominator: int = 1
    point_counts: Optional[np.ndarray] = None  # points on each line, exact mode
    angles: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.provenance not in ("spanned", "supplied"):
            raise PreconditionError(f"unknown provenance {self.provenance!r}")
        if self.triples is None and self.angles is None:
            raise PreconditionError("a line set needs triples or angle data")

    def __len__(self) -> int:
        if self.triples is not None:
            return int(self.triples.shape[0])
        return int(self.angles.size)

    @property
    def exact(self) -> bool:
        return self.triples is not None

    def angle_offset_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self.angles is None:
            self.angles, self.offsets = _triple_to_angle_offset(
                self.triples, self.denominator
            )
        return self.angles, self.offsets

    def line(self, i: int) -> Line:
        ang, off = self.angle_offset_arrays()
        return Line.from_angle_offset(float(ang[i]), float(off[i]))

    @classmethod
    def from_lines(cls, lines, provenance: str = "supplied") -> "LineSet":
        """Keep each line unless it lies within LINE_EQ_TOL of an earlier
        kept one in the metric of geometry.line_distance."""
        lines = list(lines)
        for ln in lines:
            if not isinstance(ln, Line):
                raise PreconditionError(f"expected Line, got {type(ln).__name__}")
        ang = np.array([ln.angle for ln in lines], dtype=float)
        ax = np.array([ln.anchor.x for ln in lines], dtype=float)
        ay = np.array([ln.anchor.y for ln in lines], dtype=float)
        kept: list = []
        for i, ln in enumerate(lines):
            # the kept lines occupy the first len(kept) slots of the arrays
            k = len(kept)
            d = np.abs(ang[:k] - ang[i])
            d = np.minimum(d, math.pi - d) + np.hypot(ax[:k] - ax[i], ay[:k] - ay[i])
            if np.all(d > LINE_EQ_TOL):
                ang[k], ax[k], ay[k] = ang[i], ax[i], ay[i]
                kept.append(ln)
        off = np.array([ln.offset() for ln in kept])
        return cls(provenance, angles=ang[:len(kept)].copy(), offsets=off)


@dataclass(frozen=True)
class IncidenceReport:
    """Incidence count with the proved unconditional upper bounds."""

    n_points: int
    n_lines: int
    incidence_count: int
    cs_bound: float
    eps: Optional[float]
    eps_bound: Optional[float]
    rich_profile: dict

    def __post_init__(self):
        if self.incidence_count > self.n_points * self.n_lines:
            raise InvariantViolation("more incidences than point-line pairs")
        if self.incidence_count > self.cs_bound + 1e-9:
            raise InvariantViolation(
                f"incidence count {self.incidence_count} exceeds the "
                f"Cauchy-Schwarz bound {self.cs_bound:.3f}"
            )

    def as_json(self) -> dict:
        return {
            "n_points": self.n_points,
            "n_lines": self.n_lines,
            "incidence_count": self.incidence_count,
            "cs_bound": self.cs_bound,
            "eps": self.eps,
            "eps_bound": self.eps_bound,
            "rich_profile": {str(r): v for r, v in sorted(self.rich_profile.items())},
        }


@dataclass(frozen=True)
class BeckReport:
    """Spanned-line statistics and the rich-line / many-lines dichotomy."""

    n_points: int
    max_collinear: int
    spanned_line_count: int
    connected_pair_profile: dict
    dichotomy_verdict: str  # "RichLine" | "ManyLines" | "Both"
    erdos_beck_ratio: Optional[float]
    c_threshold: float

    def as_json(self) -> dict:
        return {
            "n_points": self.n_points,
            "max_collinear": self.max_collinear,
            "spanned_line_count": self.spanned_line_count,
            "connected_pair_profile": {
                str(r): v for r, v in sorted(self.connected_pair_profile.items())
            },
            "dichotomy_verdict": self.dichotomy_verdict,
            "erdos_beck_ratio": self.erdos_beck_ratio,
            "c_threshold": self.c_threshold,
        }


def _spanned_float(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tolerance-keyed fallback for inputs without small rational structure.

    Lines are keyed by (angle, offset) rounded at the equality tolerance.
    Adequate for well-separated generic inputs; lattice data always takes
    the exact path instead. Lines close enough to share a key make its pair
    count a non-binomial number, which raises rather than misreports.
    """
    n = points.shape[0]
    ii, jj = np.triu_indices(n, 1)
    dx = points[jj, 0] - points[ii, 0]
    dy = points[jj, 1] - points[ii, 1]
    theta = np.arctan2(dy, dx) % math.pi
    theta = np.where(theta >= math.pi - 1e-12, 0.0, theta)
    nx, ny = -np.sin(theta), np.cos(theta)
    d = points[ii, 0] * nx + points[ii, 1] * ny
    quant = np.column_stack((np.round(theta / 1e-7), np.round(d / 1e-7))).astype(np.int64)
    # representative geometry: first pair hitting each key
    _, first, cnt = np.unique(quant, axis=0, return_index=True, return_counts=True)
    return theta[first], d[first], _points_on_lines(cnt)


def spanned_lines(p: DiscreteSet) -> LineSet:
    """Every line through at least two points of the set, deduplicated."""
    if len(p) < 2:
        raise TooFewPoints("spanning lines needs at least two points")
    rat = _rationalize(p.points)
    if rat is not None:
        ints, den = rat
        triples, k = _spanned_exact(ints)
        return LineSet("spanned", triples=triples, denominator=den, point_counts=k)
    ang, off, k = _spanned_float(p.points)
    return LineSet("spanned", angles=ang, offsets=off, point_counts=k)


def _count_on_lines_exact(p: DiscreteSet, l: LineSet) -> Optional[np.ndarray]:
    """Points on each exact line, by integer evaluation. None when the
    points do not share a compatible lattice."""
    rat = _rationalize(p.points)
    if rat is None:
        return None
    ints, dp = rat
    dl = l.denominator
    # a*x + b*y = c/dl with x = ix/dp: test a*ix*dl + b*iy*dl == c*dp
    scale_bits = (
        math.log2(max(1, int(np.max(np.abs(l.triples[:, :2])))))
        + math.log2(max(1, int(np.max(np.abs(ints))))) + math.log2(dl)
    )
    if scale_bits > 61:
        return None
    a = l.triples[:, 0] * dl
    b = l.triples[:, 1] * dl
    c = l.triples[:, 2] * dp
    counts = np.zeros(len(l), dtype=np.int64)
    block = max(1, (1 << 22) // max(1, len(l)))
    for s in range(0, len(p), block):
        px = ints[s:s + block, 0]
        py = ints[s:s + block, 1]
        hit = px[:, None] * a[None, :] + py[:, None] * b[None, :] == c[None, :]
        counts += hit.sum(axis=0)
    return counts


def _count_on_lines_float(p: DiscreteSet, l: LineSet) -> np.ndarray:
    ang, off = l.angle_offset_arrays()
    pts = p.points
    scale = max(1.0, float(np.max(np.abs(pts))) if len(p) else 1.0)
    tol = LINE_EQ_TOL * scale
    counts = np.zeros(len(l), dtype=np.int64)
    block = max(1, (1 << 22) // max(1, len(l)))
    for s in range(0, len(p), block):
        counts += (line_residuals(pts[s:s + block], ang, off) <= tol).sum(axis=0)
    return counts


def _rich_profile_from_counts(k: np.ndarray, n: int) -> dict:
    profile = {}
    r = 2
    while r <= max(2, n):
        profile[r] = int((k >= r).sum())
        r *= 2
    return profile


def incidence_count(p: DiscreteSet, l: LineSet, eps: Optional[float] = None) -> IncidenceReport:
    """Exact number of (point, line) incidences with its proved bounds.

    cs_bound is n + m + (nm)^(3/4); eps_bound, when eps is supplied, is
    m + n + m^(1/2 + eps) * n^(1 - 2*eps).
    """
    if eps is not None and not (0.0 < eps < 0.25):
        raise PreconditionError(f"eps {eps!r} outside (0, 0.25)")
    n, m = len(p), len(l)
    if m == 0:
        counts = np.zeros(0, dtype=np.int64)
    elif l.exact:
        counts = _count_on_lines_exact(p, l)
        if counts is None:
            counts = _count_on_lines_float(p, l)
    else:
        counts = _count_on_lines_float(p, l)
    total = int(counts.sum())
    cs = n + m + (n * m) ** 0.75
    eb = m + n + m ** (0.5 + eps) * n ** (1.0 - 2.0 * eps) if eps is not None else None
    return IncidenceReport(n, m, total, cs, eps, eb,
                           _rich_profile_from_counts(counts, n))


def rich_lines(p: DiscreteSet, r: int) -> LineSet:
    """Spanned lines through at least r points of the set."""
    if r < 2:
        raise PreconditionError(f"richness threshold {r!r} below 2")
    full = spanned_lines(p)
    k = full.point_counts
    keep = np.nonzero(k >= r)[0]
    n = len(p)
    if keep.size > 2.0 * n * n / (r * r):
        raise InvariantViolation(
            f"{keep.size} lines with >= {r} points exceeds 2 n^2 / r^2"
        )
    if full.exact:
        return LineSet("spanned", triples=full.triples[keep],
                       denominator=full.denominator, point_counts=k[keep])
    ang, off = full.angle_offset_arrays()
    return LineSet("spanned", angles=ang[keep], offsets=off[keep],
                   point_counts=k[keep])


def beck_analyze(p: DiscreteSet, c_threshold: float = 64.0) -> BeckReport:
    """Connected-pair profile and the rich-line / many-lines dichotomy.

    Dyadic bracket r holds the pairs whose spanning line has between r and
    2r - 1 points; a line with exactly 2r lands in the next bracket up.
    """
    n = len(p)
    if n < 3:
        raise TooFewPoints("dichotomy analysis needs at least three points")
    if c_threshold < 2.0:
        raise PreconditionError(f"c_threshold {c_threshold!r} below 2")
    lines = spanned_lines(p)
    k = lines.point_counts
    max_collinear = int(k.max())
    spanned_count = len(lines)
    pair_counts = k * (k - 1) // 2
    profile = {}
    total_pairs = 0
    r = 2
    while r <= n:
        in_bracket = (k >= r) & (k < 2 * r)
        t_r = int(pair_counts[in_bracket].sum())
        profile[r] = t_r
        total_pairs += t_r
        l_r = int((k >= r).sum())
        if t_r > 2 * r * r * l_r:
            raise InvariantViolation(
                f"bracket r={r}: {t_r} connected pairs exceed 2 r^2 |L_r|"
            )
        r *= 2
    if total_pairs != n * (n - 1) // 2:
        raise InvariantViolation(
            f"connected pairs sum to {total_pairs}, expected {n * (n - 1) // 2}"
        )
    rich = max_collinear >= n / c_threshold
    many = spanned_count >= n * n / (c_threshold * c_threshold)
    if rich and many:
        verdict = "Both"
    elif rich:
        verdict = "RichLine"
    elif many:
        verdict = "ManyLines"
    else:
        raise InvariantViolation(
            "neither dichotomy branch holds; the threshold argument excludes this"
        )
    k_planted = n - max_collinear
    ratio = spanned_count / (n * k_planted) if k_planted >= 1 else None
    return BeckReport(n, max_collinear, spanned_count, profile, verdict,
                      ratio, c_threshold)


def weak_dirac_stat(p: DiscreteSet) -> tuple[Point, int]:
    """The point lying on the most spanned lines, ties by lowest index."""
    n = len(p)
    if n < 3:
        raise TooFewPoints("the incidence maximum needs at least three points")
    rat = _rationalize(p.points)
    if rat is None:
        raise PreconditionError(
            "per-point line counting requires lattice-representable input"
        )
    ints, _ = rat
    ii, jj = np.triu_indices(n, 1)
    triples = _canonical_triples(ints, ii, jj)
    if np.unique(triples, axis=0).shape[0] == 1:
        raise AllCollinear("every point lies on a single line")
    rows = np.concatenate([
        np.column_stack((ii, triples)),
        np.column_stack((jj, triples)),
    ])
    uniq = np.unique(rows, axis=0)
    per_point = np.bincount(uniq[:, 0], minlength=n)
    best = int(np.argmax(per_point))
    return Point(*p.points[best]), int(per_point[best])
