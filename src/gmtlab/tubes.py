"""Tube families and tube-mass analysis: the uniform two-parameter family,
heaviest-tube search through a point, the thin-tube mass audit for measure
pairs, separated tube-set verification, the product-set tube-count auditor,
and the constant schedule for the bootstrap argument."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covering import _check_level_window, fit_log2_slope, verify_delta_s_set
from .dyadic import NearSweep, level_of, unique_rows
from .errors import (
    EmptyInput,
    InvariantViolation,
    PreconditionError,
    SeparationViolated,
    TooManyPoints,
)
from .generators import DiscreteSet
from .geometry import Line, Point, Tube, count_near_lines, line_residuals
from .measures import WeightedMeasure

_CONTAIN_TOL = 1e-12
# family scale bounds for the uniform construction
_R_MIN = 2.0 ** -14
_R_MAX = 2.0 ** -2
# verify_tube_set is all-pairs exact; cap the family size it accepts
_VERIFY_CAP = 1 << 14


@dataclass
class TubeFamily:
    """Equal-width tubes whose directions sit on a uniform angle net.

    Tubes are stored as parallel arrays: axis angle in [0, pi) and signed
    axis offset (the axis is {p . n(angle) = offset}).
    """

    angles: np.ndarray
    offsets: np.ndarray
    width: float
    direction_net_step: float
    scale: float
    label: str = ""

    def __post_init__(self):
        self.angles = np.ascontiguousarray(np.asarray(self.angles, dtype=np.float64)).reshape(-1)
        self.offsets = np.ascontiguousarray(np.asarray(self.offsets, dtype=np.float64)).reshape(-1)
        if self.angles.shape != self.offsets.shape:
            raise PreconditionError("angle and offset arrays differ in length")
        if not (self.width > 0.0):
            raise PreconditionError(f"width {self.width!r} must be positive")
        if not (0.0 < self.scale <= 1.0):
            raise PreconditionError(f"scale {self.scale!r} outside (0, 1]")
        if self.angles.size > 16.0 / self.scale ** 2:
            raise InvariantViolation(
                f"{self.angles.size} tubes exceed 16 * scale^-2 at scale {self.scale!r}"
            )

    def __len__(self) -> int:
        return int(self.angles.size)

    @functools.cached_property
    def _column_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Members in stable column order (column = round(angle / step)),
        the distinct columns, and where each one starts in that order.
        Built on the first probe, so a family never probed pays nothing."""
        with np.errstate(divide="ignore", invalid="ignore"):
            col = self.angles / self.direction_net_step
            col = np.round(col, out=col).astype(np.int64)
        order = np.argsort(col, kind="stable")
        col = col[order]
        new = np.ones(col.size, dtype=bool)
        np.not_equal(col[1:], col[:-1], out=new[1:])
        return order, col[new], np.append(np.flatnonzero(new), col.size)

    def _column_members(self, lo: int, hi: int) -> np.ndarray:
        """Indices of the members whose column lies in [lo, hi]."""
        order, values, starts = self._column_index
        i = np.searchsorted(values, lo, side="left")
        j = np.searchsorted(values, hi, side="right")
        return order[starts[i]:starts[j]]


def uniform_tube_family(r: float) -> TubeFamily:
    """Width-2r tubes on an angle net finer than r/2, with parallel tubes
    r apart on alternating half-step phases.

    Covers every width-r probe tube whose axis passes within 1 - 2r of the
    origin: some family member contains the probe's intersection with the
    unit disc. The family size sits between r^-2 / 4 and 16 r^-2.
    """
    if not (_R_MIN * (1 - 1e-9) <= r <= _R_MAX * (1 + 1e-9)):
        raise PreconditionError(f"scale {r!r} outside [2^-14, 2^-2]")
    m_cols = 2 * math.ceil(1.1 * math.pi / r)
    step = math.pi / m_cols
    # even columns hold the offsets of phase 0, odd ones those of phase 1/2
    rows = [(np.arange(math.ceil((-1.0 - 1e-12) / r - phase),
                       math.floor((1.0 + 1e-12) / r - phase) + 1) + phase) * r
            for phase in (0.0, 0.5)]
    sizes = np.tile([rows[0].size, rows[1].size], m_cols // 2)
    fam = TubeFamily(
        np.repeat(np.arange(m_cols) * step, sizes),
        np.tile(np.concatenate(rows), m_cols // 2),
        width=2.0 * r, direction_net_step=step, scale=r,
        label=f"uniform r={r!r}",
    )
    if not (0.25 / r ** 2 <= len(fam) <= 16.0 / r ** 2):
        raise InvariantViolation(
            f"uniform family size {len(fam)} outside [r^-2/4, 16 r^-2]"
        )
    return fam


def _max_dist_to_line(theta_p, d_p, halfwidth, theta_f, d_f) -> np.ndarray:
    """Exact maximum over (probe slab ∩ unit disc) of the distance to the
    family axis, vectorized over family candidates.

    In the probe frame (u along the probe axis, v across it) the distance
    to a candidate axis is |a u + b v - d_f| with a = sin(dtheta) and
    b = cos(dtheta); for fixed v the best u gives
    g(v) = |a| sqrt(1 - v^2) + |b v - d_f|,
    and g is maximized at an interval endpoint or at v = +-b.
    """
    a = np.sin(theta_p - theta_f)
    b = np.cos(theta_p - theta_f)
    v0 = max(-1.0, d_p - halfwidth)
    v1 = min(1.0, d_p + halfwidth)
    if v0 > v1:
        raise PreconditionError("probe tube misses the unit disc")

    def g(v):
        return np.abs(a) * np.sqrt(np.maximum(0.0, 1.0 - v * v)) + np.abs(b * v - d_f)

    best = np.maximum(g(np.full_like(a, v0)), g(np.full_like(a, v1)))
    for crit in (b, -b):
        c = np.clip(crit, v0, v1)
        best = np.maximum(best, g(c))
    return best


def containment_multiplicity(fam: TubeFamily, theta_p: float, d_p: float) -> int:
    """How many family members contain the probe tube's intersection with
    the closed unit disc. Exact: candidate members are cut down by proved
    necessary conditions, then checked with the closed-form maximum.
    """
    h = fam.scale / 2.0
    if abs(d_p) >= 1.0:
        raise PreconditionError("probe axis misses the open unit disc")
    chord = 2.0 * math.sqrt(max(1e-300, 1.0 - d_p * d_p))
    # containment forces the two axis-chord endpoints inside the member,
    # hence |sin(angle gap)| <= width / chord
    sin_win = min(1.0, fam.width / chord + 1e-9)
    ang_win = math.asin(sin_win)
    step = fam.direction_net_step
    k_star = round(theta_p / step)
    j_span = int(math.ceil(ang_win / step)) + 1
    m_cols = int(round(math.pi / step))
    if m_cols < 1:
        raise PreconditionError(f"direction net step {step!r} leaves no column in [0, pi)")
    # the window's columns mod m_cols: one or two runs of [0, m_cols), or all
    k_lo, k_hi = k_star - j_span, k_star + j_span
    if k_hi - k_lo + 1 >= m_cols:
        runs = [(0, m_cols - 1)]
    elif k_lo % m_cols <= k_hi % m_cols:
        runs = [(k_lo % m_cols, k_hi % m_cols)]
    else:
        runs = [(k_lo % m_cols, m_cols - 1), (0, k_hi % m_cols)]
    idx = np.concatenate([fam._column_members(a, b) for a, b in runs])
    if idx.size == 0:
        return 0
    th = fam.angles[idx]
    # containment forces the probe's mid-chord point inside the member
    mid = d_p * np.array([-math.sin(theta_p), math.cos(theta_p)])
    mid_gap = line_residuals(mid, th, fam.offsets[idx])[0]
    idx = idx[mid_gap <= fam.width / 2.0 + 1e-9]
    if idx.size == 0:
        return 0
    dist = _max_dist_to_line(theta_p, d_p, h, fam.angles[idx], fam.offsets[idx])
    return int((dist <= fam.width / 2.0 + _CONTAIN_TOL).sum())


def sample_probe_tubes(r: float, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random width-r probe tubes meeting the unit disc well inside its
    boundary: uniform angle, axis offset uniform in [-(1-2r), 1-2r]."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, math.pi, size=count)
    offsets = rng.uniform(-(1.0 - 2.0 * r), 1.0 - 2.0 * r, size=count)
    return angles, offsets


def heaviest_tube(m: WeightedMeasure, through: Point, width: float,
                  restrict_to=None) -> tuple[Tube, float]:
    """The heaviest width-net tube through a point, counting only the
    support points where the bool row restrict_to holds, if given.

    Directions run over the uniform net of step = width starting at angle 0;
    each tube's count is an exact integer sum, and ties break toward the
    smallest angle.
    """
    if not (m.support.delta * (1.0 - 1e-12) <= width < math.inf):
        raise PreconditionError(
            f"width {width!r} not finite or below the resolution {m.support.delta!r}"
        )
    n_dir = int(math.ceil(math.pi / width))
    # float sums of counts are exact below 2^53
    c = m.counts.astype(np.float64)
    if restrict_to is not None:
        c = np.where(restrict_to, c, 0.0)
    # centred at the through-point, every candidate axis has offset 0
    rel = m.support.points - np.array([through.x, through.y])
    best_count = -1.0
    best_j = 0
    block = max(1, (1 << 24) // max(1, len(m)))
    for j0 in range(0, n_dir, block):
        ang = np.arange(j0, min(n_dir, j0 + block)) * width
        perp = line_residuals(rel, ang, np.zeros(ang.size))
        counts = c @ (perp <= width / 2.0 + _CONTAIN_TOL)
        jloc = int(np.argmax(counts))
        if counts[jloc] > best_count:
            best_count = float(counts[jloc])
            best_j = j0 + jloc
    angle = best_j * width
    axis = Line.from_angle_offset(
        angle, through.x * -math.sin(angle) + through.y * math.cos(angle)
    )
    return Tube(axis, width), best_count / m.total


@dataclass
class ThinTubeAudit:
    """Outcome of the tube-mass audit for a pair of measures."""

    sigma: float
    k_constant: float
    c_mass: float
    passed: bool
    worst_ratio: float
    worst_tube: Optional[Tube]
    witness_x: Optional[Point]
    g_indicator: np.ndarray
    widths_tested: tuple

    def as_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "k_constant": self.k_constant,
            "c_mass": self.c_mass,
            "pass": self.passed,
            "worst_ratio": self.worst_ratio,
            "worst_tube": None if self.worst_tube is None else {
                "angle": self.worst_tube.axis.angle,
                "offset": self.worst_tube.axis.offset(),
                "width": self.worst_tube.width,
            },
            "witness_x": None if self.witness_x is None else
                [self.witness_x.x, self.witness_x.y],
            "widths_tested": list(self.widths_tested),
            "g_kept_fraction": float(self.g_indicator.mean()),
        }


def _positive_separation(mu: WeightedMeasure, nu: WeightedMeasure,
                         reach: float) -> float:
    """Least distance between the positive-mass points of the two
    measures (each has one, as its counts total at least 1); exact when
    below reach, and at least reach otherwise."""
    a = mu.support.points[mu.counts > 0]
    b = nu.support.points[nu.counts > 0]
    least = math.inf
    for _, _, d2 in NearSweep(b, a, reach):
        least = min(least, float(d2.min(initial=math.inf)))
    return math.sqrt(least)


def thin_tube_audit(mu: WeightedMeasure, nu: WeightedMeasure, sigma: float,
                    k_constant: float = 1.0, shrink: bool = False) -> ThinTubeAudit:
    """Check that every dyadic tube through the first measure's support
    carries second-measure mass at most k_constant * width^sigma.

    The supports must be separated by at least four times the coarser
    resolution. With shrink=True the audit greedily deletes the offending
    tube's points from the witness set until it passes, reporting the
    surviving product mass as c_mass.
    """
    if not (0.0 <= sigma <= 2.0):
        raise PreconditionError(f"sigma {sigma!r} outside [0, 2]")
    if not (0.0 < k_constant < math.inf):
        raise PreconditionError(f"k_constant {k_constant!r} must be positive and finite")
    need = 4.0 * max(mu.support.delta, nu.support.delta)
    gap = _positive_separation(mu, nu, need)
    if gap < need * (1.0 - 1e-12):
        raise SeparationViolated(
            f"supports are {gap!r} apart, need at least {need!r}"
        )
    levels = range(0, level_of(nu.support.delta) + 1)
    widths = tuple(2.0 ** -lv for lv in levels)
    xs = np.nonzero(mu.counts > 0)[0]
    g = np.ones((len(mu), len(nu)), dtype=bool)

    def row_scan(i):
        """Worst (ratio, width, tube) over dyadic widths for center i."""
        x = Point(*mu.support.points[i])
        worst = (-1.0, None, None)
        for width in widths:
            tube, mass = heaviest_tube(nu, x, width, restrict_to=g[i])
            ratio = mass / (k_constant * width ** sigma)
            if ratio > worst[0]:
                worst = (ratio, width, tube)
        return worst

    per_x = {int(i): row_scan(int(i)) for i in xs}

    if shrink:
        while True:
            i_star = max(per_x, key=lambda i: per_x[i][0])
            ratio, width, tube = per_x[i_star]
            if ratio <= 1.0:
                break
            inside = line_residuals(nu.support.points, tube.axis.angle,
                                    tube.axis.offset())[:, 0] \
                <= tube.width / 2.0 + _CONTAIN_TOL
            if not np.any(inside & g[i_star]):
                raise InvariantViolation("offending tube holds no removable mass")
            g[i_star] &= ~inside
            per_x[i_star] = row_scan(i_star)

    worst_ratio = -1.0
    worst_tube = None
    witness = None
    for i in (int(v) for v in xs):
        ratio, width, tube = per_x[i]
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_tube = tube
            witness = Point(*mu.support.points[i])
    c_mass = float(mu.weights @ (g @ nu.weights))
    return ThinTubeAudit(
        sigma, k_constant, c_mass, worst_ratio <= 1.0 + 1e-12,
        worst_ratio, worst_tube, witness, g, widths,
    )


def tube_mass_exponent(nu: WeightedMeasure, x: Point,
                       level_min: int, level_max: int) -> float:
    """Decay exponent of the heaviest tube mass through x across dyadic
    widths: the slope of -log2 max-mass against level."""
    _check_level_window(level_min, level_max, nu.support.delta)
    levels = []
    masses = []
    for lv in range(level_min, level_max + 1):
        _, mass = heaviest_tube(nu, x, 2.0 ** -lv)
        if mass > 0:
            levels.append(lv)
            masses.append(mass)
    if len(levels) < 2:
        return 0.0
    slope, _, _ = fit_log2_slope(np.array(levels, dtype=float), np.array(masses))
    return -slope


@dataclass(frozen=True)
class TubeSetCheck:
    """Separated-set verification outcome for a family of tubes."""

    passed: bool
    sigma: float
    constant: float
    worst_ratio: float
    worst_index: int
    worst_level: int

    def as_json(self) -> dict:
        return {
            "pass": self.passed,
            "sigma": self.sigma,
            "constant": self.constant,
            "worst_ratio": self.worst_ratio,
            "worst_index": self.worst_index,
            "worst_level": self.worst_level,
        }


def _anchors(angles: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis anchor coordinates (offset times the unit normal)."""
    return -offsets * np.sin(angles), offsets * np.cos(angles)


def _line_metric_cells(angles: np.ndarray, ax: np.ndarray, ay: np.ndarray,
                       scale: float) -> np.ndarray:
    """Line-metric cells, one row per line: the angle and the axis anchor,
    floored at the scale."""
    return np.column_stack((
        np.floor(np.ravel(angles) / scale).astype(np.int64),
        np.floor(np.ravel(ax) / scale).astype(np.int64),
        np.floor(np.ravel(ay) / scale).astype(np.int64),
    ))


def verify_tube_set(fam: TubeFamily, sigma: float, c: float) -> TubeSetCheck:
    """Check the covering-number growth of the tube family's axes in the
    line metric: |L ∩ B(axis, rho)|_r <= c * rho^sigma * |L|_r for every
    dyadic rho in [r, 1], with balls centered at each member axis."""
    if not (0.0 <= sigma <= 2.0):
        raise PreconditionError(f"sigma {sigma!r} outside [0, 2]")
    if not (1.0 <= c < math.inf):
        raise PreconditionError(f"constant {c!r} must be finite and at least 1")
    p = len(fam)
    if p == 0:
        raise EmptyInput("empty tube family")
    if p > _VERIFY_CAP:
        raise TooManyPoints(
            f"{p} tubes exceed the all-pairs verification budget {_VERIFY_CAP}"
        )
    r = fam.scale
    ax, ay = _anchors(fam.angles, fam.offsets)
    uniq, cell_ids = unique_rows(_line_metric_cells(fam.angles, ax, ay, r),
                                 return_inverse=True)
    total = uniq.shape[0]
    ang = fam.angles
    # levels finest first; ball radius rho = 2^-lv, members within rho + 1e-12
    top = level_of(r)
    reach = np.array([2.0 ** -lv + 1e-12 for lv in range(top, -1, -1)])
    norm = np.array([(2.0 ** -lv) ** sigma * total for lv in range(top, -1, -1)])
    cnt = np.empty((reach.size, p), dtype=np.int64)
    for i in range(p):
        dth = np.abs(ang - ang[i])
        dth = np.minimum(dth, math.pi - dth)
        dist = dth + np.hypot(ax - ax[i], ay - ay[i])
        order = np.argsort(dist, kind="stable")
        # distinct cells among the k nearest members, for every k
        first = np.zeros(p, dtype=np.int64)
        first[np.unique(cell_ids[order], return_index=True)[1]] = 1
        n_near = np.searchsorted(dist[order], reach, side="right")
        cnt[:, i] = np.cumsum(first)[n_near - 1]
    ratios = cnt / norm[:, None]
    # the first maximum, finest level first and lowest index, as a scan
    # keeping only strictly larger ratios would pick
    k, i = divmod(int(np.argmax(ratios)), p)
    worst = float(ratios[k, i])
    return TubeSetCheck(worst <= c * (1.0 + 1e-9), sigma, c, worst, i, top - k)


@dataclass
class FuRenInstance:
    """A product-set tube-count instance: two point sets at a common
    resolution and, for each point of the first, a family of tubes
    through it."""

    p_x: DiscreteSet
    p_y: DiscreteSet
    tube_map: dict
    s: float
    t: float
    sigma: float
    zeta: float
    eta: float

    def __post_init__(self):
        if abs(self.p_x.delta - self.p_y.delta) > 1e-15:
            raise PreconditionError("the two point sets must share one resolution")
        for i, fam in self.tube_map.items():
            if not (0 <= int(i) < len(self.p_x)):
                raise PreconditionError(f"tube_map key {i!r} is not a point index")
            gap = line_residuals(self.p_x.points[int(i)], fam.angles, fam.offsets)
            if np.any(gap > fam.width / 2.0 + 1e-9):
                raise PreconditionError(
                    f"a tube attached to point {i} does not contain it"
                )

    @property
    def r(self) -> float:
        return self.p_x.delta


def fu_ren_audit(inst: FuRenInstance) -> dict:
    """Audit the tube-count hypotheses and report whether the claimed
    direction exponent is consistent with the implied lower bound
    s + t - 1 - zeta."""
    r = inst.r
    big_c = r ** -inst.eta
    failed = []
    if not verify_delta_s_set(inst.p_x, inst.s, big_c).passed:
        failed.append("p_x growth")
    if not verify_delta_s_set(inst.p_y, inst.t, big_c).passed:
        failed.append("p_y growth")
    if not inst.tube_map:
        failed.append("empty tube map")
    else:
        n_y = len(inst.p_y)
        floor = r ** (inst.sigma + inst.eta) * n_y
        pts = inst.p_y.points
        for i, fam in inst.tube_map.items():
            if not verify_tube_set(fam, inst.sigma, big_c).passed:
                failed.append(f"tube set at point {i}")
                continue
            counts = count_near_lines(pts, fam.angles, fam.offsets,
                                      fam.width / 2.0 + _CONTAIN_TOL)
            if np.any(counts < floor):
                failed.append(f"tube count at point {i}")
    met = not failed
    implied = inst.s + inst.t - 1.0 - inst.zeta
    return {
        "hypotheses_met": met,
        "failed": failed,
        "implied_bound": implied,
        "sigma": inst.sigma,
        "consistent": (not met) or (inst.sigma >= implied - 1e-12),
    }


def bootstrap_schedule(sigma: float, s: float, eps: float,
                       k_constant: float = 1.0,
                       frostman_constant: float = 1.0) -> dict:
    """Constant schedule for the tube-count bootstrap at a direction
    exponent sigma below a mass exponent s.

    Values r0, r1, r2 and k_prime routinely under- or overflow doubles,
    so their base-2 logarithms are reported alongside.
    """
    if not (0.0 < sigma < s <= 2.0):
        raise PreconditionError("need 0 < sigma < s <= 2")
    if not (0.0 < eps < 0.1):
        raise PreconditionError(f"eps {eps!r} outside (0, 0.1)")
    if not (1.0 <= k_constant < math.inf and 1.0 <= frostman_constant < math.inf):
        raise PreconditionError("constants must be finite and at least 1")
    gap = s - sigma
    eta = min(eps, gap / 4.0, 0.5 * (gap / (14.0 - 8.0 * gap)) ** 2)
    kappa = 14.0 * eta / gap
    log2_r2 = (math.log2(eta * eps) - 2.0) / eta
    bound1 = -math.log2(6.0 * frostman_constant) / eta
    e1 = math.floor(bound1)
    if e1 == bound1:
        e1 -= 1  # strictly below the threshold scale
    log2_r1 = float(e1)
    log2_r0 = min(-math.log2(k_constant) / eta, log2_r1, log2_r2)
    log2_kp = max(math.log2(k_constant) / eta, -log2_r2,
                  -(sigma + eta) * log2_r0)

    def _exp2(v: float) -> float:
        return float(np.exp2(v))

    with np.errstate(over="ignore", under="ignore"):
        return {
            "sigma": sigma, "s": s, "eps": eps,
            "k_constant": k_constant, "frostman_constant": frostman_constant,
            "eta": eta, "kappa": kappa,
            "log2_r0": log2_r0, "log2_r1": log2_r1, "log2_r2": log2_r2,
            "log2_k_prime": log2_kp,
            "r0": _exp2(log2_r0), "r1": _exp2(log2_r1), "r2": _exp2(log2_r2),
            "k_prime": _exp2(log2_kp),
        }
