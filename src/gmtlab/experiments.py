"""Desk-scale experiments tying the pieces together: radial direction-set
dimension profiles, the dimension of the spanned-line set, line-removal
robustness, union tube counting over random pencils, and the exceptional
directions of orthogonal projections."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .covering import (
    DimensionEstimate,
    box_dimension,
    circle_box_dimension,
    fit_log2_slope,
    verify_delta_s_set,
)
from .dyadic import MAX_LEVEL, level_of, quota_tree, unique_rows
from .errors import (
    AllCollinear,
    AllMassAtCenter,
    CollinearX,
    ConfigInvalid,
    LowDimY,
    PreconditionError,
    ScaleRangeTooNarrow,
)
from .generators import DiscreteSet, gen_random_delta_s_set
from .geometry import Point, line_residuals
from .incidence import spanned_lines
from .tubes import TubeFamily, _anchors, _line_metric_cells, verify_tube_set

_LINE_TOL = 1e-9
# constant-target exponent for the generated set in furstenberg_count
X_CONSTANT_EXPONENT = 0.05
# SeedSequence works in 32-bit words
_M32 = 0xFFFFFFFF


class Target(enum.Enum):
    """Which inequality an experiment run is aimed at."""

    KAUFMAN11 = "kaufman11"
    FALCONER12 = "falconer12"
    BECKCOR13 = "beckcor13"
    ERDOSBECK = "erdosbeck"

    @classmethod
    def parse(cls, name: str) -> "Target":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigInvalid(
                f"unknown target {name!r}; choose from "
                f"{sorted(t.value for t in cls)}"
            ) from None


@dataclass
class ExperimentSpec:
    """Inputs for a radial profile run: the center pool, the projected
    set, how many centers to try, and the regression level window."""

    x_set: DiscreteSet
    y_set: DiscreteSet
    x_sample: int = 32
    scale_levels: tuple = (2, 8)
    target: Target = Target.KAUFMAN11

    def __post_init__(self):
        if self.x_sample < 1:
            raise PreconditionError(f"x_sample {self.x_sample!r} must be >= 1")
        lo, hi = self.scale_levels
        if hi - lo < 3:
            raise ScaleRangeTooNarrow(
                f"scale_levels {self.scale_levels!r} must span at least 3 levels"
            )


@dataclass
class ExperimentResult:
    best_x: Point
    best_dimension: DimensionEstimate
    predicted_lower_bound: float
    margin: float
    per_x_table: list
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if not math.isfinite(self.margin):
            raise PreconditionError(f"margin {self.margin!r} is not finite")

    def as_json(self) -> dict:
        return {
            "best_x": [self.best_x.x, self.best_x.y],
            "best_dimension": self.best_dimension.slope,
            "level_range": list(self.best_dimension.level_range),
            "predicted_lower_bound": self.predicted_lower_bound,
            "margin": self.margin,
            "per_x_table": [
                {"x": p.x, "y": p.y, "slope": s} for p, s in self.per_x_table
            ],
            "warnings": list(self.warnings),
        }


def _clamped_window(levels: tuple, delta: float) -> tuple[int, int]:
    """Pull a requested level window up so it never probes below delta."""
    lo, hi = levels
    hi = min(hi, level_of(delta))
    lo = min(lo, max(0, hi - 3))
    if hi - lo < 3:
        raise ScaleRangeTooNarrow(
            f"window {levels!r} cannot span 3 levels above delta={delta!r}"
        )
    return lo, hi


def farthest_point_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Deterministic farthest-point sample: start at index 0, repeatedly
    add the point farthest from the chosen set (first max on ties)."""
    n = points.shape[0]
    k = min(k, n)
    chosen = [0]
    dist = np.hypot(points[:, 0] - points[0, 0], points[:, 1] - points[0, 1])
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        if dist[nxt] <= 0.0:
            break
        chosen.append(nxt)
        d2 = np.hypot(points[:, 0] - points[nxt, 0], points[:, 1] - points[nxt, 1])
        np.minimum(dist, d2, out=dist)
    return np.array(chosen, dtype=np.int64)


def all_collinear(points: np.ndarray, tol: float = _LINE_TOL) -> bool:
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] <= 2:
        return True
    base = pts[0]
    gaps = np.hypot(pts[:, 0] - base[0], pts[:, 1] - base[1])
    j = int(np.argmax(gaps))
    if gaps[j] <= tol:
        return True
    d = (pts[j] - base) / gaps[j]
    perp = np.abs(-(pts[:, 0] - base[0]) * d[1] + (pts[:, 1] - base[1]) * d[0])
    return bool(np.max(perp) <= tol)


def direction_intervals(y: DiscreteSet, x: Point) -> tuple[np.ndarray, np.ndarray]:
    """Angular intervals subtended at x by the set's resolution cells: the
    directions of the two tangents from x to the disc of radius delta about
    each point, as lower and upper edges (upper >= lower, within 2 pi).
    Points closer than twice the resolution are dropped, as in the measure
    pushforward."""
    dx = y.points[:, 0] - x.x
    dy = y.points[:, 1] - x.y
    keep = np.hypot(dx, dy) >= 2.0 * y.delta * (1.0 - 1e-12)
    if not keep.any():
        raise AllMassAtCenter(
            f"every point of the projected set sits within 2 delta of "
            f"({x.x:g}, {x.y:g})"
        )
    if not keep.all():
        dx, dy = dx[keep], dy[keep]
    rho = y.delta
    dx_rho, dy_rho = dx * rho, dy * rho
    # d = (dx, dy) turned by -/+ asin(rho / |d|), scaled by |d|: an edge that
    # is exactly axis-aligned comes out exactly, where centre -/+ halfwidth
    # would not. The buffers are reused; each edge is the same expression in
    # the same order, so the edges do not depend on the reuse.
    tangent = dx * dx
    tangent += dy * dy
    tangent -= rho * rho
    np.sqrt(tangent, out=tangent)
    num, den = dy * tangent, dx * tangent
    num -= dx_rho
    den += dy_rho
    lower = np.arctan2(num, den)
    np.multiply(dy, tangent, out=num)
    np.multiply(dx, tangent, out=den)
    num += dx_rho
    den -= dy_rho
    upper = np.arctan2(num, den, out=num)
    lower[upper < lower] -= 2.0 * math.pi
    return lower, upper


def radial_dimension_profile(spec: ExperimentSpec) -> ExperimentResult:
    """Search sampled centers x for the largest direction-set dimension
    of the projected set, and compare against the predicted floor.

    The floor is min(dim X, dim Y, 1) for the non-collinear-centers
    variant and min(dim X + dim Y - 1, 1) for the high-dimensional-Y
    variant (which needs dim Y > 1.05).  Directions are counted as the
    angular intervals the resolution cells subtend, so the estimate
    reflects the discretized set rather than a point sample of it.
    """
    if spec.target not in (Target.KAUFMAN11, Target.FALCONER12):
        raise ConfigInvalid(
            f"radial_dimension_profile handles kaufman11/falconer12, "
            f"got {spec.target.value!r}"
        )
    dim_x = box_dimension(spec.x_set, *_clamped_window(spec.scale_levels, spec.x_set.delta))
    dim_y = box_dimension(spec.y_set, *_clamped_window(spec.scale_levels, spec.y_set.delta))
    if spec.target is Target.KAUFMAN11:
        if all_collinear(spec.x_set.points):
            raise CollinearX("center pool lies on a single line")
        predicted = min(dim_x.slope, dim_y.slope, 1.0)
    else:
        if dim_y.slope <= 1.05:
            raise LowDimY(
                f"projected set has box dimension {dim_y.slope:.3f} <= 1.05"
            )
        predicted = min(dim_x.slope + dim_y.slope - 1.0, 1.0)

    lo, hi = spec.scale_levels
    warnings: list = []
    table: list = []
    best_point = None
    best_est = None
    for idx in farthest_point_indices(spec.x_set.points, spec.x_sample):
        x = Point(*spec.x_set.points[idx])
        try:
            lower, upper = direction_intervals(spec.y_set, x)
        except AllMassAtCenter:
            warnings.append(
                f"center ({x.x:g}, {x.y:g}) swallows the entire projected set"
            )
            table.append((x, 0.0))
            continue
        est = circle_box_dimension(lower, lo, hi, upper)
        table.append((x, est.slope))
        if best_est is None or est.slope > best_est.slope:
            best_point = x
            best_est = est
    if best_point is None:
        best_point = Point(*spec.x_set.points[0])
        best_est = DimensionEstimate(0.0, 0.0, (lo, hi), 1.0, ())
    return ExperimentResult(
        best_point, best_est, predicted,
        best_est.slope - predicted, table, warnings,
    )


def line_set_dimension(x: DiscreteSet) -> DimensionEstimate:
    """Box dimension of the spanned-line set in the (angle, offset) chart.

    The chart is bilipschitz to the line metric on each half of the
    angle range, so the box dimension agrees with the metric one.
    """
    ls = spanned_lines(x)
    if len(ls) == 1:
        raise AllCollinear("every point lies on one spanned line")
    angles, offsets = ls.angle_offset_arrays()
    chart = np.stack([angles, offsets], axis=1)
    # spanned-line counts are cardinality-starved at depth (only about
    # n^2/2 lines exist), so the regression stays at mesoscales
    hi = min(5, level_of(x.delta))
    lo = max(0, hi - 3)
    return box_dimension(chart, lo, hi, delta=x.delta)


def erdos_beck_profile(x: DiscreteSet, t: float) -> dict:
    """Measure how far the spanned-line dimension sits above the floor
    min(2 dim X - 2 t, 2), where t is realized as the largest drop in
    box dimension over removal of a single heavy spanned line."""
    if not (0.0 <= t <= 2.0):
        raise PreconditionError(f"t {t!r} outside [0, 2]")
    if all_collinear(x.points):
        raise AllCollinear("every point lies on one line")
    hi = level_of(x.delta)
    lo = 2 if hi >= 5 else 0
    dim_x = box_dimension(x, lo, hi)
    ls = spanned_lines(x)
    order = np.argsort(-ls.point_counts, kind="stable")[:16]
    angles, offsets = ls.angle_offset_arrays()
    pts = x.points
    worst_rem = dim_x.slope
    for dist in line_residuals(pts, angles[order], offsets[order]).T:
        kept = pts[dist > _LINE_TOL]
        if kept.shape[0] < 2 or all_collinear(kept):
            rem = 0.0
        else:
            rem = box_dimension(kept, lo, hi, delta=x.delta).slope
        worst_rem = min(worst_rem, rem)
    t_achieved = max(0.0, dim_x.slope - worst_rem)
    measured = line_set_dimension(x)
    out = {
        "predicted": min(2.0 * dim_x.slope - 2.0 * t_achieved, 2.0),
        "measured": measured.slope,
        "t_achieved": t_achieved,
        "dim_x": dim_x.slope,
        "hypothesis_t": t,
        "warnings": [],
    }
    if t_achieved > t + 0.05:
        out["warnings"].append(
            f"achieved line-removal drop {t_achieved:.3f} exceeds the "
            f"hypothesis t={t:g}"
        )
    return out


@functools.cache
def _state_words() -> type:
    """A seed sequence whose state words are already computed. It is made
    on first use: numpy loads numpy.random lazily, and `import gmtlab.cli`
    stays without it."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _seed_words(seed) -> list:
    """SeedSequence's 32-bit entropy words of an integer seed, lowest
    first, refused with the errors SeedSequence raises."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be integer")
    n = int(seed)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _pencil_rngs(seed_words: list, start: int, stop: int) -> list:
    """Generator(PCG64(SeedSequence((seed, i)))) for i in [start, stop),
    with SeedSequence's pool mixing run over every i at once in uint32
    arithmetic (i < 2^32, so every entropy has the same length and every
    lane the same hash constants); PCG64 seeds itself from the four
    state words as it would from the SeedSequence."""
    idx = np.arange(start, stop, dtype=np.uint32)
    entropy = [np.full_like(idx, w) for w in seed_words] + [idx]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * 0x931E8875 & _M32
        v *= np.uint32(h)
        return v ^ (v >> 16)

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ (r >> 16)

    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros_like(idx))
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = 0x8B51F9DD
    state = np.empty((len(idx), 8), dtype="<u4")
    for k in range(8):
        v = pool[k % 4] ^ np.uint32(h)
        h = h * 0x58F38DED & _M32
        v *= np.uint32(h)
        state[:, k] = v ^ (v >> 16)
    seq = _state_words()
    return [np.random.Generator(np.random.PCG64(seq(words)))
            for words in state.view("<u8").astype(np.uint64, copy=False)]


def furstenberg_count(sigma: float, s: float, delta: float, seed: int,
                      x_set: Optional[DiscreteSet] = None) -> dict:
    """Union covering number, in the line metric, of random direction
    pencils through every point of a spread-out set.

    Reports the count against the classical floor delta^(-2 sigma); the
    asymptotic gain beyond that floor is swamped by constants at desk
    scale, so only the floor ratio is reported, never asserted sharp.
    A supplied x_set must be at resolution delta. Pencil i's angles come
    from the stream PCG64(SeedSequence((seed, i))), seeded a block of
    pencils at a time; pencil 0's direction regularity is always checked.
    """
    if not (0.0 < sigma < 1.0):
        raise PreconditionError(f"sigma {sigma!r} outside (0, 1)")
    if not (sigma < s < 2.0):
        raise PreconditionError(f"s {s!r} outside (sigma, 2)")
    if not (2.0 ** -12 - 1e-15 <= delta <= 2.0 ** -4 + 1e-15):
        raise PreconditionError(f"delta {delta!r} outside [2^-12, 2^-4]")
    lv = level_of(delta)
    warnings: list = []
    if x_set is None:
        x_set = gen_random_delta_s_set(s, delta, seed)
        target_c = delta ** -X_CONSTANT_EXPONENT
        if 16.0 > target_c:
            warnings.append(
                f"generator regularity constant 16 exceeds the target "
                f"delta^-{X_CONSTANT_EXPONENT:g} = {target_c:.2f} at this scale"
            )
    else:
        if abs(x_set.delta - delta) > 1e-15:
            raise PreconditionError(
                f"supplied point set has resolution {x_set.delta:g}, not "
                f"delta = {delta:g}"
            )
        chk = verify_delta_s_set(x_set, s, 16.0)
        if not chk.passed:
            raise PreconditionError(
                f"supplied point set is not ({delta:g}, {s:g})-regular at "
                f"constant 16 (worst ratio {chk.worst_ratio:.2f})"
            )
    words = _seed_words(seed)
    step = math.pi * 2.0 ** -lv
    pts = x_set.points
    block = max(1, (1 << 18) >> lv)
    # the union so far, and the distinct cells of the blocks since, merged
    # into it once they hold more than twice its rows
    union, pending = np.empty((0, 3), dtype=np.int64), []
    for b0 in range(0, len(pts), block):
        rngs = _pencil_rngs(words, b0, min(len(pts), b0 + block))
        angles = (quota_tree(sigma, lv, rngs, dim=1)[..., 0] + 0.5) * step
        xy = pts[b0:b0 + len(rngs)]
        offsets = -xy[:, :1] * np.sin(angles) + xy[:, 1:] * np.cos(angles)
        if b0 == 0:
            pencil = TubeFamily(angles[0], offsets[0], width=delta,
                                direction_net_step=step, scale=delta,
                                label="pencil 0")
            chk = verify_tube_set(pencil, sigma, 16.0)
            if not chk.passed:
                warnings.append(
                    f"pencil 0 misses the direction-regularity target "
                    f"(worst ratio {chk.worst_ratio:.2f} > 16)"
                )
        pending.append(unique_rows(
            _line_metric_cells(angles, *_anchors(angles, offsets), delta)))
        if sum(map(len, pending)) > 2 * len(union):
            union, pending = unique_rows(np.concatenate([union, *pending])), []
        pencil_size = angles.shape[1]
    count = len(unique_rows(np.concatenate([union, *pending])) if pending else union)
    wolff_floor = delta ** (-2.0 * sigma)
    return {
        "count": count,
        "wolff_floor": wolff_floor,
        "ratio": count / wolff_floor,
        "n_points": len(x_set),
        "mean_pencil_size": float(pencil_size),
        "warnings": warnings,
    }


def orthogonal_exceptional_profile(y: DiscreteSet, sigma: float) -> dict:
    """Directions whose orthogonal projection of the set drops below
    dimension sigma, plus the dimension of that direction set.

    Directions run over multiples of pi * 2^-10 so axis-aligned collapse
    directions are represented exactly.  Each projection is rescaled to
    unit diameter before box counting; a projection of zero diameter
    counts as dimension 0.
    """
    dim_y = box_dimension(y, *_clamped_window((2, MAX_LEVEL), y.delta)).slope
    if not (-math.inf < sigma <= min(dim_y, 1.0) - 0.1 + 1e-9):
        raise PreconditionError(
            f"sigma {sigma!r} is not finite or above min(dim Y, 1) - 0.1 = "
            f"{min(dim_y, 1.0) - 0.1:.3f}"
        )
    n_dir = 1 << 10
    theta = np.arange(n_dir) * (math.pi / n_dir)
    e = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    proj = y.points @ e.T
    span = proj.max(axis=0) - proj.min(axis=0)
    flat = span < 1e-12
    scaled = (proj - proj.min(axis=0)) / np.where(flat, 1.0, span)
    scaled.sort(axis=0)
    lv_lo, lv_hi = _clamped_window((2, 8), y.delta)
    levels = np.arange(lv_lo, lv_hi + 1, dtype=float)
    counts = np.empty((levels.size, n_dir))
    for k, lv in enumerate(range(lv_lo, lv_hi + 1)):
        bins = np.floor(scaled * 2.0 ** lv)
        counts[k] = 1 + (np.diff(bins, axis=0) > 0).sum(axis=0)
    slopes, _, _ = fit_log2_slope(levels, counts)
    slopes = np.where(flat, 0.0, slopes)
    exceptional = theta[slopes < sigma]
    if exceptional.size == 0:
        measured = 0.0
    else:
        measured = circle_box_dimension(exceptional, 2, 8).slope
    return {
        "exceptional_directions": exceptional,
        "measured_dim": measured,
        "n_exceptional": int(exceptional.size),
        "direction_count": n_dir,
        "sigma": sigma,
        "dim_y": dim_y,
        "projection_dims": slopes,
    }
