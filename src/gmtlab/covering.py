"""Dyadic covering counts, box dimension, content, and regularity checks.

All covers use origin-anchored dyadic squares: level L squares have side
2^-L.  Dimension estimates are least-squares slopes of log2 covering
count against level, restricted to a caller-chosen level window so that
the regression never probes below a set's own resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dyadic import MAX_LEVEL, cell_indices, count_cells, is_dyadic, level_of, quota_child_counts
from .errors import (
    EmptyInput,
    InvariantViolation,
    PreconditionError,
    ScaleRangeTooNarrow,
)
from .generators import DiscreteSet, as_points
from .geometry import Point


def covering_number(obj, level: int) -> int:
    """Occupied origin-anchored dyadic squares of side 2^-level."""
    if not (0 <= level <= MAX_LEVEL):
        raise PreconditionError(f"level {level!r} outside [0, {MAX_LEVEL}]")
    pts = as_points(obj)
    if pts.shape[0] == 0:
        raise EmptyInput("covering_number needs at least one point")
    return count_cells(pts, 2.0 ** -level)


def per_scale_counts(obj, level_min: int, level_max: int) -> list[tuple[int, int]]:
    return [(lv, covering_number(obj, lv)) for lv in range(level_min, level_max + 1)]


@dataclass(frozen=True)
class DimensionEstimate:
    slope: float
    intercept: float
    level_range: tuple[int, int]
    r_squared: float
    counts: tuple  # of (level, covering number)

    def __post_init__(self) -> None:
        if not (-0.1 <= self.slope <= 2.1):
            raise InvariantViolation(
                f"box-dimension slope {self.slope:.4f} outside the plausible band [-0.1, 2.1]"
            )


def fit_log2_slope(levels: np.ndarray, values: np.ndarray):
    """Least-squares slope/intercept/r^2 of log2(values) against level.

    values of shape (L,) give three floats; values of shape (L, k) give
    three length-k arrays, one fit per column.
    """
    x = np.asarray(levels, dtype=float)
    y = np.log2(np.asarray(values, dtype=float))
    xm, ym = x.mean(), y.mean(axis=0)
    sxx = float(np.sum((x - xm) ** 2))
    slope = (x - xm) @ (y - ym) / sxx
    intercept = ym - slope * xm
    res = y - (slope * (x if y.ndim == 1 else x[:, None]) + intercept)
    ss_tot = np.sum((y - ym) ** 2, axis=0)
    ss_res = np.sum(res ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot < 1e-15, 1.0, np.maximum(0.0, 1.0 - ss_res / ss_tot))
    if y.ndim == 1:
        return float(slope), float(intercept), float(r2)
    return slope, intercept, r2


def _check_level_window(level_min: int, level_max: int, delta: Optional[float]) -> None:
    if not (0 <= level_min < level_max <= MAX_LEVEL):
        raise PreconditionError(
            f"level window [{level_min}, {level_max}] outside [0, {MAX_LEVEL}]"
        )
    if level_max - level_min < 3:
        raise ScaleRangeTooNarrow(
            f"need at least 3 levels between {level_min} and {level_max}"
        )
    if delta is not None and 2.0 ** -level_max < delta - 1e-12:
        raise PreconditionError(
            f"level {level_max} probes below the set resolution delta={delta!r}"
        )


def box_dimension(obj, level_min: int, level_max: int,
                  delta: Optional[float] = None) -> DimensionEstimate:
    """Box-counting dimension over a dyadic level window.

    The window must span at least three levels and must not descend
    below the set's resolution (its delta, when one is known).
    """
    if isinstance(obj, DiscreteSet) and delta is None:
        delta = obj.delta
    _check_level_window(level_min, level_max, delta)
    pts = as_points(obj)
    counts = per_scale_counts(pts, level_min, level_max)
    levels = np.array([c[0] for c in counts], dtype=float)
    values = np.array([c[1] for c in counts], dtype=float)
    slope, intercept, r2 = fit_log2_slope(levels, values)
    return DimensionEstimate(slope, intercept, (level_min, level_max), r2, tuple(counts))


def circle_covering_number(angles, level: int, halfwidths=None) -> int:
    """Occupied arcs after level dyadic halvings of the full circle
    (2^level arcs, each of width 2 pi 2^-level).

    With halfwidths given, each angle stands for a closed angular
    interval and every arc the interval meets counts as occupied.
    """
    if not (0 <= level <= MAX_LEVEL):
        raise PreconditionError(f"level {level!r} outside [0, {MAX_LEVEL}]")
    a = np.asarray(angles, dtype=float).reshape(-1)
    if a.size == 0:
        raise EmptyInput("circle_covering_number needs at least one angle")
    n_arcs = 1 << level
    two_pi = 2.0 * math.pi
    if halfwidths is None:
        bins = np.floor(np.mod(a, two_pi) / two_pi * n_arcs).astype(np.int64)
        return int(np.unique(bins).size)
    h = np.broadcast_to(np.asarray(halfwidths, dtype=float), a.shape)
    if np.any(h < 0.0):
        raise PreconditionError("interval halfwidths must be nonnegative")
    if np.any(h >= math.pi):
        return n_arcs
    lo = np.floor(np.mod(a - h, two_pi) / two_pi * n_arcs).astype(np.int64)
    spans = np.floor((a + h) / two_pi * n_arcs).astype(np.int64) \
        - np.floor((a - h) / two_pi * n_arcs).astype(np.int64)
    occupied = [lo]
    for k in range(1, int(spans.max()) + 1):
        sel = lo[spans >= k]
        if sel.size == 0:
            break
        occupied.append((sel + k) % n_arcs)
    bins = np.unique(np.concatenate(occupied))
    return int(min(bins.size, n_arcs))


def circle_box_dimension(angles, level_min: int, level_max: int,
                         halfwidths=None) -> DimensionEstimate:
    """Box-counting dimension of an angle set, using dyadic arcs."""
    _check_level_window(level_min, level_max, None)
    levels = np.arange(level_min, level_max + 1, dtype=float)
    values = np.array(
        [circle_covering_number(angles, lv, halfwidths)
         for lv in range(level_min, level_max + 1)],
        dtype=float,
    )
    slope, intercept, r2 = fit_log2_slope(levels, values)
    counts = tuple(zip(range(level_min, level_max + 1), values.astype(int).tolist()))
    return DimensionEstimate(slope, intercept, (level_min, level_max), r2, counts)


def hausdorff_content(a, s: float, level_cap: Optional[int] = None) -> float:
    """Greedy dyadic upper bound for the s-content.

    Minimum over levels from 0 down to the set's resolution of
    (occupied squares) * side^s.
    """
    if not (0.0 <= s <= 2.0):
        raise PreconditionError(f"s {s!r} outside [0, 2]")
    pts = as_points(a)
    if pts.shape[0] == 0:
        raise EmptyInput("hausdorff_content needs at least one point")
    deepest = level_of(a.delta) if isinstance(a, DiscreteSet) else MAX_LEVEL
    if level_cap is not None:
        deepest = min(deepest, level_cap)
    best = math.inf
    for lv in range(0, deepest + 1):
        side = 2.0 ** -lv
        best = min(best, count_cells(pts, side) * side ** s)
    return best


@dataclass(frozen=True)
class DeltaSCheck:
    passed: bool
    worst_ratio: float
    witness: Point
    witness_level: int
    constant: float
    s: float


def verify_delta_s_set(p: DiscreteSet, s: float, c: float) -> DeltaSCheck:
    """Check the covering inequality |P ∩ B(x, r)|_delta <= C r^s |P|_delta.

    Tested for every dyadic r in [delta, 1] with centers at the set's
    own points plus all occupied dyadic square centers at the matching
    level (this samples the true worst center within a bounded factor).
    Returns the worst observed ratio and its witness center/level.
    """
    from scipy.spatial import cKDTree

    if not (0.0 <= s <= 2.0):
        raise PreconditionError(f"s {s!r} outside [0, 2]")
    if c <= 0.0:
        raise PreconditionError("constant must be positive")
    pts = p.points
    delta = p.delta
    n_delta = count_cells(pts, delta)
    leaf_cells = cell_indices(pts, delta)
    point_per_cell = np.unique(leaf_cells, axis=0).shape[0] == pts.shape[0]
    cell_keys = None
    if not point_per_cell:
        # points share delta-cells: count distinct cells inside each ball
        cell_keys = leaf_cells[:, 0] * (2 ** 31) + leaf_cells[:, 1]
    tree = cKDTree(pts)
    worst = -math.inf
    witness = Point(float(pts[0, 0]), float(pts[0, 1]))
    witness_level = 0
    top = level_of(delta)
    for lv in range(0, top + 1):
        r = 2.0 ** -lv
        sq = np.unique(cell_indices(pts, r), axis=0).astype(float)
        centers = np.concatenate([pts, (sq + 0.5) * r], axis=0)
        if point_per_cell:
            counts = tree.query_ball_point(centers, r, return_length=True).astype(float)
        else:
            counts = np.empty(centers.shape[0])
            for i, idx in enumerate(tree.query_ball_point(centers, r)):
                counts[i] = np.unique(cell_keys[np.asarray(idx, dtype=np.intp)]).size
        ratios = counts / (r ** s * n_delta)
        imax = int(np.argmax(ratios))
        if ratios[imax] > worst:
            worst = float(ratios[imax])
            witness = Point(float(centers[imax, 0]), float(centers[imax, 1]))
            witness_level = lv
    return DeltaSCheck(worst <= c + 1e-9, worst, witness, witness_level, c, s)


def frostman_extract(a: DiscreteSet, s: float, rho: float) -> DiscreteSet:
    """Extract a rho-separated subset that is spread like an s-set.

    Walks the dyadic square tree from the unit scale down to rho.  Kept
    squares retain children in quota-rounded numbers averaging 2^s per
    level (never more than ceil(2^s)), preferring children with larger
    residual content; ties break on lexicographic square index.  One
    representative input point (the lexicographically smallest) is
    emitted per surviving rho-square, so the output is a subset of the
    input occupying distinct level-of-rho squares, with size at least a
    fixed fraction (1/64) of content * rho^-s.
    """
    if len(a) == 0:
        raise EmptyInput("frostman_extract needs a nonempty set")
    if not (0.0 <= s <= 2.0):
        raise PreconditionError(f"s {s!r} outside [0, 2]")
    if not (a.delta - 1e-12 <= rho <= 1.0) or not is_dyadic(rho):
        raise PreconditionError(f"rho {rho!r} must be dyadic in [delta, 1]")
    depth = int(round(math.log2(1.0 / rho)))
    pts = a.points

    # representative point per leaf (level-`depth`) square: lexicographic min
    leaf_of_point = cell_indices(pts, rho)
    order = np.lexsort((pts[:, 1], pts[:, 0], leaf_of_point[:, 1], leaf_of_point[:, 0]))
    sorted_cells = leaf_of_point[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
    leaf_cells = sorted_cells[first]
    leaf_rep = order[first]  # index into pts

    # bottom-up: cells per level, parent pointers, residual content
    cells = [None] * (depth + 1)
    parent_idx = [None] * (depth + 1)
    cells[depth] = leaf_cells
    for lv in range(depth, 0, -1):
        par = cells[lv] // 2  # floor division handles negatives
        uniq, inv = np.unique(par, axis=0, return_inverse=True)
        cells[lv - 1] = uniq
        parent_idx[lv] = inv
    content = [None] * (depth + 1)
    content[depth] = np.full(leaf_cells.shape[0], rho ** s)
    for lv in range(depth, 0, -1):
        sums = np.zeros(cells[lv - 1].shape[0])
        np.add.at(sums, parent_idx[lv], content[lv])
        content[lv - 1] = np.minimum((2.0 ** -(lv - 1)) ** s, sums)

    # top-down quota selection
    kept = np.ones(cells[0].shape[0], dtype=bool)
    surplus = np.zeros(cells[0].shape[0])
    hard_cap = max(1, int(math.ceil(2.0 ** s - 1e-12)))
    carry = 0.0
    for lv in range(1, depth + 1):
        par = parent_idx[lv]
        child_ok = kept[par]
        idx = np.nonzero(child_ok)[0]
        par_sel = par[idx]
        # rank children within parent by content desc, lex asc
        ordr = np.lexsort(
            (cells[lv][idx, 1], cells[lv][idx, 0], -content[lv][idx], par_sel)
        )
        par_sorted = par_sel[ordr]
        newgrp = np.ones(ordr.size, dtype=bool)
        newgrp[1:] = par_sorted[1:] != par_sorted[:-1]
        grp_start = np.nonzero(newgrp)[0]
        rank = np.arange(ordr.size) - np.repeat(grp_start, np.diff(np.append(grp_start, ordr.size)))
        parents_present = par_sorted[newgrp]
        avail = np.diff(np.append(grp_start, ordr.size))
        counts, carry = quota_child_counts(
            surplus[parents_present],
            branch_log2=s,
            available=avail,
            hard_cap=hard_cap,
            tiebreak=np.arange(parents_present.size, dtype=float),
            carry=carry,
        )
        counts_full = np.zeros(cells[lv - 1].shape[0], dtype=np.int64)
        counts_full[parents_present] = counts
        keep_sorted = rank < counts_full[par_sorted]
        kept_next = np.zeros(cells[lv].shape[0], dtype=bool)
        kept_next[idx[ordr[keep_sorted]]] = True
        surplus_next = np.zeros(cells[lv].shape[0])
        surplus_next[idx[ordr]] = surplus[par_sorted] + np.log2(
            np.maximum(counts_full[par_sorted], 1)
        ) - s
        kept, surplus = kept_next, surplus_next

    chosen = leaf_rep[kept]
    out = DiscreteSet(
        pts[np.sort(chosen)],
        rho,
        label=f"{a.label}+frostman" if a.label else "frostman",
        meta={"generator": "frostman_extract", "seed": None,
              "params": {"s": s, "rho": rho, "source": a.label}},
        check=False,  # distinct level-of-rho squares by construction
    )
    kappa = 2.0 ** -6
    need = kappa * hausdorff_content(a, s) * rho ** -s
    if len(out) + 1e-9 < need:
        raise InvariantViolation(
            f"extracted {len(out)} points, below the content floor {need:.2f}"
        )
    return out
