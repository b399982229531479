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

from .dyadic import (
    DISC_BANDS,
    MAX_FFT_CELLS,
    MAX_LEVEL,
    NearSweep,
    SumTable,
    ball_max,
    cell_indices,
    count_cells,
    is_dyadic,
    lattice_nodes,
    level_of,
    quota_child_counts,
    unique_rows,
)
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


def _occupied_arcs(angles, upper, level: int) -> np.ndarray:
    """Mask of the 2^level dyadic arcs that the angles meet or, with upper
    given, that the closed intervals [angles_i, upper_i] meet, taken
    counterclockwise."""
    a = np.asarray(angles, dtype=float).reshape(-1)
    if a.size == 0:
        raise EmptyInput("circle_covering_number needs at least one angle")
    u = a if upper is None else np.broadcast_to(np.asarray(upper, dtype=float), a.shape)
    if np.any(u < a):
        raise PreconditionError("interval upper edges must not lie below their lower edges")
    n_arcs = 1 << level
    two_pi = 2.0 * math.pi
    if np.any(u - a >= two_pi):
        return np.ones(n_arcs, dtype=bool)
    lo = np.floor(a / two_pi * n_arcs).astype(np.int64)
    spans = np.floor(u / two_pi * n_arcs).astype(np.int64) - lo
    lo %= n_arcs
    # interval i hits the run of arcs lo_i, ..., lo_i + span_i (mod n_arcs):
    # mark each run's ends, splitting the runs that wrap past arc 0
    end = lo + spans + 1
    wrap = end > n_arcs
    starts = np.concatenate([lo, np.zeros(np.count_nonzero(wrap), dtype=np.int64)])
    stops = np.concatenate([np.minimum(end, n_arcs), end[wrap] - n_arcs])
    depth = np.cumsum(np.bincount(starts, minlength=n_arcs + 1)
                      - np.bincount(stops, minlength=n_arcs + 1))
    return depth[:n_arcs] > 0


def circle_covering_number(angles, level: int, upper=None) -> int:
    """Occupied arcs after level dyadic halvings of the full circle
    (2^level arcs, each of width 2 pi 2^-level).

    With upper given, angle i is the lower edge of the closed interval
    [angles_i, upper_i], taken counterclockwise, and every arc the
    interval meets counts as occupied.
    """
    if not (0 <= level <= MAX_LEVEL):
        raise PreconditionError(f"level {level!r} outside [0, {MAX_LEVEL}]")
    return int(np.count_nonzero(_occupied_arcs(angles, upper, level)))


def circle_box_dimension(angles, level_min: int, level_max: int,
                         upper=None) -> DimensionEstimate:
    """Box-counting dimension of an angle set, or of the closed intervals
    [angles_i, upper_i], using dyadic arcs.

    The arcs are marked once at level_max. Arc j at level L - 1 is the
    union of arcs 2j and 2j + 1 at level L, and a / (2 pi) * 2^L is exactly
    twice its level L - 1 value, so halving the mask pairwise gives each
    coarser level's occupied arcs exactly.
    """
    _check_level_window(level_min, level_max, None)
    occ = _occupied_arcs(angles, upper, level_max)
    counts = [int(np.count_nonzero(occ))]
    for _ in range(level_max - level_min):
        occ = occ[0::2] | occ[1::2]
        counts.append(int(np.count_nonzero(occ)))
    counts.reverse()
    levels = np.arange(level_min, level_max + 1, dtype=float)
    slope, intercept, r2 = fit_log2_slope(levels, np.array(counts, dtype=float))
    return DimensionEstimate(slope, intercept, (level_min, level_max), r2,
                             tuple(zip(range(level_min, level_max + 1), counts)))


def hausdorff_content(a, s: float) -> float:
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


def _swept_ball_counts(sweep: NearSweep, r: float, cell_ids: np.ndarray) -> np.ndarray:
    """Distinct cells, given each point's cell id, of the points within
    distance r of each centre of the sweep."""
    counts = np.empty(sweep.centres.shape[0])
    for centres, cand, d2 in sweep:
        # a mask over the distinct cells of the window's points
        cells, at = np.unique(cell_ids[cand], return_inverse=True)
        hit = np.zeros((centres.size, cells.size), dtype=bool)
        rows, cols = np.nonzero(d2 <= r * r)
        hit[rows, at[cols]] = True
        counts[centres] = np.count_nonzero(hit, axis=1)
    return counts


def _cell_table(cells: np.ndarray, reads: int):
    """A SumTable of the occupied delta-cells (distinct integer rows, in
    any order), for bounding the distinct cells of the points in closed
    balls, and the k of its squares, of side 2^k delta, each holding its
    occupied cells; at k = 0 the table's nodes are the given rows.

    The table has at most min(reads, MAX_FFT_CELLS) entries, reads being
    the most boxes the caller will read, so that it costs no more to build
    than to read: k = 0 where the cells' box fits, else the least k that
    fits, a looser bound, down to |P|_delta itself at 3 x 3 entries, which
    always fit."""
    lo, hi = ([int(f(col)) for col in cells.T] for f in (np.min, np.max))
    most = max(min(reads, MAX_FFT_CELLS), 9)
    k = 0
    while math.prod((h >> k) - (l >> k) + 2 for l, h in zip(lo, hi)) > most:
        k += 1
    return SumTable(cells >> k if k else cells, np.ones(cells.shape[0], dtype=np.int64)), k


def _cell_bounds(table: SumTable, k: int, delta: float, centres: np.ndarray,
                 r: float) -> np.ndarray:
    """Per centre, an upper bound on the distinct delta-cells of the points
    in its closed ball of radius r: the occupied cells, read from
    _cell_table's table and squares of side 2^k delta, that meet the
    square [c - r, c + r]^2 widened by one cell on each side against
    rounding. A ball's points, and so their cells, lie in that square."""
    first = (np.floor((centres - r) / delta).astype(np.int64) - 1) >> k
    last = (np.floor((centres + r) / delta).astype(np.int64) + 1) >> k
    return table.boxes(first[:, 0], first[:, 1], last[:, 0], last[:, 1])


def _least_count(worst: float, scale: float) -> int:
    """The least count whose ratio count / scale reaches worst."""
    if worst == -math.inf:
        return 0
    need = max(0, math.ceil(worst * scale))
    while need > 0 and (need - 1) / scale >= worst:
        need -= 1
    while need / scale < worst:
        need += 1
    return need


def verify_delta_s_set(p: DiscreteSet, s: float, c: float) -> DeltaSCheck:
    """Check the covering inequality |P ∩ B(x, r)|_delta <= C r^s |P|_delta.

    Tested for every dyadic r in [delta, 1] with centers at the set's
    own points plus all occupied dyadic square centers at the matching
    level (this samples the true worst center within a bounded factor).
    Returns the worst observed ratio and its witness center/level.

    The levels are walked from the finest, r = 2^-level_of(delta), to
    r = 1, each level's occupied squares the halved rows of the next
    finer level's. A level is counted only if some ball can hold the
    worst ratio found so far, divided by r^s |P|_delta exactly as the
    counts are: a summed-area table of the occupied delta-cells
    (dyadic.SumTable), no larger than the walk's reads of it, bounds every
    centre's count, and a level whose largest bound falls strictly below
    the worst ratio is skipped. The finest level is always counted. Within
    a level the first centre of the largest ratio is the witness, and a
    tie between levels goes to the coarser one.

    A ball holds the points with dx*dx + dy*dy <= r*r, as in a k-d tree.
    On a set with one point per delta-cell, a ball's size is its number
    of points, and dyadic.ball_max of unit weights finds the largest, with
    `least` the least count that reaches the worst ratio. Where the points
    are nodes of a dyadic delta-lattice and the table is not coarsened, it
    is also ball_max's table, and the level's bound is ball_max's first
    one, each disc's bounding box, which its table route filters by
    anyway; no other bound is read. Otherwise each centre's bound is the
    occupied cells its widened square meets. On a set whose points share
    delta-cells, the near-neighbour sweep (dyadic.NearSweep) counts the
    distinct cells of a ball's points.
    """
    if not (0.0 <= s <= 2.0):
        raise PreconditionError(f"s {s!r} outside [0, 2]")
    if not (0.0 < c < math.inf):
        raise PreconditionError(f"constant {c!r} must be positive and finite")
    pts = p.points
    delta = p.delta
    cells, cell_ids = unique_rows(cell_indices(pts, delta), return_inverse=True)
    n_delta = cells.shape[0]
    # points on the delta-lattice, one per cell, are their cells
    nodes = (lattice_nodes(pts, delta) if n_delta == pts.shape[0] and is_dyadic(delta)
             else None)
    ones = np.ones(pts.shape[0], dtype=np.int64)
    worst = -math.inf
    witness = Point(float(pts[0, 0]), float(pts[0, 1]))
    witness_level = 0
    top = level_of(delta)
    sq = unique_rows(cell_indices(pts, 2.0 ** -top))
    # no level has more centres than the finest, and ball_max bounds each
    # by one box and then at most DISC_BANDS more
    table, k = _cell_table(cells if nodes is None else nodes,
                           (top + 1) * (pts.shape[0] + sq.shape[0])
                           * (1 if nodes is None else 1 + DISC_BANDS))
    shared = nodes is not None and k == 0
    for lv in range(top, -1, -1):
        r = 2.0 ** -lv
        centers = np.concatenate([pts, (sq + 0.5) * r], axis=0)
        sq = unique_rows(sq // 2)  # the next coarser level's squares
        scale = r ** s * n_delta
        need = _least_count(worst, scale)
        if shared:
            found = ball_max(pts, ones, centers, [r], delta, need, table)[0]
        elif _cell_bounds(table, k, delta, centers, r).max() < need:
            continue
        elif n_delta < pts.shape[0]:
            # points share delta-cells: count distinct cells inside each ball
            counts = _swept_ball_counts(NearSweep(pts, centers, r), r, cell_ids)
            i = int(np.argmax(counts))
            found = (counts[i], i) if counts[i] >= need else None
        else:
            found = ball_max(pts, ones, centers, [r], delta, need)[0]
        if found is not None:
            worst = float(found[0] / scale)
            witness = Point(float(centers[found[1], 0]), float(centers[found[1], 1]))
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

    # representative point per leaf (level-`depth`) square: with the points
    # in lexicographic order, a cell's first occurrence is its smallest point
    by_point = np.lexsort((pts[:, 1], pts[:, 0]))
    leaf_cells, first = unique_rows(cell_indices(pts[by_point], rho), return_index=True)
    leaf_rep = by_point[first]  # index into pts

    # bottom-up: cells per level, parent pointers, residual content
    cells = [None] * (depth + 1)
    parent_idx = [None] * (depth + 1)
    cells[depth] = leaf_cells
    for lv in range(depth, 0, -1):
        par = cells[lv] // 2  # floor division handles negatives
        uniq, inv = unique_rows(par, return_inverse=True)
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
