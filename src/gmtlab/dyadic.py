"""Shared dyadic-grid utilities: cell indexing, exact lattice nodes,
distinct integer rows, fixed-radius near neighbours, quota branching,
summed-area tables, and closed-ball sums of integer weights. ball_sums is
the one place that chooses between the near-neighbour sweep and disc sums
by FFT on integer lattices, which alone size, price and refuse a
transform. ball_max, for callers that want only the heaviest ball, prices
one more route against those two: bound every ball from a summed-area
table and count exactly only the balls the bound cannot rule out.

The quota-branching helper drives the random quota trees (the random set
generator and the Furstenberg direction pencils) and the Frostman-style
subset extraction: every parent square keeps between floor(2^s) and
ceil(2^s) children, and the fractional part of 2^s is realized by
handing the extra child to the parents whose lineage is currently
furthest below its size target (surplus diffusion).  This keeps each
subtree's leaf count within a bounded factor of its expectation, which
the covering checks rely on.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import InvariantViolation

MAX_LEVEL = 20


def level_of(delta: float) -> int:
    """Finest dyadic level whose squares are at least `delta` wide."""
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta {delta!r} outside (0, 1]")
    return min(MAX_LEVEL, int(math.floor(math.log2(1.0 / delta) + 1e-9)))


def is_dyadic(delta: float) -> bool:
    lg = math.log2(1.0 / delta)
    return abs(lg - round(lg)) < 1e-9


def cell_indices(points: np.ndarray, side: float) -> np.ndarray:
    """Origin-anchored grid cell of each point (integer rows)."""
    return np.floor(np.asarray(points, dtype=float) / side).astype(np.int64)


def unique_rows(rows: np.ndarray, return_index: bool = False,
                return_inverse: bool = False, return_counts: bool = False):
    """Distinct rows of a 2-D array in lexicographic order, with the values,
    first-occurrence index, inverse and counts of np.unique(rows, axis=0,
    ...). Non-empty int64 rows whose column ranges (max - min) fit 63 bits
    in total sort as one int64 key, each column less its minimum in its own
    bits, the first highest; every other input takes a stable lexsort."""
    rows = np.asarray(rows)
    flags = return_index or return_inverse or return_counts
    cols = list(rows.T) if rows.dtype == np.int64 and rows.ndim == 2 and rows.size else []
    lo = [int(col.min()) for col in cols]
    bits = [(int(col.max()) - m).bit_length() for col, m in zip(cols, lo)]
    if not cols or sum(bits) > 63:
        order = np.lexsort(rows.T[::-1])
        srt = rows[order]
        new = np.ones(order.size, dtype=bool)
        np.any(srt[1:] != srt[:-1], axis=1, out=new[1:])
        uniq = srt[new]
    else:
        key = cols[0] - lo[0]
        for col, m, b in zip(cols[1:], lo[1:], bits[1:]):
            key <<= b
            key |= col - m
        if flags:  # stable, so order[new] is each first occurrence
            order = np.argsort(key, kind="stable")
            key = key[order]
        else:
            key.sort()
        new = np.append(True, key[1:] != key[:-1])
        key = key[new]
        uniq = np.column_stack([((key >> sum(bits[c + 1:])) & ((1 << b) - 1)) + m
                                for c, (m, b) in enumerate(zip(lo, bits))])
    out = [uniq]
    if return_index:
        out.append(order[new])
    if return_inverse:
        inverse = np.empty(order.size, dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        out.append(inverse)
    if return_counts:
        out.append(np.diff(np.append(np.flatnonzero(new), order.size)))
    return tuple(out) if flags else uniq


def lattice_nodes(points: np.ndarray, pitch: float) -> Optional[np.ndarray]:
    """Integer nodes of the points on the origin-anchored lattice of the
    given pitch, if nodes * pitch == points holds exactly; None otherwise."""
    nodes = np.rint(points / pitch)
    if not np.array_equal(nodes * pitch, points):
        return None
    return nodes.astype(np.int64)


def count_cells(points: np.ndarray, side: float) -> int:
    """Number of occupied grid cells of the given side length."""
    return int(unique_rows(cell_indices(points, side)).shape[0])


# centres per block of a NearSweep, which bounds the (centre, candidate)
# distances held at once to SWEEP_BLOCK times the block's window
SWEEP_BLOCK = 64


class NearSweep:
    """Fixed-radius near neighbours of centres among points (Bentley,
    Stanat and Williams, IPL 6, 1977), by a sweep along the coordinate in
    which the points spread further.

    Points and centres are sorted by that coordinate. Each block of
    SWEEP_BLOCK consecutive centres takes as candidates the points whose
    coordinate lies within reach of the block's span; the slack covers
    rounding at the window's edges, and extra candidates cost only time.
    So every point with dx*dx + dy*dy <= reach**2 from a centre is among
    its block's candidates. pairs(reaches) counts, before any distance is
    taken, the (centre, candidate) pairs of all blocks that a sweep at
    each reach would walk. Iterating yields, block by block, the centre
    indices, the candidate indices in ascending order and the (centres,
    candidates) array of their dx*dx + dy*dy, which the next block
    overwrites.
    """

    def __init__(self, points: np.ndarray, centres: np.ndarray, reach: float):
        self.points, self.centres = points, centres
        spread = [np.ptp(points[:, k]) for k in (0, 1)]
        self._axis = int(spread[1] > spread[0])
        self._keys = keys = np.sort(points[:, self._axis])
        ckeys = np.sort(centres[:, self._axis])
        self._starts = np.arange(0, ckeys.size, SWEEP_BLOCK)
        self._ends = np.minimum(self._starts + SWEEP_BLOCK, ckeys.size)
        self._edges = ckeys[self._starts], ckeys[self._ends - 1]
        scale = max(abs(keys[0]), abs(keys[-1]), abs(ckeys[0]), abs(ckeys[-1]))
        self._slack = 4.0 * float(np.spacing(scale))
        self._lo, self._hi = self._windows(reach)

    def _windows(self, reach):
        # each block's window [lo, hi) of sorted keys, a row per reach if an
        # array. The pad is at least 2^-500: an offset that small squares to
        # a normal 2^-1000, so a point outside the window has a d2 above any
        # smaller reach**2, even one that underflows or loses precision
        pad = np.maximum(np.multiply.outer(reach, 1.0 + 2.0 ** -20), 2.0 ** -500) + self._slack
        return (np.searchsorted(self._keys, self._edges[0] - pad, "left"),
                np.searchsorted(self._keys, self._edges[1] + pad, "right"))

    def pairs(self, reaches) -> np.ndarray:
        lo, hi = self._windows(np.asarray(reaches, dtype=float)[:, None])
        return (hi - lo) @ (self._ends - self._starts)

    def __iter__(self):
        # argsort lists the keys in the same order as the sort above, so
        # each window and block spans the same keys, whatever the ties
        order = np.argsort(self.points[:, self._axis])
        by_key = np.argsort(self.centres[:, self._axis])
        px, py = self.points[:, 0], self.points[:, 1]
        cx, cy = self.centres[:, 0], self.centres[:, 1]
        # one pair of buffers for every block: fresh arrays of this size
        # would each be mapped and faulted in anew
        size = int(np.max((self._hi - self._lo) * (self._ends - self._starts)))
        bx, by = np.empty(size), np.empty(size)
        for s, e, lo, hi in zip(self._starts.tolist(), self._ends.tolist(),
                                self._lo.tolist(), self._hi.tolist()):
            block = by_key[s:e]
            cand = np.sort(order[lo:hi])
            k = block.size * cand.size
            dx = bx[:k].reshape(block.size, cand.size)
            dy = by[:k].reshape(block.size, cand.size)
            np.subtract(px[cand], cx[block, None], out=dx)
            np.subtract(py[cand], cy[block, None], out=dy)
            dx *= dx
            dy *= dy
            dx += dy
            yield block, cand, dx


def quota_budget(branch_log2: float, p: int,
                 carry: float) -> tuple[int, int, float]:
    """The quota rule's budget for p parents: the whole children each
    parent is owed (floor of 2^branch_log2), the extra children to hand
    out among them, and the carry left for the next level."""
    growth = 2.0 ** branch_log2
    base = int(math.floor(growth + 1e-12))
    frac = max(0.0, growth - base)  # growth may sit 1e-12 below base
    budget = frac * p + carry
    extra = int(math.floor(budget + 1e-9))
    return base, extra, budget - extra


def quota_child_counts(
    surplus: np.ndarray,
    branch_log2: float,
    available: np.ndarray,
    hard_cap: int,
    tiebreak: np.ndarray,
    carry: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Children kept per parent under the quota rule.

    surplus: accumulated log2 excess of each parent's lineage.
    branch_log2: target log2 branching factor (s for planar squares).
    available: occupied child squares per parent (>= 1 each).
    hard_cap: per-parent ceiling, at most ceil(2^branch_log2).
    tiebreak: secondary sort key for choosing which parents get the
        extra child (random for generation, deterministic for extraction).
    carry: fractional child credit left over from previous levels; the
        updated carry is returned so small populations still realize a
        fractional branching factor on average.

    Parents run along the last axis. The rows of 2-D arrays are
    independent populations of one size that share the carry: each row
    gets the same extra children a 1-D call on it would.
    """
    p = surplus.shape[-1]
    base, extra, new_carry = quota_budget(branch_log2, p, carry)
    cap = np.minimum(available, hard_cap)
    counts = np.minimum(np.maximum(base, 1), cap)
    if extra > 0:
        eligible = counts < cap
        order = np.lexsort((tiebreak, surplus, ~eligible), axis=-1)
        n_take = np.minimum(extra, eligible.sum(axis=-1, keepdims=True))
        take = np.zeros_like(eligible)
        np.put_along_axis(take, order, np.arange(p) < n_take, axis=-1)
        counts = counts + take
    return counts, new_carry


def quota_row_sizes(branch_log2: float, levels: int, cap: int) -> list:
    """Parents per tree at each level of quota_tree's walk, from 1 at
    level 0, when every parent may keep up to `cap` children. The sizes
    depend only on the branching, the cap and the carry."""
    sizes = []
    p, carry = 1, 0.0
    for _ in range(levels):
        sizes.append(p)
        base, extra, carry = quota_budget(branch_log2, p, carry)
        kept = min(max(base, 1), cap)
        p = p * kept + (min(extra, p) if kept < cap else 0)
    return sizes


def quota_tree(branch_log2: float, levels: int, rngs: list,
               dim: int) -> np.ndarray:
    """Leaves of random quota trees, one tree per generator.

    Each tree starts from the unit cube of dimension `dim` and descends
    `levels` dyadic levels; every cell keeps children among its 2^dim
    subcells under the quota rule with branching 2^branch_log2; the kept
    subcells are the lowest-ranked by a random key. Returns integer cells
    of shape (len(rngs), n, dim), every tree with the same n, since the
    quota total depends only on the row size and the carry. Subcell k
    sits at the bits of k, lowest bit first: (0,0), (1,0), (0,1), (1,1)
    in the plane.

    Draws: each generator makes one `random` call of
    (1 + 2^dim) * sum(p_l) doubles, p_l the row sizes of
    quota_row_sizes(branch_log2, levels, min(2^dim, hard cap)). Level
    l reads, in stream order, its p_l parents' tiebreaks and then p_l
    rows of 2^dim subcell keys, the same numbers a call of random(p_l)
    followed by random((p_l, 2^dim)) per level would give.
    """
    n_sub = 2 ** dim
    sub = (np.arange(n_sub)[:, None] >> np.arange(dim)) & 1
    hard_cap = max(1, math.ceil(2.0 ** branch_log2 - 1e-12))
    sizes = quota_row_sizes(branch_log2, levels, min(n_sub, hard_cap))
    b = len(rngs)
    draws = np.empty((b, (1 + n_sub) * sum(sizes)))
    for k, rng in enumerate(rngs):
        rng.random(out=draws[k])
    cells = np.zeros((b, 1, dim), dtype=np.int64)
    surplus = np.zeros((b, 1))
    carry = 0.0
    at = 0
    for p in sizes:
        tiebreak = draws[:, at:at + p]
        keys = draws[:, at + p:at + (1 + n_sub) * p].reshape(b, p, n_sub)
        at += (1 + n_sub) * p
        counts, carry = quota_child_counts(
            surplus,
            branch_log2=branch_log2,
            available=np.full((b, p), n_sub, dtype=np.int64),
            hard_cap=hard_cap,
            tiebreak=tiebreak,
            carry=carry,
        )
        ranks = np.argsort(keys, axis=2).argsort(axis=2)
        parent, sub_idx = np.divmod(
            np.flatnonzero(ranks < counts[:, :, None]), n_sub)
        cells = (cells.reshape(-1, dim)[parent] * 2
                 + sub[sub_idx]).reshape(b, -1, dim)
        counts = counts.reshape(-1)[parent]
        surplus = (surplus.reshape(-1)[parent] + np.log2(counts)
                   - branch_log2).reshape(b, -1)
    return cells


# lattice_disc_sums refuses transform grids with more cells than this
MAX_FFT_CELLS = 3 * 10 ** 7
# given the pairs a near-neighbour sweep at the grid's radius would walk,
# lattice_disc_sums also refuses grids with more than 1/_PAIRS_PER_FFT_CELL
# as many cells: the sweep's cost grows with its pairs, the FFT's with its
# grid. Timed level by level on the lattice sets of the acceptance gate and
# of the spread benchmark, 8 came within 0.3% of the faster side's total,
# 4 and 12 within 1.2%, and 32 took 15% longer.
_PAIRS_PER_FFT_CELL = 8
# lattice_disc_sums refuses weights that total more than this: its rounding
# error scales with the total. On spread sets (s 1.5-2, delta 2^-7 to 2^-10,
# grids of 2^14 to 2^22 cells) sums strayed at most 2^-49.4 of the total, so
# under 0.002 at 2^40, far inside the integer check's 0.25.
MAX_FFT_TOTAL = 2 ** 40


def fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n: a length the FFT transforms fast."""
    best = 1 << max(0, n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def lattice_q2(bound: float, pitch: float) -> int:
    """Squared lattice radius of the sweep's closed ball dx*dx + dy*dy <=
    bound on a dyadic lattice: node offsets are exact multiples of the
    pitch, so the test holds exactly when i*i + j*j <= the result."""
    return math.floor(bound / (pitch * pitch))


def lattice_disc_sums(nodes: np.ndarray, weights: np.ndarray,
                      centres: np.ndarray, q2s, pairs=None) -> list:
    """Per q2 of q2s, the summed weight of the nodes within squared lattice
    distance q2 of each centre (di^2 + dj^2 <= q2), by one circular FFT
    convolution: an int64 array over the centres, or None, so that the
    caller sweeps, if the weights total more than MAX_FFT_TOTAL or the
    grid would exceed MAX_FFT_CELLS or, given the `pairs` (one per q2) a
    sweep at that radius would walk, pairs / _PAIRS_PER_FFT_CELL.

    nodes and centres are integer rows (i, j); weights holds one
    non-negative integer per node. Sides padded to the box side plus
    q = isqrt(q2) keep the circular wrap-around out of every cell that is
    read. The sums are rounded to int64; InvariantViolation if one strays
    more than 0.25 from an integer.
    """
    lo, hi = _span(nodes, centres)
    side = hi - lo + 1
    fits = int(weights.sum()) <= MAX_FFT_TOTAL
    out = []
    for q2, walk in zip(q2s, [math.inf] * len(q2s) if pairs is None else pairs):
        shape = _fft_shape(side, q2, walk) if fits else None
        out.append(None if shape is None else _disc_sums(nodes, weights, centres, lo, q2, shape))
    return out


def _span(*rows):
    """Least and greatest value per column over integer arrays of shape
    (n, 2), a column at a time: a reduction of a narrow array along axis 0
    takes many times longer."""
    return (np.array([min(int(a[:, k].min()) for a in rows) for k in (0, 1)]),
            np.array([max(int(a[:, k].max()) for a in rows) for k in (0, 1)]))


def _fft_shape(side, q2: int, walk: float):
    """The transform grid lattice_disc_sums would use for a box of the
    given side and squared radius q2, or None if it exceeds MAX_FFT_CELLS
    or costs more than `walk` sweep pairs."""
    q = math.isqrt(q2)
    box = [int(k) + q for k in side]
    # fast_len only rounds up, so a box priced out needs no transform length
    if box[0] * box[1] * _PAIRS_PER_FFT_CELL > walk:
        return None
    shape = fast_len(box[0]), fast_len(box[1])
    cells = shape[0] * shape[1]
    return None if cells > MAX_FFT_CELLS or cells * _PAIRS_PER_FFT_CELL > walk else shape


def _disc_sums(nodes: np.ndarray, weights: np.ndarray, centres: np.ndarray,
               lo: np.ndarray, q2: int, shape: tuple) -> np.ndarray:
    """lattice_disc_sums for one q2, on a grid of the given shape whose
    cell (0, 0) is node lo."""
    q = math.isqrt(q2)
    # the disc is even, so its spectrum is real; rfft2 and irfft2 run one
    # axis at a time, each input dropped once transformed, so fewer than
    # three grid-sized arrays are alive at once
    span = np.arange(-q, q + 1)
    disc = np.zeros(shape)
    disc[np.ix_(span % shape[0], span % shape[1])] = (
        span[:, None] ** 2 + span[None, :] ** 2 <= q2)
    disc = np.fft.rfft(disc, axis=1)
    disc = np.fft.fft(disc, axis=0).real.copy()
    at = nodes - lo
    spec = np.bincount(at[:, 0] * shape[1] + at[:, 1], weights,
                       minlength=shape[0] * shape[1]).reshape(shape)
    spec = np.fft.rfft(spec, axis=1)
    spec = np.fft.fft(spec, axis=0)
    spec *= disc
    del disc
    spec = np.fft.ifft(spec, axis=0)
    sums = np.fft.irfft(spec, shape[1], axis=1)
    at = centres - lo
    sums = sums[at[:, 0], at[:, 1]]
    counts = np.rint(sums)
    stray = np.max(np.abs(sums - counts), initial=0.0)
    if stray > 0.25:
        raise InvariantViolation(
            f"FFT disc sums strayed {stray:.3g} from integers (squared radius {q2})")
    return counts.astype(np.int64)


def ball_sums(points: np.ndarray, weights: np.ndarray, centres: np.ndarray,
              radii, pitch: float) -> list:
    """Summed weight of the points with dx*dx + dy*dy <= radius**2 about
    each centre: one int64 array over the centres per radius, in order.

    weights holds one non-negative integer per point, totalling under
    2^53. If every point and every centre is a node of the dyadic lattice
    of the given pitch, lattice_disc_sums counts each radius by FFT unless
    it prices that radius's grid above the pairs a NearSweep at that
    radius alone would walk. The other radii share one sweep at the
    largest of them, each block summing (d2 <= radius**2) @ weights. Both
    routes count the same closed balls, so the sums do not depend on it.
    """
    if len(radii) == 0:
        return []
    nodes = lattice_nodes(points, pitch) if is_dyadic(pitch) else None
    at = nodes if nodes is None or centres is points else lattice_nodes(centres, pitch)
    return _ball_sums(points, weights, centres, radii, pitch,
                      NearSweep(points, centres, max(radii)), nodes, at)


def _ball_sums(points, weights, centres, radii, pitch, sweep, nodes, at) -> list:
    """ball_sums, given a NearSweep of the points and centres at the
    largest radius, and the lattice nodes of the points and of the
    centres (at is None if either are no nodes)."""
    out = ([None] * len(radii) if at is None else
           lattice_disc_sums(nodes, weights, at, [lattice_q2(r * r, pitch) for r in radii],
                             sweep.pairs(radii).tolist()))
    swept = [k for k, sums in enumerate(out) if sums is None]
    if swept:
        reach = max(radii[k] for k in swept)
        if reach < max(radii):
            sweep = NearSweep(points, centres, reach)
        w = weights.astype(np.float64)  # float sums of integers are exact below 2^53
        sums = np.empty((len(swept), centres.shape[0]))
        last = radii[swept[-1]]
        for block, cand, d2 in sweep:
            wc = w[cand]
            for j, k in enumerate(swept[:-1]):
                sums[j, block] = (d2 <= radii[k] * radii[k]) @ wc
            # the last radius writes its 0/1 mask over d2, which the next
            # block overwrites anyway, and so casts no mask to a float copy
            np.less_equal(d2, last * last, out=d2)
            sums[-1, block] = d2 @ wc
        for j, k in enumerate(swept):
            out[k] = sums[j].astype(np.int64)
    return out


class SumTable:
    """Summed-area table (Crow, SIGGRAPH 1984) of non-negative integer
    weights on integer nodes, repeated nodes adding up: boxes() sums the
    weights in closed boxes of nodes, four int64 reads a box."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self.nodes = nodes
        self.base, hi = _span(nodes)
        shape = hi - self.base + 2
        self.end, self.size = shape - 1, int(shape[0] * shape[1])
        # table[a, b]: the weight of the nodes with node - base < (a, b)
        table = np.zeros(shape, dtype=np.int64)
        at = nodes - self.base + 1
        np.add.at(table, (at[:, 0], at[:, 1]), weights)
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
        self._flat, self._stride = table.reshape(-1), int(shape[1])

    def boxes(self, i0, j0, i1, j1) -> np.ndarray:
        """Weight of the nodes (i, j) with i0 <= i <= i1 and j0 <= j <= j1,
        over broadcast integer arrays; a box with i1 = i0 - 1 or j1 = j0 - 1
        is empty, and none may be emptier."""
        bi, bj = self.base.tolist()
        return self._sums(np.subtract(i0, bi), np.subtract(j0, bj),
                          np.subtract(i1, bi - 1), np.subtract(j1, bj - 1))

    def _sums(self, a0, b0, a1, b1) -> np.ndarray:
        """boxes() of the rows a0 <= a < a1 and columns b0 <= b < b1, taken
        from the base, in fresh int64 arrays that it overwrites."""
        ei, ej = self.end.tolist()
        for a, e in ((a0, ei), (a1, ei), (b0, ej), (b1, ej)):
            np.clip(a, 0, e, out=a)
        a0 *= self._stride
        a1 *= self._stride
        t = self._flat
        out = t[a1 + b1]
        out -= t[a0 + b1]
        out -= t[a1 + b0]
        out += t[a0 + b0]
        return out


# ball_max counts the _SEEDS centres of the largest bounds first; the
# largest of their sums is a floor that any other centre's bound must reach
_SEEDS = 32
# boxes, bands of consecutive rows, per disc in ball_max's finer bound
DISC_BANDS = 8
# (centre, box) reads per block of ball_max's bounds and exact counts
_BLOCK = 1 << 14
# ball_max prices a box read of its table route, and a table cell built,
# at this many pairs of a near-neighbour sweep. Timed on a spread set
# (8,695 points, delta 2^-9, 2 cores): a box took 15-22 ns in exact counts
# and 20-37 ns in bounds, a table cell 5 ns, a sweep pair 4-5 ns, and an
# FFT cell 41-42 ns, about _PAIRS_PER_FFT_CELL pairs.
_PAIRS_PER_READ = 4


def ball_max(points: np.ndarray, weights: np.ndarray, centres: np.ndarray,
             radii, pitch: float, least: int = 0,
             table: Optional[SumTable] = None) -> list:
    """Per radius, the largest of ball_sums' sums over the centres and the
    first centre that holds it, as (sum, index); None where every ball
    sums to less than `least`.

    If every point is a node of the dyadic lattice of the given pitch and
    every centre a node of the lattice of half that pitch (which holds the
    centres of the pitch-squares), a radius may take the table route, on
    one SumTable of the node weights (`table`, if the caller built it for
    these nodes and weights). It bounds every ball from above by one box,
    the disc's bounding square. The _SEEDS centres of the largest bounds
    are counted exactly, and the largest of those sums, or `least`, is the
    floor a ball must reach. The centres whose box reaches it are bounded
    again by DISC_BANDS boxes, each spanning a band of the disc's rows at
    the band's widest, and those that still reach it are counted exactly,
    one box per row of the disc. Rows and widths come from the centres'
    doubled coordinates, so one table serves integer and half-integer
    centres alike.

    The route is priced, before any table is built, from the centres, the
    table's cells and the disc's rows, taking a centre to pass the first
    bound as often as a node occupies the table, and taken where that is
    no more than ball_sums would pay on the coarsest lattice holding the
    centres: the sweep's pairs, or the FFT's grid if that is cheaper. A
    table to be built must have at most MAX_FFT_CELLS cells. The other
    radii go to ball_sums; with a table given, each is first bounded by
    one box per disc, and skipped if no bound reaches `least`.
    """
    if len(radii) == 0:
        return []
    nodes = (table.nodes if table is not None else
             lattice_nodes(points, pitch) if is_dyadic(pitch) else None)
    twice = (None if nodes is None else
             2 * nodes if centres is points else lattice_nodes(centres, pitch / 2))
    if twice is None:
        return [_largest(sums, least) for sums in _ball_sums(
            points, weights, centres, radii, pitch, NearSweep(points, centres, max(radii)),
            None, None)]
    out, left = [None] * len(radii), list(range(len(radii)))
    q2s = [lattice_q2(r * r, pitch / 2) for r in radii]
    bounds = [None] * len(radii)
    if table is not None and least > 0:
        bounds = [_disc_boxes(table, twice, q2, 1) for q2 in q2s]
        left = [k for k in left if bounds[k].max() >= least]
        if not left:
            return out
    if (twice & 1).any():  # ball_sums must take the half-pitch lattice
        fine, at_nodes, at_centres = pitch / 2, 2 * nodes, twice
    else:
        fine, at_nodes, at_centres = pitch, nodes, twice >> 1
    lo, hi = _span(at_nodes, at_centres)
    fits = int(weights.sum()) <= MAX_FFT_TOTAL
    size = table.size if table is not None else math.prod(int(np.ptp(c)) + 2 for c in nodes.T)
    build = 0 if table is not None else size
    occupied = min(1.0, nodes.shape[0] / size)
    sweep = NearSweep(points, centres, max(radii[k] for k in left))
    priced = []
    for k, walk in zip(left, sweep.pairs([radii[k] for k in left]).tolist()):
        if build > MAX_FFT_CELLS:  # a table no larger than a transform grid
            break
        rows = math.isqrt(q2s[k]) + 1
        reads = (build + centres.shape[0] * (1 + occupied * (min(rows, DISC_BANDS) + rows))
                 + _SEEDS * rows)
        shape = _fft_shape(hi - lo + 1, lattice_q2(radii[k] * radii[k], fine), walk) if fits else None
        if reads * _PAIRS_PER_READ <= (walk if shape is None else
                                       shape[0] * shape[1] * _PAIRS_PER_FFT_CELL):
            priced.append(k)
    if priced and table is None:
        table = SumTable(nodes, weights)
    for k in priced:
        out[k] = _disc_max(table, twice, q2s[k], least, bounds[k])
    left = [k for k in left if k not in priced]
    if left:
        for k, sums in zip(left, _ball_sums(points, weights, centres, [radii[k] for k in left],
                                            fine, sweep, at_nodes, at_centres)):
            out[k] = _largest(sums, least)
    return out


def _largest(sums: np.ndarray, least: int, index=None):
    """ball_max's answer given the sums of some centres, in ascending order
    of their indices (if not the centres 0, 1, ...)."""
    i = int(np.argmax(sums))
    return (int(sums[i]), i if index is None else int(index[i])) if sums[i] >= least else None


def _disc_rows(q2: int, parity: int):
    """Rows of the disc i*i + j*j <= q2 whose offset i has the given
    parity, and each row's half width, the largest j."""
    top = math.isqrt(q2)
    d = np.arange(-top + (top - parity) % 2, top + 1, 2, dtype=np.int64)
    v = q2 - d * d
    w = np.sqrt(v).astype(np.int64)  # within one of isqrt(v)
    w -= w * w > v
    w += (w + 1) * (w + 1) <= v
    return d, w


def _disc_boxes(table: SumTable, twice: np.ndarray, q2: int, bands: Optional[int]) -> np.ndarray:
    """Per centre (doubled coordinates) the weight of the nodes n with
    |2n - centre|^2 <= q2: summed over one box per row of the disc if
    bands is None, else an upper bound, one box per band of rows."""
    out = np.zeros(twice.shape[0], dtype=np.int64)
    for parity in (0, 1):
        idx = np.flatnonzero((twice[:, 0] & 1) == parity)
        d, w = _disc_rows(q2, parity)
        if idx.size == 0 or d.size == 0:
            continue
        if bands is None:
            first = last = d
        else:
            starts = np.arange(min(bands, d.size)) * d.size // min(bands, d.size)
            first, last = d[starts], d[np.append(starts[1:], d.size) - 1]
            w = np.maximum.reduceat(w, starts)
        # a row of boxes per band or row, so that a sum along axis 0 adds
        # whole rows; the coordinates are taken from the table's base, and
        # the rows (x + first) / 2 to (x + last) / 2 and columns
        # (y - w) / 2 to (y + w) / 2, rounded inwards, end one past the last
        offsets = [first[:, None], last[:, None] + 2, 1 - w[:, None], w[:, None] + 2]
        x = twice[idx, 0] - 2 * int(table.base[0])
        y = twice[idx, 1] - 2 * int(table.base[1])
        step = max(1, _BLOCK // first.size)
        for s in range(0, idx.size, step):
            corners = [np.add(c[s:s + step], off) for c, off in zip((x, x, y, y), offsets)]
            for c in corners:
                c >>= 1
            a0, a1, b0, b1 = corners
            out[idx[s:s + step]] = table._sums(a0, b0, a1, b1).sum(axis=0)
    return out


def _disc_max(table: SumTable, twice: np.ndarray, q2: int, least: int, bound=None):
    """ball_max's table route for one squared radius, in doubled units,
    given the one-box bounds if they are already read."""
    if bound is None:
        bound = _disc_boxes(table, twice, q2, 1)
    keep = np.flatnonzero(bound >= least)
    floor = least
    if keep.size > _SEEDS:
        seeds = keep[np.argpartition(bound[keep], -_SEEDS)[-_SEEDS:]]
        floor = max(least, int(_disc_boxes(table, twice[seeds], q2, None).max()))
        keep = keep[bound[keep] >= floor]
    keep = keep[_disc_boxes(table, twice[keep], q2, DISC_BANDS) >= floor]
    return _largest(_disc_boxes(table, twice[keep], q2, None), least, keep) if keep.size else None
