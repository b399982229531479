"""Exact point-line incidence machinery: spanned lines with integer
canonical keys, incidence counting with proved upper bounds, rich lines,
the dyadic connected-pair profile, and the many-lines dichotomy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .dyadic import unique_rows
from .errors import (
    AllCollinear,
    InvariantViolation,
    PreconditionError,
    TooFewPoints,
)
from .generators import DiscreteSet
from .geometry import LINE_EQ_TOL, Line, Point, count_near_lines

# largest common denominator for the exact integer path
_DENOM_BITS = 21
_DENOM_CAP = 1 << _DENOM_BITS
# largest integer coordinate magnitude accepted on the exact path
_COORD_CAP = 1 << 23
# pair enumeration chunk (pairs keyed per block): each block's int64
# temporaries are 256 KiB, so they stay in cache and the allocator hands the
# same memory to the next block and the next call instead of returning it to
# the kernel and faulting it in again
_PAIR_CHUNK = 1 << 15
# a direction key packs the anchor's offset within its block above 52 bits
# of direction. Under the coordinate cap a pair's components differ by at
# most 2^24: a reduced direction takes 25 bits for dx in [0, 2^24] and 26
# for dy + 2^24 in [0, 2^25]; a slope key takes 51 bits for the scaled
# slope in [0, 2^50 + 2^49] and one steep flag. 11 bits of anchor keep the
# key below 2^63.
_DIRECTION_BITS = 52
_ANCHOR_BITS = 11
# points times parallel classes per block of the exact incidence count: its
# two int64 buffers take 2 MiB each
_CLASS_BLOCK = 1 << 18


def _pack(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One int64 key per (u, v) with u in [0, 2^24] and |v| <= 2^24, in
    51 bits that order as the pairs do. Both inputs are overwritten."""
    u <<= 26
    v += 1 << 24
    u |= v
    return u


def _unpack(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) back from the low 51 bits of keys."""
    return (keys >> 26) & ((1 << 25) - 1), (keys & ((1 << 26) - 1)) - (1 << 24)


def _slope_keys(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """One int64 key per direction (dx, dy) with |dx|, |dy| <= 2^24, in 52
    bits, equal for two directions exactly when they are parallel. Both
    inputs are overwritten.

    A steep direction (|dy| > |dx|) swaps its components, so the slope
    t = fl(dy / dx) lies in [-1, 1]; negating (dx, dy) leaves t as it is.
    The key is rint(t * 2^49) + 2^49 in [0, 2^50], with the steep flag at
    bit 51; parallel directions are both steep or both not. The key is
    exact: two distinct reduced slopes p/q != p'/q' with q, q' <= 2^24
    differ by at least 1/(q q') >= 2^-48, each correctly rounded division
    errs by at most 2^-53, so scaled by 2^49 the two stay more than 1.8
    apart and rint keeps them apart; equal slopes give the same double.
    The zero direction of a coincident pair takes t = 2, which no real
    direction takes.
    """
    steep = np.abs(dy) > np.abs(dx)
    # swap the steep pairs' components by arithmetic, which has no branch
    swap = dx - dy
    swap *= steep
    dx -= swap
    dy += swap
    zero = np.flatnonzero(dx == 0)
    dx[zero] = 1
    dy[zero] = 2
    t = swap.view(np.float64)
    t[...] = dy
    t /= dx
    t *= 2.0 ** 49
    np.rint(t, out=t)
    t += 2.0 ** 49
    dy[...] = t
    np.multiply(steep, 1 << 51, out=dx)
    dy |= dx
    return dy


def _rationalize(points: np.ndarray) -> Optional[tuple[np.ndarray, int]]:
    """Integer coordinates on a common lattice, or None.

    Each float coordinate must round-trip exactly through a fraction with
    denominator at most the cap; the common denominator must stay small
    enough that downstream int64 arithmetic cannot overflow.
    """
    vals = np.unique(points)
    scaled = vals * _DENOM_CAP
    if np.all(np.abs(vals) <= _COORD_CAP) and np.array_equal(scaled, np.floor(scaled)):
        # every value is m / 2^21 exactly, so its reduced denominator is
        # 2^(21 - trailing zeros of m) and the common one is set by the
        # fewest trailing zeros, which the bitwise or of all m shares
        m = scaled.astype(np.int64)
        low = int(np.bitwise_or.reduce(m))
        shift = min((low & -low).bit_length() - 1, _DENOM_BITS) if low else _DENOM_BITS
        den = _DENOM_CAP >> shift
        lut = m >> shift
    else:
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


def _row_blocks(counts: np.ndarray, limit: int, max_rows: int):
    """Consecutive row ranges [a, b) of at most max_rows rows whose counts
    sum to at most limit; a row whose count alone exceeds it is a block."""
    cum = np.concatenate(([0], np.cumsum(counts)))
    a = 0
    while a < counts.size:
        b = int(np.searchsorted(cum, cum[a] + limit, side="right")) - 1
        b = min(max(b, a + 1), a + max_rows, counts.size)
        yield a, b
        a = b


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of each entry, and its place within the row, when row r holds
    counts[r] entries."""
    rows = np.repeat(np.arange(counts.size), counts)
    return rows, np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _direction_groups(ints: np.ndarray, every_partner: bool = False,
                      directions: bool = False):
    """Per-anchor direction groups of integer points, one block of anchors
    at a time.

    Each pair (i, j) with j > i (with every_partner, each j != i) gets a
    direction key: its slope key (_slope_keys), or with directions its
    gcd-reduced direction, signed so that dx > 0, or dx = 0 and dy > 0 (a
    coincident pair keeps the zero direction). The anchor's offset in its
    block and the direction pack into one int64 key, so one 1-D sort per
    block brings each group together: a run of m equal keys is the m
    partners of i on one line through it. Yields (anchor, size) arrays,
    one entry per group, and with directions (anchor, size, dx, dy), the
    direction read back from the run's key.
    """
    n = ints.shape[0]
    per_anchor = np.full(n, n - 1) if every_partner else np.arange(n - 1, -1, -1)
    for a, b in _row_blocks(per_anchor, _PAIR_CHUNK, 1 << _ANCHOR_BITS):
        # every pair temporary is dropped or reused as soon as it is spent
        keys, t = _expand(per_anchor[a:b])
        i = keys + a
        j = t + (t >= i) if every_partner else i + 1 + t
        del t
        dx = ints[j, 0]
        dx -= ints[i, 0]
        dy = ints[j, 1]
        dy -= ints[i, 1]
        del i, j
        keys <<= _DIRECTION_BITS
        if directions:
            g = np.gcd(dx, dy)
            np.maximum(g, 1, out=g)
            np.negative(g, out=g, where=(dx < 0) | ((dx == 0) & (dy < 0)))
            dx //= g
            dy //= g
            del g
            keys |= _pack(dx, dy)
        else:
            keys |= _slope_keys(dx, dy)
        del dx, dy
        keys.sort()
        start = np.flatnonzero(np.diff(keys, prepend=-1))
        heads = keys[start]
        size = np.diff(np.append(start, keys.size))
        del keys, start
        anchor = a + (heads >> _DIRECTION_BITS)
        yield (anchor, size, *_unpack(heads)) if directions else (anchor, size)


def _lines_by_size(ints: np.ndarray) -> np.ndarray:
    """Entry k is the number of lines through exactly k of the distinct
    integer points, for k = 0, ..., n.

    Taken from each of its points but the last, a line with k points gives
    one direction group of each size 1, ..., k - 1. So with G(r) groups of
    size r, G(k - 1) - G(k) lines hold exactly k points, and G is
    non-increasing.
    """
    n = ints.shape[0]
    groups = np.zeros(n + 1, dtype=np.int64)
    for _, size in _direction_groups(ints):
        groups += np.bincount(size, minlength=n + 1)
    lines = np.zeros(n + 1, dtype=np.int64)
    lines[2:] = groups[1:-1] - groups[2:]
    if np.any(lines < 0):
        raise InvariantViolation("direction group counts increase with group size")
    return lines


def _group_lines(ints: np.ndarray) -> np.ndarray:
    """The line of every direction group, as rows (packed (a, b), c).

    Group (i, (dx, dy)) lies on a*x + b*y = c with (a, b) = s * (dy, -dx),
    where s = 1 if dy > 0 and -1 otherwise, so that a > 0, or a = 0 and
    b > 0; c = a*x_i + b*y_i. gcd(dx, dy) = 1, so the triple is reduced.
    """
    n = ints.shape[0]
    # one column per group, at most one group per pair
    rows = np.empty((2, n * (n - 1) // 2), dtype=np.int64)
    filled = 0
    for anchor, _, dx, dy in _direction_groups(ints, directions=True):
        ab, c = rows[:, filled:filled + anchor.size]
        b = np.negative(dx, out=dx, where=dy > 0)
        a = np.abs(dy, out=dy)
        np.multiply(a, ints[anchor, 0], out=c)
        c += b * ints[anchor, 1]
        ab[:] = _pack(a, b)
        filled += anchor.size
    return rows[:, :filled].T


def _spanned_exact(ints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical triples of the lines through the distinct integer points,
    in lexicographic order, and the points on each line.

    A line with k points holds k - 1 direction groups, so one sort of the
    groups' lines gives each line and k. The lines' k(k - 1)/2 must sum to
    the number of pairs: a line split in two falls short of it, and two
    lines merged exceed it.
    """
    n = ints.shape[0]
    lines, per_line = unique_rows(_group_lines(ints), return_counts=True)
    k = per_line + 1
    if int((k * per_line // 2).sum()) != n * (n - 1) // 2:
        raise InvariantViolation("a spanned line was split or merged")
    return np.column_stack((*_unpack(lines[:, 0]), lines[:, 1])), k


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

    triples: Optional[np.ndarray] = None       # (m, 3) int64, exact mode
    denominator: int = 1
    point_counts: Optional[np.ndarray] = None  # points on each line, exact mode
    angles: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None

    def __post_init__(self):
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

    @classmethod
    def from_lines(cls, lines) -> "LineSet":
        """Keep each line unless it lies within LINE_EQ_TOL of an earlier
        kept one in the metric of geometry.line_distance.

        That distance is at least the angle gap mod pi, so only lines within
        the tolerance in angle are compared: a window over the sorted angles
        and over a copy shifted by pi, which covers the wrap at 0 ~ pi.
        """
        lines = list(lines)
        for ln in lines:
            if not isinstance(ln, Line):
                raise PreconditionError(f"expected Line, got {type(ln).__name__}")
        ang = np.array([ln.angle for ln in lines], dtype=float)
        ax = np.array([ln.anchor.x for ln in lines], dtype=float)
        ay = np.array([ln.anchor.y for ln in lines], dtype=float)
        # an exact repeat of an earlier line is never kept and blocks none
        first = np.sort(unique_rows(np.column_stack((ang, ax, ay)), return_index=True)[1])
        order = first[np.argsort(ang[first], kind="stable")]
        srt = ang[order]
        # the window reaches 2 * tol so that rounding cannot hide a pair
        stop = np.searchsorted(np.concatenate((srt, srt + math.pi)),
                               srt + 2 * LINE_EQ_TOL, side="right")
        span = stop - np.arange(1, srt.size + 1)
        near = [np.zeros((0, 2), dtype=np.intp)]
        for a, b in _row_blocks(span, _PAIR_CHUNK, srt.size):
            u, t = _expand(span[a:b])
            u += a
            i, j = order[u], order[(u + 1 + t) % srt.size]
            d = np.abs(ang[i] - ang[j])
            d = np.minimum(d, math.pi - d) + np.hypot(ax[i] - ax[j], ay[i] - ay[j])
            hit = ~(d > LINE_EQ_TOL)
            near.append(np.column_stack((np.maximum(i[hit], j[hit]),
                                         np.minimum(i[hit], j[hit]))))
        kept = np.zeros(len(lines), dtype=bool)
        kept[first] = True
        # first seen wins: a line goes when an earlier kept one is near it
        for later, earlier in unique_rows(np.concatenate(near)).tolist():
            if kept[earlier]:
                kept[later] = False
        off = np.array([ln.offset() for ln, keep in zip(lines, kept) if keep])
        return cls(angles=ang[kept], offsets=off)


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
    warnings: tuple = ()  # how the count fell back, if it did

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
    _, first, cnt = unique_rows(quant, return_index=True, return_counts=True)
    return theta[first], d[first], _points_on_lines(cnt)


def _refuse_coincident(p: DiscreteSet) -> None:
    """Coincident points reach the line counts only unchecked; they span no
    line, and a pair of them would be counted as one."""
    if unique_rows(p.points).shape[0] < len(p):
        raise InvariantViolation("coincident points do not span a line")


def spanned_lines(p: DiscreteSet) -> LineSet:
    """Every line through at least two points of the set, deduplicated."""
    if len(p) < 2:
        raise TooFewPoints("spanning lines needs at least two points")
    _refuse_coincident(p)
    rat = _rationalize(p.points)
    if rat is not None:
        ints, den = rat
        triples, k = _spanned_exact(ints)
        return LineSet(triples=triples, denominator=den, point_counts=k)
    ang, off, k = _spanned_float(p.points)
    return LineSet(angles=ang, offsets=off, point_counts=k)


def _count_dense(ints: np.ndarray, a: np.ndarray, b: np.ndarray,
                 c: np.ndarray) -> np.ndarray:
    """Points on each line a*x + b*y == c, every point tested against every
    line, (1 << 22) // m points at a time."""
    counts = np.zeros(c.size, dtype=np.int64)
    block = max(1, (1 << 22) // max(1, c.size))
    for s in range(0, ints.shape[0], block):
        px = ints[s:s + block, 0]
        py = ints[s:s + block, 1]
        hit = px[:, None] * a[None, :] + py[:, None] * b[None, :] == c[None, :]
        counts += hit.sum(axis=0)
    return counts


def _class_starts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First line of each run of equal (a, b), and the number of lines."""
    new = np.append(True, (a[1:] != a[:-1]) | (b[1:] != b[:-1]))
    return np.append(np.flatnonzero(new), a.size)


def _count_in_rows(v: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Entries equal to t[j] in row r[j] of v, whose rows are sorted; v is
    overwritten.

    Row r keys as (r, v - least value) in one int64 when the bits fit, so
    the sorted rows are one sorted array and each target takes two
    searchsorted calls; otherwise unique_rows lexsorts the (row, value)
    rows with the targets'."""
    k, n = v.shape
    lo, hi = int(v[:, 0].min()), int(v[:, -1].max())
    bits = (hi - lo).bit_length()
    if bits + (k - 1).bit_length() > 63:
        rows = np.concatenate((np.column_stack((np.repeat(np.arange(k), n), v.ravel())),
                               np.column_stack((r, t))))
        inv = unique_rows(rows, return_inverse=True)[1]
        return np.bincount(inv[:k * n], minlength=rows.shape[0])[inv[k * n:]]
    v -= lo
    v |= (np.arange(k) << bits)[:, None]
    keys = v.ravel()
    q = np.clip(t, lo, hi)
    hit = q == t
    q -= lo
    q |= r << bits
    return (np.searchsorted(keys, q, side="right") - np.searchsorted(keys, q)) * hit


def _count_by_class(ints: np.ndarray, a: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
    """Points on each line a*x + b*y == c, the lines in runs of equal (a, b).

    The lines of a run are parallel, so v = a*x + b*y over the points is
    formed and sorted once per run, and each line counts the entries equal
    to its c. Runs go in blocks of _CLASS_BLOCK // n, one row each, so the
    two (rows, n) int64 buffers stay within 2 MiB and serve every block.
    """
    n = ints.shape[0]
    first = _class_starts(a, b)
    row = np.repeat(np.arange(first.size - 1), np.diff(first))
    a, b = a[first[:-1]], b[first[:-1]]
    x = np.ascontiguousarray(ints[:, 0])
    y = np.ascontiguousarray(ints[:, 1])
    rows = max(1, _CLASS_BLOCK // n)
    v = np.empty((min(rows, a.size), n), dtype=np.int64)
    w = np.empty_like(v)
    counts = np.empty(c.size, dtype=np.int64)
    for k0 in range(0, a.size, rows):
        k1 = min(k0 + rows, a.size)
        vk, wk = v[:k1 - k0], w[:k1 - k0]
        np.multiply(a[k0:k1, None], x, out=vk)
        np.multiply(b[k0:k1, None], y, out=wk)
        vk += wk
        vk.sort(axis=1)
        s0, s1 = first[k0], first[k1]
        counts[s0:s1] = _count_in_rows(vk, row[s0:s1] - k0, c[s0:s1])
    return counts


def _count_on_lines_exact(p: DiscreteSet, l: LineSet) -> tuple[Optional[np.ndarray], str]:
    """Points on each exact line, by integer evaluation, and "". None and
    the reason when the points are not on a lattice or the integer test
    could overflow int64.

    Lines sharing (a, b) are parallel and counted together by one sort
    (_count_by_class); a line alone in its direction is tested against
    every point (_count_dense), and so is every line of a set whose
    directions are all distinct.
    """
    rat = _rationalize(p.points)
    if rat is None:
        return None, "the points are not on a lattice"
    ints, dp = rat
    dl = l.denominator
    # a*x + b*y = c/dl with x = ix/dp: test a*ix*dl + b*iy*dl == c*dp
    scale_bits = (
        math.log2(max(1, int(np.max(np.abs(l.triples[:, :2])))))
        + math.log2(max(1, int(np.max(np.abs(ints))))) + math.log2(dl)
    )
    if scale_bits > 61:
        return None, f"the integer test needs 2^{scale_bits:.1f}, over 2^61"
    a = l.triples[:, 0] * dl
    b = l.triples[:, 1] * dl
    c = l.triples[:, 2] * dp
    # spanned and rich triples come sorted, so their classes are runs
    order = None
    if np.any((a[1:] < a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] < b[:-1]))):
        order = np.lexsort((b, a))
        a, b, c = a[order], b[order], c[order]
    size = np.diff(_class_starts(a, b))
    if size.size == c.size:
        counts = _count_dense(ints, a, b, c)
    else:
        lone = np.repeat(size == 1, size)
        many = ~lone
        counts = np.empty(c.size, dtype=np.int64)
        counts[lone] = _count_dense(ints, a[lone], b[lone], c[lone])
        counts[many] = _count_by_class(ints, a[many], b[many], c[many])
    if order is not None:
        counts[order] = counts.copy()
    return counts, ""


def _count_on_lines_float(p: DiscreteSet, l: LineSet) -> np.ndarray:
    ang, off = l.angle_offset_arrays()
    pts = p.points
    scale = max(1.0, float(np.max(np.abs(pts))) if len(p) else 1.0)
    return count_near_lines(pts, ang, off, LINE_EQ_TOL * scale)


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
    m + n + m^(1/2 + eps) * n^(1 - 2*eps). Exact lines that cannot be
    tested in int64 on the points' lattice are counted within the line
    tolerance, and the report's warnings say so.
    """
    if eps is not None and not (0.0 < eps < 0.25):
        raise PreconditionError(f"eps {eps!r} outside (0, 0.25)")
    n, m = len(p), len(l)
    warnings = ()
    if m == 0:
        counts = np.zeros(0, dtype=np.int64)
    elif l.exact:
        counts, why = _count_on_lines_exact(p, l)
        if counts is None:
            warnings = (f"exact lines counted within the line tolerance, "
                        f"not exactly: {why}",)
            counts = _count_on_lines_float(p, l)
    else:
        counts = _count_on_lines_float(p, l)
    total = int(counts.sum())
    cs = n + m + (n * m) ** 0.75
    eb = m + n + m ** (0.5 + eps) * n ** (1.0 - 2.0 * eps) if eps is not None else None
    return IncidenceReport(n, m, total, cs, eps, eb,
                           _rich_profile_from_counts(counts, n), warnings)


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
        return LineSet(triples=full.triples[keep],
                       denominator=full.denominator, point_counts=k[keep])
    ang, off = full.angle_offset_arrays()
    return LineSet(angles=ang[keep], offsets=off[keep],
                   point_counts=k[keep])


def beck_analyze(p: DiscreteSet, c_threshold: float = 64.0) -> BeckReport:
    """Connected-pair profile and the rich-line / many-lines dichotomy.

    Dyadic bracket r holds the pairs whose spanning line has between r and
    2r - 1 points; a line with exactly 2r lands in the next bracket up.
    Only the number of lines of each size is read: on lattice input it
    comes from per-anchor direction groups, with no line keys.
    """
    n = len(p)
    if n < 3:
        raise TooFewPoints("dichotomy analysis needs at least three points")
    if not (2.0 <= c_threshold < math.inf):
        raise PreconditionError(f"c_threshold {c_threshold!r} must be finite and at least 2")
    _refuse_coincident(p)
    rat = _rationalize(p.points)
    if rat is None:
        lines_with = np.bincount(_spanned_float(p.points)[2], minlength=n + 1)
    else:
        lines_with = _lines_by_size(rat[0])
    max_collinear = int(np.flatnonzero(lines_with)[-1])
    spanned_count = int(lines_with.sum())
    k = np.arange(n + 1)
    pairs_on = lines_with * (k * (k - 1) // 2)
    profile = {}
    total_pairs = 0
    r = 2
    while r <= n:
        t_r = int(pairs_on[r:2 * r].sum())
        profile[r] = t_r
        total_pairs += t_r
        l_r = int(lines_with[r:].sum())
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
    """The point lying on the most spanned lines, ties by lowest index.

    The lines through point i are its distinct directions to the other
    points.
    """
    n = len(p)
    if n < 3:
        raise TooFewPoints("the incidence maximum needs at least three points")
    _refuse_coincident(p)
    rat = _rationalize(p.points)
    if rat is None:
        raise PreconditionError(
            "per-point line counting requires lattice-representable input"
        )
    per_point = np.zeros(n, dtype=np.int64)
    for anchor, _ in _direction_groups(rat[0], every_partner=True):
        per_point += np.bincount(anchor, minlength=n)
    if per_point.max() == 1:
        raise AllCollinear("every point lies on a single line")
    best = int(np.argmax(per_point))
    return Point(*p.points[best]), int(per_point[best])
