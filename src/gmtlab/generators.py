"""Discrete point set type and the deterministic generators.

Every generated set lives inside the closed ball of radius 2 around the
origin, carries a nominal resolution delta, and keeps its points either
snapped to the delta-grid or provably delta/2-separated.  Generators are
pure functions of their parameters plus an integer seed (PCG64 via
numpy's default generator), which is what makes CLI outputs replayable
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dyadic import is_dyadic, quota_child_counts
from .errors import (
    EmptyInput,
    InvariantViolation,
    PreconditionError,
    TooManyPoints,
)

BOX_RADIUS = 2.0
MAX_POINTS = 2 ** 24
RNG_ALGORITHM = "numpy-pcg64"

_SUBCELLS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int64)


@dataclass
class DiscreteSet:
    """Finite planar point set with a nominal resolution.

    points: (n, 2) float array, treated as immutable.
    delta: nominal separation / resolution in (0, 1].
    label: short human-readable tag.
    meta: provenance (generator name, seed, parameters).
    """

    points: np.ndarray
    delta: float
    label: str = ""
    meta: dict = field(default_factory=dict)
    check: bool = True

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise PreconditionError(f"points must be (n, 2), got {pts.shape}")
        if pts.shape[0] == 0:
            raise EmptyInput("a DiscreteSet needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("points contain non-finite coordinates")
        if not (0.0 < self.delta <= 1.0):
            raise PreconditionError(f"delta {self.delta!r} outside (0, 1]")
        radii = np.hypot(pts[:, 0], pts[:, 1])
        if radii.max() > BOX_RADIUS + 1e-9:
            raise PreconditionError(
                f"point at radius {radii.max():.6f} outside the working ball B(0, 2)"
            )
        pts.setflags(write=False)
        self.points = pts
        if self.check:
            self._assert_separated()

    def _assert_separated(self) -> None:
        pts, delta = self.points, self.delta
        scaled = pts / delta
        snapped = np.round(scaled)
        if np.abs(scaled - snapped).max() < 1e-6:
            # grid-aligned: distinct nodes are automatically delta-separated
            nodes = snapped.astype(np.int64)
            if np.unique(nodes, axis=0).shape[0] == pts.shape[0]:
                return
            raise InvariantViolation("duplicate grid-snapped points")
        from scipy.spatial import cKDTree

        d, _ = cKDTree(pts).query(pts, k=2)
        if d[:, 1].min() < delta / 2.0 - 1e-12:
            raise InvariantViolation(
                f"minimum separation {d[:, 1].min():.3e} below delta/2 = {delta / 2:.3e}"
            )

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def subset(self, indices: np.ndarray, *, delta: Optional[float] = None,
               label: Optional[str] = None, check: bool = True) -> "DiscreteSet":
        return DiscreteSet(
            self.points[np.asarray(indices)],
            delta if delta is not None else self.delta,
            label if label is not None else self.label,
            dict(self.meta),
            check=check,
        )


def as_points(obj) -> np.ndarray:
    """Accept a DiscreteSet or a raw coordinate sequence."""
    if isinstance(obj, DiscreteSet):
        return obj.points
    pts = np.asarray(obj, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 2)
    return pts


@dataclass(frozen=True)
class IfsSystem:
    """Iterated system of contracting similarities p -> r*R(phi)p + t."""

    maps: tuple  # of (ratio, rotation, (tx, ty))
    label: str = "ifs"
    depth: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.maps) == 0:
            raise EmptyInput("an IFS needs at least one map")
        for ratio, _rot, _t in self.maps:
            if not (0.0 < ratio < 1.0):
                raise PreconditionError(f"contraction ratio {ratio!r} outside (0, 1)")

    def similarity_dimension(self) -> float:
        """Solve sum(ratio_i^s) = 1 for s by bisection."""
        ratios = np.array([m[0] for m in self.maps], dtype=float)

        def f(s: float) -> float:
            return float(np.sum(ratios ** s)) - 1.0

        if f(0.0) <= 0.0:
            return 0.0
        lo, hi = 0.0, 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def cantor_middle_thirds() -> IfsSystem:
    """Two maps of ratio 1/3 on the x-axis (classical middle-thirds dust)."""
    return IfsSystem(
        maps=(
            (1.0 / 3.0, 0.0, (0.0, 0.0)),
            (1.0 / 3.0, 0.0, (2.0 / 3.0, 0.0)),
        ),
        label="cantor3",
    )


def four_corner_product() -> IfsSystem:
    """Four maps of ratio 1/4 at the corners of the unit square."""
    c = 3.0 / 4.0
    return IfsSystem(
        maps=(
            (0.25, 0.0, (0.0, 0.0)),
            (0.25, 0.0, (c, 0.0)),
            (0.25, 0.0, (0.0, c)),
            (0.25, 0.0, (c, c)),
        ),
        label="four-corner",
    )


def gen_ifs(system: IfsSystem, target_delta: float) -> DiscreteSet:
    """Depth-k orbit of the origin, snapped to the target_delta grid.

    k is the smallest iteration count at which the largest contraction
    ratio has fallen to target_delta or below; the snapped orbit is
    deduplicated.
    """
    if not (0.0 < target_delta < 1.0):
        raise PreconditionError(f"target_delta {target_delta!r} outside (0, 1)")
    if system.depth is not None:
        depth = int(system.depth)
        if depth < 1:
            raise PreconditionError("explicit depth must be >= 1")
    else:
        rmax = max(m[0] for m in system.maps)
        depth = 1
        reach = rmax
        while reach > target_delta:
            depth += 1
            reach *= rmax
    m = len(system.maps)
    if m ** depth > MAX_POINTS:
        raise TooManyPoints(f"{m}^{depth} orbit points exceed the 2^24 cap")

    pts = np.zeros((1, 2))
    mats = []
    for ratio, rot, (tx, ty) in system.maps:
        c, s = math.cos(rot), math.sin(rot)
        mats.append((ratio * np.array([[c, -s], [s, c]]), np.array([tx, ty])))
    for _ in range(depth):
        pts = np.concatenate([pts @ mat.T + t for mat, t in mats], axis=0)

    snapped = np.round(pts / target_delta) * target_delta
    snapped = np.unique(snapped, axis=0)
    return DiscreteSet(
        snapped,
        target_delta,
        label=system.label,
        meta={
            "generator": "ifs",
            "seed": None,
            "params": {"label": system.label, "depth": depth, "target_delta": target_delta},
        },
    )


def gen_random_delta_s_set(s: float, delta: float, seed: int) -> DiscreteSet:
    """Random dyadic-branching set with about delta^-s points.

    Starting from the unit square, each occupied square keeps children
    among its four dyadic subsquares; the branching factor averages 2^s
    per level (quota rounding, extra children go to the lineages that
    are furthest behind), and leaves are emitted as lower-left corners,
    which are delta-grid nodes by construction.
    """
    if not (0.0 <= s <= 2.0):
        raise PreconditionError(f"s {s!r} outside [0, 2]")
    if not (2.0 ** -14 - 1e-12 <= delta <= 0.25 + 1e-12) or not is_dyadic(delta):
        raise PreconditionError(f"delta {delta!r} must be dyadic in [2^-14, 2^-2]")
    levels = int(round(math.log2(1.0 / delta)))
    if 2.0 ** (s * levels) > MAX_POINTS:
        raise TooManyPoints(f"target size 2^{s * levels:.1f} exceeds the 2^24 cap")
    rng = np.random.default_rng(seed)

    cells = np.zeros((1, 2), dtype=np.int64)
    surplus = np.zeros(1)
    hard_cap = int(math.ceil(2.0 ** s - 1e-12))
    carry = 0.0
    for _ in range(levels):
        p = cells.shape[0]
        counts, carry = quota_child_counts(
            surplus,
            branch_log2=s,
            available=np.full(p, 4, dtype=np.int64),
            hard_cap=max(hard_cap, 1),
            tiebreak=rng.random(p),
            carry=carry,
        )
        ranks = np.argsort(rng.random((p, 4)), axis=1).argsort(axis=1)
        parent_idx, sub_idx = np.nonzero(ranks < counts[:, None])
        cells = cells[parent_idx] * 2 + _SUBCELLS[sub_idx]
        surplus = surplus[parent_idx] + np.log2(counts[parent_idx]) - s

    pts = cells.astype(float) * delta
    return DiscreteSet(
        pts,
        delta,
        label=f"random-s{s:g}",
        meta={
            "generator": "random_delta_s",
            "seed": int(seed),
            "rng": RNG_ALGORITHM,
            "params": {"s": s, "delta": delta},
        },
    )


def gen_planted_collinear(n: int, k: int, seed: int) -> DiscreteSet:
    """n points of which exactly n-k are collinear (on y = 1/2).

    Coordinates are drawn on the 2^-16 grid so incidence statistics run
    in exact arithmetic; drawing repeats until the maximum collinearity
    equals n-k exactly.
    """
    # incidence imports this module, so the line keying is imported here
    from .incidence import _spanned_exact

    if not (4 <= n <= 2 ** 12):
        raise PreconditionError(f"n {n!r} outside [4, 4096]")
    if not (0 <= k <= n - 2):
        raise PreconditionError(f"k {k!r} outside [0, n-2]")
    rng = np.random.default_rng(seed)
    grid = 2 ** 16
    half = grid // 2
    m = n - k
    for _ in range(64):
        xs = np.unique(rng.integers(0, grid + 1, size=2 * m + 8))
        if xs.size < m:
            continue
        xs = rng.permutation(xs)[:m]
        on_line = np.stack([xs, np.full(m, half, dtype=np.int64)], axis=1)
        off = rng.integers(0, grid + 1, size=(2 * k + 8, 2))
        off = off[off[:, 1] != half]
        off = np.unique(off, axis=0)
        if off.shape[0] < k:
            continue
        off = off[rng.permutation(off.shape[0])[:k]]
        ipts = np.concatenate([on_line, off], axis=0)
        if np.unique(ipts, axis=0).shape[0] != n:
            continue
        if int(_spanned_exact(ipts)[1].max()) == m:
            pts = ipts.astype(float) / grid
            return DiscreteSet(
                pts,
                2.0 ** -16,
                label=f"planted-{n}-{k}",
                meta={
                    "generator": "planted_collinear",
                    "seed": int(seed),
                    "rng": RNG_ALGORITHM,
                    "params": {"n": n, "k": k},
                },
            )
    raise InvariantViolation("could not realize exact max collinearity; seed exhausted")


def gen_grid(m: int) -> DiscreteSet:
    """The m x m integer grid scaled into the unit square."""
    if not (2 <= m <= 2 ** 10):
        raise PreconditionError(f"m {m!r} outside [2, 1024]")
    coords = np.arange(m, dtype=float) / (m - 1)
    xs, ys = np.meshgrid(coords, coords, indexing="xy")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    delta = 2.0 ** -math.ceil(math.log2(m - 1)) if m > 2 else 1.0
    return DiscreteSet(
        pts,
        delta,
        label=f"grid-{m}",
        meta={"generator": "grid", "seed": None, "params": {"m": m}},
        check=False,  # spacing 1/(m-1) >= delta by construction
    )


def segment_set(n: int, *, vertical: bool = False) -> DiscreteSet:
    """n equispaced points on a coordinate-axis unit segment."""
    if n < 2:
        raise PreconditionError("need at least two points")
    t = np.arange(n, dtype=float) / n
    zeros = np.zeros(n)
    pts = np.stack([zeros, t] if vertical else [t, zeros], axis=1)
    step = 1.0 / n
    lead = 2.0 ** -math.ceil(math.log2(n))
    return DiscreteSet(
        pts,
        min(step, lead),
        label="segment-v" if vertical else "segment",
        meta={"generator": "segment", "seed": None, "params": {"n": n, "vertical": vertical}},
        check=False,
    )


def circle_set(n: int, radius: float = 1.0, center: Sequence[float] = (0.0, 0.0)) -> DiscreteSet:
    """n equispaced points on a circle."""
    if n < 3:
        raise PreconditionError("need at least three points")
    ang = 2.0 * math.pi * np.arange(n) / n
    pts = np.stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)], axis=1
    )
    chord = 2.0 * radius * math.sin(math.pi / n)
    delta = 2.0 ** math.floor(math.log2(chord))
    return DiscreteSet(
        pts,
        delta,
        label=f"circle-{n}",
        meta={"generator": "circle", "seed": None,
              "params": {"n": n, "radius": radius, "center": list(center)}},
    )
