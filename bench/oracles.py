"""Reference computations the benchmark checks gmtlab against.

Everything here is plain Python on integers or floats, written apart from
the library: lattice points are handled as integer pairs, lines as
gcd-reduced integer triples, and every count is a brute-force scan. The
functions are slow on purpose; the workloads call them outside the timed
region and cache what does not depend on gmtlab's output.
"""

from __future__ import annotations

import itertools
import math


# -- point sets -----------------------------------------------------------

def parabola_points(n: int, prime: int, rng) -> list:
    """n lattice points (x, q(x) mod prime) for a random quadratic q.

    A parabola over the field with `prime` elements meets every line in at
    most two points, and three collinear integer points would stay
    collinear mod prime, so no three of these points are collinear.
    """
    a = rng.randrange(1, prime)
    b = rng.randrange(prime)
    c = rng.randrange(prime)
    xs = rng.sample(range(prime), n)
    return [(x, (a * x * x + b * x + c) % prime) for x in xs]


def four_corner_lattice(depth: int) -> set:
    """Integer coordinates, on the 4^-depth grid, of the depth-`depth`
    orbit of the origin under p -> p/4 + t with t in {0, 3/4}^2."""
    digits = [0]
    for _ in range(depth):
        digits = [4 * d + b for d in digits for b in (0, 3)]
    return {(x, y) for x in digits for y in digits}


def lattice_coords(points, pitch: float) -> list:
    """Integer coordinates of points on the origin-anchored lattice of the
    given pitch; raises ValueError when a point is off the lattice."""
    out = []
    for x, y in points:
        ix, iy = round(x / pitch), round(y / pitch)
        if ix * pitch != x or iy * pitch != y:
            raise ValueError(f"({x!r}, {y!r}) is not on the {pitch!r} lattice")
        out.append((ix, iy))
    return out


# -- lines and incidences -------------------------------------------------

def reduced_triple(p, q) -> tuple:
    """The line a*x + b*y = c through integer points p != q, with
    gcd(a, b, c) = 1 and (a, b) lexicographically positive."""
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = a * p[0] + b * p[1]
    g = math.gcd(math.gcd(a, b), c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def line_census(ints: list) -> dict:
    """Every line spanned by distinct integer points, mapped to the number
    of points on it."""
    pairs: dict = {}
    n = len(ints)
    for i in range(n):
        p = ints[i]
        for j in range(i + 1, n):
            t = reduced_triple(p, ints[j])
            pairs[t] = pairs.get(t, 0) + 1
    # a line with k points carries k(k-1)/2 pairs
    return {t: (1 + math.isqrt(1 + 8 * m)) // 2 for t, m in pairs.items()}


def exact_incidences(ints: list, triples) -> int:
    """Point-line pairs with a*x + b*y == c, in integer arithmetic."""
    return sum(1 for a, b, c in triples for x, y in ints if a * x + b * y == c)


def near_incidences(ints: list, pitch: float, triples, tol: float) -> int:
    """Point-line pairs at Euclidean distance at most tol, for integer
    points and lines on the lattice of the given pitch."""
    total = 0
    for a, b, c in triples:
        scale = pitch / math.hypot(a, b)
        total += sum(1 for x, y in ints if abs(a * x + b * y - c) * scale <= tol)
    return total


# -- dyadic cells and balls -------------------------------------------------

def occupied_cells(ints: list, shift: int) -> int:
    """Occupied cells after merging 2^shift lattice steps per side."""
    return len({(x >> shift, y >> shift) for x, y in ints})


def ball_mass(points, weights, centre, radius: float, tol: float = 0.0) -> float:
    """Total weight of the points at distance at most radius + tol from
    centre. With tol 0 the test compares squared distances, which are
    exact for dyadic inputs."""
    cx, cy = centre
    if tol == 0.0:
        r2 = radius * radius
        return sum(w for (x, y), w in zip(points, weights)
                   if (x - cx) ** 2 + (y - cy) ** 2 <= r2)
    lim = radius + tol
    return sum(w for (x, y), w in zip(points, weights) if math.hypot(x - cx, y - cy) <= lim)


def points_in_ball(points, centre, radius: float, tol: float = 0.0) -> int:
    """Points at distance at most radius + tol from centre."""
    return ball_mass(points, itertools.repeat(1), centre, radius, tol)


def log2_slope(xs, ys) -> float:
    """Least-squares slope of log2(y) against x."""
    ly = [math.log2(y) for y in ys]
    xm = sum(xs) / len(xs)
    ym = sum(ly) / len(ly)
    sxy = sum((x - xm) * (y - ym) for x, y in zip(xs, ly))
    sxx = sum((x - xm) ** 2 for x in xs)
    return sxy / sxx


def heaviest_tube_mass(points, weights, centre, width: float, tol: float) -> float:
    """Largest mass in a width-`width` tube through centre whose direction
    is a multiple of `width`, scanning every direction."""
    cx, cy = centre
    rel = [(x - cx, y - cy) for x, y in points]
    best = 0.0
    for j in range(math.ceil(math.pi / width)):
        ang = j * width
        nx, ny = -math.sin(ang), math.cos(ang)
        lim = width / 2.0 + tol
        mass = sum(w for (dx, dy), w in zip(rel, weights) if abs(dx * nx + dy * ny) <= lim)
        best = max(best, mass)
    return best


# -- tubes ------------------------------------------------------------------

def _chord_ends(theta_p: float, d_p: float, halfwidth_p: float) -> tuple:
    """The four ends of the probe tube's edge chords in the unit disc, and
    the edges' normal coordinates v0 <= v1."""
    npx, npy = -math.sin(theta_p), math.cos(theta_p)
    ex, ey = math.cos(theta_p), math.sin(theta_p)
    v0 = max(-1.0, d_p - halfwidth_p)
    v1 = min(1.0, d_p + halfwidth_p)
    ends = []
    for v in (v0, v1):
        u = math.sqrt(max(0.0, 1.0 - v * v))
        ends.extend((su * ex + v * npx, su * ey + v * npy) for su in (u, -u))
    return ends, v0, v1


def probe_contained(theta_f: float, d_f: float, halfwidth_f: float,
                    theta_p: float, d_p: float, halfwidth_p: float,
                    tol: float) -> bool:
    """Whether the tube {|p . n(theta_f) - d_f| <= halfwidth_f} holds the
    part of the probe tube {|p . n(theta_p) - d_p| <= halfwidth_p} inside
    the closed unit disc, where n(t) = (-sin t, cos t).

    The region is convex, so the distance to the member axis is largest
    at an extreme point: one of the four ends of the two edge chords, or
    the disc point +-n(theta_f) when it lies between the edges.
    """
    nfx, nfy = -math.sin(theta_f), math.cos(theta_f)
    lim = halfwidth_f + tol
    ends, v0, v1 = _chord_ends(theta_p, d_p, halfwidth_p)
    if any(abs(px * nfx + py * nfy - d_f) > lim for px, py in ends):
        return False
    # normal coordinate of n(theta_f) in the probe frame
    v = nfx * -math.sin(theta_p) + nfy * math.cos(theta_p)
    return all(abs(sign - d_f) <= lim for sign in (1.0, -1.0) if v0 <= sign * v <= v1)


def containment_count(members, halfwidth: float, theta_p: float,
                      d_p: float, halfwidth_p: float, tol: float) -> int:
    """Members, as (angle, offset) pairs, that contain the probe; a scan
    over the whole family.

    A member must hold the first chord end, which few do; the full test
    runs only for those."""
    (px, py), *_ = _chord_ends(theta_p, d_p, halfwidth_p)[0]
    lim = halfwidth + tol
    normals: dict = {}
    count = 0
    for t, d in members:
        nrm = normals.get(t)
        if nrm is None:
            nrm = normals[t] = (-math.sin(t), math.cos(t))
        if abs(px * nrm[0] + py * nrm[1] - d) <= lim and probe_contained(
                t, d, halfwidth, theta_p, d_p, halfwidth_p, tol):
            count += 1
    return count


# -- bootstrap schedule -------------------------------------------------------

def bootstrap_closed_form(sigma: float, s: float, eps: float,
                          k_constant: float = 1.0,
                          frostman_constant: float = 1.0) -> dict:
    """Closed-form constants of the thin-tube bootstrap: eta and kappa,
    and the base-2 logarithms of r0, r1, r2 and K'."""
    gap = s - sigma
    eta = min(eps, gap / 4.0, 0.5 * (gap / (14.0 - 8.0 * gap)) ** 2)
    log2_r2 = (math.log2(eta * eps) - 2.0) / eta
    # r1 is the largest power of two strictly below (6 C_F)^(-1/eta)
    log2_r1 = float(math.ceil(-math.log2(6.0 * frostman_constant) / eta) - 1)
    log2_r0 = min(-math.log2(k_constant) / eta, log2_r1, log2_r2)
    return {
        "eta": eta,
        "kappa": 14.0 * eta / gap,
        "log2_r0": log2_r0,
        "log2_r1": log2_r1,
        "log2_r2": log2_r2,
        "log2_k_prime": max(math.log2(k_constant) / eta, -log2_r2,
                            -(sigma + eta) * log2_r0),
    }
