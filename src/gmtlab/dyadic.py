"""Shared dyadic-grid utilities: cell indexing, distinct integer rows and
quota branching.

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

import numpy as np

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
    """Distinct rows of a 2-D integer array, in lexicographic order.

    Values, order, first-occurrence index, inverse and counts are those of
    np.unique(rows, axis=0, ...), from one stable lexsort over the columns.
    """
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(order.size, dtype=bool)
    np.any(srt[1:] != srt[:-1], axis=1, out=new[1:])
    uniq = srt[new]
    if not (return_index or return_inverse or return_counts):
        return uniq
    out = [uniq]
    if return_index:
        out.append(order[new])
    if return_inverse:
        inverse = np.empty(order.size, dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        out.append(inverse)
    if return_counts:
        out.append(np.diff(np.append(np.flatnonzero(new), order.size)))
    return tuple(out)


def count_cells(points: np.ndarray, side: float) -> int:
    """Number of occupied grid cells of the given side length."""
    return int(unique_rows(cell_indices(points, side)).shape[0])


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
    growth = 2.0 ** branch_log2
    base = int(math.floor(growth + 1e-12))
    frac = growth - base
    cap = np.minimum(available, hard_cap)
    counts = np.minimum(np.maximum(base, 1), cap)
    budget = frac * p + carry
    extra = int(math.floor(budget + 1e-9))
    new_carry = budget - extra
    if extra > 0:
        eligible = counts < cap
        order = np.lexsort((tiebreak, surplus, ~eligible), axis=-1)
        n_take = np.minimum(extra, eligible.sum(axis=-1, keepdims=True))
        take = np.zeros_like(eligible)
        np.put_along_axis(take, order, np.arange(p) < n_take, axis=-1)
        counts = counts + take
    return counts, new_carry


def quota_tree(branch_log2: float, levels: int, rngs: list,
               dim: int) -> np.ndarray:
    """Leaves of random quota trees, one tree per generator.

    Each tree starts from the unit cube of dimension `dim` and descends
    `levels` dyadic levels; every cell keeps children among its 2^dim
    subcells under the quota rule with branching 2^branch_log2. Per
    level, each generator draws its parents' tiebreaks and then one rank
    key per (parent, subcell); the kept subcells are the lowest-ranked.
    Returns integer cells of shape (len(rngs), n, dim), every tree with
    the same n, since the quota total depends only on the row size and
    the carry. Subcell k sits at the bits of k, lowest bit first: (0,0),
    (1,0), (0,1), (1,1) in the plane.
    """
    n_sub = 2 ** dim
    sub = (np.arange(n_sub)[:, None] >> np.arange(dim)) & 1
    hard_cap = max(1, math.ceil(2.0 ** branch_log2 - 1e-12))
    b = len(rngs)
    cells = np.zeros((b, 1, dim), dtype=np.int64)
    surplus = np.zeros((b, 1))
    carry = 0.0
    for _ in range(levels):
        p = cells.shape[1]
        tiebreak = np.stack([rng.random(p) for rng in rngs])
        keys = np.stack([rng.random((p, n_sub)) for rng in rngs])
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
