"""Dyadic grid utilities, covering numbers, and dimension estimates.

Frozen values in here were derived by hand or by a second, independent
counting route before being pinned; when a number appears as a bare
constant it is an oracle, not a regression snapshot.
"""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gmtlab import covering, dyadic
from gmtlab.covering import (
    DeltaSCheck,
    box_dimension,
    circle_box_dimension,
    circle_covering_number,
    covering_number,
    fit_log2_slope,
    frostman_extract,
    hausdorff_content,
    per_scale_counts,
    verify_delta_s_set,
)
from gmtlab.dyadic import (
    MAX_LEVEL,
    cell_indices,
    count_cells,
    is_dyadic,
    lattice_nodes,
    level_of,
    quota_child_counts,
    quota_row_sizes,
    quota_tree,
    unique_rows,
)
from gmtlab.errors import (
    EmptyInput,
    InvariantViolation,
    PreconditionError,
    ScaleRangeTooNarrow,
)
from gmtlab.generators import (
    DiscreteSet,
    cantor_middle_thirds,
    gen_grid,
    gen_ifs,
    gen_random_delta_s_set,
    segment_set,
)
from gmtlab.geometry import Point


# ---------------------------------------------------------------------------
# grid indexing
# ---------------------------------------------------------------------------


def test_level_of():
    assert level_of(1.0) == 0
    assert level_of(2.0 ** -5) == 5
    assert level_of(0.3) == 1
    assert level_of(2.0 ** -30) == MAX_LEVEL
    with pytest.raises(ValueError):
        level_of(0.0)


def test_is_dyadic():
    assert is_dyadic(0.25)
    assert is_dyadic(2.0 ** -13)
    assert not is_dyadic(0.3)
    assert not is_dyadic(3.0 ** -4)


def test_count_cells_matches_set_of_tuples(rng):
    pts = rng.uniform(-1.0, 2.0, size=(400, 2))
    for side in (0.5, 0.25, 0.125):
        expected = len({
            (math.floor(x / side), math.floor(y / side)) for x, y in pts
        })
        assert count_cells(pts, side) == expected


_FLAG_SETS = [(i, v, c) for i in (False, True) for v in (False, True) for c in (False, True)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.integers(-3, 3) | st.integers(-2 ** 40, 2 ** 40), min_size=k, max_size=k),
    min_size=1, max_size=40,
)))
def test_unique_rows_matches_np_unique(rows):
    """Values, first-occurrence index, inverse and counts agree with
    np.unique(axis=0) in value, dtype and shape, for every flag set."""
    a = np.array(rows, dtype=np.int64)
    for flags in _FLAG_SETS:
        want = np.unique(a, axis=0, return_index=flags[0],
                         return_inverse=flags[1], return_counts=flags[2])
        got = unique_rows(a, *flags)
        if not any(flags):
            want, got = (want,), (got,)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)


def _unique_rows_lexsort_oracle(rows, return_index=False, return_inverse=False,
                                return_counts=False):
    """dyadic.unique_rows before int64 rows packed into one key: one stable
    lexsort over the columns for every input."""
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


def _range_bits(a):
    """Bits of the column ranges (max - min) summed over the columns."""
    return sum((int(col.max()) - int(col.min())).bit_length() for col in a.T)


@st.composite
def _int64_rows(draw):
    """int64 rows of one to three columns whose ranges need a drawn number
    of bits each, summing to a few bits, to exactly 63 (one packed key) or
    to 64 (the lexsort): each column holds its minimum and maximum, values
    between, repeats, and negative values wherever its minimum falls."""
    k = draw(st.integers(1, 3))
    total = draw(st.sampled_from([None, 63, 64]))
    if total is None:
        bits = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
        bits = np.diff([0, *cuts, total]).tolist()
    n = draw(st.integers(2, 12))
    cols = []
    for b in bits:
        span = 0 if b == 0 else draw(st.integers(2 ** (b - 1), 2 ** b - 1))
        lo = draw(st.integers(-2 ** 63, 2 ** 63 - 1 - span))
        rest = st.sampled_from([lo, lo + span]) | st.integers(lo, lo + span)
        cols.append(draw(st.permutations(
            [lo, lo + span] + draw(st.lists(rest, min_size=n - 2, max_size=n - 2)))))
    a = np.array(cols, dtype=np.int64).T
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=6))
    a = np.concatenate([a, a[repeats]])
    assert total is None or _range_bits(a) == total
    return a


@settings(max_examples=300, deadline=None)
@given(_int64_rows())
@example(np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
@example(np.array([[-2 ** 31, 5], [2 ** 31, 5], [-2 ** 31, 6]]))       # 33 + 1 bits
@example(np.array([[-2 ** 62, 0], [2 ** 62 - 1, 1], [2 ** 62 - 1, 1]]))  # 63 + 1 bits
@example(np.array([[0, -2 ** 31], [2 ** 31 - 1, 2 ** 31 - 1], [0, -2 ** 31]]))  # 31 + 32
def test_unique_rows_matches_lexsort_oracle(a):
    """The packed key (ranges up to 63 bits) and the lexsort (64 bits,
    float rows, empty input) give the retained lexsort's values, index,
    inverse and counts under every flag set, in any row order."""
    for rows in (a, a[::-1], a[:1], a[:0], a.astype(float), (a % 5).astype(float) / 4):
        for flags in _FLAG_SETS:
            want = _unique_rows_lexsort_oracle(rows, *flags)
            got = unique_rows(rows, *flags)
            if not any(flags):
                want, got = (want,), (got,)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)


def test_unique_rows_packs_int64_ranges_up_to_63_bits(monkeypatch):
    """Ranges of 31 + 32 = 63 bits sort as one key, with no lexsort; 32 +
    32 = 64 bits, int32 and float rows take the lexsort."""
    packed = np.array([[0, -2 ** 31], [2 ** 31 - 1, 2 ** 31 - 1], [0, -2 ** 31]])
    wide = packed.copy()
    wide[1, 0] += 1
    assert _range_bits(packed) == 63 and _range_bits(wide) == 64

    def no_lexsort(*args, **kwargs):
        raise AssertionError("lexsort")

    monkeypatch.setattr(np, "lexsort", no_lexsort)
    assert unique_rows(packed).tolist() == [[0, -2 ** 31], [2 ** 31 - 1, 2 ** 31 - 1]]
    assert unique_rows(packed, return_counts=True)[1].tolist() == [2, 1]
    for rows in (wide, packed.astype(np.int32), packed.astype(float), packed[:0]):
        with pytest.raises(AssertionError, match="lexsort"):
            unique_rows(rows)


def test_only_dyadic_dedupes_integer_rows():
    """Row distinctness goes through dyadic.unique_rows: no module of the
    package but dyadic.py calls np.unique with an axis."""
    pkg = Path(__file__).resolve().parents[1] / "src" / "gmtlab"
    modules = sorted(pkg.glob("*.py"))
    assert modules
    offenders = []
    for path in modules:
        if path.name == "dyadic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and any(kw.arg == "axis" for kw in node.keywords)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_cell_indices_negative_coordinates():
    cells = cell_indices(np.array([[-0.1, 0.1]]), 0.5)
    assert cells.tolist() == [[-1, 0]]


def test_lattice_nodes_with_negative_coordinates():
    pts = np.array([[-0.375, 0.5], [0.0, -1.25], [-2.0, -0.125]])
    nodes = lattice_nodes(pts, 0.125)
    assert nodes.dtype == np.int64
    assert nodes.tolist() == [[-3, 4], [0, -10], [-16, -1]]


def test_lattice_nodes_at_a_pitch_that_is_not_dyadic():
    k = np.array([[0, 1], [-3, 7], [12, -5]])
    nodes = lattice_nodes(k * 0.1, 0.1)
    assert nodes is not None and nodes.tolist() == k.tolist()


def test_lattice_nodes_refuses_a_point_off_its_node():
    """1e-7 of the pitch is inside the separation check's snap, but the
    point is not a node, so it has none."""
    pitch = 2.0 ** -7
    pts = np.array([[0.0, 0.0], [pitch * (1 + 1e-7), 0.0], [0.0, pitch]])
    assert lattice_nodes(pts, pitch) is None
    assert lattice_nodes(pts[[0, 2]], pitch).tolist() == [[0, 0], [0, 1]]


# ---------------------------------------------------------------------------
# quota branching
# ---------------------------------------------------------------------------


@given(
    p=st.integers(1, 40),
    branch=st.floats(0.2, 2.0),
    carry=st.floats(0.0, 0.999),
    seed=st.integers(0, 2 ** 31),
)
@example(p=1, branch=1.9999999999999998, carry=0.0, seed=0)  # 2^branch just below 4
@settings(max_examples=80, deadline=None)
def test_quota_counts_stay_in_range(p, branch, carry, seed):
    r = np.random.default_rng(seed)
    surplus = r.normal(size=p)
    available = r.integers(1, 5, size=p)
    hard_cap = int(math.ceil(2.0 ** branch))
    counts, new_carry = quota_child_counts(
        surplus, branch, available, hard_cap, tiebreak=r.random(p), carry=carry
    )
    assert (counts >= 1).all()
    assert (counts <= np.minimum(available, hard_cap)).all()
    assert 0.0 <= new_carry < 1.0 + 1e-9


@given(p=st.integers(1, 64), seed=st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_quota_budget_conservation(p, seed):
    """With no caps binding, total kept equals the rounded-down budget
    base*p + floor(frac*p + carry), and the carry keeps the remainder."""
    r = np.random.default_rng(seed)
    branch = 0.7
    base = int(math.floor(2.0 ** branch))
    frac = 2.0 ** branch - base
    available = np.full(p, 8)
    counts, new_carry = quota_child_counts(
        r.normal(size=p), branch, available, hard_cap=8,
        tiebreak=r.random(p), carry=0.0,
    )
    expected_total = base * p + int(math.floor(frac * p + 1e-9))
    assert int(counts.sum()) == expected_total
    assert new_carry == pytest.approx(frac * p - math.floor(frac * p + 1e-9),
                                      abs=1e-6)


def test_quota_prefers_lowest_surplus():
    surplus = np.array([0.5, -1.0, 0.0])
    counts, _ = quota_child_counts(
        surplus, 0.5, np.full(3, 4), hard_cap=2,
        tiebreak=np.zeros(3), carry=0.0,
    )
    # 2^0.5 ~ 1.41 gives budget floor(.41*3)=1 extra child, to index 1
    assert counts.tolist() == [1, 2, 1]


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------


def test_covering_number_trivial_cases():
    one = DiscreteSet(np.array([[0.3, 0.3]]), 0.5)
    assert covering_number(one, 0) == 1
    assert covering_number(one, 1) == 1
    with pytest.raises(PreconditionError):
        covering_number(one, -1)


def _cantor_corner_cells(depth: int, level: int) -> int:
    """Exact-rational oracle: the generator emits the left corner of each
    surviving ternary interval, so count the dyadic cells those corners
    occupy."""
    corners = [Fraction(0)]
    for _ in range(depth):
        corners = [c / 3 for c in corners] + [c / 3 + Fraction(2, 3) for c in corners]
    side = 2 ** level
    return len({(c * side).__floor__() for c in corners})


@pytest.mark.parametrize("depth,expected", [(6, 27), (7, 28)])
def test_cantor_level6_covering(depth, expected, cantor6):
    """Level-6 dyadic cells occupied by the middle-thirds corner points.

    Several depth-7 corners share a 2^-6 cell, so the count is 28 rather
    than the naive 2^6 = 64; the depth-6 set drops one more to 27.  Both
    values come out of the exact-arithmetic oracle above.
    """
    assert _cantor_corner_cells(depth, 6) == expected
    if depth == 6:
        assert covering_number(cantor6, 6) == expected
    else:
        deep = gen_ifs(cantor_middle_thirds(), 3.0 ** -7)
        assert covering_number(deep, 6) == expected


def test_per_scale_counts_monotone(fourcorner4):
    counts = per_scale_counts(fourcorner4, 0, 8)
    values = [c for _, c in counts]
    assert values[0] == 1
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_box_dimension_of_segment():
    est = box_dimension(segment_set(512), 2, 9)
    assert est.slope == pytest.approx(1.0, abs=0.02)
    assert est.r_squared > 0.999


def test_box_dimension_window_validation(segment256):
    with pytest.raises(ScaleRangeTooNarrow):
        box_dimension(segment256, 3, 4)
    with pytest.raises(PreconditionError):
        box_dimension(segment256, 5, 14)  # probes below the set resolution


def test_fit_log2_slope_exact_line():
    levels = np.arange(2, 9, dtype=float)
    values = 2.0 ** (1.5 * levels + 0.25)
    slope, intercept, r2 = fit_log2_slope(levels, values)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert intercept == pytest.approx(0.25, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def _ortho_slopes_oracle(levels, counts):
    """orthogonal_exceptional_profile's former private slope fit, one
    column of covering counts per direction."""
    logs = np.log2(counts)
    xm = levels.mean()
    sxx = float(np.sum((levels - xm) ** 2))
    return (levels - xm) @ (logs - logs.mean(axis=0)) / sxx


@given(lo=st.integers(0, 4), n_levels=st.integers(4, 9), seed=st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_fit_log2_slope_columns_match_ortho_oracle(lo, n_levels, seed):
    levels = np.arange(lo, lo + n_levels, dtype=float)
    counts = np.random.default_rng(seed).integers(1, 1 << 12, size=(n_levels, 33))
    slopes, intercepts, r2 = fit_log2_slope(levels, counts.astype(float))
    assert np.array_equal(slopes, _ortho_slopes_oracle(levels, counts))
    for j in (0, 16, 32):
        one = fit_log2_slope(levels, counts[:, j])
        assert one == pytest.approx((slopes[j], intercepts[j], r2[j]), abs=1e-12)


def _quota_child_counts_oracle(surplus, branch_log2, available, hard_cap,
                               tiebreak, carry=0.0):
    """quota_child_counts before it worked along the last axis: a lexsort
    over the eligible parents of one population. The fraction is clamped at
    0 as in quota_child_counts since it stopped returning a negative carry
    for 2^branch just below an integer."""
    p = surplus.shape[0]
    growth = 2.0 ** branch_log2
    base = int(math.floor(growth + 1e-12))
    frac = max(0.0, growth - base)
    cap = np.minimum(available, hard_cap)
    counts = np.minimum(np.maximum(base, 1), cap)
    budget = frac * p + carry
    extra = int(math.floor(budget + 1e-9))
    new_carry = budget - extra
    if extra > 0:
        eligible = np.nonzero(counts < cap)[0]
        if eligible.size:
            order = np.lexsort((tiebreak[eligible], surplus[eligible]))
            take = eligible[order[: min(extra, eligible.size)]]
            counts = counts.copy()
            counts[take] += 1
    return counts, new_carry


@given(
    rows=st.integers(1, 5),
    p=st.integers(0, 40),
    branch=st.floats(0.0, 2.0),
    hard_cap=st.integers(1, 4),
    carry=st.floats(0.0, 0.999),
    seed=st.integers(0, 2 ** 31),
)
@example(rows=1, p=1, branch=1.9999999999999998, hard_cap=1, carry=0.0, seed=0)
@settings(max_examples=200, deadline=None)
def test_quota_child_counts_matches_oracle(rows, p, branch, hard_cap, carry, seed):
    """Tied surpluses and tiebreaks, available below the cap; each row of a
    2-D call equals the 1-D call on that row."""
    r = np.random.default_rng(seed)
    surplus = r.choice([-1.0, -0.25, 0.0, 0.5], size=(rows, p))
    available = r.integers(1, 5, size=(rows, p))
    tiebreak = r.choice([0.0, 0.5, 1.0], size=(rows, p))
    got, got_carry = quota_child_counts(surplus, branch, available, hard_cap,
                                        tiebreak=tiebreak, carry=carry)
    assert got.shape == (rows, p)
    for i in range(rows):
        one, one_carry = quota_child_counts(surplus[i], branch, available[i], hard_cap,
                                            tiebreak=tiebreak[i], carry=carry)
        want, want_carry = _quota_child_counts_oracle(
            surplus[i], branch, available[i], hard_cap, tiebreak[i], carry)
        assert one.dtype == want.dtype and np.array_equal(one, want)
        assert np.array_equal(got[i], want)
        assert one_carry == got_carry == want_carry


def _quota_tree_oracle(branch_log2, levels, rngs, dim, kind=None):
    """quota_tree before each generator drew its whole walk in one call:
    per level, a list comprehension over the generators for the
    tiebreaks and another for the rank keys, ranked by argsort of the
    given kind."""
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
        ranks = np.argsort(keys, axis=2, kind=kind).argsort(axis=2)
        parent, sub_idx = np.divmod(
            np.flatnonzero(ranks < counts[:, :, None]), n_sub)
        cells = (cells.reshape(-1, dim)[parent] * 2
                 + sub[sub_idx]).reshape(b, -1, dim)
        counts = counts.reshape(-1)[parent]
        surplus = (surplus.reshape(-1)[parent] + np.log2(counts)
                   - branch_log2).reshape(b, -1)
    return cells


class _TiedRng:
    """A generator whose doubles come from {0, 1/4, 1/2} in a fixed order,
    so rank keys and tiebreaks tie: every row of four keys holds a tie."""

    def __init__(self, seed):
        self.vals = np.random.default_rng(seed).integers(0, 3, 1 << 14) / 4.0
        self.at = 0

    def random(self, size=None, out=None):
        shape = out.shape if out is not None else size
        vals = self.vals[self.at:self.at + int(np.prod(shape))].reshape(shape)
        self.at += vals.size
        if out is None:
            return vals
        out[...] = vals
        return out


@pytest.mark.parametrize("dim, branch, levels", [
    (1, 0.5, 10), (1, 0.9, 8), (2, 1.0, 6), (2, 1.5, 5), (2, 0.4, 8),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quota_tree_ranks_tied_keys_by_subcell(dim, branch, levels, seed):
    """Of tied keys the lower subcell ranks first, as a stable argsort
    orders them. The default argsort is not the oracle here: its tie
    order on rows of four depends on the host's sort kernel (on AVX-512
    hosts it orders the keys (1/2, 1/2, 0, 0) as 3, 2, 1, 0)."""
    got = quota_tree(branch, levels, [_TiedRng((seed, i)) for i in range(3)], dim)
    want = _quota_tree_oracle(branch, levels, [_TiedRng((seed, i)) for i in range(3)],
                              dim, kind="stable")
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # one tree, one level, keys (1/2, 1/2, 0, 0): subcells 2 then 3 are
    # kept first, then 0 before 1
    for kept, want_cells in [(1, [[0, 1]]), (3, [[0, 0], [0, 1], [1, 1]])]:
        rng = _TiedRng(0)
        rng.vals = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
        got = quota_tree(math.log2(kept), 1, [rng], 2)[0]
        assert got.tolist() == want_cells


class _RecordingRng:
    """A generator that logs the size of every random() call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def random(self, size=None, out=None):
        self.calls.append(out.shape if out is not None else size)
        return self.rng.random(size, out=out)


@given(
    dim=st.integers(1, 2),
    u=st.floats(0.0, 1.0),
    n_gen=st.integers(1, 5),
    levels=st.integers(0, 12),
    seed=st.integers(0, 2 ** 31),
)
@example(dim=1, u=0.0, n_gen=3, levels=12, seed=0)
@example(dim=1, u=1.0, n_gen=2, levels=12, seed=1)
@example(dim=2, u=0.5, n_gen=4, levels=7, seed=2)  # branch 1
@example(dim=2, u=1.0, n_gen=2, levels=7, seed=3)  # branch 2
@example(dim=2, u=5e-14, n_gen=5, levels=12, seed=4)  # branch 1e-13, hard cap 1
@example(dim=2, u=0.9999999999999999, n_gen=1, levels=7, seed=5)  # 2^branch just below 4
@example(dim=1, u=5e-14, n_gen=2, levels=12, seed=6)
@settings(max_examples=150, deadline=None)
def test_quota_tree_matches_oracle(dim, u, n_gen, levels, seed):
    """Leaves equal the per-level walk's; each generator draws its walk in
    one call of (1 + 2^dim) * sum(row sizes) doubles and ends at the same
    stream position; quota_row_sizes gives the row sizes the walk took."""
    branch = u * dim
    assume(branch * levels <= 15.0)
    got_rngs = [_RecordingRng((seed, i)) for i in range(n_gen)]
    want_rngs = [_RecordingRng((seed, i)) for i in range(n_gen)]
    got = quota_tree(branch, levels, got_rngs, dim)
    want = _quota_tree_oracle(branch, levels, want_rngs, dim)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [r.random() for r in got_rngs] == [r.random() for r in want_rngs]
    walked = want_rngs[0].calls[:-1:2]
    assert want_rngs[0].calls[1:-1:2] == [(p, 2 ** dim) for p in walked]
    hard_cap = max(1, math.ceil(2.0 ** branch - 1e-12))
    assert quota_row_sizes(branch, levels, min(2 ** dim, hard_cap)) == walked
    assert all(r.calls[:-1] == [((1 + 2 ** dim) * sum(walked),)] for r in got_rngs)


# ---------------------------------------------------------------------------
# circle covering
# ---------------------------------------------------------------------------


class TestCircleCovering:
    def test_halving_convention(self):
        """Level l cuts the circle into 2^l arcs of width 2*pi*2^-l."""
        angles = [0.1, 0.2, math.pi, 2.0 * math.pi - 0.1]
        assert circle_covering_number(angles, 0) == 1
        assert circle_covering_number(angles, 1) == 2
        assert circle_covering_number(angles, 3) == 3

    def test_wraps_modulo_two_pi(self):
        assert circle_covering_number([0.05, 2.0 * math.pi + 0.05], 4) == 1

    def test_interval_mode_counts_spanned_arcs(self):
        h = math.pi / 2.0 - 1e-6
        # centered on an arc boundary, a near-pi-wide interval spans 2 arcs
        assert circle_covering_number([-h], 2, upper=[h]) == 2
        # centered mid-arc it reaches one arc further on each side
        n = circle_covering_number([math.pi / 4.0 - h], 2, upper=[math.pi / 4.0 + h])
        assert n == 3
        # a full-circle interval saturates
        assert circle_covering_number([1.0 - math.pi], 4, upper=[1.0 + math.pi]) == 16

    def test_interval_mode_rejects_negative_halfwidth(self):
        with pytest.raises(PreconditionError):
            circle_covering_number([0.1], 2, upper=[0.0])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            circle_covering_number([], 3)

    def test_angle_just_below_zero_is_in_the_last_arc(self):
        # np.mod(-1e-20, 2 pi) rounds up to 2 pi itself
        assert circle_covering_number([-1e-20, 2.0 * math.pi - 0.1], 3) == 1

    @pytest.mark.parametrize("level", [2, 4, 8])
    def test_interval_reaching_just_below_zero(self, level):
        """[a - h, a + h] with h just above a meets the last arc and arc 0;
        a point 1.5 arc widths on meets arc 1."""
        a = 1e-3
        width = 2.0 * math.pi / 2 ** level
        h = np.nextafter(a, 1.0)
        n = circle_covering_number([a - h, 1.5 * width], level,
                                   upper=[a + h, 1.5 * width])
        assert n == 3

    @staticmethod
    def _point_arcs_oracle(angles, level):
        """circle_covering_number's former branch for point angles."""
        a = np.asarray(angles, dtype=float).reshape(-1)
        n_arcs = 1 << level
        two_pi = 2.0 * math.pi
        bins = np.floor(a / two_pi * n_arcs).astype(np.int64) % n_arcs
        return int(np.unique(bins).size)

    @given(
        st.lists(
            st.one_of(
                st.floats(-20.0, 20.0),
                st.sampled_from([0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi]),
                # exact multiples of an arc width, at any level
                st.builds(lambda k, lv: k * (2.0 * math.pi / 2 ** lv),
                          st.integers(-70, 70), st.integers(0, MAX_LEVEL)),
            ),
            min_size=1, max_size=30,
        ),
        st.integers(0, MAX_LEVEL),
    )
    @settings(max_examples=300, deadline=None)
    def test_point_angles_are_zero_halfwidth_intervals(self, angles, level):
        want = self._point_arcs_oracle(angles, level)
        assert circle_covering_number(angles, level) == want
        assert circle_covering_number(angles, level, upper=angles) == want

    @staticmethod
    def _unique_arcs_oracle(angles, level, halfwidths):
        """circle_covering_number before it marked arcs in a mask: the
        hit arcs of every interval, then np.unique."""
        a = np.asarray(angles, dtype=float).reshape(-1)
        n_arcs = 1 << level
        two_pi = 2.0 * math.pi
        h = np.broadcast_to(np.asarray(halfwidths, dtype=float), a.shape)
        if np.any(h >= math.pi):
            return n_arcs
        lo = np.floor((a - h) / two_pi * n_arcs).astype(np.int64)
        spans = np.floor((a + h) / two_pi * n_arcs).astype(np.int64) - lo
        lo %= n_arcs
        occupied = [lo]
        for k in range(1, int(spans.max()) + 1):
            sel = lo[spans >= k]
            if sel.size == 0:
                break
            occupied.append((sel + k) % n_arcs)
        return int(np.unique(np.concatenate(occupied)).size)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-20.0, 20.0),
                          st.builds(lambda k, lv: k * (2.0 * math.pi / 2 ** lv),
                                    st.integers(-70, 70), st.integers(0, MAX_LEVEL))),
                # halfwidth in arc widths: up to 40, so past pi at levels below 6
                st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 40.0)),
            ),
            min_size=1, max_size=30,
        ),
        st.integers(0, MAX_LEVEL),
    )
    @settings(max_examples=300, deadline=None)
    def test_intervals_match_unique_oracle(self, pairs, level):
        angles = [a for a, _ in pairs]
        halfwidths = [u * (2.0 * math.pi / 2 ** level) for _, u in pairs]
        want = self._unique_arcs_oracle(angles, level, halfwidths)
        lower = [a - h for a, h in zip(angles, halfwidths)]
        upper = [a + h for a, h in zip(angles, halfwidths)]
        assert circle_covering_number(lower, level, upper=upper) == want

    @staticmethod
    def _per_level_box_dimension_oracle(angles, level_min, level_max, upper=None):
        """circle_box_dimension before the one-pass cascade: one
        circle_covering_number per level."""
        covering._check_level_window(level_min, level_max, None)
        levels = np.arange(level_min, level_max + 1, dtype=float)
        values = np.array(
            [circle_covering_number(angles, lv, upper)
             for lv in range(level_min, level_max + 1)],
            dtype=float,
        )
        slope, intercept, r2 = fit_log2_slope(levels, values)
        counts = tuple(zip(range(level_min, level_max + 1), values.astype(int).tolist()))
        return covering.DimensionEstimate(slope, intercept, (level_min, level_max), r2, counts)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-20.0, 20.0),
                          st.builds(lambda k, lv: k * (2.0 * math.pi / 2 ** lv),
                                    st.integers(-70, 70), st.integers(0, MAX_LEVEL))),
                # halfwidth in arc widths of a random level, or at least pi
                st.one_of(st.just(0.0), st.floats(0.0, 1e-3),
                          st.builds(lambda u, lv: u * (2.0 * math.pi / 2 ** lv),
                                    st.floats(0.0, 40.0), st.integers(0, MAX_LEVEL)),
                          st.floats(math.pi, 4.0)),
            ),
            min_size=1, max_size=30,
        ),
        st.integers(0, MAX_LEVEL - 3).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo + 3, MAX_LEVEL))),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_box_dimension_matches_per_level_oracle(self, pairs, window, points):
        """Point mode, and intervals that wrap past 0, start below 0 or
        span the whole circle, over windows up to level 20."""
        level_min, level_max = window
        if points:
            angles, upper = [a for a, _ in pairs], None
        else:
            angles = [a - h for a, h in pairs]
            upper = [a + h for a, h in pairs]
        want = self._per_level_box_dimension_oracle(angles, level_min, level_max, upper)
        assert circle_box_dimension(angles, level_min, level_max, upper) == want

    def test_box_dimension_of_a_full_circle_interval(self):
        est = circle_box_dimension([0.5, -1.0], 2, 9, upper=[0.5, 2.0 * math.pi - 1.0])
        assert est.counts == tuple((lv, 2 ** lv) for lv in range(2, 10))
        assert est == self._per_level_box_dimension_oracle(
            [0.5, -1.0], 2, 9, [0.5, 2.0 * math.pi - 1.0])

    def test_equispaced_angles_have_dimension_one(self):
        angles = np.arange(512) * (2.0 * math.pi / 512.0)
        est = circle_box_dimension(angles, 2, 8)
        assert est.slope == pytest.approx(1.0, abs=0.01)

    def test_single_angle_has_dimension_zero(self):
        est = circle_box_dimension([1.3], 2, 8)
        assert est.slope == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# content, delta-s checks, extraction
# ---------------------------------------------------------------------------


def test_hausdorff_content_of_segment():
    """At s = 1 the greedy dyadic bound for a unit segment sits in [1/2, 2]."""
    seg = segment_set(512)
    c = hausdorff_content(seg, 1.0)
    assert 0.5 <= c <= 2.0


def test_hausdorff_content_s0_counts_one():
    seg = segment_set(64)
    assert hausdorff_content(seg, 0.0) == 1.0  # one level-0 square suffices


def test_verify_delta_s_set_accepts_generated(rand_half_set):
    check = verify_delta_s_set(rand_half_set, 0.5, 16.0)
    assert check.passed
    # worst_ratio is the constant the set actually needs
    assert check.worst_ratio <= 16.0 + 1e-9


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0])
def test_verify_delta_s_set_refuses_a_constant_not_positive_and_finite(c):
    """NaN once passed the c <= 0 guard and gave a failed check with
    constant nan."""
    with pytest.raises(PreconditionError):
        verify_delta_s_set(gen_grid(5), 1.0, c)


def test_verify_delta_s_set_rejects_clustered():
    """512 points crammed into one tiny square are not a (delta, 1.5)-set."""
    rng = np.random.default_rng(5)
    base = rng.random((512, 2)) * 2.0 ** -6
    ds = DiscreteSet(base + 0.5, 2.0 ** -16, check=False)
    check = verify_delta_s_set(ds, 1.5, 16.0)
    assert not check.passed
    assert check.worst_ratio > 1.0


def _verify_delta_s_set_oracle(p, s, c):
    """verify_delta_s_set before cell rows went through unique_rows: a
    per-point cell check and an x * 2^31 + y cell key."""
    from scipy.spatial import cKDTree

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
    return worst <= c + 1e-9, worst, witness, witness_level


@pytest.mark.parametrize("seed, spacing", [(0, 0.55), (1, 0.6), (2, 0.75), (3, 0.9)])
def test_verify_delta_s_set_shared_cells_matches_oracle(seed, spacing):
    """Off-grid points at least delta/2 apart, several to a delta-cell."""
    delta = 2.0 ** -4
    rng = np.random.default_rng(seed)
    ticks = np.arange(-0.3, 0.5, spacing * delta)
    grid = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    pts = grid + rng.uniform(0.0, 0.02 * delta, size=grid.shape)
    ds = DiscreteSet(pts, delta)
    assert count_cells(ds.points, delta) < len(ds)
    for s in (0.5, 1.5, 2.0):
        chk = verify_delta_s_set(ds, s, 16.0)
        want = _verify_delta_s_set_oracle(ds, s, 16.0)
        assert (chk.passed, chk.worst_ratio, chk.witness, chk.witness_level) == want


@pytest.mark.parametrize("block", [1, 8, 5000])
def test_verify_delta_s_set_shared_cells_in_blocks(monkeypatch, block):
    """Balls swept one centre at a time, 8 centres at a time, and all
    centres in one block."""
    monkeypatch.setattr(dyadic, "SWEEP_BLOCK", block)
    delta = 2.0 ** -4
    rng = np.random.default_rng(0)
    ticks = np.arange(-0.3, 0.5, 0.55 * delta)
    grid = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    ds = DiscreteSet(grid + rng.uniform(0.0, 0.02 * delta, size=grid.shape), delta)
    assert len(ds) == 576
    for s in (0.5, 1.5, 2.0):
        chk = verify_delta_s_set(ds, s, 16.0)
        want = _verify_delta_s_set_oracle(ds, s, 16.0)
        assert (chk.passed, chk.worst_ratio, chk.witness, chk.witness_level) == want


def _distinct_cells_per_ball(hoods, cell_ids, n_cells):
    """Distinct cell ids among each ball's point indices."""
    sizes = np.fromiter(map(len, hoods), dtype=np.intp, count=len(hoods))
    members = np.fromiter(itertools.chain.from_iterable(hoods), dtype=np.intp,
                          count=int(sizes.sum()))
    hit = np.zeros((len(hoods), n_cells), dtype=bool)
    hit[np.repeat(np.arange(len(hoods)), sizes), cell_ids[members]] = True
    return np.count_nonzero(hit, axis=1)


def _verify_delta_s_set_tree_oracle(p, s, c):
    """verify_delta_s_set before FFT disc counts and the near-neighbour
    sweep: every level by k-d tree ball queries, on shared-cell sets in
    blocks of at most 2^20 (ball, point) pairs."""
    from scipy.spatial import cKDTree

    if not (0.0 <= s <= 2.0):
        raise PreconditionError(f"s {s!r} outside [0, 2]")
    if c <= 0.0:
        raise PreconditionError("constant must be positive")
    pts = p.points
    delta = p.delta
    n_delta = count_cells(pts, delta)
    point_per_cell = n_delta == pts.shape[0]
    if not point_per_cell:
        # points share delta-cells: count distinct cells inside each ball
        _, cell_ids = unique_rows(cell_indices(pts, delta), return_inverse=True)
        block = max(1, (1 << 20) // pts.shape[0])
    tree = cKDTree(pts)
    worst = -math.inf
    witness = Point(float(pts[0, 0]), float(pts[0, 1]))
    witness_level = 0
    top = level_of(delta)
    for lv in range(0, top + 1):
        r = 2.0 ** -lv
        sq = unique_rows(cell_indices(pts, r)).astype(float)
        centers = np.concatenate([pts, (sq + 0.5) * r], axis=0)
        if point_per_cell:
            counts = tree.query_ball_point(centers, r, return_length=True).astype(float)
        else:
            counts = np.concatenate([
                _distinct_cells_per_ball(
                    tree.query_ball_point(centers[b0:b0 + block], r, return_sorted=False),
                    cell_ids, n_delta)
                for b0 in range(0, centers.shape[0], block)
            ]).astype(float)
        ratios = counts / (r ** s * n_delta)
        imax = int(np.argmax(ratios))
        if ratios[imax] > worst:
            worst = float(ratios[imax])
            witness = Point(float(centers[imax, 0]), float(centers[imax, 1]))
            witness_level = lv
    return DeltaSCheck(worst <= c + 1e-9, worst, witness, witness_level, c, s)


def _check_against_tree_oracle(ds, s):
    """verify_delta_s_set under its own pricing, and with every level whose
    centres are lattice nodes on ball_max's table route, on the FFT, and
    on the sweep, all equal to the oracle."""
    want = _verify_delta_s_set_tree_oracle(ds, s, 16.0)
    assert verify_delta_s_set(ds, s, 16.0) == want
    for per_read, per_cell in ((0, None), (math.inf, 0), (math.inf, math.inf)):
        assert _routes(lambda: verify_delta_s_set(ds, s, 16.0), per_read, per_cell)[0] == want


@st.composite
def _lattice_sets(draw):
    """Points on the 2^-k lattice in [-1, 1]^2: random nodes, full grids,
    or the edges of a box."""
    k = draw(st.integers(2, 6))
    half = 2 ** k
    coord = st.integers(-half, half)
    kind = draw(st.sampled_from(["nodes", "grid", "box-edges"]))
    if kind == "nodes":
        nodes = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=150,
                              unique=True))
    else:
        i0, j0 = draw(coord), draw(coord)
        i1 = draw(st.integers(i0, min(half, i0 + 24)))
        j1 = draw(st.integers(j0, min(half, j0 + 24)))
        nodes = [(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)
                 if kind == "grid" or i in (i0, i1) or j in (j0, j1)]
    return DiscreteSet(np.array(nodes, dtype=float) * 2.0 ** -k, 2.0 ** -k)


@settings(max_examples=80, deadline=None)
@given(_lattice_sets(), st.sampled_from([0.5, 1.0, 1.5, 2.0]))
def test_verify_delta_s_set_matches_tree_oracle_on_lattice_sets(ds, s):
    _check_against_tree_oracle(ds, s)


def test_verify_delta_s_set_counts_disc_boundary_nodes():
    """A full grid holds, for every square centre c and lattice radius q,
    the nodes c -/+ (q, 0) and c -/+ (0, q), exactly on the ball's edge."""
    ds = gen_grid(33)
    nodes = np.rint(ds.points / ds.delta).astype(np.int64)
    assert nodes.min() == 0 and nodes.max() == 32
    _check_against_tree_oracle(ds, 2.0)
    [counts] = dyadic.lattice_disc_sums(nodes, np.ones(len(nodes), dtype=np.int64),
                                        np.array([[8, 8]]), [64])
    assert counts[0] == np.sum(np.sum((nodes - 8) ** 2, axis=1) <= 64)


def _spread_set(i):
    """Set i of the benchmark's spread workload: sets 0-3 at seed 1, 4-7 at
    seed 2."""
    seed, k = divmod(i, 4)
    return gen_random_delta_s_set(
        1.5, 2.0 ** -9, random.Random(f"spread:{seed + 1}:{k}").randrange(1 << 31))


@pytest.mark.parametrize("i", range(8))
def test_verify_delta_s_set_matches_tree_oracle_on_spread_sets(i):
    ds = _spread_set(i)
    assert verify_delta_s_set(ds, 1.5, 16.0) == _verify_delta_s_set_tree_oracle(ds, 1.5, 16.0)
    ext = frostman_extract(ds, 1.5, 2.0 ** -7)
    assert verify_delta_s_set(ext, 1.5, 16.0) == _verify_delta_s_set_tree_oracle(ext, 1.5, 16.0)


def _fft_answered(run, pairs_per_cell=None):
    """run(), and per squared radius passed to dyadic.lattice_disc_sums
    whether it answered (None sends the caller to the sweep). pairs_per_cell, if given,
    replaces dyadic._PAIRS_PER_FFT_CELL: 0 admits the FFT wherever points
    and centres are lattice nodes, math.inf refuses it everywhere."""
    real, answered = dyadic.lattice_disc_sums, []

    def spy(*args):
        sums = real(*args)
        answered.extend(s is not None for s in sums)
        return sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyadic, "lattice_disc_sums", spy)
        if pairs_per_cell is not None:
            mp.setattr(dyadic, "_PAIRS_PER_FFT_CELL", pairs_per_cell)
        return run(), answered


def _routes(run, pairs_per_read=None, pairs_per_cell=None):
    """run(), and per radius that dyadic.ball_max sends down its table
    route, or that reaches dyadic.lattice_disc_sums, in call order: "table"
    for the table route, else whether the FFT answered (False sends the
    caller to the sweep). pairs_per_read, if given, replaces
    dyadic._PAIRS_PER_READ: math.inf prices the table route out, so that
    ball_sums answers every radius; pairs_per_cell replaces
    dyadic._PAIRS_PER_FFT_CELL as in _fft_answered."""
    real_max, real_fft, routes = dyadic._disc_max, dyadic.lattice_disc_sums, []

    def table_route(*args):
        routes.append("table")
        return real_max(*args)

    def fft(*args):
        sums = real_fft(*args)
        routes.extend(s is not None for s in sums)
        return sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyadic, "_disc_max", table_route)
        mp.setattr(dyadic, "lattice_disc_sums", fft)
        if pairs_per_read is not None:
            mp.setattr(dyadic, "_PAIRS_PER_READ", pairs_per_read)
        if pairs_per_cell is not None:
            mp.setattr(dyadic, "_PAIRS_PER_FFT_CELL", pairs_per_cell)
        return run(), routes


# the levels each spread set's check counts, walking from the finest (the
# coarser ones skipped by the bound); every one takes the table route
_SPREAD_COUNTED_LEVELS = [5, 5, 5, 4, 5, 4, 6, 5]


@pytest.mark.parametrize("i", range(8))
def test_verify_delta_s_set_keeps_its_routes_on_spread_sets(i):
    """The set's counted levels all take ball_max's table route, on the
    cell table the check builds, and never transform; the check equals the
    one with the table route priced out, where ball_sums counts every
    level that the bound does not skip. Its extract's points are no nodes
    of the extract's delta-lattice, so it takes neither route."""
    ds = _spread_set(i)
    check, routes = _routes(lambda: verify_delta_s_set(ds, 1.5, 16.0))
    assert routes == ["table"] * _SPREAD_COUNTED_LEVELS[i]
    forced, routes = _routes(lambda: verify_delta_s_set(ds, 1.5, 16.0), math.inf)
    assert "table" not in routes and len(routes) >= _SPREAD_COUNTED_LEVELS[i]
    assert forced == check
    ext = frostman_extract(ds, 1.5, 2.0 ** -7)
    assert _routes(lambda: verify_delta_s_set(ext, 1.5, 16.0))[1] == []


def test_verify_delta_s_set_counts_the_finest_dense_level_by_fft():
    """On a set with one point per delta-cell, the finest level's square
    centres are nodes of the lattice of pitch delta/2, and on a dense set
    the FFT counts that level too: the table route is priced out, every
    counted level, finest first, takes the FFT, and the check is the
    forced sweep's."""
    ds = gen_random_delta_s_set(2.0, 2.0 ** -8, 0)
    check, routes = _routes(lambda: verify_delta_s_set(ds, 2.0, 16.0))
    assert routes == [True] * 3  # levels 8-6; the bound skips 5-0
    swept, routes = _routes(lambda: verify_delta_s_set(ds, 2.0, 16.0), math.inf, math.inf)
    assert routes == [False] * 3
    assert check == swept == _verify_delta_s_set_tree_oracle(ds, 2.0, 16.0)


def test_verify_delta_s_set_reports_the_coarser_of_two_tied_levels():
    """Two points half a unit apart at delta = 1/4 and s = 1: the ratio is
    1 / (1/4 * 2) = 2 at level 2 (one point per ball) and 2 / (1/2 * 2) = 2
    at level 1 (the closed ball about (0, 0) reaches (1/2, 0)), and 1 at
    level 0. Level 2 is counted first; level 1 ties it and wins."""
    ds = DiscreteSet(np.array([[0.0, 0.0], [0.5, 0.0]]), 0.25)
    want = DeltaSCheck(True, 2.0, Point(0.0, 0.0), 1, 16.0, 1.0)
    assert verify_delta_s_set(ds, 1.0, 16.0) == want
    assert _verify_delta_s_set_tree_oracle(ds, 1.0, 16.0) == want


@pytest.mark.parametrize("cap, counted", [(9, 8), (1000, 6)])
def test_verify_delta_s_set_with_a_coarse_cell_table(monkeypatch, cap, counted):
    """With MAX_FFT_CELLS below the 257 x 513 entries the check would
    build, the table holds the delta-cells of coarser squares, whose looser
    bounds skip fewer levels; at 9 entries every bound is |P|_delta, which
    still skips levels 0 and 1. Such a table is no node table, so each
    counted level goes to ball_max without one, which builds its own for
    the table route. The checks equal the oracle's."""
    ds = _spread_set(0)
    ext = frostman_extract(ds, 1.5, 2.0 ** -7)
    monkeypatch.setattr(covering, "MAX_FFT_CELLS", cap)
    real, tables = dyadic.SumTable, []
    monkeypatch.setattr(dyadic, "SumTable", lambda *a: tables.append(1) or real(*a))
    check, routes = _routes(lambda: verify_delta_s_set(ds, 1.5, 16.0))
    assert routes == ["table"] * counted and counted > _SPREAD_COUNTED_LEVELS[0]
    assert len(tables) == counted
    assert check == _verify_delta_s_set_tree_oracle(ds, 1.5, 16.0)
    assert verify_delta_s_set(ext, 1.5, 16.0) == _verify_delta_s_set_tree_oracle(ext, 1.5, 16.0)


def test_verify_delta_s_set_sizes_its_cell_table_by_its_reads():
    """87 points at delta = 2^-14 whose delta-cells span a 1,533 x 2,192
    box: a table over that box would take 25.7 MiB, but the check reads
    at most 15 levels of 174 centres, and its whole peak stays under
    1 MiB."""
    import tracemalloc

    ds = gen_random_delta_s_set(0.5, 2.0 ** -14, 0)
    tracemalloc.start()
    try:
        check = verify_delta_s_set(ds, 0.5, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert check == _verify_delta_s_set_tree_oracle(ds, 0.5, 16.0)


@st.composite
def _cell_bound_cases(draw):
    """Points and centres for the cell bound, at a dyadic delta 2^-k or at
    one that is not dyadic: lattice nodes (one point per delta-cell),
    off-lattice points several to a delta-cell, or nodes each paired with
    the point exactly r away along an axis for some dyadic r >= delta.
    Centres: the points, the centres of the occupied squares of a level,
    and delta-nodes and half-nodes, which sit on cell edges and corners.
    Reads that allow a table of 9 entries (the least), 40, or the cells'
    whole box."""
    k = draw(st.integers(1, 5))
    delta = 2.0 ** -k * draw(st.sampled_from([1.0, 1.0, 0.3, 0.7, 0.999]))
    ij = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
    nodes = np.array(draw(st.lists(ij, min_size=1, max_size=40, unique=True)), dtype=float)
    kind = draw(st.sampled_from(["nodes", "shared", "apart"]))
    if kind == "nodes":
        points = nodes * delta
    elif kind == "shared":
        jitter = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(nodes.shape)
        points = (nodes + jitter) * delta * 0.45
    else:
        r = 2.0 ** -draw(st.integers(0, level_of(delta)))
        step = np.array([[r, 0.0], [0.0, r]])[draw(st.integers(0, 1))]
        points = np.concatenate([nodes * delta, nodes * delta + step])
    half = np.array(draw(st.lists(ij, min_size=1, max_size=20)), dtype=float) * delta / 2
    lv = draw(st.integers(0, level_of(delta)))
    squares = (unique_rows(cell_indices(points, 2.0 ** -lv)) + 0.5) * 2.0 ** -lv
    reads = draw(st.sampled_from([1, 40, 10 ** 6]))
    return points, np.concatenate([points, squares, half]), delta, reads


@settings(max_examples=150, deadline=None)
@given(_cell_bound_cases())
@example((np.array([[-2.0 ** -60, 0.0]]), np.array([[0.25, 0.0]]), 0.25, 10 ** 6))
def test_cell_bounds_hold_every_ball_count(case):
    """At every level from r = 1 down to r = delta / 2, every centre's bound
    is at least the distinct delta-cells of the points with dx*dx + dy*dy
    <= r*r, the closed ball both routes count. (The example: -2^-60 - 1/4
    rounds to -1/4, so at r = 1/4 the point is in the ball about (1/4, 0),
    though its cell, -1, lies left of the square [0, 1/2].)"""
    points, centres, delta, reads = case
    cells, cell_ids = unique_rows(cell_indices(points, delta), return_inverse=True)
    table, k = covering._cell_table(cells, reads)
    dx = points[None, :, 0] - centres[:, None, 0]
    dy = points[None, :, 1] - centres[:, None, 1]
    d2 = dx * dx + dy * dy
    for lv in range(level_of(delta) + 2):
        r = 2.0 ** -lv
        hit = np.zeros((len(centres), len(cells)), dtype=bool)
        rows, cols = np.nonzero(d2 <= r * r)
        hit[rows, cell_ids[cols]] = True
        got = covering._cell_bounds(table, k, delta, centres, r)
        assert got.dtype == np.int64
        assert np.all(got >= np.count_nonzero(hit, axis=1))
        assert np.all(got <= len(cells))


@pytest.mark.parametrize("s, level", [(2.0, 7), (1.8, 8)])
def test_verify_delta_s_set_matches_tree_oracle_on_dense_sets(s, level):
    ds = gen_random_delta_s_set(s, 2.0 ** -level, 0)
    assert verify_delta_s_set(ds, s, 16.0) == _verify_delta_s_set_tree_oracle(ds, s, 16.0)


def test_verify_delta_s_set_refuses_non_integral_fft_counts(monkeypatch):
    """Every FFT sum pushed 0.3 off its integer trips lattice_disc_sums'
    integer check, on a dense set whose finest level the FFT counts."""
    ds = gen_random_delta_s_set(2.0, 2.0 ** -6, 0)
    assert _routes(lambda: verify_delta_s_set(ds, 2.0, 16.0))[1][0] is True
    true_irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: true_irfft(*a, **k) + 0.3)
    with pytest.raises(InvariantViolation, match="integers"):
        verify_delta_s_set(ds, 2.0, 16.0)


def _next_prime(n):
    n = max(n, 2)
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


@pytest.mark.parametrize("length", [None, lambda n: n, _next_prime])
@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1,
             max_size=80),
    st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1,
             max_size=40),
    st.lists(st.integers(0, 2000), min_size=1, max_size=3),
    st.integers(0, 2 ** 32 - 1),
)
def test_lattice_disc_sums_match_brute_force(length, nodes, centres, q2s, seed):
    """Transform sides rounded up to a fast length, left at the box side
    plus q (no slack at all), and rounded up to a prime; random integer
    weights of up to 2^32 each, and unit weights; one to three squared
    radii, unsorted and perhaps repeated, sharing one box."""
    nodes = np.array(nodes, dtype=np.int64)
    centres = np.array(centres, dtype=np.int64)
    weights = np.random.default_rng(seed).integers(0, 2 ** 32, nodes.shape[0])
    ones = np.ones(nodes.shape[0], dtype=np.int64)
    d2 = ((centres[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2)
    with pytest.MonkeyPatch.context() as mp:
        if length is not None:
            mp.setattr(dyadic, "fast_len", length)
        sums = dyadic.lattice_disc_sums(nodes, weights, centres, q2s)
        counts = dyadic.lattice_disc_sums(nodes, ones, centres, q2s)
    assert len(sums) == len(counts) == len(q2s)
    for q2, s, c in zip(q2s, sums, counts):
        assert s.dtype == c.dtype == np.int64
        assert np.array_equal(s, (d2 <= q2) @ weights)
        assert np.array_equal(c, (d2 <= q2).sum(axis=1))


def test_fast_len_is_the_next_5_smooth_length():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for n in range(1, 2500):
        f = dyadic.fast_len(n)
        assert f >= n and smooth(f)
        assert not any(smooth(k) for k in range(n, f))


def test_lattice_disc_sums_refuses_large_grids(monkeypatch):
    nodes = np.array([[0, 0], [99, 99]])
    monkeypatch.setattr(dyadic, "MAX_FFT_CELLS", 100 * 100)
    assert dyadic.lattice_disc_sums(nodes, np.ones(2, dtype=np.int64), nodes, [1]) == [None]


def test_lattice_disc_sums_refuses_totals_above_the_cap():
    """Weights totalling MAX_FFT_TOTAL are summed exactly; one more and the
    caller sweeps."""
    nodes = np.array([[0, 0], [3, 4], [40, 0]])
    cap = dyadic.MAX_FFT_TOTAL
    weights = np.array([cap - 3, 2, 1])
    [sums] = dyadic.lattice_disc_sums(nodes, weights, nodes, [25])
    assert sums.tolist() == [cap - 1, cap - 1, 1]
    weights[2] += 1
    assert dyadic.lattice_disc_sums(nodes, weights, nodes, [25]) == [None]


@st.composite
def _ball_sum_cases(draw):
    """Random nodes of the 2^-k lattice, or a full box of them, one node
    perhaps moved off by 1e-7 or a third of the pitch. Centres: the points
    themselves (the same array), other nodes (some far from every point,
    so their balls are empty), or the centres of the occupied
    pitch-squares, which are no nodes. Radii: lattice distances, some
    Pythagorean, and arbitrary floats, unsorted and repeated. Integer
    weights of up to 2^30, about a fifth of them zero."""
    k = draw(st.integers(2, 6))
    h = 2.0 ** -k
    coord = st.integers(-24, 24)
    if draw(st.booleans()):
        nodes = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=120, unique=True))
    else:
        i0, j0 = draw(coord), draw(coord)
        rows, cols = draw(st.integers(1, 11)), draw(st.integers(1, 11))
        nodes = [(i, j) for i in range(i0, i0 + rows) for j in range(j0, j0 + cols)]
    points = np.array(nodes, dtype=float) * h
    shift = draw(st.sampled_from([0.0, 1e-7, 1.0 / 3.0]))
    points[draw(st.integers(0, len(nodes) - 1)), 0] += shift * h
    kind = draw(st.sampled_from(["points", "nodes", "squares"]))
    if kind == "points":
        centres = points
    elif kind == "nodes":
        far = st.integers(-80, 80)
        centres = np.array(draw(st.lists(st.tuples(far, far), min_size=1, max_size=40)),
                           dtype=float) * h
    else:
        centres = (unique_rows(cell_indices(points, h)) + 0.5) * h
    radii = draw(st.lists(st.one_of(st.sampled_from([1, 2, 3, 5, 10, 13, 40]).map(lambda q: q * h),
                                    st.floats(1e-3, 3.0)),
                          min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.integers(0, 2 ** 30, len(nodes)) * (rng.random(len(nodes)) >= 0.2)
    return points, weights, centres, radii, h


@settings(max_examples=150, deadline=None)
@given(_ball_sum_cases())
def test_ball_sums_match_brute_force_on_either_route(case):
    points, weights, centres, radii, h = case
    w = weights.tolist()
    dx = points[None, :, 0] - centres[:, None, 0]
    dy = points[None, :, 1] - centres[:, None, 1]
    d2 = dx * dx + dy * dy
    want = [[sum(x for x, hit in zip(w, row) if hit) for row in (d2 <= r * r).tolist()]
            for r in radii]
    on_nodes = lattice_nodes(points, h) is not None and lattice_nodes(centres, h) is not None
    for pairs_per_cell in (0, math.inf):
        got, answered = _fft_answered(
            lambda: dyadic.ball_sums(points, weights, centres, radii, h), pairs_per_cell)
        assert answered == ([pairs_per_cell == 0] * len(radii) if on_nodes else [])
        assert len(got) == len(radii)
        for g, expect in zip(got, want):
            assert g.dtype == np.int64 and g.tolist() == expect


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=150),
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=150),
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4),
)
@example([(0.0, 0.0)], [(7.4e-183, 0.0)], [0.0])
def test_near_sweep_pairs_are_the_pairs_each_reach_walks(points, centres, reaches):
    """pairs(reaches) of a sweep counts, per reach, the (centre, candidate)
    pairs that iterating a sweep at that reach yields, and those hold every
    point within the reach of each centre, reach 0 included. (The example:
    dx*dx underflows to 0, so the point 7.4e-183 away passes the test
    d2 <= 0 and must be in the window.)"""
    points, centres = np.array(points), np.array(centres)
    pairs = dyadic.NearSweep(points, centres, max(reaches)).pairs(reaches)
    for reach, want in zip(reaches, pairs.tolist()):
        walked = 0
        for block, cand, d2 in dyadic.NearSweep(points, centres, reach):
            walked += d2.size
            near = ((points[None, :, :] - centres[block, None, :]) ** 2).sum(axis=2) <= reach * reach
            assert not near[:, np.setdiff1d(np.arange(len(points)), cand)].any()
        assert walked == want


def test_ball_sums_of_no_radii():
    """No radii give no arrays, on the lattice too, where the FFT's price
    needs a sweep at the largest radius."""
    points = np.array([(i, j) for i in range(9) for j in range(9)], dtype=float) / 16.0
    ones = np.ones(len(points), dtype=np.int64)
    for centres in (points, points[:5] + 1.0 / 32.0):
        for pairs_per_cell in (0, dyadic._PAIRS_PER_FFT_CELL, math.inf):
            assert _fft_answered(lambda: dyadic.ball_sums(points, ones, centres, [], 1.0 / 16.0),
                                 pairs_per_cell) == ([], [])


@st.composite
def _ball_max_cases(draw):
    """Nodes of the 2^-k lattice, some repeated, with integer weights of up
    to 2^30, about a fifth of them zero, or all zero. Centres: the points
    themselves (the same array), nodes (some far outside the nodes' box),
    half-nodes (odd doubled coordinates), or the centres of the occupied
    squares of a dyadic side. Radii: multiples of half the pitch, among
    them 0 and h/2, whose disc about a half-node has no node (an empty
    stencil), and arbitrary floats. least: 0, or up to one above the
    weights' total."""
    k = draw(st.integers(1, 5))
    h = 2.0 ** -k
    coord = st.integers(-12, 12)
    nodes = np.array(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=60)))
    points = nodes * h
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = {"ones": np.ones(len(nodes), dtype=np.int64),
               "zeros": np.zeros(len(nodes), dtype=np.int64),
               "random": rng.integers(0, 2 ** 30, len(nodes)) * (rng.random(len(nodes)) >= 0.2),
               }[draw(st.sampled_from(["ones", "ones", "zeros", "random"]))]
    kind = draw(st.sampled_from(["points", "nodes", "half", "squares"]))
    far = st.integers(-40, 40)
    if kind == "points":
        centres = points
    elif kind in ("nodes", "half"):
        centres = np.array(draw(st.lists(st.tuples(far, far), min_size=1, max_size=40)),
                           dtype=float) * (h if kind == "nodes" else h / 2)
    else:
        side = 2.0 ** -draw(st.integers(0, k))
        centres = (unique_rows(cell_indices(points, side)) + 0.5) * side
    radii = draw(st.lists(st.one_of(st.sampled_from([0, 1, 2, 3, 5, 13, 40]).map(lambda q: q * h / 2),
                                    st.floats(1e-3, 3.0)),
                          min_size=1, max_size=4))
    total = int(weights.sum())
    least = draw(st.sampled_from([0, 0, 1, total // 2, total, total + 1]))
    return nodes, points, weights, centres, radii, h, least


@settings(max_examples=200, deadline=None)
@given(_ball_max_cases())
@example((np.array([[0, 0], [0, 3], [11, 0]]), np.array([[0.0, 0.0], [0.0, 0.1875], [0.6875, 0.0]]),
          np.ones(3, dtype=np.int64), np.array([[0.0, 0.0], [0.25, 0.25]]), [0.5], 0.0625, 3))
def test_ball_max_matches_brute_force(case):
    """On every route, with and without the caller's table: the largest
    closed-ball sum and the first centre that holds it, or None below
    least. On the lattice, the one-box and banded bounds are at least the
    exact sums, which are the brute force's. (The example: least is one
    above the largest ball, which bounds still reach.)"""
    nodes, points, weights, centres, radii, h, least = case
    w = weights.tolist()
    dx = points[None, :, 0] - centres[:, None, 0]
    dy = points[None, :, 1] - centres[:, None, 1]
    d2 = dx * dx + dy * dy
    want = []
    for r in radii:
        sums = [sum(x for x, hit in zip(w, row) if hit) for row in (d2 <= r * r).tolist()]
        top = max(sums)
        want.append((top, sums.index(top)) if top >= least else None)
    for per_read in (0, math.inf, None):
        for table in (None, dyadic.SumTable(nodes, weights)):
            got, _ = _routes(lambda: dyadic.ball_max(points, weights, centres, radii, h, least, table),
                             per_read)
            assert got == want
    twice = lattice_nodes(centres, h / 2)
    table = dyadic.SumTable(nodes, weights)
    for r in radii:
        q2 = dyadic.lattice_q2(r * r, h / 2)
        exact = dyadic._disc_boxes(table, twice, q2, None)
        assert exact.tolist() == [sum(x for x, hit in zip(w, row) if hit)
                                  for row in (d2 <= r * r).tolist()]
        for bands in (1, 3, dyadic.DISC_BANDS):
            assert np.all(dyadic._disc_boxes(table, twice, q2, bands) >= exact)


def test_ball_max_of_no_radii():
    points = np.array([[0.0, 0.0], [0.5, 0.5]])
    assert dyadic.ball_max(points, np.ones(2, dtype=np.int64), points, [], 0.5) == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(-25, 25), st.integers(-25, 25), st.integers(0, 6),
                          st.integers(0, 6)), min_size=1, max_size=20),
       st.integers(0, 2 ** 32 - 1))
def test_sum_table_boxes_match_brute_force(nodes, boxes, seed):
    """Closed boxes inside, across and outside the nodes' box, empty ones
    (i1 = i0 - 1) among them; repeated nodes add up."""
    nodes = np.array(nodes)
    weights = np.random.default_rng(seed).integers(0, 1000, len(nodes))
    i0, j0, di, dj = np.array(boxes).T
    i1, j1 = i0 + di - 1, j0 + dj - 1
    got = dyadic.SumTable(nodes, weights).boxes(i0, j0, i1, j1)
    inside = ((nodes[None, :, 0] >= i0[:, None]) & (nodes[None, :, 0] <= i1[:, None])
              & (nodes[None, :, 1] >= j0[:, None]) & (nodes[None, :, 1] <= j1[:, None]))
    assert got.dtype == np.int64 and got.tolist() == (inside @ weights).tolist()


def test_frostman_extract_subset_and_floor(rand_half_set):
    rho = 2.0 ** -6
    out = frostman_extract(rand_half_set, 0.5, rho)
    src = {tuple(p) for p in rand_half_set.points}
    assert all(tuple(p) in src for p in out.points)
    assert count_cells(out.points, rho) == len(out)  # one point per rho-cell
    floor = 2.0 ** -6 * hausdorff_content(rand_half_set, 0.5) * rho ** -0.5
    assert len(out) >= floor


def _leaf_reps_oracle(pts, rho):
    """frostman_extract's former leaf representatives: a 4-key lexsort
    and a mask on the first row of each cell."""
    leaf_of_point = cell_indices(pts, rho)
    order = np.lexsort((pts[:, 1], pts[:, 0], leaf_of_point[:, 1], leaf_of_point[:, 0]))
    sorted_cells = leaf_of_point[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
    return order[first]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
             min_size=1, max_size=120),
    st.integers(1, 4),
    st.sampled_from([0.5, 1.0, 1.5, 2.0]),
)
def test_frostman_extract_leaf_reps_match_oracle(ipts, depth, s):
    """Each emitted point is the lexicographically smallest input point of
    its rho-cell; at s = 2 every occupied cell is kept."""
    pts = np.array(ipts, dtype=float) / 32.0
    a = DiscreteSet(pts, 2.0 ** -5, check=False)
    rho = 2.0 ** -depth
    reps = _leaf_reps_oracle(a.points, rho)
    out = frostman_extract(a, s, rho)
    if s == 2.0:
        assert np.array_equal(out.points, a.points[np.sort(reps)])
    else:
        assert {tuple(p) for p in out.points} <= {tuple(p) for p in a.points[reps]}


def test_frostman_extract_passes_its_own_check(rand_half_set):
    rho = 2.0 ** -6
    out = frostman_extract(rand_half_set, 0.5, rho)
    sub = DiscreteSet(out.points, rho, check=False)
    assert verify_delta_s_set(sub, 0.5, 16.0).passed


def test_dimension_estimate_r_squared_high_for_selfsimilar(cantor6):
    est = box_dimension(cantor6, 2, 9)
    assert est.r_squared > 0.98
    assert est.level_range == (2, 9)
