"""Activation-aware adaptive codebook learning (the AAAC method).

Per layer, two scalar reconstruction tables are learned from the normalized
weight distribution and per-column activation importance.  Learning
alternates a per-group table assignment (each group of `sel_size` weights
picks the table with lower importance-weighted reconstruction error) with
importance-weighted scalar k-means refinement of each table.  Final tables
are rounded to BF16, the assignment is recomputed, and codes emitted as
nearest-entry indices under each group's selected table.

Every step needs the nearest-entry code of many values under a table, and
the values never change within a layer: only the tables move.  So the
normalized weights are sorted once per layer, and that one order serves
every search.  The nearest-entry cells of a sorted table are intervals (Max
1960; Lloyd 1982), so each distinct entry's cell is a contiguous run of the
sorted values, cut at the midpoints between neighbouring distinct entries.
A full-layer code pass, as the assignment step takes for both tables, is
then one `searchsorted` of the M - 1 midpoints into the sorted values, a
`np.repeat` of the run labels and one scatter back to row-major order,
instead of a binary search per value.

The runs are exact, not approximate.  A value farther from every midpoint
than a small window (a few ulps of the largest magnitude among values and
entries) is nearer its run's entry by more than the rounding of `|v - t|`
can undo.  Values inside a window go through `recon_codes`, so its
first-minimum tie rule decides them.  When two distinct entries lie within a
few windows of each other, or the magnitudes approach overflow, every value
goes through `recon_codes`.  The distinct entries, midpoints, window and
fallback are `quantizers._cells`, the one definition the fixed grids' code
tables are built from too.  Codes therefore equal `recon_codes` value for
value, which the tests check on adversarial tables.

Inside an outer round each table's members keep their codes from one Lloyd
step to the next (`_Members`); the first codes are gathered from the
assignment step's full-layer passes.  After a step a value can change code
only where the cells moved: between a boundary's old and new position in the
sorted order, or inside an old or new window.  Everywhere else it lies in
the same run before and after, and the run's label is unchanged as long as
the distinct entries keep their indices.  So a step rewrites only the
table's members in those ranges of the one sorted order, about 1.5% of the
values per step on synthetic mixture layers: each gets its new run's label,
or the code `recon_codes` gives if it lies in a new window.  When the distinct entries
change (a duplicate appears or goes) or a table is on the all-`recon_codes`
fallback, that table takes a full pass.  The kept codes are thus exactly a
fresh search's, step after step.

Summation order does not follow the sort: the Lloyd sums and the cell
errors run over the members in row-major order, table 0's before table
1's, and the per-group errors over the whole layer in row-major order; only
the search uses the sorted order.  Summing in sorted order (with
`np.add.reduceat`, say) would save the scatter but rounds differently, so
the float64 tables, the objective trace and in the end the packed bytes
would depend on the sort.  Taking those sums a block at a time changes no
bit: `np.add.at` adds in index order into running sums, as one `np.bincount`
does, and numpy's float64 `.sum()` of a contiguous array follows a pairwise
tree that depends only on its length, so the sums of the tree's leaves,
combined in tree order, are the whole sum (`_leaves`, `_fold`).  Both Lloyd
sums are one `np.add.at` into complex128 sums, the weighted values in the
real parts and the weights in the imaginary ones: a complex addition adds
each part as float64 does.  The tests pin these properties of numpy, and
`np.quantile`'s linear method, which `init_tables` follows on the sorted
copy.

Memory follows the layer's size in a few bytes per weight, and no step
makes a full-size temporary it does not keep.  Members are whole selection
groups, so `_Members` keeps its layout as one entry per group (the groups
in member order and each group's place in it), not an index per value, and
their codes take a byte each.  Sorted positions are int32 below 2**31
values, and the initial quantiles are read from the sorted copy.  The
assignment step takes uint8 codes and forms its errors a row block at a
time.  For the inner steps of a round the normalized weights are put in
member order in place, whole groups at a time, and back before the next
assignment; the smaller part waits in a copy meanwhile.  Each inner step is
one pass over the members a block at a time (`_Pass`) that reads the
importances through the groups.  It takes the weighted error only on the
steps whose objective is asked for: all of them for `learn`'s full trace,
the last one for `quantize` and `compare`, which read no other.  A round's
last step whose error is not asked for takes no pass, as no sums follow it.
Per weight, an inner step then holds the sorted values (8 bytes), their
positions (4), the member values (8), the codes (1) and the group layout
(25 bytes per group): about 23 bytes for groups of 16, and at most 4 more
while the weights are reordered.
Measured, one nvfp4 learn peaks at 7.1 times its float32 layer under
tracemalloc on 256x2048, where the pass's fixed 2 MiB of block buffers is
one layer's worth, and at 1.12 GiB of RSS above its start (6.7 times the
layer) on 11008x4096.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LayoutError, UnsupportedConfigError, ValidationError
from .grids import SCALE_MODES, BaseFormat, compute_scales, round_bf16
from .quantizers import _cells, check_table, expand_groups, normalize, recon_codes
from .tensors import LayerBundle


@dataclass(frozen=True)
class AaacConfig:
    """Layout and iteration parameters for one learning run.

    The selection group size must divide the scale group size (a selection
    group never spans two scales), both must divide the layer's column count,
    and selection groups coarser than scale groups are not supported.
    """

    fmt: BaseFormat
    group_size: int
    sel_size: int
    n_outer: int = 3
    n_inner: int = 10
    scale_mode: str = "exact-bf16"

    def __post_init__(self):
        if self.group_size < 1 or self.sel_size < 1:
            raise ValidationError(
                f"group sizes must be positive, got scale group size {self.group_size} "
                f"and selection group size {self.sel_size}"
            )
        if self.sel_size > self.group_size:
            raise UnsupportedConfigError(
                f"selection group size {self.sel_size} exceeds scale group size "
                f"{self.group_size}; the packed layout stores selection bits in "
                "scale signs or finer-grained bitsets only"
            )
        if self.group_size % self.sel_size != 0:
            raise ValidationError(
                f"selection group size {self.sel_size} must divide "
                f"scale group size {self.group_size}"
            )
        if self.n_outer < 1 or self.n_inner < 1:
            raise ValidationError("iteration counts must be at least 1")
        if self.scale_mode not in SCALE_MODES:
            raise ValidationError(
                f"unknown scale mode {self.scale_mode!r}; supported: {list(SCALE_MODES)}"
            )

    @classmethod
    def for_format(cls, fmt: BaseFormat, **overrides) -> "AaacConfig":
        g = overrides.pop("group_size", fmt.group_size)
        s = overrides.pop("sel_size", g)
        return cls(fmt=fmt, group_size=g, sel_size=s, **overrides)

    def check_layout(self, cols: int) -> None:
        if cols % self.group_size != 0:
            raise LayoutError(
                f"column count {cols} is not divisible by scale group size {self.group_size}"
            )
        if cols % self.sel_size != 0:
            raise LayoutError(
                f"column count {cols} is not divisible by selection group size {self.sel_size}"
            )


@dataclass(frozen=True)
class LearnResult:
    """Everything a packed layer needs, plus the optimization trace."""

    table0: np.ndarray      # float32, BF16 values, non-decreasing
    table1: np.ndarray
    selection: np.ndarray   # uint8, (rows, cols / sel_size)
    codes: np.ndarray       # uint8, (rows, cols)
    scales: np.ndarray      # float32, (rows, cols / group_size)
    # float64 objective after each step; NaN at the inner steps but the last
    # unless `learn` is asked for the full trace
    trace: np.ndarray = field(repr=False)


# Columns per block of `importance`, which holds one T x 256 float64 block.
_IMPORTANCE_COLS = 256


def importance(activations: np.ndarray) -> np.ndarray:
    """Per-column importance: the sum of squared calibration activations.

    Accumulates in float64 over the sorted squares, so the result is exactly
    invariant to the order of the calibration tokens.  Each block of
    `_IMPORTANCE_COLS` columns is squared, sorted and summed in its own
    float64 copy, not the whole matrix at once.  numpy sums a block of two
    or more columns down each column, one token after another, as it sums
    the whole matrix, so the sums are the same bits; a lone column it sums
    pairwise, so a last block of one column takes its neighbour along.
    """
    a = np.asarray(activations)
    tokens, cols = a.shape
    out = np.empty(cols)
    buf = np.empty(tokens * min(cols, _IMPORTANCE_COLS))
    for start in range(0, cols, _IMPORTANCE_COLS):
        stop = min(start + _IMPORTANCE_COLS, cols)
        start = min(start, max(stop - 2, 0))
        x = buf[:tokens * (stop - start)].reshape(tokens, stop - start)
        np.copyto(x, a[:, start:stop])  # squared and sorted in place
        np.multiply(x, x, out=x)
        x.sort(axis=0)
        out[start:stop] = x.sum(axis=0)
    return out


def layer_importance(bundle: LayerBundle) -> np.ndarray:
    """The column importance a layer is weighted by.

    Importance of the bundle's calibration activations, or unit importance
    when there are none or every column has zero importance.
    """
    imp = None if bundle.activations is None else importance(bundle.activations)
    if imp is None or not imp.any():
        imp = np.ones(bundle.cols, dtype=np.float64)
    return imp


def weighted_error(
    weights: np.ndarray, reconstructed: np.ndarray, col_importance: np.ndarray
) -> float:
    """Importance-weighted squared reconstruction error in weight units."""
    return _error_sums(_difference(weights, reconstructed), col_importance)[1]


def _difference(weights, reconstructed) -> np.ndarray:
    """`reconstructed - weights` in a new float64 array.

    `metrics.score` forms the same difference block by block in a reused
    buffer instead, without a whole-layer `reconstructed`.
    """
    d = np.array(reconstructed, dtype=np.float64)  # a copy, subtracted in place
    d -= weights
    return d


def _error_sums(d, col_importance) -> tuple[float, float]:
    """The mean and the column-weighted sum of the squares of `d`, which it squares in place."""
    d *= d
    mse = float(d.mean())
    d *= np.asarray(col_importance, dtype=np.float64)
    return mse, float(d.sum())


def init_tables(w_norm, table_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantile initialization of the two tables.

    Table 0 takes evenly spaced quantiles spanning the full range of the
    normalized weights; table 1 starts half a quantile step later and still
    ends at the maximum, giving distinct but nearby starting grids.
    Quantiles interpolate linearly between order statistics, bit for bit as
    `np.quantile` does.  Values already in ascending order, as the learner's
    sorted copy is, are read in place; others are sorted first.
    """
    w = np.asarray(w_norm, dtype=np.float64).ravel()
    if w.size == 0:
        raise ValidationError("cannot initialize tables from an empty weight set")
    if table_size < 2:
        raise ValidationError("table size must be at least 2")
    if not (w[1:] >= w[:-1]).all():  # NaN compares false, so it is sorted to the end
        w = np.sort(w)
    steps = np.arange(table_size) / (table_size - 1)
    delta = 1.0 / (2 * (table_size - 1))
    return _sorted_quantiles(w, steps), _sorted_quantiles(w, delta + (1.0 - delta) * steps)


def _sorted_quantiles(w, q) -> np.ndarray:
    """`np.quantile(w, q)` of ascending `w`, without the copy and partition it makes.

    The same linear interpolation (numpy's default method) from the same
    order statistics; a NaN, sorted last, makes every quantile NaN.
    """
    if np.isnan(w[-1]):
        return np.full(q.shape, np.nan)
    at = (w.size - 1) * q
    top = at >= w.size - 1  # numpy takes the maximum for both neighbours
    lo = np.where(top, -1, np.floor(at)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    a, b, t = w[lo], w[hi], at - lo
    d = b - a
    out = a + d * t
    np.subtract(b, d * (1 - t), out=out, where=t >= 0.5)
    return out


# ---------------------------------------------------------------------------
# Nearest-entry cells of a fixed value set
# ---------------------------------------------------------------------------

_NONE = np.zeros(0, dtype=np.intp)

# Flat positions below this fit in int32, half the bytes of intp.
_NARROW_BELOW = 2**31

def _cell_runs(table: np.ndarray, values: np.ndarray):
    """The codes `recon_codes(table, values)` of ascending `values`, as runs.

    Returns `(labels, counts, lo, hi)`: the codes are `labels` repeated
    `counts` times, except in the windows `values[lo[j]:hi[j]]`, whose codes
    `recon_codes` gives.

    Each distinct entry's cell is a contiguous run of the sorted values, cut
    at the midpoints between neighbouring distinct entries.  Every value more
    than a window's half-width from all midpoints is nearer its run's entry
    than any other by more than the rounding of `|v - t|` can undo, so that
    entry (its first index, for duplicates) is what the first-minimum argmin
    picks.  When two distinct entries lie within a few windows of each
    other, one window spans all the values.
    """
    n = values.size
    if n == 0:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), _NONE, _NONE
    big = max(abs(values[0]), abs(values[-1]), abs(table[0]), abs(table[-1]))
    first, mid, half = _cells(table, big)
    if mid is None:
        everything = np.array([n])
        return first[:1], everything, np.zeros(1, dtype=np.intp), everything
    lo = values.searchsorted(mid - half, side="left")
    hi = values.searchsorted(mid + half, side="right")
    edges = np.concatenate(([0], lo, [n]))
    return first, edges[1:] - edges[:-1], lo, hi


def _spans(lo, hi) -> np.ndarray:
    """The indices of the ranges `lo[j]:hi[j]`, concatenated."""
    width = hi - lo
    return np.repeat(lo - np.cumsum(width) + width, width) + np.arange(width.sum())


class _SortedCells:
    """Fixed values, sorted once, for repeated nearest-entry searches.

    `codes(table)` equals `recon_codes(table, values)` in the values' own
    layout, but costs a boundary search, one `np.repeat` and one scatter
    instead of a search per value.  `order` is int32 below `_NARROW_BELOW`
    values and intp from there on.
    """

    def __init__(self, sorted_values, order, shape):
        self.sorted = sorted_values
        self.order = order     # flat position in the layout of each sorted value
        self.shape = shape

    @classmethod
    def of(cls, values) -> "_SortedCells":
        v = np.asarray(values, dtype=np.float64)
        order = np.argsort(v, axis=None)
        if v.size < _NARROW_BELOW:  # before the gather: the intp order and the copy never coexist
            order = order.astype(np.int32)
        return cls(v.ravel()[order], order, v.shape)

    def runs(self, table):
        """`_cell_runs` of all the sorted values under `table`."""
        return _cell_runs(check_table(table), self.sorted)

    def codes(self, table, dtype=np.intp) -> np.ndarray:
        """The codes under `table`, as `dtype`, which must hold the table's indices."""
        first, counts, lo, hi = self.runs(table)
        codes = np.repeat(first.astype(dtype), counts)
        if (hi > lo).any():
            idx = _spans(lo, hi)
            codes[idx] = recon_codes(table, self.sorted[idx])
        out = np.empty(codes.size, dtype=dtype)
        out[self.order] = codes
        return out.reshape(self.shape)


class _Members:
    """Values split between tables by group, with each value's code under its own table.

    The values fall into groups of `sel_size` consecutive ones in row-major
    order, a layer's selection groups, and `member1` says per group whether
    it belongs to table 1.  `groups` lists table 0's groups, then table 1's,
    each part in row-major order, and the members are the values of those
    groups in that order: member `m` is value `groups[m // S] * S + m % S`,
    and value `f` is member `gpos[f // S] * S + f % S`.  That is two entries
    per group instead of two indices per value.  The codes of table `j` are
    offset by `j` times the table size, so one set of Lloyd sums serves every
    table, and take the narrowest unsigned type that holds them (one byte for
    two 16-entry tables).  `move(tables)` brings the codes up to date after
    the tables move, rewriting only the values whose code can have changed.
    """

    def __init__(self, cells: _SortedCells, member1, tables, full_codes, sel_size=1):
        part = np.asarray(member1, dtype=bool).ravel()
        self.cells = cells
        self.part = part
        self.sel_size = sel_size
        self.size = tables.shape[1]
        # np.flatnonzero is branch-free; boolean indexing with a mask as
        # irregular as a selection is several times slower.
        self.groups = np.concatenate((np.flatnonzero(~part), np.flatnonzero(part)))
        self.split = (part.size - np.count_nonzero(part)) * sel_size
        self.gpos = np.empty(part.size, dtype=np.intp)  # inverse of groups
        self.gpos[self.groups] = np.arange(part.size)
        self.codes = np.empty(part.size * sel_size, dtype=np.min_scalar_type(tables.size - 1))
        self.runs = [cells.runs(t) for t in tables]
        for j, codes in enumerate(full_codes):
            self._gather(j, codes)

    def arrange(self, values) -> None:
        """Reorder `values`, a contiguous array of one per value in the layout,
        into member order in place: whole groups move."""
        self._permute(values.reshape(-1, self.sel_size), True)

    def restore(self, values) -> None:
        """Undo `arrange`: member-ordered `values` back to the layout, in place."""
        self._permute(values.reshape(-1, self.sel_size), False)

    def _permute(self, rows, arrange: bool) -> None:
        """Move each group's row of `rows` between its place in the layout and
        in member order.

        The smaller part waits in a copy, at most half of `rows`.  The larger
        part keeps its order, so its rows all move toward the same end, and
        moving them a chunk at a time, starting at that end, never overwrites
        a row not yet moved.
        """
        cut = self.split // self.sel_size
        layout = (self.groups[:cut], self.groups[cut:])  # each part's rows in the layout
        members = (slice(None, cut), slice(cut, None))   # and in member order
        small = int(cut > rows.shape[0] - cut)
        held = rows[layout[small]] if arrange else rows[members[small]].copy()
        groups, base, step = layout[1 - small], cut * (1 - small), max(1, _LEAF // self.sel_size)
        starts = range(0, groups.size, step)
        for j in reversed(starts) if arrange != bool(small) else starts:
            g, m = groups[j : j + step], slice(base + j, base + min(j + step, groups.size))
            if arrange:
                rows[m] = rows[g]
            else:
                rows[g] = rows[m].copy()  # `rows[m]` is a view of what the scatter writes
        if arrange:
            rows[members[small]] = held
        else:
            rows[layout[small]] = held

    def _gather(self, j, codes):
        """Table `j`'s member codes, taken from `codes` of every value."""
        cut = self.split // self.sel_size
        groups = self.groups[:cut] if j == 0 else self.groups[cut:]
        part = slice(self.split) if j == 0 else slice(self.split, None)
        self.codes[part] = codes.reshape(-1, self.sel_size)[groups].reshape(-1)
        if j:
            self.codes[part] += j * self.size

    def move(self, tables) -> None:
        """Recode after each table `j` moved to `tables[j]`.

        A value can change code only where the cells did: between a
        boundary's old and new sorted position, or inside an old or new
        window.  Those values get their new run's label, or `recon_codes`
        inside a new window.  Values elsewhere stay in their run, whose label
        holds while the distinct entries keep their indices.  When they do
        not, or either table is on the fallback (one window, one label),
        the table takes a full pass.
        """
        order, size = self.cells.order, self.sel_size
        for j, table in enumerate(tables):
            old, new = self.runs[j], self.cells.runs(table)
            self.runs[j] = new
            first, _, lo, hi = new
            if not (old[2].size == lo.size == first.size - 1 and np.array_equal(old[0], first)):
                self._gather(j, self.cells.codes(table, self.codes.dtype))
                continue
            idx = _spans(np.minimum(old[2], lo), np.maximum(old[3], hi))
            group, offset = np.divmod(order[idx], size)
            mine = self.part[group] == j
            idx, group, offset = idx[mine], group[mine], offset[mine]
            run = lo.searchsorted(idx, side="right")
            codes = first[run]
            window = hi.searchsorted(idx, side="right") < run
            if window.any():
                codes[window] = recon_codes(table, self.cells.sorted[idx[window]])
            self.codes[self.gpos[group] * size + offset] = codes + j * self.size


def _assign(cells, w_norm, col_importance, table0, table1, sel_size):
    """The assignment step: (codes under table 0, under table 1, each group's table, objective).

    A group takes the table with lower weighted squared error (ties keep
    table 0), or lower unweighted error when its columns carry no importance;
    the objective sums every group's weighted error under its table.  The
    errors are formed a row block of about `_LEAF` values at a time; a
    group's sum lies within one row, so the blocks do not change it.
    """
    n, k = w_norm.shape
    shape = (-1, k // sel_size, sel_size)
    imp = np.asarray(col_importance, dtype=np.float64)
    dead = imp.reshape(-1, sel_size).sum(axis=1) == 0
    tables = [np.asarray(t, dtype=np.float64) for t in (table0, table1)]
    codes = [cells.codes(t, np.uint8) for t in tables]
    sigma = np.empty((n, k // sel_size), dtype=np.uint8)
    chosen = np.empty(sigma.shape)  # each group's weighted error under its table
    step = max(1, _LEAF // k)
    se = np.empty((min(step, n), k))  # one table's squared errors in a block
    for rows in (slice(a, a + step) for a in range(0, n, step)):
        e_w, e_u = [], []
        for t, c in zip(tables, codes):
            b = se[: c[rows].shape[0]]
            t.take(c[rows], out=b, mode="clip")  # "clip" writes straight to `out=`
            np.subtract(w_norm[rows], b, out=b)
            np.square(b, out=b)
            e_u.append(b.reshape(shape).sum(axis=2))
            b *= imp
            e_w.append(b.reshape(shape).sum(axis=2))
        sigma[rows] = np.where(dead, e_u[1] < e_u[0], e_w[1] < e_w[0])
        chosen[rows] = np.where(sigma[rows], e_w[1], e_w[0])
    return codes[0], codes[1], sigma, float(chosen.sum())


def select_tables(w_norm, col_importance, table0, table1, sel_size: int) -> np.ndarray:
    """Per selection group, the table with lower weighted reconstruction error.

    Returns one bit per group of `sel_size` contiguous in-row weights; ties
    select table 0.
    """
    w = np.asarray(w_norm, dtype=np.float64)
    if w.shape[1] % sel_size != 0:
        raise LayoutError(
            f"column count {w.shape[1]} is not divisible by selection group size {sel_size}"
        )
    return _assign(_SortedCells.of(w), w, col_importance, table0, table1, sel_size)[2]


# ---------------------------------------------------------------------------
# The inner steps: one pass over the members per Lloyd step
# ---------------------------------------------------------------------------

# Values per block of the inner steps' pass.  A block's buffers (intp codes,
# importances and two float64 scratch arrays) take 32 bytes a value, 2 MiB,
# one core's L2 on the 2-vCPU Xeon measured.  There, two 512x4096 nvfp4
# learns on two threads took a median 5.6% more CPU at 2**15, whose twice as
# many numpy calls hand the GIL over more often (about twice the voluntary
# context switches), and 3.9% more at 2**17, whose blocks outgrow L2.
_LEAF = 1 << 16


def _halve(n: int) -> int:
    """Where numpy's pairwise float sum splits `n` values: half, down to a multiple of 8."""
    h = n // 2
    return h - h % 8


def _leaves(a: int, b: int) -> list:
    """The leaves of the pairwise sum of `x[a:b]`: its tree's nodes of at most `_LEAF` values.

    numpy sums a contiguous float64 array along a tree that depends only on
    its length, so `_fold` of the leaves' `.sum()`s is the whole `.sum()`.
    """
    if b - a <= _LEAF:
        return [(a, b)]
    m = a + _halve(b - a)
    return _leaves(a, m) + _leaves(m, b)


def _fold(n: int, sums) -> float:
    """`x.sum()` of `n` float64 values, combined in tree order from the iterator
    `sums` over the `.sum()`s of its `_leaves`."""
    if n <= _LEAF:
        return next(sums)
    h = _halve(n)
    return _fold(h, sums) + _fold(n - h, sums)


def _products(i, v, z) -> np.ndarray:
    """`z` filled with the Lloyd sums' terms `i * v + i j`."""
    z.imag = i
    np.multiply(i, v, out=z.real)
    return z


class _Pass:
    """One round's inner-step pass over its members, a block at a time.

    Each pass reads every member's code, value and importance once, for the
    weighted squared error under the tables the last step made, when asked,
    and for the sums of the next step.  No pass holds a member-sized
    temporary.

    A block is a run of consecutive `_leaves` of each table's member range,
    `_LEAF` values at most, so each range's error is its `.sum()` folded from
    the leaves' sums, bit for bit.  Both Lloyd sums are one `np.add.at` in
    member order into complex128 sums, `i * v` the real part and `i` the
    imaginary one: a complex addition adds each part as float64 does, so each
    is what one `np.bincount` over every member gives.  The complex block
    shares its memory with the error's two float64 blocks, which are free
    once their sums are taken.  Importances are gathered per block through
    `members.groups`, a group's being those of its columns in any row; when
    the members fit one block, its complex products are formed once for the
    round.
    """

    def __init__(self, members: _Members, values, col_importance):
        self.members, self.values = members, values
        size, split = values.size, members.split
        self.imp = np.asarray(col_importance, dtype=np.float64).reshape(-1, members.sel_size)
        self.cols = members.groups % len(self.imp)  # each group's row of `imp`
        self.parts = (split, size - split)
        runs = []
        for leaf in _leaves(0, split) + _leaves(split, size):
            if runs and leaf[1] - runs[-1][0][0] <= _LEAF:
                runs[-1].append(leaf)
            else:
                runs.append([leaf])
        # Each block as (start, stop, its leaves relative to its start).
        self.blocks = [
            (run[0][0], run[-1][1], [(x - run[0][0], y - run[0][0]) for x, y in run])
            for run in runs
        ]
        width = max(b - a for a, b, _ in self.blocks)
        self.codes = np.empty(width, dtype=np.intp)  # np.add.at is faster on intp than uint8
        self.imp_rows = np.empty((width // members.sel_size + 2, members.sel_size))
        self.z = np.empty(width, dtype=np.complex128)
        halves = self.z.view(np.float64)
        self.d, self.e = halves[:width], halves[width:]
        self.kept = None
        if len(self.blocks) == 1:  # then every step reads the same importances and products
            a, b, _ = self.blocks[0]
            z = np.empty(b - a, dtype=np.complex128)
            self.kept = _products(self._importances(a, b), values[a:b], z)

    def _importances(self, a: int, b: int) -> np.ndarray:
        """The importances of members `a:b`, gathered a group row at a time."""
        s = self.members.sel_size
        g0, g1 = a // s, -(-b // s)
        rows = self.imp_rows[: g1 - g0]
        self.imp.take(self.cols[g0:g1], axis=0, out=rows, mode="clip")
        return rows.reshape(-1)[a - g0 * s : b - g0 * s]

    def __call__(self, table, error: bool = True, sums: bool = True):
        """(The members' weighted squared error under `table`, summed per
        table's members then added, or None; the Lloyd sums, or None)."""
        acc = np.zeros(table.size, dtype=np.complex128)
        leaf_sums = []
        for a, b, leaves in self.blocks:
            c, d, e = self.codes[: b - a], self.d[: b - a], self.e[: b - a]
            c[...] = self.members.codes[a:b]
            v, z = self.values[a:b], self.kept
            i = self._importances(a, b) if z is None else z.imag
            if error:
                table.take(c, out=d, mode="clip")
                np.subtract(v, d, out=d)
                np.multiply(i, d, out=e)
                e *= d
                leaf_sums += [e[x:y].sum() for x, y in leaves]
            if sums:
                if z is None:  # in the memory of `d` and `e`, free once their sums are taken
                    z = _products(i, v, self.z[: b - a])
                np.add.at(acc, c, z)
        total = None
        if error:
            leaf_sums = iter(leaf_sums)
            total = float(_fold(self.parts[0], leaf_sums)) + float(_fold(self.parts[1], leaf_sums))
        return total, (acc.real, acc.imag) if sums else None


def _lloyd_steps(members: _Members, tables, values, col_importance, n_inner: int, errors=None):
    """Yields the tables after each of `n_inner` Lloyd steps, and the
    members' weighted squared error under them on the steps `errors` names
    (every step when None), else None.

    `tables` stacks one table per part of `members`; `values` are the
    members' values in member order.  A step moves each entry to the
    weighted centroid of its cell; cells with zero total weight keep their
    entry.  `members.codes` follows every step but a last one whose error is
    not asked for: its codes would feed no pass.
    """
    errors = range(n_inner) if errors is None else errors
    run = _Pass(members, values, col_importance)
    _, sums = run(tables.ravel(), error=False)
    for k in range(n_inner):
        num, den = sums
        step = np.where(den > 0, num / np.where(den > 0, den, 1.0), tables.ravel())
        # A centroid can round past an untouched neighbour (a constant
        # cell, say), so each table is re-sorted before the next search.
        tables = np.sort(step.reshape(tables.shape), axis=1)
        error, more = k in errors, k + 1 < n_inner
        total = None
        if error or more:
            members.move(tables)
            total, sums = run(tables.ravel(), error, sums=more)
        yield tables, total


def kmeans_update(table, values, weights, n_inner: int) -> np.ndarray:
    """Importance-weighted scalar k-means on a multiset of (value, weight) pairs.

    Runs `n_inner` Lloyd iterations, assigning each member to its nearest
    entry (ties toward the lower index) and moving each entry to the weighted
    centroid of its cell.  Entries with empty or zero-weight cells are kept.
    The table is sorted before the first search and after every step, so
    the returned table is sorted ascending.
    """
    t = np.sort(np.asarray(table, dtype=np.float64))[np.newaxis]
    v = np.asarray(values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.shape != v.shape:
        raise ValidationError(f"got {w.size} weights for {v.size} values")
    cells = _SortedCells.of(v)
    # Each value is a selection group of one, and its weight its column's importance.
    members = _Members(cells, np.zeros(v.size, dtype=bool), t, [cells.codes(t[0])])
    for t, _ in _lloyd_steps(members, t, v, w, n_inner, errors=()):
        pass
    return t[0]


def learn(
    bundle: LayerBundle,
    cfg: AaacConfig,
    col_importance: np.ndarray | None = None,
    full_trace: bool = True,
) -> LearnResult:
    """Learn two codebooks, the per-group selection, and the codes for a layer.

    Steps: compute group scales, normalize, compute activation importance
    (unit importance when no activations are available or when every column
    has zero importance), initialize both tables from quantiles, then
    alternate assignment and per-table weighted k-means for `cfg.n_outer`
    rounds.  The tables are then rounded to BF16, the selection recomputed,
    and codes emitted under each group's selected table.

    The trace records the importance-weighted objective on normalized weights
    after the assignment step and after every inner k-means iteration.  No
    step raises it in exact arithmetic, but rounding can: a centroid of equal
    values may round off them.  The final BF16 rounding is not recorded.
    Without `full_trace` the trace keeps its length, the assignment steps'
    objectives and the last step's, but holds NaN at the other inner steps,
    whose errors are then not computed; nothing else changes.

    `col_importance` overrides the activation-derived importance when given.
    """
    cfg.check_layout(bundle.cols)
    w = bundle.weights
    n, k = w.shape
    table_size = cfg.fmt.table_size

    scales = compute_scales(w, cfg.fmt, cfg.group_size, cfg.scale_mode)
    w_norm = normalize(w, scales, cfg.group_size)

    if col_importance is not None:
        imp = np.asarray(col_importance, dtype=np.float64)
        if imp.shape != (k,):
            raise ValidationError(f"importance must have shape ({k},), got {imp.shape}")
        if (imp < 0).any() or not np.isfinite(imp).all():
            raise ValidationError("importance values must be finite and non-negative")
        if not imp.any():
            imp = np.ones(k, dtype=np.float64)
    else:
        imp = layer_importance(bundle)

    cells = _SortedCells.of(w_norm)
    # Quantiles are order statistics, so the sorted copy gives the same tables.
    t0, t1 = init_tables(cells.sorted, table_size)
    trace = []
    sel = cfg.sel_size

    for r in range(cfg.n_outer):
        codes0, codes1, sigma, objective = _assign(cells, w_norm, imp, t0, t1, sel)
        trace.append(objective)

        t = np.stack((t0, t1))
        members = _Members(cells, sigma, t, (codes0, codes1), sel)
        del codes0, codes1
        # The member values are w_norm's own numbers: it is put in member
        # order for the inner steps and back for the next assignment.
        members.arrange(w_norm)
        errors = None if full_trace else (cfg.n_inner - 1,) if r + 1 == cfg.n_outer else ()
        for t, error in _lloyd_steps(members, t, w_norm.reshape(-1), imp, cfg.n_inner, errors):
            trace.append(np.nan if error is None else error)
        members.restore(w_norm)
        t0, t1 = t
        del members

    t0 = round_bf16(t0).astype(np.float32)
    t1 = round_bf16(t1).astype(np.float32)
    codes0, codes1, sigma, _ = _assign(cells, w_norm, imp, t0, t1, sel)
    codes = np.where(expand_groups(sigma, sel).astype(bool), codes1, codes0)
    return LearnResult(
        table0=t0,
        table1=t1,
        selection=sigma,
        codes=codes,
        scales=scales,
        trace=np.asarray(trace, dtype=np.float64),
    )
