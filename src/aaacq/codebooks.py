"""Activation-aware adaptive codebook learning (the AAAC method).

Per layer, two scalar reconstruction tables are learned from the normalized
weight distribution and per-column activation importance.  Learning
alternates a per-group table assignment (each group of `sel_size` weights
picks the table with lower importance-weighted reconstruction error) with
importance-weighted scalar k-means refinement of each table.  Final tables
are rounded to BF16, the assignment is recomputed, and codes emitted as
nearest-entry indices under each group's selected table.

Every step needs the nearest-entry code of many values under a table, and
the values never change within a layer: only the tables move.  A full-layer
code pass, as the assignment step takes for both tables, reads each value's
code in the layout where it lies: `quantizers.code_table` builds the table's
code table, and a value's code is one shift of its bit pattern and one
gather, with the exhaustive search only for values in marked buckets (about
0.7% of a mixture layer's).  Its exactness argument is in `quantizers`.
The table is written only over the buckets the layer's values occupy, into
one buffer that serves every table of the layer, so a build costs less than
a pass over a small layer.  Tables of more than 255 entries, which
`kmeans_update` allows, have no code table and go to `recon_codes`.

Inside an outer round each table's members keep their codes from one Lloyd
step to the next (`_Members`); the first codes are taken from the
assignment step's full-layer passes.  For that the normalized weights are
sorted once per layer (`_SortedCells`).  The nearest-entry cells of a sorted
table are intervals (Max 1960; Lloyd 1982), so each distinct entry's cell
is a contiguous run of the sorted values, cut at the midpoints between
neighbouring distinct entries, and found by one `searchsorted` of the
midpoints.  The runs are exact, not approximate.  A value farther from
every midpoint than a small window (a few ulps of the largest magnitude
among values and entries) is nearer its run's entry by more than the
rounding of `|v - t|` can undo.  Values inside a window go through
`recon_codes`, so its first-minimum tie rule decides them.  When two
distinct entries lie within a few windows of each other, or the magnitudes
approach overflow, every value does.  The distinct entries, midpoints,
window and fallback are `quantizers._cells`, the one definition the code
tables are built from too.

After a step a value can change code only where the cells moved: between a
boundary's old and new position in the sorted order, or inside an old or
new window.  Everywhere else it lies in the same run before and after, and
the run's label is unchanged as long as the distinct entries keep their
indices.  So a step rewrites only the tables' members in those ranges of
the one sorted order, about 1.5% of the values per step on synthetic
mixture layers: each gets its new run's label, or the code `recon_codes`
gives if it lies in a new window.  Both tables are searched together, their
sorted positions keyed apart.  When the distinct entries change (a
duplicate appears or goes) or a table is on the all-`recon_codes` fallback,
that table takes a full pass.  The kept codes are thus exactly a fresh
search's, step after step, which the tests check on adversarial tables.

The sort is one `np.sort` of packed 64-bit keys, not an argsort, which on
this machine's numpy takes four to five times as long.  A key's top bits are
the value's order-preserving bit pattern (the sign bit set on positive
values, every bit flipped on negative ones, NaN of either sign past every
other value), and its last ceil(log2 n) bits the value's flat position, so
each position comes out of the sort beside its value.  Values whose keys
share their top bits come out in position order, which can invert two of
them; each run of such values that holds an inversion is sorted by value
again, stably (`_untangle`).  The order is then that of a stable argsort of
the full bit patterns: -0.0 before +0.0, and equal values by position.

Summation order does not follow the sort: the Lloyd sums and the cell
errors run over each table's members in row-major order, and the per-group
errors over the whole layer in row-major order; only the search uses the
sorted order.  Summing in sorted order (with `np.add.reduceat`, say) would
round differently, so the float64 tables, the objective trace and in the
end the packed bytes would depend on the sort.  The Lloyd sums are taken
straight over the layout: `np.add.at` adds each bin's terms in index order
into a running sum, as one `np.bincount` does, every bin belongs to one
table, and a table's members keep their row-major order in the layout.  So
each bin sees its terms in member order, and the layout's interleaving of
the tables changes no bit; nor does taking the sums a block at a time.  Both Lloyd sums are one `np.add.at` into complex128
sums, the weighted values in the real parts and the weights in the
imaginary ones: a complex addition adds each part as float64 does.  The
errors are `.sum()`s of each table's members in member order, and numpy's
float64 `.sum()` of a contiguous array follows a pairwise tree that depends
only on its length, so the sums of the tree's leaves, each leaf gathered
through the table's groups and combined in tree order, are the whole sum
(`_leaves`, `_fold`).  The tests pin these properties of numpy, and
`np.quantile`'s linear method, which `init_tables` follows on the sorted
copy.

Memory follows the layer's size in a few bytes per weight, and no step
makes a full-size temporary it does not keep.  The sort builds its keys a
block at a time and gathers the sorted copy into the keys' own buffer, so
it peaks at the keys and the positions, 12 bytes a weight, as an argsort
and its int32 copy would.  Members are whole selection groups, so
`_Members` keeps which table each group belongs to as one entry per group,
and each value's code in a byte.  Sorted positions are int32 below 2**31
values, and the initial quantiles are read from the sorted copy.  The
assignment step takes uint8 codes and forms its errors a row block at a
time; the final one, which needs no sorted copy, runs after the sorted
values and their positions are freed.  A code table spans 1 MiB of
address space, of which only the buckets the values occupy, a few pages,
are ever written.  The inner steps read the normalized weights where they
lie: each is one pass over the layout a block of rows at a time (`_Pass`),
which `learn` builds once.  It takes the weighted error only on the steps
whose objective is asked for: all of them for `learn`'s full trace, the
last one for `quantize` and `compare`, which read no other.  A round's last
step whose error is not asked for takes no pass, as no sums follow it.  Per
weight, an inner step then holds the sorted values (8 bytes), their
positions (4), the normalized weights (8), the codes (1) and the group
membership (1 byte per group): about 21 bytes for groups of 16, beside the
pass's fixed 1.5 MiB of block buffers and, while it takes an error, 1 MiB
of leaf buffers.  Measured under tracemalloc on 256x2048, where those
buffers are about a layer's worth, one learn peaks at 7.0 times its float32
layer under nvfp4 and 6.9 times under int4 with `-g 128 -S 16`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LayoutError, UnsupportedConfigError, ValidationError
from .grids import SCALE_MODES, BaseFormat, compute_scales, round_bf16
from .quantizers import (
    _MARK,
    _cells,
    _occupied,
    _recon_lookup,
    check_table,
    code_table,
    expand_groups,
    normalize,
    recon_codes,
)
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

_SIGN = np.uint64(1 << 63)  # a float64's sign bit

# Values per block of the sort key build and of the search for inversions.
_SORT_BLOCK = 1 << 16


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
    idx = (lo - width.cumsum() + width).repeat(width)
    idx += np.arange(idx.size)
    return idx


def _ordered(bits: np.ndarray, out=None) -> np.ndarray:
    """Float64 bit patterns as unsigned integers in the values' order: the
    sign bit set on positive values, every bit flipped on negative ones.  So
    -0.0 ranks just below +0.0."""
    flip = np.right_shift(bits.view(np.int64), 63, out=None if out is None else out.view(np.int64))
    flip = flip.view(np.uint64)
    flip |= _SIGN
    flip ^= bits
    return flip


def _unordered(keys: np.ndarray) -> np.ndarray:
    """The float64 values whose `_ordered` patterns are `keys`."""
    return (keys ^ (~(keys.view(np.int64) >> 63).view(np.uint64) | _SIGN)).view(np.float64)


def _sort_keys(flat: np.ndarray, bits: int) -> np.ndarray:
    """Each value's `_ordered` pattern with its last `bits` bits replaced by
    its position, NaN of either sign ranked past every other value.

    Built a block at a time, so that no full-size temporary is made.
    """
    keys = np.empty(flat.size, dtype=np.uint64)
    step = max(min(flat.size, _SORT_BLOCK), 1)
    positions = np.arange(step, dtype=np.uint64)
    nan = np.empty(step, dtype=bool)
    for a in range(0, flat.size, step):
        k, v = keys[a:a + step], flat[a:a + step]
        _ordered(v.view(np.uint64), out=k)
        if np.isnan(v, out=nan[:v.size]).any():
            k[nan[:v.size]] = ~np.uint64(0)
        k &= ~np.uint64((1 << bits) - 1)
        k |= positions[:v.size]  # blocks start at multiples of their power-of-two step
        k |= np.uint64(a)
    return keys


def _untangle(values: np.ndarray, order: np.ndarray, bits: int) -> None:
    """Sorts by value, in place, every run of `values` whose keys share their
    prefix (all but the last `bits` bits) and that holds an inversion.

    A run is one prefix's values, in the order of their positions.  Runs
    follow each other in value order, so a run's ends are found by a binary
    search of its least and greatest possible values; the two runs of
    prefixes that hold the zeros, one of each sign, are searched as one
    range, which a stable sort keeps in key order, -0.0 first.  The
    search's comparisons tell apart whole runs only, so it is exact whatever
    order the values inside a run are in.
    """
    low = np.uint64((1 << bits) - 1)
    tiny = low.view(np.float64)  # the largest magnitude in the zeros' prefixes
    for a in range(0, values.size - 1, _SORT_BLOCK):
        b = min(a + _SORT_BLOCK, values.size - 1)
        at = (values[a + 1:b + 1] < values[a:b]).nonzero()[0]
        if not at.size:
            continue
        prefix = _ordered(values[a + at].view(np.uint64)) & ~low
        least, most = _unordered(prefix), _unordered(prefix | low)
        least[least == 0] = -tiny
        most[most == 0] = tiny
        lo = values.searchsorted(least, side="left")
        hi = values.searchsorted(most, side="right")
        fresh = np.concatenate(([True], lo[1:] != lo[:-1]))
        idx = _spans(lo[fresh], hi[fresh])
        v = values[idx]
        by_value = v.argsort(kind="stable")
        values[idx] = v[by_value]
        order[idx] = order[idx][by_value]


class _SortedCells:
    """Fixed values, sorted once, for repeated nearest-entry searches.

    `order` is each sorted value's flat position in the layout: int32 below
    `_NARROW_BELOW` values and intp from there on.  `lookup(table)` equals
    `recon_codes(table, values)`, from a code table written over the
    buckets the values occupy, into one reused buffer.
    """

    def __init__(self, values, sorted_values, order):
        self.values = values
        self._flat = values.reshape(-1)
        self.sorted = sorted_values
        self.order = order
        self._buckets = _occupied(sorted_values)
        self._lut = None

    @classmethod
    def of(cls, values) -> "_SortedCells":
        """The values sorted by one `np.sort` of their `_sort_keys`, whose
        last bits carry each value's position, and `_untangle`d."""
        v = np.ascontiguousarray(values, dtype=np.float64)
        flat = v.reshape(-1)
        bits = max(flat.size - 1, 0).bit_length()
        keys = _sort_keys(flat, bits)
        keys.sort()
        order = np.empty(flat.size, dtype=np.int32 if flat.size < _NARROW_BELOW else np.intp)
        np.bitwise_and(keys, np.uint64((1 << bits) - 1), out=order, casting="unsafe")
        sorted_values = keys.view(np.float64)  # the keys' buffer, which they no longer need
        for a in range(0, flat.size, _SORT_BLOCK):  # `take` widens int32 indices whole
            b = a + _SORT_BLOCK
            # In range; "raise" would buffer `out`.
            flat.take(order[a:b], out=sorted_values[a:b], mode="clip")
        _untangle(sorted_values, order, bits)
        return cls(v, sorted_values, order)

    def release_sorted(self) -> None:
        """Frees the sorted copy and the positions, which `lookup` does not read."""
        self.sorted = self.order = None

    def runs(self, table):
        """`_cell_runs` of all the sorted values under `table`."""
        return _cell_runs(check_table(table), self.sorted)

    def lookup(self, table: np.ndarray) -> np.ndarray:
        """`recon_codes(table, values)` of a float64 `table`, as uint8 for
        tables of up to 255 entries."""
        if table.size > _MARK:
            return recon_codes(table, self.values)
        self._lut = code_table(table, self._buckets, self._lut)  # a new table the first time
        return _recon_lookup(self._lut, table, self._flat).reshape(self.values.shape)


class _Members:
    """Values split between tables by group, with each value's code under its own table.

    The values fall into groups of `sel_size` consecutive ones in row-major
    order, a layer's selection groups, and `part` holds one bit per group:
    whether it belongs to table 1.  `codes` holds one code per value in that
    same layout, the code of table `j` offset by `j` times the table size, so
    one set of Lloyd sums serves every table; they take the narrowest
    unsigned type that holds them (one byte for two 16-entry tables).
    `move(tables)` brings the codes up to date after the tables move,
    rewriting only the values whose code can have changed.
    """

    def __init__(self, cells: _SortedCells, member1, tables, full_codes, sel_size=1):
        self.cells = cells
        self.part = np.asarray(member1, dtype=bool).ravel()
        self.sel_size = sel_size
        self.size = tables.shape[1]
        self.runs = [cells.runs(t) for t in tables]
        self.codes = full_codes[0].astype(np.min_scalar_type(tables.size - 1)).reshape(-1)
        for j in range(1, len(full_codes)):
            self._recode(j, full_codes[j])

    def _recode(self, j, codes):
        """Table `j`'s members take their codes from `codes` of every value."""
        groups = (self.part == j).nonzero()[0]
        rows = codes.reshape(-1, self.sel_size).take(groups, axis=0)
        rows = rows.astype(self.codes.dtype, copy=False)  # wide enough for the offset
        rows += j * self.size
        self.codes.reshape(-1, self.sel_size)[groups] = rows

    def move(self, tables) -> None:
        """Recode after each table `j` moved to `tables[j]`.

        A value can change code only where the cells did: between a
        boundary's old and new sorted position, or inside an old or new
        window.  Those values get their new run's label, or `recon_codes`
        inside a new window.  Values elsewhere stay in their run, whose label
        holds while the distinct entries keep their indices.  When they do
        not, or a table is on the fallback (one window, one label), that
        table takes a full pass.

        The remaining tables are recoded together: sorted position `p` of table
        `j` is keyed `j * n + p`, and each table's boundaries close with
        `(j + 1) * n`, so one search of the keyed boundaries gives every
        value its run among all the tables' runs.
        """
        n = self.cells.sorted.size
        lo, hi, starts, stops, labels = [], [], [], [], []
        for j, table in enumerate(tables):
            old_first, _, old_lo, old_hi = self.runs[j]
            self.runs[j] = first, _, new_lo, new_hi = _cell_runs(table, self.cells.sorted)
            if not (old_lo.size == new_lo.size == first.size - 1
                    and old_first.tobytes() == first.tobytes()):
                self._recode(j, self.cells.lookup(table))
                continue
            lo += [new_lo + j * n, [(j + 1) * n]]
            hi += [new_hi + j * n, [(j + 1) * n]]
            starts.append(np.minimum(old_lo, new_lo) + j * n)
            stops.append(np.maximum(old_hi, new_hi) + j * n)
            labels.append(first + j * self.size)
        if not labels:
            return
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        labels = np.concatenate(labels).astype(self.codes.dtype)
        key = _spans(np.concatenate(starts), np.concatenate(stops))
        at = self.cells.order[key % n]
        mine = self.part[at // self.sel_size] == (key >= n)  # one bit per group: two tables
        key, at = key[mine], at[mine]
        run = lo.searchsorted(key, side="right")
        codes = labels[run]
        window = (hi.searchsorted(key, side="right") < run).nonzero()[0]
        if window.size:
            which, pos = np.divmod(key[window], n)
            for t, table in enumerate(tables):
                here = which == t
                if here.any():
                    codes[window[here]] = recon_codes(table, self.cells.sorted[pos[here]]) + t * self.size
        self.codes[at] = codes


def _assign(cells, w_norm, col_importance, table0, table1, sel_size):
    """The assignment step: (codes under table 0, under table 1, each group's table, objective).

    A group takes the table with lower weighted squared error (ties keep
    table 0), or lower unweighted error when its columns carry no importance;
    the objective sums every group's weighted error under its table.  The
    errors are formed a row block of about `_LEAF` values at a time; a
    group's sum lies within one row, so the blocks do not change it.  The
    unweighted errors are formed only when some group carries no importance.
    """
    n, k = w_norm.shape
    shape = (-1, k // sel_size, sel_size)
    imp = np.asarray(col_importance, dtype=np.float64)
    dead = imp.reshape(-1, sel_size).sum(axis=1) == 0
    any_dead = dead.any()
    tables = [np.asarray(t, dtype=np.float64) for t in (table0, table1)]
    codes = [cells.lookup(t) for t in tables]
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
            if any_dead:
                e_u.append(b.reshape(shape).sum(axis=2))
            b *= imp
            e_w.append(b.reshape(shape).sum(axis=2))
        pick = e_w[1] < e_w[0]
        sigma[rows] = np.where(dead, e_u[1] < e_u[0], pick) if any_dead else pick
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
# The inner steps: one pass over the layout per Lloyd step
# ---------------------------------------------------------------------------

# Values per block of the inner steps' pass, and per leaf of its error sums.
# When the pass held 32 bytes a value per block, 2 MiB, one core's L2 on the
# 2-vCPU Xeon measured, two 512x4096 nvfp4 learns on two threads took a
# median 5.6% more CPU at 2**15, whose twice as many numpy calls hand the
# GIL over more often (about twice the voluntary context switches), and 3.9%
# more at 2**17, whose blocks outgrow L2.
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


class _Pass:
    """The inner steps' pass over a layer's values, a block of whole rows at a time.

    Each pass reads every value's code once, for the weighted squared error
    under the tables the last step made, when asked, and for the sums of
    the next step.  No pass holds a layer-sized temporary.

    Both Lloyd sums are one `np.add.at` in layout order into complex128
    sums, `v * i` the real part and the importance `i` the imaginary one: a
    complex addition adds each part as float64 does.  Every sum belongs to
    one table, whose members' terms come in their row-major order either
    way, so each is what one `np.bincount` over the members in member order
    gives.  The products do not depend on the tables or on which table a
    group chose, so the pass serves a whole `learn`.  The imaginary half of
    the block holds the column importances tiled over a block's rows,
    written once; when the layer fits one block, its real half too.

    A block is `_LEAF` values at most, but at least one row.  The blocks'
    buffers, intp codes and the complex products, take 24 bytes a value.
    """

    def __init__(self, values, col_importance):
        n, k = values.shape
        self.values = values.reshape(-1)
        self.imp = np.asarray(col_importance, dtype=np.float64)
        rows = min(n, max(1, _LEAF // k)) if k else 0
        width = rows * k
        self.blocks = [(a, min(a + width, n * k)) for a in range(0, n * k, max(width, 1))]
        self.codes = np.empty(width, dtype=np.intp)  # np.add.at is faster on intp than uint8
        self.z = np.empty(width, dtype=np.complex128)
        self.z.imag.reshape(rows, k)[...] = self.imp
        self.kept = len(self.blocks) == 1
        if self.kept:
            np.multiply(self.values, self.z.imag, out=self.z.real)

    def __call__(self, members: _Members, table, error: bool = True, sums: bool = True):
        """(The members' weighted squared error under `table`, summed per
        table's members then added, or None; the Lloyd sums, or None)."""
        total = self._error(members, table) if error else None
        if not sums:
            return total, None
        acc = np.zeros(table.size, dtype=np.complex128)
        for a, b in self.blocks:
            c, z = self.codes[: b - a], self.z[: b - a]
            c[...] = members.codes[a:b]
            if not self.kept:
                np.multiply(self.values[a:b], z.imag, out=z.real)
            np.add.at(acc, c, z)
        return total, (acc.real, acc.imag)

    def _error(self, members: _Members, table) -> float:
        """Each table's members' `.sum()` of `i * (v - t[c])**2` in member
        order, bit for bit: folded from the sums of its `_leaves`, each
        gathered through the table's groups into reused leaf buffers."""
        s = members.sel_size
        shape = (min(_LEAF, self.values.size) // s + 2, s)  # the groups a leaf can touch
        leaf = np.empty(shape), np.empty(shape), np.empty(shape, dtype=members.codes.dtype)
        rows = self.values.reshape(-1, s), self.imp.reshape(-1, s), members.codes.reshape(-1, s)
        parts = []
        for j in range(table.size // members.size):
            groups = np.flatnonzero(members.part == j)
            leaf_sums = []
            for a, b in _leaves(0, groups.size * s):
                g = groups[a // s : -(-b // s)]
                x, y, c = (buf[: g.size] for buf in leaf)
                rows[2].take(g, axis=0, out=c, mode="clip")
                table.take(c, out=x, mode="clip")
                rows[0].take(g, axis=0, out=y, mode="clip")
                y -= x  # the difference `v - t[c]`
                rows[1].take(g % len(rows[1]), axis=0, out=x, mode="clip")
                x *= y
                x *= y
                leaf_sums.append(x.reshape(-1)[a % s : a % s + b - a].sum())
            parts.append(float(_fold(groups.size * s, iter(leaf_sums))))
        return sum(parts[1:], parts[0])


def _lloyd_steps(members: _Members, tables, run: _Pass, n_inner: int, errors=None):
    """Yields the tables after each of `n_inner` Lloyd steps, and the
    members' weighted squared error under them on the steps `errors` names
    (every step when None), else None.

    `tables` stacks one table per part of `members`, and `run` is the pass
    over their values.  A step moves each entry to the weighted centroid of
    its cell; cells with zero total weight keep their entry.  `members.codes`
    follows every step but a last one whose error is not asked for: its
    codes would feed no pass.
    """
    errors = range(n_inner) if errors is None else errors
    _, sums = run(members, tables.ravel(), error=False)
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
            total, sums = run(members, tables.ravel(), error, sums=more)
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
    members = _Members(cells, np.zeros(v.size, dtype=bool), t, [cells.lookup(t[0])])
    for t, _ in _lloyd_steps(members, t, _Pass(v.reshape(1, -1), w), n_inner, errors=()):
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
    run = _Pass(w_norm, imp)

    for r in range(cfg.n_outer):
        codes0, codes1, sigma, objective = _assign(cells, w_norm, imp, t0, t1, sel)
        trace.append(objective)

        t = np.stack((t0, t1))
        members = _Members(cells, sigma, t, (codes0, codes1), sel)
        del codes0, codes1
        errors = None if full_trace else (cfg.n_inner - 1,) if r + 1 == cfg.n_outer else ()
        for t, error in _lloyd_steps(members, t, run, cfg.n_inner, errors):
            trace.append(np.nan if error is None else error)
        t0, t1 = t
        del members

    t0 = round_bf16(t0).astype(np.float32)
    t1 = round_bf16(t1).astype(np.float32)
    cells.release_sorted()  # 12 bytes a weight the final codes do without
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
