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
fallback are `quantizers._cells`, the one definition `recon_codes` also
searches by.  Codes therefore equal `recon_codes` value for value, which the
tests check on adversarial tables.

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

Summation order does not follow the sort: the Lloyd sums (`np.bincount`)
and the cell errors run over the members in row-major order, table 0's
before table 1's, and the per-group errors over the whole layer in
row-major order; only the search uses the sorted order.  Summing in sorted
order (with `np.add.reduceat`, say) would save the scatter but rounds
differently, so the float64 tables, the objective trace and in the end the
packed bytes would depend on the sort.

Memory follows the layer's size in a few bytes per weight, and no step
makes a full-size temporary it does not keep.  Members are whole selection
groups, so `_Members` keeps its layout as one entry per group (the groups
in member order and each group's place in it), not an index per value.
Sorted positions are int32 below 2**31 values.  The assignment step takes
uint8 codes and one float64 buffer that holds each table's errors in turn.
Within an outer round the member values and importances are gathered group
row by group row, the normalized weights are freed (the member values are
the same numbers) and rebuilt from them by one scatter before the next
assignment, and the cell errors of every inner step go into one buffer,
filled in chunks that stay in cache.  Per weight, an inner step then holds
the sorted values (8 bytes), their positions (4), the member codes (8), the
member values, importances and their products (24) and the error buffer
(8): about 53 bytes, under 14 times the float32 layer in all.
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
    trace: np.ndarray = field(repr=False)  # float64 objective after each step


def importance(activations: np.ndarray) -> np.ndarray:
    """Per-column importance: the sum of squared calibration activations.

    Accumulates in float64 over the sorted squares, so the result is exactly
    invariant to the order of the calibration tokens.
    """
    x = np.array(activations, dtype=np.float64)  # a copy, squared and sorted in place
    np.multiply(x, x, out=x)
    x.sort(axis=0)
    return x.sum(axis=0)


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
    d = np.asarray(weights, dtype=np.float64) - np.asarray(reconstructed, dtype=np.float64)
    return float((d * d * np.asarray(col_importance, dtype=np.float64)).sum())


def init_tables(w_norm, table_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantile initialization of the two tables.

    Table 0 takes evenly spaced quantiles spanning the full range of the
    normalized weights; table 1 starts half a quantile step later and still
    ends at the maximum, giving distinct but nearby starting grids.
    Quantiles interpolate linearly between order statistics.
    """
    w = np.asarray(w_norm, dtype=np.float64).ravel()
    if w.size == 0:
        raise ValidationError("cannot initialize tables from an empty weight set")
    if table_size < 2:
        raise ValidationError("table size must be at least 2")
    steps = np.arange(table_size) / (table_size - 1)
    t0 = np.quantile(w, steps)
    delta = 1.0 / (2 * (table_size - 1))
    t1 = np.quantile(w, delta + (1.0 - delta) * steps)
    return t0, t1


# ---------------------------------------------------------------------------
# Nearest-entry cells of a fixed value set
# ---------------------------------------------------------------------------

_NONE = np.zeros(0, dtype=np.intp)

# Flat positions below this fit in int32, half the bytes of intp.
_NARROW_BELOW = 2**31

# Values per chunk of an elementwise pass; a chunk's float64 scratch stays in cache.
_CHUNK = 1 << 15


def _chunks(n: int):
    """Slices that cut `range(n)` into chunks of `_CHUNK`."""
    return (slice(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK))


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
        sorted_values = v.ravel()[order]
        if v.size < _NARROW_BELOW:
            order = order.astype(np.int32)
        return cls(sorted_values, order, v.shape)

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
    offset by `j` times the table size, so one `np.bincount` serves every
    table.  `move(tables)` brings the codes up to date after the tables
    move, rewriting only the values whose code can have changed.
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
        self.codes = np.empty(part.size * sel_size, dtype=np.intp)
        self.runs = [cells.runs(t) for t in tables]
        for j, codes in enumerate(full_codes):
            self._gather(j, codes)

    def gather(self, values) -> np.ndarray:
        """`values`, one per value in the layout, in member order, whole groups at a time."""
        return np.asarray(values).reshape(-1, self.sel_size)[self.groups].reshape(-1)

    def scatter(self, values, shape) -> np.ndarray:
        """The inverse of `gather`: member-ordered `values` in a new array of `shape`."""
        out = np.empty(shape, dtype=values.dtype)
        out.reshape(-1, self.sel_size)[self.groups] = values.reshape(-1, self.sel_size)
        return out

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
                self._gather(j, self.cells.codes(table))
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
    the objective sums every group's weighted error under its table.
    """
    n, k = w_norm.shape
    shape = (n, k // sel_size, sel_size)
    imp = np.asarray(col_importance, dtype=np.float64)
    se = np.empty((n, k))  # one table's squared errors at a time
    flat = se.reshape(-1)
    codes, e_w, e_u = [], [], []
    for table in (table0, table1):
        c = cells.codes(table, np.uint8)
        t, c_flat = np.asarray(table, dtype=np.float64), c.reshape(-1)
        for s in _chunks(flat.size):  # take widens its indices to intp, a chunk at a time
            t.take(c_flat[s], out=flat[s], mode="clip")
        np.subtract(w_norm, se, out=se)
        np.square(se, out=se)
        e_u.append(se.reshape(shape).sum(axis=2))
        se *= imp
        e_w.append(se.reshape(shape).sum(axis=2))
        codes.append(c)
    dead = imp.reshape(-1, sel_size).sum(axis=1) == 0
    sigma = np.where(dead[np.newaxis, :], e_u[1] < e_u[0], e_w[1] < e_w[0]).astype(np.uint8)
    return codes[0], codes[1], sigma, float(np.where(sigma, e_w[1], e_w[0]).sum())


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


def _lloyd_step(table, weighted_values, weights, codes):
    """One weighted centroid update; cells with zero total weight keep their entry.

    `weighted_values` is `weights * values`, formed once per member set.
    """
    m = table.size
    num = np.bincount(codes, weights=weighted_values, minlength=m)
    den = np.bincount(codes, weights=weights, minlength=m)
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), table)


def _lloyd_steps(members: _Members, tables, values, weights, n_inner: int):
    """Yields the tables after each of `n_inner` Lloyd steps.

    `tables` stacks one table per part of `members`; `values` and `weights`
    are in the members' layout, and `members.codes` follows every step.
    """
    wv = weights * values
    for _ in range(n_inner):
        # A centroid can round past an untouched neighbour (a constant
        # cell, say), so each table is re-sorted before the next search.
        step = _lloyd_step(tables.ravel(), wv, weights, members.codes)
        tables = np.sort(step.reshape(tables.shape), axis=1)
        members.move(tables)
        yield tables


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
    cells = _SortedCells.of(v)
    members = _Members(cells, np.zeros(v.size, dtype=bool), t, [cells.codes(t[0])])
    for t in _lloyd_steps(members, t, v, w, n_inner):
        pass
    return t[0]


def _cell_error(table, values, weights, codes, split, out):
    """Weighted squared error, summed separately before and after `split`.

    Each value's `weights * d * d` goes to `out`, a chunk at a time, so the
    only other scratch is one chunk of `d`.
    """
    d = np.empty(min(codes.size, _CHUNK))
    for s in _chunks(codes.size):
        c = d[: s.stop - s.start]
        # mode="clip" writes straight to `out=`; "raise" fills a copy first.
        table.take(codes[s], out=c, mode="clip")
        np.subtract(values[s], c, out=c)
        e = out[s]
        np.multiply(weights[s], c, out=e)
        e *= c
    return float(out[:split].sum()) + float(out[split:].sum())


def learn(
    bundle: LayerBundle,
    cfg: AaacConfig,
    col_importance: np.ndarray | None = None,
) -> LearnResult:
    """Learn two codebooks, the per-group selection, and the codes for a layer.

    Steps: compute group scales, normalize, compute activation importance
    (unit importance when no activations are available or when every column
    has zero importance), initialize both tables from quantiles, then
    alternate assignment and per-table weighted k-means for `cfg.n_outer`
    rounds.  The tables are then rounded to BF16, the selection recomputed,
    and codes emitted under each group's selected table.

    The trace records the importance-weighted objective on normalized weights
    after the assignment step and after every inner k-means iteration; it is
    non-increasing until the final BF16 rounding, which is not recorded.

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

    for _ in range(cfg.n_outer):
        codes0, codes1, sigma, objective = _assign(cells, w_norm, imp, t0, t1, sel)
        trace.append(objective)

        t = np.stack((t0, t1))
        members = _Members(cells, sigma, t, (codes0, codes1), sel)
        del codes0, codes1
        # The member values are w_norm's values, so w_norm is freed for the
        # inner steps and rebuilt from them for the next assignment.
        v = members.gather(w_norm)
        del w_norm
        # A group's importances are those of its columns, in any row.
        i = imp.reshape(-1, sel)[members.groups % (k // sel)].reshape(-1)
        errors = np.empty(v.size)
        for t in _lloyd_steps(members, t, v, i, cfg.n_inner):
            trace.append(_cell_error(t.ravel(), v, i, members.codes, members.split, errors))
        t0, t1 = t
        del i, errors
        w_norm = members.scatter(v, (n, k))
        del members, v

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
