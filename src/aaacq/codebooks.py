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
normalized weights are sorted once per layer, and each outer round splits
that order into each table's members, still sorted.  The nearest-entry
cells of a sorted table are intervals (Max 1960; Lloyd 1982), so each
distinct entry's cell is a contiguous run of the sorted values, cut at the
midpoints between neighbouring distinct entries.  A code pass is then one
`searchsorted` of the M - 1 midpoints into the sorted values, a `np.repeat`
of the run labels and one scatter back to the values' own layout, instead of
a binary search per value.  The number of numpy calls per pass does not
grow with the value count.

The runs are exact, not approximate.  A value farther from every midpoint
than a small window (a few ulps of the largest magnitude among values and
entries) is nearer its run's entry by more than the rounding of `|v - t|`
can undo.  Values inside a window go through `recon_codes`, so its
first-minimum tie rule decides them.  When two distinct entries lie within a
few windows of each other, or the magnitudes approach overflow, every value
goes through `recon_codes`.  Codes therefore equal `recon_codes` value for
value, which the tests check on adversarial tables.

Summation order does not follow the sort: the Lloyd sums (`np.bincount`),
the cell errors and the per-group errors are taken over the values in their
own row-major layout; only the search uses the sorted order.  Summing in
sorted order (with `np.add.reduceat`, say) would save the scatter but rounds
differently, so the float64 tables, the objective trace and in the end the
packed bytes would depend on the sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LayoutError, UnsupportedConfigError, ValidationError
from .grids import SCALE_MODES, BaseFormat, compute_scales, round_bf16
from .quantizers import check_table, expand_groups, normalize, recon_codes
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
    x = np.asarray(activations, dtype=np.float64)
    return np.sort(x * x, axis=0).sum(axis=0)


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

# Half-width of the window around each midpoint, relative to the largest
# magnitude among the values and entries.  Rounding moves each distance
# |v - t| by at most 2**-52 of that magnitude and a computed midpoint by at
# most 2**-53, so any half-width above 3 * 2**-53 of it leaves every value
# outside the windows on its exact side; 2**-47 is over twenty times that.
# The absolute term covers halving in the subnormal range.  Magnitudes above
# _MAGNITUDE_MAX take the fallback, so no bound overflows.
_WINDOW_REL = 2.0 ** -47
_WINDOW_ABS = 2.0 ** -1070
_MAGNITUDE_MAX = 2.0 ** 1000
_NONE = np.zeros(0, dtype=np.intp)


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
    first = np.flatnonzero(np.concatenate(([True], table[1:] != table[:-1])))
    distinct = table[first]
    big = max(abs(values[0]), abs(values[-1]), abs(table[0]), abs(table[-1]))
    half = big * _WINDOW_REL + _WINDOW_ABS
    if not (
        big < _MAGNITUDE_MAX
        and (distinct[1:] - distinct[:-1]).min(initial=np.inf) > 4 * half
    ):
        everything = np.array([n])
        return first[:1], everything, np.zeros(1, dtype=np.intp), everything
    mid = 0.5 * distinct[:-1] + 0.5 * distinct[1:]
    lo = values.searchsorted(mid - half, side="left")
    hi = values.searchsorted(mid + half, side="right")
    edges = np.concatenate(([0], lo, [n]))
    return first, edges[1:] - edges[:-1], lo, hi


class _SortedCells:
    """Fixed values, sorted once, for repeated nearest-entry searches.

    The values are laid out as consecutive parts, each searched under its
    own table and held here in ascending order.  `codes(tables)` equals
    `recon_codes` of each part under its table, in the values' own layout,
    but costs a boundary search per table, one `np.repeat` and one scatter
    instead of a search per value.
    """

    def __init__(self, sorted_values, order, shape, parts, source=None):
        self.sorted = sorted_values
        self.order = order     # flat position in the layout of each sorted value
        self.shape = shape
        self.parts = parts     # sizes of the consecutive parts of the layout
        self.source = source   # flat position in the split values of each value

    @classmethod
    def of(cls, values) -> "_SortedCells":
        v = np.asarray(values, dtype=np.float64)
        order = np.argsort(v, axis=None)
        return cls(v.ravel()[order], order, v.shape, (v.size,))

    def split(self, mask) -> "_SortedCells":
        """The values laid out as `values[~mask]` followed by `values[mask]`."""
        # np.flatnonzero is branch-free; boolean indexing with a mask as
        # irregular as `member[self.order]` is several times slower.
        member = np.asarray(mask, dtype=bool).ravel()
        source = np.concatenate((np.flatnonzero(~member), np.flatnonzero(member)))
        position = np.empty(member.size, dtype=np.intp)
        position[source] = np.arange(member.size)
        in1 = member[self.order]
        regroup = np.concatenate((np.flatnonzero(~in1), np.flatnonzero(in1)))
        n1 = np.count_nonzero(member)
        return _SortedCells(
            self.sorted[regroup], position[self.order[regroup]], (member.size,),
            (member.size - n1, n1), source,
        )

    def codes(self, tables) -> np.ndarray:
        """Codes of each part under its own table, offset by the table's
        position in `tables`, which stacks one table per part."""
        stack = np.asarray(tables, dtype=np.float64).reshape(len(self.parts), -1)
        labels, counts, fixes = [], [], []
        start = 0
        for j, size in enumerate(self.parts):
            table = check_table(stack[j])
            offset = j * table.size
            first, count, lo, hi = _cell_runs(table, self.sorted[start:start + size])
            labels.append(first + offset)
            counts.append(count)
            fixes.append((table, offset, start + lo, hi - lo))
            start += size
        codes = np.repeat(np.concatenate(labels), np.concatenate(counts))
        for table, offset, lo, width in fixes:
            if width.any():
                idx = np.repeat(lo - np.cumsum(width) + width, width) + np.arange(width.sum())
                codes[idx] = recon_codes(table, self.sorted[idx]) + offset
        out = np.empty(codes.size, dtype=np.intp)
        out[self.order] = codes
        return out.reshape(self.shape)


def _group_errors(w_norm, col_importance, table0, codes0, table1, codes1, sel_size):
    """Weighted and unweighted per-group squared errors under both tables."""
    n, k = w_norm.shape
    se0 = (w_norm - np.asarray(table0, dtype=np.float64)[codes0]) ** 2
    se1 = (w_norm - np.asarray(table1, dtype=np.float64)[codes1]) ** 2
    shape = (n, k // sel_size, sel_size)
    i_row = np.asarray(col_importance, dtype=np.float64)
    e0w = (se0 * i_row).reshape(shape).sum(axis=2)
    e1w = (se1 * i_row).reshape(shape).sum(axis=2)
    e0u = se0.reshape(shape).sum(axis=2)
    e1u = se1.reshape(shape).sum(axis=2)
    return e0w, e1w, e0u, e1u


def _decide(e0w, e1w, e0u, e1u, col_importance, sel_size):
    # Ties keep table 0.  Groups whose columns carry zero total importance
    # fall back to the unweighted comparison.
    i_groups = np.asarray(col_importance, dtype=np.float64).reshape(-1, sel_size).sum(axis=1)
    dead = i_groups == 0
    sigma = np.where(dead[np.newaxis, :], e1u < e0u, e1w < e0w)
    return sigma.astype(np.uint8)


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
    cells = _SortedCells.of(w)
    e0w, e1w, e0u, e1u = _group_errors(
        w, col_importance, table0, cells.codes(table0), table1, cells.codes(table1), sel_size
    )
    return _decide(e0w, e1w, e0u, e1u, col_importance, sel_size)


def _lloyd_step(table, weighted_values, weights, codes):
    """One weighted centroid update; cells with zero total weight keep their entry.

    `weighted_values` is `weights * values`, formed once per member set.
    """
    m = table.size
    num = np.bincount(codes, weights=weighted_values, minlength=m)
    den = np.bincount(codes, weights=weights, minlength=m)
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), table)


def kmeans_update(table, values, weights, n_inner: int) -> np.ndarray:
    """Importance-weighted scalar k-means on a multiset of (value, weight) pairs.

    Runs `n_inner` Lloyd iterations, assigning each member to its nearest
    entry (ties toward the lower index) and moving each entry to the weighted
    centroid of its cell.  Entries with empty or zero-weight cells are kept.
    The table is sorted before the first search and after every step, so
    the returned table is sorted ascending.
    """
    t = np.sort(np.asarray(table, dtype=np.float64))
    v = np.asarray(values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    wv = w * v
    cells = _SortedCells.of(v)
    for _ in range(n_inner):
        t = np.sort(_lloyd_step(t, wv, w, cells.codes(t)))
    return t


def _cell_error(table, values, weights, codes, split):
    """Weighted squared error, summed separately before and after `split`."""
    d = values - np.asarray(table, dtype=np.float64)[codes]
    e = weights * d * d
    return float(e[:split].sum()) + float(e[split:].sum())


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
    elif bundle.activations is not None:
        imp = importance(bundle.activations)
    else:
        imp = np.ones(k, dtype=np.float64)
    if not imp.any():
        imp = np.ones(k, dtype=np.float64)

    cells = _SortedCells.of(w_norm)
    # Quantiles are order statistics, so the sorted copy gives the same tables.
    t0, t1 = init_tables(cells.sorted, table_size)
    trace = []

    for _ in range(cfg.n_outer):
        e0w, e1w, e0u, e1u = _group_errors(
            w_norm, imp, t0, cells.codes(t0), t1, cells.codes(t1), cfg.sel_size
        )
        sigma = _decide(e0w, e1w, e0u, e1u, imp, cfg.sel_size)
        trace.append(float(np.where(sigma, e1w, e0w).sum()))

        member1 = expand_groups(sigma, cfg.sel_size).astype(bool)
        # Both tables' members side by side: table 1's codes are offset by
        # the table size, so one pass serves both.
        members = cells.split(member1)
        v = w_norm.ravel()[members.source]
        i = imp[members.source % k]
        wv = i * v
        t = np.concatenate((t0, t1))
        codes = members.codes(t)
        for _ in range(cfg.n_inner):
            # A centroid can round past an untouched neighbour (a constant
            # cell, say), so each table is re-sorted before the next search.
            t = np.sort(_lloyd_step(t, wv, i, codes).reshape(2, -1), axis=1).ravel()
            codes = members.codes(t)
            trace.append(_cell_error(t, v, i, codes, members.parts[0]))
        t0, t1 = t.reshape(2, -1)
        # Free this round's member arrays before the next full-layer pass.
        del members, v, i, wv, codes

    t0 = round_bf16(t0).astype(np.float32)
    t1 = round_bf16(t1).astype(np.float32)
    codes0, codes1 = cells.codes(t0), cells.codes(t1)
    e0w, e1w, e0u, e1u = _group_errors(w_norm, imp, t0, codes0, t1, codes1, cfg.sel_size)
    sigma = _decide(e0w, e1w, e0u, e1u, imp, cfg.sel_size)
    member1 = expand_groups(sigma, cfg.sel_size).astype(bool)
    codes = np.where(member1, codes1, codes0)
    return LearnResult(
        table0=t0,
        table1=t1,
        selection=sigma,
        codes=codes.astype(np.uint8),
        scales=scales,
        trace=np.asarray(trace, dtype=np.float64),
    )
