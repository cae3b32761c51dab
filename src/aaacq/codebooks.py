"""Activation-aware adaptive codebook learning (the AAAC method).

Per layer, two scalar reconstruction tables are learned from the normalized
weight distribution and per-column activation importance.  Learning
alternates a per-group table assignment (each group of `sel_size` weights
picks the table with lower importance-weighted reconstruction error) with
importance-weighted scalar k-means refinement of each table.  Final tables
are rounded to BF16, the assignment is recomputed, and codes emitted as
nearest-entry indices under each group's selected table.

Every step needs the nearest-entry code of every value under a table, and
the values never change within a layer: only the tables move.  So no codes
are kept from one step to the next.  Each pass over the layer, a block of
rows at a time (`_Pass`), reads every value's code under its group's table
from the two tables' code tables, written for each step in the compact
layout over the buckets the layer's values occupy (`quantizers._CodeTables`,
whose module docstring gives the format).  Stacks of more than 128 entries
in all, which `kmeans_update` and `select_tables` allow, have no code
tables, and each value goes to `recon_codes` under its own table.

Summation order is row-major over each table's members: the Lloyd sums and
the errors run over the layout in row-major order, the per-group errors too.
The Lloyd sums are taken straight over the layout: `np.add.at` adds each
bin's terms in index order into a running sum, as one `np.bincount` does,
every bin belongs to one table, and a table's members keep their row-major
order in the layout.  So each bin sees its terms in member order, and the
layout's interleaving of the tables changes no bit; nor does taking the
sums a block at a time.  Both Lloyd sums are one `np.add.at` into complex128
sums, the weighted values in the real parts and the weights in the imaginary
ones: a complex addition adds each part as float64 does.  A round's first
sums come with its assignment step, which has every value's code under
both tables already.  The errors are `.sum()`s of each table's members in
member order, and numpy's float64 `.sum()` of a contiguous array follows a
pairwise tree that depends only on its length, so the sums of the tree's
leaves, combined in tree order, are the whole sum (`grids.pairwise_leaves`,
`pairwise_fold`).  Each block's terms are split by table, which keeps
member order, and streamed into each table's leaf buffer
(`grids.PairwiseSum`); the assignment step's
objective is streamed the same way.  The tests pin these properties of
numpy, and `np.quantile`'s linear method, which `init_tables` follows on a
sorted copy; `learn` sorts the layer in place for it instead and then
normalizes it again, bit for bit as the first time.

Memory follows the layer's size in a few bytes per weight, and no step
makes a full-size temporary it does not keep.  Per weight, an inner step
holds the normalized weights (8 bytes) and the compact buckets (2), and per
group its table (1 byte); beside them the pass keeps 2.1 MiB of block
buffers and, while it takes an error, 1 MiB of leaf buffers, which are freed
before the final codes (1 byte a weight) are written.  The initial
quantiles need the normalized weights alone.  The calibration is read
first (`calibration`, the one read of it, which scoring shares), widened
into float64 buffers that are freed once its importance is taken, before
any of the layer's are made.  The weights are read a row block at a time
(`LayerBundle.weight_rows`) for the scales and both normalizations, into
block buffers freed before the passes start, so a layer read from an
archive is never held whole.  Measured under
tracemalloc on 256x2048, where those buffers are 1.6 layers' worth, one
learn peaks at 4.4 times its float32 layer under nvfp4 and under int4 with
`-g 128 -S 16`, from memory or from an archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grids
from .errors import ValidationError
from .grids import (
    BaseFormat, PairwiseSum, Scratch, check_groups, check_scale_mode, compute_scales, round_bf16,
    row_blocks,
)
from .quantizers import _CodeTables, check_table, normalize, recon_codes
from .tensors import LayerBundle


@dataclass(frozen=True)
class AaacConfig:
    """Layout and iteration parameters for one learning run.

    The group sizes follow `grids.check_groups`, which `learn` checks again
    against the layer's column count.
    """

    fmt: BaseFormat
    group_size: int
    sel_size: int
    n_outer: int = 3
    n_inner: int = 10
    scale_mode: str = "exact-bf16"

    def __post_init__(self):
        check_groups(self.group_size, self.sel_size)
        if self.n_outer < 1 or self.n_inner < 1:
            raise ValidationError("iteration counts must be at least 1")
        check_scale_mode(self.scale_mode)

    @classmethod
    def for_format(cls, fmt: BaseFormat, **overrides) -> "AaacConfig":
        g = overrides.pop("group_size", fmt.group_size)
        s = overrides.pop("sel_size", g)
        return cls(fmt=fmt, group_size=g, sel_size=s, **overrides)


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
    if a.ndim != 2:
        raise ValidationError(f"activations must be 2-D, got shape {a.shape}")
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


def check_importance(col_importance, shape: tuple) -> np.ndarray:
    """`col_importance` as float64; raises `ValidationError` unless it is of
    `shape` and its values are finite and non-negative."""
    imp = np.asarray(col_importance, dtype=np.float64)
    if imp.shape != shape:
        raise ValidationError(f"importance must have shape {shape}, got {imp.shape}")
    if (imp < 0).any() or not np.isfinite(imp).all():
        raise ValidationError("importance values must be finite and non-negative")
    return imp


def _checked_importance(col_importance, cols: int) -> np.ndarray:
    """`check_importance` of `cols` values, or unit importance when every
    column has zero importance."""
    imp = check_importance(col_importance, (cols,))
    return imp if imp.any() else np.ones(cols)


def calibration(bundle: LayerBundle, scratch: Scratch):
    """(activations, importance) of the bundle's calibration: the one read of it.

    The activations are widened into `scratch`'s float64 activations buffer
    a row block at a time (`LayerBundle.read_activations`), or are None when
    the bundle has none.  Widening is exact, so importance and the output
    MSE read the values of the stored tensor.  Importance is `importance`
    of them, or unit importance when there are none or every column has
    zero importance.
    """
    if bundle.activation_shape is None:
        return None, np.ones(bundle.cols)
    x = scratch.take("activations", bundle.activation_shape)
    bundle.read_activations(x, scratch)
    imp = importance(x)
    return x, imp if imp.any() else np.ones(bundle.cols)


def weighted_error(
    weights: np.ndarray, reconstructed: np.ndarray, col_importance: np.ndarray
) -> float:
    """Importance-weighted squared reconstruction error in weight units.

    Raises `ValidationError` unless `col_importance` holds one finite,
    non-negative value per column (`check_importance`).
    """
    return _error_sums(_difference(weights, reconstructed), col_importance)[1]


def _difference(weights, reconstructed) -> np.ndarray:
    """`reconstructed - weights` in a new float64 array.

    `metrics.score` forms the same difference block by block in a reused
    buffer instead, without a whole-layer `reconstructed`.
    """
    d = np.array(reconstructed, dtype=np.float64)  # a copy, subtracted in place
    if d.shape != np.shape(weights):
        raise ValidationError(f"reconstruction of shape {d.shape} for {np.shape(weights)} weights")
    d -= weights
    return d


def _error_sums(d, col_importance) -> tuple[float, float]:
    """The mean and the column-weighted sum of the squares of `d`, which it
    squares in place; `col_importance` must pass `check_importance`."""
    imp = check_importance(col_importance, d.shape[-1:])
    d *= d
    mse = float(d.mean())
    d *= imp
    return mse, float(d.sum())


def init_tables(w_norm, table_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantile initialization of the two tables.

    Table 0 takes evenly spaced quantiles spanning the full range of the
    normalized weights; table 1 starts half a quantile step later and still
    ends at the maximum, giving distinct but nearby starting grids.
    Quantiles interpolate linearly between order statistics, bit for bit as
    `np.quantile` does, read from one sorted copy of the values.
    """
    return _quantile_tables(np.sort(np.asarray(w_norm, dtype=np.float64), axis=None), table_size)


def _quantile_tables(w, table_size: int) -> tuple[np.ndarray, np.ndarray]:
    """`init_tables` of ascending 1-D values `w`, NaN last."""
    if w.size == 0:
        raise ValidationError("cannot initialize tables from an empty weight set")
    if table_size < 2:
        raise ValidationError("table size must be at least 2")
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
# Passes over the layout
# ---------------------------------------------------------------------------

class _Pass:
    """Passes over a layer's values, a block of whole rows at a time.

    The values fall into groups of `sel_size` consecutive ones in row-major
    order, a layer's selection groups, and each group belongs to one table
    of a stack.  No codes are stored between passes: each block looks up
    every value's code under its group's table, an index into the flat
    stack, in the stack's compact code tables (`code_tables`), which put
    every value under table 0 when the pass is made and move the groups
    between tables (`_CodeTables.split`).  Stacks of more than 128 entries
    in all (`kmeans_update`'s large tables, or two large ones handed to
    `select_tables`) have no code tables: each value is searched by
    `recon_codes` under the table `code_tables` names for it.

    A call takes the Lloyd sums of the next step, `v * i` and the importance
    `i` added into complex128 sums, and, when asked, the weighted squared
    error under the tables, with each table's members' terms streamed into
    one `grids.PairwiseSum`, in the orders the module docstring gives.  The
    imaginary half of the block holds the importances tiled over a block's
    rows, written once; when the layer fits one block, its real half too.

    Its blocks are `grids.row_blocks`, as ranges of the flat values, each
    read once a pass through `values`.  A block's buffers take 34 bytes a
    value, and the leaf buffers 8 bytes a leaf value per table.
    """

    def __init__(self, values, col_importance, sel_size: int = 1):
        self.shape = n, k = values.shape
        self._flat = values.reshape(-1)
        self.imp = np.asarray(col_importance, dtype=np.float64)
        self.sel = sel_size
        self.blocks = [(r.start * k, r.stop * k) for r in row_blocks(n, k)]
        width = self.blocks[0][1] if self.blocks else 0
        self.codes = np.empty(width, dtype=np.intp)  # np.add.at is faster on intp than uint8
        self.found = np.empty((2, width), dtype=np.uint8)  # looked-up codes, two tables' worth
        self.z = np.empty(width, dtype=np.complex128)
        self.z.imag[...] = np.resize(self.imp, width)  # tiled over a block's rows
        self.x = np.empty(width)
        self.kept = len(self.blocks) == 1
        if self.kept:
            np.multiply(self.values(0, width), self.z.imag, out=self.z.real)
        self.dead = self.imp.reshape(-1, sel_size).sum(axis=1) == 0
        self.code_tables = _CodeTables(self.blocks, self.values)
        self.leaf = None

    def values(self, a: int, b: int) -> np.ndarray:
        """The normalized values of block `(a, b)`, 1-D float64."""
        return self._flat[a:b]

    def _look_up(self, tables: np.ndarray) -> np.ndarray:
        """Has `code_tables` hold `tables` (float64, one per row), which
        writes their code tables unless it holds them already, and returns
        the flat stack.  A stack of more than 128 entries has none, and its
        codes take `found` as intp."""
        # The tables are sorted: they need no check.
        dtype = np.uint8 if self.code_tables.write(tables) else np.intp
        if self.found.dtype != dtype:
            self.found = np.empty(self.found.shape, dtype=dtype)
        return tables.reshape(-1)

    def _codes(self, v, a: int, table, out) -> np.ndarray:
        """The codes of a block's values `v`, the layer's from `a` on, under
        each one's own table (None) or under table `table`, into `out` and
        as intp.  The block's float buffer is free until they are found."""
        out = out[: v.size]
        if self.code_tables.look_up(v, a, table, out, self.x) is None:
            # No code tables: each value searched under its table.
            for j, t, here in self.code_tables.members(a, a + v.size, table):
                out[here] = recon_codes(t, v[here]) + j * t.size
        c = self.codes[: v.size]
        c[...] = out
        return c

    def __call__(self, part, tables, error: bool = True, sums: bool = True):
        """(The members' weighted squared error under `tables`, summed per
        table's members then added, or None; the Lloyd sums, or None).

        `part` is the table index of each group, 0 or 1, which
        `code_tables.split` put there; only the error reads it."""
        flat = self._look_up(tables)
        acc = np.zeros(flat.size, dtype=np.complex128) if sums else None
        totals = self._sums(part) if error else None
        for a, b in self.blocks:
            v = self.values(a, b)
            c = self._codes(v, a, None, self.found[0])
            if sums:
                self._add(v, c, acc)
            if error:
                self._error(a, b, v, part, flat, c, totals)
        total = totals[0].total() + totals[1].total() if error else None
        return total, None if acc is None else (acc.real, acc.imag)

    def _add(self, v, c, acc) -> None:
        """Adds the Lloyd terms of a block's values `v`, whose codes are `c`, into `acc`."""
        z = self.z[: v.size]
        if not self.kept:
            np.multiply(v, z.imag, out=z.real)
        np.add.at(acc, c, z)

    def _sums(self, part) -> list:
        """One `PairwiseSum` per table of the members' errors, over reused leaf buffers."""
        n, k = self.shape
        ones = int(np.count_nonzero(part)) * self.sel
        return [PairwiseSum(c, buf) for c, buf in zip((n * k - ones, ones), self._leaf_buffers(2))]

    def _leaf_buffers(self, n: int) -> np.ndarray:
        """`n` leaf buffers of a `PairwiseSum`, reused from pass to pass."""
        if self.leaf is None or len(self.leaf) < n:
            self.leaf = np.empty((n, min(grids.BLOCK, self.shape[0] * self.shape[1])))
        return self.leaf

    def _error(self, a, b, v, part, flat, c, totals) -> None:
        """Streams `i * (v - t[c]) * (v - t[c])` of block `(a, b)`'s values `v` into their tables' sums."""
        d = flat.take(c, out=self.x[: b - a], mode="clip")  # "clip" writes straight to `out=`
        np.subtract(v, d, out=d)
        e = self.codes[: b - a].view(np.float64)  # the codes' buffer, which the block is done with
        np.multiply(self.z.imag[: b - a], d, out=e)
        e *= d
        s = self.sel
        one = part[a // s:b // s].view(bool)
        for mine, total in ((~one, totals[0]), (one, totals[1])):
            n = int(np.count_nonzero(mine)) * s
            if n:
                np.compress(mine, e.reshape(-1, s), axis=0, out=d[:n].reshape(-1, s))
                total.feed(d[:n])


def _assign(run: _Pass, tables, codes=None):
    """The assignment step over `run`'s values: (`codes`, the Lloyd sums,
    each group's table, the objective).

    A group takes the table with lower weighted squared error (ties keep
    table 0), or lower unweighted error when its columns carry no
    importance; the objective is the `.sum()` of every group's weighted
    error under its table, in row-major order, streamed into a `PairwiseSum`
    a block of rows at a time, as no layer-wide array holds it.  With
    `codes`, each value's code under its group's table goes there; without,
    the Lloyd sums of the first inner step, the pass the values would take
    next, are taken from the same codes.  A group's sum lies within one row,
    so the blocks do not change it.  The unweighted errors are formed only
    when some group carries no importance.
    """
    s, (n, k) = run.sel, run.shape
    m = tables.shape[1]
    flat = run._look_up(np.asarray(tables, dtype=np.float64))
    sigma = np.empty((n, k // s), dtype=np.uint8)
    objective = PairwiseSum(sigma.size, run._leaf_buffers(1)[0])
    acc = None if codes is not None else np.zeros(flat.size, dtype=np.complex128)
    shape = (-1, k // s, s)
    any_dead = run.dead.any()
    for a, b in run.blocks:
        rows, v = slice(a // k, b // k), run.values(a, b)
        e_w, e_u = [], []
        for j in (0, 1):
            c = run._codes(v, a, j, run.found[j])
            d = flat.take(c, out=run.x[: b - a], mode="clip")  # "clip" writes straight to `out=`
            np.subtract(v, d, out=d)
            np.square(d, out=d)
            if any_dead:
                e_u.append(d.reshape(shape).sum(axis=2))
            d *= run.z.imag[: b - a]
            e_w.append(d.reshape(shape).sum(axis=2))
        pick = e_w[1] < e_w[0]
        sigma[rows] = np.where(run.dead, e_u[1] < e_u[0], pick) if any_dead else pick
        objective.feed(np.where(sigma[rows], e_w[1], e_w[0]).reshape(-1))
        mine, theirs = run.found[:, : b - a]
        if codes is None:
            out = mine
        else:
            np.subtract(theirs, m, out=theirs)  # their codes in table 1
            out = codes.reshape(-1)[a:b]
            out[...] = mine
        group = np.dtype((np.void, s * out.itemsize))  # a group's codes as one item, copied whole
        np.copyto(out.view(group), theirs.view(group), where=sigma[rows].reshape(-1).view(bool))
        if codes is None:
            c = run.codes[: b - a]
            c[...] = mine
            run._add(v, c, acc)
    return codes, None if acc is None else (acc.real, acc.imag), sigma, objective.total()


def select_tables(w_norm, col_importance, table0, table1, sel_size: int) -> np.ndarray:
    """Per selection group, the table with lower weighted reconstruction error.

    Returns one bit per group of `sel_size` contiguous in-row weights; ties
    select table 0.  Raises `ValidationError` unless `w_norm` is 2-D,
    `sel_size` groups split its rows (`grids.check_groups`), `col_importance`
    holds a finite, non-negative value per column and both tables pass
    `quantizers.check_table`.  The shorter table is padded with its last
    entry, which changes no nearest entry's value.
    """
    w = np.ascontiguousarray(w_norm, dtype=np.float64)
    if w.ndim != 2:
        raise ValidationError(f"need a 2-D layer, got shape {w.shape}")
    check_groups(sel_size, sel_size, w.shape[1])
    imp = _checked_importance(col_importance, w.shape[1])
    t0, t1 = (check_table(np.ravel(t)) for t in (table0, table1))
    m = max(t0.size, t1.size)
    tables = np.stack([np.concatenate((t, np.full(m - t.size, t[-1]))) for t in (t0, t1)])
    return _assign(_Pass(w, imp, sel_size), tables)[2]


def _lloyd_steps(run: _Pass, part, tables, sums, n_inner: int, errors=None):
    """Yields the tables after each of `n_inner` Lloyd steps, and the
    members' weighted squared error under them on the steps `errors` names
    (every step when None), else None.

    `tables` stacks one table per value of `part`, `sums` are the members'
    Lloyd sums under them, and `run` is the pass over their values.  A step
    moves each entry to the weighted centroid of its cell; cells with zero
    total weight keep their entry.  A last step whose error is not asked
    for takes no pass: no sums follow it.
    """
    errors = range(n_inner) if errors is None else errors
    for k in range(n_inner):
        num, den = sums
        step = np.where(den > 0, num / np.where(den > 0, den, 1.0), tables.ravel())
        # A centroid can round past an untouched neighbour (a constant
        # cell, say), so each table is re-sorted before the next search.
        tables = step.reshape(tables.shape)
        tables.sort(axis=1)
        error, more = k in errors, k + 1 < n_inner
        total = None
        if error or more:
            total, sums = run(part, tables, error, sums=more)
        yield tables, total


def kmeans_update(table, values, weights, n_inner: int) -> np.ndarray:
    """Importance-weighted scalar k-means on a multiset of (value, weight) pairs.

    Runs `n_inner` Lloyd iterations, assigning each member to its nearest
    entry (ties toward the lower index) and moving each entry to the weighted
    centroid of its cell.  Entries with empty or zero-weight cells are kept.
    The table is sorted before the first search and after every step, so
    the returned table is sorted ascending.  Raises `ValidationError` on a
    table that is empty or not 1-D.
    """
    t = np.asarray(table, dtype=np.float64)
    t = check_table(np.sort(t) if t.ndim == 1 else t)[np.newaxis]  # sorting a 0-d table raises
    v = np.asarray(values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.shape != v.shape:
        raise ValidationError(f"got {w.size} weights for {v.size} values")
    # Each value is a selection group of one, and its weight its column's importance.
    run = _Pass(v.reshape(1, -1), w)
    for t, _ in _lloyd_steps(run, 0, t, run(0, t, error=False)[1], n_inner, errors=()):
        pass
    return t[0]


def learn(
    bundle: LayerBundle,
    cfg: AaacConfig,
    col_importance: np.ndarray | None = None,
    full_trace: bool = True,
) -> LearnResult:
    """Learn two codebooks, the per-group selection, and the codes for a layer.

    Steps: compute activation importance (`calibration`: unit importance
    when no activations are available or when every column has zero
    importance), compute group scales, normalize, initialize both tables
    from quantiles, then alternate assignment and per-table weighted k-means
    for `cfg.n_outer` rounds.  The tables are then rounded to BF16, the selection recomputed,
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
    g = cfg.group_size
    check_groups(g, cfg.sel_size, bundle.cols)
    n, k = bundle.shape
    blocks = row_blocks(n, k)
    # The importance first, on buffers that go before the layer's are made.
    if col_importance is None:
        imp = calibration(bundle, Scratch())[1]
    else:
        imp = _checked_importance(col_importance, k)

    # The scales and the normalized weights, one block of weights at a time,
    # read into buffers that go before the passes' are made.
    scales, w_norm, reads = np.empty((n, k // g), np.float32), np.empty((n, k)), Scratch()
    for r in blocks:
        w = bundle.weight_rows(r, reads)
        scales[r] = compute_scales(w, cfg.fmt, g, cfg.scale_mode)
        normalize(w, scales[r], g, out=w_norm[r])

    # The quantiles' order statistics come from the layer sorted in place,
    # which its normalization then writes again.
    w_norm.reshape(-1).sort()
    tables = np.stack(_quantile_tables(w_norm.reshape(-1), cfg.fmt.table_size))
    for r in blocks:
        normalize(bundle.weight_rows(r, reads), scales[r], g, out=w_norm[r])
    del w, reads
    trace = []
    sel = cfg.sel_size
    run = _Pass(w_norm, imp, sel)

    for r in range(cfg.n_outer):
        _, sums, sigma, objective = _assign(run, tables)
        trace += [objective]
        run.code_tables.split(sigma, sel)
        errors = None if full_trace else (cfg.n_inner - 1,) if r + 1 == cfg.n_outer else ()
        for tables, error in _lloyd_steps(run, sigma.reshape(-1), tables, sums, cfg.n_inner, errors):
            trace += [np.nan if error is None else error]

    t0, t1 = (round_bf16(t) for t in tables)
    run.leaf = None  # the inner steps' leaf buffers, which the final codes do without
    codes, _, sigma, _ = _assign(run, np.stack((t0, t1)), np.empty((n, k), dtype=np.uint8))
    return LearnResult(
        table0=t0,
        table1=t1,
        selection=sigma,
        codes=codes,
        scales=scales,
        trace=np.asarray(trace, dtype=np.float64),
    )
