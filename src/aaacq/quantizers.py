"""Nearest-entry reconstruction and the fixed-grid baseline quantizers.

A quantized layer is a code matrix (one 4-bit index per weight), a strictly
positive scale per group of contiguous in-row weights, and one or two
reconstruction tables.  Dequantization is table[code] * scale.

Nearest-entry search is the one cell search every method shares.  The cells
of a sorted scalar table are intervals (Max 1960; Lloyd 1982), cut at the
midpoints between neighbouring distinct entries, so a value's code is its
entry's first index, found by counting the midpoints at or below it.  When
all entries are distinct, as in the fixed grids, each entry is its own first
index and the count is the code itself, with no gather.  The count is exact
outside a small window around each midpoint (a few ulps of the largest
magnitude among values and entries): there the nearer entry wins by more
than the rounding of `|v - t|` can undo.  Values inside a window go through
an exhaustive search whose first-minimum rule decides ties.  When two
distinct entries lie within a few windows of each other, or magnitudes
approach overflow or are not finite, every value does (the fallback).
`_cells` holds this definition; `recon_codes` applies it to values in any
order, and `codebooks` to values sorted once per layer.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptionError, ValidationError
from .grids import (
    INT4,
    NVFP4,
    BaseFormat,
    base_table,
    compute_scales,
    group_absmax,
    scales_from_absmax,
)


def expand_groups(per_group: np.ndarray, size: int) -> np.ndarray:
    """Repeat per-group values along rows back to per-weight layout."""
    return np.repeat(per_group, size, axis=1)


def _grouped(a: np.ndarray, size: int) -> np.ndarray:
    """A (rows, cols) array viewed as (rows, cols / size, size) groups."""
    rows, cols = a.shape
    return a.reshape(rows, cols // size, size)


def normalize(weights: np.ndarray, scales: np.ndarray, group_size: int) -> np.ndarray:
    """Weights divided by their group scales, in float64."""
    w = np.array(weights, dtype=np.float64)  # a copy, divided in place
    grouped = _grouped(w, group_size)
    grouped /= scales.astype(np.float64)[:, :, np.newaxis]
    return w


# ---------------------------------------------------------------------------
# Nearest-entry reconstruction
# ---------------------------------------------------------------------------

def check_table(table: np.ndarray) -> np.ndarray:
    """A reconstruction table as float64; raises unless it is non-decreasing."""
    t = np.asarray(table, dtype=np.float64)
    if (t[1:] < t[:-1]).any():
        raise ValidationError("reconstruction table must be non-decreasing")
    return t


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


def _cells(table: np.ndarray, big):
    """The nearest-entry cells of a sorted `table` for values up to `big`.

    Returns `(first, mid, half)`: the first index of each distinct entry, the
    midpoints between neighbouring distinct entries and the window
    half-width around each.  `mid` is None on the fallback, when distinct
    entries lie within 4 windows of each other or `big` (the largest
    magnitude among values and entries) is not below `_MAGNITUDE_MAX`, NaN
    included; then every value needs the exhaustive search.
    """
    first = np.flatnonzero(np.concatenate(([True], table[1:] != table[:-1])))
    distinct = table[first]
    half = big * _WINDOW_REL + _WINDOW_ABS
    if not (
        big < _MAGNITUDE_MAX
        and (distinct[1:] - distinct[:-1]).min(initial=np.inf) > 4 * half
    ):
        return first, None, half
    return first, 0.5 * distinct[:-1] + 0.5 * distinct[1:], half


def _recon_exact(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`recon_codes` by a binary search and a first-minimum tie walk per value."""
    pos = np.searchsorted(t, v, side="left")
    lo = np.clip(pos - 1, 0, t.size - 1)
    hi = np.clip(pos, 0, t.size - 1)
    pick_hi = np.abs(v - t[hi]) < np.abs(v - t[lo])
    idx = np.where(pick_hi, hi, lo)
    # Duplicate entries share a value; the code must point at the first one.
    idx = np.searchsorted(t, t[idx], side="left")
    # Distinct entries can still tie in floating point when their gap is
    # below the distance's ulp; the argmin contract wants the first index.
    left = np.maximum(idx - 1, 0)
    ties = (idx > 0) & (np.abs(v - t[left]) == np.abs(v - t[idx]))
    if np.any(ties):
        idx = idx.copy()
        flat_idx = idx.reshape(-1)
        flat_v = v.reshape(-1)
        for j in np.flatnonzero(ties.reshape(-1)):
            i, x = int(flat_idx[j]), flat_v[j]
            d = abs(x - t[i])
            while i > 0 and abs(x - t[i - 1]) == d:
                i -= 1
            flat_idx[j] = i
    return idx


def recon_codes(table: np.ndarray, values: np.ndarray, dtype=np.intp) -> np.ndarray:
    """Index of the nearest table entry per value, ties toward the lower index.

    The table must be non-decreasing.  Equals an exhaustive argmin with
    first-minimum tie-breaking: each value's run (how many midpoints lie at
    or below it, less a window) picks its entry, and only values inside a
    window, or every value on the fallback, are searched exhaustively.
    Codes come back as `dtype`, which must hold the table's last index;
    `np.uint8` spares a 16-entry table's codes the round trip through intp.
    """
    t = check_table(table)
    v = np.asarray(values, dtype=np.float64)
    # A 0-d input gives a scalar, as np.searchsorted does.
    return _recon_flat(t, v.reshape(-1)).astype(dtype, copy=False).reshape(v.shape)[()]


def _recon_flat(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`recon_codes` of 1-D values under a checked table, in some integer dtype.

    When the table's entries are distinct, each entry is its own first index,
    so a value's run is its code and needs no gather.
    """
    if v.size == 0 or t.size < 2:
        return _recon_exact(t, v)
    # v.max() first: Python's max keeps a leading NaN, so NaN takes the fallback.
    first, mid, half = _cells(t, max(v.max(), -v.min(), abs(t[0]), abs(t[-1])))
    if mid is None:
        return _recon_exact(t, v)
    # A value is in window run - 1 or in none: midpoints are 4 windows apart.
    run = np.zeros(v.size, dtype=np.min_scalar_type(mid.size))
    above = np.empty(v.size, dtype=bool)
    step = above.view(np.uint8)  # adding bool to uint8 would cast in buffers
    for x in mid - half:
        np.greater_equal(v, x, out=above)
        run += step
    codes = run if first.size == t.size else first.take(run)
    np.less_equal(v, np.concatenate(([-np.inf], mid + half)).take(run), out=above)
    window = np.flatnonzero(above)
    if window.size:
        codes[window] = _recon_exact(t, v[window])
    return codes


def recon(table: np.ndarray, w_norm: float) -> tuple[int, float]:
    """Nearest-entry code and reconstruction value for one normalized weight."""
    code = int(recon_codes(table, np.asarray([w_norm]))[0])
    return code, float(np.asarray(table, dtype=np.float64)[code])


# ---------------------------------------------------------------------------
# Round-to-nearest baseline
# ---------------------------------------------------------------------------

def rtn_quantize(
    weights: np.ndarray,
    fmt: BaseFormat,
    group_size: int,
    scale_mode: str = "exact-bf16",
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize against the format's fixed table with absmax group scales.

    Returns (codes, scales): codes as uint8 with the weight matrix's shape,
    scales as float32 with one entry per scale group.
    """
    scales = compute_scales(weights, fmt, group_size, scale_mode)
    w_norm = normalize(weights, scales, group_size)
    codes = recon_codes(base_table(fmt), w_norm, dtype=np.uint8)
    return codes, scales


_FLT_MAX = float(np.finfo(np.float32).max)


def _scale_decoded(values: np.ndarray, scales: np.ndarray, group_size: int, peak: float) -> None:
    """Multiply decoded table entries by their group scales in place, in float64.

    `peak` is the largest entry magnitude.  A BF16 scale rounded up can carry
    an entry past float32's range; only groups whose scale times `peak` does
    are saturated at float32's largest finite value.
    """
    grouped = _grouped(values, group_size)
    grouped *= scales.astype(np.float64)[:, :, np.newaxis]
    if scales.size and float(scales.max()) * peak > _FLT_MAX:
        hot = scales.astype(np.float64) * peak > _FLT_MAX
        grouped[hot] = np.clip(grouped[hot], -_FLT_MAX, _FLT_MAX)


def dequantize(
    codes: np.ndarray,
    scales: np.ndarray,
    table0: np.ndarray,
    table1: np.ndarray,
    selection: np.ndarray,
    group_size: int,
    sel_size: int,
) -> np.ndarray:
    """Reconstruct weights: the selected table's entry times the group scale.

    `selection` holds one bit per selection group of `sel_size` contiguous
    in-row weights choosing table0 (0) or table1 (1).  Products beyond
    float32's range saturate at its largest finite value.
    """
    t0 = np.asarray(table0, dtype=np.float64)
    t1 = np.asarray(table1, dtype=np.float64)
    if t0.size != t1.size:
        raise ValidationError(f"table sizes differ: {t0.size} vs {t1.size}")
    codes = np.asarray(codes)
    if codes.size and int(codes.max()) >= t0.size:
        raise CorruptionError(
            f"code {int(codes.max())} out of range for {t0.size}-entry tables"
        )
    # One gather from both tables side by side: table 1's codes offset by M,
    # in the narrowest index type that holds the last of both tables' indices.
    both = np.concatenate((t0, t1))
    sel = np.asarray(selection, dtype=bool)
    index = codes
    if sel.any():
        index_type = np.promote_types(codes.dtype, np.min_scalar_type(both.size - 1))
        offset = (sel * t0.size).astype(index_type)
        index = (_grouped(codes.astype(index_type, copy=False), sel_size)
                 + offset[:, :, np.newaxis]).reshape(codes.shape)
    w_hat = both.take(index)
    _scale_decoded(w_hat, scales, group_size, np.abs(both).max(initial=0.0))
    return w_hat.astype(np.float32)


def dequantize_rtn(
    codes: np.ndarray, scales: np.ndarray, fmt: BaseFormat, group_size: int
) -> np.ndarray:
    """Dequantize a round-to-nearest layer (single fixed table)."""
    t = base_table(fmt)
    zeros = np.zeros((codes.shape[0], codes.shape[1] // group_size), dtype=np.uint8)
    return dequantize(codes, scales, t, t, zeros, group_size, group_size)


# ---------------------------------------------------------------------------
# IF4: per-group choice between FP4 and scaled INT4
# ---------------------------------------------------------------------------

def if4_quantize(
    weights: np.ndarray, group_size: int, scale_mode: str = "exact-bf16"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per scale group, keep whichever of FP4 or scaled INT4 has lower MSE.

    Both candidates use their own absmax scale; errors are compared in
    de-normalized units and ties prefer FP4.  Returns (codes, scales,
    format_bits) with format bit 1 marking groups stored under INT4.

    Each candidate is `rtn_quantize` decoded as `dequantize_rtn` would: the
    two share the group absmax and the block's float64 copy, and normalize,
    code and decode into the same buffers.
    """
    w = np.asarray(weights, dtype=np.float32)
    absmax = group_absmax(w, group_size)
    w64 = w.astype(np.float64)
    # C order whatever the input's layout: the group SSE's sums follow memory order.
    buf, buf32 = np.empty(w.shape), np.empty(w.shape, np.float32)
    candidates = []
    for fmt in (NVFP4, INT4):
        table = base_table(fmt)
        scales = scales_from_absmax(absmax, fmt, scale_mode)
        np.divide(_grouped(w64, group_size), scales.astype(np.float64)[:, :, np.newaxis],
                  out=_grouped(buf, group_size))
        codes = recon_codes(table, buf, dtype=np.uint8)
        table.take(codes, out=buf, mode="clip")  # in range; "raise" would buffer `out`
        _scale_decoded(buf, scales, group_size, np.abs(table).max())
        buf32[...] = buf
        np.subtract(w64, buf32, out=buf)
        np.square(buf, out=buf)
        candidates.append((codes, scales, _grouped(buf, group_size).sum(axis=2)))
    (codes, scales_f, sse_f), (codes_i, scales_i, sse_i) = candidates
    int4_wins = sse_i < sse_f
    np.copyto(_grouped(codes, group_size), _grouped(codes_i, group_size),
              where=int4_wins[:, :, np.newaxis])
    scales = np.where(int4_wins, scales_i, scales_f)
    return codes, scales, int4_wins.astype(np.uint8)


def if4_tables() -> tuple[np.ndarray, np.ndarray]:
    """Table pair used to store IF4 layers in one decode path.

    Table 0 is the FP4 grid padded to 16 entries by repeating its maximum
    (the pad entry is never indexed by FP4 codes), table 1 the INT4 grid.
    """
    t_fp4 = base_table(NVFP4)
    t0 = np.concatenate([t_fp4, t_fp4[-1:]])
    return t0, base_table(INT4)
