"""Nearest-entry reconstruction and the fixed-grid baseline quantizers.

A quantized layer is a code matrix (one 4-bit index per weight), a strictly
positive scale per group of contiguous in-row weights, and one or two
reconstruction tables.  Dequantization is table[code] * scale.

Nearest-entry search is the one cell search every method shares.  The cells
of a sorted scalar table are intervals (Max 1960; Lloyd 1982), cut at the
midpoints between neighbouring distinct entries, so a value's code is the
first index of its cell's entry.  That is exact outside a small window
around each midpoint (a few ulps of the largest magnitude among values and
entries): there the nearer entry wins by more than the rounding of
`|v - t|` can undo.  Values inside a window go through an exhaustive search
whose first-minimum rule decides ties.  When two distinct entries lie within
a few windows of each other, or magnitudes approach overflow or are not
finite, every value does (the fallback).  `_cells` holds this definition.

Any sorted table of at most 255 entries can apply it through a code table
(`code_table`), built from `_cells`.  The fixed grids have one each, built
once per process on first use, in about 1 ms.  Each spans 1 MiB of an
anonymous map, of which about half is ever written and so takes memory.  A
bucket is the float64 values that share their top 20 bits: sign, exponent
and 8 mantissa bits, so 2**-8 of a binade.  Its byte is the first index of
the cell that holds the whole bucket clear of every window, or a marker.  A
value's code is then one shift of its bit pattern and one gather, and only
values in marked buckets take the exhaustive search.
- A bucket clear of every window is exact: every value in it is, and
  within one cell, the code its cell gives is the argmin's.
- Near a midpoint the table's own magnitude sets the window.  A value
  within a window lies between two entries, so its magnitude is at most the
  table's.  The window's half-width, 2**-47 of that, is over 20 times the
  3 * 2**-53 that rounding can move a distance or a midpoint by.
- Buckets are marked from the first magnitude at which `_cells` takes the
  fallback: there four windows reach the smallest gap, or the magnitude
  reaches 2**1000, and a far value's distances to two entries can round
  alike.  Infinities and NaN lie past that cut.
Two marked buckets meet each midpoint, so about 1% of a laplace layer's
normalized weights are searched.  On one 64K-value block of such a layer
`recon_codes` took 0.28-0.37 ms under NVFP4 and 0.18-0.34 ms under INT4,
against 0.79-1.12 and 0.45-0.54 ms for the comparison pass per midpoint it
replaced (2 vCPUs, numpy 2.4).  `recon_codes` searches every value under
any other table.  `codebooks` builds a code table for each learned table,
but writes only the buckets a layer's values occupy (`_occupied`), into one
buffer it reuses for every table of the layer; every other bucket stays
marked.  The build takes the fallback's cut from its closed form, checked
at the cut and the bucket below by `_falls_back`, the test `_cells` makes,
and takes 50-100 us on a 64x512 layer.
"""

from __future__ import annotations

import functools
import mmap

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
    half-width around each.  `mid` is None on the fallback (`_falls_back`);
    then every value needs the exhaustive search.
    """
    first = np.concatenate(([True], table[1:] != table[:-1])).nonzero()[0]
    distinct = table[first]
    half = big * _WINDOW_REL + _WINDOW_ABS
    # Past _MAGNITUDE_MAX no gap is formed: the entries can be infinite.
    if not big < _MAGNITUDE_MAX or _falls_back(
            np.minimum.reduce(distinct[1:] - distinct[:-1], initial=np.inf), big):
        return first, None, half
    return first, 0.5 * distinct[:-1] + 0.5 * distinct[1:], half


def _falls_back(gap, big) -> bool:
    """Whether values up to magnitude `big` take the fallback under distinct
    entries at least `gap` apart: when 4 windows reach the gap, or `big` is
    not below `_MAGNITUDE_MAX`, NaN included."""
    return not (big < _MAGNITUDE_MAX and gap > 4 * (big * _WINDOW_REL + _WINDOW_ABS))


def _recon_exact(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`recon_codes` by a binary search and a first-minimum tie walk per value."""
    pos = t.searchsorted(v, side="left")  # in 0..t.size
    lo = np.maximum(pos - 1, 0)
    hi = np.minimum(pos, t.size - 1)
    pick_hi = np.abs(v - t[hi]) < np.abs(v - t[lo])
    idx = np.where(pick_hi, hi, lo)
    # Duplicate entries share a value; the code must point at the first one.
    idx = t.searchsorted(t[idx], side="left")
    # Distinct entries can still tie in floating point when their gap is
    # below the distance's ulp; the argmin contract wants the first index.
    left = np.maximum(idx - 1, 0)
    ties = (idx > 0) & (np.abs(v - t[left]) == np.abs(v - t[idx]))
    if ties.any():
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
    first-minimum tie-breaking.  Under a fixed grid's table each value's code
    is read from the grid's code table, and only values in marked buckets
    are searched; any other table searches every value.  Codes come back as
    `dtype`, which must hold the table's last index; `np.uint8` spares a
    fixed grid's codes the round trip through intp.
    """
    t = check_table(table)
    v = np.asarray(values, dtype=np.float64)
    flat = v.reshape(-1)
    lut = _grid_code_table(t)
    codes = _recon_exact(t, flat) if lut is None else _recon_lookup(lut, t, flat)
    # A 0-d input gives a scalar, as np.searchsorted does.
    return codes.astype(dtype, copy=False).reshape(v.shape)[()]


# A code table has one byte per bucket: the float64 values that share their
# top _KEY_BITS bits, which are the sign, the exponent and the first 8 bits
# of the mantissa.  Each byte is the complement (~) of the code every value
# of its bucket takes, or 0 when they need the exhaustive search, so that a
# byte's complement is its code or _MARK.  The table starts as zeros, and
# the marked half that is never written (past the fallback's cut) stays
# unbacked zero pages: a grid's table holds 0.5 MiB of memory, not 1.
_KEY_BITS = 20
_KEY_SHIFT = 64 - _KEY_BITS
_MARK = 255


def _key(x: float) -> int:
    """The bucket of `|x|`, counted from zero, in either sign's half of a code table."""
    return int(np.float64(abs(x)).view(np.uint64)) >> _KEY_SHIFT


def _keys(x: np.ndarray) -> np.ndarray:
    """`_key` of each of the float64 values `x`."""
    return np.abs(x).view(np.uint64) >> np.uint64(_KEY_SHIFT)


def _fallback_cut(t: np.ndarray, big: float, first: np.ndarray) -> int:
    """The first positive bucket from which `_cells(t, ...)` takes the fallback.

    `_falls_back` holds from some magnitude on: the window grows with the
    magnitude until four of them reach the smallest gap between distinct
    entries, or the magnitude reaches `_MAGNITUDE_MAX`.  The cut starts at
    that magnitude's bucket, worked out from the same bound, and moves a
    bucket at a time until `_falls_back` holds at the largest magnitude of
    the cut's bucket and not at that of the one below.  The last bucket
    holds NaN, where it always holds.
    """
    distinct = t[first]
    gap = np.minimum.reduce(distinct[1:] - distinct[:-1], initial=np.inf)
    reach = min(float(gap) / 4 - _WINDOW_ABS, _MAGNITUDE_MAX * _WINDOW_REL)
    k = _key(reach / _WINDOW_REL) if reach > 0 else 0

    def falls(k):  # at the largest magnitude in positive bucket k; max(top, big), NaN kept
        top = float(np.uint64(((k + 1) << _KEY_SHIFT) - 1).view(np.float64))
        return _falls_back(gap, big if big > top else top)

    while k > 0 and falls(k - 1):
        k -= 1
    while not falls(k):
        k += 1
    return k


_HALF_KEYS = 1 << (_KEY_BITS - 1)  # buckets per sign, the negative ones last
_EVERY_BUCKET = ([(0, _HALF_KEYS)], [(0, _HALF_KEYS)])


def _occupied(values: np.ndarray) -> tuple[list, list]:
    """The buckets ascending `values` (NaN last) occupy, as ranges of keys
    `[a, b)` per half: the positive one, then the negative one.

    Each sign's range runs from its smallest magnitude to its largest; a
    zero of either sign adds bucket 0 to both halves.
    """
    n = values.searchsorted(np.inf, side="right")  # NaN sorts last
    neg, pos = values.searchsorted(0.0, side="left"), values.searchsorted(0.0, side="right")
    zero = [(0, 1)] if pos > neg else []
    ends = _keys(values.take([neg - 1, 0, pos, n - 1], mode="clip")).tolist() if n else [0] * 4
    return (
        zero + ([(ends[2], ends[3] + 1)] if n > pos else []),
        zero + ([(ends[0], ends[1] + 1)] if neg > 0 else []),
    )


def code_table(table: np.ndarray, buckets=_EVERY_BUCKET, out=None) -> np.ndarray:
    """The code table of a sorted table of at most 255 entries, from `_cells`.

    Each byte's complement is its bucket's code, or `_MARK` (see above).
    Windows take the table's own magnitude (see the module docstring).  A
    value beyond the table's ends lies at least half the smallest gap from
    every midpoint, which is more than two windows at its own magnitude
    until the fallback begins, so it needs no window of its own.

    Only `buckets`, every bucket or the ranges `_occupied` gives for a set
    of values, are written, and every other bucket reads the marker.  The
    table is written into `out` when given, which must be zeros or a code
    table built before over the same `buckets`: no byte outside them was
    ever written.
    """
    t = check_table(table)
    if t.size > _MARK:
        raise ValidationError(f"a code table holds codes below {_MARK}, not {t.size} entries")
    # A new table is an anonymous map, whose pages take memory only once
    # written; calloc can hand back heap memory that it must clear first.
    lut = np.frombuffer(mmap.mmap(-1, 2 * _HALF_KEYS), dtype=np.uint8) if out is None else out
    big = max(abs(t[0]), abs(t[-1]))
    first, mid, half = _cells(t, big)
    cut = 0 if mid is None else _fallback_cut(t, big, first)
    for base, span in zip((0, _HALF_KEYS), buckets):
        for a, b in span:
            lut[base + (a if a > cut else cut):base + b] = 0  # the fallback's buckets, marked
    if not cut:
        return lut
    # Runs of one cell each, by magnitude: from +0 up, then from -0 down.
    n, below, half = mid.size, int(mid.searchsorted(0.0)), float(half)
    keys = _keys(np.concatenate((mid, mid - half, mid + half))).tolist()
    codes = (_MARK - first).tolist()  # each byte is the complement of its code
    runs = (([0] + keys[below:n] + [cut], codes[below:]),
            ([0] + keys[:below][::-1] + [cut], codes[below::-1]))
    for base, span, (edges, codes) in zip((0, _HALF_KEYS), buckets, runs):
        for a, b in span:
            b = b if b < cut else cut
            for lo, hi, code in zip(edges, edges[1:], codes):
                lo, hi = (lo if lo > a else a), (hi if hi < b else b)
                if lo < hi:
                    lut[base + lo:base + hi] = code
    # A window marks the buckets from its lower end's to its upper end's on
    # each side of zero it reaches.
    for m, a, b in zip(mid.tolist(), keys[n:2 * n], keys[2 * n:]):
        if m + half >= 0:
            lut[(a if m - half >= 0 else 0):b + 1] = 0
        if m - half < 0:
            lut[_HALF_KEYS + (b if m + half < 0 else 0):_HALF_KEYS + a + 1] = 0
    return lut


_GRIDS = {base_table(fmt).tobytes(): fmt for fmt in (NVFP4, INT4)}


def _grid_code_table(t: np.ndarray) -> np.ndarray | None:
    """The code table of a checked table that is a fixed grid, else None."""
    fmt = _GRIDS.get(t.tobytes())
    return None if fmt is None else _fixed_code_table(fmt)


@functools.cache
def _fixed_code_table(fmt: BaseFormat) -> np.ndarray:
    return code_table(base_table(fmt))


# Values per shift-and-gather step of `_recon_lookup`.  Their keys take
# 64 KiB, below glibc's mmap threshold, so the key buffer comes from the heap
# and is not faulted in afresh for each row block, as a 512 KiB one is.
_LOOKUP_CHUNK = 1 << 13


def _recon_lookup(lut: np.ndarray, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`recon_codes` of 1-D values by one shift and one gather each, as uint8."""
    codes = np.empty(v.size, dtype=np.uint8)
    bits = v.view(np.uint64)
    keys = np.empty(min(v.size, _LOOKUP_CHUNK), dtype=np.uint64)
    index = keys.view(np.intp)  # intp keys spare `take` a cast
    for a in range(0, v.size, _LOOKUP_CHUNK):
        b = a + _LOOKUP_CHUNK if a + _LOOKUP_CHUNK < v.size else v.size
        np.right_shift(bits[a:b], _KEY_SHIFT, out=keys[:b - a])
        # In range by construction; "raise" would buffer `out`.
        lut.take(index[:b - a], out=codes[a:b], mode="clip")
    np.invert(codes, out=codes)
    marked = (codes == _MARK).nonzero()[0]
    if marked.size:
        codes[marked] = _recon_exact(t, v[marked])
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
    two share the group absmax, and normalize, code and decode into one
    float64 buffer.  The float32 weights enter the float64 divide and
    subtract as they are; each widens exactly, so no float64 copy is kept.
    """
    w = np.asarray(weights, dtype=np.float32)
    absmax = group_absmax(w, group_size)
    # C order whatever the input's layout: the group SSE's sums follow memory order.
    buf = np.empty(w.shape)
    candidates = []
    for fmt in (NVFP4, INT4):
        table = base_table(fmt)
        scales = scales_from_absmax(absmax, fmt, scale_mode)
        np.divide(_grouped(w, group_size), scales.astype(np.float64)[:, :, np.newaxis],
                  out=_grouped(buf, group_size))
        codes = recon_codes(table, buf, dtype=np.uint8)
        table.take(codes, out=buf, mode="clip")  # in range; "raise" would buffer `out`
        _scale_decoded(buf, scales, group_size, np.abs(table).max())
        # Every in-range decode is a float32 value, so this is `dequantize_rtn`'s decode.
        np.subtract(w, buf, out=buf)
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
