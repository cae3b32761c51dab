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

Any sorted table of at most 128 entries (`_PAIRS`) can apply it through a
code table, built from `_cells`.  A bucket is the float64 values that share
their top 20 bits (`_KEY_BITS`): sign, exponent and 8 mantissa bits, so
2**-8 of a binade.  A code table has one byte per bucket, each sign's half
counted from zero magnitude up, the positive half first.  The byte is the
complement (~) of the code of the cell that holds the whole bucket clear of
every window; or, where one window reaches the bucket, one more than the
code of the lower of that window's midpoint's two entries; or 0, a marker
whose complement is `_MARK`.  Midpoint bytes lie below every complement
because every code is below 128.  A value's code is then one shift of its
bit pattern and one gather.  A value in a midpoint's bucket takes the nearer
of the midpoint's two entries, the lower on a tie, and only values in marked
buckets take the exhaustive search.
- A bucket clear of every window is exact: every value in it is, and
  within one cell, the code its cell gives is the argmin's.
- A bucket that one window reaches lies clear of every other, so no entry
  but the window's two can be nearest any of its values, nor tie with the
  nearer: every other lies farther by more than rounding can undo.  The
  two-neighbour compare is then the argmin's, first minimum included.
- Near a midpoint the table's own magnitude sets the window.  A value
  within a window lies between two entries, so its magnitude is at most the
  table's.  The window's half-width, 2**-47 of that, is over 20 times the
  3 * 2**-53 that rounding can move a distance or a midpoint by.
- Buckets are marked where two windows reach them, in bucket 0 where a
  window does, and from the first magnitude at which `_cells` takes the
  fallback: there four windows reach the smallest gap, or the magnitude
  reaches 2**1000, and a far value's distances to two entries can round
  alike.  Infinities and NaN lie past that cut.
Two buckets meet each midpoint, so about 1% of a laplace layer's normalized
weights lie in a window's buckets.  BF16 weights over BF16 scales often fall
exactly on a midpoint; the compare settles them, and on the benchmark's
layers no value is searched.  On one 64x1024 block of a laplace layer
`recon_codes` took 122-130 us under NVFP4 and 119-131 us under INT4, against
144-162 and 132-148 us when every value of a window's buckets was searched
(2 vCPUs, numpy 2.4, best of 7 x 300 calls, three alternating runs).  The
scan for marked bytes is one pass over the gathered codes: fused into the
gather's chunks it took more, at one `nonzero` per chunk.

A code table lays its buckets out in one of two ways:
- Every bucket (`code_table`), for the fixed grids.  Each grid's is built
  once per process on first use, in about 1 ms, into 1 MiB of an anonymous
  map.  Nothing at or past the fallback's cut is written, so the marked half
  stays unbacked zero pages: 536 kB resident.  `recon_codes` searches
  every value under any other table.
- Compact (`_CodeTables`), for a learner's stack of at most two tables,
  written afresh for every step.  It holds only the buckets that a layer's
  values occupy (`_occupied`): per sign, bucket 0 and one run from the least
  nonzero bucket to that of the greatest magnitude, the halves end to end,
  then one marked bucket for the values in none (NaN).  Each table's
  stretch is padded to a power of two (`stride`), so a value's compact
  bucket and its table are bits of one integer, 2 bytes a value while two
  stretches fit 2**16, else 4.  These are stored once per layer: shifting
  each block's values and adding its groups' offsets instead cost
  learn-large's `quantize` 6% more CPU (10 alternating benchmark pairs).
  A build clears the buffer, then writes below each table's cut, so one
  buffer serves every stack of a layer.  Stacks over 128 entries have none.
A build takes the fallback's cut from its closed form, checked at the cut
and the bucket below by `_falls_back`, the test `_cells` makes.  Two
16-entry tables over a 64x512 layer take about 80 us (2 vCPUs, numpy 2.4,
best of 5 x 2000 builds).
"""

from __future__ import annotations

import bisect
import functools
import math
import mmap
import struct

import numpy as np

from .errors import CorruptionError, ValidationError
from .grids import (
    INT4,
    NVFP4,
    BaseFormat,
    Scratch,
    _check_group_shapes,
    _checked_uint8,
    base_table,
    compute_scales,
    group_absmax,
    row_blocks,
    scales_from_absmax,
)


def _grouped(a: np.ndarray, size: int) -> np.ndarray:
    """A (rows, cols) array viewed as (rows, cols / size, size) groups."""
    rows, cols = a.shape
    return a.reshape(rows, cols // size, size)


def normalize(weights: np.ndarray, scales: np.ndarray, group_size: int, out=None) -> np.ndarray:
    """Weights divided by their group scales, in float64: a new C-contiguous
    array, or the C-contiguous `out`.  Raises `ValidationError` unless the
    weights are 2-D, of `out`'s shape when given, split into groups by
    `grids.check_groups`, with one scale per group of each row."""
    if np.ndim(weights) != 2 or out is not None and np.shape(out) != np.shape(weights):
        raise ValidationError(f"weights must be 2-D and of `out`'s shape, got {np.shape(weights)}")
    _check_group_shapes(np.shape(weights), group_size, group_size, scales)
    if out is None:
        w = np.array(weights, dtype=np.float64, order="C")  # a copy, divided in place
    else:
        w = out
        np.copyto(w, weights)
    grouped = _grouped(w, group_size)
    grouped /= scales.astype(np.float64)[:, :, np.newaxis]
    return w


# ---------------------------------------------------------------------------
# Nearest-entry reconstruction
# ---------------------------------------------------------------------------

def check_table(table: np.ndarray) -> np.ndarray:
    """A reconstruction table as float64; raises unless it is 1-D, non-empty and
    non-decreasing, with any NaN last, where numpy's sort puts it."""
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 1 or not t.size:
        raise ValidationError(f"reconstruction table must be 1-D and non-empty, got shape {t.shape}")
    nan = np.isnan(t)
    if (t[1:] < t[:-1]).any() or (nan[:-1] > nan[1:]).any():
        raise ValidationError("reconstruction table must be non-decreasing, with any NaN last")
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


def _cells(t: list):
    """The nearest-entry cells of a sorted table, a list of floats, for
    values up to the table's own magnitude.

    Returns `(first, mid, half, gap, big)`: the first index of each distinct
    entry, the midpoints between neighbouring distinct entries, the window
    half-width around each, the smallest gap between distinct entries and
    the table's magnitude.  `mid` is None on the fallback (`_falls_back`);
    then every value needs the exhaustive search.
    """
    a, b = t[0], t[-1]
    a, b = (a if a >= 0 else -a), (b if b >= 0 else -b)
    big = b if b > a else a  # as max(a, b) takes it, NaN included
    first = [i for i in range(len(t)) if not i or t[i] != t[i - 1]]
    half = big * _WINDOW_REL + _WINDOW_ABS
    gap = math.inf
    for i, j in zip(first, first[1:]):
        d = t[j] - t[i]
        if not d > 4 * half:  # NaN included, which a running minimum would drop
            gap = d
            break
        gap = d if d < gap else gap
    # Past _MAGNITUDE_MAX no gap is formed: the entries can be infinite.
    if _falls_back(gap, big):
        return first, None, half, gap, big
    return first, [0.5 * t[i] + 0.5 * t[j] for i, j in zip(first, first[1:])], half, gap, big


def _falls_back(gap: float, big: float) -> bool:
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


_KEY_BITS = 20
_KEY_SHIFT = 64 - _KEY_BITS
_MARK = 255
_PAIRS = 128


def _key(x: float) -> int:
    """The bucket of `|x|`, counted from zero, in either sign's half of a code table."""
    return struct.unpack("<Q", struct.pack("<d", x))[0] >> _KEY_SHIFT & _HALF_KEYS - 1


def _keys(values: list) -> list:
    """`_key` of each of a list of floats."""
    x = np.array(values, dtype=np.float64)
    return (np.abs(x, out=x).view(np.uint64) >> _KEY_SHIFT).tolist()


def _fallback_cuts(cells: list, start: list) -> list:
    """The first positive bucket from which each table's values take the
    fallback, from its `_cells` and `start`, the bucket of its closed form
    (`_reach`): 0 where its own magnitude takes it.

    `_falls_back` holds from some magnitude on: the window grows with the
    magnitude until four of them reach the smallest gap between distinct
    entries, or the magnitude reaches `_MAGNITUDE_MAX`.  The cut starts at
    that magnitude's bucket, worked out from the same bound, and moves a
    bucket at a time until `_falls_back` holds at the largest magnitude of
    the cut's bucket, or the table's if larger, and not at that of the one
    below.  The last bucket holds NaN, where it always holds.
    """
    cuts, moved, n = start, True, 2 * len(start)
    while moved:
        # The largest magnitudes of buckets k - 1 and k of each table.
        bits = [b for k in cuts
                for b in ((k << _KEY_SHIFT) - 1 if k else 0, ((k + 1) << _KEY_SHIFT) - 1)]
        tops = struct.unpack(f"<{n}d", struct.pack(f"<{n}Q", *bits))
        moved = False
        for i, (_, mid, _, gap, big) in enumerate(cells):
            lower, upper = tops[2 * i], tops[2 * i + 1]
            if mid is None:
                cuts[i] = 0
            elif cuts[i] and _falls_back(gap, big if big > lower else lower):
                cuts[i], moved = cuts[i] - 1, True
            elif not _falls_back(gap, big if big > upper else upper):
                cuts[i], moved = cuts[i] + 1, True
    return cuts


def _reach(gap: float) -> float:
    """The magnitude from which 4 windows reach `gap`, in closed form, up to
    `_MAGNITUDE_MAX`; 0 when they reach it from 0 on."""
    r = gap / 4 - _WINDOW_ABS
    return (r if r < _MAGNITUDE_MAX * _WINDOW_REL else _MAGNITUDE_MAX * _WINDOW_REL) / _WINDOW_REL \
        if r > 0 else 0.0


_HALF_KEYS = 1 << (_KEY_BITS - 1)  # buckets per sign, the negative ones last
_BYTES = [bytes((b,)) for b in range(256)]
_WRAPPED = 2**64 - 1  # bucket 0's key, less one, as uint64
_EVERY_BUCKET = ([(0, _HALF_KEYS, 0)], [(0, _HALF_KEYS, _HALF_KEYS)])


def _occupied(blocks) -> tuple[list, list]:
    """The buckets that values, in any order and NaN aside, occupy, as
    ranges of keys `[a, b)` per half: the positive one, then the negative one.

    Each sign's range runs from its least nonzero bucket to the bucket of
    its greatest magnitude; bucket 0, which holds the zeros, is added to
    both halves when either holds a value there.  The values come as
    `blocks`, non-empty 1-D arrays, whose extremes are folded, so any split
    gives the same ranges.  Their buckets, less one, wrap bucket 0 past
    every other, so their least is the positive half's least nonzero
    bucket; less one more half, the negative half's.
    """
    zero, least, great = False, [], [0.0, 0.0]
    for x in blocks:
        k = np.right_shift(x.view(np.uint64), _KEY_SHIFT)
        for shift in (1, _HALF_KEYS):
            k -= shift
            least.append(int(np.minimum.reduce(k)) + 1)
            zero = zero or int(np.maximum.reduce(k)) == _WRAPPED
        g, h = np.fmax.reduce(x), -np.fmin.reduce(x)  # NaN aside
        great = [g if g > great[0] else great[0], h if h > great[1] else great[1]]
    zero = [(0, 1)] if zero else []
    return tuple(zero + ([(lo, _key(hi) + 1)] if hi > 0 and lo <= _key(hi) else [])
                 for lo, hi in ((min(least[::2], default=_HALF_KEYS), great[0]),
                                (min(least[1::2], default=_HALF_KEYS), great[1])))


def code_table(table: np.ndarray) -> np.ndarray:
    """The code table of a sorted table of at most `_PAIRS` entries over
    every bucket, from `_cells`, in an anonymous map: its pages take memory
    only once written, where calloc can hand back heap memory that it must
    clear first.

    Windows take the table's own magnitude (see the module docstring).  A
    value beyond the table's ends lies at least half the smallest gap from
    every midpoint, which is more than two windows at its own magnitude
    until the fallback begins, so it needs no window of its own.
    """
    t = check_table(table)
    if t.size > _PAIRS:
        raise ValidationError(f"a code table holds at most {_PAIRS} entries, not {t.size}")
    lut = np.frombuffer(mmap.mmap(-1, 1 << _KEY_BITS), dtype=np.uint8)
    _write_code_tables(lut, [t.tolist()], _EVERY_BUCKET, 1 << _KEY_BITS)
    return lut


class _CodeTables:
    """The code tables of a stack of at most two sorted tables, in the
    compact layout over the buckets that a layer's values occupy (see the
    module docstring), read twice as `read(a, b)` for each block `(a, b)`
    of `blocks`, which tile the layer in order: 1-D float64 values `a:b`.

    `layout` holds each half's spans `(first, end, base)`: buckets
    `first:end` lie from byte `base` of a table's stretch on, and table
    `j`'s stretch starts at `j * stride`.  `keys` holds each value's compact
    bucket under table 0.  `write` writes a stack's code tables over the
    last one's, and `look_up` gathers codes from them.
    """

    def __init__(self, blocks: list, read):
        # Per half, the compact bucket of bucket 0, the shift of the run's
        # buckets and where the run ends.
        self.layout, at, zero, shift, end = ([], []), 0, [None, None], [0, 0], [0, 0]
        for h, half in enumerate(_occupied(read(a, b) for a, b in blocks)):
            for a, b in half:
                if a:
                    shift[h], end[h] = at - a, b
                else:
                    zero[h] = at
                self.layout[h].append((a, b, at))
                at += b - a
        self.stride = 1 << at.bit_length()  # a power of two past the marked bucket, `at`
        zero = np.asarray([at if z is None else z for z in zero], dtype=np.intp)
        shift, end = np.asarray(shift, dtype=np.intp), np.asarray(end, dtype=np.intp)
        self.keys = np.empty(sum(b - a for a, b in blocks),
                             np.uint16 if 2 * self.stride <= 1 << 16 else np.uint32)
        for a, b in blocks:
            values = read(a, b)
            for c in range(0, values.size, _LOOKUP_CHUNK):  # in chunks, to keep the temporaries small
                key = (values[c:c + _LOOKUP_CHUNK].view(np.uint64) >> _KEY_SHIFT).astype(np.intp)
                half = key >> (_KEY_BITS - 1)
                key &= _HALF_KEYS - 1
                self.keys[a + c:a + c + key.size] = np.where(
                    key == 0, zero[half], np.where(key < end[half], key + shift[half], at))
        self.lut = np.zeros(2 * self.stride, dtype=np.uint8)

    def write(self, tables: np.ndarray) -> bool:
        """Writes the code tables of `tables`, sorted float64 rows, and
        returns True; or returns False for a stack of more than `_PAIRS`
        entries, which has none."""
        if tables.size > _PAIRS:
            return False
        self.lut[:] = 0  # marks every bucket that the new tables' cuts leave unwritten
        _write_code_tables(self.lut, tables.tolist(), self.layout, self.stride)
        return True

    def look_up(self, tables: np.ndarray, values: np.ndarray, index, out=None) -> np.ndarray:
        """`recon_codes` of 1-D `values` under the stack `tables` that `write`
        wrote last, at their compact buckets `index`, as `_recon_lookup`."""
        return _recon_lookup(self.lut, tables, values, index, out, self.stride)


def _write_code_tables(lut, rows: list, layout, stride: int) -> None:
    """Writes the code tables of sorted tables, `rows` of floats of at most
    `_PAIRS` entries in all, into `lut` in `layout`, as `_CodeTables` has
    it: table `j` from byte `j * stride` on, its codes its entries' indices
    in the flat stack of tables.  No byte outside the spans, nor at or past
    a table's fallback cut, is written: `lut` must read 0 there.

    It works on plain floats, which round as float64 does, and makes one
    numpy call for the bit patterns of every table's numbers: a learner
    builds code tables for every step."""
    m, n = len(rows[0]), len(rows)
    cells = [_cells(t) for t in rows]
    # The closed-form cuts, then each midpoint and its window's ends.
    keys = _keys([_reach(gap) for _, _, _, gap, _ in cells]
                 + [x for _, mid, half, _, _ in cells if mid
                    for m_ in mid for x in (m_, m_ - half, m_ + half)])
    cuts, at = _fallback_cuts(cells, keys[:n]), n
    out = memoryview(lut)  # whose slices take bytes faster than an array's take numbers
    for j, ((first, mid, half, _, _), cut) in enumerate(zip(cells, cuts)):
        k = 3 * len(mid) if mid else 0
        spans = [[(a, b, j * stride + base - a) for a, b, base in h] for h in layout]
        _write_code_table(out, spans, first, mid, half, cut, keys[at:at + k], j * m)
        at += k


def _write_code_table(out, halves, first, mid, half, cut, keys, offset) -> None:
    """Writes the code table of one sorted table, from its `_cells` and
    cut, into the memoryview `out`, its codes offset by `offset`.  `halves`
    holds each half's spans `(a, b, at)`, which put bucket `k` of `a:b` at
    byte `at + k`; `keys` the buckets of each midpoint and its window's
    ends, three by three.  Buckets at or past `cut`, marked, are not written."""
    if not cut:
        return
    # Runs of one cell each, by magnitude: from +0 up, then from -0 down.
    below = bisect.bisect_left(mid, 0.0)
    codes = [_MARK - offset - f for f in first]  # each byte is the complement of its code
    runs = (([0] + keys[3 * below::3] + [cut], codes[below:]),
            ([0] + (keys[3 * below - 3::-3] if below else []) + [cut], codes[below::-1]))
    # A window marks the buckets from its lower end's to its upper end's on
    # each side of zero it reaches, with its midpoint's byte; a bucket that
    # two windows reach, or bucket 0, takes 0.  On each side the windows
    # come in order of magnitude, so only neighbours share buckets.
    mark = 1 + offset  # the byte of the midpoint above entry 0
    windows = (
        [((a if m - half >= 0 else 0), b, mark + f)
         for m, a, b, f in zip(mid, keys[1::3], keys[2::3], first) if m + half >= 0],
        [((b if m + half < 0 else 0), a, mark + f)
         for m, a, b, f in zip(mid, keys[1::3], keys[2::3], first) if m - half < 0][::-1],
    )
    for span, (edges, codes), marks in zip(halves, runs, windows):
        pieces, end = [], -1  # the last bucket the windows so far reached
        for lo, hi, mark in marks:
            stop = hi + 1 if hi < cut else cut
            if end < lo:
                pieces += [(lo, stop, mark)]
            else:  # the buckets it shares with the window before take 0
                pieces += [(end + 1, stop, mark), (lo, end + 1 if end < hi else stop, 0)]
            if not lo:
                pieces += [(0, 1, 0)]
            end = hi if hi > end else end
        for a, b, at in span:
            b = b if b < cut else cut
            for lo, hi, code in zip(edges, edges[1:], codes):
                lo, hi = (lo if lo > a else a), (hi if hi < b else b)
                if lo < hi:
                    out[at + lo:at + hi] = _BYTES[code] * (hi - lo)
            for lo, hi, mark in pieces:
                lo, hi = (lo if lo > a else a), (hi if hi < b else b)
                if lo < hi:
                    out[at + lo:at + hi] = _BYTES[mark] * (hi - lo)


_GRIDS = {base_table(fmt).tobytes(): fmt for fmt in (NVFP4, INT4)}


def _grid_code_table(t: np.ndarray) -> np.ndarray | None:
    """The code table of a checked table that is a fixed grid, else None."""
    fmt = _GRIDS.get(t.tobytes())
    return None if fmt is None else _fixed_code_table(fmt)


@functools.cache
def _fixed_code_table(fmt: BaseFormat) -> np.ndarray:
    return code_table(base_table(fmt))


# Values per shift-and-gather step of `_recon_lookup`, and per step of
# `_CodeTables`' compact buckets.  Their keys take
# 64 KiB, below glibc's mmap threshold, so the key buffer comes from the heap
# and is not faulted in afresh for each row block, as a 512 KiB one is.
_LOOKUP_CHUNK = 1 << 13


def _recon_lookup(lut, tables, v, index=None, out=None, stride=1 << _KEY_BITS) -> np.ndarray:
    """`recon_codes` of 1-D values by one gather each at their buckets, as uint8.

    `lut` holds the code tables of `tables`, one table or a stack of at
    most `_PAIRS` entries, and a code is an index into the flat stack.  Each
    value's bucket is the top bits of its pattern (`_KEY_SHIFT`) under table
    0, taken `_LOOKUP_CHUNK` values at a time, or its entry of `index`: its
    bucket plus its table's first, `j * stride` for table `j`.  A value in a
    bucket that one window touches takes the nearer of the window's two
    entries, the lower on a tie: no other entry can be nearest there.
    Values in marked buckets take the exhaustive search.  Both are found in
    one scan of the gathered codes.
    """
    tables = tables[np.newaxis] if tables.ndim == 1 else tables
    codes = np.empty(v.size, dtype=np.uint8) if out is None else out
    if index is None:
        bits = v.view(np.uint64)
        keys = np.empty(min(v.size, _LOOKUP_CHUNK), dtype=np.uint64)
        for a in range(0, v.size, _LOOKUP_CHUNK):
            b = a + _LOOKUP_CHUNK if a + _LOOKUP_CHUNK < v.size else v.size
            np.right_shift(bits[a:b], _KEY_SHIFT, out=keys[:b - a])
            # intp keys spare `take` a cast; in range by construction, and
            # "raise" would buffer `out`.
            lut.take(keys.view(np.intp)[:b - a], out=codes[a:b], mode="clip")
    else:
        lut.take(index, out=codes, mode="clip")
    np.invert(codes, out=codes)
    at = (codes >= _PAIRS).nonzero()[0]  # the complements of midpoint bytes and marks
    if not at.size:
        return codes
    x, c = v[at], codes[at]
    marked = (c == _MARK).nonzero()[0]
    flat = tables.reshape(-1)
    mid = (c != _MARK).nonzero()[0] if marked.size else slice(None)
    lo = ((_MARK - 1) - c[mid]).astype(np.intp)
    hi, y, t_lo = lo + 1, x[mid], flat[lo]
    while (same := flat[hi] == t_lo).any():  # a duplicate: the next distinct entry is further
        hi[same] += 1
    c[mid] = np.where(np.abs(y - flat[hi]) < np.abs(y - t_lo), hi, lo)
    if marked.size:  # under each value's table: table 0 without `index`
        which = np.zeros(marked.size) if index is None else index[at[marked]] // stride
        for j, t in enumerate(tables):
            here = marked[which == j]
            if here.size:
                c[here] = _recon_exact(t, x[here]) + j * t.size
    codes[at] = c
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
    scratch: Scratch | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize against the format's fixed table with absmax group scales.

    Returns (codes, scales): codes as uint8 with the weight matrix's shape,
    scales as float32 with one entry per scale group.  The normalized
    weights are `scratch`'s buffer when one is given.
    """
    scales = compute_scales(weights, fmt, group_size, scale_mode)
    out = None if scratch is None else scratch.take("normalized", np.shape(weights))
    w_norm = normalize(weights, scales, group_size, out=out)
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

    `selection` holds one value per selection group of `sel_size` contiguous
    in-row weights choosing table0 (0) or table1 (1).  Products beyond
    float32's range saturate at its largest finite value.  Raises
    `ValidationError` unless the group sizes split the rows of the 2-D
    integer `codes` (`grids.check_groups`), `scales` and `selection` hold one
    value per group of each row, every selection value is 0 or 1, and the
    tables are 1-D and of one length.

    The result is a new float32 array, decoded one of its `row_blocks` at a
    time by `decode_block` on block buffers of its own.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.dtype.kind not in "ui":
        raise ValidationError(f"codes must be 2-D integers, got {codes.dtype} of shape {codes.shape}")
    _check_group_shapes(codes.shape, group_size, sel_size, scales, selection)
    sel = _checked_uint8("selection value", np.asarray(selection), 1)
    t0 = np.asarray(table0, dtype=np.float64)
    t1 = np.asarray(table1, dtype=np.float64)
    if t0.ndim != 1 or t0.shape != t1.shape:
        raise ValidationError(f"tables must be 1-D and of one length, got shapes {t0.shape} and {t1.shape}")
    # A negative code would index from the end of the other table.
    if codes.size and (int(codes.max()) >= t0.size or codes.dtype.kind == "i" and int(codes.min()) < 0):
        raise CorruptionError(
            f"codes {int(codes.min())} to {int(codes.max())} out of range for {t0.size}-entry tables"
        )
    both = np.concatenate((t0, t1))
    out, scratch = np.empty(codes.shape, np.float32), Scratch()
    for r in row_blocks(*codes.shape):
        out[r] = decode_block(codes[r], scales[r], both, sel[r], group_size, sel_size, scratch)
    return out


def decode_block(codes, scales, both, sel, group_size: int, sel_size: int,
                 scratch: Scratch) -> np.ndarray:
    """`dequantize` of inputs it has checked, `both` its two float64 tables
    end to end and `sel` its uint8 selection.  The float32 result and the
    work arrays are `scratch`'s buffers, and the result is valid until the
    next call there."""
    # One gather from both tables side by side: table 1's codes offset by M,
    # in the narrowest index type that holds the last of both tables' indices.
    index = codes
    if sel.any():
        index_type = np.promote_types(codes.dtype, np.min_scalar_type(both.size - 1))
        offset = sel.astype(index_type) * (both.size // 2)
        index = (_grouped(codes.astype(index_type, copy=False), sel_size)
                 + offset[:, :, np.newaxis]).reshape(codes.shape)
    # `take` would make an intp copy of narrower indices each call, so it gets
    # one to reuse; "raise" would buffer `out`, and every index is in range.
    # The float32 result then takes the place of the positions.
    positions = scratch.take("positions", codes.shape, np.intp)
    np.copyto(positions, index, casting="unsafe")  # checked in range by the caller
    w_hat = both.take(positions, out=scratch.take("decoded", codes.shape), mode="clip")
    _scale_decoded(w_hat, scales, group_size, np.abs(both).max(initial=0.0))
    out = positions.reshape(-1).view(np.float32)[:codes.size].reshape(codes.shape)
    np.copyto(out, w_hat, casting="same_kind")
    return out


def dequantize_rtn(
    codes: np.ndarray, scales: np.ndarray, fmt: BaseFormat, group_size: int
) -> np.ndarray:
    """Dequantize a round-to-nearest layer (single fixed table)."""
    t = base_table(fmt)
    return dequantize(codes, scales, t, t, np.zeros(np.shape(scales), np.uint8), group_size, group_size)


# ---------------------------------------------------------------------------
# IF4: per-group choice between FP4 and scaled INT4
# ---------------------------------------------------------------------------

def if4_quantize(
    weights: np.ndarray, group_size: int, scale_mode: str = "exact-bf16",
    scratch: Scratch | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per scale group, keep whichever of FP4 or scaled INT4 has lower MSE.

    Both candidates use their own absmax scale; errors are compared in
    de-normalized units and ties prefer FP4.  Returns (codes, scales,
    format_bits) with format bit 1 marking groups stored under INT4.

    Each candidate is `rtn_quantize` decoded as `dequantize_rtn` would: the
    two share the group absmax, and normalize, code and decode into one
    float64 buffer, `scratch`'s when one is given.  The float32 weights
    enter the float64 divide and subtract as they are; each widens exactly,
    so no float64 copy is kept.
    """
    w = np.asarray(weights, dtype=np.float32)
    absmax = group_absmax(w, group_size)
    # C order whatever the input's layout: the group SSE's sums follow memory order.
    buf = np.empty(w.shape) if scratch is None else scratch.take("decoded", w.shape)
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
