"""Fixed 4-bit base grids, per-group scales, low-precision rounding helpers,
and the row blocks that layers are worked in, with their reused buffers and
their exact sums.

Two base formats are supported: the 15-value signed E2M1 grid used by NVFP4
(groups of 16) and the symmetric signed integer grid {-8..7} used by INT4
(groups of 128).  Scales are absmax-based, always strictly positive, and are
stored in BF16; an optional mode emulates FP8 E4M3 scale storage.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, UnsupportedConfigError, ValidationError

# All distinct signed E2M1 values (positive and negative zero collapse).
NVFP4_TABLE = (
    -6.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.5,
    0.0,
    0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0,
)
INT4_TABLE = tuple(float(v) for v in range(-8, 8))

# BF16 shares the float32 exponent range; this is its smallest positive normal.
BF16_MIN_NORMAL = 2.0 ** -126

# E4M3 with the no-infinity convention: max finite 448, smallest subnormal 2^-9.
E4M3_MAX = 448.0
E4M3_MIN_POSITIVE = 2.0 ** -9


@dataclass(frozen=True)
class BaseFormat:
    """A fixed 4-bit scalar grid plus its conventional scale group size."""

    kind: str
    table: tuple[float, ...]
    group_size: int

    @property
    def table_size(self) -> int:
        return len(self.table)

    @property
    def grid_absmax(self) -> float:
        return max(abs(v) for v in self.table)


NVFP4 = BaseFormat("nvfp4", NVFP4_TABLE, 16)
INT4 = BaseFormat("int4", INT4_TABLE, 128)

FORMATS = {"nvfp4": NVFP4, "int4": INT4}

SCALE_MODES = ("exact-bf16", "emulate-e4m3")


def check_scale_mode(scale_mode: str) -> None:
    """Raise `ValidationError` unless `scale_mode` is one of `SCALE_MODES`."""
    if scale_mode not in SCALE_MODES:
        raise ValidationError(f"unknown scale mode {scale_mode!r}; supported: {list(SCALE_MODES)}")


def get_format(name: str) -> BaseFormat:
    try:
        return FORMATS[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown base format {name!r}; supported: {sorted(FORMATS)}"
        ) from None


def base_table(fmt: BaseFormat) -> np.ndarray:
    """Return the format's reconstruction grid, sorted ascending, as float64."""
    return np.asarray(fmt.table, dtype=np.float64)


# ---------------------------------------------------------------------------
# BF16 rounding
# ---------------------------------------------------------------------------

def _bf16_round_bits(bits32: np.ndarray) -> np.ndarray:
    # Round-to-nearest-even on the upper 16 bits of a float32 pattern, in one
    # new uint32 array: the mask drops the carry into bit 32, which wraps here.
    b = (bits32 >> 16) & 1
    b += bits32
    b += 0x7FFF
    return np.bitwise_and(b, 0xFFFF0000, out=b)


def round_bf16(x):
    """Round to the nearest BF16-representable value, ties to even.

    Accepts scalars or arrays of finite values; scalars come back as float,
    arrays as float32 (every BF16 value is exactly representable in float32).
    """
    arr = np.ascontiguousarray(np.atleast_1d(np.asarray(x, dtype=np.float32)))
    bits = _bf16_round_bits(arr.view(np.uint32))
    out = bits.view(np.float32)
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(np.shape(x))


def bf16_bits(x) -> np.ndarray:
    """BF16 bit patterns (uint16) of the given values, rounding if needed."""
    arr = np.ascontiguousarray(np.atleast_1d(np.asarray(x, dtype=np.float32)))
    return (_bf16_round_bits(arr.view(np.uint32)) >> 16).astype(np.uint16)


def bf16_decode(bits, out=None) -> np.ndarray:
    """Float32 values of BF16 bit patterns, in one new array at least 1-D, or
    in `out`, a C-contiguous float32 array of their shape."""
    b = np.atleast_1d(np.asarray(bits, dtype=np.uint16))
    words = np.empty(b.shape, np.uint32) if out is None else out.view(np.uint32)
    np.copyto(words, b)
    words <<= 16
    return words.view(np.float32)


def _next_bf16_up(x: np.ndarray) -> np.ndarray:
    # Next BF16 value above a positive BF16 value.
    bits = np.ascontiguousarray(x.astype(np.float32)).view(np.uint32)
    return ((bits + 0x10000) & np.uint32(0xFFFF0000)).view(np.float32)


# ---------------------------------------------------------------------------
# FP8 E4M3 rounding
# ---------------------------------------------------------------------------

def round_e4m3(x):
    """Round positive values to the nearest FP8 E4M3 value, ties to even.

    Uses the no-infinity convention: values above 448 clamp to 448.  Values
    below half the smallest subnormal round to 0.
    """
    out = np.array(x, dtype=np.float64, ndmin=1)  # a copy, rounded in place
    round_e4m3_into(out, np.empty_like(out), np.empty(out.shape, np.intc))
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def round_e4m3_into(a: np.ndarray, quantum: np.ndarray, exponent: np.ndarray) -> None:
    """`round_e4m3` of the float64 array `a`, in place.

    `quantum` (float64) and `exponent` (intc) are work arrays of its shape,
    so a caller that rounds many tensors can reuse them.
    """
    np.frexp(a, out=(quantum, exponent))
    # Quantum is 2^(e-3) in the binade [2^e, 2^(e+1)); below the smallest
    # normal binade (2^-6) the subnormal quantum 2^-9 applies throughout.
    np.subtract(exponent, 1, out=exponent)
    np.maximum(exponent, -6, out=exponent)
    np.subtract(exponent, 3, out=exponent)
    np.ldexp(1.0, exponent, out=quantum)
    np.divide(a, quantum, out=a)
    np.rint(a, out=a)
    np.multiply(a, quantum, out=a)
    np.minimum(a, E4M3_MAX, out=a)


# ---------------------------------------------------------------------------
# Per-group scales
# ---------------------------------------------------------------------------

def check_groups(group_size: int, sel_size: int, cols: int | None = None) -> None:
    """Raise unless selection groups of `sel_size` weights split scale groups of
    `group_size`, which split rows of `cols` (when given): 1 <= S <= g, S | g, g | cols.

    So a selection group never spans two scales, whose sign bits can hold
    its table choice.  Coarser selection groups raise `UnsupportedConfigError`,
    then sizes below 1 `ValidationError` and sizes that do not divide `LayoutError`.
    """
    if sel_size > group_size:
        raise UnsupportedConfigError(f"selection group size {sel_size} exceeds scale group size {group_size}")
    if sel_size < 1:
        raise ValidationError(f"group sizes must be positive, got {group_size} and {sel_size}")
    if group_size % sel_size:
        raise LayoutError(f"selection group size {sel_size} does not divide scale group size {group_size}")
    if cols is not None and cols % group_size:
        raise LayoutError(f"column count {cols} is not divisible by scale group size {group_size}")


def _check_group_shapes(shape: tuple, group_size: int, sel_size: int, scales, selection=None) -> None:
    # `check_groups` for a (rows, cols) layer, then one scale per scale group
    # and, unless None, one selection value per selection group of each row.
    rows, cols = shape
    check_groups(group_size, sel_size, cols)
    for what, a, size in (("scales", scales, group_size), ("selection", selection, sel_size)):
        if a is not None and np.shape(a) != (rows, cols // size):
            raise ValidationError(f"{what} of shape {np.shape(a)} for a {shape} layer in groups of {size}")


def _checked_uint8(what: str, a: np.ndarray, top: int) -> np.ndarray:
    """`a` as uint8, once checked in its own dtype, before a cast could wrap
    or truncate it, to hold whole numbers from 0 to `top`.  Its minimum and
    maximum make no layer-sized temporaries, and NaN fails them."""
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{what}s must be numbers, got {a.dtype}")
    if not (a.min() >= 0 and a.max() <= top and (a.dtype.kind != "f" or (a == np.trunc(a)).all())):
        bad = a[(a < 0) | (a > top) | (a != np.trunc(a))][0]
        raise ValidationError(f"{what} {bad} is not a whole number from 0 to {top}")
    return a.astype(np.uint8, copy=False)


# Values per row block of the learner's passes, and per leaf of their error
# sums, and of the fixed-grid quantizers and the decoder (2 vCPUs measured).
# Two 512x4096 nvfp4 learns on two threads took a median 5.6% more CPU at
# 2**15, whose twice as many numpy calls hand the GIL over more often, and
# 3.9% more at 2**17, whose pass buffers (32 bytes a value) outgrow one
# core's 2 MiB L2.  On 32 BF16 512x1024 layers, two workers, `quantize
# --method if4` took 19-35K minor faults, whole layers 126-190K, with 512 KiB
# float64 temporaries a block; 2**14 cost more user time, 2**18 faulted more.
BLOCK = 1 << 16


def row_blocks(rows: int, cols: int) -> list:
    """Row slices cutting a (rows, cols) layer into blocks of `BLOCK // cols`
    rows but at least one, the last what is left; none without values.  Work
    by row gives the same bytes in any blocks, and so do sums split at leaves
    of `BLOCK` values down to 128, below which numpy's pairwise sum differs
    (`PairwiseSum`)."""
    if not rows * cols:
        return []
    step = max(1, BLOCK // cols)
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


def pairwise_half(n: int) -> int:
    """Where numpy's pairwise float sum splits `n` values: half, down to a multiple of 8."""
    h = n // 2
    return h - h % 8


def pairwise_leaves(a: int, b: int) -> list:
    """The leaves of the pairwise sum of `x[a:b]`: its tree's nodes of at most `BLOCK` values.

    numpy sums a contiguous float64 array along a tree that depends only on
    its length, so `pairwise_fold` of the leaves' `.sum()`s is the whole `.sum()`.
    """
    if b - a <= BLOCK:
        return [(a, b)]
    m = a + pairwise_half(b - a)
    return pairwise_leaves(a, m) + pairwise_leaves(m, b)


def pairwise_fold(n: int, sums) -> float:
    """`x.sum()` of `n` float64 values, combined in tree order from the iterator
    `sums` over the `.sum()`s of its `pairwise_leaves`."""
    if n <= BLOCK:
        return next(sums)
    h = pairwise_half(n)
    return pairwise_fold(h, sums) + pairwise_fold(n - h, sums)


class PairwiseSum:
    """The `.sum()` of `n` float64 values fed in order, a piece at a time.

    Each of the `pairwise_leaves` is summed where it lies when one piece
    holds all of it, else once the pieces have filled `buf` with it, and the
    leaves' sums are folded in tree order.
    """

    def __init__(self, n: int, buf: np.ndarray):
        self.n, self.buf, self.fill = n, buf, 0
        self.sizes = [b - a for a, b in pairwise_leaves(0, n)]
        self.sums = []

    def feed(self, x: np.ndarray) -> None:
        while x.size:
            size = self.sizes[len(self.sums)]
            if not self.fill and x.size >= size:
                self.sums.append(x[:size].sum())
                x = x[size:]
                continue
            k = min(size - self.fill, x.size)
            self.buf[self.fill:self.fill + k] = x[:k]
            self.fill, x = self.fill + k, x[k:]
            if self.fill == size:
                self.sums.append(self.buf[:size].sum())
                self.fill = 0

    def total(self) -> float:
        return float(pairwise_fold(self.n, iter(self.sums))) if self.n else 0.0


def _by_row_blocks(shape, fn) -> list:
    """The arrays `fn(rows)` returns for a layer of `shape`, filled one of its
    `row_blocks` at a time: exact where `fn` works by row."""
    out = None
    for rows in row_blocks(*shape):
        parts = fn(rows)
        if out is None:
            out = [np.empty((shape[0],) + p.shape[1:], p.dtype) for p in parts]
        for o, p in zip(out, parts):
            o[rows] = p
    return out


class Scratch(threading.local):
    """Reused buffers, one set for each thread that uses the object.

    A worker that reads, quantizes or scores block after block, or layer
    after layer, takes its buffers from one scratch instead of allocating
    them each time, which glibc would map and fault in again.  A buffer
    grows to the largest request it has seen and never shrinks; it lives as
    long as the object, so a command or a layer makes one for its loop and
    drops it when the loop returns.  A forked worker inherits the forking
    thread's set, and so works on its own copy.
    """

    def __init__(self):
        self._held = {}

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized C-ordered array of `shape` on the buffer `name`."""
        n = math.prod(shape)
        held = self._held.pop(name, None)
        if held is None or held.size < n or held.dtype != dtype:
            held = None  # the smaller one goes before the larger is made
            held = np.empty(n, dtype)
        self._held[name] = held
        return held[:n].reshape(shape)


def group_absmax(weights: np.ndarray, group_size: int) -> np.ndarray:
    """Largest magnitude per group of `group_size` contiguous in-row weights.

    Returns a (rows, cols / group_size) float32 array; a group holding a NaN
    gives NaN.  Equals `np.abs(w).reshape(rows, -1, group_size).max(axis=2)`.
    A reduction over a short last axis costs numpy a call per group, so while
    the group width is even this takes the maximum of neighbouring pairs over
    the flat array instead, halving the width; an odd width left over is
    reduced by row.
    """
    w = np.asarray(weights, dtype=np.float32)
    if w.ndim != 2:
        raise ValidationError(f"weights must be 2-D, got shape {w.shape}")
    n, k = w.shape
    check_groups(group_size, group_size, k)
    a, width = np.abs(w).reshape(-1), group_size
    while width % 2 == 0:
        a = np.maximum(a[0::2], a[1::2])
        width //= 2
    if width > 1:
        a = a.reshape(-1, width).max(axis=1)
    return a.reshape(n, k // group_size)


def scales_from_absmax(
    absmax: np.ndarray, fmt: BaseFormat, scale_mode: str = "exact-bf16"
) -> np.ndarray:
    """Per-group scales from the groups' `group_absmax` (see `compute_scales`)."""
    check_scale_mode(scale_mode)
    absmax = np.asarray(absmax, dtype=np.float32)
    grid_max = np.float32(fmt.grid_absmax)
    raw = np.where(absmax > 0, absmax / grid_max, np.float32(BF16_MIN_NORMAL))

    if scale_mode == "emulate-e4m3":
        s = round_e4m3(raw.astype(np.float64))
        return np.clip(s, E4M3_MIN_POSITIVE, E4M3_MAX).astype(np.float32)

    s = round_bf16(raw)
    clips = s.astype(np.float64) * float(grid_max) < absmax.astype(np.float64)
    return np.where(clips, _next_bf16_up(s), s)


def compute_scales(
    weights: np.ndarray,
    fmt: BaseFormat,
    group_size: int,
    scale_mode: str = "exact-bf16",
) -> np.ndarray:
    """Absmax scale per group of `group_size` contiguous in-row weights.

    Each group's scale is absmax / max|grid entry|, so the largest magnitude
    in the group lands on the grid's largest entry.  All-zero groups get the
    smallest positive normal BF16 value to keep scales strictly positive.

    In "exact-bf16" mode the scale is rounded to BF16 (the storage precision)
    and then bumped one BF16 ulp upward whenever rounding down would push the
    group's absmax past the grid maximum, so absmax scaling never clips.
    In "emulate-e4m3" mode the scale is instead rounded to the nearest FP8
    E4M3 value and clamped to E4M3's positive range.

    Returns a (rows, cols / group_size) float32 array.
    """
    return scales_from_absmax(group_absmax(weights, group_size), fmt, scale_mode)
