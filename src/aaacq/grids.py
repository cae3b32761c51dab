"""Fixed 4-bit base grids, per-group scales, and low-precision rounding helpers.

Two base formats are supported: the 15-value signed E2M1 grid used by NVFP4
(groups of 16) and the symmetric signed integer grid {-8..7} used by INT4
(groups of 128).  Scales are absmax-based, always strictly positive, and are
stored in BF16; an optional mode emulates FP8 E4M3 scale storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, ValidationError

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
    # Round-to-nearest-even on the upper 16 bits of a float32 pattern.
    b = bits32.astype(np.uint64)
    b = (b + 0x7FFF + ((b >> 16) & 1)) & 0xFFFF0000
    return b.astype(np.uint32)


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


def bf16_decode(bits) -> np.ndarray:
    """Float32 values of BF16 bit patterns."""
    b = np.ascontiguousarray(np.atleast_1d(np.asarray(bits, dtype=np.uint16)))
    return (b.astype(np.uint32) << 16).view(np.float32)


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
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    mant, exp = np.frexp(arr)
    # Quantum is 2^(e-3) in the binade [2^e, 2^(e+1)); below the smallest
    # normal binade (2^-6) the subnormal quantum 2^-9 applies throughout.
    quantum = np.ldexp(1.0, np.maximum(exp - 1, -6) - 3)
    out = np.rint(arr / quantum) * quantum
    out = np.minimum(out, E4M3_MAX)
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# Per-group scales
# ---------------------------------------------------------------------------

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
    n, k = w.shape
    if k % group_size != 0:
        raise LayoutError(
            f"column count {k} is not divisible by scale group size {group_size}"
        )
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
    if scale_mode not in SCALE_MODES:
        raise ValidationError(
            f"unknown scale mode {scale_mode!r}; supported: {list(SCALE_MODES)}"
        )
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
