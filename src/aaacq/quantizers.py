"""Nearest-entry reconstruction and the fixed-grid baseline quantizers.

A quantized layer is a code matrix (one 4-bit index per weight), a strictly
positive scale per group of contiguous in-row weights, and one or two
reconstruction tables.  Dequantization is table[code] * scale.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptionError, ValidationError
from .grids import INT4, NVFP4, BaseFormat, base_table, compute_scales


def expand_groups(per_group: np.ndarray, size: int) -> np.ndarray:
    """Repeat per-group values along rows back to per-weight layout."""
    return np.repeat(per_group, size, axis=1)


def normalize(weights: np.ndarray, scales: np.ndarray, group_size: int) -> np.ndarray:
    """Weights divided by their group scales, in float64."""
    w = np.asarray(weights, dtype=np.float64)
    return w / expand_groups(scales.astype(np.float64), group_size)


# ---------------------------------------------------------------------------
# Nearest-entry reconstruction
# ---------------------------------------------------------------------------

def check_table(table: np.ndarray) -> np.ndarray:
    """A reconstruction table as float64; raises unless it is non-decreasing."""
    t = np.asarray(table, dtype=np.float64)
    if (t[1:] < t[:-1]).any():
        raise ValidationError("reconstruction table must be non-decreasing")
    return t


def recon_codes(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the nearest table entry per value, ties toward the lower index.

    The table must be non-decreasing.  Implemented with a sorted search but
    guaranteed to match an exhaustive argmin with first-minimum tie-breaking.
    """
    t = check_table(table)
    v = np.asarray(values, dtype=np.float64)
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


def recon_values(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Value of the nearest table entry per input value."""
    t = np.asarray(table, dtype=np.float64)
    return t[recon_codes(t, values)]


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
    codes = recon_codes(base_table(fmt), w_norm).astype(np.uint8)
    return codes, scales


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
    in-row weights choosing table0 (0) or table1 (1).
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
    sel = expand_groups(np.asarray(selection, dtype=bool), sel_size)
    values = np.where(sel, t1[codes], t0[codes])
    w_hat = values * expand_groups(scales.astype(np.float64), group_size)
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
    """
    w = np.asarray(weights, dtype=np.float32)
    n, k = w.shape
    codes_f, scales_f = rtn_quantize(w, NVFP4, group_size, scale_mode)
    codes_i, scales_i = rtn_quantize(w, INT4, group_size, scale_mode)

    w_hat_f = dequantize_rtn(codes_f, scales_f, NVFP4, group_size)
    w_hat_i = dequantize_rtn(codes_i, scales_i, INT4, group_size)

    def group_sse(w_hat):
        d = (w.astype(np.float64) - w_hat.astype(np.float64)) ** 2
        return d.reshape(n, k // group_size, group_size).sum(axis=2)

    int4_wins = group_sse(w_hat_i) < group_sse(w_hat_f)
    wins_wide = expand_groups(int4_wins, group_size)
    codes = np.where(wins_wide, codes_i, codes_f).astype(np.uint8)
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
