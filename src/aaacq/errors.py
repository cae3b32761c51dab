"""Exception types shared across the package, and the context that names a layer in them."""

from __future__ import annotations

import contextlib


class AaacqError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(AaacqError):
    """Malformed input container (bad header, bad offsets, bad magic)."""


class UnsupportedDtypeError(AaacqError):
    """Tensor dtype outside the supported set."""


class PairingError(AaacqError):
    """Weight and calibration tensors cannot be paired for a layer."""


class ValidationError(AaacqError):
    """Invalid argument values or inconsistent shapes."""


class LayoutError(ValidationError):
    """Group sizes incompatible with the tensor layout."""


class UnsupportedConfigError(ValidationError):
    """Configuration combination the format does not support."""


class CorruptionError(AaacqError):
    """Packed byte stream is truncated or fails integrity checks."""


class UndefinedGapError(AaacqError):
    """Gap recovery is undefined because the baseline equals full precision."""


@contextlib.contextmanager
def naming_layer(name: str | None, what: str = ""):
    """A context in which an `AaacqError` names the layer `name` once, keeping its type.

    `what` goes between the name and the message.  With no name, errors pass
    through as they are.
    """
    if name is None:
        yield
        return
    try:
        yield
    except AaacqError as exc:
        if str(exc).startswith(f"layer {name!r}"):
            raise
        raise type(exc)(f"layer {name!r}: {what}{exc}") from exc
