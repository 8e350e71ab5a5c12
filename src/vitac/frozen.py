"""Storing the array and mapping fields of the toolkit's frozen value types."""

from types import MappingProxyType

import numpy as np

from .errors import InvalidInputError


def read_only(value, dtype=np.float64, shape=None) -> np.ndarray:
    """value as a read-only array of the given dtype, reshaped when shape is given.

    A read-only ndarray (such as a row of the readings that the stream decoder unpacks) is not
    copied unless its dtype changes, and one that already has the dtype and shape is returned as
    it is. Every other value is copied, so no caller keeps a writable alias of the result.
    """
    if isinstance(value, np.ndarray) and not value.flags.writeable:
        arr = np.asarray(value, dtype=dtype)  # value itself when it has the dtype
    else:
        arr = np.array(value, dtype=dtype)
    if shape is not None:
        reshaped = arr.reshape(shape)
        arr = arr if reshaped.shape == arr.shape else reshaped
    if arr is not value:
        arr.setflags(write=False)
    return arr


def freeze(obj, name: str, shape, dtype=np.float64, finite: str | None = None) -> np.ndarray:
    """Store obj.<name> as read_only(obj.<name>, dtype, shape), and return it.

    With finite given, a value that is not all finite raises InvalidInputError(finite).
    """
    arr = read_only(getattr(obj, name), dtype, shape)
    if finite is not None and not np.all(np.isfinite(arr)):
        raise InvalidInputError(finite)
    object.__setattr__(obj, name, arr)
    return arr


def freeze_mapping(obj, name: str, value=None) -> None:
    """Store obj.<name> as a read-only mapping of a copy of its items, each passed through value."""
    items = getattr(obj, name).items()
    object.__setattr__(obj, name, MappingProxyType({k: value(v) if value else v for k, v in items}))
