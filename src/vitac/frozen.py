"""Storing the array and mapping fields of the toolkit's frozen value types."""

from types import MappingProxyType

import numpy as np

from .errors import InvalidInputError, check_time


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


def owned(arr: np.ndarray) -> np.ndarray:
    """arr, a new array that its caller alone holds, made read-only in place rather than copied."""
    arr.setflags(write=False)
    return arr


def int_column(values, name: str = "timestamp_us") -> np.ndarray:
    """values, a sequence of times, as a read-only int64 column; an int64 array is kept as it is.
    A value that is not a time (errors.check_time), such as a float or an integer past int64, is
    its InvalidInputError, the first such value named as name."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values if values.ndim == 1 and not values.flags.writeable else read_only(values, np.int64, -1)
    arr = np.array(values) if len(values) else np.zeros(0, np.int64)
    if arr.dtype != np.int64 or arr.ndim != 1:
        arr = np.array([check_time(name, value) for value in values], np.int64)
    return owned(arr)


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
