"""Storing the array fields of the toolkit's frozen value types."""

import numpy as np

from .errors import InvalidInputError


def freeze(obj, name: str, shape, dtype=np.float64, finite: str | None = None) -> np.ndarray:
    """Store obj.<name> as a read-only array of the given shape and dtype, and return it.

    The value is copied unless it is already a read-only ndarray (such as a view of the
    bytes of an episode file), so no caller keeps a writable alias of what obj holds.
    With finite given, a value that is not all finite raises InvalidInputError(finite).
    """
    value = getattr(obj, name)
    if isinstance(value, np.ndarray) and not value.flags.writeable:
        arr = np.asarray(value, dtype=dtype).reshape(shape)
    else:
        arr = np.array(value, dtype=dtype).reshape(shape)
    if finite is not None and not np.all(np.isfinite(arr)):
        raise InvalidInputError(finite)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr
