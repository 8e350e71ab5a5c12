"""Reading and writing the toolkit's JSON and JSON-lines files, with one error policy.

Readers build their value with parse(doc). A document that is not UTF-8 JSON, holds a
number that is not finite (NaN, Infinity, or one too large for a float), lacks a key that
parse reads, or holds a value of the wrong type or shape raises InvalidInputError naming
the file (and, for JSON lines, the line).
"""

import json
import math
from dataclasses import MISSING, fields

from .errors import InvalidInputError

_BAD_DOC = (KeyError, TypeError, ValueError, OverflowError)  # json.loads raises ValueErrors


def _finite(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"number {token} is not finite")
    return x


def loads(text):
    """json.loads, with ValueError for a number that is not finite."""
    return json.loads(text, parse_float=_finite, parse_constant=_finite)


def _error(where: str, what: str, exc: Exception) -> InvalidInputError:
    if isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
        return InvalidInputError(f"{where}: not a JSON {what} ({exc})")
    if isinstance(exc, KeyError):
        return InvalidInputError(f"{where}: missing key {exc}")
    return InvalidInputError(f"{where}: {exc}")


def read_json(path, parse):
    """parse(doc) for the one JSON object in the file at path."""
    with open(path, "rb") as fh:
        try:
            doc = loads(fh.read())
            if not isinstance(doc, dict):
                raise TypeError("expected a JSON object")
            return parse(doc)
        except _BAD_DOC as exc:
            raise _error(str(path), "document", exc) from None


def read_jsonl(path, parse) -> list:
    """parse(doc) for the object on every nonblank line of a JSON-lines file."""
    out = []
    lineno = 0
    with open(path, "rb") as fh:  # json.loads decodes each line, so a bad byte names its line
        try:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    out.append(parse(loads(line)))
        except _BAD_DOC as exc:
            raise _error(f"{path}:{lineno}", "line", exc) from None
    return out


def write_json(path, doc) -> None:
    """doc as indented JSON; a number that is not finite is a ValueError, as loads refuses it."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)


def write_jsonl(path, docs) -> int:
    """One compact JSON object per line; returns the number of lines written.

    A number that is not finite is a ValueError, as in write_json."""
    n = 0
    with open(path, "w") as fh:
        for n, doc in enumerate(docs, 1):
            fh.write(json.dumps(doc, allow_nan=False) + "\n")
    return n


def fields_from(cls, d: dict, *required: str, **convert):
    """A dataclass from d: a key's value goes through convert[key], else its default's type;
    a missing key takes the dataclass default, or is a KeyError for a field without one or
    named in required. Other keys are ignored."""
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object for {cls.__name__}, got {type(d).__name__}")
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kwargs[f.name] = convert.get(f.name, type(f.default))(d[f.name])
        elif f.name in required or (f.default is MISSING and f.default_factory is MISSING):
            raise KeyError(f.name)
    return cls(**kwargs)
