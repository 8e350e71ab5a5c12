"""Reading and writing the toolkit's JSON and JSON-lines files, with one error policy.

Readers build their value with parse(doc). A document that is not UTF-8 JSON, holds a
number that is not finite (NaN, Infinity, or one too large for a float), lacks a key that
parse reads, or holds a value of the wrong type or shape raises InvalidInputError naming
the file (and, for JSON lines, the line). fields_from and fields_to map a dataclass from and
to its document, one key per field; a key other than the field's name, or a path of keys
into nested objects, is declared on the field, as field(metadata={"key": ...}), and each field
is read by its declared type. Every number a document holds is read by number, or, in an array,
by numbers: the one rule for what a JSON number is.
"""

import json
import math
import typing
from dataclasses import MISSING, fields
from functools import cache
from itertools import chain, groupby, islice
from operator import itemgetter

import numpy as np

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


# The lines read_jsonl hands to columns.canonical at a time. Parsing frame lines peaks at about
# 18 KB of numpy temporaries a line (1.1 MB for 64 lines, by tracemalloc); 64-line blocks read
# frames about 15% faster than 32-line ones, and 128-line ones about 5% faster again.
BLOCK_LINES = 64


def read_jsonl(path, parse, columns=None):
    """parse(doc) for the object on every nonblank line of a JSON-lines file, in line order: a
    list, or with columns given, one value of that column type.

    columns.canonical takes a list of up to BLOCK_LINES lines and returns (chunk, read): read
    says for each line whether chunk holds its value, the value parse(loads(line)) would give,
    and chunk holds those values in line order, sliced as a sequence. It must not raise, so the
    first bad line is still the one an error names. Every other nonblank line goes through
    parse(loads(line)) in its turn, columns.of makes a chunk of such values, and columns.concat
    joins the chunks.
    """
    chunks = []
    lineno = 0
    with open(path, "rb") as fh:  # json.loads decodes each line, so a bad byte names its line
        try:
            for block in iter(lambda: list(islice(fh, BLOCK_LINES)), []):
                chunk, read = columns.canonical(block) if columns else (None, [False] * len(block))
                row = 0
                for is_read, group in groupby(zip(block, read), key=itemgetter(1)):
                    lines = [line for line, _ in group]
                    if is_read:
                        chunks.append(chunk if len(lines) == len(chunk) else chunk[row : row + len(lines)])
                        row += len(lines)
                        lineno += len(lines)
                        continue
                    values = []
                    for lineno, line in enumerate(lines, lineno + 1):
                        if line.strip():
                            values.append(parse(loads(line)))
                    if values:
                        chunks.append(columns.of(values) if columns else values)
        except _BAD_DOC as exc:
            raise _error(f"{path}:{lineno}", "line", exc) from None
    return columns.concat(chunks) if columns else list(chain.from_iterable(chunks))


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


def _key(f):
    """The document key, or path of keys, of dataclass field f: its metadata "key", else its name."""
    return f.metadata.get("key", f.name)


def json_object(key, value) -> dict:
    """value, which a document holds under key, when it is a JSON object; else a TypeError."""
    if not isinstance(value, dict):
        raise TypeError(f"{key} must be a JSON object, got {type(value).__name__}")
    return value


def json_array(key, value) -> list:
    """value, which a document holds under key, when it is a JSON array; else a TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON array, got {type(value).__name__}")
    return value


def number(key, value, kind=float):
    """kind(value) for value, which a document holds under key, when it is a JSON number: never a
    bool or a string, and for kind int one without a fractional part; else a TypeError naming key."""
    if type(value) is kind:  # the common case; canonical frame and joint lines are read in batches, not here
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (kind is int and value % 1):
        raise TypeError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


_NUMBER_TYPES = frozenset((int, float))  # the types json.loads gives a number


def _check_numbers(key, array: list) -> None:
    """A TypeError naming key at the first leaf of array, a JSON array nested to any depth, that is
    not a JSON number, depth first."""
    for item in array:
        if type(item) is list:
            _check_numbers(key, item)
        elif type(item) not in _NUMBER_TYPES:
            raise TypeError(f"{key} must hold numbers only, got {item!r}")


def numbers(key, value) -> np.ndarray:
    """value, which a document holds under key, as a float64 array when it is a JSON array nested
    to any depth whose leaves are all JSON numbers, never a bool or a string, and whose arrays at
    one depth have one length; else a TypeError naming key."""
    if type(value) is not list:
        raise TypeError(f"{key} must be an array of numbers, got {value!r}")
    _check_numbers(key, value)
    try:
        return np.array(value, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # ragged, or an integer past float's range
        raise TypeError(f"{key} must be an array of numbers ({exc})") from None


def _convert(key, value, conv):
    """conv(value), or value itself for conv None; int and float go through number, and np.ndarray
    through numbers."""
    if conv in (int, float):
        return number(key, value, conv)
    if conv is np.ndarray:
        return numbers(key, value)
    return value if conv is None else conv(value)


@cache
def _conversions(cls) -> dict:
    """The conversion of each field of dataclass cls, by name, from its declared type: int, float
    and np.ndarray, Optional or not, go through _convert, a type with from_dict through it, and
    anything else passes as read (None) for the type's own checks."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        if len(args) == 2 and type(None) in args:  # X | None reads as X
            hint = args[args[0] is type(None)]
        out[name] = hint if hint in (int, float, np.ndarray) else getattr(hint, "from_dict", None)
    return out


def fields_from(cls, d: dict, *required: str, **convert):
    """A dataclass from d, each field read from its key or path of keys (a missing object on the
    path reads as {}): the value goes through _convert with convert[field], given where the
    document form differs from the type, else with its declared type's conversion; a missing key
    takes the dataclass default, or is a KeyError naming the key for a field without one or named
    in required. Other keys are ignored."""
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object for {cls.__name__}, got {type(d).__name__}")
    conversions = _conversions(cls)
    kwargs = {}
    for f in fields(cls):
        key, doc = _key(f), d
        if isinstance(key, tuple):
            *outer, key = key
            for name in outer:
                doc = json_object(name, doc.get(name, {}))
        if key in doc:
            kwargs[f.name] = _convert(key, doc[key], convert.get(f.name, conversions[f.name]))
        elif f.name in required or (f.default is MISSING and f.default_factory is MISSING):
            raise KeyError(key)
    return cls(**kwargs)


def fields_to(obj, **convert) -> dict:
    """Dataclass obj as the document fields_from reads, each field under its key: the value
    goes through convert[field], else becomes its to_dict() or tolist() when it has one. A
    field holding None is left out; no written document has a field keyed by a path."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None:
            continue
        if f.name in convert:
            value = convert[f.name](value)
        elif hasattr(value, "to_dict"):
            value = value.to_dict()
        elif hasattr(value, "tolist"):
            value = value.tolist()
        doc[_key(f)] = value
    return doc
