"""The strict reader: every input is decoded and checked here, and a
deviation is refused with its location, never silently guessed.

Bytes that are not UTF-8 are refused at their offset; a key repeated within
one JSON object, an integer beyond Python's digit limit and a ``\\u`` escape
of a lone surrogate are syntax errors. A missing, unknown or mistyped field
is refused at its location; numbers must be finite, so ``NaN`` and
``Infinity`` are refused.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

from .errors import InputSyntaxError, SchemaError


def decode(raw: str | bytes, what: str) -> str:
    """The text of the input named ``what``; bytes that are not UTF-8 raise
    InputSyntaxError at their offset."""
    if isinstance(raw, bytes):
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputSyntaxError(
                f"{what} is not UTF-8 text: {exc.reason}", location=f"offset {exc.start}"
            ) from exc
    return raw


def read_text(path: str | Path, what: str) -> str:
    """The text of the file ``path``, decoded as the input named ``what``;
    a missing or unreadable file raises OSError."""
    return decode(Path(path).read_bytes(), what)


_is_surrogate = re.compile("[\ud800-\udfff]").search


def _holds_surrogate(data) -> bool:
    """Whether a string of the decoded JSON ``data`` holds a lone surrogate,
    which no UTF-8 output can write."""
    nodes = [data]
    while nodes:
        node = nodes.pop()
        if type(node) is str:
            if _is_surrogate(node):
                return True
        elif type(node) is dict:
            nodes += node
            nodes += node.values()
        elif type(node) is list:
            nodes += node
    return False


def read_json(text: str, what: str):
    """Decode the JSON input named ``what``; malformed JSON (with line and
    column), nesting beyond the decoder's recursion limit, a name repeated
    within an object, an integer beyond Python's digit limit and an escaped
    lone surrogate raise InputSyntaxError."""

    def unique(pairs: list) -> dict:
        mapping = dict(pairs)
        if len(mapping) < len(pairs):  # name the first repeated key
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise InputSyntaxError(f"duplicate key {key!r} in {what} JSON")
                seen.add(key)
        return mapping

    try:
        data = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise InputSyntaxError(
            f"invalid {what} JSON: {exc.msg}", location=f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except ValueError as exc:  # the decoder's one other ValueError: int()'s digit limit
        raise InputSyntaxError(f"{too_long_int()} in {what} JSON") from exc
    except RecursionError as exc:  # the decoder recurses once per open array or object
        raise InputSyntaxError(f"invalid {what} JSON: nested too deeply to decode") from exc
    # A lone surrogate that the text itself does not hold came from an escape;
    # decoded bytes never hold one, a str given by a caller may. A search for
    # one character is about 40x faster than for two, so "\\" is sought first.
    if "\\" in text and "\\u" in text and _holds_surrogate(data) and not _is_surrogate(text):
        raise InputSyntaxError(f"invalid {what} JSON: a \\u escape of a lone surrogate")
    return data


def too_long_int() -> str:
    """What a reader calls an integer numeral beyond Python's digit limit."""
    return f"integer of more than {sys.get_int_max_str_digits()} digits"


def expect_mapping(node, location: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(f"expected a mapping at {location}", location=location)
    return node


def expect_list(node, location: str) -> list:
    if not isinstance(node, list):
        raise SchemaError(f"expected a list at {location}", location=location)
    return node


def expect_keys(node: dict, required: tuple[str, ...], optional: tuple[str, ...], location: str):
    for key in required:
        if key not in node:
            raise SchemaError(f"missing field {key!r} at {location}", location=f"{location}.{key}")
    for key in node:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown field {key!r} at {location}", location=f"{location}.{key}")


def expect_number(value, location: str) -> float:
    # Exact types: the decoders make only int and float, and bool (an int) is refused.
    if type(value) is float:
        number = value
    elif type(value) is int:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    else:
        raise SchemaError(f"expected a number at {location}", location=location)
    if not math.isfinite(number):
        raise SchemaError(f"expected a finite number at {location}", location=location)
    return number


def expect_int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer at {location}", location=location)
    return value


def expect_text(value, location: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"expected a string at {location}", location=location)
    return value
