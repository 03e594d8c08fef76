"""The YAML delivery reader, restricted to plain scalars, mappings and
sequences: anchors, aliases, tags, the merge key ``<<`` and a repeated key
are refused, so a delivery file can always be audited line by line.

``ingest`` imports this module on the first YAML read. A text in the *block
subset* is read line by line, without a parser and without PyYAML; any other
text, and any text the line reader declines, is read from the start by the
event reader, which imports PyYAML, so every refusal comes from the event
reader. The text alone decides which reader runs. The block subset is:

* only ``\\n``, space, ASCII letters and digits, ``$()+-./:;<=^_~`` and
  ``·`` (the moment units' middle dot), so no comment, quote, flow bracket,
  anchor, alias, tag, block scalar, directive, tab, CR or other non-ASCII
  text; a final ``\\n``, no blank line and no line that ends in a space;
* lines ``KEY: VALUE``, ``KEY:``, either after ``- ``, and ``- VALUE``, each
  after its indent, with exactly one space after ``-`` and after ``:``; a
  KEY starts with a letter, a digit or ``_``, holds no ``:``, does not end
  in a space and has at most 1024 characters (YAML's limit for a key on one
  line); a VALUE holds no ``:`` and is neither ``-`` nor ``- …``;
* a root mapping at column 0, nested by indentation as YAML nests it, a
  sequence at its key's own indent included; a deeper line after a scalar,
  which YAML folds into it, and a ``KEY:`` with nothing under it, which YAML
  reads as null, make the line reader decline;
* every key a string and no key repeated in its mapping; every scalar typed
  a string, an int within int()'s digit limit or a float.

The event reader parses with libyaml (``yaml.CSafeLoader``) when PyYAML was
built with it, else with the pure-Python ``yaml.SafeLoader``. One pass over
the parser's events builds the data and refuses each fault at its event.

Both readers type a plain scalar with one typer, by one table held here as
data: SafeLoader's YAML 1.1 implicit-typing rows, except that numerals are
decimal only: ``010``, ``0x1F``, ``1_000`` and ``1:30`` stay strings, which a
field check then refuses. Any other plain scalar is typed as SafeLoader types
it, so ``yes``, ``~`` and ``2024-01-01`` reach the field checks as a bool,
None and a date; a date or time that does not exist, such as ``2024-13-45``,
is refused at its line and column. A text that matches the decimal float
pattern (``.inf`` and ``.nan`` left out) is made a float at once, without the
table: its float row is the first for each character such a text can start
with, so it would type the text the same. Any other distinct plain scalar
text that reads as a string, an int or a float is typed once
per document. The refusals are the same on both parsers, but the wording of
a YAML syntax error, and at times its position, comes from the parser: for
``name: [unclosed`` libyaml reports line 2, column 1 and the pure-Python
parser line 1, column 16.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import InputSyntaxError
from .strict import too_long_int

_DECIMAL_FLOAT = r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?"


def _by_first_character(rows) -> dict:
    """The rows ``(tag, regexp, first characters)`` as a resolver table: each
    first character's ``(tag, regexp)`` pairs, in row order."""
    table = {}
    for tag, regexp, firsts in rows:
        for first in firsts:
            table.setdefault(first, []).append((f"tag:yaml.org,2002:{tag}", regexp))
    return table


# SafeLoader's implicit resolver rows, in its order and with its patterns,
# except that YAML 1.1 numerals that are not plain decimal (octal 010, hex,
# binary, 1_000, sexagesimal 1:30) resolve to strings, so a field check
# refuses them. Both readers type plain scalars by this table, and the event
# reader's loader carries it, so PyYAML's own table is never consulted.
_IMPLICIT_RESOLVERS = _by_first_character((
    ("bool", re.compile(r'''^(?:yes|Yes|YES|no|No|NO
                    |true|True|TRUE|false|False|FALSE
                    |on|On|ON|off|Off|OFF)$''', re.X), "yYnNtTfFoO"),
    ("float", re.compile(
        rf"^(?:{_DECIMAL_FLOAT}|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"
    ), "-+0123456789."),
    ("int", re.compile(r"^[-+]?(?:0|[1-9][0-9]*)$"), "-+0123456789"),
    ("merge", re.compile(r"^(?:<<)$"), "<"),
    ("null", re.compile(r'''^(?: ~
                    |null|Null|NULL
                    | )$''', re.X), ("~", "n", "N", "")),
    ("timestamp", re.compile(r'''^(?:[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
                    |[0-9][0-9][0-9][0-9] -[0-9][0-9]? -[0-9][0-9]?
                     (?:[Tt]|[ \t]+)[0-9][0-9]?
                     :[0-9][0-9] :[0-9][0-9] (?:\.[0-9]*)?
                     (?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?)$''', re.X), "0123456789"),
    ("value", re.compile(r"^(?:=)$"), "="),
    ("yaml", re.compile(r"^(?:!|&|\*)$"), "!&*"),
))
# A text this matches is typed float by the table, whose float row is first
# for every character it can start with (-, +, ., 0-9).
_is_decimal_float = re.compile(rf"^(?:{_DECIMAL_FLOAT})$").match


def _delivery_loader(base: type) -> type:
    """A ``base`` loader that carries ``_IMPLICIT_RESOLVERS`` as its resolver table."""
    import yaml

    class DeliveryLoader(base):
        backend = "python" if issubclass(base, yaml.parser.Parser) else "libyaml"
        yaml_implicit_resolvers = _IMPLICIT_RESOLVERS

    return DeliveryLoader


# The loader every event read uses, made on the first; tests patch it to pin
# a parser.
_DeliveryLoader = None

# The reader of the latest YAML text in this process: "block", "libyaml" or
# "python"; None before the first. Trace sidecars record it.
last_reader: str | None = None


def _event_loader() -> type:
    """``_DeliveryLoader``, made on the first call from the parser PyYAML was
    built with: libyaml's when it has it, else the pure-Python one."""
    global _DeliveryLoader
    if _DeliveryLoader is None:
        import yaml

        _DeliveryLoader = _delivery_loader(
            yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        )
    return _DeliveryLoader


def backend() -> str:
    """The parser that reads YAML outside the block subset: ``"libyaml"`` or ``"python"``."""
    return _event_loader().backend


_INT, _FLOAT, _MERGE, _VALUE = (
    f"tag:yaml.org,2002:{name}" for name in ("int", "float", "merge", "value")
)


class _OtherTag(Exception):
    """A plain scalar typed other than str, int or float; ``args[0]`` is its tag."""


class _PlainTypes(dict):
    """One document's plain scalar texts and the values they read as, each
    typed on its first lookup: ``types[text]`` is the str, int or float that
    ``text`` reads as by the resolver table ``resolvers`` (its ``get``, by
    first character; ``""`` for an empty scalar). A text of any other tag
    raises _OtherTag, an int beyond int()'s digit limit ValueError. A text
    typed str, int or float reads the same as a key and as a value, so each
    distinct one is typed once; a decimal float, written once as a rule, is
    typed on each lookup."""

    __slots__ = ("resolvers",)

    def __init__(self, resolvers):
        super().__init__()
        self.resolvers = resolvers

    def __missing__(self, text: str):
        if _is_decimal_float(text):
            return float(text)
        for tag, regexp in self.resolvers(text[:1], ()):
            if regexp.match(text):
                break
        else:
            self[text] = text
            return text
        if tag == _FLOAT:  # .inf, -.Inf or .nan, which float() reads without the point
            value = float(text.replace(".", "", 1))
        elif tag == _INT:
            value = int(text)
        else:
            raise _OtherTag(tag)
        self[text] = value
        return value


# The UTF-8 bytes of the block subset's characters, and the first characters
# of its keys. In UTF-8 the bytes C2 and B7 can only form "·" together: C2
# leads only two-byte characters, and B7 never leads one.
_BLOCK_CHARS = (
    b"\n 0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz$()+-./:;<=^_~"
    + "·".encode()
)
_KEY_START = frozenset("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _is_block_value(text: str) -> bool:
    """Whether the plain text ``text``, typed a string, is a block subset
    VALUE: not led by a space, without ``:``, and neither ``-`` nor ``- …``."""
    return text[:1] != " " and ":" not in text and text != "-" and text[:2] != "- "


def _read_block(text: str, types):
    """The data of ``text`` when it is in the block subset, else None.

    The lines are read in order against the open containers; a line that
    keeps to the innermost mapping's column goes straight into it.
    """
    if (
        # A lone surrogate, which no file can hold, encodes to bytes outside the subset.
        text.encode("utf-8", "surrogatepass").translate(None, _BLOCK_CHARS)
        or text[-1:] != "\n" or text[0] == "\n" or "\n\n" in text or " \n" in text
    ):
        return None
    lines = text.split("\n")
    lines.pop()  # the empty text after the final newline
    root = container = {}
    col = 0  # the column of ``container``'s keys or dashes
    map_col = 0  # ``col`` while a key line may go straight into ``container``, else -1
    parents = []  # (container, col) of the containers that hold ``container``, innermost last
    pending = None  # the key of a ``KEY:`` line, whose value starts on the next line
    keys = {}  # a key text -> its string, once checked
    keys_get = keys.get
    try:
        for line in lines:
            content = line.lstrip(" ")
            n = len(line) - len(content)
            if n != map_col:
                is_item = content[:2] == "- "
                if pending is not None:
                    if n < col or n == col and not is_item:
                        return None  # YAML reads the pending key's value as null
                    child = [] if is_item else {}
                    container[pending] = child
                    parents.append((container, col))
                    container, col, pending = child, n, None
                else:
                    while n < col:
                        container, col = parents.pop()
                    if n != col:
                        return None  # a line YAML folds into a scalar, or between two columns
                if is_item:
                    if type(container) is not list:
                        return None
                    content = content[2:]
                    if ": " not in content and content[-1] != ":":  # ``- VALUE``
                        value = types[content]
                        if type(value) is str and not _is_block_value(content):
                            return None
                        container.append(value)
                        map_col = -1
                        continue
                    item = {}
                    container.append(item)
                    parents.append((container, col))
                    container, col = item, n + 2
                elif type(container) is list:  # a key line ends a sequence at its key's column
                    container, col = parents.pop()
                    if col != n:
                        return None
            key, colon, value = content.partition(": ")
            if not colon:
                if content[-1] != ":":
                    return None
                key = content[:-1]
            name = keys_get(key)
            if name is None:
                name = types[key]
                if (
                    type(name) is not str or key[:1] not in _KEY_START or key[-1] == " "
                    or ":" in key or len(key) > 1024
                ):
                    return None
                keys[key] = name
            if name in container:
                return None
            if colon:
                value = types[value]
                if type(value) is str and not _is_block_value(value):
                    return None
                container[name] = value
                map_col = col
            else:
                pending = name
                map_col = -1
    except (_OtherTag, ValueError):  # a bool, null, date, '<<' or '=', or too long an int
        return None
    return root if pending is None else None


def _position(mark) -> str:
    return f"line {mark.line + 1}, column {mark.column + 1}"


def _refuse(problem: str, event) -> NoReturn:
    raise InputSyntaxError(problem, location=_position(event.start_mark))


def _build_yaml(loader, types):
    """The one document's data, built from the loader's parser events in one pass.

    A plain mapping value that matches ``_is_decimal_float`` is made a float
    at once; any other plain scalar is typed by ``types``, and one it does not
    type is refused, or built by the loader's SafeConstructor.
    """
    import yaml

    get_event, construct = loader.get_event, loader.construct_object
    scalar_event, mapping_start, sequence_start = (
        yaml.ScalarEvent, yaml.MappingStartEvent, yaml.SequenceStartEvent
    )
    mapping_end, sequence_end = yaml.MappingEndEvent, yaml.SequenceEndEvent
    is_decimal_float = _is_decimal_float

    def scalar(event, is_key: bool):
        """The value of a scalar event that has no anchor and no tag."""
        text = event.value
        if not event.implicit[0]:  # quoted
            return text
        try:
            return types[text]
        except _OtherTag as other:
            tag = other.args[0]
        except ValueError:  # beyond int()'s digit limit
            _refuse(f"{too_long_int()} in delivery YAML", event)
        if is_key and tag == _MERGE:  # a quoted '<<' is an ordinary string key
            _refuse("YAML merge key '<<' is not allowed in delivery files", event)
        if is_key and tag == _VALUE:  # a '=' key is a string
            return text
        try:
            return construct(yaml.ScalarNode(tag, text, event.start_mark, event.end_mark))
        except ValueError as exc:  # a date or time that does not exist, such as 2024-13-45
            _refuse(f"invalid YAML scalar {text!r}: {exc}", event)

    root = container = []  # the document's one node goes into ``root``
    parents = []  # the open containers that hold ``container``, innermost last
    in_map = document = False
    while True:
        event = get_event()
        kind = type(event)
        is_key = in_map  # until the key is read; a mapping's end, or refused below
        if in_map and kind is scalar_event and event.anchor is None and event.tag is None:
            # A mapping's keys repeat, so most are found typed before the call.
            key = types.get(event.value) if event.implicit[0] else None
            if key is None:
                key = scalar(event, True)
            if key in container:
                _refuse(f"duplicate key {key!r} in delivery YAML", event)
            event = get_event()  # the key's value
            kind = type(event)
            is_key = False
            if kind is scalar_event and event.anchor is None and event.tag is None:
                # Most values are decimal floats, each written once: typed here.
                text = event.value
                if event.implicit[0] and is_decimal_float(text):
                    container[key] = float(text)
                else:
                    container[key] = scalar(event, False)
                continue
        if kind is scalar_event or kind is mapping_start or kind is sequence_start:
            if event.anchor is not None:
                _refuse(f"YAML anchor {event.anchor!r} is not allowed in delivery files", event)
            if event.tag is not None:
                _refuse(f"YAML tag {event.tag!r} is not allowed in delivery files", event)
            if is_key:
                _refuse("invalid YAML: found unhashable key", event)
            if kind is scalar_event:
                value = scalar(event, False)
            else:
                value = {} if kind is mapping_start else []
            if in_map:
                container[key] = value
            else:
                container.append(value)
            if kind is not scalar_event:
                parents.append(container)
                container = value
                in_map = kind is mapping_start
        elif kind is mapping_end or kind is sequence_end:
            container = parents.pop()
            in_map = type(container) is dict
        elif kind is yaml.AliasEvent:
            _refuse("YAML aliases are not allowed in delivery files", event)
        elif kind is yaml.DocumentStartEvent:
            if document:
                _refuse("invalid YAML: but found another document", event)
            document = True
        elif kind is yaml.StreamEndEvent:
            return root[0] if root else None


def load_yaml(text: str):
    """The data of the one YAML document in ``text``: read line by line when
    ``text`` is in the block subset, else by the event reader, where a fault
    raises InputSyntaxError at its line and column."""
    global last_reader
    types = _PlainTypes(_IMPLICIT_RESOLVERS.get)
    data = _read_block(text, types)
    if data is not None:
        last_reader = "block"
        return data
    import yaml

    loader_type = _event_loader()
    last_reader = loader_type.backend
    try:
        loader = loader_type(text)
        try:
            return _build_yaml(loader, types)
        finally:
            loader.dispose()
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = _position(mark) if mark else "unknown position"
        raise InputSyntaxError(f"invalid YAML: {exc.problem}", location=where) from exc
    except yaml.YAMLError as exc:
        raise InputSyntaxError(f"invalid YAML: {exc}", location="unknown position") from exc
