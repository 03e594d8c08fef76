"""The YAML delivery reader, restricted to plain scalars, mappings and
sequences: anchors, aliases, tags, the merge key ``<<`` and a repeated key
are refused, so a delivery file can always be audited line by line.

``ingest`` imports this module, and so PyYAML, on the first YAML read. YAML
is parsed by libyaml (``yaml.CSafeLoader``) when PyYAML was built with it,
else by the pure-Python ``yaml.SafeLoader``. One pass over the parser's
events builds the data and refuses each fault at its event. Numerals are
decimal only: ``010``, ``0x1F``, ``1_000`` and ``1:30`` stay strings, which
a field check then refuses. Any other plain scalar is typed as SafeLoader
types it (YAML 1.1), so ``yes``, ``~`` and ``2024-01-01`` reach the field
checks as a bool, None and a date. A plain mapping value that matches the
decimal float pattern (``.inf`` and ``.nan`` left out) is made a float at
once, without the resolver table: on both parsers that table's float entry is
the first for each character such a text can start with, so it would type
the text the same. Any other distinct plain scalar text that reads as a
string, an int or a float is typed once per document. The refusals are the
same on both parsers, but the wording of a YAML syntax error, and at times
its position, comes from the parser: for ``name: [unclosed`` libyaml reports
line 2, column 1 and the pure-Python parser line 1, column 16.
"""

from __future__ import annotations

import re
from typing import NoReturn

import yaml

from .errors import InputSyntaxError
from .strict import too_long_int

# YAML 1.1 numerals that are not plain decimal (octal 010, hex, binary, 1_000,
# sexagesimal 1:30) resolve to strings, so a field check refuses them.
_DECIMAL_FLOAT = r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?"
_DECIMAL_RESOLVERS = {
    "tag:yaml.org,2002:int": re.compile(r"^[-+]?(?:0|[1-9][0-9]*)$"),
    "tag:yaml.org,2002:float": re.compile(
        rf"^(?:{_DECIMAL_FLOAT}|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"
    ),
}
# A text this matches is typed float by either parser's resolver table, whose
# float entry is first for every character it can start with (-, +, ., 0-9).
_is_decimal_float = re.compile(rf"^(?:{_DECIMAL_FLOAT})$").match


def _delivery_loader(base: type) -> type:
    """A ``base`` loader whose resolver table reads numerals as decimal only."""

    class DeliveryLoader(base):
        backend = "python" if issubclass(base, yaml.parser.Parser) else "libyaml"

        yaml_implicit_resolvers = {
            first: [(tag, _DECIMAL_RESOLVERS.get(tag, regexp)) for tag, regexp in resolvers]
            for first, resolvers in base.yaml_implicit_resolvers.items()
        }

    return DeliveryLoader


# The loader every read uses; tests patch it to pin a parser.
_DeliveryLoader = _delivery_loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def backend() -> str:
    """The parser that reads YAML deliveries: ``"libyaml"`` or ``"python"``."""
    return _DeliveryLoader.backend


_INT, _FLOAT, _MERGE, _VALUE = (
    f"tag:yaml.org,2002:{name}" for name in ("int", "float", "merge", "value")
)


def _position(mark) -> str:
    return f"line {mark.line + 1}, column {mark.column + 1}"


def _refuse(problem: str, event) -> NoReturn:
    raise InputSyntaxError(problem, location=_position(event.start_mark))


def _build_yaml(loader):
    """The one document's data, built from the loader's parser events in one pass.

    A plain mapping value that matches ``_is_decimal_float`` is made a float
    at once; any other plain scalar is typed by the loader's resolver table, a
    decimal int or float built here, any other typed scalar by the loader's
    SafeConstructor. A text typed ``str``, ``int`` or ``float`` reads the same
    as a key and as a value, so each distinct one is typed once per document.
    """
    get_event, construct = loader.get_event, loader.construct_object
    scalar_event, mapping_start, sequence_start = (
        yaml.ScalarEvent, yaml.MappingStartEvent, yaml.SequenceStartEvent
    )
    mapping_end, sequence_end = yaml.MappingEndEvent, yaml.SequenceEndEvent
    resolvers = loader.yaml_implicit_resolvers.get  # by first character; "" for an empty scalar
    is_decimal_float = _is_decimal_float
    typed = {}  # plain text -> its value, for the texts typed str, int or float

    def scalar(event, is_key: bool):
        """The value of a scalar event that has no anchor and no tag."""
        text = event.value
        if not event.implicit[0]:  # quoted
            return text
        value = typed.get(text)
        if value is not None:
            return value
        for tag, regexp in resolvers(text[:1], ()):
            if regexp.match(text):
                break
        else:
            typed[text] = text
            return text
        if tag == _FLOAT and text[-1] not in "fFnN":  # not .inf or .nan
            typed[text] = value = float(text)
        elif tag == _INT:
            try:
                typed[text] = value = int(text)
            except ValueError:  # beyond int()'s digit limit
                _refuse(f"{too_long_int()} in delivery YAML", event)
        elif is_key and tag == _MERGE:  # a quoted '<<' is an ordinary string key
            _refuse("YAML merge key '<<' is not allowed in delivery files", event)
        elif is_key and tag == _VALUE:  # a '=' key is a string
            value = text
        else:
            value = construct(yaml.ScalarNode(tag, text, event.start_mark, event.end_mark))
        return value

    root = container = []  # the document's one node goes into ``root``
    parents = []  # the open containers that hold ``container``, innermost last
    in_map = document = False
    while True:
        event = get_event()
        kind = type(event)
        is_key = in_map  # until the key is read; a mapping's end, or refused below
        if in_map and kind is scalar_event and event.anchor is None and event.tag is None:
            # A mapping's keys repeat, so most are found typed before the call.
            key = typed.get(event.value) if event.implicit[0] else None
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
    """The data of the one YAML document in ``text``; a fault raises
    InputSyntaxError at its line and column."""
    try:
        loader = _DeliveryLoader(text)
        try:
            return _build_yaml(loader)
        finally:
            loader.dispose()
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = _position(mark) if mark else "unknown position"
        raise InputSyntaxError(f"invalid YAML: {exc.problem}", location=where) from exc
    except yaml.YAMLError as exc:
        raise InputSyntaxError(f"invalid YAML: {exc}", location="unknown position") from exc
