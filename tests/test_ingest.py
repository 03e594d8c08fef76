import json
import math
import re
import sys

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from loadsmith import ingest, yaml_reader
from loadsmith.errors import InputSyntaxError, LoadsmithError, SchemaError, UnknownUnitError
from loadsmith.ingest import (
    load_delivery,
    parse_delivery,
    validate_delivery,
    write_delivery_json,
)
from loadsmith.model import COMPONENT_ORDER, ComponentSet, LoadCase, LoadsDelivery, SI_UNITS, UnitSystem

from fixtures import delivery_to_plain, delivery_yaml
from strategies import deliveries, oracle_deliveries, plain_deliveries

MINIMAL_JSON = """\
{
  "name": "mini",
  "version": 1,
  "units": {"force": "N", "moment": "N·m"},
  "load_cases": [
    {"id": 1, "point_loads": {"a": {"fx": 0, "fy": 0, "fz": 0, "mx": 0, "my": 0, "mz": 0}}}
  ]
}
"""


class TestDetectFormat:
    """parse_delivery reads JSON when the first non-blank character is '{' or '[', else YAML."""

    def test_leading_brace_is_json(self):
        for text in ('{"name": }', "  \n\t [1, }"):
            with pytest.raises(InputSyntaxError, match="^invalid delivery JSON: "):
                parse_delivery(text)

    def test_yaml_otherwise(self):
        with pytest.raises(InputSyntaxError, match="^invalid YAML: "):
            parse_delivery("name: [unclosed")

    def test_empty_input_rejected(self):
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery("   \n  \t ")
        assert err.value.location == "offset 0"

    def test_bytes_accepted(self):
        assert parse_delivery(b"  " + MINIMAL_JSON.encode()).name == "mini"

    def test_byte_order_mark_before_json_is_refused_as_json(self):
        # Before, the mark sent the text to the YAML reader, which refused the
        # JSON numeral 1e5 as "expected a number".
        raw = b"\xef\xbb\xbf" + MINIMAL_JSON.replace('"fx": 0', '"fx": 1e5').encode()
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery(raw)
        assert (str(err.value), err.value.location) == (
            "invalid delivery JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", "line 1, column 1"
        )

    def test_byte_order_mark_before_yaml_is_read(self):
        text = MINIMAL_YAML.format(id=1, fx=0)
        assert parse_delivery(b"\xef\xbb\xbf" + text.encode()) == parse_delivery(text)

    def test_byte_order_mark_alone_is_empty_input(self):
        # Before, it went to the YAML reader and was refused as a non-mapping root.
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery(b"\xef\xbb\xbf \n")
        assert (str(err.value), err.value.location) == ("empty delivery input", "offset 0")


class TestParseDelivery:
    def test_minimal_json(self):
        d = parse_delivery(MINIMAL_JSON)
        assert d.name == "mini"
        assert d.cases[0].loads["a"] == ComponentSet()

    def test_format_agnostic_on_same_data(self):
        data = json.loads(MINIMAL_JSON)
        import yaml

        as_yaml = yaml.safe_dump(data, allow_unicode=True)
        assert parse_delivery(as_yaml) == parse_delivery(MINIMAL_JSON)

    def test_autodetects_format(self):
        assert parse_delivery(MINIMAL_JSON).name == "mini"

    def test_unit_alias_normalized(self):
        data = json.loads(MINIMAL_JSON)
        data["units"] = {"force": "klbs", "moment": "klbs.in"}
        d = parse_delivery(json.dumps(data))
        assert d.units == UnitSystem("klbf", "klbf·in")

    def test_unknown_unit_is_error(self):
        data = json.loads(MINIMAL_JSON)
        data["units"]["force"] = "tons"
        with pytest.raises(UnknownUnitError):
            parse_delivery(json.dumps(data))

    def test_missing_component_names_point_and_field(self):
        data = json.loads(MINIMAL_JSON)
        del data["load_cases"][0]["point_loads"]["a"]["fx"]
        with pytest.raises(SchemaError) as err:
            parse_delivery(json.dumps(data))
        assert "fx" in str(err.value)
        assert "a" in err.value.location

    def test_extra_field_rejected(self):
        data = json.loads(MINIMAL_JSON)
        data["load_cases"][0]["point_loads"]["a"]["fq"] = 1.0
        with pytest.raises(SchemaError) as err:
            parse_delivery(json.dumps(data))
        assert "fq" in str(err.value)

    def test_missing_top_level_field(self):
        data = json.loads(MINIMAL_JSON)
        del data["version"]
        with pytest.raises(SchemaError) as err:
            parse_delivery(json.dumps(data))
        assert "version" in str(err.value)

    @pytest.mark.parametrize(
        "edit,message,location",
        [
            # Before, these two were refused at the enclosing "load_cases[0]" and "$".
            (lambda d: d["load_cases"][0].update(id=0),
             "case id must be a positive integer, got 0", "load_cases[0].id"),
            (lambda d: d.update(version=0),
             "delivery version must be a positive integer, got 0", "version"),
            (lambda d: d.update(load_cases=[]), "load_cases must be a non-empty list", "load_cases"),
            (lambda d: d["load_cases"][0].update(point_loads={}),
             "empty point_loads at load_cases[0]", "load_cases[0].point_loads"),
            (lambda d: d.update(point_coordinates={"a": [0.0, 1.0]}),
             "expected [x, y, z] at point_coordinates.a", "point_coordinates.a"),
        ],
        ids=["case-id-0", "version-0", "no-load-cases", "empty-point-loads", "xy-coordinates"],
    )
    def test_schema_refusal_names_its_location(self, edit, message, location):
        data = json.loads(MINIMAL_JSON)
        edit(data)
        with pytest.raises(SchemaError) as err:
            parse_delivery(json.dumps(data))
        assert (str(err.value), err.value.location) == (message, location)

    def test_json_syntax_error_reports_position(self):
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery('{"name": }')
        assert "line" in err.value.location

    def test_yaml_syntax_error_reports_position(self):
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery("name: [unclosed")
        assert "line" in err.value.location

    def test_yaml_aliases_rejected(self):
        # The alias alone: an anchor in the text would be refused first.
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery("units: *anchor\n")
        assert str(err.value) == "YAML aliases are not allowed in delivery files"
        assert err.value.location == "line 1, column 8"

    def test_yaml_tags_rejected(self):
        with pytest.raises(InputSyntaxError):
            parse_delivery("name: !!python/none")

    def test_non_mapping_root_rejected(self):
        with pytest.raises(SchemaError):
            parse_delivery("[1, 2, 3]")

    def test_nan_value_rejected_with_location(self):
        # JSON spec-breaking NaN literal parses in Python; the field check refuses it
        text = MINIMAL_JSON.replace('"fx": 0', '"fx": NaN')
        with pytest.raises(SchemaError) as err:
            parse_delivery(text)
        assert "point_loads.a" in err.value.location

    @pytest.mark.parametrize(
        "token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "int-beyond-float"],
    )
    def test_non_finite_number_rejected_at_field(self, token):
        text = MINIMAL_JSON.replace('"fx": 0', f'"fx": {token}')
        with pytest.raises(SchemaError) as err:
            parse_delivery(text)
        assert err.value.location == "load_cases[0].point_loads.a.fx"

    def test_json_int_of_5000_digits_refused(self):
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery(MINIMAL_JSON.replace('"version": 1', '"version": ' + "9" * 5000))
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == f"integer of more than {limit} digits in delivery JSON"

    @pytest.mark.parametrize(
        "escape", ["\\udcff", "\\ud83d", "\\ude00\\ud83d", "\\ud83d\\u0041"],
        ids=["low", "high", "swapped-pair", "high-then-letter"],
    )
    @pytest.mark.parametrize("field", ['"name": "', '"a": {"', '"label": "'])
    def test_json_escaped_lone_surrogate_refused(self, escape, field):
        # Before, it was read, and writing the delivery failed.
        text = MINIMAL_JSON.replace('"id": 1,', '"id": 1, "label": "x",').replace(field, field + escape, 1)
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery(text)
        assert str(err.value) == "invalid delivery JSON: a \\u escape of a lone surrogate"

    @pytest.mark.parametrize(
        "name,read",
        [
            ("\\ud83d\\ude00 \\u00b7", "\U0001f600 ·"),
            # A str, not bytes, may hold a lone surrogate itself; the escape is elsewhere.
            ("\udcff \\u00b7", "\udcff ·"),
        ],
        ids=["escaped-pair", "unescaped-in-a-str"],
    )
    def test_json_surrogate_read(self, name, read):
        assert parse_delivery(MINIMAL_JSON.replace('"mini"', f'"{name}"')).name == read


MINIMAL_YAML = """\
name: mini
version: 1
units: {{force: N, moment: N·m}}
load_cases:
  - id: {id}
    point_loads:
      a: {{fx: {fx}, fy: 0, fz: 0, mx: 0, my: 0, mz: 0}}
"""


class TestStrictReading:
    backend = "libyaml" if yaml.__with_libyaml__ else "python"

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"fx": 0,', '"fx": 0, "fx": 5,'),
            ('"point_loads": {"a": {', '"point_loads": {"a": {}, "a": {'),
        ],
        ids=["component", "point"],
    )
    def test_json_duplicate_key_rejected(self, old, new):
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery(MINIMAL_JSON.replace(old, new, 1))
        assert "duplicate key" in str(err.value)

    def test_yaml_duplicate_key_rejected_with_position(self):
        text = MINIMAL_YAML.format(id=1, fx=0).replace("{fx: 0,", "{fx: 0, fx: 5,")
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery(text)
        assert "duplicate key 'fx'" in str(err.value)
        assert err.value.location == "line 7, column 18"

    @pytest.mark.parametrize(
        "field,token,location",
        [
            ("id", "010", "load_cases[0].id"),
            ("id", "0x1F", "load_cases[0].id"),
            ("id", "1_000", "load_cases[0].id"),
            ("fx", "1:30.5", "load_cases[0].point_loads.a.fx"),
        ],
    )
    def test_yaml_non_decimal_numeral_rejected(self, field, token, location):
        values = {"id": 1, "fx": 0, field: token}
        with pytest.raises(SchemaError) as err:
            parse_delivery(MINIMAL_YAML.format(**values))
        assert err.value.location == location

    def test_yaml_decimal_numerals_read(self):
        d = parse_delivery(MINIMAL_YAML.format(id=10, fx="-1.5e+3"))
        assert d.cases[0].id == 10
        assert d.cases[0].loads["a"].fx == -1500.0

    @pytest.mark.parametrize(
        "point",
        [
            "{<<: {fx: 5.0, fy: 0}, fz: 0, mx: 0, my: 0, mz: 0}",
            "{<<: {fx: 5}, fx: 1, fy: 0, fz: 0, mx: 0, my: 0, mz: 0}",
        ],
        ids=["supplies", "overridden"],
    )
    def test_yaml_merge_key_rejected(self, point):
        text = MINIMAL_YAML.format(id=1, fx=0).replace(
            "{fx: 0, fy: 0, fz: 0, mx: 0, my: 0, mz: 0}", point
        )
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery(text)
        assert "merge key" in str(err.value)
        assert err.value.location == "line 7, column 11"

    def test_yaml_quoted_merge_key_is_a_string(self):
        text = MINIMAL_YAML.format(id=1, fx=0).replace("{fx: 0,", "{'<<': 1, fx: 0,")
        with pytest.raises(SchemaError) as err:
            parse_delivery(text)
        assert "'<<'" in str(err.value)

    def test_yaml_int_of_5000_digits_refused(self):
        # Before, int()'s digit limit escaped as a bare ValueError, with no position.
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery("a: " + "9" * 5000 + "\n")
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == f"integer of more than {limit} digits in delivery YAML"
        assert err.value.location == "line 1, column 4"

    @pytest.mark.parametrize("text,message,location", [
        ("label: 2024-13-45\n", "'2024-13-45': month must be in 1..12", "line 1, column 8"),
        ("label: 2001-12-14 25:00:00\n", "'2001-12-14 25:00:00': hour must be in 0..23",
         "line 1, column 8"),
        ("2024-13-45: a\n", "'2024-13-45': month must be in 1..12", "line 1, column 1"),
    ])
    def test_impossible_date_refused_at_its_scalar(self, text, message, location):
        # Before, the date constructor's ValueError escaped with no position.
        with pytest.raises(InputSyntaxError) as err:
            parse_delivery(text)
        assert str(err.value) == f"invalid YAML scalar {message}"
        assert err.value.location == location

    def test_deep_nesting_reaches_the_schema_check(self):
        # The reader keeps its own stack of open nodes, so depth is not bounded
        # by Python's recursion limit.
        with pytest.raises(SchemaError) as err:
            parse_delivery("a: " + "[" * 5000 + "]" * 5000)
        assert str(err.value) == "missing field 'name' at $"

    def test_backend(self):
        assert yaml_reader.backend() == self.backend


@pytest.fixture
def python_yaml(monkeypatch):
    """Swap the delivery loader for its pure-Python twin, the fallback without libyaml."""
    monkeypatch.setattr(yaml_reader, "_DeliveryLoader", yaml_reader._delivery_loader(yaml.SafeLoader))


@pytest.mark.usefixtures("python_yaml")
class TestStrictReadingPythonBackend(TestStrictReading):
    """The strict-reading cases again, on the pure-Python parser."""

    backend = "python"
    test_yaml_aliases_rejected = TestParseDelivery.test_yaml_aliases_rejected
    test_yaml_tags_rejected = TestParseDelivery.test_yaml_tags_rejected
    test_yaml_syntax_error_reports_position = (
        TestParseDelivery.test_yaml_syntax_error_reports_position
    )


def _two_pass_loader(base: type) -> type:
    """The delivery loader as it was before the one-pass reader, for the oracle."""

    class TwoPassLoader(base):
        yaml_implicit_resolvers = yaml_reader._delivery_loader(base).yaml_implicit_resolvers

        def construct_mapping(self, node, deep=False):
            mapping = super().construct_mapping(node, deep=deep)
            if len(mapping) < len(node.value):
                seen = set()
                for key_node, _ in node.value:
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise InputSyntaxError(
                            f"duplicate key {key!r} in delivery YAML",
                            location=yaml_reader._position(key_node.start_mark),
                        )
                    seen.add(key)
            return mapping

        def flatten_mapping(self, node):
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    raise InputSyntaxError(
                        "YAML merge key '<<' is not allowed in delivery files",
                        location=yaml_reader._position(key_node.start_mark),
                    )
            super().flatten_mapping(node)

        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep=deep)
            except ValueError as exc:  # a date or time that does not exist, refused at its scalar
                raise InputSyntaxError(
                    f"invalid YAML scalar {node.value!r}: {exc}",
                    location=yaml_reader._position(node.start_mark),
                ) from exc

    return TwoPassLoader


def _two_pass_load(text: str, loader: type):
    """The oracle: a prescan of parser events for aliases, anchors and tags,
    then ``yaml.load``."""
    try:
        for event in yaml.parse(text, Loader=loader):
            if isinstance(event, yaml.AliasEvent):
                refused = "aliases are"
            elif getattr(event, "anchor", None) is not None:
                refused = f"anchor {event.anchor!r} is"
            elif getattr(event, "tag", None) is not None:
                refused = f"tag {event.tag!r} is"
            else:
                continue
            raise InputSyntaxError(
                f"YAML {refused} not allowed in delivery files",
                location=yaml_reader._position(event.start_mark),
            )
        return yaml.load(text, Loader=loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = yaml_reader._position(mark) if mark else "unknown position"
        raise InputSyntaxError(f"invalid YAML: {exc.problem}", location=where) from exc
    except yaml.YAMLError as exc:
        raise InputSyntaxError(f"invalid YAML: {exc}", location="unknown position") from exc


def _outcome(read, text: str):
    """What a reader makes of ``text``: its data with every type showing, or its refusal."""
    try:
        return repr(read(text))
    except (InputSyntaxError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "location", None)


_BASES = {"python": yaml.SafeLoader}
if yaml.__with_libyaml__:
    _BASES["libyaml"] = yaml.CSafeLoader


def _outcomes(text: str, base: type) -> tuple:
    """The one-pass event reader's outcome and the oracle's, both on the parser
    ``base``; the line reader is held to the event reader by TestBlockReaderOracle."""
    oracle = _outcome(lambda t: _two_pass_load(t, _two_pass_loader(base)), text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yaml_reader, "_DeliveryLoader", yaml_reader._delivery_loader(base))
        patch.setattr(yaml_reader, "_read_block", lambda text, types: None)
        new = _outcome(yaml_reader.load_yaml, text)
    return new, oracle


# Scalars that YAML 1.1 types, or nearly types, as something other than a string.
_ADVERSARIAL_SCALARS = [
    "010", "0x1F", "0o17", "0b101", "1_000", "1:30", "1:30.5", "-0", "+5", "0",
    "12345678901234567890", pytest.param("1" + "0" * 400, id="1e400"), "-0.0", "1.", ".5",
    "+.5", "1.5e+3", "1.5E-3", "1e5", "1.5e3", "1_0.5", ".inf", "-.Inf", "+.INF", ".nan",
    "-.5", "+.5e+3", ".5e3", "-0.", "1.5_0", "0x1.5", "-.", "1.5e+", "1.0e+400",
    ".NaN", "yes", "No", "on",
    "OFF", "y", "n", "true", "False", "~", "null", "NULL", "", "2024-01-01",
    "2024-13-45", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5", "=", "<<",
    "'<<'", '"010"', "'yes'", "-", ".", "|\n  010", ">\n  yes",
]

_ADVERSARIAL_DOCUMENTS = [
    "a: 1\n---\nb: 2\n",
    "---\na: 1\n...\n---\nb: 2\n",
    "%YAML 1.1\n---\na: 1\n",
    "%YAML 1.1\n%TAG !e! tag:example.com,2000:\n---\na: 1\n",
    "a: 1\n...\n",
    "---\n...\n",
    "# a comment only\n",
    "? [a]\n: 1\n",
    "? {a: 1}\n: 1\n",
    "{[a]: 1}\n",
    "1.0: a\n1: b\n",
    "1: a\n1.0: b\n",
    "yes: a\ntrue: b\n",
    "~: a\nnull: b\n",
    ".nan: a\n.nan: b\n",
    "a: 1\na: 2\n",
    "a: {b: 1, b: 2}\n",
    "a: &x 1\n",
    "a: &x 1\nb: *x\n",
    "a: &x [1]\n",
    "a: !!str 1\n",
    "a: ! 1\n",
    "a: !!binary aGk=\n",
    "!!map {a: 1}\n",
    "<<: {b: 1}\nc: 2\n",
    "'<<': 1\n",
    '"<<": 1\n"<<": 2\n',
    "=: 1\n",
    "=: 1\n=: 2\n",
    "a: [<<, =]\n",
    # One plain text at a key and at a value, where it reads differently or is
    # refused at one of them: a reader must not type a text once for both.
    "=: 1\na: =\n",
    "'<<': 1\na: <<\n",
    "x: yes\nyes: 1\n",
    "a: 1.0\nb: 1\nc: 1.0\n",
    "- a\n- [b, {c: d}]\n",
    "a: [unclosed\n",
    'a: "unterminated\n',
    "a:\n\tb: 1\n",
    "a: \x01\n",
    "plain text\n",
]

# Two faults each. The one-pass reader stops at the first one it reads; the
# oracle's prescan, or its refusal of the merge key before duplicates, finds
# the other first.
_TWO_FAULT_DOCUMENTS = [
    "a: 1\n--- [\n",
    "a: 1\na: 2\nb: &x 3\n",
    "a: 1\na: 2\n<<: {}\n",
    pytest.param("9" * 5000 + ": a\n", id="int-of-5000-digits-as-too-long-a-key"),
]


def _joined(*parts):
    return st.tuples(*parts).map("".join)


# Plain scalars of numeral characters: a sign, digits, a point, digits and an
# exponent, each maybe left out or bent; any text of those characters; and
# the .inf and .nan spellings.
_DIGITS = st.sampled_from(["5", "", "0", "12", "007", "1_0"])
_NUMERAL_TEXTS = st.one_of(
    _joined(
        st.sampled_from(["", "-", "+"]), _DIGITS, st.sampled_from([".", "", ":", "x"]), _DIGITS,
        st.one_of(st.just(""), _joined(st.sampled_from("eE"), st.sampled_from(["+", "-", ""]), _DIGITS)),
    ),
    st.text(alphabet="0123456789+-.eE_:xob", min_size=1, max_size=10),
    st.sampled_from([".inf", "-.Inf", "+.INF", ".nan", ".NaN", ".NAN", "-.nan", ".iNf"]),
)


@pytest.mark.parametrize("backend", sorted(_BASES))
class TestOnePassReaderOracle:
    """The one-pass reader against the two-pass reader it replaced, on both
    parsers: the same data with the same types, or the same refusal."""

    @pytest.mark.parametrize("token", _ADVERSARIAL_SCALARS)
    def test_scalar(self, backend, token):
        for text in (f"a: {token}\n", f"{token}: a\n", f"[{token}]\n"):
            new, oracle = _outcomes(text, _BASES[backend])
            assert new == oracle, text

    @pytest.mark.parametrize("text", _ADVERSARIAL_DOCUMENTS)
    def test_document(self, backend, text):
        new, oracle = _outcomes(text, _BASES[backend])
        assert new == oracle

    @pytest.mark.parametrize("text", _TWO_FAULT_DOCUMENTS)
    def test_two_faults_both_refused(self, backend, text):
        new, oracle = _outcomes(text, _BASES[backend])
        assert isinstance(new, tuple) and isinstance(oracle, tuple)

    @given(delivery=st.one_of(deliveries(), oracle_deliveries()))
    def test_rendered_delivery(self, backend, delivery):
        new, oracle = _outcomes(delivery_yaml(delivery), _BASES[backend])
        assert new == oracle

    def test_float_resolver_is_first_for_every_numeral_start(self, backend):
        # The reader types a decimal float value without the resolver table,
        # which gives the same float only while this holds.
        table = yaml_reader._delivery_loader(_BASES[backend]).yaml_implicit_resolvers
        for first in "-+.0123456789":
            assert table[first][0][0] == "tag:yaml.org,2002:float", first

    def test_typing_table_is_safeloaders_with_decimal_numerals(self, backend):
        # The readers type plain scalars by a table of their own, so the line
        # reader needs no PyYAML; it must be the parser's, numerals aside.
        base = _BASES[backend]
        decimal = {
            "tag:yaml.org,2002:int": (r"^[-+]?(?:0|[1-9][0-9]*)$", re.UNICODE),
            "tag:yaml.org,2002:float": (
                r"^(?:[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?"
                r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$",
                re.UNICODE,
            ),
        }

        def rows(table, replaced=None):
            """Each first character's (tag, pattern, flags) rows, in order,
            with the (pattern, flags) of the tags in ``replaced`` swapped."""
            return {
                first: [
                    (tag, *(replaced or {}).get(tag, (regexp.pattern, regexp.flags)))
                    for tag, regexp in pairs
                ]
                for first, pairs in table.items()
            }

        table = yaml_reader._delivery_loader(base).yaml_implicit_resolvers
        assert table is yaml_reader._IMPLICIT_RESOLVERS
        assert rows(table) == rows(base.yaml_implicit_resolvers, decimal)

    @given(text=_NUMERAL_TEXTS)
    def test_numeral(self, backend, text):
        for document in (f"k: {text}\n", f"{text}: k\n", f"{text}: {text}\nk: {text}\n", f"[{text}]\n"):
            new, oracle = _outcomes(document, _BASES[backend])
            assert new == oracle, document


def _block_and_event(text: str, base: type) -> tuple:
    """The line reader's data on ``text``, None when it declines, and the
    event reader's outcome, both on the parser ``base``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yaml_reader, "_DeliveryLoader", yaml_reader._delivery_loader(base))
        types = yaml_reader._PlainTypes(yaml_reader._IMPLICIT_RESOLVERS.get)
        block = yaml_reader._read_block(text, types)
        patch.setattr(yaml_reader, "_read_block", lambda text, types: None)
        event = _outcome(yaml_reader.load_yaml, text)
    return (None if block is None else repr(block)), event


# Words at the edges of the block subset: typed other than str, document
# markers, keys that may not start a line, and characters outside the subset.
_EDGE_WORDS = st.one_of(
    st.sampled_from([
        "a  b", "1", "-1", "1.5", "1.", ".5", "-.5", "1e5", "0x1F", "1_000", ".inf", ".nan",
        "yes", "null", "~", "<<", "=", "-", "--", "---", "...", "-x", "2024-01-01", "a#b",
        "'a'", "a\tb", "é", "a:b", "", "·", "·a", "a··", "-·",
    ]),
    st.text(alphabet="ab1_-.: =<~#·", min_size=1, max_size=4),
)
# Words the line reader reads: keys typed str, and values typed str, int or float.
_KEY_WORDS = st.sampled_from(["a", "b", "c", "ab", "a b", "_x", "x1", "1a", "fx", "N", "N·m", "a·"])
_VALUE_WORDS = st.one_of(
    st.sampled_from([
        "a", "a b", "x  y", "0", "-7", "+5", "1.5", "-0.0", "1.0e-06", "2.5E+3", ".5", "1.",
        "N.m", "N·m", "klbf·in", "·", "·5", "1·5", "$(a)", "a;b", "~x", "<a", "=a", "a-b", "-a",
        "--", "_", "a/b^c",
    ]),
    st.floats(allow_nan=False).map(repr),
)
# Block mappings and sequences of those words; a sequence holds no sequence.
_BLOCK_TREES = st.dictionaries(
    _KEY_WORDS,
    st.recursive(
        _VALUE_WORDS,
        lambda children: st.dictionaries(_KEY_WORDS, children, min_size=1, max_size=3)
        | st.lists(children.filter(lambda child: not isinstance(child, list)), min_size=1, max_size=3),
        max_leaves=12,
    ),
    min_size=1, max_size=4,
)


def _block_lines(node, col: int, step: int, indentless: bool) -> list[str]:
    """The lines of ``node`` written in block style at column ``col``: a
    mapping's children ``step`` deeper, a sequence under a key at the key's
    own column when ``indentless``."""
    pad = " " * col
    lines = []
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, str):
                lines.append(f"{pad}{key}: {value}")
            else:
                lines.append(f"{pad}{key}:")
                deeper = col if isinstance(value, list) and indentless else col + step
                lines += _block_lines(value, deeper, step, indentless)
    else:
        for item in node:
            if isinstance(item, str):
                lines.append(f"{pad}- {item}")
            else:  # a mapping, its first key on the dash's line
                first, *rest = _block_lines(item, col + 2, step, indentless)
                lines += [f"{pad}- {first[col + 2:]}", *rest]
    return lines


# One line from the template INDENT DASH KEY SEP VALUE, its spacing bent.
_BENT_LINES = st.tuples(
    st.sampled_from(["", " ", "  ", "   ", "    "]),
    st.sampled_from(["", "- ", "-", "-  "]),
    st.one_of(_KEY_WORDS, _EDGE_WORDS),
    st.sampled_from([":", ": ", ":  ", " : ", "", " "]),
    st.one_of(st.just(""), _VALUE_WORDS, _EDGE_WORDS),
).map("".join)


@st.composite
def _block_texts(draw) -> str:
    """A block-style document of _BLOCK_TREES, then up to two of its lines
    replaced by _BENT_LINES."""
    lines = _block_lines(
        draw(_BLOCK_TREES), 0, draw(st.integers(1, 4)), draw(st.booleans())
    )
    for at, line in draw(st.lists(st.tuples(st.integers(0, 99), _BENT_LINES), max_size=2)):
        lines[at % len(lines)] = line
    return "".join(line + "\n" for line in lines)


_LONG_KEY = "k" * 1024

# Texts at the subset's boundary, and whether the line reader reads them.
_BLOCK_CASES = [
    pytest.param("a:  b\n", False, id="two-spaces-after-colon"),
    pytest.param("a : b\n", False, id="space-before-colon"),
    pytest.param("a: b \n", False, id="trailing-space"),
    pytest.param("a: b: c\n", False, id="colon-in-value"),
    pytest.param("a: -\n", False, id="dash-value"),
    pytest.param("a: - b\n", False, id="dash-space-value"),
    pytest.param("a: b\n  c\n", False, id="folded-continuation"),
    pytest.param("a:\n", False, id="null-value"),
    pytest.param("a:\nb: 1\n", False, id="null-value-before-a-key"),
    pytest.param(f"{_LONG_KEY}: 1\n", True, id="key-of-1024"),
    pytest.param(f"{_LONG_KEY}k: 1\n", False, id="key-of-1025"),
    pytest.param(f"a:\n- {_LONG_KEY}: 1\n", True, id="item-key-of-1024"),
    pytest.param(f"a:\n- {_LONG_KEY}k: 1\n", False, id="item-key-of-1025"),
    pytest.param(f"{_LONG_KEY[1:]}·: 1\n", True, id="key-of-1024-characters-1025-bytes"),
    pytest.param(f"{_LONG_KEY}·: 1\n", False, id="key-of-1025-characters"),
    pytest.param("units:\n  moment: N·m\n", True, id="middle-dot"),
    pytest.param("·: 1\n", False, id="middle-dot-led-key"),
    pytest.param("a: é\n", False, id="other-non-ascii"),
    pytest.param("a: \u0177\n", False, id="other-non-ascii-with-a-b7-byte"),
    pytest.param("a: \u00a9\n", False, id="other-non-ascii-with-a-c2-byte"),
    pytest.param("a: \ud800\n", False, id="lone-surrogate"),
    pytest.param("---\na: 1\n", False, id="document-start"),
    pytest.param("...: 1\n", False, id="dots-key"),
    pytest.param("-x: 1\n", False, id="dash-led-key"),
    pytest.param("a:\n- b:\n  - 1\n", True, id="sequence-at-its-keys-indent"),
    pytest.param("a:\n\tb: 1\n", False, id="tab-indent"),
    pytest.param("a:\n  b: 1\n c: 2\n", False, id="column-between-levels"),
    pytest.param("a:\n  - 1\n  -  2\n", False, id="two-spaces-after-dash"),
    pytest.param("a:\n- b\n  c\n", False, id="folded-item"),
    pytest.param("a:\n- - b\n", False, id="nested-dash"),
    pytest.param("a: 1\n- b\n", False, id="item-in-a-mapping"),
    pytest.param("a:\n  b: 1\n- c\n", False, id="item-in-a-mapping-after-a-nested-one"),
    pytest.param("a:\n  - 1\n  b: 2\n", False, id="key-at-an-indented-sequences-column"),
    pytest.param("a: 1\na: 2\n", False, id="repeated-key"),
    pytest.param("1: a\n", False, id="int-key"),
    pytest.param("a: yes\n", False, id="bool-value"),
    pytest.param("a: 1\n\nb: 2\n", False, id="blank-line"),
    pytest.param("a: 1", False, id="no-final-newline"),
    pytest.param("  a: 1\n", False, id="indented-root"),
    pytest.param("- a\n", False, id="sequence-root"),
    pytest.param(
        "a:\n  b:\n  - 1\n  - c: d\n    e: 0.5\n  f: -2\nh: $(x) y;z\n", True, id="nested"
    ),
]


@pytest.mark.parametrize("backend", sorted(_BASES))
class TestBlockReaderOracle:
    """The line reader against the event reader, on both parsers: the same
    data with the same types, or a decline."""

    def assert_agree(self, backend, text, read=None):
        block, event = _block_and_event(text, _BASES[backend])
        assert block is None or block == event, text
        if read is not None:
            assert (block is not None) == read, text

    def test_shipped_file(self, backend):
        from conftest import SCENARIOS_DIR

        text = (SCENARIOS_DIR / "inputs" / "OEM_loads_v2.yaml").read_text(encoding="utf-8")
        self.assert_agree(backend, text, read=True)

    @given(delivery=deliveries())
    def test_rendered_delivery(self, backend, delivery):
        # The tests' block-style YAML, "·" in the moment unit included.
        self.assert_agree(backend, delivery_yaml(delivery), read=True)

    @pytest.mark.parametrize("text,read", _BLOCK_CASES)
    def test_boundary(self, backend, text, read):
        self.assert_agree(backend, text, read)

    @pytest.mark.parametrize("token", _ADVERSARIAL_SCALARS)
    def test_scalar_in_a_block_document(self, backend, token):
        for text in (f"a: {token}\n", f"{token}: a\n", f"a:\n- {token}\n"):
            self.assert_agree(backend, text)

    @given(text=_block_texts())
    def test_line_templates(self, backend, text):
        self.assert_agree(backend, text)


def _parsed(text: str, fast: bool):
    """parse_delivery's outcome on ``text``, reading rows in one step where it
    can or always field by field: its value with every type showing, or its refusal."""
    with pytest.MonkeyPatch.context() as patch:
        if not fast:
            patch.setattr(ingest, "_row_at_once", lambda point, comp_node: None)
        try:
            return repr(parse_delivery(text))
        except LoadsmithError as exc:
            return type(exc).__name__, str(exc), exc.code, exc.location


_ROW_JSON = '"fx": 1.5, "fy": -0.0, "fz": 0.25, "mx": 0.0, "my": 2.0, "mz": -3.5'
_ROW_YAML = "{fx: 1.5, fy: -0.0, fz: 0.25, mx: 0.0, my: 2.0, mz: -3.5}"


def _json_row(row: str) -> str:
    return MINIMAL_JSON.replace('"fx": 0, "fy": 0, "fz": 0, "mx": 0, "my": 0, "mz": 0', row)


def _yaml_row(row: str, point: str = "a") -> str:
    return MINIMAL_YAML.format(id=1, fx=0).replace(
        "a: {fx: 0, fy: 0, fz: 0, mx: 0, my: 0, mz: 0}", f"{point}: {row}"
    )


# The malformed deliveries of this file's tests, then component maps that
# probe each condition of the one-step read; a few valid ones among them.
_ROW_DELIVERIES = [
    pytest.param(MINIMAL_JSON, id="int-values"),
    pytest.param(MINIMAL_JSON.replace('"fx": 0, ', ""), id="missing-component"),
    pytest.param(MINIMAL_JSON.replace('"fx": 0,', '"fx": 0, "fq": 1.0,'), id="extra-component"),
    pytest.param(MINIMAL_JSON.replace('"version": 1,\n', ""), id="missing-top-level-field"),
    pytest.param(MINIMAL_JSON.replace('"N·m"', '"tons"'), id="unknown-unit"),
    pytest.param('{"name": }', id="json-syntax"),
    pytest.param("name: [unclosed", id="yaml-syntax"),
    pytest.param("base: &anchor {force: N, moment: N·m}\nunits: *anchor\n", id="yaml-alias"),
    pytest.param("name: !!python/none", id="yaml-tag"),
    pytest.param("[1, 2, 3]", id="non-mapping-root"),
    *(
        pytest.param(MINIMAL_JSON.replace('"fx": 0', f'"fx": {token}'), id=f"json-{name}")
        for token, name in (
            ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
            ("1" + "0" * 400, "int-beyond-float"), ("true", "bool"), ('"1.0"', "string"),
            ("null", "null"), ("[1.0]", "list"),
        )
    ),
    pytest.param(MINIMAL_JSON.replace('"version": 1', '"version": ' + "9" * 5000), id="5000-digits"),
    pytest.param(MINIMAL_JSON.replace('"fx": 0,', '"fx": 0, "fx": 5,'), id="json-duplicate-component"),
    pytest.param(
        MINIMAL_JSON.replace('"point_loads": {"a": {', '"point_loads": {"a": {}, "a": {'),
        id="json-duplicate-point",
    ),
    pytest.param(MINIMAL_YAML.format(id=1, fx=0).replace("{fx: 0,", "{fx: 0, fx: 5,"), id="yaml-duplicate"),
    *(
        pytest.param(MINIMAL_YAML.format(**{"id": 1, "fx": 0, field: token}), id=f"yaml-{field}-{token}")
        for field, token in (("id", "010"), ("id", "0x1F"), ("id", "1_000"), ("fx", "1:30.5"))
    ),
    pytest.param(_yaml_row("{<<: {fx: 5.0, fy: 0}, fz: 0, mx: 0, my: 0, mz: 0}"), id="yaml-merge"),
    pytest.param(_yaml_row("{'<<': 1, fx: 0, fy: 0, fz: 0, mx: 0, my: 0, mz: 0}"), id="yaml-quoted-merge"),
    pytest.param("a: " + "9" * 5000 + "\n", id="yaml-5000-digits"),
    pytest.param(_json_row(_ROW_JSON), id="json-floats"),
    pytest.param(_yaml_row(_ROW_YAML), id="yaml-floats"),
    pytest.param(_json_row(_ROW_JSON.replace("1.5", "1")), id="one-int"),
    pytest.param(_json_row(_ROW_JSON.replace("1.5", "true")), id="one-bool"),
    pytest.param(_json_row(_ROW_JSON.replace("1.5", "NaN")), id="one-nan"),
    pytest.param(_json_row(_ROW_JSON.replace("1.5", "-Infinity")), id="one-infinity"),
    pytest.param(
        _json_row(_ROW_JSON.replace("1.5", "1.7e308").replace("2.0", "1.7e308")),
        id="sum-overflows-from-finite-values",
    ),
    pytest.param(_json_row(_ROW_JSON.replace('"fx"', '"fq"')), id="six-keys-one-unknown"),
    pytest.param(_json_row(_ROW_JSON.replace('"fx": 1.5, ', "")), id="five-keys"),
    pytest.param(_json_row(_ROW_JSON + ', "fq": 1.0'), id="seven-keys"),
    pytest.param(_yaml_row(_ROW_YAML, point="1"), id="yaml-int-point-name"),
    pytest.param(_yaml_row(_ROW_YAML, point="null"), id="yaml-null-point-name"),
    pytest.param(_yaml_row(_ROW_YAML.replace("fx:", "1:")), id="yaml-int-component-key"),
    pytest.param(_yaml_row("[1.5, 0.0, 0.0, 0.0, 0.0, 0.0]"), id="yaml-row-as-list"),
]

_component_keys = st.sampled_from([c.value for c in COMPONENT_ORDER])
_any_value = st.one_of(
    st.floats(), st.integers(), st.just(10**400), st.booleans(), st.none(), st.text(max_size=2)
)


class TestRowFastPath:
    """The one-step row reader against the field-by-field one, its reference:
    the same row, or a decline and the field-by-field refusal."""

    @pytest.mark.parametrize("text", _ROW_DELIVERIES)
    def test_delivery(self, text):
        assert _parsed(text, fast=True) == _parsed(text, fast=False)

    def test_shipped_delivery(self):
        from conftest import SCENARIOS_DIR

        text = (SCENARIOS_DIR / "inputs" / "OEM_loads_v2.yaml").read_text(encoding="utf-8")
        assert _parsed(text, fast=True) == _parsed(text, fast=False)

    @given(oracle_deliveries())
    def test_oracle_component_maps(self, delivery):
        text = write_delivery_json(delivery)
        assert _parsed(text, fast=True) == _parsed(text, fast=False)
        for idx, case in enumerate(json.loads(text)["load_cases"]):
            for point, comp_node in case["point_loads"].items():
                fast = ingest._row_at_once(point, comp_node)
                slow = ingest._row_by_field(point, comp_node, f"load_cases[{idx}].point_loads.{point}")
                if math.isfinite(sum(comp_node.values())):
                    assert repr(fast) == repr(slow)
                else:  # a sum that overflows from finite values
                    assert fast is None

    @given(
        point=st.one_of(st.text(max_size=2), st.integers(), st.none()),
        comp_node=st.one_of(
            st.fixed_dictionaries({c.value: _any_value for c in COMPONENT_ORDER}),
            st.dictionaries(st.one_of(_component_keys, st.just("fq"), st.integers()), _any_value),
            _any_value,
        ),
    )
    def test_any_component_map(self, point, comp_node):
        fast = ingest._row_at_once(point, comp_node)
        try:
            slow = ingest._row_by_field(point, comp_node, "p")
        except SchemaError:
            assert fast is None
        else:
            assert fast is None or repr(fast) == repr(slow)


class TestValidateDelivery:
    def test_valid_si_delivery_clean(self):
        report = validate_delivery(parse_delivery(MINIMAL_JSON))
        assert report.ok
        assert report.findings == ()

    def test_non_si_units_warn_but_ok(self, imperial_delivery):
        report = validate_delivery(imperial_delivery)
        assert report.ok
        assert [f.code for f in report.findings] == ["NON_SI_UNITS"]
        assert report.findings[0].severity == "warning"

    def test_point_set_mismatch(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(
                LoadCase(id=1, loads={"a": ComponentSet()}),
                LoadCase(id=2, loads={"b": ComponentSet()}),
            ),
        )
        report = validate_delivery(d)
        assert not report.ok
        assert "POINT_SET_MISMATCH" in [f.code for f in report.findings]

    def test_duplicate_case_ids(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(
                LoadCase(id=7, loads={"a": ComponentSet()}),
                LoadCase(id=7, loads={"a": ComponentSet()}),
            ),
        )
        report = validate_delivery(d)
        assert not report.ok
        assert "DUPLICATE_CASE_ID" in [f.code for f in report.findings]

    def test_coordinate_coverage(self):
        d = LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(LoadCase(id=1, loads={"a": ComponentSet()}),),
            point_coordinates={"b": (0.0, 0.0, 0.0)},
        )
        report = validate_delivery(d)
        assert not report.ok
        assert "COORDINATE_COVERAGE" in [f.code for f in report.findings]

    def test_report_dict_shape(self, imperial_delivery):
        data = validate_delivery(imperial_delivery).to_dict()
        assert data["ok"] is True
        assert data["findings"][0]["code"] == "NON_SI_UNITS"


class TestCanonicalSerialization:
    def test_round_trip_value_equal(self, two_point_delivery):
        text = write_delivery_json(two_point_delivery)
        assert parse_delivery(text) == two_point_delivery

    def test_map_order_does_not_change_bytes(self, two_point_delivery):
        reordered_cases = tuple(
            LoadCase(
                id=c.id,
                label=c.label,
                loads=dict(sorted(c.loads.items(), reverse=True)),
            )
            for c in two_point_delivery.cases
        )
        reordered = LoadsDelivery(
            name=two_point_delivery.name,
            version=two_point_delivery.version,
            units=two_point_delivery.units,
            cases=reordered_cases,
        )
        assert write_delivery_json(reordered) == write_delivery_json(two_point_delivery)

    def test_serialization_is_fixed_point(self, two_point_delivery):
        once = write_delivery_json(two_point_delivery)
        again = write_delivery_json(parse_delivery(once))
        assert once == again

    def test_trailing_newline_and_lf(self, two_point_delivery):
        text = write_delivery_json(two_point_delivery)
        assert text.endswith("\n")
        assert "\r" not in text

    def test_yaml_rendering_parses_back(self, two_point_delivery):
        text = delivery_yaml(two_point_delivery)
        assert parse_delivery(text) == two_point_delivery

    @given(deliveries())
    def test_format_agnosticism(self, delivery):
        via_json = parse_delivery(write_delivery_json(delivery))
        via_yaml = parse_delivery(delivery_yaml(delivery))
        assert via_json == via_yaml == delivery

    @given(deliveries())
    def test_canonical_fixed_point_property(self, delivery):
        once = write_delivery_json(delivery)
        assert write_delivery_json(parse_delivery(once)) == once

    @given(oracle_deliveries())
    @example(
        LoadsDelivery(
            name='q"uote\\back\x00\x1f\n\t\u2028 é€',
            version=1,
            units=SI_UNITS,
            coordinate_system="\x7f\"cs\"",
            point_coordinates={},
            cases=(
                LoadCase(id=1, label=None, loads={"ü\\\"\x01": ComponentSet(-0.0, 0.0, 1e-320)}),
                LoadCase(id=2, label="", loads={"ü\\\"\x01": ComponentSet(fx=-1.7976931348623157e308)}),
            ),
        )
    )
    @example(  # point names and labels that read as % conversions; a template escapes them
        LoadsDelivery(
            name="%s %r", version=1, units=SI_UNITS, coordinate_system="%%",
            point_coordinates={"%(fx)s": (1.0, 2.0, 3.0)},
            cases=(
                LoadCase(id=1, label="%r %s %% %",
                         loads={"%": ComponentSet(fx=0.1), "%r": ComponentSet(mz=-2.0)}),
                LoadCase(id=2, label="100%", loads={"%": ComponentSet(), "%r": ComponentSet(fy=1e-7)}),
            ),
        )
    )
    @example(
        LoadsDelivery(
            name="x", version=1, units=SI_UNITS,
            cases=(
                LoadCase(id=1, label="%(fx)s",
                         loads={"%(fx)r": ComponentSet(fx=1.0), "a%%b%": ComponentSet()}),
                LoadCase(id=2, label="%", loads={"%d": ComponentSet(fz=3.0)}),
            ),
        )
    )
    def test_writer_matches_json_dumps_oracle(self, delivery):
        oracle = json.dumps(delivery_to_plain(delivery), indent=2, ensure_ascii=False)
        assert write_delivery_json(delivery) == oracle + "\n"

    @given(plain_deliveries())
    def test_delivery_with_coordinates_renders_its_plain_source(self, plain):
        # Built by the constructors from a source that is not the delivery
        # itself, so a field the constructor overwrites shows in the text.
        delivery = LoadsDelivery(
            name=plain["name"],
            version=plain["version"],
            units=UnitSystem(plain["units"]["force"], plain["units"]["moment"]),
            cases=[
                LoadCase(id=case["id"], label=case.get("label"), loads={
                    point: ComponentSet(**row) for point, row in case["point_loads"].items()
                })
                for case in plain["load_cases"]
            ],
            coordinate_system=plain.get("coordinate_system"),
            point_coordinates=plain["point_coordinates"],
        )
        text = write_delivery_json(delivery)
        assert text == json.dumps(plain, indent=2, ensure_ascii=False) + "\n"
        assert json.loads(text) == plain
        assert parse_delivery(text) == delivery


class TestShippedFixture:
    def test_v2_yaml_parses_with_alias_normalization(self):
        from conftest import SCENARIOS_DIR

        raw = (SCENARIOS_DIR / "inputs" / "OEM_loads_v2.yaml").read_bytes()
        d = parse_delivery(raw)
        assert d.name == "Engine Mount Balanced Loads v2"
        assert len(d.cases) == 100
        assert len(d.cases[0].loads) == 7
        assert d.units == UnitSystem("klbf", "klbf·in")  # klbs/klbs.in in the file
        assert validate_delivery(d).ok

    def test_v2_yaml_equal_on_both_backends(self, request):
        from conftest import SCENARIOS_DIR

        raw = (SCENARIOS_DIR / "inputs" / "OEM_loads_v2.yaml").read_bytes()
        default = parse_delivery(raw)
        request.getfixturevalue("python_yaml")
        pure = parse_delivery(raw)
        assert pure == default
        assert write_delivery_json(pure) == write_delivery_json(default)


class TestSchemaFile:
    def test_schema_agrees_with_parser(self, two_point_delivery):
        import jsonschema

        from conftest import REPO_ROOT

        schema = json.loads(
            (REPO_ROOT / "schema" / "delivery.schema.json").read_text(encoding="utf-8")
        )
        good = json.loads(write_delivery_json(two_point_delivery))
        jsonschema.validate(good, schema)

        bad = json.loads(MINIMAL_JSON)
        del bad["load_cases"][0]["point_loads"]["a"]["fx"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        with pytest.raises(SchemaError):
            parse_delivery(json.dumps(bad))


class TestLoadDelivery:
    def test_loads_and_validates(self, tmp_path, two_point_delivery):
        path = tmp_path / "delivery.json"
        path.write_text(write_delivery_json(two_point_delivery), encoding="utf-8")
        assert load_delivery(path) == two_point_delivery

    def test_raises_on_error_findings(self, tmp_path):
        data = json.loads(MINIMAL_JSON)
        data["load_cases"].append(
            {"id": 2, "point_loads": {"zz": dict.fromkeys(["fx", "fy", "fz", "mx", "my", "mz"], 0)}}
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(LoadsmithError) as err:
            load_delivery(path)
        assert err.value.code == "POINT_SET_MISMATCH"
