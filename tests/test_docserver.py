import hashlib
import json
import subprocess
import sys

import pytest

from loadsmith.docserver import (
    DOCUMENT_NOT_FOUND,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    VERSION_NOT_FOUND,
    handle_line,
    load_catalog,
)
from loadsmith.cli import main
from loadsmith.errors import LoadsmithError

from conftest import CATALOG_DIR


def make_catalog(tmp_path, docs):
    """docs: {doc_id: (title, {version: content})}"""
    entries = []
    for doc_id, (title, versions) in docs.items():
        entries.append(
            {"document_id": doc_id, "title": title, "versions": sorted(versions)}
        )
        for version, content in versions.items():
            path = tmp_path / "docs" / str(doc_id) / f"v{version}.md"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
    (tmp_path / "catalog.json").write_text(json.dumps(entries), encoding="utf-8")
    return tmp_path


@pytest.fixture
def catalog(tmp_path):
    return load_catalog(
        make_catalog(
            tmp_path,
            {
                1001: ("DP-TRS-LOADS-001", {1: "practice text v1\n", 2: "practice text v2\n"}),
                1002: ("DP-TRS-FEM-002", {1: "fem practice\n"}),
            },
        )
    )


def rpc(method, params=None, request_id=1):
    msg = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params is not None:
        msg["params"] = params
    return json.dumps(msg)


class TestCatalog:
    def test_browse_sorted_no_bodies(self, catalog):
        listing = json.loads(handle_line(catalog, rpc("browse_catalog")))["result"]
        assert [d["document_id"] for d in listing] == [1001, 1002]
        assert listing[0] == {
            "document_id": 1001,
            "title": "DP-TRS-LOADS-001",
            "versions": [1, 2],
        }
        assert "content" not in listing[0]

    def test_get_content_exact(self, catalog):
        doc = catalog[1001].versions[1]
        assert doc.content == "practice text v1\n"
        assert doc.checksum == hashlib.sha256(b"practice text v1\n").hexdigest()

    def test_empty_catalog_lists_nothing(self, tmp_path):
        (tmp_path / "catalog.json").write_text("[]", encoding="utf-8")
        catalog = load_catalog(tmp_path)
        assert catalog == {}
        assert json.loads(handle_line(catalog, rpc("browse_catalog")))["result"] == []

    def test_missing_catalog_dir(self, tmp_path):
        with pytest.raises(LoadsmithError) as err:
            load_catalog(tmp_path / "nowhere")
        assert err.value.code == "CATALOG_ERROR"

    def test_missing_content_file(self, tmp_path):
        (tmp_path / "catalog.json").write_text(
            json.dumps([{"document_id": 1, "title": "t", "versions": [1]}]),
            encoding="utf-8",
        )
        with pytest.raises(LoadsmithError):
            load_catalog(tmp_path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = make_catalog(tmp_path, {5: ("a", {1: "x"})})
        entries = json.loads((path / "catalog.json").read_text())
        (path / "catalog.json").write_text(json.dumps(entries * 2), encoding="utf-8")
        with pytest.raises(LoadsmithError):
            load_catalog(path)

    @pytest.mark.parametrize(
        "index,code,location",
        [
            ("[1]", "SCHEMA_ERROR", "[0]"),
            ('{"document_id": 1}', "SCHEMA_ERROR", "$"),
            ('[{"document_id": 1, "title": "t", "versions": ["1"]}]', "SCHEMA_ERROR", "[0].versions[0]"),
            ('[{"document_id": 1, "title": "t", "versions": [1.0]}]', "SCHEMA_ERROR", "[0].versions[0]"),
            ('[{"document_id": 1, "title": "t", "versions": [1, 1]}]', "SCHEMA_ERROR", "[0].versions[1]"),
            ('[{"document_id": true, "title": "t", "versions": [1]}]', "SCHEMA_ERROR", "[0].document_id"),
            ('[{"document_id": "1", "title": "t", "versions": [1]}]', "SCHEMA_ERROR", "[0].document_id"),
            ('[{"document_id": 1, "title": "t", "versions": 1}]', "SCHEMA_ERROR", "[0].versions"),
            ('[{"document_id": 1, "title": "t", "title": "u", "versions": [1]}]', "SYNTAX_ERROR", None),
            ('[{"document_id": 1, "title": "t", "versions": [1], "notes": ""}]', "SCHEMA_ERROR", "[0].notes"),
            ('[{"document_id": 0, "title": "t", "versions": [1]}]', "CATALOG_ERROR", "[0].document_id"),
            ('[{"document_id": 1, "title": "t", "versions": []}]', "CATALOG_ERROR", "[0].versions"),
            ('[{"document_id": 1, "title": "t", "versions": [0]}]', "CATALOG_ERROR", "[0].versions[0]"),
        ],
        ids=[
            "entry-not-object", "index-not-list", "string-version", "float-version",
            "repeated-version", "bool-id", "string-id", "versions-not-list", "repeated-key",
            "unknown-field", "zero-id", "no-versions", "zero-version",
        ],
    )
    def test_malformed_index_refused(self, tmp_path, capsys, index, code, location):
        make_catalog(tmp_path, {1: ("t", {1: "x\n"})})
        (tmp_path / "catalog.json").write_text(index, encoding="utf-8")
        with pytest.raises(LoadsmithError) as err:
            load_catalog(tmp_path)
        assert (err.value.code, err.value.location) == (code, location)
        assert main(["docserve", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"]["code"] == code

    def test_shipped_catalog_loads(self):
        catalog = load_catalog(CATALOG_DIR)
        assert min(catalog) == 1001
        assert catalog[1001].title == "DP-TRS-LOADS-001"
        assert catalog[1001].versions[1].content.startswith("# DP-TRS-LOADS-001")


class TestDocServer:
    def test_browse_catalog(self, catalog):
        response = json.loads(handle_line(catalog, rpc("browse_catalog")))
        assert response["id"] == 1
        assert [d["document_id"] for d in response["result"]] == [1001, 1002]

    def test_get_document_content(self, catalog):
        response = json.loads(
            handle_line(catalog, rpc("get_document_content", {"document_id": 1001, "version": 1}))
        )
        assert response["result"]["content"] == "practice text v1\n"
        assert response["result"]["checksum"]

    def test_unknown_document(self, catalog):
        response = json.loads(
            handle_line(catalog, rpc("get_document_content", {"document_id": 9999, "version": 1}))
        )
        assert response["error"]["code"] == DOCUMENT_NOT_FOUND

    def test_unknown_version_lists_available(self, catalog):
        response = json.loads(
            handle_line(catalog, rpc("get_document_content", {"document_id": 1002, "version": 3}))
        )
        assert response["error"]["code"] == VERSION_NOT_FOUND
        assert response["error"]["data"]["available_versions"] == [1]

    def test_unknown_method(self, catalog):
        response = json.loads(handle_line(catalog, rpc("delete_document")))
        assert response["error"]["code"] == METHOD_NOT_FOUND

    def test_parse_error_on_garbage(self, catalog):
        response = json.loads(handle_line(catalog, "this is not json"))
        assert response["error"]["code"] == PARSE_ERROR
        assert response["id"] is None

    def test_invalid_request_shape(self, catalog):
        response = json.loads(handle_line(catalog, json.dumps({"id": 1, "method": "x"})))
        assert response["error"]["code"] == -32600

    def test_bad_params_type(self, catalog):
        response = json.loads(
            handle_line(catalog, rpc("get_document_content", {"document_id": "1001", "version": 1}))
        )
        assert response["error"]["code"] == -32602

    @pytest.mark.parametrize(
        "params",
        [{"document_id": 1001, "version": True}, {"document_id": True, "version": 1}],
        ids=["version", "document_id"],
    )
    def test_bool_params_refused(self, catalog, params):
        # Before, True was read as the integer 1.
        response = json.loads(handle_line(catalog, rpc("get_document_content", params)))
        assert response["error"]["code"] == -32602
        assert response["id"] == 1

    def test_repeated_key_refused(self, catalog):
        # Before, the last "id" won silently.
        line = '{"jsonrpc": "2.0", "id": 2, "id": 3, "method": "browse_catalog"}'
        response = json.loads(handle_line(catalog, line))
        assert response["error"]["code"] == -32600
        assert response["id"] is None
        assert "duplicate key 'id'" in response["error"]["message"]

    @pytest.mark.parametrize(
        "request_, request_id",
        [
            ({"jsonrpc": "2.0", "id": [1], "method": "browse_catalog", "params": "junk", "extra": 1}, None),
            ({"jsonrpc": "2.0", "id": True, "method": "browse_catalog"}, None),
            ({"jsonrpc": "2.0", "id": 1.5, "method": "browse_catalog"}, None),
            ({"jsonrpc": "2.0", "id": 7, "method": "browse_catalog", "extra": 1}, 7),
            ({"jsonrpc": "2.0", "id": 7, "method": ["browse_catalog"]}, 7),
            ({"jsonrpc": "2.0", "id": 7}, 7),
        ],
        ids=["list-id", "bool-id", "float-id", "extra-member", "list-method", "no-method"],
    )
    def test_bad_request_shape_refused(self, catalog, request_, request_id):
        # Before, each was answered; a bad id was echoed back.
        response = json.loads(handle_line(catalog, json.dumps(request_)))
        assert response["error"]["code"] == -32600
        assert response["id"] == request_id

    @pytest.mark.parametrize(
        "method, params",
        [
            ("browse_catalog", "junk"),
            ("browse_catalog", {"document_id": 1001}),
            ("get_document_content", {"document_id": 1001, "version": 1, "verison": 2}),
            ("get_document_content", {"document_id": 1001}),
            ("get_document_content", None),
        ],
        ids=["string", "unexpected-name", "misspelled-name", "missing-name", "omitted"],
    )
    def test_bad_params_refused(self, catalog, method, params):
        # Before, string params and unknown names were ignored.
        response = json.loads(handle_line(catalog, rpc(method, params, request_id="r1")))
        assert response["error"]["code"] == -32602
        assert response["id"] == "r1"

    def test_string_id_and_empty_params_answered(self, catalog):
        response = json.loads(handle_line(catalog, rpc("browse_catalog", {}, request_id="r1")))
        assert response["id"] == "r1"
        assert [d["document_id"] for d in response["result"]] == [1001, 1002]

    @pytest.mark.parametrize(
        "request_",
        [
            {"jsonrpc": "2.0", "method": "browse_catalog"},
            {"jsonrpc": "2.0", "method": "get_document_content", "params": {"document_id": 1001, "version": 1}},
            {"jsonrpc": "2.0", "method": "delete_document"},
            {"jsonrpc": "2.0", "method": "get_document_content", "params": {"document_id": 1001}},
        ],
        ids=["browse", "get", "unknown-method", "bad-params"],
    )
    def test_notification_gets_no_reply(self, catalog, request_):
        # Before, each was answered with "id": null.
        assert handle_line(catalog, json.dumps(request_)) is None

    @pytest.mark.parametrize(
        "line",
        ['{"jsonrpc": "2.0", "method"', '{"method": "browse_catalog"}', '{"jsonrpc": "2.0", "method": 1}'],
        ids=["not-json", "no-jsonrpc", "method-not-text"],
    )
    def test_malformed_request_without_id_answered(self, catalog, line):
        response = json.loads(handle_line(catalog, line))
        assert response["error"]["code"] in (PARSE_ERROR, -32600)
        assert response["id"] is None

    def test_empty_line_ignored(self, catalog):
        assert handle_line(catalog, "   \n") is None

    def test_repeated_requests_byte_identical(self, catalog):
        line = rpc("get_document_content", {"document_id": 1001, "version": 2})
        assert handle_line(catalog, line) == handle_line(catalog, line)


class TestServeSubprocess:
    def test_stdio_session_against_shipped_catalog(self):
        session = "\n".join(
            [
                rpc("browse_catalog", request_id=1),
                rpc("get_document_content", {"document_id": 1001, "version": 1}, request_id=2),
                rpc("get_document_content", {"document_id": 9999, "version": 1}, request_id=3),
                "not json at all",
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "loadsmith", "docserve", str(CATALOG_DIR)],
            input=session + "\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["result"][0]["title"] == "DP-TRS-LOADS-001"
        assert "Interface Loads Processing" in json.loads(lines[1])["result"]["content"]
        assert json.loads(lines[2])["error"]["code"] == DOCUMENT_NOT_FOUND
        assert json.loads(lines[3])["error"]["code"] == PARSE_ERROR

    def test_too_deeply_nested_line_is_a_parse_error(self):
        # Before, the decoder's RecursionError ended the server (exit 1)
        # before it answered the second line.
        session = "[" * 200_000 + "]" * 200_000 + "\n" + rpc("browse_catalog", request_id=2) + "\n"
        proc = subprocess.run(
            [sys.executable, "-m", "loadsmith", "docserve", str(CATALOG_DIR)],
            input=session, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        parse_error, browse = map(json.loads, proc.stdout.splitlines())
        assert (parse_error["id"], parse_error["error"]["code"]) == (None, PARSE_ERROR)
        assert browse["id"] == 2 and browse["result"][0]["document_id"] == 1001
