"""Versioned design-practice document catalog served over JSON-RPC 2.0.

Catalog layout on disk (version-controlled, diff-friendly):

.. code-block:: text

    catalog/
      catalog.json          # [{"document_id": 1001, "title": "...", "versions": [1]}]
                            # (an entry may also carry "added_at", which is not read)
      docs/1001/v1.md       # content of document 1001, version 1

The server answers two read-only methods, ``browse_catalog`` and
``get_document_content``, one JSON-RPC message per line over stdio.
Repeated identical requests yield byte-identical responses; nothing ever
mutates the catalog.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import NamedTuple

from . import strict
from .errors import InputSyntaxError, LoadsmithError, SchemaError

# JSON-RPC 2.0 error codes (plus two application codes in the server range)
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
DOCUMENT_NOT_FOUND = -32001
VERSION_NOT_FOUND = -32002

# The names each method's params object holds, exactly; params may be omitted
# only where there are none.
_METHOD_PARAMS = {"browse_catalog": (), "get_document_content": ("document_id", "version")}


class DocumentVersion(NamedTuple):
    content: str
    checksum: str


class DocumentRecord(NamedTuple):
    document_id: int
    title: str
    versions: dict[int, DocumentVersion]


def load_catalog(catalog_dir: str | Path) -> dict[int, DocumentRecord]:
    """The catalog in ``catalog_dir``, by document id. Its index is read by
    the strict reader: a repeated key, a non-object entry, an id or version
    that is not an integer, and a repeated version are refused with their
    location, and so are an id or version below 1 and an empty version list,
    as CATALOG_ERROR, before the entry's content files are read. A missing
    index or content file is CATALOG_ERROR."""
    catalog_dir = Path(catalog_dir)
    index_path = catalog_dir / "catalog.json"
    try:
        text = strict.read_text(index_path, "catalog index")
    except FileNotFoundError as exc:
        raise LoadsmithError(
            f"catalog index not found: {index_path}", code="CATALOG_ERROR"
        ) from exc
    index = strict.read_json(text, "catalog index")
    records: dict[int, DocumentRecord] = {}
    for i, node in enumerate(strict.expect_list(index, "$")):
        loc = f"[{i}]"
        entry = strict.expect_mapping(node, loc)
        strict.expect_keys(entry, ("document_id", "title", "versions"), ("added_at",), loc)
        doc_id = strict.expect_int(entry["document_id"], f"{loc}.document_id")
        if doc_id < 1:
            raise LoadsmithError(
                f"document_id must be positive, got {doc_id}",
                code="CATALOG_ERROR",
                location=f"{loc}.document_id",
            )
        title = strict.expect_text(entry["title"], f"{loc}.title")
        if doc_id in records:
            raise LoadsmithError(
                f"duplicate document_id {doc_id} in catalog",
                code="CATALOG_ERROR",
                location=f"{loc}.document_id",
            )
        versions: list[int] = []
        for j, node in enumerate(strict.expect_list(entry["versions"], f"{loc}.versions")):
            vloc = f"{loc}.versions[{j}]"
            version = strict.expect_int(node, vloc)
            if version < 1:
                raise LoadsmithError(
                    f"version {version} of document {doc_id} must be positive",
                    code="CATALOG_ERROR",
                    location=vloc,
                )
            if version in versions:
                raise SchemaError(
                    f"version {version} of document {doc_id} is listed twice", location=vloc
                )
            versions.append(version)
        if not versions:
            raise LoadsmithError(
                f"document {doc_id} has no versions",
                code="CATALOG_ERROR",
                location=f"{loc}.versions",
            )
        loaded: dict[int, DocumentVersion] = {}
        for version in versions:
            content_path = catalog_dir / "docs" / str(doc_id) / f"v{version}.md"
            try:
                content = strict.read_text(content_path, f"content file {content_path}")
            except FileNotFoundError as exc:
                raise LoadsmithError(
                    f"content file missing for document {doc_id} v{version}: {content_path}",
                    code="CATALOG_ERROR",
                ) from exc
            checksum = hashlib.sha256(content.encode("utf-8")).hexdigest()
            loaded[version] = DocumentVersion(content, checksum)
        records[doc_id] = DocumentRecord(doc_id, title, loaded)
    return records


def _error(request_id, code: int, message: str, data=None) -> str:
    error: dict = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return json.dumps({"jsonrpc": "2.0", "id": request_id, "error": error}, ensure_ascii=False)


def _result(request_id, result) -> str:
    return json.dumps({"jsonrpc": "2.0", "id": request_id, "result": result}, ensure_ascii=False)


def handle_line(catalog: dict[int, DocumentRecord], line: str) -> str | None:
    """Answer one JSON-RPC request line against ``catalog``; None for an
    empty line and for a well-formed notification (a request without
    ``id``), which JSON-RPC 2.0 leaves unanswered."""
    line = line.strip()
    if not line:
        return None
    try:
        request = strict.read_json(line, "request")
    except InputSyntaxError as exc:
        if isinstance(exc.__cause__, (json.JSONDecodeError, RecursionError)):
            return _error(None, PARSE_ERROR, "parse error: request is not valid JSON")
        # valid JSON that cannot be read as one request, such as a repeated key
        return _error(None, INVALID_REQUEST, f"invalid request: {exc}")
    request_id = request.get("id") if isinstance(request, dict) else None
    if not (request_id is None or type(request_id) in (str, int)):  # bool is refused
        return _error(
            None, INVALID_REQUEST, "invalid request: id must be a string, an integer or null"
        )
    if not isinstance(request, dict) or request.get("jsonrpc") != "2.0":
        return _error(
            request_id, INVALID_REQUEST, "invalid request: expected a JSON-RPC 2.0 object"
        )
    method = request.get("method")
    try:
        strict.expect_keys(request, ("jsonrpc", "method"), ("id", "params"), "request")
        strict.expect_text(method, "request.method")
    except SchemaError as exc:
        return _error(request_id, INVALID_REQUEST, f"invalid request: {exc}")
    if "id" not in request:
        return None
    if method not in _METHOD_PARAMS:
        return _error(request_id, METHOD_NOT_FOUND, f"method not found: {method!r}")
    params = request.get("params", {})
    try:
        params = strict.expect_mapping(params, "params")
        strict.expect_keys(params, _METHOD_PARAMS[method], (), "params")
    except SchemaError as exc:
        return _error(request_id, INVALID_PARAMS, f"invalid params: {exc}")

    if method == "browse_catalog":
        listing = [
            {"document_id": doc_id, "title": record.title, "versions": sorted(record.versions)}
            for doc_id, record in sorted(catalog.items())
        ]
        return _result(request_id, listing)
    document_id, version = params["document_id"], params["version"]
    if type(document_id) is not int or type(version) is not int:  # bool is refused
        return _error(request_id, INVALID_PARAMS, "document_id and version must be integers")
    record = catalog.get(document_id)
    if record is None:
        return _error(request_id, DOCUMENT_NOT_FOUND, f"no document with id {document_id}")
    doc = record.versions.get(version)
    if doc is None:
        return _error(
            request_id,
            VERSION_NOT_FOUND,
            f"document {document_id} has no version {version}",
            data={"available_versions": sorted(record.versions)},
        )
    return _result(
        request_id,
        {
            "document_id": document_id,
            "version": version,
            "content": doc.content,
            "checksum": doc.checksum,
        },
    )


def serve(catalog_dir: str | Path) -> None:
    """Answer requests from stdin on stdout until stdin closes.

    Catalog load errors abort startup with a diagnostic (raised); per-request
    problems are answered as JSON-RPC error objects.
    """
    catalog = load_catalog(catalog_dir)
    for line in sys.stdin:
        response = handle_line(catalog, line)
        if response is not None:
            sys.stdout.write(response + "\n")
            sys.stdout.flush()
