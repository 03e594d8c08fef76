"""README's error-code table lists exactly the codes that src/ can raise."""

import ast
import re
from pathlib import Path

import loadsmith

PACKAGE = Path(loadsmith.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _source_codes() -> set[str]:
    """Every ``code=`` keyword given as a literal (each LoadsmithError
    subclass passes its fixed code this way), and the code of every
    ``Finding`` of severity ``"error"``, in src/."""
    codes = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg == "code":
                if isinstance(node.value, ast.Constant):  # else a finding's code, passed on
                    codes.add(node.value.value)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Finding":
                severity, code = (arg.value for arg in node.args[:2])
                if severity == "error":
                    codes.add(code)
    return codes


def _readme_codes() -> set[str]:
    section = README.read_text(encoding="utf-8").split("### Exit codes\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([A-Z_]+)` \| [124–] \|", section, re.MULTILINE))


def test_readme_lists_every_error_code():
    source = _source_codes()
    assert "DUPLICATE_CASE_ID" in source  # raised by load_delivery from its finding
    assert _readme_codes() == source
