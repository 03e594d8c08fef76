"""Exception types shared across the toolkit."""

from __future__ import annotations


class LoadsmithError(Exception):
    """Base error carrying a machine-readable code and an optional location.

    The CLI renders these as JSON on stderr, so every raise site names a
    stable ``code`` and, for input errors, a ``location`` naming the field or
    file position that triggered it.
    """

    def __init__(self, message: str, *, code: str, location: str | None = None):
        super().__init__(message)
        self.code = code
        self.location = location

    def to_dict(self) -> dict:
        out: dict = {"code": self.code, "message": str(self)}
        if self.location is not None:
            out["location"] = self.location
        return out


class OutOfRangeError(LoadsmithError, ValueError):
    """A number outside its domain, under a code naming which; still a ValueError."""


class InputSyntaxError(LoadsmithError):
    """Raw text is not well-formed JSON/YAML."""

    def __init__(self, message: str, *, location: str | None = None):
        super().__init__(message, code="SYNTAX_ERROR", location=location)


class SchemaError(LoadsmithError):
    """Well-formed input that violates its schema (a delivery, extremes or a scenario, say)."""

    def __init__(self, message: str, *, location: str | None = None):
        super().__init__(message, code="SCHEMA_ERROR", location=location)


class UnknownUnitError(LoadsmithError):
    def __init__(self, message: str, *, location: str | None = None):
        super().__init__(message, code="UNKNOWN_UNIT", location=location)
