"""Exception hierarchy shared across the package."""


class LaneNasError(Exception):
    """Base class for all package errors."""


class EncodingSyntaxError(LaneNasError):
    """Backbone encoding string does not match the grammar."""


class ConstraintError(LaneNasError):
    """Syntactically valid value violates a domain invariant."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class ExhaustedError(LaneNasError):
    """No valid mutation exists for the given genome."""


class DegenerateLineError(LaneNasError):
    """A lane line has fewer than two points."""


class EmptyArchiveError(LaneNasError):
    """Operation requires a non-empty archive."""


class EmptyDatasetError(LaneNasError):
    """Operation requires at least one scene."""


class ProtocolError(LaneNasError):
    """External evaluator returned a malformed response."""


class SpawnError(LaneNasError):
    """External evaluator process could not be started."""


class FormatError(LaneNasError):
    """Text data file is malformed; names the file, and carries the line
    number and token."""

    def __init__(self, path, line_no, token, message=""):
        detail = message or "bad token"
        super().__init__(f"{path}: line {line_no}, token {token!r}: {detail}")
        self.line_no = line_no
        self.token = token


class SchemaError(LaneNasError):
    """JSON document violates the expected schema; carries a JSON path."""

    def __init__(self, path, message=""):
        super().__init__(f"{path}: {message or 'schema violation'}")
        self.path = path


class VersionError(LaneNasError):
    """On-disk format version is not supported."""
