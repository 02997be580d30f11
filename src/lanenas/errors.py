"""Exception hierarchy shared across the package."""


class LaneNasError(Exception):
    """Base class for all package errors."""


class DegenerateLineError(LaneNasError):
    """A lane line has fewer than two points."""


class EmptyArchiveError(LaneNasError):
    """Operation requires a non-empty archive."""


class EmptyDatasetError(LaneNasError):
    """Operation requires at least one scene."""


class ProtocolError(LaneNasError):
    """External evaluator process exited non-zero or wrote nothing."""


class SpawnError(LaneNasError):
    """External evaluator process could not be started."""


class SchemaError(LaneNasError):
    """Malformed input: `path` names the place at fault (a file, its
    line, a JSON path or an evaluator's reply; empty for a whole JSON
    document) and `reason` what is wrong there."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path, self.reason = path, reason
