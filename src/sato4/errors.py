"""Exception hierarchy shared across the package."""


class Sato4Error(Exception):
    """Base class for all errors raised by this package."""


class PDSyntaxError(Sato4Error):
    """The PD text does not conform to the grammar."""


class DiagramError(Sato4Error):
    """A structurally invalid diagram or an invalid diagram operation."""


class SeifertError(Sato4Error):
    """Seifert-surface machinery cannot proceed (e.g. disconnected diagram)."""


class MoveError(Sato4Error):
    """A Reidemeister move or crossing change is not applicable at its site."""


class ScriptSyntaxError(Sato4Error):
    """A movie script's JSON does not follow the script schema."""


class ScriptError(Sato4Error):
    """A homotopy script failed validation.

    Carries the index of the offending move (or None for terminal-state
    failures) so front ends can report the exact step.
    """

    def __init__(self, message, move_index=None):
        super().__init__(message)
        self.move_index = move_index


class GluingError(Sato4Error):
    """Two movies that should certify the same link do not."""


class CalibrationError(Sato4Error):
    """No usable global sign calibration exists for the given corpus."""


class CorpusError(Sato4Error):
    """A fixture directory is malformed or inconsistent with its metadata."""
