"""Exception types shared across the engine."""

from __future__ import annotations


class CatendError(Exception):
    """Base class for everything this package raises on purpose."""


class InputError(CatendError):
    """Malformed or unreadable input document (CLI exit code 2)."""


class ValidationFailure(CatendError):
    """A structural law failed; carries every violation with its witnesses."""

    def __init__(self, subject: str, violations: list[str]):
        self.subject = subject
        self.violations = list(violations)
        shown = "; ".join(self.violations[:8])
        extra = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"{subject}: {shown}{extra}")


class NotALattice(ValidationFailure):
    pass


class TensorNotMonotone(ValidationFailure):
    pass


class NoResiduation(ValidationFailure):
    pass


class TypeMismatch(CatendError):
    """Arrows fed to a construction do not have the required endpoints."""


class NoLimit(CatendError):
    """No terminal cone exists over the diagram."""


class InternalCheckFailure(CatendError):
    """A replayed equation failed on validated input; signals an engine bug."""


class MissingLimit(InternalCheckFailure):
    """A construction requested a specific limit the category lacks."""


class NotACone(InternalCheckFailure):
    """A cone the engine built fails a naturality square."""


class NotAWedge(InternalCheckFailure):
    """A wedge the engine built fails a wedge square."""


class NonEnumerableAmbient(CatendError):
    """Operation requires enumerable objects or hom-sets and got neither."""


class WorkspaceBlowup(CatendError):
    """A requested set construction exceeds the configured size cap."""
