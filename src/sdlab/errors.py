"""Error taxonomy with stable CLI exit codes.

Every error message starts with a short slug naming the violated
precondition, so callers (and the CLI) can surface it verbatim.
"""
from __future__ import annotations


class SdlabError(Exception):
    """Base class; exit code 1 unless a subclass overrides it."""

    exit_code = 1

    def __init__(self, slug: str, message: str):
        self.slug = slug
        super().__init__(f"{slug}: {message}")


class DomainError(SdlabError):
    """Input outside the mathematical domain of an operation."""


class BranchError(DomainError):
    """Argument on the principal-branch cut (or zero)."""


class ChartError(DomainError):
    """Point on an excluded set or outside the chart interior."""


class AccuracyError(SdlabError):
    """A numerical model cannot reach a trustworthy value."""


class DescriptorError(SdlabError):
    """Manifold descriptor invalid or missing required data."""


class ConsistencyError(SdlabError):
    """Cross-check between independent routes failed."""


class ResourceError(SdlabError):
    """Configured computation budget exceeded."""

    exit_code = 2


class UsageError(SdlabError):
    """Command-line usage problem."""

    exit_code = 64
