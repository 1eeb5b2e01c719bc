"""Exception hierarchy shared across the package.

Every error raised by this package derives from :class:`ProspectorEvalError`,
so callers (including the CLI) can catch one type to distinguish domain
failures from programming errors.  An error carries nothing but its message,
which the CLI prints as its one-line refusal.
"""

from __future__ import annotations


class ProspectorEvalError(Exception):
    """Base class for all package-specific errors."""


class InvalidTableError(ProspectorEvalError, ValueError):
    """A joint table violates a structural invariant required by an operation.

    From a full validation pass, the message joins ``validate``'s findings.
    """


class ZeroMarginalError(ProspectorEvalError):
    """An evidence-state pair has zero probability; conditioning on it is undefined."""


class DegenerateBaseRateError(ProspectorEvalError):
    """A base rate is 0 or 1, so link parameters or prior odds are undefined."""


class EmptyEvidenceError(ProspectorEvalError, ValueError):
    """An evidence combination was requested with no evidence values."""


class InfeasibleUpdateError(ProspectorEvalError):
    """An evidence target is incompatible with the table's zero pattern."""


class NotIndependentError(ProspectorEvalError):
    """An operation that requires independent evidence was given an associated table."""


class InfeasibleConstraintsError(ProspectorEvalError):
    """Network constraints admit no valid probability table."""


class GenerationError(ProspectorEvalError):
    """A random network could not be produced within the resampling budget."""
