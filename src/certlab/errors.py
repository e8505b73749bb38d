"""Semantic exception hierarchy shared by all certlab modules.

Public functions never raise bare ValueError for contract violations;
each failure mode gets its own class so callers (and the CLI exit-code
mapping) can distinguish bad inputs from structurally infinite results
or oversized enumerations.
"""


class CertlabError(Exception):
    """Base class for all certlab errors."""


class InvalidInputError(CertlabError, ValueError):
    """Inputs violate a documented precondition (domain, shape, finiteness)."""


class InfiniteDivergenceError(CertlabError):
    """KL divergence is structurally infinite: reference mass on a zero cell.

    Distinct from InvalidInputError because the inputs are valid
    distributions; the *pair* has no finite divergence.
    """


class NoSuccessorsError(CertlabError):
    """A terminal graph node was queried for a successor distribution."""


class EnumerationTooLargeError(CertlabError):
    """A brute-force enumeration or a Monte Carlo run would exceed its size cap."""


class ConfigError(CertlabError):
    """Experiment configuration is malformed, incomplete, or has unknown keys."""


class ReportError(CertlabError):
    """Report generation failed (e.g. a manifest references a missing file)."""
