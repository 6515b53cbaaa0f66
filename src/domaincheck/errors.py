"""Exception types shared across the package."""

from __future__ import annotations


class DomainCheckError(Exception):
    """Base class for every error raised by this package."""


class DuplicateElement(DomainCheckError):
    """An element id appears more than once in a poset description."""


class CycleError(DomainCheckError):
    """The supplied relation is not antisymmetric after transitive closure."""


class UnknownElement(DomainCheckError):
    """An element id does not belong to the poset under discussion."""


class NotDirected(DomainCheckError):
    """A set that is required to be directed is not."""


class NotDirectedFamily(DomainCheckError):
    """A family of finite sets is not directed under the Smyth preorder."""


class BackendUnsupported(DomainCheckError):
    """The requested operation is not available on this backend."""


class IndexMismatch(DomainCheckError):
    """A net, ideal, or level set refers to a different index set."""


class PreconditionFailed(DomainCheckError):
    """A documented precondition of an operation does not hold."""


class NetClassTooSmall(DomainCheckError):
    """The configured net class cannot express a required check."""


class UnknownSuite(DomainCheckError):
    """The requested verification suite does not exist."""


class TooLarge(DomainCheckError):
    """The requested enumeration exceeds the supported size bounds."""
