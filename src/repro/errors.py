"""Exception hierarchy for the repro library.

All errors raised by the library derive from :class:`ReproError`, so client
code can catch a single exception type.  Subclasses distinguish the broad
failure categories: malformed queries, schema mismatches between a query and
a database, and requests for an algorithm whose structural precondition does
not hold (e.g. asking the constant-delay enumerator to run a query that is
not free-connex).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by this library."""


class QuerySyntaxError(ReproError):
    """Raised when a textual query cannot be parsed."""


class MalformedQueryError(ReproError):
    """Raised when a query object violates a structural invariant.

    Examples: an atom whose argument count does not match the declared
    arity, a free variable that never occurs in the body, or a union of
    conjunctive queries whose disjuncts disagree on arity.
    """


class SchemaMismatchError(ReproError):
    """Raised when a query refers to relations absent from the database,
    or uses a relation at the wrong arity."""


class NotAcyclicError(ReproError):
    """Raised when an algorithm requiring an (alpha-)acyclic query is given
    a cyclic one."""


class NotFreeConnexError(ReproError):
    """Raised when a constant-delay algorithm requiring free-connexity is
    given a query that is acyclic but not free-connex."""


class UnsupportedQueryError(ReproError):
    """Raised when a query falls outside the fragment an engine supports."""


class EnumerationError(ReproError):
    """Raised when an enumeration run violates its protocol (for example,
    a phase method called out of order)."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a setting is invalid: an unknown engine name
    (``--engine``, ``REPRO_ENGINE``) or an unreadable ``--data``
    directory.  Also a :class:`ValueError`, so callers that catch
    ``ValueError`` for a bad setting keep working."""
