"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subclasses are grouped
by subsystem rather than by failure mode: a caller usually knows *which
stage* failed (building a corpus, solving the influence system, running
the crawler) and wants to handle that stage's failures uniformly.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ReproWarning(UserWarning):
    """Base class for all warnings emitted by the repro library."""


class DegenerateCitationWarning(ReproWarning):
    """A counted comment has a commenter with zero total comments.

    A valid corpus cannot produce this (the comment itself counts
    toward its commenter's TC), but a corpus mutated outside the
    validated delta path — e.g. a removal that orphans TC counts — can.
    The model drops the citation mass (``SF/TC ≡ 0``) instead of
    dividing by zero; this warning flags that the drop happened.
    """


class CorpusError(ReproError):
    """A blog corpus is structurally invalid.

    Raised for duplicate identifiers, dangling references (a comment on
    a post that does not exist, a link to an unknown blogger), or
    entities that violate basic invariants (empty ids, negative days).
    """


class ParameterError(ReproError):
    """A model or algorithm parameter is outside its valid range."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration cap."""


class CrawlError(ReproError):
    """The crawler could not complete a crawl (bad seed, dead service)."""


class XmlFormatError(ReproError):
    """An XML document does not conform to the MASS storage format."""


class CorpusFormatError(XmlFormatError):
    """Stored corpus data is truncated, corrupt, or self-inconsistent.

    Raised by the XML store when a crawl directory or corpus document
    cannot be decoded into a valid :class:`~repro.data.corpus.BlogCorpus`:
    unparseable XML, missing files or attributes, duplicate entity ids
    across space files, or dangling references inside the stored data.
    Subclasses :class:`XmlFormatError`, so callers that already handle
    format errors keep working.
    """


class StoreFormatError(ReproError):
    """A columnar store file is truncated, corrupt, or incompatible.

    Raised by :mod:`repro.store` when a ``.mcol`` file cannot be
    trusted: bad magic, a truncated footer or manifest, a section whose
    recorded bounds fall outside the file, a CRC mismatch, or a file
    written on a machine with a different byte order.
    """


class ClassifierError(ReproError):
    """A text classifier was used before training or trained on bad data."""


class IngestError(ReproError):
    """The durable ingestion pipeline failed.

    Base class for everything :mod:`repro.ingest` raises; the concrete
    subclasses say which durability mechanism broke.
    """


class WalCorruptionError(IngestError):
    """A write-ahead-log record is damaged beyond the tolerated tail.

    A torn *final* record (a crash mid-append) is expected and silently
    truncated on open; a checksum or framing failure anywhere else in a
    segment means the log cannot be trusted and replay must stop.
    """


class CheckpointError(IngestError):
    """A checkpoint could not be written, read, or matched to the run.

    Covers unreadable checkpoint directories, missing metadata, and
    parameter-fingerprint mismatches between a checkpoint and the
    pipeline trying to recover from it.
    """


class QueryError(ReproError):
    """A serving-layer query is invalid.

    Raised by the query engine and the HTTP service for malformed
    requests: non-positive or oversized ``k``, negative offsets,
    unknown domains or bloggers, and empty or non-finite interest
    weights.  Maps to a 400/404 response at the HTTP boundary.
    """


class TimelineError(ReproError):
    """A time-travel or trend query cannot be answered.

    Raised by the timeline subsystem when no checkpoint history is
    retained, a requested timestamp predates everything retained, or
    the durable directory holds no usable chain.  Maps to a 404/400
    at the HTTP boundary (history absence is a client-visible state,
    not a server fault).
    """
