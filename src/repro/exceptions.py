"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subclasses separate the major subsystems: algebraic
structures (semirings / monoids / semimodules), the relational core, the SQL
front end, and compatibility analysis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SemiringError(ReproError):
    """An element or operation violated a semiring's contract."""


class MonoidError(ReproError):
    """An element or operation violated a commutative monoid's contract."""


class SemimoduleError(ReproError):
    """A tensor / semimodule operation was applied to incompatible operands."""


class CompatibilityError(ReproError):
    """A (semiring, monoid) pair failed a compatibility requirement (Sec. 3.4)."""


class SchemaError(ReproError):
    """A relation or tuple was used with a mismatched schema."""


class QueryError(ReproError):
    """A query is malformed or was evaluated against an unsuitable database."""


class HomomorphismError(ReproError):
    """A homomorphism was constructed or applied incorrectly."""


class UnresolvableEqualityError(ReproError):
    """An equality atom could not be resolved in a semiring without symbols.

    Raised when a homomorphism lands in a concrete semiring (no free
    indeterminates) but the tensor-product space ``K' (x) M`` does not
    collapse, so the truth value of ``[a = b]`` is genuinely undetermined.
    """


class DeadlineExceeded(ReproError):
    """A query ran past its wall-clock budget and was cooperatively
    cancelled (see :mod:`repro.deadline`).  The serving layer maps this
    to HTTP 408; the partially-computed work is discarded, never
    returned."""


class SnapshotCorrupt(ReproError):
    """A checkpoint file failed an integrity check — truncated, over-long,
    bit-flipped, checksum mismatch, an interrupted write, or a body that
    is not a checkpoint.  Recovery catches this and falls back to the
    previous checkpoint instead of trusting partial state (see
    :meth:`repro.wal.manager.DurabilityManager.open`)."""


class WalCorrupt(ReproError):
    """The write-ahead log failed an integrity check *mid-log* — a record
    with a damaged frame or checksum that valid data (or another segment)
    follows.  Unlike a torn final record, which recovery truncates and
    continues past (a crash mid-append is expected), mid-log corruption
    means acknowledged history is damaged; recovery refuses to guess and
    surfaces this instead (see :func:`repro.wal.log.scan_wal`)."""


class WalWriteError(ReproError):
    """An append or fsync against the write-ahead log failed (disk error,
    injected ``fsync_error``/``wal_torn_tail`` fault, closed log).  The
    write was **not** acknowledged and the database was not mutated; the
    serving layer maps this to HTTP 503 (see
    :class:`repro.wal.manager.DurabilityManager`)."""


class ParseError(ReproError):
    """The SQL front end failed to tokenize or parse a query string."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position
