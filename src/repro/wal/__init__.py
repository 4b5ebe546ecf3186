"""Durable writes for the serving layer: WAL, checkpoints, recovery.

Two layers:

* :mod:`repro.wal.log` — the one on-disk format, a checksummed
  length-prefixed frame, and the byte-level segmented write-ahead log
  built of it: configurable fsync policy, and a recovery scan that
  repairs a torn final record but refuses mid-log corruption
  (:class:`~repro.exceptions.WalCorrupt`).
* :mod:`repro.wal.manager` — :class:`DurabilityManager`, the engine the
  server mounts: validate → WAL-append → apply for every mutation,
  background checkpointing (one frame holding the database and the view
  definitions), segment pruning, and recovery-on-boot (latest loadable
  checkpoint + coalesced tail replay).

See ``docs/architecture.md`` §Durability for the crash-consistency
contract and ``tests/chaos/test_durability_chaos.py`` for the kill −9
suite that enforces it.
"""

from repro.wal.log import (
    FSYNC_POLICIES,
    WriteAheadLog,
    list_segments,
    scan_wal,
    segment_path,
)
from repro.wal.manager import DurabilityManager, checkpoint_path, list_checkpoints

__all__ = [
    "FSYNC_POLICIES",
    "DurabilityManager",
    "WriteAheadLog",
    "checkpoint_path",
    "list_checkpoints",
    "list_segments",
    "scan_wal",
    "segment_path",
]
