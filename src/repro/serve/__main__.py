"""``python -m repro.serve`` — stand up the provenance query service.

With ``--demo`` the server starts over the paper's running example (the
Figure 1 employee/department database in ``N``), so a curl round-trip
works immediately; without it the catalog starts empty and clients
create tables via ``POST /relations``.

With ``--data-dir`` the server becomes durable: the directory holds a
write-ahead log plus periodic checkpoints, recovery runs **before the
port binds** (a client that can connect only ever sees recovered
state), and every acknowledged write survives ``kill -9`` — see
``docs/architecture.md`` §Durability.  SIGTERM and SIGINT both take the
same graceful path: stop accepting, drain in-flight requests for
``--drain-timeout`` seconds, flush the WAL, write a final checkpoint.
"""

from __future__ import annotations

import argparse
import signal
import threading

from repro.core.database import KDatabase
from repro.core.relation import KRelation
from repro.semirings.natural import NAT
from repro.serve.server import ProvenanceServer
from repro.wal import FSYNC_POLICIES, DurabilityManager


def demo_database() -> KDatabase:
    """The Figure 1 running example as a bag (``N``) database."""
    employees = KRelation.from_rows(
        NAT,
        ("EmpId", "Dept", "Sal"),
        [
            ((1, "d1", 20), 1),
            ((2, "d1", 10), 1),
            ((3, "d1", 15), 1),
            ((4, "d2", 10), 1),
            ((5, "d2", 15), 1),
        ],
    )
    departments = KRelation.from_rows(
        NAT,
        ("Dept", "Region"),
        [(("d1", "EU"), 1), (("d2", "US"), 1)],
    )
    return KDatabase(NAT, {"Emp": employees, "Dept": departments})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve SQL + materialised views over a K-database.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8737)
    parser.add_argument("--workers", type=int, default=None,
                        help="concurrent evaluations (default: min(8, cores))")
    parser.add_argument("--max-queue", type=int, default=32,
                        help="queued requests before 503 backpressure")
    parser.add_argument("--heavy-slots", type=int, default=1,
                        help="concurrent symbolic-provenance queries")
    parser.add_argument("--drain-timeout", type=float, default=5.0,
                        help="seconds to let in-flight queries finish on "
                             "shutdown before closing their connections "
                             "(0 = immediate)")
    parser.add_argument("--demo", action="store_true",
                        help="preload the Figure 1 employee database")
    parser.add_argument("--data-dir", default=None,
                        help="durable mode: WAL + checkpoints live here; "
                             "recovery runs before the port binds")
    parser.add_argument("--fsync", choices=FSYNC_POLICIES, default="batch",
                        help="WAL fsync policy: 'always' survives power "
                             "loss per write, 'batch' (default) groups "
                             "fsyncs (~10ms window), 'none' leaves flushing "
                             "to the OS — all three survive kill -9")
    parser.add_argument("--checkpoint-interval", type=float, default=60.0,
                        help="seconds between background checkpoints "
                             "(0 disables; writes still reach the WAL)")
    parser.add_argument("--segment-bytes", type=int, default=16 << 20,
                        help="WAL segment roll size in bytes")
    args = parser.parse_args(argv)
    # SIGTERM (systemd, docker stop, kill) and ^C both take the drain +
    # WAL-flush path below instead of dying mid-request: block them in
    # every thread (threads started later inherit the mask) and take
    # them synchronously on this one
    stop_signals = {signal.SIGTERM, signal.SIGINT}
    signal.pthread_sigmask(signal.SIG_BLOCK, stop_signals)

    db = demo_database() if args.demo else KDatabase(NAT)
    durability = None
    if args.data_dir:
        durability = DurabilityManager.open(
            args.data_dir,
            initial_db=db,
            fsync=args.fsync,
            segment_bytes=args.segment_bytes,
            checkpoint_interval_s=args.checkpoint_interval or None,
        )
        db = durability.db  # a non-empty directory overrides --demo
        r = durability.recovery
        print(
            f"recovered {args.data_dir}: {r['source']}, checkpoint lsn "
            f"{r['checkpoint_lsn']}, {r['records_replayed']} records "
            f"replayed"
            + (f", torn tail truncated ({r['truncated_bytes']}B)"
               if r["torn_tail"] else "")
            + f" in {r['duration_s']}s",
            flush=True,
        )

    server = ProvenanceServer(
        db,
        args.host,
        args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        heavy_slots=args.heavy_slots,
        drain_timeout=args.drain_timeout,
        durability=durability,
    )
    if durability is not None:
        outcomes = server.restore_views()
        if outcomes:
            summary = ", ".join(f"{n} ({how})" for n, how in outcomes.items())
            print(f"views recovered: {summary}", flush=True)

    try:
        server.start()
        print(
            f"repro.serve listening on http://{server.host}:{server.port} "
            f"(semiring {db.semiring.name}, {len(db.names())} relations, "
            f"{server.pool.workers} workers"
            + (f", durable at {args.data_dir}" if durability else "")
            + ")",
            flush=True,
        )
        print(
            "try:  curl -s "
            f"http://{server.host}:{server.port}/query "
            "-d '{\"sql\": \"SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept\"}'",
            flush=True,
        )
        threading.Thread(target=server.serve_forever, name="repro-serve-accept",
                         daemon=True).start()
        signal.sigwait(stop_signals)
        print("shutdown: draining in-flight requests", flush=True)
        server.close()
    finally:
        if durability is not None:
            durability.close(checkpoint=True)
            print(
                f"wal flushed, final checkpoint at lsn "
                f"{durability.stats()['last_lsn']}",
                flush=True,
            )


if __name__ == "__main__":
    main()
